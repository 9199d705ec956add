//! Per-warp execution state: trace cursor, scoreboard, blocking status.

use std::io;
use std::sync::Arc;

use crisp_ckpt::{bad, CheckpointState, Reader, Wire, Writer};
use crisp_trace::{CtaTrace, InstrRef, KernelId, KernelInfo, Op, Reg, StreamId, TraceSource};

/// Why a warp cannot issue right now.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WarpStatus {
    /// Ready to issue its next instruction (subject to unit availability).
    Ready,
    /// Parked at the named CTA barrier slot (`bar.sync id`); released only
    /// when that slot's arrival count reaches the CTA's live-warp count.
    AtBarrier(u8),
    /// Trace exhausted; warp has exited.
    Exited,
}

/// The scheduler's view of a live warp: which class bitset of its
/// scheduler holds its slot (see [`WarpState::class`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum WarpClass {
    /// No scoreboard hazard: issues once its pipe or the LSU has room.
    Ready,
    /// Its next instruction waits on a register an outstanding load writes.
    MemWait,
    /// Its next instruction waits on an ALU/SFU/tensor result.
    SbWait,
    /// Parked at a CTA barrier.
    BarWait,
}

/// Invariant: register ids stay below [`crisp_trace::SCOREBOARD_REGS`]
/// (the scoreboard is a `u128` mask). The pre-flight validator
/// (`crisp_trace::validate_bundle`) rejects traces that violate this before
/// they reach the cycle path; the assert is kept as defense-in-depth because
/// a masked release-mode shift (`1u128 << (r.0 & 127)`) would silently alias
/// two registers and corrupt dependency tracking instead of failing loudly.
fn reg_bit(r: Reg) -> u128 {
    assert!(
        r.0 < crisp_trace::SCOREBOARD_REGS,
        "scoreboard supports register ids 0..{}, got {} — run \
         crisp_trace::validate_bundle on the trace before simulating",
        crisp_trace::SCOREBOARD_REGS,
        r.0
    );
    1u128 << r.0
}

/// The registers `instr` reads or writes (its RAW/WAW hazard mask), or
/// `None` when one of them is past the scoreboard.
fn hazard_mask(instr: InstrRef<'_>) -> Option<u128> {
    instr.src_regs().chain(instr.dst).try_fold(0u128, |m, r| {
        (r.0 < crisp_trace::SCOREBOARD_REGS).then(|| m | 1u128 << r.0)
    })
}

/// The cached mask of an instruction with an out-of-range register: every
/// register reads as a hazard, and issuing it panics (see
/// [`WarpState::assert_registers`]). No valid instruction names all 128.
const POISONED: u128 = u128::MAX;

/// One resident warp.
#[derive(Debug, Clone)]
pub struct WarpState {
    /// Launch geometry of the kernel this warp replays.
    pub info: Arc<KernelInfo>,
    /// The instruction streams of this warp's CTA (shared with the trace
    /// source's resident window).
    pub cta: Arc<CtaTrace>,
    /// Kernel launch the CTA belongs to, for checkpointing and release.
    pub kernel: KernelId,
    /// CTA index within the grid.
    pub cta_index: usize,
    /// Warp index within the CTA.
    pub warp_index: usize,
    /// Resident-CTA handle this warp belongs to (slot id in the SM).
    pub cta_slot: usize,
    /// Stream for statistics.
    pub stream: StreamId,
    /// Next instruction index in the warp's trace.
    pub pc: usize,
    /// Bitmask of registers with writes in flight (bit = register id).
    pub pending_writes: u128,
    /// Subset of [`pending_writes`](Self::pending_writes) whose producer is
    /// an outstanding memory load — used to attribute scoreboard stalls to
    /// memory latency rather than ALU dependencies.
    pub pending_mem: u128,
    /// Current blocking status.
    pub status: WarpStatus,
    /// Issue order tiebreaker: launch sequence (lower = older).
    pub age: u64,
    /// Opcode of the instruction at `pc`; `None` once the trace is
    /// exhausted. Cached with `need` so the issue checks never touch the
    /// trace.
    next_op: Option<Op>,
    /// Hazard mask of the instruction at `pc` (0 when exhausted).
    need: u128,
}

impl WarpState {
    /// A fresh warp at the start of its trace.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        info: Arc<KernelInfo>,
        cta: Arc<CtaTrace>,
        kernel: KernelId,
        cta_index: usize,
        warp_index: usize,
        cta_slot: usize,
        stream: StreamId,
        age: u64,
    ) -> Self {
        let mut w = WarpState {
            info,
            cta,
            kernel,
            cta_index,
            warp_index,
            cta_slot,
            stream,
            pc: 0,
            pending_writes: 0,
            pending_mem: 0,
            status: WarpStatus::Ready,
            age,
            next_op: None,
            need: 0,
        };
        w.refresh_next();
        w
    }

    /// Re-derive the cached opcode and hazard mask of the instruction at
    /// `pc`. Never panics: a register past the scoreboard poisons the mask
    /// instead, because warps are also built outside the cycle loop's panic
    /// boundary (CTA launch, checkpoint restore).
    fn refresh_next(&mut self) {
        (self.next_op, self.need) = match self.next_instr() {
            Some(i) => (Some(i.op), hazard_mask(i).unwrap_or(POISONED)),
            None => (None, 0),
        };
    }

    /// The next instruction to issue, if the trace has one.
    pub fn next_instr(&self) -> Option<InstrRef<'_>> {
        self.cta.warps[self.warp_index].get(self.pc)
    }

    /// Opcode of the next instruction, if the trace has one.
    pub(crate) fn next_op(&self) -> Option<Op> {
        self.next_op
    }

    /// Whether the scoreboard blocks the next instruction (RAW on its
    /// sources, WAW on its destination).
    pub(crate) fn next_blocked(&self) -> bool {
        self.pending_writes & self.need != 0
    }

    /// Whether the next instruction's hazard involves a register whose
    /// producer is an outstanding memory load. Only meaningful when
    /// [`next_blocked`](Self::next_blocked) is true.
    pub(crate) fn next_blocked_on_mem(&self) -> bool {
        self.pending_mem & self.need != 0
    }

    /// The class this warp's slot belongs to, or `None` once it has exited
    /// or run out of trace. A function of `status`, `pc` and the scoreboard
    /// alone, so it changes only where one of them does.
    pub(crate) fn class(&self) -> Option<WarpClass> {
        match self.status {
            WarpStatus::Exited => None,
            WarpStatus::AtBarrier(_) => Some(WarpClass::BarWait),
            WarpStatus::Ready => match self.next_op {
                None => None,
                Some(_) if self.next_blocked_on_mem() => Some(WarpClass::MemWait),
                Some(_) if self.next_blocked() => Some(WarpClass::SbWait),
                Some(_) => Some(WarpClass::Ready),
            },
        }
    }

    /// Panic unless every register of the next instruction fits the
    /// scoreboard. Called on issue, inside the cycle loop's panic boundary,
    /// so an invalid trace run without pre-flight ends in a typed error.
    pub(crate) fn assert_registers(&self) {
        if self.need == POISONED {
            let i = self.next_instr().expect("only an instruction is poisoned");
            for r in i.src_regs().chain(i.dst) {
                let _ = reg_bit(r);
            }
        }
    }

    /// Mark `reg` as having a write in flight.
    ///
    /// # Panics
    ///
    /// Panics if the register id is 128 or higher (trace generators keep
    /// dependency register ids small).
    pub fn set_pending(&mut self, reg: Reg) {
        self.pending_writes |= reg_bit(reg);
    }

    /// Mark `reg` as having a *memory load* in flight (also sets the plain
    /// pending bit).
    pub fn set_pending_mem(&mut self, reg: Reg) {
        let bit = reg_bit(reg);
        self.pending_writes |= bit;
        self.pending_mem |= bit;
    }

    /// A write to `reg` has retired.
    pub fn clear_pending(&mut self, reg: Reg) {
        let bit = reg_bit(reg);
        self.pending_writes &= !bit;
        self.pending_mem &= !bit;
    }

    /// Advance past the just-issued instruction.
    pub fn advance(&mut self) {
        self.pc += 1;
        self.refresh_next();
    }
}

impl Wire for WarpStatus {
    fn put<W: io::Write>(&self, w: &mut Writer<W>) -> io::Result<()> {
        match *self {
            WarpStatus::Ready => w.put(&0u8),
            // Tag byte, then the barrier slot: checkpoint VERSION 3.
            WarpStatus::AtBarrier(id) => w.put(&(1u8, id)),
            WarpStatus::Exited => w.put(&2u8),
        }
    }

    fn get<R: io::Read>(r: &mut Reader<R>) -> io::Result<Self> {
        match r.get::<u8>()? {
            0 => Ok(WarpStatus::Ready),
            1 => match r.get::<u8>()? {
                id if (id as usize) < crisp_trace::NUM_BARRIERS => Ok(WarpStatus::AtBarrier(id)),
                id => Err(bad(format!("bad barrier slot {id}"))),
            },
            2 => Ok(WarpStatus::Exited),
            t => Err(bad(format!("bad warp status tag {t}"))),
        }
    }
}

impl CheckpointState for WarpState {
    /// Warps are written as `(kernel id, cta index)` cursors into the
    /// checkpoint's trace source rather than inline instruction payloads;
    /// restore pages the CTA back in through the source.
    type RestoreCtx<'a> = &'a mut TraceSource;

    fn save<W: io::Write>(&self, w: &mut Writer<W>) -> io::Result<()> {
        w.put(&(self.kernel, self.cta_index, self.warp_index, self.cta_slot))?;
        w.put(&(self.stream, self.pc, self.pending_writes, self.pending_mem))?;
        w.put(&(self.status, self.age))
    }

    fn restore<R: io::Read>(r: &mut Reader<R>, source: &mut TraceSource) -> io::Result<Self> {
        let (kernel, cta_index, warp_index, cta_slot): (KernelId, usize, usize, usize) = r.get()?;
        let (stream, pc, pending_writes, pending_mem): (_, _, u128, u128) = r.get()?;
        let (status, age) = r.get()?;
        let info = source
            .kernel_info(kernel)
            .ok_or_else(|| bad(format!("warp references unknown {kernel}")))?
            .clone();
        if cta_index >= info.grid {
            return Err(bad(format!(
                "warp cta index {cta_index} >= grid {}",
                info.grid
            )));
        }
        // Resident-window sharing: every warp of the same CTA gets the same
        // Arc back, so restore rebuilds exactly the pre-checkpoint sharing.
        let cta = source.fetch_cta(kernel, cta_index)?;
        let n_warps = cta.warps.len();
        if warp_index >= n_warps {
            return Err(bad(format!("warp index {warp_index} >= {n_warps}")));
        }
        if pending_mem & !pending_writes != 0 {
            return Err(bad("pending_mem must be a subset of pending_writes"));
        }
        let mut w = WarpState {
            info,
            cta,
            kernel,
            cta_index,
            warp_index,
            cta_slot,
            stream,
            pc,
            pending_writes,
            pending_mem,
            status,
            age,
            next_op: None,
            need: 0,
        };
        w.refresh_next();
        Ok(w)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crisp_trace::{CtaTrace, Instr, MemAccess, Op, Space, WarpTrace};

    fn warp_with(instrs: Vec<Instr>) -> WarpState {
        let mut w = WarpTrace::new();
        w.extend(instrs);
        w.seal();
        let k = crisp_trace::KernelTrace::new("k", 32, 8, 0, vec![CtaTrace::new(vec![w])]);
        let info = Arc::new(KernelInfo::of(&k));
        let cta = k.ctas[0].clone();
        WarpState::new(info, cta, KernelId(0), 0, 0, 0, StreamId(0), 0)
    }

    #[test]
    fn cursor_walks_the_trace() {
        let mut w = warp_with(vec![Instr::alu(Op::IntAlu, Reg(1), &[]), Instr::branch()]);
        assert_eq!(w.next_instr().unwrap().op, Op::IntAlu);
        w.advance();
        assert_eq!(w.next_instr().unwrap().op, Op::Branch);
        w.advance();
        assert_eq!(w.next_instr().unwrap().op, Op::Exit);
        w.advance();
        assert!(w.next_instr().is_none());
    }

    #[test]
    fn raw_hazard_blocks() {
        let mut w = warp_with(vec![Instr::alu(Op::FpFma, Reg(2), &[Reg(1)])]);
        assert!(!w.next_blocked());
        w.set_pending(Reg(1));
        assert!(w.next_blocked(), "RAW on r1");
        w.clear_pending(Reg(1));
        assert!(!w.next_blocked());
    }

    #[test]
    fn advancing_recomputes_the_hazard_mask() {
        let mut w = warp_with(vec![
            Instr::alu(Op::FpFma, Reg(2), &[Reg(1)]),
            Instr::alu(Op::IntAlu, Reg(3), &[Reg(4)]),
        ]);
        w.set_pending(Reg(1));
        assert!(w.next_blocked(), "RAW on r1");
        w.advance();
        assert_eq!(w.next_op(), Some(Op::IntAlu));
        assert!(!w.next_blocked(), "the next instruction does not read r1");
        w.set_pending_mem(Reg(4));
        assert!(w.next_blocked_on_mem());
    }

    #[test]
    fn waw_hazard_blocks() {
        let mut w = warp_with(vec![Instr::alu(Op::FpFma, Reg(2), &[])]);
        w.set_pending(Reg(2));
        assert!(w.next_blocked(), "WAW on r2");
    }

    #[test]
    fn mem_pending_mask_tracks_load_producers() {
        let mut w = warp_with(vec![Instr::alu(Op::FpFma, Reg(3), &[Reg(1), Reg(2)])]);
        w.set_pending(Reg(1)); // ALU producer
        assert!(w.next_blocked());
        assert!(
            !w.next_blocked_on_mem(),
            "ALU dependency is not a memory stall"
        );
        w.set_pending_mem(Reg(2)); // load producer
        assert!(w.next_blocked_on_mem(), "load dependency is a memory stall");
        w.clear_pending(Reg(2));
        assert!(!w.next_blocked_on_mem());
        assert!(w.next_blocked(), "r1 still pending");
        assert_eq!(w.pending_mem, 0, "clear_pending clears the mem bit too");
    }

    #[test]
    fn stores_reading_pending_data_block() {
        let mut w = warp_with(vec![Instr::store(
            Reg(3),
            MemAccess::coalesced(Space::Global, crisp_trace::DataClass::Compute, 4, 0, 32),
        )]);
        w.set_pending(Reg(3));
        assert!(w.next_blocked());
    }
}
