//! Warp, CTA and kernel trace containers.

use std::fmt;
use std::sync::Arc;

use crate::isa::{DataClass, Instr, InstrRef, MemRef, Op, Reg, Space, MAX_SRCS, WARP_SIZE};

/// One instruction as a [`WarpTrace`] stores it: a fixed-size `Copy`
/// record, with a memory operand's lane addresses kept as a `(start, len)`
/// range of the warp's flat address buffer instead of a `Vec` of its own.
///
/// Every field of an [`Instr`] survives the round trip, malformed ones
/// included (a register past the scoreboard, an address list of 0 or 40
/// lanes, a payload on an ALU op), so the validator still sees what a
/// generator or decoder wrote.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Rec {
    /// First lane address of the memory operand in the warp's `addrs`.
    start: u32,
    /// Number of lane addresses.
    len: u32,
    /// `dst`, then `srcs`; slot `k` holds a register iff bit `k` of
    /// `present` is set, so every `u16` stays a representable register.
    regs: [u16; 1 + MAX_SRCS],
    op: Op,
    /// Bits `0..=MAX_SRCS`: which `regs` slots are set; bit [`MEM_BIT`]:
    /// whether the instruction has a memory operand.
    present: u8,
    space: Space,
    class: DataClass,
    width: u8,
}

/// The `present` bit of a [`Rec`] that marks a memory operand.
const MEM_BIT: u8 = 1 << (1 + MAX_SRCS);

impl Rec {
    /// The instruction, with its addresses borrowed from `addrs` (the
    /// owning warp's buffer).
    #[inline]
    fn view<'a>(&self, addrs: &'a [u64]) -> InstrRef<'a> {
        let reg = |k: usize| (self.present & 1 << k != 0).then_some(Reg(self.regs[k]));
        InstrRef {
            op: self.op,
            dst: reg(0),
            srcs: [reg(1), reg(2), reg(3)],
            mem: (self.present & MEM_BIT != 0).then(|| MemRef {
                space: self.space,
                class: self.class,
                width: self.width,
                addrs: &addrs[self.start as usize..][..self.len as usize],
            }),
        }
    }
}

/// The dynamic instruction stream of one warp: a fixed-size 24-byte record
/// per instruction plus one flat buffer holding every memory operand's lane
/// addresses. Readers get [`InstrRef`] views from [`iter`](Self::iter) and
/// [`get`](Self::get).
#[derive(Clone, Default, PartialEq)]
pub struct WarpTrace {
    instrs: Vec<Rec>,
    addrs: Vec<u64>,
}

impl WarpTrace {
    /// An empty warp trace.
    pub fn new() -> Self {
        WarpTrace::default()
    }

    /// An empty warp trace with room for `instrs` instructions whose
    /// memory operands hold `addrs` lane addresses in total. A writer that
    /// knows both sizes fills the warp without reallocating.
    pub fn with_capacity(instrs: usize, addrs: usize) -> Self {
        WarpTrace {
            instrs: Vec::with_capacity(instrs),
            addrs: Vec::with_capacity(addrs),
        }
    }

    /// Append one instruction.
    #[inline]
    pub fn push(&mut self, i: Instr) {
        let Instr { op, dst, srcs, mem } = i;
        match mem {
            None => self.push_parts(op, dst, srcs, None, []),
            Some(m) => {
                let parts = Some((m.space, m.class, m.width));
                self.push_parts(op, dst, srcs, parts, m.addrs.iter().copied())
            }
        };
    }

    /// Append a load writing `dst` whose lane addresses are `addrs`,
    /// straight into the warp's address buffer ([`Instr::load`] without
    /// the owned `Vec`). Returns the stored operand.
    pub fn push_load(
        &mut self,
        dst: Reg,
        space: Space,
        class: DataClass,
        width: u8,
        addrs: impl IntoIterator<Item = u64>,
    ) -> MemRef<'_> {
        let srcs = [None; MAX_SRCS];
        self.push_mem(Op::Ld(space), Some(dst), srcs, (space, class, width), addrs)
    }

    /// Append a store reading `src` whose lane addresses are `addrs`
    /// ([`Instr::store`] without the owned `Vec`). Returns the stored
    /// operand.
    pub fn push_store(
        &mut self,
        src: Reg,
        space: Space,
        class: DataClass,
        width: u8,
        addrs: impl IntoIterator<Item = u64>,
    ) -> MemRef<'_> {
        let srcs = [Some(src), None, None];
        self.push_mem(Op::St(space), None, srcs, (space, class, width), addrs)
    }

    fn push_mem(
        &mut self,
        op: Op,
        dst: Option<Reg>,
        srcs: [Option<Reg>; MAX_SRCS],
        (space, class, width): (Space, DataClass, u8),
        addrs: impl IntoIterator<Item = u64>,
    ) -> MemRef<'_> {
        let addrs = self.push_parts(op, dst, srcs, Some((space, class, width)), addrs);
        MemRef {
            space,
            class,
            width,
            addrs,
        }
    }

    /// Append one instruction from its parts: `mem` is the memory
    /// operand's `(space, class, width)` and `addrs` its lane addresses
    /// (empty without one). Every writer ends here. Returns the stored
    /// lane addresses.
    ///
    /// # Panics
    ///
    /// Panics if the warp's address buffer would pass `u32::MAX` entries.
    #[inline]
    pub(crate) fn push_parts(
        &mut self,
        op: Op,
        dst: Option<Reg>,
        srcs: [Option<Reg>; MAX_SRCS],
        mem: Option<(Space, DataClass, u8)>,
        addrs: impl IntoIterator<Item = u64>,
    ) -> &[u64] {
        let start = self.addrs.len();
        self.addrs.extend(addrs);
        let end = self.addrs.len();
        let offset = |n: usize| u32::try_from(n).expect("warp address buffer exceeds u32::MAX");
        let mut regs = [0; 1 + MAX_SRCS];
        let mut present = 0;
        for (k, r) in [dst, srcs[0], srcs[1], srcs[2]].into_iter().enumerate() {
            if let Some(Reg(r)) = r {
                regs[k] = r;
                present |= 1 << k;
            }
        }
        let (space, class, width) = match mem {
            Some(m) => {
                present |= MEM_BIT;
                m
            }
            None => (Space::Global, DataClass::Compute, 0),
        };
        self.instrs.push(Rec {
            start: offset(start),
            len: offset(end - start),
            regs,
            op,
            present,
            space,
            class,
            width,
        });
        &self.addrs[start..end]
    }

    /// Append many instructions.
    pub fn extend(&mut self, it: impl IntoIterator<Item = Instr>) {
        for i in it {
            self.push(i);
        }
    }

    /// Number of dynamic instructions.
    pub fn len(&self) -> usize {
        self.instrs.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.instrs.is_empty()
    }

    /// Total lane addresses over all memory operands.
    pub fn addr_count(&self) -> usize {
        self.addrs.len()
    }

    /// The instruction at `idx`, if any.
    #[inline]
    pub fn get(&self, idx: usize) -> Option<InstrRef<'_>> {
        self.instrs.get(idx).map(|r| r.view(&self.addrs))
    }

    /// Iterate over the instructions.
    #[inline]
    pub fn iter(
        &self,
    ) -> impl DoubleEndedIterator<Item = InstrRef<'_>> + ExactSizeIterator + Clone {
        self.instrs.iter().map(|r| r.view(&self.addrs))
    }

    /// Empty the warp, keeping its buffers for reuse.
    pub(crate) fn clear(&mut self) {
        self.instrs.clear();
        self.addrs.clear();
    }

    /// Ensure the warp ends with an `Exit`, appending one if missing, and
    /// trim spare capacity so a finished warp holds only its instructions
    /// and addresses (a no-op for a warp sized exactly up front).
    pub fn seal(&mut self) {
        if !matches!(self.instrs.last().map(|r| r.op), Some(Op::Exit)) {
            self.push(Instr::exit());
        }
        self.instrs.shrink_to_fit();
        self.addrs.shrink_to_fit();
    }
}

impl fmt::Debug for WarpTrace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl FromIterator<Instr> for WarpTrace {
    fn from_iter<T: IntoIterator<Item = Instr>>(iter: T) -> Self {
        let mut w = WarpTrace::new();
        w.extend(iter);
        w
    }
}

/// The trace of one cooperative thread array (thread block): one
/// [`WarpTrace`] per warp.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CtaTrace {
    /// Per-warp traces; `warps.len() * 32 >= threads` of the launch.
    pub warps: Vec<WarpTrace>,
}

impl CtaTrace {
    /// A CTA trace from per-warp instruction streams.
    pub fn new(warps: Vec<WarpTrace>) -> Self {
        CtaTrace { warps }
    }

    /// Number of warps.
    pub fn warp_count(&self) -> usize {
        self.warps.len()
    }

    /// Total dynamic instructions over all warps.
    pub fn instr_count(&self) -> usize {
        self.warps.iter().map(WarpTrace::len).sum()
    }
}

/// A complete kernel trace: launch geometry, per-thread resource usage and
/// the per-CTA instruction streams.
///
/// Graphics work is expressed as kernels too: each vertex-shading batch and
/// each fragment-shading tile group becomes a `KernelTrace`, which is what
/// lets the timing model treat rendering and CUDA uniformly.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelTrace {
    /// Human-readable kernel name (e.g. `"vs_batch_17"`, `"vio_fast9"`).
    pub name: String,
    /// Threads per CTA.
    pub block_threads: u32,
    /// Architectural registers per thread (occupancy limiter).
    pub regs_per_thread: u32,
    /// Shared memory bytes per CTA (occupancy limiter).
    pub smem_per_cta: u32,
    /// One trace per CTA; the grid size is `ctas.len()`. Shared, so
    /// cloning a kernel (or the stream holding it) and paging its CTAs into
    /// a [`TraceSource`](crate::TraceSource) copy no instructions.
    pub ctas: Vec<Arc<CtaTrace>>,
}

impl KernelTrace {
    /// A kernel trace. `block_threads` is clamped up to one full warp.
    ///
    /// # Panics
    ///
    /// Panics if any CTA has more warps than `block_threads` implies.
    pub fn new(
        name: impl Into<String>,
        block_threads: u32,
        regs_per_thread: u32,
        smem_per_cta: u32,
        ctas: Vec<CtaTrace>,
    ) -> Self {
        let block_threads = block_threads.max(WARP_SIZE as u32);
        let max_warps = block_threads.div_ceil(WARP_SIZE as u32) as usize;
        for (i, c) in ctas.iter().enumerate() {
            assert!(
                c.warp_count() <= max_warps,
                "cta {i} has {} warps but block allows {max_warps}",
                c.warp_count()
            );
        }
        KernelTrace {
            name: name.into(),
            block_threads,
            regs_per_thread,
            smem_per_cta,
            ctas: ctas.into_iter().map(Arc::new).collect(),
        }
    }

    /// Grid size in CTAs.
    pub fn grid(&self) -> usize {
        self.ctas.len()
    }

    /// Warps per CTA implied by the launch geometry.
    pub fn warps_per_cta(&self) -> u32 {
        self.block_threads.div_ceil(WARP_SIZE as u32)
    }

    /// Registers required by one CTA.
    pub fn regs_per_cta(&self) -> u32 {
        // Register files allocate per warp at warp granularity. Saturates
        // for geometry no SM can hold, so placement checks reject it.
        self.warps_per_cta()
            .saturating_mul(WARP_SIZE as u32)
            .saturating_mul(self.regs_per_thread)
    }

    /// Total dynamic instruction count.
    pub fn instr_count(&self) -> usize {
        self.ctas.iter().map(|c| c.instr_count()).sum()
    }

    /// Total threads launched (grid × block), the quantity hardware
    /// profilers report for shader invocation counts.
    pub fn threads_launched(&self) -> u64 {
        self.grid() as u64 * self.block_threads as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::MemAccess;

    fn warp(n: usize) -> WarpTrace {
        let mut w = WarpTrace::new();
        for _ in 0..n {
            w.push(Instr::alu(Op::IntAlu, Reg(0), &[]));
        }
        w.seal();
        w
    }

    #[test]
    fn seal_trims_spare_capacity() {
        let mut w = WarpTrace::with_capacity(64, 64);
        w.push(Instr::alu(Op::IntAlu, Reg(0), &[]));
        w.push(Instr::load(
            Reg(1),
            MemAccess::coalesced(Space::Global, DataClass::Compute, 4, 0, 3),
        ));
        w.seal();
        assert_eq!(w.instrs.capacity(), 3, "the alu op, the load and the exit");
        assert_eq!(w.addrs.capacity(), 3, "the load's lanes");
    }

    #[test]
    fn a_record_fits_in_32_bytes() {
        assert!(
            std::mem::size_of::<Rec>() <= 32,
            "{}",
            std::mem::size_of::<Rec>()
        );
    }

    #[test]
    fn records_hand_back_every_field_pushed() {
        let mem = |n| MemAccess {
            space: Space::Tex,
            class: DataClass::Texture,
            width: 8,
            addrs: (0..n).map(|a| a * 3).collect(),
        };
        let instrs = [
            Instr::alu(Op::FpFma, Reg(5), &[Reg(1), Reg(u16::MAX), Reg(0)]),
            Instr::load(Reg(u16::MAX), mem(32)),
            Instr::store(Reg(7), mem(1)),
            // Malformed instructions stay representable for the validator.
            Instr {
                op: Op::Ld(Space::Shared),
                dst: None,
                srcs: [None, Some(Reg(2)), None],
                mem: Some(mem(40)),
            },
            Instr {
                op: Op::IntAlu,
                dst: Some(Reg(1)),
                srcs: [None; MAX_SRCS],
                mem: Some(mem(0)),
            },
            Instr {
                op: Op::Ld(Space::Global),
                dst: Some(Reg(3)),
                srcs: [None; MAX_SRCS],
                mem: None,
            },
            Instr::bar_at(9),
            Instr::exit(),
        ];
        let w: WarpTrace = instrs.iter().cloned().collect();
        assert_eq!(w.len(), instrs.len());
        assert_eq!(w.addr_count(), 32 + 1 + 40);
        for (k, i) in instrs.iter().enumerate() {
            assert_eq!(w.get(k), Some(i.view()), "instr {k}");
        }
        assert!(w.iter().eq(instrs.iter().map(Instr::view)));
        assert_eq!(w.get(instrs.len()), None);
    }

    #[test]
    fn push_load_and_store_match_the_owned_builders() {
        let mut direct = WarpTrace::new();
        let m = direct.push_load(Reg(1), Space::Tex, DataClass::Texture, 4, [8, 4, 0]);
        assert_eq!(m.addrs, &[8, 4, 0]);
        direct.push_store(Reg(2), Space::Global, DataClass::Pipeline, 16, 0..2);
        let mut owned = WarpTrace::new();
        owned.push(Instr::load(
            Reg(1),
            MemAccess::scattered(Space::Tex, DataClass::Texture, 4, vec![8, 4, 0]),
        ));
        owned.push(Instr::store(
            Reg(2),
            MemAccess::scattered(Space::Global, DataClass::Pipeline, 16, vec![0, 1]),
        ));
        assert_eq!(direct, owned);
    }

    #[test]
    fn seal_appends_exit_once() {
        let mut w = warp(3);
        assert_eq!(w.len(), 4);
        w.seal();
        assert_eq!(w.len(), 4, "seal must be idempotent");
        assert_eq!(w.get(3).unwrap().op, Op::Exit);
    }

    #[test]
    fn cta_counts_aggregate() {
        let c = CtaTrace::new(vec![warp(2), warp(5)]);
        assert_eq!(c.warp_count(), 2);
        assert_eq!(c.instr_count(), 3 + 6);
    }

    #[test]
    fn kernel_geometry() {
        let k = KernelTrace::new("k", 96, 32, 0, vec![CtaTrace::new(vec![warp(1); 3]); 4]);
        assert_eq!(k.grid(), 4);
        assert_eq!(k.warps_per_cta(), 3);
        assert_eq!(k.regs_per_cta(), 3 * 32 * 32);
        assert_eq!(k.threads_launched(), 4 * 96);
    }

    #[test]
    fn kernel_clamps_tiny_blocks_to_a_warp() {
        let k = KernelTrace::new("k", 1, 16, 0, vec![]);
        assert_eq!(k.block_threads, 32);
        assert_eq!(k.warps_per_cta(), 1);
    }

    #[test]
    #[should_panic(expected = "warps")]
    fn kernel_rejects_overfull_cta() {
        let _ = KernelTrace::new("k", 32, 16, 0, vec![CtaTrace::new(vec![warp(1), warp(1)])]);
    }

    #[test]
    fn warp_trace_from_iterator() {
        let w: WarpTrace = (0..5).map(|_| Instr::branch()).collect();
        assert_eq!(w.len(), 5);
    }
}
