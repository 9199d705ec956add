//! The instruction-level trace format.
//!
//! Instructions carry only what a trace-driven timing model consumes:
//! an opcode *class* (which selects a latency/throughput pipe), register-level
//! dependencies, and — for memory instructions — per-lane addresses tagged
//! with an address space and a data class.

/// Number of threads in a warp. Fixed at 32, matching every NVIDIA GPU the
/// paper models.
pub const WARP_SIZE: usize = 32;

/// Maximum number of source registers recorded per instruction.
pub const MAX_SRCS: usize = 3;

/// Number of named CTA barrier slots (PTX exposes `bar.sync 0..15`).
pub const NUM_BARRIERS: usize = 16;

/// An architectural register identifier local to a warp.
///
/// Trace-level dependencies are expressed between these; the timing model's
/// scoreboard tracks pending writes per `(warp, Reg)` pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Reg(pub u16);

/// Memory address spaces distinguished by the timing model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Space {
    /// Device memory through L1 → L2 → DRAM.
    Global,
    /// On-chip shared memory (scratchpad); never leaves the SM.
    Shared,
    /// Thread-local spill space; behaves like `Global` in the hierarchy.
    Local,
    /// Texture fetch. CRISP routes these through the *unified* L1 data cache
    /// (contemporary GPUs no longer have a separate texture cache), but the
    /// tag is kept so texture traffic can be accounted separately.
    Tex,
}

impl Space {
    /// Whether accesses to this space traverse the L1/L2/DRAM hierarchy.
    pub fn is_cached(self) -> bool {
        !matches!(self, Space::Shared)
    }
}

/// Classification of the data a memory access touches, used for the L2
/// composition case studies (paper Figures 11 and 15).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DataClass {
    /// Texel data fetched by texture units.
    Texture,
    /// Inter-stage graphics pipeline data: vertex attributes redistributed
    /// through the L2, framebuffer writes from the black-box stages.
    Pipeline,
    /// General-purpose compute data (CUDA kernels).
    Compute,
}

impl DataClass {
    /// All classes, in display order.
    pub const ALL: [DataClass; 3] = [DataClass::Texture, DataClass::Pipeline, DataClass::Compute];

    /// Short label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            DataClass::Texture => "texture",
            DataClass::Pipeline => "pipeline",
            DataClass::Compute => "compute",
        }
    }
}

/// Dynamic opcode classes.
///
/// The timing model maps each class to an execution pipe (FP / INT / SFU /
/// TENSOR / LSU) with a (latency, initiation-interval) pair; the functional
/// semantics are irrelevant to replay and are not recorded.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Op {
    /// Integer ALU (IADD, LOP, SHF, ...).
    IntAlu,
    /// Single-cycle-throughput FP add/compare class.
    FpAlu,
    /// FP multiply.
    FpMul,
    /// Fused multiply-add (the workhorse of shading and GEMM).
    FpFma,
    /// Special-function unit: rsqrt, sin, exp, interpolation.
    Sfu,
    /// Tensor-core MMA class.
    Tensor,
    /// Control flow; models branch latency only (divergence is already baked
    /// into the trace via active masks).
    Branch,
    /// CTA-wide barrier at a named slot (PTX `bar.sync 0..15`). Warps of one
    /// CTA parked at *different* slots never release each other — equal
    /// per-warp barrier totals with divergent slot sequences are exactly the
    /// deadlock the static prover (`crisp-analyze`'s `cfg` pass) rejects at
    /// admission.
    Bar(u8),
    /// Warp termination.
    Exit,
    /// Memory load from `Space`.
    Ld(Space),
    /// Memory store to `Space`.
    St(Space),
}

impl Op {
    /// Whether this opcode carries a [`MemAccess`].
    pub fn is_mem(self) -> bool {
        matches!(self, Op::Ld(_) | Op::St(_))
    }

    /// Whether this opcode is a load.
    pub fn is_load(self) -> bool {
        matches!(self, Op::Ld(_))
    }
}

/// The memory behaviour of one dynamic warp instruction: per-active-lane
/// byte addresses plus space/class tags.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemAccess {
    /// Address space.
    pub space: Space,
    /// Data classification for composition accounting.
    pub class: DataClass,
    /// Bytes accessed per lane (4 for a 32-bit load, 16 for a vec4, ...).
    pub width: u8,
    /// Byte addresses of the *active* lanes (1..=32 entries).
    pub addrs: Vec<u64>,
}

impl MemAccess {
    /// A fully-coalesced unit-stride access: `lanes` consecutive lanes each
    /// touching `width` bytes starting at `base`.
    pub fn coalesced(space: Space, class: DataClass, width: u8, base: u64, lanes: usize) -> Self {
        assert!((1..=WARP_SIZE).contains(&lanes), "lanes must be 1..=32");
        MemAccess {
            space,
            class,
            width,
            addrs: (0..lanes as u64).map(|l| base + l * width as u64).collect(),
        }
    }

    /// An access with explicit per-lane addresses.
    pub fn scattered(space: Space, class: DataClass, width: u8, addrs: Vec<u64>) -> Self {
        assert!(!addrs.is_empty() && addrs.len() <= WARP_SIZE);
        MemAccess {
            space,
            class,
            width,
            addrs,
        }
    }

    /// The borrowed form of this access, as a [`WarpTrace`](crate::WarpTrace)
    /// hands it out.
    pub fn view(&self) -> MemRef<'_> {
        MemRef {
            space: self.space,
            class: self.class,
            width: self.width,
            addrs: &self.addrs,
        }
    }
}

/// The memory operand of a stored instruction: [`MemAccess`] with its lane
/// addresses borrowed from the warp's flat address buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemRef<'a> {
    /// Address space.
    pub space: Space,
    /// Data classification for composition accounting.
    pub class: DataClass,
    /// Bytes accessed per lane.
    pub width: u8,
    /// Byte addresses of the *active* lanes.
    pub addrs: &'a [u64],
}

impl MemRef<'_> {
    /// Clears `out` and fills it with the distinct aligned chunks of `chunk`
    /// bytes this access touches, ascending. With `chunk = 32` that is the
    /// sector list the coalescer produces; with `chunk = 128` the cache
    /// lines. Callers reuse one `out` across instructions, so the hot paths
    /// (the SM's coalescer, functional cache warming) do not allocate.
    ///
    /// Neighbouring lanes mostly touch the chunk the previous lane did, so
    /// a lane whose chunks repeat the previous lane's is skipped before the
    /// one sort.
    ///
    /// # Panics
    ///
    /// Panics unless `chunk` is a power of two.
    pub fn distinct_chunks_into(&self, chunk: u64, out: &mut Vec<u64>) {
        assert!(
            chunk.is_power_of_two(),
            "chunk {chunk} is not a power of two"
        );
        let shift = chunk.trailing_zeros();
        out.clear();
        let mut prev = None;
        for &a in self.addrs {
            let span = (a >> shift, (a + self.width as u64 - 1) >> shift);
            if prev != Some(span) {
                out.extend(span.0..=span.1);
                prev = Some(span);
            }
        }
        out.sort_unstable();
        out.dedup();
    }
}

/// One dynamic warp instruction, owned: the value a generator hands to
/// [`WarpTrace::push`](crate::WarpTrace::push). A warp stores it as a
/// fixed-size record and hands it back as an [`InstrRef`].
///
/// `dst`/`srcs` express the register dependencies the scoreboard enforces.
/// Memory instructions additionally carry a [`MemAccess`].
#[derive(Debug, Clone, PartialEq)]
pub struct Instr {
    /// Opcode class.
    pub op: Op,
    /// Destination register, if any.
    pub dst: Option<Reg>,
    /// Source registers (up to [`MAX_SRCS`]).
    pub srcs: [Option<Reg>; MAX_SRCS],
    /// Memory behaviour for `Ld`/`St` opcodes.
    pub mem: Option<MemAccess>,
}

impl Instr {
    /// An ALU-class instruction `dst = op(srcs...)`.
    ///
    /// # Panics
    ///
    /// Panics if `op` is a memory opcode or more than [`MAX_SRCS`] sources
    /// are given.
    pub fn alu(op: Op, dst: Reg, srcs: &[Reg]) -> Self {
        assert!(!op.is_mem(), "use Instr::load/Instr::store for memory ops");
        assert!(srcs.len() <= MAX_SRCS, "at most {MAX_SRCS} sources");
        let mut s = [None; MAX_SRCS];
        for (slot, &r) in s.iter_mut().zip(srcs) {
            *slot = Some(r);
        }
        Instr {
            op,
            dst: Some(dst),
            srcs: s,
            mem: None,
        }
    }

    /// A load writing `dst`.
    pub fn load(dst: Reg, mem: MemAccess) -> Self {
        Instr {
            op: Op::Ld(mem.space),
            dst: Some(dst),
            srcs: [None; MAX_SRCS],
            mem: Some(mem),
        }
    }

    /// A store reading `src`.
    pub fn store(src: Reg, mem: MemAccess) -> Self {
        Instr {
            op: Op::St(mem.space),
            dst: None,
            srcs: [Some(src), None, None],
            mem: Some(mem),
        }
    }

    /// A CTA barrier at the default slot 0 (`bar.sync 0`).
    pub fn bar() -> Self {
        Instr::bar_at(0)
    }

    /// A CTA barrier at a named slot.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not below [`NUM_BARRIERS`].
    pub fn bar_at(id: u8) -> Self {
        assert!(
            (id as usize) < NUM_BARRIERS,
            "barrier slot must be 0..{NUM_BARRIERS}"
        );
        Instr {
            op: Op::Bar(id),
            dst: None,
            srcs: [None; MAX_SRCS],
            mem: None,
        }
    }

    /// A branch (control-flow latency marker).
    pub fn branch() -> Self {
        Instr {
            op: Op::Branch,
            dst: None,
            srcs: [None; MAX_SRCS],
            mem: None,
        }
    }

    /// The warp-terminating instruction.
    pub fn exit() -> Self {
        Instr {
            op: Op::Exit,
            dst: None,
            srcs: [None; MAX_SRCS],
            mem: None,
        }
    }

    /// The borrowed form of this instruction, as a
    /// [`WarpTrace`](crate::WarpTrace) hands it out.
    pub fn view(&self) -> InstrRef<'_> {
        InstrRef {
            op: self.op,
            dst: self.dst,
            srcs: self.srcs,
            mem: self.mem.as_ref().map(MemAccess::view),
        }
    }
}

/// One stored warp instruction, as [`WarpTrace::iter`](crate::WarpTrace::iter)
/// and [`WarpTrace::get`](crate::WarpTrace::get) hand it out: the fields of
/// [`Instr`], with the memory operand's addresses borrowed from the warp.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InstrRef<'a> {
    /// Opcode class.
    pub op: Op,
    /// Destination register, if any.
    pub dst: Option<Reg>,
    /// Source registers (up to [`MAX_SRCS`]).
    pub srcs: [Option<Reg>; MAX_SRCS],
    /// Memory behaviour for `Ld`/`St` opcodes.
    pub mem: Option<MemRef<'a>>,
}

impl InstrRef<'_> {
    /// Iterator over the source registers that are present.
    pub fn src_regs(&self) -> impl Iterator<Item = Reg> {
        self.srcs.into_iter().flatten()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chunks(m: &MemAccess, chunk: u64) -> Vec<u64> {
        let mut out = vec![7]; // stale contents must be cleared
        m.view().distinct_chunks_into(chunk, &mut out);
        out
    }

    #[test]
    fn coalesced_access_covers_consecutive_addresses() {
        let m = MemAccess::coalesced(Space::Global, DataClass::Compute, 4, 0x100, 32);
        assert_eq!(m.addrs.len(), 32);
        assert_eq!(m.addrs[0], 0x100);
        assert_eq!(m.addrs[31], 0x100 + 31 * 4);
    }

    #[test]
    fn coalesced_32b_lanes_touch_one_line() {
        let m = MemAccess::coalesced(Space::Global, DataClass::Compute, 4, 0x0, 32);
        assert_eq!(chunks(&m, 128), vec![0]);
        assert_eq!(chunks(&m, 32), vec![0, 1, 2, 3]);
    }

    #[test]
    fn unaligned_wide_access_straddles_chunks() {
        // A 16-byte access starting 8 bytes before a 32B boundary straddles
        // two sectors.
        let m = MemAccess::scattered(Space::Global, DataClass::Compute, 16, vec![24]);
        assert_eq!(chunks(&m, 32), vec![0, 1]);
    }

    #[test]
    fn scattered_access_distinct_lines() {
        let m = MemAccess::scattered(Space::Tex, DataClass::Texture, 4, vec![0, 128, 256, 130]);
        assert_eq!(chunks(&m, 128), vec![0, 1, 2]);
    }

    #[test]
    #[should_panic(expected = "lanes must be 1..=32")]
    fn coalesced_rejects_zero_lanes() {
        let _ = MemAccess::coalesced(Space::Global, DataClass::Compute, 4, 0, 0);
    }

    #[test]
    fn alu_builder_records_deps() {
        let i = Instr::alu(Op::FpFma, Reg(5), &[Reg(1), Reg(2), Reg(3)]);
        assert_eq!(i.dst, Some(Reg(5)));
        assert_eq!(
            i.view().src_regs().collect::<Vec<_>>(),
            vec![Reg(1), Reg(2), Reg(3)]
        );
        assert!(i.mem.is_none());
    }

    #[test]
    #[should_panic(expected = "memory ops")]
    fn alu_builder_rejects_mem_opcode() {
        let _ = Instr::alu(Op::Ld(Space::Global), Reg(0), &[]);
    }

    #[test]
    fn load_store_builders_tag_space() {
        let ld = Instr::load(
            Reg(1),
            MemAccess::coalesced(Space::Tex, DataClass::Texture, 4, 0, 32),
        );
        assert_eq!(ld.op, Op::Ld(Space::Tex));
        assert!(ld.op.is_load());
        let st = Instr::store(
            Reg(1),
            MemAccess::coalesced(Space::Global, DataClass::Pipeline, 4, 0, 32),
        );
        assert_eq!(st.op, Op::St(Space::Global));
        assert!(!st.op.is_load());
        assert!(st.op.is_mem());
    }

    #[test]
    fn bar_builders_tag_the_slot() {
        assert_eq!(Instr::bar().op, Op::Bar(0));
        assert_eq!(Instr::bar_at(15).op, Op::Bar(15));
    }

    #[test]
    #[should_panic(expected = "barrier slot")]
    fn bar_at_rejects_out_of_range_slot() {
        let _ = Instr::bar_at(16);
    }

    #[test]
    fn shared_space_is_not_cached() {
        assert!(!Space::Shared.is_cached());
        assert!(Space::Global.is_cached());
        assert!(Space::Tex.is_cached());
        assert!(Space::Local.is_cached());
    }

    #[test]
    fn data_class_labels_are_distinct() {
        let labels: Vec<_> = DataClass::ALL.iter().map(|c| c.label()).collect();
        assert_eq!(labels, vec!["texture", "pipeline", "compute"]);
    }
}
