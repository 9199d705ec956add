//! Warp, CTA and kernel trace containers.

use crate::isa::{Instr, WARP_SIZE};

/// The dynamic instruction stream of one warp.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WarpTrace {
    instrs: Vec<Instr>,
}

impl WarpTrace {
    /// An empty warp trace.
    pub fn new() -> Self {
        WarpTrace::default()
    }

    /// An empty warp trace with room for `n` instructions.
    pub fn with_capacity(n: usize) -> Self {
        WarpTrace {
            instrs: Vec::with_capacity(n),
        }
    }

    /// Append one instruction.
    pub fn push(&mut self, i: Instr) {
        self.instrs.push(i);
    }

    /// Append many instructions.
    pub fn extend(&mut self, it: impl IntoIterator<Item = Instr>) {
        self.instrs.extend(it);
    }

    /// Number of dynamic instructions.
    pub fn len(&self) -> usize {
        self.instrs.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.instrs.is_empty()
    }

    /// The instruction at `idx`, if any.
    pub fn get(&self, idx: usize) -> Option<&Instr> {
        self.instrs.get(idx)
    }

    /// Iterate over the instructions.
    pub fn iter(&self) -> std::slice::Iter<'_, Instr> {
        self.instrs.iter()
    }

    /// Ensure the warp ends with an `Exit`, appending one if missing, and
    /// trim spare capacity so a finished warp holds only its instructions
    /// (a no-op for a warp sized exactly up front).
    pub fn seal(&mut self) {
        if !matches!(self.instrs.last().map(|i| i.op), Some(crate::Op::Exit)) {
            self.instrs.push(Instr::exit());
        }
        self.instrs.shrink_to_fit();
    }
}

impl FromIterator<Instr> for WarpTrace {
    fn from_iter<T: IntoIterator<Item = Instr>>(iter: T) -> Self {
        WarpTrace {
            instrs: iter.into_iter().collect(),
        }
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
    /// One trace per CTA; the grid size is `ctas.len()`.
    pub ctas: Vec<CtaTrace>,
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
            ctas,
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
        self.ctas.iter().map(CtaTrace::instr_count).sum()
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
    use crate::isa::{Instr, Op, Reg};

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
        let mut w = WarpTrace::with_capacity(64);
        w.push(Instr::alu(Op::IntAlu, Reg(0), &[]));
        w.seal();
        assert_eq!(w.instrs.capacity(), 2, "the alu op and the exit");
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
