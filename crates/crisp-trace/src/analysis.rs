//! Static trace analysis.
//!
//! The paper analyses collected traces offline to characterise memory
//! behaviour — e.g. Figure 10's histogram of texture cache lines referenced
//! per CTA within one drawcall. These helpers reproduce that tooling.

use std::collections::BTreeMap;

use crate::hash::AddrHashSet;

use crate::isa::{DataClass, Op, Space};
use crate::kernel::{CtaTrace, KernelTrace};

/// Cache line size used throughout CRISP (bytes). Matches the paper's
/// "128B/line" static analysis and the NVIDIA line size.
pub const LINE_BYTES: u64 = 128;

/// Sector size within a line (bytes).
pub const SECTOR_BYTES: u64 = 32;

/// Dynamic instruction mix of a kernel or CTA.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InstrMix {
    /// Integer ALU instructions.
    pub int_alu: u64,
    /// FP add/mul/fma instructions.
    pub fp: u64,
    /// Special-function-unit instructions.
    pub sfu: u64,
    /// Tensor-core instructions.
    pub tensor: u64,
    /// Control flow (branch/bar/exit).
    pub control: u64,
    /// Global/local loads and stores.
    pub global_mem: u64,
    /// Shared-memory accesses.
    pub shared_mem: u64,
    /// Texture fetches.
    pub tex: u64,
}

impl InstrMix {
    /// Total dynamic instructions.
    pub fn total(&self) -> u64 {
        self.int_alu
            + self.fp
            + self.sfu
            + self.tensor
            + self.control
            + self.global_mem
            + self.shared_mem
            + self.tex
    }

    /// Accumulate one opcode.
    pub fn count(&mut self, op: Op) {
        match op {
            Op::IntAlu => self.int_alu += 1,
            Op::FpAlu | Op::FpMul | Op::FpFma => self.fp += 1,
            Op::Sfu => self.sfu += 1,
            Op::Tensor => self.tensor += 1,
            Op::Branch | Op::Bar(_) | Op::Exit => self.control += 1,
            Op::Ld(Space::Tex) | Op::St(Space::Tex) => self.tex += 1,
            Op::Ld(Space::Shared) | Op::St(Space::Shared) => self.shared_mem += 1,
            Op::Ld(_) | Op::St(_) => self.global_mem += 1,
        }
    }

    /// Mix of a whole kernel.
    pub fn of_kernel(k: &KernelTrace) -> Self {
        let mut m = InstrMix::default();
        for cta in &k.ctas {
            for w in &cta.warps {
                for i in w.iter() {
                    m.count(i.op);
                }
            }
        }
        m
    }
}

/// Distinct cache-line footprint per [`DataClass`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ClassFootprint {
    lines: BTreeMap<DataClass, AddrHashSet<u64>>,
}

impl ClassFootprint {
    /// Empty footprint.
    pub fn new() -> Self {
        ClassFootprint::default()
    }

    /// Fold a kernel's accesses in.
    pub fn add_kernel(&mut self, k: &KernelTrace) {
        let mut lines = Vec::new();
        for cta in &k.ctas {
            for w in &cta.warps {
                for i in w.iter() {
                    if let Some(m) = &i.mem {
                        if m.space.is_cached() {
                            m.distinct_chunks_into(LINE_BYTES, &mut lines);
                            let set = self.lines.entry(m.class).or_default();
                            set.extend(&lines);
                        }
                    }
                }
            }
        }
    }

    /// Distinct 128 B lines touched by `class`.
    pub fn lines(&self, class: DataClass) -> usize {
        self.lines.get(&class).map_or(0, AddrHashSet::len)
    }

    /// Distinct bytes touched by `class`.
    pub fn bytes(&self, class: DataClass) -> u64 {
        self.lines(class) as u64 * LINE_BYTES
    }
}

/// Figure 10: histogram of the number of distinct texture cache lines
/// referenced per CTA within one kernel (one drawcall's fragment work).
///
/// "Each warp executes the same count of texture instructions, but the number
/// of cache lines referenced in each instruction differs. ... most CTAs
/// referenced 3 to 5 cache lines" — per texture instruction, the mean over a
/// drawcall varying 2.54–21.19 across applications.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TexLinesHistogram {
    counts: BTreeMap<u32, u64>,
    total_ctas: u64,
}

impl TexLinesHistogram {
    /// Build the histogram over every CTA of `k`, bucketing by the *average*
    /// number of distinct lines per texture instruction in that CTA
    /// (rounded), matching the paper's per-CTA static analysis.
    pub fn of_kernel(k: &KernelTrace) -> Self {
        let mut h = TexLinesHistogram::default();
        for cta in &k.ctas {
            if let Some(avg) = Self::cta_avg_lines_per_tex(cta) {
                *h.counts.entry(avg.round() as u32).or_insert(0) += 1;
                h.total_ctas += 1;
            }
        }
        h
    }

    /// Average distinct 128 B lines per texture instruction in one CTA, or
    /// `None` if the CTA performs no texture fetches.
    pub fn cta_avg_lines_per_tex(cta: &CtaTrace) -> Option<f64> {
        let mut tex_instrs = 0u64;
        let mut lines = 0u64;
        let mut chunks = Vec::new();
        for w in &cta.warps {
            for i in w.iter() {
                if let Some(m) = &i.mem {
                    if m.space == Space::Tex {
                        tex_instrs += 1;
                        m.distinct_chunks_into(LINE_BYTES, &mut chunks);
                        lines += chunks.len() as u64;
                    }
                }
            }
        }
        (tex_instrs > 0).then(|| lines as f64 / tex_instrs as f64)
    }

    /// (bucket, CTA count) pairs in ascending bucket order.
    pub fn buckets(&self) -> impl Iterator<Item = (u32, u64)> + '_ {
        self.counts.iter().map(|(&k, &v)| (k, v))
    }

    /// Number of CTAs with at least one texture fetch.
    pub fn total_ctas(&self) -> u64 {
        self.total_ctas
    }

    /// Mean bucket value, weighted by CTA count.
    pub fn mean(&self) -> f64 {
        if self.total_ctas == 0 {
            return 0.0;
        }
        let s: u64 = self.counts.iter().map(|(&k, &v)| k as u64 * v).sum();
        s as f64 / self.total_ctas as f64
    }
}

/// Reuse-distance histogram over a kernel's cached accesses: for each
/// line reference, how many *distinct* lines were touched since its last
/// use. Classic locality characterisation — small distances are L1-served,
/// mid distances are what the L2 absorbs, `None` (cold) is compulsory
/// traffic.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ReuseHistogram {
    /// Bucketed by log2(distance): bucket `b` counts distances in
    /// `[2^b, 2^(b+1))`; bucket 0 includes distance 0 and 1.
    pub buckets: BTreeMap<u32, u64>,
    /// First-touch (cold) references.
    pub cold: u64,
    /// Total references counted.
    pub total: u64,
}

impl ReuseHistogram {
    /// Build from a kernel, optionally restricted to one [`DataClass`].
    pub fn of_kernel(k: &KernelTrace, class: Option<DataClass>) -> Self {
        let mut h = ReuseHistogram::default();
        // An exact stack-distance computation via an LRU list; fine for
        // analysis-scale traces.
        let mut stack: Vec<u64> = Vec::new();
        let mut lines = Vec::new();
        for cta in &k.ctas {
            for w in &cta.warps {
                for i in w.iter() {
                    let Some(m) = &i.mem else { continue };
                    if !m.space.is_cached() {
                        continue;
                    }
                    if let Some(c) = class {
                        if m.class != c {
                            continue;
                        }
                    }
                    m.distinct_chunks_into(LINE_BYTES, &mut lines);
                    for &line in &lines {
                        h.total += 1;
                        match stack.iter().position(|&l| l == line) {
                            Some(pos) => {
                                let bucket = (pos.max(1) as f64).log2() as u32;
                                *h.buckets.entry(bucket).or_insert(0) += 1;
                                stack.remove(pos);
                            }
                            None => h.cold += 1,
                        }
                        stack.insert(0, line);
                    }
                }
            }
        }
        h
    }

    /// Fraction of references reused within `2^bucket_limit` distinct lines.
    pub fn short_reuse_fraction(&self, bucket_limit: u32) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let short: u64 = self
            .buckets
            .iter()
            .filter(|(&b, _)| b <= bucket_limit)
            .map(|(_, &n)| n)
            .sum();
        short as f64 / self.total as f64
    }

    /// Fraction of references that were first touches.
    pub fn cold_fraction(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.cold as f64 / self.total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::{DataClass, Instr, MemAccess, Op, Reg, Space};
    use crate::kernel::{CtaTrace, KernelTrace, WarpTrace};

    fn tex_warp(lines_per_instr: &[u64]) -> WarpTrace {
        let mut w = WarpTrace::new();
        for (n, &lines) in lines_per_instr.iter().enumerate() {
            // Touch `lines` distinct 128B lines in one scattered access.
            let addrs: Vec<u64> = (0..lines).map(|l| (n as u64) << 20 | (l * 128)).collect();
            w.push(Instr::load(
                Reg(1),
                MemAccess::scattered(Space::Tex, DataClass::Texture, 4, addrs),
            ));
        }
        w.seal();
        w
    }

    #[test]
    fn instr_mix_classifies() {
        let mut w = WarpTrace::new();
        w.push(Instr::alu(Op::FpFma, Reg(0), &[]));
        w.push(Instr::alu(Op::Sfu, Reg(0), &[]));
        w.push(Instr::load(
            Reg(1),
            MemAccess::coalesced(Space::Shared, DataClass::Compute, 4, 0, 32),
        ));
        w.push(Instr::load(
            Reg(2),
            MemAccess::coalesced(Space::Tex, DataClass::Texture, 4, 0, 32),
        ));
        w.seal();
        let k = KernelTrace::new("k", 32, 8, 0, vec![CtaTrace::new(vec![w])]);
        let m = InstrMix::of_kernel(&k);
        assert_eq!(m.fp, 1);
        assert_eq!(m.sfu, 1);
        assert_eq!(m.shared_mem, 1);
        assert_eq!(m.tex, 1);
        assert_eq!(m.control, 1);
        assert_eq!(m.total(), 5);
    }

    #[test]
    fn footprint_ignores_shared_memory() {
        let mut w = WarpTrace::new();
        w.push(Instr::load(
            Reg(1),
            MemAccess::coalesced(Space::Shared, DataClass::Compute, 4, 0, 32),
        ));
        w.push(Instr::load(
            Reg(2),
            MemAccess::coalesced(Space::Global, DataClass::Compute, 4, 0, 32),
        ));
        w.seal();
        let k = KernelTrace::new("k", 32, 8, 0, vec![CtaTrace::new(vec![w])]);
        let mut f = ClassFootprint::new();
        f.add_kernel(&k);
        assert_eq!(
            f.lines(DataClass::Compute),
            1,
            "only the global access counts"
        );
        assert_eq!(f.bytes(DataClass::Compute), 128);
        assert_eq!(f.lines(DataClass::Texture), 0);
    }

    #[test]
    fn footprint_dedups_across_warps() {
        let mk = || {
            let mut w = WarpTrace::new();
            w.push(Instr::load(
                Reg(1),
                MemAccess::coalesced(Space::Global, DataClass::Compute, 4, 0x400, 32),
            ));
            w.seal();
            w
        };
        let k = KernelTrace::new("k", 64, 8, 0, vec![CtaTrace::new(vec![mk(), mk()])]);
        let mut f = ClassFootprint::new();
        f.add_kernel(&k);
        assert_eq!(f.lines(DataClass::Compute), 1);
    }

    #[test]
    fn tex_histogram_buckets_by_cta_average() {
        // CTA 0 averages 3 lines/tex-instr; CTA 1 averages 5.
        let c0 = CtaTrace::new(vec![tex_warp(&[3, 3])]);
        let c1 = CtaTrace::new(vec![tex_warp(&[5, 5])]);
        let k = KernelTrace::new("draw", 32, 16, 0, vec![c0, c1]);
        let h = TexLinesHistogram::of_kernel(&k);
        assert_eq!(h.total_ctas(), 2);
        assert_eq!(h.buckets().collect::<Vec<_>>(), vec![(3, 1), (5, 1)]);
        assert!((h.mean() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn reuse_histogram_separates_streaming_from_looping() {
        // Streaming: every line touched once → all cold.
        let mut w = WarpTrace::new();
        for i in 0..16u64 {
            w.push(Instr::load(
                Reg(1),
                MemAccess::coalesced(Space::Global, DataClass::Compute, 4, i * 128, 32),
            ));
        }
        w.seal();
        let k = KernelTrace::new("stream", 32, 8, 0, vec![CtaTrace::new(vec![w])]);
        let h = ReuseHistogram::of_kernel(&k, None);
        assert_eq!(h.cold, 16);
        assert!((h.cold_fraction() - 1.0).abs() < 1e-12);

        // Looping: two lines alternating → short reuse after warm-up.
        let mut w = WarpTrace::new();
        for i in 0..16u64 {
            w.push(Instr::load(
                Reg(1),
                MemAccess::coalesced(Space::Global, DataClass::Compute, 4, (i % 2) * 128, 32),
            ));
        }
        w.seal();
        let k = KernelTrace::new("loop", 32, 8, 0, vec![CtaTrace::new(vec![w])]);
        let h = ReuseHistogram::of_kernel(&k, None);
        assert_eq!(h.cold, 2);
        assert!(h.short_reuse_fraction(0) > 0.8, "{h:?}");
    }

    #[test]
    fn reuse_histogram_filters_by_class() {
        let mut w = WarpTrace::new();
        w.push(Instr::load(
            Reg(1),
            MemAccess::coalesced(Space::Tex, DataClass::Texture, 4, 0, 32),
        ));
        w.push(Instr::load(
            Reg(2),
            MemAccess::coalesced(Space::Global, DataClass::Compute, 4, 0x1000, 32),
        ));
        w.seal();
        let k = KernelTrace::new("k", 32, 8, 0, vec![CtaTrace::new(vec![w])]);
        let all = ReuseHistogram::of_kernel(&k, None);
        let tex = ReuseHistogram::of_kernel(&k, Some(DataClass::Texture));
        assert_eq!(all.total, 2);
        assert_eq!(tex.total, 1);
    }

    #[test]
    fn tex_histogram_skips_ctas_without_tex() {
        let mut w = WarpTrace::new();
        w.push(Instr::alu(Op::IntAlu, Reg(0), &[]));
        w.seal();
        let k = KernelTrace::new("k", 32, 8, 0, vec![CtaTrace::new(vec![w])]);
        let h = TexLinesHistogram::of_kernel(&k);
        assert_eq!(h.total_ctas(), 0);
        assert_eq!(h.mean(), 0.0);
    }
}
