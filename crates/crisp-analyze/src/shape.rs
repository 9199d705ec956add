//! Memory-shape lints: coalescing, shared-memory banking, footprints.
//!
//! These reuse the line/sector geometry of `crisp_trace::analysis`
//! (128 B lines, 32 B sectors, 32 shared banks of 4 B words). Both lints
//! are heuristics, not proofs — thresholds live in
//! [`AnalysisConfig`](crate::AnalysisConfig) and findings are warnings:
//!
//! * **Uncoalesced**: a global access is flagged when the sectors it
//!   touches exceed `ideal × uncoalesced_slack`, where `ideal` is the
//!   fewest sectors its distinct bytes could occupy. A wide-but-contiguous
//!   access (vec4 × 32 lanes = 16 sectors) has slack 1.0 and never trips;
//!   a 32-lane gather across 32 lines has slack ≈ 32 and always does.
//!   Texture fetches are exempt — gathers are their job.
//! * **BankConflict**: a shared access is flagged when one bank serves
//!   `bank_conflict_threshold`-or-more distinct words — the serialisation
//!   degree of the access. A broadcast (one word, all lanes) has degree 1
//!   and never trips.

use crisp_trace::{
    ClassFootprint, KernelTrace, MemRef, Space, StreamId, TraceErrorSite, SECTOR_BYTES,
};

use crate::config::AnalysisConfig;
use crate::diag::{Diagnostic, LintCode};

/// Shared-memory banking geometry: 32 banks, 4 B words (every NVIDIA
/// generation the paper models).
pub const SHARED_BANKS: u64 = 32;
/// Bytes per shared-memory bank word.
pub const BANK_WORD_BYTES: u64 = 4;

/// Memory counters accumulated alongside the shape lints.
#[derive(Debug, Clone, Default)]
pub(crate) struct MemStats {
    /// Global/local memory instructions.
    pub global_accesses: u64,
    /// Shared-memory instructions.
    pub shared_accesses: u64,
    /// Texture fetches.
    pub tex_accesses: u64,
    /// Distinct-line footprint per data class.
    pub footprint: ClassFootprint,
}

/// Serialisation degree of a shared access: the max number of distinct
/// 4 B words any single bank must serve. `words` is scratch.
pub(crate) fn bank_conflict_degree(mem: &MemRef<'_>, words: &mut Vec<u64>) -> usize {
    let mut counts = [0usize; SHARED_BANKS as usize];
    mem.distinct_chunks_into(BANK_WORD_BYTES, words);
    for &word in words.iter() {
        counts[(word % SHARED_BANKS) as usize] += 1;
    }
    counts.iter().copied().max().unwrap_or(0)
}

/// Sector slack of a global access: (sectors touched, fewest sectors its
/// distinct bytes could occupy). `chunks` and `intervals` are scratch.
pub(crate) fn sector_slack(
    mem: &MemRef<'_>,
    chunks: &mut Vec<u64>,
    intervals: &mut Vec<(u64, u64)>,
) -> (usize, usize) {
    mem.distinct_chunks_into(SECTOR_BYTES, chunks);
    let sectors = chunks.len();
    crate::race::merged_intervals_into(mem, intervals);
    let distinct_bytes: u64 = intervals.iter().map(|(lo, hi)| hi - lo).sum();
    let ideal = distinct_bytes.div_ceil(SECTOR_BYTES).max(1) as usize;
    (sectors, ideal)
}

fn site(
    stream: Option<StreamId>,
    kernel: &str,
    cta: usize,
    warp: usize,
    instr: usize,
) -> TraceErrorSite {
    TraceErrorSite {
        stream,
        kernel: Some(kernel.to_string()),
        cta: Some(cta),
        warp: Some(warp),
        instr: Some(instr),
    }
}

/// Shape-lint every access of `k`, appending diagnostics and returning the
/// kernel's memory counters. Each warp reports at most one diagnostic per
/// lint (anchored at its first offender, with an occurrence count) so a
/// hot loop does not flood the report.
pub(crate) fn check_kernel(
    stream: Option<StreamId>,
    k: &KernelTrace,
    cfg: &AnalysisConfig,
    out: &mut Vec<Diagnostic>,
) -> MemStats {
    let mut stats = MemStats::default();
    stats.footprint.add_kernel(k);

    let (mut chunks, mut intervals) = (Vec::new(), Vec::new());
    for (ci, cta) in k.ctas.iter().enumerate() {
        for (wi, w) in cta.warps.iter().enumerate() {
            // (first offending instr, details, occurrence count) per lint.
            let mut uncoalesced: Option<(usize, usize, usize)> = None; // (instr, sectors, ideal)
            let mut uncoalesced_count = 0usize;
            let mut conflict: Option<(usize, usize)> = None; // (instr, degree)
            let mut conflict_count = 0usize;

            for (ii, instr) in w.iter().enumerate() {
                let Some(mem) = &instr.mem else { continue };
                match mem.space {
                    Space::Global | Space::Local => {
                        stats.global_accesses += 1;
                        if mem.space == Space::Global {
                            let (sectors, ideal) = sector_slack(mem, &mut chunks, &mut intervals);
                            if sectors >= cfg.uncoalesced_min_sectors
                                && sectors as f64 > ideal as f64 * cfg.uncoalesced_slack
                            {
                                uncoalesced_count += 1;
                                uncoalesced.get_or_insert((ii, sectors, ideal));
                            }
                        }
                    }
                    Space::Shared => {
                        stats.shared_accesses += 1;
                        let degree = bank_conflict_degree(mem, &mut chunks);
                        if degree >= cfg.bank_conflict_threshold {
                            conflict_count += 1;
                            conflict.get_or_insert((ii, degree));
                        }
                    }
                    Space::Tex => stats.tex_accesses += 1,
                }
            }

            if let Some((ii, sectors, ideal)) = uncoalesced {
                if let Some(severity) = cfg.severity_for(LintCode::Uncoalesced, Some(&k.name)) {
                    let more = if uncoalesced_count > 1 {
                        format!(" ({} such accesses in this warp)", uncoalesced_count)
                    } else {
                        String::new()
                    };
                    out.push(Diagnostic {
                        code: LintCode::Uncoalesced,
                        severity,
                        site: site(stream, &k.name, ci, wi, ii),
                        related: None,
                        message: format!(
                            "global access touches {sectors} sectors where {ideal} would \
                             cover its bytes — the coalescer issues {sectors} transactions{more}"
                        ),
                        hint: LintCode::Uncoalesced.hint(),
                    });
                }
            }
            if let Some((ii, degree)) = conflict {
                if let Some(severity) = cfg.severity_for(LintCode::BankConflict, Some(&k.name)) {
                    let more = if conflict_count > 1 {
                        format!(" ({} such accesses in this warp)", conflict_count)
                    } else {
                        String::new()
                    };
                    out.push(Diagnostic {
                        code: LintCode::BankConflict,
                        severity,
                        site: site(stream, &k.name, ci, wi, ii),
                        related: None,
                        message: format!("shared access serialises {degree}-way on one bank{more}"),
                        hint: LintCode::BankConflict.hint(),
                    });
                }
            }
        }
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crisp_trace::{CtaTrace, DataClass, Instr, MemAccess, Reg, WarpTrace};

    fn sealed(instrs: Vec<Instr>) -> WarpTrace {
        let mut w = WarpTrace::new();
        w.extend(instrs);
        w.seal();
        w
    }

    fn kernel_of(warps: Vec<WarpTrace>) -> KernelTrace {
        let threads = 32 * warps.len() as u32;
        KernelTrace::new("k", threads, 8, 4096, vec![CtaTrace::new(warps)])
    }

    fn run(k: &KernelTrace) -> (Vec<Diagnostic>, MemStats) {
        let mut out = Vec::new();
        let stats = check_kernel(None, k, &AnalysisConfig::new(), &mut out);
        (out, stats)
    }

    #[test]
    fn coalesced_and_wide_accesses_pass() {
        let w = sealed(vec![
            Instr::load(
                Reg(1),
                MemAccess::coalesced(Space::Global, DataClass::Compute, 4, 0, 32),
            ),
            // vec4 per lane: 16 sectors, but all needed — slack 1.0.
            Instr::load(
                Reg(2),
                MemAccess::coalesced(Space::Global, DataClass::Compute, 16, 0x1000, 32),
            ),
        ]);
        let (d, stats) = run(&kernel_of(vec![w]));
        assert!(d.is_empty(), "{d:?}");
        assert_eq!(stats.global_accesses, 2);
    }

    #[test]
    fn line_strided_gather_is_flagged_once_with_count() {
        let gather = || {
            let addrs: Vec<u64> = (0..32u64).map(|l| l * 128).collect();
            Instr::load(
                Reg(1),
                MemAccess::scattered(Space::Global, DataClass::Compute, 4, addrs),
            )
        };
        let w = sealed(vec![gather(), gather(), gather()]);
        let (d, _) = run(&kernel_of(vec![w]));
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].code, LintCode::Uncoalesced);
        assert_eq!(d[0].site.instr, Some(0));
        assert!(d[0].message.contains("3 such accesses"), "{}", d[0].message);
    }

    #[test]
    fn texture_gathers_are_exempt() {
        let addrs: Vec<u64> = (0..32u64).map(|l| l * 128).collect();
        let w = sealed(vec![Instr::load(
            Reg(1),
            MemAccess::scattered(Space::Tex, DataClass::Texture, 4, addrs),
        )]);
        let (d, stats) = run(&kernel_of(vec![w]));
        assert!(d.is_empty(), "{d:?}");
        assert_eq!(stats.tex_accesses, 1);
    }

    #[test]
    fn column_stride_shared_access_conflicts() {
        // Word stride 32: every lane lands on bank 0 — 32-way conflict.
        let addrs: Vec<u64> = (0..32u64)
            .map(|l| l * SHARED_BANKS * BANK_WORD_BYTES)
            .collect();
        let w = sealed(vec![Instr::load(
            Reg(1),
            MemAccess::scattered(Space::Shared, DataClass::Compute, 4, addrs),
        )]);
        let (d, _) = run(&kernel_of(vec![w]));
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].code, LintCode::BankConflict);
        assert!(d[0].message.contains("32-way"), "{}", d[0].message);
    }

    #[test]
    fn broadcast_and_unit_stride_shared_pass() {
        let w = sealed(vec![
            // Broadcast: one word for all lanes.
            Instr::load(
                Reg(1),
                MemAccess::scattered(Space::Shared, DataClass::Compute, 4, vec![0x40; 32]),
            ),
            // Unit stride: one word per bank.
            Instr::load(
                Reg(2),
                MemAccess::coalesced(Space::Shared, DataClass::Compute, 4, 0, 32),
            ),
        ]);
        let (d, stats) = run(&kernel_of(vec![w]));
        assert!(d.is_empty(), "{d:?}");
        assert_eq!(stats.shared_accesses, 2);
    }

    #[test]
    fn footprint_tracks_classes() {
        let w = sealed(vec![Instr::load(
            Reg(1),
            MemAccess::coalesced(Space::Global, DataClass::Pipeline, 4, 0, 32),
        )]);
        let (_, stats) = run(&kernel_of(vec![w]));
        assert_eq!(stats.footprint.lines(DataClass::Pipeline), 1);
        assert_eq!(stats.footprint.lines(DataClass::Compute), 0);
    }

    #[test]
    fn small_gathers_stay_below_the_floor() {
        // 4 lanes over 4 lines: terrible slack but tiny — below min_sectors.
        let w = sealed(vec![Instr::load(
            Reg(1),
            MemAccess::scattered(Space::Global, DataClass::Compute, 4, vec![0, 128, 256, 384]),
        )]);
        let (d, _) = run(&kernel_of(vec![w]));
        assert!(d.is_empty(), "{d:?}");
    }
}
