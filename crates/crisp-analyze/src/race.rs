//! Barrier-interval race detection (GPUVerify / `racecheck` style).
//!
//! Within one CTA, the only inter-warp ordering a trace expresses is the
//! barrier: split each warp's instruction stream into `Op::Bar`-delimited
//! *phases* (phase = number of barriers executed before the instruction) and
//! any two accesses in the same phase from different warps are concurrent.
//! If their byte ranges overlap in `Space::Shared` and at least one writes,
//! the replayed ordering is arbitrary — a race.
//!
//! Across CTAs there is no barrier at all, so any two CTAs of a kernel
//! whose `Space::Global` *write* footprints overlap conflict for the whole
//! kernel duration. That pattern is legal for reductions modelled as
//! overlapping plain stores, so it is reported at warning severity with an
//! allow-entry escape hatch rather than as an error.

use crisp_trace::{CtaTrace, KernelTrace, MemRef, Op, Space, StreamId, TraceErrorSite};

use crate::config::AnalysisConfig;
use crate::diag::{Diagnostic, LintCode};

/// Merge an access's per-lane byte ranges `[addr, addr+width)` into a
/// sorted list of disjoint intervals (touching ranges coalesce).
pub(crate) fn merged_intervals(mem: &MemRef<'_>) -> Vec<(u64, u64)> {
    let mut out = Vec::new();
    merged_intervals_into(mem, &mut out);
    out
}

/// [`merged_intervals`] into `out` (cleared first), merging in place so a
/// caller that reuses `out` allocates nothing per access.
pub(crate) fn merged_intervals_into(mem: &MemRef<'_>, out: &mut Vec<(u64, u64)>) {
    let w = mem.width as u64;
    out.clear();
    out.extend(mem.addrs.iter().map(|&a| (a, a + w)));
    out.sort_unstable();
    // `out[..merged]` holds the intervals merged so far.
    let mut merged = 0;
    for i in 0..out.len() {
        let (lo, hi) = out[i];
        if merged > 0 && lo <= out[merged - 1].1 {
            out[merged - 1].1 = out[merged - 1].1.max(hi);
        } else {
            out[merged] = (lo, hi);
            merged += 1;
        }
    }
    out.truncate(merged);
}

/// First overlapping byte range of two sorted disjoint interval lists.
fn first_overlap(a: &[(u64, u64)], b: &[(u64, u64)]) -> Option<(u64, u64)> {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        let lo = a[i].0.max(b[j].0);
        let hi = a[i].1.min(b[j].1);
        if lo < hi {
            return Some((lo, hi));
        }
        if a[i].1 <= b[j].1 {
            i += 1;
        } else {
            j += 1;
        }
    }
    None
}

/// One shared-memory access of a CTA, located by phase/warp/instr.
struct SharedAccess {
    phase: usize,
    warp: usize,
    instr: usize,
    write: bool,
    lo: u64,
    hi: u64,
    intervals: Vec<(u64, u64)>,
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

/// Race-check every CTA of `k` (shared memory) plus the kernel's cross-CTA
/// global write footprints, appending diagnostics to `out`. A `trimmed`
/// walk skips the global footprints, which only warn.
pub(crate) fn check_kernel(
    stream: Option<StreamId>,
    k: &KernelTrace,
    cfg: &AnalysisConfig,
    trimmed: bool,
    out: &mut Vec<Diagnostic>,
) {
    for (ci, cta) in k.ctas.iter().enumerate() {
        check_cta_shared(stream, k, ci, cta, cfg, out);
    }
    if !trimmed {
        check_global_overlap(stream, k, cfg, out);
    }
}

fn check_cta_shared(
    stream: Option<StreamId>,
    k: &KernelTrace,
    ci: usize,
    cta: &CtaTrace,
    cfg: &AnalysisConfig,
    out: &mut Vec<Diagnostic>,
) {
    // Collect every shared access, tagged with its barrier interval.
    let mut accesses: Vec<SharedAccess> = Vec::new();
    let mut max_phase = 0usize;
    for (wi, w) in cta.warps.iter().enumerate() {
        let mut phase = 0usize;
        for (ii, instr) in w.iter().enumerate() {
            if matches!(instr.op, Op::Bar(_)) {
                phase += 1;
                max_phase = max_phase.max(phase);
                continue;
            }
            let Some(mem) = &instr.mem else { continue };
            if mem.space != Space::Shared {
                continue;
            }
            let intervals = merged_intervals(mem);
            let (Some(&(lo, _)), Some(&(_, hi))) = (intervals.first(), intervals.last()) else {
                continue;
            };
            accesses.push(SharedAccess {
                phase,
                warp: wi,
                instr: ii,
                write: !instr.op.is_load(),
                lo,
                hi,
                intervals,
            });
        }
    }
    if accesses.is_empty() {
        return;
    }

    // Sweep each phase: sort by low address so the inner loop can stop as
    // soon as candidates start past the current access's bounding range.
    let mut reported: std::collections::BTreeSet<(usize, usize, usize, usize)> =
        std::collections::BTreeSet::new();
    for phase in 0..=max_phase {
        let mut in_phase: Vec<&SharedAccess> =
            accesses.iter().filter(|a| a.phase == phase).collect();
        in_phase.sort_by_key(|a| (a.lo, a.warp, a.instr));
        for i in 0..in_phase.len() {
            let a = in_phase[i];
            for &b in &in_phase[i + 1..] {
                if b.lo >= a.hi {
                    break;
                }
                if a.warp == b.warp || !(a.write || b.write) {
                    continue;
                }
                let Some((lo, hi)) = first_overlap(&a.intervals, &b.intervals) else {
                    continue;
                };
                // Order the pair by (warp, instr) for a stable anchor/dedup key.
                let (first, second) = if (a.warp, a.instr) <= (b.warp, b.instr) {
                    (a, b)
                } else {
                    (b, a)
                };
                if !reported.insert((first.warp, first.instr, second.warp, second.instr)) {
                    continue;
                }
                let code = if first.write && second.write {
                    LintCode::SharedWriteWrite
                } else {
                    LintCode::SharedReadWrite
                };
                let Some(severity) = cfg.severity_for(code, Some(&k.name)) else {
                    continue;
                };
                let message = if code == LintCode::SharedWriteWrite {
                    format!(
                        "warp {} (instr {}) and warp {} (instr {}) both write shared \
                         bytes 0x{lo:x}..0x{hi:x} in barrier interval {phase}",
                        first.warp, first.instr, second.warp, second.instr
                    )
                } else {
                    let (wr, rd) = if first.write {
                        (first, second)
                    } else {
                        (second, first)
                    };
                    format!(
                        "shared bytes 0x{lo:x}..0x{hi:x} are written by warp {} (instr {}) \
                         and read by warp {} (instr {}) in the same barrier interval \
                         {phase} — no Op::Bar orders them",
                        wr.warp, wr.instr, rd.warp, rd.instr
                    )
                };
                out.push(Diagnostic {
                    code,
                    severity,
                    site: site(stream, &k.name, ci, first.warp, first.instr),
                    related: Some(site(stream, &k.name, ci, second.warp, second.instr)),
                    message,
                    hint: code.hint(),
                });
            }
        }
    }
}

fn check_global_overlap(
    stream: Option<StreamId>,
    k: &KernelTrace,
    cfg: &AnalysisConfig,
    out: &mut Vec<Diagnostic>,
) {
    if k.ctas.len() < 2 {
        return;
    }
    let Some(severity) = cfg.severity_for(LintCode::GlobalWriteOverlap, Some(&k.name)) else {
        return;
    };

    // Per CTA: the merged global-write footprint, each merged span keeping
    // the site of its first contributing store.
    struct Span {
        lo: u64,
        hi: u64,
        cta: usize,
        warp: usize,
        instr: usize,
    }
    let mut spans: Vec<Span> = Vec::new();
    let mut intervals = Vec::new();
    for (ci, cta) in k.ctas.iter().enumerate() {
        let mut raw: Vec<Span> = Vec::new();
        for (wi, w) in cta.warps.iter().enumerate() {
            for (ii, instr) in w.iter().enumerate() {
                if instr.op.is_load() {
                    continue;
                }
                let Some(mem) = &instr.mem else { continue };
                if mem.space != Space::Global {
                    continue;
                }
                merged_intervals_into(mem, &mut intervals);
                for &(lo, hi) in &intervals {
                    raw.push(Span {
                        lo,
                        hi,
                        cta: ci,
                        warp: wi,
                        instr: ii,
                    });
                }
            }
        }
        raw.sort_by_key(|s| (s.lo, s.warp, s.instr));
        let mut merged: Vec<Span> = Vec::new();
        for s in raw {
            match merged.last_mut() {
                Some(last) if s.lo <= last.hi => last.hi = last.hi.max(s.hi),
                _ => merged.push(s),
            }
        }
        spans.extend(merged);
    }

    // Sweep all CTAs' spans together; report each CTA at most once per
    // kernel (anchored at its first conflicting store) so an all-CTAs
    // reduction yields O(ctas) diagnostics, not O(ctas²).
    spans.sort_by_key(|s| (s.lo, s.cta));
    let mut flagged: std::collections::BTreeSet<usize> = std::collections::BTreeSet::new();
    for i in 0..spans.len() {
        let a = &spans[i];
        for b in &spans[i + 1..] {
            if b.lo >= a.hi {
                break;
            }
            if a.cta == b.cta {
                continue;
            }
            // Anchor at the higher-numbered CTA, relate to the lower.
            let (anchor, other) = if a.cta > b.cta { (a, b) } else { (b, a) };
            if !flagged.insert(anchor.cta) {
                continue;
            }
            let lo = a.lo.max(b.lo);
            let hi = a.hi.min(b.hi);
            out.push(Diagnostic {
                code: LintCode::GlobalWriteOverlap,
                severity,
                site: site(stream, &k.name, anchor.cta, anchor.warp, anchor.instr),
                related: Some(site(stream, &k.name, other.cta, other.warp, other.instr)),
                message: format!(
                    "CTA {} writes global bytes 0x{lo:x}..0x{hi:x} also written by \
                     CTA {} — no intra-kernel ordering exists between CTAs",
                    anchor.cta, other.cta
                ),
                hint: LintCode::GlobalWriteOverlap.hint(),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crisp_trace::{DataClass, Instr, MemAccess, Reg, WarpTrace};

    fn shared_store(base: u64, lanes: usize) -> Instr {
        Instr::store(
            Reg(1),
            MemAccess::coalesced(Space::Shared, DataClass::Compute, 4, base, lanes),
        )
    }

    fn shared_load(base: u64, lanes: usize) -> Instr {
        Instr::load(
            Reg(2),
            MemAccess::coalesced(Space::Shared, DataClass::Compute, 4, base, lanes),
        )
    }

    fn kernel_of(warps: Vec<WarpTrace>) -> KernelTrace {
        let threads = 32 * warps.len() as u32;
        KernelTrace::new("k", threads, 8, 1024, vec![CtaTrace::new(warps)])
    }

    fn sealed(instrs: Vec<Instr>) -> WarpTrace {
        let mut w = WarpTrace::new();
        w.extend(instrs);
        w.seal();
        w
    }

    fn diags(k: &KernelTrace) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        check_kernel(None, k, &AnalysisConfig::new(), false, &mut out);
        out
    }

    #[test]
    fn merged_intervals_coalesce_lanes() {
        let m = MemAccess::coalesced(Space::Shared, DataClass::Compute, 4, 0, 32);
        assert_eq!(merged_intervals(&m.view()), vec![(0, 128)]);
        let m = MemAccess::scattered(Space::Shared, DataClass::Compute, 4, vec![0, 64, 4]);
        assert_eq!(merged_intervals(&m.view()), vec![(0, 8), (64, 68)]);
    }

    #[test]
    fn merging_into_a_reused_buffer_matches_the_owned_result() {
        let accesses = [
            MemAccess::scattered(Space::Global, DataClass::Compute, 4, vec![96, 0, 4, 64, 8]),
            MemAccess::scattered(Space::Global, DataClass::Compute, 8, vec![3, 0, 40, 44]),
            MemAccess::coalesced(Space::Global, DataClass::Compute, 4, 256, 32),
        ];
        let mut buf = vec![(1, 2); 40];
        for m in &accesses {
            merged_intervals_into(&m.view(), &mut buf);
            assert_eq!(buf, merged_intervals(&m.view()));
        }
        assert_eq!(
            merged_intervals(&accesses[1].view()),
            vec![(0, 11), (40, 52)]
        );
    }

    #[test]
    fn same_phase_overlapping_writes_race() {
        let a = sealed(vec![shared_store(0, 32), Instr::bar()]);
        let b = sealed(vec![shared_store(0, 32), Instr::bar()]);
        let d = diags(&kernel_of(vec![a, b]));
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].code, LintCode::SharedWriteWrite);
        assert_eq!(d[0].site.warp, Some(0));
        assert_eq!(d[0].site.instr, Some(0));
        assert_eq!(d[0].related.as_ref().unwrap().warp, Some(1));
    }

    #[test]
    fn barrier_separates_phases() {
        // Writer in phase 0, reader in phase 1: ordered, no race.
        let a = sealed(vec![shared_store(0, 32), Instr::bar()]);
        let b = sealed(vec![Instr::bar(), shared_load(0, 32)]);
        assert!(diags(&kernel_of(vec![a, b])).is_empty());
    }

    #[test]
    fn read_write_same_phase_races() {
        let a = sealed(vec![shared_store(0, 32), Instr::bar()]);
        let b = sealed(vec![shared_load(0, 32), Instr::bar()]);
        let d = diags(&kernel_of(vec![a, b]));
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].code, LintCode::SharedReadWrite);
        assert!(
            d[0].message.contains("written by warp 0"),
            "{}",
            d[0].message
        );
    }

    #[test]
    fn disjoint_tiles_do_not_race() {
        let a = sealed(vec![shared_store(0, 32), Instr::bar()]);
        let b = sealed(vec![shared_store(128, 32), Instr::bar()]);
        assert!(diags(&kernel_of(vec![a, b])).is_empty());
    }

    #[test]
    fn same_warp_never_races_with_itself() {
        let a = sealed(vec![shared_store(0, 32), shared_store(0, 32)]);
        assert!(diags(&kernel_of(vec![a])).is_empty());
    }

    #[test]
    fn reads_alone_do_not_race() {
        let a = sealed(vec![shared_load(0, 32)]);
        let b = sealed(vec![shared_load(0, 32)]);
        assert!(diags(&kernel_of(vec![a, b])).is_empty());
    }

    #[test]
    fn cross_cta_global_writes_warn_once_per_cta() {
        let st = || {
            sealed(vec![Instr::store(
                Reg(1),
                MemAccess::coalesced(Space::Global, DataClass::Compute, 4, 0x1000, 1),
            )])
        };
        let k = KernelTrace::new(
            "k",
            32,
            8,
            0,
            vec![
                CtaTrace::new(vec![st()]),
                CtaTrace::new(vec![st()]),
                CtaTrace::new(vec![st()]),
            ],
        );
        let d = diags(&k);
        assert_eq!(d.len(), 2, "{d:?}"); // CTAs 1 and 2, each once
        assert!(d.iter().all(|x| x.code == LintCode::GlobalWriteOverlap));
        assert!(d
            .iter()
            .all(|x| x.severity == crate::diag::Severity::Warning));
    }

    #[test]
    fn disjoint_cta_outputs_do_not_warn() {
        let st = |base: u64| {
            sealed(vec![Instr::store(
                Reg(1),
                MemAccess::coalesced(Space::Global, DataClass::Compute, 4, base, 32),
            )])
        };
        let k = KernelTrace::new(
            "k",
            32,
            8,
            0,
            vec![CtaTrace::new(vec![st(0)]), CtaTrace::new(vec![st(0x1000)])],
        );
        assert!(diags(&k).is_empty());
    }

    #[test]
    fn allow_entry_suppresses_global_overlap() {
        let st = || {
            sealed(vec![Instr::store(
                Reg(1),
                MemAccess::coalesced(Space::Global, DataClass::Compute, 4, 0, 1),
            )])
        };
        let k = KernelTrace::new(
            "reduce_sum",
            32,
            8,
            0,
            vec![CtaTrace::new(vec![st()]), CtaTrace::new(vec![st()])],
        );
        let mut out = Vec::new();
        let cfg = AnalysisConfig::new().allow_in(LintCode::GlobalWriteOverlap, "reduce");
        check_kernel(None, &k, &cfg, false, &mut out);
        assert!(out.is_empty());
    }
}
