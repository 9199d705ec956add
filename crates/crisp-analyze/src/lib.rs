//! Compiler-style static analysis over CRISP trace bundles.
//!
//! `crisp-trace`'s validator proves a bundle is *structurally* sound; this
//! crate checks what the timing model silently assumes beyond structure —
//! the class of defect that produces plausible-but-wrong IPC numbers
//! instead of an error. Five analysis families run over every bundle:
//!
//! 1. **Barrier-interval race detection** ([`LintCode::SharedWriteWrite`],
//!    [`LintCode::SharedReadWrite`], [`LintCode::GlobalWriteOverlap`]):
//!    GPUVerify-style phase splitting at `Op::Bar`, conflict detection on
//!    overlapping byte ranges.
//! 2. **Register dataflow** ([`LintCode::UseBeforeDef`],
//!    [`LintCode::DeadWrite`], [`LintCode::RedundantLoad`]) plus
//!    scoreboard-pressure statistics from a backward liveness sweep.
//! 3. **Memory shape** ([`LintCode::Uncoalesced`],
//!    [`LintCode::BankConflict`]) plus per-`DataClass` footprints, reusing
//!    the 128 B line / 32 B sector geometry of `crisp_trace`.
//! 4. **CFG / barrier-divergence proving**
//!    ([`LintCode::CfgBarrierDivergence`] — a *proof* that a CTA's named
//!    barriers can never all release, caught before any cycle is burned —
//!    plus the [`LintCode::CfgDivergenceHostile`] and
//!    [`LintCode::CfgUnboundedLoop`] heuristics).
//! 5. **Cross-stream interference estimation**
//!    ([`LintCode::InterferenceL2Oversubscribed`],
//!    [`LintCode::InterferenceFootprintCollision`],
//!    [`LintCode::InterferenceLatencyVictim`]): per-phase L2 working sets
//!    scored against an [`InterferenceSpec`] capacity model, yielding the
//!    [`AnalysisReport::interference`] score. Runs only when
//!    [`AnalysisConfig::interference`] is set.
//!
//! Findings come back as a site-sorted [`AnalysisReport`]; severities and
//! thresholds are tuned through [`AnalysisConfig`], and the `crisp-sim`
//! builder's `.analyze(LintLevel)` hook folds error findings into its
//! preflight failure path.
//!
//! # Example
//!
//! ```
//! use crisp_analyze::{analyze_kernel, AnalysisConfig, LintCode};
//! use crisp_trace::{CtaTrace, DataClass, Instr, KernelTrace, MemAccess, Reg, Space, WarpTrace};
//!
//! // Two warps write the same shared bytes in the same barrier interval.
//! let warp = || {
//!     let mut w = WarpTrace::new();
//!     w.push(Instr::alu(crisp_trace::Op::IntAlu, Reg(1), &[]));
//!     w.push(Instr::store(
//!         Reg(1),
//!         MemAccess::coalesced(Space::Shared, DataClass::Compute, 4, 0, 32),
//!     ));
//!     w.push(Instr::bar());
//!     w.seal();
//!     w
//! };
//! let k = KernelTrace::new("racy", 64, 8, 1024, vec![CtaTrace::new(vec![warp(), warp()])]);
//! let report = analyze_kernel(&k, &AnalysisConfig::new());
//! assert!(report.has_errors());
//! assert_eq!(report.diagnostics[0].code, LintCode::SharedWriteWrite);
//! ```

mod cfg;
mod config;
mod dataflow;
mod diag;
mod interference;
mod race;
mod report;
mod shape;

pub use config::{AnalysisConfig, LintLevel};
pub use diag::{Diagnostic, LintCode, Severity};
pub use interference::{InterferenceSpec, L2Share};
pub use report::{sarif_document, AnalysisReport, ClassLines, KernelStats};

use crisp_trace::{
    Command, CommandMeta, DataClass, KernelTrace, StreamId, TraceBundle, TraceSource,
};

/// Analyze every kernel of `bundle` and return the combined, site-sorted
/// report. Kernels are analyzed one at a time in bundle launch order.
pub fn analyze_bundle(bundle: &TraceBundle, cfg: &AnalysisConfig) -> AnalysisReport {
    let work: Vec<(Option<StreamId>, &KernelTrace)> = bundle
        .streams
        .iter()
        .flat_map(|s| s.kernels().map(move |k| (Some(s.id), k)))
        .collect();
    let mut out = analyze_all(&work, cfg);
    if let Some(spec) = &cfg.interference {
        let mut acc = interference::InterferenceAcc::default();
        for s in &bundle.streams {
            for cmd in &s.commands {
                match cmd {
                    Command::Launch(k) => acc.on_kernel(s.id, s.kind, k),
                    Command::Marker(_) => acc.on_marker(s.id, s.kind),
                }
            }
        }
        out.interference = Some(acc.finish(spec, cfg, &mut out.diagnostics));
        out.diagnostics.sort_by_key(|a| a.sort_key());
    }
    out
}

/// Analyze every kernel reachable through a [`TraceSource`], materializing
/// one kernel at a time (and releasing its CTAs again on streaming
/// sources), so a bundle far larger than RAM is analyzed in bounded
/// memory. Kernels are processed in directory order; the report —
/// diagnostics, statistics, and their ordering — is identical to
/// [`analyze_bundle`] over the materialized bundle.
///
/// # Errors
///
/// Propagates I/O failures from paging kernels in (a corrupt container
/// already fails at [`TraceInput::open`](crisp_trace::TraceInput::open)).
pub fn analyze_source(
    src: &mut TraceSource,
    cfg: &AnalysisConfig,
) -> std::io::Result<AnalysisReport> {
    let mut out = AnalysisReport::default();
    let mut acc = cfg
        .interference
        .as_ref()
        .map(|_| interference::InterferenceAcc::default());
    let metas = src.streams().to_vec();
    for s in &metas {
        for cmd in &s.commands {
            match cmd {
                CommandMeta::Launch { kernel, .. } => {
                    let k = src.materialize_kernel(*kernel)?;
                    if let Some(acc) = acc.as_mut() {
                        acc.on_kernel(s.id, s.kind, &k);
                    }
                    let (diags, stats) = analyze_one(Some(s.id), &k, cfg);
                    out.diagnostics.extend(diags);
                    out.stats.push(stats);
                }
                CommandMeta::Marker(_) => {
                    if let Some(acc) = acc.as_mut() {
                        acc.on_marker(s.id, s.kind);
                    }
                }
            }
        }
    }
    if let (Some(acc), Some(spec)) = (&acc, &cfg.interference) {
        out.interference = Some(acc.finish(spec, cfg, &mut out.diagnostics));
    }
    out.diagnostics.sort_by_key(|a| a.sort_key());
    Ok(out)
}

/// Analyze a single kernel outside any bundle context (sites carry no
/// stream id).
pub fn analyze_kernel(k: &KernelTrace, cfg: &AnalysisConfig) -> AnalysisReport {
    analyze_all(&[(None, k)], cfg)
}

fn analyze_all(work: &[(Option<StreamId>, &KernelTrace)], cfg: &AnalysisConfig) -> AnalysisReport {
    let mut out = AnalysisReport::default();
    for &(s, k) in work {
        let (diags, stats) = analyze_one(s, k, cfg);
        out.diagnostics.extend(diags);
        out.stats.push(stats);
    }
    out.diagnostics.sort_by_key(|a| a.sort_key());
    out
}

fn analyze_one(
    stream: Option<StreamId>,
    k: &KernelTrace,
    cfg: &AnalysisConfig,
) -> (Vec<Diagnostic>, KernelStats) {
    let mut diags = Vec::new();
    race::check_kernel(stream, k, cfg, &mut diags);
    let pressure = dataflow::check_kernel(stream, k, cfg, &mut diags);
    let mem = shape::check_kernel(stream, k, cfg, &mut diags);
    cfg::check_kernel(stream, k, cfg, &mut diags);

    let stats = KernelStats {
        stream: stream.map(|s| s.0),
        name: k.name.clone(),
        ctas: k.ctas.len(),
        warps: k.ctas.iter().map(|c| c.warp_count()).sum(),
        instrs: k.instr_count(),
        max_live_regs: pressure.max_live,
        mean_live_regs: pressure.mean_live(),
        declared_regs: k.regs_per_thread,
        global_accesses: mem.global_accesses,
        shared_accesses: mem.shared_accesses,
        tex_accesses: mem.tex_accesses,
        footprint: DataClass::ALL
            .iter()
            .map(|&c| ClassLines {
                class: c.label(),
                lines: mem.footprint.lines(c),
                bytes: mem.footprint.bytes(c),
            })
            .collect(),
    };
    (diags, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crisp_trace::{
        CtaTrace, DataClass, Instr, MemAccess, Op, Reg, Space, Stream, StreamKind, WarpTrace,
    };

    fn racy_kernel(name: &str) -> KernelTrace {
        let warp = || {
            let mut w = WarpTrace::new();
            w.push(Instr::alu(Op::IntAlu, Reg(1), &[]));
            w.push(Instr::store(
                Reg(1),
                MemAccess::coalesced(Space::Shared, DataClass::Compute, 4, 0, 32),
            ));
            w.push(Instr::bar());
            w.seal();
            w
        };
        KernelTrace::new(name, 64, 8, 1024, vec![CtaTrace::new(vec![warp(), warp()])])
    }

    fn clean_kernel(name: &str) -> KernelTrace {
        let warp = |wi: u64| {
            let mut w = WarpTrace::new();
            w.push(Instr::load(
                Reg(1),
                MemAccess::coalesced(Space::Global, DataClass::Compute, 4, wi * 0x1000, 32),
            ));
            w.push(Instr::alu(Op::FpFma, Reg(2), &[Reg(1)]));
            w.push(Instr::store(
                Reg(2),
                MemAccess::coalesced(Space::Shared, DataClass::Compute, 4, wi * 128, 32),
            ));
            w.push(Instr::bar());
            w.seal();
            w
        };
        KernelTrace::new(
            name,
            64,
            8,
            1024,
            vec![CtaTrace::new(vec![warp(0), warp(1)])],
        )
    }

    fn bundle(kernels: Vec<KernelTrace>) -> TraceBundle {
        let mut s = Stream::new(StreamId(0), StreamKind::Compute);
        for k in kernels {
            s.launch(k);
        }
        TraceBundle::from_streams(vec![s])
    }

    #[test]
    fn clean_kernel_reports_nothing() {
        let r = analyze_kernel(&clean_kernel("ok"), &AnalysisConfig::new());
        assert!(r.diagnostics.is_empty(), "{:?}", r.diagnostics);
        assert_eq!(r.stats.len(), 1);
        assert_eq!(r.stats[0].warps, 2);
        assert!(r.stats[0].max_live_regs >= 1);
    }

    #[test]
    fn bundle_sites_carry_stream_ids() {
        let r = analyze_bundle(&bundle(vec![racy_kernel("r")]), &AnalysisConfig::new());
        assert!(r.has_errors());
        assert_eq!(r.diagnostics[0].site.stream, Some(StreamId(0)));
        assert_eq!(r.stats[0].stream, Some(0));
    }

    #[test]
    fn source_analysis_matches_bundle_analysis() {
        let b = bundle(vec![racy_kernel("a"), clean_kernel("b"), racy_kernel("c")]);
        let cfg = AnalysisConfig::new();
        let expected = analyze_bundle(&b, &cfg);

        let mut bytes = Vec::new();
        crisp_trace::codec::write_bundle(&b, &mut bytes).unwrap();
        let mut src = crisp_trace::TraceInput::reader(std::io::Cursor::new(bytes))
            .open()
            .unwrap();
        assert!(src.is_streaming());
        let got = analyze_source(&mut src, &cfg).unwrap();
        assert_eq!(expected, got);
        assert_eq!(expected.text(), got.text());
        assert_eq!(expected.to_json(), got.to_json());
        // Incremental analysis leaves no CTAs resident.
        assert_eq!(src.stats().resident_ctas, 0);
    }

    #[test]
    fn diagnostics_sort_by_site() {
        let b = bundle(vec![racy_kernel("z"), racy_kernel("a")]);
        let r = analyze_bundle(&b, &AnalysisConfig::new());
        // Launch order within one stream is not alphabetical; the sort key
        // is the site (stream, kernel name, ...), so 'a' precedes 'z'.
        let names: Vec<_> = r
            .diagnostics
            .iter()
            .map(|d| d.site.kernel.clone().unwrap())
            .collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted);
    }

    #[test]
    fn kernel_stats_track_footprint_order() {
        let r = analyze_kernel(&clean_kernel("k"), &AnalysisConfig::new());
        let classes: Vec<_> = r.stats[0].footprint.iter().map(|c| c.class).collect();
        assert_eq!(classes, vec!["texture", "pipeline", "compute"]);
        assert!(r.stats[0].footprint[2].lines > 0);
    }
}
