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
//! Analysis rides the structural validator's walk
//! ([`crisp_trace::validate_source_from`]): each kernel is paged in once,
//! validated, and analyzed only if it validated clean, so a trace with a
//! structural defect yields the validator's errors and never a finding.
//! The walk computes only what its caller keeps: [`analyze_source`] is the
//! full report, and [`analyze_source_at`] at [`LintLevel::Errors`] returns
//! just the error findings; with no `deny` entry it runs only the checks
//! that can report an error.
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
    DataClass, KernelTrace, StreamId, TraceBundle, TraceError, TraceSource, WalkStep,
};

/// Analyze every kernel of `bundle` and return the combined, site-sorted
/// report: [`analyze_source`] over [`TraceSource::from_bundle`] (the clone
/// only bumps the CTAs' `Arc` counts). A structurally unsound bundle does
/// not panic: the report covers the kernels that validated.
pub fn analyze_bundle(bundle: &TraceBundle, cfg: &AnalysisConfig) -> AnalysisReport {
    let mut src = TraceSource::from_bundle(bundle.clone());
    walk(&mut src, cfg, LintLevel::Deny).0
}

/// Validate and analyze every kernel reachable through a [`TraceSource`]
/// in one walk ([`crisp_trace::validate_source_from`]), materializing one
/// kernel at a time (and releasing its CTAs again on streaming sources),
/// so a bundle far larger than RAM is analyzed in bounded memory. Kernels
/// are processed in directory order: streams in stored order, commands in
/// stream order. This is the full report: [`analyze_source_at`] at
/// [`LintLevel::Deny`].
///
/// # Errors
///
/// The validator's errors, which win over any finding; a kernel that
/// fails to page in is a `trace-io` error (a corrupt container already
/// fails at [`TraceInput::open`](crisp_trace::TraceInput::open)).
pub fn analyze_source(
    src: &mut TraceSource,
    cfg: &AnalysisConfig,
) -> Result<AnalysisReport, Vec<TraceError>> {
    analyze_source_at(src, cfg, LintLevel::Deny)
}

/// The pre-flight behind [`analyze_source`]: one walk that validates each
/// kernel and analyzes it while it is paged in, computing only what a
/// caller at `level` keeps.
///
/// At [`LintLevel::Deny`] this is the full report. At
/// [`LintLevel::Errors`] the report carries only the findings that reach
/// the level (error severity, by default or through a `deny` entry), in
/// the full report's order, and has no per-kernel
/// [`stats`](AnalysisReport::stats) and no
/// [`interference`](AnalysisReport::interference) score. When `cfg` has no
/// `deny` entry only the default-error codes can reach the level, so the
/// walk is *trimmed*: it runs race's shared-memory check, dataflow's
/// use-before-def and cfg's barrier prover, and skips the shape and
/// interference passes, the cross-CTA global-overlap walk, dead-write,
/// redundant-load and liveness tracking, and the loop and divergence
/// heuristics. With a `deny` entry it runs the full walk and keeps the
/// errors. At [`LintLevel::Off`] the walk only validates and the report is
/// empty.
///
/// # Errors
///
/// As [`analyze_source`].
pub fn analyze_source_at(
    src: &mut TraceSource,
    cfg: &AnalysisConfig,
    level: LintLevel,
) -> Result<AnalysisReport, Vec<TraceError>> {
    let (report, validated) = walk(src, cfg, level);
    validated.map(|()| report)
}

/// The report over the kernels of `src` that validated, and the
/// validator's verdict.
fn walk(
    src: &mut TraceSource,
    cfg: &AnalysisConfig,
    level: LintLevel,
) -> (AnalysisReport, Result<(), Vec<TraceError>>) {
    let mut out = AnalysisReport::default();
    if level == LintLevel::Off {
        return (out, crisp_trace::validate_source(src));
    }
    // Without a deny entry only the default-error codes reach `Errors`.
    let trimmed = level == LintLevel::Errors && cfg.denies.is_empty();
    let mut acc = cfg
        .interference
        .as_ref()
        .filter(|_| !trimmed)
        .map(|_| interference::InterferenceAcc::default());
    let validated = crisp_trace::validate_source_from(
        src,
        |_| 0,
        |id, kind, step| {
            if let Some(acc) = acc.as_mut() {
                acc.on_step(id, kind, step);
            }
            if let WalkStep::Kernel(k) = step {
                let (diags, stats) = analyze_one(Some(id), k, cfg, trimmed);
                out.diagnostics.extend(diags);
                out.stats.extend(stats);
            }
        },
    );
    if let (Some(acc), Some(spec)) = (&acc, &cfg.interference) {
        out.interference = Some(acc.finish(spec, cfg, &mut out.diagnostics));
    }
    if level == LintLevel::Errors {
        out.diagnostics.retain(|d| d.severity == Severity::Error);
        out.stats.clear();
        out.interference = None;
    }
    out.diagnostics.sort_by_key(|a| a.sort_key());
    (out, validated)
}

/// Analyze a single kernel outside any bundle context (sites carry no
/// stream id).
pub fn analyze_kernel(k: &KernelTrace, cfg: &AnalysisConfig) -> AnalysisReport {
    let (mut diagnostics, stats) = analyze_one(None, k, cfg, false);
    diagnostics.sort_by_key(|a| a.sort_key());
    AnalysisReport {
        diagnostics,
        stats: stats.into_iter().collect(),
        ..AnalysisReport::default()
    }
}

/// One kernel's findings, and its stats unless the walk is `trimmed` to
/// the checks that can report an error.
fn analyze_one(
    stream: Option<StreamId>,
    k: &KernelTrace,
    cfg: &AnalysisConfig,
    trimmed: bool,
) -> (Vec<Diagnostic>, Option<KernelStats>) {
    let mut diags = Vec::new();
    race::check_kernel(stream, k, cfg, trimmed, &mut diags);
    let pressure = dataflow::check_kernel(stream, k, cfg, trimmed, &mut diags);
    // Shape's two lints only warn.
    let mem = (!trimmed).then(|| shape::check_kernel(stream, k, cfg, &mut diags));
    cfg::check_kernel(stream, k, cfg, trimmed, &mut diags);
    let Some(mem) = mem else {
        return (diags, None);
    };

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
    (diags, Some(stats))
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
    fn a_trimmed_walk_keeps_every_default_error_check() {
        // The trimmed walk runs race's shared-memory check, dataflow's
        // use-before-def and cfg's barrier prover; a code that becomes an
        // error by default needs its check kept there too.
        let errors: Vec<_> = LintCode::ALL
            .into_iter()
            .filter(|c| c.default_severity() == Severity::Error)
            .collect();
        assert_eq!(
            errors,
            [
                LintCode::SharedWriteWrite,
                LintCode::SharedReadWrite,
                LintCode::UseBeforeDef,
                LintCode::CfgBarrierDivergence,
            ]
        );
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

    /// One warp loading `kib` KiB of distinct `class` data from `base`.
    fn loads(name: &str, class: DataClass, base: u64, kib: u64) -> KernelTrace {
        let space = match class {
            DataClass::Texture => Space::Tex,
            _ => Space::Global,
        };
        let mut w = WarpTrace::new();
        w.push(Instr::alu(Op::IntAlu, Reg(1), &[]));
        for line in 0..kib * 8 {
            let m = MemAccess::coalesced(space, class, 4, base + line * 128, 32);
            w.push(Instr::load(Reg(1), m));
        }
        w.seal();
        KernelTrace::new(name, 32, 8, 0, vec![CtaTrace::new(vec![w])])
    }

    /// A graphics and a compute stream whose 96 KiB working sets each fit a
    /// 128 KiB L2 alone but not together, split into two phases by a
    /// marker between their kernels.
    fn colliding_two_stream_bundle() -> TraceBundle {
        let mut g = Stream::new(StreamId(0), StreamKind::Graphics);
        g.launch(loads("draw0", DataClass::Texture, 0x1000_0000, 96));
        g.marker("frame");
        g.launch(loads("draw1", DataClass::Texture, 0x1800_0000, 16));
        let mut c = Stream::new(StreamId(1), StreamKind::Compute);
        c.launch(loads("gemm0", DataClass::Compute, 0x2000_0000, 96));
        c.marker("frame");
        c.launch(loads("gemm1", DataClass::Compute, 0x2800_0000, 16));
        TraceBundle::from_streams(vec![g, c])
    }

    #[test]
    fn source_analysis_matches_bundle_analysis() {
        let interference = |spec| {
            let mut cfg = AnalysisConfig::new().allow(LintCode::DeadWrite);
            cfg.interference = Some(spec);
            cfg
        };
        let races = bundle(vec![racy_kernel("a"), clean_kernel("b"), racy_kernel("c")]);
        let cases = [
            ("races", races, AnalysisConfig::new()),
            (
                "shared L2",
                colliding_two_stream_bundle(),
                interference(InterferenceSpec::shared(128 * 1024)),
            ),
            (
                "bank-split L2",
                colliding_two_stream_bundle(),
                interference(InterferenceSpec::bank_split(128 * 1024)),
            ),
        ];
        for (name, b, cfg) in cases {
            let expected = analyze_bundle(&b, &cfg);
            let mut bytes = Vec::new();
            crisp_trace::codec::write_bundle(&b, &mut bytes).unwrap();
            let mut src = crisp_trace::TraceInput::reader(std::io::Cursor::new(bytes))
                .open()
                .unwrap();
            assert!(src.is_streaming());
            let got = analyze_source(&mut src, &cfg).unwrap();
            assert!(
                !expected.diagnostics.is_empty(),
                "{name}: findings to compare"
            );
            assert_eq!(expected.interference.is_some(), cfg.interference.is_some());
            assert_eq!(expected, got, "{name}");
            assert_eq!(expected.text(), got.text(), "{name}");
            assert_eq!(expected.to_json(), got.to_json(), "{name}");
            // Incremental analysis leaves no CTAs resident.
            assert_eq!(src.stats().resident_ctas, 0, "{name}");
        }
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
