//! Adversarial fixtures for the static analyzer: each seeds one specific
//! defect into an otherwise *structurally valid* trace and asserts the
//! exact lint code and site crisp-analyze pins it to. The point of the
//! layer is that these traces sail through `validate_kernel` — every
//! fixture proves that first — and only the semantic pass catches them.

use crisp_analyze::{
    analyze_bundle, analyze_kernel, analyze_source_at, AnalysisConfig, InterferenceSpec, LintCode,
    LintLevel, Severity,
};
use crisp_bench::{corpus_lint_config, frontend_corpus};
use crisp_sim::{SimError, Simulation};
use crisp_trace::{
    validate_bundle, validate_kernel, CtaTrace, DataClass, Instr, KernelTrace, MemAccess, Op, Reg,
    Space, Stream, StreamId, StreamKind, TraceBundle, TraceSource, WarpTrace, WARP_SIZE,
};

fn kernel_of(warps: Vec<WarpTrace>) -> KernelTrace {
    let n = warps.len() as u32;
    KernelTrace::new(
        "fixture",
        n * WARP_SIZE as u32,
        16,
        4096,
        vec![CtaTrace::new(warps)],
    )
}

fn shared(base: u64) -> MemAccess {
    MemAccess::coalesced(Space::Shared, DataClass::Compute, 4, base, WARP_SIZE)
}

fn global(base: u64) -> MemAccess {
    MemAccess::coalesced(Space::Global, DataClass::Compute, 4, base, WARP_SIZE)
}

/// Analyze with the default config; assert the fixture is structurally
/// clean so the finding can only have come from the semantic layer.
fn lint(k: &KernelTrace) -> Vec<crisp_analyze::Diagnostic> {
    validate_kernel(k).expect("fixture must pass structural validation");
    analyze_kernel(k, &AnalysisConfig::new()).diagnostics
}

#[test]
fn seeded_write_write_race_is_pinned_to_both_stores() {
    // Two warps write the same shared bytes in barrier interval 0.
    let warp = || {
        let mut w = WarpTrace::new();
        w.push(Instr::load(Reg(1), global(0x1000)));
        w.push(Instr::store(Reg(1), shared(0)));
        w.seal();
        w
    };
    let k = kernel_of(vec![warp(), warp()]);
    let diags = lint(&k);
    let races: Vec<_> = diags
        .iter()
        .filter(|d| d.code == LintCode::SharedWriteWrite)
        .collect();
    assert_eq!(races.len(), 1, "exactly one WW pair: {diags:?}");
    let d = races[0];
    assert_eq!(d.severity, Severity::Error);
    assert_eq!((d.site.warp, d.site.instr), (Some(0), Some(1)));
    let rel = d.related.as_ref().expect("race has a second site");
    assert_eq!((rel.warp, rel.instr), (Some(1), Some(1)));
}

#[test]
fn missing_barrier_read_write_race_names_producer_and_consumer() {
    // Producer stores, consumer loads, and the only barrier comes *after*
    // both — so they share interval 0 and nothing orders them.
    let mut producer = WarpTrace::new();
    producer.push(Instr::load(Reg(1), global(0x1000)));
    producer.push(Instr::store(Reg(1), shared(0)));
    producer.push(Instr::bar());
    producer.seal();
    let mut consumer = WarpTrace::new();
    consumer.push(Instr::load(Reg(2), shared(0)));
    consumer.push(Instr::bar());
    consumer.seal();

    let k = kernel_of(vec![producer, consumer]);
    let diags = lint(&k);
    let races: Vec<_> = diags
        .iter()
        .filter(|d| d.code == LintCode::SharedReadWrite)
        .collect();
    assert_eq!(races.len(), 1, "exactly one RW pair: {diags:?}");
    let d = races[0];
    assert_eq!(d.severity, Severity::Error);
    // Anchored at the (warp, instr)-lower access: the producer's store.
    assert_eq!((d.site.warp, d.site.instr), (Some(0), Some(1)));
    let rel = d.related.as_ref().expect("race has a second site");
    assert_eq!((rel.warp, rel.instr), (Some(1), Some(0)));
}

#[test]
fn barrier_between_producer_and_consumer_silences_the_race() {
    // The fixed version of the case above: store / bar / load. The store
    // lands in interval 0, the load in interval 1 — ordered, no finding.
    let mut producer = WarpTrace::new();
    producer.push(Instr::load(Reg(1), global(0x1000)));
    producer.push(Instr::store(Reg(1), shared(0)));
    producer.push(Instr::bar());
    producer.seal();
    let mut consumer = WarpTrace::new();
    consumer.push(Instr::bar());
    consumer.push(Instr::load(Reg(2), shared(0)));
    consumer.seal();

    let k = kernel_of(vec![producer, consumer]);
    let diags = lint(&k);
    assert!(
        !diags.iter().any(|d| matches!(
            d.code,
            LintCode::SharedReadWrite | LintCode::SharedWriteWrite
        )),
        "barrier-ordered accesses must not race: {diags:?}"
    );
}

#[test]
fn use_before_def_is_pinned_to_the_reading_instruction() {
    let mut w = WarpTrace::new();
    w.push(Instr::load(Reg(1), global(0x1000)));
    w.push(Instr::alu(Op::FpFma, Reg(3), &[Reg(1), Reg(9)]));
    w.push(Instr::store(Reg(3), global(0x2000)));
    w.seal();

    let k = kernel_of(vec![w]);
    let diags = lint(&k);
    let ubd: Vec<_> = diags
        .iter()
        .filter(|d| d.code == LintCode::UseBeforeDef)
        .collect();
    assert_eq!(ubd.len(), 1, "exactly one undefined read: {diags:?}");
    let d = ubd[0];
    assert_eq!(d.severity, Severity::Error);
    assert_eq!((d.site.warp, d.site.instr), (Some(0), Some(1)));
    assert!(
        d.message.contains("r9"),
        "names the register: {}",
        d.message
    );
}

#[test]
fn dead_write_chain_flags_every_overwritten_def() {
    // r2 is written three times; only the last value is ever read.
    let mut w = WarpTrace::new();
    w.push(Instr::load(Reg(1), global(0x1000)));
    w.push(Instr::alu(Op::IntAlu, Reg(2), &[Reg(1)]));
    w.push(Instr::alu(Op::IntAlu, Reg(2), &[Reg(1)]));
    w.push(Instr::alu(Op::IntAlu, Reg(2), &[Reg(1)]));
    w.push(Instr::store(Reg(2), global(0x2000)));
    w.seal();

    let k = kernel_of(vec![w]);
    let diags = lint(&k);
    let dead: Vec<_> = diags
        .iter()
        .filter(|d| d.code == LintCode::DeadWrite)
        .collect();
    let sites: Vec<_> = dead
        .iter()
        .map(|d| (d.site.instr, d.related.as_ref().and_then(|r| r.instr)))
        .collect();
    assert_eq!(
        sites,
        vec![(Some(1), Some(2)), (Some(2), Some(3))],
        "both dead defs, each anchored at the write and related to its \
         overwriter: {diags:?}"
    );
    assert!(dead.iter().all(|d| d.severity == Severity::Warning));
}

#[test]
fn redundant_load_points_back_at_the_first_copy() {
    let mut w = WarpTrace::new();
    w.push(Instr::load(Reg(1), global(0x1000)));
    w.push(Instr::load(Reg(2), global(0x1000)));
    w.push(Instr::alu(Op::IntAlu, Reg(3), &[Reg(1), Reg(2)]));
    w.push(Instr::store(Reg(3), global(0x2000)));
    w.seal();

    let k = kernel_of(vec![w]);
    let diags = lint(&k);
    let red: Vec<_> = diags
        .iter()
        .filter(|d| d.code == LintCode::RedundantLoad)
        .collect();
    assert_eq!(red.len(), 1, "{diags:?}");
    assert_eq!(red[0].site.instr, Some(1));
    assert_eq!(red[0].related.as_ref().and_then(|r| r.instr), Some(0));
}

#[test]
fn cross_cta_write_overlap_warns_and_allow_entry_silences_it() {
    let warp = || {
        let mut w = WarpTrace::new();
        w.push(Instr::load(Reg(1), global(0x1000)));
        w.push(Instr::store(Reg(1), global(0x9000)));
        w.seal();
        w
    };
    let k = KernelTrace::new(
        "reduce_like",
        WARP_SIZE as u32,
        16,
        0,
        vec![CtaTrace::new(vec![warp()]), CtaTrace::new(vec![warp()])],
    );
    validate_kernel(&k).expect("structurally clean");

    let bare = analyze_kernel(&k, &AnalysisConfig::new());
    let overlaps: Vec<_> = bare
        .diagnostics
        .iter()
        .filter(|d| d.code == LintCode::GlobalWriteOverlap)
        .collect();
    assert_eq!(overlaps.len(), 1, "{:?}", bare.diagnostics);
    assert_eq!(overlaps[0].severity, Severity::Warning);

    let allowed = analyze_kernel(
        &k,
        &AnalysisConfig::new().allow_in(LintCode::GlobalWriteOverlap, "reduce_like"),
    );
    assert!(
        !allowed
            .diagnostics
            .iter()
            .any(|d| d.code == LintCode::GlobalWriteOverlap),
        "scoped allow entry must silence the overlap"
    );
}

/// A CTA whose two warps each arrive at exactly one barrier — but at
/// *different* named slots, so neither can ever be released. Arrival
/// totals balance, which is all the structural validator checks.
fn split_slot_kernel() -> KernelTrace {
    let warp_at = |slot: u8, r: u16| {
        let mut w = WarpTrace::new();
        w.push(Instr::alu(Op::IntAlu, Reg(r), &[]));
        w.push(Instr::bar_at(slot));
        w.seal();
        w
    };
    KernelTrace::new(
        "wedge",
        2 * WARP_SIZE as u32,
        16,
        0,
        vec![CtaTrace::new(vec![warp_at(0, 1), warp_at(1, 2)])],
    )
}

/// A kernel whose single warp streams `bytes` of distinct L2 sectors.
fn touch_kernel(name: &str, class: DataClass, base: u64, bytes: u64) -> KernelTrace {
    let space = if class == DataClass::Texture {
        Space::Tex
    } else {
        Space::Global
    };
    let mut w = WarpTrace::new();
    w.push(Instr::alu(Op::IntAlu, Reg(1), &[]));
    let mut addr = base;
    while addr < base + bytes {
        w.push(Instr::load(
            Reg(1),
            MemAccess::coalesced(space, class, 4, addr, WARP_SIZE),
        ));
        addr += (4 * WARP_SIZE) as u64;
    }
    w.seal();
    KernelTrace::new(name, WARP_SIZE as u32, 16, 0, vec![CtaTrace::new(vec![w])])
}

#[test]
fn seeded_barrier_slot_divergence_names_the_culprit_warps() {
    let k = split_slot_kernel();
    let diags = lint(&k);
    let wedges: Vec<_> = diags
        .iter()
        .filter(|d| d.code == LintCode::CfgBarrierDivergence)
        .collect();
    assert_eq!(wedges.len(), 1, "exactly one proven wedge: {diags:?}");
    let d = wedges[0];
    assert_eq!(d.severity, Severity::Error);
    // Anchored at the first parked warp's barrier instruction; related
    // names the warp whose divergent slot makes release impossible.
    assert_eq!((d.site.warp, d.site.instr), (Some(0), Some(1)));
    let rel = d.related.as_ref().expect("wedge names a second warp");
    assert_eq!((rel.warp, rel.instr), (Some(1), Some(1)));
    for needle in [
        "provable barrier deadlock",
        "bar.sync 0",
        "bar.sync 1",
        "no slot can reach 2 arrivals under any schedule",
    ] {
        assert!(d.message.contains(needle), "{needle:?} in {}", d.message);
    }
}

#[test]
fn known_thrashing_partition_spec_is_flagged_before_any_cycle_runs() {
    // 96 KiB of texture + 96 KiB of compute against a 128 KiB shared L2:
    // each stream fits alone, so only the cross-stream estimator can see
    // that the pair thrashes.
    let mut g = Stream::new(StreamId(0), StreamKind::Graphics);
    g.launch(touch_kernel(
        "draw",
        DataClass::Texture,
        0x1000_0000,
        96 << 10,
    ));
    let mut c = Stream::new(StreamId(1), StreamKind::Compute);
    c.launch(touch_kernel(
        "gemm",
        DataClass::Compute,
        0x2000_0000,
        96 << 10,
    ));
    let b = TraceBundle::from_streams(vec![g, c]);
    validate_bundle(&b).expect("fixture must pass structural validation");

    // The touch loops redefine r1 every load; silence the dataflow lint so
    // the interference verdict stands alone.
    let mut cfg = AnalysisConfig::new().allow(LintCode::DeadWrite);
    cfg.interference = Some(InterferenceSpec::shared(128 << 10));
    let report = analyze_bundle(&b, &cfg);

    let hits: Vec<_> = report
        .diagnostics
        .iter()
        .filter(|d| d.code == LintCode::InterferenceFootprintCollision)
        .collect();
    assert_eq!(hits.len(), 1, "{:?}", report.diagnostics);
    let d = hits[0];
    assert_eq!(d.severity, Severity::Warning);
    assert_eq!(d.site.stream, Some(StreamId(0)));
    let rel = d.related.as_ref().expect("collision names both streams");
    assert_eq!(rel.stream, Some(StreamId(1)));
    assert!(
        d.message.contains("192.0 KiB of 128.0 KiB"),
        "{}",
        d.message
    );
    // The score is a measurement, not a lint: 192/128 combined.
    let score = report.interference.expect("spec set → score present");
    assert!((score - 1.5).abs() < 1e-9, "{score}");
}

#[test]
fn adversarial_fixture_trips_every_new_analysis_family() {
    // One bundle makes every new analysis family fire at once — a proven
    // barrier wedge, reconvergence-hostile divergence, and an L2
    // footprint collision.
    let mut divergent = Vec::new();
    for wi in 0..8u16 {
        let mut w = WarpTrace::new();
        for j in 0..=wi {
            w.push(Instr::alu(Op::IntAlu, Reg(1 + j), &[]));
        }
        w.push(Instr::bar_at(0));
        w.seal();
        divergent.push(w);
    }
    let mut g = Stream::new(StreamId(0), StreamKind::Graphics);
    g.launch(touch_kernel(
        "draw",
        DataClass::Texture,
        0x1000_0000,
        96 << 10,
    ));
    let mut c = Stream::new(StreamId(1), StreamKind::Compute);
    c.launch(split_slot_kernel());
    c.launch(KernelTrace::new(
        "ragged",
        8 * WARP_SIZE as u32,
        16,
        0,
        vec![CtaTrace::new(divergent)],
    ));
    c.launch(touch_kernel(
        "gemm",
        DataClass::Compute,
        0x2000_0000,
        96 << 10,
    ));
    let b = TraceBundle::from_streams(vec![g, c]);
    validate_bundle(&b).expect("fixture must pass structural validation");

    let mut cfg = AnalysisConfig::new().allow(LintCode::DeadWrite);
    cfg.interference = Some(InterferenceSpec::shared(128 << 10));

    let report = analyze_bundle(&b, &cfg);
    for code in [
        LintCode::CfgBarrierDivergence,
        LintCode::CfgDivergenceHostile,
        LintCode::InterferenceFootprintCollision,
    ] {
        assert!(
            report.diagnostics.iter().any(|d| d.code == code),
            "fixture must trip {code:?}: {:?}",
            report.diagnostics
        );
    }
}

#[test]
fn corpus_is_clean_of_the_new_analysis_families() {
    // The audited corpus must stay free of every `cfg/*` and
    // `interference/*` finding — warnings included — so turning the new
    // passes on costs existing users nothing.
    let cfg = corpus_lint_config();
    for (name, bundle) in frontend_corpus() {
        let report = analyze_bundle(&bundle, &cfg);
        let new_family: Vec<_> = report
            .diagnostics
            .iter()
            .filter(|d| {
                let code = d.code.as_str();
                code.starts_with("cfg/") || code.starts_with("interference/")
            })
            .collect();
        assert!(
            new_family.is_empty(),
            "{name}: new-pass findings on the clean corpus: {new_family:?}"
        );
    }
}

#[test]
fn frontend_corpus_is_error_free_under_the_audited_config() {
    let cfg = corpus_lint_config();
    for (name, bundle) in frontend_corpus() {
        // Structurally valid, before and after a codec round trip.
        validate_bundle(&bundle).unwrap_or_else(|e| panic!("{name}: {}", e[0]));
        let mut bytes = Vec::new();
        crisp_trace::codec::write_bundle(&bundle, &mut bytes).expect("encode");
        let decoded = crisp_trace::TraceInput::reader(std::io::Cursor::new(bytes))
            .open()
            .and_then(|mut src| src.to_bundle())
            .expect("decode");
        validate_bundle(&decoded).unwrap_or_else(|e| panic!("{name} round-tripped: {}", e[0]));
        let report = analyze_bundle(&bundle, &cfg);
        assert!(
            !report.has_errors(),
            "{name}: {} analyzer errors, first: {:?}",
            report.error_count(),
            report.errors().next()
        );
    }
}

#[test]
fn corpus_allow_entry_is_load_bearing() {
    // `corpus_lint_config` carries an allow entry for the vio_reduce
    // accumulator overlap; prove the finding exists without it so the
    // entry never outlives the pattern it documents.
    let bundles = frontend_corpus();
    let (_, b) = bundles
        .iter()
        .find(|(n, _)| n == "vio-paper")
        .expect("paper-scale vio bundle in corpus");
    let bare = analyze_bundle(b, &AnalysisConfig::new());
    assert!(
        bare.diagnostics
            .iter()
            .any(|d| d.code == LintCode::GlobalWriteOverlap),
        "vio-paper no longer produces the overlap the allow entry documents"
    );
    let audited = analyze_bundle(b, &corpus_lint_config());
    assert!(
        !audited
            .diagnostics
            .iter()
            .any(|d| d.code == LintCode::GlobalWriteOverlap),
        "allow entry failed to suppress the audited overlap"
    );
}

/// Every error the level-aware walk must still find, seeded into one
/// structurally valid two-stream bundle: a shared write-write race, a
/// use-before-def and a named-barrier wedge (errors by default), plus an
/// uncoalesced gather, cross-CTA global overlaps in a `reduce` and a
/// non-`reduce` kernel, and a 96 + 96 KiB footprint collision (warnings
/// that a `deny` entry promotes).
fn seeded_error_bundle() -> TraceBundle {
    let named = |name: &str, ctas: Vec<CtaTrace>| {
        let threads = ctas[0].warp_count() as u32 * WARP_SIZE as u32;
        KernelTrace::new(name, threads, 16, 4096, ctas)
    };
    let sealed = |instrs: Vec<Instr>| {
        let mut w = WarpTrace::new();
        w.extend(instrs);
        w.seal();
        w
    };
    let racer = || {
        sealed(vec![
            Instr::load(Reg(1), global(0x1000)),
            Instr::store(Reg(1), shared(0)),
        ])
    };
    let undefined = sealed(vec![
        Instr::load(Reg(1), global(0x1000)),
        Instr::alu(Op::FpFma, Reg(3), &[Reg(1), Reg(9)]),
        Instr::store(Reg(3), global(0x2000)),
    ]);
    let lines: Vec<u64> = (0..WARP_SIZE as u64)
        .map(|l| 0x4000_0000 + l * 128)
        .collect();
    let gather = sealed(vec![
        Instr::load(
            Reg(1),
            MemAccess::scattered(Space::Global, DataClass::Compute, 4, lines),
        ),
        Instr::store(Reg(1), global(0x3000)),
    ]);
    let overlapping = |name: &str, out: u64| {
        let cta = || {
            CtaTrace::new(vec![sealed(vec![
                Instr::load(Reg(1), global(0x1000)),
                Instr::store(Reg(1), global(out)),
            ])])
        };
        named(name, vec![cta(), cta()])
    };

    let mut g = Stream::new(StreamId(0), StreamKind::Graphics);
    g.launch(touch_kernel(
        "draw",
        DataClass::Texture,
        0x1000_0000,
        96 << 10,
    ));
    let mut c = Stream::new(StreamId(1), StreamKind::Compute);
    c.launch(named("race", vec![CtaTrace::new(vec![racer(), racer()])]));
    c.launch(named("undefined", vec![CtaTrace::new(vec![undefined])]));
    c.launch(split_slot_kernel());
    c.launch(named("gather", vec![CtaTrace::new(vec![gather])]));
    c.launch(overlapping("reduce_sum", 0x9000));
    c.launch(overlapping("scatter_out", 0xa000));
    c.launch(touch_kernel(
        "gemm",
        DataClass::Compute,
        0x2000_0000,
        96 << 10,
    ));
    TraceBundle::from_streams(vec![g, c])
}

#[test]
fn errors_walk_finds_exactly_the_full_reports_errors() {
    let mut traces = frontend_corpus();
    traces.push(("seeded".into(), seeded_error_bundle()));
    for (name, b) in &traces {
        validate_bundle(b).unwrap_or_else(|e| panic!("{name}: {}", e[0]));
    }
    let collision = {
        let mut cfg = AnalysisConfig::new().deny(LintCode::InterferenceFootprintCollision);
        cfg.interference = Some(InterferenceSpec::shared(128 << 10));
        cfg
    };
    // (config, the error codes the seeded bundle must yield under it).
    let defaults = [
        LintCode::SharedWriteWrite,
        LintCode::UseBeforeDef,
        LintCode::CfgBarrierDivergence,
    ];
    let cases = [
        ("default", AnalysisConfig::new(), &defaults[..]),
        (
            "deny uncoalesced",
            AnalysisConfig::new().deny(LintCode::Uncoalesced),
            &[LintCode::Uncoalesced][..],
        ),
        (
            "deny overlap, allow reduce",
            AnalysisConfig::new()
                .deny(LintCode::GlobalWriteOverlap)
                .allow_in(LintCode::GlobalWriteOverlap, "reduce"),
            &[LintCode::GlobalWriteOverlap][..],
        ),
        (
            "deny collision, shared L2",
            collision,
            &[LintCode::InterferenceFootprintCollision][..],
        ),
    ];
    for (cname, cfg, seeded_codes) in &cases {
        for (name, b) in &traces {
            let full = analyze_bundle(b, cfg);
            let errors: Vec<_> = full.errors().cloned().collect();
            let mut src = TraceSource::from_bundle(b.clone());
            let trimmed = analyze_source_at(&mut src, cfg, LintLevel::Errors).unwrap();
            assert_eq!(trimmed.diagnostics, errors, "{name} under {cname}");
            assert!(trimmed.stats.is_empty(), "{name} under {cname}");
            assert_eq!(trimmed.interference, None, "{name} under {cname}");

            // The build lints with the trimmed walk; its verdict is the
            // full report's errors.
            let built = Simulation::builder()
                .trace(b.clone())
                .analyze(LintLevel::Errors)
                .analyze_config(cfg.clone())
                .try_build();
            match built {
                Ok(_) => assert!(errors.is_empty(), "{name} under {cname}: {errors:?}"),
                Err(SimError::InvalidTrace { errors: got }) => {
                    assert_eq!(got, full.to_trace_errors(), "{name} under {cname}")
                }
                Err(e) => panic!("{name} under {cname}: {e}"),
            }

            if name == "seeded" {
                for code in *seeded_codes {
                    assert!(
                        errors.iter().any(|d| d.code == *code),
                        "{cname}: no {code:?} error in {errors:?}"
                    );
                }
                assert!(
                    errors
                        .iter()
                        .all(|d| !d.site.kernel.as_deref().unwrap().contains("reduce")),
                    "{cname}: the allow entry must hold: {errors:?}"
                );
            }
        }
    }
}
