//! Fault-injection harness: every mutation of a known-good simulation must
//! come back as a structured `Err(SimError)` — never a panic, never a hang.
//!
//! Each case starts from a valid trace/config pair and injects exactly one
//! fault: a structural trace mutation (unterminated warp, barrier mismatch,
//! out-of-range register, malformed memory payload, ...), a *semantic*
//! trace defect that passes structural validation but trips the
//! `crisp-analyze` pass (shared-memory race, use-before-def), a
//! configuration inconsistency (partition beyond the SM count,
//! oversubscribed quotas, unwritable checkpoint directory, ...), a runtime
//! wedge that only the forward-progress watchdog can catch, or a corrupt
//! checkpoint file. Every mutation must be caught by at least one layer —
//! none may pass both the validator and the analyzer cleanly. The
//! harness runs every case under `catch_unwind` and fails — with a non-zero
//! exit code — if any case panics, completes successfully, or takes longer
//! than the wall-clock guard.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use crisp_analyze::{AnalysisConfig, InterferenceSpec, LintCode};
use crisp_serve::{
    proto, Client, ErrorCode, GpuPreset, JobSpec, JobState, Payload, Response, ServeConfig, Server,
    MAX_FRAME,
};
use crisp_sim::{
    GpuConfig, L2Policy, LintLevel, PartitionSpec, ResourceQuota, SimError, Simulation, SmPartition,
};
use crisp_trace::{
    CtaTrace, DataClass, Instr, KernelTrace, MemAccess, Op, Reg, Space, Stream, StreamId,
    StreamKind, TraceBundle, WarpTrace, MAX_SRCS,
};

const S0: StreamId = StreamId(0);
const S1: StreamId = StreamId(1);

/// Wall-clock guard: a fault that keeps a case running this long counts as
/// a hang even if it would eventually error out.
const CASE_DEADLINE: Duration = Duration::from_secs(60);

/// A short, well-formed warp.
fn good_warp() -> WarpTrace {
    let mut w = WarpTrace::new();
    w.push(Instr::load(
        Reg(1),
        MemAccess::coalesced(Space::Global, DataClass::Compute, 4, 0, 32),
    ));
    w.push(Instr::alu(Op::FpFma, Reg(2), &[Reg(1)]));
    w.seal();
    w
}

/// A well-formed single-stream bundle the config mutations start from.
fn good_bundle() -> TraceBundle {
    let k = KernelTrace::new(
        "baseline",
        64,
        8,
        0,
        vec![CtaTrace::new(vec![good_warp(); 2]); 2],
    );
    let mut s = Stream::new(S0, StreamKind::Compute);
    s.launch(k);
    TraceBundle::from_streams(vec![s])
}

/// Wrap a kernel into a single-stream bundle.
fn bundle_of(k: KernelTrace) -> TraceBundle {
    let mut s = Stream::new(S0, StreamKind::Compute);
    s.launch(k);
    TraceBundle::from_streams(vec![s])
}

fn gpu() -> GpuConfig {
    let mut cfg = GpuConfig::test_tiny();
    cfg.n_sms = 4;
    cfg
}

/// The canonical runtime deadlock: warp 0 parks at a barrier, warp 1's
/// trace ends without `Exit` so it can never arrive.
fn wedged_bundle() -> TraceBundle {
    let mut at_barrier = WarpTrace::new();
    at_barrier.push(Instr::alu(Op::IntAlu, Reg(1), &[]));
    at_barrier.push(Instr::bar());
    at_barrier.seal();
    let mut truncated = WarpTrace::new();
    truncated.push(Instr::alu(Op::IntAlu, Reg(2), &[]));
    bundle_of(KernelTrace::new(
        "wedged",
        64,
        8,
        0,
        vec![CtaTrace::new(vec![at_barrier, truncated])],
    ))
}

/// A scratch path under the system temp dir, unique to this process.
fn scratch(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("crisp-chaos-{tag}-{}", std::process::id()))
}

/// `Ok(first line of the diagnostic)` when the fault surfaced as an error;
/// `Err(reason)` when it was missed, panicked, or blew the deadline.
type CaseOutcome = Result<String, String>;

fn first_line(s: &str) -> String {
    s.lines().next().unwrap_or_default().to_string()
}

fn panic_reason(payload: Box<dyn std::any::Any + Send>) -> String {
    let msg = payload
        .downcast_ref::<String>()
        .map(String::as_str)
        .or_else(|| payload.downcast_ref::<&str>().copied())
        .unwrap_or("non-string panic payload");
    format!("panicked instead of returning Err: {}", first_line(msg))
}

/// Run one simulation attempt and demand a structured error.
fn expect_sim_err(run: impl FnOnce() -> Result<crisp_sim::SimResult, SimError>) -> CaseOutcome {
    match catch_unwind(AssertUnwindSafe(run)) {
        Ok(Err(e)) => Ok(first_line(&e.to_string())),
        Ok(Ok(_)) => Err("completed successfully — the fault went undetected".into()),
        Err(payload) => Err(panic_reason(payload)),
    }
}

/// Like [`expect_sim_err`], but additionally demands that the error mention
/// the given lint `code` — proving the *intended* analysis family caught
/// the mutation, not some earlier layer or a louder sibling lint. Returns
/// the matching diagnostic line.
fn expect_sim_err_matching(
    code: &str,
    run: impl FnOnce() -> Result<crisp_sim::SimResult, SimError>,
) -> CaseOutcome {
    match catch_unwind(AssertUnwindSafe(run)) {
        Ok(Err(e)) => {
            let rendered = e.to_string();
            match rendered.lines().find(|l| l.contains(code)) {
                Some(line) => Ok(line.trim().to_string()),
                None => Err(format!(
                    "errored, but not via {code}: {}",
                    first_line(&rendered)
                )),
            }
        }
        Ok(Ok(_)) => Err("completed successfully — the fault went undetected".into()),
        Err(payload) => Err(panic_reason(payload)),
    }
}

struct Case {
    name: &'static str,
    run: Box<dyn FnOnce() -> CaseOutcome>,
}

fn case(name: &'static str, run: impl FnOnce() -> CaseOutcome + 'static) -> Case {
    Case {
        name,
        run: Box::new(run),
    }
}

/// A case that feeds a mutated bundle through the default builder.
fn trace_case(name: &'static str, make: impl FnOnce() -> TraceBundle + 'static) -> Case {
    case(name, move || {
        expect_sim_err(|| Simulation::builder().gpu(gpu()).trace(make()).run())
    })
}

/// A case whose bundle is *structurally valid* — the injected fault is
/// semantic, so only the `.analyze(..)` pass can catch it. Guards that the
/// structural validator really does stay quiet, so the case keeps
/// exercising the analyzer layer and not an accidental validator trip.
fn analyze_case(name: &'static str, make: impl FnOnce() -> TraceBundle + 'static) -> Case {
    case(name, move || {
        let bundle = make();
        if crisp_trace::validate_bundle(&bundle).is_err() {
            return Err("structural validator tripped — not exercising the analyzer".into());
        }
        expect_sim_err(|| {
            Simulation::builder()
                .gpu(gpu())
                .analyze(LintLevel::Errors)
                .trace(bundle)
                .run()
        })
    })
}

/// Like [`analyze_case`], but with an explicit analyzer config and a
/// pinned lint code the failure must carry. Used for the mutations that
/// target one specific analysis family (the CFG deadlock prover, the
/// cross-stream interference estimator) where "some error fired" is not
/// good enough evidence.
fn analyze_case_pinned(
    name: &'static str,
    code: &'static str,
    acfg: AnalysisConfig,
    make: impl FnOnce() -> TraceBundle + 'static,
) -> Case {
    case(name, move || {
        let bundle = make();
        if crisp_trace::validate_bundle(&bundle).is_err() {
            return Err("structural validator tripped — not exercising the analyzer".into());
        }
        expect_sim_err_matching(code, || {
            Simulation::builder()
                .gpu(gpu())
                .analyze(LintLevel::Errors)
                .analyze_config(acfg)
                .trace(bundle)
                .run()
        })
    })
}

fn cases() -> Vec<Case> {
    let mut v: Vec<Case> = Vec::new();

    // --- structural trace mutations (caught by pre-flight validation) ---
    v.push(trace_case("trace/unterminated-warp", || {
        let mut w = WarpTrace::new();
        w.push(Instr::alu(Op::IntAlu, Reg(1), &[]));
        // no seal(): the trace ends without Exit
        bundle_of(KernelTrace::new(
            "m",
            64,
            8,
            0,
            vec![CtaTrace::new(vec![w, good_warp()])],
        ))
    }));
    v.push(trace_case("trace/barrier-missing-participant", || {
        let mut with_bar = WarpTrace::new();
        with_bar.push(Instr::bar());
        with_bar.seal();
        // sibling warp never executes the barrier
        bundle_of(KernelTrace::new(
            "m",
            64,
            8,
            0,
            vec![CtaTrace::new(vec![with_bar, good_warp()])],
        ))
    }));
    v.push(trace_case("trace/reg-out-of-range", || {
        let mut w = WarpTrace::new();
        w.push(Instr::alu(Op::IntAlu, Reg(500), &[]));
        w.seal();
        bundle_of(KernelTrace::new(
            "m",
            32,
            8,
            0,
            vec![CtaTrace::new(vec![w])],
        ))
    }));
    v.push(trace_case("trace/too-many-lanes", || {
        let mut w = WarpTrace::new();
        w.push(Instr::load(
            Reg(1),
            MemAccess {
                space: Space::Global,
                class: DataClass::Compute,
                width: 4,
                addrs: (0..33).collect(), // a warp has 32 lanes
            },
        ));
        w.seal();
        bundle_of(KernelTrace::new(
            "m",
            32,
            8,
            0,
            vec![CtaTrace::new(vec![w])],
        ))
    }));
    v.push(trace_case("trace/no-active-lanes", || {
        let mut w = WarpTrace::new();
        w.push(Instr::load(
            Reg(1),
            MemAccess {
                space: Space::Global,
                class: DataClass::Compute,
                width: 4,
                addrs: Vec::new(),
            },
        ));
        w.seal();
        bundle_of(KernelTrace::new(
            "m",
            32,
            8,
            0,
            vec![CtaTrace::new(vec![w])],
        ))
    }));
    v.push(trace_case("trace/zero-width-access", || {
        let mut w = WarpTrace::new();
        w.push(Instr::load(
            Reg(1),
            MemAccess {
                space: Space::Global,
                class: DataClass::Compute,
                width: 0,
                addrs: vec![0; 32],
            },
        ));
        w.seal();
        bundle_of(KernelTrace::new(
            "m",
            32,
            8,
            0,
            vec![CtaTrace::new(vec![w])],
        ))
    }));
    v.push(trace_case("trace/missing-mem-payload", || {
        let mut w = WarpTrace::new();
        w.push(Instr {
            op: Op::Ld(Space::Global),
            dst: Some(Reg(1)),
            srcs: [None; MAX_SRCS],
            mem: None,
        });
        w.seal();
        bundle_of(KernelTrace::new(
            "m",
            32,
            8,
            0,
            vec![CtaTrace::new(vec![w])],
        ))
    }));
    v.push(trace_case("trace/unexpected-mem-payload", || {
        let mut w = WarpTrace::new();
        w.push(Instr {
            op: Op::IntAlu,
            dst: Some(Reg(1)),
            srcs: [None; MAX_SRCS],
            mem: Some(MemAccess::coalesced(
                Space::Global,
                DataClass::Compute,
                4,
                0,
                1,
            )),
        });
        w.seal();
        bundle_of(KernelTrace::new(
            "m",
            32,
            8,
            0,
            vec![CtaTrace::new(vec![w])],
        ))
    }));
    v.push(trace_case("trace/code-after-exit", || {
        let mut w = WarpTrace::new();
        w.push(Instr::exit());
        w.push(Instr::alu(Op::IntAlu, Reg(1), &[]));
        w.push(Instr::exit());
        bundle_of(KernelTrace::new(
            "m",
            32,
            8,
            0,
            vec![CtaTrace::new(vec![w])],
        ))
    }));
    v.push(trace_case("trace/overfull-cta", || {
        // block_threads = 32 permits one warp; KernelTrace::new asserts
        // this, so splice the second warp in behind the constructor's back
        let mut k = KernelTrace::new("m", 32, 8, 0, vec![CtaTrace::new(vec![good_warp()])]);
        k.ctas[0].warps.push(good_warp());
        bundle_of(k)
    }));
    v.push(trace_case("trace/empty-cta", || {
        bundle_of(KernelTrace::new(
            "m",
            32,
            8,
            0,
            vec![CtaTrace::new(Vec::new())],
        ))
    }));
    v.push(trace_case("trace/empty-warp", || {
        bundle_of(KernelTrace::new(
            "m",
            64,
            8,
            0,
            vec![CtaTrace::new(vec![WarpTrace::new(), good_warp()])],
        ))
    }));
    v.push(trace_case("trace/empty-marker-label", || {
        let mut bundle = good_bundle();
        bundle.streams[0].marker("");
        bundle
    }));
    v.push(trace_case("trace/duplicate-stream-id", || {
        // from_streams() rejects duplicates eagerly, so splice them in raw
        let mut bundle = TraceBundle::new();
        let mut a = Stream::new(S0, StreamKind::Compute);
        a.launch(KernelTrace::new(
            "a",
            64,
            8,
            0,
            vec![CtaTrace::new(vec![good_warp(); 2])],
        ));
        let mut b = Stream::new(S0, StreamKind::Graphics);
        b.launch(KernelTrace::new(
            "b",
            64,
            8,
            0,
            vec![CtaTrace::new(vec![good_warp(); 2])],
        ));
        bundle.streams.push(a);
        bundle.streams.push(b);
        bundle
    }));

    // --- semantic trace defects (pass the validator; caught by crisp-analyze) ---
    v.push(analyze_case("analyze/shared-write-write-race", || {
        // Two warps blanket the same shared bytes with stores and no
        // barrier between them.
        let mut w = WarpTrace::new();
        w.push(Instr::alu(Op::IntAlu, Reg(1), &[]));
        w.push(Instr::store(
            Reg(1),
            MemAccess::coalesced(Space::Shared, DataClass::Compute, 4, 0, 32),
        ));
        w.seal();
        bundle_of(KernelTrace::new(
            "m",
            64,
            8,
            256,
            vec![CtaTrace::new(vec![w.clone(), w])],
        ))
    }));
    v.push(analyze_case("analyze/missing-barrier-race", || {
        // Both warps execute one barrier, so barrier validation balances —
        // but the consumer's load lands *before* its barrier, in the same
        // interval as the producer's store.
        let smem = MemAccess::coalesced(Space::Shared, DataClass::Compute, 4, 0, 32);
        let mut producer = WarpTrace::new();
        producer.push(Instr::alu(Op::IntAlu, Reg(1), &[]));
        producer.push(Instr::store(Reg(1), smem.clone()));
        producer.push(Instr::bar());
        producer.seal();
        let mut consumer = WarpTrace::new();
        consumer.push(Instr::load(Reg(2), smem));
        consumer.push(Instr::bar());
        consumer.seal();
        bundle_of(KernelTrace::new(
            "m",
            64,
            8,
            256,
            vec![CtaTrace::new(vec![producer, consumer])],
        ))
    }));
    v.push(analyze_case("analyze/use-before-def", || {
        // Reg(5) is consumed but no earlier instruction in the warp
        // defines it. In range for the kernel, so the validator is happy.
        let mut w = WarpTrace::new();
        w.push(Instr::alu(Op::FpFma, Reg(1), &[Reg(5)]));
        w.seal();
        bundle_of(KernelTrace::new(
            "m",
            32,
            8,
            0,
            vec![CtaTrace::new(vec![w])],
        ))
    }));
    v.push(analyze_case_pinned(
        "analyze/barrier-slot-divergence",
        "cfg/barrier-divergence",
        AnalysisConfig::new(),
        || {
            // Mutation: one warp's single barrier moves from slot 0 to
            // slot 1. Per-warp arrival totals still balance, so the
            // structural validator stays quiet — but no named slot can
            // ever reach 2 arrivals under *any* schedule. Only the CFG
            // deadlock prover sees that before the runtime watchdog has
            // to burn its whole budget discovering the same wedge.
            let warp_at = |slot: u8, r: u16| {
                let mut w = WarpTrace::new();
                w.push(Instr::alu(Op::IntAlu, Reg(r), &[]));
                w.push(Instr::bar_at(slot));
                w.seal();
                w
            };
            bundle_of(KernelTrace::new(
                "m",
                64,
                8,
                0,
                vec![CtaTrace::new(vec![warp_at(0, 1), warp_at(1, 2)])],
            ))
        },
    ));
    v.push(analyze_case_pinned(
        "analyze/dropped-reconvergence",
        "cfg/divergence-hostile",
        AnalysisConfig::new().deny(LintCode::CfgDivergenceHostile),
        || {
            // Mutation: drop the reconvergence discipline — every warp
            // walks a different-length path into the same barrier, so one
            // barrier interval carries 8 distinct control paths (the
            // default `divergence_paths` threshold). Structurally pristine;
            // only the CFG pass notices.
            let warps: Vec<WarpTrace> = (0..8)
                .map(|wi| {
                    let mut w = WarpTrace::new();
                    for j in 0..=wi {
                        w.push(Instr::alu(Op::IntAlu, Reg(1 + j as u16), &[]));
                    }
                    w.push(Instr::bar_at(0));
                    w.seal();
                    w
                })
                .collect();
            bundle_of(KernelTrace::new(
                "m",
                256,
                16,
                0,
                vec![CtaTrace::new(warps)],
            ))
        },
    ));
    v.push(analyze_case_pinned(
        "analyze/footprint-inflation",
        "interference/footprint-collision",
        {
            // The touch loops redefine r1 on every load; silence the
            // dataflow lint so the interference verdict stands alone.
            let mut acfg = AnalysisConfig::new()
                .allow(LintCode::DeadWrite)
                .deny(LintCode::InterferenceFootprintCollision);
            acfg.interference = Some(InterferenceSpec::shared(128 * 1024));
            acfg
        },
        || {
            // Mutation: inflate each stream's phase footprint to 96 KiB.
            // Either stream fits the 128 KiB shared L2 alone, so no
            // per-stream check can object — only the cross-stream
            // estimator sees that together they evict each other.
            let touch = |name: &str, class: DataClass, base: u64| {
                let space = if class == DataClass::Texture {
                    Space::Tex
                } else {
                    Space::Global
                };
                let mut w = WarpTrace::new();
                w.push(Instr::alu(Op::IntAlu, Reg(1), &[]));
                let mut addr = base;
                while addr < base + 96 * 1024 {
                    // 32 lanes × 4 B = 128 B of distinct sectors per load
                    w.push(Instr::load(
                        Reg(1),
                        MemAccess::coalesced(space, class, 4, addr, 32),
                    ));
                    addr += 128;
                }
                w.seal();
                KernelTrace::new(name, 32, 8, 0, vec![CtaTrace::new(vec![w])])
            };
            let mut g = Stream::new(S0, StreamKind::Graphics);
            g.launch(touch("draw", DataClass::Texture, 0x1000_0000));
            let mut c = Stream::new(S1, StreamKind::Compute);
            c.launch(touch("gemm", DataClass::Compute, 0x2000_0000));
            TraceBundle::from_streams(vec![g, c])
        },
    ));

    // --- configuration mutations (caught by pre-flight cross-checks) ---
    v.push(case("config/partition-sm-out-of-range", || {
        expect_sim_err(|| {
            let mut map = HashMap::new();
            map.insert(S0, vec![0usize, 17]);
            Simulation::builder()
                .gpu(gpu())
                .partition(PartitionSpec {
                    sm: SmPartition::InterSm(map),
                    l2: L2Policy::Shared,
                })
                .trace(good_bundle())
                .run()
        })
    }));
    v.push(case("config/partition-empty-sm-list", || {
        expect_sim_err(|| {
            let mut map = HashMap::new();
            map.insert(S0, Vec::new());
            Simulation::builder()
                .gpu(gpu())
                .partition(PartitionSpec {
                    sm: SmPartition::InterSm(map),
                    l2: L2Policy::Shared,
                })
                .trace(good_bundle())
                .run()
        })
    }));
    v.push(case("config/intra-sm-oversubscribed", || {
        expect_sim_err(|| {
            let cfg = gpu();
            let hog = ResourceQuota {
                threads: cfg.sm.max_threads, // two of these cannot coexist
                warps: cfg.sm.max_warps,
                regs: cfg.sm.max_regs,
                smem: cfg.sm.max_smem,
                ctas: 1,
            };
            let mut map = HashMap::new();
            map.insert(S0, hog);
            map.insert(S1, hog);
            Simulation::builder()
                .gpu(cfg)
                .partition(PartitionSpec {
                    sm: SmPartition::IntraSm(map),
                    l2: L2Policy::Shared,
                })
                .trace(good_bundle())
                .run()
        })
    }));
    v.push(case("config/bank-split-needs-two-streams", || {
        expect_sim_err(|| {
            Simulation::builder()
                .gpu(gpu())
                .partition(PartitionSpec {
                    sm: SmPartition::Greedy,
                    l2: L2Policy::BankSplit,
                })
                .trace(good_bundle())
                .run()
        })
    }));
    v.push(case("config/missing-fast-forward-marker", || {
        expect_sim_err(|| {
            Simulation::builder()
                .gpu(gpu())
                .trace(good_bundle())
                .fast_forward_to("roi-that-does-not-exist")
                .run()
        })
    }));
    v.push(case("config/zero-cycle-budget", || {
        expect_sim_err(|| {
            let mut cfg = gpu();
            cfg.max_cycles = 0;
            Simulation::builder().gpu(cfg).trace(good_bundle()).run()
        })
    }));
    v.push(case("config/unplaceable-kernel", || {
        expect_sim_err(|| {
            // 40k registers per thread can never fit on one SM
            let k = KernelTrace::new(
                "hog",
                64,
                40_000,
                0,
                vec![CtaTrace::new(vec![good_warp(); 2])],
            );
            Simulation::builder().gpu(gpu()).trace(bundle_of(k)).run()
        })
    }));
    v.push(case("config/checkpoint-dir-is-a-file", || {
        let dir = scratch("ckpt-file");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("scratch dir");
        let file = dir.join("occupied");
        std::fs::write(&file, b"x").expect("scratch file");
        let out = expect_sim_err(|| {
            Simulation::builder()
                .gpu(gpu())
                .trace(good_bundle())
                .checkpoint_every(100)
                .checkpoint_to(&file)
                .run()
        });
        let _ = std::fs::remove_dir_all(&dir);
        out
    }));

    // --- runtime faults (pre-flight disabled; the watchdog must catch them) ---
    v.push(case("runtime/deadlock", || {
        expect_sim_err(|| {
            Simulation::builder()
                .gpu(gpu())
                .preflight(false)
                .watchdog(2_000)
                .trace(wedged_bundle())
                .run()
        })
    }));
    v.push(case("runtime/cycle-budget-exceeded", || {
        expect_sim_err(|| {
            let mut cfg = gpu();
            cfg.max_cycles = 3_000;
            Simulation::builder()
                .gpu(cfg)
                .preflight(false)
                .watchdog(0) // watchdog off: the budget is the only net
                .trace(wedged_bundle())
                .run()
        })
    }));
    v.push(case("runtime/worker-panic", || {
        let mut w = WarpTrace::new();
        w.push(Instr::alu(Op::IntAlu, Reg(300), &[])); // past the scoreboard
        w.seal();
        let k = KernelTrace::new("hot", 32, 8, 0, vec![CtaTrace::new(vec![w])]);
        let run = || {
            Simulation::builder()
                .gpu(gpu())
                .preflight(false)
                .trace(bundle_of(k))
                .run()
        };
        match catch_unwind(AssertUnwindSafe(run)) {
            Ok(Err(SimError::WorkerPanic { message, ctx })) => match ctx.report.sms.len() {
                n if n == gpu().n_sms => Ok(first_line(&message)),
                n => Err(format!("WorkerPanic reports {n} of {} SMs", gpu().n_sms)),
            },
            Ok(Err(e)) => Err(format!(
                "expected WorkerPanic: {}",
                first_line(&e.to_string())
            )),
            Ok(Ok(_)) => Err("completed successfully — the fault went undetected".into()),
            Err(payload) => Err(panic_reason(payload)),
        }
    }));

    // --- container index corruption (caught when opening the source) ---
    // Version-2 containers carry a per-CTA offset index; a mutated index
    // must surface as a structured open/pre-flight error, never a panic or
    // a silently wrong simulation.
    fn mutated_container_case(
        name: &'static str,
        mutate: fn(usize, (u64, u64)) -> (u64, u64),
        pad: &'static [u8],
    ) -> Case {
        case(name, move || {
            let mut bytes = Vec::new();
            crisp_trace::codec::write_bundle_mutated(&good_bundle(), &mut bytes, mutate, pad)
                .expect("encode mutated container");
            expect_sim_err(|| {
                Simulation::builder()
                    .gpu(gpu())
                    .trace(crisp_trace::TraceInput::reader(std::io::Cursor::new(bytes)))
                    .run()
            })
        })
    }
    v.push(mutated_container_case(
        "container/index-offset-out-of-bounds",
        |_, (off, len)| (off.wrapping_add(1 << 40), len),
        &[],
    ));
    v.push(mutated_container_case(
        "container/index-overlapping-spans",
        |i, (off, len)| {
            if i == 1 {
                (off.saturating_sub(1), len)
            } else {
                (off, len)
            }
        },
        &[],
    ));
    v.push(mutated_container_case(
        "container/index-payload-size-mismatch",
        |_, span| span,
        b"trailing-junk-the-index-does-not-cover",
    ));

    // --- checkpoint corruption ---
    v.push(case("checkpoint/truncated-file", || {
        let dir = scratch("truncated");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("scratch dir");
        let path = dir.join("bad.ckpt");
        std::fs::write(&path, b"CKPT").expect("scratch file"); // magic only, no body
        let out = match catch_unwind(AssertUnwindSafe(|| Simulation::resume(&path))) {
            Ok(Err(e)) => Ok(first_line(&e.to_string())),
            Ok(Ok(_)) => Err("resumed from a truncated checkpoint".into()),
            Err(_) => Err("panicked instead of returning Err".into()),
        };
        let _ = std::fs::remove_dir_all(&dir);
        out
    }));

    // --- service faults (crisp-serve) ---
    // Each case injects one protocol- or job-level fault into a live
    // daemon. Two things must hold: the fault surfaces as a *structured*
    // error (never a panic, never a silent success), and the daemon
    // survives it — the wrapper proves liveness by running a fresh valid
    // job to completion afterwards.
    v.push(serve_case("serve/malformed-frame", "malformed", |addr| {
        let mut s = std::net::TcpStream::connect(addr).map_err(|e| e.to_string())?;
        // A well-framed message whose body is garbage: unknown request tag.
        proto::write_frame(&mut s, 0x7F, b"not-a-request").map_err(|e| e.to_string())?;
        let (kind, payload) =
            proto::read_frame(&mut s).map_err(|e| format!("no structured reply: {e}"))?;
        match Response::decode(kind, &payload) {
            Ok(Response::Error {
                code: ErrorCode::Malformed,
                message,
            }) => Ok(first_line(&message)),
            other => Err(format!("wanted a Malformed error, got {other:?}")),
        }
    }));
    v.push(serve_case("serve/oversized-frame", "oversized", |addr| {
        use std::io::Write as _;
        let mut s = std::net::TcpStream::connect(addr).map_err(|e| e.to_string())?;
        // A length prefix past MAX_FRAME: the daemon must refuse without
        // ever allocating or reading the claimed body.
        s.write_all(&(MAX_FRAME + 1).to_le_bytes())
            .map_err(|e| e.to_string())?;
        let (kind, payload) =
            proto::read_frame(&mut s).map_err(|e| format!("no structured reply: {e}"))?;
        match Response::decode(kind, &payload) {
            Ok(Response::Error {
                code: ErrorCode::Oversized,
                message,
            }) => Ok(first_line(&message)),
            other => Err(format!("wanted an Oversized error, got {other:?}")),
        }
    }));
    v.push(serve_case(
        "serve/mid-stream-disconnect",
        "disconnect",
        |addr| {
            use std::io::Write as _;
            let mut s = std::net::TcpStream::connect(addr).map_err(|e| e.to_string())?;
            // Promise a 1000-byte frame, deliver 10 bytes, vanish.
            s.write_all(&1000u32.to_le_bytes())
                .map_err(|e| e.to_string())?;
            s.write_all(&[0x55; 10]).map_err(|e| e.to_string())?;
            drop(s);
            Ok("daemon absorbed a truncated frame".into())
        },
    ));
    v.push(serve_case("serve/double-cancel", "double-cancel", |addr| {
        let mut c = Client::connect(addr).map_err(|e| e.to_string())?;
        let job = c
            .submit(&serve_job("victim", serve_slow_trace(20_000)))
            .map_err(|e| format!("submit: {e}"))?;
        c.cancel(job).map_err(|e| format!("first cancel: {e}"))?;
        let s = c.wait(job, 120_000).map_err(|e| format!("wait: {e}"))?;
        if s.state != JobState::Cancelled {
            return Err(format!("job ended {} instead of Cancelled", s.state));
        }
        match c.cancel(job) {
            Err(e) if e.code() == Some(ErrorCode::AlreadyTerminal) => {
                Ok(format!("second cancel: {e}"))
            }
            Err(e) => Err(format!("wrong error class: {e}")),
            Ok(s) => Err(format!("second cancel accepted (job is {})", s.state)),
        }
    }));
    v.push(serve_case(
        "serve/garbage-trace-submit",
        "garbage",
        |addr| {
            let mut c = Client::connect(addr).map_err(|e| e.to_string())?;
            match c.submit(&serve_job("garbage", vec![0xDE, 0xAD, 0xBE, 0xEF])) {
                Err(e) if e.code() == Some(ErrorCode::Rejected) => Ok(first_line(&e.to_string())),
                Err(e) => Err(format!("wrong error class: {e}")),
                Ok(id) => Err(format!("garbage bytes admitted as job {id}")),
            }
        },
    ));

    // A daemon started over a damaged spool manifest must quarantine it
    // and come up empty — never crash, never resurrect garbage jobs.
    v.push(spool_corruption_case(
        "serve/spool-zero-length-manifest",
        "spool-zero",
        |_| Vec::new(),
    ));
    v.push(spool_corruption_case(
        "serve/spool-bit-flip-manifest",
        "spool-flip",
        |mut b| {
            let at = b.len() - 3; // inside the checksummed payload
            b[at] ^= 0x40;
            b
        },
    ));
    v.push(spool_corruption_case(
        "serve/spool-truncated-manifest",
        "spool-trunc",
        |mut b| {
            b.truncate(b.len() / 2); // header survives, payload is torn
            b
        },
    ));

    v
}

// ------------------------------------------------------------ serve faults

/// A valid trace job for the chaos daemon.
fn serve_job(name: &str, bytes: Vec<u8>) -> JobSpec {
    JobSpec {
        tenant: "chaos".into(),
        name: name.into(),
        priority: 1,
        payload: Payload::Trace(bytes),
        gpu: GpuPreset::TestTiny,
        max_cycles: 0,
        telemetry: false,
        deadline_ms: 0,
    }
}

fn encode_bundle(bundle: &TraceBundle) -> Vec<u8> {
    let mut out = Vec::new();
    crisp_trace::codec::write_bundle(bundle, &mut out).expect("encode bundle");
    out
}

/// A lint-clean single-warp dependent-SFU chain: long enough wall-clock
/// (~21 cycles/instruction) that a cancel reliably lands mid-flight.
fn serve_slow_trace(instrs: usize) -> Vec<u8> {
    let mut w = WarpTrace::new();
    w.push(Instr::alu(Op::IntAlu, Reg(1), &[]));
    w.push(Instr::alu(Op::IntAlu, Reg(2), &[]));
    for i in 0..instrs {
        let d = Reg((i % 2) as u16 + 1);
        let s = Reg(((i + 1) % 2) as u16 + 1);
        w.push(Instr::alu(Op::Sfu, d, &[s]));
    }
    w.seal();
    encode_bundle(&bundle_of(KernelTrace::new(
        "slow",
        64,
        8,
        0,
        vec![CtaTrace::new(vec![w])],
    )))
}

/// Run one service-fault case against a fresh single-worker daemon, then
/// prove the daemon survived by completing a valid job.
fn serve_case(
    name: &'static str,
    tag: &'static str,
    fault: impl FnOnce(std::net::SocketAddr) -> CaseOutcome + 'static,
) -> Case {
    case(name, move || {
        let spool = scratch(&format!("serve-{tag}"));
        let _ = std::fs::remove_dir_all(&spool);
        let handle = Server::start(ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers: 1,
            spool: spool.clone(),
            ..ServeConfig::default()
        })
        .map_err(|e| format!("daemon failed to start: {e}"))?;
        let addr = handle.addr();
        let outcome = fault(addr);
        let live = (|| -> Result<(), String> {
            let mut c = Client::connect(addr).map_err(|e| e.to_string())?;
            let job = c
                .submit(&serve_job("probe", encode_bundle(&good_bundle())))
                .map_err(|e| e.to_string())?;
            let s = c.wait(job, 120_000).map_err(|e| e.to_string())?;
            if s.state != JobState::Completed {
                return Err(format!("probe job ended {}", s.state));
            }
            Ok(())
        })();
        if let Ok(mut c) = Client::connect(addr) {
            let _ = c.shutdown(false);
        }
        handle.join();
        let _ = std::fs::remove_dir_all(&spool);
        match (outcome, live) {
            (Ok(diag), Ok(())) => Ok(diag),
            (Ok(_), Err(why)) => Err(format!("fault handled, but the daemon died: {why}")),
            (Err(why), _) => Err(why),
        }
    })
}

/// Run one spool-recovery case: plant a corrupted (sealed, then mutated)
/// manifest in a fresh spool, start a daemon over it, and demand that the
/// daemon (a) starts, (b) quarantines the corrupt file rather than
/// deleting or trusting it, and (c) still admits and completes a job.
fn spool_corruption_case(
    name: &'static str,
    tag: &'static str,
    corrupt: fn(Vec<u8>) -> Vec<u8>,
) -> Case {
    case(name, move || {
        let spool = scratch(&format!("serve-{tag}"));
        let _ = std::fs::remove_dir_all(&spool);
        std::fs::create_dir_all(&spool).map_err(|e| e.to_string())?;
        let sealed = crisp_serve::spool::seal(b"chaos: not a decodable manifest payload");
        std::fs::write(spool.join("manifest.bin"), corrupt(sealed)).map_err(|e| e.to_string())?;
        let handle = Server::start(ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers: 1,
            spool: spool.clone(),
            ..ServeConfig::default()
        })
        .map_err(|e| format!("daemon refused to start over a corrupt manifest: {e}"))?;
        let addr = handle.addr();
        let live = (|| -> Result<(), String> {
            let mut c = Client::connect(addr).map_err(|e| e.to_string())?;
            let job = c
                .submit(&serve_job("probe", encode_bundle(&good_bundle())))
                .map_err(|e| e.to_string())?;
            let s = c.wait(job, 120_000).map_err(|e| e.to_string())?;
            if s.state != JobState::Completed {
                return Err(format!("probe job ended {}", s.state));
            }
            Ok(())
        })();
        let quarantined = std::fs::read_dir(&spool)
            .map(|rd| {
                rd.flatten()
                    .any(|e| e.file_name().to_string_lossy().contains("quarantined"))
            })
            .unwrap_or(false);
        if let Ok(mut c) = Client::connect(addr) {
            let _ = c.shutdown(false);
        }
        handle.join();
        let _ = std::fs::remove_dir_all(&spool);
        live.map_err(|why| format!("daemon not live after corrupt manifest: {why}"))?;
        if !quarantined {
            return Err("corrupt manifest was not quarantined".into());
        }
        Ok("daemon quarantined the corrupt manifest and still admits jobs".into())
    })
}

/// Corpus mode: every trace the repo's own frontends produce must pass the
/// pre-flight validator *and* come back free of analyzer errors under the
/// audited corpus allow-list — before and after a codec round-trip. With
/// explicit paths, checks those `.crsp` files instead.
fn run_corpus(paths: &[String]) -> i32 {
    let mut corpus: Vec<(String, TraceBundle)> = Vec::new();
    if paths.is_empty() {
        corpus = crisp_bench::frontend_corpus();
    } else {
        for p in paths {
            let loaded = crisp_trace::TraceInput::from(p.as_str())
                .open()
                .and_then(|mut s| s.to_bundle());
            match loaded {
                Ok(b) => corpus.push((p.clone(), b)),
                Err(e) => {
                    println!("  FAIL {p}: unreadable: {e}");
                    return 1;
                }
            }
        }
    }

    let lint_cfg = crisp_bench::corpus_lint_config();
    let mut failures = 0usize;
    for (name, bundle) in &corpus {
        let instrs: usize = bundle
            .streams
            .iter()
            .flat_map(|s| s.kernels())
            .map(|k| k.instr_count())
            .sum();
        match crisp_trace::validate_bundle(bundle) {
            Ok(()) => println!("  ok   {name:<24} {instrs} instructions, validator clean"),
            Err(errs) => {
                failures += 1;
                println!("  FAIL {name:<24} {} validation errors:", errs.len());
                for e in errs.iter().take(5) {
                    println!("         {e}");
                }
            }
        }
        let report = crisp_analyze::analyze_bundle(bundle, &lint_cfg);
        if report.has_errors() {
            failures += 1;
            println!(
                "  FAIL {name:<24} {} analyzer errors:",
                report.error_count()
            );
            for d in report.errors().take(5) {
                println!("         {d}");
            }
        } else {
            println!(
                "  ok   {name:<24} analyzer clean ({} warnings)",
                report.warning_count()
            );
        }
        // The codec must preserve validity, not just bytes.
        let path = scratch(&format!("corpus-{}", name.replace('/', "_")));
        if let Err(e) = crisp_trace::codec::save(bundle, &path)
            .and_then(|()| crisp_trace::TraceInput::from(path.as_path()).open())
            .and_then(|mut s| s.to_bundle())
            .map_err(|e| e.to_string())
            .and_then(|b| crisp_trace::validate_bundle(&b).map_err(|errs| errs[0].to_string()))
        {
            failures += 1;
            println!("  FAIL {name:<24} codec round-trip: {e}");
        }
        let _ = std::fs::remove_file(&path);
    }
    if failures > 0 {
        println!(
            "corpus: {failures}/{} bundles FAILED validation",
            corpus.len()
        );
        1
    } else {
        println!("corpus: all {} bundles validator-clean", corpus.len());
        0
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--corpus") {
        std::process::exit(run_corpus(&args[1..]));
    }

    // Expected panics (the worker-panic case, asserts behind catch_unwind)
    // would spray backtraces over the report; keep the output to ours.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));

    let all = cases();
    let total = all.len();
    println!("== chaos: {total} fault injections ==");

    let mut failures = 0usize;
    for c in all {
        let start = Instant::now();
        let outcome = (c.run)();
        let elapsed = start.elapsed();
        let outcome = match outcome {
            Ok(_) if elapsed > CASE_DEADLINE => Err(format!(
                "errored, but only after {elapsed:.1?} — watchdog window too lax"
            )),
            other => other,
        };
        match outcome {
            Ok(diag) => println!("  ok   {:<38} {diag}", c.name),
            Err(why) => {
                failures += 1;
                println!("  FAIL {:<38} {why}", c.name);
            }
        }
    }

    std::panic::set_hook(default_hook);

    if failures > 0 {
        println!("chaos: {failures}/{total} cases FAILED");
        std::process::exit(1);
    }
    println!("chaos: all {total} cases returned structured errors — no panics, no hangs");
}
