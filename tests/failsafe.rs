//! Fail-safe behaviour: structured errors instead of panics, the pre-flight
//! validator, and the forward-progress watchdog.
//!
//! The canonical deadlock is a CTA whose barrier waits on a warp that can
//! never arrive — here, a warp whose trace ends without `Exit`. Pre-flight
//! validation rejects that trace in milliseconds; with validation disabled
//! (`.preflight(false)`), the watchdog catches it at runtime and returns
//! [`SimError::Deadlock`] with the culprit CTA named, plus an emergency
//! checkpoint that [`Simulation::resume`] accepts.

use crisp_sim::{GpuConfig, SimError, Simulation, WarpStall};
use crisp_trace::{
    CtaTrace, Instr, KernelTrace, MemAccess, Op, Reg, Space, Stream, StreamId, StreamKind,
    TraceBundle, TraceErrorKind, WarpTrace,
};

const S: StreamId = StreamId(0);

/// A CTA that deadlocks at runtime: warp 0 executes a barrier (then exits),
/// but warp 1's trace ends without `Exit`, so it never arrives and never
/// retires — the barrier can never release.
fn deadlock_bundle() -> TraceBundle {
    let mut barrier_warp = WarpTrace::new();
    barrier_warp.push(Instr::alu(Op::IntAlu, Reg(1), &[]));
    barrier_warp.push(Instr::bar());
    barrier_warp.seal();
    let mut truncated_warp = WarpTrace::new();
    truncated_warp.push(Instr::alu(Op::IntAlu, Reg(2), &[]));
    // No seal(): the trace ends without Exit.
    let k = KernelTrace::new(
        "wedged",
        64,
        8,
        0,
        vec![CtaTrace::new(vec![barrier_warp, truncated_warp])],
    );
    let mut s = Stream::new(S, StreamKind::Compute);
    s.launch(k);
    TraceBundle::from_streams(vec![s])
}

fn gpu() -> GpuConfig {
    let mut cfg = GpuConfig::test_tiny();
    cfg.n_sms = 4;
    cfg
}

/// A unique scratch directory under the system temp dir.
fn scratch(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("crisp-failsafe-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

#[test]
fn preflight_rejects_the_deadlocking_trace_in_milliseconds() {
    let err = Simulation::builder()
        .gpu(gpu())
        .trace(deadlock_bundle())
        .run()
        .expect_err("pre-flight must reject the unterminated warp");
    let SimError::InvalidTrace { errors } = &err else {
        panic!("expected InvalidTrace, got {err}");
    };
    assert!(
        errors
            .iter()
            .any(|e| e.kind == TraceErrorKind::UnterminatedWarp && e.site.warp == Some(1)),
        "the unterminated warp is named: {err}"
    );
    assert!(err.cycle().is_none(), "pre-flight errors have no cycle");
    assert!(err.to_string().contains("kernel 'wedged'"), "{err}");
}

#[test]
fn watchdog_names_the_culprit_cta() {
    let err = Simulation::builder()
        .gpu(gpu())
        .preflight(false)
        .watchdog(2_000)
        .trace(deadlock_bundle())
        .run()
        .expect_err("the wedged barrier must trip the watchdog");
    let SimError::Deadlock { window, ctx } = &err else {
        panic!("expected Deadlock, got {err}");
    };
    assert_eq!(*window, 2_000);
    assert_eq!(ctx.cycle, 2_001, "one window past the last progress");
    assert_eq!(ctx.report.culprits(), vec![(0, S, 0)], "culprit CTA named");
    assert!(
        ctx.report.sms[0]
            .warps
            .iter()
            .any(|w| w.stall == WarpStall::TraceExhausted),
        "per-warp stall cause surfaces the exhausted trace"
    );
    let rendered = err.to_string();
    assert!(rendered.contains("at barrier"), "{rendered}");
    assert!(rendered.contains("trace ended without Exit"), "{rendered}");
}

#[test]
fn deadlock_leaves_a_loadable_emergency_checkpoint() {
    let dir = scratch("emergency");
    let err = Simulation::builder()
        .gpu(gpu())
        .preflight(false)
        .watchdog(1_000)
        .checkpoint_to(&dir)
        .trace(deadlock_bundle())
        .run()
        .expect_err("deadlock");
    let SimError::Deadlock { ctx, .. } = &err else {
        panic!("expected Deadlock, got {err}");
    };
    let path = ctx
        .emergency_checkpoint
        .as_ref()
        .expect("an emergency checkpoint was written");
    assert!(path.starts_with(&dir));
    let resumed = Simulation::resume(path).expect("the emergency checkpoint must load");
    assert_eq!(
        resumed.now(),
        ctx.cycle,
        "the checkpoint captures the failure cycle"
    );
    assert!(
        err.to_string().contains("emergency checkpoint written"),
        "{err}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn watchdog_zero_disables_and_the_cycle_budget_still_catches_it() {
    let mut cfg = gpu();
    cfg.max_cycles = 5_000;
    let err = Simulation::builder()
        .gpu(cfg)
        .preflight(false)
        .watchdog(0)
        .trace(deadlock_bundle())
        .run()
        .expect_err("budget");
    let SimError::CycleBudgetExceeded { max_cycles, ctx } = &err else {
        panic!("expected CycleBudgetExceeded, got {err}");
    };
    assert_eq!(*max_cycles, 5_000);
    assert_eq!(ctx.cycle, 5_001, "the first cycle past the budget");
}

#[test]
fn worker_panic_is_caught_by_the_cycle_loop() {
    // A register past the scoreboard range panics inside Sm::cycle; the
    // cycle loop must catch it and return WorkerPanic instead of unwinding
    // out of run().
    let mut w = WarpTrace::new();
    w.push(Instr::alu(Op::IntAlu, Reg(300), &[]));
    w.seal();
    let k = KernelTrace::new("hot", 32, 8, 0, vec![CtaTrace::new(vec![w])]);
    let mut s = Stream::new(S, StreamKind::Compute);
    s.launch(k);
    let err = Simulation::builder()
        .gpu(gpu())
        .preflight(false)
        .trace(TraceBundle::from_streams(vec![s]))
        .run()
        .expect_err("the worker panic must surface as an error");
    let SimError::WorkerPanic { message, ctx } = &err else {
        panic!("expected WorkerPanic, got {err}");
    };
    assert!(
        message.contains("scoreboard"),
        "payload captured: {message}"
    );
    assert_eq!(ctx.report.sms.len(), 4, "every SM is in the report");
}

#[test]
fn preflight_cross_checks_config_against_the_gpu() {
    use crisp_sim::{PartitionSpec, ResourceQuota, SmPartition};
    use std::collections::HashMap;

    // Partitions this GPU cannot honour: an SM index it does not have, a
    // stream with no SMs, and two intra-SM quotas that each take a whole SM.
    let sm = gpu().sm;
    let whole_sm = ResourceQuota {
        threads: sm.max_threads,
        warps: sm.max_warps,
        regs: sm.max_regs,
        smem: sm.max_smem,
        ctas: 1,
    };
    let partitions = [
        (
            SmPartition::InterSm(HashMap::from([(S, vec![0, 9])])),
            "SM 9",
        ),
        (SmPartition::InterSm(HashMap::from([(S, vec![])])), "no SMs"),
        (
            SmPartition::IntraSm(HashMap::from([(S, whole_sm), (StreamId(1), whole_sm)])),
            "oversubscribe threads",
        ),
    ];
    for (sm, needle) in partitions {
        let err = Simulation::builder()
            .gpu(gpu())
            .partition(PartitionSpec {
                sm,
                l2: crisp_sim::L2Policy::Shared,
            })
            .trace(deadlock_bundle_valid())
            .run()
            .expect_err(needle);
        assert!(
            matches!(&err, SimError::InvalidConfig { message } if message.contains(needle)),
            "got {err}"
        );
    }

    // A kernel whose CTA can never be placed on this SM: rejected at
    // build whether or not pre-flight runs.
    let mut w = WarpTrace::new();
    w.push(Instr::alu(Op::IntAlu, Reg(1), &[]));
    w.seal();
    let hog = KernelTrace::new("hog", 64, 40_000, 0, vec![CtaTrace::new(vec![w; 2])]);
    let mut s = Stream::new(S, StreamKind::Compute);
    s.launch(hog);
    let hog = TraceBundle::from_streams(vec![s]);
    for preflight in [true, false] {
        let err = Simulation::builder()
            .gpu(gpu())
            .preflight(preflight)
            .trace(hog.clone())
            .run()
            .expect_err("unplaceable kernel");
        assert!(
            matches!(&err, SimError::InvalidConfig { message } if message.contains("hog")),
            "preflight {preflight}: got {err}"
        );
    }

    // A fast-forward marker that exists in no stream.
    let err = Simulation::builder()
        .gpu(gpu())
        .trace(deadlock_bundle_valid())
        .fast_forward_to("nonexistent")
        .run()
        .expect_err("missing marker");
    assert!(
        matches!(&err, SimError::InvalidConfig { message } if message.contains("nonexistent")),
        "got {err}"
    );

    // A checkpoint directory that is actually a file.
    let dir = scratch("not-a-dir");
    let file = dir.join("occupied");
    std::fs::write(&file, b"x").unwrap();
    let err = Simulation::builder()
        .gpu(gpu())
        .trace(deadlock_bundle_valid())
        .checkpoint_every(100)
        .checkpoint_to(&file)
        .run()
        .expect_err("unwritable checkpoint dir");
    assert!(
        matches!(&err, SimError::InvalidConfig { message } if message.contains("not writable")),
        "got {err}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A well-formed single-kernel bundle (the valid counterpart used by the
/// config cross-check tests).
fn deadlock_bundle_valid() -> TraceBundle {
    let mut w = WarpTrace::new();
    w.push(Instr::load(
        Reg(1),
        MemAccess::coalesced(Space::Global, crisp_trace::DataClass::Compute, 4, 0, 32),
    ));
    w.push(Instr::alu(Op::FpFma, Reg(2), &[Reg(1)]));
    w.seal();
    let k = KernelTrace::new("ok", 64, 8, 0, vec![CtaTrace::new(vec![w; 2]); 2]);
    let mut s = Stream::new(S, StreamKind::Compute);
    s.launch(k);
    TraceBundle::from_streams(vec![s])
}

#[test]
fn validator_rejects_malformed_memory_payloads_before_the_run() {
    let naked_load = Instr {
        op: Op::Ld(Space::Global),
        dst: Some(Reg(1)),
        srcs: [None; crisp_trace::MAX_SRCS],
        mem: None,
    };
    let mut w = WarpTrace::new();
    w.push(naked_load);
    w.seal();
    let k = KernelTrace::new("bad-mem", 32, 8, 0, vec![CtaTrace::new(vec![w])]);
    let mut s = Stream::new(S, StreamKind::Compute);
    s.launch(k);
    let err = Simulation::builder()
        .gpu(gpu())
        .trace(TraceBundle::from_streams(vec![s]))
        .run()
        .expect_err("missing payload");
    let SimError::InvalidTrace { errors } = &err else {
        panic!("expected InvalidTrace, got {err}");
    };
    assert!(errors
        .iter()
        .any(|e| e.kind == TraceErrorKind::MissingMemPayload));
}
