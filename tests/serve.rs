//! End-to-end tests for `crisp-serve`: multi-tenant scheduling, quota
//! enforcement, priority preemption with bit-identical resumed results,
//! generation-counter cancellation, and graceful shutdown with resumable
//! emergency checkpoints.
//!
//! Every daemon binds `127.0.0.1:0` (ephemeral port) and spools into a
//! unique scratch directory, so the tests run concurrently and repeatably.

use crisp_serve::{
    Client, ErrorCode, FailureClass, FaultPlan, FaultSpool, GpuPreset, JobSpec, JobState, Outcome,
    Payload, ServeConfig, Server, SpoolHandle,
};
use crisp_sim::{GpuConfig, Interrupt, SimError, Simulation};
use crisp_trace::{
    codec, CtaTrace, Instr, KernelTrace, Op, Reg, Stream, StreamId, StreamKind, TraceBundle,
    WarpTrace,
};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

const S: StreamId = StreamId(0);

/// A compute-bound bundle whose runtime scales with `ctas * instrs`:
/// the knob the tests use to make jobs long enough to preempt/cancel
/// mid-flight but quick to finish.
fn busy_bundle(ctas: usize, instrs: usize) -> TraceBundle {
    let ctas = (0..ctas)
        .map(|_| {
            let warps = (0..2)
                .map(|_| {
                    let mut w = WarpTrace::new();
                    for i in 0..instrs {
                        w.push(Instr::alu(Op::IntAlu, Reg((i % 16) as u16 + 1), &[]));
                    }
                    w.seal();
                    w
                })
                .collect();
            CtaTrace::new(warps)
        })
        .collect();
    let k = KernelTrace::new("busy", 64, 8, 0, ctas);
    let mut s = Stream::new(S, StreamKind::Compute);
    s.launch(k);
    TraceBundle::from_streams(vec![s])
}

/// A single-warp dependent-SFU chain: every instruction reads the
/// previous result, so each pays the full SFU latency. ~21 cycles per
/// instruction — a *long-running but tiny* trace (40k instrs ≈ 840k
/// cycles), giving the preemption/cancellation tests a seconds-wide
/// window to interrupt mid-flight.
fn slow_bundle(instrs: usize) -> TraceBundle {
    let mut w = WarpTrace::new();
    // Prologue: define both chain registers (models the parameter loads
    // real kernels start with — and keeps the admission lint green).
    w.push(Instr::alu(Op::IntAlu, Reg(1), &[]));
    w.push(Instr::alu(Op::IntAlu, Reg(2), &[]));
    for i in 0..instrs {
        let d = Reg((i % 2) as u16 + 1);
        let s = Reg(((i + 1) % 2) as u16 + 1);
        w.push(Instr::alu(Op::Sfu, d, &[s]));
    }
    w.seal();
    let k = KernelTrace::new("slow", 64, 8, 0, vec![CtaTrace::new(vec![w])]);
    let mut s = Stream::new(S, StreamKind::Compute);
    s.launch(k);
    TraceBundle::from_streams(vec![s])
}

fn bundle_bytes(bundle: &TraceBundle) -> Vec<u8> {
    let mut out = Vec::new();
    codec::write_bundle(bundle, &mut out).expect("encode bundle");
    out
}

fn spec(tenant: &str, name: &str, priority: u8, bytes: Vec<u8>) -> JobSpec {
    JobSpec {
        tenant: tenant.into(),
        name: name.into(),
        priority,
        payload: Payload::Trace(bytes),
        gpu: GpuPreset::TestTiny,
        max_cycles: 0,
        telemetry: true,
        deadline_ms: 0,
    }
}

/// A unique scratch directory under the system temp dir.
fn scratch(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("crisp-serve-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn config(tag: &str, workers: usize, slice: u64) -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers,
        slice_cycles: slice,
        spool: scratch(tag),
        ..ServeConfig::default()
    }
}

/// Poll until the job is `Running` with visible progress (or panic after
/// the deadline) — the precondition for mid-flight preemption/cancel.
fn wait_until_running(client: &mut Client, job: u64) -> u64 {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let s = client.status(job).expect("status");
        if s.state == JobState::Running && s.cycles > 0 {
            return s.cycles;
        }
        assert!(
            !s.state.terminal(),
            "job {job} ended ({}) before the test could interrupt it — \
             enlarge the workload",
            s.state
        );
        assert!(Instant::now() < deadline, "job {job} never started running");
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Run `spec` alone on a fresh single-worker daemon: the uninterrupted
/// baseline that preempted/resumed runs must match byte-for-byte.
fn baseline_outcome(tag: &str, job: &JobSpec) -> Outcome {
    let server = Server::start(config(tag, 1, 2_000)).expect("start baseline daemon");
    let mut client = Client::connect(server.addr()).expect("connect");
    let id = client.submit(job).expect("submit baseline");
    let status = client.wait(id, 120_000).expect("wait baseline");
    assert_eq!(status.state, JobState::Completed, "baseline must complete");
    let outcome = client.result(id).expect("baseline result");
    client.shutdown(false).expect("shutdown baseline");
    server.join();
    outcome
}

#[test]
fn concurrent_multi_tenant_submission_completes_every_job() {
    // 3 tenants × 3 jobs = 9 concurrent submissions over a 4-worker pool:
    // the ISSUE's "≥ 3 tenants, ≥ 8 concurrent jobs" floor.
    let server = Server::start(config("multi", 4, 2_000)).expect("start daemon");
    let addr = server.addr();
    let bytes = bundle_bytes(&busy_bundle(2, 300));

    let handles: Vec<_> = ["render", "compute", "batch"]
        .into_iter()
        .map(|tenant| {
            let bytes = bytes.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                let ids: Vec<u64> = (0..3)
                    .map(|i| {
                        client
                            .submit(&spec(tenant, &format!("{tenant}-{i}"), 1, bytes.clone()))
                            .expect("submit")
                    })
                    .collect();
                (tenant, ids)
            })
        })
        .collect();

    let mut client = Client::connect(addr).expect("connect");
    let mut all = Vec::new();
    for h in handles {
        let (tenant, ids) = h.join().expect("submitter thread");
        all.push((tenant, ids));
    }
    for (tenant, ids) in &all {
        for &id in ids {
            let s = client.wait(id, 120_000).expect("wait");
            assert_eq!(s.state, JobState::Completed, "{tenant} job {id}");
            let o = client.result(id).expect("result");
            assert!(o.cycles > 0 && o.instructions > 0, "{tenant} job {id}");
            assert!(!o.summary.is_empty(), "{tenant} job {id} has a summary");
        }
    }

    let json = client.metrics_json().expect("metrics");
    for tenant in ["render", "compute", "batch"] {
        assert!(
            json.contains(&format!(
                "{{\"name\":\"serve/completed\",\"labels\":{{\"tenant\":\"{tenant}\"}},\
                 \"type\":\"counter\",\"value\":3}}"
            )),
            "3 completions recorded for {tenant}: {json}"
        );
    }
    client.shutdown(false).expect("shutdown");
    server.join();
}

#[test]
fn per_tenant_quota_caps_concurrent_execution() {
    // 4 workers, but tenant "capped" may only run 1 job at a time. Its 4
    // jobs must serialize while tenant "free" fills the remaining workers.
    let mut cfg = config("quota", 4, 1_000);
    cfg.quotas = BTreeMap::from([("capped".to_string(), 1)]);
    let server = Server::start(cfg).expect("start daemon");
    let mut client = Client::connect(server.addr()).expect("connect");

    let bytes = bundle_bytes(&busy_bundle(2, 400));
    let capped: Vec<u64> = (0..4)
        .map(|i| {
            client
                .submit(&spec("capped", &format!("c{i}"), 1, bytes.clone()))
                .expect("submit capped")
        })
        .collect();
    let free: Vec<u64> = (0..3)
        .map(|i| {
            client
                .submit(&spec("free", &format!("f{i}"), 1, bytes.clone()))
                .expect("submit free")
        })
        .collect();

    for id in capped.iter().chain(&free) {
        let s = client.wait(*id, 120_000).expect("wait");
        assert_eq!(s.state, JobState::Completed, "job {id}");
    }

    // The high-water gauge is the enforcement witness: at no point did
    // two "capped" jobs run concurrently.
    let json = client.metrics_json().expect("metrics");
    assert!(
        json.contains(
            "{\"name\":\"serve/max_running\",\"labels\":{\"tenant\":\"capped\"},\
             \"type\":\"gauge\",\"value\":1.0}"
        ),
        "capped tenant never exceeded its quota of 1: {json}"
    );
    client.shutdown(false).expect("shutdown");
    server.join();
}

#[test]
fn priority_preemption_resumes_bit_identically() {
    // One worker: a low-priority job runs, a high-priority job arrives,
    // the low job parks via checkpoint, the high job runs to completion,
    // the low job resumes — and its final result must be byte-identical
    // to an uninterrupted run of the same spec.
    let low_spec = spec("batch", "long-low", 0, bundle_bytes(&slow_bundle(40_000)));
    let baseline = baseline_outcome("preempt-base", &low_spec);

    let server = Server::start(config("preempt", 1, 1_000)).expect("start daemon");
    let mut client = Client::connect(server.addr()).expect("connect");
    let low = client.submit(&low_spec).expect("submit low");
    wait_until_running(&mut client, low);
    let high = client
        .submit(&spec(
            "interactive",
            "urgent",
            10,
            bundle_bytes(&busy_bundle(1, 100)),
        ))
        .expect("submit high");

    let hs = client.wait(high, 120_000).expect("wait high");
    assert_eq!(hs.state, JobState::Completed, "high-priority job");
    let ls = client.wait(low, 120_000).expect("wait low");
    assert_eq!(ls.state, JobState::Completed, "preempted job completes");
    assert!(
        ls.preemptions >= 1,
        "the low-priority job was parked at least once (got {})",
        ls.preemptions
    );

    let resumed = client.result(low).expect("low result");
    assert_eq!(resumed.cycles, baseline.cycles, "cycle-exact resume");
    assert_eq!(
        resumed.instructions, baseline.instructions,
        "instruction-exact resume"
    );
    assert_eq!(resumed.summary, baseline.summary, "byte-identical summary");
    assert_eq!(
        resumed.metrics_csv, baseline.metrics_csv,
        "byte-identical telemetry export"
    );

    // The preemption round-trip was measured.
    let json = client.metrics_json().expect("metrics");
    assert!(
        json.contains("\"name\":\"serve/preemptions\"")
            && json.contains("\"name\":\"serve/resumes\"")
            && json.contains("\"name\":\"serve/preemption_rtt_us\""),
        "preemption telemetry recorded: {json}"
    );
    client.shutdown(false).expect("shutdown");
    server.join();
}

#[test]
fn cancellation_lands_within_one_interrupt_interval() {
    let server = Server::start(config("cancel", 1, 2_000)).expect("start daemon");
    let mut client = Client::connect(server.addr()).expect("connect");
    let job = client
        .submit(&spec(
            "batch",
            "doomed",
            1,
            bundle_bytes(&slow_bundle(40_000)),
        ))
        .expect("submit");
    let seen = wait_until_running(&mut client, job);

    let at_cancel = client.cancel(job).expect("cancel").cycles;
    let s = client.wait(job, 120_000).expect("wait");
    assert_eq!(s.state, JobState::Cancelled, "cooperative cancel");

    let o = client.result(job).expect("result");
    assert_eq!(o.state, JobState::Cancelled);
    assert!(
        o.error.contains("cancelled"),
        "outcome carries the cancellation diagnostic: {}",
        o.error
    );
    assert!(o.cycles >= seen, "progress is monotonic");
    // The generation bump is observed at the next interrupt-interval
    // boundary inside the current slice: the job must NOT have run to
    // completion, and must stop within (published progress + one slice +
    // one interrupt interval) cycles.
    let bound = at_cancel + 2_000 + crisp_sim::DEFAULT_INTERRUPT_INTERVAL;
    assert!(
        o.cycles <= bound,
        "cancel landed promptly: stopped at {} (bound {bound})",
        o.cycles
    );

    let json = client.metrics_json().expect("metrics");
    assert!(
        json.contains(
            "{\"name\":\"serve/cancelled\",\"labels\":{\"tenant\":\"batch\"},\
             \"type\":\"counter\",\"value\":1}"
        ),
        "the cancellation was counted once: {json}"
    );

    // A second cancel is a structured error, not a crash.
    let err = client.cancel(job).expect_err("double cancel must fail");
    assert_eq!(err.code(), Some(ErrorCode::AlreadyTerminal), "{err}");

    // The daemon is still fully alive afterwards.
    let ok = client
        .submit(&spec(
            "batch",
            "after",
            1,
            bundle_bytes(&busy_bundle(1, 50)),
        ))
        .expect("submit after cancel");
    assert_eq!(
        client.wait(ok, 120_000).expect("wait").state,
        JobState::Completed
    );
    client.shutdown(false).expect("shutdown");
    server.join();
}

#[test]
fn graceful_shutdown_parks_jobs_and_a_restarted_daemon_resumes_them() {
    let job_spec = spec("batch", "survivor", 1, bundle_bytes(&slow_bundle(40_000)));
    let baseline = baseline_outcome("restart-base", &job_spec);

    let spool = scratch("restart");
    let mut cfg = config("restart-a", 1, 1_000);
    cfg.spool = spool.clone();
    let server = Server::start(cfg).expect("start daemon A");
    let mut client = Client::connect(server.addr()).expect("connect A");
    let job = client.submit(&job_spec).expect("submit");
    wait_until_running(&mut client, job);

    // Drain: the running job parks via an emergency checkpoint and the
    // queue is persisted before the daemon acknowledges.
    client.shutdown(true).expect("graceful shutdown");
    server.join();
    assert!(
        spool.join("manifest.bin").exists(),
        "the drained queue was persisted"
    );
    let checkpoints = std::fs::read_dir(&spool)
        .expect("read spool")
        .filter_map(Result::ok)
        .filter(|e| e.path().extension().is_some_and(|x| x == "ckpt"))
        .count();
    assert!(checkpoints >= 1, "an emergency checkpoint was written");

    // A new daemon over the same spool recovers and finishes the job.
    let mut cfg = config("restart-b", 1, 1_000);
    cfg.spool = spool.clone();
    let server = Server::start(cfg).expect("start daemon B");
    let mut client = Client::connect(server.addr()).expect("connect B");
    assert!(
        !spool.join("manifest.bin").exists(),
        "the manifest is consumed on recovery"
    );
    let listed = client.jobs().expect("jobs");
    assert!(
        listed.iter().any(|s| s.job == job),
        "the parked job survived the restart: {listed:?}"
    );
    let s = client.wait(job, 120_000).expect("wait resumed");
    assert_eq!(s.state, JobState::Completed, "resumed to completion");

    let resumed = client.result(job).expect("resumed result");
    assert_eq!(resumed.cycles, baseline.cycles, "cycle-exact resume");
    assert_eq!(resumed.summary, baseline.summary, "byte-identical summary");
    assert_eq!(
        resumed.metrics_csv, baseline.metrics_csv,
        "byte-identical telemetry export"
    );
    client.shutdown(false).expect("shutdown B");
    server.join();
}

#[test]
fn admission_rejects_invalid_traces_and_unknown_scenes() {
    let server = Server::start(config("admission", 1, 2_000)).expect("start daemon");
    let mut client = Client::connect(server.addr()).expect("connect");

    // Garbage container bytes.
    let err = client
        .submit(&spec("batch", "garbage", 1, vec![0xDE, 0xAD, 0xBE, 0xEF]))
        .expect_err("garbage must be rejected");
    assert_eq!(err.code(), Some(ErrorCode::Rejected), "{err}");

    // A structurally-valid container that fails validation (unterminated
    // warp — the canonical deadlock trace).
    let mut wedged = WarpTrace::new();
    wedged.push(Instr::alu(Op::IntAlu, Reg(1), &[]));
    // No seal(): the trace ends without Exit.
    let k = KernelTrace::new("wedged", 64, 8, 0, vec![CtaTrace::new(vec![wedged])]);
    let mut s = Stream::new(S, StreamKind::Compute);
    s.launch(k);
    let err = client
        .submit(&spec(
            "batch",
            "wedged",
            1,
            bundle_bytes(&TraceBundle::from_streams(vec![s])),
        ))
        .expect_err("the deadlocking trace must fail admission");
    assert_eq!(err.code(), Some(ErrorCode::Rejected), "{err}");

    // Unknown scene kind.
    let err = client
        .submit(&JobSpec {
            payload: Payload::Scene {
                kind: "nope".into(),
                factor_milli: 1000,
            },
            ..spec("batch", "scene", 1, Vec::new())
        })
        .expect_err("unknown scenes must be rejected");
    assert_eq!(err.code(), Some(ErrorCode::Rejected), "{err}");

    // Rejections didn't hurt the daemon: a scene job still completes.
    let ok = client
        .submit(&JobSpec {
            payload: Payload::Scene {
                kind: "vio".into(),
                factor_milli: 150,
            },
            telemetry: false,
            ..spec("batch", "vio", 1, Vec::new())
        })
        .expect("submit scene");
    assert_eq!(
        client.wait(ok, 120_000).expect("wait").state,
        JobState::Completed
    );
    client.shutdown(false).expect("shutdown");
    server.join();
}

#[test]
fn frame_faults_get_typed_replies_and_the_daemon_stays_live() {
    use crisp_serve::{proto, Response, MAX_FRAME};
    use std::io::Write as _;
    let server = Server::start(config("frames", 1, 2_000)).expect("start daemon");
    let mut malformed = Vec::new();
    proto::write_frame(&mut malformed, 0x7F, b"not-a-request").expect("frame");
    // Each fault on a fresh connection, with the typed reply it must get;
    // `None` promises a 1000-byte frame, sends 10 bytes and vanishes.
    let faults = [
        ("malformed", malformed, Some(ErrorCode::Malformed)),
        (
            "oversized",
            (MAX_FRAME + 1).to_le_bytes().to_vec(),
            Some(ErrorCode::Oversized),
        ),
        (
            "mid-stream disconnect",
            [&1000u32.to_le_bytes()[..], &[0x55; 10]].concat(),
            None,
        ),
    ];
    for (what, bytes, want) in faults {
        let mut conn = std::net::TcpStream::connect(server.addr()).expect("connect");
        conn.write_all(&bytes).expect(what);
        let Some(want) = want else { continue };
        let (kind, payload) =
            proto::read_frame(&mut conn).unwrap_or_else(|e| panic!("{what}: no reply: {e}"));
        match Response::decode(kind, &payload) {
            Ok(Response::Error { code, .. }) => assert_eq!(code, want, "{what}"),
            other => panic!("{what}: wanted {want:?}, got {other:?}"),
        }
    }

    let mut client = Client::connect(server.addr()).expect("connect");
    let json = client.metrics_json().expect("metrics");
    assert!(
        json.contains(
            "{\"name\":\"serve/proto_errors\",\"labels\":{},\
             \"type\":\"counter\",\"value\":2}"
        ),
        "the malformed and oversized frames were counted: {json}"
    );
    let probe = client
        .submit(&spec(
            "batch",
            "probe",
            1,
            bundle_bytes(&busy_bundle(1, 50)),
        ))
        .expect("submit probe");
    assert_eq!(
        client.wait(probe, 120_000).expect("wait probe").state,
        JobState::Completed,
        "daemon is live after the frame faults"
    );
    client.shutdown(false).expect("shutdown");
    server.join();
}

#[test]
fn unplaceable_kernel_is_refused_at_admission() {
    // Admission runs the build's placement check, so a kernel that can
    // never fit the preset's SM is refused at submit: it takes no job id,
    // no queue slot and no worker, and does not count toward the breaker.
    let mut cfg = config("unplaceable", 1, 2_000);
    cfg.breaker_threshold = 1;
    let server = Server::start(cfg).expect("start daemon");
    let mut client = Client::connect(server.addr()).expect("connect");
    let mut w = WarpTrace::new();
    w.push(Instr::alu(Op::IntAlu, Reg(1), &[]));
    w.seal();
    let mut s = Stream::new(S, StreamKind::Compute);
    s.launch(KernelTrace::new(
        "hog",
        64,
        40_000,
        0,
        vec![CtaTrace::new(vec![w; 2])],
    ));
    let bytes = bundle_bytes(&TraceBundle::from_streams(vec![s]));
    let err = client
        .submit(&spec("batch", "hog", 1, bytes))
        .expect_err("an unplaceable kernel is refused");
    assert_eq!(err.code(), Some(ErrorCode::Rejected), "{err}");
    assert!(
        err.to_string().contains("'hog'"),
        "the kernel is named: {err}"
    );
    let json = client.metrics_json().expect("metrics");
    assert!(
        json.contains(
            "{\"name\":\"serve/queue_depth\",\"labels\":{},\
             \"type\":\"gauge\",\"value\":0.0}"
        ) && json.contains(
            "{\"name\":\"serve/rejected\",\
             \"labels\":{\"reason\":\"admission\",\"tenant\":\"batch\"},\
             \"type\":\"counter\",\"value\":1}"
        ),
        "refused at admission, nothing queued: {json}"
    );
    let next = client
        .submit(&spec("batch", "next", 1, bundle_bytes(&busy_bundle(1, 50))))
        .expect("a refusal does not open the tenant's breaker");
    assert_eq!(next, 1, "the refused submission took no job id");
    assert_eq!(
        client.wait(next, 120_000).expect("wait").state,
        JobState::Completed
    );
    let json = client.metrics_json().expect("metrics");
    assert!(
        json.contains(
            "{\"name\":\"serve/worker_respawns\",\"labels\":{},\
             \"type\":\"counter\",\"value\":0}"
        ),
        "no worker panicked: {json}"
    );
    client.shutdown(false).expect("shutdown");
    server.join();
}

// --------------------------------------------------------------------------
// Satellite: a cancel that lands while the simulation is stalled must
// surface as SimError::Cancelled — never misreported as the watchdog's
// Deadlock or a budget violation.

/// Warp 0 waits at a barrier warp 1 never reaches (its trace ends without
/// `Exit`): the canonical runtime deadlock from tests/failsafe.rs.
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

#[test]
fn cancel_while_stalled_returns_cancelled_not_deadlock() {
    // Watchdog 2_000: without the cancel this run ends in Deadlock (see
    // tests/failsafe.rs). Advance past the wedge point, bump the
    // generation, and the next interrupt-interval boundary must report
    // Cancelled.
    let mut sim = Simulation::builder()
        .gpu(GpuConfig::test_tiny())
        .preflight(false)
        .watchdog(2_000)
        .trace(deadlock_bundle())
        .try_build()
        .expect("build");
    let handle = Interrupt::new();
    sim.set_interrupt(handle.clone(), handle.generation());

    // The sim is now live and (shortly) wedged at the barrier.
    assert!(
        matches!(sim.run_until(700), Ok(false)),
        "still stalled, no verdict yet"
    );
    handle.bump();

    let err = sim
        .run()
        .expect_err("the bumped generation must stop the run");
    let SimError::Cancelled { generation, ctx } = &err else {
        panic!("expected SimError::Cancelled while stalled, got {err}");
    };
    assert_eq!(*generation, 1, "the observed generation is the bumped one");
    assert!(
        ctx.cycle >= 700 && ctx.cycle <= 2_048,
        "observed at the next interval boundary, before the watchdog: {}",
        ctx.cycle
    );
    assert!(err.to_string().contains("cancelled"), "{err}");
    assert!(
        ctx.partial.cycles > 0,
        "partial stats up to the cancel are attached"
    );
}

// --------------------------------------------------------------------------
// Supervision layer (DESIGN.md §2.4.9): worker death, deadlines, ENOSPC
// degradation, circuit breakers, and corrupt-spool recovery.

/// Poll until the job is `Running` with at least `min_cycles` of visible
/// progress — the precondition for killing a worker only after periodic
/// retry checkpoints exist.
fn wait_until_cycles(client: &mut Client, job: u64, min_cycles: u64) {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let s = client.status(job).expect("status");
        if s.state == JobState::Running && s.cycles >= min_cycles {
            return;
        }
        assert!(
            !s.state.terminal(),
            "job {job} ended ({}) before reaching {min_cycles} cycles",
            s.state
        );
        assert!(
            Instant::now() < deadline,
            "job {job} never reached {min_cycles} cycles"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn worker_kill_mid_job_retries_from_checkpoint_bit_identically() {
    // The ISSUE's e2e acceptance: kill the worker thread mid-job (panic at
    // a slice boundary), and the job must come back as Completed after an
    // automatic retry from its last periodic checkpoint, with an Outcome
    // bit-identical to an undisturbed run.
    let job_spec = spec("batch", "victim", 1, bundle_bytes(&slow_bundle(40_000)));
    let baseline = baseline_outcome("kill-base", &job_spec);

    let plan = FaultPlan::new();
    let mut cfg = config("kill", 1, 2_000);
    cfg.checkpoint_every_slices = 5;
    cfg.max_retries = 3;
    cfg.retry_backoff_ms = 10;
    cfg.faults = plan.clone();
    let server = Server::start(cfg).expect("start daemon");
    let mut client = Client::connect(server.addr()).expect("connect");

    let job = client.submit(&job_spec).expect("submit victim");
    // Let several periodic checkpoints land, *then* arm the kill: the
    // retry must resume from a checkpoint, not restart from scratch.
    wait_until_cycles(&mut client, job, 30_000);
    plan.kill_worker_when("victim", 1);

    let s = client.wait(job, 120_000).expect("wait victim");
    assert_eq!(s.state, JobState::Completed, "retried to completion");
    assert!(
        s.retries >= 1,
        "the kill forced at least one retry (got {})",
        s.retries
    );
    assert_eq!(plan.kills_fired(), 1, "the fault plan fired exactly once");

    let retried = client.result(job).expect("victim result");
    assert!(retried.retries >= 1, "outcome records the retry");
    assert_eq!(retried.failure, None, "a retried success is not a failure");
    assert_eq!(retried.cycles, baseline.cycles, "cycle-exact retry");
    assert_eq!(
        retried.instructions, baseline.instructions,
        "instruction-exact retry"
    );
    assert_eq!(retried.summary, baseline.summary, "byte-identical summary");
    assert_eq!(
        retried.metrics_csv, baseline.metrics_csv,
        "byte-identical telemetry export"
    );

    // The dead worker was replaced and the daemon still takes work.
    let json = client.metrics_json().expect("metrics");
    assert!(
        json.contains(
            "{\"name\":\"serve/worker_respawns\",\"labels\":{},\
             \"type\":\"counter\",\"value\":1}"
        ),
        "the panicked worker was respawned: {json}"
    );
    assert!(
        json.contains("\"name\":\"serve/job_retries\""),
        "the retry was counted: {json}"
    );
    let probe = client
        .submit(&spec(
            "batch",
            "probe",
            1,
            bundle_bytes(&busy_bundle(1, 50)),
        ))
        .expect("submit probe");
    assert_eq!(
        client.wait(probe, 120_000).expect("wait probe").state,
        JobState::Completed,
        "daemon is live after the worker death"
    );
    client.shutdown(false).expect("shutdown");
    server.join();
}

#[test]
fn deadline_exceeded_fails_permanently_and_daemon_stays_live() {
    let server = Server::start(config("deadline", 1, 1_000)).expect("start daemon");
    let mut client = Client::connect(server.addr()).expect("connect");

    // A job that runs for seconds with a 300 ms wall-clock budget.
    let mut runaway = spec("batch", "runaway", 1, bundle_bytes(&slow_bundle(120_000)));
    runaway.deadline_ms = 300;
    let job = client.submit(&runaway).expect("submit runaway");
    let s = client.wait(job, 120_000).expect("wait runaway");
    assert_eq!(s.state, JobState::Failed, "deadline kills the job");

    let o = client.result(job).expect("runaway result");
    assert!(
        o.error.contains("deadline"),
        "outcome names the deadline: {}",
        o.error
    );
    assert_eq!(
        o.failure,
        Some(FailureClass::Permanent),
        "a blown deadline is permanent — no retry loop"
    );

    let json = client.metrics_json().expect("metrics");
    assert!(
        json.contains(
            "{\"name\":\"serve/deadline_exceeded\",\"labels\":{\"tenant\":\"batch\"},\
             \"type\":\"counter\",\"value\":1}"
        ),
        "the deadline expiry was counted: {json}"
    );

    // Same tenant, no deadline: still admitted and completes.
    let probe = client
        .submit(&spec(
            "batch",
            "probe",
            1,
            bundle_bytes(&busy_bundle(1, 50)),
        ))
        .expect("submit probe");
    assert_eq!(
        client.wait(probe, 120_000).expect("wait probe").state,
        JobState::Completed,
        "daemon is live after the deadline kill"
    );
    client.shutdown(false).expect("shutdown");
    server.join();
}

#[test]
fn enospc_degrades_to_in_memory_and_declines_parks() {
    // All spool writes fail with ENOSPC. A preemption request must not
    // kill the victim: the park is declined, the daemon degrades to
    // in-memory-only operation, and *both* jobs still complete.
    let fault_spool = FaultSpool::new();
    let plan_victim = spec("batch", "victim", 0, bundle_bytes(&slow_bundle(40_000)));
    let mut cfg = config("enospc", 1, 1_000);
    cfg.spool_io = SpoolHandle::new(fault_spool.clone());
    let server = Server::start(cfg).expect("start daemon");
    let mut client = Client::connect(server.addr()).expect("connect");

    let low = client.submit(&plan_victim).expect("submit victim");
    wait_until_running(&mut client, low);
    fault_spool.fail_all_writes();

    let high = client
        .submit(&spec(
            "interactive",
            "urgent",
            10,
            bundle_bytes(&busy_bundle(1, 100)),
        ))
        .expect("submit high");
    let hs = client.wait(high, 120_000).expect("wait high");
    assert_eq!(hs.state, JobState::Completed, "high-priority job");
    let ls = client.wait(low, 120_000).expect("wait low");
    assert_eq!(
        ls.state,
        JobState::Completed,
        "the un-checkpointable victim ran to completion in memory"
    );
    assert_eq!(
        ls.preemptions, 0,
        "the park was declined, not forced without a checkpoint"
    );

    // The daemon reports the degradation and still answers everything.
    let json = client.metrics_json().expect("metrics");
    assert!(
        json.contains(
            "{\"name\":\"serve/spool_degraded\",\"labels\":{},\
             \"type\":\"gauge\",\"value\":1.0}"
        ),
        "ENOSPC flipped the degradation gauge: {json}"
    );
    fault_spool.heal();
    client.shutdown(false).expect("shutdown");
    server.join();
}

#[test]
fn circuit_breaker_sheds_a_failing_tenant_then_recovers() {
    let mut cfg = config("breaker", 1, 1_000);
    cfg.breaker_threshold = 2;
    cfg.breaker_cooldown_ms = 400;
    let server = Server::start(cfg).expect("start daemon");
    let mut client = Client::connect(server.addr()).expect("connect");

    // Two consecutive *permanent* failures: a 10-cycle budget is blown
    // immediately and CycleBudgetExceeded classifies as permanent.
    for i in 0..2 {
        let mut bad = spec(
            "flaky",
            &format!("doomed-{i}"),
            1,
            bundle_bytes(&busy_bundle(1, 200)),
        );
        bad.max_cycles = 10;
        let job = client.submit(&bad).expect("submit doomed");
        let s = client.wait(job, 120_000).expect("wait doomed");
        assert_eq!(s.state, JobState::Failed, "doomed job {i} fails");
        let o = client.result(job).expect("doomed result");
        assert_eq!(o.failure, Some(FailureClass::Permanent), "doomed job {i}");
    }

    // The breaker is now open: admission refuses with a distinct code.
    let err = client
        .submit(&spec("flaky", "shed", 1, bundle_bytes(&busy_bundle(1, 50))))
        .expect_err("the open breaker must shed the submission");
    assert_eq!(err.code(), Some(ErrorCode::BreakerOpen), "{err}");

    // Other tenants are unaffected.
    let other = client
        .submit(&spec(
            "steady",
            "fine",
            1,
            bundle_bytes(&busy_bundle(1, 50)),
        ))
        .expect("other tenant admitted");
    assert_eq!(
        client.wait(other, 120_000).expect("wait other").state,
        JobState::Completed
    );
    let json = client.metrics_json().expect("metrics");
    assert!(
        json.contains(
            "{\"name\":\"serve/breaker_trips\",\"labels\":{\"tenant\":\"flaky\"},\
             \"type\":\"counter\",\"value\":1}"
        ),
        "the trip was counted once: {json}"
    );

    // After the cooldown, a half-open probe is admitted — and its success
    // closes the breaker for good.
    std::thread::sleep(Duration::from_millis(600));
    let probe = client
        .submit(&spec(
            "flaky",
            "probe",
            1,
            bundle_bytes(&busy_bundle(1, 50)),
        ))
        .expect("half-open probe admitted after cooldown");
    assert_eq!(
        client.wait(probe, 120_000).expect("wait probe").state,
        JobState::Completed
    );
    let again = client
        .submit(&spec(
            "flaky",
            "again",
            1,
            bundle_bytes(&busy_bundle(1, 50)),
        ))
        .expect("breaker closed after the probe succeeded");
    assert_eq!(
        client.wait(again, 120_000).expect("wait again").state,
        JobState::Completed
    );
    client.shutdown(false).expect("shutdown");
    server.join();
}

#[test]
fn corrupt_spool_manifests_are_quarantined_not_trusted() {
    // Produce a genuine manifest: drain a daemon with a parked job.
    let spool = scratch("spoolrec");
    let mut cfg = config("spoolrec-a", 1, 1_000);
    cfg.spool = spool.clone();
    let server = Server::start(cfg).expect("start daemon");
    let mut client = Client::connect(server.addr()).expect("connect");
    let job = client
        .submit(&spec(
            "batch",
            "survivor",
            1,
            bundle_bytes(&slow_bundle(40_000)),
        ))
        .expect("submit");
    wait_until_running(&mut client, job);
    client.shutdown(true).expect("drain shutdown");
    server.join();
    let manifest = std::fs::read(spool.join("manifest.bin")).expect("read manifest");

    let corruptions: [(&str, Vec<u8>); 3] = [
        ("zero-length", Vec::new()),
        ("bit-flip", {
            let mut b = manifest.clone();
            let at = b.len() - 3; // inside the checksummed payload
            b[at] ^= 0x01;
            b
        }),
        ("truncated", manifest[..manifest.len() / 2].to_vec()),
    ];
    for (kind, bytes) in corruptions {
        let dir = scratch(&format!("spoolrec-{kind}"));
        std::fs::write(dir.join("manifest.bin"), &bytes).expect("plant corrupt manifest");
        let mut cfg = config(&format!("spoolrec-{kind}-cfg"), 1, 1_000);
        cfg.spool = dir.clone();
        let server =
            Server::start(cfg).unwrap_or_else(|e| panic!("{kind}: daemon refused to start: {e}"));
        let mut client = Client::connect(server.addr()).expect("connect");

        assert!(
            client.jobs().expect("jobs").is_empty(),
            "{kind}: no jobs resurrected from a corrupt manifest"
        );
        let quarantined = std::fs::read_dir(&dir)
            .expect("read spool dir")
            .filter_map(Result::ok)
            .any(|e| e.file_name().to_string_lossy().contains("quarantined"));
        assert!(quarantined, "{kind}: the corrupt manifest was moved aside");
        assert!(
            !dir.join("manifest.bin").exists(),
            "{kind}: the corrupt manifest no longer occupies the live path"
        );

        // The daemon still admits and completes work.
        let probe = client
            .submit(&spec(
                "batch",
                "probe",
                1,
                bundle_bytes(&busy_bundle(1, 50)),
            ))
            .unwrap_or_else(|e| panic!("{kind}: submit after quarantine: {e}"));
        assert_eq!(
            client.wait(probe, 120_000).expect("wait probe").state,
            JobState::Completed,
            "{kind}: daemon is live after quarantining"
        );
        let json = client.metrics_json().expect("metrics");
        assert!(
            json.contains("\"name\":\"serve/spool_errors\""),
            "{kind}: the quarantine was counted: {json}"
        );
        client.shutdown(false).expect("shutdown");
        server.join();
        let _ = std::fs::remove_dir_all(&dir);
    }
    let _ = std::fs::remove_dir_all(&spool);
}

#[test]
fn pending_cancel_takes_precedence_over_the_watchdog() {
    // Watchdog 500 fires *before* the first interrupt-interval boundary
    // (1024). A cancel that is already pending when the stall window
    // elapses must still win: the run reports Cancelled, not Deadlock.
    let mut sim = Simulation::builder()
        .gpu(GpuConfig::test_tiny())
        .preflight(false)
        .watchdog(500)
        .trace(deadlock_bundle())
        .try_build()
        .expect("build");
    let handle = Interrupt::new();
    sim.set_interrupt(handle.clone(), handle.generation());

    assert!(
        matches!(sim.run_until(300), Ok(false)),
        "before the stall window"
    );
    handle.bump();

    let err = sim.run().expect_err("the run must stop");
    assert!(
        matches!(err, SimError::Cancelled { .. }),
        "a pending cancel beats the watchdog verdict, got {err}"
    );
}

// --------------------------------------------------------------------------
// Static analysis at admission (DESIGN.md §2.4.10): the CFG barrier
// prover clears jobs before they burn cycles — a trace the runtime
// watchdog would only catch after its whole stall window is rejected in
// the submit reply, with the culprit CTA named.

/// Two sealed warps with equal barrier totals — the structural validator
/// passes — parked at *different* named slots: under any schedule neither
/// slot can reach the CTA's live-warp quorum, so the runtime wedges.
fn split_barrier_bundle() -> TraceBundle {
    let mut a = WarpTrace::new();
    a.push(Instr::alu(Op::IntAlu, Reg(1), &[]));
    a.push(Instr::bar_at(0));
    a.seal();
    let mut b = WarpTrace::new();
    b.push(Instr::alu(Op::IntAlu, Reg(2), &[]));
    b.push(Instr::bar_at(1));
    b.seal();
    let k = KernelTrace::new("split", 64, 8, 0, vec![CtaTrace::new(vec![a, b])]);
    let mut s = Stream::new(S, StreamKind::Compute);
    s.launch(k);
    TraceBundle::from_streams(vec![s])
}

#[test]
fn barrier_divergence_is_rejected_at_submit_not_by_the_watchdog() {
    // The daemon's admission lint carries the prover's verdict in the
    // wire reply: code, kernel, CTA, and the divergent slots.
    let server = Server::start(config("prover", 1, 2_000)).expect("start daemon");
    let mut client = Client::connect(server.addr()).expect("connect");
    let err = client
        .submit(&spec(
            "batch",
            "divergent",
            1,
            bundle_bytes(&split_barrier_bundle()),
        ))
        .expect_err("the provable deadlock must fail admission");
    assert_eq!(err.code(), Some(ErrorCode::Rejected), "{err}");
    let msg = err.to_string();
    assert!(msg.contains("cfg/barrier-divergence"), "{msg}");
    assert!(
        msg.contains("kernel 'split' cta 0"),
        "the culprit CTA is named at submit: {msg}"
    );
    assert!(msg.contains("provable barrier deadlock"), "{msg}");

    // The rejection cost no simulation: the daemon still takes work.
    let ok = client
        .submit(&spec("batch", "fine", 1, bundle_bytes(&busy_bundle(1, 50))))
        .expect("submit after rejection");
    assert_eq!(
        client.wait(ok, 120_000).expect("wait").state,
        JobState::Completed
    );
    client.shutdown(false).expect("shutdown");
    server.join();

    // With analysis disabled, the *same* bundle wedges at runtime until
    // the watchdog fires — and the DeadlockReport names the same CTA the
    // prover did, only after burning the whole stall window.
    let err = Simulation::builder()
        .gpu(GpuConfig::test_tiny())
        .preflight(false)
        .watchdog(2_000)
        .trace(split_barrier_bundle())
        .run()
        .expect_err("the wedge must trip the watchdog");
    let SimError::Deadlock { ctx, .. } = &err else {
        panic!("expected Deadlock, got {err}");
    };
    assert_eq!(
        ctx.report.culprits(),
        vec![(0, S, 0)],
        "the watchdog names the same CTA the prover rejected\n{}",
        ctx.report
    );
    assert!(
        ctx.report.to_string().contains("different barrier slots"),
        "{}",
        ctx.report
    );
}

// --------------------------------------------------------------------------
// Satellite: ENOSPC degradation is no longer sticky for the daemon's
// lifetime — a cooldown-gated probe write un-degrades the spool once the
// disk returns.

#[test]
fn spool_recovers_after_enospc_heals() {
    let fault_spool = FaultSpool::new();
    let mut cfg = config("spool-recover", 1, 1_000);
    cfg.spool_io = SpoolHandle::new(fault_spool.clone());
    cfg.spool_probe_ms = 50;
    let server = Server::start(cfg).expect("start daemon");
    let mut client = Client::connect(server.addr()).expect("connect");

    // Phase 1: full disk — the park is declined and the daemon degrades
    // (the same guarantees enospc_degrades_to_in_memory_and_declines_parks
    // locks down).
    let low = client
        .submit(&spec(
            "batch",
            "victim-a",
            0,
            bundle_bytes(&slow_bundle(40_000)),
        ))
        .expect("submit victim-a");
    wait_until_running(&mut client, low);
    fault_spool.fail_all_writes();
    let high = client
        .submit(&spec(
            "interactive",
            "urgent-a",
            10,
            bundle_bytes(&busy_bundle(1, 100)),
        ))
        .expect("submit urgent-a");
    assert_eq!(
        client.wait(high, 120_000).expect("wait urgent-a").state,
        JobState::Completed
    );
    let ls = client.wait(low, 120_000).expect("wait victim-a");
    assert_eq!(ls.state, JobState::Completed);
    assert_eq!(ls.preemptions, 0, "the park was declined while degraded");
    let json = client.metrics_json().expect("metrics");
    assert!(
        json.contains(
            "{\"name\":\"serve/spool_degraded\",\"labels\":{},\
             \"type\":\"gauge\",\"value\":1.0}"
        ),
        "ENOSPC flipped the degradation gauge: {json}"
    );

    // Phase 2: the disk returns. The next park attempt probes the spool,
    // un-degrades, and the preemption goes through a real checkpoint.
    fault_spool.heal();
    std::thread::sleep(Duration::from_millis(60)); // past the probe cooldown
    let low2 = client
        .submit(&spec(
            "batch",
            "victim-b",
            0,
            bundle_bytes(&slow_bundle(40_000)),
        ))
        .expect("submit victim-b");
    wait_until_running(&mut client, low2);
    let high2 = client
        .submit(&spec(
            "interactive",
            "urgent-b",
            10,
            bundle_bytes(&busy_bundle(1, 100)),
        ))
        .expect("submit urgent-b");
    assert_eq!(
        client.wait(high2, 120_000).expect("wait urgent-b").state,
        JobState::Completed
    );
    let ls2 = client.wait(low2, 120_000).expect("wait victim-b");
    assert_eq!(ls2.state, JobState::Completed);
    assert!(
        ls2.preemptions >= 1,
        "parking works again after the spool recovered (got {})",
        ls2.preemptions
    );

    let json = client.metrics_json().expect("metrics");
    assert!(
        json.contains(
            "{\"name\":\"serve/spool_degraded\",\"labels\":{},\
             \"type\":\"gauge\",\"value\":0.0}"
        ),
        "the probe cleared the degradation gauge: {json}"
    );
    assert!(
        json.contains(
            "{\"name\":\"serve/spool_recoveries\",\"labels\":{},\
             \"type\":\"counter\",\"value\":1}"
        ),
        "exactly one recovery was counted: {json}"
    );
    client.shutdown(false).expect("shutdown");
    server.join();
}

// --------------------------------------------------------------------------
// Chaos mix: every supervision fault class in one session. The nightly
// `serve-soak` CI job loops this test for several minutes; the seed and
// the job count are fixed, so a failing run replays the same decisions.

/// Sum one counter over every label set of a `metrics_json` export.
fn counter_sum(json: &str, metric: &str) -> u64 {
    json.match_indices(&format!("{{\"name\":\"{metric}\","))
        .map(|(at, _)| {
            let entry = &json[at..];
            let value = entry.find("\"value\":").expect("counter value") + "\"value\":".len();
            let digits: String = entry[value..]
                .chars()
                .take_while(char::is_ascii_digit)
                .collect();
            digits.parse::<u64>().expect("integral counter")
        })
        .sum()
}

/// Move every terminal job from `live` to `done`, failing on a job that
/// is reported terminal twice.
fn reap(client: &mut Client, live: &mut Vec<u64>, done: &mut BTreeMap<u64, JobState>) {
    live.retain(|&id| {
        let state = client.status(id).expect("status").state;
        if !state.terminal() {
            return true;
        }
        assert!(
            done.insert(id, state).is_none(),
            "job {id} reported terminal twice"
        );
        false
    });
}

#[test]
fn chaos_mix_loses_and_duplicates_no_job() {
    // 40 jobs, at most 8 in flight, over two workers: long batch jobs
    // (some armed with a one-shot worker kill), busy compute traces and
    // priority-10 scenes that force parks, plus random mid-flight cancels
    // and an ENOSPC burst two thirds of the way in. No job may be lost or
    // reach two terminal states, and the daemon's counters must agree.
    const JOBS: u64 = 40;
    const IN_FLIGHT: usize = 8;
    let fault_spool = FaultSpool::new();
    let plan = FaultPlan::new();
    let mut cfg = config("chaos", 2, 2_000);
    // Fine-grained retry checkpoints and a fast backoff: a killed worker
    // costs milliseconds.
    cfg.checkpoint_every_slices = 2;
    cfg.max_retries = 4;
    cfg.retry_backoff_ms = 20;
    // The breaker would only turn injected faults into admission refusals.
    cfg.breaker_threshold = 0;
    cfg.spool_io = SpoolHandle::new(fault_spool.clone());
    cfg.faults = plan.clone();
    let server = Server::start(cfg).expect("start daemon");
    let mut client = Client::connect(server.addr()).expect("connect");

    let slow = bundle_bytes(&slow_bundle(10_000));
    let busy = bundle_bytes(&busy_bundle(2, 400));
    // 64-bit LCG, upper bits.
    let mut lcg = 0x5eed_50a4_u64;
    let mut roll = |n: u64| {
        lcg = lcg
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (lcg >> 33) % n
    };

    let mut live: Vec<u64> = Vec::new();
    let mut done = BTreeMap::new();
    let mut kills_armed = 0u32;
    for i in 0..JOBS {
        if i == JOBS * 2 / 3 {
            // A burst, not sticky: the final drain manifest still lands.
            fault_spool.fail_next_writes(8);
        }
        while live.len() >= IN_FLIGHT {
            std::thread::sleep(Duration::from_millis(5));
            reap(&mut client, &mut live, &mut done);
        }
        let job = match roll(10) {
            0 | 1 => {
                // Zero-padded so no kill name is a prefix of another.
                let name = format!("kill-{kills_armed:02}");
                plan.kill_worker_when(&name, 1);
                kills_armed += 1;
                spec("batch", &name, 0, slow.clone())
            }
            2 | 3 => JobSpec {
                payload: Payload::Scene {
                    kind: "timewarp".into(),
                    factor_milli: 200,
                },
                ..spec("render", &format!("urgent-{i}"), 10, Vec::new())
            },
            4 | 5 => spec("batch", &format!("slow-{i}"), 0, slow.clone()),
            _ => spec("compute", &format!("busy-{i}"), 3, busy.clone()),
        };
        live.push(client.submit(&job).expect("submit"));
        // Both rolls are drawn on every submission, so the decision stream
        // does not depend on timing; only which live job a cancel hits does.
        let (cancel, target) = (roll(6) == 0, roll(IN_FLIGHT as u64) as usize);
        if cancel {
            let id = live[target % live.len()];
            if let Err(e) = client.cancel(id) {
                // The job finished first.
                assert_eq!(
                    e.code(),
                    Some(ErrorCode::AlreadyTerminal),
                    "cancel {id}: {e}"
                );
            }
        }
        reap(&mut client, &mut live, &mut done);
    }
    for id in live {
        let state = client.wait(id, 120_000).expect("wait").state;
        assert!(state.terminal(), "job {id} still {state} after wait");
        assert!(
            done.insert(id, state).is_none(),
            "job {id} reported terminal twice"
        );
    }
    assert_eq!(
        done.len() as u64,
        JOBS,
        "every job reached a terminal state"
    );

    let json = client.metrics_json().expect("metrics");
    assert!(crisp_obs::json::validate(&json).is_ok(), "{json}");
    let admitted = counter_sum(&json, "serve/admitted");
    assert_eq!(admitted, JOBS, "serve/admitted matches submissions");
    for (state, counter) in [
        (JobState::Completed, "serve/completed"),
        (JobState::Failed, "serve/failed"),
        (JobState::Cancelled, "serve/cancelled"),
    ] {
        let seen = done.values().filter(|&&s| s == state).count() as u64;
        assert_eq!(counter_sum(&json, counter), seen, "{counter}");
    }
    let terminal = counter_sum(&json, "serve/completed")
        + counter_sum(&json, "serve/failed")
        + counter_sum(&json, "serve/cancelled");
    assert_eq!(terminal, admitted, "zero jobs lost or duplicated");
    let kills = plan.kills_fired();
    assert!(kills > 0, "the fault plan fired worker kills");
    let respawns = counter_sum(&json, "serve/worker_respawns");
    assert!(
        respawns >= kills,
        "every worker kill was survived ({respawns} respawns, {kills} kills)"
    );
    assert!(
        counter_sum(&json, "serve/job_retries") > 0,
        "killed jobs were retried: {json}"
    );

    fault_spool.heal();
    client.shutdown(true).expect("drain shutdown");
    server.join();
}
