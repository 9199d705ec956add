//! Host self-profiler integration: the profile is populated, accurate, and
//! — the load-bearing property — *purely observational*. Enabling it must
//! not change a single simulated bit.
//!
//! (The companion zero-allocation suite lives in `hostprof_alloc.rs`, in
//! its own test binary, because it has to install the counting allocator
//! process-wide.)

use crisp_core::prelude::*;
use crisp_core::{concurrent_bundle, COMPUTE_STREAM, GRAPHICS_STREAM};
use crisp_obs::HostPhase;
use crisp_sim::SimResult;

/// A small six-SM GPU.
fn gpu() -> GpuConfig {
    let mut cfg = GpuConfig::test_tiny();
    cfg.n_sms = 6;
    cfg
}

/// A mixed bundle: one rendered frame plus the VIO kernel chain.
fn bundle() -> TraceBundle {
    let frame = Scene::build(SceneId::SponzaKhronos, 0.2).render(64, 36, false, GRAPHICS_STREAM);
    concurrent_bundle(frame.trace, vio(COMPUTE_STREAM, ComputeScale::tiny()))
}

fn run(profile: bool) -> SimResult {
    Simulation::builder()
        .gpu(gpu())
        .partition(PartitionSpec::fg_even(
            &gpu(),
            GRAPHICS_STREAM,
            COMPUTE_STREAM,
        ))
        .telemetry(Telemetry::FULL)
        .occupancy_interval(100)
        .counter_interval(100)
        .host_profile(profile)
        .heartbeat_interval(500)
        .trace(bundle())
        .run_or_panic()
}

#[test]
fn serial_profile_is_populated() {
    let result = run(true);
    let prof = result.host_profile.as_ref().expect("profile present");
    assert_eq!(prof.cycles, result.cycles);
    assert!(prof.wall_ns > 0);

    // The serial cycle loop must attribute time to its core phases.
    for phase in [HostPhase::Dispatch, HostPhase::Execute, HostPhase::MemTick] {
        assert!(
            prof.driver.get(phase) > 0,
            "phase {} has no attributed time",
            phase.name()
        );
    }
    // Preflight/Export spans were recorded by the builder and result().
    assert!(prof.spans.iter().any(|s| s.phase == HostPhase::Preflight));
    assert!(prof.spans.iter().any(|s| s.phase == HostPhase::Export));

    // Telemetry::FULL at tight intervals costs time the profiler must see.
    assert!(prof.driver.get(HostPhase::Telemetry) > 0);

    // Heartbeats fire every 500 cycles; the run is comfortably longer.
    assert!(result.cycles > 500, "workload too small to heartbeat");
    assert!(!prof.heartbeats.is_empty());
    assert!(prof.heartbeats.iter().all(|h| h.cycle % 500 == 0));
    assert!(prof.heartbeats[0].cycles_per_sec > 0.0);

    // Accuracy contract (the hostprof bin gates CI on 0.90 at scale; the
    // tiny test workload still has to be in a sane band).
    let cov = prof.coverage();
    assert!(cov > 0.5, "driver coverage {cov} suspiciously low");
    assert!(cov < 1.5, "driver coverage {cov} exceeds wall-clock");

    // The rendered report names the headline sections.
    let report = result.host_report();
    assert!(report.contains("CRISP self-profile"));
    assert!(report.contains("driver phases"));
    assert!(report.contains("execute"));
}

#[test]
fn disabled_profile_is_absent() {
    let result = run(false);
    assert!(result.host_profile.is_none());
    assert!(result.host_report().contains("disabled"));
    // The host-aware export degrades to the plain sim-clock export.
    assert_eq!(
        result.chrome_trace_json_with_host(),
        result.chrome_trace_json()
    );
}

#[test]
fn dual_clock_export_adds_host_process_only() {
    let result = run(true);
    let plain = result.chrome_trace_json();
    let dual = result.chrome_trace_json_with_host();
    assert!(crisp_obs::json::validate(&dual).is_ok());
    assert!(dual.contains("host self-profile"));
    assert!(dual.contains("driver phases (aggregate)"));
    // Every sim-clock (pid 0) event survives untouched in the dual export.
    // The last line carries the `]}` JSON footer; others a trailing comma.
    for line in plain.lines().filter(|l| l.contains("\"pid\":0")) {
        let event = line
            .strip_suffix("]}")
            .unwrap_or(line)
            .trim_end_matches(',');
        assert!(
            dual.contains(event),
            "sim-clock event missing from dual export: {event}"
        );
    }
}

/// The determinism contract with profiling ENABLED: simulated outputs are
/// byte-identical to an unprofiled run. Host spans
/// live only in `host_profile` / the dual-clock export, which are excluded
/// from the comparison (wall-clock is inherently nondeterministic).
#[test]
fn profiling_never_perturbs_simulated_outputs() {
    let base = run(false);
    for (what, result) in [("profiled", run(true)), ("profiled again", run(true))] {
        assert_eq!(base.cycles, result.cycles, "{what}: cycles");
        assert_eq!(base.per_stream, result.per_stream, "{what}: per-stream");
        assert_eq!(base.l2_stats, result.l2_stats, "{what}: L2 stats");
        assert_eq!(base.kernel_log, result.kernel_log, "{what}: kernel log");
        assert_eq!(
            base.per_sm_instructions, result.per_sm_instructions,
            "{what}: per-SM instructions"
        );
        assert_eq!(
            base.metrics.to_text(),
            result.metrics.to_text(),
            "{what}: metrics snapshot"
        );
        assert_eq!(
            base.chrome_trace_json(),
            result.chrome_trace_json(),
            "{what}: sim-clock chrome trace"
        );
        assert_eq!(
            base.counters_csv(),
            result.counters_csv(),
            "{what}: counters CSV"
        );
    }
}
