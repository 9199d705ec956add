//! Streaming trace input: demand-paging a CRSP container must be an
//! implementation detail, never an observable one.
//!
//! The `TraceSource` contract (see `crisp_trace::source`) is that a
//! simulation fed a version-2 container from disk — paging CTAs in on
//! dispatch and out at retire — produces results *byte-identical* to the
//! same simulation fed the fully materialized bundle, across
//! checkpoint/resume, and through the version-1
//! compatibility scan. These tests hold the whole `SimResult` to that
//! contract: cycles, stats, telemetry exports, and the paging counters
//! themselves.

use std::path::PathBuf;

use crisp_core::prelude::*;
use crisp_core::{concurrent_bundle, COMPUTE_STREAM, GRAPHICS_STREAM};
use crisp_sim::{GpuSim, SimResult};
use crisp_trace::codec;

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

/// Save the workload once per test to a unique temp path.
fn saved_container(tag: &str, v1: bool) -> PathBuf {
    let p = std::env::temp_dir().join(format!("crisp_streaming_{tag}_{}.crsp", std::process::id()));
    if v1 {
        let mut f = std::fs::File::create(&p).expect("create v1 container");
        codec::write_bundle_v1(&bundle(), &mut f).expect("write v1 container");
    } else {
        codec::save(&bundle(), &p).expect("save container");
    }
    p
}

fn builder(trace: impl Into<crisp_sim::TraceInput>) -> SimulationBuilder {
    Simulation::builder()
        .gpu(gpu())
        .partition(PartitionSpec::greedy())
        .telemetry(Telemetry::FULL)
        .occupancy_interval(100)
        .counter_interval(100)
        .trace(trace)
}

/// The full result must match, including the byte-exact exports users diff
/// across machines — and the paging counters, which logical accounting
/// keeps identical whichever backing served the CTAs.
fn assert_identical(a: &SimResult, b: &SimResult, what: &str) {
    assert_eq!(a.cycles, b.cycles, "{what}: cycles");
    assert_eq!(a.per_stream, b.per_stream, "{what}: per-stream stats");
    assert_eq!(a.l1_stats, b.l1_stats, "{what}: L1 stats");
    assert_eq!(a.l2_stats, b.l2_stats, "{what}: L2 stats");
    assert_eq!(a.kernel_log, b.kernel_log, "{what}: kernel log");
    assert_eq!(a.trace, b.trace, "{what}: trace paging stats");
    assert_eq!(
        a.metrics.to_text(),
        b.metrics.to_text(),
        "{what}: metrics snapshot"
    );
    assert_eq!(
        a.chrome_trace_json(),
        b.chrome_trace_json(),
        "{what}: Chrome trace export"
    );
    assert_eq!(a.counters_csv(), b.counters_csv(), "{what}: counters CSV");
}

#[test]
fn streaming_is_byte_identical_to_materialized() {
    let materialized = builder(bundle()).run_or_panic();
    let path = saved_container("identical", false);
    let streamed = builder(path.as_path()).run_or_panic();
    assert_identical(&materialized, &streamed, "streaming");
    // The streamed run really paged: its peak window stayed at or below
    // half the whole-bundle footprint a materialized load would physically
    // occupy.
    let whole: u64 = bundle()
        .streams
        .iter()
        .flat_map(|s| s.kernels())
        .flat_map(|k| k.ctas.iter())
        .map(|c| crisp_trace::cta_resident_cost(c))
        .sum();
    let peak = streamed.trace.peak_resident_bytes;
    assert!(
        peak * 2 <= whole,
        "peak window {peak} exceeds half the materialized footprint {whole}",
    );
    let _ = std::fs::remove_file(path);
}

#[test]
fn checkpoint_resume_mid_stream_is_byte_identical() {
    let path = saved_container("resume", false);
    let full = builder(path.as_path()).run_or_panic();

    let mut sim = builder(path.as_path()).try_build().expect("build");
    let done = sim.run_until(full.cycles / 2).expect("first half");
    assert!(!done, "workload must outlast the checkpoint cycle");
    let mut bytes = Vec::new();
    sim.write_checkpoint(&mut bytes).expect("serialize");

    let mut resumed = GpuSim::read_checkpoint(&bytes[..]).expect("deserialize");
    let r = resumed.run_or_panic();
    assert_identical(&full, &r, "mid-stream resume");
    let _ = std::fs::remove_file(path);
}

#[test]
fn v1_container_runs_through_the_compat_scan() {
    let materialized = builder(bundle()).run_or_panic();
    let path = saved_container("v1", true);
    let r = builder(path.as_path()).run_or_panic();
    assert_identical(&materialized, &r, "v1 compat");
    let _ = std::fs::remove_file(path);
}
