//! Run-to-run determinism: two independent simulations of the same
//! workload in one process must be bit-identical, and a run resumed from a
//! checkpoint must match the uninterrupted one.
//!
//! Two runs in one process catch state keyed on anything per-instance
//! (hash seeds, addresses). The second run of each pair asks the builder
//! for several worker threads: the simulator is single-threaded and
//! ignores the request, which benchmark harnesses still make, so it must
//! stay results-neutral. These tests hold every partition policy and L2
//! policy to that contract on a mixed render+compute bundle, comparing the
//! *entire* `SimResult` — cycles, per-stream stats, L1/L2 stats, cache
//! composition, telemetry timelines, and the kernel log.

use crisp_core::prelude::*;
use crisp_core::{concurrent_bundle, COMPUTE_STREAM, GRAPHICS_STREAM};
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

fn run(spec: PartitionSpec, l2: Option<L2Policy>, threads: usize) -> SimResult {
    let mut b = Simulation::builder()
        .gpu(gpu())
        .partition(spec)
        .threads(threads)
        .telemetry(Telemetry::FULL)
        .occupancy_interval(100)
        .composition_interval(500)
        .counter_interval(100)
        .trace(bundle());
    if let Some(l2) = l2 {
        b = b.l2(l2);
    }
    b.run_or_panic()
}

/// Field-by-field equality of two results, with a labelled panic per field
/// so a regression names exactly what diverged.
fn assert_identical(a: &SimResult, b: &SimResult, what: &str) {
    assert_eq!(a.cycles, b.cycles, "{what}: cycles");
    assert_eq!(a.per_stream, b.per_stream, "{what}: per-stream stats");
    assert_eq!(a.l1_stats, b.l1_stats, "{what}: L1 stats");
    assert_eq!(a.l2_stats, b.l2_stats, "{what}: L2 stats");
    assert_eq!(a.l2_composition, b.l2_composition, "{what}: L2 composition");
    assert_eq!(
        a.l2_composition_timeline, b.l2_composition_timeline,
        "{what}: composition timeline"
    );
    assert_eq!(a.occupancy, b.occupancy, "{what}: occupancy timeline");
    assert_eq!(a.ipc_timeline, b.ipc_timeline, "{what}: IPC timeline");
    assert_eq!(a.slicer_history, b.slicer_history, "{what}: slicer history");
    assert_eq!(a.tap_allocation, b.tap_allocation, "{what}: TAP allocation");
    assert_eq!(a.kernel_log, b.kernel_log, "{what}: kernel log");
    assert_eq!(
        a.per_sm_instructions, b.per_sm_instructions,
        "{what}: per-SM instructions"
    );
    assert_eq!(
        a.per_sm_stalls, b.per_sm_stalls,
        "{what}: per-SM stall breakdowns"
    );
    assert_eq!(
        a.metrics.to_text(),
        b.metrics.to_text(),
        "{what}: metrics snapshot"
    );
    // The exported artifacts must be byte-identical, not merely
    // structurally equal — this is what lets users diff trace files
    // across machines and runs.
    assert_eq!(
        a.chrome_trace_json(),
        b.chrome_trace_json(),
        "{what}: Chrome trace export"
    );
    assert_eq!(a.counters_csv(), b.counters_csv(), "{what}: counters CSV");
}

fn check(name: &str, spec: PartitionSpec, l2: Option<L2Policy>) {
    let first = run(spec.clone(), l2.clone(), 1);
    assert!(first.cycles > 0, "{name}: simulation ran");
    let second = run(spec, l2, 4);
    assert_identical(&first, &second, &format!("{name}, second run"));
}

#[test]
fn greedy_is_thread_count_invariant() {
    check("greedy", PartitionSpec::greedy(), None);
}

#[test]
fn mps_is_thread_count_invariant() {
    let g = gpu();
    check(
        "mps",
        PartitionSpec::mps_even(&g, GRAPHICS_STREAM, COMPUTE_STREAM),
        None,
    );
}

#[test]
fn mig_is_thread_count_invariant() {
    let g = gpu();
    check(
        "mig",
        PartitionSpec::mig_even(&g, GRAPHICS_STREAM, COMPUTE_STREAM),
        None,
    );
}

#[test]
fn fg_static_is_thread_count_invariant() {
    let g = gpu();
    check(
        "fg-static",
        PartitionSpec::fg_even(&g, GRAPHICS_STREAM, COMPUTE_STREAM),
        None,
    );
}

#[test]
fn fg_dynamic_is_thread_count_invariant() {
    let slicer = SlicerConfig {
        sample_cycles: 300,
        ratios: vec![(2, 8), (4, 8), (6, 8)],
    };
    check("fg-dynamic", PartitionSpec::fg_dynamic(slicer), None);
}

#[test]
fn tap_l2_is_thread_count_invariant() {
    let tap = TapConfig {
        epoch_accesses: 400,
        sample_every: 1,
        min_sets: 1,
    };
    let g = gpu();
    check(
        "fg+tap",
        PartitionSpec::tap_even(&g, GRAPHICS_STREAM, COMPUTE_STREAM, tap),
        None,
    );
}

#[test]
fn bank_split_l2_is_thread_count_invariant() {
    let g = gpu();
    check(
        "mps+bank-split",
        PartitionSpec::mps_even(&g, GRAPHICS_STREAM, COMPUTE_STREAM),
        Some(L2Policy::BankSplit),
    );
}

/// Configure (don't run) the same simulation `run()` uses.
fn builder(spec: PartitionSpec, l2: Option<L2Policy>, threads: usize) -> SimulationBuilder {
    let mut b = Simulation::builder()
        .gpu(gpu())
        .partition(spec)
        .threads(threads)
        .telemetry(Telemetry::FULL)
        .occupancy_interval(100)
        .composition_interval(500)
        .counter_interval(100)
        .trace(bundle());
    if let Some(l2) = l2 {
        b = b.l2(l2);
    }
    b
}

/// Resume determinism: a run checkpointed mid-flight and restored must
/// finish with byte-identical results and exports.
fn check_resume(name: &str, spec: PartitionSpec, l2: Option<L2Policy>, ckpt_threads: usize) {
    let full = run(spec.clone(), l2.clone(), 1);
    let mut sim = builder(spec, l2, ckpt_threads).try_build().unwrap();
    let done = sim.run_until(full.cycles / 2).unwrap();
    assert!(!done, "{name}: workload must outlast the checkpoint cycle");
    let mut bytes = Vec::new();
    sim.write_checkpoint(&mut bytes).expect("serialize");
    let mut resumed = GpuSim::read_checkpoint(&bytes[..]).expect("deserialize");
    let r = resumed.run_or_panic();
    assert_identical(&full, &r, &format!("{name} resume"));
}

#[test]
fn greedy_resume_is_bit_identical() {
    check_resume("greedy", PartitionSpec::greedy(), None, 1);
}

#[test]
fn mig_resume_is_bit_identical() {
    let g = gpu();
    check_resume(
        "mig",
        PartitionSpec::mig_even(&g, GRAPHICS_STREAM, COMPUTE_STREAM),
        None,
        1,
    );
}

#[test]
fn fg_static_resume_from_parallel_run_is_bit_identical() {
    // The checkpoint is taken from a run that requested 2 worker threads.
    let g = gpu();
    check_resume(
        "fg-static",
        PartitionSpec::fg_even(&g, GRAPHICS_STREAM, COMPUTE_STREAM),
        None,
        2,
    );
}

#[test]
fn periodic_checkpoint_files_resume_bit_identically() {
    let dir = std::env::temp_dir().join(format!("crisp-determinism-ckpt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let full = run(PartitionSpec::greedy(), None, 1);

    let every = (full.cycles / 3).max(1);
    let direct = builder(PartitionSpec::greedy(), None, 1)
        .checkpoint_every(every)
        .checkpoint_to(&dir)
        .run_or_panic();
    assert_identical(&full, &direct, "greedy with periodic checkpointing");

    let path = dir.join(format!("ckpt-{every}.ckpt"));
    assert!(path.exists(), "expected checkpoint at {}", path.display());
    let mut resumed = Simulation::resume(&path).expect("resume from file");
    let r = resumed.run_or_panic();
    assert_identical(&full, &r, "greedy resumed from periodic checkpoint");
    let _ = std::fs::remove_dir_all(&dir);
}
