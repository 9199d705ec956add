//! Integration tests for concurrent graphics+compute execution and the
//! partitioning machinery.

use crisp_core::prelude::*;
use crisp_core::{concurrent_bundle, simulate, COMPUTE_STREAM, GRAPHICS_STREAM};
use crisp_scenes::timewarp;
use crisp_trace::TraceBundle;

fn frame() -> Stream {
    Scene::build(SceneId::SponzaPbr, 0.2)
        .render(96, 54, false, GRAPHICS_STREAM)
        .trace
}

#[test]
fn async_compute_beats_serial_execution() {
    let gpu = GpuConfig::jetson_orin();
    // Serial: graphics then compute in one stream.
    let mut serial = frame();
    serial
        .commands
        .extend(holo(GRAPHICS_STREAM, ComputeScale::tiny()).commands);
    let serial_cycles = simulate(
        gpu.clone(),
        PartitionSpec::greedy(),
        TraceBundle::from_streams(vec![serial]),
    )
    .cycles;

    let conc = simulate(
        gpu.clone(),
        PartitionSpec::fg_even(&gpu, GRAPHICS_STREAM, COMPUTE_STREAM),
        concurrent_bundle(frame(), holo(COMPUTE_STREAM, ComputeScale::tiny())),
    );
    assert!(
        conc.makespan() < serial_cycles,
        "concurrent must beat serial: {} vs {serial_cycles}",
        conc.makespan()
    );
}

#[test]
fn both_streams_make_progress_under_every_policy() {
    let gpu = GpuConfig::jetson_orin();
    let specs = vec![
        PartitionSpec::greedy(),
        PartitionSpec::mps_even(&gpu, GRAPHICS_STREAM, COMPUTE_STREAM),
        PartitionSpec::mig_even(&gpu, GRAPHICS_STREAM, COMPUTE_STREAM),
        PartitionSpec::fg_even(&gpu, GRAPHICS_STREAM, COMPUTE_STREAM),
        PartitionSpec::fg_dynamic(SlicerConfig {
            sample_cycles: 2_000,
            ..SlicerConfig::default()
        }),
        PartitionSpec::tap_even(
            &gpu,
            GRAPHICS_STREAM,
            COMPUTE_STREAM,
            TapConfig {
                epoch_accesses: 5_000,
                sample_every: 2,
                min_sets: 1,
            },
        ),
    ];
    for spec in specs {
        let r = simulate(
            gpu.clone(),
            spec,
            concurrent_bundle(frame(), vio(COMPUTE_STREAM, ComputeScale::tiny())),
        );
        assert!(r.per_stream[&GRAPHICS_STREAM].stats.instructions > 0);
        assert!(r.per_stream[&COMPUTE_STREAM].stats.instructions > 0);
        assert!(r.per_stream[&GRAPHICS_STREAM].stats.finish_cycle > 0);
        assert!(r.per_stream[&COMPUTE_STREAM].stats.finish_cycle > 0);
    }
}

#[test]
fn per_stream_stats_separate_the_workloads() {
    // The paper extends Accel-Sim with per-stream stats because aggregates
    // are "misleading when concurrent execution is enabled".
    let gpu = GpuConfig::jetson_orin();
    let r = simulate(
        gpu.clone(),
        PartitionSpec::fg_even(&gpu, GRAPHICS_STREAM, COMPUTE_STREAM),
        concurrent_bundle(frame(), holo(COMPUTE_STREAM, ComputeScale::tiny())),
    );
    // Graphics traffic must be attributed to stream 0, compute to stream 1.
    let g_l1 = r.l1_stats.stream_total(GRAPHICS_STREAM);
    let c_l1 = r.l1_stats.stream_total(COMPUTE_STREAM);
    assert!(g_l1.accesses > 0);
    assert!(c_l1.accesses > 0);
    let g_tex = r.l1_stats.get(GRAPHICS_STREAM, DataClass::Texture);
    let c_tex = r.l1_stats.get(COMPUTE_STREAM, DataClass::Texture);
    assert!(g_tex.accesses > 0, "graphics does texture work");
    assert_eq!(c_tex.accesses, 0, "compute never touches textures");
}

#[test]
fn mig_keeps_dram_partitions_disjoint() {
    let gpu = GpuConfig::jetson_orin();
    let r = simulate(
        gpu.clone(),
        PartitionSpec::mig_even(&gpu, GRAPHICS_STREAM, COMPUTE_STREAM),
        concurrent_bundle(frame(), nn(COMPUTE_STREAM, ComputeScale::tiny())),
    );
    // Both sides still get DRAM service through their own partitions.
    assert!(r.per_stream[&GRAPHICS_STREAM].dram_bytes > 0);
    assert!(r.per_stream[&COMPUTE_STREAM].dram_bytes > 0);
}

#[test]
fn compute_bound_holo_barely_uses_dram() {
    let gpu = GpuConfig::jetson_orin();
    let r = simulate(
        gpu.clone(),
        PartitionSpec::fg_even(&gpu, GRAPHICS_STREAM, COMPUTE_STREAM),
        concurrent_bundle(frame(), holo(COMPUTE_STREAM, ComputeScale::tiny())),
    );
    let g = r.per_stream[&GRAPHICS_STREAM].dram_bytes;
    let c = r.per_stream[&COMPUTE_STREAM].dram_bytes;
    assert!(
        (c as f64) < g as f64,
        "HOLO is compute-bound; rendering must dominate DRAM: gfx {g}, holo {c}"
    );
}

#[test]
fn tap_gives_the_compute_bound_stream_few_sets() {
    // Figure 14/15: "This causes TAP to always favor rendering workloads
    // and assign only 1 set to HOLO kernels."
    let gpu = GpuConfig::jetson_orin();
    let r = simulate(
        gpu.clone(),
        PartitionSpec::tap_even(
            &gpu,
            GRAPHICS_STREAM,
            COMPUTE_STREAM,
            TapConfig {
                epoch_accesses: 5_000,
                sample_every: 1,
                min_sets: 1,
            },
        ),
        concurrent_bundle(frame(), holo(COMPUTE_STREAM, ComputeScale::tiny())),
    );
    let alloc = r.tap_allocation.expect("TAP ran");
    let gfx_sets = alloc.iter().find(|(s, _)| *s == GRAPHICS_STREAM).unwrap().1;
    let holo_sets = alloc.iter().find(|(s, _)| *s == COMPUTE_STREAM).unwrap().1;
    assert!(
        gfx_sets > holo_sets,
        "TAP must favour rendering: gfx {gfx_sets} vs holo {holo_sets}"
    );
}

#[test]
fn dynamic_partition_resets_at_drawcalls_and_kernel_launches() {
    let gpu = GpuConfig::jetson_orin();
    let slicer = SlicerConfig {
        sample_cycles: 500,
        ratios: vec![(2, 8), (4, 8), (6, 8)],
    };
    let r = simulate(
        gpu.clone(),
        PartitionSpec::fg_dynamic(slicer),
        concurrent_bundle(frame(), vio(COMPUTE_STREAM, ComputeScale::tiny())),
    );
    // VIO launches a dozen kernels; the slicer must have decided multiple
    // times (each launch restarts sampling).
    assert!(
        r.slicer_history.len() >= 3,
        "expected several slicer decisions, got {}",
        r.slicer_history.len()
    );
}

#[test]
fn occupancy_timeline_tracks_both_streams() {
    let gpu = GpuConfig::jetson_orin();
    let r = Simulation::builder()
        .gpu(gpu.clone())
        .partition(PartitionSpec::fg_even(
            &gpu,
            GRAPHICS_STREAM,
            COMPUTE_STREAM,
        ))
        .occupancy_interval(200)
        .trace(concurrent_bundle(
            frame(),
            nn(COMPUTE_STREAM, ComputeScale::tiny()),
        ))
        .run_or_panic();
    let saw_gfx = r
        .occupancy
        .iter()
        .any(|s| s.by_stream.get(&GRAPHICS_STREAM).copied().unwrap_or(0.0) > 0.0);
    let saw_nn = r
        .occupancy
        .iter()
        .any(|s| s.by_stream.get(&COMPUTE_STREAM).copied().unwrap_or(0.0) > 0.0);
    assert!(
        saw_gfx && saw_nn,
        "both streams must appear in the timeline"
    );
}

#[test]
fn three_streams_share_one_sm_pool() {
    // Paper Section IV: "the simulation framework can be easily extended
    // to support more than 2 workloads" — exercise a 3-way intra-SM split.
    let gpu = GpuConfig::jetson_orin();
    const ATW: StreamId = StreamId(2);
    let (w, h) = (96u32, 54u32);
    let f = Scene::build(SceneId::SponzaKhronos, 0.2).render(w, h, false, GRAPHICS_STREAM);
    let spec = PartitionSpec::fg_fractions(
        &gpu,
        [
            (GRAPHICS_STREAM, (4, 8)),
            (COMPUTE_STREAM, (2, 8)),
            (ATW, (2, 8)),
        ],
    );
    let bundle = TraceBundle::from_streams(vec![
        f.trace,
        vio(COMPUTE_STREAM, ComputeScale::tiny()),
        timewarp(ATW, w, h, ComputeScale::tiny()),
    ]);
    let r = simulate(gpu, spec, bundle);
    for id in [GRAPHICS_STREAM, COMPUTE_STREAM, ATW] {
        let s = &r.per_stream[&id].stats;
        assert!(s.instructions > 0, "{id} starved");
        assert!(s.finish_cycle > 0, "{id} never finished");
    }
}

#[test]
fn timewarp_consumes_the_framebuffer_through_the_l2() {
    // Producer→consumer: the graphics stream writes the framebuffer; the
    // timewarp gathers read it. With the render first in a single serial
    // stream, the reprojection's loads must find the framebuffer lines in
    // the L2 (no DRAM reads for data that was just produced).
    let gpu = GpuConfig::jetson_orin();
    let (w, h) = (96u32, 54u32);
    let f = Scene::build(SceneId::SponzaKhronos, 0.2).render(w, h, false, GRAPHICS_STREAM);
    let mut serial = f.trace;
    serial
        .commands
        .extend(timewarp(GRAPHICS_STREAM, w, h, ComputeScale::tiny()).commands);
    let r = simulate(
        gpu.clone(),
        PartitionSpec::greedy(),
        TraceBundle::from_streams(vec![serial]),
    );
    let warmed = r.l2_stats.class_total(DataClass::Compute);
    assert!(warmed.accesses > 0, "timewarp must reach the L2");

    // Baseline: timewarp alone — its framebuffer reads are cold misses
    // (its own output stores miss either way).
    let alone = simulate(
        gpu,
        PartitionSpec::greedy(),
        TraceBundle::from_streams(vec![timewarp(GRAPHICS_STREAM, w, h, ComputeScale::tiny())]),
    );
    let cold = alone.l2_stats.class_total(DataClass::Compute);
    assert!(
        warmed.hit_rate() > cold.hit_rate() + 0.2,
        "rendering first must warm the reprojection's reads: {} vs {}",
        warmed.hit_rate(),
        cold.hit_rate()
    );
}

#[test]
fn kernel_log_interleaves_across_streams() {
    let gpu = GpuConfig::jetson_orin();
    let f = Scene::build(SceneId::SponzaKhronos, 0.2).render(96, 54, false, GRAPHICS_STREAM);
    let r = simulate(
        gpu.clone(),
        PartitionSpec::fg_even(&gpu, GRAPHICS_STREAM, COMPUTE_STREAM),
        concurrent_bundle(f.trace, vio(COMPUTE_STREAM, ComputeScale::tiny())),
    );
    let gfx_kernels = r
        .kernel_log
        .iter()
        .filter(|k| k.stream == GRAPHICS_STREAM)
        .count();
    let vio_kernels = r
        .kernel_log
        .iter()
        .filter(|k| k.stream == COMPUTE_STREAM)
        .count();
    assert!(gfx_kernels >= 2);
    assert!(
        vio_kernels >= 12,
        "VIO is many small kernels: {vio_kernels}"
    );
    // At least one pair of kernels from different streams overlaps in time.
    let overlap = r.kernel_log.iter().any(|a| {
        r.kernel_log.iter().any(|b| {
            a.stream != b.stream && a.start_cycle < b.end_cycle && b.start_cycle < a.end_cycle
        })
    });
    assert!(overlap, "streams must actually execute concurrently");
}

#[test]
fn stats_clear_marker_constants_agree() {
    // `crisp-scenes` duplicates the marker label to avoid depending on
    // `crisp-sim`; this is the test that keeps the two in sync.
    let scene = Scene::build(SceneId::SponzaKhronos, 0.2);
    let f = scene.render_warmed(64, 36, false, GRAPHICS_STREAM);
    let has_marker = f.trace.commands.iter().any(|c| match c {
        crisp_trace::Command::Marker(l) => l == crisp_sim::CLEAR_STATS_MARKER,
        _ => false,
    });
    assert!(
        has_marker,
        "render_warmed must emit crisp-sim's clear-stats marker"
    );
}

#[test]
fn warmed_frames_reach_steady_state_hit_rates() {
    // The second (post-marker) frame re-touches the first frame's working
    // set: with everything fitting the L2, steady-state hit rates are far
    // above the cold frame's.
    let gpu = GpuConfig::jetson_orin();
    let scene = Scene::build(SceneId::SponzaKhronos, 0.2);
    let cold = simulate(
        gpu.clone(),
        PartitionSpec::greedy(),
        TraceBundle::from_streams(vec![scene.render(96, 54, false, GRAPHICS_STREAM).trace]),
    );
    let warm = simulate(
        gpu,
        PartitionSpec::greedy(),
        TraceBundle::from_streams(vec![
            scene.render_warmed(96, 54, false, GRAPHICS_STREAM).trace,
        ]),
    );
    let cold_hit = cold.l2_stats.total().hit_rate();
    let warm_hit = warm.l2_stats.total().hit_rate();
    assert!(
        warm_hit > cold_hit + 0.3,
        "steady state must be much warmer: cold {cold_hit:.2}, warm {warm_hit:.2}"
    );
}
