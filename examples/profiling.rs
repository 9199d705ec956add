//! Profiling: run a concurrent render+compute workload with full telemetry
//! and export the observability artifacts — a Perfetto-loadable Chrome
//! trace, counter/metric CSVs, and a text profile report.
//!
//! Run with:
//! ```sh
//! cargo run --release --example profiling
//! ```
//! then open `target/profile/trace.json` in <https://ui.perfetto.dev> or
//! `chrome://tracing`.

use crisp_core::prelude::*;

fn main() {
    // 1. A mixed workload: one rendered frame plus the VIO kernel chain.
    let scene = Scene::build(SceneId::SponzaKhronos, 0.3);
    let (w, h) = crisp_core::Resolution::Tiny.dims();
    let frame = scene.render(w, h, false, crisp_core::GRAPHICS_STREAM);
    let compute = vio(crisp_core::COMPUTE_STREAM, ComputeScale::tiny());

    // 2. Simulate with every telemetry channel on. `Telemetry::FULL` turns
    //    on span recording (kernel/CTA timelines, markers) and periodic
    //    counter sampling on top of the occupancy/composition timelines;
    //    `.profile_to` writes trace.json / counters.csv / metrics.csv /
    //    profile.txt there when the run finishes.
    let gpu = GpuConfig::test_tiny();
    let spec = PartitionSpec::fg_even(
        &gpu,
        crisp_core::GRAPHICS_STREAM,
        crisp_core::COMPUTE_STREAM,
    );
    let result = Simulation::builder()
        .gpu(gpu)
        .partition(spec)
        .telemetry(Telemetry::FULL)
        .counter_interval(200)
        .profile_to("target/profile")
        .trace(crisp_core::concurrent_bundle(frame.trace, compute))
        .run_or_panic();

    // 3. The exported trace must pass the bundled RFC 8259 validator, and
    //    full telemetry must have recorded spans; CI runs this example as
    //    its profiling smoke test.
    crisp_sim::obs::json::validate(&result.chrome_trace_json())
        .expect("exported trace is valid JSON");
    assert!(
        !result.timeline.is_empty(),
        "full telemetry must record spans"
    );

    // 4. Everything written to disk is also queryable in memory.
    println!("{}", result.profile_report());
    println!(
        "timeline: {} spans, {} instants, {} counter samples",
        result.timeline.span_count(),
        result.timeline.instants().len(),
        result.timeline.counters().len(),
    );
    let stalls = result.stalls();
    println!(
        "stall causes: scoreboard={} mem={} mshr={} pipe={} barrier={}",
        stalls.scoreboard, stalls.mem_pending, stalls.mshr_full, stalls.pipe_busy, stalls.barrier,
    );
    println!(
        "metrics registry: {} series; kernels observed: {}",
        result.metrics.len(),
        result.metrics.counter_total("kernel/count")
    );
    println!("\nopen target/profile/trace.json in https://ui.perfetto.dev");
}
