//! End-to-end profiling demo: run a concurrent render+compute workload
//! with full telemetry and export the observability artifacts — a Chrome
//! Trace Event file (load in Perfetto / `chrome://tracing`), counter and
//! metric CSVs, and the human-readable profile report.
//!
//! The emitted JSON must pass the bundled RFC 8259 validator.
//!
//! `CRISP_SCALE=quick` shrinks the workload for CI.

use crisp_bench::{out_dir, scale};
use crisp_core::prelude::*;
use crisp_core::{concurrent_bundle, COMPUTE_STREAM, GRAPHICS_STREAM};

fn main() {
    let s = scale();
    let (w, h) = s.res.dims();
    let mut gpu = GpuConfig::test_tiny();
    gpu.n_sms = 6;

    println!("== profile: concurrent render+compute with full telemetry ==");
    let frame = Scene::build(SceneId::SponzaKhronos, s.detail).render(w, h, false, GRAPHICS_STREAM);
    let result = Simulation::builder()
        .gpu(gpu.clone())
        .partition(PartitionSpec::fg_even(
            &gpu,
            GRAPHICS_STREAM,
            COMPUTE_STREAM,
        ))
        .telemetry(Telemetry::FULL)
        .counter_interval(500)
        .trace(concurrent_bundle(
            frame.trace,
            vio(COMPUTE_STREAM, s.compute),
        ))
        .run_or_panic();

    let trace_json = result.chrome_trace_json();
    crisp_sim::obs::json::validate(&trace_json).expect("exported trace is valid JSON");
    assert!(
        !result.timeline.is_empty(),
        "full telemetry must record spans"
    );
    println!(
        "{} spans, {} bytes of JSON",
        result.timeline.span_count(),
        trace_json.len()
    );

    let dir = out_dir().join("profile");
    result.write_profile(&dir).expect("write profile artifacts");
    println!(
        "(saved trace.json / counters.csv / metrics.csv / profile.txt to {})",
        dir.display()
    );
    println!();
    print!("{}", result.profile_report());
}
