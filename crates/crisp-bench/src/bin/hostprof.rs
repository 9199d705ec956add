//! Profile the **simulator itself**: wall-clock phase attribution,
//! allocation accounting, and the throughput numbers the perf-regression
//! gate tracks.
//!
//! Runs the paper-scale concurrent render+compute workload (SPH + HOLO on
//! the RTX 3070 under an even intra-SM split) with `.host_profile(true)`
//! and the counting allocator installed, prints the self-profile report, and
//! writes:
//!
//! * `BENCH_host.json` — the machine-readable trajectory record
//!   (`scripts/bench_check` compares `cycles_per_sec` against the
//!   committed baseline and fails CI on a regression);
//! * `target/experiments/hostprof.txt` — the rendered report;
//! * `target/experiments/hostprof_trace.json` — the dual-clock Chrome
//!   trace (simulated timeline + host self-profile as named Perfetto
//!   processes).
//!
//! The run fails (exit 1) when the phase attribution covers less than 90%
//! of measured wall-clock — the self-profiler's own accuracy contract.
//!
//! `--quick` (or `CRISP_SCALE=quick`) shrinks the workload for smoke
//! runs.

use crisp_core::experiments::ExpScale;
use crisp_core::prelude::*;
use crisp_core::{concurrent_bundle, COMPUTE_STREAM, GRAPHICS_STREAM};

#[cfg(feature = "alloc-profile")]
#[global_allocator]
static ALLOC: crisp_obs::alloc::CountingAlloc = crisp_obs::alloc::CountingAlloc;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let s = if quick {
        ExpScale::quick()
    } else {
        crisp_bench::scale()
    };
    let scale_name = if quick || matches!(std::env::var("CRISP_SCALE").as_deref(), Ok("quick")) {
        "quick"
    } else {
        "paper"
    };
    let gpu = GpuConfig::rtx3070();
    let (w, h) = s.res.dims();
    let frame = Scene::build(SceneId::SponzaPbr, s.detail).render(w, h, false, GRAPHICS_STREAM);
    let trace = concurrent_bundle(frame.trace, holo(COMPUTE_STREAM, s.compute));

    println!(
        "== hostprof: {} ({} SMs), {scale_name} scale ==",
        gpu.name, gpu.n_sms
    );

    #[cfg(feature = "alloc-profile")]
    crisp_obs::alloc::enable();
    let result = Simulation::builder()
        .gpu(gpu.clone())
        .partition(PartitionSpec::fg_even(
            &gpu,
            GRAPHICS_STREAM,
            COMPUTE_STREAM,
        ))
        .telemetry(Telemetry::NONE)
        .host_profile(true)
        .trace(trace)
        .run_or_panic();
    #[cfg(feature = "alloc-profile")]
    crisp_obs::alloc::disable();

    let prof = result
        .host_profile
        .as_ref()
        .expect("built with .host_profile(true)");
    crisp_bench::emit("hostprof", &result.host_report());
    let trace_path = crisp_bench::out_dir().join("hostprof_trace.json");
    std::fs::write(&trace_path, result.chrome_trace_json_with_host())
        .expect("write dual-clock trace");
    println!("(dual-clock trace saved to {})", trace_path.display());

    let phases: String = crisp_obs::HostPhase::ALL
        .iter()
        .map(|&p| format!("\"{}\":{}", p.name(), prof.driver.get(p)))
        .collect::<Vec<_>>()
        .join(",");
    let (alloc_count, alloc_bytes) = prof
        .alloc
        .as_ref()
        .map_or((0, 0), |a| (a.total_count, a.total_bytes));
    let json = format!(
        "{{\n\"version\": 1,\n\"scale\": \"{scale_name}\",\n\
         \"cycles\": {cycles},\n\"instrs\": {instrs},\n\"wall_s\": {wall:.4},\n\
         \"cycles_per_sec\": {cps:.1},\n\"instrs_per_sec\": {ips:.1},\n\
         \"coverage\": {cov:.4},\n\"allocs_per_cycle\": {apc:.4},\n\
         \"alloc_total\": {alloc_count},\n\"alloc_bytes\": {alloc_bytes},\n\
         \"heartbeats\": {hb},\n\"driver_phase_ns\": {{{phases}}}\n}}\n",
        cycles = prof.cycles,
        instrs = prof.instrs,
        wall = prof.wall_secs(),
        cps = prof.cycles_per_sec(),
        ips = prof.instrs_per_sec(),
        cov = prof.coverage(),
        apc = prof.allocs_per_cycle(),
        hb = prof.heartbeats.len(),
    );
    crisp_obs::json::validate(&json).expect("BENCH_host.json is valid JSON");
    std::fs::write("BENCH_host.json", &json).expect("write BENCH_host.json");
    println!("(saved to BENCH_host.json)");

    // Accuracy contract: the phase attribution must account for ≥90% of
    // the measured wall-clock.
    let cov = prof.coverage();
    if cov < 0.90 {
        eprintln!(
            "hostprof: FAIL — phase attribution covers only {:.1}% of \
             measured wall-clock (need ≥90%)",
            cov * 100.0
        );
        std::process::exit(1);
    }
    println!("phase attribution covers {:.1}% of wall-clock", cov * 100.0);
}
