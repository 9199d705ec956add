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
//! The front end, scene build + render + compute-trace generation, runs
//! before the simulator exists, so its profile cannot see it. hostprof
//! times it and counts its allocations separately, prints both, and writes
//! them as `frontend_s` and `frontend_allocs_per_instr` (allocations per
//! generated warp instruction).
//!
//! The run fails (exit 1) when the phase attribution covers less than 90%
//! of measured wall-clock — the self-profiler's own accuracy contract — or
//! when fewer than 30% of busy SM-cycles were slept, which means the SM
//! sleep path stopped firing.
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

    #[cfg(feature = "alloc-profile")]
    crisp_obs::alloc::enable();
    let t0 = std::time::Instant::now();
    let frame = Scene::build(SceneId::SponzaPbr, s.detail).render(w, h, false, GRAPHICS_STREAM);
    let trace = concurrent_bundle(frame.trace, holo(COMPUTE_STREAM, s.compute));
    let frontend_s = t0.elapsed().as_secs_f64();
    #[cfg(feature = "alloc-profile")]
    let frontend_allocs = {
        crisp_obs::alloc::disable();
        let n = crisp_obs::alloc::total_count();
        // The simulator's profile counts from zero.
        crisp_obs::alloc::reset();
        n
    };
    #[cfg(not(feature = "alloc-profile"))]
    let frontend_allocs = 0;
    let frontend_instrs = trace.instr_count();
    let frontend_api = frontend_allocs as f64 / frontend_instrs.max(1) as f64;

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
    let report = format!(
        "{}front end (scene build + render + compute generation): {:.3} s, \
         {frontend_allocs} allocations for {frontend_instrs} warp instructions \
         ({frontend_api:.3} per instruction)\n",
        result.host_report(),
        frontend_s
    );
    crisp_bench::emit("hostprof", &report);
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
         \"sm_sleep_frac\": {sleep:.4},\n\"gpu_idle_frac\": {idle:.4},\n\"heartbeats\": {hb},\n\
         \"frontend_s\": {frontend_s:.4},\n\"frontend_allocs_per_instr\": {frontend_api:.4},\n\
         \"driver_phase_ns\": {{{phases}}}\n}}\n",
        cycles = prof.cycles,
        instrs = prof.instrs,
        wall = prof.wall_secs(),
        cps = prof.cycles_per_sec(),
        ips = prof.instrs_per_sec(),
        cov = prof.coverage(),
        apc = prof.allocs_per_cycle(),
        sleep = prof.sm_sleep_frac(),
        idle = prof.gpu_idle_frac(),
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

    // Sleep contract: busy SMs on this workload sit idle for a third or
    // more of their cycles (0.43 of SM-cycles slept at quick scale, 0.33 at
    // paper scale). The count is deterministic, so a fraction below the
    // floor means SMs stopped sleeping through cycles that do nothing.
    let sleep = prof.sm_sleep_frac();
    if sleep < MIN_SLEEP_FRAC {
        eprintln!(
            "hostprof: FAIL — only {:.1}% of busy SM-cycles slept (need ≥{:.0}%)",
            sleep * 100.0,
            MIN_SLEEP_FRAC * 100.0
        );
        std::process::exit(1);
    }
    println!("{:.1}% of busy SM-cycles slept", sleep * 100.0);
    // Reported, not gated: the cycles a jump to the next event could skip.
    println!(
        "{:.1}% of cycles had no SM tick",
        prof.gpu_idle_frac() * 100.0
    );
}

/// The smallest `sm_sleep_frac` the profiled workload may report.
const MIN_SLEEP_FRAC: f64 = 0.30;
