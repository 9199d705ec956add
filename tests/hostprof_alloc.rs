//! Zero-overhead opt-out: with `Telemetry::NONE` and host profiling
//! disabled, the simulator's steady-state cycle hot path must not touch the
//! allocator at all.
//!
//! This binary installs the counting global allocator (feature
//! `alloc-profile`, `required-features` in the Cargo manifest) and is kept
//! to a SINGLE test: the counters are process-global, and the libtest
//! harness runs tests on concurrent threads, so a second test in this
//! binary would pollute the window measurement.

use crisp_core::prelude::*;
use crisp_core::{concurrent_bundle, COMPUTE_STREAM, GRAPHICS_STREAM};
use crisp_obs::alloc;

#[global_allocator]
static ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;

/// Cycles the machine runs before we start looking for a clean window
/// (CTA launches, cache warm-up, and stat-map inserts happen early).
const WARMUP_CYCLES: u64 = 500;
/// Length of the allocation-free window the hot path must exhibit.
const WINDOW: u64 = 100;
/// How many cycles we are willing to scan for that window before giving up.
const SCAN_LIMIT: u64 = 20_000;

#[test]
fn steady_state_hot_path_is_allocation_free() {
    // Sanity: the counting allocator actually observes this binary.
    alloc::reset();
    alloc::enable();
    let v: Vec<u64> = Vec::with_capacity(32);
    drop(std::hint::black_box(v));
    alloc::disable();
    assert!(alloc::total_count() > 0, "counting allocator not installed");
    alloc::reset();

    let mut gpu = GpuConfig::test_tiny();
    gpu.n_sms = 4;
    let frame = Scene::build(SceneId::SponzaKhronos, 0.2).render(64, 36, false, GRAPHICS_STREAM);
    let bundle = concurrent_bundle(frame.trace, vio(COMPUTE_STREAM, ComputeScale::tiny()));
    let mut sim = Simulation::builder()
        .gpu(gpu)
        .telemetry(Telemetry::NONE)
        .trace(bundle)
        .try_build()
        .unwrap();

    let finished = sim.run_until(WARMUP_CYCLES).expect("warm-up run");
    assert!(
        !finished,
        "workload drained within the warm-up window — grow the trace"
    );

    // Single-step the cycle loop, counting allocations per cycle,
    // until we see WINDOW consecutive allocation-free cycles. Kernel
    // completions and fresh CTA launches legitimately allocate, so the
    // contract is "a steady-state window exists", not "every cycle is
    // clean" — but the window must show up well before the scan limit.
    let mut clean = 0u64;
    let mut best = 0u64;
    let mut dirty_cycles = 0u64;
    while best < WINDOW && sim.now() < WARMUP_CYCLES + SCAN_LIMIT {
        alloc::reset();
        alloc::enable();
        let stepped = sim.step();
        alloc::disable();
        stepped.expect("step");
        if alloc::total_count() == 0 {
            clean += 1;
            best = best.max(clean);
        } else {
            clean = 0;
            dirty_cycles += 1;
        }
        // Stop scanning once the machine drains: a parked simulator
        // trivially stops allocating, which would be a vacuous pass.
        if sim.run_until(sim.now()).expect("drain probe") {
            break;
        }
    }

    assert!(
        best >= WINDOW,
        "no {WINDOW}-cycle allocation-free window in {SCAN_LIMIT} cycles \
         ({dirty_cycles} allocating cycles seen) — the Telemetry::NONE hot \
         path regressed to allocating per cycle"
    );
}
