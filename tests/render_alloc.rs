//! Allocation budget for trace generation: rendering a frame must not
//! touch the allocator once per generated warp instruction.
//!
//! The renderer keeps its texture-footprint scratch on the `Renderer`,
//! sizes each warp trace (instruction records and flat lane-address buffer)
//! up front and appends addresses straight into it, so what is left is
//! per-draw and per-warp bookkeeping: two buffers per warp, none per
//! instruction.
//!
//! This binary installs the counting global allocator (feature
//! `alloc-profile`, `required-features` in the Cargo manifest) and is kept
//! to a SINGLE test: the counters are process-global, and the libtest
//! harness runs tests on concurrent threads, so a second test in this
//! binary would pollute the measurement.

use crisp_core::prelude::*;
use crisp_obs::alloc;

#[global_allocator]
static ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;

/// Allocations allowed per generated warp instruction.
const BUDGET: f64 = 0.05;

#[test]
fn rendering_allocates_well_under_once_per_instruction() {
    let scene = Scene::build(SceneId::SponzaPbr, 0.2);
    alloc::reset();
    alloc::enable();
    let frame = scene.render(160, 90, false, GRAPHICS_STREAM);
    alloc::disable();
    let allocs = alloc::total_count();

    let instrs = frame.trace.instr_count();
    assert!(
        frame.stats.tex_instrs() > 5_000,
        "the frame must be texture-heavy: {} tex instructions",
        frame.stats.tex_instrs()
    );
    let per_instr = allocs as f64 / instrs as f64;
    println!(
        "{allocs} allocations for {instrs} warp instructions = {per_instr:.3} per instruction"
    );
    assert!(
        per_instr <= BUDGET,
        "rendering made {allocs} allocations for {instrs} warp instructions \
         ({per_instr:.3} each, budget {BUDGET})"
    );
}
