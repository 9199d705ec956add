//! Allocation budget for trace decoding: reading a CRSP container back must
//! not touch the allocator once per decoded warp instruction.
//!
//! A decoded warp is two buffers (its fixed-size instruction records and
//! its flat lane-address list), filled through a scratch warp the source
//! reuses across CTAs, so what is left is a few allocations per warp, CTA
//! and kernel.
//!
//! This binary installs the counting global allocator (feature
//! `alloc-profile`, `required-features` in the Cargo manifest) and is kept
//! to a SINGLE test: the counters are process-global, and the libtest
//! harness runs tests on concurrent threads, so a second test in this
//! binary would pollute the measurement.

use crisp_core::prelude::*;
use crisp_obs::alloc;
use crisp_trace::{codec, TraceBundle, TraceInput};

#[global_allocator]
static ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;

/// Allocations allowed per decoded warp instruction.
const BUDGET: f64 = 0.05;

#[test]
fn decoding_allocates_well_under_once_per_instruction() {
    let scene = Scene::build(SceneId::SponzaPbr, 0.2);
    let frame = scene.render(160, 90, false, GRAPHICS_STREAM);
    let bundle = TraceBundle::from_streams(vec![frame.trace]);
    let mut bytes = Vec::new();
    codec::write_bundle(&bundle, &mut bytes).expect("encode");

    alloc::reset();
    alloc::enable();
    let decoded = TraceInput::reader(std::io::Cursor::new(bytes))
        .open()
        .and_then(|mut src| src.to_bundle());
    alloc::disable();
    let allocs = alloc::total_count();

    assert_eq!(decoded.expect("decode"), bundle, "decoding must round-trip");
    let instrs = bundle.streams[0].instr_count();
    let per_instr = allocs as f64 / instrs as f64;
    println!(
        "{allocs} allocations for {instrs} warp instructions = {per_instr:.3} per instruction"
    );
    assert!(
        per_instr <= BUDGET,
        "decoding made {allocs} allocations for {instrs} warp instructions \
         ({per_instr:.3} each, budget {BUDGET})"
    );
}
