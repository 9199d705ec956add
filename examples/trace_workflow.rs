//! The artifact workflow: collect traces once, replay them many times.
//!
//! CRISP is trace-driven — the paper's artifact ships pre-collected traces
//! precisely so simulations can run without the tracing frontend. This
//! example collects a rendering + compute bundle, saves it in the compact
//! CRSP binary format, then replays it under two different partition
//! policies by **streaming straight from the file**: handing `.trace(..)` a
//! path demand-pages each CTA's instructions on first dispatch and drops
//! them at commit, so peak memory tracks the in-flight window, not the
//! container size. Each replay also lints the trace at
//! [`LintLevel::Errors`]: the pre-flight validates and lints each kernel
//! from one page-in, before the first cycle.
//!
//! Run with:
//! ```sh
//! cargo run --release --example trace_workflow
//! ```

use crisp_core::prelude::*;
use crisp_core::{concurrent_bundle, COMPUTE_STREAM, GRAPHICS_STREAM};
use crisp_sim::LintLevel;
use crisp_trace::codec;

fn main() -> std::io::Result<()> {
    // 1. Collect: render a frame and generate the compute kernels.
    let scene = Scene::build(SceneId::MaterialTesters, 0.4);
    let frame = scene.render(160, 90, false, GRAPHICS_STREAM);
    let bundle = concurrent_bundle(frame.trace, nn(COMPUTE_STREAM, ComputeScale::tiny()));
    println!(
        "collected bundle: {} streams, {} instructions",
        bundle.streams.len(),
        bundle.instr_count()
    );

    // 2. Save in the CRSP binary format.
    let path = std::env::temp_dir().join("crisp_example.crsp");
    codec::save(&bundle, &path)?;
    let size = std::fs::metadata(&path)?.len();
    println!(
        "saved to {} ({} KiB, {:.2} bytes/instruction)",
        path.display(),
        size / 1024,
        size as f64 / bundle.instr_count() as f64
    );

    // 3. Replay under two policies, streaming CTAs straight from the file.
    let gpu = GpuConfig::jetson_orin();
    for (name, spec) in [
        ("greedy", PartitionSpec::greedy()),
        (
            "fg-even",
            PartitionSpec::fg_even(&gpu, GRAPHICS_STREAM, COMPUTE_STREAM),
        ),
    ] {
        let r = Simulation::builder()
            .gpu(gpu.clone())
            .partition(spec)
            .trace(path.as_path())
            .analyze(LintLevel::Errors)
            .run()
            .unwrap_or_else(|e| panic!("{e}"));
        println!(
            "replay [{name:8}]: {} cycles, peak resident trace {} KiB \
             (container {} KiB, {} CTA fetches)",
            r.cycles,
            r.trace.peak_resident_bytes / 1024,
            size / 1024,
            r.trace.ctas_decoded,
        );
    }
    std::fs::remove_file(path)?;
    Ok(())
}
