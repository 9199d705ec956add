//! Checkpoint/resume and ROI fast-forward: periodically checkpoint a
//! concurrent render+compute simulation, resume it mid-flight with
//! bit-identical results, then skip the warmup entirely with fast-forward
//! sampling.
//!
//! Run with:
//! ```sh
//! cargo run --release --example checkpoint_resume
//! ```

use crisp_core::prelude::*;
use crisp_core::{COMPUTE_STREAM, GRAPHICS_STREAM};

fn main() -> std::io::Result<()> {
    // A two-phase workload: one warmup frame + VIO chain, a marker, then
    // the region of interest (a second frame + chain with warm caches).
    let scene = Scene::build(SceneId::SponzaKhronos, 0.3);
    let (w, h) = (96, 54);
    let mut g = Stream::new(GRAPHICS_STREAM, StreamKind::Graphics);
    g.commands
        .extend(scene.render(w, h, false, GRAPHICS_STREAM).trace.commands);
    g.marker("roi");
    g.commands
        .extend(scene.render(w, h, false, GRAPHICS_STREAM).trace.commands);
    let mut c = vio(COMPUTE_STREAM, ComputeScale::tiny());
    c.marker("roi");
    c.commands
        .extend(vio(COMPUTE_STREAM, ComputeScale::tiny()).commands);
    let bundle = TraceBundle::from_streams(vec![g, c]);

    let gpu = GpuConfig::test_tiny();
    let spec = PartitionSpec::fg_even(&gpu, GRAPHICS_STREAM, COMPUTE_STREAM);
    let build = |trace: TraceBundle| {
        Simulation::builder()
            .gpu(gpu.clone())
            .partition(spec.clone())
            .trace(trace)
    };

    // 1. Run with periodic checkpointing: a full-state snapshot lands in
    //    target/ckpt-example every 50k cycles.
    let dir = std::path::Path::new("target/ckpt-example");
    let reference = build(bundle.clone())
        .checkpoint_every(50_000)
        .checkpoint_to(dir)
        .run_or_panic();
    println!("reference run: {} cycles", reference.cycles);

    // 2. Resume from the first checkpoint. The restored simulator finishes
    //    with identical statistics — and byte-identical exports.
    let ckpt = dir.join("ckpt-50000.ckpt");
    let mut resumed = Simulation::resume(&ckpt)?;
    println!("resumed from {} at cycle {}", ckpt.display(), resumed.now());
    let replay = resumed.run_or_panic();
    assert_eq!(replay.cycles, reference.cycles);
    assert_eq!(replay.per_stream, reference.per_stream);
    println!("resumed run matches: {} cycles", replay.cycles);

    // 3. Fast-forward sampling: skip everything before the "roi" marker —
    //    the warmup's memory footprint is replayed functionally (warming
    //    L1/L2/DRAM, charging zero cycles) and only the ROI is simulated
    //    in detail.
    let roi = build(bundle).fast_forward_to("roi").run_or_panic();
    println!(
        "ROI-only run: {} cycles ({} full), {} instructions",
        roi.cycles,
        reference.cycles,
        roi.per_stream
            .values()
            .map(|r| r.stats.instructions)
            .sum::<u64>(),
    );
    assert!(roi.cycles < reference.cycles);
    Ok(())
}
