//! DLSS-style upscaling with async compute: render at half resolution and
//! super-sample with a tensor network, overlapping the upscaler with the
//! *next* frame's rendering.
//!
//! The paper's background section motivates exactly this: "the rendering
//! pipeline can begin processing the next frame while post-processing
//! operates on the previously rendered image. ... DLSS uses tensor cores
//! extensively, and fragment shaders use floating-point units. This makes
//! DLSS post-processing and the rendering pipeline suitable for async
//! compute to maximize system throughput."
//!
//! Run with:
//! ```sh
//! cargo run --release --example dlss_pipeline
//! ```

use crisp_core::prelude::*;
use crisp_core::{concurrent_bundle, simulate, COMPUTE_STREAM, GRAPHICS_STREAM};
use crisp_scenes::upscaler;
use crisp_trace::TraceBundle;

fn main() {
    let gpu = GpuConfig::jetson_orin();
    let scene = Scene::build(SceneId::SponzaPbr, 0.5);
    let scale = ComputeScale { factor: 0.6 };

    // Option A: render natively at full (scaled-)resolution.
    let native = scene.render(320, 180, false, GRAPHICS_STREAM);
    let native_cycles = simulate(
        gpu.clone(),
        PartitionSpec::greedy(),
        TraceBundle::from_streams(vec![native.trace]),
    )
    .cycles;

    // Option B: render at half resolution; the tensor upscaler runs as
    // async compute concurrently with the next frame's rendering (two
    // half-res frames + one upscale pass in flight).
    let mut low = scene.render(160, 90, false, GRAPHICS_STREAM);
    let next = scene.render(160, 90, false, GRAPHICS_STREAM);
    low.trace.commands.extend(next.trace.commands);
    let up = upscaler(COMPUTE_STREAM, scale);
    let r = simulate(
        gpu.clone(),
        PartitionSpec::fg_even(&gpu, GRAPHICS_STREAM, COMPUTE_STREAM),
        concurrent_bundle(low.trace, up),
    );
    let pipelined = r.makespan();
    // Two frames completed in `pipelined` cycles → per-frame cost:
    let per_frame = pipelined / 2;

    println!("DLSS-style pipeline study on {} (SPH):\n", gpu.name);
    println!("native render @320x180:             {native_cycles:>8} cycles/frame");
    println!("half-res render + async upscale:    {per_frame:>8} cycles/frame");
    println!(
        "speedup: {:.2}x  (upscaler tensor work overlaps fragment FP work)",
        native_cycles as f64 / per_frame as f64
    );
    println!(
        "\nupscaler stream: {} instrs, IPC {:.2}",
        r.per_stream[&COMPUTE_STREAM].stats.instructions,
        r.per_stream[&COMPUTE_STREAM].stats.ipc()
    );
}
