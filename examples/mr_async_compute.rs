//! Mixed-reality async compute: does offloading system tasks to the GPU
//! alongside rendering pay off, or should they run serially?
//!
//! The paper's motivation (Section II-A): MR systems run VIO, hologram
//! processing and eye-segmentation NNs next to the rendering pipeline, and
//! "running the algorithms on the GPUs naively with the rendering workloads
//! causes resource contention". This example quantifies that trade-off for
//! all three system tasks on the Jetson Orin model.
//!
//! Run with:
//! ```sh
//! cargo run --release --example mr_async_compute
//! ```

use crisp_core::prelude::*;
use crisp_core::{concurrent_bundle, simulate, COMPUTE_STREAM, GRAPHICS_STREAM};

fn main() {
    let gpu = GpuConfig::jetson_orin();
    let scene = Scene::build(SceneId::SponzaPbr, 0.4);
    let (w, h) = crisp_core::Resolution::Tiny.dims();
    let scale = ComputeScale { factor: 0.4 };

    println!(
        "MR workload study on {} (SPH rendering + system task)\n",
        gpu.name
    );
    println!(
        "{:<8} {:>12} {:>12} {:>10}",
        "task", "serial (cy)", "async (cy)", "speedup"
    );

    for (label, stream) in [
        ("VIO", vio(COMPUTE_STREAM, scale)),
        ("HOLO", holo(COMPUTE_STREAM, scale)),
        ("NN", nn(COMPUTE_STREAM, scale)),
    ] {
        let frame = scene.render(w, h, false, GRAPHICS_STREAM);

        // Serial: render the frame, then run the task (one stream).
        let mut serial = Stream::new(GRAPHICS_STREAM, StreamKind::Graphics);
        serial.commands = frame.trace.commands.clone();
        serial.commands.extend(stream.commands.clone());
        let serial_cycles = simulate(
            gpu.clone(),
            PartitionSpec::greedy(),
            TraceBundle::from_streams(vec![serial]),
        )
        .cycles;

        // Async compute: fine-grained intra-SM sharing.
        let spec = PartitionSpec::fg_even(&gpu, GRAPHICS_STREAM, COMPUTE_STREAM);
        let conc = simulate(gpu.clone(), spec, concurrent_bundle(frame.trace, stream));
        let conc_cycles = conc.makespan();

        println!(
            "{:<8} {:>12} {:>12} {:>9.2}x",
            label,
            serial_cycles,
            conc_cycles,
            serial_cycles as f64 / conc_cycles as f64
        );
    }
    println!("\n(speedup > 1 means async compute beats serial execution)");
}
