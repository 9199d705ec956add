//! A full XR system frame on one GPU: rendering + asynchronous timewarp +
//! visual-inertial odometry, spatially sharing a Jetson Orin.
//!
//! This is the scenario the paper's introduction motivates: "MR systems
//! exhibit high computational diversity, making it inefficient and
//! impractical to develop custom accelerators for each task. GPUs can be
//! used to run these algorithms, but running the algorithms on the GPUs
//! naively with the rendering workloads causes resource contention."
//!
//! Three streams run concurrently under a fine-grained intra-SM partition
//! (rendering 1/2, timewarp 1/4, VIO 1/4) — the paper itself only
//! evaluates two-task partitions but notes the framework "can be easily
//! extended to support more than 2 workloads"; this example is that
//! extension.
//!
//! Run with:
//! ```sh
//! cargo run --release --example xr_system
//! ```

use crisp_core::prelude::*;
use crisp_core::simulate;
use crisp_scenes::timewarp;

fn main() {
    const GFX: StreamId = StreamId(0);
    const ATW: StreamId = StreamId(1);
    const VIO: StreamId = StreamId(2);

    let gpu = GpuConfig::jetson_orin();
    let (w, h) = crisp_core::Resolution::Tiny.dims();

    // The rendered scene (the MR world): a stereo side-by-side frame, the
    // layout the HMD compositor consumes — plus the two system services.
    let scene = Scene::build(SceneId::SponzaPbr, 0.4);
    let frame = scene.render_stereo(w, h, false, GFX, 0.6);
    let atw = timewarp(ATW, w, h, ComputeScale { factor: 0.5 });
    let vio_stream = vio(VIO, ComputeScale { factor: 0.5 });

    let spec = PartitionSpec::fg_fractions(&gpu, [(GFX, (4, 8)), (ATW, (2, 8)), (VIO, (2, 8))]);
    let bundle = TraceBundle::from_streams(vec![frame.trace, atw, vio_stream]);
    let r = simulate(gpu.clone(), spec, bundle);

    println!(
        "XR system frame on {} (stereo render + ATW + VIO, 3 concurrent streams):\n",
        gpu.name
    );
    println!(
        "{:<10} {:>12} {:>10} {:>8} {:>12}",
        "stream", "finish (cy)", "instrs", "IPC", "DRAM KiB"
    );
    for (name, id) in [("render", GFX), ("timewarp", ATW), ("vio", VIO)] {
        let s = &r.per_stream[&id];
        println!(
            "{:<10} {:>12} {:>10} {:>8.2} {:>12}",
            name,
            s.stats.finish_cycle,
            s.stats.instructions,
            s.stats.ipc(),
            s.dram_bytes / 1024
        );
    }
    let makespan = r.makespan();
    println!(
        "\nframe + services makespan: {} cycles ({:.3} ms) — MTP budget is 15-20 ms",
        makespan,
        gpu.cycles_to_ms(makespan)
    );
    println!(
        "L2: {:.1}% hit; composition: {:.0}% texture / {:.0}% pipeline / {:.0}% compute",
        r.l2_stats.total().hit_rate() * 100.0,
        r.l2_composition.class_fraction(DataClass::Texture) * 100.0,
        r.l2_composition.class_fraction(DataClass::Pipeline) * 100.0,
        r.l2_composition.class_fraction(DataClass::Compute) * 100.0,
    );
}
