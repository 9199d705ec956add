//! Partitioning study: one graphics+compute pair under every partition
//! method the simulator supports (paper Figure 4's design space).
//!
//! Run with:
//! ```sh
//! cargo run --release --example partitioning_study
//! ```

use crisp_core::prelude::*;
use crisp_core::{concurrent_bundle, simulate, COMPUTE_STREAM, GRAPHICS_STREAM};

fn main() {
    let gpu = GpuConfig::jetson_orin();
    let scene = Scene::build(SceneId::Pistol, 0.4);
    let (w, h) = crisp_core::Resolution::Tiny.dims();
    let scale = ComputeScale { factor: 0.4 };

    let specs: Vec<(&str, PartitionSpec)> = vec![
        ("Greedy", PartitionSpec::greedy()),
        (
            "MPS-even",
            PartitionSpec::mps_even(&gpu, GRAPHICS_STREAM, COMPUTE_STREAM),
        ),
        (
            "MiG-even",
            PartitionSpec::mig_even(&gpu, GRAPHICS_STREAM, COMPUTE_STREAM),
        ),
        (
            "FG-even",
            PartitionSpec::fg_even(&gpu, GRAPHICS_STREAM, COMPUTE_STREAM),
        ),
        (
            "FG-dynamic",
            PartitionSpec::fg_dynamic(SlicerConfig::default()),
        ),
        (
            "MPS+TAP",
            PartitionSpec::tap_even(&gpu, GRAPHICS_STREAM, COMPUTE_STREAM, TapConfig::default()),
        ),
    ];

    println!("PT + NN on {}:\n", gpu.name);
    println!(
        "{:<12} {:>12} {:>12} {:>12} {:>10}",
        "policy", "makespan", "gfx cycles", "nn cycles", "L2 hit"
    );
    let mut baseline = None;
    for (name, spec) in specs {
        let frame = scene.render(w, h, false, GRAPHICS_STREAM);
        let compute = nn(COMPUTE_STREAM, scale);
        let r = simulate(gpu.clone(), spec, concurrent_bundle(frame.trace, compute));
        let makespan = r.makespan();
        let base = *baseline.get_or_insert(makespan);
        println!(
            "{:<12} {:>12} {:>12} {:>12} {:>9.1}%  ({:.2}x vs Greedy)",
            name,
            makespan,
            r.per_stream[&GRAPHICS_STREAM].stats.finish_cycle,
            r.per_stream[&COMPUTE_STREAM].stats.finish_cycle,
            r.l2_stats.total().hit_rate() * 100.0,
            base as f64 / makespan as f64,
        );
    }
}
