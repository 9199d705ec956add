//! Quickstart: render one frame of Sponza, pair it with the VIO compute
//! workload, and simulate both concurrently on the Jetson Orin model.
//!
//! Run with:
//! ```sh
//! cargo run --release --example quickstart
//! ```

use crisp_core::prelude::*;

fn main() {
    // 1. Build the scene and render one frame. Rendering is functional: it
    //    shades a framebuffer AND emits the instruction trace the timing
    //    model replays.
    let scene = Scene::build(SceneId::SponzaKhronos, 0.5);
    let (w, h) = crisp_core::Resolution::Tiny.dims();
    let frame = scene.render(w, h, false, crisp_core::GRAPHICS_STREAM);
    println!(
        "rendered {}x{h} frame: {} VS invocations, {} fragments, {} kernels",
        w,
        frame.stats.vs_invocations(),
        frame.stats.fragments(),
        frame.trace.kernel_count(),
    );

    // 2. Build the compute side: the VIO corner/flow kernel chain.
    let compute = vio(crisp_core::COMPUTE_STREAM, ComputeScale { factor: 0.5 });
    println!("VIO stream: {} kernels", compute.kernel_count());

    // 3. Simulate both streams concurrently under a fine-grained intra-SM
    //    partition (the async-compute configuration).
    let gpu = GpuConfig::jetson_orin();
    let spec = PartitionSpec::fg_even(
        &gpu,
        crisp_core::GRAPHICS_STREAM,
        crisp_core::COMPUTE_STREAM,
    );
    let result = Simulation::builder()
        .gpu(gpu.clone())
        .partition(spec)
        .trace(crisp_core::concurrent_bundle(frame.trace, compute))
        .run_or_panic();

    println!(
        "\nsimulated {} cycles ({:.3} ms at {} MHz)",
        result.cycles,
        gpu.cycles_to_ms(result.cycles),
        gpu.core_clock_mhz
    );
    for (id, r) in &result.per_stream {
        println!(
            "  {id}: {} instrs, IPC {:.2}, {} CTAs, {} KiB DRAM",
            r.stats.instructions,
            r.stats.ipc(),
            r.stats.ctas,
            r.dram_bytes / 1024,
        );
    }
    let l2 = result.l2_stats.total();
    println!(
        "  L2: {} accesses, {:.1}% hit rate; texture lines: {:.1}% of valid L2",
        l2.accesses,
        l2.hit_rate() * 100.0,
        result.l2_composition.class_fraction(DataClass::Texture) * 100.0,
    );
}
