//! Cross-crate integration tests: scene → pipeline → trace → timing model.

use crisp_core::prelude::*;
use crisp_core::{simulate, Resolution, GRAPHICS_STREAM};
use crisp_trace::TraceBundle;

fn render_cycles(id: SceneId, detail: f32, w: u32, h: u32, gpu: &GpuConfig) -> u64 {
    let scene = Scene::build(id, detail);
    let f = scene.render(w, h, false, GRAPHICS_STREAM);
    simulate(
        gpu.clone(),
        PartitionSpec::greedy(),
        TraceBundle::from_streams(vec![f.trace]),
    )
    .cycles
}

#[test]
fn more_pixels_cost_more_cycles() {
    // The paper's Figure 6 shows the framework "correctly projects the
    // slowdown introduced by extra rendered pixels".
    let gpu = GpuConfig::test_tiny();
    let small = render_cycles(SceneId::SponzaKhronos, 0.2, 96, 54, &gpu);
    let large = render_cycles(SceneId::SponzaKhronos, 0.2, 192, 108, &gpu);
    assert!(
        large as f64 > small as f64 * 1.5,
        "4x pixels must cost clearly more: {small} -> {large}"
    );
}

#[test]
fn vertex_bound_scene_scales_sublinearly_with_resolution() {
    // Planets is vertex-bound: "despite 4X more pixels needing to be
    // shaded, scaling from 2K to 4K is only 20% slower". At test scale we
    // assert the scaling is much weaker than fragment-bound scenes'.
    let gpu = GpuConfig::test_tiny();
    let s = render_cycles(SceneId::Planets, 0.4, 96, 54, &gpu);
    let l = render_cycles(SceneId::Planets, 0.4, 192, 108, &gpu);
    let planets_scaling = l as f64 / s as f64;
    let s2 = render_cycles(SceneId::SponzaKhronos, 0.2, 96, 54, &gpu);
    let l2 = render_cycles(SceneId::SponzaKhronos, 0.2, 192, 108, &gpu);
    let sponza_scaling = l2 as f64 / s2 as f64;
    assert!(
        planets_scaling < sponza_scaling,
        "vertex-bound scene must scale less with resolution: planets {planets_scaling:.2} vs sponza {sponza_scaling:.2}"
    );
}

#[test]
fn pbr_frames_cost_more_than_basic() {
    let gpu = GpuConfig::test_tiny();
    let basic = render_cycles(SceneId::SponzaKhronos, 0.2, 96, 54, &gpu);
    let pbr = render_cycles(SceneId::SponzaPbr, 0.2, 96, 54, &gpu);
    assert!(
        pbr as f64 > basic as f64 * 1.5,
        "8-map PBR must cost more: basic {basic}, pbr {pbr}"
    );
}

#[test]
fn lod_off_increases_l1_texture_accesses_in_simulation() {
    // Figure 9 end-to-end: replay both traces through the timing model and
    // compare actual unified-L1 texture accesses.
    let gpu = GpuConfig::test_tiny();
    let scene = Scene::build(SceneId::SponzaKhronos, 0.2);
    let run = |lod0: bool| {
        let f = scene.render(128, 72, lod0, GRAPHICS_STREAM);
        let r = simulate(
            gpu.clone(),
            PartitionSpec::greedy(),
            TraceBundle::from_streams(vec![f.trace]),
        );
        r.l1_stats.class_total(DataClass::Texture).accesses
    };
    let on = run(false);
    let off = run(true);
    assert!(
        off as f64 > on as f64 * 2.0,
        "disabling LoD must inflate L1 texture accesses: {on} -> {off}"
    );
}

#[test]
fn orin_and_rtx_both_complete_graphics_frames() {
    for gpu in [GpuConfig::jetson_orin(), GpuConfig::rtx3070()] {
        let scene = Scene::build(SceneId::MaterialTesters, 0.2);
        let (w, h) = Resolution::Tiny.dims();
        let f = scene.render(w, h, false, GRAPHICS_STREAM);
        let r = simulate(
            gpu.clone(),
            PartitionSpec::greedy(),
            TraceBundle::from_streams(vec![f.trace]),
        );
        let st = &r.per_stream[&GRAPHICS_STREAM].stats;
        assert!(st.instructions > 0, "{}", gpu.name);
        assert!(
            st.kernels >= 2 * 9,
            "{}: one VS+FS pair per drawcall",
            gpu.name
        );
        assert!(r.l2_stats.total().hit_rate() > 0.0, "{}", gpu.name);
    }
}

#[test]
fn bigger_gpu_finishes_faster() {
    let scene = Scene::build(SceneId::SponzaPbr, 0.3);
    let f_orin = scene.render(160, 90, false, GRAPHICS_STREAM);
    let f_rtx = scene.render(160, 90, false, GRAPHICS_STREAM);
    let orin = simulate(
        GpuConfig::jetson_orin(),
        PartitionSpec::greedy(),
        TraceBundle::from_streams(vec![f_orin.trace]),
    )
    .cycles;
    let rtx = simulate(
        GpuConfig::rtx3070(),
        PartitionSpec::greedy(),
        TraceBundle::from_streams(vec![f_rtx.trace]),
    )
    .cycles;
    assert!(rtx < orin, "46 SMs must beat 14: orin {orin}, rtx {rtx}");
}

#[test]
fn simulation_is_deterministic() {
    let gpu = GpuConfig::test_tiny();
    let run = || {
        let scene = Scene::build(SceneId::Platformer, 0.2);
        let f = scene.render(96, 54, false, GRAPHICS_STREAM);
        let compute = vio(crisp_core::COMPUTE_STREAM, ComputeScale::tiny());
        let spec = PartitionSpec::fg_even(&gpu, GRAPHICS_STREAM, crisp_core::COMPUTE_STREAM);
        let r = simulate(
            gpu.clone(),
            spec,
            crisp_core::concurrent_bundle(f.trace, compute),
        );
        (
            r.cycles,
            r.per_stream[&GRAPHICS_STREAM].stats.instructions,
            r.l2_stats.total().accesses,
        )
    };
    assert_eq!(run(), run(), "two identical runs must match exactly");
}

#[test]
fn framebuffer_and_trace_agree_on_fragment_count() {
    let scene = Scene::build(SceneId::Pistol, 0.2);
    let f = scene.render(128, 72, false, GRAPHICS_STREAM);
    // Every shaded fragment stores exactly one colour; a fragment kernel
    // lane count equals the fragment count.
    let fs_threads: u64 = f
        .trace
        .kernels()
        .filter(|k| k.name.starts_with("fs:"))
        .map(|k| {
            k.ctas
                .iter()
                .flat_map(|c| c.warps.iter())
                .map(|w| {
                    // Count lanes of the colour store (the last store).
                    w.iter()
                        .filter_map(|i| i.mem)
                        .rfind(|m| m.space == crisp_trace::Space::Global && !m.addrs.is_empty())
                        .map(|m| m.addrs.len() as u64)
                        .unwrap_or(0)
                })
                .sum::<u64>()
        })
        .sum();
    assert_eq!(
        fs_threads,
        f.stats.fragments(),
        "colour stores must cover every fragment"
    );
}

#[test]
fn front_to_back_draw_order_shades_fewer_fragments() {
    // Early-Z only helps when occluders are drawn first: reversing the
    // draw order of an occluded scene must increase shaded fragments
    // (overdraw), never decrease them.
    let scene = Scene::build(SceneId::Platformer, 0.3);
    let forward = scene.render(160, 90, false, GRAPHICS_STREAM);
    let mut reversed_scene = scene.clone();
    reversed_scene.draws.reverse();
    let reversed = reversed_scene.render(160, 90, false, GRAPHICS_STREAM);
    // Same final image coverage either way (z-buffering is order-independent
    // for opaque geometry) ...
    assert_eq!(
        forward.framebuffer.coverage(),
        reversed.framebuffer.coverage()
    );
    // ... but the shaded-fragment count depends on the order.
    assert_ne!(
        forward.stats.fragments(),
        reversed.stats.fragments(),
        "draw order must change overdraw"
    );
}

#[test]
fn rendering_is_deterministic_at_the_pixel_level() {
    let scene = Scene::build(SceneId::MaterialTesters, 0.2);
    let a = scene.render(128, 72, false, GRAPHICS_STREAM);
    let b = scene.render(128, 72, false, GRAPHICS_STREAM);
    assert!(
        a.framebuffer.psnr(&b.framebuffer).is_infinite(),
        "identical frames"
    );
    assert_eq!(a.trace, b.trace, "identical traces");
}
