//! The `pair` and `resume` workloads: one paper-scale concurrent
//! render+compute simulation per iteration, from scene build to result.

use std::io::Write as _;
use std::path::Path;

use crisp_analyze::{AnalysisConfig, InterferenceSpec};
use crisp_core::{concurrent_bundle, COMPUTE_STREAM, GRAPHICS_STREAM};
use crisp_gfx::{Mat4, RenderConfig, Renderer};
use crisp_obs::HostPhase;
use crisp_scenes::{holo, nn, ComputeScale, Scene, SceneId};
use crisp_sim::{
    GpuConfig, GpuSim, LintLevel, PartitionSpec, SimResult, Simulation, SimulationBuilder,
    Telemetry,
};
use crisp_trace::{codec, Stream, TraceBundle};

use crate::bench::{count_allocs, Ctx, Samples, ITERATION};

/// Seeds map onto this many camera positions, so the recorded references
/// cover every seed.
pub const VARIANTS: u64 = 8;

/// Camera rotation between variants, about the axis
/// `Scene::render_sequence` orbits. A twelfth of its per-frame step, so
/// the variants change the simulated work by under 4%.
const ORBIT_STEP: f32 = 0.005;

/// Render resolution of both pairs (the paper's scaled 2K point).
const RES: (u32, u32) = (640, 360);

/// NN grid scale on `resume`: at 1.0 its cycle loop is too short to
/// measure against the set-up around it.
const NN_FACTOR: f32 = 8.0;

/// Cycles between `resume`'s periodic checkpoints.
const CKPT_EVERY: u64 = 10_000;

/// The camera variant a seed selects.
pub fn variant(seed: u64) -> u64 {
    seed % VARIANTS
}

/// One frame of `scene` with the camera orbited to `variant`, the way
/// `Scene::render_sequence` orbits it. Returns the graphics stream and
/// the fragment count.
fn render_orbit(scene: &Scene, variant: u64) -> (Stream, u64) {
    let vp = scene
        .view_proj
        .mul(&Mat4::rotate_y(variant as f32 * ORBIT_STEP));
    let mut cfg = RenderConfig::new(RES.0, RES.1);
    cfg.stream = GRAPHICS_STREAM;
    let mut r = Renderer::new(cfg);
    let trace = r.render(&scene.draws, &vp);
    (trace, r.stats().fragments())
}

/// Build the scene, render it and generate the compute stream.
fn generate(
    ctx: &mut Ctx,
    id: SceneId,
    variant: u64,
    compute: impl FnOnce() -> Stream,
) -> TraceBundle {
    let t = ctx.tracer.begin("scenes.build");
    let scene = Scene::build(id, 1.0);
    let build_s = ctx.tracer.end(t);
    let t = ctx.tracer.begin("gfx.render");
    let (graphics, fragments) = render_orbit(&scene, variant);
    drop(scene);
    let render_s = ctx.tracer.end(t);
    let t = ctx.tracer.begin("scenes.compute_gen");
    let bundle = concurrent_bundle(graphics, compute());
    let gen_s = ctx.tracer.end(t);
    let s = ctx.samples();
    s.push("scenes.build_s", build_s);
    s.push("gfx.render_s", render_s);
    s.push("gfx.fragments", fragments as f64);
    s.push(
        "gfx.ns_per_fragment",
        render_s * 1e9 / fragments.max(1) as f64,
    );
    s.push("scenes.compute_gen_s", gen_s);
    bundle
}

/// Both pairs run on the RTX 3070 model under an even intra-SM split,
/// on one thread, with periodic telemetry off.
fn builder(traced: bool) -> SimulationBuilder {
    let gpu = GpuConfig::rtx3070();
    Simulation::builder()
        .partition(PartitionSpec::fg_even(
            &gpu,
            GRAPHICS_STREAM,
            COMPUTE_STREAM,
        ))
        .gpu(gpu)
        .threads(1)
        .telemetry(Telemetry::NONE)
        .host_profile(traced)
}

/// The simulated results a run must reproduce exactly.
pub fn digest(r: &SimResult) -> String {
    let mut s = format!("cycles={}", r.cycles);
    for (id, st) in &r.per_stream {
        s += &format!(
            " {id}:instrs={},dram_bytes={}",
            st.stats.instructions, st.dram_bytes
        );
    }
    for (level, m) in [("l1", &r.l1_stats), ("l2", &r.l2_stats)] {
        let t = m.total();
        s += &format!(" {level}={}/{}/{}", t.accesses, t.hits, t.misses);
    }
    s
}

/// Per-layer figures of one traced simulation: the simulator's own phase
/// times and allocation count, plus the modelled components' counts.
fn record_layers(s: &mut Samples, r: &SimResult) {
    let instrs: u64 = r.per_stream.values().map(|p| p.stats.instructions).sum();
    let l1 = r.l1_stats.total();
    let l2 = r.l2_stats.total();
    let st = r.stalls();
    let slots = (st.issued + st.blocked + st.empty).max(1) as f64;
    s.push("sim.cycles", r.cycles as f64);
    s.push("sim.instrs", instrs as f64);
    s.push("sm.issue_efficiency", st.issue_efficiency());
    s.push("sm.stall.mem_pending_frac", st.mem_pending as f64 / slots);
    s.push("sm.stall.mshr_full_frac", st.mshr_full as f64 / slots);
    s.push("sm.slots.empty_frac", st.empty as f64 / slots);
    s.push("mem.l1.accesses", l1.accesses as f64);
    s.push("mem.l1.hit_rate", l1.hit_rate());
    s.push("mem.l2.accesses", l2.accesses as f64);
    s.push("mem.l2.hit_rate", l2.hit_rate());
    let dram: u64 = r.per_stream.values().map(|p| p.dram_bytes).sum();
    s.push("mem.dram.bytes", dram as f64);
    if let Some(h) = &r.host_profile {
        let secs = |p| h.driver.get(p) as f64 / 1e9;
        s.push("sim.preflight_s", secs(HostPhase::Preflight));
        s.push("analyze.s", secs(HostPhase::Analyze));
        s.push("sim.dispatch_s", secs(HostPhase::Dispatch));
        s.push("sim.port_drain_s", secs(HostPhase::PortDrain));
        s.push("sim.export_s", secs(HostPhase::Export));
        s.push("sm.execute_s", secs(HostPhase::Execute));
        s.push("mem.tick_s", secs(HostPhase::MemTick));
        s.push(
            "sm.ns_per_instr",
            h.driver.get(HostPhase::Execute) as f64 / instrs.max(1) as f64,
        );
        s.push(
            "mem.ns_per_l2_access",
            h.driver.get(HostPhase::MemTick) as f64 / l2.accesses.max(1) as f64,
        );
        s.push("sim.allocs_per_cycle", h.allocs_per_cycle());
    }
}

fn sim_err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// `pair`: SPH at 640×360 with HOLO, from a materialized bundle.
pub fn pair(ctx: &mut Ctx) {
    let v = variant(ctx.seed);
    ctx.measure(1, |ctx| {
        let traced = ctx.tracer.enabled();
        let it = ctx.tracer.begin(ITERATION);
        let bundle = generate(ctx, SceneId::SponzaPbr, v, || {
            holo(COMPUTE_STREAM, ComputeScale::default())
        });
        let t = ctx.tracer.begin("sim.try_build");
        count_allocs(traced);
        let mut sim = builder(traced).trace(bundle).try_build().map_err(sim_err)?;
        let build_s = ctx.tracer.end(t);
        let setup_s = it.elapsed();
        let t = ctx.tracer.begin("sim.run");
        let result = sim.run().map_err(sim_err)?;
        count_allocs(false);
        drop(sim);
        let run_s = ctx.tracer.end(t);
        let wall_s = ctx.tracer.end(it);

        let s = ctx.samples();
        s.push("setup_s", setup_s);
        s.push("wall_s", wall_s);
        s.push("sim_cycles_per_s", result.cycles as f64 / run_s);
        s.push("sim.build_s", build_s);
        s.push("sim.run_s", run_s);
        if traced {
            record_layers(s, &result);
        }
        ctx.report.check(true, String::new);
        ctx.report.output(format!("pair/{v}"), digest(&result));
        Ok(())
    });
    if ctx.trace {
        shard_speedup(ctx, v);
    }
}

/// `sim.shard_speedup_2t`: the cycle loop on one thread against two, on
/// the same inputs; the two results must also be identical.
fn shard_speedup(ctx: &mut Ctx, v: u64) {
    let mut runs = Vec::new();
    for threads in [1, 2] {
        let bundle = generate(ctx, SceneId::SponzaPbr, v, || {
            holo(COMPUTE_STREAM, ComputeScale::default())
        });
        let sim = builder(false).threads(threads).trace(bundle).try_build();
        let t = ctx.tracer.begin("sim.run_threads");
        let result = sim.and_then(|mut sim| sim.run());
        let secs = ctx.tracer.end(t);
        match result {
            Ok(r) => runs.push((digest(&r), secs)),
            Err(e) => return ctx.report.check(false, || e.to_string()),
        }
    }
    let same = runs[0].0 == runs[1].0;
    ctx.report
        .check(same, || "1-thread and 2-thread results differ".into());
    ctx.traced
        .push("sim.shard_speedup_2t", runs[0].1 / runs[1].1);
}

/// `resume`: IT (Planets) with a scaled-up NN, encoded once to a CRSP v2
/// container and streamed from it, linted at build, checkpointed
/// periodically, then restored from the middle checkpoint and finished.
pub fn resume(ctx: &mut Ctx) {
    let v = variant(ctx.seed);
    let container = ctx.work.join(format!("resume-{}.crsp", std::process::id()));
    ctx.measure(1, |ctx| resume_iteration(ctx, v, &container));
    let _ = std::fs::remove_file(&container);
    if ctx.trace {
        count_findings(ctx, v);
    }
}

/// `analyze.findings`: what the analyzer reports on the `resume` pair
/// under the configuration the build's lint pass uses.
fn count_findings(ctx: &mut Ctx, v: u64) {
    let bundle = resume_bundle(ctx, v);
    let cfg = AnalysisConfig {
        interference: Some(InterferenceSpec::shared(GpuConfig::rtx3070().l2_bytes)),
        ..AnalysisConfig::default()
    };
    let t = ctx.tracer.begin("analyze.bundle");
    let report = crisp_analyze::analyze_bundle(&bundle, &cfg);
    ctx.tracer.end(t);
    ctx.traced
        .push("analyze.findings", report.diagnostics.len() as f64);
}

fn encode(bundle: &TraceBundle, path: &Path) -> std::io::Result<u64> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    codec::write_bundle(bundle, &mut w)?;
    w.flush()?;
    Ok(std::fs::metadata(path)?.len())
}

/// The pair `resume` encodes and streams (also the self-test's input).
pub fn resume_bundle(ctx: &mut Ctx, v: u64) -> TraceBundle {
    generate(ctx, SceneId::Planets, v, || {
        nn(COMPUTE_STREAM, ComputeScale { factor: NN_FACTOR })
    })
}

fn resume_iteration(ctx: &mut Ctx, v: u64, container: &Path) -> Result<(), String> {
    let traced = ctx.tracer.enabled();
    let it = ctx.tracer.begin(ITERATION);
    let bundle = resume_bundle(ctx, v);
    let t = ctx.tracer.begin("trace.encode");
    let bytes = encode(&bundle, container).map_err(sim_err)?;
    drop(bundle);
    let encode_s = ctx.tracer.end(t);
    let t = ctx.tracer.begin("sim.try_build");
    count_allocs(traced);
    let mut sim = builder(traced)
        .analyze(LintLevel::Errors)
        .trace(container.to_path_buf())
        .try_build()
        .map_err(sim_err)?;
    let build_s = ctx.tracer.end(t);
    let setup_s = it.elapsed();

    let (mut run_s, mut write_s, mut ckpt_bytes) = (0.0, 0.0, 0usize);
    let mut ckpts: Vec<Vec<u8>> = Vec::new();
    let mut next = CKPT_EVERY;
    loop {
        let t = ctx.tracer.begin("sim.run");
        let done = sim.run_until(next).map_err(sim_err)?;
        run_s += ctx.tracer.end(t);
        if done {
            break;
        }
        let t = ctx.tracer.begin("ckpt.write");
        let mut buf = Vec::new();
        sim.write_checkpoint(&mut buf).map_err(sim_err)?;
        write_s += ctx.tracer.end(t);
        ckpt_bytes += buf.len();
        ckpts.push(buf);
        next += CKPT_EVERY;
    }
    let t = ctx.tracer.begin("sim.run");
    let result = sim.run().map_err(sim_err)?;
    count_allocs(false);
    drop(sim);
    run_s += ctx.tracer.end(t);
    let middle = ckpts
        .get(ckpts.len() / 2)
        .ok_or("the run ended before its first checkpoint")?;
    let t = ctx.tracer.begin("ckpt.read");
    let mut restored = GpuSim::read_checkpoint(&middle[..]).map_err(sim_err)?;
    let read_s = ctx.tracer.end(t);
    let t = ctx.tracer.begin("sim.run_resumed");
    let resumed = restored.run().map_err(sim_err)?;
    drop(restored);
    ctx.tracer.end(t);
    let wall_s = ctx.tracer.end(it);

    let s = ctx.samples();
    s.push("setup_s", setup_s);
    s.push("wall_s", wall_s);
    s.push("sim_cycles_per_s", result.cycles as f64 / run_s);
    s.push("trace.encode_s", encode_s);
    s.push("trace.container_bytes", bytes as f64);
    s.push("sim.build_s", build_s);
    s.push("sim.run_s", run_s);
    s.push("ckpt.write_s", write_s);
    s.push("ckpt.read_s", read_s);
    s.push("ckpt.bytes", ckpt_bytes as f64);
    s.push("ckpt.count", ckpts.len() as f64);
    if traced {
        s.push("trace.ctas_decoded", result.trace.ctas_decoded as f64);
        s.push("trace.bytes_decoded", result.trace.bytes_decoded as f64);
        s.push(
            "trace.peak_resident_bytes",
            result.trace.peak_resident_bytes as f64,
        );
        record_layers(s, &result);
    }
    let same = digest(&resumed) == digest(&result) && resumed.metrics_csv() == result.metrics_csv();
    ctx.report.check(same, || {
        format!(
            "resume/{v}: the run restored from the middle checkpoint differs from the \
             uninterrupted run: {} vs {}",
            digest(&resumed),
            digest(&result)
        )
    });
    ctx.report.output(format!("resume/{v}"), digest(&result));
    Ok(())
}
