//! Micro-benchmarks of the simulator's own building blocks plus an
//! end-to-end frame simulation. These measure *simulator* performance
//! (host-side), complementing the figure binaries that measure *simulated*
//! performance.
//!
//! The harness is hand-rolled (`std::time`) so the workspace stays free of
//! external crates and `cargo bench` works without registry access.

use std::time::Instant;

use crisp_core::prelude::*;
use crisp_core::{simulate, GRAPHICS_STREAM};
use crisp_trace::TraceBundle;

/// Run `f` repeatedly for a handful of timed iterations (after one warmup)
/// and report the best per-iteration time plus derived throughput.
fn bench<R>(name: &str, elements: u64, iters: u32, mut f: impl FnMut() -> R) {
    let _ = std::hint::black_box(f()); // warmup
    let mut best = f64::INFINITY;
    for _ in 0..iters {
        let t = Instant::now();
        let _ = std::hint::black_box(f());
        best = best.min(t.elapsed().as_secs_f64());
    }
    let rate = if best > 0.0 {
        elements as f64 / best
    } else {
        f64::INFINITY
    };
    println!(
        "{name:<28} {:>10.3} ms/iter {:>14.0} elems/s",
        best * 1e3,
        rate
    );
}

fn bench_cache() {
    use crisp_mem::{AccessKind, CacheCore, CacheGeometry, MemReq, ReqToken};
    bench("cache/l2_access_fill_mixed", 10_000, 20, || {
        let mut cache = CacheCore::new(CacheGeometry {
            size_bytes: 256 << 10,
            assoc: 16,
        });
        let w = (0, cache.num_sets());
        let tok = ReqToken { sm: 0, id: 0 };
        for i in 0..10_000u64 {
            let addr = (i * 97) % (1 << 22);
            let r = MemReq::read(addr, StreamId(0), DataClass::Compute, tok);
            if cache.access(&r, AccessKind::Read, w) != crisp_mem::AccessOutcome::Hit {
                let _ = cache.fill(
                    r.line_addr(),
                    r.sector_in_line(),
                    StreamId(0),
                    DataClass::Compute,
                    false,
                    w,
                );
            }
        }
        cache
    });
}

fn bench_raster() {
    use crisp_gfx::raster::{rasterize, ScreenVertex};
    use crisp_gfx::{Framebuffer, Vec2, Vec3, Vec4};
    let sv = |x: f32, y: f32, u: f32, v: f32| ScreenVertex {
        clip: Vec4::new(0.0, 0.0, 0.0, 1.0),
        sx: x,
        sy: y,
        z: 0.5,
        uv: Vec2::new(u, v),
        normal: Vec3::new(0.0, 0.0, 1.0),
        layer: 0,
    };
    bench("raster/triangle_256px", 256 * 256 / 2, 20, || {
        let mut fb = Framebuffer::new(256, 256);
        let tri = [
            sv(0.0, 0.0, 0.0, 0.0),
            sv(0.0, 256.0, 0.0, 1.0),
            sv(256.0, 256.0, 1.0, 1.0),
        ];
        let mut frags = 0usize;
        rasterize(&tri, &mut fb, |_| frags += 1);
        assert!(frags > 0);
        (fb, frags)
    });
}

fn bench_batching() {
    use crisp_gfx::batch::vs_invocation_count;
    // A 100×100 grid's index stream: ~60k indices with heavy reuse.
    let mut idx = Vec::new();
    let w = 100u32;
    for y in 0..w - 1 {
        for x in 0..w - 1 {
            let a = y * w + x;
            idx.extend_from_slice(&[a, a + 1, a + w, a + 1, a + w + 1, a + w]);
        }
    }
    bench(
        "batching/grid_100x100_b96",
        idx.len() as u64 / 3,
        20,
        || vs_invocation_count(std::hint::black_box(&idx), 96),
    );
}

fn bench_end_to_end() {
    let scene = Scene::build(SceneId::SponzaKhronos, 0.2);
    bench("e2e/sponza_frame_sim_tiny", 1, 5, || {
        let f = scene.render(96, 54, false, GRAPHICS_STREAM);
        let r = simulate(
            GpuConfig::test_tiny(),
            PartitionSpec::greedy(),
            TraceBundle::from_streams(vec![f.trace]),
        );
        r.cycles
    });
    let scene = Scene::build(SceneId::SponzaPbr, 0.2);
    let gpu = GpuConfig::test_tiny();
    bench("e2e/concurrent_pair_tiny", 1, 5, || {
        let f = scene.render(96, 54, false, GRAPHICS_STREAM);
        let compute = vio(crisp_core::COMPUTE_STREAM, ComputeScale::tiny());
        let spec = PartitionSpec::fg_even(&gpu, GRAPHICS_STREAM, crisp_core::COMPUTE_STREAM);
        let r = simulate(
            gpu.clone(),
            spec,
            crisp_core::concurrent_bundle(f.trace, compute),
        );
        r.cycles
    });
}

/// The CRSP codec. `codec/encode` counts container bytes; the decode rows
/// count decoded warp instructions, so 1e9 / elems/s is ns per
/// instruction. `codec/decode` opens the container and materializes it;
/// `codec/fetch_cta` pages every CTA of one open streaming source in and
/// out, the path dispatch, pre-flight, lint and checkpoint restore share.
fn bench_codec() {
    use crisp_trace::{codec, CommandMeta, TraceInput};
    let scene = Scene::build(SceneId::SponzaKhronos, 0.2);
    let frame = scene.render(96, 54, false, GRAPHICS_STREAM);
    let bundle = TraceBundle::from_streams(vec![frame.trace]);
    let instrs = bundle.instr_count() as u64;
    let mut buf = Vec::new();
    codec::write_bundle(&bundle, &mut buf).expect("encode");
    let bytes = buf.len() as u64;
    bench("codec/encode", bytes, 10, || {
        let mut out = Vec::with_capacity(buf.len());
        codec::write_bundle(std::hint::black_box(&bundle), &mut out).expect("encode");
        out
    });
    bench("codec/decode", instrs, 10, || {
        TraceInput::reader(std::io::Cursor::new(std::hint::black_box(&buf).clone()))
            .open()
            .and_then(|mut s| s.to_bundle())
            .expect("decode")
    });
    let mut src = TraceInput::reader(std::io::Cursor::new(buf.clone()))
        .open()
        .expect("open");
    let ctas: Vec<_> = src
        .streams()
        .iter()
        .flat_map(|s| &s.commands)
        .filter_map(|c| match c {
            CommandMeta::Launch { kernel, info } => Some((*kernel, info.grid)),
            CommandMeta::Marker(_) => None,
        })
        .flat_map(|(k, grid)| (0..grid).map(move |i| (k, i)))
        .collect();
    bench("codec/fetch_cta", instrs, 10, || {
        for &(k, i) in &ctas {
            std::hint::black_box(src.fetch_cta(k, i).expect("fetch"));
            src.release_cta(k, i);
        }
    });
}

/// Telemetry overhead: the same concurrent workload with `Telemetry::NONE`
/// versus `Telemetry::FULL` (spans + counters + occupancy + composition).
/// The observability contract is that NONE costs nothing — the recorder is
/// an `Option` that is never constructed — so the NONE time here should
/// match the plain e2e numbers above, and FULL shows the price of tracing.
fn bench_telemetry_overhead() {
    let scene = Scene::build(SceneId::SponzaPbr, 0.2);
    let gpu = GpuConfig::test_tiny();
    let run = |telemetry: Telemetry, counter_interval: u64| {
        let f = scene.render(96, 54, false, GRAPHICS_STREAM);
        let compute = vio(crisp_core::COMPUTE_STREAM, ComputeScale::tiny());
        let spec = PartitionSpec::fg_even(&gpu, GRAPHICS_STREAM, crisp_core::COMPUTE_STREAM);
        let mut b = Simulation::builder()
            .gpu(gpu.clone())
            .partition(spec)
            .telemetry(telemetry)
            .trace(crisp_core::concurrent_bundle(f.trace, compute));
        if counter_interval > 0 {
            b = b.counter_interval(counter_interval);
        }
        b.run_or_panic().cycles
    };
    bench("telemetry/none", 1, 5, || run(Telemetry::NONE, 0));
    bench("telemetry/full", 1, 5, || run(Telemetry::FULL, 500));
}

/// Checkpoint overhead: serialize/deserialize a mid-flight concurrent
/// simulation (full architectural state — warps, caches, MSHRs, stats,
/// telemetry), and fast-forward (functional warming) vs detailed simulation
/// throughput over the same command stream. Element counts are checkpoint
/// bytes and simulated cycles respectively, so the rates read as bytes/s
/// and cycles/s.
fn bench_checkpoint() {
    let scene = Scene::build(SceneId::SponzaPbr, 0.2);
    let gpu = GpuConfig::test_tiny();
    let spec = PartitionSpec::fg_even(&gpu, GRAPHICS_STREAM, crisp_core::COMPUTE_STREAM);
    let build = || {
        let f = scene.render(96, 54, false, GRAPHICS_STREAM);
        let compute = vio(crisp_core::COMPUTE_STREAM, ComputeScale::tiny());
        Simulation::builder()
            .gpu(gpu.clone())
            .partition(spec.clone())
            .telemetry(Telemetry::FULL)
            .counter_interval(500)
            .trace(crisp_core::concurrent_bundle(f.trace, compute))
            .preflight(false)
            .try_build()
            .unwrap()
    };

    let mut sim = build();
    sim.run_until(5_000).unwrap();
    let mut bytes = Vec::new();
    sim.write_checkpoint(&mut bytes).expect("serialize");
    let size = bytes.len() as u64;
    bench("ckpt/write", size, 10, || {
        let mut out = Vec::with_capacity(bytes.len());
        std::hint::black_box(&mut sim)
            .write_checkpoint(&mut out)
            .expect("serialize");
        out
    });
    bench("ckpt/read", size, 10, || {
        GpuSim::read_checkpoint(std::hint::black_box(&bytes).as_slice()).expect("deserialize")
    });

    // Detailed vs fast-forward over the same prefix: detailed charges
    // cycles, warming only touches the memory state. Rate both in the
    // detailed run's cycles so the two rows are directly comparable.
    let cycles = {
        let mut sim = build();
        sim.run_or_panic();
        sim.now()
    };
    bench("ckpt/detailed_prefix", cycles, 5, || {
        let mut sim = build();
        sim.run_or_panic()
    });
    bench("ckpt/fast_forward_prefix", cycles, 5, || {
        let f = scene.render(96, 54, false, GRAPHICS_STREAM);
        let mut g = f.trace;
        g.marker("roi");
        let mut compute = vio(crisp_core::COMPUTE_STREAM, ComputeScale::tiny());
        compute.marker("roi");
        let mut sim = Simulation::builder()
            .gpu(gpu.clone())
            .partition(spec.clone())
            .trace(crisp_core::concurrent_bundle(g, compute))
            .preflight(false)
            .try_build()
            .unwrap();
        sim.fast_forward_to_marker("roi")
    });
}

/// The SM's issue loop: ns per `Sm::cycle` on a fixed resident mix of 64
/// warps (two 32-warp CTAs on the RTX 3070 SM). Each warp repeats a
/// texture-like load, three FMA chains and a multiply that uses the load,
/// so schedulers see ready, memory-waiting and scoreboard-waiting warps. The
/// memory tick that delivers the loads runs each cycle too, as in the GPU
/// loop; an element is one SM cycle.
fn bench_sm_cycle() {
    use crisp_mem::{MemSystem, SmMemPort};
    use crisp_sm::{CtaWork, ResourceQuota, Sm};
    use crisp_trace::{CtaTrace, Instr, KernelId, KernelInfo, KernelTrace, MemAccess, Op, Reg};
    use crisp_trace::{Space, WarpTrace};
    use std::sync::Arc;

    let gpu = GpuConfig::rtx3070();
    let mem_cfg = crisp_mem::MemConfig {
        n_sms: 1,
        ..gpu.mem_config()
    };
    let warp = |w: u64| {
        let mut t = WarpTrace::new();
        for i in 0..40u64 {
            let base = 0x10_0000 * (w % 4) + i * 0x900 + w * 0x40;
            let addrs = (0..32)
                .map(|l| base + (l % 8) * 12 + (l / 8) * 0x400)
                .collect();
            t.push(Instr::load(
                Reg(1),
                MemAccess::scattered(Space::Tex, DataClass::Texture, 4, addrs),
            ));
            for r in 2..5 {
                t.push(Instr::alu(Op::FpFma, Reg(r), &[Reg(r)]));
            }
            t.push(Instr::alu(Op::FpMul, Reg(5), &[Reg(1), Reg(2)]));
        }
        t.seal();
        t
    };
    let kernel = Arc::new(KernelTrace::new(
        "mix",
        32 * 32,
        16,
        0,
        (0..2)
            .map(|c| CtaTrace::new((0..32).map(|w| warp(32 * c + w)).collect()))
            .collect(),
    ));
    let info = Arc::new(KernelInfo::of(&kernel));
    let cycles = {
        let mut n = 0;
        run_sm(&gpu, &mem_cfg, &kernel, &info, &mut n);
        n
    };
    bench("sm/cycle_64warp_mix", cycles, 40, || {
        run_sm(&gpu, &mem_cfg, &kernel, &info, &mut 0)
    });

    fn run_sm(
        gpu: &GpuConfig,
        mem_cfg: &crisp_mem::MemConfig,
        kernel: &Arc<KernelTrace>,
        info: &Arc<KernelInfo>,
        cycles: &mut u64,
    ) -> u64 {
        let mut sm = Sm::new(0, gpu.sm, SmMemPort::new(0, mem_cfg));
        let mut mem = MemSystem::new(*mem_cfg);
        for (i, cta) in kernel.ctas.iter().enumerate() {
            let work = CtaWork {
                stream: StreamId(0),
                kernel: KernelId(0),
                info: info.clone(),
                cta: cta.clone(),
                cta_index: i,
                seq: i as u64,
            };
            assert!(sm.fits(StreamId(0), work.resources(), ResourceQuota::unlimited()));
            sm.launch_cta(work);
        }
        let mut done = Vec::new();
        let mut issued = 0;
        while sm.busy() || !mem.quiescent() {
            issued += sm.cycle(*cycles).issued;
            mem.tick_into(*cycles, &mut [sm.port_mut()], &mut done, None);
            for c in &done {
                sm.on_mem_completion(c.token.id);
            }
            *cycles += 1;
        }
        issued
    }
}

/// The coalescer: ns per `distinct_chunks_into` call that turns a 32-lane
/// texture fetch (a 2×2-quad footprint over four texture rows, lanes in
/// quad order, not address order) into its distinct 32 B sectors.
fn bench_coalesce() {
    use crisp_trace::{MemAccess, Space, SECTOR_BYTES};
    let accesses: Vec<MemAccess> = (0..1024u64)
        .map(|i| {
            let base = 0x4000_0000 + i * 0x1234;
            let addrs = (0..32u64)
                .map(|l| {
                    let (x, y) = (l % 2 + 2 * (l / 4 % 4), l / 2 % 2 + 2 * (l / 16));
                    base + (y * 3 / 2) * 0x800 + (x * 3 / 2) * 4
                })
                .collect();
            MemAccess::scattered(Space::Tex, DataClass::Texture, 4, addrs)
        })
        .collect();
    let mut out = Vec::with_capacity(64);
    bench("coalesce/tex_32_lanes", accesses.len() as u64, 200, || {
        let mut sectors = 0;
        for a in std::hint::black_box(&accesses) {
            a.view().distinct_chunks_into(SECTOR_BYTES, &mut out);
            sectors += out.len();
        }
        sectors
    });
}

fn main() {
    println!("{:<28} {:>15} {:>17}", "benchmark", "time", "throughput");
    bench_sm_cycle();
    bench_coalesce();
    bench_cache();
    bench_raster();
    bench_batching();
    bench_codec();
    bench_end_to_end();
    bench_telemetry_overhead();
    bench_checkpoint();
}
