//! The `repro` workload: every `crisp_core::experiments` runner at quick
//! scale, the wait a user sits through to regenerate the paper.

use crisp_core::experiments::{self as exp, ExpScale};
use crisp_core::{Resolution, COMPUTE_STREAM, GRAPHICS_STREAM};
use crisp_scenes::{holo, nn, vio, ComputeScale, Scene, SceneId};

use crate::bench::{Ctx, Rng, ITERATION};

/// A runner's table, or a description of why it produced none.
type Table = Result<String, String>;

struct Runner {
    name: &'static str,
    /// The per-layer metric its time counts towards.
    group: &'static str,
    run: fn(ExpScale, &std::path::Path) -> Table,
}

/// A rendered frame's table: its coverage and a digest of the image.
fn render(id: SceneId, lod0: bool, s: ExpScale, path: &std::path::Path) -> Table {
    let cov = exp::render_scene_to_ppm(id, s.detail, Resolution::Scaled2K, lod0, path)
        .map_err(|e| e.to_string())?;
    let image = std::fs::read(path).map_err(|e| e.to_string())?;
    Ok(format!(
        "coverage {cov:?} image-fnv64 {:016x}\n",
        fnv64(&image)
    ))
}

fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}

/// The runners in `run_all` order, then the ablations `run_all` skips.
const RUNNERS: &[Runner] = &[
    Runner {
        name: "table02_configs",
        group: "exp.other_s",
        run: |_, _| Ok(exp::table02_configs().to_table()),
    },
    Runner {
        name: "fig03_vertex_batching",
        group: "exp.validation_s",
        run: |s, _| Ok(exp::fig03_vertex_batching(s).to_table()),
    },
    Runner {
        name: "fig05_planets",
        group: "exp.renders_s",
        run: |s, p| render(SceneId::Planets, false, s, p),
    },
    Runner {
        name: "fig06_frame_correlation",
        group: "exp.validation_s",
        run: |s, _| Ok(exp::fig06_frame_correlation(s).to_table()),
    },
    Runner {
        name: "fig07_mip_merge",
        group: "exp.other_s",
        run: |_, _| Ok(exp::fig07_mip_merge().to_table()),
    },
    Runner {
        name: "fig08_sponza_lod_on",
        group: "exp.renders_s",
        run: |s, p| render(SceneId::SponzaKhronos, false, s, p),
    },
    Runner {
        name: "fig08_sponza_lod_off",
        group: "exp.renders_s",
        run: |s, p| render(SceneId::SponzaKhronos, true, s, p),
    },
    Runner {
        name: "fig09_lod_mape",
        group: "exp.validation_s",
        run: |s, _| Ok(exp::fig09_lod_mape(s).to_table()),
    },
    Runner {
        name: "fig10_texlines_histogram",
        group: "exp.validation_s",
        run: |s, _| Ok(exp::fig10_texlines_histogram(s).to_table()),
    },
    Runner {
        name: "fig11_l2_composition",
        group: "exp.other_s",
        run: |s, _| Ok(exp::fig11_l2_composition(s).to_table()),
    },
    Runner {
        name: "fig12_warped_slicer",
        group: "exp.fig12_s",
        run: |s, _| Ok(exp::fig12_warped_slicer(s).to_table()),
    },
    Runner {
        name: "fig13_occupancy_timeline",
        group: "exp.other_s",
        run: |s, _| Ok(exp::fig13_occupancy_timeline(s).to_table()),
    },
    Runner {
        name: "fig14_tap",
        group: "exp.fig14_s",
        run: |s, _| Ok(exp::fig14_tap(s).to_table()),
    },
    Runner {
        name: "fig15_tap_composition",
        group: "exp.other_s",
        run: |s, _| Ok(exp::fig15_tap_composition(s).to_table()),
    },
    Runner {
        name: "ablation_batch_size",
        group: "exp.ablations_s",
        run: |s, _| Ok(exp::ablation_batch_size(s).to_table()),
    },
    Runner {
        name: "ablation_l1_ports",
        group: "exp.ablations_s",
        run: |s, _| Ok(exp::ablation_l1_ports(s).to_table()),
    },
    Runner {
        name: "ablation_mshr",
        group: "exp.ablations_s",
        run: |s, _| Ok(exp::ablation_mshr(s).to_table()),
    },
    Runner {
        name: "ablation_scheduler",
        group: "exp.ablations_s",
        run: |s, _| Ok(format!("{:?}\n", exp::ablation_scheduler(s))),
    },
    Runner {
        name: "ablation_replacement",
        group: "exp.ablations_s",
        run: |s, _| Ok(format!("{:?}\n", exp::ablation_replacement(s))),
    },
    Runner {
        name: "ablation_mig_banks",
        group: "exp.ablations_s",
        run: |s, _| Ok(format!("{:?}\n", exp::ablation_mig_banks(s))),
    },
];

/// Iterations per phase: three, so every per-runner median has a middle.
const MIN_ITERS: usize = 3;

const GROUPS: [&str; 6] = [
    "exp.fig12_s",
    "exp.fig14_s",
    "exp.ablations_s",
    "exp.renders_s",
    "exp.validation_s",
    "exp.other_s",
];

/// The quick-scale inputs the runners build for themselves: one frame of
/// every scene and the three compute streams. Timed as the set-up of a
/// reproduction.
fn generate_inputs(s: ExpScale) {
    let (w, h) = s.res.dims();
    for id in SceneId::ALL {
        std::hint::black_box(Scene::build(id, s.detail).render(w, h, false, GRAPHICS_STREAM));
    }
    for gen in [vio, holo, nn] {
        std::hint::black_box(gen(COMPUTE_STREAM, ComputeScale::tiny()));
    }
}

pub fn repro(ctx: &mut Ctx) {
    let scale = ExpScale::quick();
    let mut order: Vec<&Runner> = RUNNERS.iter().collect();
    Rng::new(ctx.seed).shuffle(&mut order);
    let image = ctx.work.join(format!("repro-{}.ppm", std::process::id()));
    ctx.measure(MIN_ITERS, |ctx| {
        let it = ctx.tracer.begin(ITERATION);
        let t = ctx.tracer.begin("scenes.quick_inputs");
        generate_inputs(scale);
        let setup_s = ctx.tracer.end(t);
        let mut group_s = [0.0; GROUPS.len()];
        let mut tables = Vec::with_capacity(order.len());
        for r in &order {
            let t = ctx.tracer.begin(r.name);
            let table = (r.run)(scale, &image);
            let secs = ctx.tracer.end(t);
            let g = GROUPS
                .iter()
                .position(|&g| g == r.group)
                .expect("known group");
            group_s[g] += secs;
            ctx.samples().push(r.name, secs);
            tables.push((r.name, table));
        }
        ctx.tracer.end(it);
        let s = ctx.samples();
        s.push("setup_s", setup_s);
        for (g, secs) in GROUPS.iter().zip(group_s) {
            s.push(g, secs);
        }
        for (name, table) in tables {
            match table {
                Ok(t) => {
                    ctx.report.check(true, String::new);
                    ctx.report.output(format!("repro/{name}"), t);
                }
                Err(e) => ctx.report.check(false, || format!("{name}: {e}")),
            }
        }
        Ok(())
    });
    // One reproduction's wall time, estimated as the sum of each step's
    // median over the iterations: a host stall during one runner call
    // then skews only that call's sample.
    for s in [&mut ctx.plain, &mut ctx.traced] {
        let steps = RUNNERS.iter().map(|r| r.name).chain(["setup_s"]);
        let wall: f64 = steps.filter_map(|n| s.median(n)).sum();
        if wall > 0.0 {
            s.push("wall_s", wall);
        }
    }
    let _ = std::fs::remove_file(&image);
}
