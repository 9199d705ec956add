//! Regenerate every table and figure in one go, or a chosen few.
//!
//! ```text
//! run_all [--only KEY[,KEY...]]
//! ```
//!
//! A key names one step: `table02`, `fig03` … `fig15`, or one of the
//! ablations `ablation_batch_size`, `ablation_l1_ports`, `ablation_mshr`.
//! Steps run in paper order whatever order the keys are given in.
use std::process::ExitCode;

use crisp_bench::emit;
use crisp_core::experiments::{self as exp, ExpScale};
use crisp_core::{Resolution, GRAPHICS_STREAM};
use crisp_scenes::{Scene, SceneId};

/// One step: its `--only` key and what it regenerates.
type Step = (&'static str, fn(ExpScale) -> std::io::Result<()>);

/// Print and save one table (the body of most steps).
fn table(name: &str, text: String) -> std::io::Result<()> {
    emit(name, &text);
    Ok(())
}

const STEPS: &[Step] = &[
    ("table02", |_| {
        table("table02_configs", exp::table02_configs().to_table())
    }),
    ("fig03", |s| {
        table(
            "fig03_vertex_batching",
            exp::fig03_vertex_batching(s).to_table(),
        )
    }),
    ("fig05", |s| {
        let path = crisp_bench::out_dir().join("fig05_planets.ppm");
        let res = Resolution::Scaled2K;
        let cov = exp::render_scene_to_ppm(SceneId::Planets, s.detail, res, false, path)?;
        println!("fig05: planets rendered, coverage {:.1}%", cov * 100.0);
        Ok(())
    }),
    ("fig06", |s| {
        table(
            "fig06_frame_correlation",
            exp::fig06_frame_correlation(s).to_table(),
        )
    }),
    ("fig07", |_| {
        table("fig07_mip_merge", exp::fig07_mip_merge().to_table())
    }),
    ("fig08", |s| {
        let (w, h) = Resolution::Scaled2K.dims();
        let scene = Scene::build(SceneId::SponzaKhronos, s.detail);
        let on = scene.render(w, h, false, GRAPHICS_STREAM);
        let off = scene.render(w, h, true, GRAPHICS_STREAM);
        let p_on = crisp_bench::out_dir().join("fig08_sponza_lod_on.ppm");
        let p_off = crisp_bench::out_dir().join("fig08_sponza_lod_off.ppm");
        on.framebuffer.write_ppm(&p_on)?;
        off.framebuffer.write_ppm(&p_off)?;
        table(
            "fig08_sponza_lod",
            format!(
                "LoD on  -> {}\nLoD off -> {}\nPSNR between them: {:.1} dB \
                 (mip-0 sampling aliases visibly)\n",
                p_on.display(),
                p_off.display(),
                on.framebuffer.psnr(&off.framebuffer),
            ),
        )
    }),
    ("fig09", |s| {
        table("fig09_lod_mape", exp::fig09_lod_mape(s).to_table())
    }),
    ("fig10", |s| {
        table(
            "fig10_texlines_histogram",
            exp::fig10_texlines_histogram(s).to_table(),
        )
    }),
    ("fig11", |s| {
        table(
            "fig11_l2_composition",
            exp::fig11_l2_composition(s).to_table(),
        )
    }),
    ("fig12", |s| {
        table(
            "fig12_warped_slicer",
            exp::fig12_warped_slicer(s).to_table(),
        )
    }),
    ("fig13", |s| {
        table(
            "fig13_occupancy_timeline",
            exp::fig13_occupancy_timeline(s).to_table(),
        )
    }),
    ("fig14", |s| {
        table("fig14_tap", exp::fig14_tap(s).to_table())
    }),
    ("fig15", |s| {
        table(
            "fig15_tap_composition",
            exp::fig15_tap_composition(s).to_table(),
        )
    }),
    ("ablation_batch_size", |s| {
        table(
            "ablation_batch_size",
            exp::ablation_batch_size(s).to_table(),
        )
    }),
    ("ablation_l1_ports", |s| {
        table("ablation_l1_ports", exp::ablation_l1_ports(s).to_table())
    }),
    ("ablation_mshr", |s| {
        table("ablation_mshr", exp::ablation_mshr(s).to_table())
    }),
];

/// The keys `--only` selects, or `None` for every step.
fn selection() -> Result<Option<Vec<String>>, String> {
    let mut args = std::env::args().skip(1);
    let Some(flag) = args.next() else {
        return Ok(None);
    };
    let (Some(list), None) = (args.next().filter(|_| flag == "--only"), args.next()) else {
        return Err("usage: run_all [--only KEY[,KEY...]]".into());
    };
    let keys: Vec<String> = list.split(',').map(str::to_owned).collect();
    if let Some(bad) = keys.iter().find(|k| STEPS.iter().all(|(key, _)| key != k)) {
        let known: Vec<&str> = STEPS.iter().map(|(key, _)| *key).collect();
        return Err(format!("unknown step `{bad}`; known: {}", known.join(", ")));
    }
    Ok(Some(keys))
}

fn main() -> ExitCode {
    let only = match selection() {
        Ok(only) => only,
        Err(msg) => {
            eprintln!("run_all: {msg}");
            return ExitCode::from(2);
        }
    };
    let s = crisp_bench::scale();
    for (key, run) in STEPS {
        if only
            .as_ref()
            .is_some_and(|keys| !keys.iter().any(|k| k == key))
        {
            continue;
        }
        if let Err(e) = run(s) {
            eprintln!("run_all: {key}: {e}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
