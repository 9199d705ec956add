//! Validation experiments: Figures 3, 6, 9 and 10.

use crisp_scenes::silicon::{correlation, mape, Silicon};
use crisp_scenes::{all_scenes, Scene, SceneId};
use crisp_sim::{GpuConfig, PartitionSpec, Simulation, Telemetry};
use crisp_trace::{KernelTrace, Space, Stream, TexLinesHistogram, TraceBundle, SECTOR_BYTES};

use crate::report::{f3, pct, table};
use crate::{Resolution, GRAPHICS_STREAM};

use super::{sweep, ExpScale};

/// Figure 3: vertex-shader invocation correlation at batch size 96.
#[derive(Debug, Clone)]
pub struct Fig03Result {
    /// (drawcall label, hardware-profiler threads, simulator threads).
    pub points: Vec<(String, u64, u64)>,
    /// Pearson correlation between the two series.
    pub correlation: f64,
}

impl Fig03Result {
    /// Render as a text table plus the headline number.
    pub fn to_table(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .points
            .iter()
            .map(|(n, hw, sim)| vec![n.clone(), hw.to_string(), sim.to_string()])
            .collect();
        format!(
            "{}\ncorrelation = {}\n",
            table(&["drawcall", "hw threads", "sim threads"], &rows),
            f3(self.correlation)
        )
    }
}

/// Run Figure 3: render every scene, compare per-drawcall VS invocation
/// counts (profiler = true thread count; simulator = launched warps × 32,
/// the source of the paper's bottom-left deviation).
pub fn fig03_vertex_batching(scale: ExpScale) -> Fig03Result {
    let (w, h) = scale.res.dims();
    let mut points = Vec::new();
    for scene in all_scenes(scale.detail) {
        let f = scene.render(w, h, false, GRAPHICS_STREAM);
        for d in &f.stats.draws {
            points.push((
                format!("{}:{}", scene.id, d.name),
                Silicon::vs_thread_count(d.vs_invocations),
                d.vs_threads_from_warps,
            ));
        }
    }
    let xs: Vec<f64> = points.iter().map(|p| p.1 as f64).collect();
    let ys: Vec<f64> = points.iter().map(|p| p.2 as f64).collect();
    Fig03Result {
        correlation: correlation(&xs, &ys),
        points,
    }
}

/// One Figure 6 data point.
#[derive(Debug, Clone)]
pub struct Fig06Row {
    /// Scene label.
    pub scene: SceneId,
    /// Resolution label ("2K"/"4K").
    pub res: &'static str,
    /// Hardware-reference frame time (ms).
    pub hw_ms: f64,
    /// Simulated frame time (ms).
    pub sim_ms: f64,
}

/// Figure 6: frame-time correlation against the silicon reference.
#[derive(Debug, Clone)]
pub struct Fig06Result {
    /// All (scene, resolution) points.
    pub rows: Vec<Fig06Row>,
    /// Pearson correlation (paper: 94.8%).
    pub correlation: f64,
    /// Fraction of points where the simulator is slower than hardware
    /// (paper: "the simulated frame time is always longer").
    pub sim_longer_fraction: f64,
}

impl Fig06Result {
    /// Text-table rendering.
    pub fn to_table(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                vec![
                    r.scene.to_string(),
                    r.res.to_string(),
                    f3(r.hw_ms),
                    f3(r.sim_ms),
                    f3(r.sim_ms / r.hw_ms),
                ]
            })
            .collect();
        format!(
            "{}\ncorrelation = {}  (paper: 0.948)\nsim longer than hw on {} of points\n",
            table(&["scene", "res", "hw ms", "sim ms", "sim/hw"], &rows),
            f3(self.correlation),
            pct(self.sim_longer_fraction),
        )
    }
}

/// Simulate a graphics-only frame and return total cycles.
fn simulate_frame(gpu: &GpuConfig, trace: Stream) -> u64 {
    Simulation::builder()
        .gpu(gpu.clone())
        .partition(PartitionSpec::greedy())
        .telemetry(Telemetry::NONE)
        .trace(TraceBundle::from_streams(vec![trace]))
        .run_or_panic()
        .cycles
}

/// Run Figure 6 on the RTX 3070 model: every scene at the 2K- and 4K-class
/// resolutions (quick scale simulates at reduced sizes).
pub fn fig06_frame_correlation(scale: ExpScale) -> Fig06Result {
    let gpu = GpuConfig::rtx3070();
    let resolutions: Vec<Resolution> = match scale.res {
        Resolution::Tiny => vec![Resolution::Tiny],
        _ => vec![Resolution::Scaled2K, Resolution::Scaled4K],
    };
    let scenes = all_scenes(scale.detail);
    let points: Vec<(&Scene, Resolution)> = scenes
        .iter()
        .flat_map(|scene| resolutions.iter().map(move |&res| (scene, res)))
        .collect();
    // Every point renders its own frame: no two share a (scene, size).
    let rows = sweep(&points, |&(scene, res)| {
        let (w, h) = res.dims();
        let f = scene.render(w, h, false, GRAPHICS_STREAM);
        let hw_ms = Silicon::frame_time_ms(
            &format!("{}@{}", scene.id, res.label()),
            &scene.draws,
            &f.stats,
            gpu.n_sms,
            gpu.core_clock_mhz,
            gpu.dram_gbps,
        );
        let cycles = simulate_frame(&gpu, f.trace);
        Fig06Row {
            scene: scene.id,
            res: res.label(),
            hw_ms,
            sim_ms: gpu.cycles_to_ms(cycles),
        }
    });
    let xs: Vec<f64> = rows.iter().map(|r| r.hw_ms).collect();
    let ys: Vec<f64> = rows.iter().map(|r| r.sim_ms).collect();
    let longer = rows.iter().filter(|r| r.sim_ms > r.hw_ms).count();
    Fig06Result {
        correlation: correlation(&xs, &ys),
        sim_longer_fraction: longer as f64 / rows.len() as f64,
        rows,
    }
}

/// L1 texture sector requests per fragment kernel of a trace (what the LSU
/// presents to the unified L1): the simulator-side series of Figure 9.
fn tex_sectors_per_draw(trace: &Stream) -> Vec<(String, u64)> {
    trace
        .kernels()
        .filter(|k| k.name.starts_with("fs:"))
        .map(|k| (k.name.clone(), tex_sectors(k)))
        .collect()
}

fn tex_sectors(k: &KernelTrace) -> u64 {
    let mut n = 0;
    let mut sectors = Vec::new();
    for cta in &k.ctas {
        for w in &cta.warps {
            for i in w.iter() {
                if let Some(m) = &i.mem {
                    if m.space == Space::Tex {
                        m.distinct_chunks_into(SECTOR_BYTES, &mut sectors);
                        n += sectors.len() as u64;
                    }
                }
            }
        }
    }
    n
}

/// Figure 9: L1 texture-access error with and without LoD.
#[derive(Debug, Clone)]
pub struct Fig09Result {
    /// (drawcall, hw reference, sim LoD on, sim LoD off).
    pub rows: Vec<(String, f64, u64, u64)>,
    /// MAPE of the LoD-on model (paper: 33%).
    pub mape_lod_on: f64,
    /// MAPE of the LoD-off model (paper: 219%).
    pub mape_lod_off: f64,
}

impl Fig09Result {
    /// MAPE improvement factor (paper: 6.6×).
    pub fn improvement(&self) -> f64 {
        self.mape_lod_off / self.mape_lod_on.max(1e-9)
    }

    /// Text-table rendering.
    pub fn to_table(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|(n, hw, on, off)| {
                vec![
                    n.clone(),
                    format!("{hw:.0}"),
                    on.to_string(),
                    off.to_string(),
                ]
            })
            .collect();
        format!(
            "{}\nMAPE LoD on  = {} (paper 33%)\nMAPE LoD off = {} (paper 219%)\nimprovement  = {:.1}x (paper 6.6x)\n",
            table(&["drawcall", "hw tex accesses", "sim (LoD on)", "sim (LoD off)"], &rows),
            pct(self.mape_lod_on),
            pct(self.mape_lod_off),
            self.improvement(),
        )
    }
}

/// Run Figure 9: per-drawcall L1 texture sector counts with LoD on/off
/// versus the silicon reference counters.
pub fn fig09_lod_mape(scale: ExpScale) -> Fig09Result {
    let (w, h) = scale.res.dims();
    let mut rows = Vec::new();
    for scene in all_scenes(scale.detail) {
        let on = scene.render(w, h, false, GRAPHICS_STREAM);
        let off = scene.render(w, h, true, GRAPHICS_STREAM);
        let on_draws = tex_sectors_per_draw(&on.trace);
        let off_draws = tex_sectors_per_draw(&off.trace);
        assert_eq!(on_draws.len(), off_draws.len());
        for ((name, s_on), (_, s_off)) in on_draws.into_iter().zip(off_draws) {
            if s_on == 0 {
                continue;
            }
            let label = format!("{}:{}", scene.id, name);
            let hw = Silicon::l1_tex_accesses(&label, s_on);
            rows.push((label, hw, s_on, s_off));
        }
    }
    let hw: Vec<f64> = rows.iter().map(|r| r.1).collect();
    let on: Vec<f64> = rows.iter().map(|r| r.2 as f64).collect();
    let off: Vec<f64> = rows.iter().map(|r| r.3 as f64).collect();
    Fig09Result {
        mape_lod_on: mape(&on, &hw),
        mape_lod_off: mape(&off, &hw),
        rows,
    }
}

/// Figure 10: the histogram of texture cache lines per CTA for one
/// drawcall of Sponza.
#[derive(Debug, Clone)]
pub struct Fig10Result {
    /// Kernel analysed.
    pub kernel: String,
    /// The per-CTA histogram.
    pub histogram: TexLinesHistogram,
}

impl Fig10Result {
    /// Text-table rendering.
    pub fn to_table(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .histogram
            .buckets()
            .map(|(lines, ctas)| vec![lines.to_string(), ctas.to_string()])
            .collect();
        format!(
            "kernel: {}\n{}\nmean = {} lines/tex-instr per CTA (paper range 2.54-21.19)\n",
            self.kernel,
            table(&["tex lines / instr", "CTAs"], &rows),
            f3(self.histogram.mean()),
        )
    }
}

/// Run Figure 10 on the largest fragment kernel of a Sponza frame.
pub fn fig10_texlines_histogram(scale: ExpScale) -> Fig10Result {
    let (w, h) = scale.res.dims();
    let scene = Scene::build(SceneId::SponzaKhronos, scale.detail);
    let f = scene.render(w, h, false, GRAPHICS_STREAM);
    let kernel = f
        .trace
        .kernels()
        .filter(|k| k.name.starts_with("fs:"))
        .max_by_key(|k| k.grid())
        .expect("scene has fragment kernels");
    Fig10Result {
        kernel: kernel.name.clone(),
        histogram: TexLinesHistogram::of_kernel(kernel),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig03_correlates_strongly() {
        let r = fig03_vertex_batching(ExpScale::quick());
        assert!(
            r.points.len() >= 20,
            "need many drawcalls, got {}",
            r.points.len()
        );
        assert!(
            r.correlation > 0.95,
            "warps×32 must track true threads: {}",
            r.correlation
        );
        // Simulator-side counts round up, so sim >= hw everywhere.
        assert!(r.points.iter().all(|(_, hw, sim)| sim >= hw));
        assert!(r.to_table().contains("correlation"));
    }

    #[test]
    fn fig09_lod_off_is_much_worse() {
        let r = fig09_lod_mape(ExpScale::quick());
        assert!(
            r.mape_lod_on < 0.6,
            "LoD-on MAPE too big: {}",
            r.mape_lod_on
        );
        assert!(
            r.mape_lod_off > 2.0 * r.mape_lod_on,
            "LoD-off must be far worse: {} vs {}",
            r.mape_lod_off,
            r.mape_lod_on
        );
        assert!(r.improvement() > 2.0);
    }

    #[test]
    fn fig10_histogram_has_mass() {
        let r = fig10_texlines_histogram(ExpScale::quick());
        assert!(r.histogram.total_ctas() > 0);
        // The paper's range of texture lines per CTA.
        let mean = r.histogram.mean();
        assert!((1.0..=22.0).contains(&mean), "mean tex lines/CTA {mean}");
        assert!(r.to_table().contains("CTAs"));
    }

    #[test]
    fn fig06_quick_correlates() {
        // At the tiny test scale, frames are drain-dominated and the
        // scene-to-scene spread is mostly noise, so only weak correlation
        // is expected here; the paper-scale run reaches ~0.95 (see
        // EXPERIMENTS.md).
        let r = fig06_frame_correlation(ExpScale::quick());
        assert_eq!(r.rows.len(), 6, "six scenes at tiny res");
        assert!(
            r.correlation > 0.2,
            "correlation too low: {}",
            r.correlation
        );
        assert!(r.rows.iter().all(|row| row.sim_ms > 0.0 && row.hw_ms > 0.0));
        // The "sim is always longer than hw" property is a paper-scale
        // claim (throughput-bound frames); drain-bound tiny frames don't
        // exhibit it, so it is asserted by the bench run, not here.
    }
}
