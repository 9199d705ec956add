//! Ablations of the design choices DESIGN.md calls out: batch size,
//! L1 port width, MSHR capacity, warp-scheduler policy, and MiG bank
//! granularity.

use crisp_gfx::batch::vs_invocation_count;
use crisp_mem::Replacement;
use crisp_scenes::silicon::mape;
use crisp_scenes::{all_scenes, holo, SceneId};
use crisp_sim::{GpuConfig, PartitionSpec, SchedulerPolicy, SimResult, Simulation, Telemetry};
use crisp_trace::{Stream, TraceBundle};

use crate::report::{f3, pct, table};
use crate::{COMPUTE_STREAM, GRAPHICS_STREAM};

use super::{cores, render_trace, sweep, sweep_with, ExpScale};

/// Batch-size sweep result.
#[derive(Debug, Clone)]
pub struct BatchSizeAblation {
    /// (batch size, total VS invocations, MAPE of per-draw counts vs the
    /// batch-96 reference).
    pub rows: Vec<(usize, u64, f64)>,
}

impl BatchSizeAblation {
    /// The batch size minimising the error against the 96-reference.
    pub fn best_batch(&self) -> usize {
        self.rows
            .iter()
            .min_by(|a, b| a.2.partial_cmp(&b.2).expect("finite"))
            .expect("non-empty sweep")
            .0
    }

    /// Text-table rendering.
    pub fn to_table(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|(b, inv, m)| vec![b.to_string(), inv.to_string(), pct(*m)])
            .collect();
        format!(
            "{}\n(paper: \"At batchsize = 96, we achieved the highest correlation on vertex shader invocation count\")\n",
            table(&["batch size", "VS invocations", "MAPE vs batch-96 hw"], &rows)
        )
    }
}

/// Sweep the vertex batch size; hardware reference counts use batch 96 —
/// the paper's tuning experiment ("we adopted vertex batching and tested
/// the model with incrementing batch size").
pub fn ablation_batch_size(scale: ExpScale) -> BatchSizeAblation {
    let scenes = all_scenes(scale.detail);
    let per_draw = |b: usize| -> Vec<f64> {
        scenes
            .iter()
            .flat_map(|s| {
                s.draws.iter().map(move |d| {
                    (d.instances.len() as u64 * vs_invocation_count(&d.mesh.indices, b)) as f64
                })
            })
            .collect()
    };
    let reference = per_draw(96);
    let rows = [8usize, 16, 32, 48, 64, 96, 128, 192, 384]
        .iter()
        .map(|&b| {
            let counts = per_draw(b);
            let total = counts.iter().sum::<f64>() as u64;
            (b, total, mape(&counts, &reference))
        })
        .collect();
    BatchSizeAblation { rows }
}

/// A (knob value, frame cycles) sweep over one hardware parameter.
#[derive(Debug, Clone)]
pub struct HwSweep {
    /// Which knob was swept.
    pub knob: &'static str,
    /// (value, simulated frame cycles).
    pub rows: Vec<(u64, u64)>,
}

impl HwSweep {
    /// Cycles at the smallest and largest knob values.
    pub fn endpoints(&self) -> (u64, u64) {
        (
            self.rows.first().expect("non-empty").1,
            self.rows.last().expect("non-empty").1,
        )
    }

    /// Text-table rendering.
    pub fn to_table(&self) -> String {
        let base = self.rows.last().expect("non-empty").1 as f64;
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|(v, c)| vec![v.to_string(), c.to_string(), f3(*c as f64 / base)])
            .collect();
        table(&[self.knob, "frame cycles", "vs largest"], &rows)
    }
}

/// Simulate one rendered frame alone on `gpu`.
fn sim_frame(gpu: &GpuConfig, frame: &Stream) -> SimResult {
    Simulation::builder()
        .gpu(gpu.clone())
        .partition(PartitionSpec::greedy())
        .telemetry(Telemetry::NONE)
        .trace(TraceBundle::from_streams(vec![frame.clone()]))
        .run_or_panic()
}

/// Sweep one RTX 3070 knob over `values` on the SPH frame: `set` applies
/// a value to the GPU, and each value simulates the same frame.
fn hw_sweep(
    workers: usize,
    scale: ExpScale,
    knob: &'static str,
    values: &[u64],
    set: impl Fn(&mut GpuConfig, u64) + Sync,
) -> HwSweep {
    let frame = render_trace(SceneId::SponzaPbr, scale);
    let rows = sweep_with(workers, values, |&v| {
        let mut gpu = GpuConfig::rtx3070();
        set(&mut gpu, v);
        (v, sim_frame(&gpu, &frame).cycles)
    });
    HwSweep { knob, rows }
}

/// Sweep the L1 data-port width (sectors/cycle) on the texture-heavy SPH
/// frame — the resource whose pressure the LoD case study quantifies.
pub fn ablation_l1_ports(scale: ExpScale) -> HwSweep {
    hw_sweep(cores(), scale, "l1 ports", &[1, 2, 4, 8], |gpu, p| {
        gpu.sm.l1_ports = p as u32;
    })
}

/// Sweep the L1 MSHR capacity (memory-level parallelism per SM).
pub fn ablation_mshr(scale: ExpScale) -> HwSweep {
    ablation_mshr_on(cores(), scale)
}

/// [`ablation_mshr`] swept on at most `workers` workers.
fn ablation_mshr_on(workers: usize, scale: ExpScale) -> HwSweep {
    let entries = [4, 8, 16, 32, 64, 128];
    hw_sweep(workers, scale, "L1 MSHR entries", &entries, |gpu, e| {
        gpu.l1_mshr_entries = e as usize;
    })
}

/// GTO vs LRR warp scheduling on a graphics frame.
pub fn ablation_scheduler(scale: ExpScale) -> Vec<(&'static str, u64)> {
    let frame = render_trace(SceneId::Pistol, scale);
    sweep(
        &[("GTO", SchedulerPolicy::Gto), ("LRR", SchedulerPolicy::Lrr)],
        |&(name, pol)| {
            let mut gpu = GpuConfig::rtx3070();
            gpu.sm.scheduler = pol;
            (name, sim_frame(&gpu, &frame).cycles)
        },
    )
}

/// LRU vs pseudo-random L2 replacement on a texture-reuse-heavy frame
/// (the paper: "The baseline cache replacement policy, LRU, is efficient
/// enough"). The L2 is shrunk to 512 KB so the frame's working set
/// actually contends for capacity — at the full 4 MB the scaled frame fits
/// and the policies are indistinguishable.
pub fn ablation_replacement(scale: ExpScale) -> Vec<(&'static str, u64, f64)> {
    let frame = render_trace(SceneId::SponzaPbr, scale);
    sweep(
        &[("LRU", Replacement::Lru), ("Random", Replacement::Random)],
        |&(name, pol)| {
            let mut gpu = GpuConfig::rtx3070();
            gpu.l2_bytes = 512 << 10;
            gpu.l2_replacement = pol;
            let r = sim_frame(&gpu, &frame);
            (name, r.cycles, r.l2_stats.total().hit_rate())
        },
    )
}

/// MiG's bandwidth loss as a function of bank granularity: the fewer banks
/// the GPU has, the more a bank-level split costs (each side keeps only
/// half the banks' bandwidth).
pub fn ablation_mig_banks(scale: ExpScale) -> Vec<(u32, f64)> {
    let frame = render_trace(SceneId::SponzaPbr, scale);
    let compute = holo(COMPUTE_STREAM, scale.compute);
    let banks = [4u32, 8, 16, 32];
    // (banks, MiG split?) for every bank count: MPS then MiG.
    let points: Vec<(u32, bool)> = banks
        .iter()
        .flat_map(|&b| [(b, false), (b, true)])
        .collect();
    let makespans = sweep(&points, |&(banks, mig)| {
        let mut gpu = GpuConfig::rtx3070();
        gpu.l2_banks = banks;
        let spec = if mig {
            PartitionSpec::mig_even(&gpu, GRAPHICS_STREAM, COMPUTE_STREAM)
        } else {
            PartitionSpec::mps_even(&gpu, GRAPHICS_STREAM, COMPUTE_STREAM)
        };
        Simulation::builder()
            .gpu(gpu)
            .partition(spec)
            .telemetry(Telemetry::NONE)
            .trace(TraceBundle::from_streams(vec![
                frame.clone(),
                compute.clone(),
            ]))
            .run_or_panic()
            .makespan()
    });
    banks
        .into_iter()
        .zip(makespans.chunks(2))
        .map(|(b, m)| (b, m[0] as f64 / m[1] as f64))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_96_minimises_error_against_the_reference() {
        let r = ablation_batch_size(ExpScale::quick());
        assert_eq!(r.best_batch(), 96);
        // Invocations decrease monotonically with batch size.
        let counts: Vec<u64> = r.rows.iter().map(|(_, c, _)| *c).collect();
        assert!(counts.windows(2).all(|w| w[1] <= w[0]), "{counts:?}");
        assert!(r.to_table().contains("96"));
    }

    #[test]
    fn narrower_l1_port_slows_texture_heavy_frames() {
        // Tiny frames are latency-dominated, so the quick-scale gap is
        // small; the paper-scale ablation binary shows the full spread.
        let r = ablation_l1_ports(ExpScale::quick());
        let (narrow, wide) = r.endpoints();
        assert!(
            narrow as f64 > wide as f64 * 1.03,
            "1 port must be measurably slower than 8: {narrow} vs {wide}"
        );
    }

    #[test]
    fn fewer_mshrs_cost_cycles() {
        let r = ablation_mshr(ExpScale::quick());
        let (few, many) = r.endpoints();
        assert!(few >= many, "4 MSHRs cannot beat 128: {few} vs {many}");
        // The default sweep (one worker per core) matches a serial one.
        assert_eq!(
            ablation_mshr_on(1, ExpScale::quick()).to_table(),
            r.to_table()
        );
    }

    #[test]
    fn both_replacement_policies_complete() {
        let r = ablation_replacement(ExpScale::quick());
        assert_eq!(r.len(), 2);
        for (n, c, hit) in r {
            assert!(c > 0, "{n}");
            assert!((0.0..=1.0).contains(&hit), "{n}");
        }
    }

    #[test]
    fn both_schedulers_complete() {
        let r = ablation_scheduler(ExpScale::quick());
        assert_eq!(r.len(), 2);
        for (n, c) in r {
            assert!(c > 0, "{n} produced no cycles");
        }
    }
}
