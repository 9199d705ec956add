//! Concurrent-execution experiments: Figures 12, 13, 14 and 15.

use crisp_scenes::{holo, nn, vio, ComputeScale, SceneId};
use crisp_sim::{
    GpuConfig, OccupancySample, PartitionSpec, SimResult, Simulation, SlicerConfig, TapConfig,
};
use crisp_trace::{DataClass, Stream, StreamId, TraceBundle};

use crate::report::{f3, pct, table};
use crate::{COMPUTE_STREAM, GRAPHICS_STREAM};

use super::{cores, render_trace, sweep_with, ExpScale};

/// The paper's three compute workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ComputeKind {
    /// Visual-inertial odometry (many small kernels).
    Vio,
    /// Hologram generation (compute-bound).
    Holo,
    /// RITnet principal kernels (memory-bound, shared-memory GEMMs).
    Nn,
}

impl ComputeKind {
    /// All kinds in paper order.
    pub const ALL: [ComputeKind; 3] = [ComputeKind::Vio, ComputeKind::Holo, ComputeKind::Nn];

    /// Paper label.
    pub fn label(self) -> &'static str {
        match self {
            ComputeKind::Vio => "VIO",
            ComputeKind::Holo => "HOLO",
            ComputeKind::Nn => "NN",
        }
    }

    /// Build the workload's stream.
    pub fn build(self, stream: StreamId, scale: ComputeScale) -> Stream {
        match self {
            ComputeKind::Vio => vio(stream, scale),
            ComputeKind::Holo => holo(stream, scale),
            ComputeKind::Nn => nn(stream, scale),
        }
    }
}

impl std::fmt::Display for ComputeKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Run one graphics+compute pair under `spec`; returns the full result.
fn run_pair(
    gpu: &GpuConfig,
    spec: PartitionSpec,
    frame: &Stream,
    compute: &Stream,
    occupancy_interval: u64,
) -> SimResult {
    Simulation::builder()
        .gpu(gpu.clone())
        .partition(spec)
        .occupancy_interval(occupancy_interval)
        .trace(TraceBundle::from_streams(vec![
            frame.clone(),
            compute.clone(),
        ]))
        .run_or_panic()
}

/// One workload pair's normalized results.
#[derive(Debug, Clone)]
pub struct PairRow {
    /// Scene of the pair.
    pub scene: SceneId,
    /// Compute side of the pair.
    pub compute: ComputeKind,
    /// (policy label, speedup normalized to the first policy).
    pub speedups: Vec<(&'static str, f64)>,
}

/// Figure 12: warped-slicer vs the MPS and EVEN baselines on Jetson Orin.
#[derive(Debug, Clone)]
pub struct Fig12Result {
    /// One row per workload pair; speedups normalized to MPS-even.
    pub rows: Vec<PairRow>,
}

impl Fig12Result {
    /// Text-table rendering.
    pub fn to_table(&self) -> String {
        format!(
            "{}\n(speedups normalized to MPS; paper: EVEN fastest overall, NN shows the highest concurrency speedup)\n",
            speedup_table(&["pair", "MPS", "EVEN", "Dynamic"], &self.rows)
        )
    }

    /// Geometric-mean speedup of one policy column.
    pub fn geomean(&self, policy: &str) -> f64 {
        let vals = policy_column(&self.rows, policy);
        (vals.iter().map(|v| v.ln()).sum::<f64>() / vals.len() as f64).exp()
    }
}

/// Render pair rows as a table under `headers` (pair, then one column per
/// policy).
fn speedup_table(headers: &[&str], rows: &[PairRow]) -> String {
    let cells: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            let mut v = vec![format!("{}+{}", r.scene, r.compute)];
            v.extend(r.speedups.iter().map(|(_, s)| f3(*s)));
            v
        })
        .collect();
    table(headers, &cells)
}

/// Every row's speedup under `policy`.
///
/// # Panics
///
/// Panics if no row carries `policy`.
fn policy_column(rows: &[PairRow], policy: &str) -> Vec<f64> {
    let vals: Vec<f64> = rows
        .iter()
        .filter_map(|r| {
            r.speedups
                .iter()
                .find(|(p, _)| *p == policy)
                .map(|(_, s)| *s)
        })
        .collect();
    assert!(!vals.is_empty(), "unknown policy {policy}");
    vals
}

/// Scene list used for the pairing studies.
fn pair_scenes(scale: ExpScale) -> Vec<SceneId> {
    match scale.res {
        crate::Resolution::Tiny => vec![SceneId::SponzaPbr, SceneId::Pistol],
        _ => vec![
            SceneId::SponzaPbr,
            SceneId::Pistol,
            SceneId::SponzaKhronos,
            SceneId::Planets,
        ],
    }
}

/// The scene × compute × policy grid behind Figures 12 and 14: every pair
/// runs under each policy, and a row holds the makespan speedups over the
/// first policy (whose own speedup is therefore 1).
///
/// The compute streams are generated once and each scene is rendered once;
/// one scene's compute × policy runs are swept across the host's cores.
fn pair_grid(
    workers: usize,
    gpu: &GpuConfig,
    scale: ExpScale,
    policies: &[(&'static str, PartitionSpec)],
) -> Vec<PairRow> {
    let computes = ComputeKind::ALL.map(|k| k.build(COMPUTE_STREAM, scale.compute));
    let points: Vec<(usize, usize)> = (0..computes.len())
        .flat_map(|c| (0..policies.len()).map(move |p| (c, p)))
        .collect();
    let mut rows = Vec::new();
    for scene in pair_scenes(scale) {
        let frame = render_trace(scene, scale);
        let makespans = sweep_with(workers, &points, |&(c, p)| {
            run_pair(gpu, policies[p].1.clone(), &frame, &computes[c], 0).makespan()
        });
        for (compute, makespans) in ComputeKind::ALL
            .into_iter()
            .zip(makespans.chunks(policies.len()))
        {
            let speedups = policies
                .iter()
                .zip(makespans)
                .map(|((label, _), &m)| (*label, makespans[0] as f64 / m as f64))
                .collect();
            rows.push(PairRow {
                scene,
                compute,
                speedups,
            });
        }
    }
    rows
}

/// Run Figure 12 on the Jetson Orin model: MPS-even vs intra-SM EVEN vs
/// warped-slicer Dynamic, all pairs, normalized to MPS.
pub fn fig12_warped_slicer(scale: ExpScale) -> Fig12Result {
    fig12_on(cores(), scale)
}

/// [`fig12_warped_slicer`] with its grid swept on at most `workers` workers.
fn fig12_on(workers: usize, scale: ExpScale) -> Fig12Result {
    let gpu = GpuConfig::jetson_orin();
    let policies = [
        (
            "MPS",
            PartitionSpec::mps_even(&gpu, GRAPHICS_STREAM, COMPUTE_STREAM),
        ),
        (
            "EVEN",
            PartitionSpec::fg_even(&gpu, GRAPHICS_STREAM, COMPUTE_STREAM),
        ),
        (
            "Dynamic",
            PartitionSpec::fg_dynamic(SlicerConfig::default()),
        ),
    ];
    Fig12Result {
        rows: pair_grid(workers, &gpu, scale, &policies),
    }
}

/// Figure 13: the occupancy timeline of the dynamic partition (PT + VIO).
#[derive(Debug, Clone)]
pub struct Fig13Result {
    /// Occupancy samples over time.
    pub occupancy: Vec<OccupancySample>,
    /// Warped-slicer ratio decisions (cycle, graphics fraction).
    pub slicer_history: Vec<(u64, f64)>,
}

impl Fig13Result {
    /// Text-table rendering (downsampled).
    pub fn to_table(&self) -> String {
        let step = (self.occupancy.len() / 24).max(1);
        let rows: Vec<Vec<String>> = self
            .occupancy
            .iter()
            .step_by(step)
            .map(|s| {
                let g = s.by_stream.get(&GRAPHICS_STREAM).copied().unwrap_or(0.0);
                let c = s.by_stream.get(&COMPUTE_STREAM).copied().unwrap_or(0.0);
                vec![s.cycle.to_string(), pct(g), pct(c), pct(s.total())]
            })
            .collect();
        format!(
            "{}\nslicer decisions: {:?}\n(paper: low-occupancy regions are register-limited)\n",
            table(&["cycle", "graphics occ", "compute occ", "total"], &rows),
            self.slicer_history,
        )
    }

    /// Peak total occupancy over the run.
    pub fn peak_total(&self) -> f64 {
        self.occupancy
            .iter()
            .map(OccupancySample::total)
            .fold(0.0, f64::max)
    }
}

/// Run Figure 13: PT + VIO under the dynamic partition on the Orin model,
/// sampling occupancy densely.
pub fn fig13_occupancy_timeline(scale: ExpScale) -> Fig13Result {
    let gpu = GpuConfig::jetson_orin();
    let r = run_pair(
        &gpu,
        PartitionSpec::fg_dynamic(SlicerConfig::default()),
        &render_trace(SceneId::Pistol, scale),
        &ComputeKind::Vio.build(COMPUTE_STREAM, scale.compute),
        500,
    );
    Fig13Result {
        occupancy: r.occupancy,
        slicer_history: r.slicer_history,
    }
}

/// Figure 14: TAP vs MiG vs MPS on the RTX 3070 model.
#[derive(Debug, Clone)]
pub struct Fig14Result {
    /// One row per pair; speedups normalized to MPS-even.
    pub rows: Vec<PairRow>,
}

impl Fig14Result {
    /// Text-table rendering.
    pub fn to_table(&self) -> String {
        format!(
            "{}\n(paper: TAP outperforms MiG and matches MPS — the pairs are bandwidth-bound, not capacity-bound)\n",
            speedup_table(&["pair", "MPS", "MiG", "TAP"], &self.rows)
        )
    }

    /// Mean speedup of a policy column.
    pub fn mean(&self, policy: &str) -> f64 {
        let vals = policy_column(&self.rows, policy);
        vals.iter().sum::<f64>() / vals.len() as f64
    }
}

/// Run Figure 14 on the RTX 3070 model.
pub fn fig14_tap(scale: ExpScale) -> Fig14Result {
    fig14_on(cores(), scale)
}

/// [`fig14_tap`] with its grid swept on at most `workers` workers.
fn fig14_on(workers: usize, scale: ExpScale) -> Fig14Result {
    let gpu = GpuConfig::rtx3070();
    // Long epochs: a set-window remap orphans resident lines (their
    // index changes), so repartitioning must be rare to amortise the
    // refill — mirroring TAP's slow epoch-level adaptation.
    let tap_cfg = TapConfig {
        epoch_accesses: 250_000,
        sample_every: 4,
        min_sets: 1,
    };
    let policies = [
        (
            "MPS",
            PartitionSpec::mps_even(&gpu, GRAPHICS_STREAM, COMPUTE_STREAM),
        ),
        (
            "MiG",
            PartitionSpec::mig_even(&gpu, GRAPHICS_STREAM, COMPUTE_STREAM),
        ),
        (
            "TAP",
            PartitionSpec::tap_even(&gpu, GRAPHICS_STREAM, COMPUTE_STREAM, tap_cfg),
        ),
    ];
    Fig14Result {
        rows: pair_grid(workers, &gpu, scale, &policies),
    }
}

/// Figure 15: the L2 composition under TAP for SPH + HOLO.
#[derive(Debug, Clone)]
pub struct Fig15Result {
    /// Fraction of valid lines per (label, fraction) class.
    pub fractions: Vec<(&'static str, f64)>,
    /// TAP's final set allocation (stream, sets).
    pub tap_allocation: Vec<(StreamId, u64)>,
}

impl Fig15Result {
    /// Fraction of lines held by the rendering stream.
    pub fn rendering_fraction(&self) -> f64 {
        self.fractions
            .iter()
            .filter(|(l, _)| *l != "compute")
            .map(|(_, f)| f)
            .sum()
    }

    /// Text-table rendering.
    pub fn to_table(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .fractions
            .iter()
            .map(|(l, f)| vec![l.to_string(), pct(*f)])
            .collect();
        format!(
            "{}\nTAP allocation: {:?}\n(paper: TAP allocates most cache lines to rendering because HOLO is compute-bound)\n",
            table(&["class", "share of valid L2 lines"], &rows),
            self.tap_allocation,
        )
    }
}

/// Run Figure 15: SPH + HOLO with TAP on the RTX 3070 model, reporting the
/// final composition breakdown.
pub fn fig15_tap_composition(scale: ExpScale) -> Fig15Result {
    let gpu = GpuConfig::rtx3070();
    // A shorter epoch than Figure 14's: this run is a single frame and the
    // interesting output is the *allocation* TAP converges to, so the
    // controller must get at least one re-evaluation in.
    let tap_cfg = TapConfig {
        epoch_accesses: 40_000,
        sample_every: 4,
        min_sets: 1,
    };
    let r = run_pair(
        &gpu,
        PartitionSpec::tap_even(&gpu, GRAPHICS_STREAM, COMPUTE_STREAM, tap_cfg),
        &render_trace(SceneId::SponzaPbr, scale),
        &ComputeKind::Holo.build(COMPUTE_STREAM, scale.compute),
        0,
    );
    let comp = &r.l2_composition;
    let fractions = vec![
        ("texture", comp.class_fraction(DataClass::Texture)),
        ("pipeline", comp.class_fraction(DataClass::Pipeline)),
        ("compute", comp.class_fraction(DataClass::Compute)),
    ];
    Fig15Result {
        fractions,
        tap_allocation: r.tap_allocation.unwrap_or_default(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compute_kinds_build() {
        for k in ComputeKind::ALL {
            let s = k.build(COMPUTE_STREAM, ComputeScale::tiny());
            assert!(s.kernel_count() > 0, "{k}");
        }
    }

    #[test]
    fn fig12_quick_produces_all_pairs() {
        let r = fig12_warped_slicer(ExpScale::quick());
        assert_eq!(r.rows.len(), 2 * 3, "2 scenes × 3 computes at quick scale");
        for row in &r.rows {
            for (p, s) in &row.speedups {
                assert!(*s > 0.1, "{p} speedup degenerate: {s}");
            }
        }
        // EVEN should at least compete with MPS on average (paper: EVEN is
        // the fastest of the three).
        assert!(
            r.geomean("EVEN") > 0.85,
            "EVEN geomean {}",
            r.geomean("EVEN")
        );
        assert!(r.to_table().contains("Dynamic"));
        // The default sweep (one worker per core) matches a serial one.
        assert_eq!(fig12_on(1, ExpScale::quick()).to_table(), r.to_table());
    }

    #[test]
    fn fig13_timeline_shows_both_streams() {
        let r = fig13_occupancy_timeline(ExpScale::quick());
        assert!(!r.occupancy.is_empty());
        assert!(r.peak_total() > 0.05);
    }

    #[test]
    fn fig14_quick_runs_all_policies() {
        let r = fig14_tap(ExpScale::quick());
        assert_eq!(r.rows.len(), 6);
        // TAP must not collapse (paper: TAP ≈ MPS).
        assert!(r.mean("TAP") > 0.7, "TAP mean {}", r.mean("TAP"));
        assert_eq!(fig14_on(1, ExpScale::quick()).to_table(), r.to_table());
    }

    #[test]
    fn fig15_rendering_dominates_the_l2() {
        let r = fig15_tap_composition(ExpScale::quick());
        let total: f64 = r.fractions.iter().map(|(_, f)| f).sum();
        assert!(
            (total - 1.0).abs() < 1e-6,
            "fractions must sum to 1, got {total}"
        );
        assert!(
            r.rendering_fraction() > 0.5,
            "rendering must dominate: {}",
            r.rendering_fraction()
        );
    }
}
