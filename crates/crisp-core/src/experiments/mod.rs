//! Experiment runners: one per table/figure of the paper.
//!
//! Every runner takes an [`ExpScale`] so the same code serves fast unit
//! tests ([`ExpScale::quick`]) and the full bench harness
//! ([`ExpScale::paper`]), and returns a typed result with a text-table
//! rendering. `crisp-bench`'s `run_all` binary is a thin wrapper over
//! these.
//!
//! A runner whose grid points are independent simulations runs them on
//! every core through `sweep`; its result does not depend on the core
//! count.
//!
//! | Paper artifact | Runner |
//! |---|---|
//! | Figure 3 (VS invocation correlation) | [`fig03_vertex_batching`] |
//! | Figure 5/8 (rendered frames) | [`render_scene_to_ppm`] |
//! | Table II (configs) | [`table02_configs`] |
//! | Figure 6 (frame-time correlation) | [`fig06_frame_correlation`] |
//! | Figure 7 (mip merge demo) | [`fig07_mip_merge`] |
//! | Figure 9 (LoD MAPE) | [`fig09_lod_mape`] |
//! | Figure 10 (tex lines / CTA) | [`fig10_texlines_histogram`] |
//! | Figure 11 (L2 composition) | [`fig11_l2_composition`] |
//! | Figure 12 (warped-slicer) | [`fig12_warped_slicer`] |
//! | Figure 13 (occupancy timeline) | [`fig13_occupancy_timeline`] |
//! | Figure 14 (TAP vs MiG vs MPS) | [`fig14_tap`] |
//! | Figure 15 (TAP composition) | [`fig15_tap_composition`] |

mod ablations;
mod composition;
mod concurrent;
mod renders;
mod table02;
mod validation;

pub use ablations::{
    ablation_batch_size, ablation_l1_ports, ablation_mig_banks, ablation_mshr,
    ablation_replacement, ablation_scheduler, BatchSizeAblation, HwSweep,
};
pub use composition::{fig07_mip_merge, fig11_l2_composition, Fig07Result, Fig11Result, Fig11Row};
pub use concurrent::{
    fig12_warped_slicer, fig13_occupancy_timeline, fig14_tap, fig15_tap_composition, ComputeKind,
    Fig12Result, Fig13Result, Fig14Result, Fig15Result, PairRow,
};
pub use renders::render_scene_to_ppm;
pub use table02::{table02_configs, Table02Result};
pub use validation::{
    fig03_vertex_batching, fig06_frame_correlation, fig09_lod_mape, fig10_texlines_histogram,
    Fig03Result, Fig06Result, Fig09Result, Fig10Result,
};

use std::sync::atomic::{AtomicUsize, Ordering};

use crisp_scenes::{ComputeScale, Scene, SceneId};
use crisp_trace::Stream;

use crate::{Resolution, GRAPHICS_STREAM};

/// Scaling knobs shared by the experiment runners.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExpScale {
    /// Scene tessellation detail (1.0 = evaluation size).
    pub detail: f32,
    /// Render resolution.
    pub res: Resolution,
    /// Compute workload grid scaling.
    pub compute: ComputeScale,
}

impl ExpScale {
    /// Tiny sizes for unit/integration tests (seconds, not minutes).
    pub fn quick() -> Self {
        ExpScale {
            detail: 0.2,
            res: Resolution::Tiny,
            compute: ComputeScale::tiny(),
        }
    }

    /// The default evaluation scale used by the bench harness.
    pub fn paper() -> Self {
        ExpScale {
            detail: 1.0,
            res: Resolution::Scaled2K,
            compute: ComputeScale::default(),
        }
    }
}

/// Render one frame of scene `id` at `scale` and keep its trace.
///
/// A runner renders each frame it needs once, outside its grid, and hands
/// every grid point a [`Stream::clone`] (one refcount per CTA).
fn render_trace(id: SceneId, scale: ExpScale) -> Stream {
    let (w, h) = scale.res.dims();
    Scene::build(id, scale.detail)
        .render(w, h, false, GRAPHICS_STREAM)
        .trace
}

/// Run `f` on every point of an experiment grid, on as many workers as the
/// host has cores (capped at the number of points), and return the
/// results in point order.
///
/// Each point is an independent single-threaded simulation, so results do
/// not depend on the worker count or on which worker ran which point.
fn sweep<P: Sync, R: Send>(points: &[P], f: impl Fn(&P) -> R + Sync) -> Vec<R> {
    sweep_with(cores(), points, f)
}

/// The host's available parallelism: [`sweep`]'s worker count before it
/// is capped at the number of points.
fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// [`sweep`] on at most `workers` workers, the calling thread being one.
///
/// Workers claim points from a shared counter. A panicking point stops
/// further claims and re-raises the panic in the caller once every worker
/// has finished its current point.
fn sweep_with<P: Sync, R: Send>(
    workers: usize,
    points: &[P],
    f: impl Fn(&P) -> R + Sync,
) -> Vec<R> {
    let workers = workers.clamp(1, points.len().max(1));
    // The next unclaimed point. `Relaxed` suffices: the counter publishes
    // no data, and results travel back through `join`.
    let next = AtomicUsize::new(0);
    let work = || {
        // Drained on unwind so the other workers stop claiming points.
        struct Drain<'a>(&'a AtomicUsize, usize);
        impl Drop for Drain<'_> {
            fn drop(&mut self) {
                if std::thread::panicking() {
                    self.0.store(self.1, Ordering::Relaxed);
                }
            }
        }
        let _drain = Drain(&next, points.len());
        let mut done = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(p) = points.get(i) else {
                return done;
            };
            done.push((i, f(p)));
        }
    };
    let mut slots: Vec<Option<R>> = points.iter().map(|_| None).collect();
    std::thread::scope(|s| {
        let helpers: Vec<_> = (1..workers).map(|_| s.spawn(work)).collect();
        let mut done = work();
        for h in helpers {
            match h.join() {
                Ok(more) => done.extend(more),
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
        for (i, r) in done {
            slots[i] = Some(r);
        }
    });
    slots
        .into_iter()
        .map(|r| r.expect("every point ran"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_returns_results_in_point_order() {
        let points: Vec<u64> = (0..23).collect();
        let want: Vec<u64> = points.iter().map(|p| p * p).collect();
        assert_eq!(sweep_with(1, &points, |&p| p * p), want);
        for workers in [2, 5] {
            // Point 0 finishes only after point 1 has: two workers hold
            // them at once, and results arrive out of point order.
            let (done, wait) = std::sync::mpsc::channel();
            let wait = std::sync::Mutex::new(wait);
            let got = sweep_with(workers, &points, |&p| {
                match p {
                    0 => wait.lock().expect("lock").recv().expect("point 1 ran"),
                    1 => done.send(()).expect("point 0 waits"),
                    _ => {}
                }
                p * p
            });
            assert_eq!(got, want, "{workers} workers");
        }
        assert_eq!(sweep(&points, |&p| p * p), want);
        assert!(sweep_with(3, &[] as &[u64], |&p| p).is_empty());
    }

    #[test]
    fn a_panicking_point_panics_the_caller() {
        for workers in [1, 2, 5] {
            let points: Vec<u32> = (0..16).collect();
            let caught = std::panic::catch_unwind(|| {
                sweep_with(workers, &points, |&p| {
                    assert!(p != 7, "point 7 failed");
                    p
                })
            });
            let payload = caught.expect_err("the panic must reach the caller");
            let msg = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or("");
            assert!(msg.contains("point 7 failed"), "{workers} workers: {msg:?}");
        }
    }
}
