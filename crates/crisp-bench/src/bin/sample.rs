//! ROI sampling: fast-forward vs detailed simulation of a concurrent
//! render+compute scene.
//!
//! Long traces — many frames of steady-state rendering plus a compute
//! pipeline — rarely need cycle-accurate simulation of every frame. This
//! binary demonstrates the `crisp-ckpt` sampling flow: functionally
//! fast-forward over the first `reps` frames (advancing trace cursors and
//! warming L1/L2/DRAM state, zero cycles charged), then simulate only the
//! region of interest in detail. It reports:
//!
//! * wall-clock speedup of fast-forwarding the skipped region vs simulating
//!   it in detail (the headline win — expected well above 5×), and
//! * the per-stream ROI IPC error of the sampled run vs the same region
//!   inside the full detailed run (the accuracy cost of sampling). Each
//!   stream is measured over its own marker→finish window so the error is
//!   insensitive to exactly when each stream crosses into its ROI.
//!
//! `CRISP_SCALE=quick` shrinks the workload.

use std::time::Instant;

use crisp_core::prelude::*;
use crisp_core::{COMPUTE_STREAM, GRAPHICS_STREAM};
use crisp_sim::obs::Track;

const ROI_MARKER: &str = "roi";

/// `stream`'s ROI window in `r`: its own marker (or simulation start when
/// absent, i.e. the sampled run) to the cycle it retired its last command.
fn roi_window(r: &SimResult, stream: StreamId) -> (u64, u64) {
    let marker = r
        .timeline
        .instants()
        .iter()
        .find(|i| i.name == ROI_MARKER && i.track == Track::Stream(stream.0))
        .map_or(0, |i| i.at);
    (marker, r.per_stream[&stream].stats.finish_cycle)
}

fn roi_ipc(r: &SimResult, stream: StreamId, roi_instr: u64) -> f64 {
    let (from, to) = roi_window(r, stream);
    roi_instr as f64 / (to.saturating_sub(from)).max(1) as f64
}

fn main() {
    let s = crisp_bench::scale();
    let (w, h) = s.res.dims();
    let gpu = GpuConfig::test_tiny();
    let reps = 4usize;
    let scene = Scene::build(SceneId::SponzaPbr, s.detail);

    let spec = PartitionSpec::fg_even(&gpu, GRAPHICS_STREAM, COMPUTE_STREAM);

    // Calibrate how many VIO chains take about as long as one rendered
    // frame, so both streams stay busy across the whole trace and the
    // sampled ROI sees the full run's concurrency mix. First estimate from
    // isolated runs, then refine with one concurrent probe (the partition
    // and interference shift both streams' throughput).
    let frame_cycles = {
        let f = scene.render(w, h, false, GRAPHICS_STREAM);
        Simulation::builder()
            .gpu(gpu.clone())
            .trace(TraceBundle::from_streams(vec![f.trace]))
            .run_or_panic()
            .cycles
    };
    let chain_cycles = Simulation::builder()
        .gpu(gpu.clone())
        .trace(TraceBundle::from_streams(vec![vio(
            COMPUTE_STREAM,
            s.compute,
        )]))
        .run_or_panic()
        .cycles;
    let mut chains_per_frame = (frame_cycles / chain_cycles.max(1)).max(1) as usize;
    {
        let f = scene.render(w, h, false, GRAPHICS_STREAM);
        let mut probe = Stream::new(COMPUTE_STREAM, StreamKind::Compute);
        for _ in 0..chains_per_frame {
            probe
                .commands
                .extend(vio(COMPUTE_STREAM, s.compute).commands);
        }
        let r = Simulation::builder()
            .gpu(gpu.clone())
            .partition(spec.clone())
            .trace(TraceBundle::from_streams(vec![f.trace, probe]))
            .run_or_panic();
        let g_finish = r.per_stream[&GRAPHICS_STREAM].stats.finish_cycle;
        let c_finish = r.per_stream[&COMPUTE_STREAM].stats.finish_cycle.max(1);
        let scaled = chains_per_frame as f64 * g_finish as f64 / c_finish as f64;
        chains_per_frame = (scaled.round() as usize).max(1);
    }

    // Graphics: `reps` warmup frames, then the ROI frame. Frame-to-frame
    // reuse is what makes warming matter: the ROI starts with hot caches.
    let mut g = Stream::new(GRAPHICS_STREAM, StreamKind::Graphics);
    let mut warmup_instr = 0u64;
    for _ in 0..reps {
        let f = scene.render(w, h, false, GRAPHICS_STREAM);
        warmup_instr += f.trace.instr_count() as u64;
        g.commands.extend(f.trace.commands);
    }
    g.marker(ROI_MARKER);
    let roi_frame = scene.render(w, h, false, GRAPHICS_STREAM).trace;
    let g_roi_instr = roi_frame.instr_count() as u64;
    g.commands.extend(roi_frame.commands);

    // Compute: a matched span of warmup VIO chains, then one frame's worth
    // in the ROI.
    let mut c = Stream::new(COMPUTE_STREAM, StreamKind::Compute);
    for _ in 0..reps * chains_per_frame {
        let chain = vio(COMPUTE_STREAM, s.compute);
        warmup_instr += chain.instr_count() as u64;
        c.commands.extend(chain.commands);
    }
    c.marker(ROI_MARKER);
    let mut c_roi_instr = 0u64;
    for _ in 0..chains_per_frame {
        let chain = vio(COMPUTE_STREAM, s.compute);
        c_roi_instr += chain.instr_count() as u64;
        c.commands.extend(chain.commands);
    }

    let bundle = TraceBundle::from_streams(vec![g, c]);
    let build = |trace: TraceBundle| {
        Simulation::builder()
            .gpu(gpu.clone())
            .partition(spec.clone())
            .telemetry(Telemetry::TIMELINE)
            .trace(trace)
            .try_build()
            .expect("valid sampled workload")
    };

    // 1. Reference: simulate the skipped region in detail up to the marker
    //    barrier (all streams aligned, machine drained — the same phasing
    //    fast-forward produces), then the ROI in detail.
    let mut sim = build(bundle.clone());
    let t = Instant::now();
    let skipped_cycles = sim
        .run_to_marker(ROI_MARKER)
        .expect("detailed run to marker");
    let t_detail_skip = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let full = sim.run_or_panic();
    let t_full = t_detail_skip + t.elapsed().as_secs_f64();
    let ipc_g_full = roi_ipc(&full, GRAPHICS_STREAM, g_roi_instr);
    let ipc_c_full = roi_ipc(&full, COMPUTE_STREAM, c_roi_instr);

    // 2. Fast-forward the skipped region, simulate the ROI in detail.
    let mut ff = build(bundle);
    let t = Instant::now();
    let skipped_cmds = ff
        .fast_forward_to_marker(ROI_MARKER)
        .expect("fast-forward over an in-memory bundle");
    let t_ff_skip = t.elapsed().as_secs_f64().max(1e-9);
    let t = Instant::now();
    let roi = ff.run_or_panic();
    let t_roi = t.elapsed().as_secs_f64();
    // The sampled run issues only ROI instructions, so the per-stream
    // counters are the ROI's own.
    let ipc_g_ff = roi_ipc(
        &roi,
        GRAPHICS_STREAM,
        roi.per_stream[&GRAPHICS_STREAM].stats.instructions,
    );
    let ipc_c_ff = roi_ipc(
        &roi,
        COMPUTE_STREAM,
        roi.per_stream[&COMPUTE_STREAM].stats.instructions,
    );

    let speedup_skip = t_detail_skip / t_ff_skip;
    let speedup_total = t_full / (t_ff_skip + t_roi);
    let err = |sampled: f64, full: f64| (sampled - full).abs() / full * 100.0;
    let err_g = err(ipc_g_ff, ipc_g_full);
    let err_c = err(ipc_c_ff, ipc_c_full);
    let ipc_err = (err_g * g_roi_instr as f64 + err_c * c_roi_instr as f64)
        / (g_roi_instr + c_roi_instr).max(1) as f64;

    let mut table = String::new();
    use std::fmt::Write as _;
    let _ = writeln!(table, "{:<34} {:>14}", "metric", "value");
    let _ = writeln!(table, "{:<34} {:>14}", "skipped commands", skipped_cmds);
    let _ = writeln!(table, "{:<34} {:>14}", "skipped instructions", warmup_instr);
    let _ = writeln!(
        table,
        "{:<34} {:>14}",
        "skipped cycles (detailed)", skipped_cycles
    );
    let _ = writeln!(
        table,
        "{:<34} {:>13.2}s",
        "detailed sim of skipped region", t_detail_skip
    );
    let _ = writeln!(
        table,
        "{:<34} {:>13.2}s",
        "fast-forward of skipped region", t_ff_skip
    );
    let _ = writeln!(
        table,
        "{:<34} {:>13.1}x",
        "speedup on skipped region", speedup_skip
    );
    let _ = writeln!(table, "{:<34} {:>13.2}s", "full detailed run", t_full);
    let _ = writeln!(
        table,
        "{:<34} {:>13.2}s",
        "fast-forward + detailed ROI",
        t_ff_skip + t_roi
    );
    let _ = writeln!(
        table,
        "{:<34} {:>13.1}x",
        "end-to-end speedup", speedup_total
    );
    let _ = writeln!(
        table,
        "{:<34} {:>14.3}",
        "graphics ROI IPC (detailed)", ipc_g_full
    );
    let _ = writeln!(
        table,
        "{:<34} {:>14.3}",
        "graphics ROI IPC (sampled)", ipc_g_ff
    );
    let _ = writeln!(
        table,
        "{:<34} {:>14.3}",
        "compute ROI IPC (detailed)", ipc_c_full
    );
    let _ = writeln!(
        table,
        "{:<34} {:>14.3}",
        "compute ROI IPC (sampled)", ipc_c_ff
    );
    let _ = writeln!(
        table,
        "{:<34} {:>13.1}%",
        "ROI IPC error (instr-weighted)", ipc_err
    );
    crisp_bench::emit("sample_roi", &table);

    assert!(
        speedup_skip >= 5.0,
        "fast-forward must beat detailed simulation of the skipped region \
         by at least 5x, got {speedup_skip:.1}x"
    );
}
