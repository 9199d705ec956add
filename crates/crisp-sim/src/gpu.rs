//! The whole-GPU simulator: stream dispatch, CTA scheduling under a
//! partition policy, and the cycle loop.

use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use crisp_ckpt::{bad, CheckpointState, Reader, Writer};
use crisp_mem::{
    BankMap, Completion, CompositionSnapshot, MemReq, MemStats, MemSystem, ReqToken, SetPartition,
    TapController, TickTimes,
};
use crisp_obs::host::{set_alloc_phase, HostPhase, HostProfile, HostProfiler};
use crisp_obs::{Labels, MetricRegistry, MetricsSnapshot, TraceLog, TraceRecorder};
use crisp_sm::{CtaResources, CtaWork, CycleOutput, ResourceQuota, Sm, StallBreakdown};
use crisp_trace::{
    CommandMeta, KernelId, KernelInfo, Space, StreamId, StreamKind, TraceBundle, TraceInput,
    TraceSource, TraceStats, SECTOR_BYTES,
};

use crate::config::GpuConfig;
use crate::error::{DeadlockReport, HangContext, SimError, StreamFrontier};
use crate::interrupt::Interrupt;
use crate::policy::{L2Policy, PartitionSpec, SmPartition};
use crate::slicer::WarpedSlicer;
use crate::stats::{OccupancySample, PerStreamStats};

/// Per-stream results of one simulation.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StreamResult {
    /// Timing and counts.
    pub stats: PerStreamStats,
    /// DRAM bytes moved for this stream.
    pub dram_bytes: u64,
}

/// One kernel's execution record in the timeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KernelRecord {
    /// Stream the kernel ran on.
    pub stream: StreamId,
    /// Kernel name from the trace.
    pub name: String,
    /// Cycle its first CTA could be issued.
    pub start_cycle: u64,
    /// Cycle its last CTA committed.
    pub end_cycle: u64,
    /// Grid size.
    pub ctas: u64,
}

impl KernelRecord {
    /// Kernel wall-clock cycles.
    pub fn elapsed(&self) -> u64 {
        self.end_cycle - self.start_cycle
    }
}

/// Everything a finished simulation reports.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// Total simulated cycles until the last stream finished.
    pub cycles: u64,
    /// Per-stream results.
    pub per_stream: BTreeMap<StreamId, StreamResult>,
    /// L1 statistics summed over SMs.
    pub l1_stats: MemStats,
    /// L2 statistics summed over banks.
    pub l2_stats: MemStats,
    /// Final L2 composition snapshot.
    pub l2_composition: CompositionSnapshot,
    /// Periodic L2 composition snapshots (cycle, snapshot).
    pub l2_composition_timeline: Vec<(u64, CompositionSnapshot)>,
    /// Occupancy timeline (paper Figure 13).
    pub occupancy: Vec<OccupancySample>,
    /// Per-stream IPC timeline sampled with the occupancy interval:
    /// (cycle, stream → instructions issued since the previous sample).
    pub ipc_timeline: Vec<(u64, BTreeMap<StreamId, u64>)>,
    /// Warped-slicer decisions, when the dynamic policy ran.
    pub slicer_history: Vec<(u64, f64)>,
    /// TAP's final set allocation, when TAP ran.
    pub tap_allocation: Option<Vec<(StreamId, u64)>>,
    /// Per-kernel execution timeline in completion order.
    pub kernel_log: Vec<KernelRecord>,
    /// Instructions each SM issued per stream (index = SM id) — the
    /// spatial view of the partition (which SMs actually ran what).
    pub per_sm_instructions: Vec<BTreeMap<StreamId, u64>>,
    /// Scheduler-slot accounting per SM (index = SM id), including the
    /// stall-cause breakdown. [`SimResult::stalls`] derives the aggregate.
    pub per_sm_stalls: Vec<StallBreakdown>,
    /// The unified metric registry snapshot: every counter the run
    /// produced, keyed by `sm` / `stream` / `class` labels. Always
    /// populated (built once at end of run from final state).
    pub metrics: MetricsSnapshot,
    /// The span/counter timeline. Empty unless
    /// [`Telemetry::TIMELINE`](crate::Telemetry::TIMELINE) or
    /// [`Telemetry::METRICS`](crate::Telemetry::METRICS) was enabled.
    pub timeline: TraceLog,
    /// Trace-paging statistics from the run's [`TraceSource`]: peak
    /// resident window and bytes decoded. For a materialized bundle the
    /// peak equals the whole-bundle size; for a streaming source it
    /// reflects only the CTAs that were in flight at once.
    pub trace: TraceStats,
    /// Host-clock self-profile: wall-clock attribution of the simulator's
    /// own phases (dispatch, execute, memory tick, telemetry, …),
    /// heartbeats, and — when the `alloc-profile`
    /// feature's counting allocator is installed — allocation accounting.
    /// `None` unless the run was built with `.host_profile(true)`. Purely
    /// observational: simulated results and the sim-clock exports are
    /// byte-identical with or without it.
    pub host_profile: Option<HostProfile>,
}

/// Marker label that clears memory-hierarchy statistics when consumed —
/// used to measure steady-state (warmed-cache) hit rates: replay one frame,
/// clear, replay again.
pub const CLEAR_STATS_MARKER: &str = "crisp:clear-stats";

/// Default forward-progress watchdog window (cycles without any SM issuing
/// an instruction before the run fails with [`SimError::Deadlock`]).
pub const DEFAULT_WATCHDOG: u64 = 10_000_000;

/// Cancellation-poll cadence: the cycle loop observes a bumped
/// [`Interrupt`] generation within this many simulated cycles. Small
/// enough that cancellation lands well inside any practical checkpoint
/// interval, large enough that the atomic load stays off the per-cycle
/// hot path.
pub const DEFAULT_INTERRUPT_INTERVAL: u64 = 1_024;

/// Why the cycle loop gave up. Internal: converted into a full
/// [`SimError`] by `GpuSim::failure` once every SM is back in the
/// simulator (the report needs them).
#[derive(Debug)]
enum Violation {
    /// `now` crossed `cfg.max_cycles`.
    Budget,
    /// The forward-progress watchdog window elapsed without any SM issuing.
    Stall,
    /// An SM panicked during its cycle; carries the payload when it was a
    /// string.
    WorkerPanic(String),
    /// The trace source failed to page a CTA in (I/O error or a corrupt
    /// container detected mid-stream).
    TraceIo(String),
    /// The installed [`Interrupt`] moved past the run's generation —
    /// cooperative cancellation. Carries the observed generation.
    Cancelled(u64),
}

/// The value of the two retired worker-thread slots of a checkpoint (after
/// the config and after the partition spec). The simulator is
/// single-threaded; the slots keep the format at version 3, and restore
/// reads and range-checks them, then drops them, so checkpoints written by
/// multi-threaded runs of older builds still load.
const RETIRED_THREADS: usize = 1;

/// Render a caught panic payload for diagnostics.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

impl SimResult {
    /// Convenience: cycles until `stream` finished.
    pub fn stream_cycles(&self, stream: StreamId) -> u64 {
        self.per_stream
            .get(&stream)
            .map_or(0, |r| r.stats.finish_cycle)
    }

    /// Cycles until every stream finished (the concurrent makespan).
    pub fn makespan(&self) -> u64 {
        self.per_stream
            .values()
            .map(|s| s.stats.finish_cycle)
            .max()
            .unwrap_or(self.cycles)
    }

    /// Scheduler-slot accounting summed over all SMs (the aggregate view of
    /// [`per_sm_stalls`](Self::per_sm_stalls)).
    pub fn stalls(&self) -> StallBreakdown {
        let mut total = StallBreakdown::default();
        for s in &self.per_sm_stalls {
            total.merge(s);
        }
        total
    }

    /// The run's timeline as Chrome Trace Event Format JSON — load it at
    /// <https://ui.perfetto.dev> or `chrome://tracing`. Sim clock only
    /// (`ts` = cycles); the host self-profile is never mixed in here, so
    /// this export stays byte-identical whether or not profiling ran.
    pub fn chrome_trace_json(&self) -> String {
        crisp_obs::chrome::chrome_trace_string(&self.timeline)
    }

    /// The dual-clock trace: the simulated timeline (`ts` = cycles) plus
    /// the host self-profile as its own named process (`ts` = µs of
    /// wall-clock). Falls back to [`chrome_trace_json`](Self::chrome_trace_json)
    /// when the run was not profiled.
    pub fn chrome_trace_json_with_host(&self) -> String {
        match &self.host_profile {
            Some(h) => crisp_obs::chrome::chrome_trace_with_host_string(&self.timeline, h),
            None => self.chrome_trace_json(),
        }
    }

    /// The human-readable host self-profile report (phase table, heartbeat
    /// trajectory, allocation accounting).
    pub fn host_report(&self) -> String {
        match &self.host_profile {
            Some(h) => h.report(),
            None => "host profiling disabled (build with .host_profile(true))\n".to_string(),
        }
    }

    /// The sampled counter series as `cycle,counter,value` CSV.
    pub fn counters_csv(&self) -> String {
        crisp_obs::csv::counters_csv_string(&self.timeline)
    }

    /// The metric registry snapshot as `metric,labels,kind,value` CSV.
    pub fn metrics_csv(&self) -> String {
        crisp_obs::csv::metrics_csv_string(&self.metrics)
    }

    /// The human-readable end-of-run profile report.
    pub fn profile_report(&self) -> String {
        crisp_obs::report::profile_report(&self.metrics, &self.timeline)
    }

    /// Write every profile artifact into `dir` (created if missing):
    /// `trace.json`, `counters.csv`, `metrics.csv`, `profile.txt` — plus,
    /// when the run was host-profiled, `host_profile.txt` and the
    /// dual-clock `trace_host.json`.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors from creating the directory or writing
    /// the files.
    pub fn write_profile(&self, dir: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)?;
        std::fs::write(dir.join("trace.json"), self.chrome_trace_json())?;
        std::fs::write(dir.join("counters.csv"), self.counters_csv())?;
        std::fs::write(dir.join("metrics.csv"), self.metrics_csv())?;
        std::fs::write(dir.join("profile.txt"), self.profile_report())?;
        if self.host_profile.is_some() {
            std::fs::write(dir.join("host_profile.txt"), self.host_report())?;
            std::fs::write(
                dir.join("trace_host.json"),
                self.chrome_trace_json_with_host(),
            )?;
        }
        Ok(())
    }

    /// A compact human-readable summary of the run.
    pub fn summary(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{} cycles ({} streams)",
            self.cycles,
            self.per_stream.len()
        );
        for (id, r) in &self.per_stream {
            let _ = writeln!(
                out,
                "  {id}: {} instrs, IPC {:.2}, {} CTAs in {} kernels, {} KiB DRAM",
                r.stats.instructions,
                r.stats.ipc(),
                r.stats.ctas,
                r.stats.kernels,
                r.dram_bytes / 1024,
            );
        }
        let l1 = self.l1_stats.total();
        let l2 = self.l2_stats.total();
        let _ = writeln!(
            out,
            "  L1 {:.1}% hit ({} acc) | L2 {:.1}% hit ({} acc) | L2 lines: {:.0}% tex / {:.0}% pipe / {:.0}% compute",
            l1.hit_rate() * 100.0,
            l1.accesses,
            l2.hit_rate() * 100.0,
            l2.accesses,
            self.l2_composition.class_fraction(crisp_trace::DataClass::Texture) * 100.0,
            self.l2_composition.class_fraction(crisp_trace::DataClass::Pipeline) * 100.0,
            self.l2_composition.class_fraction(crisp_trace::DataClass::Compute) * 100.0,
        );
        out
    }
}

#[derive(Debug)]
struct RunningKernel {
    kernel: KernelId,
    info: Arc<KernelInfo>,
    next_cta: usize,
    outstanding: usize,
    start_cycle: u64,
}

#[derive(Debug)]
struct StreamState {
    id: StreamId,
    kind: StreamKind,
    /// Index of the stream in the attached source's directory, which
    /// holds its command list ([`GpuSim::commands`]). Instruction payloads
    /// are demand-paged through [`TraceSource::fetch_cta`] when dispatched.
    dir: usize,
    /// Cursor into the command list: the next command to consume.
    next_cmd: usize,
    current: Option<RunningKernel>,
    started: bool,
    finished: bool,
}

/// The simulator. Build with [`Simulation::builder`](crate::Simulation),
/// then call [`GpuSim::run`] (the builder's `run()` does both).
///
/// # Example
///
/// ```
/// use crisp_sim::{GpuConfig, Simulation};
/// use crisp_trace::{CtaTrace, Instr, KernelTrace, Op, Reg, Stream, StreamId,
///                   StreamKind, TraceBundle, WarpTrace};
///
/// let mut w = WarpTrace::new();
/// w.push(Instr::alu(Op::FpFma, Reg(1), &[]));
/// w.seal();
/// let k = KernelTrace::new("k", 32, 16, 0, vec![CtaTrace::new(vec![w])]);
/// let mut s = Stream::new(StreamId(0), StreamKind::Compute);
/// s.launch(k);
///
/// let result = Simulation::builder()
///     .gpu(GpuConfig::test_tiny())
///     .trace(TraceBundle::from_streams(vec![s]))
///     .run()
///     .expect("valid trace and config");
/// assert!(result.cycles > 0);
/// ```
///
/// The simulator runs on the calling thread. Each SM's memory traffic is
/// buffered in its private [`crisp_mem::SmMemPort`] and drained into the
/// crossbar in ascending SM-id order, which defines the request order.
#[derive(Debug)]
pub struct GpuSim {
    cfg: GpuConfig,
    spec: PartitionSpec,
    sms: Vec<Sm>,
    mem: MemSystem,
    streams: Vec<StreamState>,
    /// The attached trace source: every CTA's instructions are paged in
    /// through it at dispatch and released at commit.
    source: Option<TraceSource>,
    /// Export `trace/*` residency gauges into the metric registry. Off by
    /// default so exports stay byte-identical between streaming and
    /// materialized inputs (paging statistics necessarily differ).
    pub(crate) residency_telemetry: bool,
    slicer: Option<WarpedSlicer>,
    now: u64,
    stats: BTreeMap<StreamId, PerStreamStats>,
    occupancy: Vec<OccupancySample>,
    ipc_timeline: Vec<(u64, BTreeMap<StreamId, u64>)>,
    last_issued_snapshot: BTreeMap<StreamId, u64>,
    /// Cycles between occupancy samples.
    pub(crate) occupancy_interval: u64,
    /// Cycles between L2 composition snapshots (0 = final only).
    pub(crate) composition_interval: u64,
    /// Cycles between counter samples in the trace (0 = off).
    pub(crate) counter_interval: u64,
    composition_timeline: Vec<(u64, CompositionSnapshot)>,
    /// Span/counter recorder; `None` (the default) keeps the hot path free
    /// of any recording work.
    recorder: Option<TraceRecorder>,
    /// Previous cumulative values behind the sampled counter deltas.
    /// Separate from `last_issued_snapshot` so counter sampling never
    /// perturbs the `ipc_timeline` windows.
    counter_prev_issued: BTreeMap<StreamId, u64>,
    counter_prev_dram: BTreeMap<StreamId, u64>,
    counter_prev_l1: (u64, u64),
    counter_prev_l2: (u64, u64),
    cta_seq: u64,
    last_progress: u64,
    rr_offset: usize,
    /// Cached per-stream SM allowlists (index = SM id), built at attach().
    allowed_sms: BTreeMap<StreamId, Vec<bool>>,
    kernel_log: Vec<KernelRecord>,
    /// Write a checkpoint every this many cycles during [`GpuSim::run`]
    /// (0 = never). Not itself part of the checkpointed state: a resumed
    /// simulator starts with checkpointing off.
    pub(crate) checkpoint_every: u64,
    /// Directory periodic checkpoints are written into as
    /// `ckpt-<cycle>.ckpt`; `None` means the current directory.
    pub(crate) checkpoint_dir: Option<PathBuf>,
    /// Forward-progress watchdog window: if no SM issues an instruction
    /// for this many consecutive cycles while work remains, the run fails
    /// with [`SimError::Deadlock`] carrying a full diagnostic report.
    /// `0` disables the watchdog. Like `checkpoint_every`, transient
    /// driver config — never serialized into checkpoints.
    pub(crate) watchdog: u64,
    /// While set, streams park in front of a marker with this label instead
    /// of popping it — the cross-stream barrier behind
    /// [`run_to_marker`](Self::run_to_marker). Transient; never serialized.
    hold_at_marker: Option<String>,
    /// Cooperative cancellation: the shared generation counter plus the
    /// generation this run was installed against. Polled by the cycle loop
    /// every [`DEFAULT_INTERRUPT_INTERVAL`] cycles; a mismatch ends the run
    /// as [`SimError::Cancelled`]. Transient driver state like the
    /// watchdog — never serialized; a restored simulator starts
    /// uninterruptible until a handle is installed again.
    interrupt: Option<(Interrupt, u64)>,
    /// Host-clock self-profiler; `None` (the default) keeps every
    /// wall-clock read off the hot path. Transient driver state like the
    /// watchdog — never serialized; a restored simulator starts unprofiled.
    host: Option<Box<HostProfiler>>,
    /// Reused buffer for memory-system completions, so the steady-state
    /// cycle loop allocates nothing. Always empty between cycles.
    scratch_completions: Vec<Completion>,
    /// Reused buffer for per-SM cycle outputs. Always empty between cycles.
    scratch_outs: Vec<CycleOutput>,
}

/// Lap timer for the driver's per-cycle phases. One clock laps a whole run
/// segment, and laps are contiguous — each `switch` closes the running
/// phase at the instant the next one starts, and `carve` moves a sub-phase
/// timed inside the running lap out of it — so driver phase times sum to
/// the loop's wall-clock with no gaps. Every method is a no-op (one branch,
/// no clock read) when profiling is off.
struct PhaseClock {
    t: Option<Instant>,
    phase: HostPhase,
}

impl PhaseClock {
    fn start(on: bool, phase: HostPhase) -> Self {
        if on {
            set_alloc_phase(phase);
        }
        PhaseClock {
            t: on.then(Instant::now),
            phase,
        }
    }

    /// Close the running lap into `host` and begin `next`.
    fn switch(&mut self, host: &mut Option<Box<HostProfiler>>, next: HostPhase) {
        if let (Some(t), Some(h)) = (self.t.as_mut(), host.as_mut()) {
            let now = Instant::now();
            h.add(self.phase, (now - *t).as_nanos() as u64);
            *t = now;
            self.phase = next;
            set_alloc_phase(next);
        }
    }

    /// Credit `ns` of the running lap, timed inside it, to `phase` instead.
    fn carve(&mut self, host: &mut Option<Box<HostProfiler>>, phase: HostPhase, ns: u64) {
        if let (Some(t), Some(h)) = (self.t.as_mut(), host.as_mut()) {
            h.add(phase, ns);
            *t += std::time::Duration::from_nanos(ns);
        }
    }

    /// Close the final lap.
    fn finish(self, host: &mut Option<Box<HostProfiler>>) {
        if let (Some(t), Some(h)) = (self.t, host.as_mut()) {
            h.add(self.phase, t.elapsed().as_nanos() as u64);
        }
    }
}

impl GpuSim {
    /// Internal constructor behind the builder.
    pub(crate) fn with_spec(cfg: GpuConfig, spec: PartitionSpec) -> Self {
        let mem = MemSystem::new(cfg.mem_config());
        let sms = mem
            .make_ports()
            .into_iter()
            .enumerate()
            .map(|(i, port)| Sm::new(i, cfg.sm, port))
            .collect();
        GpuSim {
            mem,
            sms,
            spec,
            streams: Vec::new(),
            source: None,
            residency_telemetry: false,
            slicer: None,
            now: 0,
            stats: BTreeMap::new(),
            occupancy: Vec::new(),
            ipc_timeline: Vec::new(),
            last_issued_snapshot: BTreeMap::new(),
            occupancy_interval: 2_000,
            composition_interval: 0,
            counter_interval: 0,
            composition_timeline: Vec::new(),
            recorder: None,
            counter_prev_issued: BTreeMap::new(),
            counter_prev_dram: BTreeMap::new(),
            counter_prev_l1: (0, 0),
            counter_prev_l2: (0, 0),
            cta_seq: 0,
            last_progress: 0,
            rr_offset: 0,
            allowed_sms: BTreeMap::new(),
            kernel_log: Vec::new(),
            checkpoint_every: 0,
            checkpoint_dir: None,
            watchdog: DEFAULT_WATCHDOG,
            hold_at_marker: None,
            interrupt: None,
            host: None,
            scratch_completions: Vec::new(),
            scratch_outs: Vec::new(),
            cfg,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &GpuConfig {
        &self.cfg
    }

    /// Attach a [`TraceSource`] and configure stream-dependent partitioning
    /// (MiG bank masks, TAP controller, warped-slicer). CTA instruction
    /// payloads are demand-paged through the source at dispatch and dropped
    /// at commit, so a streaming source keeps only the in-flight window
    /// resident. Called once, by the builder.
    ///
    /// # Panics
    ///
    /// Panics if a two-stream policy is given a source without exactly two
    /// streams (pre-flight rejects such a source first).
    pub(crate) fn attach(&mut self, source: TraceSource) {
        let metas = source.streams();
        let mut ids: Vec<StreamId> = metas.iter().map(|s| s.id).collect();
        ids.sort_unstable();
        // Graphics stream first for slicer convention.
        let ordered_pair = || -> (StreamId, StreamId) {
            assert_eq!(
                ids.len(),
                2,
                "this partition policy expects exactly two streams"
            );
            let g = metas
                .iter()
                .find(|s| s.kind == StreamKind::Graphics)
                .map(|s| s.id)
                .unwrap_or(ids[0]);
            let other = if ids[0] == g { ids[1] } else { ids[0] };
            (g, other)
        };
        match &self.spec.l2 {
            L2Policy::Shared => {}
            L2Policy::BankSplit => {
                let (a, b) = ordered_pair();
                self.mem
                    .set_bank_map(BankMap::mig_even_split(self.cfg.l2_banks, a, b));
            }
            L2Policy::Tap(tap_cfg) => {
                let sets_per_bank =
                    self.cfg.l2_bytes / self.cfg.l2_banks as u64 / 128 / self.cfg.l2_assoc as u64;
                let tap =
                    TapController::new(ids.clone(), sets_per_bank, self.cfg.l2_assoc, *tap_cfg);
                self.mem.set_partition(SetPartition::Tap(tap));
            }
        }
        if let SmPartition::IntraSmDynamic(slicer_cfg) = &self.spec.sm {
            let (a, b) = ordered_pair();
            self.slicer = Some(WarpedSlicer::new(slicer_cfg.clone(), a, b));
        }
        for s in metas {
            let mut mask = vec![false; self.cfg.n_sms];
            for sm in self.spec.sms_for(s.id, self.cfg.n_sms) {
                mask[sm] = true;
            }
            self.allowed_sms.insert(s.id, mask);
        }
        for (dir, s) in metas.iter().enumerate() {
            self.stats.entry(s.id).or_default();
            self.streams.push(StreamState {
                id: s.id,
                kind: s.kind,
                dir,
                next_cmd: 0,
                current: None,
                started: false,
                finished: false,
            });
        }
        self.streams.sort_by_key(|s| s.id);
        self.source = Some(source);
    }

    /// Adopt an already-running profiler — the builder starts one early so
    /// pre-flight validation, static analysis, and fast-forward are timed
    /// too, then hands it over here.
    pub(crate) fn install_host_profiler(&mut self, host: Option<Box<HostProfiler>>) {
        if host.is_some() {
            self.host = host;
        }
    }

    /// Install a cooperative cancellation handle. `expected` is the
    /// generation this run is valid for — normally
    /// [`Interrupt::generation`] read *when the job was created*, so a
    /// cancellation that raced ahead of the run starting is still
    /// observed. The cycle loop polls the counter every
    /// [`DEFAULT_INTERRUPT_INTERVAL`] cycles; on a mismatch the run ends as
    /// [`SimError::Cancelled`] with the usual hang context (partial result,
    /// diagnostic report, emergency checkpoint when a checkpoint directory
    /// is configured). A pending cancellation always takes precedence over
    /// a watchdog or cycle-budget violation that fires in the same window.
    pub fn set_interrupt(&mut self, handle: Interrupt, expected: u64) {
        self.interrupt = Some((handle, expected));
    }

    /// Whether the installed [`Interrupt`] (if any) has moved past this
    /// run's generation. Returns the observed stale generation.
    fn interrupt_observed(&self) -> Option<u64> {
        let (handle, expected) = self.interrupt.as_ref()?;
        let observed = handle.generation();
        (observed != *expected).then_some(observed)
    }

    /// Install (or drop) the span/counter recorder. The builder calls this
    /// from its `telemetry` flags.
    pub(crate) fn set_telemetry(&mut self, spans: bool, counters: bool) {
        self.recorder = if spans || counters {
            Some(TraceRecorder::new(self.sms.len(), spans, counters))
        } else {
            None
        };
    }

    /// Run to completion.
    ///
    /// When the builder's
    /// [`checkpoint_every`](crate::SimulationBuilder::checkpoint_every) is
    /// non-zero, a checkpoint is written into its
    /// [`checkpoint_to`](crate::SimulationBuilder::checkpoint_to) directory
    /// at every multiple of that cycle count.
    ///
    /// # Errors
    ///
    /// [`SimError::CycleBudgetExceeded`] past `cfg.max_cycles`,
    /// [`SimError::Deadlock`] when no SM issues an instruction for
    /// [`watchdog`](crate::SimulationBuilder::watchdog) cycles with work
    /// remaining,
    /// [`SimError::WorkerPanic`] when an SM panics during its cycle, and
    /// [`SimError::CheckpointIo`] when a periodic checkpoint cannot be
    /// written. The hang-shaped errors carry a [`DeadlockReport`], the
    /// partial [`SimResult`], and — when a checkpoint directory is
    /// configured — the path of an emergency checkpoint that
    /// [`Simulation::resume`](crate::Simulation::resume) accepts.
    pub fn run(&mut self) -> Result<SimResult, SimError> {
        if let Some(interval) = std::num::NonZeroU64::new(self.checkpoint_every) {
            loop {
                let boundary =
                    (self.now / interval.get() + 1).saturating_mul(self.checkpoint_every);
                if self.run_segment(Some(boundary))? {
                    break;
                }
                let dir = self.checkpoint_dir.clone().unwrap_or_default();
                let path = dir.join(format!("ckpt-{}.ckpt", self.now));
                let ckpt_start = self.host.as_ref().map(|h| {
                    set_alloc_phase(HostPhase::CheckpointIo);
                    h.elapsed_ns()
                });
                if let Err(e) = self.save_checkpoint(&path) {
                    return Err(SimError::CheckpointIo {
                        cycle: self.now,
                        path,
                        source: e,
                    });
                }
                if let Some(t0) = ckpt_start {
                    let label = format!("ckpt-{}", self.now);
                    let h = self.host.as_mut().expect("checked above");
                    h.span_end(HostPhase::CheckpointIo, &label, t0);
                }
            }
        } else {
            self.run_segment(None)?;
        }
        Ok(self.result())
    }

    /// [`run`](Self::run) that panics with the rendered diagnostic on
    /// failure — the shim for benches and throwaway scripts where a
    /// `Result` is just ceremony.
    ///
    /// # Panics
    ///
    /// Panics on any [`SimError`], with the full diagnostic as the message.
    pub fn run_or_panic(&mut self) -> SimResult {
        self.run().unwrap_or_else(|e| panic!("{e}"))
    }

    /// Advance until no work remains or `cycle` is reached, whichever comes
    /// first. Returns `true` when the simulation finished. Continue with
    /// another `run_until` or a final [`GpuSim::run`] for the result.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`GpuSim::run`].
    pub fn run_until(&mut self, cycle: u64) -> Result<bool, SimError> {
        self.run_segment(Some(cycle))
    }

    /// Run in detail until every stream is parked in front of its next
    /// `label` marker and the machine has drained — the marker acts as a
    /// cross-stream barrier. Streams without such a marker simply run to
    /// completion. Returns the cycle the barrier was reached; a subsequent
    /// [`run`](Self::run) releases all streams in the same cycle.
    ///
    /// This is the detailed-mode counterpart of
    /// [`fast_forward_to_marker`](Self::fast_forward_to_marker): both leave
    /// every stream aligned at the marker, so a sampled region of interest
    /// can be compared against a detailed reference with identical phasing.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`GpuSim::run`].
    pub fn run_to_marker(&mut self, label: &str) -> Result<u64, SimError> {
        self.hold_at_marker = Some(label.to_string());
        let r = self.run_segment(None);
        self.hold_at_marker = None;
        r.map(|_| self.now)
    }

    /// Shared driver behind [`run`](Self::run) and
    /// [`run_until`](Self::run_until): advance until done or the cycle
    /// limit. Returns `true` when all work has drained. A loop violation is
    /// converted into a full [`SimError`] here, with every SM back in
    /// `self`, so the diagnostic covers every SM even when one panicked.
    fn run_segment(&mut self, limit: Option<u64>) -> Result<bool, SimError> {
        self.run_serial(limit).map_err(|v| self.failure(v))
    }

    /// The cycle loop. Its own bookkeeping between cycles is dispatch time
    /// on the segment's one lap clock.
    fn run_serial(&mut self, limit: Option<u64>) -> Result<bool, Violation> {
        let mut clock = PhaseClock::start(self.host.is_some(), HostPhase::Dispatch);
        let done = loop {
            if !self.work_remains() {
                break Ok(true);
            }
            if limit.is_some_and(|l| self.now >= l) {
                break Ok(false);
            }
            if let Err(v) = self.tick(&mut clock) {
                break Err(v);
            }
            if let Some(v) = self.budget_violation() {
                break Err(v);
            }
        };
        clock.finish(&mut self.host);
        done
    }

    fn work_remains(&self) -> bool {
        self.streams.iter().any(|s| {
            (s.current.is_some() || s.next_cmd < self.commands(s).len()) && !self.parked(s)
        }) || self.sms.iter().any(Sm::busy)
            || !self.mem.quiescent()
    }

    /// The command list of `st`, read from the attached source's directory.
    fn commands(&self, st: &StreamState) -> &[CommandMeta] {
        let src = self.source.as_ref().expect("streams come from the source");
        &src.streams()[st.dir].commands
    }

    /// The next unconsumed command of `st`, if any.
    fn front(&self, st: &StreamState) -> Option<&CommandMeta> {
        self.commands(st).get(st.next_cmd)
    }

    /// Whether `st` is waiting at the held barrier marker: its previous
    /// kernel completed and the marker is next in line.
    fn parked(&self, st: &StreamState) -> bool {
        self.hold_at_marker.as_deref().is_some_and(|hold| {
            st.current.is_none()
                && matches!(self.front(st), Some(CommandMeta::Marker(l)) if l == hold)
        })
    }

    /// Whether the whole memory hierarchy — shared L2/DRAM *and* every SM's
    /// private L1/MSHRs/egress — has drained.
    fn hierarchy_quiescent(&self, sms: &[Sm]) -> bool {
        self.mem.quiescent() && sms.iter().all(|sm| sm.port().quiescent())
    }

    fn budget_violation(&self) -> Option<Violation> {
        // Cancellation is polled only at interval boundaries (one atomic
        // load every `DEFAULT_INTERRUPT_INTERVAL` cycles), but a stalled or
        // budget-blown run re-checks it before reporting: a job cancelled
        // while wedged must come back as `Cancelled`, never be
        // misattributed to the watchdog that happened to fire first.
        if self.now.is_multiple_of(DEFAULT_INTERRUPT_INTERVAL) {
            if let Some(observed) = self.interrupt_observed() {
                return Some(Violation::Cancelled(observed));
            }
        }
        if self.now > self.cfg.max_cycles {
            return Some(
                self.interrupt_observed()
                    .map_or(Violation::Budget, Violation::Cancelled),
            );
        }
        if self.watchdog > 0 && self.now - self.last_progress >= self.watchdog {
            return Some(
                self.interrupt_observed()
                    .map_or(Violation::Stall, Violation::Cancelled),
            );
        }
        None
    }

    /// Per-stream dispatch frontier, for diagnostics.
    fn stream_frontier(&self) -> Vec<StreamFrontier> {
        self.streams
            .iter()
            .map(|s| StreamFrontier {
                id: s.id,
                finished: s.finished,
                kernel: s.current.as_ref().map(|k| k.info.name.clone()),
                next_cta: s.current.as_ref().map_or(0, |k| k.next_cta),
                grid: s.current.as_ref().map_or(0, |k| k.info.grid),
                outstanding: s.current.as_ref().map_or(0, |k| k.outstanding),
                commands_left: self.commands(s).len() - s.next_cmd,
            })
            .collect()
    }

    /// The full diagnostic snapshot attached to hang-shaped [`SimError`]s:
    /// per-stream frontier plus per-SM scheduling state, built from
    /// architectural state only.
    pub(crate) fn deadlock_report(&self) -> DeadlockReport {
        DeadlockReport {
            cycle: self.now,
            last_progress: self.last_progress,
            streams: self.stream_frontier(),
            sms: self.sms.iter().map(Sm::diagnostics).collect(),
        }
    }

    /// Convert a loop [`Violation`] into a [`SimError`]: snapshot the
    /// diagnostic report, stamp the telemetry timeline, write an emergency
    /// checkpoint when a checkpoint directory is configured (best-effort),
    /// and capture the partial result. `result()` consumes the recorder,
    /// so it runs last.
    fn failure(&mut self, v: Violation) -> SimError {
        // Trace I/O failures are not hang-shaped: the machine state is
        // whatever it was when the read failed, so no diagnostic report or
        // emergency checkpoint (which would need the broken source) is made.
        if let Violation::TraceIo(message) = v {
            return SimError::TraceIo {
                cycle: self.now,
                message,
            };
        }
        let report = self.deadlock_report();
        let label = match &v {
            Violation::Budget => "crisp:budget-exceeded",
            Violation::Stall => "crisp:watchdog",
            Violation::WorkerPanic(_) => "crisp:worker-panic",
            Violation::Cancelled(_) => "crisp:cancelled",
            Violation::TraceIo(_) => unreachable!("handled above"),
        };
        let now = self.now;
        if let Some(rec) = self.recorder.as_mut() {
            for s in &report.streams {
                if !s.finished {
                    rec.marker(s.id.0, label, now);
                }
            }
        }
        let emergency_checkpoint = self.checkpoint_dir.clone().and_then(|dir| {
            let path = dir.join(format!("emergency-{}.ckpt", self.now));
            self.save_checkpoint(&path).ok().map(|()| path)
        });
        let partial = self.result();
        let ctx = Box::new(HangContext {
            cycle: report.cycle,
            last_progress: report.last_progress,
            report,
            partial,
            emergency_checkpoint,
        });
        match v {
            Violation::Budget => SimError::CycleBudgetExceeded {
                max_cycles: self.cfg.max_cycles,
                ctx,
            },
            Violation::Stall => SimError::Deadlock {
                window: self.watchdog,
                ctx,
            },
            Violation::WorkerPanic(message) => SimError::WorkerPanic { message, ctx },
            Violation::Cancelled(generation) => SimError::Cancelled { generation, ctx },
            Violation::TraceIo(_) => unreachable!("handled above"),
        }
    }

    /// Advance exactly one cycle (exposed for incremental drivers).
    ///
    /// # Errors
    ///
    /// [`SimError::TraceIo`] when demand-paging a CTA fails, and
    /// [`SimError::WorkerPanic`] when an SM panics during the cycle.
    pub fn step(&mut self) -> Result<(), SimError> {
        let mut clock = PhaseClock::start(self.host.is_some(), HostPhase::Dispatch);
        let r = self.tick(&mut clock);
        clock.finish(&mut self.host);
        r.map_err(|v| self.failure(v))
    }

    /// One cycle, lapped on `clock`, which is in dispatch on entry and on
    /// return. The SMs are moved out of `self` so the driver helpers can
    /// borrow them alongside the rest of the simulator, and are always put
    /// back, so a failed cycle still leaves every SM for the report.
    fn tick(&mut self, clock: &mut PhaseClock) -> Result<(), Violation> {
        let mut sms = std::mem::take(&mut self.sms);
        let r = self.tick_with(&mut sms, clock);
        self.sms = sms;
        if r.is_ok() {
            self.now += 1;
        }
        r
    }

    fn tick_with(&mut self, sms: &mut [Sm], clock: &mut PhaseClock) -> Result<(), Violation> {
        let now = self.now;
        self.advance_streams(now, sms);
        if let Err(e) = self.issue_ctas(now, sms) {
            return Err(Violation::TraceIo(e.to_string()));
        }
        clock.switch(&mut self.host, HostPhase::Execute);
        // Buffer the outputs that issued something (no other output carries
        // news) and absorb them after the loop in ascending SM id; the
        // buffer is reused so the steady state stays allocation-free. One
        // catch around the whole loop turns an SM panic (a corrupt trace
        // run without pre-flight) into a typed error.
        let mut outs = std::mem::take(&mut self.scratch_outs);
        let (mut ticked, mut slept) = (0, 0);
        let ran = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            for sm in sms.iter_mut().filter(|sm| sm.busy()) {
                if sm.asleep(now) {
                    slept += 1;
                } else {
                    ticked += 1;
                }
                let out = sm.cycle(now);
                if out.issued > 0 {
                    outs.push(out);
                }
            }
        }));
        if let Some(h) = self.host.as_mut() {
            h.add_sm_cycles(ticked, slept);
        }
        clock.switch(&mut self.host, HostPhase::Dispatch);
        if let Err(payload) = ran {
            outs.clear();
            self.scratch_outs = outs;
            return Err(Violation::WorkerPanic(panic_message(payload.as_ref())));
        }
        for out in outs.drain(..) {
            self.absorb_output(now, out);
        }
        self.scratch_outs = outs;
        self.finish_cycle(now, sms, clock);
        Ok(())
    }

    /// Fold one SM's cycle output into global accounting: progress
    /// watchdog, per-stream CTA/kernel completion, the kernel log.
    fn absorb_output(&mut self, now: u64, out: crisp_sm::CycleOutput) {
        if out.issued > 0 {
            self.last_progress = now;
        }
        for commit in out.commits {
            if let Some(rec) = self.recorder.as_mut() {
                rec.cta_committed(commit.seq, now);
            }
            // The CTA retired: drop its instruction slice from the trace
            // source's resident window (other warps of the same CTA on
            // other slots keep their Arc alive until they retire too).
            if let Some(src) = self.source.as_mut() {
                src.release_cta(commit.kernel, commit.cta_index);
            }
            let stats = self.stats.get_mut(&commit.stream).expect("registered");
            stats.ctas += 1;
            let st = self
                .streams
                .iter_mut()
                .find(|s| s.id == commit.stream)
                .expect("stream exists");
            let done = {
                let r = st.current.as_mut().expect("commit for a running kernel");
                r.outstanding -= 1;
                r.outstanding == 0 && r.next_cta >= r.info.grid
            };
            if done {
                let r = st.current.take().expect("running kernel");
                stats.kernels += 1;
                if let Some(rec) = self.recorder.as_mut() {
                    rec.kernel_span(
                        commit.stream.0,
                        &r.info.name,
                        r.start_cycle,
                        now,
                        r.info.grid as u64,
                    );
                }
                self.kernel_log.push(KernelRecord {
                    stream: commit.stream,
                    name: r.info.name.clone(),
                    start_cycle: r.start_cycle,
                    end_cycle: now,
                    ctas: r.info.grid as u64,
                });
            }
        }
    }

    /// Everything after the per-SM compute phase: drain the ports through
    /// the shared memory system and deliver completions (the mem-tick lap,
    /// port drain carved out of it), then tick the slicer and sample
    /// telemetry (the telemetry lap).
    fn finish_cycle(&mut self, now: u64, sms: &mut [Sm], clock: &mut PhaseClock) {
        clock.switch(&mut self.host, HostPhase::MemTick);
        let mut tick_times = self.host.is_some().then(TickTimes::default);
        self.mem
            .tick_into(now, sms, &mut self.scratch_completions, tick_times.as_mut());
        for c in &self.scratch_completions {
            sms[c.token.sm as usize].on_mem_completion(c.token.id);
        }
        if let Some(tt) = tick_times {
            clock.carve(&mut self.host, HostPhase::PortDrain, tt.drain_ns);
        }
        clock.switch(&mut self.host, HostPhase::Telemetry);
        self.slicer_tick(now, sms);
        if self.occupancy_interval > 0 && now.is_multiple_of(self.occupancy_interval) {
            self.sample_occupancy(now, sms);
        }
        if self.composition_interval > 0 && now > 0 && now.is_multiple_of(self.composition_interval)
        {
            self.composition_timeline
                .push((now, self.mem.l2_composition()));
        }
        if self.counter_interval > 0
            && now > 0
            && now.is_multiple_of(self.counter_interval)
            && self
                .recorder
                .as_ref()
                .is_some_and(TraceRecorder::records_counters)
        {
            self.sample_counters(now, sms);
        }
        if self.host.as_ref().is_some_and(|h| h.heartbeat_due(now)) {
            self.record_heartbeat(now, sms);
        }
        clock.switch(&mut self.host, HostPhase::Dispatch);
    }

    /// Record one heartbeat sample: throughput since the previous beat and
    /// the resident trace window. Heartbeats are rare (default every 100k
    /// cycles), so the per-SM sum here is off the steady-state path.
    fn record_heartbeat(&mut self, now: u64, sms: &[Sm]) {
        let instrs = sms
            .iter()
            .flat_map(|sm| self.stats.keys().map(|&id| sm.issued_for(id)))
            .sum();
        let resident = self.source.as_ref().map_or(0, |s| s.stats().resident_bytes);
        let h = self.host.as_mut().expect("caller checked");
        h.heartbeat(now, resident, instrs);
    }

    /// Sample the counter series into the trace: per-stream IPC and DRAM
    /// traffic, plus windowed L1/L2 hit rates. Deltas use `saturating_sub`
    /// because [`CLEAR_STATS_MARKER`] can reset the underlying cumulative
    /// statistics mid-run.
    fn sample_counters(&mut self, now: u64, sms: &[Sm]) {
        let interval = self.counter_interval as f64;
        let mut samples: Vec<(String, f64)> = Vec::new();
        for st in &self.streams {
            let total: u64 = sms.iter().map(|sm| sm.issued_for(st.id)).sum();
            let prev = self.counter_prev_issued.insert(st.id, total).unwrap_or(0);
            samples.push((
                format!("{}/ipc", st.id),
                total.saturating_sub(prev) as f64 / interval,
            ));
            let dram = self.mem.dram_bytes(st.id);
            let prev = self.counter_prev_dram.insert(st.id, dram).unwrap_or(0);
            samples.push((
                format!("{}/dram_bytes", st.id),
                dram.saturating_sub(prev) as f64,
            ));
        }
        let mut l1 = (0u64, 0u64);
        for sm in sms.iter() {
            let t = sm.port().stats().totals();
            l1.0 += t.accesses;
            l1.1 += t.hits;
        }
        let window = (
            l1.0.saturating_sub(self.counter_prev_l1.0),
            l1.1.saturating_sub(self.counter_prev_l1.1),
        );
        self.counter_prev_l1 = l1;
        samples.push((
            "l1/hit_rate".to_string(),
            if window.0 == 0 {
                0.0
            } else {
                window.1 as f64 / window.0 as f64
            },
        ));
        let t = self.mem.l2_stats_total().totals();
        let l2 = (t.accesses, t.hits);
        let window = (
            l2.0.saturating_sub(self.counter_prev_l2.0),
            l2.1.saturating_sub(self.counter_prev_l2.1),
        );
        self.counter_prev_l2 = l2;
        samples.push((
            "l2/hit_rate".to_string(),
            if window.0 == 0 {
                0.0
            } else {
                window.1 as f64 / window.0 as f64
            },
        ));
        let rec = self.recorder.as_mut().expect("caller checked recorder");
        for (name, v) in samples {
            rec.counter(now, name, v);
        }
    }

    /// Pop markers and begin the next kernel of each idle stream.
    fn advance_streams(&mut self, now: u64, sms: &mut [Sm]) {
        for si in 0..self.streams.len() {
            loop {
                if self.streams[si].current.is_some() {
                    break;
                }
                // The stats-clear marker acts as a full barrier: wait for
                // in-flight stores to drain so the cleared counters reflect
                // only post-marker (steady-state) traffic.
                if matches!(self.front(&self.streams[si]),
                    Some(CommandMeta::Marker(l)) if l == CLEAR_STATS_MARKER)
                    && !self.hierarchy_quiescent(&*sms)
                {
                    break;
                }
                // A held marker is a cross-stream barrier: park in front of
                // it (run_to_marker ends once every stream is parked).
                if self.parked(&self.streams[si]) {
                    break;
                }
                let Some(cmd) = self.front(&self.streams[si]).cloned() else {
                    if !self.streams[si].finished && self.streams[si].started {
                        self.streams[si].finished = true;
                        let id = self.streams[si].id;
                        self.stats
                            .get_mut(&id)
                            .expect("stream registered")
                            .finish_cycle = now;
                    }
                    break;
                };
                self.streams[si].next_cmd += 1;
                match cmd {
                    CommandMeta::Marker(label) => {
                        if let Some(rec) = self.recorder.as_mut() {
                            rec.marker(self.streams[si].id.0, &label, now);
                        }
                        if label == CLEAR_STATS_MARKER {
                            self.mem.clear_stats();
                            for sm in sms.iter_mut() {
                                sm.port_mut().clear_stats();
                            }
                        }
                        // Drawcall boundary: dynamic partitions reset here.
                        self.reset_slicer(now, sms);
                    }
                    CommandMeta::Launch { kernel, info } => {
                        let id = self.streams[si].id;
                        if !self.streams[si].started {
                            self.streams[si].started = true;
                            self.stats.get_mut(&id).expect("registered").start_cycle = now;
                        }
                        if self.streams[si].kind == StreamKind::Compute {
                            // Kernel-launch boundary resets the partition too.
                            self.reset_slicer(now, sms);
                        }
                        if info.grid == 0 {
                            // Empty launch completes instantly.
                            self.stats.get_mut(&id).expect("registered").kernels += 1;
                            if let Some(rec) = self.recorder.as_mut() {
                                rec.kernel_span(id.0, &info.name, now, now, 0);
                            }
                            self.kernel_log.push(KernelRecord {
                                stream: id,
                                name: info.name.clone(),
                                start_cycle: now,
                                end_cycle: now,
                                ctas: 0,
                            });
                            continue;
                        }
                        self.streams[si].current = Some(RunningKernel {
                            kernel,
                            info,
                            next_cta: 0,
                            outstanding: 0,
                            start_cycle: now,
                        });
                    }
                }
            }
        }
    }

    fn reset_slicer(&mut self, now: u64, sms: &mut [Sm]) {
        if let Some(sl) = self.slicer.as_mut() {
            sl.on_reset(now);
            let streams = sl.streams();
            for sm in sms.iter_mut() {
                for s in streams {
                    let _ = sm.take_window_issued(s);
                }
            }
        }
    }

    fn quota_for(&self, sm_id: usize, stream: StreamId) -> ResourceQuota {
        if let Some(sl) = &self.slicer {
            // Partitioning against a partner that has retired every command
            // is meaningless — and can starve the survivor forever: the
            // slicer only re-samples at the *partner's* kernel/drawcall
            // boundaries, so an applied ratio too small for the survivor's
            // next CTA would never be revisited. Hand the survivor the
            // whole SM; physical capacity checks still apply in fits().
            let [a, b] = sl.streams();
            let partner = if stream == a {
                Some(b)
            } else if stream == b {
                Some(a)
            } else {
                None
            };
            if let Some(p) = partner {
                let drained = self
                    .streams
                    .iter()
                    .any(|s| s.id == p && s.finished && s.current.is_none());
                if drained {
                    return ResourceQuota::unlimited();
                }
            }
            return sl.quota_for(sm_id, stream, &self.cfg.sm);
        }
        self.spec.static_quota(stream, &self.cfg.sm)
    }

    /// Issue at most one CTA per SM per cycle, honouring the partition.
    /// The CTA's instruction slice is demand-paged through the trace
    /// source here — the first (and only) decode of that CTA's payload.
    fn issue_ctas(&mut self, now: u64, sms: &mut [Sm]) -> io::Result<()> {
        let n_streams = self.streams.len();
        if n_streams == 0 {
            return Ok(());
        }
        // Rotate the stream priority in non-greedy modes so no stream is
        // structurally favoured; greedy always starts from stream 0.
        let greedy = matches!(self.spec.sm, SmPartition::Greedy);
        let start = if greedy {
            0
        } else {
            self.rr_offset % n_streams
        };
        self.rr_offset += 1;
        for sm_id in 0..sms.len() {
            for k in 0..n_streams {
                let si = (start + k) % n_streams;
                let st = &self.streams[si];
                let id = st.id;
                let Some(r) = st.current.as_ref().filter(|r| r.next_cta < r.info.grid) else {
                    continue;
                };
                // Inter-SM partitions restrict which SMs a stream may use.
                if !self.allowed_sms.get(&id).is_none_or(|m| m[sm_id]) {
                    continue;
                }
                let quota = self.quota_for(sm_id, id);
                if !sms[sm_id].fits(id, CtaResources::of_info(&r.info), quota) {
                    continue;
                }
                // Only a launch takes its own handle on the kernel info.
                let (kernel, info, cta_index) = (r.kernel, r.info.clone(), r.next_cta);
                let cta = self
                    .source
                    .as_mut()
                    .expect("a trace source is attached before running")
                    .fetch_cta(kernel, cta_index)?;
                let running = self.streams[si].current.as_mut().expect("pending checked");
                let seq = self.cta_seq;
                let work = CtaWork {
                    stream: id,
                    kernel,
                    info,
                    cta,
                    cta_index,
                    seq,
                };
                self.cta_seq += 1;
                running.next_cta += 1;
                running.outstanding += 1;
                sms[sm_id].launch_cta(work);
                if let Some(rec) = self.recorder.as_mut() {
                    rec.cta_issued(seq, sm_id as u32, id.0, cta_index, now);
                }
                self.last_progress = self.now;
                break; // one CTA per SM per cycle
            }
        }
        Ok(())
    }

    fn slicer_tick(&mut self, now: u64, sms: &mut [Sm]) {
        let Some(sl) = self.slicer.as_mut() else {
            return;
        };
        if !sl.is_sampling() {
            return;
        }
        let n = sms.len();
        let _ = sl.maybe_decide(now, n, |sm, stream| sms[sm].take_window_issued(stream));
    }

    fn sample_occupancy(&mut self, now: u64, sms: &[Sm]) {
        let mut by_stream = BTreeMap::new();
        let mut issued_delta = BTreeMap::new();
        for st in &self.streams {
            let mean: f64 = sms
                .iter()
                .map(|sm| sm.resources().stream_warp_occupancy(st.id))
                .sum::<f64>()
                / sms.len() as f64;
            by_stream.insert(st.id, mean);
            let total: u64 = sms.iter().map(|sm| sm.issued_for(st.id)).sum();
            let prev = self.last_issued_snapshot.insert(st.id, total).unwrap_or(0);
            issued_delta.insert(st.id, total - prev);
        }
        self.occupancy.push(OccupancySample {
            cycle: now,
            by_stream,
        });
        self.ipc_timeline.push((now, issued_delta));
    }

    fn result(&mut self) -> SimResult {
        let export_start = self.host.as_ref().map(|h| {
            set_alloc_phase(HostPhase::Export);
            h.elapsed_ns()
        });
        // Fill instruction counts from the SMs.
        for (id, st) in self.stats.iter_mut() {
            st.instructions = self.sms.iter().map(|sm| sm.issued_for(*id)).sum();
            if st.finish_cycle == 0 && st.start_cycle == 0 && st.instructions == 0 {
                // Stream never ran (empty); leave zeros.
            }
        }
        let per_stream = self
            .stats
            .iter()
            .map(|(&id, &stats)| {
                (
                    id,
                    StreamResult {
                        stats,
                        dram_bytes: self.mem.dram_bytes(id),
                    },
                )
            })
            .collect();
        let per_sm_instructions: Vec<BTreeMap<StreamId, u64>> = self
            .sms
            .iter()
            .map(|sm| {
                self.stats
                    .keys()
                    .map(|&id| (id, sm.issued_for(id)))
                    .filter(|(_, n)| *n > 0)
                    .collect()
            })
            .collect();
        let per_sm_stalls: Vec<StallBreakdown> = self.sms.iter().map(Sm::stalls).collect();
        let tap_allocation = match self.mem.partition() {
            SetPartition::Tap(t) => Some(t.allocation()),
            _ => None,
        };
        let mut l1_stats = MemStats::new();
        for sm in &self.sms {
            l1_stats.merge(sm.port().stats());
        }
        let l2_stats = self.mem.l2_stats_total();
        let kernel_log = std::mem::take(&mut self.kernel_log);
        let metrics = self.build_registry(&per_sm_stalls, &l1_stats, &l2_stats, &kernel_log);
        let timeline = self
            .recorder
            .take()
            .map(|r| r.finish(self.now))
            .unwrap_or_default();
        let total_instrs: u64 = self.stats.values().map(|s| s.instructions).sum();
        let host_profile = self.host.take().map(|mut h| {
            if let Some(t0) = export_start {
                h.span_end(HostPhase::Export, "build result", t0);
            }
            h.finish(self.now, total_instrs, crisp_obs::host::alloc_report())
        });
        SimResult {
            cycles: self.now,
            per_stream,
            l1_stats,
            l2_stats,
            l2_composition: self.mem.l2_composition(),
            l2_composition_timeline: std::mem::take(&mut self.composition_timeline),
            occupancy: std::mem::take(&mut self.occupancy),
            ipc_timeline: std::mem::take(&mut self.ipc_timeline),
            slicer_history: self
                .slicer
                .as_ref()
                .map(|s| s.history().to_vec())
                .unwrap_or_default(),
            tap_allocation,
            kernel_log,
            per_sm_instructions,
            per_sm_stalls,
            metrics,
            timeline,
            trace: self
                .source
                .as_ref()
                .map(TraceSource::stats)
                .unwrap_or_default(),
            host_profile,
        }
    }

    /// Fold the run's final state into the unified metric registry. Keys
    /// and label sets are BTree-ordered, so the snapshot (and everything
    /// exported from it) is deterministic.
    fn build_registry(
        &self,
        per_sm_stalls: &[StallBreakdown],
        l1_stats: &MemStats,
        l2_stats: &MemStats,
        kernel_log: &[KernelRecord],
    ) -> MetricsSnapshot {
        let mut reg = MetricRegistry::new();
        reg.gauge_set("sim/cycles", Labels::new(), self.now as f64);
        for (i, sm) in self.sms.iter().enumerate() {
            let l = Labels::new().with("sm", i);
            let issued: u64 = self.stats.keys().map(|&id| sm.issued_for(id)).sum();
            reg.counter_add("sm/instructions", l.clone(), issued);
            let s = &per_sm_stalls[i];
            reg.counter_add("sm/slots/issued", l.clone(), s.issued);
            reg.counter_add("sm/slots/blocked", l.clone(), s.blocked);
            reg.counter_add("sm/slots/empty", l.clone(), s.empty);
            reg.counter_add("sm/stall/scoreboard", l.clone(), s.scoreboard);
            reg.counter_add("sm/stall/mem_pending", l.clone(), s.mem_pending);
            reg.counter_add("sm/stall/mshr_full", l.clone(), s.mshr_full);
            reg.counter_add("sm/stall/pipe_busy", l.clone(), s.pipe_busy);
            reg.counter_add("sm/stall/barrier", l, s.barrier);
        }
        for (&id, st) in &self.stats {
            let l = Labels::new().with("stream", id.0);
            reg.counter_add("stream/instructions", l.clone(), st.instructions);
            reg.counter_add("stream/ctas", l.clone(), st.ctas);
            reg.counter_add("stream/kernels", l.clone(), st.kernels);
            reg.counter_add("dram/bytes", l, self.mem.dram_bytes(id));
        }
        for (level, stats) in [("l1", l1_stats), ("l2", l2_stats)] {
            for ((stream, class), c) in stats.iter() {
                let l = Labels::new()
                    .with("stream", stream.0)
                    .with("class", format!("{class:?}"));
                reg.counter_add(&format!("{level}/accesses"), l.clone(), c.accesses);
                reg.counter_add(&format!("{level}/hits"), l.clone(), c.hits);
                reg.counter_add(&format!("{level}/misses"), l, c.misses);
            }
        }
        for k in kernel_log {
            let l = Labels::new().with("stream", k.stream.0);
            reg.counter_add("kernel/count", l.clone(), 1);
            reg.observe("kernel/cycles", l, k.elapsed());
        }
        // Residency gauges are opt-in: paging statistics necessarily differ
        // between streaming and materialized inputs, and the default export
        // must stay byte-identical across the two paths.
        if self.residency_telemetry {
            if let Some(src) = &self.source {
                let t = src.stats();
                let l = Labels::new;
                reg.gauge_set("trace/resident_ctas", l(), t.resident_ctas as f64);
                reg.gauge_set("trace/resident_bytes", l(), t.resident_bytes as f64);
                reg.gauge_set("trace/peak_resident_ctas", l(), t.peak_resident_ctas as f64);
                reg.gauge_set(
                    "trace/peak_resident_bytes",
                    l(),
                    t.peak_resident_bytes as f64,
                );
                reg.gauge_set("trace/ctas_decoded", l(), t.ctas_decoded as f64);
                reg.gauge_set("trace/bytes_decoded", l(), t.bytes_decoded as f64);
            }
        }
        reg.snapshot()
    }

    /// Current simulation cycle.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Functionally drain every stream's commands up to (and including) the
    /// first marker named `label`, warming the L1/L2/DRAM state with each
    /// skipped kernel's memory footprint but charging **zero cycles** — the
    /// fast-forward half of ROI sampling. Detailed simulation then starts at
    /// the region of interest with realistic cache contents.
    ///
    /// All memory-hierarchy statistics are cleared afterwards, so the
    /// detailed region's numbers cover only its own traffic. Returns the
    /// number of commands skipped. Streams without the marker are left
    /// untouched (their work runs in detail).
    ///
    /// # Errors
    ///
    /// Propagates trace-source I/O errors from paging the skipped kernels'
    /// CTAs through for warming.
    ///
    /// # Panics
    ///
    /// Panics if called after detailed simulation has started.
    pub fn fast_forward_to_marker(&mut self, label: &str) -> io::Result<u64> {
        assert!(
            self.now == 0 && !self.sms.iter().any(Sm::busy),
            "fast_forward_to_marker must run before detailed simulation"
        );
        let mut skipped = 0u64;
        for si in 0..self.streams.len() {
            let st = &self.streams[si];
            let has_marker = self.commands(st)[st.next_cmd..]
                .iter()
                .any(|c| matches!(c, CommandMeta::Marker(l) if l == label));
            if !has_marker {
                continue;
            }
            let id = self.streams[si].id;
            while let Some(cmd) = self.front(&self.streams[si]).cloned() {
                self.streams[si].next_cmd += 1;
                skipped += 1;
                match cmd {
                    CommandMeta::Marker(l) => {
                        if l == label {
                            break;
                        }
                    }
                    CommandMeta::Launch { kernel, info } => self.warm_kernel(id, kernel, &info)?,
                }
            }
        }
        // Warming must not pollute the ROI's statistics.
        self.mem.clear_stats();
        for sm in &mut self.sms {
            sm.port_mut().clear_stats();
        }
        Ok(skipped)
    }

    /// Replay one kernel's memory footprint through the hierarchy without
    /// timing: every global-memory sector visits the L1 of the SM the CTA
    /// would run on, and L1 misses/writes touch the shared L2/DRAM model.
    /// CTAs are paged in one at a time and released immediately, so
    /// fast-forwarding over a long prefix stays within the one-CTA window.
    fn warm_kernel(
        &mut self,
        stream: StreamId,
        kernel: KernelId,
        info: &KernelInfo,
    ) -> io::Result<()> {
        let all: Vec<usize> = (0..self.sms.len()).collect();
        let allowed: Vec<usize> = match self.allowed_sms.get(&stream) {
            Some(mask) => {
                let v: Vec<usize> = mask
                    .iter()
                    .enumerate()
                    .filter(|(_, &a)| a)
                    .map(|(i, _)| i)
                    .collect();
                if v.is_empty() {
                    all
                } else {
                    v
                }
            }
            None => all,
        };
        let mut chunks = Vec::new();
        for cta_index in 0..info.grid {
            let cta = self
                .source
                .as_mut()
                .expect("a trace source is attached before fast-forwarding")
                .fetch_cta(kernel, cta_index)?;
            let sm = allowed[cta_index % allowed.len()];
            let token = ReqToken {
                sm: sm as u16,
                id: 0,
            };
            for w in &cta.warps {
                for instr in w.iter() {
                    let Some(mem) = &instr.mem else { continue };
                    if mem.space == Space::Shared {
                        continue;
                    }
                    let is_load = instr.op.is_load();
                    mem.distinct_chunks_into(SECTOR_BYTES, &mut chunks);
                    for &chunk in &chunks {
                        let addr = chunk * SECTOR_BYTES;
                        let req = if is_load {
                            MemReq::read(addr, stream, mem.class, token)
                        } else {
                            MemReq::write(addr, stream, mem.class, token)
                        };
                        if self.sms[sm].port_mut().warm(&req) {
                            self.mem.warm(&req);
                        }
                    }
                }
            }
            drop(cta);
            self.source
                .as_mut()
                .expect("checked above")
                .release_cta(kernel, cta_index);
        }
        Ok(())
    }

    /// Write a checkpoint of the full architectural state to `path`
    /// (parent directories are created as needed).
    ///
    /// # Errors
    ///
    /// Propagates filesystem and serialization errors.
    pub(crate) fn save_checkpoint(&mut self, path: impl AsRef<Path>) -> io::Result<()> {
        let path = path.as_ref();
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let file = std::fs::File::create(path)?;
        let mut sink = std::io::BufWriter::new(file);
        self.write_checkpoint(&mut sink)?;
        use std::io::Write as _;
        sink.flush()
    }

    /// Serialize the full architectural state — streams, SMs, memory
    /// hierarchy, statistics, telemetry — into `sink` in the versioned
    /// `CKPT` format. [`GpuSim::read_checkpoint`] restores a simulator that
    /// continues **bit-identically**.
    ///
    /// Instruction payloads are *not* serialized: the checkpoint records
    /// the trace source's provenance (its path, or — for in-memory sources
    /// — the raw CRSP container) plus `(kernel id, cta index)` cursors for
    /// every resident warp; restore re-opens the source and demand-pages
    /// the resident window back in. Needs `&mut self` because an in-memory
    /// source re-serializes its container through its own reader.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the sink.
    pub fn write_checkpoint<W: io::Write>(&mut self, sink: W) -> io::Result<()> {
        let mut w = Writer::new(sink);
        w.header()?;
        w.put(&self.cfg)?;
        w.put(&RETIRED_THREADS)?;
        w.put(&self.spec)?;
        w.put(&RETIRED_THREADS)?;
        w.put(&self.residency_telemetry)?;

        // Trace-source provenance: enough to re-open the same container at
        // restore. Path-backed sources store the path; everything else
        // embeds the container bytes for a self-contained checkpoint.
        // Snapshot the paging statistics FIRST: re-encoding the container
        // pages every CTA through the source, and that bookkeeping must not
        // leak into the saved counters (or into this sim, which may keep
        // running after a periodic checkpoint).
        let tstats = self
            .source
            .as_ref()
            .map(TraceSource::stats)
            .unwrap_or_default();
        match self.source.as_mut() {
            None => w.put(&0u8)?,
            Some(src) => {
                if let Some(p) = src.path() {
                    w.put(&1u8)?;
                    w.put(&p.to_string_lossy().into_owned())?;
                } else {
                    w.put(&2u8)?;
                    let bytes = src.container_bytes()?;
                    w.bytes(&bytes)?;
                    src.set_stats(tstats);
                }
            }
        }
        // Paging statistics travel with the checkpoint so a resumed run's
        // cumulative counters continue bit-identically.
        w.put(&tstats)?;

        w.put(&(self.now, self.cta_seq, self.last_progress, self.rr_offset))?;
        w.put(&(
            self.occupancy_interval,
            self.composition_interval,
            self.counter_interval,
        ))?;

        // Streams are saved as cursors into the source's directory — not
        // the command lists themselves, which restore rebuilds from the
        // re-opened source.
        w.seq(&self.streams, |w, st| {
            w.put(&(st.id, st.kind, st.next_cmd))?;
            w.option(st.current.as_ref(), |w, k| {
                w.put(&(k.kernel, k.next_cta, k.outstanding, k.start_cycle))
            })?;
            w.put(&(st.started, st.finished))
        })?;

        w.put(&self.stats)?;
        w.put(&self.occupancy)?;
        w.put(&self.ipc_timeline)?;
        w.put(&self.last_issued_snapshot)?;
        w.put(&self.composition_timeline)?;
        w.put(&self.counter_prev_issued)?;
        w.put(&self.counter_prev_dram)?;
        w.put(&(self.counter_prev_l1, self.counter_prev_l2))?;
        w.put(&self.allowed_sms)?;
        w.put(&self.kernel_log)?;
        w.put(&self.slicer)?;
        w.put(&self.recorder)?;

        for sm in &self.sms {
            sm.save(&mut w)?;
        }
        self.mem.save(&mut w)
    }

    /// Restore a simulator from a checkpoint written by
    /// [`GpuSim::write_checkpoint`].
    ///
    /// A restored trace source is validated like a built one: the same
    /// pre-flight lint (over every kernel the run can still execute) and
    /// placement checks the builder runs, so a checkpoint that loads also
    /// runs without panicking. Defects that can only stall the run
    /// ([`TraceErrorKind::only_stalls`]) are left to the watchdog, since a
    /// build without pre-flight may checkpoint them.
    ///
    /// [`TraceErrorKind::only_stalls`]: crisp_trace::TraceErrorKind::only_stalls
    ///
    /// # Errors
    ///
    /// Returns `InvalidData` on any malformed, truncated, or corrupt input;
    /// never panics.
    pub fn read_checkpoint<R: io::Read>(src: R) -> io::Result<GpuSim> {
        let mut r = Reader::new(src);
        r.header()?;
        let cfg: GpuConfig = r.get()?;
        let threads: usize = r.get()?;
        if threads == 0 || threads > 4096 {
            return Err(bad(format!("implausible thread count {threads}")));
        }
        let spec = r.get()?;
        let _threads: usize = r.get()?;
        let residency_telemetry = r.get()?;

        // Re-open the trace source from its provenance. Embedded container
        // bytes become an in-memory *streaming* source, so a resumed run
        // keeps the same bounded resident window.
        let mut source = match r.get::<u8>()? {
            0 => None,
            1 => Some(TraceInput::from(PathBuf::from(r.get::<String>()?)).open()?),
            2 => Some(TraceInput::reader(std::io::Cursor::new(r.bytes(1 << 32)?)).open()?),
            t => return Err(bad(format!("unknown trace-provenance tag {t}"))),
        };
        let saved_tstats: TraceStats = r.get()?;

        let (now, cta_seq, last_progress, rr_offset): (u64, _, u64, _) = r.get()?;
        if last_progress > now {
            return Err(bad("last forward progress lies after the checkpoint cycle"));
        }
        let (occupancy_interval, composition_interval, counter_interval) = r.get()?;

        let streams = r.seq(|r| {
            let (id, kind, next_cmd): (StreamId, StreamKind, usize) = r.get()?;
            // Commands come from the re-opened source's directory, not the
            // checkpoint; the cursor is validated against it.
            let src = source
                .as_ref()
                .ok_or_else(|| bad("checkpoint has streams but no trace source"))?;
            let dir = src
                .streams()
                .iter()
                .position(|m| m.id == id)
                .ok_or_else(|| bad(format!("checkpoint stream {id} missing from trace source")))?;
            let meta = &src.streams()[dir];
            if meta.kind != kind {
                return Err(bad(format!("stream {id} kind mismatch with trace source")));
            }
            if next_cmd > meta.commands.len() {
                return Err(bad(format!(
                    "stream {id} cursor {next_cmd} past its {} commands",
                    meta.commands.len()
                )));
            }
            let current = r.option(|r| {
                let (kernel, next_cta, outstanding, start_cycle) = r.get()?;
                let info = src
                    .kernel_info(kernel)
                    .ok_or_else(|| bad(format!("running {kernel} missing from trace source")))?
                    .clone();
                if src.kernel_stream(kernel) != Some(id) {
                    return Err(bad(format!("running {kernel} belongs to another stream")));
                }
                if next_cta > info.grid || outstanding > info.grid || start_cycle > now {
                    return Err(bad("running-kernel cursor out of range"));
                }
                Ok(RunningKernel {
                    kernel,
                    info,
                    next_cta,
                    outstanding,
                    start_cycle,
                })
            })?;
            let (started, finished) = r.get()?;
            Ok(StreamState {
                id,
                kind,
                dir,
                next_cmd,
                current,
                started,
                finished,
            })
        })?;

        if let Some(src) = source.as_mut() {
            // Everything the run can still execute: each stream from its
            // running kernel on (SM restore rejects warps of any other).
            let first = |id| {
                streams
                    .iter()
                    .find(|s: &&StreamState| s.id == id)
                    .map_or(0, |s| {
                        s.next_cmd.saturating_sub(usize::from(s.current.is_some()))
                    })
            };
            let errors = crisp_trace::validate_source_from(src, first)
                .err()
                .unwrap_or_default();
            if let Some(e) = errors.iter().find(|e| !e.kind.only_stalls()) {
                return Err(bad(format!("checkpoint trace source is invalid: {e}")));
            }
            if let Some(msg) = unplaceable_kernel(src, &cfg) {
                return Err(bad(msg));
            }
        }

        let stats: BTreeMap<StreamId, PerStreamStats> = r.get()?;
        if let Some(st) = streams.iter().find(|st| !stats.contains_key(&st.id)) {
            return Err(bad(format!("stream {} has no statistics", st.id)));
        }
        let occupancy = r.get()?;
        let ipc_timeline = r.get()?;
        let last_issued_snapshot: BTreeMap<StreamId, u64> = r.get()?;
        let composition_timeline = r.get()?;
        let counter_prev_issued = r.get()?;
        let counter_prev_dram = r.get()?;
        let (counter_prev_l1, counter_prev_l2) = r.get()?;
        let allowed_sms: BTreeMap<StreamId, Vec<bool>> = r.get()?;
        if let Some((id, mask)) = allowed_sms.iter().find(|(_, m)| m.len() != cfg.n_sms) {
            return Err(bad(format!(
                "SM allowlist for {id} has {} entries, config has {} SMs",
                mask.len(),
                cfg.n_sms
            )));
        }
        let kernel_log = r.get()?;
        let slicer = r.get()?;
        let recorder: Option<TraceRecorder> = r.get()?;
        if let Some(rec) = &recorder {
            let buffers = rec.log().sm_span_buffers().len();
            if buffers != cfg.n_sms {
                return Err(bad(format!(
                    "trace log has {buffers} SM buffers, config has {} SMs",
                    cfg.n_sms
                )));
            }
            if rec
                .open_cta_entries()
                .iter()
                .any(|&(_, sm, _, _, start)| sm as usize >= cfg.n_sms || start > now)
            {
                return Err(bad("open CTA span on a nonexistent SM or in the future"));
            }
        }

        let mem_cfg = cfg.mem_config();
        let mut sms = Vec::with_capacity(cfg.n_sms);
        {
            // SM restore pages every resident warp's CTA back in through
            // the source, re-establishing the Arc sharing of the resident
            // window. A checkpoint without a source can only hold empty
            // SMs; the empty fallback makes any warp reference an error.
            let mut fallback = None;
            let src: &mut TraceSource = match source.as_mut() {
                Some(s) => s,
                None => {
                    fallback.insert(TraceSource::from_bundle(TraceBundle::from_streams(vec![])))
                }
            };
            for i in 0..cfg.n_sms {
                sms.push(Sm::restore(&mut r, (i, cfg.sm, &mem_cfg, &mut *src))?);
            }
        }
        let mem = MemSystem::restore(&mut r, &mem_cfg)?;

        // Every resident CTA belongs to its stream's running kernel, whose
        // outstanding count is exactly those CTAs; issue totals never run
        // behind the last occupancy sample.
        let mut out: BTreeMap<StreamId, usize> = BTreeMap::new();
        for (stream, kernel) in sms.iter().flat_map(Sm::resident_kernels) {
            let running = streams
                .iter()
                .find(|s| s.id == stream)
                .and_then(|s| s.current.as_ref());
            if running.is_none_or(|k| k.kernel != kernel) {
                return Err(bad(format!(
                    "resident CTA of {kernel} is not running on {stream}"
                )));
            }
            *out.entry(stream).or_default() += 1;
        }
        for st in &streams {
            let resident = out.get(&st.id).copied().unwrap_or(0);
            if st.current.as_ref().map_or(0, |k| k.outstanding) != resident {
                return Err(bad(format!(
                    "stream {} outstanding CTAs disagree with the SMs",
                    st.id
                )));
            }
        }
        for (&id, &prev) in &last_issued_snapshot {
            if sms.iter().map(|sm| sm.issued_for(id)).sum::<u64>() < prev {
                return Err(bad(format!("issue snapshot of {id} exceeds its SM totals")));
            }
        }
        // The resident window was just paged back in; the saved counters
        // must describe that same window, or a later release underflows.
        if let Some(s) = source.as_ref() {
            let paged = s.stats();
            if (paged.resident_ctas, paged.resident_bytes)
                != (saved_tstats.resident_ctas, saved_tstats.resident_bytes)
            {
                return Err(bad(
                    "saved paging statistics disagree with the resident window",
                ));
            }
        }

        // Restore the paging counters last: validating the source and
        // paging the resident window back in must not perturb the
        // checkpointed cumulative statistics, or a resumed run's exports
        // would diverge.
        if let Some(s) = source.as_mut() {
            s.set_stats(saved_tstats);
        }

        Ok(GpuSim {
            cfg,
            spec,
            sms,
            mem,
            streams,
            source,
            residency_telemetry,
            slicer,
            now,
            stats,
            occupancy,
            ipc_timeline,
            last_issued_snapshot,
            occupancy_interval,
            composition_interval,
            counter_interval,
            composition_timeline,
            recorder,
            counter_prev_issued,
            counter_prev_dram,
            counter_prev_l1,
            counter_prev_l2,
            cta_seq,
            last_progress,
            rr_offset,
            allowed_sms,
            kernel_log,
            checkpoint_every: 0,
            checkpoint_dir: None,
            watchdog: DEFAULT_WATCHDOG,
            hold_at_marker: None,
            interrupt: None,
            host: None,
            scratch_completions: Vec::new(),
            scratch_outs: Vec::new(),
        })
    }
}

/// The first kernel in `src` whose CTAs can never be placed on one of
/// `gpu`'s SMs, as an error message naming it. The builder (its
/// [`check`](crate::SimulationBuilder::check), or on its own without
/// pre-flight) and checkpoint restore both reject such a source up front,
/// so the dispatcher never meets one. It reads only the source's directory
/// metadata.
pub(crate) fn unplaceable_kernel(src: &TraceSource, gpu: &GpuConfig) -> Option<String> {
    let sm = &gpu.sm;
    src.streams().iter().find_map(|s| {
        s.commands.iter().find_map(|cmd| {
            let CommandMeta::Launch { info, .. } = cmd else {
                return None;
            };
            let res = CtaResources::of_info(info);
            let fits = res.threads <= sm.max_threads
                && res.warps <= sm.max_warps
                && res.regs <= sm.max_regs
                && res.smem <= sm.max_smem;
            (info.grid > 0 && !fits).then(|| {
                format!(
                    "kernel '{}' on {} needs {res:?} per CTA, which exceeds the SM's \
                     physical resources",
                    info.name, s.id
                )
            })
        })
    })
}

crisp_ckpt::wire_struct!(KernelRecord {
    stream,
    name,
    start_cycle,
    end_cycle,
    ctas
} check = KernelRecord::check_restored);

impl KernelRecord {
    fn check_restored(&self) -> io::Result<()> {
        if self.start_cycle > self.end_cycle {
            return Err(bad(format!("kernel '{}' ends before it starts", self.name)));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::slicer::SlicerConfig;
    use crate::{Simulation, SimulationBuilder, Telemetry};
    use crisp_trace::{
        CtaTrace, DataClass, Instr, KernelTrace, MemAccess, Op, Reg, Space, Stream, WarpTrace,
    };

    const G: StreamId = StreamId(0);
    const C: StreamId = StreamId(1);

    fn alu_kernel(name: &str, n_instr: usize, warps: usize, ctas: usize, regs: u32) -> KernelTrace {
        let mut w = WarpTrace::new();
        for i in 0..n_instr {
            w.push(Instr::alu(Op::FpFma, Reg((i % 8) as u16 + 1), &[]));
        }
        w.seal();
        let cta = CtaTrace::new(vec![w; warps]);
        KernelTrace::new(name, 32 * warps as u32, regs, 0, vec![cta; ctas])
    }

    fn mem_kernel(name: &str, ctas: usize, lines_apart: u64) -> KernelTrace {
        let mut ctav = Vec::new();
        for c in 0..ctas {
            let mut w = WarpTrace::new();
            for i in 0..8u64 {
                w.push(Instr::load(
                    Reg(1),
                    MemAccess::coalesced(
                        Space::Global,
                        DataClass::Compute,
                        4,
                        (c as u64 * 64 + i) * lines_apart * 128,
                        32,
                    ),
                ));
            }
            w.seal();
            ctav.push(CtaTrace::new(vec![w]));
        }
        KernelTrace::new(name, 32, 16, 0, ctav)
    }

    fn builder(cfg: GpuConfig, spec: PartitionSpec) -> SimulationBuilder {
        Simulation::builder().gpu(cfg).partition(spec)
    }

    /// A pre-flight-checked simulator of `bundle`.
    fn sim(cfg: GpuConfig, spec: PartitionSpec, bundle: TraceBundle) -> GpuSim {
        builder(cfg, spec).trace(bundle).try_build().unwrap()
    }

    fn bundle_two(g_kernel: KernelTrace, c_kernel: KernelTrace) -> TraceBundle {
        let mut gs = Stream::new(G, StreamKind::Graphics);
        gs.marker("draw0");
        gs.launch(g_kernel);
        let mut cs = Stream::new(C, StreamKind::Compute);
        cs.launch(c_kernel);
        TraceBundle::from_streams(vec![gs, cs])
    }

    #[test]
    fn single_stream_completes_and_reports() {
        let mut s = Stream::new(C, StreamKind::Compute);
        s.launch(alu_kernel("a", 20, 2, 4, 16));
        s.launch(alu_kernel("b", 20, 2, 4, 16));
        let mut gpu = sim(
            GpuConfig::test_tiny(),
            PartitionSpec::greedy(),
            TraceBundle::from_streams(vec![s]),
        );
        let r = gpu.run_or_panic();
        let st = &r.per_stream[&C].stats;
        assert_eq!(st.kernels, 2);
        assert_eq!(st.ctas, 8);
        assert!(st.instructions >= 8 * 2 * 21);
        assert!(st.finish_cycle > 0);
        assert!(st.ipc() > 0.0);
    }

    #[test]
    fn kernels_in_a_stream_are_serialised() {
        // Kernel b must not start before kernel a fully commits: with one
        // large kernel a and tiny b, total cycles >= a's cycles + b's.
        let mut s = Stream::new(C, StreamKind::Compute);
        s.launch(alu_kernel("a", 200, 4, 2, 16));
        let mut gpu = sim(
            GpuConfig::test_tiny(),
            PartitionSpec::greedy(),
            TraceBundle::from_streams(vec![s]),
        );
        let solo_a = gpu.run_or_panic().cycles;

        let mut s = Stream::new(C, StreamKind::Compute);
        s.launch(alu_kernel("a", 200, 4, 2, 16));
        s.launch(alu_kernel("b", 200, 4, 2, 16));
        let mut gpu = sim(
            GpuConfig::test_tiny(),
            PartitionSpec::greedy(),
            TraceBundle::from_streams(vec![s]),
        );
        let both = gpu.run_or_panic().cycles;
        assert!(
            both as f64 > solo_a as f64 * 1.5,
            "second kernel must serialise: solo {solo_a}, both {both}"
        );
    }

    #[test]
    fn two_streams_run_concurrently_under_fg() {
        let cfg = GpuConfig::test_tiny();
        let a = alu_kernel("g", 300, 2, 6, 16);
        let b = alu_kernel("c", 300, 2, 6, 16);

        // Serial baseline: one stream after the other (same stream).
        let mut s = Stream::new(C, StreamKind::Compute);
        s.launch(a.clone());
        s.launch(b.clone());
        let mut gpu = sim(
            cfg.clone(),
            PartitionSpec::greedy(),
            TraceBundle::from_streams(vec![s]),
        );
        let serial = gpu.run_or_panic().cycles;

        // Concurrent under even intra-SM partition.
        let mut gpu = sim(
            cfg.clone(),
            PartitionSpec::fg_even(&cfg, G, C),
            bundle_two(a, b),
        );
        let conc = gpu.run_or_panic().cycles;
        assert!(
            (conc as f64) < serial as f64 * 0.95,
            "concurrency must beat serial: serial {serial}, concurrent {conc}"
        );
    }

    #[test]
    fn mps_partitions_sms() {
        let cfg = GpuConfig::test_tiny(); // 2 SMs → 1 each
        let mut gpu = sim(
            cfg.clone(),
            PartitionSpec::mps_even(&cfg, G, C),
            bundle_two(alu_kernel("g", 50, 2, 4, 16), alu_kernel("c", 50, 2, 4, 16)),
        );
        let r = gpu.run_or_panic();
        assert_eq!(r.per_stream[&G].stats.ctas, 4);
        assert_eq!(r.per_stream[&C].stats.ctas, 4);
    }

    #[test]
    fn stalls_aggregate_over_sms() {
        let mut s = Stream::new(C, StreamKind::Compute);
        s.launch(alu_kernel("a", 50, 2, 4, 16));
        let mut gpu = sim(
            GpuConfig::test_tiny(),
            PartitionSpec::greedy(),
            TraceBundle::from_streams(vec![s]),
        );
        let r = gpu.run_or_panic();
        let stalls = r.stalls();
        assert_eq!(stalls.issued, r.per_stream[&C].stats.instructions);
        assert!(stalls.issue_efficiency() > 0.0);
    }

    #[test]
    fn per_sm_instructions_respect_inter_sm_partitions() {
        let cfg = GpuConfig::test_tiny(); // 2 SMs
        let mut gpu = sim(
            cfg.clone(),
            PartitionSpec::mps_even(&cfg, G, C),
            bundle_two(alu_kernel("g", 50, 2, 4, 16), alu_kernel("c", 50, 2, 4, 16)),
        );
        let r = gpu.run_or_panic();
        assert_eq!(r.per_sm_instructions.len(), 2);
        // SM 0 belongs to the graphics stream, SM 1 to compute: no leakage.
        assert!(!r.per_sm_instructions[0].contains_key(&C));
        assert!(!r.per_sm_instructions[1].contains_key(&G));
        // Per-SM counts sum to the per-stream totals.
        let g_sum: u64 = r.per_sm_instructions.iter().filter_map(|m| m.get(&G)).sum();
        assert_eq!(g_sum, r.per_stream[&G].stats.instructions);
    }

    #[test]
    fn mig_isolates_dram_partitions() {
        let cfg = GpuConfig::test_tiny();
        let mut gs = Stream::new(G, StreamKind::Graphics);
        gs.launch(mem_kernel("gmem", 4, 3));
        let mut cs = Stream::new(C, StreamKind::Compute);
        cs.launch(mem_kernel("cmem", 4, 5));
        let mut gpu = sim(
            cfg.clone(),
            PartitionSpec::mig_even(&cfg, G, C),
            TraceBundle::from_streams(vec![gs, cs]),
        );
        let r = gpu.run_or_panic();
        assert!(r.per_stream[&G].dram_bytes > 0);
        assert!(r.per_stream[&C].dram_bytes > 0);
    }

    #[test]
    fn warped_slicer_makes_decisions() {
        let cfg = GpuConfig::test_tiny();
        let slicer = SlicerConfig {
            sample_cycles: 200,
            ratios: vec![(2, 8), (4, 8), (6, 8)],
        };
        let mut gpu = sim(
            cfg,
            PartitionSpec::fg_dynamic(slicer),
            bundle_two(
                alu_kernel("g", 2000, 2, 12, 16),
                alu_kernel("c", 2000, 2, 12, 16),
            ),
        );
        let r = gpu.run_or_panic();
        assert!(
            !r.slicer_history.is_empty(),
            "slicer must have decided at least once"
        );
        for (_, f) in &r.slicer_history {
            assert!((0.0..=1.0).contains(f));
        }
    }

    #[test]
    fn slicer_releases_quota_when_partner_stream_drains() {
        // Regression: once the partner stream retired every command, an
        // applied ratio too small for the survivor's next CTA used to
        // starve it forever — the slicer only re-samples at the *partner's*
        // kernel/drawcall boundaries, so the decision was never revisited
        // and the run hit the forward-progress watchdog.
        let cfg = GpuConfig::test_tiny();
        let slicer = SlicerConfig {
            sample_cycles: 100,
            // The only candidate gives graphics 2 of 16 warps — too small
            // for its 4-warp CTA, on every SM, in every state.
            ratios: vec![(1, 8)],
        };
        let mut gpu = sim(
            cfg,
            PartitionSpec::fg_dynamic(slicer),
            bundle_two(alu_kernel("g", 50, 4, 1, 16), alu_kernel("c", 50, 1, 1, 16)),
        );
        let r = gpu.run_or_panic();
        assert_eq!(r.kernel_log.len(), 2, "both kernels must complete");
    }

    #[test]
    fn tap_reports_allocation() {
        let cfg = GpuConfig::test_tiny();
        let tap = crisp_mem::TapConfig {
            epoch_accesses: 200,
            sample_every: 1,
            min_sets: 1,
        };
        let mut gs = Stream::new(G, StreamKind::Graphics);
        gs.launch(mem_kernel("gmem", 6, 1));
        let mut cs = Stream::new(C, StreamKind::Compute);
        cs.launch(alu_kernel("calu", 100, 2, 6, 16));
        let mut gpu = sim(
            cfg.clone(),
            PartitionSpec::tap_even(&cfg, G, C, tap),
            TraceBundle::from_streams(vec![gs, cs]),
        );
        let r = gpu.run_or_panic();
        let alloc = r.tap_allocation.expect("TAP ran");
        let total: u64 = alloc.iter().map(|(_, n)| n).sum();
        let sets_per_bank = (128 << 10) / 2 / 128 / 8;
        assert_eq!(total, sets_per_bank);
    }

    #[test]
    fn occupancy_timeline_is_sampled() {
        let cfg = GpuConfig::test_tiny();
        let mut gpu = builder(cfg.clone(), PartitionSpec::fg_even(&cfg, G, C))
            .occupancy_interval(50)
            .trace(bundle_two(
                alu_kernel("g", 500, 2, 8, 16),
                alu_kernel("c", 500, 2, 8, 16),
            ))
            .try_build()
            .unwrap();
        let r = gpu.run_or_panic();
        assert!(r.occupancy.len() >= 2);
        let mid = &r.occupancy[r.occupancy.len() / 2];
        assert!(mid.total() > 0.0, "occupancy must be visible mid-run");
    }

    #[test]
    fn unplaceable_kernel_fails_fast() {
        let mut s = Stream::new(C, StreamKind::Compute);
        // 512 regs/thread × 256 threads = 131072 regs > 65536. The build
        // rejects it even with pre-flight off; no cycle ever runs.
        s.launch(alu_kernel("hog", 4, 8, 1, 512));
        let err = builder(GpuConfig::test_tiny(), PartitionSpec::greedy())
            .preflight(false)
            .trace(TraceBundle::from_streams(vec![s]))
            .try_build()
            .expect_err("an unplaceable kernel must not build");
        assert!(
            matches!(&err, SimError::InvalidConfig { message }
                if message.contains("'hog'") && message.contains("exceeds the SM")),
            "{err}"
        );
    }

    #[test]
    fn max_cycles_budget_is_enforced() {
        let mut cfg = GpuConfig::test_tiny();
        cfg.max_cycles = 10;
        let mut s = Stream::new(C, StreamKind::Compute);
        s.launch(alu_kernel("long", 1000, 2, 4, 16));
        let mut gpu = sim(
            cfg,
            PartitionSpec::greedy(),
            TraceBundle::from_streams(vec![s]),
        );
        let err = gpu.run().expect_err("budget of 10 cycles must trip");
        match &err {
            SimError::CycleBudgetExceeded { max_cycles, ctx } => {
                assert_eq!(*max_cycles, 10);
                assert_eq!(ctx.cycle, 11, "stops on the first cycle past the budget");
                assert!(
                    ctx.partial.per_stream[&C].stats.instructions > 0,
                    "partial stats carry the work done before the trip"
                );
                assert!(ctx.emergency_checkpoint.is_none(), "no checkpoint dir set");
            }
            other => panic!("expected CycleBudgetExceeded, got {other}"),
        }
        assert!(err.to_string().contains("max_cycles=10"), "{err}");
        assert_eq!(err.cycle(), Some(11));
    }

    #[test]
    fn summary_mentions_every_stream() {
        let mut s = Stream::new(C, StreamKind::Compute);
        s.launch(alu_kernel("a", 10, 1, 1, 16));
        let mut gpu = sim(
            GpuConfig::test_tiny(),
            PartitionSpec::greedy(),
            TraceBundle::from_streams(vec![s]),
        );
        let r = gpu.run_or_panic();
        let text = r.summary();
        assert!(text.contains("stream1"));
        assert!(text.contains("L2"));
        assert_eq!(r.makespan(), r.per_stream[&C].stats.finish_cycle);
    }

    #[test]
    fn kernel_log_records_the_timeline() {
        let mut s = Stream::new(C, StreamKind::Compute);
        s.launch(alu_kernel("first", 20, 2, 2, 16));
        s.launch(alu_kernel("second", 20, 2, 2, 16));
        let mut gpu = sim(
            GpuConfig::test_tiny(),
            PartitionSpec::greedy(),
            TraceBundle::from_streams(vec![s]),
        );
        let r = gpu.run_or_panic();
        assert_eq!(r.kernel_log.len(), 2);
        assert_eq!(r.kernel_log[0].name, "first");
        assert_eq!(r.kernel_log[1].name, "second");
        assert!(
            r.kernel_log[0].end_cycle <= r.kernel_log[1].start_cycle + 1,
            "stream kernels serialise"
        );
        assert!(r.kernel_log[0].elapsed() > 0);
        assert_eq!(r.kernel_log[0].ctas, 2);
    }

    #[test]
    fn ipc_timeline_sums_to_total_instructions() {
        let cfg = GpuConfig::test_tiny();
        let mut gpu = builder(cfg.clone(), PartitionSpec::fg_even(&cfg, G, C))
            .occupancy_interval(50)
            .trace(bundle_two(
                alu_kernel("g", 500, 2, 8, 16),
                alu_kernel("c", 500, 2, 8, 16),
            ))
            .try_build()
            .unwrap();
        let r = gpu.run_or_panic();
        assert!(!r.ipc_timeline.is_empty());
        let g_sum: u64 = r.ipc_timeline.iter().filter_map(|(_, m)| m.get(&G)).sum();
        // The final partial window after the last sample is not captured,
        // so the timeline sums to at most the total.
        assert!(g_sum <= r.per_stream[&G].stats.instructions);
        assert!(g_sum > 0);
    }

    #[test]
    fn empty_kernel_completes_instantly() {
        let mut s = Stream::new(C, StreamKind::Compute);
        s.launch(KernelTrace::new("empty", 32, 8, 0, vec![]));
        let mut gpu = sim(
            GpuConfig::test_tiny(),
            PartitionSpec::greedy(),
            TraceBundle::from_streams(vec![s]),
        );
        let r = gpu.run_or_panic();
        assert_eq!(r.per_stream[&C].stats.kernels, 1);
    }

    /// A telemetry-heavy two-stream workload for checkpoint tests.
    fn ckpt_sim() -> GpuSim {
        ckpt_builder().try_build().unwrap()
    }

    fn ckpt_builder() -> SimulationBuilder {
        let cfg = GpuConfig::test_tiny();
        builder(cfg.clone(), PartitionSpec::fg_even(&cfg, G, C))
            .telemetry(Telemetry::TIMELINE)
            .occupancy_interval(50)
            .composition_interval(60)
            .counter_interval(40)
            .trace(bundle_two(
                alu_kernel("g", 300, 2, 6, 16),
                mem_kernel("cmem", 6, 3),
            ))
    }

    #[test]
    fn checkpoint_roundtrip_resumes_bit_identically() {
        let r_base = ckpt_sim().run_or_panic();

        let mut gpu = ckpt_sim();
        assert!(
            !gpu.run_until(100).unwrap(),
            "workload must outlast the checkpoint"
        );
        let mut bytes = Vec::new();
        gpu.write_checkpoint(&mut bytes).unwrap();
        let mut resumed = GpuSim::read_checkpoint(&bytes[..]).unwrap();
        let r_resumed = resumed.run_or_panic();
        // The checkpointed original keeps running unperturbed too.
        let r_orig = gpu.run_or_panic();

        for r in [&r_orig, &r_resumed] {
            assert_eq!(r.cycles, r_base.cycles);
            assert_eq!(r.per_stream, r_base.per_stream);
            assert_eq!(r.per_sm_stalls, r_base.per_sm_stalls);
            assert_eq!(r.occupancy, r_base.occupancy);
            assert_eq!(r.kernel_log, r_base.kernel_log);
            assert_eq!(r.metrics_csv(), r_base.metrics_csv());
            assert_eq!(r.chrome_trace_json(), r_base.chrome_trace_json());
            assert_eq!(r.counters_csv(), r_base.counters_csv());
        }
    }

    #[test]
    fn checkpoint_resume_is_thread_count_independent() {
        let r_base = ckpt_sim().run_or_panic();
        let mut gpu = ckpt_sim();
        gpu.run_until(100).unwrap();
        let mut bytes = Vec::new();
        gpu.write_checkpoint(&mut bytes).unwrap();
        // Offsets of the two retired thread slots: after the config and
        // after the partition spec.
        let mut prefix = Vec::new();
        let mut w = Writer::new(&mut prefix);
        w.header().unwrap();
        w.put(&gpu.cfg).unwrap();
        let cfg_slot = prefix.len();
        let mut w = Writer::new(&mut prefix);
        w.put(&RETIRED_THREADS).unwrap();
        w.put(&gpu.spec).unwrap();
        let sim_slot = prefix.len();
        assert_eq!((bytes[cfg_slot], bytes[sim_slot]), (1, 1));
        // A checkpoint written by an older multi-threaded run restores and
        // finishes identically.
        for threads in [2, 4] {
            let mut old = bytes.clone();
            old[cfg_slot] = threads;
            old[sim_slot] = threads;
            let r = GpuSim::read_checkpoint(&old[..]).unwrap().run_or_panic();
            assert_eq!(r.cycles, r_base.cycles);
            assert_eq!(r.per_stream, r_base.per_stream);
            assert_eq!(r.chrome_trace_json(), r_base.chrome_trace_json());
        }
        // The config's slot is still range-checked.
        bytes[cfg_slot] = 0;
        let err = GpuSim::read_checkpoint(&bytes[..]).unwrap_err();
        assert!(err.to_string().contains("thread count"), "{err}");
    }

    #[test]
    fn periodic_checkpoints_are_written_and_resumable() {
        let dir = std::env::temp_dir().join(format!("crisp-ckpt-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let r_base = ckpt_sim().run_or_panic();

        let mut gpu = ckpt_builder()
            .checkpoint_every(100)
            .checkpoint_to(&dir)
            .try_build()
            .unwrap();
        let r_full = gpu.run_or_panic();
        assert_eq!(r_full.cycles, r_base.cycles);

        let first = dir.join("ckpt-100.ckpt");
        assert!(first.exists(), "periodic checkpoint must be on disk");
        let mut resumed = crate::Simulation::resume(&first).unwrap();
        assert_eq!(resumed.now(), 100);
        let r = resumed.run_or_panic();
        assert_eq!(r.cycles, r_base.cycles);
        assert_eq!(r.per_stream, r_base.per_stream);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn read_checkpoint_rejects_garbage() {
        assert!(GpuSim::read_checkpoint(&b""[..]).is_err());
        assert!(GpuSim::read_checkpoint(&b"not a checkpoint"[..]).is_err());
        let mut bytes = Vec::new();
        ckpt_sim().write_checkpoint(&mut bytes).unwrap();
        // Truncation anywhere must error, never panic.
        assert!(GpuSim::read_checkpoint(&bytes[..bytes.len() / 2]).is_err());
        assert!(GpuSim::read_checkpoint(&bytes[..bytes.len() - 1]).is_err());
    }

    #[test]
    fn run_to_marker_parks_all_streams_at_the_barrier() {
        let cfg = GpuConfig::test_tiny();
        let mut sg = Stream::new(G, StreamKind::Graphics);
        sg.launch(alu_kernel("g0", 300, 2, 6, 16));
        sg.marker("roi");
        sg.launch(alu_kernel("g1", 300, 2, 6, 16));
        let mut sc = Stream::new(C, StreamKind::Compute);
        sc.launch(mem_kernel("c0", 6, 3));
        sc.marker("roi");
        sc.launch(mem_kernel("c1", 6, 3));
        let mut gpu = builder(cfg.clone(), PartitionSpec::fg_even(&cfg, G, C))
            .telemetry(Telemetry::TIMELINE)
            .trace(TraceBundle::from_streams(vec![sg, sc]))
            .try_build()
            .unwrap();

        let barrier = gpu.run_to_marker("roi").unwrap();
        assert!(barrier > 0, "the pre-barrier kernels take time");
        let r = gpu.run_or_panic();
        assert!(r.cycles > barrier, "the post-barrier kernels take time");
        // Both streams cross the barrier in the same cycle: the slower
        // stream's kernel gates the faster one's marker.
        let marks: Vec<u64> = r
            .timeline
            .instants()
            .iter()
            .filter(|i| i.name == "roi")
            .map(|i| i.at)
            .collect();
        assert_eq!(marks, vec![barrier, barrier]);
        assert_eq!(r.per_stream[&G].stats.kernels, 2);
        assert_eq!(r.per_stream[&C].stats.kernels, 2);
    }

    #[test]
    fn l2_composition_reflects_data_classes() {
        let cfg = GpuConfig::test_tiny();
        let mut s = Stream::new(C, StreamKind::Compute);
        s.launch(mem_kernel("m", 4, 1));
        let mut gpu = sim(
            cfg,
            PartitionSpec::greedy(),
            TraceBundle::from_streams(vec![s]),
        );
        let r = gpu.run_or_panic();
        assert!(r.l2_composition.class_lines(DataClass::Compute) > 0);
        assert!(r.l2_stats.total().accesses > 0);
        assert!(r.l1_stats.total().accesses > 0);
    }
}
