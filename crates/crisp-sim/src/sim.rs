//! The front-door simulation API: a fluent builder over [`GpuSim`].
//!
//! ```
//! use crisp_sim::{GpuConfig, PartitionSpec, Simulation, Telemetry};
//! # use crisp_trace::{CtaTrace, Instr, KernelTrace, Op, Reg, Stream, StreamId,
//! #                   StreamKind, TraceBundle, WarpTrace};
//! # let mut w = WarpTrace::new();
//! # w.push(Instr::alu(Op::FpFma, Reg(1), &[]));
//! # w.seal();
//! # let k = KernelTrace::new("k", 32, 16, 0, vec![CtaTrace::new(vec![w])]);
//! # let mut s = Stream::new(StreamId(0), StreamKind::Compute);
//! # s.launch(k);
//! # let bundle = TraceBundle::from_streams(vec![s]);
//! let result = Simulation::builder()
//!     .gpu(GpuConfig::test_tiny())
//!     .partition(PartitionSpec::greedy())
//!     .telemetry(Telemetry::FULL)
//!     .trace(bundle)
//!     .run()
//!     .expect("valid trace and config");
//! assert!(result.cycles > 0);
//! ```
//!
//! `run()` returns `Result<SimResult, SimError>`: the trace and
//! configuration are validated up front (pre-flight), and a run that
//! wedges, blows its cycle budget, or panics inside an SM comes back as
//! a structured [`SimError`] with a diagnostic report instead of a panic.
//! Benches and throwaway scripts can use
//! [`run_or_panic`](SimulationBuilder::run_or_panic).

use crate::config::GpuConfig;
use crate::error::SimError;
use crate::gpu::{GpuSim, SimResult, DEFAULT_WATCHDOG};
use crate::policy::{L2Policy, PartitionSpec, SmPartition};
use crisp_analyze::{AnalysisConfig, AnalysisReport, LintLevel};
use crisp_obs::host::{set_alloc_phase, HostPhase, HostProfiler};
use crisp_trace::{CommandMeta, TraceInput, TraceSource};

/// Which periodic telemetry a simulation records.
///
/// A set of flags combined with `|`. Collecting timelines costs memory and
/// a little time on large runs; [`Telemetry::NONE`] turns them all off.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Telemetry(u8);

impl Telemetry {
    /// No periodic sampling: `occupancy` and `ipc_timeline` stay empty and
    /// only the final L2 composition snapshot is taken.
    pub const NONE: Telemetry = Telemetry(0);
    /// Occupancy + per-stream IPC timelines (paper Figure 13).
    pub const OCCUPANCY: Telemetry = Telemetry(1);
    /// Periodic L2 composition snapshots (paper Figures 11 and 15).
    pub const COMPOSITION: Telemetry = Telemetry(2);
    /// Cycle-stamped span timeline: kernel launch→retire, CTA issue→commit,
    /// stream markers. Exported via [`SimResult::chrome_trace_json`].
    pub const TIMELINE: Telemetry = Telemetry(1 << 2);
    /// Periodic counter sampling (per-stream IPC, cache hit rates, DRAM
    /// traffic) into the trace, plus the counter CSV export.
    pub const METRICS: Telemetry = Telemetry(1 << 3);
    /// Trace-paging residency gauges (`trace/resident_ctas`,
    /// `trace/bytes_decoded`, …) in the final metrics snapshot — the
    /// observability half of the streaming [`TraceSource`] path. See
    /// [`SimResult::trace`](crate::SimResult::trace) for the raw counters.
    pub const RESIDENCY: Telemetry = Telemetry(1 << 4);
    /// Everything — always the union of every defined flag.
    pub const FULL: Telemetry = Telemetry(
        Telemetry::OCCUPANCY.0
            | Telemetry::COMPOSITION.0
            | Telemetry::TIMELINE.0
            | Telemetry::METRICS.0
            | Telemetry::RESIDENCY.0,
    );

    /// Whether every flag in `other` is enabled.
    pub fn contains(self, other: Telemetry) -> bool {
        self.0 & other.0 == other.0
    }
}

impl std::ops::BitOr for Telemetry {
    type Output = Telemetry;
    fn bitor(self, rhs: Telemetry) -> Telemetry {
        Telemetry(self.0 | rhs.0)
    }
}

impl Default for Telemetry {
    /// Occupancy sampling on, composition timeline off — the historical
    /// default of [`GpuSim`].
    fn default() -> Self {
        Telemetry::OCCUPANCY
    }
}

/// Entry point of the simulation API; see [`Simulation::builder`].
///
/// The name exists so call sites read `Simulation::builder()...run()`;
/// configuring and running happens entirely on [`SimulationBuilder`].
#[derive(Debug)]
pub struct Simulation;

impl Simulation {
    /// Start configuring a simulation. Every knob has a sensible default:
    /// Jetson Orin hardware, greedy (unpartitioned) scheduling, shared L2,
    /// occupancy telemetry, no trace.
    pub fn builder() -> SimulationBuilder {
        SimulationBuilder::default()
    }

    /// Restore a simulator from a checkpoint file written via
    /// [`SimulationBuilder::checkpoint_every`] (or an emergency checkpoint
    /// named by a [`SimError`]). The resumed run is **bit-identical** to
    /// the uninterrupted one — same [`SimResult`], metrics, and exported
    /// timeline.
    ///
    /// # Errors
    ///
    /// Returns filesystem errors and `InvalidData` for malformed, truncated,
    /// or corrupt checkpoints; never panics on bad input.
    pub fn resume(path: impl AsRef<std::path::Path>) -> std::io::Result<GpuSim> {
        let file = std::fs::File::open(path)?;
        GpuSim::read_checkpoint(std::io::BufReader::new(file))
    }
}

/// Fluent configuration for one simulation run.
#[derive(Debug, Default)]
pub struct SimulationBuilder {
    gpu: Option<GpuConfig>,
    partition: Option<PartitionSpec>,
    l2: Option<L2Policy>,
    telemetry: Telemetry,
    occupancy_interval: Option<u64>,
    composition_interval: Option<u64>,
    counter_interval: Option<u64>,
    profile_to: Option<std::path::PathBuf>,
    checkpoint_every: Option<u64>,
    checkpoint_to: Option<std::path::PathBuf>,
    fast_forward_to: Option<String>,
    trace: Option<TraceInput>,
    watchdog: Option<u64>,
    skip_preflight: bool,
    analyze: LintLevel,
    analyze_config: Option<AnalysisConfig>,
    host_profile: bool,
    heartbeat_interval: Option<u64>,
}

impl SimulationBuilder {
    /// Hardware configuration (default: [`GpuConfig::jetson_orin`]).
    pub fn gpu(mut self, cfg: GpuConfig) -> Self {
        self.gpu = Some(cfg);
        self
    }

    /// Partition policy (default: [`PartitionSpec::greedy`]).
    pub fn partition(mut self, spec: PartitionSpec) -> Self {
        self.partition = Some(spec);
        self
    }

    /// Override just the L2 policy of the partition spec.
    pub fn l2(mut self, policy: L2Policy) -> Self {
        self.l2 = Some(policy);
        self
    }

    /// Ignored: the simulator is single-threaded. Kept only because the
    /// benchmark harness (`perfbench/src/pairs.rs`) still calls it.
    pub fn threads(self, _n: usize) -> Self {
        self
    }

    /// Which periodic telemetry to record (default:
    /// [`Telemetry::OCCUPANCY`]).
    pub fn telemetry(mut self, t: Telemetry) -> Self {
        self.telemetry = t;
        self
    }

    /// Cycles between occupancy/IPC samples (default 2000; 0 disables,
    /// equivalent to dropping [`Telemetry::OCCUPANCY`]).
    pub fn occupancy_interval(mut self, cycles: u64) -> Self {
        self.occupancy_interval = Some(cycles);
        self
    }

    /// Cycles between L2 composition snapshots (default 10_000 when
    /// [`Telemetry::COMPOSITION`] is enabled; 0 disables the timeline).
    pub fn composition_interval(mut self, cycles: u64) -> Self {
        self.composition_interval = Some(cycles);
        self
    }

    /// Cycles between counter samples in the trace (default 1000 when
    /// [`Telemetry::METRICS`] is enabled; a non-zero value here enables
    /// counter sampling even without the flag, mirroring
    /// [`occupancy_interval`](Self::occupancy_interval)).
    pub fn counter_interval(mut self, cycles: u64) -> Self {
        self.counter_interval = Some(cycles);
        self
    }

    /// Write the run's profile artifacts into `dir` after
    /// [`run`](Self::run): `trace.json` (Chrome Trace Event Format, load in
    /// Perfetto), `counters.csv`, `metrics.csv`, and `profile.txt` (the
    /// human-readable report). Equivalent to calling
    /// [`SimResult::write_profile`] yourself; only applies to `run()`, not
    /// [`try_build`](Self::try_build).
    pub fn profile_to(mut self, dir: impl Into<std::path::PathBuf>) -> Self {
        self.profile_to = Some(dir.into());
        self
    }

    /// Write a checkpoint every `cycles` cycles during the run (0 disables,
    /// the default). Files are named `ckpt-<cycle>.ckpt` inside the
    /// [`checkpoint_to`](Self::checkpoint_to) directory. Resume with
    /// [`Simulation::resume`].
    pub fn checkpoint_every(mut self, cycles: u64) -> Self {
        self.checkpoint_every = Some(cycles);
        self
    }

    /// Directory periodic checkpoints are written into (default: the
    /// current directory). Created on first write if missing.
    pub fn checkpoint_to(mut self, dir: impl Into<std::path::PathBuf>) -> Self {
        self.checkpoint_to = Some(dir.into());
        self
    }

    /// Skip ahead to the region of interest: functionally drain every
    /// stream's commands up to the first marker named `label`, warming the
    /// cache/DRAM state without charging cycles, then simulate in detail
    /// from there (see [`GpuSim::fast_forward_to_marker`]). On a streaming
    /// source the skipped kernels' CTAs are paged in one at a time and
    /// released immediately, so the fast-forward itself stays within a
    /// one-CTA resident window.
    ///
    /// ```
    /// use crisp_sim::{GpuConfig, Simulation};
    /// # use crisp_trace::{CtaTrace, Instr, KernelTrace, Op, Reg, Stream,
    /// #                   StreamId, StreamKind, TraceBundle, WarpTrace};
    /// # let mk = |name: &str| {
    /// #     let mut w = WarpTrace::new();
    /// #     w.push(Instr::alu(Op::FpFma, Reg(1), &[]));
    /// #     w.seal();
    /// #     KernelTrace::new(name, 32, 16, 0, vec![CtaTrace::new(vec![w])])
    /// # };
    /// # let mut s = Stream::new(StreamId(0), StreamKind::Compute);
    /// # s.launch(mk("warmup"));
    /// # s.marker("roi");
    /// # s.launch(mk("roi_kernel"));
    /// # let bundle = TraceBundle::from_streams(vec![s]);
    /// let result = Simulation::builder()
    ///     .gpu(GpuConfig::test_tiny())
    ///     .trace(bundle)
    ///     .fast_forward_to("roi")
    ///     .run()
    ///     .unwrap();
    /// // Only the kernel after the marker is simulated in detail.
    /// assert_eq!(result.kernel_log.len(), 1);
    /// assert_eq!(result.kernel_log[0].name, "roi_kernel");
    /// ```
    pub fn fast_forward_to(mut self, label: impl Into<String>) -> Self {
        self.fast_forward_to = Some(label.into());
        self
    }

    /// The workload to replay: anything convertible to a [`TraceInput`] —
    /// an in-memory [`crisp_trace::TraceBundle`], a path to a CRSP
    /// container, or a seekable reader via [`TraceInput::reader`]. Bundles
    /// are fully materialized; version-2 containers from paths or readers
    /// **stream**, demand-paging each CTA's instructions on first dispatch
    /// and dropping them when the CTA commits. Both forms produce
    /// bit-identical results.
    ///
    /// ```
    /// use crisp_sim::{GpuConfig, Simulation};
    /// # use crisp_trace::{CtaTrace, Instr, KernelTrace, Op, Reg, Stream,
    /// #                   StreamId, StreamKind, TraceBundle, WarpTrace};
    /// # let mut w = WarpTrace::new();
    /// # w.push(Instr::alu(Op::FpFma, Reg(1), &[]));
    /// # w.seal();
    /// # let k = KernelTrace::new("k", 32, 16, 0, vec![CtaTrace::new(vec![w])]);
    /// # let mut s = Stream::new(StreamId(0), StreamKind::Compute);
    /// # s.launch(k);
    /// # let bundle = TraceBundle::from_streams(vec![s]);
    /// # let dir = std::env::temp_dir().join("crisp-doc-trace-input");
    /// # std::fs::create_dir_all(&dir).unwrap();
    /// # let path = dir.join("workload.crsp");
    /// # crisp_trace::codec::save(&bundle, &path).unwrap();
    /// // In-memory bundle: fully materialized.
    /// let a = Simulation::builder()
    ///     .gpu(GpuConfig::test_tiny())
    ///     .trace(bundle)
    ///     .run()
    ///     .unwrap();
    /// // Same workload from disk: CTAs are demand-paged, results identical.
    /// let b = Simulation::builder()
    ///     .gpu(GpuConfig::test_tiny())
    ///     .trace(path)
    ///     .run()
    ///     .unwrap();
    /// assert_eq!(a.cycles, b.cycles);
    /// assert!(b.trace.peak_resident_bytes > 0);
    /// ```
    pub fn trace(mut self, input: impl Into<TraceInput>) -> Self {
        self.trace = Some(input.into());
        self
    }

    /// Forward-progress watchdog window: if no SM issues an instruction
    /// for `cycles` consecutive cycles while work remains, the run fails
    /// with [`SimError::Deadlock`] carrying a per-warp diagnostic report
    /// (default [`DEFAULT_WATCHDOG`]; 0 disables).
    pub fn watchdog(mut self, cycles: u64) -> Self {
        self.watchdog = Some(cycles);
        self
    }

    /// Enable or disable pre-flight validation of the trace and
    /// configuration (default: enabled). Validation runs **incrementally
    /// over the trace source** — a single streaming pass with a bounded
    /// resident window, never materializing the whole bundle. Disabling it
    /// lets structurally bad inputs reach the cycle loop — useful only for
    /// testing the runtime fail-safes themselves (the watchdog, the panic
    /// capture) — and also disables the [`analyze`](Self::analyze) hook,
    /// which runs as part of pre-flight. Placement is always checked: a
    /// kernel whose CTA cannot fit an empty SM fails
    /// [`try_build`](Self::try_build) with [`SimError::InvalidConfig`]
    /// either way.
    ///
    /// ```
    /// use crisp_sim::{GpuConfig, SimError, Simulation};
    /// let mut cfg = GpuConfig::test_tiny();
    /// cfg.max_cycles = 0;
    /// // Pre-flight names the problem before the first cycle runs.
    /// let err = Simulation::builder().gpu(cfg).run().unwrap_err();
    /// assert!(matches!(err, SimError::InvalidConfig { .. }));
    /// ```
    pub fn preflight(mut self, enabled: bool) -> Self {
        self.skip_preflight = !enabled;
        self
    }

    /// Run `crisp-analyze` static analysis over the trace during
    /// pre-flight (default: [`LintLevel::Off`]). The analysis streams
    /// kernel-by-kernel over the same [`TraceSource`] the simulation will
    /// use, so it stays within the paging window. With
    /// [`LintLevel::Errors`], error-severity findings (shared-memory
    /// races, use-before-def) fail the build as
    /// [`SimError::InvalidTrace`]; with [`LintLevel::Deny`], warnings fail
    /// it too. Thresholds and allow/deny entries come from
    /// [`analyze_config`](Self::analyze_config).
    ///
    /// A build reads only the verdict, so it runs the analyzer at this
    /// level ([`crisp_analyze::analyze_source_at`]): at `Errors` with no
    /// `deny` entry only the checks that can report an error run, and no
    /// per-kernel stats or interference score are computed.
    /// [`check`](Self::check) returns the full report.
    ///
    /// ```
    /// use crisp_sim::{GpuConfig, LintLevel, Simulation};
    /// # use crisp_trace::{CtaTrace, Instr, KernelTrace, Op, Reg, Stream,
    /// #                   StreamId, StreamKind, TraceBundle, WarpTrace};
    /// # let mut w = WarpTrace::new();
    /// # w.push(Instr::alu(Op::FpFma, Reg(1), &[]));
    /// # w.seal();
    /// # let k = KernelTrace::new("k", 32, 16, 0, vec![CtaTrace::new(vec![w])]);
    /// # let mut s = Stream::new(StreamId(0), StreamKind::Compute);
    /// # s.launch(k);
    /// # let bundle = TraceBundle::from_streams(vec![s]);
    /// // A clean trace passes the lint gate.
    /// assert!(Simulation::builder()
    ///     .gpu(GpuConfig::test_tiny())
    ///     .trace(bundle)
    ///     .analyze(LintLevel::Errors)
    ///     .run()
    ///     .is_ok());
    /// ```
    pub fn analyze(mut self, level: LintLevel) -> Self {
        self.analyze = level;
        self
    }

    /// Configuration for the [`analyze`](Self::analyze) pass (thresholds,
    /// allow/deny lists). Setting a config does not by
    /// itself enable analysis — the level stays [`LintLevel::Off`] until
    /// `analyze(..)` is called.
    pub fn analyze_config(mut self, cfg: AnalysisConfig) -> Self {
        self.analyze_config = Some(cfg);
        self
    }

    /// Profile the **simulator itself** on the host clock (default: off).
    /// Wall-clock time is attributed to every phase of the run — pre-flight
    /// validation, static analysis, fast-forward, and the cycle loop's
    /// dispatch / execute / memory / telemetry phases — and
    /// returned as [`SimResult::host_profile`], with a rendered report via
    /// [`SimResult::host_report`] and a dual-clock Chrome trace via
    /// [`SimResult::chrome_trace_json_with_host`]. Purely observational:
    /// simulated results and the sim-clock exports are byte-identical with
    /// or without it.
    pub fn host_profile(mut self, enabled: bool) -> Self {
        self.host_profile = enabled;
        self
    }

    /// Simulated cycles between host-profile heartbeats (throughput,
    /// resident trace window). Default
    /// [`HostProfiler::DEFAULT_HEARTBEAT`]; 0 disables heartbeats. Only
    /// meaningful with [`host_profile`](Self::host_profile)`(true)`.
    pub fn heartbeat_interval(mut self, cycles: u64) -> Self {
        self.heartbeat_interval = Some(cycles);
        self
    }

    /// The trace pre-flight, the one way a trace is admitted: structural
    /// validation ([`crisp_trace::validate_source`], one streaming pass
    /// with a bounded resident window), the placement check (every CTA
    /// fits an empty SM of the configured GPU), then static analysis at
    /// the [`analyze`](Self::analyze) level. A configured L2 policy opts
    /// the analysis into the cross-stream interference pass, scored against
    /// this GPU's L2. [`try_build`](Self::try_build) runs it; a job queue
    /// runs it at admission on a builder configured like the job's.
    ///
    /// Returns the full lint report (every finding, the per-kernel stats
    /// and the interference score) whatever the level, or `None` at
    /// [`LintLevel::Off`]; the level decides only the verdict.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidTrace`] when the trace fails validation or lint
    /// at the configured level, [`SimError::InvalidConfig`] when a kernel
    /// can never be placed, [`SimError::TraceIo`] when analysis cannot
    /// page a kernel in.
    pub fn check(&self, src: &mut TraceSource) -> Result<Option<AnalysisReport>, SimError> {
        self.check_timed(src, None, LintLevel::Deny)
    }

    /// [`check`](Self::check), attributing validation and analysis to
    /// their host-profile phases. The analyzer computes what `walk` keeps
    /// ([`crisp_analyze::analyze_source_at`]): [`LintLevel::Deny`] for the
    /// full report, the builder's own level when only the verdict is read.
    fn check_timed(
        &self,
        src: &mut TraceSource,
        mut host: Option<&mut HostProfiler>,
        walk: LintLevel,
    ) -> Result<Option<AnalysisReport>, SimError> {
        let cfg = self.gpu_config();
        let t0 = host.as_deref_mut().map(|h| {
            set_alloc_phase(HostPhase::Preflight);
            h.elapsed_ns()
        });
        crisp_trace::validate_source(src)?;
        if let Some(message) = crate::gpu::unplaceable_kernel(src, &cfg) {
            return Err(SimError::InvalidConfig { message });
        }
        if let (Some(t0), Some(h)) = (t0, host.as_deref_mut()) {
            h.span_end(HostPhase::Preflight, "validate trace", t0);
        }
        if self.analyze == LintLevel::Off {
            return Ok(None);
        }
        let t0 = host.as_deref_mut().map(|h| {
            set_alloc_phase(HostPhase::Analyze);
            h.elapsed_ns()
        });
        let mut acfg = self.analyze_config.clone().unwrap_or_default();
        // Configuring a concurrency policy opts the build into the
        // cross-stream interference pass: score the phases against the L2
        // this GPU actually has, unless the caller pinned an explicit
        // capacity model.
        if acfg.interference.is_none() {
            if let Some(policy) = self.l2_policy() {
                let share = match policy {
                    L2Policy::Shared => crisp_analyze::L2Share::Shared,
                    L2Policy::BankSplit => crisp_analyze::L2Share::BankSplit,
                    L2Policy::Tap(_) => crisp_analyze::L2Share::Tap,
                };
                acfg.interference = Some(crisp_analyze::InterferenceSpec {
                    l2_bytes: cfg.l2_bytes,
                    share,
                });
            }
        }
        let report =
            crisp_analyze::analyze_source_at(src, &acfg, walk).map_err(|e| SimError::TraceIo {
                cycle: 0,
                message: e.to_string(),
            })?;
        if let (Some(t0), Some(h)) = (t0, host) {
            h.span_end(HostPhase::Analyze, "static analysis", t0);
        }
        let errors: Vec<crisp_trace::TraceError> = match self.analyze {
            LintLevel::Deny => report
                .diagnostics
                .iter()
                .map(crisp_analyze::Diagnostic::to_trace_error)
                .collect(),
            _ => report.to_trace_errors(),
        };
        if !errors.is_empty() {
            return Err(errors.into());
        }
        Ok(Some(report))
    }

    /// The configured GPU, or the default one.
    fn gpu_config(&self) -> GpuConfig {
        self.gpu.clone().unwrap_or_else(GpuConfig::jetson_orin)
    }

    /// The L2 policy set directly or through the partition spec, if any.
    fn l2_policy(&self) -> Option<&L2Policy> {
        self.l2.as_ref().or(self.partition.as_ref().map(|p| &p.l2))
    }

    /// Pre-flight: the trace [`check`](Self::check) plus the configuration
    /// cross-checked against itself and the trace's metadata, so bad
    /// inputs fail in milliseconds with a named error instead of mid-run.
    fn preflight_check(
        &self,
        mut source: Option<&mut TraceSource>,
        host: Option<&mut HostProfiler>,
    ) -> Result<(), SimError> {
        let invalid = |message: String| Err(SimError::InvalidConfig { message });
        let cfg = self.gpu_config();
        if cfg.max_cycles == 0 {
            return invalid("max_cycles is 0 — no cycle could ever run".into());
        }
        if let Some(src) = source.as_deref_mut() {
            // The build reads only the verdict: lint at the builder's level.
            self.check_timed(src, host, self.analyze)?;
        }
        let n_streams = source.as_ref().map(|s| s.streams().len());
        let spec_sm = self.partition.as_ref().map(|p| &p.sm);
        match spec_sm {
            Some(SmPartition::InterSm(map)) => {
                for (stream, sms) in map {
                    if sms.is_empty() {
                        return invalid(format!(
                            "partition assigns no SMs to {stream} — its CTAs could \
                             never be placed"
                        ));
                    }
                    if let Some(&idx) = sms.iter().find(|&&i| i >= cfg.n_sms) {
                        return invalid(format!(
                            "partition assigns SM {idx} to {stream}, but the GPU has \
                             only {} SMs",
                            cfg.n_sms
                        ));
                    }
                }
            }
            Some(SmPartition::IntraSm(map)) => {
                // Summing u32::MAX ("unlimited") would always trip the
                // check, so only bounded quotas participate.
                let sum = |f: fn(&crisp_sm::ResourceQuota) -> u32, cap: u32, what: &str| {
                    let bounded: Vec<u32> =
                        map.values().map(f).filter(|&v| v != u32::MAX).collect();
                    let total: u64 = bounded.iter().map(|&v| u64::from(v)).sum();
                    if bounded.len() == map.len() && total > u64::from(cap) {
                        Some(format!(
                            "intra-SM quotas oversubscribe {what}: {total} > {cap} \
                             physically available per SM"
                        ))
                    } else {
                        None
                    }
                };
                let sm = &cfg.sm;
                let oversubscribed = [
                    sum(|q| q.threads, sm.max_threads, "threads"),
                    sum(|q| q.warps, sm.max_warps, "warp slots"),
                    sum(|q| q.regs, sm.max_regs, "registers"),
                    sum(|q| q.smem, sm.max_smem, "shared memory"),
                ]
                .into_iter()
                .flatten()
                .next();
                if let Some(msg) = oversubscribed {
                    return invalid(msg);
                }
            }
            Some(SmPartition::IntraSmDynamic(_)) => {
                if let Some(n) = n_streams {
                    if n != 2 {
                        return invalid(format!(
                            "the warped-slicer policy expects exactly two streams, \
                             the trace has {n}"
                        ));
                    }
                }
            }
            Some(SmPartition::Greedy) | None => {}
        }
        if let Some(L2Policy::BankSplit) = self.l2_policy() {
            if cfg.l2_banks < 2 {
                return invalid(format!(
                    "L2 bank-split needs at least 2 banks, the GPU has {}",
                    cfg.l2_banks
                ));
            }
            if let Some(n) = n_streams {
                if n != 2 {
                    return invalid(format!(
                        "the L2 bank-split policy expects exactly two streams, \
                         the trace has {n}"
                    ));
                }
            }
        }
        if let Some(src) = source.as_ref() {
            if let Some(label) = &self.fast_forward_to {
                let found = src.streams().iter().any(|s| {
                    s.commands
                        .iter()
                        .any(|c| matches!(c, CommandMeta::Marker(l) if l == label))
                });
                if !found {
                    return invalid(format!(
                        "fast-forward marker '{label}' appears in no stream"
                    ));
                }
            }
        }
        // Probe checkpoint-directory writability up front: an emergency or
        // periodic checkpoint that cannot be written is discovered now, not
        // millions of cycles in.
        if self.checkpoint_every.is_some_and(|c| c > 0) || self.checkpoint_to.is_some() {
            let dir = self.checkpoint_to.clone().unwrap_or_default();
            let probe = || -> std::io::Result<()> {
                if !dir.as_os_str().is_empty() {
                    std::fs::create_dir_all(&dir)?;
                }
                let p = dir.join(".crisp-write-probe");
                std::fs::write(&p, b"probe")?;
                std::fs::remove_file(&p)
            };
            if let Err(e) = probe() {
                return invalid(format!(
                    "checkpoint directory {} is not writable: {e}",
                    if dir.as_os_str().is_empty() {
                        std::path::Path::new(".").display()
                    } else {
                        dir.display()
                    }
                ));
            }
        }
        Ok(())
    }

    /// Open the trace input, pre-flight-validate it together with the
    /// configuration, then construct the [`GpuSim`] without running it —
    /// the only constructor besides [`Simulation::resume`].
    /// [`run`](Self::run) goes through here; incremental drivers call
    /// [`GpuSim::run_until`] or [`GpuSim::step`] themselves. The source is
    /// opened **once** and shared by validation, analysis, fast-forward,
    /// and the simulation itself, so a streaming input is read in a single
    /// pass with bounded memory. Inputs that pre-flight would reject reach
    /// the cycle loop only with [`preflight(false)`](Self::preflight).
    ///
    /// # Errors
    ///
    /// [`SimError::TraceIo`] when the input cannot be opened (missing
    /// file, malformed container, corrupt CTA index),
    /// [`SimError::InvalidTrace`] when the trace fails structural
    /// validation, [`SimError::InvalidConfig`] when the configuration is
    /// inconsistent with itself or the trace.
    pub fn try_build(mut self) -> Result<GpuSim, SimError> {
        // Started before pre-flight so validation, analysis, and
        // fast-forward land on its clock.
        let mut host = self.host_profile.then(|| {
            Box::new(HostProfiler::new(
                self.heartbeat_interval
                    .unwrap_or(HostProfiler::DEFAULT_HEARTBEAT),
            ))
        });
        let mut source = self
            .trace
            .take()
            .map(TraceInput::open)
            .transpose()
            .map_err(|e| SimError::TraceIo {
                cycle: 0,
                message: e.to_string(),
            })?;
        let cfg = self.gpu_config();
        if self.skip_preflight {
            // Placement is checked whether or not pre-flight runs: the
            // dispatcher relies on every CTA fitting an empty SM, and the
            // check reads only the source's directory metadata.
            if let Some(message) = source
                .as_ref()
                .and_then(|src| crate::gpu::unplaceable_kernel(src, &cfg))
            {
                return Err(SimError::InvalidConfig { message });
            }
        } else {
            self.preflight_check(source.as_mut(), host.as_deref_mut())?;
            // Validation and analysis page CTAs through the source; zero the
            // accounting so the run's counters start at cycle 0 and results
            // are identical whether or not the pre-flight pass ran.
            if let Some(src) = source.as_mut() {
                src.set_stats(crisp_trace::TraceStats::default());
            }
        }
        // Construction is pre-flight work on the host clock.
        let t0 = host.as_deref_mut().map(|h| {
            set_alloc_phase(HostPhase::Preflight);
            h.elapsed_ns()
        });
        let mut spec = self.partition.unwrap_or_else(PartitionSpec::greedy);
        if let Some(l2) = self.l2 {
            spec.l2 = l2;
        }
        let mut sim = GpuSim::with_spec(cfg, spec);
        sim.occupancy_interval = match self.occupancy_interval {
            Some(cycles) => cycles,
            None if self.telemetry.contains(Telemetry::OCCUPANCY) => 2_000,
            None => 0,
        };
        sim.composition_interval = match self.composition_interval {
            Some(cycles) => cycles,
            None if self.telemetry.contains(Telemetry::COMPOSITION) => 10_000,
            None => 0,
        };
        sim.counter_interval = match self.counter_interval {
            Some(cycles) => cycles,
            None if self.telemetry.contains(Telemetry::METRICS) => 1_000,
            None => 0,
        };
        sim.set_telemetry(
            self.telemetry.contains(Telemetry::TIMELINE),
            sim.counter_interval > 0,
        );
        if let Some(cycles) = self.checkpoint_every {
            sim.checkpoint_every = cycles;
        }
        sim.checkpoint_dir = self.checkpoint_to;
        sim.watchdog = self.watchdog.unwrap_or(DEFAULT_WATCHDOG);
        sim.residency_telemetry = self.telemetry.contains(Telemetry::RESIDENCY);
        if let Some(src) = source {
            sim.attach(src);
        }
        if let (Some(t0), Some(h)) = (t0, host.as_deref_mut()) {
            h.span_end(HostPhase::Preflight, "construct", t0);
        }
        if let Some(label) = self.fast_forward_to {
            let t0 = host.as_deref_mut().map(|h| {
                set_alloc_phase(HostPhase::FastForward);
                h.elapsed_ns()
            });
            sim.fast_forward_to_marker(&label)
                .map_err(|e| SimError::TraceIo {
                    cycle: 0,
                    message: e.to_string(),
                })?;
            if let (Some(t0), Some(h)) = (t0, host.as_deref_mut()) {
                h.span_end(HostPhase::FastForward, &label, t0);
            }
        }
        sim.install_host_profiler(host);
        Ok(sim)
    }

    /// Build and run to completion.
    ///
    /// # Errors
    ///
    /// Pre-flight errors ([`SimError::InvalidTrace`],
    /// [`SimError::InvalidConfig`]) before the first cycle; the failure
    /// modes of [`GpuSim::run`] during it. A
    /// [`profile_to`](Self::profile_to) directory that cannot be written
    /// surfaces as [`SimError::CheckpointIo`].
    pub fn run(mut self) -> Result<SimResult, SimError> {
        let profile_dir = self.profile_to.take();
        let mut sim = self.try_build()?;
        let result = sim.run()?;
        if let Some(dir) = profile_dir {
            if let Err(e) = result.write_profile(&dir) {
                return Err(SimError::CheckpointIo {
                    cycle: result.cycles,
                    path: dir,
                    source: e,
                });
            }
        }
        Ok(result)
    }

    /// [`run`](Self::run) that panics with the rendered diagnostic on any
    /// failure — the shim for benches and throwaway scripts.
    ///
    /// # Panics
    ///
    /// Panics on any [`SimError`], with the full diagnostic as the message.
    pub fn run_or_panic(self) -> SimResult {
        self.run().unwrap_or_else(|e| panic!("{e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crisp_trace::{
        CtaTrace, Instr, KernelTrace, Op, Reg, Stream, StreamId, StreamKind, TraceBundle, WarpTrace,
    };

    fn bundle() -> TraceBundle {
        let mut w = WarpTrace::new();
        for i in 0..20 {
            w.push(Instr::alu(Op::FpFma, Reg((i % 8) + 1), &[]));
        }
        w.seal();
        let k = KernelTrace::new("k", 64, 16, 0, vec![CtaTrace::new(vec![w; 2]); 4]);
        let mut s = Stream::new(StreamId(0), StreamKind::Compute);
        s.launch(k);
        TraceBundle::from_streams(vec![s])
    }

    #[test]
    fn defaults_match_historical_behavior() {
        let sim = Simulation::builder().try_build().unwrap();
        assert_eq!(sim.config().name, "Jetson Orin");
        assert_eq!(sim.occupancy_interval, 2_000);
        assert_eq!(sim.composition_interval, 0);
    }

    #[test]
    fn telemetry_flags_combine() {
        assert!(Telemetry::FULL.contains(Telemetry::OCCUPANCY));
        assert!(Telemetry::FULL.contains(Telemetry::COMPOSITION));
        assert!(Telemetry::FULL.contains(Telemetry::TIMELINE));
        assert!(Telemetry::FULL.contains(Telemetry::METRICS));
        assert!(Telemetry::FULL.contains(Telemetry::RESIDENCY));
        assert!(!Telemetry::NONE.contains(Telemetry::OCCUPANCY));
        // FULL is exactly the union of every defined flag — adding a flag
        // without folding it into FULL is the historical bug this guards.
        assert_eq!(
            Telemetry::OCCUPANCY
                | Telemetry::COMPOSITION
                | Telemetry::TIMELINE
                | Telemetry::METRICS
                | Telemetry::RESIDENCY,
            Telemetry::FULL
        );
        assert!(!(Telemetry::OCCUPANCY | Telemetry::COMPOSITION).contains(Telemetry::TIMELINE));
    }

    #[test]
    fn residency_flag_reaches_the_sim() {
        let sim = Simulation::builder()
            .gpu(GpuConfig::test_tiny())
            .telemetry(Telemetry::FULL)
            .try_build()
            .unwrap();
        assert!(sim.residency_telemetry);
        let sim = Simulation::builder()
            .gpu(GpuConfig::test_tiny())
            .try_build()
            .unwrap();
        assert!(!sim.residency_telemetry, "not part of the default set");
    }

    #[test]
    fn telemetry_none_disables_sampling() {
        let r = Simulation::builder()
            .gpu(GpuConfig::test_tiny())
            .telemetry(Telemetry::NONE)
            .trace(bundle())
            .run_or_panic();
        assert!(r.occupancy.is_empty());
        assert!(r.ipc_timeline.is_empty());
        assert!(r.l2_composition_timeline.is_empty());
        assert!(r.timeline.is_empty(), "no spans without TIMELINE");
        assert!(r.cycles > 0);
    }

    #[test]
    fn timeline_telemetry_records_spans() {
        let r = Simulation::builder()
            .gpu(GpuConfig::test_tiny())
            .telemetry(Telemetry::TIMELINE)
            .trace(bundle())
            .run_or_panic();
        // One kernel span + one CTA span per CTA in the grid.
        assert!(r.timeline.span_count() >= 5, "kernel + 4 CTA spans");
        assert!(r
            .timeline
            .spans()
            .any(|s| s.cat == "kernel" && s.name == "k"));
        let json = r.chrome_trace_json();
        crisp_obs::json::validate(&json).expect("valid Chrome trace");
    }

    #[test]
    fn metrics_telemetry_samples_counters() {
        let mut w = WarpTrace::new();
        for i in 0..400 {
            w.push(Instr::alu(Op::FpFma, Reg((i % 8) + 1), &[]));
        }
        w.seal();
        let k = KernelTrace::new("long", 64, 16, 0, vec![CtaTrace::new(vec![w; 2]); 4]);
        let mut s = Stream::new(StreamId(0), StreamKind::Compute);
        s.launch(k);
        let r = Simulation::builder()
            .gpu(GpuConfig::test_tiny())
            .telemetry(Telemetry::METRICS)
            .counter_interval(50)
            .trace(TraceBundle::from_streams(vec![s]))
            .run_or_panic();
        assert!(!r.timeline.counters().is_empty());
        assert!(r
            .timeline
            .counters()
            .iter()
            .any(|c| c.name == "stream0/ipc" && c.value > 0.0));
        let csv = r.counters_csv();
        assert!(csv.starts_with("cycle,counter,value\n"));
        assert!(csv.lines().count() > 1);
    }

    #[test]
    fn explicit_interval_overrides_telemetry() {
        let sim = Simulation::builder()
            .gpu(GpuConfig::test_tiny())
            .telemetry(Telemetry::NONE)
            .occupancy_interval(50)
            .try_build()
            .unwrap();
        assert_eq!(sim.occupancy_interval, 50);
    }

    #[test]
    fn composition_telemetry_samples_timeline() {
        let mut w = WarpTrace::new();
        for i in 0..500 {
            w.push(Instr::alu(Op::FpFma, Reg((i % 8) + 1), &[]));
        }
        w.seal();
        let k = KernelTrace::new("long", 64, 16, 0, vec![CtaTrace::new(vec![w; 2]); 4]);
        let mut s = Stream::new(StreamId(0), StreamKind::Compute);
        s.launch(k);
        let r = Simulation::builder()
            .gpu(GpuConfig::test_tiny())
            .telemetry(Telemetry::FULL)
            .occupancy_interval(50)
            .composition_interval(25)
            .trace(TraceBundle::from_streams(vec![s]))
            .run_or_panic();
        assert!(r.cycles > 100, "workload long enough to sample");
        assert!(!r.occupancy.is_empty());
        assert!(!r.l2_composition_timeline.is_empty());
    }

    #[test]
    fn l2_override_applies() {
        // A bank-split L2 needs exactly two streams; overriding it with a
        // shared L2 lets a one-stream trace build.
        let spec = PartitionSpec {
            sm: SmPartition::Greedy,
            l2: L2Policy::BankSplit,
        };
        let b = || {
            Simulation::builder()
                .gpu(GpuConfig::test_tiny())
                .partition(spec.clone())
                .trace(bundle())
        };
        let err = b().try_build().unwrap_err();
        assert!(matches!(err, SimError::InvalidConfig { .. }), "{err}");
        let mut sim = b().l2(L2Policy::Shared).try_build().unwrap();
        assert!(sim.run_or_panic().cycles > 0);
    }

    #[test]
    fn builder_constructs_a_runnable_sim() {
        let mut gpu = Simulation::builder()
            .gpu(GpuConfig::test_tiny())
            .partition(PartitionSpec::greedy())
            .trace(bundle())
            .try_build()
            .unwrap();
        assert!(gpu.run_or_panic().cycles > 0);
    }

    #[test]
    fn checkpoint_knobs_reach_the_sim() {
        // Pre-flight off: it would probe the directory by writing to it.
        let sim = Simulation::builder()
            .gpu(GpuConfig::test_tiny())
            .checkpoint_every(5_000)
            .checkpoint_to("/tmp/ckpts")
            .preflight(false)
            .try_build()
            .unwrap();
        assert_eq!(sim.checkpoint_every, 5_000);
        assert_eq!(
            sim.checkpoint_dir.as_deref(),
            Some(std::path::Path::new("/tmp/ckpts"))
        );
    }

    #[test]
    fn analyze_hook_fails_racy_traces() {
        use crisp_trace::{DataClass, MemAccess, Space};
        // Structurally valid, semantically racy: two warps write the same
        // shared bytes in the same barrier interval.
        let warp = || {
            let mut w = WarpTrace::new();
            w.push(Instr::alu(Op::IntAlu, Reg(1), &[]));
            w.push(Instr::store(
                Reg(1),
                MemAccess::coalesced(Space::Shared, DataClass::Compute, 4, 0, 32),
            ));
            w.push(Instr::bar());
            w.seal();
            w
        };
        let k = KernelTrace::new(
            "racy",
            64,
            8,
            1024,
            vec![CtaTrace::new(vec![warp(), warp()])],
        );
        let mut s = Stream::new(StreamId(0), StreamKind::Compute);
        s.launch(k);
        let racy = TraceBundle::from_streams(vec![s]);

        // Without the hook the structural validator passes it.
        assert!(Simulation::builder()
            .gpu(GpuConfig::test_tiny())
            .trace(racy.clone())
            .run()
            .is_ok());

        let err = Simulation::builder()
            .gpu(GpuConfig::test_tiny())
            .trace(racy)
            .analyze(LintLevel::Errors)
            .run()
            .unwrap_err();
        let SimError::InvalidTrace { errors } = err else {
            panic!("expected InvalidTrace, got {err}");
        };
        assert!(
            errors
                .iter()
                .any(|e| e.to_string().contains("race/shared-write-write")),
            "{errors:?}"
        );
    }

    #[test]
    fn analyze_hook_passes_clean_traces_and_deny_catches_warnings() {
        assert!(Simulation::builder()
            .gpu(GpuConfig::test_tiny())
            .trace(bundle())
            .analyze(LintLevel::Errors)
            .run()
            .is_ok());

        use crisp_trace::{DataClass, MemAccess, Space};
        // Two CTAs write the same global bytes: a warning, not an error.
        let warp = || {
            let mut w = WarpTrace::new();
            w.push(Instr::alu(Op::IntAlu, Reg(1), &[]));
            w.push(Instr::store(
                Reg(1),
                MemAccess::coalesced(Space::Global, DataClass::Compute, 4, 0x100, 32),
            ));
            w.seal();
            w
        };
        let k = KernelTrace::new(
            "overlap",
            32,
            8,
            0,
            vec![CtaTrace::new(vec![warp()]), CtaTrace::new(vec![warp()])],
        );
        let mut s = Stream::new(StreamId(0), StreamKind::Compute);
        s.launch(k);
        let b = TraceBundle::from_streams(vec![s]);

        assert!(
            Simulation::builder()
                .gpu(GpuConfig::test_tiny())
                .trace(b.clone())
                .analyze(LintLevel::Errors)
                .run()
                .is_ok(),
            "warnings must not fail LintLevel::Errors"
        );
        let err = Simulation::builder()
            .gpu(GpuConfig::test_tiny())
            .trace(b.clone())
            .analyze(LintLevel::Deny)
            .run()
            .unwrap_err();
        assert!(matches!(err, SimError::InvalidTrace { .. }), "{err}");
        // An allow entry restores the pass under Deny.
        assert!(Simulation::builder()
            .gpu(GpuConfig::test_tiny())
            .trace(b)
            .analyze(LintLevel::Deny)
            .analyze_config(
                AnalysisConfig::new()
                    .allow_in(crisp_analyze::LintCode::GlobalWriteOverlap, "overlap"),
            )
            .run()
            .is_ok());
    }

    /// Two streams that each fit test_tiny's 128 KiB L2 alone (96 KiB
    /// working sets) but collide when shared.
    fn colliding_bundle() -> TraceBundle {
        use crisp_trace::{DataClass, MemAccess, Space};
        let reader = |base: u64, class: DataClass, space: Space| {
            let mut w = WarpTrace::new();
            for i in 0..768u64 {
                w.push(Instr::load(
                    Reg(1),
                    MemAccess::coalesced(space, class, 4, base + i * 128, 32),
                ));
            }
            w.seal();
            KernelTrace::new("hot", 32, 8, 0, vec![CtaTrace::new(vec![w])])
        };
        let mut g = Stream::new(StreamId(0), StreamKind::Graphics);
        g.launch(reader(0x1000_0000, DataClass::Texture, Space::Tex));
        let mut c = Stream::new(StreamId(1), StreamKind::Compute);
        c.launch(reader(0x2000_0000, DataClass::Compute, Space::Global));
        TraceBundle::from_streams(vec![g, c])
    }

    #[test]
    fn partitioned_builds_derive_an_interference_spec() {
        let b = colliding_bundle();
        let acfg = || AnalysisConfig::new().allow(crisp_analyze::LintCode::DeadWrite);

        // No partition configured → no capacity model → Deny stays clean.
        assert!(Simulation::builder()
            .gpu(GpuConfig::test_tiny())
            .trace(b.clone())
            .analyze(LintLevel::Deny)
            .analyze_config(acfg())
            .run()
            .is_ok());

        // A partition (greedy = shared L2) opts the build in; the collision
        // is a warning, so Errors passes and Deny rejects with the code.
        assert!(Simulation::builder()
            .gpu(GpuConfig::test_tiny())
            .partition(PartitionSpec::greedy())
            .trace(b.clone())
            .analyze(LintLevel::Errors)
            .analyze_config(acfg())
            .run()
            .is_ok());
        let err = Simulation::builder()
            .gpu(GpuConfig::test_tiny())
            .partition(PartitionSpec::greedy())
            .trace(b.clone())
            .analyze(LintLevel::Deny)
            .analyze_config(acfg())
            .run()
            .unwrap_err();
        let SimError::InvalidTrace { errors } = err else {
            panic!("expected InvalidTrace, got {err}");
        };
        assert!(
            errors
                .iter()
                .any(|e| e.to_string().contains("interference/footprint-collision")),
            "{errors:?}"
        );

        // An .l2() override reaches the derived spec: under a bank split
        // the collision vanishes, but each 96 KiB stream now oversubscribes
        // its 64 KiB slice.
        let err = Simulation::builder()
            .gpu(GpuConfig::test_tiny())
            .partition(PartitionSpec::greedy())
            .l2(L2Policy::BankSplit)
            .trace(b)
            .analyze(LintLevel::Deny)
            .analyze_config(acfg())
            .run()
            .unwrap_err();
        let SimError::InvalidTrace { errors } = err else {
            panic!("expected InvalidTrace, got {err}");
        };
        assert!(
            errors
                .iter()
                .all(|e| !e.to_string().contains("footprint-collision")),
            "{errors:?}"
        );
        assert!(
            errors
                .iter()
                .any(|e| e.to_string().contains("interference/l2-oversubscribed")),
            "{errors:?}"
        );
    }

    #[test]
    fn check_returns_the_full_report_at_errors() {
        // A build at Errors lints only for errors; `check` is the caller
        // that reads the report, so it keeps the warnings, the stats and
        // the score.
        let b = colliding_bundle();
        let builder = Simulation::builder()
            .gpu(GpuConfig::test_tiny())
            .partition(PartitionSpec::greedy())
            .analyze(LintLevel::Errors);
        let report = builder
            .check(&mut TraceSource::from_bundle(b.clone()))
            .unwrap()
            .expect("a report at Errors");
        let expected = crisp_analyze::analyze_source(
            &mut TraceSource::from_bundle(b),
            &AnalysisConfig {
                interference: Some(crisp_analyze::InterferenceSpec::shared(
                    GpuConfig::test_tiny().l2_bytes,
                )),
                ..AnalysisConfig::default()
            },
        )
        .unwrap();
        assert_eq!(report, expected);
        assert!(report
            .warnings()
            .any(|d| d.code.as_str() == "interference/footprint-collision"));
        assert_eq!(report.stats.len(), 2);
        assert!(report.interference.is_some_and(|s| s > 1.0));
    }

    #[test]
    fn fast_forward_skips_to_the_marker() {
        // Two identical kernels split by a marker: fast-forwarding to the
        // marker must simulate only the second one in detail.
        let mk = |name: &str| {
            let mut w = WarpTrace::new();
            for i in 0..200 {
                w.push(Instr::alu(Op::FpFma, Reg((i % 8) + 1), &[]));
            }
            w.seal();
            KernelTrace::new(name, 64, 16, 0, vec![CtaTrace::new(vec![w; 2]); 4])
        };
        let two_phase = || {
            let mut s = Stream::new(StreamId(0), StreamKind::Compute);
            s.launch(mk("warmup"));
            s.marker("roi");
            s.launch(mk("roi_kernel"));
            TraceBundle::from_streams(vec![s])
        };
        let full = Simulation::builder()
            .gpu(GpuConfig::test_tiny())
            .trace(two_phase())
            .run_or_panic();
        let roi = Simulation::builder()
            .gpu(GpuConfig::test_tiny())
            .trace(two_phase())
            .fast_forward_to("roi")
            .run_or_panic();
        assert_eq!(full.per_stream[&StreamId(0)].stats.kernels, 2);
        assert_eq!(roi.per_stream[&StreamId(0)].stats.kernels, 1);
        assert!(
            roi.cycles * 2 < full.cycles + 10,
            "ROI run must only simulate the second kernel: full {} roi {}",
            full.cycles,
            roi.cycles
        );
        assert_eq!(roi.kernel_log.len(), 1);
        assert_eq!(roi.kernel_log[0].name, "roi_kernel");
    }
}
