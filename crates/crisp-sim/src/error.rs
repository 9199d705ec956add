//! Structured simulation errors and the deadlock report.
//!
//! Every way a run can fail — a cycle budget blown, a genuine scheduling
//! deadlock, an SM panic, a malformed trace or config, a
//! checkpoint that would not write — maps to one [`SimError`] variant.
//! The hang-shaped variants carry a [`HangContext`]: the cycle of failure,
//! a full [`DeadlockReport`] (per-stream frontier plus per-SM scheduling
//! snapshots from [`crisp_sm::SmDiagnostics`]), the partial [`SimResult`]
//! accumulated so far, and the path of the emergency checkpoint when one
//! was written — so a wedged multi-hour run degrades into a diagnostic and
//! a resumable artifact instead of a poisoned mutex.
//!
//! `Display` on [`SimError`] renders the full multi-line diagnostic; `{e}`
//! in a log line is the report.

use std::fmt;
use std::io;
use std::path::PathBuf;

use crisp_sm::{SmDiagnostics, WarpStall};
use crisp_trace::{StreamId, TraceError};

use crate::gpu::SimResult;

/// Where one stream's dispatch frontier sat when a run failed.
#[derive(Debug, Clone)]
pub struct StreamFrontier {
    /// Stream id.
    pub id: StreamId,
    /// The stream has retired every command.
    pub finished: bool,
    /// Name of the kernel currently dispatching, if any.
    pub kernel: Option<String>,
    /// Next CTA index the dispatcher would issue from that kernel.
    pub next_cta: usize,
    /// The kernel's grid size (total CTAs).
    pub grid: usize,
    /// CTAs issued but not yet committed.
    pub outstanding: usize,
    /// Commands (kernel launches / markers) still queued behind the
    /// current kernel.
    pub commands_left: usize,
}

impl fmt::Display for StreamFrontier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.finished {
            return write!(f, "{}: finished", self.id);
        }
        match &self.kernel {
            Some(k) => write!(
                f,
                "{}: in kernel '{}' — {}/{} CTAs dispatched, {} outstanding, {} commands queued",
                self.id, k, self.next_cta, self.grid, self.outstanding, self.commands_left
            ),
            None => write!(
                f,
                "{}: between kernels, {} commands queued",
                self.id, self.commands_left
            ),
        }
    }
}

/// Everything the watchdog could learn about why nothing retires: the
/// per-stream dispatch frontier plus a scheduling snapshot of every SM,
/// built from final state.
#[derive(Debug, Clone)]
pub struct DeadlockReport {
    /// Cycle the report was taken at.
    pub cycle: u64,
    /// Last cycle any SM issued an instruction.
    pub last_progress: u64,
    /// Per-stream dispatch frontier.
    pub streams: Vec<StreamFrontier>,
    /// Per-SM scheduling snapshots (index = SM id).
    pub sms: Vec<SmDiagnostics>,
}

impl DeadlockReport {
    /// Names of CTAs that look like deadlock culprits, `(sm id, stream,
    /// cta index)` each. Two wedge shapes qualify: a CTA whose barrier
    /// waits on a warp that can never arrive (trace exhausted without an
    /// `Exit`), and a CTA whose live warps are all parked but split across
    /// *different* named barrier slots, so no slot can ever complete.
    #[must_use]
    pub fn culprits(&self) -> Vec<(usize, StreamId, usize)> {
        let mut out = Vec::new();
        for sm in &self.sms {
            for cta in &sm.ctas {
                let exhausted = sm.warps.iter().any(|w| {
                    w.stream == cta.stream
                        && w.cta_index == cta.cta_index
                        && w.stall == WarpStall::TraceExhausted
                });
                if cta.barrier_waiting() && (exhausted || cta.split_barrier_wedge()) {
                    out.push((sm.id, cta.stream, cta.cta_index));
                }
            }
        }
        out
    }
}

impl fmt::Display for DeadlockReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "deadlock report at cycle {} (last instruction issued at cycle {})",
            self.cycle, self.last_progress
        )?;
        writeln!(f, "streams:")?;
        for s in &self.streams {
            writeln!(f, "  {s}")?;
        }
        let culprits = self.culprits();
        if !culprits.is_empty() {
            writeln!(f, "likely culprits:")?;
            for (sm, stream, cta) in &culprits {
                let split = self.sms[*sm]
                    .ctas
                    .iter()
                    .find(|c| c.stream == *stream && c.cta_index == *cta)
                    .is_some_and(crisp_sm::CtaDiagnostics::split_barrier_wedge);
                if split {
                    writeln!(
                        f,
                        "  sm{sm} {stream} cta {cta}: warps parked at different \
                         barrier slots — no slot can ever complete"
                    )?;
                } else {
                    writeln!(
                        f,
                        "  sm{sm} {stream} cta {cta}: barrier waits on a warp whose \
                         trace ended without Exit"
                    )?;
                }
            }
        }
        writeln!(f, "SMs:")?;
        for sm in &self.sms {
            if sm.idle() {
                continue;
            }
            writeln!(
                f,
                "  sm{}: {} resident warps, {} MSHR in flight, {} LSU queued, {} writebacks",
                sm.id,
                sm.warps.len(),
                sm.mshr_in_flight,
                sm.lsu_queued,
                sm.writebacks_pending
            )?;
            for cta in &sm.ctas {
                writeln!(
                    f,
                    "    {} kernel '{}' cta {}: {}/{} live warps at barrier",
                    cta.stream, cta.kernel, cta.cta_index, cta.at_barrier, cta.live_warps
                )?;
            }
            for w in &sm.warps {
                if w.stall == WarpStall::Exited {
                    continue;
                }
                writeln!(
                    f,
                    "    warp slot {} ({} cta {} warp {}): pc {}/{}, {} pending regs — {}",
                    w.slot,
                    w.stream,
                    w.cta_index,
                    w.warp_index,
                    w.pc,
                    w.trace_len,
                    w.pending_regs,
                    w.stall.label()
                )?;
            }
        }
        Ok(())
    }
}

/// Context attached to every hang-shaped failure (budget, deadlock,
/// SM panic): what the simulator knew at the moment it gave up.
#[derive(Debug)]
pub struct HangContext {
    /// Cycle the run stopped at.
    pub cycle: u64,
    /// Last cycle any SM issued an instruction.
    pub last_progress: u64,
    /// The full diagnostic snapshot.
    pub report: DeadlockReport,
    /// Stats accumulated up to the failure — everything a successful run
    /// would have reported, truncated at `cycle`.
    pub partial: SimResult,
    /// Path of the emergency checkpoint, when a checkpoint directory was
    /// configured and the write succeeded. `Simulation::resume` accepts it.
    pub emergency_checkpoint: Option<PathBuf>,
}

/// Whether a failure is worth retrying.
///
/// The service layer (`crisp-serve`) uses this to decide between
/// retry-from-checkpoint and a terminal failure: a *transient* fault is
/// environmental (an I/O error paging the trace, a checkpoint that would
/// not write, a worker thread killed mid-run) and the same job may well
/// succeed on a second attempt; a *permanent* fault is a property of the
/// job itself (a trace that deadlocks, a config that contradicts the
/// hardware, a budget the workload genuinely exceeds) and retrying only
/// burns another worker on the same verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultClass {
    /// Environmental: retrying the same job may succeed.
    Transient,
    /// Deterministic: retrying reproduces the same failure.
    Permanent,
}

impl FaultClass {
    /// Stable display name.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            FaultClass::Transient => "transient",
            FaultClass::Permanent => "permanent",
        }
    }
}

impl fmt::Display for FaultClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Why a simulation failed. See the module docs for the taxonomy;
/// `Display` renders the full diagnostic.
#[derive(Debug)]
pub enum SimError {
    /// The run crossed `GpuConfig::max_cycles`. Often just a budget set
    /// too low — `ctx.partial` holds the stats so far, and
    /// `ctx.emergency_checkpoint` (when written) resumes where it stopped.
    CycleBudgetExceeded {
        /// The configured budget.
        max_cycles: u64,
        /// Diagnostic context.
        ctx: Box<HangContext>,
    },
    /// No SM issued an instruction for `window` consecutive cycles while
    /// work remained — a genuine forward-progress failure (wedged barrier,
    /// unplaceable CTA, exhausted trace).
    Deadlock {
        /// The configured watchdog window, in cycles.
        window: u64,
        /// Diagnostic context.
        ctx: Box<HangContext>,
    },
    /// An SM panicked during its cycle (a corrupt trace run without
    /// pre-flight). The cycle loop caught the panic; every SM stays in the
    /// report.
    WorkerPanic {
        /// The panic payload, when it was a string.
        message: String,
        /// Diagnostic context.
        ctx: Box<HangContext>,
    },
    /// The run was cancelled cooperatively: an installed
    /// [`Interrupt`](crate::Interrupt) generation counter moved past the
    /// generation the run was installed against, and the cycle loop
    /// observed the stale generation at its next poll boundary. Not a
    /// fault — the job was asked to stop. Takes precedence over a watchdog
    /// or cycle-budget violation pending in the same window, so a job
    /// cancelled while stalled still reports `Cancelled`, not `Deadlock`.
    Cancelled {
        /// The generation observed (differs from the installed one).
        generation: u64,
        /// Diagnostic context: where the job stood when it stopped.
        ctx: Box<HangContext>,
    },
    /// The trace bundle failed pre-flight validation. Carries every defect
    /// found, each with its bundle location.
    InvalidTrace {
        /// All structural defects found.
        errors: Vec<TraceError>,
    },
    /// The configuration is inconsistent with itself or with the trace
    /// (partition spec vs SM count, impossible CTA resources, unwritable
    /// checkpoint directory, missing fast-forward marker, …).
    InvalidConfig {
        /// What is wrong.
        message: String,
    },
    /// The trace source failed mid-run while demand-paging a CTA: an I/O
    /// error on the underlying reader, or corruption detected when a blob
    /// was decoded. Also raised at build time when the trace input cannot
    /// be opened at all.
    TraceIo {
        /// Cycle the read was attempted at (0 when opening the input).
        cycle: u64,
        /// The underlying I/O error, rendered.
        message: String,
    },
    /// A checkpoint or profile artifact could not be written or read.
    CheckpointIo {
        /// Cycle the I/O was attempted at.
        cycle: u64,
        /// The path involved.
        path: PathBuf,
        /// The underlying I/O error.
        source: io::Error,
    },
}

impl SimError {
    /// The simulation cycle the error is anchored at, when it has one.
    /// Pre-flight errors (`InvalidTrace`, `InvalidConfig`) have none.
    #[must_use]
    pub fn cycle(&self) -> Option<u64> {
        match self {
            SimError::CycleBudgetExceeded { ctx, .. }
            | SimError::Deadlock { ctx, .. }
            | SimError::WorkerPanic { ctx, .. }
            | SimError::Cancelled { ctx, .. } => Some(ctx.cycle),
            SimError::CheckpointIo { cycle, .. } | SimError::TraceIo { cycle, .. } => Some(*cycle),
            SimError::InvalidTrace { .. } | SimError::InvalidConfig { .. } => None,
        }
    }

    /// The hang context, for the variants that carry one.
    #[must_use]
    pub fn hang_context(&self) -> Option<&HangContext> {
        match self {
            SimError::CycleBudgetExceeded { ctx, .. }
            | SimError::Deadlock { ctx, .. }
            | SimError::WorkerPanic { ctx, .. }
            | SimError::Cancelled { ctx, .. } => Some(ctx),
            _ => None,
        }
    }

    /// The rendered multi-line diagnostic (same text `Display` produces).
    #[must_use]
    pub fn diagnostic(&self) -> String {
        self.to_string()
    }

    /// Transient-vs-permanent classification, for retry policies.
    ///
    /// `None` for [`SimError::Cancelled`]: a cancellation is a request
    /// honored, not a fault — neither retrying nor blaming the job makes
    /// sense.
    ///
    /// * **Transient** — [`CheckpointIo`](SimError::CheckpointIo),
    ///   [`TraceIo`](SimError::TraceIo),
    ///   [`WorkerPanic`](SimError::WorkerPanic): the environment (disk,
    ///   reader, thread) failed around a job that may still be sound.
    /// * **Permanent** — [`InvalidTrace`](SimError::InvalidTrace),
    ///   [`InvalidConfig`](SimError::InvalidConfig),
    ///   [`Deadlock`](SimError::Deadlock),
    ///   [`CycleBudgetExceeded`](SimError::CycleBudgetExceeded): the
    ///   simulator is deterministic, so these reproduce on every retry.
    #[must_use]
    pub fn fault_class(&self) -> Option<FaultClass> {
        match self {
            SimError::Cancelled { .. } => None,
            SimError::CheckpointIo { .. }
            | SimError::TraceIo { .. }
            | SimError::WorkerPanic { .. } => Some(FaultClass::Transient),
            SimError::CycleBudgetExceeded { .. }
            | SimError::Deadlock { .. }
            | SimError::InvalidTrace { .. }
            | SimError::InvalidConfig { .. } => Some(FaultClass::Permanent),
        }
    }
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::CycleBudgetExceeded { max_cycles, ctx } => {
                writeln!(
                    f,
                    "exceeded max_cycles={max_cycles} at cycle {} — raise \
                     GpuConfig::max_cycles if the run is simply long",
                    ctx.cycle
                )?;
                hang_footer(f, ctx)
            }
            SimError::Deadlock { window, ctx } => {
                writeln!(
                    f,
                    "no instruction issued on any SM for {window} cycles \
                     (watchdog window) with work remaining",
                )?;
                write!(f, "{}", ctx.report)?;
                hang_footer(f, ctx)
            }
            SimError::WorkerPanic { message, ctx } => {
                writeln!(f, "an SM panicked during the cycle loop: {message}")?;
                hang_footer(f, ctx)
            }
            SimError::Cancelled { generation, ctx } => {
                writeln!(
                    f,
                    "cancelled at cycle {} (interrupt generation advanced to \
                     {generation})",
                    ctx.cycle
                )?;
                hang_footer(f, ctx)
            }
            SimError::InvalidTrace { errors } => {
                writeln!(
                    f,
                    "trace failed pre-flight validation ({} errors):",
                    errors.len()
                )?;
                for e in errors {
                    writeln!(f, "  {e}")?;
                }
                Ok(())
            }
            SimError::InvalidConfig { message } => {
                write!(f, "invalid configuration: {message}")
            }
            SimError::TraceIo { cycle, message } => {
                write!(f, "trace source failed at cycle {cycle}: {message}")
            }
            SimError::CheckpointIo {
                cycle,
                path,
                source,
            } => write!(
                f,
                "checkpoint/profile I/O failed at cycle {cycle} for {}: {source}",
                path.display()
            ),
        }
    }
}

fn hang_footer(f: &mut fmt::Formatter<'_>, ctx: &HangContext) -> fmt::Result {
    match &ctx.emergency_checkpoint {
        Some(p) => write!(
            f,
            "emergency checkpoint written to {} (load with Simulation::resume)",
            p.display()
        ),
        None => write!(
            f,
            "no emergency checkpoint (no checkpoint directory configured)"
        ),
    }
}

impl std::error::Error for SimError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SimError::CheckpointIo { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl From<Vec<TraceError>> for SimError {
    fn from(errors: Vec<TraceError>) -> Self {
        SimError::InvalidTrace { errors }
    }
}
