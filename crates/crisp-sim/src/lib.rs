//! Cycle-level concurrent GPU simulator for CRISP.
//!
//! Assembles the substrates — SM cores from `crisp-sm`, the memory hierarchy
//! from `crisp-mem` — into a whole GPU, replays [`crisp_trace::TraceBundle`]s
//! on it, and implements the GPU-sharing machinery that is the paper's core
//! contribution:
//!
//! * **Streams** execute concurrently; commands within a stream are ordered.
//! * The **CTA scheduler** ([`gpu::GpuSim`]) issues CTAs to SMs under a
//!   [`PartitionSpec`]:
//!   - `Greedy` — Accel-Sim's default: fill SMs from the oldest kernel.
//!   - `Mps` — coarse inter-SM partition, shared L2.
//!   - `Mig` — inter-SM partition plus L2 bank masks (full isolation).
//!   - `FgStatic` — fine-grained intra-SM partition via per-stream resource
//!     quotas (async-compute style).
//!   - `FgDynamic` — the quota ratio is chosen at runtime by
//!     **warped-slicer** (Xu et al., ISCA 2016): parallel SMs sample
//!     different ratios, and water-filling over the measured performance
//!     curves picks the split, re-evaluated at kernel launches and drawcalls.
//! * The L2 can independently run **TAP** set partitioning or **MiG** bank
//!   masking (see `crisp-mem`).
//! * Statistics are kept **per stream** (the paper extends Accel-Sim the
//!   same way), including occupancy timelines (Fig 13) and L2 composition
//!   snapshots (Figs 11, 15).
//!
//! The front door is [`Simulation::builder`]: pick a [`GpuConfig`], a
//! [`PartitionSpec`] and a [`Telemetry`] set, hand it a trace, and `run()`. `.trace(..)` accepts
//! anything convertible to a [`TraceInput`] — an in-memory bundle, a path
//! to a CRSP container, or a seekable reader. Container inputs **stream**:
//! each CTA's instructions are demand-paged through a [`TraceSource`] on
//! first dispatch and dropped when the CTA commits, so peak memory tracks
//! the in-flight window rather than the whole trace, with bit-identical
//! results either way ([`SimResult::trace`] reports the paging counters).
//!
//! Long simulations can **checkpoint and resume**: `.checkpoint_every(n)` /
//! `.checkpoint_to(dir)` write the full architectural state (warp contexts,
//! caches, MSHRs, queues, statistics, telemetry) into versioned `CKPT`
//! files via `crisp-ckpt`, and [`Simulation::resume`] restores a simulator
//! that continues bit-identically. For region-of-interest sampling, `.fast_forward_to(marker)` functionally drains the
//! commands before a marker — warming L1/L2/DRAM state without charging
//! cycles — then simulates the ROI in detail.

mod config;
mod error;
mod gpu;
mod interrupt;
mod policy;
mod sim;
mod slicer;
mod stats;

pub use config::GpuConfig;
pub use error::{DeadlockReport, FaultClass, HangContext, SimError, StreamFrontier};
pub use gpu::{
    GpuSim, KernelRecord, SimResult, StreamResult, CLEAR_STATS_MARKER, DEFAULT_INTERRUPT_INTERVAL,
    DEFAULT_WATCHDOG,
};
pub use interrupt::Interrupt;
pub use policy::{L2Policy, PartitionSpec, SmPartition};
pub use sim::{Simulation, SimulationBuilder, Telemetry};
pub use slicer::{SlicerConfig, WarpedSlicer};
pub use stats::{OccupancySample, PerStreamStats};

pub use crisp_analyze::{AnalysisConfig, LintLevel};
pub use crisp_mem::{MemConfig, TapConfig};
pub use crisp_obs as obs;
pub use crisp_obs::{Labels, MetricsSnapshot, TraceLog};
pub use crisp_sm::{
    CtaDiagnostics, ResourceQuota, SchedulerPolicy, SmConfig, SmDiagnostics, StallBreakdown,
    WarpDiagnostics, WarpStall,
};
pub use crisp_trace::{
    KernelId, KernelInfo, StreamId, StreamKind, TraceBundle, TraceError, TraceErrorKind,
    TraceInput, TraceSource, TraceStats,
};
