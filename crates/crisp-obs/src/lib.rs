//! Observability substrate for CRISP: a unified metric registry,
//! cycle-accurate span tracing, and exporters.
//!
//! The simulator's case studies (LoD, L2 composition, warped-slicer, TAP)
//! all hinge on *attributing* cycles and cache traffic to streams, kernels,
//! and pipeline stages. This crate is the common substrate those
//! attributions flow through:
//!
//! * [`MetricRegistry`] — hierarchical counters / gauges / histograms keyed
//!   by sorted [`Labels`] (`sm`, `stream`, `kernel`, `unit`, …), frozen into
//!   an immutable [`MetricsSnapshot`] at end of run.
//! * [`TraceRecorder`] / [`TraceLog`] — a cycle-stamped span and event
//!   recorder. Spans that originate on a specific SM are buffered per SM and
//!   merged in **ascending SM-id order**, so the exported timeline is
//!   bit-identical from run to run.
//! * Exporters — [`chrome::write_chrome_trace`] (Chrome Trace Event Format
//!   JSON, loadable in Perfetto or `chrome://tracing`),
//!   [`csv::write_counters_csv`] / [`csv::write_metrics_csv`] time-series,
//!   and [`report::profile_report`], a human-readable end-of-run profile.
//! * [`json::validate`] — a minimal JSON well-formedness checker used by the
//!   `profile` bench bin and CI to validate emitted traces without external
//!   crates.
//!
//! The crate is deliberately free of dependencies (std only) and knows
//! nothing about the simulator: `crisp-sim` feeds it plain integers. That
//! keeps the recording hot path trivially cheap and lets any layer of the
//! stack (SM, LSU, memory system, GPU loop, bench bins) share one registry.
//!
//! A second clock domain lives in [`host`]: wall-clock self-profiling of
//! the simulator's *own* execution (phase attribution, heartbeat throughput, and — behind the off-by-default `alloc-profile`
//! feature — per-phase allocation accounting via the `alloc` module).

#[cfg(feature = "alloc-profile")]
pub mod alloc;
pub mod chrome;
pub mod csv;
pub mod host;
pub mod json;
pub mod registry;
pub mod report;
pub mod span;

pub use host::{Heartbeat, HostPhase, HostProfile, HostProfiler};
pub use registry::{Histogram, Labels, MetricRegistry, MetricValue, MetricsSnapshot};
pub use span::{CounterSample, InstantEvent, SpanEvent, TraceLog, TraceRecorder, Track};
