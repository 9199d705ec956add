//! Multi-tenant **simulation-as-a-service** for CRISP.
//!
//! The paper's simulator answers one question per process run. This crate
//! turns it into a long-lived service: a daemon that accepts trace
//! bundles and scene specs as **jobs** over a length-prefixed TCP
//! protocol, admits them through the simulation builder's own trace
//! pre-flight ([`crisp_sim::SimulationBuilder::check`]: validation,
//! placement, `crisp-analyze` lint), and executes them on a fixed worker
//! pool under per-tenant quotas and priorities.
//!
//! Three pieces of existing machinery become service features:
//!
//! * **Cancellation** is the lock-free generation counter
//!   ([`crisp_sim::Interrupt`]): cancel bumps a shared atomic, and the
//!   simulator's cycle loop observes the stale generation at the next
//!   interrupt-interval boundary — no locks near the hot loop, and a
//!   distinct [`crisp_sim::SimError::Cancelled`] that takes precedence
//!   over watchdog and budget faults.
//! * **Preemption** is `crisp-ckpt`: when a higher-priority job arrives
//!   on a saturated pool, the lowest-priority victim checkpoints at its
//!   next slice boundary, parks, and later resumes — possibly on a
//!   different worker — with bit-identical results.
//! * **Telemetry** is `crisp-obs`: the daemon keeps a service-level
//!   [`crisp_obs::MetricRegistry`] (`serve/*` metrics) and exports it as
//!   schema-versioned JSON via the `Metrics` request.
//!
//! Graceful shutdown drains the pool through emergency checkpoints and
//! persists the queue into a spool manifest; a daemon restarted over the
//! same spool resumes the parked jobs where they stopped.
//!
//! On top of that sits a **supervision layer** (DESIGN.md §2.4.9): jobs
//! run under `catch_unwind` with worker respawn, wall-clock deadlines
//! park-and-fail runaways, transient failures retry from the last
//! checkpoint with exponential backoff, per-tenant circuit breakers shed
//! pathological workloads at admission, and all spool I/O goes through an
//! injectable [`SpoolIo`] trait with checksummed manifests, quarantine of
//! corrupt entries, and `ENOSPC` degrading the daemon to in-memory-only
//! operation instead of crashing it.
//!
//! ## Quickstart
//!
//! ```no_run
//! use crisp_serve::{Client, JobSpec, Payload, GpuPreset, Server, ServeConfig};
//!
//! let server = Server::start(ServeConfig::default()).unwrap();
//! let mut client = Client::connect(server.addr()).unwrap();
//! let job = client.submit(&JobSpec {
//!     tenant: "render".into(),
//!     name: "sponza".into(),
//!     priority: 5,
//!     payload: Payload::Scene { kind: "render".into(), factor_milli: 1000 },
//!     gpu: GpuPreset::TestTiny,
//!     max_cycles: 0,
//!     telemetry: false,
//!     deadline_ms: 0,
//! }).unwrap();
//! let outcome = client.wait_result(job, 0).unwrap();
//! println!("{}", outcome.summary);
//! ```

pub mod client;
pub mod metrics;
pub mod proto;
pub mod server;
pub mod spool;
pub mod supervise;

pub use client::{Client, ClientError};
pub use metrics::{metrics_json, METRICS_SCHEMA_VERSION};
pub use proto::{
    ErrorCode, FailureClass, GpuPreset, JobSpec, JobState, JobStatus, Outcome, Payload, ProtoError,
    Request, Response, MAX_FRAME,
};
pub use server::{ServeConfig, Server, ServerHandle};
pub use spool::{DiskSpool, FaultSpool, SpoolHandle, SpoolIo};
pub use supervise::{BreakerPolicy, FaultPlan, RetryPolicy};
