//! Memory-system substrate for the CRISP GPU simulator.
//!
//! Models the cached memory hierarchy of a contemporary NVIDIA GPU at the
//! fidelity Accel-Sim uses: per-SM **unified L1 data caches** (texture
//! requests share the L1 — CRISP removes the dedicated texture cache, paper
//! Section III), a crossbar interconnect, a **banked L2** with address
//! interleaving, and bandwidth-limited DRAM partitions.
//!
//! On top of the baseline hierarchy this crate implements the partitioning
//! machinery the paper's concurrency case studies need:
//!
//! * **MiG bank masking** — each stream sees only a subset of L2 banks /
//!   memory partitions ([`BankMap`]).
//! * **TAP set partitioning** — all banks shared, but the sets inside each
//!   bank are divided between streams by a TLP-aware utility controller
//!   ([`TapController`], after Lee & Kim, HPCA 2012).
//!
//! Every structure keeps statistics **per stream and per data class**
//! (texture / pipeline / compute), which is what the L2-composition case
//! studies (paper Figures 11 and 15) report.
//!
//! The crate is deliberately free of SM knowledge: requests arrive as
//! [`MemReq`]s tagged with an opaque [`ReqToken`]; completions come back from
//! [`MemSystem::tick`]. `crisp-sm` turns warp instructions into requests and
//! `crisp-sim` drives the clock.
//!
//! The L1s and the L2 banks are one type, an MSHR-fronted sector cache,
//! so the sector read protocol exists once.
//!
//! The hierarchy is split at the SM boundary: each SM owns an
//! [`SmMemPort`] (private L1 + an egress queue), while the shared
//! [`MemSystem`] (crossbar, banked L2, DRAM) drains every port's egress in
//! ascending SM-id order each tick. That drain order is the request order
//! the crossbar sees.

mod cache;
mod dram;
mod l2;
mod mshr;
mod partition;
mod port;
mod req;
mod stats;
mod system;
mod xbar;

pub use cache::{AccessKind, AccessOutcome, CacheCore, CacheGeometry, Replacement};
pub use dram::{Dram, DRAM_BANKS, ROW_BYTES};
pub use partition::{BankMap, SetPartition, TapConfig, TapController};
pub use port::SmMemPort;
pub use req::{Completion, MemReq, ReqToken, SECTORS_PER_LINE};
pub use stats::{ClassStreamCounters, CompositionSnapshot, MemStats};
pub use system::{L1AccessResult, MemConfig, MemSystem, TickTimes};

pub use crisp_trace::{DataClass, StreamId, LINE_BYTES, SECTOR_BYTES};
