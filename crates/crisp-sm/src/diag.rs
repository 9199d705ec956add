//! Point-in-time diagnostic snapshots of an SM's scheduling state.
//!
//! When the simulator's forward-progress watchdog fires, it needs to explain
//! *why* nothing retires: which warps are parked at a barrier, which wait on
//! the scoreboard, which CTA is pinned by a warp whose trace ran out without
//! an `Exit`. [`Sm::diagnostics`](crate::Sm::diagnostics) captures exactly
//! that — a cheap, allocation-light snapshot of resident CTAs and warps plus
//! memory-side occupancy — which `crisp-sim` assembles into a deadlock
//! report. The snapshot is read-only and deterministic: it depends only on
//! architectural state.

use crisp_trace::{StreamId, NUM_BARRIERS};

/// Why a resident warp is not retiring instructions right now.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WarpStall {
    /// The warp has an issuable instruction; it is merely waiting for a
    /// scheduler slot. Not a hazard.
    Issuable,
    /// Parked at a CTA-wide barrier, waiting for the other live warps.
    Barrier,
    /// The next instruction's operands wait on an in-flight ALU writeback.
    Scoreboard,
    /// The next instruction's operands wait on an outstanding memory value.
    MemPending,
    /// The warp's trace is exhausted but never executed an `Exit`: it can
    /// never retire, its CTA can never commit, and any barrier in that CTA
    /// waits forever. This is the canonical deadlock culprit; the pre-flight
    /// validator rejects such traces up front.
    TraceExhausted,
    /// The warp ran to completion and freed its slot's resources.
    Exited,
}

impl WarpStall {
    /// Short human-readable label used in deadlock reports.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            WarpStall::Issuable => "issuable",
            WarpStall::Barrier => "at barrier",
            WarpStall::Scoreboard => "scoreboard wait",
            WarpStall::MemPending => "memory pending",
            WarpStall::TraceExhausted => "trace exhausted without Exit",
            WarpStall::Exited => "exited",
        }
    }
}

/// Snapshot of one resident warp.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WarpDiagnostics {
    /// Warp slot index on the SM.
    pub slot: usize,
    /// Stream the warp's kernel belongs to.
    pub stream: StreamId,
    /// CTA index within the kernel's grid.
    pub cta_index: usize,
    /// Warp index within the CTA.
    pub warp_index: usize,
    /// Next dynamic instruction index.
    pub pc: usize,
    /// Total instructions in this warp's trace.
    pub trace_len: usize,
    /// Why the warp is not retiring.
    pub stall: WarpStall,
    /// Registers with an outstanding writeback (ALU or memory).
    pub pending_regs: u32,
}

/// Snapshot of one resident CTA.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CtaDiagnostics {
    /// Stream that launched the CTA.
    pub stream: StreamId,
    /// Kernel name.
    pub kernel: String,
    /// CTA index within the kernel's grid.
    pub cta_index: usize,
    /// Warps still resident (not yet exited).
    pub live_warps: usize,
    /// Warps currently parked at *any* barrier slot.
    pub at_barrier: usize,
    /// Warps parked at each named barrier slot (`arrivals[id]` wait at
    /// `bar.sync id`).
    pub arrivals: [u16; NUM_BARRIERS],
}

impl CtaDiagnostics {
    /// True when some warps wait at a barrier that can never release —
    /// no slot's arrival count can reach `live_warps` without more
    /// arrivals. The caller pairs this with per-warp state to name the
    /// culprit. Covers both wedge shapes: a sibling that can never arrive
    /// (trace exhausted), and warps split across *different* barrier slots
    /// (every warp parked, yet no slot complete).
    #[must_use]
    pub fn barrier_waiting(&self) -> bool {
        self.at_barrier > 0
            && self
                .arrivals
                .iter()
                .all(|&n| (n as usize) < self.live_warps)
    }

    /// True when every live warp is parked but spread across more than one
    /// barrier slot — the divergent-slot deadlock named barriers make
    /// possible (and the static prover rejects at admission).
    #[must_use]
    pub fn split_barrier_wedge(&self) -> bool {
        self.at_barrier == self.live_warps
            && self.live_warps > 0
            && self.arrivals.iter().filter(|&&n| n > 0).count() > 1
    }
}

/// Snapshot of one SM's scheduling and memory-side occupancy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SmDiagnostics {
    /// SM id.
    pub id: usize,
    /// Resident CTAs, in slot order.
    pub ctas: Vec<CtaDiagnostics>,
    /// Resident (non-exited) warps, in slot order.
    pub warps: Vec<WarpDiagnostics>,
    /// Memory requests outstanding in the SM's MSHRs.
    pub mshr_in_flight: usize,
    /// Sectors queued in the load-store unit.
    pub lsu_queued: usize,
    /// ALU writebacks still scheduled.
    pub writebacks_pending: usize,
}

impl SmDiagnostics {
    /// True when the SM holds no work at all.
    #[must_use]
    pub fn idle(&self) -> bool {
        self.warps.is_empty()
            && self.mshr_in_flight == 0
            && self.lsu_queued == 0
            && self.writebacks_pending == 0
    }
}
