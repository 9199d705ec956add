//! Per-stream simulation statistics.
//!
//! Accel-Sim aggregates statistics across streams, which is "misleading when
//! concurrent execution is enabled"; CRISP collects them individually per
//! stream (paper Section III-A). This module also records the occupancy
//! timeline behind Figure 13.

use std::collections::BTreeMap;

use crisp_trace::StreamId;

/// One occupancy sample: resident-warp fraction per stream at a cycle.
#[derive(Debug, Clone, PartialEq)]
pub struct OccupancySample {
    /// Sample cycle.
    pub cycle: u64,
    /// Mean warp occupancy per stream over all SMs, in [0, 1].
    pub by_stream: BTreeMap<StreamId, f64>,
}

impl OccupancySample {
    /// Total occupancy across streams.
    pub fn total(&self) -> f64 {
        self.by_stream.values().sum()
    }
}

/// Counters for one stream.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PerStreamStats {
    /// Cycle the stream's first CTA was issued.
    pub start_cycle: u64,
    /// Cycle the stream's last command completed.
    pub finish_cycle: u64,
    /// Warp instructions issued.
    pub instructions: u64,
    /// CTAs committed.
    pub ctas: u64,
    /// Kernels completed.
    pub kernels: u64,
}

impl PerStreamStats {
    /// Wall-clock cycles from first issue to completion.
    pub fn elapsed(&self) -> u64 {
        self.finish_cycle.saturating_sub(self.start_cycle)
    }

    /// Instructions per cycle over the stream's lifetime.
    pub fn ipc(&self) -> f64 {
        let e = self.elapsed();
        if e == 0 {
            0.0
        } else {
            self.instructions as f64 / e as f64
        }
    }
}

crisp_ckpt::wire_struct!(OccupancySample { cycle, by_stream });
crisp_ckpt::wire_struct!(PerStreamStats {
    start_cycle,
    finish_cycle,
    instructions,
    ctas,
    kernels
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn elapsed_and_ipc() {
        let s = PerStreamStats {
            start_cycle: 100,
            finish_cycle: 1100,
            instructions: 5000,
            ctas: 10,
            kernels: 2,
        };
        assert_eq!(s.elapsed(), 1000);
        assert!((s.ipc() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn empty_stream_has_zero_ipc() {
        assert_eq!(PerStreamStats::default().ipc(), 0.0);
    }

    #[test]
    fn occupancy_sample_totals() {
        let mut by_stream = BTreeMap::new();
        by_stream.insert(StreamId(0), 0.4);
        by_stream.insert(StreamId(1), 0.25);
        let s = OccupancySample {
            cycle: 10,
            by_stream,
        };
        assert!((s.total() - 0.65).abs() < 1e-12);
    }
}
