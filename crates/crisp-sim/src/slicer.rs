//! Warped-slicer dynamic intra-SM partitioning (Xu et al., ISCA 2016).
//!
//! "At the beginning of the execution, parallel SMs are used to measure the
//! performance impact of varying CTA counts for each kernel running
//! concurrently in an SM. Then, it uses the water-filling algorithm to find
//! the best partition ratio between two workloads." The partition is reset
//! at compute-kernel launches and at graphics drawcalls (paper Fig 12
//! methodology).

use std::io;

use crisp_ckpt::{bad, Reader, Wire, Writer};
use crisp_sm::{ResourceQuota, SmConfig};
use crisp_trace::StreamId;

/// Warped-slicer tuning knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct SlicerConfig {
    /// Length of the sampling window in cycles.
    pub sample_cycles: u64,
    /// Candidate quota fractions for the first stream, as (num, denom);
    /// the second stream gets the complement.
    pub ratios: Vec<(u32, u32)>,
}

impl Default for SlicerConfig {
    fn default() -> Self {
        SlicerConfig {
            sample_cycles: 10_000,
            ratios: (1..8).map(|n| (n, 8)).collect(),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    /// Measuring candidate ratios; ends at the stored cycle.
    Sampling { until: u64 },
    /// A ratio has been chosen and applies to every SM.
    Applied,
}

/// The runtime controller.
#[derive(Debug, Clone)]
pub struct WarpedSlicer {
    cfg: SlicerConfig,
    streams: [StreamId; 2],
    state: State,
    chosen: (u32, u32),
    /// (decision cycle, chosen fraction for stream 0) — Figure 13 material.
    history: Vec<(u64, f64)>,
    resets: u64,
}

impl WarpedSlicer {
    /// A slicer partitioning between `a` (graphics, by Fig 12's convention)
    /// and `b`; starts in sampling mode at cycle 0.
    pub fn new(cfg: SlicerConfig, a: StreamId, b: StreamId) -> Self {
        assert!(!cfg.ratios.is_empty(), "need at least one candidate ratio");
        let until = cfg.sample_cycles;
        WarpedSlicer {
            cfg,
            streams: [a, b],
            state: State::Sampling { until },
            chosen: (1, 2),
            history: Vec::new(),
            resets: 0,
        }
    }

    /// The two streams being partitioned.
    pub fn streams(&self) -> [StreamId; 2] {
        self.streams
    }

    /// Whether the controller is currently sampling.
    pub fn is_sampling(&self) -> bool {
        matches!(self.state, State::Sampling { .. })
    }

    /// Number of resets (kernel-launch / drawcall boundaries) seen.
    pub fn resets(&self) -> u64 {
        self.resets
    }

    /// Decision history: (cycle, fraction of resources given to stream 0).
    pub fn history(&self) -> &[(u64, f64)] {
        &self.history
    }

    /// The currently-chosen fraction for stream 0.
    pub fn chosen_fraction(&self) -> f64 {
        self.chosen.0 as f64 / self.chosen.1 as f64
    }

    /// A new kernel launch or drawcall: restart sampling.
    pub fn on_reset(&mut self, now: u64) {
        self.state = State::Sampling {
            until: now + self.cfg.sample_cycles,
        };
        self.resets += 1;
    }

    /// The quota `stream` gets on SM `sm_id` right now.
    ///
    /// During sampling, SM `i` trials candidate `i % candidates`; afterwards
    /// every SM uses the chosen ratio. Streams outside the managed pair are
    /// unlimited.
    pub fn quota_for(&self, sm_id: usize, stream: StreamId, sm_cfg: &SmConfig) -> ResourceQuota {
        let side = if stream == self.streams[0] {
            0
        } else if stream == self.streams[1] {
            1
        } else {
            return ResourceQuota::unlimited();
        };
        let (num, denom) = match self.state {
            State::Sampling { .. } => self.cfg.ratios[sm_id % self.cfg.ratios.len()],
            State::Applied => self.chosen,
        };
        if side == 0 {
            ResourceQuota::fraction(sm_cfg, num, denom)
        } else {
            ResourceQuota::fraction(sm_cfg, denom - num, denom)
        }
    }

    /// If the sampling window has elapsed, run water-filling over the
    /// measured per-SM instruction counts and apply the best ratio.
    ///
    /// `issued(sm, stream)` must return the instructions `stream` issued on
    /// `sm` during the window. Returns `true` when a decision was made.
    pub fn maybe_decide(
        &mut self,
        now: u64,
        n_sms: usize,
        mut issued: impl FnMut(usize, StreamId) -> u64,
    ) -> bool {
        let State::Sampling { until } = self.state else {
            return false;
        };
        if now < until {
            return false;
        }
        let k = self.cfg.ratios.len();
        // Aggregate per candidate: SMs trialling the same ratio pool their
        // counts (groups may have unequal size; normalise by group size).
        let mut thr = vec![[0f64; 2]; k];
        let mut group = vec![0f64; k];
        for sm in 0..n_sms {
            let c = sm % k;
            group[c] += 1.0;
            thr[c][0] += issued(sm, self.streams[0]) as f64;
            thr[c][1] += issued(sm, self.streams[1]) as f64;
        }
        for c in 0..k {
            if group[c] > 0.0 {
                thr[c][0] /= group[c];
                thr[c][1] /= group[c];
            }
        }
        // Water-filling: maximise the sum of per-stream throughputs,
        // each normalised by its best point across candidates.
        let max0 = thr.iter().map(|t| t[0]).fold(0.0, f64::max).max(1.0);
        let max1 = thr.iter().map(|t| t[1]).fold(0.0, f64::max).max(1.0);
        let best = (0..k)
            .max_by(|&a, &b| {
                let sa = thr[a][0] / max0 + thr[a][1] / max1;
                let sb = thr[b][0] / max0 + thr[b][1] / max1;
                sa.partial_cmp(&sb).unwrap_or(std::cmp::Ordering::Equal)
            })
            .expect("at least one candidate");
        self.chosen = self.cfg.ratios[best];
        self.history.push((now, self.chosen_fraction()));
        self.state = State::Applied;
        true
    }
}

crisp_ckpt::wire_struct!(SlicerConfig {
    sample_cycles,
    ratios
} check = SlicerConfig::check_restored);

impl SlicerConfig {
    /// `ResourceQuota::fraction` divides by `denom` and the slicer computes
    /// `denom - num` for the complement side — both panic paths on corrupt
    /// input.
    fn check_restored(&self) -> io::Result<()> {
        match self
            .ratios
            .iter()
            .find(|&&(num, denom)| denom == 0 || num > denom)
        {
            Some((num, denom)) => Err(bad(format!("invalid slicer ratio {num}/{denom}"))),
            None => Ok(()),
        }
    }
}

impl Wire for State {
    fn put<W: io::Write>(&self, w: &mut Writer<W>) -> io::Result<()> {
        match *self {
            State::Sampling { until } => w.put(&(0u8, until)),
            State::Applied => w.put(&1u8),
        }
    }

    fn get<R: io::Read>(r: &mut Reader<R>) -> io::Result<Self> {
        match r.get::<u8>()? {
            0 => Ok(State::Sampling { until: r.get()? }),
            1 => Ok(State::Applied),
            t => Err(bad(format!("unknown slicer state tag {t}"))),
        }
    }
}

crisp_ckpt::wire_struct!(WarpedSlicer {
    cfg,
    streams,
    state,
    chosen,
    history,
    resets
} check = WarpedSlicer::check_restored);

impl WarpedSlicer {
    fn check_restored(&self) -> io::Result<()> {
        if self.cfg.ratios.is_empty() {
            return Err(bad("slicer checkpoint has no candidate ratios"));
        }
        let (num, denom) = self.chosen;
        if denom == 0 || num > denom {
            return Err(bad(format!("invalid chosen slicer ratio {num}/{denom}")));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: StreamId = StreamId(0);
    const B: StreamId = StreamId(1);

    fn slicer() -> WarpedSlicer {
        WarpedSlicer::new(SlicerConfig::default(), A, B)
    }

    #[test]
    fn sampling_assigns_different_ratios_to_different_sms() {
        let s = slicer();
        let cfg = SmConfig::default();
        assert!(s.is_sampling());
        let q0 = s.quota_for(0, A, &cfg); // ratio 1/8
        let q6 = s.quota_for(6, A, &cfg); // ratio 7/8
        assert!(q0.warps < q6.warps);
        // Complements for stream B.
        let q0b = s.quota_for(0, B, &cfg); // 7/8
        assert_eq!(q0b.warps, q6.warps);
    }

    #[test]
    fn unmanaged_stream_is_unlimited() {
        let s = slicer();
        let cfg = SmConfig::default();
        assert_eq!(
            s.quota_for(0, StreamId(42), &cfg),
            ResourceQuota::unlimited()
        );
    }

    #[test]
    fn decision_waits_for_the_window() {
        let mut s = slicer();
        assert!(!s.maybe_decide(10, 14, |_, _| 0), "window not elapsed");
        assert!(s.is_sampling());
    }

    #[test]
    fn water_filling_picks_the_joint_best_ratio() {
        let mut s = slicer();
        // Stream A scales with its share; stream B is insensitive
        // (compute-bound with few warps needed). Best joint = A-heavy.
        let decided = s.maybe_decide(10_000, 14, |sm, stream| {
            let c = sm % 7; // candidate index == ratio (c+1)/8 for A
            if stream == A {
                ((c + 1) * 100) as u64
            } else {
                700 // flat: B does not benefit from more resources
            }
        });
        assert!(decided);
        assert!(!s.is_sampling());
        assert!(
            s.chosen_fraction() > 0.8,
            "A should win most of the SM: {}",
            s.chosen_fraction()
        );
        assert_eq!(s.history().len(), 1);
    }

    #[test]
    fn balanced_scaling_picks_the_middle() {
        let mut s = slicer();
        // Both streams scale with diminishing returns (sqrt of their
        // share) — the classic case where water-filling lands in the
        // middle: sqrt(4/8)+sqrt(4/8) beats any lopsided split.
        let decided = s.maybe_decide(10_000, 14, |sm, stream| {
            let c = (sm % 7) as f64;
            let v = if stream == A {
                (c + 1.0).sqrt()
            } else {
                (7.0 - c).sqrt()
            };
            (v * 1000.0) as u64
        });
        assert!(decided);
        let f = s.chosen_fraction();
        assert!((f - 0.5).abs() < 0.15, "middle ratio expected, got {f}");
    }

    #[test]
    fn checkpoint_roundtrip_preserves_slicer() {
        let mut s = slicer();
        let _ = s.maybe_decide(10_000, 14, |sm, _| (sm as u64 + 1) * 10);
        s.on_reset(20_000);
        let mut buf = Vec::new();
        let mut w = Writer::new(&mut buf);
        w.put(&s).unwrap();
        let mut r = Reader::new(buf.as_slice());
        let back = r.get::<WarpedSlicer>().unwrap();
        assert_eq!(back.streams(), s.streams());
        assert_eq!(back.is_sampling(), s.is_sampling());
        assert_eq!(back.chosen_fraction(), s.chosen_fraction());
        assert_eq!(back.history(), s.history());
        assert_eq!(back.resets(), s.resets());
    }

    #[test]
    fn checkpoint_restore_rejects_zero_denominator() {
        // Hand-craft a config with a zero denominator — `fraction` would
        // divide by it at quota time.
        let cfg = SlicerConfig {
            sample_cycles: 100,
            ratios: vec![(1, 0)],
        };
        let mut buf = Vec::new();
        let mut w = Writer::new(&mut buf);
        w.put(&cfg).unwrap();
        let mut r = Reader::new(buf.as_slice());
        let err = r.get::<SlicerConfig>().unwrap_err();
        assert!(err.to_string().contains("ratio"), "{err}");
    }

    #[test]
    fn reset_reenters_sampling() {
        let mut s = slicer();
        let _ = s.maybe_decide(10_000, 14, |_, _| 1);
        assert!(!s.is_sampling());
        s.on_reset(20_000);
        assert!(s.is_sampling());
        assert_eq!(s.resets(), 1);
        assert!(
            !s.maybe_decide(25_000, 14, |_, _| 1),
            "new window runs to 30k"
        );
        assert!(s.maybe_decide(30_000, 14, |_, _| 1));
    }
}
