//! Execution-unit pipeline groups.
//!
//! Each opcode class maps to a group of identical pipelines. A pipeline
//! accepts one warp instruction per initiation interval; the instruction's
//! result writes back `latency` cycles later. Contention on these groups is
//! what the warped-slicer case study surfaces ("running concurrently with
//! the graphics workload causes FP bottlenecks" for HOLO).

use std::io;

use crisp_ckpt::bad;
use crisp_trace::Op;

use crate::config::SmConfig;

/// Per-class pipeline availability for one SM.
#[derive(Debug, Clone)]
pub struct ExecUnits {
    fp: Vec<u64>,
    int: Vec<u64>,
    sfu: Vec<u64>,
    tensor: Vec<u64>,
}

impl ExecUnits {
    /// Pipelines per the SM configuration, all idle.
    pub fn new(cfg: &SmConfig) -> Self {
        ExecUnits {
            fp: vec![0; cfg.fp_units as usize],
            int: vec![0; cfg.int_units as usize],
            sfu: vec![0; cfg.sfu_units as usize],
            tensor: vec![0; cfg.tensor_units as usize],
        }
    }

    fn group_mut(&mut self, op: Op) -> Option<&mut Vec<u64>> {
        match op {
            Op::IntAlu | Op::Branch => Some(&mut self.int),
            Op::FpAlu | Op::FpMul | Op::FpFma => Some(&mut self.fp),
            Op::Sfu => Some(&mut self.sfu),
            Op::Tensor => Some(&mut self.tensor),
            _ => None,
        }
    }

    /// Try to start `op` at cycle `now`; returns `false` if every pipeline
    /// in the class is still within its initiation interval. Opcodes without
    /// a pipeline group (memory, barrier, exit) always succeed.
    pub fn try_issue(&mut self, op: Op, now: u64, cfg: &SmConfig) -> bool {
        let (_lat, ii) = cfg.timing(op);
        match self.group_mut(op) {
            None => true,
            Some(group) => match group.iter_mut().find(|next_free| **next_free <= now) {
                Some(next_free) => {
                    *next_free = now + ii;
                    true
                }
                None => false,
            },
        }
    }

    /// Number of busy pipelines in `op`'s class at `now` (0 for classes
    /// without pipelines).
    pub fn busy_count(&self, op: Op, now: u64) -> usize {
        let group = match op {
            Op::IntAlu | Op::Branch => &self.int,
            Op::FpAlu | Op::FpMul | Op::FpFma => &self.fp,
            Op::Sfu => &self.sfu,
            Op::Tensor => &self.tensor,
            _ => return 0,
        };
        group.iter().filter(|&&t| t > now).count()
    }

    /// The earliest cycle after `now` at which a busy pipeline of any class
    /// frees, or `None` when every pipeline is idle.
    pub(crate) fn next_free_after(&self, now: u64) -> Option<u64> {
        [&self.fp, &self.int, &self.sfu, &self.tensor]
            .into_iter()
            .flatten()
            .copied()
            .filter(|&t| t > now)
            .min()
    }
}

crisp_ckpt::wire_struct!(ExecUnits {
    fp,
    int,
    sfu,
    tensor
});

impl ExecUnits {
    /// Reject restored pipeline groups whose sizes disagree with `cfg`.
    pub(crate) fn check_restored(&self, cfg: &SmConfig) -> io::Result<()> {
        for (group, expected) in [
            (&self.fp, cfg.fp_units),
            (&self.int, cfg.int_units),
            (&self.sfu, cfg.sfu_units),
            (&self.tensor, cfg.tensor_units),
        ] {
            if group.len() != expected as usize {
                return Err(bad(format!(
                    "exec-unit group has {} pipes, config implies {expected}",
                    group.len()
                )));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fp_group_saturates_at_unit_count() {
        let cfg = SmConfig::default();
        let mut u = ExecUnits::new(&cfg);
        for _ in 0..cfg.fp_units {
            assert!(u.try_issue(Op::FpFma, 0, &cfg));
        }
        assert!(
            !u.try_issue(Op::FpFma, 0, &cfg),
            "all 4 FP pipes taken this cycle"
        );
        assert!(
            u.try_issue(Op::FpFma, 1, &cfg),
            "II=1 frees them next cycle"
        );
    }

    #[test]
    fn sfu_initiation_interval_blocks_longer() {
        let cfg = SmConfig::default();
        let mut u = ExecUnits::new(&cfg);
        for _ in 0..cfg.sfu_units {
            assert!(u.try_issue(Op::Sfu, 0, &cfg));
        }
        assert!(!u.try_issue(Op::Sfu, 3, &cfg), "II=4 still busy at cycle 3");
        assert!(u.try_issue(Op::Sfu, 4, &cfg));
    }

    #[test]
    fn classes_do_not_interfere() {
        let cfg = SmConfig::default();
        let mut u = ExecUnits::new(&cfg);
        for _ in 0..cfg.fp_units {
            let _ = u.try_issue(Op::FpFma, 0, &cfg);
        }
        assert!(
            u.try_issue(Op::IntAlu, 0, &cfg),
            "INT pipes unaffected by FP pressure"
        );
        assert!(u.try_issue(Op::Tensor, 0, &cfg));
    }

    #[test]
    fn memory_and_control_never_block_on_units() {
        let cfg = SmConfig::default();
        let mut u = ExecUnits::new(&cfg);
        for _ in 0..100 {
            assert!(u.try_issue(Op::Ld(crisp_trace::Space::Global), 0, &cfg));
            assert!(u.try_issue(Op::Bar(0), 0, &cfg));
        }
    }

    #[test]
    fn busy_count_reflects_in_flight_iis() {
        let cfg = SmConfig::default();
        let mut u = ExecUnits::new(&cfg);
        let _ = u.try_issue(Op::Sfu, 10, &cfg);
        let _ = u.try_issue(Op::Sfu, 10, &cfg);
        assert_eq!(u.busy_count(Op::Sfu, 10), 2);
        assert_eq!(u.busy_count(Op::Sfu, 14), 0);
    }

    #[test]
    fn next_free_after_finds_the_earliest_busy_pipe() {
        let cfg = SmConfig::default();
        let mut u = ExecUnits::new(&cfg);
        assert_eq!(u.next_free_after(0), None, "all idle");
        let _ = u.try_issue(Op::Sfu, 10, &cfg); // II 4 → frees at 14
        let _ = u.try_issue(Op::FpFma, 11, &cfg); // II 1 → frees at 12
        assert_eq!(u.next_free_after(11), Some(12));
        assert_eq!(u.next_free_after(12), Some(14), "a freed pipe is not busy");
        assert_eq!(u.next_free_after(14), None);
    }
}
