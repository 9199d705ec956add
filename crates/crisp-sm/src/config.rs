//! SM configuration: resource caps and execution-pipe timing.

use std::io;

use crisp_ckpt::{bad, Reader, Wire, Writer};
use crisp_trace::{Op, Space};

/// Warp-scheduler selection policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulerPolicy {
    /// Greedy-then-oldest: keep issuing from the same warp until it
    /// stalls, then fall back to the oldest ready warp (Accel-Sim's
    /// default, best for locality).
    Gto,
    /// Loose round-robin: rotate through ready warps, spreading issue
    /// bandwidth evenly (better fairness, worse intra-warp locality).
    Lrr,
}

/// Static configuration of one SM.
///
/// Defaults follow the paper's Table II (shared by the Jetson Orin and the
/// RTX 3070 rows): 64 warps, 4 schedulers, 65536 registers, 4 units of each
/// execution class.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SmConfig {
    /// Maximum resident warps.
    pub max_warps: u32,
    /// Maximum resident threads (warp slots × 32 unless reduced).
    pub max_threads: u32,
    /// Maximum resident CTAs.
    pub max_ctas: u32,
    /// Architectural registers in the register file.
    pub max_regs: u32,
    /// Shared-memory capacity in bytes (the L1 carve-out).
    pub max_smem: u32,
    /// Warp schedulers (issue ports) per SM.
    pub schedulers: u32,
    /// FP32 pipelines.
    pub fp_units: u32,
    /// Integer pipelines.
    pub int_units: u32,
    /// Special-function pipelines.
    pub sfu_units: u32,
    /// Tensor-core pipelines.
    pub tensor_units: u32,
    /// Sector accesses the LSU can present to the L1 per cycle
    /// (4 × 32 B = 128 B/cycle, the Ampere L1 port width).
    pub l1_ports: u32,
    /// Pending memory instructions the LSU queue holds.
    pub lsu_queue_depth: usize,
    /// Shared-memory access latency in cycles.
    pub smem_latency: u64,
    /// Warp-scheduler policy.
    pub scheduler: SchedulerPolicy,
}

impl Default for SmConfig {
    fn default() -> Self {
        SmConfig {
            max_warps: 64,
            max_threads: 2048,
            max_ctas: 32,
            max_regs: 65536,
            max_smem: 100 << 10,
            schedulers: 4,
            fp_units: 4,
            int_units: 4,
            sfu_units: 4,
            tensor_units: 4,
            l1_ports: 4,
            lsu_queue_depth: 8,
            smem_latency: 29,
            scheduler: SchedulerPolicy::Gto,
        }
    }
}

impl SmConfig {
    /// (latency, initiation interval) of an opcode's execution pipe.
    ///
    /// Memory opcodes return the pipe cost of address generation; their real
    /// latency comes from the memory system.
    pub fn timing(&self, op: Op) -> (u64, u64) {
        match op {
            Op::IntAlu => (4, 1),
            Op::FpAlu | Op::FpMul | Op::FpFma => (4, 1),
            Op::Sfu => (21, 4),
            Op::Tensor => (16, 2),
            Op::Branch => (2, 1),
            Op::Bar(_) | Op::Exit => (1, 1),
            Op::Ld(Space::Shared) | Op::St(Space::Shared) => (self.smem_latency, 1),
            Op::Ld(_) | Op::St(_) => (1, 1),
        }
    }

    /// Number of pipes available for an opcode class.
    pub fn units_for(&self, op: Op) -> u32 {
        match op {
            Op::IntAlu | Op::Branch => self.int_units,
            Op::FpAlu | Op::FpMul | Op::FpFma => self.fp_units,
            Op::Sfu => self.sfu_units,
            Op::Tensor => self.tensor_units,
            // Memory ops contend on the LSU queue instead of a pipe group.
            Op::Bar(_) | Op::Exit | Op::Ld(_) | Op::St(_) => self.schedulers,
        }
    }
}

impl Wire for SchedulerPolicy {
    fn put<W: io::Write>(&self, w: &mut Writer<W>) -> io::Result<()> {
        w.put(&match self {
            SchedulerPolicy::Gto => 0u8,
            SchedulerPolicy::Lrr => 1,
        })
    }

    fn get<R: io::Read>(r: &mut Reader<R>) -> io::Result<Self> {
        match r.get::<u8>()? {
            0 => Ok(SchedulerPolicy::Gto),
            1 => Ok(SchedulerPolicy::Lrr),
            t => Err(bad(format!("unknown scheduler policy tag {t}"))),
        }
    }
}

crisp_ckpt::wire_struct!(SmConfig {
    max_warps,
    max_threads,
    max_ctas,
    max_regs,
    max_smem,
    schedulers,
    fp_units,
    int_units,
    sfu_units,
    tensor_units,
    l1_ports,
    lsu_queue_depth,
    smem_latency,
    scheduler
} check = SmConfig::check_restored);

impl SmConfig {
    /// Restored counts bound later allocations (warp slots, pipeline
    /// vectors, LSU queue) — reject values a real SM could never have
    /// before anything is sized from them.
    fn check_restored(&self) -> io::Result<()> {
        if self.max_warps == 0 || self.max_warps > 4096 {
            return Err(bad(format!("implausible max_warps {}", self.max_warps)));
        }
        if self.max_ctas == 0 || self.max_ctas > 4096 {
            return Err(bad(format!("implausible max_ctas {}", self.max_ctas)));
        }
        if self.schedulers == 0 || self.schedulers > 4096 {
            return Err(bad(format!("implausible schedulers {}", self.schedulers)));
        }
        for (name, v) in [
            ("fp_units", self.fp_units),
            ("int_units", self.int_units),
            ("sfu_units", self.sfu_units),
            ("tensor_units", self.tensor_units),
            ("l1_ports", self.l1_ports),
        ] {
            if v > 4096 {
                return Err(bad(format!("implausible {name} {v}")));
            }
        }
        if self.lsu_queue_depth > 1 << 16 {
            return Err(bad(format!(
                "implausible lsu_queue_depth {}",
                self.lsu_queue_depth
            )));
        }
        if self.smem_latency > 1 << 32 {
            return Err(bad(format!(
                "implausible smem_latency {}",
                self.smem_latency
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_table_ii() {
        let c = SmConfig::default();
        assert_eq!(c.max_warps, 64);
        assert_eq!(c.schedulers, 4);
        assert_eq!(c.max_regs, 65536);
        assert_eq!(c.fp_units, 4);
        assert_eq!(c.sfu_units, 4);
        assert_eq!(c.int_units, 4);
        assert_eq!(c.tensor_units, 4);
    }

    #[test]
    fn sfu_is_long_latency_low_throughput() {
        let c = SmConfig::default();
        let (fp_lat, fp_ii) = c.timing(Op::FpFma);
        let (sfu_lat, sfu_ii) = c.timing(Op::Sfu);
        assert!(sfu_lat > fp_lat);
        assert!(sfu_ii > fp_ii);
    }

    #[test]
    fn checkpoint_roundtrip_preserves_config() {
        let c = SmConfig {
            max_warps: 48,
            scheduler: SchedulerPolicy::Lrr,
            ..SmConfig::default()
        };
        let mut buf = Vec::new();
        let mut w = Writer::new(&mut buf);
        w.put(&c).unwrap();
        let mut r = Reader::new(buf.as_slice());
        assert_eq!(r.get::<SmConfig>().unwrap(), c);
    }

    #[test]
    fn checkpoint_restore_rejects_implausible_counts() {
        let c = SmConfig {
            max_warps: 1 << 20,
            ..SmConfig::default()
        };
        let mut buf = Vec::new();
        let mut w = Writer::new(&mut buf);
        w.put(&c).unwrap();
        let mut r = Reader::new(buf.as_slice());
        let err = r.get::<SmConfig>().unwrap_err();
        assert!(err.to_string().contains("max_warps"));
    }

    #[test]
    fn shared_memory_latency_is_configurable() {
        let c = SmConfig {
            smem_latency: 40,
            ..SmConfig::default()
        };
        assert_eq!(c.timing(Op::Ld(Space::Shared)).0, 40);
    }
}
