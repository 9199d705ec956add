//! GPU partition policies (paper Figure 4).

use std::collections::HashMap;
use std::io;

use crisp_ckpt::{bad, Reader, Wire, Writer};
use crisp_mem::TapConfig;
use crisp_sm::{ResourceQuota, SmConfig};
use crisp_trace::StreamId;

use crate::config::GpuConfig;
use crate::slicer::SlicerConfig;

/// How SMs are divided among streams.
#[derive(Debug, Clone)]
pub enum SmPartition {
    /// Accel-Sim default: launch CTAs from the oldest stream exhaustively
    /// before the next ("if a kernel is large enough ... there is no
    /// concurrent execution").
    Greedy,
    /// Coarse inter-SM partition: each stream owns the listed SMs
    /// (MPS and MiG).
    InterSm(HashMap<StreamId, Vec<usize>>),
    /// Fine-grained intra-SM partition with static per-stream quotas.
    IntraSm(HashMap<StreamId, ResourceQuota>),
    /// Fine-grained intra-SM partition tuned at runtime by warped-slicer.
    IntraSmDynamic(SlicerConfig),
}

/// How the L2 is divided among streams.
#[derive(Debug, Clone)]
pub enum L2Policy {
    /// Fully shared (MPS and intra-SM modes).
    Shared,
    /// MiG: L2 banks split between the two streams (bank-level isolation,
    /// which also slices L2 bandwidth).
    BankSplit,
    /// TAP set partitioning: banks shared, sets assigned per stream by the
    /// TLP-aware utility controller.
    Tap(TapConfig),
}

/// A full partition specification: SM side plus L2 side.
#[derive(Debug, Clone)]
pub struct PartitionSpec {
    /// SM-side policy.
    pub sm: SmPartition,
    /// L2-side policy.
    pub l2: L2Policy,
}

impl PartitionSpec {
    /// Accel-Sim's default greedy scheduler, shared L2.
    pub fn greedy() -> Self {
        PartitionSpec {
            sm: SmPartition::Greedy,
            l2: L2Policy::Shared,
        }
    }

    /// MPS with an even inter-SM split between two streams; L2 shared.
    pub fn mps_even(cfg: &GpuConfig, a: StreamId, b: StreamId) -> Self {
        let half = cfg.n_sms / 2;
        let mut m = HashMap::new();
        m.insert(a, (0..half).collect());
        m.insert(b, (half..cfg.n_sms).collect());
        PartitionSpec {
            sm: SmPartition::InterSm(m),
            l2: L2Policy::Shared,
        }
    }

    /// MiG with an even inter-SM split and bank-level L2 isolation.
    pub fn mig_even(cfg: &GpuConfig, a: StreamId, b: StreamId) -> Self {
        let spec = PartitionSpec::mps_even(cfg, a, b);
        PartitionSpec {
            sm: spec.sm,
            l2: L2Policy::BankSplit,
        }
    }

    /// Fine-grained intra-SM partition with an even static split ("EVEN" in
    /// Figure 12): every SM runs both streams, half resources each.
    pub fn fg_even(cfg: &GpuConfig, a: StreamId, b: StreamId) -> Self {
        let mut q = HashMap::new();
        q.insert(a, ResourceQuota::fraction(&cfg.sm, 1, 2));
        q.insert(b, ResourceQuota::fraction(&cfg.sm, 1, 2));
        PartitionSpec {
            sm: SmPartition::IntraSm(q),
            l2: L2Policy::Shared,
        }
    }

    /// Fine-grained intra-SM partition driven by warped-slicer ("Dynamic"
    /// in Figure 12).
    pub fn fg_dynamic(slicer: SlicerConfig) -> Self {
        PartitionSpec {
            sm: SmPartition::IntraSmDynamic(slicer),
            l2: L2Policy::Shared,
        }
    }

    /// Fine-grained intra-SM partition with arbitrary per-stream fractions
    /// — the paper's Section IV notes the framework "can be easily
    /// extended to support more than 2 workloads"; this is that extension.
    ///
    /// # Panics
    ///
    /// Panics if the fractions sum to more than 1.
    pub fn fg_fractions(
        cfg: &GpuConfig,
        shares: impl IntoIterator<Item = (StreamId, (u32, u32))>,
    ) -> Self {
        let mut q = HashMap::new();
        let mut total = 0.0;
        for (id, (num, denom)) in shares {
            total += num as f64 / denom as f64;
            q.insert(id, ResourceQuota::fraction(&cfg.sm, num, denom));
        }
        assert!(
            total <= 1.0 + 1e-9,
            "quota fractions exceed the SM ({total})"
        );
        PartitionSpec {
            sm: SmPartition::IntraSm(q),
            l2: L2Policy::Shared,
        }
    }

    /// MPS inter-SM split with TAP set partitioning in the L2 (Figure 14's
    /// "TAP" configuration).
    pub fn tap_even(cfg: &GpuConfig, a: StreamId, b: StreamId, tap: TapConfig) -> Self {
        let spec = PartitionSpec::mps_even(cfg, a, b);
        PartitionSpec {
            sm: spec.sm,
            l2: L2Policy::Tap(tap),
        }
    }

    /// The SMs `stream` may receive CTAs on, out of `n_sms`.
    pub fn sms_for(&self, stream: StreamId, n_sms: usize) -> Vec<usize> {
        match &self.sm {
            SmPartition::InterSm(m) => m
                .get(&stream)
                .cloned()
                .unwrap_or_else(|| (0..n_sms).collect()),
            _ => (0..n_sms).collect(),
        }
    }

    /// The static quota `stream` gets on every SM (dynamic mode returns the
    /// quota chosen by the slicer at runtime, handled in `GpuSim`).
    pub fn static_quota(&self, stream: StreamId, _sm_cfg: &SmConfig) -> ResourceQuota {
        match &self.sm {
            SmPartition::IntraSm(q) => q
                .get(&stream)
                .copied()
                .unwrap_or_else(ResourceQuota::unlimited),
            _ => ResourceQuota::unlimited(),
        }
    }
}

impl Wire for SmPartition {
    fn put<W: io::Write>(&self, w: &mut Writer<W>) -> io::Result<()> {
        match self {
            SmPartition::Greedy => w.put(&0u8),
            SmPartition::InterSm(m) => {
                w.put(&1u8)?;
                w.put(m)
            }
            SmPartition::IntraSm(q) => {
                w.put(&2u8)?;
                w.put(q)
            }
            SmPartition::IntraSmDynamic(cfg) => {
                w.put(&3u8)?;
                w.put(cfg)
            }
        }
    }

    fn get<R: io::Read>(r: &mut Reader<R>) -> io::Result<Self> {
        match r.get::<u8>()? {
            0 => Ok(SmPartition::Greedy),
            1 => Ok(SmPartition::InterSm(r.get()?)),
            2 => Ok(SmPartition::IntraSm(r.get()?)),
            3 => Ok(SmPartition::IntraSmDynamic(r.get()?)),
            t => Err(bad(format!("unknown SM-partition tag {t}"))),
        }
    }
}

impl Wire for L2Policy {
    fn put<W: io::Write>(&self, w: &mut Writer<W>) -> io::Result<()> {
        match self {
            L2Policy::Shared => w.put(&0u8),
            L2Policy::BankSplit => w.put(&1u8),
            L2Policy::Tap(tap) => w.put(&(2u8, *tap)),
        }
    }

    fn get<R: io::Read>(r: &mut Reader<R>) -> io::Result<Self> {
        match r.get::<u8>()? {
            0 => Ok(L2Policy::Shared),
            1 => Ok(L2Policy::BankSplit),
            2 => Ok(L2Policy::Tap(r.get()?)),
            t => Err(bad(format!("unknown L2-policy tag {t}"))),
        }
    }
}

crisp_ckpt::wire_struct!(PartitionSpec { sm, l2 });

#[cfg(test)]
mod tests {
    use super::*;

    const A: StreamId = StreamId(0);
    const B: StreamId = StreamId(1);

    #[test]
    fn mps_even_splits_sms() {
        let cfg = GpuConfig::rtx3070();
        let p = PartitionSpec::mps_even(&cfg, A, B);
        let sa = p.sms_for(A, cfg.n_sms);
        let sb = p.sms_for(B, cfg.n_sms);
        assert_eq!(sa.len(), 23);
        assert_eq!(sb.len(), 23);
        assert!(sa.iter().all(|s| !sb.contains(s)), "disjoint SM sets");
        assert!(matches!(p.l2, L2Policy::Shared));
    }

    #[test]
    fn mig_uses_bank_split() {
        let cfg = GpuConfig::rtx3070();
        let p = PartitionSpec::mig_even(&cfg, A, B);
        assert!(matches!(p.l2, L2Policy::BankSplit));
    }

    #[test]
    fn fg_even_quotas_are_half() {
        let cfg = GpuConfig::jetson_orin();
        let p = PartitionSpec::fg_even(&cfg, A, B);
        let q = p.static_quota(A, &cfg.sm);
        assert_eq!(q.warps, cfg.sm.max_warps / 2);
        assert_eq!(q.regs, cfg.sm.max_regs / 2);
        // Every SM remains available to both streams.
        assert_eq!(p.sms_for(A, cfg.n_sms).len(), cfg.n_sms);
    }

    #[test]
    fn greedy_imposes_nothing() {
        let cfg = GpuConfig::test_tiny();
        let p = PartitionSpec::greedy();
        assert_eq!(p.sms_for(A, cfg.n_sms).len(), cfg.n_sms);
        assert_eq!(p.static_quota(A, &cfg.sm), ResourceQuota::unlimited());
    }

    #[test]
    fn fg_fractions_supports_three_streams() {
        let cfg = GpuConfig::jetson_orin();
        let p =
            PartitionSpec::fg_fractions(&cfg, [(A, (4, 8)), (B, (2, 8)), (StreamId(2), (2, 8))]);
        assert_eq!(p.static_quota(A, &cfg.sm).warps, cfg.sm.max_warps / 2);
        assert_eq!(p.static_quota(B, &cfg.sm).warps, cfg.sm.max_warps / 4);
        assert_eq!(
            p.static_quota(StreamId(2), &cfg.sm).warps,
            cfg.sm.max_warps / 4
        );
    }

    #[test]
    #[should_panic(expected = "exceed the SM")]
    fn fg_fractions_rejects_oversubscription() {
        let cfg = GpuConfig::jetson_orin();
        let _ = PartitionSpec::fg_fractions(&cfg, [(A, (6, 8)), (B, (4, 8))]);
    }

    #[test]
    fn checkpoint_roundtrip_covers_every_variant() {
        let cfg = GpuConfig::test_tiny();
        let specs = [
            PartitionSpec::greedy(),
            PartitionSpec::mps_even(&cfg, A, B),
            PartitionSpec::mig_even(&cfg, A, B),
            PartitionSpec::fg_even(&cfg, A, B),
            PartitionSpec::fg_dynamic(SlicerConfig::default()),
            PartitionSpec::tap_even(&cfg, A, B, TapConfig::default()),
        ];
        for spec in specs {
            let mut buf = Vec::new();
            let mut w = Writer::new(&mut buf);
            w.put(&spec).unwrap();
            let mut r = Reader::new(buf.as_slice());
            let back = r.get::<PartitionSpec>().unwrap();
            // No PartialEq on the spec (HashMaps inside); compare behaviour.
            for s in [A, B, StreamId(7)] {
                assert_eq!(back.sms_for(s, cfg.n_sms), spec.sms_for(s, cfg.n_sms));
                assert_eq!(back.static_quota(s, &cfg.sm), spec.static_quota(s, &cfg.sm));
            }
            assert_eq!(
                std::mem::discriminant(&back.l2),
                std::mem::discriminant(&spec.l2)
            );
        }
    }

    #[test]
    fn unknown_stream_defaults_to_everything() {
        let cfg = GpuConfig::test_tiny();
        let p = PartitionSpec::mps_even(&cfg, A, B);
        assert_eq!(p.sms_for(StreamId(9), cfg.n_sms).len(), cfg.n_sms);
    }
}
