//! CTA work units and the SM resource accounting that gates their issue.
//!
//! "At the CTA issue stage, the CTA scheduler checks the CTA's resource
//! requirements with the remaining resources on the SM. If all resource
//! constraints are met, the CTA is issued. At CTA commit, resources occupied
//! by the CTA are freed" (paper Section III-A). Fine-grained intra-SM
//! partitioning adds a per-stream [`ResourceQuota`] on top of the physical
//! caps.

use std::collections::HashMap;
use std::io;
use std::sync::Arc;

use crisp_ckpt::{bad, CheckpointState, Reader, Writer};
use crisp_trace::{CtaTrace, KernelId, KernelInfo, KernelTrace, StreamId, WARP_SIZE};

use crate::config::SmConfig;

/// Resources one CTA occupies while resident.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CtaResources {
    /// Thread slots.
    pub threads: u32,
    /// Warp slots.
    pub warps: u32,
    /// Registers.
    pub regs: u32,
    /// Shared-memory bytes.
    pub smem: u32,
}

impl CtaResources {
    /// Requirements of one CTA of `kernel`.
    pub fn of_kernel(kernel: &KernelTrace) -> Self {
        CtaResources {
            threads: kernel.warps_per_cta() * WARP_SIZE as u32,
            warps: kernel.warps_per_cta(),
            regs: kernel.regs_per_cta(),
            smem: kernel.smem_per_cta,
        }
    }

    /// Requirements of one CTA from launch metadata alone — the streaming
    /// scheduler sizes CTAs off the [`KernelInfo`] directory without paging
    /// any instruction payload in.
    pub fn of_info(info: &KernelInfo) -> Self {
        CtaResources {
            threads: info.warps_per_cta().saturating_mul(WARP_SIZE as u32),
            warps: info.warps_per_cta(),
            regs: info.regs_per_cta(),
            smem: info.smem_per_cta,
        }
    }
}

/// One CTA ready to run: its demand-paged instruction trace plus metadata.
#[derive(Debug, Clone)]
pub struct CtaWork {
    /// Stream the kernel belongs to.
    pub stream: StreamId,
    /// Which kernel launch of the trace source this CTA belongs to.
    pub kernel: KernelId,
    /// Launch geometry (shared with the source's directory).
    pub info: Arc<KernelInfo>,
    /// This CTA's instruction streams (shared with the source's resident
    /// window, not copied per warp).
    pub cta: Arc<CtaTrace>,
    /// Which CTA of the grid this is.
    pub cta_index: usize,
    /// Global sequence number for commit reporting.
    pub seq: u64,
}

impl CtaWork {
    /// Resource needs of this CTA.
    pub fn resources(&self) -> CtaResources {
        CtaResources::of_info(&self.info)
    }
}

/// Resources in use, either SM-wide or per stream.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Usage {
    /// Thread slots in use.
    pub threads: u32,
    /// Warp slots in use.
    pub warps: u32,
    /// Registers in use.
    pub regs: u32,
    /// Shared-memory bytes in use.
    pub smem: u32,
    /// Resident CTAs.
    pub ctas: u32,
}

impl Usage {
    fn add(&mut self, r: CtaResources) {
        self.threads += r.threads;
        self.warps += r.warps;
        self.regs += r.regs;
        self.smem += r.smem;
        self.ctas += 1;
    }

    fn sub(&mut self, r: CtaResources) {
        self.threads -= r.threads;
        self.warps -= r.warps;
        self.regs -= r.regs;
        self.smem -= r.smem;
        self.ctas -= 1;
    }
}

/// A per-stream ceiling on SM resources — the fine-grained intra-SM
/// partition. `ResourceQuota::unlimited()` disables the partition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResourceQuota {
    /// Max thread slots for the stream.
    pub threads: u32,
    /// Max warp slots.
    pub warps: u32,
    /// Max registers.
    pub regs: u32,
    /// Max shared-memory bytes.
    pub smem: u32,
    /// Max resident CTAs.
    pub ctas: u32,
}

impl ResourceQuota {
    /// No per-stream restriction (bounded only by the SM's physical caps).
    pub fn unlimited() -> Self {
        ResourceQuota {
            threads: u32::MAX,
            warps: u32::MAX,
            regs: u32::MAX,
            smem: u32::MAX,
            ctas: u32::MAX,
        }
    }

    /// A quota that is `num/denom` of the SM's physical resources — the
    /// "EVEN" static intra-SM split is `fraction(cfg, 1, 2)`.
    pub fn fraction(cfg: &SmConfig, num: u32, denom: u32) -> Self {
        assert!(denom > 0 && num <= denom, "fraction must be within [0, 1]");
        let f = |v: u32| (v as u64 * num as u64 / denom as u64) as u32;
        ResourceQuota {
            threads: f(cfg.max_threads),
            warps: f(cfg.max_warps),
            regs: f(cfg.max_regs),
            smem: f(cfg.max_smem),
            ctas: f(cfg.max_ctas).max(1),
        }
    }
}

/// Resource book-keeping for one SM: physical caps plus per-stream usage.
#[derive(Debug, Clone)]
pub struct SmResources {
    cfg: SmConfig,
    total: Usage,
    by_stream: HashMap<StreamId, Usage>,
}

impl SmResources {
    /// Empty accounting for an SM with configuration `cfg`.
    pub fn new(cfg: SmConfig) -> Self {
        SmResources {
            cfg,
            total: Usage::default(),
            by_stream: HashMap::new(),
        }
    }

    /// Whether a CTA needing `r` fits under both the physical caps and the
    /// issuing stream's `quota`.
    pub fn fits(&self, stream: StreamId, r: CtaResources, quota: ResourceQuota) -> bool {
        let t = &self.total;
        let phys = t.threads + r.threads <= self.cfg.max_threads
            && t.warps + r.warps <= self.cfg.max_warps
            && t.regs + r.regs <= self.cfg.max_regs
            && t.smem + r.smem <= self.cfg.max_smem
            && t.ctas < self.cfg.max_ctas;
        if !phys {
            return false;
        }
        let s = self.by_stream.get(&stream).copied().unwrap_or_default();
        s.threads + r.threads <= quota.threads
            && s.warps + r.warps <= quota.warps
            && s.regs + r.regs <= quota.regs
            && s.smem + r.smem <= quota.smem
            && s.ctas < quota.ctas
    }

    /// Commit the allocation of `r` to `stream`.
    pub fn allocate(&mut self, stream: StreamId, r: CtaResources) {
        self.total.add(r);
        self.by_stream.entry(stream).or_default().add(r);
    }

    /// Release `r` from `stream` (CTA commit).
    pub fn release(&mut self, stream: StreamId, r: CtaResources) {
        self.total.sub(r);
        self.by_stream
            .get_mut(&stream)
            .expect("release without allocate")
            .sub(r);
    }

    /// SM-wide usage.
    pub fn total(&self) -> Usage {
        self.total
    }

    /// Usage attributed to `stream`.
    pub fn of_stream(&self, stream: StreamId) -> Usage {
        self.by_stream.get(&stream).copied().unwrap_or_default()
    }

    /// Resident-warp occupancy in [0, 1] — the paper's Figure 13 metric.
    pub fn warp_occupancy(&self) -> f64 {
        self.total.warps as f64 / self.cfg.max_warps as f64
    }

    /// Resident-warp occupancy of one stream in [0, 1].
    pub fn stream_warp_occupancy(&self, stream: StreamId) -> f64 {
        self.of_stream(stream).warps as f64 / self.cfg.max_warps as f64
    }
}

crisp_ckpt::wire_struct!(CtaResources {
    threads,
    warps,
    regs,
    smem
});
crisp_ckpt::wire_struct!(ResourceQuota {
    threads,
    warps,
    regs,
    smem,
    ctas
});
crisp_ckpt::wire_struct!(Usage {
    threads,
    warps,
    regs,
    smem,
    ctas
});

impl SmResources {
    /// Check restored accounting against the resident CTAs it must equal:
    /// SM-wide and per-stream sums within the physical caps. Anything else
    /// would underflow at CTA commit or overflow at the next fit test.
    pub(crate) fn check_restored(
        &self,
        residents: impl IntoIterator<Item = (StreamId, CtaResources)>,
    ) -> io::Result<()> {
        let cfg = &self.cfg;
        let mut fresh = SmResources::new(*cfg);
        for (stream, r) in residents {
            let t = fresh.total;
            let fits = |used: u32, need: u32, cap: u32| used as u64 + need as u64 <= cap as u64;
            if !(fits(t.threads, r.threads, cfg.max_threads)
                && fits(t.warps, r.warps, cfg.max_warps)
                && fits(t.regs, r.regs, cfg.max_regs)
                && fits(t.smem, r.smem, cfg.max_smem)
                && t.ctas < cfg.max_ctas)
            {
                return Err(bad("resident CTAs exceed the SM's physical resources"));
            }
            fresh.allocate(stream, r);
        }
        let mut streams = self.by_stream.keys().chain(fresh.by_stream.keys());
        if fresh.total != self.total || streams.any(|&s| fresh.of_stream(s) != self.of_stream(s)) {
            return Err(bad(
                "SM resource accounting disagrees with its resident CTAs",
            ));
        }
        Ok(())
    }
}

impl CheckpointState for SmResources {
    /// The SM configuration the accounting was built against.
    type RestoreCtx<'a> = SmConfig;

    fn save<W: io::Write>(&self, w: &mut Writer<W>) -> io::Result<()> {
        w.put(&self.total)?;
        w.put(&self.by_stream)
    }

    fn restore<R: io::Read>(r: &mut Reader<R>, cfg: SmConfig) -> io::Result<Self> {
        Ok(SmResources {
            cfg,
            total: r.get()?,
            by_stream: r.get()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crisp_trace::{CtaTrace, Instr, WarpTrace};

    fn kernel(block_threads: u32, regs: u32, smem: u32) -> KernelTrace {
        let warps = block_threads.div_ceil(32);
        let mut w = WarpTrace::new();
        w.push(Instr::exit());
        let cta = CtaTrace::new(vec![w; warps as usize]);
        KernelTrace::new("k", block_threads, regs, smem, vec![cta])
    }

    const S0: StreamId = StreamId(0);
    const S1: StreamId = StreamId(1);

    #[test]
    fn cta_resources_derive_from_kernel() {
        let k = kernel(128, 32, 1024);
        let r = CtaResources::of_kernel(&k);
        assert_eq!(r.threads, 128);
        assert_eq!(r.warps, 4);
        assert_eq!(r.regs, 4 * 32 * 32);
        assert_eq!(r.smem, 1024);
    }

    #[test]
    fn physical_caps_gate_issue() {
        let cfg = SmConfig::default();
        let mut res = SmResources::new(cfg);
        let big = CtaResources {
            threads: 1024,
            warps: 32,
            regs: 32768,
            smem: 0,
        };
        assert!(res.fits(S0, big, ResourceQuota::unlimited()));
        res.allocate(S0, big);
        assert!(
            res.fits(S0, big, ResourceQuota::unlimited()),
            "second still fits"
        );
        res.allocate(S0, big);
        assert!(
            !res.fits(S0, big, ResourceQuota::unlimited()),
            "third exceeds warps/regs"
        );
    }

    #[test]
    fn register_pressure_limits_before_warps() {
        // The paper's Figure 13: "the low occupancy regions are limited by
        // registers". A register-heavy CTA exhausts the RF before warp slots.
        let cfg = SmConfig::default();
        let mut res = SmResources::new(cfg);
        let reg_heavy = CtaResources {
            threads: 256,
            warps: 8,
            regs: 256 * 128,
            smem: 0,
        };
        let mut issued = 0;
        while res.fits(S0, reg_heavy, ResourceQuota::unlimited()) {
            res.allocate(S0, reg_heavy);
            issued += 1;
        }
        assert_eq!(issued, 2, "65536 regs / 32768 per CTA = 2");
        assert!(res.total().warps < cfg.max_warps, "warp slots left over");
    }

    #[test]
    fn quota_partitions_streams_within_one_sm() {
        let cfg = SmConfig::default();
        let mut res = SmResources::new(cfg);
        let half = ResourceQuota::fraction(&cfg, 1, 2);
        let cta = CtaResources {
            threads: 256,
            warps: 8,
            regs: 8192,
            smem: 0,
        };
        // Stream 0 may only fill half the warps (32 → 4 CTAs of 8 warps).
        let mut s0 = 0;
        while res.fits(S0, cta, half) {
            res.allocate(S0, cta);
            s0 += 1;
        }
        assert_eq!(s0, 4);
        // Stream 1 still has its half available.
        assert!(res.fits(S1, cta, half));
        assert_eq!(res.of_stream(S0).warps, 32);
        assert!((res.warp_occupancy() - 0.5).abs() < 1e-12);
        assert!((res.stream_warp_occupancy(S0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn release_returns_resources() {
        let cfg = SmConfig::default();
        let mut res = SmResources::new(cfg);
        let cta = CtaResources {
            threads: 512,
            warps: 16,
            regs: 16384,
            smem: 2048,
        };
        res.allocate(S0, cta);
        res.release(S0, cta);
        assert_eq!(res.total(), Usage::default());
        assert_eq!(res.of_stream(S0), Usage::default());
    }

    #[test]
    fn fraction_quota_keeps_at_least_one_cta_slot() {
        let cfg = SmConfig::default();
        let q = ResourceQuota::fraction(&cfg, 1, 64);
        assert!(q.ctas >= 1);
    }

    #[test]
    #[should_panic(expected = "within")]
    fn fraction_rejects_over_unity() {
        let _ = ResourceQuota::fraction(&SmConfig::default(), 3, 2);
    }
}
