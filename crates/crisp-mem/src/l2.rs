//! How one L2 bank is sized from the [`MemConfig`].
//!
//! Every L2 bank is a [`SectorCache`], the same type as an SM's L1: an
//! equal share of the L2 capacity, the configured replacement policy and
//! MSHR entries, and [`L2_MSHR_MERGES`] waiters per in-flight sector.
//! Building and restoring a bank both read the sizes from here.

use crate::cache::{CacheGeometry, Replacement};
use crate::mshr::SectorCache;
use crate::system::MemConfig;

/// Waiters per in-flight sector in each L2 bank's MSHR.
pub(crate) const L2_MSHR_MERGES: usize = 16;

impl MemConfig {
    /// One bank's share of the L2 capacity.
    pub(crate) fn l2_bank_geom(&self) -> CacheGeometry {
        assert!(
            self.l2_geom
                .size_bytes
                .is_multiple_of(self.n_l2_banks as u64),
            "L2 capacity must divide evenly across banks"
        );
        CacheGeometry {
            size_bytes: self.l2_geom.size_bytes / self.n_l2_banks as u64,
            assoc: self.l2_geom.assoc,
        }
    }

    /// An empty L2 bank.
    pub(crate) fn l2_bank(&self) -> SectorCache {
        SectorCache::new(
            self.l2_bank_geom(),
            self.l2_replacement,
            self.l2_mshr_entries,
            L2_MSHR_MERGES,
        )
    }

    /// What [`SectorCache::restore`](crisp_ckpt::CheckpointState::restore)
    /// needs to rebuild one L2 bank.
    pub(crate) fn l2_bank_restore_ctx(&self) -> (CacheGeometry, Replacement, usize, usize, usize) {
        (
            self.l2_bank_geom(),
            self.l2_replacement,
            self.l2_mshr_entries,
            L2_MSHR_MERGES,
            self.n_sms,
        )
    }
}

#[cfg(test)]
mod tests {
    use crisp_trace::{DataClass, StreamId};

    use super::*;
    use crate::mshr::ReadOutcome;
    use crate::req::{MemReq, ReqToken};

    const S: StreamId = StreamId(0);

    /// One 4 KiB, 4-way bank with `mshr_entries` table entries.
    fn bank(mshr_entries: usize) -> SectorCache {
        MemConfig {
            n_sms: 1,
            l1_geom: CacheGeometry {
                size_bytes: 4096,
                assoc: 4,
            },
            l1_latency: 4,
            l1_mshr_entries: 8,
            l1_mshr_merges: 8,
            l2_geom: CacheGeometry {
                size_bytes: 4096,
                assoc: 4,
            },
            n_l2_banks: 1,
            l2_latency: 20,
            l2_mshr_entries: mshr_entries,
            xbar_latency: 4,
            dram_latency: 100,
            dram_bytes_per_cycle: 64.0,
            l2_replacement: Replacement::Lru,
        }
        .l2_bank()
    }

    fn rd(addr: u64, id: u64) -> MemReq {
        MemReq::read(addr, S, DataClass::Compute, ReqToken { sm: 0, id })
    }

    fn win(b: &SectorCache) -> (u64, u64) {
        (0, b.tags().num_sets())
    }

    #[test]
    fn read_miss_merge_fill_hit_cycle() {
        let mut b = bank(8);
        let w = win(&b);
        assert_eq!(b.read(&rd(0x100, 1), w), ReadOutcome::Miss);
        assert_eq!(b.read(&rd(0x100, 2), w), ReadOutcome::Merged);
        assert_eq!(b.in_flight(), 1);
        let (waiters, wb) = b.fill(0x100, S, DataClass::Compute, w);
        assert_eq!(waiters.len(), 2);
        assert!(wb.is_none());
        assert_eq!(b.read(&rd(0x100, 3), w), ReadOutcome::Hit);
    }

    #[test]
    fn mshr_exhaustion_stalls() {
        let mut b = bank(1);
        let w = win(&b);
        assert_eq!(b.read(&rd(0x000, 1), w), ReadOutcome::Miss);
        assert_eq!(b.read(&rd(0x200, 2), w), ReadOutcome::Stall);
        // The pending sector takes merges up to the L2 merge capacity.
        for id in 3..2 + L2_MSHR_MERGES as u64 {
            assert_eq!(b.read(&rd(0x000, id), w), ReadOutcome::Merged);
        }
        assert_eq!(b.read(&rd(0x000, 99), w), ReadOutcome::Stall);
    }

    #[test]
    fn writes_allocate_and_later_reads_hit() {
        let mut b = bank(8);
        let w = win(&b);
        let wr = MemReq::write(0x80, S, DataClass::Pipeline, ReqToken { sm: 0, id: 0 });
        assert!(b.tags_mut().write_validate(&wr, w).1.is_none());
        assert_eq!(
            b.read(&rd(0x80, 1), w),
            ReadOutcome::Hit,
            "write-validate makes data visible"
        );
    }

    #[test]
    fn stats_classify_merges_as_misses() {
        let mut b = bank(8);
        let w = win(&b);
        let _ = b.read(&rd(0x100, 1), w);
        let _ = b.read(&rd(0x100, 2), w);
        let s = b.tags().stats().get(S, DataClass::Compute);
        assert_eq!(s.accesses, 2);
        assert_eq!(s.misses, 2);
        assert_eq!(s.hits, 0);
    }
}
