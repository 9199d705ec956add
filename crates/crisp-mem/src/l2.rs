//! One L2 cache bank: a sectored tag array plus an MSHR table.
//!
//! The L2 uses write-validate (allocate-on-write) semantics so that the
//! graphics pipeline's inter-stage traffic — vertex attributes written by
//! the origin SM and read by the destination rasterizer — lands in the L2,
//! exactly the communication pattern the paper describes for stage
//! redistribution ("the origin SM writes the output attributes to the L2
//! cache").

use std::io;

use crisp_ckpt::{CheckpointState, Reader, Writer};
use crisp_trace::{DataClass, StreamId};

use crate::cache::{AccessKind, AccessOutcome, CacheCore, CacheGeometry, Replacement, Writeback};
use crate::mshr::{Mshr, MshrOutcome};
use crate::req::{MemReq, ReqToken};
use crate::system::{MemConfig, L2_MSHR_MERGES};

/// Result of presenting a read to an L2 bank.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum L2Outcome {
    /// Sector present; data after the bank's hit latency.
    Hit,
    /// Miss; a DRAM fetch must be issued by the caller.
    MissToDram,
    /// Miss merged onto an in-flight DRAM fetch.
    Merged,
    /// MSHRs exhausted; retry next cycle.
    Stall,
}

/// An L2 bank.
#[derive(Debug, Clone)]
pub struct L2Bank {
    cache: CacheCore,
    mshr: Mshr,
}

impl L2Bank {
    /// A bank with the given geometry, MSHR capacity and LRU replacement.
    pub fn new(geom: CacheGeometry, mshr_entries: usize, mshr_merges: usize) -> Self {
        L2Bank::with_replacement(geom, mshr_entries, mshr_merges, Replacement::Lru)
    }

    /// A bank with an explicit replacement policy.
    pub fn with_replacement(
        geom: CacheGeometry,
        mshr_entries: usize,
        mshr_merges: usize,
        replacement: Replacement,
    ) -> Self {
        L2Bank {
            cache: CacheCore::with_replacement(geom, replacement),
            mshr: Mshr::new(mshr_entries, mshr_merges),
        }
    }

    /// The underlying tag array (stats, composition).
    pub fn cache(&self) -> &CacheCore {
        &self.cache
    }

    /// Mutable access to the tag array (stat resets).
    pub fn cache_mut(&mut self) -> &mut CacheCore {
        &mut self.cache
    }

    /// Present a read. `window` is the set window assigned to the stream by
    /// the active [`crate::SetPartition`].
    pub fn read(&mut self, req: &MemReq, window: (u64, u64)) -> L2Outcome {
        if !self.mshr.can_accept(req.addr) {
            return L2Outcome::Stall;
        }
        if self.mshr.is_pending(req.addr) {
            // The sector is already on its way from DRAM; this access waits
            // with it. Counted as a miss for hit-rate purposes.
            self.cache.record_mshr_merge(req.stream, req.class);
            let _ = self.mshr.on_miss(req.addr, req.token);
            return L2Outcome::Merged;
        }
        match self.cache.access(req, AccessKind::Read, window) {
            AccessOutcome::Hit => L2Outcome::Hit,
            AccessOutcome::SectorMiss | AccessOutcome::LineMiss => {
                match self.mshr.on_miss(req.addr, req.token) {
                    MshrOutcome::Allocated => L2Outcome::MissToDram,
                    MshrOutcome::Merged => L2Outcome::Merged,
                    MshrOutcome::Full => unreachable!("can_accept checked above"),
                }
            }
        }
    }

    /// Present a write (write-validate). Returns the victim writeback if the
    /// allocation evicted a dirty line.
    pub fn write(&mut self, req: &MemReq, window: (u64, u64)) -> Option<Writeback> {
        let (_hit, wb) = self.cache.write_validate(req, window);
        wb
    }

    /// A DRAM fill for `sector_addr` arrived. Installs the sector and
    /// returns `(waiting tokens, victim writeback)`.
    pub fn fill(
        &mut self,
        sector_addr: u64,
        stream: StreamId,
        class: DataClass,
        window: (u64, u64),
    ) -> (Vec<ReqToken>, Option<Writeback>) {
        let line = sector_addr & !(crisp_trace::LINE_BYTES - 1);
        let sector = (sector_addr % crisp_trace::LINE_BYTES) / crisp_trace::SECTOR_BYTES;
        let wb = self.cache.fill(line, sector, stream, class, false, window);
        let waiters = self.mshr.on_fill(sector_addr);
        (waiters, wb)
    }

    /// In-flight DRAM fetches.
    pub fn in_flight(&self) -> usize {
        self.mshr.in_flight()
    }

    /// Functionally warm one read: probe the tag array and install the
    /// sector immediately on a miss, with no MSHR, crossbar or DRAM timing.
    /// Returns whether the access missed (so the caller can warm the DRAM
    /// row buffers too). Used by fast-forward mode.
    pub fn warm_read(&mut self, req: &MemReq, window: (u64, u64)) -> bool {
        match self.cache.access(req, AccessKind::Read, window) {
            AccessOutcome::Hit => false,
            AccessOutcome::SectorMiss | AccessOutcome::LineMiss => {
                let _ = self.cache.fill(
                    req.line_addr(),
                    req.sector_in_line(),
                    req.stream,
                    req.class,
                    false,
                    window,
                );
                true
            }
        }
    }
}

impl CheckpointState for L2Bank {
    /// The hierarchy configuration: bank geometry, MSHR capacity and
    /// replacement policy.
    type RestoreCtx<'a> = &'a MemConfig;

    fn save<W: io::Write>(&self, w: &mut Writer<W>) -> io::Result<()> {
        self.cache.save(w)?;
        self.mshr.save(w)
    }

    fn restore<R: io::Read>(r: &mut Reader<R>, cfg: &MemConfig) -> io::Result<Self> {
        Ok(L2Bank {
            cache: CacheCore::restore(r, (cfg.l2_bank_geom(), cfg.l2_replacement))?,
            mshr: Mshr::restore(r, (cfg.l2_mshr_entries, L2_MSHR_MERGES, cfg.n_sms))?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const S: StreamId = StreamId(0);

    fn bank() -> L2Bank {
        L2Bank::new(
            CacheGeometry {
                size_bytes: 4096,
                assoc: 4,
            },
            8,
            4,
        )
    }

    fn rd(addr: u64, id: u64) -> MemReq {
        MemReq::read(addr, S, DataClass::Compute, ReqToken { sm: 0, id })
    }

    fn win(b: &L2Bank) -> (u64, u64) {
        (0, b.cache().num_sets())
    }

    #[test]
    fn read_miss_merge_fill_hit_cycle() {
        let mut b = bank();
        let w = win(&b);
        assert_eq!(b.read(&rd(0x100, 1), w), L2Outcome::MissToDram);
        assert_eq!(b.read(&rd(0x100, 2), w), L2Outcome::Merged);
        assert_eq!(b.in_flight(), 1);
        let (waiters, wb) = b.fill(0x100, S, DataClass::Compute, w);
        assert_eq!(waiters.len(), 2);
        assert!(wb.is_none());
        assert_eq!(b.read(&rd(0x100, 3), w), L2Outcome::Hit);
    }

    #[test]
    fn mshr_exhaustion_stalls() {
        let mut b = L2Bank::new(
            CacheGeometry {
                size_bytes: 4096,
                assoc: 4,
            },
            1,
            1,
        );
        let w = win(&b);
        assert_eq!(b.read(&rd(0x000, 1), w), L2Outcome::MissToDram);
        assert_eq!(b.read(&rd(0x200, 2), w), L2Outcome::Stall);
        // Merge capacity 1 is also exhausted for the pending sector.
        assert_eq!(b.read(&rd(0x000, 3), w), L2Outcome::Stall);
    }

    #[test]
    fn writes_allocate_and_later_reads_hit() {
        let mut b = bank();
        let w = win(&b);
        let wr = MemReq::write(0x80, S, DataClass::Pipeline, ReqToken { sm: 0, id: 0 });
        assert!(b.write(&wr, w).is_none());
        assert_eq!(
            b.read(&rd(0x80, 1), w),
            L2Outcome::Hit,
            "write-validate makes data visible"
        );
    }

    #[test]
    fn stats_classify_merges_as_misses() {
        let mut b = bank();
        let w = win(&b);
        let _ = b.read(&rd(0x100, 1), w);
        let _ = b.read(&rd(0x100, 2), w);
        let s = b.cache().stats().get(S, DataClass::Compute);
        assert_eq!(s.accesses, 2);
        assert_eq!(s.misses, 2);
        assert_eq!(s.hits, 0);
    }
}
