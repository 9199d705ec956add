//! The MSHR-fronted sector cache, used for the L1s and every L2 bank.
//!
//! A [`SectorCache`] owns a sectored tag array ([`CacheCore`]) and the
//! miss-status holding registers in front of it: one entry per in-flight
//! *sector*, onto which later misses to the same sector merge instead of
//! generating new traffic. Entry and merge capacities are finite — when
//! either is exhausted the access stalls and is retried, which is how L1
//! bandwidth pressure back-propagates into issue stalls (the effect the LoD
//! case study quantifies) and how L2 pressure backs up the crossbar.
//!
//! [`SectorCache::read`] is the one sector read protocol of the hierarchy.
//! It looks the sector up in the MSHR table once and then:
//!
//! 1. stalls, touching neither statistics nor tags, if the table (for a new
//!    sector) or the sector's merge list is full;
//! 2. merges onto the pending fetch and counts one miss;
//! 3. otherwise probes the tags, and on a miss allocates an entry through
//!    the same lookup.

use std::collections::hash_map::Entry;
use std::io;

use crisp_ckpt::{bad, CheckpointState, Reader, Writer};
use crisp_trace::{AddrHashMap, DataClass, StreamId, LINE_BYTES, SECTOR_BYTES};

use crate::cache::{AccessKind, AccessOutcome, CacheCore, CacheGeometry, Replacement, Writeback};
use crate::req::{MemReq, ReqToken};

/// Result of presenting a sector read to a [`SectorCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadOutcome {
    /// Sector present.
    Hit,
    /// Miss with a new MSHR entry: the caller must fetch the sector from
    /// the next level.
    Miss,
    /// Miss merged onto an in-flight fetch; no new traffic.
    Merged,
    /// MSHR table or the sector's merge list full; retry next cycle.
    Stall,
}

/// A sectored tag array behind its MSHR table.
#[derive(Debug, Clone)]
pub struct SectorCache {
    tags: CacheCore,
    /// Waiting tokens per in-flight sector, oldest first. The table never
    /// holds more than `max_entries` sectors, so keys chosen to collide
    /// cost at most a probe over that many entries.
    mshr: AddrHashMap<u64, Vec<ReqToken>>,
    max_entries: usize,
    max_merges: usize,
    /// Cleared waiter lists handed back through [`SectorCache::recycle`],
    /// reused by the next allocation so the steady state allocates nothing.
    spare: Vec<Vec<ReqToken>>,
}

impl SectorCache {
    /// An empty cache with up to `max_entries` distinct in-flight sectors
    /// and `max_merges` waiters per sector.
    pub fn new(
        geom: CacheGeometry,
        replacement: Replacement,
        max_entries: usize,
        max_merges: usize,
    ) -> Self {
        assert!(max_entries > 0 && max_merges > 0);
        SectorCache {
            tags: CacheCore::with_replacement(geom, replacement),
            mshr: AddrHashMap::default(),
            max_entries,
            max_merges,
            spare: Vec::new(),
        }
    }

    /// The tag array (statistics, composition, stores).
    pub fn tags(&self) -> &CacheCore {
        &self.tags
    }

    /// Mutable access to the tag array (stores, statistics resets).
    pub fn tags_mut(&mut self) -> &mut CacheCore {
        &mut self.tags
    }

    /// Present a read of `req`'s sector; `window` is the set window of the
    /// requesting stream (`(0, sets)` when unpartitioned).
    pub fn read(&mut self, req: &MemReq, window: (u64, u64)) -> ReadOutcome {
        let table_full = self.mshr.len() >= self.max_entries;
        match self.mshr.entry(req.addr) {
            Entry::Occupied(mut e) => {
                let waiters = e.get_mut();
                if waiters.len() >= self.max_merges {
                    return ReadOutcome::Stall;
                }
                // The sector is already on its way; this access waits with
                // it. Counted as a miss for hit-rate purposes.
                waiters.push(req.token);
                self.tags.record_mshr_merge(req.stream, req.class);
                ReadOutcome::Merged
            }
            Entry::Vacant(_) if table_full => ReadOutcome::Stall,
            Entry::Vacant(slot) => match self.tags.access(req, AccessKind::Read, window) {
                AccessOutcome::Hit => ReadOutcome::Hit,
                AccessOutcome::SectorMiss | AccessOutcome::LineMiss => {
                    let mut waiters = self
                        .spare
                        .pop()
                        .unwrap_or_else(|| Vec::with_capacity(self.max_merges));
                    waiters.push(req.token);
                    slot.insert(waiters);
                    ReadOutcome::Miss
                }
            },
        }
    }

    /// Whether a read of `sector_addr` would be accepted right now:
    /// [`SectorCache::read`] stalls exactly when this is false.
    pub fn can_accept(&self, sector_addr: u64) -> bool {
        match self.mshr.get(&sector_addr) {
            Some(waiters) => waiters.len() < self.max_merges,
            None => self.mshr.len() < self.max_entries,
        }
    }

    /// The fetch of `sector_addr` returned: install the sector (clean) and
    /// return `(every waiting token, victim writeback)`. Hand the token list
    /// back through [`SectorCache::recycle`] once it is consumed.
    pub fn fill(
        &mut self,
        sector_addr: u64,
        stream: StreamId,
        class: DataClass,
        window: (u64, u64),
    ) -> (Vec<ReqToken>, Option<Writeback>) {
        let line = sector_addr & !(LINE_BYTES - 1);
        let sector = (sector_addr % LINE_BYTES) / SECTOR_BYTES;
        let wb = self.tags.fill(line, sector, stream, class, false, window);
        (self.mshr.remove(&sector_addr).unwrap_or_default(), wb)
    }

    /// Hand a waiter list from [`SectorCache::fill`] back for reuse.
    pub fn recycle(&mut self, mut waiters: Vec<ReqToken>) {
        if self.spare.len() < self.max_entries {
            waiters.clear();
            self.spare.push(waiters);
        }
    }

    /// Sectors awaiting a fill.
    pub fn in_flight(&self) -> usize {
        self.mshr.len()
    }

    /// Functionally warm one read: probe the tags and install the sector at
    /// once on a miss, with no MSHR entry and no timing. Returns whether the
    /// read missed, so the caller can warm the next level too. Used by
    /// fast-forward mode.
    pub fn warm_read(&mut self, req: &MemReq, window: (u64, u64)) -> bool {
        if self.tags.access(req, AccessKind::Read, window) == AccessOutcome::Hit {
            return false;
        }
        let (line, sector) = (req.line_addr(), req.sector_in_line());
        let _ = self
            .tags
            .fill(line, sector, req.stream, req.class, false, window);
        true
    }
}

impl CheckpointState for SectorCache {
    /// `(geometry, replacement, MSHR entries, waiters per entry, SM count)`
    /// from the configuration; every waiting token must name an existing SM.
    type RestoreCtx<'a> = (CacheGeometry, Replacement, usize, usize, usize);

    fn save<W: io::Write>(&self, w: &mut Writer<W>) -> io::Result<()> {
        self.tags.save(w)?;
        // The table is keyed-access only; the codec writes it sorted by
        // sector so the byte stream is deterministic.
        w.put(&self.mshr)
    }

    fn restore<R: io::Read>(
        r: &mut Reader<R>,
        (geom, replacement, max_entries, max_merges, n_sms): Self::RestoreCtx<'_>,
    ) -> io::Result<Self> {
        if max_entries == 0 || max_merges == 0 {
            return Err(bad("mshr capacities must be positive"));
        }
        let tags = CacheCore::restore(r, (geom, replacement))?;
        // Read as a list, not a map, so a duplicated sector is caught.
        let entries: Vec<(u64, Vec<ReqToken>)> = r.get()?;
        if entries.len() > max_entries {
            return Err(bad(format!(
                "{} mshr entries exceed {max_entries}",
                entries.len()
            )));
        }
        let mut mshr = AddrHashMap::with_capacity_and_hasher(entries.len(), Default::default());
        for (sector, waiters) in entries {
            // A live entry always holds the miss that allocated it; an empty
            // one would fill without waking anyone, stranding a sleeping SM.
            if waiters.is_empty() {
                return Err(bad("mshr entry has no waiters"));
            }
            if waiters.len() > max_merges {
                return Err(bad(format!(
                    "{} mshr waiters exceed {max_merges}",
                    waiters.len()
                )));
            }
            for t in &waiters {
                t.check_sm(n_sms)?;
            }
            if mshr.insert(sector, waiters).is_some() {
                return Err(bad("duplicate mshr sector"));
            }
        }
        Ok(SectorCache {
            tags,
            mshr,
            max_entries,
            max_merges,
            spare: Vec::new(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const S: StreamId = StreamId(0);

    /// The shape of one SM's L1 and of one L2 bank in the unit-test
    /// hierarchies: `(name, geometry, replacement, entries, merges)`.
    const LEVELS: [(&str, CacheGeometry, Replacement, usize, usize); 2] = [
        (
            "L1",
            CacheGeometry {
                size_bytes: 4096,
                assoc: 4,
            },
            Replacement::Lru,
            8,
            8,
        ),
        (
            "L2",
            CacheGeometry {
                size_bytes: 16384,
                assoc: 8,
            },
            Replacement::Lru,
            16,
            crate::l2::L2_MSHR_MERGES,
        ),
    ];

    fn cache(entries: usize, merges: usize) -> SectorCache {
        let (_, geom, replacement, _, _) = LEVELS[0];
        SectorCache::new(geom, replacement, entries, merges)
    }

    fn tok(id: u64) -> ReqToken {
        ReqToken { sm: 0, id }
    }

    fn rd(addr: u64, id: u64) -> MemReq {
        MemReq::read(addr, S, DataClass::Compute, tok(id))
    }

    fn win(c: &SectorCache) -> (u64, u64) {
        (0, c.tags().num_sets())
    }

    fn fill(c: &mut SectorCache, addr: u64) -> Vec<ReqToken> {
        let w = win(c);
        c.fill(addr, S, DataClass::Compute, w).0
    }

    fn saved(c: &SectorCache) -> Vec<u8> {
        let mut buf = Vec::new();
        c.save(&mut Writer::new(&mut buf)).unwrap();
        buf
    }

    #[test]
    fn allocate_then_merge_then_fill() {
        let mut c = cache(4, 4);
        let w = win(&c);
        assert_eq!(c.read(&rd(0x100, 1), w), ReadOutcome::Miss);
        assert_eq!(c.read(&rd(0x100, 2), w), ReadOutcome::Merged);
        assert_eq!(c.in_flight(), 1);
        assert_eq!(fill(&mut c, 0x100), vec![tok(1), tok(2)]);
        assert_eq!(c.in_flight(), 0);
        assert_eq!(c.read(&rd(0x100, 3), w), ReadOutcome::Hit);
    }

    #[test]
    fn recycled_waiter_lists_are_reused() {
        for (level, geom, replacement, entries, merges) in LEVELS {
            let mut c = SectorCache::new(geom, replacement, entries, merges);
            let w = win(&c);
            let _ = c.read(&rd(0x100, 1), w);
            let _ = c.read(&rd(0x100, 2), w);
            let waiters = fill(&mut c, 0x100);
            let ptr = waiters.as_ptr();
            c.recycle(waiters);
            assert_eq!(c.read(&rd(0x200, 3), w), ReadOutcome::Miss, "{level}");
            let again = fill(&mut c, 0x200);
            assert_eq!(again, vec![tok(3)], "{level}: a recycled list starts empty");
            assert_eq!(
                again.as_ptr(),
                ptr,
                "{level}: and reuses the returned buffer"
            );
        }
    }

    #[test]
    fn entry_capacity_limits_distinct_sectors() {
        let mut c = cache(2, 8);
        let w = win(&c);
        assert_eq!(c.read(&rd(0x000, 1), w), ReadOutcome::Miss);
        assert_eq!(c.read(&rd(0x020, 2), w), ReadOutcome::Miss);
        assert_eq!(c.read(&rd(0x040, 3), w), ReadOutcome::Stall);
        // Merging onto existing entries still works when the table is full.
        assert_eq!(c.read(&rd(0x000, 4), w), ReadOutcome::Merged);
    }

    #[test]
    fn merge_capacity_limits_waiters() {
        let mut c = cache(4, 2);
        let w = win(&c);
        assert_eq!(c.read(&rd(0x0, 1), w), ReadOutcome::Miss);
        assert_eq!(c.read(&rd(0x0, 2), w), ReadOutcome::Merged);
        assert_eq!(c.read(&rd(0x0, 3), w), ReadOutcome::Stall);
        assert!(!c.can_accept(0x0));
    }

    /// At both levels: a stall leaves hit/miss statistics, LRU order (line
    /// ages and the access clock) and the table byte-for-byte as they were,
    /// and a merge counts exactly one miss.
    #[test]
    fn stalls_touch_nothing_and_merges_count_one_miss() {
        for (level, geom, replacement, entries, merges) in LEVELS {
            let mut c = SectorCache::new(geom, replacement, entries, merges);
            let w = win(&c);
            // A resident sector (so a stalled read of it would have hit),
            // a table filled with distinct pending sectors, and sector 0x20
            // merged up to its cap.
            let resident = 0x10_0000;
            assert_eq!(c.read(&rd(resident, 0), w), ReadOutcome::Miss);
            fill(&mut c, resident);
            for i in 0..entries as u64 {
                assert_eq!(c.read(&rd(0x20 + i * 0x80, i), w), ReadOutcome::Miss);
            }
            let before = c.tags().stats().total();
            for id in 1..merges as u64 {
                assert_eq!(c.read(&rd(0x20, id), w), ReadOutcome::Merged, "{level}");
            }
            let after = c.tags().stats().total();
            assert_eq!(after.accesses - before.accesses, merges as u64 - 1);
            assert_eq!(after.misses - before.misses, merges as u64 - 1, "{level}");
            assert_eq!(after.hits, before.hits, "{level}: merges never hit");

            let state = saved(&c);
            for (why, addr) in [("full merge list", 0x20), ("full table", resident)] {
                assert!(!c.can_accept(addr), "{level}: {why}");
                assert_eq!(c.read(&rd(addr, 99), w), ReadOutcome::Stall, "{level}");
                assert_eq!(
                    saved(&c),
                    state,
                    "{level}: a stall on a {why} changed state"
                );
            }
        }
    }

    #[test]
    fn restore_rejects_an_entry_without_waiters() {
        let (_, geom, replacement, _, _) = LEVELS[0];
        let restore = |entries: Vec<(u64, Vec<ReqToken>)>| {
            let mut buf = Vec::new();
            let mut w = Writer::new(&mut buf);
            cache(2, 2).tags().save(&mut w).unwrap();
            w.put(&entries).unwrap();
            SectorCache::restore(
                &mut Reader::new(buf.as_slice()),
                (geom, replacement, 2, 2, 1),
            )
        };
        let other_sm = ReqToken { sm: 1, id: 0 };
        for (entries, err) in [
            (vec![(0x100, vec![])], "no waiters"),
            (vec![(0x100, vec![tok(1); 3])], "waiters exceed"),
            (vec![(0, vec![tok(1)]); 3], "entries exceed"),
            (vec![(0x100, vec![tok(1)]); 2], "duplicate"),
            (vec![(0x100, vec![other_sm])], "nonexistent SM"),
        ] {
            let e = restore(entries).unwrap_err().to_string();
            assert!(e.contains(err), "{e}");
        }

        let mut c = cache(4, 4);
        let w = win(&c);
        let _ = c.read(&rd(0x100, 1), w);
        let buf = saved(&c);
        let mut back = SectorCache::restore(
            &mut Reader::new(buf.as_slice()),
            (geom, replacement, 4, 4, 1),
        )
        .unwrap();
        assert_eq!(
            fill(&mut back, 0x100),
            vec![tok(1)],
            "a live entry round-trips"
        );
    }

    #[test]
    fn fill_of_untracked_sector_returns_empty() {
        let mut c = cache(2, 2);
        assert!(fill(&mut c, 0xdead_0000).is_empty());
    }
}
