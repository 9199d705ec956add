//! Miss-status holding registers.
//!
//! One entry per in-flight *sector*; later misses to the same sector merge
//! onto the existing entry instead of generating new traffic. Entry and
//! merge capacities are finite — when either is exhausted the LSU must stall
//! and retry, which is how L1 bandwidth pressure back-propagates into issue
//! stalls (the effect the LoD case study quantifies).

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::io;

use crisp_ckpt::{bad, CheckpointState, Reader, Writer};

use crate::req::ReqToken;

/// Result of asking the MSHR to track a miss.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MshrOutcome {
    /// New entry allocated; the caller must send a fetch to the next level.
    Allocated,
    /// Merged onto an existing in-flight fetch; no new traffic.
    Merged,
    /// Table or merge list full; caller must stall and retry.
    Full,
}

#[derive(Debug, Clone, Default)]
struct Entry {
    waiters: Vec<ReqToken>,
}

crisp_ckpt::wire_struct!(Entry { waiters });

/// Multiply-shift hashing of sector addresses: one multiply by an odd
/// constant, then the well-mixed high half folded onto the low bits the
/// table indexes by (sector addresses have their low five bits clear). The
/// table is looked up on every L1 access. Trace addresses can come from
/// outside the program, but the table never holds more than `max_entries`
/// sectors, so keys chosen to collide cost at most a probe over that many
/// entries: SipHash's resistance to chosen keys is not worth its cost here.
#[derive(Debug, Clone, Copy, Default)]
struct SectorHasher(u64);

impl Hasher for SectorHasher {
    fn write(&mut self, bytes: &[u8]) {
        bytes.iter().for_each(|&b| self.write_u64(b.into()));
    }

    fn write_u64(&mut self, x: u64) {
        self.0 = (self.0 ^ x).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn finish(&self) -> u64 {
        self.0 ^ self.0 >> 32
    }
}

/// The MSHR table, keyed by sector address.
#[derive(Debug, Clone)]
pub struct Mshr {
    entries: HashMap<u64, Entry, BuildHasherDefault<SectorHasher>>,
    max_entries: usize,
    max_merges: usize,
    /// Cleared waiter lists handed back through [`Mshr::recycle`], reused
    /// by the next allocation so the steady state allocates nothing.
    spare: Vec<Vec<ReqToken>>,
}

impl Mshr {
    /// A table with `max_entries` distinct in-flight sectors and up to
    /// `max_merges` waiters per sector.
    pub fn new(max_entries: usize, max_merges: usize) -> Self {
        assert!(max_entries > 0 && max_merges > 0);
        Mshr {
            entries: HashMap::default(),
            max_entries,
            max_merges,
            spare: Vec::new(),
        }
    }

    /// Track a miss on `sector_addr` for `token`.
    pub fn on_miss(&mut self, sector_addr: u64, token: ReqToken) -> MshrOutcome {
        if let Some(e) = self.entries.get_mut(&sector_addr) {
            if e.waiters.len() >= self.max_merges {
                return MshrOutcome::Full;
            }
            e.waiters.push(token);
            return MshrOutcome::Merged;
        }
        if self.entries.len() >= self.max_entries {
            return MshrOutcome::Full;
        }
        let mut waiters = self
            .spare
            .pop()
            .unwrap_or_else(|| Vec::with_capacity(self.max_merges));
        waiters.push(token);
        self.entries.insert(sector_addr, Entry { waiters });
        MshrOutcome::Allocated
    }

    /// A fill for `sector_addr` arrived; returns every waiting token.
    pub fn on_fill(&mut self, sector_addr: u64) -> Vec<ReqToken> {
        self.entries
            .remove(&sector_addr)
            .map(|e| e.waiters)
            .unwrap_or_default()
    }

    /// Hand a waiter list from [`Mshr::on_fill`] back for reuse.
    pub(crate) fn recycle(&mut self, mut waiters: Vec<ReqToken>) {
        if self.spare.len() < self.max_entries {
            waiters.clear();
            self.spare.push(waiters);
        }
    }

    /// Whether a fetch for `sector_addr` is already in flight.
    pub fn is_pending(&self, sector_addr: u64) -> bool {
        self.entries.contains_key(&sector_addr)
    }

    /// Whether a miss on `sector_addr` could be tracked right now (either a
    /// new entry fits or the pending entry still has merge capacity). Lets
    /// callers test for a stall *before* touching cache statistics.
    pub fn can_accept(&self, sector_addr: u64) -> bool {
        match self.entries.get(&sector_addr) {
            Some(e) => e.waiters.len() < self.max_merges,
            None => self.entries.len() < self.max_entries,
        }
    }

    /// Number of in-flight sectors.
    pub fn in_flight(&self) -> usize {
        self.entries.len()
    }
}

impl CheckpointState for Mshr {
    /// `(max_entries, max_merges, n_sms)` from the configuration; every
    /// waiting token must name an existing SM.
    type RestoreCtx<'a> = (usize, usize, usize);

    fn save<W: io::Write>(&self, w: &mut Writer<W>) -> io::Result<()> {
        // The entry map is keyed-access only; the codec writes it sorted by
        // sector so the byte stream is deterministic.
        w.put(&self.entries)
    }

    fn restore<R: io::Read>(
        r: &mut Reader<R>,
        (max_entries, max_merges, n_sms): (usize, usize, usize),
    ) -> io::Result<Self> {
        if max_entries == 0 || max_merges == 0 {
            return Err(bad("mshr capacities must be positive"));
        }
        // Read as a list, not a map, so a duplicated sector is caught.
        let entries: Vec<(u64, Entry)> = r.get()?;
        if entries.len() > max_entries {
            return Err(bad(format!(
                "{} mshr entries exceed {max_entries}",
                entries.len()
            )));
        }
        let mut map = HashMap::with_capacity_and_hasher(entries.len(), Default::default());
        for (sector, entry) in entries {
            // A live entry always holds the miss that allocated it; an empty
            // one would fill without waking anyone, stranding a sleeping SM.
            if entry.waiters.is_empty() {
                return Err(bad("mshr entry has no waiters"));
            }
            if entry.waiters.len() > max_merges {
                return Err(bad(format!(
                    "{} mshr waiters exceed {max_merges}",
                    entry.waiters.len()
                )));
            }
            for t in &entry.waiters {
                t.check_sm(n_sms)?;
            }
            if map.insert(sector, entry).is_some() {
                return Err(bad("duplicate mshr sector"));
            }
        }
        Ok(Mshr {
            entries: map,
            max_entries,
            max_merges,
            spare: Vec::new(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tok(id: u64) -> ReqToken {
        ReqToken { sm: 0, id }
    }

    #[test]
    fn allocate_then_merge_then_fill() {
        let mut m = Mshr::new(4, 4);
        assert_eq!(m.on_miss(0x100, tok(1)), MshrOutcome::Allocated);
        assert_eq!(m.on_miss(0x100, tok(2)), MshrOutcome::Merged);
        assert!(m.is_pending(0x100));
        assert_eq!(m.in_flight(), 1);
        let waiters = m.on_fill(0x100);
        assert_eq!(waiters, vec![tok(1), tok(2)]);
        assert!(!m.is_pending(0x100));
    }

    #[test]
    fn recycled_waiter_lists_are_reused() {
        let mut m = Mshr::new(4, 4);
        let _ = m.on_miss(0x100, tok(1));
        let _ = m.on_miss(0x100, tok(2));
        let waiters = m.on_fill(0x100);
        let ptr = waiters.as_ptr();
        m.recycle(waiters);
        assert_eq!(m.on_miss(0x200, tok(3)), MshrOutcome::Allocated);
        let again = m.on_fill(0x200);
        assert_eq!(again, vec![tok(3)], "a recycled list starts empty");
        assert_eq!(again.as_ptr(), ptr, "and reuses the returned buffer");
    }

    #[test]
    fn entry_capacity_limits_distinct_sectors() {
        let mut m = Mshr::new(2, 8);
        assert_eq!(m.on_miss(0x000, tok(1)), MshrOutcome::Allocated);
        assert_eq!(m.on_miss(0x020, tok(2)), MshrOutcome::Allocated);
        assert_eq!(m.on_miss(0x040, tok(3)), MshrOutcome::Full);
        // Merging onto existing entries still works when the table is full.
        assert_eq!(m.on_miss(0x000, tok(4)), MshrOutcome::Merged);
    }

    #[test]
    fn merge_capacity_limits_waiters() {
        let mut m = Mshr::new(4, 2);
        assert_eq!(m.on_miss(0x0, tok(1)), MshrOutcome::Allocated);
        assert_eq!(m.on_miss(0x0, tok(2)), MshrOutcome::Merged);
        assert_eq!(m.on_miss(0x0, tok(3)), MshrOutcome::Full);
    }

    #[test]
    fn restore_rejects_an_entry_without_waiters() {
        let mut buf = Vec::new();
        Writer::new(&mut buf)
            .put(&vec![(0x100u64, Entry::default())])
            .unwrap();
        let err = Mshr::restore(&mut Reader::new(buf.as_slice()), (4, 4, 1)).unwrap_err();
        assert!(err.to_string().contains("no waiters"), "{err}");

        let mut m = Mshr::new(4, 4);
        let _ = m.on_miss(0x100, tok(1));
        let mut buf = Vec::new();
        m.save(&mut Writer::new(&mut buf)).unwrap();
        let back = Mshr::restore(&mut Reader::new(buf.as_slice()), (4, 4, 1)).unwrap();
        assert!(back.is_pending(0x100), "a live entry round-trips");
    }

    #[test]
    fn fill_of_untracked_sector_returns_empty() {
        let mut m = Mshr::new(2, 2);
        assert!(m.on_fill(0xdead).is_empty());
    }
}
