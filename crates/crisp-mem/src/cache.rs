//! Sectored set-associative cache tag array.
//!
//! 128 B lines split into four 32 B sectors, matching NVIDIA's L1/L2
//! organisation modelled by Accel-Sim: tags are allocated per line but data
//! is fetched and validated per sector, so a "line hit, sector miss" fetches
//! only the missing sector.

use std::io;

use crisp_ckpt::{bad, CheckpointState, Reader, Wire, Writer};
use crisp_trace::{DataClass, StreamId, LINE_BYTES};

use crate::req::MemReq;
use crate::stats::{CompositionSnapshot, MemStats};

/// Size/associativity of a cache. Line size is fixed at 128 B.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheGeometry {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Ways per set.
    pub assoc: u32,
}

impl CacheGeometry {
    /// Number of sets.
    ///
    /// # Panics
    ///
    /// Panics if the capacity is not a whole number of `assoc`-way sets.
    pub fn sets(&self) -> u64 {
        let denom = LINE_BYTES * self.assoc as u64;
        assert!(
            self.size_bytes.is_multiple_of(denom) && self.size_bytes > 0,
            "capacity {}B is not a multiple of assoc*line ({}B)",
            self.size_bytes,
            denom
        );
        self.size_bytes / denom
    }

    /// Total line capacity.
    pub fn lines(&self) -> u64 {
        self.size_bytes / LINE_BYTES
    }
}

/// Victim-selection policy within a set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Replacement {
    /// Evict the least-recently-used way (the paper's baseline: "The
    /// baseline cache replacement policy, LRU, is efficient enough").
    Lru,
    /// Evict a pseudo-random way (cheap hardware approximation; GPUs often
    /// ship non-LRU L2s). Deterministic: derived from the access clock.
    Random,
}

/// How an access intends to use the line (read or write).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// Load: needs the sector's data.
    Read,
    /// Store with write-validate semantics: the sector becomes valid and
    /// dirty without a fill (GPGPU-Sim's lazy-fetch-on-read policy).
    WriteValidate,
    /// Store that updates the sector only if present (L1 write-through,
    /// no-allocate).
    WriteNoAllocate,
}

/// Result of probing the tag array.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessOutcome {
    /// Tag and sector present.
    Hit,
    /// Tag present but the sector is invalid: fetch one sector.
    SectorMiss,
    /// Tag absent: a fill will allocate (possibly evicting).
    LineMiss,
}

#[derive(Debug, Clone, Copy)]
struct Line {
    tag: u64,
    valid_sectors: u8,
    dirty_sectors: u8,
    last_use: u64,
    owner_stream: StreamId,
    owner_class: DataClass,
}

impl Line {
    const INVALID: Line = Line {
        tag: u64::MAX,
        valid_sectors: 0,
        dirty_sectors: 0,
        last_use: 0,
        owner_stream: StreamId(u32::MAX),
        owner_class: DataClass::Compute,
    };

    fn is_valid(&self) -> bool {
        self.valid_sectors != 0
    }
}

/// A dirty-line writeback produced by an eviction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Writeback {
    /// Line address of the evicted line.
    pub line_addr: u64,
    /// Number of dirty sectors to write to the next level.
    pub dirty_sectors: u32,
    /// Stream that owned the line (its bandwidth is charged).
    pub stream: StreamId,
}

/// The tag array plus LRU state and statistics.
///
/// Set-index computation accepts an explicit `(start, count)` set window so
/// the TAP controller can confine a stream to a subset of sets; pass
/// `(0, sets)` for an unpartitioned cache.
#[derive(Debug, Clone)]
pub struct CacheCore {
    geom: CacheGeometry,
    sets: u64,
    lines: Vec<Line>,
    clock: u64,
    stats: MemStats,
    replacement: Replacement,
}

impl CacheCore {
    /// An empty cache with the given geometry and LRU replacement.
    pub fn new(geom: CacheGeometry) -> Self {
        CacheCore::with_replacement(geom, Replacement::Lru)
    }

    /// An empty cache with an explicit replacement policy.
    pub fn with_replacement(geom: CacheGeometry, replacement: Replacement) -> Self {
        let sets = geom.sets();
        CacheCore {
            geom,
            sets,
            lines: vec![Line::INVALID; (sets * geom.assoc as u64) as usize],
            clock: 0,
            stats: MemStats::new(),
            replacement,
        }
    }

    /// Geometry this cache was built with.
    pub fn geometry(&self) -> CacheGeometry {
        self.geom
    }

    /// Total number of sets.
    pub fn num_sets(&self) -> u64 {
        self.sets
    }

    /// Access statistics.
    pub fn stats(&self) -> &MemStats {
        &self.stats
    }

    /// Reset statistics (tags are kept).
    pub fn clear_stats(&mut self) {
        self.stats.clear();
    }

    /// Record an access that merged onto an in-flight MSHR entry without
    /// probing the tag array (counted as an access and a miss).
    pub(crate) fn record_mshr_merge(&mut self, stream: StreamId, class: DataClass) {
        self.stats.record(stream, class, false);
    }

    fn set_index(&self, line_addr: u64, window: (u64, u64)) -> u64 {
        let (start, count) = window;
        debug_assert!(count >= 1 && start + count <= self.sets, "bad set window");
        // Fibonacci (multiplicative) hashing. The L2 bank interleave
        // consumes mid address bits, so a plain modulo (or xor-fold) set
        // index correlates with the bank id and collapses each bank's
        // resident lines onto a handful of sets; the multiplicative hash
        // decorrelates them (GPUs use xor-hash set functions for the same
        // reason).
        let blk = line_addr / LINE_BYTES;
        let h = blk.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 16;
        start + h % count
    }

    fn ways(&mut self, set: u64) -> &mut [Line] {
        let a = self.geom.assoc as usize;
        let base = set as usize * a;
        &mut self.lines[base..base + a]
    }

    /// Probe-and-update for one sector request.
    ///
    /// Records statistics, updates LRU on hits and applies store semantics.
    /// On `WriteValidate` misses the line/sector is allocated immediately and
    /// the outcome still reports the miss so bandwidth can be charged; any
    /// eviction this causes is returned through `fill`-style writeback in
    /// [`CacheCore::write_validate`] — use that method for L2 stores.
    pub fn access(&mut self, req: &MemReq, kind: AccessKind, window: (u64, u64)) -> AccessOutcome {
        self.clock += 1;
        let tag = req.line_addr();
        let sector_bit = 1u8 << req.sector_in_line();
        let set = self.set_index(tag, window);
        let clock = self.clock;
        let ways = self.ways(set);
        let outcome = match ways.iter_mut().find(|l| l.is_valid() && l.tag == tag) {
            Some(line) => {
                if line.valid_sectors & sector_bit != 0 {
                    line.last_use = clock;
                    // Write-validate marks dirty; write-through (no-allocate)
                    // keeps the line clean — the data is forwarded to the
                    // next level, so a later eviction must not re-send it.
                    if matches!(kind, AccessKind::WriteValidate) {
                        line.dirty_sectors |= sector_bit;
                    }
                    AccessOutcome::Hit
                } else {
                    line.last_use = clock;
                    AccessOutcome::SectorMiss
                }
            }
            None => AccessOutcome::LineMiss,
        };
        self.stats
            .record(req.stream, req.class, outcome == AccessOutcome::Hit);
        outcome
    }

    /// Install one sector (a fill returning from the next level, or a
    /// write-validate allocation). Returns the writeback of the victim line
    /// if a dirty line had to be evicted.
    pub fn fill(
        &mut self,
        line_addr: u64,
        sector: u64,
        stream: StreamId,
        class: DataClass,
        dirty: bool,
        window: (u64, u64),
    ) -> Option<Writeback> {
        self.clock += 1;
        let sector_bit = 1u8 << sector;
        let set = self.set_index(line_addr, window);
        let clock = self.clock;
        {
            let ways = self.ways(set);
            // Sector fill into an already-resident line.
            if let Some(line) = ways.iter_mut().find(|l| l.is_valid() && l.tag == line_addr) {
                line.valid_sectors |= sector_bit;
                if dirty {
                    line.dirty_sectors |= sector_bit;
                }
                line.last_use = clock;
                return None;
            }
        }
        // Allocate: prefer an invalid way, else evict per the policy.
        let replacement = self.replacement;
        let ways = self.ways(set);
        let victim = if let Some(inv) = ways.iter().position(|l| !l.is_valid()) {
            &mut ways[inv]
        } else {
            match replacement {
                Replacement::Lru => ways
                    .iter_mut()
                    .min_by_key(|l| l.last_use)
                    .expect("associativity >= 1"),
                Replacement::Random => {
                    // Deterministic pseudo-random way from the clock.
                    let n = ways.len();
                    let idx = (clock.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize % n;
                    &mut ways[idx]
                }
            }
        };
        let wb = if victim.is_valid() && victim.dirty_sectors != 0 {
            Some(Writeback {
                line_addr: victim.tag,
                dirty_sectors: victim.dirty_sectors.count_ones(),
                stream: victim.owner_stream,
            })
        } else {
            None
        };
        *victim = Line {
            tag: line_addr,
            valid_sectors: sector_bit,
            dirty_sectors: if dirty { sector_bit } else { 0 },
            last_use: clock,
            owner_stream: stream,
            owner_class: class,
        };
        wb
    }

    /// Apply a write with write-validate (allocate-on-write) semantics; used
    /// by the L2. Returns `(was_hit, eviction writeback)`.
    pub fn write_validate(
        &mut self,
        req: &MemReq,
        window: (u64, u64),
    ) -> (bool, Option<Writeback>) {
        let out = self.access(req, AccessKind::WriteValidate, window);
        match out {
            AccessOutcome::Hit => (true, None),
            AccessOutcome::SectorMiss | AccessOutcome::LineMiss => {
                let wb = self.fill(
                    req.line_addr(),
                    req.sector_in_line(),
                    req.stream,
                    req.class,
                    true,
                    window,
                );
                (false, wb)
            }
        }
    }

    /// Invalidate every line (statistics are kept).
    pub fn invalidate_all(&mut self) {
        for l in &mut self.lines {
            *l = Line::INVALID;
        }
    }

    /// Snapshot the composition of valid lines by `(stream, class)` owner —
    /// the measurement behind the paper's Figures 11 and 15.
    pub fn composition(&self) -> CompositionSnapshot {
        let mut c = CompositionSnapshot::new(self.geom.lines());
        for l in &self.lines {
            if l.is_valid() {
                c.add_line(l.owner_stream, l.owner_class);
            }
        }
        c
    }
}

impl Wire for Replacement {
    fn put<W: io::Write>(&self, w: &mut Writer<W>) -> io::Result<()> {
        w.put(&match self {
            Replacement::Lru => 0u8,
            Replacement::Random => 1,
        })
    }

    fn get<R: io::Read>(r: &mut Reader<R>) -> io::Result<Self> {
        match r.get::<u8>()? {
            0 => Ok(Replacement::Lru),
            1 => Ok(Replacement::Random),
            t => Err(bad(format!("unknown replacement policy tag {t}"))),
        }
    }
}

crisp_ckpt::wire_struct!(Line {
    tag,
    valid_sectors,
    dirty_sectors,
    last_use,
    owner_stream,
    owner_class
});

impl CheckpointState for CacheCore {
    /// Geometry and replacement policy come from the configuration stored
    /// once at the top of the checkpoint, not per cache.
    type RestoreCtx<'a> = (CacheGeometry, Replacement);

    fn save<W: io::Write>(&self, w: &mut Writer<W>) -> io::Result<()> {
        w.put(&self.lines)?;
        // The access clock drives LRU ages and the deterministic Random
        // victim; it must survive bit-exactly.
        w.put(&self.clock)?;
        w.put(&self.stats)
    }

    fn restore<R: io::Read>(
        r: &mut Reader<R>,
        (geom, replacement): (CacheGeometry, Replacement),
    ) -> io::Result<Self> {
        let sets = geom.sets();
        let expected = (sets * geom.assoc as u64) as usize;
        let lines: Vec<Line> = r.get()?;
        if lines.len() != expected {
            return Err(bad(format!(
                "cache has {} lines, geometry implies {expected}",
                lines.len()
            )));
        }
        Ok(CacheCore {
            geom,
            sets,
            lines,
            clock: r.get()?,
            stats: r.get()?,
            replacement,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::req::ReqToken;

    const TOK: ReqToken = ReqToken { sm: 0, id: 0 };
    const S0: StreamId = StreamId(0);

    fn geom_tiny() -> CacheGeometry {
        // 2 sets × 2 ways × 128 B.
        CacheGeometry {
            size_bytes: 512,
            assoc: 2,
        }
    }

    fn rd(addr: u64) -> MemReq {
        MemReq::read(addr, S0, DataClass::Compute, TOK)
    }

    fn full(c: &CacheCore) -> (u64, u64) {
        (0, c.num_sets())
    }

    #[test]
    fn geometry_sets() {
        assert_eq!(
            CacheGeometry {
                size_bytes: 4 << 20,
                assoc: 16
            }
            .sets(),
            2048
        );
        assert_eq!(
            CacheGeometry {
                size_bytes: 4 << 20,
                assoc: 16
            }
            .lines(),
            32768
        );
    }

    #[test]
    #[should_panic(expected = "not a multiple")]
    fn geometry_rejects_ragged_capacity() {
        let _ = CacheGeometry {
            size_bytes: 1000,
            assoc: 3,
        }
        .sets();
    }

    #[test]
    fn miss_then_fill_then_hit() {
        let mut c = CacheCore::new(geom_tiny());
        let w = full(&c);
        let r = rd(0x80);
        assert_eq!(c.access(&r, AccessKind::Read, w), AccessOutcome::LineMiss);
        assert!(c
            .fill(
                r.line_addr(),
                r.sector_in_line(),
                S0,
                DataClass::Compute,
                false,
                w
            )
            .is_none());
        assert_eq!(c.access(&r, AccessKind::Read, w), AccessOutcome::Hit);
        let s = c.stats().get(S0, DataClass::Compute);
        assert_eq!((s.accesses, s.hits, s.misses), (2, 1, 1));
    }

    #[test]
    fn sector_miss_on_resident_line() {
        let mut c = CacheCore::new(geom_tiny());
        let w = full(&c);
        let r0 = rd(0x100); // sector 0 of line 0x100
        let r1 = rd(0x120); // sector 1 of same line
        assert_eq!(c.access(&r0, AccessKind::Read, w), AccessOutcome::LineMiss);
        c.fill(
            r0.line_addr(),
            r0.sector_in_line(),
            S0,
            DataClass::Compute,
            false,
            w,
        );
        assert_eq!(
            c.access(&r1, AccessKind::Read, w),
            AccessOutcome::SectorMiss
        );
        c.fill(
            r1.line_addr(),
            r1.sector_in_line(),
            S0,
            DataClass::Compute,
            false,
            w,
        );
        assert_eq!(c.access(&r1, AccessKind::Read, w), AccessOutcome::Hit);
    }

    #[test]
    fn lru_evicts_oldest() {
        let mut c = CacheCore::new(geom_tiny());
        let w = full(&c);
        // Find three lines that hash to the same set of the 2-way cache.
        let target = c.set_index(0, w);
        let conflicting: Vec<u64> = (0..4096u64)
            .map(|i| i * LINE_BYTES)
            .filter(|&a| c.set_index(a, w) == target)
            .take(3)
            .collect();
        assert_eq!(conflicting.len(), 3, "need three conflicting lines");
        for &a in &conflicting {
            let r = rd(a);
            assert_eq!(c.access(&r, AccessKind::Read, w), AccessOutcome::LineMiss);
            c.fill(r.line_addr(), 0, S0, DataClass::Compute, false, w);
        }
        // First line was LRU and must be gone; the last two must be resident.
        assert_eq!(
            c.access(&rd(conflicting[0]), AccessKind::Read, w),
            AccessOutcome::LineMiss
        );
        assert_eq!(
            c.access(&rd(conflicting[1]), AccessKind::Read, w),
            AccessOutcome::Hit
        );
        assert_eq!(
            c.access(&rd(conflicting[2]), AccessKind::Read, w),
            AccessOutcome::Hit
        );
    }

    #[test]
    fn random_replacement_still_caches() {
        let mut c = CacheCore::with_replacement(geom_tiny(), Replacement::Random);
        let w = full(&c);
        let r = rd(0x80);
        let _ = c.access(&r, AccessKind::Read, w);
        c.fill(
            r.line_addr(),
            r.sector_in_line(),
            S0,
            DataClass::Compute,
            false,
            w,
        );
        assert_eq!(c.access(&r, AccessKind::Read, w), AccessOutcome::Hit);
        // Under conflict pressure it evicts *something* but stays bounded.
        for i in 0..256u64 {
            let q = rd(i * LINE_BYTES);
            if c.access(&q, AccessKind::Read, w) != AccessOutcome::Hit {
                c.fill(q.line_addr(), 0, S0, DataClass::Compute, false, w);
            }
        }
        let comp = c.composition();
        assert!(comp.valid_lines() <= comp.capacity_lines);
        assert!(comp.valid_lines() > 0);
    }

    #[test]
    fn dirty_eviction_produces_writeback() {
        let mut c = CacheCore::new(geom_tiny());
        let w = full(&c);
        // Find three lines hashing to the same set of the 2-way cache.
        let target = c.set_index(0, w);
        let conflicting: Vec<u64> = (0..4096u64)
            .map(|i| i * LINE_BYTES)
            .filter(|&a| c.set_index(a, w) == target)
            .take(3)
            .collect();
        let wr = MemReq::write(conflicting[0], S0, DataClass::Pipeline, TOK);
        let (hit, wb) = c.write_validate(&wr, w);
        assert!(!hit);
        assert!(wb.is_none());
        // Evict it by filling two more lines into the same set.
        let wb1 = c.fill(conflicting[1], 0, S0, DataClass::Compute, false, w);
        assert!(wb1.is_none());
        let wb2 = c.fill(conflicting[2], 0, S0, DataClass::Compute, false, w);
        let wb2 = wb2.expect("dirty line must be written back");
        assert_eq!(wb2.line_addr, conflicting[0]);
        assert_eq!(wb2.dirty_sectors, 1);
        assert_eq!(wb2.stream, S0);
    }

    #[test]
    fn write_validate_hit_marks_dirty_without_writeback() {
        let mut c = CacheCore::new(geom_tiny());
        let w = full(&c);
        let wr = MemReq::write(0x40, S0, DataClass::Pipeline, TOK);
        let _ = c.write_validate(&wr, w);
        let (hit, wb) = c.write_validate(&wr, w);
        assert!(hit);
        assert!(wb.is_none());
    }

    #[test]
    fn set_window_confines_indexing() {
        // 8-set cache; restrict a stream to sets [4, 8).
        let mut c = CacheCore::new(CacheGeometry {
            size_bytes: 8 * 2 * 128,
            assoc: 2,
        });
        let win = (4, 4);
        for i in 0..64u64 {
            let r = rd(i * LINE_BYTES);
            let _ = c.access(&r, AccessKind::Read, win);
            c.fill(r.line_addr(), 0, S0, DataClass::Compute, false, win);
        }
        // Sets 0..4 must still be empty: a probe over the full range for an
        // address that would map there must be a line miss AND the
        // composition must show at most 4 sets × 2 ways = 8 valid lines.
        assert!(c.composition().valid_lines() <= 8);
    }

    #[test]
    fn composition_tracks_owner() {
        let mut c = CacheCore::new(geom_tiny());
        let w = full(&c);
        c.fill(0x000, 0, StreamId(0), DataClass::Texture, false, w);
        c.fill(0x100, 0, StreamId(1), DataClass::Compute, false, w);
        let comp = c.composition();
        assert_eq!(comp.valid_lines(), 2);
        assert_eq!(comp.class_lines(DataClass::Texture), 1);
        assert_eq!(comp.stream_lines(StreamId(1)), 1);
        assert_eq!(comp.capacity_lines, 4);
    }

    #[test]
    fn invalidate_all_clears_tags_not_stats() {
        let mut c = CacheCore::new(geom_tiny());
        let w = full(&c);
        let r = rd(0);
        let _ = c.access(&r, AccessKind::Read, w);
        c.fill(0, 0, S0, DataClass::Compute, false, w);
        c.invalidate_all();
        assert_eq!(c.composition().valid_lines(), 0);
        assert_eq!(c.stats().total().accesses, 1);
        assert_eq!(c.access(&r, AccessKind::Read, w), AccessOutcome::LineMiss);
    }
}
