//! L2 partitioning: MiG bank masks and TAP set partitioning.
//!
//! The paper's Figure 14 compares three ways of sharing the L2 between a
//! rendering stream and a compute stream:
//!
//! * **MPS** — everything shared (no L2 partition at all).
//! * **MiG** — *bank-level* partitioning: "each L2 bank is assigned to only
//!   one workload", which also slices total L2 bandwidth ([`BankMap`]).
//! * **TAP** — "L2 banks are all shared among both workloads, and each bank
//!   is partitioned by assigning sets to each workload. The ratio is
//!   determined by the TAP mechanism" ([`TapController`]).
//!
//! TAP (Lee & Kim, HPCA 2012) is utility-based cache partitioning made
//! TLP-aware: raw utility counters favour whichever client issues more
//! accesses, so marginal utility is normalised by access rate before the
//! allocation is chosen. Our controller uses classic set-sampled UMONs
//! (LRU stack-distance histograms) and a greedy water-filling allocation.

use std::collections::HashMap;
use std::io;

use crisp_ckpt::{bad, Reader, Wire, Writer};
use crisp_trace::{StreamId, LINE_BYTES};

/// Maps addresses to L2 banks, optionally restricting each stream to a bank
/// subset (MiG).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BankMap {
    n_banks: u32,
    /// `None` = all banks shared (MPS/TAP); `Some` = per-stream allowed banks.
    masks: Option<HashMap<StreamId, Vec<u32>>>,
}

/// Address-interleave granularity across L2 banks (bytes).
pub const BANK_INTERLEAVE_BYTES: u64 = 256;

impl BankMap {
    /// All banks shared by every stream.
    pub fn shared(n_banks: u32) -> Self {
        assert!(n_banks > 0);
        BankMap {
            n_banks,
            masks: None,
        }
    }

    /// MiG-style: each stream only uses its listed banks.
    ///
    /// # Panics
    ///
    /// Panics if a mask is empty or references a bank out of range.
    pub fn mig(n_banks: u32, masks: HashMap<StreamId, Vec<u32>>) -> Self {
        assert!(n_banks > 0);
        for (s, m) in &masks {
            assert!(!m.is_empty(), "stream {s} has an empty bank mask");
            assert!(
                m.iter().all(|&b| b < n_banks),
                "bank index out of range for {s}"
            );
        }
        BankMap {
            n_banks,
            masks: Some(masks),
        }
    }

    /// Convenience MiG split of banks into two contiguous halves.
    pub fn mig_even_split(n_banks: u32, a: StreamId, b: StreamId) -> Self {
        assert!(n_banks >= 2, "need at least two banks to split");
        let half = n_banks / 2;
        let mut m = HashMap::new();
        m.insert(a, (0..half).collect());
        m.insert(b, (half..n_banks).collect());
        BankMap::mig(n_banks, m)
    }

    /// Total number of banks.
    pub fn n_banks(&self) -> u32 {
        self.n_banks
    }

    /// Banks `stream` may use.
    pub fn banks_for(&self, stream: StreamId) -> Vec<u32> {
        match &self.masks {
            None => (0..self.n_banks).collect(),
            Some(m) => m
                .get(&stream)
                .cloned()
                .unwrap_or_else(|| (0..self.n_banks).collect()),
        }
    }

    /// The bank servicing `addr` for `stream` (256 B interleave over the
    /// stream's allowed banks).
    pub fn bank_of(&self, stream: StreamId, addr: u64) -> u32 {
        let chunk = addr / BANK_INTERLEAVE_BYTES;
        match &self.masks {
            None => (chunk % self.n_banks as u64) as u32,
            Some(m) => match m.get(&stream) {
                Some(allowed) => allowed[(chunk % allowed.len() as u64) as usize],
                None => (chunk % self.n_banks as u64) as u32,
            },
        }
    }

    /// Compact `addr` into the servicing bank's local address space:
    /// consecutive interleave chunks assigned to one bank become
    /// consecutive locally. DRAM row-buffer locality must be computed on
    /// this address — on the global address, interleaving makes every
    /// in-bank neighbour a different row.
    pub fn local_addr(&self, stream: StreamId, addr: u64) -> u64 {
        let chunk = addr / BANK_INTERLEAVE_BYTES;
        let offset = addr % BANK_INTERLEAVE_BYTES;
        let banks = match &self.masks {
            None => self.n_banks as u64,
            Some(m) => m
                .get(&stream)
                .map_or(self.n_banks as u64, |a| a.len() as u64),
        };
        (chunk / banks) * BANK_INTERLEAVE_BYTES + offset
    }
}

crisp_ckpt::wire_struct!(BankMap { n_banks, masks } check = BankMap::check_restored);

impl BankMap {
    fn check_restored(&self) -> io::Result<()> {
        if self.n_banks == 0 {
            return Err(bad("bank map needs at least one bank"));
        }
        for banks in self.masks.iter().flat_map(HashMap::values) {
            if banks.is_empty() {
                return Err(bad("empty bank mask"));
            }
            if banks.iter().any(|&b| b >= self.n_banks) {
                return Err(bad("bank index out of range"));
            }
        }
        Ok(())
    }
}

/// TAP controller parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TapConfig {
    /// Re-evaluate the allocation after this many observed accesses.
    pub epoch_accesses: u64,
    /// Sample one in `sample_every` sets for the UMON shadow directory.
    pub sample_every: u64,
    /// Minimum sets any stream keeps (the paper observes TAP "assign only
    /// 1 set to HOLO kernels" — the floor is 1 unit).
    pub min_sets: u64,
}

impl Default for TapConfig {
    fn default() -> Self {
        TapConfig {
            epoch_accesses: 100_000,
            sample_every: 16,
            min_sets: 1,
        }
    }
}

/// Per-stream UMON: an LRU stack over sampled sets yielding a stack-distance
/// (hits-per-way) histogram, plus a raw access count for TLP normalisation.
#[derive(Debug, Clone)]
struct Umon {
    stack: Vec<u64>,
    way_hits: Vec<u64>,
    accesses: u64,
    sampled: u64,
}

impl Umon {
    fn new(depth: usize) -> Self {
        Umon {
            stack: Vec::with_capacity(depth),
            way_hits: vec![0; depth],
            accesses: 0,
            sampled: 0,
        }
    }

    fn observe(&mut self, line_addr: u64, sample: bool) {
        self.accesses += 1;
        if !sample {
            return;
        }
        self.sampled += 1;
        if let Some(pos) = self.stack.iter().position(|&a| a == line_addr) {
            self.way_hits[pos] += 1;
            let v = self.stack.remove(pos);
            self.stack.insert(0, v);
        } else {
            if self.stack.len() == self.stack.capacity() {
                self.stack.pop();
            }
            self.stack.insert(0, line_addr);
        }
    }

    /// Utility of growing from `w` ways: hits at stack distances `>= w`,
    /// normalised by access rate (TAP's TLP-aware normalisation). Using the
    /// look-ahead sum instead of a single way's counter is UCP's standard
    /// fix for plateaued utility curves.
    fn marginal_utility(&self, w: usize) -> f64 {
        if self.accesses == 0 {
            return 0.0;
        }
        let remaining: u64 = self.way_hits[w.min(self.way_hits.len() - 1)..].iter().sum();
        remaining as f64 / self.accesses as f64
    }

    fn decay(&mut self) {
        for h in &mut self.way_hits {
            *h /= 2;
        }
        self.accesses /= 2;
        self.sampled /= 2;
    }
}

impl Wire for Umon {
    fn put<W: io::Write>(&self, w: &mut Writer<W>) -> io::Result<()> {
        // The stack capacity doubles as the UMON depth (observe evicts when
        // len == capacity), so record it explicitly.
        w.put(&self.way_hits.len())?;
        w.put(&self.stack)?;
        self.way_hits.iter().try_for_each(|h| w.put(h))?;
        w.put(&self.accesses)?;
        w.put(&self.sampled)
    }

    fn get<R: io::Read>(r: &mut Reader<R>) -> io::Result<Self> {
        let depth: usize = r.get()?;
        if depth == 0 || depth > 1 << 16 {
            return Err(bad(format!("bad umon depth {depth}")));
        }
        let sampled_lines: Vec<u64> = r.get()?;
        if sampled_lines.len() > depth {
            return Err(bad("umon stack deeper than its depth"));
        }
        // Rebuild exactly as `Umon::new` does so the eviction-triggering
        // capacity matches the original.
        let mut stack = Vec::with_capacity(depth);
        stack.extend(sampled_lines);
        Ok(Umon {
            stack,
            way_hits: (0..depth).map(|_| r.get()).collect::<io::Result<_>>()?,
            accesses: r.get()?,
            sampled: r.get()?,
        })
    }
}

/// The TAP set-partition controller for one L2 (all banks share the ratio).
#[derive(Debug, Clone)]
pub struct TapController {
    cfg: TapConfig,
    sets_per_bank: u64,
    assoc: usize,
    streams: Vec<StreamId>,
    umons: HashMap<StreamId, Umon>,
    windows: HashMap<StreamId, (u64, u64)>,
    since_epoch: u64,
    repartitions: u64,
}

impl TapController {
    /// A controller partitioning `sets_per_bank` sets among `streams`,
    /// starting from an even split.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two streams are given or the sets cannot cover
    /// the minimum allocation.
    pub fn new(streams: Vec<StreamId>, sets_per_bank: u64, assoc: u32, cfg: TapConfig) -> Self {
        assert!(
            streams.len() >= 2,
            "TAP partitions between at least two streams"
        );
        assert!(
            sets_per_bank >= cfg.min_sets * streams.len() as u64,
            "not enough sets for the minimum allocation"
        );
        let umons = streams
            .iter()
            .map(|&s| (s, Umon::new(assoc as usize)))
            .collect();
        let mut tap = TapController {
            cfg,
            sets_per_bank,
            assoc: assoc as usize,
            streams,
            umons,
            windows: HashMap::new(),
            since_epoch: 0,
            repartitions: 0,
        };
        tap.apply_allocation(&tap.even_allocation());
        tap
    }

    fn even_allocation(&self) -> Vec<u64> {
        let n = self.streams.len() as u64;
        let base = self.sets_per_bank / n;
        let mut v = vec![base; self.streams.len()];
        v[0] += self.sets_per_bank - base * n;
        v
    }

    fn apply_allocation(&mut self, sets: &[u64]) {
        debug_assert_eq!(sets.iter().sum::<u64>(), self.sets_per_bank);
        let mut start = 0;
        self.windows.clear();
        for (s, &n) in self.streams.iter().zip(sets) {
            self.windows.insert(*s, (start, n));
            start += n;
        }
    }

    /// Record one L2 access (pre-indexing) so the UMONs learn utility.
    pub fn observe(&mut self, stream: StreamId, line_addr: u64) {
        let sample = (line_addr / LINE_BYTES).is_multiple_of(self.cfg.sample_every);
        if let Some(u) = self.umons.get_mut(&stream) {
            u.observe(line_addr, sample);
        }
        self.since_epoch += 1;
        if self.since_epoch >= self.cfg.epoch_accesses {
            self.repartition();
            self.since_epoch = 0;
        }
    }

    /// Greedy water-filling over TLP-normalised marginal utilities, then
    /// scale way units to set counts.
    fn repartition(&mut self) {
        let n = self.streams.len();
        // TAP's core-sampling insight: a client whose performance does not
        // depend on the cache should not receive capacity, however good
        // its per-access hit curve looks. We proxy cache-sensitivity by
        // memory intensity: a stream issuing a small fraction of the
        // traffic (e.g. the compute-bound HOLO) has its utility scaled
        // down, so the memory-hungry rendering stream wins the capacity
        // (paper Figure 15: "TAP allocates most cache lines to rendering
        // because HOLO is compute-bounded").
        let max_acc = self
            .umons
            .values()
            .map(|u| u.accesses)
            .max()
            .unwrap_or(0)
            .max(1);
        let weight = |s: &StreamId| self.umons[s].accesses as f64 / max_acc as f64;
        let mut units = vec![1usize; n]; // everyone keeps >= 1 unit
        let total_units = self.assoc.max(n);
        for _ in n..total_units {
            let best = (0..n)
                .max_by(|&a, &b| {
                    let sa = self.streams[a];
                    let sb = self.streams[b];
                    let ua = self.umons[&sa].marginal_utility(units[a].min(self.assoc - 1))
                        * weight(&sa);
                    let ub = self.umons[&sb].marginal_utility(units[b].min(self.assoc - 1))
                        * weight(&sb);
                    // Residual ties go to the stream with the higher access
                    // rate — idle capacity helps the client that actually
                    // touches the cache.
                    ua.partial_cmp(&ub)
                        .unwrap_or(std::cmp::Ordering::Equal)
                        .then(self.umons[&sa].accesses.cmp(&self.umons[&sb].accesses))
                })
                .expect("at least one stream");
            units[best] += 1;
        }
        // Convert unit shares to set counts with a per-stream floor.
        let min = self.cfg.min_sets;
        let avail = self.sets_per_bank - min * n as u64;
        let unit_sum: usize = units.iter().sum();
        let mut sets: Vec<u64> = units
            .iter()
            .map(|&u| min + (avail as f64 * u as f64 / unit_sum as f64).floor() as u64)
            .collect();
        let mut leftover = self.sets_per_bank - sets.iter().sum::<u64>();
        let mut i = 0;
        while leftover > 0 {
            sets[i % n] += 1;
            leftover -= 1;
            i += 1;
        }
        self.apply_allocation(&sets);
        for u in self.umons.values_mut() {
            u.decay();
        }
        self.repartitions += 1;
    }

    /// The current set window (start, count) for `stream`.
    pub fn window(&self, stream: StreamId) -> (u64, u64) {
        self.windows
            .get(&stream)
            .copied()
            .unwrap_or((0, self.sets_per_bank))
    }

    /// Current allocation as (stream, sets) pairs in stream order.
    pub fn allocation(&self) -> Vec<(StreamId, u64)> {
        self.streams
            .iter()
            .map(|&s| (s, self.windows[&s].1))
            .collect()
    }

    /// Number of completed repartition epochs.
    pub fn repartitions(&self) -> u64 {
        self.repartitions
    }
}

crisp_ckpt::wire_struct!(TapConfig {
    epoch_accesses,
    sample_every,
    min_sets
});

impl Wire for TapController {
    fn put<W: io::Write>(&self, w: &mut Writer<W>) -> io::Result<()> {
        w.put(&self.cfg)?;
        w.put(&self.sets_per_bank)?;
        w.put(&self.assoc)?;
        // Umons and windows are keyed by stream; walking `streams` (the
        // canonical order) covers every entry deterministically.
        w.seq(&self.streams, |w, s| {
            w.put(s)?;
            w.put(&self.umons[s])?;
            w.put(&self.windows[s])
        })?;
        w.put(&self.since_epoch)?;
        w.put(&self.repartitions)
    }

    fn get<R: io::Read>(r: &mut Reader<R>) -> io::Result<Self> {
        let cfg: TapConfig = r.get()?;
        let sets_per_bank: u64 = r.get()?;
        let assoc: usize = r.get()?;
        if assoc == 0 || assoc > 1 << 16 {
            return Err(bad(format!("bad TAP associativity {assoc}")));
        }
        let entries: Vec<(StreamId, Umon, (u64, u64))> = r.get()?;
        if entries.len() < 2 {
            return Err(bad("TAP controller needs at least two streams"));
        }
        // Repartitioning hands every stream at least `min_sets` sets.
        if (entries.len() as u64)
            .checked_mul(cfg.min_sets)
            .is_none_or(|floor| floor > sets_per_bank)
        {
            return Err(bad("TAP minimum allocation exceeds the sets"));
        }
        let mut streams = Vec::with_capacity(entries.len());
        let mut umons = HashMap::with_capacity(entries.len());
        let mut windows = HashMap::with_capacity(entries.len());
        for (s, u, (start, count)) in entries {
            if umons.contains_key(&s) {
                return Err(bad("duplicate TAP stream"));
            }
            if count == 0
                || start
                    .checked_add(count)
                    .is_none_or(|end| end > sets_per_bank)
            {
                return Err(bad("TAP window out of range"));
            }
            streams.push(s);
            umons.insert(s, u);
            windows.insert(s, (start, count));
        }
        Ok(TapController {
            cfg,
            sets_per_bank,
            assoc,
            streams,
            umons,
            windows,
            since_epoch: r.get()?,
            repartitions: r.get()?,
        })
    }
}

/// How L2 sets are divided among streams.
#[derive(Debug, Clone)]
pub enum SetPartition {
    /// All sets shared (MPS and MiG — MiG isolates at bank granularity).
    Shared,
    /// Fixed per-stream windows.
    Static(HashMap<StreamId, (u64, u64)>),
    /// TAP-controlled dynamic windows.
    Tap(TapController),
}

impl SetPartition {
    /// Reject restored windows that do not fit a bank of `sets` sets; set
    /// indexing divides by a window's size and asserts it fits.
    pub(crate) fn check_restored(&self, sets: u64) -> io::Result<()> {
        let fits = |&(start, count): &(u64, u64)| {
            count > 0 && start.checked_add(count).is_some_and(|end| end <= sets)
        };
        let ok = match self {
            SetPartition::Shared => true,
            SetPartition::Static(m) => m.values().all(fits),
            SetPartition::Tap(t) => t.sets_per_bank == sets,
        };
        if !ok {
            return Err(bad("set partition does not fit the L2 banks"));
        }
        Ok(())
    }

    /// The set window for `stream` in a bank with `sets` sets.
    pub fn window(&self, stream: StreamId, sets: u64) -> (u64, u64) {
        match self {
            SetPartition::Shared => (0, sets),
            SetPartition::Static(m) => m.get(&stream).copied().unwrap_or((0, sets)),
            SetPartition::Tap(t) => t.window(stream),
        }
    }

    /// Feed an access into the controller (no-op unless TAP).
    pub fn observe(&mut self, stream: StreamId, line_addr: u64) {
        if let SetPartition::Tap(t) = self {
            t.observe(stream, line_addr);
        }
    }
}

impl Wire for SetPartition {
    fn put<W: io::Write>(&self, w: &mut Writer<W>) -> io::Result<()> {
        match self {
            SetPartition::Shared => w.put(&0u8),
            SetPartition::Static(m) => {
                w.put(&1u8)?;
                w.put(m)
            }
            SetPartition::Tap(t) => {
                w.put(&2u8)?;
                w.put(t)
            }
        }
    }

    fn get<R: io::Read>(r: &mut Reader<R>) -> io::Result<Self> {
        Ok(match r.get::<u8>()? {
            0 => SetPartition::Shared,
            1 => SetPartition::Static(r.get()?),
            2 => SetPartition::Tap(r.get()?),
            t => return Err(bad(format!("bad set-partition tag {t}"))),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: StreamId = StreamId(0);
    const B: StreamId = StreamId(1);

    #[test]
    fn shared_bank_map_interleaves() {
        let m = BankMap::shared(4);
        assert_eq!(m.bank_of(A, 0), 0);
        assert_eq!(m.bank_of(A, 256), 1);
        assert_eq!(m.bank_of(A, 1024), 0);
        assert_eq!(m.banks_for(A), vec![0, 1, 2, 3]);
    }

    #[test]
    fn mig_masks_restrict_banks() {
        let m = BankMap::mig_even_split(8, A, B);
        for addr in (0..64).map(|i| i * 256) {
            assert!(m.bank_of(A, addr) < 4, "stream A must stay in banks 0..4");
            assert!(m.bank_of(B, addr) >= 4, "stream B must stay in banks 4..8");
        }
        assert_eq!(m.banks_for(A).len(), 4);
    }

    #[test]
    #[should_panic(expected = "empty bank mask")]
    fn mig_rejects_empty_mask() {
        let mut masks = HashMap::new();
        masks.insert(A, vec![]);
        let _ = BankMap::mig(4, masks);
    }

    #[test]
    fn local_addresses_are_dense_per_bank() {
        let m = BankMap::shared(4);
        // Chunks 0, 4, 8 ... all land on bank 0; locally they must be
        // consecutive 256 B chunks.
        for i in 0..8u64 {
            let global = i * 4 * BANK_INTERLEAVE_BYTES + 17;
            assert_eq!(m.bank_of(A, global), 0);
            assert_eq!(m.local_addr(A, global), i * BANK_INTERLEAVE_BYTES + 17);
        }
    }

    #[test]
    fn unknown_stream_falls_back_to_all_banks() {
        let m = BankMap::mig_even_split(4, A, B);
        let c = StreamId(7);
        assert_eq!(m.banks_for(c), vec![0, 1, 2, 3]);
    }

    #[test]
    fn tap_starts_even() {
        let t = TapController::new(vec![A, B], 64, 16, TapConfig::default());
        assert_eq!(t.window(A), (0, 32));
        assert_eq!(t.window(B), (32, 32));
    }

    #[test]
    fn tap_windows_tile_the_bank() {
        let t = TapController::new(vec![A, B], 63, 16, TapConfig::default());
        let (a0, an) = t.window(A);
        let (b0, bn) = t.window(B);
        assert_eq!(a0, 0);
        assert_eq!(b0, an);
        assert_eq!(an + bn, 63);
    }

    #[test]
    fn tap_starves_the_low_utility_stream() {
        // Stream A: heavy reuse over a working set that fits (high utility).
        // Stream B: barely any accesses (a compute-bound stream like HOLO).
        let cfg = TapConfig {
            epoch_accesses: 4_000,
            sample_every: 1,
            min_sets: 1,
        };
        let mut t = TapController::new(vec![A, B], 64, 16, cfg);
        for round in 0..4u64 {
            for i in 0..2_000u64 {
                t.observe(A, (i % 8) * LINE_BYTES); // tight reuse: high stack hits
            }
            for i in 0..16u64 {
                // Never-reused streaming addresses: zero cache utility.
                t.observe(B, (round * 16 + i) * LINE_BYTES * 1024);
            }
        }
        assert!(t.repartitions() >= 1, "controller must have re-evaluated");
        let (_, a_sets) = t.window(A);
        let (_, b_sets) = t.window(B);
        assert!(
            a_sets > b_sets,
            "high-utility stream must win sets: {a_sets} vs {b_sets}"
        );
        assert!(b_sets >= 1, "floor of one set");
        assert_eq!(a_sets + b_sets, 64);
    }

    #[test]
    #[should_panic(expected = "at least two streams")]
    fn tap_requires_two_streams() {
        let _ = TapController::new(vec![A], 64, 16, TapConfig::default());
    }

    #[test]
    fn set_partition_variants() {
        let sets = 128;
        assert_eq!(SetPartition::Shared.window(A, sets), (0, 128));
        let mut m = HashMap::new();
        m.insert(A, (0, 96));
        m.insert(B, (96, 32));
        let p = SetPartition::Static(m);
        assert_eq!(p.window(A, sets), (0, 96));
        assert_eq!(p.window(B, sets), (96, 32));
        assert_eq!(
            p.window(StreamId(9), sets),
            (0, 128),
            "unknown stream gets everything"
        );
    }
}
