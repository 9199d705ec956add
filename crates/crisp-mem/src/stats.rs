//! Per-stream / per-class memory statistics and L2 composition snapshots.

use std::collections::BTreeMap;

use crisp_trace::{DataClass, StreamId};

/// Access/hit/miss counters kept per `(stream, class)` key.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClassStreamCounters {
    /// Sector-granular accesses.
    pub accesses: u64,
    /// Sector hits (including hits on lines still being filled but whose
    /// sector already arrived).
    pub hits: u64,
    /// Sector misses that allocated or joined an MSHR.
    pub misses: u64,
}

impl ClassStreamCounters {
    /// Hit rate in [0, 1]; 0 when there were no accesses.
    pub fn hit_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.hits as f64 / self.accesses as f64
        }
    }
}

/// Aggregated statistics for one cache (or the whole hierarchy level).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MemStats {
    by_key: BTreeMap<(StreamId, DataClass), ClassStreamCounters>,
}

impl MemStats {
    /// Empty statistics.
    pub fn new() -> Self {
        MemStats::default()
    }

    /// Record one access with its outcome.
    pub fn record(&mut self, stream: StreamId, class: DataClass, hit: bool) {
        let c = self.by_key.entry((stream, class)).or_default();
        c.accesses += 1;
        if hit {
            c.hits += 1;
        } else {
            c.misses += 1;
        }
    }

    /// Counters for one `(stream, class)` pair.
    pub fn get(&self, stream: StreamId, class: DataClass) -> ClassStreamCounters {
        self.by_key
            .get(&(stream, class))
            .copied()
            .unwrap_or_default()
    }

    /// Sum of counters over every class for one stream.
    pub fn stream_total(&self, stream: StreamId) -> ClassStreamCounters {
        let mut t = ClassStreamCounters::default();
        for ((s, _), c) in &self.by_key {
            if *s == stream {
                t.accesses += c.accesses;
                t.hits += c.hits;
                t.misses += c.misses;
            }
        }
        t
    }

    /// Sum of counters over every stream for one class.
    pub fn class_total(&self, class: DataClass) -> ClassStreamCounters {
        let mut t = ClassStreamCounters::default();
        for ((_, cl), c) in &self.by_key {
            if *cl == class {
                t.accesses += c.accesses;
                t.hits += c.hits;
                t.misses += c.misses;
            }
        }
        t
    }

    /// Grand totals.
    pub fn total(&self) -> ClassStreamCounters {
        let mut t = ClassStreamCounters::default();
        for c in self.by_key.values() {
            t.accesses += c.accesses;
            t.hits += c.hits;
            t.misses += c.misses;
        }
        t
    }

    /// Grand totals — alias of [`MemStats::total`] under the name exporters
    /// use.
    pub fn totals(&self) -> ClassStreamCounters {
        self.total()
    }

    /// Every `(stream, class)` key with recorded traffic, in key order.
    pub fn keys(&self) -> impl Iterator<Item = (StreamId, DataClass)> + '_ {
        self.by_key.keys().copied()
    }

    /// Every `((stream, class), counters)` entry, in key order — lets
    /// exporters walk the table without reaching into the private map.
    pub fn iter(&self) -> impl Iterator<Item = ((StreamId, DataClass), ClassStreamCounters)> + '_ {
        self.by_key.iter().map(|(k, c)| (*k, *c))
    }

    /// Merge another stats object into this one.
    pub fn merge(&mut self, other: &MemStats) {
        for (k, c) in &other.by_key {
            let e = self.by_key.entry(*k).or_default();
            e.accesses += c.accesses;
            e.hits += c.hits;
            e.misses += c.misses;
        }
    }

    /// Reset all counters.
    pub fn clear(&mut self) {
        self.by_key.clear();
    }
}

crisp_ckpt::wire_struct!(ClassStreamCounters {
    accesses,
    hits,
    misses
});
crisp_ckpt::wire_struct!(MemStats { by_key });
crisp_ckpt::wire_struct!(CompositionSnapshot {
    capacity_lines,
    lines
});

/// A point-in-time breakdown of valid cache lines by owner, the quantity
/// Figures 11 and 15 plot ("up to 60% of cachelines are occupied by texture
/// data").
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CompositionSnapshot {
    lines: BTreeMap<(StreamId, DataClass), u64>,
    /// Total line capacity of the structure snapshotted.
    pub capacity_lines: u64,
}

impl CompositionSnapshot {
    /// An empty snapshot with the given capacity.
    pub fn new(capacity_lines: u64) -> Self {
        CompositionSnapshot {
            lines: BTreeMap::new(),
            capacity_lines,
        }
    }

    /// Count one valid line owned by `(stream, class)`.
    pub fn add_line(&mut self, stream: StreamId, class: DataClass) {
        *self.lines.entry((stream, class)).or_insert(0) += 1;
    }

    /// Merge a snapshot of another bank into this one.
    pub fn merge(&mut self, other: &CompositionSnapshot) {
        for (k, n) in &other.lines {
            *self.lines.entry(*k).or_insert(0) += n;
        }
        self.capacity_lines += other.capacity_lines;
    }

    /// Valid lines owned by `(stream, class)`.
    pub fn lines(&self, stream: StreamId, class: DataClass) -> u64 {
        self.lines.get(&(stream, class)).copied().unwrap_or(0)
    }

    /// Valid lines owned by `class`, any stream.
    pub fn class_lines(&self, class: DataClass) -> u64 {
        self.lines
            .iter()
            .filter(|((_, c), _)| *c == class)
            .map(|(_, n)| n)
            .sum()
    }

    /// Valid lines owned by `stream`, any class.
    pub fn stream_lines(&self, stream: StreamId) -> u64 {
        self.lines
            .iter()
            .filter(|((s, _), _)| *s == stream)
            .map(|(_, n)| n)
            .sum()
    }

    /// Total valid lines.
    pub fn valid_lines(&self) -> u64 {
        self.lines.values().sum()
    }

    /// Fraction of *valid* lines held by `class` (0 when empty).
    pub fn class_fraction(&self, class: DataClass) -> f64 {
        let v = self.valid_lines();
        if v == 0 {
            0.0
        } else {
            self.class_lines(class) as f64 / v as f64
        }
    }

    /// Fraction of *valid* lines held by `stream` (0 when empty).
    pub fn stream_fraction(&self, stream: StreamId) -> f64 {
        let v = self.valid_lines();
        if v == 0 {
            0.0
        } else {
            self.stream_lines(stream) as f64 / v as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_rates() {
        let mut s = MemStats::new();
        for i in 0..10 {
            s.record(StreamId(0), DataClass::Texture, i < 9);
        }
        let c = s.get(StreamId(0), DataClass::Texture);
        assert_eq!(c.accesses, 10);
        assert_eq!(c.hits, 9);
        assert_eq!(c.misses, 1);
        assert!((c.hit_rate() - 0.9).abs() < 1e-12);
    }

    #[test]
    fn empty_hit_rate_is_zero() {
        assert_eq!(ClassStreamCounters::default().hit_rate(), 0.0);
    }

    #[test]
    fn totals_aggregate_across_keys() {
        let mut s = MemStats::new();
        s.record(StreamId(0), DataClass::Texture, true);
        s.record(StreamId(0), DataClass::Pipeline, false);
        s.record(StreamId(1), DataClass::Compute, true);
        assert_eq!(s.stream_total(StreamId(0)).accesses, 2);
        assert_eq!(s.class_total(DataClass::Compute).accesses, 1);
        assert_eq!(s.total().accesses, 3);
        assert_eq!(s.total().hits, 2);
        assert_eq!(s.totals(), s.total());
    }

    #[test]
    fn keys_and_iter_walk_in_key_order() {
        let mut s = MemStats::new();
        s.record(StreamId(1), DataClass::Compute, true);
        s.record(StreamId(0), DataClass::Texture, false);
        s.record(StreamId(0), DataClass::Pipeline, true);
        let keys: Vec<_> = s.keys().collect();
        assert_eq!(keys.len(), 3);
        assert!(keys.windows(2).all(|w| w[0] < w[1]), "sorted by key");
        let summed: u64 = s.iter().map(|(_, c)| c.accesses).sum();
        assert_eq!(summed, s.totals().accesses);
        assert!(s
            .iter()
            .any(|((st, cl), c)| st == StreamId(0) && cl == DataClass::Texture && c.misses == 1));
    }

    #[test]
    fn merge_sums() {
        let mut a = MemStats::new();
        a.record(StreamId(0), DataClass::Texture, true);
        let mut b = MemStats::new();
        b.record(StreamId(0), DataClass::Texture, false);
        a.merge(&b);
        let c = a.get(StreamId(0), DataClass::Texture);
        assert_eq!((c.accesses, c.hits, c.misses), (2, 1, 1));
    }

    #[test]
    fn composition_fractions() {
        let mut c = CompositionSnapshot::new(100);
        for _ in 0..30 {
            c.add_line(StreamId(0), DataClass::Texture);
        }
        for _ in 0..20 {
            c.add_line(StreamId(0), DataClass::Pipeline);
        }
        for _ in 0..10 {
            c.add_line(StreamId(1), DataClass::Compute);
        }
        assert_eq!(c.valid_lines(), 60);
        assert!((c.class_fraction(DataClass::Texture) - 0.5).abs() < 1e-12);
        assert!((c.stream_fraction(StreamId(0)) - 50.0 / 60.0).abs() < 1e-12);
        assert_eq!(c.lines(StreamId(1), DataClass::Compute), 10);
    }

    #[test]
    fn composition_snapshot_checkpoint_roundtrip() {
        let mut c = CompositionSnapshot::new(64);
        c.add_line(StreamId(0), DataClass::Texture);
        c.add_line(StreamId(1), DataClass::Compute);
        c.add_line(StreamId(1), DataClass::Compute);
        let mut buf = Vec::new();
        crisp_ckpt::Writer::new(&mut buf).put(&c).unwrap();
        let back: CompositionSnapshot = crisp_ckpt::Reader::new(buf.as_slice()).get().unwrap();
        assert_eq!(back, c);
    }

    #[test]
    fn composition_merge_accumulates_capacity() {
        let mut a = CompositionSnapshot::new(10);
        a.add_line(StreamId(0), DataClass::Texture);
        let mut b = CompositionSnapshot::new(10);
        b.add_line(StreamId(0), DataClass::Texture);
        a.merge(&b);
        assert_eq!(a.capacity_lines, 20);
        assert_eq!(a.class_lines(DataClass::Texture), 2);
    }
}
