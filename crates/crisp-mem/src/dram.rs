//! DRAM partition model: fixed access latency, a bytes-per-cycle
//! bandwidth budget (the property the paper's TAP case study keys on —
//! "all of the workload pairs included are bandwidth-bounded, not
//! capacity-bounded"), and row-buffer locality: a request that hits the
//! open row streams at full bandwidth, while a row conflict pays the
//! precharge+activate penalty.

use std::collections::BTreeMap;
use std::io;

use crisp_ckpt::bad;
use crisp_trace::{StreamId, SECTOR_BYTES};

/// Bytes covered by one DRAM row (row-buffer granularity).
pub const ROW_BYTES: u64 = 2048;

/// Internal DRAM banks per partition, each with its own open row
/// (GDDR6 has 16 banks per channel; 8 keeps the model cheap while giving
/// scattered traffic realistic row locality).
pub const DRAM_BANKS: usize = 8;

/// One DRAM partition (one per L2 bank / memory controller).
#[derive(Debug, Clone)]
pub struct Dram {
    latency: u64,
    cycles_per_sector: f64,
    row_miss_penalty: f64,
    next_free: f64,
    write_next_free: f64,
    open_rows: [Option<u64>; DRAM_BANKS],
    row_hits: u64,
    row_misses: u64,
    bytes_by_stream: BTreeMap<StreamId, u64>,
    reads: u64,
    writes: u64,
}

impl Dram {
    /// A partition with `latency` cycles of access latency and
    /// `bytes_per_cycle` of sustained bandwidth. The row-buffer conflict
    /// penalty defaults to 24 cycles (tRP + tRCD class).
    ///
    /// # Panics
    ///
    /// Panics if `bytes_per_cycle` is not positive.
    pub fn new(latency: u64, bytes_per_cycle: f64) -> Self {
        assert!(bytes_per_cycle > 0.0, "bandwidth must be positive");
        Dram {
            latency,
            cycles_per_sector: SECTOR_BYTES as f64 / bytes_per_cycle,
            row_miss_penalty: 24.0,
            next_free: 0.0,
            write_next_free: 0.0,
            open_rows: [None; DRAM_BANKS],
            row_hits: 0,
            row_misses: 0,
            bytes_by_stream: BTreeMap::new(),
            reads: 0,
            writes: 0,
        }
    }

    /// Issue one 32 B sector transfer of `addr` at `now`; returns the
    /// cycle the data is available (read) or committed (write). Row-buffer
    /// state is updated: conflicts pay the precharge/activate penalty.
    ///
    /// The controller is read-priority with buffered writes: writeback
    /// bursts consume bandwidth on their own drain queue instead of
    /// serialising in front of demand reads (as FR-FCFS-class controllers
    /// do), so reads only contend with reads.
    pub fn request_at(&mut self, now: u64, addr: u64, stream: StreamId, is_write: bool) -> u64 {
        let row = addr / ROW_BYTES;
        let bank = (row % DRAM_BANKS as u64) as usize;
        let penalty = if self.open_rows[bank] == Some(row) {
            self.row_hits += 1;
            0.0
        } else {
            self.row_misses += 1;
            self.open_rows[bank] = Some(row);
            self.row_miss_penalty
        };
        *self.bytes_by_stream.entry(stream).or_insert(0) += SECTOR_BYTES;
        if is_write {
            self.writes += 1;
            let start = (now as f64).max(self.write_next_free) + penalty;
            self.write_next_free = start + self.cycles_per_sector;
            (start + self.cycles_per_sector).ceil() as u64 + self.latency
        } else {
            self.reads += 1;
            let start = (now as f64).max(self.next_free) + penalty;
            self.next_free = start + self.cycles_per_sector;
            (start + self.cycles_per_sector).ceil() as u64 + self.latency
        }
    }

    /// [`Dram::request_at`] without an address: always treated as a row
    /// hit (used where the caller has no meaningful address, e.g. tests
    /// and synthetic traffic).
    pub fn request(&mut self, now: u64, stream: StreamId, is_write: bool) -> u64 {
        self.row_hits += 1;
        let start = (now as f64).max(self.next_free);
        self.next_free = start + self.cycles_per_sector;
        *self.bytes_by_stream.entry(stream).or_insert(0) += SECTOR_BYTES;
        if is_write {
            self.writes += 1;
        } else {
            self.reads += 1;
        }
        (start + self.cycles_per_sector).ceil() as u64 + self.latency
    }

    /// (row-buffer hits, misses) since construction.
    pub fn row_stats(&self) -> (u64, u64) {
        (self.row_hits, self.row_misses)
    }

    /// Bytes transferred on behalf of `stream`.
    pub fn bytes_for(&self, stream: StreamId) -> u64 {
        self.bytes_by_stream.get(&stream).copied().unwrap_or(0)
    }

    /// Total bytes transferred.
    pub fn total_bytes(&self) -> u64 {
        self.bytes_by_stream.values().sum()
    }

    /// (reads, writes) sector counts.
    pub fn ops(&self) -> (u64, u64) {
        (self.reads, self.writes)
    }

    /// Earliest cycle a new request could start service.
    pub fn busy_until(&self) -> u64 {
        self.next_free.ceil() as u64
    }

    /// Functionally warm the row buffer for `addr`: open the containing row
    /// without consuming bandwidth or counting statistics. Used by
    /// fast-forward mode so the detailed region starts with realistic row
    /// locality.
    pub fn warm(&mut self, addr: u64) {
        let row = addr / ROW_BYTES;
        let bank = (row % DRAM_BANKS as u64) as usize;
        self.open_rows[bank] = Some(row);
    }
}

// The fractional bandwidth clocks are stored bit-exactly: a resumed run
// replays the same `.ceil()` boundaries as the original.
crisp_ckpt::wire_struct!(Dram {
    latency,
    cycles_per_sector,
    row_miss_penalty,
    next_free,
    write_next_free,
    open_rows,
    row_hits,
    row_misses,
    bytes_by_stream,
    reads,
    writes
} check = Dram::check_restored);

impl Dram {
    fn check_restored(&self) -> io::Result<()> {
        if !(self.cycles_per_sector.is_finite() && self.cycles_per_sector > 0.0) {
            return Err(bad("bad dram cycles_per_sector"));
        }
        // Completion cycles are `clock.ceil() as u64 + latency`: keep both
        // terms small enough that the sum cannot overflow.
        let clocks = [self.row_miss_penalty, self.next_free, self.write_next_free];
        if self.latency > 1 << 32
            || !clocks
                .iter()
                .all(|c| (0.0..=(1u64 << 53) as f64).contains(c))
        {
            return Err(bad("implausible dram latency or clock"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const S: StreamId = StreamId(0);

    #[test]
    fn idle_request_completes_after_latency_plus_transfer() {
        let mut d = Dram::new(200, 32.0); // one sector per cycle
        let done = d.request(100, S, false);
        assert_eq!(done, 100 + 1 + 200);
    }

    #[test]
    fn bandwidth_serialises_back_to_back_requests() {
        let mut d = Dram::new(0, 16.0); // 2 cycles per sector
        let a = d.request(0, S, false);
        let b = d.request(0, S, false);
        let c = d.request(0, S, false);
        assert_eq!(a, 2);
        assert_eq!(b, 4);
        assert_eq!(c, 6);
        assert_eq!(d.busy_until(), 6);
    }

    #[test]
    fn idle_gaps_are_not_accumulated() {
        let mut d = Dram::new(0, 32.0);
        let _ = d.request(0, S, false);
        let late = d.request(1000, S, false);
        assert_eq!(late, 1001, "service restarts at `now` after idling");
    }

    #[test]
    fn per_stream_bytes_accounted() {
        let mut d = Dram::new(10, 32.0);
        d.request(0, StreamId(0), false);
        d.request(0, StreamId(0), true);
        d.request(0, StreamId(1), false);
        assert_eq!(d.bytes_for(StreamId(0)), 64);
        assert_eq!(d.bytes_for(StreamId(1)), 32);
        assert_eq!(d.total_bytes(), 96);
        assert_eq!(d.ops(), (2, 1));
    }

    #[test]
    #[should_panic(expected = "bandwidth must be positive")]
    fn rejects_zero_bandwidth() {
        let _ = Dram::new(1, 0.0);
    }

    #[test]
    fn row_hits_stream_faster_than_conflicts() {
        let mut d = Dram::new(0, 32.0);
        // Sequential sectors within one 2 KB row: one activate, then hits.
        let mut last = 0;
        for i in 0..8u64 {
            last = d.request_at(0, i * 32, S, false);
        }
        let sequential = last;
        let (h, m) = d.row_stats();
        assert_eq!((h, m), (7, 1));

        // Alternating between two rows of the SAME internal bank (stride
        // DRAM_BANKS rows): every access conflicts.
        let mut d2 = Dram::new(0, 32.0);
        let stride = super::ROW_BYTES * super::DRAM_BANKS as u64;
        let mut last2 = 0;
        for i in 0..8u64 {
            last2 = d2.request_at(0, (i % 2) * stride + i * 32, S, false);
        }
        assert!(
            last2 > sequential * 2,
            "conflicts must cost: {last2} vs {sequential}"
        );
        assert_eq!(d2.row_stats().1, 8);
    }

    #[test]
    fn different_internal_banks_keep_their_rows_open() {
        // Interleaving two rows in different banks: after the two
        // activates, everything hits.
        let mut d = Dram::new(0, 32.0);
        for i in 0..8u64 {
            let row = i % 2; // rows 0 and 1 live in banks 0 and 1
            let _ = d.request_at(0, row * super::ROW_BYTES + i * 32, S, false);
        }
        assert_eq!(d.row_stats(), (6, 2));
    }
}
