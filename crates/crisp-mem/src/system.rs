//! The assembled shared memory hierarchy: crossbar → banked L2 → DRAM
//! partitions, driven by an external clock.
//!
//! The SM-private side (unified L1 + MSHRs) lives in [`SmMemPort`]; each SM
//! owns its port, so an SM's cycle touches no shared state. `crisp-sim`
//! calls [`MemSystem::tick`] once per core cycle with every port: the tick
//! first **drains each port's egress queue in ascending SM-id order** (the
//! request order), then advances the L2/DRAM pipelines, and finally
//! fills the ports with arriving responses, returning the [`Completion`]s to
//! route back to the issuing warps.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::io;
use std::time::Instant;

use crisp_ckpt::{bad, CheckpointState, Reader, Writer};
use crisp_trace::{DataClass, StreamId};

use crate::cache::{CacheGeometry, Replacement};
use crate::dram::Dram;
use crate::l2::{L2Bank, L2Outcome};
use crate::partition::{BankMap, SetPartition};
use crate::port::SmMemPort;
use crate::req::Completion;
use crate::stats::{CompositionSnapshot, MemStats};
use crate::xbar::Xbar;

/// Memory-hierarchy configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemConfig {
    /// Number of SMs (one L1 each).
    pub n_sms: usize,
    /// Per-SM L1 geometry (the unified data+texture cache).
    pub l1_geom: CacheGeometry,
    /// L1 hit latency in core cycles.
    pub l1_latency: u64,
    /// Distinct in-flight sectors per L1.
    pub l1_mshr_entries: usize,
    /// Waiters per in-flight sector.
    pub l1_mshr_merges: usize,
    /// Total L2 capacity across all banks.
    pub l2_geom: CacheGeometry,
    /// Number of L2 banks (= memory partitions).
    pub n_l2_banks: u32,
    /// L2 hit latency (beyond the crossbar) in cycles.
    pub l2_latency: u64,
    /// L2 MSHR entries per bank.
    pub l2_mshr_entries: usize,
    /// Crossbar traversal latency, each direction.
    pub xbar_latency: u64,
    /// DRAM access latency.
    pub dram_latency: u64,
    /// Aggregate DRAM bandwidth in bytes per core cycle (split evenly over
    /// partitions).
    pub dram_bytes_per_cycle: f64,
    /// L2 victim-selection policy.
    pub l2_replacement: Replacement,
}

impl MemConfig {
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
}

/// Waiters per in-flight sector in each L2 bank's MSHR.
pub(crate) const L2_MSHR_MERGES: usize = 16;

/// Result of an L1 access from the LSU's point of view.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum L1AccessResult {
    /// Sector present; data valid at `ready_at`.
    Hit {
        /// Cycle the data reaches the register file.
        ready_at: u64,
    },
    /// Miss sent (or merged) down the hierarchy; a [`Completion`] with the
    /// same token will surface from [`MemSystem::tick`].
    Pending,
    /// L1 MSHRs exhausted; the LSU must replay the access next cycle.
    Stall,
}

/// A response travelling back from the L2 to one SM.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Response {
    ready_at: u64,
    sm: u16,
    sector: u64,
    stream: StreamId,
    class: DataClass,
}

/// Host-clock sub-phase durations of one [`MemSystem::tick_into`] call,
/// for the simulator's self-profiler: the port-egress drain (phase 0)
/// versus the L2/DRAM pipeline advance and response fill (phases 1–3).
/// Only measured when a `TickTimes` is passed in — the hot path pays no
/// clock reads otherwise.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TickTimes {
    /// Nanoseconds draining port egress queues into the crossbar.
    pub drain_ns: u64,
    /// Nanoseconds ticking L2 banks / DRAM and delivering responses.
    pub mem_ns: u64,
}

/// A DRAM fetch awaiting return to its L2 bank.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct DramReturn {
    ready_at: u64,
    sector: u64,
    stream: StreamId,
    class: DataClass,
}

/// The shared half of the modelled memory hierarchy (crossbar, L2, DRAM).
/// The per-SM half is [`SmMemPort`].
#[derive(Debug)]
pub struct MemSystem {
    cfg: MemConfig,
    xbar_in: Xbar,
    banks: Vec<L2Bank>,
    bank_map: BankMap,
    partition: SetPartition,
    dram: Vec<Dram>,
    dram_ret: Vec<BinaryHeap<Reverse<DramReturn>>>,
    responses: BinaryHeap<Reverse<Response>>,
}

impl MemSystem {
    /// Build the hierarchy with shared banks and no set partitioning (the
    /// MPS / baseline configuration). Use [`MemSystem::set_bank_map`] and
    /// [`MemSystem::set_partition`] for MiG / TAP.
    pub fn new(cfg: MemConfig) -> Self {
        let bank_geom = cfg.l2_bank_geom();
        MemSystem {
            xbar_in: Xbar::new(cfg.n_l2_banks as usize, cfg.xbar_latency),
            banks: (0..cfg.n_l2_banks)
                .map(|_| {
                    L2Bank::with_replacement(
                        bank_geom,
                        cfg.l2_mshr_entries,
                        L2_MSHR_MERGES,
                        cfg.l2_replacement,
                    )
                })
                .collect(),
            bank_map: BankMap::shared(cfg.n_l2_banks),
            partition: SetPartition::Shared,
            dram: (0..cfg.n_l2_banks)
                .map(|_| {
                    Dram::new(
                        cfg.dram_latency,
                        cfg.dram_bytes_per_cycle / cfg.n_l2_banks as f64,
                    )
                })
                .collect(),
            dram_ret: (0..cfg.n_l2_banks).map(|_| BinaryHeap::new()).collect(),
            responses: BinaryHeap::new(),
            cfg,
        }
    }

    /// One [`SmMemPort`] per SM, matching this hierarchy's configuration.
    pub fn make_ports(&self) -> Vec<SmMemPort> {
        (0..self.cfg.n_sms)
            .map(|i| SmMemPort::new(i as u16, &self.cfg))
            .collect()
    }

    /// Replace the bank map (MiG masks).
    pub fn set_bank_map(&mut self, map: BankMap) {
        assert_eq!(map.n_banks(), self.cfg.n_l2_banks, "bank count mismatch");
        self.bank_map = map;
    }

    /// Replace the set-partition policy (TAP / static windows).
    pub fn set_partition(&mut self, p: SetPartition) {
        self.partition = p;
    }

    /// The active set-partition policy (e.g. to read TAP's allocation).
    pub fn partition(&self) -> &SetPartition {
        &self.partition
    }

    /// Configuration the system was built with.
    pub fn config(&self) -> &MemConfig {
        &self.cfg
    }

    /// Advance the hierarchy one cycle; returns loads completed this cycle.
    ///
    /// Convenience wrapper over [`MemSystem::tick_into`] that allocates a
    /// fresh completion vector. The simulator's cycle loop uses `tick_into`
    /// with a reused buffer instead.
    pub fn tick(&mut self, now: u64, ports: &mut [&mut SmMemPort]) -> Vec<Completion> {
        let mut done = Vec::new();
        self.tick_into(now, ports, &mut done, None);
        done
    }

    /// Advance the hierarchy one cycle, appending loads completed this
    /// cycle into `done` (cleared first).
    ///
    /// `ports` must be every SM's port in ascending SM-id order — the drain
    /// and fill phases index it by SM id. The deterministic drain order is
    /// the linchpin of reproducible parallel simulation: whatever thread
    /// cycled each SM, the crossbar sees requests in (SM id, issue order).
    /// Anything that can lend a port works — `&mut SmMemPort` or a whole
    /// `Sm` — so callers need not build a per-cycle `Vec` of references.
    ///
    /// Pass `times` to attribute the drain vs. pipeline sub-phases on the
    /// host clock; `None` skips every clock read.
    pub fn tick_into<P: AsMut<SmMemPort>>(
        &mut self,
        now: u64,
        ports: &mut [P],
        done: &mut Vec<Completion>,
        mut times: Option<&mut TickTimes>,
    ) {
        done.clear();
        let mut t_prev = times.as_ref().map(|_| Instant::now());

        // 0. Drain every port's egress queue in ascending SM-id order.
        for port in ports.iter_mut() {
            let port = port.as_mut();
            while let Some(req) = port.egress.pop_front() {
                let bank = self.bank_map.bank_of(req.stream, req.addr);
                self.xbar_in.push(now, bank, req);
            }
        }
        if let Some(tt) = times.as_mut() {
            let t = Instant::now();
            tt.drain_ns += (t - t_prev.expect("set when times is Some")).as_nanos() as u64;
            t_prev = Some(t);
        }

        // 1. Each L2 bank accepts at most one request per cycle from the
        //    crossbar.
        for bank_idx in 0..self.banks.len() as u32 {
            let Some(req) = self.xbar_in.pop_ready(now, bank_idx) else {
                continue;
            };
            let sets = self.banks[bank_idx as usize].cache().num_sets();
            self.partition.observe(req.stream, req.line_addr());
            let window = self.partition.window(req.stream, sets);
            if req.is_write {
                if let Some(wb) = self.banks[bank_idx as usize].write(&req, window) {
                    for s in 0..wb.dirty_sectors as u64 {
                        let a = self
                            .bank_map
                            .local_addr(wb.stream, wb.line_addr + s * crisp_trace::SECTOR_BYTES);
                        let _ = self.dram[bank_idx as usize].request_at(now, a, wb.stream, true);
                    }
                }
            } else {
                match self.banks[bank_idx as usize].read(&req, window) {
                    L2Outcome::Hit => {
                        self.responses.push(Reverse(Response {
                            ready_at: now + self.cfg.l2_latency + self.cfg.xbar_latency,
                            sm: req.token.sm,
                            sector: req.addr,
                            stream: req.stream,
                            class: req.class,
                        }));
                    }
                    L2Outcome::MissToDram => {
                        let local = self.bank_map.local_addr(req.stream, req.addr);
                        let ready =
                            self.dram[bank_idx as usize].request_at(now, local, req.stream, false);
                        self.dram_ret[bank_idx as usize].push(Reverse(DramReturn {
                            ready_at: ready,
                            sector: req.addr,
                            stream: req.stream,
                            class: req.class,
                        }));
                    }
                    L2Outcome::Merged => {}
                    L2Outcome::Stall => {
                        self.xbar_in.push_front(now, bank_idx, req);
                    }
                }
            }
        }

        // 2. DRAM returns fill their bank and fan responses out to waiters.
        for bank_idx in 0..self.banks.len() {
            while let Some(&Reverse(r)) = self.dram_ret[bank_idx].peek() {
                if r.ready_at > now {
                    break;
                }
                self.dram_ret[bank_idx].pop();
                let sets = self.banks[bank_idx].cache().num_sets();
                let window = self.partition.window(r.stream, sets);
                let (waiters, wb) = self.banks[bank_idx].fill(r.sector, r.stream, r.class, window);
                if let Some(wb) = wb {
                    for s in 0..wb.dirty_sectors as u64 {
                        let a = self
                            .bank_map
                            .local_addr(wb.stream, wb.line_addr + s * crisp_trace::SECTOR_BYTES);
                        let _ = self.dram[bank_idx].request_at(now, a, wb.stream, true);
                    }
                }
                // One response per waiting SM (the L1 MSHR fans out further).
                let mut sms: Vec<u16> = waiters.iter().map(|t| t.sm).collect();
                sms.sort_unstable();
                sms.dedup();
                for sm in sms {
                    self.responses.push(Reverse(Response {
                        ready_at: now + self.cfg.l2_latency + self.cfg.xbar_latency,
                        sm,
                        sector: r.sector,
                        stream: r.stream,
                        class: r.class,
                    }));
                }
            }
        }

        // 3. Responses arriving at SMs fill their port's L1 and wake merged
        //    loads.
        while let Some(&Reverse(r)) = self.responses.peek() {
            if r.ready_at > now {
                break;
            }
            self.responses.pop();
            let port = ports[r.sm as usize].as_mut();
            for token in port.on_response(r.sector, r.stream, r.class) {
                done.push(Completion {
                    token,
                    addr: r.sector,
                    ready_at: now,
                });
            }
        }
        if let Some(tt) = times {
            tt.mem_ns +=
                (Instant::now() - t_prev.expect("set when times is Some")).as_nanos() as u64;
        }
    }

    /// Whether any request is still in flight in the shared hierarchy.
    /// (Each [`SmMemPort`] answers for its own in-flight sectors.)
    pub fn quiescent(&self) -> bool {
        self.xbar_in.in_flight() == 0
            && self.responses.is_empty()
            && self.dram_ret.iter().all(BinaryHeap::is_empty)
            && self.banks.iter().all(|b| b.in_flight() == 0)
    }

    /// L2 statistics summed over every bank.
    pub fn l2_stats_total(&self) -> MemStats {
        let mut t = MemStats::new();
        for b in &self.banks {
            t.merge(b.cache().stats());
        }
        t
    }

    /// L2 composition snapshot merged over every bank (paper Figs 11, 15).
    pub fn l2_composition(&self) -> CompositionSnapshot {
        let mut t = CompositionSnapshot::new(0);
        for b in &self.banks {
            t.merge(&b.cache().composition());
        }
        t
    }

    /// DRAM bytes moved on behalf of `stream`, over all partitions.
    pub fn dram_bytes(&self, stream: StreamId) -> u64 {
        self.dram.iter().map(|d| d.bytes_for(stream)).sum()
    }

    /// Total DRAM traffic in bytes.
    pub fn dram_total_bytes(&self) -> u64 {
        self.dram.iter().map(Dram::total_bytes).sum()
    }

    /// Clear L2 statistics (tags and contents are kept). L1 statistics live
    /// in the ports; clear them with [`SmMemPort::clear_stats`].
    pub fn clear_stats(&mut self) {
        for b in &mut self.banks {
            b.cache_mut().clear_stats();
        }
    }

    /// Functionally warm one request that missed (or wrote through) an L1:
    /// route it through the bank map and set partition, probe/fill the L2
    /// bank, and open the DRAM row it would have touched — all with zero
    /// timing. Used by fast-forward mode to build realistic cache and
    /// row-buffer state before detailed simulation starts.
    pub fn warm(&mut self, req: &crate::req::MemReq) {
        let bank = self.bank_map.bank_of(req.stream, req.addr) as usize;
        self.partition.observe(req.stream, req.line_addr());
        let sets = self.banks[bank].cache().num_sets();
        let window = self.partition.window(req.stream, sets);
        if req.is_write {
            if let Some(wb) = self.banks[bank].write(req, window) {
                for s in 0..wb.dirty_sectors as u64 {
                    let a = self
                        .bank_map
                        .local_addr(wb.stream, wb.line_addr + s * crisp_trace::SECTOR_BYTES);
                    self.dram[bank].warm(a);
                }
            }
        } else if self.banks[bank].warm_read(req, window) {
            let local = self.bank_map.local_addr(req.stream, req.addr);
            self.dram[bank].warm(local);
        }
    }
}

crisp_ckpt::wire_struct!(DramReturn {
    ready_at,
    sector,
    stream,
    class
});
crisp_ckpt::wire_struct!(Response {
    ready_at,
    sm,
    sector,
    stream,
    class
});

impl CheckpointState for MemSystem {
    /// The configuration the original system was built with (already
    /// validated by the caller — geometry asserts would panic on garbage).
    type RestoreCtx<'a> = &'a MemConfig;

    fn save<W: io::Write>(&self, w: &mut Writer<W>) -> io::Result<()> {
        self.xbar_in.save(w)?;
        w.seq(&self.banks, |w, b| b.save(w))?;
        w.put(&self.bank_map)?;
        w.put(&self.partition)?;
        // One DRAM partition and one return heap per bank; the bank count
        // comes from the configuration, so neither list has a prefix.
        // Heaps are written sorted, and push-rebuilding that sorted input
        // on restore yields a heap that pops identically.
        self.dram.iter().try_for_each(|d| w.put(d))?;
        self.dram_ret.iter().try_for_each(|h| w.put(h))?;
        w.put(&self.responses)
    }

    fn restore<R: io::Read>(r: &mut Reader<R>, cfg: &MemConfig) -> io::Result<Self> {
        let n_banks = cfg.n_l2_banks as usize;
        let xbar_in = Xbar::restore(r, cfg)?;
        let banks = r.seq(|r| L2Bank::restore(r, cfg))?;
        if banks.len() != n_banks {
            return Err(bad(format!(
                "checkpoint has {} L2 banks, config implies {n_banks}",
                banks.len()
            )));
        }
        let bank_map: BankMap = r.get()?;
        if bank_map.n_banks() != cfg.n_l2_banks {
            return Err(bad("bank map does not match the configured bank count"));
        }
        let partition: SetPartition = r.get()?;
        partition.check_restored(cfg.l2_bank_geom().sets())?;
        let dram = (0..n_banks).map(|_| r.get()).collect::<io::Result<_>>()?;
        let dram_ret = (0..n_banks).map(|_| r.get()).collect::<io::Result<_>>()?;
        let responses: BinaryHeap<Reverse<Response>> = r.get()?;
        if let Some(Reverse(bad_sm)) = responses
            .iter()
            .find(|Reverse(x)| x.sm as usize >= cfg.n_sms)
        {
            return Err(bad(format!(
                "response addressed to nonexistent SM {}",
                bad_sm.sm
            )));
        }
        Ok(MemSystem {
            cfg: *cfg,
            xbar_in,
            banks,
            bank_map,
            partition,
            dram,
            dram_ret,
            responses,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::req::{MemReq, ReqToken};

    const S: StreamId = StreamId(0);

    fn small_cfg() -> MemConfig {
        MemConfig {
            n_sms: 2,
            l1_geom: CacheGeometry {
                size_bytes: 4096,
                assoc: 4,
            },
            l1_latency: 4,
            l1_mshr_entries: 8,
            l1_mshr_merges: 8,
            l2_geom: CacheGeometry {
                size_bytes: 32768,
                assoc: 8,
            },
            n_l2_banks: 2,
            l2_latency: 20,
            l2_mshr_entries: 16,
            xbar_latency: 4,
            dram_latency: 100,
            dram_bytes_per_cycle: 64.0,
            l2_replacement: Replacement::Lru,
        }
    }

    fn tok(sm: u16, id: u64) -> ReqToken {
        ReqToken { sm, id }
    }

    fn run_until_complete(
        ms: &mut MemSystem,
        ports: &mut [SmMemPort],
        start: u64,
        budget: u64,
    ) -> Vec<Completion> {
        let mut all = Vec::new();
        for now in start..start + budget {
            let mut refs: Vec<&mut SmMemPort> = ports.iter_mut().collect();
            all.extend(ms.tick(now, &mut refs));
            if ms.quiescent() && ports.iter().all(SmMemPort::quiescent) {
                break;
            }
        }
        all
    }

    #[test]
    fn cold_miss_round_trip_completes() {
        let mut ms = MemSystem::new(small_cfg());
        let mut ports = ms.make_ports();
        let req = MemReq::read(0x1000, S, DataClass::Compute, tok(0, 7));
        assert_eq!(ports[0].read(req, 0), L1AccessResult::Pending);
        let done = run_until_complete(&mut ms, &mut ports, 0, 10_000);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].token, tok(0, 7));
        // Latency must at least cover xbar + dram + l2 + xbar.
        assert!(
            done[0].ready_at >= 4 + 100 + 20 + 4,
            "got {}",
            done[0].ready_at
        );
        assert!(ms.quiescent());
    }

    #[test]
    fn second_access_hits_in_l1() {
        let mut ms = MemSystem::new(small_cfg());
        let mut ports = ms.make_ports();
        let req = MemReq::read(0x1000, S, DataClass::Compute, tok(0, 1));
        let _ = ports[0].read(req, 0);
        let _ = run_until_complete(&mut ms, &mut ports, 0, 10_000);
        match ports[0].read(MemReq::read(0x1000, S, DataClass::Compute, tok(0, 2)), 500) {
            L1AccessResult::Hit { ready_at } => assert_eq!(ready_at, 504),
            other => panic!("expected hit, got {other:?}"),
        }
        let stats = ports[0].stats().get(S, DataClass::Compute);
        assert_eq!(stats.accesses, 2);
        assert_eq!(stats.hits, 1);
    }

    #[test]
    fn merged_misses_complete_together() {
        let mut ms = MemSystem::new(small_cfg());
        let mut ports = ms.make_ports();
        let a = MemReq::read(0x2000, S, DataClass::Compute, tok(0, 1));
        let b = MemReq::read(0x2000, S, DataClass::Compute, tok(0, 2));
        assert_eq!(ports[0].read(a, 0), L1AccessResult::Pending);
        assert_eq!(ports[0].read(b, 0), L1AccessResult::Pending);
        let done = run_until_complete(&mut ms, &mut ports, 0, 10_000);
        assert_eq!(done.len(), 2, "both merged loads must complete");
    }

    #[test]
    fn two_sms_requesting_same_sector_both_complete() {
        let mut ms = MemSystem::new(small_cfg());
        let mut ports = ms.make_ports();
        let a = MemReq::read(0x3000, S, DataClass::Compute, tok(0, 1));
        let b = MemReq::read(0x3000, S, DataClass::Compute, tok(1, 1));
        let _ = ports[0].read(a, 0);
        let _ = ports[1].read(b, 0);
        let done = run_until_complete(&mut ms, &mut ports, 0, 10_000);
        let mut sms: Vec<u16> = done.iter().map(|c| c.token.sm).collect();
        sms.sort_unstable();
        assert_eq!(sms, vec![0, 1]);
    }

    #[test]
    fn writes_reach_l2_and_reads_hit_there() {
        let mut ms = MemSystem::new(small_cfg());
        let mut ports = ms.make_ports();
        let w = MemReq::write(0x5000, S, DataClass::Pipeline, tok(0, 0));
        ports[0].write(w);
        // Drain the write into the L2.
        for now in 0..50 {
            let mut refs: Vec<&mut SmMemPort> = ports.iter_mut().collect();
            let _ = ms.tick(now, &mut refs);
        }
        // A read from another SM must be an L2 hit (no DRAM read traffic).
        let reads_before = ms.dram_total_bytes();
        let r = MemReq::read(0x5000, S, DataClass::Pipeline, tok(1, 9));
        assert_eq!(ports[1].read(r, 100), L1AccessResult::Pending);
        let done = run_until_complete(&mut ms, &mut ports, 100, 10_000);
        assert_eq!(done.len(), 1);
        assert_eq!(
            ms.dram_total_bytes(),
            reads_before,
            "read must be served by the L2, not DRAM"
        );
        let comp = ms.l2_composition();
        assert_eq!(comp.class_lines(DataClass::Pipeline), 1);
    }

    #[test]
    fn mig_bank_masks_isolate_dram_partitions() {
        let mut ms = MemSystem::new(small_cfg());
        let mut ports = ms.make_ports();
        let s0 = StreamId(0);
        let s1 = StreamId(1);
        ms.set_bank_map(BankMap::mig_even_split(2, s0, s1));
        // Stream 0 reads many distinct lines → only partition 0 sees bytes.
        for i in 0..16u64 {
            let r = MemReq::read(i * 128, s0, DataClass::Compute, tok(0, i));
            let _ = ports[0].read(r, 0);
        }
        let _ = run_until_complete(&mut ms, &mut ports, 0, 20_000);
        assert!(ms.dram_bytes(s0) > 0);
        assert_eq!(ms.dram_bytes(s1), 0);
        // All stream-0 traffic went to bank 0's DRAM partition.
        assert_eq!(ms.dram[1].total_bytes(), 0);
    }

    #[test]
    fn tap_and_mig_compose() {
        // Bank masks and set windows are orthogonal: a system can restrict
        // banks per stream AND partition sets inside them.
        let mut ms = MemSystem::new(small_cfg());
        let mut ports = ms.make_ports();
        let s0 = StreamId(0);
        let s1 = StreamId(1);
        ms.set_bank_map(BankMap::mig_even_split(2, s0, s1));
        let sets = 32768 / 2 / 128 / 8; // per-bank sets
        let tap = crate::partition::TapController::new(
            vec![s0, s1],
            sets,
            8,
            crate::partition::TapConfig {
                epoch_accesses: 50,
                sample_every: 1,
                min_sets: 1,
            },
        );
        ms.set_partition(SetPartition::Tap(tap));
        for i in 0..32u64 {
            let r = MemReq::read(i * 128, s0, DataClass::Compute, tok(0, i));
            let _ = ports[0].read(r, 0);
        }
        let _ = run_until_complete(&mut ms, &mut ports, 0, 20_000);
        assert!(ms.dram_bytes(s0) > 0);
        assert_eq!(ms.dram_bytes(s1), 0, "bank isolation still holds under TAP");
    }

    #[test]
    fn tick_into_reuses_buffer_and_times_subphases() {
        let mut ms = MemSystem::new(small_cfg());
        let mut ports = ms.make_ports();
        let req = MemReq::read(0x1000, S, DataClass::Compute, tok(0, 7));
        assert_eq!(ports[0].read(req, 0), L1AccessResult::Pending);
        // Drive tick_into directly over the owned port slice (no per-cycle
        // Vec<&mut _>), with a reused buffer and timing enabled.
        let mut done = Vec::new();
        let mut times = TickTimes::default();
        let mut completions = Vec::new();
        for now in 0..10_000 {
            ms.tick_into(now, &mut ports, &mut done, Some(&mut times));
            completions.extend(done.iter().copied());
            if ms.quiescent() && ports.iter().all(SmMemPort::quiescent) {
                break;
            }
        }
        assert_eq!(completions.len(), 1);
        assert_eq!(completions[0].token, tok(0, 7));
        assert!(
            times.drain_ns > 0 && times.mem_ns > 0,
            "both sub-phases must accumulate wall time: {times:?}"
        );
        // `done` holds only the last cycle's completions (cleared per call).
        assert!(done.len() <= 1);
    }

    #[test]
    fn quiescent_when_idle() {
        let ms = MemSystem::new(small_cfg());
        assert!(ms.quiescent());
        assert!(ms.make_ports().iter().all(SmMemPort::quiescent));
    }
}
