//! The load-store unit: coalescing and L1-port arbitration.
//!
//! A memory instruction's per-lane addresses are coalesced into distinct
//! 32 B sectors at issue; the LSU then presents at most
//! [`SmConfig::l1_ports`] sectors per cycle to the unified L1. A texture
//! fetch that touches many sectors therefore occupies the L1 data port for
//! several cycles — this is the "L1 data port pressure" the paper's LoD
//! case study shows is exaggerated 6× when mipmapping is not modelled.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::io;

use crisp_ckpt::{bad, CheckpointState, Reader, Writer};
use crisp_mem::{L1AccessResult, MemReq, ReqToken, SmMemPort};
use crisp_trace::{DataClass, Space, StreamId, WARP_SIZE};

use crate::config::SmConfig;

/// One memory instruction queued in the LSU.
#[derive(Debug, Clone)]
pub(crate) struct LsuEntry {
    pub stream: StreamId,
    pub class: DataClass,
    pub space: Space,
    pub is_load: bool,
    /// Distinct sector addresses left to present (empty for shared memory,
    /// which is modelled as one conflict-free port slot).
    pub sectors: Vec<u64>,
    pub next: usize,
    /// Token id shared by every sector of this instruction.
    pub inflight_id: u64,
}

/// The per-SM load-store unit.
#[derive(Debug)]
pub struct Lsu {
    queue: VecDeque<LsuEntry>,
    depth: usize,
    sectors_issued: u64,
    /// Cleared sector lists of retired entries, handed back out by
    /// [`Lsu::sector_buf`] so the steady state allocates nothing.
    spare: Vec<Vec<u64>>,
}

impl Lsu {
    /// An empty LSU with the configured queue depth.
    pub fn new(cfg: &SmConfig) -> Self {
        Lsu {
            queue: VecDeque::new(),
            depth: cfg.lsu_queue_depth,
            sectors_issued: 0,
            spare: Vec::new(),
        }
    }

    /// Whether another memory instruction can be accepted this cycle.
    pub fn has_room(&self) -> bool {
        self.queue.len() < self.depth
    }

    /// Whether any instruction is still being processed.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Memory instructions currently queued (issued but not fully presented
    /// to the L1). Used by diagnostic snapshots.
    pub fn queued(&self) -> usize {
        self.queue.len()
    }

    /// Total sectors presented to the L1/shared memory so far.
    pub fn sectors_issued(&self) -> u64 {
        self.sectors_issued
    }

    pub(crate) fn push(&mut self, e: LsuEntry) {
        debug_assert!(self.has_room(), "caller must check has_room");
        self.queue.push_back(e);
    }

    /// An empty sector list for the next entry, recycled from a retired
    /// one when possible. A fresh one has room for two sectors per lane, so
    /// it rarely grows.
    pub(crate) fn sector_buf(&mut self) -> Vec<u64> {
        self.spare
            .pop()
            .unwrap_or_else(|| Vec::with_capacity(2 * WARP_SIZE))
    }

    fn retire_head(&mut self) {
        if let Some(mut e) = self.queue.pop_front() {
            e.sectors.clear();
            self.spare.push(e.sectors);
        }
    }

    /// Whether [`Lsu::process`] would move nothing: the queue is empty, or
    /// its head is a load whose next sector the port would stall on.
    #[cfg(debug_assertions)]
    pub(crate) fn stuck(&self, port: &SmMemPort) -> bool {
        self.queue.front().is_none_or(|h| {
            h.is_load
                && h.space != Space::Shared
                && h.sectors.get(h.next).is_some_and(|&a| !port.can_accept(a))
        })
    }

    /// Work the head of the queue, presenting up to `cfg.l1_ports` sectors
    /// to the SM's private memory port. A sector satisfied locally (L1 hit
    /// or shared memory) goes onto `mem_ready` as `(ready_at, inflight_id)`;
    /// one sent down the hierarchy completes later through the port.
    ///
    /// Returns whether anything moved — a sector presented or an entry
    /// retired. An idle LSU stays idle until an MSHR frees, which only a
    /// memory completion does.
    pub(crate) fn process(
        &mut self,
        sm_id: usize,
        now: u64,
        cfg: &SmConfig,
        port: &mut SmMemPort,
        mem_ready: &mut BinaryHeap<Reverse<(u64, u64)>>,
    ) -> bool {
        let mut active = false;
        let mut budget = cfg.l1_ports;
        while budget > 0 {
            let Some(head) = self.queue.front_mut() else {
                break;
            };
            // Shared-memory instructions: one conflict-free port slot.
            if head.space == Space::Shared {
                if head.is_load {
                    mem_ready.push(Reverse((now + cfg.smem_latency, head.inflight_id)));
                }
                budget -= 1;
                self.sectors_issued += 1;
                self.retire_head();
                active = true;
                continue;
            }
            if head.next >= head.sectors.len() {
                self.retire_head();
                active = true;
                continue;
            }
            let addr = head.sectors[head.next];
            let token = ReqToken {
                sm: sm_id as u16,
                id: head.inflight_id,
            };
            if head.is_load {
                let req = MemReq::read(addr, head.stream, head.class, token);
                match port.read(req, now) {
                    L1AccessResult::Hit { ready_at } => {
                        mem_ready.push(Reverse((ready_at, head.inflight_id)));
                    }
                    L1AccessResult::Pending => {}
                    L1AccessResult::Stall => break, // retry same sector next cycle
                }
            } else {
                let req = MemReq::write(addr, head.stream, head.class, token);
                port.write(req);
            }
            head.next += 1;
            budget -= 1;
            self.sectors_issued += 1;
            active = true;
            if head.next >= head.sectors.len() {
                self.retire_head();
            }
        }
        active
    }
}

crisp_ckpt::wire_struct!(LsuEntry {
    stream,
    class,
    space,
    is_load,
    sectors,
    next,
    inflight_id
} check = LsuEntry::check_restored);

impl LsuEntry {
    fn check_restored(&self) -> io::Result<()> {
        if self.next > self.sectors.len() {
            return Err(bad("lsu entry cursor past its sector list"));
        }
        Ok(())
    }
}

impl CheckpointState for Lsu {
    /// The SM configuration, which fixes the queue depth.
    type RestoreCtx<'a> = &'a SmConfig;

    fn save<W: io::Write>(&self, w: &mut Writer<W>) -> io::Result<()> {
        w.put(&self.queue)?;
        w.put(&self.sectors_issued)
    }

    fn restore<R: io::Read>(r: &mut Reader<R>, cfg: &SmConfig) -> io::Result<Self> {
        let queue: VecDeque<LsuEntry> = r.get()?;
        if queue.len() > cfg.lsu_queue_depth {
            return Err(bad(format!(
                "{} queued lsu entries exceed depth {}",
                queue.len(),
                cfg.lsu_queue_depth
            )));
        }
        Ok(Lsu {
            queue,
            depth: cfg.lsu_queue_depth,
            sectors_issued: r.get()?,
            spare: Vec::new(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crisp_mem::{CacheGeometry, MemConfig};

    fn mem_cfg() -> MemConfig {
        MemConfig {
            n_sms: 1,
            l1_geom: CacheGeometry {
                size_bytes: 4096,
                assoc: 4,
            },
            l1_latency: 4,
            l1_mshr_entries: 32,
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
            l2_replacement: crisp_mem::Replacement::Lru,
        }
    }

    fn port() -> SmMemPort {
        SmMemPort::new(0, &mem_cfg())
    }

    fn load_entry(id: u64, sectors: Vec<u64>) -> LsuEntry {
        LsuEntry {
            stream: StreamId(0),
            class: DataClass::Compute,
            space: Space::Global,
            is_load: true,
            sectors,
            next: 0,
            inflight_id: id,
        }
    }

    type Ready = BinaryHeap<Reverse<(u64, u64)>>;

    #[test]
    fn port_budget_limits_sectors_per_cycle() {
        let cfg = SmConfig::default(); // 4 ports
        let mut lsu = Lsu::new(&cfg);
        let mut p = port();
        let mut ready = Ready::new();
        lsu.push(load_entry(1, (0..8).map(|i| i * 32).collect()));
        assert!(lsu.process(0, 0, &cfg, &mut p, &mut ready));
        assert_eq!(lsu.sectors_issued(), 4, "only 4 sectors in cycle 0");
        assert!(!lsu.is_empty());
        assert!(lsu.process(0, 1, &cfg, &mut p, &mut ready));
        assert!(lsu.is_empty());
        assert_eq!(lsu.sectors_issued(), 8);
        assert!(ready.is_empty(), "cold misses complete through the port");
        assert_eq!(p.in_flight(), 8, "one MSHR entry per missed sector");
    }

    #[test]
    fn l1_hits_land_on_the_ready_heap() {
        let cfg = SmConfig::default();
        let mut lsu = Lsu::new(&cfg);
        let mut p = port();
        let mut ready = Ready::new();
        p.warm(&MemReq::read(
            0x40,
            StreamId(0),
            DataClass::Compute,
            ReqToken { sm: 0, id: 0 },
        ));
        lsu.push(load_entry(5, vec![0x40]));
        assert!(lsu.process(0, 3, &cfg, &mut p, &mut ready));
        assert_eq!(
            ready.into_sorted_vec(),
            vec![Reverse((3 + mem_cfg().l1_latency, 5))]
        );
    }

    #[test]
    fn shared_memory_resolves_locally() {
        let cfg = SmConfig::default();
        let mut lsu = Lsu::new(&cfg);
        let mut p = port();
        let mut ready = Ready::new();
        let mut e = load_entry(7, vec![]);
        e.space = Space::Shared;
        lsu.push(e);
        assert!(lsu.process(0, 10, &cfg, &mut p, &mut ready));
        assert_eq!(
            ready.into_sorted_vec(),
            vec![Reverse((10 + cfg.smem_latency, 7))]
        );
        assert!(lsu.is_empty());
    }

    #[test]
    fn stores_produce_no_events_but_consume_ports() {
        let cfg = SmConfig::default();
        let mut lsu = Lsu::new(&cfg);
        let mut p = port();
        let mut ready = Ready::new();
        let mut e = load_entry(3, vec![0, 32]);
        e.is_load = false;
        lsu.push(e);
        assert!(lsu.process(0, 0, &cfg, &mut p, &mut ready));
        assert!(ready.is_empty());
        assert_eq!(lsu.sectors_issued(), 2);
        assert!(lsu.is_empty());
    }

    #[test]
    fn queue_depth_backpressure() {
        let cfg = SmConfig::default();
        let mut lsu = Lsu::new(&cfg);
        for i in 0..cfg.lsu_queue_depth {
            assert!(lsu.has_room());
            lsu.push(load_entry(i as u64, vec![0]));
        }
        assert!(!lsu.has_room());
    }

    #[test]
    fn mshr_stall_retries_same_sector() {
        let cfg = SmConfig {
            l1_ports: 4,
            ..SmConfig::default()
        };
        let mut p = SmMemPort::new(
            0,
            &MemConfig {
                l1_mshr_entries: 1, // only one outstanding sector
                ..mem_cfg()
            },
        );
        let mut lsu = Lsu::new(&cfg);
        let mut ready = Ready::new();
        // Two sectors in different lines: second allocation must stall.
        lsu.push(load_entry(1, vec![0x0000, 0x4000]));
        assert!(lsu.process(0, 0, &cfg, &mut p, &mut ready));
        assert_eq!(lsu.sectors_issued(), 1, "second sector stalled on MSHR");
        assert!(!lsu.is_empty());
        assert!(
            !lsu.process(0, 1, &cfg, &mut p, &mut ready),
            "a stalled LSU reports no progress"
        );
        assert_eq!(lsu.sectors_issued(), 1);
        assert!(ready.is_empty());
    }

    #[test]
    fn retired_sector_lists_are_recycled() {
        let cfg = SmConfig::default();
        let mut lsu = Lsu::new(&cfg);
        let mut p = port();
        let mut ready = Ready::new();
        lsu.push(load_entry(1, vec![0, 32, 64]));
        lsu.process(0, 0, &cfg, &mut p, &mut ready);
        assert!(lsu.is_empty());
        let buf = lsu.sector_buf();
        assert!(buf.is_empty() && buf.capacity() >= 3);
    }
}
