//! The load-store unit: coalescing and L1-port arbitration.
//!
//! A memory instruction's per-lane addresses are coalesced into distinct
//! 32 B sectors at issue; the LSU then presents at most
//! [`SmConfig::l1_ports`] sectors per cycle to the unified L1. A texture
//! fetch that touches many sectors therefore occupies the L1 data port for
//! several cycles — this is the "L1 data port pressure" the paper's LoD
//! case study shows is exaggerated 6× when mipmapping is not modelled.

use std::collections::VecDeque;
use std::io;

use crisp_ckpt::{bad, CheckpointState, Reader, Writer};
use crisp_mem::{L1AccessResult, MemReq, ReqToken, SmMemPort};
use crisp_trace::{DataClass, Space, StreamId};

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

/// Something the LSU resolved this cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum LsuEvent {
    /// A sector was satisfied locally (L1 hit or shared memory); its data is
    /// valid at `ready_at`.
    Ready { inflight_id: u64, ready_at: u64 },
    /// A sector went down the hierarchy; a completion with the same token id
    /// will arrive later.
    Sent { inflight_id: u64 },
}

/// The per-SM load-store unit.
#[derive(Debug)]
pub struct Lsu {
    queue: VecDeque<LsuEntry>,
    depth: usize,
    sectors_issued: u64,
}

impl Lsu {
    /// An empty LSU with the configured queue depth.
    pub fn new(cfg: &SmConfig) -> Self {
        Lsu {
            queue: VecDeque::new(),
            depth: cfg.lsu_queue_depth,
            sectors_issued: 0,
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

    /// Work the head of the queue, presenting up to `cfg.l1_ports` sectors
    /// to the SM's private memory port.
    pub(crate) fn process(
        &mut self,
        sm_id: usize,
        now: u64,
        cfg: &SmConfig,
        port: &mut SmMemPort,
    ) -> Vec<LsuEvent> {
        let mut events = Vec::new();
        let mut budget = cfg.l1_ports;
        while budget > 0 {
            let Some(head) = self.queue.front_mut() else {
                break;
            };
            // Shared-memory instructions: one conflict-free port slot.
            if head.space == Space::Shared {
                budget -= 1;
                self.sectors_issued += 1;
                if head.is_load {
                    events.push(LsuEvent::Ready {
                        inflight_id: head.inflight_id,
                        ready_at: now + cfg.smem_latency,
                    });
                }
                self.queue.pop_front();
                continue;
            }
            if head.next >= head.sectors.len() {
                self.queue.pop_front();
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
                        events.push(LsuEvent::Ready {
                            inflight_id: head.inflight_id,
                            ready_at,
                        });
                    }
                    L1AccessResult::Pending => {
                        events.push(LsuEvent::Sent {
                            inflight_id: head.inflight_id,
                        });
                    }
                    L1AccessResult::Stall => break, // retry same sector next cycle
                }
            } else {
                let req = MemReq::write(addr, head.stream, head.class, token);
                port.write(req);
            }
            head.next += 1;
            budget -= 1;
            self.sectors_issued += 1;
            if head.next >= head.sectors.len() {
                self.queue.pop_front();
            }
        }
        events
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

    #[test]
    fn port_budget_limits_sectors_per_cycle() {
        let cfg = SmConfig::default(); // 4 ports
        let mut lsu = Lsu::new(&cfg);
        let mut p = port();
        lsu.push(load_entry(1, (0..8).map(|i| i * 32).collect()));
        let ev = lsu.process(0, 0, &cfg, &mut p);
        assert_eq!(ev.len(), 4, "only 4 sectors in cycle 0");
        assert!(!lsu.is_empty());
        let ev = lsu.process(0, 1, &cfg, &mut p);
        assert_eq!(ev.len(), 4);
        assert!(lsu.is_empty());
        assert_eq!(lsu.sectors_issued(), 8);
    }

    #[test]
    fn shared_memory_resolves_locally() {
        let cfg = SmConfig::default();
        let mut lsu = Lsu::new(&cfg);
        let mut p = port();
        let mut e = load_entry(7, vec![]);
        e.space = Space::Shared;
        lsu.push(e);
        let ev = lsu.process(0, 10, &cfg, &mut p);
        assert_eq!(
            ev,
            vec![LsuEvent::Ready {
                inflight_id: 7,
                ready_at: 10 + cfg.smem_latency
            }]
        );
    }

    #[test]
    fn stores_produce_no_events_but_consume_ports() {
        let cfg = SmConfig::default();
        let mut lsu = Lsu::new(&cfg);
        let mut p = port();
        let mut e = load_entry(3, vec![0, 32]);
        e.is_load = false;
        lsu.push(e);
        let ev = lsu.process(0, 0, &cfg, &mut p);
        assert!(ev.is_empty());
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
        // Two sectors in different lines: second allocation must stall.
        lsu.push(load_entry(1, vec![0x0000, 0x4000]));
        let ev = lsu.process(0, 0, &cfg, &mut p);
        assert_eq!(ev.len(), 1, "second sector stalled on MSHR");
        assert!(!lsu.is_empty());
    }
}
