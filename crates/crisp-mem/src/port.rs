//! The per-SM memory port: a private L1 `SectorCache` with a buffered
//! egress queue toward the shared hierarchy.
//!
//! Each SM owns one [`SmMemPort`]. The load-store unit presents sector
//! accesses to the port, which resolves them against the SM-private L1 and
//! MSHRs **without touching any shared state** — misses and write-throughs
//! are parked in a local egress queue instead of entering the crossbar
//! directly. The cross-SM structures (crossbar, L2 banks, DRAM) are reached
//! later, when [`MemSystem::tick`](crate::MemSystem::tick) drains every
//! port's egress queue **in ascending SM-id order**; that drain order
//! defines the request interleaving the crossbar sees.

use std::collections::VecDeque;
use std::io;

use crisp_ckpt::{bad, CheckpointState, Reader, Writer};
use crisp_trace::{DataClass, StreamId};

use crate::cache::{AccessKind, Replacement};
use crate::mshr::{ReadOutcome, SectorCache};
use crate::req::{MemReq, ReqToken};
use crate::stats::MemStats;
use crate::system::{L1AccessResult, MemConfig};

/// One SM's private slice of the memory hierarchy: the unified L1 behind
/// its MSHRs, and the egress queue toward the crossbar.
#[derive(Debug)]
pub struct SmMemPort {
    sm: u16,
    l1: SectorCache,
    l1_latency: u64,
    /// Misses and write-throughs awaiting the deterministic drain into the
    /// crossbar, in issue order.
    pub(crate) egress: VecDeque<MemReq>,
}

// Identity lending, so `tick_into` can take `&mut [P] where P:
// AsMut<SmMemPort>` and accept plain `&mut SmMemPort` slices (std forwards
// `AsMut` through `&mut`), whole `Sm`s, or anything else that owns a port.
impl AsMut<SmMemPort> for SmMemPort {
    fn as_mut(&mut self) -> &mut SmMemPort {
        self
    }
}

impl SmMemPort {
    /// The port for SM `sm` under the given hierarchy configuration.
    pub fn new(sm: u16, cfg: &MemConfig) -> Self {
        SmMemPort {
            sm,
            l1: SectorCache::new(
                cfg.l1_geom,
                Replacement::Lru,
                cfg.l1_mshr_entries,
                cfg.l1_mshr_merges,
            ),
            l1_latency: cfg.l1_latency,
            egress: VecDeque::new(),
        }
    }

    /// The SM this port belongs to.
    pub fn sm(&self) -> u16 {
        self.sm
    }

    /// The L1 is never set-partitioned.
    fn window(&self) -> (u64, u64) {
        (0, self.l1.tags().num_sets())
    }

    /// Present a sector-granular load at cycle `now`.
    pub fn read(&mut self, req: MemReq, now: u64) -> L1AccessResult {
        debug_assert_eq!(req.token.sm, self.sm, "token must carry the owning SM");
        match self.l1.read(&req, self.window()) {
            ReadOutcome::Hit => L1AccessResult::Hit {
                ready_at: now + self.l1_latency,
            },
            ReadOutcome::Miss => {
                self.egress.push_back(req);
                L1AccessResult::Pending
            }
            ReadOutcome::Merged => L1AccessResult::Pending,
            ReadOutcome::Stall => L1AccessResult::Stall,
        }
    }

    /// Whether a load of sector `addr` would be tracked right now:
    /// [`SmMemPort::read`] stalls exactly when this is false.
    pub fn can_accept(&self, addr: u64) -> bool {
        self.l1.can_accept(addr)
    }

    /// Present a sector-granular store. The L1 is write-through/no-allocate;
    /// the write is queued toward the L2 (write-validate) and completes
    /// immediately from the warp's perspective.
    pub fn write(&mut self, req: MemReq) {
        let window = self.window();
        let _ = self
            .l1
            .tags_mut()
            .access(&req, AccessKind::WriteNoAllocate, window);
        self.egress.push_back(req);
    }

    /// A response from the shared hierarchy: fill the L1 sector and wake
    /// every load merged on it. L1 lines are never dirty (write-through),
    /// so the fill evicts without a writeback.
    pub(crate) fn on_response(
        &mut self,
        sector: u64,
        stream: StreamId,
        class: DataClass,
    ) -> Vec<ReqToken> {
        let window = self.window();
        self.l1.fill(sector, stream, class, window).0
    }

    /// Hand a waiter list from [`SmMemPort::on_response`] back for reuse.
    pub(crate) fn recycle_waiters(&mut self, waiters: Vec<ReqToken>) {
        self.l1.recycle(waiters);
    }

    /// Whether nothing is pending in this port (no MSHR entries, no queued
    /// egress traffic).
    pub fn quiescent(&self) -> bool {
        self.l1.in_flight() == 0 && self.egress.is_empty()
    }

    /// Sectors awaiting a fill from the shared hierarchy.
    pub fn in_flight(&self) -> usize {
        self.l1.in_flight()
    }

    /// L1 statistics of this SM.
    pub fn stats(&self) -> &MemStats {
        self.l1.tags().stats()
    }

    /// Clear L1 statistics (tags and contents are kept).
    pub fn clear_stats(&mut self) {
        self.l1.tags_mut().clear_stats();
    }

    /// Functionally warm one access: probe the L1 and install the sector
    /// immediately on a read miss, with no MSHR tracking and no egress
    /// traffic. Returns whether the access must also visit the shared
    /// hierarchy (read miss, or any write — the L1 is write-through).
    /// Used by fast-forward mode.
    pub fn warm(&mut self, req: &MemReq) -> bool {
        let window = self.window();
        if req.is_write {
            let _ = self
                .l1
                .tags_mut()
                .access(req, AccessKind::WriteNoAllocate, window);
            return true;
        }
        self.l1.warm_read(req, window)
    }
}

impl CheckpointState for SmMemPort {
    /// `(owning SM id, hierarchy configuration)`.
    type RestoreCtx<'a> = (u16, &'a MemConfig);

    fn save<W: io::Write>(&self, w: &mut Writer<W>) -> io::Result<()> {
        w.put(&self.sm)?;
        self.l1.save(w)?;
        w.put(&self.egress)
    }

    fn restore<R: io::Read>(r: &mut Reader<R>, (sm, cfg): (u16, &MemConfig)) -> io::Result<Self> {
        let found: u16 = r.get()?;
        if found != sm {
            return Err(bad(format!("port belongs to SM {found}, expected SM {sm}")));
        }
        let l1 = SectorCache::restore(
            r,
            (
                cfg.l1_geom,
                Replacement::Lru,
                cfg.l1_mshr_entries,
                cfg.l1_mshr_merges,
                cfg.n_sms,
            ),
        )?;
        let egress: VecDeque<MemReq> = r.get()?;
        for req in &egress {
            req.token.check_sm(cfg.n_sms)?;
        }
        Ok(SmMemPort {
            sm,
            l1,
            l1_latency: cfg.l1_latency,
            egress,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CacheGeometry;
    use crate::Replacement;

    fn cfg() -> MemConfig {
        MemConfig {
            n_sms: 1,
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

    const S: StreamId = StreamId(0);
    const TOK: ReqToken = ReqToken { sm: 0, id: 1 };

    #[test]
    fn miss_parks_in_egress_until_drained() {
        let mut p = SmMemPort::new(0, &cfg());
        let r = MemReq::read(0x1000, S, DataClass::Compute, TOK);
        assert_eq!(p.read(r, 0), L1AccessResult::Pending);
        assert_eq!(p.egress.len(), 1);
        assert!(!p.quiescent());
    }

    #[test]
    fn merged_miss_does_not_duplicate_egress() {
        let mut p = SmMemPort::new(0, &cfg());
        let a = MemReq::read(0x1000, S, DataClass::Compute, TOK);
        let b = MemReq::read(0x1000, S, DataClass::Compute, ReqToken { sm: 0, id: 2 });
        let _ = p.read(a, 0);
        assert_eq!(p.read(b, 0), L1AccessResult::Pending);
        assert_eq!(p.egress.len(), 1, "merged miss rides the first request");
    }

    #[test]
    fn response_fills_l1_and_wakes_waiters() {
        let mut p = SmMemPort::new(0, &cfg());
        let a = MemReq::read(0x1000, S, DataClass::Compute, TOK);
        let b = MemReq::read(0x1000, S, DataClass::Compute, ReqToken { sm: 0, id: 2 });
        let _ = p.read(a, 0);
        let _ = p.read(b, 0);
        p.egress.clear(); // simulate the drain
        let woken = p.on_response(0x1000, S, DataClass::Compute);
        assert_eq!(woken.len(), 2);
        assert!(p.quiescent());
        // The sector is now resident.
        let again = MemReq::read(0x1000, S, DataClass::Compute, ReqToken { sm: 0, id: 3 });
        assert!(matches!(p.read(again, 50), L1AccessResult::Hit { .. }));
    }

    #[test]
    fn writes_always_queue() {
        let mut p = SmMemPort::new(0, &cfg());
        p.write(MemReq::write(0x2000, S, DataClass::Pipeline, TOK));
        p.write(MemReq::write(0x2020, S, DataClass::Pipeline, TOK));
        assert_eq!(p.egress.len(), 2);
        assert_eq!(p.in_flight(), 0, "stores do not occupy MSHRs");
    }

    #[test]
    fn mshr_exhaustion_stalls() {
        let mut c = cfg();
        c.l1_mshr_entries = 1;
        let mut p = SmMemPort::new(0, &c);
        let a = MemReq::read(0x0000, S, DataClass::Compute, TOK);
        let b = MemReq::read(0x4000, S, DataClass::Compute, ReqToken { sm: 0, id: 2 });
        assert_eq!(p.read(a, 0), L1AccessResult::Pending);
        assert_eq!(p.read(b, 0), L1AccessResult::Stall);
    }
}
