//! SM↔L2 crossbar: fixed traversal latency plus a per-destination accept
//! rate of one request per cycle, which is what bounds per-bank L2
//! bandwidth (the mechanism behind MiG's bandwidth loss in Figure 14).

use std::collections::VecDeque;
use std::io;

use crisp_ckpt::{bad, CheckpointState, Reader, Writer};

use crate::req::MemReq;
use crate::system::MemConfig;

/// One direction of the interconnect: queues per destination port.
#[derive(Debug, Clone)]
pub(crate) struct Xbar {
    latency: u64,
    queues: Vec<VecDeque<(u64, MemReq)>>,
}

impl Xbar {
    pub(crate) fn new(n_dsts: usize, latency: u64) -> Self {
        Xbar {
            latency,
            queues: vec![VecDeque::new(); n_dsts],
        }
    }

    /// Inject a request at `now` towards `dst`.
    pub(crate) fn push(&mut self, now: u64, dst: u32, req: MemReq) {
        self.queues[dst as usize].push_back((now + self.latency, req));
    }

    /// Pop the request at the head of `dst`'s queue if it has traversed.
    /// At most one pop per destination per cycle models the port width.
    pub(crate) fn pop_ready(&mut self, now: u64, dst: u32) -> Option<MemReq> {
        let q = &mut self.queues[dst as usize];
        match q.front() {
            Some(&(arrive, _)) if arrive <= now => q.pop_front().map(|(_, r)| r),
            _ => None,
        }
    }

    /// Put a request back at the head (destination stalled this cycle).
    pub(crate) fn push_front(&mut self, now: u64, dst: u32, req: MemReq) {
        self.queues[dst as usize].push_front((now, req));
    }

    /// Total queued requests (for drain checks).
    pub(crate) fn in_flight(&self) -> usize {
        self.queues.iter().map(VecDeque::len).sum()
    }
}

impl CheckpointState for Xbar {
    /// The hierarchy configuration: one queue per L2 bank, the traversal
    /// latency, and the SM count every queued token must respect.
    type RestoreCtx<'a> = &'a MemConfig;

    fn save<W: io::Write>(&self, w: &mut Writer<W>) -> io::Result<()> {
        w.put(&self.queues)
    }

    fn restore<R: io::Read>(r: &mut Reader<R>, cfg: &MemConfig) -> io::Result<Self> {
        let n_dsts = cfg.n_l2_banks as usize;
        let queues: Vec<VecDeque<(u64, MemReq)>> = r.get()?;
        if queues.len() != n_dsts {
            return Err(bad(format!(
                "xbar has {} queues, config implies {n_dsts}",
                queues.len()
            )));
        }
        for (_, req) in queues.iter().flatten() {
            req.token.check_sm(cfg.n_sms)?;
        }
        Ok(Xbar {
            latency: cfg.xbar_latency,
            queues,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::req::ReqToken;
    use crisp_trace::{DataClass, StreamId};

    fn req(addr: u64) -> MemReq {
        MemReq::read(
            addr,
            StreamId(0),
            DataClass::Compute,
            ReqToken { sm: 0, id: 0 },
        )
    }

    #[test]
    fn latency_gates_delivery() {
        let mut x = Xbar::new(2, 5);
        x.push(10, 1, req(0));
        assert!(x.pop_ready(14, 1).is_none());
        assert!(x.pop_ready(15, 1).is_some());
        assert!(x.pop_ready(16, 1).is_none(), "queue drained");
    }

    #[test]
    fn fifo_order_per_destination() {
        let mut x = Xbar::new(1, 0);
        x.push(0, 0, req(0x20));
        x.push(0, 0, req(0x40));
        assert_eq!(x.pop_ready(0, 0).unwrap().addr, 0x20);
        assert_eq!(x.pop_ready(0, 0).unwrap().addr, 0x40);
    }

    #[test]
    fn push_front_requeues_at_head() {
        let mut x = Xbar::new(1, 0);
        x.push(0, 0, req(0x20));
        x.push(0, 0, req(0x40));
        let r = x.pop_ready(0, 0).unwrap();
        x.push_front(0, 0, r);
        assert_eq!(x.pop_ready(0, 0).unwrap().addr, 0x20);
        assert_eq!(x.in_flight(), 1);
    }
}
