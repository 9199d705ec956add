//! The SM core: warp slots, GTO schedulers, CTA lifecycle, writeback.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::io;

use crisp_ckpt::{bad, CheckpointState, Reader, Wire, Writer};
use crisp_mem::{MemConfig, SmMemPort};
use crisp_trace::{
    DataClass, KernelId, Op, Reg, Space, StreamId, TraceSource, NUM_BARRIERS, SECTOR_BYTES,
};

use crate::config::{SchedulerPolicy, SmConfig};
use crate::cta::{CtaResources, CtaWork, ResourceQuota, SmResources};
use crate::lsu::{Lsu, LsuEntry};
use crate::units::ExecUnits;
use crate::warp::{WarpClass, WarpState, WarpStatus};

/// A committed CTA, reported so the GPU-level scheduler can refill the SM.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CtaCommit {
    /// Stream the CTA belonged to.
    pub stream: StreamId,
    /// Kernel launch the CTA belonged to — the GPU scheduler releases the
    /// CTA's trace window against this handle.
    pub kernel: KernelId,
    /// The scheduler-assigned sequence number from [`CtaWork::seq`].
    pub seq: u64,
    /// CTA index within its kernel's grid.
    pub cta_index: usize,
}

/// What one SM cycle produced.
#[derive(Debug, Clone, Default)]
pub struct CycleOutput {
    /// CTAs that committed this cycle.
    pub commits: Vec<CtaCommit>,
    /// Warp instructions issued this cycle.
    pub issued: u64,
}

/// Why scheduler issue slots went unused (one count per scheduler-cycle).
///
/// `blocked` is always the sum of the five cause fields; each blocked slot
/// is attributed to the highest-priority cause among the scheduler's
/// resident warps (memory pending > MSHR full > scoreboard > pipe busy >
/// barrier), so a slot waiting on both a DRAM round trip and an ALU hazard
/// reads as a memory stall.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StallBreakdown {
    /// Slots that issued an instruction.
    pub issued: u64,
    /// No warps resident on this scheduler's slots.
    pub empty: u64,
    /// Warps resident but all blocked (sum of the cause fields below).
    pub blocked: u64,
    /// Blocked on a scoreboard hazard whose producer is an ALU/SFU op.
    pub scoreboard: u64,
    /// Blocked on a scoreboard hazard whose producer is an outstanding
    /// memory load (DRAM / L2 round trip).
    pub mem_pending: u64,
    /// A memory instruction was ready but the LSU queue (L1 MSHR
    /// backpressure) had no room.
    pub mshr_full: u64,
    /// An ALU/SFU/tensor instruction was ready but every matching exec
    /// pipe was busy.
    pub pipe_busy: u64,
    /// Every live warp was parked at the CTA barrier.
    pub barrier: u64,
}

impl StallBreakdown {
    /// Fraction of scheduler slots that issued, over slots with resident
    /// warps (issue efficiency).
    pub fn issue_efficiency(&self) -> f64 {
        let active = self.issued + self.blocked;
        if active == 0 {
            0.0
        } else {
            self.issued as f64 / active as f64
        }
    }

    /// Accumulate `other` into `self` (aggregating per-SM breakdowns).
    pub fn merge(&mut self, other: &StallBreakdown) {
        self.issued += other.issued;
        self.empty += other.empty;
        self.blocked += other.blocked;
        self.scoreboard += other.scoreboard;
        self.mem_pending += other.mem_pending;
        self.mshr_full += other.mshr_full;
        self.pipe_busy += other.pipe_busy;
        self.barrier += other.barrier;
    }

    /// Count one scheduler slot that did not issue: blocked on `cause`, or
    /// empty when there is none.
    fn record(&mut self, cause: Option<StallCause>) {
        let Some(cause) = cause else {
            self.empty += 1;
            return;
        };
        self.blocked += 1;
        match cause {
            StallCause::Barrier => self.barrier += 1,
            StallCause::PipeBusy => self.pipe_busy += 1,
            StallCause::Scoreboard => self.scoreboard += 1,
            StallCause::MshrFull => self.mshr_full += 1,
            StallCause::MemPending => self.mem_pending += 1,
        }
    }
}

/// Highest-priority reason a blocked scheduler slot could not issue.
/// Variant order is priority order (ascending), so `max` picks the cause
/// to report.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum StallCause {
    Barrier,
    PipeBusy,
    Scoreboard,
    MshrFull,
    MemPending,
}

#[derive(Debug)]
struct ResidentCta {
    stream: StreamId,
    kernel: KernelId,
    seq: u64,
    cta_index: usize,
    resources: CtaResources,
    warp_slots: Vec<usize>,
    live_warps: usize,
    /// Warps parked at each named barrier slot (`arrivals[id]` warps wait
    /// at `bar.sync id`). Their sum never exceeds `live_warps`; a slot
    /// releases the moment its count reaches `live_warps`.
    arrivals: [u16; NUM_BARRIERS],
}

impl ResidentCta {
    /// Warps parked at *any* barrier slot.
    fn parked(&self) -> usize {
        self.arrivals.iter().map(|&n| n as usize).sum()
    }
}

#[derive(Debug, Clone, Copy)]
struct Inflight {
    warp_slot: usize,
    reg: Option<Reg>,
    remaining: usize,
}

/// Outstanding loads, ascending by inflight id. Ids are handed out in
/// increasing order, so tracking a load is a push, and loads (which retire
/// roughly in issue order) leave near the front: no hashing, and no
/// allocation once the deque has grown to the most loads ever in flight.
#[derive(Debug, Default)]
struct InflightTable(VecDeque<(u64, Inflight)>);

impl InflightTable {
    /// Track load `id`, which must be past every id already tracked.
    fn insert(&mut self, id: u64, f: Inflight) {
        debug_assert!(
            self.0.back().is_none_or(|&(last, _)| last < id),
            "inflight ids increase"
        );
        self.0.push_back((id, f));
    }

    fn position(&self, id: u64) -> Option<usize> {
        self.0.binary_search_by_key(&id, |&(k, _)| k).ok()
    }

    fn get_mut(&mut self, id: u64) -> Option<&mut Inflight> {
        let i = self.position(id)?;
        Some(&mut self.0[i].1)
    }

    fn remove(&mut self, id: u64) -> Option<Inflight> {
        let i = self.position(id)?;
        self.0.remove(i).map(|(_, f)| f)
    }
}

/// Encoded like the `HashMap<u64, Inflight>` it replaced: entries in
/// ascending id order. Decoding rejects duplicated or unordered ids.
impl Wire for InflightTable {
    fn put<W: io::Write>(&self, w: &mut Writer<W>) -> io::Result<()> {
        w.put(&self.0)
    }

    fn get<R: io::Read>(r: &mut Reader<R>) -> io::Result<Self> {
        let entries: VecDeque<(u64, Inflight)> = r.get()?;
        if entries
            .iter()
            .zip(entries.iter().skip(1))
            .any(|(a, b)| a.0 >= b.0)
        {
            return Err(bad("duplicate or unordered inflight id"));
        }
        Ok(InflightTable(entries))
    }
}

/// A set of warp slots, one bit per slot.
#[derive(Debug, Clone)]
struct SlotSet(Box<[u64]>);

impl SlotSet {
    fn new(slots: usize) -> Self {
        SlotSet(vec![0; slots.div_ceil(64)].into_boxed_slice())
    }

    fn set(&mut self, slot: usize, on: bool) {
        let (word, bit) = (&mut self.0[slot / 64], 1u64 << (slot % 64));
        if on {
            *word |= bit;
        } else {
            *word &= !bit;
        }
    }

    fn contains(&self, slot: usize) -> bool {
        self.0[slot / 64] >> (slot % 64) & 1 != 0
    }

    fn is_empty(&self) -> bool {
        self.0.iter().all(|&word| word == 0)
    }

    /// The slots in the set, ascending.
    fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.0.iter().enumerate().flat_map(|(i, &word)| {
            let mut bits = word;
            std::iter::from_fn(move || {
                (bits != 0).then(|| {
                    let bit = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    i * 64 + bit
                })
            })
        })
    }
}

/// The live warp slots one scheduler owns, by [`WarpClass`]. Scheduler `s`
/// of `n` owns slots `s, s + n, s + 2n, …`, and slot `s + k·n` is bit `k`.
/// A slot is in at most one set, and in none when it is empty, exited or
/// out of trace. [`Sm::reclass`] keeps them exact, so scheduling and stall
/// classification read these sets instead of scanning every slot.
#[derive(Debug, Clone)]
struct WarpClasses {
    ready: SlotSet,
    mem_wait: SlotSet,
    sb_wait: SlotSet,
    bar_wait: SlotSet,
}

impl WarpClasses {
    /// One empty `WarpClasses` per scheduler of `cfg`, sized from its
    /// `max_warps`.
    fn per_scheduler(cfg: &SmConfig) -> Vec<WarpClasses> {
        let n_sched = cfg.schedulers as usize;
        let slots = (cfg.max_warps as usize).div_ceil(n_sched);
        let classes = WarpClasses {
            ready: SlotSet::new(slots),
            mem_wait: SlotSet::new(slots),
            sb_wait: SlotSet::new(slots),
            bar_wait: SlotSet::new(slots),
        };
        vec![classes; n_sched]
    }

    fn put(&mut self, slot: usize, class: Option<WarpClass>) {
        self.ready.set(slot, class == Some(WarpClass::Ready));
        self.mem_wait.set(slot, class == Some(WarpClass::MemWait));
        self.sb_wait.set(slot, class == Some(WarpClass::SbWait));
        self.bar_wait.set(slot, class == Some(WarpClass::BarWait));
    }

    #[cfg(debug_assertions)]
    fn get(&self, slot: usize) -> Option<WarpClass> {
        [
            (&self.ready, WarpClass::Ready),
            (&self.mem_wait, WarpClass::MemWait),
            (&self.sb_wait, WarpClass::SbWait),
            (&self.bar_wait, WarpClass::BarWait),
        ]
        .into_iter()
        .find(|(set, _)| set.contains(slot))
        .map(|(_, class)| class)
    }
}

/// Instructions issued per stream, ascending by stream. A stream has an
/// entry only once its count is nonzero, so the encoding is that of the
/// `BTreeMap<StreamId, u64>` this replaced; decoding rejects unordered or
/// duplicated streams and zero counts.
#[derive(Debug, Default)]
struct StreamCounts(Vec<(StreamId, u64)>);

impl StreamCounts {
    fn bump(&mut self, stream: StreamId) {
        match self.0.binary_search_by_key(&stream, |&(s, _)| s) {
            Ok(i) => self.0[i].1 += 1,
            Err(i) => self.0.insert(i, (stream, 1)),
        }
    }

    fn get(&self, stream: StreamId) -> u64 {
        self.0
            .binary_search_by_key(&stream, |&(s, _)| s)
            .map_or(0, |i| self.0[i].1)
    }

    fn take(&mut self, stream: StreamId) -> u64 {
        self.0
            .binary_search_by_key(&stream, |&(s, _)| s)
            .map_or(0, |i| self.0.remove(i).1)
    }
}

impl Wire for StreamCounts {
    fn put<W: io::Write>(&self, w: &mut Writer<W>) -> io::Result<()> {
        w.put(&self.0)
    }

    fn get<R: io::Read>(r: &mut Reader<R>) -> io::Result<Self> {
        let entries: Vec<(StreamId, u64)> = r.get()?;
        if entries.windows(2).any(|p| p[0].0 >= p[1].0) {
            return Err(bad("duplicate or unordered stream in issue counts"));
        }
        if entries.iter().any(|&(_, n)| n == 0) {
            return Err(bad("zero issue count"));
        }
        Ok(StreamCounts(entries))
    }
}

/// One streaming multiprocessor.
///
/// An `Sm` owns its [`SmMemPort`] (private L1 + MSHRs), so a whole cycle —
/// [`Sm::cycle`] — touches no shared state.
#[derive(Debug)]
pub struct Sm {
    id: usize,
    cfg: SmConfig,
    resources: SmResources,
    warps: Vec<Option<WarpState>>,
    ctas: Vec<Option<ResidentCta>>,
    units: ExecUnits,
    lsu: Lsu,
    port: SmMemPort,
    /// ALU result writebacks: (ready_at, warp_slot, reg).
    writebacks: BinaryHeap<Reverse<(u64, usize, u16)>>,
    /// Locally-satisfied memory sectors: (ready_at, inflight_id).
    mem_ready: BinaryHeap<Reverse<(u64, u64)>>,
    inflight: InflightTable,
    next_inflight: u64,
    launch_seq: u64,
    /// Greedy pointer per scheduler (GTO's "greedy" half).
    last_issued: Vec<Option<usize>>,
    /// Live warp slots by class, one entry per scheduler. Host-side only,
    /// like `wake_at`: never serialized, rebuilt from the warps on restore.
    classes: Vec<WarpClasses>,
    issued_by_stream: StreamCounts,
    window_issued: StreamCounts,
    n_resident_warps: usize,
    stalls: StallBreakdown,
    /// First cycle this SM must tick again; earlier cycles are slept (see
    /// [`Sm::cycle`]). Host-side only: not checkpointed, so a restored SM
    /// ticks its first cycle in full.
    wake_at: u64,
    /// Scheduler-slot classification of the last ticked cycle, re-counted
    /// for every slept one.
    idle_stalls: StallBreakdown,
}

// Lend the private port, so `MemSystem::tick_into` can drain/fill SMs
// directly from a `&mut [Sm]` (or `&mut [&mut Sm]`, via std's forwarding
// impl) without the cycle loop building a per-cycle `Vec<&mut SmMemPort>`.
impl AsMut<SmMemPort> for Sm {
    fn as_mut(&mut self) -> &mut SmMemPort {
        &mut self.port
    }
}

impl Sm {
    /// An idle SM with the given id, configuration, and memory port.
    ///
    /// # Panics
    ///
    /// Panics if the port's SM id does not match `id`.
    pub fn new(id: usize, cfg: SmConfig, port: SmMemPort) -> Self {
        assert_eq!(
            port.sm() as usize,
            id,
            "memory port belongs to a different SM"
        );
        Sm {
            id,
            cfg,
            resources: SmResources::new(cfg),
            warps: (0..cfg.max_warps).map(|_| None).collect(),
            ctas: (0..cfg.max_ctas).map(|_| None).collect(),
            units: ExecUnits::new(&cfg),
            lsu: Lsu::new(&cfg),
            port,
            writebacks: BinaryHeap::new(),
            mem_ready: BinaryHeap::new(),
            inflight: InflightTable::default(),
            next_inflight: 0,
            launch_seq: 0,
            last_issued: vec![None; cfg.schedulers as usize],
            classes: WarpClasses::per_scheduler(&cfg),
            issued_by_stream: StreamCounts::default(),
            window_issued: StreamCounts::default(),
            n_resident_warps: 0,
            stalls: StallBreakdown::default(),
            wake_at: 0,
            idle_stalls: StallBreakdown::default(),
        }
    }

    /// This SM's id.
    pub fn id(&self) -> usize {
        self.id
    }

    /// The configuration.
    pub fn config(&self) -> &SmConfig {
        &self.cfg
    }

    /// Resource accounting (occupancy queries).
    pub fn resources(&self) -> &SmResources {
        &self.resources
    }

    /// This SM's private memory port (L1 statistics, quiescence).
    pub fn port(&self) -> &SmMemPort {
        &self.port
    }

    /// Mutable access to the memory port — the shared hierarchy drains and
    /// fills it each tick.
    pub fn port_mut(&mut self) -> &mut SmMemPort {
        &mut self.port
    }

    /// Whether a CTA with needs `r` from `stream` can be issued under
    /// `quota`.
    pub fn fits(&self, stream: StreamId, r: CtaResources, quota: ResourceQuota) -> bool {
        self.resources.fits(stream, r, quota)
    }

    /// Launch one CTA. The caller must have checked [`Sm::fits`].
    ///
    /// # Panics
    ///
    /// Panics if warp or CTA slots are unexpectedly exhausted.
    pub fn launch_cta(&mut self, work: CtaWork) {
        let res = work.resources();
        let n_warps = work.cta.warps.len();
        let cta_slot = self
            .ctas
            .iter()
            .position(Option::is_none)
            .expect("no free CTA slot despite fits() check");
        let mut slots = Vec::with_capacity(n_warps);
        for (i, w) in self.warps.iter().enumerate() {
            if w.is_none() {
                slots.push(i);
                if slots.len() == n_warps {
                    break;
                }
            }
        }
        assert_eq!(
            slots.len(),
            n_warps,
            "no free warp slots despite fits() check"
        );
        self.n_resident_warps += n_warps;
        for (wi, &slot) in slots.iter().enumerate() {
            self.warps[slot] = Some(WarpState::new(
                work.info.clone(),
                work.cta.clone(),
                work.kernel,
                work.cta_index,
                wi,
                cta_slot,
                work.stream,
                self.launch_seq,
            ));
            self.reclass(slot);
            self.launch_seq += 1;
        }
        self.resources.allocate(work.stream, res);
        self.ctas[cta_slot] = Some(ResidentCta {
            stream: work.stream,
            kernel: work.kernel,
            seq: work.seq,
            cta_index: work.cta_index,
            resources: res,
            warp_slots: slots,
            live_warps: n_warps,
            arrivals: [0; NUM_BARRIERS],
        });
        self.wake_at = 0;
    }

    /// Route a memory completion (from the shared hierarchy's tick) back to
    /// its load instruction. Wakes the SM: a completion may clear a hazard
    /// or free the MSHR the LSU is stalled on.
    pub fn on_mem_completion(&mut self, inflight_id: u64) {
        self.wake_at = 0;
        let Some(f) = self.inflight.get_mut(inflight_id) else {
            return;
        };
        f.remaining -= 1;
        if f.remaining == 0 {
            let f = self.inflight.remove(inflight_id).expect("checked above");
            if let (Some(reg), Some(w)) = (f.reg, self.warps[f.warp_slot].as_mut()) {
                w.clear_pending(reg);
                self.reclass(f.warp_slot);
            }
        }
    }

    /// Total warp instructions issued on behalf of `stream`.
    pub fn issued_for(&self, stream: StreamId) -> u64 {
        self.issued_by_stream.get(stream)
    }

    /// Instructions issued for `stream` since the last call (the
    /// warped-slicer sampling window).
    pub fn take_window_issued(&mut self, stream: StreamId) -> u64 {
        self.window_issued.take(stream)
    }

    /// Whether any work is resident or in flight.
    pub fn busy(&self) -> bool {
        self.n_resident_warps > 0
            || !self.lsu.is_empty()
            || !self.inflight.0.is_empty()
            || !self.writebacks.is_empty()
            || !self.mem_ready.is_empty()
            || !self.port.quiescent()
    }

    /// Sectors this SM has presented to the L1 (bandwidth statistic).
    pub fn l1_sectors_issued(&self) -> u64 {
        self.lsu.sectors_issued()
    }

    /// `(stream, kernel)` of every resident CTA, in slot order.
    pub fn resident_kernels(&self) -> impl Iterator<Item = (StreamId, KernelId)> + '_ {
        self.ctas.iter().flatten().map(|c| (c.stream, c.kernel))
    }

    /// Point-in-time snapshot of the SM's scheduling and memory-side state,
    /// for deadlock reports. Read-only and deterministic: depends only on
    /// architectural state.
    pub fn diagnostics(&self) -> crate::diag::SmDiagnostics {
        use crate::diag::{CtaDiagnostics, SmDiagnostics, WarpDiagnostics, WarpStall};
        let mut warps = Vec::new();
        for (slot, w) in self.warps.iter().enumerate() {
            let Some(w) = w.as_ref() else { continue };
            let trace = &w.cta.warps[w.warp_index];
            let stall = match w.status {
                WarpStatus::Exited => WarpStall::Exited,
                WarpStatus::AtBarrier(_) => WarpStall::Barrier,
                WarpStatus::Ready => match w.next_op() {
                    None => WarpStall::TraceExhausted,
                    Some(_) if w.next_blocked_on_mem() => WarpStall::MemPending,
                    Some(_) if w.next_blocked() => WarpStall::Scoreboard,
                    Some(_) => WarpStall::Issuable,
                },
            };
            warps.push(WarpDiagnostics {
                slot,
                stream: w.stream,
                cta_index: w.cta_index,
                warp_index: w.warp_index,
                pc: w.pc,
                trace_len: trace.len(),
                stall,
                pending_regs: (w.pending_writes | w.pending_mem).count_ones(),
            });
        }
        let mut ctas = Vec::new();
        for cta in self.ctas.iter().flatten() {
            let kernel = cta
                .warp_slots
                .first()
                .and_then(|&s| self.warps[s].as_ref())
                .map(|w| w.info.name.clone())
                .unwrap_or_default();
            ctas.push(CtaDiagnostics {
                stream: cta.stream,
                kernel,
                cta_index: cta.cta_index,
                live_warps: cta.live_warps,
                at_barrier: cta.parked(),
                arrivals: cta.arrivals,
            });
        }
        SmDiagnostics {
            id: self.id,
            ctas,
            warps,
            mshr_in_flight: self.port.in_flight(),
            lsu_queued: self.lsu.queued(),
            writebacks_pending: self.writebacks.len(),
        }
    }

    /// Scheduler-slot accounting since construction.
    pub fn stalls(&self) -> StallBreakdown {
        self.stalls
    }

    /// Whether [`Sm::cycle`] at `now` would sleep rather than tick.
    pub fn asleep(&self, now: u64) -> bool {
        now < self.wake_at
    }

    /// Advance one cycle. Touches only SM-private state (including the
    /// owned memory port).
    ///
    /// A cycle in which nothing issued and the LSU neither presented a
    /// sector nor retired an entry puts the SM to sleep: until a writeback
    /// or locally-satisfied sector comes due, or a busy exec pipe frees,
    /// every cycle would repeat it exactly. A slept cycle only re-counts
    /// the last ticked cycle's stall classification. A memory completion
    /// or a CTA launch wakes the SM at once.
    pub fn cycle(&mut self, now: u64) -> CycleOutput {
        let mut out = CycleOutput::default();
        if self.asleep(now) {
            #[cfg(debug_assertions)]
            self.audit_sleep(now);
            self.stalls.merge(&self.idle_stalls);
            return out;
        }

        // 1. Retire ALU writebacks due this cycle.
        while let Some(&Reverse((t, slot, reg))) = self.writebacks.peek() {
            if t > now {
                break;
            }
            self.writebacks.pop();
            if let Some(w) = self.warps[slot].as_mut() {
                w.clear_pending(Reg(reg));
                self.reclass(slot);
            }
        }

        // 2. Retire locally-satisfied memory sectors.
        while let Some(&Reverse((t, id))) = self.mem_ready.peek() {
            if t > now {
                break;
            }
            self.mem_ready.pop();
            self.on_mem_completion(id);
        }

        // 3. Work the LSU against the private port.
        let lsu_moved =
            self.lsu
                .process(self.id, now, &self.cfg, &mut self.port, &mut self.mem_ready);

        // 4. Each scheduler issues at most one instruction (GTO or LRR).
        #[cfg(debug_assertions)]
        self.audit_classes(now);
        let mut slots = StallBreakdown::default();
        for s in 0..self.cfg.schedulers as usize {
            let pick = self.pick(s, now);
            #[cfg(debug_assertions)]
            assert_eq!(
                pick,
                self.pick_warp(s, now),
                "SM {}: scheduler {s} picked from its class sets unlike the slot scan at cycle {now}",
                self.id
            );
            match pick {
                Some(slot) => {
                    self.issue_from(slot, now, &mut out);
                    self.last_issued[s] = Some(slot);
                    slots.issued += 1;
                }
                None => {
                    let cause = self.stall_cause(s);
                    #[cfg(debug_assertions)]
                    assert_eq!(
                        cause,
                        self.classify_stall(s),
                        "SM {}: scheduler {s} stall cause from its class sets differs from the slot scan at cycle {now}",
                        self.id
                    );
                    slots.record(cause);
                }
            }
        }
        self.stalls.merge(&slots);

        // 5. Sleep through the cycles that would repeat this one.
        if out.issued == 0 && !lsu_moved {
            self.idle_stalls = slots;
            let due = [
                self.writebacks.peek().map(|r| r.0 .0),
                self.mem_ready.peek().map(|r| r.0 .0),
                self.units.next_free_after(now),
            ];
            self.wake_at = due.into_iter().flatten().min().unwrap_or(u64::MAX);
        }
        out
    }

    /// Re-derive a slept cycle the long way and check that sleeping was
    /// exact: nothing comes due, the LSU is still stuck, no warp can issue,
    /// and the stall classification matches the one being re-counted.
    #[cfg(debug_assertions)]
    fn audit_sleep(&self, now: u64) {
        let id = self.id;
        assert!(
            self.writebacks.peek().is_none_or(|r| r.0 .0 > now)
                && self.mem_ready.peek().is_none_or(|r| r.0 .0 > now),
            "SM {id} slept through a retirement due at cycle {now}"
        );
        assert!(
            self.lsu.stuck(&self.port),
            "SM {id} slept through cycle {now} with an LSU that could move"
        );
        let mut slots = StallBreakdown::default();
        for s in 0..self.cfg.schedulers as usize {
            assert!(
                self.pick_warp(s, now).is_none(),
                "SM {id} slept through cycle {now} with an issuable warp on scheduler {s}"
            );
            slots.record(self.classify_stall(s));
        }
        assert_eq!(
            slots, self.idle_stalls,
            "SM {id}: stall classification changed during sleep at cycle {now}"
        );
    }

    /// Re-derive the class of the warp in `slot` from its state. Runs
    /// wherever a warp's status, cursor or scoreboard changes.
    fn reclass(&mut self, slot: usize) {
        let class = self.warps[slot].as_ref().and_then(WarpState::class);
        let n_sched = self.classes.len();
        self.classes[slot % n_sched].put(slot / n_sched, class);
    }

    /// Warp selection for scheduler `s` from its ready warps, per the
    /// configured policy. GTO takes the greedily-held warp, else the oldest
    /// one whose pipe or LSU has room; LRR the first such warp after the
    /// last one issued, wrapping around the scheduler's slots.
    fn pick(&self, s: usize, now: u64) -> Option<usize> {
        let n_sched = self.classes.len();
        let ready = &self.classes[s].ready;
        let last = self.last_issued[s];
        let ready_slots = ready.iter().map(|k| s + k * n_sched);
        match self.cfg.scheduler {
            SchedulerPolicy::Gto => {
                if let Some(last) = last {
                    if ready.contains(last / n_sched) && self.unit_free(self.warp(last), now) {
                        return Some(last);
                    }
                }
                let mut best: Option<(u64, usize)> = None;
                for slot in ready_slots {
                    let w = self.warp(slot);
                    if best.is_none_or(|(age, _)| w.age < age) && self.unit_free(w, now) {
                        best = Some((w.age, slot));
                    }
                }
                best.map(|(_, slot)| slot)
            }
            SchedulerPolicy::Lrr => {
                let mut free = ready_slots.filter(|&slot| self.unit_free(self.warp(slot), now));
                let first = free.next()?;
                match last {
                    Some(last) if first <= last => {
                        Some(free.find(|&slot| slot > last).unwrap_or(first))
                    }
                    _ => Some(first),
                }
            }
        }
    }

    /// Attribute scheduler `s`'s failure to issue: the highest-priority
    /// cause over its live resident warps (see [`StallBreakdown`]), or
    /// `None` when the scheduler has no live warps at all (an `empty` slot).
    fn stall_cause(&self, s: usize) -> Option<StallCause> {
        let (n_sched, c) = (self.classes.len(), &self.classes[s]);
        if !c.mem_wait.is_empty() {
            return Some(StallCause::MemPending);
        }
        // A ready warp that was not picked lacks its structural resource:
        // the LSU for a memory op, else its pipe. (Bar/Exit always issue.)
        let is_mem = |k| {
            let op = self.warp(s + k * n_sched).next_op();
            matches!(op, Some(Op::Ld(_) | Op::St(_)))
        };
        if c.ready.iter().any(is_mem) {
            return Some(StallCause::MshrFull);
        }
        if !c.sb_wait.is_empty() {
            Some(StallCause::Scoreboard)
        } else if !c.ready.is_empty() {
            Some(StallCause::PipeBusy)
        } else if !c.bar_wait.is_empty() {
            Some(StallCause::Barrier)
        } else {
            None
        }
    }

    /// The resident warp in `slot`, which a class set names.
    fn warp(&self, slot: usize) -> &WarpState {
        self.warps[slot]
            .as_ref()
            .expect("a classed slot holds a warp")
    }

    /// Whether the pipe or LSU the next instruction of `w` needs has room
    /// at `now`. Availability is only *checked* here; reservation happens
    /// at issue (busy_count == units means nothing free).
    fn unit_free(&self, w: &WarpState, now: u64) -> bool {
        match w.next_op() {
            None => false,
            Some(Op::Ld(_) | Op::St(_)) => self.lsu.has_room(),
            Some(Op::Bar(_) | Op::Exit) => true,
            Some(op) => (self.units.busy_count(op, now) as u32) < self.cfg.units_for(op),
        }
    }

    /// Check that every slot's class set matches its warp's state.
    #[cfg(debug_assertions)]
    fn audit_classes(&self, now: u64) {
        let n_sched = self.classes.len();
        for (slot, w) in self.warps.iter().enumerate() {
            assert_eq!(
                self.classes[slot % n_sched].get(slot / n_sched),
                w.as_ref().and_then(WarpState::class),
                "SM {}: class of warp slot {slot} is stale at cycle {now}",
                self.id
            );
        }
    }

    // The slot scans below are the reference the class sets are checked
    // against: debug builds run them beside `pick`/`stall_cause` on every
    // ticked cycle, and to audit slept ones.

    /// [`Sm::stall_cause`] by scanning every slot scheduler `s` owns.
    #[cfg(debug_assertions)]
    fn classify_stall(&self, s: usize) -> Option<StallCause> {
        let n_sched = self.cfg.schedulers as usize;
        let mut cause: Option<StallCause> = None;
        for slot in (s..self.warps.len()).step_by(n_sched) {
            let Some(w) = self.warps[slot].as_ref() else {
                continue;
            };
            let c = match w.status {
                WarpStatus::Exited => continue,
                WarpStatus::AtBarrier(_) => StallCause::Barrier,
                WarpStatus::Ready => match w.next_op() {
                    None => continue,
                    Some(_) if w.next_blocked_on_mem() => StallCause::MemPending,
                    Some(_) if w.next_blocked() => StallCause::Scoreboard,
                    // The warp was ready yet not picked: its structural
                    // resource is exhausted. (Bar/Exit always issue, so they
                    // cannot reach these arms.)
                    Some(Op::Ld(_) | Op::St(_)) => StallCause::MshrFull,
                    Some(_) => StallCause::PipeBusy,
                },
            };
            cause = Some(cause.map_or(c, |prev| prev.max(c)));
        }
        cause
    }

    /// [`Sm::pick`] by scanning every slot scheduler `s` owns.
    #[cfg(debug_assertions)]
    fn pick_warp(&self, s: usize, now: u64) -> Option<usize> {
        match self.cfg.scheduler {
            SchedulerPolicy::Gto => self.pick_warp_gto(s, now),
            SchedulerPolicy::Lrr => self.pick_warp_lrr(s, now),
        }
    }

    /// GTO: the greedily-held warp first, else the oldest ready warp owned
    /// by this scheduler.
    #[cfg(debug_assertions)]
    fn pick_warp_gto(&self, s: usize, now: u64) -> Option<usize> {
        let n_sched = self.cfg.schedulers as usize;
        if let Some(slot) = self.last_issued[s] {
            if self.warp_can_issue(slot, now) {
                return Some(slot);
            }
        }
        let mut best: Option<(u64, usize)> = None;
        for slot in (s..self.warps.len()).step_by(n_sched) {
            if self.warp_can_issue(slot, now) {
                let age = self.warps[slot].as_ref().map(|w| w.age).unwrap_or(u64::MAX);
                if best.is_none_or(|(ba, _)| age < ba) {
                    best = Some((age, slot));
                }
            }
        }
        best.map(|(_, slot)| slot)
    }

    /// LRR: the first ready warp strictly after the last one issued,
    /// wrapping around this scheduler's slots.
    ///
    /// Scheduler `s` owns slots `s, s + n_sched, s + 2*n_sched, …`; the
    /// k-th owned slot is computed arithmetically.
    #[cfg(debug_assertions)]
    fn pick_warp_lrr(&self, s: usize, now: u64) -> Option<usize> {
        let n_sched = self.cfg.schedulers as usize;
        if s >= self.warps.len() {
            return None;
        }
        let n_slots = (self.warps.len() - s).div_ceil(n_sched);
        let start = match self.last_issued[s] {
            // last = s + p*n_sched → resume from owned index p + 1.
            Some(last) if last >= s => (last - s) / n_sched + 1,
            _ => 0,
        };
        for k in 0..n_slots {
            let slot = s + ((start + k) % n_slots) * n_sched;
            if self.warp_can_issue(slot, now) {
                return Some(slot);
            }
        }
        None
    }

    /// Whether the warp in `slot` can issue its next instruction at `now`,
    /// from its status, cached hazard mask and the pipe or LSU it needs.
    #[cfg(debug_assertions)]
    fn warp_can_issue(&self, slot: usize, now: u64) -> bool {
        self.warps[slot].as_ref().is_some_and(|w| {
            w.status == WarpStatus::Ready && !w.next_blocked() && self.unit_free(w, now)
        })
    }

    /// Issue the next instruction of the warp in `slot`.
    fn issue_from(&mut self, slot: usize, now: u64, out: &mut CycleOutput) {
        let w = self.warps[slot].as_ref().expect("picked warp exists");
        w.assert_registers();
        let op = w.next_op().expect("picked warp has an instruction");
        let stream = w.stream;
        match op {
            Op::Bar(id) => self.issue_barrier(slot, id),
            Op::Exit => self.issue_exit(slot, out),
            Op::Ld(space) | Op::St(space) => self.issue_mem(slot, space, matches!(op, Op::Ld(_))),
            op => {
                // ALU / SFU / tensor / branch: reserve the pipe.
                let ok = self.units.try_issue(op, now, &self.cfg);
                debug_assert!(ok, "pick checked unit availability");
                let (lat, _ii) = self.cfg.timing(op);
                let w = self.warps[slot].as_mut().expect("picked warp exists");
                if let Some(d) = w.next_instr().and_then(|i| i.dst) {
                    w.set_pending(d);
                    self.writebacks.push(Reverse((now + lat, slot, d.0)));
                }
                w.advance();
            }
        }
        self.reclass(slot);
        out.issued += 1;
        self.issued_by_stream.bump(stream);
        self.window_issued.bump(stream);
    }

    /// Coalesce a load or store into sectors and queue it on the LSU. The
    /// access is read in place from the trace and the sector list reuses a
    /// retired entry's, so this allocates nothing in the steady state.
    fn issue_mem(&mut self, slot: usize, space: Space, is_load: bool) {
        let id = self.next_inflight;
        self.next_inflight += 1;
        let mut sectors = self.lsu.sector_buf();
        let w = self.warps[slot].as_ref().expect("picked warp exists");
        let instr = w.next_instr().expect("picked warp has an instruction");
        let access = instr.mem.expect("memory op carries an access");
        if space != Space::Shared {
            access.distinct_chunks_into(SECTOR_BYTES, &mut sectors);
            sectors.iter_mut().for_each(|c| *c *= SECTOR_BYTES);
        }
        let class = if space == Space::Tex {
            DataClass::Texture
        } else {
            access.class
        };
        let (dst, stream) = (instr.dst, w.stream);
        if is_load {
            let remaining = if space == Space::Shared {
                1
            } else {
                sectors.len()
            };
            self.inflight.insert(
                id,
                Inflight {
                    warp_slot: slot,
                    reg: dst,
                    remaining,
                },
            );
        }
        self.lsu.push(LsuEntry {
            stream,
            class,
            space,
            is_load,
            sectors,
            next: 0,
            inflight_id: id,
        });
        let w = self.warps[slot].as_mut().expect("picked warp exists");
        if let (true, Some(d)) = (is_load, dst) {
            w.set_pending_mem(d);
        }
        w.advance();
    }

    fn issue_barrier(&mut self, slot: usize, id: u8) {
        let cta_slot = {
            let w = self.warps[slot].as_mut().expect("warp exists");
            w.advance(); // resume *after* the barrier once released
            w.status = WarpStatus::AtBarrier(id);
            w.cta_slot
        };
        let release = {
            let cta = self.ctas[cta_slot].as_mut().expect("warp belongs to a CTA");
            cta.arrivals[id as usize] += 1;
            cta.arrivals[id as usize] as usize >= cta.live_warps
        };
        if release {
            self.release_barrier(cta_slot, id);
        }
    }

    /// Release every warp parked at barrier slot `id` of this CTA. Warps
    /// parked at *other* slots stay parked — that isolation is what makes
    /// divergent-slot traces wedge (and what the static prover catches).
    fn release_barrier(&mut self, cta_slot: usize, id: u8) {
        let cta = self.ctas[cta_slot].as_mut().expect("cta exists");
        let n_sched = self.classes.len();
        for &s in &cta.warp_slots {
            if let Some(w) = self.warps[s].as_mut() {
                if w.status == WarpStatus::AtBarrier(id) {
                    w.status = WarpStatus::Ready;
                    self.classes[s % n_sched].put(s / n_sched, w.class());
                }
            }
        }
        cta.arrivals[id as usize] = 0;
    }

    fn issue_exit(&mut self, slot: usize, out: &mut CycleOutput) {
        let cta_slot = {
            let w = self.warps[slot].as_mut().expect("warp exists");
            w.status = WarpStatus::Exited;
            w.advance();
            w.cta_slot
        };
        let (committed, release_ids) = {
            let cta = self.ctas[cta_slot].as_mut().expect("warp belongs to a CTA");
            cta.live_warps -= 1;
            let committed = cta.live_warps == 0;
            // A shrinking CTA can satisfy a pending barrier (short warps
            // exit early by design). At most one slot can reach the
            // threshold — the parked total is bounded by live_warps — but
            // scanning all of them keeps the invariant local.
            let mut ids = [false; NUM_BARRIERS];
            if !committed {
                for (id, &n) in cta.arrivals.iter().enumerate() {
                    ids[id] = n > 0 && n as usize >= cta.live_warps;
                }
            }
            (committed, ids)
        };
        for (id, release) in release_ids.iter().enumerate() {
            if *release {
                self.release_barrier(cta_slot, id as u8);
            }
        }
        if committed {
            let cta = self.ctas[cta_slot].take().expect("committing CTA exists");
            for &s in &cta.warp_slots {
                self.warps[s] = None;
                self.reclass(s);
            }
            self.n_resident_warps -= cta.warp_slots.len();
            self.resources.release(cta.stream, cta.resources);
            out.commits.push(CtaCommit {
                stream: cta.stream,
                kernel: cta.kernel,
                seq: cta.seq,
                cta_index: cta.cta_index,
            });
        }
    }
}

crisp_ckpt::wire_struct!(StallBreakdown {
    issued,
    empty,
    blocked,
    scoreboard,
    mem_pending,
    mshr_full,
    pipe_busy,
    barrier
});
crisp_ckpt::wire_struct!(ResidentCta {
    stream,
    kernel,
    seq,
    cta_index,
    resources,
    warp_slots,
    live_warps,
    arrivals
});
crisp_ckpt::wire_struct!(Inflight {
    warp_slot,
    reg,
    remaining
});

impl CheckpointState for Sm {
    /// `(sm id, core config, hierarchy config, trace source)` — everything
    /// outside the serialized state needed to rebuild the SM. Resident
    /// warps page their CTAs back in through the source.
    type RestoreCtx<'a> = (usize, SmConfig, &'a MemConfig, &'a mut TraceSource);

    fn save<W: io::Write>(&self, w: &mut Writer<W>) -> io::Result<()> {
        w.put(&self.id)?;
        self.resources.save(w)?;
        w.seq(&self.warps, |w, warp| {
            w.option(warp.as_ref(), |w, ws| ws.save(w))
        })?;
        w.put(&self.ctas)?;
        w.put(&self.units)?;
        self.lsu.save(w)?;
        self.port.save(w)?;
        // Heaps are written sorted and maps by key, for a deterministic byte
        // stream; a sorted push-rebuild pops identically.
        w.put(&self.writebacks)?;
        w.put(&self.mem_ready)?;
        w.put(&self.inflight)?;
        w.put(&self.next_inflight)?;
        w.put(&self.launch_seq)?;
        w.put(&self.last_issued)?;
        w.put(&self.issued_by_stream)?;
        w.put(&self.window_issued)?;
        w.put(&self.stalls)
    }

    fn restore<R: io::Read>(
        r: &mut Reader<R>,
        (id, cfg, mem_cfg, source): (usize, SmConfig, &MemConfig, &mut TraceSource),
    ) -> io::Result<Self> {
        let found: usize = r.get()?;
        if found != id {
            return Err(bad(format!("checkpoint SM id {found}, expected {id}")));
        }
        let resources = SmResources::restore(r, cfg)?;
        let warps = r.seq(|r| r.option(|r| WarpState::restore(r, &mut *source)))?;
        let ctas: Vec<Option<ResidentCta>> = r.get()?;
        let units: ExecUnits = r.get()?;
        let lsu = Lsu::restore(r, &cfg)?;
        let port = SmMemPort::restore(r, (id as u16, mem_cfg))?;
        let writebacks: BinaryHeap<Reverse<(u64, usize, u16)>> = r.get()?;
        let mem_ready = r.get()?;
        let inflight: InflightTable = r.get()?;
        let next_inflight: u64 = r.get()?;
        let launch_seq = r.get()?;
        let last_issued: Vec<Option<usize>> = r.get()?;
        let issued_by_stream = r.get()?;
        let window_issued = r.get()?;
        let stalls = r.get()?;

        let max_warps = cfg.max_warps as usize;
        let max_ctas = cfg.max_ctas as usize;
        let n_sched = cfg.schedulers as usize;
        if warps.len() != max_warps {
            return Err(bad(format!(
                "SM has {} warp slots, config implies {max_warps}",
                warps.len()
            )));
        }
        if ctas.len() != max_ctas {
            return Err(bad(format!(
                "SM has {} CTA slots, config implies {max_ctas}",
                ctas.len()
            )));
        }
        // Every resident CTA owns distinct warp slots holding warps that
        // point back at it, and every resident warp is owned that way.
        let mut owner = vec![None; max_warps];
        for (ci, c) in ctas.iter().enumerate() {
            let Some(c) = c else { continue };
            if c.kernel.0 as usize >= source.n_kernels() {
                return Err(bad(format!("resident CTA references unknown {}", c.kernel)));
            }
            let parked: usize = c.arrivals.iter().map(|&n| n as usize).sum();
            if c.live_warps > c.warp_slots.len() || parked > c.warp_slots.len() {
                return Err(bad("cta warp counts exceed its slot list"));
            }
            for &s in &c.warp_slots {
                if s >= max_warps {
                    return Err(bad(format!("cta warp slot {s} >= {max_warps}")));
                }
                if owner[s].replace(ci).is_some() {
                    return Err(bad(format!("warp slot {s} owned by two CTAs")));
                }
            }
        }
        for (slot, w) in warps.iter().enumerate() {
            if let Some(w) = w {
                if w.cta_slot >= max_ctas {
                    return Err(bad(format!("warp cta slot {} out of range", w.cta_slot)));
                }
                let cta = ctas[w.cta_slot]
                    .as_ref()
                    .filter(|_| owner[slot] == Some(w.cta_slot));
                if cta.is_none_or(|c| (c.kernel, c.cta_index) != (w.kernel, w.cta_index)) {
                    return Err(bad(format!("warp slot {slot} not owned by its CTA")));
                }
            } else if owner[slot].is_some() {
                return Err(bad(format!("CTA owns empty warp slot {slot}")));
            }
        }
        // Live and parked counts are exactly what the owned warps' states
        // say; exit and barrier release decrement and reset them.
        for c in ctas.iter().flatten() {
            let states = c.warp_slots.iter().filter_map(|&s| warps[s].as_ref());
            let live = states.clone().filter(|w| w.status != WarpStatus::Exited);
            let mut parked = [0usize; NUM_BARRIERS];
            for w in states {
                if let WarpStatus::AtBarrier(id) = w.status {
                    parked[id as usize] += 1;
                }
            }
            if c.live_warps != live.count()
                || c.arrivals.iter().zip(parked).any(|(&a, p)| a as usize != p)
            {
                return Err(bad("CTA warp counts disagree with its warps"));
            }
        }
        resources.check_restored(ctas.iter().flatten().map(|c| (c.stream, c.resources)))?;
        units.check_restored(&cfg)?;
        for &Reverse((_, slot, reg)) in &writebacks {
            if slot >= max_warps {
                return Err(bad(format!("writeback warp slot {slot} out of range")));
            }
            if reg >= 128 {
                return Err(bad(format!("writeback register {reg} out of range")));
            }
        }
        for (_, f) in &inflight.0 {
            if f.warp_slot >= max_warps {
                return Err(bad(format!(
                    "inflight warp slot {} out of range",
                    f.warp_slot
                )));
            }
            if f.reg.is_some_and(|x| x.0 >= 128) {
                return Err(bad("inflight register out of range"));
            }
            if f.remaining == 0 {
                return Err(bad("inflight load with no sectors outstanding"));
            }
        }
        // New loads are tracked under `next_inflight` and up, after every
        // restored id.
        if inflight
            .0
            .back()
            .is_some_and(|&(id, _)| id >= next_inflight)
        {
            return Err(bad("inflight id at or past the next inflight id"));
        }
        if last_issued.len() != n_sched {
            return Err(bad(format!(
                "SM has {} scheduler pointers, config implies {n_sched}",
                last_issued.len()
            )));
        }
        // Scheduler `s` only ever issues from the slots it owns.
        let foreign = |(s, last): (usize, &Option<usize>)| {
            last.is_some_and(|slot| slot >= max_warps || slot % n_sched != s)
        };
        if last_issued.iter().enumerate().any(foreign) {
            return Err(bad("scheduler pointer out of range"));
        }
        let mut sm = Sm {
            id,
            cfg,
            resources,
            n_resident_warps: warps.iter().flatten().count(),
            warps,
            ctas,
            units,
            lsu,
            port,
            writebacks,
            mem_ready,
            inflight,
            next_inflight,
            launch_seq,
            last_issued,
            classes: WarpClasses::per_scheduler(&cfg),
            issued_by_stream,
            window_issued,
            stalls,
            wake_at: 0,
            idle_stalls: StallBreakdown::default(),
        };
        for slot in 0..max_warps {
            sm.reclass(slot);
        }
        Ok(sm)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crisp_mem::{CacheGeometry, MemConfig, MemSystem};
    use crisp_trace::{CtaTrace, Instr, KernelTrace, MemAccess, WarpTrace};
    use std::sync::Arc;

    fn mem_cfg() -> MemConfig {
        MemConfig {
            n_sms: 1,
            l1_geom: CacheGeometry {
                size_bytes: 16384,
                assoc: 4,
            },
            l1_latency: 4,
            l1_mshr_entries: 32,
            l1_mshr_merges: 8,
            l2_geom: CacheGeometry {
                size_bytes: 65536,
                assoc: 8,
            },
            n_l2_banks: 2,
            l2_latency: 20,
            l2_mshr_entries: 32,
            xbar_latency: 4,
            dram_latency: 100,
            dram_bytes_per_cycle: 64.0,
            l2_replacement: crisp_mem::Replacement::Lru,
        }
    }

    fn mem() -> MemSystem {
        MemSystem::new(mem_cfg())
    }

    fn new_sm(cfg: SmConfig) -> Sm {
        Sm::new(0, cfg, SmMemPort::new(0, &mem_cfg()))
    }

    fn run_to_completion(sm: &mut Sm, mem: &mut MemSystem, budget: u64) -> (Vec<CtaCommit>, u64) {
        let mut commits = Vec::new();
        let mut cycles = 0;
        for now in 0..budget {
            let out = sm.cycle(now);
            commits.extend(out.commits);
            let completions = {
                let mut ports = [sm.port_mut()];
                mem.tick(now, &mut ports)
            };
            for c in completions {
                sm.on_mem_completion(c.token.id);
            }
            cycles = now + 1;
            if !sm.busy() && mem.quiescent() {
                break;
            }
        }
        (commits, cycles)
    }

    fn launch(sm: &mut Sm, k: &Arc<KernelTrace>, cta_index: usize, seq: u64) {
        let work = CtaWork {
            stream: StreamId(0),
            kernel: crisp_trace::KernelId(0),
            info: Arc::new(crisp_trace::KernelInfo::of(k)),
            cta: k.ctas[cta_index].clone(),
            cta_index,
            seq,
        };
        assert!(sm.fits(StreamId(0), work.resources(), ResourceQuota::unlimited()));
        sm.launch_cta(work);
    }

    fn alu_kernel(n_instr: usize, n_warps: usize, n_ctas: usize) -> Arc<KernelTrace> {
        let mut w = WarpTrace::new();
        for i in 0..n_instr {
            // Independent FMAs (distinct dsts) to expose ILP.
            w.push(Instr::alu(Op::FpFma, Reg((i % 8) as u16 + 1), &[]));
        }
        w.seal();
        let cta = CtaTrace::new(vec![w; n_warps]);
        Arc::new(KernelTrace::new(
            "alu",
            32 * n_warps as u32,
            16,
            0,
            vec![cta; n_ctas],
        ))
    }

    #[test]
    fn single_warp_alu_kernel_completes() {
        let mut sm = new_sm(SmConfig::default());
        let mut m = mem();
        let k = alu_kernel(10, 1, 1);
        launch(&mut sm, &k, 0, 0);
        let (commits, cycles) = run_to_completion(&mut sm, &mut m, 1000);
        assert_eq!(commits.len(), 1);
        assert_eq!(
            commits[0],
            CtaCommit {
                stream: StreamId(0),
                kernel: crisp_trace::KernelId(0),
                seq: 0,
                cta_index: 0
            }
        );
        assert!(!sm.busy());
        assert!(
            cycles >= 11,
            "10 FMAs + exit takes at least 11 cycles, got {cycles}"
        );
        assert_eq!(sm.issued_for(StreamId(0)), 11);
    }

    #[test]
    fn dependent_chain_serialises_on_latency() {
        // r1 = f(r1) chained: each FMA waits the full 4-cycle latency.
        let mut w = WarpTrace::new();
        for _ in 0..10 {
            w.push(Instr::alu(Op::FpFma, Reg(1), &[Reg(1)]));
        }
        w.seal();
        let k = Arc::new(KernelTrace::new(
            "dep",
            32,
            16,
            0,
            vec![CtaTrace::new(vec![w])],
        ));
        let mut sm = new_sm(SmConfig::default());
        let mut m = mem();
        launch(&mut sm, &k, 0, 0);
        let (_, cycles) = run_to_completion(&mut sm, &mut m, 1000);
        assert!(
            cycles >= 40,
            "10 dependent FMAs × 4-cycle latency, got {cycles}"
        );
    }

    #[test]
    fn multiple_warps_hide_dependency_latency() {
        // 8 warps of dependent chains overlap; total time far less than 8×.
        let mut w = WarpTrace::new();
        for _ in 0..10 {
            w.push(Instr::alu(Op::FpFma, Reg(1), &[Reg(1)]));
        }
        w.seal();
        let cta = CtaTrace::new(vec![w; 8]);
        let k = Arc::new(KernelTrace::new("dep8", 256, 16, 0, vec![cta]));
        let mut sm = new_sm(SmConfig::default());
        let mut m = mem();
        launch(&mut sm, &k, 0, 0);
        let (_, cycles) = run_to_completion(&mut sm, &mut m, 10_000);
        assert!(cycles < 8 * 40, "TLP must hide ALU latency, got {cycles}");
    }

    #[test]
    fn load_roundtrip_clears_scoreboard() {
        let mut w = WarpTrace::new();
        w.push(Instr::load(
            Reg(1),
            MemAccess::coalesced(Space::Global, DataClass::Compute, 4, 0x1000, 32),
        ));
        w.push(Instr::alu(Op::FpFma, Reg(2), &[Reg(1)])); // depends on the load
        w.seal();
        let k = Arc::new(KernelTrace::new(
            "ld",
            32,
            16,
            0,
            vec![CtaTrace::new(vec![w])],
        ));
        let mut sm = new_sm(SmConfig::default());
        let mut m = mem();
        launch(&mut sm, &k, 0, 0);
        let (commits, cycles) = run_to_completion(&mut sm, &mut m, 10_000);
        assert_eq!(commits.len(), 1);
        // Must include the DRAM round trip (~130+ cycles).
        assert!(
            cycles > 100,
            "dependent FMA must wait for DRAM, got {cycles}"
        );
    }

    #[test]
    fn barrier_synchronises_warps() {
        // Warp 0 does long SFU work before the barrier; warp 1 reaches it
        // immediately. Both must pass the barrier together.
        let mut w0 = WarpTrace::new();
        for i in 0..16 {
            w0.push(Instr::alu(Op::Sfu, Reg(i + 1), &[]));
        }
        w0.push(Instr::bar());
        w0.push(Instr::alu(Op::IntAlu, Reg(20), &[]));
        w0.seal();
        let mut w1 = WarpTrace::new();
        w1.push(Instr::bar());
        w1.push(Instr::alu(Op::IntAlu, Reg(20), &[]));
        w1.seal();
        let k = Arc::new(KernelTrace::new(
            "bar",
            64,
            16,
            0,
            vec![CtaTrace::new(vec![w0, w1])],
        ));
        let mut sm = new_sm(SmConfig::default());
        let mut m = mem();
        launch(&mut sm, &k, 0, 0);
        let (commits, _) = run_to_completion(&mut sm, &mut m, 10_000);
        assert_eq!(commits.len(), 1, "barrier must not deadlock");
    }

    #[test]
    fn exit_releases_barrier_waiters() {
        // Warp 1 exits without reaching the barrier; warp 0 waits at it.
        // The CTA must still complete (live-warp count shrinks).
        let mut w0 = WarpTrace::new();
        w0.push(Instr::bar());
        w0.push(Instr::alu(Op::IntAlu, Reg(1), &[]));
        w0.seal();
        let mut w1 = WarpTrace::new();
        for i in 0..8 {
            w1.push(Instr::alu(Op::Sfu, Reg(i + 1), &[]));
        }
        w1.seal(); // exits immediately after ALU work, never hits a bar
        let k = Arc::new(KernelTrace::new(
            "exitbar",
            64,
            16,
            0,
            vec![CtaTrace::new(vec![w0, w1])],
        ));
        let mut sm = new_sm(SmConfig::default());
        let mut m = mem();
        launch(&mut sm, &k, 0, 0);
        let (commits, _) = run_to_completion(&mut sm, &mut m, 10_000);
        assert_eq!(commits.len(), 1, "exit must release barrier waiters");
    }

    #[test]
    fn commits_free_resources_for_refill() {
        let mut sm = new_sm(SmConfig::default());
        let mut m = mem();
        let k = alu_kernel(4, 4, 2);
        launch(&mut sm, &k, 0, 0);
        let before = sm.resources().total().warps;
        assert_eq!(before, 4);
        let (commits, _) = run_to_completion(&mut sm, &mut m, 10_000);
        assert_eq!(commits.len(), 1);
        assert_eq!(
            sm.resources().total().warps,
            0,
            "commit releases warp slots"
        );
        launch(&mut sm, &k, 1, 1);
        let (commits, _) = run_to_completion(&mut sm, &mut m, 10_000);
        assert_eq!(commits.len(), 1);
    }

    #[test]
    fn stall_breakdown_accounts_every_scheduler_slot() {
        let mut sm = new_sm(SmConfig::default());
        let mut m = mem();
        // A dependent FMA chain: mostly blocked cycles.
        let mut w = WarpTrace::new();
        for _ in 0..10 {
            w.push(Instr::alu(Op::FpFma, Reg(1), &[Reg(1)]));
        }
        w.seal();
        let k = Arc::new(KernelTrace::new(
            "dep",
            32,
            16,
            0,
            vec![CtaTrace::new(vec![w])],
        ));
        launch(&mut sm, &k, 0, 0);
        let (_, cycles) = run_to_completion(&mut sm, &mut m, 10_000);
        let st = sm.stalls();
        assert_eq!(st.issued, 11, "10 FMAs + exit");
        assert!(st.blocked > st.issued, "dependent chain is mostly blocked");
        assert!(st.issue_efficiency() < 0.5);
        // Every scheduler slot of every cycle is accounted for.
        assert_eq!(
            st.issued + st.blocked + st.empty,
            cycles * SmConfig::default().schedulers as u64
        );
        // And every blocked slot carries exactly one cause.
        assert_eq!(
            st.blocked,
            st.scoreboard + st.mem_pending + st.mshr_full + st.pipe_busy + st.barrier
        );
        assert!(
            st.scoreboard > 0,
            "an ALU dependency chain stalls on the scoreboard"
        );
        assert_eq!(st.mem_pending, 0, "no memory instructions in this kernel");
    }

    #[test]
    fn load_dependency_stalls_attribute_to_memory() {
        let mut w = WarpTrace::new();
        w.push(Instr::load(
            Reg(1),
            MemAccess::coalesced(Space::Global, DataClass::Compute, 4, 0x1000, 32),
        ));
        w.push(Instr::alu(Op::FpFma, Reg(2), &[Reg(1)]));
        w.seal();
        let k = Arc::new(KernelTrace::new(
            "ldchain",
            32,
            16,
            0,
            vec![CtaTrace::new(vec![w])],
        ));
        let mut sm = new_sm(SmConfig::default());
        let mut m = mem();
        launch(&mut sm, &k, 0, 0);
        let _ = run_to_completion(&mut sm, &mut m, 10_000);
        let st = sm.stalls();
        assert!(
            st.mem_pending > 50,
            "the DRAM round trip dominates the wait: {st:?}"
        );
        assert!(
            st.mem_pending > st.scoreboard,
            "memory wait must not be misfiled as an ALU hazard: {st:?}"
        );
    }

    #[test]
    fn barrier_waits_attribute_to_barrier() {
        // Warp 1 parks at the barrier while warp 0 (a different scheduler)
        // grinds through SFU work.
        let mut w0 = WarpTrace::new();
        for i in 0..16 {
            w0.push(Instr::alu(Op::Sfu, Reg(i + 1), &[Reg(i + 1)]));
        }
        w0.push(Instr::bar());
        w0.seal();
        let mut w1 = WarpTrace::new();
        w1.push(Instr::bar());
        w1.seal();
        let k = Arc::new(KernelTrace::new(
            "barwait",
            64,
            16,
            0,
            vec![CtaTrace::new(vec![w0, w1])],
        ));
        let mut sm = new_sm(SmConfig::default());
        let mut m = mem();
        launch(&mut sm, &k, 0, 0);
        let _ = run_to_completion(&mut sm, &mut m, 10_000);
        let st = sm.stalls();
        assert!(st.barrier > 0, "warp 1 waited at the barrier: {st:?}");
    }

    #[test]
    fn stall_breakdowns_merge() {
        let mut a = StallBreakdown {
            issued: 1,
            empty: 2,
            blocked: 3,
            scoreboard: 1,
            mem_pending: 1,
            mshr_full: 1,
            pipe_busy: 0,
            barrier: 0,
        };
        let b = StallBreakdown {
            issued: 10,
            empty: 0,
            blocked: 2,
            scoreboard: 0,
            mem_pending: 0,
            mshr_full: 0,
            pipe_busy: 1,
            barrier: 1,
        };
        a.merge(&b);
        assert_eq!(a.issued, 11);
        assert_eq!(a.blocked, 5);
        assert_eq!(
            a.blocked,
            a.scoreboard + a.mem_pending + a.mshr_full + a.pipe_busy + a.barrier
        );
    }

    #[test]
    fn per_stream_issue_counters() {
        let mut sm = new_sm(SmConfig::default());
        let mut m = mem();
        let k = alu_kernel(5, 1, 1);
        launch(&mut sm, &k, 0, 0);
        let _ = run_to_completion(&mut sm, &mut m, 1000);
        assert_eq!(sm.issued_for(StreamId(0)), 6);
        assert_eq!(sm.take_window_issued(StreamId(0)), 6);
        assert_eq!(sm.take_window_issued(StreamId(0)), 0, "window resets");
    }

    #[test]
    fn lrr_scheduler_completes_and_interleaves() {
        let cfg = SmConfig {
            scheduler: crate::config::SchedulerPolicy::Lrr,
            ..SmConfig::default()
        };
        let mut sm = new_sm(cfg);
        let mut m = mem();
        let k = alu_kernel(50, 4, 1);
        launch(&mut sm, &k, 0, 0);
        let (commits, cycles) = run_to_completion(&mut sm, &mut m, 10_000);
        assert_eq!(commits.len(), 1);
        // Same work under GTO for comparison: both must complete; LRR
        // interleaving may differ in cycles but not by orders of magnitude.
        let mut sm2 = new_sm(SmConfig::default());
        let mut m2 = mem();
        launch(&mut sm2, &k, 0, 0);
        let (_, gto_cycles) = run_to_completion(&mut sm2, &mut m2, 10_000);
        assert!((cycles as f64) < gto_cycles as f64 * 3.0);
        assert!((gto_cycles as f64) < cycles as f64 * 3.0);
    }

    #[test]
    fn class_sets_schedule_more_than_64_warps() {
        // 128 warp slots span two words of every class set. Four 32-warp
        // CTAs mix loads, dependent ALU chains and a barrier, so warps move
        // through every class; debug builds check each ticked cycle's picks
        // and stall causes against the slot scan.
        let mut w = WarpTrace::new();
        for i in 0..6u64 {
            w.push(Instr::load(
                Reg(1),
                MemAccess::coalesced(Space::Global, DataClass::Compute, 4, 0x1000 + i * 512, 32),
            ));
            w.push(Instr::alu(Op::FpFma, Reg(2), &[Reg(1)]));
            w.push(Instr::alu(Op::FpFma, Reg(2), &[Reg(2)]));
            w.push(Instr::bar());
        }
        w.seal();
        let k = Arc::new(KernelTrace::new(
            "wide",
            32 * 32,
            16,
            0,
            vec![CtaTrace::new(vec![w; 32]); 4],
        ));
        for scheduler in [SchedulerPolicy::Gto, SchedulerPolicy::Lrr] {
            let cfg = SmConfig {
                max_warps: 128,
                max_threads: 128 * 32,
                schedulers: 2,
                scheduler,
                ..SmConfig::default()
            };
            let mut sm = new_sm(cfg);
            let mut m = mem();
            for cta in 0..4 {
                launch(&mut sm, &k, cta, cta as u64);
            }
            assert_eq!(sm.resources().total().warps, 128);
            let (commits, cycles) = run_to_completion(&mut sm, &mut m, 100_000);
            assert_eq!(commits.len(), 4, "{scheduler:?}: every CTA commits");
            assert!(!sm.busy(), "{scheduler:?}: every warp retires");
            assert_eq!(sm.issued_for(StreamId(0)), 128 * 25, "{scheduler:?}");
            let st = sm.stalls();
            assert_eq!(
                st.issued + st.blocked + st.empty,
                cycles * 2,
                "{scheduler:?}: every scheduler slot is accounted for"
            );
            assert_eq!(
                st.blocked,
                st.scoreboard + st.mem_pending + st.mshr_full + st.pipe_busy + st.barrier
            );
            assert!(
                st.mem_pending > 0 && st.barrier > 0,
                "{scheduler:?}: {st:?}"
            );
        }
    }

    #[test]
    fn stream_counts_encode_like_the_btree_map_they_replaced() {
        let mut counts = StreamCounts::default();
        let mut map = std::collections::BTreeMap::new();
        for s in [3u32, 1, 3, 0, 1, 3] {
            counts.bump(StreamId(s));
            *map.entry(StreamId(s)).or_insert(0u64) += 1;
        }
        assert_eq!(counts.take(StreamId(0)), 1);
        map.remove(&StreamId(0));
        assert_eq!(counts.take(StreamId(0)), 0, "a taken stream is gone");
        let (mut a, mut b) = (Vec::new(), Vec::new());
        Writer::new(&mut a).put(&counts).unwrap();
        Writer::new(&mut b).put(&map).unwrap();
        assert_eq!(a, b);
        let back: StreamCounts = Reader::new(a.as_slice()).get().unwrap();
        assert_eq!((back.get(StreamId(1)), back.get(StreamId(3))), (2, 3));
        for bad in [
            vec![(StreamId(3), 1u64), (StreamId(1), 1)],
            vec![(StreamId(1), 1), (StreamId(1), 2)],
            vec![(StreamId(1), 0)],
        ] {
            let mut buf = Vec::new();
            Writer::new(&mut buf).put(&bad).unwrap();
            assert!(Reader::new(buf.as_slice()).get::<StreamCounts>().is_err());
        }
    }

    #[test]
    fn partial_warps_execute_correctly() {
        // A warp whose memory access has only 5 active lanes (a tail
        // fragment warp) must coalesce and complete like any other.
        let mut w = WarpTrace::new();
        w.push(Instr::load(
            Reg(1),
            MemAccess::scattered(
                Space::Global,
                DataClass::Compute,
                4,
                vec![0x100, 0x104, 0x108, 0x10C, 0x2000],
            ),
        ));
        w.push(Instr::alu(Op::FpFma, Reg(2), &[Reg(1)]));
        w.seal();
        let k = Arc::new(KernelTrace::new(
            "tail",
            32,
            16,
            0,
            vec![CtaTrace::new(vec![w])],
        ));
        let mut sm = new_sm(SmConfig::default());
        let mut m = mem();
        launch(&mut sm, &k, 0, 0);
        let (commits, _) = run_to_completion(&mut sm, &mut m, 10_000);
        assert_eq!(commits.len(), 1);
        // 5 lanes over 2 distinct sectors: exactly 2 L1 accesses.
        assert_eq!(sm.port().stats().total().accesses, 2);
    }

    /// Drive `sm` as the GPU loop does — its cycle, then the memory tick
    /// and the completions it delivers — over `cycles`. Returns the cycles
    /// that issued, the cycles whose tick delivered a completion, and how
    /// many cycles the SM slept through.
    fn drive(
        sm: &mut Sm,
        mem: &mut MemSystem,
        cycles: std::ops::Range<u64>,
    ) -> (Vec<u64>, Vec<u64>, u64) {
        let (mut issued, mut completed, mut slept) = (Vec::new(), Vec::new(), 0);
        for now in cycles {
            slept += u64::from(sm.asleep(now));
            if sm.cycle(now).issued > 0 {
                issued.push(now);
            }
            let done = mem.tick(now, &mut [sm.port_mut()]);
            if !done.is_empty() {
                completed.push(now);
            }
            for c in done {
                sm.on_mem_completion(c.token.id);
            }
        }
        (issued, completed, slept)
    }

    fn one_cta(name: &str, warps: Vec<WarpTrace>) -> Arc<KernelTrace> {
        let threads = 32 * warps.len() as u32;
        Arc::new(KernelTrace::new(
            name,
            threads,
            16,
            0,
            vec![CtaTrace::new(warps)],
        ))
    }

    /// `ld r1 ← [0x1000]; fma r2 ← r1`: a warp that waits a DRAM round trip.
    fn load_use_warp() -> WarpTrace {
        let mut w = WarpTrace::new();
        w.push(Instr::load(
            Reg(1),
            MemAccess::coalesced(Space::Global, DataClass::Compute, 4, 0x1000, 32),
        ));
        w.push(Instr::alu(Op::FpFma, Reg(2), &[Reg(1)]));
        w.seal();
        w
    }

    #[test]
    fn completion_wakes_a_sleeping_sm_for_the_next_cycle() {
        let mut sm = new_sm(SmConfig::default());
        let mut m = mem();
        launch(&mut sm, &one_cta("ld", vec![load_use_warp()]), 0, 0);
        let (issued, completed, slept) = drive(&mut sm, &mut m, 0..1000);
        let t = *completed.last().expect("the load completes");
        assert_eq!(issued, vec![0, t + 1, t + 2], "ld, then fma and exit");
        assert!(slept > 100, "the DRAM wait is slept through: {slept}");
        let st = sm.stalls();
        assert_eq!(st.issued + st.blocked + st.empty, 1000 * 4);
        assert_eq!(st.mem_pending, t, "slept cycles re-count the wait: {st:?}");
    }

    #[test]
    fn cta_launch_wakes_a_sleeping_sm_at_once() {
        let mut sm = new_sm(SmConfig::default());
        let mut m = mem();
        launch(&mut sm, &one_cta("ld", vec![load_use_warp()]), 0, 0);
        let (issued, _, _) = drive(&mut sm, &mut m, 0..20);
        assert_eq!(issued, vec![0]);
        assert!(sm.asleep(20), "waiting on DRAM");
        launch(&mut sm, &alu_kernel(1, 1, 1), 0, 1);
        assert!(!sm.asleep(20));
        let (issued, _, _) = drive(&mut sm, &mut m, 20..22);
        assert_eq!(issued, vec![20, 21], "fma, then exit");
    }

    #[test]
    fn due_writeback_wakes_a_sleeping_sm() {
        let mut w = WarpTrace::new();
        w.push(Instr::alu(Op::FpFma, Reg(1), &[]));
        w.push(Instr::alu(Op::FpFma, Reg(1), &[Reg(1)]));
        w.seal();
        let mut sm = new_sm(SmConfig::default());
        let mut m = mem();
        launch(&mut sm, &one_cta("dep", vec![w]), 0, 0);
        let (lat, _) = SmConfig::default().timing(Op::FpFma);
        let (issued, _, slept) = drive(&mut sm, &mut m, 0..lat + 2);
        assert_eq!(issued, vec![0, lat, lat + 1], "fma, dependent fma, exit");
        assert_eq!(slept, lat - 2, "cycle 1 ticks and finds nothing to do");
    }

    #[test]
    fn pipe_free_wakes_a_scheduler_classified_mem_pending() {
        // One scheduler and one SFU pipe. Warp 0 waits on a load; warp 1's
        // second SFU op waits on the pipe. The slot reads as a memory stall,
        // yet the SM must wake the cycle the pipe frees.
        let cfg = SmConfig {
            schedulers: 1,
            sfu_units: 1,
            ..SmConfig::default()
        };
        let mut sfu = WarpTrace::new();
        sfu.push(Instr::alu(Op::Sfu, Reg(3), &[]));
        sfu.push(Instr::alu(Op::Sfu, Reg(4), &[]));
        sfu.seal();
        let mut sm = new_sm(cfg);
        let mut m = mem();
        launch(&mut sm, &one_cta("mix", vec![load_use_warp(), sfu]), 0, 0);
        let (issued, _, slept) = drive(&mut sm, &mut m, 0..6);
        let (_, ii) = cfg.timing(Op::Sfu);
        assert_eq!(
            issued,
            vec![0, 1, 1 + ii],
            "ld, sfu, sfu once the pipe frees"
        );
        assert_eq!(slept, ii - 2, "cycle 2 ticks, the rest sleep");
        let st = sm.stalls();
        assert_eq!((st.issued, st.blocked), (3, ii - 1));
        assert_eq!(st.mem_pending, ii - 1, "memory outranks the busy pipe");
    }

    #[test]
    fn inflight_table_encodes_like_the_hash_map_it_replaced() {
        let f = |slot: usize| Inflight {
            warp_slot: slot,
            reg: Some(Reg(slot as u16)),
            remaining: 2,
        };
        let mut table = InflightTable::default();
        let mut map = std::collections::HashMap::new();
        for id in [3u64, 7, 8, 20] {
            table.insert(id, f(id as usize));
            map.insert(id, f(id as usize));
        }
        assert_eq!(table.remove(7).map(|f| f.warp_slot), Some(7));
        map.remove(&7);
        let (mut a, mut b) = (Vec::new(), Vec::new());
        Writer::new(&mut a).put(&table).unwrap();
        Writer::new(&mut b).put(&map).unwrap();
        assert_eq!(a, b);
        let back: InflightTable = Reader::new(a.as_slice()).get().unwrap();
        let ids: Vec<u64> = back.0.iter().map(|e| e.0).collect();
        assert_eq!(ids, vec![3, 8, 20]);
        let mut unordered = Vec::new();
        Writer::new(&mut unordered)
            .put(&vec![(8u64, f(0)), (3u64, f(0))])
            .unwrap();
        assert!(Reader::new(unordered.as_slice())
            .get::<InflightTable>()
            .is_err());
    }

    #[test]
    fn texture_loads_are_classified_as_texture() {
        let mut w = WarpTrace::new();
        w.push(Instr::load(
            Reg(1),
            MemAccess::coalesced(Space::Tex, DataClass::Texture, 4, 0x2000, 32),
        ));
        w.seal();
        let k = Arc::new(KernelTrace::new(
            "tex",
            32,
            16,
            0,
            vec![CtaTrace::new(vec![w])],
        ));
        let mut sm = new_sm(SmConfig::default());
        let mut m = mem();
        launch(&mut sm, &k, 0, 0);
        let _ = run_to_completion(&mut sm, &mut m, 10_000);
        let tex = sm.port().stats().get(StreamId(0), DataClass::Texture);
        assert!(
            tex.accesses > 0,
            "texture accesses must be tagged at the L1"
        );
    }
}
