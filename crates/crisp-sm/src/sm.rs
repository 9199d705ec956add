//! The SM core: warp slots, GTO schedulers, CTA lifecycle, writeback.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::io;

use crisp_ckpt::{bad, CheckpointState, Reader, Writer};
use crisp_mem::{MemConfig, SmMemPort};
use crisp_trace::{
    DataClass, KernelId, Op, Reg, Space, StreamId, TraceSource, NUM_BARRIERS, SECTOR_BYTES,
};

use crate::config::{SchedulerPolicy, SmConfig};
use crate::cta::{CtaResources, CtaWork, ResourceQuota, SmResources};
use crate::lsu::{Lsu, LsuEntry, LsuEvent};
use crate::units::ExecUnits;
use crate::warp::{WarpState, WarpStatus};

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
    inflight: HashMap<u64, Inflight>,
    next_inflight: u64,
    launch_seq: u64,
    /// Greedy pointer per scheduler (GTO's "greedy" half).
    last_issued: Vec<Option<usize>>,
    issued_by_stream: HashMap<StreamId, u64>,
    window_issued: HashMap<StreamId, u64>,
    n_resident_warps: usize,
    stalls: StallBreakdown,
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
            inflight: HashMap::new(),
            next_inflight: 0,
            launch_seq: 0,
            last_issued: vec![None; cfg.schedulers as usize],
            issued_by_stream: HashMap::new(),
            window_issued: HashMap::new(),
            n_resident_warps: 0,
            stalls: StallBreakdown::default(),
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
    }

    /// Route a memory completion (from the shared hierarchy's tick) back to
    /// its load instruction.
    pub fn on_mem_completion(&mut self, inflight_id: u64) {
        let done = match self.inflight.get_mut(&inflight_id) {
            Some(f) => {
                f.remaining -= 1;
                f.remaining == 0
            }
            None => return,
        };
        if done {
            let f = self.inflight.remove(&inflight_id).expect("checked above");
            if let (Some(reg), Some(w)) = (f.reg, self.warps[f.warp_slot].as_mut()) {
                w.clear_pending(reg);
            }
        }
    }

    /// Total warp instructions issued on behalf of `stream`.
    pub fn issued_for(&self, stream: StreamId) -> u64 {
        self.issued_by_stream.get(&stream).copied().unwrap_or(0)
    }

    /// Instructions issued for `stream` since the last call (the
    /// warped-slicer sampling window).
    pub fn take_window_issued(&mut self, stream: StreamId) -> u64 {
        self.window_issued.remove(&stream).unwrap_or(0)
    }

    /// Whether any work is resident or in flight.
    pub fn busy(&self) -> bool {
        self.n_resident_warps > 0
            || !self.lsu.is_empty()
            || !self.inflight.is_empty()
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

    /// Scheduler-slot accounting since construction.
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
                WarpStatus::Ready => match w.next_instr() {
                    None => WarpStall::TraceExhausted,
                    Some(instr) if w.scoreboard_blocks(instr) => {
                        if w.blocked_on_mem(instr) {
                            WarpStall::MemPending
                        } else {
                            WarpStall::Scoreboard
                        }
                    }
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

    pub fn stalls(&self) -> StallBreakdown {
        self.stalls
    }

    /// Advance one cycle. Touches only SM-private state (including the
    /// owned memory port), so distinct SMs may cycle concurrently.
    pub fn cycle(&mut self, now: u64) -> CycleOutput {
        let mut out = CycleOutput::default();

        // 1. Retire ALU writebacks due this cycle.
        while let Some(&Reverse((t, slot, reg))) = self.writebacks.peek() {
            if t > now {
                break;
            }
            self.writebacks.pop();
            if let Some(w) = self.warps[slot].as_mut() {
                w.clear_pending(Reg(reg));
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
        for ev in self.lsu.process(self.id, now, &self.cfg, &mut self.port) {
            match ev {
                LsuEvent::Ready {
                    inflight_id,
                    ready_at,
                } => {
                    self.mem_ready.push(Reverse((ready_at, inflight_id)));
                }
                LsuEvent::Sent { .. } => {}
            }
        }

        // 4. Each scheduler issues at most one instruction (GTO).
        let n_sched = self.cfg.schedulers as usize;
        for s in 0..n_sched {
            let candidate = self.pick_warp(s, now);
            if let Some(slot) = candidate {
                if self.issue_from(slot, now, &mut out) {
                    self.last_issued[s] = Some(slot);
                    self.stalls.issued += 1;
                } else {
                    self.last_issued[s] = None;
                }
            } else if let Some(cause) = self.classify_stall(s) {
                self.stalls.blocked += 1;
                match cause {
                    StallCause::Barrier => self.stalls.barrier += 1,
                    StallCause::PipeBusy => self.stalls.pipe_busy += 1,
                    StallCause::Scoreboard => self.stalls.scoreboard += 1,
                    StallCause::MshrFull => self.stalls.mshr_full += 1,
                    StallCause::MemPending => self.stalls.mem_pending += 1,
                }
            } else {
                self.stalls.empty += 1;
            }
        }
        out
    }

    /// Attribute scheduler `s`'s failure to issue: the highest-priority
    /// cause over its live resident warps, or `None` when the scheduler has
    /// no live warps at all (an `empty` slot).
    ///
    /// Runs only on blocked slots, where the old accounting already scanned
    /// the scheduler's warps — the cause lookup rides on that same scan.
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
                WarpStatus::Ready => {
                    let Some(instr) = w.next_instr() else {
                        continue;
                    };
                    if w.scoreboard_blocks(instr) {
                        if w.blocked_on_mem(instr) {
                            StallCause::MemPending
                        } else {
                            StallCause::Scoreboard
                        }
                    } else {
                        // The warp was ready yet not picked: its structural
                        // resource is exhausted. (Bar/Exit always issue, so
                        // they cannot reach this arm.)
                        match instr.op {
                            Op::Ld(_) | Op::St(_) => StallCause::MshrFull,
                            _ => StallCause::PipeBusy,
                        }
                    }
                }
            };
            cause = Some(cause.map_or(c, |prev| prev.max(c)));
        }
        cause
    }

    /// Warp selection for scheduler `s`, per the configured policy.
    fn pick_warp(&mut self, s: usize, now: u64) -> Option<usize> {
        match self.cfg.scheduler {
            SchedulerPolicy::Gto => self.pick_warp_gto(s, now),
            SchedulerPolicy::Lrr => self.pick_warp_lrr(s, now),
        }
    }

    /// GTO: the greedily-held warp first, else the oldest ready warp owned
    /// by this scheduler.
    fn pick_warp_gto(&mut self, s: usize, now: u64) -> Option<usize> {
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
    /// k-th owned slot is computed arithmetically so the per-cycle hot path
    /// stays allocation-free.
    fn pick_warp_lrr(&mut self, s: usize, now: u64) -> Option<usize> {
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

    fn warp_can_issue(&mut self, slot: usize, now: u64) -> bool {
        let Some(w) = self.warps[slot].as_ref() else {
            return false;
        };
        if w.status != WarpStatus::Ready {
            return false;
        }
        let Some(instr) = w.next_instr() else {
            return false;
        };
        if w.scoreboard_blocks(instr) {
            return false;
        }
        match instr.op {
            Op::Ld(_) | Op::St(_) => self.lsu.has_room(),
            // Unit availability is only *checked* here; reservation happens
            // at issue. busy_count == units means nothing free.
            op => {
                (self.units.busy_count(op, now) as u32) < self.cfg.units_for(op)
                    || matches!(op, Op::Bar(_) | Op::Exit)
            }
        }
    }

    /// Issue the next instruction of the warp in `slot`. Returns whether an
    /// instruction was actually issued.
    fn issue_from(&mut self, slot: usize, now: u64, out: &mut CycleOutput) -> bool {
        let (op, dst, mem_access, stream) = {
            let w = self.warps[slot].as_ref().expect("picked warp exists");
            let i = w.next_instr().expect("picked warp has an instruction");
            (i.op, i.dst, i.mem.clone(), w.stream)
        };
        match op {
            Op::Bar(id) => {
                self.issue_barrier(slot, id);
            }
            Op::Exit => {
                self.issue_exit(slot, out);
            }
            Op::Ld(space) | Op::St(space) => {
                let is_load = matches!(op, Op::Ld(_));
                let access = mem_access.expect("memory op carries an access");
                let sectors: Vec<u64> = if space == Space::Shared {
                    Vec::new()
                } else {
                    access
                        .distinct_chunks(SECTOR_BYTES)
                        .into_iter()
                        .map(|c| c * SECTOR_BYTES)
                        .collect()
                };
                let id = self.next_inflight;
                self.next_inflight += 1;
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
                    if let (Some(d), Some(w)) = (dst, self.warps[slot].as_mut()) {
                        w.set_pending_mem(d);
                    }
                }
                let class = if space == Space::Tex {
                    DataClass::Texture
                } else {
                    access.class
                };
                self.lsu.push(LsuEntry {
                    stream,
                    class,
                    space,
                    is_load,
                    sectors,
                    next: 0,
                    inflight_id: id,
                });
                if let Some(w) = self.warps[slot].as_mut() {
                    w.advance();
                }
            }
            op => {
                // ALU / SFU / tensor / branch: reserve the pipe.
                let ok = self.units.try_issue(op, now, &self.cfg);
                debug_assert!(ok, "warp_can_issue checked unit availability");
                let (lat, _ii) = self.cfg.timing(op);
                if let Some(w) = self.warps[slot].as_mut() {
                    if let Some(d) = dst {
                        w.set_pending(d);
                        self.writebacks.push(Reverse((now + lat, slot, d.0)));
                    }
                    w.advance();
                }
            }
        }
        out.issued += 1;
        *self.issued_by_stream.entry(stream).or_insert(0) += 1;
        *self.window_issued.entry(stream).or_insert(0) += 1;
        true
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
        let slots = self.ctas[cta_slot]
            .as_ref()
            .expect("cta exists")
            .warp_slots
            .clone();
        for s in slots {
            if let Some(w) = self.warps[s].as_mut() {
                if w.status == WarpStatus::AtBarrier(id) {
                    w.status = WarpStatus::Ready;
                }
            }
        }
        if let Some(cta) = self.ctas[cta_slot].as_mut() {
            cta.arrivals[id as usize] = 0;
        }
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
            for s in &cta.warp_slots {
                self.warps[*s] = None;
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
        // Heaps are written sorted and hash maps by key, for a
        // deterministic byte stream; a sorted push-rebuild pops identically.
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
        // Read as a list, not a map, so a duplicated id is caught.
        let inflight: Vec<(u64, Inflight)> = r.get()?;
        let next_inflight = r.get()?;
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
        let mut inflight_map = HashMap::with_capacity(inflight.len());
        for (fid, f) in inflight {
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
            if inflight_map.insert(fid, f).is_some() {
                return Err(bad("duplicate inflight id"));
            }
        }
        if last_issued.len() != n_sched {
            return Err(bad(format!(
                "SM has {} scheduler pointers, config implies {n_sched}",
                last_issued.len()
            )));
        }
        if last_issued.iter().flatten().any(|&s| s >= max_warps) {
            return Err(bad("scheduler pointer out of range"));
        }
        Ok(Sm {
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
            inflight: inflight_map,
            next_inflight,
            launch_seq,
            last_issued,
            issued_by_stream,
            window_issued,
            stalls,
        })
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
            cta: Arc::new(k.ctas[cta_index].clone()),
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
