//! Host-clock self-profiling: where does the *simulator's own* wall-clock
//! time go?
//!
//! Everything else in this crate observes **simulated** time (cycles). This
//! module observes the other clock domain — host nanoseconds — so perf work
//! on the simulator itself (closing the detailed-vs-fast-forward gap) has an
//! instrument. Three pieces:
//!
//! * [`HostProfiler`] — the live accumulator the simulator drives: driver
//!   phase times ([`HostPhase`]), top-level spans (preflight, analyze,
//!   fast-forward, checkpoint I/O), and periodic [`Heartbeat`] samples whose
//!   rates come from the [`MetricsSnapshot::counter_delta`] diff API.
//! * [`HostProfile`] — the frozen end-of-run result surfaced through
//!   `SimResult::host_profile`: phase table, cycles/s, and
//!   (when the `alloc-profile` feature is on) per-phase allocation counts.
//! * [`set_alloc_phase`] — tags the current thread's allocations with the
//!   running phase for the feature-gated counting allocator; compiles to a
//!   no-op when the feature is off.
//!
//! Host times are wall-clock and therefore *not* deterministic; nothing in
//! this module feeds back into simulated state, and the host process in the
//! Chrome Trace export is kept separate from the simulated timeline so
//! byte-identity suites can keep comparing the latter.

use std::fmt::Write as _;
use std::time::Instant;

use crate::registry::{Labels, MetricRegistry, MetricsSnapshot};

/// One phase of the simulator's own execution, on the host clock.
///
/// The first three and the last two are *top-level* phases (they happen once
/// or rarely); the middle five are *per-cycle* phases of the cycle loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum HostPhase {
    /// Pre-flight trace/config validation.
    Preflight,
    /// Static trace analysis (`.analyze(..)`).
    Analyze,
    /// Functional fast-forward to the ROI marker.
    FastForward,
    /// Serial front/back of each cycle: stream advance, CTA issue, commit
    /// absorption, scheduling bookkeeping.
    Dispatch,
    /// Warp execution — SM `cycle()` calls.
    Execute,
    /// Draining per-SM memory-port egress queues into the interconnect.
    PortDrain,
    /// L2 bank / DRAM channel ticking and response delivery.
    MemTick,
    /// Telemetry sampling (occupancy, composition, counters, heartbeat).
    Telemetry,
    /// Periodic + emergency checkpoint writes.
    CheckpointIo,
    /// End-of-run export: metric registry + timeline assembly.
    Export,
}

impl HostPhase {
    /// Number of phases (array sizing).
    pub const COUNT: usize = 10;

    /// Every phase, in declaration (= report) order.
    pub const ALL: [HostPhase; HostPhase::COUNT] = [
        HostPhase::Preflight,
        HostPhase::Analyze,
        HostPhase::FastForward,
        HostPhase::Dispatch,
        HostPhase::Execute,
        HostPhase::PortDrain,
        HostPhase::MemTick,
        HostPhase::Telemetry,
        HostPhase::CheckpointIo,
        HostPhase::Export,
    ];

    /// Stable lower-case name (report rows, trace span names, alloc sites).
    pub fn name(self) -> &'static str {
        match self {
            HostPhase::Preflight => "preflight",
            HostPhase::Analyze => "analyze",
            HostPhase::FastForward => "fast-forward",
            HostPhase::Dispatch => "dispatch",
            HostPhase::Execute => "execute",
            HostPhase::PortDrain => "port-drain",
            HostPhase::MemTick => "mem-tick",
            HostPhase::Telemetry => "telemetry",
            HostPhase::CheckpointIo => "checkpoint-io",
            HostPhase::Export => "export",
        }
    }
}

/// Tag the current thread's subsequent allocations with `phase` for the
/// feature-gated counting allocator. A cheap thread-local write when the
/// `alloc-profile` feature is enabled; compiles to nothing when it is off.
/// The simulator only calls this when host profiling is active.
#[inline]
pub fn set_alloc_phase(phase: HostPhase) {
    #[cfg(feature = "alloc-profile")]
    crate::alloc::set_phase(phase as u8 + 1);
    #[cfg(not(feature = "alloc-profile"))]
    let _ = phase;
}

/// The counting allocator's report, when the `alloc-profile` feature is
/// compiled in *and* counting was enabled at runtime; `None` otherwise.
pub fn alloc_report() -> Option<AllocReport> {
    #[cfg(feature = "alloc-profile")]
    {
        crate::alloc::report()
    }
    #[cfg(not(feature = "alloc-profile"))]
    {
        None
    }
}

/// Nanoseconds accumulated per [`HostPhase`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PhaseTimes {
    ns: [u64; HostPhase::COUNT],
}

impl PhaseTimes {
    /// Add `ns` nanoseconds to `phase`.
    #[inline]
    pub fn add(&mut self, phase: HostPhase, ns: u64) {
        self.ns[phase as usize] += ns;
    }

    /// Nanoseconds accumulated in `phase`.
    pub fn get(&self, phase: HostPhase) -> u64 {
        self.ns[phase as usize]
    }

    /// Total nanoseconds across all phases.
    pub fn total(&self) -> u64 {
        self.ns.iter().sum()
    }
}

/// One top-level host span (preflight, analyze, fast-forward, checkpoint
/// write, export) with a real start offset from the profiler's origin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HostSpan {
    /// Which phase the span belongs to.
    pub phase: HostPhase,
    /// Span label (e.g. `"ckpt-30000"` for a periodic checkpoint).
    pub label: String,
    /// Nanoseconds from profiler origin to span start.
    pub start_ns: u64,
    /// Span duration in nanoseconds.
    pub dur_ns: u64,
}

/// One periodic throughput sample taken every `heartbeat_interval` cycles.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Heartbeat {
    /// Nanoseconds from profiler origin.
    pub wall_ns: u64,
    /// Simulated cycle the sample was taken at.
    pub cycle: u64,
    /// Instructions retired so far (all SMs).
    pub instrs: u64,
    /// Simulated cycles per host second since the previous heartbeat.
    pub cycles_per_sec: f64,
    /// Instructions per host second since the previous heartbeat.
    pub instrs_per_sec: f64,
    /// Bytes of trace instructions resident (streaming window).
    pub resident_bytes: u64,
}

/// Per-phase allocation totals from the feature-gated counting allocator.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AllocReport {
    /// Total allocations observed while counting was enabled.
    pub total_count: u64,
    /// Total bytes requested.
    pub total_bytes: u64,
    /// `(phase name, allocation count, bytes)` rows, report order, only
    /// phases with activity. Allocations outside any tagged phase appear
    /// under `"untagged"`.
    pub by_phase: Vec<(String, u64, u64)>,
    /// Allocation *sites* — `(phase name, size-class upper bound in bytes,
    /// count)` — sorted by count descending. A "site" is a phase × size
    /// class cell; release builds have no reliable symbol backtraces, and
    /// the phase + size class is what an arena/SoA refactor needs anyway.
    pub top_sites: Vec<(String, u64, u64)>,
}

/// The live accumulator. Created by the simulation builder when
/// `.host_profile(true)` is set and driven by the cycle loop; frozen into a
/// [`HostProfile`] by [`HostProfiler::finish`].
#[derive(Debug)]
pub struct HostProfiler {
    origin: Instant,
    heartbeat_interval: u64,
    driver: PhaseTimes,
    spans: Vec<HostSpan>,
    heartbeats: Vec<Heartbeat>,
    registry: MetricRegistry,
    last_hb: Option<(MetricsSnapshot, u64)>,
    sm_ticked: u64,
    sm_slept: u64,
    gpu_cycles: u64,
    gpu_idle: u64,
}

impl HostProfiler {
    /// Default heartbeat interval in simulated cycles.
    pub const DEFAULT_HEARTBEAT: u64 = 100_000;

    /// A profiler whose origin is *now*. `heartbeat_interval` is in
    /// simulated cycles; 0 disables heartbeats.
    pub fn new(heartbeat_interval: u64) -> Self {
        HostProfiler {
            origin: Instant::now(),
            heartbeat_interval,
            driver: PhaseTimes::default(),
            spans: Vec::new(),
            heartbeats: Vec::new(),
            registry: MetricRegistry::new(),
            last_hb: None,
            sm_ticked: 0,
            sm_slept: 0,
            gpu_cycles: 0,
            gpu_idle: 0,
        }
    }

    /// Nanoseconds since the profiler was created.
    #[inline]
    pub fn elapsed_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Whether a heartbeat is due at simulated `cycle`.
    #[inline]
    pub fn heartbeat_due(&self, cycle: u64) -> bool {
        self.heartbeat_interval > 0 && cycle > 0 && cycle.is_multiple_of(self.heartbeat_interval)
    }

    /// Add `ns` to `phase`.
    #[inline]
    pub fn add(&mut self, phase: HostPhase, ns: u64) {
        self.driver.add(phase, ns);
    }

    /// Count one simulated cycle's SM-cycles of busy SMs: `ticked` ran in
    /// full, `slept` only re-counted their last stall classification. A
    /// cycle in which no SM ticked is a whole-GPU idle cycle.
    #[inline]
    pub fn add_sm_cycles(&mut self, ticked: u64, slept: u64) {
        self.sm_ticked += ticked;
        self.sm_slept += slept;
        self.gpu_cycles += 1;
        self.gpu_idle += u64::from(ticked == 0);
    }

    /// Close a top-level span opened at `start_ns` (from [`elapsed_ns`]):
    /// accumulates its duration into `phase` and records the span for the
    /// Chrome Trace host process.
    ///
    /// [`elapsed_ns`]: HostProfiler::elapsed_ns
    pub fn span_end(&mut self, phase: HostPhase, label: &str, start_ns: u64) {
        let end = self.elapsed_ns();
        let dur = end.saturating_sub(start_ns);
        self.driver.add(phase, dur);
        self.spans.push(HostSpan {
            phase,
            label: label.to_string(),
            start_ns,
            dur_ns: dur,
        });
    }

    /// Record a heartbeat at simulated `cycle`. `instrs` is the cumulative
    /// instruction count over all SMs; `resident` is the resident
    /// trace-window footprint in bytes. Rates are computed as counter
    /// deltas against the previous heartbeat's snapshot.
    pub fn heartbeat(&mut self, cycle: u64, resident: u64, instrs: u64) {
        let wall = self.elapsed_ns();
        let l = Labels::new();
        let prev = self.last_hb.take();

        // Keep cumulative counters in the internal registry and derive the
        // per-interval rates from snapshot diffs.
        let prev_c = prev
            .as_ref()
            .and_then(|(s, _)| s.counter("host/cycles", &l))
            .unwrap_or(0);
        let prev_i = prev
            .as_ref()
            .and_then(|(s, _)| s.counter("host/instrs", &l))
            .unwrap_or(0);
        self.registry
            .counter_add("host/cycles", l.clone(), cycle.saturating_sub(prev_c));
        self.registry
            .counter_add("host/instrs", l.clone(), instrs.saturating_sub(prev_i));
        let snap = self.registry.snapshot_now();
        let (d_cycles, d_instrs, d_wall) = match &prev {
            Some((base, w)) => (
                snap.counter_delta(base, "host/cycles", &l),
                snap.counter_delta(base, "host/instrs", &l),
                wall.saturating_sub(*w),
            ),
            None => (cycle, instrs, wall),
        };
        let secs = (d_wall as f64 / 1e9).max(1e-12);

        self.heartbeats.push(Heartbeat {
            wall_ns: wall,
            cycle,
            instrs,
            cycles_per_sec: d_cycles as f64 / secs,
            instrs_per_sec: d_instrs as f64 / secs,
            resident_bytes: resident,
        });
        self.last_hb = Some((snap, wall));
    }

    /// Freeze into the end-of-run [`HostProfile`].
    pub fn finish(self, cycles: u64, instrs: u64, alloc: Option<AllocReport>) -> HostProfile {
        HostProfile {
            wall_ns: self.origin.elapsed().as_nanos() as u64,
            cycles,
            instrs,
            heartbeat_interval: self.heartbeat_interval,
            driver: self.driver,
            spans: self.spans,
            heartbeats: self.heartbeats,
            alloc,
            sm_ticked: self.sm_ticked,
            sm_slept: self.sm_slept,
            gpu_cycles: self.gpu_cycles,
            gpu_idle: self.gpu_idle,
        }
    }
}

/// The frozen self-profile surfaced via `SimResult::host_profile`.
#[derive(Debug, Clone, PartialEq)]
pub struct HostProfile {
    /// Total wall-clock nanoseconds from profiler creation (just before
    /// pre-flight) to result assembly.
    pub wall_ns: u64,
    /// Simulated cycles executed.
    pub cycles: u64,
    /// Instructions retired (all SMs).
    pub instrs: u64,
    /// Heartbeat interval in simulated cycles (0 = disabled).
    pub heartbeat_interval: u64,
    /// Time per phase (includes the top-level spans).
    pub driver: PhaseTimes,
    /// Top-level spans for the Chrome Trace host process.
    pub spans: Vec<HostSpan>,
    /// Periodic throughput samples.
    pub heartbeats: Vec<Heartbeat>,
    /// Per-phase allocation accounting (`alloc-profile` feature + counting
    /// enabled at runtime), else `None`.
    pub alloc: Option<AllocReport>,
    /// SM-cycles of busy SMs that ran in full.
    pub sm_ticked: u64,
    /// SM-cycles of busy SMs slept through: nothing could change, so only
    /// the last stall classification was re-counted.
    pub sm_slept: u64,
    /// Cycles the cycle loop ran.
    pub gpu_cycles: u64,
    /// Of [`gpu_cycles`](Self::gpu_cycles), those in which no SM ticked
    /// (every SM idle or asleep): the cycles a loop that jumps to the next
    /// event could skip.
    pub gpu_idle: u64,
}

impl HostProfile {
    /// Wall-clock seconds.
    pub fn wall_secs(&self) -> f64 {
        self.wall_ns as f64 / 1e9
    }

    /// Simulated cycles per host second, whole run.
    pub fn cycles_per_sec(&self) -> f64 {
        self.cycles as f64 / self.wall_secs().max(1e-12)
    }

    /// Instructions per host second, whole run.
    pub fn instrs_per_sec(&self) -> f64 {
        self.instrs as f64 / self.wall_secs().max(1e-12)
    }

    /// Allocations per simulated cycle (0 when accounting is off).
    pub fn allocs_per_cycle(&self) -> f64 {
        match (&self.alloc, self.cycles) {
            (Some(a), c) if c > 0 => a.total_count as f64 / c as f64,
            _ => 0.0,
        }
    }

    /// Fraction of busy SM-cycles slept through (0 when none ran).
    pub fn sm_sleep_frac(&self) -> f64 {
        let total = self.sm_ticked + self.sm_slept;
        if total == 0 {
            0.0
        } else {
            self.sm_slept as f64 / total as f64
        }
    }

    /// Fraction of the loop's cycles in which no SM ticked (0 when none
    /// ran).
    pub fn gpu_idle_frac(&self) -> f64 {
        if self.gpu_cycles == 0 {
            0.0
        } else {
            self.gpu_idle as f64 / self.gpu_cycles as f64
        }
    }

    /// Fraction of wall-clock attributed to a phase.
    pub fn coverage(&self) -> f64 {
        self.driver.total() as f64 / self.wall_ns.max(1) as f64
    }

    /// The human-readable self-profile: phase table, heartbeat summary,
    /// allocation sites.
    pub fn report(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "=== CRISP self-profile (host clock) ===");
        let _ = writeln!(
            out,
            "wall {:.3} s | {} cycles | {} instrs | {}/s cycles | {}/s instrs",
            self.wall_secs(),
            self.cycles,
            self.instrs,
            si(self.cycles_per_sec()),
            si(self.instrs_per_sec()),
        );

        let _ = writeln!(out, "\n-- driver phases --");
        let _ = writeln!(out, "{:<14} {:>12} {:>7}", "phase", "time", "share");
        let total = self.driver.total();
        for p in HostPhase::ALL {
            let ns = self.driver.get(p);
            if ns == 0 {
                continue;
            }
            let _ = writeln!(
                out,
                "{:<14} {:>12} {:>6.1}%",
                p.name(),
                fmt_ns(ns),
                pct(ns, total),
            );
        }
        let _ = writeln!(
            out,
            "{:<14} {:>12} {:>6.1}% of wall",
            "attributed",
            fmt_ns(total),
            100.0 * self.coverage(),
        );
        let _ = writeln!(
            out,
            "sm-cycles: {} ticked, {} slept (sm_sleep_frac {:.4})",
            self.sm_ticked,
            self.sm_slept,
            self.sm_sleep_frac(),
        );
        let _ = writeln!(
            out,
            "gpu-cycles: {} of {} with no SM ticked (gpu_idle_frac {:.4})",
            self.gpu_idle,
            self.gpu_cycles,
            self.gpu_idle_frac(),
        );

        if let Some(hb) = self.heartbeats.last() {
            let _ = writeln!(
                out,
                "\n-- heartbeats ({} samples, every {} cycles) --",
                self.heartbeats.len(),
                self.heartbeat_interval,
            );
            let _ = writeln!(
                out,
                "last: {}/s cycles | {}/s instrs | {} resident",
                si(hb.cycles_per_sec),
                si(hb.instrs_per_sec),
                fmt_bytes(hb.resident_bytes),
            );
        }

        match &self.alloc {
            Some(a) => {
                let _ = writeln!(out, "\n-- allocations (counting allocator) --");
                let _ = writeln!(
                    out,
                    "total {} allocs, {} ({:.4} allocs/cycle)",
                    a.total_count,
                    fmt_bytes(a.total_bytes),
                    self.allocs_per_cycle(),
                );
                for (phase, count, bytes) in &a.by_phase {
                    let _ = writeln!(
                        out,
                        "{:<14} {:>10} allocs {:>12}",
                        phase,
                        count,
                        fmt_bytes(*bytes),
                    );
                }
                let _ = writeln!(out, "top sites (phase x size class):");
                for (i, (phase, class, count)) in a.top_sites.iter().take(3).enumerate() {
                    let _ = writeln!(
                        out,
                        "  {}. {} <= {} : {} allocs",
                        i + 1,
                        phase,
                        fmt_bytes(*class),
                        count,
                    );
                }
                if a.top_sites.is_empty() {
                    let _ = writeln!(out, "  (none -- hot path is allocation-free)");
                }
            }
            None => {
                let _ = writeln!(
                    out,
                    "\n-- allocations: not counted (enable the `alloc-profile` feature) --"
                );
            }
        }
        out
    }
}

/// `123456789` → `"123.5M"` — compact SI magnitude for rates.
fn si(v: f64) -> String {
    if v >= 1e9 {
        format!("{:.2}G", v / 1e9)
    } else if v >= 1e6 {
        format!("{:.2}M", v / 1e6)
    } else if v >= 1e3 {
        format!("{:.1}k", v / 1e3)
    } else {
        format!("{v:.0}")
    }
}

/// Nanoseconds → human units.
fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.3} s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1} us", ns as f64 / 1e3)
    } else {
        format!("{ns} ns")
    }
}

/// Bytes → human units (binary).
fn fmt_bytes(b: u64) -> String {
    if b >= 1 << 30 {
        format!("{:.2} GiB", b as f64 / (1u64 << 30) as f64)
    } else if b >= 1 << 20 {
        format!("{:.2} MiB", b as f64 / (1u64 << 20) as f64)
    } else if b >= 1 << 10 {
        format!("{:.1} KiB", b as f64 / (1u64 << 10) as f64)
    } else {
        format!("{b} B")
    }
}

fn pct(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        100.0 * part as f64 / whole as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_all_matches_count_and_names_are_unique() {
        assert_eq!(HostPhase::ALL.len(), HostPhase::COUNT);
        let mut names: Vec<_> = HostPhase::ALL.iter().map(|p| p.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), HostPhase::COUNT);
        // Discriminants are dense 0..COUNT (PhaseTimes indexes by them).
        for (i, p) in HostPhase::ALL.iter().enumerate() {
            assert_eq!(*p as usize, i);
        }
    }

    #[test]
    fn phase_times_accumulate() {
        let mut t = PhaseTimes::default();
        t.add(HostPhase::Execute, 10);
        t.add(HostPhase::Execute, 5);
        t.add(HostPhase::MemTick, 7);
        assert_eq!(t.get(HostPhase::Execute), 15);
        assert_eq!(t.total(), 22);
    }

    #[test]
    fn heartbeat_rates_come_from_snapshot_deltas() {
        let mut p = HostProfiler::new(100);
        // First heartbeat: 100 cycles, 1000 instrs.
        p.heartbeat(100, 0, 1000);
        // Second: +100 cycles, +400 instrs.
        p.heartbeat(200, 64, 1400);
        assert_eq!(p.heartbeats.len(), 2);
        let a = p.heartbeats[0];
        let b = p.heartbeats[1];
        assert_eq!(a.cycle, 100);
        assert_eq!(a.instrs, 1000);
        assert_eq!(b.instrs, 1400);
        assert_eq!(b.resident_bytes, 64);
        // Interval deltas: 100 cycles, 400 instrs → instrs/s = 4× cycles/s.
        assert!((b.instrs_per_sec / b.cycles_per_sec - 4.0).abs() < 1e-9);
        // First sample covers everything since origin.
        assert!(a.cycles_per_sec > 0.0);
    }

    #[test]
    fn span_end_records_span_and_phase_time() {
        let mut p = HostProfiler::new(0);
        let t0 = p.elapsed_ns();
        p.span_end(HostPhase::Preflight, "validate", t0);
        assert_eq!(p.spans.len(), 1);
        assert_eq!(p.spans[0].phase, HostPhase::Preflight);
        assert_eq!(p.driver.get(HostPhase::Preflight), p.spans[0].dur_ns);
        assert!(!p.heartbeat_due(100));
        let prof = p.finish(1000, 5000, None);
        assert!(prof.cycles_per_sec() > 0.0);
        let r = prof.report();
        assert!(r.contains("driver phases"));
        assert!(r.contains("not counted"));
    }

    #[test]
    fn sm_cycle_counts_give_the_sleep_fraction() {
        let mut p = HostProfiler::new(0);
        p.add_sm_cycles(30, 10);
        p.add_sm_cycles(0, 10);
        let prof = p.finish(1, 0, None);
        assert_eq!((prof.sm_ticked, prof.sm_slept), (30, 20));
        assert!((prof.sm_sleep_frac() - 0.4).abs() < 1e-12);
        assert!(prof
            .report()
            .contains("30 ticked, 20 slept (sm_sleep_frac 0.4000)"));
        assert_eq!(HostProfiler::new(0).finish(1, 0, None).sm_sleep_frac(), 0.0);
    }

    #[test]
    fn cycles_with_no_sm_ticked_give_the_gpu_idle_fraction() {
        let mut p = HostProfiler::new(0);
        for (ticked, slept) in [(2, 1), (0, 3), (1, 0), (0, 0)] {
            p.add_sm_cycles(ticked, slept);
        }
        let prof = p.finish(4, 0, None);
        assert_eq!((prof.gpu_idle, prof.gpu_cycles), (2, 4));
        assert!((prof.gpu_idle_frac() - 0.5).abs() < 1e-12);
        assert!(prof
            .report()
            .contains("gpu-cycles: 2 of 4 with no SM ticked (gpu_idle_frac 0.5000)"));
        assert_eq!(HostProfiler::new(0).finish(1, 0, None).gpu_idle_frac(), 0.0);
    }

    #[test]
    fn report_renders_alloc_sites() {
        let p = HostProfiler::new(0);
        let prof = p.finish(
            10,
            100,
            Some(AllocReport {
                total_count: 42,
                total_bytes: 4096,
                by_phase: vec![("execute".into(), 40, 4000), ("untagged".into(), 2, 96)],
                top_sites: vec![
                    ("execute".into(), 64, 30),
                    ("execute".into(), 256, 10),
                    ("untagged".into(), 64, 2),
                ],
            }),
        );
        let r = prof.report();
        assert!(r.contains("42 allocs"));
        assert!(r.contains("1. execute <= 64 B : 30 allocs"));
        assert!((prof.allocs_per_cycle() - 4.2).abs() < 1e-9);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(si(1_500.0), "1.5k");
        assert_eq!(si(2_000_000.0), "2.00M");
        assert_eq!(si(3_000_000_000.0), "3.00G");
        assert_eq!(si(12.0), "12");
        assert_eq!(fmt_ns(999), "999 ns");
        assert_eq!(fmt_ns(1_500), "1.5 us");
        assert_eq!(fmt_ns(2_500_000), "2.50 ms");
        assert_eq!(fmt_ns(3_000_000_000), "3.000 s");
        assert_eq!(fmt_bytes(512), "512 B");
        assert_eq!(fmt_bytes(2048), "2.0 KiB");
        assert_eq!(fmt_bytes(3 << 20), "3.00 MiB");
        assert_eq!(fmt_bytes(5 << 30), "5.00 GiB");
    }
}
