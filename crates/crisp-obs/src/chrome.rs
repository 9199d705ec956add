//! Chrome Trace Event Format export.
//!
//! Emits the JSON object form (`{"traceEvents": [...]}`) understood by
//! Perfetto (<https://ui.perfetto.dev>) and `chrome://tracing`:
//!
//! * spans → `"ph": "X"` complete events (`ts`/`dur` in simulated cycles,
//!   nominally microseconds to the viewer),
//! * instants → `"ph": "i"` events,
//! * counter samples → `"ph": "C"` counter tracks,
//! * track naming → `"ph": "M"` `process_name` / `thread_name` metadata, so
//!   the simulated GPU reads as a named process and streams/SMs as
//!   `stream0`, `sm3` tracks in Perfetto instead of bare ids.
//!
//! Output order is fully determined by the [`TraceLog`] (metadata sorted by
//! track, then spans in merge order, instants, counters), so two logs that
//! compare equal export byte-identical JSON.
//!
//! # Dual-clock export
//!
//! [`write_chrome_trace_with_host`] additionally emits the host-clock
//! self-profile ([`HostProfile`]) as its **own named process** (pid 1,
//! "host self-profile") next to the simulated timeline (pid 0): top-level
//! spans (preflight/analyze/fast-forward/checkpoint I/O) at their real
//! wall-clock offsets, per-phase driver aggregates as a sequential strip,
//! and a heartbeat counter track.
//! Host timestamps are wall-clock **microseconds**; simulated timestamps
//! are cycles — two clock domains, two processes, one file. The plain
//! [`write_chrome_trace`] export is unchanged by host profiling, so
//! byte-identity suites keep comparing it.

use std::collections::BTreeSet;
use std::io::{self, Write};

use crate::host::{HostPhase, HostProfile};
use crate::span::{TraceLog, Track};

/// (pid, tid) coordinates of a track in the exported trace.
fn track_ids(t: Track) -> (u32, u32) {
    match t {
        Track::Gpu => (0, 0),
        Track::Stream(s) => (0, 1 + s),
        Track::Sm(i) => (0, 1000 + i),
    }
}

fn track_name(t: Track) -> String {
    match t {
        Track::Gpu => "gpu".to_string(),
        Track::Stream(s) => format!("stream{s}"),
        Track::Sm(i) => format!("sm{i}"),
    }
}

use crate::json::json_str;

/// Format an `f64` as a JSON number (non-finite values clamp to 0).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Comma separator between JSON array elements.
struct Sep {
    first: bool,
}

impl Sep {
    fn new() -> Self {
        Sep { first: true }
    }

    fn emit(&mut self, w: &mut impl Write) -> io::Result<()> {
        if self.first {
            self.first = false;
            Ok(())
        } else {
            w.write_all(b",\n")
        }
    }
}

/// Serialize `log` as a Chrome Trace Event Format JSON string.
pub fn chrome_trace_string(log: &TraceLog) -> String {
    let mut buf = Vec::new();
    write_chrome_trace(log, &mut buf).expect("writing to a Vec cannot fail");
    String::from_utf8(buf).expect("exporter emits UTF-8")
}

/// Serialize `log` plus the host self-profile as one dual-clock trace.
pub fn chrome_trace_with_host_string(log: &TraceLog, host: &HostProfile) -> String {
    let mut buf = Vec::new();
    write_chrome_trace_with_host(log, host, &mut buf).expect("writing to a Vec cannot fail");
    String::from_utf8(buf).expect("exporter emits UTF-8")
}

/// Write `log` as Chrome Trace Event Format JSON.
pub fn write_chrome_trace(log: &TraceLog, w: &mut impl Write) -> io::Result<()> {
    w.write_all(b"{\"displayTimeUnit\":\"ms\",\"traceEvents\":[")?;
    let mut sep = Sep::new();
    write_log_events(log, w, &mut sep)?;
    w.write_all(b"]}\n")
}

/// Write `log` and the host self-profile as one trace: the simulated GPU as
/// pid 0 (timestamps in cycles) and the host process as pid 1 (timestamps
/// in wall-clock microseconds). See the module docs for the layout.
pub fn write_chrome_trace_with_host(
    log: &TraceLog,
    host: &HostProfile,
    w: &mut impl Write,
) -> io::Result<()> {
    w.write_all(b"{\"displayTimeUnit\":\"ms\",\"traceEvents\":[")?;
    let mut sep = Sep::new();
    write_log_events(log, w, &mut sep)?;
    write_host_events(host, w, &mut sep)?;
    w.write_all(b"]}\n")
}

/// The simulated-GPU process (pid 0): metadata, spans, instants, counters.
fn write_log_events(log: &TraceLog, w: &mut impl Write, sep: &mut Sep) -> io::Result<()> {
    // Track-name metadata, sorted by track for stable output.
    let mut tracks: BTreeSet<Track> = BTreeSet::new();
    for s in log.spans() {
        tracks.insert(s.track);
    }
    for i in log.instants() {
        tracks.insert(i.track);
    }
    if !log.counters().is_empty() {
        tracks.insert(Track::Gpu);
    }
    if !tracks.is_empty() {
        sep.emit(w)?;
        write!(
            w,
            "{{\"ph\":\"M\",\"pid\":0,\"name\":\"process_name\",\"args\":{{\"name\":\"simulated gpu (ts = cycles)\"}}}}",
        )?;
    }
    for t in &tracks {
        let (pid, tid) = track_ids(*t);
        sep.emit(w)?;
        write!(
            w,
            "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\"name\":\"thread_name\",\"args\":{{\"name\":{}}}}}",
            json_str(&track_name(*t)),
        )?;
    }

    for s in log.spans() {
        let (pid, tid) = track_ids(s.track);
        sep.emit(w)?;
        write!(
            w,
            "{{\"ph\":\"X\",\"pid\":{pid},\"tid\":{tid},\"ts\":{},\"dur\":{},\"name\":{},\"cat\":{}",
            s.start,
            s.dur,
            json_str(&s.name),
            json_str(s.cat),
        )?;
        if !s.args.is_empty() {
            w.write_all(b",\"args\":{")?;
            for (i, (k, v)) in s.args.iter().enumerate() {
                if i > 0 {
                    w.write_all(b",")?;
                }
                write!(w, "{}:{}", json_str(k), json_str(v))?;
            }
            w.write_all(b"}")?;
        }
        w.write_all(b"}")?;
    }

    for i in log.instants() {
        let (pid, tid) = track_ids(i.track);
        sep.emit(w)?;
        write!(
            w,
            "{{\"ph\":\"i\",\"pid\":{pid},\"tid\":{tid},\"ts\":{},\"s\":\"t\",\"name\":{},\"cat\":{}}}",
            i.at,
            json_str(&i.name),
            json_str(i.cat),
        )?;
    }

    // Counter tracks hang off the GPU process.
    for c in log.counters() {
        sep.emit(w)?;
        write!(
            w,
            "{{\"ph\":\"C\",\"pid\":0,\"ts\":{},\"name\":{},\"args\":{{\"value\":{}}}}}",
            c.cycle,
            json_str(&c.name),
            json_num(c.value),
        )?;
    }
    Ok(())
}

/// The host self-profile process (pid 1). Tids: 0 = driver (top-level spans
/// at real offsets), 1 = driver phase aggregates (a sequential strip, since
/// per-cycle phases are accumulated rather than individually timestamped).
fn write_host_events(host: &HostProfile, w: &mut impl Write, sep: &mut Sep) -> io::Result<()> {
    const PID: u32 = 1;
    let us = |ns: u64| ns / 1_000;
    sep.emit(w)?;
    write!(
        w,
        "{{\"ph\":\"M\",\"pid\":{PID},\"name\":\"process_name\",\"args\":{{\"name\":\"host self-profile (ts = us wall-clock)\"}}}}",
    )?;
    sep.emit(w)?;
    write!(
        w,
        "{{\"ph\":\"M\",\"pid\":{PID},\"tid\":0,\"name\":\"thread_name\",\"args\":{{\"name\":\"driver\"}}}}",
    )?;
    sep.emit(w)?;
    write!(
        w,
        "{{\"ph\":\"M\",\"pid\":{PID},\"tid\":1,\"name\":\"thread_name\",\"args\":{{\"name\":\"driver phases (aggregate)\"}}}}",
    )?;

    // Top-level spans at their real wall-clock offsets.
    for s in &host.spans {
        sep.emit(w)?;
        write!(
            w,
            "{{\"ph\":\"X\",\"pid\":{PID},\"tid\":0,\"ts\":{},\"dur\":{},\"name\":{},\"cat\":\"host\"}}",
            us(s.start_ns),
            us(s.dur_ns).max(1),
            json_str(&format!("{}:{}", s.phase.name(), s.label)),
        )?;
    }

    // Per-phase driver totals as a back-to-back strip.
    let mut cursor = 0u64;
    for p in HostPhase::ALL {
        let dur = us(host.driver.get(p));
        if dur == 0 {
            continue;
        }
        sep.emit(w)?;
        write!(
            w,
            "{{\"ph\":\"X\",\"pid\":{PID},\"tid\":1,\"ts\":{cursor},\"dur\":{dur},\"name\":{},\"cat\":\"host\"}}",
            json_str(p.name()),
        )?;
        cursor += dur;
    }

    // Heartbeat counter track at real offsets.
    for hb in &host.heartbeats {
        let ts = us(hb.wall_ns);
        sep.emit(w)?;
        write!(
            w,
            "{{\"ph\":\"C\",\"pid\":{PID},\"ts\":{ts},\"name\":\"host/cycles_per_sec\",\"args\":{{\"value\":{}}}}}",
            json_num(hb.cycles_per_sec),
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use crate::span::TraceRecorder;

    fn sample_log() -> TraceLog {
        let mut r = TraceRecorder::new(2, true, true);
        r.kernel_span(0, "vs \"quoted\"\n", 0, 100, 4);
        r.cta_issued(0, 1, 0, 3, 5);
        r.cta_committed(0, 42);
        r.marker(0, "draw0", 0);
        r.counter(50, "l2/hit_rate", 0.5);
        r.counter(100, "bad", f64::NAN);
        r.finish(100)
    }

    #[test]
    fn export_is_valid_json() {
        let s = chrome_trace_string(&sample_log());
        json::validate(&s).expect("exporter must emit well-formed JSON");
        assert!(s.contains("\"traceEvents\""));
        assert!(s.contains("thread_name"));
        assert!(s.contains("\\\"quoted\\\""));
        assert!(s.contains("\"value\":0"), "NaN clamps to 0");
    }

    #[test]
    fn empty_log_is_valid_json() {
        let s = chrome_trace_string(&TraceLog::default());
        json::validate(&s).expect("empty trace still valid");
    }

    #[test]
    fn equal_logs_export_identical_bytes() {
        assert_eq!(
            chrome_trace_string(&sample_log()),
            chrome_trace_string(&sample_log())
        );
    }

    #[test]
    fn process_names_are_emitted() {
        let s = chrome_trace_string(&sample_log());
        assert!(s.contains("process_name"));
        assert!(s.contains("simulated gpu"));
    }

    fn sample_host_profile() -> crate::host::HostProfile {
        use crate::host::{HostPhase, HostProfiler};
        let mut p = HostProfiler::new(10);
        p.add(HostPhase::Dispatch, 3_000_000);
        p.add(HostPhase::Execute, 9_000_000);
        let t0 = p.elapsed_ns();
        p.span_end(
            HostPhase::Preflight,
            "validate",
            t0.saturating_sub(2_000_000),
        );
        p.heartbeat(10, 0, 100);
        p.finish(100, 1000, None)
    }

    #[test]
    fn host_export_is_valid_json_with_named_host_process() {
        let host = sample_host_profile();
        let s = chrome_trace_with_host_string(&sample_log(), &host);
        json::validate(&s).expect("dual-clock export must be well-formed JSON");
        assert!(s.contains("host self-profile"));
        assert!(s.contains("\"driver\""));
        assert!(s.contains("driver phases (aggregate)"));
        assert!(s.contains("preflight:validate"));
        assert!(s.contains("\"execute\""));
        assert!(s.contains("host/cycles_per_sec"));
        // Host events live on pid 1, never pid 0.
        assert!(s.contains("\"pid\":1"));
    }

    #[test]
    fn host_export_leaves_sim_process_untouched() {
        // The sim-only export must be a prefix-compatible subset: every
        // pid-0 event line identical with and without the host process.
        let plain = chrome_trace_string(&sample_log());
        let dual = chrome_trace_with_host_string(&sample_log(), &sample_host_profile());
        let sim_events = |s: &str| -> Vec<String> {
            s.trim_start_matches("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[")
                .trim_end()
                .trim_end_matches("]}")
                .split(",\n")
                .filter(|e| e.contains("\"pid\":0"))
                .map(|e| e.to_string())
                .collect()
        };
        assert!(!sim_events(&plain).is_empty());
        assert_eq!(sim_events(&plain), sim_events(&dual));
    }
}
