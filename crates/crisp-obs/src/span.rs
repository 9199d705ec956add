//! Cycle-stamped span / event recording.
//!
//! Events that conceptually belong to one SM (CTA execution spans) are
//! buffered in that SM's private vector and only merged — in ascending
//! SM-id order — when the log is read, so the exported timeline is
//! bit-identical from run to run.

use std::collections::HashMap;

/// Where an event is drawn in the exported timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Track {
    /// Whole-GPU track (cycle-level counters, global phases).
    Gpu,
    /// One stream's track (kernels, draws, markers).
    Stream(u32),
    /// One SM's track (CTA spans).
    Sm(u32),
}

/// A closed `[start, start+dur)` span on a track.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanEvent {
    /// Track the span belongs to.
    pub track: Track,
    /// Display name (kernel name, CTA id, …).
    pub name: String,
    /// Category tag (`kernel`, `cta`, …) for trace-viewer filtering.
    pub cat: &'static str,
    /// First cycle of the span.
    pub start: u64,
    /// Span length in cycles (0 allowed; rendered as an instant-like sliver).
    pub dur: u64,
    /// Extra `key=value` context exported into the trace `args`.
    pub args: Vec<(String, String)>,
}

/// A zero-duration event on a track (stream markers, epoch boundaries).
#[derive(Debug, Clone, PartialEq)]
pub struct InstantEvent {
    /// Track the event belongs to.
    pub track: Track,
    /// Display name.
    pub name: String,
    /// Category tag.
    pub cat: &'static str,
    /// Cycle stamp.
    pub at: u64,
}

/// One sample of a named counter series (exported as a Perfetto counter
/// track and as CSV).
#[derive(Debug, Clone, PartialEq)]
pub struct CounterSample {
    /// Sample cycle.
    pub cycle: u64,
    /// Counter name (e.g. `stream0/ipc`, `l2/hit_rate`).
    pub name: String,
    /// Sampled value.
    pub value: f64,
}

/// The finished, immutable event log of one run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceLog {
    /// Driver-thread spans (kernels, draws) in record order.
    spans: Vec<SpanEvent>,
    /// Per-SM span buffers; index = SM id.
    sm_spans: Vec<Vec<SpanEvent>>,
    /// Zero-duration events in record order.
    instants: Vec<InstantEvent>,
    /// Counter samples in record order.
    counters: Vec<CounterSample>,
}

impl TraceLog {
    /// Every span: driver-thread spans first, then each SM's buffer in
    /// ascending SM-id order. This merge order is part of the determinism
    /// contract.
    pub fn spans(&self) -> impl Iterator<Item = &SpanEvent> {
        self.spans.iter().chain(self.sm_spans.iter().flatten())
    }

    /// Zero-duration events in record order.
    pub fn instants(&self) -> &[InstantEvent] {
        &self.instants
    }

    /// Counter samples in record order.
    pub fn counters(&self) -> &[CounterSample] {
        &self.counters
    }

    /// Total spans across all buffers.
    pub fn span_count(&self) -> usize {
        self.spans.len() + self.sm_spans.iter().map(Vec::len).sum::<usize>()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.span_count() == 0 && self.instants.is_empty() && self.counters.is_empty()
    }

    /// Driver-thread spans only (excluding the per-SM buffers), in record
    /// order. Used by checkpoint serialization, which must preserve the
    /// buffer structure rather than the merged view.
    pub fn driver_spans(&self) -> &[SpanEvent] {
        &self.spans
    }

    /// The per-SM span buffers (index = SM id).
    pub fn sm_span_buffers(&self) -> &[Vec<SpanEvent>] {
        &self.sm_spans
    }

    /// Reassemble a log from its raw parts (checkpoint restore).
    pub fn from_parts(
        spans: Vec<SpanEvent>,
        sm_spans: Vec<Vec<SpanEvent>>,
        instants: Vec<InstantEvent>,
        counters: Vec<CounterSample>,
    ) -> Self {
        TraceLog {
            spans,
            sm_spans,
            instants,
            counters,
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct OpenCta {
    sm: u32,
    stream: u32,
    cta_index: usize,
}

/// The writable recorder. Construction chooses what is recorded; when both
/// flags are off every record call is a no-op, so a disabled recorder can
/// simply not be constructed at all (the simulator holds an `Option`).
#[derive(Debug, Clone, Default)]
pub struct TraceRecorder {
    log: TraceLog,
    /// CTA spans currently open, keyed by the scheduler's CTA sequence
    /// number. Only keyed insert/remove — never iterated — so the HashMap
    /// cannot perturb output order.
    open_ctas: HashMap<u64, (OpenCta, u64)>,
    record_spans: bool,
    record_counters: bool,
}

impl TraceRecorder {
    /// A recorder for `n_sms` SMs. `spans` enables span/instant recording,
    /// `counters` enables counter sampling.
    pub fn new(n_sms: usize, spans: bool, counters: bool) -> Self {
        TraceRecorder {
            log: TraceLog {
                sm_spans: vec![Vec::new(); n_sms],
                ..TraceLog::default()
            },
            open_ctas: HashMap::new(),
            record_spans: spans,
            record_counters: counters,
        }
    }

    /// Whether span/instant recording is enabled.
    pub fn records_spans(&self) -> bool {
        self.record_spans
    }

    /// Whether counter sampling is enabled.
    pub fn records_counters(&self) -> bool {
        self.record_counters
    }

    /// A CTA left the GPU scheduler for SM `sm` at `now`.
    pub fn cta_issued(&mut self, seq: u64, sm: u32, stream: u32, cta_index: usize, now: u64) {
        if self.record_spans {
            self.open_ctas.insert(
                seq,
                (
                    OpenCta {
                        sm,
                        stream,
                        cta_index,
                    },
                    now,
                ),
            );
        }
    }

    /// The CTA with sequence number `seq` committed at `now`.
    pub fn cta_committed(&mut self, seq: u64, now: u64) {
        if let Some((c, start)) = self.open_ctas.remove(&seq) {
            self.log.sm_spans[c.sm as usize].push(SpanEvent {
                track: Track::Sm(c.sm),
                name: format!("cta{}", c.cta_index),
                cat: "cta",
                start,
                dur: now - start,
                args: vec![("stream".into(), c.stream.to_string())],
            });
        }
    }

    /// A kernel (or draw) ran on `stream` from `start` to `end`.
    pub fn kernel_span(&mut self, stream: u32, name: &str, start: u64, end: u64, ctas: u64) {
        if self.record_spans {
            self.log.spans.push(SpanEvent {
                track: Track::Stream(stream),
                name: name.to_string(),
                cat: "kernel",
                start,
                dur: end - start,
                args: vec![("ctas".into(), ctas.to_string())],
            });
        }
    }

    /// A stream marker (drawcall boundary, stats clear, …) at `now`.
    pub fn marker(&mut self, stream: u32, label: &str, now: u64) {
        if self.record_spans {
            self.log.instants.push(InstantEvent {
                track: Track::Stream(stream),
                name: label.to_string(),
                cat: "marker",
                at: now,
            });
        }
    }

    /// Sample a counter series.
    pub fn counter(&mut self, cycle: u64, name: impl Into<String>, value: f64) {
        if self.record_counters {
            self.log.counters.push(CounterSample {
                cycle,
                name: name.into(),
                value,
            });
        }
    }

    /// The log recorded so far (checkpoint serialization).
    pub fn log(&self) -> &TraceLog {
        &self.log
    }

    /// Open CTA spans as `(seq, sm, stream, cta_index, start)` tuples,
    /// sorted by sequence number (checkpoint serialization).
    pub fn open_cta_entries(&self) -> Vec<(u64, u32, u32, usize, u64)> {
        let mut v: Vec<_> = self
            .open_ctas
            .iter()
            .map(|(&seq, &(c, start))| (seq, c.sm, c.stream, c.cta_index, start))
            .collect();
        v.sort_unstable_by_key(|&(seq, ..)| seq);
        v
    }

    /// Reassemble a recorder from a restored log, the open-CTA tuples from
    /// [`TraceRecorder::open_cta_entries`], and the recording flags.
    pub fn from_parts(
        log: TraceLog,
        open: Vec<(u64, u32, u32, usize, u64)>,
        record_spans: bool,
        record_counters: bool,
    ) -> Self {
        TraceRecorder {
            log,
            open_ctas: open
                .into_iter()
                .map(|(seq, sm, stream, cta_index, start)| {
                    (
                        seq,
                        (
                            OpenCta {
                                sm,
                                stream,
                                cta_index,
                            },
                            start,
                        ),
                    )
                })
                .collect(),
            record_spans,
            record_counters,
        }
    }

    /// Close the recorder at `now` (open CTA spans — possible only if the
    /// run was aborted mid-flight — are closed at `now`) and return the log.
    pub fn finish(mut self, now: u64) -> TraceLog {
        if !self.open_ctas.is_empty() {
            // Deterministic closing order: sort by sequence number.
            let mut open: Vec<_> = self.open_ctas.drain().collect();
            open.sort_unstable_by_key(|(seq, _)| *seq);
            for (seq, entry) in open {
                self.open_ctas.insert(seq, entry);
                self.cta_committed(seq, now);
            }
        }
        self.log
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cta_spans_buffer_per_sm_and_merge_in_order() {
        let mut r = TraceRecorder::new(3, true, true);
        r.cta_issued(0, 2, 0, 0, 10);
        r.cta_issued(1, 0, 0, 1, 11);
        r.cta_committed(1, 20);
        r.cta_committed(0, 30);
        let log = r.finish(30);
        let spans: Vec<_> = log.spans().collect();
        // SM 0's span first despite committing later in wall order? No —
        // merge order is SM-id ascending, and SM 0 < SM 2.
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].track, Track::Sm(0));
        assert_eq!(spans[0].start, 11);
        assert_eq!(spans[0].dur, 9);
        assert_eq!(spans[1].track, Track::Sm(2));
        assert_eq!(spans[1].dur, 20);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut r = TraceRecorder::new(2, false, false);
        r.cta_issued(0, 0, 0, 0, 1);
        r.cta_committed(0, 5);
        r.kernel_span(0, "k", 0, 10, 4);
        r.marker(0, "draw", 3);
        r.counter(0, "ipc", 1.0);
        assert!(r.finish(10).is_empty());
    }

    #[test]
    fn kernels_markers_counters_record() {
        let mut r = TraceRecorder::new(1, true, true);
        r.kernel_span(1, "vs_main", 5, 25, 8);
        r.marker(0, "draw0", 5);
        r.counter(100, "l2/hit_rate", 0.75);
        let log = r.finish(100);
        assert_eq!(log.span_count(), 1);
        assert_eq!(log.instants().len(), 1);
        assert_eq!(log.counters().len(), 1);
        assert_eq!(log.counters()[0].value, 0.75);
        assert!(!log.is_empty());
    }
}
