//! Measurement plumbing shared by the workloads: timed calls into a layer
//! (recorded as in-memory spans when tracing), per-iteration samples, and
//! the run report `run.py` reads.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

use crisp_obs::json::json_str;

/// A span that has begun but not ended; hand it back to [`Tracer::end`].
#[must_use = "end the span to measure it"]
pub struct Open {
    name: &'static str,
    id: u64,
    parent: u64,
    start: Instant,
}

impl Open {
    /// Seconds since the span began.
    pub fn elapsed(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }
}

struct Span {
    name: &'static str,
    id: u64,
    parent: u64,
    start_us: f64,
    dur_us: f64,
}

/// Times every layer call. With tracing on it also keeps each call as a
/// span (name, start, duration, parent) in memory, written out as a
/// Chrome trace when the run ends.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<u64>,
    next_id: u64,
}

/// Name of the span that wraps one whole iteration of a workload.
pub const ITERATION: &str = "iteration";

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            enabled: false,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            next_id: 1,
        }
    }

    /// Turn span recording on or off (timing itself is always on).
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn begin(&mut self, name: &'static str) -> Open {
        let id = self.next_id;
        self.next_id += 1;
        let parent = self.stack.last().copied().unwrap_or(0);
        if self.enabled {
            self.stack.push(id);
        }
        Open {
            name,
            id,
            parent,
            start: Instant::now(),
        }
    }

    /// End `open` and return its duration in seconds.
    pub fn end(&mut self, open: Open) -> f64 {
        let secs = open.start.elapsed().as_secs_f64();
        if self.enabled {
            if self.stack.last() == Some(&open.id) {
                self.stack.pop();
            }
            self.spans.push(Span {
                name: open.name,
                id: open.id,
                parent: open.parent,
                start_us: open.start.duration_since(self.origin).as_secs_f64() * 1e6,
                dur_us: secs * 1e6,
            });
        }
        secs
    }

    /// Share of the recorded iterations' wall time covered by their
    /// direct child spans (the timed layer calls).
    pub fn coverage(&self) -> f64 {
        let iters: BTreeMap<u64, f64> = self
            .spans
            .iter()
            .filter(|s| s.name == ITERATION)
            .map(|s| (s.id, s.dur_us))
            .collect();
        let wall: f64 = iters.values().sum();
        let covered: f64 = self
            .spans
            .iter()
            .filter(|s| iters.contains_key(&s.parent))
            .map(|s| s.dur_us)
            .sum();
        if wall > 0.0 {
            covered / wall
        } else {
            0.0
        }
    }

    /// Write the recorded spans in Chrome Trace Event Format.
    pub fn write_chrome_trace(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::from("{\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let cat = s.name.split('.').next().unwrap_or(s.name);
            let _ = write!(
                out,
                "{{\"name\":{},\"cat\":{},\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\
                 \"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{}}}}}",
                json_str(s.name),
                json_str(cat),
                s.start_us,
                s.dur_us,
                s.id,
                s.parent
            );
        }
        out.push_str("],\"displayTimeUnit\":\"ms\"}\n");
        std::fs::write(path, out)
    }
}

/// Values of one named quantity, one per iteration (or per event).
#[derive(Default)]
pub struct Samples(BTreeMap<&'static str, Vec<f64>>);

impl Samples {
    pub fn push(&mut self, name: &'static str, v: f64) {
        self.0.entry(name).or_default().push(v);
    }

    pub fn median(&self, name: &str) -> Option<f64> {
        self.0.get(name).map(|v| quantile(v, 0.5))
    }

    pub fn get(&self, name: &str) -> &[f64] {
        self.0.get(name).map_or(&[], Vec::as_slice)
    }
}

/// The `q` quantile of `values` by linear interpolation between order
/// statistics; NaN when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// What one run measured and checked. Serialized as the last line of the
/// binary's standard output for `run.py`.
#[derive(Default)]
pub struct Report {
    metrics: Vec<(String, f64, &'static str)>,
    /// Workload-specific end-to-end figures that are printed but not part
    /// of the metric set every workload shares.
    extras: Vec<(String, f64, &'static str)>,
    outputs: BTreeMap<String, String>,
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
}

impl Report {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    pub fn extra(&mut self, name: &str, value: f64, unit: &'static str) {
        self.extras.push((name.to_string(), value, unit));
    }

    /// Count one checked operation; a failed check is noted by `what`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.notes.push(what());
        }
    }

    /// Record an output `run.py` compares with the recorded reference.
    /// Every occurrence of `key` within one run must carry the same value.
    pub fn output(&mut self, key: String, value: String) {
        if let Some(prev) = self.outputs.get(&key) {
            if *prev != value {
                self.failed += 1;
                self.notes.push(format!(
                    "output {key} differs between iterations of one run"
                ));
            }
            return;
        }
        self.outputs.insert(key, value);
    }

    pub fn note(&mut self, n: String) {
        self.notes.push(n);
    }

    pub fn to_json(&self) -> String {
        let num = |v: f64| {
            if v.is_finite() {
                format!("{v:?}")
            } else {
                "null".to_string()
            }
        };
        let list = |items: &[(String, f64, &str)]| {
            items
                .iter()
                .map(|(n, v, u)| {
                    format!(
                        "{}:{{\"value\":{},\"unit\":{}}}",
                        json_str(n),
                        num(*v),
                        json_str(u)
                    )
                })
                .collect::<Vec<_>>()
                .join(",")
        };
        let outputs = self
            .outputs
            .iter()
            .map(|(k, v)| format!("{}:{}", json_str(k), json_str(v)))
            .collect::<Vec<_>>()
            .join(",");
        let notes = self
            .notes
            .iter()
            .map(|n| json_str(n))
            .collect::<Vec<_>>()
            .join(",");
        format!(
            "{{\"attempted\":{},\"failed\":{},\"metrics\":{{{}}},\"extras\":{{{}}},\
             \"outputs\":{{{outputs}}},\"notes\":[{notes}]}}",
            self.attempted,
            self.failed,
            list(&self.metrics),
            list(&self.extras),
        )
    }
}

/// Per-run settings and accumulators handed to every workload.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub work: std::path::PathBuf,
    pub tracer: Tracer,
    pub report: Report,
    /// Per-iteration samples of untraced iterations (end-to-end metrics).
    pub plain: Samples,
    /// Per-iteration samples of traced iterations (per-layer metrics).
    pub traced: Samples,
}

impl Ctx {
    /// Samples of the phase currently running.
    pub fn samples(&mut self) -> &mut Samples {
        if self.tracer.enabled() {
            &mut self.traced
        } else {
            &mut self.plain
        }
    }

    /// Run `iteration` repeatedly: untraced for the whole measuring time,
    /// or, on a traced run, untraced for half of it and traced for the
    /// other half so the two can be compared. Each phase runs at least
    /// `min_iters` iterations. An iteration that fails counts as a failed
    /// check.
    pub fn measure(
        &mut self,
        min_iters: usize,
        mut iteration: impl FnMut(&mut Ctx) -> Result<(), String>,
    ) {
        let phases: &[(bool, f64)] = if self.trace {
            &[(false, 0.5), (true, 0.5)]
        } else {
            &[(false, 1.0)]
        };
        for &(traced, share) in phases {
            self.tracer.set_enabled(traced);
            let start = Instant::now();
            let budget = self.seconds * share;
            for i in 1.. {
                if let Err(e) = iteration(self) {
                    self.report.check(false, || e);
                }
                // A failed iteration leaves its spans open.
                self.tracer.stack.clear();
                if i >= min_iters && start.elapsed().as_secs_f64() >= budget {
                    break;
                }
            }
        }
        self.tracer.set_enabled(false);
    }

    /// The median of an end-to-end sample, as a metric.
    pub fn e2e(&mut self, name: &'static str, unit: &'static str) {
        let v = self.plain.median(name).unwrap_or(f64::NAN);
        self.report.metric(name, v, unit);
    }

    /// The median of a per-layer sample (traced iterations), as a metric.
    pub fn layer(&mut self, name: &'static str, unit: &'static str) {
        if let Some(v) = self.traced.median(name) {
            self.report.metric(name, v, unit);
        }
    }
}

/// Start or stop the counting allocator, from zero when starting. A
/// simulation built with `.host_profile(true)` reports what was counted
/// up to its end.
pub fn count_allocs(on: bool) {
    if on {
        crisp_obs::alloc::reset();
        crisp_obs::alloc::enable();
    } else {
        crisp_obs::alloc::disable();
    }
}

/// The process's high-water resident set size in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// SplitMix64: the benchmark's seeded generator for input choices.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x5DEE_CE66_D1CE_4E5B)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform index below `n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}
