//! The analyzer's output: a deterministic, site-sorted report with text
//! and JSON renderings.

use std::fmt::Write as _;

use crisp_obs::json::{json_str, validate};
use crisp_trace::{TraceError, TraceErrorSite};

use crate::diag::{Diagnostic, LintCode, Severity};

/// Per-class footprint entry of a [`KernelStats`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClassLines {
    /// Data-class label (`"texture"` / `"pipeline"` / `"compute"`).
    pub class: &'static str,
    /// Distinct 128 B lines touched.
    pub lines: usize,
    /// Bytes those lines cover.
    pub bytes: u64,
}

/// Summary statistics for one analyzed kernel launch.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelStats {
    /// Stream id the launch belongs to (`None` for standalone analysis).
    pub stream: Option<u32>,
    /// Kernel name.
    pub name: String,
    /// CTAs in the grid.
    pub ctas: usize,
    /// Warps across all CTAs.
    pub warps: usize,
    /// Dynamic instructions across all warps.
    pub instrs: usize,
    /// Peak live registers over any warp (backward-liveness sweep) — the
    /// scoreboard pressure the kernel actually exerts.
    pub max_live_regs: u32,
    /// Mean over warps of each warp's peak live-register count.
    pub mean_live_regs: f64,
    /// Registers per thread the launch *declared* (occupancy input);
    /// compare against `max_live_regs` to spot over-declaration.
    pub declared_regs: u32,
    /// Global + local memory instructions.
    pub global_accesses: u64,
    /// Shared-memory instructions.
    pub shared_accesses: u64,
    /// Texture fetches.
    pub tex_accesses: u64,
    /// Distinct-line footprint per data class, in `DataClass::ALL` order.
    pub footprint: Vec<ClassLines>,
}

/// Everything one analysis run found, sorted by site then lint code.
///
/// The report is deterministic: analyzing the same bundle with the same
/// configuration yields an identical value — and byte-identical
/// [`text`](Self::text) / [`to_json`](Self::to_json) renderings.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AnalysisReport {
    /// All findings, most significant location first.
    pub diagnostics: Vec<Diagnostic>,
    /// Per-kernel statistics in bundle launch order.
    pub stats: Vec<KernelStats>,
    /// Cross-stream interference score: the worst concurrent phase's
    /// combined L2 working set as a fraction of its effective capacity
    /// (> 1.0 = provable oversubscription). `None` when no
    /// [`InterferenceSpec`](crate::InterferenceSpec) was configured. A
    /// measurement, not a lint — allow/deny lists don't affect it.
    pub interference: Option<f64>,
}

impl AnalysisReport {
    /// Findings with [`Severity::Error`].
    pub fn errors(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
    }

    /// Findings with [`Severity::Warning`].
    pub fn warnings(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Warning)
    }

    /// Number of error-severity findings.
    pub fn error_count(&self) -> usize {
        self.errors().count()
    }

    /// Number of warning-severity findings.
    pub fn warning_count(&self) -> usize {
        self.warnings().count()
    }

    /// Whether any finding has error severity.
    pub fn has_errors(&self) -> bool {
        self.errors().next().is_some()
    }

    /// The error-severity findings as `crisp-trace` errors, ready to fold
    /// into `SimError::InvalidTrace`.
    pub fn to_trace_errors(&self) -> Vec<TraceError> {
        self.errors().map(Diagnostic::to_trace_error).collect()
    }

    /// Human-readable rendering: every diagnostic with its hint, then a
    /// per-kernel statistics block.
    pub fn text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "crisp-analyze: {} kernel{}, {} error{}, {} warning{}",
            self.stats.len(),
            plural(self.stats.len()),
            self.error_count(),
            plural(self.error_count()),
            self.warning_count(),
            plural(self.warning_count()),
        );
        if let Some(score) = self.interference {
            let _ = writeln!(
                out,
                "cross-stream interference score: {score:.4} (worst-phase L2 pressure)"
            );
        }
        for d in &self.diagnostics {
            let _ = writeln!(out, "\n{d}");
        }
        if !self.stats.is_empty() {
            out.push_str("\nkernel stats:\n");
            for k in &self.stats {
                let stream = match k.stream {
                    Some(s) => format!("stream{s} "),
                    None => String::new(),
                };
                let fp = k
                    .footprint
                    .iter()
                    .map(|c| format!("{} {}", c.class, c.lines))
                    .collect::<Vec<_>>()
                    .join(", ");
                let _ = writeln!(
                    out,
                    "  {stream}'{}': {} ctas, {} warps, {} instrs, live regs \
                     max {} mean {:.2} (declared {}), mem g/s/t {}/{}/{}, \
                     footprint lines: {fp}",
                    k.name,
                    k.ctas,
                    k.warps,
                    k.instrs,
                    k.max_live_regs,
                    k.mean_live_regs,
                    k.declared_regs,
                    k.global_accesses,
                    k.shared_accesses,
                    k.tex_accesses,
                );
            }
        }
        out
    }

    /// JSON rendering (RFC 8259, hand-rolled like the rest of the
    /// dependency-free workspace; `crisp_obs::json::validate` accepts it by
    /// construction — debug builds assert so).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n  \"version\": 1,\n");
        let _ = writeln!(out, "  \"errors\": {},", self.error_count());
        let _ = writeln!(out, "  \"warnings\": {},", self.warning_count());
        let _ = writeln!(
            out,
            "  \"interference\": {},",
            self.interference
                .map_or("null".to_string(), |s| format!("{s:.4}"))
        );
        out.push_str("  \"diagnostics\": [");
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    {");
            let _ = write!(
                out,
                "\"code\": {}, \"severity\": {}, \"site\": {}, \"related\": {}, \
                 \"message\": {}, \"hint\": {}",
                json_str(d.code.as_str()),
                json_str(d.severity.label()),
                site_json(&d.site),
                d.related.as_ref().map_or("null".to_string(), site_json),
                json_str(&d.message),
                json_str(d.hint),
            );
            out.push('}');
        }
        if !self.diagnostics.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("],\n  \"kernels\": [");
        for (i, k) in self.stats.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    {");
            let _ = write!(
                out,
                "\"stream\": {}, \"name\": {}, \"ctas\": {}, \"warps\": {}, \
                 \"instrs\": {}, \"max_live_regs\": {}, \"mean_live_regs\": {:.2}, \
                 \"declared_regs\": {}, \"global_accesses\": {}, \
                 \"shared_accesses\": {}, \"tex_accesses\": {}, \"footprint\": [",
                k.stream.map_or("null".to_string(), |s| s.to_string()),
                json_str(&k.name),
                k.ctas,
                k.warps,
                k.instrs,
                k.max_live_regs,
                k.mean_live_regs,
                k.declared_regs,
                k.global_accesses,
                k.shared_accesses,
                k.tex_accesses,
            );
            for (j, c) in k.footprint.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                let _ = write!(
                    out,
                    "{{\"class\": {}, \"lines\": {}, \"bytes\": {}}}",
                    json_str(c.class),
                    c.lines,
                    c.bytes
                );
            }
            out.push_str("]}");
        }
        if !self.stats.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("]\n}\n");
        debug_assert!(validate(&out).is_ok(), "emitted invalid JSON");
        out
    }

    /// SARIF 2.1.0 rendering of this report as a single-bundle document;
    /// see [`sarif_document`] for the format.
    pub fn to_sarif(&self) -> String {
        sarif_document(&[("trace", self)])
    }
}

/// Render one or more named reports as a SARIF 2.1.0 document: one run of
/// the `crisp-analyze` driver, rule metadata for every lint code that
/// fired (hints become rule help), and one result per diagnostic. Sites
/// are logical locations (`bundle: stream N kernel 'k' cta C warp W`) —
/// trace bundles have no source files to anchor physical locations to.
/// CI's `lint-smoke` uploads this as its analysis artifact.
#[must_use]
pub fn sarif_document(bundles: &[(&str, &AnalysisReport)]) -> String {
    let mut used: Vec<LintCode> = bundles
        .iter()
        .flat_map(|(_, r)| r.diagnostics.iter().map(|d| d.code))
        .collect();
    used.sort_unstable();
    used.dedup();

    let mut out = String::from(
        "{\n  \"version\": \"2.1.0\",\n  \
         \"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\",\n  \
         \"runs\": [{\n    \"tool\": {\"driver\": {\"name\": \"crisp-analyze\", \
         \"rules\": [",
    );
    for (i, code) in used.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n      {{\"id\": {}, \"defaultConfiguration\": {{\"level\": {}}}, \
             \"help\": {{\"text\": {}}}}}",
            json_str(code.as_str()),
            json_str(code.default_severity().label()),
            json_str(code.hint()),
        );
    }
    if !used.is_empty() {
        out.push_str("\n    ");
    }
    out.push_str("]}},\n    \"results\": [");
    let mut first = true;
    for (name, report) in bundles {
        for d in &report.diagnostics {
            if !first {
                out.push(',');
            }
            first = false;
            let mut location = format!("{name}: {}", d.site);
            if let Some(r) = &d.related {
                let _ = write!(location, " (conflicts with {r})");
            }
            let _ = write!(
                out,
                "\n      {{\"ruleId\": {}, \"level\": {}, \"message\": {{\"text\": {}}}, \
                 \"locations\": [{{\"logicalLocations\": [{{\"fullyQualifiedName\": {}}}]}}]}}",
                json_str(d.code.as_str()),
                json_str(d.severity.label()),
                json_str(&d.message),
                json_str(&location),
            );
        }
    }
    if !first {
        out.push_str("\n    ");
    }
    out.push_str("]\n  }]\n}\n");
    debug_assert!(validate(&out).is_ok(), "emitted invalid SARIF JSON");
    out
}

fn plural(n: usize) -> &'static str {
    if n == 1 {
        ""
    } else {
        "s"
    }
}

fn site_json(s: &TraceErrorSite) -> String {
    let opt_num = |v: Option<usize>| v.map_or("null".to_string(), |x| x.to_string());
    format!(
        "{{\"stream\": {}, \"kernel\": {}, \"cta\": {}, \"warp\": {}, \"instr\": {}}}",
        s.stream.map_or("null".to_string(), |id| id.0.to_string()),
        s.kernel.as_deref().map_or("null".to_string(), json_str),
        opt_num(s.cta),
        opt_num(s.warp),
        opt_num(s.instr),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::LintCode;

    fn sample() -> AnalysisReport {
        AnalysisReport {
            diagnostics: vec![Diagnostic {
                code: LintCode::SharedWriteWrite,
                severity: Severity::Error,
                site: TraceErrorSite {
                    stream: Some(crisp_trace::StreamId(0)),
                    kernel: Some("k\"quoted\"".into()),
                    cta: Some(0),
                    warp: Some(0),
                    instr: Some(1),
                },
                related: Some(TraceErrorSite::default()),
                message: "warps 0 and 1 both write".into(),
                hint: LintCode::SharedWriteWrite.hint(),
            }],
            stats: vec![KernelStats {
                stream: Some(0),
                name: "k\"quoted\"".into(),
                ctas: 1,
                warps: 2,
                instrs: 10,
                max_live_regs: 4,
                mean_live_regs: 3.5,
                declared_regs: 16,
                global_accesses: 3,
                shared_accesses: 2,
                tex_accesses: 0,
                footprint: vec![ClassLines {
                    class: "compute",
                    lines: 2,
                    bytes: 256,
                }],
            }],
            interference: Some(1.25),
        }
    }

    #[test]
    fn counts_partition_by_severity() {
        let r = sample();
        assert_eq!(r.error_count(), 1);
        assert_eq!(r.warning_count(), 0);
        assert!(r.has_errors());
        assert_eq!(r.to_trace_errors().len(), 1);
    }

    #[test]
    fn empty_report_renders_cleanly() {
        let r = AnalysisReport::default();
        assert!(!r.has_errors());
        assert!(r.text().contains("0 kernels, 0 errors, 0 warnings"));
        validate(&r.to_json()).unwrap();
    }

    #[test]
    fn text_contains_diagnostics_and_stats() {
        let t = sample().text();
        assert!(t.contains("1 kernel, 1 error, 0 warnings"), "{t}");
        assert!(t.contains("race/shared-write-write"), "{t}");
        assert!(t.contains("kernel stats:"), "{t}");
        assert!(t.contains("live regs max 4 mean 3.50"), "{t}");
    }

    #[test]
    fn json_is_valid_even_with_quotes_in_names() {
        let j = sample().to_json();
        validate(&j).unwrap_or_else(|e| panic!("{e}\n{j}"));
        assert!(j.contains("\"errors\": 1"), "{j}");
        assert!(j.contains("race/shared-write-write"), "{j}");
    }

    #[test]
    fn sarif_carries_rules_results_and_sites() {
        let s = sample().to_sarif();
        validate(&s).unwrap_or_else(|e| panic!("{e}\n{s}"));
        assert!(s.contains("\"version\": \"2.1.0\""), "{s}");
        assert!(s.contains("\"name\": \"crisp-analyze\""), "{s}");
        // Rule metadata for the code that fired, with its hint as help.
        assert!(s.contains("\"id\": \"race/shared-write-write\""), "{s}");
        assert!(s.contains("disjoint shared-memory tile"), "{s}");
        // The result names the code, level, message, and logical site.
        assert!(s.contains("\"ruleId\": \"race/shared-write-write\""), "{s}");
        assert!(s.contains("\"level\": \"error\""), "{s}");
        assert!(s.contains("warps 0 and 1 both write"), "{s}");
        assert!(
            s.contains("trace: stream0 kernel 'k\\\"quoted\\\"' cta 0 warp 0 instr 1"),
            "{s}"
        );
    }

    #[test]
    fn sarif_of_a_clean_report_is_empty_but_valid() {
        let s = AnalysisReport::default().to_sarif();
        validate(&s).unwrap_or_else(|e| panic!("{e}\n{s}"));
        assert!(s.contains("\"rules\": []"), "{s}");
        assert!(s.contains("\"results\": []"), "{s}");
    }

    #[test]
    fn sarif_document_merges_bundles_and_dedups_rules() {
        let a = sample();
        let b = sample();
        let s = sarif_document(&[("vio", &a), ("holo", &b)]);
        validate(&s).unwrap_or_else(|e| panic!("{e}\n{s}"));
        assert_eq!(
            s.matches("\"id\": \"race/shared-write-write\"").count(),
            1,
            "one rule entry per code: {s}"
        );
        assert_eq!(
            s.matches("\"ruleId\": \"race/shared-write-write\"").count(),
            2,
            "one result per diagnostic: {s}"
        );
        assert!(s.contains("vio: stream0"), "{s}");
        assert!(s.contains("holo: stream0"), "{s}");
    }
}
