//! Static-analysis sweep: run `crisp-analyze` over trace bundles and emit
//! text + JSON reports.
//!
//! ```text
//! lint --corpus [--deny errors|warnings] [--allow CODE[@KERNEL]]
//!      [--out DIR] [--format sarif]
//! lint PATH.crsp [PATH.crsp ...]
//! ```
//!
//! With `--corpus` the harness analyzes every trace the repo's own
//! frontends produce under the audited allow-list from
//! [`crisp_bench::corpus_lint_config`]; with explicit paths it opens
//! `.crsp` files as streaming sources — the validator and the analyzer
//! demand-page one kernel at a time, so linting a container much larger
//! than RAM works — and starts from an empty config. The analyzer rides
//! the structural validator's walk ([`crisp_trace::validate_source_from`],
//! the simulator's pre-flight check), so each kernel is paged in once; a
//! trace with structural errors (an unreadable kernel among them) exits 1
//! before any report is written.
//! `--allow race/global-write-overlap@my_kernel` appends further allow
//! entries; `--deny errors` (the CI `lint-smoke` mode) exits non-zero when
//! any error-severity diagnostic survives, `--deny warnings` when anything
//! at all does.
//!
//! Reports land in `--out` (default `target/experiments/lint`) as
//! `report.txt` (the rendered diagnostics) and `report.json` (one object
//! per bundle, schema-stable for dashboards). `--format sarif`
//! additionally writes `report.sarif` — a SARIF 2.1.0 document merging
//! every bundle's findings into one run, the artifact CI's `lint-smoke`
//! uploads for static-analysis dashboards.

use std::path::PathBuf;
use std::process::ExitCode;

use crisp_analyze::{analyze_source, AnalysisConfig, AnalysisReport, LintCode};
use crisp_bench::{corpus_lint_config, frontend_corpus};
use crisp_obs::json;
use crisp_trace::{TraceInput, TraceSource};

struct Args {
    corpus: bool,
    paths: Vec<String>,
    deny: Option<String>,
    allows: Vec<(LintCode, Option<String>)>,
    out: PathBuf,
    sarif: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: lint (--corpus | PATH.crsp ...) [--deny errors|warnings] \
         [--allow CODE[@KERNEL]] [--out DIR] [--format sarif]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        corpus: false,
        paths: Vec::new(),
        deny: None,
        allows: Vec::new(),
        out: PathBuf::from("target/experiments/lint"),
        sarif: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--corpus" => args.corpus = true,
            "--deny" => match it.next().as_deref() {
                Some(level @ ("errors" | "warnings")) => args.deny = Some(level.to_string()),
                _ => usage(),
            },
            "--allow" => {
                let Some(spec) = it.next() else { usage() };
                let (code, scope) = match spec.split_once('@') {
                    Some((c, k)) => (c, Some(k.to_string())),
                    None => (spec.as_str(), None),
                };
                match LintCode::parse(code) {
                    Some(c) => args.allows.push((c, scope)),
                    None => {
                        eprintln!("lint: unknown lint code {code:?}");
                        std::process::exit(2);
                    }
                }
            }
            "--out" => match it.next() {
                Some(dir) => args.out = PathBuf::from(dir),
                None => usage(),
            },
            // text and json are always written; sarif opts into a third
            // artifact rather than replacing them.
            "--format" => match it.next().as_deref() {
                Some("sarif") => args.sarif = true,
                Some("text" | "json") => {}
                _ => usage(),
            },
            "--help" | "-h" => usage(),
            p if !p.starts_with('-') => args.paths.push(p.to_string()),
            _ => usage(),
        }
    }
    if args.corpus != args.paths.is_empty() {
        // exactly one input source: the corpus, or explicit paths
        usage();
    }
    args
}

/// Wrap the per-bundle reports into one JSON document.
fn combined_json(reports: &[(String, AnalysisReport)]) -> String {
    let mut out = String::from("{\"version\":1,\"bundles\":[");
    for (i, (name, report)) in reports.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"name\":");
        out.push_str(&json::json_str(name));
        out.push_str(",\"report\":");
        out.push_str(&report.to_json());
        out.push('}');
    }
    let errors: usize = reports.iter().map(|(_, r)| r.error_count()).sum();
    let warnings: usize = reports.iter().map(|(_, r)| r.warning_count()).sum();
    out.push_str(&format!("],\"errors\":{errors},\"warnings\":{warnings}}}"));
    debug_assert!(json::validate(&out).is_ok());
    out
}

fn main() -> ExitCode {
    let args = parse_args();

    // Explicit `.crsp` paths open as streaming sources: the analyzer pages
    // kernel-by-kernel through the same demand-paged window the simulator
    // uses, so linting a huge container stays within bounded memory.
    let (mut sources, mut cfg): (Vec<(String, TraceSource)>, AnalysisConfig) = if args.corpus {
        let srcs = frontend_corpus()
            .into_iter()
            .map(|(name, b)| (name, TraceSource::from_bundle(b)))
            .collect();
        (srcs, corpus_lint_config())
    } else {
        let mut v = Vec::new();
        for p in &args.paths {
            match TraceInput::from(p.as_str()).open() {
                Ok(s) => v.push((p.clone(), s)),
                Err(e) => {
                    eprintln!("lint: {p}: unreadable: {e}");
                    return ExitCode::from(2);
                }
            }
        }
        (v, AnalysisConfig::new())
    };
    for (code, scope) in args.allows {
        cfg = match scope {
            Some(k) => cfg.allow_in(code, k),
            None => cfg.allow(code),
        };
    }

    let mut reports: Vec<(String, AnalysisReport)> = Vec::new();
    let mut text = String::new();
    let mut analysis_time = std::time::Duration::ZERO;
    for (name, src) in &mut sources {
        let t0 = std::time::Instant::now();
        let report = match analyze_source(src, &cfg) {
            Ok(r) => r,
            Err(errs) => {
                eprintln!("lint: {name}: {} structural errors:", errs.len());
                for e in &errs {
                    eprintln!("  {e}");
                }
                return ExitCode::from(1);
            }
        };
        analysis_time += t0.elapsed();
        println!(
            "  {}  {name:<24} {} errors, {} warnings",
            if report.has_errors() { "FAIL" } else { "ok  " },
            report.error_count(),
            report.warning_count(),
        );
        text.push_str(&format!("== {name} ==\n{}\n", report.text()));
        reports.push((name.clone(), report));
    }

    let errors: usize = reports.iter().map(|(_, r)| r.error_count()).sum();
    let warnings: usize = reports.iter().map(|(_, r)| r.warning_count()).sum();
    println!(
        "lint: {} bundles, {errors} errors, {warnings} warnings ({:.1} ms analysis)",
        reports.len(),
        analysis_time.as_secs_f64() * 1e3,
    );
    // Keep stdout readable on badly broken corpora; report.txt has it all.
    const MAX_SHOWN: usize = 40;
    let mut shown = 0usize;
    'outer: for (name, report) in &reports {
        for d in &report.diagnostics {
            if shown == MAX_SHOWN {
                let total: usize = reports.iter().map(|(_, r)| r.diagnostics.len()).sum();
                println!("... and {} more (see report.txt)", total - shown);
                break 'outer;
            }
            println!("[{name}] {d}");
            shown += 1;
        }
    }

    std::fs::create_dir_all(&args.out).expect("create lint output dir");
    let txt_path = args.out.join("report.txt");
    let json_path = args.out.join("report.json");
    std::fs::write(&txt_path, &text).expect("write report.txt");
    std::fs::write(&json_path, combined_json(&reports)).expect("write report.json");
    if args.sarif {
        let named: Vec<(&str, &AnalysisReport)> =
            reports.iter().map(|(name, r)| (name.as_str(), r)).collect();
        let sarif_path = args.out.join("report.sarif");
        std::fs::write(&sarif_path, crisp_analyze::sarif_document(&named))
            .expect("write report.sarif");
        println!("(sarif saved to {})", sarif_path.display());
    }
    println!(
        "(saved to {} and {})",
        txt_path.display(),
        json_path.display()
    );

    let deny_hit = match args.deny.as_deref() {
        Some("errors") => errors > 0,
        Some("warnings") => errors + warnings > 0,
        _ => false,
    };
    if deny_hit {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}
