//! Shared plumbing for the figure-regeneration binaries.
//!
//! `run_all` regenerates the paper's tables and figures (or those its
//! `--only` flag names) by calling the runners in `crisp_core::experiments`,
//! printing each text table, and writing the raw output under
//! `target/experiments/`.
//!
//! Scale is controlled by the `CRISP_SCALE` environment variable:
//!
//! * `paper` (default) — the full evaluation scale (minutes per figure).
//! * `quick` — tiny sizes for smoke-testing the harness (seconds).

use std::path::PathBuf;

use crisp_analyze::{AnalysisConfig, LintCode};
use crisp_core::experiments::ExpScale;
use crisp_core::{COMPUTE_STREAM, GRAPHICS_STREAM};
use crisp_scenes::{holo, nn, vio, ComputeScale, Scene, SceneId};
use crisp_trace::TraceBundle;

/// The experiment scale selected via `CRISP_SCALE`.
pub fn scale() -> ExpScale {
    match std::env::var("CRISP_SCALE").as_deref() {
        Ok("quick") => ExpScale::quick(),
        _ => ExpScale::paper(),
    }
}

/// Output directory for experiment artifacts (`target/experiments`).
pub fn out_dir() -> PathBuf {
    let dir = PathBuf::from("target/experiments");
    std::fs::create_dir_all(&dir).expect("create target/experiments");
    dir
}

/// Print a figure's table and persist it to `target/experiments/<name>.txt`.
pub fn emit(name: &str, table: &str) {
    println!("== {name} ==\n{table}");
    let path = out_dir().join(format!("{name}.txt"));
    std::fs::write(&path, table).expect("write experiment output");
    println!("(saved to {})", path.display());
}

/// The trace corpus every frontend in the repo can produce, at smoke scale.
///
/// Linted by `lint --corpus` and held to the validator, a codec round trip
/// and the analyzer by `tests/analyze.rs`: one graphics frame, the three
/// compute suites, a concurrent render+compute bundle, and paper-scale VIO.
pub fn frontend_corpus() -> Vec<(String, TraceBundle)> {
    let mut corpus: Vec<(String, TraceBundle)> = Vec::new();
    let frame = Scene::build(SceneId::SponzaKhronos, 0.2).render(96, 54, false, GRAPHICS_STREAM);
    corpus.push((
        "sponza-frame".into(),
        TraceBundle::from_streams(vec![frame.trace]),
    ));
    for (name, stream) in [
        ("vio", vio(COMPUTE_STREAM, ComputeScale::tiny())),
        ("holo", holo(COMPUTE_STREAM, ComputeScale::tiny())),
        ("nn", nn(COMPUTE_STREAM, ComputeScale::tiny())),
    ] {
        corpus.push((name.into(), TraceBundle::from_streams(vec![stream])));
    }
    let frame = Scene::build(SceneId::SponzaKhronos, 0.2).render(96, 54, false, GRAPHICS_STREAM);
    corpus.push((
        "concurrent-render+vio".into(),
        TraceBundle::from_streams(vec![frame.trace, vio(COMPUTE_STREAM, ComputeScale::tiny())]),
    ));
    // Paper-scale VIO runs the reduction with >1 CTA, so the benign
    // cross-CTA accumulator overlap in `vio_reduce` is present and the
    // allow entry in `corpus_lint_config` is exercised, not vestigial.
    corpus.push((
        "vio-paper".into(),
        TraceBundle::from_streams(vec![vio(COMPUTE_STREAM, ComputeScale::default())]),
    ));
    corpus
}

/// The lint configuration the corpus is held to.
///
/// Every allow entry documents a *benign* finding that was audited by hand;
/// real defects get fixed in the frontends instead of silenced here.
pub fn corpus_lint_config() -> AnalysisConfig {
    AnalysisConfig::new()
        // The VIO reduction tree intentionally funnels every CTA's partial
        // sum into one accumulator page; the simulator replays stores in
        // trace order, so the overlap is deterministic and harmless.
        .allow_in(LintCode::GlobalWriteOverlap, "vio_reduce")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_scale_is_paper() {
        // The env var is unset in tests unless a caller sets it.
        if std::env::var("CRISP_SCALE").is_err() {
            assert_eq!(scale().detail, ExpScale::paper().detail);
        }
    }

    #[test]
    fn emit_writes_the_artifact() {
        emit("selftest", "hello\n");
        let p = out_dir().join("selftest.txt");
        assert_eq!(std::fs::read_to_string(&p).unwrap(), "hello\n");
        let _ = std::fs::remove_file(p);
    }
}
