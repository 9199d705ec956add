//! Analyzer configuration: lint levels, thresholds, allow/deny lists.

use crate::diag::{LintCode, Severity};
use crate::interference::InterferenceSpec;

/// How strictly the simulation builder's `.analyze(..)` hook treats the
/// analyzer's findings.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LintLevel {
    /// Do not run the analyzer at all.
    #[default]
    Off,
    /// Run the analyzer; findings with [`Severity::Error`] fail the build,
    /// warnings are ignored.
    Errors,
    /// Run the analyzer; *every* finding — warnings included — fails the
    /// build. Useful for CI over curated corpora.
    Deny,
}

/// Tunable knobs and allow/deny lists for one analysis run.
///
/// The default configuration enables every lint at its
/// [`LintCode::default_severity`]. `allow*` entries suppress findings,
/// `deny` entries promote a code's warnings to errors; the narrower
/// kernel-scoped allow wins over a blanket deny for that code.
#[derive(Debug, Clone, PartialEq)]
pub struct AnalysisConfig {
    /// A global access is flagged [`LintCode::Uncoalesced`] when it touches
    /// more than `ideal_sectors * uncoalesced_slack` 32 B sectors, where
    /// `ideal_sectors` is the minimum the touched bytes could occupy.
    /// This is a heuristic, not a proof — wide well-formed accesses stay
    /// below the slack no matter how many sectors they legitimately need.
    pub uncoalesced_slack: f64,
    /// Accesses whose sector count is below this are never flagged
    /// uncoalesced, however bad their slack ratio — tiny gathers are noise.
    pub uncoalesced_min_sectors: usize,
    /// A shared access is flagged [`LintCode::BankConflict`] when some bank
    /// serves at least this many distinct 4 B words in one access
    /// (the conflict degree, i.e. the serialisation factor).
    pub bank_conflict_threshold: usize,
    /// A warp is flagged [`LintCode::CfgUnboundedLoop`] when one
    /// branch-terminated basic block repeats at least this many consecutive
    /// times in its trace — an unbounded-looking back-edge.
    pub loop_trip_threshold: usize,
    /// A CTA is flagged [`LintCode::CfgDivergenceHostile`] when one barrier
    /// interval shows at least this many distinct per-warp control paths.
    pub divergence_paths: usize,
    /// L2 capacity model for the cross-stream interference pass; `None`
    /// (the default) disables it. The `crisp-sim` builder fills this from
    /// the configured partition spec at preflight.
    pub interference: Option<InterferenceSpec>,
    /// A compute stream whose streaming-store footprint reaches this
    /// fraction of shared L2 capacity flags co-resident graphics streams
    /// [`LintCode::InterferenceLatencyVictim`].
    pub latency_victim_fraction: f64,
    /// Suppressed lints: `(code, None)` silences the code everywhere,
    /// `(code, Some(substr))` only in kernels whose name contains `substr`.
    pub allows: Vec<(LintCode, Option<String>)>,
    /// Codes whose warnings are promoted to errors.
    pub denies: Vec<LintCode>,
}

impl Default for AnalysisConfig {
    fn default() -> Self {
        AnalysisConfig {
            uncoalesced_slack: 2.0,
            uncoalesced_min_sectors: 8,
            bank_conflict_threshold: 8,
            loop_trip_threshold: 1024,
            divergence_paths: 8,
            interference: None,
            latency_victim_fraction: 0.25,
            allows: Vec::new(),
            denies: Vec::new(),
        }
    }
}

impl AnalysisConfig {
    /// The default configuration (all lints at default severity).
    pub fn new() -> Self {
        AnalysisConfig::default()
    }

    /// Suppress `code` everywhere.
    pub fn allow(mut self, code: LintCode) -> Self {
        self.allows.push((code, None));
        self
    }

    /// Suppress `code` in kernels whose name contains `kernel_substr`.
    pub fn allow_in(mut self, code: LintCode, kernel_substr: impl Into<String>) -> Self {
        self.allows.push((code, Some(kernel_substr.into())));
        self
    }

    /// Promote `code`'s warnings to errors.
    pub fn deny(mut self, code: LintCode) -> Self {
        self.denies.push(code);
        self
    }

    /// Effective severity of `code` for a finding in `kernel`, or `None`
    /// when an allow entry suppresses it. Kernel-scoped allows match by
    /// substring; a match always suppresses, even if the code is denied.
    pub fn severity_for(&self, code: LintCode, kernel: Option<&str>) -> Option<Severity> {
        for (c, scope) in &self.allows {
            if *c != code {
                continue;
            }
            match scope {
                None => return None,
                Some(substr) => {
                    if kernel.is_some_and(|k| k.contains(substr.as_str())) {
                        return None;
                    }
                }
            }
        }
        if self.denies.contains(&code) {
            Some(Severity::Error)
        } else {
            Some(code.default_severity())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_severity_passes_through() {
        let cfg = AnalysisConfig::new();
        assert_eq!(
            cfg.severity_for(LintCode::SharedWriteWrite, Some("k")),
            Some(Severity::Error)
        );
        assert_eq!(
            cfg.severity_for(LintCode::DeadWrite, None),
            Some(Severity::Warning)
        );
    }

    #[test]
    fn blanket_allow_suppresses() {
        let cfg = AnalysisConfig::new().allow(LintCode::DeadWrite);
        assert_eq!(cfg.severity_for(LintCode::DeadWrite, Some("any")), None);
        assert!(cfg
            .severity_for(LintCode::RedundantLoad, Some("any"))
            .is_some());
    }

    #[test]
    fn scoped_allow_matches_by_substring() {
        let cfg = AnalysisConfig::new().allow_in(LintCode::GlobalWriteOverlap, "reduce");
        assert_eq!(
            cfg.severity_for(LintCode::GlobalWriteOverlap, Some("vio_reduce_0")),
            None
        );
        assert_eq!(
            cfg.severity_for(LintCode::GlobalWriteOverlap, Some("gemm")),
            Some(Severity::Warning)
        );
        // No kernel context → the scoped allow cannot apply.
        assert_eq!(
            cfg.severity_for(LintCode::GlobalWriteOverlap, None),
            Some(Severity::Warning)
        );
    }

    #[test]
    fn deny_promotes_warnings() {
        let cfg = AnalysisConfig::new().deny(LintCode::Uncoalesced);
        assert_eq!(
            cfg.severity_for(LintCode::Uncoalesced, Some("k")),
            Some(Severity::Error)
        );
    }

    #[test]
    fn allow_beats_deny() {
        let cfg = AnalysisConfig::new()
            .deny(LintCode::BankConflict)
            .allow_in(LintCode::BankConflict, "histogram");
        assert_eq!(
            cfg.severity_for(LintCode::BankConflict, Some("histogram_256")),
            None
        );
        assert_eq!(
            cfg.severity_for(LintCode::BankConflict, Some("other")),
            Some(Severity::Error)
        );
    }
}
