//! Supervision policy: retry budgets with exponential backoff, per-tenant
//! circuit breakers, and the fault-injection plan the tests arm.
//!
//! The *mechanisms* (catching panics, parking to checkpoints, respawning
//! workers) live in `server.rs`; this module holds the pure *policy*
//! pieces so they can be unit-tested without a daemon.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Retry budget and backoff schedule for transiently-failed jobs.
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Maximum retry attempts per job (0 disables retries).
    pub max_retries: u32,
    /// Backoff before the first retry; doubles each attempt.
    pub base_backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 2,
            base_backoff: Duration::from_millis(200),
        }
    }
}

impl RetryPolicy {
    /// Whether a job that has already used `retries` attempts may retry
    /// again.
    #[must_use]
    pub fn allows(&self, retries: u32) -> bool {
        retries < self.max_retries
    }

    /// Backoff before retry attempt number `attempt` (1-based):
    /// `base * 2^(attempt-1)`, capped at 2^16× base to avoid overflow
    /// silliness with hostile configs.
    #[must_use]
    pub fn backoff(&self, attempt: u32) -> Duration {
        let shift = attempt.saturating_sub(1).min(16);
        self.base_backoff.saturating_mul(1u32 << shift)
    }
}

/// Per-tenant circuit breaker: after `threshold` *consecutive* permanent
/// job failures the breaker opens and admission sheds that tenant's
/// submissions until `cooldown` elapses. Any success (or the cooldown
/// expiring) closes it again — a classic half-open probe: the first job
/// admitted after cool-down decides whether it re-trips.
#[derive(Debug, Clone, Copy)]
pub struct BreakerPolicy {
    /// Consecutive permanent failures that open the breaker
    /// (0 disables the breaker entirely).
    pub threshold: u32,
    /// How long an open breaker sheds admissions.
    pub cooldown: Duration,
}

impl Default for BreakerPolicy {
    fn default() -> Self {
        BreakerPolicy {
            threshold: 3,
            cooldown: Duration::from_secs(5),
        }
    }
}

/// Live breaker state for one tenant.
#[derive(Debug, Clone, Copy, Default)]
pub struct Breaker {
    /// Consecutive permanent failures since the last success.
    consecutive: u32,
    /// When the breaker opened, if it is open.
    opened_at: Option<Instant>,
}

impl Breaker {
    /// Record a permanent failure. Returns `true` if this failure
    /// *trips* the breaker (closed → open edge).
    pub fn on_permanent_failure(&mut self, policy: &BreakerPolicy) -> bool {
        if policy.threshold == 0 {
            return false;
        }
        self.consecutive = self.consecutive.saturating_add(1);
        if self.opened_at.is_none() && self.consecutive >= policy.threshold {
            self.opened_at = Some(Instant::now());
            return true;
        }
        false
    }

    /// Record a completed job: closes the breaker and clears the streak.
    pub fn on_success(&mut self) {
        self.consecutive = 0;
        self.opened_at = None;
    }

    /// Whether admission should accept a new job from this tenant.
    /// An expired cooldown flips the breaker to half-open: the probe job
    /// is admitted, and only its outcome decides whether to re-trip.
    pub fn admits(&mut self, policy: &BreakerPolicy) -> bool {
        match self.opened_at {
            None => true,
            Some(t) if t.elapsed() >= policy.cooldown => {
                // Half-open: let one streak's worth of probes through —
                // re-arm the trip edge but keep the history clean so a
                // single new permanent failure re-opens immediately.
                self.opened_at = None;
                self.consecutive = policy.threshold.saturating_sub(1);
                true
            }
            Some(_) => false,
        }
    }

    /// Whether the breaker is currently open (ignoring cooldown expiry).
    #[must_use]
    pub fn is_open(&self) -> bool {
        self.opened_at.is_some()
    }
}

// ------------------------------------------------------------ fault plan

/// One armed worker-kill: panic the worker while it runs a job whose
/// name contains `name_contains`, up to `remaining` times.
#[derive(Debug, Clone)]
struct KillRule {
    name_contains: String,
    remaining: u32,
}

/// Injectable fault plan for tests. Cloning shares
/// the underlying plan (it is an `Arc` inside), so the handle stored in
/// `ServeConfig` and the one held by the test harness stay in sync.
///
/// A default (empty) plan injects nothing and costs one mutex probe per
/// slice boundary only when rules have ever been armed.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    inner: Arc<Mutex<FaultPlanInner>>,
}

#[derive(Debug, Default)]
struct FaultPlanInner {
    kills: Vec<KillRule>,
    /// Total kills injected so far (for test assertions).
    killed: u64,
}

impl FaultPlan {
    /// A plan with nothing armed.
    #[must_use]
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// Arm `times` worker kills against jobs whose name contains
    /// `name_contains`. The kill fires at a slice boundary as a panic in
    /// the worker thread — exactly the fault the respawn logic exists
    /// for.
    pub fn kill_worker_when(&self, name_contains: &str, times: u32) {
        let mut inner = self.inner.lock().expect("fault plan lock");
        inner.kills.push(KillRule {
            name_contains: name_contains.to_string(),
            remaining: times,
        });
    }

    /// Called by workers at slice boundaries: should the worker running
    /// a job named `job_name` be killed right now? Consumes one armed
    /// kill on `true`.
    #[must_use]
    pub fn should_kill(&self, job_name: &str) -> bool {
        let mut inner = self.inner.lock().expect("fault plan lock");
        for rule in &mut inner.kills {
            if rule.remaining > 0 && job_name.contains(&rule.name_contains) {
                rule.remaining -= 1;
                inner.killed += 1;
                return true;
            }
        }
        false
    }

    /// How many kills have fired so far.
    #[must_use]
    pub fn kills_fired(&self) -> u64 {
        self.inner.lock().expect("fault plan lock").killed
    }
}

/// The full breaker table for a daemon: tenant → state. Thin wrapper so
/// `Sched` can own it by value.
#[derive(Debug, Default)]
pub struct BreakerTable {
    map: BTreeMap<String, Breaker>,
}

impl BreakerTable {
    /// The breaker for `tenant`, created closed on first touch.
    pub fn entry(&mut self, tenant: &str) -> &mut Breaker {
        self.map.entry(tenant.to_string()).or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retry_policy_budget_and_backoff() {
        let p = RetryPolicy {
            max_retries: 2,
            base_backoff: Duration::from_millis(100),
        };
        assert!(p.allows(0) && p.allows(1));
        assert!(!p.allows(2), "budget of 2 means attempts 1 and 2 only");
        assert_eq!(p.backoff(1), Duration::from_millis(100));
        assert_eq!(p.backoff(2), Duration::from_millis(200));
        assert_eq!(p.backoff(3), Duration::from_millis(400));
        // Hostile attempt counts must not overflow.
        assert!(p.backoff(u32::MAX) >= p.backoff(17));
    }

    #[test]
    fn breaker_trips_on_consecutive_permanent_failures_only() {
        let policy = BreakerPolicy {
            threshold: 3,
            cooldown: Duration::from_secs(60),
        };
        let mut b = Breaker::default();
        assert!(!b.on_permanent_failure(&policy));
        assert!(!b.on_permanent_failure(&policy));
        b.on_success(); // streak broken
        assert!(!b.on_permanent_failure(&policy));
        assert!(!b.on_permanent_failure(&policy));
        assert!(b.on_permanent_failure(&policy), "third consecutive trips");
        assert!(b.is_open());
        assert!(!b.admits(&policy), "open breaker sheds admissions");
        // Further failures while open do not re-trip (no double-count).
        assert!(!b.on_permanent_failure(&policy));
    }

    #[test]
    fn breaker_half_opens_after_cooldown_and_retrips_on_one_failure() {
        let policy = BreakerPolicy {
            threshold: 2,
            cooldown: Duration::from_millis(0),
        };
        let mut b = Breaker::default();
        b.on_permanent_failure(&policy);
        assert!(b.on_permanent_failure(&policy), "trips at threshold");
        // Zero cooldown: immediately half-open.
        assert!(b.admits(&policy), "cooldown elapsed → probe admitted");
        assert!(!b.is_open());
        // One more permanent failure re-trips at once (half-open probe failed).
        assert!(b.on_permanent_failure(&policy), "probe failure re-trips");
        // A success instead would have closed it fully.
        b.on_success();
        assert!(b.admits(&policy));
        assert!(
            !b.on_permanent_failure(&policy),
            "full streak required again"
        );
    }

    #[test]
    fn zero_threshold_disables_the_breaker() {
        let policy = BreakerPolicy {
            threshold: 0,
            cooldown: Duration::from_secs(60),
        };
        let mut b = Breaker::default();
        for _ in 0..100 {
            assert!(!b.on_permanent_failure(&policy));
        }
        assert!(b.admits(&policy));
    }

    #[test]
    fn fault_plan_consumes_armed_kills() {
        let plan = FaultPlan::new();
        assert!(!plan.should_kill("victim-1"), "empty plan injects nothing");
        plan.kill_worker_when("victim", 2);
        assert!(!plan.should_kill("bystander"));
        assert!(plan.should_kill("victim-1"));
        assert!(plan.should_kill("victim-2"));
        assert!(!plan.should_kill("victim-3"), "budget exhausted");
        assert_eq!(plan.kills_fired(), 2);
        // Clones share state.
        let clone = plan.clone();
        clone.kill_worker_when("victim", 1);
        assert!(plan.should_kill("victim-4"));
        assert_eq!(clone.kills_fired(), 3);
    }
}
