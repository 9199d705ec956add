//! Lock-free cooperative cancellation via a **generation counter**.
//!
//! An [`Interrupt`] is a shared atomic generation number. A driver (for
//! example one `crisp-serve` job) installs the handle on a [`GpuSim`]
//! together with the generation it observed at install time
//! ([`GpuSim::set_interrupt`]); anyone holding a clone may later
//! [`bump`](Interrupt::bump) the counter. The cycle loop polls the counter
//! every [`DEFAULT_INTERRUPT_INTERVAL`] cycles and —
//! on observing a generation other than the installed one — winds the run
//! down as [`SimError::Cancelled`], carrying the usual hang context
//! (partial result, diagnostic report, emergency checkpoint when a
//! checkpoint directory is configured).
//!
//! The idiom is deliberately coordination-free: cancelling never blocks on
//! the simulation, the simulation never blocks on the canceller, and a
//! stale job simply observes the bumped counter at its next boundary and
//! exits. Superseding a job is the same operation as cancelling it — bump
//! the counter and submit the replacement.
//!
//! [`GpuSim`]: crate::GpuSim
//! [`GpuSim::set_interrupt`]: crate::GpuSim::set_interrupt
//! [`DEFAULT_INTERRUPT_INTERVAL`]: crate::DEFAULT_INTERRUPT_INTERVAL
//! [`SimError::Cancelled`]: crate::SimError::Cancelled

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A shared, lock-free cancellation generation counter.
///
/// Clones share the counter. `Default` starts at generation 0.
///
/// ```
/// use crisp_sim::Interrupt;
/// let handle = Interrupt::new();
/// let observed = handle.generation(); // capture at install time
/// let canceller = handle.clone();
/// canceller.bump(); // from any thread, any time
/// assert_ne!(handle.generation(), observed);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Interrupt {
    generation: Arc<AtomicU64>,
}

impl Interrupt {
    /// A fresh counter at generation 0.
    #[must_use]
    pub fn new() -> Self {
        Interrupt::default()
    }

    /// The current generation.
    #[must_use]
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// Advance the generation, invalidating every run installed against an
    /// earlier one. Returns the new generation. Never blocks; bumping twice
    /// is harmless (cancellation is level-triggered: any generation other
    /// than the installed one cancels).
    pub fn bump(&self) -> u64 {
        self.generation.fetch_add(1, Ordering::AcqRel) + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clones_share_the_counter() {
        let a = Interrupt::new();
        let b = a.clone();
        assert_eq!(a.generation(), 0);
        assert_eq!(b.bump(), 1);
        assert_eq!(a.generation(), 1);
        assert_eq!(b.bump(), 2);
        assert_eq!(a.generation(), 2);
    }

    #[test]
    fn independent_counters_do_not_interfere() {
        let a = Interrupt::new();
        let b = Interrupt::new();
        a.bump();
        assert_eq!(b.generation(), 0);
    }
}
