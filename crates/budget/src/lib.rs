//! Shared work budgets for the solver stack.
//!
//! A [`Budget`] is a cheaply cloneable handle combining a wall-clock
//! deadline, a step (work-unit) limit, and a cooperative cancellation flag.
//! Every long-running loop in the stack — CDCL conflicts, simplex pivots,
//! branch-and-bound nodes, e-matching rounds, path exploration — charges
//! steps against the budget and polls [`Budget::check`] at loop heads, so a
//! runaway query stops with a machine-readable [`StopReason`] instead of
//! hanging until an outer, coarser check notices.
//!
//! Budgets form a tree: [`Budget::child`] layers a tighter per-query limit
//! over a shared engine-wide budget. Charges propagate to ancestors, and a
//! stop anywhere on the ancestor chain stops the child, so cancelling the
//! root cancels every in-flight query that was derived from it.

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Why work was stopped before reaching a definitive verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StopReason {
    /// The wall-clock deadline passed.
    Deadline,
    /// [`Budget::cancel`] was called (by a user, a sibling, or a supervisor).
    Cancelled,
    /// The step limit (conflicts/pivots/rounds/instances) was exhausted.
    StepLimit,
    /// Arithmetic left the exactly-representable range (LIA rational
    /// overflow). Produced by the theory layer, never by `Budget` itself.
    Overflow,
}

impl fmt::Display for StopReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StopReason::Deadline => write!(f, "deadline"),
            StopReason::Cancelled => write!(f, "cancelled"),
            StopReason::StepLimit => write!(f, "step limit"),
            StopReason::Overflow => write!(f, "overflow"),
        }
    }
}

struct Inner {
    /// Absolute deadline, if any.
    deadline: Option<Instant>,
    /// The earliest deadline on the chain from this budget to the root:
    /// the one instant [`Budget::check`] compares the clock against.
    earliest: Option<Instant>,
    /// Step allowance; `u64::MAX` means unlimited.
    step_limit: u64,
    cancelled: AtomicBool,
    steps: AtomicU64,
    /// Enclosing budget; charges propagate up and stops propagate down.
    parent: Option<Budget>,
}

/// A shared, cloneable work budget. See the crate docs.
///
/// Cloning shares state: a clone observes (and contributes to) the same
/// step counter and cancel flag. Use [`Budget::child`] for an independent
/// sub-allowance.
#[derive(Clone)]
pub struct Budget {
    inner: Arc<Inner>,
}

impl Budget {
    /// A budget that never stops on its own (it can still be cancelled).
    pub fn unlimited() -> Budget {
        Budget::with_limits(None, None)
    }

    /// A budget with a wall-clock deadline `d` from now.
    pub fn with_deadline(d: Duration) -> Budget {
        Budget::with_limits(Some(d), None)
    }

    /// A budget with an optional wall-clock limit and an optional step limit.
    pub fn with_limits(time: Option<Duration>, steps: Option<u64>) -> Budget {
        let deadline = time.map(|d| Instant::now() + d);
        Budget {
            inner: Arc::new(Inner {
                deadline,
                earliest: deadline,
                step_limit: steps.unwrap_or(u64::MAX),
                cancelled: AtomicBool::new(false),
                steps: AtomicU64::new(0),
                parent: None,
            }),
        }
    }

    /// A sub-budget with its own (tighter) limits layered over `self`.
    /// Charges against the child also charge `self`, and the child stops as
    /// soon as either its own limits or any ancestor's are exhausted.
    pub fn child(&self, time: Option<Duration>, steps: Option<u64>) -> Budget {
        let deadline = time.map(|d| Instant::now() + d);
        let earliest = match (deadline, self.inner.earliest) {
            (Some(mine), Some(theirs)) => Some(mine.min(theirs)),
            (mine, theirs) => mine.or(theirs),
        };
        Budget {
            inner: Arc::new(Inner {
                deadline,
                earliest,
                step_limit: steps.unwrap_or(u64::MAX),
                cancelled: AtomicBool::new(false),
                steps: AtomicU64::new(0),
                parent: Some(self.clone()),
            }),
        }
    }

    /// Requests cooperative cancellation of this budget and its descendants.
    pub fn cancel(&self) {
        self.inner.cancelled.store(true, Ordering::Relaxed);
    }

    /// Whether `cancel` was called on this budget (not ancestors).
    pub fn is_cancelled(&self) -> bool {
        self.inner.cancelled.load(Ordering::Relaxed)
    }

    /// Records `n` units of work and reports whether the budget (or any
    /// ancestor) is now exhausted.
    pub fn charge(&self, n: u64) -> Result<(), StopReason> {
        self.inner.steps.fetch_add(n, Ordering::Relaxed);
        if let Some(parent) = &self.inner.parent {
            parent.inner.steps.fetch_add(n, Ordering::Relaxed);
        }
        self.check()
    }

    /// Polls the budget without charging work: cancellation and step
    /// limits along the ancestor chain first, then one clock read against
    /// the earliest deadline on the chain.
    pub fn check(&self) -> Result<(), StopReason> {
        let mut b = self;
        loop {
            let inner = &b.inner;
            if inner.cancelled.load(Ordering::Relaxed) {
                return Err(StopReason::Cancelled);
            }
            if inner.steps.load(Ordering::Relaxed) >= inner.step_limit {
                return Err(StopReason::StepLimit);
            }
            match &inner.parent {
                Some(parent) => b = parent,
                None => break,
            }
        }
        match self.inner.earliest {
            Some(deadline) if Instant::now() >= deadline => Err(StopReason::Deadline),
            _ => Ok(()),
        }
    }

    /// Convenience: the stop reason if exhausted, else `None`.
    pub fn stopped(&self) -> Option<StopReason> {
        self.check().err()
    }

    /// Total steps charged so far (this budget only, not ancestors).
    pub fn steps(&self) -> u64 {
        self.inner.steps.load(Ordering::Relaxed)
    }

    /// Remaining wall-clock time, if a deadline is set.
    pub fn time_left(&self) -> Option<Duration> {
        self.inner
            .deadline
            .map(|d| d.saturating_duration_since(Instant::now()))
    }

    /// Remaining step allowance (this budget only), if a step limit is set.
    pub fn steps_left(&self) -> Option<u64> {
        if self.inner.step_limit == u64::MAX {
            None
        } else {
            Some(self.inner.step_limit.saturating_sub(self.steps()))
        }
    }
}

impl Default for Budget {
    fn default() -> Budget {
        Budget::unlimited()
    }
}

impl fmt::Debug for Budget {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Budget")
            .field("deadline", &self.inner.deadline)
            .field("step_limit", &self.inner.step_limit)
            .field("steps", &self.steps())
            .field("cancelled", &self.is_cancelled())
            .field("has_parent", &self.inner.parent.is_some())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_never_stops() {
        let b = Budget::unlimited();
        assert_eq!(b.charge(1_000_000), Ok(()));
        assert_eq!(b.check(), Ok(()));
        assert_eq!(b.stopped(), None);
    }

    #[test]
    fn step_limit_trips() {
        let b = Budget::with_limits(None, Some(10));
        assert_eq!(b.charge(9), Ok(()));
        assert_eq!(b.charge(1), Err(StopReason::StepLimit));
        assert_eq!(b.check(), Err(StopReason::StepLimit));
    }

    #[test]
    fn cancellation_is_shared_across_clones() {
        let b = Budget::unlimited();
        let c = b.clone();
        b.cancel();
        assert_eq!(c.check(), Err(StopReason::Cancelled));
    }

    #[test]
    fn deadline_trips() {
        let b = Budget::with_deadline(Duration::from_millis(0));
        std::thread::sleep(Duration::from_millis(1));
        assert_eq!(b.check(), Err(StopReason::Deadline));
    }

    #[test]
    fn child_charges_propagate_to_parent() {
        let parent = Budget::with_limits(None, Some(10));
        let child = parent.child(None, Some(100));
        assert_eq!(child.charge(9), Ok(()));
        // the child's own limit is far away, but the parent's is exhausted
        assert_eq!(child.charge(1), Err(StopReason::StepLimit));
        assert_eq!(parent.steps(), 10);
    }

    #[test]
    fn child_limit_tighter_than_parent() {
        let parent = Budget::unlimited();
        let child = parent.child(None, Some(5));
        assert_eq!(child.charge(5), Err(StopReason::StepLimit));
        assert_eq!(parent.check(), Ok(()));
    }

    #[test]
    fn cancelling_parent_stops_child() {
        let parent = Budget::unlimited();
        let child = parent.child(None, None);
        parent.cancel();
        assert_eq!(child.check(), Err(StopReason::Cancelled));
        assert!(!child.is_cancelled(), "cancel flag lives on the parent");
    }

    #[test]
    fn child_stops_at_the_earlier_of_its_deadline_and_its_parents() {
        let hour = Duration::from_secs(3600);
        let parent = Budget::with_deadline(Duration::from_millis(0));
        let child = parent.child(Some(hour), None);
        let tight = Budget::with_deadline(hour).child(Some(Duration::from_millis(0)), None);
        let grandchild = child.child(None, None);
        std::thread::sleep(Duration::from_millis(1));
        assert_eq!(child.check(), Err(StopReason::Deadline));
        assert_eq!(grandchild.check(), Err(StopReason::Deadline));
        assert_eq!(tight.check(), Err(StopReason::Deadline));
        // the child's own allowance keeps its meaning
        assert!(child.time_left().unwrap() > Duration::from_secs(3000));
        let roomy = Budget::with_deadline(hour).child(Some(hour), None);
        assert_eq!(roomy.check(), Ok(()));
    }

    #[test]
    fn cancel_beats_other_reasons() {
        let b = Budget::with_limits(None, Some(1));
        let _ = b.charge(5);
        b.cancel();
        assert_eq!(b.check(), Err(StopReason::Cancelled));
    }

    #[test]
    fn stop_reason_display() {
        assert_eq!(StopReason::Deadline.to_string(), "deadline");
        assert_eq!(StopReason::Overflow.to_string(), "overflow");
    }
}
