//! Query provenance: *which synthesis decision* a solver event belongs to.
//!
//! The spans of PR 3 say how long each layer took; they cannot say that a
//! pathological `smt.query` was issued by `pickOne` in iteration 7 against
//! path 12. A [`ProvenanceCtx`] is the cheap answer: a shared handle the
//! engine mutates as the run moves through its phases, and that every
//! [`SmtSession`](../../pins_smt) reads when it opens a query span or bumps
//! a per-phase counter. The fields are
//! plain atomics behind one `Arc`, so updating the context costs a relaxed
//! store and reading it on a disabled-tracing hot path costs one relaxed
//! load — no allocation either way (the benchmark name is read only when a
//! recorder is installed).
//!
//! Fields carried: benchmark/program name, `pins.iteration` number, the
//! current [`Phase`], the path id being explored/verified, and the CEGIS
//! counterexample round.

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex};

/// The synthesis phase a query originates from. Mirrors the paper's Table 4
/// columns plus the validation subsystems.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Phase {
    /// Outside any instrumented phase.
    None = 0,
    /// Constraint verification inside `solve` (the paper's "SMT reduction").
    Solve = 1,
    /// The `pickOne` infeasibility-count heuristic.
    PickOne = 2,
    /// Symbolic execution (including its feasibility probes).
    Symexec = 3,
    /// Concrete test generation from explored paths (§2.5).
    TestGen = 4,
    /// Bounded model checking of a synthesized inverse.
    Bmc = 5,
    /// The finitized CEGIS baseline.
    Cegis = 6,
}

/// Every phase, in tag order (indexable by `phase as usize`).
pub const PHASES: [Phase; 7] = [
    Phase::None,
    Phase::Solve,
    Phase::PickOne,
    Phase::Symexec,
    Phase::TestGen,
    Phase::Bmc,
    Phase::Cegis,
];

impl Phase {
    /// The stable string tag used in span fields and counter names.
    pub fn as_str(self) -> &'static str {
        match self {
            Phase::None => "none",
            Phase::Solve => "solve",
            Phase::PickOne => "pickone",
            Phase::Symexec => "symexec",
            Phase::TestGen => "testgen",
            Phase::Bmc => "bmc",
            Phase::Cegis => "cegis",
        }
    }

    fn from_u8(v: u8) -> Phase {
        PHASES.get(v as usize).copied().unwrap_or(Phase::None)
    }
}

#[derive(Debug)]
struct ProvInner {
    /// Benchmark / program display name. Set once at run start, read only
    /// when a recorder is installed (taking this lock is off the disabled
    /// hot path).
    bench: Mutex<Arc<str>>,
    iteration: AtomicU64,
    phase: AtomicU8,
    /// Id of the path being explored or discharged (1-based; 0 = none).
    path: AtomicU64,
    /// CEGIS counterexample round (0 = not in CEGIS).
    cegis_round: AtomicU64,
}

/// A cheap shared provenance context. Cloning shares the fields: the engine
/// holds one handle and mutates it; sessions hold clones and read it at
/// query time.
#[derive(Debug, Clone)]
pub struct ProvenanceCtx {
    inner: Arc<ProvInner>,
}

impl Default for ProvenanceCtx {
    fn default() -> Self {
        ProvenanceCtx::new("")
    }
}

impl ProvenanceCtx {
    /// A fresh context for `benchmark` (the program or benchmark name).
    pub fn new(benchmark: &str) -> ProvenanceCtx {
        ProvenanceCtx {
            inner: Arc::new(ProvInner {
                bench: Mutex::new(Arc::from(benchmark)),
                iteration: AtomicU64::new(0),
                phase: AtomicU8::new(Phase::None as u8),
                path: AtomicU64::new(0),
                cegis_round: AtomicU64::new(0),
            }),
        }
    }

    /// Whether two handles share the same underlying context.
    pub fn same_ctx(&self, other: &ProvenanceCtx) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }

    /// Overwrites the benchmark name (takes a lock; call at run start, not
    /// on hot paths).
    pub fn set_benchmark(&self, name: &str) {
        *self.inner.bench.lock().unwrap() = Arc::from(name);
    }

    /// The benchmark name (cheap `Arc` clone under a short lock).
    pub fn benchmark(&self) -> Arc<str> {
        self.inner.bench.lock().unwrap().clone()
    }

    /// Sets the current `pins.iteration` number.
    pub fn set_iteration(&self, i: u64) {
        self.inner.iteration.store(i, Ordering::Relaxed);
    }

    /// The current iteration number.
    pub fn iteration(&self) -> u64 {
        self.inner.iteration.load(Ordering::Relaxed)
    }

    /// Sets the id of the path currently being explored or discharged
    /// (1-based; 0 means none).
    pub fn set_path(&self, id: u64) {
        self.inner.path.store(id, Ordering::Relaxed);
    }

    /// The current path id (0 = none).
    pub fn path(&self) -> u64 {
        self.inner.path.load(Ordering::Relaxed)
    }

    /// Sets the CEGIS counterexample round.
    pub fn set_cegis_round(&self, round: u64) {
        self.inner.cegis_round.store(round, Ordering::Relaxed);
    }

    /// The CEGIS counterexample round (0 = not in CEGIS).
    pub fn cegis_round(&self) -> u64 {
        self.inner.cegis_round.load(Ordering::Relaxed)
    }

    /// The current phase (one relaxed load).
    #[inline]
    pub fn phase(&self) -> Phase {
        Phase::from_u8(self.inner.phase.load(Ordering::Relaxed))
    }

    /// Enters `phase`, returning a guard that restores the previous phase on
    /// drop — phases nest like spans (`Solve` may briefly enter `PickOne`).
    #[must_use = "dropping the guard immediately restores the previous phase"]
    pub fn enter_phase(&self, phase: Phase) -> PhaseGuard {
        let prev = self.inner.phase.swap(phase as u8, Ordering::Relaxed);
        PhaseGuard {
            ctx: self.clone(),
            prev,
        }
    }
}

/// Restores the previous phase of a [`ProvenanceCtx`] on drop.
#[derive(Debug)]
pub struct PhaseGuard {
    ctx: ProvenanceCtx,
    prev: u8,
}

impl Drop for PhaseGuard {
    fn drop(&mut self) {
        self.ctx.inner.phase.store(self.prev, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_guards_nest_and_restore() {
        let ctx = ProvenanceCtx::new("bench");
        assert_eq!(ctx.phase(), Phase::None);
        {
            let _solve = ctx.enter_phase(Phase::Solve);
            assert_eq!(ctx.phase(), Phase::Solve);
            {
                let _pick = ctx.enter_phase(Phase::PickOne);
                assert_eq!(ctx.phase(), Phase::PickOne);
            }
            assert_eq!(ctx.phase(), Phase::Solve);
        }
        assert_eq!(ctx.phase(), Phase::None);
    }

    #[test]
    fn clones_share_every_field() {
        let ctx = ProvenanceCtx::new("a");
        let other = ctx.clone();
        assert!(ctx.same_ctx(&other));
        ctx.set_iteration(7);
        ctx.set_path(12);
        ctx.set_cegis_round(3);
        ctx.set_benchmark("b");
        assert_eq!(other.iteration(), 7);
        assert_eq!(other.path(), 12);
        assert_eq!(other.cegis_round(), 3);
        assert_eq!(&*other.benchmark(), "b");
    }

    #[test]
    fn phase_tags_are_distinct_and_stable() {
        let mut seen = std::collections::HashSet::new();
        for (i, p) in PHASES.iter().enumerate() {
            assert_eq!(*p as usize, i, "PHASES must be indexable by tag");
            assert!(seen.insert(p.as_str()), "duplicate phase tag");
        }
    }
}
