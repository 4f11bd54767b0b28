//! An SMT solver for PINS: the stand-in for Z3.
//!
//! The paper's engine issues three kinds of queries, all supported here:
//!
//! 1. **feasibility** of a path condition during solution-guided symbolic
//!    execution (Rule ASSUME of Figure 3);
//! 2. **validity** of safety/termination constraints under a candidate
//!    solution (the SMT-reduction inside `solve`);
//! 3. **model extraction** to emit concrete test inputs for explored paths
//!    (Section 2.5).
//!
//! Architecture: a lazy DPLL(T) loop over the CDCL solver from
//! [`pins_sat`]. Theory reasoning combines congruence closure
//! ([`Euf`]), a Dutertre–de Moura simplex with branch-and-bound for
//! linear integer arithmetic ([`Lia`]), array read-over-write
//! lemmas on demand, integer disequality splitting, and model-based theory
//! combination. Quantified library axioms — the paper's mechanism for
//! modular synthesis over external functions — are grounded by
//! trigger-based instantiation ([`instantiate`]).
//!
//! `Unsat` answers are always sound (instantiation only helps refutation);
//! `Sat` answers carry a [`Model`] whose `complete` flag records whether a
//! budget was hit.
//!
//! The public entry point is the incremental [`SmtSession`]: persistent
//! assertions with `push`/`pop` scopes, assumption-based checks, and a
//! process-wide normalized-query cache (see [`session`] for the design).
//! Sessions bind their counters into a shared
//! [`MetricsRegistry`](pins_trace::MetricsRegistry) via
//! [`SmtSession::bind_metrics`], and each solve is traced as an `smt.query`
//! span when a [`pins_trace`] recorder is installed.
//!
//! # Example
//!
//! ```
//! use pins_logic::{TermArena, Sort};
//! use pins_smt::{SmtConfig, SmtResult, SmtSession};
//!
//! let mut arena = TermArena::new();
//! let x = arena.sym("x");
//! let vx = arena.mk_var(x, 0, Sort::Int);
//! let two = arena.mk_int(2);
//! let five = arena.mk_int(5);
//! let lo = arena.mk_lt(two, vx);    // 2 < x
//! let hi = arena.mk_lt(vx, five);   // x < 5
//!
//! let mut session = SmtSession::new(SmtConfig::default());
//! session.assert(lo);               // persists across checks
//! match session.check_under(&mut arena, &[hi]) {
//!     SmtResult::Sat(model) => {
//!         let v = model.ints[&vx];
//!         assert!(v > 2 && v < 5);
//!     }
//!     _ => panic!("expected sat"),
//! }
//! // the session still holds `2 < x`; the assumption did not leak
//! assert_eq!(session.assertions(), &[lo]);
//! ```

mod ematch;
mod euf;
mod inst;
mod linear;
mod model;
mod prep;
mod rational;
pub mod session;
mod simplex;
mod solver;
mod theory;
mod trigger;

pub use ematch::{ematch_round, EmatchConfig};
pub use euf::Euf;
pub use inst::{instantiate, InstConfig, InstOutcome};
pub use linear::{linearize, LinExpr};
pub use model::{Definitions, Model, Witness};
pub use prep::{preprocess, Prepped};
pub use rational::Rat;
pub use session::{
    global_cache, CacheEntry, CachedCore, CoreMember, CoreSlot, MissCause, QueryCache,
    SessionStats, SmtSession, UnsatCore, Verdict, NEAR_MISS_DELTA,
};
pub use simplex::Lia;
pub use solver::{Smt, SmtConfig, SmtResult, SmtStats, TrackedCore};
pub use trigger::CompiledAxioms;

#[cfg(test)]
mod tests;
