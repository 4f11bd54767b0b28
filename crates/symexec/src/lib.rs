//! The PINS symbolic executor (Figure 3 of the paper).
//!
//! Programs may contain *unknowns* — expression and predicate holes — whose
//! evaluation is deferred: an unknown evaluated under version map `V` is
//! recorded as the pair `(hole, V)` inside the path condition, so the
//! condition retains enough history to interpret the unknown at any point
//! (§2.2). A *solution* (candidate assignment of holes) guides the path
//! search: assumptions are checked for satisfiability under the solution
//! with the SMT solver, and previously explored paths (the set `F`) are
//! avoided.
//!
//! # Example
//!
//! ```
//! use pins_ir::parse_program;
//! use pins_smt::{SmtConfig, SmtSession};
//! use pins_symexec::{Explorer, ExploreConfig, EmptyFiller, SymCtx};
//! use std::collections::HashSet;
//!
//! let p = parse_program(
//!     "proc f(in n: int, out s: int) {
//!        local i: int;
//!        i := 0; s := 0;
//!        while (i < n) { s, i := s + i, i + 1; }
//!      }",
//! ).unwrap();
//! let mut ctx = SymCtx::new(&p);
//! let feasibility = SmtSession::new(SmtConfig::default());
//! let mut explorer = Explorer::new(&p, ExploreConfig::default(), Some(feasibility));
//! let path = explorer
//!     .explore_one(&mut ctx, &EmptyFiller, &HashSet::new())
//!     .expect("some feasible path");
//! assert!(!path.conjuncts.is_empty());
//! ```

mod ctx;
mod explore;

pub use ctx::{sort_of, version_of, HoleKind, HoleOcc, SymCtx, VersionMap};
pub use explore::{
    apply_filler_term, EmptyFiller, ExploreConfig, Explorer, HoleFiller, MapFiller, PathResult,
    UnwindCut,
};

#[cfg(test)]
mod tests;
