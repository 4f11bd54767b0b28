//! The PINS synthesis engine — Algorithm 1 of the paper.
//!
//! Given a [`Session`] (the original program composed with an inverse
//! template, candidate sets Δe/Δp, an identity [`Spec`], and library
//! axioms), [`Pins::run`] iteratively:
//!
//! 1. solves the constraint system for up to `m` candidate solutions
//!    ([`HoleSolver`], an indicator-variable SAT reduction verified by SMT);
//! 2. stops when the solution set stabilizes below `m`;
//! 3. otherwise picks a solution by the `infeasible`-count heuristic
//!    (`pickOne`), symbolically executes one fresh path guided by it, and
//!    adds the path's `safepath` and invariant-`init` constraints.
//!
//! Termination constraints (`bounded`/`decrease` with ranking functions
//! derived from Δp) are generated up front for every template loop.
//!
//! # Example
//!
//! Synthesizing the inverse of a "add constant 7" program:
//!
//! ```
//! use pins_core::{Pins, PinsConfig, Session, Spec, SpecItem};
//! use pins_ir::parse_expr_in;
//!
//! let mut session = Session::from_sources(
//!     "proc add7(in x: int, out y: int) { y := x + 7; }",
//!     "proc add7_inv(in y: int, out xI: int) { xI := ?e1; }",
//! );
//! let c = session.composed.clone();
//! session.expr_candidates = vec![
//!     parse_expr_in(&c, "y + 7").unwrap(),
//!     parse_expr_in(&c, "y - 7").unwrap(),
//! ];
//! session.spec = Spec {
//!     items: vec![SpecItem::IntEq {
//!         input: c.var_by_name("x").unwrap(),
//!         output: c.var_by_name("xI").unwrap(),
//!     }],
//! };
//! let outcome = Pins::new(PinsConfig::default()).run(&mut session).unwrap();
//! assert_eq!(outcome.solutions.len(), 1);
//! ```

mod constraints;
mod domains;
mod engine;
mod session;
mod solve;

pub use constraints::{
    init_constraints, safepath_constraint, terminate_constraints, Constraint, ConstraintLabel,
    HoleSet, SliceStats, Slicer,
};
pub use domains::{
    build_domains, derive_rank_candidates, ehole_types, expr_vars, pred_subset_candidates,
    type_of_expr, DomainConfig, HoleDomains,
};
pub use engine::{
    resolve_solution, ConcreteTest, Pins, PinsConfig, PinsError, PinsOutcome, PinsStats,
    ResolvedSolution,
};
pub use session::{AxiomDef, Session, Spec, SpecItem};
pub use solve::{HoleSolver, Solution, SolveStats};

#[cfg(test)]
mod tests;
