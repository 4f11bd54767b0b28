//! A CDCL SAT solver: the propositional back-end of the PINS `solve`
//! procedure.
//!
//! The paper's constraint-solving step reduces synthesis constraints to SAT
//! over boolean *indicator variables* that choose candidate expressions and
//! predicates for each template hole; those SAT instances are reported to be
//! small (Table 2's `|SAT|` column). This crate provides the solver: standard
//! conflict-driven clause learning with two-watched-literal propagation,
//! first-UIP learning with clause minimisation, VSIDS decision heuristics with
//! phase saving, Luby restarts, learned-clause database reduction, and
//! incremental solving under assumptions (used for model enumeration via
//! blocking clauses).
//!
//! # Example
//!
//! ```
//! use pins_sat::{Solver, Lit, SolveResult};
//!
//! let mut s = Solver::new();
//! let a = s.new_var();
//! let b = s.new_var();
//! s.add_clause(&[Lit::pos(a), Lit::pos(b)]);
//! s.add_clause(&[Lit::neg(a)]);
//! assert_eq!(s.solve(), SolveResult::Sat);
//! assert_eq!(s.value(b), Some(true));
//! ```

mod heap;
mod solver;

pub use solver::{Lit, SolveResult, Solver, Theory, TheoryConflict, Var};

#[cfg(test)]
mod tests;
