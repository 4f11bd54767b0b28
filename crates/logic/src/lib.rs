//! Logic substrate for PINS: sorts, symbols, and hash-consed terms.
//!
//! Every formula that flows between the symbolic executor, the PINS engine
//! and the SMT solver is a [`TermId`] into a shared [`TermArena`]. The arena
//! interns structurally-equal terms, performs light normalisation at
//! construction (constant folding, neutral elements, flattening of `and`/`or`)
//! and records the [`Sort`] of every term.
//!
//! # Example
//!
//! ```
//! use pins_logic::{TermArena, Sort};
//!
//! let mut arena = TermArena::new();
//! let x = arena.sym("x");
//! let vx = arena.mk_var(x, 0, Sort::Int);
//! let one = arena.mk_int(1);
//! let sum = arena.mk_add(vx, one);
//! let zero = arena.mk_int(0);
//! let sum2 = arena.mk_add(sum, zero); // normalised: adding 0 is the identity
//! assert_eq!(sum, sum2);
//! assert_eq!(arena.sort(sum), Sort::Int);
//! ```

mod hash;
mod print;
mod sort;
mod symbol;
mod term;
mod visit;

pub use hash::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use print::TermDisplay;
pub use sort::Sort;
pub use symbol::{Symbol, SymbolTable};
pub use term::{FunDecl, Term, TermArena, TermId, BOUND_VERSION};
pub use visit::{collect_apps, collect_subterms, collect_vars, VarKey};

#[cfg(test)]
mod tests;
