//! Deterministic generator of quantifier-free SMT formulas over Int, Bool
//! and IntArray with EUF applications and functional array stores — the
//! input space of the solver-level oracles.
//!
//! Two dialects share one skeleton:
//!
//! * the **full** dialect exercises everything the DPLL(T) core supports in
//!   the quantifier-free fragment: array `sel`/`upd` chains, uninterpreted
//!   `f`/`g` applications, integer `ite`, and occasional i64-boundary
//!   constants (which must degrade to `Unknown(Overflow)`, never to a wrong
//!   verdict);
//! * the **enumerable** dialect restricts leaves to a handful of integer and
//!   boolean variables and small constants, so satisfiability over a small
//!   domain is decidable by exhaustive enumeration — the reference oracle
//!   for `Unsat` answers.

use pins_logic::{Sort, TermArena, TermId};

use crate::tape::Decisions;

/// Limits for one generated formula.
#[derive(Debug, Clone, Copy)]
pub struct FormulaConfig {
    /// Restrict to the exhaustively-enumerable fragment (no arrays, no EUF,
    /// no ite, constants in the enumeration domain).
    pub enumerable: bool,
    /// Maximum assertion count (at least 1 is always generated).
    pub max_asserts: u64,
    /// Maximum expression depth.
    pub max_depth: u32,
}

impl Default for FormulaConfig {
    fn default() -> Self {
        FormulaConfig {
            enumerable: false,
            max_asserts: 5,
            max_depth: 4,
        }
    }
}

/// A generated formula: the arena it lives in plus the asserted conjuncts
/// and the variable terms the enumeration oracle ranges over.
pub struct GenFormula {
    /// The arena owning every term below.
    pub arena: TermArena,
    /// The asserted boolean conjuncts.
    pub asserts: Vec<TermId>,
    /// Integer variable terms (version 0).
    pub int_vars: Vec<TermId>,
    /// Boolean variable terms (version 0).
    pub bool_vars: Vec<TermId>,
    /// Array variable terms (version 0); empty in the enumerable dialect.
    pub array_vars: Vec<TermId>,
}

/// Constants the enumerable dialect draws from; the enumeration domain in
/// [`crate::eval::enumerate_sat`] must cover at least this span plus slack.
pub const ENUM_CONSTS: [i64; 7] = [-3, -2, -1, 0, 1, 2, 3];

/// Extreme LIA constants occasionally injected by the full dialect.
const BOUNDARY_CONSTS: [i64; 6] = [
    i64::MAX,
    i64::MIN,
    i64::MAX - 1,
    i64::MIN + 1,
    1 << 40,
    -(1 << 40),
];

struct Gen<'d> {
    d: &'d mut Decisions,
    config: FormulaConfig,
    arena: TermArena,
    int_vars: Vec<TermId>,
    bool_vars: Vec<TermId>,
    array_vars: Vec<TermId>,
    funs: Vec<(pins_logic::Symbol, usize)>,
}

impl Gen<'_> {
    fn int_const(&mut self) -> i64 {
        if !self.config.enumerable && self.d.chance(1, 12) {
            *self.d.pick(&BOUNDARY_CONSTS)
        } else {
            *self.d.pick(&ENUM_CONSTS)
        }
    }

    fn int_term(&mut self, depth: u32) -> TermId {
        let leaf_only = depth == 0;
        let full = !self.config.enumerable;
        // 0..2 leaves; 2.. composites (skipped at depth 0)
        let n_kinds = if leaf_only {
            2
        } else if full {
            8
        } else {
            5
        };
        match self.d.choose(n_kinds) {
            0 => {
                let c = self.int_const();
                self.arena.mk_int(c)
            }
            1 => *self.d.pick(&self.int_vars.clone()),
            2 => {
                let a = self.int_term(depth - 1);
                let b = self.int_term(depth - 1);
                self.arena.mk_add(a, b)
            }
            3 => {
                let a = self.int_term(depth - 1);
                let b = self.int_term(depth - 1);
                self.arena.mk_sub(a, b)
            }
            4 => {
                // multiplication by a constant stays linear; the full
                // dialect occasionally multiplies two terms to exercise the
                // axiomatised nonlinear path
                let a = self.int_term(depth - 1);
                let b = if full && self.d.chance(1, 4) {
                    self.int_term(depth - 1)
                } else {
                    let c = self.int_const();
                    self.arena.mk_int(c)
                };
                self.arena.mk_mul(a, b)
            }
            5 => {
                let a = self.array_term(depth - 1);
                let i = self.int_term(depth - 1);
                self.arena.mk_sel(a, i)
            }
            6 => {
                if self.funs.is_empty() {
                    return *self.d.pick(&self.int_vars.clone());
                }
                let (f, arity) = *self.d.pick(&self.funs.clone());
                let args: Vec<TermId> = (0..arity).map(|_| self.int_term(depth - 1)).collect();
                self.arena.mk_app(f, args)
            }
            _ => {
                let c = self.bool_term(depth - 1);
                let t = self.int_term(depth - 1);
                let e = self.int_term(depth - 1);
                self.arena.mk_ite(c, t, e)
            }
        }
    }

    fn array_term(&mut self, depth: u32) -> TermId {
        if depth == 0 || self.d.chance(1, 2) {
            *self.d.pick(&self.array_vars.clone())
        } else {
            let a = self.array_term(depth - 1);
            let i = self.int_term(depth - 1);
            let v = self.int_term(depth - 1);
            self.arena.mk_upd(a, i, v)
        }
    }

    fn bool_term(&mut self, depth: u32) -> TermId {
        let leaf_only = depth == 0;
        let n_kinds = if leaf_only { 2 } else { 7 };
        match self.d.choose(n_kinds) {
            0 => {
                if self.bool_vars.is_empty() {
                    let b = self.d.chance(1, 2);
                    return self.arena.mk_bool(b);
                }
                *self.d.pick(&self.bool_vars.clone())
            }
            1 => {
                let b = self.d.chance(1, 2);
                self.arena.mk_bool(b)
            }
            2 | 3 => {
                let a = self.int_term(depth - 1);
                let b = self.int_term(depth - 1);
                match self.d.choose(3) {
                    0 => self.arena.mk_le(a, b),
                    1 => self.arena.mk_lt(a, b),
                    _ => self.arena.mk_eq(a, b),
                }
            }
            4 => {
                let a = self.bool_term(depth - 1);
                self.arena.mk_not(a)
            }
            _ => {
                let n = 2 + self.d.choose(2);
                let kids: Vec<TermId> = (0..n).map(|_| self.bool_term(depth - 1)).collect();
                if self.d.chance(1, 2) {
                    self.arena.mk_and(kids)
                } else {
                    self.arena.mk_or(kids)
                }
            }
        }
    }
}

/// Generates one formula from the decision stream.
pub fn gen_formula(d: &mut Decisions, config: FormulaConfig) -> GenFormula {
    let mut arena = TermArena::new();
    let n_ints = 1 + d.choose(3);
    let n_bools = d.choose(3);
    let int_vars: Vec<TermId> = (0..n_ints)
        .map(|i| {
            let s = arena.sym(&format!("x{i}"));
            arena.mk_var(s, 0, Sort::Int)
        })
        .collect();
    let bool_vars: Vec<TermId> = (0..n_bools)
        .map(|i| {
            let s = arena.sym(&format!("b{i}"));
            arena.mk_var(s, 0, Sort::Bool)
        })
        .collect();
    let mut array_vars = Vec::new();
    let mut funs = Vec::new();
    if !config.enumerable {
        let n_arrays = 1 + d.choose(2);
        for i in 0..n_arrays {
            let s = arena.sym(&format!("a{i}"));
            array_vars.push(arena.mk_var(s, 0, Sort::IntArray));
        }
        if d.chance(2, 3) {
            let f = arena.declare_fun("f", vec![Sort::Int], Sort::Int);
            funs.push((f, 1));
        }
        if d.chance(1, 2) {
            let g = arena.declare_fun("g", vec![Sort::Int, Sort::Int], Sort::Int);
            funs.push((g, 2));
        }
    }
    let mut gen = Gen {
        d,
        config,
        arena,
        int_vars,
        bool_vars,
        array_vars,
        funs,
    };
    let n_asserts = 1 + gen.d.choose(config.max_asserts);
    let asserts: Vec<TermId> = (0..n_asserts)
        .map(|_| {
            let depth = 1 + gen.d.choose(config.max_depth as u64) as u32;
            gen.bool_term(depth)
        })
        .collect();
    GenFormula {
        arena: gen.arena,
        asserts,
        int_vars: gen.int_vars,
        bool_vars: gen.bool_vars,
        array_vars: gen.array_vars,
    }
}

/// Runs `body` on a generator over `f`'s arena, variables and functions.
fn extend<T>(
    d: &mut Decisions,
    f: &mut GenFormula,
    config: FormulaConfig,
    body: impl FnOnce(&mut Gen) -> T,
) -> T {
    let mut funs: Vec<(pins_logic::Symbol, usize)> = f
        .arena
        .fun_decls()
        .map(|decl| (decl.name, decl.args.len()))
        .collect();
    funs.sort_unstable(); // declaration order is not stable; the tape is
    let mut gen = Gen {
        d,
        config,
        arena: std::mem::take(&mut f.arena),
        int_vars: f.int_vars.clone(),
        bool_vars: f.bool_vars.clone(),
        array_vars: f.array_vars.clone(),
        funs,
    };
    let out = body(&mut gen);
    f.arena = gen.arena;
    out
}

/// Generates one more boolean conjunct over `f`'s variables and functions,
/// in `f`'s arena — how oracles grow or perturb a formula they have solved.
pub fn gen_conjunct(d: &mut Decisions, f: &mut GenFormula, config: FormulaConfig) -> TermId {
    extend(d, f, config, |gen| {
        let depth = 1 + gen.d.choose(config.max_depth as u64) as u32;
        gen.bool_term(depth)
    })
}

/// Adds `n` fresh integer variables (SSA version 1, like a path's later
/// versions) to `f` and returns one defining equation `v = t` per variable.
/// Each `t` may read any variable, the fresh ones included, and half of
/// them add the next fresh variable, so definitions chain and often form
/// cycles.
pub fn gen_definitions(
    d: &mut Decisions,
    f: &mut GenFormula,
    config: FormulaConfig,
    n: usize,
) -> Vec<TermId> {
    let fresh: Vec<TermId> = (0..n)
        .map(|i| {
            let s = f.arena.sym(&format!("t{i}"));
            f.arena.mk_var(s, 1, Sort::Int)
        })
        .collect();
    f.int_vars.extend(&fresh);
    extend(d, f, config, |gen| {
        (0..n)
            .map(|i| {
                let depth = 1 + gen.d.choose(config.max_depth as u64) as u32;
                let mut t = gen.int_term(depth);
                if gen.d.chance(1, 2) {
                    t = gen.arena.mk_add(t, fresh[(i + 1) % n]);
                }
                gen.arena.mk_eq(fresh[i], t)
            })
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tape::Decisions;

    #[test]
    fn generation_is_deterministic_and_replayable() {
        for seed in 0..50u64 {
            let mut rec = Decisions::record(seed);
            let f1 = gen_formula(&mut rec, FormulaConfig::default());
            let tape = rec.tape();
            let mut rep = Decisions::replay(&tape);
            let f2 = gen_formula(&mut rep, FormulaConfig::default());
            assert_eq!(f1.asserts.len(), f2.asserts.len(), "seed {seed}");
            // term ids are deterministic under identical construction order
            assert_eq!(f1.asserts, f2.asserts, "seed {seed}");
            assert_eq!(f1.arena.len(), f2.arena.len(), "seed {seed}");
        }
    }

    #[test]
    fn enumerable_dialect_has_no_arrays_or_funs() {
        for seed in 0..50u64 {
            let mut d = Decisions::record(seed);
            let f = gen_formula(
                &mut d,
                FormulaConfig {
                    enumerable: true,
                    ..FormulaConfig::default()
                },
            );
            assert!(f.array_vars.is_empty());
            assert!(f.arena.fun_decls().next().is_none());
        }
    }
}
