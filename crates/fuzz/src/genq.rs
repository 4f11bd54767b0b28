//! Deterministic generator of quantified axioms over a small random
//! signature, with ground roots to instantiate them against — the input
//! space of the `ground` oracle.
//!
//! The signature has `Int`, one uninterpreted sort `U` and `IntArray`, plus
//! two to four uninterpreted functions of arity 1–2 over `Int` and `U`.
//! Ground roots are atoms over terms of depth at most 3; a quarter of them
//! carry a residual nested `forall`, whose body puts non-ground terms into
//! the universe. Each of the 1–3 axioms binds 1–2 variables of sort `Int`
//! or `U`; when no single application mentions all of them, trigger
//! selection needs two triggers.
//!
//! Axiom bodies keep to the fragment where syntactic matching and
//! substitution agree, so "the instantiated trigger is in the universe" is
//! an exact reference for "the trigger matches a universe term": below an
//! application, `sel` or `upd`, a bound variable only meets other
//! applications, `sel`/`upd` over array variables, and ground terms
//! (arithmetic over a bound variable would be re-normalized by
//! substitution, and a read over a write would fold).

use pins_logic::{Sort, Symbol, TermArena, TermId};

use crate::tape::Decisions;

/// A generated grounding problem.
pub struct GenAxioms {
    /// The arena owning every term below.
    pub arena: TermArena,
    /// Ground boolean roots (some with a nested `forall` inside).
    pub roots: Vec<TermId>,
    /// The quantified axioms, each a `Forall` term (or a constant, when
    /// the generated body folded away).
    pub axioms: Vec<TermId>,
}

struct QGen<'d> {
    d: &'d mut Decisions,
    arena: TermArena,
    u: Sort,
    /// Functions as `(symbol, argument sorts, result sort)`.
    funs: Vec<(Symbol, Vec<Sort>, Sort)>,
    ints: Vec<TermId>,
    us: Vec<TermId>,
    arrays: Vec<TermId>,
    /// Bound variables in scope while generating a quantifier body.
    bound: Vec<TermId>,
}

impl QGen<'_> {
    fn funs_returning(&self, sort: Sort) -> Vec<(Symbol, Vec<Sort>)> {
        self.funs
            .iter()
            .filter(|(_, _, ret)| *ret == sort)
            .map(|(f, args, _)| (*f, args.clone()))
            .collect()
    }

    /// An application returning `sort`, over pattern terms or ground terms.
    fn app(&mut self, sort: Sort, depth: u32, pattern: bool) -> Option<TermId> {
        let funs = self.funs_returning(sort);
        if funs.is_empty() {
            return None;
        }
        let (f, args) = self.d.pick(&funs).clone();
        let args: Vec<TermId> = args
            .into_iter()
            .map(|s| {
                if pattern {
                    self.pat(s, depth - 1)
                } else {
                    self.term(s, depth - 1)
                }
            })
            .collect();
        Some(self.arena.mk_app(f, args))
    }

    /// A pattern term of `sort`: a bound variable or a ground leaf, or,
    /// with depth left, an application, a read of an array variable or a
    /// write to one, over pattern terms.
    fn pat(&mut self, sort: Sort, depth: u32) -> TermId {
        if depth == 0 || self.d.chance(1, 4) {
            let bound: Vec<TermId> = self
                .bound
                .iter()
                .copied()
                .filter(|&b| self.arena.sort(b) == sort)
                .collect();
            if !bound.is_empty() && !self.d.chance(1, 4) {
                return *self.d.pick(&bound);
            }
            return self.leaf(sort);
        }
        self.pat_node(sort, depth)
    }

    /// A pattern term of `sort` with an application, `sel` or `upd` at its
    /// top whenever the signature has one (`depth` must be positive).
    fn pat_node(&mut self, sort: Sort, depth: u32) -> TermId {
        match sort {
            Sort::IntArray => {
                let a = *self.d.pick(&self.arrays.clone());
                let i = self.pat(Sort::Int, depth - 1);
                let v = self.pat(Sort::Int, depth - 1);
                self.arena.mk_upd(a, i, v)
            }
            Sort::Int if self.d.chance(1, 3) => {
                let a = *self.d.pick(&self.arrays.clone());
                let i = self.pat(Sort::Int, depth - 1);
                self.arena.mk_sel(a, i)
            }
            _ => match self.app(sort, depth, true) {
                Some(t) => t,
                None => self.pat(sort, 0),
            },
        }
    }

    /// A ground term of `sort`.
    fn term(&mut self, sort: Sort, depth: u32) -> TermId {
        if depth == 0 {
            return self.leaf(sort);
        }
        match sort {
            Sort::Int => match self.d.choose(5) {
                0 => self.leaf(sort),
                1 => self
                    .app(sort, depth, false)
                    .unwrap_or_else(|| self.leaf(sort)),
                2 => {
                    let a = self.term(Sort::IntArray, depth - 1);
                    let i = self.term(Sort::Int, depth - 1);
                    self.arena.mk_sel(a, i)
                }
                3 => {
                    let a = self.term(Sort::Int, depth - 1);
                    let b = self.term(Sort::Int, depth - 1);
                    self.arena.mk_add(a, b)
                }
                _ => {
                    let a = self.term(Sort::Int, depth - 1);
                    let b = self.leaf(Sort::Int);
                    self.arena.mk_sub(a, b)
                }
            },
            Sort::IntArray => {
                if self.d.chance(1, 3) {
                    return self.leaf(sort);
                }
                let a = self.term(Sort::IntArray, depth - 1);
                let i = self.term(Sort::Int, depth - 1);
                let v = self.term(Sort::Int, depth - 1);
                self.arena.mk_upd(a, i, v)
            }
            _ => {
                if self.d.chance(1, 3) {
                    return self.leaf(sort);
                }
                self.app(sort, depth, false)
                    .unwrap_or_else(|| self.leaf(sort))
            }
        }
    }

    fn leaf(&mut self, sort: Sort) -> TermId {
        match sort {
            Sort::Int => {
                if self.d.chance(1, 3) {
                    let c = self.d.int_in(0, 3);
                    self.arena.mk_int(c)
                } else {
                    *self.d.pick(&self.ints.clone())
                }
            }
            Sort::IntArray => *self.d.pick(&self.arrays.clone()),
            _ => *self.d.pick(&self.us.clone()),
        }
    }

    /// An atom over terms of depth at most `depth`; with `pattern`, its
    /// left side is a pattern term and its right side one half the time.
    fn atom(&mut self, depth: u32, pattern: bool) -> TermId {
        let sort = match self.d.choose(4) {
            0 | 1 => Sort::Int,
            2 => self.u,
            _ => Sort::IntArray,
        };
        let (a, b) = if pattern {
            let a = self.pat_node(sort, depth);
            let b = if self.d.chance(1, 2) {
                self.pat(sort, depth)
            } else {
                self.term(sort, depth - 1)
            };
            (a, b)
        } else {
            (self.term(sort, depth), self.term(sort, depth))
        };
        if sort == Sort::Int && self.d.chance(1, 2) {
            // arithmetic at the top of an atom is never a trigger
            if self.d.chance(1, 2) {
                let one = self.arena.mk_int(1);
                let a = self.arena.mk_add(a, one);
                return self.arena.mk_le(a, b);
            }
            return self.arena.mk_lt(a, b);
        }
        self.arena.mk_eq(a, b)
    }

    /// A quantifier body: a boolean combination of one to three pattern
    /// atoms.
    fn body(&mut self, depth: u32) -> TermId {
        let n = 1 + self.d.choose(3);
        let mut atoms: Vec<TermId> = (0..n).map(|_| self.atom(depth, true)).collect();
        if self.d.chance(1, 3) {
            atoms[0] = self.arena.mk_not(atoms[0]);
        }
        match self.d.choose(3) {
            0 => self.arena.mk_and(atoms),
            1 => self.arena.mk_or(atoms),
            _ => {
                let last = atoms.pop().expect("one atom at least");
                let hyp = self.arena.mk_and(atoms);
                self.arena.mk_implies(hyp, last)
            }
        }
    }

    /// A quantifier over one or two fresh bound variables of sort `Int` or
    /// `U`, named from `prefix` (axioms reuse names, so they share bound
    /// variable terms, as the suite's do).
    fn forall(&mut self, prefix: &str, max_vars: u64, depth: u32) -> TermId {
        let n = 1 + self.d.choose(max_vars);
        let mut decls = Vec::new();
        let outer = std::mem::take(&mut self.bound);
        // a sort some function takes, so the variable can sit under an
        // application (`Int` always can, as an array index)
        let mut sorts: Vec<Sort> = self
            .funs
            .iter()
            .flat_map(|(_, args, _)| args.iter().copied())
            .collect();
        sorts.push(Sort::Int);
        for i in 0..n {
            let sort = *self.d.pick(&sorts);
            let sym = self.arena.sym(&format!("{prefix}{i}"));
            decls.push((sym, sort));
            self.bound.push(self.arena.mk_bound(sym, sort));
        }
        let body = self.body(depth);
        self.bound = outer;
        self.arena.mk_forall(decls, body)
    }
}

/// Generates one grounding problem from the decision stream.
pub fn gen_axioms(d: &mut Decisions) -> GenAxioms {
    let mut arena = TermArena::new();
    let u = Sort::Unint(arena.sym("U"));
    let mk_vars = |arena: &mut TermArena, prefix: &str, n: u64, sort: Sort| -> Vec<TermId> {
        (0..n)
            .map(|i| {
                let s = arena.sym(&format!("{prefix}{i}"));
                arena.mk_var(s, 0, sort)
            })
            .collect()
    };
    let ints = mk_vars(&mut arena, "i", 1 + d.choose(2), Sort::Int);
    let us = mk_vars(&mut arena, "u", 1 + d.choose(2), u);
    let arrays = mk_vars(&mut arena, "a", 1 + d.choose(2), Sort::IntArray);
    let n_funs = 2 + d.choose(3);
    let mut funs = Vec::new();
    for i in 0..n_funs {
        let arity = 1 + d.choose(2) as usize;
        let sort = |d: &mut Decisions| if d.chance(1, 2) { Sort::Int } else { u };
        let args: Vec<Sort> = (0..arity).map(|_| sort(d)).collect();
        let ret = sort(d);
        let f = arena.declare_fun(&format!("f{i}"), args.clone(), ret);
        funs.push((f, args, ret));
    }
    let mut gen = QGen {
        d,
        arena,
        u,
        funs,
        ints,
        us,
        arrays,
        bound: Vec::new(),
    };
    let n_roots = 1 + gen.d.choose(3);
    let roots: Vec<TermId> = (0..n_roots)
        .map(|_| {
            let depth = 1 + gen.d.choose(3) as u32;
            let atom = gen.atom(depth, false);
            if gen.d.chance(1, 4) {
                let nested = gen.forall("y", 1, 2);
                gen.arena.mk_or(vec![atom, nested])
            } else {
                atom
            }
        })
        .collect();
    let n_axioms = 1 + gen.d.choose(3);
    let axioms: Vec<TermId> = (0..n_axioms)
        .map(|_| {
            let depth = 1 + gen.d.choose(2) as u32;
            gen.forall("x", 2, depth)
        })
        .collect();
    GenAxioms {
        arena: gen.arena,
        roots,
        axioms,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_and_replayable() {
        for seed in 0..50u64 {
            let mut rec = Decisions::record(seed);
            let a = gen_axioms(&mut rec);
            let tape = rec.tape();
            let mut rep = Decisions::replay(&tape);
            let b = gen_axioms(&mut rep);
            assert_eq!(a.roots, b.roots, "seed {seed}");
            assert_eq!(a.axioms, b.axioms, "seed {seed}");
            assert_eq!(a.arena.len(), b.arena.len(), "seed {seed}");
        }
    }
}
