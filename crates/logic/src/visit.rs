//! Generic traversal utilities: substitution, free-variable and subterm
//! collection.

use std::collections::{HashMap, HashSet};
use std::hash::BuildHasher;

use crate::{FxHashMap, FxHashSet};

use crate::sort::Sort;
use crate::symbol::Symbol;
use crate::term::{Term, TermArena, TermId, BOUND_VERSION};

/// A (symbol, version) pair identifying a free variable occurrence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VarKey {
    /// Variable name.
    pub sym: Symbol,
    /// SSA version.
    pub version: u32,
    /// Sort.
    pub sort: Sort,
}

impl TermArena {
    /// Rebuilds `t` with every key of `map` replaced by its value, bottom-up,
    /// re-normalising along the way. Replacement is applied to whole subterms
    /// (keys are arbitrary `TermId`s, typically variables or holes).
    ///
    /// Quantifier-bound variables have the [`BOUND_VERSION`] sentinel and
    /// fresh symbols, so maps keyed on program variables can never capture.
    pub fn substitute<S: BuildHasher>(
        &mut self,
        t: TermId,
        map: &HashMap<TermId, TermId, S>,
    ) -> TermId {
        let mut memo: FxHashMap<TermId, TermId> = FxHashMap::default();
        self.subst_rec(t, map, &mut memo)
    }

    fn subst_rec<S: BuildHasher>(
        &mut self,
        t: TermId,
        map: &HashMap<TermId, TermId, S>,
        memo: &mut FxHashMap<TermId, TermId>,
    ) -> TermId {
        if let Some(&r) = map.get(&t) {
            return r;
        }
        if let Some(&r) = memo.get(&t) {
            return r;
        }
        let result = match self.term(t).clone() {
            Term::IntConst(_) | Term::BoolConst(_) | Term::Var { .. } | Term::Hole(..) => t,
            Term::Add(a, b) => {
                let (a, b) = (self.subst_rec(a, map, memo), self.subst_rec(b, map, memo));
                self.mk_add(a, b)
            }
            Term::Sub(a, b) => {
                let (a, b) = (self.subst_rec(a, map, memo), self.subst_rec(b, map, memo));
                self.mk_sub(a, b)
            }
            Term::Mul(a, b) => {
                let (a, b) = (self.subst_rec(a, map, memo), self.subst_rec(b, map, memo));
                self.mk_mul(a, b)
            }
            Term::Sel(a, b) => {
                let (a, b) = (self.subst_rec(a, map, memo), self.subst_rec(b, map, memo));
                self.mk_sel(a, b)
            }
            Term::Upd(a, b, c) => {
                let a = self.subst_rec(a, map, memo);
                let b = self.subst_rec(b, map, memo);
                let c = self.subst_rec(c, map, memo);
                self.mk_upd(a, b, c)
            }
            Term::App(f, args) => {
                let args = args
                    .into_iter()
                    .map(|a| self.subst_rec(a, map, memo))
                    .collect();
                self.mk_app(f, args)
            }
            Term::Eq(a, b) => {
                let (a, b) = (self.subst_rec(a, map, memo), self.subst_rec(b, map, memo));
                self.mk_eq(a, b)
            }
            Term::Le(a, b) => {
                let (a, b) = (self.subst_rec(a, map, memo), self.subst_rec(b, map, memo));
                self.mk_le(a, b)
            }
            Term::Lt(a, b) => {
                let (a, b) = (self.subst_rec(a, map, memo), self.subst_rec(b, map, memo));
                self.mk_lt(a, b)
            }
            Term::Not(a) => {
                let a = self.subst_rec(a, map, memo);
                self.mk_not(a)
            }
            Term::And(kids) => {
                let kids = kids
                    .into_iter()
                    .map(|k| self.subst_rec(k, map, memo))
                    .collect();
                self.mk_and(kids)
            }
            Term::Or(kids) => {
                let kids = kids
                    .into_iter()
                    .map(|k| self.subst_rec(k, map, memo))
                    .collect();
                self.mk_or(kids)
            }
            Term::Ite(c, a, b) => {
                let c = self.subst_rec(c, map, memo);
                let a = self.subst_rec(a, map, memo);
                let b = self.subst_rec(b, map, memo);
                self.mk_ite(c, a, b)
            }
            Term::Forall(vars, body) => {
                let body = self.subst_rec(body, map, memo);
                self.mk_forall(vars, body)
            }
        };
        memo.insert(t, result);
        result
    }
}

/// Collects the free variables of `t` (bound variables are skipped).
pub fn collect_vars<S: BuildHasher>(arena: &TermArena, t: TermId, out: &mut HashSet<VarKey, S>) {
    let mut seen: FxHashSet<TermId> = FxHashSet::default();
    let mut stack = vec![t];
    while let Some(id) = stack.pop() {
        if !seen.insert(id) {
            continue;
        }
        if let Term::Var { sym, version, sort } = *arena.term(id) {
            if version != BOUND_VERSION {
                out.insert(VarKey { sym, version, sort });
            }
        }
        stack.extend(arena.children(id));
    }
}

/// Collects every application subterm of function `f` inside `t`.
pub fn collect_apps(arena: &TermArena, t: TermId, f: Symbol, out: &mut Vec<TermId>) {
    let mut seen: FxHashSet<TermId> = FxHashSet::default();
    let mut stack = vec![t];
    while let Some(id) = stack.pop() {
        if !seen.insert(id) {
            continue;
        }
        if let Term::App(g, _) = arena.term(id) {
            if *g == f {
                out.push(id);
            }
        }
        stack.extend(arena.children(id));
    }
}

/// Collects every subterm of `t` (including `t` itself), deduplicated.
pub fn collect_subterms<S: BuildHasher>(
    arena: &TermArena,
    t: TermId,
    out: &mut HashSet<TermId, S>,
) {
    let mut stack = vec![t];
    while let Some(id) = stack.pop() {
        if !out.insert(id) {
            continue;
        }
        stack.extend(arena.children(id));
    }
}
