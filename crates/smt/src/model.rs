//! Satisfying assignments extracted from the solver, and the one term
//! evaluator over them.
//!
//! A [`Model`] is what a `Sat` answer carries. PINS reads it twice:
//! concrete-test generation (Section 2.5 of the paper) reads input values
//! through [`Model::eval_int`], and `solve` replays a stored countermodel on
//! a new candidate's constraint through [`Witness::refutes`]. Both go
//! through [`Witness`], which turns a model into one concrete first-order
//! interpretation and evaluates terms under it.

use std::collections::BTreeMap;
use std::rc::Rc;

use pins_logic::{FxHashMap, FxHashSet, Sort, Symbol, Term, TermArena, TermId, BOUND_VERSION};

/// A first-order model over the terms that occurred in the checked formula.
#[derive(Debug, Clone, Default)]
pub struct Model {
    /// Whether the answer is exact. `false` when quantifier instantiation or
    /// branch-and-bound budgets were hit: the assignment satisfies the
    /// grounded approximation only.
    pub complete: bool,
    /// Values of integer-sorted terms (opaque LIA atoms and constants).
    pub ints: FxHashMap<TermId, i64>,
    /// Truth values of boolean atoms.
    pub bools: FxHashMap<TermId, bool>,
    /// Per array-class representative: known (index, element) pairs.
    pub arrays: FxHashMap<TermId, Vec<(i64, i64)>>,
    /// Uninterpreted-sort terms mapped to their class identifier.
    pub unints: FxHashMap<TermId, u64>,
}

impl Model {
    /// The integer value of `t` under this model's [`Witness`]: variables
    /// read their model value (0 when the model has none), arrays read 0
    /// outside their stored cells. A value the witness cannot determine (an
    /// `i64` overflow, an uninterpreted application or sort) reads 0.
    pub fn eval_int(&self, arena: &TermArena, t: TermId) -> i64 {
        Witness::new(arena, self, &Definitions::default())
            .int(t)
            .unwrap_or(0)
    }
}

/// The variables a set of hypotheses defines: a top-level conjunct `v = t`
/// (either orientation) whose variable `v` does not occur in `t` makes `v`
/// a defined variable, computed forward from `t` instead of read from a
/// model. The first definition of a variable wins; later ones stay plain
/// hypotheses. When both sides qualify, the later SSA version is defined.
#[derive(Debug, Clone, Default)]
pub struct Definitions {
    defs: FxHashMap<TermId, TermId>,
}

impl Definitions {
    /// Collects the definitions among `hyps` (top-level `And`s flattened).
    pub fn of(arena: &TermArena, hyps: &[TermId]) -> Definitions {
        let mut defs = FxHashMap::default();
        let mut stack: Vec<TermId> = hyps.iter().rev().copied().collect();
        while let Some(h) = stack.pop() {
            match arena.term(h) {
                Term::And(kids) => stack.extend(kids.iter().rev()),
                Term::Eq(a, b) => {
                    let (a, b) = (*a, *b);
                    let sides = if free_version(arena, b) > free_version(arena, a) {
                        [(b, a), (a, b)]
                    } else {
                        [(a, b), (b, a)]
                    };
                    for (v, t) in sides {
                        if free_version(arena, v).is_some()
                            && !defs.contains_key(&v)
                            && !occurs(arena, v, t)
                        {
                            defs.insert(v, t);
                            break;
                        }
                    }
                }
                _ => {}
            }
        }
        Definitions { defs }
    }
}

/// The SSA version of a free (not quantifier-bound) variable.
fn free_version(arena: &TermArena, t: TermId) -> Option<u32> {
    match arena.term(t) {
        Term::Var { version, .. } if *version != BOUND_VERSION => Some(*version),
        _ => None,
    }
}

/// Whether `v` occurs in `t`.
fn occurs(arena: &TermArena, v: TermId, t: TermId) -> bool {
    let mut seen = FxHashSet::default();
    let mut stack = vec![t];
    while let Some(x) = stack.pop() {
        if x == v {
            return true;
        }
        if seen.insert(x) {
            stack.extend(arena.children(x));
        }
    }
    false
}

/// A value of the witness interpretation.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum Val {
    Int(i64),
    Bool(bool),
    /// An integer array: its non-zero cells; every other cell reads 0. Zero
    /// cells are never stored, so equal arrays have equal maps.
    Arr(Rc<BTreeMap<i64, i64>>),
}

/// One concrete interpretation of a formula's free symbols, built from a
/// [`Model`]:
///
/// * a free variable takes its model value, or 0 (`false`, the all-zero
///   array) when the model has none — unless a hypothesis defines it
///   ([`Definitions`]), in which case it is computed forward;
/// * an array takes the model's cells, with 0 elsewhere;
/// * arithmetic is checked `i64`;
/// * a `∀` over integers is only ever falsified, by a value from a finite
///   pool (0 and every index at which an array stores a cell); it is never
///   concluded true.
///
/// Anything else — an overflow, a definition cycle, an uninterpreted
/// application, a value of an uninterpreted sort, a hole — is
/// undetermined, and so is every term that depends on it. Evaluation is
/// three-valued, so an undetermined operand only matters where it could
/// change the result.
///
/// Every determined value is the value under one fixed interpretation, so
/// a witness under which some hypotheses hold and a goal fails shows that
/// the hypotheses do not entail the goal — when no axioms are in scope: a
/// concrete witness cannot be checked against quantified library facts.
pub struct Witness<'a> {
    arena: &'a TermArena,
    model: &'a Model,
    defs: &'a Definitions,
    /// Values of closed terms computed so far (`None`: undetermined).
    memo: FxHashMap<TermId, Option<Val>>,
    /// Defined variables whose definition is being evaluated; meeting one
    /// again is a definition cycle.
    active: FxHashSet<TermId>,
    /// Values of the quantifier-bound variables in scope, innermost last.
    bound: Vec<(Symbol, i64)>,
}

impl<'a> Witness<'a> {
    /// The witness `model` induces, with the variables `defs` defines
    /// computed forward.
    pub fn new(arena: &'a TermArena, model: &'a Model, defs: &'a Definitions) -> Witness<'a> {
        Witness {
            arena,
            model,
            defs,
            memo: FxHashMap::default(),
            active: FxHashSet::default(),
            bound: Vec::new(),
        }
    }

    /// The truth value of a boolean term; `None` when undetermined.
    pub fn holds(&mut self, t: TermId) -> Option<bool> {
        match self.eval(t)? {
            Val::Bool(b) => Some(b),
            _ => None,
        }
    }

    /// The value of an integer term; `None` when undetermined.
    pub fn int(&mut self, t: TermId) -> Option<i64> {
        match self.eval(t)? {
            Val::Int(v) => Some(v),
            _ => None,
        }
    }

    /// Whether every hypothesis holds and `goal` fails under the witness:
    /// a concrete counterexample to `hyps |= goal` (absent axioms).
    pub fn refutes(&mut self, hyps: &[TermId], goal: TermId) -> bool {
        hyps.iter().all(|&h| self.holds(h) == Some(true)) && self.holds(goal) == Some(false)
    }

    /// The values computed so far, as a model: every integer term, every
    /// boolean variable, and every array variable (its non-zero cells) whose
    /// value was determined.
    pub fn into_model(self) -> Model {
        let mut model = Model {
            complete: true,
            ..Model::default()
        };
        for (t, v) in self.memo {
            let var = matches!(self.arena.term(t), Term::Var { .. });
            match v {
                Some(Val::Int(x)) => {
                    model.ints.insert(t, x);
                }
                Some(Val::Bool(b)) if var => {
                    model.bools.insert(t, b);
                }
                Some(Val::Arr(cells)) if var => {
                    model
                        .arrays
                        .insert(t, cells.iter().map(|(&i, &x)| (i, x)).collect());
                }
                _ => {}
            }
        }
        model
    }

    fn eval(&mut self, t: TermId) -> Option<Val> {
        // a free variable's value never depends on the bound ones in scope
        let memoize = self.bound.is_empty() || free_version(self.arena, t).is_some();
        if memoize {
            if let Some(v) = self.memo.get(&t) {
                return v.clone();
            }
        }
        let v = self.compute(t);
        if memoize {
            self.memo.insert(t, v.clone());
        }
        v
    }

    fn arr_of(&mut self, t: TermId) -> Option<Rc<BTreeMap<i64, i64>>> {
        match self.eval(t)? {
            Val::Arr(cells) => Some(cells),
            _ => None,
        }
    }

    fn compute(&mut self, t: TermId) -> Option<Val> {
        let arena = self.arena;
        match arena.term(t) {
            Term::IntConst(v) => Some(Val::Int(*v)),
            Term::BoolConst(b) => Some(Val::Bool(*b)),
            Term::Var { sym, version, sort } => {
                if *version == BOUND_VERSION {
                    // only integer binders are ever in scope
                    let sym = *sym;
                    let k = self.bound.iter().rev().find(|(s, _)| *s == sym)?.1;
                    return sort.is_int().then_some(Val::Int(k));
                }
                self.var(t, *sort)
            }
            Term::Add(a, b) => Some(Val::Int(self.int(*a)?.checked_add(self.int(*b)?)?)),
            Term::Sub(a, b) => Some(Val::Int(self.int(*a)?.checked_sub(self.int(*b)?)?)),
            Term::Mul(a, b) => Some(Val::Int(self.int(*a)?.checked_mul(self.int(*b)?)?)),
            Term::Sel(a, i) => {
                let cells = self.arr_of(*a)?;
                let i = self.int(*i)?;
                Some(Val::Int(cells.get(&i).copied().unwrap_or(0)))
            }
            Term::Upd(a, i, v) => {
                let mut cells = self.arr_of(*a)?;
                let i = self.int(*i)?;
                let v = self.int(*v)?;
                let map = Rc::make_mut(&mut cells);
                if v == 0 {
                    map.remove(&i);
                } else {
                    map.insert(i, v);
                }
                Some(Val::Arr(cells))
            }
            // every session with externs also has their axioms, and those
            // never replay: no witness needs a function interpretation
            Term::App(..) => None,
            Term::Eq(a, b) => {
                let (x, y) = (self.eval(*a)?, self.eval(*b)?);
                match (&x, &y) {
                    (Val::Int(_), Val::Int(_))
                    | (Val::Bool(_), Val::Bool(_))
                    | (Val::Arr(_), Val::Arr(_)) => Some(Val::Bool(x == y)),
                    _ => None,
                }
            }
            Term::Le(a, b) => Some(Val::Bool(self.int(*a)? <= self.int(*b)?)),
            Term::Lt(a, b) => Some(Val::Bool(self.int(*a)? < self.int(*b)?)),
            Term::Not(a) => Some(Val::Bool(!self.holds(*a)?)),
            Term::And(kids) => self.junction(kids, false),
            Term::Or(kids) => self.junction(kids, true),
            Term::Ite(c, a, b) => {
                let branch = if self.holds(*c)? { *a } else { *b };
                self.eval(branch)
            }
            Term::Forall(vars, body) => self.falsify(vars, *body),
            Term::Hole(..) => None,
        }
    }

    /// Three-valued `And` (`dominant` = false) or `Or` (`dominant` = true):
    /// one dominant kid decides, otherwise every kid must be determined.
    fn junction(&mut self, kids: &[TermId], dominant: bool) -> Option<Val> {
        let mut undetermined = false;
        for &k in kids {
            match self.holds(k) {
                Some(b) if b == dominant => return Some(Val::Bool(dominant)),
                Some(_) => {}
                None => undetermined = true,
            }
        }
        (!undetermined).then_some(Val::Bool(!dominant))
    }

    /// A free variable: computed from its definition, else read from the
    /// model.
    fn var(&mut self, t: TermId, sort: Sort) -> Option<Val> {
        if let Some(&def) = self.defs.defs.get(&t) {
            if !self.active.insert(t) {
                return None; // a definition cycle
            }
            // definitions are closed: evaluate (and memoize) outside any
            // quantifier scope
            let scope = std::mem::take(&mut self.bound);
            let v = self.eval(def);
            self.bound = scope;
            self.active.remove(&t);
            return v;
        }
        match sort {
            Sort::Int => Some(Val::Int(self.model.ints.get(&t).copied().unwrap_or(0))),
            Sort::Bool => Some(Val::Bool(
                self.model.bools.get(&t).copied().unwrap_or(false),
            )),
            Sort::IntArray => {
                let cells = self
                    .model
                    .arrays
                    .get(&t)
                    .map_or_else(BTreeMap::new, |entries| {
                        entries.iter().copied().filter(|&(_, v)| v != 0).collect()
                    });
                Some(Val::Arr(Rc::new(cells)))
            }
            Sort::Unint(_) => None,
        }
    }

    /// A `∀` is false when some pool value of its (single, integer) bound
    /// variable falsifies the body, and undetermined otherwise.
    fn falsify(&mut self, vars: &[(Symbol, Sort)], body: TermId) -> Option<Val> {
        let [(sym, Sort::Int)] = vars else {
            return None;
        };
        for k in self.pool() {
            self.bound.push((*sym, k));
            let b = self.holds(body);
            self.bound.pop();
            if b == Some(false) {
                return Some(Val::Bool(false));
            }
        }
        None
    }

    /// The values a bound integer variable is tried at: 0 and every index
    /// at which an array computed so far, or stored in the model, has a
    /// cell. Sorted, so the search order is deterministic.
    fn pool(&self) -> Vec<i64> {
        let mut pool = vec![0];
        for v in self.memo.values().flatten() {
            if let Val::Arr(cells) = v {
                pool.extend(cells.keys());
            }
        }
        for entries in self.model.arrays.values() {
            pool.extend(entries.iter().map(|&(i, _)| i));
        }
        pool.sort_unstable();
        pool.dedup();
        pool
    }
}
