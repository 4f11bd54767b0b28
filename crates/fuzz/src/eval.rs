//! Independent reference semantics used by the oracles.
//!
//! Two deliberately separate implementations:
//!
//! * [`check_model`] — a three-valued structural evaluator that checks a
//!   [`Model`] against the asserted formula **without** reusing pins-smt's
//!   own evaluator ([`pins_smt::Witness`]), which it is the independent
//!   reference for: the `shortcut` oracle checks replayed witnesses with it.
//!   It propagates `Unknown` for anything the model does not pin down (so a
//!   sparse-but-correct model is never reported as wrong) and cross-checks
//!   EUF congruence: two applications of the same function on equal
//!   evaluated arguments must be assigned equal values.
//! * [`enumerate_sat`] — exhaustive enumeration of all assignments over a
//!   small integer domain, total on the generator's *enumerable* dialect.
//!   Finding a satisfying assignment there refutes an `Unsat` verdict
//!   outright.

use std::collections::HashMap;

use pins_logic::{Symbol, Term, TermArena, TermId};
use pins_smt::Model;

/// Three-valued evaluation result.
#[derive(Debug, Clone, PartialEq, Eq)]
enum V {
    Int(i64),
    Bool(bool),
    /// A functional array view: the base (non-`Upd`) array term plus the
    /// writes applied on top of it, in application order.
    Arr(TermId, Vec<(i64, i64)>),
    /// Not determined by the model (or out of `i64` range).
    Unknown,
}

/// Outcome of checking a model against a formula.
#[derive(Debug, Default)]
pub struct ModelCheck {
    /// Asserts that evaluated definitively to `false` under the model.
    pub falsified: Vec<usize>,
    /// EUF congruence conflicts: same function, equal argument values,
    /// different assigned results.
    pub euf_conflicts: Vec<String>,
}

impl ModelCheck {
    /// No definitive contradiction was found.
    pub fn ok(&self) -> bool {
        self.falsified.is_empty() && self.euf_conflicts.is_empty()
    }
}

struct Evaluator<'a> {
    arena: &'a TermArena,
    model: &'a Model,
    /// Congruence table: (function, evaluated args) -> (assigned value,
    /// witness term).
    apps: HashMap<(Symbol, Vec<i64>), (i64, TermId)>,
    euf_conflicts: Vec<String>,
}

impl Evaluator<'_> {
    fn eval(&mut self, t: TermId) -> V {
        match self.arena.term(t) {
            Term::IntConst(v) => V::Int(*v),
            Term::BoolConst(b) => V::Bool(*b),
            Term::Var { sort, .. } => {
                if sort.is_int() {
                    match self.model.ints.get(&t) {
                        Some(&v) => V::Int(v),
                        None => V::Unknown,
                    }
                } else if sort.is_bool() {
                    match self.model.bools.get(&t) {
                        Some(&v) => V::Bool(v),
                        None => V::Unknown,
                    }
                } else {
                    V::Arr(t, Vec::new())
                }
            }
            Term::Add(a, b) => self.int2(*a, *b, i64::checked_add),
            Term::Sub(a, b) => self.int2(*a, *b, i64::checked_sub),
            Term::Mul(a, b) => self.int2(*a, *b, i64::checked_mul),
            Term::Sel(a, i) => {
                let arr = self.eval(*a);
                let idx = self.eval(*i);
                match (arr, idx) {
                    (V::Arr(base, writes), V::Int(idx)) => {
                        // last write wins
                        if let Some(&(_, v)) = writes.iter().rev().find(|&&(wi, _)| wi == idx) {
                            return V::Int(v);
                        }
                        if let Some(entries) = self.model.arrays.get(&base) {
                            if let Some(&(_, v)) = entries.iter().find(|&&(ei, _)| ei == idx) {
                                return V::Int(v);
                            }
                        }
                        // unconstrained cell: fall back to the solver's own
                        // value for this very sel term, if any
                        self.claimed_int(t)
                    }
                    _ => self.claimed_int(t),
                }
            }
            Term::Upd(a, i, v) => {
                let arr = self.eval(*a);
                let idx = self.eval(*i);
                let val = self.eval(*v);
                match (arr, idx, val) {
                    (V::Arr(base, mut writes), V::Int(idx), V::Int(val)) => {
                        writes.push((idx, val));
                        V::Arr(base, writes)
                    }
                    // a store at an undetermined index poisons the whole view
                    _ => V::Unknown,
                }
            }
            Term::App(f, args) => {
                let claimed = self.claimed_int(t);
                let vals: Option<Vec<i64>> = args
                    .iter()
                    .map(|&a| match self.eval(a) {
                        V::Int(v) => Some(v),
                        _ => None,
                    })
                    .collect();
                if let (Some(vals), V::Int(cv)) = (vals, &claimed) {
                    let key = (*f, vals);
                    match self.apps.get(&key) {
                        Some(&(prev, witness)) if prev != *cv => {
                            self.euf_conflicts.push(format!(
                                "congruence violation: {}({:?}) = {} at {:?} but {} at {:?}",
                                self.arena.symbols().name(*f),
                                key.1,
                                prev,
                                witness,
                                cv,
                                t,
                            ));
                        }
                        Some(_) => {}
                        None => {
                            self.apps.insert(key, (*cv, t));
                        }
                    }
                }
                claimed
            }
            Term::Eq(a, b) => {
                let x = self.eval(*a);
                let y = self.eval(*b);
                match (x, y) {
                    (V::Int(x), V::Int(y)) => V::Bool(x == y),
                    (V::Bool(x), V::Bool(y)) => V::Bool(x == y),
                    (V::Arr(b1, w1), V::Arr(b2, w2)) if b1 == b2 && w1 == w2 => V::Bool(true),
                    _ => V::Unknown,
                }
            }
            Term::Le(a, b) => self.cmp(*a, *b, |x, y| x <= y),
            Term::Lt(a, b) => self.cmp(*a, *b, |x, y| x < y),
            Term::Not(a) => match self.eval(*a) {
                V::Bool(b) => V::Bool(!b),
                _ => V::Unknown,
            },
            Term::And(kids) => {
                let mut unknown = false;
                for &k in kids {
                    match self.eval(k) {
                        V::Bool(false) => return V::Bool(false),
                        V::Bool(true) => {}
                        _ => unknown = true,
                    }
                }
                if unknown {
                    V::Unknown
                } else {
                    V::Bool(true)
                }
            }
            Term::Or(kids) => {
                let mut unknown = false;
                for &k in kids {
                    match self.eval(k) {
                        V::Bool(true) => return V::Bool(true),
                        V::Bool(false) => {}
                        _ => unknown = true,
                    }
                }
                if unknown {
                    V::Unknown
                } else {
                    V::Bool(false)
                }
            }
            Term::Ite(c, a, b) => match self.eval(*c) {
                V::Bool(true) => self.eval(*a),
                V::Bool(false) => self.eval(*b),
                _ => {
                    let x = self.eval(*a);
                    let y = self.eval(*b);
                    if x != V::Unknown && x == y {
                        x
                    } else {
                        V::Unknown
                    }
                }
            },
            Term::Forall(..) | Term::Hole(..) => V::Unknown,
        }
    }

    fn claimed_int(&self, t: TermId) -> V {
        match self.model.ints.get(&t) {
            Some(&v) => V::Int(v),
            None => V::Unknown,
        }
    }

    fn int2(&mut self, a: TermId, b: TermId, op: fn(i64, i64) -> Option<i64>) -> V {
        match (self.eval(a), self.eval(b)) {
            (V::Int(x), V::Int(y)) => match op(x, y) {
                Some(v) => V::Int(v),
                None => V::Unknown,
            },
            _ => V::Unknown,
        }
    }

    fn cmp(&mut self, a: TermId, b: TermId, op: fn(i64, i64) -> bool) -> V {
        match (self.eval(a), self.eval(b)) {
            (V::Int(x), V::Int(y)) => V::Bool(op(x, y)),
            _ => V::Unknown,
        }
    }
}

/// Checks a (complete) model against `asserts`. Only definitive
/// contradictions are reported; `Unknown` sub-results are accepted.
pub fn check_model(arena: &TermArena, asserts: &[TermId], model: &Model) -> ModelCheck {
    let mut ev = Evaluator {
        arena,
        model,
        apps: HashMap::new(),
        euf_conflicts: Vec::new(),
    };
    let mut out = ModelCheck::default();
    for (i, &a) in asserts.iter().enumerate() {
        if ev.eval(a) == V::Bool(false) {
            out.falsified.push(i);
        }
    }
    out.euf_conflicts = ev.euf_conflicts;
    out
}

/// The symmetric integer domain enumeration ranges over: covers the
/// generator's enumerable constants ([-3, 3]) plus one step of slack.
pub const ENUM_DOMAIN: std::ops::RangeInclusive<i64> = -4..=4;

/// Exhaustively enumerates assignments of `int_vars` over [`ENUM_DOMAIN`]
/// and `bool_vars` over {false, true}; returns a satisfying assignment for
/// the conjunction of `asserts`, if any exists in the domain.
///
/// Total only on the enumerable dialect (no arrays / EUF / ite); returns
/// `None` both when no in-domain assignment satisfies the formula and is
/// never called on formulas where evaluation could be partial.
pub fn enumerate_sat(
    arena: &TermArena,
    asserts: &[TermId],
    int_vars: &[TermId],
    bool_vars: &[TermId],
) -> Option<(Vec<i64>, Vec<bool>)> {
    let dom: Vec<i64> = ENUM_DOMAIN.collect();
    let n_i = int_vars.len();
    let n_b = bool_vars.len();
    let total: u64 = (dom.len() as u64)
        .checked_pow(n_i as u32)
        .and_then(|x| x.checked_mul(1u64 << n_b))?;
    let mut binding: HashMap<TermId, V2> = HashMap::new();
    'outer: for idx in 0..total {
        let mut rest = idx;
        for &v in int_vars {
            binding.insert(v, V2::Int(dom[(rest % dom.len() as u64) as usize]));
            rest /= dom.len() as u64;
        }
        for &b in bool_vars {
            binding.insert(b, V2::Bool(rest % 2 == 1));
            rest /= 2;
        }
        for &a in asserts {
            if eval_total(arena, a, &binding) != Some(V2::Bool(true)) {
                continue 'outer;
            }
        }
        let ints = int_vars
            .iter()
            .map(|v| match binding[v] {
                V2::Int(x) => x,
                V2::Bool(_) => unreachable!(),
            })
            .collect();
        let bools = bool_vars
            .iter()
            .map(|v| match binding[v] {
                V2::Bool(x) => x,
                V2::Int(_) => unreachable!(),
            })
            .collect();
        return Some((ints, bools));
    }
    None
}

/// A ground value for [`enumerate_sat`]'s total evaluator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum V2 {
    Int(i64),
    Bool(bool),
}

fn eval_total(arena: &TermArena, t: TermId, binding: &HashMap<TermId, V2>) -> Option<V2> {
    let int = |t| match eval_total(arena, t, binding)? {
        V2::Int(v) => Some(v),
        V2::Bool(_) => None,
    };
    let boolean = |t| match eval_total(arena, t, binding)? {
        V2::Bool(v) => Some(v),
        V2::Int(_) => None,
    };
    Some(match arena.term(t) {
        Term::IntConst(v) => V2::Int(*v),
        Term::BoolConst(b) => V2::Bool(*b),
        Term::Var { .. } => return binding.get(&t).copied(),
        Term::Add(a, b) => V2::Int(int(*a)?.checked_add(int(*b)?)?),
        Term::Sub(a, b) => V2::Int(int(*a)?.checked_sub(int(*b)?)?),
        Term::Mul(a, b) => V2::Int(int(*a)?.checked_mul(int(*b)?)?),
        Term::Eq(a, b) => {
            if arena.sort(*a).is_int() {
                V2::Bool(int(*a)? == int(*b)?)
            } else {
                V2::Bool(boolean(*a)? == boolean(*b)?)
            }
        }
        Term::Le(a, b) => V2::Bool(int(*a)? <= int(*b)?),
        Term::Lt(a, b) => V2::Bool(int(*a)? < int(*b)?),
        Term::Not(a) => V2::Bool(!boolean(*a)?),
        Term::And(kids) => {
            for &k in kids {
                if !boolean(k)? {
                    return Some(V2::Bool(false));
                }
            }
            V2::Bool(true)
        }
        Term::Or(kids) => {
            for &k in kids {
                if boolean(k)? {
                    return Some(V2::Bool(true));
                }
            }
            V2::Bool(false)
        }
        Term::Ite(c, a, b) => {
            if boolean(*c)? {
                return eval_total(arena, *a, binding);
            }
            return eval_total(arena, *b, binding);
        }
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pins_logic::Sort;

    #[test]
    fn enumeration_finds_the_only_solution() {
        let mut arena = TermArena::new();
        let xs = arena.sym("x");
        let x = arena.mk_var(xs, 0, Sort::Int);
        let three = arena.mk_int(3);
        let a = arena.mk_eq(x, three);
        let (ints, _) = enumerate_sat(&arena, &[a], &[x], &[]).expect("x=3 is in the domain");
        assert_eq!(ints, vec![3]);
    }

    #[test]
    fn enumeration_reports_unsat_in_domain() {
        let mut arena = TermArena::new();
        let xs = arena.sym("x");
        let x = arena.mk_var(xs, 0, Sort::Int);
        let lo = arena.mk_int(1);
        let a1 = arena.mk_lt(x, lo);
        let hi = arena.mk_int(2);
        let a2 = arena.mk_lt(hi, x);
        assert!(enumerate_sat(&arena, &[a1, a2], &[x], &[]).is_none());
    }

    #[test]
    fn model_check_accepts_a_correct_model_and_rejects_a_wrong_one() {
        let mut arena = TermArena::new();
        let xs = arena.sym("x");
        let x = arena.mk_var(xs, 0, Sort::Int);
        let five = arena.mk_int(5);
        let a = arena.mk_eq(x, five);
        let mut good = Model {
            complete: true,
            ..Model::default()
        };
        good.ints.insert(x, 5);
        assert!(check_model(&arena, &[a], &good).ok());
        let mut bad = good.clone();
        bad.ints.insert(x, 4);
        let res = check_model(&arena, &[a], &bad);
        assert_eq!(res.falsified, vec![0]);
    }

    #[test]
    fn euf_congruence_conflict_is_detected() {
        let mut arena = TermArena::new();
        let f = arena.declare_fun("f", vec![Sort::Int], Sort::Int);
        let xs = arena.sym("x");
        let ys = arena.sym("y");
        let x = arena.mk_var(xs, 0, Sort::Int);
        let y = arena.mk_var(ys, 0, Sort::Int);
        let fx = arena.mk_app(f, vec![x]);
        let fy = arena.mk_app(f, vec![y]);
        let asserts = [arena.mk_le(fx, fy)];
        let mut m = Model {
            complete: true,
            ..Model::default()
        };
        // x == y but f(x) != f(y): congruence violation
        m.ints.insert(x, 1);
        m.ints.insert(y, 1);
        m.ints.insert(fx, 7);
        m.ints.insert(fy, 9);
        let res = check_model(&arena, &asserts, &m);
        assert_eq!(res.euf_conflicts.len(), 1);
    }
}
