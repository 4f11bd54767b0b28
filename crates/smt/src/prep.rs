//! Assertion preprocessing: negation normal form, skolemization of
//! existentials (negated universals), in-place grounding hooks for positive
//! universals, and elimination of non-boolean `ite` terms.

use std::collections::HashMap;

use pins_logic::{Sort, Term, TermArena, TermId, BOUND_VERSION};

/// The result of preprocessing one assertion.
#[derive(Debug, Default)]
pub struct Prepped {
    /// Ground boolean structure to hand to the CNF encoder.
    pub ground: Vec<TermId>,
    /// Universally quantified facts found in positive positions; they are
    /// grounded by trigger-based instantiation (see
    /// [`instantiate`](crate::instantiate)).
    pub axioms: Vec<TermId>,
}

/// Preprocesses `assertion` (positive polarity).
///
/// * `not (forall xs. body)` is skolemized: each bound variable becomes a
///   fresh constant.
/// * A `forall` in a *positive, top-level conjunctive* position is lifted
///   into [`Prepped::axioms`]. A `forall` in any other positive position
///   (e.g. under a disjunction) is grounded *in place* by instantiation
///   later, so we conservatively also lift it — sound for unsatisfiability
///   because replacing a positive `forall` with finitely many instances
///   weakens the formula only when the instances are conjoined in place;
///   here we keep the residual disjunct `true`, so satisfiable answers are
///   flagged incomplete by the solver when such a lift occurred.
/// * Non-boolean `ite(c, t, e)` is replaced by a fresh variable `v` with
///   defining constraints `(c => v = t) and (not c => v = e)`.
pub fn preprocess(arena: &mut TermArena, assertion: TermId, out: &mut Prepped) -> bool {
    let mut exact = true;
    let nnf = nnf(arena, assertion, false, out, &mut exact);
    let mut defs = Vec::new();
    let ground = elim_ite(arena, nnf, &mut defs);
    out.ground.push(ground);
    // ite definitions can themselves contain ites in conditions; elim_ite
    // recurses, so defs are ground here.
    out.ground.extend(defs);
    exact
}

fn nnf(
    arena: &mut TermArena,
    t: TermId,
    negate: bool,
    out: &mut Prepped,
    exact: &mut bool,
) -> TermId {
    match arena.term(t).clone() {
        Term::Not(inner) => nnf(arena, inner, !negate, out, exact),
        Term::And(kids) => {
            let kids: Vec<TermId> = kids
                .into_iter()
                .map(|k| nnf(arena, k, negate, out, exact))
                .collect();
            if negate {
                arena.mk_or(kids)
            } else {
                arena.mk_and(kids)
            }
        }
        Term::Or(kids) => {
            let kids: Vec<TermId> = kids
                .into_iter()
                .map(|k| nnf(arena, k, negate, out, exact))
                .collect();
            if negate {
                arena.mk_and(kids)
            } else {
                arena.mk_or(kids)
            }
        }
        Term::Forall(vars, body) => {
            if negate {
                // exists: skolemize with fresh constants
                let mut map = HashMap::new();
                for (sym, sort) in &vars {
                    let name = format!("sk!{}", arena.symbols().name(*sym));
                    let fresh = arena.symbols_mut().fresh(&name);
                    let bound = arena.mk_var(*sym, BOUND_VERSION, *sort);
                    let skolem = arena.mk_var(fresh, 0, *sort);
                    map.insert(bound, skolem);
                }
                let body = arena.substitute(body, &map);
                nnf(arena, body, true, out, exact)
            } else {
                // positive: lift to the axiom set; residual is `true`
                out.axioms.push(t);
                *exact = false;
                arena.mk_true()
            }
        }
        // Eq over booleans is an equivalence: negation stays at this node,
        // handled by the CNF encoder (we wrap with Not explicitly).
        _ => {
            if negate {
                arena.mk_not(t)
            } else {
                t
            }
        }
    }
}

/// Replaces non-boolean `ite` subterms by fresh variables, collecting the
/// defining constraints.
fn elim_ite(arena: &mut TermArena, t: TermId, defs: &mut Vec<TermId>) -> TermId {
    let mut memo = HashMap::new();
    elim_rec(arena, t, defs, &mut memo)
}

fn elim_rec(
    arena: &mut TermArena,
    t: TermId,
    defs: &mut Vec<TermId>,
    memo: &mut HashMap<TermId, TermId>,
) -> TermId {
    if let Some(&r) = memo.get(&t) {
        return r;
    }
    let result = match arena.term(t).clone() {
        Term::Ite(c, a, b) => {
            let c = elim_rec(arena, c, defs, memo);
            let a = elim_rec(arena, a, defs, memo);
            let b = elim_rec(arena, b, defs, memo);
            let sort = arena.sort(a);
            let fresh = arena.symbols_mut().fresh("ite!v");
            let v = arena.mk_var(fresh, 0, sort);
            let eq_t = mk_any_eq(arena, v, a, sort);
            let eq_e = mk_any_eq(arena, v, b, sort);
            let pos = arena.mk_implies(c, eq_t);
            let neg = arena.mk_or(vec![c, eq_e]);
            defs.push(pos);
            defs.push(neg);
            v
        }
        Term::IntConst(_) | Term::BoolConst(_) | Term::Var { .. } | Term::Hole(..) => t,
        Term::Add(a, b) => {
            let (a, b) = (
                elim_rec(arena, a, defs, memo),
                elim_rec(arena, b, defs, memo),
            );
            arena.mk_add(a, b)
        }
        Term::Sub(a, b) => {
            let (a, b) = (
                elim_rec(arena, a, defs, memo),
                elim_rec(arena, b, defs, memo),
            );
            arena.mk_sub(a, b)
        }
        Term::Mul(a, b) => {
            let (a, b) = (
                elim_rec(arena, a, defs, memo),
                elim_rec(arena, b, defs, memo),
            );
            arena.mk_mul(a, b)
        }
        Term::Sel(a, b) => {
            let (a, b) = (
                elim_rec(arena, a, defs, memo),
                elim_rec(arena, b, defs, memo),
            );
            arena.mk_sel(a, b)
        }
        Term::Upd(a, b, c) => {
            let a = elim_rec(arena, a, defs, memo);
            let b = elim_rec(arena, b, defs, memo);
            let c = elim_rec(arena, c, defs, memo);
            arena.mk_upd(a, b, c)
        }
        Term::App(f, args) => {
            let args = args
                .into_iter()
                .map(|x| elim_rec(arena, x, defs, memo))
                .collect();
            arena.mk_app(f, args)
        }
        Term::Eq(a, b) => {
            let (a, b) = (
                elim_rec(arena, a, defs, memo),
                elim_rec(arena, b, defs, memo),
            );
            arena.mk_eq(a, b)
        }
        Term::Le(a, b) => {
            let (a, b) = (
                elim_rec(arena, a, defs, memo),
                elim_rec(arena, b, defs, memo),
            );
            arena.mk_le(a, b)
        }
        Term::Lt(a, b) => {
            let (a, b) = (
                elim_rec(arena, a, defs, memo),
                elim_rec(arena, b, defs, memo),
            );
            arena.mk_lt(a, b)
        }
        Term::Not(a) => {
            let a = elim_rec(arena, a, defs, memo);
            arena.mk_not(a)
        }
        Term::And(kids) => {
            let kids = kids
                .into_iter()
                .map(|k| elim_rec(arena, k, defs, memo))
                .collect();
            arena.mk_and(kids)
        }
        Term::Or(kids) => {
            let kids = kids
                .into_iter()
                .map(|k| elim_rec(arena, k, defs, memo))
                .collect();
            arena.mk_or(kids)
        }
        Term::Forall(vars, body) => {
            // inside an axiom body; leave intact (instantiation substitutes first)
            let body = elim_rec(arena, body, defs, memo);
            arena.mk_forall(vars, body)
        }
    };
    memo.insert(t, result);
    result
}

fn mk_any_eq(arena: &mut TermArena, a: TermId, b: TermId, sort: Sort) -> TermId {
    debug_assert_eq!(arena.sort(a), sort);
    arena.mk_eq(a, b)
}
