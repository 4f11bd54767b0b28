//! Quantified axioms compiled for grounding, shared by the two grounding
//! passes: upfront syntactic instantiation ([`crate::inst`]) and e-matching
//! modulo congruence ([`crate::ematch`]).
//!
//! Compiling an axiom fixes, once per solver, what both passes used to
//! recompute on every round: its pattern variables, its trigger patterns
//! and each trigger's head symbol. A trigger can only match a term with its
//! own head, so both passes look candidates up by [`Head`] instead of
//! trying every term.

use std::collections::{HashMap, HashSet};

use pins_logic::{collect_subterms, Symbol, Term, TermArena, TermId, BOUND_VERSION};

/// The head symbol of a term a trigger can match: an uninterpreted
/// application of a given arity, an array read or an array write.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum Head {
    App(Symbol, usize),
    Sel,
    Upd,
}

/// The head of `t`, if it is an application, `sel` or `upd`.
pub(crate) fn head_of(arena: &TermArena, t: TermId) -> Option<Head> {
    match arena.term(t) {
        Term::App(f, args) => Some(Head::App(*f, args.len())),
        Term::Sel(..) => Some(Head::Sel),
        Term::Upd(..) => Some(Head::Upd),
        _ => None,
    }
}

/// A trigger pattern and its head.
#[derive(Debug, Clone)]
pub(crate) struct Trigger {
    pub pat: TermId,
    pub head: Head,
}

/// A partial assignment of an axiom's pattern variables, one slot per
/// variable in [`CompiledAxiom::vars`] order. Slots ascend by variable
/// term id, so comparing two bindings of the same variables compares their
/// values in variable order.
pub(crate) type Binding = Vec<Option<TermId>>;

/// One quantified axiom, compiled.
#[derive(Debug, Clone)]
pub(crate) struct CompiledAxiom {
    /// The `Forall` term (part of the dedup key of its instances).
    pub axiom: TermId,
    pub body: TermId,
    /// Every bound variable occurring in the triggers, ascending.
    pub vars: Vec<TermId>,
    /// The slots of the axiom's own bound variables: an instance is
    /// identified by their values.
    key_slots: Vec<usize>,
    /// Empty when no trigger set covers the bound variables: the axiom is
    /// never instantiated.
    pub triggers: Vec<Trigger>,
}

impl CompiledAxiom {
    fn compile(arena: &TermArena, axiom: TermId) -> CompiledAxiom {
        let mut out = CompiledAxiom {
            axiom,
            body: axiom,
            vars: Vec::new(),
            key_slots: Vec::new(),
            triggers: Vec::new(),
        };
        let Term::Forall(decls, body) = arena.term(axiom) else {
            return out;
        };
        out.body = *body;
        let mut subs = HashSet::new();
        collect_subterms(arena, out.body, &mut subs);
        // the axiom's own bound variables, found in its body rather than
        // interned: a declared variable missing from the body leaves the
        // axiom without a covering trigger set
        let mut bound: Vec<TermId> = subs
            .iter()
            .copied()
            .filter(|&s| match arena.term(s) {
                Term::Var { sym, version, sort } => {
                    *version == BOUND_VERSION && decls.contains(&(*sym, *sort))
                }
                _ => false,
            })
            .collect();
        bound.sort_unstable();
        let mut declared = decls.clone();
        declared.sort_unstable();
        declared.dedup();
        if bound.len() < declared.len() {
            return out;
        }
        let pats = select_triggers(arena, &subs, &bound);
        if pats.is_empty() {
            return out;
        }
        // pattern variables: the axiom's own plus any bound by a nested
        // quantifier inside a trigger, which matching binds as well
        let mut vars = HashSet::new();
        for &p in &pats {
            let mut inner = HashSet::new();
            collect_subterms(arena, p, &mut inner);
            vars.extend(inner.into_iter().filter(|&s| is_bound_var(arena, s)));
        }
        out.vars = vars.into_iter().collect();
        out.vars.sort_unstable();
        out.key_slots = bound
            .iter()
            .map(|v| out.slot(*v).expect("covered"))
            .collect();
        out.triggers = pats
            .into_iter()
            .map(|pat| Trigger {
                pat,
                head: head_of(arena, pat).expect("triggers are applications"),
            })
            .collect();
        out
    }

    /// The slot of pattern variable `v`.
    pub fn slot(&self, v: TermId) -> Option<usize> {
        self.vars.binary_search(&v).ok()
    }

    /// A binding with no variable assigned.
    pub fn empty_binding(&self) -> Binding {
        vec![None; self.vars.len()]
    }

    /// The values of the axiom's own bound variables under a complete
    /// binding: the identity of the instance it produces.
    pub fn key(&self, b: &Binding) -> Vec<TermId> {
        self.key_slots
            .iter()
            .map(|&i| b[i].expect("complete binding"))
            .collect()
    }

    /// The body instantiated under a complete binding.
    pub fn instance(&self, arena: &mut TermArena, b: &Binding) -> TermId {
        let map: HashMap<TermId, TermId> = self
            .vars
            .iter()
            .zip(b)
            .map(|(&v, x)| (v, x.expect("complete binding")))
            .collect();
        arena.substitute(self.body, &map)
    }
}

/// Whether `t` is a quantifier-bound variable.
fn is_bound_var(arena: &TermArena, t: TermId) -> bool {
    matches!(arena.term(t), Term::Var { version, .. } if *version == BOUND_VERSION)
}

/// Quantified axioms compiled for grounding: each axiom's pattern
/// variables, trigger patterns and trigger heads, computed once when the
/// axiom is added and shared by [`instantiate`](crate::instantiate) and
/// [`ematch_round`](crate::ematch_round).
#[derive(Debug, Clone, Default)]
pub struct CompiledAxioms {
    axioms: Vec<CompiledAxiom>,
}

impl CompiledAxioms {
    /// Compiles `axioms` (each a `Forall` term), in order.
    pub fn compile(arena: &TermArena, axioms: &[TermId]) -> CompiledAxioms {
        let mut out = CompiledAxioms::default();
        for &ax in axioms {
            out.push(arena, ax);
        }
        out
    }

    /// Compiles one more axiom. A term that is not a `Forall`, or a
    /// quantifier no trigger set covers, is kept but never instantiated.
    pub fn push(&mut self, arena: &TermArena, axiom: TermId) {
        self.axioms.push(CompiledAxiom::compile(arena, axiom));
    }

    /// Number of axioms.
    pub fn len(&self) -> usize {
        self.axioms.len()
    }

    /// Whether there are no axioms.
    pub fn is_empty(&self) -> bool {
        self.axioms.is_empty()
    }

    /// The trigger patterns chosen for axiom `i`, in matching order; empty
    /// for an axiom that is never instantiated.
    pub fn triggers(&self, i: usize) -> Vec<TermId> {
        self.axioms[i].triggers.iter().map(|t| t.pat).collect()
    }

    pub(crate) fn iter(&self) -> std::slice::Iter<'_, CompiledAxiom> {
        self.axioms.iter()
    }
}

/// Chooses trigger patterns for an axiom whose body has the subterms
/// `subs`: the smallest application subterm covering all of `bound`;
/// otherwise a greedy set of application subterms jointly covering them;
/// otherwise none.
fn select_triggers(arena: &TermArena, subs: &HashSet<TermId>, bound: &[TermId]) -> Vec<TermId> {
    let mut candidates: Vec<(TermId, Vec<TermId>, usize)> = Vec::new();
    for &s in subs {
        if head_of(arena, s).is_none() {
            continue;
        }
        let mut inner = HashSet::new();
        collect_subterms(arena, s, &mut inner);
        let vars: Vec<TermId> = bound
            .iter()
            .copied()
            .filter(|v| inner.contains(v))
            .collect();
        if vars.is_empty() {
            continue;
        }
        candidates.push((s, vars, inner.len()));
    }
    // single covering trigger, smallest first; term id as tie-break so the
    // choice does not follow the hash set's per-process iteration order
    candidates.sort_by_key(|&(t, _, size)| (size, t));
    for (s, vars, _) in &candidates {
        if vars.len() == bound.len() {
            return vec![*s];
        }
    }
    // greedy cover
    let mut chosen = Vec::new();
    let mut covered: HashSet<TermId> = HashSet::new();
    for (s, vars, _) in &candidates {
        if !vars.iter().all(|v| covered.contains(v)) {
            chosen.push(*s);
            covered.extend(vars.iter().copied());
            if covered.len() == bound.len() {
                return chosen;
            }
        }
    }
    Vec::new()
}
