//! E-matching modulo congruence: axiom instantiation against the current
//! EUF e-graph, run inside the theory loop.
//!
//! The upfront syntactic instantiation ([`crate::inst`]) misses instances
//! whose trigger only matches *up to equality* — e.g. the string axiom
//! `forall s,c,i. i < strlen(s) => charat(appendc(s,c), i) = charat(s, i)`
//! must fire on `charat(w', t)` where `w'` is merely *congruent* to an
//! `appendc` chain. This module matches trigger patterns against e-graph
//! classes: a function pattern matches a term if any member of the term's
//! class has the right head symbol.

use std::collections::{HashMap, HashSet};

use pins_budget::Budget;
use pins_logic::{Term, TermArena, TermId};

use crate::euf::Euf;
use crate::trigger::{head_of, Binding, CompiledAxiom, CompiledAxioms, Head};

/// Budget for congruence-aware instantiation per theory round.
#[derive(Debug, Clone, Copy)]
pub struct EmatchConfig {
    /// Maximum instances produced per `check` overall.
    pub max_instances: usize,
    /// Maximum matching branches explored per trigger/term pair.
    pub max_branches: usize,
}

impl Default for EmatchConfig {
    fn default() -> Self {
        EmatchConfig {
            max_instances: 2000,
            max_branches: 64,
        }
    }
}

/// The e-graph's classes as the matcher sees them.
struct Classes {
    members: HashMap<u32, Vec<TermId>>,
    root_of: HashMap<TermId, u32>,
}

impl Classes {
    fn same(&self, a: TermId, b: TermId) -> bool {
        a == b
            || self
                .root_of
                .get(&a)
                .is_some_and(|r1| self.root_of.get(&b) == Some(r1))
    }
}

/// Runs one e-matching round of `axioms` against the e-graph in `euf`.
/// Returns ground instances not seen before (tracked in `done`). Polls
/// `budget` between axioms and bails out early (with the instances gathered
/// so far) when it is exhausted; the caller detects the stop at its own
/// loop head.
pub fn ematch_round(
    arena: &mut TermArena,
    euf: &Euf,
    axioms: &CompiledAxioms,
    done: &mut HashSet<(TermId, Vec<TermId>)>,
    instances_so_far: usize,
    config: EmatchConfig,
    budget: &Budget,
) -> Vec<TermId> {
    // group registered terms by class
    let class_terms = euf.class_of_terms();
    let mut members: HashMap<u32, Vec<TermId>> = HashMap::new();
    for &(t, root) in &class_terms {
        members.entry(root).or_default().push(t);
    }
    let root_of: HashMap<TermId, u32> = class_terms.iter().copied().collect();
    // canonical representative per class: the smallest term id (stable as
    // ids only grow), so duplicate matches across members collapse
    let repr: HashMap<u32, TermId> = members
        .iter()
        .map(|(&root, terms)| (root, *terms.iter().min().unwrap()))
        .collect();
    let classes = Classes { members, root_of };
    let canon = |t: TermId| -> TermId {
        classes
            .root_of
            .get(&t)
            .and_then(|r| repr.get(r))
            .copied()
            .unwrap_or(t)
    };
    // one seed per class, not per term, indexed by every head a member of
    // the class has: a trigger only matches a class with a member of its
    // head. Sorted, because seed order decides which matches land inside
    // the instance/branch caps and hash-map order would make the
    // instantiated set differ from process to process
    let mut seeds: HashMap<Head, Vec<TermId>> = HashMap::new();
    for &(t, root) in &class_terms {
        if let Some(head) = head_of(arena, t) {
            seeds.entry(head).or_default().push(repr[&root]);
        }
    }
    for s in seeds.values_mut() {
        s.sort_unstable();
        s.dedup();
    }

    let mut out = Vec::new();
    for ax in axioms.iter() {
        if budget.charge(1).is_err() {
            return out;
        }
        if ax.triggers.is_empty() {
            continue;
        }
        // seed matching from the first trigger over every class with its
        // head, then refine through the remaining triggers
        let mut partials: Vec<Binding> = vec![ax.empty_binding()];
        for trig in &ax.triggers {
            let mut next: Vec<Binding> = Vec::new();
            for partial in &partials {
                for &t in seeds.get(&trig.head).map_or(&[][..], Vec::as_slice) {
                    let mut branches = match_mod_euf(
                        arena,
                        ax,
                        &classes,
                        trig.pat,
                        t,
                        partial.clone(),
                        config.max_branches,
                    );
                    // canonicalize bindings to class representatives
                    for b in &mut branches {
                        for v in b.iter_mut().flatten() {
                            *v = canon(*v);
                        }
                    }
                    next.extend(branches);
                }
            }
            let mut seen = HashSet::new();
            next.retain(|b| seen.insert(b.clone()));
            partials = next;
            if partials.is_empty() {
                break;
            }
        }
        for binding in partials {
            if !done.insert((ax.axiom, ax.key(&binding))) {
                continue;
            }
            if instances_so_far + out.len() >= config.max_instances {
                return out;
            }
            out.push(ax.instance(arena, &binding));
        }
    }
    out
}

/// The matches of `pat` against `t` modulo the congruence in `classes`
/// that extend `seed`, at most about `max_branches` of them.
fn match_mod_euf(
    arena: &TermArena,
    ax: &CompiledAxiom,
    classes: &Classes,
    pat: TermId,
    t: TermId,
    seed: Binding,
    max_branches: usize,
) -> Vec<Binding> {
    let mut branches = Vec::new();
    let mut work = vec![(seed, vec![(pat, t)])];
    while let Some((mut b, mut goals)) = work.pop() {
        if branches.len() + work.len() > max_branches {
            break;
        }
        let Some((p, g)) = goals.pop() else {
            branches.push(b);
            continue;
        };
        // ground pattern subterm: require same class (or identity)
        if arena.is_ground(p) {
            if classes.same(p, g) {
                work.push((b, goals));
            }
            continue;
        }
        // pattern variable: bind to the ground term (class-respecting)
        if let Some(slot) = ax.slot(p) {
            if arena.sort(g) != arena.sort(p) {
                continue;
            }
            match b[slot] {
                Some(existing) if !classes.same(existing, g) => {}
                Some(_) => work.push((b, goals)),
                None => {
                    b[slot] = Some(g);
                    work.push((b, goals));
                }
            }
            continue;
        }
        // structural: try every member of g's class with the right shape
        let candidates = match classes.root_of.get(&g) {
            Some(root) => classes.members[root].as_slice(),
            None => std::slice::from_ref(&g),
        };
        for &cand in candidates {
            if let Some(child_goals) = shape_match(arena, p, cand) {
                let mut g2 = goals.clone();
                g2.extend(child_goals);
                work.push((b.clone(), g2));
            }
        }
    }
    branches
}

/// If `p`'s head operator matches `cand`'s, returns the child goals.
fn shape_match(arena: &TermArena, p: TermId, cand: TermId) -> Option<Vec<(TermId, TermId)>> {
    match (arena.term(p), arena.term(cand)) {
        (Term::App(f, pargs), Term::App(h, cargs)) if f == h && pargs.len() == cargs.len() => {
            Some(pargs.iter().copied().zip(cargs.iter().copied()).collect())
        }
        (Term::Sel(a1, b1), Term::Sel(a2, b2)) => Some(vec![(*a1, *a2), (*b1, *b2)]),
        (Term::Upd(a1, b1, c1), Term::Upd(a2, b2, c2)) => {
            Some(vec![(*a1, *a2), (*b1, *b2), (*c1, *c2)])
        }
        (Term::Add(a1, b1), Term::Add(a2, b2))
        | (Term::Sub(a1, b1), Term::Sub(a2, b2))
        | (Term::Mul(a1, b1), Term::Mul(a2, b2)) => Some(vec![(*a1, *a2), (*b1, *b2)]),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use pins_logic::Sort;

    use super::*;

    #[test]
    fn fires_when_only_a_non_representative_member_has_the_head() {
        // forall x. f(x) >= x, against the class {v, f(w)}: its
        // representative is v (the older term), which has no head at all
        let mut arena = TermArena::new();
        let v = {
            let s = arena.sym("v");
            arena.mk_var(s, 0, Sort::Int)
        };
        let f = arena.declare_fun("f", vec![Sort::Int], Sort::Int);
        let x = arena.sym("x");
        let bx = arena.mk_bound(x, Sort::Int);
        let fx = arena.mk_app(f, vec![bx]);
        let body = arena.mk_ge(fx, bx);
        let ax = arena.mk_forall(vec![(x, Sort::Int)], body);
        let w = {
            let s = arena.sym("w");
            arena.mk_var(s, 0, Sort::Int)
        };
        let fw = arena.mk_app(f, vec![w]);
        assert!(v < fw, "v must represent the class");

        let mut euf = Euf::new();
        let (nv, nfw) = (euf.add_term(&arena, v), euf.add_term(&arena, fw));
        euf.merge(nv, nfw, 0);
        euf.close();
        let axioms = CompiledAxioms::compile(&arena, &[ax]);
        let mut done = HashSet::new();
        let out = ematch_round(
            &mut arena,
            &euf,
            &axioms,
            &mut done,
            0,
            EmatchConfig::default(),
            &Budget::unlimited(),
        );
        let expected = arena.mk_ge(fw, w);
        assert_eq!(out, [expected]);
        // a second round has nothing new
        let again = ematch_round(
            &mut arena,
            &euf,
            &axioms,
            &mut done,
            1,
            EmatchConfig::default(),
            &Budget::unlimited(),
        );
        assert!(again.is_empty());
    }
}
