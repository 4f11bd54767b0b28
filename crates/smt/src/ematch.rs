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
use pins_logic::{collect_subterms, Sort, Term, TermArena, TermId, BOUND_VERSION};

use crate::euf::Euf;

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

type Subst = HashMap<TermId, TermId>;

/// Runs one e-matching round of `axioms` against the e-graph in `euf`.
/// Returns ground instances not seen before (tracked in `done`). Polls
/// `budget` between axioms and bails out early (with the instances gathered
/// so far) when it is exhausted; the caller detects the stop at its own
/// loop head.
pub fn ematch_round(
    arena: &mut TermArena,
    euf: &Euf,
    axioms: &[TermId],
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
    let mut root_of: HashMap<TermId, u32> = HashMap::new();
    for &(t, root) in &class_terms {
        root_of.insert(t, root);
    }
    // canonical representative per class: the smallest term id (stable as
    // ids only grow), so duplicate matches across members collapse
    let mut repr: HashMap<u32, TermId> = HashMap::new();
    for (&root, terms) in &members {
        repr.insert(root, *terms.iter().min().unwrap());
    }
    let canon = |t: TermId, root_of: &HashMap<TermId, u32>| -> TermId {
        root_of
            .get(&t)
            .and_then(|r| repr.get(r))
            .copied()
            .unwrap_or(t)
    };
    // one seed per class, not per term; sorted, because seed order decides
    // which matches land inside the instance/branch caps and hash-map order
    // would make the instantiated set differ from process to process
    let mut seeds: Vec<TermId> = repr.values().copied().collect();
    seeds.sort_unstable();

    let mut out = Vec::new();
    for &ax in axioms {
        if budget.charge(1).is_err() {
            return out;
        }
        let Term::Forall(vars, body) = arena.term(ax).clone() else {
            continue;
        };
        let bound: Vec<(TermId, Sort)> = vars
            .iter()
            .map(|&(sym, sort)| (arena.mk_var(sym, BOUND_VERSION, sort), sort))
            .collect();
        let triggers = select_triggers(arena, body, &bound);
        if triggers.is_empty() {
            continue;
        }
        // seed matching from the first trigger over every registered term,
        // then refine through the remaining triggers
        let mut partials: Vec<Subst> = vec![HashMap::new()];
        for &trig in &triggers {
            let mut next: Vec<Subst> = Vec::new();
            for partial in &partials {
                for &t in &seeds {
                    let mut branches = vec![partial.clone()];
                    match_mod_euf(
                        arena,
                        &members,
                        &root_of,
                        trig,
                        t,
                        &mut branches,
                        config.max_branches,
                    );
                    // canonicalize bindings to class representatives
                    for b in &mut branches {
                        let canonical: Subst =
                            b.iter().map(|(&k, &v)| (k, canon(v, &root_of))).collect();
                        *b = canonical;
                    }
                    next.extend(branches);
                }
            }
            dedup_substs(&mut next);
            partials = next;
            if partials.is_empty() {
                break;
            }
        }
        for subst in partials {
            if !bound.iter().all(|&(v, _)| subst.contains_key(&v)) {
                continue;
            }
            let key: Vec<TermId> = bound.iter().map(|&(v, _)| subst[&v]).collect();
            if !done.insert((ax, key)) {
                continue;
            }
            if instances_so_far + out.len() >= config.max_instances {
                return out;
            }
            out.push(arena.substitute(body, &subst));
        }
    }
    out
}

fn dedup_substs(substs: &mut Vec<Subst>) {
    let mut seen: HashSet<Vec<(TermId, TermId)>> = HashSet::new();
    substs.retain(|s| {
        let mut key: Vec<(TermId, TermId)> = s.iter().map(|(&k, &v)| (k, v)).collect();
        key.sort_unstable();
        seen.insert(key)
    });
}

/// Extends each branch in `branches` with matches of `pat` against `t`
/// (modulo the congruence in `members`). Branches that fail are removed;
/// successful (possibly multiple) extensions are appended. The first entry
/// is treated as the seed and is removed unless it matched trivially.
fn match_mod_euf(
    arena: &TermArena,
    members: &HashMap<u32, Vec<TermId>>,
    root_of: &HashMap<TermId, u32>,
    pat: TermId,
    t: TermId,
    branches: &mut Vec<Subst>,
    max_branches: usize,
) {
    let seed = branches[0].clone();
    branches.clear();
    let mut work = vec![(seed, vec![(pat, t)])];
    while let Some((subst, mut goals)) = work.pop() {
        if branches.len() + work.len() > max_branches {
            break;
        }
        let Some((p, g)) = goals.pop() else {
            branches.push(subst);
            continue;
        };
        // bound variable: bind to the ground term (class-respecting)
        if let Term::Var { version, sort, .. } = arena.term(p) {
            if *version == BOUND_VERSION {
                if arena.sort(g) != *sort {
                    continue;
                }
                match subst.get(&p) {
                    Some(&existing) => {
                        let same = existing == g
                            || root_of
                                .get(&existing)
                                .is_some_and(|r1| root_of.get(&g).is_some_and(|r2| r1 == r2));
                        if same {
                            work.push((subst, goals));
                        }
                    }
                    None => {
                        let mut s2 = subst;
                        s2.insert(p, g);
                        work.push((s2, goals));
                    }
                }
                continue;
            }
        }
        // ground pattern subterm: require same class (or identity)
        if is_ground_pat(arena, p) {
            let same = p == g
                || root_of
                    .get(&p)
                    .is_some_and(|r1| root_of.get(&g).is_some_and(|r2| r1 == r2));
            if same {
                work.push((subst, goals));
            }
            continue;
        }
        // structural: try every member of g's class with the right shape
        let candidates: Vec<TermId> = match root_of.get(&g) {
            Some(root) => members.get(root).cloned().unwrap_or_default(),
            None => vec![g],
        };
        for cand in candidates {
            if let Some(child_goals) = shape_match(arena, p, cand) {
                let mut g2 = goals.clone();
                g2.extend(child_goals);
                work.push((subst.clone(), g2));
            }
        }
    }
}

fn is_ground_pat(arena: &TermArena, p: TermId) -> bool {
    let mut subs = HashSet::new();
    collect_subterms(arena, p, &mut subs);
    !subs
        .iter()
        .any(|&s| matches!(arena.term(s), Term::Var { version, .. } if *version == BOUND_VERSION))
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

/// Chooses trigger patterns (shared with the syntactic instantiator):
/// the smallest application subterm covering all bound variables, else a
/// greedy set.
fn select_triggers(arena: &TermArena, body: TermId, bound: &[(TermId, Sort)]) -> Vec<TermId> {
    let mut subs = HashSet::new();
    collect_subterms(arena, body, &mut subs);
    let bound_set: HashSet<TermId> = bound.iter().map(|&(v, _)| v).collect();
    let mut candidates: Vec<(TermId, HashSet<TermId>, usize)> = Vec::new();
    for &s in &subs {
        if !matches!(arena.term(s), Term::App(..) | Term::Sel(..) | Term::Upd(..)) {
            continue;
        }
        let mut inner = HashSet::new();
        collect_subterms(arena, s, &mut inner);
        let vars: HashSet<TermId> = inner.intersection(&bound_set).copied().collect();
        if vars.is_empty() {
            continue;
        }
        candidates.push((s, vars, inner.len()));
    }
    // term id as tie-break: equal-size candidates arrive in hash-set order
    candidates.sort_by_key(|&(t, _, size)| (size, t));
    for (s, vars, _) in &candidates {
        if vars.len() == bound_set.len() {
            return vec![*s];
        }
    }
    let mut chosen = Vec::new();
    let mut covered: HashSet<TermId> = HashSet::new();
    for (s, vars, _) in &candidates {
        if !vars.is_subset(&covered) {
            chosen.push(*s);
            covered.extend(vars.iter().copied());
            if covered.len() == bound_set.len() {
                return chosen;
            }
        }
    }
    Vec::new()
}
