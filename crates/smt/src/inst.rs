//! Trigger-based (e-matching style) instantiation of quantified axioms.
//!
//! PINS uses quantified facts in two roles: library axioms (e.g.
//! `forall s, c. strlen(append(s, c)) = strlen(s) + 1`) and the identity
//! specification's array quantifier. The latter is skolemized away during
//! preprocessing; axioms are grounded here by *syntactic* matching of
//! triggers against the ground subterm universe, iterated for a bounded
//! number of rounds (new instances contribute new ground terms that may
//! enable further matches).
//!
//! The universe is indexed by [`Head`]: a trigger is matched only against
//! the ground terms with its own head, and each round indexes only the
//! terms the previous round's instances added.

use std::collections::{HashMap, HashSet};

use pins_budget::{Budget, StopReason};
use pins_logic::{Term, TermArena, TermId};

use crate::trigger::{head_of, Binding, CompiledAxiom, CompiledAxioms, Head};

/// Budget for instantiation.
#[derive(Debug, Clone, Copy)]
pub struct InstConfig {
    /// Fixpoint rounds over the growing ground-term universe.
    pub max_rounds: usize,
    /// Hard cap on generated instances across all axioms.
    pub max_instances: usize,
}

impl Default for InstConfig {
    fn default() -> Self {
        InstConfig {
            max_rounds: 3,
            max_instances: 2000,
        }
    }
}

/// Result of one instantiation run.
#[derive(Debug, Default)]
pub struct InstOutcome {
    /// Ground instances of the axiom bodies.
    pub instances: Vec<TermId>,
    /// Whether the instance cap was hit (the solver reports incompleteness).
    pub truncated: bool,
    /// Set when the budget stopped instantiation mid-run; the instances
    /// gathered so far are still valid (sound) but incomplete.
    pub stopped: Option<StopReason>,
}

/// The subterms seen so far, with the ground ones indexed by head.
#[derive(Debug, Default)]
struct Universe {
    seen: HashSet<TermId>,
    by_head: HashMap<Head, Vec<TermId>>,
}

impl Universe {
    /// Adds `t`'s subterm DAG, indexing the ground terms not seen before.
    fn add(&mut self, arena: &TermArena, t: TermId) {
        let mut stack = vec![t];
        while let Some(id) = stack.pop() {
            if !self.seen.insert(id) {
                continue;
            }
            if arena.is_ground(id) {
                if let Some(head) = head_of(arena, id) {
                    self.by_head.entry(head).or_default().push(id);
                }
            }
            stack.extend(arena.children(id));
        }
    }

    fn with_head(&self, head: Head) -> &[TermId] {
        self.by_head.get(&head).map_or(&[], Vec::as_slice)
    }
}

/// Instantiates `axioms` against the ground terms of `roots`, charging
/// `budget` one step per round and per generated instance.
///
/// Within one axiom, instances come out in ascending order of their
/// bindings (variable values in variable term-id order), so the instance
/// cap cuts the same sequence on every run.
pub fn instantiate(
    arena: &mut TermArena,
    axioms: &CompiledAxioms,
    roots: &[TermId],
    config: InstConfig,
    budget: &Budget,
) -> InstOutcome {
    let mut outcome = InstOutcome::default();
    if axioms.is_empty() {
        // the first round's charge, without building a universe
        if config.max_rounds > 0 {
            outcome.stopped = budget.charge(1).err();
        }
        return outcome;
    }
    let mut universe = Universe::default();
    for &r in roots {
        universe.add(arena, r);
    }
    let mut done: HashSet<(TermId, Vec<TermId>)> = HashSet::new();

    'rounds: for _round in 0..config.max_rounds {
        if let Err(reason) = budget.charge(1) {
            outcome.stopped = Some(reason);
            break;
        }
        let mut new_instances: Vec<TermId> = Vec::new();
        for ax in axioms.iter() {
            if let Err(reason) = budget.check() {
                outcome.stopped = Some(reason);
                outcome.instances.extend(new_instances);
                break 'rounds;
            }
            if ax.triggers.is_empty() {
                continue;
            }
            for binding in match_triggers(arena, ax, &universe) {
                if !done.insert((ax.axiom, ax.key(&binding))) {
                    continue;
                }
                if outcome.instances.len() + new_instances.len() >= config.max_instances {
                    outcome.truncated = true;
                    break;
                }
                new_instances.push(ax.instance(arena, &binding));
                let _ = budget.charge(1); // polled at the next loop head
            }
        }
        if new_instances.is_empty() || outcome.truncated {
            outcome.instances.extend(new_instances);
            break;
        }
        for &i in &new_instances {
            universe.add(arena, i);
        }
        outcome.instances.extend(new_instances);
    }
    outcome
}

/// Every binding under which all of `ax`'s triggers lie in the universe,
/// sorted and deduplicated.
fn match_triggers(arena: &TermArena, ax: &CompiledAxiom, universe: &Universe) -> Vec<Binding> {
    let mut partials: Vec<Binding> = vec![ax.empty_binding()];
    let mut buf = [ax.body; 3];
    for trig in &ax.triggers {
        let pat_args = args_of(arena, trig.pat, &mut buf).to_vec();
        let mut next: Vec<Binding> = Vec::new();
        for partial in &partials {
            for &g in universe.with_head(trig.head) {
                // the index fixed the head: only the arguments are matched
                let mut b = partial.clone();
                let mut gbuf = [g; 3];
                let g_args = args_of(arena, g, &mut gbuf);
                if pat_args
                    .iter()
                    .zip(g_args)
                    .all(|(&p, &q)| match_pattern(arena, ax, p, q, &mut b))
                {
                    next.push(b);
                }
            }
        }
        // every partial binds the same variables (those of the triggers so
        // far), so this is the order of their values
        next.sort_unstable();
        next.dedup();
        partials = next;
        if partials.is_empty() {
            break;
        }
    }
    partials
}

/// The arguments of a term with a [`Head`], without allocating: `buf`
/// holds them for `sel` and `upd`.
fn args_of<'a>(arena: &'a TermArena, t: TermId, buf: &'a mut [TermId; 3]) -> &'a [TermId] {
    match arena.term(t) {
        Term::App(_, args) => args,
        Term::Sel(a, i) => {
            buf[..2].copy_from_slice(&[*a, *i]);
            &buf[..2]
        }
        Term::Upd(a, i, v) => {
            *buf = [*a, *i, *v];
            &buf[..]
        }
        _ => &[],
    }
}

/// Syntactic one-way matching: extends `b` so that `pat[b] == g`.
fn match_pattern(
    arena: &TermArena,
    ax: &CompiledAxiom,
    pat: TermId,
    g: TermId,
    b: &mut Binding,
) -> bool {
    if arena.is_ground(pat) {
        // hash-consing: equal ground terms are one term
        return pat == g;
    }
    if let Some(slot) = ax.slot(pat) {
        if arena.sort(g) != arena.sort(pat) {
            return false;
        }
        return match b[slot] {
            Some(existing) => existing == g,
            None => {
                b[slot] = Some(g);
                true
            }
        };
    }
    match (arena.term(pat), arena.term(g)) {
        (Term::App(f, pargs), Term::App(h, gargs)) if f == h && pargs.len() == gargs.len() => pargs
            .iter()
            .zip(gargs)
            .all(|(&p, &q)| match_pattern(arena, ax, p, q, b)),
        (Term::Sel(a1, b1), Term::Sel(a2, b2))
        | (Term::Add(a1, b1), Term::Add(a2, b2))
        | (Term::Sub(a1, b1), Term::Sub(a2, b2))
        | (Term::Mul(a1, b1), Term::Mul(a2, b2)) => {
            match_pattern(arena, ax, *a1, *a2, b) && match_pattern(arena, ax, *b1, *b2, b)
        }
        (Term::Upd(a1, b1, c1), Term::Upd(a2, b2, c2)) => {
            match_pattern(arena, ax, *a1, *a2, b)
                && match_pattern(arena, ax, *b1, *b2, b)
                && match_pattern(arena, ax, *c1, *c2, b)
        }
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use pins_logic::Sort;

    use super::*;

    /// Builds the axiom `forall s, c. strlen(append(s, c)) = strlen(s) + 1`.
    fn strlen_axiom(arena: &mut TermArena) -> (TermId, pins_logic::Symbol, pins_logic::Symbol) {
        let str_sort = Sort::Unint(arena.sym("Str"));
        let ch_sort = Sort::Unint(arena.sym("Char"));
        let strlen = arena.declare_fun("strlen", vec![str_sort], Sort::Int);
        let append = arena.declare_fun("append", vec![str_sort, ch_sort], str_sort);
        let s = arena.sym("s");
        let c = arena.sym("c");
        let bs = arena.mk_bound(s, str_sort);
        let bc = arena.mk_bound(c, ch_sort);
        let app = arena.mk_app(append, vec![bs, bc]);
        let lhs = arena.mk_app(strlen, vec![app]);
        let inner = arena.mk_app(strlen, vec![bs]);
        let one = arena.mk_int(1);
        let rhs = arena.mk_add(inner, one);
        let body = arena.mk_eq(lhs, rhs);
        let ax = arena.mk_forall(vec![(s, str_sort), (c, ch_sort)], body);
        (ax, strlen, append)
    }

    #[test]
    fn instantiates_matching_ground_terms() {
        let mut arena = TermArena::new();
        let (ax, strlen, append) = strlen_axiom(&mut arena);
        let str_sort = Sort::Unint(arena.sym("Str"));
        let ch_sort = Sort::Unint(arena.sym("Char"));
        let w = arena.sym("w");
        let d = arena.sym("d");
        let vw = arena.mk_var(w, 0, str_sort);
        let vd = arena.mk_var(d, 0, ch_sort);
        let appended = arena.mk_app(append, vec![vw, vd]);
        let len = arena.mk_app(strlen, vec![appended]);
        let five = arena.mk_int(5);
        let root = arena.mk_eq(len, five);
        let axioms = CompiledAxioms::compile(&arena, &[ax]);
        let out = instantiate(
            &mut arena,
            &axioms,
            &[root],
            InstConfig::default(),
            &Budget::unlimited(),
        );
        assert_eq!(out.instances.len(), 1);
        // The instance should be strlen(append(w,d)) = strlen(w) + 1.
        let shown = arena.display(out.instances[0]).to_string();
        assert!(shown.contains("strlen"), "unexpected instance {shown}");
        assert!(!out.truncated);
    }

    #[test]
    fn no_matches_no_instances() {
        let mut arena = TermArena::new();
        let (ax, _, _) = strlen_axiom(&mut arena);
        let x = arena.sym("x");
        let vx = arena.mk_var(x, 0, Sort::Int);
        let one = arena.mk_int(1);
        let root = arena.mk_le(vx, one);
        let axioms = CompiledAxioms::compile(&arena, &[ax]);
        let out = instantiate(
            &mut arena,
            &axioms,
            &[root],
            InstConfig::default(),
            &Budget::unlimited(),
        );
        assert!(out.instances.is_empty());
    }

    #[test]
    fn chained_rounds_follow_new_terms() {
        // ground term append(append(e, c1), c2): round 1 instantiates the
        // outer application; the instance mentions strlen(append(e,c1)),
        // which licenses the inner instance in round 2.
        let mut arena = TermArena::new();
        let (ax, strlen, append) = strlen_axiom(&mut arena);
        let str_sort = Sort::Unint(arena.sym("Str"));
        let ch_sort = Sort::Unint(arena.sym("Char"));
        let e = arena.mk_var(arena.symbols().get("s").unwrap(), 0, str_sort);
        let c1 = {
            let c = arena.sym("c1");
            arena.mk_var(c, 0, ch_sort)
        };
        let c2 = {
            let c = arena.sym("c2");
            arena.mk_var(c, 0, ch_sort)
        };
        let inner = arena.mk_app(append, vec![e, c1]);
        let outer = arena.mk_app(append, vec![inner, c2]);
        let len = arena.mk_app(strlen, vec![outer]);
        let five = arena.mk_int(5);
        let root = arena.mk_eq(len, five);
        let axioms = CompiledAxioms::compile(&arena, &[ax]);
        let out = instantiate(
            &mut arena,
            &axioms,
            &[root],
            InstConfig::default(),
            &Budget::unlimited(),
        );
        assert_eq!(out.instances.len(), 2, "expected chained instantiation");
    }

    #[test]
    fn instance_cap_reported() {
        let mut arena = TermArena::new();
        let (ax, strlen, append) = strlen_axiom(&mut arena);
        let str_sort = Sort::Unint(arena.sym("Str"));
        let ch_sort = Sort::Unint(arena.sym("Char"));
        let base = {
            let s = arena.sym("base");
            arena.mk_var(s, 0, str_sort)
        };
        let c = {
            let c = arena.sym("c");
            arena.mk_var(c, 0, ch_sort)
        };
        let mut t = base;
        for _ in 0..10 {
            t = arena.mk_app(append, vec![t, c]);
        }
        let len = arena.mk_app(strlen, vec![t]);
        let zero = arena.mk_int(0);
        let root = arena.mk_eq(len, zero);
        let axioms = CompiledAxioms::compile(&arena, &[ax]);
        let out = instantiate(
            &mut arena,
            &axioms,
            &[root],
            InstConfig {
                max_rounds: 10,
                max_instances: 3,
            },
            &Budget::unlimited(),
        );
        assert!(out.truncated);
        assert!(out.instances.len() <= 3);
        let _ = strlen;
    }

    #[test]
    fn head_index_separates_arities_and_array_operators() {
        let mut arena = TermArena::new();
        let f = arena.declare_fun("f", vec![Sort::Int], Sort::Int);
        let g = arena.declare_fun("g", vec![Sort::Int, Sort::Int], Sort::Int);
        let len = arena.declare_fun("len", vec![Sort::IntArray], Sort::Int);
        let (x, y, a, i, v) = (
            arena.sym("x"),
            arena.sym("y"),
            arena.sym("a"),
            arena.sym("i"),
            arena.sym("v"),
        );
        let (bx, by) = (arena.mk_bound(x, Sort::Int), arena.mk_bound(y, Sort::Int));
        let ba = arena.mk_bound(a, Sort::IntArray);
        let (bi, bv) = (arena.mk_bound(i, Sort::Int), arena.mk_bound(v, Sort::Int));
        let zero = arena.mk_int(0);
        let five = arena.mk_int(5);
        // forall x. f(x) >= 0                        (trigger f(x))
        let fx = arena.mk_app(f, vec![bx]);
        let b1 = arena.mk_ge(fx, zero);
        let ax1 = arena.mk_forall(vec![(x, Sort::Int)], b1);
        // forall x, y. g(x, y) <= 5                  (trigger g(x, y))
        let gxy = arena.mk_app(g, vec![bx, by]);
        let b2 = arena.mk_le(gxy, five);
        let ax2 = arena.mk_forall(vec![(x, Sort::Int), (y, Sort::Int)], b2);
        // forall a, i. sel(a, i) <= len(a)           (trigger sel(a, i))
        let sel_ai = arena.mk_sel(ba, bi);
        let len_a = arena.mk_app(len, vec![ba]);
        let b3 = arena.mk_le(sel_ai, len_a);
        let ax3 = arena.mk_forall(vec![(a, Sort::IntArray), (i, Sort::Int)], b3);
        // forall a, i, v. len(upd(a, i, v)) = len(a) (trigger upd(a, i, v))
        let upd_aiv = arena.mk_upd(ba, bi, bv);
        let len_upd = arena.mk_app(len, vec![upd_aiv]);
        let b4 = arena.mk_eq(len_upd, len_a);
        let ax4 = arena.mk_forall(
            vec![(a, Sort::IntArray), (i, Sort::Int), (v, Sort::Int)],
            b4,
        );

        let p = {
            let s = arena.sym("p");
            arena.mk_var(s, 0, Sort::Int)
        };
        let q = {
            let s = arena.sym("q");
            arena.mk_var(s, 0, Sort::Int)
        };
        let arr = {
            let s = arena.sym("arr");
            arena.mk_var(s, 0, Sort::IntArray)
        };
        let fp = arena.mk_app(f, vec![p]);
        let gpq = arena.mk_app(g, vec![p, q]);
        let gqp = arena.mk_app(g, vec![q, p]);
        let sel = arena.mk_sel(arr, q);
        let upd = arena.mk_upd(arr, p, q);
        let len_of_upd = arena.mk_app(len, vec![upd]);
        let roots = [
            arena.mk_eq(fp, gpq),
            arena.mk_lt(gqp, sel),
            arena.mk_eq(len_of_upd, five),
        ];
        let axioms = CompiledAxioms::compile(&arena, &[ax1, ax2, ax3, ax4]);
        let heads: Vec<Vec<Option<Head>>> = (0..axioms.len())
            .map(|k| {
                axioms
                    .triggers(k)
                    .iter()
                    .map(|&t| head_of(&arena, t))
                    .collect()
            })
            .collect();
        assert_eq!(
            heads,
            [
                vec![Some(Head::App(f, 1))],
                vec![Some(Head::App(g, 2))],
                vec![Some(Head::Sel)],
                vec![Some(Head::Upd)],
            ]
        );
        let out = instantiate(
            &mut arena,
            &axioms,
            &roots,
            InstConfig::default(),
            &Budget::unlimited(),
        );
        // one instance per term of the trigger's own head: the unary f never
        // meets the binary g, and sel never meets upd
        let len_arr = arena.mk_app(len, vec![arr]);
        let expected = vec![
            arena.mk_ge(fp, zero),
            arena.mk_le(gpq, five),
            arena.mk_le(gqp, five),
            arena.mk_le(sel, len_arr),
            arena.mk_eq(len_of_upd, len_arr),
        ];
        let shown = |arena: &TermArena, ts: &[TermId]| -> Vec<String> {
            ts.iter().map(|&t| arena.display(t).to_string()).collect()
        };
        assert_eq!(
            shown(&arena, &out.instances),
            shown(&arena, &expected),
            "instances in axiom order, bindings ascending"
        );
        assert!(!out.truncated && out.stopped.is_none());
    }

    #[test]
    fn two_trigger_axiom_binds_every_pair_in_binding_order() {
        // forall x, y. f(x) + f(y) >= 0: no application mentions both
        // variables, so the triggers are f(x) and f(y)
        let mut arena = TermArena::new();
        let f = arena.declare_fun("f", vec![Sort::Int], Sort::Int);
        let (x, y) = (arena.sym("x"), arena.sym("y"));
        let (bx, by) = (arena.mk_bound(x, Sort::Int), arena.mk_bound(y, Sort::Int));
        let (fx, fy) = (arena.mk_app(f, vec![bx]), arena.mk_app(f, vec![by]));
        let sum = arena.mk_add(fx, fy);
        let zero = arena.mk_int(0);
        let body = arena.mk_ge(sum, zero);
        let ax = arena.mk_forall(vec![(x, Sort::Int), (y, Sort::Int)], body);
        let axioms = CompiledAxioms::compile(&arena, &[ax]);
        assert_eq!(axioms.triggers(0), [fx, fy]);

        let (p, q) = {
            let (sp, sq) = (arena.sym("p"), arena.sym("q"));
            (
                arena.mk_var(sp, 0, Sort::Int),
                arena.mk_var(sq, 0, Sort::Int),
            )
        };
        let (fp, fq) = (arena.mk_app(f, vec![p]), arena.mk_app(f, vec![q]));
        let root = arena.mk_lt(fp, fq);
        let mut expected = Vec::new();
        for (a, b) in [(p, p), (p, q), (q, p), (q, q)] {
            let map = HashMap::from([(bx, a), (by, b)]);
            expected.push(arena.substitute(body, &map));
        }
        let run = |arena: &mut TermArena, max_instances| {
            let config = InstConfig {
                max_rounds: 3,
                max_instances,
            };
            instantiate(arena, &axioms, &[root], config, &Budget::unlimited())
        };
        let out = run(&mut arena, 2000);
        assert_eq!(out.instances, expected);
        assert!(!out.truncated);
        // the cap cuts the same sequence
        let capped = run(&mut arena, 3);
        assert_eq!(capped.instances, expected[..3]);
        assert!(capped.truncated);
    }
}
