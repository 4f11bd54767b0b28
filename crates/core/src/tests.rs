use std::collections::HashSet;

use pins_ir::{
    parse_expr_in, parse_pred_in, program_to_string, run, ExternEnv, Store, Type, Value,
};
use pins_logic::TermId;
use pins_symexec::{EmptyFiller, ExploreConfig, Explorer, SymCtx};

use crate::*;

/// Synthesize the inverse of `y := x + 7`.
fn add7_session() -> Session {
    let mut s = Session::from_sources(
        "proc add7(in x: int, out y: int) { y := x + 7; }",
        "proc add7_inv(in y: int, out xI: int) { xI := ?e1; }",
    );
    let c = s.composed.clone();
    s.expr_candidates = vec![
        parse_expr_in(&c, "y + 7").unwrap(),
        parse_expr_in(&c, "y - 7").unwrap(),
        parse_expr_in(&c, "0").unwrap(),
        parse_expr_in(&c, "y").unwrap(),
    ];
    s.spec = Spec {
        items: vec![SpecItem::IntEq {
            input: c.var_by_name("x").unwrap(),
            output: c.var_by_name("xI").unwrap(),
        }],
    };
    s
}

#[test]
fn add7_inverse_synthesized() {
    let mut session = add7_session();
    let outcome = Pins::new(PinsConfig::default()).run(&mut session).unwrap();
    assert_eq!(
        outcome.solutions.len(),
        1,
        "exactly one inverse should survive"
    );
    let inv = &outcome.solutions[0].inverse;
    let printed = program_to_string(inv);
    assert!(printed.contains("y - 7"), "got:\n{printed}");
    assert!(outcome.converged);
    assert!(outcome.paths_explored >= 1);
}

#[test]
fn add7_concrete_tests_generated() {
    let mut session = add7_session();
    let outcome = Pins::new(PinsConfig::default()).run(&mut session).unwrap();
    assert!(!outcome.tests.is_empty());
    // each test assigns the input x
    for t in &outcome.tests {
        assert!(t.inputs.iter().any(|(n, _)| n == "x"));
    }
}

#[test]
fn no_solution_when_candidates_insufficient() {
    let mut session = add7_session();
    let c = session.composed.clone();
    session.expr_candidates = vec![
        parse_expr_in(&c, "y + 7").unwrap(), // wrong direction only
        parse_expr_in(&c, "0").unwrap(),
    ];
    let err = Pins::new(PinsConfig::default())
        .run(&mut session)
        .unwrap_err();
    assert!(matches!(err, PinsError::NoSolution { .. }), "{err:?}");
}

/// `m := 2 * n` by repeated addition; inverse halves by counting.
fn double_session() -> Session {
    let mut s = Session::from_sources(
        r#"
proc double(in n: int, out m: int) {
  local i: int;
  assume(n >= 0);
  i := 0; m := 0;
  while (i < n) {
    m, i := m + 2, i + 1;
  }
}
"#,
        r#"
proc double_inv(in m: int, out nI: int) {
  local j: int;
  j, nI := ?e1, ?e2;
  while (?p1) {
    nI, j := ?e3, ?e4;
  }
}
"#,
    );
    let c = s.composed.clone();
    s.expr_candidates = ["0", "m", "nI + 1", "nI - 1", "j + 2", "j + 1", "j - 2"]
        .iter()
        .map(|src| parse_expr_in(&c, src).unwrap())
        .collect();
    s.pred_candidates = ["j < m", "nI < m", "j < nI"]
        .iter()
        .map(|src| parse_pred_in(&c, src).unwrap())
        .collect();
    s.spec = Spec {
        items: vec![SpecItem::IntEq {
            input: c.var_by_name("n").unwrap(),
            output: c.var_by_name("nI").unwrap(),
        }],
    };
    s
}

#[test]
fn double_inverse_synthesized_and_correct() {
    let mut session = double_session();
    let config = PinsConfig {
        max_iterations: 40,
        ..PinsConfig::default()
    };
    let outcome = Pins::new(config).run(&mut session).unwrap();
    assert!(
        !outcome.solutions.is_empty() && outcome.solutions.len() <= 4,
        "expected a small surviving set, got {}",
        outcome.solutions.len()
    );

    // validate all surviving solutions by concrete round-trips
    let env = ExternEnv::new();
    let orig = &session.original;
    let mut correct = 0;
    for sol in &outcome.solutions {
        let inv = &sol.inverse;
        let mut ok = true;
        for n in 0..8i64 {
            let mut inputs = Store::new();
            inputs.insert(orig.var_by_name("n").unwrap(), Value::Int(n));
            let mid = run(orig, &inputs, &env, 10_000).unwrap();
            let m = mid[&orig.var_by_name("m").unwrap()].clone();
            let mut inv_inputs = Store::new();
            inv_inputs.insert(inv.var_by_name("m").unwrap(), m);
            match run(inv, &inv_inputs, &env, 10_000) {
                Ok(out) => {
                    if out[&inv.var_by_name("nI").unwrap()] != Value::Int(n) {
                        ok = false;
                    }
                }
                Err(_) => ok = false,
            }
        }
        if ok {
            correct += 1;
        }
    }
    assert!(
        correct >= 1,
        "at least one surviving solution must be a true inverse"
    );
}

#[test]
fn iterations_match_small_path_bound_hypothesis() {
    let mut session = double_session();
    let outcome = Pins::new(PinsConfig::default()).run(&mut session).unwrap();
    // the paper reports 1..14 iterations across all benchmarks
    assert!(
        outcome.iterations <= 20,
        "too many iterations: {}",
        outcome.iterations
    );
    assert!(outcome.paths_explored <= 20);
}

#[test]
fn random_pickone_also_converges() {
    let mut session = double_session();
    let config = PinsConfig {
        pick_random: true,
        seed: 7,
        ..PinsConfig::default()
    };
    let outcome = Pins::new(config).run(&mut session).unwrap();
    assert!(!outcome.solutions.is_empty());
}

#[test]
fn stats_are_populated() {
    let mut session = double_session();
    let outcome = Pins::new(PinsConfig::default()).run(&mut session).unwrap();
    let s = outcome.stats();
    assert!(s.total_time.as_nanos() > 0);
    assert!(s.smt_queries > 0);
    assert!(s.sat_size > 0);
    assert!(s.smt_reduction_time.as_nanos() > 0);
    assert!(s.feasibility_queries > 0);
}

/// Each registry key a run writes belongs to exactly one key table.
#[test]
fn every_registry_key_is_in_exactly_one_table() {
    let mut keys: Vec<String> = [
        crate::engine::PhaseTimes::KEYS,
        crate::SolveStats::KEYS,
        crate::SliceStats::KEYS,
    ]
    .concat()
    .into_iter()
    .map(str::to_string)
    .collect();
    for prefix in ["smt", "feas"] {
        keys.extend(
            pins_smt::SessionStats::KEYS
                .iter()
                .map(|k| format!("{prefix}.{k}")),
        );
    }
    let n = keys.len();
    keys.sort_unstable();
    keys.dedup();
    assert_eq!(keys.len(), n, "a key appears in two tables");

    // and every counter cell a run creates comes from one of them (the
    // sessions' per-phase cells are generated from `PHASES`)
    let mut session = double_session();
    let outcome = Pins::new(PinsConfig::default()).run(&mut session).unwrap();
    for (cell, _) in outcome.metrics().snapshot() {
        assert!(
            keys.contains(&cell) || cell.contains(".phase."),
            "{cell} is not in a key table"
        );
    }
}

// ---------------- unit-level checks ----------------

#[test]
fn rank_candidates_derived_from_inequalities() {
    let s = double_session();
    let ranks = derive_rank_candidates(&s.pred_candidates);
    // j < m and nI < m and j < nI each yield a candidate
    assert_eq!(ranks.len(), 3);
    for r in &ranks {
        assert_eq!(type_of_expr(&s.composed, r), Type::Int);
    }
}

#[test]
fn ehole_types_inferred_from_targets() {
    let s = Session::from_sources(
        "proc f(in A: int[], in n: int, out B: int[]) { B := upd(B, 0, A[0]); }",
        "proc g(in B: int[], out AI: int[], out k: int) { AI := ?e1; k := ?e2; }",
    );
    let types = ehole_types(&s.composed);
    assert_eq!(types, vec![Type::IntArray, Type::Int]);
}

#[test]
fn pred_subsets_bounded() {
    let s = double_session();
    let singles = pred_subset_candidates(&s.pred_candidates, 1, true);
    assert_eq!(singles.len(), 1 + 3);
    let pairs = pred_subset_candidates(&s.pred_candidates, 2, true);
    assert_eq!(pairs.len(), 1 + 3 + 3);
}

#[test]
fn search_space_accounting() {
    let session = double_session();
    let domains = build_domains(&session, DomainConfig::default());
    // paper-comparable space: 4 int-expr holes over 7 candidates each plus
    // one predicate hole over 2^3 subsets
    let expected = 4.0 * (7.0f64).log2() + 3.0;
    assert!((domains.paper_search_space_log2 - expected).abs() < 1e-9);
    assert!(domains.encoded_search_space_log2 > 0.0);
}

#[test]
fn axiom_def_round_trip() {
    use pins_ir::ExternDecl;
    let externs = vec![ExternDecl {
        name: "strlen".into(),
        args: vec![Type::Abstract("Str".into())],
        ret: Type::Int,
        returns_bool: false,
    }];
    let ax = AxiomDef::parse(
        &externs,
        &[("s", Type::Abstract("Str".into()))],
        "strlen(s) >= 0",
    );
    let mut arena = pins_logic::TermArena::new();
    let t = ax.to_term(&mut arena);
    let shown = arena.display(t).to_string();
    assert!(shown.contains("forall"), "{shown}");
    assert!(shown.contains("strlen"), "{shown}");
}

#[test]
fn terminate_constraints_generated_per_template_loop() {
    let session = double_session();
    let domains = build_domains(&session, DomainConfig::default());
    let mut ctx = pins_symexec::SymCtx::new(&session.composed);
    let cs = terminate_constraints(&session, &domains, &mut ctx);
    // one bounded + per body path (1) a decrease and an inv-maintain
    assert_eq!(cs.len(), 3);
    assert!(cs
        .iter()
        .any(|c| matches!(c.label, ConstraintLabel::Bounded(_))));
    assert!(cs
        .iter()
        .any(|c| matches!(c.label, ConstraintLabel::Decrease(_))));
    assert!(cs
        .iter()
        .any(|c| matches!(c.label, ConstraintLabel::InvMaintain(_))));
}

// ---------------- constraint slicing ----------------

/// `c := c + a` under `a != 0`, inverted by `aI, cI := ?e1, ?e2` with both
/// holes ranging over `cands` (the shape of LU decomp, scaled down).
fn lu_like_session(cands: &[&str]) -> Session {
    let mut s = Session::from_sources(
        "proc f(inout a: int, inout c: int) { assume(a != 0); c := c + a; }",
        "proc g(in a: int, in c: int, out aI: int, out cI: int) { aI := ?e1; cI := ?e2; }",
    );
    let comp = s.composed.clone();
    s.expr_candidates = cands
        .iter()
        .map(|src| parse_expr_in(&comp, src).unwrap())
        .collect();
    let var = |n: &str| comp.var_by_name(n).unwrap();
    s.spec = Spec {
        items: vec![
            SpecItem::IntEq {
                input: var("a"),
                output: var("aI"),
            },
            SpecItem::IntEq {
                input: var("c"),
                output: var("cI"),
            },
        ],
    };
    s
}

/// The domains, translation context and single path's `safepath`
/// constraint of `session`.
fn safepath_of(session: &Session) -> (HoleDomains, SymCtx, Constraint) {
    let domains = build_domains(session, DomainConfig::default());
    let mut ctx = SymCtx::new(&session.composed);
    let config = ExploreConfig {
        check_feasibility: false,
        ..ExploreConfig::default()
    };
    let path = Explorer::new(&session.composed, config)
        .explore_one(&mut ctx, &EmptyFiller, &HashSet::new())
        .expect("one path");
    let c = safepath_constraint(session, &session.spec, &mut ctx, &path);
    (domains, ctx, c)
}

/// The term of variable `name` at `version`.
fn var_at(session: &Session, ctx: &mut SymCtx, name: &str, version: u32) -> TermId {
    ctx.var_term(session.composed.var_by_name(name).unwrap(), version)
}

/// `hyps => goal`, as the engine labels a path's safety constraint.
fn hand_built(hyps: Vec<TermId>, goal: TermId) -> Constraint {
    Constraint {
        hyps,
        goal,
        label: ConstraintLabel::SafePath,
    }
}

#[test]
fn slicing_gives_each_output_its_own_hole() {
    let session = lu_like_session(&["a", "c - a"]);
    let (domains, mut ctx, c) = safepath_of(&session);
    let parts = Slicer::new(&domains).slice(&mut ctx, &c);
    assert_eq!(parts.len(), 2, "one part per spec conjunct");
    for p in &parts {
        let holes = HoleSet::of(&ctx, p.hyps.iter().copied().chain([p.goal]));
        assert_eq!(holes.len(), 1, "each part observes one hole");
    }
}

#[test]
fn slicing_keeps_a_definition_a_hole_candidate_reads() {
    // `c - a` read under the template's version map is `c@1 - a@0`, so
    // `c@1 = c@0 + a@0` stays in both parts (LU's `c@1`/`d@1` case) ...
    let session = lu_like_session(&["a", "c - a"]);
    let (domains, mut ctx, c) = safepath_of(&session);
    let (c0, c1, a0) = (
        var_at(&session, &mut ctx, "c", 0),
        var_at(&session, &mut ctx, "c", 1),
        var_at(&session, &mut ctx, "a", 0),
    );
    let sum = ctx.arena.mk_add(c0, a0);
    let c1_def = ctx.arena.mk_eq(c1, sum);
    assert!(c.hyps.contains(&c1_def));
    for p in Slicer::new(&domains).slice(&mut ctx, &c) {
        assert!(p.hyps.contains(&c1_def), "a candidate reads c@1");
    }
    // ... and is dropped when no candidate reads `c`
    let session = lu_like_session(&["a"]);
    let (domains, mut ctx, c) = safepath_of(&session);
    assert!(c.hyps.contains(&c1_def));
    for p in Slicer::new(&domains).slice(&mut ctx, &c) {
        assert!(!p.hyps.contains(&c1_def), "nothing reads c@1");
    }
}

#[test]
fn slicing_keeps_guards_and_negations() {
    let session = lu_like_session(&["a"]);
    let (domains, mut ctx, _) = safepath_of(&session);
    let (a0, c0) = (
        var_at(&session, &mut ctx, "a", 0),
        var_at(&session, &mut ctx, "c", 0),
    );
    let (c2, c3) = (
        var_at(&session, &mut ctx, "c", 2),
        var_at(&session, &mut ctx, "c", 3),
    );
    let five = ctx.arena.mk_int(5);
    let guard = ctx.arena.mk_lt(c0, five);
    let negation = ctx.arena.mk_neq(c2, a0);
    let one = ctx.arena.mk_int(1);
    let next = ctx.arena.mk_add(a0, one);
    let definition = ctx.arena.mk_eq(c3, next);
    let zero = ctx.arena.mk_int(0);
    let goal = ctx.arena.mk_ge(a0, zero);
    let c = hand_built(vec![guard, negation, definition], goal);
    let parts = Slicer::new(&domains).slice(&mut ctx, &c);
    assert_eq!(parts.len(), 1);
    assert_eq!(
        parts[0].hyps,
        vec![guard, negation],
        "only `c@3 = a@0 + 1` goes"
    );
}

#[test]
fn slicing_keeps_a_definition_whose_variable_occurs_on_its_right() {
    // `c@1 = c@1 + 1` is unsatisfiable: it makes the constraint valid, and
    // `exists v. v = t` does not apply when `v` occurs in `t`
    let session = lu_like_session(&["a"]);
    let (domains, mut ctx, _) = safepath_of(&session);
    let (a0, c1) = (
        var_at(&session, &mut ctx, "a", 0),
        var_at(&session, &mut ctx, "c", 1),
    );
    let one = ctx.arena.mk_int(1);
    let next = ctx.arena.mk_add(c1, one);
    let cyclic = ctx.arena.mk_eq(c1, next);
    let zero = ctx.arena.mk_int(0);
    let goal = ctx.arena.mk_ge(a0, zero);
    let c = hand_built(vec![cyclic], goal);
    let parts = Slicer::new(&domains).slice(&mut ctx, &c);
    assert_eq!(parts.len(), 1);
    assert_eq!(parts[0].hyps, vec![cyclic]);
    let mut smt = pins_smt::SmtSession::new(pins_smt::SmtConfig::default());
    assert!(smt.entails(&mut ctx.arena, &c.hyps, c.goal));
    assert!(smt.entails(&mut ctx.arena, &parts[0].hyps, parts[0].goal));
}

#[test]
fn slicing_merges_parts_that_observe_the_same_holes() {
    let session = lu_like_session(&["a", "c - a"]);
    let (domains, mut ctx, c) = safepath_of(&session);
    let (a0, ai1) = (
        var_at(&session, &mut ctx, "a", 0),
        var_at(&session, &mut ctx, "aI", 1),
    );
    // both conjuncts read `aI@1`, so both need `aI@1 = ?e1`: one part,
    // identical to the constraint
    let same = ctx.arena.mk_eq(a0, ai1);
    let zero = ctx.arena.mk_int(0);
    let positive = ctx.arena.mk_ge(ai1, zero);
    let goal = ctx.arena.mk_and(vec![same, positive]);
    let merged = hand_built(c.hyps.clone(), goal);
    let parts = Slicer::new(&domains).slice(&mut ctx, &merged);
    assert_eq!(parts.len(), 1);
    assert_eq!(parts[0].goal, goal);
    // the safepath goal's two conjuncts observe different holes: two parts
    assert_eq!(Slicer::new(&domains).slice(&mut ctx, &c).len(), 2);
}

#[test]
fn slicer_skips_duplicate_constraints() {
    let session = lu_like_session(&["a", "c - a"]);
    let (domains, mut ctx, c) = safepath_of(&session);
    let registry = pins_trace::MetricsRegistry::new();
    let mut slicer = Slicer::new(&domains);
    slicer.bind_metrics(&registry);
    let mut out = Vec::new();
    slicer.add(&mut ctx, [c.clone(), c.clone()], &mut out);
    assert_eq!(out.len(), 2, "the second copy adds nothing");
    slicer.add(&mut ctx, out.clone(), &mut out);
    assert_eq!(out.len(), 2, "nor do parts already added");
    assert_eq!(registry.get("slice.constraints"), 1);
    assert_eq!(registry.get("slice.parts"), 2);
    assert_eq!(registry.get("slice.narrowed"), 1);
    assert_eq!(registry.get("slice.duplicates"), 3);
}

/// With `x@0 >= 1 ∧ xI@1 != 0` asserted on the session, `xI := 0` is
/// valid: its hypotheses contradict the assertion. A countermodel stored
/// for `y + 7` or `y` has `x@0 >= 1`, so replaying it on `0` without the
/// assertion (`xI@1` recomputed as 0) would refute it. Such a session
/// must not replay, and `solve` keeps both valid candidates.
#[test]
fn a_session_assertion_turns_counterexample_replay_off() {
    let mut session = add7_session();
    let composed = session.composed.clone();
    // the order in which `solve` meets `0` after a refuted candidate
    session.expr_candidates = ["y + 7", "y", "0", "y - 7"]
        .iter()
        .map(|src| parse_expr_in(&composed, src).unwrap())
        .collect();
    let (domains, mut ctx, c) = safepath_of(&session);
    let (x0, xi1) = (
        var_at(&session, &mut ctx, "x", 0),
        var_at(&session, &mut ctx, "xI", 1),
    );
    let (zero, one) = (ctx.arena.mk_int(0), ctx.arena.mk_int(1));
    let positive = ctx.arena.mk_le(one, x0);
    let xi_zero = ctx.arena.mk_eq(xi1, zero);
    let nonzero = ctx.arena.mk_not(xi_zero);
    let mut smt = pins_smt::SmtSession::new(pins_smt::SmtConfig::default());
    smt.assert(positive);
    smt.assert(nonzero);
    let mut solver = HoleSolver::new(&domains);
    let sols = solver.solve(&mut ctx, &session, &domains, &[c], 4, &mut smt);
    assert_eq!(solver.stats().replay_hits, 0);
    let mut chosen: Vec<usize> = sols.iter().map(|s| s.exprs[0]).collect();
    chosen.sort_unstable();
    // `0` and `y - 7`, by their index in the candidate list
    assert_eq!(chosen, vec![2, 3]);
}
