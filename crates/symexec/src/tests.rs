use std::collections::HashSet;

use pins_ir::{parse_expr_in, parse_pred_in, parse_program, Program};
use pins_smt::{SmtConfig, SmtSession};

use crate::*;

const SUM: &str = r#"
proc sum(in n: int, out s: int) {
  local i: int;
  assume(n >= 0);
  i := 0; s := 0;
  while (i < n) {
    s, i := s + i, i + 1;
  }
}
"#;

fn sum_program() -> Program {
    parse_program(SUM).unwrap()
}

/// A feasibility session for an explorer that prunes infeasible branches.
fn feasibility() -> Option<SmtSession> {
    Some(SmtSession::new(SmtConfig::default()))
}

#[test]
fn first_path_skips_the_loop() {
    let p = sum_program();
    let mut ctx = SymCtx::new(&p);
    let mut ex = Explorer::new(&p, ExploreConfig::default(), feasibility());
    let path = ex
        .explore_one(&mut ctx, &EmptyFiller, &HashSet::new())
        .unwrap();
    // exit-first: loop not taken; conjuncts say n>=0, i1=0, s1=0, !(i1<n)
    assert_eq!(path.conjuncts.len(), 4);
    // the final version map has i and s at version 1
    let i = p.var_by_name("i").unwrap();
    let s = p.var_by_name("s").unwrap();
    assert_eq!(version_of(&path.final_vmap, i), 1);
    assert_eq!(version_of(&path.final_vmap, s), 1);
}

#[test]
fn avoid_set_forces_new_paths() {
    let p = sum_program();
    let mut ctx = SymCtx::new(&p);
    let mut avoid = HashSet::new();
    let mut lengths = Vec::new();
    for _ in 0..3 {
        let mut ex = Explorer::new(&p, ExploreConfig::default(), feasibility());
        let path = ex.explore_one(&mut ctx, &EmptyFiller, &avoid).unwrap();
        assert!(avoid.insert(path.key), "duplicate path returned");
        lengths.push(path.conjuncts.len());
    }
    // progressively deeper paths (0, 1, 2 loop iterations)
    assert!(
        lengths[0] < lengths[1] && lengths[1] < lengths[2],
        "{lengths:?}"
    );
}

#[test]
fn path_condition_is_satisfiable() {
    let p = sum_program();
    let mut ctx = SymCtx::new(&p);
    let mut avoid = HashSet::new();
    let mut session = SmtSession::new(SmtConfig::default());
    for _ in 0..3 {
        let mut ex = Explorer::new(&p, ExploreConfig::default(), feasibility());
        let path = ex.explore_one(&mut ctx, &EmptyFiller, &avoid).unwrap();
        avoid.insert(path.key);
        let r = session.check_under(&mut ctx.arena, &path.conjuncts);
        assert!(r.is_sat(), "explored path must be feasible");
    }
}

#[test]
fn infeasible_branches_are_pruned() {
    let src = r#"
proc f(in n: int, out x: int) {
  assume(n > 5);
  if (n < 3) {
    x := 1;
  } else {
    x := 2;
  }
}
"#;
    let p = parse_program(src).unwrap();
    let mut ctx = SymCtx::new(&p);
    let mut ex = Explorer::new(&p, ExploreConfig::default(), feasibility());
    let mut avoid = HashSet::new();
    let first = ex.explore_one(&mut ctx, &EmptyFiller, &avoid).unwrap();
    avoid.insert(first.key);
    // only the else branch is feasible: no second path exists
    let mut ex2 = Explorer::new(&p, ExploreConfig::default(), feasibility());
    assert!(ex2.explore_one(&mut ctx, &EmptyFiller, &avoid).is_none());
}

#[test]
fn enumerate_counts_paths() {
    // one loop, unroll bound k => k+1 complete paths (0..=k iterations)
    let p = sum_program();
    let mut ctx = SymCtx::new(&p);
    let cfg = ExploreConfig {
        max_unroll: 3,
        ..ExploreConfig::default()
    };
    let mut ex = Explorer::new(&p, cfg, None);
    let paths = ex.enumerate(&mut ctx, &EmptyFiller, 1000);
    assert_eq!(paths.len(), 4);
}

#[test]
fn nested_loop_path_counts() {
    let src = r#"
proc f(in n: int, out x: int) {
  local i: int, j: int;
  i := 0;
  while (i < n) {
    j := 0;
    while (j < n) { j := j + 1; }
    i := i + 1;
  }
}
"#;
    let p = parse_program(src).unwrap();
    let mut ctx = SymCtx::new(&p);
    let cfg = ExploreConfig {
        max_unroll: 2,
        ..ExploreConfig::default()
    };
    let mut ex = Explorer::new(&p, cfg, None);
    let paths = ex.enumerate(&mut ctx, &EmptyFiller, 10_000);
    // outer 0 iters: 1; outer 1: inner 0..2 = 3; outer 2: 3*3 = 9 -> 13
    // (max_unroll counts total entries per loop id on a path, so the inner
    // loop budget is shared across outer iterations: outer-2 paths have
    // inner splits a+b<=2: (0,0),(0,1),(1,0),(1,1),(0,2),(2,0) = 6)
    // total = 1 + 3 + 6 = 10
    assert_eq!(paths.len(), 10);
}

#[test]
fn holes_appear_in_conditions_with_version_maps() {
    let src = r#"
proc t(in m: int, out x: int) {
  local i: int;
  i := ?e1;
  while (?p1) {
    i := i + 1;
  }
  x := i;
}
"#;
    let p = parse_program(src).unwrap();
    let mut ctx = SymCtx::new(&p);
    let mut ex = Explorer::new(&p, ExploreConfig::default(), None);
    let mut avoid = HashSet::new();
    let path1 = ex.explore_one(&mut ctx, &EmptyFiller, &avoid).unwrap();
    avoid.insert(path1.key);
    let mut ex2 = Explorer::new(&p, ExploreConfig::default(), None);
    let path2 = ex2.explore_one(&mut ctx, &EmptyFiller, &avoid).unwrap();
    // the predicate hole occurs under at least two different version maps
    let occs = ctx.occurrences();
    let pred_occs: Vec<_> = occs
        .iter()
        .filter(|o| matches!(o.kind, HoleKind::Pred(_)))
        .collect();
    assert!(
        pred_occs.len() >= 2,
        "expected multiple versioned occurrences"
    );
    let _ = path2;
}

#[test]
fn filler_guides_execution_to_matching_paths() {
    let src = r#"
proc t(in n: int, out x: int) {
  assume(n = 3);
  if (?p1) {
    x := 1;
  } else {
    x := 2;
  }
}
"#;
    let p = parse_program(src).unwrap();
    let mut ctx = SymCtx::new(&p);
    // fill ?p1 with n < 0: the then-branch is infeasible under S
    let mut filler = MapFiller::default();
    filler
        .preds
        .insert(pins_ir::PHoleId(0), parse_pred_in(&p, "n < 0").unwrap());
    let cfg = ExploreConfig {
        exit_first: false,
        ..ExploreConfig::default()
    };
    let mut ex = Explorer::new(&p, cfg, feasibility());
    let path = ex.explore_one(&mut ctx, &filler, &HashSet::new()).unwrap();
    // the substituted condition of the taken path must be satisfiable;
    // combined with assume(n=3), only the else branch works, whose
    // substituted form contains !(n < 0)
    let r = SmtSession::new(SmtConfig::default()).check_under(&mut ctx.arena, &path.substituted);
    assert!(r.is_sat());
    // x must end as 2 on this path: conjunct x@1 = 2 present
    let x = p.var_by_name("x").unwrap();
    let x1 = ctx.var_term(x, 1);
    let two = ctx.arena.mk_int(2);
    let expect = ctx.arena.mk_eq(x1, two);
    assert!(path.conjuncts.contains(&expect));
}

#[test]
fn apply_filler_translates_under_occurrence_vmap() {
    let src = r#"
proc t(in n: int, out x: int) {
  x := 5;
  x := ?e1;
}
"#;
    let p = parse_program(src).unwrap();
    let mut ctx = SymCtx::new(&p);
    let mut ex = Explorer::new(&p, ExploreConfig::default(), None);
    let path = ex
        .explore_one(&mut ctx, &EmptyFiller, &HashSet::new())
        .unwrap();
    // condition: x@1 = 5, x@2 = hole(e1 @ {x->1})
    let mut filler = MapFiller::default();
    filler
        .exprs
        .insert(pins_ir::EHoleId(0), parse_expr_in(&p, "x + 1").unwrap());
    let last = *path.conjuncts.last().unwrap();
    let substituted = apply_filler_term(&mut ctx, &p, last, &filler);
    // the candidate `x + 1` must be read at version 1 (value 5), so
    // x@2 = x@1 + 1; combined with x@1 = 5 and x@2 != 6 -> unsat
    let x = p.var_by_name("x").unwrap();
    let x2 = ctx.var_term(x, 2);
    let six = ctx.arena.mk_int(6);
    let ne = ctx.arena.mk_neq(x2, six);
    let first = path.conjuncts[0];
    let mut session = SmtSession::new(SmtConfig::default());
    assert!(session.is_unsat_under(&mut ctx.arena, &[first, substituted, ne]));
}

#[test]
fn loop_entry_prefixes_recorded() {
    let p = sum_program();
    let mut ctx = SymCtx::new(&p);
    let mut ex = Explorer::new(&p, ExploreConfig::default(), feasibility());
    let path = ex
        .explore_one(&mut ctx, &EmptyFiller, &HashSet::new())
        .unwrap();
    assert_eq!(path.loop_entries.len(), 1);
    let (lid, prefix, vmap) = &path.loop_entries[0];
    assert_eq!(lid.0, 0);
    // prefix covers assume(n>=0) and the initialisation assignments
    assert_eq!(*prefix, 3);
    let i = p.var_by_name("i").unwrap();
    assert_eq!(version_of(vmap, i), 1);
}

#[test]
fn exit_statement_ends_paths() {
    let src = r#"
proc f(in n: int, out x: int) {
  x := 1;
  exit;
  x := 2;
}
"#;
    let p = parse_program(src).unwrap();
    let mut ctx = SymCtx::new(&p);
    let mut ex = Explorer::new(&p, ExploreConfig::default(), feasibility());
    let path = ex
        .explore_one(&mut ctx, &EmptyFiller, &HashSet::new())
        .unwrap();
    assert_eq!(path.conjuncts.len(), 1); // only x@1 = 1
    let x = p.var_by_name("x").unwrap();
    assert_eq!(version_of(&path.final_vmap, x), 1);
}

#[test]
fn star_guards_branch_freely() {
    let src = r#"
proc f(out x: int) {
  if (*) { x := 1; } else { x := 2; }
}
"#;
    let p = parse_program(src).unwrap();
    let mut ctx = SymCtx::new(&p);
    let mut ex = Explorer::new(&p, ExploreConfig::default(), None);
    let paths = ex.enumerate(&mut ctx, &EmptyFiller, 100);
    assert_eq!(paths.len(), 2);
}
