//! Integration tests of the solver stack: properties that span the
//! logic/SAT/SMT/symexec crate boundaries.

use std::collections::HashSet;

use pins_prng::SplitMix64;

use pins::ir::{parse_program, run, ExternEnv, Store, Value};
use pins::logic::Sort;
use pins::smt::{SmtConfig, SmtResult, SmtSession};
use pins::symexec::{EmptyFiller, ExploreConfig, Explorer, SymCtx};

/// A feasibility session for an explorer that prunes infeasible branches.
fn feasibility() -> SmtSession {
    SmtSession::new(SmtConfig::default())
}

/// The symbolic executor and the concrete interpreter agree: a concrete run
/// of a closed program follows exactly one symbolic path, and the model of
/// that path's condition reproduces the run's I/O.
#[test]
fn symbolic_paths_cover_concrete_runs() {
    let src = r#"
proc clampsum(in a: int, in b: int, out s: int) {
  s := a + b;
  if (s < 0) {
    s := 0;
  }
}
"#;
    let p = parse_program(src).unwrap();
    let mut ctx = SymCtx::new(&p);
    let mut ex = Explorer::new(&p, ExploreConfig::default(), None);
    let paths = ex.enumerate(&mut ctx, &EmptyFiller, 100);
    assert_eq!(paths.len(), 2);

    let mut session = SmtSession::new(SmtConfig::default());
    for (a, b) in [(3i64, 4i64), (-5, 2), (0, 0), (7, -9)] {
        // concrete run
        let mut inputs = Store::new();
        inputs.insert(p.var_by_name("a").unwrap(), Value::Int(a));
        inputs.insert(p.var_by_name("b").unwrap(), Value::Int(b));
        let out = run(&p, &inputs, &ExternEnv::new(), 1000).unwrap();
        let s = out[&p.var_by_name("s").unwrap()].as_int().unwrap();
        // exactly one path condition is satisfiable with these inputs, and
        // it implies the same output
        let mut matching = 0;
        for path in &paths {
            let va = ctx.var_term(p.var_by_name("a").unwrap(), 0);
            let vb = ctx.var_term(p.var_by_name("b").unwrap(), 0);
            let ca = ctx.arena.mk_int(a);
            let cb = ctx.arena.mk_int(b);
            let ea = ctx.arena.mk_eq(va, ca);
            let eb = ctx.arena.mk_eq(vb, cb);
            let mut fs = path.conjuncts.clone();
            fs.push(ea);
            fs.push(eb);
            if let SmtResult::Sat(model) = session.check_under(&mut ctx.arena, &fs) {
                matching += 1;
                let sv = p.var_by_name("s").unwrap();
                let s_final = ctx.var_at(sv, &path.final_vmap);
                assert_eq!(model.eval_int(&ctx.arena, s_final), s);
            }
        }
        assert_eq!(matching, 1, "inputs ({a},{b}) must select exactly one path");
    }
}

#[test]
fn explored_paths_have_models_matching_their_guards() {
    let src = r#"
proc steps(in n: int, out c: int) {
  local i: int;
  assume(n >= 0);
  i := 0; c := 0;
  while (i < n) {
    c := c + 3;
    i := i + 1;
  }
}
"#;
    let p = parse_program(src).unwrap();
    let mut ctx = SymCtx::new(&p);
    let mut avoid = HashSet::new();
    let mut session = SmtSession::new(SmtConfig::default());
    for expected_iters in 0..4i64 {
        let mut ex = Explorer::new(&p, ExploreConfig::default(), Some(feasibility()));
        let path = ex.explore_one(&mut ctx, &EmptyFiller, &avoid).unwrap();
        avoid.insert(path.key);
        let SmtResult::Sat(model) = session.check_under(&mut ctx.arena, &path.conjuncts) else {
            panic!("explored path must be satisfiable");
        };
        let n = ctx.var_term(p.var_by_name("n").unwrap(), 0);
        assert_eq!(
            model.eval_int(&ctx.arena, n),
            expected_iters,
            "exit-first exploration yields paths in unrolling order"
        );
    }
}

/// Random straight-line programs: the final path condition's model
/// agrees with concrete interpretation.
#[test]
fn straightline_symbolic_concrete_agreement() {
    let mut rng = SplitMix64::new(0x57AC_0001);
    let cases = if cfg!(feature = "heavy-tests") {
        128
    } else {
        24
    };
    for _ in 0..cases {
        let ops: Vec<(u8, i64)> = (0..rng.gen_index(7) + 1)
            .map(|_| (rng.gen_index(3) as u8, rng.gen_range(-5..5)))
            .collect();
        let mut body = String::new();
        for (op, c) in &ops {
            match op {
                0 => body.push_str(&format!("x := x + {};\n", c.abs())),
                1 => body.push_str(&format!("x := x - {};\n", c.abs())),
                _ => body.push_str(&format!("x := x + x + {};\n", c.abs())),
            }
        }
        let src = format!("proc f(in x0: int, out x: int) {{\n x := x0;\n {body} }}");
        let p = parse_program(&src).unwrap();
        let mut ctx = SymCtx::new(&p);
        let mut ex = Explorer::new(&p, ExploreConfig::default(), Some(feasibility()));
        let path = ex
            .explore_one(&mut ctx, &EmptyFiller, &HashSet::new())
            .unwrap();

        let x0 = 3i64;
        let mut inputs = Store::new();
        inputs.insert(p.var_by_name("x0").unwrap(), Value::Int(x0));
        let out = run(&p, &inputs, &ExternEnv::new(), 10_000).unwrap();
        let expect = out[&p.var_by_name("x").unwrap()].as_int().unwrap();

        let tx0 = ctx.var_term(p.var_by_name("x0").unwrap(), 0);
        let c = ctx.arena.mk_int(x0);
        let eq = ctx.arena.mk_eq(tx0, c);
        let mut fs = path.conjuncts.clone();
        fs.push(eq);
        let mut session = SmtSession::new(SmtConfig::default());
        let SmtResult::Sat(model) = session.check_under(&mut ctx.arena, &fs) else {
            panic!("path must be satisfiable")
        };
        let xv = p.var_by_name("x").unwrap();
        let x_final = ctx.var_at(xv, &path.final_vmap);
        assert_eq!(model.eval_int(&ctx.arena, x_final), expect);
    }
}

#[test]
fn array_sort_reasoning_spans_the_stack() {
    // swap two cells twice is the identity, proven by the solver
    let src = r#"
proc swap2(inout A: int[], in i: int, in j: int) {
  local t: int;
  t := A[i];
  A[i] := A[j];
  A[j] := t;
  t := A[i];
  A[i] := A[j];
  A[j] := t;
}
"#;
    let p = parse_program(src).unwrap();
    let mut ctx = SymCtx::new(&p);
    let mut ex = Explorer::new(&p, ExploreConfig::default(), Some(feasibility()));
    let path = ex
        .explore_one(&mut ctx, &EmptyFiller, &HashSet::new())
        .unwrap();
    // goal: forall k. A_final[k] = A_0[k]
    let av = p.var_by_name("A").unwrap();
    let a0 = ctx.var_term(av, 0);
    let af = ctx.var_at(av, &path.final_vmap);
    let k = ctx.arena.symbols_mut().fresh("k");
    let bk = ctx.arena.mk_bound(k, Sort::Int);
    let s0 = ctx.arena.mk_sel(a0, bk);
    let sf = ctx.arena.mk_sel(af, bk);
    let eq = ctx.arena.mk_eq(s0, sf);
    let goal = ctx.arena.mk_forall(vec![(k, Sort::Int)], eq);
    let mut session = SmtSession::new(SmtConfig::default());
    assert!(session.entails(&mut ctx.arena, &path.conjuncts, goal));
}
