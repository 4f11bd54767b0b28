//! Integration tests for the degradation ladder: runaway SMT queries must
//! return `Unknown` with a machine-readable reason instead of hanging, and a
//! panicking constraint verification must degrade that constraint to
//! "unverified" instead of taking the process down.

use std::time::{Duration, Instant};

use pins::core::{
    build_domains, terminate_constraints, Constraint, ConstraintLabel, DomainConfig, HoleSolver,
    Session, Spec, SpecItem,
};
use pins::ir::parse_expr_in;
use pins::logic::{Sort, TermArena, TermId};
use pins::prelude::StopReason;
use pins::smt::{SmtConfig, SmtResult, SmtSession};
use pins::symexec::SymCtx;

fn int_var(a: &mut TermArena, name: &str) -> TermId {
    let s = a.sym(name);
    a.mk_var(s, 0, Sort::Int)
}

/// A pigeonhole-style runaway: `n` integers in `[0, n-2]`, pairwise
/// distinct. Unsatisfiable, but the proof forces the solver through an
/// exponential branch-and-bound search.
fn pigeonhole(a: &mut TermArena, n: i64) -> Vec<TermId> {
    let lo = a.mk_int(0);
    let hi = a.mk_int(n - 2);
    let vars: Vec<TermId> = (0..n).map(|i| int_var(a, &format!("p{i}"))).collect();
    let mut fs = Vec::new();
    for &v in &vars {
        fs.push(a.mk_ge(v, lo));
        fs.push(a.mk_le(v, hi));
    }
    for i in 0..vars.len() {
        for j in (i + 1)..vars.len() {
            let eq = a.mk_eq(vars[i], vars[j]);
            fs.push(a.mk_not(eq));
        }
    }
    fs
}

/// The tentpole acceptance test: a query the solver cannot finish inside its
/// wall-clock budget answers `Unknown(Deadline)` within 2x the configured
/// deadline — no hang, no panic.
#[test]
fn runaway_query_degrades_to_unknown_deadline_within_twice_the_limit() {
    let deadline = Duration::from_millis(250);
    let config = SmtConfig {
        time_limit: Some(deadline),
        retry_unknown: false, // the 2x bound is on a single attempt
        ..SmtConfig::default()
    };
    let mut session = SmtSession::new(config);
    let mut a = TermArena::new();
    let fs = pigeonhole(&mut a, 12);

    let start = Instant::now();
    let result = session.check_under(&mut a, &fs);
    let elapsed = start.elapsed();

    assert!(
        matches!(result, SmtResult::Unknown(StopReason::Deadline)),
        "{result:?}"
    );
    assert!(
        elapsed < 2 * deadline,
        "answered after {elapsed:?}, limit was {deadline:?}"
    );
    assert_eq!(session.stats().unknown_deadline, 1);
}

/// Cancelling the shared budget from outside stops the same runaway query
/// with `Unknown(Cancelled)`; a pre-cancelled budget returns immediately.
#[test]
fn cancelled_budget_stops_runaway_query() {
    let config = SmtConfig {
        retry_unknown: false,
        ..SmtConfig::default()
    };
    let mut session = SmtSession::new(config);
    let budget = pins::budget::Budget::unlimited();
    session.set_budget(budget.clone());
    budget.cancel();

    let mut a = TermArena::new();
    let fs = pigeonhole(&mut a, 12);
    let start = Instant::now();
    let result = session.check_under(&mut a, &fs);
    assert!(
        matches!(result, SmtResult::Unknown(StopReason::Cancelled)),
        "{result:?}"
    );
    assert!(start.elapsed() < Duration::from_secs(5));
}

/// Synthesize-the-inverse-of-`y := x + 7` session, as in the engine tests.
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

/// Runs `HoleSolver::solve` on the add7 session with one deliberately
/// poisoned constraint (an `Int`-sorted goal, which the SMT encoder panics
/// on) appended, returning the surviving solutions and the panic count.
fn solve_with_poison() -> (Vec<String>, u64) {
    let session = add7_session();
    let domains = build_domains(&session, DomainConfig::default());
    let mut ctx = SymCtx::new(&session.composed);
    let mut constraints = terminate_constraints(&session, &domains, &mut ctx);
    let poison_goal = ctx.arena.mk_int(42); // not a boolean: encoder panics
    constraints.push(Constraint {
        hyps: vec![],
        goal: poison_goal,
        label: ConstraintLabel::SafePath,
    });
    let mut smt = SmtSession::new(SmtConfig::default());
    let mut solver = HoleSolver::new(&domains);
    let sols = solver.solve(&mut ctx, &session, &domains, &constraints, 4, &mut smt);
    let rendered = sols
        .iter()
        .map(|s| format!("{:?}{:?}", s.exprs, s.preds))
        .collect();
    (rendered, solver.stats().worker_panics)
}

/// A constraint whose verification panics is degraded to "unverified"
/// (counted, candidate rejected) instead of aborting the search. (The
/// parallel half of this test went with parallel verification.)
#[test]
fn panicking_constraint_is_isolated_in_serial_and_parallel_verification() {
    let (sols, panics) = solve_with_poison();

    assert!(panics >= 1, "verification must record the panic");
    // the poison constraint mentions no holes, so its (deterministic)
    // failure refutes every candidate: no solution survives
    assert!(sols.is_empty());
}
