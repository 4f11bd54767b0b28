use super::*;
use pins_core::{Session, Spec, SpecItem};

fn add7_session_with_inverse(correct: bool) -> (Session, Program) {
    let inv_body = if correct {
        "xI := y - 7;"
    } else {
        "xI := y + 7;"
    };
    let mut session = Session::from_sources(
        "proc add7(in x: int, out y: int) { y := x + 7; }",
        &format!("proc add7_inv(in y: int, out xI: int) {{ {inv_body} }}"),
    );
    let c = session.composed.clone();
    session.spec = Spec {
        items: vec![SpecItem::IntEq {
            input: c.var_by_name("x").unwrap(),
            output: c.var_by_name("xI").unwrap(),
        }],
    };
    // the "inverse" here is the whole template part (already closed)
    let mut inverse = session.composed.clone();
    inverse.body = session.template_body().to_vec();
    (session, inverse)
}

#[test]
fn correct_inverse_verifies() {
    let (session, inverse) = add7_session_with_inverse(true);
    let report = check_inverse(&session, &inverse, BmcConfig::default());
    assert!(report.verified, "{report:?}");
    assert_eq!(report.paths, 1);
}

#[test]
fn wrong_inverse_refuted_with_counterexample() {
    let (session, inverse) = add7_session_with_inverse(false);
    let report = check_inverse(&session, &inverse, BmcConfig::default());
    assert!(!report.verified);
    assert!(report.counterexample.is_some());
}

fn double_session(inv_step: &str) -> (Session, Program) {
    let mut session = Session::from_sources(
        r#"
proc double(in n: int, out m: int) {
  local i: int;
  assume(n >= 0);
  i := 0; m := 0;
  while (i < n) { m, i := m + 2, i + 1; }
}
"#,
        &format!(
            r#"
proc double_inv(in m: int, out nI: int) {{
  local j: int;
  j := 0; nI := 0;
  while (j < m) {{ nI, j := nI + 1, {inv_step}; }}
}}
"#
        ),
    );
    let c = session.composed.clone();
    session.spec = Spec {
        items: vec![SpecItem::IntEq {
            input: c.var_by_name("n").unwrap(),
            output: c.var_by_name("nI").unwrap(),
        }],
    };
    let mut inverse = session.composed.clone();
    inverse.body = session.template_body().to_vec();
    (session, inverse)
}

#[test]
fn loopy_inverse_verifies_within_bounds() {
    let (session, inverse) = double_session("j + 2");
    let config = BmcConfig {
        unroll: 5,
        input_bound: 3,
        ..BmcConfig::default()
    };
    let report = check_inverse(&session, &inverse, config);
    assert!(report.verified, "{report:?}");
    assert!(report.paths > 3);
}

#[test]
fn loopy_wrong_inverse_refuted() {
    let (session, inverse) = double_session("j + 1");
    let config = BmcConfig {
        unroll: 5,
        input_bound: 3,
        ..BmcConfig::default()
    };
    let report = check_inverse(&session, &inverse, config);
    assert!(!report.verified);
}

#[test]
fn diverging_inverse_fails_its_unwinding_check() {
    // `j` never moves, so the inverse loops forever whenever `m > 0`; its
    // only complete paths have `m <= 0`, where it is right
    let (session, inverse) = double_session("j");
    let config = BmcConfig {
        unroll: 5,
        input_bound: 3,
        ..BmcConfig::default()
    };
    let report = check_inverse(&session, &inverse, config);
    assert!(!report.verified, "{report:?}");
    assert!(report.counterexample.is_none(), "{report:?}");
    assert!(report.stopped.is_none(), "{report:?}");
    let unwinding = report.unwinding.expect("the cut loop can iterate on");
    assert!(unwinding.contains("unroll bound 5"), "{unwinding}");
}

#[test]
fn loops_bounded_by_the_inputs_pass_their_unwinding_checks() {
    // every loop of `double` and of its inverse exits within 3 iterations
    // when `n <= 3`, so no prefix cut at 5 can enter again
    let (session, inverse) = double_session("j + 2");
    let config = BmcConfig {
        unroll: 5,
        input_bound: 3,
        ..BmcConfig::default()
    };
    let report = check_inverse(&session, &inverse, config);
    assert!(report.verified && report.unwinding.is_none(), "{report:?}");
    // at an unroll bound below the loops' trip counts, the check is
    // incomplete rather than verified
    let report = check_inverse(
        &session,
        &inverse,
        BmcConfig {
            unroll: 2,
            ..config
        },
    );
    assert!(!report.verified && report.unwinding.is_some(), "{report:?}");
}
