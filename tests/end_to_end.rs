//! Cross-crate integration tests: the full pipeline from DSL sources
//! through synthesis, validation, and the baselines.

use pins::bmc::{check_inverse, BmcConfig};
use pins::cegis::{synthesize, CegisConfig};
use pins::core::{Pins, PinsConfig, Session, Spec, SpecItem};
use pins::ir::{parse_expr_in, program_to_string};
use pins::suite::{benchmark, BenchmarkId};

/// A fresh inversion problem defined from scratch (not part of the suite):
/// offset-and-scale by constants.
fn affine_session() -> Session {
    let mut session = Session::from_sources(
        r#"
proc affine(in x: int, out y: int) {
  y := x + x + 3;
}
"#,
        r#"
proc affine_inv(in y: int, out xI: int) {
  local t: int;
  t := ?e1;
  xI := ?e2;
}
"#,
    );
    let c = session.composed.clone();
    session.expr_candidates = ["y - 3", "y + 3", "t - xI", "0", "t - t", "xI + t"]
        .iter()
        .map(|s| parse_expr_in(&c, s).unwrap())
        .collect();
    session.spec = Spec {
        items: vec![SpecItem::IntEq {
            input: c.var_by_name("x").unwrap(),
            output: c.var_by_name("xI").unwrap(),
        }],
    };
    session
}

#[test]
fn affine_is_not_invertible_with_linear_candidates_only() {
    // y = 2x + 3 needs halving, which no candidate provides: PINS must
    // prove non-invertibility over the template (the paper's debugging
    // story: the explored paths witness why)
    let mut session = affine_session();
    let err = Pins::new(PinsConfig::default())
        .run(&mut session)
        .unwrap_err();
    assert!(matches!(err, pins::core::PinsError::NoSolution { .. }));
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "synthesis is slow without optimizations; run with --release"
)]
fn pins_and_cegis_agree_on_sum_i() {
    let bench = benchmark(BenchmarkId::SumI);
    let mut session = bench.session();
    let outcome = Pins::new(bench.recommended_config())
        .run(&mut session)
        .unwrap();
    assert!(!outcome.solutions.is_empty());

    let env = bench.extern_env();
    let battery: Vec<_> = (0..12)
        .flat_map(|seed| [0usize, 1, 2, 4].map(|size| bench.gen_input(seed, size)))
        .collect();
    let report = synthesize(&session, &env, &battery, CegisConfig::default());
    let cegis_inv = report.solution.expect("cegis finds the Σi inverse");

    // both inverses agree on fresh concrete workloads
    for seed in 100..110 {
        assert!(
            bench
                .round_trip(&outcome.solutions[0].inverse, seed, 5)
                .unwrap(),
            "PINS inverse fails concretely"
        );
        assert!(
            bench.round_trip(&cegis_inv, seed, 5).unwrap(),
            "CEGIS inverse fails concretely"
        );
    }
}

#[test]
fn bmc_confirms_synthesized_vector_shift() {
    let bench = benchmark(BenchmarkId::VectorShift);
    let mut session = bench.session();
    let outcome = Pins::new(bench.recommended_config())
        .run(&mut session)
        .unwrap();
    let inverse = &outcome.solutions[0].inverse;
    let report = check_inverse(
        &session,
        inverse,
        BmcConfig {
            unroll: 3,
            input_bound: 2,
            ..BmcConfig::default()
        },
    );
    assert!(
        report.verified,
        "BMC rejected a synthesized inverse: {report:?}"
    );
}

#[test]
fn bmc_catches_a_planted_bug() {
    // take the correct run-length decoder but plant an off-by-one
    let bench = benchmark(BenchmarkId::SumI);
    let session = bench.session();
    let mut inverse = session.composed.clone();
    inverse.num_eholes = 0;
    inverse.num_pholes = 0;
    inverse.ehole_names.clear();
    inverse.phole_names.clear();
    let broken = r#"
proc sum_i_bad(in s: int, out nI: int) {
  local sI: int;
  nI := 0;
  sI := 0;
  while (sI < s) {
    nI := nI + 1;
    sI := sI + nI + 2;
  }
}
"#;
    let broken = pins::ir::parse_program(broken).unwrap();
    let (composed2, _, _) = session.original.concat(&broken);
    inverse.body = composed2.body[session.original.body.len()..].to_vec();
    // note: vars merged by name, so ids line up with the session's composed
    let report = check_inverse(
        &session,
        &inverse,
        BmcConfig {
            unroll: 6,
            input_bound: 4,
            ..BmcConfig::default()
        },
    );
    assert!(!report.verified, "BMC must refute the planted bug");
}

#[test]
fn synthesized_inverse_prints_as_valid_dsl() {
    let bench = benchmark(BenchmarkId::SumI);
    let mut session = bench.session();
    let outcome = Pins::new(bench.recommended_config())
        .run(&mut session)
        .unwrap();
    let printed = program_to_string(&outcome.solutions[0].inverse);
    let reparsed = pins::ir::parse_program(&printed)
        .unwrap_or_else(|e| panic!("printed inverse does not reparse: {e}\n{printed}"));
    assert_eq!(reparsed.num_eholes, 0);
}

#[test]
fn concrete_tests_satisfy_the_forward_precondition() {
    let bench = benchmark(BenchmarkId::SumI);
    let mut session = bench.session();
    let outcome = Pins::new(bench.recommended_config())
        .run(&mut session)
        .unwrap();
    let env = bench.extern_env();
    for test in &outcome.tests {
        let mut store = pins::ir::Store::new();
        for (name, value) in &test.inputs {
            store.insert(session.original.var_by_name(name).unwrap(), value.clone());
        }
        pins::ir::run(&session.original, &store, &env, 100_000)
            .expect("generated test violates the precondition");
    }
}
