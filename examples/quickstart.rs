//! Quickstart: synthesize the inverse of a small arithmetic program.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```
//!
//! This walks the whole PINS pipeline on a toy problem: compose a program
//! with an inverse template, give the engine candidate sets, run Algorithm 1,
//! and print the synthesized inverse with the concrete tests PINS generated
//! from its explored paths.

use pins::core::{Spec, SpecItem};
use pins::ir::{parse_expr_in, parse_pred_in, program_to_string};
use pins::prelude::*;

fn main() {
    // The program to invert: doubling by repeated addition.
    let original = r#"
proc double(in n: int, out m: int) {
  local i: int;
  assume(n >= 0);
  i := 0; m := 0;
  while (i < n) {
    m, i := m + 2, i + 1;
  }
}
"#;
    // The inverse template: same control-flow skeleton, holes for the
    // initialisation, the guard, and the loop body (Section 3 of the paper).
    let template = r#"
proc double_inv(in m: int, out nI: int) {
  local j: int;
  j, nI := ?e1, ?e2;
  while (?p1) {
    nI, j := ?e3, ?e4;
  }
}
"#;
    let mut session = Session::from_sources(original, template);
    let composed = session.composed.clone();

    // Candidate sets Δe and Δp — in a real workflow these come from the
    // template miner (see the `mining_demo` example).
    session.expr_candidates = ["0", "m", "nI + 1", "nI - 1", "j + 2", "j + 1", "j - 2"]
        .iter()
        .map(|src| parse_expr_in(&composed, src).expect("candidate parses"))
        .collect();
    session.pred_candidates = ["j < m", "nI < m", "j < nI"]
        .iter()
        .map(|src| parse_pred_in(&composed, src).expect("candidate parses"))
        .collect();

    // The identity specification: the inverse must reproduce the input n.
    session.spec = Spec {
        items: vec![SpecItem::IntEq {
            input: composed.var_by_name("n").expect("n exists"),
            output: composed.var_by_name("nI").expect("nI exists"),
        }],
    };

    let outcome = Pins::new(PinsConfig::default())
        .run(&mut session)
        .expect("synthesis succeeds");

    println!(
        "synthesized {} inverse(s) in {} iterations over {} paths ({}ms):",
        outcome.solutions.len(),
        outcome.iterations,
        outcome.paths_explored,
        outcome.stats().total_time.as_millis()
    );
    for sol in &outcome.solutions {
        println!("\n{}", program_to_string(&sol.inverse));
    }
    println!("concrete tests generated from the explored paths:");
    for t in &outcome.tests {
        println!("  {:?}", t.inputs);
    }

    // The one-call facade: `pins::invert` mines candidates automatically
    // (Section 3) and derives the identity spec from the `I`-suffix naming
    // convention. Auto-mining is a starting point, not a guarantee — the
    // paper's mining loop is semi-automated for a reason.
    match invert(original, template, PinsConfig::default()) {
        Ok(auto) => println!(
            "\npins::invert with auto-mined candidates: {} solution(s)",
            auto.solutions.len()
        ),
        Err(e) => println!("\npins::invert with auto-mined candidates: {e}"),
    }
}
