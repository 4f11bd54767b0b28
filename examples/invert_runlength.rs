//! Invert the paper's running example: in-place run-length encoding
//! (Figures 1 and 2 of the PLDI 2011 paper).
//!
//! ```sh
//! cargo run --release --example invert_runlength
//! ```
//!
//! This uses the benchmark suite's curated session — the same candidate
//! sets the paper arrives at after its semi-automated mining loop — runs
//! PINS, validates the result both by concrete round trips and by bounded
//! model checking, and decodes a sample input with the synthesized inverse.

use pins::bmc::{check_inverse, BmcConfig};
use pins::ir::{program_to_string, run, Store, Value};
use pins::prelude::*;
use pins::suite::{benchmark, BenchmarkId};

fn main() {
    let bench = benchmark(BenchmarkId::InPlaceRl);
    let mut session = bench.session();
    println!(
        "original program:\n{}",
        program_to_string(&session.original)
    );

    let mut config = bench.recommended_config();
    config.time_budget = Some(std::time::Duration::from_secs(600));
    let outcome = Pins::new(config)
        .run(&mut session)
        .expect("synthesis succeeds");
    println!(
        "PINS finished after {} iterations / {} paths in {:.2}s with {} solution(s)",
        outcome.iterations,
        outcome.paths_explored,
        outcome.stats().total_time.as_secs_f64(),
        outcome.solutions.len()
    );
    let inverse = &outcome.solutions[0].inverse;
    println!("\nsynthesized decoder:\n{}", program_to_string(inverse));

    // validate: concrete round trips on random workloads
    let mut ok = 0;
    for seed in 0..10 {
        if bench.round_trip(inverse, seed, 6).unwrap_or(false) {
            ok += 1;
        }
    }
    println!("concrete round trips: {ok}/10 pass");

    // validate: bounded model checking (the paper used CBMC with unroll 10,
    // arrays of length <= 4)
    let report = check_inverse(
        &session,
        inverse,
        BmcConfig {
            unroll: 4,
            input_bound: 3,
            ..BmcConfig::default()
        },
    );
    println!(
        "bounded model check: verified={} over {} paths in {:.2}s",
        report.verified,
        report.paths,
        report.time.as_secs_f64()
    );

    // demo: decode a concrete compression
    let env = bench.extern_env();
    let p = &session.original;
    let mut inputs = Store::new();
    let data = [4, 4, 4, 9, 9, 2];
    inputs.insert(p.var_by_name("A").unwrap(), Value::arr_from(&data));
    inputs.insert(p.var_by_name("n").unwrap(), Value::Int(data.len() as i64));
    let mid = run(p, &inputs, &env, 100_000).expect("encoder runs");
    let m = mid[&p.var_by_name("m").unwrap()].as_int().unwrap();
    println!(
        "\nencoded {:?} -> values {:?}, counts {:?}",
        data,
        mid[&p.var_by_name("A").unwrap()].arr_prefix(m).unwrap(),
        mid[&p.var_by_name("N").unwrap()].arr_prefix(m).unwrap()
    );
    let mut inv_inputs = Store::new();
    for name in ["A", "N", "m"] {
        inv_inputs.insert(
            inverse.var_by_name(name).unwrap(),
            mid[&p.var_by_name(name).unwrap()].clone(),
        );
    }
    let out = run(inverse, &inv_inputs, &env, 100_000).expect("decoder runs");
    let n = out[&inverse.var_by_name("iI").unwrap()].as_int().unwrap();
    println!(
        "decoded back -> {:?}",
        out[&inverse.var_by_name("AI").unwrap()]
            .arr_prefix(n)
            .unwrap()
    );
}
