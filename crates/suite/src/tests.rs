use pins_core::{Pins, PinsConfig};
use pins_ir::{program_to_string, run, Value};

use crate::*;

#[test]
fn all_sessions_build() {
    for id in ALL {
        let b = benchmark(id);
        let session = b.session();
        assert!(
            session.composed.num_eholes > 0,
            "{}: template must contain holes",
            b.name()
        );
        // every expression hole must have at least one candidate of its type
        let domains = pins_core::build_domains(&session, pins_core::DomainConfig::default());
        for (h, dom) in domains.exprs.iter().enumerate() {
            if (h as u32) < session.composed.num_eholes {
                assert!(
                    !dom.is_empty(),
                    "{}: hole ?{} has an empty candidate domain",
                    b.name(),
                    session.composed.ehole_names[h]
                );
            }
        }
    }
}

#[test]
fn loc_in_paper_range() {
    for id in ALL {
        let b = benchmark(id);
        let (orig, inv) = b.loc();
        assert!(
            (3..=40).contains(&orig),
            "{}: original LoC {orig} out of expected range",
            b.name()
        );
        assert!(
            (3..=25).contains(&inv),
            "{}: template LoC {inv} out of expected range",
            b.name()
        );
    }
}

#[test]
fn mining_produces_candidates_for_all() {
    for id in ALL {
        let b = benchmark(id);
        let (mined, _mods) = b.mined();
        assert!(
            mined.total() >= 4,
            "{}: mining produced only {} candidates",
            b.name(),
            mined.total()
        );
    }
}

#[test]
fn forward_programs_run_on_generated_inputs() {
    for id in ALL {
        let b = benchmark(id);
        let session = b.session();
        let env = b.extern_env();
        for seed in 0..3 {
            let inputs = b.gen_input(seed, 5);
            run(&session.original, &inputs, &env, 1_000_000)
                .unwrap_or_else(|e| panic!("{}: forward run failed with {e}", b.name()));
        }
    }
}

#[test]
fn runlength_forward_semantics() {
    let b = benchmark(BenchmarkId::InPlaceRl);
    let session = b.session();
    let env = b.extern_env();
    let p = &session.original;
    let mut inputs = pins_ir::Store::new();
    inputs.insert(p.var_by_name("A").unwrap(), Value::arr_from(&[5, 5, 7]));
    inputs.insert(p.var_by_name("n").unwrap(), Value::Int(3));
    let out = run(p, &inputs, &env, 100_000).unwrap();
    let m = out[&p.var_by_name("m").unwrap()].as_int().unwrap();
    assert_eq!(m, 2);
    assert_eq!(
        out[&p.var_by_name("A").unwrap()].arr_prefix(m).unwrap(),
        vec![5, 7]
    );
    assert_eq!(
        out[&p.var_by_name("N").unwrap()].arr_prefix(m).unwrap(),
        vec![2, 1]
    );
}

#[test]
fn lzw_forward_round_trips_by_hand() {
    let b = benchmark(BenchmarkId::Lzw);
    let session = b.session();
    let env = b.extern_env();
    let p = &session.original;
    let mut inputs = pins_ir::Store::new();
    inputs.insert(
        p.var_by_name("A").unwrap(),
        Value::arr_from(&[1, 0, 1, 0, 1, 0]),
    );
    inputs.insert(p.var_by_name("n").unwrap(), Value::Int(6));
    let out = run(p, &inputs, &env, 100_000).unwrap();
    let k = out[&p.var_by_name("k").unwrap()].as_int().unwrap();
    let codes = out[&p.var_by_name("B").unwrap()].arr_prefix(k).unwrap();
    let lits = out[&p.var_by_name("C").unwrap()].arr_prefix(k).unwrap();
    // decode by hand with the LZ78 rule
    let mut dict: Vec<Vec<i64>> = vec![vec![]];
    let mut decoded = Vec::new();
    for (code, lit) in codes.iter().zip(&lits) {
        let mut w = dict[*code as usize].clone();
        decoded.extend(w.iter().copied());
        decoded.push(*lit);
        w.push(*lit);
        dict.push(w);
    }
    assert_eq!(decoded, vec![1, 0, 1, 0, 1, 0]);
}

#[test]
fn lz77_forward_round_trips_by_hand() {
    let b = benchmark(BenchmarkId::Lz77);
    let session = b.session();
    let env = b.extern_env();
    let p = &session.original;
    let data = vec![1, 1, 1, 0, 1, 1, 0];
    let mut inputs = pins_ir::Store::new();
    inputs.insert(p.var_by_name("A").unwrap(), Value::arr_from(&data));
    inputs.insert(p.var_by_name("n").unwrap(), Value::Int(data.len() as i64));
    let out = run(p, &inputs, &env, 1_000_000).unwrap();
    let k = out[&p.var_by_name("k").unwrap()].as_int().unwrap();
    let offs = out[&p.var_by_name("P").unwrap()].arr_prefix(k).unwrap();
    let lens = out[&p.var_by_name("L").unwrap()].arr_prefix(k).unwrap();
    let lits = out[&p.var_by_name("C").unwrap()].arr_prefix(k).unwrap();
    // decode by hand: copy `len` symbols from `off` back, then the literal
    let mut decoded: Vec<i64> = Vec::new();
    for i in 0..k as usize {
        for _ in 0..lens[i] {
            let src = decoded.len() - offs[i] as usize;
            decoded.push(decoded[src]);
        }
        decoded.push(lits[i]);
    }
    assert_eq!(decoded, data);
}

#[test]
fn permute_count_forward_matches_definition() {
    let b = benchmark(BenchmarkId::PermuteCount);
    let session = b.session();
    let env = b.extern_env();
    let p = &session.original;
    let perm = vec![2, 0, 1];
    let mut inputs = pins_ir::Store::new();
    inputs.insert(p.var_by_name("p").unwrap(), Value::arr_from(&perm));
    inputs.insert(p.var_by_name("n").unwrap(), Value::Int(3));
    let out = run(p, &inputs, &env, 100_000).unwrap();
    let c = out[&p.var_by_name("c").unwrap()].arr_prefix(3).unwrap();
    assert_eq!(c, vec![0, 0, 1]);
}

// ---- end-to-end synthesis for the fast benchmarks ----

fn synthesize_and_check(id: BenchmarkId, sizes: &[usize]) {
    let b = benchmark(id);
    let mut session = b.session();
    let config = b.recommended_config();
    let outcome = Pins::new(config)
        .run(&mut session)
        .unwrap_or_else(|e| panic!("{}: synthesis failed: {e}", b.name()));
    assert!(
        !outcome.solutions.is_empty() && outcome.solutions.len() <= 6,
        "{}: {} solutions survived",
        b.name(),
        outcome.solutions.len()
    );
    // at least one surviving solution passes concrete round trips
    let mut correct = 0;
    'sols: for sol in &outcome.solutions {
        for &size in sizes {
            for seed in 0..4 {
                match b.round_trip(&sol.inverse, seed, size) {
                    Ok(true) => {}
                    _ => continue 'sols,
                }
            }
        }
        correct += 1;
    }
    assert!(
        correct >= 1,
        "{}: no surviving solution is a concrete inverse:\n{}",
        b.name(),
        program_to_string(&outcome.solutions[0].inverse)
    );
}

#[test]
fn synthesize_sum_i() {
    synthesize_and_check(BenchmarkId::SumI, &[0, 1, 5]);
}

#[test]
fn synthesize_vector_shift() {
    synthesize_and_check(BenchmarkId::VectorShift, &[0, 1, 4]);
}

#[test]
fn synthesize_vector_scale() {
    synthesize_and_check(BenchmarkId::VectorScale, &[0, 2, 4]);
}

#[test]
fn synthesize_vector_rotate() {
    synthesize_and_check(BenchmarkId::VectorRotate, &[0, 2, 4]);
}

#[test]
fn synthesize_lu_decomp() {
    synthesize_and_check(BenchmarkId::LuDecomp, &[1]);
}

#[test]
fn synthesize_serialize() {
    synthesize_and_check(BenchmarkId::Serialize, &[0, 1, 4]);
}

#[test]
fn lu_decomp_converges_within_64_candidates() {
    // sliced, each spec conjunct observes one hole, so a refutation blocks
    // one hole's choice instead of a whole 9^4 assignment (6,571 candidates
    // when every constraint carried every hole)
    let b = benchmark(BenchmarkId::LuDecomp);
    let mut session = b.session();
    let outcome = Pins::new(b.recommended_config()).run(&mut session).unwrap();
    assert!(outcome.converged);
    let candidates = outcome.metrics().get("solve.candidates");
    assert!(candidates <= 64, "{candidates} candidates");
}

#[test]
fn recommended_configs_have_budgets_for_heavy_benchmarks() {
    for id in [BenchmarkId::Lz77, BenchmarkId::Lzw, BenchmarkId::InPlaceRl] {
        let c = benchmark(id).recommended_config();
        assert!(c.time_budget.is_some());
    }
    let _ = PinsConfig::default();
}
