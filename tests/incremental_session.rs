//! Integration tests for the incremental solver session: the deprecated
//! `verify_workers` knob changes nothing, every counter reads the same from
//! each layer's view, a run repeats its counts whatever ran before it in
//! the process, and the one-call `pins::invert` facade works end to end.

use pins::core::SolveStats;
use pins::ir::{program_to_string, run, ExternEnv, Store, Value};
use pins::prelude::*;
use pins::smt::SessionStats;
use pins::suite::{benchmark, BenchmarkId};

fn run_with(id: BenchmarkId, config: PinsConfig) -> PinsOutcome {
    let b = benchmark(id);
    let mut session = b.session();
    Pins::new(config)
        .run(&mut session)
        .unwrap_or_else(|e| panic!("{}: synthesis failed: {e}", b.name()))
}

fn run_bench(id: BenchmarkId) -> PinsOutcome {
    run_with(id, benchmark(id).recommended_config())
}

/// The observable result of a run: every surviving inverse, pretty-printed,
/// in order. Two runs agree iff these are byte-identical.
fn rendered(outcome: &PinsOutcome) -> Vec<String> {
    outcome
        .solutions
        .iter()
        .map(|s| program_to_string(&s.inverse))
        .collect()
}

/// `PinsConfig::verify_workers` is deprecated and has no effect: Σi asked
/// for 1 and for 4 workers gives byte-identical inverses and identical
/// counts.
#[test]
#[allow(deprecated)]
fn verify_workers_has_no_effect_on_sum_i() {
    let at = |workers: usize| {
        let mut config = benchmark(BenchmarkId::SumI).recommended_config();
        config.verify_workers = workers;
        run_with(BenchmarkId::SumI, config)
    };
    let one = at(1);
    let four = at(4);
    assert_eq!(rendered(&one), rendered(&four));
    let counts = |o: &PinsOutcome| {
        let p = o.stats();
        let solve = SolveStats::from_registry(o.metrics());
        let feas = SessionStats::from_registry(o.metrics(), "feas");
        [
            o.iterations as u64,
            o.paths_explored as u64,
            solve.candidates_proposed,
            p.smt_queries,
            p.smt_cache_hits,
            p.smt_cache_misses,
            p.feasibility_queries,
            feas.cache_hits,
            feas.cache_misses,
            p.sat_size as u64,
            p.sessions_reused,
            p.worker_panics,
        ]
    };
    assert_eq!(counts(&one), counts(&four));
    assert_eq!(SolveStats::from_registry(four.metrics()).workers, 1);
}

/// Each run owns its query cache: a second Σi run in the same process
/// repeats the first run's engine and feasibility hits and misses exactly,
/// instead of answering from the first run's entries.
#[test]
fn repeated_runs_repeat_their_cache_counts() {
    let counts = |o: &PinsOutcome| {
        let smt = SessionStats::from_registry(o.metrics(), "smt");
        let feas = SessionStats::from_registry(o.metrics(), "feas");
        [
            smt.queries,
            smt.cache_hits,
            smt.cache_misses,
            feas.queries,
            feas.cache_hits,
            feas.cache_misses,
        ]
    };
    let first = run_bench(BenchmarkId::SumI);
    let second = run_bench(BenchmarkId::SumI);
    assert_eq!(rendered(&first), rendered(&second));
    assert_eq!(counts(&first), counts(&second));
}

/// Every layer's view of one run reads the same cells: the engine's
/// Table-4 view agrees with the solver's and both sessions' views, and the
/// engine session's hits and misses partition its queries.
#[test]
fn registry_totals_match_typed_stats() {
    let outcome = run_bench(BenchmarkId::SumI);
    let s = outcome.stats();
    let solve = SolveStats::from_registry(outcome.metrics());
    let sess = SessionStats::from_registry(outcome.metrics(), "smt");
    let feas = SessionStats::from_registry(outcome.metrics(), "feas");
    assert_eq!(s.smt_queries, solve.smt_queries);
    assert_eq!(s.sat_size, solve.sat_size);
    assert_eq!(s.worker_panics, solve.worker_panics);
    assert_eq!(s.sessions_reused, solve.sessions_reused);
    assert_eq!(s.smt_cache_hits, sess.cache_hits);
    assert_eq!(s.smt_cache_misses, sess.cache_misses);
    assert_eq!(s.feasibility_queries, feas.queries);
    assert!(s.feasibility_queries > 0);
    assert_eq!(sess.cache_hits + sess.cache_misses, sess.queries);
    // `solve`'s share of the engine session's traffic
    assert!(solve.cache_hits + solve.cache_misses <= sess.queries);
    assert_eq!(solve.cache_hits + solve.cache_misses, solve.smt_queries);
    // one `solve` call per iteration plus the one that stabilized
    assert_eq!(s.sessions_reused, outcome.iterations as u64);
}

/// The `smt.query_ns` histogram records one sample per query, and the
/// per-phase cells partition the same population.
#[test]
fn query_latency_histogram_counts_every_query() {
    let outcome = run_bench(BenchmarkId::SumI);
    let sess = SessionStats::from_registry(outcome.metrics(), "smt");
    let lat = outcome.metrics().histogram_snapshot("smt.query_ns");
    assert_eq!(lat.count(), sess.queries, "one latency sample per query");
    assert!(lat.p50() <= lat.p90() && lat.p90() <= lat.p99());
    let by_phase: u64 = pins::trace::PHASES
        .iter()
        .map(|p| SessionStats::phase_queries(outcome.metrics(), "smt", *p))
        .sum();
    assert_eq!(by_phase, sess.queries);
}

#[test]
fn cache_counters_partition_queries_under_fuzz_load() {
    // adversarial load: a few hundred fuzz-generated formulas, each in an
    // arena of its own and queried as a growing assumption prefix, the
    // whole batch repeated once over the same arenas. Every query must
    // land in exactly one of {hit, miss} — the partition may not drift
    // under generated (rather than benchmark-shaped) traffic.
    use pins::fuzz::genf::{gen_formula, FormulaConfig};
    use pins::fuzz::{fuzz_smt_config, Decisions};
    use pins::smt::QueryCache;
    use std::sync::Arc;

    let registry = MetricsRegistry::new();
    let cache = Arc::new(QueryCache::new());
    let mut session = SmtSession::with_cache(fuzz_smt_config(), Arc::clone(&cache));
    session.bind_metrics(&registry, "fuzzload");

    let mut formulas: Vec<_> = (0..60u64)
        .map(|seed| {
            let mut d = Decisions::record(seed);
            gen_formula(&mut d, FormulaConfig::default())
        })
        .collect();

    let mut issued = 0u64;
    for _round in 0..2 {
        for f in &mut formulas {
            for end in 1..=f.asserts.len() {
                let _ = session.verdict_under(&mut f.arena, &f.asserts[..end]);
                issued += 1;
            }
        }
    }

    let stats = SessionStats::from_registry(&registry, "fuzzload");
    assert_eq!(
        stats.queries, issued,
        "every issued query must be counted exactly once"
    );
    assert_eq!(
        stats.cache_hits + stats.cache_misses,
        stats.queries,
        "hits and misses must partition the query count exactly"
    );
    // the session's own view reads the cells it wrote; the cache is private
    // to this test, so every miss added exactly one entry
    assert_eq!(session.stats(), stats);
    assert_eq!(cache.len() as u64, stats.cache_misses);
    // the second identical round guarantees repeats actually hit
    assert!(stats.cache_hits > 0, "repeated round saw no cache hits");
}

#[test]
fn invert_facade_synthesizes_doubling_inverse() {
    let original = r#"
proc dbl(in n: int, out m: int) {
  local i: int;
  assume(n >= 0);
  i := 0; m := 0;
  while (i < n) {
    i := i + 1;
    m := m + 2;
  }
}
"#;
    let template = r#"
proc dbl_inv(in m: int, out nI: int) {
  local mI: int;
  nI := ?e1;
  mI := ?e2;
  while (?p1) {
    nI := ?e3;
    mI := ?e4;
  }
}
"#;
    let outcome = invert(original, template, PinsConfig::default())
        .expect("auto-mined candidates suffice for the doubling inverse");
    assert!(!outcome.solutions.is_empty());

    // at least one surviving inverse must concretely recover n from m = 2n
    let found = outcome.solutions.iter().any(|sol| {
        (0..6i64).all(|n| {
            let m_var = sol.inverse.var_by_name("m").unwrap();
            let n_var = sol.inverse.var_by_name("nI").unwrap();
            let mut inputs = Store::new();
            inputs.insert(m_var, Value::Int(2 * n));
            match run(&sol.inverse, &inputs, &ExternEnv::new(), 10_000) {
                Ok(out) => out[&n_var] == Value::Int(n),
                Err(_) => false,
            }
        })
    });
    assert!(
        found,
        "no surviving inverse recovers n:\n{}",
        program_to_string(&outcome.solutions[0].inverse)
    );
}
