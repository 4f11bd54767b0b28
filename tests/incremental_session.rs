//! Integration tests for the incremental solver session: parallel
//! constraint verification must be observationally identical to serial
//! solving, the process-wide query cache must actually fire on suite
//! benchmarks, and the one-call `pins::invert` facade works end to end.

use pins::ir::{program_to_string, run, ExternEnv, Store, Value};
use pins::prelude::*;
use pins::suite::{benchmark, BenchmarkId};

fn run_with_workers(id: BenchmarkId, workers: usize) -> PinsOutcome {
    let b = benchmark(id);
    let mut session = b.session();
    let mut config = b.recommended_config();
    config.verify_workers = workers;
    Pins::new(config)
        .run(&mut session)
        .unwrap_or_else(|e| panic!("{}: synthesis failed: {e}", b.name()))
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

fn assert_parallel_matches_serial(id: BenchmarkId) {
    let serial = run_with_workers(id, 1);
    let parallel = run_with_workers(id, 4);
    assert_eq!(
        rendered(&serial),
        rendered(&parallel),
        "{id:?}: parallel verification changed the solution set"
    );
    assert_eq!(
        serial.iterations, parallel.iterations,
        "{id:?}: parallel verification changed the iteration count"
    );
    assert_eq!(serial.verify_workers, 1);
    assert_eq!(parallel.verify_workers, 4);
}

#[test]
fn parallel_matches_serial_on_sum_i() {
    assert_parallel_matches_serial(BenchmarkId::SumI);
}

#[test]
fn parallel_matches_serial_on_lu_decomp() {
    assert_parallel_matches_serial(BenchmarkId::LuDecomp);
}

#[test]
fn parallel_matches_serial_on_serialize() {
    assert_parallel_matches_serial(BenchmarkId::Serialize);
}

#[test]
fn repeated_runs_hit_the_query_cache() {
    // the normalized-query cache is process-wide: a second identical run
    // must be answered (at least partly) from it
    let first = run_with_workers(BenchmarkId::SumI, 2);
    let second = run_with_workers(BenchmarkId::SumI, 2);
    assert_eq!(rendered(&first), rendered(&second));
    assert!(
        second.smt_cache_hits > 0,
        "second run saw no cache hits: {:?}",
        second.stats()
    );
    assert!(second.smt_cache_misses <= first.smt_cache_misses);
}

#[test]
fn registry_totals_match_typed_stats_in_serial_and_parallel() {
    // the drift check: every counter is bumped at event time through shared
    // registry cells (workers included, via forked sessions), so the
    // registry view must agree exactly with the typed stats that were
    // absorbed from the workers after the fact — in both execution modes
    for workers in [1usize, 4] {
        let outcome = run_with_workers(BenchmarkId::SumI, workers);
        let s = outcome.stats();
        let r = pins::core::PinsStats::from_registry(outcome.metrics());
        assert_eq!(r.smt_queries, s.smt_queries, "workers={workers}");
        assert_eq!(r.smt_cache_hits, s.smt_cache_hits, "workers={workers}");
        assert_eq!(r.smt_cache_misses, s.smt_cache_misses, "workers={workers}");
        assert_eq!(
            r.feasibility_queries, s.feasibility_queries,
            "workers={workers}"
        );
        assert_eq!(r.verify_workers, s.verify_workers, "workers={workers}");
        assert_eq!(r.worker_panics, s.worker_panics, "workers={workers}");
        assert_eq!(r.sat_size, s.sat_size, "workers={workers}");
        assert_eq!(
            r.worker_queries.iter().sum::<u64>(),
            s.worker_queries.iter().sum::<u64>(),
            "workers={workers}"
        );
        // session-level invariant: every query is either a hit or a miss,
        // with no worker traffic lost or double-counted in the merge
        let sess = pins::smt::SessionStats::from_registry(outcome.metrics(), "smt");
        assert_eq!(
            sess.cache_hits + sess.cache_misses,
            sess.queries,
            "workers={workers}"
        );
        assert_eq!(sess.cache_hits, s.smt_cache_hits, "workers={workers}");
        assert_eq!(sess.cache_misses, s.smt_cache_misses, "workers={workers}");
    }
}

#[test]
fn query_latency_histogram_counts_every_query_across_worker_forks() {
    // the `smt.query_ns` histogram lives in shared cells that forked worker
    // sessions write through, so its population must equal the query count
    // in both execution modes — nothing lost or double-counted in the merge
    for workers in [1usize, 4] {
        let outcome = run_with_workers(BenchmarkId::SumI, workers);
        let sess = pins::smt::SessionStats::from_registry(outcome.metrics(), "smt");
        let lat = outcome.metrics().histogram_snapshot("smt.query_ns");
        assert_eq!(
            lat.count(),
            sess.queries,
            "workers={workers}: one latency sample per query"
        );
        assert!(lat.p50() <= lat.p90() && lat.p90() <= lat.p99());
        // per-phase duration counters partition the same population
        let by_phase: u64 = pins::trace::PHASES
            .iter()
            .map(|p| pins::smt::SessionStats::phase_queries(outcome.metrics(), "smt", *p))
            .sum();
        assert_eq!(by_phase, sess.queries, "workers={workers}");
    }
}

#[test]
fn histogram_merge_is_identical_serial_vs_forked_threads() {
    // merge semantics, deterministically: the same sample population must
    // produce bit-identical snapshots whether recorded through one handle
    // or through clones on racing threads (the fork()-shared-cells model)
    let samples: Vec<u64> = (0..4096u64).map(|i| (i * i * 2654435761) >> 16).collect();
    let serial = pins::trace::Histogram::detached();
    for &s in &samples {
        serial.record(s);
    }

    let registry = pins::trace::MetricsRegistry::new();
    let shared = registry.histogram("merge.test_ns");
    let threads: Vec<_> = samples
        .chunks(1024)
        .map(|chunk| {
            let handle = shared.clone(); // what SmtSession::fork does
            let chunk = chunk.to_vec();
            std::thread::spawn(move || {
                for s in chunk {
                    handle.record(s);
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }

    let a = serial.snapshot();
    let b = registry.histogram_snapshot("merge.test_ns");
    assert_eq!(a.buckets, b.buckets, "merged buckets must be identical");
    assert_eq!(a.count(), b.count());
    assert_eq!((a.p50(), a.p90(), a.p99()), (b.p50(), b.p90(), b.p99()));

    // absorbing disjoint histograms is equivalent to sharing cells
    let absorbed = pins::trace::Histogram::detached();
    for chunk in samples.chunks(1024) {
        let part = pins::trace::Histogram::detached();
        for &s in chunk {
            part.record(s);
        }
        absorbed.absorb(&part);
    }
    assert_eq!(absorbed.snapshot().buckets, a.buckets);
}

#[test]
fn cache_counters_partition_queries_under_fuzz_load() {
    // adversarial load: a few hundred fuzz-generated formulas, each queried
    // as a growing assumption prefix, the whole batch repeated once, and a
    // forked worker replaying a slice concurrently. Every query must land in
    // exactly one of {hit, miss} — the partition may not drift under
    // generated (rather than benchmark-shaped) traffic.
    use pins::fuzz::genf::{gen_formula, FormulaConfig};
    use pins::fuzz::{fuzz_smt_config, Decisions};
    use pins::smt::{QueryCache, SessionStats};
    use std::sync::Arc;

    let registry = MetricsRegistry::new();
    let cache = Arc::new(QueryCache::new());
    let mut session = SmtSession::with_cache(fuzz_smt_config(), Arc::clone(&cache));
    session.bind_metrics(&registry, "fuzzload");

    let formulas: Vec<_> = (0..60u64)
        .map(|seed| {
            let mut d = Decisions::record(seed);
            gen_formula(&mut d, FormulaConfig::default())
        })
        .collect();

    let mut issued = 0u64;
    for _round in 0..2 {
        for f in &formulas {
            let mut arena = f.arena.clone();
            for end in 1..=f.asserts.len() {
                let _ = session.verdict_under(&mut arena, &f.asserts[..end]);
                issued += 1;
            }
        }
    }

    // a forked worker shares both the cache and the metric cells
    let mut worker = session.fork();
    let worker_issued: u64 = std::thread::spawn(move || {
        let mut n = 0u64;
        for seed in 0..20u64 {
            let mut d = Decisions::record(seed);
            let f = gen_formula(&mut d, FormulaConfig::default());
            let mut arena = f.arena.clone();
            let _ = worker.verdict_under(&mut arena, &f.asserts);
            n += 1;
        }
        n
    })
    .join()
    .expect("worker must not panic");

    let stats = SessionStats::from_registry(&registry, "fuzzload");
    assert_eq!(
        stats.queries,
        issued + worker_issued,
        "every issued query must be counted exactly once"
    );
    assert_eq!(
        stats.cache_hits + stats.cache_misses,
        stats.queries,
        "hits and misses must partition the query count exactly"
    );
    // the cache is private to this test, so its own counters must agree
    // with the session view
    assert_eq!(cache.hits(), stats.cache_hits);
    assert_eq!(cache.misses(), stats.cache_misses);
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
