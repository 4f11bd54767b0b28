//! One engine run, in a process of its own.
//!
//! Every engine run starts from an empty process-wide `QueryCache`, as a
//! CLI invocation does. A fresh process is the only way to get that:
//! `QueryCache::clear()` keeps the miss-forensics index, so a second run in
//! the same process would classify its misses differently.

use std::collections::BTreeMap;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::PathBuf;
use std::time::Instant;

use pins_budget::Budget;
use pins_core::{Pins, PinsError, PinsStats, SolveStats};
use pins_ir::Program;
use pins_prng::SplitMix64;
use pins_smt::SessionStats;
use pins_suite::{benchmark, Benchmark, BenchmarkId};
use pins_trace::{MetricsRegistry, Recorder};

use crate::host;
use crate::layers;
use crate::report::EngineReport;
use crate::stats::median;
use crate::workload::{round_trip_sizes, Expect, Workload, ROUND_TRIP_SEEDS};

/// Sessions a set-up process builds; its set-up time is their median.
pub const SETUP_BUILDS: usize = 9;

/// Ring capacity of a traced run, far above the ~45k events the largest
/// benchmark emits, so that nothing is dropped.
const RING_CAPACITY: usize = 1 << 22;

/// What an engine process is asked to do.
#[derive(Debug)]
pub struct EngineArgs {
    /// The workload whose configuration the run uses.
    pub workload: &'static Workload,
    /// The benchmark to invert.
    pub bench: BenchmarkId,
    /// Seeds the round-trip inputs of the verdict oracle, nothing else.
    pub check_seed: u64,
    /// Where a traced run writes its events (JSONL); `None` runs untraced.
    pub trace_out: Option<PathBuf>,
}

/// Builds the session, runs the engine once, judges the verdict and
/// collects counts (and, when traced, per-layer sums).
///
/// # Errors
///
/// Fails only when the trace file cannot be written.
pub fn run(args: &EngineArgs) -> std::io::Result<EngineReport> {
    let b = benchmark(args.bench);
    let config = args.workload.config(args.bench);
    let recorder = args
        .trace_out
        .as_ref()
        .map(|_| Recorder::ring(RING_CAPACITY));
    let guard = recorder.clone().map(pins_trace::install);
    let mut session = {
        let _span = pins_trace::span("bench.session");
        b.session()
    };

    let registry = MetricsRegistry::new();
    let budget = Budget::with_limits(config.time_budget, None);
    let cpu0 = host::cpu_time();
    let start_unix_s = host::unix_s();
    let t0 = Instant::now();
    let result = {
        let _span = pins_trace::span("bench.run");
        Pins::new(config.clone()).run_with(&mut session, budget, &registry)
    };
    let run = t0.elapsed();
    let cpu = host::cpu_time().saturating_sub(cpu0);

    let stats = PinsStats::from_registry(&registry);
    let solve = SolveStats::from_registry(&registry);
    let solve_calls = solve.sessions_reused as usize + 1;
    let cap = config.max_iterations;
    let (ok, verdict, iterations, paths, solutions) = match (&result, args.workload.expect) {
        (Ok(o), Expect::Converge) if o.converged => {
            let _span = pins_trace::span("bench.round_trip");
            let passing = o
                .solutions
                .iter()
                .filter(|s| round_trips(&b, &s.inverse, args.check_seed))
                .count();
            let verdict = format!(
                "converged, {passing} of {} inverses round-trip",
                o.solutions.len()
            );
            (
                passing > 0,
                verdict,
                o.iterations,
                o.paths_explored,
                o.solutions.len(),
            )
        }
        (Ok(o), _) => {
            let verdict = format!(
                "returned {} solutions after {} iterations, converged = {}",
                o.solutions.len(),
                o.iterations,
                o.converged
            );
            (
                false,
                verdict,
                o.iterations,
                o.paths_explored,
                o.solutions.len(),
            )
        }
        (Err(PinsError::BudgetExhausted), Expect::IterationCap) => {
            // the engine returns BudgetExhausted at the top of its loop when
            // `iterations == max_iterations`, after one `solve` per
            // iteration, each of which added one path
            let in_time = config.time_budget.is_none_or(|limit| run < limit);
            let on_cap = in_time && solve_calls == cap;
            let verdict = if on_cap {
                "stopped on the iteration cap".to_string()
            } else {
                format!("budget exhausted after {solve_calls} solve calls in {run:?}")
            };
            (on_cap, verdict, cap, cap, 0)
        }
        (Err(e), _) => (false, e.to_string(), 0, 0, 0),
    };

    let engine = SessionStats::from_registry(&registry, "smt");
    let feas = SessionStats::from_registry(&registry, "feas");
    let counts: BTreeMap<String, u64> = [
        ("iterations", iterations as u64),
        ("paths", paths as u64),
        ("solutions", solutions as u64),
        ("candidates", solve.candidates_proposed),
        ("validity_queries", stats.smt_queries),
        ("feas_queries", stats.feasibility_queries),
        ("engine_queries", engine.queries),
        ("engine_hits", engine.cache_hits),
        ("engine_misses", engine.cache_misses),
        ("feas_hits", feas.cache_hits),
        ("feas_misses", feas.cache_misses),
        ("sat_size", stats.sat_size as u64),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_string(), v))
    .collect();
    let config_stamp = format!(
        "workers={} seed={:#x} max_iterations={} time_budget={} track_cores={}",
        solve.workers,
        config.seed,
        config.max_iterations,
        config
            .time_budget
            .map_or("none".to_string(), |t| format!("{}s", t.as_secs())),
        config.smt.track_cores,
    );

    let mut report = EngineReport {
        ok,
        verdict,
        start_unix_s,
        run_s: run.as_secs_f64(),
        cpu_s: cpu.as_secs_f64(),
        peak_rss_mib: 0.0,
        config: config_stamp,
        counts,
        layers: BTreeMap::new(),
        hists: BTreeMap::new(),
    };
    if let (Some(recorder), Some(path)) = (recorder, &args.trace_out) {
        let name = b.name();
        let stamp = report.config.clone();
        let workload = args.workload.name;
        pins_trace::point("bench.stamp", || {
            vec![
                ("workload", workload.into()),
                ("bench", name.into()),
                ("config", stamp.as_str().into()),
                ("nproc", (host::nproc() as u64).into()),
                ("profile", host::build_profile().into()),
                ("rev", host::git_rev().as_str().into()),
            ]
        });
        drop(guard);
        report.layers = layers::engine_sums(&registry, &recorder, iterations as u64, paths as u64);
        report.hists = [
            ("engine", registry.histogram_snapshot("smt.query_ns")),
            ("feas", registry.histogram_snapshot("feas.query_ns")),
        ]
        .into_iter()
        .map(|(k, h)| (k.to_string(), h))
        .collect();
        let mut out = BufWriter::new(File::create(path)?);
        for event in recorder.events() {
            writeln!(out, "{}", event.to_json())?;
        }
        out.flush()?;
    }
    report.peak_rss_mib = host::peak_rss_mib();
    Ok(report)
}

/// Median seconds to build the benchmark's `Session`, over
/// [`SETUP_BUILDS`] builds in this process.
pub fn setup_s(bench: BenchmarkId) -> f64 {
    let b = benchmark(bench);
    let times: Vec<f64> = (0..SETUP_BUILDS)
        .map(|_| {
            let t0 = Instant::now();
            let session = std::hint::black_box(b.session());
            let built = t0.elapsed().as_secs_f64();
            drop(session);
            built
        })
        .collect();
    median(&times)
}

/// Whether `inverse` passes every round trip at the benchmark's sizes, on
/// [`ROUND_TRIP_SEEDS`] inputs per size drawn from `check_seed`.
fn round_trips(b: &Benchmark, inverse: &Program, check_seed: u64) -> bool {
    let mut rng = SplitMix64::new(check_seed);
    round_trip_sizes(b.id).iter().all(|&size| {
        (0..ROUND_TRIP_SEEDS)
            .all(|_| matches!(b.round_trip(inverse, rng.next_u64(), size), Ok(true)))
    })
}
