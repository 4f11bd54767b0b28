//! The benchmark harness: regenerates every table of the paper's evaluation
//! (Section 4) against this reproduction.
//!
//! One binary per table:
//!
//! | binary             | reproduces |
//! |--------------------|------------|
//! | `table1`           | Table 1 — template mining characteristics |
//! | `table2`           | Table 2 — PINS performance |
//! | `table3`           | Table 3 — validating the solutions |
//! | `table4`           | Table 4 — running-time breakdown |
//! | `table5`           | Table 5 — CBMC/Sketch (here: BMC/CEGIS) parameters |
//! | `ablation_pickone` | §2.3's pickOne-vs-random comparison |
//! | `pathcount`        | §2.4's path-explosion claim |
//!
//! Absolute numbers differ from the paper (2011 hardware + Z3 vs. this
//! from-scratch stack); EXPERIMENTS.md records the shape comparison.
//!
//! The numbers are only meaningful if the verdicts under them are sound:
//! `pins-fuzz` (crates/fuzz) differentially validates the whole solver
//! stack these tables exercise, and CI's `fuzz-smoke` job gates every
//! change on a zero-violation run — treat a perf win that only appears
//! alongside fuzz violations as a soundness bug, not a speedup.

use std::time::Duration;

use pins_core::{Pins, PinsError, PinsOutcome};
use pins_suite::{benchmark, Benchmark, BenchmarkId, ALL};
use pins_trace::MetricsRegistry;

/// Command-line options shared by the table binaries.
#[derive(Debug, Clone)]
pub struct HarnessArgs {
    /// Benchmarks to run (default: all).
    pub benchmarks: Vec<BenchmarkId>,
    /// Per-benchmark wall-clock budget override.
    pub budget: Option<Duration>,
    /// Fast mode: lighter budgets, for smoke runs.
    pub fast: bool,
    /// Per-SMT-query wall-clock limit.
    pub query_ms: Option<u64>,
    /// Per-SMT-query step limit (conflicts + pivots + instantiation rounds).
    pub query_steps: Option<u64>,
    /// Disable the one-shot retry-at-doubled-budgets on `Unknown`.
    pub no_retry: bool,
    /// Print a per-benchmark phase breakdown and emit `BENCH_pins.json`
    /// (see [`profile`]).
    pub profile: bool,
    /// Path for the profile report (default `BENCH_pins.json`).
    pub bench_json: String,
    /// Stream structured trace events (JSON Lines) to this file.
    pub trace_out: Option<String>,
}

/// Parses `[--fast] [--budget SECS] [--query-ms MS]
/// [--query-steps N] [--no-retry] [--profile] [--bench-json FILE]
/// [--trace-out FILE] [name...]` from `std::env::args`.
pub fn parse_args() -> HarnessArgs {
    let mut benchmarks = Vec::new();
    let mut budget = None;
    let mut fast = false;
    let mut query_ms = None;
    let mut query_steps = None;
    let mut no_retry = false;
    let mut profile = false;
    let mut bench_json = "BENCH_pins.json".to_string();
    let mut trace_out = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--fast" => fast = true,
            "--no-retry" => no_retry = true,
            "--profile" => profile = true,
            "--bench-json" => {
                bench_json = args.next().expect("--bench-json takes a path");
            }
            "--trace-out" => {
                trace_out = Some(args.next().expect("--trace-out takes a path"));
            }
            "--budget" => {
                let secs: u64 = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .expect("--budget takes seconds");
                budget = Some(Duration::from_secs(secs));
            }
            "--query-ms" => {
                query_ms = Some(
                    args.next()
                        .and_then(|s| s.parse().ok())
                        .expect("--query-ms takes milliseconds"),
                );
            }
            "--query-steps" => {
                query_steps = Some(
                    args.next()
                        .and_then(|s| s.parse().ok())
                        .expect("--query-steps takes a count"),
                );
            }
            name => {
                let id = ALL
                    .iter()
                    .copied()
                    .find(|&id| {
                        let b = benchmark(id);
                        b.name().eq_ignore_ascii_case(name) || slug(b.name()) == slug(name)
                    })
                    .unwrap_or_else(|| panic!("unknown benchmark {name}"));
                benchmarks.push(id);
            }
        }
    }
    if benchmarks.is_empty() {
        benchmarks = ALL.to_vec();
    }
    HarnessArgs {
        benchmarks,
        budget,
        fast,
        query_ms,
        query_steps,
        no_retry,
        profile,
        bench_json,
        trace_out,
    }
}

/// Installs a JSONL trace recorder when `--trace-out` was given. Keep the
/// returned guard alive for the duration of the run; dropping it flushes and
/// uninstalls the recorder.
pub fn install_tracing(args: &HarnessArgs) -> Option<pins_trace::InstallGuard> {
    let path = args.trace_out.as_deref()?;
    let recorder = pins_trace::Recorder::jsonl_file(path)
        .unwrap_or_else(|e| panic!("--trace-out {path}: {e}"));
    Some(pins_trace::install(recorder))
}

/// A fully initialized harness: parsed arguments plus (when `--trace-out`
/// was given) the installed trace recorder. Every table binary starts with
/// [`init`]; the guard uninstalls and flushes the recorder when the harness
/// is dropped at the end of `main`, appending the `trace.summary`
/// completeness event `pins-report` checks for.
#[derive(Debug)]
pub struct Harness {
    /// The parsed command-line options.
    pub args: HarnessArgs,
    _trace: Option<pins_trace::InstallGuard>,
}

/// Parses the shared command-line flags and wires up `--trace-out` in one
/// step. This is the single place the `--trace-out`/`--profile`/
/// `--bench-json` plumbing lives; the table binaries all call it instead of
/// repeating the recorder setup.
pub fn init() -> Harness {
    let args = parse_args();
    let trace = install_tracing(&args);
    Harness {
        args,
        _trace: trace,
    }
}

/// The profile verdict string for a run result (`"solved"`,
/// `"no-solution"`, or `"budget-exhausted"`).
pub fn verdict_of(result: &Result<PinsOutcome, PinsError>) -> &'static str {
    match result {
        Ok(_) => "solved",
        Err(PinsError::NoSolution { .. }) => "no-solution",
        Err(PinsError::BudgetExhausted) => "budget-exhausted",
    }
}

/// Lower-cases and strips non-alphanumerics for lenient name matching.
pub fn slug(s: &str) -> String {
    s.chars()
        .filter(|c| c.is_ascii_alphanumeric())
        .collect::<String>()
        .to_ascii_lowercase()
}

/// Runs PINS on a benchmark with its recommended configuration, applying
/// harness overrides.
pub fn run_pins(b: &Benchmark, args: &HarnessArgs) -> Result<PinsOutcome, PinsError> {
    run_pins_with(b, args, &MetricsRegistry::new())
}

/// Like [`run_pins`] but records into a caller-owned [`MetricsRegistry`],
/// which keeps the phase timings and query counters readable even when the
/// run fails (the profile report needs them for unsolved rows too).
pub fn run_pins_with(
    b: &Benchmark,
    args: &HarnessArgs,
    metrics: &MetricsRegistry,
) -> Result<PinsOutcome, PinsError> {
    let mut session = b.session();
    let mut config = b.recommended_config();
    if let Some(budget) = args.budget {
        config.time_budget = Some(budget);
    } else if args.fast {
        config.time_budget = Some(Duration::from_secs(60));
    }
    // per-query solver budgets apply to both the verification session and
    // the symbolic executor's feasibility session
    if let Some(ms) = args.query_ms {
        config.smt.time_limit = Some(Duration::from_millis(ms));
        config.explore.smt.time_limit = Some(Duration::from_millis(ms));
    }
    if let Some(steps) = args.query_steps {
        config.smt.step_limit = Some(steps);
        config.explore.smt.step_limit = Some(steps);
    }
    if args.no_retry {
        config.smt.retry_unknown = false;
        config.explore.smt.retry_unknown = false;
    }
    let budget = pins_budget::Budget::with_limits(config.time_budget, None);
    Pins::new(config).run_with(&mut session, budget, metrics)
}

/// Formats a duration in seconds with two decimals.
pub fn secs(d: Duration) -> String {
    format!("{:.2}", d.as_secs_f64())
}

/// The `--profile` report: per-benchmark phase breakdown plus a
/// machine-readable `BENCH_pins.json`.
pub mod profile {
    use std::fmt::Write as _;
    use std::time::Duration;

    use pins_core::PinsStats;
    use pins_trace::MetricsRegistry;

    /// One benchmark's profile: everything `BENCH_pins.json` records.
    #[derive(Debug, Clone)]
    pub struct ProfileRow {
        /// Benchmark display name.
        pub benchmark: String,
        /// `"solved"`, `"no-solution"`, or `"budget-exhausted"`.
        pub verdict: String,
        /// Total wall-clock milliseconds.
        pub wall_ms: f64,
        /// Phase name → milliseconds (`symexec`, `smt_reduction`, `sat`,
        /// `pickone`).
        pub phase_ms: Vec<(String, f64)>,
        /// Query counters: SMT validity queries, feasibility queries, cache
        /// hits, and cache misses.
        pub smt_queries: u64,
        /// SMT feasibility queries issued by symbolic execution.
        pub feasibility_queries: u64,
        /// Normalized-query cache hits on the engine session.
        pub cache_hits: u64,
        /// Normalized-query cache misses on the engine session.
        pub cache_misses: u64,
        /// Median SMT validity-query latency in microseconds (log-bucket
        /// midpoint from the `smt.query_ns` histogram; 0 when no queries).
        pub query_p50_us: f64,
        /// 90th-percentile SMT validity-query latency in microseconds.
        pub query_p90_us: f64,
        /// 99th-percentile SMT validity-query latency in microseconds.
        pub query_p99_us: f64,
    }

    fn ms(d: Duration) -> f64 {
        d.as_secs_f64() * 1e3
    }

    impl ProfileRow {
        /// Builds a row from the registry a run recorded into. Works for
        /// failed runs too: the registry holds everything up to the stop.
        pub fn from_registry(
            benchmark: &str,
            verdict: &str,
            registry: &MetricsRegistry,
        ) -> ProfileRow {
            let s = PinsStats::from_registry(registry);
            let lat = registry.histogram_snapshot("smt.query_ns");
            let us = |ns: u64| ns as f64 / 1e3;
            ProfileRow {
                benchmark: benchmark.to_string(),
                verdict: verdict.to_string(),
                wall_ms: ms(s.total_time),
                phase_ms: vec![
                    ("symexec".to_string(), ms(s.symexec_time)),
                    ("smt_reduction".to_string(), ms(s.smt_reduction_time)),
                    ("sat".to_string(), ms(s.sat_time)),
                    ("pickone".to_string(), ms(s.pickone_time)),
                ],
                smt_queries: s.smt_queries,
                feasibility_queries: s.feasibility_queries,
                cache_hits: s.smt_cache_hits,
                cache_misses: s.smt_cache_misses,
                query_p50_us: us(lat.p50()),
                query_p90_us: us(lat.p90()),
                query_p99_us: us(lat.p99()),
            }
        }

        /// One human-readable breakdown line per phase.
        pub fn print(&self) {
            let pct = |v: f64| {
                if self.wall_ms > 0.0 {
                    format!("{:.0}%", 100.0 * v / self.wall_ms)
                } else {
                    "-".to_string()
                }
            };
            print!("{:<14} [{}]", self.benchmark, self.verdict);
            for (name, v) in &self.phase_ms {
                print!("  {name} {:.1}ms ({})", v, pct(*v));
            }
            println!(
                "  wall {:.1}ms  queries {} smt / {} feas, cache {}/{}, \
                 query p50/p90/p99 {:.0}/{:.0}/{:.0}us",
                self.wall_ms,
                self.smt_queries,
                self.feasibility_queries,
                self.cache_hits,
                self.cache_misses,
                self.query_p50_us,
                self.query_p90_us,
                self.query_p99_us
            );
        }

        fn to_json(&self) -> String {
            let mut s = String::new();
            let esc = |v: &str| v.replace('\\', "\\\\").replace('"', "\\\"");
            write!(
                s,
                "{{\"benchmark\":\"{}\",\"verdict\":\"{}\",\"wall_ms\":{:.3},\"phase_ms\":{{",
                esc(&self.benchmark),
                esc(&self.verdict),
                self.wall_ms
            )
            .unwrap();
            for (i, (name, v)) in self.phase_ms.iter().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                write!(s, "\"{}\":{:.3}", esc(name), v).unwrap();
            }
            write!(
                s,
                "}},\"smt_queries\":{},\"feasibility_queries\":{},\
                 \"cache_hits\":{},\"cache_misses\":{},\
                 \"query_p50_us\":{:.3},\"query_p90_us\":{:.3},\"query_p99_us\":{:.3}}}",
                self.smt_queries,
                self.feasibility_queries,
                self.cache_hits,
                self.cache_misses,
                self.query_p50_us,
                self.query_p90_us,
                self.query_p99_us
            )
            .unwrap();
            s
        }
    }

    /// Serializes the rows as a JSON array (the `BENCH_pins.json` schema).
    pub fn to_json(rows: &[ProfileRow]) -> String {
        let mut s = String::from("[");
        for (i, row) in rows.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push('\n');
            s.push_str(&row.to_json());
        }
        s.push_str("\n]\n");
        s
    }

    /// Writes `BENCH_pins.json` and announces the path.
    pub fn write_json(path: &str, rows: &[ProfileRow]) {
        std::fs::write(path, to_json(rows)).unwrap_or_else(|e| panic!("writing {path}: {e}"));
        println!("profile: wrote {path} ({} rows)", rows.len());
    }
}

/// Minimal std-only micro-benchmark timer. The `benches/` targets used to be
/// criterion harnesses; criterion is an external dependency the hermetic
/// tier-1 build cannot resolve, so they now run on this.
pub mod microbench {
    use std::time::Instant;

    /// Times `f` for `iters` iterations after one warm-up call and prints
    /// total, mean, and min per-iteration wall-clock times.
    pub fn run<F: FnMut()>(name: &str, iters: usize, mut f: F) {
        f(); // warm-up
        let mut samples = Vec::with_capacity(iters);
        let total_start = Instant::now();
        for _ in 0..iters {
            let start = Instant::now();
            f();
            samples.push(start.elapsed());
        }
        let total = total_start.elapsed();
        let mean = total / iters as u32;
        let min = samples.iter().min().copied().unwrap_or_default();
        println!(
            "{name:<32} {iters:>4} iters  total {:>9.3?}  mean {:>9.3?}  min {:>9.3?}",
            total, mean, min
        );
    }
}

/// Paper-reported reference values used for side-by-side printing.
/// Values extracted from a scanned copy; entries the scan garbled are best
/// guesses and marked `~`.
pub mod paper {
    /// Table 2 rows: (name, search-space exponent, #solutions, iterations,
    /// seconds, |SAT|).
    pub const TABLE2: &[(&str, u32, u32, u32, f64, u32)] = &[
        ("In-place RL", 30, 1, 7, 36.16, 837),
        ("Run length", 25, 1, 7, 26.19, 668),
        ("LZ77", 25, 2, 6, 1810.31, 330),
        ("LZW", 31, 2, 4, 150.42, 373),
        ("Base64", 37, 4, 12, 1376.82, 598),
        ("UUEncode", 20, 1, 7, 34.00, 177),
        ("Pkt wrapper", 20, 1, 6, 132.32, 2161),
        ("Serialize", 11, 1, 14, 55.33, 69),
        ("Σi", 15, 1, 4, 1.07, 51),
        ("Vector shift", 16, 1, 3, 4.20, 187),
        ("Vector scale", 16, 1, 3, 4.41, 191),
        ("Vector rotate", 16, 1, 3, 39.51, 327),
        ("Permute count", 3, 1, 1, 8.44, 4),
        ("LU decomp", 5, 1, 1, 160.24, 10),
    ];

    /// Table 4 rows: (name, %symexec, %smt-reduction, %sat, %pickone).
    pub const TABLE4: &[(&str, f64, f64, f64, f64)] = &[
        ("In-place RL", 41.0, 51.0, 6.0, 2.0),
        ("Run length", 45.0, 45.0, 7.0, 3.0),
        ("LZ77", 98.0, 1.0, 0.1, 0.1),
        ("LZW", 68.0, 29.0, 1.0, 3.0),
        ("Base64", 42.0, 57.0, 1.0, 1.0),
        ("UUEncode", 84.0, 12.0, 1.0, 3.0),
        ("Pkt wrapper", 92.0, 7.0, 1.0, 1.0),
        ("Serialize", 96.0, 3.0, 1.0, 1.0),
        ("Σi", 50.0, 38.0, 4.0, 8.0),
        ("Vector shift", 21.0, 73.0, 2.0, 4.0),
        ("Vector scale", 21.0, 73.0, 2.0, 4.0),
        ("Vector rotate", 6.0, 93.0, 0.5, 0.5),
        ("Permute count", 96.0, 2.0, 0.5, 2.0),
        ("LU decomp", 88.0, 11.0, 0.1, 1.0),
    ];

    /// Table 1 rows: (name, LoC, mined, subset, mods, inverse LoC, axioms).
    pub const TABLE1: &[(&str, u32, u32, u32, u32, u32, u32)] = &[
        ("In-place RL", 12, 16, 14, 1, 10, 0),
        ("Run length", 12, 16, 10, 0, 10, 0),
        ("LZ77", 22, 16, 10, 3, 13, 0),
        ("LZW", 25, 20, 15, 4, 20, 15),
        ("Base64", 22, 13, 7, 1, 16, 3),
        ("UUEncode", 12, 10, 4, 7, 11, 3),
        ("Pkt wrapper", 10, 12, 12, 7, 16, 2),
        ("Serialize", 8, 8, 8, 1, 8, 6),
        ("Σi", 5, 8, 6, 2, 5, 0),
        ("Vector shift", 8, 11, 7, 0, 7, 0),
        ("Vector scale", 8, 9, 7, 2, 7, 1),
        ("Vector rotate", 8, 13, 7, 0, 7, 1),
        ("Permute count", 11, 12, 7, 2, 10, 0),
        ("LU decomp", 11, 14, 9, 0, 12, 2),
    ];
}
