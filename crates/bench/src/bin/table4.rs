//! Regenerates Table 4: breakdown of PINS running time.
//!
//! With `--profile`, additionally prints a per-benchmark phase breakdown
//! (milliseconds + percentages, read back from the run's metrics registry)
//! and writes the machine-readable `BENCH_pins.json`; with `--trace-out
//! FILE`, streams every structured trace event of the run as JSON Lines.

use pins_bench::{init, paper, profile, run_pins_with, secs, slug, verdict_of};
use pins_core::SliceStats;
use pins_suite::benchmark;
use pins_trace::MetricsRegistry;

fn main() {
    let harness = init();
    let args = harness.args.clone();
    let mut rows: Vec<profile::ProfileRow> = Vec::new();
    println!(
        "{:<14} {:>8} {:>8} {:>6} {:>8} {:>10}   (paper %: sym/smt/sat/pick)",
        "Benchmark", "Sym.Exe", "SMT Red.", "SAT", "pickOne", "Total(s)"
    );
    for id in args.benchmarks.clone() {
        let b = benchmark(id);
        let paper_row = paper::TABLE4.iter().find(|r| slug(r.0) == slug(b.name()));
        let paper_str = paper_row
            .map(|r| format!("{}/{}/{}/{}", r.1, r.2, r.3, r.4))
            .unwrap_or_default();
        let metrics = MetricsRegistry::new();
        let result = run_pins_with(&b, &args, &metrics);
        if args.profile {
            let verdict = verdict_of(&result);
            rows.push(profile::ProfileRow::from_registry(
                b.name(),
                verdict,
                &metrics,
            ));
        }
        match result {
            Ok(outcome) => {
                let s = outcome.stats();
                let total = s.total_time.as_secs_f64().max(1e-9);
                let pct =
                    |d: std::time::Duration| format!("{:.0}%", 100.0 * d.as_secs_f64() / total);
                println!(
                    "{:<14} {:>8} {:>8} {:>6} {:>8} {:>10}   ({paper_str})",
                    b.name(),
                    pct(s.symexec_time),
                    pct(s.smt_reduction_time),
                    pct(s.sat_time),
                    pct(s.pickone_time),
                    secs(s.total_time),
                );
                println!(
                    "{:<14} cache {} hit / {} miss, core {}, replay {}, \
                     memo {} solve / {} pickOne, solver reused {}x",
                    "",
                    s.smt_cache_hits,
                    s.smt_cache_misses,
                    s.smt_core_hits,
                    s.replay_hits,
                    s.solve_memo_hits,
                    s.pickone_memo_hits,
                    s.sessions_reused,
                );
                let degradations = s.unknown_deadline
                    + s.unknown_cancelled
                    + s.unknown_step_limit
                    + s.unknown_overflow
                    + s.worker_panics
                    + s.sat_interrupts;
                if degradations > 0 || s.smt_retries > 0 {
                    println!(
                        "{:<14} degraded: {} deadline / {} cancelled / {} step-limit / \
                         {} overflow unknowns, {} worker panics, {} sat interrupts; \
                         {} retries ({} cache upgrades)",
                        "",
                        s.unknown_deadline,
                        s.unknown_cancelled,
                        s.unknown_step_limit,
                        s.unknown_overflow,
                        s.worker_panics,
                        s.sat_interrupts,
                        s.smt_retries,
                        s.smt_cache_upgrades,
                    );
                }
            }
            Err(e) => println!("{:<14} {e}   ({paper_str})", b.name()),
        }
        // read from the registry, so unsolved runs report it too
        let slice = SliceStats::from_registry(&metrics);
        println!(
            "{:<14} slice {} constraints -> {} parts, {} narrowed ({:.0}%), \
             {} duplicates skipped",
            "",
            slice.constraints,
            slice.parts,
            slice.narrowed,
            100.0 * slice.narrowed as f64 / slice.constraints.max(1) as f64,
            slice.duplicates,
        );
    }
    if args.profile {
        println!("\n--- profile (per-phase wall clock) ---");
        for row in &rows {
            row.print();
        }
        profile::write_json(&args.bench_json, &rows);
    }
}
