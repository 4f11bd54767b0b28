//! Regenerates Table 2: PINS performance (search space, solutions,
//! iterations, time, |SAT|). A `*` after the solution count marks a run
//! cut off by a budget before its solution set stabilized.

use pins_bench::{init, paper, run_pins, secs, slug};
use pins_suite::benchmark;

fn main() {
    let harness = init();
    let args = harness.args.clone();
    println!(
        "{:<14} {:>9} {:>5} {:>6} {:>10} {:>7}   (paper: 2^x/sols/iters/secs/|SAT|)",
        "Benchmark", "Srch.Sp.", "Sols", "Iters", "Time(s)", "|SAT|"
    );
    for id in args.benchmarks.clone() {
        let b = benchmark(id);
        let paper_row = paper::TABLE2.iter().find(|r| slug(r.0) == slug(b.name()));
        let paper_str = paper_row
            .map(|r| format!("2^{}/{}/{}/{}/{}", r.1, r.2, r.3, r.4, r.5))
            .unwrap_or_default();
        match run_pins(&b, &args) {
            Ok(outcome) => {
                let stats = outcome.stats();
                println!(
                    "{:<14} {:>9} {:>5} {:>6} {:>10} {:>7}   ({paper_str})",
                    b.name(),
                    format!("2^{:.0}", outcome.search_space_log2),
                    // `*`: cut off (a step or time budget) before stabilizing
                    format!(
                        "{}{}",
                        outcome.solutions.len(),
                        if outcome.converged { "" } else { "*" }
                    ),
                    outcome.iterations,
                    secs(stats.total_time),
                    stats.sat_size,
                );
            }
            Err(e) => {
                println!("{:<14} {:>9} {e}   ({paper_str})", b.name(), "-");
            }
        }
    }
}
