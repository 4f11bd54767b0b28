//! Reproduces the §2.3 ablation: the `infeasible`-count `pickOne` heuristic
//! versus uniformly random selection (the paper reports random is ~20%
//! slower overall).

use pins_bench::{init, secs};
use pins_core::Pins;
use pins_suite::{benchmark, BenchmarkId};

fn main() {
    let harness = init();
    let args = harness.args.clone();
    let ids = if args.benchmarks.len() == pins_suite::ALL.len() {
        // default: the fast benchmarks, several seeds
        vec![
            BenchmarkId::SumI,
            BenchmarkId::VectorShift,
            BenchmarkId::VectorScale,
            BenchmarkId::VectorRotate,
            BenchmarkId::Serialize,
        ]
    } else {
        args.benchmarks.clone()
    };
    let mut total_heur = 0.0;
    let mut total_rand = 0.0;
    println!(
        "{:<14} {:>12} {:>12}",
        "Benchmark", "pickOne(s)", "random(s)"
    );
    for id in ids {
        let b = benchmark(id);
        let mut heur = 0.0;
        let mut rnd = 0.0;
        for seed in 0..3u64 {
            for (random, acc) in [(false, &mut heur), (true, &mut rnd)] {
                let mut session = b.session();
                let mut config = b.recommended_config();
                config.pick_random = random;
                config.seed = seed.wrapping_mul(0x9e37).wrapping_add(17);
                if let Ok(outcome) = Pins::new(config).run(&mut session) {
                    *acc += outcome.stats().total_time.as_secs_f64();
                }
            }
        }
        total_heur += heur;
        total_rand += rnd;
        println!(
            "{:<14} {:>12} {:>12}",
            b.name(),
            format!("{heur:.2}"),
            format!("{rnd:.2}")
        );
    }
    println!(
        "total: pickOne {} vs random {} -> random is {:+.0}%",
        secs(std::time::Duration::from_secs_f64(total_heur)),
        secs(std::time::Duration::from_secs_f64(total_rand)),
        100.0 * (total_rand - total_heur) / total_heur.max(1e-9)
    );
}
