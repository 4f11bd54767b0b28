//! The three workloads and the engine configuration each one pins.
//!
//! Every engine run uses the benchmark's recommended config with the shipped
//! `PinsConfig::seed` (the pickOne tie-break seed). That seed is part of the
//! workload's definition: changing it changes the runs drastically (seed 1
//! makes Vector scale about 50 times slower). The workload seed given on
//! the command line drives only the round-trip inputs of the verdict oracle.

use std::collections::BTreeMap;

use pins_core::PinsConfig;
use pins_suite::{benchmark, BenchmarkId};

/// How a workload's engine runs must end to count as ok.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    /// `Ok` with `converged = true`, and at least one returned inverse passes
    /// every concrete round trip.
    Converge,
    /// `Err(BudgetExhausted)` on the iteration cap, with the wall budget
    /// unspent; never `NoSolution`.
    IterationCap,
}

/// One workload: a fixed set of benchmarks under a fixed configuration.
#[derive(Debug)]
pub struct Workload {
    /// Name given to `--workload`.
    pub name: &'static str,
    /// The benchmarks run, one engine process each, in this order.
    pub benches: &'static [BenchmarkId],
    /// `PinsConfig::verify_workers` for every run.
    pub verify_workers: usize,
    /// Overrides `PinsConfig::max_iterations` when set.
    pub max_iterations: Option<usize>,
    /// The verdict the oracle accepts.
    pub expect: Expect,
}

/// The six benchmarks that stabilize within seconds: the paper's Table 2
/// time-to-inverse for the arithmetic and serializer rows.
const STABILIZING: [BenchmarkId; 6] = [
    BenchmarkId::SumI,
    BenchmarkId::Serialize,
    BenchmarkId::VectorShift,
    BenchmarkId::VectorScale,
    BenchmarkId::VectorRotate,
    BenchmarkId::LuDecomp,
];

/// All workloads, by name.
pub const WORKLOADS: [Workload; 3] = [
    // validity queries of `solve` dominate (80-96% of each benchmark)
    Workload {
        name: "converge",
        benches: &STABILIZING,
        verify_workers: 1,
        max_iterations: None,
        expect: Expect::Converge,
    },
    // In-place RL (the paper's running example): iteration 6 exhausts the
    // loop-bounded path space for two candidates before a third yields a
    // path, so long feasibility queries take 99% of the run. The cap sets
    // the run length: a cap of 5 ends in about 1% of the time of 6, and a
    // cap of 7 takes about 10% longer than 6.
    Workload {
        name: "explore",
        benches: &[BenchmarkId::InPlaceRl],
        verify_workers: 1,
        max_iterations: Some(6),
        expect: Expect::IterationCap,
    },
    // the only workload that runs the parallel verification waves
    Workload {
        name: "parallel",
        benches: &STABILIZING,
        verify_workers: 2,
        max_iterations: None,
        expect: Expect::Converge,
    },
];

impl Workload {
    /// The workload called `name`, if any.
    pub fn by_name(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// Counts whose value depends on thread timing. With two or more
    /// verification workers, two workers can miss the shared query cache on
    /// the same query at once, or one can hit the entry the other just
    /// added, so the engine's hit/miss split varies between runs; their sum,
    /// `engine_queries`, does not.
    pub fn racy_counts(&self) -> &'static [&'static str] {
        if self.verify_workers > 1 {
            &["engine_hits", "engine_misses"]
        } else {
            &[]
        }
    }

    /// `counts` without the [`racy_counts`](Self::racy_counts): the counts
    /// that two runs of the same code must repeat exactly.
    pub fn exact_counts<'a>(&self, counts: &'a BTreeMap<String, u64>) -> BTreeMap<&'a str, u64> {
        counts
            .iter()
            .filter(|(k, _)| !self.racy_counts().contains(&k.as_str()))
            .map(|(k, v)| (k.as_str(), *v))
            .collect()
    }

    /// The configuration every engine run of `id` in this workload uses.
    pub fn config(&self, id: BenchmarkId) -> PinsConfig {
        let mut config = benchmark(id).recommended_config();
        config.verify_workers = self.verify_workers;
        if let Some(cap) = self.max_iterations {
            config.max_iterations = cap;
        }
        config
    }
}

/// Round-trip input sizes per benchmark, the ones pins-suite's own
/// synthesis tests (`synthesize_and_check`) use.
pub fn round_trip_sizes(id: BenchmarkId) -> &'static [usize] {
    match id {
        BenchmarkId::SumI => &[0, 1, 5],
        BenchmarkId::VectorShift | BenchmarkId::Serialize => &[0, 1, 4],
        BenchmarkId::VectorScale | BenchmarkId::VectorRotate => &[0, 2, 4],
        BenchmarkId::LuDecomp => &[1],
        other => panic!("no round-trip sizes for {other:?}"),
    }
}

/// Round-trip inputs drawn per size, as in `synthesize_and_check`.
pub const ROUND_TRIP_SEEDS: usize = 4;

/// The benchmark named by its `Debug` spelling (`SumI`, `LuDecomp`, ...).
pub fn bench_by_name(name: &str) -> Option<BenchmarkId> {
    pins_suite::ALL
        .into_iter()
        .find(|id| format!("{id:?}") == name)
}
