//! Benches for Table 1 (mining) and the §2.4 path-count experiment.

use pins_bench::microbench;
use pins_suite::{benchmark, BenchmarkId, ALL};
use pins_symexec::{EmptyFiller, ExploreConfig, Explorer, SymCtx};

fn main() {
    microbench::run("table1_mining_all", 10, || {
        for id in ALL {
            let bench = benchmark(id);
            let (mined, _mods) = bench.mined();
            assert!(mined.total() > 0);
        }
    });

    let bench = benchmark(BenchmarkId::InPlaceRl);
    let session = bench.session();
    microbench::run("pathcount_runlength_unroll2", 10, || {
        let mut ctx = SymCtx::new(&session.composed);
        let cfg = ExploreConfig {
            max_unroll: 2,
            max_steps: 10_000_000,
            ..ExploreConfig::default()
        };
        let mut ex = Explorer::new(&session.composed, cfg, None);
        let paths = ex.enumerate(&mut ctx, &EmptyFiller, 1_000_000);
        assert!(paths.len() > 50);
    });
}
