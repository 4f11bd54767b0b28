//! Reproduces the §2.4 claim: even bounding every loop to 3 unrollings, the
//! run-length template composition has thousands of unique paths (the paper
//! counts 7,225), while PINS converges after a handful of directed ones —
//! the small path-bound hypothesis.

use pins_suite::{benchmark, BenchmarkId};
use pins_symexec::{EmptyFiller, ExploreConfig, Explorer, SymCtx};

fn main() {
    let b = benchmark(BenchmarkId::InPlaceRl);
    let session = b.session();
    let mut ctx = SymCtx::new(&session.composed);
    let cfg = ExploreConfig {
        max_unroll: 3,
        max_steps: 50_000_000,
        ..ExploreConfig::default()
    };
    let mut ex = Explorer::new(&session.composed, cfg, None);
    let paths = ex.enumerate(&mut ctx, &EmptyFiller, 1_000_000);
    println!(
        "run-length composition, every loop bounded to 3 unrollings: {} syntactic paths",
        paths.len()
    );
    println!("(the paper counts 7,225 for its encoding; PINS explores ~7)");
}
