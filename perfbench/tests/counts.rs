//! The deterministic counts of every engine run repeat exactly: two runs
//! of each benchmark of each workload, each in a fresh process, agree on
//! iterations, paths, candidates, queries, cache hits and misses and
//! `sat_size`. A change to any of them is a behaviour change. The one
//! exception is the engine's cache hit/miss split under parallel
//! verification, which depends on thread timing; its sum is still exact.

use std::process::Command;

use perfbench::report::EngineReport;
use perfbench::workload::Workload;

fn engine_run(workload: &str, bench: &str) -> EngineReport {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--engine", workload, "--bench", bench, "--check-seed", "7"])
        .output()
        .expect("starting the engine process");
    assert!(out.status.success(), "{workload}/{bench}: {}", out.status);
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 report");
    let line = stdout.lines().last().expect("a report line");
    EngineReport::from_json(line).expect("a well-formed report")
}

fn assert_counts_repeat(workload: &str) {
    let w = Workload::by_name(workload).expect("a known workload");
    for id in w.benches {
        let bench = format!("{id:?}");
        let first = engine_run(workload, &bench);
        let second = engine_run(workload, &bench);
        assert!(first.ok, "{workload}/{bench}: {}", first.verdict);
        assert_eq!(
            w.exact_counts(&first.counts),
            w.exact_counts(&second.counts),
            "{workload}/{bench}"
        );
        assert_eq!(first.config, second.config, "{workload}/{bench}");
        for run in [&first, &second] {
            let c = &run.counts;
            assert_eq!(
                c["engine_hits"] + c["engine_misses"],
                c["engine_queries"],
                "{workload}/{bench}: every engine query is a hit or a miss"
            );
        }
    }
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "engine runs take minutes without --release"
)]
fn converge_counts_repeat() {
    assert_counts_repeat("converge");
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "engine runs take minutes without --release"
)]
fn explore_counts_repeat() {
    assert_counts_repeat("explore");
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "engine runs take minutes without --release"
)]
fn parallel_counts_repeat() {
    assert_counts_repeat("parallel");
}
