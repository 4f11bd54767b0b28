//! End-to-end: a real traced PINS run → JSONL on disk → `pins-report`
//! (library and binary) producing an attribution table with provenance,
//! plus the `--diff` gate's exit-code contract.

use std::path::PathBuf;
use std::process::Command;

use pins_bench::{profile::ProfileRow, run_pins_with, verdict_of, HarnessArgs};
use pins_report::{analyze::Analysis, bench, diff, ingest::Trace};
use pins_suite::{benchmark, BenchmarkId};
use pins_trace::MetricsRegistry;

fn temp_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pins_report_e2e_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

fn fast_args() -> HarnessArgs {
    HarnessArgs {
        benchmarks: vec![BenchmarkId::SumI],
        budget: None,
        fast: true,
        query_ms: None,
        query_steps: None,
        no_retry: false,
        profile: true,
        bench_json: String::new(),
        trace_out: None,
    }
}

#[test]
fn traced_run_yields_provenance_attribution_and_percentiles() {
    let trace_path = temp_path("sumi.jsonl");
    let bench_path = temp_path("sumi_bench.json");
    let b = benchmark(BenchmarkId::SumI);
    // provenance tags queries with the program name the engine sees, not
    // the table display name
    let program = b.session().original.name.clone();

    // run Σi with the recorder installed, exactly like `table4 --trace-out`
    let registry = MetricsRegistry::new();
    let args = fast_args();
    let result = {
        let recorder = pins_trace::Recorder::jsonl_file(&trace_path).unwrap();
        let _guard = pins_trace::install(recorder);
        run_pins_with(&b, &args, &registry)
    };
    let row = ProfileRow::from_registry(b.name(), verdict_of(&result), &registry);
    std::fs::write(&bench_path, pins_bench::profile::to_json(&[row])).unwrap();
    assert!(result.is_ok(), "Σi should solve in fast mode: {result:?}");

    // library-level: ingest is complete and attribution carries provenance
    let trace = Trace::from_file(trace_path.to_str().unwrap()).unwrap();
    assert!(
        !trace.stats.incomplete(),
        "in-process trace must be gap-free: {:?}",
        trace.stats
    );
    assert_eq!(trace.stats.declared_dropped, Some(0));

    let analysis = Analysis::from_trace(&trace, 10);
    let origins: Vec<&(String, String)> = analysis.attribution.keys().collect();
    assert!(
        origins.iter().any(|(bench, _)| bench == &program),
        "queries must be attributed to {program}: {origins:?}"
    );
    assert!(
        origins.iter().any(|(_, phase)| phase == "solve"),
        "the verification phase must appear: {origins:?}"
    );
    assert!(!analysis.top_queries.is_empty());
    let top = &analysis.top_queries[0];
    assert_eq!(top.bench, program);
    assert_ne!(top.phase, "?");

    let smt = &analysis.layers["smt.query"];
    assert!(smt.count > 0);
    assert!(smt.p50_us <= smt.p90_us && smt.p90_us <= smt.p99_us);
    assert!(analysis.layers.contains_key("pins.run"));
    assert!(analysis
        .folded
        .keys()
        .any(|stack| stack.starts_with("pins.run;") && stack.ends_with("smt.query")));

    // binary-level: the CLI renders the same data and exits 0
    let out = Command::new(env!("CARGO_BIN_EXE_pins-report"))
        .arg(&trace_path)
        .arg("--bench-json")
        .arg(&bench_path)
        .arg("--folded")
        .arg("-")
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("cost attribution"), "{stdout}");
    assert!(stdout.contains("most expensive queries"), "{stdout}");
    assert!(stdout.contains("latency percentiles"), "{stdout}");
    assert!(stdout.contains(b.name()), "{stdout}");
    assert!(stdout.contains("smt.query"), "{stdout}");
}

#[test]
fn diff_gate_exit_codes_match_the_contract() {
    let base = temp_path("base.json");
    let same = temp_path("same.json");
    let worse = temp_path("worse.json");
    let baseline = r#"[
      {"benchmark":"Σi","verdict":"solved","wall_ms":1000.0,"smt_queries":100},
      {"benchmark":"Vector shift","verdict":"solved","wall_ms":2000.0,"smt_queries":200}
    ]"#;
    let regressed = r#"[
      {"benchmark":"Σi","verdict":"solved","wall_ms":1600.0,"smt_queries":100},
      {"benchmark":"Vector shift","verdict":"solved","wall_ms":2000.0,"smt_queries":200}
    ]"#;
    std::fs::write(&base, baseline).unwrap();
    std::fs::write(&same, baseline).unwrap();
    std::fs::write(&worse, regressed).unwrap();
    let run = |old: &PathBuf, new: &PathBuf| {
        Command::new(env!("CARGO_BIN_EXE_pins-report"))
            .args(["--diff", old.to_str().unwrap(), new.to_str().unwrap()])
            .args(["--threshold", "20"])
            .output()
            .unwrap()
    };

    let ok = run(&base, &same);
    assert_eq!(ok.status.code(), Some(0), "identical runs must pass");
    assert!(String::from_utf8_lossy(&ok.stdout).contains("OK: no regressions"));

    let fail = run(&base, &worse);
    assert_eq!(
        fail.status.code(),
        Some(1),
        "a +60% wall regression must fail"
    );
    assert!(String::from_utf8_lossy(&fail.stdout).contains("REGRESSION"));

    let missing = temp_path("does_not_exist.json");
    let usage = run(&base, &missing);
    assert_eq!(usage.status.code(), Some(2), "IO errors are exit 2");

    // the library agrees with the binary
    let report = diff::diff(
        &bench::parse(baseline).unwrap(),
        &bench::parse(regressed).unwrap(),
        20.0,
    );
    assert!(report.has_regressions());
}
