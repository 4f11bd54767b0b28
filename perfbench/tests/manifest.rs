//! `BENCHMARK.json` at the repository root names exactly the workloads and
//! metrics this benchmark prints, with the same units.

use pins_trace::json::{parse, Json};

use perfbench::layers::PER_LAYER;
use perfbench::measure::END_TO_END;
use perfbench::workload::WORKLOADS;

fn manifest() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("reading BENCHMARK.json");
    parse(&text).expect("BENCHMARK.json is JSON")
}

fn entries<'a>(json: &'a Json, key: &str) -> &'a [Json] {
    match json.get(key) {
        Some(Json::Arr(items)) => items,
        _ => panic!("BENCHMARK.json lacks the list `{key}`"),
    }
}

fn named(json: &Json, key: &str, field: &str) -> Vec<(String, String)> {
    entries(json, key)
        .iter()
        .map(|e| {
            let get = |k: &str| e.get(k).and_then(Json::as_str).unwrap_or("").to_string();
            (get("name"), get(field))
        })
        .collect()
}

fn owned(table: &[(&str, &str)]) -> Vec<(String, String)> {
    table
        .iter()
        .map(|&(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

#[test]
fn manifest_lists_the_workloads_and_metrics_the_benchmark_prints() {
    let json = manifest();
    let workloads: Vec<String> = named(&json, "workloads", "why")
        .into_iter()
        .map(|(name, _)| name)
        .collect();
    let expected: Vec<String> = WORKLOADS.iter().map(|w| w.name.to_string()).collect();
    assert_eq!(workloads, expected);
    assert_eq!(named(&json, "end_to_end", "unit"), owned(&END_TO_END));
    assert_eq!(named(&json, "per_layer", "unit"), owned(&PER_LAYER));
}
