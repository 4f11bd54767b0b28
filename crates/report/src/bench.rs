//! Reader for the `BENCH_pins.json` profile report the harness emits with
//! `--profile`. Tolerant of older files: every member except the benchmark
//! name is optional and defaults to zero/empty, so diffing a new run
//! against a baseline written before a field existed still works.

use pins_trace::json::{self, Json};

/// One benchmark's profile row.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BenchRow {
    /// Benchmark display name (the diff join key).
    pub benchmark: String,
    /// `"solved"`, `"no-solution"`, or `"budget-exhausted"`.
    pub verdict: String,
    /// Total wall-clock milliseconds.
    pub wall_ms: f64,
    /// Phase name → milliseconds.
    pub phase_ms: Vec<(String, f64)>,
    /// SMT validity queries.
    pub smt_queries: u64,
    /// Feasibility queries from symbolic execution.
    pub feasibility_queries: u64,
    /// Normalized-query cache hits.
    pub cache_hits: u64,
    /// Normalized-query cache misses.
    pub cache_misses: u64,
    /// Constraint checks in `solve` the hole memo answered.
    pub solve_memo_hits: u64,
    /// Path checks in `pickOne` the hole memo answered.
    pub pickone_memo_hits: u64,
    /// Median query latency (µs), 0 when absent.
    pub query_p50_us: f64,
    /// 90th-percentile query latency (µs).
    pub query_p90_us: f64,
    /// 99th-percentile query latency (µs).
    pub query_p99_us: f64,
}

/// Parses a `BENCH_pins.json` document (a JSON array of row objects).
/// Rows missing a benchmark name are dropped; missing members default.
pub fn parse(text: &str) -> Result<Vec<BenchRow>, String> {
    let v = json::parse(text)?;
    let arr = match v {
        Json::Arr(items) => items,
        _ => return Err("expected a JSON array of benchmark rows".to_string()),
    };
    let mut rows = Vec::new();
    for item in arr {
        let benchmark = match item.get("benchmark").and_then(Json::as_str) {
            Some(name) => name.to_string(),
            None => continue,
        };
        let num = |key: &str| item.get(key).and_then(Json::as_num).unwrap_or(0.0);
        let mut phase_ms = Vec::new();
        if let Some(Json::Obj(m)) = item.get("phase_ms") {
            for (name, v) in m {
                phase_ms.push((name.clone(), v.as_num().unwrap_or(0.0)));
            }
        }
        rows.push(BenchRow {
            benchmark,
            verdict: item
                .get("verdict")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_string(),
            wall_ms: num("wall_ms"),
            phase_ms,
            smt_queries: num("smt_queries") as u64,
            feasibility_queries: num("feasibility_queries") as u64,
            cache_hits: num("cache_hits") as u64,
            cache_misses: num("cache_misses") as u64,
            solve_memo_hits: num("solve_memo_hits") as u64,
            pickone_memo_hits: num("pickone_memo_hits") as u64,
            query_p50_us: num("query_p50_us"),
            query_p90_us: num("query_p90_us"),
            query_p99_us: num("query_p99_us"),
        });
    }
    Ok(rows)
}

/// Reads and parses a profile report from disk.
pub fn read(path: &str) -> Result<Vec<BenchRow>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    parse(&text).map_err(|e| format!("{path}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_rows_and_defaults_missing_members() {
        let rows = parse(
            r#"[
              {"benchmark":"Σi","verdict":"solved","wall_ms":12.5,
               "phase_ms":{"symexec":6.0,"sat":1.0},
               "smt_queries":40,"query_p50_us":96.0},
              {"benchmark":"Old row"},
              {"not_a_row":true}
            ]"#,
        )
        .unwrap();
        assert_eq!(rows.len(), 2, "nameless rows are dropped");
        assert_eq!(rows[0].benchmark, "Σi");
        assert_eq!(rows[0].smt_queries, 40);
        assert_eq!(rows[0].phase_ms.len(), 2);
        assert_eq!(rows[1].wall_ms, 0.0);
        assert_eq!(rows[1].query_p99_us, 0.0);
    }

    #[test]
    fn rejects_non_arrays() {
        assert!(parse("{\"benchmark\":\"x\"}").is_err());
        assert!(parse("not json").is_err());
    }
}
