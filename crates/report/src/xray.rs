//! `pins-report --xray`: the solver-forensics report.
//!
//! Aggregates the pins-xray instrumentation out of a trace:
//!
//! * **Incrementality scoreboard** — per benchmark: how many queries sit
//!   within an assertion-set delta of `k` atoms from their predecessor, how
//!   many are pure extensions (what a cross-query warm start would serve),
//!   and the uncached solver time.
//! * **Miss-cause breakdown** — the cache-miss taxonomy (first-seen /
//!   config-mismatch / budget-retry / near-miss) summed over the run. A
//!   query a known unsat core subsumes is a cache hit, not a miss, so it
//!   has no cause.
//! * **Top-K unsat cores** — cores by content id, ranked by how often the
//!   same core refuted a query; a handful of hot cores means refutations
//!   are structural and cacheable, a long tail means they are not.
//!
//! All inputs are `smt.query` span fields, so
//! the report works on any trace from an instrumented run — no separate
//! artifact format.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::ingest::{Kind, Trace};

/// Default assertion-set delta bound for the scoreboard's "within delta-k"
/// column (mirrors the session's near-miss bound).
pub const DEFAULT_DELTA_K: u64 = 4;

/// Per-benchmark incrementality aggregates.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BenchXray {
    /// All `smt.query` spans attributed to this benchmark.
    pub queries: u64,
    /// Queries answered from the normalized-query cache.
    pub cached: u64,
    /// Queries the incrementality audit measured (all but each session's
    /// first).
    pub audited: u64,
    /// Audited queries whose assertion-set delta to the predecessor is at
    /// most `delta_k`.
    pub within_delta_k: u64,
    /// Audited queries that only extended the predecessor (nothing
    /// removed).
    pub pure_extensions: u64,
    /// Microseconds spent on uncached (actually solved) queries.
    pub solve_us: u64,
}

/// One unsat core aggregated by content id.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoreStat {
    /// Content id (hex) — stable across runs, sessions, and arenas.
    pub id: String,
    /// How many `Unsat` verdicts carried this core.
    pub count: u64,
    /// Member count.
    pub size: u64,
    /// Whether the core came from conflict analysis (vs. the fallback
    /// over-approximation).
    pub exact: bool,
}

/// The full forensics report.
#[derive(Debug, Clone, Default)]
pub struct XrayReport {
    /// The delta bound the scoreboard was computed against.
    pub delta_k: u64,
    /// Benchmark → incrementality aggregates.
    pub benchmarks: BTreeMap<String, BenchXray>,
    /// Miss cause → count, from the `miss_cause` of `smt.query` spans.
    pub miss_causes: BTreeMap<String, u64>,
    /// Cores descending by frequency (full list; renderers truncate).
    pub cores: Vec<CoreStat>,
}

impl XrayReport {
    /// Builds the report in one pass over the trace.
    pub fn from_trace(trace: &Trace, delta_k: u64) -> XrayReport {
        let mut out = XrayReport {
            delta_k,
            ..XrayReport::default()
        };
        let mut cores: BTreeMap<String, CoreStat> = BTreeMap::new();
        for ev in &trace.events {
            match ev.kind {
                Kind::SpanEnd if ev.name == "smt.query" => {
                    if let Some(cause) = ev.field_str("miss_cause") {
                        *out.miss_causes.entry(cause.to_string()).or_default() += 1;
                    }
                    let bench = ev.field_str("bench").unwrap_or("?").to_string();
                    let b = out.benchmarks.entry(bench).or_default();
                    b.queries += 1;
                    let cached = matches!(
                        ev.fields.get("cached"),
                        Some(j) if j == &pins_trace::json::Json::Bool(true)
                    );
                    b.cached += cached as u64;
                    // audit fields are present from each session's second
                    // query on
                    if let (Some(added), Some(removed)) =
                        (ev.field_num("delta_added"), ev.field_num("delta_removed"))
                    {
                        b.audited += 1;
                        if (added + removed) as u64 <= delta_k {
                            b.within_delta_k += 1;
                        }
                        if removed == 0.0 {
                            b.pure_extensions += 1;
                        }
                    }
                    if !cached {
                        b.solve_us += ev.dur_us.unwrap_or(0);
                    }
                    if let Some(id) = ev.field_str("core_id") {
                        let stat = cores.entry(id.to_string()).or_insert(CoreStat {
                            id: id.to_string(),
                            count: 0,
                            size: ev.field_num("core_size").unwrap_or(0.0) as u64,
                            exact: !matches!(
                                ev.fields.get("core_exact"),
                                Some(pins_trace::json::Json::Bool(false))
                            ),
                        });
                        stat.count += 1;
                    }
                }
                _ => {}
            }
        }
        out.cores = cores.into_values().collect();
        out.cores
            .sort_by(|a, b| b.count.cmp(&a.count).then_with(|| a.id.cmp(&b.id)));
        out
    }

    /// Whether the trace carried no xray instrumentation at all.
    pub fn is_empty(&self) -> bool {
        self.benchmarks.is_empty()
    }

    /// Totals over all benchmarks.
    fn totals(&self) -> BenchXray {
        let mut t = BenchXray::default();
        for b in self.benchmarks.values() {
            t.queries += b.queries;
            t.cached += b.cached;
            t.audited += b.audited;
            t.within_delta_k += b.within_delta_k;
            t.pure_extensions += b.pure_extensions;
            t.solve_us += b.solve_us;
        }
        t
    }

    /// The machine-readable form CI archives and schema-checks.
    pub fn to_json(&self, top_k: usize) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        let _ = writeln!(s, "  \"delta_k\": {},", self.delta_k);
        s.push_str("  \"benchmarks\": [\n");
        for (i, (name, b)) in self.benchmarks.iter().enumerate() {
            let _ = write!(
                s,
                "    {{\"benchmark\": \"{}\", \"queries\": {}, \"cached\": {}, \
                 \"audited\": {}, \"within_delta_k\": {}, \"pure_extensions\": {}, \
                 \"solve_us\": {}}}",
                esc(name),
                b.queries,
                b.cached,
                b.audited,
                b.within_delta_k,
                b.pure_extensions,
                b.solve_us
            );
            s.push_str(if i + 1 < self.benchmarks.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        s.push_str("  ],\n  \"miss_causes\": {");
        for (i, (cause, n)) in self.miss_causes.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(s, "\"{}\": {}", esc(cause), n);
        }
        s.push_str("},\n  \"cores\": [\n");
        let shown = self.cores.iter().take(top_k).collect::<Vec<_>>();
        for (i, c) in shown.iter().enumerate() {
            let _ = write!(
                s,
                "    {{\"id\": \"{}\", \"count\": {}, \"size\": {}, \"exact\": {}}}",
                esc(&c.id),
                c.count,
                c.size,
                c.exact
            );
            s.push_str(if i + 1 < shown.len() { ",\n" } else { "\n" });
        }
        s.push_str("  ]\n}\n");
        s
    }
}

/// Minimal JSON string escaping (quotes, backslashes, control characters).
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

fn fmt_us(us: u64) -> String {
    if us >= 1_000_000 {
        format!("{:.2}s", us as f64 / 1e6)
    } else if us >= 1_000 {
        format!("{:.1}ms", us as f64 / 1e3)
    } else {
        format!("{us}us")
    }
}

fn pct(part: u64, whole: u64) -> String {
    if whole == 0 {
        "-".to_string()
    } else {
        format!("{:.0}%", 100.0 * part as f64 / whole as f64)
    }
}

/// Renders the human-readable report: scoreboard, miss breakdown, top-K
/// cores.
pub fn render(report: &XrayReport, top_k: usize) -> String {
    let mut s = String::new();
    if report.is_empty() {
        let _ = writeln!(
            s,
            "no smt.query spans found — was the run traced with xray instrumentation?"
        );
        return s;
    }

    let _ = writeln!(
        s,
        "== incrementality scoreboard (delta-k = {}) ==",
        report.delta_k
    );
    let _ = writeln!(
        s,
        "{:<24} {:>8} {:>8} {:>8} {:>7} {:>9} {:>10}",
        "benchmark", "queries", "cached", "audited", "<=dk", "pure-ext", "solve"
    );
    let totals = report.totals();
    for (name, b) in report
        .benchmarks
        .iter()
        .map(|(n, b)| (n.as_str(), b))
        .chain(std::iter::once(("TOTAL", &totals)))
    {
        let _ = writeln!(
            s,
            "{:<24} {:>8} {:>8} {:>8} {:>7} {:>9} {:>10}",
            name,
            b.queries,
            b.cached,
            b.audited,
            pct(b.within_delta_k, b.audited),
            pct(b.pure_extensions, b.audited),
            fmt_us(b.solve_us),
        );
    }
    let _ = writeln!(s);

    let _ = writeln!(s, "== cache-miss causes ==");
    let _ = writeln!(
        s,
        "(queries a known unsat core subsumes count as cache hits, not misses)"
    );
    let total_misses: u64 = report.miss_causes.values().sum();
    if total_misses == 0 {
        let _ = writeln!(s, "(no misses recorded)");
    } else {
        for (cause, n) in &report.miss_causes {
            let _ = writeln!(s, "{:<20} {:>8} {:>6}", cause, n, pct(*n, total_misses));
        }
    }
    let _ = writeln!(s);

    let _ = writeln!(s, "== top {} unsat cores by frequency ==", top_k);
    if report.cores.is_empty() {
        let _ = writeln!(s, "(no unsat cores recorded)");
    } else {
        let _ = writeln!(
            s,
            "{:<6} {:<18} {:>6} {:>6} {:>7}",
            "rank", "core_id", "hits", "size", "exact"
        );
        for (i, c) in report.cores.iter().take(top_k).enumerate() {
            let _ = writeln!(
                s,
                "{:<6} {:<18} {:>6} {:>6} {:>7}",
                i + 1,
                c.id,
                c.count,
                c.size,
                if c.exact { "yes" } else { "no" }
            );
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ingest::Trace;

    fn demo_trace() -> Trace {
        Trace::parse(concat!(
            // query 1: first of the session — no audit fields, a first-seen miss
            r#"{"seq":1,"t_us":1,"thread":0,"kind":"span_end","name":"smt.query","span":1,"dur_us":100,"fields":{"bench":"Σi","phase":"solve","atoms":3,"cached":false,"miss_cause":"first_seen","verdict":"sat"}}"#,
            "\n",
            // query 2: pure extension within delta-k, unsat with a core
            r#"{"seq":2,"t_us":3,"thread":0,"kind":"span_end","name":"smt.query","span":2,"dur_us":200,"fields":{"bench":"Σi","phase":"solve","atoms":4,"shared_prefix":3,"delta_added":1,"delta_removed":0,"cached":false,"miss_cause":"near_miss","verdict":"unsat","core_size":2,"core_id":"00000000deadbeef","core_exact":true}}"#,
            "\n",
            // query 3: cache hit replaying the same core, big delta
            r#"{"seq":3,"t_us":4,"thread":0,"kind":"span_end","name":"smt.query","span":3,"dur_us":5,"fields":{"bench":"Vector shift","phase":"pickone","atoms":9,"shared_prefix":0,"delta_added":9,"delta_removed":4,"cached":true,"verdict":"unsat","core_size":2,"core_id":"00000000deadbeef","core_exact":true}}"#,
            "\n",
        ))
    }

    #[test]
    fn scoreboard_counts_audited_and_delta_k_queries() {
        let r = XrayReport::from_trace(&demo_trace(), 4);
        let b = &r.benchmarks["Σi"];
        assert_eq!((b.queries, b.cached, b.audited), (2, 0, 1));
        assert_eq!((b.within_delta_k, b.pure_extensions), (1, 1));
        assert_eq!(b.solve_us, 300);
        let v = &r.benchmarks["Vector shift"];
        assert_eq!((v.queries, v.cached, v.audited), (1, 1, 1));
        assert_eq!(v.within_delta_k, 0, "delta 13 > k=4");
        assert_eq!(v.solve_us, 0, "cache hits cost no solver time");
    }

    #[test]
    fn miss_causes_and_cores_aggregate() {
        let r = XrayReport::from_trace(&demo_trace(), 4);
        assert_eq!(r.miss_causes["first_seen"], 1);
        assert_eq!(r.miss_causes["near_miss"], 1);
        assert_eq!(r.cores.len(), 1);
        let c = &r.cores[0];
        assert_eq!(
            (c.id.as_str(), c.count, c.size, c.exact),
            ("00000000deadbeef", 2, 2, true)
        );
    }

    #[test]
    fn rendered_report_has_all_three_sections() {
        let r = XrayReport::from_trace(&demo_trace(), 4);
        let text = render(&r, 10);
        assert!(text.contains("incrementality scoreboard"), "{text}");
        assert!(text.contains("cache-miss causes"), "{text}");
        assert!(text.contains("unsat cores by frequency"), "{text}");
        assert!(text.contains("TOTAL"), "{text}");
        assert!(text.contains("00000000deadbeef"), "{text}");
    }

    #[test]
    fn json_output_parses_back_and_is_non_empty() {
        let r = XrayReport::from_trace(&demo_trace(), 4);
        let text = r.to_json(10);
        let v = pins_trace::json::parse(&text).expect("self-emitted JSON must parse");
        let benches = match v.get("benchmarks") {
            Some(pins_trace::json::Json::Arr(items)) => items.len(),
            other => panic!("benchmarks must be an array, got {other:?}"),
        };
        assert_eq!(benches, 2);
        assert_eq!(v.get("delta_k").and_then(|j| j.as_num()), Some(4.0));
        let cores = match v.get("cores") {
            Some(pins_trace::json::Json::Arr(items)) => items.len(),
            other => panic!("cores must be an array, got {other:?}"),
        };
        assert_eq!(cores, 1);
    }

    #[test]
    fn empty_traces_render_a_diagnostic_not_a_panic() {
        let r = XrayReport::from_trace(&Trace::default(), 4);
        assert!(r.is_empty());
        let text = render(&r, 10);
        assert!(text.contains("no smt.query spans"));
        // JSON stays schema-valid even when empty
        let v = pins_trace::json::parse(&r.to_json(10)).expect("valid JSON");
        assert!(matches!(
            v.get("benchmarks"),
            Some(pins_trace::json::Json::Arr(_))
        ));
    }
}
