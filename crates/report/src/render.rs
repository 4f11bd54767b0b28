//! Plain-text rendering of the analysis and diff reports.

use std::fmt::Write as _;

use crate::analyze::{Analysis, PassTimes};
use crate::bench::BenchRow;
use crate::diff::{DiffReport, Severity};
use crate::ingest::IngestStats;

fn fmt_us(us: u64) -> String {
    if us >= 1_000_000 {
        format!("{:.2}s", us as f64 / 1e6)
    } else if us >= 1_000 {
        format!("{:.1}ms", us as f64 / 1e3)
    } else {
        format!("{us}us")
    }
}

/// Renders the full trace-analysis report: completeness warning,
/// cost-attribution table, top-K queries, and per-layer percentiles.
pub fn analysis_report(analysis: &Analysis, stats: &IngestStats, bench: &[BenchRow]) -> String {
    let mut s = String::new();
    if let Some(warning) = stats.completeness_warning() {
        writeln!(s, "{warning}").unwrap();
        writeln!(s).unwrap();
    }
    writeln!(
        s,
        "ingested {} events ({} lines)",
        stats.parsed, stats.lines
    )
    .unwrap();
    writeln!(s).unwrap();

    if !analysis.attribution.is_empty() {
        writeln!(s, "== cost attribution (benchmark x phase) ==").unwrap();
        writeln!(
            s,
            "{:<24} {:<10} {:>8} {:>12} {:>10} {:>8} {:>8}",
            "benchmark", "phase", "queries", "total", "mean", "cached", "core"
        )
        .unwrap();
        for ((bench, phase), cost) in &analysis.attribution {
            let mean = cost.total_us.checked_div(cost.queries).unwrap_or(0);
            writeln!(
                s,
                "{:<24} {:<10} {:>8} {:>12} {:>10} {:>8} {:>8}",
                bench,
                phase,
                cost.queries,
                fmt_us(cost.total_us),
                fmt_us(mean),
                cost.cache_hits,
                cost.core_hits
            )
            .unwrap();
        }
        writeln!(s).unwrap();
    }

    if !analysis.passes.is_empty() {
        writeln!(s, "== solver time per pass (smt.check) ==").unwrap();
        write!(s, "{:<24} {:>8}", "benchmark", "checks").unwrap();
        for f in PassTimes::FIELDS {
            write!(s, " {:>10}", f.trim_end_matches("_us")).unwrap();
        }
        writeln!(s).unwrap();
        for (bench, p) in &analysis.passes {
            write!(s, "{:<24} {:>8}", bench, p.checks).unwrap();
            for v in p.values() {
                write!(s, " {:>10}", fmt_us(v)).unwrap();
            }
            writeln!(s).unwrap();
        }
        writeln!(s).unwrap();
    }

    if !analysis.top_queries.is_empty() {
        writeln!(
            s,
            "== top {} most expensive queries ==",
            analysis.top_queries.len()
        )
        .unwrap();
        for (i, q) in analysis.top_queries.iter().enumerate() {
            let mut origin = format!("{} / {}", q.bench, q.phase);
            if q.iter != 0 {
                write!(origin, " iter {}", q.iter).unwrap();
            }
            if q.path != 0 {
                write!(origin, " path {}", q.path).unwrap();
            }
            if q.cegis_round != 0 {
                write!(origin, " cex-round {}", q.cegis_round).unwrap();
            }
            writeln!(
                s,
                "{:>3}. {:>10}  {}  [{}{}]",
                i + 1,
                fmt_us(q.dur_us),
                origin,
                q.verdict,
                if q.cached { ", cached" } else { "" }
            )
            .unwrap();
        }
        writeln!(s).unwrap();
    }

    if !analysis.layers.is_empty() {
        writeln!(s, "== latency percentiles per layer ==").unwrap();
        writeln!(
            s,
            "{:<24} {:>8} {:>10} {:>10} {:>10} {:>10}",
            "span", "count", "p50", "p90", "p99", "max"
        )
        .unwrap();
        for (name, l) in &analysis.layers {
            writeln!(
                s,
                "{:<24} {:>8} {:>10} {:>10} {:>10} {:>10}",
                name,
                l.count,
                fmt_us(l.p50_us),
                fmt_us(l.p90_us),
                fmt_us(l.p99_us),
                fmt_us(l.max_us)
            )
            .unwrap();
        }
        writeln!(s).unwrap();
    }

    if !analysis.cegis_rounds.is_empty() {
        writeln!(s, "== CEGIS counterexample rounds ==").unwrap();
        for (bench, rounds) in &analysis.cegis_rounds {
            writeln!(s, "{bench:<24} {rounds}").unwrap();
        }
        writeln!(s).unwrap();
    }

    if !bench.is_empty() {
        writeln!(s, "== profile summary (BENCH_pins.json) ==").unwrap();
        writeln!(
            s,
            "{:<24} {:<16} {:>10} {:>8} {:>16} {:>24}",
            "benchmark", "verdict", "wall", "queries", "memo solve/pick", "query p50/p90/p99 (us)"
        )
        .unwrap();
        for row in bench {
            writeln!(
                s,
                "{:<24} {:<16} {:>10} {:>8} {:>16} {:>24}",
                row.benchmark,
                row.verdict,
                format!("{:.1}ms", row.wall_ms),
                row.smt_queries,
                format!("{}/{}", row.solve_memo_hits, row.pickone_memo_hits),
                format!(
                    "{:.0}/{:.0}/{:.0}",
                    row.query_p50_us, row.query_p90_us, row.query_p99_us
                )
            )
            .unwrap();
        }
    }
    s
}

/// Renders the regression diff. Lists every changed metric, with
/// regressions called out and a one-line verdict at the end.
pub fn diff_report(report: &DiffReport, threshold_pct: f64) -> String {
    let mut s = String::new();
    writeln!(s, "== regression diff (threshold {threshold_pct}%) ==").unwrap();
    writeln!(
        s,
        "{:<24} {:<12} {:>14} {:>14} {:>9}  status",
        "benchmark", "metric", "baseline", "candidate", "delta"
    )
    .unwrap();
    for e in &report.entries {
        let delta = match (e.delta_pct, e.severity) {
            (Some(p), _) => format!("{p:+.1}%"),
            // zero-baseline regression: growth from nothing has no finite
            // percentage
            (None, Severity::Regression) => "+inf%".to_string(),
            (None, _) => "-".to_string(),
        };
        let status = match e.severity {
            Severity::Regression => "REGRESSION",
            Severity::Improvement => "improved",
            Severity::Unchanged => "ok",
        };
        writeln!(
            s,
            "{:<24} {:<12} {:>14} {:>14} {:>9}  {}",
            e.benchmark, e.metric, e.old, e.new, delta, status
        )
        .unwrap();
    }
    if !report.unmatched.is_empty() {
        writeln!(
            s,
            "WARNING: {} benchmark(s) present in only one report — their \
             metrics were NOT gated:",
            report.unmatched.len()
        )
        .unwrap();
        for u in &report.unmatched {
            writeln!(s, "  {u}").unwrap();
        }
    }
    let n = report.regressions().count();
    if n > 0 {
        writeln!(
            s,
            "FAIL: {n} regression(s) past the {threshold_pct}% threshold"
        )
        .unwrap();
    } else {
        writeln!(s, "OK: no regressions past the {threshold_pct}% threshold").unwrap();
    }
    s
}
