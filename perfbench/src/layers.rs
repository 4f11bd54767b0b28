//! Per-layer attribution of a traced engine run.
//!
//! Layers are named after crates. The numbers come from two sources only:
//! the registry cells the engine already maintains (read through
//! `PinsStats`/`SolveStats`/`SessionStats::from_registry` and
//! `MetricsRegistry::histogram_snapshot`), and the fields of the existing
//! `smt.check` spans plus the benchmark's own `bench.*` spans. Nothing is
//! instrumented inside the program for this benchmark.
//!
//! An engine process reports additive sums ([`engine_sums`]); the
//! orchestrator adds them over a workload's benchmarks and derives ratios
//! and percentiles ([`derive`]). Every ratio is reported next to its base.

use std::collections::BTreeMap;
use std::time::Duration;

use pins_core::{PinsStats, SolveStats};
use pins_smt::SessionStats;
use pins_trace::{Event, EventKind, FieldValue, HistSnapshot, MetricsRegistry, Recorder, PHASES};

use crate::stats::median;

/// SAT<->theory rounds from which an `smt.check` counts as long.
pub const LONG_CHECK_ROUNDS: u64 = 20;

/// Every per-layer metric the benchmark prints with `--trace 1`, with its
/// unit, in output order.
pub const PER_LAYER: [(&str, &str); 45] = [
    ("core.iterations", "count"),
    ("core.paths", "count"),
    ("core.candidates", "count"),
    ("core.validity_queries", "count"),
    ("core.queries_per_candidate", "queries/cand"),
    ("core.worker_panics", "count"),
    ("core.smt_reduction_s", "s"),
    ("core.pickone_s", "s"),
    ("core.symexec_s", "s"),
    ("core.other_s", "s"),
    ("symexec.feas_queries", "count"),
    ("symexec.feas_query_s", "s"),
    ("symexec.self_s", "s"),
    ("smt.engine.queries", "count"),
    ("smt.engine.hit_frac", "frac"),
    ("smt.engine.solve_s", "s"),
    ("smt.engine.p50_us", "us"),
    ("smt.engine.tail_us", "us"),
    ("smt.engine.tail_q", "frac"),
    ("smt.feas.queries", "count"),
    ("smt.feas.hit_frac", "frac"),
    ("smt.feas.solve_s", "s"),
    ("smt.feas.p50_us", "us"),
    ("smt.feas.tail_us", "us"),
    ("smt.feas.tail_q", "frac"),
    ("smt.misses", "count"),
    ("smt.miss.first_seen_frac", "frac"),
    ("smt.miss.near_miss_frac", "frac"),
    ("smt.sat_resolves", "count"),
    ("smt.unknowns", "count"),
    ("smt.retries", "count"),
    ("smt.cores", "count"),
    ("smt.check.count", "count"),
    ("smt.check.sat_rounds", "count"),
    ("smt.check.total_s", "s"),
    ("smt.check.long_frac", "frac"),
    ("smt.check.theory_conflicts", "count"),
    ("smt.check.lemmas", "count"),
    ("smt.check.instances", "count"),
    ("sat.solve_s", "s"),
    ("sat.formula_size", "count"),
    ("suite.session_s", "s"),
    ("trace.overhead_frac", "frac"),
    ("trace.base_wall_s", "s"),
    ("trace.dropped", "count"),
];

/// The additive per-layer sums of one traced engine run, from its registry
/// and the recorder it ran under (already uninstalled). `iterations` and
/// `paths` are the run's counts.
pub fn engine_sums(
    registry: &MetricsRegistry,
    recorder: &Recorder,
    iterations: u64,
    paths: u64,
) -> BTreeMap<String, f64> {
    let pins = PinsStats::from_registry(registry);
    let solve = SolveStats::from_registry(registry);
    let engine = SessionStats::from_registry(registry, "smt");
    let feas = SessionStats::from_registry(registry, "feas");
    let secs = Duration::as_secs_f64;
    let ns = |n: u64| n as f64 * 1e-9;
    let feas_query_ns: u64 = PHASES
        .iter()
        .map(|&p| SessionStats::phase_query_ns(registry, "feas", p))
        .sum();
    let phases = pins.smt_reduction_time + pins.sat_time + pins.pickone_time + pins.symexec_time;
    let unknowns = |s: &SessionStats| {
        s.unknown_deadline + s.unknown_cancelled + s.unknown_step_limit + s.unknown_overflow
    };

    let mut check = CheckSums::default();
    let mut session_us = Vec::new();
    for e in recorder
        .events()
        .iter()
        .filter(|e| e.kind == EventKind::SpanEnd)
    {
        match e.name {
            "smt.check" => check.add(e),
            "bench.session" => session_us.push(e.dur_us.unwrap_or(0) as f64),
            _ => {}
        }
    }

    let sums: [(&str, f64); 36] = [
        ("core.iterations", iterations as f64),
        ("core.paths", paths as f64),
        ("core.candidates", solve.candidates_proposed as f64),
        ("core.validity_queries", pins.smt_queries as f64),
        ("core.worker_panics", pins.worker_panics as f64),
        ("core.smt_reduction_s", secs(&pins.smt_reduction_time)),
        ("core.pickone_s", secs(&pins.pickone_time)),
        ("core.symexec_s", secs(&pins.symexec_time)),
        (
            "core.other_s",
            secs(&pins.total_time.saturating_sub(phases)),
        ),
        ("symexec.feas_queries", pins.feasibility_queries as f64),
        ("symexec.feas_query_s", ns(feas_query_ns)),
        (
            "symexec.self_s",
            secs(
                &pins
                    .symexec_time
                    .saturating_sub(Duration::from_nanos(feas_query_ns)),
            ),
        ),
        ("smt.engine.queries", engine.queries as f64),
        ("smt.engine.hits", engine.cache_hits as f64),
        ("smt.engine.solve_s", ns(registry.get("smt.audit.solve_ns"))),
        ("smt.feas.queries", feas.queries as f64),
        ("smt.feas.hits", feas.cache_hits as f64),
        ("smt.feas.solve_s", ns(registry.get("feas.audit.solve_ns"))),
        (
            "smt.misses",
            (engine.cache_misses + feas.cache_misses) as f64,
        ),
        (
            "smt.miss.first_seen",
            (engine.miss_first_seen + feas.miss_first_seen) as f64,
        ),
        (
            "smt.miss.near_miss",
            (engine.miss_near_miss + feas.miss_near_miss) as f64,
        ),
        (
            "smt.sat_resolves",
            (engine.sat_resolves + feas.sat_resolves) as f64,
        ),
        ("smt.unknowns", (unknowns(&engine) + unknowns(&feas)) as f64),
        ("smt.retries", (engine.retries + feas.retries) as f64),
        ("smt.cores", (engine.cores + feas.cores) as f64),
        ("smt.check.count", check.count as f64),
        ("smt.check.sat_rounds", check.sat_rounds as f64),
        ("smt.check.total_s", check.total_us as f64 * 1e-6),
        ("smt.check.long_s", check.long_us as f64 * 1e-6),
        ("smt.check.theory_conflicts", check.theory_conflicts as f64),
        ("smt.check.lemmas", check.lemmas as f64),
        ("smt.check.instances", check.instances as f64),
        ("sat.solve_s", secs(&pins.sat_time)),
        ("sat.formula_size", pins.sat_size as f64),
        ("suite.session_s", median(&session_us) * 1e-6),
        ("trace.dropped", recorder.dropped() as f64),
    ];
    sums.into_iter().map(|(k, v)| (k.to_string(), v)).collect()
}

/// Sums over the `smt.check` spans of a run.
#[derive(Debug, Default)]
struct CheckSums {
    count: u64,
    total_us: u64,
    long_us: u64,
    sat_rounds: u64,
    theory_conflicts: u64,
    lemmas: u64,
    instances: u64,
}

impl CheckSums {
    fn add(&mut self, e: &Event) {
        let field = |key: &str| {
            e.fields
                .iter()
                .find_map(|(k, v)| match v {
                    FieldValue::U64(n) if *k == key => Some(*n),
                    _ => None,
                })
                .unwrap_or(0)
        };
        let dur = e.dur_us.unwrap_or(0);
        let rounds = field("sat_rounds");
        self.count += 1;
        self.total_us += dur;
        if rounds >= LONG_CHECK_ROUNDS {
            self.long_us += dur;
        }
        self.sat_rounds += rounds;
        self.theory_conflicts += field("theory_conflicts");
        self.lemmas += field("lemmas");
        self.instances += field("instances");
    }
}

/// The per-layer metrics of a workload, in [`PER_LAYER`] order, from the
/// sums of its traced engine runs, their query latency histograms, and the
/// traced and untraced (median) wall times.
pub fn derive(
    sums: &BTreeMap<String, f64>,
    hists: &BTreeMap<String, HistSnapshot>,
    traced_wall_s: f64,
    base_wall_s: f64,
) -> Vec<(&'static str, f64, &'static str)> {
    let get = |k: &str| sums.get(k).copied().unwrap_or(0.0);
    let ratio = |n: f64, d: f64| if d > 0.0 { n / d } else { 0.0 };
    let mut derived = sums.clone();
    let mut set = |k: &str, v: f64| derived.insert(k.to_string(), v);
    set(
        "core.queries_per_candidate",
        ratio(get("core.validity_queries"), get("core.candidates")),
    );
    for session in ["engine", "feas"] {
        let hist = hists
            .get(session)
            .copied()
            .unwrap_or_else(HistSnapshot::empty);
        let (q, tail_ns) = tail(&hist);
        let hits = get(&format!("smt.{session}.hits"));
        let queries = get(&format!("smt.{session}.queries"));
        set(&format!("smt.{session}.hit_frac"), ratio(hits, queries));
        set(&format!("smt.{session}.p50_us"), hist.p50() as f64 * 1e-3);
        set(&format!("smt.{session}.tail_us"), tail_ns as f64 * 1e-3);
        set(&format!("smt.{session}.tail_q"), q);
    }
    for cause in ["first_seen", "near_miss"] {
        let n = get(&format!("smt.miss.{cause}"));
        set(
            &format!("smt.miss.{cause}_frac"),
            ratio(n, get("smt.misses")),
        );
    }
    set(
        "smt.check.long_frac",
        ratio(get("smt.check.long_s"), get("smt.check.total_s")),
    );
    set(
        "trace.overhead_frac",
        ratio(traced_wall_s, base_wall_s) - 1.0,
    );
    set("trace.base_wall_s", base_wall_s);
    PER_LAYER
        .iter()
        .map(|&(name, unit)| (name, derived.get(name).copied().unwrap_or(0.0), unit))
        .collect()
}

/// The highest of the 99th, 90th and 50th percentiles with at least ten
/// samples beyond it, as (quantile, nanoseconds). With fewer than 20
/// samples no percentile qualifies and the median is returned.
pub fn tail(hist: &HistSnapshot) -> (f64, u64) {
    let n = hist.count() as f64;
    let q = [0.99, 0.9]
        .into_iter()
        .find(|q| n * (1.0 - q) >= 10.0)
        .unwrap_or(0.5);
    (q, hist.quantile(q))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_picks_the_highest_percentile_with_ten_samples_beyond() {
        let mut h = HistSnapshot::empty();
        h.buckets[10] = 999;
        assert_eq!(tail(&h).0, 0.9);
        h.buckets[10] = 1000;
        assert_eq!(tail(&h).0, 0.99);
        h.buckets[10] = 50;
        assert_eq!(tail(&h).0, 0.5);
    }

    #[test]
    fn derive_reports_every_per_layer_metric_once() {
        let out = derive(&BTreeMap::new(), &BTreeMap::new(), 1.0, 1.0);
        let names: Vec<&str> = out.iter().map(|m| m.0).collect();
        let expected: Vec<&str> = PER_LAYER.iter().map(|m| m.0).collect();
        assert_eq!(names, expected);
        assert!(out.iter().all(|m| m.1.is_finite()));
    }
}
