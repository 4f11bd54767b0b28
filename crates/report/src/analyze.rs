//! Turns a parsed trace into the report's aggregates: per-origin cost
//! attribution, exact per-layer latency percentiles, the top-K most
//! expensive queries with their provenance, and folded stacks for flame
//! tooling.

use std::collections::BTreeMap;

use crate::ingest::{Kind, Trace, TraceEvent};

/// Cost bucket for one `(benchmark, phase)` origin.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OriginCost {
    /// Number of `smt.query` spans attributed here.
    pub queries: u64,
    /// Total query wall time in microseconds.
    pub total_us: u64,
    /// Query-cache hits among those queries.
    pub cache_hits: u64,
    /// Cache hits answered by a subsuming unsat core (`core_hit` on the
    /// span) rather than an exact key; a subset of `cache_hits`.
    pub core_hits: u64,
}

/// Solver time per pass, summed over the `smt.check` spans under one
/// benchmark's queries (microseconds, as the spans measured them).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PassTimes {
    /// `smt.check` spans summed.
    pub checks: u64,
    /// Preprocessing, CNF encoding and atom compilation.
    pub prep_us: u64,
    /// CDCL search, theory hooks excluded.
    pub sat_us: u64,
    /// Congruence closure and the final check's lemma scan.
    pub euf_us: u64,
    /// Simplex, branch-and-bound, theory combination and model building.
    pub lia_us: u64,
    /// E-matching rounds.
    pub ematch_us: u64,
    /// Upfront axiom instantiation (counted in `prep_us` by traces that
    /// predate the field, which read 0 here).
    pub inst_us: u64,
    /// Wall time of the rounds after each check's first CDCL search: the
    /// resumed searches and the lemma work between them. A slice of the
    /// columns before it, not another pass; 0 in traces that predate it.
    pub resume_us: u64,
}

impl PassTimes {
    /// The per-pass field names on `smt.check` spans, in column order.
    pub const FIELDS: [&'static str; 7] = [
        "prep_us",
        "sat_us",
        "euf_us",
        "lia_us",
        "ematch_us",
        "inst_us",
        "resume_us",
    ];

    fn add_check(&mut self, ev: &TraceEvent) {
        let f = |k: &str| ev.field_num(k).unwrap_or(0.0) as u64;
        self.checks += 1;
        self.prep_us += f("prep_us");
        self.sat_us += f("sat_us");
        self.euf_us += f("euf_us");
        self.lia_us += f("lia_us");
        self.ematch_us += f("ematch_us");
        self.inst_us += f("inst_us");
        self.resume_us += f("resume_us");
    }

    fn absorb(&mut self, o: &PassTimes) {
        self.checks += o.checks;
        self.prep_us += o.prep_us;
        self.sat_us += o.sat_us;
        self.euf_us += o.euf_us;
        self.lia_us += o.lia_us;
        self.ematch_us += o.ematch_us;
        self.inst_us += o.inst_us;
        self.resume_us += o.resume_us;
    }

    /// The pass times in [`PassTimes::FIELDS`] order.
    pub fn values(&self) -> [u64; 7] {
        [
            self.prep_us,
            self.sat_us,
            self.euf_us,
            self.lia_us,
            self.ematch_us,
            self.inst_us,
            self.resume_us,
        ]
    }
}

/// One expensive query, provenance attached.
#[derive(Debug, Clone)]
pub struct TopQuery {
    /// Query wall time in microseconds.
    pub dur_us: u64,
    /// Benchmark (or program under BMC) the query belongs to.
    pub bench: String,
    /// Engine phase that issued it.
    pub phase: String,
    /// `pins.iteration` number at issue time (0 outside the loop).
    pub iter: u64,
    /// 1-based path id, when the query concerned a specific path.
    pub path: u64,
    /// CEGIS counterexample round, when inside CEGIS.
    pub cegis_round: u64,
    /// Solver verdict string, when recorded.
    pub verdict: String,
    /// Whether the normalized-query cache answered it.
    pub cached: bool,
}

/// Exact latency percentiles over one span layer (one span name).
#[derive(Debug, Clone, Default)]
pub struct LayerLatency {
    /// Number of completed spans.
    pub count: u64,
    /// Total microseconds across them.
    pub total_us: u64,
    /// Median duration in microseconds.
    pub p50_us: u64,
    /// 90th percentile duration.
    pub p90_us: u64,
    /// 99th percentile duration.
    pub p99_us: u64,
    /// Slowest span seen.
    pub max_us: u64,
}

impl LayerLatency {
    fn from_durations(mut durs: Vec<u64>) -> LayerLatency {
        durs.sort_unstable();
        let total = durs.iter().sum();
        let pick = |q: f64| {
            // nearest-rank on the sorted sample: exact, not bucketed
            let rank = ((durs.len() as f64) * q).ceil() as usize;
            durs[rank.clamp(1, durs.len()) - 1]
        };
        LayerLatency {
            count: durs.len() as u64,
            total_us: total,
            p50_us: pick(0.50),
            p90_us: pick(0.90),
            p99_us: pick(0.99),
            max_us: *durs.last().unwrap(),
        }
    }
}

/// Everything the reports print, computed in one pass over the trace.
#[derive(Debug, Clone, Default)]
pub struct Analysis {
    /// `(benchmark, phase)` → attributed query cost, sorted by key.
    pub attribution: BTreeMap<(String, String), OriginCost>,
    /// The most expensive `smt.query` spans, descending by duration.
    pub top_queries: Vec<TopQuery>,
    /// Span name → exact latency percentiles.
    pub layers: BTreeMap<String, LayerLatency>,
    /// Folded stacks (`a;b;c weight` lines, weight = self time in µs),
    /// aggregated and sorted by stack string.
    pub folded: BTreeMap<String, u64>,
    /// Counter name → summed increments.
    pub counters: BTreeMap<String, u64>,
    /// CEGIS counterexample rounds observed per benchmark.
    pub cegis_rounds: BTreeMap<String, u64>,
    /// Benchmark → per-pass solver time of its queries' `smt.check` spans.
    pub passes: BTreeMap<String, PassTimes>,
}

struct SpanInfo {
    name_and_parent: Option<(String, u64)>,
    children_us: u64,
}

impl Analysis {
    /// Runs the whole analysis. `top_k` bounds [`Analysis::top_queries`].
    pub fn from_trace(trace: &Trace, top_k: usize) -> Analysis {
        let mut out = Analysis::default();
        let mut durations: BTreeMap<&str, Vec<u64>> = BTreeMap::new();
        // span id → info; populated from span_end events, which carry the
        // recorded fields and duration (starts only mark tree shape)
        let mut spans: BTreeMap<u64, SpanInfo> = BTreeMap::new();
        // `smt.check` pass times waiting for their parent query span (which
        // ends after them and carries the benchmark)
        let mut checks: BTreeMap<u64, PassTimes> = BTreeMap::new();

        for ev in &trace.events {
            match ev.kind {
                Kind::Count => {
                    let n = ev.field_num("n").unwrap_or(1.0) as u64;
                    *out.counters.entry(ev.name.clone()).or_default() += n;
                }
                Kind::Point => {
                    if ev.name == "cegis.cex" {
                        let bench = ev.field_str("bench").unwrap_or("?").to_string();
                        let round = ev.field_num("round").unwrap_or(0.0) as u64;
                        let slot = out.cegis_rounds.entry(bench).or_default();
                        *slot = (*slot).max(round);
                    }
                }
                Kind::SpanStart => {}
                Kind::SpanEnd => {
                    let dur = ev.dur_us.unwrap_or(0);
                    durations.entry(ev.name.as_str()).or_default().push(dur);
                    spans.insert(
                        ev.span,
                        SpanInfo {
                            name_and_parent: Some((ev.name.clone(), ev.parent)),
                            children_us: spans.get(&ev.span).map_or(0, |s| s.children_us),
                        },
                    );
                    if ev.parent != 0 {
                        spans
                            .entry(ev.parent)
                            .or_insert(SpanInfo {
                                name_and_parent: None,
                                children_us: 0,
                            })
                            .children_us += dur;
                    }
                    if ev.name == "smt.check" {
                        checks.entry(ev.parent).or_default().add_check(ev);
                    }
                    if ev.name == "smt.query" {
                        out.note_query(ev, dur);
                        if let Some(p) = checks.remove(&ev.span) {
                            let bench = ev.field_str("bench").unwrap_or("?").to_string();
                            out.passes.entry(bench).or_default().absorb(&p);
                        }
                    }
                }
            }
        }

        for (name, durs) in durations {
            out.layers
                .insert(name.to_string(), LayerLatency::from_durations(durs));
        }
        out.fold_stacks(trace, &spans);
        out.top_queries.sort_by_key(|q| std::cmp::Reverse(q.dur_us));
        out.top_queries.truncate(top_k);
        out
    }

    fn note_query(&mut self, ev: &TraceEvent, dur: u64) {
        let bench = ev.field_str("bench").unwrap_or("?").to_string();
        let phase = ev.field_str("phase").unwrap_or("none").to_string();
        let flag = |k: &str| matches!(ev.fields.get(k), Some(j) if j == &pins_trace::json::Json::Bool(true));
        let cached = flag("cached");
        let cost = self
            .attribution
            .entry((bench.clone(), phase.clone()))
            .or_default();
        cost.queries += 1;
        cost.total_us += dur;
        cost.cache_hits += cached as u64;
        cost.core_hits += flag("core_hit") as u64;
        self.top_queries.push(TopQuery {
            dur_us: dur,
            bench,
            phase,
            iter: ev.field_num("iter").unwrap_or(0.0) as u64,
            path: ev.field_num("path").unwrap_or(0.0) as u64,
            cegis_round: ev.field_num("cegis_round").unwrap_or(0.0) as u64,
            verdict: ev.field_str("verdict").unwrap_or("?").to_string(),
            cached,
        });
    }

    /// Builds inferno/speedscope-compatible folded stacks. Each span
    /// contributes its *self* time (duration minus direct children) under
    /// the `root;...;leaf` stack reconstructed from parent links.
    fn fold_stacks(&mut self, trace: &Trace, spans: &BTreeMap<u64, SpanInfo>) {
        for ev in &trace.events {
            if ev.kind != Kind::SpanEnd {
                continue;
            }
            let dur = ev.dur_us.unwrap_or(0);
            let children = spans.get(&ev.span).map_or(0, |s| s.children_us);
            let self_us = dur.saturating_sub(children);
            let mut stack = vec![ev.name.as_str()];
            let mut cursor = ev.parent;
            // parent chains are short; the depth cap only guards corrupt input
            for _ in 0..64 {
                if cursor == 0 {
                    break;
                }
                match spans.get(&cursor).and_then(|s| s.name_and_parent.as_ref()) {
                    Some((name, parent)) => {
                        stack.push(name.as_str());
                        cursor = *parent;
                    }
                    None => break,
                }
            }
            stack.reverse();
            *self.folded.entry(stack.join(";")).or_default() += self_us;
        }
    }

    /// The folded stacks as text, one `stack weight` line each.
    pub fn folded_text(&self) -> String {
        let mut s = String::new();
        for (stack, weight) in &self.folded {
            s.push_str(stack);
            s.push(' ');
            s.push_str(&weight.to_string());
            s.push('\n');
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ingest::Trace;

    fn demo_trace() -> Trace {
        // pins.run(1) > pins.iteration(2) > two smt.query spans (3, 4)
        Trace::parse(concat!(
            r#"{"seq":1,"t_us":0,"thread":0,"kind":"span_start","name":"pins.run","span":1}"#,
            "\n",
            r#"{"seq":2,"t_us":1,"thread":0,"kind":"span_start","name":"pins.iteration","span":2,"parent":1}"#,
            "\n",
            r#"{"seq":3,"t_us":2,"thread":0,"kind":"span_end","name":"smt.query","span":3,"parent":2,"dur_us":100,"fields":{"bench":"Σi","phase":"solve","iter":1,"verdict":"unsat","cached":false}}"#,
            "\n",
            r#"{"seq":4,"t_us":3,"thread":0,"kind":"span_end","name":"smt.query","span":4,"parent":2,"dur_us":40,"fields":{"bench":"Σi","phase":"pickone","iter":1,"path":2,"verdict":"sat","cached":true}}"#,
            "\n",
            r#"{"seq":5,"t_us":4,"thread":0,"kind":"count","name":"smt.queries","fields":{"n":2}}"#,
            "\n",
            r#"{"seq":6,"t_us":5,"thread":0,"kind":"span_end","name":"pins.iteration","span":2,"parent":1,"dur_us":200}"#,
            "\n",
            r#"{"seq":7,"t_us":6,"thread":0,"kind":"span_end","name":"pins.run","span":1,"dur_us":300}"#,
            "\n",
        ))
    }

    #[test]
    fn attribution_groups_by_bench_and_phase() {
        let a = Analysis::from_trace(&demo_trace(), 10);
        let solve = &a.attribution[&("Σi".to_string(), "solve".to_string())];
        assert_eq!(
            (
                solve.queries,
                solve.total_us,
                solve.cache_hits,
                solve.core_hits
            ),
            (1, 100, 0, 0)
        );
        let pick = &a.attribution[&("Σi".to_string(), "pickone".to_string())];
        assert_eq!(
            (pick.queries, pick.total_us, pick.cache_hits, pick.core_hits),
            (1, 40, 1, 0)
        );
        assert_eq!(a.counters["smt.queries"], 2);
    }

    #[test]
    fn core_hits_count_only_spans_marked_core_hit() {
        // a solved query, an exact cache hit and a core hit in one phase
        let trace = Trace::parse(concat!(
            r#"{"seq":1,"t_us":0,"thread":0,"kind":"span_end","name":"smt.query","span":1,"dur_us":50,"fields":{"bench":"Σi","phase":"solve","verdict":"unsat","cached":false,"core_hit":false}}"#,
            "\n",
            r#"{"seq":2,"t_us":1,"thread":0,"kind":"span_end","name":"smt.query","span":2,"dur_us":5,"fields":{"bench":"Σi","phase":"solve","verdict":"unsat","cached":true}}"#,
            "\n",
            r#"{"seq":3,"t_us":2,"thread":0,"kind":"span_end","name":"smt.query","span":3,"dur_us":7,"fields":{"bench":"Σi","phase":"solve","verdict":"unsat","cached":true,"core_hit":true}}"#,
            "\n",
        ));
        let a = Analysis::from_trace(&trace, 10);
        let solve = &a.attribution[&("Σi".to_string(), "solve".to_string())];
        assert_eq!(
            (
                solve.queries,
                solve.total_us,
                solve.cache_hits,
                solve.core_hits
            ),
            (3, 62, 2, 1)
        );
        let text = crate::render::analysis_report(&a, &trace.stats, &[]);
        assert!(text.contains("core"), "{text}");
    }

    #[test]
    fn check_pass_times_sum_under_their_query_benchmark() {
        let trace = Trace::parse(concat!(
            r#"{"seq":1,"t_us":0,"thread":0,"kind":"span_end","name":"smt.check","span":2,"parent":1,"dur_us":90,"fields":{"prep_us":5,"sat_us":10,"euf_us":30,"lia_us":40,"ematch_us":1}}"#,
            "\n",
            r#"{"seq":2,"t_us":1,"thread":0,"kind":"span_end","name":"smt.check","span":3,"parent":1,"dur_us":9,"fields":{"prep_us":1,"sat_us":2,"euf_us":3,"lia_us":4,"ematch_us":0}}"#,
            "\n",
            r#"{"seq":3,"t_us":2,"thread":0,"kind":"span_end","name":"smt.query","span":1,"dur_us":100,"fields":{"bench":"vshift","phase":"solve","cached":false}}"#,
            "\n",
        ));
        let a = Analysis::from_trace(&trace, 10);
        let p = a.passes["vshift"];
        assert_eq!(p.checks, 2);
        assert_eq!(p.values()[..5], [6, 12, 33, 44, 1]);
        assert_eq!(p.inst_us, 0, "a trace without the field reads 0");
        let text = crate::render::analysis_report(&a, &trace.stats, &[]);
        assert!(text.contains("solver time per pass"), "{text}");
    }

    #[test]
    fn upfront_instantiation_gets_its_own_column() {
        let trace = Trace::parse(concat!(
            r#"{"seq":1,"t_us":0,"thread":0,"kind":"span_end","name":"smt.check","span":2,"parent":1,"dur_us":90,"fields":{"prep_us":5,"inst_us":7,"sat_us":10,"euf_us":30,"lia_us":40,"ematch_us":1}}"#,
            "\n",
            r#"{"seq":2,"t_us":2,"thread":0,"kind":"span_end","name":"smt.query","span":1,"dur_us":100,"fields":{"bench":"serialize","phase":"solve","cached":false}}"#,
            "\n",
        ));
        let a = Analysis::from_trace(&trace, 10);
        assert_eq!(a.passes["serialize"].values(), [5, 10, 30, 40, 1, 7, 0]);
        let text = crate::render::analysis_report(&a, &trace.stats, &[]);
        let header = text
            .lines()
            .skip_while(|l| !l.contains("solver time per pass"))
            .nth(1)
            .unwrap_or_default();
        assert!(header.contains("ematch       inst"), "{text}");
    }

    #[test]
    fn resumed_rounds_get_their_own_column() {
        let trace = Trace::parse(concat!(
            r#"{"seq":1,"t_us":0,"thread":0,"kind":"span_end","name":"smt.check","span":2,"parent":1,"dur_us":90,"fields":{"prep_us":5,"inst_us":7,"sat_us":10,"euf_us":30,"lia_us":40,"ematch_us":1,"resume_us":60}}"#,
            "\n",
            r#"{"seq":2,"t_us":2,"thread":0,"kind":"span_end","name":"smt.query","span":1,"dur_us":100,"fields":{"bench":"vrotate","phase":"solve","cached":false}}"#,
            "\n",
        ));
        let a = Analysis::from_trace(&trace, 10);
        assert_eq!(a.passes["vrotate"].resume_us, 60);
        let text = crate::render::analysis_report(&a, &trace.stats, &[]);
        let header = text
            .lines()
            .skip_while(|l| !l.contains("solver time per pass"))
            .nth(1)
            .unwrap_or_default();
        assert!(header.trim_end().ends_with("inst     resume"), "{text}");
    }

    #[test]
    fn top_queries_are_sorted_and_carry_provenance() {
        let a = Analysis::from_trace(&demo_trace(), 1);
        assert_eq!(a.top_queries.len(), 1);
        let q = &a.top_queries[0];
        assert_eq!(q.dur_us, 100);
        assert_eq!(q.bench, "Σi");
        assert_eq!(q.phase, "solve");
        assert_eq!(q.iter, 1);
    }

    #[test]
    fn percentiles_are_exact_nearest_rank() {
        let l = LayerLatency::from_durations((1..=100).collect());
        assert_eq!(l.p50_us, 50);
        assert_eq!(l.p90_us, 90);
        assert_eq!(l.p99_us, 99);
        assert_eq!(l.max_us, 100);
        let single = LayerLatency::from_durations(vec![7]);
        assert_eq!((single.p50_us, single.p99_us), (7, 7));
    }

    #[test]
    fn folded_stacks_use_self_time() {
        let a = Analysis::from_trace(&demo_trace(), 10);
        // iteration self = 200 - (100 + 40); run self = 300 - 200
        assert_eq!(a.folded["pins.run"], 100);
        assert_eq!(a.folded["pins.run;pins.iteration"], 60);
        assert_eq!(a.folded["pins.run;pins.iteration;smt.query"], 140);
        let text = a.folded_text();
        assert!(text.contains("pins.run;pins.iteration;smt.query 140\n"));
    }
}
