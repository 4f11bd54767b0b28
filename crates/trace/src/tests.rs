//! Unit tests for the tracing crate.
//!
//! Tests that install the process-wide recorder serialize on [`GLOBAL_LOCK`]
//! so the harness's default parallel execution cannot interleave installs.

use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

use crate::json::{self, Json};
use crate::metrics::MetricsRegistry;
use crate::recorder::{count, install, is_enabled, point, uninstall, EventKind, Recorder};
use crate::span::{current, span};

static GLOBAL_LOCK: Mutex<()> = Mutex::new(());

/// Serializes access to the global recorder slot across tests, recovering
/// from poisoning (a failed test must not cascade).
fn global_lock() -> MutexGuard<'static, ()> {
    GLOBAL_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// A `Write` sink backed by a shared byte buffer, so tests can read back
/// what a JSONL recorder wrote.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl std::io::Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

impl SharedBuf {
    fn contents(&self) -> String {
        String::from_utf8(self.0.lock().unwrap().clone()).unwrap()
    }
}

// -- json -------------------------------------------------------------------

#[test]
fn json_parses_scalars() {
    assert_eq!(json::parse("null").unwrap(), Json::Null);
    assert_eq!(json::parse("true").unwrap(), Json::Bool(true));
    assert_eq!(json::parse("false").unwrap(), Json::Bool(false));
    assert_eq!(json::parse("42").unwrap(), Json::Num(42.0));
    assert_eq!(json::parse("-3.5e2").unwrap(), Json::Num(-350.0));
    assert_eq!(json::parse("\"hi\"").unwrap(), Json::Str("hi".into()));
}

#[test]
fn json_parses_structures() {
    let v = json::parse(r#"{"a": [1, 2, {"b": "x\ny"}], "c": null}"#).unwrap();
    let arr = v.get("a").unwrap();
    match arr {
        Json::Arr(items) => {
            assert_eq!(items.len(), 3);
            assert_eq!(items[2].get("b").unwrap().as_str(), Some("x\ny"));
        }
        other => panic!("expected array, got {other:?}"),
    }
    assert_eq!(v.get("c"), Some(&Json::Null));
}

#[test]
fn json_parses_escapes() {
    let v = json::parse(r#""q\"uote \\ A \t""#).unwrap();
    assert_eq!(v.as_str(), Some("q\"uote \\ A \t"));
}

#[test]
fn json_rejects_malformed() {
    for bad in [
        "",
        "{",
        "[1,",
        "{\"a\":}",
        "tru",
        "1 2",
        "\"unterminated",
        "{\"a\" 1}",
    ] {
        assert!(json::parse(bad).is_err(), "accepted {bad:?}");
    }
}

// -- event serialization ----------------------------------------------------

#[test]
fn event_json_roundtrips_through_parser() {
    let _g = global_lock();
    let rec = Recorder::ring(16);
    rec.emit(
        EventKind::Point,
        "test.point",
        7,
        3,
        Some(1500),
        vec![
            ("count", 9u64.into()),
            ("delta", (-4i64).into()),
            ("ok", true.into()),
            ("label", "a \"quoted\"\nline".into()),
            ("ratio", crate::recorder::FieldValue::F64(0.25)),
            ("nan", crate::recorder::FieldValue::F64(f64::NAN)),
        ],
    );
    let events = rec.events();
    assert_eq!(events.len(), 1);
    let v = json::parse(&events[0].to_json()).expect("event JSON must parse");
    assert_eq!(v.get("kind").unwrap().as_str(), Some("point"));
    assert_eq!(v.get("name").unwrap().as_str(), Some("test.point"));
    assert_eq!(v.get("span").unwrap().as_num(), Some(7.0));
    assert_eq!(v.get("parent").unwrap().as_num(), Some(3.0));
    assert_eq!(v.get("dur_us").unwrap().as_num(), Some(1500.0));
    let fields = v.get("fields").unwrap();
    assert_eq!(fields.get("count").unwrap().as_num(), Some(9.0));
    assert_eq!(fields.get("delta").unwrap().as_num(), Some(-4.0));
    assert_eq!(fields.get("ok"), Some(&Json::Bool(true)));
    assert_eq!(
        fields.get("label").unwrap().as_str(),
        Some("a \"quoted\"\nline")
    );
    assert_eq!(fields.get("ratio").unwrap().as_num(), Some(0.25));
    assert_eq!(fields.get("nan"), Some(&Json::Null));
}

// -- recorder sinks ---------------------------------------------------------

#[test]
fn ring_buffer_evicts_oldest_and_counts_drops() {
    let rec = Recorder::ring(3);
    for _ in 0..5 {
        rec.emit(EventKind::Count, "c", 0, 0, None, Vec::new());
    }
    let events = rec.events();
    assert_eq!(events.len(), 3);
    assert_eq!(events[0].seq, 3); // 1 and 2 were evicted
    assert_eq!(rec.emitted(), 5);
    assert_eq!(rec.dropped(), 2);
}

#[test]
fn jsonl_sink_emits_one_parseable_object_per_line() {
    let _g = global_lock();
    let buf = SharedBuf::default();
    let rec = Recorder::jsonl(Box::new(buf.clone()));
    {
        let _guard = install(rec.clone());
        let mut s = span("outer");
        s.record_u64("n", 1);
        count("ticks", 2);
        point("obs", || vec![("x", 1u64.into())]);
    }
    let text = buf.contents();
    let lines: Vec<&str> = text.lines().collect();
    // span_start, count, point, span_end, plus the trace.summary appended
    // at uninstall
    assert_eq!(lines.len(), 5);
    let mut prev_seq = 0.0;
    for line in &lines {
        let v = json::parse(line).expect("every JSONL line must parse");
        let seq = v.get("seq").unwrap().as_num().unwrap();
        assert!(seq > prev_seq, "seq must be strictly increasing");
        prev_seq = seq;
    }
    assert_eq!(
        json::parse(lines[3]).unwrap().get("kind").unwrap().as_str(),
        Some("span_end")
    );
    let summary = json::parse(lines[4]).unwrap();
    assert_eq!(summary.get("name").unwrap().as_str(), Some("trace.summary"));
    let fields = summary.get("fields").unwrap();
    assert_eq!(fields.get("emitted").unwrap().as_num(), Some(4.0));
    assert_eq!(fields.get("dropped").unwrap().as_num(), Some(0.0));
}

// -- install / enable -------------------------------------------------------

#[test]
fn install_guard_toggles_enabled_flag() {
    let _g = global_lock();
    assert!(!is_enabled());
    {
        let _guard = install(Recorder::ring(4));
        assert!(is_enabled());
    }
    assert!(!is_enabled());
    assert!(uninstall().is_none());
}

#[test]
fn disabled_emitters_are_inert() {
    let _g = global_lock();
    assert!(!is_enabled());
    let mut s = span("ghost");
    assert!(!s.is_active());
    assert_eq!(s.id(), 0);
    s.record_u64("ignored", 1);
    count("ghost.count", 1);
    point("ghost.point", || panic!("fields closure must not run"));
    assert_eq!(current(), (0, 0));
}

// -- spans ------------------------------------------------------------------

#[test]
fn spans_nest_and_attribute_parents() {
    let _g = global_lock();
    let rec = Recorder::ring(64);
    let _guard = install(rec.clone());

    let outer = span("outer");
    let outer_id = outer.id();
    assert_ne!(outer_id, 0);
    {
        let inner = span("inner");
        assert_ne!(inner.id(), outer_id);
        assert_eq!(current(), (inner.id(), 2));
        count("inside", 1);
    }
    assert_eq!(current(), (outer_id, 1));
    drop(outer);
    assert_eq!(current(), (0, 0));
    drop(_guard);

    let events = rec.events();
    let starts: Vec<_> = events
        .iter()
        .filter(|e| e.kind == EventKind::SpanStart)
        .collect();
    assert_eq!(starts.len(), 2);
    assert_eq!(starts[0].parent, 0);
    assert_eq!(starts[1].parent, outer_id);
    let count_ev = events.iter().find(|e| e.kind == EventKind::Count).unwrap();
    assert_eq!(
        count_ev.parent, starts[1].span,
        "count parents to innermost span"
    );
    // ends come innermost-first, each with a duration
    let ends: Vec<_> = events
        .iter()
        .filter(|e| e.kind == EventKind::SpanEnd)
        .collect();
    assert_eq!(ends.len(), 2);
    assert_eq!(ends[0].name, "inner");
    assert_eq!(ends[1].name, "outer");
    assert!(ends.iter().all(|e| e.dur_us.is_some()));
}

#[test]
fn span_timing_is_monotone_in_nesting() {
    let _g = global_lock();
    let rec = Recorder::ring(64);
    let _guard = install(rec.clone());
    {
        let _outer = span("outer");
        {
            let _inner = span("inner");
            std::thread::sleep(Duration::from_millis(2));
        }
    }
    drop(_guard);
    let events = rec.events();
    let dur = |name: &str| {
        events
            .iter()
            .find(|e| e.kind == EventKind::SpanEnd && e.name == name)
            .unwrap()
            .dur_us
            .unwrap()
    };
    assert!(dur("outer") >= dur("inner"), "outer span contains inner");
    assert!(
        dur("inner") >= 2000,
        "sleep must be visible in the duration"
    );
}

#[test]
fn spans_are_per_thread() {
    let _g = global_lock();
    let rec = Recorder::ring(64);
    let _guard = install(rec.clone());

    let _main_span = span("main.work");
    let main_id = _main_span.id();
    std::thread::spawn(|| {
        // a fresh thread starts with an empty span stack
        assert_eq!(current(), (0, 0));
        let worker = span("worker.task");
        assert_ne!(worker.id(), 0);
    })
    .join()
    .unwrap();
    assert_eq!(current(), (main_id, 1));
    drop(_main_span);
    drop(_guard);

    let worker_start = rec
        .events()
        .iter()
        .find(|e| e.name == "worker.task" && e.kind == EventKind::SpanStart)
        .cloned()
        .unwrap();
    assert_eq!(worker_start.parent, 0, "worker span not parented to main's");
}

#[test]
fn span_stack_survives_panic_unwind() {
    let _g = global_lock();
    let rec = Recorder::ring(64);
    let _guard = install(rec.clone());

    let outer = span("outer");
    let outer_id = outer.id();
    let result = std::panic::catch_unwind(|| {
        let _worker = span("worker");
        // an inner span deliberately leaked mid-unwind
        std::mem::forget(span("leaked"));
        panic!("worker exploded");
    });
    assert!(result.is_err());
    // `worker` was dropped during the unwind; its Drop repaired the stack,
    // discarding the leaked inner id, so `outer` is on top again.
    assert_eq!(current(), (outer_id, 1));
    drop(outer);
    assert_eq!(current(), (0, 0));
    drop(_guard);

    let events = rec.events();
    let worker_end = events
        .iter()
        .find(|e| e.kind == EventKind::SpanEnd && e.name == "worker")
        .unwrap();
    assert!(
        worker_end.dur_us.is_some(),
        "unwound span still closes with timing"
    );
    let outer_end = events
        .iter()
        .find(|e| e.kind == EventKind::SpanEnd && e.name == "outer")
        .unwrap();
    assert_eq!(outer_end.span, outer_id);
}

// -- metrics registry -------------------------------------------------------

#[test]
fn registry_counters_share_cells_across_clones() {
    let reg = MetricsRegistry::new();
    let reg2 = reg.clone();
    assert!(reg.same_registry(&reg2));
    assert!(!reg.same_registry(&MetricsRegistry::new()));

    let a = reg.counter("smt.queries");
    let b = reg2.counter("smt.queries");
    a.inc();
    b.add(4);
    assert_eq!(reg.get("smt.queries"), 5);
    assert_eq!(a.get(), 5);

    // get() on an absent name reports 0 without creating a cell
    assert_eq!(reg.get("never.touched"), 0);
    assert!(!reg.snapshot().contains_key("never.touched"));
}

#[test]
fn registry_counters_sum_across_threads() {
    let reg = MetricsRegistry::new();
    let handles: Vec<_> = (0..4)
        .map(|_| {
            let c = reg.counter("hits");
            std::thread::spawn(move || {
                for _ in 0..1000 {
                    c.inc();
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(reg.get("hits"), 4000);
}

#[test]
fn registry_durations_and_max() {
    let reg = MetricsRegistry::new();
    reg.add_duration("phase.sat", Duration::from_millis(3));
    reg.add_duration("phase.sat", Duration::from_millis(2));
    assert_eq!(reg.duration("phase.sat"), Duration::from_millis(5));

    reg.record_max("solve.max_clauses", 10);
    reg.record_max("solve.max_clauses", 7);
    assert_eq!(reg.get("solve.max_clauses"), 10);
}

crate::counter_table! {
    /// A two-cell table for the key-table tests.
    struct ToyStats(prefix) / ToyCounters {
        /// A count.
        queries: u64 = "queries",
        /// A duration.
        solve_time: Duration = "solve_ns",
        /// A high-water mark.
        peak: usize = "peak",
    }
    fixed {
        /// Holds its value and no cell.
        version: u32 = 7,
    }
}

crate::counter_table! {
    /// A table with full key names.
    struct RootStats / RootCounters {
        /// A count.
        runs: u64 = "root.runs",
    }
}

#[test]
fn key_table_keys_are_unique_and_in_declaration_order() {
    assert_eq!(ToyStats::KEYS, ["queries", "solve_ns", "peak"]);
    let mut keys = ToyStats::KEYS.to_vec();
    keys.extend(RootStats::KEYS);
    let n = keys.len();
    keys.sort_unstable();
    keys.dedup();
    assert_eq!(keys.len(), n);
}

#[test]
fn key_table_view_equals_the_registry_after_bumps() {
    let reg = MetricsRegistry::new();
    let c = ToyCounters::bind(&reg, "toy");
    c.queries.add(3);
    c.solve_time.add_duration(Duration::from_micros(5));
    c.peak.record_max(9);
    c.peak.record_max(4);
    let live = c.view();
    assert_eq!(live, ToyStats::from_registry(&reg, "toy"));
    assert_eq!(live.queries, 3);
    assert_eq!(live.solve_time, Duration::from_micros(5));
    assert_eq!(live.peak, 9);
    assert_eq!(live.version, 7);
    assert_eq!(reg.get("toy.queries"), 3);
    assert_eq!(reg.get("toy.solve_ns"), 5_000);
    // a second binding under the same prefix shares the cells
    ToyCounters::bind(&reg, "toy").queries.inc();
    assert_eq!(c.view().queries, 4);

    let r = RootCounters::bind(&reg);
    r.runs.inc();
    assert_eq!(reg.get("root.runs"), 1);
    assert_eq!(r.view(), RootStats::from_registry(&reg));
}

#[test]
fn key_table_detached_handles_count_privately() {
    let reg = MetricsRegistry::new();
    let detached = ToyCounters::default();
    detached.queries.inc();
    assert_eq!(detached.view().queries, 1);
    assert!(reg.snapshot().is_empty());
    let empty = ToyStats::from_registry(&reg, "toy");
    assert_eq!((empty.queries, empty.peak), (0, 0));
    assert_eq!(empty.solve_time, Duration::ZERO);
}
