//! Pins how many axiom instances (upfront plus e-matched) every `smt.check`
//! of a full engine run generates, per benchmark of perfbench's `converge`
//! set. Grounding is deterministic, so any change to the instance sequence
//! — a trigger matched in another order, a cap cutting elsewhere — moves
//! these totals.
//!
//! One test in this binary: the trace recorder is process-wide, so a
//! second test running alongside would add its checks to these totals.

use pins::prelude::*;
use pins::suite::{benchmark, BenchmarkId};
use pins::trace::{EventKind, FieldValue};

/// Runs `id` to convergence with its recommended configuration and sums
/// the `instances` field over its `smt.check` spans.
fn traced_instances(id: BenchmarkId) -> u64 {
    let b = benchmark(id);
    let config = b.recommended_config();
    let recorder = Recorder::ring(1 << 22);
    let guard = install(recorder.clone());
    let budget = Budget::with_limits(config.time_budget, None);
    let outcome = Pins::new(config)
        .run_with(&mut b.session(), budget, &MetricsRegistry::new())
        .unwrap_or_else(|e| panic!("{}: {e:?}", b.name()));
    drop(guard);
    assert!(outcome.converged, "{} must converge", b.name());
    assert_eq!(recorder.dropped(), 0, "{}: trace lost events", b.name());
    recorder
        .events()
        .iter()
        .filter(|e| e.kind == EventKind::SpanEnd && e.name == "smt.check")
        .map(|e| {
            e.fields
                .iter()
                .find_map(|(k, v)| match v {
                    FieldValue::U64(n) if *k == "instances" => Some(*n),
                    _ => None,
                })
                .unwrap_or(0)
        })
        .sum()
}

#[test]
fn converge_set_keeps_its_instance_totals() {
    let pinned = [
        (BenchmarkId::SumI, 0),
        (BenchmarkId::Serialize, 1_181),
        (BenchmarkId::VectorShift, 0),
        (BenchmarkId::VectorScale, 427),
        (BenchmarkId::VectorRotate, 396),
        (BenchmarkId::LuDecomp, 80),
    ];
    let got: Vec<(BenchmarkId, u64)> = pinned
        .iter()
        .map(|&(id, _)| (id, traced_instances(id)))
        .collect();
    assert_eq!(got, pinned);
    assert_eq!(got.iter().map(|&(_, n)| n).sum::<u64>(), 2_084);
}
