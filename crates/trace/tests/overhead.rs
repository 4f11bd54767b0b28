//! Proves the disabled-recorder fast path is a true no-op: no heap
//! allocation and no event emission. Runs as its own test binary because it
//! swaps in a counting global allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    /// Allocations made by the current thread. Per thread, so the test
    /// harness's other threads (running the other tests) are not counted;
    /// const-initialized, so reading it never allocates.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with`: the slot is gone while a thread is being torn down
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Allocations made so far by the calling thread.
fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

#[test]
fn disabled_tracing_allocates_nothing() {
    assert!(!pins_trace::is_enabled());

    // Warm up thread-locals (span stack, thread slot) outside the window.
    {
        let mut s = pins_trace::span("warmup");
        s.record_u64("x", 1);
    }
    pins_trace::count("warmup.count", 1);

    let before = allocations();
    for i in 0..10_000u64 {
        let mut s = pins_trace::span("hot.span");
        s.record_u64("iteration", i);
        s.record_str("label", "never copied");
        pins_trace::count("hot.count", i);
        pins_trace::point("hot.point", || vec![("x", i.into())]);
    }
    let after = allocations();

    assert_eq!(
        after - before,
        0,
        "disabled tracing must not allocate (saw {} allocations over 10k iterations)",
        after - before
    );
}

#[test]
fn disabled_counter_bumps_do_not_allocate() {
    let registry = pins_trace::MetricsRegistry::new();
    let counter = registry.counter("hot.cell"); // creation may allocate; that's outside the window

    let before = allocations();
    for _ in 0..10_000 {
        counter.inc();
        counter.add(3);
        counter.record_max(7);
    }
    let after = allocations();

    assert_eq!(
        after - before,
        0,
        "counter handle bumps must be allocation-free"
    );
    // first iteration: 1 + 3 then raised to 7; each later iteration adds 4
    assert_eq!(counter.get(), 7 + 4 * 9_999);
}

#[test]
fn histogram_records_do_not_allocate() {
    let registry = pins_trace::MetricsRegistry::new();
    let bound = registry.histogram("hot.hist"); // creation may allocate; outside the window
    let detached = pins_trace::Histogram::detached();
    let prov = pins_trace::ProvenanceCtx::new("bench");

    let before = allocations();
    for i in 0..10_000u64 {
        bound.record(i * 17);
        detached.record(i * 31);
        detached.record_duration(std::time::Duration::from_nanos(i));
        // provenance reads/writes on the query hot path are atomics only
        prov.set_iteration(i);
        let _ = prov.phase();
        let g = prov.enter_phase(pins_trace::Phase::Solve);
        drop(g);
    }
    let after = allocations();

    assert_eq!(
        after - before,
        0,
        "histogram records and provenance updates must be allocation-free"
    );
    assert_eq!(bound.count(), 10_000);
    assert_eq!(detached.count(), 20_000);
}
