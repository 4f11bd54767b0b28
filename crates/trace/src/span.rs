//! RAII spans with monotonic timing and per-thread span stacks.
//!
//! A [`Span`] marks a region of work. Opening one emits a `span_start`
//! event; dropping it emits `span_end` with the measured duration and any
//! fields recorded in between. Each thread keeps its own stack of open span
//! ids, so events emitted from another thread are parented to *that
//! thread's* span, not to whatever the main thread has open.
//!
//! Spans are unwind-safe: a guard dropped during a panic (e.g. inside the
//! `catch_unwind` isolation of constraint verification) still closes its span
//! and repairs the thread's stack, popping any abandoned inner spans along
//! the way so nesting stays consistent for subsequent spans.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use crate::recorder::{is_enabled, with_recorder, EventKind, FieldValue};

/// Span ids are process-global and never 0 (0 means "no span").
static NEXT_SPAN: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// Open span ids on this thread, innermost last.
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// The (innermost open span id, stack depth) on the calling thread.
/// `(0, 0)` at top level.
pub fn current() -> (u64, usize) {
    STACK.with(|s| {
        let s = s.borrow();
        (s.last().copied().unwrap_or(0), s.len())
    })
}

/// An RAII span guard. Created by [`span`]; emits the closing event (with
/// duration and recorded fields) on drop.
#[derive(Debug)]
pub struct Span {
    /// 0 when inert (tracing disabled at creation).
    id: u64,
    parent: u64,
    name: &'static str,
    start: Option<Instant>,
    fields: Vec<(&'static str, FieldValue)>,
}

/// Opens a span named `name`. When no recorder is installed this is a
/// no-op: one relaxed atomic load, no allocation, and the returned guard is
/// inert (its `record_*` methods return immediately).
#[inline]
pub fn span(name: &'static str) -> Span {
    if !is_enabled() {
        return Span {
            id: 0,
            parent: 0,
            name,
            start: None,
            fields: Vec::new(),
        };
    }
    open_span(name)
}

/// The slow path: allocate an id, push it, emit `span_start`.
fn open_span(name: &'static str) -> Span {
    let id = NEXT_SPAN.fetch_add(1, Ordering::Relaxed);
    let parent = STACK.with(|s| {
        let mut s = s.borrow_mut();
        let parent = s.last().copied().unwrap_or(0);
        s.push(id);
        parent
    });
    with_recorder(|r| r.emit(EventKind::SpanStart, name, id, parent, None, Vec::new()));
    Span {
        id,
        parent,
        name,
        start: Some(Instant::now()),
        // room for a solver span's fields without regrowing
        fields: Vec::with_capacity(16),
    }
}

impl Span {
    /// Whether this guard will emit events (false when tracing was disabled
    /// at creation).
    pub fn is_active(&self) -> bool {
        self.id != 0
    }

    /// This span's id (0 when inert).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Attaches a field to the closing event. No-op on an inert span.
    pub fn record(&mut self, key: &'static str, value: impl Into<FieldValue>) {
        if self.id != 0 {
            self.fields.push((key, value.into()));
        }
    }

    /// Attaches an unsigned field. No-op on an inert span.
    pub fn record_u64(&mut self, key: &'static str, value: u64) {
        self.record(key, value);
    }

    /// Attaches a signed field. No-op on an inert span.
    pub fn record_i64(&mut self, key: &'static str, value: i64) {
        self.record(key, value);
    }

    /// Attaches a float field. No-op on an inert span.
    pub fn record_f64(&mut self, key: &'static str, value: f64) {
        if self.id != 0 {
            self.fields.push((key, FieldValue::F64(value)));
        }
    }

    /// Attaches a string field. No-op on an inert span (the string is not
    /// even copied).
    pub fn record_str(&mut self, key: &'static str, value: &str) {
        if self.id != 0 {
            self.fields.push((key, FieldValue::Str(value.to_string())));
        }
    }

    /// Attaches a duration field, in microseconds. No-op on an inert span.
    pub fn record_duration(&mut self, key: &'static str, value: std::time::Duration) {
        self.record(key, value.as_micros() as u64);
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if self.id == 0 {
            return;
        }
        // Repair the thread stack: pop until this span's id comes off. Inner
        // guards abandoned by an unwind (leaked or dropped out of order) are
        // discarded here so nesting stays consistent afterwards.
        STACK.with(|s| {
            let mut s = s.borrow_mut();
            while let Some(top) = s.pop() {
                if top == self.id {
                    break;
                }
            }
        });
        let dur_us = self
            .start
            .map(|t| t.elapsed().as_micros() as u64)
            .unwrap_or(0);
        let fields = std::mem::take(&mut self.fields);
        let (id, parent, name) = (self.id, self.parent, self.name);
        with_recorder(|r| r.emit(EventKind::SpanEnd, name, id, parent, Some(dur_us), fields));
    }
}
