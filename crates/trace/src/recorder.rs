//! The structured-event recorder: event model, sinks, and the process-wide
//! installation point.
//!
//! A [`Recorder`] is a cheaply cloneable handle to a thread-safe sink.
//! Events are either kept in an in-memory ring buffer (bounded; oldest
//! events are dropped and counted) or serialized immediately as one JSON
//! object per line (JSONL) to an arbitrary writer, typically the file named
//! by the harness's `--trace-out` flag.
//!
//! Exactly one recorder is *installed* at a time. Emission points all over
//! the solver stack call [`is_enabled`] first — a single relaxed atomic
//! load — and only touch the global slot when it returns true, so an
//! uninstalled recorder costs nothing on hot paths.

use std::collections::VecDeque;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

// ---------------------------------------------------------------------------
// the event model
// ---------------------------------------------------------------------------

/// A typed field value attached to an event.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    /// An unsigned counter-like value.
    U64(u64),
    /// A signed value.
    I64(i64),
    /// A floating-point value (non-finite values serialize as `null`).
    F64(f64),
    /// A boolean flag.
    Bool(bool),
    /// A short string (labels, verdicts).
    Str(String),
}

impl From<u64> for FieldValue {
    fn from(v: u64) -> Self {
        FieldValue::U64(v)
    }
}

impl From<i64> for FieldValue {
    fn from(v: i64) -> Self {
        FieldValue::I64(v)
    }
}

impl From<bool> for FieldValue {
    fn from(v: bool) -> Self {
        FieldValue::Bool(v)
    }
}

impl From<&str> for FieldValue {
    fn from(v: &str) -> Self {
        FieldValue::Str(v.to_string())
    }
}

/// What kind of record an [`Event`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A span was opened.
    SpanStart,
    /// A span was closed; `dur_us` carries its wall-clock duration.
    SpanEnd,
    /// A named quantity was incremented (`fields["n"]` is the delta).
    Count,
    /// A point-in-time observation with arbitrary fields.
    Point,
}

impl EventKind {
    /// The JSON tag of the kind.
    pub fn tag(self) -> &'static str {
        match self {
            EventKind::SpanStart => "span_start",
            EventKind::SpanEnd => "span_end",
            EventKind::Count => "count",
            EventKind::Point => "point",
        }
    }
}

/// One structured event.
#[derive(Debug, Clone)]
pub struct Event {
    /// Global emission order (1-based, gap-free per recorder).
    pub seq: u64,
    /// Microseconds since the recorder was created (monotonic clock).
    pub t_us: u64,
    /// The emitting thread's slot (0 = first thread to emit).
    pub thread: u64,
    /// Record type.
    pub kind: EventKind,
    /// Event name, e.g. `"smt.query"`.
    pub name: &'static str,
    /// The span this event belongs to (its own id for span events), 0 if
    /// none.
    pub span: u64,
    /// The enclosing span on the emitting thread, 0 at top level.
    pub parent: u64,
    /// Span duration in microseconds (span-end events only).
    pub dur_us: Option<u64>,
    /// Attached key/value payload.
    pub fields: Vec<(&'static str, FieldValue)>,
}

/// Escapes `s` into `out` as JSON string *contents* (no surrounding quotes).
fn escape_json_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

impl Event {
    /// Renders the event as a single JSON object (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(256);
        self.write_json(&mut s);
        s
    }

    /// Appends the event's JSON object to `s`. Numbers are formatted in
    /// place, so an event costs no allocation beyond `s` growing.
    fn write_json(&self, s: &mut String) {
        use std::fmt::Write as _;
        let _ = write!(
            s,
            "{{\"seq\":{},\"t_us\":{},\"thread\":{},\"kind\":\"{}\",\"name\":\"",
            self.seq,
            self.t_us,
            self.thread,
            self.kind.tag()
        );
        escape_json_into(s, self.name);
        s.push('"');
        if self.span != 0 {
            let _ = write!(s, ",\"span\":{}", self.span);
        }
        if self.parent != 0 {
            let _ = write!(s, ",\"parent\":{}", self.parent);
        }
        if let Some(d) = self.dur_us {
            let _ = write!(s, ",\"dur_us\":{d}");
        }
        if !self.fields.is_empty() {
            s.push_str(",\"fields\":{");
            for (i, (k, v)) in self.fields.iter().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                s.push('"');
                escape_json_into(s, k);
                s.push_str("\":");
                let _ = match v {
                    FieldValue::U64(n) => write!(s, "{n}"),
                    FieldValue::I64(n) => write!(s, "{n}"),
                    FieldValue::F64(f) if f.is_finite() => write!(s, "{f}"),
                    FieldValue::F64(_) => write!(s, "null"),
                    FieldValue::Bool(b) => write!(s, "{b}"),
                    FieldValue::Str(t) => {
                        s.push('"');
                        escape_json_into(s, t);
                        s.push('"');
                        Ok(())
                    }
                };
            }
            s.push('}');
        }
        s.push('}');
    }
}

// ---------------------------------------------------------------------------
// sinks and the recorder
// ---------------------------------------------------------------------------

enum SinkImpl {
    /// Keep the most recent `cap` events in memory.
    Ring {
        buf: Mutex<VecDeque<Event>>,
        cap: usize,
    },
    /// Serialize each event immediately as one JSON line.
    Jsonl { out: Mutex<Box<dyn Write + Send>> },
}

struct Core {
    epoch: Instant,
    seq: AtomicU64,
    /// Events evicted from a full ring buffer.
    dropped: AtomicU64,
    sink: SinkImpl,
}

/// A thread-safe structured-event sink. Clones share the same buffer or
/// stream, so a test can keep one handle while the stack emits through the
/// installed one.
#[derive(Clone)]
pub struct Recorder {
    core: Arc<Core>,
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let kind = match self.core.sink {
            SinkImpl::Ring { .. } => "ring",
            SinkImpl::Jsonl { .. } => "jsonl",
        };
        f.debug_struct("Recorder")
            .field("sink", &kind)
            .field("emitted", &self.core.seq.load(Ordering::Relaxed))
            .field("dropped", &self.core.dropped.load(Ordering::Relaxed))
            .finish()
    }
}

impl Recorder {
    fn from_sink(sink: SinkImpl) -> Recorder {
        Recorder {
            core: Arc::new(Core {
                epoch: Instant::now(),
                seq: AtomicU64::new(0),
                dropped: AtomicU64::new(0),
                sink,
            }),
        }
    }

    /// A recorder keeping the most recent `capacity` events in memory.
    pub fn ring(capacity: usize) -> Recorder {
        Recorder::from_sink(SinkImpl::Ring {
            buf: Mutex::new(VecDeque::with_capacity(capacity.min(4096))),
            cap: capacity.max(1),
        })
    }

    /// A recorder streaming one JSON object per line to `writer`.
    pub fn jsonl(writer: Box<dyn Write + Send>) -> Recorder {
        Recorder::from_sink(SinkImpl::Jsonl {
            out: Mutex::new(writer),
        })
    }

    /// A recorder streaming JSONL to a freshly created (truncated) file.
    pub fn jsonl_file(path: impl AsRef<Path>) -> std::io::Result<Recorder> {
        let f = std::fs::File::create(path)?;
        Ok(Recorder::jsonl(Box::new(BufWriter::new(f))))
    }

    /// Emits one event. Normally called through [`span`](fn@crate::span) /
    /// [`count`] / [`point`], which fill in attribution.
    pub fn emit(
        &self,
        kind: EventKind,
        name: &'static str,
        span: u64,
        parent: u64,
        dur_us: Option<u64>,
        fields: Vec<(&'static str, FieldValue)>,
    ) {
        let event = Event {
            seq: self.core.seq.fetch_add(1, Ordering::Relaxed) + 1,
            t_us: self.core.epoch.elapsed().as_micros() as u64,
            thread: thread_slot(),
            kind,
            name,
            span,
            parent,
            dur_us,
            fields,
        };
        match &self.core.sink {
            SinkImpl::Ring { buf, cap } => {
                let mut buf = buf.lock().unwrap();
                if buf.len() >= *cap {
                    buf.pop_front();
                    self.core.dropped.fetch_add(1, Ordering::Relaxed);
                }
                buf.push_back(event);
            }
            SinkImpl::Jsonl { out } => {
                thread_local! {
                    static LINE: std::cell::RefCell<String> = const {
                        std::cell::RefCell::new(String::new())
                    };
                }
                let mut out = out.lock().unwrap();
                let written = LINE.with(|line| {
                    let mut line = line.borrow_mut();
                    line.clear();
                    event.write_json(&mut line);
                    line.push('\n');
                    out.write_all(line.as_bytes())
                });
                // a broken pipe must not take down the solver; drop the event
                if written.is_err() {
                    self.core.dropped.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    }

    /// Snapshot of the buffered events (ring sink only; empty for JSONL).
    pub fn events(&self) -> Vec<Event> {
        match &self.core.sink {
            SinkImpl::Ring { buf, .. } => buf.lock().unwrap().iter().cloned().collect(),
            SinkImpl::Jsonl { .. } => Vec::new(),
        }
    }

    /// Total events emitted through this recorder.
    pub fn emitted(&self) -> u64 {
        self.core.seq.load(Ordering::Relaxed)
    }

    /// Events lost to ring eviction or sink write errors.
    pub fn dropped(&self) -> u64 {
        self.core.dropped.load(Ordering::Relaxed)
    }

    /// Flushes a JSONL sink (no-op for ring buffers).
    pub fn flush(&self) {
        if let SinkImpl::Jsonl { out } = &self.core.sink {
            let _ = out.lock().unwrap().flush();
        }
    }
}

// ---------------------------------------------------------------------------
// process-wide installation
// ---------------------------------------------------------------------------

/// The one-load fast-path switch. `true` iff a recorder is installed.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// The installed recorder. Only touched when `ENABLED` is true (emission)
/// or under install/uninstall.
static GLOBAL: Mutex<Option<Recorder>> = Mutex::new(None);

/// Whether a recorder is installed. One relaxed atomic load; this is the
/// *only* cost tracing adds when disabled.
#[inline]
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Installs `recorder` process-wide, returning a guard that uninstalls it
/// (and flushes) on drop. Replaces any previously installed recorder.
#[must_use = "dropping the guard immediately uninstalls the recorder"]
pub fn install(recorder: Recorder) -> InstallGuard {
    let mut slot = GLOBAL.lock().unwrap();
    *slot = Some(recorder);
    ENABLED.store(true, Ordering::Relaxed);
    InstallGuard { _priv: () }
}

/// Uninstalls and returns the current recorder, if any, emitting a final
/// `trace.summary` point (total emitted, events dropped) and flushing it.
/// The summary is how a consumer (`pins-report`) distinguishes a complete
/// trace from one that silently lost events to ring eviction or sink write
/// errors — under-attribution becomes a counted warning instead of wrong
/// numbers.
pub fn uninstall() -> Option<Recorder> {
    let mut slot = GLOBAL.lock().unwrap();
    ENABLED.store(false, Ordering::Relaxed);
    let r = slot.take();
    if let Some(r) = &r {
        let emitted = r.emitted();
        let dropped = r.dropped();
        r.emit(
            EventKind::Point,
            "trace.summary",
            0,
            0,
            None,
            vec![("emitted", emitted.into()), ("dropped", dropped.into())],
        );
        r.flush();
    }
    r
}

/// Uninstalls the recorder installed by [`install`] when dropped.
#[derive(Debug)]
pub struct InstallGuard {
    _priv: (),
}

impl Drop for InstallGuard {
    fn drop(&mut self) {
        let _ = uninstall();
    }
}

/// Runs `f` with the installed recorder, if one is present. Callers must
/// check [`is_enabled`] first on hot paths (this takes the slot lock).
pub(crate) fn with_recorder(f: impl FnOnce(&Recorder)) {
    if let Ok(slot) = GLOBAL.lock() {
        if let Some(r) = slot.as_ref() {
            f(r);
        }
    }
}

// ---------------------------------------------------------------------------
// helpers: thread slots, counters, points
// ---------------------------------------------------------------------------

/// Dense per-thread slot ids for event attribution.
pub(crate) fn thread_slot() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    thread_local! {
        static SLOT: u64 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    SLOT.with(|s| *s)
}

/// Emits a `Count` event for `name` with delta `n`. A no-op (single atomic
/// load, no allocation) when no recorder is installed.
#[inline]
pub fn count(name: &'static str, n: u64) {
    if !is_enabled() {
        return;
    }
    let (parent, _) = crate::span::current();
    with_recorder(|r| {
        r.emit(
            EventKind::Count,
            name,
            0,
            parent,
            None,
            vec![("n", n.into())],
        )
    });
}

/// Emits a `Point` event with arbitrary fields. A no-op (single atomic
/// load, no allocation) when no recorder is installed — build the field
/// vector lazily via the closure so the disabled path allocates nothing.
#[inline]
pub fn point(name: &'static str, fields: impl FnOnce() -> Vec<(&'static str, FieldValue)>) {
    if !is_enabled() {
        return;
    }
    let (parent, _) = crate::span::current();
    with_recorder(|r| r.emit(EventKind::Point, name, 0, parent, None, fields()));
}
