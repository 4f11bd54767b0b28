//! The unified stats registry: named atomic counters and duration
//! accumulators, one registry per synthesis run.
//!
//! Every layer binds cheap [`Counter`] handles to the run's
//! [`MetricsRegistry`] and bumps them *at event time*; nothing else holds
//! a count. Each layer declares its cells once, in a
//! [`counter_table!`](crate::counter_table): the table generates both the
//! struct of handles its hot paths bump and the typed view (`SessionStats`
//! in `pins-smt`, `SolveStats` in `pins-core`, ...) read back from those
//! handles or from the registry by name. A counter therefore has one key
//! and one write per event.
//!
//! Durations are stored as nanoseconds in ordinary counters under the same
//! namespace (`phase.symexec`, `phase.sat`, ...); [`MetricsRegistry::add_duration`]
//! and [`MetricsRegistry::duration`] do the conversion.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use crate::hist::{HistSnapshot, Histogram};

/// A handle to one named cell of a [`MetricsRegistry`]. Cloning shares the
/// cell; increments are relaxed atomic adds, safe from any thread.
#[derive(Debug, Clone, Default)]
pub struct Counter {
    cell: Arc<AtomicU64>,
}

impl Counter {
    /// A detached counter (not in any registry) — useful as a default.
    pub fn detached() -> Counter {
        Counter::default()
    }

    /// Adds 1.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.cell.fetch_add(n, Ordering::Relaxed);
    }

    /// Raises the value to at least `v` (for high-water marks).
    #[inline]
    pub fn record_max(&self, v: u64) {
        self.cell.fetch_max(v, Ordering::Relaxed);
    }

    /// Overwrites the value (for gauges).
    #[inline]
    pub fn set(&self, v: u64) {
        self.cell.store(v, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }

    /// Adds a duration, in nanoseconds.
    #[inline]
    pub fn add_duration(&self, d: Duration) {
        self.add(d.as_nanos() as u64);
    }

    /// Reads the value as a duration in nanoseconds.
    #[inline]
    pub fn duration(&self) -> Duration {
        Duration::from_nanos(self.get())
    }
}

#[derive(Debug, Default)]
struct Inner {
    cells: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    /// Named log-scaled latency histograms, same sharing discipline as the
    /// counters: a handle is an `Arc` of the buckets, so every clone
    /// records into the cells the registry reads.
    hists: Mutex<BTreeMap<String, Histogram>>,
}

/// A thread-safe registry of named counters. Cloning shares the registry
/// (it is an `Arc` handle): the engine, its SMT sessions and the benchmark
/// harness all observe the same cells.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    inner: Arc<Inner>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Whether two handles share the same underlying registry.
    pub fn same_registry(&self, other: &MetricsRegistry) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }

    /// The counter named `name`, created at 0 on first use. The returned
    /// handle is cheap to clone and bump; hot paths should hold a handle
    /// rather than calling this (it takes the registry lock).
    pub fn counter(&self, name: &str) -> Counter {
        let mut cells = self.inner.cells.lock().unwrap();
        let cell = cells
            .entry(name.to_string())
            .or_insert_with(|| Arc::new(AtomicU64::new(0)));
        Counter {
            cell: Arc::clone(cell),
        }
    }

    /// One-shot add (prefer holding a [`Counter`] on hot paths).
    pub fn add(&self, name: &str, n: u64) {
        self.counter(name).add(n);
    }

    /// One-shot duration add.
    pub fn add_duration(&self, name: &str, d: Duration) {
        self.counter(name).add_duration(d);
    }

    /// One-shot max-record.
    pub fn record_max(&self, name: &str, v: u64) {
        self.counter(name).record_max(v);
    }

    /// Current value of `name` (0 if absent; the cell is not created).
    pub fn get(&self, name: &str) -> u64 {
        let cells = self.inner.cells.lock().unwrap();
        cells.get(name).map_or(0, |c| c.load(Ordering::Relaxed))
    }

    /// Value of `name` read as nanoseconds.
    pub fn duration(&self, name: &str) -> Duration {
        Duration::from_nanos(self.get(name))
    }

    /// A point-in-time copy of every cell, sorted by name.
    pub fn snapshot(&self) -> BTreeMap<String, u64> {
        let cells = self.inner.cells.lock().unwrap();
        cells
            .iter()
            .map(|(k, v)| (k.clone(), v.load(Ordering::Relaxed)))
            .collect()
    }

    /// The histogram named `name`, created empty on first use. The returned
    /// handle is cheap to clone and record into; hot paths should hold a
    /// handle rather than calling this (it takes the registry lock).
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut hists = self.inner.hists.lock().unwrap();
        hists.entry(name.to_string()).or_default().clone()
    }

    /// A point-in-time copy of the named histogram's buckets (empty if the
    /// histogram was never created).
    pub fn histogram_snapshot(&self, name: &str) -> HistSnapshot {
        let hists = self.inner.hists.lock().unwrap();
        hists
            .get(name)
            .map(Histogram::snapshot)
            .unwrap_or_else(HistSnapshot::empty)
    }

    /// Point-in-time snapshots of every histogram, sorted by name.
    pub fn histograms(&self) -> BTreeMap<String, HistSnapshot> {
        let hists = self.inner.hists.lock().unwrap();
        hists
            .iter()
            .map(|(k, h)| (k.clone(), h.snapshot()))
            .collect()
    }
}

/// The registry name of `key` in a table bound under `prefix`: `key`
/// itself when `prefix` is empty, `"{prefix}.{key}"` otherwise.
pub fn prefixed(prefix: &str, key: &str) -> String {
    if prefix.is_empty() {
        key.to_string()
    } else {
        format!("{prefix}.{key}")
    }
}

/// How a [`counter_table!`](crate::counter_table) view field reads its cell: counts as they are,
/// sizes as `usize`, durations from nanoseconds.
pub trait CounterValue {
    /// The field value of a cell holding `n`.
    fn from_cell(n: u64) -> Self;
}

impl CounterValue for u64 {
    fn from_cell(n: u64) -> u64 {
        n
    }
}

impl CounterValue for usize {
    fn from_cell(n: u64) -> usize {
        n as usize
    }
}

impl CounterValue for Duration {
    fn from_cell(n: u64) -> Duration {
        Duration::from_nanos(n)
    }
}

/// Declares one layer's key table: per line, a view field, its type and
/// the registry key of its cell. From that one table it generates
///
/// * the view struct (`Debug, Clone, Copy, PartialEq, Eq`) with one public
///   field per line, plus any `fixed` fields, which hold the given value
///   and no cell;
/// * a struct of [`Counter`] handles with the same field names, which the
///   layer's hot paths bump. `Default` gives detached handles;
///   `bind` binds them to the registry's cells;
/// * `handles.view()`, the view of what the handles hold, and
///   `View::from_registry`, the same view read from the registry by name;
/// * `View::KEYS`, the table's keys in order.
///
/// `struct View(prefix) / Handles` makes the keys relative: `bind` and
/// `from_registry` take the prefix (`"smt"` turns `queries` into
/// `smt.queries`). Without `(prefix)` the keys are full names and both take
/// the registry only. The handles struct takes its own visibility, written
/// before its name (`/ pub(crate) Handles`). Field types implement
/// [`CounterValue`].
///
/// ```
/// use std::time::Duration;
/// use pins_trace::{counter_table, MetricsRegistry};
///
/// counter_table! {
///     /// What a toy layer counts.
///     pub struct ToyStats(prefix) / pub ToyCounters {
///         /// Queries issued.
///         queries: u64 = "queries",
///         /// Time spent solving.
///         solve_time: Duration = "solve_ns",
///     }
/// }
///
/// let registry = MetricsRegistry::new();
/// let counters = ToyCounters::bind(&registry, "toy");
/// counters.queries.inc();
/// counters.solve_time.add_duration(Duration::from_micros(3));
/// assert_eq!(registry.get("toy.queries"), 1);
/// assert_eq!(counters.view(), ToyStats::from_registry(&registry, "toy"));
/// assert_eq!(counters.view().solve_time, Duration::from_micros(3));
/// ```
#[macro_export]
macro_rules! counter_table {
    (
        @types $(#[$view_attr:meta])* $vis:vis $view:ident / $hvis:vis $handles:ident
        { $( $(#[$field_attr:meta])* $field:ident: $ty:ty = $key:literal, )* }
        { $( $(#[$fixed_attr:meta])* $fixed:ident: $fixed_ty:ty = $fixed_value:expr, )* }
    ) => {
        $(#[$view_attr])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        $vis struct $view {
            $( $(#[$field_attr])* pub $field: $ty, )*
            $( $(#[$fixed_attr])* pub $fixed: $fixed_ty, )*
        }

        /// The registry handles behind
        #[doc = concat!("[`", stringify!($view), "`]")]
        /// (detached by default).
        #[derive(Debug, Clone, Default)]
        $hvis struct $handles {
            $( $hvis $field: $crate::Counter, )*
        }

        #[allow(dead_code)]
        impl $handles {
            fn bind_cells(mut cell: impl FnMut(&str) -> $crate::Counter) -> $handles {
                $handles { $( $field: cell($key), )* }
            }

            /// What the handles hold now.
            #[allow(deprecated)]
            $hvis fn view(&self) -> $view {
                $view {
                    $( $field: $crate::metrics::CounterValue::from_cell(self.$field.get()), )*
                    $( $fixed: $fixed_value, )*
                }
            }
        }

        #[allow(dead_code)]
        impl $view {
            /// The table's registry keys, in declaration order.
            $vis const KEYS: &'static [&'static str] = &[$($key),*];

            #[allow(deprecated)]
            fn read_cells(mut get: impl FnMut(&str) -> u64) -> $view {
                $view {
                    $( $field: $crate::metrics::CounterValue::from_cell(get($key)), )*
                    $( $fixed: $fixed_value, )*
                }
            }
        }
    };
    (
        $(#[$view_attr:meta])*
        $vis:vis struct $view:ident(prefix) / $hvis:vis $handles:ident {
            $($fields:tt)*
        }
        $(fixed { $($fixed:tt)* })?
    ) => {
        $crate::counter_table! {
            @types $(#[$view_attr])* $vis $view / $hvis $handles
            { $($fields)* } { $($($fixed)*)? }
        }
        #[allow(dead_code)]
        impl $handles {
            /// Handles bound to the registry cells `{prefix}.{key}`.
            $hvis fn bind(registry: &$crate::MetricsRegistry, prefix: &str) -> $handles {
                $handles::bind_cells(|key| registry.counter(&$crate::metrics::prefixed(prefix, key)))
            }
        }
        #[allow(dead_code)]
        impl $view {
            /// The view of the registry cells `{prefix}.{key}`.
            $vis fn from_registry(registry: &$crate::MetricsRegistry, prefix: &str) -> $view {
                $view::read_cells(|key| registry.get(&$crate::metrics::prefixed(prefix, key)))
            }
        }
    };
    (
        $(#[$view_attr:meta])*
        $vis:vis struct $view:ident / $hvis:vis $handles:ident {
            $($fields:tt)*
        }
        $(fixed { $($fixed:tt)* })?
    ) => {
        $crate::counter_table! {
            @types $(#[$view_attr])* $vis $view / $hvis $handles
            { $($fields)* } { $($($fixed)*)? }
        }
        #[allow(dead_code)]
        impl $handles {
            /// Handles bound to the registry cells named by the table's keys.
            $hvis fn bind(registry: &$crate::MetricsRegistry) -> $handles {
                $handles::bind_cells(|key| registry.counter(key))
            }
        }
        #[allow(dead_code)]
        impl $view {
            /// The view of the registry cells named by the table's keys.
            $vis fn from_registry(registry: &$crate::MetricsRegistry) -> $view {
                $view::read_cells(|key| registry.get(key))
            }
        }
    };
}
