//! Log-scaled latency histograms: fixed-size, lock-free, mergeable.
//!
//! A [`Histogram`] is 64 power-of-two buckets of `AtomicU64` counts behind
//! an `Arc`, so recording is one relaxed atomic add — no allocation, no
//! lock — and cloning a handle shares the cells: every session bound to a
//! registry name records into the buckets the registry reads.
//! [`HistSnapshot::merge`] combines snapshots taken from different
//! registries (e.g. one per benchmark).
//!
//! # Binning
//!
//! Values are recorded in nanoseconds. Bucket 0 holds exact zeros; bucket
//! `i >= 1` holds values in `[2^(i-1), 2^i)` (bucket 63 additionally
//! absorbs everything above `2^62`). Quantile accessors return the
//! arithmetic midpoint of the winning bucket, so a reported percentile is
//! within ~1.5x of the true value — plenty for "where did the time go"
//! attribution, at 512 bytes per histogram and zero overhead when idle.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Number of buckets: zeros + one per power of two up to 2^63.
pub const BUCKETS: usize = 64;

fn bucket_of(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        ((64 - v.leading_zeros()) as usize).min(BUCKETS - 1)
    }
}

/// The midpoint value a bucket reports for quantiles.
fn bucket_mid(i: usize) -> u64 {
    match i {
        0 => 0,
        1 => 1,
        // midpoint of [2^(i-1), 2^i): 3 * 2^(i-2)
        i => 3u64 << (i - 2),
    }
}

#[derive(Debug)]
pub(crate) struct HistCells {
    buckets: [AtomicU64; BUCKETS],
}

impl Default for HistCells {
    fn default() -> HistCells {
        HistCells {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

/// A handle to one shared log-scaled histogram. Cloning shares the buckets;
/// records are relaxed atomic adds, safe from any thread.
#[derive(Debug, Clone, Default)]
pub struct Histogram {
    cells: Arc<HistCells>,
}

impl Histogram {
    /// A detached histogram (not in any registry) — useful as a default.
    pub fn detached() -> Histogram {
        Histogram::default()
    }

    /// Whether two handles share the same underlying buckets.
    pub fn same_cells(&self, other: &Histogram) -> bool {
        Arc::ptr_eq(&self.cells, &other.cells)
    }

    /// Records one value (nanoseconds by convention). One relaxed atomic
    /// add; never allocates.
    #[inline]
    pub fn record(&self, v: u64) {
        self.cells.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
    }

    /// Records a duration as nanoseconds.
    #[inline]
    pub fn record_duration(&self, d: Duration) {
        self.record(d.as_nanos() as u64);
    }

    /// A point-in-time copy of the bucket counts.
    pub fn snapshot(&self) -> HistSnapshot {
        let mut buckets = [0u64; BUCKETS];
        for (i, b) in self.cells.buckets.iter().enumerate() {
            buckets[i] = b.load(Ordering::Relaxed);
        }
        HistSnapshot { buckets }
    }

    /// Total number of recorded values.
    pub fn count(&self) -> u64 {
        self.snapshot().count()
    }

    /// The value at quantile `q` in `[0, 1]` (bucket midpoint; 0 when
    /// empty). See [`HistSnapshot::quantile`].
    pub fn quantile(&self, q: f64) -> u64 {
        self.snapshot().quantile(q)
    }
}

/// An immutable copy of a histogram's buckets, with quantile accessors.
/// Two snapshots are equal iff every bucket count matches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistSnapshot {
    /// Per-bucket counts (see the module docs for the binning).
    pub buckets: [u64; BUCKETS],
}

impl HistSnapshot {
    /// An empty snapshot.
    pub fn empty() -> HistSnapshot {
        HistSnapshot {
            buckets: [0; BUCKETS],
        }
    }

    /// Total number of recorded values.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// The value at quantile `q` in `[0, 1]`: the midpoint of the first
    /// bucket whose cumulative count reaches `q * count`. Returns 0 for an
    /// empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let rank = (q.clamp(0.0, 1.0) * total as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_mid(i);
            }
        }
        bucket_mid(BUCKETS - 1)
    }

    /// Median (bucket midpoint).
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 90th percentile (bucket midpoint).
    pub fn p90(&self) -> u64 {
        self.quantile(0.90)
    }

    /// 99th percentile (bucket midpoint).
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Folds another snapshot's counts into this one.
    pub fn merge(&mut self, other: &HistSnapshot) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binning_is_monotonic_and_exhaustive() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
        let mut last = 0;
        for shift in 0..63 {
            let b = bucket_of(1u64 << shift);
            assert!(b >= last, "bucket index must be monotonic in the value");
            last = b;
        }
    }

    #[test]
    fn quantiles_land_in_the_recorded_range() {
        let h = Histogram::detached();
        for v in [100u64, 200, 400, 800, 100_000] {
            h.record(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count(), 5);
        // p50 of {100,200,400,800,100_000}: the 3rd value (400) -> its
        // bucket [256,512) reports midpoint 384
        assert_eq!(snap.p50(), 384);
        assert!(snap.p99() >= snap.p90());
        assert!(snap.p90() >= snap.p50());
        // p99 must land in the bucket of the largest value
        assert_eq!(bucket_of(snap.p99()), bucket_of(100_000));
    }

    #[test]
    fn cloned_handles_share_cells() {
        let h = Histogram::detached();
        let clone = h.clone();
        clone.record(10);
        assert_eq!(h.count(), 1, "clones must share buckets");
        assert!(h.same_cells(&clone));

        let other = Histogram::detached();
        assert!(!h.same_cells(&other));
        other.record(10);
        assert_eq!(h.count(), 1, "detached histograms keep their own buckets");
    }

    /// An empty histogram must report zero for every quantile, not panic
    /// or return a bucket midpoint.
    #[test]
    fn empty_histogram_quantiles_are_zero() {
        let h = Histogram::detached();
        let snap = h.snapshot();
        assert_eq!(snap.count(), 0);
        for q in [0.0, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(snap.quantile(q), 0, "q={q}");
        }
        assert_eq!(snap, HistSnapshot::empty());
    }

    /// With a single sample every quantile — including q=0 — must land in
    /// that sample's bucket.
    #[test]
    fn single_sample_dominates_every_quantile() {
        let h = Histogram::detached();
        h.record(700);
        let snap = h.snapshot();
        let expect = bucket_mid(bucket_of(700));
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(snap.quantile(q), expect, "q={q}");
        }
        // out-of-range quantiles clamp instead of indexing out of bounds
        assert_eq!(snap.quantile(-1.0), expect);
        assert_eq!(snap.quantile(2.0), expect);
    }

    /// The top bucket saturates: `u64::MAX` and `2^63` both land in bucket
    /// 63 and its midpoint stays representable (no shift overflow).
    #[test]
    fn extreme_values_saturate_the_top_bucket() {
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
        assert_eq!(bucket_of(1u64 << 63), BUCKETS - 1);
        assert_eq!(bucket_of((1u64 << 62) + 1), BUCKETS - 1);
        assert_eq!(bucket_mid(BUCKETS - 1), 3u64 << 61);

        let h = Histogram::detached();
        h.record(u64::MAX);
        h.record(1u64 << 63);
        let snap = h.snapshot();
        assert_eq!(snap.buckets[BUCKETS - 1], 2);
        assert_eq!(snap.p50(), 3u64 << 61);
        assert_eq!(snap.p99(), 3u64 << 61);
    }

    #[test]
    fn concurrent_records_equal_serial_records() {
        let values: Vec<u64> = (0..4000u64).map(|i| (i * 2654435761) % 1_000_000).collect();
        let serial = Histogram::detached();
        for &v in &values {
            serial.record(v);
        }
        let shared = Histogram::detached();
        std::thread::scope(|s| {
            for chunk in values.chunks(1000) {
                let h = shared.clone();
                s.spawn(move || {
                    for &v in chunk {
                        h.record(v);
                    }
                });
            }
        });
        assert_eq!(serial.snapshot(), shared.snapshot());
    }
}
