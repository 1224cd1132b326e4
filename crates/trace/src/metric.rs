//! Accumulating metric primitives: power-of-two bucket histograms (plain
//! and atomic).
//!
//! The histogram is the workhorse: determination latency (the paper's
//! earliness measure), admission-queue wait, and session duration are all
//! distributions, and the interesting part of a distribution is its tail.
//! Buckets are powers of two, so recording is a `leading_zeros` plus one
//! array increment, merging is addition, and quantiles are *upper bounds* —
//! a reported p99 is never smaller than the true p99 (conservative in the
//! direction that matters for latency).

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of histogram buckets: bucket 0 holds zeros, bucket `i` (1..=64)
/// holds values in `[2^(i-1), 2^i - 1]`.
pub(crate) const BUCKETS: usize = 65;

/// Bucket index for a value.
#[inline]
fn bucket_of(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

/// Inclusive upper bound of a bucket (saturating at `u64::MAX`).
#[inline]
fn bucket_upper(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= 64 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

/// A fixed-size summary of a histogram, ready for export.
///
/// This is what crosses serialization boundaries (JSONL records, the
/// server's `T` frame): five numbers plus the quantile estimates, not the
/// bucket array.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HistogramSummary {
    /// Number of recorded values.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: u64,
    /// Smallest recorded value (0 when empty).
    pub min: u64,
    /// Largest recorded value (0 when empty).
    pub max: u64,
    /// Upper-bound estimate of the 50th percentile.
    pub p50: u64,
    /// Upper-bound estimate of the 90th percentile.
    pub p90: u64,
    /// Upper-bound estimate of the 99th percentile.
    pub p99: u64,
}

/// A single-threaded histogram over `u64` values with power-of-two buckets.
///
/// Bucket 0 counts zeros; bucket `i` (1..=64) counts values in
/// `[2^(i-1), 2^i - 1]`. Recording is branch-plus-increment, merging is
/// element-wise addition, and [`Histogram::quantile`] returns the upper
/// bound of the bucket containing the requested rank, clamped to the exact
/// observed maximum — so estimates never under-report a latency tail.
#[derive(Clone)]
pub struct Histogram {
    buckets: [u64; BUCKETS],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.summary();
        write!(
            f,
            "Histogram(count={} sum={} min={} max={} p50={} p90={} p99={})",
            s.count, s.sum, s.min, s.max, s.p50, s.p90, s.p99
        )
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: [0; BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Record one value.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.buckets[bucket_of(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Fold another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded values.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest recorded value (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded value (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Upper-bound estimate of the `q`-quantile (`0.0 < q <= 1.0`): the
    /// upper bound of the bucket holding the value of rank `ceil(q·count)`,
    /// clamped to the exact observed maximum. Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= rank {
                return bucket_upper(i).min(self.max);
            }
        }
        self.max
    }

    /// Export the complete internal state as a flat vector for
    /// serialization: `[count, sum, min, max, bucket_0 … bucket_64]`.
    ///
    /// The `min` slot is the *internal* sentinel (`u64::MAX` when empty), so
    /// [`Histogram::import_raw`] round-trips exactly, merges included.
    pub fn export_raw(&self) -> Vec<u64> {
        let mut raw = Vec::with_capacity(4 + BUCKETS);
        raw.push(self.count);
        raw.push(self.sum);
        raw.push(self.min);
        raw.push(self.max);
        raw.extend_from_slice(&self.buckets);
        raw
    }

    /// Rebuild a histogram from [`Histogram::export_raw`] output. Returns
    /// `None` when the slice has the wrong length.
    pub fn import_raw(raw: &[u64]) -> Option<Histogram> {
        if raw.len() != 4 + BUCKETS {
            return None;
        }
        let mut h = Histogram {
            buckets: [0; BUCKETS],
            count: raw[0],
            sum: raw[1],
            min: raw[2],
            max: raw[3],
        };
        h.buckets.copy_from_slice(&raw[4..]);
        Some(h)
    }

    /// The exported five-number-plus-quantiles summary.
    pub fn summary(&self) -> HistogramSummary {
        HistogramSummary {
            count: self.count(),
            sum: self.sum(),
            min: self.min(),
            max: self.max(),
            p50: self.quantile(0.50),
            p90: self.quantile(0.90),
            p99: self.quantile(0.99),
        }
    }
}

/// A thread-safe histogram with the same buckets as [`Histogram`].
///
/// Used where multiple threads record concurrently (the server's
/// admission-queue wait and session durations). All operations are
/// `Relaxed`; [`AtomicHistogram::snapshot`] is a best-effort read, which is
/// fine for monitoring (the server only reads while quiescent or for an
/// approximate live answer to a `T` frame).
#[derive(Debug)]
pub struct AtomicHistogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for AtomicHistogram {
    fn default() -> Self {
        AtomicHistogram::new()
    }
}

impl AtomicHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        AtomicHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Record one value.
    pub fn record(&self, v: u64) {
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Fold a single-threaded histogram into this one (e.g. a session's
    /// per-document latencies into the server total).
    pub fn merge(&self, other: &Histogram) {
        for (a, b) in self.buckets.iter().zip(other.buckets.iter()) {
            if *b != 0 {
                a.fetch_add(*b, Ordering::Relaxed);
            }
        }
        if other.count != 0 {
            self.count.fetch_add(other.count, Ordering::Relaxed);
            self.sum.fetch_add(other.sum, Ordering::Relaxed);
            self.min.fetch_min(other.min, Ordering::Relaxed);
            self.max.fetch_max(other.max, Ordering::Relaxed);
        }
    }

    /// A point-in-time copy as a plain [`Histogram`].
    pub fn snapshot(&self) -> Histogram {
        let mut h = Histogram::new();
        for (a, b) in h.buckets.iter_mut().zip(self.buckets.iter()) {
            *a = b.load(Ordering::Relaxed);
        }
        h.count = self.count.load(Ordering::Relaxed);
        h.sum = self.sum.load(Ordering::Relaxed);
        h.min = self.min.load(Ordering::Relaxed);
        h.max = self.max.load(Ordering::Relaxed);
        h
    }

    /// The exported summary (via [`AtomicHistogram::snapshot`]).
    pub fn summary(&self) -> HistogramSummary {
        self.snapshot().summary()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(7), 3);
        assert_eq!(bucket_of(8), 4);
        assert_eq!(bucket_of(u64::MAX), 64);
        // Each bucket's upper bound lands in that bucket.
        for i in 0..BUCKETS {
            assert_eq!(bucket_of(bucket_upper(i)), i, "bucket {i}");
        }
    }

    #[test]
    fn empty_histogram_reports_zeroes() {
        let h = Histogram::new();
        let s = h.summary();
        assert_eq!(s, HistogramSummary::default());
        assert!(h.is_empty());
        assert_eq!(h.quantile(0.99), 0);
    }

    #[test]
    fn single_value_quantiles_are_exact_enough() {
        let mut h = Histogram::new();
        h.record(5);
        let s = h.summary();
        assert_eq!(s.count, 1);
        assert_eq!(s.sum, 5);
        assert_eq!(s.min, 5);
        assert_eq!(s.max, 5);
        // The 5 lives in bucket [4,7]; the estimate is clamped to max=5.
        assert_eq!(s.p50, 5);
        assert_eq!(s.p99, 5);
    }

    #[test]
    fn quantiles_are_upper_bounds_and_monotonic() {
        let mut h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let s = h.summary();
        assert_eq!(s.count, 1000);
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 1000);
        // True p50 = 500 lives in [512,1023) → upper bound 1023, clamped to
        // max 1000. Whatever the clamping, the estimate may not undershoot
        // the true quantile and p50 <= p90 <= p99 <= max must hold.
        assert!(s.p50 >= 500);
        assert!(s.p90 >= 900);
        assert!(s.p99 >= 990);
        assert!(s.p50 <= s.p90 && s.p90 <= s.p99 && s.p99 <= s.max);
    }

    #[test]
    fn zeros_occupy_their_own_bucket() {
        let mut h = Histogram::new();
        for _ in 0..99 {
            h.record(0);
        }
        h.record(1 << 20);
        let s = h.summary();
        assert_eq!(s.p50, 0);
        assert_eq!(s.p90, 0);
        // Rank ceil(0.99·100)=99 is still a zero; the millionth value is
        // only visible at max.
        assert_eq!(s.p99, 0);
        assert_eq!(s.max, 1 << 20);
    }

    #[test]
    fn merge_is_addition() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        for v in [1u64, 2, 3] {
            a.record(v);
        }
        for v in [100u64, 200] {
            b.record(v);
        }
        a.merge(&b);
        let s = a.summary();
        assert_eq!(s.count, 5);
        assert_eq!(s.sum, 306);
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 200);
    }

    #[test]
    fn merging_an_empty_histogram_changes_nothing() {
        let mut a = Histogram::new();
        a.record(7);
        let before = a.summary();
        a.merge(&Histogram::new());
        assert_eq!(a.summary(), before);
        // And empty.merge(empty) stays empty (min must not be poisoned).
        let mut e = Histogram::new();
        e.merge(&Histogram::new());
        assert_eq!(e.summary(), HistogramSummary::default());
    }

    #[test]
    fn atomic_histogram_matches_plain() {
        let ah = AtomicHistogram::new();
        let mut h = Histogram::new();
        for v in [0u64, 1, 5, 1000, 12345] {
            ah.record(v);
            h.record(v);
        }
        assert_eq!(ah.summary(), h.summary());
        // merge() folds a plain histogram in.
        let ah2 = AtomicHistogram::new();
        ah2.merge(&h);
        assert_eq!(ah2.summary(), h.summary());
    }

    #[test]
    fn raw_export_round_trips_exactly() {
        let mut h = Histogram::new();
        for v in [0u64, 1, 5, 77, 1 << 40, u64::MAX] {
            h.record(v);
        }
        let raw = h.export_raw();
        assert_eq!(raw.len(), 4 + BUCKETS);
        let back = Histogram::import_raw(&raw).expect("round trip");
        assert_eq!(back.summary(), h.summary());
        assert_eq!(back.export_raw(), raw);
        // Empty histograms round-trip too (internal min sentinel preserved).
        let empty = Histogram::new();
        let back = Histogram::import_raw(&empty.export_raw()).expect("empty");
        assert_eq!(back.summary(), HistogramSummary::default());
        let mut merged = back;
        merged.record(3);
        assert_eq!(merged.min(), 3);
        // Wrong lengths are rejected, not mis-read.
        assert!(Histogram::import_raw(&[]).is_none());
        assert!(Histogram::import_raw(&raw[..raw.len() - 1]).is_none());
    }

    #[test]
    fn saturating_sum_survives_extremes() {
        let mut h = Histogram::new();
        h.record(u64::MAX);
        h.record(u64::MAX);
        assert_eq!(h.sum(), u64::MAX);
        assert_eq!(h.max(), u64::MAX);
        assert_eq!(h.quantile(1.0), u64::MAX);
    }
}
