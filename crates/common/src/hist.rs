//! Coarse, mergeable latency histograms.
//!
//! Latency distributions (p50/p99) are first-class observables in this
//! workspace: per-request fetch times flow into [`IoCounters`] via an
//! [`AtomicHistogram`] (the `fetch_hist` row of the meter table in
//! `counters.rs`), snapshots carry a plain [`LatencyHistogram`]
//! wherever an `IoSnapshot` goes, and the `pai-server` worker pool
//! reuses the same type for served-query service times.
//!
//! The representation is deliberately coarse: 32 log2-spaced
//! microsecond buckets (`0`, `[1,2)`, `[2,4)`, … with the last bucket
//! open-ended). That keeps the struct `Copy` (so snapshot types stay
//! `Copy`), makes merging a 32-lane add, and bounds quantile error to
//! a factor of two — plenty for "is p99 within 32× of p50" style
//! gates, and far cheaper than exact reservoirs on the hot path.
//!
//! [`IoCounters`]: crate::IoCounters

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// Number of log2 buckets. Bucket 0 holds exact zeros; bucket `k`
/// (for `k >= 1`) holds values in `[2^(k-1), 2^k)` microseconds;
/// the last bucket is open-ended (anything ≥ ~18 minutes).
pub const HIST_BUCKETS: usize = 32;

/// Index of the bucket a microsecond value falls into.
#[inline]
fn bucket_index(us: u64) -> usize {
    if us == 0 {
        0
    } else {
        ((64 - us.leading_zeros()) as usize).min(HIST_BUCKETS - 1)
    }
}

/// Inclusive upper edge (µs) reported for bucket `k`; quantiles
/// resolve to this value, so they over-estimate by at most 2x.
#[inline]
fn bucket_ceiling_us(k: usize) -> u64 {
    if k == 0 {
        0
    } else {
        (1u64 << k) - 1
    }
}

/// A plain (non-atomic), `Copy`, mergeable log2-bucketed histogram of
/// microsecond latencies.
///
/// Arithmetic is saturating throughout so interval deltas
/// ([`LatencyHistogram::since`]) behave like the scalar counters in
/// `IoSnapshot::since`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LatencyHistogram {
    buckets: [u64; HIST_BUCKETS],
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one observation of `us` microseconds.
    #[inline]
    pub fn record(&mut self, us: u64) {
        let b = &mut self.buckets[bucket_index(us)];
        *b = b.saturating_add(1);
    }

    /// Adds every bucket of `other` into `self`.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b = b.saturating_add(*o);
        }
    }

    /// Bucket-wise saturating difference `self - earlier`; the
    /// histogram analogue of `IoSnapshot::since`.
    pub fn since(&self, earlier: &LatencyHistogram) -> LatencyHistogram {
        let mut out = LatencyHistogram::default();
        for (i, o) in out.buckets.iter_mut().enumerate() {
            *o = self.buckets[i].saturating_sub(earlier.buckets[i]);
        }
        out
    }

    /// Total number of recorded observations.
    pub fn count(&self) -> u64 {
        self.buckets.iter().fold(0u64, |a, b| a.saturating_add(*b))
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.buckets.iter().all(|&b| b == 0)
    }

    /// Approximate quantile in microseconds: the upper edge of the
    /// first bucket whose cumulative count reaches `q` of the total
    /// (so at most 2x above the true value). `q` is clamped to
    /// `[0, 1]`; an empty histogram yields 0.
    pub fn quantile_us(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        // Rank of the target observation, 1-based, at least 1.
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (k, &b) in self.buckets.iter().enumerate() {
            seen = seen.saturating_add(b);
            if seen >= rank {
                return bucket_ceiling_us(k);
            }
        }
        bucket_ceiling_us(HIST_BUCKETS - 1)
    }

    /// Approximate median latency in microseconds.
    pub fn p50_us(&self) -> u64 {
        self.quantile_us(0.50)
    }

    /// Approximate 99th-percentile latency in microseconds.
    pub fn p99_us(&self) -> u64 {
        self.quantile_us(0.99)
    }

    /// Raw bucket counts (index `k` per the module-level bucketing).
    pub fn buckets(&self) -> &[u64; HIST_BUCKETS] {
        &self.buckets
    }
}

impl fmt::Display for LatencyHistogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "hist(n={}, p50={}us, p99={}us)",
            self.count(),
            self.p50_us(),
            self.p99_us()
        )
    }
}

/// Lock-free shared histogram: the recording half of
/// [`LatencyHistogram`], safe to hammer from many threads. Snapshot
/// into the plain form for quantiles/merging.
///
/// Relaxed ordering is used throughout: buckets are independent
/// monotone counters and per-bucket exactness across a racing snapshot
/// is not required (same contract as `IoCounters`).
#[derive(Debug, Default)]
pub struct AtomicHistogram {
    buckets: [AtomicU64; HIST_BUCKETS],
}

impl AtomicHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one observation of `us` microseconds.
    #[inline]
    pub fn record(&self, us: u64) {
        self.buckets[bucket_index(us)].fetch_add(1, Ordering::Relaxed);
    }

    /// Copies the current counts into a plain histogram.
    pub fn snapshot(&self) -> LatencyHistogram {
        let mut out = LatencyHistogram::default();
        for (o, b) in out.buckets.iter_mut().zip(self.buckets.iter()) {
            *o = b.load(Ordering::Relaxed);
        }
        out
    }

    /// Zeroes every bucket.
    pub fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucketing_is_log2() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(1023), 10);
        assert_eq!(bucket_index(1024), 11);
        assert_eq!(bucket_index(u64::MAX), HIST_BUCKETS - 1);
    }

    #[test]
    fn quantiles_are_within_2x() {
        let mut h = LatencyHistogram::new();
        for _ in 0..99 {
            h.record(100); // bucket [64,128) → ceiling 127
        }
        h.record(10_000); // bucket [8192,16384) → ceiling 16383
        assert_eq!(h.count(), 100);
        let p50 = h.p50_us();
        assert!((100..200).contains(&p50), "p50={p50}");
        let p99 = h.p99_us();
        // The 99th observation is still 100us; the tail one is the 100th.
        assert!((100..200).contains(&p99), "p99={p99}");
        assert!(h.quantile_us(1.0) >= 10_000);
    }

    #[test]
    fn empty_histogram_is_zeroes() {
        let h = LatencyHistogram::new();
        assert!(h.is_empty());
        assert_eq!(h.count(), 0);
        assert_eq!(h.p50_us(), 0);
        assert_eq!(h.p99_us(), 0);
        assert_eq!(h, LatencyHistogram::default());
    }

    #[test]
    fn merge_and_since_roundtrip() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        for i in 0..50u64 {
            a.record(i * 17);
            b.record(i * 31 + 5);
        }
        let mut merged = a;
        merged.merge(&b);
        assert_eq!(merged.count(), 100);
        // Subtracting one half back out recovers the other exactly.
        assert_eq!(merged.since(&a), b);
        assert_eq!(merged.since(&b), a);
        // since() below zero saturates rather than wrapping.
        assert_eq!(a.since(&merged), LatencyHistogram::default());
    }

    #[test]
    fn atomic_histogram_snapshots_and_resets() {
        let h = AtomicHistogram::new();
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let h = &h;
                s.spawn(move || {
                    for i in 0..1000u64 {
                        h.record(t * 1000 + i);
                    }
                });
            }
        });
        let snap = h.snapshot();
        assert_eq!(snap.count(), 4000);
        assert!(snap.p99_us() >= snap.p50_us());
        h.reset();
        assert!(h.snapshot().is_empty());
    }

    #[test]
    fn display_is_compact() {
        let mut h = LatencyHistogram::new();
        h.record(5);
        let s = format!("{h}");
        assert!(s.contains("n=1"), "{s}");
    }
}
