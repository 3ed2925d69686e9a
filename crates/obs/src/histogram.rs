//! Lock-free log-linear histogram for latency and count distributions.
//!
//! Values (span durations in nanoseconds, or counts — see [`Unit`])
//! land in buckets arranged as
//! powers of two subdivided into 16 linear sub-buckets, the same layout
//! HdrHistogram popularised: relative quantile error is bounded by the
//! sub-bucket width (≤ ~6%) at every magnitude, and recording is a
//! single atomic increment with no allocation.

use std::sync::atomic::{AtomicU64, Ordering};

/// log2 of the number of linear sub-buckets per power of two.
const SUB_BITS: u32 = 4;
const SUB: usize = 1 << SUB_BITS;
/// Majors 1..=60 cover values from 2^4 up to u64::MAX; major 0 holds
/// the exact small values 0..15.
const BUCKETS: usize = (64 - SUB_BITS as usize + 1) * SUB;

/// What a histogram's samples measure, fixed when it is created.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Unit {
    /// Durations in nanoseconds (spans, latencies).
    Nanos,
    /// Plain counts (columns per forward, queue depth).
    Count,
}

/// A concurrent histogram of `u64` samples in one [`Unit`].
pub struct Histogram {
    unit: Unit,
    counts: Box<[AtomicU64; BUCKETS]>,
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram of nanosecond durations.
    pub fn new() -> Self {
        Self::with_unit(Unit::Nanos)
    }

    /// An empty histogram whose samples are in `unit`.
    pub fn with_unit(unit: Unit) -> Self {
        // [AtomicU64; N] has no Copy init, so build via Vec and convert.
        let counts: Vec<AtomicU64> = (0..BUCKETS).map(|_| AtomicU64::new(0)).collect();
        let counts: Box<[AtomicU64; BUCKETS]> = match counts.into_boxed_slice().try_into() {
            Ok(b) => b,
            Err(_) => unreachable!("bucket count is fixed"),
        };
        Self {
            unit,
            counts,
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Bucket index for `v`: exact below 16, log-linear above.
    fn index(v: u64) -> usize {
        if v < SUB as u64 {
            v as usize
        } else {
            let msb = 63 - v.leading_zeros();
            let major = (msb - SUB_BITS + 1) as usize;
            let sub = ((v >> (msb - SUB_BITS)) & (SUB as u64 - 1)) as usize;
            major * SUB + sub
        }
    }

    /// Representative value (bucket midpoint) for bucket `idx`.
    fn value_of(idx: usize) -> u64 {
        if idx < SUB {
            idx as u64
        } else {
            let major = (idx / SUB) as u32;
            let sub = (idx % SUB) as u64;
            let msb = major + SUB_BITS - 1;
            let low = (1u64 << msb) | (sub << (msb - SUB_BITS));
            let width = 1u64 << (msb - SUB_BITS);
            low + width / 2
        }
    }

    /// What the samples measure.
    pub fn unit(&self) -> Unit {
        self.unit
    }

    /// Records one sample.
    pub fn record(&self, v: u64) {
        // ORDERING: Relaxed — every histogram cell is an independent
        // statistical counter; readers merge torn-in-time snapshots by
        // design, so no happens-before edge is needed anywhere here.
        self.counts[Self::index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed); // ORDERING: Relaxed — as above
        self.sum.fetch_add(v, Ordering::Relaxed); // ORDERING: Relaxed — as above
        self.min.fetch_min(v, Ordering::Relaxed); // ORDERING: Relaxed — as above
        self.max.fetch_max(v, Ordering::Relaxed); // ORDERING: Relaxed — as above
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        // ORDERING: Relaxed — advisory read of an independent cell.
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all samples (saturating only at u64 wrap, ~584 years of ns).
    pub fn sum(&self) -> u64 {
        // ORDERING: Relaxed — advisory read of an independent cell.
        self.sum.load(Ordering::Relaxed)
    }

    /// Smallest recorded sample (0 when empty).
    pub fn min(&self) -> u64 {
        // ORDERING: Relaxed — advisory read of an independent cell.
        let m = self.min.load(Ordering::Relaxed);
        if m == u64::MAX {
            0
        } else {
            m
        }
    }

    /// Largest recorded sample (0 when empty).
    pub fn max(&self) -> u64 {
        // ORDERING: Relaxed — advisory read of an independent cell.
        self.max.load(Ordering::Relaxed)
    }

    /// Mean sample value (0 when empty).
    pub fn mean(&self) -> u64 {
        self.sum().checked_div(self.count()).unwrap_or(0)
    }

    /// The `q`-quantile (`0.0..=1.0`) as a bucket-midpoint estimate,
    /// clamped into `[min, max]`. Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        let n = self.count();
        if n == 0 {
            return 0;
        }
        let target = ((q.clamp(0.0, 1.0) * n as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (idx, c) in self.counts.iter().enumerate() {
            // ORDERING: Relaxed — quantiles are estimates over a moving
            // population; bucket-wise tearing is within the error model.
            seen += c.load(Ordering::Relaxed);
            if seen >= target {
                return Self::value_of(idx).clamp(self.min(), self.max());
            }
        }
        self.max()
    }

    /// Adds every bucket and aggregate of `src` into `self` — the merge
    /// primitive behind sliding-window quantiles ([`crate::SloWindow`]).
    /// Concurrent recording into either side stays consistent bucket-wise
    /// (each bucket is an independent atomic add).
    pub fn merge_from(&self, src: &Histogram) {
        // ORDERING: Relaxed — merge is bucket-wise additive and tolerant
        // of concurrent recording on either side (each cell independent);
        // the same contract covers every load/add/min/max below.
        let n = src.count.load(Ordering::Relaxed);
        if n == 0 {
            return;
        }
        for (dst, s) in self.counts.iter().zip(src.counts.iter()) {
            let c = s.load(Ordering::Relaxed); // ORDERING: Relaxed — as above
            if c != 0 {
                dst.fetch_add(c, Ordering::Relaxed); // ORDERING: Relaxed — as above
            }
        }
        self.count.fetch_add(n, Ordering::Relaxed); // ORDERING: Relaxed — as above
                                                    // ORDERING: Relaxed — as above
        self.sum.fetch_add(src.sum.load(Ordering::Relaxed), Ordering::Relaxed);
        // ORDERING: Relaxed — as above
        self.min.fetch_min(src.min.load(Ordering::Relaxed), Ordering::Relaxed);
        // ORDERING: Relaxed — as above
        self.max.fetch_max(src.max.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// Zeroes all buckets and aggregates in place.
    pub fn reset(&self) {
        // ORDERING: Relaxed — in-place zeroing of independent advisory
        // cells; concurrent recorders may interleave, by design.
        for c in self.counts.iter() {
            c.store(0, Ordering::Relaxed); // ORDERING: Relaxed — as above
        }
        self.count.store(0, Ordering::Relaxed); // ORDERING: Relaxed — as above
        self.sum.store(0, Ordering::Relaxed); // ORDERING: Relaxed — as above
        self.min.store(u64::MAX, Ordering::Relaxed); // ORDERING: Relaxed — as above
        self.max.store(0, Ordering::Relaxed); // ORDERING: Relaxed — as above
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indexes_are_monotonic_and_in_range() {
        let mut prev = 0usize;
        for shift in 0..64u32 {
            let v = 1u64 << shift;
            for delta in [0u64, 1, (1u64 << shift) >> 1] {
                let idx = Histogram::index(v.saturating_add(delta));
                assert!(idx < BUCKETS, "idx {idx} for value {}", v.saturating_add(delta));
                assert!(idx >= prev || idx == Histogram::index(v), "non-monotonic at {v}");
            }
            prev = Histogram::index(v);
        }
        assert!(Histogram::index(u64::MAX) < BUCKETS);
    }

    #[test]
    fn small_values_are_exact() {
        let h = Histogram::new();
        for v in 0..16u64 {
            h.record(v);
        }
        for v in 0..16u64 {
            // Quantiles over the 16 exact buckets return exact values.
            let q = (v as f64 + 1.0) / 16.0;
            assert_eq!(h.quantile(q), v);
        }
    }

    #[test]
    fn bucket_midpoint_is_within_relative_error() {
        for v in [100u64, 1_000, 123_456, 7_000_000, u32::MAX as u64 * 3] {
            let rep = Histogram::value_of(Histogram::index(v));
            let err = (rep as f64 - v as f64).abs() / v as f64;
            assert!(err < 0.07, "value {v} rep {rep} err {err}");
        }
    }

    #[test]
    fn merge_combines_buckets_and_aggregates() {
        let a = Histogram::new();
        let b = Histogram::new();
        for v in [10u64, 20, 30] {
            a.record(v);
        }
        for v in [5u64, 1_000_000] {
            b.record(v);
        }
        a.merge_from(&b);
        assert_eq!(a.count(), 5);
        assert_eq!(a.sum(), 10 + 20 + 30 + 5 + 1_000_000);
        assert_eq!(a.min(), 5);
        assert_eq!(a.max(), 1_000_000);
        // Merging an empty histogram changes nothing (incl. min).
        a.merge_from(&Histogram::new());
        assert_eq!(a.count(), 5);
        assert_eq!(a.min(), 5);
    }

    #[test]
    fn empty_histogram_reports_zeros() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0);
    }
}
