//! Fixed-bucket latency histograms.
//!
//! Buckets are powers of two in microseconds: bucket `i` counts
//! observations with `value_us <= 2^i`, for `i` in `0..=25` (1 µs up to
//! ~33.5 s), plus one overflow bucket. Power-of-two bounds make placement
//! branch-free (one leading-zeros instruction, in [`bucket_of`]).
//!
//! Recorders observe into an [`AtomicHistogram`], whose buckets are
//! independent atomics that any thread bumps without a lock. Its
//! snapshot is a [`Histogram`]: the plain value the exporters, quantile
//! queries and heartbeats read.

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of bounded buckets (upper bounds `2^0 .. 2^25` µs).
const BOUNDED: usize = 26;

/// Bucket of `value_us`: the first power of two at or above it,
/// `ceil(log2(v))`, or the overflow bucket past `2^25`.
fn bucket_of(value_us: u64) -> usize {
    if value_us <= 1 {
        0
    } else {
        let ceil_log2 = 64 - (value_us - 1).leading_zeros() as usize;
        ceil_log2.min(BOUNDED)
    }
}

/// A histogram that any thread updates in place, without a lock.
pub(crate) struct AtomicHistogram {
    counts: [AtomicU64; Histogram::BUCKETS],
    sum_us: AtomicU64,
    min_us: AtomicU64,
    max_us: AtomicU64,
}

impl Default for AtomicHistogram {
    fn default() -> Self {
        Self {
            counts: std::array::from_fn(|_| AtomicU64::new(0)),
            sum_us: AtomicU64::new(0),
            min_us: AtomicU64::new(u64::MAX),
            max_us: AtomicU64::new(0),
        }
    }
}

impl AtomicHistogram {
    /// Record one observation of `value_us` microseconds.
    pub(crate) fn observe_us(&self, value_us: u64) {
        // ordering: min, max and sum are published by the Release bucket
        // increment below, so a snapshot that counts this observation
        // also sees them.
        self.min_us.fetch_min(value_us, Ordering::Relaxed);
        // ordering: as above.
        self.max_us.fetch_max(value_us, Ordering::Relaxed);
        let _ = self
            .sum_us
            // ordering: as above; the sum saturates instead of wrapping.
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |s| {
                Some(s.saturating_add(value_us))
            });
        // ordering: Release pairs with the snapshot's Acquire loads.
        self.counts[bucket_of(value_us)].fetch_add(1, Ordering::Release);
    }

    /// A coherent copy taken without pausing writers: the count is the
    /// sum of the bucket loads, and every counted observation is already
    /// in `min`, `max` and `sum` (observations still in flight may show
    /// there early).
    pub(crate) fn snapshot(&self) -> Histogram {
        // ordering: Acquire makes every counted observation's min, max
        // and sum updates visible to the loads below.
        let counts = std::array::from_fn(|i| self.counts[i].load(Ordering::Acquire));
        Histogram {
            counts,
            // ordering: read after the Acquire bucket loads above.
            sum_us: self.sum_us.load(Ordering::Relaxed),
            // ordering: as above.
            min_us: self.min_us.load(Ordering::Relaxed),
            // ordering: as above.
            max_us: self.max_us.load(Ordering::Relaxed),
        }
    }
}

/// A snapshot of a fixed-bucket histogram of microsecond latencies.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Histogram {
    counts: [u64; BOUNDED + 1],
    sum_us: u64,
    min_us: u64,
    max_us: u64,
}

impl Histogram {
    /// Total number of buckets, including the overflow bucket.
    pub const BUCKETS: usize = BOUNDED + 1;

    /// Upper bound (inclusive, in µs) of bucket `i`, or `None` for the
    /// overflow bucket.
    #[must_use]
    pub fn bucket_bound_us(i: usize) -> Option<u64> {
        (i < BOUNDED).then(|| 1u64 << i)
    }

    /// Number of observations: the sum of the bucket counts.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.counts.iter().fold(0, |a, &c| a.saturating_add(c))
    }

    /// Sum of all observations, µs (saturating).
    #[must_use]
    pub fn sum_us(&self) -> u64 {
        self.sum_us
    }

    /// Smallest observation, µs (`None` when empty).
    #[must_use]
    pub fn min_us(&self) -> Option<u64> {
        (self.count() > 0).then_some(self.min_us)
    }

    /// Largest observation, µs (`None` when empty).
    #[must_use]
    pub fn max_us(&self) -> Option<u64> {
        (self.count() > 0).then_some(self.max_us)
    }

    /// Mean observation, µs (0 when empty).
    #[must_use]
    pub fn mean_us(&self) -> f64 {
        match self.count() {
            0 => 0.0,
            count => self.sum_us as f64 / count as f64,
        }
    }

    /// Upper-bound estimate of the `q`-quantile (`0.0..=1.0`) in µs: the
    /// bound of the first bucket whose cumulative count reaches
    /// `q × count`, clamped to the observed maximum. The clamp makes
    /// single-sample histograms and `q = 1.0` exact (the bucket bound can
    /// only overshoot the true quantile, never undershoot it, and no
    /// observation exceeds `max_us`). Overflow-bucket quantiles report
    /// the observed max.
    #[must_use]
    #[allow(clippy::cast_possible_truncation)] // cast-ok: rank ≤ count, which fits u64
    pub fn quantile_us(&self, q: f64) -> Option<u64> {
        let count = self.count();
        if count == 0 {
            return None;
        }
        let rank = (q.clamp(0.0, 1.0) * count as f64).ceil().max(1.0) as u64;
        let mut cumulative = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            cumulative = cumulative.saturating_add(c);
            if cumulative >= rank {
                return Some(Self::bucket_bound_us(i).map_or(self.max_us, |b| b.min(self.max_us)));
            }
        }
        Some(self.max_us)
    }

    /// Per-bucket counts, in bound order (overflow last).
    #[must_use]
    pub fn bucket_counts(&self) -> &[u64] {
        &self.counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Snapshot of a histogram fed `values`, one observation each.
    fn of(values: &[u64]) -> Histogram {
        let h = AtomicHistogram::default();
        for &v in values {
            h.observe_us(v);
        }
        h.snapshot()
    }

    #[test]
    fn observations_land_in_the_right_buckets() {
        // 0 and 1 → bucket 0 (<= 1), 2 → bucket 1, 3 → bucket 2 (<= 4),
        // 1024 → bucket 10.
        let h = of(&[0, 1, 2, 3, 1024]);
        assert_eq!(h.bucket_counts()[0], 2);
        assert_eq!(h.bucket_counts()[1], 1);
        assert_eq!(h.bucket_counts()[2], 1);
        assert_eq!(h.bucket_counts()[10], 1);
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum_us(), 1030);
        assert_eq!(h.min_us(), Some(0));
        assert_eq!(h.max_us(), Some(1024));
    }

    #[test]
    fn huge_values_go_to_overflow() {
        let h = of(&[u64::MAX]);
        assert_eq!(h.bucket_counts()[Histogram::BUCKETS - 1], 1);
        assert_eq!(h.quantile_us(0.5), Some(u64::MAX));
    }

    #[test]
    fn sums_saturate_instead_of_wrapping() {
        let h = of(&[u64::MAX, 5]);
        assert_eq!(h.sum_us(), u64::MAX);
        assert_eq!(h.count(), 2);
    }

    #[test]
    fn quantiles_are_upper_bounds() {
        let h = of(&[1, 2, 4, 8, 16, 32, 64, 128, 256, 1000]);
        // p50 over ten ordered values ranks at the 5th (= 16 → bucket
        // bound 16).
        assert_eq!(h.quantile_us(0.5), Some(16));
        // 1000 lands in the 1024 bucket, but the quantile clamps to the
        // observed max — p100 is exact.
        assert_eq!(h.quantile_us(1.0), Some(1000));
        assert!(h.quantile_us(0.0).is_some());
        assert!((h.mean_us() - 151.1).abs() < 0.5);
    }

    #[test]
    fn single_sample_quantiles_are_exact() {
        for v in [0u64, 1, 3, 1000, 1 << 25, (1 << 25) + 1, u64::MAX] {
            let h = of(&[v]);
            for q in [0.0, 0.25, 0.5, 0.9, 1.0] {
                assert_eq!(h.quantile_us(q), Some(v), "v={v}, q={q}");
            }
        }
    }

    #[test]
    fn top_bucket_saturation_is_exact() {
        // 2^25 µs is the bound of the last bounded bucket; anything above
        // goes to overflow, whose quantile is the observed max.
        let h = of(&[1 << 25]);
        assert_eq!(h.bucket_counts()[BOUNDED - 1], 1);
        assert_eq!(h.quantile_us(1.0), Some(1 << 25));
        let h = of(&[1 << 25, (1 << 25) + 1]);
        assert_eq!(h.bucket_counts()[BOUNDED], 1);
        assert_eq!(h.quantile_us(1.0), Some((1 << 25) + 1));
    }

    #[test]
    fn empty_histogram_reports_nothing() {
        let h = of(&[]);
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile_us(0.5), None);
        assert_eq!(h.min_us(), None);
        assert_eq!(h.max_us(), None);
        assert_eq!(h.mean_us(), 0.0);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// A single observation answers every quantile exactly.
            #[test]
            fn prop_single_sample_quantiles_exact(
                v in 0u64..=u64::MAX,
                q in 0.0f64..=1.0,
            ) {
                prop_assert_eq!(of(&[v]).quantile_us(q), Some(v));
            }

            /// Quantiles never exceed the observed max and p100 hits it.
            #[test]
            fn prop_quantiles_bounded_by_max(
                values in proptest::collection::vec(0u64..=u64::MAX, 1..40),
            ) {
                let h = of(&values);
                let max = *values.iter().max().expect("non-empty by construction");
                for q in [0.0, 0.25, 0.5, 0.75, 0.95, 1.0] {
                    let est = h.quantile_us(q).expect("non-empty histogram");
                    prop_assert!(est <= max, "q={} est={} max={}", q, est, max);
                }
                prop_assert_eq!(h.quantile_us(1.0), Some(max));
            }
        }
    }
}
