//! Edge significance: per-pair exceedance plus the pooled global threshold.

use crate::normal::inverse_cdf;

/// Empirical permutation p-value with the add-one correction:
/// `(1 + #{null ≥ observed}) / (q + 1)`. Ties count against the observed
/// value (conservative), and `q = 0` yields the uninformative `p = 1`.
pub fn empirical_p_value(observed: f64, null: &[f64]) -> f64 {
    let exceed = null.iter().filter(|&&v| v >= observed).count();
    (1 + exceed) as f64 / (1 + null.len()) as f64
}

/// Fixed-point scale of [`PooledNull`]: null MI values are rounded to
/// multiples of 2⁻⁴⁰ nats.
const SCALE: f64 = (1u64 << 40) as f64;
/// Magnitude bound on pooled values: below it `|q| < 2⁴⁴` and `q² < 2⁸⁸`.
const LIMIT: f64 = 16.0;
/// Bound on the pooled count, which keeps `Σq²` below 2¹²⁷ (the headline
/// run pools about 2³² values).
const MAX_COUNT: u64 = 1 << 39;

/// Streaming, mergeable accumulator over the pooled null distribution
/// (every null MI value of every pair).
///
/// Each value is rounded to a multiple of 2⁻⁴⁰ nats and summed exactly as
/// an integer (`Σq`, `Σq²` in `i128`), so [`Self::extend`] and
/// [`Self::merge`] are integer additions: any partition of the pair
/// space, merged in any order, gives the same bits — and hence the same
/// threshold `I*` across threads, schedulers, ranks, resumes and appends.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PooledNull {
    count: u64,
    sum: i128,
    sum_sq: i128,
    max: f64,
}

impl Default for PooledNull {
    fn default() -> Self {
        Self::new()
    }
}

/// `value` in units of 2⁻⁴⁰ nats, rounded to nearest (ties away from
/// zero). The scale is a power of two, so `value · 2⁴⁰` is exact, and
/// below 2⁴⁴ so is adding ±0.5; the cast then truncates.
///
/// # Panics
/// Panics on a non-finite value or one of magnitude 16 nats or more.
#[inline]
#[allow(clippy::cast_possible_truncation)] // cast-ok: |value · 2⁴⁰| < 2⁴⁴ is asserted
fn quantize(value: f64) -> i64 {
    assert!(
        value.abs() < LIMIT,
        "pooled null value {value} is not finite or not below {LIMIT} nats"
    );
    let scaled = value * SCALE;
    (scaled + 0.5f64.copysign(scaled)) as i64
}

impl PooledNull {
    /// Length of the [`Self::to_bytes`] encoding.
    pub const ENCODED_LEN: usize = 48;

    /// Empty accumulator.
    pub fn new() -> Self {
        Self {
            count: 0,
            sum: 0,
            sum_sq: 0,
            max: f64::NEG_INFINITY,
        }
    }

    /// Fold in one null MI value.
    ///
    /// # Panics
    /// Panics on a non-finite value or one of magnitude 16 nats or more.
    pub fn push(&mut self, value: f64) {
        self.extend(&[value]);
    }

    /// Fold in a batch of null values.
    ///
    /// # Panics
    /// Panics on a non-finite value or one of magnitude 16 nats or more,
    /// or when the count reaches 2³⁹ values.
    pub fn extend(&mut self, values: &[f64]) {
        let (mut sum, mut sum_sq, mut max) = (0i128, 0i128, self.max);
        for &v in values {
            let q = i128::from(quantize(v));
            sum += q;
            sum_sq += q * q;
            max = max.max(v);
        }
        self.count += values.len() as u64;
        assert!(
            self.count < MAX_COUNT,
            "pooled null holds 2^39 values or more"
        );
        self.sum += sum;
        self.sum_sq += sum_sq;
        self.max = max;
    }

    /// Merge another accumulator: exact, associative and commutative.
    ///
    /// # Panics
    /// Panics when the merged count reaches 2³⁹ values.
    pub fn merge(&mut self, other: &Self) {
        self.count += other.count;
        assert!(
            self.count < MAX_COUNT,
            "pooled null holds 2^39 values or more"
        );
        self.sum += other.sum;
        self.sum_sq += other.sum_sq;
        self.max = self.max.max(other.max);
    }

    /// Number of values folded in.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean of the pooled null (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64 / SCALE
        }
    }

    /// Sample variance (n − 1 denominator) of the pooled null, clamped
    /// at 0.
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            return 0.0;
        }
        // Σ(q − q̄)² = Σq² − (Σq)²/n. Writing Σq = a·n + r makes every
        // term but r²/n an exact integer: (Σq)²/n = a²n + 2ar + r²/n, and
        // a²n ≤ (Σq)²/n ≤ Σq² keeps it inside i128.
        let n = i128::from(self.count);
        let (a, r) = (self.sum / n, self.sum % n);
        let exact = self.sum_sq - a * a * n - 2 * a * r;
        let centered = exact as f64 - (r as f64) * (r as f64) / n as f64;
        (centered / (n - 1) as f64 / (SCALE * SCALE)).max(0.0)
    }

    /// Sample standard deviation of the pooled null.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Largest null value observed (−∞ when empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Little-endian encoding: count, `Σq`, `Σq²`, then the bits of
    /// `max`. Checkpoints, state bundles and the ring's result frames all
    /// carry the pooled null in this form.
    pub fn to_bytes(&self) -> [u8; Self::ENCODED_LEN] {
        let mut out = [0u8; Self::ENCODED_LEN];
        out[..8].copy_from_slice(&self.count.to_le_bytes());
        out[8..24].copy_from_slice(&self.sum.to_le_bytes());
        out[24..40].copy_from_slice(&self.sum_sq.to_le_bytes());
        out[40..].copy_from_slice(&self.max.to_bits().to_le_bytes());
        out
    }

    /// Decode [`Self::to_bytes`], rejecting encodings no accumulator can
    /// reach.
    ///
    /// # Errors
    /// A reason when the count and `max` disagree (empty iff `max` is
    /// −∞), `max` is out of range, or the sums exceed what the count
    /// allows.
    pub fn from_bytes(bytes: &[u8; Self::ENCODED_LEN]) -> Result<Self, String> {
        let field = |lo: usize, hi: usize| &bytes[lo..hi];
        let count = u64::from_le_bytes(field(0, 8).try_into().expect("8-byte field"));
        let max = f64::from_bits(u64::from_le_bytes(
            field(40, 48).try_into().expect("8-byte field"),
        ));
        let pooled = Self {
            count,
            sum: i128::from_le_bytes(field(8, 24).try_into().expect("16-byte field")),
            sum_sq: i128::from_le_bytes(field(24, 40).try_into().expect("16-byte field")),
            max,
        };
        let empty = pooled.count == 0;
        if empty != (max == f64::NEG_INFINITY) || !(empty || max.abs() < LIMIT) {
            return Err(format!(
                "pooled null max {max} disagrees with count {count}"
            ));
        }
        // Every |q| is at most 2⁴⁴ − 1, which bounds both sums by the count.
        let (n, q_max) = (u128::from(count), (1u128 << 44) - 1);
        if count >= MAX_COUNT
            || pooled.sum.unsigned_abs() > n * q_max
            || pooled.sum_sq < 0
            || pooled.sum_sq.unsigned_abs() > n * q_max * q_max
        {
            return Err(format!(
                "pooled null sums are out of range for {count} values"
            ));
        }
        Ok(pooled)
    }

    /// The TINGe-style family-wise threshold `I*`: the Bonferroni-corrected
    /// upper quantile of a normal fitted to the pooled null,
    /// `I* = μ + Φ⁻¹(1 − α/tests) · σ`.
    ///
    /// # Panics
    /// Panics if `alpha ∉ (0, 1)`, `tests == 0`, or fewer than two null
    /// values were pooled.
    pub fn global_threshold(&self, alpha: f64, tests: u64) -> f64 {
        assert!(
            (f64::MIN_POSITIVE..1.0).contains(&alpha),
            "alpha must lie in (0, 1)"
        );
        assert!(tests > 0, "must correct over at least one test");
        assert!(self.count >= 2, "need at least two pooled null values");
        let corrected = (alpha / tests as f64).max(f64::MIN_POSITIVE);
        let z = inverse_cdf(1.0 - corrected);
        self.mean() + z * self.std_dev()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn empirical_p_add_one_correction() {
        assert_eq!(empirical_p_value(0.9, &[0.1, 0.2, 0.3]), 0.25);
        assert_eq!(empirical_p_value(0.15, &[0.1, 0.2, 0.3]), 0.75);
        assert_eq!(empirical_p_value(0.5, &[]), 1.0, "q = 0 is uninformative");
        // Tie counts as an exceedance.
        assert_eq!(empirical_p_value(0.2, &[0.1, 0.2, 0.3]), 0.75);
    }

    #[test]
    fn pooled_matches_two_pass_statistics() {
        let values: Vec<f64> = (0..1000).map(|i| ((i * 37) % 100) as f64 / 10.0).collect();
        let mut p = PooledNull::new();
        p.extend(&values);
        let mean: f64 = values.iter().sum::<f64>() / values.len() as f64;
        let var: f64 =
            values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / (values.len() - 1) as f64;
        assert!((p.mean() - mean).abs() < 1e-10);
        assert!((p.variance() - var).abs() < 1e-8);
        assert_eq!(p.count(), 1000);
        assert_eq!(p.max(), 9.9);
    }

    #[test]
    fn merge_equals_sequential_bitwise() {
        let all: Vec<f64> = (0..500).map(|i| (i as f64).sin() * 3.0 + 1.0).collect();
        let mut whole = PooledNull::new();
        whole.extend(&all);

        let mut left = PooledNull::new();
        left.extend(&all[..123]);
        let mut right = PooledNull::new();
        right.extend(&all[123..]);
        right.merge(&left);
        assert_eq!(right, whole);
        assert_eq!(right.mean().to_bits(), whole.mean().to_bits());
        assert_eq!(right.variance().to_bits(), whole.variance().to_bits());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = PooledNull::new();
        a.extend(&[1.0, 2.0, 3.0]);
        let before = a;
        a.merge(&PooledNull::new());
        assert_eq!(a, before);

        let mut e = PooledNull::new();
        e.merge(&before);
        assert_eq!(e, before);
    }

    #[test]
    fn default_is_the_empty_accumulator() {
        assert_eq!(PooledNull::default(), PooledNull::new());
        assert_eq!(PooledNull::default().max(), f64::NEG_INFINITY);
        let mut p = PooledNull::default();
        p.push(-0.5);
        assert_eq!(p.max(), -0.5, "an empty max must not start at 0");
    }

    #[test]
    fn values_round_to_the_nearest_fixed_point_step() {
        let step = 1.0 / SCALE;
        assert_eq!(quantize(0.0), 0);
        assert_eq!(quantize(step * 0.49), 0);
        assert_eq!(quantize(step * 0.5), 1, "ties round away from zero");
        assert_eq!(quantize(-step * 0.5), -1);
        assert_eq!(quantize(step * 2.6), 3);
        assert_eq!(quantize(-step * 2.6), -3);
        assert_eq!(quantize(15.999) as f64, (15.999 * SCALE).round());
    }

    #[test]
    fn variance_is_clamped_and_exact_for_constants() {
        let mut p = PooledNull::new();
        p.extend(&[0.25; 1000]);
        assert_eq!(p.variance(), 0.0);
        assert_eq!(p.mean(), 0.25);
    }

    #[test]
    #[should_panic(expected = "not finite or not below 16 nats")]
    fn non_finite_values_panic() {
        PooledNull::new().push(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "not finite or not below 16 nats")]
    fn values_of_16_nats_panic() {
        PooledNull::new().extend(&[0.1, -16.0]);
    }

    #[test]
    fn byte_encoding_round_trips_and_rejects_unreachable_states() {
        let mut p = PooledNull::new();
        p.extend(&[0.01, 0.2, 0.033, 1.5]);
        for pooled in [p, PooledNull::new()] {
            assert_eq!(PooledNull::from_bytes(&pooled.to_bytes()), Ok(pooled));
        }
        let mut empty_with_max = PooledNull::new().to_bytes();
        empty_with_max[40..].copy_from_slice(&1.0f64.to_bits().to_le_bytes());
        assert!(PooledNull::from_bytes(&empty_with_max).is_err());
        let mut nan_max = p.to_bytes();
        nan_max[40..].copy_from_slice(&f64::NAN.to_bits().to_le_bytes());
        assert!(PooledNull::from_bytes(&nan_max).is_err());
        let mut negative_sq = p.to_bytes();
        negative_sq[24..40].copy_from_slice(&(-1i128).to_le_bytes());
        assert!(PooledNull::from_bytes(&negative_sq).is_err());
        let mut huge_sum = p.to_bytes();
        huge_sum[8..24].copy_from_slice(&i128::MIN.to_le_bytes());
        assert!(PooledNull::from_bytes(&huge_sum).is_err());
        let mut huge_count = p.to_bytes();
        huge_count[..8].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(PooledNull::from_bytes(&huge_count).is_err());
    }

    #[test]
    fn global_threshold_grows_with_test_count() {
        let mut p = PooledNull::new();
        // Standard-normal-ish null.
        for i in 0..10_000 {
            let u = (i as f64 + 0.5) / 10_000.0;
            p.push(crate::normal::inverse_cdf(u));
        }
        let t1 = p.global_threshold(0.05, 1);
        let t2 = p.global_threshold(0.05, 1_000);
        let t3 = p.global_threshold(0.05, 121_000_000); // ≈ 15,575 genes
        assert!(t1 < t2 && t2 < t3, "{t1} {t2} {t3}");
        // Φ⁻¹(0.95) ≈ 1.645 on a unit normal null.
        assert!((t1 - 1.645).abs() < 0.05, "t1={t1}");
        // Bonferroni over 1.21e8 tests at α=0.05 ⇒ z ≈ 6.2σ.
        assert!(t3 > 5.8 && t3 < 6.6, "t3={t3}");
    }

    #[test]
    #[should_panic(expected = "at least two pooled null values")]
    fn threshold_requires_data() {
        let p = PooledNull::new();
        let _ = p.global_threshold(0.05, 10);
    }

    proptest! {
        #[test]
        fn prop_any_split_merged_in_any_order_is_bitwise_sequential(
            values in proptest::collection::vec(-10.0f64..10.0, 2..200),
            cuts in proptest::collection::vec(0usize..200, 0..6),
            rotate in 0usize..8,
        ) {
            let mut whole = PooledNull::new();
            whole.extend(&values);

            let mut bounds: Vec<usize> = cuts.iter().map(|&c| c.min(values.len())).collect();
            bounds.push(0);
            bounds.push(values.len());
            bounds.sort_unstable();
            let mut parts: Vec<PooledNull> = bounds
                .windows(2)
                .map(|w| {
                    let mut p = PooledNull::new();
                    for &v in &values[w[0]..w[1]] {
                        p.push(v);
                    }
                    p
                })
                .collect();
            parts.reverse();
            let rot = rotate % parts.len();
            parts.rotate_left(rot);
            let mut merged = PooledNull::new();
            for p in &parts {
                merged.merge(p);
            }
            prop_assert_eq!(merged, whole);
            prop_assert_eq!(
                merged.global_threshold(0.01, 1_000).to_bits(),
                whole.global_threshold(0.01, 1_000).to_bits()
            );
        }

        #[test]
        fn prop_empirical_p_in_unit_interval(obs in -5.0f64..5.0,
                                             null in proptest::collection::vec(-5.0f64..5.0, 0..50)) {
            let p = empirical_p_value(obs, &null);
            prop_assert!(p > 0.0 && p <= 1.0);
        }
    }
}
