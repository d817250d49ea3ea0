//! Plug-in entropy helpers shared by every estimator.

use gnet_simd::dispatch::{self, KernelTable};
use gnet_simd::slice_ops;

/// Shannon entropy (nats) of a normalized distribution: `−Σ p ln p`.
///
/// Accepts small normalization error; callers that have unnormalized counts
/// should prefer [`entropy_from_counts`], which is exact under the count
/// identity and cheaper (no per-element division).
pub fn entropy_nats(p: &[f32]) -> f64 {
    -(dispatch::table().xlogx_sum)(p) as f64
}

/// Shannon entropy (nats) from unnormalized non-negative counts with known
/// total mass: `H = ln(total) − (Σ c ln c) / total`.
///
/// This identity is what lets the joint kernels skip normalizing the grid:
/// the accumulated weight grid always has total mass `m` because every
/// sample's weights sum to one.
///
/// # Panics
/// Panics if `total` is not strictly positive.
pub fn entropy_from_counts(counts: &[f32], total: f64) -> f64 {
    entropy_from_counts_on(dispatch::table(), counts, total)
}

/// [`entropy_from_counts`] on the `xlogx_sum` of `kernels`.
pub(crate) fn entropy_from_counts_on(kernels: &KernelTable, counts: &[f32], total: f64) -> f64 {
    assert!(total > 0.0, "total mass must be positive");
    total.ln() - (kernels.xlogx_sum)(counts) as f64 / total
}

/// Scalar-reference twin of [`entropy_from_counts`] used by the no-vec
/// baseline kernel so the baseline touches no lane code at all.
pub fn entropy_from_counts_scalar(counts: &[f32], total: f64) -> f64 {
    assert!(total > 0.0, "total mass must be positive");
    total.ln() - slice_ops::xlogx_sum_scalar(counts) as f64 / total
}

/// Convert nats to bits.
pub fn nats_to_bits(nats: f64) -> f64 {
    nats / std::f64::consts::LN_2
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_distribution_entropy() {
        let p = vec![0.25f32; 4];
        assert!((entropy_nats(&p) - 4.0f64.ln()).abs() < 1e-6);
    }

    #[test]
    fn deterministic_distribution_has_zero_entropy() {
        let p = [0.0f32, 1.0, 0.0];
        assert!(entropy_nats(&p).abs() < 1e-9);
    }

    #[test]
    fn counts_identity_matches_normalized_form() {
        let counts = [3.0f32, 1.0, 4.0, 2.0];
        let total: f64 = 10.0;
        let p: Vec<f32> = counts.iter().map(|c| c / total as f32).collect();
        let h1 = entropy_from_counts(&counts, total);
        let h2 = entropy_nats(&p);
        assert!((h1 - h2).abs() < 1e-6, "{h1} vs {h2}");
        let h3 = entropy_from_counts_scalar(&counts, total);
        assert!((h1 - h3).abs() < 1e-6);
    }

    #[test]
    fn zeros_in_counts_are_ignored() {
        let h = entropy_from_counts(&[5.0, 0.0, 5.0, 0.0], 10.0);
        assert!((h - 2.0f64.ln()).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_total_panics() {
        let _ = entropy_from_counts(&[0.0], 0.0);
    }

    #[test]
    fn nats_to_bits_divides_by_ln_2() {
        assert!((nats_to_bits(std::f64::consts::LN_2) - 1.0).abs() < 1e-12);
    }
}
