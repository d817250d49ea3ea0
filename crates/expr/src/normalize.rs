//! Profile normalizations applied before MI estimation.
//!
//! TINGe's preprocessing replaces each gene's raw expression profile with
//! its **rank transform**: sample values are replaced by their rank mapped
//! uniformly onto `[0, 1]` (ties receive the average of their ranks). This
//! makes the estimator invariant to any monotone rescaling of the raw data
//! — exactly the property the paper relies on when it precomputes one
//! B-spline weight matrix per gene and reuses it for every pair.

use crate::matrix::ExpressionMatrix;

/// Rank-transform one profile in place of a fresh vector: value `v` becomes
/// `(rank(v) - 1) / (m - 1) ∈ [0, 1]`, average-ranked over ties.
///
/// A constant profile (all values tied) maps to all `0.5`, and a
/// single-sample profile maps to `[0.5]`.
pub fn rank_transform_profile(values: &[f32]) -> Vec<f32> {
    let m = values.len();
    if m <= 1 {
        return vec![0.5; m];
    }
    // Sample indices ordered by `(value, index)`. NaNs compare `Equal`
    // (rejected upstream, but ordered deterministically by index anyway).
    let mut order: Vec<u32> = (0..m as u32).collect();
    order.sort_by(|&a, &b| {
        values[a as usize]
            .partial_cmp(&values[b as usize])
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    });
    let mut ranks = vec![0.0f64; m];
    let mut i = 0;
    while i < m {
        // Extend over the tie group [i, j).
        let mut j = i + 1;
        while j < m && values[order[j] as usize] == values[order[i] as usize] {
            j += 1;
        }
        // Average rank of the group, 1-based.
        let avg_rank = (i + 1 + j) as f64 / 2.0;
        for &idx in &order[i..j] {
            ranks[idx as usize] = avg_rank;
        }
        i = j;
    }

    let denom = (m - 1) as f64;
    ranks
        .iter()
        .map(|&r| (((r - 1.0) / denom) as f32).clamp(0.0, 1.0))
        .collect()
}

/// Rank-transform every gene of a matrix (the TINGe preprocessing stage).
pub fn rank_transform(matrix: &ExpressionMatrix) -> ExpressionMatrix {
    let mut out = matrix.clone();
    for g in 0..matrix.genes() {
        let transformed = rank_transform_profile(matrix.gene(g));
        out.gene_mut(g).copy_from_slice(&transformed);
    }
    out
}

/// Z-score each gene (mean 0, unit variance). Constant genes become all
/// zeros. Used by the Pearson-correlation baseline.
pub fn z_score(matrix: &ExpressionMatrix) -> ExpressionMatrix {
    let mut out = matrix.clone();
    let m = matrix.samples();
    for g in 0..matrix.genes() {
        let row = out.gene_mut(g);
        let mean = row.iter().map(|&v| v as f64).sum::<f64>() / m as f64;
        let var = row.iter().map(|&v| (v as f64 - mean).powi(2)).sum::<f64>() / m as f64;
        let sd = var.sqrt();
        if sd > 0.0 {
            for v in row.iter_mut() {
                *v = ((*v as f64 - mean) / sd) as f32;
            }
        } else {
            row.fill(0.0);
        }
    }
    out
}

/// Remove batch effects by per-batch, per-gene centering: within each
/// batch, each gene's values are shifted to the gene's overall mean. This
/// is the standard first-line correction for compendium data aggregated
/// from many labs, and it must run *before* the rank transform (a global
/// per-batch shift re-orders ranks across batches and induces spurious
/// all-pairs dependence that no downstream estimator can undo).
///
/// `batch_labels[s]` gives the batch of sample `s` (any small integers).
///
/// # Panics
/// Panics if `batch_labels.len() != matrix.samples()`.
pub fn center_batches(matrix: &ExpressionMatrix, batch_labels: &[u32]) -> ExpressionMatrix {
    assert_eq!(
        batch_labels.len(),
        matrix.samples(),
        "one batch label per sample"
    );
    let m = matrix.samples();
    let max_batch = batch_labels.iter().copied().max().unwrap_or(0) as usize;
    let mut out = matrix.clone();
    let mut batch_count = vec![0usize; max_batch + 1];
    for &b in batch_labels {
        batch_count[b as usize] += 1;
    }
    let mut batch_sum = vec![0.0f64; max_batch + 1];
    for g in 0..matrix.genes() {
        let row = out.gene_mut(g);
        let grand = row.iter().map(|&v| v as f64).sum::<f64>() / m as f64;
        batch_sum.fill(0.0);
        for (s, &v) in row.iter().enumerate() {
            batch_sum[batch_labels[s] as usize] += v as f64;
        }
        for (s, v) in row.iter_mut().enumerate() {
            let b = batch_labels[s] as usize;
            let batch_mean = batch_sum[b] / batch_count[b] as f64;
            *v = (*v as f64 - batch_mean + grand) as f32;
        }
    }
    out
}

/// Quantile-normalize across samples: every sample (array) is forced onto
/// the same value distribution — the average of the per-sample sorted
/// profiles — which is the standard microarray normalization applied
/// before any compendium analysis. Each sample's gene *ranking* is
/// preserved; only the values move. Ties within a sample receive the mean
/// of their target quantiles.
pub fn quantile_normalize(matrix: &ExpressionMatrix) -> ExpressionMatrix {
    let n = matrix.genes();
    let m = matrix.samples();
    // Reference distribution: mean of the sorted per-sample columns.
    let mut reference = vec![0.0f64; n];
    let mut column = vec![0.0f32; n];
    for s in 0..m {
        for (g, slot) in column.iter_mut().enumerate() {
            *slot = matrix.get(g, s);
        }
        column.sort_by(f32::total_cmp);
        for (r, &v) in column.iter().enumerate() {
            reference[r] += v as f64;
        }
    }
    for v in &mut reference {
        *v /= m as f64;
    }

    let mut out = matrix.clone();
    let mut order: Vec<u32> = Vec::with_capacity(n);
    for s in 0..m {
        order.clear();
        order.extend(0..n as u32);
        order.sort_by(|&a, &b| {
            matrix
                .get(a as usize, s)
                .total_cmp(&matrix.get(b as usize, s))
                .then(a.cmp(&b))
        });
        // Assign reference quantiles; average over tie groups so tied
        // genes stay tied.
        let mut r = 0;
        while r < n {
            let mut r2 = r + 1;
            let v = matrix.get(order[r] as usize, s);
            while r2 < n && matrix.get(order[r2] as usize, s) == v {
                r2 += 1;
            }
            let avg: f64 = reference[r..r2].iter().sum::<f64>() / (r2 - r) as f64;
            for &g in &order[r..r2] {
                out.set(g as usize, s, avg as f32);
            }
            r = r2;
        }
    }
    out
}

/// Min–max normalize each gene to `[0, 1]`. Constant genes become all 0.5.
/// This is the naive alternative to the rank transform; it is kept for the
/// estimator-sensitivity ablation.
pub fn min_max_normalize(matrix: &ExpressionMatrix) -> ExpressionMatrix {
    let mut out = matrix.clone();
    for g in 0..matrix.genes() {
        let row = out.gene_mut(g);
        let (mut lo, mut hi) = (f32::INFINITY, f32::NEG_INFINITY);
        for &v in row.iter() {
            lo = lo.min(v);
            hi = hi.max(v);
        }
        if hi > lo {
            let inv = 1.0 / (hi - lo);
            for v in row.iter_mut() {
                *v = (*v - lo) * inv;
            }
        } else {
            row.fill(0.5);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::MissingPolicy;
    use proptest::prelude::*;

    #[test]
    fn rank_transform_simple_ordering() {
        let r = rank_transform_profile(&[30.0, 10.0, 20.0]);
        assert_eq!(r, vec![1.0, 0.0, 0.5]);
    }

    #[test]
    fn rank_transform_handles_ties_with_average_rank() {
        // Values [5, 5, 1, 9]: ranks are (2.5, 2.5, 1, 4) → normalized
        // ((r-1)/3): (0.5, 0.5, 0, 1).
        let r = rank_transform_profile(&[5.0, 5.0, 1.0, 9.0]);
        assert_eq!(r, vec![0.5, 0.5, 0.0, 1.0]);
    }

    #[test]
    fn constant_profile_maps_to_half() {
        let r = rank_transform_profile(&[7.0; 5]);
        assert_eq!(r, vec![0.5; 5]);
    }

    #[test]
    fn degenerate_lengths() {
        assert!(rank_transform_profile(&[]).is_empty());
        assert_eq!(rank_transform_profile(&[42.0]), vec![0.5]);
    }

    #[test]
    fn rank_transform_is_monotone_invariant() {
        let base = vec![0.3f32, -1.2, 5.5, 2.0, 0.0, 7.7];
        let mapped: Vec<f32> = base.iter().map(|&v| (v * 2.0 + 3.0).exp()).collect();
        assert_eq!(
            rank_transform_profile(&base),
            rank_transform_profile(&mapped)
        );
    }

    #[test]
    fn matrix_rank_transform_covers_all_genes() {
        let m = ExpressionMatrix::from_rows(
            &[vec![3.0, 1.0, 2.0], vec![10.0, 10.0, 0.0]],
            MissingPolicy::Error,
        )
        .unwrap();
        let t = rank_transform(&m);
        assert_eq!(t.gene(0), &[1.0, 0.0, 0.5]);
        assert_eq!(t.gene(1), &[0.75, 0.75, 0.0]);
    }

    #[test]
    fn z_score_mean_and_variance() {
        let m =
            ExpressionMatrix::from_rows(&[vec![1.0, 2.0, 3.0, 4.0]], MissingPolicy::Error).unwrap();
        let z = z_score(&m);
        let row = z.gene(0);
        let mean: f32 = row.iter().sum::<f32>() / 4.0;
        let var: f32 = row.iter().map(|v| v * v).sum::<f32>() / 4.0;
        assert!(mean.abs() < 1e-6);
        assert!((var - 1.0).abs() < 1e-5);
    }

    #[test]
    fn z_score_constant_gene_becomes_zero() {
        let m = ExpressionMatrix::from_rows(&[vec![5.0; 4]], MissingPolicy::Error).unwrap();
        assert_eq!(z_score(&m).gene(0), &[0.0; 4]);
    }

    #[test]
    fn min_max_covers_range() {
        let m = ExpressionMatrix::from_rows(&[vec![2.0, 6.0, 4.0]], MissingPolicy::Error).unwrap();
        assert_eq!(min_max_normalize(&m).gene(0), &[0.0, 1.0, 0.5]);
        let c = ExpressionMatrix::from_rows(&[vec![3.0; 3]], MissingPolicy::Error).unwrap();
        assert_eq!(min_max_normalize(&c).gene(0), &[0.5; 3]);
    }

    #[test]
    fn quantile_normalize_equalizes_sample_distributions() {
        // Three samples with very different scales.
        let m = ExpressionMatrix::from_rows(
            &[
                vec![1.0, 100.0, -5.0],
                vec![2.0, 300.0, -4.0],
                vec![3.0, 200.0, -6.0],
                vec![4.0, 400.0, -3.0],
            ],
            MissingPolicy::Error,
        )
        .unwrap();
        let qn = quantile_normalize(&m);
        // Every sample's sorted values must now be identical.
        let sorted_col = |s: usize| -> Vec<f32> {
            let mut c: Vec<f32> = (0..4).map(|g| qn.get(g, s)).collect();
            c.sort_by(f32::total_cmp);
            c
        };
        let c0 = sorted_col(0);
        assert_eq!(c0, sorted_col(1));
        assert_eq!(c0, sorted_col(2));
        // Rankings within each sample are preserved: sample 0 was already
        // ascending in gene order.
        for g in 0..3 {
            assert!(qn.get(g, 0) < qn.get(g + 1, 0));
        }
        // Sample 1's ordering (gene 0 < 2 < 1 < 3) survives.
        assert!(qn.get(0, 1) < qn.get(2, 1));
        assert!(qn.get(2, 1) < qn.get(1, 1));
        assert!(qn.get(1, 1) < qn.get(3, 1));
    }

    #[test]
    fn quantile_normalize_averages_ties() {
        let m = ExpressionMatrix::from_rows(
            &[vec![5.0, 1.0], vec![5.0, 2.0], vec![9.0, 3.0]],
            MissingPolicy::Error,
        )
        .unwrap();
        let qn = quantile_normalize(&m);
        // The two tied genes in sample 0 must stay tied.
        assert_eq!(qn.get(0, 0), qn.get(1, 0));
        assert!(qn.get(2, 0) > qn.get(0, 0));
    }

    #[test]
    fn quantile_normalize_is_idempotent() {
        let m = ExpressionMatrix::from_rows(
            &[
                vec![3.0, 7.0, 1.0],
                vec![9.0, 2.0, 5.0],
                vec![4.0, 6.0, 8.0],
            ],
            MissingPolicy::Error,
        )
        .unwrap();
        let once = quantile_normalize(&m);
        let twice = quantile_normalize(&once);
        for g in 0..3 {
            for s in 0..3 {
                assert!(
                    (once.get(g, s) - twice.get(g, s)).abs() < 1e-5,
                    "({g},{s}): {} vs {}",
                    once.get(g, s),
                    twice.get(g, s)
                );
            }
        }
    }

    #[test]
    fn center_batches_removes_a_pure_batch_shift() {
        // Gene values 1..6 with batch 1 shifted by +10: centering must
        // recover the unshifted profile exactly (up to f32).
        let clean = vec![1.0f32, 2.0, 3.0, 4.0, 5.0, 6.0];
        let labels = vec![0u32, 0, 0, 1, 1, 1];
        let mut shifted = clean.clone();
        for v in &mut shifted[3..6] {
            *v += 10.0;
        }
        let m = ExpressionMatrix::from_rows(&[shifted], MissingPolicy::Error).unwrap();
        let fixed = center_batches(&m, &labels);
        // Per-batch means removed, grand mean restored: both batches now
        // share the gene's (shifted) grand mean offset.
        let row = fixed.gene(0);
        let b0: f32 = row[..3].iter().sum::<f32>() / 3.0;
        let b1: f32 = row[3..].iter().sum::<f32>() / 3.0;
        assert!(
            (b0 - b1).abs() < 1e-4,
            "batch means must agree: {b0} vs {b1}"
        );
        // Within-batch structure (differences) is untouched.
        assert!((row[1] - row[0] - 1.0).abs() < 1e-5);
        assert!((row[5] - row[4] - 1.0).abs() < 1e-5);
    }

    #[test]
    fn center_batches_is_identity_for_single_batch() {
        let m = ExpressionMatrix::from_rows(&[vec![3.0, 1.0, 2.0]], MissingPolicy::Error).unwrap();
        let out = center_batches(&m, &[0, 0, 0]);
        for (a, b) in out.gene(0).iter().zip(m.gene(0)) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    #[should_panic(expected = "one batch label per sample")]
    fn center_batches_checks_label_length() {
        let m = ExpressionMatrix::from_rows(&[vec![1.0, 2.0]], MissingPolicy::Error).unwrap();
        let _ = center_batches(&m, &[0]);
    }

    proptest! {
        #[test]
        fn prop_rank_output_in_unit_interval(
            values in proptest::collection::vec(-1e6f32..1e6, 2..200)
        ) {
            for v in rank_transform_profile(&values) {
                prop_assert!((0.0..=1.0).contains(&v));
            }
        }

        #[test]
        fn prop_rank_includes_endpoints_when_untied(
            values in proptest::collection::vec(-1e6f32..1e6, 2..100)
        ) {
            // With all-distinct values the min maps to 0 and max to 1.
            let mut distinct = values.clone();
            distinct.sort_by(f32::total_cmp);
            distinct.dedup();
            prop_assume!(distinct.len() == values.len());
            let r = rank_transform_profile(&values);
            let lo = r.iter().cloned().fold(f32::INFINITY, f32::min);
            let hi = r.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
            prop_assert_eq!(lo, 0.0);
            prop_assert_eq!(hi, 1.0);
        }

        #[test]
        fn prop_rank_preserves_order(
            values in proptest::collection::vec(-1e3f32..1e3, 2..100)
        ) {
            let r = rank_transform_profile(&values);
            for i in 0..values.len() {
                for j in 0..values.len() {
                    if values[i] < values[j] {
                        prop_assert!(r[i] < r[j]);
                    } else if values[i] == values[j] {
                        prop_assert_eq!(r[i], r[j]);
                    }
                }
            }
        }
    }
}
