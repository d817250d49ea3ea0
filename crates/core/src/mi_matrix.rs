//! Full pairwise MI matrix computation (no significance testing).
//!
//! Methods downstream of the relevance network — CLR's background
//! z-scoring, clustering on MI distances, module detection — need the
//! whole `n × n` MI matrix rather than a thresholded edge list. This
//! module computes it in parallel over the same tiled runtime the
//! pipeline uses, packed into the upper-triangular layout of
//! [`gnet_parallel::pair_index`].

use crate::config::InferenceConfig;
use crate::pipeline::for_each_planned_pair;
use gnet_bspline::BsplineBasis;
use gnet_expr::ExpressionMatrix;
use gnet_mi::{prepare_gene, MiScratch, PreparedGene};
use gnet_parallel::{execute_tiles, pair_index, SchedulerPolicy, TileSpace};

/// A symmetric MI matrix in packed upper-triangular storage.
#[derive(Clone, Debug, PartialEq)]
pub struct MiMatrix {
    genes: usize,
    packed: Vec<f32>,
}

impl MiMatrix {
    /// Number of genes `n`.
    pub fn genes(&self) -> usize {
        self.genes
    }

    /// `I(i, j)` in nats (`i ≠ j`; both orders accepted).
    ///
    /// # Panics
    /// Panics on `i == j` or out-of-range indices.
    pub fn get(&self, i: usize, j: usize) -> f32 {
        assert_ne!(
            i, j,
            "self-MI is not stored (it is not a pairwise quantity here)"
        );
        let (a, b) = if i < j { (i, j) } else { (j, i) };
        self.packed[pair_index(self.genes, a, b)]
    }

    /// The packed upper-triangular values (row-major by smaller index).
    pub fn packed(&self) -> &[f32] {
        &self.packed
    }

    /// Mean and standard deviation of gene `g`'s MI against all others —
    /// the background moments CLR normalizes with.
    pub fn row_moments(&self, g: usize) -> (f64, f64) {
        let n = self.genes;
        let mut sum = 0.0f64;
        let mut sum2 = 0.0f64;
        for other in 0..n {
            if other == g {
                continue;
            }
            let v = self.get(g, other) as f64;
            sum += v;
            sum2 += v * v;
        }
        let count = (n - 1) as f64;
        let mean = sum / count;
        let var = (sum2 / count - mean * mean).max(0.0);
        (mean, var.sqrt())
    }
}

/// Compute the full MI matrix of a raw expression matrix, in parallel.
/// Uses the config's estimator settings, kernel, thread count, and
/// scheduler; permutation/threshold settings are ignored. Like the
/// inference pipeline, each tile expands its column genes once and plans
/// each row gene once.
pub fn compute_mi_matrix(matrix: &ExpressionMatrix, config: &InferenceConfig) -> MiMatrix {
    config.validate();
    assert!(matrix.genes() >= 2, "need at least two genes");
    let basis = BsplineBasis::new(config.spline_order, config.bins);
    let prepared: Vec<PreparedGene> = (0..matrix.genes())
        .map(|g| prepare_gene(matrix.gene(g), &basis))
        .collect();
    let n = matrix.genes();
    let space = TileSpace::new(n, config.resolved_tile_size(n, prepared[0].heap_bytes()));
    let kernel = config.kernel;

    // Each worker collects its tiles' values; they are scattered into the
    // packed matrix after the join.
    let (results, _report) = execute_tiles(
        space.tiles(),
        config.resolved_threads(),
        SchedulerPolicy::DynamicCounter,
        |_tid| (MiScratch::for_basis(&basis), Vec::<(u32, u32, f32)>::new()),
        |(scratch, out), tile| {
            for_each_planned_pair(
                tile,
                &prepared,
                &[],
                kernel,
                scratch,
                |row, i, j, y_dense| {
                    let v = row.mi(&prepared[j as usize], y_dense);
                    out.push((i, j, v as f32));
                },
            );
        },
    );
    let mut packed = vec![0.0f32; n * (n - 1) / 2];
    for (_, values) in results {
        for (i, j, v) in values {
            packed[pair_index(n, i as usize, j as usize)] = v;
        }
    }
    MiMatrix { genes: n, packed }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnet_expr::synth::{coupled_pairs, Coupling};
    use gnet_mi::mi_scalar;

    fn cfg() -> InferenceConfig {
        InferenceConfig {
            threads: Some(2),
            tile_size: Some(5),
            ..InferenceConfig::default()
        }
    }

    #[test]
    fn matrix_agrees_with_direct_kernel_calls() {
        let (matrix, _) = coupled_pairs(4, 150, Coupling::Linear(0.8), 6);
        let mm = compute_mi_matrix(&matrix, &cfg());
        let basis = BsplineBasis::tinge_default();
        let mut scratch = MiScratch::for_basis(&basis);
        for i in 0..matrix.genes() {
            for j in i + 1..matrix.genes() {
                let a = prepare_gene(matrix.gene(i), &basis);
                let b = prepare_gene(matrix.gene(j), &basis);
                let direct = mi_scalar(&a, &b, &mut scratch) as f32;
                assert!(
                    (mm.get(i, j) - direct).abs() < 1e-4,
                    "({i},{j}): matrix {} vs direct {direct}",
                    mm.get(i, j)
                );
            }
        }
    }

    #[test]
    fn symmetric_access() {
        let (matrix, _) = coupled_pairs(3, 100, Coupling::Linear(0.7), 2);
        let mm = compute_mi_matrix(&matrix, &cfg());
        for i in 0..6 {
            for j in 0..6 {
                if i != j {
                    assert_eq!(mm.get(i, j), mm.get(j, i));
                }
            }
        }
    }

    #[test]
    fn row_moments_match_two_pass() {
        let (matrix, _) = coupled_pairs(5, 120, Coupling::Linear(0.6), 9);
        let mm = compute_mi_matrix(&matrix, &cfg());
        let g = 3;
        let vals: Vec<f64> = (0..10)
            .filter(|&o| o != g)
            .map(|o| mm.get(g, o) as f64)
            .collect();
        let mean: f64 = vals.iter().sum::<f64>() / vals.len() as f64;
        let sd = (vals.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / vals.len() as f64).sqrt();
        let (m, s) = mm.row_moments(g);
        assert!((m - mean).abs() < 1e-9);
        assert!((s - sd).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "self-MI")]
    fn diagonal_access_rejected() {
        let (matrix, _) = coupled_pairs(2, 50, Coupling::Linear(0.5), 1);
        let mm = compute_mi_matrix(&matrix, &cfg());
        let _ = mm.get(1, 1);
    }
}
