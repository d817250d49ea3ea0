//! Baseline network-construction methods.
//!
//! Three comparison points frame the evaluation:
//!
//! * [`sequential_reference`] — the same statistics as the pipeline in the
//!   most naive possible form (double loop, scalar kernel, no tiling, no
//!   threads). Exists purely as a correctness oracle: the optimized
//!   pipeline must produce the same network.
//! * [`histogram_network`] — the classical equal-width-bin MI estimator
//!   with a fixed threshold: the estimator-quality baseline.
//! * [`pearson_network`] — absolute-Pearson thresholding: the linear
//!   baseline that motivates MI in the first place (it cannot see
//!   non-monotone regulation).

use crate::config::InferenceConfig;
use gnet_bspline::BsplineBasis;
use gnet_expr::stats::pearson;
use gnet_expr::ExpressionMatrix;
use gnet_graph::{Edge, GeneNetwork};
use gnet_mi::histogram::HistogramEstimator;
use gnet_mi::{mi_with_nulls, MiKernel, MiScratch};
use gnet_permute::{PermutationSet, PooledNull};

/// Deliberately simple reference implementation of the full statistical
/// procedure (rank transform → B-spline MI → shared-permutation test →
/// pooled threshold). O(n²·q·m·k²) scalar work, single thread.
pub fn sequential_reference(matrix: &ExpressionMatrix, config: &InferenceConfig) -> GeneNetwork {
    config.validate();
    let basis = BsplineBasis::new(config.spline_order, config.bins);
    let prepared = crate::prepare_genes(matrix, 0..matrix.genes(), &basis, 1);
    let perms = PermutationSet::generate(matrix.samples(), config.permutations, config.seed);
    let mut scratch = MiScratch::for_basis(&basis);

    let n = matrix.genes();
    let mut pooled = PooledNull::new();
    let mut survivors: Vec<(u32, u32, f64)> = Vec::new();
    for i in 0..n {
        for j in i + 1..n {
            let res = mi_with_nulls(
                MiKernel::ScalarSparse,
                &prepared[i],
                &prepared[j],
                None,
                perms.as_vecs(),
                &mut scratch,
            );
            pooled.extend(&res.null);
            if res.exceed_count() == 0 {
                survivors.push((i as u32, j as u32, res.observed));
            }
        }
    }
    let pairs = (n as u64) * (n as u64 - 1) / 2;
    let threshold = match config.mi_threshold {
        Some(t) => t,
        None => pooled.global_threshold(config.alpha, pairs.max(1)),
    };
    GeneNetwork::from_edges(
        n,
        matrix.gene_names().to_vec(),
        survivors
            .into_iter()
            .filter(|&(_, _, v)| v > threshold)
            .map(|(i, j, v)| Edge::new(i, j, v as f32)),
    )
}

/// Equal-width-histogram MI network with a fixed nats threshold, computed
/// on rank-transformed profiles.
pub fn histogram_network(
    matrix: &ExpressionMatrix,
    bins: usize,
    threshold_nats: f64,
) -> GeneNetwork {
    let est = HistogramEstimator::new(bins);
    let normalized = gnet_expr::normalize::rank_transform(matrix);
    let n = matrix.genes();
    let mut edges = Vec::new();
    for i in 0..n {
        for j in i + 1..n {
            let v = est.mi(normalized.gene(i), normalized.gene(j));
            if v > threshold_nats {
                edges.push(Edge::new(i as u32, j as u32, v as f32));
            }
        }
    }
    GeneNetwork::from_edges(n, matrix.gene_names().to_vec(), edges)
}

/// CLR (Context Likelihood of Relatedness, Faith et al. 2007) — the
/// classic refinement between the raw relevance network and ARACNE: each
/// pair's MI is z-scored against the *background* MI distributions of
/// both of its genes, `score = √(z_i² + z_j²)` with `z = max(0, (I−μ)/σ)`,
/// which cancels per-gene promiscuity (hubs with globally elevated MI).
///
/// Uses the same rank transform + B-spline estimator as the pipeline; no
/// permutation testing (CLR's normalization replaces it).
pub fn clr_network(
    matrix: &ExpressionMatrix,
    bins: usize,
    order: usize,
    z_threshold: f64,
) -> GeneNetwork {
    assert!(z_threshold >= 0.0, "z threshold cannot be negative");
    let cfg = InferenceConfig {
        bins,
        spline_order: order,
        ..InferenceConfig::default()
    };
    let mi = crate::mi_matrix::compute_mi_matrix(matrix, &cfg);

    let n = matrix.genes();
    let moments: Vec<(f64, f64)> = (0..n).map(|g| mi.row_moments(g)).collect();
    let z = |g: usize, v: f64| -> f64 {
        let (mean, sd) = moments[g];
        if sd > 0.0 {
            ((v - mean) / sd).max(0.0)
        } else {
            0.0
        }
    };
    let mut edges = Vec::new();
    for i in 0..n {
        for j in i + 1..n {
            let v = mi.get(i, j) as f64;
            let score = (z(i, v).powi(2) + z(j, v).powi(2)).sqrt();
            if score > z_threshold {
                edges.push(Edge::new(i as u32, j as u32, score as f32));
            }
        }
    }
    GeneNetwork::from_edges(n, matrix.gene_names().to_vec(), edges)
}

/// Absolute-Pearson-correlation network with threshold `min_abs_r`.
pub fn pearson_network(matrix: &ExpressionMatrix, min_abs_r: f64) -> GeneNetwork {
    assert!(
        (0.0..=1.0).contains(&min_abs_r),
        "correlation threshold must lie in [0, 1]"
    );
    let n = matrix.genes();
    let mut edges = Vec::new();
    for i in 0..n {
        for j in i + 1..n {
            let r = pearson(matrix.gene(i), matrix.gene(j));
            if r.abs() > min_abs_r {
                edges.push(Edge::new(i as u32, j as u32, r.abs() as f32));
            }
        }
    }
    GeneNetwork::from_edges(n, matrix.gene_names().to_vec(), edges)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::infer_network;
    use gnet_expr::synth::{self, Coupling};
    use gnet_graph::recovery_score;

    fn cfg() -> InferenceConfig {
        InferenceConfig {
            permutations: 12,
            threads: Some(2),
            tile_size: Some(5),
            ..InferenceConfig::default()
        }
    }

    #[test]
    fn optimized_pipeline_matches_sequential_reference() {
        let (matrix, _) = synth::coupled_pairs(4, 250, Coupling::Linear(0.85), 31);
        let reference = sequential_reference(&matrix, &cfg());
        let optimized = infer_network(&matrix, &cfg());
        assert_eq!(
            reference.edges().len(),
            optimized.network.edges().len(),
            "edge sets differ"
        );
        for (a, b) in reference.edges().iter().zip(optimized.network.edges()) {
            assert_eq!(a.key(), b.key());
            assert!((a.weight - b.weight).abs() < 1e-3);
        }
    }

    #[test]
    fn pearson_misses_quadratic_coupling_that_mi_finds() {
        let (matrix, truth) = synth::coupled_pairs(3, 800, Coupling::Quadratic(0.1), 7);
        let linear = pearson_network(&matrix, 0.5);
        let mi = infer_network(&matrix, &cfg());
        let linear_score = recovery_score(&linear, &truth);
        let mi_score = recovery_score(&mi.network, &truth);
        assert_eq!(linear_score.true_positives, 0, "Pearson must be blind here");
        assert_eq!(mi_score.false_negatives, 0, "MI must see it");
    }

    #[test]
    fn pearson_finds_linear_coupling() {
        let (matrix, truth) = synth::coupled_pairs(3, 500, Coupling::Linear(0.9), 8);
        let net = pearson_network(&matrix, 0.5);
        let score = recovery_score(&net, &truth);
        assert_eq!(score.false_negatives, 0);
        assert_eq!(score.false_positives, 0);
    }

    #[test]
    fn histogram_network_with_threshold() {
        let (matrix, truth) = synth::coupled_pairs(3, 600, Coupling::Linear(0.95), 6);
        let net = histogram_network(&matrix, 10, 0.35);
        let score = recovery_score(&net, &truth);
        assert_eq!(score.false_negatives, 0);
        assert!(
            score.precision() > 0.7,
            "histogram precision {}",
            score.precision()
        );
    }

    #[test]
    #[should_panic(expected = "correlation threshold")]
    fn pearson_threshold_validated() {
        let m = synth::independent_uniform(2, 10, 1);
        let _ = pearson_network(&m, 1.5);
    }

    #[test]
    fn clr_recovers_planted_pairs() {
        let (matrix, truth) = synth::coupled_pairs(5, 400, Coupling::Linear(0.9), 44);
        let net = clr_network(&matrix, 10, 3, 3.0);
        let score = recovery_score(&net, &truth);
        assert_eq!(
            score.false_negatives,
            0,
            "CLR must find strong pairs: {:?}",
            net.edges()
        );
        assert!(score.precision() > 0.8, "precision {}", score.precision());
    }

    #[test]
    fn clr_scores_are_symmetric_zscores() {
        let (matrix, _) = synth::coupled_pairs(3, 200, Coupling::Linear(0.8), 4);
        let net = clr_network(&matrix, 10, 3, 0.0);
        // With threshold 0, every pair whose z-score is positive appears;
        // weights are √(zi²+zj²) ≥ 0.
        for e in net.edges() {
            assert!(e.weight >= 0.0);
        }
        assert!(net.edge_count() > 0);
    }

    #[test]
    fn clr_on_independent_data_at_high_threshold_is_sparse() {
        let matrix = synth::independent_gaussian(20, 200, 66);
        let net = clr_network(&matrix, 10, 3, 4.5);
        assert!(
            net.edge_count() <= 3,
            "z > 4.5 on null data should be rare, got {}",
            net.edge_count()
        );
    }

    #[test]
    fn clr_discounts_promiscuous_hubs() {
        // Gene 0 weakly couples to everyone (a "hub" with elevated
        // background); genes 4–5 share one strong specific link. CLR must
        // rank the specific link above the hub's diffuse ones.
        let mut rng_data = synth::independent_gaussian(6, 600, 8).into_flat();
        let samples = 600;
        // Inject couplings: weak 0↔k for k=1..3, strong 4↔5.
        for s in 0..samples {
            let hub = rng_data[s];
            for k in 1..4 {
                rng_data[k * samples + s] += 0.6 * hub;
            }
            let driver = rng_data[4 * samples + s];
            rng_data[5 * samples + s] = driver + 0.2 * rng_data[5 * samples + s];
        }
        let matrix = gnet_expr::ExpressionMatrix::from_flat(
            6,
            samples,
            rng_data,
            gnet_expr::MissingPolicy::Error,
        )
        .unwrap();
        let net = clr_network(&matrix, 10, 3, 0.0);
        let strong = net.weight(4, 5).expect("specific link present");
        for k in 1..4u32 {
            let hub_w = net.weight(0, k).unwrap_or(0.0);
            assert!(
                strong > hub_w,
                "specific link ({strong}) must outrank hub link 0–{k} ({hub_w})"
            );
        }
    }
}
