//! Statistical validity of the significance machinery at integration
//! scope: false-positive control, estimator agreement, and permutation
//! reproducibility.

use genome_net::bspline::BsplineBasis;
use genome_net::core::{infer_network, InferenceConfig};
use genome_net::expr::normalize::rank_transform_profile;
use genome_net::expr::synth;
use genome_net::mi::histogram::HistogramEstimator;
use genome_net::mi::{mi_scalar, prepare_gene, MiScratch};
use genome_net::permute::{empirical_p_value, PermutationSet};

#[test]
fn family_wise_error_is_controlled_across_many_nulls() {
    // 10 independent matrices of independent genes: the total number of
    // false edges across all of them should stay tiny at α = 0.01.
    let mut total_edges = 0usize;
    for seed in 0..10 {
        let matrix = synth::independent_gaussian(16, 200, 1000 + seed);
        let cfg = InferenceConfig {
            permutations: 15,
            threads: Some(1),
            tile_size: Some(8),
            ..InferenceConfig::default()
        };
        total_edges += infer_network(&matrix, &cfg).network.edge_count();
    }
    assert!(
        total_edges <= 3,
        "{total_edges} false edges over 1,200 null pairs"
    );
}

#[test]
fn order_one_bspline_equals_histogram_estimator() {
    // Two independent implementations must agree exactly at order 1.
    let matrix = synth::independent_uniform(2, 500, 9);
    let x_ranked = rank_transform_profile(matrix.gene(0));
    let y_ranked = rank_transform_profile(matrix.gene(1));

    let hist = HistogramEstimator::new(10);
    let reference = hist.mi(&x_ranked, &y_ranked);

    let basis = BsplineBasis::new(1, 10);
    let px = prepare_gene(matrix.gene(0), &basis);
    let py = prepare_gene(matrix.gene(1), &basis);
    let mut scratch = MiScratch::for_basis(&basis);
    let spline = mi_scalar(&px, &py, &mut scratch);

    assert!(
        (reference - spline).abs() < 1e-4,
        "histogram {reference} vs order-1 spline {spline}"
    );
}

#[test]
fn permutation_p_values_are_uniformish_under_the_null() {
    // For independent genes the empirical p-value should not concentrate
    // near zero. Average p over many pairs ≈ 0.5.
    let matrix = synth::independent_gaussian(20, 150, 77);
    let basis = BsplineBasis::tinge_default();
    let prepared: Vec<_> = (0..20)
        .map(|g| prepare_gene(matrix.gene(g), &basis))
        .collect();
    let perms = PermutationSet::generate(150, 19, 5);
    let mut scratch = MiScratch::for_basis(&basis);

    let mut p_sum = 0.0;
    let mut count = 0;
    for i in 0..20 {
        for j in i + 1..20 {
            let res = genome_net::mi::mi_with_nulls(
                genome_net::mi::MiKernel::ScalarSparse,
                &prepared[i],
                &prepared[j],
                None,
                perms.as_vecs(),
                &mut scratch,
            );
            p_sum += empirical_p_value(res.observed, &res.null);
            count += 1;
        }
    }
    let mean_p = p_sum / count as f64;
    assert!(
        (0.35..0.65).contains(&mean_p),
        "mean null p-value {mean_p} should hover near 0.5"
    );
}

#[test]
fn marginal_entropy_is_permutation_invariant_end_to_end() {
    let matrix = synth::independent_gaussian(1, 300, 3);
    let basis = BsplineBasis::tinge_default();
    let g = prepare_gene(matrix.gene(0), &basis);
    let perms = PermutationSet::generate(300, 5, 11);
    for i in 0..perms.len() {
        let permuted: Vec<f32> = perms
            .get(i)
            .iter()
            .map(|&s| matrix.gene(0)[s as usize])
            .collect();
        let h = prepare_gene(&permuted, &basis).h_marginal;
        assert!(
            (h - g.h_marginal).abs() < 1e-5,
            "permutation {i} changed the marginal entropy"
        );
    }
}

#[test]
fn rank_transform_makes_marginals_identical_across_genes() {
    // The key TINGe property: after rank transform, every (untied) gene
    // has the same marginal entropy, which is what makes a single pooled
    // null valid for all pairs.
    let matrix = synth::independent_gaussian(10, 400, 21);
    let basis = BsplineBasis::tinge_default();
    let entropies: Vec<f64> = (0..10)
        .map(|g| prepare_gene(matrix.gene(g), &basis).h_marginal)
        .collect();
    let first = entropies[0];
    for (g, h) in entropies.iter().enumerate() {
        assert!(
            (h - first).abs() < 1e-5,
            "gene {g} marginal entropy {h} differs from {first}"
        );
    }
}
