//! Cross-crate integration: the full pipeline driven through the facade
//! crate the way a downstream user would.

use genome_net::core::baselines::sequential_reference;
use genome_net::core::{infer_network, InferenceConfig};
use genome_net::expr::synth::{coupled_pairs, Coupling};
use genome_net::graph::dpi::dpi_prune;
use genome_net::graph::{connected_components, recovery_score};
use genome_net::grnsim::{GrnConfig, SyntheticDataset, TopologyKind};
use genome_net::mi::MiKernel;
use genome_net::parallel::SchedulerPolicy;

fn test_config() -> InferenceConfig {
    InferenceConfig {
        permutations: 15,
        threads: Some(2),
        tile_size: Some(12),
        ..InferenceConfig::default()
    }
}

#[test]
fn end_to_end_on_mechanistic_data() {
    let ds = SyntheticDataset::generate(
        GrnConfig {
            genes: 50,
            samples: 400,
            ..GrnConfig::small()
        },
        99,
    );
    let result = infer_network(&ds.matrix, &test_config());
    assert!(
        result.network.edge_count() > 0,
        "a coupled GRN must yield edges"
    );

    let score = recovery_score(&result.network, &ds.truth_edges());
    assert!(score.recall() > 0.4, "recall {}", score.recall());

    // The network must be structurally sane.
    let comps = connected_components(&result.network);
    assert!(!comps.is_empty());
    let total: usize = comps.iter().map(Vec::len).sum();
    assert_eq!(total, 50, "components must partition the gene set");
}

#[test]
fn erdos_renyi_topology_also_recovers() {
    let ds = SyntheticDataset::generate(
        GrnConfig {
            genes: 40,
            samples: 500,
            topology: TopologyKind::ErdosRenyi,
            ..GrnConfig::small()
        },
        5,
    );
    let result = infer_network(&ds.matrix, &test_config());
    let score = recovery_score(&result.network, &ds.truth_edges());
    assert!(score.recall() > 0.4, "ER recall {}", score.recall());
}

#[test]
fn optimized_matches_reference_on_grn_data() {
    let ds = SyntheticDataset::generate(
        GrnConfig {
            genes: 24,
            samples: 250,
            ..GrnConfig::small()
        },
        3,
    );
    let cfg = test_config();
    let fast = infer_network(&ds.matrix, &cfg);
    let slow = sequential_reference(&ds.matrix, &cfg);
    assert_eq!(fast.network.edge_count(), slow.edge_count());
    for (a, b) in fast.network.edges().iter().zip(slow.edges()) {
        assert_eq!(a.key(), b.key());
        assert!((a.weight - b.weight).abs() < 1e-3);
    }
}

#[test]
fn kernels_and_schedulers_commute_with_results() {
    let (matrix, _) = coupled_pairs(5, 220, Coupling::Linear(0.8), 12);
    let baseline = infer_network(&matrix, &test_config());
    for kernel in [MiKernel::ScalarSparse, MiKernel::VectorDense] {
        for policy in [SchedulerPolicy::StaticCyclic, SchedulerPolicy::StaticBlock] {
            let cfg = InferenceConfig {
                kernel,
                scheduler: policy,
                ..test_config()
            };
            let run = infer_network(&matrix, &cfg);
            let a: Vec<_> = run.network.edges().iter().map(|e| e.key()).collect();
            let b: Vec<_> = baseline.network.edges().iter().map(|e| e.key()).collect();
            assert_eq!(a, b, "{kernel:?}/{policy:?} changed the network");
        }
    }
}

#[test]
fn dpi_pruning_only_removes_edges() {
    let ds = SyntheticDataset::generate(
        GrnConfig {
            genes: 40,
            samples: 400,
            ..GrnConfig::small()
        },
        8,
    );
    let result = infer_network(&ds.matrix, &test_config());
    let pruned = dpi_prune(&result.network, 0.1);
    assert!(pruned.edge_count() <= result.network.edge_count());
    for e in pruned.edges() {
        assert!(result.network.has_edge(e.a, e.b), "DPI invented an edge");
    }
}

#[test]
fn independent_matrix_produces_near_empty_network() {
    let matrix = genome_net::expr::synth::independent_gaussian(30, 250, 4);
    let result = infer_network(&matrix, &test_config());
    assert!(
        result.network.edge_count() <= 2,
        "{} false edges on independent data",
        result.network.edge_count()
    );
}

#[test]
fn config_serde_roundtrip() {
    let cfg = test_config();
    let json = serde_json::to_string(&cfg).unwrap();
    let back: InferenceConfig = serde_json::from_str(&json).unwrap();
    assert_eq!(back, cfg);
}

#[test]
fn network_serde_roundtrip_through_json() {
    let (matrix, _) = coupled_pairs(3, 200, Coupling::Linear(0.9), 2);
    let result = infer_network(&matrix, &test_config());
    let json = serde_json::to_string(&result.network).unwrap();
    let back: genome_net::graph::GeneNetwork = serde_json::from_str(&json).unwrap();
    assert_eq!(back, result.network);
}
