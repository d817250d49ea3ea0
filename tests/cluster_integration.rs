//! Facade-level integration of the simulated cluster: the distributed
//! pipeline on mechanistic data.

use genome_net::cluster::{infer_network_distributed, RankRun};
use genome_net::core::{infer_network, InferenceConfig};
use genome_net::grnsim::{GrnConfig, SyntheticDataset};

fn cfg() -> InferenceConfig {
    InferenceConfig {
        permutations: 10,
        threads: Some(1),
        tile_size: Some(8),
        ..InferenceConfig::default()
    }
}

#[test]
fn distributed_grn_inference_matches_shared_memory() {
    let ds = SyntheticDataset::generate(
        GrnConfig {
            genes: 36,
            samples: 250,
            ..GrnConfig::small()
        },
        44,
    );
    let shared = infer_network(&ds.matrix, &cfg());
    for ranks in [3usize, 6] {
        let dist = infer_network_distributed(&ds.matrix, &cfg(), &RankRun::new(ranks))
            .expect("fault-free ring completes");
        assert_eq!(
            dist.network
                .edges()
                .iter()
                .map(|e| e.key())
                .collect::<Vec<_>>(),
            shared
                .network
                .edges()
                .iter()
                .map(|e| e.key())
                .collect::<Vec<_>>(),
            "{ranks} ranks"
        );
        // The gathered pooled null merges exactly: the same I* bits.
        assert_eq!(
            dist.threshold.to_bits(),
            shared.stats.threshold.to_bits(),
            "{ranks} ranks: threshold {} vs {}",
            dist.threshold,
            shared.stats.threshold
        );
    }
}

#[test]
fn rank_statistics_account_for_all_work() {
    let ds = SyntheticDataset::generate(
        GrnConfig {
            genes: 24,
            samples: 120,
            ..GrnConfig::small()
        },
        2,
    );
    let dist = infer_network_distributed(&ds.matrix, &cfg(), &RankRun::new(4))
        .expect("fault-free ring completes");
    let total_pairs: u64 = dist.rank_stats.iter().map(|s| s.pairs).sum();
    assert_eq!(total_pairs, 24 * 23 / 2);
    // Ring rounds: every rank owns its diagonal plus ⌈(P−1)/2⌉-ish cross
    // blocks; for P=4 that is 1 + (1 or 2).
    for s in &dist.rank_stats {
        assert!(
            s.block_pairs >= 2 && s.block_pairs <= 3,
            "rank {}: {}",
            s.rank,
            s.block_pairs
        );
        assert!(s.busy.as_nanos() > 0);
    }
}
