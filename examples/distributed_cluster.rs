//! Distributed network construction over the simulated cluster — the
//! TINGe (cluster) side of the paper's single-chip-vs-cluster comparison.
//!
//! ```text
//! cargo run --release --example distributed_cluster -- [ranks] [genes]
//! ```
//!
//! Runs the same inference twice — shared-memory pipeline vs the
//! ring-rotation distributed algorithm over P in-process ranks — and
//! verifies the networks are identical while reporting the cluster's
//! communication profile.

use genome_net::cluster::{infer_network_distributed, RankRun};
use genome_net::core::{infer_network, InferenceConfig};
use genome_net::grnsim::{GrnConfig, SyntheticDataset};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let ranks: usize = args.first().and_then(|s| s.parse().ok()).unwrap_or(4);
    let genes: usize = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(120);

    let dataset = SyntheticDataset::generate(
        GrnConfig {
            genes,
            samples: 300,
            ..GrnConfig::small()
        },
        7,
    );
    let config = InferenceConfig {
        permutations: 20,
        ..InferenceConfig::default()
    };

    println!("shared-memory pipeline …");
    let shared = infer_network(&dataset.matrix, &config);
    println!(
        "  {} edges in {:?}\n",
        shared.network.edge_count(),
        shared.stats.total_time()
    );

    println!("distributed over {ranks} simulated ranks …");
    let dist = infer_network_distributed(&dataset.matrix, &config, &RankRun::new(ranks))
        .expect("a fault-free in-process ring completes");
    println!(
        "  {} edges, I* = {:.4}\n",
        dist.network.edge_count(),
        dist.threshold
    );

    println!(
        "{:>5}  {:>10}  {:>12}  {:>10}  {:>10}",
        "rank", "pairs", "block pairs", "messages", "KB sent"
    );
    for s in &dist.rank_stats {
        println!(
            "{:>5}  {:>10}  {:>12}  {:>10}  {:>10.1}",
            s.rank,
            s.pairs,
            s.block_pairs,
            s.messages,
            s.bytes_sent as f64 / 1024.0
        );
    }

    let same = shared
        .network
        .edges()
        .iter()
        .map(|e| e.key())
        .collect::<Vec<_>>()
        == dist
            .network
            .edges()
            .iter()
            .map(|e| e.key())
            .collect::<Vec<_>>();
    println!(
        "\nnetworks identical: {same} — the property that makes the paper's\n\
         single-chip-vs-cluster comparison apples-to-apples."
    );
    assert!(same);
}
