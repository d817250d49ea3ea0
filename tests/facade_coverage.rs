//! Integration coverage of the newer facade surfaces: MI matrix, KSG,
//! CLR, memory planning, checkpointing, and the graph analyses — driven
//! the way a downstream user would.

use genome_net::core::baselines::clr_network;
use genome_net::core::{
    compute_mi_matrix, infer_network, infer_network_resumable, CheckpointStore, InferenceConfig,
    MemoryPlan,
};
use genome_net::expr::synth::{coupled_pairs, Coupling};
use genome_net::graph::analysis::{core_numbers, degree_assortativity, top_hubs};
use genome_net::grnsim::{GrnConfig, SyntheticDataset};
use genome_net::mi::KsgEstimator;

fn cfg() -> InferenceConfig {
    InferenceConfig {
        permutations: 10,
        threads: Some(2),
        tile_size: Some(8),
        ..InferenceConfig::default()
    }
}

#[test]
fn mi_matrix_and_network_tell_the_same_story() {
    let (matrix, truth) = coupled_pairs(5, 300, Coupling::Linear(0.9), 5);
    let result = infer_network(&matrix, &cfg());
    let mm = compute_mi_matrix(&matrix, &cfg());

    // Every inferred edge's MI matches the matrix entry.
    for e in result.network.edges() {
        let matrix_mi = mm.get(e.a as usize, e.b as usize);
        assert!(
            (matrix_mi - e.weight).abs() < 1e-4,
            "edge ({}, {}): network {} vs matrix {matrix_mi}",
            e.a,
            e.b,
            e.weight
        );
    }
    // Planted pairs carry the largest MI values in the matrix.
    for &(i, j) in &truth {
        let planted = mm.get(i as usize, j as usize);
        assert!(planted as f64 > result.stats.threshold);
    }
}

#[test]
fn ksg_confirms_the_pipelines_top_edge() {
    let (matrix, truth) = coupled_pairs(2, 600, Coupling::Linear(0.9), 12);
    let result = infer_network(&matrix, &cfg());
    let top = &result.network.top_edges(1)[0];
    assert!(truth.contains(&top.key()), "top edge should be planted");
    // The unbiased KSG estimator sees substantial MI on the same pair.
    let ksg = KsgEstimator::default().mi(matrix.gene(top.a as usize), matrix.gene(top.b as usize));
    assert!(ksg > 0.4, "KSG cross-check {ksg}");
}

#[test]
fn clr_and_pipeline_agree_on_strong_structure() {
    let (matrix, truth) = coupled_pairs(5, 400, Coupling::Linear(0.92), 77);
    let pipeline = infer_network(&matrix, &cfg());
    let clr = clr_network(&matrix, 10, 3, 3.5);
    for &(i, j) in &truth {
        assert!(pipeline.network.has_edge(i, j), "pipeline missed ({i},{j})");
        assert!(clr.has_edge(i, j), "CLR missed ({i},{j})");
    }
}

#[test]
fn memory_plan_matches_observed_configuration() {
    let ds = SyntheticDataset::generate(
        GrnConfig {
            genes: 50,
            samples: 120,
            ..GrnConfig::small()
        },
        4,
    );
    let config = cfg();
    let plan = MemoryPlan::new(&config, ds.matrix.genes(), ds.matrix.samples());
    // The plan's matrix bytes equal the real matrix's heap use.
    assert_eq!(plan.matrix_bytes(), ds.matrix.heap_bytes());
    // A generous budget admits the whole gene set as one tile.
    let tile = plan
        .max_tile_for_budget(1 << 30, 2)
        .expect("1 GiB is plenty");
    assert_eq!(tile, 50);
    // The summary is printable.
    assert!(plan.summary(8, 2).contains("peak"));
}

#[test]
fn checkpointed_run_through_the_facade() {
    let (matrix, _) = coupled_pairs(5, 150, Coupling::Linear(0.85), 3);
    let reference = infer_network(&matrix, &cfg());
    // Interrupt mid-run, persist the checkpoint in its on-disk form
    // (GNETCKP) like a job system would, resume in a "new process".
    let cp = infer_network_resumable(&matrix, &cfg(), None, 1, |_| false)
        .expect_err("interrupted after the first chunk");
    let dir = std::env::temp_dir().join(format!("gnet-facade-ckpt-{}", std::process::id()));
    let store = CheckpointStore::new(&dir);
    store.save(&cp).expect("checkpoint saves");
    let restored = store.load().expect("checkpoint loads");
    assert_eq!(restored, cp);
    let resumed = infer_network_resumable(&matrix, &cfg(), Some(restored), 1, |_| true)
        .expect("resume completes");
    let a: Vec<_> = resumed.network.edges().iter().map(|e| e.key()).collect();
    let b: Vec<_> = reference.network.edges().iter().map(|e| e.key()).collect();
    assert_eq!(a, b);
    assert_eq!(
        resumed.stats.threshold.to_bits(),
        reference.stats.threshold.to_bits()
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn inferred_grn_has_regulatory_topology_signatures() {
    let ds = SyntheticDataset::generate(
        GrnConfig {
            genes: 80,
            samples: 500,
            avg_degree: 3.0,
            ..GrnConfig::small()
        },
        31,
    );
    let result = infer_network(&ds.matrix, &cfg());
    let net = &result.network;
    assert!(net.edge_count() > 20, "need a non-trivial network");

    // Hubs exist (scale-free generator) …
    let hubs = top_hubs(net, 3);
    assert!(hubs[0].1 >= 4, "top hub degree {}", hubs[0].1);

    // … the k-core structure is consistent with degrees …
    let core = core_numbers(net);
    for (g, &c) in core.iter().enumerate() {
        assert!(c as usize <= net.degree(g));
    }
    let max_core = core.iter().copied().max().unwrap();
    assert!(max_core >= 1);

    // … and assortativity is defined and finite.
    if let Some(r) = degree_assortativity(net) {
        assert!((-1.0..=1.0).contains(&r), "assortativity {r}");
    }
}
