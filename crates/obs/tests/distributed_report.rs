//! The issue's acceptance scenario: run a 4-rank traced inference, load
//! the trace directory into the unified run model, and check that
//!
//! * the merged timeline's per-rank span union equals the raw NDJSON
//!   inputs — no event dropped or duplicated;
//! * a critical path exists and stays within the makespan;
//! * the perf-attribution table is populated (with the
//!   percent-of-modeled-peak column when a kernel model is supplied);
//! * the Chrome export of the same model stays schema-valid;
//! * a ranks × threads run stamps its per-rank threads and sub-tile size,
//!   and each rank's workers claim exactly that rank's sub-tiles.

use gnet_cluster::{block_pair_owner, block_range, infer_network_distributed, RankRun};
use gnet_core::InferenceConfig;
use gnet_expr::synth::{coupled_pairs, Coupling};
use gnet_obs::ingest::parse_ndjson;
use gnet_obs::model::{span_key, RunModel};
use gnet_obs::report::{analyze, KernelModel, RunConfig};
use gnet_parallel::TileSpace;
use std::collections::BTreeMap;
use std::path::PathBuf;

fn traced_run(tag: u32) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gnet-obs-report-{}-{tag}", std::process::id()));
    let (matrix, _) = coupled_pairs(8, 220, Coupling::Linear(0.85), 13);
    let config = InferenceConfig {
        permutations: 4,
        threads: Some(1),
        mi_threshold: Some(0.1),
        ..InferenceConfig::default()
    };
    let run = RankRun {
        trace_dir: Some(&dir),
        ..RankRun::new(4)
    };
    infer_network_distributed(&matrix, &config, &run).expect("fault-free traced run succeeds");
    dir
}

/// Multiset of span identities (rank, name, raw start, duration).
fn span_multiset(model: &RunModel) -> BTreeMap<(u64, String, u64, u64), usize> {
    let mut set = BTreeMap::new();
    for t in &model.ranks {
        for s in &t.spans {
            *set.entry(span_key(t.rank(), s)).or_insert(0) += 1;
        }
    }
    set
}

#[test]
fn merged_timeline_conserves_every_raw_span() {
    let dir = traced_run(1);
    let model = RunModel::from_dir(&dir).expect("trace dir loads");
    assert_eq!(model.rank_count(), 4);

    // Ground truth: parse each raw stream independently of the model.
    let mut raw = BTreeMap::new();
    for r in 0..4u64 {
        let text = std::fs::read_to_string(dir.join(format!("rank-{r}.ndjson")))
            .expect("raw stream readable");
        let trace = parse_ndjson(&text).expect("raw stream parses");
        for s in &trace.spans {
            *raw.entry(span_key(r, s)).or_insert(0) += 1;
        }
    }
    assert!(!raw.is_empty(), "a traced run produces spans");
    assert_eq!(
        span_multiset(&model),
        raw,
        "the merged model's span union must equal the raw inputs exactly"
    );
    // The aligned view preserves cardinality too (alignment shifts, it
    // never drops or duplicates).
    assert_eq!(
        model.aligned_spans().len(),
        raw.values().sum::<usize>(),
        "aligned timeline has one entry per raw span"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn report_has_critical_path_load_and_attribution() {
    let dir = traced_run(2);
    let model = RunModel::from_dir(&dir).expect("trace dir loads");
    // A synthetic kernel model keeps the test deterministic and fast
    // (live calibration is exercised by `gnet trace-report` itself).
    let report = analyze(
        &model,
        Some(KernelModel {
            ns_per_pair: 5_000.0,
            threads: 1,
        }),
    );

    // The distributed path stamps the run shape too, so live
    // calibration works on cluster traces.
    let config = report.config.as_ref().expect("run.config stamped");
    assert_eq!(config.genes, 16, "coupled_pairs(8, ..) makes 8 gene pairs");
    assert_eq!(config.samples, 220);
    assert_eq!(config.scheduler, "ring");

    // Load: all four ranks accounted for, with busy time inside the run.
    assert_eq!(report.ranks.len(), 4);
    for r in &report.ranks {
        assert!(r.busy_us > 0, "rank {} did work", r.rank);
        assert!(r.busy_us <= report.makespan_us);
        assert!(r.utilization > 0.0 && r.utilization <= 1.0);
        assert!(r.pairs.is_some(), "rank {} reports pairs", r.rank);
    }
    assert!(report.imbalance >= 1.0);

    // Critical path: non-empty, time-ordered, inside the makespan.
    assert!(!report.critical_path.is_empty());
    for w in report.critical_path.windows(2) {
        assert!(
            w[0].end_us() <= w[1].start_us,
            "critical path spans must not overlap"
        );
    }
    assert!(report.critical_path_us > 0);
    assert!(report.critical_path_us <= report.makespan_us);

    // Attribution: the distributed compute stages appear, rounds are
    // collapsed, shares sum to 1, and MI-bearing stages carry the
    // percent-of-model column.
    assert!(!report.attribution.is_empty());
    let stages: Vec<&str> = report
        .attribution
        .iter()
        .map(|a| a.stage.as_str())
        .collect();
    assert!(
        stages.contains(&"rank.round"),
        "rounds collapse into one stage"
    );
    assert!(stages.contains(&"rank.diag"));
    let share_sum: f64 = report.attribution.iter().map(|a| a.share).sum();
    assert!(
        (share_sum - 1.0).abs() < 1e-9,
        "shares sum to 1, got {share_sum}"
    );
    let mi = report
        .attribution
        .iter()
        .find(|a| a.stage == "rank.round")
        .expect("rank.round attributed");
    assert!(mi.measured_pairs_per_s.expect("measured throughput") > 0.0);
    assert!(mi.modeled_pairs_per_s.expect("modeled throughput") > 0.0);
    assert!(mi.percent_of_model.expect("percent of model") > 0.0);

    // The text rendering carries the table headers end-to-end.
    let text = report.render_text();
    for needle in [
        "per-rank load",
        "critical path",
        "perf attribution",
        "% model",
    ] {
        assert!(text.contains(needle), "report text must contain `{needle}`");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn chrome_export_of_a_real_run_is_loadable_json() {
    let dir = traced_run(3);
    let model = RunModel::from_dir(&dir).expect("trace dir loads");
    let json = gnet_obs::chrome::to_chrome_json(&model);
    // The unit tests validate the schema shape; here we check the
    // export of a *real* multi-rank run stays parseable and covers all
    // four process lanes.
    for r in 0..4 {
        assert!(
            json.contains(&format!("\"args\":{{\"name\":\"rank {r}\"}}")),
            "process_name metadata for rank {r}"
        );
    }
    assert!(json.starts_with("{\"traceEvents\":["));
    let folded = gnet_obs::flame::to_folded(&model);
    for r in 0..4 {
        assert!(
            folded.lines().any(|l| l.starts_with(&format!("rank-{r};"))),
            "flamegraph subtree for rank {r}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn ranks_times_threads_stamp_the_run_shape_and_claim_every_sub_tile() {
    let dir = std::env::temp_dir().join(format!("gnet-obs-report-{}-hybrid", std::process::id()));
    let (matrix, _) = coupled_pairs(8, 220, Coupling::Linear(0.85), 13);
    let (ranks, tile) = (2, 3);
    let config = InferenceConfig {
        permutations: 4,
        threads: Some(2),
        tile_size: Some(tile),
        mi_threshold: Some(0.1),
        ..InferenceConfig::default()
    };
    let run = RankRun {
        trace_dir: Some(&dir),
        ..RankRun::new(ranks)
    };
    infer_network_distributed(&matrix, &config, &run).expect("fault-free traced run succeeds");
    let model = RunModel::from_dir(&dir).expect("trace dir loads");
    let shape = RunConfig::from_model(&model).expect("run.config stamped");
    assert_eq!(shape.threads, 2, "workers per rank");
    assert_eq!(
        shape.tile_size, tile as u64,
        "sub-tile edge, not the block size"
    );

    let n = matrix.genes();
    let genes = |b| {
        let (s, e) = block_range(n, ranks, b);
        s..e
    };
    let report = analyze(&model, None);
    assert_eq!(report.ranks.len(), ranks);
    for load in &report.ranks {
        let r = usize::try_from(load.rank).expect("rank ids are small");
        let sub_tiles: usize = (0..ranks)
            .flat_map(|a| (a..ranks).map(move |b| (a, b)))
            .filter(|&(a, b)| block_pair_owner(a, b, ranks) == r)
            .map(|(a, b)| {
                TileSpace::block_pair(genes(a), genes(b), tile)
                    .tiles()
                    .len()
            })
            .sum();
        let claimed: u64 = load.thread_claims.iter().map(|&(_, c)| c).sum();
        assert_eq!(
            claimed, sub_tiles as u64,
            "rank {r}: {:?}",
            load.thread_claims
        );
        assert!(
            load.thread_claims.iter().all(|&(tid, _)| tid < 2),
            "rank {r}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}
