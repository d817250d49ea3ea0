//! Chaos regression: kill the run at *every* chunk boundary and prove
//! resume reconstructs the exact network.
//!
//! For a 64-gene matrix, the suite first runs an uninterrupted durable
//! inference to learn the reference network and how many checkpoint
//! boundaries the tiling produces. It then replays the run once per
//! boundary with an injected [`gnet_fault::Fault::CrashAtChunk`], checks
//! the kill surfaces as a typed [`DurableError::Interrupted`] (never a
//! panic), resumes from the durable file in a fresh fault-free store, and
//! asserts the recovered result is **bit-identical** to the reference:
//! same edge keys, same edge weights, same pooled-null moments and
//! threshold down to the last mantissa bit.

use gnet_core::{
    infer_network_durable, CheckpointStore, DurableError, InferenceConfig, InferenceResult,
};
use gnet_expr::synth::{coupled_pairs, Coupling};
use gnet_expr::ExpressionMatrix;
use gnet_fault::{names, FaultInjector, FaultPlan};
use gnet_parallel::SchedulerPolicy;
use gnet_trace::Recorder;
use std::path::PathBuf;

/// 64 genes: 32 coupled pairs, everything across pairs independent.
fn chaos_matrix() -> ExpressionMatrix {
    let (matrix, _) = coupled_pairs(32, 120, Coupling::Linear(0.85), 77);
    matrix
}

/// Two threads under the dynamic scheduler: which thread runs which
/// tile varies run to run, and the pooled null must not notice.
fn chaos_config() -> InferenceConfig {
    InferenceConfig {
        permutations: 8,
        threads: Some(2),
        tile_size: Some(16),
        scheduler: SchedulerPolicy::DynamicCounter,
        ..InferenceConfig::default()
    }
}

/// Checkpoint cadence in tiles; 64 genes at tile 16 gives 10 tiles, so
/// every boundary index in `0..5` fires mid-run or at the finish line.
const CHECKPOINT_EVERY: usize = 2;

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gnet-chaos-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir must be creatable");
    dir
}

/// Everything the reference and the recovered run must agree on, bit for
/// bit: edges `(a, b, weight bits)`, then threshold / null-mean /
/// null-sd bits and the joint-evaluation count.
type Fingerprint = (Vec<(u32, u32, u32)>, u64, u64, u64, u64);

fn fingerprint(result: &InferenceResult) -> Fingerprint {
    let edges: Vec<(u32, u32, u32)> = result
        .network
        .edges()
        .iter()
        .map(|e| (e.a, e.b, e.weight.to_bits()))
        .collect();
    (
        edges,
        result.stats.threshold.to_bits(),
        result.stats.null_mean.to_bits(),
        result.stats.null_sd.to_bits(),
        result.stats.joints_evaluated,
    )
}

#[test]
fn kill_at_every_chunk_boundary_resumes_bit_identically() {
    let matrix = chaos_matrix();
    let config = chaos_config();

    // Uninterrupted reference; the recorder counts how many checkpoint
    // boundaries this tiling actually produces.
    let ref_rec = Recorder::enabled();
    let reference = infer_network_durable(
        &matrix,
        &config,
        &CheckpointStore::with_faults(tmpdir("ref"), FaultInjector::none(), &ref_rec),
        CHECKPOINT_EVERY,
        false,
        &ref_rec,
    )
    .expect("uninterrupted run finishes");
    let reference_print = fingerprint(&reference);
    assert!(
        !reference.network.edges().is_empty(),
        "reference network must be non-trivial for the comparison to mean anything"
    );

    let boundaries = ref_rec.event_count("checkpoint.saved");
    assert!(
        boundaries >= 5,
        "need several chunk boundaries for chaos coverage, got {boundaries}"
    );

    let mut last_tiles_done = 0usize;
    for b in 0..boundaries {
        // Phase 1: the killed run. The crash fires after boundary b's
        // checkpoint is durably written.
        let dir = tmpdir(&format!("kill-{b}"));
        let plan = FaultPlan::parse(&format!("seed=1;chunk-crash(boundary={b})"))
            .expect("chaos plan parses");
        let rec = Recorder::enabled();
        let store =
            CheckpointStore::with_faults(&dir, FaultInjector::from_plan_traced(&plan, &rec), &rec);
        let err = infer_network_durable(&matrix, &config, &store, CHECKPOINT_EVERY, false, &rec)
            .expect_err("injected kill at boundary {b} must interrupt the run");
        let DurableError::Interrupted { tiles_done, .. } = err else {
            panic!("boundary {b}: expected Interrupted, got {err}");
        };
        assert!(
            tiles_done > 0,
            "boundary {b}: kill fired before any progress"
        );
        assert!(
            tiles_done > last_tiles_done,
            "boundary {b}: later kills must checkpoint strictly more tiles \
             ({tiles_done} vs {last_tiles_done})"
        );
        last_tiles_done = tiles_done;
        assert_eq!(
            rec.event_count(names::EVT_CHUNK_CRASH),
            1,
            "boundary {b}: exactly one injected kill"
        );
        assert!(
            store.path().exists(),
            "boundary {b}: durable checkpoint survives the kill"
        );

        // Phase 2: "restart the process" — a fresh fault-free store over
        // the same directory, resuming from the survivor file.
        let rec2 = Recorder::enabled();
        let store2 = CheckpointStore::with_faults(&dir, FaultInjector::none(), &rec2);
        let resumed =
            infer_network_durable(&matrix, &config, &store2, CHECKPOINT_EVERY, true, &rec2)
                .expect("resume after the kill finishes");
        assert_eq!(
            rec2.counter(names::CNT_RESUMES),
            Some(1),
            "boundary {b}: resume must load the checkpoint, not restart from scratch"
        );
        assert_eq!(
            fingerprint(&resumed),
            reference_print,
            "boundary {b}: recovered network must be bit-identical to the reference"
        );
        store2.clear().expect("cleanup");
    }
    let total_tiles: usize = reference
        .stats
        .execution
        .per_thread
        .iter()
        .map(|t| t.tiles)
        .sum();
    assert_eq!(
        last_tiles_done, total_tiles,
        "the final boundary's checkpoint must cover the whole tile space"
    );
}

#[test]
fn corrupted_checkpoint_is_rejected_on_resume_not_resumed_wrongly() {
    let matrix = chaos_matrix();
    let config = chaos_config();
    let dir = tmpdir("corrupt-resume");

    // Kill at the second boundary, then damage the survivor file.
    let plan = FaultPlan::parse("seed=1;chunk-crash(boundary=1)").expect("plan parses");
    let store =
        CheckpointStore::with_faults(&dir, FaultInjector::from_plan(&plan), &Recorder::disabled());
    let err = infer_network_durable(
        &matrix,
        &config,
        &store,
        CHECKPOINT_EVERY,
        false,
        &Recorder::disabled(),
    )
    .expect_err("injected kill interrupts");
    assert!(matches!(err, DurableError::Interrupted { .. }));

    let path = store.path();
    let mut bytes = std::fs::read(&path).expect("checkpoint readable");
    let last = bytes.len() - 1;
    bytes[last] ^= 0x01;
    std::fs::write(&path, &bytes).expect("rewrite damaged file");

    let store2 = CheckpointStore::new(&dir);
    let err = infer_network_durable(
        &matrix,
        &config,
        &store2,
        CHECKPOINT_EVERY,
        true,
        &Recorder::disabled(),
    )
    .expect_err("damaged checkpoint must be rejected");
    assert!(
        matches!(err, DurableError::IntegrityMismatch { .. }),
        "expected a typed integrity error, got {err}"
    );
    store2.clear().expect("cleanup");
}

#[test]
fn checkpoint_from_a_different_run_is_rejected_on_resume() {
    let matrix = chaos_matrix();
    let config = chaos_config();
    let dir = tmpdir("stale-resume");

    let plan = FaultPlan::parse("seed=1;chunk-crash(boundary=0)").expect("plan parses");
    let store =
        CheckpointStore::with_faults(&dir, FaultInjector::from_plan(&plan), &Recorder::disabled());
    infer_network_durable(
        &matrix,
        &config,
        &store,
        CHECKPOINT_EVERY,
        false,
        &Recorder::disabled(),
    )
    .expect_err("injected kill interrupts");

    // Same directory, different run: more permutations changes the run
    // digest, so the survivor checkpoint no longer applies.
    let other = InferenceConfig {
        permutations: 16,
        ..chaos_config()
    };
    let store2 = CheckpointStore::new(&dir);
    let err = infer_network_durable(
        &matrix,
        &other,
        &store2,
        CHECKPOINT_EVERY,
        true,
        &Recorder::disabled(),
    )
    .expect_err("stale checkpoint must be rejected");
    assert!(
        matches!(err, DurableError::Stale { .. }),
        "expected a typed stale-run error, got {err}"
    );
    store2.clear().expect("cleanup");
}
