//! Checkpoint/resume for multi-hour whole-genome runs.
//!
//! A full-scale run is tens of minutes on the paper's hardware and many
//! hours on a workstation; production deployments need to survive
//! preemption. Because the pipeline's per-thread state merges exactly
//! in any order (integer pooled-null sums, `(i, j)`-sorted candidates)
//! and the tile list is deterministic, progress can be captured as a
//! compact [`Checkpoint`]: a prefix length into the tile list plus the
//! merged evidence over that prefix. Resuming replays nothing, at any
//! thread count and scheduler.
//!
//! Only the exact (paper-faithful) null strategy is supported — the
//! early-exit pre-pass would have to be re-estimated on resume, changing
//! decisions mid-run.
//!
//! A checkpointed run goes through the same pipeline function as a
//! plain one, so it records the same stages, run shape (`run.config`)
//! and `mi.*` counters, plus one `checkpoint.chunk` event per chunk.
//!
//! This module is the in-memory side: the run digest and
//! [`infer_network_resumable`], which writes no files. The files, the
//! one store for checkpoints and update progress, and the one driver that
//! resumes and saves both are in [`crate::durable`].

use crate::config::InferenceConfig;
use crate::pipeline::run_pipeline;
use crate::result::InferenceResult;
pub use crate::scan::Checkpoint;
use crate::scan::Chunking;
use gnet_expr::ExpressionMatrix;
use gnet_mi::MiKernel;
use gnet_parallel::TileSpace;
use gnet_trace::Recorder;

fn mix(h: u64, v: u64) -> u64 {
    let mut z = h ^ v.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z ^ (z >> 31)
}

/// The digest binding checkpoints to `(config, matrix shape, tiling)`.
/// A checkpoint's prefix counts tiles of one list, so the tiling is the
/// tile count and the tile edge: two lists of the same length name other
/// pairs at another edge.
pub(crate) fn run_digest(
    config: &InferenceConfig,
    matrix: &ExpressionMatrix,
    space: &TileSpace,
) -> u64 {
    let mut h = 0xD16E_5700_0000_0001u64;
    h = mix(h, matrix.genes() as u64);
    h = mix(h, matrix.samples() as u64);
    h = mix(h, space.tiles().len() as u64);
    h = mix(h, space.tile_size() as u64);
    h = mix(h, config.bins as u64);
    h = mix(h, config.spline_order as u64);
    h = mix(h, config.permutations as u64);
    h = mix(h, config.seed);
    h = mix(h, config.alpha.to_bits());
    h = mix(h, config.mi_threshold.map_or(0, f64::to_bits));
    // The kernel fixes the accumulation order, so a prefix summed by one
    // kernel must not be finished by the other.
    h = mix(
        h,
        match config.kernel {
            MiKernel::ScalarSparse => 1,
            MiKernel::VectorDense => 2,
        },
    );
    h
}

/// The digest binding checkpoints to `(config, matrix shape, tiling)`,
/// computed without running the pipeline.
///
/// [`infer_network_resumable`] derives the same value internally; the
/// durable driver ([`crate::infer_network_durable`]) uses it to reject
/// stale or foreign checkpoints with a typed error *before* the run
/// starts, instead of panicking mid-resume.
///
/// # Panics
/// Panics on config/matrix violations (fewer than two genes).
#[must_use]
pub fn run_digest_for(matrix: &ExpressionMatrix, config: &InferenceConfig) -> u64 {
    run_digest(config, matrix, &run_space(matrix, config, 0))
}

/// The tiles of the pairs `(i, j)` with `j ≥ first_new` (every pair at
/// 0) that a run of `config` over `matrix` scans, cut by the cache rule
/// over the matrix's shape.
///
/// # Panics
/// Panics on an invalid configuration, fewer than two genes, or
/// `first_new` past the last gene.
pub(crate) fn run_space(
    matrix: &ExpressionMatrix,
    config: &InferenceConfig,
    first_new: usize,
) -> TileSpace {
    config.validate();
    assert!(matrix.genes() >= 2, "need at least two genes");
    let tile_size = config.resolved_tile_size(matrix.genes(), matrix.samples());
    TileSpace::frontier(matrix.genes(), first_new, tile_size)
}

/// Outcome of a resumable run: finished, or interrupted with the progress
/// needed to continue.
pub type ResumableOutcome = Result<InferenceResult, Checkpoint>;

/// Run the pipeline processing tiles in chunks of `chunk_tiles`; after
/// each chunk, `on_checkpoint` receives the cumulative progress and may
/// return `false` to interrupt (the checkpoint comes back as `Err`).
/// Passing a prior checkpoint resumes exactly where it stopped.
///
/// The final network and threshold are bit-identical to
/// [`crate::infer_network`]'s at any thread count, scheduler and chunk
/// size, interrupted or not. [`crate::infer_network_durable`] is the
/// same run with durable checkpoint files and a recorder.
///
/// # Panics
/// Panics on config/matrix violations, a digest mismatch, a non-exact
/// null strategy, or `chunk_tiles == 0`.
pub fn infer_network_resumable(
    matrix: &ExpressionMatrix,
    config: &InferenceConfig,
    resume_from: Option<Checkpoint>,
    chunk_tiles: usize,
    mut on_checkpoint: impl FnMut(&Checkpoint) -> bool,
) -> ResumableOutcome {
    let chunking = Chunking {
        resume_from,
        chunk_tiles,
        on_checkpoint: &mut on_checkpoint,
    };
    run_pipeline(matrix, config, &Recorder::disabled(), Some(chunking))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NullStrategy;
    use crate::infer_network;
    use gnet_expr::synth::{coupled_pairs, Coupling};
    use gnet_parallel::SchedulerPolicy;

    fn cfg() -> InferenceConfig {
        InferenceConfig {
            permutations: 10,
            threads: Some(2),
            tile_size: Some(6),
            ..InferenceConfig::default()
        }
    }

    #[test]
    fn uninterrupted_resumable_run_matches_one_shot() {
        let (matrix, _) = coupled_pairs(5, 220, Coupling::Linear(0.85), 61);
        let one_shot = infer_network(&matrix, &cfg());
        let mut checkpoints = 0;
        let resumable = infer_network_resumable(&matrix, &cfg(), None, 1, |_| {
            checkpoints += 1;
            true
        })
        .expect("must finish");
        assert!(checkpoints >= 2, "chunking must actually checkpoint");
        assert_eq!(
            resumable.network.edges().len(),
            one_shot.network.edges().len()
        );
        for (a, b) in resumable
            .network
            .edges()
            .iter()
            .zip(one_shot.network.edges())
        {
            assert_eq!(a.key(), b.key());
        }
        assert_eq!(resumable.stats.pairs, one_shot.stats.pairs);
        assert_eq!(
            resumable.stats.joints_evaluated,
            one_shot.stats.joints_evaluated
        );
    }

    #[test]
    fn interrupt_and_resume_reproduces_the_run() {
        let (matrix, _) = coupled_pairs(6, 200, Coupling::Linear(0.8), 13);
        let reference = infer_network_resumable(&matrix, &cfg(), None, 4, |_| true)
            .expect("reference finishes");

        // Interrupt after the second of the per-tile checkpoints.
        let mut seen = 0;
        let interrupted = infer_network_resumable(&matrix, &cfg(), None, 1, |_| {
            seen += 1;
            seen < 2
        });
        let checkpoint = interrupted.expect_err("must be interrupted");
        assert!(checkpoint.tiles_done > 0);
        assert!(checkpoint.tiles_done < TileSpace::new(12, 6).tiles().len() * 100); // sanity

        // Resume to completion.
        let resumed = infer_network_resumable(&matrix, &cfg(), Some(checkpoint), 4, |_| true)
            .expect("resume finishes");
        assert_eq!(
            resumed
                .network
                .edges()
                .iter()
                .map(|e| e.key())
                .collect::<Vec<_>>(),
            reference
                .network
                .edges()
                .iter()
                .map(|e| e.key())
                .collect::<Vec<_>>()
        );
        assert_eq!(resumed.stats.candidates, reference.stats.candidates);
    }

    #[test]
    #[should_panic(expected = "does not match this run")]
    fn foreign_checkpoint_rejected() {
        let (matrix, _) = coupled_pairs(4, 100, Coupling::Linear(0.8), 1);
        let (other, _) = coupled_pairs(5, 100, Coupling::Linear(0.8), 1);
        let cp =
            infer_network_resumable(&other, &cfg(), None, 2, |_| false).expect_err("interrupted");
        let _ = infer_network_resumable(&matrix, &cfg(), Some(cp), 2, |_| true);
    }

    #[test]
    #[should_panic(expected = "does not match this run")]
    fn checkpoint_of_the_other_kernel_rejected() {
        let (matrix, _) = coupled_pairs(4, 100, Coupling::Linear(0.8), 1);
        let scalar = InferenceConfig {
            kernel: MiKernel::ScalarSparse,
            ..cfg()
        };
        assert_ne!(
            run_digest_for(&matrix, &scalar),
            run_digest_for(&matrix, &cfg()),
            "the kernel must be part of the run digest"
        );
        let cp =
            infer_network_resumable(&matrix, &scalar, None, 2, |_| false).expect_err("interrupted");
        let _ = infer_network_resumable(&matrix, &cfg(), Some(cp), 2, |_| true);
    }

    #[test]
    fn resume_at_another_thread_count_and_scheduler_is_bitwise() {
        // Interrupt at 2 threads under the dynamic scheduler, resume at 1
        // thread under static-block: the pooled null merges exactly, so
        // I* and the edge bytes equal an uninterrupted 3-thread run.
        let (matrix, _) = coupled_pairs(7, 160, Coupling::Linear(0.8), 47);
        let with = |threads, scheduler| InferenceConfig {
            permutations: 10,
            threads: Some(threads),
            tile_size: Some(3),
            scheduler,
            ..InferenceConfig::default()
        };
        let reference = infer_network(&matrix, &with(3, SchedulerPolicy::StaticCyclic));
        let mut seen = 0;
        let cp = infer_network_resumable(
            &matrix,
            &with(2, SchedulerPolicy::DynamicCounter),
            None,
            2,
            |_| {
                seen += 1;
                seen < 3
            },
        )
        .expect_err("interrupted after the third chunk");
        assert_eq!(cp.tiles_done, 6);
        let resumed = infer_network_resumable(
            &matrix,
            &with(1, SchedulerPolicy::StaticBlock),
            Some(cp),
            5,
            |_| true,
        )
        .expect("resume finishes");
        assert_eq!(
            resumed.stats.threshold.to_bits(),
            reference.stats.threshold.to_bits()
        );
        let bytes = |net: &gnet_graph::GeneNetwork| {
            let mut out = Vec::new();
            gnet_graph::io::write_edge_list(net, &mut out).expect("in-memory write");
            out
        };
        assert!(!reference.network.edges().is_empty());
        assert_eq!(bytes(&resumed.network), bytes(&reference.network));
        assert_eq!(resumed.stats.candidates, reference.stats.candidates);
        assert_eq!(
            resumed.stats.joints_evaluated,
            reference.stats.joints_evaluated
        );
    }

    #[test]
    fn execution_report_covers_every_chunk() {
        // Regression: the report used to be overwritten per chunk, so a
        // multi-chunk run reported only the *final* chunk's tiles/pairs.
        let (matrix, _) = coupled_pairs(6, 150, Coupling::Linear(0.8), 5);
        let r = infer_network_resumable(&matrix, &cfg(), None, 1, |_| true).expect("finishes");
        let tiles = TileSpace::new(12, 6).tiles().len();
        assert!(tiles > 1, "test must span multiple chunks");
        assert_eq!(
            r.stats.execution.total_pairs(),
            r.stats.pairs,
            "execution report must account for all pairs, not the last chunk"
        );
        assert_eq!(r.stats.execution.total_tiles(), tiles);
        assert!(r.stats.execution.elapsed > std::time::Duration::ZERO);
    }

    #[test]
    fn mi_time_leaves_out_the_time_between_chunks() {
        // A durable run saves between chunks; pairs/s must not count that.
        // The MI stage and the pauses are disjoint parts of the call, so
        // both fit in its wall time however slow the host; counted twice,
        // the pauses would not fit (they outlast preparation and
        // finalize).
        let (matrix, _) = coupled_pairs(6, 150, Coupling::Linear(0.8), 5);
        let pause = std::time::Duration::from_millis(30);
        let mut chunks = 0u32;
        let t0 = std::time::Instant::now();
        let r = infer_network_resumable(&matrix, &cfg(), None, 1, |_| {
            chunks += 1;
            std::thread::sleep(pause);
            true
        })
        .expect("finishes");
        let wall = t0.elapsed();
        assert!(chunks >= 2, "the run must span several chunks");
        assert!(
            r.stats.mi_time + pause * chunks <= wall,
            "mi_time {:?} counts the {chunks} pauses of {pause:?} (the call took {wall:?})",
            r.stats.mi_time
        );
    }

    #[test]
    fn resumed_run_reports_only_its_own_tiles() {
        // A resumed invocation accounts for the tiles *it* processed; the
        // interrupted prefix was accounted by the first invocation.
        let (matrix, _) = coupled_pairs(6, 150, Coupling::Linear(0.8), 5);
        let mut seen = 0;
        let cp = infer_network_resumable(&matrix, &cfg(), None, 1, |_| {
            seen += 1;
            seen < 2
        })
        .expect_err("interrupted");
        let done_before = cp.tiles_done;
        let total_tiles = TileSpace::new(12, 6).tiles().len();
        let resumed =
            infer_network_resumable(&matrix, &cfg(), Some(cp), 1, |_| true).expect("finishes");
        assert_eq!(
            resumed.stats.execution.total_tiles(),
            total_tiles - done_before
        );
    }

    /// A chunked run through the crate-private pipeline, recorded on `rec`.
    fn chunked_traced(
        matrix: &ExpressionMatrix,
        chunk_tiles: usize,
        rec: &Recorder,
    ) -> InferenceResult {
        let chunking = Chunking {
            resume_from: None,
            chunk_tiles,
            on_checkpoint: &mut |_| true,
        };
        run_pipeline(matrix, &cfg(), rec, Some(chunking)).expect("finishes")
    }

    #[test]
    fn traced_resumable_run_emits_chunk_events() {
        let (matrix, _) = coupled_pairs(5, 120, Coupling::Linear(0.85), 17);
        let rec = Recorder::enabled();
        let r = chunked_traced(&matrix, 1, &rec);
        let tiles = r.stats.execution.total_tiles();
        assert_eq!(rec.event_count("checkpoint.chunk"), tiles); // chunk_tiles=1
        assert_eq!(
            rec.histogram(gnet_parallel::HIST_TILE_US)
                .expect("tile histogram recorded")
                .count(),
            tiles as u64
        );
        assert!(rec.span_count() >= 3);
    }

    #[test]
    fn checkpointed_and_plain_runs_record_the_same_run_shape_and_counters() {
        let (matrix, _) = coupled_pairs(5, 120, Coupling::Linear(0.85), 17);
        let plain = Recorder::enabled();
        crate::infer_network_traced(&matrix, &cfg(), &plain);
        let chunked = Recorder::enabled();
        chunked_traced(&matrix, 2, &chunked);
        for rec in [&plain, &chunked] {
            assert_eq!(rec.event_count("run.config"), 1);
            assert_eq!(rec.event_count("pipeline.done"), 1);
        }
        for counter in ["mi.pairs", "mi.joints_evaluated", "mi.candidates"] {
            assert!(plain.counter(counter).is_some(), "{counter} recorded");
            assert_eq!(
                chunked.counter(counter),
                plain.counter(counter),
                "{counter}"
            );
        }
        assert_eq!(plain.event_count("checkpoint.chunk"), 0);
        assert!(chunked.event_count("checkpoint.chunk") >= 2);
    }

    #[test]
    #[should_panic(expected = "exact null strategy")]
    fn early_exit_strategy_rejected() {
        let (matrix, _) = coupled_pairs(3, 60, Coupling::Linear(0.5), 2);
        let bad = InferenceConfig {
            null_strategy: NullStrategy::EarlyExit,
            mi_threshold: Some(0.1),
            ..cfg()
        };
        let _ = infer_network_resumable(&matrix, &bad, None, 2, |_| true);
    }
}
