//! Incremental network updates over a persisted [`NetworkState`].
//!
//! A whole-genome compendium grows two ways — new genes (probes added to
//! the platform) and new samples (new experiments) — and a from-scratch
//! rebuild repeats `n(n−1)/2` pair evaluations to learn what one append
//! changed. An update appends to the state's matrix, prepares every gene
//! through the function every run uses ([`crate::prepare_genes`]) and
//! rescans only the pairs the append invalidates:
//!
//! * **Gene append** keeps every already-evaluated pair and scans only
//!   the *frontier* — pairs with at least one new endpoint: `g·(N−g) +
//!   g·(g−1)/2` pairs for `g` appended genes out of `N` total, versus
//!   `N(N−1)/2` for a rebuild. The frontier is tiled by
//!   [`gnet_parallel::TileSpace::frontier`] and scanned by the same tile
//!   engine as a batch run ([`crate::scan`]).
//! * **Sample append** concatenates each gene's samples and rescans
//!   every tile: every pair's MI depends on every sample.
//!
//! Both paths are pinned by conformance oracle family 6 to be
//! **bit-identical** to a batch [`build_state`] over the concatenated
//! dataset, and that holds by construction: the updated state is the
//! concatenated matrix, its genes are prepared as a batch run prepares
//! them, per-pair MI is the same in any tile, the pooled null sums
//! exactly, and candidates are kept sorted. So the resulting
//! [`NetworkState`] — matrix, candidates, pooled null, threshold, edges
//! — is `assert_eq!`-equal at any thread count.
//!
//! [`update_durable`] adds crash durability through the same driver as
//! a checkpointed `gnet infer` ([`crate::durable`]): progress is saved
//! every `chunk_tiles` tiles as a tile prefix in the state directory's
//! update progress file, and a kill at a progress boundary
//! ([`gnet_fault::Fault::UpdateCrash`]) resumes bit-identically.

use crate::checkpoint::Checkpoint;
use crate::config::InferenceConfig;
use crate::durable::DurableError;
use crate::pipeline::PreparedRun;
use crate::scan::{Chunking, NullScan};
use crate::state::{NetworkState, StateStore};
use gnet_expr::{ExpressionMatrix, MissingPolicy};
use gnet_permute::PooledNull;
use gnet_trace::{Recorder, Value};
use std::fmt;

/// Which dimension an update appends along.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum UpdateMode {
    /// New genes with the same sample count as the state.
    Genes,
    /// New samples for exactly the state's gene set.
    Samples,
}

impl UpdateMode {
    /// Stable lowercase name (CLI flag values, progress encoding).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::Genes => "genes",
            Self::Samples => "samples",
        }
    }

    pub(crate) fn tag(self) -> u8 {
        match self {
            Self::Genes => 0,
            Self::Samples => 1,
        }
    }
}

impl fmt::Display for UpdateMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// What an update actually did — the numbers the CLI and the bench
/// harness report.
#[derive(Clone, Copy, Debug)]
pub struct UpdateStats {
    /// Dimension appended along.
    pub mode: UpdateMode,
    /// Genes (or samples) appended.
    pub appended: usize,
    /// Pairs evaluated by this invocation (after any resume skip). For a
    /// fresh gene append this is exactly the frontier size
    /// `g·(N−g) + g·(g−1)/2`.
    pub pairs_scanned: u64,
    /// Pairs the invocation skipped because durable progress already
    /// covered them.
    pub pairs_resumed: u64,
    /// Joint-entropy evaluations behind the updated state, old pairs
    /// included.
    pub joints: u64,
    /// Global threshold of the updated state.
    pub threshold: f64,
}

/// Build an updatable [`NetworkState`] from scratch — the batch side of
/// the batch-equivalence contract: an [`crate::infer_network`] run over
/// `matrix` and the state of its evidence. Its threshold and edges are
/// that run's.
///
/// # Panics
/// Panics on invalid configuration, fewer than two genes, or a
/// non-[`crate::NullStrategy::ExactFull`] null strategy (early exit
/// discards the pooled null an updatable state must keep).
#[must_use]
pub fn build_state(matrix: &ExpressionMatrix, config: &InferenceConfig) -> NetworkState {
    let scan = crate::infer_network(matrix, config).scan;
    NetworkState::new(config, matrix.clone(), scan)
}

/// Infer the update mode from the append matrix's shape, rejecting
/// ambiguous and incompatible shapes with a typed error.
///
/// # Errors
/// [`DurableError::Append`] when the shape fits neither dimension, or
/// fits both (the caller must then say which it means).
pub fn detect_mode(
    state: &NetworkState,
    append: &ExpressionMatrix,
) -> Result<UpdateMode, DurableError> {
    let (genes, samples) = (state.gene_count(), state.matrix.samples());
    let gene_shaped = append.samples() == samples;
    let sample_shaped = append.genes() == genes && append.gene_names() == state.matrix.gene_names();
    match (gene_shaped, sample_shaped) {
        (true, false) => Ok(UpdateMode::Genes),
        (false, true) => Ok(UpdateMode::Samples),
        (true, true) => Err(DurableError::Append {
            reason: format!(
                "append shape {}×{} fits both a gene append and a sample \
                 append of this state; pass the mode explicitly",
                append.genes(),
                append.samples()
            ),
        }),
        (false, false) => Err(DurableError::Append {
            reason: format!(
                "append shape {}×{} matches neither a gene append \
                 ({samples} samples required) nor a sample append ({genes} genes named \
                 as in the state required)",
                append.genes(),
                append.samples(),
            ),
        }),
    }
}

/// Deliberate defects for the family-6 conformance self-check: each
/// models a realistic incremental-engine bug that batch equivalence must
/// catch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum UpdateMutation {
    /// The scan silently drops the last frontier tile — a fencepost bug
    /// in frontier enumeration.
    SkippedFrontierTile,
    /// The pooled null is not refreshed with the newly scanned nulls, so
    /// the global threshold is computed from stale evidence.
    UnrefreshedNullMoments,
}

impl UpdateMutation {
    /// Every mutation, for exhaustive self-check loops.
    pub const ALL: [Self; 2] = [Self::SkippedFrontierTile, Self::UnrefreshedNullMoments];

    /// Stable identifier used in self-check reports.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::SkippedFrontierTile => "skipped-frontier-tile",
            Self::UnrefreshedNullMoments => "unrefreshed-null-moments",
        }
    }
}

/// Everything a tile scan needs, derived from the state + append before
/// any MI is evaluated.
struct PreparedUpdate {
    mode: UpdateMode,
    /// The defect a mutated update runs with, if any.
    mutation: Option<UpdateMutation>,
    appended: usize,
    /// The state's pooled null before the append, which the
    /// [`UpdateMutation::UnrefreshedNullMoments`] defect keeps.
    stale_pooled: PooledNull,
    /// The concatenated matrix's genes, prepared, and the tiles of the
    /// pairs the update scans: those with `j ≥` the old gene count for a
    /// gene append, every pair for a sample append.
    run: PreparedRun,
}

/// `matrix`'s genes followed by `append`'s, names included.
fn with_genes(matrix: ExpressionMatrix, append: &ExpressionMatrix) -> ExpressionMatrix {
    let mut names = matrix.gene_names().to_vec();
    names.extend_from_slice(append.gene_names());
    let (genes, samples) = (matrix.genes() + append.genes(), matrix.samples());
    let mut flat = matrix.into_flat();
    flat.extend_from_slice(append.as_flat());
    matrix_of(genes, samples, flat, names)
}

/// Each gene of `matrix` followed by its samples in `append`.
fn with_samples(matrix: &ExpressionMatrix, append: &ExpressionMatrix) -> ExpressionMatrix {
    let flat = (0..matrix.genes())
        .flat_map(|g| matrix.gene(g).iter().chain(append.gene(g)))
        .copied()
        .collect();
    let samples = matrix.samples() + append.samples();
    matrix_of(matrix.genes(), samples, flat, matrix.gene_names().to_vec())
}

fn matrix_of(genes: usize, samples: usize, flat: Vec<f32>, names: Vec<String>) -> ExpressionMatrix {
    let mut matrix = ExpressionMatrix::from_flat(genes, samples, flat, MissingPolicy::Error)
        .expect("two finite matrices concatenate into a finite one");
    matrix
        .set_gene_names(names)
        .expect("one name per concatenated gene");
    matrix
}

/// The updated state before its scan — the concatenated matrix, holding
/// the evidence the scan extends (the state's own for a gene append,
/// none for a sample append) — and the scan's inputs.
fn prepare_update(
    state: NetworkState,
    append: &ExpressionMatrix,
    mode: UpdateMode,
    mutation: Option<UpdateMutation>,
) -> Result<(NetworkState, PreparedUpdate), DurableError> {
    let (genes, samples) = (state.gene_count(), state.matrix.samples());
    let misfit = |reason: String| Err(DurableError::Append { reason });
    match mode {
        UpdateMode::Genes if append.samples() != samples => {
            return misfit(format!(
                "gene append has {} samples, state has {samples}",
                append.samples()
            ))
        }
        UpdateMode::Genes => {
            let names = state.matrix.gene_names();
            if let Some(dup) = append.gene_names().iter().find(|n| names.contains(n)) {
                return misfit(format!("appended gene `{dup}` already exists in the state"));
            }
        }
        UpdateMode::Samples if append.genes() != genes => {
            return misfit(format!(
                "sample append has {} genes, state has {genes}",
                append.genes()
            ))
        }
        UpdateMode::Samples if append.gene_names() != state.matrix.gene_names() => {
            return misfit(
                "sample append gene names differ from the state's \
                 (same genes, same order required)"
                    .into(),
            )
        }
        UpdateMode::Samples => {}
    }
    let config = state.config();
    let stale_pooled = state.scan.pooled;
    let (matrix, first_new, appended, base) = match mode {
        UpdateMode::Genes => (
            with_genes(state.matrix, append),
            genes,
            append.genes(),
            state.scan,
        ),
        UpdateMode::Samples => (
            with_samples(&state.matrix, append),
            0,
            append.samples(),
            NullScan::default(),
        ),
    };
    let run = PreparedRun::new(&matrix, &config, first_new);
    let next = NetworkState::new(&config, matrix, base);
    let pu = PreparedUpdate {
        mode,
        mutation,
        appended,
        stale_pooled,
        run,
    };
    Ok((next, pu))
}

/// Scan the update's tiles under `chunking` — from its resume point, or
/// from `next`'s base evidence as progress bound to `digest` — into
/// `next`. Stops with the progress when the chunking's callback says so.
fn run_update(
    mut next: NetworkState,
    pu: &PreparedUpdate,
    digest: u64,
    chunking: Chunking<'_>,
    rec: &Recorder,
) -> Result<(NetworkState, UpdateStats), Checkpoint> {
    let config = next.config();
    let mut scan = pu.run.scan(&config);
    if pu.mutation == Some(UpdateMutation::SkippedFrontierTile) {
        scan.tiles = &scan.tiles[..scan.tiles.len() - 1];
    }
    let mut progress = chunking.resume_from.unwrap_or(Checkpoint {
        digest,
        tiles_done: 0,
        scan: std::mem::take(&mut next.scan),
    });
    let resumed = scan.pairs_in(progress.tiles_done);
    let (chunk_tiles, on_checkpoint) = (chunking.chunk_tiles, chunking.on_checkpoint);
    if scan
        .run(&mut progress, chunk_tiles, rec, on_checkpoint)
        .is_none()
    {
        return Err(progress);
    }
    let scanned = scan.pairs_in(scan.tiles.len()) - resumed;
    next.scan = progress.scan;
    if pu.mutation == Some(UpdateMutation::UnrefreshedNullMoments) {
        next.scan.pooled = pu.stale_pooled;
    }
    // A mutated engine can drop the only frontier tile and leave no
    // pooled evidence to derive a threshold from; report NaN instead of
    // panicking so the conformance oracle can still diff the states.
    let threshold = if next.mi_threshold.is_some() || next.scan.pooled.count() >= 2 {
        next.threshold()
    } else {
        f64::NAN
    };
    let stats = UpdateStats {
        mode: pu.mode,
        appended: pu.appended,
        pairs_scanned: scanned,
        pairs_resumed: resumed,
        joints: next.scan.joints,
        threshold,
    };
    Ok((next, stats))
}

fn apply_update_with(
    state: &NetworkState,
    append: &ExpressionMatrix,
    mode: UpdateMode,
    mutation: Option<UpdateMutation>,
) -> Result<(NetworkState, UpdateStats), DurableError> {
    let (next, pu) = prepare_update(state.clone(), append, mode, mutation)?;
    let whole = Chunking {
        resume_from: None,
        chunk_tiles: usize::MAX,
        on_checkpoint: &mut |_| true,
    };
    Ok(run_update(next, &pu, 0, whole, &Recorder::disabled())
        .unwrap_or_else(|_| unreachable!("a scan that never stops finishes")))
}

/// Apply an append in memory, producing the updated state and what it
/// cost. The result is bit-identical to [`build_state`] over the
/// concatenated dataset — the property conformance family 6 enforces.
///
/// # Errors
/// [`DurableError::Append`] when the append does not fit the state.
pub fn apply_update(
    state: &NetworkState,
    append: &ExpressionMatrix,
    mode: UpdateMode,
) -> Result<(NetworkState, UpdateStats), DurableError> {
    apply_update_with(state, append, mode, None)
}

/// [`apply_update`] with one deliberate defect injected — the mutated
/// implementation the family-6 self-check must distinguish from the
/// faithful one.
///
/// # Errors
/// Same as [`apply_update`].
pub fn apply_update_mutated(
    state: &NetworkState,
    append: &ExpressionMatrix,
    mode: UpdateMode,
    mutation: UpdateMutation,
) -> Result<(NetworkState, UpdateStats), DurableError> {
    apply_update_with(state, append, mode, Some(mutation))
}

/// Digest binding an update invocation to (state snapshot, appended
/// data, mode, tiling) — the progress file's compatibility key. The
/// tiling is the tile edge and the first new gene: the progress counts
/// tiles of the update's list, and another edge names other pairs. The
/// chunk size is deliberately excluded: resuming with a different
/// `--checkpoint-every` is legitimate.
#[must_use]
pub fn update_digest(state: &NetworkState, append: &ExpressionMatrix, mode: UpdateMode) -> u64 {
    let (genes, samples) = (state.gene_count(), state.matrix.samples());
    let (genes, samples) = match mode {
        UpdateMode::Genes => (genes + append.genes(), samples),
        UpdateMode::Samples => (genes, samples + append.samples()),
    };
    let tile = state.config().resolved_tile_size(genes, samples);
    update_digest_at(state, append, mode, tile)
}

/// [`update_digest`] of the update's frontier tiled `tile` wide.
fn update_digest_at(
    state: &NetworkState,
    append: &ExpressionMatrix,
    mode: UpdateMode,
    tile: usize,
) -> u64 {
    let first_new = match mode {
        UpdateMode::Genes => state.gene_count(),
        UpdateMode::Samples => 0,
    };
    let mut bytes = Vec::with_capacity(48 + append.genes() * (append.samples() * 4 + 8));
    bytes.extend_from_slice(&state.snapshot_digest().to_le_bytes());
    bytes.push(mode.tag());
    bytes.extend_from_slice(&(tile as u64).to_le_bytes());
    bytes.extend_from_slice(&(first_new as u64).to_le_bytes());
    bytes.extend_from_slice(&(append.genes() as u64).to_le_bytes());
    bytes.extend_from_slice(&(append.samples() as u64).to_le_bytes());
    for g in 0..append.genes() {
        let name = &append.gene_names()[g];
        bytes.extend_from_slice(&(name.len() as u64).to_le_bytes());
        bytes.extend_from_slice(name.as_bytes());
        for v in append.gene(g) {
            bytes.extend_from_slice(&v.to_bits().to_le_bytes());
        }
    }
    crate::durable::fnv1a64(&bytes)
}

/// Durable `gnet update`: load the bundle from `store`, apply the append
/// with progress saved to the store's update progress file
/// ([`StateStore::progress`]) every `chunk_tiles` scanned tiles, the
/// last chunk included, save the updated bundle, and clear the progress
/// file. It runs on the same driver as [`crate::infer_network_durable`].
///
/// With `resume`, a progress file matching this exact update (state +
/// append + mode, via [`update_digest`]) restores the scanned tile prefix
/// bit-exactly; a progress file for a *different* update is rejected as
/// [`DurableError::Stale`]. `chunk_tiles == 0` writes no progress file.
///
/// # Errors
/// State/progress I-O and decode errors; [`DurableError::Append`] on
/// shape mismatch; [`DurableError::Interrupted`] when an injected
/// [`gnet_fault::Fault::UpdateCrash`] kills the run at a progress
/// boundary (the boundary's progress file is already durable — re-run
/// with `resume`).
pub fn update_durable(
    store: &StateStore,
    append: &ExpressionMatrix,
    mode: Option<UpdateMode>,
    chunk_tiles: usize,
    resume: bool,
    rec: &Recorder,
) -> Result<(NetworkState, UpdateStats), DurableError> {
    let state = store.load()?;
    let mode = match mode {
        Some(m) => m,
        None => detect_mode(&state, append)?,
    };
    let digest = update_digest(&state, append, mode);
    let (next, pu) = prepare_update(state, append, mode, None)?;
    let progress = store.progress();
    let (next, stats) = progress.scan_durably(
        digest,
        pu.run.space.tiles(),
        chunk_tiles,
        resume,
        rec,
        |chunking| run_update(next, &pu, digest, chunking, rec),
    )?;
    store.save(&next)?;
    progress.clear()?;
    rec.event(
        "update.applied",
        &[
            ("mode", Value::from(mode.name())),
            ("pairs_scanned", Value::from(stats.pairs_scanned)),
            ("appended", Value::from(stats.appended)),
        ],
    );
    Ok((next, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::infer_network;
    use gnet_expr::synth::{coupled_pairs, Coupling};
    use gnet_expr::MissingPolicy;
    use gnet_fault::names;
    use gnet_fault::{FaultInjector, FaultPlan};
    use gnet_parallel::SchedulerPolicy;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn tmpdir(tag: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        // ordering: test-local unique-id counter; no synchronization needed.
        let n = N.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("gnet-incr-{tag}-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir must be creatable");
        dir
    }

    fn cfg() -> InferenceConfig {
        InferenceConfig {
            permutations: 6,
            threads: Some(2),
            ..InferenceConfig::default()
        }
    }

    /// 12 genes: the cache rule tiles them 4 wide, so an append of the
    /// last 4 onto the first 8 has three frontier tiles (16, 16 and 6
    /// pairs).
    fn multi_tile_append(seed: u64) -> (ExpressionMatrix, NetworkState, ExpressionMatrix) {
        let (full, _) = coupled_pairs(6, 300, Coupling::Linear(0.9), seed);
        let old = full.select_genes(&(0..8).collect::<Vec<_>>());
        let append = full.select_genes(&(8..12).collect::<Vec<_>>());
        let state = build_state(&old, &cfg());
        (full, state, append)
    }

    /// Columns `from..` of `matrix` as their own matrix, names preserved.
    fn sample_slice(matrix: &ExpressionMatrix, from: usize) -> ExpressionMatrix {
        let mut flat = Vec::new();
        for g in 0..matrix.genes() {
            flat.extend_from_slice(&matrix.gene(g)[from..]);
        }
        let mut m = ExpressionMatrix::from_flat(
            matrix.genes(),
            matrix.samples() - from,
            flat,
            MissingPolicy::Error,
        )
        .expect("slice is valid");
        m.set_gene_names(matrix.gene_names().to_vec())
            .expect("names fit");
        m
    }

    #[test]
    fn gene_append_is_bitwise_equal_to_batch_and_scans_only_the_frontier() {
        let (full, _) = coupled_pairs(3, 70, Coupling::Linear(0.9), 13);
        let old = full.select_genes(&[0, 1, 2, 3]);
        let append = full.select_genes(&[4, 5]);

        let state = build_state(&old, &cfg());
        let (updated, stats) =
            apply_update(&state, &append, UpdateMode::Genes).expect("gene append applies");
        assert_eq!(updated, build_state(&full, &cfg()));
        // g·(N−g) + g·(g−1)/2 with g = 2, N = 6.
        assert_eq!(stats.pairs_scanned, 2 * 4 + 1);
        assert_eq!(stats.appended, 2);
        assert_eq!(stats.threshold.to_bits(), updated.threshold().to_bits());
    }

    #[test]
    fn sample_append_is_bitwise_equal_to_batch() {
        let (full, _) = coupled_pairs(2, 90, Coupling::Linear(0.9), 29);
        let old = full.truncate_samples(60);
        let append = sample_slice(&full, 60);

        let state = build_state(&old, &cfg());
        let (updated, stats) =
            apply_update(&state, &append, UpdateMode::Samples).expect("sample append applies");
        assert_eq!(updated, build_state(&full, &cfg()));
        assert_eq!(stats.pairs_scanned, 6); // C(4,2): sample appends rescan
        assert_eq!(stats.appended, 30);
    }

    #[test]
    fn updated_network_matches_tiled_parallel_inference() {
        let (full, _) = coupled_pairs(3, 80, Coupling::Linear(0.9), 7);
        let old = full.select_genes(&[0, 1, 2, 3]);
        let append = full.select_genes(&[4, 5]);
        let state = build_state(&old, &cfg());
        let (updated, _) =
            apply_update(&state, &append, UpdateMode::Genes).expect("gene append applies");
        let net = updated.network();
        for policy in SchedulerPolicy::ALL {
            let batch = infer_network(
                &full,
                &InferenceConfig {
                    scheduler: policy,
                    threads: Some(2),
                    tile_size: Some(3),
                    ..cfg()
                },
            );
            assert_eq!(net.edge_count(), batch.network.edge_count(), "{policy:?}");
            for (a, b) in net.edges().iter().zip(batch.network.edges()) {
                assert_eq!(a.key(), b.key(), "{policy:?}");
                assert_eq!(a.weight.to_bits(), b.weight.to_bits(), "{policy:?}");
            }
            assert_eq!(
                updated.threshold().to_bits(),
                batch.stats.threshold.to_bits(),
                "{policy:?}"
            );
        }
    }

    #[test]
    fn build_state_is_bitwise_at_any_thread_count_policy_and_tiling() {
        let (matrix, _) = coupled_pairs(4, 120, Coupling::Linear(0.85), 37);
        let with = |threads, scheduler, tile_size| InferenceConfig {
            threads: Some(threads),
            scheduler,
            tile_size,
            ..cfg()
        };
        let reference = build_state(&matrix, &with(1, SchedulerPolicy::StaticBlock, None));
        let batch = infer_network(&matrix, &with(2, SchedulerPolicy::DynamicCounter, Some(3)));
        assert_eq!(
            reference.threshold().to_bits(),
            batch.stats.threshold.to_bits()
        );
        assert!(reference.scan.candidates.is_sorted_by_key(|c| (c.0, c.1)));
        for threads in [1, 2, 3] {
            for policy in SchedulerPolicy::ALL {
                for tile_size in [Some(2), None] {
                    let state = build_state(&matrix, &with(threads, policy, tile_size));
                    assert_eq!(
                        state, reference,
                        "{threads} threads, {policy:?}, {tile_size:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn mode_detection_and_shape_rejection() {
        let (full, _) = coupled_pairs(2, 50, Coupling::Linear(0.9), 3);
        let old = full.select_genes(&[0, 1, 2]);
        let state = build_state(&old, &cfg());

        let gene_append = full.select_genes(&[3]);
        assert_eq!(
            detect_mode(&state, &gene_append).expect("gene shape"),
            UpdateMode::Genes
        );
        let sample_append = sample_slice(&old, 30);
        assert_eq!(
            detect_mode(&state, &sample_append).expect("sample shape"),
            UpdateMode::Samples
        );

        let misfit = coupled_pairs(2, 17, Coupling::Linear(0.5), 1).0;
        assert!(matches!(
            detect_mode(&state, &misfit),
            Err(DurableError::Append { .. })
        ));
        // A duplicate gene name cannot be appended as a new gene.
        assert!(matches!(
            apply_update(&state, &old, UpdateMode::Genes),
            Err(DurableError::Append { .. })
        ));
        // Same shape, different names: rejected as a sample append.
        let mut renamed = sample_append.clone();
        renamed
            .set_gene_names(vec!["x".into(), "y".into(), "z".into()])
            .expect("three names");
        assert!(matches!(
            apply_update(&state, &renamed, UpdateMode::Samples),
            Err(DurableError::Append { .. })
        ));
    }

    #[test]
    fn every_mutation_breaks_batch_equivalence() {
        let (full, _) = coupled_pairs(3, 70, Coupling::Linear(0.9), 17);
        let old_g = full.select_genes(&[0, 1, 2, 3]);
        let append_g = full.select_genes(&[4, 5]);
        let state_g = build_state(&old_g, &cfg());
        let old_s = full.truncate_samples(40);
        let append_s = sample_slice(&full, 40);
        let state_s = build_state(&old_s, &cfg());
        let batch = build_state(&full, &cfg());

        for m in UpdateMutation::ALL {
            let caught = [
                (state_g.clone(), &append_g, UpdateMode::Genes),
                (state_s.clone(), &append_s, UpdateMode::Samples),
            ]
            .into_iter()
            .any(|(state, append, mode)| {
                let (mutated, _) =
                    apply_update_mutated(&state, append, mode, m).expect("mutated update runs");
                mutated != batch
            });
            assert!(caught, "mutation {} went undetected", m.name());
        }
    }

    #[test]
    fn durable_update_survives_a_boundary_kill_bit_identically() {
        let (_, state, append) = multi_tile_append(23);
        let dir = tmpdir("kill");

        // Uninterrupted reference.
        let (reference, _) = apply_update(&state, &append, UpdateMode::Genes).expect("reference");

        let plan = FaultPlan::parse("seed=1;update-crash(boundary=2)").expect("plan parses");
        let rec = Recorder::enabled();
        let store =
            StateStore::with_faults(&dir, FaultInjector::from_plan_traced(&plan, &rec), &rec);
        store.save(&state).expect("seed state saved");
        let err =
            update_durable(&store, &append, None, 1, false, &rec).expect_err("injected kill fires");
        // Two of the three frontier tiles (16 + 16 pairs) were persisted.
        assert!(
            matches!(
                err,
                DurableError::Interrupted {
                    tiles_done: 2,
                    pairs_done: 32
                }
            ),
            "{err}"
        );
        assert_eq!(rec.event_count("checkpoint.saved"), 2);

        // Resume in a fresh process: disarmed injector, same directory.
        let rec2 = Recorder::enabled();
        let store2 = StateStore::with_faults(&dir, FaultInjector::none(), &rec2);
        let (resumed, stats) =
            update_durable(&store2, &append, None, 1, true, &rec2).expect("resume completes");
        assert_eq!(resumed, reference);
        assert_eq!(stats.pairs_resumed, 32);
        assert_eq!(stats.pairs_scanned, 38 - 32);
        assert_eq!(rec2.counter(names::CNT_RESUMES), Some(1));
        // The last tile's progress is saved too, before the bundle.
        assert_eq!(rec2.event_count("checkpoint.saved"), 1);
        // The landed bundle reloads to the same bits, and progress is gone.
        assert_eq!(store2.load().expect("bundle reloads"), reference);
        assert!(matches!(
            store2.progress().load(),
            Err(DurableError::Missing { .. })
        ));
    }

    #[test]
    fn an_update_progress_of_another_tile_list_is_refused() {
        let (_, state, append) = multi_tile_append(41);
        let store = StateStore::new(tmpdir("tiling"));
        store.save(&state).expect("seed state saved");
        let tile = state.config().resolved_tile_size(12, 300);
        assert_eq!(tile, 4);
        // One tile of a 6-wide frontier list: 24 pairs, not the 16 of
        // the 4-wide list's first tile.
        let progress = store.progress();
        let other = update_digest_at(&state, &append, UpdateMode::Genes, 6);
        let mut scan = state.scan.clone();
        scan.joints += 24;
        progress
            .save(&Checkpoint {
                digest: other,
                tiles_done: 1,
                scan,
            })
            .expect("progress saves");
        let err = update_durable(&store, &append, None, 1, true, &Recorder::disabled())
            .expect_err("a prefix of another tile list must not resume");
        assert!(matches!(err, DurableError::Stale { .. }), "{err}");
        assert!(err
            .to_string()
            .contains(&progress.path().display().to_string()));
        assert_eq!(
            update_digest(&state, &append, UpdateMode::Genes),
            update_digest_at(&state, &append, UpdateMode::Genes, tile)
        );
    }

    #[test]
    fn resume_rejects_progress_from_a_different_update() {
        let (full, state, append) = multi_tile_append(31);
        let dir = tmpdir("stale");

        let plan = FaultPlan::parse("seed=1;update-crash(boundary=1)").expect("plan parses");
        let store =
            StateStore::with_faults(&dir, FaultInjector::from_plan(&plan), &Recorder::disabled());
        store.save(&state).expect("seed state saved");
        update_durable(&store, &append, None, 1, false, &Recorder::disabled())
            .expect_err("injected kill fires");

        // Resuming with *different* appended data must refuse the file.
        let other = full.select_genes(&[9, 8, 10, 11]);
        let store2 = StateStore::new(&dir);
        assert!(matches!(
            update_durable(&store2, &other, None, 1, true, &Recorder::disabled()),
            Err(DurableError::Stale { .. })
        ));
        // Restarting without resume ignores it and lands the update.
        let (fresh, stats) =
            update_durable(&store2, &append, None, 1, false, &Recorder::disabled())
                .expect("fresh run completes");
        assert_eq!(stats.pairs_resumed, 0);
        let (reference, _) = apply_update(&state, &append, UpdateMode::Genes).expect("reference");
        assert_eq!(fresh, reference);
    }

    /// A saved 4-gene state, the 2 genes appended to it, and its store.
    fn saved_small_append(
        tag: &str,
        rec: &Recorder,
    ) -> (NetworkState, ExpressionMatrix, StateStore) {
        let (full, _) = coupled_pairs(3, 60, Coupling::Linear(0.9), 5);
        let state = build_state(&full.select_genes(&[0, 1, 2, 3]), &cfg());
        let store = StateStore::with_faults(tmpdir(tag), FaultInjector::none(), rec);
        store.save(&state).expect("state saves");
        (state, full.select_genes(&[4, 5]), store)
    }

    #[test]
    fn a_corrupt_progress_file_is_blamed_not_the_bundle() {
        let (state, append, store) = saved_small_append("corrupt-progress", &Recorder::disabled());
        let progress = store.progress();
        progress
            .save(&Checkpoint {
                digest: update_digest(&state, &append, UpdateMode::Genes),
                tiles_done: 0,
                scan: state.scan.clone(),
            })
            .expect("progress saves");
        let mut bytes = std::fs::read(progress.path()).expect("file readable");
        bytes[40] ^= 0xFF;
        std::fs::write(progress.path(), &bytes).expect("rewrite");
        let err = update_durable(&store, &append, None, 1, true, &Recorder::disabled())
            .expect_err("a damaged progress file must not resume");
        let text = err.to_string();
        assert!(
            text.contains(&progress.path().display().to_string()),
            "{text}"
        );
        assert!(!text.contains("--save-state"), "{text}");
        assert!(text.contains("without --resume"), "{text}");
    }

    #[test]
    fn an_unchunked_update_saves_only_the_bundle() {
        let rec = Recorder::enabled();
        let (_, append, store) = saved_small_append("unchunked", &rec);
        update_durable(&store, &append, None, 0, false, &rec).expect("update lands");
        let mut ndjson = Vec::new();
        rec.write_ndjson(&mut ndjson).expect("vec sink cannot fail");
        let ndjson = String::from_utf8(ndjson).expect("utf-8");
        assert_eq!(rec.event_count("checkpoint.saved"), 0);
        assert!(!ndjson.contains("checkpoint.save"), "{ndjson}");
        let dir = store.path().parent().expect("a directory").to_path_buf();
        let files: Vec<String> = std::fs::read_dir(dir)
            .expect("directory readable")
            .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(files, ["gnet.state"]);
    }

    #[test]
    fn sample_append_handles_ties_and_duplicates() {
        // Heavy ties across the append boundary: the appended samples
        // tie old ones, so their ranks depend on the sort's index
        // tie-break; equality with the batch rebuild is the oracle.
        let data_old = vec![
            1.0f32, 1.0, 2.0, 2.0, //
            5.0, 4.0, 3.0, 2.0, //
        ];
        let data_new = vec![
            2.0f32, 1.0, 1.0, //
            2.0, 6.0, 2.0, //
        ];
        let mut full_flat = Vec::new();
        full_flat.extend_from_slice(&data_old[..4]);
        full_flat.extend_from_slice(&data_new[..3]);
        full_flat.extend_from_slice(&data_old[4..]);
        full_flat.extend_from_slice(&data_new[3..]);
        let full =
            ExpressionMatrix::from_flat(2, 7, full_flat, MissingPolicy::Error).expect("full");
        let old = ExpressionMatrix::from_flat(2, 4, data_old, MissingPolicy::Error).expect("old");
        let append =
            ExpressionMatrix::from_flat(2, 3, data_new, MissingPolicy::Error).expect("append");

        let config = InferenceConfig {
            permutations: 4,
            ..InferenceConfig::default()
        };
        let state = build_state(&old, &config);
        let (updated, _) =
            apply_update(&state, &append, UpdateMode::Samples).expect("sample append applies");
        assert_eq!(updated, build_state(&full, &config));
    }
}
