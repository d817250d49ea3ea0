//! Incremental network updates over a persisted [`NetworkState`].
//!
//! A whole-genome compendium grows two ways — new genes (probes added to
//! the platform) and new samples (new experiments) — and a from-scratch
//! rebuild repeats `n(n−1)/2` pair evaluations to learn what one append
//! changed. This module recomputes only what the append invalidates:
//!
//! * **Gene append** keeps every stored per-gene artifact and every
//!   already-evaluated pair, and scans only the *frontier* — pairs with at
//!   least one new endpoint: `g·(N−g) + g·(g−1)/2` pairs for `g` appended
//!   genes out of `N` total, versus `N(N−1)/2` for a rebuild. The frontier
//!   is tiled by [`TileSpace::frontier`] and scanned by the same tile
//!   engine as a batch run ([`crate::scan`]).
//! * **Sample append** merge-updates each gene's stored `(value, index)`
//!   sort order with the newly sorted appended block (two-pointer merge,
//!   no re-sort of the old samples), re-derives ranks and B-spline
//!   weights from the merged order, then rescans every tile (every pair's
//!   MI depends on every sample, so the pair scan cannot shrink — the
//!   preprocessing can).
//!
//! Both paths are pinned by conformance oracle family 6 to be
//! **bit-identical** to a batch [`build_state`] over the concatenated
//! dataset. Nothing about that depends on scan order: per-pair MI is the
//! same in any tile, the pooled null sums exactly, and candidates are
//! kept sorted, so the resulting [`NetworkState`] — candidates, pooled
//! null, threshold, edges — is `assert_eq!`-equal at any thread count.
//!
//! [`update_durable`] adds crash durability through the same driver as
//! a checkpointed `gnet infer` ([`crate::durable`]): progress is saved
//! every `chunk_tiles` tiles as a tile prefix in the state directory's
//! update progress file, and a kill at a progress boundary
//! ([`gnet_fault::Fault::UpdateCrash`]) resumes bit-identically.

use crate::checkpoint::Checkpoint;
use crate::config::{InferenceConfig, NullStrategy};
use crate::durable::DurableError;
use crate::scan::{Chunking, NullScan, TileScan};
use crate::state::{GeneState, NetworkState, StateStore};
use gnet_bspline::BsplineBasis;
use gnet_expr::normalize::{rank_from_order, rank_sort_order};
use gnet_expr::ExpressionMatrix;
use gnet_mi::PreparedGene;
use gnet_parallel::TileSpace;
use gnet_permute::PermutationSet;
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

fn gene_state_for(profile: Vec<f32>, basis: &BsplineBasis) -> GeneState {
    let order = rank_sort_order(&profile);
    let ranks = rank_from_order(&profile, &order);
    let PreparedGene { sparse, h_marginal } = PreparedGene::from_normalized(&ranks, basis);
    GeneState {
        profile,
        order,
        sparse,
        h_marginal,
    }
}

fn prepared_of(g: &GeneState) -> PreparedGene {
    PreparedGene {
        sparse: g.sparse.clone(),
        h_marginal: g.h_marginal,
    }
}

/// The tiles of the pairs `(i, j)` with `j ≥ first_new` over `genes`,
/// tiled by the configuration's cache rule.
fn tiles_for(config: &InferenceConfig, genes: &[PreparedGene], first_new: usize) -> TileSpace {
    let tile_size = config.resolved_tile_size(genes.len(), genes[0].heap_bytes());
    TileSpace::frontier(genes.len(), first_new, tile_size)
}

/// Build an updatable [`NetworkState`] from scratch — the batch side of
/// the batch-equivalence contract, and what `gnet infer --save-state`
/// runs. It scans the tiles on `config.threads` under `config.scheduler`
/// like [`crate::infer_network`], and its threshold and edges are
/// bit-identical to that run's.
///
/// # Panics
/// Panics on invalid configuration, fewer than two genes, or a
/// non-[`NullStrategy::ExactFull`] null strategy (early exit discards the
/// pooled null an updatable state must keep).
#[must_use]
pub fn build_state(matrix: &ExpressionMatrix, config: &InferenceConfig) -> NetworkState {
    config.validate();
    assert!(
        matrix.genes() >= 2,
        "need at least two genes to build a network state"
    );
    assert!(
        matches!(config.null_strategy, NullStrategy::ExactFull),
        "updatable state requires the exact-full null strategy"
    );
    let basis = BsplineBasis::new(config.spline_order, config.bins);
    let genes: Vec<GeneState> = (0..matrix.genes())
        .map(|g| gene_state_for(matrix.gene(g).to_vec(), &basis))
        .collect();
    let prepared: Vec<PreparedGene> = genes.iter().map(prepared_of).collect();
    let perms = PermutationSet::generate(matrix.samples(), config.permutations, config.seed);
    let space = tiles_for(config, &prepared, 0);
    let (scan, _) = TileScan {
        tiles: space.tiles(),
        prepared: &prepared,
        perms: &perms,
        basis: &basis,
        config,
    }
    .run_all(&Recorder::disabled());
    NetworkState {
        bins: config.bins,
        spline_order: config.spline_order,
        permutations: config.permutations,
        seed: config.seed,
        alpha: config.alpha,
        mi_threshold: config.mi_threshold,
        kernel: config.kernel,
        names: matrix.gene_names().to_vec(),
        samples: matrix.samples(),
        genes,
        scan,
    }
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
    let gene_shaped = append.samples() == state.samples;
    let sample_shaped =
        append.genes() == state.gene_count() && append.gene_names() == &state.names[..];
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
                 ({} samples required) nor a sample append ({} genes named \
                 as in the state required)",
                append.genes(),
                append.samples(),
                state.samples,
                state.gene_count()
            ),
        }),
    }
}

/// Deliberate defects for the family-6 conformance self-check: each
/// models a realistic incremental-engine bug that batch equivalence must
/// catch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum UpdateMutation {
    /// Sample append concatenates the old and new sort orders instead of
    /// merging them — the cached ranks go stale across the append
    /// boundary.
    StaleRankCache,
    /// The scan silently drops the last frontier tile — a fencepost bug
    /// in frontier enumeration.
    SkippedFrontierTile,
    /// The pooled null is not refreshed with the newly scanned nulls, so
    /// the global threshold is computed from stale evidence.
    UnrefreshedNullMoments,
}

impl UpdateMutation {
    /// Every mutation, for exhaustive self-check loops.
    pub const ALL: [Self; 3] = [
        Self::StaleRankCache,
        Self::SkippedFrontierTile,
        Self::UnrefreshedNullMoments,
    ];

    /// Stable identifier used in self-check reports.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::StaleRankCache => "stale-rank-cache",
            Self::SkippedFrontierTile => "skipped-frontier-tile",
            Self::UnrefreshedNullMoments => "unrefreshed-null-moments",
        }
    }
}

#[derive(Clone, Copy, Default)]
struct UpdateFlaws {
    stale_rank_cache: bool,
    skip_last_tile: bool,
    keep_stale_pooled: bool,
}

impl UpdateFlaws {
    fn from_mutation(m: UpdateMutation) -> Self {
        match m {
            UpdateMutation::StaleRankCache => Self {
                stale_rank_cache: true,
                ..Self::default()
            },
            UpdateMutation::SkippedFrontierTile => Self {
                skip_last_tile: true,
                ..Self::default()
            },
            UpdateMutation::UnrefreshedNullMoments => Self {
                keep_stale_pooled: true,
                ..Self::default()
            },
        }
    }
}

/// Everything a tile scan needs, derived from the state + append before
/// any MI is evaluated.
struct PreparedUpdate {
    mode: UpdateMode,
    flaws: UpdateFlaws,
    names: Vec<String>,
    samples: usize,
    genes: Vec<GeneState>,
    prepared: Vec<PreparedGene>,
    /// First gene whose pairs are rescanned: the old gene count for a
    /// gene append, 0 for a sample append.
    first_new: usize,
    appended: usize,
    /// Evidence the scan extends: the state's own for a gene append,
    /// nothing for a sample append.
    base: NullScan,
    basis: BsplineBasis,
    perms: PermutationSet,
    config: InferenceConfig,
}

impl PreparedUpdate {
    /// The tiles of the pairs the update scans: those with `j ≥
    /// first_new`, tiled by the state's cache rule.
    fn space(&self) -> TileSpace {
        tiles_for(&self.config, &self.prepared, self.first_new)
    }
}

/// Merge a gene's stored sort order with the sorted order of an appended
/// sample block. Old merged indices are `0..m_old` and new ones
/// `m_old..m_total`, so taking the old element on ties reproduces the
/// `(value, index)` comparator of a full re-sort exactly.
fn merge_orders(old: &GeneState, new_values: &[f32], merged_profile: &[f32]) -> Vec<u32> {
    let m_old = old.profile.len();
    let new_order = rank_sort_order(new_values);
    let mut merged = Vec::with_capacity(merged_profile.len());
    let (mut a, mut b) = (0, 0);
    while a < old.order.len() && b < new_order.len() {
        let old_idx = old.order[a];
        let new_idx = new_order[b] + m_old as u32;
        let old_v = merged_profile[old_idx as usize];
        let new_v = merged_profile[new_idx as usize];
        // Expression values are finite by matrix construction, so the
        // comparator's NaN fallback never fires here.
        if old_v
            .partial_cmp(&new_v)
            .unwrap_or(std::cmp::Ordering::Equal)
            != std::cmp::Ordering::Greater
        {
            merged.push(old_idx);
            a += 1;
        } else {
            merged.push(new_idx);
            b += 1;
        }
    }
    merged.extend_from_slice(&old.order[a..]);
    merged.extend(new_order[b..].iter().map(|&i| i + m_old as u32));
    merged
}

fn prepare_update(
    state: &NetworkState,
    append: &ExpressionMatrix,
    mode: UpdateMode,
    flaws: UpdateFlaws,
) -> Result<PreparedUpdate, DurableError> {
    let basis = BsplineBasis::new(state.spline_order, state.bins);
    let (names, samples, genes, first_new, appended, base) = match mode {
        UpdateMode::Genes => {
            if append.samples() != state.samples {
                return Err(DurableError::Append {
                    reason: format!(
                        "gene append has {} samples, state has {}",
                        append.samples(),
                        state.samples
                    ),
                });
            }
            if let Some(dup) = append.gene_names().iter().find(|n| state.names.contains(n)) {
                return Err(DurableError::Append {
                    reason: format!("appended gene `{dup}` already exists in the state"),
                });
            }
            let mut names = state.names.clone();
            names.extend(append.gene_names().iter().cloned());
            let mut genes = state.genes.clone();
            genes.extend(
                (0..append.genes()).map(|g| gene_state_for(append.gene(g).to_vec(), &basis)),
            );
            let base = state.scan.clone();
            (
                names,
                state.samples,
                genes,
                state.gene_count(),
                append.genes(),
                base,
            )
        }
        UpdateMode::Samples => {
            if append.genes() != state.gene_count() {
                return Err(DurableError::Append {
                    reason: format!(
                        "sample append has {} genes, state has {}",
                        append.genes(),
                        state.gene_count()
                    ),
                });
            }
            if append.gene_names() != &state.names[..] {
                return Err(DurableError::Append {
                    reason: "sample append gene names differ from the state's \
                             (same genes, same order required)"
                        .into(),
                });
            }
            let m_old = state.samples;
            let genes: Vec<GeneState> = state
                .genes
                .iter()
                .enumerate()
                .map(|(g, old)| {
                    let new_values = append.gene(g);
                    let mut profile = old.profile.clone();
                    profile.extend_from_slice(new_values);
                    let order = if flaws.stale_rank_cache {
                        // Mutation: trust the cached order layout and just
                        // append the new block's order after it.
                        let mut o = old.order.clone();
                        o.extend(
                            rank_sort_order(new_values)
                                .iter()
                                .map(|&i| i + m_old as u32),
                        );
                        o
                    } else {
                        merge_orders(old, new_values, &profile)
                    };
                    let ranks = rank_from_order(&profile, &order);
                    let PreparedGene { sparse, h_marginal } =
                        PreparedGene::from_normalized(&ranks, &basis);
                    GeneState {
                        profile,
                        order,
                        sparse,
                        h_marginal,
                    }
                })
                .collect();
            let samples = m_old + append.samples();
            let names = state.names.clone();
            (
                names,
                samples,
                genes,
                0,
                append.samples(),
                NullScan::default(),
            )
        }
    };
    Ok(PreparedUpdate {
        mode,
        flaws,
        prepared: genes.iter().map(prepared_of).collect(),
        perms: PermutationSet::generate(samples, state.permutations, state.seed),
        config: state.config(),
        names,
        samples,
        genes,
        first_new,
        appended,
        base,
        basis,
    })
}

/// Scan the update's tiles under `chunking` — from its resume point, or
/// from the update's base evidence as progress bound to `digest` — and
/// assemble the updated state. `space` is [`PreparedUpdate::space`].
/// Stops with the progress when the chunking's callback says so.
fn run_update(
    state: &NetworkState,
    mut pu: PreparedUpdate,
    space: &TileSpace,
    digest: u64,
    chunking: Chunking<'_>,
    rec: &Recorder,
) -> Result<(NetworkState, UpdateStats), Checkpoint> {
    let mut tiles = space.tiles();
    if pu.flaws.skip_last_tile {
        tiles = &tiles[..tiles.len() - 1];
    }
    let mut progress = chunking.resume_from.unwrap_or(Checkpoint {
        digest,
        tiles_done: 0,
        scan: std::mem::take(&mut pu.base),
    });
    let scan = TileScan {
        tiles,
        prepared: &pu.prepared,
        perms: &pu.perms,
        basis: &pu.basis,
        config: &pu.config,
    };
    let resumed = scan.pairs_in(progress.tiles_done);
    let (chunk_tiles, on_checkpoint) = (chunking.chunk_tiles, chunking.on_checkpoint);
    if scan
        .run(&mut progress, chunk_tiles, rec, on_checkpoint)
        .is_none()
    {
        return Err(progress);
    }
    let scanned = scan.pairs_in(tiles.len()) - resumed;

    let next = NetworkState {
        bins: state.bins,
        spline_order: state.spline_order,
        permutations: state.permutations,
        seed: state.seed,
        alpha: state.alpha,
        mi_threshold: state.mi_threshold,
        kernel: state.kernel,
        names: pu.names,
        samples: pu.samples,
        genes: pu.genes,
        scan: if pu.flaws.keep_stale_pooled {
            NullScan {
                pooled: state.scan.pooled,
                ..progress.scan
            }
        } else {
            progress.scan
        },
    };
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

fn apply_update_flawed(
    state: &NetworkState,
    append: &ExpressionMatrix,
    mode: UpdateMode,
    flaws: UpdateFlaws,
) -> Result<(NetworkState, UpdateStats), DurableError> {
    let pu = prepare_update(state, append, mode, flaws)?;
    let space = pu.space();
    let whole = Chunking {
        resume_from: None,
        chunk_tiles: usize::MAX,
        on_checkpoint: &mut |_| true,
    };
    Ok(
        run_update(state, pu, &space, 0, whole, &Recorder::disabled())
            .unwrap_or_else(|_| unreachable!("a scan that never stops finishes")),
    )
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
    apply_update_flawed(state, append, mode, UpdateFlaws::default())
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
    apply_update_flawed(state, append, mode, UpdateFlaws::from_mutation(mutation))
}

/// Digest binding an update invocation to (state snapshot, appended
/// data, mode) — the progress file's compatibility key. The chunk size is
/// deliberately excluded: resuming with a different `--checkpoint-every`
/// is legitimate.
#[must_use]
pub fn update_digest(state: &NetworkState, append: &ExpressionMatrix, mode: UpdateMode) -> u64 {
    let mut bytes = Vec::with_capacity(32 + append.genes() * (append.samples() * 4 + 8));
    bytes.extend_from_slice(&state.snapshot_digest().to_le_bytes());
    bytes.push(mode.tag());
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
    let pu = prepare_update(&state, append, mode, UpdateFlaws::default())?;
    let space = pu.space();
    let progress = store.progress();
    let (next, stats) = progress.scan_durably(
        digest,
        space.tiles(),
        chunk_tiles,
        resume,
        rec,
        |chunking| run_update(&state, pu, &space, digest, chunking, rec),
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

    /// 12 genes at m = 3,000: the cache rule tiles them 6 wide, so an
    /// append of the last 4 onto the first 8 has three frontier tiles
    /// (24, 8 and 6 pairs).
    fn multi_tile_append(seed: u64) -> (ExpressionMatrix, NetworkState, ExpressionMatrix) {
        let (full, _) = coupled_pairs(6, 3_000, Coupling::Linear(0.9), seed);
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
        // Two of the three frontier tiles (24 + 8 pairs) were persisted.
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
    fn sample_append_merge_handles_ties_and_duplicates() {
        // Constant genes and heavy ties exercise the merge comparator's
        // tie arm; equality with the batch rebuild is the oracle.
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
