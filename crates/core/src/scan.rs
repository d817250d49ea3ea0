//! The null-test tile-scan engine.
//!
//! Every scan that tests pairs against their permutation nulls — the
//! in-memory and checkpointed runs, state builds, incremental updates,
//! the ring's block pairs, early exit and early exit's threshold
//! pre-pass — runs a tile list through [`scan_tiles`], which schedules
//! the tiles on the executor, evaluates each with [`scan_tile`] and
//! merges the workers' evidence. [`scan_tile`] is the one place a null
//! test lives: it asks each planned row for MI one pairing at a time and
//! runs the exact test or early exit over the answers. Shared-memory
//! scans go through [`TileScan::run`], which calls [`scan_tiles`] once
//! per chunk of tiles and records progress as a tile prefix; a ring rank
//! calls it once per block pair; the pre-pass scans its sampled pairs as
//! 1 × 1 tiles.
//!
//! A tile is scanned block-outer: each row gene with a column in the
//! tile is planned once, then the tile's columns are laid out one block
//! of [`gnet_mi::TileRows::block_columns`] genes at a time (packed `b`
//! lanes apart across the run kernel's register groups, six genes at
//! b = 10), and every row meets each block while its rows are resident.
//! A row asks for one pairing at a time over the range of the block its
//! columns cover; under early exit a row's surviving pairs read each null
//! together, over the range from the first survivor to the last. A
//! worker so holds the tile's row plans and one block, whatever the
//! tile's edge ([`crate::MemoryPlan::per_thread_tile_bytes`]).
//!
//! The result cannot depend on how the pair space is divided: per-pair
//! MI does not depend on the tile shape (each row gene is planned the
//! same way in any tile, and a packed column's values are those of a
//! one-gene block), the pooled null merges as integer sums, and
//! candidates are kept sorted by `(i, j)`. So threads, schedulers, chunk
//! sizes, resumes, appends and ranks all reach the same bits.

use crate::config::{InferenceConfig, NullStrategy};
use crate::durable::Reader;
use core::ops::Range;
use gnet_bspline::BsplineBasis;
use gnet_graph::{Edge, GeneNetwork};
use gnet_mi::{MiKernel, MiScratch, Pairing, PlannedRow, PreparedGene};
use gnet_parallel::{execute_tiles_traced, ExecutionReport, Tile};
use gnet_permute::{PermutationSet, PooledNull};
use gnet_trace::Recorder;

/// Exact-null evidence over a set of scanned pairs.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct NullScan {
    /// Pooled null over every scanned pair.
    pub pooled: PooledNull,
    /// Pairs that beat all of their own nulls (and an explicit threshold,
    /// when one is configured): `(i, j, observed MI)` with `i < j`. Sorted
    /// by `(i, j)` once merged; a worker's own list is in visiting order.
    pub candidates: Vec<(u32, u32, f64)>,
    /// Joint evaluations performed.
    pub joints: u64,
}

impl NullScan {
    /// Fold in the evidence of disjoint pairs. `self` must be a merged
    /// scan (candidates sorted by `(i, j)`, as every empty or merged scan
    /// is); `other` may be a worker's, in any order. Exact and
    /// order-free: any partition of the pairs, merged in any order, gives
    /// the same value.
    pub fn merge(&mut self, mut other: NullScan) {
        self.pooled.merge(&other.pooled);
        self.joints += other.joints;
        let key = |c: &(u32, u32, f64)| (c.0, c.1);
        other.candidates.sort_unstable_by_key(key);
        // Merge the two sorted lists in place, back to front: linear, and
        // no scratch buffer beyond the growth of `self`.
        let (mut i, mut j) = (self.candidates.len(), other.candidates.len());
        self.candidates.resize(i + j, (0, 0, 0.0));
        while j > 0 {
            let c = if i > 0 && key(&self.candidates[i - 1]) > key(&other.candidates[j - 1]) {
                i -= 1;
                self.candidates[i]
            } else {
                j -= 1;
                other.candidates[j]
            };
            self.candidates[i + j] = c;
        }
    }

    /// The global threshold `I*` over `genes` genes: `explicit` when
    /// set, otherwise the pooled null's Bonferroni-corrected threshold at
    /// `alpha` over the `n(n−1)/2` pair tests.
    pub fn threshold(&self, explicit: Option<f64>, alpha: f64, genes: usize) -> f64 {
        let n = genes as u64;
        explicit.unwrap_or_else(|| {
            self.pooled
                .global_threshold(alpha, (n * n.saturating_sub(1) / 2).max(1))
        })
    }

    /// The network of the candidates above `threshold`, over one gene per
    /// name.
    pub fn network(&self, names: &[String], threshold: f64) -> GeneNetwork {
        GeneNetwork::from_edges(
            names.len(),
            names.to_vec(),
            self.candidates
                .iter()
                .filter(|c| c.2 > threshold)
                .map(|&(i, j, v)| Edge::new(i, j, v as f32)),
        )
    }

    /// Append the byte form checkpoints, state bundles and the ring's
    /// result frames carry: the pooled null
    /// ([`PooledNull::to_bytes`]), `u64` joints, `u32` candidate count,
    /// then per candidate `u32 i`, `u32 j` and the MI's `f64` bits, all
    /// little-endian.
    pub fn encode(&self, out: &mut Vec<u8>) {
        out.reserve(PooledNull::ENCODED_LEN + 12 + self.candidates.len() * 16);
        out.extend_from_slice(&self.pooled.to_bytes());
        out.extend_from_slice(&self.joints.to_le_bytes());
        out.extend_from_slice(&(self.candidates.len() as u32).to_le_bytes());
        for &(i, j, v) in &self.candidates {
            out.extend_from_slice(&i.to_le_bytes());
            out.extend_from_slice(&j.to_le_bytes());
            out.extend_from_slice(&v.to_bits().to_le_bytes());
        }
    }

    /// Decode [`Self::encode`]'s bytes, which must fill `bytes` exactly.
    /// Candidates must be sorted pairs `i < j` of genes below `genes`.
    ///
    /// # Errors
    /// A reason naming the first malformed field.
    pub fn decode(bytes: &[u8], genes: u32) -> Result<Self, String> {
        let mut r = Reader::new(bytes);
        let pooled_bytes = r.take(PooledNull::ENCODED_LEN, "pooled null")?;
        let pooled = PooledNull::from_bytes(pooled_bytes.try_into().expect("length taken above"))?;
        let joints = r.u64("joints")?;
        let n = r.u32("candidate count")? as usize;
        // A candidate is 16 bytes; reject counts the remaining bytes
        // cannot hold before allocating.
        if r.remaining() != n * 16 {
            return Err(format!(
                "candidate section length mismatch: {n} candidates declared, \
                 {} bytes remain (need {})",
                r.remaining(),
                n * 16
            ));
        }
        let mut candidates: Vec<(u32, u32, f64)> = Vec::with_capacity(n);
        for idx in 0..n {
            let i = r.u32("candidate gene i")?;
            let j = r.u32("candidate gene j")?;
            let v = r.f64("candidate MI")?;
            if i >= j || j >= genes {
                return Err(format!(
                    "candidate {idx} ({i},{j}) is not a pair of {genes} genes"
                ));
            }
            if candidates.last().is_some_and(|c| (c.0, c.1) >= (i, j)) {
                return Err(format!("candidate {idx} ({i},{j}) is out of order"));
            }
            candidates.push((i, j, v));
        }
        Ok(Self {
            pooled,
            candidates,
            joints,
        })
    }
}

/// The row and column genes of `tile` out of a whole-matrix gene list.
pub(crate) fn tile_genes<'a>(
    tile: &Tile,
    prepared: &'a [PreparedGene],
) -> (&'a [PreparedGene], &'a [PreparedGene]) {
    (
        &prepared[tile.row_start as usize..tile.row_end as usize],
        &prepared[tile.col_start as usize..tile.col_end as usize],
    )
}

/// Visit the tile's pairs through each row gene's [`PlannedRow`], block
/// by block: plan every row gene that has a column in the tile once,
/// then for each block of [`gnet_mi::TileRows::block_columns`]
/// consecutive column genes lay the block out once (packed, for the
/// vector kernel) and visit every row whose columns meet it, with the
/// part they meet. `rows[0]` is gene `tile.row_start` and `cols[0]` gene
/// `tile.col_start`; `pairings` are the run's null pairings, validated
/// once. The visitor gets the planned row, the row gene's index, the
/// first column gene's index and the columns' range within the block,
/// which [`PlannedRow::mi_block`] takes.
pub(crate) fn for_each_planned_block(
    tile: &Tile,
    rows: &[PreparedGene],
    cols: &[PreparedGene],
    pairings: &[Pairing<'_>],
    kernel: MiKernel,
    scratch: &mut MiScratch,
    mut visit: impl FnMut(&mut PlannedRow<'_>, u32, u32, Range<usize>),
) {
    // A row's columns start no earlier than the row above's, so the rows
    // with a column (all but a diagonal tile's last) are a prefix.
    let rows_with_columns = (tile.row_start..tile.row_end)
        .take_while(|&i| !tile.row_columns(i).is_empty())
        .count();
    let mut planned = scratch.plan_rows(kernel, &rows[..rows_with_columns], pairings);
    let width = planned.block_columns();
    for (b, block) in cols.chunks(width).enumerate() {
        planned.expand_block(block);
        let start = tile.col_start + (b * width) as u32;
        let end = start + block.len() as u32;
        for (r, i) in (0..rows_with_columns).zip(tile.row_start..) {
            let row_cols = tile.row_columns(i);
            let (j0, j1) = (row_cols.start.max(start), row_cols.end.min(end));
            if j0 >= j1 {
                continue;
            }
            let part = (j0 - start) as usize..(j1 - start) as usize;
            visit(&mut planned.row(r), i, j0, part);
        }
    }
}

/// Evaluate every pair of `tile` under `config`'s null test into `acc`.
/// Each row asks its planned row for one pairing at a time
/// ([`PlannedRow::mi_block`]), the observed pairing first, over the
/// columns it meets in a block.
///
/// - The exact test ([`NullStrategy::ExactFull`]) reads every null for
///   those columns and folds each joint straight into the pooled null.
///   A pair that beats all of its own nulls (and `config.mi_threshold`,
///   when set) becomes a candidate.
/// - Early exit ([`NullStrategy::EarlyExit`]) reads `config.mi_threshold`
///   as the resolved threshold. A pair at or below it reads no null; the
///   others (the survivors) read null `p` together, over the columns from
///   the first survivor still standing to the last, and each stops at its
///   own first null that ties or beats it. A pair that outlasts every
///   null becomes a candidate, and no null feeds the pooled null.
///
/// At the same threshold both tests keep the same candidates;
/// `acc.joints` counts the joints read (a column between two survivors
/// that rides along in early exit's pass is not read). `rows` and `cols`
/// are the tile's row and column genes and `pairings` the run's null
/// pairings, as in [`for_each_planned_block`].
///
/// # Panics
/// Panics under early exit without `config.mi_threshold`.
pub fn scan_tile(
    tile: &Tile,
    rows: &[PreparedGene],
    cols: &[PreparedGene],
    pairings: &[Pairing<'_>],
    config: &InferenceConfig,
    scratch: &mut MiScratch,
    acc: &mut NullScan,
) {
    let early_exit = config.null_strategy == NullStrategy::EarlyExit;
    assert!(
        !early_exit || config.mi_threshold.is_some(),
        "early exit scans under a resolved threshold"
    );
    let q = pairings.len();
    let (mut observed, mut null, mut dropped) = (Vec::new(), Vec::new(), Vec::new());
    for_each_planned_block(
        tile,
        rows,
        cols,
        pairings,
        config.kernel,
        scratch,
        |row, i, j0, part| {
            let n = part.len();
            observed.resize(n, 0.0);
            row.mi_block(part.clone(), None, &mut observed);
            acc.joints += n as u64;
            // `dropped[c]`: pair c is no candidate (it is at or below the
            // threshold, or a null tied or beat it).
            dropped.clear();
            dropped.extend(
                observed
                    .iter()
                    .map(|&o| !config.mi_threshold.is_none_or(|t| o > t)),
            );
            if !early_exit {
                null.resize(n, 0.0);
                for p in 0..q {
                    row.mi_block(part.clone(), Some(p), &mut null);
                    acc.pooled.extend(&null);
                    for ((b, v), o) in dropped.iter_mut().zip(&null).zip(&observed) {
                        *b |= v >= o;
                    }
                }
                acc.joints += (n * q) as u64;
            } else {
                for p in 0..q {
                    let Some(first) = dropped.iter().position(|&b| !b) else {
                        break;
                    };
                    let last = dropped.iter().rposition(|&b| !b).expect("a survivor") + 1;
                    null.resize(last - first, 0.0);
                    let span = part.start + first..part.start + last;
                    row.mi_block(span, Some(p), &mut null);
                    let survivors = dropped[first..last].iter_mut().zip(&observed[first..last]);
                    for ((b, o), v) in survivors.zip(&null) {
                        if !*b {
                            acc.joints += 1;
                            *b = v >= o;
                        }
                    }
                }
            }
            for ((j, &o), _) in (j0..).zip(&observed).zip(&dropped).filter(|(_, &b)| !b) {
                acc.candidates.push((i, j, o));
            }
        },
    );
}

/// Scan `tiles` under `config` into `acc`, on its threads and scheduler:
/// each worker evaluates its tiles through [`scan_tile`] into its own
/// scratch and evidence, and every worker's evidence is then merged into
/// `acc`, which must itself be merged evidence (see [`NullScan::merge`]).
/// `genes` maps a tile to its row and column genes and `pairings` are
/// the run's null pairings (as [`scan_tile`] takes them). An enabled
/// `rec` receives the executor's per-tile latencies and per-thread claim
/// counts, and the counters `scan.row_plans` and `scan.expansions` (row
/// plans built and column genes expanded). Returns the execution report.
pub fn scan_tiles<'g>(
    tiles: &[Tile],
    genes: impl Fn(&Tile) -> (&'g [PreparedGene], &'g [PreparedGene]) + Sync,
    pairings: &[Pairing<'_>],
    basis: &BsplineBasis,
    config: &InferenceConfig,
    rec: &Recorder,
    acc: &mut NullScan,
) -> ExecutionReport {
    let (states, report) = execute_tiles_traced(
        tiles,
        config.resolved_threads(),
        config.scheduler,
        |_tid| (MiScratch::for_basis(basis), NullScan::default()),
        |(scratch, part), tile| {
            let (rows, cols) = genes(tile);
            scan_tile(tile, rows, cols, pairings, config, scratch, part);
        },
        rec,
    );
    for (scratch, part) in states {
        rec.counter_add("scan.row_plans", scratch.plans_built());
        rec.counter_add("scan.expansions", scratch.expansions());
        acc.merge(part);
    }
    report
}

/// Resumable progress over a tile list: tiles `0..tiles_done` are
/// accounted for in `scan`. The same value is a GNETCKP checkpoint of
/// `gnet infer` and a GNETUPD progress file of `gnet update`, and one
/// [`crate::CheckpointStore`] reads and writes both.
#[derive(Clone, Debug, PartialEq)]
pub struct Checkpoint {
    /// Digest binding the progress to its run (the run digest of
    /// [`crate::run_digest_for`], or an update's
    /// [`crate::update_digest`]); resuming anything else is rejected.
    pub digest: u64,
    /// Tiles `0..tiles_done` of the run's tile list are accounted for.
    pub tiles_done: usize,
    /// Evidence over the completed prefix (for an update, including the
    /// state's own evidence it extends).
    pub scan: NullScan,
}

/// How a chunked scan runs: the progress it resumes from, the tiles per
/// chunk, and the callback that receives each chunk's cumulative progress
/// and returns `false` to stop the scan.
pub(crate) struct Chunking<'c> {
    pub(crate) resume_from: Option<Checkpoint>,
    pub(crate) chunk_tiles: usize,
    pub(crate) on_checkpoint: &'c mut dyn FnMut(&Checkpoint) -> bool,
}

/// A shared-memory scan: a tile list over prepared genes, evaluated under
/// a run configuration (kernel, explicit threshold, threads, scheduler).
pub(crate) struct TileScan<'a> {
    pub(crate) tiles: &'a [Tile],
    pub(crate) prepared: &'a [PreparedGene],
    pub(crate) perms: &'a PermutationSet,
    pub(crate) basis: &'a BsplineBasis,
    pub(crate) config: &'a InferenceConfig,
}

impl TileScan<'_> {
    /// Pairs in tiles `0..tiles_done`.
    pub(crate) fn pairs_in(&self, tiles_done: usize) -> u64 {
        self.tiles[..tiles_done].iter().map(Tile::pair_count).sum()
    }

    /// Scan every tile as one chunk: the evidence over all of them and
    /// the execution report.
    pub(crate) fn run_all(&self, rec: &Recorder) -> (NullScan, ExecutionReport) {
        let mut progress = Checkpoint {
            digest: 0,
            tiles_done: 0,
            scan: NullScan::default(),
        };
        let execution = self
            .run(&mut progress, usize::MAX, rec, |_| true)
            .expect("a scan that never stops finishes");
        (progress.scan, execution)
    }

    /// Scan the tiles after `progress.tiles_done` in chunks of
    /// `chunk_tiles` on the configured threads and scheduler, against the
    /// permutations validated once as null pairings, folding
    /// each chunk into `progress` and then calling `after_chunk`, which
    /// returns `false` to stop the scan. Per-tile progress on `rec`
    /// counts against the whole tile list, the resumed prefix included.
    /// Returns the execution report of every chunk run, or `None` when
    /// `after_chunk` stopped the scan.
    pub(crate) fn run(
        &self,
        progress: &mut Checkpoint,
        chunk_tiles: usize,
        rec: &Recorder,
        mut after_chunk: impl FnMut(&Checkpoint) -> bool,
    ) -> Option<ExecutionReport> {
        assert!(chunk_tiles >= 1, "chunk size must be positive");
        assert!(
            progress.tiles_done <= self.tiles.len(),
            "corrupt tile prefix"
        );
        let pairings = Pairing::all(self.perms.as_vecs(), self.perms.samples());
        let mut execution = ExecutionReport::default();
        while progress.tiles_done < self.tiles.len() {
            let end = progress
                .tiles_done
                .saturating_add(chunk_tiles)
                .min(self.tiles.len());
            let report = scan_tiles(
                &self.tiles[progress.tiles_done..end],
                |tile| tile_genes(tile, self.prepared),
                &pairings,
                self.basis,
                self.config,
                &rec.for_chunk(progress.tiles_done, self.tiles.len()),
                &mut progress.scan,
            );
            progress.tiles_done = end;
            execution.absorb(&report);
            if !after_chunk(progress) {
                return None;
            }
        }
        Some(execution)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnet_expr::synth::{coupled_pairs, Coupling};
    use gnet_mi::{mi_with_nulls, prepare_gene};
    use gnet_permute::PermutationSet;

    /// Twelve prepared genes (six coupled pairs, 250 samples), twelve
    /// shared permutations and the tile of all their pairs.
    fn coupled_genes() -> (Vec<PreparedGene>, PermutationSet, Tile) {
        let (matrix, _) = coupled_pairs(6, 250, Coupling::Linear(0.7), 23);
        let basis = BsplineBasis::tinge_default();
        let genes = (0..12)
            .map(|g| prepare_gene(matrix.gene(g), &basis))
            .collect();
        let tile = Tile {
            row_start: 0,
            row_end: 12,
            col_start: 0,
            col_end: 12,
        };
        (genes, PermutationSet::generate(250, 12, 5), tile)
    }

    /// One tile's evidence under `strategy` at `threshold`, merged (its
    /// candidates sorted by `(i, j)`, not in the scan's block-outer
    /// visiting order).
    fn scan_one(
        genes: &[PreparedGene],
        perms: &PermutationSet,
        tile: &Tile,
        kernel: MiKernel,
        null_strategy: NullStrategy,
        threshold: f64,
    ) -> NullScan {
        let config = InferenceConfig {
            kernel,
            null_strategy,
            mi_threshold: Some(threshold),
            ..InferenceConfig::default()
        };
        let mut scratch = MiScratch::for_basis(&BsplineBasis::tinge_default());
        let mut acc = NullScan::default();
        let (rows, cols) = tile_genes(tile, genes);
        let pairings = Pairing::all(perms.as_vecs(), perms.samples());
        scan_tile(tile, rows, cols, &pairings, &config, &mut scratch, &mut acc);
        let mut merged = NullScan::default();
        merged.merge(acc);
        merged
    }

    /// Rows of `tile` with at least one column: the row plans it builds.
    fn planned_rows(tile: &Tile) -> u64 {
        (tile.row_start..tile.row_end)
            .filter(|&i| !tile.row_columns(i).is_empty())
            .count() as u64
    }

    #[test]
    fn a_tile_plans_each_row_once_and_expands_each_column_once() {
        use gnet_parallel::TileSpace;
        let (genes, perms, _) = coupled_genes();
        let pairings = Pairing::all(perms.as_vecs(), perms.samples());
        let config = InferenceConfig {
            permutations: perms.len(),
            ..InferenceConfig::default()
        };
        for space in [
            TileSpace::new(12, 5),
            TileSpace::frontier(12, 7, 3),
            TileSpace::block_pair(0..4, 4..12, 3),
        ] {
            let mut scratch = MiScratch::for_basis(&BsplineBasis::tinge_default());
            let mut acc = NullScan::default();
            for tile in space.tiles() {
                let (rows, cols) = tile_genes(tile, &genes);
                scan_tile(tile, rows, cols, &pairings, &config, &mut scratch, &mut acc);
            }
            let plans: u64 = space.tiles().iter().map(planned_rows).sum();
            let columns: u64 = space
                .tiles()
                .iter()
                .map(|t| u64::from(t.col_end - t.col_start))
                .sum();
            assert_eq!(scratch.plans_built(), plans, "{space:?}");
            assert_eq!(scratch.expansions(), columns, "{space:?}");
        }
        // At paper-256's cache-rule tile (T = 12) that is 3,006 plans and
        // 2,860 expansions, against 6,834 plans at T = 5 with a plan per
        // tile row.
        let paper = TileSpace::new(256, 12);
        assert_eq!(paper.tiles().iter().map(planned_rows).sum::<u64>(), 3_006);
        let columns: u64 = paper
            .tiles()
            .iter()
            .map(|t| u64::from(t.col_end - t.col_start))
            .sum();
        assert_eq!(columns, 2_860);
    }

    /// Every pair of `space` as per-call `mi_with_nulls` evaluates it.
    fn per_call_pairs(
        genes: &[PreparedGene],
        perms: &PermutationSet,
        space: &gnet_parallel::TileSpace,
    ) -> Vec<(u32, u32, gnet_mi::PairMi)> {
        let mut scratch = MiScratch::for_basis(&BsplineBasis::new(genes[0].sparse.order(), 10));
        let mut pairs: Vec<(u32, u32)> = space.tiles().iter().flat_map(Tile::pairs).collect();
        pairs.sort_unstable();
        pairs
            .into_iter()
            .map(|(i, j)| {
                let (x, y) = (&genes[i as usize], &genes[j as usize]);
                let yd = y.to_dense();
                let kernel = MiKernel::VectorDense;
                let pair = mi_with_nulls(kernel, x, y, Some(&yd), perms.as_vecs(), &mut scratch);
                (i, j, pair)
            })
            .collect()
    }

    #[test]
    fn scan_tile_equals_per_call_mi_with_nulls_bitwise() {
        use gnet_parallel::TileSpace;
        let (matrix, _) = coupled_pairs(13, 48, Coupling::Linear(0.8), 71);
        let perms = PermutationSet::generate(48, 3, 9);
        let pairings = Pairing::all(perms.as_vecs(), perms.samples());
        let n = matrix.genes();
        for order in [3, 4, 8] {
            let basis = BsplineBasis::new(order, 10);
            let genes: Vec<_> = (0..n)
                .map(|g| prepare_gene(matrix.gene(g), &basis))
                .collect();
            let reference = per_call_pairs(&genes, &perms, &TileSpace::new(n, n));
            let lookup = |i: u32, j: u32| {
                let at = reference.binary_search_by_key(&(i, j), |r| (r.0, r.1));
                &reference[at.expect("every pair has a reference")].2
            };
            for edge in [1, 2, 3, 4, 5, 7, 9, 12, 16, 24] {
                for space in [
                    TileSpace::new(n, edge),
                    TileSpace::frontier(n, 17, edge),
                    TileSpace::block_pair(0..9, 9..n, edge),
                ] {
                    let at = format!("k {order}, edge {edge}, {:?}", space.tiles()[0]);
                    let mut scratch = MiScratch::for_basis(&basis);
                    // Every value the visitor reads, bitwise.
                    let mut visited = 0;
                    for tile in space.tiles() {
                        let (rows, cols) = tile_genes(tile, &genes);
                        let kernel = MiKernel::VectorDense;
                        let visit = |row: &mut PlannedRow<'_>, i, j0, cols: Range<usize>| {
                            let mut v = vec![0.0; cols.len()];
                            for pairing in std::iter::once(None).chain((0..perms.len()).map(Some)) {
                                row.mi_block(cols.clone(), pairing, &mut v);
                                for (j, v) in (j0..).zip(&v) {
                                    let pair = lookup(i, j);
                                    let want = pairing.map_or(pair.observed, |p| pair.null[p]);
                                    assert_eq!(
                                        v.to_bits(),
                                        want.to_bits(),
                                        "{at}: ({i},{j}) {pairing:?}"
                                    );
                                }
                            }
                            visited += cols.len();
                        };
                        for_each_planned_block(
                            tile,
                            rows,
                            cols,
                            &pairings,
                            kernel,
                            &mut scratch,
                            visit,
                        );
                    }
                    assert_eq!(visited as u64, space.total_pairs(), "{at}");
                    // The exact test and early exit over the same tiles.
                    for (strategy, threshold) in [
                        (NullStrategy::ExactFull, None),
                        (NullStrategy::ExactFull, Some(0.05)),
                        (NullStrategy::EarlyExit, Some(0.05)),
                        (NullStrategy::EarlyExit, Some(f64::NEG_INFINITY)),
                    ] {
                        let config = InferenceConfig {
                            spline_order: order,
                            permutations: perms.len(),
                            null_strategy: strategy,
                            mi_threshold: threshold,
                            ..InferenceConfig::default()
                        };
                        let mut scan = NullScan::default();
                        for tile in space.tiles() {
                            let (rows, cols) = tile_genes(tile, &genes);
                            let mut part = NullScan::default();
                            scan_tile(
                                tile,
                                rows,
                                cols,
                                &pairings,
                                &config,
                                &mut scratch,
                                &mut part,
                            );
                            scan.merge(part);
                        }
                        let mut want = NullScan::default();
                        for (i, j, pair) in space
                            .tiles()
                            .iter()
                            .flat_map(Tile::pairs)
                            .map(|(i, j)| (i, j, lookup(i, j)))
                        {
                            let above = threshold.is_none_or(|t| pair.observed > t);
                            let first_beat = pair.null.iter().position(|&v| v >= pair.observed);
                            if strategy == NullStrategy::ExactFull {
                                want.pooled.extend(&pair.null);
                                want.joints += 1 + pair.null.len() as u64;
                            } else {
                                let read = if above {
                                    first_beat.map_or(pair.null.len(), |p| p + 1)
                                } else {
                                    0
                                };
                                want.joints += 1 + read as u64;
                            }
                            if above && first_beat.is_none() {
                                want.candidates.push((i, j, pair.observed));
                            }
                        }
                        want.candidates.sort_unstable_by_key(|c| (c.0, c.1));
                        assert_eq!(scan, want, "{at}, {strategy:?} at {threshold:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn early_exit_keeps_the_exact_tests_candidates() {
        let (genes, perms, tile) = coupled_genes();
        for kernel in [MiKernel::VectorDense, MiKernel::ScalarSparse] {
            let scan = |strategy| scan_one(&genes, &perms, &tile, kernel, strategy, 0.05);
            let (exact, early) = (scan(NullStrategy::ExactFull), scan(NullStrategy::EarlyExit));
            assert!(!exact.candidates.is_empty());
            assert_eq!(early.candidates, exact.candidates, "{kernel:?}");
            assert_eq!(exact.joints, 66 * 13);
            assert!(
                early.joints * 2 < exact.joints,
                "early exit must at least halve the joints: {} vs {}",
                early.joints,
                exact.joints
            );
            assert_eq!(early.pooled.count(), 0, "early exit feeds no pooled null");
        }
    }

    #[test]
    fn early_exit_reads_no_null_below_its_threshold() {
        let (genes, perms, tile) = coupled_genes();
        let early = |t| {
            scan_one(
                &genes,
                &perms,
                &tile,
                MiKernel::VectorDense,
                NullStrategy::EarlyExit,
                t,
            )
        };
        let none = early(f64::INFINITY);
        assert_eq!(none.joints, 66, "one observed joint per pair");
        assert!(none.candidates.is_empty());
    }

    #[test]
    fn early_exit_stops_at_the_first_null_that_ties_or_beats() {
        let (genes, perms, tile) = coupled_genes();
        let mut scratch = MiScratch::for_basis(&BsplineBasis::tinge_default());
        for threshold in [f64::NEG_INFINITY, 0.05] {
            // The rule, read off each pair's full per-call null.
            let (mut joints, mut candidates) = (0u64, Vec::new());
            for (i, j) in tile.pairs() {
                let (x, y) = (&genes[i as usize], &genes[j as usize]);
                let yd = y.to_dense();
                let pair = mi_with_nulls(
                    MiKernel::VectorDense,
                    x,
                    y,
                    Some(&yd),
                    perms.as_vecs(),
                    &mut scratch,
                );
                let read = match pair.null.iter().position(|&v| v >= pair.observed) {
                    _ if pair.observed <= threshold => 0,
                    Some(p) => p + 1,
                    None => {
                        candidates.push((i, j, pair.observed));
                        pair.null.len()
                    }
                };
                joints += 1 + read as u64;
            }
            let early = scan_one(
                &genes,
                &perms,
                &tile,
                MiKernel::VectorDense,
                NullStrategy::EarlyExit,
                threshold,
            );
            assert_eq!(early.joints, joints, "threshold {threshold}");
            assert_eq!(early.candidates, candidates, "threshold {threshold}");
        }
    }

    fn part(candidates: Vec<(u32, u32, f64)>, nulls: &[f64]) -> NullScan {
        let mut pooled = PooledNull::new();
        pooled.extend(nulls);
        NullScan {
            pooled,
            joints: candidates.len() as u64,
            candidates,
        }
    }

    #[test]
    fn merge_is_order_free_and_keeps_candidates_sorted() {
        let all: Vec<(u32, u32, f64)> = (0..30u32)
            .flat_map(|i| (i + 1..31).map(move |j| (i, j, f64::from(i * 31 + j) / 1e3)))
            .filter(|c| (c.0 * 7 + c.1) % 3 == 0)
            .collect();
        // Four unsorted, interleaved parts with their own nulls.
        let parts: Vec<NullScan> = (0..4)
            .map(|k| {
                let mut mine: Vec<_> = all.iter().copied().skip(k).step_by(4).collect();
                mine.reverse();
                part(mine, &[0.01 * k as f64, 0.2, 1.0 / 3.0])
            })
            .collect();
        let mut forward = NullScan::default();
        for p in parts.iter().cloned() {
            forward.merge(p);
        }
        let mut backward = NullScan::default();
        for p in parts.into_iter().rev() {
            backward.merge(p);
        }
        assert_eq!(forward, backward);
        assert_eq!(forward.candidates, all);
        assert_eq!(forward.pooled.count(), 12);
    }

    #[test]
    fn byte_form_round_trips_and_rejects_unsorted_candidates() {
        let scan = part(vec![(0, 2, 0.5), (1, 2, 0.25), (1, 3, 0.125)], &[0.1, 0.2]);
        let mut bytes = Vec::new();
        scan.encode(&mut bytes);
        assert_eq!(NullScan::decode(&bytes, 4), Ok(scan.clone()));
        assert!(
            NullScan::decode(&bytes, 3).is_err(),
            "gene 3 is out of range"
        );
        assert!(NullScan::decode(&bytes[..bytes.len() - 1], 4).is_err());
        let mut unsorted = Vec::new();
        part(vec![(1, 2, 0.25), (0, 2, 0.5)], &[]).encode(&mut unsorted);
        assert!(NullScan::decode(&unsorted, 4).is_err_and(|reason| reason.contains("out of order")));
    }
}
