//! The exact-null tile-scan engine.
//!
//! Every scan that evaluates pairs with their full permutation nulls —
//! the in-memory and checkpointed runs, state builds, incremental
//! updates and the ring's block pairs — runs a tile list through
//! [`scan_tiles`], which schedules the tiles on the executor, evaluates
//! each with [`scan_tile`] and merges the workers' evidence.
//! Shared-memory scans go through [`TileScan::run`], which calls it once
//! per chunk of tiles and records progress as a tile prefix; a ring rank
//! calls it once per block pair.
//!
//! The result cannot depend on how the pair space is divided: per-pair
//! MI does not depend on the tile shape (each row gene is planned the
//! same way in any tile), the pooled null merges as integer sums, and
//! candidates are kept sorted by `(i, j)`. So threads, schedulers,
//! chunk sizes, resumes, appends and ranks all reach the same bits.

use crate::config::InferenceConfig;
use crate::durable::Reader;
use gnet_bspline::{BsplineBasis, DenseWeights};
use gnet_graph::{Edge, GeneNetwork};
use gnet_mi::{MiKernel, MiScratch, PlannedRow, PreparedGene};
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

/// Visit the tile's pairs in row-major order through each row gene's
/// [`PlannedRow`], planned once before the row's first pair, a block of
/// column genes at a time. A row's columns split into balanced blocks of
/// at most [`PlannedRow::block_columns`] genes (5 → 3 + 2 at k = 3, not
/// 4 + 1). `rows[0]` is gene `tile.row_start` and `cols[0]` gene
/// `tile.col_start`; the column genes are expanded into the dense layout
/// once, into the scratch's reused buffers (vector kernel only). The
/// visitor gets the planned row, the row gene's index, the block's first
/// column gene index, the block's column genes and their dense
/// expansions (empty for the scalar kernel).
pub(crate) fn for_each_planned_block(
    tile: &Tile,
    rows: &[PreparedGene],
    cols: &[PreparedGene],
    perms: &[Vec<u32>],
    kernel: MiKernel,
    scratch: &mut MiScratch,
    mut visit: impl FnMut(&mut PlannedRow<'_>, u32, u32, &[PreparedGene], &[DenseWeights]),
) {
    let dense: Vec<DenseWeights> = match kernel {
        MiKernel::VectorDense => scratch.expand_columns(cols),
        MiKernel::ScalarSparse => Vec::new(),
    };
    for i in tile.row_start..tile.row_end {
        let row_cols = tile.row_columns(i);
        let n = row_cols.len();
        if n == 0 {
            continue;
        }
        let mut row = scratch.plan_row(kernel, &rows[(i - tile.row_start) as usize], perms);
        // `blocks` balanced blocks: the first `n % blocks` one gene wider.
        let blocks = n.div_ceil(row.block_columns());
        let mut c = (row_cols.start - tile.col_start) as usize;
        for b in 0..blocks {
            let len = n / blocks + usize::from(b < n % blocks);
            let block = c..c + len;
            let block_dense = dense.get(block.clone()).unwrap_or(&[]);
            visit(
                &mut row,
                i,
                tile.col_start + c as u32,
                &cols[block.clone()],
                block_dense,
            );
            c = block.end;
        }
    }
    scratch.reuse_columns(dense);
}

/// Evaluate every pair of `tile` with its full nulls into `acc`: every
/// null feeds the pooled null, and a pair that beats all of its own nulls
/// (and `threshold`, when given) becomes a candidate. Each block of
/// column genes is evaluated in one pass per joint over the row's plan
/// and folded in column order. `rows` and `cols` are the tile's row and
/// column genes, as in [`for_each_planned_block`].
#[allow(clippy::too_many_arguments)]
pub fn scan_tile(
    tile: &Tile,
    rows: &[PreparedGene],
    cols: &[PreparedGene],
    perms: &PermutationSet,
    kernel: MiKernel,
    threshold: Option<f64>,
    scratch: &mut MiScratch,
    acc: &mut NullScan,
) {
    for_each_planned_block(
        tile,
        rows,
        cols,
        perms.as_vecs(),
        kernel,
        scratch,
        |row, i, j0, ys, dense| {
            for (j, res) in (j0..).zip(row.mi_with_nulls_block(ys, dense)) {
                acc.joints += 1 + res.null.len() as u64;
                acc.pooled.extend(&res.null);
                if res.exceed_count() == 0 && threshold.is_none_or(|t| res.observed > t) {
                    acc.candidates.push((i, j, res.observed));
                }
            }
        },
    );
}

/// Scan `tiles` on the configured threads and scheduler into `acc`:
/// each worker evaluates its tiles through [`scan_tile`] into its own
/// scratch and evidence, and every worker's evidence is then merged into
/// `acc`, which must itself be merged evidence (see [`NullScan::merge`]).
/// `genes` maps a tile to its row and column genes (as [`scan_tile`]
/// takes them). An enabled `rec` receives the executor's per-tile
/// latencies and per-thread claim counts. Returns the execution report.
pub fn scan_tiles<'g>(
    tiles: &[Tile],
    genes: impl Fn(&Tile) -> (&'g [PreparedGene], &'g [PreparedGene]) + Sync,
    perms: &PermutationSet,
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
            scan_tile(
                tile,
                rows,
                cols,
                perms,
                config.kernel,
                config.mi_threshold,
                scratch,
                part,
            );
        },
        rec,
    );
    for (_, part) in states {
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
    /// `chunk_tiles` on the configured threads and scheduler, folding
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
        let mut execution = ExecutionReport::default();
        while progress.tiles_done < self.tiles.len() {
            let end = progress
                .tiles_done
                .saturating_add(chunk_tiles)
                .min(self.tiles.len());
            let report = scan_tiles(
                &self.tiles[progress.tiles_done..end],
                |tile| tile_genes(tile, self.prepared),
                self.perms,
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
