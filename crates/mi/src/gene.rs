//! Per-gene preparation and the kernel-dispatch layer the pipeline uses.
//!
//! Preparation happens once per gene (rank codes into a B-spline weight
//! table the run's genes share, plus the marginal entropy) and is reused
//! for all `n−1` pairs the gene participates in — the amortization that
//! makes whole-genome runs feasible and that the tiling layer is built
//! around. Gene contexts keep only the coded *sparse* form; the layout
//! the vector kernel reads is materialized one block of column genes at
//! a time by the executor ([`TileRows::expand_block`]), which is how the
//! paper bounds the working set to the L2 cache: on the one-register-row
//! layout the block's genes are packed `b` lanes apart across the run
//! kernel's 16-lane register groups, six genes in four groups at b = 10
//! ([`vector_kernel::block_columns`]). Symmetrically, the vector kernel's
//! run plan of each row gene of a tile is built once
//! ([`MiScratch::plan_rows`]) and shared by every pair and every null
//! pairing of the row. A planned row has one evaluation method,
//! [`PlannedRow::mi_block`]: one pairing (the observed one or one null)
//! for a range of the block's columns; the null tests that read it live
//! in the tile scan. [`mi_vector`] and [`mi_with_nulls`] evaluate one
//! gene alone at lane 0 of one register group over a plan built per
//! call, for oracles and benchmarks, and a packed column's MI is bitwise
//! theirs. Each scratch carries the SIMD [`KernelTable`] its joints run
//! on.

use crate::entropy::entropy_nats;
use crate::sparse_kernel;
use crate::vector_kernel::{self, PackedBlock, VectorGrid};
use core::ops::Range;
use gnet_bspline::{BsplineBasis, DenseWeights, SampleCodes, SparseWeights, WeightTable};
use gnet_expr::normalize::rank_codes;
use gnet_simd::dispatch::{self, KernelTable};
use gnet_simd::{F32x16, Pairing, RunPlan};
use std::sync::Arc;

/// Which B-spline kernel the pipeline dispatches to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default, serde::Serialize, serde::Deserialize)]
pub enum MiKernel {
    /// Scalar `k × k` scatter kernel on sparse weights (no-vec baseline).
    ScalarSparse,
    /// Run-blocked row-FMA kernel on dense lane-padded weights (the
    /// paper's kernel).
    #[default]
    VectorDense,
}

/// One gene, prepared for pairwise MI: rank-coded into a shared B-spline
/// weight table, marginal entropy cached.
#[derive(Clone, Debug)]
pub struct PreparedGene {
    /// The gene's weights: a code per sample into a shared table.
    pub sparse: SparseWeights,
    /// Marginal entropy `H(g)` in nats.
    pub h_marginal: f64,
}

impl PreparedGene {
    /// Prepare a **raw** expression profile as rank codes into `table`,
    /// the rank table of its sample count
    /// ([`WeightTable::for_ranks`]), which the genes of a run share: one
    /// sort, then the marginal summed through the table in sample order.
    ///
    /// # Panics
    /// Panics if `table` does not have one entry per rank code of the
    /// profile's sample count.
    pub fn coded(values: &[f32], table: &Arc<WeightTable>) -> Self {
        assert_eq!(
            table.entries(),
            WeightTable::rank_entries(values.len()),
            "a rank table of the profile's sample count"
        );
        let codes = SampleCodes::for_entries(rank_codes(values), table.entries());
        let sparse =
            SparseWeights::new(Arc::clone(table), codes).expect("rank codes lie below 2m − 1");
        let h_marginal = entropy_nats(&sparse.marginal());
        Self { sparse, h_marginal }
    }

    /// Prepare from an already `[0, 1]`-normalized profile.
    pub fn from_normalized(normalized: &[f32], basis: &BsplineBasis) -> Self {
        let sparse = SparseWeights::from_normalized(normalized, basis);
        let h_marginal = entropy_nats(&sparse.marginal());
        Self { sparse, h_marginal }
    }

    /// Number of samples.
    pub fn samples(&self) -> usize {
        self.sparse.samples()
    }

    /// Expand to the dense layout the vector kernel consumes. Called once
    /// per tile column and reused across the tile's rows.
    pub fn to_dense(&self) -> DenseWeights {
        self.sparse.to_dense()
    }

    /// Heap bytes of the gene's own codes; the table it shares is counted
    /// once per run.
    pub fn heap_bytes(&self) -> usize {
        self.sparse.heap_bytes()
    }
}

/// Prepare one raw expression profile: a batch of one, with a rank table
/// of its own. Runs prepare their genes against one shared table
/// ([`PreparedGene::coded`]); oracles and benchmarks call this.
pub fn prepare_gene(values: &[f32], basis: &BsplineBasis) -> PreparedGene {
    PreparedGene::coded(
        values,
        &Arc::new(WeightTable::for_ranks(values.len(), basis)),
    )
}

/// Reusable per-thread scratch covering both kernels.
#[derive(Clone, Debug)]
pub struct MiScratch {
    /// The SIMD kernels every vector joint and joint entropy of this
    /// scratch runs on.
    kernels: &'static KernelTable,
    scalar_grid: Vec<f32>,
    /// The one-gene joint grid of the per-call helpers ([`mi_vector`],
    /// [`mi_with_nulls`]), of the last dense layout they met.
    dense_grid: Option<VectorGrid>,
    /// The vector kernel's run plans of the current tile's row genes, one
    /// per row ([`Self::plan_rows`]).
    plans: Vec<RunPlan>,
    /// The current block of column genes in the vector kernel's layout,
    /// with its joint grids ([`TileRows::expand_block`]).
    block: PackedBlock,
    /// Row plans built so far.
    plans_built: u64,
    /// Column genes expanded into the block layout so far.
    expansions: u64,
    bins: usize,
}

impl MiScratch {
    /// Scratch for genes produced with `basis`, on the process's
    /// resolved kernel table ([`dispatch::table`]).
    pub fn for_basis(basis: &BsplineBasis) -> Self {
        Self::with_kernels(basis, dispatch::table())
    }

    /// Scratch for genes produced with `basis` whose vector joints run on
    /// `kernels` — how a caller compares backends in one process
    /// ([`KernelTable::for_backend`]).
    pub fn with_kernels(basis: &BsplineBasis, kernels: &'static KernelTable) -> Self {
        let b = basis.bins();
        Self {
            kernels,
            scalar_grid: vec![0.0; b * b],
            dense_grid: None,
            plans: Vec::new(),
            block: PackedBlock::default(),
            plans_built: 0,
            expansions: 0,
            bins: b,
        }
    }

    /// Heap bytes of the vector kernel's buffers: the row plans, the
    /// block's register groups and joint grids, and the per-call helpers'
    /// one-gene grid.
    pub fn vector_heap_bytes(&self) -> usize {
        self.plans.iter().map(RunPlan::heap_bytes).sum::<usize>()
            + self.block.heap_bytes()
            + self.dense_grid.as_ref().map_or(0, VectorGrid::heap_bytes)
    }

    /// Row plans this scratch has built ([`Self::plan_rows`]).
    pub fn plans_built(&self) -> u64 {
        self.plans_built
    }

    /// Column genes this scratch has expanded into the block layout
    /// ([`TileRows::expand_block`]).
    pub fn expansions(&self) -> u64 {
        self.expansions
    }

    /// Plan the row genes `rows` of a tile, one plan each, for every pair
    /// and every null pairing of `pairings` they are evaluated in. For the
    /// vector kernel this sorts each row gene's samples into runs (see
    /// [`RunPlan`]); a no-op for the scalar kernel and for layouts wider
    /// than one register row. The rows then meet their column genes one
    /// block at a time ([`TileRows::expand_block`]).
    pub fn plan_rows<'a>(
        &'a mut self,
        kernel: MiKernel,
        rows: &'a [PreparedGene],
        pairings: &'a [Pairing<'a>],
    ) -> TileRows<'a> {
        if self.plans.len() < rows.len() {
            self.plans.resize_with(rows.len(), RunPlan::new);
        }
        if kernel == MiKernel::VectorDense {
            for (x, plan) in rows.iter().zip(&mut self.plans) {
                if x.sparse.bins() <= F32x16::LANES {
                    vector_kernel::plan_runs(&x.sparse, plan);
                    self.plans_built += 1;
                }
            }
        }
        self.block.clear();
        TileRows {
            kernel,
            rows,
            pairings,
            scratch: self,
            cols: &[],
        }
    }

    /// The per-call helpers' state for `x` against a dense `y`: `x`
    /// planned into the first plan buffer on the one-register-row layout,
    /// and a one-gene grid of `y`'s layout.
    fn one_gene(&mut self, x: &PreparedGene, y: &DenseWeights) -> (&RunPlan, &mut VectorGrid) {
        if self.plans.is_empty() {
            self.plans.push(RunPlan::new());
        }
        if vector_kernel::fits_run_kernel(y) {
            vector_kernel::plan_runs(&x.sparse, &mut self.plans[0]);
            self.plans_built += 1;
        }
        let layout = |g: &VectorGrid| g.bins() == y.bins() && g.stride() == y.stride();
        if !self.dense_grid.as_ref().is_some_and(layout) {
            self.dense_grid = Some(VectorGrid::for_dense(y));
        }
        let grid = self.dense_grid.as_mut().expect("a grid of y's layout");
        (&self.plans[0], grid)
    }
}

/// A tile's row genes, each planned once ([`MiScratch::plan_rows`]), and
/// the block of column genes they currently meet. A row's plan is built
/// from its own gene, and only that row reads it, so no pair can meet
/// another gene's plan.
#[derive(Debug)]
pub struct TileRows<'a> {
    kernel: MiKernel,
    rows: &'a [PreparedGene],
    pairings: &'a [Pairing<'a>],
    scratch: &'a mut MiScratch,
    /// The block's column genes ([`Self::expand_block`]).
    cols: &'a [PreparedGene],
}

impl<'a> TileRows<'a> {
    /// Column genes per block the rows are best evaluated in
    /// ([`vector_kernel::block_columns`] at the row genes' spline order and
    /// bins): on the one-register-row layout, as many genes as fit `b`
    /// lanes apart in the register groups one pass of the run kernel
    /// holds. Any block width gives the same values.
    pub fn block_columns(&self) -> usize {
        let (order, bins) = self.rows.first().map_or((1, self.scratch.bins), |x| {
            (x.sparse.order(), x.sparse.bins())
        });
        vector_kernel::block_columns(order, bins)
    }

    /// Make `cols` the block the rows meet: for the vector kernel, lay
    /// the genes out in the block layout (packed `b` lanes apart on the
    /// one-register-row layout), refilling the buffers of earlier blocks
    /// in place.
    ///
    /// # Panics
    /// Panics if `cols` holds more than [`Self::block_columns`] genes, or
    /// genes of different shapes.
    pub fn expand_block(&mut self, cols: &'a [PreparedGene]) {
        assert!(
            cols.len() <= self.block_columns(),
            "a block of {} genes, wider than {}",
            cols.len(),
            self.block_columns()
        );
        self.cols = cols;
        if self.kernel == MiKernel::VectorDense {
            self.scratch.block.expand(cols);
            self.scratch.expansions += cols.len() as u64;
        }
    }

    /// Row `r`'s planned row, meeting the current block.
    ///
    /// # Panics
    /// Panics if `r` is not one of the planned rows.
    pub fn row(&mut self, r: usize) -> PlannedRow<'_> {
        let MiScratch {
            kernels,
            scalar_grid,
            plans,
            block,
            ..
        } = &mut *self.scratch;
        PlannedRow {
            kernel: self.kernel,
            x: &self.rows[r],
            plan: &plans[r],
            pairings: self.pairings,
            kernels,
            scalar_grid,
            cols: self.cols,
            block,
        }
    }
}

/// A row gene `x` planned once for all the pairs and null pairings it is
/// evaluated in, meeting one block of column genes ([`TileRows::row`]).
#[derive(Debug)]
pub struct PlannedRow<'a> {
    kernel: MiKernel,
    x: &'a PreparedGene,
    /// `x`'s run plan; read by the vector kernel on the one-register-row
    /// layout only.
    plan: &'a RunPlan,
    pairings: &'a [Pairing<'a>],
    kernels: &'static KernelTable,
    scalar_grid: &'a mut Vec<f32>,
    /// The block's column genes.
    cols: &'a [PreparedGene],
    /// The block in the vector kernel's layout.
    block: &'a mut PackedBlock,
}

impl PlannedRow<'_> {
    /// MI (nats) of the row gene against columns `cols` of the block
    /// under one pairing, into `out`: the observed pairing for `None`,
    /// null pairing `p` for `Some(p)`. For the vector kernel one pass of
    /// the run kernel covers the register groups the columns span, and
    /// one packed entropy call their joint entropies; each column's value
    /// is that of a one-gene block ([`mi_with_nulls`]).
    ///
    /// # Panics
    /// Panics if `out` is not one per column, the columns are not in the
    /// block, on a shape mismatch between the genes or with the pairing,
    /// or if there is no null pairing `p`.
    pub fn mi_block(&mut self, cols: Range<usize>, pairing: Option<usize>, out: &mut [f64]) {
        assert_eq!(out.len(), cols.len(), "one MI per column gene");
        let Some(ys) = self.cols.get(cols.clone()) else {
            panic!("columns {cols:?} of a {}-gene block", self.cols.len());
        };
        let (x, hx) = (self.x, self.x.h_marginal);
        let pairing = pairing.map(|p| self.pairings[p]);
        if self.kernel == MiKernel::ScalarSparse {
            for (y, mi) in ys.iter().zip(out.iter_mut()) {
                let (hy, grid) = (y.h_marginal, &mut *self.scalar_grid);
                *mi = match pairing {
                    None => sparse_kernel::mi(&x.sparse, &y.sparse, hx, hy, grid),
                    Some(p) => {
                        sparse_kernel::mi_permuted(&x.sparse, &y.sparse, p.indices(), hx, hy, grid)
                    }
                };
            }
            return;
        }
        let (kernels, plan) = (self.kernels, self.plan);
        self.block
            .joint_entropies(kernels, plan, &x.sparse, pairing, cols, out);
        for (mi, y) in out.iter_mut().zip(ys) {
            let hxy = *mi;
            *mi = hx + y.h_marginal - hxy;
        }
    }
}

/// MI (nats) of a prepared pair with the scalar kernel.
pub fn mi_scalar(x: &PreparedGene, y: &PreparedGene, scratch: &mut MiScratch) -> f64 {
    debug_assert_eq!(scratch.bins, x.sparse.bins());
    sparse_kernel::mi(
        &x.sparse,
        &y.sparse,
        x.h_marginal,
        y.h_marginal,
        &mut scratch.scalar_grid,
    )
}

/// MI (nats) of a prepared pair with the vector kernel: `y` alone at lane
/// 0 of one register group, its joint entropy through `xlogx_sum`.
/// `y_dense` must be the dense expansion of `y`. Plans `x` per call; to
/// evaluate one `x` against many genes, plan it once with
/// [`MiScratch::plan_rows`].
pub fn mi_vector(
    x: &PreparedGene,
    y: &PreparedGene,
    y_dense: &DenseWeights,
    scratch: &mut MiScratch,
) -> f64 {
    let kernels = scratch.kernels;
    let (plan, grid) = scratch.one_gene(x, y_dense);
    let (hx, hy) = (x.h_marginal, y.h_marginal);
    vector_kernel::mi_planned(kernels, plan, &x.sparse, y_dense, None, hx, hy, grid)
}

/// Result of evaluating one pair together with its permutation null.
#[derive(Clone, Debug, PartialEq)]
pub struct PairMi {
    /// MI (nats) of the observed pair.
    pub observed: f64,
    /// MI (nats) of the pair under each null permutation, in permutation
    /// order.
    pub null: Vec<f64>,
}

impl PairMi {
    /// Number of null permutations whose MI reached or exceeded the
    /// observed value — the numerator of the empirical p-value
    /// `(exceed + 1) / (q + 1)`.
    pub fn exceed_count(&self) -> usize {
        self.null.iter().filter(|&&v| v >= self.observed).count()
    }
}

/// Evaluate a pair and its `q` permutation nulls: the observed pairing,
/// then each null. Dispatches on `kernel`; the vector kernel evaluates
/// `y` alone at lane 0 of one register group, as [`mi_vector`] does, so
/// the dense expansion of `y` is only touched (and required to be
/// `Some`) for it. Plans `x` and validates `perms` per call; executors
/// that meet one `x` many times plan it once with
/// [`MiScratch::plan_rows`], against pairings validated once.
///
/// # Panics
/// Panics if `kernel` is [`MiKernel::VectorDense`] and `y_dense` is `None`,
/// or if any permutation has the wrong length or an index out of range.
pub fn mi_with_nulls(
    kernel: MiKernel,
    x: &PreparedGene,
    y: &PreparedGene,
    y_dense: Option<&DenseWeights>,
    perms: &[Vec<u32>],
    scratch: &mut MiScratch,
) -> PairMi {
    let pairings = Pairing::all(perms, x.samples());
    let pairings = std::iter::once(None).chain(pairings.into_iter().map(Some));
    let (hx, hy) = (x.h_marginal, y.h_marginal);
    let mut values: Vec<f64> = match kernel {
        MiKernel::ScalarSparse => {
            let grid = &mut scratch.scalar_grid;
            let (sx, sy) = (&x.sparse, &y.sparse);
            pairings
                .map(|pairing| match pairing {
                    None => sparse_kernel::mi(sx, sy, hx, hy, grid),
                    Some(p) => sparse_kernel::mi_permuted(sx, sy, p.indices(), hx, hy, grid),
                })
                .collect()
        }
        MiKernel::VectorDense => {
            let yd = y_dense.expect("vector kernel requires the dense expansion of y");
            let kernels = scratch.kernels;
            let (plan, grid) = scratch.one_gene(x, yd);
            pairings
                .map(|p| vector_kernel::mi_planned(kernels, plan, &x.sparse, yd, p, hx, hy, grid))
                .collect()
        }
    };
    let null = values.split_off(1);
    PairMi {
        observed: values[0],
        null,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnet_expr::synth;

    fn basis() -> BsplineBasis {
        BsplineBasis::tinge_default()
    }

    fn prepared_pair(seed: u64, m: usize) -> (PreparedGene, PreparedGene) {
        let matrix = synth::independent_gaussian(2, m, seed);
        let b = basis();
        (
            prepare_gene(matrix.gene(0), &b),
            prepare_gene(matrix.gene(1), &b),
        )
    }

    /// `q` distinct null permutations of `m` samples.
    fn strided_perms(q: u32, m: u32) -> Vec<Vec<u32>> {
        (1..=q)
            .map(|r| (0..m).map(|i| (i * (2 * r + 1) + r) % m).collect())
            .collect()
    }

    #[test]
    fn kernels_agree_through_dispatch_layer() {
        let (x, y) = prepared_pair(3, 128);
        let mut scratch = MiScratch::for_basis(&basis());
        let s = mi_scalar(&x, &y, &mut scratch);
        let yd = y.to_dense();
        let v = mi_vector(&x, &y, &yd, &mut scratch);
        assert!((s - v).abs() < 1e-4, "scalar {s} vector {v}");
    }

    #[test]
    fn mi_with_nulls_batches_consistently() {
        let (x, y) = prepared_pair(8, 101);
        let m = 101u32;
        let perms: Vec<Vec<u32>> = (1..4)
            .map(|mult| (0..m).map(|i| (i * (2 * mult + 1)) % m).collect())
            .collect();
        let mut scratch = MiScratch::for_basis(&basis());

        let yd = y.to_dense();
        let scalar = mi_with_nulls(MiKernel::ScalarSparse, &x, &y, None, &perms, &mut scratch);
        let vector = mi_with_nulls(
            MiKernel::VectorDense,
            &x,
            &y,
            Some(&yd),
            &perms,
            &mut scratch,
        );

        assert_eq!(scalar.null.len(), 3);
        assert!((scalar.observed - vector.observed).abs() < 1e-4);
        for (a, b) in scalar.null.iter().zip(&vector.null) {
            assert!((a - b).abs() < 1e-4);
        }
    }

    #[test]
    fn a_row_plan_reproduces_per_call_planning_bitwise() {
        let matrix = synth::independent_gaussian(4, 97, 12);
        let b = basis();
        let genes: Vec<_> = (0..4).map(|g| prepare_gene(matrix.gene(g), &b)).collect();
        let perms = strided_perms(5, 97);
        let pairings = Pairing::all(&perms, 97);
        let dense: Vec<_> = genes.iter().map(PreparedGene::to_dense).collect();
        let mut row_scratch = MiScratch::for_basis(&b);
        let mut rows = row_scratch.plan_rows(MiKernel::VectorDense, &genes[..1], &pairings);
        let mut scratch = MiScratch::for_basis(&b);
        for (y, yd) in genes.iter().zip(&dense).skip(1) {
            let per_call = mi_with_nulls(
                MiKernel::VectorDense,
                &genes[0],
                y,
                Some(yd),
                &perms,
                &mut scratch,
            );
            rows.expand_block(core::slice::from_ref(y));
            let mut row = rows.row(0);
            let mut planned = [0.0];
            row.mi_block(0..1, None, &mut planned);
            assert_eq!(planned[0].to_bits(), per_call.observed.to_bits());
            assert_eq!(
                mi_vector(&genes[0], y, yd, &mut scratch).to_bits(),
                per_call.observed.to_bits()
            );
            for (p, null) in per_call.null.iter().enumerate() {
                row.mi_block(0..1, Some(p), &mut planned);
                assert_eq!(planned[0].to_bits(), null.to_bits(), "null {p}");
            }
            // The one-off joint (a plan of its own) agrees with the row's.
            let mut grid = VectorGrid::for_dense(yd);
            let null0 = vector_kernel::mi_on(
                dispatch::table(),
                &genes[0].sparse,
                yd,
                Some(&perms[0]),
                genes[0].h_marginal,
                y.h_marginal,
                &mut grid,
            );
            assert_eq!(null0.to_bits(), per_call.null[0].to_bits());
        }
    }

    /// The identity, the reversal and a shuffle of `m` samples.
    fn identity_reversed_random(m: u32) -> Vec<Vec<u32>> {
        let mut random: Vec<u32> = (0..m).collect();
        let mut state = 0x2545_f491_4f6c_dd1d_u64;
        for i in (1..random.len()).rev() {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1);
            random.swap(i, (state >> 33) as usize % (i + 1));
        }
        vec![(0..m).collect(), (0..m).rev().collect(), random]
    }

    #[test]
    fn packed_blocks_reproduce_one_gene_blocks_bitwise() {
        // Every column range of a full block and of a partial one, at
        // every order and bin count of the one-register-row layout, on
        // every backend: each value is the one-gene block's, bit for bit.
        let m = 37;
        let matrix = synth::independent_gaussian(66, m, 31);
        let perms = identity_reversed_random(m as u32);
        let pairings = Pairing::all(&perms, m);
        for kernels in dispatch::Backend::ALL
            .into_iter()
            .filter_map(KernelTable::for_backend)
        {
            for order in 1..=8 {
                for bins in order..=16 {
                    let b = BsplineBasis::new(order, bins);
                    let width = vector_kernel::block_columns(order, bins);
                    let genes: Vec<_> = (0..=width)
                        .map(|g| prepare_gene(matrix.gene(g), &b))
                        .collect();
                    let (x, cols) = genes.split_first().expect("a row gene");
                    let mut single = MiScratch::with_kernels(&b, kernels);
                    let one: Vec<PairMi> = cols
                        .iter()
                        .map(|y| {
                            let yd = y.to_dense();
                            mi_with_nulls(
                                MiKernel::VectorDense,
                                x,
                                y,
                                Some(&yd),
                                &perms,
                                &mut single,
                            )
                        })
                        .collect();
                    let mut scratch = MiScratch::with_kernels(&b, kernels);
                    let mut rows = scratch.plan_rows(
                        MiKernel::VectorDense,
                        core::slice::from_ref(x),
                        &pairings,
                    );
                    assert_eq!(rows.block_columns(), width);
                    // The full block, then a partial one from its second gene.
                    for first in [0, 1.min(width - 1)] {
                        let block = &cols[first..];
                        rows.expand_block(block);
                        let mut row = rows.row(0);
                        let mut out = vec![0.0; block.len()];
                        for start in 0..block.len() {
                            for end in start + 1..=block.len() {
                                for pairing in
                                    std::iter::once(None).chain((0..perms.len()).map(Some))
                                {
                                    let out = &mut out[..end - start];
                                    row.mi_block(start..end, pairing, out);
                                    for (v, pair) in out.iter().zip(&one[first + start..]) {
                                        let want = pairing.map_or(pair.observed, |p| pair.null[p]);
                                        assert_eq!(
                                            v.to_bits(),
                                            want.to_bits(),
                                            "{}: k {order}, b {bins}, block from {first}, columns {start}..{end}, {pairing:?}",
                                            kernels.backend
                                        );
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn blocks_reproduce_one_gene_blocks_bitwise() {
        let matrix = synth::independent_gaussian(8, 211, 31);
        let perms = strided_perms(4, 211);
        let pairings = Pairing::all(&perms, 211);
        // Ten bins pack, twenty keep one dense gene per group.
        for (order, bins) in [(1, 10), (3, 10), (4, 10), (6, 10), (3, 20)] {
            let b = BsplineBasis::new(order, bins);
            let genes: Vec<_> = (0..8).map(|g| prepare_gene(matrix.gene(g), &b)).collect();
            let (xs, cols) = genes.split_at(3);
            let mut single = MiScratch::for_basis(&b);
            let one: Vec<Vec<PairMi>> = xs
                .iter()
                .map(|x| {
                    let pair = |y: &PreparedGene| {
                        let yd = y.to_dense();
                        mi_with_nulls(MiKernel::VectorDense, x, y, Some(&yd), &perms, &mut single)
                    };
                    cols.iter().map(pair).collect()
                })
                .collect();
            let mut scratch = MiScratch::for_basis(&b);
            let mut rows = scratch.plan_rows(MiKernel::VectorDense, xs, &pairings);
            for width in 1..=rows.block_columns().min(cols.len()) {
                for start in [0, cols.len() - width] {
                    rows.expand_block(&cols[start..start + width]);
                    for (r, one) in one.iter().enumerate() {
                        let mut row = rows.row(r);
                        let mut block = vec![0.0; width];
                        for pairing in std::iter::once(None).chain((0..perms.len()).map(Some)) {
                            row.mi_block(0..width, pairing, &mut block);
                            for (v, pair) in block.iter().zip(&one[start..]) {
                                let expected = pairing.map_or(pair.observed, |p| pair.null[p]);
                                assert_eq!(
                                    v.to_bits(),
                                    expected.to_bits(),
                                    "k {order}, b {bins}, row {r}, width {width}, pairing {pairing:?}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn tile_rows_plan_each_row_once_and_expand_each_block_once() {
        let matrix = synth::independent_gaussian(13, 64, 3);
        let b = basis();
        let genes: Vec<_> = (0..13).map(|g| prepare_gene(matrix.gene(g), &b)).collect();
        let perms = strided_perms(3, 64);
        let pairings = Pairing::all(&perms, 64);
        let mut scratch = MiScratch::for_basis(&b);
        let mut rows = scratch.plan_rows(MiKernel::VectorDense, &genes[..3], &pairings);
        // Ten columns: a packed block of six, then a partial one of four.
        assert_eq!(rows.block_columns(), 6);
        for block in genes[3..].chunks(rows.block_columns()) {
            rows.expand_block(block);
            for r in 0..3 {
                let mut row = rows.row(r);
                let mut out = vec![0.0; block.len()];
                for pairing in std::iter::once(None).chain((0..3).map(Some)) {
                    row.mi_block(0..block.len(), pairing, &mut out);
                }
            }
        }
        assert_eq!((scratch.plans_built(), scratch.expansions()), (3, 10));
        // Four register groups of 64 rows and their four 10-row grids.
        let groups = 4 * (64 + 10) * 64;
        let plans: usize = scratch.plans[..3].iter().map(RunPlan::heap_bytes).sum();
        assert_eq!(scratch.vector_heap_bytes(), plans + groups);
        // The scalar kernel reads neither plans nor dense rows.
        let _ = scratch.plan_rows(MiKernel::ScalarSparse, &genes, &pairings);
        assert_eq!(scratch.plans_built(), 3);
    }

    #[test]
    #[should_panic(expected = "a block of 7 genes, wider than 6")]
    fn a_block_wider_than_the_packed_layout_is_refused() {
        let matrix = synth::independent_gaussian(8, 20, 3);
        let b = basis();
        let genes: Vec<_> = (0..8).map(|g| prepare_gene(matrix.gene(g), &b)).collect();
        let mut scratch = MiScratch::for_basis(&b);
        let mut rows = scratch.plan_rows(MiKernel::VectorDense, &genes[..1], &[]);
        rows.expand_block(&genes[1..]);
    }

    #[test]
    #[should_panic(expected = "pairing index 64 at sample 5 out of range for 64 samples")]
    fn mi_with_nulls_validates_its_permutations_on_each_call() {
        let (x, y) = prepared_pair(4, 64);
        let yd = y.to_dense();
        let mut bad = strided_perms(2, 64);
        bad[1][5] = 64;
        let mut scratch = MiScratch::for_basis(&basis());
        let _ = mi_with_nulls(MiKernel::VectorDense, &x, &y, Some(&yd), &bad, &mut scratch);
    }

    #[test]
    fn exceed_count_counts_ties_conservatively() {
        let pair = PairMi {
            observed: 0.5,
            null: vec![0.1, 0.5, 0.9, 0.4],
        };
        // Ties count as exceedances (conservative test).
        assert_eq!(pair.exceed_count(), 2);
    }

    #[test]
    #[should_panic(expected = "requires the dense expansion")]
    fn vector_kernel_without_dense_panics() {
        let (x, y) = prepared_pair(4, 32);
        let mut scratch = MiScratch::for_basis(&basis());
        let _ = mi_with_nulls(MiKernel::VectorDense, &x, &y, None, &[], &mut scratch);
    }

    #[test]
    fn coupled_genes_beat_their_null() {
        let (matrix, truth) =
            synth::coupled_pairs(1, 600, gnet_expr::synth::Coupling::Linear(0.95), 17);
        let b = basis();
        let x = prepare_gene(matrix.gene(truth[0].0 as usize), &b);
        let y = prepare_gene(matrix.gene(truth[0].1 as usize), &b);
        let m = 600u32;
        let perms: Vec<Vec<u32>> = (0..20)
            .map(|r| (0..m).map(|i| (i * 7 + r * 13 + 1) % m).collect())
            .collect();
        let mut scratch = MiScratch::for_basis(&b);
        let yd = y.to_dense();
        let res = mi_with_nulls(
            MiKernel::VectorDense,
            &x,
            &y,
            Some(&yd),
            &perms,
            &mut scratch,
        );
        assert_eq!(
            res.exceed_count(),
            0,
            "no null should beat a 0.95-coupled pair"
        );
        assert!(res.observed > 0.3);
    }

    #[test]
    fn scratch_adapts_to_different_layouts() {
        let b10 = BsplineBasis::tinge_default();
        // Order 1 so the I(X,X) = H(X) identity is exact (hard histogram).
        let b20 = BsplineBasis::new(1, 20);
        let g = synth::independent_uniform(1, 50, 5);
        let x10 = prepare_gene(g.gene(0), &b10);
        let x20 = prepare_gene(g.gene(0), &b20);
        let mut scratch = MiScratch::for_basis(&b10);
        let _ = mi_vector(&x10, &x10, &x10.to_dense(), &mut scratch);
        // Switching to a wider layout must transparently reallocate.
        let v = mi_vector(&x20, &x20, &x20.to_dense(), &mut scratch);
        assert!((v - x20.h_marginal).abs() < 1e-3, "I(X,X)=H(X)");
    }
}
