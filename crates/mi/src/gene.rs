//! Per-gene preparation and the kernel-dispatch layer the pipeline uses.
//!
//! Preparation happens once per gene (rank codes into a B-spline weight
//! table the run's genes share, plus the marginal entropy) and is reused
//! for all `n−1` pairs the gene participates in — the amortization that
//! makes whole-genome runs feasible and that the tiling layer is built
//! around. Gene contexts keep only the coded *sparse* form; the dense
//! expansion the vector kernel needs is materialized one block of column
//! genes at a time by the executor ([`TileRows::expand_block`]), which is
//! how the paper bounds the working set to the L2 cache. Symmetrically,
//! the vector kernel's run plan of each row gene of a tile is built once
//! ([`MiScratch::plan_rows`]) and shared by every pair and every null
//! pairing of the row. A planned row has one evaluation method,
//! [`PlannedRow::mi_block`]: one pairing (the observed one or one null)
//! for a whole block; the null tests that read it live in the tile scan.
//! [`mi_vector`] and [`mi_with_nulls`] are one-column blocks over a plan
//! built per call, for oracles and benchmarks. Each scratch carries the
//! SIMD [`KernelTable`] its joints run on.

use crate::entropy::entropy_nats;
use crate::sparse_kernel;
use crate::vector_kernel::{self, VectorGrid};
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
    /// One joint grid per column of the widest block met so far, all of
    /// one dense layout.
    vector_grids: Vec<VectorGrid>,
    /// The vector kernel's run plans of the current tile's row genes, one
    /// per row ([`Self::plan_rows`]).
    plans: Vec<RunPlan>,
    /// Dense expansions of the current block of column genes in the first
    /// `block_len` entries; the rest are buffers the next block refills.
    block: Vec<DenseWeights>,
    block_len: usize,
    /// Row plans built so far.
    plans_built: u64,
    /// Column genes expanded into the dense layout so far.
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
            vector_grids: Vec::new(),
            plans: Vec::new(),
            block: Vec::new(),
            block_len: 0,
            plans_built: 0,
            expansions: 0,
            bins: b,
        }
    }

    /// Heap bytes of the vector kernel's buffers: the row plans, the
    /// block's dense expansions and the joint grids.
    pub fn vector_heap_bytes(&self) -> usize {
        self.plans.iter().map(RunPlan::heap_bytes).sum::<usize>()
            + self
                .block
                .iter()
                .map(DenseWeights::heap_bytes)
                .sum::<usize>()
            + self
                .vector_grids
                .iter()
                .map(VectorGrid::heap_bytes)
                .sum::<usize>()
    }

    /// Row plans this scratch has built ([`Self::plan_rows`]).
    pub fn plans_built(&self) -> u64 {
        self.plans_built
    }

    /// Column genes this scratch has expanded into the dense layout
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
        self.block_len = 0;
        TileRows {
            kernel,
            rows,
            pairings,
            scratch: self,
        }
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
}

impl TileRows<'_> {
    /// Column genes per block the rows are best evaluated in: the run
    /// kernel's [`run_block_columns`](gnet_simd::run_block_columns) at the
    /// row genes' spline order. Derived from the order alone; any block
    /// width gives the same values.
    pub fn block_columns(&self) -> usize {
        gnet_simd::run_block_columns(self.rows.first().map_or(1, |x| x.sparse.order()))
    }

    /// Make `cols` the block the rows meet: for the vector kernel, expand
    /// each gene into the dense layout, refilling the buffers of earlier
    /// blocks in place.
    pub fn expand_block(&mut self, cols: &[PreparedGene]) {
        let scratch = &mut *self.scratch;
        scratch.block_len = 0;
        if self.kernel != MiKernel::VectorDense {
            return;
        }
        for (i, g) in cols.iter().enumerate() {
            match scratch.block.get_mut(i) {
                Some(d) => g.sparse.expand_into(d),
                None => scratch.block.push(g.to_dense()),
            }
        }
        scratch.block_len = cols.len();
        scratch.expansions += cols.len() as u64;
    }

    /// Row `r`'s planned row, and the dense expansions of the current
    /// block (empty for the scalar kernel), in the order of its genes.
    ///
    /// # Panics
    /// Panics if `r` is not one of the planned rows.
    pub fn row(&mut self, r: usize) -> (PlannedRow<'_>, &[DenseWeights]) {
        let MiScratch {
            kernels,
            scalar_grid,
            vector_grids,
            plans,
            block,
            block_len,
            ..
        } = &mut *self.scratch;
        let row = PlannedRow {
            kernel: self.kernel,
            x: &self.rows[r],
            plan: &plans[r],
            pairings: self.pairings,
            kernels,
            scalar_grid,
            vector_grids,
        };
        (row, &block[..*block_len])
    }
}

/// `columns` grids of `dense`'s layout out of `slot`, reallocated if they
/// have another layout.
fn vector_grids_for<'g>(
    slot: &'g mut Vec<VectorGrid>,
    dense: &DenseWeights,
    columns: usize,
) -> &'g mut [VectorGrid] {
    if slot
        .first()
        .is_some_and(|g| g.bins() != dense.bins() || g.stride() != dense.stride())
    {
        slot.clear();
    }
    while slot.len() < columns {
        slot.push(VectorGrid::for_dense(dense));
    }
    &mut slot[..columns]
}

/// A row gene `x` planned once for all the pairs and null pairings it is
/// evaluated in ([`TileRows::row`]).
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
    vector_grids: &'a mut Vec<VectorGrid>,
}

impl PlannedRow<'_> {
    /// MI (nats) of the row gene against each gene of the block `ys`
    /// under one pairing, into `out`: the observed pairing for `None`,
    /// null pairing `p` for `Some(p)`. The joint runs for the whole block
    /// in one pass over the row's plan, and each gene's value is that of
    /// a one-gene block. `dense` holds the dense expansions of `ys`, one
    /// each, for the vector kernel, and may be empty for the scalar one.
    ///
    /// # Panics
    /// Panics if `out` is not one per gene, if the kernel is
    /// [`MiKernel::VectorDense`] and `dense` is not one per gene, on a
    /// shape mismatch between the genes or with the pairing, or if there
    /// is no null pairing `p`.
    pub fn mi_block(
        &mut self,
        ys: &[PreparedGene],
        dense: &[DenseWeights],
        pairing: Option<usize>,
        out: &mut [f64],
    ) {
        assert_eq!(out.len(), ys.len(), "one MI per column gene");
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
        assert_eq!(
            dense.len(),
            ys.len(),
            "vector kernel requires the dense expansion of y"
        );
        let Some(first) = dense.first() else {
            return;
        };
        let grids = vector_grids_for(
            self.vector_grids,
            first,
            ys.len().min(vector_kernel::MAX_BLOCK),
        );
        if !vector_kernel::fits_run_kernel(first) {
            let perm = pairing.map(|p| p.indices());
            for ((y, yd), mi) in ys.iter().zip(dense).zip(out.iter_mut()) {
                let (hy, grid) = (y.h_marginal, &mut grids[0]);
                *mi = vector_kernel::mi_on(self.kernels, &x.sparse, yd, perm, hx, hy, grid);
            }
            return;
        }
        assert_eq!(
            x.sparse.bins(),
            first.bins(),
            "genes must share the bin count"
        );
        let chunks = ys
            .chunks(vector_kernel::MAX_BLOCK)
            .zip(dense.chunks(vector_kernel::MAX_BLOCK));
        for ((ys, dense), out) in chunks.zip(out.chunks_mut(vector_kernel::MAX_BLOCK)) {
            let grids = &mut grids[..ys.len()];
            let (kernels, plan) = (self.kernels, self.plan);
            vector_kernel::joint_entropies_planned(kernels, plan, pairing, dense, grids, out);
            for (mi, y) in out.iter_mut().zip(ys) {
                let hxy = *mi;
                *mi = hx + y.h_marginal - hxy;
            }
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

/// MI (nats) of a prepared pair with the vector kernel. `y_dense` must be
/// the dense expansion of `y`. Plans `x` per call; to evaluate one `x`
/// against many genes, plan it once with [`MiScratch::plan_rows`].
pub fn mi_vector(
    x: &PreparedGene,
    y: &PreparedGene,
    y_dense: &DenseWeights,
    scratch: &mut MiScratch,
) -> f64 {
    let mut mi = [0.0];
    let mut rows = scratch.plan_rows(MiKernel::VectorDense, core::slice::from_ref(x), &[]);
    rows.row(0).0.mi_block(
        core::slice::from_ref(y),
        core::slice::from_ref(y_dense),
        None,
        &mut mi,
    );
    mi[0]
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
/// then each null, as one-column blocks of one planned row. Dispatches on
/// `kernel`; the dense expansion of `y` is only touched (and required to
/// be `Some`) for the vector kernel. Plans `x` and validates `perms` per
/// call; executors that meet one `x` many times plan it once with
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
    let (ys, dense) = (
        core::slice::from_ref(y),
        y_dense.map_or(&[][..], core::slice::from_ref),
    );
    let pairings = Pairing::all(perms, x.samples());
    let mut rows = scratch.plan_rows(kernel, core::slice::from_ref(x), &pairings);
    let (mut row, _) = rows.row(0);
    let mut mi = |pairing| {
        let mut value = [0.0];
        row.mi_block(ys, dense, pairing, &mut value);
        value[0]
    };
    PairMi {
        observed: mi(None),
        null: (0..perms.len()).map(|p| mi(Some(p))).collect(),
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
        let (mut row, _) = rows.row(0);
        let mut scratch = MiScratch::for_basis(&b);
        for (y, yd) in genes.iter().zip(&dense).skip(1) {
            let (ys, ds) = (core::slice::from_ref(y), core::slice::from_ref(yd));
            let per_call = mi_with_nulls(
                MiKernel::VectorDense,
                &genes[0],
                y,
                Some(yd),
                &perms,
                &mut scratch,
            );
            let mut planned = [0.0];
            row.mi_block(ys, ds, None, &mut planned);
            assert_eq!(planned[0].to_bits(), per_call.observed.to_bits());
            assert_eq!(
                mi_vector(&genes[0], y, yd, &mut scratch).to_bits(),
                per_call.observed.to_bits()
            );
            for (p, null) in per_call.null.iter().enumerate() {
                row.mi_block(ys, ds, Some(p), &mut planned);
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

    #[test]
    fn blocks_reproduce_one_gene_blocks_bitwise() {
        let matrix = synth::independent_gaussian(8, 211, 31);
        let perms = strided_perms(4, 211);
        let pairings = Pairing::all(&perms, 211);
        for order in [1, 3, 4, 6] {
            let b = BsplineBasis::new(order, 10);
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
            for width in 1..=rows.block_columns() {
                for start in [0, cols.len() - width] {
                    rows.expand_block(&cols[start..start + width]);
                    for (r, one) in one.iter().enumerate() {
                        let (mut row, dense) = rows.row(r);
                        let ys = &cols[start..start + width];
                        let mut block = vec![0.0; width];
                        for pairing in std::iter::once(None).chain((0..perms.len()).map(Some)) {
                            row.mi_block(ys, dense, pairing, &mut block);
                            for (v, pair) in block.iter().zip(&one[start..]) {
                                let expected = pairing.map_or(pair.observed, |p| pair.null[p]);
                                assert_eq!(
                                    v.to_bits(),
                                    expected.to_bits(),
                                    "k {order}, row {r}, width {width}, pairing {pairing:?}"
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
        let matrix = synth::independent_gaussian(7, 64, 3);
        let b = basis();
        let genes: Vec<_> = (0..7).map(|g| prepare_gene(matrix.gene(g), &b)).collect();
        let perms = strided_perms(3, 64);
        let pairings = Pairing::all(&perms, 64);
        let mut scratch = MiScratch::for_basis(&b);
        let mut rows = scratch.plan_rows(MiKernel::VectorDense, &genes[..3], &pairings);
        for block in genes[3..].chunks(rows.block_columns()) {
            rows.expand_block(block);
            for r in 0..3 {
                let (mut row, dense) = rows.row(r);
                let mut out = vec![0.0; block.len()];
                for pairing in std::iter::once(None).chain((0..3).map(Some)) {
                    row.mi_block(block, dense, pairing, &mut out);
                }
            }
        }
        assert_eq!((scratch.plans_built(), scratch.expansions()), (3, 4));
        // The scalar kernel reads neither plans nor dense rows.
        let _ = scratch.plan_rows(MiKernel::ScalarSparse, &genes, &pairings);
        assert_eq!(scratch.plans_built(), 3);
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
