//! Vectorized B-spline MI kernel on the dense (lane-padded) weight layout.
//!
//! The restructuring at the heart of the paper: gene *y*'s per-sample
//! weights are expanded to a dense zero-padded row of `b_padded` floats
//! (one cache line for the TINGe default of 10 bins). The joint-grid update
//! for one sample then becomes `k` *contiguous, unit-stride* row FMAs
//!
//! ```text
//! for i in 0..k:  grid[fx + i][..] += wx[i] · y_row[..]
//! ```
//!
//! with no data-dependent store addresses inside the vector operation —
//! the only indirection left (which grid row) happens at row granularity.
//! This trades `m·k²` scattered scalar multiply-adds for `m·k` row-wide
//! FMAs the vector unit executes at full rate; with `b_padded = 16` each
//! row FMA is exactly one 512-bit instruction on the paper's hardware.
//!
//! On that one-register-row layout (`b ≤ 16`, which covers the TINGe
//! default of 10 bins) the update runs through a kernel table's
//! run-blocked kernel ([`KernelTable::accumulate_runs`]): *x*'s samples
//! are sorted by first bin into a [`RunPlan`], so each run of samples
//! updates the same `k` rows, which stay in registers until the run ends.
//! The null permutations act on the *x* side too ("permute x, not y"):
//! under a null pairing `π` sorted position `t` reads *y*'s row
//! `π[order[t]]`, which the kernel looks up itself, and *y*'s rows stay
//! put. The tile executor plans each *x* gene of a tile once
//! (`MiScratch::plan_rows`) and reuses the plan for every *y* and every
//! pairing it meets, a packed block of [`block_columns`] *y* genes per
//! pass: the genes lie `b` lanes apart across the
//! [`run_block_columns`](gnet_simd::run_block_columns) 16-lane register
//! groups one pass holds (six genes in four groups at b = 10, k = 3,
//! where four one-gene groups held four), so every FMA, y-row load and
//! `x·ln x` vector serves more pairs. The kernel never mixes lanes and
//! the packed entropy ([`KernelTable::xlogx_packed`]) reads each gene's
//! lanes back through `xlogx_sum`'s arithmetic, so a packed gene's MI is
//! bitwise its one-gene group's. [`joint_counts`] and
//! [`joint_counts_permuted`] build a one-off plan per call over one gene
//! at lane 0. Dense rows and grids are cache-line-aligned [`Row16`]s.
//! Wider layouts keep one dense gene per group and a per-sample row
//! loop. The public functions here run on the process's resolved table
//! ([`dispatch::table`]); the scan path runs on the table its `MiScratch`
//! carries.

use crate::entropy::entropy_from_counts_on;
use crate::gene::PreparedGene;
use core::ops::Range;
use gnet_bspline::{DenseWeights, SampleCodes, SparseWeights};
use gnet_simd::dispatch::{self, KernelTable};
use gnet_simd::slice_ops::MAX_PACKED_GROUPS;
use gnet_simd::{F32x16, Pairing, Row16, RunPlan};

/// Lanes of one register group.
const W: usize = F32x16::LANES;

/// Column genes one block holds at spline order `order` and `bins` bins:
/// on the one-register-row layout (`b ≤ 16`), the `⌊16R/b⌋` genes that
/// fit `b` lanes apart in the `R =`
/// [`run_block_columns`](gnet_simd::run_block_columns)`(order)` register
/// groups one pass of the run kernel holds — 6 at b = 10 and k ≤ 3, where
/// four one-gene groups held 4; on wider layouts, `R` genes of their own
/// rows.
pub fn block_columns(order: usize, bins: usize) -> usize {
    let groups = gnet_simd::run_block_columns(order);
    if bins <= W {
        groups * W / bins.max(1)
    } else {
        groups
    }
}

/// Reusable joint-grid scratch for the vector kernel: `bins` rows padded to
/// the dense layout's stride, each starting on a cache line.
#[derive(Clone, Debug)]
pub struct VectorGrid {
    bins: usize,
    stride: usize,
    data: Vec<Row16>,
}

impl VectorGrid {
    /// Allocate a grid compatible with `dense` (same stride).
    pub fn for_dense(dense: &DenseWeights) -> Self {
        Self {
            bins: dense.bins(),
            stride: dense.stride(),
            data: vec![Row16::ZERO; dense.bins() * dense.stride() / W],
        }
    }

    /// Number of (live) bin rows.
    pub fn bins(&self) -> usize {
        self.bins
    }

    /// Padded row stride.
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// The backing slice, rows × stride. Padding columns stay zero, so
    /// entropy over the whole slice equals entropy over the live cells.
    pub fn as_slice(&self) -> &[f32] {
        Row16::flatten(&self.data)
    }

    /// Heap bytes of the grid's rows.
    pub fn heap_bytes(&self) -> usize {
        self.data.len() * core::mem::size_of::<Row16>()
    }

    fn reset(&mut self, dense: &DenseWeights) {
        assert_eq!(self.stride, dense.stride(), "grid/dense stride mismatch");
        assert_eq!(self.bins, dense.bins(), "grid/dense bin mismatch");
        self.data.fill(Row16::ZERO);
    }
}

/// A block of column genes in the layout the vector kernel reads,
/// refilled in place block after block ([`Self::expand`]), with one joint
/// grid per register group.
///
/// On the one-register-row layout (`b ≤ 16`) the genes lie `b` lanes
/// apart: bin `j` of gene `c` is lane `c·b + j` of the groups' lanes read
/// group after group, so group `g`'s row of a sample holds lanes
/// `16g..16g + 16` and a gene may straddle two groups. Lanes past the
/// last gene are zero. The run kernel accumulates every group into its
/// own grid lane by lane, and packed lane `c·b + j` sees exactly the
/// operations lane `j` of gene `c`'s own one-gene group would, so each
/// gene's cells are bitwise its one-gene grid's; the packed entropy
/// ([`KernelTable::xlogx_packed`]) reads each gene's lanes back. Wider
/// layouts keep one dense expansion per gene, each a group of its own.
#[derive(Clone, Debug, Default)]
pub(crate) struct PackedBlock {
    bins: usize,
    /// Floats per sample in one group: 16 when packed, else the gene's
    /// lane-padded bins.
    stride: usize,
    /// Genes in the block.
    columns: usize,
    /// Register groups, `m · stride / 16` rows each; the block's genes
    /// fill the first ones, later ones are buffers of wider blocks.
    groups: Vec<Vec<Row16>>,
    /// One joint grid per group, `b · stride / 16` rows each.
    grids: Vec<Vec<Row16>>,
}

impl PackedBlock {
    /// Make `cols` the block, refilling the groups' rows in place: each
    /// sample's rows are laid out once, from the genes' codes.
    ///
    /// # Panics
    /// Panics if the genes differ in bins or samples, or if more than
    /// [`MAX_PACKED_GROUPS`] groups of packed lanes would be needed.
    pub(crate) fn expand(&mut self, cols: &[PreparedGene]) {
        self.columns = cols.len();
        let Some(first) = cols.first() else {
            return;
        };
        let (b, m) = (first.sparse.bins(), first.samples());
        for g in cols {
            assert_eq!(g.sparse.bins(), b, "genes must share the bin count");
            assert_eq!(g.samples(), m, "genes must share the sample count");
        }
        self.bins = b;
        if b > W {
            self.stride = b.div_ceil(W) * W;
            let per_sample = self.stride / W;
            self.size_groups(cols.len(), m * per_sample);
            for (g, group) in cols.iter().zip(&mut self.groups) {
                for (s, rows) in group.chunks_exact_mut(per_sample).enumerate() {
                    rows.fill(Row16::ZERO);
                    let (fb, w) = (g.sparse.first_bin(s), g.sparse.sample_weights(s));
                    Row16::flatten_mut(rows)[fb..fb + w.len()].copy_from_slice(w);
                }
            }
            return;
        }
        self.stride = W;
        let used = (cols.len() * b).div_ceil(W);
        assert!(
            used <= MAX_PACKED_GROUPS,
            "a block of {} genes of {b} bins overruns {MAX_PACKED_GROUPS} register groups",
            cols.len()
        );
        self.size_groups(used, m);
        for s in 0..m {
            let mut line = [0.0f32; W * MAX_PACKED_GROUPS];
            for (c, g) in cols.iter().enumerate() {
                let (fb, w) = (g.sparse.first_bin(s), g.sparse.sample_weights(s));
                line[c * b + fb..][..w.len()].copy_from_slice(w);
            }
            for (group, lanes) in self.groups[..used].iter_mut().zip(line.chunks_exact(W)) {
                group[s] = Row16(lanes.try_into().expect("a chunk of 16 lanes"));
            }
        }
    }

    /// At least `n` groups, the first `n` of `rows` rows each.
    fn size_groups(&mut self, n: usize, rows: usize) {
        if self.groups.len() < n {
            self.groups.resize_with(n, Vec::new);
        }
        for group in &mut self.groups[..n] {
            group.resize(rows, Row16::ZERO);
        }
    }

    /// Empty the block, keeping its buffers.
    pub(crate) fn clear(&mut self) {
        self.columns = 0;
    }

    /// Heap bytes of the groups' rows and the grids.
    pub(crate) fn heap_bytes(&self) -> usize {
        let rows: usize = self.groups.iter().chain(&self.grids).map(Vec::len).sum();
        rows * core::mem::size_of::<Row16>()
    }

    /// Joint entropies (nats) of a planned `x` against columns `cols` of
    /// the block on `kernels`, into `hxy`, under the observed pairing
    /// (`None`) or a null pairing: one pass of the run kernel over the
    /// register groups the columns span, then their packed entropy, with
    /// `ln m` computed once. Wider layouts run the per-sample row loop
    /// column by column. Each value is bitwise the one a one-gene block
    /// gives ([`mi_planned`]).
    ///
    /// # Panics
    /// Panics if `hxy` is not one per column, the columns are not in the
    /// block, or `x` does not share the block's bins and samples.
    pub(crate) fn joint_entropies(
        &mut self,
        kernels: &KernelTable,
        plan: &RunPlan,
        x: &SparseWeights,
        pairing: Option<Pairing<'_>>,
        cols: Range<usize>,
        hxy: &mut [f64],
    ) {
        assert_eq!(hxy.len(), cols.len(), "one joint entropy per column");
        assert!(
            cols.end <= self.columns,
            "columns {cols:?} of a {}-gene block",
            self.columns
        );
        if cols.is_empty() {
            return;
        }
        let b = self.bins;
        assert_eq!(x.bins(), b, "genes must share the bin count");
        // cast-ok: sample counts are far below f64's 2^53 exact-integer range
        let total = x.samples() as f64;
        if self.stride != W {
            let grid_rows = b * self.stride / W;
            self.size_grids(cols.end, grid_rows);
            let perm = pairing.map(|p| p.indices());
            for (c, h) in cols.zip(hxy) {
                let (y, grid) = (&self.groups[c], &mut self.grids[c]);
                assert_eq!(
                    y.len(),
                    x.samples() * self.stride / W,
                    "genes must share the sample count"
                );
                grid.fill(Row16::ZERO);
                let grid = Row16::flatten_mut(grid);
                per_sample_joint(kernels, x, Row16::flatten(y), self.stride, perm, grid);
                *h = entropy_from_counts_on(kernels, grid, total);
            }
            return;
        }
        let (g0, g1) = (cols.start * b / W, (cols.end * b).div_ceil(W));
        self.size_grids(g1, b);
        let mut y_rows: [&[Row16]; MAX_PACKED_GROUPS] = Default::default();
        let mut grid_rows: [&mut [Row16]; MAX_PACKED_GROUPS] = Default::default();
        let groups = self.groups[g0..g1].iter().zip(&mut self.grids[g0..g1]);
        for ((yr, gr), (y, grid)) in y_rows.iter_mut().zip(grid_rows.iter_mut()).zip(groups) {
            grid.fill(Row16::ZERO);
            (*yr, *gr) = (y, grid);
        }
        let n = g1 - g0;
        (kernels.accumulate_runs)(plan, pairing, &y_rows[..n], &mut grid_rows[..n]);
        let grids: [&[Row16]; MAX_PACKED_GROUPS] = core::array::from_fn(|g| &*grid_rows[g]);
        let mut sums = [0.0f32; W * MAX_PACKED_GROUPS];
        let sums = &mut sums[..hxy.len()];
        (kernels.xlogx_packed)(&grids[..n], cols.start * b - g0 * W, b, sums);
        let ln_m = total.ln();
        for (h, &s) in hxy.iter_mut().zip(sums.iter()) {
            *h = ln_m - f64::from(s) / total;
        }
    }

    /// At least `n` grids, the first `n` of `rows` rows each.
    fn size_grids(&mut self, n: usize, rows: usize) {
        if self.grids.len() < n {
            self.grids.resize_with(n, Vec::new);
        }
        for grid in &mut self.grids[..n] {
            grid.resize(rows, Row16::ZERO);
        }
    }
}

/// Whether `y`'s dense layout is the one-register-row layout the
/// run-blocked kernel handles (`stride == 16`, i.e. `b ≤ 16`).
pub(crate) fn fits_run_kernel(y: &DenseWeights) -> bool {
    y.stride() == W
}

/// Plan `x` for the run-blocked kernel, reusing `plan`'s buffers.
pub(crate) fn plan_runs(x: &SparseWeights, plan: &mut RunPlan) {
    let (table, k, b) = (x.table(), x.order(), x.bins());
    let (first_bins, weights) = (table.first_bins(), table.weights());
    match x.codes() {
        SampleCodes::Narrow(c) => plan.rebuild(c, first_bins, weights, k, b),
        SampleCodes::Wide(c) => plan.rebuild(c, first_bins, weights, k, b),
    }
}

/// The per-sample row loop of layouts wider than one register: for each
/// sample `s` of `x`, `k` row-wide FMAs of *y*'s row `perm[s]` (or `s`),
/// `stride` floats each, into the zeroed `grid`.
fn per_sample_joint(
    kernels: &KernelTable,
    x: &SparseWeights,
    y_rows: &[f32],
    stride: usize,
    perm: Option<&[u32]>,
    grid: &mut [f32],
) {
    for s in 0..x.samples() {
        let fx = x.first_bin(s);
        let y = perm.map_or(s, |p| p[s] as usize); // cast-ok: u32 to usize widens losslessly
        let y_row = &y_rows[y * stride..(y + 1) * stride];
        for (i, &wxi) in x.sample_weights(s).iter().enumerate() {
            // Row-wide FMA: one padded row of y scaled by one x weight.
            let row = fx + i;
            (kernels.axpy)(wxi, y_row, &mut grid[row * stride..(row + 1) * stride]);
        }
    }
}

/// Accumulate the unnormalized joint grid of `x`, planned as `plan` on
/// the one-register-row layout, against one dense `y` on `kernels`, under
/// the observed pairing (`None`) or a null pairing: a block of one
/// register group for the run kernel, the per-sample row loop on wider
/// layouts (which read no plan).
///
/// # Panics
/// Panics on shape disagreements between the plan, `x`, `y`, `grid` and
/// the pairing.
fn joint_counts_planned(
    kernels: &KernelTable,
    plan: &RunPlan,
    x: &SparseWeights,
    y: &DenseWeights,
    pairing: Option<Pairing<'_>>,
    grid: &mut VectorGrid,
) {
    check_pair(x, y);
    grid.reset(y);
    if fits_run_kernel(y) {
        (kernels.accumulate_runs)(plan, pairing, &[y.rows16()], &mut [&mut grid.data]);
        return;
    }
    let perm = pairing.map(|p| p.indices());
    let grid = Row16::flatten_mut(&mut grid.data);
    per_sample_joint(kernels, x, y.as_slice(), y.stride(), perm, grid);
}

/// Accumulate the unnormalized joint grid of sparse-`x` against dense-`y`.
///
/// # Panics
/// Panics on shape disagreements between `x`, `y`, and `grid`.
pub fn joint_counts(x: &SparseWeights, y: &DenseWeights, grid: &mut VectorGrid) {
    joint_counts_on(dispatch::table(), x, y, None, grid);
}

/// As [`joint_counts`] but pairing sample `s` of `x` with sample `perm[s]`
/// of `y`. `perm` is validated on each call.
///
/// # Panics
/// As [`joint_counts`], plus if `perm.len()` differs from the sample count
/// or an index of `perm` is out of range.
pub fn joint_counts_permuted(
    x: &SparseWeights,
    y: &DenseWeights,
    perm: &[u32],
    grid: &mut VectorGrid,
) {
    joint_counts_on(dispatch::table(), x, y, Some(perm), grid);
}

/// The joint grid of `x` against `y` on `kernels`, pairing sample `s` of
/// `x` with sample `perm[s]` of `y` when `perm` is given: a one-off plan
/// on the one-register-row layout, the per-sample row loop on wider ones.
///
/// # Panics
/// As [`joint_counts_permuted`].
fn joint_counts_on(
    kernels: &KernelTable,
    x: &SparseWeights,
    y: &DenseWeights,
    perm: Option<&[u32]>,
    grid: &mut VectorGrid,
) {
    check_pair(x, y);
    let pairing = perm.map(|p| Pairing::new(p, x.samples()));
    let mut plan = RunPlan::new();
    if fits_run_kernel(y) {
        plan_runs(x, &mut plan);
    }
    joint_counts_planned(kernels, &plan, x, y, pairing, grid);
}

/// Mutual information (nats) of `x` against `y` on `kernels`, given
/// precomputed marginal entropies, pairing sample `s` of `x` with sample
/// `perm[s]` of `y` when `perm` is given (`hy` is the unpermuted marginal
/// entropy, which a permutation leaves unchanged). A one-off plan per
/// call: the tests' reference for planned joints.
#[cfg(test)]
pub(crate) fn mi_on(
    kernels: &KernelTable,
    x: &SparseWeights,
    y: &DenseWeights,
    perm: Option<&[u32]>,
    hx: f64,
    hy: f64,
    grid: &mut VectorGrid,
) -> f64 {
    joint_counts_on(kernels, x, y, perm, grid);
    // cast-ok: sample counts are far below f64's 2^53 exact-integer range
    let hxy = entropy_from_counts_on(kernels, grid.as_slice(), x.samples() as f64);
    hx + hy - hxy
}

/// Mutual information (nats) of `x`, planned as `plan`, against one dense
/// `y` on `kernels` under the observed pairing (`None`) or a null
/// pairing: `y` alone at lane 0 of one register group (or the per-sample
/// row loop on wider layouts), its joint entropy through `xlogx_sum`.
/// The per-call helpers' path, and the reference a packed block's
/// columns reproduce bitwise.
///
/// # Panics
/// As [`joint_counts_planned`].
#[allow(clippy::too_many_arguments)]
pub(crate) fn mi_planned(
    kernels: &KernelTable,
    plan: &RunPlan,
    x: &SparseWeights,
    y: &DenseWeights,
    pairing: Option<Pairing<'_>>,
    hx: f64,
    hy: f64,
    grid: &mut VectorGrid,
) -> f64 {
    joint_counts_planned(kernels, plan, x, y, pairing, grid);
    // cast-ok: sample counts are far below f64's 2^53 exact-integer range
    let hxy = entropy_from_counts_on(kernels, grid.as_slice(), x.samples() as f64);
    hx + hy - hxy
}

fn check_pair(x: &SparseWeights, y: &DenseWeights) {
    assert_eq!(
        x.samples(),
        y.samples(),
        "genes must share the sample count"
    );
    assert_eq!(x.bins(), y.bins(), "genes must share the bin count");
    assert!(x.samples() > 0, "cannot compute MI over zero samples");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entropy::entropy_nats;
    use crate::sparse_kernel;
    use gnet_bspline::BsplineBasis;
    use gnet_expr::normalize::rank_transform_profile;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn prep(values: &[f32], basis: &BsplineBasis) -> SparseWeights {
        SparseWeights::from_normalized(&rank_transform_profile(values), basis)
    }

    /// The vector kernel's MI on the process's table.
    fn vector_mi(
        x: &SparseWeights,
        y: &DenseWeights,
        perm: Option<&[u32]>,
        hx: f64,
        hy: f64,
        grid: &mut VectorGrid,
    ) -> f64 {
        mi_on(dispatch::table(), x, y, perm, hx, hy, grid)
    }

    fn random_profiles(seed: u64, m: usize) -> (Vec<f32>, Vec<f32>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a: Vec<f32> = (0..m).map(|_| rng.gen::<f32>()).collect();
        let b: Vec<f32> = (0..m).map(|_| rng.gen::<f32>()).collect();
        (a, b)
    }

    #[test]
    fn vector_kernel_matches_scalar_kernel() {
        let basis = BsplineBasis::tinge_default();
        for m in [1usize, 5, 16, 17, 100, 333] {
            let (a, b) = random_profiles(m as u64, m);
            let x = prep(&a, &basis);
            let y = prep(&b, &basis);
            let hx = entropy_nats(&x.marginal());
            let hy = entropy_nats(&y.marginal());

            let mut sgrid = vec![0.0; 100];
            let scalar = sparse_kernel::mi(&x, &y, hx, hy, &mut sgrid);

            let yd = y.to_dense();
            let mut vgrid = VectorGrid::for_dense(&yd);
            let vector = vector_mi(&x, &yd, None, hx, hy, &mut vgrid);

            assert!(
                (scalar - vector).abs() < 1e-4,
                "m={m}: scalar {scalar} vs vector {vector}"
            );
        }
    }

    #[test]
    fn permuted_kernels_match_each_other() {
        let basis = BsplineBasis::new(4, 12);
        let m = 97u32; // prime
        let (a, b) = random_profiles(1234, m as usize);
        let x = prep(&a, &basis);
        let y = prep(&b, &basis);
        let hx = entropy_nats(&x.marginal());
        let hy = entropy_nats(&y.marginal());
        let perm: Vec<u32> = (0..m).map(|i| (i * 29) % m).collect();

        let mut sgrid = vec![0.0; 144];
        let scalar = sparse_kernel::mi_permuted(&x, &y, &perm, hx, hy, &mut sgrid);

        let yd = y.to_dense();
        let mut vgrid = VectorGrid::for_dense(&yd);
        let vector = vector_mi(&x, &yd, Some(&perm), hx, hy, &mut vgrid);

        assert!(
            (scalar - vector).abs() < 1e-4,
            "scalar {scalar} vs vector {vector}"
        );
    }

    #[test]
    fn permuted_y_equals_materialized_permuted_dense() {
        // Reading through the perm index must equal physically permuting
        // the dense rows first.
        let basis = BsplineBasis::tinge_default();
        let m = 53u32;
        let (a, b) = random_profiles(9, m as usize);
        let x = prep(&a, &basis);
        let y = prep(&b, &basis);
        let hx = entropy_nats(&x.marginal());
        let hy = entropy_nats(&y.marginal());
        let perm: Vec<u32> = (0..m).map(|i| (i * 23) % m).collect();

        let yd = y.to_dense();
        let mut g1 = VectorGrid::for_dense(&yd);
        let via_index = vector_mi(&x, &yd, Some(&perm), hx, hy, &mut g1);

        // Materialized: the profile permuted before preparation, so
        // y_perm[s] = y[perm[s]] pairs x[s] with y[perm[s]].
        let b_perm: Vec<f32> = perm.iter().map(|&s| b[s as usize]).collect();
        let yd_mat = prep(&b_perm, &basis).to_dense();
        let mut g2 = VectorGrid::for_dense(&yd_mat);
        let via_copy = vector_mi(&x, &yd_mat, None, hx, hy, &mut g2);

        assert!((via_index - via_copy).abs() < 1e-6);
    }

    #[test]
    fn grid_mass_is_sample_count() {
        let basis = BsplineBasis::tinge_default();
        let (a, b) = random_profiles(2, 41);
        let x = prep(&a, &basis);
        let yd = prep(&b, &basis).to_dense();
        let mut grid = VectorGrid::for_dense(&yd);
        joint_counts(&x, &yd, &mut grid);
        let mass: f32 = grid.as_slice().iter().sum();
        assert!((mass - 41.0).abs() < 1e-4);
    }

    #[test]
    fn grid_rows_start_on_cache_lines() {
        let basis = BsplineBasis::tinge_default();
        let (a, _) = random_profiles(3, 20);
        let yd = prep(&a, &basis).to_dense();
        let grid = VectorGrid::for_dense(&yd);
        for copy in [&grid, &grid.clone()] {
            let rows = copy.as_slice().chunks_exact(copy.stride());
            assert!(rows
                .into_iter()
                .all(|r| (r.as_ptr() as usize).is_multiple_of(64)));
        }
    }

    #[test]
    fn padding_columns_stay_zero() {
        let basis = BsplineBasis::tinge_default();
        let (a, b) = random_profiles(5, 29);
        let x = prep(&a, &basis);
        let yd = prep(&b, &basis).to_dense();
        let mut grid = VectorGrid::for_dense(&yd);
        joint_counts(&x, &yd, &mut grid);
        for r in 0..grid.bins() {
            let row = &grid.as_slice()[r * grid.stride()..(r + 1) * grid.stride()];
            for &v in &row[grid.bins()..] {
                assert_eq!(v, 0.0, "padding must stay zero");
            }
        }
    }

    #[test]
    fn scratch_reuse_is_clean_across_pairs() {
        // Computing pair A, then pair B, must give the same result as a
        // fresh grid for B (reset correctness).
        let basis = BsplineBasis::tinge_default();
        let (a, b) = random_profiles(6, 64);
        let (c, _) = random_profiles(7, 64);
        let x = prep(&a, &basis);
        let y = prep(&b, &basis);
        let z = prep(&c, &basis);
        let hx = entropy_nats(&x.marginal());
        let hy = entropy_nats(&y.marginal());
        let hz = entropy_nats(&z.marginal());

        let yd = y.to_dense();
        let zd = z.to_dense();
        let mut reused = VectorGrid::for_dense(&yd);
        let _ = vector_mi(&x, &yd, None, hx, hy, &mut reused);
        let second = vector_mi(&x, &zd, None, hx, hz, &mut reused);

        let mut fresh = VectorGrid::for_dense(&zd);
        let direct = vector_mi(&x, &zd, None, hx, hz, &mut fresh);
        assert_eq!(second, direct);
    }

    #[test]
    #[should_panic(expected = "pairing index 41 at sample 3 out of range for 41 samples")]
    fn joint_counts_permuted_validates_its_permutation_on_each_call() {
        let basis = BsplineBasis::tinge_default();
        let (a, b) = random_profiles(8, 41);
        let (x, yd) = (prep(&a, &basis), prep(&b, &basis).to_dense());
        let mut perm: Vec<u32> = (0..41).rev().collect();
        let mut grid = VectorGrid::for_dense(&yd);
        joint_counts_permuted(&x, &yd, &perm, &mut grid);
        perm[3] = 41;
        joint_counts_permuted(&x, &yd, &perm, &mut grid);
    }

    #[test]
    #[should_panic(expected = "share the bin count")]
    fn mismatched_bins_panic() {
        let x = prep(&[1.0, 2.0, 3.0], &BsplineBasis::new(3, 10));
        let yd = prep(&[1.0, 2.0, 3.0], &BsplineBasis::new(3, 12)).to_dense();
        let mut grid = VectorGrid::for_dense(&yd);
        joint_counts(&x, &yd, &mut grid);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn prop_scalar_vector_equivalence(
            seed in 0u64..1000,
            m in 2usize..150,
            order in 1usize..=4,
        ) {
            let basis = BsplineBasis::new(order, 10);
            let (a, b) = random_profiles(seed, m);
            let x = prep(&a, &basis);
            let y = prep(&b, &basis);
            let hx = entropy_nats(&x.marginal());
            let hy = entropy_nats(&y.marginal());
            let mut sgrid = vec![0.0; 100];
            let scalar = sparse_kernel::mi(&x, &y, hx, hy, &mut sgrid);
            let yd = y.to_dense();
            let mut vgrid = VectorGrid::for_dense(&yd);
            let vector = vector_mi(&x, &yd, None, hx, hy, &mut vgrid);
            prop_assert!((scalar - vector).abs() < 2e-4,
                "scalar {} vs vector {}", scalar, vector);
        }

        #[test]
        fn prop_grid_padding_stays_zero_after_kernel(
            seed in 0u64..500,
            m in 2usize..150,
            order in 1usize..=4,
        ) {
            // The row-FMA loop accumulates wx·y_row over *padded* rows, so
            // the grid's padding columns receive only wx·0 contributions.
            // `mi` takes entropy over the whole padded slice on that
            // premise; if padding ever went nonzero (the exact corruption
            // the dropped-padding-zeroing mutation injects) every MI value
            // would silently shift. Checked bitwise, observed and permuted
            // paths alike, across a scratch-reuse cycle.
            let basis = BsplineBasis::new(order, 10);
            let (a, b) = random_profiles(seed, m);
            let x = prep(&a, &basis);
            let y = prep(&b, &basis);
            let yd = y.to_dense();
            let mut grid = VectorGrid::for_dense(&yd);
            let perm: Vec<u32> = (0..m as u32).rev().collect();
            joint_counts(&x, &yd, &mut grid);
            joint_counts_permuted(&x, &yd, &perm, &mut grid);
            joint_counts(&x, &yd, &mut grid);
            let (bins, stride) = (grid.bins(), grid.stride());
            for (idx, &v) in grid.as_slice().iter().enumerate() {
                if idx % stride >= bins {
                    prop_assert!(
                        v.to_bits() == 0.0f32.to_bits(),
                        "padding cell {idx} holds {v} after the kernel"
                    );
                }
            }
        }

        #[test]
        fn prop_mi_nonnegative(seed in 0u64..500, m in 4usize..200) {
            let basis = BsplineBasis::tinge_default();
            let (a, b) = random_profiles(seed, m);
            let x = prep(&a, &basis);
            let yd = prep(&b, &basis).to_dense();
            let hx = entropy_nats(&x.marginal());
            let hy = entropy_nats(&yd.marginal());
            let mut grid = VectorGrid::for_dense(&yd);
            let v = vector_mi(&x, &yd, None, hx, hy, &mut grid);
            // Plug-in MI with marginals equal to the joint's own marginals
            // is a KL divergence ⇒ non-negative up to float rounding.
            prop_assert!(v > -1e-3, "MI {} went negative", v);
        }
    }
}
