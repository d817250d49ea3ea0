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
//! default of 10 bins) the update runs through the dispatched run-blocked
//! kernel ([`accumulate_runs`]): *x*'s samples are sorted by first bin
//! into a [`RunPlan`], so each run of samples updates the same `k` rows,
//! which stay in registers until the run ends. The null permutations are
//! planned on the *x* side too ("permute x, not y"): each one is a
//! composed list of *y* row indices, and *y*'s rows stay put. The tile
//! executor plans each *x* gene once (`MiScratch::plan_row`) and reuses
//! the plan for every *y* it meets; [`joint_counts`] and
//! [`joint_counts_permuted`] build a one-off plan per call. Wider layouts
//! fall back to a per-sample row loop.

use crate::entropy::entropy_from_counts;
use gnet_bspline::{DenseWeights, SparseWeights};
use gnet_simd::slice_ops::{accumulate_runs, axpy};
use gnet_simd::{F32x16, RunPlan};

/// Reusable joint-grid scratch for the vector kernel: `bins` rows padded to
/// the dense layout's stride.
#[derive(Clone, Debug)]
pub struct VectorGrid {
    bins: usize,
    stride: usize,
    data: Vec<f32>,
}

impl VectorGrid {
    /// Allocate a grid compatible with `dense` (same stride).
    pub fn for_dense(dense: &DenseWeights) -> Self {
        Self {
            bins: dense.bins(),
            stride: dense.stride(),
            data: vec![0.0; dense.bins() * dense.stride()],
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
        &self.data
    }

    fn reset(&mut self, dense: &DenseWeights) {
        assert_eq!(self.stride, dense.stride(), "grid/dense stride mismatch");
        assert_eq!(self.bins, dense.bins(), "grid/dense bin mismatch");
        self.data.fill(0.0);
    }

    #[inline(always)]
    fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.stride..(r + 1) * self.stride]
    }
}

/// Whether `y`'s dense layout is the one-register-row layout the
/// run-blocked kernel handles (`stride == 16`, i.e. `b ≤ 16`).
pub(crate) fn fits_run_kernel(y: &DenseWeights) -> bool {
    y.stride() == F32x16::LANES
}

/// Plan `x` for the run-blocked kernel with room for `permutations` null
/// lists (composed later, [`RunPlan::compose`]), reusing `plan`'s buffers.
pub(crate) fn plan_runs(x: &SparseWeights, permutations: usize, plan: &mut RunPlan) {
    plan.rebuild(
        x.first_bins_flat(),
        x.weights_flat(),
        x.order(),
        x.bins(),
        permutations,
    );
}

/// Accumulate the unnormalized joint grid of a planned `x` against
/// dense-`y`: the identity pairing for `perm == None`, the planned
/// permutation `p` for `Some(p)`. `y` must have the one-register-row
/// layout ([`fits_run_kernel`]).
///
/// # Panics
/// Panics if the plan's shapes disagree with `y` or `grid`, or `perm`
/// names a permutation whose list is not composed.
fn joint_counts_planned(
    plan: &RunPlan,
    perm: Option<usize>,
    y: &DenseWeights,
    grid: &mut VectorGrid,
) {
    grid.reset(y);
    accumulate_runs(&mut grid.data, plan, perm, y.as_slice());
}

/// Accumulate the unnormalized joint grid of sparse-`x` against dense-`y`.
///
/// # Panics
/// Panics on shape disagreements between `x`, `y`, and `grid`.
pub fn joint_counts(x: &SparseWeights, y: &DenseWeights, grid: &mut VectorGrid) {
    check_pair(x, y);
    if fits_run_kernel(y) {
        let mut plan = RunPlan::new();
        plan_runs(x, 0, &mut plan);
        joint_counts_planned(&plan, None, y, grid);
        return;
    }
    grid.reset(y);
    for s in 0..x.samples() {
        let fx = x.first_bin(s);
        let wx = x.sample_weights(s);
        let y_row = y.row(s);
        for (i, &wxi) in wx.iter().enumerate() {
            // Row-wide FMA: one padded row of y scaled by one x weight.
            axpy(wxi, y_row, grid.row_mut(fx + i));
        }
    }
}

/// As [`joint_counts`] but pairing sample `s` of `x` with sample `perm[s]`
/// of `y`.
///
/// # Panics
/// As [`joint_counts`], plus if `perm.len()` differs from the sample count.
pub fn joint_counts_permuted(
    x: &SparseWeights,
    y: &DenseWeights,
    perm: &[u32],
    grid: &mut VectorGrid,
) {
    check_pair(x, y);
    assert_eq!(perm.len(), x.samples(), "permutation length mismatch");
    if fits_run_kernel(y) {
        let mut plan = RunPlan::new();
        plan_runs(x, 1, &mut plan);
        plan.compose(0, perm);
        joint_counts_planned(&plan, Some(0), y, grid);
        return;
    }
    grid.reset(y);
    for (s, &p) in perm.iter().enumerate() {
        let fx = x.first_bin(s);
        let wx = x.sample_weights(s);
        let y_row = y.row(p as usize); // cast-ok: u32 to usize widens losslessly
        for (i, &wxi) in wx.iter().enumerate() {
            axpy(wxi, y_row, grid.row_mut(fx + i));
        }
    }
}

/// Mutual information (nats) via the vector kernel, given precomputed
/// marginal entropies.
pub fn mi(x: &SparseWeights, y: &DenseWeights, hx: f64, hy: f64, grid: &mut VectorGrid) -> f64 {
    joint_counts(x, y, grid);
    // cast-ok: sample counts are far below f64's 2^53 exact-integer range
    let hxy = entropy_from_counts(grid.as_slice(), x.samples() as f64);
    hx + hy - hxy
}

/// Mutual information (nats) of `x` against permuted `y` via the vector
/// kernel. `hy` is the unpermuted marginal entropy (permutation invariant).
pub fn mi_permuted(
    x: &SparseWeights,
    y: &DenseWeights,
    perm: &[u32],
    hx: f64,
    hy: f64,
    grid: &mut VectorGrid,
) -> f64 {
    joint_counts_permuted(x, y, perm, grid);
    // cast-ok: sample counts are far below f64's 2^53 exact-integer range
    let hxy = entropy_from_counts(grid.as_slice(), x.samples() as f64);
    hx + hy - hxy
}

/// Mutual information (nats) of a planned `x` against `y` — the identity
/// pairing for `perm == None`, the planned permutation `p` for `Some(p)`.
/// `hx` is `x`'s marginal entropy, `hy` the unpermuted one of `y`.
///
/// # Panics
/// As [`joint_counts_planned`].
pub(crate) fn mi_planned(
    plan: &RunPlan,
    perm: Option<usize>,
    y: &DenseWeights,
    hx: f64,
    hy: f64,
    grid: &mut VectorGrid,
) -> f64 {
    joint_counts_planned(plan, perm, y, grid);
    // cast-ok: sample counts are far below f64's 2^53 exact-integer range
    let hxy = entropy_from_counts(grid.as_slice(), plan.samples() as f64);
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
            let vector = mi(&x, &yd, hx, hy, &mut vgrid);

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
        let vector = mi_permuted(&x, &yd, &perm, hx, hy, &mut vgrid);

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
        let via_index = mi_permuted(&x, &yd, &perm, hx, hy, &mut g1);

        // Materialized: y_perm[s] = y[perm[s]] pairs x[s] with y[perm[s]].
        let yd_mat = yd.permuted(&perm);
        let mut g2 = VectorGrid::for_dense(&yd_mat);
        let via_copy = mi(&x, &yd_mat, hx, hy, &mut g2);

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
        let _ = mi(&x, &yd, hx, hy, &mut reused);
        let second = mi(&x, &zd, hx, hz, &mut reused);

        let mut fresh = VectorGrid::for_dense(&zd);
        let direct = mi(&x, &zd, hx, hz, &mut fresh);
        assert_eq!(second, direct);
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
            let vector = mi(&x, &yd, hx, hy, &mut vgrid);
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
            let v = mi(&x, &yd, hx, hy, &mut grid);
            // Plug-in MI with marginals equal to the joint's own marginals
            // is a KL divergence ⇒ non-negative up to float rounding.
            prop_assert!(v > -1e-3, "MI {} went negative", v);
        }
    }
}
