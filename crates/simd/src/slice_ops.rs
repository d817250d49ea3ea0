//! Whole-slice kernels in scalar-reference, emulated-lane, and hardware
//! forms.
//!
//! Every primitive the MI estimators use appears three ways:
//!
//! * `*_scalar` — a plain element-at-a-time loop. These are the paper's
//!   "vectorization disabled" baseline (experiment R4) and double as the
//!   reference implementations the laned forms are tested against.
//! * `*_emulated` — processes [`F32x16::LANES`] elements per step with a
//!   masked tail, accumulating into lane registers and reducing once at
//!   the end with the deterministic pairwise tree. Portable: plain arrays
//!   the optimizer may or may not vectorize.
//! * the undecorated public form — routes through the runtime
//!   [dispatch table](crate::dispatch) to real AVX-512F or AVX2+FMA
//!   intrinsics when the CPU has them ([`crate::x86`]), falling back to
//!   the emulated form otherwise. `GNET_SIMD_FORCE` or
//!   [`crate::dispatch::force_backend`] override the choice; tests reach
//!   one backend directly through
//!   [`KernelTable::for_backend`](crate::dispatch::KernelTable::for_backend).
//!
//! The laned forms intentionally mirror how the paper restructures the
//! B-spline accumulation: a single dense FMA stream, no per-element
//! branches, reductions deferred to the end. All backends share the same
//! accumulation shape and pairwise reduction tree, so `sum`/`dot`/`axpy`/
//! `scale` agree *bitwise* across backends on FMA hardware; `xlogx_sum`
//! agrees to a few ULP (vectorized `ln`).

use crate::dispatch;
use crate::lanes::F32x16;
use crate::run_plan::{with_order, RunPlan};

/// Width used by the laned slice kernels.
pub const W: usize = F32x16::LANES;

// ---------------------------------------------------------------------------
// Scalar reference kernels ("no vectorization" baseline)
// ---------------------------------------------------------------------------

/// Sum of all elements (scalar reference).
pub fn sum_scalar(x: &[f32]) -> f32 {
    let mut acc = 0.0f32;
    for &v in x {
        acc += v;
    }
    acc
}

/// Dot product of two equal-length slices (scalar reference).
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn dot_scalar(x: &[f32], y: &[f32]) -> f32 {
    assert_eq!(x.len(), y.len(), "dot: length mismatch");
    let mut acc = 0.0f32;
    for i in 0..x.len() {
        acc += x[i] * y[i];
    }
    acc
}

/// `y[i] += a * x[i]` (scalar reference).
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn axpy_scalar(a: f32, x: &[f32], y: &mut [f32]) {
    assert_eq!(x.len(), y.len(), "axpy: length mismatch");
    for i in 0..x.len() {
        y[i] += a * x[i];
    }
}

/// `Σ x_i ln x_i` with `0 ln 0 = 0` (scalar reference) — the inner sum of a
/// plug-in entropy estimate.
pub fn xlogx_sum_scalar(x: &[f32]) -> f32 {
    let mut acc = 0.0f32;
    for &v in x {
        if v > 0.0 {
            acc += v * v.ln();
        }
    }
    acc
}

/// Multiply every element by `a` in place (scalar reference).
pub fn scale_scalar(a: f32, x: &mut [f32]) {
    for v in x {
        *v *= a;
    }
}

// ---------------------------------------------------------------------------
// Dispatched kernels (the public API the estimators call)
// ---------------------------------------------------------------------------

/// Sum of all elements using 16-wide lanes with a masked tail.
///
/// Dispatches to the fastest backend the CPU supports (see
/// [`crate::dispatch`]).
pub fn sum(x: &[f32]) -> f32 {
    (dispatch::table().sum)(x)
}

/// Dot product using 16-wide FMA lanes with a masked tail.
///
/// ```
/// let x = vec![1.0f32; 20];
/// let y: Vec<f32> = (0..20).map(|i| i as f32).collect();
/// assert_eq!(gnet_simd::slice_ops::dot(&x, &y), 190.0);
/// ```
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn dot(x: &[f32], y: &[f32]) -> f32 {
    (dispatch::table().dot)(x, y)
}

/// `y[i] += a * x[i]` using 16-wide FMA lanes.
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn axpy(a: f32, x: &[f32], y: &mut [f32]) {
    (dispatch::table().axpy)(a, x, y)
}

/// `Σ x_i ln x_i` with `0 ln 0 = 0`, 16 lanes at a time.
///
/// The zero-padded tail load is safe here because padding lanes contribute
/// `0 ln 0 = 0` under the entropy convention. Hardware backends vectorize
/// `ln` and agree with the emulated/scalar forms to a few ULP per element
/// (they also treat positive *denormal* inputs as zero, a < 1e-36-nats
/// difference no real count grid can produce).
pub fn xlogx_sum(x: &[f32]) -> f32 {
    (dispatch::table().xlogx_sum)(x)
}

/// Multiply every element by `a` in place, 16 lanes at a time.
pub fn scale(a: f32, x: &mut [f32]) {
    (dispatch::table().scale)(a, x)
}

/// The paper's joint-histogram accumulation on the dense 16-lane layout,
/// run-blocked: for every sample `s` of the planned *x* gene, add
/// `w_s[i] · y_rows[row(s)]` into the 16-float grid row
/// `first_bin[s] + i` (`i < k`), where `row(s) = s` for `perm == None` and
/// `row(s) = π_p[s]` for `perm == Some(p)`.
///
/// The samples of one run (same first bin, see [`RunPlan`]) update the
/// same `k` rows, so the kernel keeps them in registers: `k` accumulators
/// × 2 partial sets, alternating sample by sample within the run. At the
/// run's end each row adds `(set₀ + set₁)` to the grid once. Every backend
/// performs exactly this sequence of correctly-rounded FMAs and adds, so
/// results agree bitwise across backends.
///
/// # Panics
/// Panics on an empty plan, if `grid` is not exactly the plan's rows ×
/// 16 floats, if `y_rows` is not exactly one 16-float row per sample, or
/// if `perm` names a permutation whose list is not composed. These are
/// O(1) checks; the O(m) range checks ran when the plan was built.
pub fn accumulate_runs(grid: &mut [f32], plan: &RunPlan, perm: Option<usize>, y_rows: &[f32]) {
    (dispatch::table().accumulate_runs)(grid, plan, perm, y_rows)
}

// ---------------------------------------------------------------------------
// Emulated laned kernels (portable fallback backend)
// ---------------------------------------------------------------------------

/// Sum of all elements using 16-wide lanes with a masked tail (portable
/// emulated backend).
pub fn sum_emulated(x: &[f32]) -> f32 {
    let mut acc = F32x16::zero();
    let chunks = x.len() / W;
    for c in 0..chunks {
        acc += F32x16::from_slice(&x[c * W..]);
    }
    let tail = &x[chunks * W..];
    if !tail.is_empty() {
        acc += F32x16::from_slice_padded(tail);
    }
    acc.reduce_add()
}

/// Dot product using 16-wide FMA lanes with a masked tail (portable
/// emulated backend).
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn dot_emulated(x: &[f32], y: &[f32]) -> f32 {
    assert_eq!(x.len(), y.len(), "dot: length mismatch");
    let mut acc = F32x16::zero();
    let chunks = x.len() / W;
    for c in 0..chunks {
        let xv = F32x16::from_slice(&x[c * W..]);
        let yv = F32x16::from_slice(&y[c * W..]);
        acc = xv.mul_add(yv, acc);
    }
    let tail_at = chunks * W;
    if tail_at < x.len() {
        let xv = F32x16::from_slice_padded(&x[tail_at..]);
        let yv = F32x16::from_slice_padded(&y[tail_at..]);
        acc = xv.mul_add(yv, acc);
    }
    acc.reduce_add()
}

/// `y[i] += a * x[i]` using 16-wide FMA lanes (portable emulated backend).
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn axpy_emulated(a: f32, x: &[f32], y: &mut [f32]) {
    assert_eq!(x.len(), y.len(), "axpy: length mismatch");
    let av = F32x16::splat(a);
    let chunks = x.len() / W;
    for c in 0..chunks {
        let xv = F32x16::from_slice(&x[c * W..]);
        let yv = F32x16::from_slice(&y[c * W..]);
        xv.mul_add(av, yv).write_to_slice(&mut y[c * W..]);
    }
    for i in chunks * W..x.len() {
        y[i] = x[i].mul_add(a, y[i]);
    }
}

/// `Σ x_i ln x_i` with `0 ln 0 = 0`, 16 lanes at a time (portable emulated
/// backend).
///
/// The zero-padded tail load is safe here because padding lanes contribute
/// `0 ln 0 = 0` under the entropy convention.
pub fn xlogx_sum_emulated(x: &[f32]) -> f32 {
    let mut acc = F32x16::zero();
    let chunks = x.len() / W;
    for c in 0..chunks {
        acc += F32x16::from_slice(&x[c * W..]).xlogx();
    }
    let tail = &x[chunks * W..];
    if !tail.is_empty() {
        acc += F32x16::from_slice_padded(tail).xlogx();
    }
    acc.reduce_add()
}

/// Multiply every element by `a` in place, 16 lanes at a time (portable
/// emulated backend).
pub fn scale_emulated(a: f32, x: &mut [f32]) {
    let av = F32x16::splat(a);
    let chunks = x.len() / W;
    for c in 0..chunks {
        let xv = F32x16::from_slice(&x[c * W..]);
        (xv * av).write_to_slice(&mut x[c * W..]);
    }
    for v in &mut x[chunks * W..] {
        *v *= a;
    }
}

/// Portable emulated backend of [`accumulate_runs`]: the run-blocked loop
/// on [`F32x16`] values, in the same per-cell operation order as the
/// hardware backends.
pub fn accumulate_runs_emulated(
    grid: &mut [f32],
    plan: &RunPlan,
    perm: Option<usize>,
    y_rows: &[f32],
) {
    let rows = plan.check(grid, y_rows, perm);
    with_order!(
        plan.order(),
        runs_emulated(grid, plan.offsets(), plan.sorted_weights(), rows, y_rows)
    );
}

fn runs_emulated<const K: usize>(
    grid: &mut [f32],
    offsets: &[u32],
    weights: &[f32],
    rows: &[u32],
    y_rows: &[f32],
) {
    let y_row = |t: usize| F32x16::from_slice(&y_rows[rows[t] as usize * W..]); // cast-ok: u32 to usize widens losslessly
    for (r, run) in offsets.windows(2).enumerate() {
        let (a, b) = (run[0] as usize, run[1] as usize); // cast-ok: u32 to usize widens losslessly
        if a == b {
            continue;
        }
        let mut acc0 = [F32x16::zero(); K];
        let mut acc1 = [F32x16::zero(); K];
        let mut t = a;
        while t + 1 < b {
            let (y0, y1) = (y_row(t), y_row(t + 1));
            for i in 0..K {
                acc0[i] = y0.mul_add(F32x16::splat(weights[t * K + i]), acc0[i]);
                acc1[i] = y1.mul_add(F32x16::splat(weights[(t + 1) * K + i]), acc1[i]);
            }
            t += 2;
        }
        if t < b {
            let y0 = y_row(t);
            for i in 0..K {
                acc0[i] = y0.mul_add(F32x16::splat(weights[t * K + i]), acc0[i]);
            }
        }
        for i in 0..K {
            let row = &mut grid[(r + i) * W..(r + i + 1) * W];
            (F32x16::from_slice(row) + (acc0[i] + acc1[i])).write_to_slice(row);
        }
    }
}

/// Rank-4 outer-product accumulation used by the B-spline joint histogram:
/// for one sample with row weights `wx[0..k]` at bin `bx` and column weights
/// `wy[0..k]` at bin `by`, add `wx[i] * wy[j]` into the dense `b × b` grid.
///
/// `k` is the spline order (≤ 8 supported) and `stride` the row length of
/// `grid`. This is the scalar-per-sample form; the vectorized estimator in
/// `gnet-mi` instead restructures the loop so that lanes run across samples.
///
/// # Panics
/// Panics (in debug builds) on out-of-bounds bin indices.
#[inline]
pub fn outer_accumulate(
    grid: &mut [f32],
    stride: usize,
    bx: usize,
    wx: &[f32],
    by: usize,
    wy: &[f32],
) {
    for (i, &wxi) in wx.iter().enumerate() {
        let row = (bx + i) * stride + by;
        let dst = &mut grid[row..row + wy.len()];
        for (j, &wyj) in wy.iter().enumerate() {
            dst[j] = wxi.mul_add(wyj, dst[j]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn close(a: f32, b: f32, tol: f32) -> bool {
        let scale = a.abs().max(b.abs()).max(1.0);
        (a - b).abs() <= tol * scale
    }

    #[test]
    fn sum_empty_is_zero() {
        assert_eq!(sum(&[]), 0.0);
        assert_eq!(sum_scalar(&[]), 0.0);
    }

    #[test]
    fn sum_matches_scalar_on_non_multiple_length() {
        let x: Vec<f32> = (0..37).map(|i| (i as f32).sin()).collect();
        assert!(close(sum(&x), sum_scalar(&x), 1e-6));
    }

    #[test]
    fn dot_basic() {
        let x = vec![1.0f32; 33];
        let y: Vec<f32> = (0..33).map(|i| i as f32).collect();
        assert_eq!(dot(&x, &y), (0..33).sum::<i32>() as f32);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn dot_length_mismatch_panics() {
        let _ = dot(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn axpy_matches_scalar() {
        let x: Vec<f32> = (0..21).map(|i| i as f32 * 0.25).collect();
        let mut y1 = vec![1.0f32; 21];
        let mut y2 = y1.clone();
        axpy(2.5, &x, &mut y1);
        axpy_scalar(2.5, &x, &mut y2);
        for (a, b) in y1.iter().zip(&y2) {
            assert!(close(*a, *b, 1e-6));
        }
    }

    #[test]
    fn xlogx_sum_of_uniform_distribution() {
        // H = -Σ p ln p = ln 8 for uniform over 8 outcomes.
        let p = vec![0.125f32; 8];
        let h = -xlogx_sum(&p);
        assert!(close(h, 8.0f32.ln(), 1e-6));
        assert!(close(-xlogx_sum_scalar(&p), 8.0f32.ln(), 1e-6));
    }

    #[test]
    fn xlogx_sum_ignores_zeros() {
        let mut p = vec![0.0f32; 40];
        p[3] = 0.5;
        p[29] = 0.5;
        assert!(close(xlogx_sum(&p), 2.0 * 0.5 * 0.5f32.ln(), 1e-6));
    }

    #[test]
    fn scale_matches_scalar() {
        let mut a: Vec<f32> = (0..19).map(|i| i as f32).collect();
        let mut b = a.clone();
        scale(0.5, &mut a);
        scale_scalar(0.5, &mut b);
        assert_eq!(a, b);
    }

    #[test]
    fn outer_accumulate_places_weights() {
        let b = 6;
        let mut grid = vec![0.0f32; b * b];
        outer_accumulate(&mut grid, b, 1, &[0.25, 0.5, 0.25], 2, &[0.5, 0.5, 0.0]);
        assert_eq!(grid[b + 2], 0.125);
        assert_eq!(grid[2 * b + 3], 0.25);
        assert_eq!(grid[3 * b + 2], 0.125);
        // Total mass added = (Σwx)(Σwy) = 1.0 * 1.0.
        let total: f32 = grid.iter().sum();
        assert!((total - 1.0).abs() < 1e-6);
    }

    proptest! {
        #[test]
        fn prop_sum_matches_scalar(x in proptest::collection::vec(-100.0f32..100.0, 0..200)) {
            // Tolerance must scale with the *mass* Σ|x|, not the result:
            // a near-zero sum of large terms legitimately differs between
            // summation orders by ≈ ε·Σ|x| (catastrophic cancellation).
            let mass: f32 = x.iter().map(|v| v.abs()).sum();
            let tol = 1e-6 * mass + 1e-4;
            prop_assert!((sum(&x) - sum_scalar(&x)).abs() <= tol);
        }

        #[test]
        fn prop_dot_matches_scalar(
            xy in proptest::collection::vec((-10.0f32..10.0, -10.0f32..10.0), 0..200)
        ) {
            let x: Vec<f32> = xy.iter().map(|p| p.0).collect();
            let y: Vec<f32> = xy.iter().map(|p| p.1).collect();
            let mass: f32 = xy.iter().map(|p| (p.0 * p.1).abs()).sum();
            let tol = 1e-6 * mass + 1e-4;
            prop_assert!((dot(&x, &y) - dot_scalar(&x, &y)).abs() <= tol);
        }

        #[test]
        fn prop_xlogx_matches_scalar(x in proptest::collection::vec(0.0f32..1.0, 0..200)) {
            prop_assert!(close(xlogx_sum(&x), xlogx_sum_scalar(&x), 1e-4));
        }

        #[test]
        fn prop_axpy_matches_scalar(
            a in -5.0f32..5.0,
            xy in proptest::collection::vec((-10.0f32..10.0, -10.0f32..10.0), 0..100)
        ) {
            let x: Vec<f32> = xy.iter().map(|p| p.0).collect();
            let mut y1: Vec<f32> = xy.iter().map(|p| p.1).collect();
            let mut y2 = y1.clone();
            axpy(a, &x, &mut y1);
            axpy_scalar(a, &x, &mut y2);
            for (u, v) in y1.iter().zip(&y2) {
                prop_assert!(close(*u, *v, 1e-4));
            }
        }
    }

    // -- backend equivalence: every supported hardware backend vs emulated --
    //
    // The proptests call each backend's table entries directly instead of
    // forcing the process-global dispatch, so they cannot race the
    // dispatch tests (or each other) under parallel test threads.

    use crate::dispatch::{Backend, KernelTable};

    fn tables() -> Vec<&'static KernelTable> {
        Backend::supported()
            .into_iter()
            .map(|b| KernelTable::for_backend(b).expect("supported backends have a table"))
            .collect()
    }

    /// The documented summation order in plain scalar code: sorted runs,
    /// two partial sets alternating within a run, `grid += set₀ + set₁`.
    fn reference_runs(plan: &RunPlan, perm: Option<usize>, y_rows: &[f32]) -> Vec<f32> {
        let k = plan.order();
        let (w, rows) = (plan.sorted_weights(), plan.y_rows(perm));
        let mut grid = vec![0.0f32; plan.rows() * W];
        for (r, run) in plan.offsets().windows(2).enumerate() {
            let (a, b) = (run[0] as usize, run[1] as usize);
            let mut sets = vec![[[0.0f32; W]; 2]; k];
            for t in a..b {
                let y = &y_rows[rows[t] as usize * W..][..W];
                for (i, set) in sets.iter_mut().enumerate() {
                    let acc = &mut set[(t - a) % 2];
                    for j in 0..W {
                        acc[j] = y[j].mul_add(w[t * k + i], acc[j]);
                    }
                }
            }
            for (i, set) in sets.iter().enumerate() {
                for j in 0..W {
                    grid[(r + i) * W + j] += set[0][j] + set[1][j];
                }
            }
        }
        grid
    }

    /// Plain per-sample accumulation in the original sample order, in f64.
    fn naive_joint(
        rows: usize,
        first_bins: &[u16],
        weights: &[f32],
        k: usize,
        y_rows: &[f32],
        perm: Option<&[u32]>,
    ) -> Vec<f64> {
        let mut grid = vec![0.0f64; rows * W];
        for s in 0..first_bins.len() {
            let ys = perm.map_or(s, |p| p[s] as usize);
            for i in 0..k {
                let row = (first_bins[s] as usize + i) * W;
                for j in 0..W {
                    grid[row + j] += f64::from(weights[s * k + i]) * f64::from(y_rows[ys * W + j]);
                }
            }
        }
        grid
    }

    #[test]
    fn accumulate_runs_matches_naive_reference() {
        let (rows, k, m) = (10, 3, 37u16);
        let first_bins: Vec<u16> = (0..m).map(|s| (s * 5) % 8).collect();
        let m = usize::from(m);
        let weights: Vec<f32> = (0..m * k).map(|i| (i as f32 * 0.37).sin()).collect();
        let y_rows: Vec<f32> = (0..m * W).map(|i| (i as f32 * 0.11).cos()).collect();
        let perm: Vec<u32> = (0..37u32).map(|s| (s * 11) % 37).collect();
        let mut plan = RunPlan::new();
        plan.rebuild(&first_bins, &weights, k, rows, 1);
        plan.compose(0, &perm);
        for (p, naive_perm) in [(None, None), (Some(0), Some(&perm[..]))] {
            let mut grid = vec![0.0f32; rows * W];
            accumulate_runs(&mut grid, &plan, p, &y_rows);
            assert_eq!(grid, reference_runs(&plan, p, &y_rows), "perm {p:?}");
            let naive = naive_joint(rows, &first_bins, &weights, k, &y_rows, naive_perm);
            for (got, want) in grid.iter().zip(&naive) {
                assert!((f64::from(*got) - want).abs() < 1e-4, "{got} vs {want}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "grid row count")]
    fn accumulate_runs_rejects_a_grid_of_another_shape() {
        let mut plan = RunPlan::new();
        plan.rebuild(&[0], &[1.0], 1, 4, 0);
        accumulate_runs(&mut [0.0; 3 * W], &plan, None, &[0.0; W]);
    }

    #[test]
    #[should_panic(expected = "not composed")]
    fn accumulate_runs_rejects_an_unplanned_permutation() {
        let mut plan = RunPlan::new();
        plan.rebuild(&[0], &[1.0], 1, 4, 0);
        accumulate_runs(&mut [0.0; 4 * W], &plan, Some(0), &[0.0; W]);
    }

    #[test]
    #[should_panic(expected = "not composed")]
    fn accumulate_runs_rejects_an_uncomposed_permutation() {
        let mut plan = RunPlan::new();
        plan.rebuild(&[0], &[1.0], 1, 4, 1);
        accumulate_runs(&mut [0.0; 4 * W], &plan, Some(0), &[0.0; W]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64)
            .with_persistence("proptest-regressions/slice_ops_backend_equivalence.txt"))]

        /// `sum`/`dot`/`axpy`/`scale` share one arithmetic shape (lanewise
        /// chunk accumulation, correctly-rounded FMA, pairwise reduction
        /// tree) across all backends, so they must agree **bitwise** — the
        /// equivalence grade DESIGN.md §14 documents as "bitwise (0 ULP)".
        #[test]
        fn prop_linear_kernels_bitwise_across_backends(
            a in -5.0f32..5.0,
            xy in proptest::collection::vec((-10.0f32..10.0, -10.0f32..10.0), 0..200)
        ) {
            let x: Vec<f32> = xy.iter().map(|p| p.0).collect();
            let y: Vec<f32> = xy.iter().map(|p| p.1).collect();
            let ref_sum = sum_emulated(&x);
            let ref_dot = dot_emulated(&x, &y);
            let mut ref_axpy = y.clone();
            axpy_emulated(a, &x, &mut ref_axpy);
            let mut ref_scale = x.clone();
            scale_emulated(a, &mut ref_scale);
            for t in tables() {
                let b = t.backend;
                let mut ya = y.clone();
                (t.axpy)(a, &x, &mut ya);
                let mut xs = x.clone();
                (t.scale)(a, &mut xs);
                prop_assert_eq!((t.sum)(&x).to_bits(), ref_sum.to_bits(), "sum on {}", b);
                prop_assert_eq!((t.dot)(&x, &y).to_bits(), ref_dot.to_bits(), "dot on {}", b);
                for (got, want) in ya.iter().zip(&ref_axpy) {
                    prop_assert_eq!(got.to_bits(), want.to_bits(), "axpy on {}", b);
                }
                for (got, want) in xs.iter().zip(&ref_scale) {
                    prop_assert_eq!(got.to_bits(), want.to_bits(), "scale on {}", b);
                }
            }
        }

        /// `xlogx_sum` vectorizes `ln`, so hardware backends agree with the
        /// emulated libm form to a few ULP per element, not bitwise.
        #[test]
        fn prop_xlogx_close_across_backends(
            x in proptest::collection::vec(0.0f32..1.0, 0..200)
        ) {
            let reference = xlogx_sum_emulated(&x);
            let mass: f32 = x.iter().map(|v| v.abs()).sum();
            let tol = 1e-5 * mass.max(1.0);
            for t in tables() {
                let got = (t.xlogx_sum)(&x);
                prop_assert!(
                    (got - reference).abs() <= tol,
                    "xlogx_sum on {}: {} vs emulated {}", t.backend, got, reference
                );
            }
        }

        /// The run-blocked accumulator is pure FMA plus adds in one fixed
        /// order, so it is bitwise across backends — identity and permuted
        /// alike — and equal to the scalar statement of that order. Bins
        /// are drawn from a narrow window so runs of length 0, 1, odd and
        /// even all occur.
        #[test]
        fn prop_accumulate_runs_bitwise_across_backends(
            seed in 0u64..1000,
            m in 0usize..60,
            k in 1usize..=8,
            rows in 8usize..=16,
            spread in 1usize..=4,
        ) {
            let mixu = |i: usize| {
                let z = (seed ^ (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z >> 40
            };
            let mixf = |i: usize| (mixu(i) as f32) / ((1u64 << 24) as f32);
            let bins = (rows - k + 1).min(spread + 1);
            let first_bins: Vec<u16> = (0..m)
                .map(|s| u16::try_from(usize::try_from(mixu(s)).unwrap() % bins).unwrap())
                .collect();
            let weights: Vec<f32> = (0..m * k).map(|i| mixf(i + 1000)).collect();
            let y_rows: Vec<f32> = (0..m * W).map(|i| mixf(i + 50_000)).collect();
            let m32 = u32::try_from(m).unwrap();
            let perms: Vec<Vec<u32>> = vec![
                (0..m32).rev().collect(),
                (0..m32).map(|s| (s * 7 + 3) % m32.max(1)).collect(),
            ];
            let mut plan = RunPlan::new();
            plan.rebuild(&first_bins, &weights, k, rows, perms.len());
            for (p, perm) in perms.iter().enumerate() {
                plan.compose(p, perm);
            }
            let mut lists = vec![None];
            lists.extend((0..perms.len()).map(Some));
            for p in lists {
                let reference = reference_runs(&plan, p, &y_rows);
                let mut emulated = vec![0.0f32; rows * W];
                accumulate_runs_emulated(&mut emulated, &plan, p, &y_rows);
                prop_assert_eq!(&emulated, &reference, "emulated vs reference, perm {:?}", p);
                for t in tables() {
                    let mut grid = vec![0.0f32; rows * W];
                    (t.accumulate_runs)(&mut grid, &plan, p, &y_rows);
                    for (got, want) in grid.iter().zip(&reference) {
                        prop_assert_eq!(got.to_bits(), want.to_bits(), "runs on {}, perm {:?}", t.backend, p);
                    }
                }
            }
        }
    }
}
