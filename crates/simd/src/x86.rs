//! Hardware slice-kernel backends for x86-64: AVX-512F and AVX2+FMA.
//!
//! Each backend implements the same six primitives as the emulated laned
//! kernels in [`crate::slice_ops`], with the same arithmetic *shape*:
//!
//! * lanewise accumulation chunk-by-chunk in slice order,
//! * zero-padded tail handling (tails are staged through a zeroed stack
//!   buffer, exactly like `F32x16::from_slice_padded`),
//! * the deterministic pairwise-tree horizontal reduction
//!   (`lane[i] += lane[i + width]`, width halving 16 → 1);
//! * for `accumulate_runs`, the run-blocked order of
//!   `slice_ops::accumulate_runs_emulated`: per run, two partial sets of
//!   `k` register rows alternating sample by sample, then
//!   `grid += set₀ + set₁`.
//!
//! Because a hardware FMA computes the same correctly-rounded fused result
//! as `f32::mul_add`, `sum`/`dot`/`axpy`/`scale`/`accumulate_runs` are
//! *bitwise* identical to
//! the emulated backend. `xlogx_sum` is the one exception: it vectorizes
//! `ln` with an exponent/mantissa split and an atanh polynomial instead of
//! calling libm per lane, so it agrees to a few ULP rather than bitwise
//! (see `DESIGN.md` §14 for the equivalence-grade table).
//!
//! Safety posture: every function doing raw-pointer loads/stores is an
//! internal `#[target_feature]` function whose bounds obligations are
//! discharged by the *safe entry wrappers* below — the only way the
//! dispatch table (and therefore any caller) can reach this module. The
//! wrappers validate slice lengths first, then the `unsafe` call is merely
//! "the CPU has the feature", guaranteed by runtime detection in
//! [`crate::dispatch`]. The accumulation kernel's index ranges were proved
//! once when its [`RunPlan`] was built; its wrapper checks the O(1)
//! shapes that tie the plan to the slices.

use crate::run_plan::{with_order, RunPlan};
#[cfg(target_arch = "x86_64")]
use core::arch::x86_64::*;

/// Width shared by every backend (one 512-bit register, two 256-bit ones).
const W: usize = 16;

// Polynomial for ln(m), m ∈ [0.75, 1.5): with t = (m−1)/(m+1) (|t| ≤ 0.2),
// ln m = 2·atanh(t) = t·(2 + t²·(2/3 + t²·(2/5 + t²·(2/7 + t²·(2/9))))).
// Truncation error ≤ 2·0.2¹¹/11 ≈ 4e-8, below f32 epsilon for the MI
// grids' count magnitudes.
const LN_C9: f32 = 2.0 / 9.0;
const LN_C7: f32 = 2.0 / 7.0;
const LN_C5: f32 = 2.0 / 5.0;
const LN_C3: f32 = 2.0 / 3.0;
const LN_C1: f32 = 2.0;
const LN_2: f32 = core::f32::consts::LN_2;

/// AVX-512F backend: one 512-bit register per 16-lane row.
pub(crate) mod avx512 {
    use super::*;

    // ---- safe entry points (these are what the dispatch table holds) ----

    pub(crate) fn sum(x: &[f32]) -> f32 {
        // SAFETY: the dispatch table only selects this backend after
        // `is_x86_feature_detected!("avx512f")` returned true; the inner fn
        // reads only within `x` (chunked loads + padded tail buffer).
        unsafe { sum_impl(x) }
    }

    pub(crate) fn dot(x: &[f32], y: &[f32]) -> f32 {
        assert_eq!(x.len(), y.len(), "dot: length mismatch");
        // SAFETY: avx512f verified at dispatch-table selection; equal
        // lengths asserted above bound every load of `y` by `x`'s chunks.
        unsafe { dot_impl(x, y) }
    }

    pub(crate) fn axpy(a: f32, x: &[f32], y: &mut [f32]) {
        assert_eq!(x.len(), y.len(), "axpy: length mismatch");
        // SAFETY: avx512f verified at dispatch-table selection; equal
        // lengths asserted above bound every `y` access by `x`'s chunks.
        unsafe { axpy_impl(a, x, y) }
    }

    pub(crate) fn xlogx_sum(x: &[f32]) -> f32 {
        // SAFETY: avx512f verified at dispatch-table selection; the inner
        // fn reads only within `x` (chunked loads + padded tail buffer).
        unsafe { xlogx_sum_impl(x) }
    }

    pub(crate) fn scale(a: f32, x: &mut [f32]) {
        // SAFETY: avx512f verified at dispatch-table selection; stores stay
        // within `x`'s full chunks, the tail is handled by safe scalar code.
        unsafe { scale_impl(a, x) }
    }

    pub(crate) fn accumulate_runs(
        grid: &mut [f32],
        plan: &RunPlan,
        perm: Option<usize>,
        y_rows: &[f32],
    ) {
        let rows = plan.check(grid, y_rows, perm);
        // SAFETY: avx512f verified at dispatch-table selection; the plan's
        // build proved every run bound, weight offset and y-row index in
        // range, and `check` just tied its shapes to `grid` and `y_rows`.
        unsafe {
            with_order!(
                plan.order(),
                runs_impl(grid, plan.offsets(), plan.sorted_weights(), rows, y_rows)
            )
        }
    }

    // ---- feature-gated implementations ----

    /// Pairwise-tree reduction of one 512-bit register, matching
    /// `F32x16::reduce_add` exactly: widths 8, 4, 2, 1.
    #[target_feature(enable = "avx512f")]
    fn reduce_add_tree(v: __m512) -> f32 {
        let q0 = _mm512_extractf32x4_ps::<0>(v);
        let q1 = _mm512_extractf32x4_ps::<1>(v);
        let q2 = _mm512_extractf32x4_ps::<2>(v);
        let q3 = _mm512_extractf32x4_ps::<3>(v);
        let a = _mm_add_ps(q0, q2); // lanes 0..4  += lanes 8..12
        let b = _mm_add_ps(q1, q3); // lanes 4..8  += lanes 12..16
        let s = _mm_add_ps(a, b); // width 4
        let s = _mm_add_ps(s, _mm_movehl_ps(s, s)); // width 2
        let s = _mm_add_ss(s, _mm_shuffle_ps::<0b01>(s, s)); // width 1
        _mm_cvtss_f32(s)
    }

    /// Load ≤16 elements zero-padded to a full register, the masked-tail
    /// idiom of `F32x16::from_slice_padded`.
    #[target_feature(enable = "avx512f")]
    fn load_padded(tail: &[f32]) -> __m512 {
        let mut buf = [0.0f32; W];
        let n = tail.len().min(W);
        buf[..n].copy_from_slice(&tail[..n]);
        // SAFETY: `buf` is a live 16-float stack array, always fully
        // readable.
        unsafe { _mm512_loadu_ps(buf.as_ptr()) }
    }

    #[target_feature(enable = "avx512f")]
    fn sum_impl(x: &[f32]) -> f32 {
        let mut acc = _mm512_setzero_ps();
        let chunks = x.len() / W;
        let p = x.as_ptr();
        for c in 0..chunks {
            // SAFETY: c < chunks ⇒ the 16 floats at c*16 are inside `x`.
            let v = unsafe { _mm512_loadu_ps(p.add(c * W)) };
            acc = _mm512_add_ps(acc, v);
        }
        let tail = &x[chunks * W..];
        if !tail.is_empty() {
            acc = _mm512_add_ps(acc, load_padded(tail));
        }
        reduce_add_tree(acc)
    }

    #[target_feature(enable = "avx512f")]
    fn dot_impl(x: &[f32], y: &[f32]) -> f32 {
        let mut acc = _mm512_setzero_ps();
        let chunks = x.len() / W;
        let xp = x.as_ptr();
        let yp = y.as_ptr();
        for c in 0..chunks {
            // SAFETY: c < chunks and x.len() == y.len() (entry wrapper) ⇒
            // both 16-float loads at c*16 are in bounds.
            let (xv, yv) = unsafe {
                (
                    _mm512_loadu_ps(xp.add(c * W)),
                    _mm512_loadu_ps(yp.add(c * W)),
                )
            };
            acc = _mm512_fmadd_ps(xv, yv, acc);
        }
        let t = chunks * W;
        if t < x.len() {
            acc = _mm512_fmadd_ps(load_padded(&x[t..]), load_padded(&y[t..]), acc);
        }
        reduce_add_tree(acc)
    }

    #[target_feature(enable = "avx512f")]
    fn axpy_impl(a: f32, x: &[f32], y: &mut [f32]) {
        let av = _mm512_set1_ps(a);
        let chunks = x.len() / W;
        let xp = x.as_ptr();
        let yp = y.as_mut_ptr();
        for c in 0..chunks {
            // SAFETY: c < chunks and x.len() == y.len() (entry wrapper) ⇒
            // the 16-float load/store window at c*16 is inside both slices.
            unsafe {
                let xv = _mm512_loadu_ps(xp.add(c * W));
                let yv = _mm512_loadu_ps(yp.add(c * W));
                _mm512_storeu_ps(yp.add(c * W), _mm512_fmadd_ps(xv, av, yv));
            }
        }
        for i in chunks * W..x.len() {
            y[i] = x[i].mul_add(a, y[i]);
        }
    }

    #[target_feature(enable = "avx512f")]
    fn scale_impl(a: f32, x: &mut [f32]) {
        let av = _mm512_set1_ps(a);
        let chunks = x.len() / W;
        let p = x.as_mut_ptr();
        for c in 0..chunks {
            // SAFETY: c < chunks ⇒ the 16-float load/store window at c*16
            // is inside `x`.
            unsafe {
                let v = _mm512_loadu_ps(p.add(c * W));
                _mm512_storeu_ps(p.add(c * W), _mm512_mul_ps(v, av));
            }
        }
        for v in &mut x[chunks * W..] {
            *v *= a;
        }
    }

    /// Vectorized `x·ln x` for one register; lanes with `x` below the
    /// smallest positive normal contribute exactly 0 (the entropy
    /// convention; denormal inputs would contribute < 1e-36 nats).
    #[target_feature(enable = "avx512f")]
    fn xlogx_lane(x: __m512) -> __m512 {
        let bits = _mm512_castps_si512(x);
        // m1 = mantissa normalized to [1, 2); e = unbiased exponent.
        let m1 = _mm512_castsi512_ps(_mm512_or_si512(
            _mm512_and_si512(bits, _mm512_set1_epi32(0x007f_ffff)),
            _mm512_set1_epi32(0x3f80_0000),
        ));
        let e = _mm512_cvtepi32_ps(_mm512_sub_epi32(
            _mm512_and_si512(_mm512_srli_epi32::<23>(bits), _mm512_set1_epi32(0xff)),
            _mm512_set1_epi32(127),
        ));
        // Re-center to m ∈ [0.75, 1.5) so |t| ≤ 0.2: where m1 ≥ 1.5 use
        // m1/2 and bump the exponent. The 1.5 compare and the halving are
        // both exact, so no boundary lane can get a mismatched (m, e) pair.
        let ge = _mm512_cmp_ps_mask::<_CMP_GE_OQ>(m1, _mm512_set1_ps(1.5));
        let m = _mm512_mask_mul_ps(m1, ge, m1, _mm512_set1_ps(0.5));
        let e = _mm512_mask_add_ps(e, ge, e, _mm512_set1_ps(1.0));
        let one = _mm512_set1_ps(1.0);
        let t = _mm512_div_ps(_mm512_sub_ps(m, one), _mm512_add_ps(m, one));
        let t2 = _mm512_mul_ps(t, t);
        let mut p = _mm512_set1_ps(LN_C9);
        p = _mm512_fmadd_ps(p, t2, _mm512_set1_ps(LN_C7));
        p = _mm512_fmadd_ps(p, t2, _mm512_set1_ps(LN_C5));
        p = _mm512_fmadd_ps(p, t2, _mm512_set1_ps(LN_C3));
        p = _mm512_fmadd_ps(p, t2, _mm512_set1_ps(LN_C1));
        let ln = _mm512_fmadd_ps(e, _mm512_set1_ps(LN_2), _mm512_mul_ps(p, t));
        let res = _mm512_mul_ps(x, ln);
        // Zero out non-positive / denormal lanes (their exponent/mantissa
        // bit-fields above were garbage; the mask also swallows any NaN).
        let valid = _mm512_cmp_ps_mask::<_CMP_GE_OQ>(x, _mm512_set1_ps(f32::MIN_POSITIVE));
        _mm512_maskz_mov_ps(valid, res)
    }

    #[target_feature(enable = "avx512f")]
    fn xlogx_sum_impl(x: &[f32]) -> f32 {
        let mut acc = _mm512_setzero_ps();
        let chunks = x.len() / W;
        let p = x.as_ptr();
        for c in 0..chunks {
            // SAFETY: c < chunks ⇒ the 16 floats at c*16 are inside `x`.
            let v = unsafe { _mm512_loadu_ps(p.add(c * W)) };
            acc = _mm512_add_ps(acc, xlogx_lane(v));
        }
        let tail = &x[chunks * W..];
        if !tail.is_empty() {
            // Padding lanes are 0 ⇒ masked to 0 by xlogx_lane.
            acc = _mm512_add_ps(acc, xlogx_lane(load_padded(tail)));
        }
        reduce_add_tree(acc)
    }

    /// The run-blocked loop for spline order `K`: two partial sets of `K`
    /// zmm rows per run, alternating sample by sample, added to the grid
    /// once at the run's end.
    #[target_feature(enable = "avx512f")]
    fn runs_impl<const K: usize>(
        grid: &mut [f32],
        offsets: &[u32],
        weights: &[f32],
        rows: &[u32],
        y_rows: &[f32],
    ) {
        let gp = grid.as_mut_ptr();
        let yp = y_rows.as_ptr();
        let wp = weights.as_ptr();
        let ip = rows.as_ptr();
        for (r, run) in offsets.windows(2).enumerate() {
            let (a, b) = (run[0] as usize, run[1] as usize); // cast-ok: u32 to usize widens losslessly
            if a == b {
                continue;
            }
            let mut acc0 = [_mm512_setzero_ps(); K];
            let mut acc1 = [_mm512_setzero_ps(); K];
            let mut t = a;
            while t + 1 < b {
                // SAFETY: t + 1 < b ≤ m, and the plan holds m row indices
                // (each < m) and m·K weights; `check` proved
                // y_rows.len() == m·16, so both 16-float rows are in bounds.
                unsafe {
                    let y0 = _mm512_loadu_ps(yp.add(*ip.add(t) as usize * W)); // cast-ok: u32 to usize widens losslessly
                    let y1 = _mm512_loadu_ps(yp.add(*ip.add(t + 1) as usize * W)); // cast-ok: u32 to usize widens losslessly
                    let w = wp.add(t * K);
                    for (i, (a0, a1)) in acc0.iter_mut().zip(&mut acc1).enumerate() {
                        *a0 = _mm512_fmadd_ps(y0, _mm512_set1_ps(*w.add(i)), *a0);
                        *a1 = _mm512_fmadd_ps(y1, _mm512_set1_ps(*w.add(K + i)), *a1);
                    }
                }
                t += 2;
            }
            if t < b {
                // SAFETY: t < b ≤ m; same bounds as the paired loads above.
                unsafe {
                    let y0 = _mm512_loadu_ps(yp.add(*ip.add(t) as usize * W)); // cast-ok: u32 to usize widens losslessly
                    let w = wp.add(t * K);
                    for (i, a0) in acc0.iter_mut().enumerate() {
                        *a0 = _mm512_fmadd_ps(y0, _mm512_set1_ps(*w.add(i)), *a0);
                    }
                }
            }
            for i in 0..K {
                // SAFETY: the plan has rows − K + 1 runs, so r + K ≤ rows
                // and `check` proved grid.len() == rows·16.
                unsafe {
                    let rp = gp.add((r + i) * W);
                    let run_sum = _mm512_add_ps(acc0[i], acc1[i]);
                    _mm512_storeu_ps(rp, _mm512_add_ps(_mm512_loadu_ps(rp), run_sum));
                }
            }
        }
    }
}

/// AVX2+FMA backend: each 16-lane row is a pair of 256-bit registers.
pub(crate) mod avx2 {
    use super::*;

    // ---- safe entry points (these are what the dispatch table holds) ----

    pub(crate) fn sum(x: &[f32]) -> f32 {
        // SAFETY: the dispatch table only selects this backend after
        // `is_x86_feature_detected!` confirmed avx2+fma; the inner fn reads
        // only within `x` (chunked loads + padded tail buffer).
        unsafe { sum_impl(x) }
    }

    pub(crate) fn dot(x: &[f32], y: &[f32]) -> f32 {
        assert_eq!(x.len(), y.len(), "dot: length mismatch");
        // SAFETY: avx2+fma verified at dispatch-table selection; equal
        // lengths asserted above bound every load of `y` by `x`'s chunks.
        unsafe { dot_impl(x, y) }
    }

    pub(crate) fn axpy(a: f32, x: &[f32], y: &mut [f32]) {
        assert_eq!(x.len(), y.len(), "axpy: length mismatch");
        // SAFETY: avx2+fma verified at dispatch-table selection; equal
        // lengths asserted above bound every `y` access by `x`'s chunks.
        unsafe { axpy_impl(a, x, y) }
    }

    pub(crate) fn xlogx_sum(x: &[f32]) -> f32 {
        // SAFETY: avx2+fma verified at dispatch-table selection; the inner
        // fn reads only within `x` (chunked loads + padded tail buffer).
        unsafe { xlogx_sum_impl(x) }
    }

    pub(crate) fn scale(a: f32, x: &mut [f32]) {
        // SAFETY: avx2+fma verified at dispatch-table selection; stores
        // stay within `x`'s full chunks, the tail is safe scalar code.
        unsafe { scale_impl(a, x) }
    }

    pub(crate) fn accumulate_runs(
        grid: &mut [f32],
        plan: &RunPlan,
        perm: Option<usize>,
        y_rows: &[f32],
    ) {
        let rows = plan.check(grid, y_rows, perm);
        // SAFETY: avx2+fma verified at dispatch-table selection; the plan's
        // build proved every run bound, weight offset and y-row index in
        // range, and `check` just tied its shapes to `grid` and `y_rows`.
        unsafe {
            with_order!(
                plan.order(),
                runs_impl(grid, plan.offsets(), plan.sorted_weights(), rows, y_rows)
            )
        }
    }

    // ---- feature-gated implementations ----

    /// Pairwise-tree reduction of a 16-lane value held as (lanes 0..8,
    /// lanes 8..16), matching `F32x16::reduce_add` exactly.
    #[target_feature(enable = "avx2,fma")]
    fn reduce_add_tree(lo: __m256, hi: __m256) -> f32 {
        let s8 = _mm256_add_ps(lo, hi); // width 8: lane i += lane i+8
        let s4 = _mm_add_ps(_mm256_castps256_ps128(s8), _mm256_extractf128_ps::<1>(s8));
        let s2 = _mm_add_ps(s4, _mm_movehl_ps(s4, s4)); // width 2
        let s1 = _mm_add_ss(s2, _mm_shuffle_ps::<0b01>(s2, s2)); // width 1
        _mm_cvtss_f32(s1)
    }

    /// Load ≤16 elements zero-padded into two 256-bit registers.
    #[target_feature(enable = "avx2,fma")]
    fn load_padded(tail: &[f32]) -> (__m256, __m256) {
        let mut buf = [0.0f32; W];
        let n = tail.len().min(W);
        buf[..n].copy_from_slice(&tail[..n]);
        // SAFETY: `buf` is a live 16-float stack array, always fully
        // readable at offsets 0 and 8.
        unsafe {
            (
                _mm256_loadu_ps(buf.as_ptr()),
                _mm256_loadu_ps(buf.as_ptr().add(8)),
            )
        }
    }

    #[target_feature(enable = "avx2,fma")]
    fn sum_impl(x: &[f32]) -> f32 {
        let mut lo = _mm256_setzero_ps();
        let mut hi = _mm256_setzero_ps();
        let chunks = x.len() / W;
        let p = x.as_ptr();
        for c in 0..chunks {
            // SAFETY: c < chunks ⇒ the 16 floats at c*16 are inside `x`.
            unsafe {
                lo = _mm256_add_ps(lo, _mm256_loadu_ps(p.add(c * W)));
                hi = _mm256_add_ps(hi, _mm256_loadu_ps(p.add(c * W + 8)));
            }
        }
        let tail = &x[chunks * W..];
        if !tail.is_empty() {
            let (tlo, thi) = load_padded(tail);
            lo = _mm256_add_ps(lo, tlo);
            hi = _mm256_add_ps(hi, thi);
        }
        reduce_add_tree(lo, hi)
    }

    #[target_feature(enable = "avx2,fma")]
    fn dot_impl(x: &[f32], y: &[f32]) -> f32 {
        let mut lo = _mm256_setzero_ps();
        let mut hi = _mm256_setzero_ps();
        let chunks = x.len() / W;
        let xp = x.as_ptr();
        let yp = y.as_ptr();
        for c in 0..chunks {
            // SAFETY: c < chunks and x.len() == y.len() (entry wrapper) ⇒
            // both 16-float loads at c*16 are in bounds.
            unsafe {
                lo = _mm256_fmadd_ps(
                    _mm256_loadu_ps(xp.add(c * W)),
                    _mm256_loadu_ps(yp.add(c * W)),
                    lo,
                );
                hi = _mm256_fmadd_ps(
                    _mm256_loadu_ps(xp.add(c * W + 8)),
                    _mm256_loadu_ps(yp.add(c * W + 8)),
                    hi,
                );
            }
        }
        let t = chunks * W;
        if t < x.len() {
            let (xlo, xhi) = load_padded(&x[t..]);
            let (ylo, yhi) = load_padded(&y[t..]);
            lo = _mm256_fmadd_ps(xlo, ylo, lo);
            hi = _mm256_fmadd_ps(xhi, yhi, hi);
        }
        reduce_add_tree(lo, hi)
    }

    #[target_feature(enable = "avx2,fma")]
    fn axpy_impl(a: f32, x: &[f32], y: &mut [f32]) {
        let av = _mm256_set1_ps(a);
        let chunks = x.len() / W;
        let xp = x.as_ptr();
        let yp = y.as_mut_ptr();
        for c in 0..chunks {
            // SAFETY: c < chunks and x.len() == y.len() (entry wrapper) ⇒
            // the 16-float load/store window at c*16 is inside both slices.
            unsafe {
                let r0 = _mm256_fmadd_ps(
                    _mm256_loadu_ps(xp.add(c * W)),
                    av,
                    _mm256_loadu_ps(yp.add(c * W)),
                );
                let r1 = _mm256_fmadd_ps(
                    _mm256_loadu_ps(xp.add(c * W + 8)),
                    av,
                    _mm256_loadu_ps(yp.add(c * W + 8)),
                );
                _mm256_storeu_ps(yp.add(c * W), r0);
                _mm256_storeu_ps(yp.add(c * W + 8), r1);
            }
        }
        for i in chunks * W..x.len() {
            y[i] = x[i].mul_add(a, y[i]);
        }
    }

    #[target_feature(enable = "avx2,fma")]
    fn scale_impl(a: f32, x: &mut [f32]) {
        let av = _mm256_set1_ps(a);
        let chunks = x.len() / W;
        let p = x.as_mut_ptr();
        for c in 0..chunks {
            // SAFETY: c < chunks ⇒ the 16-float load/store window at c*16
            // is inside `x`.
            unsafe {
                let r0 = _mm256_mul_ps(_mm256_loadu_ps(p.add(c * W)), av);
                let r1 = _mm256_mul_ps(_mm256_loadu_ps(p.add(c * W + 8)), av);
                _mm256_storeu_ps(p.add(c * W), r0);
                _mm256_storeu_ps(p.add(c * W + 8), r1);
            }
        }
        for v in &mut x[chunks * W..] {
            *v *= a;
        }
    }

    /// Vectorized `x·ln x` for one 256-bit register — same algorithm and
    /// lanewise arithmetic as the AVX-512 backend's `xlogx_lane`.
    #[target_feature(enable = "avx2,fma")]
    fn xlogx_lane(x: __m256) -> __m256 {
        let bits = _mm256_castps_si256(x);
        let m1 = _mm256_castsi256_ps(_mm256_or_si256(
            _mm256_and_si256(bits, _mm256_set1_epi32(0x007f_ffff)),
            _mm256_set1_epi32(0x3f80_0000),
        ));
        let e = _mm256_cvtepi32_ps(_mm256_sub_epi32(
            _mm256_and_si256(_mm256_srli_epi32::<23>(bits), _mm256_set1_epi32(0xff)),
            _mm256_set1_epi32(127),
        ));
        let one = _mm256_set1_ps(1.0);
        // Re-center to m ∈ [0.75, 1.5); compare and halving are exact.
        let ge = _mm256_cmp_ps::<_CMP_GE_OQ>(m1, _mm256_set1_ps(1.5));
        let m = _mm256_blendv_ps(m1, _mm256_mul_ps(m1, _mm256_set1_ps(0.5)), ge);
        let e = _mm256_add_ps(e, _mm256_and_ps(ge, one));
        let t = _mm256_div_ps(_mm256_sub_ps(m, one), _mm256_add_ps(m, one));
        let t2 = _mm256_mul_ps(t, t);
        let mut p = _mm256_set1_ps(LN_C9);
        p = _mm256_fmadd_ps(p, t2, _mm256_set1_ps(LN_C7));
        p = _mm256_fmadd_ps(p, t2, _mm256_set1_ps(LN_C5));
        p = _mm256_fmadd_ps(p, t2, _mm256_set1_ps(LN_C3));
        p = _mm256_fmadd_ps(p, t2, _mm256_set1_ps(LN_C1));
        let ln = _mm256_fmadd_ps(e, _mm256_set1_ps(LN_2), _mm256_mul_ps(p, t));
        let res = _mm256_mul_ps(x, ln);
        // Zero non-positive / denormal lanes; the AND also swallows NaNs.
        let valid = _mm256_cmp_ps::<_CMP_GE_OQ>(x, _mm256_set1_ps(f32::MIN_POSITIVE));
        _mm256_and_ps(res, valid)
    }

    #[target_feature(enable = "avx2,fma")]
    fn xlogx_sum_impl(x: &[f32]) -> f32 {
        let mut lo = _mm256_setzero_ps();
        let mut hi = _mm256_setzero_ps();
        let chunks = x.len() / W;
        let p = x.as_ptr();
        for c in 0..chunks {
            // SAFETY: c < chunks ⇒ the 16 floats at c*16 are inside `x`.
            unsafe {
                lo = _mm256_add_ps(lo, xlogx_lane(_mm256_loadu_ps(p.add(c * W))));
                hi = _mm256_add_ps(hi, xlogx_lane(_mm256_loadu_ps(p.add(c * W + 8))));
            }
        }
        let tail = &x[chunks * W..];
        if !tail.is_empty() {
            // Padding lanes are 0 ⇒ masked to 0 by xlogx_lane.
            let (tlo, thi) = load_padded(tail);
            lo = _mm256_add_ps(lo, xlogx_lane(tlo));
            hi = _mm256_add_ps(hi, xlogx_lane(thi));
        }
        reduce_add_tree(lo, hi)
    }

    /// The run-blocked loop for spline order `K`, each 16-lane row held
    /// as a (lanes 0..8, lanes 8..16) ymm pair — the same lanewise
    /// arithmetic as the AVX-512 backend.
    #[target_feature(enable = "avx2,fma")]
    fn runs_impl<const K: usize>(
        grid: &mut [f32],
        offsets: &[u32],
        weights: &[f32],
        rows: &[u32],
        y_rows: &[f32],
    ) {
        let gp = grid.as_mut_ptr();
        let yp = y_rows.as_ptr();
        let wp = weights.as_ptr();
        let ip = rows.as_ptr();
        for (r, run) in offsets.windows(2).enumerate() {
            let (a, b) = (run[0] as usize, run[1] as usize); // cast-ok: u32 to usize widens losslessly
            if a == b {
                continue;
            }
            let mut acc0 = [[_mm256_setzero_ps(); 2]; K];
            let mut acc1 = [[_mm256_setzero_ps(); 2]; K];
            let mut t = a;
            while t + 1 < b {
                // SAFETY: t + 1 < b ≤ m, and the plan holds m row indices
                // (each < m) and m·K weights; `check` proved
                // y_rows.len() == m·16, so both 16-float rows are in bounds.
                unsafe {
                    let y0 = yp.add(*ip.add(t) as usize * W); // cast-ok: u32 to usize widens losslessly
                    let y1 = yp.add(*ip.add(t + 1) as usize * W); // cast-ok: u32 to usize widens losslessly
                    let (y0lo, y0hi) = (_mm256_loadu_ps(y0), _mm256_loadu_ps(y0.add(8)));
                    let (y1lo, y1hi) = (_mm256_loadu_ps(y1), _mm256_loadu_ps(y1.add(8)));
                    let w = wp.add(t * K);
                    for (i, (a0, a1)) in acc0.iter_mut().zip(&mut acc1).enumerate() {
                        let w0 = _mm256_set1_ps(*w.add(i));
                        let w1 = _mm256_set1_ps(*w.add(K + i));
                        a0[0] = _mm256_fmadd_ps(y0lo, w0, a0[0]);
                        a0[1] = _mm256_fmadd_ps(y0hi, w0, a0[1]);
                        a1[0] = _mm256_fmadd_ps(y1lo, w1, a1[0]);
                        a1[1] = _mm256_fmadd_ps(y1hi, w1, a1[1]);
                    }
                }
                t += 2;
            }
            if t < b {
                // SAFETY: t < b ≤ m; same bounds as the paired loads above.
                unsafe {
                    let y0 = yp.add(*ip.add(t) as usize * W); // cast-ok: u32 to usize widens losslessly
                    let (y0lo, y0hi) = (_mm256_loadu_ps(y0), _mm256_loadu_ps(y0.add(8)));
                    let w = wp.add(t * K);
                    for (i, a0) in acc0.iter_mut().enumerate() {
                        let w0 = _mm256_set1_ps(*w.add(i));
                        a0[0] = _mm256_fmadd_ps(y0lo, w0, a0[0]);
                        a0[1] = _mm256_fmadd_ps(y0hi, w0, a0[1]);
                    }
                }
            }
            for i in 0..K {
                // SAFETY: the plan has rows − K + 1 runs, so r + K ≤ rows
                // and `check` proved grid.len() == rows·16.
                unsafe {
                    let rp = gp.add((r + i) * W);
                    for (h, off) in [0, 8].into_iter().enumerate() {
                        let run_sum = _mm256_add_ps(acc0[i][h], acc1[i][h]);
                        let cell = _mm256_add_ps(_mm256_loadu_ps(rp.add(off)), run_sum);
                        _mm256_storeu_ps(rp.add(off), cell);
                    }
                }
            }
        }
    }
}
