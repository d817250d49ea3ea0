//! Hardware slice-kernel backends for x86-64: AVX-512F and AVX2+FMA.
//!
//! Each backend implements the same four kernels as the emulated laned
//! ones in [`crate::slice_ops`] (`axpy`, `xlogx_sum`, `accumulate_runs`
//! and `xlogx_packed`), with the same arithmetic *shape*:
//!
//! * lanewise work chunk-by-chunk in slice order,
//! * zero-padded tail handling (tails are staged through a zeroed stack
//!   buffer, exactly like `F32x16::from_slice_padded`),
//! * the deterministic pairwise-tree horizontal reduction
//!   (`lane[i] += lane[i + width]`, width halving 16 → 1);
//! * for `accumulate_runs`, the run-blocked order of
//!   `slice_ops::accumulate_runs_emulated`: per run and per *y* column,
//!   two partial sets of `k` register rows alternating sample by sample,
//!   then `grid += set₀ + set₁`. AVX-512 runs up to
//!   [`run_block_columns`] register groups per pass over the plan; AVX2
//!   (16 ymm registers, 12 of them one group's accumulators at k = 3)
//!   runs one;
//! * for `xlogx_packed`, `xlogx_sum`'s per-lane sums over each group's
//!   rows, then each packed column's lanes moved to lanes `0..b` of a
//!   zeroed register and reduced by the same tree, so each column's sum
//!   is bitwise that backend's `xlogx_sum` over the column's unpacked
//!   grid.
//!
//! Because a hardware FMA computes the same correctly-rounded fused result
//! as `f32::mul_add`, `axpy` and `accumulate_runs` are *bitwise* identical
//! to the emulated backend. `xlogx_sum` is the one exception: it vectorizes
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
//! once when its [`RunPlan`] was built (every sorted position holds a
//! sample below `m`) and its [`Pairing`] validated (every index below
//! `m`); its wrapper checks the O(1) shapes that tie the plan and the
//! pairing to the slices, and the [`Row16`] type proves every row 64-byte
//! aligned for the aligned loads and stores.

use crate::row::Row16;
use crate::run_plan::{run_block_columns, with_order, Pairing, RunPlan};
use crate::slice_ops::{check_packed, MAX_PACKED_GROUPS};
#[cfg(target_arch = "x86_64")]
use core::arch::x86_64::*;

/// Width shared by every backend (one 512-bit register, two 256-bit ones).
const W: usize = 16;

/// Where the run kernel finds the *y* row of sorted position `t`: the
/// plan's sample order `order[t]` for the observed pairing, or
/// `π[order[t]]` for a null pairing `π` ([`PairedRows`]).
trait RowSource: Copy {
    /// The *y* row of sorted position `t`.
    ///
    /// # Safety
    /// `t` must be below the sample count `m` of the plan the source was
    /// made from.
    // SAFETY: callers uphold `t < m`; see each implementation.
    unsafe fn row(self, t: usize) -> usize;
}

/// The observed pairing: position `t` reads row `order[t]`.
#[derive(Clone, Copy)]
struct SortedRows<'a>(&'a [u32]);

/// A null pairing: position `t` reads row `perm[order[t]]`.
#[derive(Clone, Copy)]
struct PairedRows<'a> {
    order: &'a [u32],
    perm: &'a [u32],
}

impl<'a> SortedRows<'a> {
    fn of(plan: &'a RunPlan) -> Self {
        Self(plan.sample_order())
    }
}

impl<'a> PairedRows<'a> {
    fn of(plan: &'a RunPlan, pairing: Pairing<'a>) -> Self {
        assert_eq!(
            pairing.samples(),
            plan.samples(),
            "run plan: pairing length mismatch"
        );
        Self {
            order: plan.sample_order(),
            perm: pairing.indices(),
        }
    }
}

impl RowSource for SortedRows<'_> {
    #[inline(always)]
    // SAFETY: `t < m` (the caller's contract) and the plan's sample order
    // holds `m` entries, each a sample below `m`.
    unsafe fn row(self, t: usize) -> usize {
        // SAFETY: see above; `t` indexes the `m`-long sample order.
        unsafe { *self.0.get_unchecked(t) as usize } // cast-ok: u32 to usize widens losslessly
    }
}

impl RowSource for PairedRows<'_> {
    #[inline(always)]
    // SAFETY: `t < m` (the caller's contract); the sample order holds `m`
    // entries below `m`, and the pairing, of `m` indices (checked in
    // `of`), holds only indices below `m` (`Pairing::new`).
    unsafe fn row(self, t: usize) -> usize {
        // SAFETY: both reads index `m`-long slices below `m`, see above.
        unsafe {
            let s = *self.order.get_unchecked(t) as usize; // cast-ok: u32 to usize widens losslessly
            *self.perm.get_unchecked(s) as usize // cast-ok: u32 to usize widens losslessly
        }
    }
}

/// Call `$f::<K, C>($args…)` with `K` the runtime spline order `$k` and
/// `C` the runtime column count `$c`, for every `C ≤`
/// [`run_block_columns`]`(K)` — the block shapes the AVX-512 kernel
/// keeps in registers.
macro_rules! with_order_and_columns {
    ($k:expr, $c:expr, $f:ident ( $($arg:expr),* $(,)? )) => {
        match ($k, $c) {
            (1, 1) => $f::<1, 1>($($arg),*),
            (1, 2) => $f::<1, 2>($($arg),*),
            (1, 3) => $f::<1, 3>($($arg),*),
            (1, 4) => $f::<1, 4>($($arg),*),
            (2, 1) => $f::<2, 1>($($arg),*),
            (2, 2) => $f::<2, 2>($($arg),*),
            (2, 3) => $f::<2, 3>($($arg),*),
            (2, 4) => $f::<2, 4>($($arg),*),
            (3, 1) => $f::<3, 1>($($arg),*),
            (3, 2) => $f::<3, 2>($($arg),*),
            (3, 3) => $f::<3, 3>($($arg),*),
            (3, 4) => $f::<3, 4>($($arg),*),
            (4, 1) => $f::<4, 1>($($arg),*),
            (4, 2) => $f::<4, 2>($($arg),*),
            (4, 3) => $f::<4, 3>($($arg),*),
            (5, 1) => $f::<5, 1>($($arg),*),
            (5, 2) => $f::<5, 2>($($arg),*),
            (6, 1) => $f::<6, 1>($($arg),*),
            (6, 2) => $f::<6, 2>($($arg),*),
            (7, 1) => $f::<7, 1>($($arg),*),
            (8, 1) => $f::<8, 1>($($arg),*),
            (k, c) => unreachable!("no {c}-column block at order {k}"),
        }
    };
}

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

    pub(crate) fn xlogx_packed(
        grids: &[&[Row16]],
        first_lane: usize,
        bins: usize,
        out: &mut [f32],
    ) {
        check_packed(grids, first_lane, bins, out.len());
        // SAFETY: avx512f verified at dispatch-table selection; the inner
        // fn loads only whole `Row16`s of `grids` and `check_packed` bounded
        // the group count and every column's lanes.
        unsafe { xlogx_packed_impl(grids, first_lane, bins, out) }
    }

    pub(crate) fn accumulate_runs(
        plan: &RunPlan,
        pairing: Option<Pairing<'_>>,
        ys: &[&[Row16]],
        grids: &mut [&mut [Row16]],
    ) {
        plan.check(pairing, ys, grids);
        match pairing {
            None => blocks(plan, SortedRows::of(plan), ys, grids),
            Some(p) => blocks(plan, PairedRows::of(plan, p), ys, grids),
        }
    }

    /// The plan's runs over `ys` in blocks of up to [`run_block_columns`]
    /// columns, reading y rows through `rows`.
    fn blocks(plan: &RunPlan, rows: impl RowSource, ys: &[&[Row16]], grids: &mut [&mut [Row16]]) {
        let width = run_block_columns(plan.order());
        for (ys, grids) in ys.chunks(width).zip(grids.chunks_mut(width)) {
            // SAFETY: avx512f verified at dispatch-table selection; the
            // plan's build proved every run bound and weight offset in
            // range, `rows` reads only rows below m (`RowSource`), `check`
            // tied the plan's and the pairing's shapes to every grid and
            // y, and the chunk holds 1..=width columns.
            unsafe {
                with_order_and_columns!(
                    plan.order(),
                    ys.len(),
                    runs_impl(plan.offsets(), plan.sorted_weights(), rows, ys, grids)
                )
            }
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

    /// Each group's lane sums of `x·ln x` in row order, as
    /// [`xlogx_sum_impl`] adds a grid's rows; then each column's `bins`
    /// lanes, from one group or straddling two, permuted into lanes
    /// `0..bins` of a zeroed register and reduced by the same tree.
    #[target_feature(enable = "avx512f")]
    fn xlogx_packed_impl(grids: &[&[Row16]], first_lane: usize, bins: usize, out: &mut [f32]) {
        // One zero group past the last, for a column's second half.
        let mut sums = [_mm512_setzero_ps(); MAX_PACKED_GROUPS + 1];
        for (acc, grid) in sums.iter_mut().zip(grids) {
            for row in grid.iter() {
                // SAFETY: `row` is a live `Row16`: 16 floats on a 64-byte
                // boundary, so the aligned load stays inside it.
                let v = unsafe { _mm512_load_ps(row.0.as_ptr()) };
                *acc = _mm512_add_ps(*acc, xlogx_lane(v));
            }
        }
        let iota = _mm512_set_epi32(15, 14, 13, 12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0);
        let keep = u16::MAX >> (W - bins); // lanes 0..bins; 1 ≤ bins ≤ 16 (`check_packed`)
        for (c, o) in out.iter_mut().enumerate() {
            let lane = first_lane + c * bins;
            let (g, off) = (lane / W, lane % W);
            // Index `off + i` picks lane `off + i` of group g, or lane
            // `off + i − 16` of group g + 1 from 16 on.
            let off = i32::try_from(off).expect("a lane offset below 16");
            let idx = _mm512_add_epi32(iota, _mm512_set1_epi32(off));
            let column = _mm512_maskz_permutex2var_ps(keep, sums[g], idx, sums[g + 1]);
            *o = reduce_add_tree(column);
        }
    }

    /// The run-blocked loop for spline order `K` over a block of `C` *y*
    /// columns: per column, two partial sets of `K` zmm rows per run,
    /// alternating sample by sample, added to the column's grid once at
    /// the run's end. The columns share each sample's row index and
    /// weights; each column's own FMAs and adds are those of a one-column
    /// block.
    #[target_feature(enable = "avx512f")]
    fn runs_impl<const K: usize, const C: usize>(
        offsets: &[u32],
        weights: &[f32],
        rows: impl RowSource,
        ys: &[&[Row16]],
        grids: &mut [&mut [Row16]],
    ) {
        let yp: [*const f32; C] = core::array::from_fn(|c| ys[c].as_ptr().cast::<f32>());
        let gp: [*mut f32; C] = core::array::from_fn(|c| grids[c].as_mut_ptr().cast::<f32>());
        let wp = weights.as_ptr();
        for (r, run) in offsets.windows(2).enumerate() {
            let (a, b) = (run[0] as usize, run[1] as usize); // cast-ok: u32 to usize widens losslessly
            if a == b {
                continue;
            }
            let mut acc0 = [[_mm512_setzero_ps(); K]; C];
            let mut acc1 = [[_mm512_setzero_ps(); K]; C];
            let mut t = a;
            while t + 1 < b {
                // SAFETY: t + 1 < b ≤ m, so `rows` yields two rows below m,
                // and the plan holds m·K weights; `check` proved every y
                // holds m rows, so both rows of every column are in bounds,
                // and `Row16` aligns each row to 64 bytes for the aligned
                // load.
                unsafe {
                    let (y0, y1) = (rows.row(t) * W, rows.row(t + 1) * W);
                    let w = wp.add(t * K);
                    for ((c0, c1), y) in acc0.iter_mut().zip(&mut acc1).zip(yp) {
                        let (v0, v1) = (_mm512_load_ps(y.add(y0)), _mm512_load_ps(y.add(y1)));
                        for (i, (a0, a1)) in c0.iter_mut().zip(c1).enumerate() {
                            *a0 = _mm512_fmadd_ps(v0, _mm512_set1_ps(*w.add(i)), *a0);
                            *a1 = _mm512_fmadd_ps(v1, _mm512_set1_ps(*w.add(K + i)), *a1);
                        }
                    }
                }
                t += 2;
            }
            if t < b {
                // SAFETY: t < b ≤ m; same bounds as the paired loads above.
                unsafe {
                    let y0 = rows.row(t) * W;
                    let w = wp.add(t * K);
                    for (c0, y) in acc0.iter_mut().zip(yp) {
                        let v0 = _mm512_load_ps(y.add(y0));
                        for (i, a0) in c0.iter_mut().enumerate() {
                            *a0 = _mm512_fmadd_ps(v0, _mm512_set1_ps(*w.add(i)), *a0);
                        }
                    }
                }
            }
            for ((c0, c1), g) in acc0.iter().zip(&acc1).zip(gp) {
                for (i, (a0, a1)) in c0.iter().zip(c1).enumerate() {
                    // SAFETY: the plan has rows − K + 1 runs, so r + K ≤ rows,
                    // `check` proved every grid holds `rows` aligned rows.
                    unsafe {
                        let rp = g.add((r + i) * W);
                        let run_sum = _mm512_add_ps(*a0, *a1);
                        _mm512_store_ps(rp, _mm512_add_ps(_mm512_load_ps(rp), run_sum));
                    }
                }
            }
        }
    }
}

/// AVX2+FMA backend: each 16-lane row is a pair of 256-bit registers.
pub(crate) mod avx2 {
    use super::*;

    // ---- safe entry points (these are what the dispatch table holds) ----

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

    pub(crate) fn xlogx_packed(
        grids: &[&[Row16]],
        first_lane: usize,
        bins: usize,
        out: &mut [f32],
    ) {
        check_packed(grids, first_lane, bins, out.len());
        // SAFETY: avx2+fma verified at dispatch-table selection; the inner
        // fn loads only whole `Row16`s of `grids` and its own lane-sum
        // buffer, whose size `check_packed` bounded every column within.
        unsafe { xlogx_packed_impl(grids, first_lane, bins, out) }
    }

    pub(crate) fn accumulate_runs(
        plan: &RunPlan,
        pairing: Option<Pairing<'_>>,
        ys: &[&[Row16]],
        grids: &mut [&mut [Row16]],
    ) {
        plan.check(pairing, ys, grids);
        match pairing {
            None => columns(plan, SortedRows::of(plan), ys, grids),
            Some(p) => columns(plan, PairedRows::of(plan, p), ys, grids),
        }
    }

    /// The plan's runs over `ys` one column at a time, reading y rows
    /// through `rows`.
    fn columns(plan: &RunPlan, rows: impl RowSource, ys: &[&[Row16]], grids: &mut [&mut [Row16]]) {
        for (y, grid) in ys.iter().zip(grids.iter_mut()) {
            // SAFETY: avx2+fma verified at dispatch-table selection; the
            // plan's build proved every run bound and weight offset in
            // range, `rows` reads only rows below m (`RowSource`), and
            // `check` tied the plan's and the pairing's shapes to `grid`
            // and `y`.
            unsafe {
                with_order!(
                    plan.order(),
                    runs_impl(plan.offsets(), plan.sorted_weights(), rows, y, grid)
                )
            }
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

    /// Each group's lane sums of `x·ln x` in row order, as
    /// [`xlogx_sum_impl`] adds a grid's rows, stored group after group;
    /// then each column's `bins` lanes loaded from there (straddling two
    /// groups where the column does) and masked to lanes `0..bins` of a
    /// zeroed pair, reduced by the same tree.
    #[target_feature(enable = "avx2,fma")]
    fn xlogx_packed_impl(grids: &[&[Row16]], first_lane: usize, bins: usize, out: &mut [f32]) {
        // One zero group past the last, so a column's 16-lane load ends
        // inside the buffer.
        let mut sums = [0.0f32; W * (MAX_PACKED_GROUPS + 1)];
        for (lanes, grid) in sums.chunks_exact_mut(W).zip(grids) {
            let (mut lo, mut hi) = (_mm256_setzero_ps(), _mm256_setzero_ps());
            for row in grid.iter() {
                let p = row.0.as_ptr();
                // SAFETY: `row` is a live `Row16`, 16 floats at p..p + 16.
                unsafe {
                    lo = _mm256_add_ps(lo, xlogx_lane(_mm256_loadu_ps(p)));
                    hi = _mm256_add_ps(hi, xlogx_lane(_mm256_loadu_ps(p.add(8))));
                }
            }
            // SAFETY: `lanes` is a 16-float chunk of `sums`.
            unsafe {
                _mm256_storeu_ps(lanes.as_mut_ptr(), lo);
                _mm256_storeu_ps(lanes.as_mut_ptr().add(8), hi);
            }
        }
        let bound = i32::try_from(bins).expect("1 ≤ bins ≤ 16 (`check_packed`)");
        let bound = _mm256_set1_epi32(bound);
        let keep_lo = _mm256_cmpgt_epi32(bound, _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
        let keep_hi = _mm256_cmpgt_epi32(bound, _mm256_setr_epi32(8, 9, 10, 11, 12, 13, 14, 15));
        let (keep_lo, keep_hi) = (_mm256_castsi256_ps(keep_lo), _mm256_castsi256_ps(keep_hi));
        for (c, o) in out.iter_mut().enumerate() {
            let lane = first_lane + c * bins;
            // SAFETY: `check_packed` proved lane + bins ≤ 16 · groups with
            // bins ≥ 1, so lane < 16 · groups and the 16 floats from
            // `lane` end within the groups' sums and the zero group after
            // them, inside `sums`. The loads may straddle two groups; the
            // masks keep only the column's `bins` lanes.
            let (lo, hi) = unsafe {
                let p = sums.as_ptr().add(lane);
                (_mm256_loadu_ps(p), _mm256_loadu_ps(p.add(8)))
            };
            *o = reduce_add_tree(_mm256_and_ps(lo, keep_lo), _mm256_and_ps(hi, keep_hi));
        }
    }

    /// The run-blocked loop for spline order `K`, each 16-lane row held
    /// as a (lanes 0..8, lanes 8..16) ymm pair — the same lanewise
    /// arithmetic as the AVX-512 backend.
    #[target_feature(enable = "avx2,fma")]
    fn runs_impl<const K: usize>(
        offsets: &[u32],
        weights: &[f32],
        rows: impl RowSource,
        y: &[Row16],
        grid: &mut [Row16],
    ) {
        let gp = grid.as_mut_ptr().cast::<f32>();
        let yp = y.as_ptr().cast::<f32>();
        let wp = weights.as_ptr();
        for (r, run) in offsets.windows(2).enumerate() {
            let (a, b) = (run[0] as usize, run[1] as usize); // cast-ok: u32 to usize widens losslessly
            if a == b {
                continue;
            }
            let mut acc0 = [[_mm256_setzero_ps(); 2]; K];
            let mut acc1 = [[_mm256_setzero_ps(); 2]; K];
            let mut t = a;
            while t + 1 < b {
                // SAFETY: t + 1 < b ≤ m, so `rows` yields two rows below m,
                // and the plan holds m·K weights; `check` proved `y` holds
                // m rows, so both 16-float rows are in bounds.
                unsafe {
                    let y0 = yp.add(rows.row(t) * W);
                    let y1 = yp.add(rows.row(t + 1) * W);
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
                    let y0 = yp.add(rows.row(t) * W);
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
                // and `check` proved `grid` holds `rows` rows.
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
