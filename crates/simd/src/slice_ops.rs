//! Whole-slice kernels in scalar-reference and emulated-lane forms.
//!
//! Every primitive the MI estimators use appears in these forms:
//!
//! * `*_scalar` — a plain element-at-a-time loop. These are the paper's
//!   "vectorization disabled" baseline (experiment R4) and double as the
//!   reference implementations the laned forms are tested against.
//! * `*_emulated` — processes [`F32x16::LANES`] elements per step with a
//!   masked tail, accumulating into lane registers and reducing once at
//!   the end with the deterministic pairwise tree. Portable: plain arrays
//!   the optimizer may or may not vectorize.
//!
//! The emulated forms are one backend's entries in a
//! [`KernelTable`](crate::dispatch::KernelTable); the AVX-512F and
//! AVX2+FMA entries run real intrinsics (`x86.rs`). Callers reach
//! a kernel only through a table — the one [`crate::dispatch::table`]
//! resolved for the process, or one backend's from
//! [`KernelTable::for_backend`](crate::dispatch::KernelTable::for_backend)
//! — and the table fields document each kernel's contract.
//!
//! The laned forms intentionally mirror how the paper restructures the
//! B-spline accumulation: a single dense FMA stream, no per-element
//! branches, reductions deferred to the end. All backends share the same
//! accumulation shape and pairwise reduction tree, so `axpy` and
//! `accumulate_runs` agree *bitwise* across backends on FMA hardware;
//! `xlogx_sum` agrees to a few ULP (vectorized `ln`).

use crate::lanes::F32x16;
use crate::row::Row16;
use crate::run_plan::{with_order, Pairing, RunPlan};

/// Width used by the laned slice kernels.
pub const W: usize = F32x16::LANES;

// ---------------------------------------------------------------------------
// Scalar reference kernels ("no vectorization" baseline)
// ---------------------------------------------------------------------------

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

// ---------------------------------------------------------------------------
// Emulated laned kernels (portable fallback backend)
// ---------------------------------------------------------------------------

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

/// Most 16-lane register groups one call of
/// [`KernelTable::xlogx_packed`](crate::dispatch::KernelTable::xlogx_packed)
/// reads: the groups one pass of the run kernel holds at any order
/// ([`run_block_columns`](crate::run_plan::run_block_columns)`(1)`).
pub const MAX_PACKED_GROUPS: usize = crate::run_plan::run_block_columns(1);

/// The O(1) shape checks every backend's `xlogx_packed` makes: 1 to 16
/// bins, 1 to [`MAX_PACKED_GROUPS`] groups of equal length, and
/// `columns` columns from lane `first_lane` that end within the groups.
///
/// # Panics
/// Panics on a shape the packed layout cannot hold.
pub(crate) fn check_packed(grids: &[&[Row16]], first_lane: usize, bins: usize, columns: usize) {
    assert!((1..=W).contains(&bins), "packed entropy: {bins} bins");
    assert!(
        (1..=MAX_PACKED_GROUPS).contains(&grids.len()),
        "packed entropy: {} groups",
        grids.len()
    );
    assert!(
        grids.iter().all(|g| g.len() == grids[0].len()),
        "packed entropy: groups of unequal rows"
    );
    assert!(
        first_lane + columns * bins <= grids.len() * W,
        "packed entropy: {columns} columns from lane {first_lane} overrun {} groups",
        grids.len()
    );
}

/// Portable emulated backend of
/// [`KernelTable::xlogx_packed`](crate::dispatch::KernelTable::xlogx_packed):
/// each group's lane sums of `x·ln x` in row order, then each column's
/// `bins` lane sums moved to lanes `0..bins` of a zeroed value and
/// reduced by the pairwise tree — [`xlogx_sum_emulated`]'s arithmetic on
/// the column's unpacked grid.
pub fn xlogx_packed_emulated(grids: &[&[Row16]], first_lane: usize, bins: usize, out: &mut [f32]) {
    check_packed(grids, first_lane, bins, out.len());
    let mut sums = [0.0f32; W * (MAX_PACKED_GROUPS + 1)];
    for (grid, lanes) in grids.iter().zip(sums.chunks_exact_mut(W)) {
        let mut acc = F32x16::zero();
        for row in grid.iter() {
            acc += F32x16::from_slice(&row.0).xlogx();
        }
        acc.write_to_slice(lanes);
    }
    for (c, o) in out.iter_mut().enumerate() {
        let lane = first_lane + c * bins;
        *o = F32x16::from_slice_padded(&sums[lane..lane + bins]).reduce_add();
    }
}

/// Portable emulated backend of
/// [`KernelTable::accumulate_runs`](crate::dispatch::KernelTable::accumulate_runs):
/// the run-blocked loop
/// on [`F32x16`] values, one column of the block at a time, in the same
/// per-cell operation order as the hardware backends.
pub fn accumulate_runs_emulated(
    plan: &RunPlan,
    pairing: Option<Pairing<'_>>,
    ys: &[&[Row16]],
    grids: &mut [&mut [Row16]],
) {
    plan.check(pairing, ys, grids);
    let (offsets, weights) = (plan.offsets(), plan.sorted_weights());
    let sorted = |t: usize| plan.sample_order()[t] as usize; // cast-ok: u32 to usize widens losslessly
    for (y, grid) in ys.iter().zip(grids.iter_mut()) {
        match pairing {
            None => with_order!(
                plan.order(),
                runs_emulated(offsets, weights, sorted, y, grid)
            ),
            Some(p) => {
                let paired = |t: usize| p.indices()[sorted(t)] as usize; // cast-ok: u32 to usize widens losslessly
                with_order!(
                    plan.order(),
                    runs_emulated(offsets, weights, paired, y, grid)
                );
            }
        }
    }
}

/// One column's runs, reading sorted position `t`'s y row `row(t)`.
fn runs_emulated<const K: usize>(
    offsets: &[u32],
    weights: &[f32],
    row: impl Fn(usize) -> usize,
    y: &[Row16],
    grid: &mut [Row16],
) {
    let y_row = |t: usize| F32x16::from_slice(&y[row(t)].0);
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
            let row = &mut grid[r + i].0;
            (F32x16::from_slice(row) + (acc0[i] + acc1[i])).write_to_slice(row);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dispatch::{table, Backend, KernelTable};
    use proptest::prelude::*;

    fn close(a: f32, b: f32, tol: f32) -> bool {
        let scale = a.abs().max(b.abs()).max(1.0);
        (a - b).abs() <= tol * scale
    }

    #[test]
    fn axpy_matches_scalar() {
        let x: Vec<f32> = (0..21).map(|i| i as f32 * 0.25).collect();
        let mut y1 = vec![1.0f32; 21];
        let mut y2 = y1.clone();
        (table().axpy)(2.5, &x, &mut y1);
        axpy_scalar(2.5, &x, &mut y2);
        for (a, b) in y1.iter().zip(&y2) {
            assert!(close(*a, *b, 1e-6));
        }
    }

    #[test]
    fn xlogx_sum_of_uniform_distribution() {
        // H = -Σ p ln p = ln 8 for uniform over 8 outcomes.
        let p = vec![0.125f32; 8];
        let h = -(table().xlogx_sum)(&p);
        assert!(close(h, 8.0f32.ln(), 1e-6));
        assert!(close(-xlogx_sum_scalar(&p), 8.0f32.ln(), 1e-6));
    }

    #[test]
    fn xlogx_sum_ignores_zeros() {
        let mut p = vec![0.0f32; 40];
        p[3] = 0.5;
        p[29] = 0.5;
        assert!(close(
            (table().xlogx_sum)(&p),
            2.0 * 0.5 * 0.5f32.ln(),
            1e-6
        ));
    }

    proptest! {
        #[test]
        fn prop_xlogx_matches_scalar(x in proptest::collection::vec(0.0f32..1.0, 0..200)) {
            prop_assert!(close((table().xlogx_sum)(&x), xlogx_sum_scalar(&x), 1e-4));
        }

        #[test]
        fn prop_axpy_matches_scalar(
            a in -5.0f32..5.0,
            xy in proptest::collection::vec((-10.0f32..10.0, -10.0f32..10.0), 0..100)
        ) {
            let x: Vec<f32> = xy.iter().map(|p| p.0).collect();
            let mut y1: Vec<f32> = xy.iter().map(|p| p.1).collect();
            let mut y2 = y1.clone();
            (table().axpy)(a, &x, &mut y1);
            axpy_scalar(a, &x, &mut y2);
            for (u, v) in y1.iter().zip(&y2) {
                prop_assert!(close(*u, *v, 1e-4));
            }
        }
    }

    // -- backend equivalence: every supported hardware backend vs emulated --

    fn tables() -> Vec<&'static KernelTable> {
        Backend::supported()
            .into_iter()
            .map(|b| KernelTable::for_backend(b).expect("supported backends have a table"))
            .collect()
    }

    /// The documented summation order in plain scalar code: sorted runs,
    /// two partial sets alternating within a run, `grid += set₀ + set₁`,
    /// sorted position `t` reading y row `order[t]`, or `perm[order[t]]`.
    fn reference_runs(plan: &RunPlan, perm: Option<&[u32]>, y_rows: &[f32]) -> Vec<f32> {
        let k = plan.order();
        let (w, order) = (plan.sorted_weights(), plan.sample_order());
        let row = |t: usize| {
            let s = order[t] as usize;
            perm.map_or(s, |p| p[s] as usize)
        };
        let mut grid = vec![0.0f32; plan.rows() * W];
        for (r, run) in plan.offsets().windows(2).enumerate() {
            let (a, b) = (run[0] as usize, run[1] as usize);
            let mut sets = vec![[[0.0f32; W]; 2]; k];
            for t in a..b {
                let y = &y_rows[row(t) * W..][..W];
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

    /// `m` rows of pseudo-random lanes.
    fn rows_from(m: usize, f: impl Fn(usize) -> f32) -> Vec<Row16> {
        (0..m)
            .map(|s| Row16(core::array::from_fn(|j| f(s * W + j))))
            .collect()
    }

    /// Run `kernel` on a block of `ys` into fresh grids of `rows` rows.
    fn run_block(
        kernel: crate::dispatch::RunKernel,
        plan: &RunPlan,
        perm: Option<&[u32]>,
        ys: &[Vec<Row16>],
    ) -> Vec<Vec<Row16>> {
        let mut grids = vec![vec![Row16::ZERO; plan.rows()]; ys.len()];
        let y_refs: Vec<&[Row16]> = ys.iter().map(Vec::as_slice).collect();
        let mut grid_refs: Vec<&mut [Row16]> = grids.iter_mut().map(Vec::as_mut_slice).collect();
        let pairing = perm.map(|p| Pairing::new(p, plan.samples()));
        kernel(plan, pairing, &y_refs, &mut grid_refs);
        grids
    }

    #[test]
    fn accumulate_runs_matches_naive_reference() {
        let (rows, k, m) = (10, 3, 37u16);
        let first_bins: Vec<u16> = (0..m).map(|s| (s * 5) % 8).collect();
        let m = usize::from(m);
        let weights: Vec<f32> = (0..m * k).map(|i| (i as f32 * 0.37).sin()).collect();
        let ys: Vec<Vec<Row16>> = (0..5)
            .map(|c| rows_from(m, |i| ((i + 7 * c) as f32 * 0.11).cos()))
            .collect();
        let perm: Vec<u32> = (0..37u32).map(|s| (s * 11) % 37).collect();
        let mut plan = RunPlan::new();
        plan.rebuild_per_sample(&first_bins, &weights, k, rows);
        for p in [None, Some(&perm[..])] {
            let grids = run_block(table().accumulate_runs, &plan, p, &ys);
            for (y, grid) in ys.iter().zip(&grids) {
                let flat = Row16::flatten(y);
                assert_eq!(
                    Row16::flatten(grid),
                    reference_runs(&plan, p, flat),
                    "perm {p:?}"
                );
                let naive = naive_joint(rows, &first_bins, &weights, k, flat, p);
                for (got, want) in Row16::flatten(grid).iter().zip(&naive) {
                    assert!((f64::from(*got) - want).abs() < 1e-4, "{got} vs {want}");
                }
            }
        }
    }

    #[test]
    fn packed_columns_split_across_groups_sum_as_their_unpacked_grids() {
        // Six 10-bin columns in four groups: columns 1, 3 and 4 straddle
        // two groups, and rows 2 and 7 are all zero.
        let (bins, rows) = (10, 10);
        let cell = |r: usize, l: usize| {
            if r == 2 || r == 7 || l >= 60 {
                0.0
            } else {
                ((r * 64 + l) % 37) as f32 * 0.75
            }
        };
        let grids: Vec<Vec<Row16>> = (0..4)
            .map(|g| {
                let row = |r| Row16(core::array::from_fn(|j| cell(r, g * W + j)));
                (0..rows).map(row).collect()
            })
            .collect();
        let refs: Vec<&[Row16]> = grids.iter().map(Vec::as_slice).collect();
        for t in tables() {
            let mut out = [0.0; 6];
            (t.xlogx_packed)(&refs, 0, bins, &mut out);
            for (c, got) in out.iter().enumerate() {
                let unpacked: Vec<f32> = (0..rows)
                    .flat_map(|r| {
                        (0..W).map(move |j| if j < bins { cell(r, c * bins + j) } else { 0.0 })
                    })
                    .collect();
                let want = (t.xlogx_sum)(&unpacked);
                assert_eq!(got.to_bits(), want.to_bits(), "{}: column {c}", t.backend);
            }
            // The columns from the second on, read from its lane, agree.
            let mut tail = [0.0; 5];
            (t.xlogx_packed)(&refs, bins, bins, &mut tail);
            assert_eq!(
                tail.map(f32::to_bits),
                out.map(f32::to_bits)[1..],
                "{}",
                t.backend
            );
        }
    }

    #[test]
    fn every_backend_rejects_packed_columns_past_the_groups() {
        let grids = [Row16::ZERO; 2];
        for t in tables() {
            for (first_lane, bins, columns) in [(7, 10, 1), (0, 17, 1), (0, 10, 2)] {
                let refused = std::panic::catch_unwind(|| {
                    let mut out = vec![0.0; columns];
                    (t.xlogx_packed)(&[&grids], first_lane, bins, &mut out);
                });
                assert!(refused.is_err(), "{}: {first_lane}, {bins}", t.backend);
            }
        }
    }

    #[test]
    #[should_panic(expected = "grid row count")]
    fn accumulate_runs_rejects_a_grid_of_another_shape() {
        let mut plan = RunPlan::new();
        plan.rebuild_per_sample(&[0], &[1.0], 1, 4);
        (table().accumulate_runs)(&plan, None, &[&[Row16::ZERO]], &mut [&mut [Row16::ZERO; 3]]);
    }

    #[test]
    fn every_backend_rejects_a_pairing_of_another_length() {
        let mut plan = RunPlan::new();
        plan.rebuild_per_sample(&[0, 1], &[1.0, 1.0], 1, 4);
        let three = [2u32, 0, 1];
        for t in tables() {
            let refused = std::panic::catch_unwind(|| {
                let y = [Row16::ZERO; 2];
                let mut grid = [Row16::ZERO; 4];
                let pairing = Some(Pairing::new(&three, 3));
                (t.accumulate_runs)(&plan, pairing, &[&y], &mut [&mut grid]);
            });
            let message = refused.expect_err("a 3-sample pairing of a 2-sample plan");
            let text = message.downcast_ref::<String>().map_or("", String::as_str);
            assert!(
                text.contains("pairing length mismatch"),
                "{}: {text}",
                t.backend
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64)
            .with_persistence("proptest-regressions/slice_ops_backend_equivalence.txt"))]

        /// `axpy` shares one arithmetic shape (lanewise chunk FMA,
        /// correctly-rounded scalar tail) across all backends, so it must
        /// agree **bitwise** — the equivalence grade DESIGN.md §14
        /// documents as "bitwise (0 ULP)".
        #[test]
        fn prop_linear_kernels_bitwise_across_backends(
            a in -5.0f32..5.0,
            xy in proptest::collection::vec((-10.0f32..10.0, -10.0f32..10.0), 0..200)
        ) {
            let x: Vec<f32> = xy.iter().map(|p| p.0).collect();
            let y: Vec<f32> = xy.iter().map(|p| p.1).collect();
            let mut ref_axpy = y.clone();
            axpy_emulated(a, &x, &mut ref_axpy);
            for t in tables() {
                let mut ya = y.clone();
                (t.axpy)(a, &x, &mut ya);
                for (got, want) in ya.iter().zip(&ref_axpy) {
                    prop_assert_eq!(got.to_bits(), want.to_bits(), "axpy on {}", t.backend);
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

        /// Each packed column's `Σ x ln x` is bitwise its backend's
        /// `xlogx_sum` over the column's unpacked grid — the same rows,
        /// the column's lanes at `0..bins` and zeros after — at every bin
        /// count, group count and first lane, for columns inside one
        /// group and columns split across two, with whole rows of zeros
        /// among the counts.
        #[test]
        fn prop_xlogx_packed_is_xlogx_sum_of_each_unpacked_column(
            seed in 0u64..1000,
            bins in 1usize..=16,
            groups in 1usize..=MAX_PACKED_GROUPS,
            rows in 1usize..=16,
            lead in 0usize..16,
        ) {
            let mix = |i: usize| {
                let z = (seed ^ (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z >> 40
            };
            let lanes = groups * W;
            let first_lane = lead.min(lanes - bins);
            let columns = (lanes - first_lane) / bins;
            // Counts up to ~300 with a third of the cells zero and every
            // fourth row all zero.
            let cell = |r: usize, l: usize| {
                let u = mix(r * lanes + l);
                if r % 4 == 3 || u % 3 == 0 { 0.0 } else { (u % 300_000) as f32 / 1000.0 }
            };
            let grids: Vec<Vec<Row16>> = (0..groups)
                .map(|g| (0..rows).map(|r| Row16(core::array::from_fn(|j| cell(r, g * W + j)))).collect())
                .collect();
            let refs: Vec<&[Row16]> = grids.iter().map(Vec::as_slice).collect();
            for t in tables() {
                let mut out = vec![f32::NAN; columns];
                (t.xlogx_packed)(&refs, first_lane, bins, &mut out);
                for (c, got) in out.iter().enumerate() {
                    let lane = first_lane + c * bins;
                    let unpacked: Vec<f32> = (0..rows)
                        .flat_map(|r| (0..W).map(move |j| if j < bins { cell(r, lane + j) } else { 0.0 }))
                        .collect();
                    let want = (t.xlogx_sum)(&unpacked);
                    prop_assert_eq!(got.to_bits(), want.to_bits(), "{}: column {} of {} from lane {}", t.backend, c, columns, first_lane);
                }
            }
        }

        /// The run-blocked accumulator is pure FMA plus adds in one fixed
        /// order per column, so every column of a block of any width from
        /// 1 to the order's block width is bitwise equal to the scalar
        /// statement of that order — the observed pairing and null
        /// pairings alike (identity, reversal, a stride and a random
        /// draw), on every backend's table entry. Bins are drawn from a
        /// narrow window so runs of length 0, 1, odd and even all occur.
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
            let width = crate::run_plan::run_block_columns(k);
            let ys: Vec<Vec<Row16>> = (0..width)
                .map(|c| rows_from(m, |i| mixf(i + 50_000 + c * 10_000)))
                .collect();
            let m32 = u32::try_from(m).unwrap();
            let mut random: Vec<u32> = (0..m32).collect();
            for i in (1..m).rev() {
                random.swap(i, usize::try_from(mixu(i + 90_000)).unwrap() % (i + 1));
            }
            let perms: Vec<Vec<u32>> = vec![
                (0..m32).collect(),
                (0..m32).rev().collect(),
                (0..m32).map(|s| (s * 7 + 3) % m32.max(1)).collect(),
                random,
            ];
            let mut plan = RunPlan::new();
            plan.rebuild_per_sample(&first_bins, &weights, k, rows);
            let pairings = std::iter::once(None).chain(perms.iter().map(|p| Some(&p[..])));
            for p in pairings {
                let reference: Vec<Vec<f32>> = ys
                    .iter()
                    .map(|y| reference_runs(&plan, p, Row16::flatten(y)))
                    .collect();
                for columns in 1..=width {
                    let block = &ys[..columns];
                    let emulated = run_block(accumulate_runs_emulated, &plan, p, block);
                    for (c, grid) in emulated.iter().enumerate() {
                        prop_assert_eq!(Row16::flatten(grid), &reference[c][..], "emulated, perm {:?}, column {}/{}", p, c, columns);
                    }
                    for t in tables() {
                        for (c, grid) in run_block(t.accumulate_runs, &plan, p, block).iter().enumerate() {
                            for (got, want) in Row16::flatten(grid).iter().zip(&reference[c]) {
                                prop_assert_eq!(got.to_bits(), want.to_bits(), "runs on {}, perm {:?}, column {}/{}", t.backend, p, c, columns);
                            }
                        }
                    }
                }
            }
        }
    }
}
