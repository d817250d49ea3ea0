//! Bin-sorted accumulation plans for the run-blocked joint kernel.
//!
//! The joint-histogram update adds, for every sample `s` of gene *x*,
//! `w_s[i] · y_row` into grid row `first_bin[s] + i` (`i < k`). A
//! [`RunPlan`] counting-sorts *x*'s samples by first bin, so all samples
//! of one *run* (same first bin `r`) update the same `k` rows
//! `r..r + k`. The kernel ([`crate::slice_ops::accumulate_runs`]) can
//! then keep those rows in registers for the whole run and touch the
//! grid once per run instead of once per sample.
//!
//! A plan holds, in sorted order:
//!
//! * the run bounds (one run per possible first bin, possibly empty);
//! * the `k` weights of every sample;
//! * one list of *y* row indices per pairing: the identity list
//!   `order[t]` (sorted position `t` holds original sample `order[t]`),
//!   and for each null permutation `π_p` the composed list
//!   `π_p[order[t]]`. Sample `s` of *x* meets row `π_p[s]` of *y*, exactly
//!   as an unsorted per-sample loop would pair them.
//!
//! [`RunPlan::rebuild`] sorts the samples and builds the identity list;
//! each permutation's list is composed separately ([`RunPlan::compose`]),
//! so a caller that may stop after a few nulls (the early-exit test)
//! composes only the lists it reads. Every range check the kernel's
//! raw-pointer loads and stores rely on happens there, once per plan and
//! list; the kernel's entry then checks only O(1) shapes
//! ([`RunPlan::check`]). A plan is built once per *x* gene and reused for
//! every *y* it meets.

use crate::lanes::F32x16;

/// Width of one grid row and one dense *y* row.
const W: usize = F32x16::LANES;

/// Largest spline order the run-blocked kernel supports: `k` register
/// accumulators × 2 partial sets must fit the register file.
pub const MAX_RUN_ORDER: usize = 8;

/// A validated, bin-sorted accumulation plan for one *x* gene against a
/// fixed set of null permutations. See the [module docs](self).
///
/// The default value is an empty plan that every kernel call rejects;
/// [`RunPlan::rebuild`] fills it, reusing its buffers.
#[derive(Clone, Debug, Default)]
pub struct RunPlan {
    /// Spline order `k`; 0 until the first successful rebuild.
    order: usize,
    /// Grid rows the plan addresses (the bin count `b`).
    rows: usize,
    /// Sample count `m`; every y-row index is below it.
    samples: usize,
    /// `rows − k + 2` run bounds: run `r` is `offsets[r]..offsets[r + 1]`.
    offsets: Vec<u32>,
    /// `m × k` weights in sorted order.
    weights: Vec<f32>,
    /// The identity's `m` y-row indices.
    identity: Vec<u32>,
    /// Room for `q × m` y-row indices, one list per null permutation;
    /// list `p` holds data only while `composed[p]` is set.
    lists: Vec<u32>,
    /// Whether each null permutation's list is composed for this plan.
    composed: Vec<bool>,
}

impl RunPlan {
    /// An empty plan (rejected by the kernel until rebuilt).
    pub fn new() -> Self {
        Self::default()
    }

    /// Re-plan for an *x* gene given as `first_bins` (one per sample) and
    /// sample-major `weights` (`order` per sample) over a grid of `rows`
    /// rows, with room for `permutations` null lists, none of them
    /// composed yet. Buffers are reused.
    ///
    /// # Panics
    /// Panics — leaving the plan empty — if `order` is outside
    /// `1..=MAX_RUN_ORDER`, `rows < order`, the weight count is not
    /// `first_bins.len() · order`, or any `first_bin + order` exceeds
    /// `rows`.
    pub fn rebuild(
        &mut self,
        first_bins: &[u16],
        weights: &[f32],
        order: usize,
        rows: usize,
        permutations: usize,
    ) {
        // Empty until every check below has passed: a rebuild that panics
        // leaves a plan every kernel rejects.
        (self.order, self.rows, self.samples) = (0, 0, 0);
        let m = first_bins.len();
        assert!(
            (1..=MAX_RUN_ORDER).contains(&order),
            "run plan: order {order} outside 1..={MAX_RUN_ORDER}"
        );
        assert!(
            rows >= order,
            "run plan: {rows} grid rows below order {order}"
        );
        assert_eq!(weights.len(), m * order, "run plan: weights shape");
        u32::try_from(m).expect("run plan: sample count fits u32");
        let top = first_bins.iter().copied().max().map_or(0, usize::from);
        assert!(
            m == 0 || top + order <= rows,
            "run plan: bin row out of range"
        );

        // Counting sort (stable). Counts go to `offsets[fb + 2]`; after the
        // prefix sum `offsets[fb + 1]` is run fb's start, used as its
        // cursor, which leaves it at the run's end = the next run's start.
        let runs = rows - order + 1;
        self.offsets.clear();
        self.offsets.resize(runs + 2, 0);
        for &fb in first_bins {
            self.offsets[usize::from(fb) + 2] += 1;
        }
        for r in 1..self.offsets.len() {
            self.offsets[r] += self.offsets[r - 1];
        }
        self.identity.clear();
        self.identity.resize(m, 0);
        self.weights.clear();
        self.weights.resize(m * order, 0.0);
        with_order!(
            order,
            scatter(
                first_bins,
                weights,
                &mut self.offsets,
                &mut self.identity,
                &mut self.weights
            )
        );
        self.offsets.truncate(runs + 1);
        self.composed.clear();
        self.composed.resize(permutations, false);
        if self.lists.len() < permutations * m {
            self.lists.resize(permutations * m, 0);
        }

        self.rows = rows;
        self.samples = m;
        self.order = order;
    }

    /// Compose null permutation `p`'s y-row list `perm[order[t]]`,
    /// checking `perm` once. Composing a list twice recomposes it.
    ///
    /// # Panics
    /// Panics — leaving list `p` uncomposed — on an empty plan, if `p` is
    /// not below [`Self::permutations`], or if `perm` has the wrong length
    /// or an out-of-range index.
    pub fn compose(&mut self, p: usize, perm: &[u32]) {
        assert!(self.order > 0, "run plan: compose on an empty plan");
        let q = self.composed.len();
        assert!(p < q, "run plan: permutation {p} not planned ({q} planned)");
        self.composed[p] = false;
        let m = self.samples;
        assert_eq!(perm.len(), m, "permutation length mismatch");
        let samples = u32::try_from(m).expect("rebuild checked m fits u32");
        // An OR of compares vectorizes on baseline x86-64; a max does not.
        let out_of_range = perm.iter().fold(false, |bad, &v| bad | (v >= samples));
        assert!(!out_of_range, "run plan: perm index out of range");
        let list = &mut self.lists[p * m..(p + 1) * m];
        for (d, &s) in list.iter_mut().zip(&self.identity) {
            *d = perm[s as usize]; // cast-ok: u32 to usize widens losslessly
        }
        self.composed[p] = true;
    }

    /// Whether permutation `p`'s list is composed for the current plan.
    pub fn is_composed(&self, p: usize) -> bool {
        self.order > 0 && self.composed.get(p).copied().unwrap_or(false)
    }

    /// Spline order `k` (0 for an empty plan).
    pub fn order(&self) -> usize {
        self.order
    }

    /// Grid rows the plan addresses.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Sample count `m`.
    pub fn samples(&self) -> usize {
        self.samples
    }

    /// Null permutations planned next to the identity (composed or not).
    pub fn permutations(&self) -> usize {
        self.composed.len()
    }

    /// Run bounds: run `r` (first bin `r`) covers sorted positions
    /// `offsets[r]..offsets[r + 1]`.
    pub fn offsets(&self) -> &[u32] {
        &self.offsets
    }

    /// The `m × k` weights in sorted order.
    pub fn sorted_weights(&self) -> &[f32] {
        &self.weights
    }

    /// The y-row index list of one pairing: the identity for `None`,
    /// permutation `p`'s composed list for `Some(p)`.
    ///
    /// # Panics
    /// Panics if list `p` is not composed ([`Self::is_composed`]).
    pub fn y_rows(&self, perm: Option<usize>) -> &[u32] {
        match perm {
            None => &self.identity,
            Some(p) => {
                assert!(
                    self.is_composed(p),
                    "run plan: permutation {p} not composed ({} planned)",
                    self.permutations()
                );
                &self.lists[p * self.samples..(p + 1) * self.samples]
            }
        }
    }

    /// The O(1) shape checks every backend's safe entry makes before the
    /// kernel runs: the plan is built, `grid` has exactly the plan's
    /// 16-float rows, and `y_rows` exactly one 16-float row per sample.
    /// Returns the pairing's y-row index list.
    ///
    /// # Panics
    /// Panics on an empty plan, a shape mismatch, or an uncomposed `perm`.
    pub(crate) fn check(&self, grid: &[f32], y_rows: &[f32], perm: Option<usize>) -> &[u32] {
        assert!(self.order > 0, "run plan: accumulate on an empty plan");
        assert_eq!(grid.len(), self.rows * W, "run plan: grid row count");
        assert_eq!(y_rows.len(), self.samples * W, "run plan: y row count");
        self.y_rows(perm)
    }
}

/// The counting sort's scatter pass at spline order `K`: sample `s` moves
/// to its run's cursor `t`, which records `order[t] = s` and the sample's
/// `K` weights in sorted position.
fn scatter<const K: usize>(
    first_bins: &[u16],
    weights: &[f32],
    cursors: &mut [u32],
    order: &mut [u32],
    sorted: &mut [f32],
) {
    for ((s, &fb), w) in (0u32..).zip(first_bins).zip(weights.chunks_exact(K)) {
        let cursor = &mut cursors[usize::from(fb) + 1];
        let t = *cursor as usize; // cast-ok: u32 to usize widens losslessly
        *cursor += 1;
        order[t] = s;
        let dst: &mut [f32; K] = (&mut sorted[t * K..t * K + K])
            .try_into()
            .expect("a K-wide window is K long");
        dst.copy_from_slice(w);
    }
}

/// Call `$f::<K>($args…)` with the const generic `K` equal to the runtime
/// spline order `$k` (1..=[`MAX_RUN_ORDER`]), so each order gets its own
/// fully unrolled, register-resident kernel.
macro_rules! with_order {
    ($k:expr, $f:ident ( $($arg:expr),* $(,)? )) => {
        match $k {
            1 => $f::<1>($($arg),*),
            2 => $f::<2>($($arg),*),
            3 => $f::<3>($($arg),*),
            4 => $f::<4>($($arg),*),
            5 => $f::<5>($($arg),*),
            6 => $f::<6>($($arg),*),
            7 => $f::<7>($($arg),*),
            8 => $f::<8>($($arg),*),
            k => unreachable!("run plans hold orders 1..=8, got {k}"),
        }
    };
}
pub(crate) use with_order;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sorts_by_first_bin_stably_and_composes_permutations() {
        let first_bins = [2u16, 0, 2, 1, 0];
        let weights: Vec<f32> = (0..10).map(|i| i as f32).collect();
        let mut plan = RunPlan::new();
        plan.rebuild(&first_bins, &weights, 2, 4, 1);
        assert_eq!(plan.offsets(), &[0, 2, 3, 5]);
        assert_eq!(plan.y_rows(None), &[1, 4, 3, 0, 2]);
        assert!(!plan.is_composed(0));
        plan.compose(0, &[4, 3, 2, 1, 0]);
        assert_eq!(plan.y_rows(Some(0)), &[3, 0, 1, 4, 2]);
        assert_eq!(
            plan.sorted_weights(),
            &[2.0, 3.0, 8.0, 9.0, 6.0, 7.0, 0.0, 1.0, 4.0, 5.0]
        );
    }

    #[test]
    fn a_rebuild_uncomposes_every_list() {
        let mut plan = RunPlan::new();
        plan.rebuild(&[0, 1], &[1.0, 1.0], 1, 4, 2);
        plan.compose(1, &[1, 0]);
        assert!(plan.is_composed(1) && !plan.is_composed(0));
        plan.rebuild(&[1, 0], &[1.0, 1.0], 1, 4, 2);
        assert!(!plan.is_composed(0) && !plan.is_composed(1));
    }

    #[test]
    #[should_panic(expected = "not composed")]
    fn an_uncomposed_list_is_rejected() {
        let mut plan = RunPlan::new();
        plan.rebuild(&[0, 0], &[1.0, 1.0], 1, 2, 1);
        let _ = plan.check(&[0.0; 2 * W], &[0.0; 2 * W], Some(0));
    }

    #[test]
    #[should_panic(expected = "bin row out of range")]
    fn rejects_overflowing_bin() {
        RunPlan::new().rebuild(&[3], &[1.0, 1.0], 2, 4, 0);
    }

    #[test]
    #[should_panic(expected = "perm index out of range")]
    fn rejects_bad_perm() {
        let mut plan = RunPlan::new();
        plan.rebuild(&[0], &[1.0], 1, 4, 1);
        plan.compose(0, &[5]);
    }

    #[test]
    fn a_failed_rebuild_leaves_an_empty_plan() {
        let mut plan = RunPlan::new();
        plan.rebuild(&[0, 1], &[1.0, 1.0], 1, 4, 1);
        plan.compose(0, &[1, 0]);
        assert_eq!(plan.order(), 1);
        let failed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            plan.rebuild(&[0, 9], &[1.0, 1.0], 1, 4, 1);
        }));
        assert!(failed.is_err());
        assert_eq!(plan.order(), 0, "a rejected plan must not stay usable");
        assert!(!plan.is_composed(0));
    }

    #[test]
    fn a_failed_compose_leaves_its_list_uncomposed() {
        let mut plan = RunPlan::new();
        plan.rebuild(&[0, 1], &[1.0, 1.0], 1, 4, 1);
        plan.compose(0, &[1, 0]);
        let failed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            plan.compose(0, &[0, 9]);
        }));
        assert!(failed.is_err());
        assert!(!plan.is_composed(0), "a rejected list must not stay usable");
    }

    #[test]
    #[should_panic(expected = "empty plan")]
    fn check_rejects_an_unbuilt_plan() {
        let _ = RunPlan::new().check(&[], &[], None);
    }

    #[test]
    #[should_panic(expected = "y row count")]
    fn check_rejects_a_short_y() {
        let mut plan = RunPlan::new();
        plan.rebuild(&[0, 0], &[1.0, 1.0], 1, 2, 0);
        let _ = plan.check(&[0.0; 2 * W], &[0.0; W], None);
    }
}
