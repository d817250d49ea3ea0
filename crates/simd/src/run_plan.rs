//! Bin-sorted accumulation plans for the run-blocked joint kernel.
//!
//! The joint-histogram update adds, for every sample `s` of gene *x*,
//! `w_s[i] · y_row` into grid row `first_bin[s] + i` (`i < k`). A
//! [`RunPlan`] counting-sorts *x*'s samples by first bin, so all samples
//! of one *run* (same first bin `r`) update the same `k` rows
//! `r..r + k`. The kernel
//! ([`KernelTable::accumulate_runs`](crate::dispatch::KernelTable::accumulate_runs))
//! can then keep those rows in registers for the whole run and touch the
//! grid once per run instead of once per sample. It runs a *block* of up
//! to [`run_block_columns`] *y* genes per pass over the plan, so the
//! block's columns share the run bounds, index loads and weight
//! broadcasts.
//!
//! A plan holds, in sorted order:
//!
//! * the run bounds (one run per possible first bin, possibly empty);
//! * the `k` weights of every sample;
//! * the sample order: sorted position `t` holds original sample
//!   `order[t]`.
//!
//! The observed pairing reads *y*'s row `order[t]` at position `t`; a
//! null [`Pairing`] `π` reads row `π[order[t]]`, which the kernel looks up
//! itself. Sample `s` of *x* then meets row `π[s]` of *y*, exactly as an
//! unsorted per-sample loop would pair them, and nothing per null is
//! stored in the plan.
//!
//! [`RunPlan::rebuild`] reads *x* as one code per sample into a table of
//! first bins and weights and sorts the samples. Every range check the
//! kernel's raw-pointer loads and stores rely on happens there, once per
//! plan, and in [`Pairing::new`], once per pairing; the kernel's entry
//! then checks only O(1) shapes ([`RunPlan::check`]). A plan is built
//! once per *x* gene and reused for every *y* and every pairing it meets.

use crate::row::Row16;

/// Largest spline order the run-blocked kernel supports: `k` register
/// accumulators × 2 partial sets must fit the register file.
pub const MAX_RUN_ORDER: usize = 8;

/// *y* columns one pass of the run kernel accumulates at spline order
/// `order`: a block holds `columns · order · 2` accumulators, at most 24
/// of AVX-512's 32 zmm registers, and at most 4 columns — 4 for
/// `order ≤ 3`, 3 for 4, 2 for 5–6 and 1 for 7–8. Derived from the order
/// alone; every column's arithmetic is the same at any block width.
pub const fn run_block_columns(order: usize) -> usize {
    let columns = 12 / if order == 0 { 1 } else { order };
    if columns == 0 {
        1
    } else if columns > 4 {
        4
    } else {
        columns
    }
}

/// A null pairing of `m` samples, validated once: sample `s` of *x* meets
/// row `indices[s]` of *y*, and every index is below `m`. The run kernel
/// reads row `indices[order[t]]` without a bounds check, so the range
/// check happens here, when the pairing is built, not per plan or per
/// kernel call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Pairing<'a> {
    /// `m` row indices, each below `m`.
    indices: &'a [u32],
}

impl<'a> Pairing<'a> {
    /// Validate `indices` as a pairing of `samples` samples.
    ///
    /// # Panics
    /// Panics, naming the fault, if there are not exactly `samples`
    /// indices or one of them is `samples` or more.
    pub fn new(indices: &'a [u32], samples: usize) -> Self {
        assert_eq!(
            indices.len(),
            samples,
            "pairing length mismatch: {} indices for {samples} samples",
            indices.len()
        );
        let m = u32::try_from(samples).expect("pairing: sample count fits u32");
        // An OR of compares vectorizes on baseline x86-64; a max does not.
        if indices.iter().fold(false, |bad, &v| bad | (v >= m)) {
            let (s, v) = (0..)
                .zip(indices)
                .find(|&(_, &v)| v >= m)
                .expect("the fold found an index out of range");
            panic!("pairing index {v} at sample {s} out of range for {samples} samples");
        }
        Self { indices }
    }

    /// Validate each of `perms` as a pairing of `samples` samples
    /// ([`Self::new`]), in order.
    ///
    /// # Panics
    /// As [`Self::new`], on the first pairing at fault.
    pub fn all(perms: &'a [Vec<u32>], samples: usize) -> Vec<Self> {
        perms.iter().map(|p| Self::new(p, samples)).collect()
    }

    /// Sample count `m`.
    pub fn samples(&self) -> usize {
        self.indices.len()
    }

    /// The row index of *y* each sample of *x* meets.
    pub fn indices(&self) -> &'a [u32] {
        self.indices
    }
}

/// A validated, bin-sorted accumulation plan for one *x* gene. See the
/// [module docs](self).
///
/// The default value is an empty plan that every kernel call rejects;
/// [`RunPlan::rebuild`] fills it, reusing its buffers.
#[derive(Clone, Debug, Default)]
pub struct RunPlan {
    /// Spline order `k`; 0 until the first successful rebuild.
    order: usize,
    /// Grid rows the plan addresses (the bin count `b`).
    rows: usize,
    /// Sample count `m`.
    samples: usize,
    /// `rows − k + 2` run bounds: run `r` is `offsets[r]..offsets[r + 1]`.
    offsets: Vec<u32>,
    /// `m × k` weights in sorted order.
    weights: Vec<f32>,
    /// The sample at each sorted position, a permutation of `0..m`.
    sample_order: Vec<u32>,
}

impl RunPlan {
    /// An empty plan (rejected by the kernel until rebuilt).
    pub fn new() -> Self {
        Self::default()
    }

    /// Re-plan for an *x* gene given as `codes`, one per sample, into a
    /// table whose entry `e` has first bin `first_bins[e]` and the `order`
    /// weights `weights[e·order..(e + 1)·order]`, over a grid of `rows`
    /// rows. Buffers are reused.
    ///
    /// # Panics
    /// Panics — leaving the plan empty — if `order` is outside
    /// `1..=MAX_RUN_ORDER`, `rows < order`, the weight count is not
    /// `first_bins.len() · order`, a code names no entry, or a sample's
    /// `first_bin + order` exceeds `rows`.
    pub fn rebuild<C: EntryCode>(
        &mut self,
        codes: &[C],
        first_bins: &[u16],
        weights: &[f32],
        order: usize,
        rows: usize,
    ) {
        // Empty until every check below has passed: a rebuild that panics
        // leaves a plan every kernel rejects.
        (self.order, self.rows, self.samples) = (0, 0, 0);
        let m = codes.len();
        assert!(
            (1..=MAX_RUN_ORDER).contains(&order),
            "run plan: order {order} outside 1..={MAX_RUN_ORDER}"
        );
        assert!(
            rows >= order,
            "run plan: {rows} grid rows below order {order}"
        );
        assert_eq!(
            weights.len(),
            first_bins.len() * order,
            "run plan: weights shape"
        );
        u32::try_from(m).expect("run plan: sample count fits u32");

        // Counting sort (stable). Counts go to `offsets[fb + 2]`; after the
        // prefix sum `offsets[fb + 1]` is run fb's start, used as its
        // cursor, which leaves it at the run's end = the next run's start.
        // A count slot exists exactly for the first bins with
        // `fb + order ≤ rows`, so counting checks every sample's bin.
        let runs = rows - order + 1;
        self.offsets.clear();
        self.offsets.resize(runs + 2, 0);
        let (mut codes_ok, mut bins_ok) = (true, true);
        for c in codes {
            match first_bins.get(c.index()) {
                Some(&fb) => match self.offsets.get_mut(usize::from(fb) + 2) {
                    Some(count) => *count += 1,
                    None => bins_ok = false,
                },
                None => codes_ok = false,
            }
        }
        assert!(codes_ok, "run plan: code out of range");
        assert!(bins_ok, "run plan: bin row out of range");
        for r in 1..self.offsets.len() {
            self.offsets[r] += self.offsets[r - 1];
        }
        self.sample_order.clear();
        self.sample_order.resize(m, 0);
        self.weights.clear();
        self.weights.resize(m * order, 0.0);
        with_order!(
            order,
            scatter(
                codes,
                first_bins,
                weights,
                &mut self.offsets,
                &mut self.sample_order,
                &mut self.weights
            )
        );
        self.offsets.truncate(runs + 1);

        self.rows = rows;
        self.samples = m;
        self.order = order;
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

    /// Run bounds: run `r` (first bin `r`) covers sorted positions
    /// `offsets[r]..offsets[r + 1]`.
    pub fn offsets(&self) -> &[u32] {
        &self.offsets
    }

    /// The `m × k` weights in sorted order.
    pub fn sorted_weights(&self) -> &[f32] {
        &self.weights
    }

    /// The sample at each sorted position: position `t` holds sample
    /// `sample_order()[t]`, whose observed *y* row is the same index.
    pub fn sample_order(&self) -> &[u32] {
        &self.sample_order
    }

    /// Heap bytes of the plan's buffers at their current lengths: run
    /// bounds, sorted weights and the sample order.
    pub fn heap_bytes(&self) -> usize {
        (self.offsets.len() + self.sample_order.len() + self.weights.len()) * 4
    }

    /// The O(1) shape checks every backend's safe entry makes before the
    /// kernel runs: the plan is built, there is one grid per *y* column,
    /// every grid has exactly the plan's rows, every *y* exactly one row
    /// per sample, and a null pairing exactly one index per sample.
    ///
    /// # Panics
    /// Panics on an empty plan or a shape mismatch.
    pub(crate) fn check(
        &self,
        pairing: Option<Pairing<'_>>,
        ys: &[&[Row16]],
        grids: &[&mut [Row16]],
    ) {
        assert!(self.order > 0, "run plan: accumulate on an empty plan");
        assert_eq!(ys.len(), grids.len(), "run plan: one grid per y column");
        for grid in grids {
            assert_eq!(grid.len(), self.rows, "run plan: grid row count");
        }
        for y in ys {
            assert_eq!(y.len(), self.samples, "run plan: y row count");
        }
        if let Some(pairing) = pairing {
            assert_eq!(
                pairing.samples(),
                self.samples,
                "run plan: pairing length mismatch"
            );
        }
    }
}

/// The counting sort's scatter pass at spline order `K`: sample `s`, of
/// entry `codes[s]`, moves to its run's cursor `t`, which records
/// `sample_order[t] = s` and the entry's `K` weights in sorted position.
fn scatter<const K: usize>(
    codes: &[impl EntryCode],
    first_bins: &[u16],
    weights: &[f32],
    cursors: &mut [u32],
    sample_order: &mut [u32],
    sorted: &mut [f32],
) {
    for (s, c) in (0u32..).zip(codes) {
        let e = c.index();
        let cursor = &mut cursors[usize::from(first_bins[e]) + 1];
        let t = *cursor as usize; // cast-ok: u32 to usize widens losslessly
        *cursor += 1;
        sample_order[t] = s;
        let dst: &mut [f32; K] = (&mut sorted[t * K..t * K + K])
            .try_into()
            .expect("a K-wide window is K long");
        dst.copy_from_slice(&weights[e * K..e * K + K]);
    }
}

/// A sample's code: its entry in a table of first bins and weights
/// ([`RunPlan::rebuild`]), two bytes wide or four.
pub trait EntryCode: Copy {
    /// The entry the code names.
    fn index(self) -> usize;
}

impl EntryCode for u16 {
    #[inline(always)]
    fn index(self) -> usize {
        usize::from(self)
    }
}

impl EntryCode for u32 {
    #[inline(always)]
    fn index(self) -> usize {
        self as usize // cast-ok: u32 to usize widens losslessly
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
impl RunPlan {
    /// [`Self::rebuild`] over a table of one entry per sample, in order.
    pub(crate) fn rebuild_per_sample(
        &mut self,
        first_bins: &[u16],
        weights: &[f32],
        order: usize,
        rows: usize,
    ) {
        let codes: Vec<u32> = (0..u32::try_from(first_bins.len()).unwrap()).collect();
        self.rebuild(&codes, first_bins, weights, order, rows);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_coded_gene_plans_as_its_per_sample_expansion() {
        // Three entries; five samples name them by u16 and by u32 codes.
        let (first_bins, weights) = ([2u16, 0, 1], [0.5f32, 0.5, 1.0, 0.0, 0.25, 0.75]);
        let codes = [0u16, 1, 0, 2, 1];
        let mut per_sample = RunPlan::new();
        let expanded: Vec<u16> = codes.iter().map(|&c| first_bins[usize::from(c)]).collect();
        let expanded_weights: Vec<f32> = codes
            .iter()
            .flat_map(|&c| weights[usize::from(c) * 2..][..2].to_vec())
            .collect();
        per_sample.rebuild_per_sample(&expanded, &expanded_weights, 2, 4);
        let wide: Vec<u32> = codes.iter().map(|&c| u32::from(c)).collect();
        for plan in [
            {
                let mut p = RunPlan::new();
                p.rebuild(&codes, &first_bins, &weights, 2, 4);
                p
            },
            {
                let mut p = RunPlan::new();
                p.rebuild(&wide, &first_bins, &weights, 2, 4);
                p
            },
        ] {
            assert_eq!(plan.offsets(), per_sample.offsets());
            assert_eq!(plan.sample_order(), per_sample.sample_order());
            assert_eq!(plan.sorted_weights(), per_sample.sorted_weights());
        }
    }

    #[test]
    #[should_panic(expected = "code out of range")]
    fn rejects_a_code_past_the_table() {
        RunPlan::new().rebuild(&[0u16, 2], &[0, 1], &[1.0, 1.0], 1, 4);
    }

    #[test]
    fn sorts_by_first_bin_stably() {
        let first_bins = [2u16, 0, 2, 1, 0];
        let weights: Vec<f32> = (0..10).map(|i| i as f32).collect();
        let mut plan = RunPlan::new();
        plan.rebuild_per_sample(&first_bins, &weights, 2, 4);
        assert_eq!(plan.offsets(), &[0, 2, 3, 5]);
        assert_eq!(plan.sample_order(), &[1, 4, 3, 0, 2]);
        assert_eq!(
            plan.sorted_weights(),
            &[2.0, 3.0, 8.0, 9.0, 6.0, 7.0, 0.0, 1.0, 4.0, 5.0]
        );
    }

    #[test]
    #[should_panic(expected = "bin row out of range")]
    fn rejects_overflowing_bin() {
        RunPlan::new().rebuild_per_sample(&[3], &[1.0, 1.0], 2, 4);
    }

    #[test]
    fn a_pairing_keeps_its_indices() {
        let indices = [4u32, 3, 2, 1, 0];
        let pairing = Pairing::new(&indices, 5);
        assert_eq!(pairing.samples(), 5);
        assert_eq!(pairing.indices(), &indices);
        assert_eq!(Pairing::new(&[], 0).samples(), 0);
    }

    #[test]
    #[should_panic(expected = "pairing index 5 at sample 1 out of range for 3 samples")]
    fn rejects_bad_perm() {
        let _ = Pairing::new(&[0, 5, 1], 3);
    }

    #[test]
    #[should_panic(expected = "pairing length mismatch: 2 indices for 3 samples")]
    fn a_pairing_of_another_length_is_rejected() {
        let _ = Pairing::new(&[0, 1], 3);
    }

    #[test]
    #[should_panic(expected = "pairing length mismatch")]
    fn check_rejects_a_pairing_of_another_plans_length() {
        let mut plan = RunPlan::new();
        plan.rebuild_per_sample(&[0, 0], &[1.0, 1.0], 1, 2);
        let pairing = Pairing::new(&[0, 2, 1], 3);
        plan.check(
            Some(pairing),
            &[&[Row16::ZERO; 2]],
            &[&mut [Row16::ZERO; 2]],
        );
    }

    #[test]
    fn a_failed_rebuild_leaves_an_empty_plan() {
        let mut plan = RunPlan::new();
        plan.rebuild_per_sample(&[0, 1], &[1.0, 1.0], 1, 4);
        assert_eq!(plan.order(), 1);
        let failed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            plan.rebuild_per_sample(&[0, 9], &[1.0, 1.0], 1, 4);
        }));
        assert!(failed.is_err());
        assert_eq!(plan.order(), 0, "a rejected plan must not stay usable");
    }

    #[test]
    #[should_panic(expected = "empty plan")]
    fn check_rejects_an_unbuilt_plan() {
        RunPlan::new().check(None, &[], &[]);
    }

    #[test]
    #[should_panic(expected = "y row count")]
    fn check_rejects_a_short_y() {
        let mut plan = RunPlan::new();
        plan.rebuild_per_sample(&[0, 0], &[1.0, 1.0], 1, 2);
        plan.check(None, &[&[Row16::ZERO; 1]], &[&mut [Row16::ZERO; 2]]);
    }

    #[test]
    #[should_panic(expected = "one grid per y column")]
    fn check_rejects_a_missing_grid() {
        let mut plan = RunPlan::new();
        plan.rebuild_per_sample(&[0], &[1.0], 1, 2);
        let y = [Row16::ZERO; 1];
        plan.check(None, &[&y, &y], &[&mut [Row16::ZERO; 2]]);
    }

    #[test]
    fn block_width_keeps_accumulators_within_24_registers() {
        let widths: Vec<usize> = (1..=MAX_RUN_ORDER).map(run_block_columns).collect();
        assert_eq!(widths, [4, 4, 4, 3, 2, 2, 1, 1]);
        for (k, c) in (1..).zip(widths) {
            assert!(c * k * 2 <= 24 || c == 1, "k = {k}");
        }
    }

    #[test]
    fn heap_bytes_count_every_buffer_of_a_plan() {
        let (m, k, b) = (5usize, 3usize, 10usize);
        let mut plan = RunPlan::new();
        plan.rebuild_per_sample(&[0, 1, 2, 3, 7], &[0.25; 15], k, b);
        assert_eq!(plan.heap_bytes(), m * (4 * k + 4) + 4 * (b - k + 2));
    }
}
