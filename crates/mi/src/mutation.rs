//! Deliberately broken vector-kernel variants for conformance self-checks.
//!
//! A differential oracle is only trustworthy if it demonstrably *fails*
//! when the kernel is wrong. This module packages the four historical
//! vectorization bug classes the paper's restructuring is most exposed to,
//! each as a drop-in replacement for [`crate::gene::mi_vector`]:
//!
//! * [`KernelMutation::DroppedPaddingZeroing`] — the dense expansion's
//!   lane-padding columns are *not* zeroed (modeling an uninitialized
//!   allocation). The row FMAs then sweep junk into the joint grid's
//!   padding cells, and the entropy over the padded slice is wrong.
//! * [`KernelMutation::OffByOneBinIndex`] — every sample's weight window
//!   scatters one grid row too high (clamped at the top edge), the classic
//!   first-bin indexing slip when translating the scalar scatter into row
//!   arithmetic.
//! * [`KernelMutation::StaleGridScratch`] — the per-pair joint-grid
//!   scratch is not cleared between pairs, so every pair after the first
//!   accumulates on top of its predecessor's counts.
//! * [`KernelMutation::DroppedRunTail`] — the odd last sample of each run
//!   is skipped: the remainder bug of the run-blocked kernel's 2-way
//!   unroll (`while t + 1 < end` with no tail step).
//! * [`KernelMutation::PackedLaneOffset`] — in a packed block (column
//!   genes laid `b` lanes apart across register groups), the second
//!   column's entropy reads its lanes one lane off its stride: it drops
//!   its own first bin and takes the next column's. A one-gene block has
//!   no second column, so only an oracle that reads packed blocks sees
//!   it.
//!
//! The evaluator replays the run-blocked kernel's arithmetic in plain
//! code — sorted runs, two alternating partial sets, one grid add per run
//! — so without a defect it is bit-identical to the real kernel on a
//! one-gene block ([`MutatedVectorKernel::mi`]); its packed blocks
//! ([`MutatedVectorKernel::mi_packed`]) run the same loop over the packed
//! lanes.
//!
//! None of these variants is reachable from the pipeline; the only caller
//! is `gnet-conformance --self-check`, which asserts that each mutation is
//! detected by the scalar-vs-vector differential oracles.

use crate::entropy::entropy_from_counts;
use crate::gene::PreparedGene;
use gnet_bspline::DenseWeights;
use gnet_simd::{F32x16, RunPlan};

/// The injectable kernel defects, in the order the self-check runs them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KernelMutation {
    /// Dense lane-padding columns keep junk instead of zeros.
    DroppedPaddingZeroing,
    /// Weight windows land one grid row too high.
    OffByOneBinIndex,
    /// Joint-grid scratch is reused across pairs without a reset.
    StaleGridScratch,
    /// The odd last sample of every run is never accumulated.
    DroppedRunTail,
    /// A packed block's second column reads its lanes one lane late.
    PackedLaneOffset,
}

impl KernelMutation {
    /// Every mutation, in self-check order.
    pub const ALL: [KernelMutation; 5] = [
        Self::DroppedPaddingZeroing,
        Self::OffByOneBinIndex,
        Self::StaleGridScratch,
        Self::DroppedRunTail,
        Self::PackedLaneOffset,
    ];

    /// Short stable name used in conformance reports.
    pub fn name(&self) -> &'static str {
        match self {
            Self::DroppedPaddingZeroing => "dropped-padding-zeroing",
            Self::OffByOneBinIndex => "off-by-one-bin-index",
            Self::StaleGridScratch => "stale-grid-scratch",
            Self::DroppedRunTail => "dropped-run-tail",
            Self::PackedLaneOffset => "packed-lane-offset",
        }
    }
}

/// A stateful evaluator that computes vector-kernel MI *with* one injected
/// defect. State (the never-cleared grid of [`KernelMutation::StaleGridScratch`])
/// persists across calls, exactly like the scratch reuse it models.
#[derive(Clone, Debug)]
pub struct MutatedVectorKernel {
    mutation: KernelMutation,
    /// `bins × stride` joint grid; deliberately NOT reset per pair when the
    /// mutation is `StaleGridScratch`.
    grid: Vec<f32>,
    bins: usize,
    stride: usize,
    plan: RunPlan,
}

impl MutatedVectorKernel {
    /// An evaluator injecting `mutation`.
    pub fn new(mutation: KernelMutation) -> Self {
        Self {
            mutation,
            grid: Vec::new(),
            bins: 0,
            stride: 0,
            plan: RunPlan::new(),
        }
    }

    /// Which mutation this evaluator injects.
    pub fn mutation(&self) -> KernelMutation {
        self.mutation
    }

    fn ensure_grid(&mut self, bins: usize, stride: usize) {
        if self.bins != bins || self.stride != stride {
            self.bins = bins;
            self.stride = stride;
            self.grid = vec![0.0; bins * stride];
        } else if self.mutation != KernelMutation::StaleGridScratch {
            // The correct reset the stale-scratch mutation omits.
            self.grid.fill(0.0);
        }
    }

    /// MI (nats) of a prepared pair through the mutated vector kernel.
    /// Mirrors [`crate::gene::mi_vector`]'s run-blocked accumulation, with
    /// the defect injected.
    ///
    /// # Panics
    /// Panics on shape disagreements between `x` and `y_dense`.
    pub fn mi(&mut self, x: &PreparedGene, y: &PreparedGene, y_dense: &DenseWeights) -> f64 {
        let sx = &x.sparse;
        assert_eq!(sx.samples(), y_dense.samples(), "sample count mismatch");
        assert_eq!(sx.bins(), y_dense.bins(), "bin count mismatch");
        let bins = y_dense.bins();
        let stride = y_dense.stride();
        self.ensure_grid(bins, stride);

        // A poisoned copy of y's dense rows: what the expansion would hold
        // if the padding columns were never zeroed.
        let poisoned = if self.mutation == KernelMutation::DroppedPaddingZeroing {
            let mut p = y_dense.clone();
            for s in 0..p.samples() {
                let row = p.row_mut(s);
                for v in &mut row[bins..] {
                    *v = 0.25;
                }
            }
            Some(p)
        } else {
            None
        };
        let y_rows = poisoned.as_ref().unwrap_or(y_dense);
        self.accumulate(x, y_rows.as_slice(), stride, None);
        // cast-ok: sample counts are far below f64's 2^53 exact-integer range
        let hxy = entropy_from_counts(&self.grid, sx.samples() as f64);
        x.h_marginal + y.h_marginal - hxy
    }

    /// MI (nats) of `x` against each gene of `cols`, laid out as one
    /// packed block (`b` lanes apart across 16-lane register groups, as
    /// the scan's blocks are), into `out`, pairing sample `s` of `x` with
    /// row `perm[s]` when `perm` is given. Each column's joint entropy
    /// reads the column's `b` lanes of every grid row, with the defect
    /// injected.
    ///
    /// # Panics
    /// Panics if `out` is not one per column or the genes' shapes differ.
    pub fn mi_packed(
        &mut self,
        x: &PreparedGene,
        cols: &[PreparedGene],
        perm: Option<&[u32]>,
        out: &mut [f64],
    ) {
        assert_eq!(out.len(), cols.len(), "one MI per column");
        let (b, m) = (x.sparse.bins(), x.samples());
        let lanes = (cols.len() * b).div_ceil(F32x16::LANES) * F32x16::LANES;
        let mut rows = vec![0.0f32; m * lanes];
        for (c, y) in cols.iter().enumerate() {
            assert_eq!(
                (y.sparse.bins(), y.samples()),
                (b, m),
                "gene shape mismatch"
            );
            for (s, row) in rows.chunks_exact_mut(lanes).enumerate() {
                let (fb, w) = (y.sparse.first_bin(s), y.sparse.sample_weights(s));
                row[c * b + fb..][..w.len()].copy_from_slice(w);
            }
        }
        self.ensure_grid(b, lanes);
        self.accumulate(x, &rows, lanes, perm);
        for (c, (y, mi)) in cols.iter().zip(out).enumerate() {
            let late = usize::from(self.mutation == KernelMutation::PackedLaneOffset && c == 1);
            let first = c * b + late;
            let column: Vec<f32> = (0..b)
                .flat_map(|r| (first..first + b).map(move |l| (r, l)))
                .map(|(r, l)| {
                    if l < lanes {
                        self.grid[r * lanes + l]
                    } else {
                        0.0
                    }
                })
                .collect();
            // cast-ok: sample counts are far below f64's 2^53 exact-integer range
            let hxy = entropy_from_counts(&column, m as f64);
            *mi = x.h_marginal + y.h_marginal - hxy;
        }
    }

    /// The run-blocked accumulation of `x` against `y_rows` (`stride`
    /// floats per sample) into the grid, sample `s` of `x` meeting row
    /// `perm[s]` (or `s`), with the accumulation defects injected.
    fn accumulate(
        &mut self,
        x: &PreparedGene,
        y_rows: &[f32],
        stride: usize,
        perm: Option<&[u32]>,
    ) {
        let (sx, bins) = (&x.sparse, self.bins);
        let k = sx.order();
        crate::vector_kernel::plan_runs(sx, &mut self.plan);
        let (weights, order) = (self.plan.sorted_weights(), self.plan.sample_order());
        let y_row = |t: usize| {
            let s = order[t] as usize;
            let s = perm.map_or(s, |p| p[s] as usize);
            &y_rows[s * stride..(s + 1) * stride]
        };
        for (r, run) in self.plan.offsets().windows(2).enumerate() {
            let (start, mut end) = (run[0] as usize, run[1] as usize);
            if self.mutation == KernelMutation::DroppedRunTail && (end - start) % 2 == 1 {
                end -= 1;
            }
            let fx = match self.mutation {
                // One row too high, clamped so the write stays in bounds —
                // the bug corrupts values, not memory.
                KernelMutation::OffByOneBinIndex => (r + 1).min(bins - k),
                _ => r,
            };
            // Two partial sets of k rows, alternating sample by sample.
            let mut sets = vec![0.0f32; 2 * k * stride];
            for t in start..end {
                let y_row = y_row(t);
                let set = (t - start) % 2;
                for i in 0..k {
                    let w = weights[t * k + i];
                    let acc = &mut sets[(set * k + i) * stride..][..stride];
                    for (cell, &yv) in acc.iter_mut().zip(y_row) {
                        *cell = yv.mul_add(w, *cell);
                    }
                }
            }
            for i in 0..k {
                let row = &mut self.grid[(fx + i) * stride..][..stride];
                let (s0, s1) = (&sets[i * stride..], &sets[(k + i) * stride..]);
                for (j, cell) in row.iter_mut().enumerate() {
                    *cell += s0[j] + s1[j];
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gene::{mi_vector, prepare_gene, MiScratch};
    use gnet_bspline::BsplineBasis;
    use gnet_expr::synth;

    fn prepared_pair(seed: u64, m: usize) -> (PreparedGene, PreparedGene) {
        let matrix = synth::independent_gaussian(2, m, seed);
        let b = BsplineBasis::tinge_default();
        (
            prepare_gene(matrix.gene(0), &b),
            prepare_gene(matrix.gene(1), &b),
        )
    }

    #[test]
    fn every_mutation_diverges_from_the_true_kernel() {
        let (x, y) = prepared_pair(11, 120);
        let yd = y.to_dense();
        let mut scratch = MiScratch::for_basis(&BsplineBasis::tinge_default());
        let truth = mi_vector(&x, &y, &yd, &mut scratch);
        for mutation in KernelMutation::ALL {
            if mutation == KernelMutation::PackedLaneOffset {
                // Its defect lives in a packed block's second column.
                let cols = [x.clone(), y.clone()];
                let (mut clean, mut mutated) = ([0.0; 2], [0.0; 2]);
                // A fresh stale-scratch evaluator's first call has no defect.
                let mut baseline = MutatedVectorKernel::new(KernelMutation::StaleGridScratch);
                baseline.mi_packed(&x, &cols, None, &mut clean);
                MutatedVectorKernel::new(mutation).mi_packed(&x, &cols, None, &mut mutated);
                assert!((clean[1] - truth).abs() < 1e-6, "{} vs {truth}", clean[1]);
                assert_eq!(mutated[0].to_bits(), clean[0].to_bits());
                assert!((mutated[1] - truth).abs() > 1e-3, "{}", mutated[1]);
                assert_eq!(
                    MutatedVectorKernel::new(mutation).mi(&x, &y, &yd).to_bits(),
                    truth.to_bits()
                );
                continue;
            }
            let mut mutant = MutatedVectorKernel::new(mutation);
            // Stale scratch is only observable from the second pair on.
            let first = mutant.mi(&x, &y, &yd);
            let second = mutant.mi(&x, &y, &yd);
            let worst = (first - truth).abs().max((second - truth).abs());
            assert!(
                worst > 1e-3,
                "{}: mutated MI {first}/{second} vs true {truth} — not detectable",
                mutation.name()
            );
        }
    }

    #[test]
    fn unmutated_loop_matches_the_real_kernel() {
        // The mutated evaluator's baseline loop (defect aside) must be the
        // real run-blocked kernel, bit for bit — otherwise a detection
        // could be an artifact of the reimplementation, not the defect.
        let (x, y) = prepared_pair(5, 77);
        let yd = y.to_dense();
        let mut scratch = MiScratch::for_basis(&BsplineBasis::tinge_default());
        let truth = mi_vector(&x, &y, &yd, &mut scratch);
        // DroppedPaddingZeroing with an already-zero padding poison would
        // be the identity; instead verify via a fresh StaleGridScratch
        // evaluator, whose FIRST call has a clean grid and no defect.
        let mut mutant = MutatedVectorKernel::new(KernelMutation::StaleGridScratch);
        let first = mutant.mi(&x, &y, &yd);
        assert_eq!(
            first.to_bits(),
            truth.to_bits(),
            "baseline loop diverges: {first} vs {truth}"
        );
    }
}
