//! Per-gene preparation and the kernel-dispatch layer the pipeline uses.
//!
//! Preparation happens once per gene (B-spline weights + marginal entropy)
//! and is reused for all `n−1` pairs the gene participates in — the
//! amortization that makes whole-genome runs feasible and that the tiling
//! layer is built around. Gene contexts keep only the *sparse* weight
//! matrix; the dense expansion the vector kernel needs is materialized per
//! tile by the executor ([`PreparedGene::to_dense`]), which is exactly how
//! the paper bounds the working set to the L2 cache. Symmetrically, the
//! vector kernel's run plan of a row gene is built once per tile row
//! ([`MiScratch::plan_row`]) and shared by every pair in the row.

use crate::entropy::entropy_nats;
use crate::sparse_kernel;
use crate::vector_kernel::{self, VectorGrid};
use gnet_bspline::{BsplineBasis, DenseWeights, SparseWeights};
use gnet_expr::normalize::rank_transform_profile;
use gnet_expr::ExpressionMatrix;
use gnet_simd::{F32x16, RunPlan};

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

/// One gene, prepared for pairwise MI: rank-transformed, B-spline weighted,
/// marginal entropy cached.
#[derive(Clone, Debug)]
pub struct PreparedGene {
    /// Sparse `m × k` weight matrix.
    pub sparse: SparseWeights,
    /// Marginal entropy `H(g)` in nats.
    pub h_marginal: f64,
}

impl PreparedGene {
    /// Prepare from a **raw** expression profile (rank transform applied
    /// internally).
    pub fn from_raw(values: &[f32], basis: &BsplineBasis) -> Self {
        Self::from_normalized(&rank_transform_profile(values), basis)
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

    /// Approximate heap footprint in bytes (sparse form).
    pub fn heap_bytes(&self) -> usize {
        self.sparse.heap_bytes() + core::mem::size_of::<f64>()
    }
}

/// Prepare from a raw expression profile — free-function alias used by the
/// pipeline.
pub fn prepare_gene(values: &[f32], basis: &BsplineBasis) -> PreparedGene {
    PreparedGene::from_raw(values, basis)
}

/// Prepare every gene of a matrix (the pipeline's preprocessing +
/// weight-computation stages fused).
pub fn prepare_matrix(matrix: &ExpressionMatrix, basis: &BsplineBasis) -> Vec<PreparedGene> {
    (0..matrix.genes())
        .map(|g| prepare_gene(matrix.gene(g), basis))
        .collect()
}

/// Reusable per-thread scratch covering both kernels.
#[derive(Clone, Debug)]
pub struct MiScratch {
    scalar_grid: Vec<f32>,
    vector_grid: Option<VectorGrid>,
    /// The vector kernel's run plan of the current [`PlannedRow`].
    plan: RunPlan,
    bins: usize,
}

impl MiScratch {
    /// Scratch for genes produced with `basis`.
    pub fn for_basis(basis: &BsplineBasis) -> Self {
        let b = basis.bins();
        Self {
            scalar_grid: vec![0.0; b * b],
            vector_grid: None,
            plan: RunPlan::new(),
            bins: b,
        }
    }

    /// Plan the row gene `x` for every pair it is evaluated in against the
    /// null permutations `perms`. For the vector kernel this sorts `x`'s
    /// samples into runs (see [`RunPlan`]); each permutation's y-row list
    /// is composed when a pair first reads it. A no-op for the scalar
    /// kernel and for layouts wider than one register row.
    pub fn plan_row<'a>(
        &'a mut self,
        kernel: MiKernel,
        x: &'a PreparedGene,
        perms: &'a [Vec<u32>],
    ) -> PlannedRow<'a> {
        if kernel == MiKernel::VectorDense && x.sparse.bins() <= F32x16::LANES {
            vector_kernel::plan_runs(&x.sparse, perms.len(), &mut self.plan);
        }
        PlannedRow {
            kernel,
            x,
            perms,
            scratch: self,
        }
    }
}

/// The grid in `slot`, reallocated if `dense` has another layout.
fn vector_grid_for<'g>(
    slot: &'g mut Option<VectorGrid>,
    dense: &DenseWeights,
) -> &'g mut VectorGrid {
    let needs_new = match slot {
        Some(g) => g.bins() != dense.bins() || g.stride() != dense.stride(),
        None => true,
    };
    if needs_new {
        *slot = Some(VectorGrid::for_dense(dense));
    }
    slot.as_mut().expect("just ensured")
}

/// A row gene `x` planned once for all the pairs it is evaluated in
/// ([`MiScratch::plan_row`]). The plan is built from `x` and the null
/// permutations the row was planned with, and only this row reads it, so
/// no pair can meet another gene's plan.
///
/// Each null permutation's list is composed the first time a pair reads
/// it: the full test composes all `q` on the row's first pair, the
/// early-exit test only the few nulls it reaches.
#[derive(Debug)]
pub struct PlannedRow<'a> {
    kernel: MiKernel,
    x: &'a PreparedGene,
    perms: &'a [Vec<u32>],
    scratch: &'a mut MiScratch,
}

impl PlannedRow<'_> {
    /// MI (nats) of the row gene against `y`. The dense expansion of `y`
    /// is only touched (and required to be `Some`) for the vector kernel.
    ///
    /// # Panics
    /// Panics if the kernel is [`MiKernel::VectorDense`] and `y_dense` is
    /// `None`, or on a shape mismatch between the genes.
    pub fn mi(&mut self, y: &PreparedGene, y_dense: Option<&DenseWeights>) -> f64 {
        self.joint(y, y_dense, None)
    }

    /// The row gene against `y` and under each of the row's null
    /// permutations — the unit of work the tile executor schedules.
    ///
    /// # Panics
    /// As [`Self::mi`], plus if a permutation has the wrong length or an
    /// out-of-range index.
    pub fn mi_with_nulls(&mut self, y: &PreparedGene, y_dense: Option<&DenseWeights>) -> PairMi {
        let observed = self.joint(y, y_dense, None);
        let null = (0..self.perms.len())
            .map(|p| self.joint(y, y_dense, Some(p)))
            .collect();
        PairMi { observed, null }
    }

    /// The early-exit test of the row gene against `y`; see
    /// [`mi_with_nulls_early_exit`].
    ///
    /// # Panics
    /// As [`Self::mi_with_nulls`].
    pub fn mi_with_nulls_early_exit(
        &mut self,
        y: &PreparedGene,
        y_dense: Option<&DenseWeights>,
        threshold: f64,
    ) -> EarlyExitMi {
        let observed = self.joint(y, y_dense, None);
        let mut joints = 1u32;
        if observed <= threshold {
            return EarlyExitMi {
                observed,
                survived: false,
                joints_evaluated: joints,
            };
        }
        for p in 0..self.perms.len() {
            let null = self.joint(y, y_dense, Some(p));
            joints += 1;
            if null >= observed {
                return EarlyExitMi {
                    observed,
                    survived: false,
                    joints_evaluated: joints,
                };
            }
        }
        EarlyExitMi {
            observed,
            survived: true,
            joints_evaluated: joints,
        }
    }

    /// One joint MI: the identity pairing for `perm == None`, null
    /// permutation `p` for `Some(p)`.
    fn joint(
        &mut self,
        y: &PreparedGene,
        y_dense: Option<&DenseWeights>,
        perm: Option<usize>,
    ) -> f64 {
        let (x, perms) = (self.x, self.perms);
        let (hx, hy) = (x.h_marginal, y.h_marginal);
        let MiScratch {
            scalar_grid,
            vector_grid,
            plan,
            ..
        } = &mut *self.scratch;
        match self.kernel {
            MiKernel::ScalarSparse => match perm {
                None => sparse_kernel::mi(&x.sparse, &y.sparse, hx, hy, scalar_grid),
                Some(p) => {
                    sparse_kernel::mi_permuted(&x.sparse, &y.sparse, &perms[p], hx, hy, scalar_grid)
                }
            },
            MiKernel::VectorDense => {
                let yd = y_dense.expect("vector kernel requires the dense expansion of y");
                let grid = vector_grid_for(vector_grid, yd);
                if !vector_kernel::fits_run_kernel(yd) {
                    return match perm {
                        None => vector_kernel::mi(&x.sparse, yd, hx, hy, grid),
                        Some(p) => {
                            vector_kernel::mi_permuted(&x.sparse, yd, &perms[p], hx, hy, grid)
                        }
                    };
                }
                assert_eq!(x.sparse.bins(), yd.bins(), "genes must share the bin count");
                if let Some(p) = perm {
                    if !plan.is_composed(p) {
                        plan.compose(p, &perms[p]);
                    }
                }
                vector_kernel::mi_planned(plan, perm, yd, hx, hy, grid)
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
/// the dense expansion of `y` (cached by the tile executor). Plans `x` per
/// call; to evaluate one `x` against many genes, plan it once with
/// [`MiScratch::plan_row`].
pub fn mi_vector(
    x: &PreparedGene,
    y: &PreparedGene,
    y_dense: &DenseWeights,
    scratch: &mut MiScratch,
) -> f64 {
    scratch
        .plan_row(MiKernel::VectorDense, x, &[])
        .mi(y, Some(y_dense))
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

/// Evaluate a pair and its `q` permutation nulls in one batched call.
/// Dispatches on `kernel`; the dense expansion of `y` is only touched (and
/// required to be `Some`) for the vector kernel. Plans `x` per call;
/// executors that meet one `x` many times plan it once with
/// [`MiScratch::plan_row`].
///
/// # Panics
/// Panics if `kernel` is [`MiKernel::VectorDense`] and `y_dense` is `None`,
/// or if any permutation has the wrong length.
pub fn mi_with_nulls(
    kernel: MiKernel,
    x: &PreparedGene,
    y: &PreparedGene,
    y_dense: Option<&DenseWeights>,
    perms: &[Vec<u32>],
    scratch: &mut MiScratch,
) -> PairMi {
    scratch.plan_row(kernel, x, perms).mi_with_nulls(y, y_dense)
}

/// Result of the early-exit evaluation of one pair.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EarlyExitMi {
    /// MI (nats) of the observed pair.
    pub observed: f64,
    /// True iff the observed value beat every null that was evaluated
    /// *and* evaluation ran to completion (i.e. the pair is a candidate).
    pub survived: bool,
    /// Joint-entropy evaluations actually performed (1 for the observed
    /// value plus however many nulls ran before the exit).
    pub joints_evaluated: u32,
}

/// Early-exit variant of [`mi_with_nulls`]: evaluation of the permutation
/// null stops at the **first** null that reaches the observed MI (the pair
/// can no longer become an edge), and is skipped entirely when the
/// observed MI does not clear `threshold` (a pair below the global
/// threshold is rejected regardless of its nulls).
///
/// This is the adaptive optimization DESIGN.md §7 lists: it changes *no
/// decision* relative to the exact test with the same threshold, only the
/// amount of work — the expected null evaluations per null pair is ≈ 2
/// instead of `q`. It does not feed a pooled-null accumulator (it never
/// sees most nulls), so the caller must obtain the global threshold
/// elsewhere (fixed, or estimated from a sampled pre-pass).
///
/// Plans `x` per call, composing only the null lists it reaches; to
/// evaluate one `x` against many genes, plan it once with
/// [`MiScratch::plan_row`].
///
/// # Panics
/// As [`mi_with_nulls`].
pub fn mi_with_nulls_early_exit(
    kernel: MiKernel,
    x: &PreparedGene,
    y: &PreparedGene,
    y_dense: Option<&DenseWeights>,
    perms: &[Vec<u32>],
    threshold: f64,
    scratch: &mut MiScratch,
) -> EarlyExitMi {
    scratch
        .plan_row(kernel, x, perms)
        .mi_with_nulls_early_exit(y, y_dense, threshold)
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

    #[test]
    fn prepare_matrix_prepares_every_gene() {
        let m = synth::independent_uniform(5, 40, 1);
        let prepared = prepare_matrix(&m, &basis());
        assert_eq!(prepared.len(), 5);
        for p in &prepared {
            assert_eq!(p.samples(), 40);
            assert!(p.h_marginal > 0.0);
        }
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
        let m = 97u32;
        let perms: Vec<Vec<u32>> = (1..6)
            .map(|r| (0..m).map(|i| (i * (2 * r + 1) + r) % m).collect())
            .collect();
        let dense: Vec<_> = genes.iter().map(PreparedGene::to_dense).collect();
        let mut row_scratch = MiScratch::for_basis(&b);
        let mut row = row_scratch.plan_row(MiKernel::VectorDense, &genes[0], &perms);
        let mut scratch = MiScratch::for_basis(&b);
        for (y, yd) in genes.iter().zip(&dense).skip(1) {
            let planned = row.mi_with_nulls(y, Some(yd));
            let per_call = mi_with_nulls(
                MiKernel::VectorDense,
                &genes[0],
                y,
                Some(yd),
                &perms,
                &mut scratch,
            );
            assert_eq!(planned.observed.to_bits(), per_call.observed.to_bits());
            for (a, b) in planned.null.iter().zip(&per_call.null) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
            // The one-off entry points agree with the plan too.
            let observed = mi_vector(&genes[0], y, yd, &mut scratch);
            assert_eq!(observed.to_bits(), planned.observed.to_bits());
            assert_eq!(row.mi(y, Some(yd)).to_bits(), observed.to_bits());
            let mut grid = VectorGrid::for_dense(yd);
            let null0 = vector_kernel::mi_permuted(
                &genes[0].sparse,
                yd,
                &perms[0],
                genes[0].h_marginal,
                y.h_marginal,
                &mut grid,
            );
            assert_eq!(null0.to_bits(), planned.null[0].to_bits());
        }
    }

    #[test]
    fn early_exit_composes_only_the_nulls_it_reaches() {
        let (x, y) = prepared_pair(4, 64);
        let yd = y.to_dense();
        let perms: Vec<Vec<u32>> = vec![(0..64u32).collect(); 5];
        let mut scratch = MiScratch::for_basis(&basis());
        // The identity permutation ties the observed MI: the first null
        // ends the test.
        let res = scratch
            .plan_row(MiKernel::VectorDense, &x, &perms)
            .mi_with_nulls_early_exit(&y, Some(&yd), f64::NEG_INFINITY);
        assert_eq!(res.joints_evaluated, 2);
        assert!(scratch.plan.is_composed(0));
        assert!((1..5).all(|p| !scratch.plan.is_composed(p)));
        // A new row starts with no list composed.
        let _ = scratch.plan_row(MiKernel::VectorDense, &y, &perms);
        assert!(!scratch.plan.is_composed(0));
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
    fn early_exit_agrees_with_exact_test() {
        let (matrix, _) = synth::coupled_pairs(6, 250, gnet_expr::synth::Coupling::Linear(0.7), 23);
        let b = basis();
        let prepared: Vec<_> = (0..matrix.genes())
            .map(|g| prepare_gene(matrix.gene(g), &b))
            .collect();
        let m = matrix.samples() as u32;
        let perms: Vec<Vec<u32>> = (0..12)
            .map(|r| (0..m).map(|i| (i * 7 + r * 11 + 3) % m).collect())
            .collect();
        let mut scratch = MiScratch::for_basis(&b);
        let mut row_scratch = MiScratch::for_basis(&b);
        let threshold = 0.05;

        let mut exact_joints = 0u64;
        let mut early_joints = 0u64;
        for i in 0..matrix.genes() {
            let mut row = row_scratch.plan_row(MiKernel::VectorDense, &prepared[i], &perms);
            for j in i + 1..matrix.genes() {
                let yd = prepared[j].to_dense();
                let exact = mi_with_nulls(
                    MiKernel::VectorDense,
                    &prepared[i],
                    &prepared[j],
                    Some(&yd),
                    &perms,
                    &mut scratch,
                );
                let exact_keeps = exact.observed > threshold && exact.exceed_count() == 0;
                exact_joints += 1 + perms.len() as u64;

                let early = row.mi_with_nulls_early_exit(&prepared[j], Some(&yd), threshold);
                early_joints += early.joints_evaluated as u64;
                assert_eq!(
                    early.survived, exact_keeps,
                    "pair ({i},{j}): early-exit decision diverged"
                );
                assert!((early.observed - exact.observed).abs() < 1e-9);
            }
        }
        assert!(
            early_joints * 2 < exact_joints,
            "early exit must at least halve the joint evaluations: {early_joints} vs {exact_joints}"
        );
    }

    #[test]
    fn early_exit_skips_nulls_below_threshold() {
        let (x, y) = prepared_pair(40, 64);
        let mut scratch = MiScratch::for_basis(&basis());
        let perms: Vec<Vec<u32>> = vec![(0..64u32).rev().collect(); 10];
        let yd = y.to_dense();
        let res = mi_with_nulls_early_exit(
            MiKernel::VectorDense,
            &x,
            &y,
            Some(&yd),
            &perms,
            f64::INFINITY,
            &mut scratch,
        );
        assert!(!res.survived);
        assert_eq!(
            res.joints_evaluated, 1,
            "below-threshold pair must not touch nulls"
        );
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
        let d10 = x10.to_dense();
        let _ = mi_vector(&x10, &x10, &d10, &mut scratch);
        // Switching to a wider layout must transparently reallocate.
        let d20 = x20.to_dense();
        let v = vector_kernel::mi(
            &x20.sparse,
            &d20,
            x20.h_marginal,
            x20.h_marginal,
            vector_grid_for(&mut scratch.vector_grid, &d20),
        );
        assert!((v - x20.h_marginal).abs() < 1e-3, "I(X,X)=H(X)");
    }
}
