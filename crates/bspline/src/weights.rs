//! Per-gene B-spline weight matrices in the two layouts the MI kernels use.
//!
//! For a gene with `m` normalized samples, the estimator needs the basis
//! weights of every sample. The paper's central data-layout insight is that
//! the *same* information stored two ways has very different kernels:
//!
//! * [`SparseWeights`] — `m × k` weights plus a first-bin index per sample.
//!   Minimal memory and flops; the joint-histogram update is a `k × k`
//!   scatter per sample, which does not vectorize (gather/scatter on KNC is
//!   slow). This is the layout behind the scalar baseline kernel.
//! * [`DenseWeights`] — `m × b` with zeros outside the `k`-wide window,
//!   stored row-major (sample-major). The joint histogram for a pair is
//!   then `P = Xᵀ·Y / m`, a small dense GEMM whose inner loop streams over
//!   samples with FMA lanes — the restructuring that unlocks the Phi's
//!   512-bit unit. Rows are padded to a lane multiple so kernels need no
//!   tail handling, and stored as cache-line-aligned [`Row16`]s so no row
//!   load straddles two cache lines.

use crate::basis::BsplineBasis;
use gnet_simd::lanes::F32x16;
use gnet_simd::Row16;

/// Compact per-gene weight matrix: `k` weights + first-bin index per sample.
#[derive(Clone, Debug, PartialEq)]
pub struct SparseWeights {
    /// Spline order `k` (weights per sample).
    order: usize,
    /// Number of bins `b` (bound for `first_bin[s] + k`).
    bins: usize,
    /// Number of samples `m`.
    samples: usize,
    /// `m` first-bin indices.
    first_bin: Vec<u16>,
    /// `m × k` weights, sample-major.
    weights: Vec<f32>,
}

impl SparseWeights {
    /// Compute the weight matrix of one gene from its normalized samples
    /// (each in `[0, 1]`; rank transformation upstream guarantees this).
    pub fn from_normalized(values: &[f32], basis: &BsplineBasis) -> Self {
        let k = basis.order();
        let mut first_bin = Vec::with_capacity(values.len());
        let mut weights = Vec::with_capacity(values.len() * k);
        for &x in values {
            let z = basis.sample_to_domain(x);
            let (first, w) = basis.eval_nonzero(z);
            first_bin.push(u16::try_from(first).expect("first + order <= bins <= 64 fits u16"));
            weights.extend_from_slice(&w[..k]);
        }
        Self {
            order: k,
            bins: basis.bins(),
            samples: values.len(),
            first_bin,
            weights,
        }
    }

    /// Spline order `k`.
    pub fn order(&self) -> usize {
        self.order
    }

    /// Number of bins `b`.
    pub fn bins(&self) -> usize {
        self.bins
    }

    /// Number of samples `m`.
    pub fn samples(&self) -> usize {
        self.samples
    }

    /// First-bin index of sample `s`.
    #[inline(always)]
    pub fn first_bin(&self, s: usize) -> usize {
        self.first_bin[s] as usize // cast-ok: u16 to usize widens losslessly
    }

    /// The `k` weights of sample `s`.
    #[inline(always)]
    pub fn sample_weights(&self, s: usize) -> &[f32] {
        &self.weights[s * self.order..(s + 1) * self.order]
    }

    /// Marginal bin distribution `p[u] = (1/m) Σ_s w_s[u]`.
    pub fn marginal(&self) -> Vec<f32> {
        let mut p = vec![0.0f32; self.bins];
        for s in 0..self.samples {
            let fb = self.first_bin(s);
            for (j, &w) in self.sample_weights(s).iter().enumerate() {
                p[fb + j] += w;
            }
        }
        // cast-ok: sample counts are far below f32's 2^24 exact-integer range
        let inv_m = 1.0 / self.samples as f32;
        for v in &mut p {
            *v *= inv_m;
        }
        p
    }

    /// Expand into the dense, lane-padded layout.
    pub fn to_dense(&self) -> DenseWeights {
        let mut dense = DenseWeights::zeroed(0, self.bins);
        self.expand_into(&mut dense);
        dense
    }

    /// Expand into the dense layout in `dense`, reusing its rows'
    /// allocation; the result equals [`Self::to_dense`].
    pub fn expand_into(&self, dense: &mut DenseWeights) {
        dense.reset_zeroed(self.samples, self.bins);
        for s in 0..self.samples {
            let fb = self.first_bin(s);
            let row = dense.row_mut(s);
            for (j, &w) in self.sample_weights(s).iter().enumerate() {
                row[fb + j] = w;
            }
        }
    }

    /// Approximate heap footprint in bytes (used by the tile-size planner).
    pub fn heap_bytes(&self) -> usize {
        self.first_bin.len() * core::mem::size_of::<u16>()
            + self.weights.len() * core::mem::size_of::<f32>()
    }

    /// The flat first-bin index array (`m` entries) — for wire codecs.
    pub fn first_bins_flat(&self) -> &[u16] {
        &self.first_bin
    }

    /// The flat weight array (`m × k` entries, sample-major) — for wire
    /// codecs.
    pub fn weights_flat(&self) -> &[f32] {
        &self.weights
    }

    /// Reassemble from raw parts (the inverse of the flat accessors),
    /// validating every invariant. Used by the cluster substrate to
    /// deserialize shipped weight matrices.
    ///
    /// # Panics
    /// Panics on any shape or range violation.
    pub fn from_raw_parts(
        order: usize,
        bins: usize,
        samples: usize,
        first_bin: Vec<u16>,
        weights: Vec<f32>,
    ) -> Self {
        match Self::try_from_raw_parts(order, bins, samples, first_bin, weights) {
            Ok(w) => w,
            Err(reason) => panic!("{reason}"),
        }
    }

    /// Fallible [`Self::from_raw_parts`] for codecs that must map corrupt
    /// on-disk weight sections to typed decode errors instead of panicking.
    ///
    /// # Errors
    /// Returns a description of the first shape or range violation.
    pub fn try_from_raw_parts(
        order: usize,
        bins: usize,
        samples: usize,
        first_bin: Vec<u16>,
        weights: Vec<f32>,
    ) -> Result<Self, String> {
        if !(1..=crate::basis::MAX_ORDER).contains(&order) {
            return Err(format!("bad order {order}"));
        }
        if bins < order {
            return Err(format!("bins {bins} below order {order}"));
        }
        if first_bin.len() != samples {
            return Err(format!(
                "one first-bin index per sample: got {} for {samples} samples",
                first_bin.len()
            ));
        }
        if weights.len() != samples * order {
            return Err(format!(
                "k weights per sample: got {} for {samples} samples at order {order}",
                weights.len()
            ));
        }
        for &fb in &first_bin {
            // cast-ok: u16 to usize widens losslessly
            if fb as usize + order > bins {
                return Err(format!(
                    "first bin {fb} overruns the {bins}-bin grid at order {order}"
                ));
            }
        }
        Ok(Self {
            order,
            bins,
            samples,
            first_bin,
            weights,
        })
    }
}

/// Dense, zero-padded per-gene weight matrix (`m` rows × `b` columns, each
/// row padded to a multiple of the lane width and starting on a 64-byte
/// cache line).
#[derive(Clone, Debug, PartialEq)]
pub struct DenseWeights {
    samples: usize,
    bins: usize,
    /// Row stride ≥ bins, a multiple of `F32x16::LANES`.
    stride: usize,
    /// `samples × stride / 16` aligned rows, sample-major; padding columns
    /// are zero.
    data: Vec<Row16>,
}

impl DenseWeights {
    /// All-zero matrix with lane-padded rows.
    pub fn zeroed(samples: usize, bins: usize) -> Self {
        let mut dense = Self {
            samples: 0,
            bins: 0,
            stride: 0,
            data: Vec::new(),
        };
        dense.reset_zeroed(samples, bins);
        dense
    }

    /// Make `self` the all-zero `samples × bins` matrix, reusing its
    /// allocation.
    fn reset_zeroed(&mut self, samples: usize, bins: usize) {
        let lanes = F32x16::LANES;
        let stride = bins.div_ceil(lanes) * lanes;
        (self.samples, self.bins, self.stride) = (samples, bins, stride);
        self.data.clear();
        self.data.resize(samples * stride / lanes, Row16::ZERO);
    }

    /// Number of samples `m` (rows).
    pub fn samples(&self) -> usize {
        self.samples
    }

    /// Number of bins `b` (meaningful columns).
    pub fn bins(&self) -> usize {
        self.bins
    }

    /// Padded row stride.
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Row `s` including padding columns.
    #[inline(always)]
    pub fn row(&self, s: usize) -> &[f32] {
        &self.as_slice()[s * self.stride..(s + 1) * self.stride]
    }

    /// Mutable row `s` including padding columns.
    #[inline(always)]
    pub fn row_mut(&mut self, s: usize) -> &mut [f32] {
        let stride = self.stride;
        &mut Row16::flatten_mut(&mut self.data)[s * stride..(s + 1) * stride]
    }

    /// Whole backing slice (rows × stride).
    pub fn as_slice(&self) -> &[f32] {
        Row16::flatten(&self.data)
    }

    /// The aligned rows the run kernel reads: one per sample when
    /// `stride == 16` (`b ≤ 16`), `stride / 16` per sample otherwise.
    pub fn rows16(&self) -> &[Row16] {
        &self.data
    }

    /// Marginal bin distribution `p[u] = (1/m) Σ_s row_s[u]`.
    pub fn marginal(&self) -> Vec<f32> {
        let mut p = vec![0.0f32; self.bins];
        for s in 0..self.samples {
            let row = self.row(s);
            for (u, acc) in p.iter_mut().enumerate() {
                *acc += row[u];
            }
        }
        // cast-ok: sample counts are far below f32's 2^24 exact-integer range
        let inv_m = 1.0 / self.samples as f32;
        for v in &mut p {
            *v *= inv_m;
        }
        p
    }

    /// Approximate heap footprint in bytes.
    pub fn heap_bytes(&self) -> usize {
        self.data.len() * core::mem::size_of::<Row16>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn demo_values() -> Vec<f32> {
        (0..37).map(|i| i as f32 / 36.0).collect()
    }

    #[test]
    fn sparse_marginal_is_probability_vector() {
        let basis = BsplineBasis::tinge_default();
        let w = SparseWeights::from_normalized(&demo_values(), &basis);
        let p = w.marginal();
        assert_eq!(p.len(), 10);
        let sum: f32 = p.iter().sum();
        assert!((sum - 1.0).abs() < 1e-5, "marginal sums to {sum}");
        assert!(p.iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn dense_and_sparse_marginals_agree() {
        let basis = BsplineBasis::new(4, 12);
        let w = SparseWeights::from_normalized(&demo_values(), &basis);
        let d = w.to_dense();
        let ps = w.marginal();
        let pd = d.marginal();
        for (a, b) in ps.iter().zip(&pd) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn dense_rows_are_lane_padded_with_zeros() {
        let basis = BsplineBasis::tinge_default();
        let w = SparseWeights::from_normalized(&demo_values(), &basis).to_dense();
        assert_eq!(w.stride() % F32x16::LANES, 0);
        for s in 0..w.samples() {
            for &v in &w.row(s)[w.bins()..] {
                assert_eq!(v, 0.0, "padding column must stay zero");
            }
        }
    }

    #[test]
    fn dense_rows_start_on_cache_lines_through_every_copy() {
        let basis = BsplineBasis::tinge_default();
        let w = SparseWeights::from_normalized(&demo_values(), &basis);
        let d = w.to_dense();
        for copy in [&d, &d.clone()] {
            for s in 0..copy.samples() {
                assert!(
                    (copy.row(s).as_ptr() as usize).is_multiple_of(64),
                    "row {s}"
                );
            }
        }
        // The type proves it for every row of every copy.
        assert_eq!(core::mem::align_of::<Row16>(), 64);
    }

    #[test]
    fn expanding_into_a_used_buffer_equals_a_fresh_expansion() {
        let w = SparseWeights::from_normalized(&demo_values(), &BsplineBasis::tinge_default());
        let mut reused =
            SparseWeights::from_normalized(&[0.5; 50], &BsplineBasis::new(2, 20)).to_dense();
        w.expand_into(&mut reused);
        assert_eq!(reused, w.to_dense());
    }

    #[test]
    fn heap_bytes_are_sane() {
        let basis = BsplineBasis::tinge_default();
        let w = SparseWeights::from_normalized(&demo_values(), &basis);
        assert_eq!(w.heap_bytes(), 37 * 2 + 37 * 3 * 4);
        let d = w.to_dense();
        assert_eq!(d.heap_bytes(), 37 * d.stride() * 4);
    }

    proptest! {
        #[test]
        fn prop_sample_weights_sum_to_one(
            values in proptest::collection::vec(0.0f32..=1.0, 1..100),
            order in 1usize..=5,
        ) {
            let basis = BsplineBasis::new(order, 10);
            let w = SparseWeights::from_normalized(&values, &basis);
            for s in 0..w.samples() {
                let sum: f32 = w.sample_weights(s).iter().sum();
                prop_assert!((sum - 1.0).abs() < 1e-4);
                prop_assert!(w.first_bin(s) + order <= w.bins());
            }
        }

        #[test]
        fn prop_dense_rows_partition_unity(
            values in proptest::collection::vec(0.0f32..=1.0, 1..100),
            order in 1usize..=5,
        ) {
            // The dense layout stores the same partition of unity as the
            // sparse one: each row's live cells sum to 1, every cell
            // outside the sample's k-wide window — including the lane
            // padding — is exactly 0.0 (bitwise; the kernels' entropy-
            // over-the-whole-slice shortcut depends on it).
            let basis = BsplineBasis::new(order, 10);
            let w = SparseWeights::from_normalized(&values, &basis);
            let d = w.to_dense();
            for s in 0..d.samples() {
                let row = d.row(s);
                let sum: f32 = row.iter().sum();
                prop_assert!((sum - 1.0).abs() < 1e-4, "row {s} sums to {sum}");
                let fb = w.first_bin(s);
                for (u, &v) in row.iter().enumerate() {
                    if u < fb || u >= fb + order {
                        prop_assert!(
                            v.to_bits() == 0.0f32.to_bits(),
                            "row {s} col {u} outside the window holds {v}"
                        );
                    } else {
                        prop_assert!(v.to_bits() == w.sample_weights(s)[u - fb].to_bits());
                    }
                }
            }
        }

        #[test]
        fn prop_dense_roundtrip_marginal(values in proptest::collection::vec(0.0f32..=1.0, 1..80)) {
            let basis = BsplineBasis::tinge_default();
            let w = SparseWeights::from_normalized(&values, &basis);
            let ps = w.marginal();
            let pd = w.to_dense().marginal();
            for (a, b) in ps.iter().zip(&pd) {
                prop_assert!((a - b).abs() < 1e-5);
            }
        }
    }
}
