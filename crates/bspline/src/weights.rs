//! Per-gene B-spline weight matrices in the two layouts the MI kernels use.
//!
//! For a gene with `m` normalized samples, the estimator needs the basis
//! weights of every sample. The paper's central data-layout insight is that
//! the *same* information stored two ways has very different kernels:
//!
//! * [`SparseWeights`] — one code per sample into a shared
//!   [`WeightTable`], whose entry holds the `k` weights and first bin of
//!   one normalized value. After the rank transform every value is one of
//!   the `2m − 1` points of the rank grid, so one table per run
//!   ([`WeightTable::for_ranks`]) serves every gene, and a gene is `m`
//!   two-byte codes. Minimal memory and flops; the joint-histogram update
//!   is a `k × k` scatter per sample, which does not vectorize
//!   (gather/scatter on KNC is slow). This is the layout behind the scalar
//!   baseline kernel and the run plans of the vector kernel.
//! * [`DenseWeights`] — `m × b` with zeros outside the `k`-wide window,
//!   stored row-major (sample-major). The joint histogram for a pair is
//!   then `P = Xᵀ·Y / m`, a small dense GEMM whose inner loop streams over
//!   samples with FMA lanes — the restructuring that unlocks the Phi's
//!   512-bit unit. Rows are padded to a lane multiple so kernels need no
//!   tail handling, and stored as cache-line-aligned [`Row16`]s so no row
//!   load straddles two cache lines.

use crate::basis::BsplineBasis;
use gnet_expr::normalize::rank_code_value;
use gnet_simd::lanes::F32x16;
use gnet_simd::{EntryCode, Row16};
use std::sync::Arc;

/// The B-spline weights of a set of normalized values: entry `e` holds the
/// first bin and the `k` weights of one value, each computed as
/// `basis.eval_nonzero(basis.sample_to_domain(v))`. Genes share a table
/// behind an [`Arc`] and name its entries by code ([`SparseWeights`]).
#[derive(Clone, Debug, PartialEq)]
pub struct WeightTable {
    /// Spline order `k` (weights per entry).
    order: usize,
    /// Number of bins `b` (bound for `first_bin + k`).
    bins: usize,
    /// One first-bin index per entry.
    first_bins: Vec<u16>,
    /// `k` weights per entry, entry-major.
    weights: Vec<f32>,
}

impl WeightTable {
    /// The table of the rank grid of `samples` samples: entry `c` holds
    /// the weights of rank code `c`'s value
    /// ([`rank_code_value`](gnet_expr::normalize::rank_code_value)), for
    /// each of the [`Self::rank_entries`] codes a rank-transformed profile
    /// of `samples` samples can hold.
    pub fn for_ranks(samples: usize, basis: &BsplineBasis) -> Self {
        let codes = 0..u32::try_from(Self::rank_entries(samples)).expect("rank codes fit u32");
        Self::from_values(codes.map(|c| rank_code_value(c, samples)), basis)
    }

    /// The table of `values`, one entry each, in order.
    fn from_values(values: impl ExactSizeIterator<Item = f32>, basis: &BsplineBasis) -> Self {
        let k = basis.order();
        let mut first_bins = Vec::with_capacity(values.len());
        let mut weights = Vec::with_capacity(values.len() * k);
        for v in values {
            let (first, w) = basis.eval_nonzero(basis.sample_to_domain(v));
            first_bins.push(u16::try_from(first).expect("first + order <= bins <= 64 fits u16"));
            weights.extend_from_slice(&w[..k]);
        }
        Self {
            order: k,
            bins: basis.bins(),
            first_bins,
            weights,
        }
    }

    /// Reassemble a table from its first bins and weights, validating
    /// every entry: codecs map a corrupt table to a typed error instead of
    /// panicking.
    ///
    /// # Errors
    /// Returns a description of the first shape or range violation: an
    /// order outside `1..=MAX_ORDER`, fewer bins than the order or more
    /// than 64, a weight count other than `k` per entry, a first bin whose
    /// window overruns the grid, or a non-finite weight.
    pub fn try_from_parts(
        order: usize,
        bins: usize,
        first_bins: Vec<u16>,
        weights: Vec<f32>,
    ) -> Result<Self, String> {
        if !(1..=crate::basis::MAX_ORDER).contains(&order) {
            return Err(format!("bad order {order}"));
        }
        if bins < order || bins > 64 {
            return Err(format!("{bins} bins at order {order}"));
        }
        if weights.len() != first_bins.len() * order {
            return Err(format!(
                "k weights per entry: got {} for {} entries at order {order}",
                weights.len(),
                first_bins.len()
            ));
        }
        if let Some(fb) = first_bins
            .iter()
            .find(|&&fb| usize::from(fb) + order > bins)
        {
            return Err(format!(
                "first bin {fb} overruns the {bins}-bin grid at order {order}"
            ));
        }
        if let Some(w) = weights.iter().find(|w| !w.is_finite()) {
            return Err(format!("non-finite weight {w}"));
        }
        Ok(Self {
            order,
            bins,
            first_bins,
            weights,
        })
    }

    /// Entries of the rank grid of `samples` samples: one per rank code,
    /// `2m − 1` (one for a single sample, none for none).
    pub fn rank_entries(samples: usize) -> usize {
        (2 * samples).saturating_sub(1)
    }

    /// Heap bytes of a table of `entries` entries at spline order
    /// `order`: a first bin and `k` weights per entry.
    pub fn bytes_for(entries: usize, order: usize) -> usize {
        entries * (core::mem::size_of::<u16>() + order * core::mem::size_of::<f32>())
    }

    /// Number of entries.
    pub fn entries(&self) -> usize {
        self.first_bins.len()
    }

    /// Spline order `k`.
    pub fn order(&self) -> usize {
        self.order
    }

    /// Number of bins `b`.
    pub fn bins(&self) -> usize {
        self.bins
    }

    /// Every entry's first bin.
    pub fn first_bins(&self) -> &[u16] {
        &self.first_bins
    }

    /// Every entry's `k` weights, entry-major.
    pub fn weights(&self) -> &[f32] {
        &self.weights
    }

    /// First bin and `k` weights of entry `e`.
    #[inline(always)]
    pub(crate) fn entry(&self, e: usize) -> (usize, &[f32]) {
        let k = self.order;
        (
            usize::from(self.first_bins[e]),
            &self.weights[e * k..(e + 1) * k],
        )
    }

    /// Heap bytes of the table.
    pub fn heap_bytes(&self) -> usize {
        Self::bytes_for(self.entries(), self.order)
    }
}

/// One gene's codes into its [`WeightTable`], one per sample, two bytes
/// wide while every code fits, four above.
#[derive(Clone, Debug, PartialEq)]
pub enum SampleCodes {
    /// Codes of a table of at most 65,536 entries.
    Narrow(Vec<u16>),
    /// Codes of a larger table.
    Wide(Vec<u32>),
}

/// `$body` with `$c` bound to the code slice of `$codes`, at either width.
macro_rules! with_codes {
    ($codes:expr, $c:ident => $body:expr) => {
        match $codes {
            SampleCodes::Narrow($c) => $body,
            SampleCodes::Wide($c) => $body,
        }
    };
}

impl SampleCodes {
    /// `codes` at the width a table of `entries` entries needs.
    ///
    /// # Panics
    /// Panics if a narrow width is chosen and a code does not fit it
    /// (a code at or past `entries`).
    pub fn for_entries(codes: Vec<u32>, entries: usize) -> Self {
        if Self::width(entries) == 2 {
            let narrow = codes
                .iter()
                .map(|&c| u16::try_from(c).expect("a code below 65,536 entries fits u16"));
            Self::Narrow(narrow.collect())
        } else {
            Self::Wide(codes)
        }
    }

    /// Bytes one code takes against a table of `entries` entries.
    pub fn width(entries: usize) -> usize {
        if entries <= 1 << 16 {
            2
        } else {
            4
        }
    }

    /// Number of codes (samples).
    pub fn len(&self) -> usize {
        with_codes!(self, c => c.len())
    }

    /// No samples?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Code of sample `s`.
    #[inline(always)]
    pub fn get(&self, s: usize) -> usize {
        with_codes!(self, c => c[s].index())
    }

    /// The largest code, if any.
    fn max(&self) -> Option<usize> {
        with_codes!(self, c => c.iter().map(|c| c.index()).max())
    }

    /// Heap bytes of the codes.
    fn heap_bytes(&self) -> usize {
        with_codes!(self, c => core::mem::size_of_val(c.as_slice()))
    }
}

/// One gene's weight matrix: a code per sample into a shared
/// [`WeightTable`]. Sample `s` has the first bin and `k` weights of entry
/// `codes[s]`.
#[derive(Clone, Debug, PartialEq)]
pub struct SparseWeights {
    table: Arc<WeightTable>,
    codes: SampleCodes,
}

impl SparseWeights {
    /// Compute the weight matrix of one gene from its normalized samples
    /// (each in `[0, 1]`), over a table of the gene's own distinct values:
    /// every sample gets the weights of its own value's evaluation. A
    /// rank-transformed gene is better coded against the run's rank table
    /// ([`WeightTable::for_ranks`], [`Self::new`]).
    pub fn from_normalized(values: &[f32], basis: &BsplineBasis) -> Self {
        let mut keyed: Vec<(u32, u32)> = values.iter().map(|v| v.to_bits()).zip(0..).collect();
        keyed.sort_unstable();
        let mut distinct = Vec::new();
        let mut codes = vec![0u32; values.len()];
        for (bits, s) in keyed {
            if distinct.last() != Some(&bits) {
                distinct.push(bits);
            }
            let code = u32::try_from(distinct.len() - 1).expect("sample indices fit u32");
            codes[s as usize] = code; // cast-ok: u32 to usize widens losslessly
        }
        let table = WeightTable::from_values(distinct.into_iter().map(f32::from_bits), basis);
        let codes = SampleCodes::for_entries(codes, table.entries());
        Self {
            table: Arc::new(table),
            codes,
        }
    }

    /// The gene whose sample `s` has entry `codes[s]` of `table`.
    ///
    /// # Errors
    /// Returns a description of the first code that names no entry.
    pub fn new(table: Arc<WeightTable>, codes: SampleCodes) -> Result<Self, String> {
        match codes.max() {
            Some(top) if top >= table.entries() => Err(format!(
                "code {top} past the {}-entry weight table",
                table.entries()
            )),
            _ => Ok(Self { table, codes }),
        }
    }

    /// The shared table the codes index.
    pub fn table(&self) -> &Arc<WeightTable> {
        &self.table
    }

    /// The per-sample codes.
    pub fn codes(&self) -> &SampleCodes {
        &self.codes
    }

    /// Spline order `k`.
    pub fn order(&self) -> usize {
        self.table.order
    }

    /// Number of bins `b`.
    pub fn bins(&self) -> usize {
        self.table.bins
    }

    /// Number of samples `m`.
    pub fn samples(&self) -> usize {
        self.codes.len()
    }

    /// First-bin index of sample `s`.
    #[inline(always)]
    pub fn first_bin(&self, s: usize) -> usize {
        self.table.entry(self.codes.get(s)).0
    }

    /// The `k` weights of sample `s`.
    #[inline(always)]
    pub fn sample_weights(&self, s: usize) -> &[f32] {
        self.table.entry(self.codes.get(s)).1
    }

    /// Marginal bin distribution `p[u] = (1/m) Σ_s w_s[u]`, summed in
    /// sample order.
    pub fn marginal(&self) -> Vec<f32> {
        let mut p = vec![0.0f32; self.bins()];
        with_codes!(&self.codes, codes => {
            for c in codes {
                let (fb, w) = self.table.entry(c.index());
                for (acc, &w) in p[fb..].iter_mut().zip(w) {
                    *acc += w;
                }
            }
        });
        // cast-ok: sample counts are far below f32's 2^24 exact-integer range
        let inv_m = 1.0 / self.samples() as f32;
        for v in &mut p {
            *v *= inv_m;
        }
        p
    }

    /// Expand into the dense, lane-padded layout.
    pub fn to_dense(&self) -> DenseWeights {
        let mut dense = DenseWeights::zeroed(0, self.bins());
        self.expand_into(&mut dense);
        dense
    }

    /// Expand into the dense layout in `dense`, reusing its rows'
    /// allocation and writing each row once (no separate zeroing pass);
    /// the result equals [`Self::to_dense`].
    pub fn expand_into(&self, dense: &mut DenseWeights) {
        with_codes!(&self.codes, codes => dense.fill(codes, &self.table));
    }

    /// Heap bytes of the gene's own codes; the shared table is counted
    /// once per run ([`WeightTable::heap_bytes`]).
    pub fn heap_bytes(&self) -> usize {
        self.codes.heap_bytes()
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
        let stride = Self::stride_for(bins);
        Self {
            samples,
            bins,
            stride,
            data: vec![Row16::ZERO; samples * stride / F32x16::LANES],
        }
    }

    /// Lane-padded row stride of `bins` bins.
    fn stride_for(bins: usize) -> usize {
        bins.div_ceil(F32x16::LANES) * F32x16::LANES
    }

    /// Make `self` the dense expansion of the gene `codes` into `table`,
    /// reusing its allocation: each sample's rows are appended zeroed and
    /// given their `k` weights while in L1, so each row is written once.
    fn fill(&mut self, codes: &[impl EntryCode], table: &WeightTable) {
        let stride = Self::stride_for(table.bins);
        let per_sample = stride / F32x16::LANES;
        (self.samples, self.bins, self.stride) = (codes.len(), table.bins, stride);
        self.data.clear();
        self.data.reserve(codes.len() * per_sample);
        for c in codes {
            let (fb, w) = table.entry(c.index());
            let start = self.data.len();
            for _ in 0..per_sample {
                self.data.push(Row16::ZERO);
            }
            let line = Row16::flatten_mut(&mut self.data[start..]);
            for (cell, &w) in line[fb..].iter_mut().zip(w) {
                *cell = w;
            }
        }
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
        // 37 two-byte codes; the table (37 distinct values) is shared.
        assert_eq!(w.heap_bytes(), 37 * 2);
        assert_eq!(w.table().heap_bytes(), 37 * (2 + 3 * 4));
        assert_eq!(WeightTable::bytes_for(37, 3), w.table().heap_bytes());
        let d = w.to_dense();
        assert_eq!(d.heap_bytes(), 37 * d.stride() * 4);
    }

    #[test]
    fn every_rank_entry_is_its_values_own_evaluation() {
        for order in [1, 3, 4, 8] {
            let basis = BsplineBasis::new(order, 10);
            for m in [0usize, 1, 2, 3, 64, 3_137] {
                let table = WeightTable::for_ranks(m, &basis);
                assert_eq!(table.entries(), WeightTable::rank_entries(m));
                let values: Vec<f32> = (0..table.entries())
                    .map(|c| gnet_expr::normalize::rank_code_value(u32::try_from(c).unwrap(), m))
                    .collect();
                let own = SparseWeights::from_normalized(&values, &basis);
                for (e, _) in values.iter().enumerate() {
                    let (fb, w) = table.entry(e);
                    assert_eq!(fb, own.first_bin(e), "m {m}, k {order}, entry {e}");
                    let bits = |w: &[f32]| w.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(w), bits(own.sample_weights(e)), "m {m}, entry {e}");
                }
            }
        }
    }

    #[test]
    fn codes_are_narrow_up_to_65536_entries() {
        assert_eq!(SampleCodes::width(WeightTable::rank_entries(32_768)), 2);
        assert_eq!(SampleCodes::width(WeightTable::rank_entries(32_769)), 4);
        let table = Arc::new(WeightTable::for_ranks(3, &BsplineBasis::tinge_default()));
        let w = SparseWeights::new(table.clone(), SampleCodes::for_entries(vec![4, 0, 2], 5));
        assert_eq!(w.expect("codes below 5 entries").heap_bytes(), 6);
        let past = SparseWeights::new(table, SampleCodes::Wide(vec![0, 5, 1]));
        assert!(past.expect_err("code 5 of 5 entries").contains("code 5"));
    }

    #[test]
    fn a_coded_gene_expands_as_its_samples_evaluated_one_by_one() {
        // Wide layouts (b > 16) take the multi-row path of the expansion.
        for basis in [BsplineBasis::tinge_default(), BsplineBasis::new(4, 40)] {
            let values: Vec<f32> = (0..50).map(|i| ((i * 7) % 11) as f32 / 10.0).collect();
            let dense = SparseWeights::from_normalized(&values, &basis).to_dense();
            for (s, &v) in values.iter().enumerate() {
                let (first, w) = basis.eval_nonzero(basis.sample_to_domain(v));
                let mut row = vec![0.0f32; dense.stride()];
                row[first..first + basis.order()].copy_from_slice(&w[..basis.order()]);
                let bits = |r: &[f32]| r.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(dense.row(s)), bits(&row), "sample {s}");
            }
        }
    }

    #[test]
    fn corrupt_table_parts_are_errors() {
        let ok = WeightTable::try_from_parts(2, 4, vec![0, 2], vec![0.5, 0.5, 1.0, 0.0]);
        assert_eq!(ok.expect("valid parts").entries(), 2);
        for (first_bins, weights, what) in [
            (vec![0u16, 3], vec![0.5f32, 0.5, 1.0, 0.0], "overruns"),
            (vec![0, 2], vec![0.5, f32::NAN, 1.0, 0.0], "non-finite"),
            (vec![0, 2], vec![0.5, 0.5, 1.0], "k weights per entry"),
        ] {
            let err = WeightTable::try_from_parts(2, 4, first_bins, weights).expect_err(what);
            assert!(err.contains(what), "{err}");
        }
        assert!(WeightTable::try_from_parts(0, 4, vec![], vec![]).is_err());
        assert!(WeightTable::try_from_parts(3, 2, vec![], vec![]).is_err());
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
