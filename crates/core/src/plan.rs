//! Memory planning for whole-genome runs.
//!
//! The Xeon Phi the paper targets has 8 GB of on-card GDDR5, and the
//! whole-genome problem is sized uncomfortably close to it: the raw
//! matrix is ~195 MB, and the prepared genes ~98 MB — two-byte rank codes
//! per gene-sample into one shared B-spline weight table (88 KB), where
//! per-sample weights took ~684 MB. Every worker thread additionally
//! materializes the dense lane-padded
//! expansions of its current tile's column genes, the run plan of its
//! current row gene and one joint grid per column of a block. This module
//! makes those footprints explicit so callers can pick a tile size that
//! fits a memory budget *before* starting a multi-hour run.

use crate::config::InferenceConfig;
use gnet_bspline::{SampleCodes, WeightTable};
use gnet_simd::run_block_columns;
use serde::{Deserialize, Serialize};

/// Byte-level footprint model of one inference run.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct MemoryPlan {
    /// Number of genes `n`.
    pub genes: usize,
    /// Number of samples `m`.
    pub samples: usize,
    /// Spline order `k`.
    pub order: usize,
    /// Bins `b`: the rows of a joint grid.
    pub bins: usize,
    /// Lane-padded bins of the dense layout.
    pub bins_padded: usize,
    /// Permutations `q`.
    pub permutations: usize,
}

impl MemoryPlan {
    /// Build a plan from a config and matrix shape.
    pub fn new(config: &InferenceConfig, genes: usize, samples: usize) -> Self {
        config.validate();
        let lanes = 16; // F32x16 padding of the dense layout
        Self {
            genes,
            samples,
            order: config.spline_order,
            bins: config.bins,
            bins_padded: config.bins.div_ceil(lanes) * lanes,
            permutations: config.permutations,
        }
    }

    /// Raw expression matrix bytes (`n × m × 4`).
    pub fn matrix_bytes(&self) -> usize {
        self.genes * self.samples * 4
    }

    /// Every prepared gene's rank codes (`n × m` codes of
    /// [`SampleCodes::width`] bytes) plus the one rank table they share
    /// ([`WeightTable::for_ranks`]), resident for the whole run.
    pub fn prepared_bytes(&self) -> usize {
        let entries = WeightTable::rank_entries(self.samples);
        self.genes * self.samples * SampleCodes::width(entries)
            + WeightTable::bytes_for(entries, self.order)
    }

    /// Shared permutation set (`q × m × 4`).
    pub fn permutations_bytes(&self) -> usize {
        self.permutations * self.samples * 4
    }

    /// One thread's fixed buffers, whatever the tile: the run plan of its
    /// row gene, fully composed — `m × k` sorted weights, the identity
    /// list and `q` composed lists of `m` row indices each, `b − k + 2`
    /// run bounds and `q` composed flags — plus one `b × bins_padded`
    /// joint grid per column of a block.
    pub fn per_thread_fixed_bytes(&self) -> usize {
        let (m, k, b, q) = (self.samples, self.order, self.bins, self.permutations);
        let plan = m * (4 * k + 4 + 4 * q) + 4 * (b - k + 2) + q;
        plan + run_block_columns(k) * b * self.bins_padded * 4
    }

    /// Bytes of one gene's dense expansion (`m × bins_padded × 4`).
    fn dense_gene_bytes(&self) -> usize {
        self.samples * self.bins_padded * 4
    }

    /// One thread's dense expansion of a tile's column genes
    /// (`tile × m × bins_padded × 4`) plus its fixed buffers
    /// ([`Self::per_thread_fixed_bytes`]).
    pub fn per_thread_tile_bytes(&self, tile: usize) -> usize {
        tile * self.dense_gene_bytes() + self.per_thread_fixed_bytes()
    }

    /// Peak resident bytes with `threads` workers at tile size `tile`.
    pub fn peak_bytes(&self, tile: usize, threads: usize) -> usize {
        self.matrix_bytes()
            + self.prepared_bytes()
            + self.permutations_bytes()
            + threads * self.per_thread_tile_bytes(tile)
    }

    /// Largest tile size whose peak stays within `budget_bytes`, or
    /// `None` if even tile 1 does not fit (the fixed state alone exceeds
    /// the budget).
    pub fn max_tile_for_budget(&self, budget_bytes: usize, threads: usize) -> Option<usize> {
        let fixed = self.matrix_bytes() + self.prepared_bytes() + self.permutations_bytes();
        let per_thread_fixed = threads * self.per_thread_fixed_bytes();
        let per_gene = self.dense_gene_bytes();
        if fixed + per_thread_fixed + threads * per_gene > budget_bytes {
            return None;
        }
        let spare = budget_bytes - fixed - per_thread_fixed;
        Some((spare / (threads * per_gene)).min(self.genes).max(1))
    }

    /// Footprint summary: each term in bytes and MiB.
    pub fn summary(&self, tile: usize, threads: usize) -> String {
        let bytes = |b: usize| format!("{b} B ({:.2} MiB)", b as f64 / (1024.0 * 1024.0));
        format!(
            "matrix {} + genes {} + perms {} + {threads} threads × tile {tile} ({}) = peak {}",
            bytes(self.matrix_bytes()),
            bytes(self.prepared_bytes()),
            bytes(self.permutations_bytes()),
            bytes(threads * self.per_thread_tile_bytes(tile)),
            bytes(self.peak_bytes(tile, threads)),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn headline_plan() -> MemoryPlan {
        MemoryPlan::new(&InferenceConfig::default(), 15_575, 3_137)
    }

    #[test]
    fn headline_footprints_match_hand_arithmetic() {
        let p = headline_plan();
        assert_eq!(p.matrix_bytes(), 15_575 * 3_137 * 4); // ≈ 195 MB
        let (codes, table) = (15_575 * 3_137 * 2, 6_273 * (2 + 3 * 4));
        assert_eq!(p.prepared_bytes(), codes + table); // ≈ 98 MB
        assert_eq!(p.permutations_bytes(), 30 * 3_137 * 4);
        assert_eq!(p.bins_padded, 16);
        // The row plan: 3,137 × (12 + 4 + 120) bytes ≈ 0.41 MiB, plus 9
        // run bounds and 30 flags; four 10 × 16 grids.
        let plan = 3_137 * 136 + 4 * 9 + 30;
        assert_eq!(p.per_thread_fixed_bytes(), plan + 4 * 10 * 16 * 4);
        // One thread at T=64: 64 × 3,137 × 16 × 4 ≈ 12.8 MB + plan + grids.
        let per = p.per_thread_tile_bytes(64);
        assert!((13_200_000..13_300_000).contains(&per), "{per}");
        // At the cache-rule tile T = 5 the plan adds ~40% to the dense
        // columns.
        assert_eq!(
            p.per_thread_tile_bytes(5),
            5 * 3_137 * 64 + p.per_thread_fixed_bytes()
        );
    }

    #[test]
    fn prepared_bytes_equal_what_prepare_genes_holds() {
        use gnet_bspline::BsplineBasis;
        for (genes, m, order) in [
            (6usize, 40usize, 3usize),
            (3, 3_137, 3),
            (4, 7, 5),
            (2, 1, 3),
        ] {
            let config = InferenceConfig {
                spline_order: order,
                ..InferenceConfig::default()
            };
            let matrix = gnet_expr::synth::independent_gaussian(genes, m, 5);
            let basis = BsplineBasis::new(order, config.bins);
            let prepared = crate::prepare_genes(&matrix, 0..genes, &basis, 2);
            let held: usize = prepared.iter().map(|g| g.heap_bytes()).sum::<usize>()
                + prepared[0].sparse.table().heap_bytes();
            let plan = MemoryPlan::new(&config, genes, m);
            assert_eq!(plan.prepared_bytes(), held, "{genes} × {m}, k {order}");
        }
    }

    #[test]
    fn per_thread_bytes_equal_a_threads_buffers() {
        use gnet_bspline::BsplineBasis;
        use gnet_mi::{prepare_gene, MiKernel, MiScratch};
        let (genes, m, tile) = (8usize, 40usize, 5usize);
        let config = InferenceConfig {
            permutations: 6,
            ..InferenceConfig::default()
        };
        let plan = MemoryPlan::new(&config, genes, m);
        let basis = BsplineBasis::new(config.spline_order, config.bins);
        let values =
            |g: usize| -> Vec<f32> { (0..m).map(|s| ((s * 7 + g * 13) % m) as f32).collect() };
        let prepared: Vec<_> = (0..genes)
            .map(|g| prepare_gene(&values(g), &basis))
            .collect();
        let perms: Vec<Vec<u32>> = (0..config.permutations as u32)
            .map(|r| (0..m as u32).map(|s| (s * 3 + r) % m as u32).collect())
            .collect();
        let mut scratch = MiScratch::for_basis(&basis);
        let dense = scratch.expand_columns(&prepared[genes - tile..]);
        let dense_bytes: usize = dense.iter().map(|d| d.heap_bytes()).sum();
        scratch.reuse_columns(dense);
        let dense = scratch.expand_columns(&prepared[genes - tile..]);
        let mut row = scratch.plan_row(MiKernel::VectorDense, &prepared[0], &perms);
        let width = row.block_columns();
        let (ys, mut out) = (&prepared[genes - tile..][..width], vec![0.0; width]);
        for pairing in std::iter::once(None).chain((0..perms.len()).map(Some)) {
            row.mi_block(ys, &dense[..width], pairing, &mut out);
        }
        scratch.reuse_columns(dense);
        assert_eq!(
            plan.per_thread_tile_bytes(tile),
            dense_bytes + scratch.vector_heap_bytes()
        );
    }

    #[test]
    fn headline_fits_the_phis_8_gb_at_the_paper_operating_point() {
        let p = headline_plan();
        let budget = 8usize * 1024 * 1024 * 1024;
        // 244 threads with the cache-rule tile (T=5 at 3,137 samples)
        // sits far inside the card.
        assert!(p.peak_bytes(5, 244) < budget);
        // And the planner can tell how far tiles could grow.
        let max_tile = p.max_tile_for_budget(budget, 244).unwrap();
        assert!(max_tile >= 64, "8 GB admits large tiles, got {max_tile}");
        assert!(p.peak_bytes(max_tile, 244) <= budget);
        assert!(
            p.peak_bytes(max_tile + 1, 244) > budget || max_tile == p.genes,
            "planner answer must be maximal"
        );
    }

    #[test]
    fn budget_solver_is_inverse_of_peak() {
        let p = MemoryPlan::new(&InferenceConfig::default(), 2_048, 1_000);
        for threads in [1usize, 4, 61] {
            for budget_mb in [64usize, 256, 1024] {
                let budget = budget_mb * 1024 * 1024;
                match p.max_tile_for_budget(budget, threads) {
                    Some(tile) => {
                        assert!(
                            p.peak_bytes(tile, threads) <= budget,
                            "threads={threads} budget={budget_mb}MB tile={tile}"
                        );
                    }
                    None => {
                        assert!(p.peak_bytes(1, threads) > budget);
                    }
                }
            }
        }
    }

    #[test]
    fn too_small_budget_is_reported_as_unfittable() {
        let p = headline_plan();
        assert_eq!(p.max_tile_for_budget(100 * 1024 * 1024, 244), None);
    }

    #[test]
    fn peak_is_monotone_in_tile_and_threads() {
        let p = MemoryPlan::new(&InferenceConfig::default(), 1_000, 500);
        assert!(p.peak_bytes(8, 4) < p.peak_bytes(16, 4));
        assert!(p.peak_bytes(8, 4) < p.peak_bytes(8, 8));
    }

    #[test]
    fn summary_mentions_all_components() {
        let p = headline_plan();
        let s = p.summary(64, 244);
        assert!(s.contains("matrix") && s.contains("genes") && s.contains("peak"));
    }
}
