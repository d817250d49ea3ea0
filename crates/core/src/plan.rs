//! Memory planning for whole-genome runs.
//!
//! The Xeon Phi the paper targets has 8 GB of on-card GDDR5, and the
//! whole-genome problem is sized uncomfortably close to it: the raw
//! matrix is ~195 MB, and the prepared genes ~98 MB — two-byte rank codes
//! per gene-sample into one shared B-spline weight table (88 KB), where
//! per-sample weights took ~684 MB. Every worker thread additionally
//! holds the run plans of its current tile's row genes, one block of
//! column genes packed across the run kernel's register groups and one
//! joint grid per group. The run's candidates, the pairs that beat all of
//! their nulls, grow with the pair count. This module makes those
//! footprints explicit so callers can pick a tile size that fits a memory
//! budget *before* starting a multi-hour run, and the tile cache rule
//! ([`InferenceConfig::resolved_tile_size`]) reads a worker's bytes from
//! it.

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
    ///
    /// # Panics
    /// Panics on an invalid configuration ([`InferenceConfig::validate`]).
    pub fn new(config: &InferenceConfig, genes: usize, samples: usize) -> Self {
        config.validate();
        Self::shape(config, genes, samples)
    }

    /// [`Self::new`] without validating the configuration.
    pub(crate) fn shape(config: &InferenceConfig, genes: usize, samples: usize) -> Self {
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

    /// Gene pairs `n(n−1)/2`.
    pub fn pairs(&self) -> usize {
        self.genes * self.genes.saturating_sub(1) / 2
    }

    /// The candidates the run keeps, 16 bytes each (`u32` genes `i`, `j`
    /// and the `f64` MI): at least `⌈pairs/(q+1)⌉` of them, because even a
    /// pair with no dependence beats all `q` of its nulls with probability
    /// `1/(q+1)`. Real dependence only adds candidates.
    pub fn candidate_bytes(&self) -> usize {
        16 * self.pairs().div_ceil(self.permutations + 1)
    }

    /// One row gene's run plan: `m × k` sorted weights and the `m`-long
    /// sample order, four bytes each, plus `b − k + 2` run bounds.
    pub fn row_plan_bytes(&self) -> usize {
        let (m, k, b) = (self.samples, self.order, self.bins);
        m * (4 * k + 4) + 4 * (b + 2).saturating_sub(k)
    }

    /// One thread's fixed buffers, whatever the tile: the
    /// `R =` [`run_block_columns`]`(k)` register groups one pass of the
    /// run kernel holds (`m × 64` bytes each), into which a block's genes
    /// are packed `b` lanes apart, and one `b × 16` joint grid per group.
    /// Layouts wider than one register keep `R` genes' dense expansions
    /// (`m × bins_padded × 4` each) and one `b × bins_padded` grid per
    /// gene: the same formula.
    pub fn per_thread_fixed_bytes(&self) -> usize {
        let grid = self.bins * self.bins_padded * 4;
        run_block_columns(self.order) * (self.samples * self.bins_padded * 4 + grid)
    }

    /// One thread's buffers at tile edge `tile`: the run plans of the
    /// tile's row genes ([`Self::row_plan_bytes`] each) plus its fixed
    /// buffers ([`Self::per_thread_fixed_bytes`]).
    pub fn per_thread_tile_bytes(&self, tile: usize) -> usize {
        tile * self.row_plan_bytes() + self.per_thread_fixed_bytes()
    }

    /// Largest tile edge whose worker ([`Self::per_thread_tile_bytes`])
    /// fits `worker_bytes`; 0 when not even the fixed buffers fit.
    pub fn max_tile_for_worker(&self, worker_bytes: usize) -> usize {
        worker_bytes.saturating_sub(self.per_thread_fixed_bytes()) / self.row_plan_bytes().max(1)
    }

    /// The bytes that do not depend on the tile or the threads: matrix,
    /// prepared genes, permutations and candidates.
    fn shared_bytes(&self) -> usize {
        self.matrix_bytes()
            + self.prepared_bytes()
            + self.permutations_bytes()
            + self.candidate_bytes()
    }

    /// Peak resident bytes with `threads` workers at tile size `tile`.
    pub fn peak_bytes(&self, tile: usize, threads: usize) -> usize {
        self.shared_bytes() + threads * self.per_thread_tile_bytes(tile)
    }

    /// Largest tile size whose peak stays within `budget_bytes`, or
    /// `None` if even tile 1 does not fit (the fixed state alone exceeds
    /// the budget).
    pub fn max_tile_for_budget(&self, budget_bytes: usize, threads: usize) -> Option<usize> {
        let fixed = self.shared_bytes();
        let per_thread_fixed = threads * self.per_thread_fixed_bytes();
        let per_row = self.row_plan_bytes();
        if fixed + per_thread_fixed + threads * per_row > budget_bytes {
            return None;
        }
        let spare = budget_bytes - fixed - per_thread_fixed;
        Some((spare / (threads * per_row)).min(self.genes).max(1))
    }

    /// Footprint summary: each term in bytes and MiB.
    pub fn summary(&self, tile: usize, threads: usize) -> String {
        let bytes = |b: usize| format!("{b} B ({:.2} MiB)", b as f64 / (1024.0 * 1024.0));
        format!(
            "matrix {} + genes {} + perms {} + candidates {} + {threads} threads × tile {tile} \
             ({}) = peak {}",
            bytes(self.matrix_bytes()),
            bytes(self.prepared_bytes()),
            bytes(self.permutations_bytes()),
            bytes(self.candidate_bytes()),
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
        // A row plan: 3,137 × (12 + 4) bytes plus 9 run bounds; nothing
        // per null permutation.
        assert_eq!(p.row_plan_bytes(), 50_228);
        // Four register groups of 3,137 rows (64 bytes each), six genes
        // packed ten lanes apart, and four 10 × 16 grids: the bytes four
        // one-gene groups took.
        assert_eq!(p.per_thread_fixed_bytes(), 4 * 3_137 * 64 + 4 * 10 * 16 * 4);
        // At least one pair in 31 beats all 30 of its nulls by chance:
        // ⌈121,282,525 / 31⌉ = 3,912,340 candidates, 62.6 MB.
        assert_eq!(p.pairs(), 121_282_525);
        assert_eq!(p.candidate_bytes(), 16 * 3_912_340);
        let shared = p.matrix_bytes() + p.prepared_bytes() + p.permutations_bytes();
        assert_eq!(p.peak_bytes(12, 1), shared + 62_597_440 + 1_408_368);
        // The cache-rule tile at paper shape, T = 12: 1.34 MiB per worker,
        // 1.7% below the 1.37 MiB a worker held at T = 5 with a whole
        // tile's dense columns and 30 composed null lists.
        assert_eq!(p.per_thread_tile_bytes(12), 1_408_368);
        // Wider tiles add only row plans: T = 64 is 4 MB, not 13 MB.
        let per = p.per_thread_tile_bytes(64);
        assert!((4_000_000..4_050_000).contains(&per), "{per}");
        assert_eq!(p.max_tile_for_worker(1_408_368), 12);
        assert_eq!(p.max_tile_for_worker(1_408_367), 11);
        assert_eq!(p.max_tile_for_worker(100), 0);
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
        use crate::scan::{scan_tile, NullScan};
        use gnet_bspline::BsplineBasis;
        use gnet_mi::{prepare_gene, MiScratch, Pairing};
        use gnet_parallel::Tile;
        // A tile of 5 row genes against 7 column genes: five row plans,
        // and packed blocks of 6 + 1 columns through one block's four
        // register groups and four grids.
        let (genes, m, tile) = (12usize, 40usize, 5usize);
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
        let pairings = Pairing::all(&perms, m);
        let t = Tile {
            row_start: 0,
            row_end: tile as u32,
            col_start: tile as u32,
            col_end: genes as u32,
        };
        let mut scratch = MiScratch::for_basis(&basis);
        let (rows, cols) = (&prepared[..tile], &prepared[tile..]);
        let mut acc = NullScan::default();
        scan_tile(&t, rows, cols, &pairings, &config, &mut scratch, &mut acc);
        assert_eq!(acc.joints, 5 * 7 * 7);
        assert_eq!(
            plan.per_thread_tile_bytes(tile),
            scratch.vector_heap_bytes()
        );
    }

    #[test]
    fn headline_fits_the_phis_8_gb_at_the_paper_operating_point() {
        let p = headline_plan();
        let budget = 8usize * 1024 * 1024 * 1024;
        // 244 threads with the cache-rule tile (T = 12 at 3,137 samples)
        // sits far inside the card.
        let tile = InferenceConfig::default().resolved_tile_size(p.genes, p.samples);
        assert_eq!(tile, 12);
        assert!(p.peak_bytes(tile, 244) < budget);
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
        assert!(s.contains(" + candidates 62597440 B (59.70 MiB) + "), "{s}");
    }

    #[test]
    fn every_pair_may_be_a_candidate_without_nulls() {
        let config = InferenceConfig {
            permutations: 0,
            mi_threshold: Some(0.1),
            ..InferenceConfig::default()
        };
        let p = MemoryPlan::new(&config, 100, 50);
        assert_eq!(p.candidate_bytes(), 16 * 4_950);
        assert_eq!(MemoryPlan::new(&config, 1, 50).candidate_bytes(), 0);
    }
}
