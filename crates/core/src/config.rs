//! Pipeline configuration.

use crate::plan::MemoryPlan;
use gnet_bspline::MAX_ORDER;
use gnet_mi::MiKernel;
use gnet_parallel::SchedulerPolicy;
use gnet_simd::run_block_columns;
use serde::{Deserialize, Serialize};
use std::fmt;

/// How the permutation null is evaluated per pair.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum NullStrategy {
    /// Evaluate all `q` nulls for every pair and pool them for the global
    /// threshold — the paper's (TINGe's) procedure. Work per pair is
    /// exactly `q + 1` joint entropies.
    #[default]
    ExactFull,
    /// Adaptive extension (DESIGN.md §7): obtain the global threshold
    /// first — from `mi_threshold` if set, otherwise from a full-null
    /// pre-pass over `null_sample_pairs` sampled pairs — then skip nulls
    /// for pairs below it and stop at the first null that ties or beats
    /// the observed value. Decisions are identical to [`Self::ExactFull`]
    /// *given the same threshold*; only the work changes (≈ 2 joints per
    /// null pair instead of `q + 1`).
    EarlyExit,
}

/// A configuration [`InferenceConfig::check`] rejects.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConfigError {
    /// The offending [`InferenceConfig`] field, by name.
    pub field: &'static str,
    /// What is wrong with its value.
    pub reason: String,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.field, self.reason)
    }
}

impl std::error::Error for ConfigError {}

/// Complete configuration of one inference run.
///
/// The defaults reproduce the paper's operating point: TINGe estimator
/// settings (order-3 B-splines over 10 bins), 30 shared permutations,
/// α = 0.01 family-wise, the vectorized kernel, dynamic tile scheduling.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct InferenceConfig {
    /// Histogram bins `b` of the B-spline estimator.
    pub bins: usize,
    /// Spline order `k`.
    pub spline_order: usize,
    /// Shared permutations `q` per pair. `0` disables permutation testing
    /// entirely (then `mi_threshold` must be set).
    pub permutations: usize,
    /// Family-wise significance level α for the pooled-null threshold.
    pub alpha: f64,
    /// Explicit MI threshold in nats; when set (`Some`), it replaces the
    /// pooled-null `I*` (used by kernel benchmarks and by `q = 0` runs).
    pub mi_threshold: Option<f64>,
    /// RNG seed for the permutation set.
    pub seed: u64,
    /// Which MI kernel to run.
    pub kernel: MiKernel,
    /// Tile edge length; `None` picks the cache-blocking default.
    pub tile_size: Option<usize>,
    /// Worker threads; `None` uses the host's available parallelism. On
    /// the distributed path this counts workers per rank, so `P` ranks
    /// run `P × threads` workers.
    pub threads: Option<usize>,
    /// Tile scheduling policy.
    pub scheduler: SchedulerPolicy,
    /// Null-evaluation strategy (exact, or the adaptive early-exit
    /// extension).
    pub null_strategy: NullStrategy,
    /// For [`NullStrategy::EarlyExit`] without an explicit `mi_threshold`:
    /// the number of randomly sampled pairs whose full nulls estimate the
    /// pooled threshold in a pre-pass.
    pub null_sample_pairs: usize,
}

impl Default for InferenceConfig {
    fn default() -> Self {
        Self {
            bins: 10,
            spline_order: 3,
            permutations: 30,
            alpha: 0.01,
            mi_threshold: None,
            seed: 0x71_4E_67_45, // "TINGE"-ish; any fixed value works
            kernel: MiKernel::VectorDense,
            tile_size: None,
            threads: None,
            scheduler: SchedulerPolicy::DynamicCounter,
            null_strategy: NullStrategy::ExactFull,
            null_sample_pairs: 1_000,
        }
    }
}

impl InferenceConfig {
    /// A fast configuration for tests and examples: fewer permutations,
    /// a single thread unless overridden.
    pub fn fast() -> Self {
        Self {
            permutations: 10,
            ..Self::default()
        }
    }

    /// Validate the configuration, panicking with the [`Self::check`]
    /// error on nonsense (called by the pipeline before any work).
    ///
    /// # Panics
    /// Panics when [`Self::check`] fails.
    pub fn validate(&self) {
        if let Err(e) = self.check() {
            panic!("invalid inference configuration: {e}");
        }
    }

    /// Check the configuration: at least two and at most 64 bins, a
    /// spline order in `1..=MAX_ORDER` and not above the bin count, α in
    /// (0, 1), a finite threshold when set and an explicit one when
    /// `q = 0`, a threshold or a pre-pass sample under early exit, a tile
    /// size in `1..=u32::MAX` and a positive thread count when set.
    ///
    /// # Errors
    /// The first failed rule, naming its field.
    pub fn check(&self) -> Result<(), ConfigError> {
        let fail = |field, reason: String| Err(ConfigError { field, reason });
        if self.bins < 2 {
            return fail("bins", "need at least two bins".into());
        }
        if self.bins > 64 {
            return fail(
                "bins",
                "more than 64 bins is outside the estimator's useful range".into(),
            );
        }
        if self.spline_order < 1 {
            return fail("spline_order", "spline order must be at least 1".into());
        }
        if self.spline_order > MAX_ORDER {
            return fail(
                "spline_order",
                format!(
                    "spline order {} exceeds MAX_ORDER={MAX_ORDER}",
                    self.spline_order
                ),
            );
        }
        if self.spline_order > self.bins {
            return fail(
                "bins",
                format!(
                    "spline order cannot exceed the bin count ({} > {})",
                    self.spline_order, self.bins
                ),
            );
        }
        if !(f64::MIN_POSITIVE..1.0).contains(&self.alpha) {
            return fail("alpha", format!("alpha {} must lie in (0, 1)", self.alpha));
        }
        if let Some(t) = self.mi_threshold.filter(|t| !t.is_finite()) {
            return fail("mi_threshold", format!("threshold {t} must be finite"));
        }
        if self.permutations == 0 && self.mi_threshold.is_none() {
            return fail(
                "permutations",
                "with q = 0 an explicit mi_threshold is required".into(),
            );
        }
        if self.null_strategy == NullStrategy::EarlyExit
            && self.mi_threshold.is_none()
            && self.null_sample_pairs < 2
        {
            return fail(
                "null_sample_pairs",
                "early-exit needs an mi_threshold or a null_sample_pairs pre-pass".into(),
            );
        }
        match self.tile_size {
            Some(0) => return fail("tile_size", "tile size must be positive".into()),
            Some(t) if u32::try_from(t).is_err() => {
                return fail(
                    "tile_size",
                    format!("tile size {t} exceeds the u32 tile index space"),
                )
            }
            _ => {}
        }
        if self.threads == Some(0) {
            return fail("threads", "thread count must be positive".into());
        }
        Ok(())
    }

    /// Resolved thread count (per rank on the distributed path).
    pub fn resolved_threads(&self) -> usize {
        self.threads.unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
    }

    /// Resolved tile size for `genes` genes of `samples` samples: the
    /// configured edge, or the cache rule. The rule takes the largest
    /// multiple of the `C` register groups one pass of the run kernel
    /// holds ([`run_block_columns`]) whose worker — `T` row plans, one
    /// block packed into `C` groups and `C` grids, as [`MemoryPlan`]
    /// counts them — fits [`TILE_WORKER_BYTES`], at most `⌈genes/8⌉` (so
    /// the matrix has at least eight bands), then at least `C` and at
    /// most `genes`. It reads no thread count: the tile list binds
    /// checkpoints. A tile row's columns are cut into packed blocks
    /// (six genes at b = 10), the last one possibly partial.
    pub fn resolved_tile_size(&self, genes: usize, samples: usize) -> usize {
        self.tile_size.unwrap_or_else(|| {
            let c = run_block_columns(self.spline_order);
            let worker = MemoryPlan::shape(self, genes, samples);
            let t = worker
                .max_tile_for_worker(TILE_WORKER_BYTES)
                .min(genes.div_ceil(8));
            (t / c * c).max(c).min(genes)
        })
    }
}

/// The bytes one worker's tile may hold under the tile cache rule:
/// 1.375 MiB, about what a paper-shape worker held at the old rule's
/// T = 5 (1,433,098 B, a whole tile's dense columns plus 30 composed null
/// lists). At 3,137 samples and k = 3 it admits T = 12 (1,408,368 B),
/// which the tile sweep (EXPERIMENTS.md R8) measured near the top of the
/// block-outer scan's speed without raising peak memory.
pub const TILE_WORKER_BYTES: usize = 11 << 17;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_the_papers_operating_point() {
        let c = InferenceConfig::default();
        assert_eq!(c.bins, 10);
        assert_eq!(c.spline_order, 3);
        assert_eq!(c.permutations, 30);
        assert_eq!(c.kernel, MiKernel::VectorDense);
        assert_eq!(c.scheduler, SchedulerPolicy::DynamicCounter);
        c.validate();
    }

    #[test]
    #[should_panic(expected = "explicit mi_threshold")]
    fn zero_permutations_without_threshold_rejected() {
        let c = InferenceConfig {
            permutations: 0,
            ..InferenceConfig::default()
        };
        c.validate();
    }

    #[test]
    fn zero_permutations_with_threshold_allowed() {
        let c = InferenceConfig {
            permutations: 0,
            mi_threshold: Some(0.2),
            ..InferenceConfig::default()
        };
        c.validate();
    }

    #[test]
    #[should_panic(expected = "order cannot exceed")]
    fn order_above_bins_rejected() {
        let c = InferenceConfig {
            bins: 2,
            spline_order: 3,
            ..InferenceConfig::default()
        };
        c.validate();
    }

    #[test]
    fn check_names_the_field_of_each_broken_rule() {
        type Break = fn(&mut InferenceConfig);
        let broken: [(Break, &str); 15] = [
            (|c| c.bins = 1, "bins"),
            (|c| c.bins = 65, "bins"),
            (|c| c.bins = 2, "bins"),
            (|c| c.spline_order = 0, "spline_order"),
            (|c| (c.spline_order, c.bins) = (9, 20), "spline_order"),
            (|c| c.alpha = 0.0, "alpha"),
            (|c| c.alpha = 2.0, "alpha"),
            (|c| c.alpha = f64::NAN, "alpha"),
            (|c| c.permutations = 0, "permutations"),
            (|c| c.mi_threshold = Some(f64::NAN), "mi_threshold"),
            (|c| c.mi_threshold = Some(f64::INFINITY), "mi_threshold"),
            (
                |c| (c.null_strategy, c.null_sample_pairs) = (NullStrategy::EarlyExit, 1),
                "null_sample_pairs",
            ),
            (|c| c.tile_size = Some(0), "tile_size"),
            (|c| c.tile_size = Some(1 << 32), "tile_size"),
            (|c| c.threads = Some(0), "threads"),
        ];
        for (breaks, field) in broken {
            let mut c = InferenceConfig::default();
            breaks(&mut c);
            assert_eq!(c.check().map_err(|e| e.field), Err(field), "{c:?}");
        }
        let at_limits = InferenceConfig {
            bins: 64,
            spline_order: MAX_ORDER,
            ..InferenceConfig::default()
        };
        assert_eq!(at_limits.check(), Ok(()));
    }

    #[test]
    fn resolved_values() {
        let c = InferenceConfig {
            threads: Some(3),
            tile_size: Some(7),
            ..Default::default()
        };
        assert_eq!(c.resolved_threads(), 3);
        assert_eq!(c.resolved_tile_size(100, 1), 7);
        let auto = InferenceConfig::default();
        assert!(auto.resolved_threads() >= 1);
        let t = auto.resolved_tile_size(1000, 3_137);
        assert!((4..=1000).contains(&t));
    }

    #[test]
    fn the_cache_rule_keeps_its_tile_edges() {
        // (genes, samples, order) → tile edge: a multiple of the block
        // width that fits the worker budget, at most ⌈genes/8⌉, at least
        // one block, at most every gene.
        for (genes, samples, order, tile) in [
            (2, 20, 3, 2),
            (12, 3_000, 3, 4),
            (40, 120, 3, 4),
            (64, 3_137, 3, 8),
            (128, 3_137, 3, 12),
            (160, 3_137, 3, 12),
            (256, 3_137, 3, 12),
            (2_048, 64, 3, 256),
            (15_575, 3_137, 3, 12),
            (15_575, 20_000, 3, 4),
            (500, 300, 1, 60),
            (500, 300, 4, 63),
            (500, 300, 8, 63),
        ] {
            let config = InferenceConfig {
                spline_order: order,
                ..InferenceConfig::default()
            };
            let at = format!("{genes} genes × {samples} samples, order {order}");
            assert_eq!(config.resolved_tile_size(genes, samples), tile, "{at}");
        }
    }

    #[test]
    fn the_cache_rule_fits_its_worker_budget() {
        let config = InferenceConfig::default();
        // Up to about 4,000 samples at k = 3; above that one block of
        // four dense genes alone outgrows the budget and the rule keeps
        // one block.
        for samples in [64, 1_000, 3_137] {
            let plan = MemoryPlan::new(&config, 100_000, samples);
            let tile = config.resolved_tile_size(100_000, samples);
            assert!(
                plan.per_thread_tile_bytes(tile) <= TILE_WORKER_BYTES,
                "{samples}"
            );
            assert!(
                plan.per_thread_tile_bytes(tile + 4) > TILE_WORKER_BYTES,
                "{samples}: the largest multiple of 4"
            );
        }
    }
}
