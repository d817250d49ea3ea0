//! Pipeline configuration.

use gnet_bspline::MAX_ORDER;
use gnet_mi::MiKernel;
use gnet_parallel::SchedulerPolicy;
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

    /// Resolved tile size for `genes` genes of `samples` samples: the L2
    /// blocking rule with a 512 KiB default share, over the bytes of one
    /// prepared gene of this spline order, `m·(2 + 4k) + 8` (a first bin
    /// and `k` weights per sample, and the marginal entropy).
    pub fn resolved_tile_size(&self, genes: usize, samples: usize) -> usize {
        self.tile_size.unwrap_or_else(|| {
            let gene_bytes = samples * (2 + 4 * self.spline_order) + 8;
            gnet_parallel::TileSpace::tile_size_for_cache(genes, gene_bytes, 512 * 1024).min(genes)
        })
    }
}

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
    fn the_cache_rule_sizes_tiles_as_a_prepared_gene_does() {
        // (genes, samples, order) → tile edge: the rule over a prepared
        // gene's own byte count, `gnet_mi::PreparedGene::heap_bytes`.
        let basis = |k| gnet_bspline::BsplineBasis::new(k, 10);
        for (genes, samples, order, tile) in [
            (2, 20, 3, 2),
            (12, 3_000, 3, 6),
            (40, 120, 3, 40),
            (128, 3_137, 3, 5),
            (256, 3_137, 3, 5),
            (2_048, 64, 3, 289),
            (15_575, 3_137, 3, 5),
            (500, 300, 1, 144),
            (500, 300, 8, 25),
        ] {
            let config = InferenceConfig {
                spline_order: order,
                ..InferenceConfig::default()
            };
            let profile: Vec<f32> = (0..samples).map(|s| (s * 7 % 13) as f32).collect();
            let gene = gnet_mi::prepare_gene(&profile, &basis(order));
            let by_gene =
                gnet_parallel::TileSpace::tile_size_for_cache(genes, gene.heap_bytes(), 512 * 1024)
                    .min(genes);
            let at = format!("{genes} genes × {samples} samples, order {order}");
            assert_eq!(config.resolved_tile_size(genes, samples), by_gene, "{at}");
            assert_eq!(by_gene, tile, "{at}");
        }
    }
}
