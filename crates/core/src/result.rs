//! Pipeline output types.

use crate::scan::NullScan;
use gnet_graph::GeneNetwork;
use gnet_parallel::ExecutionReport;
use serde::{Deserialize, Serialize};
use std::time::Duration;

/// Statistics of one inference run, for the evaluation harness.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct RunStats {
    /// Wall time of preprocessing + per-gene preparation.
    pub prep_time: Duration,
    /// Wall time of the tiled pairwise MI stage.
    pub mi_time: Duration,
    /// Wall time of thresholding + network assembly.
    pub finalize_time: Duration,
    /// Total pairs evaluated.
    pub pairs: u64,
    /// Pairs that beat all of their own permutation nulls (candidates).
    pub candidates: u64,
    /// Joint-entropy evaluations performed in the MI stage (the exact
    /// strategy does `pairs × (q + 1)`; early exit does far fewer).
    pub joints_evaluated: u64,
    /// The global threshold `I*` applied (nats).
    pub threshold: f64,
    /// Pooled-null mean (nats).
    pub null_mean: f64,
    /// Pooled-null standard deviation (nats).
    pub null_sd: f64,
    /// Tile size used.
    pub tile_size: usize,
    /// Threads used.
    pub threads: usize,
    /// Per-thread scheduling statistics of the MI stage.
    pub execution: ExecutionReport,
}

impl RunStats {
    /// Pairs per second through the MI stage.
    pub fn pair_rate(&self) -> f64 {
        let secs = self.mi_time.as_secs_f64();
        if secs > 0.0 {
            self.pairs as f64 / secs
        } else {
            0.0
        }
    }

    /// Total wall time of the run.
    pub fn total_time(&self) -> Duration {
        self.prep_time + self.mi_time + self.finalize_time
    }
}

/// The pipeline's complete output.
#[derive(Clone, Debug)]
pub struct InferenceResult {
    /// The inferred significant-MI network.
    pub network: GeneNetwork,
    /// Run statistics.
    pub stats: RunStats,
    /// The evidence the network was drawn from: the pooled null, joint
    /// count and `(i, j)`-sorted candidates over every pair. An exact run's
    /// evidence is what a [`crate::NetworkState`] keeps; under early exit
    /// it holds the pre-pass's pooled null and the surviving pairs only.
    pub scan: NullScan,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pair_rate_handles_zero_time() {
        let s = RunStats::default();
        assert_eq!(s.pair_rate(), 0.0);
    }

    #[test]
    fn totals_add_up() {
        let s = RunStats {
            prep_time: Duration::from_millis(10),
            mi_time: Duration::from_millis(100),
            finalize_time: Duration::from_millis(5),
            pairs: 1000,
            ..Default::default()
        };
        assert_eq!(s.total_time(), Duration::from_millis(115));
        assert!((s.pair_rate() - 10_000.0).abs() < 1.0);
    }
}
