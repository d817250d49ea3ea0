//! Host-measured experiment drivers (real kernels, real threads).
//!
//! These complement the modeled series from `gnet-phi`: everything here
//! actually executes the pipeline on this machine. Sizes are chosen so the
//! full `repro` sweep finishes in minutes on one core; the experiment ids
//! (R…) refer to DESIGN.md §4.

use gnet_core::baselines;
use gnet_core::{infer_network, infer_network_traced, InferenceConfig, RunStats};
use gnet_expr::ExpressionMatrix;
use gnet_graph::dpi::dpi_prune;
use gnet_graph::recovery_score;
use gnet_grnsim::{GrnConfig, SyntheticDataset};
use gnet_mi::MiKernel;
use gnet_parallel::SchedulerPolicy;
use gnet_phi::calibrate::{measure_kernel, KernelRate};
use gnet_phi::KernelClass;
use gnet_trace::Recorder;

/// Deterministic matrix used by the measured performance experiments
/// (contents do not affect kernel cost — only the shape does).
pub fn perf_matrix(genes: usize, samples: usize) -> ExpressionMatrix {
    gnet_expr::synth::independent_gaussian(genes, samples, 0x00BE_7C11)
}

/// Performance-measurement config: fixed explicit threshold (so edge
/// bookkeeping cost is negligible), `q` nulls, explicit threads/tile.
pub fn perf_config(q: usize, threads: usize, tile: usize, kernel: MiKernel) -> InferenceConfig {
    InferenceConfig {
        permutations: q,
        mi_threshold: Some(0.15),
        threads: Some(threads),
        tile_size: Some(tile),
        kernel,
        ..InferenceConfig::default()
    }
}

/// Run one instrumented inference on the deterministic perf matrix and
/// record into `rec` — the measured counterpart of `gnet infer --metrics`.
/// The `repro` harness uses this to emit the same metrics-JSON schema the
/// CLI produces, so CI can archive one artifact format from either path.
pub fn instrumented_inference(
    genes: usize,
    samples: usize,
    q: usize,
    threads: usize,
    rec: &Recorder,
) -> RunStats {
    let matrix = perf_matrix(genes, samples);
    let cfg = perf_config(q, threads, 16, MiKernel::VectorDense);
    infer_network_traced(&matrix, &cfg, rec).stats
}

/// R1 (host row) — measure the vector kernel at the paper's exact
/// per-pair shape (m = 3,137, q) and project the single-thread wall time
/// of the full 15,575-gene run.
pub fn host_headline_projection(q: usize) -> (KernelRate, f64) {
    let rate = measure_kernel(KernelClass::VectorDense, 3_137, q, 12, 48);
    let pairs = 15_575u64 * 15_574 / 2;
    let hours = rate.seconds_for_pairs(pairs) / 3600.0;
    (rate, hours)
}

/// R4 (host rows) — measured scalar vs vector kernel rate at the paper's
/// sample count.
pub fn host_vectorization(q: usize) -> (KernelRate, KernelRate, f64) {
    let scalar = measure_kernel(KernelClass::ScalarSparse, 3_137, q, 12, 32);
    let vector = measure_kernel(KernelClass::VectorDense, 3_137, q, 12, 32);
    let ratio = scalar.ns_per_pair / vector.ns_per_pair;
    (scalar, vector, ratio)
}

/// R5 (host rows) — measured MI-stage seconds vs gene count.
pub fn host_gene_sweep(gene_counts: &[usize], samples: usize, q: usize) -> Vec<(usize, f64)> {
    gene_counts
        .iter()
        .map(|&n| {
            let matrix = perf_matrix(n, samples);
            let cfg = perf_config(q, 1, 32, MiKernel::VectorDense);
            let r = infer_network(&matrix, &cfg);
            (n, r.stats.mi_time.as_secs_f64())
        })
        .collect()
}

/// R6 (host rows) — measured MI-stage seconds vs sample count.
pub fn host_sample_sweep(genes: usize, sample_counts: &[usize], q: usize) -> Vec<(usize, f64)> {
    sample_counts
        .iter()
        .map(|&m| {
            let matrix = perf_matrix(genes, m);
            let cfg = perf_config(q, 1, 32, MiKernel::VectorDense);
            let r = infer_network(&matrix, &cfg);
            (m, r.stats.mi_time.as_secs_f64())
        })
        .collect()
}

/// R7 (host rows) — measured scheduling policies: `(policy, mi seconds,
/// imbalance)`.
pub fn host_schedulers(
    genes: usize,
    samples: usize,
    q: usize,
    threads: usize,
) -> Vec<(String, f64, f64)> {
    let matrix = perf_matrix(genes, samples);
    SchedulerPolicy::ALL
        .into_iter()
        .map(|policy| {
            let cfg = InferenceConfig {
                scheduler: policy,
                ..perf_config(q, threads, 16, MiKernel::VectorDense)
            };
            let r = infer_network(&matrix, &cfg);
            (
                policy.name().to_string(),
                r.stats.mi_time.as_secs_f64(),
                r.stats.execution.imbalance(),
            )
        })
        .collect()
}

/// R8 (host rows) — measured MI-stage seconds per tile size.
pub fn host_tile_sweep(
    genes: usize,
    samples: usize,
    q: usize,
    tile_sizes: &[usize],
) -> Vec<(usize, f64, f64)> {
    let matrix = perf_matrix(genes, samples);
    tile_sizes
        .iter()
        .map(|&t| {
            let cfg = perf_config(q, 1, t, MiKernel::VectorDense);
            let r = infer_network(&matrix, &cfg);
            (t, r.stats.mi_time.as_secs_f64(), r.stats.pair_rate())
        })
        .collect()
}

/// One row of the R10 accuracy experiment.
#[derive(Clone, Debug)]
pub struct AccuracyRow {
    /// Samples used.
    pub samples: usize,
    /// Edges inferred.
    pub edges: usize,
    /// Precision of the raw relevance network.
    pub precision: f64,
    /// Recall of the raw relevance network.
    pub recall: f64,
    /// F1 of the raw relevance network.
    pub f1: f64,
    /// Precision after DPI pruning (ε = 0.05).
    pub dpi_precision: f64,
    /// Recall after DPI pruning.
    pub dpi_recall: f64,
}

/// R10 — statistical recovery vs sample count on mechanistic GRN data with
/// known ground truth.
pub fn accuracy_vs_samples(genes: usize, sample_counts: &[usize], q: usize) -> Vec<AccuracyRow> {
    sample_counts
        .iter()
        .map(|&m| {
            let ds = SyntheticDataset::generate(
                GrnConfig {
                    genes,
                    samples: m,
                    ..GrnConfig::small()
                },
                1717,
            );
            let cfg = InferenceConfig {
                permutations: q,
                threads: Some(1),
                tile_size: Some(16),
                ..InferenceConfig::default()
            };
            let r = infer_network(&ds.matrix, &cfg);
            let truth = ds.truth_edges();
            let raw = recovery_score(&r.network, &truth);
            let pruned = dpi_prune(&r.network, 0.05);
            let dpi = recovery_score(&pruned, &truth);
            AccuracyRow {
                samples: m,
                edges: r.network.edge_count(),
                precision: raw.precision(),
                recall: raw.recall(),
                f1: raw.f1(),
                dpi_precision: dpi.precision(),
                dpi_recall: dpi.recall(),
            }
        })
        .collect()
}

/// R11 — early-exit ablation: run the identical inference with the exact
/// and the early-exit null strategies and report work + wall time. Rows:
/// `(strategy, joints evaluated, mi seconds, edges)`.
pub fn early_exit_ablation(
    genes: usize,
    samples: usize,
    q: usize,
) -> Vec<(String, u64, f64, usize)> {
    use gnet_core::config::NullStrategy;
    let ds = SyntheticDataset::generate(
        GrnConfig {
            genes,
            samples,
            ..GrnConfig::small()
        },
        2024,
    );
    let base = InferenceConfig {
        permutations: q,
        threads: Some(1),
        tile_size: Some(24),
        ..InferenceConfig::default()
    };
    let mut rows = Vec::new();
    for (name, strategy) in [
        ("exact-full", NullStrategy::ExactFull),
        ("early-exit", NullStrategy::EarlyExit),
    ] {
        let cfg = InferenceConfig {
            null_strategy: strategy,
            null_sample_pairs: 200,
            ..base
        };
        let r = infer_network(&ds.matrix, &cfg);
        rows.push((
            name.to_string(),
            r.stats.joints_evaluated,
            r.stats.mi_time.as_secs_f64(),
            r.network.edge_count(),
        ));
    }
    rows
}

/// Method-comparison row for the extension experiment: MI pipeline vs
/// Pearson vs histogram on nonlinearly coupled data.
pub fn method_comparison(samples: usize) -> Vec<(String, f64, f64)> {
    let (matrix, truth) = gnet_expr::synth::coupled_pairs(
        6,
        samples,
        gnet_expr::synth::Coupling::Quadratic(0.15),
        88,
    );
    let mut rows = Vec::new();

    let cfg = InferenceConfig {
        permutations: 20,
        threads: Some(1),
        ..InferenceConfig::default()
    };
    let mi = infer_network(&matrix, &cfg);
    let s = recovery_score(&mi.network, &truth);
    rows.push(("bspline-mi".to_string(), s.precision(), s.recall()));

    let hist = baselines::histogram_network(&matrix, 10, 0.25);
    let s = recovery_score(&hist, &truth);
    rows.push(("histogram-mi".to_string(), s.precision(), s.recall()));

    let pearson = baselines::pearson_network(&matrix, 0.5);
    let s = recovery_score(&pearson, &truth);
    rows.push(("pearson".to_string(), s.precision(), s.recall()));

    let clr = baselines::clr_network(&matrix, 10, 3, 3.0);
    let s = recovery_score(&clr, &truth);
    rows.push(("clr".to_string(), s.precision(), s.recall()));

    rows
}

/// R13 — estimator bias against the bivariate-Gaussian closed form
/// `I = −½ ln(1 − ρ²)`. Rows: `(ρ, exact, bspline, histogram, ksg)`.
pub fn estimator_bias(samples: usize, rhos: &[f32]) -> Vec<(f32, f64, f64, f64, f64)> {
    use gnet_bspline::BsplineBasis;
    use gnet_expr::normalize::rank_transform_profile;
    use gnet_mi::histogram::HistogramEstimator;
    use gnet_mi::{entropy_nats, KsgEstimator};
    use rand_free_gaussian as gauss;

    let basis = BsplineBasis::tinge_default();
    let hist = HistogramEstimator::new(10);
    let ksg = KsgEstimator::default();
    rhos.iter()
        .map(|&rho| {
            let (x, y) = gauss(rho, samples, 20_26);
            let exact = -0.5 * (1.0 - (rho as f64).powi(2)).ln();

            let rx = rank_transform_profile(&x);
            let ry = rank_transform_profile(&y);
            let sx = gnet_bspline::SparseWeights::from_normalized(&rx, &basis);
            let sy = gnet_bspline::SparseWeights::from_normalized(&ry, &basis);
            let hx = entropy_nats(&sx.marginal());
            let hy = entropy_nats(&sy.marginal());
            let mut grid = vec![0.0; 100];
            let spline = gnet_mi::sparse_kernel::mi(&sx, &sy, hx, hy, &mut grid);

            let histogram = hist.mi(&rx, &ry);
            let knn = ksg.mi(&x, &y);
            (rho, exact, spline, histogram, knn)
        })
        .collect()
}

/// Correlated Gaussian pair without an RNG dependency in the signature
/// (SplitMix-based Box–Muller).
fn rand_free_gaussian(rho: f32, m: usize, seed: u64) -> (Vec<f32>, Vec<f32>) {
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) as f64 / u64::MAX as f64
    };
    // cast-ok: benchmark fixtures are f32 like real expression data.
    #[allow(clippy::cast_possible_truncation)]
    let mut normal = move || {
        let u1 = next().max(f64::MIN_POSITIVE);
        let u2 = next();
        ((-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()) as f32
    };
    let mut x = Vec::with_capacity(m);
    let mut y = Vec::with_capacity(m);
    for _ in 0..m {
        let a = normal();
        let e = normal();
        x.push(a);
        y.push(rho * a + (1.0 - rho * rho).sqrt() * e);
    }
    (x, y)
}

/// R11b — distributed run over the simulated cluster: `(ranks, pairs per
/// rank max/min, bytes shipped, edges)` plus equivalence with the shared-
/// memory result.
pub fn cluster_rows(
    genes: usize,
    samples: usize,
    q: usize,
) -> Vec<(usize, u64, u64, u64, usize, bool)> {
    let ds = SyntheticDataset::generate(
        GrnConfig {
            genes,
            samples,
            ..GrnConfig::small()
        },
        515,
    );
    let cfg = InferenceConfig {
        permutations: q,
        threads: Some(1),
        tile_size: Some(16),
        ..InferenceConfig::default()
    };
    let shared = infer_network(&ds.matrix, &cfg);
    let shared_keys: Vec<_> = shared.network.edges().iter().map(|e| e.key()).collect();
    [1usize, 2, 4, 8]
        .into_iter()
        .map(|ranks| {
            let run = gnet_cluster::RankRun::new(ranks);
            let r = gnet_cluster::infer_network_distributed(&ds.matrix, &cfg, &run)
                .unwrap_or_else(|e| unreachable!("a fault-free channel ring completes: {e}"));
            let max_pairs = r.rank_stats.iter().map(|s| s.pairs).max().unwrap_or(0);
            let min_pairs = r.rank_stats.iter().map(|s| s.pairs).min().unwrap_or(0);
            let bytes: u64 = r.rank_stats.iter().map(|s| s.bytes_sent).sum();
            let keys: Vec<_> = r.network.edges().iter().map(|e| e.key()).collect();
            (
                ranks,
                max_pairs,
                min_pairs,
                bytes,
                r.network.edge_count(),
                keys == shared_keys,
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tile_sweep_runs_and_covers_sizes() {
        let rows = host_tile_sweep(48, 64, 2, &[4, 16, 48]);
        assert_eq!(rows.len(), 3);
        for (t, secs, rate) in rows {
            assert!(secs > 0.0, "tile {t} took {secs}");
            assert!(rate > 0.0);
        }
    }

    #[test]
    fn instrumented_inference_populates_the_recorder() {
        let rec = Recorder::enabled();
        let stats = instrumented_inference(24, 48, 2, 2, &rec);
        assert_eq!(rec.counter("mi.pairs"), Some(stats.pairs));
        assert!(rec.histogram("scheduler.tile_us").is_some());
        let json = rec.metrics_json();
        assert!(json.contains("\"format\":\"gnet-trace-metrics\""), "{json}");
        assert!(json.contains("stage.mi"), "{json}");
    }

    #[test]
    fn schedulers_cover_all_policies() {
        let rows = host_schedulers(32, 64, 2, 2);
        assert_eq!(rows.len(), SchedulerPolicy::ALL.len());
        let names: Vec<&str> = rows.iter().map(|r| r.0.as_str()).collect();
        assert!(names.contains(&"dynamic"));
    }

    #[test]
    fn accuracy_improves_with_samples() {
        let rows = accuracy_vs_samples(30, &[40, 320], 8);
        assert_eq!(rows.len(), 2);
        assert!(
            rows[1].recall >= rows[0].recall,
            "recall must not degrade with 8× the data: {} → {}",
            rows[0].recall,
            rows[1].recall
        );
    }

    #[test]
    fn method_comparison_shows_mi_advantage_on_nonlinear_data() {
        let rows = method_comparison(500);
        let mi_recall = rows.iter().find(|r| r.0 == "bspline-mi").unwrap().2;
        let pearson_recall = rows.iter().find(|r| r.0 == "pearson").unwrap().2;
        assert!(
            mi_recall > pearson_recall,
            "MI must beat Pearson on quadratic coupling: {mi_recall} vs {pearson_recall}"
        );
    }
}
