//! The tiled, multithreaded inference pipeline.

use crate::config::{InferenceConfig, NullStrategy};
use crate::result::{InferenceResult, RunStats};
use gnet_bspline::{BsplineBasis, DenseWeights};
use gnet_expr::ExpressionMatrix;
use gnet_graph::{Edge, GeneNetwork};
use gnet_mi::{mi_with_nulls, prepare_gene, MiKernel, MiScratch, PlannedRow, PreparedGene};
use gnet_parallel::{execute_tiles_traced, Tile, TileSpace};
use gnet_permute::{PermutationSet, PooledNull};
use gnet_trace::Recorder;
use std::time::Instant;

/// A pair that beat all of its own permutation nulls, awaiting the global
/// threshold.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Candidate {
    pub(crate) i: u32,
    pub(crate) j: u32,
    pub(crate) observed: f64,
}

/// Per-thread worker state: kernel scratch (which holds the current tile
/// row's plan), the mergeable pooled-null accumulator, and this thread's
/// candidate edges.
pub(crate) struct ThreadState {
    pub(crate) scratch: MiScratch,
    pub(crate) pooled: PooledNull,
    pub(crate) candidates: Vec<Candidate>,
    pub(crate) joints: u64,
}

impl ThreadState {
    /// Fresh state around a kernel scratch (in-memory and checkpointed
    /// runs share this worker).
    pub(crate) fn new(scratch: MiScratch) -> Self {
        Self {
            scratch,
            pooled: PooledNull::new(),
            candidates: Vec::new(),
            joints: 0,
        }
    }
}

/// SplitMix64 — a tiny seeded generator for the threshold pre-pass pair
/// sampling (keeps `gnet-core` free of an RNG dependency).
pub(crate) struct SplitMix64(pub(crate) u64);

impl SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw from `0..bound` via rejection sampling. The old `%`
    /// reduction was modulo-biased: whenever `2^64 % bound != 0`, the
    /// low residues were drawn more often, skewing the pre-pass pair
    /// sample. Rejecting the first `2^64 mod bound` raw values leaves an
    /// exact multiple of `bound`, so the reduction is exactly uniform;
    /// the rejection probability is `bound / 2^64` per draw, so the loop
    /// terminates after ~1 iteration for any realistic gene count.
    pub(crate) fn below(&mut self, bound: u64) -> u64 {
        let bound = bound.max(1);
        // 2^64 mod bound, computed without 128-bit arithmetic.
        let cutoff = bound.wrapping_neg() % bound;
        loop {
            let x = self.next_u64();
            if x >= cutoff {
                return x % bound;
            }
        }
    }
}

/// Draw `want` *distinct* unordered gene pairs `(i, j)` with `i < j` from
/// `n` genes, uniformly. The old pre-pass drew pairs independently and
/// could sample the same unordered pair twice, double-weighting its nulls
/// in the pooled estimate; drawn pairs are now deduplicated. The caller
/// must keep `want <= n(n−1)/2` or the loop could not terminate — the
/// clamp in [`infer_network`] guarantees it.
pub(crate) fn sample_unique_pairs(rng: &mut SplitMix64, n: u64, want: usize) -> Vec<(u32, u32)> {
    debug_assert!(want as u64 <= n * (n.saturating_sub(1)) / 2);
    let mut seen = std::collections::HashSet::with_capacity(want * 2);
    let mut out = Vec::with_capacity(want);
    while out.len() < want {
        let a = rng.below(n);
        let b = rng.below(n);
        if a == b {
            continue; // rejecting diagonals keeps off-diagonal pairs uniform
        }
        let pair = (a.min(b) as u32, a.max(b) as u32);
        if seen.insert(pair) {
            out.push(pair);
        }
    }
    out
}

/// Estimate the pooled-null threshold from `sample_pairs` randomly drawn
/// pairs with full nulls — the pre-pass of the early-exit strategy. Valid
/// because the rank transform gives every gene the same marginal, so the
/// null MI distribution is pair-independent.
// The pre-pass genuinely consumes eight independent inputs; bundling them
// into a one-shot struct would only rename the argument list.
#[allow(clippy::too_many_arguments)]
fn estimate_threshold(
    prepared: &[PreparedGene],
    perms: &PermutationSet,
    kernel: MiKernel,
    basis: &BsplineBasis,
    sample_pairs: usize,
    total_pairs: u64,
    alpha: f64,
    seed: u64,
) -> (f64, PooledNull) {
    let n = prepared.len() as u64;
    let mut rng = SplitMix64(seed ^ 0xA5A5_5A5A_DEAD_BEEF);
    let mut scratch = MiScratch::for_basis(basis);
    let mut pooled = PooledNull::new();
    for (i, j) in sample_unique_pairs(&mut rng, n, sample_pairs) {
        let (i, j) = (i as usize, j as usize);
        let dense = match kernel {
            MiKernel::VectorDense => Some(prepared[j].to_dense()),
            MiKernel::ScalarSparse => None,
        };
        let res = mi_with_nulls(
            kernel,
            &prepared[i],
            &prepared[j],
            dense.as_ref(),
            perms.as_vecs(),
            &mut scratch,
        );
        pooled.extend(&res.null);
    }
    (pooled.global_threshold(alpha, total_pairs.max(1)), pooled)
}

/// Run the full pipeline over an expression matrix.
///
/// ```
/// use gnet_core::{infer_network, InferenceConfig};
/// use gnet_expr::synth::{coupled_pairs, Coupling};
///
/// // Two genes with a strong planted dependency, plus defaults scaled
/// // down for a doc test.
/// let (matrix, truth) = coupled_pairs(1, 200, Coupling::Linear(0.95), 7);
/// let config = InferenceConfig { permutations: 10, threads: Some(1), ..Default::default() };
/// let result = infer_network(&matrix, &config);
/// assert!(result.network.has_edge(truth[0].0, truth[0].1));
/// ```
///
/// # Panics
/// Panics on invalid configuration (see
/// [`InferenceConfig::validate`]) or on a matrix with fewer than two
/// genes. Matrices with `q > 0` need at least two samples for non-identity
/// permutations to exist.
pub fn infer_network(matrix: &ExpressionMatrix, config: &InferenceConfig) -> InferenceResult {
    infer_network_traced(matrix, config, &Recorder::disabled())
}

/// [`infer_network`] with an instrumentation hook.
///
/// When `rec` is enabled the run records stage spans (`stage.prep`,
/// `stage.mi`, `stage.finalize`), per-tile latency and per-thread claim
/// counters (via the scheduler), and post-merge MI counters (`mi.pairs`,
/// `mi.joints_evaluated`, `mi.candidates`, and under early exit
/// `mi.prepass_pairs` / `mi.early_exit_survivors` / `mi.early_exit_pruned`).
/// A disabled recorder costs one branch per call site.
pub fn infer_network_traced(
    matrix: &ExpressionMatrix,
    config: &InferenceConfig,
    rec: &Recorder,
) -> InferenceResult {
    config.validate();
    assert!(
        matrix.genes() >= 2,
        "need at least two genes to infer a network"
    );

    // ---- Stage 1+2: preprocess and prepare every gene -------------------
    let t0 = Instant::now();
    let span_prep = rec.span("stage.prep");
    let basis = BsplineBasis::new(config.spline_order, config.bins);
    let prepared: Vec<PreparedGene> = (0..matrix.genes())
        .map(|g| prepare_gene(matrix.gene(g), &basis))
        .collect();
    let perms = PermutationSet::generate(matrix.samples(), config.permutations, config.seed);
    drop(span_prep);
    let prep_time = t0.elapsed();

    // ---- Stage 3: tiled pairwise MI + permutation nulls ------------------
    let t1 = Instant::now();
    let span_mi = rec.span("stage.mi");
    let bytes_per_gene = prepared[0].heap_bytes();
    let tile_size = config.resolved_tile_size(matrix.genes(), bytes_per_gene);
    let threads = config.resolved_threads();
    let space = TileSpace::new(matrix.genes(), tile_size);

    // Run-shape stamp: everything offline perf attribution needs to match
    // this run against a calibrated kernel model (see `gnet trace-report`).
    rec.event(
        "run.config",
        &[
            ("genes", matrix.genes().into()),
            ("samples", matrix.samples().into()),
            ("permutations", config.permutations.into()),
            (
                "kernel",
                match config.kernel {
                    MiKernel::ScalarSparse => "scalar",
                    MiKernel::VectorDense => "vector",
                }
                .into(),
            ),
            ("threads", threads.into()),
            ("tile_size", tile_size.into()),
            ("scheduler", config.scheduler.name().into()),
        ],
    );

    // Early-insert filtering: with an explicit threshold the per-pair
    // decision is final, so candidates below it are dropped immediately.
    let explicit_threshold = config.mi_threshold;

    let kernel = config.kernel;
    let strategy = config.null_strategy;
    let prepared_ref = &prepared;
    let perms_ref = &perms;
    let basis_ref = &basis;

    // The early-exit strategy needs the global threshold *before* the main
    // pass: explicit if given, otherwise estimated from sampled pairs.
    let mut prepass_pooled: Option<PooledNull> = None;
    let early_threshold: Option<f64> = match (strategy, explicit_threshold) {
        (NullStrategy::EarlyExit, Some(t)) => Some(t),
        (NullStrategy::EarlyExit, None) => {
            // `.max(2)` must come *before* `.min(total_pairs)`: the old
            // order could force `sample > total_pairs` on a 2-gene matrix,
            // which the deduplicating sampler could never satisfy.
            let sample = config
                .null_sample_pairs
                .max(2)
                .min(space.total_pairs() as usize);
            rec.counter_add("mi.prepass_pairs", sample as u64);
            let (t, pooled) = estimate_threshold(
                &prepared,
                &perms,
                kernel,
                &basis,
                sample,
                space.total_pairs(),
                config.alpha,
                config.seed,
            );
            prepass_pooled = Some(pooled);
            Some(t)
        }
        (NullStrategy::ExactFull, _) => None,
    };

    let (states, execution) = execute_tiles_traced(
        space.tiles(),
        threads,
        config.scheduler,
        |_tid| ThreadState::new(MiScratch::for_basis(basis_ref)),
        |state, tile| match strategy {
            NullStrategy::ExactFull => {
                process_tile(
                    tile,
                    prepared_ref,
                    perms_ref,
                    kernel,
                    explicit_threshold,
                    state,
                );
            }
            NullStrategy::EarlyExit => {
                process_tile_early_exit(
                    tile,
                    prepared_ref,
                    perms_ref,
                    kernel,
                    early_threshold.expect("early-exit threshold resolved above"),
                    state,
                );
            }
        },
        rec,
    );
    drop(span_mi);
    let mi_time = t1.elapsed();

    // ---- Stage 4: pooled threshold + candidate filtering -----------------
    let t2 = Instant::now();
    let span_finalize = rec.span("stage.finalize");
    let mut pooled = prepass_pooled.unwrap_or_default();
    let mut candidates: Vec<Candidate> = Vec::new();
    let mut joints_evaluated = 0u64;
    for s in states {
        pooled.merge(&s.pooled);
        candidates.extend(s.candidates);
        joints_evaluated += s.joints;
    }
    let pairs = space.total_pairs();
    let threshold = match (early_threshold, explicit_threshold) {
        (Some(t), _) => t,
        (None, Some(t)) => t,
        (None, None) => pooled.global_threshold(config.alpha, pairs.max(1)),
    };
    let candidate_count = candidates.len() as u64;

    let edges = candidates
        .into_iter()
        .filter(|c| c.observed > threshold)
        .map(|c| Edge::new(c.i, c.j, c.observed as f32));
    let network = GeneNetwork::from_edges(matrix.genes(), matrix.gene_names().to_vec(), edges);
    if rec.is_enabled() {
        rec.counter_add("mi.pairs", pairs);
        rec.counter_add("mi.joints_evaluated", joints_evaluated);
        rec.counter_add("mi.candidates", candidate_count);
        if matches!(strategy, NullStrategy::EarlyExit) {
            rec.counter_add("mi.early_exit_survivors", candidate_count);
            rec.counter_add("mi.early_exit_pruned", pairs - candidate_count);
        }
        rec.event(
            "pipeline.done",
            &[
                ("pairs", pairs.into()),
                ("edges", (network.edge_count() as u64).into()),
                ("threshold", threshold.into()),
            ],
        );
    }
    drop(span_finalize);
    let finalize_time = t2.elapsed();

    let stats = RunStats {
        prep_time,
        mi_time,
        finalize_time,
        pairs,
        candidates: candidate_count,
        joints_evaluated,
        threshold,
        null_mean: pooled.mean(),
        null_sd: if pooled.count() >= 2 {
            pooled.std_dev()
        } else {
            0.0
        },
        tile_size,
        threads,
        execution,
    };
    InferenceResult { network, stats }
}

/// The tile's column genes expanded into the dense layout, once per tile
/// (vector kernel only; the scalar kernel reads no expansion).
fn dense_columns(tile: &Tile, prepared: &[PreparedGene], kernel: MiKernel) -> Vec<DenseWeights> {
    match kernel {
        MiKernel::VectorDense => (tile.col_start..tile.col_end)
            .map(|j| prepared[j as usize].to_dense())
            .collect(),
        MiKernel::ScalarSparse => Vec::new(),
    }
}

/// Visit the tile's pairs in row-major order through each row gene's
/// [`PlannedRow`], planned once before the row's first pair. The visitor
/// gets the planned row, the pair, and the column gene's dense expansion.
pub(crate) fn for_each_planned_pair(
    tile: &Tile,
    prepared: &[PreparedGene],
    perms: &[Vec<u32>],
    kernel: MiKernel,
    scratch: &mut MiScratch,
    mut visit: impl FnMut(&mut PlannedRow<'_>, u32, u32, Option<&DenseWeights>),
) {
    let dense = dense_columns(tile, prepared, kernel);
    for i in tile.row_start..tile.row_end {
        let cols = tile.row_columns(i);
        if cols.is_empty() {
            continue;
        }
        let mut row = scratch.plan_row(kernel, &prepared[i as usize], perms);
        for j in cols {
            visit(&mut row, i, j, dense.get((j - tile.col_start) as usize));
        }
    }
}

/// Process one tile: expand the tile's column genes into the dense layout
/// once (vector kernel only), plan each row gene once, then evaluate every
/// pair with its nulls.
pub(crate) fn process_tile(
    tile: &Tile,
    prepared: &[PreparedGene],
    perms: &PermutationSet,
    kernel: MiKernel,
    explicit_threshold: Option<f64>,
    state: &mut ThreadState,
) {
    let ThreadState {
        scratch,
        pooled,
        candidates,
        joints,
    } = state;
    for_each_planned_pair(
        tile,
        prepared,
        perms.as_vecs(),
        kernel,
        scratch,
        |row, i, j, y_dense| {
            let res = row.mi_with_nulls(&prepared[j as usize], y_dense);
            *joints += 1 + res.null.len() as u64;
            pooled.extend(&res.null);
            if res.exceed_count() == 0 && explicit_threshold.is_none_or(|t| res.observed > t) {
                candidates.push(Candidate {
                    i,
                    j,
                    observed: res.observed,
                });
            }
        },
    );
}

/// Early-exit tile processing: nulls are skipped below the global
/// threshold and abandoned at the first exceedance, so each row composes
/// only the null lists its pairs reach. No pooled-null accumulation
/// happens here — the threshold was resolved up front.
fn process_tile_early_exit(
    tile: &Tile,
    prepared: &[PreparedGene],
    perms: &PermutationSet,
    kernel: MiKernel,
    threshold: f64,
    state: &mut ThreadState,
) {
    let ThreadState {
        scratch,
        candidates,
        joints,
        ..
    } = state;
    for_each_planned_pair(
        tile,
        prepared,
        perms.as_vecs(),
        kernel,
        scratch,
        |row, i, j, y_dense| {
            let res = row.mi_with_nulls_early_exit(&prepared[j as usize], y_dense, threshold);
            *joints += u64::from(res.joints_evaluated);
            if res.survived {
                candidates.push(Candidate {
                    i,
                    j,
                    observed: res.observed,
                });
            }
        },
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnet_expr::synth::{self, Coupling};
    use gnet_graph::recovery_score;
    use gnet_grnsim::{GrnConfig, SyntheticDataset};
    use gnet_parallel::SchedulerPolicy;

    fn fast_config() -> InferenceConfig {
        InferenceConfig {
            permutations: 12,
            threads: Some(2),
            tile_size: Some(8),
            ..InferenceConfig::default()
        }
    }

    #[test]
    fn recovers_planted_linear_pairs() {
        let (matrix, truth) = synth::coupled_pairs(5, 400, Coupling::Linear(0.9), 3);
        let result = infer_network(&matrix, &fast_config());
        let score = recovery_score(&result.network, &truth);
        assert_eq!(
            score.false_negatives, 0,
            "all strong planted pairs must be found"
        );
        assert!(
            score.precision() > 0.8,
            "at α=0.01 spurious edges must be rare: {:?}",
            result.network.edges()
        );
        assert_eq!(result.stats.pairs, 45);
    }

    #[test]
    fn recovers_nonlinear_pairs_that_pearson_misses() {
        let (matrix, truth) = synth::coupled_pairs(3, 800, Coupling::Quadratic(0.1), 7);
        let result = infer_network(&matrix, &fast_config());
        let score = recovery_score(&result.network, &truth);
        assert_eq!(
            score.false_negatives,
            0,
            "MI must see the quadratic coupling, got {:?}",
            result.network.edges()
        );
    }

    #[test]
    fn independent_data_yields_almost_no_edges() {
        let matrix = synth::independent_gaussian(24, 300, 11);
        let result = infer_network(&matrix, &fast_config());
        // 276 pairs at family-wise α=0.01 ⇒ expected false edges « 1;
        // allow a couple for the normal-tail approximation.
        assert!(
            result.network.edge_count() <= 2,
            "independent data produced {} edges",
            result.network.edge_count()
        );
    }

    #[test]
    fn all_schedulers_and_kernels_agree_on_the_network() {
        let (matrix, _) = synth::coupled_pairs(4, 300, Coupling::Linear(0.85), 5);
        let reference = infer_network(&matrix, &fast_config());
        for policy in SchedulerPolicy::ALL {
            for kernel in [MiKernel::ScalarSparse, MiKernel::VectorDense] {
                let cfg = InferenceConfig {
                    scheduler: policy,
                    kernel,
                    threads: Some(3),
                    tile_size: Some(3),
                    ..fast_config()
                };
                let run = infer_network(&matrix, &cfg);
                assert_eq!(
                    run.network.edges().len(),
                    reference.network.edges().len(),
                    "{policy:?}/{kernel:?} changed the edge count"
                );
                for (a, b) in run.network.edges().iter().zip(reference.network.edges()) {
                    assert_eq!(a.key(), b.key(), "{policy:?}/{kernel:?} changed the edges");
                    assert!(
                        (a.weight - b.weight).abs() < 1e-3,
                        "{policy:?}/{kernel:?} changed a weight: {} vs {}",
                        a.weight,
                        b.weight
                    );
                }
            }
        }
    }

    #[test]
    fn tile_shape_and_threads_do_not_change_a_single_bit() {
        // Row plans are rebuilt per tile row, so the tile shape decides how
        // often a gene is planned — never what its pairs compute. An
        // explicit threshold keeps the (merge-order dependent) pooled null
        // out of the comparison.
        let (matrix, _) = synth::coupled_pairs(6, 150, Coupling::Linear(0.8), 29);
        let run = |tile_size, threads| {
            let cfg = InferenceConfig {
                permutations: 8,
                mi_threshold: Some(0.02),
                tile_size,
                threads: Some(threads),
                ..InferenceConfig::default()
            };
            let r = infer_network(&matrix, &cfg);
            let mut bytes = Vec::new();
            gnet_graph::io::write_edge_list(&r.network, &mut bytes).expect("in-memory write");
            (bytes, r.stats.threshold.to_bits(), r.stats.joints_evaluated)
        };
        let reference = run(Some(1), 1);
        assert!(!reference.0.is_empty());
        for tile_size in [Some(1), Some(5), None] {
            for threads in [1, 2] {
                assert_eq!(
                    run(tile_size, threads),
                    reference,
                    "tile {tile_size:?} × {threads} threads"
                );
            }
        }
    }

    #[test]
    fn deterministic_across_runs_with_fixed_seed() {
        let (matrix, _) = synth::coupled_pairs(3, 200, Coupling::Linear(0.8), 9);
        let a = infer_network(&matrix, &fast_config());
        let b = infer_network(&matrix, &fast_config());
        assert_eq!(a.network, b.network);
        assert_eq!(a.stats.threshold, b.stats.threshold);
    }

    #[test]
    fn explicit_threshold_mode_without_permutations() {
        let (matrix, truth) = synth::coupled_pairs(4, 300, Coupling::Linear(0.95), 2);
        let cfg = InferenceConfig {
            permutations: 0,
            mi_threshold: Some(0.25),
            ..fast_config()
        };
        let result = infer_network(&matrix, &cfg);
        assert_eq!(result.stats.threshold, 0.25);
        let score = recovery_score(&result.network, &truth);
        assert_eq!(score.false_negatives, 0);
    }

    #[test]
    fn stats_are_populated() {
        let (matrix, _) = synth::coupled_pairs(4, 200, Coupling::Linear(0.9), 4);
        let r = infer_network(&matrix, &fast_config());
        assert_eq!(r.stats.pairs, 28);
        assert!(r.stats.candidates >= r.network.edge_count() as u64);
        assert!(r.stats.null_sd > 0.0);
        assert!(r.stats.threshold > r.stats.null_mean);
        assert_eq!(r.stats.threads, 2);
        assert_eq!(r.stats.tile_size, 8);
        assert!(r.stats.pair_rate() > 0.0);
        assert_eq!(r.stats.execution.total_pairs(), 28);
    }

    #[test]
    fn gene_names_propagate_to_the_network() {
        let mut matrix = synth::independent_uniform(3, 50, 1);
        matrix
            .set_gene_names(vec!["AT1G1".into(), "AT1G2".into(), "AT1G3".into()])
            .unwrap();
        let r = infer_network(&matrix, &fast_config());
        assert_eq!(r.network.gene_names(), matrix.gene_names());
    }

    #[test]
    fn works_on_mechanistic_grn_data() {
        let ds = SyntheticDataset::generate(
            GrnConfig {
                genes: 40,
                samples: 300,
                ..GrnConfig::small()
            },
            21,
        );
        let r = infer_network(&ds.matrix, &fast_config());
        let score = recovery_score(&r.network, &ds.truth_edges());
        // Mechanistic data is harder than clean coupled pairs: a relevance
        // network legitimately reports indirect (2-hop) dependencies as
        // edges, so raw precision is modest by design — what must hold is
        // meaningful recall, precision far above chance (density ≈ 0.05
        // would be chance-level here), and that DPI pruning trades recall
        // for precision as the ARACNE lineage predicts.
        assert!(score.recall() > 0.3, "recall {}", score.recall());
        assert!(score.precision() > 0.12, "precision {}", score.precision());

        let pruned = gnet_graph::dpi::dpi_prune(&r.network, 0.05);
        let pruned_score = recovery_score(&pruned, &ds.truth_edges());
        assert!(
            pruned_score.precision() > score.precision(),
            "DPI must raise precision: {} → {}",
            score.precision(),
            pruned_score.precision()
        );
    }

    #[test]
    fn early_exit_matches_exact_given_the_same_threshold() {
        let (matrix, _) = synth::coupled_pairs(5, 300, Coupling::Linear(0.85), 41);
        let exact = InferenceConfig {
            mi_threshold: Some(0.08),
            ..fast_config()
        };
        let early = InferenceConfig {
            null_strategy: crate::config::NullStrategy::EarlyExit,
            ..exact
        };
        let a = infer_network(&matrix, &exact);
        let b = infer_network(&matrix, &early);
        assert_eq!(a.network.edges().len(), b.network.edges().len());
        for (x, y) in a.network.edges().iter().zip(b.network.edges()) {
            assert_eq!(x.key(), y.key());
            assert!((x.weight - y.weight).abs() < 1e-6);
        }
        assert!(
            b.stats.joints_evaluated * 2 < a.stats.joints_evaluated,
            "early exit must at least halve the work: {} vs {}",
            b.stats.joints_evaluated,
            a.stats.joints_evaluated
        );
        assert_eq!(a.stats.joints_evaluated, a.stats.pairs * 13); // q=12 → 13 joints
    }

    #[test]
    fn early_exit_with_estimated_threshold_recovers_planted_pairs() {
        let (matrix, truth) = synth::coupled_pairs(5, 400, Coupling::Linear(0.9), 19);
        let cfg = InferenceConfig {
            null_strategy: crate::config::NullStrategy::EarlyExit,
            null_sample_pairs: 30,
            ..fast_config()
        };
        let r = infer_network(&matrix, &cfg);
        let score = recovery_score(&r.network, &truth);
        assert_eq!(score.false_negatives, 0, "edges: {:?}", r.network.edges());
        assert!(score.precision() > 0.8);
        assert!(
            r.stats.threshold > 0.0,
            "pre-pass must have produced a threshold"
        );
        assert!(
            r.stats.null_sd > 0.0,
            "pre-pass pooled stats must be recorded"
        );
    }

    #[test]
    fn early_exit_controls_false_positives_on_null_data() {
        let matrix = synth::independent_gaussian(24, 300, 911);
        let cfg = InferenceConfig {
            null_strategy: crate::config::NullStrategy::EarlyExit,
            null_sample_pairs: 60,
            ..fast_config()
        };
        let r = infer_network(&matrix, &cfg);
        assert!(
            r.network.edge_count() <= 2,
            "{} false edges under early exit",
            r.network.edge_count()
        );
    }

    #[test]
    #[should_panic(expected = "at least two genes")]
    fn single_gene_matrix_rejected() {
        let matrix = synth::independent_uniform(1, 50, 1);
        let _ = infer_network(&matrix, &fast_config());
    }

    // --- PRNG / pre-pass sampling regressions ---------------------------

    #[test]
    fn below_is_unbiased_at_large_bounds() {
        // With bound = 3·2^62, the raw modulo reduction maps the first
        // 2^62 residues twice and the rest once, so P(x < 2^62) ≈ 1/2
        // under the old biased code but exactly 1/3 under rejection
        // sampling. 20k draws separate the two decisively.
        let bound = 3u64 << 62;
        let mark = 1u64 << 62;
        let mut rng = SplitMix64(42);
        let draws = 20_000;
        let mut low = 0u64;
        for _ in 0..draws {
            let x = rng.below(bound);
            assert!(x < bound);
            if x < mark {
                low += 1;
            }
        }
        let frac = low as f64 / draws as f64;
        assert!(
            (frac - 1.0 / 3.0).abs() < 0.02,
            "rejection sampling must hit the low third ~1/3 of the time, got {frac}"
        );
    }

    #[test]
    fn below_stays_in_range_for_small_bounds() {
        let mut rng = SplitMix64(7);
        for bound in [1u64, 2, 3, 5, 17, 244] {
            for _ in 0..1_000 {
                assert!(rng.below(bound) < bound);
            }
        }
        // bound 0 is clamped to 1 rather than dividing by zero.
        assert_eq!(rng.below(0), 0);
    }

    #[test]
    fn sampled_prepass_pairs_are_distinct_and_in_range() {
        // 8 genes → 28 unordered pairs; ask for all of them. Any duplicate
        // draw (the old pre-pass bug) would loop forever or repeat a pair.
        let mut rng = SplitMix64(1234);
        let pairs = sample_unique_pairs(&mut rng, 8, 28);
        assert_eq!(pairs.len(), 28);
        let mut seen = std::collections::HashSet::new();
        for &(i, j) in &pairs {
            assert!(i < j, "pairs must be normalized to i < j: ({i}, {j})");
            assert!(j < 8);
            assert!(seen.insert((i, j)), "duplicate pair ({i}, {j})");
        }
    }

    #[test]
    fn pair_sampling_is_roughly_uniform() {
        // Draw 5 of 45 pairs many times and check that every pair is hit
        // with a frequency close to 5/45 = 1/9.
        let mut counts = std::collections::HashMap::new();
        let rounds = 9_000;
        for seed in 0..rounds {
            let mut rng = SplitMix64(seed);
            for pair in sample_unique_pairs(&mut rng, 10, 5) {
                *counts.entry(pair).or_insert(0u64) += 1;
            }
        }
        assert_eq!(counts.len(), 45, "every pair must eventually be drawn");
        let expect = rounds as f64 * 5.0 / 45.0;
        for (pair, count) in counts {
            let ratio = count as f64 / expect;
            assert!(
                (0.8..1.2).contains(&ratio),
                "pair {pair:?} drawn {count} times, expected ≈{expect}"
            );
        }
    }

    #[test]
    fn early_exit_on_two_gene_matrix_terminates() {
        // Regression for the clamp order: total_pairs = 1 but the old code
        // forced sample ≥ 2, which the dedupe sampler can never satisfy.
        let (matrix, _) = synth::coupled_pairs(1, 100, Coupling::Linear(0.9), 3);
        let cfg = InferenceConfig {
            null_strategy: crate::config::NullStrategy::EarlyExit,
            null_sample_pairs: 50,
            ..fast_config()
        };
        let r = infer_network(&matrix, &cfg);
        assert_eq!(r.stats.pairs, 1);
    }

    // --- tracing --------------------------------------------------------

    #[test]
    fn traced_run_records_stages_counters_and_tiles() {
        let (matrix, _) = synth::coupled_pairs(4, 200, Coupling::Linear(0.9), 4);
        let rec = Recorder::enabled();
        let r = infer_network_traced(&matrix, &fast_config(), &rec);
        assert_eq!(rec.counter("mi.pairs"), Some(28));
        assert_eq!(
            rec.counter("mi.joints_evaluated"),
            Some(r.stats.joints_evaluated)
        );
        assert_eq!(rec.counter("mi.candidates"), Some(r.stats.candidates));
        let hist = rec
            .histogram(gnet_parallel::HIST_TILE_US)
            .expect("tile histogram must be recorded");
        assert_eq!(hist.count(), r.stats.execution.total_tiles() as u64);
        assert!(rec.span_count() >= 3, "three stage spans expected");
    }

    #[test]
    fn disabled_recorder_changes_nothing() {
        let (matrix, _) = synth::coupled_pairs(3, 200, Coupling::Linear(0.8), 9);
        let a = infer_network(&matrix, &fast_config());
        let b = infer_network_traced(&matrix, &fast_config(), &Recorder::disabled());
        assert_eq!(a.network, b.network);
        assert_eq!(a.stats.threshold, b.stats.threshold);
    }
}
