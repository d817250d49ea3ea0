//! The tiled, multithreaded inference pipeline.

use crate::checkpoint::{run_digest, run_space, ResumableOutcome};
use crate::config::{InferenceConfig, NullStrategy};
use crate::result::{InferenceResult, RunStats};
use crate::scan::{for_each_planned_block, tile_genes, Checkpoint, Chunking, NullScan, TileScan};
use gnet_bspline::BsplineBasis;
use gnet_expr::ExpressionMatrix;
use gnet_mi::{mi_with_nulls, prepare_gene, MiKernel, MiScratch, PreparedGene};
use gnet_parallel::{execute_tiles_traced, ExecutionReport, Tile, TileSpace};
use gnet_permute::{PermutationSet, PooledNull};
use gnet_trace::Recorder;
use std::ops::Range;
use std::time::{Duration, Instant};

/// Prepare genes `genes` of `matrix` — rank transform, B-spline weights
/// and marginal entropy ([`prepare_gene`]) — on up to `threads` scoped
/// workers, one contiguous share each, in gene order. Every run prepares
/// its genes here: shared-memory runs, the MI matrix, state builds and
/// updates, and the ring's blocks. A prepared gene is a function of its
/// profile alone, so the result is the same at any thread count.
pub fn prepare_genes(
    matrix: &ExpressionMatrix,
    genes: Range<usize>,
    basis: &BsplineBasis,
    threads: usize,
) -> Vec<PreparedGene> {
    let share = genes.len().div_ceil(threads.max(1)).max(1);
    let prepare = |g: Range<usize>| -> Vec<PreparedGene> {
        g.map(|g| prepare_gene(matrix.gene(g), basis)).collect()
    };
    if share >= genes.len() {
        return prepare(genes);
    }
    let end = genes.end;
    std::thread::scope(|s| {
        let workers: Vec<_> = genes
            .step_by(share)
            .map(|start| s.spawn(move || prepare(start..(start + share).min(end))))
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("preparing a finite profile does not panic"))
            .collect()
    })
}

/// Everything a shared-memory run derives from the matrix before any pair
/// is evaluated: the B-spline basis, every prepared gene, the shared
/// permutations, and the tiling.
pub(crate) struct PreparedRun {
    pub(crate) basis: BsplineBasis,
    pub(crate) genes: Vec<PreparedGene>,
    pub(crate) perms: PermutationSet,
    pub(crate) space: TileSpace,
}

impl PreparedRun {
    /// Prepare every gene of `matrix` on the configured threads and tile
    /// the pairs `(i, j)` with `j ≥ first_new` (every pair at 0).
    ///
    /// # Panics
    /// Panics on an invalid configuration, fewer than two genes, or
    /// `first_new` past the last gene.
    pub(crate) fn new(
        matrix: &ExpressionMatrix,
        config: &InferenceConfig,
        first_new: usize,
    ) -> Self {
        let space = run_space(matrix, config, first_new);
        let basis = BsplineBasis::new(config.spline_order, config.bins);
        let genes = prepare_genes(matrix, 0..matrix.genes(), &basis, config.resolved_threads());
        let perms = PermutationSet::generate(matrix.samples(), config.permutations, config.seed);
        Self {
            basis,
            genes,
            perms,
            space,
        }
    }

    /// The exact-null scan of this run's tiles under `config`.
    pub(crate) fn scan<'a>(&'a self, config: &'a InferenceConfig) -> TileScan<'a> {
        TileScan {
            tiles: self.space.tiles(),
            prepared: &self.genes,
            perms: &self.perms,
            basis: &self.basis,
            config,
        }
    }
}

/// Finalize a run: resolve `I*` (`threshold` when given, else the
/// explicit threshold, else the pooled one), apply it, and assemble the
/// statistics and the result, which keeps the evidence. `stage_times`
/// holds the prep and MI stage durations; the finalize stage is timed
/// here.
pub(crate) fn finish_run(
    matrix: &ExpressionMatrix,
    config: &InferenceConfig,
    run: &PreparedRun,
    scan: NullScan,
    threshold: Option<f64>,
    stage_times: [Duration; 2],
    execution: ExecutionReport,
) -> InferenceResult {
    let t0 = Instant::now();
    let pairs = run.space.total_pairs();
    let threshold = scan.threshold(
        threshold.or(config.mi_threshold),
        config.alpha,
        matrix.genes(),
    );
    let network = scan.network(matrix.gene_names(), threshold);
    let stats = RunStats {
        prep_time: stage_times[0],
        mi_time: stage_times[1],
        finalize_time: t0.elapsed(),
        pairs,
        candidates: scan.candidates.len() as u64,
        joints_evaluated: scan.joints,
        threshold,
        null_mean: scan.pooled.mean(),
        null_sd: scan.pooled.std_dev(),
        tile_size: run.space.tile_size(),
        threads: config.resolved_threads(),
        execution,
    };
    InferenceResult {
        network,
        stats,
        scan,
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
fn estimate_threshold(
    run: &PreparedRun,
    config: &InferenceConfig,
    sample_pairs: usize,
) -> (f64, PooledNull) {
    let prepared = &run.genes;
    let mut rng = SplitMix64(config.seed ^ 0xA5A5_5A5A_DEAD_BEEF);
    let mut scratch = MiScratch::for_basis(&run.basis);
    let mut pooled = PooledNull::new();
    for (i, j) in sample_unique_pairs(&mut rng, prepared.len() as u64, sample_pairs) {
        let (i, j) = (i as usize, j as usize);
        let dense = match config.kernel {
            MiKernel::VectorDense => Some(prepared[j].to_dense()),
            MiKernel::ScalarSparse => None,
        };
        let res = mi_with_nulls(
            config.kernel,
            &prepared[i],
            &prepared[j],
            dense.as_ref(),
            run.perms.as_vecs(),
            &mut scratch,
        );
        pooled.extend(&res.null);
    }
    let tests = run.space.total_pairs().max(1);
    (pooled.global_threshold(config.alpha, tests), pooled)
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
    run_pipeline(matrix, config, rec, None)
        .unwrap_or_else(|_| unreachable!("a run without chunking has no checkpoint to stop at"))
}

/// The pipeline every shared-memory run goes through: prepare, scan,
/// finalize, and record the same stages, run shape and counters. With
/// `chunking` the scan runs in chunks of tiles, records one
/// `checkpoint.chunk` event per chunk, and stops with the progress when
/// the callback says so. `stage.mi` and `RunStats::mi_time` leave the
/// callbacks out: they cover the scan only.
///
/// # Panics
/// Panics on config/matrix violations; with `chunking`, also on a
/// non-exact null strategy, a checkpoint of another run or past the tile
/// list, or a zero chunk size.
pub(crate) fn run_pipeline(
    matrix: &ExpressionMatrix,
    config: &InferenceConfig,
    rec: &Recorder,
    chunking: Option<Chunking<'_>>,
) -> ResumableOutcome {
    assert!(
        chunking.is_none() || config.null_strategy == NullStrategy::ExactFull,
        "checkpointing supports the exact null strategy only"
    );

    // ---- Stage 1+2: preprocess and prepare every gene -------------------
    let t0 = Instant::now();
    let span_prep = rec.span("stage.prep");
    let run = PreparedRun::new(matrix, config, 0);
    let total_tiles = run.space.tiles().len();
    let chunked = chunking.map(|c| {
        let digest = run_digest(config, matrix, total_tiles);
        let progress = match c.resume_from {
            Some(cp) => {
                assert_eq!(cp.digest, digest, "checkpoint does not match this run");
                cp
            }
            None => Checkpoint {
                digest,
                tiles_done: 0,
                scan: NullScan::default(),
            },
        };
        (progress, c.chunk_tiles, c.on_checkpoint)
    });
    drop(span_prep);
    let prep_time = t0.elapsed();

    // ---- Stage 3: tiled pairwise MI + permutation nulls ------------------
    let t1 = Instant::now();
    let mut between_chunks = Duration::ZERO;
    let mut span_mi = Some(rec.span("stage.mi"));
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
            ("threads", config.resolved_threads().into()),
            ("tile_size", run.space.tile_size().into()),
            ("scheduler", config.scheduler.name().into()),
        ],
    );
    let (scan, early_threshold, execution) = match (config.null_strategy, chunked) {
        (NullStrategy::EarlyExit, _) => {
            let (scan, threshold, execution) = early_exit_scan(config, &run, rec);
            (scan, Some(threshold), execution)
        }
        (NullStrategy::ExactFull, None) => {
            let (scan, execution) = run.scan(config).run_all(rec);
            (scan, None, execution)
        }
        (NullStrategy::ExactFull, Some((mut progress, chunk_tiles, on_checkpoint))) => {
            let scanned = run.scan(config).run(&mut progress, chunk_tiles, rec, |cp| {
                rec.event(
                    "checkpoint.chunk",
                    &[
                        ("tiles_done", (cp.tiles_done as u64).into()),
                        ("total_tiles", (total_tiles as u64).into()),
                        ("joints", cp.scan.joints.into()),
                        ("candidates", (cp.scan.candidates.len() as u64).into()),
                    ],
                );
                // The callback (a durable run's save) is not MI work:
                // `stage.mi` closes around it and reopens for the next
                // chunk, if any, and `mi_time` leaves it out.
                drop(span_mi.take());
                let t = Instant::now();
                let go_on = on_checkpoint(cp);
                between_chunks += t.elapsed();
                if go_on && cp.tiles_done < total_tiles {
                    span_mi = Some(rec.span("stage.mi"));
                }
                go_on
            });
            match scanned {
                Some(execution) => (progress.scan, None, execution),
                None => return Err(progress),
            }
        }
    };
    drop(span_mi);
    let mi_time = t1.elapsed().saturating_sub(between_chunks);

    // ---- Stage 4: pooled threshold + candidate filtering -----------------
    let span_finalize = rec.span("stage.finalize");
    let result = finish_run(
        matrix,
        config,
        &run,
        scan,
        early_threshold,
        [prep_time, mi_time],
        execution,
    );
    let stats = &result.stats;
    if rec.is_enabled() {
        rec.counter_add("mi.pairs", stats.pairs);
        rec.counter_add("mi.joints_evaluated", stats.joints_evaluated);
        rec.counter_add("mi.candidates", stats.candidates);
        if early_threshold.is_some() {
            rec.counter_add("mi.early_exit_survivors", stats.candidates);
            rec.counter_add("mi.early_exit_pruned", stats.pairs - stats.candidates);
        }
        rec.event(
            "pipeline.done",
            &[
                ("pairs", stats.pairs.into()),
                ("edges", (result.network.edge_count() as u64).into()),
                ("threshold", stats.threshold.into()),
            ],
        );
    }
    drop(span_finalize);
    Ok(result)
}

/// The early-exit strategy's MI stage: resolve the threshold first —
/// explicit, or estimated by a full-null pre-pass over sampled pairs —
/// then scan every tile with nulls skipped below it and abandoned at the
/// first exceedance. The returned evidence holds the pre-pass's pooled
/// null (empty with an explicit threshold).
fn early_exit_scan(
    config: &InferenceConfig,
    run: &PreparedRun,
    rec: &Recorder,
) -> (NullScan, f64, ExecutionReport) {
    let (threshold, pooled) = match config.mi_threshold {
        Some(t) => (t, PooledNull::new()),
        None => {
            // `.max(2)` must come *before* `.min(total_pairs)`: the old
            // order could force `sample > total_pairs` on a 2-gene matrix,
            // which the deduplicating sampler could never satisfy.
            let sample = config
                .null_sample_pairs
                .max(2)
                .min(run.space.total_pairs() as usize);
            rec.counter_add("mi.prepass_pairs", sample as u64);
            estimate_threshold(run, config, sample)
        }
    };
    let (states, execution) = execute_tiles_traced(
        run.space.tiles(),
        config.resolved_threads(),
        config.scheduler,
        |_tid| (MiScratch::for_basis(&run.basis), NullScan::default()),
        |(scratch, acc), tile| {
            process_tile_early_exit(
                tile,
                &run.genes,
                &run.perms,
                config.kernel,
                threshold,
                scratch,
                acc,
            );
        },
        rec,
    );
    let mut scan = NullScan {
        pooled,
        ..NullScan::default()
    };
    for (_, acc) in states {
        scan.merge(acc);
    }
    (scan, threshold, execution)
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
    scratch: &mut MiScratch,
    acc: &mut NullScan,
) {
    let (rows, cols) = tile_genes(tile, prepared);
    for_each_planned_block(
        tile,
        rows,
        cols,
        perms.as_vecs(),
        kernel,
        scratch,
        |row, i, j0, ys, dense| {
            // Each pair stops at its own first beating null, so the block's
            // pairs are tested one at a time.
            for (c, (j, y)) in (j0..).zip(ys).enumerate() {
                let res = row.mi_with_nulls_early_exit(y, dense.get(c), threshold);
                acc.joints += u64::from(res.joints_evaluated);
                if res.survived {
                    acc.candidates.push((i, j, res.observed));
                }
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
        // Row plans are rebuilt per tile row and a row's columns are
        // evaluated in blocks, so the tile shape decides how often a gene
        // is planned and how its columns are blocked — never what its
        // pairs compute — and the pooled null merges exactly, so I* does
        // not move either. Tile 1 evaluates every pair as a one-column
        // block; the other tiles make every block width of orders 3
        // (4 columns), 4 (3) and 8 (1) occur, with balanced splits
        // (5 → 3 + 2, 7 → 3 + 2 + 2) and one-column tails.
        let (matrix, _) = synth::coupled_pairs(6, 150, Coupling::Linear(0.8), 29);
        for order in [3, 4, 8] {
            let run = |tile_size, threads| {
                let cfg = InferenceConfig {
                    permutations: 8,
                    spline_order: order,
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
            for tile_size in [1, 2, 3, 4, 5, 7, 9].map(Some).into_iter().chain([None]) {
                for threads in [1, 2] {
                    assert_eq!(
                        run(tile_size, threads),
                        reference,
                        "order {order}, tile {tile_size:?} × {threads} threads"
                    );
                }
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
