//! Seeded fixed-shape benchmark suite with a statistical regression gate.
//!
//! `gnet bench` runs a small, deterministic-shape suite — the scalar and
//! vector MI kernels (the latter also re-timed on each supported SIMD
//! backend's kernel table), the four scheduler policies, 2/4-rank in-process
//! ring runs, and a gene-append incremental update — with min-of-k
//! repetitions, and summarizes each series as `(min, median, MAD)`. The
//! *minimum* is the estimator (the least-noise observation of the true
//! cost on a shared machine); the median absolute deviation bounds the
//! run-to-run noise without assuming it is Gaussian.
//!
//! Most entries are wall times in µs. An entry's `unit` can instead be
//! `pairs` for counted work: `update.gene_append.pairs` records the
//! frontier size `g·(N−g) + g·(g−1)/2` the update engine scanned, so a
//! frontier-accounting regression (scanning more pairs than the append
//! requires) trips the same gate that catches wall-time regressions.
//!
//! The regression rule for a candidate vs a committed baseline is
//!
//! ```text
//! regressed(id)  ⇔  cand_min > base_min × RATIO_GATE
//!                              + NOISE_GATE × max(base_mad, cand_mad)
//! ```
//!
//! i.e. a candidate must be both *relatively* slower (>30 %) and slower
//! by more than the observed noise floor to fail — CI machines jitter,
//! and a pure ratio gate flags phantom regressions on µs-scale series.
//!
//! The `--inject-slowdown` hook exists so the gate itself is testable:
//! it multiplies vector-kernel work by running extra passes through
//! `gnet-mi`'s mutation-testing kernel (`MutatedVectorKernel`, the same
//! row-FMA loop), which must trip the gate at 2×.

use crate::ingest::{self, IngestError, LineResult, Raw};
use gnet_bspline::BsplineBasis;
use gnet_cluster::{infer_network_distributed, RankRun, TelemetryPlane, TelemetrySpec};
use gnet_core::{apply_update, build_state, infer_network, UpdateMode};
use gnet_mi::mutation::{KernelMutation, MutatedVectorKernel};
use gnet_mi::{mi_with_nulls, MiKernel, MiScratch};
use gnet_parallel::SchedulerPolicy;
use gnet_permute::PermutationSet;
use gnet_simd::dispatch::{self, Backend, KernelTable};
use serde::Content;
use std::fmt::Write as _;
use std::time::Instant;

/// Schema version of `BENCH_*.json` files.
pub const BENCH_FORMAT_VERSION: u64 = 1;
/// Issue number stamped into the artifact name (`BENCH_14.json`).
pub const BENCH_ISSUE: u64 = 14;
/// Relative slowdown a candidate must exceed to regress (1.30 = +30 %).
pub const RATIO_GATE: f64 = 1.30;
/// Noise multiplier: candidate must also exceed the baseline by this
/// many MADs (whichever side's MAD is larger).
pub const NOISE_GATE: f64 = 5.0;
/// A candidate minimum below `base_min × STALE_GATE` means the committed
/// baseline is stale: the code got ≥2× faster and the gate's +30 % band
/// now starts from a number that no longer describes the machine's real
/// cost, so a later regression back to the old speed would pass silently.
/// `gnet bench --baseline` surfaces these as improvements and suggests
/// `--update-baseline`.
pub const STALE_GATE: f64 = 0.5;

/// Suite options.
#[derive(Clone, Copy, Debug)]
pub struct BenchOptions {
    /// Smaller shapes and fewer repetitions (PR CI).
    pub quick: bool,
    /// Repetitions per benchmark; `None` = 3 quick / 5 full.
    pub reps: Option<usize>,
    /// Artificial vector-kernel slowdown factor (1.0 = none). Values
    /// above 1 run calibrated extra mutated-kernel passes per pair so
    /// `kernel.vector` wall time scales by ≈ this factor — the gate's
    /// self-test.
    pub slowdown: f64,
}

impl Default for BenchOptions {
    fn default() -> Self {
        Self {
            quick: false,
            reps: None,
            slowdown: 1.0,
        }
    }
}

impl BenchOptions {
    /// Effective repetition count.
    #[must_use]
    pub fn effective_reps(&self) -> usize {
        self.reps.unwrap_or(if self.quick { 3 } else { 5 }).max(1)
    }
}

/// One benchmark's measured series.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchEntry {
    /// Stable benchmark id (`kernel.vector`, `scheduler.dynamic`, …).
    pub id: String,
    /// What the values measure: `"us"` (wall time, the default) or
    /// `"pairs"` (counted work, e.g. `update.gene_append.pairs`).
    pub unit: String,
    /// All repetition values in the entry's unit, in run order.
    pub values_us: Vec<f64>,
    /// Minimum of the series (the estimator).
    pub min_us: f64,
    /// Median.
    pub median_us: f64,
    /// Median absolute deviation (the noise bound; 0 for counted work).
    pub mad_us: f64,
}

/// A whole suite run.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchSuite {
    /// Whether this was a `--quick` run.
    pub quick: bool,
    /// Entries in run order.
    pub entries: Vec<BenchEntry>,
}

impl BenchSuite {
    /// Entry by id.
    #[must_use]
    pub fn entry(&self, id: &str) -> Option<&BenchEntry> {
        self.entries.iter().find(|e| e.id == id)
    }
}

/// One flagged regression.
#[derive(Clone, Debug, PartialEq)]
pub struct Regression {
    /// Benchmark id.
    pub id: String,
    /// Baseline minimum, µs.
    pub base_min_us: f64,
    /// Candidate minimum, µs.
    pub cand_min_us: f64,
    /// Candidate / baseline.
    pub ratio: f64,
    /// The threshold the candidate exceeded, µs.
    pub threshold_us: f64,
}

/// One entry that got so much faster the baseline is stale (see
/// [`STALE_GATE`]).
#[derive(Clone, Debug, PartialEq)]
pub struct Improvement {
    /// Benchmark id.
    pub id: String,
    /// Baseline minimum, µs.
    pub base_min_us: f64,
    /// Candidate minimum, µs.
    pub cand_min_us: f64,
    /// Baseline / candidate (the speedup).
    pub speedup: f64,
}

fn median(sorted: &[f64]) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        f64::midpoint(sorted[n / 2 - 1], sorted[n / 2])
    }
}

fn summarize(id: &str, unit: &str, values_us: Vec<f64>) -> BenchEntry {
    let mut sorted = values_us.clone();
    sorted.sort_by(f64::total_cmp);
    let med = median(&sorted);
    let mut deviations: Vec<f64> = sorted.iter().map(|v| (v - med).abs()).collect();
    deviations.sort_by(f64::total_cmp);
    BenchEntry {
        id: id.to_string(),
        unit: unit.to_string(),
        min_us: sorted.first().copied().unwrap_or(0.0),
        median_us: med,
        mad_us: median(&deviations),
        values_us,
    }
}

fn time_reps<F: FnMut()>(id: &str, reps: usize, mut body: F) -> BenchEntry {
    // One untimed warm-up rep: page in code and data.
    body();
    let values: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            body();
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    summarize(id, "us", values)
}

/// Pair evaluations per kernel-benchmark repetition.
fn kernel_pairs(quick: bool) -> usize {
    if quick {
        1_500
    } else {
        6_000
    }
}

fn kernel_bench(
    id: &str,
    kernel: MiKernel,
    kernels: &'static KernelTable,
    opts: &BenchOptions,
) -> BenchEntry {
    let quick = opts.quick;
    let (genes, samples, q) = if quick { (12, 64, 4) } else { (16, 128, 8) };
    let basis = BsplineBasis::tinge_default();
    let matrix = gnet_expr::synth::independent_gaussian(genes, samples, 0x00BE_7C11);
    let prepared = gnet_core::prepare_genes(&matrix, 0..genes, &basis, 1);
    let dense: Vec<_> = prepared
        .iter()
        .map(gnet_mi::PreparedGene::to_dense)
        .collect();
    let perms = PermutationSet::generate(samples, q, 7);
    let mut scratch = MiScratch::with_kernels(&basis, kernels);
    let pairs = kernel_pairs(quick);
    let mut mutated = MutatedVectorKernel::new(KernelMutation::DroppedPaddingZeroing);
    // The mutated pass runs the same row-FMA loop as the real kernel
    // but skips the pair's q null re-evaluations, so its cost per call
    // is a machine/profile-dependent fraction of a pair's cost.
    // Calibrate how many passes reproduce one pair before timing, so
    // `--inject-slowdown F` yields ≈F× wall time rather than a fixed
    // (and possibly negligible) increment.
    let extra_passes = if kernel == MiKernel::VectorDense && opts.slowdown > 1.0 {
        let probe = 32.min(pairs);
        let mut sink = 0.0f64;
        let t = Instant::now();
        for p in 0..probe {
            let (i, j) = (p % genes, (p + 1) % genes);
            sink += mi_with_nulls(
                kernel,
                &prepared[i],
                &prepared[j],
                Some(&dense[j]),
                perms.as_vecs(),
                &mut scratch,
            )
            .observed;
        }
        let pair_cost = t.elapsed().as_secs_f64() / probe as f64;
        let t = Instant::now();
        for p in 0..probe * 4 {
            let (i, j) = (p % genes, (p + 1) % genes);
            sink += mutated.mi(&prepared[i], &prepared[j], &dense[j]);
        }
        let pass_cost = (t.elapsed().as_secs_f64() / (probe * 4) as f64).max(1e-9);
        assert!(sink.is_finite(), "calibration outputs stayed finite");
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        // cast-ok: clamped to [1, 1e6] before the cast
        {
            ((opts.slowdown - 1.0) * pair_cost / pass_cost)
                .ceil()
                .clamp(1.0, 1e6) as usize
        }
    } else {
        0
    };
    let reps = opts.effective_reps();
    let mut sink = 0.0f64;
    let entry = time_reps(id, reps, || {
        for p in 0..pairs {
            let i = p % genes;
            let j = (p + 1) % genes;
            if i == j {
                continue;
            }
            let r = mi_with_nulls(
                kernel,
                &prepared[i],
                &prepared[j],
                Some(&dense[j]),
                perms.as_vecs(),
                &mut scratch,
            );
            sink += r.observed;
            if kernel == MiKernel::VectorDense {
                for _ in 0..extra_passes {
                    sink += mutated.mi(&prepared[i], &prepared[j], &dense[j]);
                }
            }
        }
    });
    assert!(sink.is_finite(), "kernel outputs stayed finite");
    entry
}

fn scheduler_bench(policy: SchedulerPolicy, opts: &BenchOptions) -> BenchEntry {
    let (genes, samples, q, threads) = if opts.quick {
        (48, 48, 2, 2)
    } else {
        (96, 64, 4, 4)
    };
    let matrix = gnet_bench::measured::perf_matrix(genes, samples);
    let cfg = gnet_core::InferenceConfig {
        scheduler: policy,
        ..gnet_bench::measured::perf_config(q, threads, 8, MiKernel::VectorDense)
    };
    time_reps(
        &format!("scheduler.{}", policy.name()),
        opts.effective_reps(),
        || {
            let r = infer_network(&matrix, &cfg);
            assert!(r.stats.pairs > 0);
        },
    )
}

/// Gene-append frontier accounting: build a state on the first `N − g`
/// genes, append the last `g`, and record how many pairs the update
/// engine scanned. The faithful engine scans exactly the frontier
/// `g·(N−g) + g·(g−1)/2` (each new gene against every old one, plus the
/// new×new pairs) — an entry in `pairs`, not µs, so drift in that
/// accounting trips the regression gate deterministically.
fn update_bench(opts: &BenchOptions) -> BenchEntry {
    let (genes, samples, appended, q) = if opts.quick {
        (32, 48, 4, 2)
    } else {
        (64, 64, 8, 4)
    };
    let matrix = gnet_bench::measured::perf_matrix(genes, samples);
    let head: Vec<usize> = (0..genes - appended).collect();
    let tail: Vec<usize> = (genes - appended..genes).collect();
    let cfg = gnet_bench::measured::perf_config(q, 1, 8, MiKernel::VectorDense);
    let state = build_state(&matrix.select_genes(&head), &cfg);
    let append = matrix.select_genes(&tail);
    let values: Vec<f64> = (0..opts.effective_reps())
        .map(|_| {
            let (_, stats) = apply_update(&state, &append, UpdateMode::Genes)
                .unwrap_or_else(|e| unreachable!("gene append fits the state: {e}"));
            // cast-ok: frontier sizes are far below 2^53.
            #[allow(clippy::cast_precision_loss)]
            {
                stats.pairs_scanned as f64
            }
        })
        .collect();
    summarize("update.gene_append.pairs", "pairs", values)
}

/// A fault-free in-process ring run.
fn ring(
    matrix: &gnet_expr::ExpressionMatrix,
    cfg: &gnet_core::InferenceConfig,
    run: &RankRun<'_>,
) -> gnet_cluster::DistributedResult {
    infer_network_distributed(matrix, cfg, run)
        .unwrap_or_else(|e| unreachable!("a fault-free in-process ring completes: {e}"))
}

fn ring_bench(ranks: usize, opts: &BenchOptions) -> BenchEntry {
    let (genes, samples, q) = if opts.quick { (32, 48, 2) } else { (64, 64, 4) };
    let matrix = gnet_bench::measured::perf_matrix(genes, samples);
    let cfg = gnet_bench::measured::perf_config(q, 1, 8, MiKernel::VectorDense);
    time_reps(&format!("ring.{ranks}"), opts.effective_reps(), || {
        let r = ring(&matrix, &cfg, &RankRun::new(ranks));
        assert!(r.rank_stats.iter().map(|s| s.pairs).sum::<u64>() > 0);
    })
}

/// The `ring.2` pass re-timed with the live telemetry plane attached
/// (counting rank recorders, heartbeats every 5 ms, status keeper
/// running). Gated against its own committed baseline, so the plane
/// getting more expensive trips the same regression rule as a kernel
/// slowdown; `ring.2` alongside it shows the absolute overhead.
fn telemetry_bench(opts: &BenchOptions) -> BenchEntry {
    let (genes, samples, q) = if opts.quick { (32, 48, 2) } else { (64, 64, 4) };
    let matrix = gnet_bench::measured::perf_matrix(genes, samples);
    let cfg = gnet_bench::measured::perf_config(q, 1, 8, MiKernel::VectorDense);
    let baseline = ring(&matrix, &cfg, &RankRun::new(2));
    let spec = TelemetrySpec::with_interval(std::time::Duration::from_millis(5));
    let pairs = (genes as u64) * (genes as u64 - 1) / 2;
    time_reps("telemetry.overhead", opts.effective_reps(), || {
        let mut plane = TelemetryPlane::start(&spec, 2, pairs)
            .unwrap_or_else(|e| unreachable!("fileless, addressless plane starts: {e}"));
        let run = RankRun {
            plane: Some(&plane),
            ..RankRun::new(2)
        };
        let r = ring(&matrix, &cfg, &run);
        plane
            .finish()
            .unwrap_or_else(|e| unreachable!("fileless plane finish cannot fail: {e}"));
        // The invariant under test everywhere else, cheaply re-asserted
        // where overhead is measured: telemetry never perturbs results.
        assert_eq!(r.network.edges().len(), baseline.network.edges().len());
    })
}

/// Run the full suite.
///
/// Besides the dispatched `kernel.vector` series, the suite re-times the
/// vector kernel on each supported SIMD backend's kernel table in turn
/// (`kernel.vector.avx512` / `kernel.vector.avx2` /
/// `kernel.vector.emulated`), so one artifact records both what the
/// dispatcher picked *and* what each backend costs on this machine —
/// the evidence that the dispatch order is the fastest-first order.
#[must_use]
pub fn run_suite(opts: &BenchOptions) -> BenchSuite {
    let resolved = dispatch::table();
    let mut entries = vec![
        kernel_bench("kernel.scalar", MiKernel::ScalarSparse, resolved, opts),
        kernel_bench("kernel.vector", MiKernel::VectorDense, resolved, opts),
    ];
    for kernels in Backend::ALL
        .into_iter()
        .filter_map(KernelTable::for_backend)
    {
        let id = format!("kernel.vector.{}", kernels.backend);
        entries.push(kernel_bench(&id, MiKernel::VectorDense, kernels, opts));
    }
    for policy in SchedulerPolicy::ALL {
        entries.push(scheduler_bench(policy, opts));
    }
    entries.push(ring_bench(2, opts));
    entries.push(ring_bench(4, opts));
    entries.push(telemetry_bench(opts));
    entries.push(update_bench(opts));
    BenchSuite {
        quick: opts.quick,
        entries,
    }
}

/// Serialize a suite as the versioned `BENCH_14.json` artifact.
#[must_use]
pub fn to_json(suite: &BenchSuite) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\n  \"format\": \"gnet-bench\",\n  \"version\": {BENCH_FORMAT_VERSION},\n  \
         \"issue\": {BENCH_ISSUE},\n  \"quick\": {},\n  \"entries\": [",
        suite.quick
    );
    for (i, e) in suite.entries.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let values = e
            .values_us
            .iter()
            .map(|v| format!("{v:.3}"))
            .collect::<Vec<_>>()
            .join(", ");
        let _ = write!(
            out,
            "\n    {{\"id\": \"{}\", \"unit\": \"{}\", \"reps\": {}, \"min\": {:.3}, \
             \"median\": {:.3}, \"mad\": {:.3}, \"values\": [{values}]}}",
            e.id,
            e.unit,
            e.values_us.len(),
            e.min_us,
            e.median_us,
            e.mad_us
        );
    }
    out.push_str("\n  ]\n}\n");
    out
}

fn entry_from_content(c: &Content) -> LineResult<BenchEntry> {
    let m = ingest::as_map(c)?;
    ingest::check_keys(m, &["id", "unit", "reps", "min", "median", "mad", "values"])?;
    let unit = ingest::get_str(m, "unit")?;
    if unit != "us" && unit != "pairs" {
        return Err(format!("unsupported bench unit `{unit}`"));
    }
    let values = match ingest::get(m, "values")? {
        Content::Seq(items) => items
            .iter()
            .map(|v| match v {
                Content::F64(f) => Ok(*f),
                Content::U64(u) => Ok(*u as f64),
                Content::I64(i) => Ok(*i as f64),
                other => Err(format!(
                    "bench value: expected number, found {}",
                    other.kind()
                )),
            })
            .collect::<LineResult<Vec<f64>>>()?,
        other => {
            return Err(format!(
                "bench values: expected sequence, found {}",
                other.kind()
            ))
        }
    };
    Ok(BenchEntry {
        id: ingest::get_str(m, "id")?,
        unit,
        min_us: ingest::get_f64(m, "min")?,
        median_us: ingest::get_f64(m, "median")?,
        mad_us: ingest::get_f64(m, "mad")?,
        values_us: values,
    })
}

/// Parse a `BENCH_*.json` artifact (the `--baseline` input).
///
/// # Errors
/// [`IngestError`] on malformed JSON, a foreign format string, an
/// unsupported version, or unknown keys.
pub fn parse_suite(text: &str) -> Result<BenchSuite, IngestError> {
    let err = |message: String| IngestError { line: 1, message };
    let raw: Raw =
        serde_json::from_str(text.trim()).map_err(|e| err(format!("invalid bench JSON: {e}")))?;
    let m = ingest::as_map(&raw.0).map_err(&err)?;
    ingest::check_keys(m, &["format", "version", "issue", "quick", "entries"]).map_err(&err)?;
    let format = ingest::get_str(m, "format").map_err(&err)?;
    if format != "gnet-bench" {
        return Err(err(format!(
            "not a gnet-bench artifact (format `{format}`)"
        )));
    }
    let version = ingest::get_u64(m, "version").map_err(&err)?;
    if version != BENCH_FORMAT_VERSION {
        return Err(err(format!("unsupported gnet-bench version {version}")));
    }
    let quick = match ingest::get(m, "quick").map_err(&err)? {
        Content::Bool(b) => *b,
        other => {
            return Err(err(format!(
                "bench `quick`: expected bool, found {}",
                other.kind()
            )))
        }
    };
    let entries = match ingest::get(m, "entries").map_err(&err)? {
        Content::Seq(items) => items
            .iter()
            .map(entry_from_content)
            .collect::<LineResult<Vec<_>>>()
            .map_err(&err)?,
        other => {
            return Err(err(format!(
                "bench entries: expected sequence, found {}",
                other.kind()
            )))
        }
    };
    Ok(BenchSuite { quick, entries })
}

/// Ids the gate cannot compare: a suite change the baseline must be
/// refreshed for ([`id_drift`]).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct IdDrift {
    /// Candidate ids missing from the baseline: never gated until the
    /// baseline is refreshed, so the gate rejects them.
    pub new: Vec<String>,
    /// Baseline ids the candidate no longer runs (retired benches): worth
    /// a warning, not a failure.
    pub retired: Vec<String>,
}

/// The ids present on only one side of a baseline/candidate comparison,
/// each in its suite's order.
#[must_use]
pub fn id_drift(baseline: &BenchSuite, candidate: &BenchSuite) -> IdDrift {
    let missing = |from: &BenchSuite, other: &BenchSuite| -> Vec<String> {
        from.entries
            .iter()
            .filter(|e| other.entry(&e.id).is_none())
            .map(|e| e.id.clone())
            .collect()
    };
    IdDrift {
        new: missing(candidate, baseline),
        retired: missing(baseline, candidate),
    }
}

/// The gate: compare a candidate run against a baseline over the ids
/// both run (the others are [`id_drift`]'s); regressions are returned
/// most-severe first.
#[must_use]
pub fn compare(baseline: &BenchSuite, candidate: &BenchSuite) -> Vec<Regression> {
    let mut regressions: Vec<Regression> = candidate
        .entries
        .iter()
        .filter_map(|cand| {
            let base = baseline.entry(&cand.id)?;
            let threshold_us = base.min_us * RATIO_GATE + NOISE_GATE * base.mad_us.max(cand.mad_us);
            (cand.min_us > threshold_us).then(|| Regression {
                id: cand.id.clone(),
                base_min_us: base.min_us,
                cand_min_us: cand.min_us,
                ratio: if base.min_us > 0.0 {
                    cand.min_us / base.min_us
                } else {
                    f64::INFINITY
                },
                threshold_us,
            })
        })
        .collect();
    regressions.sort_by(|a, b| b.ratio.total_cmp(&a.ratio));
    regressions
}

/// The stale-baseline detector: entries whose candidate minimum undercuts
/// the baseline by more than [`STALE_GATE`] (i.e. a ≥2× speedup), largest
/// speedup first. The gate in [`compare`] can only catch a slowdown
/// *relative to the committed numbers* — after a big win the committed
/// numbers are the wrong anchor, and the caller should refresh them
/// (`gnet bench --update-baseline`).
#[must_use]
pub fn improvements(baseline: &BenchSuite, candidate: &BenchSuite) -> Vec<Improvement> {
    let mut wins: Vec<Improvement> = candidate
        .entries
        .iter()
        .filter_map(|cand| {
            let base = baseline.entry(&cand.id)?;
            (base.min_us > 0.0 && cand.min_us < base.min_us * STALE_GATE).then(|| Improvement {
                id: cand.id.clone(),
                base_min_us: base.min_us,
                cand_min_us: cand.min_us,
                speedup: base.min_us / cand.min_us,
            })
        })
        .collect();
    wins.sort_by(|a, b| b.speedup.total_cmp(&a.speedup));
    wins
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(id: &str, min: f64, mad: f64) -> BenchEntry {
        BenchEntry {
            id: id.to_string(),
            unit: "us".to_string(),
            values_us: vec![min, min + mad, min + 2.0 * mad],
            min_us: min,
            median_us: min + mad,
            mad_us: mad,
        }
    }

    fn suite(entries: Vec<BenchEntry>) -> BenchSuite {
        BenchSuite {
            quick: true,
            entries,
        }
    }

    #[test]
    fn summarize_computes_min_median_mad() {
        let e = summarize("x", "us", vec![5.0, 1.0, 3.0, 9.0, 2.0]);
        assert!((e.min_us - 1.0).abs() < 1e-12);
        assert!((e.median_us - 3.0).abs() < 1e-12);
        // |5-3|,|1-3|,|3-3|,|9-3|,|2-3| = 2,2,0,6,1 → sorted 0,1,2,2,6 → 2
        assert!((e.mad_us - 2.0).abs() < 1e-12);
        assert_eq!(e.values_us, vec![5.0, 1.0, 3.0, 9.0, 2.0], "run order kept");
    }

    #[test]
    fn gate_passes_identical_suites_and_noise() {
        let base = suite(vec![entry("kernel.vector", 1000.0, 20.0)]);
        assert!(compare(&base, &base).is_empty());
        // +25 % is inside the 30 % ratio gate.
        let cand = suite(vec![entry("kernel.vector", 1250.0, 20.0)]);
        assert!(compare(&base, &cand).is_empty());
        // Over the ratio gate but within 5 MADs of a noisy series: pass.
        let noisy_base = suite(vec![entry("kernel.vector", 1000.0, 200.0)]);
        let cand = suite(vec![entry("kernel.vector", 1900.0, 200.0)]);
        assert!(compare(&noisy_base, &cand).is_empty());
    }

    #[test]
    fn gate_flags_a_2x_slowdown() {
        let base = suite(vec![entry("kernel.vector", 1000.0, 20.0)]);
        let cand = suite(vec![entry("kernel.vector", 2000.0, 20.0)]);
        let regs = compare(&base, &cand);
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].id, "kernel.vector");
        assert!((regs[0].ratio - 2.0).abs() < 1e-12);
    }

    #[test]
    fn improvements_flags_only_2x_wins() {
        let base = suite(vec![
            entry("kernel.vector", 9000.0, 20.0),
            entry("kernel.scalar", 1000.0, 20.0),
            entry("ring.2", 500.0, 5.0),
        ]);
        let cand = suite(vec![
            entry("kernel.vector", 1000.0, 20.0), // 9× faster: stale
            entry("kernel.scalar", 900.0, 20.0),  // 1.1×: fine
            entry("new.bench", 1.0, 0.0),         // no baseline: ignored
        ]);
        let wins = improvements(&base, &cand);
        assert_eq!(wins.len(), 1);
        assert_eq!(wins[0].id, "kernel.vector");
        assert!((wins[0].speedup - 9.0).abs() < 1e-12);
        // Exactly at the gate is not stale — strict inequality.
        let at_gate = suite(vec![entry("ring.2", 250.0, 5.0)]);
        assert!(improvements(&base, &at_gate).is_empty());
    }

    #[test]
    fn id_drift_names_new_and_retired_ids() {
        let base = suite(vec![
            entry("kept.bench", 100.0, 1.0),
            entry("old.bench", 100.0, 1.0),
        ]);
        let cand = suite(vec![
            entry("new.bench", 100_000.0, 1.0),
            entry("kept.bench", 100.0, 1.0),
        ]);
        // The timing gate compares only the shared ids ...
        assert!(compare(&base, &cand).is_empty());
        // ... and the drift names the rest, for the caller to reject
        // (new) or warn about (retired).
        let drift = id_drift(&base, &cand);
        assert_eq!(drift.new, ["new.bench"]);
        assert_eq!(drift.retired, ["old.bench"]);
        assert_eq!(id_drift(&base, &base), IdDrift::default());
    }

    #[test]
    fn json_round_trips_exactly_enough_for_the_gate() {
        let s = suite(vec![
            entry("kernel.scalar", 123.456, 7.8),
            entry("ring.4", 9999.0, 0.0),
        ]);
        let parsed = parse_suite(&to_json(&s)).expect("artifact parses");
        assert_eq!(parsed.quick, s.quick);
        assert_eq!(parsed.entries.len(), 2);
        for (a, b) in parsed.entries.iter().zip(&s.entries) {
            assert_eq!(a.id, b.id);
            assert!((a.min_us - b.min_us).abs() < 1e-3);
            assert!((a.mad_us - b.mad_us).abs() < 1e-3);
            assert_eq!(a.values_us.len(), b.values_us.len());
        }
    }

    #[test]
    fn update_entry_counts_exactly_the_gene_append_frontier() {
        let e = update_bench(&BenchOptions {
            quick: true,
            reps: Some(2),
            slowdown: 1.0,
        });
        assert_eq!(e.id, "update.gene_append.pairs");
        assert_eq!(e.unit, "pairs");
        // Quick shape: N = 32, g = 4 → 4·28 + 4·3/2 = 118 frontier pairs.
        let expected = 4.0 * 28.0 + 4.0 * 3.0 / 2.0;
        assert!((e.min_us - expected).abs() < 1e-12, "{}", e.min_us);
        assert!((e.mad_us).abs() < 1e-12, "counted work has no noise");
        // The unit survives the artifact round trip.
        let s = suite(vec![e]);
        let parsed = parse_suite(&to_json(&s)).expect("artifact parses");
        assert_eq!(parsed.entries[0].unit, "pairs");
        assert!((parsed.entries[0].min_us - expected).abs() < 1e-3);
    }

    #[test]
    fn unknown_bench_unit_is_rejected() {
        let text = "{\"format\": \"gnet-bench\", \"version\": 1, \"issue\": 7, \
                    \"quick\": true, \"entries\": [{\"id\": \"x\", \"unit\": \"flops\", \
                    \"reps\": 1, \"min\": 1.0, \"median\": 1.0, \"mad\": 0.0, \
                    \"values\": [1.0]}]}";
        let err = parse_suite(text).expect_err("foreign unit must fail");
        assert!(err.message.contains("flops"), "{err}");
    }

    #[test]
    fn foreign_artifacts_are_rejected() {
        assert!(parse_suite("{}").is_err());
        assert!(parse_suite("not json").is_err());
        let drifted = "{\"format\": \"gnet-bench\", \"version\": 1, \"issue\": 5, \
                       \"quick\": false, \"entries\": [], \"surprise\": 1}";
        let err = parse_suite(drifted).expect_err("unknown key must fail");
        assert!(err.message.contains("surprise"), "{err}");
    }
}
