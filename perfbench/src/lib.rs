//! Paper-shape benchmark of the genome-net library.
//!
//! One run sets a workload up, repeats its timed operation for a fixed
//! number of seconds, checks every operation's output, and reports either
//! the end-to-end metrics (tracing off) or the per-layer metrics (the
//! traced run). See `README.md` beside this crate for the workloads, the
//! metrics and how to read them.

pub mod check;
pub mod layers;
pub mod report;
pub mod spans;
pub mod workload;

use check::{Checker, Corruption};
use layers::call;
use report::{median, Metric};
use spans::Spans;
use std::collections::BTreeMap;
use std::panic::{self, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use workload::{Fixture, OpDetail, Shape, Workload};

/// Pairs of the paper's headline network: 15,575 genes.
pub const HEADLINE_PAIRS: f64 = 121_282_525.0;
/// The paper's headline wall time, hours (22 minutes).
pub const PAPER_HEADLINE_H: f64 = 22.0 / 60.0;
/// Below this share of `stage.mi` the accounting line says "unaccounted".
pub const ACCOUNTED_FLOOR: f64 = 0.85;
/// Least total time spent on repeated set-ups.
const SETUP_MIN_SECS: f64 = 1.0;

/// End-to-end metrics (tracing off): name and unit.
pub const END_TO_END: [(&str, &str); 4] = [
    ("pairs_per_s", "pairs/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("ops_ok_frac", "ratio"),
];

/// Per-layer metrics (the traced run): name and unit. A layer the
/// workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 38] = [
    ("accumulate.identity_us", "us"),
    ("accumulate.permuted_us", "us"),
    ("accumulate.joints", "count"),
    ("accumulate.ns_per_row_fma", "ns"),
    ("entropy.joint_us", "us"),
    ("pair_us", "us"),
    ("pair.fixed_us", "us"),
    ("pooled.extend_us", "us"),
    ("perms.generate_ms", "ms"),
    ("prep.gene_us", "us"),
    ("dense.gene_us", "us"),
    ("dense.expansions", "count"),
    ("sched.tiles", "count"),
    ("sched.imbalance", "ratio"),
    ("sched.cpu_util", "ratio"),
    ("stage.prep_s", "s"),
    ("stage.mi_s", "s"),
    ("stage.finalize_s", "s"),
    ("core.candidates", "count"),
    ("accounted_frac", "ratio"),
    ("ring.bytes", "bytes"),
    ("ring.messages", "count"),
    ("ring.rank_busy_max_s", "s"),
    ("ring.rank_busy_min_s", "s"),
    ("ring.wait_s", "s"),
    ("ring.imbalance", "ratio"),
    ("codec.encode_us", "us"),
    ("codec.decode_us", "us"),
    ("update.pairs_scanned", "count"),
    ("update.scan_s", "s"),
    ("state.save_ms", "ms"),
    ("state.load_ms", "ms"),
    ("state.bytes", "bytes"),
    ("output.edge_list_ms", "ms"),
    ("output.edges", "count"),
    ("traced.pairs_per_s", "pairs/s"),
    ("untraced.pairs_per_s", "pairs/s"),
    ("trace.overhead_frac", "ratio"),
];

/// How to run one benchmark invocation.
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// Which workload.
    pub workload: Workload,
    /// Seed of the generated inputs.
    pub seed: u64,
    /// How long the timed loop runs.
    pub seconds: f64,
    /// The traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
    /// Problem size.
    pub shape: Shape,
    /// Least set-up repetitions; `setup_s` is their median.
    pub setup_reps: usize,
    /// Directory for state files and the span dump.
    pub work_dir: PathBuf,
    /// Test hook: corrupt operation `.0`'s output with `.1`.
    pub corrupt: Option<(usize, Corruption)>,
}

impl RunConfig {
    /// The benchmark's configuration for a workload: full shape, three
    /// set-ups.
    pub fn new(workload: Workload, seed: u64, seconds: f64, trace: bool) -> RunConfig {
        RunConfig {
            workload,
            seed,
            seconds,
            trace,
            shape: Shape::full(workload),
            setup_reps: 3,
            work_dir: PathBuf::from("perfbench/out"),
            corrupt: None,
        }
    }
}

/// The outcome of one invocation.
#[derive(Debug)]
pub struct RunReport {
    /// Timed operations attempted.
    pub attempted: u64,
    /// Operations that panicked, returned `Err`, or failed a check.
    pub failed: u64,
    /// Why each failed operation failed.
    pub failures: Vec<String>,
    /// End-to-end metrics, or per-layer metrics for the traced run.
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result line.
    pub notes: Vec<String>,
}

struct OpRecord {
    secs: f64,
    pairs: u64,
    traced: bool,
    ok: bool,
    edges: usize,
    detail: Option<OpDetail>,
}

/// Run one invocation.
///
/// # Errors
/// When set-up fails, leaving nothing to measure, or when the traced
/// run's replay or span dump cannot write its files.
pub fn run(cfg: &RunConfig) -> Result<RunReport, String> {
    let state_dir = cfg
        .work_dir
        .join(format!("{}-{}", cfg.workload.name(), std::process::id()));
    let report = run_in(cfg, &state_dir);
    let _ = std::fs::remove_dir_all(&state_dir);
    report
}

fn run_in(cfg: &RunConfig, state_dir: &Path) -> Result<RunReport, String> {
    let epoch = Instant::now();
    let mut spans = Spans::new(cfg.workload.name(), epoch);
    let root = spans.open("run", None, None);

    // ---- set-up, repeated at least `setup_reps` times and for at least
    // `SETUP_MIN_SECS`, so a set-up of milliseconds still yields a steady
    // median. The fixture of the last repetition is used.
    let mut setup_secs = Vec::new();
    let setup_start = Instant::now();
    let fixture = loop {
        let id = spans.open("setup", Some(root), None);
        let fixture = Fixture::set_up(cfg.workload, cfg.shape, cfg.seed, state_dir)?;
        setup_secs.push(spans.close(id).as_secs_f64());
        if setup_secs.len() >= cfg.setup_reps
            && setup_start.elapsed().as_secs_f64() >= SETUP_MIN_SECS
        {
            break fixture;
        }
    };

    // ---- the timed loop.
    let mut checker = Checker::new(&fixture, cfg.seed);
    let mut ops: Vec<OpRecord> = Vec::new();
    let mut failures = Vec::new();
    let mut last_network = None;
    let loop_start = Instant::now();
    let budget = Duration::from_secs_f64(cfg.seconds);
    let min_ops = if cfg.trace { 2 } else { 1 };
    loop {
        let index = ops.len();
        // The traced run alternates untraced and traced operations, so the
        // tracing overhead is measured within one process.
        let traced = cfg.trace && index % 2 == 1;
        let rec = if traced {
            gnet_trace::Recorder::enabled()
        } else {
            gnet_trace::Recorder::disabled()
        };
        let prepared = fixture.before_op();
        let id = spans.open("op", Some(root), Some(index as u32));
        let outcome = prepared.and_then(|()| {
            panic::catch_unwind(AssertUnwindSafe(|| fixture.run_op(&rec)))
                .unwrap_or_else(|p| Err(format!("panicked: {}", panic_message(&p))))
        });
        let op_secs = spans.close(id).as_secs_f64();

        let check_id = spans.open("check", Some(root), Some(index as u32));
        let mut record = OpRecord {
            secs: op_secs,
            pairs: 0,
            traced,
            ok: false,
            edges: 0,
            detail: None,
        };
        match outcome {
            Ok(mut out) => {
                if let Some((k, c)) = cfg.corrupt {
                    if k == index {
                        out.network = c.apply(&out.network);
                    }
                }
                match checker.check(&fixture, &out) {
                    Ok(()) => record.ok = true,
                    Err(e) => failures.push(format!("op {index}: {e}")),
                }
                record.pairs = out.pairs;
                record.edges = out.network.edge_count();
                record.detail = Some(out.detail);
                last_network = Some(out.network);
            }
            Err(e) => failures.push(format!("op {index}: {e}")),
        }
        spans.close(check_id);
        ops.push(record);
        // An operation starts only inside the budget, so a run overshoots
        // it by at most one operation.
        if ops.len() >= min_ops && loop_start.elapsed() >= budget {
            break;
        }
    }

    // ---- untimed reference check (ring, append).
    let ref_id = spans.open("reference", Some(root), None);
    if let Err(e) = checker.check_reference(&fixture) {
        for (k, op) in ops.iter_mut().enumerate() {
            if op.ok {
                op.ok = false;
                failures.push(format!("op {k}: {e}"));
            }
        }
    }
    spans.close(ref_id);

    let attempted = ops.len() as u64;
    let failed = ops.iter().filter(|o| !o.ok).count() as u64;
    let rate = |traced: bool| {
        let rates: Vec<f64> = ops
            .iter()
            .filter(|o| o.ok && o.traced == traced && o.secs > 0.0)
            .map(|o| o.pairs as f64 / o.secs)
            .collect();
        median(&rates)
    };
    let pairs_per_s = rate(false);
    let op_secs: Vec<String> = ops.iter().map(|o| format!("{:.3}", o.secs)).collect();
    let mut notes = vec![
        report::provenance(
            cfg.workload.name(),
            cfg.seed,
            fixture.config.resolved_threads(),
        ),
        format!(
            "ops: {attempted} attempted, {failed} failed, ops_failed_frac = {}; seconds per op: {}",
            failed as f64 / attempted as f64,
            op_secs.join(" ")
        ),
    ];
    if cfg.workload == Workload::Paper256 && pairs_per_s > 0.0 {
        notes.push(format!(
            "projected_headline_h = {:.2} h (121.3M pairs at {pairs_per_s:.0} pairs/s; \
             the paper: {PAPER_HEADLINE_H:.2} h on a 61-core Xeon Phi)",
            HEADLINE_PAIRS / pairs_per_s / 3600.0
        ));
    }

    let metrics = if cfg.trace {
        let replay_id = spans.open("replay", Some(root), None);
        if let Some(net) = &last_network {
            layers::replay(&fixture, &mut spans, replay_id, cfg.seed, net)?;
        }
        spans.close(replay_id);
        spans.close(root);
        let traced_rate = rate(true);
        let values = layer_values(&fixture, &ops, &spans, pairs_per_s, traced_rate);
        notes.extend(layer_notes(&values, cfg.workload));
        let path = write_spans(cfg, &spans)?;
        notes.push(format!("spans written to {}", path.display()));
        PER_LAYER
            .iter()
            .map(|&(name, unit)| Metric {
                name,
                value: values.get(name).copied().unwrap_or(0.0),
                unit,
            })
            .collect()
    } else {
        let ok_frac = (attempted - failed) as f64 / attempted as f64;
        let values = [
            pairs_per_s,
            median(&setup_secs),
            report::peak_rss_mb(),
            ok_frac,
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), value)| Metric { name, value, unit })
            .collect()
    };
    Ok(RunReport {
        attempted,
        failed,
        failures,
        metrics,
        notes,
    })
}

fn panic_message(p: &Box<dyn std::any::Any + Send>) -> String {
    p.downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| p.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic".into())
}

fn write_spans(cfg: &RunConfig, spans: &Spans) -> Result<PathBuf, String> {
    std::fs::create_dir_all(&cfg.work_dir)
        .map_err(|e| format!("creating {}: {e}", cfg.work_dir.display()))?;
    let path = cfg.work_dir.join(format!(
        "spans-{}-seed{}.ndjson",
        cfg.workload.name(),
        cfg.seed
    ));
    let file = std::fs::File::create(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    spans
        .write_ndjson(std::io::BufWriter::new(file))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path)
}

/// Per-layer values from the traced operations and the replay spans.
fn layer_values(
    fixture: &Fixture,
    ops: &[OpRecord],
    spans: &Spans,
    untraced_rate: f64,
    traced_rate: f64,
) -> BTreeMap<&'static str, f64> {
    let shape = &fixture.shape;
    let q = shape.permutations as f64;
    let cost = |name: &str| median(&spans.per_call_us(name));
    let mut v = BTreeMap::new();

    let identity = cost(call::IDENTITY);
    let permuted = cost(call::PERMUTED);
    let entropy = cost(call::ENTROPY);
    let pair = cost(call::PAIR);
    let extend = cost(call::EXTEND);
    let dense = cost(call::DENSE);
    v.insert("accumulate.identity_us", identity);
    v.insert("accumulate.permuted_us", permuted);
    // m·k row FMAs per joint accumulation.
    let row_fmas = (shape.samples * fixture.config.spline_order) as f64;
    v.insert("accumulate.ns_per_row_fma", identity * 1e3 / row_fmas);
    v.insert("entropy.joint_us", entropy);
    v.insert("pair_us", pair);
    v.insert(
        "pair.fixed_us",
        pair - identity - q * permuted - (q + 1.0) * entropy,
    );
    v.insert("pooled.extend_us", extend);
    v.insert("perms.generate_ms", cost(call::PERMS) / 1e3);
    v.insert("prep.gene_us", cost(call::PREPARE));
    v.insert("dense.gene_us", dense);
    v.insert("output.edge_list_ms", cost(call::EDGE_LIST) / 1e3);
    v.insert("traced.pairs_per_s", traced_rate);
    v.insert("untraced.pairs_per_s", untraced_rate);
    if untraced_rate > 0.0 {
        v.insert("trace.overhead_frac", 1.0 - traced_rate / untraced_rate);
    }

    let traced: Vec<&OpRecord> = ops.iter().filter(|o| o.traced && o.ok).collect();
    let Some(first) = traced.first() else {
        return v;
    };
    v.insert("output.edges", first.edges as f64);
    v.insert("accumulate.joints", first.pairs as f64 * (q + 1.0));
    match &first.detail {
        Some(OpDetail::Batch(stats)) => {
            let batch: Vec<_> = traced
                .iter()
                .filter_map(|o| match &o.detail {
                    Some(OpDetail::Batch(s)) => Some(s),
                    _ => None,
                })
                .collect();
            let med = |f: &dyn Fn(&gnet_core::RunStats) -> f64| {
                median(&batch.iter().map(|s| f(s)).collect::<Vec<_>>())
            };
            let mi_s = med(&|s| s.mi_time.as_secs_f64());
            v.insert("stage.prep_s", med(&|s| s.prep_time.as_secs_f64()));
            v.insert("stage.mi_s", mi_s);
            v.insert("stage.finalize_s", med(&|s| s.finalize_time.as_secs_f64()));
            v.insert("core.candidates", stats.candidates as f64);
            v.insert("sched.tiles", stats.execution.total_tiles() as f64);
            v.insert("sched.imbalance", med(&|s| s.execution.imbalance()));
            v.insert(
                "sched.cpu_util",
                med(&|s| {
                    let busy: f64 = s
                        .execution
                        .per_thread
                        .iter()
                        .map(|t| t.busy.as_secs_f64())
                        .sum();
                    busy / (s.threads as f64 * s.execution.elapsed.as_secs_f64())
                }),
            );
            // One dense expansion per tile column.
            let expansions: u64 = gnet_parallel::TileSpace::new(shape.genes, stats.tile_size)
                .tiles()
                .iter()
                .map(|t| u64::from(t.col_end - t.col_start))
                .sum();
            v.insert("dense.expansions", expansions as f64);
            let pairs = stats.pairs as f64;
            let named_us = pairs * (identity + q * permuted + (q + 1.0) * entropy + extend)
                + expansions as f64 * dense;
            v.insert(
                "accounted_frac",
                named_us / 1e6 / (stats.threads as f64 * mi_s),
            );
        }
        Some(OpDetail::Ring { ranks, .. }) => {
            let busy: Vec<f64> = ranks.iter().map(|r| r.busy.as_secs_f64()).collect();
            let max = busy.iter().copied().fold(0.0, f64::max);
            let min = busy.iter().copied().fold(f64::INFINITY, f64::min);
            let mean = busy.iter().sum::<f64>() / busy.len() as f64;
            v.insert(
                "ring.bytes",
                ranks.iter().map(|r| r.bytes_sent as f64).sum(),
            );
            v.insert(
                "ring.messages",
                ranks.iter().map(|r| r.messages as f64).sum(),
            );
            v.insert("ring.rank_busy_max_s", max);
            v.insert("ring.rank_busy_min_s", min);
            v.insert("ring.wait_s", busy.iter().map(|b| first.secs - b).sum());
            v.insert("ring.imbalance", if mean > 0.0 { max / mean } else { 1.0 });
            v.insert("codec.encode_us", cost(call::ENCODE));
            v.insert("codec.decode_us", cost(call::DECODE));
        }
        Some(OpDetail::Append(stats)) => {
            let save_ms = cost(call::SAVE) / 1e3;
            let load_ms = cost(call::LOAD) / 1e3;
            v.insert("update.pairs_scanned", stats.pairs_scanned as f64);
            let op_secs = median(&traced.iter().map(|o| o.secs).collect::<Vec<_>>());
            v.insert("update.scan_s", op_secs - (save_ms + load_ms) / 1e3);
            v.insert("state.save_ms", save_ms);
            v.insert("state.load_ms", load_ms);
            // The canonical scan expands each appended column once.
            v.insert("dense.expansions", shape.appended as f64);
            if let Some(store) = fixture.append_store() {
                let bytes = std::fs::metadata(store.path()).map_or(0, |m| m.len());
                v.insert("state.bytes", bytes as f64);
            }
        }
        None => {}
    }
    v
}

/// The traced run's summary lines: accounting and tracing overhead.
fn layer_notes(v: &BTreeMap<&'static str, f64>, workload: Workload) -> Vec<String> {
    let get = |name| v.get(name).copied().unwrap_or(0.0);
    let mut notes = Vec::new();
    if workload.is_batch() {
        let frac = get("accounted_frac");
        let verdict = if frac < ACCOUNTED_FLOOR {
            format!(
                "UNACCOUNTED: {:.1}% of threads x stage.mi_s is outside the named layers \
                 (below the {:.0}% floor)",
                (1.0 - frac) * 100.0,
                ACCOUNTED_FLOOR * 100.0
            )
        } else if frac > 1.0 {
            "OVER-ACCOUNTED: the replayed calls ran slower than the workers did \
             (host noise, or a different grid alignment), so per-call costs overstate"
                .to_string()
        } else {
            "accounted".to_string()
        };
        notes.push(format!(
            "accounted_frac = {frac:.3}: sum(layer per-call cost x call count) / \
             (threads x stage.mi_s); {verdict}"
        ));
    }
    notes.push(format!(
        "tracing overhead: traced {:.1} vs untraced {:.1} pairs/s ({:+.1}%)",
        get("traced.pairs_per_s"),
        get("untraced.pairs_per_s"),
        get("trace.overhead_frac") * 100.0
    ));
    notes
}
