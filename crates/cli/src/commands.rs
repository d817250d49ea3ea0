//! The fourteen `gnet` subcommands: [`COMMANDS`] holds each one's option
//! table, which the dispatcher, the parser and the usage text read, and
//! the `cmd_*` functions below run them.

use crate::args::{commands, ArgError, ArgMap, Command};
use gnet_cluster::{
    infer_network_distributed, run_worker, RankRun, TelemetryPlane, TelemetrySpec, Wire,
};
use gnet_core::config::NullStrategy;
use gnet_core::{
    infer_network_durable, infer_network_traced, update_durable, CheckpointStore, DurableError,
    InferenceConfig, MemoryPlan, NetworkState, StateStore, UpdateMode,
};
use gnet_expr::io as expr_io;
use gnet_expr::{ExpressionMatrix, MissingPolicy};
use gnet_graph::dpi::dpi_prune;
use gnet_graph::io as graph_io;
use gnet_graph::{recovery_score, Edge, GeneNetwork};
use gnet_grnsim::{GrnConfig, SyntheticDataset, TopologyKind};
use gnet_mi::MiKernel;
use gnet_obs::bench::BenchSuite;
use gnet_parallel::SchedulerPolicy;
use gnet_phi::scenarios;
use gnet_trace::{diag_chunk, EwmaEta, Progress, Recorder};
use std::fmt;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::num::{NonZeroU64, NonZeroUsize};

/// Any failure a command can produce, rendered for the terminal.
#[derive(Debug)]
pub struct CliError(pub String);

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for CliError {}

impl From<ArgError> for CliError {
    fn from(e: ArgError) -> Self {
        let (ArgError::Syntax(msg) | ArgError::Invalid(msg)) = e;
        Self(msg)
    }
}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        Self(format!("I/O error: {e}"))
    }
}

fn fail<T>(msg: impl Into<String>) -> Result<T, CliError> {
    Err(CliError(msg.into()))
}

/// Every `gnet` subcommand and its option table, in usage order.
pub const COMMANDS: &[Command] = commands! {
    "generate" => cmd_generate: "synthesize a ground-truth GRN expression matrix" {
        value "genes" "N" = "200": "genes (at least two)";
        value "samples" "M" = "300": "samples (at least one)";
        value "seed" "S" = "42": "generator seed";
        value "avg-degree" "D" = "3": "target mean degree of the true network";
        value "topology" "scale-free|erdos-renyi" = "scale-free": "topology family";
        value "batches" "N" = "1": "contiguous measurement batches";
        value "batch-sd" "SD" = "0": "standard deviation of each batch's log shift";
        required "out" "FILE": "matrix TSV to write";
        optional "truth" "FILE": "ground-truth edge list to write";
    };
    "infer" => cmd_infer: "infer a network from a TSV matrix" {
        required "input" "FILE": "expression matrix TSV: a header line, then one gene per line";
        required "output" "FILE": "edge list to write";
        value "q" "N" = "30": "shared permutations per pair (0 needs --threshold)"
            => permutations;
        value "alpha" "A" = "0.01": "family-wise significance level of the pooled threshold"
            => alpha;
        value "bins" "B" = "10": "B-spline histogram bins" => bins;
        value "order" "K" = "3": "B-spline order" => spline_order;
        value "seed" "S" = "1900963653": "permutation seed" => seed;
        optional "threshold" "T": "explicit MI threshold in nats, in place of the pooled I*"
            => mi_threshold;
        optional "threads" "T": "workers (per rank with --ranks); the host's cores when left out"
            => threads;
        optional "tile" "T": "tile edge; the cache-blocking size when left out" => tile_size;
        value "kernel" "vector|scalar" = "vector": "MI kernel" => kernel;
        value "scheduler" "dynamic|static-block|static-cyclic" = "dynamic":
            "tile scheduling policy" => scheduler;
        flag "early-exit": "skip the nulls of pairs below a pre-pass threshold"
            => null_strategy;
        optional "dpi" "EPS": "prune the network by the data-processing inequality, EPS in [0, 1)";
        flag "quantile-normalize": "quantile-normalize the samples first";
        optional "center-batches" "N": "center N contiguous equal sample batches first";
        optional "ranks" "P":
            "run P ring ranks, each on --threads workers, in place of shared memory";
        optional "listen" "ADDR":
            "with --ranks P >= 2: TCP coordinator that waits for P-1 `gnet worker`s";
        optional "trace-dir" "DIR": "with --ranks: one NDJSON stream per rank plus a manifest";
        optional "status-addr" "ADDR": "with --ranks: live /status and /metrics HTTP listener";
        optional "status-file" "FILE": "with --ranks: gnet-status/1 JSON, rewritten atomically";
        value "status-interval-ms" "N" = "250": "heartbeat cadence of the status plane";
        optional "trace" "FILE": "NDJSON event stream of the shared-memory pipeline";
        optional "metrics" "FILE": "metrics summary JSON of the shared-memory pipeline";
        flag "progress": "live stderr progress line with an ETA";
        optional "checkpoint-dir" "DIR": "durable checkpoints of the shared-memory pipeline";
        value "checkpoint-every" "N" = "8": "tiles between checkpoints";
        flag "resume": "continue from the checkpoint in --checkpoint-dir";
        optional "fault-plan" "PLAN": "inject a replayable fault plan (see gnet-fault)";
        optional "save-state" "DIR":
            "also save the updatable state bundle `gnet update` appends to";
    } rules {
        Excludes ["ranks"] ["trace", "metrics", "progress"]:
            "--trace/--metrics/--progress instrument the shared-memory pipeline and cannot be \
             combined with --ranks";
        Requires ["trace-dir"] ["ranks"]:
            "--trace-dir writes one stream per rank and needs --ranks; use --trace FILE for the \
             shared-memory pipeline";
        Requires ["listen"] ["ranks"]: LISTEN_NEEDS_RING;
        Requires ["status-addr", "status-file"] ["ranks"]:
            "--status-addr/--status-file stream live telemetry from the distributed path and \
             need --ranks";
        Requires ["status-interval-ms"] ["status-addr", "status-file"]:
            "--status-interval-ms needs --status-addr or --status-file";
        Requires ["resume", "checkpoint-every"] ["checkpoint-dir"]:
            "--resume/--checkpoint-every need --checkpoint-dir";
        Excludes ["ranks"] ["checkpoint-dir"]:
            "checkpoints (--checkpoint-dir) cover the shared-memory pipeline; the distributed \
             path (--ranks) recovers via rank failover instead";
        Excludes ["checkpoint-dir"] ["early-exit"]:
            "a checkpoint (--checkpoint-dir) holds the exact pooled null, which --early-exit \
             does not compute; drop one of them";
        Excludes ["ranks"] ["early-exit"]:
            "--early-exit needs the shared-memory pipeline's threshold pre-pass and cannot be \
             combined with --ranks";
        Excludes ["save-state"] ["early-exit"]:
            "--save-state needs the exact-full pooled null (drop --early-exit): an updatable \
             state must keep the pooled moments";
    };
    "update" => cmd_update: "incrementally append genes or samples to a saved state" {
        required "state" "DIR": "state bundle written by `gnet infer --save-state`";
        required "append" "FILE": "TSV of the appended genes or samples";
        required "output" "FILE": "updated edge list to write";
        optional "mode" "genes|samples": "what the append adds; told from its shape when left out";
        value "checkpoint-every" "N" = "8": "scanned tiles between progress saves";
        flag "resume": "continue an interrupted update from its progress file";
        optional "fault-plan" "PLAN":
            "inject a replayable fault plan, e.g. update-crash(boundary=B)";
    };
    "worker" => cmd_worker: "join a multi-process run started by `gnet infer --listen`" {
        required "connect" "IP:PORT": "the address the coordinator printed";
        optional "trace-dir" "DIR": "this machine's trace directory, in place of the coordinator's";
    };
    "status" => cmd_status: "one-screen live summary of a running inference" {
        required "target" "TARGET":
            "IP:PORT of a status listener, or a --status-file; may come first, bare";
        flag "metrics": "print the listener's Prometheus exposition instead";
        flag "json": "print the raw gnet-status/1 document";
    } rules {
        Excludes ["metrics"] ["json"]: "--metrics is the Prometheus text form; drop --json";
    };
    "trace-report" => cmd_trace_report: "offline analysis of recorded traces" {
        optional "trace" "FILE": "single-process NDJSON stream";
        optional "trace-dir" "DIR":
            "per-rank streams and manifest of `gnet infer --ranks P --trace-dir`";
        optional "chrome" "FILE": "also write Chrome trace-event JSON (Perfetto, chrome://tracing)";
        optional "flame" "FILE": "also write folded flamegraph stacks";
        flag "no-calibrate": "skip the live kernel measurement behind the % model column";
    } rules {
        Requires [] ["trace", "trace-dir"]: ONE_TRACE_SOURCE;
        Excludes ["trace"] ["trace-dir"]: ONE_TRACE_SOURCE;
    };
    "bench" => cmd_bench: "seeded benchmark suite and regression gate" {
        flag "quick": "smaller shapes and 3 reps: the CI mode";
        optional "reps" "K": "repetitions per series, in place of the mode's";
        value "out" "FILE" = "BENCH_14.json": "artifact to write";
        optional "baseline" "FILE": "exit nonzero on significant regressions against this artifact";
        flag "update-baseline": "overwrite --baseline with this run instead of gating against it";
        value "inject-slowdown" "F" = "1":
            "slow the vector kernel F-fold, F in [1, 64]: the gate's self-test";
    } rules {
        Requires ["update-baseline"] ["baseline"]:
            "--update-baseline needs --baseline FILE (the artifact to refresh)";
    };
    "simd" => cmd_simd: "report the SIMD backend the kernel dispatcher picked" {
        flag "verify": "exit nonzero on an unhealthy dispatch";
    };
    "score" => cmd_score: "score an edge list against a ground truth" {
        required "edges" "FILE": "inferred edge list";
        required "truth" "FILE": "ground-truth edge list";
        required "matrix" "FILE": "the matrix both lists name genes of";
    };
    "topology" => cmd_topology: "topology report of an edge list" {
        required "edges" "FILE": "edge list";
        required "matrix" "FILE": "the matrix the list names genes of";
        value "hubs" "N" = "10": "hubs to list";
    };
    "analyze" => cmd_analyze:
        "static analysis, scheduler race checker and ring-protocol model checker" {
        value "root" "DIR" = ".": "workspace root";
        optional "allowlist" "FILE": "vetted lint exceptions";
        flag "json": "print the gnet-analyze/2 JSON document";
        flag "deny": "exit nonzero on any lint violation";
        flag "deny-stale": "exit nonzero on stale allowlist entries";
        flag "unsafe-audit": "report only the unsafe-audit lints";
        flag "concurrency": "run the deterministic scheduler interleaving checker";
        value "runs" "N" = "25": "seeded runs of --concurrency";
        flag "protocol": "explore the unmutated ring protocol";
        flag "self-check": "prove the checker catches three injected protocol mutations";
        flag "full": "nightly-depth protocol bounds";
        optional "max-ranks" "N": "drop ring sizes above N from the bounds";
        optional "replay" "SPEC": "re-execute one protocol schedule and exit";
    };
    "conformance" => cmd_conformance: "differential and metamorphic conformance harness" {
        value "level" "quick|full" = "quick": "corpus depth";
        value "seed" "S" = "1668247142": "corpus seed";
        flag "json": "print the JSON report";
        optional "report" "FILE": "also write the JSON report, pass or fail";
        flag "self-check": "prove the harness catches injected mutations";
        optional "replay" "SPEC": "re-run one dataset spec";
    } rules {
        Excludes ["self-check"] ["replay"]: "--self-check and --replay are mutually exclusive";
    };
    "stats" => cmd_stats: "summarize a TSV matrix" {
        required "input" "FILE": "expression matrix TSV";
    };
    "predict" => cmd_predict: "modeled platform runtimes" {
        value "genes" "N" = "15575": "genes (at least two)";
        value "samples" "M" = "3137": "samples";
        value "q" "N" = "30": "permutations per pair";
    };
};

/// Create an output file, naming the path in the error — a bare
/// "permission denied" with no path is useless in a pipeline log.
fn create_file(path: &str) -> Result<File, CliError> {
    File::create(path).map_err(|e| CliError(format!("cannot create {path}: {e}")))
}

/// `gnet generate` — synthesize a ground-truth GRN dataset. Options:
/// [`COMMANDS`].
fn cmd_generate(args: &ArgMap, out: &mut dyn Write) -> Result<(), CliError> {
    let genes = genes(args)?;
    let samples = args.value::<NonZeroUsize>("samples")?.get();
    let seed = args.value("seed")?;
    let avg_degree: f64 = args.value("avg-degree")?;
    let topology = match args.get("topology") {
        Some("erdos-renyi") => TopologyKind::ErdosRenyi,
        _ => TopologyKind::ScaleFree,
    };
    let batches = args.value("batches")?;
    let batch_sd = args.value("batch-sd")?;
    let matrix_path: String = args.value("out")?;
    if !(avg_degree.is_finite() && avg_degree > 0.0) {
        return fail(format!(
            "bad --avg-degree {avg_degree}: must be finite and positive"
        ));
    }

    let ds = SyntheticDataset::generate(
        GrnConfig {
            genes,
            samples,
            topology,
            avg_degree,
            batches,
            batch_sd,
            ..GrnConfig::small()
        },
        seed,
    );
    expr_io::write_tsv(&ds.matrix, BufWriter::new(create_file(&matrix_path)?))
        .map_err(|e| CliError(format!("cannot write {matrix_path}: {e}")))?;
    writeln!(out, "wrote {genes}×{samples} matrix to {matrix_path}")?;

    if let Some(path) = args.get("truth") {
        let truth_net = GeneNetwork::from_edges(
            genes,
            ds.matrix.gene_names().to_vec(),
            ds.truth_edges()
                .into_iter()
                .map(|(a, b)| Edge::new(a, b, 1.0)),
        );
        graph_io::write_edge_list(&truth_net, BufWriter::new(create_file(path)?))
            .map_err(|e| CliError(format!("cannot write {path}: {e}")))?;
        writeln!(
            out,
            "wrote {} ground-truth edges to {path}",
            truth_net.edge_count()
        )?;
    }
    Ok(())
}

/// `--genes`, which must be at least two: a network needs a pair.
fn genes(args: &ArgMap) -> Result<usize, CliError> {
    match args.value("genes")? {
        genes if genes < 2 => fail(format!(
            "bad --genes {genes}: a network needs at least two genes"
        )),
        genes => Ok(genes),
    }
}

fn load_matrix(path: &str) -> Result<ExpressionMatrix, CliError> {
    let file = File::open(path).map_err(|e| CliError(format!("cannot open {path}: {e}")))?;
    expr_io::read_tsv(file, true, MissingPolicy::MeanImpute)
        .map_err(|e| CliError(format!("cannot read {path}: {e}")))
}

/// The `InferenceConfig` the `gnet infer` rows that name a field fill; a
/// value `InferenceConfig::check` refuses is an error naming its option.
fn config_from_args(args: &ArgMap) -> Result<InferenceConfig, CliError> {
    let cfg = InferenceConfig {
        bins: args.value("bins")?,
        spline_order: args.value("order")?,
        permutations: args.value("q")?,
        alpha: args.value("alpha")?,
        mi_threshold: args.parsed("threshold")?,
        seed: args.value("seed")?,
        kernel: match args.get("kernel") {
            Some("scalar") => MiKernel::ScalarSparse,
            _ => MiKernel::VectorDense,
        },
        tile_size: args.parsed("tile")?,
        threads: args.parsed("threads")?,
        scheduler: args
            .get("scheduler")
            .and_then(SchedulerPolicy::from_slug)
            .expect("the --scheduler metavar lists policy slugs"),
        null_strategy: match args.flag("early-exit") {
            true => NullStrategy::EarlyExit,
            false => NullStrategy::ExactFull,
        },
        ..InferenceConfig::default()
    };
    cfg.check()
        .map_err(|e| CliError(format!("bad --{}: {}", args.option_for(e.field), e.reason)))?;
    Ok(cfg)
}

/// Build the progress sink installed behind `gnet infer --progress`: a
/// single stderr status line (tiles done / total / percent / ETA),
/// rewritten in place and rate-limited to ~5 updates per second. The
/// final update (done == total) is always printed.
///
/// The ETA is EWMA-smoothed over per-chunk durations ([`EwmaEta`]) so a
/// rate change mid-run — early-exit pruning kicking in, a machine that
/// warms up or gets loaded — moves the estimate toward the *recent*
/// rate instead of the whole-run mean the raw `Progress::eta` reports.
///
/// Each repaint goes through [`gnet_trace::diag_chunk`], the process-wide
/// line-buffered stderr writer, so a concurrently-printing rank or thread
/// can never splice its output into the middle of the progress line.
fn progress_sink() -> impl Fn(Progress) + Send + Sync + 'static {
    let state = std::sync::Mutex::new((EwmaEta::new(), None::<std::time::Instant>));
    move |p: Progress| {
        let mut state = state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let eta_estimate = state.0.update(p);
        let due = p.done >= p.total
            || state
                .1
                .is_none_or(|t| t.elapsed() >= std::time::Duration::from_millis(200));
        if !due {
            return;
        }
        state.1 = Some(std::time::Instant::now());
        let eta = match eta_estimate {
            Some(d) => format!("{d:.0?}"),
            None => "?".to_string(),
        };
        let mut line = format!(
            "\rtiles {}/{} ({:3.0}%)  ETA {eta}    ",
            p.done,
            p.total,
            p.fraction() * 100.0
        );
        if p.done >= p.total {
            line.push('\n');
        }
        diag_chunk(&line);
    }
}

/// `--listen`'s rule row and value check: a coordinator needs a ring.
const LISTEN_NEEDS_RING: &str =
    "--listen starts a multi-process coordinator and needs --ranks P with P >= 2";

/// `--fault-plan`; a plan that does not parse is an error naming it.
fn fault_plan(args: &ArgMap) -> Result<Option<gnet_fault::FaultPlan>, CliError> {
    let plan = args.get("fault-plan").map(gnet_fault::FaultPlan::parse);
    plan.transpose()
        .map_err(|e| CliError(format!("bad --fault-plan: {e}")))
}

/// The injector of a `--fault-plan`, reporting to `rec`; none without one.
fn injector(plan: Option<&gnet_fault::FaultPlan>, rec: &Recorder) -> gnet_fault::FaultInjector {
    plan.map_or_else(gnet_fault::FaultInjector::none, |plan| {
        gnet_fault::FaultInjector::from_plan_traced(plan, rec)
    })
}

/// `gnet infer` — run the pipeline on a TSV matrix: in shared memory,
/// checkpointed, or over `P` ring ranks (in-process or with `gnet worker`
/// processes over TCP). Every path writes the same edge bytes and ends
/// with the same evidence, which `--save-state` saves as the bundle
/// `gnet update` appends to; the instruments (trace, metrics, progress,
/// status plane) only observe. Options: [`COMMANDS`].
fn cmd_infer(args: &ArgMap, out: &mut dyn Write) -> Result<(), CliError> {
    let input: String = args.value("input")?;
    let dpi: Option<f32> = args.parsed("dpi")?;
    if let Some(eps) = dpi.filter(|eps| !(0.0..1.0).contains(eps)) {
        return fail(format!("bad --dpi {eps}: must lie in [0, 1)"));
    }
    let ranks: Option<usize> = args.parsed("ranks")?;
    if args.get("listen").is_some() && ranks.is_none_or(|p| p < 2) {
        return fail(LISTEN_NEEDS_RING);
    }
    let status_interval_ms = args.value::<NonZeroU64>("status-interval-ms")?.get();
    let checkpoint_every = args.value::<NonZeroUsize>("checkpoint-every")?.get();
    let fault_plan = fault_plan(args)?;
    let center_batches = args.parsed::<NonZeroUsize>("center-batches")?;
    let cfg = config_from_args(args)?;

    let mut matrix = load_matrix(&input)?;
    writeln!(
        out,
        "loaded {} genes × {} samples from {input}",
        matrix.genes(),
        matrix.samples()
    )?;
    if matrix.genes() < 2 {
        return fail(format!(
            "{input} holds {} gene(s); a network needs at least two",
            matrix.genes()
        ));
    }
    if matrix.samples() < 2 && cfg.permutations > 0 {
        return fail(format!(
            "{input} holds {} sample(s); permutation nulls need at least two (or --q 0 with --threshold)",
            matrix.samples()
        ));
    }
    if let Some(p) = ranks.filter(|&p| p == 0 || p > matrix.genes()) {
        return fail(format!(
            "--ranks {p} needs between 1 and {} ranks, one gene or more per rank",
            matrix.genes()
        ));
    }

    if args.flag("quantile-normalize") {
        matrix = gnet_expr::normalize::quantile_normalize(&matrix);
        writeln!(out, "quantile-normalized {} samples", matrix.samples())?;
    }
    if let Some(batches) = center_batches.map(NonZeroUsize::get) {
        // Contiguous equal batches, matching `gnet generate`'s layout. The
        // last holds the remainder, so it is the smallest, and a batch of
        // one sample would be centered to nothing.
        let m = matrix.samples();
        let per = m.div_ceil(batches);
        let last = m.saturating_sub((batches - 1).saturating_mul(per));
        if last < 2 {
            return fail(format!(
                "--center-batches {batches} leaves a batch of {last} of the {m} samples; \
                 each needs at least two"
            ));
        }
        let labels: Vec<u32> = (0..m)
            .map(|s| {
                u32::try_from((s / per).min(batches - 1)).expect("batch count fits the u32 label")
            })
            .collect();
        matrix = gnet_expr::normalize::center_batches(&matrix, &labels);
        writeln!(out, "centered {batches} contiguous batches")?;
    }

    // One recorder serves all three observability options; without any of
    // them it is the inert handle and the run is uninstrumented.
    let rec = if args.flag("progress") {
        Recorder::enabled_with_progress(progress_sink())
    } else if args.get("trace").is_some() || args.get("metrics").is_some() {
        Recorder::enabled()
    } else {
        Recorder::disabled()
    };

    let injector = injector(fault_plan.as_ref(), &rec);

    // The live telemetry plane: a `--status-file` JSON document and/or a
    // `/status` + `/metrics` HTTP listener, fed by in-band worker
    // heartbeats. Purely observational — the edge set is byte-identical
    // with or without it.
    let (status_addr, status_file) = (args.get("status-addr"), args.get("status-file"));
    let mut plane = if status_addr.is_some() || status_file.is_some() {
        let spec = TelemetrySpec {
            status_addr: status_addr.map(str::to_string),
            status_file: status_file.map(std::path::PathBuf::from),
            interval: std::time::Duration::from_millis(status_interval_ms),
        };
        let genes = matrix.genes() as u64;
        let p = ranks.expect("telemetry requires --ranks (validated above)");
        let plane = TelemetryPlane::start(&spec, p, genes * genes.saturating_sub(1) / 2)
            .map_err(|e| CliError(format!("cannot start the status plane: {e}")))?;
        if let Some(addr) = plane.status_addr() {
            // Announced on stdout (and flushed) so a harness scraping
            // mid-run can learn the ephemeral port, mirroring the
            // `listening on` line of the --listen coordinator.
            writeln!(out, "status listening on {addr}")?;
            out.flush()?;
        }
        Some(plane)
    } else {
        None
    };

    let t0 = std::time::Instant::now();
    let trace_dir = args.get("trace-dir");
    let (mut network, summary, scan) = match ranks {
        Some(p) => {
            let listener = match args.get("listen") {
                Some(addr) => {
                    let listener = std::net::TcpListener::bind(addr)
                        .map_err(|e| CliError(format!("cannot bind {addr}: {e}")))?;
                    let local = listener
                        .local_addr()
                        .map_err(|e| CliError(format!("cannot resolve bound address: {e}")))?;
                    // Announced before the accept loop blocks, and flushed so
                    // a launcher reading this pipe can start the workers.
                    writeln!(out, "listening on {local}")?;
                    out.flush()?;
                    Some(listener)
                }
                None => None,
            };
            let run = RankRun {
                wire: listener.as_ref().map_or(Wire::Channels, Wire::Processes),
                faults: injector.clone(),
                recorder: rec.clone(),
                trace_dir: trace_dir.map(std::path::Path::new),
                plane: plane.as_ref(),
                ..RankRun::new(p)
            };
            let r = infer_network_distributed(&matrix, &cfg, &run)
                .map_err(|e| CliError(e.to_string()))?;
            if let Some(dir) = trace_dir {
                writeln!(out, "wrote {p} per-rank trace streams + manifest to {dir}")?;
            }
            let pairs: u64 = r.rank_stats.iter().map(|s| s.pairs).sum();
            let mut summary = format!("{} ranks, {} pairs, I* = {:.4}", p, pairs, r.threshold);
            if !r.crashed_ranks.is_empty() {
                summary.push_str(&format!(
                    " (recovered from {} lost rank(s): {:?})",
                    r.crashed_ranks.len(),
                    r.crashed_ranks
                ));
            }
            (r.network, summary, r.scan)
        }
        None => {
            let (r, time, note) = match args.get("checkpoint-dir") {
                Some(dir) => {
                    let store = CheckpointStore::with_faults(dir, injector.clone(), &rec);
                    let resume = args.flag("resume");
                    let r = infer_network_durable(&matrix, &cfg, &store, checkpoint_every, resume, &rec)
                        .map_err(|e| match e {
                            DurableError::Interrupted { tiles_done, .. } => CliError(format!(
                                "run interrupted after {tiles_done} tile(s); checkpoint saved in {dir} — rerun with --resume to continue"
                            )),
                            other => CliError(other.to_string()),
                        })?;
                    let note = format!(" [checkpointed every {checkpoint_every} tiles]");
                    (r, t0.elapsed(), note)
                }
                None => {
                    let r = infer_network_traced(&matrix, &cfg, &rec);
                    let time = r.stats.total_time();
                    (r, time, String::new())
                }
            };
            let (pairs, rate, threshold) = (r.stats.pairs, r.stats.pair_rate(), r.stats.threshold);
            let summary =
                format!("{pairs} pairs in {time:?} ({rate:.0} pairs/s), I* = {threshold:.4}{note}");
            (r.network, summary, r.scan)
        }
    };
    writeln!(out, "{summary}")?;
    if let Some(dir) = args.get("save-state") {
        let state = NetworkState::new(&cfg, matrix, scan);
        let store = StateStore::with_faults(dir, injector.clone(), &rec);
        store.save(&state).map_err(|e| CliError(e.to_string()))?;
        writeln!(out, "saved the updatable state to {dir}")?;
    }

    if let Some(mut live) = plane.take() {
        live.finish()
            .map_err(|e| CliError(format!("cannot finalize the status plane: {e}")))?;
        if let Some(path) = status_file {
            writeln!(out, "final status snapshot in {path}")?;
        }
    }

    if let Some(path) = args.get("trace") {
        let mut w = BufWriter::new(create_file(path)?);
        rec.write_ndjson(&mut w)?;
        w.flush()?;
        writeln!(out, "wrote trace events to {path}")?;
    }
    if let Some(path) = args.get("metrics") {
        let mut w = BufWriter::new(create_file(path)?);
        rec.write_metrics_json(&mut w)?;
        w.flush()?;
        writeln!(out, "wrote metrics to {path}")?;
    }

    if let Some(eps) = dpi {
        let before = network.edge_count();
        network = dpi_prune(&network, eps);
        writeln!(
            out,
            "DPI(ε={eps}): {before} → {} edges",
            network.edge_count()
        )?;
    }

    let output: String = args.value("output")?;
    graph_io::write_edge_list(&network, BufWriter::new(create_file(&output)?))
        .map_err(|e| CliError(format!("cannot write {output}: {e}")))?;
    writeln!(out, "wrote {} edges to {output}", network.edge_count())?;
    Ok(())
}

/// `gnet update` — apply an incremental append to a saved state bundle.
/// Options: [`COMMANDS`].
///
/// The updated bundle and edge list are byte-identical to a from-scratch
/// `gnet infer --save-state` over the concatenated dataset — the
/// batch-equivalence contract pinned by conformance family 6 — but a
/// gene append scans only the `g·(N−g) + g·(g−1)/2` new-pair frontier.
fn cmd_update(args: &ArgMap, out: &mut dyn Write) -> Result<(), CliError> {
    let state_dir: String = args.value("state")?;
    let append_path: String = args.value("append")?;
    let mode = args.get("mode").map(|m| match m {
        "genes" => UpdateMode::Genes,
        _ => UpdateMode::Samples,
    });
    let checkpoint_every = args.value::<NonZeroUsize>("checkpoint-every")?.get();
    let fault_plan = fault_plan(args)?;

    let append = load_matrix(&append_path)?;
    writeln!(
        out,
        "loaded {} genes × {} samples to append from {append_path}",
        append.genes(),
        append.samples()
    )?;

    let rec = Recorder::disabled();
    let store = StateStore::with_faults(&state_dir, injector(fault_plan.as_ref(), &rec), &rec);
    let t0 = std::time::Instant::now();
    let resume = args.flag("resume");
    let (state, stats) = update_durable(&store, &append, mode, checkpoint_every, resume, &rec)
        .map_err(|e| match e {
            DurableError::Interrupted { pairs_done, .. } => CliError(format!(
                "update interrupted after {pairs_done} pair(s); progress saved in {state_dir} — rerun with --resume to continue"
            )),
            e @ DurableError::Append { .. } => {
                CliError(format!("cannot append {append_path}: {e}"))
            }
            other => CliError(other.to_string()),
        })?;
    let resumed_note = if stats.pairs_resumed > 0 {
        format!(" ({} resumed from progress)", stats.pairs_resumed)
    } else {
        String::new()
    };
    writeln!(
        out,
        "appended {} {}: scanned {} pairs{resumed_note} in {:?}, state now {} genes × {} samples, I* = {:.4}",
        stats.appended,
        match stats.mode {
            UpdateMode::Genes => "gene(s)",
            UpdateMode::Samples => "sample(s)",
        },
        stats.pairs_scanned,
        t0.elapsed(),
        state.gene_count(),
        state.matrix.samples(),
        stats.threshold
    )?;

    let network = state.network();
    let output: String = args.value("output")?;
    graph_io::write_edge_list(&network, BufWriter::new(create_file(&output)?))
        .map_err(|e| CliError(format!("cannot write {output}: {e}")))?;
    writeln!(out, "wrote {} edges to {output}", network.edge_count())?;
    Ok(())
}

/// `gnet worker` — join a multi-process distributed run as one rank.
/// Options: [`COMMANDS`]. Everything else — rank, matrix, config, fault
/// plan — arrives from the coordinator over the wire.
fn cmd_worker(args: &ArgMap, out: &mut dyn Write) -> Result<(), CliError> {
    let addr = args.value("connect")?;
    let report = run_worker(addr, args.get("trace-dir").map(std::path::Path::new))
        .map_err(|e| CliError(e.to_string()))?;
    if report.crashed {
        writeln!(
            out,
            "rank {} of {}: killed by the fault plan (simulated crash)",
            report.rank, report.ranks
        )?;
    } else {
        writeln!(out, "rank {} of {} done", report.rank, report.ranks)?;
    }
    Ok(())
}

/// Plain HTTP/1.0 GET against the status listener: one request, read to
/// EOF, no keep-alive — exactly what `StatusServer` serves.
fn http_get(addr: &str, path: &str) -> Result<String, CliError> {
    use std::io::Read;
    let mut stream = std::net::TcpStream::connect(addr)
        .map_err(|e| CliError(format!("cannot connect to {addr}: {e}")))?;
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(10)))
        .map_err(|e| CliError(format!("cannot arm the read timeout: {e}")))?;
    write!(
        stream,
        "GET {path} HTTP/1.0\r\nHost: {addr}\r\nConnection: close\r\n\r\n"
    )
    .map_err(|e| CliError(format!("cannot send the request to {addr}: {e}")))?;
    let mut response = String::new();
    stream
        .read_to_string(&mut response)
        .map_err(|e| CliError(format!("cannot read the response from {addr}: {e}")))?;
    let Some((head, body)) = response.split_once("\r\n\r\n") else {
        return fail(format!("malformed HTTP response from {addr}"));
    };
    let status_line = head.lines().next().unwrap_or_default();
    if !status_line.contains(" 200 ") {
        return fail(format!("{addr}{path} answered: {status_line}"));
    }
    Ok(body.to_string())
}

fn render_status_summary(s: &gnet_obs::StatusSummary, out: &mut dyn Write) -> Result<(), CliError> {
    #[allow(clippy::cast_precision_loss)] // cast-ok: display percentage only
    let pct = if s.pairs_total > 0 {
        s.pairs_done as f64 / s.pairs_total as f64 * 100.0
    } else {
        0.0
    };
    let eta = match s.eta_us {
        Some(us) => format!("{:.0?}", std::time::Duration::from_micros(us)),
        None => "?".to_string(),
    };
    writeln!(
        out,
        "gnet-status/1: {} — {} ranks, round {}, elapsed {:.0?}",
        s.state,
        s.ranks,
        s.round_max,
        std::time::Duration::from_micros(s.elapsed_us),
    )?;
    writeln!(
        out,
        "pairs {}/{} ({pct:.1}%) at {:.0} pairs/s, ETA {eta}",
        s.pairs_done, s.pairs_total, s.pairs_per_s,
    )?;
    if !s.stragglers.is_empty() || !s.stragglers_seen.is_empty() {
        writeln!(
            out,
            "stragglers now {:?}, ever {:?}",
            s.stragglers, s.stragglers_seen
        )?;
    }
    writeln!(
        out,
        "{:>5} {:>9} {:>6} {:>10} {:>10} {:>10} {:>6} {:>6}",
        "rank", "state", "round", "pairs", "pairs/s", "beat_age", "beats", "queue"
    )?;
    for r in &s.per_rank {
        let state = if r.dead {
            "dead"
        } else if r.done {
            "done"
        } else if r.straggler {
            "straggler"
        } else if r.suspect {
            "suspect"
        } else {
            "running"
        };
        let age = match r.beat_age_us {
            Some(us) => format!("{:.0?}", std::time::Duration::from_micros(us)),
            None => "-".to_string(),
        };
        writeln!(
            out,
            "{:>5} {:>9} {:>6} {:>10} {:>10.0} {:>10} {:>6} {:>6}",
            r.rank, state, r.round, r.pairs, r.pairs_per_s, age, r.beats, r.queue_depth,
        )?;
    }
    Ok(())
}

/// `gnet status` — render a running (or finished) inference's live
/// telemetry as a one-screen summary. Options: [`COMMANDS`].
///
/// The target is either the `IP:PORT` a coordinator announced with
/// `status listening on …` (scraped over HTTP) or the path of a
/// `--status-file` JSON document. Every fetched document is validated
/// against the pinned closed-world schema first, so a drifted producer
/// fails loudly here and in CI.
fn cmd_status(args: &ArgMap, out: &mut dyn Write) -> Result<(), CliError> {
    let target: String = args.value("target")?;
    let metrics = args.flag("metrics");
    let is_addr = target.parse::<std::net::SocketAddr>().is_ok();
    if metrics && !is_addr {
        return fail(
            "--metrics scrapes the HTTP listener; a --status-file holds only the JSON document",
        );
    }
    if metrics {
        let body = http_get(&target, "/metrics")?;
        let samples = gnet_obs::validate_prometheus(&body).map_err(|e| CliError(e.to_string()))?;
        write!(out, "{body}")?;
        writeln!(out, "# {samples} samples, schema ok")?;
        return Ok(());
    }
    let body = if is_addr {
        http_get(&target, "/status")?
    } else {
        std::fs::read_to_string(&target)
            .map_err(|e| CliError(format!("cannot read {target}: {e}")))?
    };
    let summary = gnet_obs::validate_status_json(&body).map_err(|e| CliError(e.to_string()))?;
    if args.flag("json") {
        writeln!(out, "{body}")?;
    } else {
        render_status_summary(&summary, out)?;
    }
    Ok(())
}

/// The edge list at `path`, over the genes of `matrix`.
fn load_edges(path: &str, matrix: &ExpressionMatrix) -> Result<GeneNetwork, CliError> {
    let file = File::open(path).map_err(|e| CliError(format!("cannot open {path}: {e}")))?;
    graph_io::read_edge_list(file, matrix.genes(), matrix.gene_names().to_vec())
        .map_err(|e| CliError(format!("cannot read {path}: {e}")))
}

/// `gnet score` — precision/recall of an inferred edge list against a
/// ground-truth edge list. Options: [`COMMANDS`].
fn cmd_score(args: &ArgMap, out: &mut dyn Write) -> Result<(), CliError> {
    let matrix = load_matrix(&args.value::<String>("matrix")?)?;
    let inferred = load_edges(&args.value::<String>("edges")?, &matrix)?;
    let truth_net = load_edges(&args.value::<String>("truth")?, &matrix)?;
    let truth: Vec<(u32, u32)> = truth_net.edges().iter().map(|e| e.key()).collect();

    let score = recovery_score(&inferred, &truth);
    writeln!(out, "edges      {}", inferred.edge_count())?;
    writeln!(out, "truth      {}", truth.len())?;
    writeln!(out, "precision  {:.4}", score.precision())?;
    writeln!(out, "recall     {:.4}", score.recall())?;
    writeln!(out, "F1         {:.4}", score.f1())?;
    Ok(())
}

/// `gnet stats` — summary of an expression matrix. Options: [`COMMANDS`].
fn cmd_stats(args: &ArgMap, out: &mut dyn Write) -> Result<(), CliError> {
    let matrix = load_matrix(&args.value::<String>("input")?)?;
    writeln!(out, "genes    {}", matrix.genes())?;
    writeln!(out, "samples  {}", matrix.samples())?;
    writeln!(out, "bytes    {}", matrix.heap_bytes())?;
    let mut grand = gnet_expr::stats::summarize(matrix.gene(0));
    for g in 1..matrix.genes() {
        let s = gnet_expr::stats::summarize(matrix.gene(g));
        grand.min = grand.min.min(s.min);
        grand.max = grand.max.max(s.max);
    }
    writeln!(out, "range    [{:.4}, {:.4}]", grand.min, grand.max)?;
    let low_var = gnet_expr::stats::low_variance_genes(&matrix, 1e-9).len();
    writeln!(out, "constant genes (var < 1e-9): {low_var}")?;
    let config = InferenceConfig::default();
    let (genes, samples) = (matrix.genes(), matrix.samples());
    let (threads, tile) = (
        config.resolved_threads(),
        config.resolved_tile_size(genes, samples),
    );
    let plan = MemoryPlan::new(&config, genes, samples);
    writeln!(out, "memory   {}", plan.summary(tile, threads))?;
    Ok(())
}

/// `gnet topology` — topology report of an inferred network. Options:
/// [`COMMANDS`].
fn cmd_topology(args: &ArgMap, out: &mut dyn Write) -> Result<(), CliError> {
    use gnet_graph::{analysis, connected_components};
    let hub_count = args.value("hubs")?;
    let matrix = load_matrix(&args.value::<String>("matrix")?)?;
    let net = load_edges(&args.value::<String>("edges")?, &matrix)?;

    writeln!(out, "genes            {}", net.genes())?;
    writeln!(out, "edges            {}", net.edge_count())?;
    writeln!(out, "density          {:.6}", net.density())?;
    let comps = connected_components(&net);
    writeln!(
        out,
        "components       {} (largest: {})",
        comps.len(),
        comps[0].len()
    )?;
    match analysis::degree_assortativity(&net) {
        Some(r) => writeln!(out, "assortativity    {r:.4}")?,
        None => writeln!(out, "assortativity    undefined")?,
    }
    let core = analysis::core_numbers(&net);
    let max_core = core.iter().copied().max().unwrap_or(0);
    let in_max_core = core.iter().filter(|&&c| c == max_core).count();
    writeln!(out, "max k-core       {max_core} ({in_max_core} genes)")?;

    writeln!(out, "\ntop hubs:")?;
    for (g, d) in analysis::top_hubs(&net, hub_count) {
        writeln!(out, "  {:24} degree {d}", net.gene_names()[g as usize])?;
    }
    Ok(())
}

/// `gnet analyze` — workspace static analysis, the scheduler race
/// checker, and the ring-protocol model checker. Options: [`COMMANDS`].
fn cmd_analyze(args: &ArgMap, out: &mut dyn Write) -> Result<(), CliError> {
    use gnet_analysis::report::{AnalyzeDocument, ConcurrencySection};
    use gnet_analysis::{check_determinism, protocol, run_lints, Allowlist, InterleaveConfig};

    let root: std::path::PathBuf = args.value("root")?;
    let allowlist = match args.get("allowlist") {
        Some(path) => Allowlist::load(std::path::Path::new(path)).map_err(CliError)?,
        None => Allowlist::default(),
    };
    let concurrency = args.flag("concurrency");
    let runs = args.value("runs")?;
    let max_ranks: Option<usize> = args.parsed("max-ranks")?;
    if concurrency && runs == 0 {
        return fail("--runs must be at least 1: zero runs would verify nothing");
    }

    // Replay is a standalone mode: parse the spec, re-execute it
    // deterministically, report what it exhibits.
    if let Some(spec) = args.get("replay") {
        let schedule = protocol::Schedule::parse(spec).map_err(CliError)?;
        match protocol::replay(&schedule).map_err(CliError)? {
            Some(v) => writeln!(out, "replay: reproduced {} — {}", v.kind(), v.render())?,
            None => writeln!(out, "replay: schedule ran clean (no violation)")?,
        }
        return Ok(());
    }

    let mut report = run_lints(&root, &allowlist)
        .map_err(|e| CliError(format!("cannot scan {}: {e}", root.display())))?;
    if report.files_scanned == 0 {
        return fail(format!(
            "no sources under {} — is --root the workspace?",
            root.display()
        ));
    }
    if args.flag("unsafe-audit") {
        const UNSAFE_AUDIT_LINTS: [&str; 3] =
            ["unsafe-justified", "send-sync-audit", "atomic-ordering"];
        report
            .diagnostics
            .retain(|d| UNSAFE_AUDIT_LINTS.contains(&d.lint.as_str()));
        report
            .stale
            .retain(|d| d.lint == "*" || UNSAFE_AUDIT_LINTS.contains(&d.lint.as_str()));
    }

    let interleave = if concurrency {
        let cfg = InterleaveConfig {
            runs,
            ..InterleaveConfig::default()
        };
        Some(check_determinism(&cfg).map(|ok| (ok, cfg)))
    } else {
        None
    };

    let mut bounds = if args.flag("full") {
        protocol::Bounds::full()
    } else {
        protocol::Bounds::quick()
    };
    if let Some(cap) = max_ranks {
        bounds.ranks.retain(|&r| r <= cap);
        if bounds.ranks.is_empty() {
            return fail(format!("--max-ranks {cap} leaves no ring sizes to explore"));
        }
    }
    let protocol_report = args
        .flag("protocol")
        .then(|| protocol::check_protocol(&bounds));
    let self_check_report = args
        .flag("self-check")
        .then(|| protocol::self_check(&bounds));

    if args.flag("json") {
        let document = AnalyzeDocument {
            lints: report.clone(),
            concurrency: interleave.as_ref().map(|r| match r {
                Ok((o, _)) => ConcurrencySection::Passed {
                    runs: o.runs,
                    checks: o.checks,
                    pairs: o.pairs,
                },
                Err(e) => ConcurrencySection::Failed {
                    error: e.to_string(),
                },
            }),
            protocol: protocol_report.clone(),
            self_check: self_check_report.clone(),
        };
        writeln!(out, "{}", document.render_json())?;
    } else {
        write!(out, "{}", report.render_text())?;
        match &interleave {
            None => {}
            Some(Ok((o, cfg))) => writeln!(
                out,
                "concurrency: {} scheduler executions ({} runs × {} policies × {:?} threads), \
                 {} pairs each, all bitwise identical to the single-threaded reference",
                o.checks,
                o.runs,
                SchedulerPolicy::ALL.len(),
                cfg.threads,
                o.pairs
            )?,
            Some(Err(e)) => writeln!(out, "concurrency: FAILED — {e}")?,
        }
        if let Some(p) = &protocol_report {
            for e in &p.explorations {
                let tail = match &e.violation {
                    None if e.capped => {
                        format!(", capped ({} random walks clean)", e.walks_run)
                    }
                    None => String::new(),
                    Some(v) => format!(
                        "\n  VIOLATION ({}): {}\n  replay spec: {}",
                        v.violation.kind(),
                        v.violation.render(),
                        v.schedule.render()
                    ),
                };
                writeln!(
                    out,
                    "protocol: ranks={} — {} states, {} clean terminals{tail}",
                    e.ranks, e.states, e.terminals
                )?;
            }
            writeln!(
                out,
                "protocol: {}",
                if p.ok { "ok" } else { "VIOLATION FOUND" }
            )?;
        }
        if let Some(s) = &self_check_report {
            write!(out, "{}", protocol::self_check::render_text(s))?;
        }
    }

    if let Some(Err(e)) = interleave {
        return fail(e.to_string());
    }
    if protocol_report.is_some_and(|p| !p.ok) {
        return fail("protocol model checker found a violation (replay spec above)");
    }
    if self_check_report.is_some_and(|s| !s.ok) {
        return fail("protocol self-check failed: a known mutation went undetected");
    }
    if args.flag("deny-stale") && !report.stale.is_empty() {
        return fail(format!(
            "{} stale allowlist entr{} (--deny-stale)",
            report.stale.len(),
            if report.stale.len() == 1 { "y" } else { "ies" }
        ));
    }
    if args.flag("deny") && !report.is_clean() {
        return fail(format!(
            "{} static-analysis violation(s)",
            report.diagnostics.len()
        ));
    }
    Ok(())
}

/// `gnet conformance` — differential & metamorphic conformance harness.
/// Options: [`COMMANDS`].
///
/// Exit is nonzero whenever the report's overall `pass` verdict is
/// false, so CI can gate on the command directly; `--report` always
/// writes the JSON document first, pass or fail.
fn cmd_conformance(args: &ArgMap, out: &mut dyn Write) -> Result<(), CliError> {
    use gnet_conformance::{
        run_conformance, run_replay, run_self_check, ConformanceOptions, DatasetSpec, Level,
    };

    let opts = ConformanceOptions {
        seed: args.value("seed")?,
        level: args
            .get("level")
            .and_then(Level::from_slug)
            .expect("the --level metavar lists the level slugs"),
        ..ConformanceOptions::default()
    };
    let report = match args.get("replay") {
        Some(spec_text) => {
            let spec = DatasetSpec::parse(spec_text)
                .map_err(|e| CliError(format!("bad --replay: {e}")))?;
            run_replay(&opts, spec)
        }
        None if args.flag("self-check") => run_self_check(&opts),
        None => run_conformance(&opts),
    };

    if let Some(path) = args.get("report") {
        std::fs::write(path, report.render_json())
            .map_err(|e| CliError(format!("cannot write {path}: {e}")))?;
    }
    if args.flag("json") {
        writeln!(out, "{}", report.render_json())?;
    } else {
        write!(out, "{}", report.render_text())?;
    }
    if !report.pass {
        return fail("conformance violations found (see report)");
    }
    Ok(())
}

/// `gnet predict` — modeled platform runtimes for a problem size.
/// Options: [`COMMANDS`].
fn cmd_predict(args: &ArgMap, out: &mut dyn Write) -> Result<(), CliError> {
    let genes = genes(args)?;
    let samples = args.value("samples")?;
    let q = args.value("q")?;

    let workload = gnet_phi::WorkloadModel {
        genes,
        samples,
        q,
        ..gnet_phi::WorkloadModel::arabidopsis_headline()
    };
    writeln!(out, "workload: {genes} genes × {samples} samples, q = {q}")?;
    for machine in [
        gnet_phi::MachineModel::xeon_phi_5110p(),
        gnet_phi::MachineModel::xeon_e5_2670_2s(),
        gnet_phi::MachineModel::bluegene_l_1024(),
    ] {
        let rep = scenarios::simulate_scenario(
            &machine,
            &workload,
            scenarios::tile_size_for(genes, machine.max_threads()),
            machine.max_threads(),
            SchedulerPolicy::DynamicCounter,
        );
        writeln!(
            out,
            "{:55} {:9.2} min",
            machine.name,
            rep.wall_seconds / 60.0
        )?;
    }
    let offload = gnet_phi::OffloadModel::paper_system();
    let tiles = gnet_parallel::TileSpace::new(genes, scenarios::tile_size_for(genes, 244));
    let (share, wall) = offload.optimal_split(tiles.tiles(), &workload, 20);
    writeln!(
        out,
        "{:55} {:9.2} min  (device share {:.0}%)",
        "host + coprocessor offload (optimal split)",
        wall / 60.0,
        share * 100.0
    )?;
    Ok(())
}

/// The rule rows of `gnet trace-report`: exactly one source.
const ONE_TRACE_SOURCE: &str = "pass exactly one of --trace FILE or --trace-dir DIR";

/// `gnet trace-report` — offline analysis of recorded trace streams.
/// Options: [`COMMANDS`].
fn cmd_trace_report(args: &ArgMap, out: &mut dyn Write) -> Result<(), CliError> {
    use gnet_obs::model::RunModel;
    use gnet_obs::report;

    let model = match (args.get("trace"), args.get("trace-dir")) {
        (Some(f), _) => RunModel::from_file(std::path::Path::new(f)),
        (_, d) => RunModel::from_dir(std::path::Path::new(d.expect("a rule requires a source"))),
    }
    .map_err(|e| CliError(e.to_string()))?;

    let config = report::RunConfig::from_model(&model);
    let kernel_model = if args.flag("no-calibrate") {
        None
    } else {
        config.as_ref().map(report::calibrate_model)
    };
    let rep = report::analyze(&model, kernel_model);
    write!(out, "{}", rep.render_text())?;

    if let Some(path) = args.get("chrome") {
        std::fs::write(path, gnet_obs::chrome::to_chrome_json(&model))
            .map_err(|e| CliError(format!("cannot write {path}: {e}")))?;
        writeln!(out, "wrote Chrome trace-event JSON to {path}")?;
    }
    if let Some(path) = args.get("flame") {
        std::fs::write(path, gnet_obs::flame::to_folded(&model))
            .map_err(|e| CliError(format!("cannot write {path}: {e}")))?;
        writeln!(out, "wrote folded flamegraph stacks to {path}")?;
    }
    Ok(())
}

/// `gnet bench` — the seeded fixed-shape benchmark suite and its
/// regression gate. Options: [`COMMANDS`].
///
/// When a candidate minimum undercuts the baseline by more than the
/// stale gate (`min < base × 0.5`), the command prints a warning: the
/// committed numbers no longer anchor the regression gate and should be
/// refreshed with `--update-baseline`. A bench id the baseline lacks
/// fails the gate (it could never be gated otherwise) unless
/// `--update-baseline` is given; a baseline id the suite no longer runs
/// only warns.
fn cmd_bench(args: &ArgMap, out: &mut dyn Write) -> Result<(), CliError> {
    use gnet_obs::bench;

    let quick = args.flag("quick");
    let reps = args.parsed("reps")?;
    let out_path: String = args.value("out")?;
    let slowdown = args.value("inject-slowdown")?;
    if !(1.0..=64.0).contains(&slowdown) {
        return fail("--inject-slowdown must be in [1, 64]");
    }
    // Read before anything is written: --out may name the baseline.
    let baseline = read_baseline(args)?;

    let opts = bench::BenchOptions {
        quick,
        reps,
        slowdown,
    };
    writeln!(
        out,
        "gnet bench: {} mode, min of {} reps{}",
        if quick { "quick" } else { "full" },
        opts.effective_reps(),
        if slowdown > 1.0 {
            format!(", injected {slowdown}x vector-kernel slowdown")
        } else {
            String::new()
        }
    )?;
    let suite = bench::run_suite(&opts);
    for e in &suite.entries {
        writeln!(
            out,
            "  {:<24} min {:>12.1} {u}   median {:>12.1} {u}   mad {:>10.1} {u}",
            e.id,
            e.min_us,
            e.median_us,
            e.mad_us,
            u = e.unit
        )?;
    }
    std::fs::write(&out_path, bench::to_json(&suite))
        .map_err(|e| CliError(format!("cannot write {out_path}: {e}")))?;
    writeln!(out, "wrote {out_path}")?;

    match baseline {
        Some((bp, base)) => gate_on_baseline(&suite, &base, bp, args.flag("update-baseline"), out),
        None => Ok(()),
    }
}

/// The `--baseline` artifact of the `gnet bench` run `args`, if any;
/// refused when it is the run's `--out` (the run would overwrite what it
/// is gated against) unless `--update-baseline`, or of another mode.
fn read_baseline(args: &ArgMap) -> Result<Option<(&str, BenchSuite)>, CliError> {
    let Some(bp) = args.get("baseline") else {
        return Ok(None);
    };
    let (out, quick) = (args.value::<String>("out")?, args.flag("quick"));
    let canonical = |path: &str| std::fs::canonicalize(path).ok();
    let same = canonical(&out).is_some_and(|o| canonical(bp) == Some(o));
    if same && !args.flag("update-baseline") {
        return fail(format!(
            "--out {out} is the baseline {bp}: the run would overwrite it before the gate reads it"
        ));
    }
    let text = std::fs::read_to_string(bp)
        .map_err(|e| CliError(format!("cannot read baseline {bp}: {e}")))?;
    let base = gnet_obs::bench::parse_suite(&text).map_err(|e| CliError(format!("{bp}: {e}")))?;
    if base.quick != quick {
        // Quick and full shapes share ids but not workloads; a
        // quick candidate would "pass" against a full baseline by
        // construction.
        let mode = |quick| if quick { "quick" } else { "full" };
        return fail(format!(
            "baseline {bp} is a {} suite but this run is {} — modes must match",
            mode(base.quick),
            mode(quick),
        ));
    }
    Ok(Some((bp, base)))
}

/// `gnet bench`'s gate: compare `suite` with `base`, the artifact at
/// `bp` — or, with `update_baseline`, overwrite `bp` with `suite`.
fn gate_on_baseline(
    suite: &BenchSuite,
    base: &BenchSuite,
    bp: &str,
    update_baseline: bool,
    out: &mut dyn Write,
) -> Result<(), CliError> {
    use gnet_obs::bench;

    for w in bench::improvements(base, suite) {
        writeln!(
            out,
            "WARNING {:<20} {:.1} us -> {:.1} us ({:.2}x faster): baseline is stale \
             — refresh it with --update-baseline",
            w.id, w.base_min_us, w.cand_min_us, w.speedup
        )?;
    }
    let drift = bench::id_drift(base, suite);
    for id in &drift.retired {
        writeln!(
            out,
            "WARNING {id:<20} is in {bp} but no longer in the suite (retired)"
        )?;
    }
    if update_baseline {
        // Re-baselining: this run *becomes* the committed numbers, so
        // gating it against the numbers it replaces would be circular.
        std::fs::write(bp, bench::to_json(suite))
            .map_err(|e| CliError(format!("cannot update baseline {bp}: {e}")))?;
        writeln!(out, "updated baseline {bp} from this run")?;
        return Ok(());
    }
    if !drift.new.is_empty() {
        return fail(format!(
            "bench id(s) {} missing from baseline {bp}: they cannot be gated \
             — refresh the baseline with --update-baseline",
            drift.new.join(", ")
        ));
    }
    let regressions = bench::compare(base, suite);
    if regressions.is_empty() {
        writeln!(out, "no significant regressions vs {bp}")?;
        return Ok(());
    }
    for r in &regressions {
        writeln!(
            out,
            "REGRESSION {:<20} {:.1} us -> {:.1} us ({:.2}x, gate {:.1} us)",
            r.id, r.base_min_us, r.cand_min_us, r.ratio, r.threshold_us
        )?;
    }
    fail(format!(
        "{} benchmark regression(s) vs {bp}",
        regressions.len()
    ))
}

/// `gnet simd` — report which SIMD backend the kernel dispatcher picked.
/// Options: [`COMMANDS`].
///
/// Prints the detected-best backend, the active backend, every backend
/// this host supports, and — when `GNET_SIMD_FORCE` was set — whether
/// the request was honored. The dispatch is healthy when an env force
/// was honored, and without one when the active backend is the detected
/// best (a host that claims AVX-512 but dispatches a fallback is exactly
/// the silent inversion this command exists to catch).
fn cmd_simd(args: &ArgMap, out: &mut dyn Write) -> Result<(), CliError> {
    let report = gnet_simd::dispatch_report();
    writeln!(out, "detected  {}", report.detected)?;
    writeln!(out, "active    {}", report.active)?;
    let supported = report
        .supported
        .iter()
        .map(|b| b.name())
        .collect::<Vec<_>>()
        .join(" ");
    writeln!(out, "supported {supported}")?;
    match &report.env_request {
        Some(req) => writeln!(
            out,
            "forced    GNET_SIMD_FORCE={req} ({})",
            if report.env_honored {
                "honored"
            } else {
                "NOT honored"
            }
        )?,
        None => writeln!(out, "forced    (GNET_SIMD_FORCE unset)")?,
    }

    if args.flag("verify") {
        if !report.env_honored {
            return fail(format!(
                "GNET_SIMD_FORCE={} was not honored — active backend is {}",
                report.env_request.as_deref().unwrap_or("?"),
                report.active
            ));
        }
        if report.env_request.is_none() && report.active != report.detected {
            return fail(format!(
                "dispatch selected {} but this host supports {} — the fast backend was \
                 silently skipped",
                report.active, report.detected
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::{usage, Kind, Rule};

    fn command(name: &str) -> &'static Command {
        COMMANDS.iter().find(|c| c.name == name).unwrap()
    }

    fn parse(command_name: &str, tokens: &[&str]) -> Result<ArgMap, ArgError> {
        let tokens = tokens.iter().map(|t| t.to_string()).collect();
        ArgMap::parse(command(command_name), tokens)
    }

    /// `gnet <command> <tokens…>` as the binary runs it, less the exit.
    fn run(command_name: &str, tokens: &[&str], out: &mut Vec<u8>) -> Result<(), CliError> {
        let args = parse(command_name, tokens)?;
        (command(command_name).run)(&args, out)
    }

    /// Does `text` name the option `--flag` (and not just a longer one)?
    fn names(text: &str, flag: &str) -> bool {
        let needle = format!("--{flag}");
        text.match_indices(&needle).any(|(i, _)| {
            !text[i + needle.len()..].starts_with(|c: char| c.is_ascii_alphanumeric() || c == '-')
        })
    }

    /// Every `--option` `text` names.
    fn named_options(text: &str) -> Vec<&str> {
        text.match_indices("--")
            .map(|(i, _)| {
                let rest = &text[i + 2..];
                let end = rest.find(|c: char| !(c.is_ascii_alphanumeric() || c == '-'));
                &rest[..end.unwrap_or(rest.len())]
            })
            .filter(|name| !name.is_empty())
            .collect()
    }

    #[test]
    fn the_option_surface_is_pinned() {
        let surface: Vec<String> = COMMANDS
            .iter()
            .map(|c| {
                let mut names: Vec<&str> = c.opts.iter().map(|o| o.name).collect();
                names.sort_unstable();
                format!("{}: {}", c.name, names.join(" "))
            })
            .collect();
        assert_eq!(
            surface,
            [
                "generate: avg-degree batch-sd batches genes out samples seed topology truth",
                "infer: alpha bins center-batches checkpoint-dir checkpoint-every dpi early-exit \
                 fault-plan input kernel listen metrics order output progress q quantile-normalize \
                 ranks resume save-state scheduler seed status-addr status-file status-interval-ms \
                 threads threshold tile trace trace-dir",
                "update: append checkpoint-every fault-plan mode output resume state",
                "worker: connect trace-dir",
                "status: json metrics target",
                "trace-report: chrome flame no-calibrate trace trace-dir",
                "bench: baseline inject-slowdown out quick reps update-baseline",
                "simd: verify",
                "score: edges matrix truth",
                "topology: edges hubs matrix",
                "analyze: allowlist concurrency deny deny-stale full json max-ranks protocol \
                 replay root runs self-check unsafe-audit",
                "conformance: json level replay report seed self-check",
                "stats: input",
                "predict: genes q samples",
            ]
        );
        assert_eq!(COMMANDS.iter().map(|c| c.opts.len()).sum::<usize>(), 92);
    }

    #[test]
    fn the_tables_are_consistent() {
        for cmd in COMMANDS {
            let declared = |name: &str| cmd.opts.iter().any(|o| o.name == name);
            for (i, opt) in cmd.opts.iter().enumerate() {
                assert!(
                    !cmd.opts[..i].iter().any(|o| o.name == opt.name),
                    "{}",
                    opt.name
                );
                if let Kind::Value(metavar, Some(default)) = opt.kind {
                    let choices = metavar.contains('|').then(|| metavar.split('|'));
                    assert!(
                        choices.is_none_or(|mut c| c.any(|c| c == default)),
                        "{}",
                        opt.name
                    );
                }
            }
            for rule in cmd.rules {
                for name in named_options(rule.reason()) {
                    assert!(
                        declared(name),
                        "gnet {}: {:?} names --{name}",
                        cmd.name,
                        rule
                    );
                }
            }
        }
    }

    #[test]
    fn every_rule_row_has_a_case_whose_error_names_its_flags() {
        for cmd in COMMANDS {
            for rule in cmd.rules {
                let (Rule::Requires(when, others, _) | Rule::Excludes(when, others, _)) = *rule;
                let mut tokens: Vec<String> = Vec::new();
                let mut give = |name: &str| {
                    tokens.push(format!("--{name}"));
                    let row = cmd.opts.iter().find(|o| o.name == name).unwrap();
                    if row.kind != Kind::Flag {
                        tokens.push("x".to_string());
                    }
                };
                for opt in cmd
                    .opts
                    .iter()
                    .filter(|o| matches!(o.kind, Kind::Required(_)))
                {
                    give(opt.name);
                }
                when.first().into_iter().for_each(|name| give(name));
                if matches!(rule, Rule::Excludes(..)) {
                    give(others[0]);
                }
                let err = ArgMap::parse(cmd, tokens.clone()).unwrap_err();
                let reason = rule.reason().to_string();
                assert_eq!(
                    err,
                    ArgError::Invalid(reason),
                    "gnet {} {tokens:?}",
                    cmd.name
                );
                for flag in when.iter().chain(others) {
                    assert!(names(rule.reason(), flag), "{:?} must name --{flag}", rule);
                }
            }
        }
    }

    #[test]
    fn usage_lists_every_command_option_default_and_rule() {
        let text = usage(COMMANDS);
        for cmd in COMMANDS {
            let start = text
                .find(&format!("\n{}  {}\n", cmd.name, cmd.about))
                .unwrap();
            let section = text[start + 1..].split("\n\n").next().unwrap();
            for opt in cmd.opts {
                let head = match opt.kind {
                    Kind::Flag => format!("--{} ", opt.name),
                    Kind::Required(m) | Kind::Value(m, _) => format!("--{} {m} ", opt.name),
                };
                let line = section.lines().find(|l| l.trim_start().starts_with(&head));
                let line = line.unwrap_or_else(|| panic!("{head:?} missing from the usage"));
                assert!(line.contains(opt.help), "{line}");
                if let Kind::Value(_, Some(default)) = opt.kind {
                    assert!(line.ends_with(&format!("[default: {default}]")), "{line}");
                }
            }
            for rule in cmd.rules {
                assert!(
                    section.contains(&format!("rule: {}", rule.reason())),
                    "{rule:?}"
                );
            }
        }
        for name in named_options(&text) {
            assert!(
                COMMANDS
                    .iter()
                    .any(|c| c.opts.iter().any(|o| o.name == name)),
                "--{name}"
            );
        }
    }

    #[test]
    fn defaults_in_the_tables_are_the_library_defaults() {
        let args = parse("infer", &["--input", "m.tsv", "--output", "e.tsv"]).unwrap();
        assert_eq!(config_from_args(&args).unwrap(), InferenceConfig::default());
        let args = parse("conformance", &[]).unwrap();
        let seed = gnet_conformance::ConformanceOptions::default().seed;
        assert_eq!(args.value::<u64>("seed").unwrap(), seed);
    }

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("gnet_cli_{tag}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn generate_infer_score_roundtrip() {
        let dir = tmpdir("roundtrip");
        let matrix = dir.join("m.tsv");
        let truth = dir.join("t.tsv");
        let edges = dir.join("e.tsv");
        let mut sink = Vec::new();

        run(
            "generate",
            &[
                "--genes",
                "40",
                "--samples",
                "250",
                "--seed",
                "9",
                "--out",
                matrix.to_str().unwrap(),
                "--truth",
                truth.to_str().unwrap(),
            ],
            &mut sink,
        )
        .unwrap();
        assert!(matrix.exists() && truth.exists());

        run(
            "infer",
            &[
                "--input",
                matrix.to_str().unwrap(),
                "--output",
                edges.to_str().unwrap(),
                "--q",
                "10",
                "--threads",
                "2",
                "--dpi",
                "0.05",
            ],
            &mut sink,
        )
        .unwrap();
        assert!(edges.exists());

        let mut score_out = Vec::new();
        run(
            "score",
            &[
                "--edges",
                edges.to_str().unwrap(),
                "--truth",
                truth.to_str().unwrap(),
                "--matrix",
                matrix.to_str().unwrap(),
            ],
            &mut score_out,
        )
        .unwrap();
        let text = String::from_utf8(score_out).unwrap();
        assert!(text.contains("precision"), "{text}");
        let recall_line = text.lines().find(|l| l.starts_with("recall")).unwrap();
        let recall: f64 = recall_line
            .split_whitespace()
            .nth(1)
            .unwrap()
            .parse()
            .unwrap();
        assert!(recall > 0.2, "recall {recall} suspiciously low\n{text}");

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn infer_distributed_ranks() {
        let dir = tmpdir("ranks");
        let matrix = dir.join("m.tsv");
        let edges = dir.join("e.tsv");
        let mut sink = Vec::new();
        run(
            "generate",
            &[
                "--genes",
                "18",
                "--samples",
                "120",
                "--out",
                matrix.to_str().unwrap(),
            ],
            &mut sink,
        )
        .unwrap();
        run(
            "infer",
            &[
                "--input",
                matrix.to_str().unwrap(),
                "--output",
                edges.to_str().unwrap(),
                "--q",
                "8",
                "--ranks",
                "3",
            ],
            &mut sink,
        )
        .unwrap();
        let text = String::from_utf8(sink).unwrap();
        assert!(text.contains("3 ranks"), "{text}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn analyze_reports_topology() {
        let dir = tmpdir("analyze");
        let matrix = dir.join("m.tsv");
        let edges = dir.join("e.tsv");
        let mut sink = Vec::new();
        run(
            "generate",
            &[
                "--genes",
                "30",
                "--samples",
                "200",
                "--out",
                matrix.to_str().unwrap(),
            ],
            &mut sink,
        )
        .unwrap();
        run(
            "infer",
            &[
                "--input",
                matrix.to_str().unwrap(),
                "--output",
                edges.to_str().unwrap(),
                "--q",
                "10",
            ],
            &mut sink,
        )
        .unwrap();
        let mut report = Vec::new();
        run(
            "topology",
            &[
                "--edges",
                edges.to_str().unwrap(),
                "--matrix",
                matrix.to_str().unwrap(),
                "--hubs",
                "3",
            ],
            &mut report,
        )
        .unwrap();
        let text = String::from_utf8(report).unwrap();
        assert!(text.contains("components"), "{text}");
        assert!(text.contains("top hubs"), "{text}");
        assert!(text.contains("max k-core"), "{text}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Workspace root relative to this crate, for `cmd_analyze` tests.
    fn workspace_root() -> std::path::PathBuf {
        std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .canonicalize()
            .unwrap()
    }

    #[test]
    fn analyze_scans_the_workspace() {
        let mut out = Vec::new();
        run(
            "analyze",
            &["--root", workspace_root().to_str().unwrap(), "--deny"],
            &mut out,
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("file(s) scanned"), "{text}");
        assert!(text.contains("0 violation(s)"), "{text}");
    }

    #[test]
    fn analyze_json_is_machine_readable_and_schema_pinned() {
        let mut out = Vec::new();
        run(
            "analyze",
            &["--root", workspace_root().to_str().unwrap(), "--json"],
            &mut out,
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        let expect = format!("{{\"schema\":\"{}\"", gnet_analysis::report::SCHEMA);
        assert!(text.starts_with(&expect), "{text}");
        assert!(text.contains("\"files_scanned\""), "{text}");
        assert!(text.contains("\"concurrency\":null"), "{text}");
        gnet_analysis::report::validate_json(text.trim()).expect("document validates");
    }

    #[test]
    fn analyze_unsafe_audit_and_deny_stale_run_clean_on_the_workspace() {
        let mut out = Vec::new();
        run(
            "analyze",
            &[
                "--root",
                workspace_root().to_str().unwrap(),
                "--unsafe-audit",
                "--deny",
                "--deny-stale",
            ],
            &mut out,
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("0 violation(s)"), "{text}");
        assert!(text.contains("0 stale entries"), "{text}");
    }

    #[test]
    fn analyze_protocol_explores_a_small_ring_clean() {
        let mut out = Vec::new();
        run(
            "analyze",
            &[
                "--root",
                workspace_root().to_str().unwrap(),
                "--protocol",
                "--max-ranks",
                "3",
            ],
            &mut out,
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("protocol: ranks=2"), "{text}");
        assert!(text.contains("protocol: ranks=3"), "{text}");
        assert!(text.contains("protocol: ok"), "{text}");
    }

    #[test]
    fn analyze_protocol_json_emits_the_protocol_section() {
        let mut out = Vec::new();
        run(
            "analyze",
            &[
                "--root",
                workspace_root().to_str().unwrap(),
                "--protocol",
                "--max-ranks",
                "2",
                "--json",
            ],
            &mut out,
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("\"protocol\":{\"ok\":true"), "{text}");
        gnet_analysis::report::validate_json(text.trim()).expect("document validates");
    }

    #[test]
    fn analyze_replay_rejects_malformed_and_impossible_specs() {
        let mut out = Vec::new();
        let err = run("analyze", &["--replay", "not-a-spec"], &mut out).unwrap_err();
        assert!(err.0.contains("key=value"), "{}", err.0);
        // Well-formed but impossible: rank 1 cannot deliver before
        // anything was sent.
        let spec = "ranks=2;crashes=0;timeouts=0;drops=0;dups=0;mutation=none;trace=d1";
        let err = run("analyze", &["--replay", spec], &mut out).unwrap_err();
        assert!(err.0.contains("not enabled"), "{}", err.0);
    }

    #[test]
    fn analyze_max_ranks_cannot_empty_the_bounds() {
        let mut out = Vec::new();
        let err = run(
            "analyze",
            &[
                "--root",
                workspace_root().to_str().unwrap(),
                "--protocol",
                "--max-ranks",
                "1",
            ],
            &mut out,
        )
        .unwrap_err();
        assert!(err.0.contains("no ring sizes"), "{}", err.0);
    }

    #[test]
    fn analyze_rejects_a_rootless_directory() {
        let dir = tmpdir("analyze_empty");
        let mut out = Vec::new();
        let err = run("analyze", &["--root", dir.to_str().unwrap()], &mut out).unwrap_err();
        assert!(
            err.0.contains("cannot scan") || err.0.contains("no sources"),
            "{}",
            err.0
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn preprocessing_flags_run_end_to_end() {
        let dir = tmpdir("preproc");
        let matrix = dir.join("m.tsv");
        let edges = dir.join("e.tsv");
        let mut sink = Vec::new();
        run(
            "generate",
            &[
                "--genes",
                "24",
                "--samples",
                "120",
                "--batches",
                "4",
                "--batch-sd",
                "1.5",
                "--out",
                matrix.to_str().unwrap(),
            ],
            &mut sink,
        )
        .unwrap();
        run(
            "infer",
            &[
                "--input",
                matrix.to_str().unwrap(),
                "--output",
                edges.to_str().unwrap(),
                "--q",
                "8",
                "--quantile-normalize",
                "--center-batches",
                "4",
            ],
            &mut sink,
        )
        .unwrap();
        let text = String::from_utf8(sink).unwrap();
        assert!(text.contains("quantile-normalized"), "{text}");
        assert!(text.contains("centered 4"), "{text}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stats_reports_shape() {
        let dir = tmpdir("stats");
        let matrix = dir.join("m.tsv");
        let mut sink = Vec::new();
        run(
            "generate",
            &[
                "--genes",
                "12",
                "--samples",
                "30",
                "--out",
                matrix.to_str().unwrap(),
            ],
            &mut sink,
        )
        .unwrap();
        let mut out = Vec::new();
        run("stats", &["--input", matrix.to_str().unwrap()], &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("genes    12"), "{text}");
        assert!(text.contains("samples  30"), "{text}");
        // The memory plan's genes term is what preparing them holds: the
        // codes of every gene plus the one table they share.
        let m = load_matrix(matrix.to_str().unwrap()).unwrap();
        let basis = gnet_bspline::BsplineBasis::new(3, 10);
        let prepared = gnet_core::prepare_genes(&m, 0..12, &basis, 1);
        let held = prepared.iter().map(|g| g.heap_bytes()).sum::<usize>()
            + prepared[0].sparse.table().heap_bytes();
        let memory = text
            .lines()
            .find(|l| l.starts_with("memory"))
            .expect("a memory line");
        assert!(memory.contains(&format!(" + genes {held} B (")), "{memory}");
        assert!(memory.contains("peak"), "{memory}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn predict_prints_every_platform() {
        let mut out = Vec::new();
        run(
            "predict",
            &["--genes", "2048", "--samples", "1024", "--q", "10"],
            &mut out,
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("Phi"), "{text}");
        assert!(text.contains("Blue Gene"), "{text}");
        assert!(text.contains("offload"), "{text}");
    }

    #[test]
    fn unknown_option_is_an_error() {
        let mut out = Vec::new();
        let err = run("predict", &["--bogus", "7"], &mut out).unwrap_err();
        assert!(err.0.contains("--bogus"));
    }

    #[test]
    fn simd_reports_dispatch_and_verifies_clean() {
        // No GNET_SIMD_FORCE in the test environment, so active must be
        // the detected best and --verify must pass.
        let mut out = Vec::new();
        run("simd", &["--verify"], &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("detected"), "{text}");
        assert!(text.contains("active"), "{text}");
        assert!(text.contains("supported"), "{text}");
        // Every host supports at least the emulated backend.
        assert!(text.contains("emulated"), "{text}");
    }

    #[test]
    fn bench_gate_rejects_new_ids_until_the_baseline_is_refreshed() {
        use gnet_obs::bench::{to_json, BenchEntry, BenchSuite};
        let suite = |ids: &[&str]| BenchSuite {
            quick: true,
            entries: ids
                .iter()
                .map(|id| BenchEntry {
                    id: (*id).to_string(),
                    unit: "us".to_string(),
                    values_us: vec![100.0],
                    min_us: 100.0,
                    median_us: 100.0,
                    mad_us: 0.0,
                })
                .collect(),
        };
        let dir = tmpdir("bench_ids");
        let baseline = dir.join("BENCH_14.json");
        let bp = baseline.to_str().unwrap();
        std::fs::write(
            &baseline,
            to_json(&suite(&["kernel.vector", "retired.bench"])),
        )
        .unwrap();
        let candidate = suite(&["kernel.vector", "telemetry.overhead"]);
        // A suite id the baseline lacks fails the gate; a retired one
        // only warns.
        let base = gnet_obs::bench::parse_suite(&std::fs::read_to_string(bp).unwrap()).unwrap();
        let mut out = Vec::new();
        let err = gate_on_baseline(&candidate, &base, bp, false, &mut out).unwrap_err();
        assert!(
            err.0.contains("telemetry.overhead") && err.0.contains("missing from baseline"),
            "{}",
            err.0
        );
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("WARNING retired.bench"), "{text}");
        // Refreshing accepts the new id and drops the retired one.
        let mut out = Vec::new();
        gate_on_baseline(&candidate, &base, bp, true, &mut out)
            .expect("refreshing accepts new ids");
        let refreshed = std::fs::read_to_string(&baseline).unwrap();
        assert!(refreshed.contains("telemetry.overhead") && !refreshed.contains("retired.bench"));
        let base = gnet_obs::bench::parse_suite(&std::fs::read_to_string(bp).unwrap()).unwrap();
        let mut out = Vec::new();
        gate_on_baseline(&candidate, &base, bp, false, &mut out)
            .expect("the refreshed baseline gates");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bench_refuses_an_out_that_would_overwrite_its_baseline() {
        let dir = tmpdir("bench_same_file");
        let baseline = dir.join("BENCH_14.json");
        let text = "{\n  \"format\": \"gnet-bench\",\n  \"version\": 1,\n  \"issue\": 5,\n  \
                    \"quick\": true,\n  \"entries\": []\n}";
        std::fs::write(&baseline, text).unwrap();
        // The same file under another spelling is still the baseline.
        let out = dir.join(".").join("BENCH_14.json");
        let err = run(
            "bench",
            &[
                "--quick",
                "--reps",
                "1",
                "--baseline",
                baseline.to_str().unwrap(),
                "--out",
                out.to_str().unwrap(),
            ],
            &mut Vec::new(),
        )
        .unwrap_err();
        assert!(err.0.contains("--out"), "{}", err.0);
        assert_eq!(std::fs::read_to_string(&baseline).unwrap(), text);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bench_update_baseline_needs_a_baseline() {
        let mut out = Vec::new();
        let err = run("bench", &["--update-baseline", "--quick"], &mut out).unwrap_err();
        assert!(err.0.contains("--baseline"), "{}", err.0);
    }

    #[test]
    fn bad_kernel_name_rejected() {
        let args = ["--input", "x", "--output", "y", "--kernel", "gpu"];
        let mut out = Vec::new();
        let err = run("infer", &args, &mut out).unwrap_err();
        assert!(err.0.contains("gpu"));
    }

    #[test]
    fn infer_writes_trace_and_metrics_files() {
        let dir = tmpdir("trace");
        let matrix = dir.join("m.tsv");
        let edges = dir.join("e.tsv");
        let trace = dir.join("run.ndjson");
        let metrics = dir.join("run.metrics.json");
        let mut sink = Vec::new();
        run(
            "generate",
            &[
                "--genes",
                "20",
                "--samples",
                "150",
                "--out",
                matrix.to_str().unwrap(),
            ],
            &mut sink,
        )
        .unwrap();
        run(
            "infer",
            &[
                "--input",
                matrix.to_str().unwrap(),
                "--output",
                edges.to_str().unwrap(),
                "--q",
                "8",
                "--threads",
                "2",
                "--tile",
                "5",
                "--trace",
                trace.to_str().unwrap(),
                "--metrics",
                metrics.to_str().unwrap(),
            ],
            &mut sink,
        )
        .unwrap();
        let text = String::from_utf8(sink).unwrap();
        assert!(text.contains("wrote trace events"), "{text}");
        assert!(text.contains("wrote metrics"), "{text}");

        let ndjson = std::fs::read_to_string(&trace).unwrap();
        assert!(ndjson.lines().count() > 4, "{ndjson}");
        assert!(ndjson.contains("\"type\":\"meta\""));
        assert!(ndjson.contains("\"name\":\"stage.mi\""));
        assert!(ndjson.contains("\"name\":\"scheduler.tile_us\""));
        assert!(ndjson.contains("\"name\":\"mi.pairs\""));

        let summary = std::fs::read_to_string(&metrics).unwrap();
        assert!(summary.contains("\"format\":\"gnet-trace-metrics\""));
        assert!(summary.contains("\"mi.pairs\":190"), "{summary}"); // C(20,2)
        assert!(summary.contains("\"version\":1"), "{summary}");
        assert!(summary.trim_end().ends_with('}'), "{summary}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn trace_flags_rejected_with_ranks() {
        let args = [
            "--input",
            "x",
            "--output",
            "y",
            "--ranks",
            "2",
            "--progress",
        ];
        let mut out = Vec::new();
        let err = run("infer", &args, &mut out).unwrap_err();
        assert!(err.0.contains("--ranks"), "{}", err.0);
    }

    #[test]
    fn checkpoint_crash_then_resume_roundtrip() {
        let dir = tmpdir("ckpt");
        let matrix = dir.join("m.tsv");
        let edges = dir.join("e.tsv");
        let ckpt = dir.join("ckpt");
        let mut sink = Vec::new();
        run(
            "generate",
            &[
                "--genes",
                "24",
                "--samples",
                "120",
                "--out",
                matrix.to_str().unwrap(),
            ],
            &mut sink,
        )
        .unwrap();
        // Crash on two dynamic-scheduled threads, resume on one
        // static-block thread: the resumed run must reproduce an
        // uninterrupted one exactly.
        let common = [
            "--input",
            matrix.to_str().unwrap(),
            "--q",
            "8",
            "--tile",
            "5",
            "--checkpoint-dir",
            ckpt.to_str().unwrap(),
            "--checkpoint-every",
            "2",
        ];
        let reference = dir.join("ref.tsv");
        let mut ref_args: Vec<&str> = common.to_vec();
        ref_args.extend(["--output", reference.to_str().unwrap(), "--threads", "2"]);
        run("infer", &ref_args, &mut sink).unwrap();
        std::fs::remove_dir_all(&ckpt).unwrap();

        let mut crash_args: Vec<&str> = common.to_vec();
        crash_args.extend(["--output", edges.to_str().unwrap()]);
        crash_args.extend(["--threads", "2", "--scheduler", "dynamic"]);
        crash_args.extend(["--fault-plan", "seed=1;chunk-crash(boundary=2)"]);
        let err = run("infer", &crash_args, &mut sink).unwrap_err();
        assert!(err.0.contains("--resume"), "{}", err.0);
        assert!(ckpt.join("gnet.ckpt").exists(), "checkpoint must survive");

        let mut resume_args: Vec<&str> = common.to_vec();
        resume_args.extend(["--output", edges.to_str().unwrap()]);
        resume_args.extend(["--threads", "1", "--scheduler", "static-block", "--resume"]);
        let mut out = Vec::new();
        run("infer", &resume_args, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("checkpointed every 2 tiles"), "{text}");
        assert_eq!(
            std::fs::read(&edges).unwrap(),
            std::fs::read(&reference).unwrap(),
            "resumed edges must equal the uninterrupted run's bytes"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_checkpoint_of_another_tile_list_is_refused() {
        // 100 genes tile into 6 tiles at edge 34 and at edge 40, so only
        // the edge tells the two lists apart: a prefix of the first names
        // other pairs in the second.
        let dir = tmpdir("tile_list");
        let (matrix, ckpt) = (dir.join("m.tsv"), dir.join("ck"));
        let mut sink = Vec::new();
        let m = matrix.to_str().unwrap();
        let generate = [
            "--genes",
            "100",
            "--samples",
            "200",
            "--seed",
            "7",
            "--out",
            m,
        ];
        run("generate", &generate, &mut sink).unwrap();
        let infer = |tile: &'static str, extra: &[&str]| {
            let out = dir.join(format!("e{tile}.tsv"));
            let mut args = vec!["--input", m, "--q", "8", "--threads", "1", "--tile", tile];
            args.extend([
                "--checkpoint-dir",
                ckpt.to_str().unwrap(),
                "--checkpoint-every",
                "1",
            ]);
            args.extend(["--output", out.to_str().unwrap()]);
            args.extend(extra);
            run("infer", &args, &mut Vec::new())
        };
        let crash = ["--fault-plan", "seed=1;chunk-crash(boundary=2)"];
        let err = infer("34", &crash).unwrap_err();
        assert!(err.0.contains("--resume"), "{}", err.0);
        let err = infer("40", &["--resume"]).unwrap_err();
        assert!(err.0.contains("gnet.ckpt"), "{}", err.0);
        assert!(
            !dir.join("e40.tsv").exists(),
            "a refused resume writes no edges"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_flags_need_a_directory() {
        let args = ["--input", "x", "--output", "y", "--resume"];
        let mut out = Vec::new();
        let err = run("infer", &args, &mut out).unwrap_err();
        assert!(err.0.contains("--checkpoint-dir"), "{}", err.0);
    }

    #[test]
    fn checkpoints_rejected_with_ranks() {
        let args = [
            "--input",
            "x",
            "--output",
            "y",
            "--ranks",
            "2",
            "--checkpoint-dir",
            "d",
        ];
        let mut out = Vec::new();
        let err = run("infer", &args, &mut out).unwrap_err();
        assert!(err.0.contains("--ranks"), "{}", err.0);
    }

    #[test]
    fn bad_fault_plan_is_a_typed_cli_error() {
        let args = ["--input", "x", "--output", "y", "--fault-plan", "nonsense"];
        let mut out = Vec::new();
        let err = run("infer", &args, &mut out).unwrap_err();
        assert!(err.0.contains("--fault-plan"), "{}", err.0);
    }

    #[test]
    fn distributed_rank_crash_recovers_end_to_end() {
        let dir = tmpdir("rank_crash");
        let matrix = dir.join("m.tsv");
        let edges = dir.join("e.tsv");
        let edges_ok = dir.join("e_ok.tsv");
        let mut sink = Vec::new();
        run(
            "generate",
            &[
                "--genes",
                "16",
                "--samples",
                "120",
                "--out",
                matrix.to_str().unwrap(),
            ],
            &mut sink,
        )
        .unwrap();
        run(
            "infer",
            &[
                "--input",
                matrix.to_str().unwrap(),
                "--output",
                edges_ok.to_str().unwrap(),
                "--q",
                "8",
                "--ranks",
                "4",
            ],
            &mut sink,
        )
        .unwrap();
        let mut out = Vec::new();
        run(
            "infer",
            &[
                "--input",
                matrix.to_str().unwrap(),
                "--output",
                edges.to_str().unwrap(),
                "--q",
                "8",
                "--ranks",
                "4",
                "--fault-plan",
                "seed=1;crash(rank=2,round=1)",
            ],
            &mut out,
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("recovered from 1 lost rank"), "{text}");
        let a = std::fs::read_to_string(&edges).unwrap();
        let b = std::fs::read_to_string(&edges_ok).unwrap();
        assert_eq!(a, b, "recovered run must emit the same edge list");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn coordinator_crash_plan_is_a_clean_error() {
        let dir = tmpdir("rank0_crash");
        let matrix = dir.join("m.tsv");
        let mut sink = Vec::new();
        run(
            "generate",
            &[
                "--genes",
                "12",
                "--samples",
                "100",
                "--out",
                matrix.to_str().unwrap(),
            ],
            &mut sink,
        )
        .unwrap();
        let err = run(
            "infer",
            &[
                "--input",
                matrix.to_str().unwrap(),
                "--output",
                dir.join("e.tsv").to_str().unwrap(),
                "--q",
                "8",
                "--ranks",
                "3",
                "--fault-plan",
                "seed=1;crash(rank=0,round=1)",
            ],
            &mut sink,
        )
        .unwrap_err();
        assert!(err.0.contains("rank 0"), "{}", err.0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn trace_dir_requires_ranks() {
        let args = ["--input", "x", "--output", "y", "--trace-dir", "d"];
        let mut out = Vec::new();
        let err = run("infer", &args, &mut out).unwrap_err();
        assert!(err.0.contains("--ranks"), "{}", err.0);
    }

    #[test]
    fn distributed_trace_dir_feeds_trace_report() {
        let dir = tmpdir("trace_report");
        let matrix = dir.join("m.tsv");
        let edges = dir.join("e.tsv");
        let traces = dir.join("traces");
        let chrome = dir.join("run.chrome.json");
        let flame = dir.join("run.folded");
        let mut sink = Vec::new();
        run(
            "generate",
            &[
                "--genes",
                "16",
                "--samples",
                "120",
                "--out",
                matrix.to_str().unwrap(),
            ],
            &mut sink,
        )
        .unwrap();
        run(
            "infer",
            &[
                "--input",
                matrix.to_str().unwrap(),
                "--output",
                edges.to_str().unwrap(),
                "--q",
                "8",
                "--ranks",
                "4",
                "--trace-dir",
                traces.to_str().unwrap(),
            ],
            &mut sink,
        )
        .unwrap();
        let text = String::from_utf8(sink).unwrap();
        assert!(text.contains("per-rank trace streams"), "{text}");
        assert!(traces.join("manifest.json").exists());
        assert!(traces.join("rank-3.ndjson").exists());

        let mut report = Vec::new();
        run(
            "trace-report",
            &[
                "--trace-dir",
                traces.to_str().unwrap(),
                "--chrome",
                chrome.to_str().unwrap(),
                "--flame",
                flame.to_str().unwrap(),
                "--no-calibrate",
            ],
            &mut report,
        )
        .unwrap();
        let text = String::from_utf8(report).unwrap();
        assert!(text.contains("per-rank load"), "{text}");
        assert!(text.contains("critical path"), "{text}");
        assert!(text.contains("perf attribution"), "{text}");
        assert!(chrome.exists() && flame.exists());
        let chrome_text = std::fs::read_to_string(&chrome).unwrap();
        assert!(
            chrome_text.starts_with("{\"traceEvents\":["),
            "{chrome_text}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn trace_report_reads_single_process_streams_too() {
        let dir = tmpdir("trace_report_single");
        let matrix = dir.join("m.tsv");
        let edges = dir.join("e.tsv");
        let trace = dir.join("run.ndjson");
        let mut sink = Vec::new();
        run(
            "generate",
            &[
                "--genes",
                "14",
                "--samples",
                "100",
                "--out",
                matrix.to_str().unwrap(),
            ],
            &mut sink,
        )
        .unwrap();
        run(
            "infer",
            &[
                "--input",
                matrix.to_str().unwrap(),
                "--output",
                edges.to_str().unwrap(),
                "--q",
                "6",
                "--trace",
                trace.to_str().unwrap(),
            ],
            &mut sink,
        )
        .unwrap();
        let mut report = Vec::new();
        run(
            "trace-report",
            &["--trace", trace.to_str().unwrap(), "--no-calibrate"],
            &mut report,
        )
        .unwrap();
        let text = String::from_utf8(report).unwrap();
        assert!(text.contains("stage.mi"), "{text}");
        assert!(text.contains("run:"), "run.config line must render: {text}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn trace_report_needs_exactly_one_source() {
        let mut out = Vec::new();
        let err = run("trace-report", &[], &mut out).unwrap_err();
        assert!(err.0.contains("exactly one"), "{}", err.0);
        let err = run(
            "trace-report",
            &["--trace", "a", "--trace-dir", "b"],
            &mut out,
        )
        .unwrap_err();
        assert!(err.0.contains("exactly one"), "{}", err.0);
    }

    #[test]
    fn bench_writes_artifact_and_gates_on_baseline() {
        let dir = tmpdir("bench");
        let artifact = dir.join("BENCH_14.json");
        let candidate = dir.join("BENCH_14.cand.json");
        let mut out = Vec::new();
        run(
            "bench",
            &[
                "--quick",
                "--reps",
                "2",
                "--out",
                artifact.to_str().unwrap(),
            ],
            &mut out,
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("kernel.vector"), "{text}");
        assert!(text.contains("ring.4"), "{text}");
        assert!(artifact.exists());

        // Unchanged tree vs its own baseline: the gate passes.
        let mut out = Vec::new();
        run(
            "bench",
            &[
                "--quick",
                "--reps",
                "2",
                "--out",
                candidate.to_str().unwrap(),
                "--baseline",
                artifact.to_str().unwrap(),
            ],
            &mut out,
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("no significant regressions"), "{text}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bench_gate_trips_on_injected_vector_slowdown() {
        let dir = tmpdir("bench_slow");
        let artifact = dir.join("BENCH_14.json");
        let candidate = dir.join("BENCH_14.cand.json");
        let mut out = Vec::new();
        run(
            "bench",
            &[
                "--quick",
                "--reps",
                "1",
                "--out",
                artifact.to_str().unwrap(),
            ],
            &mut out,
        )
        .unwrap();
        let mut out = Vec::new();
        let err = run(
            "bench",
            &[
                "--quick",
                "--reps",
                "1",
                "--out",
                candidate.to_str().unwrap(),
                "--baseline",
                artifact.to_str().unwrap(),
                "--inject-slowdown",
                "3",
            ],
            &mut out,
        )
        .unwrap_err();
        assert!(err.0.contains("regression"), "{}", err.0);
        let text = String::from_utf8(out).unwrap();
        assert!(
            text.contains("REGRESSION") && text.contains("kernel.vector"),
            "the vector kernel must be the flagged series: {text}"
        );
        assert!(
            !text.contains("REGRESSION kernel.scalar"),
            "the scalar kernel is untouched by the injection: {text}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bench_rejects_mode_mismatched_baseline() {
        let dir = tmpdir("bench_mode");
        let baseline = dir.join("full.json");
        // A minimal *full* baseline; the candidate runs --quick.
        std::fs::write(
            &baseline,
            "{\n  \"format\": \"gnet-bench\",\n  \"version\": 1,\n  \"issue\": 5,\n  \
             \"quick\": false,\n  \"entries\": []\n}",
        )
        .unwrap();
        let mut out = Vec::new();
        let err = run(
            "bench",
            &[
                "--quick",
                "--reps",
                "1",
                "--out",
                dir.join("cand.json").to_str().unwrap(),
                "--baseline",
                baseline.to_str().unwrap(),
            ],
            &mut out,
        )
        .unwrap_err();
        assert!(err.0.contains("modes must match"), "{}", err.0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bench_rejects_bad_slowdown() {
        let mut out = Vec::new();
        let err = run("bench", &["--inject-slowdown", "0.5"], &mut out).unwrap_err();
        assert!(err.0.contains("inject-slowdown"), "{}", err.0);
    }

    #[test]
    fn early_exit_flag_switches_strategy() {
        let tokens = ["--input", "x", "--output", "y", "--early-exit", "--q", "5"];
        let infer = COMMANDS.iter().find(|c| c.name == "infer").unwrap();
        let args = ArgMap::parse(infer, tokens.map(String::from).to_vec()).unwrap();
        let cfg = config_from_args(&args).unwrap();
        assert_eq!(cfg.null_strategy, NullStrategy::EarlyExit);
        assert_eq!(cfg.permutations, 5);
    }

    /// Write `matrix` as a TSV the commands can reload.
    fn write_matrix(matrix: &ExpressionMatrix, path: &std::path::Path) {
        let f = std::fs::File::create(path).unwrap();
        expr_io::write_tsv(matrix, BufWriter::new(f)).unwrap();
    }

    /// Split a synthetic dataset three ways: the full TSV, a gene-prefix
    /// TSV, and the appended-genes TSV.
    fn update_fixture(dir: &std::path::Path) -> (std::path::PathBuf, std::path::PathBuf) {
        split_fixture(dir, 3, 60, 4)
    }

    /// [`update_fixture`] over `2 · pairs` coupled genes of `samples`
    /// samples, keeping the first `old` genes as the base.
    fn split_fixture(
        dir: &std::path::Path,
        pairs: usize,
        samples: usize,
        old: usize,
    ) -> (std::path::PathBuf, std::path::PathBuf) {
        let (full, _) = gnet_expr::synth::coupled_pairs(
            pairs,
            samples,
            gnet_expr::synth::Coupling::Linear(0.9),
            5,
        );
        let old = full.select_genes(&(0..old).collect::<Vec<_>>());
        let append = full.select_genes(&(old.genes()..full.genes()).collect::<Vec<_>>());
        write_matrix(&full, &dir.join("full.tsv"));
        write_matrix(&old, &dir.join("old.tsv"));
        write_matrix(&append, &dir.join("append.tsv"));
        (dir.join("old.tsv"), dir.join("append.tsv"))
    }

    #[test]
    fn update_reproduces_the_batch_edge_list_byte_for_byte() {
        let dir = tmpdir("update_equiv");
        let (old_tsv, append_tsv) = update_fixture(&dir);
        let state_dir = dir.join("state");
        let mut sink = Vec::new();

        let base = ["--q", "8", "--threads", "1", "--seed", "7"];
        let old_edges = dir.join("old_edges.tsv");
        let mut infer_args = vec![
            "--input",
            old_tsv.to_str().unwrap(),
            "--output",
            old_edges.to_str().unwrap(),
            "--save-state",
            state_dir.to_str().unwrap(),
        ];
        infer_args.extend_from_slice(&base);
        run("infer", &infer_args, &mut sink).unwrap();

        run(
            "update",
            &[
                "--state",
                state_dir.to_str().unwrap(),
                "--append",
                append_tsv.to_str().unwrap(),
                "--output",
                dir.join("updated_edges.tsv").to_str().unwrap(),
            ],
            &mut sink,
        )
        .unwrap();

        // Batch over the concatenated dataset, through the same save-state
        // path, must yield byte-identical edges.
        let full_tsv = dir.join("full.tsv");
        let batch_edges = dir.join("batch_edges.tsv");
        let batch_state = dir.join("batch_state");
        let mut batch_args = vec![
            "--input",
            full_tsv.to_str().unwrap(),
            "--output",
            batch_edges.to_str().unwrap(),
            "--save-state",
            batch_state.to_str().unwrap(),
        ];
        batch_args.extend_from_slice(&base);
        run("infer", &batch_args, &mut sink).unwrap();

        let updated = std::fs::read(dir.join("updated_edges.tsv")).unwrap();
        let batch = std::fs::read(dir.join("batch_edges.tsv")).unwrap();
        assert!(!updated.is_empty());
        assert_eq!(updated, batch, "incremental and batch edge lists differ");
        let file = gnet_core::FileKind::State.file_name();
        assert_eq!(
            std::fs::read(state_dir.join(file)).unwrap(),
            std::fs::read(batch_state.join(file)).unwrap(),
            "the updated bundle is the batch bundle"
        );

        let text = String::from_utf8(sink).unwrap();
        assert!(text.contains("appended 2 gene(s)"), "{text}");
        assert!(text.contains("scanned 9 pairs"), "{text}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn update_boundary_kill_resumes_to_the_same_bytes() {
        let dir = tmpdir("update_kill");
        // 8 + 4 genes: the cache rule tiles them 4 wide, so the frontier
        // has three tiles (16, 16 and 6 pairs) and boundary 2 falls
        // mid-scan.
        let (old_tsv, append_tsv) = split_fixture(&dir, 6, 300, 8);
        let state_dir = dir.join("state");
        let mut sink = Vec::new();

        run(
            "infer",
            &[
                "--input",
                old_tsv.to_str().unwrap(),
                "--output",
                dir.join("old_edges.tsv").to_str().unwrap(),
                "--save-state",
                state_dir.to_str().unwrap(),
                "--q",
                "8",
                "--threads",
                "1",
            ],
            &mut sink,
        )
        .unwrap();
        let bundle = state_dir.join(gnet_core::FileKind::State.file_name());
        let before = std::fs::read(&bundle).unwrap();

        let err = run(
            "update",
            &[
                "--state",
                state_dir.to_str().unwrap(),
                "--append",
                append_tsv.to_str().unwrap(),
                "--output",
                dir.join("updated_edges.tsv").to_str().unwrap(),
                "--checkpoint-every",
                "1",
                "--fault-plan",
                "seed=1;update-crash(boundary=2)",
            ],
            &mut sink,
        )
        .unwrap_err();
        assert!(err.0.contains("--resume"), "{}", err.0);
        assert!(err.0.contains("after 32 pair(s)"), "{}", err.0);
        // The kill left the bundle untouched and the progress durable.
        assert_eq!(std::fs::read(&bundle).unwrap(), before);
        assert!(state_dir
            .join(gnet_core::FileKind::UpdateProgress.file_name())
            .exists());

        run(
            "update",
            &[
                "--state",
                state_dir.to_str().unwrap(),
                "--append",
                append_tsv.to_str().unwrap(),
                "--output",
                dir.join("resumed_edges.tsv").to_str().unwrap(),
                "--checkpoint-every",
                "1",
                "--resume",
            ],
            &mut sink,
        )
        .unwrap();

        // A clean, uninterrupted update in a copied state dir must produce
        // the same bundle and edges.
        let clean_dir = dir.join("clean_state");
        std::fs::create_dir_all(&clean_dir).unwrap();
        std::fs::write(
            clean_dir.join(gnet_core::FileKind::State.file_name()),
            &before,
        )
        .unwrap();
        run(
            "update",
            &[
                "--state",
                clean_dir.to_str().unwrap(),
                "--append",
                append_tsv.to_str().unwrap(),
                "--output",
                dir.join("clean_edges.tsv").to_str().unwrap(),
            ],
            &mut sink,
        )
        .unwrap();
        assert_eq!(
            std::fs::read(dir.join("resumed_edges.tsv")).unwrap(),
            std::fs::read(dir.join("clean_edges.tsv")).unwrap()
        );
        assert_eq!(
            std::fs::read(&bundle).unwrap(),
            std::fs::read(clean_dir.join(gnet_core::FileKind::State.file_name())).unwrap(),
            "resumed and clean bundles must be byte-identical"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn save_state_writes_one_bundle_from_every_run_path() {
        let dir = tmpdir("save_state_paths");
        let at = |name: &str| dir.join(name).to_str().unwrap().to_string();
        let (m, e) = (at("m.tsv"), at("e.tsv"));
        run(
            "generate",
            &[
                "--genes",
                "24",
                "--samples",
                "120",
                "--seed",
                "3",
                "--out",
                &m,
            ],
            &mut Vec::new(),
        )
        .unwrap();
        let bundle = |name: &str, extra: &[&str]| {
            let state = at(name);
            let args = [
                &["--input", &m, "--output", &e, "--q", "8", "--tile", "5"][..],
                &["--save-state", &state],
                extra,
            ]
            .concat();
            run("infer", &args, &mut Vec::new()).map(|()| {
                std::fs::read(dir.join(name).join(gnet_core::FileKind::State.file_name())).unwrap()
            })
        };
        let plain = bundle("plain", &["--threads", "1"]).unwrap();
        let (ckpt, trace, metrics) = (at("ckpt"), at("t.ndjson"), at("m.json"));
        let crash = ["--checkpoint-dir", &ckpt, "--checkpoint-every", "2"];
        let crashed = bundle(
            "crashed",
            &[
                &crash[..],
                &["--fault-plan", "seed=1;chunk-crash(boundary=2)"],
            ]
            .concat(),
        );
        assert!(crashed.unwrap_err().0.contains("--resume"));
        assert!(
            !dir.join("crashed").exists(),
            "an interrupted run saves no state"
        );
        for (name, extra) in [
            ("threads", vec!["--threads", "2"]),
            ("ranks", vec!["--ranks", "4"]),
            ("ranks-threads", vec!["--ranks", "3", "--threads", "2"]),
            ("resumed", [&crash[..], &["--resume"]].concat()),
            ("checkpointed", vec!["--checkpoint-dir", &at("fresh")]),
            (
                "traced",
                vec!["--trace", &trace, "--metrics", &metrics, "--progress"],
            ),
        ] {
            assert_eq!(bundle(name, &extra).unwrap(), plain, "{name}: {extra:?}");
        }
        let events = std::fs::read_to_string(&trace).unwrap();
        assert!(
            events.contains("\"state.saved\""),
            "the trace records the save"
        );
        assert!(std::fs::read_to_string(&metrics)
            .unwrap()
            .contains("mi.pairs"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// `gnet infer` on `matrix` with `extra` flags; the error it returns.
    fn infer_error(tag: &str, matrix: &ExpressionMatrix, extra: &[&str]) -> CliError {
        let dir = tmpdir(tag);
        let input = dir.join("m.tsv");
        write_matrix(matrix, &input);
        let out_tsv = dir.join("e.tsv");
        let mut args = vec![
            "--input",
            input.to_str().unwrap(),
            "--output",
            out_tsv.to_str().unwrap(),
        ];
        args.extend_from_slice(extra);
        let err = run("infer", &args, &mut Vec::new()).unwrap_err();
        assert!(!out_tsv.exists(), "a rejected run writes no edges");
        let _ = std::fs::remove_dir_all(&dir);
        err
    }

    #[test]
    fn bad_infer_options_are_errors_naming_their_flag() {
        let matrix = gnet_expr::synth::independent_uniform(6, 40, 3);
        let ckpt = tmpdir("bad_option_ckpt").join("D");
        let ckpt = ckpt.to_str().unwrap();
        for (extra, flag) in [
            (&["--ranks", "2", "--early-exit"][..], "--early-exit"),
            (&["--threads", "0"], "--threads"),
            (&["--tile", "0"], "--tile"),
            (&["--tile", "5000000000"], "--tile"),
            (&["--bins", "1"], "--bins"),
            (&["--bins", "2"], "--bins"),
            (&["--bins", "65"], "--bins"),
            (&["--order", "0"], "--order"),
            (&["--order", "9"], "--order"),
            (&["--alpha", "0"], "--alpha"),
            (&["--alpha", "2"], "--alpha"),
            (&["--q", "0"], "--q"),
            (&["--q", "0", "--threshold", "nan"], "--threshold"),
            (&["--threshold", "inf"], "--threshold"),
            (&["--dpi", "-1"], "--dpi"),
            (&["--dpi", "1"], "--dpi"),
            (&["--dpi", "nan"], "--dpi"),
            (&["--checkpoint-dir", ckpt, "--early-exit"], "--early-exit"),
            (
                &[
                    "--checkpoint-dir",
                    ckpt,
                    "--early-exit",
                    "--threshold",
                    "0.1",
                ],
                "--checkpoint-dir",
            ),
            (&["--save-state", ckpt, "--early-exit"], "--save-state"),
        ] {
            let run = std::panic::catch_unwind(|| infer_error("bad_option", &matrix, extra));
            let err = run.unwrap_or_else(|_| panic!("gnet infer {extra:?} panicked"));
            assert!(err.0.contains(flag), "{extra:?}: {}", err.0);
            assert!(
                !std::path::Path::new(&ckpt).exists(),
                "{extra:?} made {ckpt}"
            );
        }
    }

    #[test]
    fn bad_generate_and_predict_options_are_errors_naming_their_flag() {
        let dir = tmpdir("bad_generate");
        let matrix = dir.join("m.tsv");
        let out = matrix.to_str().unwrap();
        for (command, flag, value) in [
            ("generate", "--genes", "0"),
            ("generate", "--genes", "1"),
            ("generate", "--samples", "0"),
            ("generate", "--avg-degree", "0"),
            ("generate", "--avg-degree", "nan"),
            ("generate", "--avg-degree", "inf"),
            ("predict", "--genes", "0"),
            ("predict", "--genes", "1"),
        ] {
            let run = std::panic::catch_unwind(|| {
                let mut sink = Vec::new();
                match command {
                    "generate" => run("generate", &[flag, value, "--out", out], &mut sink),
                    _ => run("predict", &[flag, value], &mut sink),
                }
            });
            let result = run.unwrap_or_else(|_| panic!("gnet {command} {flag} {value} panicked"));
            let err = result.expect_err("a bad option is rejected");
            assert!(
                err.0.contains(flag),
                "gnet {command} {flag} {value}: {}",
                err.0
            );
        }
        assert!(!matrix.exists(), "a rejected generate writes no matrix");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn infer_rejects_more_ranks_than_genes() {
        let matrix = gnet_expr::synth::independent_uniform(3, 40, 3);
        let err = infer_error("too_many_ranks", &matrix, &["--ranks", "4", "--q", "4"]);
        assert!(err.0.contains("--ranks 4"), "{}", err.0);
    }

    #[test]
    fn bad_inputs_are_errors_naming_the_input_or_flag() {
        let dir = tmpdir("bad_inputs");
        let at = |name: &str| dir.join(name).to_str().unwrap().to_string();
        for (name, text) in [
            ("empty.tsv", "gene\tS0\tS1\n"),
            ("zero.tsv", ""),
            ("ragged.tsv", "gene\tS0\tS1\ng1\t1\t2\ng2\t3\n"),
            ("inf.tsv", "gene\tS0\tS1\tS2\ng1\t1\tinf\t2\ng2\t3\t4\t5\n"),
            (
                "dup.tsv",
                "gene\tS0\tS1\tS2\ng1\t1\t2\t3\ng2\t2\t3\t1\ng1\t3\t1\t2\n",
            ),
        ] {
            std::fs::write(at(name), text).unwrap();
        }
        let uniform = gnet_expr::synth::independent_uniform;
        write_matrix(&uniform(4, 1, 3), &dir.join("one_sample.tsv"));
        write_matrix(&uniform(1, 40, 3), &dir.join("one_gene.tsv"));
        write_matrix(&uniform(6, 40, 3), &dir.join("m.tsv"));
        write_matrix(&uniform(2, 10, 4), &dir.join("ten_samples.tsv"));
        let (old_tsv, append_tsv) = update_fixture(&dir);
        let (state, append) = (at("state"), append_tsv.to_str().unwrap().to_string());
        let infer = ["--input", old_tsv.to_str().unwrap(), "--save-state", &state];
        run(
            "infer",
            &[&infer[..], &["--output", &at("old.edges.tsv"), "--q", "6"]].concat(),
            &mut Vec::new(),
        )
        .unwrap();
        let bundle = std::fs::read(
            dir.join("state")
                .join(gnet_core::FileKind::State.file_name()),
        )
        .unwrap();

        let (e, ckpt) = (at("e.tsv"), at("ckpt"));
        let infer = |input: &str| {
            vec![
                "--input".to_string(),
                at(input),
                "--output".into(),
                e.clone(),
            ]
        };
        let update = |state: &str, append: &str| {
            let mut args = vec!["--state".to_string(), state.to_string(), "--append".into()];
            args.extend([append.to_string(), "--output".into(), e.clone()]);
            args
        };
        let with = |mut args: Vec<String>, extra: &[&str]| {
            args.extend(extra.iter().map(|t| t.to_string()));
            args
        };
        // Each row: the command, its tokens, and what the error must name:
        // the input or the flag, and why it was refused.
        let (empty, ragged) = (
            "at least one gene and one sample",
            "expected 2 values, found 1",
        );
        let non_finite = "non-finite value at gene 0, sample 1";
        for (command_name, args, needles) in [
            ("infer", infer("empty.tsv"), [at("empty.tsv"), empty.into()]),
            ("infer", infer("zero.tsv"), [at("zero.tsv"), empty.into()]),
            (
                "infer",
                infer("ragged.tsv"),
                [at("ragged.tsv"), ragged.into()],
            ),
            (
                "infer",
                infer("inf.tsv"),
                [at("inf.tsv"), non_finite.into()],
            ),
            (
                "infer",
                with(infer("one_sample.tsv"), &["--q", "5"]),
                [at("one_sample.tsv"), "1 sample(s)".into()],
            ),
            (
                "infer",
                infer("one_gene.tsv"),
                [at("one_gene.tsv"), "1 gene(s)".into()],
            ),
            (
                "infer",
                infer("dup.tsv"),
                [
                    at("dup.tsv"),
                    "line 4: gene \"g1\" repeats the name on line 2".into(),
                ],
            ),
            (
                "infer",
                with(
                    infer("m.tsv"),
                    &["--checkpoint-dir", &ckpt, "--checkpoint-every", "0"],
                ),
                ["--checkpoint-every".into(), "must be at least 1".into()],
            ),
            (
                "infer",
                with(infer("m.tsv"), &["--center-batches", "100"]),
                ["--center-batches 100".into(), "of the 40 samples".into()],
            ),
            (
                "infer",
                with(infer("m.tsv"), &["--center-batches", "30"]),
                ["--center-batches 30".into(), "of the 40 samples".into()],
            ),
            (
                "update",
                with(update(&state, &append), &["--checkpoint-every", "0"]),
                ["--checkpoint-every".into(), "must be at least 1".into()],
            ),
            (
                "update",
                update(&state, &at("ten_samples.tsv")),
                [at("ten_samples.tsv"), "60 samples required".into()],
            ),
            (
                "update",
                with(update(&state, &append), &["--mode", "samples"]),
                [append.clone(), "sample append has 2 genes".into()],
            ),
            (
                "update",
                with(update(&state, &append), &["--mode", "sideways"]),
                ["--mode".into(), "expected genes|samples".into()],
            ),
            (
                "update",
                update(&at("no_state"), &append),
                [at("no_state"), "no state file".into()],
            ),
            (
                "update",
                update(&state, &at("inf.tsv")),
                [at("inf.tsv"), non_finite.into()],
            ),
            (
                "update",
                update(&state, &at("ragged.tsv")),
                [at("ragged.tsv"), ragged.into()],
            ),
            (
                "update",
                update(&state, &at("empty.tsv")),
                [at("empty.tsv"), empty.into()],
            ),
        ] {
            let tokens: Vec<&str> = args.iter().map(String::as_str).collect();
            let attempt = std::panic::catch_unwind(|| run(command_name, &tokens, &mut Vec::new()));
            let result =
                attempt.unwrap_or_else(|_| panic!("gnet {command_name} {tokens:?} panicked"));
            let err = result.expect_err("a bad input is refused");
            for needle in &needles {
                assert!(
                    err.0.contains(needle.as_str()),
                    "gnet {command_name} {tokens:?}: {needle:?} missing from {}",
                    err.0
                );
            }
            assert!(
                !dir.join("e.tsv").exists(),
                "gnet {command_name} {tokens:?} wrote edges"
            );
        }
        let after = std::fs::read(
            dir.join("state")
                .join(gnet_core::FileKind::State.file_name()),
        );
        assert_eq!(
            after.unwrap(),
            bundle,
            "a refused update leaves the bundle as it was"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn kind_mismatches_are_refusals_naming_the_flag_and_write_nothing() {
        let dir = tmpdir("kind_mismatch");
        let at = |name: &str| dir.join(name).to_str().unwrap().to_string();
        let (m, e, ckpt) = (at("m.tsv"), at("e.tsv"), at("ckpt"));
        let mut sink = Vec::new();
        run(
            "generate",
            &["--genes", "24", "--samples", "120", "--out", &m],
            &mut sink,
        )
        .unwrap();
        let common = ["--input", &m, "--output", &e];
        let checkpointed = [
            &common[..],
            &["--q", "8", "--tile", "5", "--checkpoint-dir", &ckpt],
            &["--checkpoint-every", "2"],
        ]
        .concat();
        let crash = ["--fault-plan", "seed=1;chunk-crash(boundary=2)"];
        let err = run("infer", &[&checkpointed[..], &crash].concat(), &mut sink).unwrap_err();
        assert!(err.0.contains("--resume"), "{}", err.0);
        let checkpoint = dir
            .join("ckpt")
            .join(gnet_core::FileKind::Checkpoint.file_name());
        let before = std::fs::read(&checkpoint).unwrap();
        std::fs::remove_file(&e).ok();

        for (command_name, tokens, flag) in [
            (
                "infer",
                [&checkpointed[..], &["--resume", "yes"]].concat(),
                "--resume",
            ),
            (
                "infer",
                [&common[..], &["--save-state"]].concat(),
                "--save-state",
            ),
            (
                "infer",
                [&common[..], &["--ranks", "2", "--trace-dir"]].concat(),
                "--trace-dir",
            ),
            (
                "infer",
                [&common[..], &["--fault-plan", "--q", "4"]].concat(),
                "--fault-plan",
            ),
            (
                "infer",
                [&common[..], &["--threads", "--q", "4"]].concat(),
                "--threads",
            ),
            ("bench", vec!["--quick", "1"], "--quick"),
            (
                "infer",
                [&common[..], &["--progress", "--progress"]].concat(),
                "--progress",
            ),
        ] {
            match parse(command_name, &tokens) {
                Err(ArgError::Invalid(msg)) => assert!(msg.contains(flag), "{tokens:?}: {msg}"),
                other => {
                    panic!("gnet {command_name} {tokens:?}: expected a refusal, got {other:?}")
                }
            }
            assert!(run(command_name, &tokens, &mut sink).is_err());
        }
        assert_eq!(
            std::fs::read(&checkpoint).unwrap(),
            before,
            "the checkpoint is untouched"
        );
        assert!(!dir.join("e.tsv").exists(), "no edges were written");
        let entries = std::fs::read_dir(&dir).unwrap().count();
        assert_eq!(
            entries, 2,
            "only the matrix and the checkpoint directory remain"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn status_flags_need_the_distributed_path() {
        let mut sink = Vec::new();
        let err = run(
            "infer",
            &[
                "--input",
                "m.tsv",
                "--output",
                "e.tsv",
                "--status-addr",
                "127.0.0.1:0",
            ],
            &mut sink,
        )
        .unwrap_err();
        assert!(err.0.contains("--ranks"), "{}", err.0);

        let err = run(
            "infer",
            &[
                "--input",
                "m.tsv",
                "--output",
                "e.tsv",
                "--status-interval-ms",
                "50",
            ],
            &mut sink,
        )
        .unwrap_err();
        assert!(err.0.contains("--status-addr"), "{}", err.0);
    }

    /// End-to-end live telemetry through the CLI: a 2-rank in-process
    /// run maintaining a --status-file, `gnet status` on the final
    /// snapshot, and the byte-identity invariant vs a telemetry-off run.
    #[test]
    fn live_status_file_flows_into_gnet_status() {
        let dir = tmpdir("live_status");
        let matrix = dir.join("m.tsv");
        let edges_live = dir.join("live.tsv");
        let edges_off = dir.join("off.tsv");
        let status = dir.join("status.json");
        let mut sink = Vec::new();
        run(
            "generate",
            &[
                "--genes",
                "24",
                "--samples",
                "120",
                "--seed",
                "3",
                "--out",
                matrix.to_str().unwrap(),
            ],
            &mut sink,
        )
        .unwrap();
        for (out_path, telem) in [(&edges_live, true), (&edges_off, false)] {
            let mut tokens = vec![
                "--input".to_string(),
                matrix.to_str().unwrap().to_string(),
                "--output".to_string(),
                out_path.to_str().unwrap().to_string(),
                "--q".to_string(),
                "8".to_string(),
                "--ranks".to_string(),
                "2".to_string(),
            ];
            if telem {
                tokens.extend([
                    "--status-file".to_string(),
                    status.to_str().unwrap().to_string(),
                    "--status-interval-ms".to_string(),
                    "5".to_string(),
                ]);
            }
            let tokens: Vec<&str> = tokens.iter().map(String::as_str).collect();
            run("infer", &tokens, &mut sink).unwrap();
        }
        assert_eq!(
            std::fs::read(&edges_live).unwrap(),
            std::fs::read(&edges_off).unwrap(),
            "telemetry must never perturb the edge set"
        );

        let mut status_out = Vec::new();
        run(
            "status",
            &["--target", status.to_str().unwrap()],
            &mut status_out,
        )
        .unwrap();
        let text = String::from_utf8(status_out).unwrap();
        assert!(text.contains("gnet-status/1: done"), "{text}");
        assert!(text.lines().count() >= 5, "per-rank table present: {text}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// An in-process ring writes per-rank traces and live status in one
    /// run, and its edges are a plain ring's bytes.
    #[test]
    fn in_process_ring_writes_traces_and_status_together() {
        let dir = tmpdir("trace_and_status");
        let matrix = dir.join("m.tsv");
        let traces = dir.join("traces");
        let status = dir.join("status.json");
        let mut sink = Vec::new();
        run(
            "generate",
            &[
                "--genes",
                "20",
                "--samples",
                "100",
                "--out",
                matrix.to_str().unwrap(),
            ],
            &mut sink,
        )
        .unwrap();
        let infer = |edges: &std::path::Path, extra: &[&str]| {
            let mut args = vec![
                "--input",
                matrix.to_str().unwrap(),
                "--output",
                edges.to_str().unwrap(),
                "--q",
                "8",
                "--ranks",
                "2",
            ];
            args.extend_from_slice(extra);
            run("infer", &args, &mut Vec::new()).unwrap();
            std::fs::read(edges).unwrap()
        };
        let plain = infer(&dir.join("plain.tsv"), &[]);
        let both = infer(
            &dir.join("both.tsv"),
            &[
                "--trace-dir",
                traces.to_str().unwrap(),
                "--status-file",
                status.to_str().unwrap(),
                "--status-interval-ms",
                "5",
            ],
        );
        assert_eq!(both, plain, "traces and telemetry never perturb the edges");
        let manifest = std::fs::read_to_string(traces.join("manifest.json")).unwrap();
        for r in 0..2 {
            assert!(manifest.contains(&format!("rank-{r}.ndjson")), "{manifest}");
            assert!(traces.join(format!("rank-{r}.ndjson")).exists());
        }
        let mut status_out = Vec::new();
        run(
            "status",
            &["--target", status.to_str().unwrap()],
            &mut status_out,
        )
        .unwrap();
        let text = String::from_utf8(status_out).unwrap();
        assert!(text.contains("gnet-status/1: done"), "{text}");
        assert!(text.contains("190/190 (100.0%)"), "{text}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
