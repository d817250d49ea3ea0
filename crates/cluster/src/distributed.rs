//! Distributed TINGe-style network construction over the simulated
//! cluster.
//!
//! Genes are block-distributed over `P` ranks. Every rank prepares its
//! own block (rank transform + B-spline weights) and computes the pairs
//! *within* it; the cross-block pairs are covered by rotating blocks
//! around a ring for `⌊P/2⌋` rounds — after round `d` rank `r` holds
//! block `(r − d) mod P`, and each unordered block pair has exactly one
//! *owner* (the rank that meets the partner block in the earlier round,
//! ties to the lower rank), so every gene pair is computed exactly once
//! across the cluster. Pooled-null moments and candidate edges are then
//! collected on rank 0, which applies the global threshold — the same
//! statistics, in the same arithmetic, as the shared-memory pipeline.
//!
//! This is the structure of the original TINGe MPI implementation (the
//! cluster baseline the paper compares against), realized over the
//! in-process fabric of [`crate::comm`].
//!
//! ## Failure awareness
//!
//! The driver survives the loss of any non-coordinator rank, with the
//! same edge set as the fault-free run (degraded wall time only):
//!
//! * **Self-healing ring.** Every frame carries a tag and round number,
//!   and every ring receive is bounded by a timeout. When a rank's
//!   predecessor dies (or a frame is dropped/late), the rank
//!   *reconstructs* the block it expected — block `(r − d) mod P` —
//!   directly from the shared expression matrix and forwards it as its
//!   own travelling block, so only the immediate successor pays the
//!   detection latency and the ring stays whole downstream.
//! * **Census + redistribution.** Rank 0 collects per-rank results with
//!   bounded receives; ranks that never report are presumed dead. All
//!   block pairs owned by dead ranks are redistributed round-robin over
//!   the survivors (rank 0 included), recomputed from scratch in the
//!   same canonical orientation, and merged as *supplements*. A rank
//!   falsely presumed dead (its results frame was dropped) receives an
//!   empty assignment and terminates; a survivor whose supplement never
//!   arrives has its share recomputed by rank 0 — the ultimate backstop.
//! * **Coordinator loss is job loss.** A fault plan that kills rank 0 is
//!   rejected up front with [`ClusterError::CoordinatorCrash`] (MPI
//!   semantics: the job cannot outlive its root).
//!
//! In a fault-free run the recovery protocol is pure bookkeeping: every
//! assignment is empty, merging empty supplements is an exact no-op, and
//! results merge in rank order — so the output is bit-identical to the
//! historical gather-based implementation.

use crate::codec::{decode_block, encode_block, GeneBlock};
use crate::comm::{run_ranks_on, Fabric, RecvTimeoutError};
use crate::live::{live_mark_dead, live_tick, BeatState, LiveDuty, TelemetryPlane};
use crate::protocol::{
    block_range, Effect, Event as ProtoEvent, Frame as ProtoFrame, Mutation, Phase, RankMachine,
    Wait,
};
use crate::transport::Transport;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use gnet_bspline::BsplineBasis;
use gnet_core::config::NullStrategy;
use gnet_core::InferenceConfig;
use gnet_expr::ExpressionMatrix;
use gnet_fault::{names, Fault, FaultInjector};
use gnet_graph::{Edge, GeneNetwork};
use gnet_mi::{prepare_gene, MiKernel, MiScratch};
use gnet_permute::{PermutationSet, PooledNull};
use gnet_trace::{MetricsSink, Recorder, Span, Value};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long a rank waits on a peer before presuming it dead. Generous
/// relative to any real round time; a crashed rank's dropped endpoint is
/// detected near-instantly anyway (channel disconnect), so this bound
/// matters only for dropped or delayed frames.
pub const DEFAULT_PEER_TIMEOUT: Duration = Duration::from_secs(5);

/// Frame tags: every message on the fabric is `tag (1B) ‖ round (u32 LE)
/// ‖ payload`. The round field is meaningful for `BLOCK` frames only
/// (zero elsewhere) and lets a receiver discard a stale, delayed block
/// instead of mistaking it for the current round's.
const TAG_BLOCK: u8 = 1;
const TAG_RESULTS: u8 = 3;
const TAG_ASSIGN: u8 = 4;
const TAG_SUPPLEMENT: u8 = 5;
/// Clock-sync stamp, circulated 0 → 1 → … → P−1 before compute when
/// per-rank tracing is armed. Payload: estimated rank-0 time (µs since
/// rank 0's trace epoch) at send, as `i64` LE.
const TAG_CLOCK: u8 = 6;
/// Post-protocol stats report from a worker process to the coordinator
/// (multi-process runs only; see [`crate::process`]). Per-edge FIFO
/// guarantees it never overtakes the worker's protocol frames.
pub(crate) const TAG_STATS: u8 = 7;

pub(crate) const FRAME_HEADER: usize = 5;

/// A distributed run that cannot proceed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ClusterError {
    /// The fault plan kills rank 0. The coordinator owns the census, the
    /// redistribution, and the final merge — its loss is job loss, and
    /// the driver refuses up front rather than hanging every survivor.
    CoordinatorCrash {
        /// Ring round at which the plan would kill rank 0.
        round: usize,
    },
    /// Writing a per-rank trace file or the manifest failed. The network
    /// was still inferred; only the observability output is missing.
    TraceIo {
        /// Path being written when the error hit.
        path: String,
        /// OS error rendering.
        message: String,
    },
    /// The transport could not be established (socket bind/dial/accept
    /// failure) — the run never started.
    Transport {
        /// OS error rendering.
        message: String,
    },
}

impl fmt::Display for ClusterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::CoordinatorCrash { round } => write!(
                f,
                "fault plan kills rank 0 at round {round}: coordinator loss is job loss \
                 (no recovery path); rerun without the rank-0 crash"
            ),
            Self::TraceIo { path, message } => {
                write!(f, "cannot write rank trace {path}: {message}")
            }
            Self::Transport { message } => {
                write!(f, "cannot establish cluster transport: {message}")
            }
        }
    }
}

impl std::error::Error for ClusterError {}

/// Per-rank execution statistics.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RankStats {
    /// Rank id.
    pub rank: usize,
    /// Gene pairs this rank evaluated.
    pub pairs: u64,
    /// Block pairs (incl. its diagonal block) this rank owned.
    pub block_pairs: usize,
    /// Messages this rank sent.
    pub messages: u64,
    /// Payload bytes this rank sent.
    pub bytes_sent: u64,
    /// Wall time this rank spent computing (excludes waiting).
    pub busy: Duration,
    /// True when an injected fault killed this rank mid-run.
    pub crashed: bool,
    /// Block pairs recomputed by this rank on behalf of dead ranks.
    pub reassigned_block_pairs: usize,
    /// This rank's trace-clock offset relative to rank 0 (µs): subtract
    /// it from a local trace timestamp to land on rank 0's timebase.
    /// Zero unless the run was traced (clock exchange only happens when
    /// per-rank recording is armed).
    pub clock_offset_us: i64,
}

/// Output of a distributed run.
#[derive(Clone, Debug)]
pub struct DistributedResult {
    /// The inferred network (identical in structure to the shared-memory
    /// pipeline's output).
    pub network: GeneNetwork,
    /// Global threshold applied.
    pub threshold: f64,
    /// Per-rank statistics, in rank order.
    pub rank_stats: Vec<RankStats>,
    /// Ranks rank 0 presumed dead during the census (crashed, or their
    /// results frame was lost). Empty on a fault-free run.
    pub crashed_ranks: Vec<usize>,
}

/// Run the full inference distributed over `ranks` simulated cluster
/// ranks (fault-free fabric).
///
/// # Panics
/// Panics if `ranks` is zero or exceeds the gene count, or if the config
/// requests the early-exit strategy (the distributed path implements the
/// paper-faithful exact test only).
pub fn infer_network_distributed(
    matrix: &ExpressionMatrix,
    config: &InferenceConfig,
    ranks: usize,
) -> DistributedResult {
    infer_network_distributed_faulty(
        matrix,
        config,
        ranks,
        &FaultInjector::none(),
        &Recorder::disabled(),
        DEFAULT_PEER_TIMEOUT,
    )
    .expect("fault-free distributed run cannot fail")
}

/// Run the distributed inference on a fabric armed with `faults`,
/// recording recovery events on `rec`. With `FaultInjector::none()` this
/// is exactly [`infer_network_distributed`], bit for bit.
///
/// Any non-coordinator rank may crash, and messages may be dropped or
/// delayed; the run still completes with the same edge set as the
/// fault-free run (wall time degrades, never the result). Plans that
/// kill rank 0 are rejected with [`ClusterError::CoordinatorCrash`].
///
/// # Panics
/// Same validation panics as [`infer_network_distributed`].
pub fn infer_network_distributed_faulty(
    matrix: &ExpressionMatrix,
    config: &InferenceConfig,
    ranks: usize,
    faults: &FaultInjector,
    rec: &Recorder,
    peer_timeout: Duration,
) -> Result<DistributedResult, ClusterError> {
    run_distributed(matrix, config, ranks, faults, rec, peer_timeout, None, None)
}

/// [`infer_network_distributed_faulty`] with per-rank trace capture:
/// every rank records its own spans/counters/events into a private
/// [`Recorder`] whose stream is written to `trace_dir/rank-<r>.ndjson`
/// after the run, and the driver (standing in for the coordinator's
/// filesystem) writes `trace_dir/manifest.json` listing them.
///
/// Before the first ring round the ranks run a clock exchange — a
/// [`TAG_CLOCK`] stamp circulated 0 → 1 → … → P−1 on the existing ring
/// channels — so each rank learns its trace-epoch offset from rank 0
/// ([`RankStats::clock_offset_us`], also stamped into its NDJSON meta
/// line as `clock_offset_us`). Offline tooling subtracts the offset to
/// align all streams on rank 0's timebase. A lost clock frame degrades
/// the offset to zero for that rank (recorded as `clock.sync` with
/// `ok:false`), never the run.
///
/// # Errors
/// [`ClusterError::CoordinatorCrash`] for rank-0 crash plans, and
/// [`ClusterError::TraceIo`] when a trace file cannot be written.
///
/// # Panics
/// Same validation panics as [`infer_network_distributed`].
pub fn infer_network_distributed_traced(
    matrix: &ExpressionMatrix,
    config: &InferenceConfig,
    ranks: usize,
    faults: &FaultInjector,
    rec: &Recorder,
    peer_timeout: Duration,
    trace_dir: &std::path::Path,
) -> Result<DistributedResult, ClusterError> {
    run_distributed(
        matrix,
        config,
        ranks,
        faults,
        rec,
        peer_timeout,
        Some(trace_dir),
        None,
    )
}

/// [`infer_network_distributed_faulty`] with the live telemetry plane
/// attached: every rank carries a metrics registry (installed as its
/// recorder's [`MetricsSink`]) and beats rank 0 on the plane's cadence;
/// rank 0 folds the beats — its own included — into `plane`'s cluster
/// view. The edge set is byte-identical to the same run without the
/// plane (pinned by the `live` test suite).
///
/// # Errors
/// As [`infer_network_distributed_faulty`].
///
/// # Panics
/// Same validation panics as [`infer_network_distributed`].
#[allow(clippy::too_many_arguments)]
pub fn infer_network_distributed_live(
    matrix: &ExpressionMatrix,
    config: &InferenceConfig,
    ranks: usize,
    faults: &FaultInjector,
    rec: &Recorder,
    peer_timeout: Duration,
    plane: &TelemetryPlane,
) -> Result<DistributedResult, ClusterError> {
    run_distributed(
        matrix,
        config,
        ranks,
        faults,
        rec,
        peer_timeout,
        None,
        Some(plane),
    )
}

/// Shared up-front validation of every distributed entry point.
pub(crate) fn validate_run(
    matrix: &ExpressionMatrix,
    config: &InferenceConfig,
    ranks: usize,
    faults: &FaultInjector,
) -> Result<(), ClusterError> {
    config.validate();
    assert!(ranks >= 1, "need at least one rank");
    assert!(ranks <= matrix.genes(), "more ranks than genes");
    assert_eq!(
        config.null_strategy,
        NullStrategy::ExactFull,
        "distributed path implements the exact strategy only"
    );
    if let Some(plan) = faults.plan() {
        for f in &plan.faults {
            if let Fault::CrashRank { rank: 0, round } = *f {
                return Err(ClusterError::CoordinatorCrash { round });
            }
        }
    }
    Ok(())
}

/// Fold the per-rank outputs into the run result and (on traced runs)
/// write the per-rank streams plus manifest.
fn assemble_result(
    outputs: Vec<RankOutput>,
    trace_dir: Option<&std::path::Path>,
    rank_recs: Option<Vec<Recorder>>,
) -> Result<DistributedResult, ClusterError> {
    let mut network = None;
    let mut threshold = 0.0;
    let mut crashed_ranks = Vec::new();
    let mut rank_stats = Vec::with_capacity(outputs.len());
    for out in outputs {
        if let Some(net) = out.network {
            network = Some(net);
            threshold = out.threshold;
            crashed_ranks = out.dead;
        }
        rank_stats.push(out.stats);
    }
    let result = DistributedResult {
        network: network.expect("rank 0 produces the network"),
        threshold,
        rank_stats,
        crashed_ranks,
    };
    if let (Some(dir), Some(recs)) = (trace_dir, rank_recs) {
        write_rank_traces(dir, &recs, &result)?;
    }
    Ok(result)
}

#[allow(clippy::too_many_arguments)]
fn run_distributed(
    matrix: &ExpressionMatrix,
    config: &InferenceConfig,
    ranks: usize,
    faults: &FaultInjector,
    rec: &Recorder,
    peer_timeout: Duration,
    trace_dir: Option<&std::path::Path>,
    live: Option<&TelemetryPlane>,
) -> Result<DistributedResult, ClusterError> {
    validate_run(matrix, config, ranks, faults)?;
    let n = matrix.genes();
    let fabric = Fabric::with_faults(ranks, faults.clone());
    let rank_recs: Option<Vec<Recorder>> =
        trace_dir.map(|_| (0..ranks).map(|_| Recorder::enabled()).collect());
    let duties: Option<Vec<LiveDuty>> = live.map(|p| LiveDuty::for_ranks(p, ranks));
    let outputs = run_ranks_on(fabric, |ep| {
        let duty = duties.as_ref().map(|d| &d[ep.rank()]);
        let mut rank_rec = rank_recs
            .as_ref()
            .map_or_else(Recorder::disabled, |recs| recs[ep.rank()].clone());
        if let Some(d) = duty {
            rank_rec = rank_rec.with_metrics(Arc::clone(&d.registry) as Arc<dyn MetricsSink>);
        }
        // `ep` stays owned by this closure frame: returning drops it,
        // which closes this rank's channels — the death signal the
        // survivors' bounded receives detect.
        rank_main(&ep, matrix, config, n, rec, &rank_rec, peer_timeout, duty)
    });
    assemble_result(outputs, trace_dir, rank_recs)
}

/// Run the full inference distributed over `ranks` ranks talking TCP
/// over loopback (fault-free). The result is byte-identical to
/// [`infer_network_distributed`] — the conformance suite pins this.
///
/// # Errors
/// [`ClusterError::Transport`] when the loopback mesh cannot be bound.
///
/// # Panics
/// Same validation panics as [`infer_network_distributed`].
pub fn infer_network_distributed_tcp(
    matrix: &ExpressionMatrix,
    config: &InferenceConfig,
    ranks: usize,
) -> Result<DistributedResult, ClusterError> {
    infer_network_distributed_tcp_faulty(
        matrix,
        config,
        ranks,
        &FaultInjector::none(),
        &Recorder::disabled(),
        DEFAULT_PEER_TIMEOUT,
    )
}

/// [`infer_network_distributed_tcp`] over a fault-armed mesh: wire
/// faults (`refuse`/`cut`/`stall`/`trunc`) act on the real sockets, and
/// rank crashes surface to survivors as TCP FINs instead of dropped
/// channels — same recovery protocol, same edge set.
///
/// # Errors
/// [`ClusterError::CoordinatorCrash`] for rank-0 crash plans and
/// [`ClusterError::Transport`] for mesh establishment failures.
///
/// # Panics
/// Same validation panics as [`infer_network_distributed`].
pub fn infer_network_distributed_tcp_faulty(
    matrix: &ExpressionMatrix,
    config: &InferenceConfig,
    ranks: usize,
    faults: &FaultInjector,
    rec: &Recorder,
    peer_timeout: Duration,
) -> Result<DistributedResult, ClusterError> {
    run_distributed_tcp(matrix, config, ranks, faults, rec, peer_timeout, None, None)
}

/// [`infer_network_distributed_tcp_faulty`] with per-rank trace capture
/// (same layout as [`infer_network_distributed_traced`]); each rank's
/// stream additionally carries its `tcp.*` transport counters, so
/// offline reports can attribute network stalls.
///
/// # Errors
/// As [`infer_network_distributed_tcp_faulty`], plus
/// [`ClusterError::TraceIo`] when a trace file cannot be written.
///
/// # Panics
/// Same validation panics as [`infer_network_distributed`].
pub fn infer_network_distributed_tcp_traced(
    matrix: &ExpressionMatrix,
    config: &InferenceConfig,
    ranks: usize,
    faults: &FaultInjector,
    rec: &Recorder,
    peer_timeout: Duration,
    trace_dir: &std::path::Path,
) -> Result<DistributedResult, ClusterError> {
    run_distributed_tcp(
        matrix,
        config,
        ranks,
        faults,
        rec,
        peer_timeout,
        Some(trace_dir),
        None,
    )
}

/// [`infer_network_distributed_tcp_faulty`] with the live telemetry
/// plane attached — the TCP twin of
/// [`infer_network_distributed_live`]. Heartbeats ride the loopback
/// sockets as `TELEM` frames (diverted from the protocol stream by the
/// reader threads), so wire-fault plans *can* target them; the edge set
/// stays byte-identical to the plane-less run regardless.
///
/// # Errors
/// As [`infer_network_distributed_tcp_faulty`].
///
/// # Panics
/// Same validation panics as [`infer_network_distributed`].
#[allow(clippy::too_many_arguments)]
pub fn infer_network_distributed_tcp_live(
    matrix: &ExpressionMatrix,
    config: &InferenceConfig,
    ranks: usize,
    faults: &FaultInjector,
    rec: &Recorder,
    peer_timeout: Duration,
    plane: &TelemetryPlane,
) -> Result<DistributedResult, ClusterError> {
    run_distributed_tcp(
        matrix,
        config,
        ranks,
        faults,
        rec,
        peer_timeout,
        None,
        Some(plane),
    )
}

#[allow(clippy::too_many_arguments)]
fn run_distributed_tcp(
    matrix: &ExpressionMatrix,
    config: &InferenceConfig,
    ranks: usize,
    faults: &FaultInjector,
    rec: &Recorder,
    peer_timeout: Duration,
    trace_dir: Option<&std::path::Path>,
    live: Option<&TelemetryPlane>,
) -> Result<DistributedResult, ClusterError> {
    validate_run(matrix, config, ranks, faults)?;
    let n = matrix.genes();
    let rank_recs: Option<Vec<Recorder>> =
        trace_dir.map(|_| (0..ranks).map(|_| Recorder::enabled()).collect());
    let duties: Option<Vec<LiveDuty>> = live.map(|p| LiveDuty::for_ranks(p, ranks));
    let outputs = crate::tcp::run_ranks_tcp(ranks, faults, |tp| {
        let duty = duties.as_ref().map(|d| &d[tp.rank()]);
        let mut rank_rec = rank_recs
            .as_ref()
            .map_or_else(Recorder::disabled, |recs| recs[tp.rank()].clone());
        if let Some(d) = duty {
            rank_rec = rank_rec.with_metrics(Arc::clone(&d.registry) as Arc<dyn MetricsSink>);
        }
        let out = rank_main(&tp, matrix, config, n, rec, &rank_rec, peer_timeout, duty);
        // Drain-then-FIN before the counters are read: survivors see
        // this rank's death (crash or completion) exactly when a
        // channel-fabric rank would have dropped its endpoint.
        tp.shutdown();
        tp.counters().publish(&rank_rec);
        out
    })
    .map_err(|e| ClusterError::Transport {
        message: e.to_string(),
    })?;
    assemble_result(outputs, trace_dir, rank_recs)
}

pub(crate) fn trace_io_err(path: &std::path::Path, e: &std::io::Error) -> ClusterError {
    ClusterError::TraceIo {
        path: path.display().to_string(),
        message: e.to_string(),
    }
}

/// Write one rank's NDJSON stream into `dir` (created if absent),
/// returning the file name written. Shared between the in-process
/// drivers (all ranks) and the multi-process launcher (each process
/// writes its own rank's stream).
pub(crate) fn write_one_rank_trace(
    dir: &std::path::Path,
    rank: usize,
    ranks: usize,
    clock_offset_us: i64,
    rank_rec: &Recorder,
) -> Result<String, ClusterError> {
    use std::io::Write as _;
    std::fs::create_dir_all(dir).map_err(|e| trace_io_err(dir, &e))?;
    let name = format!("rank-{rank}.ndjson");
    let path = dir.join(&name);
    let file = std::fs::File::create(&path).map_err(|e| trace_io_err(&path, &e))?;
    let mut w = std::io::BufWriter::new(file);
    rank_rec
        .write_ndjson_with_meta(
            &mut w,
            &[
                ("rank", Value::from(rank)),
                ("ranks", Value::from(ranks)),
                ("clock_offset_us", Value::I64(clock_offset_us)),
            ],
        )
        .and_then(|()| w.flush())
        .map_err(|e| trace_io_err(&path, &e))?;
    Ok(name)
}

/// Write the coordinator manifest listing the rank streams in `files`.
pub(crate) fn write_manifest(
    dir: &std::path::Path,
    ranks: usize,
    crashed_ranks: &[usize],
    files: &[String],
) -> Result<(), ClusterError> {
    use gnet_trace::escape_json;
    let mut manifest = String::with_capacity(256);
    manifest.push_str("{\"format\":\"gnet-trace-manifest\",\"version\":1");
    let _ = std::fmt::Write::write_fmt(&mut manifest, format_args!(",\"ranks\":{ranks}"));
    manifest.push_str(",\"crashed_ranks\":[");
    for (i, r) in crashed_ranks.iter().enumerate() {
        if i > 0 {
            manifest.push(',');
        }
        let _ = std::fmt::Write::write_fmt(&mut manifest, format_args!("{r}"));
    }
    manifest.push_str("],\"files\":[");
    for (i, f) in files.iter().enumerate() {
        if i > 0 {
            manifest.push(',');
        }
        escape_json(&mut manifest, f);
    }
    manifest.push_str("]}\n");
    let path = dir.join("manifest.json");
    std::fs::write(&path, manifest).map_err(|e| trace_io_err(&path, &e))
}

/// Write every rank's NDJSON stream plus the coordinator manifest into
/// `dir` (created if absent).
fn write_rank_traces(
    dir: &std::path::Path,
    recs: &[Recorder],
    result: &DistributedResult,
) -> Result<(), ClusterError> {
    let mut files = Vec::with_capacity(recs.len());
    for (r, rank_rec) in recs.iter().enumerate() {
        files.push(write_one_rank_trace(
            dir,
            r,
            recs.len(),
            result.rank_stats[r].clock_offset_us,
            rank_rec,
        )?);
    }
    write_manifest(dir, recs.len(), &result.crashed_ranks, &files)
}

/// One rank's share of reassigned work: pooled nulls plus candidates.
type Share = (PooledNull, Vec<(u32, u32, f64)>);

pub(crate) struct RankOutput {
    pub(crate) network: Option<GeneNetwork>,
    pub(crate) threshold: f64,
    pub(crate) stats: RankStats,
    /// Ranks presumed dead by the census (rank 0 only).
    pub(crate) dead: Vec<usize>,
}

pub(crate) fn frame(tag: u8, round: u32, payload: &[u8]) -> Bytes {
    let mut buf = BytesMut::with_capacity(FRAME_HEADER + payload.len());
    buf.put_u8(tag);
    buf.put_u32_le(round);
    buf.put_slice(payload);
    buf.freeze()
}

pub(crate) fn parse_frame(mut bytes: Bytes) -> Option<(u8, u32, Bytes)> {
    if bytes.len() < FRAME_HEADER {
        return None;
    }
    let tag = bytes.get_u8();
    let round = bytes.get_u32_le();
    Some((tag, round, bytes))
}

/// Identity of the block carried by a round-`rd` `TAG_BLOCK` frame from
/// rank `from`: the sender's travelling block after round `rd − 1`. The
/// wire format does not repeat the identity in the payload — the round
/// stamp determines it, and healing preserves the invariant (a healer
/// forwards exactly the block the arithmetic says it holds).
fn block_identity(from: usize, rd: u32, p: usize) -> usize {
    let back = (rd as usize).saturating_sub(1) % p;
    (from + p - back) % p
}

/// Receive one frame from `from` and translate it into a protocol
/// event. Delayed clock stamps are consumed here (harmless at any
/// protocol point); everything else — including stale ring blocks,
/// which the [`RankMachine`] discards by round stamp — is surfaced to
/// the machine. Failures (timeout, disconnect, unparseable frame)
/// become [`ProtoEvent::Timeout`] with `fail_reason` set for the
/// recovery trace events.
fn recv_event(
    tp: &dyn Transport,
    from: usize,
    timeout: Duration,
    in_ring: bool,
    block_payload: &mut Option<Bytes>,
    pending_payload: &mut Option<Bytes>,
    fail_reason: &mut &'static str,
) -> ProtoEvent {
    let unexpected = if in_ring {
        "unexpected frame on ring channel"
    } else {
        "unexpected frame"
    };
    loop {
        return match tp.recv_timeout(from, timeout) {
            Ok(raw) => match parse_frame(raw) {
                Some((TAG_CLOCK, _, _)) => continue, // delayed clock stamp: harmless
                // Defensive only: transports divert TELEM frames before
                // they reach a protocol queue; tolerate a stray one the
                // same way rather than mistaking it for a protocol error.
                Some((crate::live::TAG_TELEM, _, _)) => continue,
                Some((TAG_BLOCK, rd, payload)) => {
                    *block_payload = Some(payload);
                    *fail_reason = unexpected;
                    ProtoEvent::Frame(ProtoFrame::Block {
                        round: rd,
                        block: block_identity(from, rd, tp.size()),
                    })
                }
                Some((TAG_RESULTS, _, payload)) => {
                    *pending_payload = Some(payload);
                    *fail_reason = unexpected;
                    ProtoEvent::Frame(ProtoFrame::Results)
                }
                Some((TAG_ASSIGN, _, payload)) => {
                    *fail_reason = unexpected;
                    ProtoEvent::Frame(ProtoFrame::Assign {
                        pairs: decode_assignment(&payload),
                    })
                }
                Some((TAG_SUPPLEMENT, _, payload)) => {
                    *pending_payload = Some(payload);
                    *fail_reason = unexpected;
                    ProtoEvent::Frame(ProtoFrame::Supplement)
                }
                _ => {
                    *fail_reason = unexpected;
                    ProtoEvent::Timeout
                }
            },
            Err(RecvTimeoutError::Timeout) => {
                *fail_reason = "peer timed out";
                ProtoEvent::Timeout
            }
            Err(RecvTimeoutError::Disconnected) => {
                *fail_reason = "peer disconnected";
                ProtoEvent::Timeout
            }
        };
    }
}

/// Microseconds since `rec`'s trace epoch, as `i64` (saturating — traces
/// never approach 2^63 µs).
fn trace_now_us(rec: &Recorder) -> i64 {
    i64::try_from(rec.elapsed().as_micros()).unwrap_or(i64::MAX)
}

/// Chain clock exchange: rank 0 stamps its trace time and sends it to
/// rank 1; each rank `r ≥ 1` measures `offset = local − stamp` on
/// receipt, then forwards its own *rank-0-timebase* estimate
/// (`local − offset`) to `r + 1`. The chain stops at `P−1` (nothing
/// wraps back to rank 0, so no stray frame outlives the exchange).
///
/// Returns the offset plus any ring-block frame that arrived while
/// waiting (possible only when the clock frame itself was dropped by an
/// injected fault) — the caller must feed that frame back into the ring
/// loop instead of losing it. A lost stamp degrades the offset to 0,
/// recorded as `clock.sync` with `ok:false`.
fn exchange_clock(
    tp: &dyn Transport,
    rank_rec: &Recorder,
    timeout: Duration,
) -> (i64, Option<(u32, Bytes)>) {
    let p = tp.size();
    let r = tp.rank();
    let mut offset = 0i64;
    let mut ok = true;
    let mut leftover = None;
    if r == 0 {
        if p > 1 {
            let stamp = trace_now_us(rank_rec);
            tp.send(1, frame(TAG_CLOCK, 0, &stamp.to_le_bytes()));
        }
    } else {
        ok = false;
        if let Ok(raw) = tp.recv_timeout(r - 1, timeout) {
            match parse_frame(raw) {
                Some((TAG_CLOCK, _, payload)) if payload.len() == 8 => {
                    let mut stamp_bytes = [0u8; 8];
                    stamp_bytes.copy_from_slice(&payload);
                    let stamp = i64::from_le_bytes(stamp_bytes);
                    offset = trace_now_us(rank_rec) - stamp;
                    ok = true;
                }
                Some((TAG_BLOCK, round, payload)) => {
                    // The stamp was dropped and ring traffic overtook
                    // it; hand the block back to the caller.
                    leftover = Some((round, payload));
                }
                _ => {}
            }
        }
        if r + 1 < p {
            let estimate = trace_now_us(rank_rec) - offset;
            tp.send(r + 1, frame(TAG_CLOCK, 0, &estimate.to_le_bytes()));
        }
    }
    rank_rec.event(
        "clock.sync",
        &[
            ("rank", Value::from(r)),
            ("offset_us", Value::I64(offset)),
            ("ok", Value::Bool(ok)),
        ],
    );
    (offset, leftover)
}

/// Prepare block `idx` of the `p`-way partition directly from the shared
/// expression matrix — the reconstruction primitive behind ring healing
/// and redistribution.
fn build_block(
    matrix: &ExpressionMatrix,
    basis: &BsplineBasis,
    n: usize,
    p: usize,
    idx: usize,
) -> GeneBlock {
    let (s, e) = block_range(n, p, idx);
    GeneBlock {
        indices: (s as u32..e as u32).collect(),
        genes: (s..e)
            .map(|g| prepare_gene(matrix.gene(g), basis))
            .collect(),
    }
}

/// One rank's protocol run over any [`Transport`]. The caller owns the
/// transport and must drop (or shut down) it after this returns — that
/// drop is the rank-death signal survivors detect, both for the channel
/// fabric (closed channels) and for TCP (FIN after drain).
#[allow(clippy::too_many_arguments)]
pub(crate) fn rank_main(
    tp: &dyn Transport,
    matrix: &ExpressionMatrix,
    config: &InferenceConfig,
    n: usize,
    rec: &Recorder,
    rank_rec: &Recorder,
    peer_timeout: Duration,
    live: Option<&LiveDuty>,
) -> RankOutput {
    let p = tp.size();
    let r = tp.rank();
    let faults = tp.faults().clone();
    let (start, end) = block_range(n, p, r);
    let basis = BsplineBasis::new(config.spline_order, config.bins);
    let perms = PermutationSet::generate(matrix.samples(), config.permutations, config.seed);
    let mut stats = RankStats {
        rank: r,
        ..Default::default()
    };
    let mut busy = Duration::ZERO;

    macro_rules! die {
        () => {{
            stats.crashed = true;
            stats.messages = tp.messages_sent();
            stats.bytes_sent = tp.bytes_sent();
            stats.busy = busy;
            rank_rec.event(
                "rank.crashed",
                &[
                    ("rank", Value::from(r)),
                    ("pairs", Value::from(stats.pairs)),
                ],
            );
            // Returning hands the transport back to the caller, which
            // drops it — closed channels / TCP FIN is exactly how the
            // survivors detect the death.
            return RankOutput {
                network: None,
                threshold: 0.0,
                stats,
                dead: Vec::new(),
            };
        }};
    }

    if faults.should_crash_rank(r, 0) {
        die!();
    }

    // Clock exchange (traced runs only): learn this rank's trace-epoch
    // offset from rank 0 before any compute, so every span below can be
    // re-based onto one cluster-wide timebase offline.
    let mut leftover: Option<(u32, Bytes)> = None;
    if rank_rec.is_enabled() {
        let (offset, lo) = exchange_clock(tp, rank_rec, peer_timeout);
        stats.clock_offset_us = offset;
        leftover = lo;
    }
    if r == 0 {
        // Run-shape stamp for offline perf attribution (`gnet
        // trace-report` matches it against a calibrated kernel model).
        // Each rank's compute is single-threaded and block-decomposed,
        // so threads=1 and the local block size stand in for the
        // shared-memory pipeline's pool width and tile size.
        rank_rec.event(
            "run.config",
            &[
                ("genes", Value::from(n)),
                ("samples", Value::from(matrix.samples())),
                ("permutations", Value::from(config.permutations)),
                (
                    "kernel",
                    match config.kernel {
                        MiKernel::ScalarSparse => "scalar",
                        MiKernel::VectorDense => "vector",
                    }
                    .into(),
                ),
                ("threads", Value::from(1u64)),
                ("tile_size", Value::from(end - start)),
                ("scheduler", Value::from("ring")),
            ],
        );
    }

    // Prepare the local block.
    let t0 = Instant::now();
    let own = {
        let _prep_span = rank_rec.span("rank.prep");
        GeneBlock {
            indices: (start as u32..end as u32).collect(),
            genes: (start..end)
                .map(|g| prepare_gene(matrix.gene(g), &basis))
                .collect(),
        }
    };
    busy += t0.elapsed();

    let mut pooled = PooledNull::new();
    let mut candidates: Vec<(u32, u32, f64)> = Vec::new();

    // ---- Protocol interpreter ----
    //
    // Every protocol decision below is made by the RankMachine step
    // function (the same one the gnet-analysis model checker explores);
    // this loop owns the bytes, the kernels, the clocks, and the trace
    // events, and executes whatever effects the machine emits.
    let mut travelling = encode_block(&own);
    let mut own = Some(own);
    let prev = (r + p - 1) % p;
    // Payload of the last-delivered BLOCK frame (adopted on AcceptBlock)
    // and of the last RESULTS/SUPPLEMENT frame (consumed on accept).
    let mut block_payload: Option<Bytes> = None;
    let mut pending_payload: Option<Bytes> = None;
    // Low-level cause of the last receive failure, for recovery events.
    let mut fail_reason: &'static str = "peer timed out";
    // A healed block, decoded once and reused by the compute effect.
    let mut rebuilt: Option<GeneBlock> = None;
    let mut cur_round = 0usize;
    // Live-telemetry beat clock: armed only when a plane is attached.
    // Ticks between effects and receives — cheap (one clock compare
    // when nothing is due) and strictly outside the protocol's own
    // send/receive schedule, so telemetry can never reorder it.
    let mut beat = live.map(|d| BeatState::new(d.interval));
    macro_rules! tick {
        ($done:expr) => {
            if let (Some(duty), Some(b)) = (live, beat.as_mut()) {
                live_tick(duty, b, tp, cur_round as u32, $done, stats.pairs);
            }
        };
    }
    let mut parts: Vec<Option<Bytes>> = vec![None; p];
    let mut supplements: Vec<Option<Share>> = vec![None; p];
    let mut cache: HashMap<usize, GeneBlock> = HashMap::new();
    let mut sup_pooled = PooledNull::new();
    let mut sup_candidates: Vec<(u32, u32, f64)> = Vec::new();
    let mut output: Option<(GeneNetwork, f64, Vec<usize>)> = None;
    let mut ring_span: Option<Span> = None;
    let mut finalize_span: Option<Span> = None;

    let mut machine = RankMachine::new(r, p, Mutation::None);
    let (mut fx, mut wait) = machine.step(ProtoEvent::Start);
    loop {
        for effect in std::mem::take(&mut fx) {
            match effect {
                Effect::ComputeDiag => {
                    let t = Instant::now();
                    {
                        let _diag_span = rank_rec.span("rank.diag");
                        compute_block_pair(
                            own.as_ref().expect("own block is live in the ring"),
                            None,
                            config.kernel,
                            &perms,
                            &basis,
                            &mut pooled,
                            &mut candidates,
                            &mut stats.pairs,
                        );
                    }
                    stats.block_pairs += 1;
                    busy += t.elapsed();
                }
                Effect::Send {
                    to,
                    frame: ProtoFrame::Block { round, .. },
                } => {
                    let d = round as usize;
                    if faults.should_crash_rank(r, d) {
                        die!();
                    }
                    ring_span = Some(rank_rec.span(&format!("rank.round.{d}")));
                    cur_round = d;
                    tp.send(to, frame(TAG_BLOCK, round, &travelling));
                }
                Effect::Send {
                    to,
                    frame: ProtoFrame::Results,
                } => {
                    let results = encode_rank_results(&pooled, &candidates);
                    tp.send(to, frame(TAG_RESULTS, 0, &results));
                }
                Effect::Send {
                    to,
                    frame: ProtoFrame::Assign { pairs },
                } => {
                    tp.send(to, frame(TAG_ASSIGN, 0, &encode_assignment(&pairs)));
                }
                Effect::Send {
                    to,
                    frame: ProtoFrame::Supplement,
                } => {
                    let sup = encode_rank_results(&sup_pooled, &sup_candidates);
                    tp.send(to, frame(TAG_SUPPLEMENT, 0, &sup));
                }
                Effect::AcceptBlock => {
                    travelling = block_payload
                        .take()
                        .expect("accepted BLOCK frame has a payload");
                    rebuilt = None;
                }
                Effect::Heal { block } => {
                    // The expected frame was lost (timeout, disconnect,
                    // or an unexpected frame consumed in its place):
                    // rebuild the block we know we are due and forward
                    // it, so downstream ranks never notice.
                    let t = Instant::now();
                    block_payload = None;
                    rec.counter_add(names::CNT_CRASHES_DETECTED, 1);
                    rec.event(
                        names::EVT_CRASH_DETECTED,
                        &[
                            ("rank", Value::from(r)),
                            ("peer", Value::from(prev)),
                            ("round", Value::from(cur_round)),
                            ("reason", Value::from(fail_reason)),
                        ],
                    );
                    let b = build_block(matrix, &basis, n, p, block);
                    travelling = encode_block(&b);
                    rebuilt = Some(b);
                    let latency = t.elapsed();
                    busy += latency;
                    rec.observe(names::HIST_RECOVERY_LATENCY_US, latency);
                    rec.event(
                        names::EVT_RING_HEALED,
                        &[("rank", Value::from(r)), ("block", Value::from(block))],
                    );
                }
                Effect::ComputeCross { block } => {
                    let t = Instant::now();
                    let own_ref = own.as_ref().expect("own block is live in the ring");
                    let foreign = match rebuilt.take() {
                        Some(b) => b,
                        None => match decode_block(travelling.clone()) {
                            Ok(b) => b,
                            Err(_) => {
                                // Corrupt frame: same cure as a lost one
                                // — rebuild from the source matrix and
                                // forward the good copy.
                                rec.counter_add(names::CNT_CRASHES_DETECTED, 1);
                                let b = build_block(matrix, &basis, n, p, block);
                                travelling = encode_block(&b);
                                rec.event(
                                    names::EVT_RING_HEALED,
                                    &[("rank", Value::from(r)), ("block", Value::from(block))],
                                );
                                b
                            }
                        },
                    };
                    // Canonical orientation: the block with the lower
                    // global indices is always the x (row) side, exactly
                    // as in the shared-memory tiles. MI is symmetric,
                    // but the permutation null I(x, π(y)) is a
                    // *different draw* under role swap, so orientation
                    // must match for bit-identical candidate decisions.
                    let (lo, hi) = if foreign.indices[0] < own_ref.indices[0] {
                        (&foreign, own_ref)
                    } else {
                        (own_ref, &foreign)
                    };
                    compute_block_pair(
                        lo,
                        Some(hi),
                        config.kernel,
                        &perms,
                        &basis,
                        &mut pooled,
                        &mut candidates,
                        &mut stats.pairs,
                    );
                    stats.block_pairs += 1;
                    busy += t.elapsed();
                }
                Effect::AcceptResults { from } => {
                    parts[from] = Some(
                        pending_payload
                            .take()
                            .expect("accepted RESULTS frame has a payload"),
                    );
                }
                Effect::PresumeDead { rank } => {
                    if let Some(duty) = live {
                        live_mark_dead(duty, rank);
                    }
                    rec.counter_add(names::CNT_CRASHES_DETECTED, 1);
                    rec.event(
                        names::EVT_CRASH_DETECTED,
                        &[
                            ("rank", Value::from(0usize)),
                            ("peer", Value::from(rank)),
                            ("reason", Value::from(fail_reason)),
                        ],
                    );
                }
                Effect::Redistributed {
                    dead_ranks,
                    block_pairs,
                    survivors,
                } => {
                    rec.counter_add(names::CNT_PAIRS_REASSIGNED, block_pairs as u64);
                    rec.event(
                        names::EVT_REDISTRIBUTED,
                        &[
                            ("dead_ranks", Value::from(dead_ranks)),
                            ("block_pairs", Value::from(block_pairs)),
                            ("survivors", Value::from(survivors)),
                        ],
                    );
                }
                Effect::ComputeAssigned { pairs } => {
                    let t = Instant::now();
                    if let Some(own_block) = own.take() {
                        cache.insert(r, own_block);
                    }
                    if r == 0 {
                        let mut sp = PooledNull::new();
                        let mut sc = Vec::new();
                        for &(a, b) in &pairs {
                            compute_assigned_pair(
                                a,
                                b,
                                matrix,
                                &basis,
                                n,
                                p,
                                &mut cache,
                                config.kernel,
                                &perms,
                                &mut sp,
                                &mut sc,
                                &mut stats.pairs,
                            );
                        }
                        supplements[0] = Some((sp, sc));
                    } else {
                        for &(a, b) in &pairs {
                            compute_assigned_pair(
                                a,
                                b,
                                matrix,
                                &basis,
                                n,
                                p,
                                &mut cache,
                                config.kernel,
                                &perms,
                                &mut sup_pooled,
                                &mut sup_candidates,
                                &mut stats.pairs,
                            );
                        }
                    }
                    stats.reassigned_block_pairs += pairs.len();
                    stats.block_pairs += pairs.len();
                    busy += t.elapsed();
                }
                Effect::AcceptSupplement { from } => {
                    let (sp, sc) = decode_rank_results(
                        pending_payload
                            .take()
                            .expect("accepted SUPPLEMENT frame has a payload"),
                    );
                    supplements[from] = Some((sp, sc));
                }
                Effect::RecomputeShare { from, pairs } => {
                    // Survivor went silent after the census — recompute
                    // its share locally so the result never depends on
                    // it.
                    let t = Instant::now();
                    rec.counter_add(names::CNT_CRASHES_DETECTED, 1);
                    if let Some(own_block) = own.take() {
                        cache.insert(r, own_block);
                    }
                    let mut sp = PooledNull::new();
                    let mut sc = Vec::new();
                    for &(a, b) in &pairs {
                        compute_assigned_pair(
                            a,
                            b,
                            matrix,
                            &basis,
                            n,
                            p,
                            &mut cache,
                            config.kernel,
                            &perms,
                            &mut sp,
                            &mut sc,
                            &mut stats.pairs,
                        );
                    }
                    supplements[from] = Some((sp, sc));
                    stats.reassigned_block_pairs += pairs.len();
                    stats.block_pairs += pairs.len();
                    busy += t.elapsed();
                }
                Effect::Finalize { dead } => {
                    // Merge: phase-1 results in rank order, then
                    // supplements in rank order. Fault-free, every
                    // supplement is empty and this reduces to the
                    // historical gather-merge bit for bit.
                    parts[0] = Some(encode_rank_results(&pooled, &candidates));
                    let mut merged = PooledNull::new();
                    let mut all_candidates: Vec<(u32, u32, f64)> = Vec::new();
                    for part in std::mem::take(&mut parts).into_iter().flatten() {
                        let (pp, cc) = decode_rank_results(part);
                        merged.merge(&pp);
                        all_candidates.extend(cc);
                    }
                    for (sp, sc) in std::mem::take(&mut supplements).into_iter().flatten() {
                        merged.merge(&sp);
                        all_candidates.extend(sc);
                    }
                    let total_pairs = (n as u64) * (n as u64 - 1) / 2;
                    let threshold = match config.mi_threshold {
                        Some(t) => t,
                        None => merged.global_threshold(config.alpha, total_pairs.max(1)),
                    };
                    all_candidates.sort_by_key(|c| (c.0, c.1));
                    let network = GeneNetwork::from_edges(
                        n,
                        matrix.gene_names().to_vec(),
                        all_candidates
                            .into_iter()
                            .filter(|&(_, _, v)| v > threshold)
                            .map(|(i, j, v)| Edge::new(i, j, v as f32)),
                    );
                    output = Some((network, threshold, dead));
                }
            }
            tick!(false);
        }
        if finalize_span.is_none() && machine.phase() == Phase::Endgame {
            drop(ring_span.take());
            finalize_span = Some(rank_rec.span(if r == 0 {
                "rank.coordinate"
            } else {
                "rank.report"
            }));
        }
        let from = match wait {
            Wait::Done => break,
            Wait::Recv { from } => from,
        };
        let in_ring = machine.phase() == Phase::Ring;
        // A block the clock exchange captured while waiting for its
        // stamp takes precedence (it IS a ring frame, already
        // received); otherwise receive from the fabric.
        let event = match leftover.take() {
            Some((lr, payload)) => {
                block_payload = Some(payload);
                fail_reason = "unexpected frame on ring channel";
                ProtoEvent::Frame(ProtoFrame::Block {
                    round: lr,
                    block: block_identity(prev, lr, p),
                })
            }
            None => recv_event(
                tp,
                from,
                peer_timeout,
                in_ring,
                &mut block_payload,
                &mut pending_payload,
                &mut fail_reason,
            ),
        };
        let stepped = machine.step(event);
        fx = stepped.0;
        wait = stepped.1;
    }

    drop(ring_span.take());
    drop(finalize_span.take());
    stats.messages = tp.messages_sent();
    stats.bytes_sent = tp.bytes_sent();
    stats.busy = busy;
    rank_rec.counter_add("rank.pairs", stats.pairs);
    rank_rec.counter_add("rank.block_pairs", stats.block_pairs as u64);
    rank_rec.event(
        "rank.done",
        &[
            ("rank", Value::from(r)),
            ("pairs", Value::from(stats.pairs)),
            ("block_pairs", Value::from(stats.block_pairs)),
            ("messages", Value::from(stats.messages)),
            ("bytes_sent", Value::from(stats.bytes_sent)),
        ],
    );
    // Final beat, forced: carries `done` and the rank's closing
    // counters (the `rank.pairs` counter_add above reached the registry
    // through the recorder's metrics sink). On rank 0 this also drains
    // any last remote beats into the view.
    tick!(true);

    match output {
        Some((network, threshold, dead)) => RankOutput {
            network: Some(network),
            threshold,
            stats,
            dead,
        },
        None => RankOutput {
            network: None,
            threshold: 0.0,
            stats,
            dead: Vec::new(),
        },
    }
}

/// Recompute one reassigned block pair `{a, b}` from the shared matrix,
/// in the same canonical orientation as the original owner would have
/// used (lower block index on the x side) — so the recomputed null draws
/// and candidate decisions are identical to the lost ones.
#[allow(clippy::too_many_arguments)]
fn compute_assigned_pair(
    a: usize,
    b: usize,
    matrix: &ExpressionMatrix,
    basis: &BsplineBasis,
    n: usize,
    p: usize,
    cache: &mut HashMap<usize, GeneBlock>,
    kernel: MiKernel,
    perms: &PermutationSet,
    pooled: &mut PooledNull,
    candidates: &mut Vec<(u32, u32, f64)>,
    pair_counter: &mut u64,
) {
    let (lo, hi) = (a.min(b), a.max(b));
    for idx in [lo, hi] {
        cache
            .entry(idx)
            .or_insert_with(|| build_block(matrix, basis, n, p, idx));
    }
    let x = cache.get(&lo).expect("block cached just above");
    if lo == hi {
        compute_block_pair(
            x,
            None,
            kernel,
            perms,
            basis,
            pooled,
            candidates,
            pair_counter,
        );
    } else {
        let y = cache.get(&hi).expect("block cached just above");
        compute_block_pair(
            x,
            Some(y),
            kernel,
            perms,
            basis,
            pooled,
            candidates,
            pair_counter,
        );
    }
}

/// Evaluate all pairs between `x_block` and `y_block` (or within
/// `x_block` when `y_block` is `None`), accumulating nulls and
/// candidates. Dense expansions of the column side are built once per
/// block and each x gene is planned once — the cluster-side analogue of
/// tile reuse.
#[allow(clippy::too_many_arguments)]
fn compute_block_pair(
    x_block: &GeneBlock,
    y_block: Option<&GeneBlock>,
    kernel: MiKernel,
    perms: &PermutationSet,
    basis: &BsplineBasis,
    pooled: &mut PooledNull,
    candidates: &mut Vec<(u32, u32, f64)>,
    pair_counter: &mut u64,
) {
    let y = y_block.unwrap_or(x_block);
    let dense: Vec<_> = match kernel {
        MiKernel::VectorDense => y.genes.iter().map(|g| Some(g.to_dense())).collect(),
        MiKernel::ScalarSparse => y.genes.iter().map(|_| None).collect(),
    };
    // A scratch per block pair frees the row plans' buffers with the
    // block's dense expansions. Kept for a rank's whole run, they moved
    // glibc's dynamic mmap threshold and raised the 2-rank peak RSS by
    // about 6 MiB.
    let mut scratch = MiScratch::for_basis(basis);
    for (xi, xg) in x_block.genes.iter().enumerate() {
        let y_start = if y_block.is_none() { xi + 1 } else { 0 };
        if y_start >= dense.len() {
            continue;
        }
        let mut row = scratch.plan_row(kernel, xg, perms.as_vecs());
        for (yi, dy) in dense.iter().enumerate().skip(y_start) {
            let res = row.mi_with_nulls(&y.genes[yi], dy.as_ref());
            pooled.extend(&res.null);
            *pair_counter += 1;
            if res.exceed_count() == 0 {
                let gi = x_block.indices[xi];
                let gj = y.indices[yi];
                let (a, b) = if gi < gj { (gi, gj) } else { (gj, gi) };
                candidates.push((a, b, res.observed));
            }
        }
    }
}

fn encode_assignment(pairs: &[(usize, usize)]) -> Bytes {
    let mut buf = BytesMut::with_capacity(4 + pairs.len() * 8);
    buf.put_u32_le(pairs.len() as u32);
    for &(a, b) in pairs {
        buf.put_u32_le(a as u32);
        buf.put_u32_le(b as u32);
    }
    buf.freeze()
}

fn decode_assignment(bytes: &Bytes) -> Vec<(usize, usize)> {
    let mut bytes = bytes.clone();
    assert!(bytes.remaining() >= 4, "assignment frame too short");
    let c = bytes.get_u32_le() as usize;
    assert_eq!(bytes.remaining(), c * 8, "assignment frame length mismatch");
    (0..c)
        .map(|_| (bytes.get_u32_le() as usize, bytes.get_u32_le() as usize))
        .collect()
}

fn encode_rank_results(pooled: &PooledNull, candidates: &[(u32, u32, f64)]) -> Bytes {
    let (count, mean, m2, max) = pooled.raw_parts();
    let mut buf = BytesMut::with_capacity(32 + 4 + candidates.len() * 16);
    buf.put_u64_le(count);
    buf.put_f64_le(mean);
    buf.put_f64_le(m2);
    buf.put_f64_le(max);
    buf.put_u32_le(candidates.len() as u32);
    for &(i, j, v) in candidates {
        buf.put_u32_le(i);
        buf.put_u32_le(j);
        buf.put_f64_le(v);
    }
    buf.freeze()
}

fn decode_rank_results(mut bytes: Bytes) -> (PooledNull, Vec<(u32, u32, f64)>) {
    let count = bytes.get_u64_le();
    let mean = bytes.get_f64_le();
    let m2 = bytes.get_f64_le();
    let max = bytes.get_f64_le();
    let pooled = PooledNull::from_raw_parts(count, mean, m2, max);
    let c = bytes.get_u32_le() as usize;
    let mut candidates = Vec::with_capacity(c);
    for _ in 0..c {
        let i = bytes.get_u32_le();
        let j = bytes.get_u32_le();
        let v = bytes.get_f64_le();
        candidates.push((i, j, v));
    }
    assert!(!bytes.has_remaining(), "trailing bytes in rank results");
    (pooled, candidates)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::block_pair_owner;
    use gnet_core::infer_network;
    use gnet_expr::synth::{coupled_pairs, Coupling};
    use gnet_fault::FaultPlan;
    use gnet_grnsim::{GrnConfig, SyntheticDataset};

    fn cfg() -> InferenceConfig {
        InferenceConfig {
            permutations: 12,
            threads: Some(1),
            tile_size: Some(8),
            ..InferenceConfig::default()
        }
    }

    #[test]
    fn block_ranges_partition_the_genes() {
        for (n, p) in [(10usize, 3usize), (7, 7), (100, 8), (5, 5), (16, 4)] {
            let mut covered = 0;
            let mut prev_end = 0;
            for r in 0..p {
                let (s, e) = block_range(n, p, r);
                assert_eq!(s, prev_end, "blocks must be contiguous");
                assert!(e > s, "every rank needs at least one gene (n={n}, p={p})");
                covered += e - s;
                prev_end = e;
            }
            assert_eq!(covered, n);
        }
    }

    #[test]
    fn every_block_pair_has_exactly_one_owner() {
        for p in 1..=9 {
            for a in 0..p {
                for b in 0..p {
                    let owner = block_pair_owner(a, b, p);
                    assert!(owner == a || owner == b, "owner must be a member");
                    assert_eq!(
                        owner,
                        block_pair_owner(b, a, p),
                        "ownership must be order-independent"
                    );
                    if a != b {
                        // The owner must actually meet the partner block
                        // within ⌊P/2⌋ ring rounds.
                        let partner = if owner == a { b } else { a };
                        let round = (owner + p - partner) % p;
                        assert!(
                            round >= 1 && round <= p / 2,
                            "p={p} pair ({a},{b}): owner {owner} meets partner at round {round}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn owner_load_is_balanced() {
        let p = 8;
        let mut owned = vec![0usize; p];
        for a in 0..p {
            for b in a..p {
                owned[block_pair_owner(a, b, p)] += 1;
            }
        }
        let max = *owned.iter().max().unwrap();
        let min = *owned.iter().min().unwrap();
        assert!(max - min <= 1, "block-pair ownership skewed: {owned:?}");
    }

    #[test]
    fn distributed_matches_shared_memory_pipeline() {
        let (matrix, _) = coupled_pairs(6, 260, Coupling::Linear(0.85), 77);
        let shared = infer_network(&matrix, &cfg());
        for ranks in [1usize, 2, 3, 4, 6] {
            let dist = infer_network_distributed(&matrix, &cfg(), ranks);
            assert_eq!(
                dist.network.edge_count(),
                shared.network.edge_count(),
                "{ranks} ranks changed the edge count"
            );
            for (a, b) in dist.network.edges().iter().zip(shared.network.edges()) {
                assert_eq!(a.key(), b.key(), "{ranks} ranks changed the edges");
                assert!((a.weight - b.weight).abs() < 1e-5);
            }
            let total_pairs: u64 = dist.rank_stats.iter().map(|s| s.pairs).sum();
            assert_eq!(
                total_pairs, shared.stats.pairs,
                "{ranks} ranks: pair coverage"
            );
            assert!(dist.crashed_ranks.is_empty());
        }
    }

    #[test]
    fn knife_edge_pairs_do_not_flip_across_rank_counts() {
        // Weak couplings put many pairs near the threshold; any role-swap
        // in the permutation null (a bug this test exists to catch) flips
        // some of them between rank counts.
        let (matrix, _) = coupled_pairs(12, 180, Coupling::Linear(0.35), 321);
        let shared = infer_network(&matrix, &cfg());
        for ranks in [2usize, 3, 5, 8] {
            let dist = infer_network_distributed(&matrix, &cfg(), ranks);
            let a: Vec<_> = dist.network.edges().iter().map(|e| e.key()).collect();
            let b: Vec<_> = shared.network.edges().iter().map(|e| e.key()).collect();
            assert_eq!(a, b, "{ranks} ranks flipped a knife-edge pair");
            for (x, y) in dist.network.edges().iter().zip(shared.network.edges()) {
                assert_eq!(
                    x.weight, y.weight,
                    "{ranks} ranks: weights must be bit-identical under canonical orientation"
                );
            }
        }
    }

    #[test]
    fn distributed_works_on_grn_data_with_odd_ranks() {
        let ds = SyntheticDataset::generate(
            GrnConfig {
                genes: 21,
                samples: 150,
                ..GrnConfig::small()
            },
            5,
        );
        let shared = infer_network(&ds.matrix, &cfg());
        let dist = infer_network_distributed(&ds.matrix, &cfg(), 5);
        let a: Vec<_> = dist.network.edges().iter().map(|e| e.key()).collect();
        let b: Vec<_> = shared.network.edges().iter().map(|e| e.key()).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn communication_volume_scales_with_rounds_not_pairs() {
        let (matrix, _) = coupled_pairs(8, 100, Coupling::Linear(0.8), 3);
        let dist = infer_network_distributed(&matrix, &cfg(), 4);
        for s in &dist.rank_stats {
            // Each rank ships its travelling block ⌊P/2⌋ times plus the
            // census/assignment traffic — single-digit message counts.
            assert!(
                s.messages <= 8,
                "rank {} sent {} messages",
                s.rank,
                s.messages
            );
            assert!(s.bytes_sent > 0);
        }
    }

    #[test]
    fn scalar_kernel_path_matches_too() {
        let (matrix, _) = coupled_pairs(4, 120, Coupling::Linear(0.9), 9);
        let scalar_cfg = InferenceConfig {
            kernel: MiKernel::ScalarSparse,
            ..cfg()
        };
        let shared = infer_network(&matrix, &scalar_cfg);
        let dist = infer_network_distributed(&matrix, &scalar_cfg, 3);
        let a: Vec<_> = dist.network.edges().iter().map(|e| e.key()).collect();
        let b: Vec<_> = shared.network.edges().iter().map(|e| e.key()).collect();
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "more ranks than genes")]
    fn too_many_ranks_rejected() {
        let (matrix, _) = coupled_pairs(2, 50, Coupling::Linear(0.5), 1);
        let _ = infer_network_distributed(&matrix, &cfg(), 10);
    }

    #[test]
    fn stale_block_frame_is_consumed_not_fatal() {
        // Regression pin for the PR-5 never-looping-receive bug: a
        // stale (earlier-round) TAG_BLOCK frame queued ahead of the
        // real one must be consumed by the receive loop, not mistaken
        // for a protocol failure (which would spuriously heal the ring
        // and abandon the real frame).
        let fabric = Fabric::new(2);
        let outputs = run_ranks_on(fabric, |ep| {
            if ep.rank() == 0 {
                // A delayed round-1 frame arrives ahead of round 2's.
                ep.send(1, frame(TAG_BLOCK, 1, b"stale"));
                ep.send(1, frame(TAG_BLOCK, 2, b"real"));
                return true;
            }
            // Rank 1 of a (virtual) 4-rank ring, already past round 1
            // and waiting on its round-2 block from rank 0.
            let mut machine = RankMachine::new(1, 4, Mutation::None);
            let (_, wait) = machine.step(ProtoEvent::Start);
            assert_eq!(wait, Wait::Recv { from: 0 });
            let (_, wait) =
                machine.step(ProtoEvent::Frame(ProtoFrame::Block { round: 1, block: 0 }));
            assert_eq!(wait, Wait::Recv { from: 0 });

            let mut block_payload = None;
            let mut pending_payload = None;
            let mut reason = "";
            let timeout = Duration::from_secs(5);
            // First receive surfaces the stale frame; the machine must
            // discard it silently and keep waiting on the same channel.
            let ev = recv_event(
                &ep,
                0,
                timeout,
                true,
                &mut block_payload,
                &mut pending_payload,
                &mut reason,
            );
            assert_eq!(
                ev,
                ProtoEvent::Frame(ProtoFrame::Block { round: 1, block: 0 })
            );
            let (fx, wait) = machine.step(ev);
            assert!(fx.is_empty(), "stale frame must have no effects: {fx:?}");
            assert_eq!(wait, Wait::Recv { from: 0 });
            // Second receive is the real round-2 frame — accepted.
            let ev = recv_event(
                &ep,
                0,
                timeout,
                true,
                &mut block_payload,
                &mut pending_payload,
                &mut reason,
            );
            // (Identity derives from the round stamp and the *fabric*
            // size — 2 ranks here — so it is 1, not the virtual ring's
            // 3; the machine only checks the round stamp.)
            assert_eq!(
                ev,
                ProtoEvent::Frame(ProtoFrame::Block { round: 2, block: 1 })
            );
            let (fx, _) = machine.step(ev);
            assert!(
                fx.contains(&Effect::AcceptBlock),
                "real frame must be accepted: {fx:?}"
            );
            assert_eq!(block_payload.as_deref(), Some(&b"real"[..]));
            true
        });
        assert_eq!(outputs, vec![true, true]);
    }

    // ---- failure-aware paths ----

    fn faulty_timeout() -> Duration {
        // Short enough to keep tests fast, long enough that a loaded CI
        // machine never times out a live peer.
        Duration::from_millis(500)
    }

    fn run_with_plan(
        matrix: &ExpressionMatrix,
        config: &InferenceConfig,
        ranks: usize,
        plan: &str,
        rec: &Recorder,
    ) -> Result<DistributedResult, ClusterError> {
        let plan = FaultPlan::parse(plan).expect("test plan parses");
        let injector = FaultInjector::from_plan(&plan);
        infer_network_distributed_faulty(matrix, config, ranks, &injector, rec, faulty_timeout())
    }

    fn edge_keys(net: &GeneNetwork) -> Vec<(u32, u32)> {
        net.edges().iter().map(|e| e.key()).collect()
    }

    #[test]
    fn one_crashed_rank_yields_the_same_edge_set() {
        let (matrix, _) = coupled_pairs(6, 220, Coupling::Linear(0.8), 42);
        let baseline = infer_network_distributed(&matrix, &cfg(), 4);
        let rec = Recorder::enabled();
        // Rank 2 dies at the first ring round, before sending anything.
        let dist = run_with_plan(&matrix, &cfg(), 4, "seed=7;crash(rank=2,round=1)", &rec)
            .expect("non-coordinator crash must be survivable");
        assert_eq!(dist.crashed_ranks, vec![2]);
        assert!(dist.rank_stats[2].crashed);
        assert_eq!(
            edge_keys(&dist.network),
            edge_keys(&baseline.network),
            "recovery changed the inferred network"
        );
        // Coverage is preserved: the survivors' pairs plus the crashed
        // rank's wasted (recomputed) pairs add up to full coverage plus
        // exactly that waste — nothing is skipped, nothing double-counted.
        let n_pairs: u64 = baseline.rank_stats.iter().map(|s| s.pairs).sum();
        let wasted = dist.rank_stats[2].pairs;
        let total: u64 = dist.rank_stats.iter().map(|s| s.pairs).sum();
        assert_eq!(total, n_pairs + wasted, "pair coverage under recovery");
        let reassigned: usize = dist
            .rank_stats
            .iter()
            .map(|s| s.reassigned_block_pairs)
            .sum();
        assert!(reassigned > 0, "dead rank's block pairs must be reassigned");
        assert!(rec.counter(names::CNT_CRASHES_DETECTED).unwrap_or(0) >= 1);
        assert_eq!(rec.event_count(names::EVT_REDISTRIBUTED), 1);
    }

    #[test]
    fn crash_in_a_later_round_is_survivable_too() {
        let (matrix, _) = coupled_pairs(12, 120, Coupling::Linear(0.7), 5);
        let baseline = infer_network_distributed(&matrix, &cfg(), 6);
        let rec = Recorder::enabled();
        // Rank 5 completes round 1, then dies entering round 2: survivors
        // must heal the ring mid-rotation and recover its finished and
        // unfinished work alike.
        let dist = run_with_plan(&matrix, &cfg(), 6, "seed=7;crash(rank=5,round=2)", &rec)
            .expect("late crash must be survivable");
        assert_eq!(dist.crashed_ranks, vec![5]);
        assert_eq!(edge_keys(&dist.network), edge_keys(&baseline.network));
        assert!(rec.event_count(names::EVT_RING_HEALED) >= 1);
    }

    #[test]
    fn two_dead_ranks_still_converge() {
        let (matrix, _) = coupled_pairs(8, 140, Coupling::Linear(0.75), 11);
        let baseline = infer_network_distributed(&matrix, &cfg(), 4);
        let rec = Recorder::enabled();
        let dist = run_with_plan(
            &matrix,
            &cfg(),
            4,
            "seed=7;crash(rank=1,round=1);crash(rank=3,round=2)",
            &rec,
        )
        .expect("two non-coordinator crashes must be survivable");
        assert_eq!(dist.crashed_ranks, vec![1, 3]);
        assert_eq!(edge_keys(&dist.network), edge_keys(&baseline.network));
    }

    #[test]
    fn dropped_results_frame_degrades_to_recomputation_not_corruption() {
        let (matrix, _) = coupled_pairs(6, 160, Coupling::Linear(0.8), 23);
        let baseline = infer_network_distributed(&matrix, &cfg(), 3);
        let rec = Recorder::enabled();
        // Rank 2's ring frame (its 1st message on the 2→0 edge) survives
        // but its RESULTS frame (the 2nd) is dropped — it is presumed
        // dead while alive, and its work is recomputed by the survivors.
        let dist = run_with_plan(&matrix, &cfg(), 3, "seed=7;drop(from=2,to=0,nth=1)", &rec)
            .expect("a lost results frame must be survivable");
        assert_eq!(dist.crashed_ranks, vec![2]);
        assert!(!dist.rank_stats[2].crashed, "rank 2 never actually died");
        assert_eq!(edge_keys(&dist.network), edge_keys(&baseline.network));
    }

    #[test]
    fn coordinator_crash_plans_are_rejected_up_front() {
        let (matrix, _) = coupled_pairs(4, 100, Coupling::Linear(0.8), 2);
        let rec = Recorder::disabled();
        let err = run_with_plan(&matrix, &cfg(), 4, "seed=7;crash(rank=0,round=1)", &rec)
            .expect_err("rank-0 crash has no recovery path");
        assert_eq!(err, ClusterError::CoordinatorCrash { round: 1 });
        let msg = err.to_string();
        assert!(msg.contains("rank 0"), "error must name the coordinator");
    }

    // ---- per-rank tracing ----

    #[test]
    fn traced_run_writes_per_rank_streams_and_manifest() {
        let (matrix, _) = coupled_pairs(8, 120, Coupling::Linear(0.8), 17);
        let dir = std::env::temp_dir().join(format!(
            "gnet-cluster-trace-{}-{}",
            std::process::id(),
            line!()
        ));
        let baseline = infer_network_distributed(&matrix, &cfg(), 4);
        let dist = infer_network_distributed_traced(
            &matrix,
            &cfg(),
            4,
            &FaultInjector::none(),
            &Recorder::disabled(),
            DEFAULT_PEER_TIMEOUT,
            &dir,
        )
        .expect("traced fault-free run succeeds");
        // Tracing must not perturb the result.
        assert_eq!(edge_keys(&dist.network), edge_keys(&baseline.network));

        let manifest =
            std::fs::read_to_string(dir.join("manifest.json")).expect("manifest written");
        assert!(manifest.contains("\"gnet-trace-manifest\""), "{manifest}");
        assert!(manifest.contains("\"ranks\":4"), "{manifest}");
        for r in 0..4 {
            assert!(
                manifest.contains(&format!("\"rank-{r}.ndjson\"")),
                "{manifest}"
            );
            let text = std::fs::read_to_string(dir.join(format!("rank-{r}.ndjson")))
                .expect("rank stream written");
            let meta = text.lines().next().expect("meta line");
            assert!(meta.contains(&format!("\"rank\":{r}")), "{meta}");
            assert!(meta.contains("\"clock_offset_us\":"), "{meta}");
            assert!(text.contains("\"rank.prep\""), "rank {r}: {text}");
            assert!(text.contains("\"rank.diag\""), "rank {r}");
            assert!(text.contains("\"clock.sync\""), "rank {r}");
            assert!(text.contains("\"rank.done\""), "rank {r}");
            // 4 ranks → 2 ring rounds, each a span.
            assert!(text.contains("\"rank.round.1\""), "rank {r}");
            assert!(text.contains("\"rank.round.2\""), "rank {r}");
        }
        // Rank 0 anchors the timebase.
        assert_eq!(dist.rank_stats[0].clock_offset_us, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn traced_run_survives_a_crash_and_still_writes_all_streams() {
        let (matrix, _) = coupled_pairs(6, 160, Coupling::Linear(0.8), 42);
        let dir = std::env::temp_dir().join(format!(
            "gnet-cluster-trace-{}-{}",
            std::process::id(),
            line!()
        ));
        let baseline = infer_network_distributed(&matrix, &cfg(), 4);
        let plan = FaultPlan::parse("seed=7;crash(rank=2,round=1)").expect("plan parses");
        let dist = infer_network_distributed_traced(
            &matrix,
            &cfg(),
            4,
            &FaultInjector::from_plan(&plan),
            &Recorder::enabled(),
            faulty_timeout(),
            &dir,
        )
        .expect("crash is survivable under tracing");
        assert_eq!(dist.crashed_ranks, vec![2]);
        assert_eq!(edge_keys(&dist.network), edge_keys(&baseline.network));
        // The crashed rank still leaves a (partial) stream behind.
        let text =
            std::fs::read_to_string(dir.join("rank-2.ndjson")).expect("partial stream written");
        assert!(text.contains("\"rank.crashed\""), "{text}");
        let manifest =
            std::fs::read_to_string(dir.join("manifest.json")).expect("manifest written");
        assert!(manifest.contains("\"crashed_ranks\":[2]"), "{manifest}");
        std::fs::remove_dir_all(&dir).ok();
    }

    // ---- TCP transport acceptance ----

    #[test]
    fn tcp_run_matches_channel_run_byte_for_byte() {
        let (matrix, _) = coupled_pairs(6, 220, Coupling::Linear(0.8), 42);
        for ranks in [2usize, 4] {
            let channel = infer_network_distributed(&matrix, &cfg(), ranks);
            let tcp = infer_network_distributed_tcp(&matrix, &cfg(), ranks)
                .expect("loopback TCP mesh establishes");
            assert_eq!(
                edge_keys(&tcp.network),
                edge_keys(&channel.network),
                "{ranks} TCP ranks changed the edge set"
            );
            for (x, y) in tcp.network.edges().iter().zip(channel.network.edges()) {
                assert_eq!(
                    x.weight.to_bits(),
                    y.weight.to_bits(),
                    "{ranks} TCP ranks: weights must be bit-identical"
                );
            }
            assert_eq!(tcp.threshold.to_bits(), channel.threshold.to_bits());
            assert!(tcp.crashed_ranks.is_empty());
        }
    }

    #[test]
    fn tcp_survives_the_acceptance_plan_crash_plus_midframe_cut() {
        // The PR's acceptance scenario: a 4-rank loopback-TCP run where
        // one rank is killed mid-round AND a first frame on the 3→0 edge
        // is cut mid-frame (truncated, connection severed) must still be
        // byte-identical to the fault-free run.
        let (matrix, _) = coupled_pairs(6, 220, Coupling::Linear(0.8), 42);
        let baseline = infer_network_distributed(&matrix, &cfg(), 4);
        let plan = FaultPlan::parse("seed=7;crash(rank=2,round=1);cut(from=3,to=0,nth=1)")
            .expect("acceptance plan parses");
        let rec = Recorder::enabled();
        let dist = infer_network_distributed_tcp_faulty(
            &matrix,
            &cfg(),
            4,
            &FaultInjector::from_plan_traced(&plan, &rec),
            &rec,
            faulty_timeout(),
        )
        .expect("crash + mid-frame cut must be survivable over TCP");
        // Rank 2 died; rank 3's severed edge makes the census presume it
        // dead too (its RESULTS can never reach rank 0).
        assert_eq!(dist.crashed_ranks, vec![2, 3]);
        assert_eq!(
            edge_keys(&dist.network),
            edge_keys(&baseline.network),
            "recovery under TCP faults changed the inferred network"
        );
        for (x, y) in dist.network.edges().iter().zip(baseline.network.edges()) {
            assert_eq!(x.weight.to_bits(), y.weight.to_bits());
        }
        assert!(
            rec.event_count(names::EVT_FRAME_CUT) >= 1,
            "the cut must have fired"
        );
    }

    #[test]
    fn tcp_traced_run_carries_transport_counters_in_rank_streams() {
        let (matrix, _) = coupled_pairs(8, 120, Coupling::Linear(0.8), 17);
        let dir = std::env::temp_dir().join(format!(
            "gnet-cluster-trace-{}-{}",
            std::process::id(),
            line!()
        ));
        let baseline = infer_network_distributed(&matrix, &cfg(), 4);
        let dist = infer_network_distributed_tcp_traced(
            &matrix,
            &cfg(),
            4,
            &FaultInjector::none(),
            &Recorder::disabled(),
            DEFAULT_PEER_TIMEOUT,
            &dir,
        )
        .expect("traced TCP run succeeds");
        assert_eq!(edge_keys(&dist.network), edge_keys(&baseline.network));
        for r in 0..4 {
            let text = std::fs::read_to_string(dir.join(format!("rank-{r}.ndjson")))
                .expect("rank stream written");
            for counter in ["tcp.frames_sent", "tcp.frames_recv", "tcp.frame_bytes_sent"] {
                assert!(
                    text.contains(&format!("\"name\":\"{counter}\"")),
                    "rank {r} stream missing {counter}"
                );
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unarmed_faulty_entry_point_is_bit_identical_to_plain() {
        let (matrix, _) = coupled_pairs(12, 180, Coupling::Linear(0.35), 321);
        let plain = infer_network_distributed(&matrix, &cfg(), 4);
        let via_faulty = infer_network_distributed_faulty(
            &matrix,
            &cfg(),
            4,
            &FaultInjector::none(),
            &Recorder::disabled(),
            DEFAULT_PEER_TIMEOUT,
        )
        .expect("fault-free run");
        assert_eq!(plain.threshold.to_bits(), via_faulty.threshold.to_bits());
        let a: Vec<_> = plain.network.edges().iter().map(|e| e.key()).collect();
        let b: Vec<_> = via_faulty.network.edges().iter().map(|e| e.key()).collect();
        assert_eq!(a, b);
        for (x, y) in plain.network.edges().iter().zip(via_faulty.network.edges()) {
            assert_eq!(x.weight.to_bits(), y.weight.to_bits());
        }
    }
}
