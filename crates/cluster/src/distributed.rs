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
//! across the cluster. A rank cuts each block pair into the shared-memory
//! run's cache-rule sub-tiles (`TileSpace::block_pair`) and scans them on
//! its own `config.threads` workers through the shared-memory executor
//! (`gnet_core::scan_tiles`), so `P` ranks run `P × threads` workers —
//! the MPI+OpenMP hybrid. The pooled null and candidate edges are then
//! collected on rank 0, which applies the global threshold — the same
//! statistics, to the bit, as the shared-memory pipeline.
//!
//! This is the structure of the original TINGe MPI implementation (the
//! cluster baseline the paper compares against). One entry point,
//! [`infer_network_distributed`], runs it over any [`Wire`]: the
//! in-process fabric of [`crate::comm`], a loopback TCP mesh of
//! in-process ranks, or worker processes ([`crate::process`]). A
//! [`RankRun`] names the wire and everything else a run injects or
//! records.
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
//! assignment is empty and merging empty supplements is an exact no-op.
//! The merge is exact and order-free in any case, so recovered runs are
//! bit-identical to fault-free ones.

use crate::codec::{decode_block, encode_block, GeneBlock};
use crate::comm::{run_ranks_on, Fabric, RecvTimeoutError};
use crate::live::{
    live_final_fold, live_mark_dead, live_tick, BeatState, LiveDuty, TelemetryPlane,
};
use crate::process::serve_coordinator;
use crate::protocol::{
    block_range, Effect, Event as ProtoEvent, Frame as ProtoFrame, Mutation, Phase, RankMachine,
    Wait,
};
use crate::transport::Transport;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use gnet_bspline::BsplineBasis;
use gnet_core::config::NullStrategy;
use gnet_core::{prepare_genes, scan_tiles, InferenceConfig, NullScan};
use gnet_expr::ExpressionMatrix;
use gnet_fault::{names, Fault, FaultInjector};
use gnet_graph::GeneNetwork;
use gnet_mi::{MiKernel, Pairing, PreparedGene};
use gnet_parallel::TileSpace;
use gnet_permute::PermutationSet;
use gnet_trace::{Recorder, Span, Value};
use std::collections::HashMap;
use std::fmt;
use std::net::TcpListener;
use std::path::Path;
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
    /// The merged evidence rank 0 finalized from: the shared-memory run's
    /// pooled null, joint count and candidates, bit for bit.
    pub scan: NullScan,
}

/// How the ranks of a ring run reach each other.
#[derive(Clone, Copy, Debug)]
pub enum Wire<'a> {
    /// Every rank is a thread of this process; frames travel over
    /// in-memory channels ([`crate::comm`]).
    Channels,
    /// Every rank is a thread of this process; frames travel over a
    /// loopback TCP mesh ([`crate::tcp`]). Wire faults
    /// (`refuse`/`cut`/`stall`/`trunc`) act on the real sockets, rank
    /// crashes reach survivors as FINs, and each traced rank's stream
    /// carries its `tcp.*` transport counters.
    Loopback,
    /// Rank 0 runs in this process; ranks `1..P` are worker processes
    /// ([`crate::run_worker`]) that dial this listener and receive
    /// everything they need in their WELCOME frame ([`crate::process`]).
    Processes(&'a TcpListener),
}

/// One ring run: how many ranks, over which wire, and what the run
/// injects and records. [`RankRun::new`] is the fault-free, untraced
/// run over channels; set the other fields with struct update syntax,
/// e.g. `RankRun { wire: Wire::Loopback, ..RankRun::new(4) }`.
pub struct RankRun<'a> {
    /// Number of ranks `P`: at least 1 (2 on [`Wire::Processes`]) and at
    /// most the gene count.
    pub ranks: usize,
    /// How the ranks talk.
    pub wire: Wire<'a>,
    /// Faults injected into the run: rank crashes, dropped or delayed
    /// frames, and wire faults. On [`Wire::Processes`] the plan travels
    /// to every worker, and rank 0 rebuilds its injector on its own
    /// recorder, so fault events land in `rank-0.ndjson`.
    pub faults: FaultInjector,
    /// The driver's recorder: crash detection, ring healing and
    /// redistribution events.
    pub recorder: Recorder,
    /// How long a rank waits on a peer before presuming it dead.
    pub peer_timeout: Duration,
    /// Per-rank trace capture: every rank records its spans, counters
    /// and events into a private [`Recorder`] whose stream is written
    /// to `trace_dir/rank-<r>.ndjson`, and rank 0 writes
    /// `trace_dir/manifest.json` listing them. Before the first ring
    /// round the ranks circulate a clock stamp 0 → 1 → … → P−1,
    /// so each learns its trace-epoch offset from rank 0
    /// ([`RankStats::clock_offset_us`], also the `clock_offset_us` of its
    /// NDJSON meta line); a lost stamp degrades that rank's offset to
    /// zero (`clock.sync` with `ok:false`), never the run.
    pub trace_dir: Option<&'a Path>,
    /// The live telemetry plane: on the plane's cadence every rank beats
    /// rank 0 a snapshot of its own recorder's counters and histograms
    /// (a counting recorder when the rank is not traced); rank 0 folds
    /// the beats, its own included, into the plane's view.
    pub plane: Option<&'a TelemetryPlane>,
}

impl RankRun<'_> {
    /// A fault-free, untraced run of `ranks` ranks over channels.
    #[must_use]
    pub fn new(ranks: usize) -> Self {
        Self {
            ranks,
            wire: Wire::Channels,
            faults: FaultInjector::none(),
            recorder: Recorder::disabled(),
            peer_timeout: DEFAULT_PEER_TIMEOUT,
            trace_dir: None,
            plane: None,
        }
    }
}

/// Run the full inference as a TINGe ring of `run.ranks` ranks over
/// `run.wire`.
///
/// On every wire, with or without tracing and telemetry, the edge list
/// and `I*` are bit-identical to the shared-memory pipeline's. Any
/// non-coordinator rank may crash and frames may be dropped, delayed or
/// cut; the run still completes with the same edge list (wall time
/// degrades, never the result).
///
/// # Errors
/// [`ClusterError::CoordinatorCrash`] for plans that kill rank 0,
/// [`ClusterError::Transport`] when the wire cannot be established (a
/// loopback mesh that cannot bind, a failed worker bootstrap), and
/// [`ClusterError::TraceIo`] when a trace file cannot be written.
///
/// # Panics
/// Panics if `run.ranks` is zero, below 2 on [`Wire::Processes`], or
/// exceeds the gene count, or if the config requests the early-exit
/// strategy (the ring implements the paper-faithful exact test only).
pub fn infer_network_distributed(
    matrix: &ExpressionMatrix,
    config: &InferenceConfig,
    run: &RankRun<'_>,
) -> Result<DistributedResult, ClusterError> {
    let ranks = run.ranks;
    validate_run(matrix, config, ranks, &run.faults)?;
    let rank_recs: Vec<Recorder> = (0..ranks)
        .map(|_| rank_recorder(run.trace_dir.is_some(), run.plane.is_some()))
        .collect();
    let duty = |r: usize| run.plane.map(|p| LiveDuty::for_rank(p, r));
    let run_rank = |tp: &dyn Transport| {
        let duty = duty(tp.rank());
        let out = rank_main(
            tp,
            matrix,
            config,
            &run.recorder,
            &rank_recs[tp.rank()],
            run.peer_timeout,
            duty.as_ref(),
        );
        if let Some(d) = &duty {
            live_final_fold(d, tp, Some(run.peer_timeout));
        }
        out
    };
    let outputs = match run.wire {
        // `ep` stays owned by this closure frame: returning drops it,
        // which closes this rank's channels — the death signal the
        // survivors' bounded receives detect.
        Wire::Channels => run_ranks_on(Fabric::with_faults(ranks, run.faults.clone()), |ep| {
            run_rank(&ep)
        }),
        Wire::Loopback => crate::tcp::run_ranks_tcp(ranks, &run.faults, |tp| {
            let out = run_rank(&tp);
            // Drain-then-FIN before the counters are read: survivors see
            // this rank's death (crash or completion) exactly when a
            // channel-fabric rank would have dropped its endpoint.
            tp.shutdown();
            tp.counters().publish(&rank_recs[tp.rank()]);
            out
        })
        .map_err(|e| ClusterError::Transport {
            message: e.to_string(),
        })?,
        Wire::Processes(listener) => {
            let rec = rank_recs[0].clone();
            return serve_coordinator(listener, matrix, config, run, rec, duty(0).as_ref());
        }
    };
    assemble_result(outputs, run.trace_dir, &rank_recs)
}

/// A rank's own recorder: enabled when the rank is traced, counting when
/// only its live heartbeats read it, disabled otherwise.
pub(crate) fn rank_recorder(traced: bool, live: bool) -> Recorder {
    match (traced, live) {
        (true, _) => Recorder::enabled(),
        (false, true) => Recorder::counting(),
        (false, false) => Recorder::disabled(),
    }
}

/// [`infer_network_distributed`] over channels with `faults` armed,
/// recording recovery events on `rec`: the run
/// `RankRun { faults, recorder: rec, peer_timeout, ..RankRun::new(ranks) }`.
///
/// # Errors
/// As [`infer_network_distributed`].
///
/// # Panics
/// As [`infer_network_distributed`].
pub fn infer_network_distributed_faulty(
    matrix: &ExpressionMatrix,
    config: &InferenceConfig,
    ranks: usize,
    faults: &FaultInjector,
    rec: &Recorder,
    peer_timeout: Duration,
) -> Result<DistributedResult, ClusterError> {
    let run = RankRun {
        faults: faults.clone(),
        recorder: rec.clone(),
        peer_timeout,
        ..RankRun::new(ranks)
    };
    infer_network_distributed(matrix, config, &run)
}

/// Shared up-front validation of every wire.
fn validate_run(
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
/// write every rank's stream plus the manifest into `trace_dir`.
fn assemble_result(
    outputs: Vec<RankOutput>,
    trace_dir: Option<&Path>,
    recs: &[Recorder],
) -> Result<DistributedResult, ClusterError> {
    let mut network = None;
    let mut threshold = 0.0;
    let mut crashed_ranks = Vec::new();
    let mut scan = NullScan::default();
    let mut rank_stats = Vec::with_capacity(outputs.len());
    for out in outputs {
        if let Some(net) = out.network {
            network = Some(net);
            threshold = out.threshold;
            crashed_ranks = out.dead;
            scan = out.scan;
        }
        rank_stats.push(out.stats);
    }
    let result = DistributedResult {
        network: network.expect("rank 0 produces the network"),
        threshold,
        rank_stats,
        crashed_ranks,
        scan,
    };
    if let Some(dir) = trace_dir {
        let mut files = Vec::with_capacity(recs.len());
        for (r, rank_rec) in recs.iter().enumerate() {
            let offset = result.rank_stats[r].clock_offset_us;
            files.push(write_one_rank_trace(dir, r, recs.len(), offset, rank_rec)?);
        }
        write_manifest(dir, recs.len(), &result.crashed_ranks, &files)?;
    }
    Ok(result)
}

pub(crate) fn trace_io_err(path: &Path, e: &std::io::Error) -> ClusterError {
    ClusterError::TraceIo {
        path: path.display().to_string(),
        message: e.to_string(),
    }
}

/// Write one rank's NDJSON stream into `dir` (created if absent),
/// returning the file name written. The in-process wires write every
/// rank's stream; on [`Wire::Processes`] each process writes its own.
pub(crate) fn write_one_rank_trace(
    dir: &Path,
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
    dir: &Path,
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

pub(crate) struct RankOutput {
    pub(crate) network: Option<GeneNetwork>,
    /// The merged evidence behind `network` (rank 0 only).
    pub(crate) scan: NullScan,
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
/// the machine. RESULTS and SUPPLEMENT payloads are decoded here into
/// `pending_scan` (evidence over `genes` genes), and ASSIGN payloads
/// into the event, so bytes from another process never reach an
/// `expect`. Failures (timeout, disconnect, an unparseable or
/// undecodable frame) become [`ProtoEvent::Timeout`], a lost frame, with
/// `fail_reason` set for the recovery trace events.
#[allow(clippy::too_many_arguments)]
fn recv_event(
    tp: &dyn Transport,
    from: usize,
    timeout: Duration,
    in_ring: bool,
    genes: usize,
    block_payload: &mut Option<Bytes>,
    pending_scan: &mut Option<NullScan>,
    fail_reason: &mut &'static str,
) -> ProtoEvent {
    let unexpected = if in_ring {
        "unexpected frame on ring channel"
    } else {
        "unexpected frame"
    };
    let undecodable = (ProtoEvent::Timeout, "undecodable frame");
    loop {
        let raw = match tp.recv_timeout(from, timeout) {
            Ok(raw) => raw,
            Err(RecvTimeoutError::Timeout) => {
                *fail_reason = "peer timed out";
                return ProtoEvent::Timeout;
            }
            Err(RecvTimeoutError::Disconnected) => {
                *fail_reason = "peer disconnected";
                return ProtoEvent::Timeout;
            }
        };
        let (event, reason) = match parse_frame(raw) {
            // A delayed clock stamp is harmless. Transports divert TELEM
            // frames before they reach a protocol queue; a stray one is
            // tolerated the same way, not taken for a protocol error.
            Some((TAG_CLOCK | crate::live::TAG_TELEM, _, _)) => continue,
            Some((TAG_BLOCK, rd, payload)) => {
                *block_payload = Some(payload);
                let block = block_identity(from, rd, tp.size());
                let frame = ProtoFrame::Block { round: rd, block };
                (ProtoEvent::Frame(frame), unexpected)
            }
            Some((tag @ (TAG_RESULTS | TAG_SUPPLEMENT), _, payload)) => {
                match NullScan::decode(&payload, genes as u32) {
                    Ok(scan) => {
                        *pending_scan = Some(scan);
                        let frame = if tag == TAG_RESULTS {
                            ProtoFrame::Results
                        } else {
                            ProtoFrame::Supplement
                        };
                        (ProtoEvent::Frame(frame), unexpected)
                    }
                    Err(_) => undecodable,
                }
            }
            Some((TAG_ASSIGN, _, payload)) => match decode_assignment(&payload, tp.size()) {
                Some(pairs) => (ProtoEvent::Frame(ProtoFrame::Assign { pairs }), unexpected),
                None => undecodable,
            },
            _ => (ProtoEvent::Timeout, unexpected),
        };
        *fail_reason = reason;
        return event;
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
/// expression matrix, on the rank's workers — a rank's own block, and
/// the reconstruction primitive behind ring healing and redistribution.
fn build_block(
    matrix: &ExpressionMatrix,
    config: &InferenceConfig,
    basis: &BsplineBasis,
    p: usize,
    idx: usize,
) -> GeneBlock {
    let (s, e) = block_range(matrix.genes(), p, idx);
    GeneBlock {
        indices: (s as u32..e as u32).collect(),
        genes: prepare_genes(matrix, s..e, basis, config.resolved_threads()),
    }
}

/// One rank's protocol run over any [`Transport`]. The caller owns the
/// transport and must drop (or shut down) it after this returns — that
/// drop is the rank-death signal survivors detect, both for the channel
/// fabric (closed channels) and for TCP (FIN after drain).
pub(crate) fn rank_main(
    tp: &dyn Transport,
    matrix: &ExpressionMatrix,
    config: &InferenceConfig,
    rec: &Recorder,
    rank_rec: &Recorder,
    peer_timeout: Duration,
    live: Option<&LiveDuty>,
) -> RankOutput {
    let n = matrix.genes();
    let p = tp.size();
    let r = tp.rank();
    let faults = tp.faults().clone();
    let basis = BsplineBasis::new(config.spline_order, config.bins);
    let perms = PermutationSet::generate(matrix.samples(), config.permutations, config.seed);
    let pairings = Pairing::all(perms.as_vecs(), perms.samples());
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
                scan: NullScan::default(),
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
    // Prepare the local block.
    let t0 = Instant::now();
    let own = {
        let _prep_span = rank_rec.span("rank.prep");
        build_block(matrix, config, &basis, p, r)
    };
    busy += t0.elapsed();
    let scan = BlockScan {
        config,
        basis: &basis,
        pairings: &pairings,
        rec: rank_rec,
    };
    if r == 0 {
        // Run-shape stamp for offline perf attribution (`gnet
        // trace-report` matches it against a calibrated kernel model):
        // every rank scans its block pairs on `threads` workers in
        // sub-tiles of this edge.
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
                ("threads", Value::from(config.resolved_threads())),
                ("tile_size", Value::from(scan.tile_size(&own))),
                ("scheduler", Value::from("ring")),
            ],
        );
    }

    // Phase-1 evidence over the block pairs this rank owns.
    let mut own_scan = NullScan::default();

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
    // and the evidence of the last RESULTS/SUPPLEMENT frame (consumed on
    // accept).
    let mut block_payload: Option<Bytes> = None;
    let mut pending_scan: Option<NullScan> = None;
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
                live_tick(duty, b, tp, rank_rec, cur_round as u32, $done, stats.pairs);
            }
        };
    }
    let mut parts: Vec<Option<NullScan>> = vec![None; p];
    let mut supplements: Vec<Option<NullScan>> = vec![None; p];
    let mut cache: HashMap<usize, GeneBlock> = HashMap::new();
    // Evidence over the block pairs reassigned to this rank.
    let mut sup_scan = NullScan::default();
    let mut output: Option<(GeneNetwork, NullScan, f64, Vec<usize>)> = None;
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
                        stats.pairs += scan.block_pair(
                            own.as_ref().expect("own block is live in the ring"),
                            None,
                            &mut own_scan,
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
                    tp.send(to, frame(TAG_RESULTS, 0, &encode_scan(&own_scan)));
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
                    tp.send(to, frame(TAG_SUPPLEMENT, 0, &encode_scan(&sup_scan)));
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
                    let b = build_block(matrix, config, &basis, p, block);
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
                                let b = build_block(matrix, config, &basis, p, block);
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
                    stats.pairs += scan.block_pair(lo, Some(hi), &mut own_scan);
                    stats.block_pairs += 1;
                    busy += t.elapsed();
                }
                Effect::AcceptResults { from } => {
                    parts[from] = Some(
                        pending_scan
                            .take()
                            .expect("accepted RESULTS frame was decoded"),
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
                    let mut share = NullScan::default();
                    let acc = if r == 0 { &mut share } else { &mut sup_scan };
                    for &(a, b) in &pairs {
                        stats.pairs += scan.assigned_pair(a, b, matrix, p, &mut cache, acc);
                    }
                    if r == 0 {
                        supplements[0] = Some(share);
                    }
                    stats.reassigned_block_pairs += pairs.len();
                    stats.block_pairs += pairs.len();
                    busy += t.elapsed();
                }
                Effect::AcceptSupplement { from } => {
                    supplements[from] = Some(
                        pending_scan
                            .take()
                            .expect("accepted SUPPLEMENT frame was decoded"),
                    );
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
                    let mut share = NullScan::default();
                    for &(a, b) in &pairs {
                        stats.pairs += scan.assigned_pair(a, b, matrix, p, &mut cache, &mut share);
                    }
                    supplements[from] = Some(share);
                    stats.reassigned_block_pairs += pairs.len();
                    stats.block_pairs += pairs.len();
                    busy += t.elapsed();
                }
                Effect::Finalize { dead } => {
                    // Merge phase-1 results and supplements. The merge is
                    // exact and order-free, so the result is the same
                    // bits at any rank count and after any crash.
                    let mut merged = NullScan::default();
                    merged.merge(std::mem::take(&mut own_scan));
                    for part in std::mem::take(&mut parts).into_iter().flatten() {
                        merged.merge(part);
                    }
                    for share in std::mem::take(&mut supplements).into_iter().flatten() {
                        merged.merge(share);
                    }
                    let threshold = merged.threshold(config.mi_threshold, config.alpha, n);
                    let network = merged.network(matrix.gene_names(), threshold);
                    output = Some((network, merged, threshold, dead));
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
                n,
                &mut block_payload,
                &mut pending_scan,
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
    // counters (it snapshots `rank_rec`, so `rank.pairs` above is in
    // it). On rank 0 this also drains any last remote beats into the
    // view.
    tick!(true);

    match output {
        Some((network, scan, threshold, dead)) => RankOutput {
            network: Some(network),
            scan,
            threshold,
            stats,
            dead,
        },
        None => RankOutput {
            network: None,
            scan: NullScan::default(),
            threshold: 0.0,
            stats,
            dead: Vec::new(),
        },
    }
}

/// How a rank scans its block pairs: the run configuration (whose
/// `threads` are the rank's workers and whose scheduler hands them
/// sub-tiles), the shared basis, the shared permutations validated once
/// as null pairings, and the rank's recorder, which receives the
/// executor's per-tile latencies and per-thread claim counts.
struct BlockScan<'a> {
    config: &'a InferenceConfig,
    basis: &'a BsplineBasis,
    pairings: &'a [Pairing<'a>],
    rec: &'a Recorder,
}

impl BlockScan<'_> {
    /// Sub-tile edge for the column block `cols`: the configured tile
    /// size, or the shared-memory run's cache rule.
    fn tile_size(&self, cols: &GeneBlock) -> usize {
        self.config
            .resolved_tile_size(cols.genes.len(), cols.genes[0].samples())
    }

    /// Scan block pair `(x, y)` — rows from `x` and columns from `y` (the
    /// diagonal block of `x` when `y` is `None`) — into `acc` on the
    /// rank's workers, in the shared-memory run's cache-rule sub-tiles:
    /// each worker holds one sub-tile's row plans and one block of its
    /// dense columns at a time, not a whole block's. `acc` grows only by
    /// merging the workers' evidence. Returns the pairs evaluated.
    fn block_pair(&self, x: &GeneBlock, y: Option<&GeneBlock>, acc: &mut NullScan) -> u64 {
        let cols = y.unwrap_or(x);
        let space = TileSpace::block_pair(gene_range(x), gene_range(cols), self.tile_size(cols));
        scan_tiles(
            space.tiles(),
            |t| {
                (
                    block_genes(x, t.row_start..t.row_end),
                    block_genes(cols, t.col_start..t.col_end),
                )
            },
            self.pairings,
            self.basis,
            self.config,
            self.rec,
            acc,
        );
        space.total_pairs()
    }

    /// Recompute one reassigned block pair `{a, b}` of the `p`-way
    /// partition from the shared matrix, in the same canonical
    /// orientation as the original owner would have used (lower block
    /// index on the x side) — so the recomputed null draws and candidate
    /// decisions are identical to the lost ones. Returns the pairs
    /// evaluated.
    fn assigned_pair(
        &self,
        a: usize,
        b: usize,
        matrix: &ExpressionMatrix,
        p: usize,
        cache: &mut HashMap<usize, GeneBlock>,
        acc: &mut NullScan,
    ) -> u64 {
        let (lo, hi) = (a.min(b), a.max(b));
        for idx in [lo, hi] {
            cache
                .entry(idx)
                .or_insert_with(|| build_block(matrix, self.config, self.basis, p, idx));
        }
        let x = cache.get(&lo).expect("block cached just above");
        let y = (lo != hi).then(|| cache.get(&hi).expect("block cached just above"));
        self.block_pair(x, y, acc)
    }
}

/// The global gene indices of a (contiguous) block.
fn gene_range(b: &GeneBlock) -> std::ops::Range<usize> {
    let first = b.indices[0] as usize;
    first..first + b.indices.len()
}

/// The prepared genes of `b` with global indices `genes`.
fn block_genes(b: &GeneBlock, genes: std::ops::Range<u32>) -> &[PreparedGene] {
    let first = b.indices[0];
    &b.genes[(genes.start - first) as usize..(genes.end - first) as usize]
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

/// The block pairs of an ASSIGN payload, or `None` unless it is a `u32`
/// count and exactly that many pairs of block indices below `p`.
fn decode_assignment(bytes: &Bytes, p: usize) -> Option<Vec<(usize, usize)>> {
    let mut bytes = bytes.clone();
    let c = (bytes.remaining() >= 4).then(|| bytes.get_u32_le() as usize)?;
    if bytes.remaining() != c * 8 {
        return None;
    }
    let pairs: Vec<(usize, usize)> = (0..c)
        .map(|_| (bytes.get_u32_le() as usize, bytes.get_u32_le() as usize))
        .collect();
    pairs.iter().all(|&(a, b)| a < p && b < p).then_some(pairs)
}

/// A RESULTS or SUPPLEMENT payload: the sender's merged evidence in
/// [`NullScan::encode`] form.
fn encode_scan(scan: &NullScan) -> Vec<u8> {
    let mut out = Vec::new();
    scan.encode(&mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::block_pair_owner;
    use gnet_core::infer_network;
    use gnet_expr::synth::{coupled_pairs, Coupling};
    use gnet_fault::FaultPlan;
    use gnet_grnsim::{GrnConfig, SyntheticDataset};
    use gnet_parallel::SchedulerPolicy;
    use std::collections::BTreeMap;
    use std::sync::Arc;

    fn cfg() -> InferenceConfig {
        InferenceConfig {
            permutations: 12,
            threads: Some(1),
            tile_size: Some(8),
            ..InferenceConfig::default()
        }
    }

    /// The fault-free, untraced ring over channels.
    fn ring(
        matrix: &ExpressionMatrix,
        config: &InferenceConfig,
        ranks: usize,
    ) -> DistributedResult {
        infer_network_distributed(matrix, config, &RankRun::new(ranks))
            .expect("a fault-free channel ring completes")
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

    /// Two workers per rank over 2-gene sub-tiles, so every block pair
    /// of these small matrices spreads over several sub-tiles.
    fn threaded_cfg() -> InferenceConfig {
        InferenceConfig {
            threads: Some(2),
            tile_size: Some(2),
            ..cfg()
        }
    }

    /// The network as `gnet infer --output` writes it.
    fn edge_bytes(net: &GeneNetwork) -> Vec<u8> {
        let mut bytes = Vec::new();
        gnet_graph::io::write_edge_list(net, &mut bytes).expect("in-memory write");
        bytes
    }

    #[test]
    fn distributed_matches_shared_memory_pipeline() {
        let (matrix, _) = coupled_pairs(6, 260, Coupling::Linear(0.85), 77);
        let shared = infer_network(&matrix, &cfg());
        let shared_bytes = edge_bytes(&shared.network);
        for ranks in [1usize, 2, 3, 5] {
            for threads in [1usize, 2, 3] {
                for scheduler in SchedulerPolicy::ALL {
                    let config = InferenceConfig {
                        threads: Some(threads),
                        scheduler,
                        ..threaded_cfg()
                    };
                    let at = format!("{ranks} ranks × {threads} threads, {}", scheduler.name());
                    let dist = ring(&matrix, &config, ranks);
                    assert_eq!(
                        edge_bytes(&dist.network),
                        shared_bytes,
                        "{at}: edge list bytes"
                    );
                    assert_eq!(
                        dist.threshold.to_bits(),
                        shared.stats.threshold.to_bits(),
                        "{at}: I* must be bitwise the shared-memory one"
                    );
                    assert_eq!(dist.scan, shared.scan, "{at}: the merged evidence");
                    let total_pairs: u64 = dist.rank_stats.iter().map(|s| s.pairs).sum();
                    assert_eq!(total_pairs, shared.stats.pairs, "{at}: pair coverage");
                    assert!(dist.crashed_ranks.is_empty());
                }
            }
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
            let dist = ring(&matrix, &cfg(), ranks);
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
        let dist = ring(&ds.matrix, &cfg(), 5);
        let a: Vec<_> = dist.network.edges().iter().map(|e| e.key()).collect();
        let b: Vec<_> = shared.network.edges().iter().map(|e| e.key()).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn communication_volume_scales_with_rounds_not_pairs() {
        let (matrix, _) = coupled_pairs(8, 100, Coupling::Linear(0.8), 3);
        let dist = ring(&matrix, &cfg(), 4);
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
        let dist = ring(&matrix, &scalar_cfg, 3);
        let a: Vec<_> = dist.network.edges().iter().map(|e| e.key()).collect();
        let b: Vec<_> = shared.network.edges().iter().map(|e| e.key()).collect();
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "more ranks than genes")]
    fn too_many_ranks_rejected() {
        let (matrix, _) = coupled_pairs(2, 50, Coupling::Linear(0.5), 1);
        let _ = ring(&matrix, &cfg(), 10);
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
            let mut pending_scan = None;
            let mut reason = "";
            let timeout = Duration::from_secs(5);
            // First receive surfaces the stale frame; the machine must
            // discard it silently and keep waiting on the same channel.
            let ev = recv_event(
                &ep,
                0,
                timeout,
                true,
                4,
                &mut block_payload,
                &mut pending_scan,
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
                4,
                &mut block_payload,
                &mut pending_scan,
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
        let baseline = ring(&matrix, &cfg(), 4);
        let rec = Recorder::enabled();
        // Rank 2 dies at the first ring round, before sending anything;
        // the survivors rescan its block pairs on two workers each.
        let dist = run_with_plan(
            &matrix,
            &threaded_cfg(),
            4,
            "seed=7;crash(rank=2,round=1)",
            &rec,
        )
        .expect("non-coordinator crash must be survivable");
        assert_eq!(dist.crashed_ranks, vec![2]);
        assert!(dist.rank_stats[2].crashed);
        assert_eq!(
            edge_bytes(&dist.network),
            edge_bytes(&baseline.network),
            "recovery changed the inferred network"
        );
        assert_eq!(
            dist.threshold.to_bits(),
            baseline.threshold.to_bits(),
            "recomputed supplements must merge to the same I*"
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
        let baseline = ring(&matrix, &cfg(), 6);
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
        let baseline = ring(&matrix, &cfg(), 4);
        let rec = Recorder::enabled();
        let dist = run_with_plan(
            &matrix,
            &threaded_cfg(),
            4,
            "seed=7;crash(rank=1,round=1);crash(rank=3,round=2)",
            &rec,
        )
        .expect("two non-coordinator crashes must be survivable");
        assert_eq!(dist.crashed_ranks, vec![1, 3]);
        assert_eq!(edge_bytes(&dist.network), edge_bytes(&baseline.network));
        assert_eq!(dist.threshold.to_bits(), baseline.threshold.to_bits());
    }

    #[test]
    fn dropped_results_frame_degrades_to_recomputation_not_corruption() {
        let (matrix, _) = coupled_pairs(6, 160, Coupling::Linear(0.8), 23);
        let baseline = ring(&matrix, &cfg(), 3);
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

    /// A channel endpoint whose RESULTS frames lose their last byte on
    /// the way out.
    struct TruncatingResults(crate::comm::Endpoint);

    impl Transport for TruncatingResults {
        fn rank(&self) -> usize {
            self.0.rank()
        }

        fn size(&self) -> usize {
            self.0.size()
        }

        fn send(&self, to: usize, payload: Bytes) {
            let cut = usize::from(payload.first() == Some(&TAG_RESULTS));
            self.0.send(to, payload.slice(..payload.len() - cut));
        }

        fn recv_timeout(&self, from: usize, timeout: Duration) -> Result<Bytes, RecvTimeoutError> {
            self.0.recv_timeout(from, timeout)
        }

        fn faults(&self) -> &FaultInjector {
            self.0.faults()
        }

        fn messages_sent(&self) -> u64 {
            Transport::messages_sent(&self.0)
        }

        fn bytes_sent(&self) -> u64 {
            Transport::bytes_sent(&self.0)
        }
    }

    #[test]
    fn an_undecodable_results_frame_is_a_lost_frame() {
        let (matrix, _) = coupled_pairs(6, 160, Coupling::Linear(0.8), 23);
        let shared = infer_network(&matrix, &cfg());
        let recs = [Recorder::disabled(), Recorder::disabled()];
        // An armed (empty) plan: a send to a finished rank is dropped.
        let fabric = Fabric::with_faults(2, FaultInjector::from_plan(&FaultPlan::new(7)));
        let outputs = run_ranks_on(fabric, |ep| {
            let run = |tp: &dyn Transport| {
                let rank_rec = &recs[tp.rank()];
                let rec = Recorder::disabled();
                rank_main(tp, &matrix, &cfg(), &rec, rank_rec, faulty_timeout(), None)
            };
            match ep.rank() {
                1 => run(&TruncatingResults(ep)),
                _ => run(&ep),
            }
        });
        let dist = assemble_result(outputs, None, &recs).expect("no trace to write");
        // Rank 1 is presumed dead at the census and its block pairs are
        // rescanned by rank 0.
        assert_eq!(dist.crashed_ranks, vec![1]);
        assert!(!dist.rank_stats[1].crashed, "rank 1 never actually died");
        assert_eq!(edge_bytes(&dist.network), edge_bytes(&shared.network));
        assert_eq!(dist.threshold.to_bits(), shared.stats.threshold.to_bits());
    }

    #[test]
    fn undecodable_assignments_are_refused() {
        let pairs = [(0, 1), (2, 2)];
        let bytes = encode_assignment(&pairs);
        assert_eq!(decode_assignment(&bytes, 3), Some(pairs.to_vec()));
        assert_eq!(decode_assignment(&bytes, 2), None, "block 2 of 2");
        assert_eq!(decode_assignment(&bytes.slice(..bytes.len() - 1), 3), None);
        assert_eq!(decode_assignment(&bytes.slice(..3), 3), None);
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
        let baseline = ring(&matrix, &cfg(), 4);
        let run = RankRun {
            trace_dir: Some(&dir),
            ..RankRun::new(4)
        };
        let dist = infer_network_distributed(&matrix, &cfg(), &run)
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
        let baseline = ring(&matrix, &cfg(), 4);
        let plan = FaultPlan::parse("seed=7;crash(rank=2,round=1)").expect("plan parses");
        let run = RankRun {
            faults: FaultInjector::from_plan(&plan),
            recorder: Recorder::enabled(),
            peer_timeout: faulty_timeout(),
            trace_dir: Some(&dir),
            ..RankRun::new(4)
        };
        let dist = infer_network_distributed(&matrix, &cfg(), &run)
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
    fn tcp_survives_the_acceptance_plan_crash_plus_midframe_cut() {
        // The PR's acceptance scenario: a 4-rank loopback-TCP run where
        // one rank is killed mid-round AND a first frame on the 3→0 edge
        // is cut mid-frame (truncated, connection severed) must still be
        // byte-identical to the fault-free run.
        let (matrix, _) = coupled_pairs(6, 220, Coupling::Linear(0.8), 42);
        let baseline = ring(&matrix, &cfg(), 4);
        let plan = FaultPlan::parse("seed=7;crash(rank=2,round=1);cut(from=3,to=0,nth=1)")
            .expect("acceptance plan parses");
        let rec = Recorder::enabled();
        let run = RankRun {
            wire: Wire::Loopback,
            faults: FaultInjector::from_plan_traced(&plan, &rec),
            recorder: rec.clone(),
            peer_timeout: faulty_timeout(),
            ..RankRun::new(4)
        };
        let dist = infer_network_distributed(&matrix, &cfg(), &run)
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
        let baseline = ring(&matrix, &cfg(), 4);
        let run = RankRun {
            wire: Wire::Loopback,
            trace_dir: Some(&dir),
            ..RankRun::new(4)
        };
        let dist =
            infer_network_distributed(&matrix, &cfg(), &run).expect("traced TCP run succeeds");
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
        let plain = ring(&matrix, &cfg(), 4);
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

    // ---- one entry point, every wire ----

    /// One row of the wire table: a `ranks`-rank run over `wire` with
    /// two workers per rank, traced into `dir` and/or beating into a
    /// plane. On the process wire, `ranks − 1` in-thread workers dial
    /// the coordinator's listener. Returns the result and, when a plane
    /// was attached, its finished view.
    fn run_row(
        matrix: &ExpressionMatrix,
        wire: &str,
        ranks: usize,
        dir: Option<&Path>,
        live: bool,
    ) -> (
        DistributedResult,
        Option<Arc<std::sync::Mutex<gnet_telemetry::ClusterView>>>,
    ) {
        let genes = matrix.genes() as u64;
        let mut plane = live.then(|| {
            let spec = crate::TelemetrySpec::with_interval(Duration::from_millis(5));
            TelemetryPlane::start(&spec, ranks, genes * (genes - 1) / 2).expect("plane starts")
        });
        let listener = TcpListener::bind(("127.0.0.1", 0)).expect("loopback bind succeeds");
        let run = RankRun {
            wire: match wire {
                "channels" => Wire::Channels,
                "loopback" => Wire::Loopback,
                _ => Wire::Processes(&listener),
            },
            trace_dir: dir,
            plane: plane.as_ref(),
            ..RankRun::new(ranks)
        };
        let addr = listener.local_addr().expect("bound listener has an addr");
        let result = std::thread::scope(|s| {
            let workers: Vec<_> = (1..ranks)
                .filter(|_| matches!(run.wire, Wire::Processes(_)))
                .map(|_| s.spawn(move || crate::run_worker(addr, None)))
                .collect();
            let result = infer_network_distributed(matrix, &threaded_cfg(), &run);
            for w in workers {
                w.join()
                    .expect("worker thread completes")
                    .expect("worker run succeeds");
            }
            result
        });
        let view = plane.as_mut().map(|p| {
            p.finish().expect("no status file to fail on");
            p.view()
        });
        (result.expect("fault-free run completes"), view)
    }

    /// The counters of one NDJSON rank stream, and each histogram's
    /// `(count, sum_us)`, by name.
    fn stream_metrics(stream: &str) -> (BTreeMap<String, u64>, BTreeMap<String, (u64, u64)>) {
        let field = |line: &str, key: &str| -> u64 {
            let at = line.find(key).expect("field present") + key.len();
            let digits: String = line[at..]
                .chars()
                .take_while(char::is_ascii_digit)
                .collect();
            digits.parse().expect("field is a u64")
        };
        let name = |line: &str| -> String {
            let at = line.find("\"name\":\"").expect("named record") + 8;
            line[at..]
                .split('"')
                .next()
                .expect("closed name")
                .to_string()
        };
        let (mut counters, mut histograms) = (BTreeMap::new(), BTreeMap::new());
        for line in stream.lines() {
            if line.starts_with("{\"type\":\"counter\"") {
                counters.insert(name(line), field(line, "\"value\":"));
            } else if line.starts_with("{\"type\":\"histogram\"") {
                let counts = (field(line, "\"count\":"), field(line, "\"sum_us\":"));
                histograms.insert(name(line), counts);
            }
        }
        (counters, histograms)
    }

    /// A rank's finished live view reports what its trace stream holds:
    /// every counter equal, each histogram as `<h>.count` and
    /// `<h>.sum_us`. Only the `tcp.*` counters, published after the
    /// closing beat, may be missing from the view.
    fn assert_view_matches_stream(view: &BTreeMap<String, u64>, stream: &str, at: &str) {
        let (counters, histograms) = stream_metrics(stream);
        let mut expected: BTreeMap<String, u64> = counters
            .into_iter()
            .filter(|(name, _)| !name.starts_with("tcp."))
            .collect();
        for (name, (count, sum_us)) in histograms {
            expected.insert(format!("{name}.count"), count);
            expected.insert(format!("{name}.sum_us"), sum_us);
        }
        assert!(!expected.is_empty(), "{at}: the stream records metrics");
        assert_eq!(view, &expected, "{at}: view vs stream");
    }

    #[test]
    fn every_wire_and_instrument_writes_the_shared_memory_bytes() {
        let (matrix, _) = coupled_pairs(6, 220, Coupling::Linear(0.8), 42);
        let shared = infer_network(&matrix, &threaded_cfg());
        let shared_bytes = edge_bytes(&shared.network);
        for wire in ["channels", "loopback", "processes"] {
            for ranks in [3usize, 4] {
                for (traced, live) in [(false, false), (true, false), (false, true), (true, true)] {
                    let at = format!("{wire}, {ranks} ranks, traced {traced}, plane {live}");
                    let dir = std::env::temp_dir().join(format!(
                        "gnet-cluster-wire-{}-{wire}-{ranks}-{traced}-{live}",
                        std::process::id()
                    ));
                    let (dist, view) =
                        run_row(&matrix, wire, ranks, traced.then_some(dir.as_path()), live);
                    assert_eq!(edge_bytes(&dist.network), shared_bytes, "{at}: edge bytes");
                    assert_eq!(
                        dist.threshold.to_bits(),
                        shared.stats.threshold.to_bits(),
                        "{at}: I* bits"
                    );
                    assert!(dist.crashed_ranks.is_empty(), "{at}");
                    if let Some(view) = view {
                        let v = view.lock().expect("view lock is not poisoned");
                        assert!(v.is_done(), "{at}: finish freezes the view");
                        assert_eq!(v.pairs_done(), shared.stats.pairs, "{at}: pairs done");
                        for r in v.ranks() {
                            assert!(r.beats >= 1, "{at}: rank {} never beat", r.rank);
                            if traced && wire != "processes" {
                                let stream = std::fs::read_to_string(
                                    dir.join(format!("rank-{}.ndjson", r.rank)),
                                )
                                .expect("rank stream written");
                                assert_view_matches_stream(&r.counters, &stream, &at);
                            }
                        }
                    }
                    if traced {
                        let manifest = std::fs::read_to_string(dir.join("manifest.json"))
                            .expect("manifest written");
                        for r in 0..ranks {
                            let name = format!("rank-{r}.ndjson");
                            assert!(
                                manifest.contains(&format!("\"{name}\"")),
                                "{at}: {manifest}"
                            );
                            assert!(dir.join(&name).exists(), "{at}: {name} missing");
                        }
                        std::fs::remove_dir_all(&dir).ok();
                    }
                }
            }
        }
    }
}
