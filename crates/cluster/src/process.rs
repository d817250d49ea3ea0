//! Multi-process cluster launch: a coordinator plus `P−1` worker
//! processes over real TCP — the
//! [`Wire::Processes`](crate::distributed::Wire::Processes) wire of
//! [`crate::infer_network_distributed`], whose worker end is
//! [`run_worker`].
//!
//! On the in-process wires every rank thread shares one address space,
//! so the matrix, config, and fault plan are simply borrowed. Across
//! processes everything must travel over the wire; this module is the
//! bootstrap that gets `P` processes from "worker knows the
//! coordinator's address" to "every rank holds a [`TcpTransport`] mesh
//! and runs the unchanged protocol loop":
//!
//! 1. **HELLO** — a worker binds an ephemeral listener, dials the
//!    coordinator (bounded retries with backoff, so workers may start
//!    first), and reports its listen port. Ranks are assigned in
//!    arrival order: the first HELLO becomes rank 1.
//! 2. **WELCOME** — the coordinator answers each worker with its rank,
//!    the cluster size, the peer timeout, the fault-plan string, the
//!    inference config (hand-rolled little-endian codec; `f64` fields
//!    travel as `to_le_bytes`, so the worker's arithmetic inputs are
//!    bit-exact), the listen-address table of every worker, and the
//!    `GNEX` snapshot of the expression matrix. A worker checks what it
//!    decodes (a valid config, the exact strategy, no more ranks than
//!    genes, two samples or more to permute) and refuses a bad WELCOME
//!    with [`ClusterError::Transport`]. Each process rebuilds its own
//!    [`FaultInjector`] from the same plan string — correct because
//!    every consultation (message faults, wire faults, connect
//!    refusals, rank crashes) happens on the sending/dialing/crashing
//!    side.
//! 3. **Mesh** — the control connection doubles as the worker↔rank-0
//!    data link (control blobs and transport frames share the same
//!    `u32 LE length ‖ payload` framing, so the stream transitions
//!    seamlessly); worker `r` dials workers `1..r` with the mesh
//!    preamble from [`crate::tcp`] and accepts workers `r+1..P`.
//!    Every listener exists before any WELCOME is sent, so mesh dials
//!    can at worst land in a listen backlog.
//! 4. **Protocol** — every process runs the same [`crate::distributed`]
//!    rank loop over its transport. A worker process dying mid-round is
//!    exactly a rank death: the OS closes its sockets, survivors see
//!    `Disconnected`, and the census/heal/redistribute machinery
//!    recovers the byte-identical edge set.
//! 5. **STATS** — after the protocol (and after writing its trace
//!    stream, so the file is durable before it is announced) each
//!    surviving worker sends a `TAG_STATS` frame; it only ever follows
//!    the worker's protocol frames (per-edge FIFO plus the send happens
//!    after the rank loop returns), so the coordinator's protocol
//!    receives never see it. Workers that report nothing — killed
//!    processes and simulated crashes alike — get synthesized crashed
//!    stats. Each STATS frame follows its worker's final heartbeat on
//!    the same link, so once all are in, the coordinator folds the
//!    queued beats one last time into the telemetry plane's view. It
//!    then writes the manifest listing every rank stream that actually
//!    exists on its filesystem.
//!
//! The wire config carries `threads`, so every worker process runs the
//! coordinator's per-rank worker count (`None` resolves to each host's
//! own available parallelism). The scheduler policy is absent from it:
//! a worker schedules its sub-tiles under the default policy, and since
//! no policy changes a bit of the result, shipping it would only change
//! the bootstrap format.

use crate::distributed::{
    frame, parse_frame, rank_main, rank_recorder, write_manifest, write_one_rank_trace,
    ClusterError, DistributedResult, RankRun, RankStats, TAG_STATS,
};
use crate::live::{live_final_fold, LiveDuty};
use crate::tcp::{accept_peer, dial, RetryPolicy, TcpCounters, TcpTransport};
use crate::transport::Transport;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use gnet_core::config::NullStrategy;
use gnet_core::InferenceConfig;
use gnet_expr::ExpressionMatrix;
use gnet_fault::{FaultInjector, FaultPlan, SplitMix64};
use gnet_mi::MiKernel;
use gnet_trace::Recorder;
use std::io::{Read, Write};
use std::net::{Ipv4Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Duration;

/// Magic opening a HELLO blob (`"GNWK"` LE).
const HELLO_MAGIC: u32 = 0x474E_574B;
/// Magic opening a WELCOME blob (`"GNWC"` LE).
const WELCOME_MAGIC: u32 = 0x474E_5743;
/// Bootstrap wire-format version. v2 added `telem_interval_us` to the
/// WELCOME header (0 = live telemetry off); v3 workers send RESULTS and
/// SUPPLEMENT frames carrying the exact fixed-point pooled null; v4
/// ships gene blocks as rank codes into one weight table per frame. The
/// codec is closed-world, so an older peer is rejected rather than
/// mis-parsed.
const BOOTSTRAP_VERSION: u8 = 4;
/// Upper bound on a control blob. The dominant term is the matrix
/// snapshot; whole-genome matrices are hundreds of MiB at most.
const MAX_BLOB: usize = 1024 * 1024 * 1024;
/// How long a worker waits for its WELCOME (the coordinator may still
/// be collecting other workers' HELLOs).
const WELCOME_TIMEOUT: Duration = Duration::from_secs(60);
/// How long the coordinator waits for each worker's HELLO blob once
/// its connection is accepted.
const HELLO_TIMEOUT: Duration = Duration::from_secs(60);
/// How long the coordinator waits for a worker's post-protocol STATS
/// before presuming the worker crashed.
const STATS_TIMEOUT: Duration = Duration::from_secs(60);
/// Per-attempt timeout for the worker's control dial.
const CONTROL_DIAL_TIMEOUT: Duration = Duration::from_secs(2);

fn transport_err(message: impl std::fmt::Display) -> ClusterError {
    ClusterError::Transport {
        message: message.to_string(),
    }
}

/// Write one length-prefixed control blob.
fn write_blob(stream: &mut TcpStream, payload: &[u8]) -> std::io::Result<()> {
    stream.write_all(&(payload.len() as u32).to_le_bytes())?;
    stream.write_all(payload)?;
    stream.flush()
}

/// Read one length-prefixed control blob, bounded by `deadline`. The
/// read timeout is cleared afterwards (the stream goes on to live as a
/// mesh link, whose reader must block indefinitely).
fn read_blob(stream: &mut TcpStream, deadline: Duration) -> std::io::Result<Bytes> {
    stream.set_read_timeout(Some(deadline))?;
    let mut len_buf = [0u8; 4];
    stream.read_exact(&mut len_buf)?;
    let len = u32::from_le_bytes(len_buf) as usize;
    if len > MAX_BLOB {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "control blob length exceeds sanity bound",
        ));
    }
    let mut payload = vec![0u8; len];
    stream.read_exact(&mut payload)?;
    stream.set_read_timeout(None)?;
    Ok(Bytes::from(payload))
}

fn put_str(buf: &mut BytesMut, s: &str) {
    buf.put_u32_le(s.len() as u32);
    buf.put_slice(s.as_bytes());
}

fn get_str(bytes: &mut Bytes) -> Result<String, ClusterError> {
    if bytes.remaining() < 4 {
        return Err(transport_err("truncated string length"));
    }
    let len = bytes.get_u32_le() as usize;
    if bytes.remaining() < len {
        return Err(transport_err("truncated string payload"));
    }
    let raw = bytes.split_to(len);
    String::from_utf8(raw.to_vec()).map_err(|_| transport_err("control string is not UTF-8"))
}

fn put_opt_usize(buf: &mut BytesMut, v: Option<usize>) {
    buf.put_u8(u8::from(v.is_some()));
    buf.put_u64_le(v.unwrap_or(0) as u64);
}

fn get_opt_usize(bytes: &mut Bytes) -> Option<usize> {
    let flag = bytes.get_u8();
    let v = bytes.get_u64_le() as usize;
    (flag == 1).then_some(v)
}

/// Encode the config fields the distributed rank loop consults. `f64`
/// fields travel as raw `to_le_bytes`, so the worker computes on
/// bit-exact inputs — the property the byte-identity acceptance tests
/// rest on.
fn encode_config(config: &InferenceConfig) -> Bytes {
    let mut buf = BytesMut::with_capacity(96);
    buf.put_u64_le(config.bins as u64);
    buf.put_u64_le(config.spline_order as u64);
    buf.put_u64_le(config.permutations as u64);
    buf.put_slice(&config.alpha.to_le_bytes());
    buf.put_u8(u8::from(config.mi_threshold.is_some()));
    buf.put_slice(&config.mi_threshold.unwrap_or(0.0).to_le_bytes());
    buf.put_u64_le(config.seed);
    buf.put_u8(match config.kernel {
        MiKernel::ScalarSparse => 0,
        MiKernel::VectorDense => 1,
    });
    put_opt_usize(&mut buf, config.tile_size);
    put_opt_usize(&mut buf, config.threads);
    buf.put_u8(match config.null_strategy {
        NullStrategy::ExactFull => 0,
        NullStrategy::EarlyExit => 1,
    });
    buf.put_u64_le(config.null_sample_pairs as u64);
    buf.freeze()
}

fn decode_config(bytes: &mut Bytes) -> Result<InferenceConfig, ClusterError> {
    // bins + order + perms, alpha, threshold flag+value, seed, kernel,
    // two optional usizes, null strategy, sample pairs.
    const CONFIG_WIRE_LEN: usize = 3 * 8 + 8 + 1 + 8 + 8 + 1 + 2 * 9 + 1 + 8;
    if bytes.remaining() < CONFIG_WIRE_LEN {
        return Err(transport_err("truncated config blob"));
    }
    let mut f64_bytes = [0u8; 8];
    let bins = bytes.get_u64_le() as usize;
    let spline_order = bytes.get_u64_le() as usize;
    let permutations = bytes.get_u64_le() as usize;
    bytes.copy_to_slice(&mut f64_bytes);
    let alpha = f64::from_le_bytes(f64_bytes);
    let has_threshold = bytes.get_u8() == 1;
    bytes.copy_to_slice(&mut f64_bytes);
    let mi_threshold = has_threshold.then_some(f64::from_le_bytes(f64_bytes));
    let seed = bytes.get_u64_le();
    let kernel = match bytes.get_u8() {
        0 => MiKernel::ScalarSparse,
        1 => MiKernel::VectorDense,
        _ => return Err(transport_err("unknown kernel code in config blob")),
    };
    let tile_size = get_opt_usize(bytes);
    let threads = get_opt_usize(bytes);
    let null_strategy = match bytes.get_u8() {
        0 => NullStrategy::ExactFull,
        1 => NullStrategy::EarlyExit,
        _ => return Err(transport_err("unknown null strategy in config blob")),
    };
    let null_sample_pairs = bytes.get_u64_le() as usize;
    Ok(InferenceConfig {
        bins,
        spline_order,
        permutations,
        alpha,
        mi_threshold,
        seed,
        kernel,
        tile_size,
        threads,
        null_strategy,
        null_sample_pairs,
        // The scheduler policy is not on the wire: a worker process
        // hands its sub-tiles to its `threads` workers under the default
        // policy, and no policy changes a bit of the result.
        ..InferenceConfig::default()
    })
}

fn encode_stats(stats: &RankStats) -> Bytes {
    let mut buf = BytesMut::with_capacity(64);
    buf.put_u32_le(stats.rank as u32);
    buf.put_u8(u8::from(stats.crashed));
    buf.put_u64_le(stats.pairs);
    buf.put_u64_le(stats.block_pairs as u64);
    buf.put_u64_le(stats.messages);
    buf.put_u64_le(stats.bytes_sent);
    buf.put_u64_le(stats.busy.as_micros() as u64);
    buf.put_u64_le(stats.reassigned_block_pairs as u64);
    buf.put_slice(&stats.clock_offset_us.to_le_bytes());
    buf.freeze()
}

fn decode_stats(mut bytes: Bytes) -> Result<RankStats, ClusterError> {
    if bytes.remaining() < 4 + 1 + 6 * 8 + 8 {
        return Err(transport_err("truncated stats frame"));
    }
    let rank = bytes.get_u32_le() as usize;
    let crashed = bytes.get_u8() == 1;
    let pairs = bytes.get_u64_le();
    let block_pairs = bytes.get_u64_le() as usize;
    let messages = bytes.get_u64_le();
    let bytes_sent = bytes.get_u64_le();
    let busy = Duration::from_micros(bytes.get_u64_le());
    let reassigned_block_pairs = bytes.get_u64_le() as usize;
    let mut offset_bytes = [0u8; 8];
    bytes.copy_to_slice(&mut offset_bytes);
    Ok(RankStats {
        rank,
        crashed,
        pairs,
        block_pairs,
        messages,
        bytes_sent,
        busy,
        reassigned_block_pairs,
        clock_offset_us: i64::from_le_bytes(offset_bytes),
    })
}

/// Everything a worker process learns from its WELCOME.
struct Welcome {
    rank: usize,
    size: usize,
    peer_timeout: Duration,
    /// Heartbeat cadence for the live telemetry plane; zero disables it.
    telem_interval_us: u64,
    traced: bool,
    trace_dir: String,
    plan: String,
    config: InferenceConfig,
    /// Listen addresses of workers `1..size` (index 0 is rank 1).
    peers: Vec<SocketAddr>,
    matrix: ExpressionMatrix,
}

#[allow(clippy::too_many_arguments)]
fn encode_welcome(
    rank: usize,
    size: usize,
    peer_timeout: Duration,
    telem_interval_us: u64,
    traced: bool,
    trace_dir: &str,
    plan: &str,
    config: &InferenceConfig,
    peers: &[SocketAddr],
    snapshot: &Bytes,
) -> Bytes {
    let mut buf = BytesMut::with_capacity(128 + snapshot.len());
    buf.put_u32_le(WELCOME_MAGIC);
    buf.put_u8(BOOTSTRAP_VERSION);
    buf.put_u32_le(rank as u32);
    buf.put_u32_le(size as u32);
    buf.put_u64_le(peer_timeout.as_micros() as u64);
    buf.put_u64_le(telem_interval_us);
    buf.put_u8(u8::from(traced));
    put_str(&mut buf, trace_dir);
    put_str(&mut buf, plan);
    let config_blob = encode_config(config);
    buf.put_u32_le(config_blob.len() as u32);
    buf.put_slice(&config_blob);
    buf.put_u32_le(peers.len() as u32);
    for addr in peers {
        put_str(&mut buf, &addr.to_string());
    }
    buf.put_u64_le(snapshot.len() as u64);
    buf.put_slice(snapshot);
    buf.freeze()
}

fn decode_welcome(mut bytes: Bytes) -> Result<Welcome, ClusterError> {
    if bytes.remaining() < 4 + 1 + 4 + 4 + 8 + 8 + 1 {
        return Err(transport_err("truncated WELCOME header"));
    }
    if bytes.get_u32_le() != WELCOME_MAGIC {
        return Err(transport_err("WELCOME magic mismatch"));
    }
    if bytes.get_u8() != BOOTSTRAP_VERSION {
        return Err(transport_err("unsupported bootstrap version"));
    }
    let rank = bytes.get_u32_le() as usize;
    let size = bytes.get_u32_le() as usize;
    let peer_timeout = Duration::from_micros(bytes.get_u64_le());
    let telem_interval_us = bytes.get_u64_le();
    let traced = bytes.get_u8() == 1;
    let trace_dir = get_str(&mut bytes)?;
    let plan = get_str(&mut bytes)?;
    if bytes.remaining() < 4 {
        return Err(transport_err("truncated config length"));
    }
    let config_len = bytes.get_u32_le() as usize;
    if bytes.remaining() < config_len {
        return Err(transport_err("truncated config blob"));
    }
    let mut config_blob = bytes.split_to(config_len);
    let config = decode_config(&mut config_blob)?;
    if bytes.remaining() < 4 {
        return Err(transport_err("truncated peer table"));
    }
    let peer_count = bytes.get_u32_le() as usize;
    if peer_count + 1 != size || rank == 0 || rank >= size {
        return Err(transport_err(
            "WELCOME rank/size bookkeeping is inconsistent",
        ));
    }
    // Every entry starts with a 4-byte length: refuse a count the frame
    // cannot hold before allocating for it.
    if peer_count > bytes.remaining() / 4 {
        return Err(transport_err("WELCOME peer table overruns the frame"));
    }
    let mut peers = Vec::with_capacity(peer_count);
    for _ in 0..peer_count {
        let addr = get_str(&mut bytes)?;
        peers.push(
            addr.parse()
                .map_err(|_| transport_err("unparseable peer address"))?,
        );
    }
    if bytes.remaining() < 8 {
        return Err(transport_err("truncated snapshot length"));
    }
    let snap_len = bytes.get_u64_le() as usize;
    if bytes.remaining() != snap_len {
        return Err(transport_err("snapshot length disagrees with payload"));
    }
    let matrix = gnet_expr::io::from_snapshot(bytes)
        .map_err(|e| transport_err(format!("bad matrix snapshot: {e:?}")))?;
    // The coordinator checked all of this before sending; a worker
    // checks again, since the bytes came over the network.
    config
        .check()
        .map_err(|e| transport_err(format!("bad config in WELCOME: {e}")))?;
    if config.null_strategy != NullStrategy::ExactFull {
        return Err(transport_err(
            "WELCOME config asks for early exit; the ring runs the exact strategy only",
        ));
    }
    if size > matrix.genes() {
        return Err(transport_err(format!(
            "WELCOME ring of {size} ranks exceeds its matrix's {} genes",
            matrix.genes()
        )));
    }
    if config.permutations > 0 && matrix.samples() < 2 {
        return Err(transport_err(
            "WELCOME matrix has fewer than 2 samples to permute",
        ));
    }
    Ok(Welcome {
        rank,
        size,
        peer_timeout,
        telem_interval_us,
        traced,
        trace_dir,
        plan,
        config,
        peers,
        matrix,
    })
}

fn injector_from_plan(plan: &str, rec: &Recorder) -> Result<FaultInjector, ClusterError> {
    if plan.is_empty() {
        return Ok(FaultInjector::none());
    }
    let parsed = FaultPlan::parse(plan)
        .map_err(|e| transport_err(format!("bad fault plan in WELCOME: {e}")))?;
    Ok(FaultInjector::from_plan_traced(&parsed, rec))
}

/// Dial the coordinator's control port with bounded retries (workers may
/// start before the coordinator is listening). No mesh preamble — the
/// first bytes on this stream are the HELLO blob.
fn dial_control(addr: SocketAddr, policy: &RetryPolicy) -> std::io::Result<TcpStream> {
    let mut rng = SplitMix64::new(policy.seed);
    let mut last = std::io::Error::new(std::io::ErrorKind::TimedOut, "control dial never ran");
    for attempt in 1..=policy.attempts.max(1) {
        if attempt > 1 {
            std::thread::sleep(policy.backoff(attempt - 1, &mut rng));
        }
        match TcpStream::connect_timeout(&addr, CONTROL_DIAL_TIMEOUT) {
            Ok(stream) => return Ok(stream),
            Err(e) => last = e,
        }
    }
    Err(last)
}

/// Serve one ring run over
/// [`Wire::Processes`](crate::distributed::Wire::Processes) as its
/// coordinator (rank 0): accept `run.ranks − 1` worker HELLOs on `listener`, ship
/// each worker everything it needs (WELCOME), run rank 0's protocol loop
/// over the control connections on `rank_rec` (and `duty`, when a plane
/// is attached), collect worker STATS reports, and — when
/// `run.trace_dir` is set — write rank 0's trace stream plus a manifest
/// listing every rank stream present on this filesystem (workers write
/// their own streams; on a shared filesystem the manifest covers all of
/// them).
///
/// Workers that die mid-run (process kill included) surface as crashed
/// ranks with synthesized stats; the run still completes with the
/// byte-identical edge set, exactly like the in-process wires.
///
/// # Panics
/// Panics if `run.ranks < 2`.
pub(crate) fn serve_coordinator(
    listener: &TcpListener,
    matrix: &ExpressionMatrix,
    config: &InferenceConfig,
    run: &RankRun<'_>,
    rank_rec: Recorder,
    duty: Option<&LiveDuty>,
) -> Result<DistributedResult, ClusterError> {
    let ranks = run.ranks;
    assert!(ranks >= 2, "a multi-process run needs at least one worker");
    let plan_string = run
        .faults
        .plan()
        .map(ToString::to_string)
        .unwrap_or_default();
    // Rank 0's own injector records on its own recorder, so its fault
    // events land in `rank-0.ndjson` like every worker's do in theirs.
    let faults = injector_from_plan(&plan_string, &rank_rec)?;
    let telem_interval_us = run.plane.map_or(0, |p| p.interval().as_micros() as u64);

    // Phase 1: HELLO — ranks assigned in arrival order.
    let mut controls: Vec<TcpStream> = Vec::with_capacity(ranks - 1);
    let mut peers: Vec<SocketAddr> = Vec::with_capacity(ranks - 1);
    for _ in 1..ranks {
        let (mut stream, peer_addr) = listener.accept().map_err(transport_err)?;
        let mut hello = read_blob(&mut stream, HELLO_TIMEOUT).map_err(transport_err)?;
        if hello.remaining() < 6 || hello.get_u32_le() != HELLO_MAGIC {
            return Err(transport_err("worker HELLO magic mismatch"));
        }
        let listen_port = hello.get_u16_le();
        peers.push(SocketAddr::new(peer_addr.ip(), listen_port));
        controls.push(stream);
    }

    // Phase 2: WELCOME. Every worker listener exists by now, so the
    // worker mesh cannot race its dials past an unbound port.
    let snapshot = gnet_expr::io::to_snapshot(matrix);
    let trace_dir_string = run
        .trace_dir
        .map(|d| d.display().to_string())
        .unwrap_or_default();
    for (idx, stream) in controls.iter_mut().enumerate() {
        let welcome = encode_welcome(
            idx + 1,
            ranks,
            run.peer_timeout,
            telem_interval_us,
            run.trace_dir.is_some(),
            &trace_dir_string,
            &plan_string,
            config,
            &peers,
            &snapshot,
        );
        write_blob(stream, &welcome).map_err(transport_err)?;
    }

    // Phases 3–4: rank 0's protocol loop over the control connections.
    let counters = Arc::new(TcpCounters::for_peers(ranks));
    let mut streams: Vec<Option<TcpStream>> = vec![None];
    streams.extend(controls.into_iter().map(Some));
    let tp = TcpTransport::from_streams(0, ranks, streams, faults, Arc::clone(&counters))
        .map_err(transport_err)?;
    let out = rank_main(
        &tp,
        matrix,
        config,
        &run.recorder,
        &rank_rec,
        run.peer_timeout,
        duty,
    );

    // Phase 5: collect worker STATS, synthesizing crashed stats for
    // workers that never report (killed processes, severed links, and
    // simulated crashes — crashed workers do not send STATS, their FIN
    // resolves the wait immediately).
    let mut rank_stats = vec![RankStats::default(); ranks];
    rank_stats[0] = out.stats.clone();
    for (r, slot) in rank_stats.iter_mut().enumerate().skip(1) {
        *slot = collect_stats(&tp, r);
    }
    // A worker's STATS frame follows its final beat on the same link, so
    // every surviving worker's `done` beat is queued by now.
    if let Some(d) = duty {
        live_final_fold(d, &tp, None);
    }
    tp.shutdown();
    counters.publish(&rank_rec);

    let result = DistributedResult {
        network: out
            .network
            .expect("coordinator rank always produces the network"),
        threshold: out.threshold,
        rank_stats,
        crashed_ranks: out.dead,
        scan: out.scan,
    };
    if let Some(dir) = run.trace_dir {
        write_one_rank_trace(dir, 0, ranks, 0, &rank_rec)?;
        let files: Vec<String> = (0..ranks)
            .map(|r| format!("rank-{r}.ndjson"))
            .filter(|name| dir.join(name).exists())
            .collect();
        write_manifest(dir, ranks, &result.crashed_ranks, &files)?;
    }
    Ok(result)
}

/// Skim frames from worker `r` until its STATS report, discarding
/// anything else (a healthy worker's STATS is the last frame it ever
/// sends, so nothing legitimate follows the protocol's leftovers). A
/// worker that disconnects or stays silent past [`STATS_TIMEOUT`] gets
/// synthesized crashed stats.
fn collect_stats(tp: &TcpTransport, r: usize) -> RankStats {
    let crashed = RankStats {
        rank: r,
        crashed: true,
        ..RankStats::default()
    };
    loop {
        match tp.recv_timeout(r, STATS_TIMEOUT) {
            Ok(raw) => match parse_frame(raw) {
                Some((TAG_STATS, _, payload)) => {
                    return decode_stats(payload).unwrap_or(crashed);
                }
                _ => continue,
            },
            Err(_) => return crashed,
        }
    }
}

/// What a worker process reports after its run.
#[derive(Clone, Debug)]
pub struct WorkerReport {
    /// The rank this process was assigned.
    pub rank: usize,
    /// Cluster size.
    pub ranks: usize,
    /// True when an injected fault killed this rank mid-run (the
    /// process survives to report locally; a *process-level* kill
    /// reports nothing and is detected by the survivors instead).
    pub crashed: bool,
}

/// Run one distributed inference as a worker process: dial the
/// coordinator at `connect`, bootstrap (HELLO/WELCOME), build the TCP
/// mesh with the other workers, run this rank's protocol loop, write
/// the rank trace stream (when the run is traced), and report STATS
/// back — in that order, so the trace file is durable before the
/// coordinator can learn the rank finished.
///
/// `trace_dir_override` replaces the coordinator-announced trace
/// directory (useful when the worker's filesystem view differs).
///
/// # Errors
/// [`ClusterError::Transport`] for bootstrap or mesh failures, and
/// [`ClusterError::TraceIo`] when the trace file cannot be written.
pub fn run_worker(
    connect: SocketAddr,
    trace_dir_override: Option<&std::path::Path>,
) -> Result<WorkerReport, ClusterError> {
    // The listen port travels in HELLO, so the listener must exist
    // before the dial.
    let listener = TcpListener::bind((Ipv4Addr::UNSPECIFIED, 0)).map_err(transport_err)?;
    let listen_port = listener.local_addr().map_err(transport_err)?.port();

    let policy = RetryPolicy::default();
    let mut control = dial_control(connect, &policy).map_err(transport_err)?;
    control.set_nodelay(true).map_err(transport_err)?;
    let mut hello = BytesMut::with_capacity(6);
    hello.put_u32_le(HELLO_MAGIC);
    hello.put_u16_le(listen_port);
    write_blob(&mut control, &hello).map_err(transport_err)?;
    let welcome_blob = read_blob(&mut control, WELCOME_TIMEOUT).map_err(transport_err)?;
    let Welcome {
        rank,
        size,
        peer_timeout,
        telem_interval_us,
        traced,
        trace_dir,
        plan,
        config,
        peers,
        matrix,
    } = decode_welcome(welcome_blob)?;

    let rank_rec = rank_recorder(traced, telem_interval_us > 0);
    // Workers never hold the cluster view: beats go to rank 0 in-band.
    let duty = (telem_interval_us > 0).then(|| LiveDuty {
        interval: Duration::from_micros(telem_interval_us),
        view: None,
    });
    // Each process rebuilds the injector from the shared plan string;
    // all consultations are local to the faulting side, so the plans
    // compose across processes exactly as they do in one process.
    let faults = injector_from_plan(&plan, &rank_rec)?;

    // Mesh: the control stream is the rank↔0 link; dial lower workers,
    // accept higher ones.
    let counters = Arc::new(TcpCounters::for_peers(size));
    let mut streams: Vec<Option<TcpStream>> = (0..size).map(|_| None).collect();
    streams[0] = Some(control);
    for to in 1..rank {
        let stream =
            dial(peers[to - 1], rank, to, &policy, &faults, &counters).map_err(transport_err)?;
        streams[to] = Some(stream);
    }
    for _ in rank + 1..size {
        let (from, stream) = accept_peer(&listener).map_err(transport_err)?;
        if from <= rank || from >= size || streams[from].is_some() {
            return Err(transport_err(format!(
                "mesh preamble announced an impossible peer rank {from}"
            )));
        }
        streams[from] = Some(stream);
    }
    drop(listener);
    let tp = TcpTransport::from_streams(rank, size, streams, faults, Arc::clone(&counters))
        .map_err(transport_err)?;

    // Protocol. There is no shared recorder across processes, so
    // recovery events land in this rank's own stream.
    let out = rank_main(
        &tp,
        &matrix,
        &config,
        &rank_rec,
        &rank_rec,
        peer_timeout,
        duty.as_ref(),
    );

    // Trace before STATS: by the time the coordinator can observe this
    // rank finished, the stream file is already durable.
    counters.publish(&rank_rec);
    if traced {
        let dir = trace_dir_override
            .map(std::path::Path::to_path_buf)
            .or_else(|| (!trace_dir.is_empty()).then(|| std::path::PathBuf::from(&trace_dir)));
        if let Some(dir) = &dir {
            write_one_rank_trace(dir, rank, size, out.stats.clock_offset_us, &rank_rec)?;
        }
    }
    // A simulated-crash rank is dead to the cluster: it must not speak
    // again (and mid-protocol STATS could be consumed by the
    // coordinator's census). Its FIN below is the death signal; the
    // coordinator synthesizes its stats.
    if !out.stats.crashed {
        tp.send(0, frame(TAG_STATS, 0, &encode_stats(&out.stats)));
    }
    tp.shutdown();
    Ok(WorkerReport {
        rank,
        ranks: size,
        crashed: out.stats.crashed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distributed::{infer_network_distributed, Wire};
    use crate::live::{TelemetryPlane, TelemetrySpec};
    use gnet_expr::synth::{coupled_pairs, Coupling};

    fn test_config() -> InferenceConfig {
        InferenceConfig {
            permutations: 8,
            threads: Some(1),
            tile_size: Some(4),
            mi_threshold: Some(0.25),
            ..InferenceConfig::default()
        }
    }

    #[test]
    fn config_round_trips_bit_exactly() {
        for config in [
            InferenceConfig::default(),
            test_config(),
            InferenceConfig {
                kernel: MiKernel::ScalarSparse,
                alpha: 0.003_141_592_653_589_793,
                mi_threshold: Some(f64::MIN_POSITIVE),
                tile_size: None,
                threads: None,
                ..InferenceConfig::default()
            },
        ] {
            let mut wire = encode_config(&config);
            let back = decode_config(&mut wire).expect("encoded config decodes");
            assert_eq!(back.bins, config.bins);
            assert_eq!(back.spline_order, config.spline_order);
            assert_eq!(back.permutations, config.permutations);
            assert_eq!(back.alpha.to_bits(), config.alpha.to_bits());
            assert_eq!(
                back.mi_threshold.map(f64::to_bits),
                config.mi_threshold.map(f64::to_bits)
            );
            assert_eq!(back.seed, config.seed);
            assert_eq!(back.kernel, config.kernel);
            assert_eq!(back.tile_size, config.tile_size);
            assert_eq!(back.threads, config.threads);
            assert_eq!(back.null_strategy, config.null_strategy);
            assert_eq!(back.null_sample_pairs, config.null_sample_pairs);
        }
    }

    #[test]
    fn stats_round_trip() {
        let stats = RankStats {
            rank: 3,
            pairs: 12_345,
            block_pairs: 7,
            messages: 42,
            bytes_sent: 98_765,
            busy: Duration::from_micros(1_234_567),
            crashed: true,
            reassigned_block_pairs: 2,
            clock_offset_us: -987,
        };
        let back = decode_stats(encode_stats(&stats)).expect("encoded stats decode");
        assert_eq!(back, stats);
    }

    #[test]
    fn welcome_round_trips_the_whole_bootstrap() {
        let (matrix, _) = coupled_pairs(4, 40, Coupling::Linear(0.8), 5);
        let peers: Vec<SocketAddr> = vec![
            "127.0.0.1:5001".parse().expect("literal addr"),
            "127.0.0.1:5002".parse().expect("literal addr"),
            "10.0.0.7:6000".parse().expect("literal addr"),
        ];
        let snapshot = gnet_expr::io::to_snapshot(&matrix);
        let plan = "seed=7;crash(rank=2,round=1);cut(from=3,to=0,nth=1)";
        let wire = encode_welcome(
            2,
            4,
            Duration::from_millis(750),
            250_000,
            true,
            "/tmp/traces",
            plan,
            &test_config(),
            &peers,
            &snapshot,
        );
        let w = decode_welcome(wire).expect("encoded WELCOME decodes");
        assert_eq!((w.rank, w.size), (2, 4));
        assert_eq!(w.peer_timeout, Duration::from_millis(750));
        assert_eq!(w.telem_interval_us, 250_000);
        assert!(w.traced);
        assert_eq!(w.trace_dir, "/tmp/traces");
        assert_eq!(w.plan, plan);
        assert_eq!(w.peers, peers);
        assert_eq!(w.config.permutations, 8);
        assert_eq!(w.matrix.genes(), matrix.genes());
        assert_eq!(w.matrix.samples(), matrix.samples());
        assert_eq!(w.matrix.as_flat(), matrix.as_flat());
        assert_eq!(w.matrix.gene_names(), matrix.gene_names());
    }

    #[test]
    fn older_bootstrap_versions_are_rejected_with_a_typed_error() {
        let (matrix, _) = coupled_pairs(2, 20, Coupling::Linear(0.8), 5);
        let wire = encode_welcome(
            1,
            2,
            Duration::from_millis(750),
            0,
            false,
            "",
            "",
            &test_config(),
            &[],
            &gnet_expr::io::to_snapshot(&matrix),
        );
        for old in [1u8, 2, 3] {
            let mut bytes = wire.to_vec();
            bytes[4] = old; // the version byte follows the u32 magic
            let err = decode_welcome(Bytes::from(bytes)).err();
            assert!(
                matches!(&err, Some(ClusterError::Transport { message })
                    if message.contains("unsupported bootstrap version")),
                "v{old}: {err:?}"
            );
        }
    }

    #[test]
    fn corrupt_welcome_is_rejected_not_panicked() {
        for bad in [
            Bytes::new(),
            Bytes::from_static(b"too short"),
            Bytes::from(vec![0u8; 64]),
        ] {
            assert!(decode_welcome(bad).is_err(), "corrupt WELCOME must error");
        }
        // Well-formed frames whose contents the ring cannot run: a config
        // `validate()` would panic on, more ranks than genes, and one
        // sample to permute.
        let (matrix, _) = coupled_pairs(2, 20, Coupling::Linear(0.8), 5);
        let (one_sample, _) = coupled_pairs(2, 1, Coupling::Linear(0.8), 5);
        let peers: Vec<SocketAddr> = (0..4)
            .map(|i| SocketAddr::from((Ipv4Addr::LOCALHOST, 5001 + i)))
            .collect();
        let one_bin = InferenceConfig {
            bins: 1,
            ..test_config()
        };
        for (what, size, config, matrix) in [
            ("bins = 1", 2, one_bin, &matrix),
            ("5 ranks over 4 genes", 5, test_config(), &matrix),
            ("1 sample", 2, test_config(), &one_sample),
        ] {
            let snapshot = gnet_expr::io::to_snapshot(matrix);
            let wire = encode_welcome(
                1,
                size,
                Duration::from_millis(750),
                0,
                false,
                "",
                "",
                &config,
                &peers[..size - 1],
                &snapshot,
            );
            let err = decode_welcome(wire).err();
            assert!(
                matches!(&err, Some(ClusterError::Transport { .. })),
                "{what}: {err:?}"
            );
        }
        // A ring size and peer count that agree but that the frame
        // cannot hold: refused before the peer table is allocated.
        let config_len = encode_config(&test_config()).len();
        let mut wire = encode_welcome(
            1,
            2,
            Duration::from_millis(750),
            0,
            false,
            "",
            "",
            &test_config(),
            &peers[..1],
            &gnet_expr::io::to_snapshot(&matrix),
        )
        .to_vec();
        // magic, version, rank, then the size; the peer count follows
        // the fixed header, two empty strings and the config blob.
        wire[9..13].copy_from_slice(&u32::MAX.to_le_bytes());
        let peer_count_at = 30 + 4 + 4 + 4 + config_len;
        wire[peer_count_at..peer_count_at + 4].copy_from_slice(&(u32::MAX - 1).to_le_bytes());
        let err = decode_welcome(Bytes::from(wire)).err();
        assert!(
            matches!(&err, Some(ClusterError::Transport { message }) if message.contains("overruns")),
            "{err:?}"
        );
    }

    /// Full in-machine multi-process bootstrap, minus the process
    /// boundary: the coordinator serves on one thread while worker
    /// entry points run on others, all over real loopback sockets. The
    /// second run streams heartbeats into a plane, whose finished view
    /// must count every pair: the coordinator folds the workers' final
    /// beats, which may land after its own last tick.
    #[test]
    fn coordinator_and_workers_bootstrap_over_loopback() {
        let (matrix, _) = coupled_pairs(8, 60, Coupling::Linear(0.9), 11);
        let config = test_config();
        let reference = infer_network_distributed(&matrix, &config, &RankRun::new(3))
            .expect("fault-free channel run completes");
        let pairs = 16 * 15 / 2;
        for live in [false, true] {
            let spec = TelemetrySpec::with_interval(Duration::from_millis(25));
            let mut plane =
                live.then(|| TelemetryPlane::start(&spec, 3, pairs).expect("plane starts"));
            let listener =
                TcpListener::bind((Ipv4Addr::LOCALHOST, 0)).expect("loopback bind succeeds");
            let addr = listener.local_addr().expect("bound listener has an addr");
            let run = RankRun {
                wire: Wire::Processes(&listener),
                plane: plane.as_ref(),
                ..RankRun::new(3)
            };
            let result = std::thread::scope(|s| {
                let workers: Vec<_> = (0..2)
                    .map(|_| s.spawn(move || run_worker(addr, None)))
                    .collect();
                let served = infer_network_distributed(&matrix, &config, &run)
                    .expect("coordinator run succeeds");
                for w in workers {
                    let report = w
                        .join()
                        .expect("worker thread completes")
                        .expect("worker run succeeds");
                    assert_eq!(report.ranks, 3);
                    assert!(!report.crashed);
                }
                served
            });
            assert_eq!(result.crashed_ranks, Vec::<usize>::new());
            assert_eq!(result.threshold.to_bits(), reference.threshold.to_bits());
            assert_eq!(
                result.network.edges().len(),
                reference.network.edges().len()
            );
            for (x, y) in result.network.edges().iter().zip(reference.network.edges()) {
                assert_eq!((x.a, x.b), (y.a, y.b));
                assert_eq!(x.weight.to_bits(), y.weight.to_bits());
            }
            assert!(result.rank_stats.iter().all(|s| !s.crashed));
            assert!(result.rank_stats[1].pairs > 0, "worker stats were reported");
            if let Some(plane) = plane.as_mut() {
                plane.finish().expect("no status file to fail on");
                let view = plane.view();
                let v = view.lock().expect("view lock is not poisoned");
                assert_eq!(v.pairs_done(), pairs, "the finished view counts every pair");
            }
        }
    }
}
