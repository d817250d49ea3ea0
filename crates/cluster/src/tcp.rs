//! Real TCP transport for the cluster ring.
//!
//! Frames are opaque payloads (the protocol frames of
//! [`crate::distributed`], tag + round header included) carried as
//! `u32 LE length ‖ bytes` over one socket per unordered rank pair.
//! Pair sockets are bidirectional: the higher rank dials the lower one
//! and identifies itself with a preamble, so a `P`-rank mesh is
//! `P(P−1)/2` connections established without dial/accept races.
//!
//! ## Robustness by construction
//!
//! * **Bounded dials.** [`dial`] retries with exponential backoff plus
//!   deterministic jitter ([`RetryPolicy`]), consulting the fault
//!   injector's `refuse(...)` clauses per attempt so connect storms are
//!   replayable from a plan string.
//! * **Deadlines.** Receives never block the protocol thread: a reader
//!   thread per peer turns the byte stream back into whole frames and
//!   hands them to a channel, so [`TcpTransport::recv_timeout`] has
//!   exactly the semantics the census/heal/redistribute logic was
//!   model-checked under — `Timeout` for a silent peer, `Disconnected`
//!   once the peer is gone *and* its delivered frames are drained.
//! * **Partial I/O.** Writers use `write_all`, readers `read_exact`; a
//!   torn frame (peer died mid-write) surfaces as `Disconnected`, never
//!   as a corrupt payload.
//! * **Graceful shutdown.** [`TcpTransport::shutdown`] (also run on
//!   drop) joins every writer thread after it drains its queue, then
//!   sends FIN on the write half — queued frames always reach the wire,
//!   the transport-level analogue of the channel fabric's
//!   buffered-messages-outlive-their-sender guarantee. A *crashed* rank
//!   runs the same path, so its last frames still land, exactly like a
//!   dropped channel endpoint.
//! * **Wire faults.** Each writer consults
//!   [`FaultInjector::on_frame`] per frame: `stall(...)` splits the
//!   write around a sleep, `trunc(...)`/`cut(...)` write a partial
//!   frame and sever the socket — the peer sees a clean rank death and
//!   the PR-6 recovery protocol takes over.
//!
//! Traffic is accounted twice: [`crate::comm::CommStats`]-compatible
//! message/byte counters feed [`crate::transport::Transport`] (parity
//! with the channel fabric — counted per `send`, before drop faults),
//! and [`TcpCounters`] tracks the wire-level story (connects, retries,
//! frames, frame bytes, deadline expiries, peer disconnects) for the
//! `tcp.*` trace vocabulary.

use crate::comm::{CommStats, RecvTimeoutError};
use crate::transport::Transport;
use bytes::Bytes;
use crossbeam::channel::{unbounded, Receiver, Sender};
use gnet_fault::{FaultInjector, MessageAction, SplitMix64, WireAction};
use gnet_trace::Recorder;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Upper bound on a single frame (sanity check against a corrupt or
/// hostile length prefix). Far above any real block frame: a 256 MiB
/// frame would mean millions of genes per block.
const MAX_FRAME: usize = 256 * 1024 * 1024;

/// Dial preamble magic (`"GNET"` LE) sent before the dialer's rank.
const DIAL_MAGIC: u32 = 0x474E_4554;

/// Bound on one TCP connect attempt (the retry loop, not this constant,
/// owns the overall deadline).
const CONNECT_ATTEMPT_TIMEOUT: Duration = Duration::from_secs(2);

/// Bound on reading the 8-byte dial preamble from a fresh connection.
const PREAMBLE_TIMEOUT: Duration = Duration::from_secs(10);

/// Wire-level counters of one TCP endpoint, published to traces as the
/// `tcp.*` vocabulary via [`TcpCounters::publish`].
#[derive(Debug, Default)]
pub struct TcpCounters {
    /// Successful outbound connections.
    pub connects: AtomicU64,
    /// Failed dial attempts that were retried (refused or timed out).
    pub connect_retries: AtomicU64,
    /// Whole frames written to the wire (drop-faulted sends excluded).
    pub frames_sent: AtomicU64,
    /// Whole frames read off the wire.
    pub frames_recv: AtomicU64,
    /// Payload bytes written to the wire.
    pub frame_bytes_sent: AtomicU64,
    /// Payload bytes read off the wire.
    pub frame_bytes_recv: AtomicU64,
    /// `recv_timeout` calls that expired before a frame arrived.
    pub deadline_expiries: AtomicU64,
    /// `recv_timeout` calls that found the peer dead and drained.
    pub peer_disconnects: AtomicU64,
    /// Frames currently enqueued per peer writer but not yet written to
    /// the wire (empty unless built with [`TcpCounters::for_peers`]).
    pub send_queue: Vec<AtomicU64>,
    /// High-water mark of any single peer's send queue.
    pub send_queue_peak: AtomicU64,
}

impl TcpCounters {
    /// Counters with one live send-queue gauge per peer. The `Default`
    /// construction keeps the per-peer vector empty (depth tracking off)
    /// so existing bare-counter call sites are unaffected.
    #[must_use]
    pub fn for_peers(size: usize) -> Self {
        Self {
            send_queue: (0..size).map(|_| AtomicU64::new(0)).collect(),
            ..Self::default()
        }
    }

    /// One frame entered `peer`'s writer queue.
    pub(crate) fn queue_inc(&self, peer: usize) {
        if let Some(depth) = self.send_queue.get(peer) {
            // ordering: advisory gauge; the writer channel itself carries
            // the frame, nothing synchronizes through the depth.
            let now = depth.fetch_add(1, Ordering::Relaxed).saturating_add(1);
            // ordering: monotone max of an advisory gauge.
            self.send_queue_peak.fetch_max(now, Ordering::Relaxed);
        }
    }

    /// One frame left `peer`'s writer queue (written, faulted, or
    /// discarded at a dead peer — it is no longer queued either way).
    pub(crate) fn queue_dec(&self, peer: usize) {
        if let Some(depth) = self.send_queue.get(peer) {
            // ordering: advisory gauge, paired with queue_inc.
            depth.fetch_sub(1, Ordering::Relaxed);
        }
    }

    /// Frames currently queued across all peer writers.
    #[must_use]
    pub fn send_queue_depth(&self) -> u64 {
        self.send_queue
            .iter()
            // ordering: advisory gauge read for heartbeats.
            .map(|d| d.load(Ordering::Relaxed))
            .fold(0, u64::saturating_add)
    }
    /// Publish the counters into `rec` under the `tcp.*` names, so a
    /// rank's trace stream attributes its network behavior (`gnet
    /// trace-report` renders whatever counters the stream carries).
    pub fn publish(&self, rec: &Recorder) {
        // ordering: telemetry reads after the rank's protocol loop has
        // returned; the thread join already synchronized the values.
        let pairs = [
            ("tcp.connects", &self.connects),
            ("tcp.connect_retries", &self.connect_retries),
            ("tcp.frames_sent", &self.frames_sent),
            ("tcp.frames_recv", &self.frames_recv),
            ("tcp.frame_bytes_sent", &self.frame_bytes_sent),
            ("tcp.frame_bytes_recv", &self.frame_bytes_recv),
            ("tcp.deadline_expiries", &self.deadline_expiries),
            ("tcp.peer_disconnects", &self.peer_disconnects),
            ("tcp.send_queue_peak", &self.send_queue_peak),
        ];
        for (name, counter) in pairs {
            // ordering: telemetry read after the protocol loop returned;
            // the writer-thread joins already synchronized the values.
            rec.counter_add(name, counter.load(Ordering::Relaxed));
        }
    }
}

/// Bounded-retry policy for [`dial`]: exponential backoff from `base`
/// capped at `max`, with deterministic jitter drawn from `seed` so two
/// runs of the same plan dial on the same schedule.
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// Maximum dial attempts before giving up.
    pub attempts: u32,
    /// Backoff before the second attempt; doubles per retry.
    pub base: Duration,
    /// Backoff ceiling.
    pub max: Duration,
    /// Jitter seed (mixed with the rank pair, so edges desynchronize).
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        // ~30 attempts × ≤500 ms ≈ a 12 s window: generous for a worker
        // that dials before its coordinator finished binding, small
        // against any real job length.
        Self {
            attempts: 30,
            base: Duration::from_millis(10),
            max: Duration::from_millis(500),
            seed: 0x6774_6E65_7463_7074, // arbitrary fixed default
        }
    }
}

impl RetryPolicy {
    /// Backoff before attempt `attempt` (1-based; attempt 0 never
    /// waits): `min(max, base · 2^(attempt−1))`, then jittered into
    /// `[half, full)` so simultaneous dialers spread out.
    pub(crate) fn backoff(&self, attempt: u32, rng: &mut SplitMix64) -> Duration {
        let exp = self.base.saturating_mul(1u32 << (attempt - 1).min(16));
        let full = exp.min(self.max).max(Duration::from_micros(1));
        let half = full / 2;
        let span = (full - half).as_micros().max(1) as u64;
        half + Duration::from_micros(rng.below(span))
    }
}

/// Write one length-prefixed frame.
fn write_frame(stream: &mut TcpStream, payload: &[u8]) -> std::io::Result<()> {
    stream.write_all(&(payload.len() as u32).to_le_bytes())?;
    stream.write_all(payload)
}

/// Dial `addr` as rank `from` targeting rank `to`, with bounded retries
/// and backoff per `policy`. Consults `faults` before every attempt so
/// `refuse(from=..,to=..,attempts=..)` clauses replay as injected
/// `ConnectionRefused` without touching the network. On success the
/// preamble (`DIAL_MAGIC ‖ from`) is already written.
///
/// # Errors
/// The last attempt's I/O error once `policy.attempts` is exhausted.
pub fn dial(
    addr: SocketAddr,
    from: usize,
    to: usize,
    policy: &RetryPolicy,
    faults: &FaultInjector,
    counters: &TcpCounters,
) -> std::io::Result<TcpStream> {
    let mut rng = SplitMix64::new(
        policy
            .seed
            .wrapping_add((from as u64) << 32)
            .wrapping_add(to as u64),
    );
    let mut last_err =
        std::io::Error::new(std::io::ErrorKind::TimedOut, "dial attempted zero times");
    for attempt in 0..policy.attempts.max(1) {
        if attempt > 0 {
            // ordering: pure telemetry; nothing synchronizes through it.
            counters.connect_retries.fetch_add(1, Ordering::Relaxed);
            std::thread::sleep(policy.backoff(attempt, &mut rng));
        }
        if faults.connect_refused(from, to) {
            last_err = std::io::Error::new(
                std::io::ErrorKind::ConnectionRefused,
                "injected connection refusal",
            );
            continue;
        }
        match TcpStream::connect_timeout(&addr, CONNECT_ATTEMPT_TIMEOUT) {
            Ok(mut stream) => {
                let mut preamble = [0u8; 8];
                preamble[..4].copy_from_slice(&DIAL_MAGIC.to_le_bytes());
                preamble[4..].copy_from_slice(&(from as u32).to_le_bytes());
                match stream.write_all(&preamble) {
                    Ok(()) => {
                        // ordering: telemetry, as above.
                        counters.connects.fetch_add(1, Ordering::Relaxed);
                        return Ok(stream);
                    }
                    Err(e) => last_err = e,
                }
            }
            Err(e) => last_err = e,
        }
    }
    Err(last_err)
}

/// Accept one mesh connection and read its dial preamble, returning the
/// dialer's self-declared rank. The preamble read is bounded so a stray
/// connection cannot wedge mesh establishment.
///
/// # Errors
/// Accept/read failures, or a connection whose preamble magic is wrong.
pub fn accept_peer(listener: &TcpListener) -> std::io::Result<(usize, TcpStream)> {
    let (mut stream, _) = listener.accept()?;
    stream.set_read_timeout(Some(PREAMBLE_TIMEOUT))?;
    let mut preamble = [0u8; 8];
    stream.read_exact(&mut preamble)?;
    stream.set_read_timeout(None)?;
    let magic = u32::from_le_bytes([preamble[0], preamble[1], preamble[2], preamble[3]]);
    if magic != DIAL_MAGIC {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "dial preamble magic mismatch",
        ));
    }
    let from = u32::from_le_bytes([preamble[4], preamble[5], preamble[6], preamble[7]]) as usize;
    Ok((from, stream))
}

/// Command queue of one peer's writer thread. Frames enqueued before
/// `Shutdown` are always written (or deliberately severed by a wire
/// fault) before the FIN — the drain guarantee.
enum WriterCmd {
    Frame(Bytes),
    Shutdown,
}

/// A rank's endpoint onto a TCP mesh. See the module docs for the
/// threading model and robustness properties.
pub struct TcpTransport {
    rank: usize,
    size: usize,
    faults: FaultInjector,
    stats: CommStats,
    counters: Arc<TcpCounters>,
    /// `writers[to]` feeds rank `to`'s writer thread (`None` at self).
    writers: Vec<Option<Sender<WriterCmd>>>,
    /// `rx[from]` yields whole frames from rank `from` (self included,
    /// wired as an in-process channel).
    rx: Vec<Receiver<Bytes>>,
    /// Loopback sender for self-sends.
    self_tx: Sender<Bytes>,
    /// Telemetry diversion: readers park `TELEM` frames here instead of
    /// the per-peer protocol channels (see
    /// [`Transport::drain_telemetry`]); `telem_tx` also takes telemetry
    /// self-sends.
    telem_tx: Sender<Bytes>,
    telem_rx: Receiver<Bytes>,
    writer_handles: Mutex<Vec<JoinHandle<()>>>,
    closed: AtomicBool,
}

impl TcpTransport {
    /// Build a transport over an established mesh: `streams[peer]` is
    /// the pair socket to `peer` (`None` at `rank`'s own slot). Spawns
    /// one reader and one writer thread per peer; `TCP_NODELAY` is set
    /// so small protocol frames are not Nagle-delayed.
    ///
    /// # Errors
    /// Socket configuration (`set_nodelay`) or clone failures.
    ///
    /// # Panics
    /// Panics if the stream vector's shape disagrees with `rank`/`size`
    /// (a slot missing, or a stream at the self slot).
    pub fn from_streams(
        rank: usize,
        size: usize,
        streams: Vec<Option<TcpStream>>,
        faults: FaultInjector,
        counters: Arc<TcpCounters>,
    ) -> std::io::Result<Self> {
        assert_eq!(streams.len(), size, "one stream slot per rank");
        assert!(rank < size, "rank {rank} out of range");
        let (self_tx, self_rx) = unbounded();
        let (telem_tx, telem_rx) = unbounded();
        let mut self_rx = Some(self_rx);
        let mut writers: Vec<Option<Sender<WriterCmd>>> = Vec::with_capacity(size);
        let mut rx: Vec<Receiver<Bytes>> = Vec::with_capacity(size);
        let mut writer_handles = Vec::with_capacity(size.saturating_sub(1));
        for (peer, slot) in streams.into_iter().enumerate() {
            match slot {
                None => {
                    assert_eq!(peer, rank, "missing stream for peer {peer}");
                    writers.push(None);
                    rx.push(self_rx.take().expect("exactly one self slot"));
                }
                Some(stream) => {
                    assert_ne!(peer, rank, "unexpected stream at the self slot");
                    stream.set_nodelay(true)?;
                    let write_half = stream.try_clone()?;
                    let (frame_tx, frame_rx) = unbounded();
                    let (cmd_tx, cmd_rx) = unbounded();
                    let reader_counters = Arc::clone(&counters);
                    let reader_telem = telem_tx.clone();
                    // Readers are detached: they exit on peer EOF/error
                    // or when this transport (their channel receiver)
                    // is gone. Joining them would deadlock on a peer
                    // that keeps its socket open.
                    std::thread::spawn(move || {
                        reader_loop(stream, &frame_tx, &reader_telem, &reader_counters);
                    });
                    let writer_faults = faults.clone();
                    let writer_counters = Arc::clone(&counters);
                    writer_handles.push(std::thread::spawn(move || {
                        writer_loop(
                            write_half,
                            &cmd_rx,
                            &writer_faults,
                            rank,
                            peer,
                            &writer_counters,
                        );
                    }));
                    writers.push(Some(cmd_tx));
                    rx.push(frame_rx);
                }
            }
        }
        Ok(Self {
            rank,
            size,
            faults,
            stats: CommStats::default(),
            counters,
            writers,
            rx,
            self_tx,
            telem_tx,
            telem_rx,
            writer_handles: Mutex::new(writer_handles),
            closed: AtomicBool::new(false),
        })
    }

    /// Wire-level counters of this endpoint.
    pub fn counters(&self) -> &Arc<TcpCounters> {
        &self.counters
    }

    /// Drain-then-FIN shutdown, idempotent: every writer queue is
    /// flushed to the wire, the writer threads are joined, and the write
    /// halves are closed (FIN). Read halves stay open so late peer
    /// frames never turn into RSTs; reader threads exit on peer EOF.
    pub fn shutdown(&self) {
        // ordering: the swap only elects which caller runs the close
        // path; the writer-thread joins below provide the happens-before
        // edge for everything the writers flushed, so a run-once guard
        // needs no ordering of its own.
        if self.closed.swap(true, Ordering::Relaxed) {
            return;
        }
        for writer in self.writers.iter().flatten() {
            let _ = writer.send(WriterCmd::Shutdown);
        }
        let handles = std::mem::take(
            &mut *self
                .writer_handles
                .lock()
                .expect("writer handle registry poisoned"),
        );
        for handle in handles {
            let _ = handle.join();
        }
    }
}

impl Drop for TcpTransport {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl Transport for TcpTransport {
    fn rank(&self) -> usize {
        self.rank
    }

    fn size(&self) -> usize {
        self.size
    }

    fn send(&self, to: usize, payload: Bytes) {
        assert!(to < self.size, "rank {to} out of range");
        let telem = crate::live::is_telem(&payload);
        if !telem {
            // ordering: pure counters, kept in exact parity with the
            // channel fabric — counted per send() call, before any drop
            // fault.
            self.stats.messages.fetch_add(1, Ordering::Relaxed);
            let n = payload.len() as u64;
            // ordering: same telemetry argument as the message counter.
            self.stats.bytes.fetch_add(n, Ordering::Relaxed);
            // Telemetry skips the message-level injector so fault-plan
            // `nth` indices are identical with telemetry on or off.
            // (Wire-level `on_frame` faults in the writer DO still apply
            // to telemetry frames: heartbeats must survive — or visibly
            // degrade under — the same wire chaos as protocol frames.)
            match self.faults.on_message(self.rank, to) {
                MessageAction::Drop => return,
                MessageAction::Delay(pause) => std::thread::sleep(pause),
                MessageAction::Deliver => {}
            }
        }
        if to == self.rank {
            if telem {
                let _ = self.telem_tx.send(payload);
            } else {
                let _ = self.self_tx.send(payload);
            }
            return;
        }
        if let Some(writer) = &self.writers[to] {
            // A closed writer (post-shutdown) swallows the frame — the
            // datagram-to-a-dead-host semantics of the channel fabric.
            self.counters.queue_inc(to);
            if writer.send(WriterCmd::Frame(payload)).is_err() {
                self.counters.queue_dec(to);
            }
        }
    }

    fn recv_timeout(&self, from: usize, timeout: Duration) -> Result<Bytes, RecvTimeoutError> {
        assert!(from < self.size, "rank {from} out of range");
        let result = self.rx[from].recv_timeout(timeout);
        match &result {
            Err(RecvTimeoutError::Timeout) => {
                // ordering: telemetry counter on the error path.
                self.counters
                    .deadline_expiries
                    .fetch_add(1, Ordering::Relaxed); // ordering: telemetry
            }
            Err(RecvTimeoutError::Disconnected) => {
                // ordering: telemetry counter on the error path.
                self.counters
                    .peer_disconnects
                    .fetch_add(1, Ordering::Relaxed); // ordering: telemetry
            }
            Ok(_) => {}
        }
        result
    }

    fn faults(&self) -> &FaultInjector {
        &self.faults
    }

    fn messages_sent(&self) -> u64 {
        self.stats.messages()
    }

    fn bytes_sent(&self) -> u64 {
        self.stats.bytes()
    }

    fn drain_telemetry(&self) -> Vec<Bytes> {
        let mut out = Vec::new();
        while let Ok(beat) = self.telem_rx.try_recv() {
            out.push(beat);
        }
        out
    }

    fn send_queue_depth(&self) -> u64 {
        self.counters.send_queue_depth()
    }
}

/// Reassemble whole frames off the byte stream and hand them to the
/// consumer channel — except `TELEM` frames, which are diverted to the
/// shared telemetry channel so the protocol receive stream is identical
/// with telemetry on or off. Exits (dropping the sender, which surfaces
/// as `Disconnected` once drained) on EOF, I/O error, an insane length
/// prefix, or a transport that has gone away.
fn reader_loop(
    mut stream: TcpStream,
    frames: &Sender<Bytes>,
    telem: &Sender<Bytes>,
    counters: &TcpCounters,
) {
    let mut len_buf = [0u8; 4];
    loop {
        if stream.read_exact(&mut len_buf).is_err() {
            return;
        }
        let len = u32::from_le_bytes(len_buf) as usize;
        if len > MAX_FRAME {
            return;
        }
        let mut payload = vec![0u8; len];
        if stream.read_exact(&mut payload).is_err() {
            // Torn frame: the peer died mid-write (or a trunc/cut fault
            // fired). Whole frames already delivered stay delivered.
            return;
        }
        // ordering: telemetry counters; the channel send publishes data.
        counters.frames_recv.fetch_add(1, Ordering::Relaxed);
        counters
            .frame_bytes_recv
            .fetch_add(len as u64, Ordering::Relaxed); // ordering: telemetry
        let payload = Bytes::from(payload);
        let deliver = if crate::live::is_telem(&payload) {
            telem.send(payload)
        } else {
            frames.send(payload)
        };
        if deliver.is_err() {
            return;
        }
    }
}

/// Drain the command queue onto the wire, applying wire faults, until
/// `Shutdown` (or the transport is gone), then FIN the write half. Write
/// errors mark the peer dead and later frames are discarded silently —
/// sends must never error back into the protocol thread.
fn writer_loop(
    mut stream: TcpStream,
    cmds: &Receiver<WriterCmd>,
    faults: &FaultInjector,
    from: usize,
    to: usize,
    counters: &TcpCounters,
) {
    let mut peer_dead = false;
    while let Ok(cmd) = cmds.recv() {
        let payload = match cmd {
            WriterCmd::Frame(payload) => payload,
            WriterCmd::Shutdown => break,
        };
        // Dequeued — written, faulted, or discarded below, the frame is
        // no longer waiting.
        counters.queue_dec(to);
        if peer_dead {
            continue;
        }
        match faults.on_frame(from, to, payload.len()) {
            WireAction::Deliver => {
                if write_frame(&mut stream, &payload).is_ok() {
                    // ordering: telemetry; the socket write is the event.
                    counters.frames_sent.fetch_add(1, Ordering::Relaxed);
                    counters
                        .frame_bytes_sent
                        .fetch_add(payload.len() as u64, Ordering::Relaxed); // ordering: telemetry
                } else {
                    peer_dead = true;
                }
            }
            WireAction::Stall(pause) => {
                // Split the frame around a sleep: the receiver sees the
                // length prefix and then silence, so its deadline — not
                // this thread — decides whether the round heals.
                let cut = payload.len() / 2;
                let stalled = stream
                    .write_all(&(payload.len() as u32).to_le_bytes())
                    .and_then(|()| stream.write_all(&payload[..cut]))
                    .and_then(|()| stream.flush());
                std::thread::sleep(pause);
                if stalled
                    .and_then(|()| stream.write_all(&payload[cut..]))
                    .is_ok()
                {
                    // ordering: telemetry, as on the Deliver arm.
                    counters.frames_sent.fetch_add(1, Ordering::Relaxed);
                    counters
                        .frame_bytes_sent
                        .fetch_add(payload.len() as u64, Ordering::Relaxed); // ordering: telemetry
                } else {
                    peer_dead = true;
                }
            }
            WireAction::Truncate(keep) => {
                // Advertise the full length, deliver `keep` bytes, then
                // sever the whole connection: the peer's reader sees a
                // torn frame and reports a dead rank, and this side
                // stops hearing the peer too (a cut is symmetric).
                let _ = stream
                    .write_all(&(payload.len() as u32).to_le_bytes())
                    .and_then(|()| stream.write_all(&payload[..keep.min(payload.len())]))
                    .and_then(|()| stream.flush());
                let _ = stream.shutdown(Shutdown::Both);
                peer_dead = true;
            }
        }
    }
    let _ = stream.flush();
    // FIN the write half only: the peer reads EOF after our drained
    // frames, while anything it still sends is consumed, not RST.
    let _ = stream.shutdown(Shutdown::Write);
}

/// Run `body` on `size` ranks over a loopback TCP mesh (scoped threads,
/// one real socket per rank pair) — the TCP twin of
/// [`crate::comm::run_ranks_on`]. Listeners are bound first, so dials
/// land in a backlog at worst; each rank dials every lower rank and
/// accepts from every higher one. Panics in any rank propagate.
///
/// # Errors
/// Listener bind failures (before any rank thread starts).
///
/// # Panics
/// Panics if `size == 0`, or if mesh establishment fails inside a rank
/// thread (dial retries exhausted / preamble violation) — harness
/// semantics, like a rank panic under [`crate::comm::run_ranks_on`].
pub fn run_ranks_tcp<T, F>(size: usize, faults: &FaultInjector, body: F) -> std::io::Result<Vec<T>>
where
    T: Send,
    F: Fn(TcpTransport) -> T + Sync,
{
    assert!(size >= 1, "need at least one rank");
    let mut listeners = Vec::with_capacity(size);
    let mut addrs = Vec::with_capacity(size);
    for _ in 0..size {
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        addrs.push(listener.local_addr()?);
        listeners.push(listener);
    }
    let addrs = &addrs;
    let policy = RetryPolicy::default();
    let outputs = crossbeam::thread::scope(|scope| {
        let handles: Vec<_> = listeners
            .into_iter()
            .enumerate()
            .map(|(rank, listener)| {
                let body = &body;
                let policy = &policy;
                scope.spawn(move |_| {
                    let counters = Arc::new(TcpCounters::for_peers(size));
                    let mut streams: Vec<Option<TcpStream>> = (0..size).map(|_| None).collect();
                    for to in 0..rank {
                        let stream = dial(addrs[to], rank, to, policy, faults, &counters)
                            .expect("mesh dial failed");
                        streams[to] = Some(stream);
                    }
                    for _ in rank + 1..size {
                        let (from, stream) = accept_peer(&listener).expect("mesh accept failed");
                        assert!(
                            from > rank && from < size && streams[from].is_none(),
                            "mesh preamble announced an impossible rank {from}"
                        );
                        streams[from] = Some(stream);
                    }
                    drop(listener);
                    let transport =
                        TcpTransport::from_streams(rank, size, streams, faults.clone(), counters)
                            .expect("transport construction failed");
                    body(transport)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("rank panicked"))
            .collect()
    })
    .expect("cluster scope failed");
    Ok(outputs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnet_fault::FaultPlan;

    fn injector(plan: &str) -> FaultInjector {
        FaultInjector::from_plan(&FaultPlan::parse(plan).expect("literal plan parses"))
    }

    #[test]
    fn frames_are_ordered_addressed_and_accounted() {
        let sent = run_ranks_tcp(3, &FaultInjector::none(), |tp| {
            for to in 0..tp.size() {
                if to != tp.rank() {
                    tp.send(to, Bytes::from(vec![tp.rank() as u8, 1]));
                    tp.send(to, Bytes::from(vec![tp.rank() as u8, 2]));
                }
            }
            for from in 0..tp.size() {
                if from != tp.rank() {
                    let a = tp
                        .recv_timeout(from, Duration::from_secs(10))
                        .expect("first frame arrives");
                    let b = tp
                        .recv_timeout(from, Duration::from_secs(10))
                        .expect("second frame arrives");
                    assert_eq!(a[0] as usize, from, "frame mis-addressed");
                    assert_eq!((a[1], b[1]), (1, 2), "per-edge ordering violated");
                }
            }
            (tp.messages_sent(), tp.bytes_sent())
        })
        .expect("loopback mesh binds");
        assert_eq!(sent, vec![(4, 8), (4, 8), (4, 8)]);
    }

    #[test]
    fn self_send_loops_back() {
        let out = run_ranks_tcp(1, &FaultInjector::none(), |tp| {
            tp.send(0, Bytes::from_static(b"me"));
            tp.recv_timeout(0, Duration::from_secs(5))
                .expect("self frame loops back")
        })
        .expect("loopback mesh binds");
        assert_eq!(&out[0][..], b"me");
    }

    #[test]
    fn shutdown_drains_queued_frames_before_fin() {
        // Rank 0 enqueues a frame and drops its transport immediately;
        // the drain-then-FIN guarantee means rank 1 still receives the
        // frame, then sees Disconnected.
        let out = run_ranks_tcp(2, &FaultInjector::none(), |tp| {
            if tp.rank() == 0 {
                tp.send(1, Bytes::from(vec![7u8; 100_000]));
                return true; // transport drops here
            }
            let frame = tp
                .recv_timeout(0, Duration::from_secs(10))
                .expect("queued frame survives the sender's shutdown");
            assert_eq!(frame.len(), 100_000);
            let err = tp
                .recv_timeout(0, Duration::from_secs(10))
                .expect_err("after the drain the peer is gone");
            assert_eq!(err, RecvTimeoutError::Disconnected);
            false
        })
        .expect("loopback mesh binds");
        assert_eq!(out, vec![true, false]);
    }

    #[test]
    fn silent_peer_times_out_and_counts_the_expiry() {
        run_ranks_tcp(2, &FaultInjector::none(), |tp| {
            if tp.rank() == 0 {
                let err = tp
                    .recv_timeout(1, Duration::from_millis(30))
                    .expect_err("silence must time out");
                assert_eq!(err, RecvTimeoutError::Timeout);
                assert_eq!(tp.counters().deadline_expiries.load(Ordering::Relaxed), 1);
                // Unblock rank 1's drop-side symmetry by saying goodbye.
                tp.send(1, Bytes::new());
            } else {
                let _ = tp.recv_timeout(0, Duration::from_secs(10));
            }
        })
        .expect("loopback mesh binds");
    }

    #[test]
    fn injected_refusals_are_retried_and_counted() {
        let faults = injector("seed=3;refuse(from=1,to=0,attempts=2)");
        let out = run_ranks_tcp(2, &faults, |tp| {
            if tp.rank() == 1 {
                tp.send(0, Bytes::from_static(b"made it"));
                tp.counters().connect_retries.load(Ordering::Relaxed)
            } else {
                let frame = tp
                    .recv_timeout(1, Duration::from_secs(10))
                    .expect("dial eventually succeeds");
                assert_eq!(&frame[..], b"made it");
                0
            }
        })
        .expect("loopback mesh binds");
        assert!(
            out[1] >= 2,
            "two refused attempts must surface as retries, saw {}",
            out[1]
        );
        assert_eq!(faults.faults_fired(), 2);
    }

    #[test]
    fn truncated_frame_severs_the_connection_cleanly() {
        let faults = injector("seed=3;trunc(from=0,to=1,nth=1,bytes=3)");
        run_ranks_tcp(2, &faults, |tp| {
            if tp.rank() == 0 {
                tp.send(1, Bytes::from_static(b"frame zero"));
                tp.send(1, Bytes::from_static(b"frame one (truncated)"));
                tp.send(1, Bytes::from_static(b"frame two (never sent)"));
            } else {
                let first = tp
                    .recv_timeout(0, Duration::from_secs(10))
                    .expect("frame before the fault is whole");
                assert_eq!(&first[..], b"frame zero");
                let err = tp
                    .recv_timeout(0, Duration::from_secs(10))
                    .expect_err("torn frame must read as peer death");
                assert_eq!(err, RecvTimeoutError::Disconnected);
                assert_eq!(tp.counters().peer_disconnects.load(Ordering::Relaxed), 1);
            }
        })
        .expect("loopback mesh binds");
        assert_eq!(faults.faults_fired(), 1);
    }

    #[test]
    fn stalled_frame_arrives_whole_after_the_stall() {
        let faults = injector("seed=3;stall(from=0,to=1,nth=0,us=50000)");
        run_ranks_tcp(2, &faults, |tp| {
            if tp.rank() == 0 {
                tp.send(1, Bytes::from(vec![9u8; 4096]));
            } else {
                // Short deadline first: the stall makes it expire.
                let err = tp
                    .recv_timeout(0, Duration::from_millis(5))
                    .expect_err("stall holds the frame past the deadline");
                assert_eq!(err, RecvTimeoutError::Timeout);
                // Patient deadline: the frame arrives intact.
                let frame = tp
                    .recv_timeout(0, Duration::from_secs(10))
                    .expect("stalled frame still arrives whole");
                assert_eq!(frame.len(), 4096);
            }
        })
        .expect("loopback mesh binds");
        assert_eq!(faults.faults_fired(), 1);
    }

    #[test]
    fn dial_gives_up_after_bounded_attempts() {
        let counters = TcpCounters::default();
        let policy = RetryPolicy {
            attempts: 3,
            base: Duration::from_millis(1),
            max: Duration::from_millis(2),
            ..RetryPolicy::default()
        };
        let faults = injector("seed=3;refuse(from=1,to=0,attempts=1000)");
        let err = dial(
            "127.0.0.1:9".parse().expect("literal addr parses"),
            1,
            0,
            &policy,
            &faults,
            &counters,
        )
        .expect_err("every attempt is refused");
        assert_eq!(err.kind(), std::io::ErrorKind::ConnectionRefused);
        assert_eq!(counters.connect_retries.load(Ordering::Relaxed), 2);
        assert_eq!(counters.connects.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn counters_publish_the_tcp_vocabulary() {
        let counters = TcpCounters::default();
        counters.frames_sent.store(4, Ordering::Relaxed);
        counters.frame_bytes_recv.store(123, Ordering::Relaxed);
        let rec = Recorder::enabled();
        counters.publish(&rec);
        let mut out = Vec::new();
        rec.write_ndjson(&mut out).expect("ndjson render");
        let text = String::from_utf8(out).expect("ndjson is utf-8");
        assert!(text.contains("tcp.frames_sent"));
        assert!(text.contains("tcp.frame_bytes_recv"));
        assert!(text.contains("tcp.deadline_expiries"));
    }
}
