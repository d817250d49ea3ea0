//! Live telemetry plane: in-band heartbeats and the rank-0 cluster view.
//!
//! The trace stack (`gnet-trace` → `gnet-obs`) answers questions *after*
//! a run; this module answers them *during* one. Each rank carries a
//! [`gnet_telemetry::MetricsRegistry`] fed by its recorder and, on a
//! cadence, encodes a [`gnet_telemetry::Heartbeat`] — round watermark,
//! pair count, send-queue depth, registry snapshot — into a `TELEM`
//! frame sent to rank 0 over the **existing** transport. Rank 0 folds
//! the beats into a [`gnet_telemetry::ClusterView`] owned by a
//! [`TelemetryPlane`], which exposes it through an atomically-rewritten
//! status file and/or a std-only HTTP listener (`/status`, `/metrics`).
//!
//! ## Telemetry never perturbs results
//!
//! The invariant every design choice here serves: the edge set of a run
//! with telemetry on is **byte-identical** to the same run with it off
//! (pinned by the tests below and the CI smoke job). Concretely:
//!
//! * `TELEM` frames are diverted at the transport layer — they never
//!   enter a protocol receive queue, so the protocol observes the exact
//!   same frame sequence either way.
//! * Sends of `TELEM` frames skip the message-level fault injector and
//!   the fabric message counters, so a fault plan's `nth` message
//!   indices are identical with telemetry on or off. (Wire-level frame
//!   faults on TCP *do* apply — heartbeats must survive, or visibly
//!   degrade under, real wire chaos.)
//! * Beats are fire-and-forget: a lost, torn, reordered, or undecodable
//!   beat is just a missed beat; nothing retries, nothing blocks.
//! * The protocol loop ticks the beat clock between effects and
//!   receives — telemetry adds no waits to the protocol's own schedule.

use crate::distributed::{frame, parse_frame, FRAME_HEADER};
use crate::transport::Transport;
use gnet_telemetry::{
    render_prometheus, render_status_json, write_status_file_atomic, ClusterView, Heartbeat,
    MetricsRegistry, StatusDocs, StatusServer,
};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Frame tag of an in-band telemetry heartbeat (see
/// [`crate::distributed`] for tags 1–7). `TELEM` frames share the wire
/// with protocol traffic but are out-of-band end to end: diverted on
/// receive, uncounted and unfaulted (message level) on send.
pub(crate) const TAG_TELEM: u8 = 8;

/// Is this fully-framed payload (`tag ‖ round ‖ body`) a telemetry
/// frame? Transports call this on the *encoded* frame at send and
/// receive boundaries.
pub(crate) fn is_telem(payload: &[u8]) -> bool {
    payload.len() >= FRAME_HEADER && payload[0] == TAG_TELEM
}

/// Poison-tolerant lock: the view holds plain data, so a panicked
/// scraper thread leaves it merely stale, never structurally invalid.
fn lock_view(view: &Mutex<ClusterView>) -> MutexGuard<'_, ClusterView> {
    view.lock().unwrap_or_else(PoisonError::into_inner)
}

/// What the caller asked the plane to expose, and how often to beat.
#[derive(Clone, Debug, Default)]
pub struct TelemetrySpec {
    /// Bind address for the HTTP status listener (e.g. `127.0.0.1:0`);
    /// `None` disables it.
    pub status_addr: Option<String>,
    /// Path of the atomically-rewritten `gnet-status/1` JSON file;
    /// `None` disables it.
    pub status_file: Option<PathBuf>,
    /// Heartbeat (and status-file rewrite) cadence. Clamped to ≥ 1 ms.
    pub interval: Duration,
}

impl TelemetrySpec {
    /// A spec with the given cadence and no pull surfaces armed — the
    /// view is still maintained and readable via [`TelemetryPlane::view`].
    #[must_use]
    pub fn with_interval(interval: Duration) -> Self {
        Self {
            interval,
            ..Self::default()
        }
    }
}

/// The live-status side of one running inference, owned by the caller
/// (the CLI, the multi-process coordinator, or a test).
///
/// Holds the rank-0 [`ClusterView`], keeps it fresh from a background
/// keeper thread (so straggler detection advances even while rank 0
/// blocks in a receive), and serves it through the surfaces the
/// [`TelemetrySpec`] asked for. Call [`finish`](Self::finish) after the
/// run to freeze the view, write the final status document, and stop
/// the listener; dropping an unfinished plane cleans up the same way.
pub struct TelemetryPlane {
    view: Arc<Mutex<ClusterView>>,
    interval: Duration,
    status_file: Option<PathBuf>,
    server: Option<StatusServer>,
    stop: Arc<AtomicBool>,
    keeper: Option<JoinHandle<()>>,
}

impl TelemetryPlane {
    /// Start the plane for a `ranks`-rank run over `pairs_total` gene
    /// pairs: bind the HTTP listener (when requested), spawn the keeper
    /// thread, and hand back the handle the `*_live` entry points fold
    /// heartbeats into.
    ///
    /// # Errors
    /// Binding the status listener or spawning the keeper failed. The
    /// run itself has not started; nothing needs unwinding.
    pub fn start(spec: &TelemetrySpec, ranks: usize, pairs_total: u64) -> std::io::Result<Self> {
        let interval = spec.interval.max(Duration::from_millis(1));
        let view = Arc::new(Mutex::new(ClusterView::new(ranks, pairs_total, interval)));
        let server = match &spec.status_addr {
            Some(addr) => {
                let source_view = Arc::clone(&view);
                Some(StatusServer::bind(
                    addr,
                    Arc::new(move || {
                        let now = Instant::now();
                        let mut v = lock_view(&source_view);
                        v.refresh_at(now);
                        StatusDocs {
                            status_json: render_status_json(&v, now),
                            metrics: render_prometheus(&v, now),
                        }
                    }),
                )?)
            }
            None => None,
        };
        let stop = Arc::new(AtomicBool::new(false));
        let keeper = {
            let view = Arc::clone(&view);
            let stop = Arc::clone(&stop);
            let file = spec.status_file.clone();
            std::thread::Builder::new()
                .name("gnet-status-keeper".into())
                .spawn(move || {
                    // ordering: advisory stop flag; the join in finish()
                    // synchronizes everything that matters.
                    while !stop.load(Ordering::Relaxed) {
                        std::thread::sleep(interval);
                        let now = Instant::now();
                        let doc = {
                            let mut v = lock_view(&view);
                            v.refresh_at(now);
                            file.as_ref().map(|_| render_status_json(&v, now))
                        };
                        if let (Some(path), Some(doc)) = (&file, doc) {
                            // A transient filesystem error must never
                            // wedge a run; the next tick retries and the
                            // final write in finish() reports failures.
                            let _ = write_status_file_atomic(path, &doc);
                        }
                    }
                })?
        };
        Ok(Self {
            view,
            interval,
            status_file: spec.status_file.clone(),
            server,
            stop: Arc::clone(&stop),
            keeper: Some(keeper),
        })
    }

    /// The heartbeat cadence the plane was started with.
    #[must_use]
    pub fn interval(&self) -> Duration {
        self.interval
    }

    /// The address the status listener actually bound (ephemeral port
    /// resolved), when one was requested.
    #[must_use]
    pub fn status_addr(&self) -> Option<std::net::SocketAddr> {
        self.server.as_ref().map(StatusServer::addr)
    }

    /// Shared handle to the live cluster view.
    #[must_use]
    pub fn view(&self) -> Arc<Mutex<ClusterView>> {
        Arc::clone(&self.view)
    }

    /// Freeze the view (`state` flips to `done`, straggler flags stop
    /// moving), write the final status document, and stop the keeper
    /// and the listener. Idempotent.
    ///
    /// # Errors
    /// The final status-file write failed (the view is frozen and the
    /// threads are down regardless).
    pub fn finish(&mut self) -> std::io::Result<()> {
        // ordering: advisory stop flag; the join below synchronizes.
        self.stop.store(true, Ordering::Relaxed);
        if let Some(keeper) = self.keeper.take() {
            let _ = keeper.join();
        }
        let now = Instant::now();
        let doc = {
            let mut v = lock_view(&self.view);
            v.refresh_at(now);
            v.finish();
            render_status_json(&v, now)
        };
        if let Some(server) = &mut self.server {
            server.shutdown();
        }
        match &self.status_file {
            Some(path) => write_status_file_atomic(path, &doc),
            None => Ok(()),
        }
    }
}

impl Drop for TelemetryPlane {
    fn drop(&mut self) {
        let _ = self.finish();
    }
}

/// One rank's live-telemetry assignment, handed into the protocol loop
/// by the `*_live` entry points.
pub(crate) struct LiveDuty {
    /// This rank's metrics registry (also installed as the rank
    /// recorder's [`gnet_trace::MetricsSink`]).
    pub(crate) registry: Arc<MetricsRegistry>,
    /// Heartbeat cadence.
    pub(crate) interval: Duration,
    /// Rank 0 only: the plane's view, folded locally instead of sending
    /// beats to itself over the wire.
    pub(crate) view: Option<Arc<Mutex<ClusterView>>>,
}

impl LiveDuty {
    /// Duties for an in-process run: one registry per rank, the plane's
    /// view attached to rank 0.
    pub(crate) fn for_ranks(plane: &TelemetryPlane, ranks: usize) -> Vec<Self> {
        (0..ranks)
            .map(|r| Self {
                registry: Arc::new(MetricsRegistry::new()),
                interval: plane.interval(),
                view: (r == 0).then(|| plane.view()),
            })
            .collect()
    }
}

/// The beat clock one rank ticks from inside its protocol loop. The
/// first tick always beats (so every rank is visible immediately);
/// later beats fire once `interval` has elapsed since the last.
pub(crate) struct BeatState {
    start: Instant,
    next: Instant,
    interval: Duration,
}

impl BeatState {
    pub(crate) fn new(interval: Duration) -> Self {
        let start = Instant::now();
        Self {
            start,
            next: start,
            interval,
        }
    }

    /// Microseconds since this rank armed its beat clock (the
    /// `elapsed_us` freshness watermark carried by its beats).
    fn elapsed_us(&self) -> u64 {
        u64::try_from(self.start.elapsed().as_micros()).unwrap_or(u64::MAX)
    }

    /// True once per elapsed interval.
    fn due(&mut self) -> bool {
        let now = Instant::now();
        if now < self.next {
            return false;
        }
        self.next = now + self.interval;
        true
    }
}

/// One telemetry tick from inside a rank's protocol loop: when a beat
/// is due (or `done` forces a final one), snapshot the registry into a
/// heartbeat and either send it to rank 0 as a `TELEM` frame or — on
/// rank 0 itself — fold it, plus every remote beat the transport has
/// diverted, straight into the plane's view.
pub(crate) fn live_tick(
    duty: &LiveDuty,
    beat: &mut BeatState,
    tp: &dyn Transport,
    round: u32,
    done: bool,
    pairs: u64,
) {
    if !beat.due() && !done {
        return;
    }
    let hb = Heartbeat::from_snapshot(
        tp.rank() as u32,
        round,
        done,
        pairs,
        beat.elapsed_us(),
        tp.send_queue_depth(),
        &duty.registry.snapshot(),
    );
    match &duty.view {
        Some(view) => {
            let mut v = lock_view(view);
            v.fold(&hb);
            for raw in tp.drain_telemetry() {
                if let Some((TAG_TELEM, _, payload)) = parse_frame(raw) {
                    if let Some(remote) = Heartbeat::decode(&payload) {
                        v.fold(&remote);
                    }
                }
            }
        }
        None => tp.send(0, frame(TAG_TELEM, 0, &hb.encode())),
    }
}

/// Rank 0 presumed `rank` dead during the census: mark it in the live
/// view so scrapes stop expecting its beats.
pub(crate) fn live_mark_dead(duty: &LiveDuty, rank: usize) {
    if let Some(view) = &duty.view {
        lock_view(view).mark_dead(rank);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distributed::{
        infer_network_distributed, infer_network_distributed_live, infer_network_distributed_tcp,
        infer_network_distributed_tcp_live, DEFAULT_PEER_TIMEOUT,
    };
    use gnet_core::InferenceConfig;
    use gnet_expr::synth::{coupled_pairs, Coupling};
    use gnet_fault::{Fault, FaultInjector, FaultPlan};
    use gnet_graph::GeneNetwork;
    use gnet_trace::Recorder;
    use std::io::{Read as _, Write as _};

    fn cfg() -> InferenceConfig {
        InferenceConfig {
            permutations: 12,
            threads: Some(1),
            tile_size: Some(8),
            ..InferenceConfig::default()
        }
    }

    fn edge_bits(net: &GeneNetwork) -> Vec<(u32, u32, u32)> {
        net.edges()
            .iter()
            .map(|e| (e.a, e.b, e.weight.to_bits()))
            .collect()
    }

    fn pairs_total(genes: usize) -> u64 {
        (genes as u64) * (genes as u64 - 1) / 2
    }

    #[test]
    fn telem_frames_are_recognized_by_tag_and_length() {
        let beat = frame(TAG_TELEM, 0, b"beat");
        assert!(is_telem(&beat));
        assert!(!is_telem(&frame(1, 0, b"block")));
        assert!(!is_telem(&[TAG_TELEM])); // shorter than a frame header
        assert!(!is_telem(b""));
    }

    #[test]
    fn beat_clock_fires_immediately_then_on_cadence() {
        let mut b = BeatState::new(Duration::from_secs(3600));
        assert!(b.due(), "first tick always beats");
        assert!(!b.due(), "second tick inside the interval is silent");
    }

    #[test]
    fn live_plane_does_not_perturb_channel_results() {
        let (matrix, _) = coupled_pairs(6, 220, Coupling::Linear(0.8), 77);
        let baseline = infer_network_distributed(&matrix, &cfg(), 4);
        let spec = TelemetrySpec::with_interval(Duration::from_millis(5));
        let mut plane = TelemetryPlane::start(&spec, 4, pairs_total(6)).expect("plane starts");
        let live = infer_network_distributed_live(
            &matrix,
            &cfg(),
            4,
            &FaultInjector::none(),
            &Recorder::disabled(),
            DEFAULT_PEER_TIMEOUT,
            &plane,
        )
        .expect("live run completes");
        assert_eq!(
            edge_bits(&live.network),
            edge_bits(&baseline.network),
            "telemetry must never change the edge set"
        );
        assert_eq!(live.threshold.to_bits(), baseline.threshold.to_bits());
        plane.finish().expect("no status file to fail on");
        let view = plane.view();
        let v = lock_view(&view);
        assert!(v.is_done(), "finish freezes the view as done");
        assert!(v.pairs_done() > 0, "beats carried pair progress");
        for r in v.ranks() {
            assert!(r.beats >= 1, "rank {} never beat", r.rank);
        }
    }

    #[test]
    fn live_plane_does_not_perturb_tcp_results_and_serves_scrapes() {
        let (matrix, _) = coupled_pairs(6, 220, Coupling::Linear(0.8), 78);
        let baseline = infer_network_distributed_tcp(&matrix, &cfg(), 4).expect("baseline runs");
        let spec = TelemetrySpec {
            status_addr: Some("127.0.0.1:0".to_string()),
            status_file: None,
            interval: Duration::from_millis(5),
        };
        let mut plane = TelemetryPlane::start(&spec, 4, pairs_total(6)).expect("plane starts");
        let addr = plane.status_addr().expect("listener bound");
        let live = infer_network_distributed_tcp_live(
            &matrix,
            &cfg(),
            4,
            &FaultInjector::none(),
            &Recorder::disabled(),
            DEFAULT_PEER_TIMEOUT,
            &plane,
        )
        .expect("live run completes");
        assert_eq!(
            edge_bits(&live.network),
            edge_bits(&baseline.network),
            "telemetry must never change the TCP edge set"
        );
        let status = scrape(addr, "/status");
        assert!(status.contains("\"format\":\"gnet-status\""), "{status}");
        let metrics = scrape(addr, "/metrics");
        assert!(metrics.contains("gnet_pairs_done_total"), "{metrics}");
        plane.finish().expect("no status file to fail on");
    }

    #[test]
    fn stalled_wire_flags_a_straggler_without_perturbing_edges() {
        // Rank 0 folds remote beats only when it ticks between protocol
        // effects, so it must still be computing (and ticking) after rank
        // 1's first beat lands: enough samples and nulls for a few
        // milliseconds of work per rank, beaten every millisecond. This
        // ties the test to compute time — a faster kernel or host shortens
        // the window — until the keeper drains telemetry while rank 0
        // blocks in a receive (ROADMAP.md, "Fold remote heartbeats while
        // rank 0 waits"); then test that directly instead of growing the
        // workload again.
        let (matrix, _) = coupled_pairs(6, 3_000, Coupling::Linear(0.8), 79);
        let cfg = InferenceConfig {
            permutations: 60,
            ..cfg()
        };
        let baseline = infer_network_distributed_tcp(&matrix, &cfg, 4).expect("baseline runs");
        // Stall the second wire frame rank 1 writes toward rank 0 —
        // whichever beat or protocol frame that is, rank 1 has beaten
        // at least once and then goes silent for far longer than the
        // suspect threshold (4 × 1 ms) while the keeper keeps
        // refreshing the view.
        let plan = FaultPlan::new(0).with(Fault::StallFrame {
            from: 1,
            to: 0,
            nth: 1,
            micros: 600_000,
        });
        let spec = TelemetrySpec::with_interval(Duration::from_millis(1));
        let mut plane = TelemetryPlane::start(&spec, 4, pairs_total(6)).expect("plane starts");
        let live = infer_network_distributed_tcp_live(
            &matrix,
            &cfg,
            4,
            &FaultInjector::from_plan(&plan),
            &Recorder::disabled(),
            DEFAULT_PEER_TIMEOUT,
            &plane,
        )
        .expect("stalled run still completes");
        assert_eq!(
            edge_bits(&live.network),
            edge_bits(&baseline.network),
            "a stall delays frames, never edges"
        );
        plane.finish().expect("no status file to fail on");
        let view = plane.view();
        let v = lock_view(&view);
        assert!(
            v.stragglers_seen().contains(&1),
            "the stalled rank was never flagged: seen={:?}",
            v.stragglers_seen()
        );
    }

    #[test]
    fn severed_heartbeat_wire_degrades_view_without_wedging() {
        let (matrix, _) = coupled_pairs(6, 220, Coupling::Linear(0.8), 80);
        let baseline = infer_network_distributed_tcp(&matrix, &cfg(), 4).expect("baseline runs");
        // Cut the very first frame rank 1 writes toward rank 0 (its
        // first heartbeat): the 1→0 wire dies, every later beat and the
        // results frame are lost, and the census presumes rank 1 dead —
        // the run recovers to the identical edge set while the live
        // view shows the degradation instead of wedging.
        let plan = FaultPlan::new(0).with(Fault::CutFrame {
            from: 1,
            to: 0,
            nth: 0,
        });
        let spec = TelemetrySpec::with_interval(Duration::from_millis(5));
        let mut plane = TelemetryPlane::start(&spec, 4, pairs_total(6)).expect("plane starts");
        let live = infer_network_distributed_tcp_live(
            &matrix,
            &cfg(),
            4,
            &FaultInjector::from_plan(&plan),
            &Recorder::disabled(),
            DEFAULT_PEER_TIMEOUT,
            &plane,
        )
        .expect("run completes despite the severed wire");
        assert_eq!(
            edge_bits(&live.network),
            edge_bits(&baseline.network),
            "recovery must reproduce the baseline edge set"
        );
        plane.finish().expect("no status file to fail on");
        let view = plane.view();
        let v = lock_view(&view);
        assert!(v.pairs_done() > 0, "surviving ranks still reported");
        let healthy = v.ranks().iter().filter(|r| r.beats >= 1).count();
        assert!(
            healthy >= 3,
            "ranks 0, 2, 3 beat over healthy wires: {healthy}"
        );
    }

    #[test]
    fn status_file_is_maintained_and_finalized() {
        let dir = std::env::temp_dir().join(format!("gnet-live-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("status.json");
        let (matrix, _) = coupled_pairs(6, 220, Coupling::Linear(0.8), 81);
        let spec = TelemetrySpec {
            status_addr: None,
            status_file: Some(path.clone()),
            interval: Duration::from_millis(5),
        };
        let mut plane = TelemetryPlane::start(&spec, 3, pairs_total(6)).expect("plane starts");
        infer_network_distributed_live(
            &matrix,
            &cfg(),
            3,
            &FaultInjector::none(),
            &Recorder::disabled(),
            DEFAULT_PEER_TIMEOUT,
            &plane,
        )
        .expect("live run completes");
        plane.finish().expect("final status write succeeds");
        let doc = std::fs::read_to_string(&path).expect("status file exists");
        assert!(doc.contains("\"state\":\"done\""), "{doc}");
        assert!(doc.contains("\"format\":\"gnet-status\""), "{doc}");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Minimal HTTP/1.0 GET against the status listener.
    fn scrape(addr: std::net::SocketAddr, path: &str) -> String {
        let mut stream = std::net::TcpStream::connect(addr).expect("listener reachable");
        stream
            .write_all(format!("GET {path} HTTP/1.0\r\n\r\n").as_bytes())
            .expect("request written");
        let mut out = String::new();
        stream.read_to_string(&mut out).expect("response read");
        out
    }
}
