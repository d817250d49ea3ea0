//! In-process message-passing fabric.
//!
//! `P` ranks communicate over reliable, ordered, typed-as-bytes channels —
//! the semantics of MPI point-to-point with unbounded buffering (sends
//! never block, receives wait for a matching message). One channel exists
//! per ordered rank pair, so a receive from one rank is deterministic and
//! messages from distinct senders cannot be confused. The ring driver
//! reaches its peers only through [`crate::Transport`]'s `send` and
//! `recv_timeout`.
//!
//! ## Failure awareness
//!
//! Two facilities make the fabric usable under failures:
//!
//! * [`Endpoint::recv_timeout`] bounds every wait — a dead peer yields a
//!   typed [`RecvTimeoutError`] instead of a hang. A crashed rank drops
//!   its endpoint, which closes its sending halves, so survivors usually
//!   see `Disconnected` near-instantly; the timeout covers messages lost
//!   in flight.
//! * [`Fabric::with_faults`] threads a [`FaultInjector`] through every
//!   endpoint: sends consult the injector (drop/delay), and a send to a
//!   dead peer is silently discarded — the semantics of a datagram to a
//!   dead host — instead of panicking. The fault-free [`Fabric::new`]
//!   keeps the strict panic, because there a dropped peer is a logic
//!   error worth crashing on.

use bytes::Bytes;
use crossbeam::channel::{unbounded, Receiver, Sender};
use gnet_fault::{FaultInjector, MessageAction};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

pub use crossbeam::channel::RecvTimeoutError;

/// Cumulative traffic counters of one endpoint.
#[derive(Debug, Default)]
pub struct CommStats {
    /// Messages sent.
    pub messages: AtomicU64,
    /// Payload bytes sent.
    pub bytes: AtomicU64,
}

impl CommStats {
    /// Messages sent so far.
    pub fn messages(&self) -> u64 {
        // ordering: telemetry read; exactness is only needed after the
        // cluster scope joins, which already synchronizes.
        self.messages.load(Ordering::Relaxed)
    }

    /// Payload bytes sent so far.
    pub fn bytes(&self) -> u64 {
        // ordering: telemetry read; the scope join provides the final
        // happens-before edge.
        self.bytes.load(Ordering::Relaxed)
    }
}

/// One rank's handle onto the fabric.
pub struct Endpoint {
    rank: usize,
    size: usize,
    /// `tx[to]` sends to rank `to`.
    tx: Vec<Sender<Bytes>>,
    /// `rx[from]` receives from rank `from`.
    rx: Vec<Receiver<Bytes>>,
    stats: CommStats,
    /// Armed only on fabrics built with [`Fabric::with_faults`]; an
    /// unarmed injector is a zero-cost pass-through.
    faults: FaultInjector,
    /// `telem[to]` is rank `to`'s telemetry inbox, shared across all
    /// endpoints. `TELEM` frames are diverted here at send time, never
    /// entering the protocol channels (see
    /// [`Transport::drain_telemetry`](crate::transport::Transport::drain_telemetry)).
    telem: Vec<Arc<Mutex<VecDeque<Bytes>>>>,
}

impl Endpoint {
    /// This endpoint's rank.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in the fabric.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Send `payload` to `to` (never blocks; buffering is unbounded).
    ///
    /// With an armed fault injector the message may be dropped (counted
    /// but never enqueued) or delayed (enqueued after a sleep, so
    /// per-channel ordering is preserved), and a send to a crashed peer
    /// is silently discarded. On a fault-free fabric a dropped peer is a
    /// logic error and panics.
    ///
    /// # Panics
    /// Panics if `to` is out of range, or — on a fault-free fabric only —
    /// if the peer endpoint was dropped.
    pub fn send(&self, to: usize, payload: Bytes) {
        assert!(to < self.size, "rank {to} out of range");
        if crate::live::is_telem(&payload) {
            // Telemetry is out-of-band: skip the traffic counters and the
            // message-level fault injector (so fault-plan `nth` indices
            // are identical with telemetry on or off) and park the frame
            // in the target's telemetry inbox.
            self.telem[to]
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .push_back(payload);
            return;
        }
        // ordering: pure counters — nothing is published through them;
        // the channel send below carries all data synchronization.
        self.stats.messages.fetch_add(1, Ordering::Relaxed);
        let n = payload.len() as u64;
        // ordering: same telemetry argument as the message counter above.
        self.stats.bytes.fetch_add(n, Ordering::Relaxed);
        match self.faults.on_message(self.rank, to) {
            MessageAction::Drop => return,
            MessageAction::Delay(pause) => std::thread::sleep(pause),
            MessageAction::Deliver => {}
        }
        if self.faults.is_armed() {
            // A crashed peer dropped its receiver; model the datagram
            // semantics of a send to a dead host.
            let _ = self.tx[to].send(payload);
        } else {
            self.tx[to].send(payload).expect("peer endpoint dropped");
        }
    }

    /// Wait at most `timeout` for a message from `from`.
    ///
    /// Returns [`RecvTimeoutError::Disconnected`] once the peer's
    /// endpoint has been dropped and its buffered messages are drained —
    /// which is how a survivor detects a crashed rank without hanging —
    /// and [`RecvTimeoutError::Timeout`] when the peer is (presumed)
    /// alive but silent.
    ///
    /// # Panics
    /// Panics if `from` is out of range.
    pub fn recv_timeout(&self, from: usize, timeout: Duration) -> Result<Bytes, RecvTimeoutError> {
        assert!(from < self.size, "rank {from} out of range");
        self.rx[from].recv_timeout(timeout)
    }

    /// The fault injector this endpoint consults on every send.
    pub fn faults(&self) -> &FaultInjector {
        &self.faults
    }

    /// Shared traffic counters of this endpoint.
    pub fn stats(&self) -> &CommStats {
        &self.stats
    }

    /// Drain every `TELEM` frame other ranks have parked for this rank.
    pub fn drain_telemetry(&self) -> Vec<Bytes> {
        let mut inbox = self.telem[self.rank]
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        inbox.drain(..).collect()
    }
}

impl crate::transport::Transport for Endpoint {
    fn rank(&self) -> usize {
        Endpoint::rank(self)
    }

    fn size(&self) -> usize {
        Endpoint::size(self)
    }

    fn send(&self, to: usize, payload: Bytes) {
        Endpoint::send(self, to, payload);
    }

    fn recv_timeout(&self, from: usize, timeout: Duration) -> Result<Bytes, RecvTimeoutError> {
        Endpoint::recv_timeout(self, from, timeout)
    }

    fn faults(&self) -> &FaultInjector {
        Endpoint::faults(self)
    }

    fn messages_sent(&self) -> u64 {
        self.stats.messages()
    }

    fn bytes_sent(&self) -> u64 {
        self.stats.bytes()
    }

    fn drain_telemetry(&self) -> Vec<Bytes> {
        Endpoint::drain_telemetry(self)
    }
}

/// Builder for a `P`-rank fabric.
pub struct Fabric {
    endpoints: Vec<Endpoint>,
}

impl Fabric {
    /// Build a fully connected fabric of `size` ranks.
    ///
    /// # Panics
    /// Panics if `size == 0`.
    pub fn new(size: usize) -> Self {
        Self::with_faults(size, FaultInjector::none())
    }

    /// Build a fabric whose endpoints consult `faults` on every send and
    /// tolerate sends to crashed peers. With `FaultInjector::none()` this
    /// is exactly [`Fabric::new`].
    ///
    /// # Panics
    /// Panics if `size == 0`.
    pub fn with_faults(size: usize, faults: FaultInjector) -> Self {
        assert!(size >= 1, "need at least one rank");
        // channels[from][to]
        let mut senders: Vec<Vec<Option<Sender<Bytes>>>> = (0..size)
            .map(|_| (0..size).map(|_| None).collect())
            .collect();
        let mut receivers: Vec<Vec<Option<Receiver<Bytes>>>> = (0..size)
            .map(|_| (0..size).map(|_| None).collect())
            .collect();
        for from in 0..size {
            for to in 0..size {
                let (tx, rx) = unbounded();
                senders[from][to] = Some(tx);
                // rx lives at the receiving endpoint, indexed by sender.
                receivers[to][from] = Some(rx);
            }
        }
        let telem: Vec<Arc<Mutex<VecDeque<Bytes>>>> = (0..size)
            .map(|_| Arc::new(Mutex::new(VecDeque::new())))
            .collect();
        let endpoints = senders
            .into_iter()
            .zip(receivers)
            .enumerate()
            .map(|(rank, (tx_row, rx_row))| Endpoint {
                rank,
                size,
                tx: tx_row
                    .into_iter()
                    .map(|t| t.expect("wiring loop fills every slot"))
                    .collect(),
                rx: rx_row
                    .into_iter()
                    .map(|r| r.expect("wiring loop fills every slot"))
                    .collect(),
                stats: CommStats::default(),
                faults: faults.clone(),
                telem: telem.clone(),
            })
            .collect();
        Self { endpoints }
    }

    /// Take the endpoints (one per rank, in rank order).
    pub fn into_endpoints(self) -> Vec<Endpoint> {
        self.endpoints
    }
}

/// Run `body` on each rank of `fabric` (scoped threads; build the fabric
/// with [`Fabric::with_faults`] to arm a [`FaultInjector`]), returning
/// each rank's output in rank order. Panics in any rank propagate.
pub fn run_ranks_on<T, F>(fabric: Fabric, body: F) -> Vec<T>
where
    T: Send,
    F: Fn(Endpoint) -> T + Sync,
{
    let endpoints = fabric.into_endpoints();
    crossbeam::thread::scope(|scope| {
        let handles: Vec<_> = endpoints
            .into_iter()
            .map(|ep| {
                let body = &body;
                scope.spawn(move |_| body(ep))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("rank panicked"))
            .collect()
    })
    .expect("cluster scope failed")
}

#[cfg(test)]
mod tests {
    use super::*;

    const WAIT: Duration = Duration::from_secs(5);

    #[test]
    fn point_to_point_is_ordered_and_addressed() {
        let outputs = run_ranks_on(Fabric::new(3), |ep| {
            // Every rank sends two tagged messages to every other rank.
            for to in 0..ep.size() {
                if to != ep.rank() {
                    ep.send(to, Bytes::from(vec![ep.rank() as u8, 1]));
                    ep.send(to, Bytes::from(vec![ep.rank() as u8, 2]));
                }
            }
            let mut seen = Vec::new();
            for from in 0..ep.size() {
                if from != ep.rank() {
                    let a = ep.recv_timeout(from, WAIT).expect("first message");
                    let b = ep.recv_timeout(from, WAIT).expect("second message");
                    assert_eq!(a[0] as usize, from, "message mis-addressed");
                    assert_eq!((a[1], b[1]), (1, 2), "ordering violated");
                    seen.push(from);
                }
            }
            seen.len()
        });
        assert_eq!(outputs, vec![2, 2, 2]);
    }

    #[test]
    fn dead_peer_yields_timeout_error_not_a_hang() {
        // Rank 1 crashes (drops its endpoint) without sending; rank 0's
        // bounded receive must report the death instead of blocking
        // forever.
        let outputs = run_ranks_on(Fabric::new(2), |ep| {
            if ep.rank() == 0 {
                let err = ep
                    .recv_timeout(1, WAIT)
                    .expect_err("dead peer must surface as an error");
                // Dropping the endpoint closes the channel, so the error
                // is Disconnected (near-instant), not a 5 s timeout.
                assert_eq!(err, RecvTimeoutError::Disconnected);
                true
            } else {
                drop(ep); // simulated crash
                false
            }
        });
        assert_eq!(outputs, vec![true, false]);
    }

    #[test]
    fn silent_but_live_peer_yields_timeout() {
        let fabric = Fabric::new(2);
        let mut eps = fabric.into_endpoints();
        let e1 = eps.pop().expect("two endpoints");
        let e0 = eps.pop().expect("two endpoints");
        // e1 is alive (not dropped) but never sends.
        let err = e0
            .recv_timeout(1, Duration::from_millis(20))
            .expect_err("silence must time out");
        assert_eq!(err, RecvTimeoutError::Timeout);
        drop(e1);
    }

    #[test]
    fn armed_fabric_drops_and_tolerates_dead_peers() {
        let plan = gnet_fault::FaultPlan::parse("seed=1;drop(from=0,to=1,nth=0)")
            .expect("literal plan parses");
        let injector = FaultInjector::from_plan(&plan);
        let fabric = Fabric::with_faults(2, injector.clone());
        let mut eps = fabric.into_endpoints();
        let e1 = eps.pop().expect("two endpoints");
        let e0 = eps.pop().expect("two endpoints");
        // First message on the 0→1 edge is dropped, second delivered.
        e0.send(1, Bytes::from_static(b"lost"));
        e0.send(1, Bytes::from_static(b"kept"));
        let got = e1.recv_timeout(0, WAIT).expect("second message survives");
        assert_eq!(&got[..], b"kept");
        assert_eq!(injector.faults_fired(), 1);
        // Sends to a crashed peer are discarded, not a panic.
        drop(e1);
        e0.send(1, Bytes::from_static(b"into the void"));
    }

    #[test]
    fn traffic_is_accounted() {
        let counts = run_ranks_on(Fabric::new(2), |ep| {
            if ep.rank() == 0 {
                ep.send(1, Bytes::from(vec![0u8; 100]));
            } else {
                ep.recv_timeout(0, WAIT).expect("the message arrives");
            }
            (ep.stats().messages(), ep.stats().bytes())
        });
        assert_eq!(counts, vec![(1, 100), (0, 0)]);
    }
}
