//! Cluster-wide live view: rank 0 folds worker heartbeats into per-rank
//! liveness, progress watermarks, and EWMA-based straggler flags.
//!
//! The view is deliberately tolerant of a degraded telemetry stream:
//! heartbeats may be lost, reordered, or stop entirely (wire faults, rank
//! death), and every fold merges *monotonically* — rounds and pair counts
//! only move forward, a late-arriving stale beat can refresh liveness but
//! never rewinds progress. Missing data degrades the view (stale ages,
//! frozen rates); it never wedges or panics.
//!
//! Three straggler signals, re-evaluated on every [`refresh_at`]
//! (`ClusterView::refresh_at`):
//!
//! 1. **Silent** — a rank that has beaten before but whose last beat is
//!    older than `max(4 × interval, 3 × its own EWMA beat gap)`. These
//!    ranks are also marked *suspect*, which is the signal the caller
//!    feeds into the protocol's census/presume-dead path.
//! 2. **Lagging** — a rank whose round watermark trails the furthest
//!    live rank by ≥ 2 rounds.
//! 3. **Slow** — a rank (≥ 3 beats, so the EWMA has settled) whose
//!    pairs/s EWMA is below half the median of live ranks.
//!
//! Flags are transient, but `stragglers_seen` is a monotone set — once a
//! rank has been flagged it stays in the history, so a post-run check can
//! prove a mid-run stall was observed even after the rank recovered.

use crate::heartbeat::Heartbeat;
use gnet_trace::{EwmaEta, Progress};
use std::collections::{BTreeMap, BTreeSet};
use std::time::{Duration, Instant};

/// Smoothing factor for per-rank beat-gap and pair-rate EWMAs.
const RANK_ALPHA: f64 = 0.3;

/// Live state of one rank, as seen from the coordinator.
#[derive(Clone, Debug)]
pub struct RankView {
    /// Rank index.
    pub rank: usize,
    /// Heartbeats received (including stale/reordered ones).
    pub beats: u64,
    /// Arrival time of the newest heartbeat.
    pub last_beat: Option<Instant>,
    /// Highest round watermark reported (monotone).
    pub round: u32,
    /// Highest pair count reported (monotone).
    pub pairs: u64,
    /// Worker-side elapsed µs of the newest non-stale beat.
    pub elapsed_us: u64,
    /// Outbound queue depth from the newest non-stale beat.
    pub queue_depth: u64,
    /// Rank reported completion.
    pub done: bool,
    /// Rank was presumed dead by the protocol census.
    pub dead: bool,
    /// Missed-heartbeat flag (see module docs, signal 1).
    pub suspect: bool,
    /// Any straggler signal active (module docs, signals 1–3).
    pub straggler: bool,
    /// Smoothed pairs/s, once two beats with forward progress arrived.
    pub rate_ewma: Option<f64>,
    /// Smoothed seconds between heartbeat arrivals.
    pub gap_ewma: Option<f64>,
    /// Latest counter values (monotone max-merge per name).
    pub counters: BTreeMap<String, u64>,
}

impl RankView {
    fn new(rank: usize) -> Self {
        Self {
            rank,
            beats: 0,
            last_beat: None,
            round: 0,
            pairs: 0,
            elapsed_us: 0,
            queue_depth: 0,
            done: false,
            dead: false,
            suspect: false,
            straggler: false,
            rate_ewma: None,
            gap_ewma: None,
            counters: BTreeMap::new(),
        }
    }

    /// Time since the newest heartbeat, `None` before the first.
    #[must_use]
    pub fn beat_age(&self, now: Instant) -> Option<Duration> {
        self.last_beat.map(|at| now.saturating_duration_since(at))
    }

    /// True when the rank still owes the cluster heartbeats: not done,
    /// not presumed dead.
    #[must_use]
    pub fn expected_live(&self) -> bool {
        !self.done && !self.dead
    }
}

/// The coordinator's folded view of every rank.
pub struct ClusterView {
    started: Instant,
    interval: Duration,
    pairs_total: u64,
    run_done: bool,
    ranks: Vec<RankView>,
    eta: EwmaEta,
    stragglers_seen: BTreeSet<usize>,
}

impl ClusterView {
    /// A fresh view over `size` ranks expecting `pairs_total` total gene
    /// pairs, with workers beating roughly every `interval`.
    #[must_use]
    pub fn new(size: usize, pairs_total: u64, interval: Duration) -> Self {
        Self {
            started: Instant::now(),
            interval: interval.max(Duration::from_millis(1)),
            pairs_total,
            run_done: false,
            ranks: (0..size).map(RankView::new).collect(),
            eta: EwmaEta::new(),
            stragglers_seen: BTreeSet::new(),
        }
    }

    /// Fold one heartbeat in, stamped "now".
    pub fn fold(&mut self, hb: &Heartbeat) {
        self.fold_at(hb, Instant::now());
    }

    /// Fold one heartbeat that arrived at `now` (injectable clock for
    /// deterministic tests).
    pub fn fold_at(&mut self, hb: &Heartbeat, now: Instant) {
        let Some(r) = self.ranks.get_mut(hb.rank as usize) else {
            // A beat for a rank outside the mesh: corrupt or foreign —
            // degrade by ignoring it.
            return;
        };
        // Liveness first: any decodable beat proves the rank is alive,
        // stale payload or not.
        if let Some(prev) = r.last_beat {
            let gap = now.saturating_duration_since(prev).as_secs_f64();
            r.gap_ewma = Some(match r.gap_ewma {
                None => gap,
                Some(g) => RANK_ALPHA * gap + (1.0 - RANK_ALPHA) * g,
            });
        }
        r.beats += 1;
        r.last_beat = Some(now);
        r.dead = false;
        r.done |= hb.done;
        // Data merge: monotone. A reordered older beat (elapsed went
        // backwards) refreshes liveness above but must not rewind
        // progress or regress counters.
        let stale = hb.elapsed_us < r.elapsed_us;
        if hb.pairs > r.pairs && hb.elapsed_us > r.elapsed_us {
            let d_pairs = (hb.pairs - r.pairs) as f64;
            let d_secs = (hb.elapsed_us - r.elapsed_us) as f64 / 1e6;
            if d_secs > 0.0 {
                let rate = d_pairs / d_secs;
                r.rate_ewma = Some(match r.rate_ewma {
                    None => rate,
                    Some(prev) => RANK_ALPHA * rate + (1.0 - RANK_ALPHA) * prev,
                });
            }
        }
        r.round = r.round.max(hb.round);
        r.pairs = r.pairs.max(hb.pairs);
        if !stale {
            r.elapsed_us = hb.elapsed_us;
            r.queue_depth = hb.queue_depth;
        }
        for (k, v) in &hb.counters {
            let e = r.counters.entry(k.clone()).or_insert(0);
            *e = (*e).max(*v);
        }
        // Cluster ETA from the summed watermarks.
        let done = usize::try_from(self.pairs_done()).unwrap_or(usize::MAX);
        let total = usize::try_from(self.pairs_total).unwrap_or(usize::MAX);
        self.eta.update(Progress {
            done,
            total,
            elapsed: now.saturating_duration_since(self.started),
        });
    }

    /// The protocol census presumed `rank` dead: stop expecting beats
    /// from it. A later beat (spurious death verdict) revives it.
    pub fn mark_dead(&mut self, rank: usize) {
        if let Some(r) = self.ranks.get_mut(rank) {
            r.dead = true;
            r.suspect = false;
            r.straggler = false;
        }
    }

    /// The run completed: freeze the state reported by pull surfaces.
    pub fn finish(&mut self) {
        self.run_done = true;
        for r in &mut self.ranks {
            r.suspect = false;
            r.straggler = false;
        }
    }

    /// Re-evaluate suspect/straggler flags as of `now` and fold newly
    /// flagged ranks into the monotone `stragglers_seen` history.
    pub fn refresh_at(&mut self, now: Instant) {
        if self.run_done {
            return;
        }
        let round_max = self.round_max();
        let mut rates: Vec<f64> = self
            .ranks
            .iter()
            .filter(|r| r.expected_live() && r.beats >= 3)
            .filter_map(|r| r.rate_ewma)
            .collect();
        rates.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        let median_rate = (!rates.is_empty()).then(|| rates[rates.len() / 2]);
        for r in &mut self.ranks {
            if !r.expected_live() || r.beats == 0 {
                r.suspect = false;
                r.straggler = false;
                continue;
            }
            let age = r.beat_age(now).unwrap_or(Duration::ZERO).as_secs_f64();
            let expected_gap = r
                .gap_ewma
                .map_or(0.0, |g| 3.0 * g)
                .max(4.0 * self.interval.as_secs_f64());
            r.suspect = age > expected_gap;
            let lagging = r.round.saturating_add(2) <= round_max;
            let slow = r.beats >= 3
                && match (r.rate_ewma, median_rate) {
                    (Some(rate), Some(median)) => rate < 0.5 * median,
                    _ => false,
                };
            r.straggler = r.suspect || lagging || slow;
            if r.straggler {
                self.stragglers_seen.insert(r.rank);
            }
        }
    }

    /// [`refresh_at`](Self::refresh_at) stamped "now".
    pub fn refresh(&mut self) {
        self.refresh_at(Instant::now());
    }

    /// Per-rank live states, rank order.
    #[must_use]
    pub fn ranks(&self) -> &[RankView] {
        &self.ranks
    }

    /// Expected heartbeat interval.
    #[must_use]
    pub fn interval(&self) -> Duration {
        self.interval
    }

    /// Total gene pairs the run will compute.
    #[must_use]
    pub fn pairs_total(&self) -> u64 {
        self.pairs_total
    }

    /// Pairs completed across all ranks (sum of watermarks).
    #[must_use]
    pub fn pairs_done(&self) -> u64 {
        self.ranks
            .iter()
            .map(|r| r.pairs)
            .fold(0, u64::saturating_add)
    }

    /// Highest round watermark any rank has reported.
    #[must_use]
    pub fn round_max(&self) -> u32 {
        self.ranks.iter().map(|r| r.round).max().unwrap_or(0)
    }

    /// Wall-clock since the view was created.
    #[must_use]
    pub fn elapsed(&self, now: Instant) -> Duration {
        now.saturating_duration_since(self.started)
    }

    /// Smoothed cluster ETA, if any progress has been observed.
    #[must_use]
    pub fn eta(&self) -> Option<Duration> {
        self.eta.eta()
    }

    /// True once [`finish`](Self::finish) was called.
    #[must_use]
    pub fn is_done(&self) -> bool {
        self.run_done
    }

    /// Ranks currently flagged as stragglers.
    #[must_use]
    pub fn stragglers(&self) -> Vec<usize> {
        self.ranks
            .iter()
            .filter(|r| r.straggler)
            .map(|r| r.rank)
            .collect()
    }

    /// Every rank ever flagged (monotone history).
    #[must_use]
    pub fn stragglers_seen(&self) -> &BTreeSet<usize> {
        &self.stragglers_seen
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn beat(rank: u32, round: u32, pairs: u64, elapsed_us: u64) -> Heartbeat {
        Heartbeat {
            rank,
            round,
            pairs,
            elapsed_us,
            ..Heartbeat::default()
        }
    }

    /// Drive `view` with healthy beats from every rank at `tick` spacing.
    fn healthy_rounds(view: &mut ClusterView, base: Instant, ticks: u64, tick: Duration) {
        for t in 1..=ticks {
            let now = base + tick * u32::try_from(t).expect("small tick count");
            for rank in 0..4u32 {
                view.fold_at(
                    &beat(rank, u32::try_from(t).expect("small"), t * 100, t * 100_000),
                    now,
                );
            }
        }
    }

    #[test]
    fn healthy_cluster_has_no_stragglers() {
        let base = Instant::now();
        let mut v = ClusterView::new(4, 10_000, Duration::from_millis(100));
        healthy_rounds(&mut v, base, 5, Duration::from_millis(100));
        v.refresh_at(base + Duration::from_millis(520));
        assert!(v.stragglers().is_empty(), "{:?}", v.stragglers());
        assert!(v.stragglers_seen().is_empty());
        assert_eq!(v.pairs_done(), 4 * 500);
        assert_eq!(v.round_max(), 5);
        assert!(v.eta().is_some());
    }

    #[test]
    fn silent_rank_goes_suspect_then_recovers_but_history_remains() {
        let base = Instant::now();
        let tick = Duration::from_millis(100);
        let mut v = ClusterView::new(4, 10_000, tick);
        healthy_rounds(&mut v, base, 3, tick);
        // Ranks 0,1,2 keep beating; rank 3 goes silent.
        for t in 4..=10u64 {
            let now = base + tick * u32::try_from(t).expect("small");
            for rank in 0..3u32 {
                v.fold_at(
                    &beat(rank, u32::try_from(t).expect("small"), t * 100, t * 100_000),
                    now,
                );
            }
        }
        let now = base + tick * 10;
        v.refresh_at(now);
        let r3 = &v.ranks()[3];
        assert!(r3.suspect, "700 ms silent with 100 ms interval");
        assert!(r3.straggler);
        assert_eq!(v.stragglers(), vec![3]);
        // Rank 3 resumes: flags clear, history stays.
        v.fold_at(&beat(3, 10, 1000, 1_000_000), now);
        v.refresh_at(now + Duration::from_millis(10));
        assert!(!v.ranks()[3].suspect);
        assert!(v.stragglers().is_empty());
        assert!(v.stragglers_seen().contains(&3));
    }

    #[test]
    fn round_lag_flags_a_straggler_even_while_beating() {
        let base = Instant::now();
        let tick = Duration::from_millis(100);
        let mut v = ClusterView::new(2, 1000, tick);
        for t in 1..=4u64 {
            let now = base + tick * u32::try_from(t).expect("small");
            v.fold_at(
                &beat(
                    0,
                    u32::try_from(t * 2).expect("small"),
                    t * 100,
                    t * 100_000,
                ),
                now,
            );
            v.fold_at(&beat(1, 1, 10, t * 100_000), now); // stuck in round 1
        }
        v.refresh_at(base + tick * 4 + Duration::from_millis(10));
        assert!(!v.ranks()[1].suspect, "it IS beating");
        assert!(v.ranks()[1].straggler, "but 7 rounds behind");
        assert!(v.stragglers_seen().contains(&1));
    }

    #[test]
    fn slow_rate_flags_a_straggler() {
        let base = Instant::now();
        let tick = Duration::from_millis(100);
        let mut v = ClusterView::new(4, 100_000, tick);
        for t in 1..=5u64 {
            let now = base + tick * u32::try_from(t).expect("small");
            for rank in 0..3u32 {
                v.fold_at(
                    &beat(
                        rank,
                        u32::try_from(t).expect("small"),
                        t * 1000,
                        t * 100_000,
                    ),
                    now,
                );
            }
            // Rank 3 beats on time and at the same round, but computes
            // pairs at a tenth the rate of its peers.
            v.fold_at(
                &beat(3, u32::try_from(t).expect("small"), t * 100, t * 100_000),
                now,
            );
        }
        v.refresh_at(base + tick * 5 + Duration::from_millis(10));
        let r3 = &v.ranks()[3];
        assert!(!r3.suspect);
        assert!(r3.straggler, "rate {:?} vs peers", r3.rate_ewma);
    }

    #[test]
    fn dead_and_done_ranks_are_never_flagged() {
        let base = Instant::now();
        let tick = Duration::from_millis(100);
        let mut v = ClusterView::new(3, 1000, tick);
        healthy_rounds_3(&mut v, base, 3, tick);
        v.mark_dead(1);
        let mut done_beat = beat(2, 3, 300, 300_000);
        done_beat.done = true;
        v.fold_at(&done_beat, base + tick * 3);
        // Long silence from everyone.
        v.refresh_at(base + tick * 60);
        assert!(v.ranks()[1].dead);
        assert!(!v.ranks()[1].straggler, "dead ranks are expected-silent");
        assert!(v.ranks()[2].done);
        assert!(!v.ranks()[2].straggler, "done ranks are expected-silent");
        assert!(v.ranks()[0].straggler, "rank 0 is genuinely missing");
    }

    fn healthy_rounds_3(view: &mut ClusterView, base: Instant, ticks: u64, tick: Duration) {
        for t in 1..=ticks {
            let now = base + tick * u32::try_from(t).expect("small");
            for rank in 0..3u32 {
                view.fold_at(
                    &beat(rank, u32::try_from(t).expect("small"), t * 100, t * 100_000),
                    now,
                );
            }
        }
    }

    #[test]
    fn reordered_stale_beats_never_rewind_progress() {
        let base = Instant::now();
        let mut v = ClusterView::new(1, 1000, Duration::from_millis(100));
        let mut hb_new = beat(0, 5, 500, 500_000);
        hb_new.counters.push(("c".into(), 50));
        v.fold_at(&hb_new, base + Duration::from_millis(500));
        // An older beat arrives late (reordered under faults).
        let mut hb_old = beat(0, 2, 200, 200_000);
        hb_old.counters.push(("c".into(), 20));
        v.fold_at(&hb_old, base + Duration::from_millis(510));
        let r = &v.ranks()[0];
        assert_eq!(r.round, 5);
        assert_eq!(r.pairs, 500);
        assert_eq!(r.counters.get("c"), Some(&50));
        assert_eq!(r.elapsed_us, 500_000, "stale position ignored");
        assert_eq!(r.beats, 2, "stale beat still proves liveness");
        // A beat for a rank outside the mesh is ignored without panic.
        v.fold_at(&beat(17, 1, 1, 1), base);
        assert_eq!(v.ranks().len(), 1);
    }

    #[test]
    fn finish_freezes_flags() {
        let base = Instant::now();
        let mut v = ClusterView::new(2, 100, Duration::from_millis(10));
        v.fold_at(&beat(0, 1, 10, 10_000), base);
        v.refresh_at(base + Duration::from_secs(5));
        assert!(v.ranks()[0].straggler);
        v.finish();
        assert!(v.is_done());
        assert!(v.stragglers().is_empty());
        v.refresh_at(base + Duration::from_secs(60));
        assert!(v.stragglers().is_empty(), "refresh after finish is a no-op");
        assert!(v.stragglers_seen().contains(&0), "history survives finish");
    }
}
