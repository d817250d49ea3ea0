//! Tile distribution policies and the multithreaded executor.
//!
//! All policies run the same worker over the same tile set and differ only
//! in *which thread runs which tile when* — so the merged result is
//! bitwise identical across policies whenever the per-thread states merge
//! exactly (the pipeline's accumulators are mergeable for exactly this
//! reason). The policies mirror the paper's comparison:
//!
//! * [`SchedulerPolicy::StaticBlock`] — thread `t` takes one contiguous
//!   chunk of the tile list. Cheapest dispatch, worst imbalance: early
//!   chunks hold diagonal (half-empty) tiles.
//! * [`SchedulerPolicy::StaticCyclic`] — thread `t` takes tiles
//!   `t, t+T, t+2T, …`. Better spread, still blind to runtime variation.
//! * [`SchedulerPolicy::DynamicCounter`] — threads pop the next tile from
//!   a shared atomic counter (the paper's scheme): one `fetch_add` per
//!   tile, self-balancing.

use crossbeam::thread as cb_thread;
use gnet_trace::Recorder;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use crate::tile::Tile;

/// Histogram name for per-tile execution latency (µs).
pub const HIST_TILE_US: &str = "scheduler.tile_us";

/// Tile distribution policy.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum SchedulerPolicy {
    /// Contiguous chunk per thread.
    StaticBlock,
    /// Round-robin interleaving.
    StaticCyclic,
    /// Shared atomic counter (the paper's dynamic scheme).
    #[default]
    DynamicCounter,
}

impl SchedulerPolicy {
    /// All policies, for sweep experiments.
    pub const ALL: [SchedulerPolicy; 3] =
        [Self::StaticBlock, Self::StaticCyclic, Self::DynamicCounter];

    /// Short stable name used in experiment output.
    pub fn name(&self) -> &'static str {
        match self {
            Self::StaticBlock => "static-block",
            Self::StaticCyclic => "static-cyclic",
            Self::DynamicCounter => "dynamic",
        }
    }

    /// Parse a policy from its [`Self::name`] slug.
    pub fn from_slug(slug: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|p| p.name() == slug)
    }
}

/// Per-thread execution statistics captured by the executor.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct ThreadStats {
    /// Tiles this thread executed.
    pub tiles: usize,
    /// Pairs this thread executed.
    pub pairs: u64,
    /// Wall time this thread spent inside the worker.
    pub busy: Duration,
}

/// Whole-run report: wall time plus per-thread statistics.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct ExecutionReport {
    /// End-to-end wall time of the parallel section.
    pub elapsed: Duration,
    /// One entry per worker thread.
    pub per_thread: Vec<ThreadStats>,
}

impl ExecutionReport {
    /// Load imbalance: slowest thread's busy time over the mean busy time.
    /// 1.0 is perfect balance; the paper's static-vs-dynamic comparison is
    /// expressed in this metric.
    pub fn imbalance(&self) -> f64 {
        if self.per_thread.is_empty() {
            return 1.0;
        }
        let times: Vec<f64> = self
            .per_thread
            .iter()
            .map(|t| t.busy.as_secs_f64())
            .collect();
        let max = times.iter().cloned().fold(0.0, f64::max);
        let mean = times.iter().sum::<f64>() / times.len() as f64;
        if mean > 0.0 {
            max / mean
        } else {
            1.0
        }
    }

    /// Total pairs executed across threads.
    pub fn total_pairs(&self) -> u64 {
        self.per_thread.iter().map(|t| t.pairs).sum()
    }

    /// Total tiles executed across threads.
    pub fn total_tiles(&self) -> usize {
        self.per_thread.iter().map(|t| t.tiles).sum()
    }

    /// Fold another report into this one, thread-index-wise: chunked
    /// drivers (checkpointing) run several parallel sections and must
    /// account for all of them, not just the last. Wall times add (the
    /// sections ran back to back); per-thread tiles/pairs/busy add
    /// entry-wise, growing the vector if `other` saw more threads.
    pub fn absorb(&mut self, other: &ExecutionReport) {
        self.elapsed += other.elapsed;
        if self.per_thread.len() < other.per_thread.len() {
            self.per_thread
                .resize(other.per_thread.len(), ThreadStats::default());
        }
        for (mine, theirs) in self.per_thread.iter_mut().zip(&other.per_thread) {
            mine.tiles += theirs.tiles;
            mine.pairs += theirs.pairs;
            mine.busy += theirs.busy;
        }
    }
}

/// Execute `work` over every tile using `threads` workers under `policy`.
///
/// `make_state` builds one private state per thread (scratch buffers,
/// accumulators); `work` is invoked as `work(state, tile)`. Returns every
/// thread's final state (callers merge them) and the execution report.
///
/// The executor guarantees each tile is executed exactly once regardless
/// of policy. A single worker runs on the calling thread.
///
/// # Panics
/// Panics if `threads == 0` or a worker panics.
pub fn execute_tiles<S, FMake, FWork>(
    tiles: &[Tile],
    threads: usize,
    policy: SchedulerPolicy,
    make_state: FMake,
    work: FWork,
) -> (Vec<S>, ExecutionReport)
where
    S: Send,
    FMake: Fn(usize) -> S + Sync,
    FWork: Fn(&mut S, &Tile) + Sync,
{
    execute_tiles_traced(
        tiles,
        threads,
        policy,
        make_state,
        work,
        &Recorder::disabled(),
    )
}

/// [`execute_tiles`] with instrumentation: when `rec` is enabled, every
/// tile's execution latency feeds the [`HIST_TILE_US`] histogram, each
/// worker's claim count lands in a `scheduler.claims.t<tid>` counter, and
/// a progress update (tiles done / total) is forwarded after every tile.
/// With a disabled recorder this is exactly `execute_tiles` — one branch
/// per tile of overhead.
///
/// # Panics
/// Panics if `threads == 0` or a worker panics.
pub fn execute_tiles_traced<S, FMake, FWork>(
    tiles: &[Tile],
    threads: usize,
    policy: SchedulerPolicy,
    make_state: FMake,
    work: FWork,
    rec: &Recorder,
) -> (Vec<S>, ExecutionReport)
where
    S: Send,
    FMake: Fn(usize) -> S + Sync,
    FWork: Fn(&mut S, &Tile) + Sync,
{
    assert!(threads >= 1, "need at least one worker thread");
    let start = Instant::now();
    let tracer = TileTracer::new(rec, tiles.len());
    let (states, per_thread) = match policy {
        SchedulerPolicy::StaticBlock | SchedulerPolicy::StaticCyclic => {
            let assignment = if policy == SchedulerPolicy::StaticBlock {
                assign_block(tiles.len(), threads)
            } else {
                assign_cyclic(tiles.len(), threads)
            };
            run_workers(
                tiles,
                threads,
                &make_state,
                &work,
                &|tid, nth| assignment[tid].get(nth).copied(),
                &tracer,
            )
        }
        SchedulerPolicy::DynamicCounter => {
            let next = AtomicUsize::new(0);
            run_workers(
                tiles,
                threads,
                &make_state,
                &work,
                // ordering: the counter only claims tile indices — no data
                // is published through it, and the scoped join synchronizes
                // the merged states.
                &|_, _| Some(next.fetch_add(1, Ordering::Relaxed)).filter(|&i| i < tiles.len()),
                &tracer,
            )
        }
    };
    (
        states,
        ExecutionReport {
            elapsed: start.elapsed(),
            per_thread,
        },
    )
}

/// Shared per-run instrumentation state: the recorder plus a cross-thread
/// completion counter driving the progress feed.
struct TileTracer<'a> {
    rec: &'a Recorder,
    done: AtomicUsize,
    total: usize,
}

impl<'a> TileTracer<'a> {
    fn new(rec: &'a Recorder, total: usize) -> Self {
        Self {
            rec,
            done: AtomicUsize::new(0),
            total,
        }
    }

    fn enabled(&self) -> bool {
        self.rec.is_enabled()
    }

    /// Record one completed tile (latency histogram + progress update).
    fn tile_done(&self, dur: Duration) {
        self.rec.observe(HIST_TILE_US, dur);
        // ordering: the counter is telemetry only — progress may be
        // observed slightly stale, nothing synchronizes through it.
        let done = self.done.fetch_add(1, Ordering::Relaxed) + 1;
        self.rec.progress(done, self.total);
    }

    /// Record a worker's total claim count under its thread id.
    fn claims(&self, tid: usize, tiles: usize) {
        if self.enabled() && tiles > 0 {
            self.rec
                .counter_add(&format!("scheduler.claims.t{tid}"), tiles as u64);
        }
    }
}

/// Contiguous chunk assignment: thread `t` gets tile indices
/// `[t·⌈n/T⌉ … (t+1)·⌈n/T⌉)`, clipped.
pub fn assign_block(n: usize, threads: usize) -> Vec<Vec<usize>> {
    let chunk = n.div_ceil(threads.max(1));
    (0..threads)
        .map(|t| {
            let lo = (t * chunk).min(n);
            let hi = ((t + 1) * chunk).min(n);
            (lo..hi).collect()
        })
        .collect()
}

/// Cyclic assignment: thread `t` gets tiles `t, t+T, t+2T, …`.
pub fn assign_cyclic(n: usize, threads: usize) -> Vec<Vec<usize>> {
    (0..threads)
        .map(|t| (t..n).step_by(threads.max(1)).collect())
        .collect()
}

/// Run `threads` workers, worker `tid` on a fresh `make_state(tid)`: its
/// `n`-th tile is `claim(tid, n)`, until that returns `None`. A single
/// worker runs on the calling thread, so a one-thread run spawns nothing.
fn run_workers<S, FMake, FWork>(
    tiles: &[Tile],
    threads: usize,
    make_state: &FMake,
    work: &FWork,
    claim: &(dyn Fn(usize, usize) -> Option<usize> + Sync),
    tracer: &TileTracer<'_>,
) -> (Vec<S>, Vec<ThreadStats>)
where
    S: Send,
    FMake: Fn(usize) -> S + Sync,
    FWork: Fn(&mut S, &Tile) + Sync,
{
    let worker = |tid: usize| {
        let mut state = make_state(tid);
        let mut stats = ThreadStats::default();
        let t0 = Instant::now();
        while let Some(idx) = claim(tid, stats.tiles) {
            let tile = &tiles[idx];
            if tracer.enabled() {
                let t_tile = Instant::now();
                work(&mut state, tile);
                tracer.tile_done(t_tile.elapsed());
            } else {
                work(&mut state, tile);
            }
            stats.tiles += 1;
            stats.pairs += tile.pair_count();
        }
        stats.busy = t0.elapsed();
        tracer.claims(tid, stats.tiles);
        (state, stats)
    };
    if threads == 1 {
        let (state, stats) = worker(0);
        return (vec![state], vec![stats]);
    }
    let worker = &worker;
    cb_thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|tid| scope.spawn(move |_| worker(tid)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker thread panicked"))
            .unzip()
    })
    .expect("scoped execution failed")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tile::TileSpace;
    use std::collections::HashSet;
    use std::sync::Mutex;

    fn space() -> TileSpace {
        TileSpace::new(40, 7)
    }

    #[test]
    fn block_assignment_covers_all_indices_once() {
        for (n, t) in [(10usize, 3usize), (7, 7), (5, 9), (0, 4)] {
            for assign in [assign_block(n, t), assign_cyclic(n, t)] {
                let mut seen = HashSet::new();
                for per_thread in &assign {
                    for &i in per_thread {
                        assert!(seen.insert(i), "index {i} assigned twice");
                    }
                }
                assert_eq!(seen.len(), n);
            }
        }
    }

    #[test]
    fn policy_slugs_round_trip_and_retired_slugs_fail() {
        for policy in SchedulerPolicy::ALL {
            assert_eq!(SchedulerPolicy::from_slug(policy.name()), Some(policy));
        }
        for retired in ["rayon", "rayon-steal", "work-stealing"] {
            assert_eq!(SchedulerPolicy::from_slug(retired), None);
        }
    }

    #[test]
    fn cyclic_interleaves() {
        let a = assign_cyclic(7, 3);
        assert_eq!(a[0], vec![0, 3, 6]);
        assert_eq!(a[1], vec![1, 4]);
        assert_eq!(a[2], vec![2, 5]);
    }

    #[test]
    fn every_policy_executes_each_tile_exactly_once() {
        let sp = space();
        for policy in SchedulerPolicy::ALL {
            let executed = Mutex::new(Vec::<Tile>::new());
            let (_, report) = execute_tiles(
                sp.tiles(),
                4,
                policy,
                |_| (),
                |_, tile| {
                    executed.lock().unwrap().push(*tile);
                },
            );
            let executed = executed.into_inner().unwrap();
            assert_eq!(executed.len(), sp.tiles().len(), "policy {policy:?}");
            let set: HashSet<_> = executed.iter().collect();
            assert_eq!(
                set.len(),
                sp.tiles().len(),
                "policy {policy:?} duplicated a tile"
            );
            assert_eq!(report.total_pairs(), sp.total_pairs(), "policy {policy:?}");
        }
    }

    #[test]
    fn per_thread_states_partition_the_work() {
        let sp = space();
        for policy in SchedulerPolicy::ALL {
            let (states, _) = execute_tiles(
                sp.tiles(),
                3,
                policy,
                |_| 0u64,
                |pairs, tile| {
                    *pairs += tile.pair_count();
                },
            );
            let merged: u64 = states.iter().sum();
            assert_eq!(merged, sp.total_pairs(), "policy {policy:?}");
        }
    }

    #[test]
    fn single_thread_works_for_all_policies() {
        let sp = TileSpace::new(9, 2);
        for policy in SchedulerPolicy::ALL {
            let (states, report) = execute_tiles(
                sp.tiles(),
                1,
                policy,
                |_| 0u64,
                |pairs, tile| *pairs += tile.pair_count(),
            );
            assert_eq!(states.iter().sum::<u64>(), 36);
            assert_eq!(report.total_pairs(), 36);
        }
    }

    #[test]
    fn more_threads_than_tiles_is_fine() {
        let sp = TileSpace::new(4, 4); // one tile
        for policy in SchedulerPolicy::ALL {
            let (states, _) = execute_tiles(
                sp.tiles(),
                8,
                policy,
                |_| 0u64,
                |pairs, tile| *pairs += tile.pair_count(),
            );
            assert_eq!(states.iter().sum::<u64>(), 6);
        }
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_threads_rejected() {
        let sp = space();
        let _ = execute_tiles(
            sp.tiles(),
            0,
            SchedulerPolicy::DynamicCounter,
            |_| (),
            |_, _| (),
        );
    }

    #[test]
    fn report_imbalance_is_at_least_one() {
        let sp = space();
        let (_, report) = execute_tiles(
            sp.tiles(),
            2,
            SchedulerPolicy::DynamicCounter,
            |_| (),
            |_, tile| {
                // Unequal synthetic work so busy times differ.
                let spin = tile.pair_count() * 50;
                let mut acc = 0u64;
                for i in 0..spin {
                    acc = acc.wrapping_add(i);
                }
                std::hint::black_box(acc);
            },
        );
        assert!(report.imbalance() >= 1.0);
        assert_eq!(report.per_thread.len(), 2);
    }

    /// Synthetic spin proportional to a tile's pair count, so busy times
    /// differ measurably across threads.
    fn spin_work(tile: &Tile) {
        let spin = tile.pair_count() * 200;
        let mut acc = 0u64;
        for i in 0..spin {
            acc = acc.wrapping_add(i ^ (i << 3));
        }
        std::hint::black_box(acc);
    }

    #[test]
    fn absorb_accumulates_reports_entrywise() {
        let mut a = ExecutionReport {
            elapsed: Duration::from_millis(10),
            per_thread: vec![ThreadStats {
                tiles: 2,
                pairs: 20,
                busy: Duration::from_millis(8),
            }],
        };
        let b = ExecutionReport {
            elapsed: Duration::from_millis(5),
            per_thread: vec![
                ThreadStats {
                    tiles: 1,
                    pairs: 10,
                    busy: Duration::from_millis(4),
                },
                ThreadStats {
                    tiles: 3,
                    pairs: 30,
                    busy: Duration::from_millis(5),
                },
            ],
        };
        a.absorb(&b);
        assert_eq!(a.elapsed, Duration::from_millis(15));
        assert_eq!(a.per_thread.len(), 2);
        assert_eq!(a.per_thread[0].tiles, 3);
        assert_eq!(a.per_thread[0].pairs, 30);
        assert_eq!(a.per_thread[0].busy, Duration::from_millis(12));
        assert_eq!(a.per_thread[1].tiles, 3);
        assert_eq!(a.total_pairs(), 60);
    }

    #[test]
    fn traced_execution_records_tiles_claims_and_progress() {
        use std::sync::atomic::AtomicUsize as Counter;
        use std::sync::Arc;
        let sp = space();
        for policy in SchedulerPolicy::ALL {
            let max_done = Arc::new(Counter::new(0));
            let max_done2 = Arc::clone(&max_done);
            let total_tiles = sp.tiles().len();
            let rec = gnet_trace::Recorder::enabled_with_progress(move |p| {
                assert_eq!(p.total, total_tiles);
                max_done2.fetch_max(p.done, Ordering::SeqCst);
            });
            let (_, report) = execute_tiles_traced(
                sp.tiles(),
                2,
                policy,
                |_| (),
                |_, tile| spin_work(tile),
                &rec,
            );
            let hist = rec
                .histogram(HIST_TILE_US)
                .expect("tile histogram recorded");
            assert_eq!(hist.count(), total_tiles as u64, "{policy:?}");
            assert_eq!(max_done.load(Ordering::SeqCst), total_tiles, "{policy:?}");
            let claims: u64 = (0..2)
                .filter_map(|t| rec.counter(&format!("scheduler.claims.t{t}")))
                .sum();
            assert_eq!(claims, total_tiles as u64, "{policy:?}");
            assert_eq!(report.total_tiles(), total_tiles);
        }
    }

    #[test]
    fn policy_names_are_stable() {
        assert_eq!(SchedulerPolicy::DynamicCounter.name(), "dynamic");
        assert_eq!(SchedulerPolicy::StaticBlock.name(), "static-block");
        assert_eq!(SchedulerPolicy::StaticCyclic.name(), "static-cyclic");
    }

    #[test]
    fn states_receive_distinct_thread_ids() {
        let sp = space();
        let (states, _) = execute_tiles(
            sp.tiles(),
            4,
            SchedulerPolicy::StaticCyclic,
            |tid| tid,
            |_, _| {},
        );
        let unique: HashSet<_> = states.iter().collect();
        assert_eq!(unique.len(), 4);
    }
}
