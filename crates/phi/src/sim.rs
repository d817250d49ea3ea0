//! List-scheduling simulation of a tile set over a modeled machine.
//!
//! The simulator replays exactly the decomposition the real runtime uses
//! (`gnet-parallel`'s [`TileSpace`](gnet_parallel::TileSpace) tiles and
//! scheduling policies), but instead of executing kernels it charges each
//! tile its modeled duration on the thread that runs it. Durations depend
//! on the thread's SMT residency, so thread-count sweeps reproduce the
//! saturation shape of the paper's scaling figures; dispatch charges the
//! machine's sync cost, so the static/dynamic comparison reproduces the
//! load-imbalance gap.

use crate::machine::MachineModel;
use crate::workload::WorkloadModel;
use gnet_parallel::scheduler::{assign_block, assign_cyclic};
use gnet_parallel::{SchedulerPolicy, Tile};
use gnet_trace::Recorder;
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Seconds of simulated time → whole microseconds for the trace clock.
fn sim_us(secs: f64) -> u64 {
    (secs * 1e6).max(0.0) as u64
}

/// Result of one simulated run.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SimReport {
    /// Simulated end-to-end wall seconds (prep + pairwise stage).
    pub wall_seconds: f64,
    /// Simulated seconds of the one-off preparation stage.
    pub prep_seconds: f64,
    /// Per-thread busy seconds in the pairwise stage.
    pub per_thread_busy: Vec<f64>,
    /// Per-thread tile counts.
    pub per_thread_tiles: Vec<usize>,
    /// Fraction of sustained bandwidth the run demands (> 1 means the
    /// roofline clamped the time).
    pub bandwidth_utilization: f64,
    /// Pairs per wall second.
    pub pair_rate: f64,
}

impl SimReport {
    /// Max-over-mean busy-time imbalance of the pairwise stage.
    pub fn imbalance(&self) -> f64 {
        if self.per_thread_busy.is_empty() {
            return 1.0;
        }
        let max = self.per_thread_busy.iter().cloned().fold(0.0, f64::max);
        let mean = self.per_thread_busy.iter().sum::<f64>() / self.per_thread_busy.len() as f64;
        if mean > 0.0 {
            max / mean
        } else {
            1.0
        }
    }
}

/// Simulate running `tiles` of `workload` on `machine` with `threads`
/// workers under `policy`.
///
/// # Panics
/// Panics if `threads` is zero or exceeds the machine's hardware contexts.
pub fn simulate_tiles(
    tiles: &[Tile],
    machine: &MachineModel,
    workload: &WorkloadModel,
    threads: usize,
    policy: SchedulerPolicy,
) -> SimReport {
    simulate_tiles_traced(
        tiles,
        machine,
        workload,
        threads,
        policy,
        &Recorder::disabled(),
    )
}

/// [`simulate_tiles`] with an instrumentation hook. Events carry
/// *simulated* timestamps (µs of modeled time, not wall time): one
/// `sim.tile` per tile placement (thread, pairs, duration), one
/// `sim.thread` summary per worker, and a final `sim.run` summary.
///
/// # Panics
/// Panics if `threads` is zero or exceeds the machine's hardware contexts.
pub fn simulate_tiles_traced(
    tiles: &[Tile],
    machine: &MachineModel,
    workload: &WorkloadModel,
    threads: usize,
    policy: SchedulerPolicy,
    rec: &Recorder,
) -> SimReport {
    assert!(threads >= 1, "need at least one thread");
    let occupancy = machine.occupancy(threads); // validates the bound

    // Thread t sits on core t % cores; its per-pair time follows from how
    // many threads share that core.
    let pair_secs: Vec<f64> = (0..threads)
        .map(|t| {
            let resident = occupancy[t % machine.cores];
            workload.pair_seconds(machine, resident)
        })
        .collect();
    // Dispatch cost differs by policy: static assignments are computed
    // once up front (no per-tile cost); the shared counter pays one
    // cross-chip atomic round trip per tile.
    let sync = match policy {
        SchedulerPolicy::StaticBlock | SchedulerPolicy::StaticCyclic => 0.0,
        SchedulerPolicy::DynamicCounter => machine.sync_cost_us * 1e-6,
    };

    let (busy, tile_counts) = match policy {
        SchedulerPolicy::StaticBlock => replay_static(
            tiles,
            &pair_secs,
            sync,
            assign_block(tiles.len(), threads),
            rec,
        ),
        SchedulerPolicy::StaticCyclic => replay_static(
            tiles,
            &pair_secs,
            sync,
            assign_cyclic(tiles.len(), threads),
            rec,
        ),
        // The shared counter is list scheduling by construction.
        SchedulerPolicy::DynamicCounter => replay_dynamic(tiles, &pair_secs, sync, rec),
    };

    let pair_wall = busy.iter().cloned().fold(0.0, f64::max);
    let prep_seconds =
        workload.prep_cycles() / (machine.clock_ghz * 1e9 * machine.aggregate_throughput(threads));

    // First-order roofline: every tile streams its touched genes from DRAM
    // once (sparse weights plus the dense expansion of its column genes).
    let bytes_per_gene = workload.samples as f64
        * ((workload.order as f64 * 4.0 + 2.0) + workload.bins_padded(machine) as f64 * 4.0);
    let total_bytes: f64 = tiles
        .iter()
        .map(|t| t.genes_touched() as f64 * bytes_per_gene)
        .sum();
    let demanded_gbs = total_bytes / pair_wall.max(1e-12) / 1e9;
    let bandwidth_utilization = demanded_gbs / machine.stream_bw_gbs;
    let clamped_wall = pair_wall * bandwidth_utilization.max(1.0);

    let total_pairs: u64 = tiles.iter().map(Tile::pair_count).sum();
    let wall_seconds = prep_seconds + clamped_wall;
    if rec.is_enabled() {
        for (t, (&b, &n)) in busy.iter().zip(&tile_counts).enumerate() {
            rec.event_at_us(
                "sim.thread",
                sim_us(b),
                &[
                    ("thread", (t as u64).into()),
                    ("busy_s", b.into()),
                    ("tiles", (n as u64).into()),
                ],
            );
        }
        rec.event_at_us(
            "sim.run",
            sim_us(wall_seconds),
            &[
                ("wall_s", wall_seconds.into()),
                ("prep_s", prep_seconds.into()),
                ("threads", (threads as u64).into()),
                ("tiles", (tiles.len() as u64).into()),
                ("pairs", total_pairs.into()),
                ("bandwidth_utilization", bandwidth_utilization.into()),
            ],
        );
    }
    SimReport {
        wall_seconds,
        prep_seconds,
        per_thread_busy: busy,
        per_thread_tiles: tile_counts,
        bandwidth_utilization,
        pair_rate: total_pairs as f64 / wall_seconds.max(1e-12),
    }
}

fn replay_static(
    tiles: &[Tile],
    pair_secs: &[f64],
    sync: f64,
    assignment: Vec<Vec<usize>>,
    rec: &Recorder,
) -> (Vec<f64>, Vec<usize>) {
    let mut busy = vec![0.0; pair_secs.len()];
    let mut counts = vec![0usize; pair_secs.len()];
    for (t, indices) in assignment.into_iter().enumerate() {
        for idx in indices {
            let start = busy[t];
            busy[t] += sync + tiles[idx].pair_count() as f64 * pair_secs[t];
            counts[t] += 1;
            emit_sim_tile(rec, t, start, busy[t], tiles[idx].pair_count());
        }
    }
    (busy, counts)
}

/// Per-tile placement event on the *simulated* clock.
fn emit_sim_tile(rec: &Recorder, thread: usize, start_s: f64, end_s: f64, pairs: u64) {
    if rec.is_enabled() {
        rec.event_at_us(
            "sim.tile",
            sim_us(start_s),
            &[
                ("thread", (thread as u64).into()),
                ("dur_us", (sim_us(end_s) - sim_us(start_s)).into()),
                ("pairs", pairs.into()),
            ],
        );
    }
}

/// Greedy list scheduling: each tile (in order) goes to the thread that
/// becomes free first — the fluid limit of both the shared-counter scheme
/// and work stealing.
fn replay_dynamic(
    tiles: &[Tile],
    pair_secs: &[f64],
    sync: f64,
    rec: &Recorder,
) -> (Vec<f64>, Vec<usize>) {
    let threads = pair_secs.len();
    let mut busy = vec![0.0f64; threads];
    let mut counts = vec![0usize; threads];
    // Min-heap over (available_time, thread). f64 isn't Ord; scale to
    // integer nanoseconds for the key and keep exact times separately.
    let mut heap: BinaryHeap<Reverse<(u64, usize)>> =
        (0..threads).map(|t| Reverse((0u64, t))).collect();
    for tile in tiles {
        let Reverse((_, t)) = heap.pop().expect("heap holds every thread");
        let start = busy[t];
        busy[t] += sync + tile.pair_count() as f64 * pair_secs[t];
        counts[t] += 1;
        emit_sim_tile(rec, t, start, busy[t], tile.pair_count());
        heap.push(Reverse(((busy[t] * 1e9) as u64, t)));
    }
    (busy, counts)
}

/// Convenience sweep: simulated wall seconds at each thread count
/// (dynamic policy), for speedup curves.
pub fn scaling_curve(
    tiles: &[Tile],
    machine: &MachineModel,
    workload: &WorkloadModel,
    thread_counts: &[usize],
) -> Vec<(usize, f64)> {
    thread_counts
        .iter()
        .map(|&t| {
            (
                t,
                simulate_tiles(tiles, machine, workload, t, SchedulerPolicy::DynamicCounter)
                    .wall_seconds,
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnet_parallel::TileSpace;

    fn small_workload() -> WorkloadModel {
        WorkloadModel {
            genes: 256,
            samples: 500,
            order: 3,
            bins: 10,
            q: 10,
            ..WorkloadModel::arabidopsis_headline()
        }
    }

    fn tiles() -> TileSpace {
        TileSpace::new(256, 32)
    }

    #[test]
    fn more_threads_is_never_slower_under_dynamic() {
        let machine = MachineModel::xeon_phi_5110p();
        let w = small_workload();
        // Fine tiling: enough tiles that even 244 threads are not starved
        // (with fewer tiles than threads, adding SMT residents genuinely
        // slows the run — a real granularity effect, tested separately).
        let sp = TileSpace::new(256, 4);
        let curve = scaling_curve(
            sp.tiles(),
            &machine,
            &w,
            &[1, 2, 4, 8, 16, 32, 61, 122, 244],
        );
        for pair in curve.windows(2) {
            assert!(
                pair[1].1 <= pair[0].1 * 1.01,
                "wall time must not grow with threads: {:?}",
                curve
            );
        }
    }

    #[test]
    fn knc_speedup_curve_has_the_paper_shape() {
        // Near-linear to 61 threads, roughly doubling again at 122, mild
        // gains to 244 — the KNC signature.
        let machine = MachineModel::xeon_phi_5110p();
        let w = small_workload();
        let sp = TileSpace::new(512, 16);
        let curve = scaling_curve(sp.tiles(), &machine, &w, &[1, 61, 122, 244]);
        let s61 = curve[0].1 / curve[1].1;
        let s122 = curve[0].1 / curve[2].1;
        let s244 = curve[0].1 / curve[3].1;
        assert!(s61 > 45.0 && s61 <= 61.5, "61-thread speedup {s61}");
        assert!(
            s122 / s61 > 1.7,
            "second thread/core ≈ doubles: {s122} vs {s61}"
        );
        assert!(
            s244 > s122 && s244 < s122 * 1.35,
            "tail threads help modestly"
        );
    }

    #[test]
    fn dynamic_beats_static_block_with_heterogeneous_threads() {
        // 150 threads on the Phi: 28 cores run 3 SMT threads (slower each),
        // 33 run 2 — static policies give every thread the same tile count
        // regardless of its rate, dynamic adapts.
        let machine = MachineModel::xeon_phi_5110p();
        let w = small_workload();
        let sp = TileSpace::new(300, 8);
        let dynamic = simulate_tiles(
            sp.tiles(),
            &machine,
            &w,
            150,
            SchedulerPolicy::DynamicCounter,
        );
        let static_b = simulate_tiles(sp.tiles(), &machine, &w, 150, SchedulerPolicy::StaticBlock);
        assert!(
            dynamic.wall_seconds < static_b.wall_seconds,
            "dynamic {} vs static {}",
            dynamic.wall_seconds,
            static_b.wall_seconds
        );
        assert!(dynamic.imbalance() <= static_b.imbalance() + 1e-9);
    }

    #[test]
    fn all_tiles_are_charged_exactly_once() {
        let machine = MachineModel::xeon_e5_2670_2s();
        let w = small_workload();
        let sp = tiles();
        for policy in SchedulerPolicy::ALL {
            let rep = simulate_tiles(sp.tiles(), &machine, &w, 8, policy);
            let tiles_run: usize = rep.per_thread_tiles.iter().sum();
            assert_eq!(tiles_run, sp.tiles().len(), "{policy:?}");
        }
    }

    #[test]
    fn prep_time_is_small_but_positive() {
        let machine = MachineModel::xeon_phi_5110p();
        let w = small_workload();
        let rep = simulate_tiles(
            tiles().tiles(),
            &machine,
            &w,
            61,
            SchedulerPolicy::DynamicCounter,
        );
        assert!(rep.prep_seconds > 0.0);
        assert!(
            rep.prep_seconds < rep.wall_seconds * 0.2,
            "preparation must stay a minor share: {} of {}",
            rep.prep_seconds,
            rep.wall_seconds
        );
    }

    #[test]
    fn compute_bound_workload_stays_under_the_roofline() {
        let machine = MachineModel::xeon_phi_5110p();
        let w = small_workload();
        let rep = simulate_tiles(
            tiles().tiles(),
            &machine,
            &w,
            244,
            SchedulerPolicy::DynamicCounter,
        );
        assert!(
            rep.bandwidth_utilization < 1.0,
            "MI at q=10 is compute-bound, got utilization {}",
            rep.bandwidth_utilization
        );
    }

    #[test]
    fn pair_rate_is_consistent_with_wall_time() {
        let machine = MachineModel::xeon_e5_2670_2s();
        let w = small_workload();
        let sp = tiles();
        let rep = simulate_tiles(
            sp.tiles(),
            &machine,
            &w,
            16,
            SchedulerPolicy::DynamicCounter,
        );
        let expected = sp.total_pairs() as f64 / rep.wall_seconds;
        assert!((rep.pair_rate - expected).abs() / expected < 1e-9);
    }

    #[test]
    fn traced_simulation_emits_simulated_time_events() {
        let machine = MachineModel::xeon_e5_2670_2s();
        let w = small_workload();
        let sp = tiles();
        for policy in SchedulerPolicy::ALL {
            let rec = Recorder::enabled();
            let rep = simulate_tiles_traced(sp.tiles(), &machine, &w, 8, policy, &rec);
            assert_eq!(rec.event_count("sim.tile"), sp.tiles().len(), "{policy:?}");
            assert_eq!(rec.event_count("sim.thread"), 8, "{policy:?}");
            assert_eq!(rec.event_count("sim.run"), 1, "{policy:?}");
            // Tracing must not perturb the model.
            let plain = simulate_tiles(sp.tiles(), &machine, &w, 8, policy);
            assert_eq!(rep, plain, "{policy:?}");
        }
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_rejected() {
        let machine = MachineModel::xeon_phi_5110p();
        let w = small_workload();
        let _ = simulate_tiles(
            tiles().tiles(),
            &machine,
            &w,
            0,
            SchedulerPolicy::DynamicCounter,
        );
    }
}
