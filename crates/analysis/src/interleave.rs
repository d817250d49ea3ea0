//! Deterministic concurrency checker for the tile executor.
//!
//! The scheduler module promises that the merged result of a tiled MI
//! computation is *bitwise identical* across every
//! [`SchedulerPolicy`] and thread count, because each pair's MI is
//! computed independently and the per-thread states partition the pair
//! set. This harness makes that promise executable: it runs a real
//! B-spline MI computation over a seeded synthetic expression matrix
//! under every policy × thread-count combination, injecting seeded
//! random delays after each tile to randomize completion order, and
//! compares every merged matrix bit-for-bit against a single-threaded
//! reference.
//!
//! A failure is a real race or nondeterminism (duplicated tile, lost
//! pair, order-dependent accumulation) and reports the first divergent
//! pair with both bit patterns.

use gnet_bspline::BsplineBasis;
use gnet_mi::{mi_scalar, prepare_gene, MiScratch, PreparedGene};
use gnet_parallel::{execute_tiles, SchedulerPolicy, TileSpace};
use std::fmt;
use std::time::Duration;

/// Harness parameters.
#[derive(Clone, Debug)]
pub struct InterleaveConfig {
    /// Genes in the synthetic matrix.
    pub genes: usize,
    /// Samples per gene.
    pub samples: usize,
    /// Tile edge length.
    pub tile: usize,
    /// Thread counts to exercise (each × every policy).
    pub threads: Vec<usize>,
    /// Seeded repetitions of the full policy × thread sweep.
    pub runs: usize,
    /// Base seed; run `r` perturbs it deterministically.
    pub seed: u64,
    /// Upper bound on the injected per-tile delay, in microseconds.
    pub max_delay_us: u64,
}

impl Default for InterleaveConfig {
    fn default() -> Self {
        Self {
            genes: 32,
            samples: 48,
            tile: 8,
            threads: vec![1, 2, 4, 8],
            runs: 8,
            seed: 0x5eed_1e55_ab1e,
            max_delay_us: 40,
        }
    }
}

/// Summary of a passing check.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct InterleaveOutcome {
    /// Seeded repetitions executed.
    pub runs: usize,
    /// Policy × thread-count executions compared against the reference.
    pub checks: usize,
    /// Gene pairs verified per execution.
    pub pairs: u64,
}

/// First divergence found by the checker.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct InterleaveError {
    /// Policy under which the divergence appeared.
    pub policy: &'static str,
    /// Worker thread count.
    pub threads: usize,
    /// Seeded run index.
    pub run: usize,
    /// What went wrong, including the pair and both bit patterns.
    pub detail: String,
}

impl fmt::Display for InterleaveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "scheduler determinism violated (policy {}, {} threads, run {}): {}",
            self.policy, self.threads, self.run, self.detail
        )
    }
}

impl std::error::Error for InterleaveError {}

/// SplitMix64 step — the same generator the pipeline uses for seeding,
/// reimplemented here so the harness stays independent of `rand`.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Deterministic synthetic profiles in `[0, 1)`, with enough pairwise
/// structure (shared low-frequency component) that MI values exercise
/// the full accumulation path rather than collapsing to near-zero.
fn synthetic_profiles(genes: usize, samples: usize, seed: u64) -> Vec<Vec<f32>> {
    let mut state = seed ^ 0xa076_1d64_78bd_642f;
    let shared: Vec<f64> = (0..samples)
        .map(|_| (splitmix(&mut state) >> 11) as f64 / (1u64 << 53) as f64)
        .collect();
    (0..genes)
        .map(|g| {
            let mix = 0.2 + 0.6 * (g as f64 / genes.max(1) as f64);
            (0..samples)
                .map(|s| {
                    let noise = (splitmix(&mut state) >> 11) as f64 / (1u64 << 53) as f64;
                    // cast-ok: profiles are f32 like real expression data;
                    // rounding here is part of fixture generation.
                    #[allow(clippy::cast_possible_truncation)]
                    let value = ((1.0 - mix) * noise + mix * shared[s]) as f32;
                    value
                })
                .collect()
        })
        .collect()
}

fn prepare(cfg: &InterleaveConfig) -> Vec<PreparedGene> {
    let basis = BsplineBasis::new(3, 8);
    synthetic_profiles(cfg.genes, cfg.samples, cfg.seed)
        .iter()
        .map(|profile| prepare_gene(profile, &basis))
        .collect()
}

/// Index of pair `(i, j)` (`i < j`) in a packed upper triangle of `n`.
fn pair_slot(i: u32, j: u32, n: usize) -> usize {
    let (i, j) = (i as usize, j as usize);
    i * n - i * (i + 1) / 2 + (j - i - 1)
}

/// Single-threaded reference: MI bits for every pair, in packed order.
fn reference_bits(prepared: &[PreparedGene]) -> Vec<u64> {
    let mut scratch = MiScratch::for_basis(&BsplineBasis::new(3, 8));
    let n = prepared.len();
    let mut out = Vec::with_capacity(n * (n - 1) / 2);
    for i in 0..n {
        for j in i + 1..n {
            out.push(mi_scalar(&prepared[i], &prepared[j], &mut scratch).to_bits());
        }
    }
    out
}

/// Run the full sweep; returns the first divergence as an error.
///
/// # Errors
/// Returns [`InterleaveError`] describing the first policy × thread
/// combination whose merged matrix differs from the reference.
///
/// # Panics
/// Panics if `cfg.genes < 2` or `cfg.threads` is empty.
pub fn check_determinism(cfg: &InterleaveConfig) -> Result<InterleaveOutcome, InterleaveError> {
    assert!(cfg.genes >= 2, "need at least two genes");
    assert!(!cfg.threads.is_empty(), "need at least one thread count");
    let prepared = prepare(cfg);
    let reference = reference_bits(&prepared);
    let space = TileSpace::new(cfg.genes, cfg.tile);
    let n = cfg.genes;
    let mut checks = 0usize;

    for run in 0..cfg.runs {
        for policy in SchedulerPolicy::ALL {
            for &threads in &cfg.threads {
                // Per-(run, policy, threads) delay seed: completion order
                // is shuffled differently in every execution.
                let delay_seed = cfg
                    .seed
                    .wrapping_add((run as u64) << 32)
                    .wrapping_add((threads as u64) << 8)
                    .wrapping_add(policy as u64);
                let (states, _report) = execute_tiles(
                    space.tiles(),
                    threads,
                    policy,
                    |_tid| (MiScratch::for_basis(&BsplineBasis::new(3, 8)), Vec::new()),
                    |(scratch, acc): &mut (MiScratch, Vec<(u32, u32, u64)>), tile| {
                        for (i, j) in tile.pairs() {
                            let mi =
                                mi_scalar(&prepared[i as usize], &prepared[j as usize], scratch);
                            acc.push((i, j, mi.to_bits()));
                        }
                        if cfg.max_delay_us > 0 {
                            let mut h = delay_seed
                                ^ ((u64::from(tile.row_start) << 20) | u64::from(tile.col_start));
                            let us = splitmix(&mut h) % cfg.max_delay_us;
                            std::thread::sleep(Duration::from_micros(us));
                        }
                    },
                );
                checks += 1;

                // Merge exactly the way the pipeline does: concatenate
                // per-thread candidate lists, then place by pair key.
                let mut merged: Vec<Option<u64>> = vec![None; reference.len()];
                let mut total = 0usize;
                for (_, acc) in &states {
                    for &(i, j, bits) in acc {
                        let slot = pair_slot(i, j, n);
                        if merged[slot].is_some() {
                            return Err(InterleaveError {
                                policy: policy.name(),
                                threads,
                                run,
                                detail: format!("pair ({i}, {j}) computed twice"),
                            });
                        }
                        merged[slot] = Some(bits);
                        total += 1;
                    }
                }
                if total != reference.len() {
                    return Err(InterleaveError {
                        policy: policy.name(),
                        threads,
                        run,
                        detail: format!("{total} pairs merged, expected {}", reference.len()),
                    });
                }
                let n32 = u32::try_from(n).expect("fixture gene count fits u32");
                for i in 0..n32 {
                    for j in i + 1..n32 {
                        let slot = pair_slot(i, j, n);
                        let got = merged[slot].expect("slot filled: total count verified");
                        let want = reference[slot];
                        if got != want {
                            return Err(InterleaveError {
                                policy: policy.name(),
                                threads,
                                run,
                                detail: format!(
                                    "pair ({i}, {j}) diverged: got bits {got:#018x} \
                                     ({}), reference {want:#018x} ({})",
                                    f64::from_bits(got),
                                    f64::from_bits(want)
                                ),
                            });
                        }
                    }
                }
            }
        }
    }
    Ok(InterleaveOutcome {
        runs: cfg.runs,
        checks,
        pairs: (n * (n - 1) / 2) as u64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_sweep_is_deterministic() {
        let cfg = InterleaveConfig {
            runs: 2,
            ..InterleaveConfig::default()
        };
        let outcome = check_determinism(&cfg).expect("schedulers are deterministic");
        assert_eq!(outcome.runs, 2);
        assert_eq!(
            outcome.checks,
            2 * SchedulerPolicy::ALL.len() * cfg.threads.len()
        );
        assert_eq!(outcome.pairs, 32 * 31 / 2);
    }

    #[test]
    fn pair_slot_is_a_bijection() {
        let n = 9usize;
        let n32 = 9u32;
        let mut seen = vec![false; n * (n - 1) / 2];
        for i in 0..n32 {
            for j in i + 1..n32 {
                let s = pair_slot(i, j, n);
                assert!(!seen[s], "slot {s} reused at ({i}, {j})");
                seen[s] = true;
            }
        }
        assert!(seen.iter().all(|&b| b));
    }

    #[test]
    fn profiles_are_seed_deterministic() {
        let a = synthetic_profiles(6, 20, 42);
        let b = synthetic_profiles(6, 20, 42);
        let c = synthetic_profiles(6, 20, 43);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn delays_do_not_change_results() {
        let quiet = InterleaveConfig {
            runs: 1,
            max_delay_us: 0,
            ..InterleaveConfig::default()
        };
        let noisy = InterleaveConfig {
            runs: 1,
            max_delay_us: 120,
            ..InterleaveConfig::default()
        };
        assert!(check_determinism(&quiet).is_ok());
        assert!(check_determinism(&noisy).is_ok());
    }
}
