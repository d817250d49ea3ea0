//! Oracle family 6: incremental updates vs the batch rebuild.
//!
//! The incremental engine ([`gnet_core::apply_update`], the machinery
//! behind `gnet update`) promises that appending genes or samples to a
//! saved [`NetworkState`] yields the *bit-identical* state a from-scratch
//! [`build_state`] over the concatenated dataset produces — candidates,
//! pooled null, threshold, edges, everything. This oracle states
//! that promise over the whole conformance corpus:
//!
//! 1. **Gene leg** (datasets with ≥ 3 genes): split the gene set into a
//!    prefix and an appended tail, build the prefix state, apply the
//!    append, and demand bitwise equality with the batch state — plus
//!    that the update scanned exactly the frontier,
//!    `g·(N−g) + g·(g−1)/2` pairs, never the full `N(N−1)/2`.
//! 2. **Sample leg** (datasets with ≥ 3 samples): same contract for a
//!    sample-block append, whose rank merge must reproduce a full
//!    re-sort exactly (the pair scan legitimately covers all pairs).
//! 3. **Cross-executor**: the updated state's edge list must match the
//!    tiled parallel pipeline under every scheduler policy and the
//!    `{2,4}`-rank ring byte for byte, with a bit-identical pooled
//!    threshold.
//!
//! [`mutated_incremental_oracle`] swaps in
//! [`gnet_core::apply_update_mutated`] — the `--self-check` path that
//! proves each seeded incremental-engine defect (stale rank cache,
//! skipped frontier tile, unrefreshed null moments) is caught here.

use crate::corpus::DatasetSpec;
use crate::differential::{edge_bytes, ring, OracleOutcome};
use crate::TolerancePolicy;
use gnet_cluster::RankRun;
use gnet_core::{
    apply_update, apply_update_mutated, build_state, infer_network, InferenceConfig, NetworkState,
    UpdateMode, UpdateMutation,
};
use gnet_expr::{ExpressionMatrix, MissingPolicy};
use gnet_parallel::SchedulerPolicy;

/// Estimator configuration for the incremental differential — the
/// exact-full-null shape `gnet infer --save-state` runs, on two threads.
/// Small `q` keeps the corpus sweep fast without weakening the bitwise
/// contract.
fn update_config() -> InferenceConfig {
    InferenceConfig {
        permutations: 6,
        threads: Some(2),
        ..InferenceConfig::default()
    }
}

/// Prefix length for splitting a dimension of size `d` into
/// base + appended tail: keep two thirds (at least all-but-one), append
/// the rest. `None` when `d` cannot be split without a degenerate base
/// (both the state and the batch reference need ≥ 2 of each dimension).
fn head_count(d: usize) -> Option<usize> {
    if d < 3 {
        None
    } else {
        Some(d - (d / 3).max(1))
    }
}

/// Columns `from..` of `matrix` as their own matrix, gene names
/// preserved — the shape a sample-append TSV would load to.
fn sample_suffix(matrix: &ExpressionMatrix, from: usize) -> ExpressionMatrix {
    let mut flat = Vec::with_capacity(matrix.genes() * (matrix.samples() - from));
    for g in 0..matrix.genes() {
        flat.extend_from_slice(&matrix.gene(g)[from..]);
    }
    let mut suffix = ExpressionMatrix::from_flat(
        matrix.genes(),
        matrix.samples() - from,
        flat,
        MissingPolicy::Error,
    )
    .unwrap_or_else(|e| unreachable!("column suffix of a valid matrix is valid: {e}"));
    suffix
        .set_gene_names(matrix.gene_names().to_vec())
        .unwrap_or_else(|e| unreachable!("names carry over unchanged: {e}"));
    suffix
}

/// First divergence between the batch-built state and the incrementally
/// updated one, rendered for the report; `None` when bit-identical.
fn diff_states(batch: &NetworkState, incr: &NetworkState) -> Option<String> {
    let (incr_scan, batch_scan) = (&incr.scan, &batch.scan);
    if incr_scan.candidates.len() != batch_scan.candidates.len() {
        return Some(format!(
            "candidate count {} != batch {}",
            incr_scan.candidates.len(),
            batch_scan.candidates.len()
        ));
    }
    for (a, b) in incr_scan.candidates.iter().zip(&batch_scan.candidates) {
        if a.0 != b.0 || a.1 != b.1 || a.2.to_bits() != b.2.to_bits() {
            return Some(format!(
                "candidate ({},{}) MI {} != batch ({},{}) MI {} (bitwise)",
                a.0, a.1, a.2, b.0, b.1, b.2
            ));
        }
    }
    if incr_scan.pooled != batch_scan.pooled {
        let (ip, bp) = (&incr_scan.pooled, &batch_scan.pooled);
        return Some(format!(
            "pooled null diverged: {} nulls mean {} != batch {} nulls mean {} (bitwise)",
            ip.count(),
            ip.mean(),
            bp.count(),
            bp.mean()
        ));
    }
    if incr.threshold().to_bits() != batch.threshold().to_bits() {
        return Some(format!(
            "threshold {} != batch {} (bitwise)",
            incr.threshold(),
            batch.threshold()
        ));
    }
    if incr != batch {
        return Some("state bundles differ outside candidates/pooled/threshold".into());
    }
    None
}

/// The clean family-6 oracle: real incremental engine vs batch rebuild.
pub(crate) fn incremental_oracle(spec: &DatasetSpec, _tol: &TolerancePolicy) -> OracleOutcome {
    incremental_with(spec, None)
}

/// Family-6 oracle with one seeded incremental-engine defect standing in
/// for [`apply_update`] — the self-check must see a violation.
pub(crate) fn mutated_incremental_oracle(
    spec: &DatasetSpec,
    mutation: UpdateMutation,
) -> OracleOutcome {
    incremental_with(spec, Some(mutation))
}

fn incremental_with(spec: &DatasetSpec, mutation: Option<UpdateMutation>) -> OracleOutcome {
    let matrix = spec.build();
    let batch = build_state(&matrix, &update_config());
    let mut checks = 0;
    let mut updated_state = None;

    // (mode, base state, appended block, expected pair-scan size).
    let mut legs: Vec<(UpdateMode, NetworkState, ExpressionMatrix, u64)> = Vec::new();
    if let Some(k) = head_count(matrix.genes()) {
        let head: Vec<usize> = (0..k).collect();
        let tail: Vec<usize> = (k..matrix.genes()).collect();
        let g = tail.len();
        legs.push((
            UpdateMode::Genes,
            build_state(&matrix.select_genes(&head), &update_config()),
            matrix.select_genes(&tail),
            // The frontier: g·(N−g) + g·(g−1)/2 with N − g = k old genes.
            (g * k + g * (g - 1) / 2) as u64,
        ));
    }
    if let Some(k) = head_count(matrix.samples()) {
        let n = matrix.genes();
        legs.push((
            UpdateMode::Samples,
            build_state(&matrix.truncate_samples(k), &update_config()),
            sample_suffix(&matrix, k),
            // Every pair's MI depends on every sample: full rescan.
            (n * (n - 1) / 2) as u64,
        ));
    }

    for (mode, base, append, expected_pairs) in legs {
        let applied = match mutation {
            None => apply_update(&base, &append, mode),
            Some(m) => apply_update_mutated(&base, &append, mode, m),
        };
        let (updated, stats) = match applied {
            Ok(r) => r,
            Err(e) => {
                return OracleOutcome::fail(
                    checks + 1,
                    format!("{mode} append failed to apply: {e}"),
                )
            }
        };
        checks += 1;
        if stats.pairs_scanned != expected_pairs {
            return OracleOutcome::fail(
                checks,
                format!(
                    "{mode} append scanned {} pairs; the frontier is {expected_pairs}",
                    stats.pairs_scanned
                ),
            );
        }
        checks += 1;
        if let Some(diff) = diff_states(&batch, &updated) {
            return OracleOutcome::fail(checks, format!("{mode} append vs batch rebuild: {diff}"));
        }
        updated_state = Some(updated);
    }

    // Cross-executor legs: the updated state must agree with the tiled
    // parallel pipeline and the rank ring exactly as a batch run would.
    let Some(updated) = updated_state else {
        // 2×2 shrink floor: neither dimension splits; nothing to check.
        return OracleOutcome::clean(checks);
    };
    let updated_bytes = edge_bytes(&updated.network());
    let threshold = updated.threshold();
    for policy in SchedulerPolicy::ALL {
        let run = infer_network(
            &matrix,
            &InferenceConfig {
                scheduler: policy,
                threads: Some(2),
                tile_size: Some(3),
                ..update_config()
            },
        );
        checks += 1;
        if edge_bytes(&run.network) != updated_bytes {
            return OracleOutcome::fail(
                checks,
                format!(
                    "updated state vs tiled pipeline (policy {}): serialized edge lists differ",
                    policy.name()
                ),
            );
        }
        if run.stats.threshold.to_bits() != threshold.to_bits() {
            return OracleOutcome::fail(
                checks,
                format!(
                    "updated threshold {threshold} != policy {} threshold {} (bitwise)",
                    policy.name(),
                    run.stats.threshold
                ),
            );
        }
    }
    for ranks in [2usize, 4] {
        if ranks > matrix.genes() {
            continue;
        }
        let run = ring(&matrix, &update_config(), &RankRun::new(ranks));
        checks += 1;
        if edge_bytes(&run.network) != updated_bytes {
            return OracleOutcome::fail(
                checks,
                format!("updated state vs {ranks}-rank ring: serialized edge lists differ"),
            );
        }
        if run.threshold.to_bits() != threshold.to_bits() {
            return OracleOutcome::fail(
                checks,
                format!(
                    "updated threshold {threshold} != {ranks}-rank threshold {} (bitwise)",
                    run.threshold
                ),
            );
        }
    }
    OracleOutcome::clean(checks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::DatasetClass;

    fn tol() -> TolerancePolicy {
        TolerancePolicy::default()
    }

    #[test]
    fn clean_engine_is_green_on_a_coupled_dataset() {
        let spec = DatasetSpec {
            class: DatasetClass::CoupledLinear,
            genes: 4,
            samples: 16,
            seed: 11,
        };
        let outcome = incremental_oracle(&spec, &tol());
        assert!(outcome.violation.is_none(), "{:?}", outcome.violation);
        // 2 legs × (frontier + state) checks, 3 scheduler legs, 2 ring legs.
        assert_eq!(outcome.checks, 9);
    }

    #[test]
    fn degenerate_shapes_skip_only_the_impossible_legs() {
        // Two samples: the sample leg cannot split, the gene leg must run.
        let tiny = DatasetSpec {
            class: DatasetClass::TinySamples,
            genes: 6,
            samples: 2,
            seed: 7,
        };
        let outcome = incremental_oracle(&tiny, &tol());
        assert!(outcome.violation.is_none(), "{:?}", outcome.violation);
        assert!(outcome.checks >= 2);

        // The 2×2 shrink floor: nothing splits, vacuously clean.
        let floor = DatasetSpec {
            class: DatasetClass::IndependentGaussian,
            genes: 2,
            samples: 2,
            seed: 7,
        };
        let outcome = incremental_oracle(&floor, &tol());
        assert!(outcome.violation.is_none());
        assert_eq!(outcome.checks, 0);
    }

    #[test]
    fn constant_and_tied_profiles_stay_bitwise_equal() {
        for class in [DatasetClass::ConstantGenes, DatasetClass::TiedRanks] {
            let spec = DatasetSpec {
                class,
                genes: 5,
                samples: 12,
                seed: 3,
            };
            let outcome = incremental_oracle(&spec, &tol());
            assert!(
                outcome.violation.is_none(),
                "{class:?}: {:?}",
                outcome.violation
            );
        }
    }

    #[test]
    fn every_update_mutation_is_caught_on_a_single_spec() {
        let spec = DatasetSpec {
            class: DatasetClass::IndependentGaussian,
            genes: 4,
            samples: 16,
            seed: 5,
        };
        for mutation in UpdateMutation::ALL {
            let outcome = mutated_incremental_oracle(&spec, mutation);
            assert!(
                outcome.violation.is_some(),
                "{} escaped the incremental oracle",
                mutation.name()
            );
        }
    }
}
