//! Differential & metamorphic conformance harness.
//!
//! `gnet-conformance` drives a seeded, replayable corpus
//! ([`corpus::corpus`]) through six oracle families and reports
//! machine-readable verdicts ([`report::ConformanceReport`]):
//!
//! | family        | oracle                                              | grade      |
//! |---------------|-----------------------------------------------------|------------|
//! | `kernel`      | `ScalarSparse` vs `VectorDense`, observed + nulls,  | tolerance  |
//! |               | repeated per supported SIMD dispatch backend        |            |
//! | `scheduler`   | 3 policies × thread counts vs serial baseline       | bitwise    |
//! | `distributed` | `{1,2,4,8}` ranks × `{1,3}` threads per rank, TCP   | bytewise   |
//! |               | ranks at 2 threads (edge bytes, `I*` bits)          |            |
//! | `recovery`    | resume-from-checkpoint & rank-crash vs clean runs   | bitwise    |
//! | `metamorphic` | symmetry, monotone/permutation invariance, self-MI, | mixed (see |
//! |               | non-negativity, independence-null consistency       | module)    |
//! | `incremental` | gene/sample appends vs batch rebuild, frontier pair | bitwise    |
//! |               | count, tiled schedulers, `{2,4}`-rank ring          |            |
//!
//! Failures shrink to a minimal dataset ([`shrink`]) and the report
//! carries the replay seed that rebuilds it. [`run_self_check`] closes
//! the loop: it injects the four kernel mutations from
//! [`gnet_mi::mutation`] and the two incremental-update mutations from
//! [`gnet_core::UpdateMutation`], asserting the matching oracle catches
//! each one — a harness that cannot detect a sabotaged implementation is
//! itself broken.

#![warn(missing_docs)]

pub mod corpus;
mod differential;
mod incremental;
mod metamorphic;
pub mod report;
mod shrink;

pub use corpus::{corpus, DatasetClass, DatasetSpec, Level};
pub use report::{ConformanceReport, FamilyReport, MutationOutcome, SelfCheck, Violation};

use differential::{
    distributed_oracle, kernel_oracle, kernel_oracle_with, recovery_oracle, scheduler_oracle,
    OracleOutcome,
};
use gnet_core::UpdateMutation;
use gnet_mi::mutation::{KernelMutation, MutatedVectorKernel};
use incremental::{incremental_oracle, mutated_incremental_oracle};
use metamorphic::metamorphic_oracle;
use serde::Serialize;

/// Absolute tolerances the oracles enforce, stated once and embedded in
/// every report so a verdict is interpretable without the source.
///
/// Each bound is anchored to an existing promise in the repo rather than
/// chosen ad hoc:
///
/// * `kernel_abs` — the scalar and vector kernels accumulate the same
///   f32 joint histogram in different summation orders; the pipeline's
///   own cross-kernel tests bound the drift at `2e-4` nats and the
///   conformance harness holds the same line.
/// * `symmetry_abs` — `I(X;Y)` vs `I(Y;X)` differ only by a transposed
///   accumulation order of one kernel, an order of magnitude tighter
///   than cross-kernel drift: `1e-5` nats.
/// * `joint_perm_abs` — reordering samples permutes f32 additions within
///   one kernel; slightly looser than symmetry because the marginal
///   entropies are also re-accumulated: `5e-5` nats.
/// * `self_mi_abs` — `I(X;X) = H(X)` holds exactly for the order-1
///   (hard histogram) basis; `1e-4` absorbs the f64 log/entropy
///   round-off on degenerate marginals.
/// * `nonneg_floor` — plug-in MI is a KL divergence, non-negative up to
///   estimator round-off; anything below `-1e-3` nats is structural.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct TolerancePolicy {
    /// Scalar-vs-vector kernel divergence bound (nats).
    pub kernel_abs: f64,
    /// `I(X;Y)` vs `I(Y;X)` divergence bound (nats).
    pub symmetry_abs: f64,
    /// Joint-sample-permutation divergence bound (nats).
    pub joint_perm_abs: f64,
    /// `|I(X;X) − H(X)|` bound at spline order 1 (nats).
    pub self_mi_abs: f64,
    /// Most negative MI accepted as round-off (nats).
    pub nonneg_floor: f64,
}

impl Default for TolerancePolicy {
    fn default() -> Self {
        Self {
            kernel_abs: 2e-4,
            symmetry_abs: 1e-5,
            joint_perm_abs: 5e-5,
            self_mi_abs: 1e-4,
            nonneg_floor: -1e-3,
        }
    }
}

/// Everything a conformance run is parameterized by. Two runs with equal
/// options produce byte-identical reports.
#[derive(Clone, Copy, Debug)]
pub struct ConformanceOptions {
    /// Base corpus seed; the report echoes it as the whole-run replay.
    pub seed: u64,
    /// Corpus size ([`Level::Quick`] for PR smoke, [`Level::Full`] for
    /// the nightly matrix).
    pub level: Level,
    /// Oracle tolerances.
    pub tolerances: TolerancePolicy,
}

impl Default for ConformanceOptions {
    fn default() -> Self {
        Self {
            seed: 0x636F_6E66, // "conf"
            level: Level::Quick,
            tolerances: TolerancePolicy::default(),
        }
    }
}

type Oracle = fn(&DatasetSpec, &TolerancePolicy) -> OracleOutcome;

/// The six families, in report order.
const FAMILIES: [(&str, Oracle); 6] = [
    ("kernel", kernel_oracle),
    ("scheduler", scheduler_oracle),
    ("distributed", distributed_oracle),
    ("recovery", recovery_oracle),
    ("metamorphic", metamorphic_oracle),
    ("incremental", incremental_oracle),
];

/// Run one family over a spec list, shrinking every failure.
fn run_family(
    family: &str,
    oracle: Oracle,
    specs: &[DatasetSpec],
    tol: &TolerancePolicy,
) -> FamilyReport {
    let mut checks = 0;
    let mut violations = Vec::new();
    for spec in specs {
        let outcome = oracle(spec, tol);
        checks += outcome.checks;
        if outcome.violation.is_some() {
            let shrunk = shrink::shrink_spec(*spec, &mut |s| oracle(s, tol).violation.is_some());
            let detail = oracle(&shrunk, tol)
                .violation
                .unwrap_or_else(|| unreachable!("shrinker only returns failing specs"));
            violations.push(Violation {
                family: family.to_owned(),
                dataset: spec.replay(),
                shrunk_replay: shrunk.replay(),
                shrunk_genes: shrunk.genes,
                shrunk_samples: shrunk.samples,
                detail,
            });
        }
    }
    FamilyReport {
        family: family.to_owned(),
        datasets: specs.len(),
        checks,
        violations,
    }
}

fn assemble(
    opts: &ConformanceOptions,
    level: &str,
    families: Vec<FamilyReport>,
    self_check: Option<SelfCheck>,
) -> ConformanceReport {
    let pass =
        families.iter().all(FamilyReport::pass) && self_check.as_ref().is_none_or(|sc| sc.pass);
    ConformanceReport {
        format: "gnet-conformance".to_owned(),
        version: 1,
        level: level.to_owned(),
        seed: opts.seed,
        tolerances: opts.tolerances,
        families,
        self_check,
        pass,
    }
}

fn run_families(opts: &ConformanceOptions, specs: &[DatasetSpec]) -> Vec<FamilyReport> {
    FAMILIES
        .iter()
        .map(|(name, oracle)| run_family(name, *oracle, specs, &opts.tolerances))
        .collect()
}

/// Run all six oracle families over the seeded corpus.
pub fn run_conformance(opts: &ConformanceOptions) -> ConformanceReport {
    let specs = corpus(opts.level, opts.seed);
    let families = run_families(opts, &specs);
    assemble(opts, opts.level.slug(), families, None)
}

/// Re-run all six families on one replayed dataset (the `--replay`
/// path: feed a failure's `shrunk_replay` string back in).
pub fn run_replay(opts: &ConformanceOptions, spec: DatasetSpec) -> ConformanceReport {
    let families = run_families(opts, std::slice::from_ref(&spec));
    assemble(opts, "replay", families, None)
}

/// Kernel oracle with one injected mutation standing in for the vector
/// kernel. A fresh mutated kernel per invocation keeps the predicate
/// pure, which the shrinker requires.
fn mutated_kernel_oracle(
    spec: &DatasetSpec,
    tol: &TolerancePolicy,
    mutation: KernelMutation,
) -> OracleOutcome {
    let mut kernel = MutatedVectorKernel::new(mutation);
    kernel_oracle_with(spec, tol, &mut |x, y, yd| kernel.mi(x, y, yd))
}

/// Hunt one injected mutation across the corpus: find the first spec the
/// mutated oracle fails on, shrink it, and report the catch — or report
/// the blind spot when no spec exposes the defect.
fn mutation_outcome(
    specs: &[DatasetSpec],
    name: &str,
    oracle: &mut dyn FnMut(&DatasetSpec) -> OracleOutcome,
) -> MutationOutcome {
    let caught = specs
        .iter()
        .find(|spec| oracle(spec).violation.is_some())
        .copied();
    match caught {
        Some(spec) => {
            let shrunk = shrink::shrink_spec(spec, &mut |s| oracle(s).violation.is_some());
            let detail = oracle(&shrunk)
                .violation
                .unwrap_or_else(|| unreachable!("shrinker only returns failing specs"));
            MutationOutcome {
                mutation: name.to_owned(),
                detected: true,
                replay: shrunk.replay(),
                shrunk_genes: shrunk.genes,
                shrunk_samples: shrunk.samples,
                detail,
            }
        }
        None => MutationOutcome {
            mutation: name.to_owned(),
            detected: false,
            replay: String::new(),
            shrunk_genes: 0,
            shrunk_samples: 0,
            detail: String::new(),
        },
    }
}

/// The harness turned on itself: run the clean corpus, then inject each
/// kernel mutation from [`gnet_mi::mutation`] and each incremental-update
/// mutation from [`gnet_core::UpdateMutation`], demanding the matching
/// oracle (family 1 / family 6) catches it — complete with a shrunk
/// counterexample and replay seed, exactly as a real regression would be
/// reported.
pub fn run_self_check(opts: &ConformanceOptions) -> ConformanceReport {
    let specs = corpus(opts.level, opts.seed);
    let families = run_families(opts, &specs);
    let clean_pass = families.iter().all(FamilyReport::pass);

    let mut mutations = Vec::new();
    for mutation in KernelMutation::ALL {
        mutations.push(mutation_outcome(&specs, mutation.name(), &mut |s| {
            mutated_kernel_oracle(s, &opts.tolerances, mutation)
        }));
    }
    for mutation in UpdateMutation::ALL {
        mutations.push(mutation_outcome(&specs, mutation.name(), &mut |s| {
            mutated_incremental_oracle(s, mutation)
        }));
    }

    let pass = clean_pass && mutations.iter().all(|m| m.detected);
    let self_check = SelfCheck {
        clean_pass,
        mutations,
        pass,
    };
    assemble(opts, opts.level.slug(), families, Some(self_check))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_opts() -> ConformanceOptions {
        ConformanceOptions::default()
    }

    #[test]
    fn replay_run_is_green_on_a_healthy_dataset() {
        let spec = DatasetSpec {
            class: DatasetClass::CoupledLinear,
            genes: 4,
            samples: 16,
            seed: 11,
        };
        let report = run_replay(&quick_opts(), spec);
        assert!(report.pass, "{}", report.render_text());
        assert_eq!(report.level, "replay");
        assert_eq!(report.families.len(), 6);
        assert!(report.families.iter().all(|f| f.datasets == 1));
        assert!(report.families.iter().all(|f| f.checks > 0));
    }

    #[test]
    fn every_mutation_is_caught_on_a_single_gaussian_spec() {
        // Cheap single-dataset version of the full self-check (which the
        // CLI acceptance run exercises end to end over the whole corpus).
        let spec = DatasetSpec {
            class: DatasetClass::IndependentGaussian,
            genes: 4,
            samples: 33,
            seed: 5,
        };
        let tol = TolerancePolicy::default();
        for mutation in KernelMutation::ALL {
            let outcome = mutated_kernel_oracle(&spec, &tol, mutation);
            assert!(
                outcome.violation.is_some(),
                "{} escaped the kernel oracle",
                mutation.name()
            );
        }
    }

    #[test]
    fn clean_kernel_oracle_accepts_the_real_kernels() {
        let spec = DatasetSpec {
            class: DatasetClass::TiedRanks,
            genes: 5,
            samples: 20,
            seed: 3,
        };
        let outcome = differential::kernel_oracle(&spec, &TolerancePolicy::default());
        assert!(outcome.violation.is_none(), "{:?}", outcome.violation);
    }

    #[test]
    fn kernel_oracle_runs_once_per_supported_backend() {
        let spec = DatasetSpec {
            class: DatasetClass::CoupledLinear,
            genes: 5,
            samples: 20,
            seed: 3,
        };
        let outcome = differential::kernel_oracle(&spec, &TolerancePolicy::default());
        assert!(outcome.violation.is_none(), "{:?}", outcome.violation);
        // Per backend: C(5,2) = 10 observed checks plus 10 pairs × 2
        // permuted nulls = 30; the oracle must repeat that for every
        // backend this host supports (at minimum the emulated one).
        let backends = gnet_simd::dispatch::Backend::supported().len();
        assert_eq!(outcome.checks, 30 * backends);
    }
}
