//! Host kernel calibration: measure the real `gnet-mi` kernels.
//!
//! The machine models predict *other* platforms; the host itself is
//! measured directly. These helpers time the actual scalar and vector
//! kernels over synthetic prepared genes and report nanoseconds per pair
//! (inclusive of the `q` permutation nulls). They back:
//!
//! * the host rows of the R4 vectorization experiment (measured, not
//!   modeled);
//! * the R1 headline projection for "this host" (measured pair rate ×
//!   the full pair count);
//! * sanity checks that the modeled Phi is faster than one host core by a
//!   plausible factor.

use crate::workload::KernelClass;
use gnet_bspline::BsplineBasis;
use gnet_expr::synth;
use gnet_mi::{mi_with_nulls, prepare_gene, MiKernel, MiScratch};
use gnet_permute::PermutationSet;
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// One measured kernel rate.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct KernelRate {
    /// Kernel measured.
    pub kernel: KernelClass,
    /// Samples per gene used.
    pub samples: usize,
    /// Permutations per pair used.
    pub q: usize,
    /// Nanoseconds per pair, inclusive of its nulls.
    pub ns_per_pair: f64,
}

impl KernelRate {
    /// Pairs per second at this rate.
    pub fn pairs_per_second(&self) -> f64 {
        1e9 / self.ns_per_pair
    }

    /// Wall seconds to process `pairs` pairs at this rate on one thread.
    pub fn seconds_for_pairs(&self, pairs: u64) -> f64 {
        pairs as f64 * self.ns_per_pair * 1e-9
    }
}

/// Measure one kernel on the host: `pairs` pair evaluations (each with
/// `q` nulls) over `genes` synthetic prepared genes of `samples` samples.
///
/// The gene set is iterated in a tile-like pattern so dense expansions are
/// reused exactly the way the pipeline reuses them.
pub fn measure_kernel(
    kernel: KernelClass,
    samples: usize,
    q: usize,
    genes: usize,
    pairs: usize,
) -> KernelRate {
    assert!(genes >= 2, "need at least two genes");
    let basis = BsplineBasis::tinge_default();
    let matrix = synth::independent_gaussian(genes, samples, 0xCA11B7A7E);
    let prepared: Vec<_> = (0..genes)
        .map(|g| prepare_gene(matrix.gene(g), &basis))
        .collect();
    let perms = PermutationSet::generate(samples, q, 7);
    let mut scratch = MiScratch::for_basis(&basis);

    let mi_kernel = match kernel {
        KernelClass::ScalarSparse => MiKernel::ScalarSparse,
        KernelClass::VectorDense => MiKernel::VectorDense,
    };

    // Dense expansions cached per column gene, mirroring the tile executor.
    let dense: Vec<_> = match kernel {
        KernelClass::VectorDense => prepared.iter().map(|p| Some(p.to_dense())).collect(),
        KernelClass::ScalarSparse => prepared.iter().map(|_| None).collect(),
    };

    // Warm-up to populate caches and fault pages.
    let mut sink = 0.0f64;
    for w in 0..pairs.min(8) {
        let (i, j) = (w % genes, (w + 1) % genes);
        let r = mi_with_nulls(
            mi_kernel,
            &prepared[i],
            &prepared[j],
            dense[j].as_ref(),
            perms.as_vecs(),
            &mut scratch,
        );
        sink += r.observed;
    }

    // Best-of-three passes: a container's vCPU can be throttled or stolen
    // mid-measurement; the minimum is the least-disturbed estimate.
    let mut best_ns_per_pair = f64::INFINITY;
    for _ in 0..3 {
        let start = Instant::now();
        let mut done = 0usize;
        'outer: loop {
            for i in 0..genes {
                for j in i + 1..genes {
                    let r = mi_with_nulls(
                        mi_kernel,
                        &prepared[i],
                        &prepared[j],
                        dense[j].as_ref(),
                        perms.as_vecs(),
                        &mut scratch,
                    );
                    sink += r.observed;
                    done += 1;
                    if done >= pairs {
                        break 'outer;
                    }
                }
            }
        }
        let ns = start.elapsed().as_nanos() as f64 / done as f64;
        best_ns_per_pair = best_ns_per_pair.min(ns);
    }
    std::hint::black_box(sink);

    KernelRate {
        kernel,
        samples,
        q,
        ns_per_pair: best_ns_per_pair,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measured_rates_are_positive_and_scale_with_samples() {
        let small = measure_kernel(KernelClass::VectorDense, 64, 2, 8, 40);
        let large = measure_kernel(KernelClass::VectorDense, 512, 2, 8, 40);
        assert!(small.ns_per_pair > 0.0);
        assert!(
            large.ns_per_pair > 2.0 * small.ns_per_pair,
            "8× samples must cost clearly more: {} vs {}",
            large.ns_per_pair,
            small.ns_per_pair
        );
    }

    #[test]
    fn rates_scale_with_permutation_count() {
        let q0 = measure_kernel(KernelClass::ScalarSparse, 128, 0, 8, 60);
        let q9 = measure_kernel(KernelClass::ScalarSparse, 128, 9, 8, 60);
        let ratio = q9.ns_per_pair / q0.ns_per_pair;
        assert!(
            ratio > 4.0,
            "q=9 does 10 joints instead of 1; expected a large ratio, got {ratio:.1}"
        );
    }

    #[test]
    fn helper_conversions() {
        let r = KernelRate {
            kernel: KernelClass::VectorDense,
            samples: 100,
            q: 0,
            ns_per_pair: 500.0,
        };
        assert!((r.pairs_per_second() - 2e6).abs() < 1.0);
        assert!((r.seconds_for_pairs(2_000_000) - 1.0).abs() < 1e-9);
    }
}
