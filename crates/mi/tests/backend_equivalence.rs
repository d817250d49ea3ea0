//! End-to-end backend equivalence for the MI kernels: the vector kernel
//! on each supported backend's kernel table (emulated / AVX2 / AVX-512),
//! through a scratch built on that table, must agree with the scalar
//! sparse kernel within the conformance harness's kernel-oracle grade
//! (≤ 2e-4 nats), and the backends must agree with *each other* even
//! more tightly (the only cross-backend difference is `xlogx_sum`'s
//! vectorized `ln`, a few ULP per grid cell). A scratch computes on its
//! own table only, so scratches on different backends can run side by
//! side in one process without moving each other's bits.

use gnet_bspline::BsplineBasis;
use gnet_mi::vector_kernel::{joint_counts, VectorGrid};
use gnet_mi::{mi_with_nulls, prepare_gene, MiKernel, MiScratch, PairMi, PreparedGene};
use gnet_simd::dispatch::{Backend, KernelTable};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Barrier;

/// End-to-end agreement bound between any two backends (nats). Tighter
/// than the 2e-4 scalar-vs-vector oracle: the joint grids are bitwise
/// identical, only the entropy's log differs.
const CROSS_BACKEND_TOL: f64 = 1e-5;

/// Scalar-vs-vector grade, from the conformance kernel oracle.
const SCALAR_ORACLE_TOL: f64 = 2e-4;

fn tables() -> Vec<&'static KernelTable> {
    Backend::ALL
        .into_iter()
        .filter_map(KernelTable::for_backend)
        .collect()
}

fn profile(rng: &mut StdRng, m: usize) -> Vec<f32> {
    (0..m).map(|_| rng.gen::<f32>()).collect()
}

/// MI of `x` against `y`, observed and under each of `perms`, with `kernel`
/// on a fresh scratch over `kernels`.
fn pair_on(
    kernel: MiKernel,
    kernels: &'static KernelTable,
    basis: &BsplineBasis,
    (x, y): (&PreparedGene, &PreparedGene),
    perms: &[Vec<u32>],
) -> PairMi {
    let mut scratch = MiScratch::with_kernels(basis, kernels);
    let y_dense = y.to_dense();
    mi_with_nulls(kernel, x, y, Some(&y_dense), perms, &mut scratch)
}

/// The scalar kernel's observed MI and reversal null, then each supported
/// backend's vector-kernel values of the same two joints.
fn mi_all_backends(seed: u64, m: usize, order: usize) -> (Vec<f64>, Vec<(Backend, Vec<f64>)>) {
    let basis = BsplineBasis::new(order, 10);
    let mut rng = StdRng::seed_from_u64(seed);
    let x = prepare_gene(&profile(&mut rng, m), &basis);
    let y = prepare_gene(&profile(&mut rng, m), &basis);
    let perms = [(0..u32::try_from(m).expect("m fits u32")).rev().collect()];
    let values = |pair: PairMi| [vec![pair.observed], pair.null].concat();
    let resolved = gnet_simd::dispatch::table();
    let scalar = pair_on(MiKernel::ScalarSparse, resolved, &basis, (&x, &y), &perms);
    let per_backend = tables()
        .into_iter()
        .map(|t| {
            let vector = pair_on(MiKernel::VectorDense, t, &basis, (&x, &y), &perms);
            (t.backend, values(vector))
        })
        .collect();
    (values(scalar), per_backend)
}

/// Every backend within the scalar grade of the scalar kernel, and within
/// [`CROSS_BACKEND_TOL`] of the next backend, joint by joint.
fn check_grades(scalar: &[f64], per_backend: &[(Backend, Vec<f64>)]) -> Result<(), String> {
    for (backend, values) in per_backend {
        for (s, v) in scalar.iter().zip(values) {
            if (s - v).abs() >= SCALAR_ORACLE_TOL {
                return Err(format!("scalar {s} vs {backend} {v}"));
            }
        }
    }
    for w in per_backend.windows(2) {
        for (a, b) in w[0].1.iter().zip(&w[1].1) {
            if (a - b).abs() >= CROSS_BACKEND_TOL {
                return Err(format!("{} {a} vs {} {b}", w[0].0, w[1].0));
            }
        }
    }
    Ok(())
}

#[test]
fn every_backend_matches_scalar_within_oracle_grade() {
    for (seed, m, order) in [
        (1u64, 100, 3),
        (2, 333, 3),
        (3, 64, 4),
        (4, 17, 1),
        (5, 128, 2),
    ] {
        let (scalar, per_backend) = mi_all_backends(seed, m, order);
        if let Err(e) = check_grades(&scalar, &per_backend) {
            panic!("m={m} order={order}: {e}");
        }
    }
}

/// Each supported backend evaluates the same pairs and nulls on its own
/// scratch, on its own thread, all starting together; every thread's
/// values must equal, bit for bit, the same evaluation run alone. A
/// backend choice that leaked out of one scratch (say, through process
/// state) would show up here as another backend's `xlogx_sum` bits.
#[test]
fn concurrent_scratches_each_compute_on_their_own_table() {
    // Ten bins run the planned run kernel, twenty the wide-layout row loop.
    for bins in [10, 20] {
        scratches_keep_their_tables(&BsplineBasis::new(3, bins));
    }
}

fn scratches_keep_their_tables(basis: &BsplineBasis) {
    const ROUNDS: usize = 6;
    let m = 200u32;
    let mut rng = StdRng::seed_from_u64(0x5EED);
    let genes: Vec<PreparedGene> = (0..5)
        .map(|_| prepare_gene(&profile(&mut rng, m as usize), basis))
        .collect();
    let dense: Vec<_> = genes.iter().map(PreparedGene::to_dense).collect();
    // Six nulls: strides coprime to m.
    let perms: Vec<Vec<u32>> = [3u32, 7, 11, 13, 17, 19]
        .iter()
        .map(|&step| (0..m).map(|s| (s * step + 1) % m).collect())
        .collect();
    let evaluate = |kernels: &'static KernelTable| -> Vec<u64> {
        let mut scratch = MiScratch::with_kernels(basis, kernels);
        let mut bits = Vec::new();
        for i in 0..genes.len() {
            for j in i + 1..genes.len() {
                let (x, y, yd) = (&genes[i], &genes[j], Some(&dense[j]));
                let pair = mi_with_nulls(MiKernel::VectorDense, x, y, yd, &perms, &mut scratch);
                bits.push(pair.observed.to_bits());
                bits.extend(pair.null.iter().map(|v| v.to_bits()));
            }
        }
        bits
    };
    let alone: Vec<Vec<u64>> = tables().into_iter().map(evaluate).collect();
    // Alone, each scratch ran on its own table: every pair's observed MI
    // is the one its table's `xlogx_sum` gives over the pair's joint grid.
    let (total, mut grid) = (f64::from(m), VectorGrid::for_dense(&dense[0]));
    let pairs = (0..genes.len()).flat_map(|i| (i + 1..genes.len()).map(move |j| (i, j)));
    for (p, (i, j)) in pairs.enumerate() {
        joint_counts(&genes[i].sparse, &dense[j], &mut grid);
        for (t, bits) in tables().iter().zip(&alone) {
            let hxy = total.ln() - f64::from((t.xlogx_sum)(grid.as_slice())) / total;
            let mi = genes[i].h_marginal + genes[j].h_marginal - hxy;
            let observed = bits[p * (perms.len() + 1)];
            let (backend, bins) = (t.backend, basis.bins());
            assert_eq!(
                observed,
                mi.to_bits(),
                "{backend} scratch left its table at b = {bins}"
            );
        }
    }
    let start = Barrier::new(tables().len());
    let together: Vec<Vec<Vec<u64>>> = std::thread::scope(|s| {
        let workers: Vec<_> = tables()
            .into_iter()
            .map(|t| {
                let (start, evaluate) = (&start, &evaluate);
                s.spawn(move || {
                    start.wait();
                    (0..ROUNDS).map(|_| evaluate(t)).collect()
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("backend thread"))
            .collect()
    });
    for ((t, alone), rounds) in tables().iter().zip(&alone).zip(&together) {
        for (round, bits) in rounds.iter().enumerate() {
            let (backend, bins) = (t.backend, basis.bins());
            assert_eq!(bits, alone, "{backend} round {round} moved at b = {bins}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24)
        .with_persistence("proptest-regressions/backend_equivalence.txt"))]

    #[test]
    fn prop_backends_agree_end_to_end(
        seed in 0u64..500,
        m in 2usize..150,
        order in 1usize..=4,
    ) {
        let (scalar, per_backend) = mi_all_backends(seed, m, order);
        if let Err(e) = check_grades(&scalar, &per_backend) {
            prop_assert!(false, "{}", e);
        }
    }
}
