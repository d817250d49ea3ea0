//! Differential oracle families: kernel, scheduler, distributed, recovery.
//!
//! Each oracle runs one dataset through two (or more) execution paths the
//! repo promises are equivalent and reports the first divergence. The
//! equivalence grades are deliberate:
//!
//! * **Kernel** (`ScalarSparse` vs `VectorDense`): *tolerance*-equal. The
//!   two kernels accumulate the same joint histogram in different f32
//!   summation orders, so last-ulp drift is expected; the bound is the
//!   stated [`crate::TolerancePolicy::kernel_abs`]. The vector kernel is
//!   read both ways the repo evaluates it: one gene alone at lane 0 of a
//!   register group (the per-call helpers), and each row gene against the
//!   packed blocks the tile scan reads, with every gene at every column
//!   offset of a block. The differential is repeated with the vector
//!   kernel on the kernel table of every SIMD backend this host supports,
//!   so each set of intrinsics is held to the grade independently of what
//!   runtime dispatch would pick.
//! * **Scheduler** (3 policies × thread counts vs the serial baseline):
//!   *bit*-equal. Scheduling only changes which thread computes a pair,
//!   never the per-pair arithmetic, so the packed MI array must match the
//!   single-threaded reference bit for bit — this is the repo's core
//!   determinism claim (`gnet analyze --concurrency` spot-checks it; this
//!   oracle sweeps it over the corpus). The full-pipeline variant runs
//!   with the pooled threshold, which merges exactly in any order, and
//!   demands bit-identical edge weights and thresholds.
//! * **Distributed** (`{1,2,4,8}` ranks × `{1,3}` threads per rank, and
//!   `{2,4}` TCP ranks × 2 threads): *byte*-equal serialized edge lists
//!   and bit-equal pooled thresholds.
//! * **Recovery** (resume-from-checkpoint at another thread count and
//!   scheduler, rank-crash): bit-identical results versus the clean run,
//!   per DESIGN.md §10.

use crate::corpus::DatasetSpec;
use crate::TolerancePolicy;
use gnet_bspline::{BsplineBasis, DenseWeights};
use gnet_cluster::{infer_network_distributed, DistributedResult, RankRun, Wire};
use gnet_core::checkpoint::infer_network_resumable;
use gnet_core::{infer_network, prepare_genes, InferenceConfig, InferenceResult};
use gnet_expr::ExpressionMatrix;
use gnet_fault::{FaultInjector, FaultPlan};
use gnet_graph::GeneNetwork;
use gnet_mi::gene::{mi_scalar, mi_vector, mi_with_nulls, MiKernel, MiScratch};
use gnet_mi::vector_kernel::block_columns;
use gnet_mi::{Pairing, PreparedGene};
use gnet_parallel::{compute_pairwise, pair_index, SchedulerPolicy};
use gnet_permute::PermutationSet;
use gnet_simd::dispatch::{Backend, KernelTable};

/// What one oracle found on one dataset.
pub(crate) struct OracleOutcome {
    /// Individual comparisons performed (pairs, run pairs, …).
    pub checks: usize,
    /// First divergence, rendered for the report; `None` when clean.
    pub violation: Option<String>,
}

impl OracleOutcome {
    pub(crate) fn clean(checks: usize) -> Self {
        Self {
            checks,
            violation: None,
        }
    }

    pub(crate) fn fail(checks: usize, detail: String) -> Self {
        Self {
            checks,
            violation: Some(detail),
        }
    }
}

fn basis() -> BsplineBasis {
    BsplineBasis::tinge_default()
}

/// Scalar-vs-vector differential with an injectable vector evaluator —
/// the self-check swaps in a [`gnet_mi::mutation::MutatedVectorKernel`]
/// here, which is how the harness proves it would catch a broken kernel.
pub(crate) fn kernel_oracle_with<F>(
    spec: &DatasetSpec,
    tol: &TolerancePolicy,
    vector_mi: &mut F,
) -> OracleOutcome
where
    F: FnMut(&PreparedGene, &PreparedGene, &DenseWeights) -> f64,
{
    let matrix = spec.build();
    let prepared = prepare_genes(&matrix, 0..matrix.genes(), &basis(), 1);
    let mut scratch = MiScratch::for_basis(&basis());
    let mut checks = 0;
    for j in 1..prepared.len() {
        let yd = prepared[j].to_dense();
        for i in 0..j {
            let scalar = mi_scalar(&prepared[i], &prepared[j], &mut scratch);
            let vector = vector_mi(&prepared[i], &prepared[j], &yd);
            checks += 1;
            let delta = (scalar - vector).abs();
            if delta > tol.kernel_abs {
                return OracleOutcome::fail(
                    checks,
                    format!(
                        "pair ({i},{j}): scalar MI {scalar:.9} vs vector MI {vector:.9} \
                         — |Δ| {delta:.3e} exceeds {:.1e} nats",
                        tol.kernel_abs
                    ),
                );
            }
        }
    }
    OracleOutcome::clean(checks)
}

/// A packed-block evaluator: MI of a row gene against each gene of one
/// block, into `out`, under the observed pairing (`None`) or a null.
pub(crate) type BlockMi<'a> =
    dyn FnMut(&PreparedGene, &[PreparedGene], Option<&[u32]>, &mut [f64]) + 'a;

/// Scalar-vs-packed-block differential with an injectable block
/// evaluator (the self-check swaps in
/// [`gnet_mi::mutation::MutatedVectorKernel::mi_packed`]). Blocks are as
/// wide as the scan's ([`block_columns`]) and wrap around the gene list,
/// one starting at each gene, so every gene sits at every column offset
/// of a block; each row gene meets each block observed and under two
/// nulls, and every value of a pair of distinct genes must lie within
/// `kernel_abs` of the scalar kernel's.
pub(crate) fn packed_oracle_with(
    spec: &DatasetSpec,
    tol: &TolerancePolicy,
    block_mi: &mut BlockMi<'_>,
) -> OracleOutcome {
    let matrix = spec.build();
    let basis = basis();
    let prepared = prepare_genes(&matrix, 0..matrix.genes(), &basis, 1);
    let perms = PermutationSet::generate(matrix.samples(), 2, spec.seed ^ 0x7061_636B); // "pack"
    let n = prepared.len();
    let mut scratch = MiScratch::for_basis(&basis);
    // scalar[i][j]: observed, then each null.
    let scalar: Vec<Vec<Vec<f64>>> = prepared
        .iter()
        .map(|x| {
            prepared
                .iter()
                .map(|y| {
                    let pair = mi_with_nulls(
                        MiKernel::ScalarSparse,
                        x,
                        y,
                        None,
                        perms.as_vecs(),
                        &mut scratch,
                    );
                    [vec![pair.observed], pair.null].concat()
                })
                .collect()
        })
        .collect();
    let width = block_columns(basis.order(), basis.bins());
    let mut checks = 0;
    let mut out = vec![0.0; width];
    for shift in 0..n {
        let genes: Vec<usize> = (0..width).map(|c| (shift + c) % n).collect();
        let block: Vec<PreparedGene> = genes.iter().map(|&j| prepared[j].clone()).collect();
        for (i, x) in prepared.iter().enumerate() {
            let pairings = std::iter::once(None).chain(perms.as_vecs().iter().map(Some));
            for (p, perm) in pairings.enumerate() {
                block_mi(x, &block, perm.map(Vec::as_slice), &mut out);
                for (c, (&j, &vector)) in genes.iter().zip(&out).enumerate() {
                    if j == i {
                        continue;
                    }
                    checks += 1;
                    let s = scalar[i][j][p];
                    let delta = (s - vector).abs();
                    if delta > tol.kernel_abs {
                        let pairing = p
                            .checked_sub(1)
                            .map_or("observed".into(), |q| format!("null {q}"));
                        return OracleOutcome::fail(
                            checks,
                            format!(
                                "pair ({i},{j}) {pairing} at column {c} of a packed block: \
                                 scalar MI {s:.9} vs vector MI {vector:.9} \
                                 — |Δ| {delta:.3e} exceeds {:.1e} nats",
                                tol.kernel_abs
                            ),
                        );
                    }
                }
            }
        }
    }
    OracleOutcome::clean(checks)
}

/// The real packed-block evaluator on `kernels`: the row gene planned
/// once per call, the block laid out as the tile scan lays it out
/// (`TileRows::expand_block`), every column read by one `mi_block`.
fn packed_mi_on(
    kernels: &'static KernelTable,
) -> impl FnMut(&PreparedGene, &[PreparedGene], Option<&[u32]>, &mut [f64]) {
    let mut scratch = MiScratch::with_kernels(&basis(), kernels);
    move |x, cols, perm, out| {
        let pairings: Vec<Pairing<'_>> = perm
            .map(|p| Pairing::new(p, x.samples()))
            .into_iter()
            .collect();
        let mut rows = scratch.plan_rows(MiKernel::VectorDense, std::slice::from_ref(x), &pairings);
        rows.expand_block(cols);
        rows.row(0).mi_block(0..cols.len(), perm.map(|_| 0), out);
    }
}

/// Kernel differential on the real kernels, run once per supported SIMD
/// backend's kernel table (emulated / AVX2 / AVX-512): the scalar oracle
/// must hold whichever backend the vector kernel lands on, so a backend
/// whose intrinsics drift out of grade is caught here, not just on the
/// machine that happens to dispatch to it by default. Violations name
/// the backend that produced them.
pub(crate) fn kernel_oracle(spec: &DatasetSpec, tol: &TolerancePolicy) -> OracleOutcome {
    let mut checks = 0;
    for kernels in Backend::ALL
        .into_iter()
        .filter_map(KernelTable::for_backend)
    {
        let outcome = kernel_oracle_one_backend(spec, tol, kernels);
        checks += outcome.checks;
        if let Some(detail) = outcome.violation {
            let backend = kernels.backend;
            return OracleOutcome::fail(checks, format!("[backend {backend}] {detail}"));
        }
    }
    OracleOutcome::clean(checks)
}

/// One backend's scalar-vs-vector differential, including the permuted
/// (null-evaluation) paths the pipeline exercises per pair and the
/// packed blocks the tile scan reads, with the vector kernel on
/// `kernels`.
fn kernel_oracle_one_backend(
    spec: &DatasetSpec,
    tol: &TolerancePolicy,
    kernels: &'static KernelTable,
) -> OracleOutcome {
    let mut scratch = MiScratch::with_kernels(&basis(), kernels);
    let observed = kernel_oracle_with(spec, tol, &mut |x, y, yd| mi_vector(x, y, yd, &mut scratch));
    if observed.violation.is_some() {
        return observed;
    }
    let packed = packed_oracle_with(spec, tol, &mut packed_mi_on(kernels));
    if packed.violation.is_some() {
        return OracleOutcome {
            checks: observed.checks + packed.checks,
            ..packed
        };
    }

    // Permuted path: both kernels must agree null-by-null.
    let matrix = spec.build();
    let prepared = prepare_genes(&matrix, 0..matrix.genes(), &basis(), 1);
    let perms = PermutationSet::generate(matrix.samples(), 2, spec.seed ^ 0x7065_726D); // "perm"
    let mut scratch = MiScratch::with_kernels(&basis(), kernels);
    let mut checks = observed.checks + packed.checks;
    for j in 1..prepared.len() {
        let yd = prepared[j].to_dense();
        for i in 0..j {
            let s = mi_with_nulls(
                MiKernel::ScalarSparse,
                &prepared[i],
                &prepared[j],
                None,
                perms.as_vecs(),
                &mut scratch,
            );
            let v = mi_with_nulls(
                MiKernel::VectorDense,
                &prepared[i],
                &prepared[j],
                Some(&yd),
                perms.as_vecs(),
                &mut scratch,
            );
            for (q, (a, b)) in s.null.iter().zip(&v.null).enumerate() {
                checks += 1;
                let delta = (a - b).abs();
                if delta > tol.kernel_abs {
                    return OracleOutcome::fail(
                        checks,
                        format!(
                            "pair ({i},{j}) null {q}: scalar {a:.9} vs vector {b:.9} \
                             — |Δ| {delta:.3e} exceeds {:.1e} nats",
                            tol.kernel_abs
                        ),
                    );
                }
            }
        }
    }
    OracleOutcome::clean(checks)
}

/// Serial reference for the packed pairwise MI array: a plain nested loop,
/// same arithmetic and same f32 narrowing as the parallel executors.
#[allow(clippy::cast_possible_truncation)] // cast-ok: pipeline stores pairwise MI as f32 by design
fn serial_packed(prepared: &[PreparedGene], dense: &[DenseWeights]) -> Vec<f32> {
    let n = prepared.len();
    let mut scratch = MiScratch::for_basis(&basis());
    let mut packed = vec![0.0f32; n * (n - 1) / 2];
    for i in 0..n {
        for j in i + 1..n {
            // cast-ok: pipeline stores pairwise MI as f32 by design
            packed[pair_index(n, i, j)] =
                mi_vector(&prepared[i], &prepared[j], &dense[j], &mut scratch) as f32;
        }
    }
    packed
}

/// Scheduler differential: every policy × thread count must reproduce the
/// serial packed MI array bit for bit, and the full pipeline (with an
/// explicit threshold) must emit bit-identical edges.
#[allow(clippy::cast_possible_truncation)] // cast-ok: pipeline stores pairwise MI as f32 by design
pub(crate) fn scheduler_oracle(spec: &DatasetSpec, _tol: &TolerancePolicy) -> OracleOutcome {
    let matrix = spec.build();
    let n = matrix.genes();
    let prepared = prepare_genes(&matrix, 0..matrix.genes(), &basis(), 1);
    let dense: Vec<DenseWeights> = prepared.iter().map(PreparedGene::to_dense).collect();
    let reference = serial_packed(&prepared, &dense);
    let mut checks = 0;

    for policy in SchedulerPolicy::ALL {
        for threads in [1usize, 2, 4, 8] {
            let (packed, _) = compute_pairwise(
                n,
                3,
                threads,
                policy,
                |_| MiScratch::for_basis(&basis()),
                // cast-ok: pipeline stores pairwise MI as f32 by design
                |scratch, i, j| mi_vector(&prepared[i], &prepared[j], &dense[j], scratch) as f32,
            );
            checks += 1;
            for (idx, (a, b)) in reference.iter().zip(&packed).enumerate() {
                if a.to_bits() != b.to_bits() {
                    return OracleOutcome::fail(
                        checks,
                        format!(
                            "policy {} × {threads} threads: packed MI[{idx}] \
                             {b} != serial {a} (bitwise)",
                            policy.name()
                        ),
                    );
                }
            }
        }
    }

    // Full pipeline under the pooled threshold: per-pair decisions and
    // the pooled null are independent of scheduling, so the edge lists
    // and I* must match bitwise.
    let cfg = |policy, threads| InferenceConfig {
        permutations: 6,
        threads: Some(threads),
        tile_size: Some(3),
        scheduler: policy,
        ..InferenceConfig::default()
    };
    let serial = infer_network(&matrix, &cfg(SchedulerPolicy::DynamicCounter, 1));
    for policy in SchedulerPolicy::ALL {
        for threads in [1usize, 2, 4] {
            let run = infer_network(&matrix, &cfg(policy, threads));
            checks += 1;
            if let Some(diff) = diff_results(&serial, &run) {
                return OracleOutcome::fail(
                    checks,
                    format!("policy {} × {threads} threads: {diff}", policy.name()),
                );
            }
        }
    }
    OracleOutcome::clean(checks)
}

/// Distributed differential: `{2,4,8}`-rank runs at 1 and at 3 threads
/// per rank must serialize to the byte-identical edge list, with the
/// bit-identical pooled threshold, of the 1-rank × 1-thread run. The
/// same grade is then demanded of `{2,4}`-rank runs at 2 threads per
/// rank over the loopback-TCP transport: real sockets, framing, and
/// drain-then-FIN shutdown must be invisible in the serialized output.
pub(crate) fn distributed_oracle(spec: &DatasetSpec, _tol: &TolerancePolicy) -> OracleOutcome {
    let matrix = spec.build();
    let per_rank = |threads| InferenceConfig {
        threads: Some(threads),
        ..dist_config()
    };
    let reference = ring(&matrix, &dist_config(), &RankRun::new(1));
    let ref_bytes = edge_bytes(&reference.network);
    let mut checks = 0;
    let channel_runs = [1usize, 3]
        .into_iter()
        .flat_map(|t| [2, 4, 8].map(|p| (Wire::Channels, t, p)));
    let tcp_runs = [2usize, 4].map(|p| (Wire::Loopback, 2, p));
    for (wire, threads, ranks) in channel_runs.chain(tcp_runs) {
        if ranks > matrix.genes() {
            continue;
        }
        let what = match wire {
            Wire::Loopback => "loopback-TCP ",
            _ => "",
        };
        let rank_run = RankRun {
            wire,
            ..RankRun::new(ranks)
        };
        let run = match infer_network_distributed(&matrix, &per_rank(threads), &rank_run) {
            Ok(r) => r,
            Err(e) => {
                return OracleOutcome::fail(
                    checks + 1,
                    format!("{ranks}-rank {what}ring failed to run: {e}"),
                )
            }
        };
        checks += 1;
        if let Some(diff) = diff_distributed(&reference, &run, &ref_bytes) {
            return OracleOutcome::fail(
                checks,
                format!("{ranks} {what}ranks × {threads} threads vs 1 rank × 1 thread: {diff}"),
            );
        }
    }
    OracleOutcome::clean(checks)
}

/// Recovery differential: an interrupted-then-resumed run and a
/// rank-crash run must both reproduce the clean result exactly.
pub(crate) fn recovery_oracle(spec: &DatasetSpec, _tol: &TolerancePolicy) -> OracleOutcome {
    let matrix = spec.build();
    let cfg = |threads, scheduler| InferenceConfig {
        permutations: 8,
        threads: Some(threads),
        tile_size: Some(3),
        scheduler,
        ..InferenceConfig::default()
    };
    let mut checks = 0;

    let clean = infer_network(&matrix, &cfg(3, SchedulerPolicy::StaticCyclic));
    // Interrupt at the first chunk boundary on two dynamic-scheduled
    // threads, then resume from the persisted state on one static-block
    // thread: the prefix must merge to the clean run's bits.
    let interrupting = cfg(2, SchedulerPolicy::DynamicCounter);
    let resuming = cfg(1, SchedulerPolicy::StaticBlock);
    match infer_network_resumable(&matrix, &interrupting, None, 2, |_| false) {
        Ok(_) => {
            // Fewer tiles than one chunk: nothing to resume; the clean
            // run above already covers this dataset.
        }
        Err(cp) => {
            let tiles_done = cp.tiles_done;
            let resumed = match infer_network_resumable(&matrix, &resuming, Some(cp), 2, |_| true) {
                Ok(r) => r,
                Err(_) => {
                    return OracleOutcome::fail(
                        checks + 1,
                        format!("resume from tile {tiles_done} was interrupted again"),
                    )
                }
            };
            checks += 1;
            if let Some(diff) = diff_results(&clean, &resumed) {
                return OracleOutcome::fail(
                    checks,
                    format!("resume from tile {tiles_done} diverged: {diff}"),
                );
            }
        }
    }

    // Rank-crash recovery: killing rank 2 in round 1 must not change the
    // edge set (dead-rank pairs are redistributed deterministically).
    if matrix.genes() >= 4 {
        let dcfg = dist_config();
        let clean_d = ring(&matrix, &dcfg, &RankRun::new(4));
        let plan = FaultPlan::parse("seed=1;crash(rank=2,round=1)")
            .unwrap_or_else(|e| unreachable!("static plan parses: {e}"));
        let crash_run = RankRun {
            faults: FaultInjector::from_plan(&plan),
            ..RankRun::new(4)
        };
        let crashed = match infer_network_distributed(&matrix, &dcfg, &crash_run) {
            Ok(r) => r,
            Err(e) => {
                return OracleOutcome::fail(
                    checks + 1,
                    format!("rank-crash run failed instead of recovering: {e}"),
                )
            }
        };
        checks += 1;
        if let Some(diff) = diff_distributed(&clean_d, &crashed, &edge_bytes(&clean_d.network)) {
            return OracleOutcome::fail(checks, format!("rank-crash recovery diverged: {diff}"));
        }
    }
    OracleOutcome::clean(checks)
}

/// A fault-free channel ring, which cannot fail.
pub(crate) fn ring(
    matrix: &ExpressionMatrix,
    config: &InferenceConfig,
    run: &RankRun<'_>,
) -> DistributedResult {
    infer_network_distributed(matrix, config, run)
        .unwrap_or_else(|e| unreachable!("a fault-free channel ring completes: {e}"))
}

fn dist_config() -> InferenceConfig {
    InferenceConfig {
        permutations: 8,
        threads: Some(1),
        tile_size: Some(4),
        ..InferenceConfig::default()
    }
}

/// Serialize a network exactly as `gnet infer --output` would — the byte
/// string the distributed (and incremental, family 6) equivalences are
/// stated over.
pub(crate) fn edge_bytes(net: &GeneNetwork) -> Vec<u8> {
    let mut bytes = Vec::new();
    gnet_graph::io::write_edge_list(net, &mut bytes)
        .unwrap_or_else(|e| unreachable!("in-memory serialization cannot fail: {e}"));
    bytes
}

/// Bitwise comparison of two shared-memory results.
fn diff_results(a: &InferenceResult, b: &InferenceResult) -> Option<String> {
    if a.stats.threshold.to_bits() != b.stats.threshold.to_bits() {
        return Some(format!(
            "threshold {} != {} (bitwise)",
            b.stats.threshold, a.stats.threshold
        ));
    }
    diff_networks(&a.network, &b.network)
}

fn diff_networks(a: &GeneNetwork, b: &GeneNetwork) -> Option<String> {
    if a.edge_count() != b.edge_count() {
        return Some(format!(
            "edge count {} != {}",
            b.edge_count(),
            a.edge_count()
        ));
    }
    for (ea, eb) in a.edges().iter().zip(b.edges()) {
        if ea.key() != eb.key() || ea.weight.to_bits() != eb.weight.to_bits() {
            return Some(format!(
                "edge ({},{},{}) != ({},{},{})",
                eb.a, eb.b, eb.weight, ea.a, ea.b, ea.weight
            ));
        }
    }
    None
}

fn diff_distributed(
    a: &DistributedResult,
    b: &DistributedResult,
    a_bytes: &[u8],
) -> Option<String> {
    if a.threshold.to_bits() != b.threshold.to_bits() {
        return Some(format!(
            "pooled threshold {} != {} (bitwise)",
            b.threshold, a.threshold
        ));
    }
    if edge_bytes(&b.network) != a_bytes {
        return diff_networks(&a.network, &b.network)
            .or_else(|| Some("serialized edge lists differ".into()));
    }
    None
}
