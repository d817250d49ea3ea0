//! The traced run's layer replay: a seeded sample of the workload's pairs
//! (and its genes, blocks and state file) pushed through the public
//! per-layer calls, each call inside a span.

use crate::check::{edge_bytes, SplitMix64};
use crate::spans::Spans;
use crate::workload::{Fixture, Workload};
use bytes::Bytes;
use gnet_bspline::BsplineBasis;
use gnet_cluster::codec::{decode_block, encode_block, GeneBlock};
use gnet_graph::GeneNetwork;
use gnet_mi::entropy::entropy_from_counts;
use gnet_mi::vector_kernel::{joint_counts, joint_counts_permuted, VectorGrid};
use gnet_mi::{mi_with_nulls, prepare_gene, MiKernel, MiScratch};
use gnet_permute::{PermutationSet, PooledNull};
use std::hint::black_box;

/// Pairs replayed per traced run.
const SAMPLED_PAIRS: usize = 48;
/// Repetitions of the calls that run once per operation (permutation
/// generation, codec, state I/O, edge-list output).
const REPS: usize = 3;
/// Calls per span for the short calls (identity accumulation, entropy,
/// pooled-null update), so the clock's own cost stays negligible.
const BATCH: u32 = 64;

/// Span names of the replayed calls; the per-layer metrics are medians
/// of their per-call costs.
pub mod call {
    /// `prepare_gene`.
    pub const PREPARE: &str = "mi::prepare_gene";
    /// `PreparedGene::to_dense`.
    pub const DENSE: &str = "bspline::to_dense";
    /// `vector_kernel::joint_counts`.
    pub const IDENTITY: &str = "vector_kernel::joint_counts";
    /// `vector_kernel::joint_counts_permuted`.
    pub const PERMUTED: &str = "vector_kernel::joint_counts_permuted";
    /// `entropy_from_counts`.
    pub const ENTROPY: &str = "entropy::entropy_from_counts";
    /// `mi_with_nulls`: one pair, observed plus q nulls.
    pub const PAIR: &str = "mi::mi_with_nulls";
    /// `PooledNull::extend` with one pair's q nulls.
    pub const EXTEND: &str = "permute::PooledNull::extend";
    /// `PermutationSet::generate`.
    pub const PERMS: &str = "permute::PermutationSet::generate";
    /// `codec::encode_block`.
    pub const ENCODE: &str = "cluster::encode_block";
    /// `codec::decode_block`.
    pub const DECODE: &str = "cluster::decode_block";
    /// `StateStore::save`.
    pub const SAVE: &str = "state::StateStore::save";
    /// `StateStore::load`.
    pub const LOAD: &str = "state::StateStore::load";
    /// `graph::io::write_edge_list`.
    pub const EDGE_LIST: &str = "graph::write_edge_list";
}

/// Pairs of the workload's pair space drawn from `seed`: any pair of the
/// matrix, or for the append workload a pair of its frontier.
fn sample_pairs(fixture: &Fixture, seed: u64, want: usize) -> Vec<(u32, u32)> {
    let n = fixture.shape.genes;
    let first_new = n - fixture.shape.appended;
    let mut rng = SplitMix64(seed ^ 0x5A17_1E5E_ED00_0001);
    (0..want)
        .map(|_| {
            let j = if fixture.shape.appended > 0 {
                first_new + rng.below(n - first_new)
            } else {
                1 + rng.below(n - 1)
            };
            (rng.below(j) as u32, j as u32)
        })
        .collect()
}

/// Replay the workload's layers under span `parent`. `last` is the last
/// operation's network, used for the edge-list output replay.
///
/// # Errors
/// A state store that fails to save or load.
pub fn replay(
    fixture: &Fixture,
    spans: &mut Spans,
    parent: u32,
    seed: u64,
    last: &GeneNetwork,
) -> Result<(), String> {
    let cfg = &fixture.config;
    let m = fixture.shape.samples;
    let basis = BsplineBasis::new(cfg.spline_order, cfg.bins);
    let mut perms = None;
    for _ in 0..REPS {
        perms = Some(spans.time(call::PERMS, parent, 1, || {
            PermutationSet::generate(m, cfg.permutations, cfg.seed)
        }));
    }
    let perms = perms.expect("REPS > 0");
    let mut scratch = MiScratch::for_basis(&basis);
    let mut pooled = PooledNull::new();

    for (i, j) in sample_pairs(fixture, seed, SAMPLED_PAIRS) {
        let x = spans.time(call::PREPARE, parent, 1, || {
            prepare_gene(fixture.matrix.gene(i as usize), &basis)
        });
        let y = spans.time(call::PREPARE, parent, 1, || {
            prepare_gene(fixture.matrix.gene(j as usize), &basis)
        });
        let yd = spans.time(call::DENSE, parent, 1, || y.to_dense());
        let mut grid = VectorGrid::for_dense(&yd);
        spans.time(call::IDENTITY, parent, BATCH, || {
            for _ in 0..BATCH {
                joint_counts(&x.sparse, &yd, &mut grid);
            }
        });
        spans.time(call::ENTROPY, parent, BATCH, || {
            for _ in 0..BATCH {
                black_box(entropy_from_counts(black_box(grid.as_slice()), m as f64));
            }
        });
        let q = u32::try_from(perms.len()).expect("q fits u32");
        spans.time(call::PERMUTED, parent, q, || {
            for p in perms.as_vecs() {
                joint_counts_permuted(&x.sparse, &yd, p, &mut grid);
            }
        });
        let res = spans.time(call::PAIR, parent, 1, || {
            mi_with_nulls(
                MiKernel::VectorDense,
                &x,
                &y,
                Some(&yd),
                perms.as_vecs(),
                &mut scratch,
            )
        });
        spans.time(call::EXTEND, parent, BATCH, || {
            for _ in 0..BATCH {
                pooled.extend(black_box(&res.null));
            }
        });
    }
    black_box(pooled);

    if fixture.workload == Workload::Ring2 {
        replay_codec(fixture, spans, parent, &basis);
    }
    if let Some(store) = fixture.append_store() {
        for _ in 0..REPS {
            let state = spans
                .time(call::LOAD, parent, 1, || store.load())
                .map_err(|e| format!("replaying StateStore::load: {e}"))?;
            spans
                .time(call::SAVE, parent, 1, || store.save(&state))
                .map_err(|e| format!("replaying StateStore::save: {e}"))?;
        }
    }
    for _ in 0..REPS {
        black_box(spans.time(call::EDGE_LIST, parent, 1, || edge_bytes(last)));
    }
    Ok(())
}

/// Encode and decode the block one ring rank ships: its half of the genes.
fn replay_codec(fixture: &Fixture, spans: &mut Spans, parent: u32, basis: &BsplineBasis) {
    let half = fixture.shape.genes / 2;
    let block = GeneBlock {
        indices: (0..half as u32).collect(),
        genes: (0..half)
            .map(|g| prepare_gene(fixture.matrix.gene(g), basis))
            .collect(),
    };
    for _ in 0..REPS {
        let wire: Bytes = spans.time(call::ENCODE, parent, 1, || encode_block(&block));
        let decoded = spans.time(call::DECODE, parent, 1, || decode_block(wire));
        black_box(decoded.expect("a freshly encoded block decodes"));
    }
}
