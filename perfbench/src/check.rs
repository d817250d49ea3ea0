//! Output checks. Every timed operation passes all of them or counts as
//! failed.

use crate::workload::{pairs_of, Fixture, OpDetail, OpOutput, Workload};
use gnet_bspline::BsplineBasis;
use gnet_core::infer_network;
use gnet_graph::io::write_edge_list;
use gnet_graph::{Edge, GeneNetwork};
use gnet_mi::{mi_scalar, prepare_gene, MiScratch};

/// Largest scalar-vs-vector MI difference the repository's kernel
/// oracle accepts, in nats.
pub const SCALAR_TOLERANCE_NATS: f64 = 2e-4;

/// Edges per operation whose weight is recomputed with `mi_scalar`.
const SAMPLED_EDGES: usize = 8;

/// SplitMix64: the benchmark's seeded generator.
#[derive(Clone, Debug)]
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    /// Next raw 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A draw from `0..bound` (`bound > 0`; the modulo bias is irrelevant
    /// for picking samples).
    pub fn below(&mut self, bound: usize) -> usize {
        (self.next_u64() % bound as u64) as usize
    }
}

/// A deliberate defect applied to one operation's output, so tests can
/// prove the checks catch it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Corruption {
    /// Add 1e-3 nats to one edge weight.
    PerturbWeight,
    /// Remove one edge.
    DropEdge,
}

impl Corruption {
    /// Apply the defect to `net` (a no-op on an edgeless network).
    pub fn apply(self, net: &GeneNetwork) -> GeneNetwork {
        let mut edges: Vec<Edge> = net.edges().to_vec();
        if edges.is_empty() {
            return net.clone();
        }
        let k = edges.len() / 2;
        match self {
            Corruption::PerturbWeight => edges[k].weight += 1e-3,
            Corruption::DropEdge => {
                edges.remove(k);
            }
        }
        GeneNetwork::from_edges(net.genes(), net.gene_names().to_vec(), edges)
    }
}

/// The serialized edge list: the byte form the identity checks compare.
pub fn edge_bytes(net: &GeneNetwork) -> Vec<u8> {
    let mut out = Vec::new();
    write_edge_list(net, &mut out).expect("writing to memory cannot fail");
    out
}

/// Per-run check state.
pub struct Checker {
    rng: SplitMix64,
    basis: BsplineBasis,
    scratch: MiScratch,
    first: Option<Vec<u8>>,
}

impl Checker {
    /// A checker whose edge sample is drawn from `seed`.
    pub fn new(fixture: &Fixture, seed: u64) -> Checker {
        let basis = BsplineBasis::new(fixture.config.spline_order, fixture.config.bins);
        Checker {
            rng: SplitMix64(seed ^ 0xC0FF_EE00_D15E_A5E5),
            scratch: MiScratch::for_basis(&basis),
            basis,
            first: None,
        }
    }

    /// Check one operation's output: exact pair and joint counts, a seeded
    /// sample of edge weights against the scalar kernel, and a
    /// byte-identical edge list across the run's operations.
    ///
    /// # Errors
    /// The first check that failed, described.
    pub fn check(&mut self, fixture: &Fixture, out: &OpOutput) -> Result<(), String> {
        check_counts(fixture, out)?;
        self.check_sampled_weights(fixture, &out.network)?;
        let bytes = edge_bytes(&out.network);
        match &self.first {
            None => self.first = Some(bytes),
            Some(first) if *first != bytes => {
                return Err("edge list differs from the run's first operation".into())
            }
            Some(_) => {}
        }
        Ok(())
    }

    fn check_sampled_weights(
        &mut self,
        fixture: &Fixture,
        net: &GeneNetwork,
    ) -> Result<(), String> {
        let edges = net.edges();
        for _ in 0..SAMPLED_EDGES.min(edges.len()) {
            let e = edges[self.rng.below(edges.len())];
            let x = prepare_gene(fixture.matrix.gene(e.a as usize), &self.basis);
            let y = prepare_gene(fixture.matrix.gene(e.b as usize), &self.basis);
            let scalar = mi_scalar(&x, &y, &mut self.scratch);
            let diff = (f64::from(e.weight) - scalar).abs();
            if diff > SCALAR_TOLERANCE_NATS {
                return Err(format!(
                    "edge ({}, {}) weight {} is {diff:.2e} nats from mi_scalar {scalar}",
                    e.a, e.b, e.weight
                ));
            }
        }
        Ok(())
    }

    /// Final check for workloads that have an independent reference: the
    /// ring's edges must equal `infer_network` on the same matrix, and the
    /// append's edges the batch run over the concatenated matrix. Call
    /// after the timed loop; the reference is not timed.
    ///
    /// # Errors
    /// When the run's edge list differs from the reference.
    pub fn check_reference(&self, fixture: &Fixture) -> Result<(), String> {
        let Some(first) = &self.first else {
            return Ok(());
        };
        let what = match fixture.workload {
            Workload::Ring2 => "the ring's edges differ from infer_network on the same matrix",
            Workload::Append32 => {
                "the appended state's edges differ from the batch run over the concatenated matrix"
            }
            Workload::Paper256 | Workload::FewSamples2048 => return Ok(()),
        };
        let reference = infer_network(&fixture.matrix, &fixture.config);
        if edge_bytes(&reference.network) == *first {
            Ok(())
        } else {
            Err(what.into())
        }
    }
}

fn check_counts(fixture: &Fixture, out: &OpOutput) -> Result<(), String> {
    let shape = &fixture.shape;
    let joints_per_pair = shape.permutations as u64 + 1;
    let expect = |what: &str, got: u64, want: u64| {
        if got == want {
            Ok(())
        } else {
            Err(format!("{what}: got {got}, expected {want}"))
        }
    };
    if out.network.genes() != shape.genes {
        return Err(format!(
            "network has {} genes, expected {}",
            out.network.genes(),
            shape.genes
        ));
    }
    match &out.detail {
        OpDetail::Batch(stats) => {
            expect("pairs", stats.pairs, shape.all_pairs())?;
            expect(
                "executed pairs",
                stats.execution.total_pairs(),
                shape.all_pairs(),
            )?;
            expect(
                "joints",
                stats.joints_evaluated,
                shape.all_pairs() * joints_per_pair,
            )
        }
        OpDetail::Ring { ranks, crashed } => {
            if !crashed.is_empty() {
                return Err(format!(
                    "ranks {crashed:?} presumed dead on a fault-free fabric"
                ));
            }
            expect("ranks", ranks.len() as u64, 2)?;
            expect("pairs over ranks", out.pairs, shape.all_pairs())
        }
        OpDetail::Append(stats) => {
            expect(
                "appended genes",
                stats.appended as u64,
                shape.appended as u64,
            )?;
            expect(
                "frontier pairs scanned",
                stats.pairs_scanned,
                shape.frontier_pairs(),
            )?;
            expect(
                "state joints",
                stats.joints,
                pairs_of(shape.genes) * joints_per_pair,
            )
        }
    }
}
