//! Mutual-information estimation kernels.
//!
//! This crate implements the computational core of the reproduction: the
//! B-spline mutual-information estimator of Daub et al. in the two forms
//! the IPDPS 2014 paper contrasts, plus the naive histogram baseline.
//!
//! * [`sparse_kernel`] — the **scalar** form. Each sample scatters a
//!   `k × k` block of weight products into the joint grid. Minimal flops
//!   (`m·k²`) but the scattered, data-dependent addressing defeats vector
//!   units; this is the paper's "vectorization disabled" baseline.
//! * [`vector_kernel`] — the **vectorized** form. Gene *y*'s weights are
//!   expanded to dense zero-padded rows; each sample then issues `k`
//!   contiguous row-wide FMAs (`grid[bx+i] += wx_i · y_row`). More flops
//!   (`m·k·b_padded`) but a branch-free unit-stride FMA stream — exactly
//!   the restructuring that lets the Phi's 512-bit unit (and any modern
//!   SIMD unit, via `gnet-simd`'s dispatched intrinsics) run at rate.
//!   Gene *x*'s samples are sorted by first bin into a
//!   [`RunPlan`](gnet_simd::RunPlan), so the
//!   `k` rows a run of samples updates stay in registers.
//! * [`histogram`] — classic equal-width-bin plug-in estimator, kept as the
//!   estimator-quality baseline.
//!
//! Both B-spline kernels accept a sample permutation of gene *y*, which is
//! how the permutation-testing null reuses the per-gene weight matrices
//! without recomputing splines (the marginal — and hence `H(y)` — is
//! permutation invariant, so only the joint entropy is recomputed).
//!
//! All entropies are in **nats**; convert with [`entropy::nats_to_bits`].

// cast-ok (crate-wide): weights and expression values are f32 and sample
// indices u32 by design; entropies accumulate in f64 and narrow only where
// the f32 storage layout requires it. The `kernel-cast` lint in
// `gnet-analysis` still audits every `as` cast in the kernel files.
#![allow(clippy::cast_possible_truncation)]
#![warn(missing_docs)]

pub mod entropy;
pub mod gene;
pub mod histogram;
pub mod ksg;
pub mod mutation;
pub mod sparse_kernel;
pub mod vector_kernel;

pub use entropy::{entropy_nats, nats_to_bits};
pub use gene::{
    mi_scalar, mi_vector, mi_with_nulls, prepare_gene, MiKernel, MiScratch, PairMi, PlannedRow,
    PreparedGene, TileRows,
};
pub use gnet_simd::Pairing;
pub use ksg::KsgEstimator;
