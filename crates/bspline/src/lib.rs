//! B-spline basis machinery for the Daub et al. mutual-information estimator.
//!
//! TINGe — and therefore the IPDPS 2014 single-chip implementation this
//! repository reproduces — estimates mutual information with the
//! *generalized indicator function* approach of Daub et al. (BMC
//! Bioinformatics 2004): instead of assigning each sample to exactly one of
//! `b` histogram bins, a sample is spread over up to `k` adjacent bins with
//! weights given by order-`k` B-spline basis functions. This removes the
//! hard bin-boundary artifacts of the naive histogram estimator while
//! keeping the plug-in entropy formulas unchanged.
//!
//! The crate provides:
//!
//! * [`BsplineBasis`] — the open uniform knot vector over `b` bins, Cox–de
//!   Boor evaluation, and the `[0,1] → knot domain` sample mapping;
//! * [`WeightTable`] — the first bin and `k` weights of each of a set of
//!   normalized values; after the rank transform one table of the `2m − 1`
//!   rank-grid values ([`WeightTable::for_ranks`]) serves a whole run;
//! * [`SparseWeights`] — one gene as a code per sample into a shared
//!   table ([`SampleCodes`]), the compact layout the scalar MI kernel and
//!   the vector kernel's run plans consume;
//! * [`DenseWeights`] — the per-gene `m × b` zero-padded layout whose
//!   columns make the joint-histogram accumulation a dense, lane-friendly
//!   `Bᵀ·B` product, which is exactly the restructuring the paper uses to
//!   reach the Phi's 512-bit vector unit.
//!
//! The two layouts are interconvertible and are tested to produce identical
//! marginals and joint histograms.

#![warn(missing_docs)]

pub mod basis;
pub mod weights;

pub use basis::{BsplineBasis, MAX_ORDER};
pub use weights::{DenseWeights, SampleCodes, SparseWeights, WeightTable};
