//! Whole-genome network inference — the paper's primary contribution as a
//! library.
//!
//! [`infer_network`] runs the complete TINGe-style pipeline:
//!
//! 1. **Preprocess** — rank-transform every gene ([`gnet_expr`]).
//! 2. **Prepare** — B-spline weight matrix + marginal entropy per gene,
//!    computed once and reused for all `n−1` pairs ([`gnet_mi`]).
//! 3. **Pairwise MI + permutation nulls** — the `n(n−1)/2` pair space is
//!    tiled ([`gnet_parallel`]); worker threads claim tiles under the
//!    configured scheduling policy, expand each tile's column genes into
//!    the dense vector layout once, and evaluate every pair together with
//!    its `q` shared-permutation nulls ([`gnet_permute`]). Pairs that beat
//!    all of their own nulls become *candidates*; every null value feeds a
//!    mergeable pooled-null accumulator.
//! 4. **Threshold** — the pooled null yields the Bonferroni-corrected
//!    global threshold `I*`; candidates above it become edges.
//! 5. **Output** — a [`gnet_graph::GeneNetwork`] plus run statistics.
//!
// cast-ok (crate-wide): gene indices are u32 and edge weights f32 by
// design (the paper's ~15k-gene scale); MI is accumulated in f64 and
// narrowed once at the edge boundary. These narrowing casts are the data
// model, not accidents.
#![allow(clippy::cast_possible_truncation)]
//! [`baselines`] holds the comparison methods (naive histogram-MI network,
//! Pearson correlation network, and a deliberately simple sequential
//! reference implementation used as the correctness oracle for the tiled
//! parallel path).

#![warn(missing_docs)]

pub mod baselines;
pub mod checkpoint;
pub mod config;
pub mod durable;
pub mod incremental;
pub mod mi_matrix;
pub mod pipeline;
pub mod plan;
pub mod result;
pub mod scan;
pub mod state;

pub use checkpoint::{infer_network_resumable, run_digest_for, Checkpoint};
pub use config::{ConfigError, InferenceConfig, NullStrategy};
pub use durable::{infer_network_durable, CheckpointStore, DurableError, FileKind};
pub use gnet_trace::Recorder;
pub use incremental::{
    apply_update, apply_update_mutated, build_state, detect_mode, update_digest, update_durable,
    UpdateMode, UpdateMutation, UpdateStats,
};
pub use mi_matrix::{compute_mi_matrix, MiMatrix};
pub use pipeline::{infer_network, infer_network_traced, prepare_genes};
pub use plan::MemoryPlan;
pub use result::{InferenceResult, RunStats};
pub use scan::{scan_tile, scan_tiles, NullScan};
pub use state::{NetworkState, StateStore};
