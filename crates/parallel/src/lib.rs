//! Tile decomposition and scheduling for the pairwise MI computation.
//!
//! The pair space of `n` genes is the strict upper triangle of an `n × n`
//! matrix — `n(n−1)/2` independent units of work. Computing it pair-by-pair
//! would reload two weight matrices per pair; the paper instead partitions
//! the triangle into `T × T` **tiles** so that one tile touches at most
//! `2T` distinct genes whose weight matrices fit in a core's share of L2,
//! and every pair inside the tile reuses them ([`tile`]).
//!
//! Tiles have unequal pair counts (diagonal tiles are half-full triangles)
//! and, on a 244-thread chip, per-tile runtime varies enough that the
//! distribution policy matters. [`scheduler`] implements the policies the
//! evaluation compares: static block, static cyclic, a dynamic shared
//! counter (the paper's choice) — all behind one
//! executor so the result is policy-independent by construction.

#![warn(missing_docs)]

pub mod pairwise;
pub mod scheduler;
pub mod tile;

pub use pairwise::{compute_pairwise, pair_index};
pub use scheduler::{
    execute_tiles, execute_tiles_traced, ExecutionReport, SchedulerPolicy, ThreadStats,
    HIST_TILE_US,
};
pub use tile::{Tile, TileSpace};
