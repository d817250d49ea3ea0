//! Fixed-width vector lanes and hardware SIMD kernels for the
//! mutual-information estimators.
//!
//! The IPDPS 2014 paper vectorizes its B-spline mutual-information kernel
//! with the Xeon Phi's 512-bit IMCI instruction set (16 × f32 lanes). This
//! crate provides both halves of that story:
//!
//! * The lane value type [`F32x16`] — with arithmetic operators, FMA, and
//!   deterministic horizontal reductions.
//!   Portable plain-array code expressing the paper's *algorithmic*
//!   vectorization (dense, gather-free FMA streams over restructured
//!   data).
//! * Slice kernels — the whole-slice primitives the MI estimators are
//!   built from (`axpy`, `xlogx_sum`, and the run-blocked joint
//!   accumulator `accumulate_runs` driven by a validated [`RunPlan`] and
//!   an optional validated null [`Pairing`] over a block of
//!   cache-line-aligned [`Row16`] *y* genes and grids). Each
//!   backend exposes them as one immutable
//!   [`KernelTable`](dispatch::KernelTable): portable
//!   `_emulated` laned forms ([`slice_ops`], which also holds `_scalar`
//!   references), or real `std::arch` intrinsics — AVX-512F (one 512-bit
//!   FMA per 16-lane row, the paper's KNC shape) or AVX2+FMA (two 256-bit
//!   registers per row). [`dispatch`] resolves the process's table once
//!   from `is_x86_feature_detected!` (or `GNET_SIMD_FORCE`); code that
//!   compares backends runs on each backend's table instead.
//!
//! The [`VectorModel`] descriptor exports the lane geometry to the
//! `gnet-phi` machine model so simulated platforms can be given the vector
//! widths of the paper's hardware (16-lane Phi vs 8-lane AVX Xeon, plus
//! the AVX-512 Xeons the dispatcher targets today).

#![warn(missing_docs)]
// safety: this crate is the workspace's designated home for `std::arch`
// SIMD intrinsics (see the unsafe-audit policy note on `unsafe_code` in
// the root Cargo.toml). Unsafe is confined to `x86.rs`, where every
// raw-pointer intrinsic sits behind a safe entry wrapper that validates
// slice shapes first and a dispatch table that only selects a backend
// after runtime CPU-feature detection, and to `row.rs`, whose flat views
// of aligned rows rest on a layout the compiler checks.
#![allow(unsafe_code)]

pub mod dispatch;
pub mod lanes;
pub mod model;
pub mod row;
pub mod run_plan;
pub mod slice_ops;
#[cfg(target_arch = "x86_64")]
pub(crate) mod x86;

pub use dispatch::{active_backend, dispatch_report, Backend, DispatchReport};
pub use lanes::F32x16;
pub use model::VectorModel;
pub use row::Row16;
pub use run_plan::{run_block_columns, EntryCode, Pairing, RunPlan};
