//! Lightweight, std-only tracing and metrics for the pipeline.
//!
//! The paper's whole claim is a wall-clock number, so the reproduction
//! needs to *explain* its own timings, not just report three coarse stage
//! durations. This crate provides the instrumentation layer every other
//! crate records into:
//!
//! * **Spans** — monotonic wall-time intervals (`stage.prep`,
//!   `stage.mi`, …) captured via an RAII guard.
//! * **Counters** — named monotonic `u64` totals (`mi.joints_evaluated`,
//!   `scheduler.claims.t3`, …).
//! * **Histograms** — fixed power-of-two-bucket latency histograms in
//!   microseconds (`scheduler.tile_us`), quantile-queryable.
//! * **Events** — point-in-time records with typed fields
//!   (`checkpoint.chunk`, `sim.tile`), timestamped either on the real
//!   monotonic clock or with caller-supplied *simulated* time.
//!
//! Everything hangs off a cheap, cloneable [`Recorder`] handle, which
//! keeps counters and histograms in one store of atomic cells: the
//! hot path takes a read lock and bumps an atomic, a new name takes the
//! write lock once, and readers snapshot the cells without pausing any
//! writer. The exporters below, a ring rank's live heartbeats (in
//! `gnet-telemetry`) and the status surfaces built on them all read that
//! one store.
//!
//! A recorder is **disabled** (the default: every record call is a
//! single `Option` branch and no allocation, so instrumented hot paths
//! cost nothing in production runs), **counting** (counters and
//! histograms only — what a live-telemetry rank without a trace keeps)
//! or **enabled** (counting plus spans, events and progress). Only an
//! enabled recorder reports [`Recorder::is_enabled`], so recording that
//! is guarded by it stays off on a counting one.
//!
//! Exports: [`Recorder::write_ndjson`] streams every span/event/counter/
//! histogram as one JSON object per line (the `--trace` file);
//! [`Recorder::metrics_json`] renders a single summary document (the
//! `--metrics` file) that `gnet infer`, the `repro` harness, and CI all
//! share, so benchmark trajectories come from one instrumentation source.
//!
//! The crate is deliberately std-only (no serde, no clocks beyond
//! `Instant`): it sits below every other crate in the workspace graph.

#![warn(missing_docs)]

mod diag;
mod eta;
mod export;
mod histogram;
mod recorder;
mod store;

pub use diag::{diag_chunk, diag_line};
pub use eta::EwmaEta;
pub use export::escape_json;
pub use histogram::Histogram;
pub use recorder::{Progress, Recorder, Span, Value};
