//! # gnet-obs — offline observability for gnet runs
//!
//! The analysis side of the `gnet-trace` instrumentation layer
//! (DESIGN.md §12). `gnet-trace` produces NDJSON streams while a run
//! executes; this crate consumes them *after* the run:
//!
//! * [`ingest`] — strict, closed-world NDJSON parsing. Unknown record
//!   types or fields are errors, so producer/consumer drift is caught by
//!   tests instead of silently skewing reports.
//! * [`model`] — the unified [`model::RunModel`]: one or many per-rank
//!   streams (manifest-driven for distributed runs) mapped onto rank 0's
//!   timebase via the clock offsets estimated at run start.
//! * [`report`] — `gnet trace-report`: per-rank load and scheduler
//!   utilization, load-imbalance, greedy critical-path extraction, and a
//!   perf-attribution table comparing measured MI throughput against the
//!   `gnet-phi` calibrated kernel model.
//! * [`chrome`] — Chrome trace-event JSON export (Perfetto-loadable).
//! * [`flame`] — folded flamegraph-stack export.
//! * [`bench`] — `gnet bench`: the seeded fixed-shape benchmark suite
//!   and the MAD-based regression gate over `BENCH_14.json` artifacts.

pub mod bench;
pub mod chrome;
pub mod flame;
pub mod ingest;
pub mod model;
pub mod report;
pub mod status;

pub use bench::{BenchOptions, BenchSuite, Regression};
pub use ingest::{IngestError, RankTrace};
pub use model::{ObsError, RunModel};
pub use report::{analyze, TimelineReport};
pub use status::{validate_prometheus, validate_status_json, StatusError, StatusSummary};
