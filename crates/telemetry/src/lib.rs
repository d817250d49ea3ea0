//! Live telemetry plane for running inferences.
//!
//! Everything else in the observability stack (`gnet-trace` →
//! `gnet-obs`) is post-hoc: traces are written during the run and
//! analyzed after it. This crate is the *live* path — what a 4-rank
//! whole-genome run looks like **while it is running** — built from
//! three pieces that the cluster layer and the CLI wire together, over
//! the one metric store each rank's `gnet_trace::Recorder` already keeps
//! (a counting recorder when the rank is not traced):
//!
//! * [`Heartbeat`] — the std-only codec for the periodic status beat
//!   each worker piggybacks onto the cluster transport as a `TELEM`
//!   frame: a snapshot of the rank recorder's counters and histograms,
//!   round/pair watermarks, queue depth.
//! * [`ClusterView`] — rank 0's fold of those beats: per-rank liveness
//!   (missed-beat detection), EWMA pair rates, and straggler flags with
//!   a monotone "ever flagged" history.
//! * Pull surfaces — [`render_status_json`] (schema-pinned
//!   `gnet-status/1`), [`render_prometheus`] (fixed metric-name set),
//!   [`write_status_file_atomic`], and the std-only [`StatusServer`]
//!   serving `GET /status` and `GET /metrics`.
//!
//! The invariant the whole plane is built around: **telemetry never
//! perturbs results**. Heartbeats travel out-of-band on the existing
//! transport, every decoder degrades instead of panicking, and the
//! cluster integration is validated by byte-identical edge sets with
//! telemetry on versus off (see `gnet-cluster`'s live tests and the CI
//! smoke job).

#![warn(missing_docs)]

mod heartbeat;
mod http;
mod status;
mod view;

pub use heartbeat::{Heartbeat, HEARTBEAT_VERSION};
pub use http::{DocSource, StatusDocs, StatusServer};
pub use status::{
    render_prometheus, render_status_json, write_status_file_atomic, STATUS_FORMAT, STATUS_VERSION,
};
pub use view::{ClusterView, RankView};
