//! The [`Recorder`] handle and its record types.

use crate::histogram::Histogram;
use crate::store::Store;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// A typed field value attached to an [event](Recorder::event).
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Floating point (NaN/inf render as JSON `null`).
    F64(f64),
    /// String.
    Str(String),
    /// Boolean.
    Bool(bool),
}

impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Self::U64(v)
    }
}

impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Self::U64(v as u64)
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Self::I64(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Self::F64(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Self::Str(v.to_string())
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Self::Bool(v)
    }
}

/// A completed span, relative to the recorder's epoch.
#[derive(Clone, Debug)]
pub(crate) struct SpanRecord {
    pub(crate) name: String,
    pub(crate) start_us: u64,
    pub(crate) dur_us: u64,
}

/// A point-in-time event.
#[derive(Clone, Debug)]
pub(crate) struct EventRecord {
    pub(crate) name: String,
    pub(crate) t_us: u64,
    pub(crate) fields: Vec<(String, Value)>,
}

/// Progress of a tiled run, delivered to the progress sink installed via
/// [`Recorder::enabled_with_progress`].
#[derive(Clone, Copy, Debug)]
pub struct Progress {
    /// Work items completed so far.
    pub done: usize,
    /// Total work items.
    pub total: usize,
    /// Wall time since the recorder's epoch.
    pub elapsed: Duration,
}

impl Progress {
    /// Estimated time remaining, extrapolating the mean rate so far.
    /// `None` before the first completed item.
    #[must_use]
    pub fn eta(&self) -> Option<Duration> {
        if self.done == 0 || self.total <= self.done {
            return (self.total <= self.done).then_some(Duration::ZERO);
        }
        let per_item = self.elapsed.as_secs_f64() / self.done as f64;
        Some(Duration::from_secs_f64(
            per_item * (self.total - self.done) as f64,
        ))
    }

    /// Completed fraction in `0.0..=1.0`.
    #[must_use]
    pub fn fraction(&self) -> f64 {
        if self.total == 0 {
            1.0
        } else {
            self.done as f64 / self.total as f64
        }
    }
}

type ProgressSink = Box<dyn Fn(Progress) + Send + Sync>;

/// The trace buffers an [enabled](Recorder::enabled) recorder adds to
/// its metric store: spans, events and the optional progress sink, all
/// stamped against one epoch.
pub(crate) struct Trace {
    pub(crate) epoch: Instant,
    pub(crate) spans: Mutex<Vec<SpanRecord>>,
    pub(crate) events: Mutex<Vec<EventRecord>>,
    progress: Option<ProgressFeed>,
}

/// A progress sink plus the last update it was handed. Workers finish
/// items concurrently, so their updates can arrive out of order; only
/// those that move `done` forward (or change `total`) reach the sink.
struct ProgressFeed {
    sink: ProgressSink,
    last: Mutex<Option<(usize, usize)>>,
}

/// Cheap, cloneable handle to a metric store and trace buffers — or to
/// nothing. A recorder is one of three kinds:
///
/// * [`disabled`](Recorder::disabled) (the default) records nothing:
///   every record method returns after one branch, so instrumented code
///   pays nothing when tracing is off;
/// * [`counting`](Recorder::counting) keeps counters and histograms in
///   its store, and nothing else;
/// * [`enabled`](Recorder::enabled) is counting plus the trace buffers:
///   spans, events and progress.
///
/// Clones share one store and one set of buffers; recording is `&self`
/// and thread-safe. Counters and histograms are atomic cells that need a
/// lock only to add a new name; spans and events append under a mutex,
/// at tile granularity — never per pair.
#[derive(Clone, Default)]
pub struct Recorder {
    metrics: Option<Arc<Store>>,
    trace: Option<Arc<Trace>>,
    /// Progress window set by [`Recorder::for_chunk`]: items done before
    /// this handle's chunk, and the whole run's item count.
    chunk: Option<(usize, usize)>,
}

/// RAII guard for a span: records `[creation, drop)` against the
/// recorder it came from. Inert unless the recorder is enabled.
pub struct Span {
    ctx: Option<(Arc<Trace>, String, Instant)>,
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some((trace, name, start)) = self.ctx.take() {
            let start_us = duration_us(start.duration_since(trace.epoch));
            let dur_us = duration_us(start.elapsed());
            lock(&trace.spans).push(SpanRecord {
                name,
                start_us,
                dur_us,
            });
        }
    }
}

/// Truncating conversion to whole microseconds (saturating at `u64::MAX`,
/// ~585 millennia).
fn duration_us(d: Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

/// Mutex acquisition that survives a poisoned lock: trace buffers hold
/// plain data, so a panicked recording thread leaves them merely
/// incomplete, never structurally invalid.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

impl Recorder {
    /// The inert handle: records nothing, costs one branch per call.
    #[must_use]
    pub fn disabled() -> Self {
        Self::default()
    }

    /// A recorder that keeps counters and histograms but no spans,
    /// events or progress — what a ring rank with a live telemetry plane
    /// and no trace records into, for its heartbeats to read.
    /// [`is_enabled`](Self::is_enabled) stays `false`, so recording that
    /// is guarded by it (the executor's tile latencies, the pipeline's
    /// `mi.*` counters) stays off.
    #[must_use]
    pub fn counting() -> Self {
        Self {
            metrics: Some(Arc::default()),
            ..Self::default()
        }
    }

    /// A live recorder with a fresh store and trace buffers; its epoch is
    /// `now`.
    #[must_use]
    pub fn enabled() -> Self {
        Self::build(None)
    }

    /// A live recorder that additionally forwards [`Progress`] updates
    /// (tiles done / total / elapsed) to `sink`. The sink is called from
    /// worker threads after completed work items, with `done` only ever
    /// moving forward — it should be cheap and rate-limit its own output.
    #[must_use]
    pub fn enabled_with_progress(sink: impl Fn(Progress) + Send + Sync + 'static) -> Self {
        Self::build(Some(ProgressFeed {
            sink: Box::new(sink),
            last: Mutex::new(None),
        }))
    }

    fn build(progress: Option<ProgressFeed>) -> Self {
        Self {
            metrics: Some(Arc::default()),
            trace: Some(Arc::new(Trace {
                epoch: Instant::now(),
                spans: Mutex::new(Vec::new()),
                events: Mutex::new(Vec::new()),
                progress,
            })),
            chunk: None,
        }
    }

    /// This recorder, for one chunk of a longer run: progress updates
    /// count `done_before` items finished before the chunk and report the
    /// run's `total` items, so a chunked scan's progress reads against
    /// the whole run.
    #[must_use]
    pub fn for_chunk(&self, done_before: usize, total: usize) -> Self {
        Self {
            chunk: Some((done_before, total)),
            ..self.clone()
        }
    }

    /// Does this handle keep trace buffers (spans, events, progress)?
    /// `false` for disabled and counting recorders.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.trace.is_some()
    }

    /// Wall time since the recorder's epoch (zero unless enabled).
    #[must_use]
    pub fn elapsed(&self) -> Duration {
        self.trace
            .as_ref()
            .map_or(Duration::ZERO, |t| t.epoch.elapsed())
    }

    /// Start a span; it records itself when the guard drops.
    #[must_use]
    pub fn span(&self, name: &str) -> Span {
        Span {
            ctx: self
                .trace
                .as_ref()
                .map(|t| (Arc::clone(t), name.to_string(), Instant::now())),
        }
    }

    /// Record a point event with typed fields, stamped on the real clock.
    pub fn event(&self, name: &str, fields: &[(&str, Value)]) {
        let Some(trace) = &self.trace else { return };
        let t_us = duration_us(trace.epoch.elapsed());
        self.event_at_us(name, t_us, fields);
    }

    /// Record a point event at an explicit timestamp (µs since epoch) —
    /// used by the simulator to emit *simulated-time* events.
    pub fn event_at_us(&self, name: &str, t_us: u64, fields: &[(&str, Value)]) {
        let Some(trace) = &self.trace else { return };
        lock(&trace.events).push(EventRecord {
            name: name.to_string(),
            t_us,
            fields: fields
                .iter()
                .map(|(k, v)| ((*k).to_string(), v.clone()))
                .collect(),
        });
    }

    /// Add `delta` to the named monotonic counter.
    pub fn counter_add(&self, name: &str, delta: u64) {
        if let Some(metrics) = &self.metrics {
            metrics.counter_add(name, delta);
        }
    }

    /// Record a latency observation into the named histogram.
    pub fn observe(&self, name: &str, latency: Duration) {
        self.observe_us(name, duration_us(latency));
    }

    /// Record a raw microsecond observation into the named histogram.
    pub fn observe_us(&self, name: &str, value_us: u64) {
        if let Some(metrics) = &self.metrics {
            metrics.observe_us(name, value_us);
        }
    }

    /// Forward a progress update to the installed sink, if any. Inside
    /// [`for_chunk`](Self::for_chunk), `done` and `total` count within
    /// the chunk and are reported against the whole run. An update that
    /// does not move `done` past the last one delivered is dropped.
    pub fn progress(&self, done: usize, total: usize) {
        let Some(trace) = &self.trace else { return };
        let Some(feed) = &trace.progress else { return };
        let (done, total) = self.chunk.map_or((done, total), |(before, run_total)| {
            (before + done, run_total)
        });
        let mut last = lock(&feed.last);
        if last.is_some_and(|(d, t)| t == total && d >= done) {
            return;
        }
        *last = Some((done, total));
        (feed.sink)(Progress {
            done,
            total,
            elapsed: trace.epoch.elapsed(),
        });
    }

    /// Current value of a counter (`None` when disabled or never set).
    #[must_use]
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.metrics.as_ref()?.counter(name)
    }

    /// Snapshot of a histogram (`None` when disabled or never observed).
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<Histogram> {
        self.metrics.as_ref()?.histogram(name)
    }

    /// Every counter, in name order (empty when disabled).
    #[must_use]
    pub fn counters(&self) -> Vec<(String, u64)> {
        self.metrics
            .as_ref()
            .map_or_else(Vec::new, |m| m.counters())
    }

    /// A snapshot of every histogram, in name order (empty when
    /// disabled).
    #[must_use]
    pub fn histograms(&self) -> Vec<(String, Histogram)> {
        self.metrics
            .as_ref()
            .map_or_else(Vec::new, |m| m.histograms())
    }

    /// Number of completed spans so far (0 unless enabled).
    #[must_use]
    pub fn span_count(&self) -> usize {
        self.trace.as_ref().map_or(0, |t| lock(&t.spans).len())
    }

    /// Number of recorded events with the given name (0 unless enabled).
    #[must_use]
    pub fn event_count(&self, name: &str) -> usize {
        self.trace.as_ref().map_or(0, |t| {
            lock(&t.events).iter().filter(|e| e.name == name).count()
        })
    }

    pub(crate) fn trace(&self) -> Option<&Trace> {
        self.trace.as_deref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_is_inert() {
        let rec = Recorder::disabled();
        assert!(!rec.is_enabled());
        rec.counter_add("x", 5);
        rec.observe_us("h", 100);
        rec.event("e", &[("k", Value::U64(1))]);
        let _span = rec.span("s");
        rec.progress(1, 2);
        assert_eq!(rec.counter("x"), None);
        assert_eq!(rec.span_count(), 0);
        assert!(rec.histogram("h").is_none());
        assert_eq!(rec.elapsed(), Duration::ZERO);
    }

    #[test]
    fn default_is_disabled() {
        assert!(!Recorder::default().is_enabled());
    }

    #[test]
    fn counters_accumulate_across_clones() {
        let rec = Recorder::enabled();
        let other = rec.clone();
        rec.counter_add("tiles", 3);
        other.counter_add("tiles", 4);
        assert_eq!(rec.counter("tiles"), Some(7));
    }

    #[test]
    fn spans_record_on_drop() {
        let rec = Recorder::enabled();
        {
            let _s = rec.span("stage.prep");
            std::thread::sleep(Duration::from_millis(2));
        }
        assert_eq!(rec.span_count(), 1);
    }

    #[test]
    fn histograms_observe_durations() {
        let rec = Recorder::enabled();
        rec.observe("tile_us", Duration::from_micros(7));
        rec.observe("tile_us", Duration::from_micros(900));
        let h = rec.histogram("tile_us").expect("histogram was observed");
        assert_eq!(h.count(), 2);
        assert_eq!(h.sum_us(), 907);
    }

    #[test]
    fn progress_sink_receives_updates() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let hits = Arc::new(AtomicUsize::new(0));
        let hits2 = Arc::clone(&hits);
        let rec = Recorder::enabled_with_progress(move |p| {
            assert!(p.done <= p.total);
            hits2.fetch_add(1, Ordering::SeqCst);
        });
        rec.progress(1, 4);
        rec.progress(2, 4);
        assert_eq!(hits.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn progress_eta_extrapolates() {
        let p = Progress {
            done: 2,
            total: 6,
            elapsed: Duration::from_secs(4),
        };
        let eta = p.eta().expect("eta defined after first item");
        assert!((eta.as_secs_f64() - 8.0).abs() < 1e-9);
        assert!((p.fraction() - 1.0 / 3.0).abs() < 1e-12);
        let done = Progress {
            done: 6,
            total: 6,
            elapsed: Duration::from_secs(4),
        };
        assert_eq!(done.eta(), Some(Duration::ZERO));
        let fresh = Progress {
            done: 0,
            total: 6,
            elapsed: Duration::ZERO,
        };
        assert_eq!(fresh.eta(), None);
    }

    #[test]
    fn counting_recorder_keeps_metrics_and_no_trace() {
        let rec = Recorder::counting();
        assert!(!rec.is_enabled(), "counting does not imply tracing");
        rec.counter_add("pairs", 3);
        rec.clone().counter_add("pairs", 4);
        rec.observe_us("lat", 250);
        rec.event("e", &[("k", Value::U64(1))]);
        drop(rec.span("s"));
        rec.progress(1, 2);
        assert_eq!(rec.counter("pairs"), Some(7));
        assert_eq!(rec.counters(), vec![("pairs".to_string(), 7)]);
        let h = rec.histogram("lat").expect("histogram was observed");
        assert_eq!((h.count(), h.sum_us()), (1, 250));
        assert_eq!(rec.span_count(), 0);
        assert_eq!(rec.event_count("e"), 0);
        assert_eq!(rec.elapsed(), Duration::ZERO);
        let mut out = Vec::new();
        rec.write_ndjson(&mut out).expect("vec sink cannot fail");
        let text = String::from_utf8(out).expect("ndjson output is utf-8");
        assert!(!text.contains("\"type\":\"span\""), "{text}");
        assert!(!text.contains("\"type\":\"event\""), "{text}");
        let json = rec.metrics_json();
        assert!(
            json.contains("\"spans\":[]") && json.ends_with("\"events\":0}"),
            "{json}"
        );
    }

    #[test]
    fn progress_only_moves_forward() {
        let seen = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&seen);
        let rec = Recorder::enabled_with_progress(move |p| {
            lock(&sink).push((p.done, p.total));
        });
        for (done, total) in [(1, 4), (3, 4), (2, 4), (3, 4), (4, 4), (1, 9)] {
            rec.progress(done, total);
        }
        // A stale or repeated `done` is dropped; a new total starts over.
        assert_eq!(*lock(&seen), [(1, 4), (3, 4), (4, 4), (1, 9)]);
    }

    #[test]
    fn chunk_progress_reports_against_the_whole_run() {
        let seen = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&seen);
        let rec = Recorder::enabled_with_progress(move |p| {
            lock(&sink).push((p.done, p.total));
        });
        let chunk = rec.for_chunk(6, 10);
        chunk.progress(1, 4);
        chunk.progress(4, 4);
        rec.for_chunk(10, 10).progress(0, 0);
        assert_eq!(*lock(&seen), [(7, 10), (10, 10)]);
        chunk.counter_add("shared", 1);
        assert_eq!(
            rec.counter("shared"),
            Some(1),
            "a chunk handle shares the store"
        );
    }

    #[test]
    fn simulated_time_events_keep_their_timestamps() {
        let rec = Recorder::enabled();
        rec.event_at_us("sim.tile", 123_456, &[("thread", Value::U64(3))]);
        let mut out = Vec::new();
        rec.write_ndjson(&mut out).expect("vec sink cannot fail");
        let text = String::from_utf8(out).expect("ndjson output is utf-8");
        assert!(text.contains("\"t_us\":123456"), "{text}");
    }
}
