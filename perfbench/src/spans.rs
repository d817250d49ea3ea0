//! In-memory spans recorded by the benchmark around its calls into the
//! library, written out as NDJSON when the run ends.

use std::io::{self, Write};
use std::time::{Duration, Instant};

/// One recorded interval.
#[derive(Clone, Debug)]
pub struct Span {
    /// Id, unique within the run.
    pub id: u32,
    /// Enclosing span, if any.
    pub parent: Option<u32>,
    /// The library call (or benchmark phase) it covers.
    pub name: &'static str,
    /// Timed operation it belongs to, if any.
    pub op: Option<u32>,
    /// Identical calls the interval covers (short calls are timed in
    /// batches); the per-call cost is the duration over this count.
    pub calls: u32,
    /// Start, µs since the run's epoch.
    pub start_us: f64,
    /// End, µs since the run's epoch.
    pub end_us: f64,
}

impl Span {
    /// Wall time per call, µs.
    pub fn per_call_us(&self) -> f64 {
        (self.end_us - self.start_us) / f64::from(self.calls.max(1))
    }
}

/// The run's span store.
pub struct Spans {
    epoch: Instant,
    workload: &'static str,
    spans: Vec<Span>,
}

impl Spans {
    /// An empty store for `workload`, with its epoch at `epoch`.
    pub fn new(workload: &'static str, epoch: Instant) -> Spans {
        Spans {
            epoch,
            workload,
            spans: Vec::new(),
        }
    }

    /// Open a span; close it with [`Spans::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<u32>, op: Option<u32>) -> u32 {
        let id = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        let now = self.now_us();
        self.spans.push(Span {
            id,
            parent,
            name,
            op,
            calls: 1,
            start_us: now,
            end_us: now,
        });
        id
    }

    /// Close span `id`, returning its duration.
    pub fn close(&mut self, id: u32) -> Duration {
        let now = self.now_us();
        let span = &mut self.spans[id as usize];
        span.end_us = now;
        Duration::from_secs_f64((now - span.start_us) / 1e6)
    }

    /// Time `calls` identical calls made by `f` as one span under `parent`.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: u32,
        calls: u32,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(name, Some(parent), None);
        let out = f();
        self.close(id);
        self.spans[id as usize].calls = calls;
        out
    }

    /// Per-call costs (µs) of every span named `name`.
    pub fn per_call_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::per_call_us)
            .collect()
    }

    fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    /// Write every span as one JSON object per line.
    ///
    /// # Errors
    /// Any write error.
    pub fn write_ndjson<W: Write>(&self, mut w: W) -> io::Result<()> {
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let op = s.op.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"workload\":\"{}\",\"op\":{op},\"calls\":{},\"start_us\":{:.3},\"end_us\":{:.3}}}",
                s.id, s.name, self.workload, s.calls, s.start_us, s.end_us
            )?;
        }
        w.flush()
    }
}
