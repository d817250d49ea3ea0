//! Strict NDJSON ingestion of gnet-trace streams.
//!
//! The parser is deliberately *closed-world*: every record type and every
//! key on every record must be one the gnet-trace exporter is known to
//! emit (DESIGN.md §9, plus the per-rank meta extensions of §12). An
//! unknown `type`, an unknown key, or a wrongly-typed value is an
//! [`IngestError`], not a warning — this is what makes the round-trip
//! corpus test fail the moment the producer and this consumer drift
//! apart, instead of silently dropping data from reports.

use serde::{Content, Deserialize, Error as SerdeError};
use std::fmt;

/// A parsed JSON value, kept as the vendored serde [`Content`] tree.
///
/// The vendored `serde_json` exposes no generic `Value`; this newtype's
/// [`Deserialize`] impl simply keeps the tree, giving the ingester a raw
/// parse to walk strictly.
pub(crate) struct Raw(pub(crate) Content);

impl Deserialize for Raw {
    fn deserialize(content: &Content) -> Result<Self, SerdeError> {
        Ok(Raw(content.clone()))
    }
}

/// A malformed or unrecognized trace line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct IngestError {
    /// 1-based line number within the stream.
    pub line: usize,
    /// What was wrong.
    pub message: String,
}

impl fmt::Display for IngestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "trace line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for IngestError {}

/// The meta line of one stream.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceMeta {
    /// Schema version (`1` is the only one understood).
    pub version: u64,
    /// Recorder elapsed time at export, µs.
    pub elapsed_us: u64,
    /// Rank id, present on per-rank streams from distributed runs.
    pub rank: Option<u64>,
    /// Total ranks in the run, present on per-rank streams.
    pub ranks: Option<u64>,
    /// Trace-clock offset from rank 0, µs (per-rank streams).
    pub clock_offset_us: Option<i64>,
}

/// A typed event field value.
#[derive(Clone, Debug, PartialEq)]
pub enum FieldValue {
    /// Unsigned integer.
    U64(u64),
    /// Signed (negative) integer.
    I64(i64),
    /// Float.
    F64(f64),
    /// String.
    Str(String),
    /// Boolean.
    Bool(bool),
    /// `null` (a non-finite float on the producer side).
    Null,
}

impl FieldValue {
    /// The value as u64 if it is a non-negative integer.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Self::U64(v) => Some(*v),
            Self::I64(v) => u64::try_from(*v).ok(),
            _ => None,
        }
    }

    /// The value as a string slice if it is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Self::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// One completed span.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanRec {
    /// Span name.
    pub name: String,
    /// Start, µs since the stream's epoch.
    pub start_us: u64,
    /// Duration, µs.
    pub dur_us: u64,
}

impl SpanRec {
    /// End of the span, µs since epoch (saturating).
    #[must_use]
    pub fn end_us(&self) -> u64 {
        self.start_us.saturating_add(self.dur_us)
    }
}

/// One point event.
#[derive(Clone, Debug, PartialEq)]
pub struct EventRec {
    /// Event name.
    pub name: String,
    /// Timestamp, µs since epoch (wall or simulated — the producer
    /// decides; `sim.*` events carry modeled time).
    pub t_us: u64,
    /// Typed fields, in producer order.
    pub fields: Vec<(String, FieldValue)>,
}

impl EventRec {
    /// Field lookup by name.
    #[must_use]
    pub fn field(&self, name: &str) -> Option<&FieldValue> {
        self.fields.iter().find(|(k, _)| k == name).map(|(_, v)| v)
    }
}

/// One counter total.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CounterRec {
    /// Counter name.
    pub name: String,
    /// Final value.
    pub value: u64,
}

/// One histogram summary.
#[derive(Clone, Debug, PartialEq)]
pub struct HistogramRec {
    /// Histogram name.
    pub name: String,
    /// Observation count.
    pub count: u64,
    /// Sum of observations, µs.
    pub sum_us: u64,
    /// Mean, µs.
    pub mean_us: f64,
    /// Minimum, µs.
    pub min_us: u64,
    /// Maximum, µs.
    pub max_us: u64,
    /// p50, µs.
    pub p50_us: u64,
    /// p95, µs.
    pub p95_us: u64,
    /// p99, µs.
    pub p99_us: u64,
    /// Sparse buckets: `(inclusive upper bound or None for overflow,
    /// count)`.
    pub buckets: Vec<(Option<u64>, u64)>,
}

/// One fully parsed NDJSON stream (one process or one rank).
#[derive(Clone, Debug, PartialEq)]
pub struct RankTrace {
    /// The stream's meta line.
    pub meta: TraceMeta,
    /// Spans, in producer order.
    pub spans: Vec<SpanRec>,
    /// Events, in producer order.
    pub events: Vec<EventRec>,
    /// Counters, in producer order.
    pub counters: Vec<CounterRec>,
    /// Histograms, in producer order.
    pub histograms: Vec<HistogramRec>,
}

impl RankTrace {
    /// Rank id of this stream (0 for single-process traces).
    #[must_use]
    pub fn rank(&self) -> u64 {
        self.meta.rank.unwrap_or(0)
    }

    /// Clock offset to subtract to land on rank 0's timebase.
    #[must_use]
    pub fn clock_offset_us(&self) -> i64 {
        self.meta.clock_offset_us.unwrap_or(0)
    }

    /// Counter value by name, if recorded.
    #[must_use]
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map(|c| c.value)
    }

    /// First event with the given name, if any.
    #[must_use]
    pub fn event(&self, name: &str) -> Option<&EventRec> {
        self.events.iter().find(|e| e.name == name)
    }

    /// Total records (spans + events + counters + histograms).
    #[must_use]
    pub fn record_count(&self) -> usize {
        self.spans.len() + self.events.len() + self.counters.len() + self.histograms.len()
    }
}

// ---------------------------------------------------------------------------
// Strict Content walking
// ---------------------------------------------------------------------------

pub(crate) type LineResult<T> = Result<T, String>;

pub(crate) fn as_map(c: &Content) -> LineResult<&[(String, Content)]> {
    match c {
        Content::Map(entries) => Ok(entries),
        other => Err(format!("expected a JSON object, found {}", other.kind())),
    }
}

/// Reject any key outside `allowed` — the unknown-field drift tripwire.
pub(crate) fn check_keys(entries: &[(String, Content)], allowed: &[&str]) -> LineResult<()> {
    for (k, _) in entries {
        if !allowed.contains(&k.as_str()) {
            return Err(format!(
                "unknown field `{k}` (producer/consumer schema drift?)"
            ));
        }
    }
    Ok(())
}

pub(crate) fn get<'c>(entries: &'c [(String, Content)], key: &str) -> LineResult<&'c Content> {
    entries
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
        .ok_or_else(|| format!("missing field `{key}`"))
}

pub(crate) fn get_u64(entries: &[(String, Content)], key: &str) -> LineResult<u64> {
    match get(entries, key)? {
        Content::U64(v) => Ok(*v),
        Content::I64(v) if *v >= 0 => Ok(*v as u64),
        other => Err(format!(
            "field `{key}`: expected unsigned integer, found {}",
            other.kind()
        )),
    }
}

pub(crate) fn get_i64(entries: &[(String, Content)], key: &str) -> LineResult<i64> {
    match get(entries, key)? {
        Content::I64(v) => Ok(*v),
        Content::U64(v) => {
            i64::try_from(*v).map_err(|_| format!("field `{key}`: integer out of i64 range"))
        }
        other => Err(format!(
            "field `{key}`: expected integer, found {}",
            other.kind()
        )),
    }
}

pub(crate) fn get_f64(entries: &[(String, Content)], key: &str) -> LineResult<f64> {
    match get(entries, key)? {
        Content::F64(v) => Ok(*v),
        Content::U64(v) => Ok(*v as f64),
        Content::I64(v) => Ok(*v as f64),
        other => Err(format!(
            "field `{key}`: expected number, found {}",
            other.kind()
        )),
    }
}

pub(crate) fn get_str(entries: &[(String, Content)], key: &str) -> LineResult<String> {
    match get(entries, key)? {
        Content::Str(s) => Ok(s.clone()),
        other => Err(format!(
            "field `{key}`: expected string, found {}",
            other.kind()
        )),
    }
}

fn field_value(c: &Content) -> LineResult<FieldValue> {
    Ok(match c {
        Content::U64(v) => FieldValue::U64(*v),
        Content::I64(v) => FieldValue::I64(*v),
        Content::F64(v) => FieldValue::F64(*v),
        Content::Str(s) => FieldValue::Str(s.clone()),
        Content::Bool(b) => FieldValue::Bool(*b),
        Content::Null => FieldValue::Null,
        other => return Err(format!("event field: unexpected {}", other.kind())),
    })
}

fn parse_meta(entries: &[(String, Content)]) -> LineResult<TraceMeta> {
    check_keys(
        entries,
        &[
            "type",
            "format",
            "version",
            "elapsed_us",
            "rank",
            "ranks",
            "clock_offset_us",
        ],
    )?;
    let format = get_str(entries, "format")?;
    if format != "gnet-trace" {
        return Err(format!("not a gnet-trace stream (format `{format}`)"));
    }
    let version = get_u64(entries, "version")?;
    if version != 1 {
        return Err(format!("unsupported gnet-trace version {version}"));
    }
    Ok(TraceMeta {
        version,
        elapsed_us: get_u64(entries, "elapsed_us")?,
        rank: entries
            .iter()
            .any(|(k, _)| k == "rank")
            .then(|| get_u64(entries, "rank"))
            .transpose()?,
        ranks: entries
            .iter()
            .any(|(k, _)| k == "ranks")
            .then(|| get_u64(entries, "ranks"))
            .transpose()?,
        clock_offset_us: entries
            .iter()
            .any(|(k, _)| k == "clock_offset_us")
            .then(|| get_i64(entries, "clock_offset_us"))
            .transpose()?,
    })
}

fn parse_span(entries: &[(String, Content)]) -> LineResult<SpanRec> {
    check_keys(entries, &["type", "name", "start_us", "dur_us"])?;
    Ok(SpanRec {
        name: get_str(entries, "name")?,
        start_us: get_u64(entries, "start_us")?,
        dur_us: get_u64(entries, "dur_us")?,
    })
}

fn parse_event(entries: &[(String, Content)]) -> LineResult<EventRec> {
    check_keys(entries, &["type", "name", "t_us", "fields"])?;
    let fields = match entries.iter().find(|(k, _)| k == "fields") {
        None => Vec::new(),
        Some((_, c)) => {
            let m = as_map(c).map_err(|e| format!("event fields: {e}"))?;
            m.iter()
                .map(|(k, v)| Ok((k.clone(), field_value(v)?)))
                .collect::<LineResult<Vec<_>>>()?
        }
    };
    Ok(EventRec {
        name: get_str(entries, "name")?,
        t_us: get_u64(entries, "t_us")?,
        fields,
    })
}

fn parse_counter(entries: &[(String, Content)]) -> LineResult<CounterRec> {
    check_keys(entries, &["type", "name", "value"])?;
    Ok(CounterRec {
        name: get_str(entries, "name")?,
        value: get_u64(entries, "value")?,
    })
}

fn parse_histogram(entries: &[(String, Content)]) -> LineResult<HistogramRec> {
    check_keys(entries, &["type", "name", "data"])?;
    let data = as_map(get(entries, "data")?).map_err(|e| format!("histogram data: {e}"))?;
    check_keys(
        data,
        &[
            "count", "sum_us", "mean_us", "min_us", "max_us", "p50_us", "p95_us", "p99_us",
            "buckets",
        ],
    )?;
    let buckets = match get(data, "buckets")? {
        Content::Seq(items) => items
            .iter()
            .map(|b| {
                let bm = as_map(b).map_err(|e| format!("histogram bucket: {e}"))?;
                check_keys(bm, &["le_us", "count"])?;
                let le = match get(bm, "le_us")? {
                    Content::Null => None,
                    Content::U64(v) => Some(*v),
                    other => {
                        return Err(format!(
                            "bucket le_us: expected unsigned integer or null, found {}",
                            other.kind()
                        ))
                    }
                };
                Ok((le, get_u64(bm, "count")?))
            })
            .collect::<LineResult<Vec<_>>>()?,
        other => {
            return Err(format!(
                "histogram buckets: expected sequence, found {}",
                other.kind()
            ))
        }
    };
    Ok(HistogramRec {
        name: get_str(entries, "name")?,
        count: get_u64(data, "count")?,
        sum_us: get_u64(data, "sum_us")?,
        mean_us: get_f64(data, "mean_us")?,
        min_us: get_u64(data, "min_us")?,
        max_us: get_u64(data, "max_us")?,
        p50_us: get_u64(data, "p50_us")?,
        p95_us: get_u64(data, "p95_us")?,
        p99_us: get_u64(data, "p99_us")?,
        buckets,
    })
}

/// The coordinator-written manifest of a traced distributed run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Manifest {
    /// Schema version (`1`).
    pub version: u64,
    /// Rank count.
    pub ranks: u64,
    /// Ranks that crashed (fault injection) during the run.
    pub crashed_ranks: Vec<u64>,
    /// Per-rank stream file names, relative to the manifest.
    pub files: Vec<String>,
}

/// Parse a `manifest.json` written by a traced distributed run.
///
/// # Errors
/// [`IngestError`] (line 1) on malformed JSON, an unknown format string
/// or version, missing fields, or unknown keys.
pub fn parse_manifest(text: &str) -> Result<Manifest, IngestError> {
    let err = |message: String| IngestError { line: 1, message };
    let raw: Raw = serde_json::from_str(text.trim())
        .map_err(|e| err(format!("invalid manifest JSON: {e}")))?;
    let entries = as_map(&raw.0).map_err(&err)?;
    check_keys(
        entries,
        &["format", "version", "ranks", "crashed_ranks", "files"],
    )
    .map_err(&err)?;
    let format = get_str(entries, "format").map_err(&err)?;
    if format != "gnet-trace-manifest" {
        return Err(err(format!("not a trace manifest (format `{format}`)")));
    }
    let version = get_u64(entries, "version").map_err(&err)?;
    if version != 1 {
        return Err(err(format!("unsupported manifest version {version}")));
    }
    let u64_seq = |key: &str| -> LineResult<Vec<u64>> {
        match get(entries, key)? {
            Content::Seq(items) => items
                .iter()
                .map(|c| match c {
                    Content::U64(v) => Ok(*v),
                    Content::I64(v) if *v >= 0 => Ok(*v as u64),
                    other => Err(format!(
                        "manifest `{key}`: expected unsigned integer, found {}",
                        other.kind()
                    )),
                })
                .collect(),
            other => Err(format!(
                "manifest `{key}`: expected sequence, found {}",
                other.kind()
            )),
        }
    };
    let files = match get(entries, "files").map_err(&err)? {
        Content::Seq(items) => items
            .iter()
            .map(|c| match c {
                Content::Str(s) => Ok(s.clone()),
                other => Err(err(format!(
                    "manifest `files`: expected string, found {}",
                    other.kind()
                ))),
            })
            .collect::<Result<Vec<_>, _>>()?,
        other => {
            return Err(err(format!(
                "manifest `files`: expected sequence, found {}",
                other.kind()
            )))
        }
    };
    Ok(Manifest {
        version,
        ranks: get_u64(entries, "ranks").map_err(&err)?,
        crashed_ranks: u64_seq("crashed_ranks").map_err(&err)?,
        files,
    })
}

/// Parse one full NDJSON stream.
///
/// # Errors
/// [`IngestError`] (with the 1-based line number) on the first malformed,
/// unknown, or drifted line; on a missing/duplicated meta line; and on
/// empty input.
pub fn parse_ndjson(text: &str) -> Result<RankTrace, IngestError> {
    let mut meta: Option<TraceMeta> = None;
    let mut spans = Vec::new();
    let mut events = Vec::new();
    let mut counters = Vec::new();
    let mut histograms = Vec::new();

    for (idx, line) in text.lines().enumerate() {
        let lineno = idx + 1;
        let err = |message: String| IngestError {
            line: lineno,
            message,
        };
        if line.trim().is_empty() {
            continue;
        }
        let raw: Raw = serde_json::from_str(line).map_err(|e| err(format!("invalid JSON: {e}")))?;
        let entries = as_map(&raw.0).map_err(&err)?;
        let kind = get_str(entries, "type").map_err(&err)?;
        match kind.as_str() {
            "meta" => {
                let m = parse_meta(entries).map_err(&err)?;
                if meta.replace(m).is_some() {
                    return Err(err("duplicate meta line".to_string()));
                }
            }
            "span" => spans.push(parse_span(entries).map_err(&err)?),
            "event" => events.push(parse_event(entries).map_err(&err)?),
            "counter" => counters.push(parse_counter(entries).map_err(&err)?),
            "histogram" => histograms.push(parse_histogram(entries).map_err(&err)?),
            other => {
                return Err(err(format!(
                    "unknown record type `{other}` (producer/consumer schema drift?)"
                )))
            }
        }
        if meta.is_none() {
            return Err(err("first line must be the meta line".to_string()));
        }
    }

    let meta = meta.ok_or(IngestError {
        line: 0,
        message: "empty stream: no meta line".to_string(),
    })?;
    Ok(RankTrace {
        meta,
        spans,
        events,
        counters,
        histograms,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnet_trace::{Recorder, Value};
    use std::time::Duration;

    fn exported(rec: &Recorder) -> String {
        let mut out = Vec::new();
        rec.write_ndjson(&mut out).expect("vec sink cannot fail");
        String::from_utf8(out).expect("ndjson is utf-8")
    }

    #[test]
    fn parses_every_record_kind() {
        let rec = Recorder::enabled();
        {
            let _s = rec.span("stage.mi");
        }
        rec.counter_add("mi.pairs", 42);
        rec.observe("scheduler.tile_us", Duration::from_micros(900));
        rec.event(
            "pipeline.done",
            &[
                ("pairs", Value::U64(42)),
                ("threshold", Value::F64(0.25)),
                ("label", Value::Str("x".into())),
                ("ok", Value::Bool(true)),
                ("delta", Value::I64(-3)),
                ("nan", Value::F64(f64::NAN)),
            ],
        );
        let trace = parse_ndjson(&exported(&rec)).expect("well-formed stream parses");
        assert_eq!(trace.spans.len(), 1);
        assert_eq!(trace.spans[0].name, "stage.mi");
        assert_eq!(trace.counter("mi.pairs"), Some(42));
        assert_eq!(trace.histograms.len(), 1);
        assert_eq!(trace.histograms[0].count, 1);
        let e = trace.event("pipeline.done").expect("event parsed");
        assert_eq!(e.field("pairs").and_then(FieldValue::as_u64), Some(42));
        assert_eq!(e.field("delta"), Some(&FieldValue::I64(-3)));
        assert_eq!(e.field("ok"), Some(&FieldValue::Bool(true)));
        assert_eq!(e.field("nan"), Some(&FieldValue::Null));
        assert_eq!(trace.rank(), 0);
    }

    #[test]
    fn meta_extensions_parse() {
        let rec = Recorder::enabled();
        let mut out = Vec::new();
        rec.write_ndjson_with_meta(
            &mut out,
            &[
                ("rank", Value::U64(2)),
                ("ranks", Value::U64(4)),
                ("clock_offset_us", Value::I64(-17)),
            ],
        )
        .expect("vec sink cannot fail");
        let trace =
            parse_ndjson(&String::from_utf8(out).expect("utf-8")).expect("meta extensions parse");
        assert_eq!(trace.meta.rank, Some(2));
        assert_eq!(trace.meta.ranks, Some(4));
        assert_eq!(trace.clock_offset_us(), -17);
    }

    #[test]
    fn unknown_field_is_rejected() {
        let text = "{\"type\":\"meta\",\"format\":\"gnet-trace\",\"version\":1,\"elapsed_us\":5}\n\
                    {\"type\":\"span\",\"name\":\"x\",\"start_us\":0,\"dur_us\":1,\"surprise\":9}\n";
        let err = parse_ndjson(text).expect_err("unknown key must fail");
        assert_eq!(err.line, 2);
        assert!(err.message.contains("surprise"), "{err}");
        assert!(err.message.contains("drift"), "{err}");
    }

    #[test]
    fn unknown_record_type_is_rejected() {
        let text = "{\"type\":\"meta\",\"format\":\"gnet-trace\",\"version\":1,\"elapsed_us\":5}\n\
                    {\"type\":\"gauge\",\"name\":\"x\",\"value\":1}\n";
        let err = parse_ndjson(text).expect_err("unknown type must fail");
        assert!(err.message.contains("gauge"), "{err}");
    }

    #[test]
    fn missing_meta_and_wrong_version_are_rejected() {
        let no_meta = "{\"type\":\"counter\",\"name\":\"x\",\"value\":1}\n";
        assert!(parse_ndjson(no_meta).is_err());
        assert!(parse_ndjson("").is_err());
        let v2 = "{\"type\":\"meta\",\"format\":\"gnet-trace\",\"version\":2,\"elapsed_us\":5}\n";
        let err = parse_ndjson(v2).expect_err("future version must fail");
        assert!(err.message.contains("version"), "{err}");
    }

    #[test]
    fn disabled_recorder_stream_is_a_valid_empty_trace() {
        let trace = parse_ndjson(&exported(&Recorder::disabled())).expect("meta-only parses");
        assert_eq!(trace.record_count(), 0);
    }
}
