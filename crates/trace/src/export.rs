//! NDJSON / JSON rendering of a recorder's buffers.
//!
//! Hand-rolled on purpose: the crate is std-only so it can sit below
//! everything else in the workspace graph. The schema (documented in
//! DESIGN.md §9) is a stable contract shared by `gnet infer --trace/
//! --metrics`, the `repro` harness, and the CI metrics artifact.

use crate::histogram::Histogram;
use crate::recorder::{lock, EventRecord, Recorder, SpanRecord, Value};
use std::fmt::Write as _;
use std::io::{self, Write};

/// Append `s` to `out` as a JSON string literal (with quotes).
pub fn escape_json(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn push_value(out: &mut String, v: &Value) {
    match v {
        Value::U64(n) => {
            let _ = write!(out, "{n}");
        }
        Value::I64(n) => {
            let _ = write!(out, "{n}");
        }
        Value::F64(f) if f.is_finite() => {
            let _ = write!(out, "{f}");
        }
        Value::F64(_) => out.push_str("null"),
        Value::Str(s) => escape_json(out, s),
        Value::Bool(b) => {
            let _ = write!(out, "{b}");
        }
    }
}

fn span_line(out: &mut String, s: &SpanRecord) {
    out.push_str("{\"type\":\"span\",\"name\":");
    escape_json(out, &s.name);
    let _ = write!(
        out,
        ",\"start_us\":{},\"dur_us\":{}}}",
        s.start_us, s.dur_us
    );
}

fn event_line(out: &mut String, e: &EventRecord) {
    out.push_str("{\"type\":\"event\",\"name\":");
    escape_json(out, &e.name);
    let _ = write!(out, ",\"t_us\":{}", e.t_us);
    if !e.fields.is_empty() {
        out.push_str(",\"fields\":{");
        for (i, (k, v)) in e.fields.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            escape_json(out, k);
            out.push(':');
            push_value(out, v);
        }
        out.push('}');
    }
    out.push('}');
}

fn histogram_body(out: &mut String, h: &Histogram) {
    let _ = write!(
        out,
        "{{\"count\":{},\"sum_us\":{},\"mean_us\":{:.3},\"min_us\":{},\"max_us\":{},\
         \"p50_us\":{},\"p95_us\":{},\"p99_us\":{},\"buckets\":[",
        h.count(),
        h.sum_us(),
        h.mean_us(),
        h.min_us().unwrap_or(0),
        h.max_us().unwrap_or(0),
        h.quantile_us(0.50).unwrap_or(0),
        h.quantile_us(0.95).unwrap_or(0),
        h.quantile_us(0.99).unwrap_or(0),
    );
    let mut first = true;
    for (i, &c) in h.bucket_counts().iter().enumerate() {
        if c == 0 {
            continue; // sparse render: empty buckets carry no information
        }
        if !first {
            out.push(',');
        }
        first = false;
        match Histogram::bucket_bound_us(i) {
            Some(bound) => {
                let _ = write!(out, "{{\"le_us\":{bound},\"count\":{c}}}");
            }
            None => {
                let _ = write!(out, "{{\"le_us\":null,\"count\":{c}}}");
            }
        }
    }
    out.push_str("]}");
}

impl Recorder {
    /// Stream the full trace as NDJSON: one meta line, then one line per
    /// span, event, counter, and histogram. A disabled recorder writes
    /// only the meta line.
    ///
    /// # Errors
    /// Propagates write errors from `w`.
    pub fn write_ndjson<W: Write>(&self, w: &mut W) -> io::Result<()> {
        self.write_ndjson_with_meta(w, &[])
    }

    /// [`write_ndjson`](Self::write_ndjson) with extra key/value pairs
    /// appended to the meta line — the hook distributed runs use to stamp
    /// each rank's stream with its rank id and clock offset without
    /// changing the schema version. Keys must not collide with the
    /// built-in meta keys (`type`, `format`, `version`, `elapsed_us`);
    /// collisions are the caller's bug and render as duplicate JSON keys.
    ///
    /// # Errors
    /// Propagates write errors from `w`.
    pub fn write_ndjson_with_meta<W: Write>(
        &self,
        w: &mut W,
        extra_meta: &[(&str, Value)],
    ) -> io::Result<()> {
        let mut line = String::with_capacity(256);
        line.push_str("{\"type\":\"meta\",\"format\":\"gnet-trace\",\"version\":1");
        let _ = write!(
            line,
            ",\"elapsed_us\":{}",
            u64::try_from(self.elapsed().as_micros()).unwrap_or(u64::MAX)
        );
        for (k, v) in extra_meta {
            line.push(',');
            escape_json(&mut line, k);
            line.push(':');
            push_value(&mut line, v);
        }
        line.push('}');
        writeln!(w, "{line}")?;
        if let Some(trace) = self.trace() {
            for s in lock(&trace.spans).iter() {
                line.clear();
                span_line(&mut line, s);
                writeln!(w, "{line}")?;
            }
            for e in lock(&trace.events).iter() {
                line.clear();
                event_line(&mut line, e);
                writeln!(w, "{line}")?;
            }
        }
        for (name, value) in self.counters() {
            line.clear();
            line.push_str("{\"type\":\"counter\",\"name\":");
            escape_json(&mut line, &name);
            let _ = write!(line, ",\"value\":{value}}}");
            writeln!(w, "{line}")?;
        }
        for (name, h) in self.histograms() {
            line.clear();
            line.push_str("{\"type\":\"histogram\",\"name\":");
            escape_json(&mut line, &name);
            line.push_str(",\"data\":");
            histogram_body(&mut line, &h);
            line.push('}');
            writeln!(w, "{line}")?;
        }
        Ok(())
    }

    /// Render the metrics summary as one JSON document: every span,
    /// counter, and histogram summary (events are trace-only detail). A
    /// disabled recorder renders an empty-but-valid document.
    #[must_use]
    pub fn metrics_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        out.push_str("{\"format\":\"gnet-trace-metrics\",\"version\":1,\"spans\":[");
        let trace = self.trace();
        if let Some(trace) = trace {
            for (i, s) in lock(&trace.spans).iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str("{\"name\":");
                escape_json(&mut out, &s.name);
                let _ = write!(
                    out,
                    ",\"start_us\":{},\"dur_us\":{}}}",
                    s.start_us, s.dur_us
                );
            }
        }
        out.push_str("],\"counters\":{");
        for (i, (name, value)) in self.counters().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            escape_json(&mut out, name);
            let _ = write!(out, ":{value}");
        }
        out.push_str("},\"histograms\":{");
        for (i, (name, h)) in self.histograms().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            escape_json(&mut out, name);
            out.push(':');
            histogram_body(&mut out, h);
        }
        let events = trace.map_or(0, |t| lock(&t.events).len());
        let _ = write!(out, "}},\"events\":{events}}}");
        out
    }

    /// Write [`metrics_json`](Self::metrics_json) to `w` with a trailing
    /// newline.
    ///
    /// # Errors
    /// Propagates write errors from `w`.
    pub fn write_metrics_json<W: Write>(&self, w: &mut W) -> io::Result<()> {
        writeln!(w, "{}", self.metrics_json())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn sample_recorder() -> Recorder {
        let rec = Recorder::enabled();
        {
            let _s = rec.span("stage.prep");
        }
        rec.counter_add("mi.pairs", 28);
        rec.observe("scheduler.tile_us", Duration::from_micros(33));
        rec.event(
            "checkpoint.chunk",
            &[
                ("tiles_done", Value::U64(4)),
                ("note", Value::Str("a \"quoted\" name\n".into())),
                ("bad", Value::F64(f64::NAN)),
            ],
        );
        rec
    }

    /// The export bytes of a fixed sequence of counter and histogram
    /// records — including a saturating sum and the overflow bucket —
    /// pinned to the bytes the locked per-recorder maps wrote before the
    /// store became atomic cells.
    #[test]
    fn counter_and_histogram_exports_are_byte_stable() {
        let rec = Recorder::enabled();
        rec.counter_add("mi.pairs", 28);
        rec.counter_add("a.first", 1);
        rec.counter_add("mi.pairs", 2);
        rec.counter_add("z\"quoted", 7);
        for v in [3u64, 0, 1, 2, 1024, 900, (1 << 25) + 1, 1 << 25] {
            rec.observe_us("scheduler.tile_us", v);
        }
        rec.observe_us("sat", u64::MAX);
        rec.observe_us("sat", 5);
        rec.observe_us("one", 17);
        let one = r#"{"count":1,"sum_us":17,"mean_us":17.000,"min_us":17,"max_us":17,"p50_us":17,"p95_us":17,"p99_us":17,"buckets":[{"le_us":32,"count":1}]}"#;
        let sat = r#"{"count":2,"sum_us":18446744073709551615,"mean_us":9223372036854775808.000,"min_us":5,"max_us":18446744073709551615,"p50_us":8,"p95_us":18446744073709551615,"p99_us":18446744073709551615,"buckets":[{"le_us":8,"count":1},{"le_us":null,"count":1}]}"#;
        let tile = r#"{"count":8,"sum_us":67110795,"mean_us":8388849.375,"min_us":0,"max_us":33554433,"p50_us":4,"p95_us":33554433,"p99_us":33554433,"buckets":[{"le_us":1,"count":2},{"le_us":2,"count":1},{"le_us":4,"count":1},{"le_us":1024,"count":2},{"le_us":33554432,"count":1},{"le_us":null,"count":1}]}"#;
        let mut out = Vec::new();
        rec.write_ndjson(&mut out).expect("vec sink cannot fail");
        let text = String::from_utf8(out).expect("ndjson output is utf-8");
        let lines: Vec<&str> = text.lines().skip(1).collect();
        assert_eq!(
            lines,
            [
                r#"{"type":"counter","name":"a.first","value":1}"#.to_string(),
                r#"{"type":"counter","name":"mi.pairs","value":30}"#.to_string(),
                r#"{"type":"counter","name":"z\"quoted","value":7}"#.to_string(),
                format!(r#"{{"type":"histogram","name":"one","data":{one}}}"#),
                format!(r#"{{"type":"histogram","name":"sat","data":{sat}}}"#),
                format!(r#"{{"type":"histogram","name":"scheduler.tile_us","data":{tile}}}"#),
            ]
        );
        assert_eq!(
            rec.metrics_json(),
            format!(
                r#"{{"format":"gnet-trace-metrics","version":1,"spans":[],"counters":{{"a.first":1,"mi.pairs":30,"z\"quoted":7}},"histograms":{{"one":{one},"sat":{sat},"scheduler.tile_us":{tile}}},"events":0}}"#
            )
        );
    }

    #[test]
    fn escape_handles_quotes_and_control_chars() {
        let mut out = String::new();
        escape_json(&mut out, "a\"b\\c\nd\te\u{1}");
        assert_eq!(out, "\"a\\\"b\\\\c\\nd\\te\\u0001\"");
    }

    #[test]
    fn ndjson_lines_are_self_contained_objects() {
        let rec = sample_recorder();
        let mut out = Vec::new();
        rec.write_ndjson(&mut out).expect("vec sink cannot fail");
        let text = String::from_utf8(out).expect("ndjson output is utf-8");
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines.len() >= 5, "{text}");
        for line in &lines {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        }
        assert!(lines[0].contains("\"type\":\"meta\""));
        assert!(text.contains("\"type\":\"span\""));
        assert!(text.contains("\"type\":\"counter\""));
        assert!(text.contains("\"type\":\"histogram\""));
        assert!(text.contains("\"type\":\"event\""));
        // NaN must not leak into the JSON.
        assert!(text.contains("\"bad\":null"), "{text}");
        assert!(!text.contains("NaN"));
    }

    #[test]
    fn metrics_json_summarizes_everything() {
        let rec = sample_recorder();
        let json = rec.metrics_json();
        assert!(json.contains("\"mi.pairs\":28"), "{json}");
        assert!(json.contains("\"scheduler.tile_us\""), "{json}");
        assert!(json.contains("\"events\":1"), "{json}");
        assert!(json.contains("\"p95_us\""), "{json}");
    }

    #[test]
    fn extra_meta_fields_land_on_the_meta_line() {
        let rec = Recorder::enabled();
        let mut out = Vec::new();
        rec.write_ndjson_with_meta(
            &mut out,
            &[
                ("rank", Value::U64(3)),
                ("clock_offset_us", Value::I64(-42)),
            ],
        )
        .expect("vec sink cannot fail");
        let text = String::from_utf8(out).expect("utf-8");
        let meta = text.lines().next().expect("meta line present");
        assert!(meta.contains("\"rank\":3"), "{meta}");
        assert!(meta.contains("\"clock_offset_us\":-42"), "{meta}");
        assert!(meta.ends_with('}'), "{meta}");
    }

    #[test]
    fn disabled_recorder_exports_valid_empty_documents() {
        let rec = Recorder::disabled();
        let json = rec.metrics_json();
        assert!(json.contains("\"counters\":{}"), "{json}");
        let mut out = Vec::new();
        rec.write_ndjson(&mut out).expect("vec sink cannot fail");
        assert_eq!(String::from_utf8(out).expect("utf-8").lines().count(), 1);
    }

    #[test]
    fn exports_parse_with_serde_json_shapes() {
        // Cheap structural validation without a parser dependency: every
        // brace/bracket balances in each NDJSON line and in the summary.
        fn balanced(s: &str) -> bool {
            let (mut depth, mut in_str, mut escaped) = (0i64, false, false);
            for c in s.chars() {
                if in_str {
                    match (escaped, c) {
                        (true, _) => escaped = false,
                        (false, '\\') => escaped = true,
                        (false, '"') => in_str = false,
                        _ => {}
                    }
                    continue;
                }
                match c {
                    '"' => in_str = true,
                    '{' | '[' => depth += 1,
                    '}' | ']' => depth -= 1,
                    _ => {}
                }
                if depth < 0 {
                    return false;
                }
            }
            depth == 0 && !in_str
        }
        let rec = sample_recorder();
        assert!(balanced(&rec.metrics_json()));
        let mut out = Vec::new();
        rec.write_ndjson(&mut out).expect("vec sink cannot fail");
        for line in String::from_utf8(out).expect("utf-8").lines() {
            assert!(balanced(line), "{line}");
        }
    }
}
