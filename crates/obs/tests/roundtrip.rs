//! NDJSON round-trip corpus: every event kind the workspace's producers
//! emit must parse back through the strict obs ingester, with no record
//! dropped — and any unknown-field drift must be a hard error.
//!
//! Producers exercised:
//! * a hand-driven [`Recorder`] hitting every record type and every
//!   typed field value;
//! * a real single-process pipeline run (`infer_network_traced`);
//! * the `gnet-phi` simulator (`simulate_tiles_traced`), whose events
//!   carry *simulated* time via `event_at_us`;
//! * a fault-injected distributed run (driver-side `fault.*` /
//!   `recovery.*` events plus the per-rank streams on disk).

use gnet_cluster::{infer_network_distributed, RankRun};
use gnet_core::{infer_network_traced, InferenceConfig};
use gnet_expr::synth::coupled_pairs;
use gnet_expr::synth::Coupling;
use gnet_fault::{FaultInjector, FaultPlan};
use gnet_obs::ingest::{parse_ndjson, FieldValue};
use gnet_obs::model::RunModel;
use gnet_parallel::SchedulerPolicy;
use gnet_phi::{simulate_tiles_traced, MachineModel, WorkloadModel};
use gnet_trace::{Recorder, Value};
use std::time::Duration;

fn exported(rec: &Recorder) -> String {
    let mut out = Vec::new();
    rec.write_ndjson(&mut out).expect("vec sink cannot fail");
    String::from_utf8(out).expect("ndjson is utf-8")
}

/// Non-meta line count of a stream — the ground truth for record
/// conservation.
fn payload_lines(text: &str) -> usize {
    text.lines()
        .filter(|l| !l.trim().is_empty() && !l.contains("\"type\":\"meta\""))
        .count()
}

fn assert_roundtrip(text: &str, label: &str) -> gnet_obs::RankTrace {
    let trace =
        parse_ndjson(text).unwrap_or_else(|e| panic!("{label}: corpus stream must parse: {e}"));
    assert_eq!(
        trace.record_count(),
        payload_lines(text),
        "{label}: every non-meta line must land in exactly one record"
    );
    trace
}

#[test]
fn hand_driven_recorder_covers_every_record_and_value_kind() {
    let rec = Recorder::enabled();
    {
        let _outer = rec.span("outer");
        let _inner = rec.span("inner");
    }
    rec.counter_add("c.one", 1);
    rec.counter_add("c.big", u64::MAX);
    rec.observe("h.lat", Duration::from_micros(3));
    rec.observe("h.lat", Duration::from_secs(4000)); // saturates top bucket
    rec.event(
        "e.kinds",
        &[
            ("u", Value::U64(7)),
            ("i", Value::I64(-7)),
            ("f", Value::F64(1.5)),
            ("inf", Value::F64(f64::INFINITY)),
            ("s", Value::Str("text".into())),
            ("b", Value::Bool(false)),
        ],
    );
    let trace = assert_roundtrip(&exported(&rec), "hand-driven");
    assert_eq!(trace.spans.len(), 2);
    assert_eq!(trace.counter("c.big"), Some(u64::MAX));
    let e = trace.event("e.kinds").expect("event survives");
    assert_eq!(e.field("u"), Some(&FieldValue::U64(7)));
    assert_eq!(e.field("i"), Some(&FieldValue::I64(-7)));
    assert_eq!(e.field("f"), Some(&FieldValue::F64(1.5)));
    assert_eq!(e.field("inf"), Some(&FieldValue::Null), "non-finite → null");
    assert_eq!(e.field("s"), Some(&FieldValue::Str("text".into())));
    assert_eq!(e.field("b"), Some(&FieldValue::Bool(false)));
    let h = &trace.histograms[0];
    assert_eq!(h.count, 2);
    assert!(
        h.buckets.iter().any(|(le, _)| le.is_none()),
        "overflow bucket kept"
    );
}

#[test]
fn real_pipeline_trace_round_trips() {
    let (matrix, _) = coupled_pairs(4, 96, Coupling::Linear(0.9), 11);
    let config = InferenceConfig {
        permutations: 4,
        threads: Some(2),
        ..InferenceConfig::default()
    };
    let rec = Recorder::enabled();
    let _ = infer_network_traced(&matrix, &config, &rec);
    let trace = assert_roundtrip(&exported(&rec), "pipeline");
    for span in ["stage.prep", "stage.mi", "stage.finalize"] {
        assert!(
            trace.spans.iter().any(|s| s.name == span),
            "pipeline stream must carry {span}"
        );
    }
    assert!(trace.event("run.config").is_some());
    assert!(trace.event("pipeline.done").is_some());
    assert!(trace.counter("mi.pairs").is_some());
    assert!(
        trace
            .counters
            .iter()
            .any(|c| c.name.starts_with("scheduler.claims.t")),
        "scheduler claim counters survive the round trip"
    );
    assert!(
        trace
            .histograms
            .iter()
            .any(|h| h.name == "scheduler.tile_us"),
        "tile-latency histogram survives the round trip"
    );
}

#[test]
fn simulated_time_phi_events_round_trip() {
    let machine = MachineModel::xeon_phi_5110p();
    let workload = WorkloadModel {
        genes: 64,
        samples: 200,
        q: 4,
        ..WorkloadModel::arabidopsis_headline()
    };
    let space = gnet_parallel::TileSpace::new(64, 16);
    let rec = Recorder::enabled();
    let _ = simulate_tiles_traced(
        space.tiles(),
        &machine,
        &workload,
        4,
        SchedulerPolicy::DynamicCounter,
        &rec,
    );
    let trace = assert_roundtrip(&exported(&rec), "phi-sim");
    assert_eq!(
        trace.events.iter().filter(|e| e.name == "sim.tile").count(),
        space.tiles().len()
    );
    assert_eq!(
        trace
            .events
            .iter()
            .filter(|e| e.name == "sim.thread")
            .count(),
        4
    );
    let run = trace.event("sim.run").expect("sim.run survives");
    // Simulated timestamps are modeled µs, far beyond the recorder's
    // real elapsed time at export — proof that `event_at_us` time (not
    // wall time) round-trips.
    assert!(run.t_us > 0, "simulated timestamp preserved");
}

#[test]
fn fault_injected_distributed_run_round_trips_every_stream() {
    let (matrix, _) = coupled_pairs(6, 200, Coupling::Linear(0.8), 42);
    let config = InferenceConfig {
        permutations: 4,
        threads: Some(1),
        mi_threshold: Some(0.1),
        ..InferenceConfig::default()
    };
    let plan = FaultPlan::parse("seed=7;crash(rank=2,round=1)").expect("plan parses");
    let driver_rec = Recorder::enabled();
    let injector = FaultInjector::from_plan_traced(&plan, &driver_rec);
    let dir = std::env::temp_dir().join(format!(
        "gnet-obs-roundtrip-{}-{}",
        std::process::id(),
        line!()
    ));
    let run = RankRun {
        faults: injector,
        recorder: driver_rec.clone(),
        peer_timeout: Duration::from_millis(500),
        trace_dir: Some(&dir),
        ..RankRun::new(4)
    };
    let result = infer_network_distributed(&matrix, &config, &run)
        .expect("crash of a non-coordinator rank is recoverable");
    assert_eq!(result.crashed_ranks, vec![2]);

    // Driver-side stream: fault.* / recovery.* events must round-trip.
    let driver = assert_roundtrip(&exported(&driver_rec), "fault-driver");
    assert!(
        driver.events.iter().any(|e| e.name.starts_with("fault.")),
        "fault injection events survive"
    );
    assert!(
        driver
            .events
            .iter()
            .any(|e| e.name.starts_with("recovery.")),
        "recovery events survive"
    );

    // Per-rank streams on disk: all four parse and conserve records.
    for r in 0..4u64 {
        let path = dir.join(format!("rank-{r}.ndjson"));
        let text = std::fs::read_to_string(&path).expect("rank stream exists");
        let trace = assert_roundtrip(&text, &format!("rank-{r}"));
        assert_eq!(trace.meta.rank, Some(r));
    }
    // And the whole directory loads as one model.
    let model = RunModel::from_dir(&dir).expect("manifest-driven load");
    assert_eq!(model.rank_count(), 4);
    assert_eq!(model.crashed_ranks, vec![2]);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn unknown_field_drift_fails_the_corpus() {
    let rec = Recorder::enabled();
    {
        let _s = rec.span("stage.mi");
    }
    rec.counter_add("mi.pairs", 1);
    let text = exported(&rec);

    // Simulate a producer that grew a field this consumer doesn't know:
    // inject one unknown key into each record type in turn.
    for marker in [
        "\"type\":\"span\"",
        "\"type\":\"counter\"",
        "\"type\":\"meta\"",
    ] {
        let drifted: String = text
            .lines()
            .map(|l| {
                if l.contains(marker) {
                    let mut s = l.trim_end().to_string();
                    assert_eq!(s.pop(), Some('}'));
                    s.push_str(",\"new_field_from_the_future\":1}");
                    s.push('\n');
                    s
                } else {
                    format!("{l}\n")
                }
            })
            .collect();
        let err = parse_ndjson(&drifted).expect_err("drifted stream must be rejected");
        assert!(
            err.message.contains("new_field_from_the_future"),
            "error names the drifted field: {err}"
        );
    }
}
