//! Tiny-shape runs of every workload: the metric set is complete and
//! matches `BENCHMARK.json`, sound outputs pass, corrupted outputs fail.

use gnet_perfbench::check::Corruption;
use gnet_perfbench::workload::{Shape, Workload};
use gnet_perfbench::{run, RunConfig, RunReport, END_TO_END, PER_LAYER};
use std::path::PathBuf;

fn tiny(workload: Workload, trace: bool, tag: &str) -> RunConfig {
    RunConfig {
        shape: Shape::tiny(workload),
        seconds: 0.05,
        setup_reps: 1,
        work_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
            .join(format!("smoke-{tag}-{}-{trace}", workload.name())),
        ..RunConfig::new(workload, 7, 0.05, trace)
    }
}

fn names_and_units(rep: &RunReport) -> Vec<(&'static str, &'static str)> {
    rep.metrics.iter().map(|m| (m.name, m.unit)).collect()
}

/// `(name, unit)` of every metric line in one section of `BENCHMARK.json`
/// (the file lists one metric per line).
fn declared(section: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json sits at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section closes")];
    let field = |line: &str, key: &str| {
        let rest = &line[line.find(&format!("\"{key}\": \""))? + key.len() + 5..];
        Some(rest[..rest.find('"')?].to_string())
    };
    body.lines()
        .filter_map(|l| Some((field(l, "name")?, field(l, "unit")?)))
        .collect()
}

#[test]
fn every_workload_emits_every_declared_metric_with_its_unit() {
    let e2e: Vec<(String, String)> = END_TO_END
        .iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect();
    let layer: Vec<(String, String)> = PER_LAYER
        .iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect();
    assert_eq!(declared("end_to_end"), e2e);
    assert_eq!(declared("per_layer"), layer);

    for w in Workload::ALL {
        for trace in [false, true] {
            let rep = run(&tiny(w, trace, "emit")).expect("tiny set-up succeeds");
            assert_eq!(rep.failed, 0, "{}: {:?}", w.name(), rep.failures);
            assert!(rep.attempted >= 1);
            let want: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
            assert_eq!(
                names_and_units(&rep),
                want.to_vec(),
                "{} trace={trace}",
                w.name()
            );
            assert!(rep.metrics.iter().all(|m| m.value.is_finite()));
            if !trace {
                let rate = rep.metrics.iter().find(|m| m.name == "pairs_per_s");
                assert!(rate.expect("pairs_per_s").value > 0.0);
            }
        }
    }
}

#[test]
fn traced_run_fills_the_layers_of_its_workload() {
    let value = |rep: &RunReport, name: &str| {
        rep.metrics
            .iter()
            .find(|m| m.name == name)
            .expect("metric present")
            .value
    };
    let batch = run(&tiny(Workload::Paper256, true, "layers")).expect("set-up");
    let shape = Shape::tiny(Workload::Paper256);
    for name in [
        "accumulate.identity_us",
        "stage.mi_s",
        "sched.tiles",
        "accounted_frac",
    ] {
        assert!(value(&batch, name) > 0.0, "{name}");
    }
    assert_eq!(
        value(&batch, "accumulate.joints"),
        (shape.all_pairs() * 31) as f64
    );
    let ring = run(&tiny(Workload::Ring2, true, "layers")).expect("set-up");
    for name in ["ring.bytes", "ring.messages", "codec.encode_us"] {
        assert!(value(&ring, name) > 0.0, "{name}");
    }
    let append = run(&tiny(Workload::Append32, true, "layers")).expect("set-up");
    let shape = Shape::tiny(Workload::Append32);
    assert_eq!(
        value(&append, "update.pairs_scanned"),
        shape.frontier_pairs() as f64
    );
    assert!(value(&append, "state.bytes") > 0.0);
}

#[test]
fn a_corrupted_output_counts_as_failed() {
    let cases = [
        // Batch runs compare each operation with the run's first one.
        (Workload::Paper256, Corruption::PerturbWeight, 1),
        (Workload::FewSamples2048, Corruption::DropEdge, 1),
        // The ring and the append compare with an independent reference.
        (Workload::Ring2, Corruption::PerturbWeight, 0),
        (Workload::Append32, Corruption::DropEdge, 0),
    ];
    for (w, corruption, op) in cases {
        let cfg = RunConfig {
            seconds: 0.3,
            corrupt: Some((op, corruption)),
            ..tiny(w, false, "corrupt")
        };
        let rep = run(&cfg).expect("tiny set-up succeeds");
        assert!(
            rep.attempted > op as u64,
            "{}: too few operations",
            w.name()
        );
        assert!(
            rep.failed >= 1,
            "{} with {corruption:?} on op {op} passed the checks",
            w.name()
        );
        let ok = rep.metrics.iter().find(|m| m.name == "ops_ok_frac");
        assert!(ok.expect("ops_ok_frac").value < 1.0);
    }
}
