//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints provenance and summary lines, then, as the last line of
//! standard output, one JSON object with the keys `correct`, `attempted`,
//! `failed` and `metrics`. Exits non-zero, printing no result, when the
//! arguments are wrong or set-up fails.

use gnet_perfbench::workload::Workload;
use gnet_perfbench::{report, run, RunConfig};
use std::process::ExitCode;

const USAGE: &str = "usage: perfbench --workload <paper-256|few-samples-2048|ring-2|append-32> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<RunConfig, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .ok_or_else(bad)?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    match (workload, seed, seconds, trace) {
        (Some(w), Some(s), Some(secs), Some(t)) => Ok(RunConfig::new(w, s, secs, t)),
        _ => Err("every flag is required".into()),
    }
}

fn main() -> ExitCode {
    let cfg = match parse_args() {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let rep = match run(&cfg) {
        Ok(rep) => rep,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    for note in &rep.notes {
        println!("# {note}");
    }
    for failure in &rep.failures {
        println!("# FAILED {failure}");
    }
    for m in &rep.metrics {
        println!("# {:<28} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!(
        "{}",
        report::result_json(rep.attempted, rep.failed, &rep.metrics)
    );
    ExitCode::SUCCESS
}
