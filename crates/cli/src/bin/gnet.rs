//! `gnet` — construct and analyse whole-genome MI networks.
//!
//! ```text
//! gnet generate --genes 500 --samples 400 --out m.tsv --truth t.tsv
//! gnet infer    --input m.tsv --output edges.tsv --q 30 [--dpi 0.05] [--ranks 4]
//! gnet score    --edges edges.tsv --truth t.tsv --matrix m.tsv
//! gnet stats    --input m.tsv
//! gnet predict  --genes 15575 --samples 3137 --q 30
//! ```

use gnet_cli::{
    cmd_analyze, cmd_bench, cmd_conformance, cmd_generate, cmd_infer, cmd_predict, cmd_score,
    cmd_simd, cmd_stats, cmd_status, cmd_topology, cmd_trace_report, cmd_update, cmd_worker,
    ArgMap,
};

const USAGE: &str = "\
gnet — whole-genome mutual-information network construction

subcommands:
  generate  synthesize a ground-truth GRN expression matrix
            --genes N --samples M [--seed S] [--avg-degree D]
            [--topology scale-free|erdos-renyi] [--batches N --batch-sd S]
            --out FILE [--truth FILE]
  infer     infer a network from a TSV matrix
            --input FILE --output FILE [--q N] [--alpha A] [--bins B]
            [--order K] [--threshold T] [--threads T] [--tile T]
            [--kernel vector|scalar] [--scheduler dynamic|static-block|
            static-cyclic] [--early-exit] [--dpi EPS]
            [--ranks P (P ring ranks, each scanning its block pairs on
            --threads workers; excludes --early-exit)]
            [--quantile-normalize] [--center-batches N]
            [--trace FILE] [--metrics FILE] [--progress]
            [--trace-dir DIR (with --ranks: per-rank streams + manifest)]
            [--checkpoint-dir DIR [--checkpoint-every N] [--resume]]
            [--fault-plan PLAN] [--save-state DIR (updatable bundle for
            gnet update; excludes --ranks/--checkpoint-dir/--early-exit)]
            [--listen ADDR (with --ranks P: TCP coordinator, waits for
            P-1 workers; prints \"listening on IP:PORT\")]
            [--status-addr ADDR (live /status + /metrics HTTP listener;
            prints \"status listening on IP:PORT\")]
            [--status-file FILE (atomically rewritten gnet-status/1
            JSON)] [--status-interval-ms N (heartbeat cadence, 250)]
  update    incrementally append genes or samples to a saved state
            --state DIR --append FILE --output FILE
            [--mode genes|samples] [--checkpoint-every N (tiles, 8)]
            [--resume] [--fault-plan PLAN]
  worker    join a multi-process run started by infer --listen
            --connect ADDR [--trace-dir DIR]
  status    one-screen live summary of a running inference
            <IP:PORT | FILE> (or --target ...) [--metrics] [--json]
  trace-report  offline analysis of recorded traces
            (--trace FILE | --trace-dir DIR) [--chrome FILE]
            [--flame FILE] [--no-calibrate]
  bench     seeded benchmark suite + regression gate
            [--quick] [--reps K] [--out FILE] [--baseline FILE]
            [--update-baseline] [--inject-slowdown F]
  simd      report the SIMD backend the kernel dispatcher picked
            [--verify (exit nonzero on an unhealthy dispatch)]
  score     score an edge list against a ground truth
            --edges FILE --truth FILE --matrix FILE
  topology  topology report of an edge list
            --edges FILE --matrix FILE [--hubs N]
  analyze   workspace static analysis, scheduler race checker,
            and ring-protocol model checker
            [--root DIR] [--allowlist FILE] [--json] [--deny]
            [--deny-stale] [--unsafe-audit] [--concurrency] [--runs N]
            [--protocol] [--self-check] [--full] [--max-ranks N]
            [--replay SPEC]
  conformance  differential & metamorphic conformance harness
            [--level quick|full] [--seed S] [--json] [--report FILE]
            [--self-check] [--replay SPEC]
  stats     summarize a TSV matrix            --input FILE
  predict   modeled platform runtimes         [--genes N] [--samples M] [--q N]
";

fn main() {
    let mut argv = std::env::args().skip(1);
    let Some(sub) = argv.next() else {
        eprint!("{USAGE}");
        std::process::exit(2);
    };
    let mut tokens: Vec<String> = argv.collect();
    // `gnet status 127.0.0.1:8080` / `gnet status run/status.json`:
    // a leading bare token is sugar for --target.
    if sub == "status" && tokens.first().is_some_and(|t| !t.starts_with("--")) {
        tokens.insert(0, "--target".to_string());
    }
    let args = match ArgMap::parse(tokens) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n");
            eprint!("{USAGE}");
            std::process::exit(2);
        }
    };
    let mut stdout = std::io::stdout().lock();
    let result = match sub.as_str() {
        "generate" => cmd_generate(&args, &mut stdout),
        "infer" => cmd_infer(&args, &mut stdout),
        "update" => cmd_update(&args, &mut stdout),
        "worker" => cmd_worker(&args, &mut stdout),
        "status" => cmd_status(&args, &mut stdout),
        "score" => cmd_score(&args, &mut stdout),
        "topology" => cmd_topology(&args, &mut stdout),
        "trace-report" => cmd_trace_report(&args, &mut stdout),
        "bench" => cmd_bench(&args, &mut stdout),
        "simd" => cmd_simd(&args, &mut stdout),
        "analyze" => cmd_analyze(&args, &mut stdout),
        "conformance" => cmd_conformance(&args, &mut stdout),
        "stats" => cmd_stats(&args, &mut stdout),
        "predict" => cmd_predict(&args, &mut stdout),
        "help" | "--help" | "-h" => {
            print!("{USAGE}");
            return;
        }
        other => {
            eprintln!("error: unknown subcommand {other:?}\n");
            eprint!("{USAGE}");
            std::process::exit(2);
        }
    };
    if let Err(e) = result {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}
