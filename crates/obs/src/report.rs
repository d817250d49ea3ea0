//! Timeline analysis: load balance, critical path, perf attribution.
//!
//! Everything here is pure computation over a [`RunModel`]; the only
//! non-determinism is the optional live kernel calibration used to put
//! a "percent of modeled peak" column next to measured MI throughput
//! (callers can skip it and pass `None`).

use crate::ingest::FieldValue;
use crate::model::{AlignedSpan, RunModel};
use gnet_phi::calibrate::{measure_kernel, KernelRate};
use gnet_phi::KernelClass;
use std::fmt::Write as _;

/// The run shape stamped by the pipeline's `run.config` event.
#[derive(Clone, Debug, PartialEq)]
pub struct RunConfig {
    /// Gene count.
    pub genes: u64,
    /// Samples per gene.
    pub samples: u64,
    /// Permutations per pair.
    pub permutations: u64,
    /// Kernel slug (`scalar` / `vector`).
    pub kernel: String,
    /// Worker threads.
    pub threads: u64,
    /// Tile size.
    pub tile_size: u64,
    /// Scheduler policy slug.
    pub scheduler: String,
}

impl RunConfig {
    /// Extract the config from a run's `run.config` event, if stamped.
    #[must_use]
    pub fn from_model(model: &RunModel) -> Option<Self> {
        let e = model.run_config()?;
        let u = |k: &str| e.field(k).and_then(FieldValue::as_u64);
        Some(Self {
            genes: u("genes")?,
            samples: u("samples")?,
            permutations: u("permutations")?,
            kernel: e.field("kernel")?.as_str()?.to_string(),
            threads: u("threads")?,
            tile_size: u("tile_size")?,
            scheduler: e.field("scheduler")?.as_str()?.to_string(),
        })
    }
}

/// One rank's load summary.
#[derive(Clone, Debug, PartialEq)]
pub struct RankLoad {
    /// Rank id.
    pub rank: u64,
    /// Busy time: union of the rank's span intervals, µs (overlapping
    /// spans — nested stages, per-thread work — are not double-counted).
    pub busy_us: u64,
    /// Busy time / run makespan (0 when the makespan is 0).
    pub utilization: f64,
    /// Per-thread tile-claim counts from `scheduler.claims.t<tid>`,
    /// sorted by thread id.
    pub thread_claims: Vec<(u64, u64)>,
    /// Pairs attributed to this rank (`rank.pairs`, or `mi.pairs` for
    /// single-process runs).
    pub pairs: Option<u64>,
    /// Whether the manifest flags this rank as crashed.
    pub crashed: bool,
}

/// One rank's TCP transport counters (`tcp.*`), published by the
/// loopback/cluster TCP transport. Absent for single-process and
/// in-process-channel runs, so the report section only appears when a
/// run actually crossed the network.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TransportLoad {
    /// Rank id.
    pub rank: u64,
    /// Mesh connections established by this rank (dial side).
    pub connects: u64,
    /// Dial attempts that needed a retry before succeeding.
    pub connect_retries: u64,
    /// Protocol frames written to peers.
    pub frames_sent: u64,
    /// Protocol frames read from peers.
    pub frames_recv: u64,
    /// Frame payload bytes written (headers included).
    pub frame_bytes_sent: u64,
    /// Frame payload bytes read (headers included).
    pub frame_bytes_recv: u64,
    /// Receives that hit the per-operation deadline.
    pub deadline_expiries: u64,
    /// Peer connections that dropped mid-run (death or mid-frame cut).
    pub peer_disconnects: u64,
    /// High-water mark of frames queued to any single peer's writer
    /// (`tcp.send_queue_peak`); a large peak pinpoints the rank whose
    /// sends were backing up behind a slow or stalled receiver.
    pub send_queue_peak: u64,
}

/// One stage row of the perf-attribution table.
#[derive(Clone, Debug, PartialEq)]
pub struct StageAttribution {
    /// Stage name (span name, with per-round rank spans collapsed).
    pub stage: String,
    /// Total measured time in the stage across ranks, µs.
    pub total_us: u64,
    /// Share of summed stage time (0..=1).
    pub share: f64,
    /// Pairs attributed to the stage (MI stages only).
    pub pairs: Option<u64>,
    /// Measured throughput, pairs/s (MI stages with pairs and time).
    pub measured_pairs_per_s: Option<f64>,
    /// Modeled peak throughput at the run shape, pairs/s.
    pub modeled_pairs_per_s: Option<f64>,
    /// Measured / modeled, as a percentage.
    pub percent_of_model: Option<f64>,
}

/// The full trace report.
#[derive(Clone, Debug)]
pub struct TimelineReport {
    /// End-to-end aligned makespan, µs.
    pub makespan_us: u64,
    /// Per-rank load, sorted by rank.
    pub ranks: Vec<RankLoad>,
    /// Per-rank TCP transport counters, sorted by rank. Empty unless
    /// the rank streams carry `tcp.*` counters (multi-process runs).
    pub transport: Vec<TransportLoad>,
    /// Load imbalance: max rank busy / mean rank busy (1.0 = perfect).
    pub imbalance: f64,
    /// The critical path, latest span backwards (see [`critical_path`]).
    pub critical_path: Vec<AlignedSpan>,
    /// Time covered by the critical path, µs.
    pub critical_path_us: u64,
    /// Per-stage attribution, largest stage first.
    pub attribution: Vec<StageAttribution>,
    /// The run shape, when the trace carries a `run.config` event.
    pub config: Option<RunConfig>,
}

/// The calibrated single-thread kernel model used for attribution.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct KernelModel {
    /// Nanoseconds per pair (inclusive of nulls), one thread.
    pub ns_per_pair: f64,
    /// Threads the run used (the model scales linearly with threads —
    /// the paper's dense-tile kernel is compute-bound).
    pub threads: u64,
}

impl KernelModel {
    /// Modeled peak throughput, pairs/s.
    #[must_use]
    pub fn pairs_per_second(&self) -> f64 {
        #[allow(clippy::cast_precision_loss)] // cast-ok: thread counts are tiny
        {
            1e9 / self.ns_per_pair * self.threads as f64
        }
    }
}

/// Calibrate the MI kernel at the run's shape (a short live
/// measurement; skip for fully offline reports).
#[must_use]
pub fn calibrate_model(config: &RunConfig) -> KernelModel {
    let class = if config.kernel == "vector" {
        KernelClass::VectorDense
    } else {
        KernelClass::ScalarSparse
    };
    #[allow(clippy::cast_possible_truncation)] // cast-ok: run shapes fit usize
    let rate: KernelRate = measure_kernel(
        class,
        (config.samples as usize).max(8),
        config.permutations as usize,
        (config.genes as usize).clamp(2, 64),
        2_000,
    );
    KernelModel {
        ns_per_pair: rate.ns_per_pair,
        threads: config.threads.max(1),
    }
}

/// Union length of a set of `[start, end)` intervals, µs.
fn interval_union_us(mut iv: Vec<(i64, i64)>) -> u64 {
    iv.retain(|(s, e)| e > s);
    iv.sort_unstable();
    let mut total = 0u64;
    let mut cur: Option<(i64, i64)> = None;
    for (s, e) in iv {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total = total.saturating_add(ce.abs_diff(cs));
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = cur {
        total = total.saturating_add(ce.abs_diff(cs));
    }
    total
}

/// Greedy critical-path extraction over the aligned span set: start
/// from the latest-ending span, repeatedly hop to the latest-ending
/// span that ends at or before the current span's start (and starts
/// before it, so a zero-length span cannot be its own predecessor),
/// until no predecessor exists. Returned earliest-first. This is the
/// classic last-finisher walk: on a barriered pipeline it recovers the
/// chain of stages that bound the makespan.
#[must_use]
pub fn critical_path(spans: &[AlignedSpan]) -> Vec<AlignedSpan> {
    let mut path: Vec<AlignedSpan> = Vec::new();
    let mut cursor: Option<&AlignedSpan> = spans.iter().max_by_key(|s| (s.end_us(), s.dur_us));
    while let Some(cur) = cursor {
        path.push(cur.clone());
        cursor = spans
            .iter()
            .filter(|s| s.end_us() <= cur.start_us && s.start_us < cur.start_us)
            .max_by_key(|s| (s.end_us(), s.dur_us));
    }
    path.reverse();
    path
}

/// Collapse per-round rank span names (`rank.round.3` → `rank.round`)
/// so attribution groups rounds as one stage.
fn stage_of(name: &str) -> String {
    let trimmed = name.trim_end_matches(|c: char| c.is_ascii_digit());
    if trimmed.len() < name.len() && trimmed.ends_with('.') {
        trimmed.trim_end_matches('.').to_string()
    } else {
        name.to_string()
    }
}

/// Build the full report. `model_rates`: pass the calibrated kernel
/// model to fill the percent-of-modeled-peak column, or `None` for a
/// fully offline report.
#[must_use]
pub fn analyze(model: &RunModel, kernel_model: Option<KernelModel>) -> TimelineReport {
    let makespan_us = model.makespan_us();
    let spans = model.aligned_spans();

    // --- per-rank load -------------------------------------------------
    let mut ranks: Vec<RankLoad> = model
        .ranks
        .iter()
        .map(|t| {
            let rank = t.rank();
            let busy_us = interval_union_us(
                spans
                    .iter()
                    .filter(|s| s.rank == rank)
                    .map(|s| (s.start_us, s.end_us()))
                    .collect(),
            );
            let mut thread_claims: Vec<(u64, u64)> = t
                .counters
                .iter()
                .filter_map(|c| {
                    c.name
                        .strip_prefix("scheduler.claims.t")
                        .and_then(|tid| tid.parse::<u64>().ok())
                        .map(|tid| (tid, c.value))
                })
                .collect();
            thread_claims.sort_unstable();
            #[allow(clippy::cast_precision_loss)] // cast-ok: µs totals, report math
            let utilization = if makespan_us == 0 {
                0.0
            } else {
                busy_us as f64 / makespan_us as f64
            };
            RankLoad {
                rank,
                busy_us,
                utilization,
                thread_claims,
                pairs: t.counter("rank.pairs").or_else(|| t.counter("mi.pairs")),
                crashed: model.crashed_ranks.contains(&rank),
            }
        })
        .collect();
    ranks.sort_by_key(|r| r.rank);

    // --- transport counters --------------------------------------------
    let mut transport: Vec<TransportLoad> = model
        .ranks
        .iter()
        .filter(|t| t.counters.iter().any(|c| c.name.starts_with("tcp.")))
        .map(|t| {
            let c = |name: &str| t.counter(name).unwrap_or(0);
            TransportLoad {
                rank: t.rank(),
                connects: c("tcp.connects"),
                connect_retries: c("tcp.connect_retries"),
                frames_sent: c("tcp.frames_sent"),
                frames_recv: c("tcp.frames_recv"),
                frame_bytes_sent: c("tcp.frame_bytes_sent"),
                frame_bytes_recv: c("tcp.frame_bytes_recv"),
                deadline_expiries: c("tcp.deadline_expiries"),
                peer_disconnects: c("tcp.peer_disconnects"),
                send_queue_peak: c("tcp.send_queue_peak"),
            }
        })
        .collect();
    transport.sort_by_key(|t| t.rank);

    #[allow(clippy::cast_precision_loss)] // cast-ok: µs totals, report math
    let imbalance = {
        let busy: Vec<f64> = ranks.iter().map(|r| r.busy_us as f64).collect();
        let mean = busy.iter().sum::<f64>() / busy.len().max(1) as f64;
        let max = busy.iter().copied().fold(0.0f64, f64::max);
        if mean > 0.0 {
            max / mean
        } else {
            1.0
        }
    };

    // --- critical path -------------------------------------------------
    let critical_path = critical_path(&spans);
    let critical_path_us = critical_path.iter().map(|s| s.dur_us).sum();

    // --- perf attribution ----------------------------------------------
    let config = RunConfig::from_model(model);
    let mut stages: Vec<StageAttribution> = Vec::new();
    for s in &spans {
        let name = stage_of(&s.name);
        match stages.iter_mut().find(|a| a.stage == name) {
            Some(a) => a.total_us = a.total_us.saturating_add(s.dur_us),
            None => stages.push(StageAttribution {
                stage: name,
                total_us: s.dur_us,
                share: 0.0,
                pairs: None,
                measured_pairs_per_s: None,
                modeled_pairs_per_s: None,
                percent_of_model: None,
            }),
        }
    }
    let stage_total: u64 = stages.iter().map(|a| a.total_us).sum();
    let pairs_total = model
        .counter_sum("mi.pairs")
        .or_else(|| model.counter_sum("rank.pairs"));
    for a in &mut stages {
        #[allow(clippy::cast_precision_loss)] // cast-ok: µs totals, report math
        {
            a.share = if stage_total == 0 {
                0.0
            } else {
                a.total_us as f64 / stage_total as f64
            };
        }
        // MI-bearing stages: the single-process MI stage and the
        // distributed per-rank compute stages.
        let mi_stage = matches!(a.stage.as_str(), "stage.mi" | "rank.diag" | "rank.round");
        if mi_stage {
            a.pairs = pairs_total;
            #[allow(clippy::cast_precision_loss)] // cast-ok: µs totals, report math
            if let (Some(p), true) = (pairs_total, a.total_us > 0) {
                a.measured_pairs_per_s = Some(p as f64 / (a.total_us as f64 * 1e-6));
            }
        }
        if let (Some(km), Some(measured)) = (kernel_model, a.measured_pairs_per_s) {
            let modeled = km.pairs_per_second();
            a.modeled_pairs_per_s = Some(modeled);
            if modeled > 0.0 {
                a.percent_of_model = Some(measured / modeled * 100.0);
            }
        }
    }
    stages.sort_by_key(|s| std::cmp::Reverse(s.total_us));

    TimelineReport {
        makespan_us,
        ranks,
        transport,
        imbalance,
        critical_path,
        critical_path_us,
        attribution: stages,
        config,
    }
}

impl TimelineReport {
    /// Render the report as the human-readable text `gnet trace-report`
    /// prints.
    #[must_use]
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "== gnet trace report ==");
        if let Some(c) = &self.config {
            let _ = writeln!(
                out,
                "run: {} genes x {} samples, q={}, kernel={}, threads={}, tile={}, scheduler={}",
                c.genes, c.samples, c.permutations, c.kernel, c.threads, c.tile_size, c.scheduler
            );
        }
        let _ = writeln!(
            out,
            "makespan: {:.3} ms   load imbalance (max/mean busy): {:.3}",
            self.makespan_us as f64 / 1e3,
            self.imbalance
        );
        let _ = writeln!(out, "\n-- per-rank load --");
        let _ = writeln!(
            out,
            "{:>5} {:>12} {:>8} {:>10} {:>8} claims/thread",
            "rank", "busy_ms", "util", "pairs", "threads"
        );
        for r in &self.ranks {
            let claims = if r.thread_claims.is_empty() {
                "-".to_string()
            } else {
                r.thread_claims
                    .iter()
                    .map(|(t, c)| format!("t{t}:{c}"))
                    .collect::<Vec<_>>()
                    .join(" ")
            };
            let _ = writeln!(
                out,
                "{:>5} {:>12.3} {:>7.1}% {:>10} {:>8} {}{}",
                r.rank,
                r.busy_us as f64 / 1e3,
                r.utilization * 100.0,
                r.pairs.map_or_else(|| "-".to_string(), |p| p.to_string()),
                r.thread_claims.len(),
                claims,
                if r.crashed { "  [crashed]" } else { "" },
            );
        }
        if !self.transport.is_empty() {
            let _ = writeln!(out, "\n-- transport (loopback/cluster tcp) --");
            let _ = writeln!(
                out,
                "{:>5} {:>8} {:>8} {:>12} {:>12} {:>9} {:>10} {:>12} {:>8}",
                "rank",
                "fr_sent",
                "fr_recv",
                "bytes_sent",
                "bytes_recv",
                "retries",
                "deadlines",
                "disconnects",
                "queue_pk"
            );
            for t in &self.transport {
                let _ = writeln!(
                    out,
                    "{:>5} {:>8} {:>8} {:>12} {:>12} {:>9} {:>10} {:>12} {:>8}",
                    t.rank,
                    t.frames_sent,
                    t.frames_recv,
                    t.frame_bytes_sent,
                    t.frame_bytes_recv,
                    t.connect_retries,
                    t.deadline_expiries,
                    t.peer_disconnects,
                    t.send_queue_peak,
                );
            }
            let deadlines: u64 = self.transport.iter().map(|t| t.deadline_expiries).sum();
            let disconnects: u64 = self.transport.iter().map(|t| t.peer_disconnects).sum();
            if deadlines > 0 || disconnects > 0 {
                let _ = writeln!(
                    out,
                    "  network stalls: {deadlines} deadline expiries, \
                     {disconnects} peer disconnects — receive time on the \
                     affected ranks includes waiting out these events"
                );
            }
        }
        let _ = writeln!(
            out,
            "\n-- critical path ({} spans) --",
            self.critical_path.len()
        );
        for s in &self.critical_path {
            let _ = writeln!(
                out,
                "  rank {:>2}  {:>10.3} ms  +{:>10.3} ms  {}",
                s.rank,
                s.start_us as f64 / 1e3,
                s.dur_us as f64 / 1e3,
                s.name
            );
        }
        let _ = writeln!(
            out,
            "  critical path time: {:.3} ms ({:.1}% of makespan)",
            self.critical_path_us as f64 / 1e3,
            if self.makespan_us == 0 {
                0.0
            } else {
                self.critical_path_us as f64 / self.makespan_us as f64 * 100.0
            }
        );
        let _ = writeln!(out, "\n-- perf attribution --");
        let _ = writeln!(
            out,
            "{:<16} {:>12} {:>7} {:>14} {:>14} {:>9}",
            "stage", "total_ms", "share", "pairs/s", "model pairs/s", "% model"
        );
        for a in &self.attribution {
            let fmt_rate =
                |v: Option<f64>| v.map_or_else(|| "-".to_string(), |r| format!("{r:.0}"));
            let _ = writeln!(
                out,
                "{:<16} {:>12.3} {:>6.1}% {:>14} {:>14} {:>9}",
                a.stage,
                a.total_us as f64 / 1e3,
                a.share * 100.0,
                fmt_rate(a.measured_pairs_per_s),
                fmt_rate(a.modeled_pairs_per_s),
                a.percent_of_model
                    .map_or_else(|| "-".to_string(), |p| format!("{p:.1}%")),
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(rank: u64, name: &str, start_us: i64, dur_us: u64) -> AlignedSpan {
        AlignedSpan {
            rank,
            name: name.to_string(),
            start_us,
            dur_us,
        }
    }

    #[test]
    fn interval_union_merges_overlaps() {
        assert_eq!(interval_union_us(vec![]), 0);
        assert_eq!(interval_union_us(vec![(0, 10), (5, 15)]), 15);
        assert_eq!(interval_union_us(vec![(0, 10), (20, 30)]), 20);
        assert_eq!(interval_union_us(vec![(0, 100), (10, 20)]), 100);
        assert_eq!(interval_union_us(vec![(5, 5), (3, 1)]), 0);
        assert_eq!(interval_union_us(vec![(-10, -5), (-7, 3)]), 13);
    }

    #[test]
    fn critical_path_walks_latest_finishers() {
        let spans = vec![
            span(0, "stage.prep", 0, 10),
            span(0, "stage.mi", 10, 50),
            span(1, "stage.mi", 10, 80), // last finisher
            span(0, "stage.finalize", 95, 5),
        ];
        let path = critical_path(&spans);
        let names: Vec<&str> = path.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["stage.prep", "stage.mi", "stage.finalize"]);
        assert_eq!(path[1].rank, 1, "the longer MI span is on the path");
    }

    #[test]
    fn critical_path_steps_over_zero_length_spans() {
        // The last finisher is empty: it must not be its own predecessor.
        let spans = vec![
            span(0, "stage.prep", 0, 10),
            span(0, "stage.mi", 10, 0),
            span(0, "checkpoint.save", 10, 4),
            span(0, "stage.mi", 15, 0),
        ];
        let names: Vec<_> = critical_path(&spans).into_iter().map(|s| s.name).collect();
        assert_eq!(names, ["stage.prep", "checkpoint.save", "stage.mi"]);
    }

    #[test]
    fn critical_path_of_empty_span_set_is_empty() {
        assert!(critical_path(&[]).is_empty());
    }

    #[test]
    fn stage_names_collapse_round_indices() {
        assert_eq!(stage_of("rank.round.3"), "rank.round");
        assert_eq!(stage_of("rank.round.12"), "rank.round");
        assert_eq!(stage_of("stage.mi"), "stage.mi");
        assert_eq!(stage_of("rank.prep"), "rank.prep");
    }

    fn trace_with_counters(rank: u64, counters: Vec<(&str, u64)>) -> crate::ingest::RankTrace {
        crate::ingest::RankTrace {
            meta: crate::ingest::TraceMeta {
                version: 1,
                elapsed_us: 1_000,
                rank: Some(rank),
                ranks: Some(2),
                clock_offset_us: Some(0),
            },
            spans: Vec::new(),
            events: Vec::new(),
            counters: counters
                .into_iter()
                .map(|(name, value)| crate::ingest::CounterRec {
                    name: name.to_string(),
                    value,
                })
                .collect(),
            histograms: Vec::new(),
        }
    }

    #[test]
    fn transport_section_appears_only_when_ranks_carry_tcp_counters() {
        let tcp = RunModel::from_traces(vec![
            trace_with_counters(
                0,
                vec![("tcp.frames_sent", 9), ("tcp.frame_bytes_sent", 640)],
            ),
            trace_with_counters(
                1,
                vec![
                    ("tcp.frames_sent", 7),
                    ("tcp.deadline_expiries", 2),
                    ("tcp.peer_disconnects", 1),
                    ("tcp.send_queue_peak", 5),
                ],
            ),
        ])
        .expect("paired streams build a model");
        let report = analyze(&tcp, None);
        assert_eq!(report.transport.len(), 2);
        assert_eq!(report.transport[0].frames_sent, 9);
        assert_eq!(report.transport[1].deadline_expiries, 2);
        assert_eq!(report.transport[1].send_queue_peak, 5);
        let text = report.render_text();
        assert!(
            text.contains("-- transport (loopback/cluster tcp) --"),
            "{text}"
        );
        assert!(
            text.contains("network stalls: 2 deadline expiries, 1 peer disconnects"),
            "{text}"
        );

        let channel = RunModel::from_traces(vec![
            trace_with_counters(0, vec![("rank.pairs", 100)]),
            trace_with_counters(1, vec![("rank.pairs", 89)]),
        ])
        .expect("paired streams build a model");
        let report = analyze(&channel, None);
        assert!(report.transport.is_empty());
        assert!(
            !report.render_text().contains("transport"),
            "no tcp, no section"
        );
    }

    #[test]
    fn healthy_transport_omits_the_stall_line() {
        let model = RunModel::from_traces(vec![trace_with_counters(
            0,
            vec![("tcp.frames_sent", 4), ("tcp.frames_recv", 4)],
        )])
        .expect("single stream builds a model");
        let text = analyze(&model, None).render_text();
        assert!(text.contains("-- transport"), "{text}");
        assert!(!text.contains("network stalls"), "{text}");
    }

    #[test]
    fn checkpoint_saves_get_their_own_row_outside_stage_mi() {
        use gnet_core::{infer_network_durable, CheckpointStore, InferenceConfig};
        let (matrix, _) =
            gnet_expr::synth::coupled_pairs(6, 120, gnet_expr::synth::Coupling::Linear(0.8), 4);
        let cfg = InferenceConfig {
            permutations: 8,
            threads: Some(2),
            tile_size: Some(2),
            ..InferenceConfig::default()
        };
        let dir = std::env::temp_dir().join(format!("gnet-obs-saves-{}", std::process::id()));
        let rec = gnet_trace::Recorder::enabled();
        let result =
            infer_network_durable(&matrix, &cfg, &CheckpointStore::new(&dir), 3, false, &rec)
                .expect("the run finishes");
        std::fs::remove_dir_all(&dir).ok();
        let mut out = Vec::new();
        rec.write_ndjson(&mut out).expect("vec sink cannot fail");
        let trace = crate::ingest::parse_ndjson(&String::from_utf8(out).expect("utf-8"))
            .expect("stream parses");
        let span_total = |name: &str| -> u64 {
            trace
                .spans
                .iter()
                .filter(|s| s.name == name)
                .map(|s| s.dur_us)
                .sum()
        };
        let (mi_us, save_us) = (span_total("stage.mi"), span_total("checkpoint.save"));
        let saves = trace
            .spans
            .iter()
            .filter(|s| s.name == "checkpoint.save")
            .count();
        assert_eq!(saves, 7, "one save per 3-tile chunk of 21 tiles");
        let report = analyze(
            &RunModel::from_traces(vec![trace]).expect("model builds"),
            None,
        );
        let row = |stage: &str| {
            report
                .attribution
                .iter()
                .find(|a| a.stage == stage)
                .unwrap_or_else(|| panic!("{stage} row missing"))
        };
        assert_eq!(row("checkpoint.save").total_us, save_us);
        let mi = row("stage.mi");
        assert_eq!(mi.total_us, mi_us, "stage.mi sums its own spans only");
        #[allow(clippy::cast_precision_loss)] // cast-ok: test arithmetic
        let rate = result.stats.pairs as f64 / (mi_us as f64 * 1e-6);
        let measured = mi.measured_pairs_per_s.expect("stage.mi has a rate");
        assert!(
            (measured - rate).abs() <= 1e-6 * rate,
            "{measured} vs {rate}"
        );
        let shares: f64 = report.attribution.iter().map(|a| a.share).sum();
        assert!((shares - 1.0).abs() < 1e-9, "shares sum to {shares}");
        assert!(report.render_text().contains("checkpoint.save"));
    }

    #[test]
    fn kernel_model_scales_with_threads() {
        let m = KernelModel {
            ns_per_pair: 1000.0,
            threads: 4,
        };
        let pps = m.pairs_per_second();
        assert!((pps - 4_000_000.0).abs() < 1e-6, "{pps}");
    }
}
