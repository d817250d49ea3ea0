//! The four workloads: their inputs, their set-up, and the one timed
//! operation each repeats.

use gnet_cluster::{infer_network_distributed_faulty, RankStats, DEFAULT_PEER_TIMEOUT};
use gnet_core::{
    build_state, infer_network_traced, update_durable, InferenceConfig, RunStats, StateStore,
    UpdateMode, UpdateStats,
};
use gnet_expr::ExpressionMatrix;
use gnet_fault::FaultInjector;
use gnet_graph::GeneNetwork;
use gnet_grnsim::{GrnConfig, SyntheticDataset};
use gnet_trace::Recorder;
use std::fs;
use std::path::{Path, PathBuf};

/// One benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// `infer_network` at the paper's per-pair shape (m = 3,137).
    Paper256,
    /// `infer_network` over many genes with few samples: fixed per-pair
    /// and per-joint costs weigh more than accumulation.
    FewSamples2048,
    /// `infer_network_distributed` on 2 ranks of the in-process fabric.
    Ring2,
    /// `update_durable` appending genes to a saved network state.
    Append32,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 4] = [
        Workload::Paper256,
        Workload::FewSamples2048,
        Workload::Ring2,
        Workload::Append32,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Paper256 => "paper-256",
            Workload::FewSamples2048 => "few-samples-2048",
            Workload::Ring2 => "ring-2",
            Workload::Append32 => "append-32",
        }
    }

    /// Inverse of [`Workload::name`].
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the timed operation is the shared-memory `infer_network`.
    pub fn is_batch(self) -> bool {
        matches!(self, Workload::Paper256 | Workload::FewSamples2048)
    }
}

/// Problem size of a workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Shape {
    /// Genes of the matrix the operation sees; for the append workload,
    /// base plus appended genes.
    pub genes: usize,
    /// Samples per gene (`m`).
    pub samples: usize,
    /// Genes the append operation adds (0 elsewhere).
    pub appended: usize,
    /// Shared permutations per pair (`q`).
    pub permutations: usize,
}

impl Shape {
    /// The benchmark's shape for `w`.
    pub fn full(w: Workload) -> Shape {
        let (genes, samples, appended) = match w {
            Workload::Paper256 => (256, 3_137, 0),
            Workload::FewSamples2048 => (2_048, 64, 0),
            Workload::Ring2 => (128, 3_137, 0),
            Workload::Append32 => (160, 3_137, 32),
        };
        Shape {
            genes,
            samples,
            appended,
            permutations: 30,
        }
    }

    /// A shape small enough for a smoke test to run every workload in
    /// well under a second; it keeps q = 30 so every count check is the
    /// real one.
    pub fn tiny(w: Workload) -> Shape {
        let (genes, samples, appended) = match w {
            Workload::Paper256 => (12, 200, 0),
            Workload::FewSamples2048 => (40, 32, 0),
            Workload::Ring2 => (12, 200, 0),
            Workload::Append32 => (14, 200, 4),
        };
        Shape {
            genes,
            samples,
            appended,
            permutations: 30,
        }
    }

    /// Gene pairs of the whole matrix, `n(n−1)/2`.
    pub fn all_pairs(&self) -> u64 {
        pairs_of(self.genes)
    }

    /// Pairs an append scans: those with at least one appended gene.
    pub fn frontier_pairs(&self) -> u64 {
        self.all_pairs() - pairs_of(self.genes - self.appended)
    }
}

/// `n(n−1)/2`.
pub fn pairs_of(genes: usize) -> u64 {
    let n = genes as u64;
    n * n.saturating_sub(1) / 2
}

/// The seeded grnsim dataset of a shape: the paper's Arabidopsis-like
/// generator with the gene and sample counts overridden.
fn dataset(shape: &Shape, seed: u64) -> ExpressionMatrix {
    let config = GrnConfig {
        genes: shape.genes,
        samples: shape.samples,
        ..GrnConfig::arabidopsis_like()
    };
    SyntheticDataset::generate(config, seed).matrix
}

/// Inference settings shared by every workload: the paper's operating
/// point (b = 10, k = 3, α = 0.01, vector kernel, default scheduler and
/// tile size) with `q` set, on two threads or `nproc` if that is fewer.
fn inference_config(shape: &Shape) -> InferenceConfig {
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    InferenceConfig {
        permutations: shape.permutations,
        threads: Some(nproc.min(2)),
        ..InferenceConfig::default()
    }
}

/// Everything a workload's timed operation needs, built once by set-up.
pub struct Fixture {
    /// The workload.
    pub workload: Workload,
    /// Its shape.
    pub shape: Shape,
    /// Inference settings.
    pub config: InferenceConfig,
    /// The full matrix: what the batch and ring operations consume, and
    /// the base-plus-appended concatenation for the append workload.
    pub matrix: ExpressionMatrix,
    append: Option<AppendInputs>,
}

struct AppendInputs {
    /// The saved base state, as written by `StateStore::save`.
    base_file: Vec<u8>,
    /// The genes each operation appends.
    tail: ExpressionMatrix,
    /// Store the operation loads from and saves to.
    store: StateStore,
}

/// What one timed operation produced.
pub struct OpOutput {
    /// The inferred network.
    pub network: GeneNetwork,
    /// Gene pairs the operation evaluated (observed MI plus q nulls each).
    pub pairs: u64,
    /// Statistics the library returned.
    pub detail: OpDetail,
}

/// Library statistics of one operation, per workload kind.
pub enum OpDetail {
    /// `infer_network` run statistics.
    Batch(RunStats),
    /// Per-rank statistics of the distributed run.
    Ring {
        /// One entry per rank.
        ranks: Vec<RankStats>,
        /// Ranks the coordinator presumed dead (empty on a sound run).
        crashed: Vec<usize>,
    },
    /// What the update did.
    Append(UpdateStats),
}

impl Fixture {
    /// Set up `workload`: generate its matrix from `seed`, and for the
    /// append workload build and save the base state under `work_dir`.
    ///
    /// # Errors
    /// When the base state cannot be saved or read back.
    pub fn set_up(
        workload: Workload,
        shape: Shape,
        seed: u64,
        work_dir: &Path,
    ) -> Result<Fixture, String> {
        let config = inference_config(&shape);
        let matrix = dataset(&shape, seed);
        let append = if workload == Workload::Append32 {
            let base = shape.genes - shape.appended;
            let head = matrix.select_genes(&(0..base).collect::<Vec<_>>());
            let tail = matrix.select_genes(&(base..shape.genes).collect::<Vec<_>>());
            let base_store = StateStore::new(work_dir.join("base"));
            base_store
                .save(&build_state(&head, &config))
                .map_err(|e| format!("saving the base state: {e}"))?;
            let base_file = fs::read(base_store.path())
                .map_err(|e| format!("reading the base state back: {e}"))?;
            Some(AppendInputs {
                base_file,
                tail,
                store: StateStore::new(work_dir.join("op")),
            })
        } else {
            None
        };
        Ok(Fixture {
            workload,
            shape,
            config,
            matrix,
            append,
        })
    }

    /// Untimed preparation before each operation: the append workload
    /// puts the base state back, since each update overwrites it.
    ///
    /// # Errors
    /// When the state file cannot be written.
    pub fn before_op(&self) -> Result<(), String> {
        if let Some(a) = &self.append {
            let path: PathBuf = a.store.path();
            let dir = path.parent().expect("a store file lives in its directory");
            fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
            fs::write(&path, &a.base_file)
                .map_err(|e| format!("restoring {}: {e}", path.display()))?;
        }
        Ok(())
    }

    /// The timed operation. `rec` is disabled for end-to-end runs and
    /// enabled in the traced run.
    ///
    /// # Errors
    /// Any `Err` the library returns, rendered.
    pub fn run_op(&self, rec: &Recorder) -> Result<OpOutput, String> {
        match self.workload {
            Workload::Paper256 | Workload::FewSamples2048 => {
                let r = infer_network_traced(&self.matrix, &self.config, rec);
                Ok(OpOutput {
                    network: r.network,
                    pairs: r.stats.pairs,
                    detail: OpDetail::Batch(r.stats),
                })
            }
            Workload::Ring2 => {
                let r = infer_network_distributed_faulty(
                    &self.matrix,
                    &self.config,
                    2,
                    &FaultInjector::none(),
                    rec,
                    DEFAULT_PEER_TIMEOUT,
                )
                .map_err(|e| e.to_string())?;
                Ok(OpOutput {
                    network: r.network,
                    pairs: r.rank_stats.iter().map(|s| s.pairs).sum(),
                    detail: OpDetail::Ring {
                        ranks: r.rank_stats,
                        crashed: r.crashed_ranks,
                    },
                })
            }
            Workload::Append32 => {
                let a = self.append.as_ref().expect("append inputs are set up");
                let (next, stats) =
                    update_durable(&a.store, &a.tail, Some(UpdateMode::Genes), 0, false, rec)
                        .map_err(|e| e.to_string())?;
                Ok(OpOutput {
                    network: next.network(),
                    pairs: stats.pairs_scanned,
                    detail: OpDetail::Append(stats),
                })
            }
        }
    }

    /// The store the append operation writes (for the traced run's
    /// save/load replay).
    pub fn append_store(&self) -> Option<&StateStore> {
        self.append.as_ref().map(|a| &a.store)
    }
}
