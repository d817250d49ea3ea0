//! The versioned on-disk network state bundle behind `gnet update`.
//!
//! A batch run discards everything but the edge list; an *updatable*
//! network must keep the intermediate artifacts the incremental engine
//! reuses ([`crate::incremental`]): the raw expression snapshot, each
//! gene's `(value, index)` sort order and B-spline weight matrix, the
//! candidate set with exact MI values, and the pooled-null moments. This
//! module persists all of that as a single `GNETSTA` bundle following the
//! GNETCKP codec conventions from [`crate::durable`] — schema tag +
//! version, FNV-1a64 integrity digest, bounds-checked decoding with typed
//! errors, atomic temp-file + `fsync` + rename writes.
//!
//! ## File schema v1
//!
//! All integers little-endian; f64/f32 stored as raw IEEE-754 bits so a
//! reloaded state is **bit-identical** to the in-memory one:
//!
//! ```text
//! offset  size  field
//! 0       8     magic  b"GNETSTA\x01"
//! 8       4     version (= 2)
//! 12      8     payload length in bytes
//! 20      8     FNV-1a 64 digest of the payload bytes
//! 28      …     payload
//! ```
//!
//! Payload:
//!
//! ```text
//! u32 bins   u32 spline_order   u32 permutations   u64 seed
//! u64 alpha bits   u8 mi_threshold flag   u64 mi_threshold bits
//! u8 kernel (0 = scalar, 1 = vector)
//! u32 genes  u32 samples
//! per gene:  u32 name length, name bytes (UTF-8)
//! per gene:  profile (m × f32 bits), sort order (m × u32),
//!            u32 weight order k, u32 weight bins,
//!            first-bin (m × u16), weights (m·k × f32 bits),
//!            u64 marginal-entropy bits
//! u64 pooled.count   u64 pooled.mean bits   u64 pooled.m2 bits
//! u64 pooled.max bits
//! u64 joints
//! u32 candidate count, then per candidate: u32 i, u32 j, u64 MI bits
//! ```
//!
//! The sibling progress file (`gnet.update.progress`, magic `GNETUPD`)
//! captures a *partially applied* update so a chunk-boundary kill during
//! `gnet update` resumes bit-identically; see [`UpdateProgress`].

use crate::config::InferenceConfig;
use crate::durable::{fnv1a64, write_durably, Reader};
use gnet_bspline::SparseWeights;
use gnet_expr::ExpressionMatrix;
use gnet_fault::{FaultInjector, IoOp};
use gnet_graph::{Edge, GeneNetwork};
use gnet_mi::MiKernel;
use gnet_permute::PooledNull;
use gnet_trace::{Recorder, Value};
use std::fmt;
use std::fs::{self, File};
use std::io;
use std::path::PathBuf;

const MAGIC: [u8; 8] = *b"GNETSTA\x01";
const PROGRESS_MAGIC: [u8; 8] = *b"GNETUPD\x01";
/// v2: accumulators summed by the run-blocked accumulation kernel. Merging
/// a v1 state into an update could not be bit-identical to a batch run.
const VERSION: u32 = 2;
const HEADER_LEN: usize = 28;

/// Name of the state bundle inside the store directory.
pub const STATE_FILE: &str = "gnet.state";
const STATE_TMP: &str = "gnet.state.tmp";
/// Name of the in-flight update progress file inside the store directory.
pub const PROGRESS_FILE: &str = "gnet.update.progress";
const PROGRESS_TMP: &str = "gnet.update.progress.tmp";

/// Everything the incremental engine keeps per gene.
#[derive(Clone, Debug, PartialEq)]
pub struct GeneState {
    /// Raw expression profile (`m` samples), exactly as ingested.
    pub profile: Vec<f32>,
    /// The `(value, index)` sort permutation of `profile`
    /// ([`gnet_expr::normalize::rank_sort_order`]): the artifact a
    /// sample-append merges instead of re-sorting.
    pub order: Vec<u32>,
    /// B-spline weight matrix of the rank-transformed profile.
    pub sparse: SparseWeights,
    /// Marginal entropy `H(g)` in nats.
    pub h_marginal: f64,
}

/// The complete updatable network state: result-binding configuration,
/// per-gene artifacts, and the merged pair-scan accumulators.
#[derive(Clone, Debug, PartialEq)]
pub struct NetworkState {
    /// Histogram bins of the B-spline estimator.
    pub bins: usize,
    /// Spline order.
    pub spline_order: usize,
    /// Shared permutations per pair.
    pub permutations: usize,
    /// Permutation RNG seed.
    pub seed: u64,
    /// Family-wise significance level for the pooled threshold.
    pub alpha: f64,
    /// Explicit MI threshold, when the run used one.
    pub mi_threshold: Option<f64>,
    /// MI kernel the pair scan dispatches to.
    pub kernel: MiKernel,
    /// Gene names, in matrix order.
    pub names: Vec<String>,
    /// Samples per gene.
    pub samples: usize,
    /// Per-gene artifacts, in matrix order.
    pub genes: Vec<GeneState>,
    /// Pooled null moments over every evaluated pair.
    pub pooled: PooledNull,
    /// Joint-entropy evaluations performed so far.
    pub joints: u64,
    /// Pairs that beat all of their own nulls: `(i, j, observed MI)` with
    /// `i < j`.
    pub candidates: Vec<(u32, u32, f64)>,
}

impl NetworkState {
    /// Number of genes.
    #[must_use]
    pub fn gene_count(&self) -> usize {
        self.genes.len()
    }

    /// Total unordered pairs over the current gene set.
    #[must_use]
    pub fn total_pairs(&self) -> u64 {
        let n = self.genes.len() as u64;
        n * n.saturating_sub(1) / 2
    }

    /// FNV-1a64 digest of the expression snapshot this state was built
    /// from (shape, names, and raw profile bits) — the value update
    /// progress files are bound to.
    #[must_use]
    pub fn snapshot_digest(&self) -> u64 {
        let mut bytes = Vec::with_capacity(16 + self.genes.len() * (self.samples * 4 + 8));
        bytes.extend_from_slice(&(self.genes.len() as u64).to_le_bytes());
        bytes.extend_from_slice(&(self.samples as u64).to_le_bytes());
        for (name, g) in self.names.iter().zip(&self.genes) {
            bytes.extend_from_slice(&(name.len() as u64).to_le_bytes());
            bytes.extend_from_slice(name.as_bytes());
            for v in &g.profile {
                bytes.extend_from_slice(&v.to_bits().to_le_bytes());
            }
        }
        fnv1a64(&bytes)
    }

    /// The global threshold `I*` this state implies: the explicit
    /// threshold when one was configured, otherwise the Bonferroni-
    /// corrected pooled-null threshold over [`Self::total_pairs`] tests.
    #[must_use]
    pub fn threshold(&self) -> f64 {
        match self.mi_threshold {
            Some(t) => t,
            None => self
                .pooled
                .global_threshold(self.alpha, self.total_pairs().max(1)),
        }
    }

    /// Assemble the significant-edge network from the candidate set —
    /// exactly the finalize stage of [`crate::infer_network`].
    #[must_use]
    pub fn network(&self) -> GeneNetwork {
        let threshold = self.threshold();
        let edges = self
            .candidates
            .iter()
            .filter(|&&(_, _, v)| v > threshold)
            .map(|&(i, j, v)| Edge::new(i, j, v as f32));
        GeneNetwork::from_edges(self.genes.len(), self.names.clone(), edges)
    }

    /// The result-binding [`InferenceConfig`] this state was built under
    /// (execution-shape fields are left at serial defaults — they do not
    /// affect the result).
    #[must_use]
    pub fn config(&self) -> InferenceConfig {
        InferenceConfig {
            bins: self.bins,
            spline_order: self.spline_order,
            permutations: self.permutations,
            seed: self.seed,
            alpha: self.alpha,
            mi_threshold: self.mi_threshold,
            kernel: self.kernel,
            threads: Some(1),
            ..InferenceConfig::default()
        }
    }

    /// The expression snapshot as a matrix (profiles are stored raw, so
    /// this is the exact matrix the state was built from).
    ///
    /// # Panics
    /// Panics if the stored profiles are inconsistent — impossible for a
    /// decoded state, which validates shapes.
    #[must_use]
    pub fn matrix(&self) -> ExpressionMatrix {
        let mut flat = Vec::with_capacity(self.genes.len() * self.samples);
        for g in &self.genes {
            flat.extend_from_slice(&g.profile);
        }
        let mut m = ExpressionMatrix::from_flat(
            self.genes.len(),
            self.samples,
            flat,
            gnet_expr::MissingPolicy::Error,
        )
        .expect("stored profiles form a valid matrix");
        m.set_gene_names(self.names.clone())
            .expect("one stored name per gene");
        m
    }
}

/// Durable progress of a partially applied update: the pair-scan prefix
/// plus the frontier accumulators over it, restored bitwise on resume.
#[derive(Clone, Debug, PartialEq)]
pub struct UpdateProgress {
    /// Digest binding this progress to (state snapshot, appended data,
    /// update mode); resuming anything else is rejected.
    pub update_digest: u64,
    /// 0 = gene append, 1 = sample append.
    pub mode: u8,
    /// Pairs of the canonical scan order fully accounted for below.
    pub pairs_done: u64,
    /// Joint evaluations performed over the completed prefix.
    pub joints: u64,
    /// Pooled null over the completed prefix (frontier only).
    pub pooled: PooledNull,
    /// Candidates found in the completed prefix (frontier only).
    pub candidates: Vec<(u32, u32, f64)>,
}

/// Why a network state bundle or update progress file could not be
/// saved, loaded, or applied.
#[derive(Debug)]
pub enum StateError {
    /// A filesystem operation failed; names the path and operation.
    Io {
        /// File or directory the operation targeted.
        path: PathBuf,
        /// What was being attempted.
        op: &'static str,
        /// The underlying error.
        source: io::Error,
    },
    /// The file is structurally invalid (bad magic, truncated, bad
    /// shapes, …).
    Corrupt {
        /// Offending file.
        path: PathBuf,
        /// What exactly was malformed.
        reason: String,
    },
    /// The payload bytes do not match their integrity digest.
    IntegrityMismatch {
        /// Offending file.
        path: PathBuf,
        /// Digest recorded in the header.
        expected: u64,
        /// Digest of the bytes actually on disk.
        found: u64,
    },
    /// No file exists at the expected path.
    Missing {
        /// Path that was probed.
        path: PathBuf,
    },
    /// The progress file is valid but belongs to a different update
    /// (other state, appended data, or mode).
    StaleProgress {
        /// Offending file.
        path: PathBuf,
        /// Update digest of the current invocation.
        expected: u64,
        /// Update digest stored in the file.
        found: u64,
    },
    /// The appended data is incompatible with the stored state.
    Append {
        /// What does not line up.
        reason: String,
    },
    /// The update was interrupted at a progress boundary (an injected
    /// crash) *after* that boundary's progress file was durably written;
    /// re-running with `resume` continues from `pairs_done`.
    Interrupted {
        /// Pairs completed and persisted before the interruption.
        pairs_done: u64,
    },
}

impl fmt::Display for StateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Io { path, op, source } => {
                write!(f, "state {op} failed for `{}`: {source}", path.display())
            }
            Self::Corrupt { path, reason } => {
                write!(f, "corrupt state file `{}`: {reason}", path.display())
            }
            Self::IntegrityMismatch {
                path,
                expected,
                found,
            } => write!(
                f,
                "state file `{}` failed integrity check \
                 (digest {expected:#018x} recorded, {found:#018x} on disk); \
                 the file was corrupted after writing — rebuild it with \
                 `gnet infer --save-state`",
                path.display()
            ),
            Self::Missing { path } => write!(f, "no state file at `{}`", path.display()),
            Self::StaleProgress {
                path,
                expected,
                found,
            } => write!(
                f,
                "update progress `{}` belongs to a different update \
                 (digest {found:#018x}, current update is {expected:#018x}); \
                 state or appended data changed — delete it or restart \
                 without --resume",
                path.display()
            ),
            Self::Append { reason } => {
                write!(f, "appended data is incompatible with the state: {reason}")
            }
            Self::Interrupted { pairs_done } => write!(
                f,
                "update interrupted at a progress boundary with {pairs_done} \
                 pairs persisted; re-run with resume to continue"
            ),
        }
    }
}

impl std::error::Error for StateError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

fn kernel_tag(kernel: MiKernel) -> u8 {
    match kernel {
        MiKernel::ScalarSparse => 0,
        MiKernel::VectorDense => 1,
    }
}

fn encode_state(state: &NetworkState) -> Vec<u8> {
    let m = state.samples;
    let per_gene = m * 4 + m * 4 + 8 + m * 2 + m * state.spline_order * 4 + 8 + 16;
    let mut out = Vec::with_capacity(64 + state.genes.len() * per_gene);
    out.extend_from_slice(&(state.bins as u32).to_le_bytes());
    out.extend_from_slice(&(state.spline_order as u32).to_le_bytes());
    out.extend_from_slice(&(state.permutations as u32).to_le_bytes());
    out.extend_from_slice(&state.seed.to_le_bytes());
    out.extend_from_slice(&state.alpha.to_bits().to_le_bytes());
    out.push(u8::from(state.mi_threshold.is_some()));
    out.extend_from_slice(&state.mi_threshold.unwrap_or(0.0).to_bits().to_le_bytes());
    out.push(kernel_tag(state.kernel));
    out.extend_from_slice(&(state.genes.len() as u32).to_le_bytes());
    out.extend_from_slice(&(m as u32).to_le_bytes());
    for name in &state.names {
        out.extend_from_slice(&(name.len() as u32).to_le_bytes());
        out.extend_from_slice(name.as_bytes());
    }
    for g in &state.genes {
        for v in &g.profile {
            out.extend_from_slice(&v.to_bits().to_le_bytes());
        }
        for &o in &g.order {
            out.extend_from_slice(&o.to_le_bytes());
        }
        out.extend_from_slice(&(g.sparse.order() as u32).to_le_bytes());
        out.extend_from_slice(&(g.sparse.bins() as u32).to_le_bytes());
        for &fb in g.sparse.first_bins_flat() {
            out.extend_from_slice(&fb.to_le_bytes());
        }
        for &w in g.sparse.weights_flat() {
            out.extend_from_slice(&w.to_bits().to_le_bytes());
        }
        out.extend_from_slice(&g.h_marginal.to_bits().to_le_bytes());
    }
    let (count, mean, m2, max) = state.pooled.raw_parts();
    out.extend_from_slice(&count.to_le_bytes());
    out.extend_from_slice(&mean.to_bits().to_le_bytes());
    out.extend_from_slice(&m2.to_bits().to_le_bytes());
    out.extend_from_slice(&max.to_bits().to_le_bytes());
    out.extend_from_slice(&state.joints.to_le_bytes());
    out.extend_from_slice(&(state.candidates.len() as u32).to_le_bytes());
    for &(i, j, v) in &state.candidates {
        out.extend_from_slice(&i.to_le_bytes());
        out.extend_from_slice(&j.to_le_bytes());
        out.extend_from_slice(&v.to_bits().to_le_bytes());
    }
    out
}

/// Bulk-array element count × size, rejected before any allocation when
/// the remaining bytes cannot hold it.
fn take_array<'a>(
    r: &mut Reader<'a>,
    count: usize,
    elem: usize,
    what: &str,
) -> Result<&'a [u8], String> {
    let n = count
        .checked_mul(elem)
        .ok_or_else(|| format!("{what}: length overflows ({count} × {elem})"))?;
    r.take(n, what)
}

fn u16_at(b: &[u8], idx: usize) -> u16 {
    u16::from_le_bytes([b[idx * 2], b[idx * 2 + 1]])
}

fn u32_at(b: &[u8], idx: usize) -> u32 {
    u32::from_le_bytes([b[idx * 4], b[idx * 4 + 1], b[idx * 4 + 2], b[idx * 4 + 3]])
}

fn f32_at(b: &[u8], idx: usize) -> f32 {
    f32::from_bits(u32_at(b, idx))
}

fn decode_state(payload: &[u8]) -> Result<NetworkState, String> {
    let mut r = Reader::new(payload);
    let bins = r.u32("bins")? as usize;
    let spline_order = r.u32("spline order")? as usize;
    let permutations = r.u32("permutations")? as usize;
    let seed = r.u64("seed")?;
    let alpha = r.f64("alpha")?;
    let has_threshold = r.take(1, "threshold flag")?[0];
    if has_threshold > 1 {
        return Err(format!("bad threshold flag {has_threshold} (0|1)"));
    }
    let threshold_bits = r.f64("threshold")?;
    let mi_threshold = (has_threshold == 1).then_some(threshold_bits);
    let kernel = match r.take(1, "kernel tag")?[0] {
        0 => MiKernel::ScalarSparse,
        1 => MiKernel::VectorDense,
        other => return Err(format!("bad kernel tag {other} (0|1)")),
    };
    let genes = r.u32("gene count")? as usize;
    let samples = r.u32("sample count")? as usize;
    if genes < 2 {
        return Err(format!("state needs at least two genes, has {genes}"));
    }
    if samples == 0 {
        return Err("state needs at least one sample".into());
    }
    let mut names = Vec::with_capacity(genes.min(payload.len()));
    for g in 0..genes {
        let len = r.u32("name length")? as usize;
        let bytes = r.take(len, "gene name")?;
        let name =
            std::str::from_utf8(bytes).map_err(|_| format!("gene {g} name is not valid UTF-8"))?;
        names.push(name.to_owned());
    }
    let mut gene_states = Vec::with_capacity(genes.min(payload.len()));
    for g in 0..genes {
        let profile_bytes = take_array(&mut r, samples, 4, "profile")?;
        let profile: Vec<f32> = (0..samples).map(|s| f32_at(profile_bytes, s)).collect();
        let order_bytes = take_array(&mut r, samples, 4, "sort order")?;
        let order: Vec<u32> = (0..samples).map(|s| u32_at(order_bytes, s)).collect();
        let mut seen = vec![false; samples];
        for &o in &order {
            let slot = seen
                .get_mut(o as usize)
                .ok_or_else(|| format!("gene {g}: order entry {o} out of range"))?;
            if *slot {
                return Err(format!("gene {g}: order entry {o} repeated"));
            }
            *slot = true;
        }
        let w_order = r.u32("weight order")? as usize;
        let w_bins = r.u32("weight bins")? as usize;
        if w_order != spline_order || w_bins != bins {
            return Err(format!(
                "gene {g}: weight shape ({w_order}, {w_bins}) disagrees with \
                 the configured ({spline_order}, {bins})"
            ));
        }
        let fb_bytes = take_array(&mut r, samples, 2, "first-bin indices")?;
        let first_bin: Vec<u16> = (0..samples).map(|s| u16_at(fb_bytes, s)).collect();
        let w_bytes = take_array(&mut r, samples * w_order, 4, "weights")?;
        let weights: Vec<f32> = (0..samples * w_order).map(|s| f32_at(w_bytes, s)).collect();
        let sparse =
            SparseWeights::try_from_raw_parts(w_order, w_bins, samples, first_bin, weights)
                .map_err(|reason| format!("gene {g}: {reason}"))?;
        let h_marginal = r.f64("marginal entropy")?;
        gene_states.push(GeneState {
            profile,
            order,
            sparse,
            h_marginal,
        });
    }
    let count = r.u64("pooled count")?;
    let mean = r.f64("pooled mean")?;
    let m2 = r.f64("pooled m2")?;
    let max = r.f64("pooled max")?;
    let joints = r.u64("joints")?;
    let n = r.u32("candidate count")? as usize;
    if r.remaining() != n * 16 {
        return Err(format!(
            "candidate section length mismatch: {n} candidates declared, \
             {} bytes remain (need {})",
            r.remaining(),
            n * 16
        ));
    }
    let mut candidates = Vec::with_capacity(n);
    for idx in 0..n {
        let i = r.u32("candidate gene i")?;
        let j = r.u32("candidate gene j")?;
        let v = r.f64("candidate MI")?;
        if i >= j {
            return Err(format!("candidate {idx} is not upper-triangular ({i},{j})"));
        }
        if j as usize >= genes {
            return Err(format!("candidate {idx} endpoint {j} out of range"));
        }
        candidates.push((i, j, v));
    }
    Ok(NetworkState {
        bins,
        spline_order,
        permutations,
        seed,
        alpha,
        mi_threshold,
        kernel,
        names,
        samples,
        genes: gene_states,
        pooled: PooledNull::from_raw_parts(count, mean, m2, max),
        joints,
        candidates,
    })
}

fn encode_progress(p: &UpdateProgress) -> Vec<u8> {
    let (count, mean, m2, max) = p.pooled.raw_parts();
    let mut out = Vec::with_capacity(8 * 8 + 4 + p.candidates.len() * 16);
    out.extend_from_slice(&p.update_digest.to_le_bytes());
    out.push(p.mode);
    out.extend_from_slice(&p.pairs_done.to_le_bytes());
    out.extend_from_slice(&p.joints.to_le_bytes());
    out.extend_from_slice(&count.to_le_bytes());
    out.extend_from_slice(&mean.to_bits().to_le_bytes());
    out.extend_from_slice(&m2.to_bits().to_le_bytes());
    out.extend_from_slice(&max.to_bits().to_le_bytes());
    out.extend_from_slice(&(p.candidates.len() as u32).to_le_bytes());
    for &(i, j, v) in &p.candidates {
        out.extend_from_slice(&i.to_le_bytes());
        out.extend_from_slice(&j.to_le_bytes());
        out.extend_from_slice(&v.to_bits().to_le_bytes());
    }
    out
}

fn decode_progress(payload: &[u8]) -> Result<UpdateProgress, String> {
    let mut r = Reader::new(payload);
    let update_digest = r.u64("update digest")?;
    let mode = r.take(1, "update mode")?[0];
    if mode > 1 {
        return Err(format!("bad update mode {mode} (0 = genes, 1 = samples)"));
    }
    let pairs_done = r.u64("pairs done")?;
    let joints = r.u64("joints")?;
    let count = r.u64("pooled count")?;
    let mean = r.f64("pooled mean")?;
    let m2 = r.f64("pooled m2")?;
    let max = r.f64("pooled max")?;
    let n = r.u32("candidate count")? as usize;
    if r.remaining() != n * 16 {
        return Err(format!(
            "candidate section length mismatch: {n} candidates declared, \
             {} bytes remain (need {})",
            r.remaining(),
            n * 16
        ));
    }
    let mut candidates = Vec::with_capacity(n);
    for idx in 0..n {
        let i = r.u32("candidate gene i")?;
        let j = r.u32("candidate gene j")?;
        let v = r.f64("candidate MI")?;
        if i >= j {
            return Err(format!("candidate {idx} is not upper-triangular ({i},{j})"));
        }
        candidates.push((i, j, v));
    }
    Ok(UpdateProgress {
        update_digest,
        mode,
        pairs_done,
        joints,
        pooled: PooledNull::from_raw_parts(count, mean, m2, max),
        candidates,
    })
}

/// A directory holding one network state bundle (and, during an update,
/// its progress file), both written atomically.
pub struct StateStore {
    dir: PathBuf,
    injector: FaultInjector,
    rec: Recorder,
}

impl StateStore {
    /// Store rooted at `dir` (created on first save).
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self::with_faults(dir, FaultInjector::none(), &Recorder::disabled())
    }

    /// Store with fault injection and trace recording wired in.
    pub fn with_faults(dir: impl Into<PathBuf>, injector: FaultInjector, rec: &Recorder) -> Self {
        Self {
            dir: dir.into(),
            injector,
            rec: rec.clone(),
        }
    }

    /// The injector this store consults (shared with the update driver).
    #[must_use]
    pub fn injector(&self) -> &FaultInjector {
        &self.injector
    }

    /// Path of the state bundle.
    #[must_use]
    pub fn path(&self) -> PathBuf {
        self.dir.join(STATE_FILE)
    }

    /// Path of the in-flight update progress file.
    #[must_use]
    pub fn progress_path(&self) -> PathBuf {
        self.dir.join(PROGRESS_FILE)
    }

    fn save_file(
        &self,
        magic: &[u8; 8],
        tmp_name: &str,
        final_name: &str,
        mut payload: Vec<u8>,
    ) -> Result<(), StateError> {
        fs::create_dir_all(&self.dir).map_err(|source| StateError::Io {
            path: self.dir.clone(),
            op: "create-dir",
            source,
        })?;
        // The integrity digest covers the *intended* bytes; injected
        // flips happen after, modeling media corruption load() must catch.
        let integrity = fnv1a64(&payload);
        self.injector.corrupt_checkpoint(&mut payload);

        let mut file_bytes = Vec::with_capacity(HEADER_LEN + payload.len());
        file_bytes.extend_from_slice(magic);
        file_bytes.extend_from_slice(&VERSION.to_le_bytes());
        file_bytes.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        file_bytes.extend_from_slice(&integrity.to_le_bytes());
        file_bytes.extend_from_slice(&payload);

        let tmp = self.dir.join(tmp_name);
        let dst = self.dir.join(final_name);
        if let Some(source) = self.injector.on_io(IoOp::Write) {
            return Err(StateError::Io {
                path: tmp,
                op: "write",
                source,
            });
        }
        write_durably(&tmp, &file_bytes).map_err(|source| StateError::Io {
            path: tmp.clone(),
            op: "write",
            source,
        })?;
        if let Some(source) = self.injector.on_io(IoOp::Rename) {
            return Err(StateError::Io {
                path: dst,
                op: "rename",
                source,
            });
        }
        fs::rename(&tmp, &dst).map_err(|source| StateError::Io {
            path: dst.clone(),
            op: "rename",
            source,
        })?;
        if let Ok(d) = File::open(&self.dir) {
            let _ = d.sync_all();
        }
        Ok(())
    }

    fn load_file<T>(
        &self,
        magic: &[u8; 8],
        path: PathBuf,
        what: &str,
        decode: impl FnOnce(&[u8]) -> Result<T, String>,
    ) -> Result<T, StateError> {
        if let Some(source) = self.injector.on_io(IoOp::Read) {
            return Err(StateError::Io {
                path,
                op: "read",
                source,
            });
        }
        let bytes = match fs::read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                return Err(StateError::Missing { path })
            }
            Err(source) => {
                return Err(StateError::Io {
                    path,
                    op: "read",
                    source,
                })
            }
        };
        let corrupt = |reason: String| StateError::Corrupt {
            path: path.clone(),
            reason,
        };
        if bytes.len() < HEADER_LEN {
            return Err(corrupt(format!(
                "file is {} bytes, shorter than the {HEADER_LEN}-byte header",
                bytes.len()
            )));
        }
        if bytes[..8] != magic[..] {
            return Err(corrupt(format!("bad magic; not a gnet {what} file")));
        }
        let mut header = Reader::new(&bytes[8..HEADER_LEN]);
        let version = header.u32("version").map_err(&corrupt)?;
        if version != VERSION {
            return Err(corrupt(format!(
                "unsupported {what} version {version} (this build reads v{VERSION})"
            )));
        }
        let payload_len = header.u64("payload length").map_err(&corrupt)? as usize;
        let expected = header.u64("integrity digest").map_err(&corrupt)?;
        let payload = &bytes[HEADER_LEN..];
        if payload.len() != payload_len {
            return Err(corrupt(format!(
                "payload length mismatch: header declares {payload_len} bytes, \
                 file holds {}",
                payload.len()
            )));
        }
        let found = fnv1a64(payload);
        if found != expected {
            return Err(StateError::IntegrityMismatch {
                path,
                expected,
                found,
            });
        }
        decode(payload).map_err(corrupt)
    }

    /// Atomically persist the state bundle.
    ///
    /// # Errors
    /// [`StateError::Io`] naming the path and operation that failed.
    pub fn save(&self, state: &NetworkState) -> Result<(), StateError> {
        self.save_file(&MAGIC, STATE_TMP, STATE_FILE, encode_state(state))?;
        self.rec.event(
            "state.saved",
            &[
                ("genes", Value::from(state.genes.len())),
                ("candidates", Value::from(state.candidates.len())),
            ],
        );
        Ok(())
    }

    /// Load and fully validate the state bundle.
    ///
    /// # Errors
    /// [`StateError::Missing`] when no file exists; `Io`, `Corrupt`, or
    /// `IntegrityMismatch` when the file cannot be trusted.
    pub fn load(&self) -> Result<NetworkState, StateError> {
        self.load_file(&MAGIC, self.path(), "state", decode_state)
    }

    /// Atomically persist the in-flight update progress.
    ///
    /// # Errors
    /// [`StateError::Io`] naming the path and operation that failed.
    pub fn save_progress(&self, progress: &UpdateProgress) -> Result<(), StateError> {
        self.save_file(
            &PROGRESS_MAGIC,
            PROGRESS_TMP,
            PROGRESS_FILE,
            encode_progress(progress),
        )?;
        self.rec.event(
            "update.progress_saved",
            &[("pairs_done", Value::from(progress.pairs_done))],
        );
        Ok(())
    }

    /// Load the progress file, additionally rejecting progress whose
    /// update digest differs from `expected_digest`.
    ///
    /// # Errors
    /// Everything [`Self::load`] maps for the progress file, plus
    /// [`StateError::StaleProgress`] on a digest mismatch.
    pub fn load_progress_for(&self, expected_digest: u64) -> Result<UpdateProgress, StateError> {
        let p = self.load_file(
            &PROGRESS_MAGIC,
            self.progress_path(),
            "update progress",
            decode_progress,
        )?;
        if p.update_digest != expected_digest {
            return Err(StateError::StaleProgress {
                path: self.progress_path(),
                expected: expected_digest,
                found: p.update_digest,
            });
        }
        Ok(p)
    }

    /// Remove the progress file (and any stray temp file) if present —
    /// called after an update lands in the state bundle.
    ///
    /// # Errors
    /// [`StateError::Io`] on a filesystem failure other than the files
    /// already being absent.
    pub fn clear_progress(&self) -> Result<(), StateError> {
        for path in [self.progress_path(), self.dir.join(PROGRESS_TMP)] {
            match fs::remove_file(&path) {
                Ok(()) => {}
                Err(e) if e.kind() == io::ErrorKind::NotFound => {}
                Err(source) => {
                    return Err(StateError::Io {
                        path,
                        op: "remove",
                        source,
                    })
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::incremental::build_state;
    use gnet_expr::synth::{coupled_pairs, Coupling};
    use std::sync::atomic::{AtomicU64, Ordering};

    fn tmpdir(tag: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        // ordering: test-local unique-id counter; no synchronization needed.
        let n = N.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("gnet-state-{tag}-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir must be creatable");
        dir
    }

    fn small_state() -> NetworkState {
        let (matrix, _) = coupled_pairs(3, 60, Coupling::Linear(0.9), 5);
        let cfg = InferenceConfig {
            permutations: 6,
            threads: Some(1),
            ..InferenceConfig::default()
        };
        build_state(&matrix, &cfg)
    }

    #[test]
    fn save_load_round_trip_is_bit_exact() {
        let state = small_state();
        let store = StateStore::new(tmpdir("roundtrip"));
        store.save(&state).expect("save succeeds");
        let back = store.load().expect("load succeeds");
        assert_eq!(back, state);
        let (c0, m0, s0, x0) = state.pooled.raw_parts();
        let (c1, m1, s1, x1) = back.pooled.raw_parts();
        assert_eq!(c0, c1);
        assert_eq!(m0.to_bits(), m1.to_bits());
        assert_eq!(s0.to_bits(), s1.to_bits());
        assert_eq!(x0.to_bits(), x1.to_bits());
        assert_eq!(back.snapshot_digest(), state.snapshot_digest());
        assert_eq!(back.threshold().to_bits(), state.threshold().to_bits());
    }

    #[test]
    fn missing_file_is_a_typed_error() {
        let store = StateStore::new(tmpdir("missing"));
        assert!(matches!(store.load(), Err(StateError::Missing { .. })));
        assert!(matches!(
            store.load_progress_for(7),
            Err(StateError::Missing { .. })
        ));
    }

    #[test]
    fn every_truncation_is_rejected_not_panicked() {
        let state = small_state();
        let store = StateStore::new(tmpdir("truncate"));
        store.save(&state).expect("save succeeds");
        let full = fs::read(store.path()).expect("file readable");
        for cut in 0..full.len() {
            fs::write(store.path(), &full[..cut]).expect("rewrite");
            let err = store.load().expect_err("truncated file must be rejected");
            assert!(
                matches!(
                    err,
                    StateError::Corrupt { .. } | StateError::IntegrityMismatch { .. }
                ),
                "cut at {cut}: {err}"
            );
        }
    }

    #[test]
    fn flipped_payload_byte_fails_the_integrity_check() {
        let state = small_state();
        let store = StateStore::new(tmpdir("flip"));
        store.save(&state).expect("save succeeds");
        let mut bytes = fs::read(store.path()).expect("file readable");
        let last = bytes.len() - 1;
        bytes[last] ^= 0x10;
        fs::write(store.path(), &bytes).expect("rewrite");
        assert!(matches!(
            store.load(),
            Err(StateError::IntegrityMismatch { .. })
        ));
    }

    #[test]
    fn wrong_magic_and_version_are_rejected() {
        let state = small_state();
        let store = StateStore::new(tmpdir("magic"));
        store.save(&state).expect("save succeeds");
        let good = fs::read(store.path()).expect("file readable");

        let mut bad = good.clone();
        bad[0] ^= 0xFF;
        fs::write(store.path(), &bad).expect("rewrite");
        let err = store.load().expect_err("bad magic rejected");
        assert!(matches!(err, StateError::Corrupt { reason, .. } if reason.contains("magic")));

        let mut future = good;
        future[8] = 9; // version field
        fs::write(store.path(), &future).expect("rewrite");
        let err = store.load().expect_err("future version rejected");
        assert!(matches!(err, StateError::Corrupt { reason, .. } if reason.contains("version")));
    }

    #[test]
    fn version_1_states_are_rejected() {
        let state = small_state();
        let store = StateStore::new(tmpdir("v1"));
        store.save(&state).expect("save succeeds");
        let mut bytes = fs::read(store.path()).expect("file readable");
        bytes[8..12].copy_from_slice(&1u32.to_le_bytes());
        fs::write(store.path(), &bytes).expect("rewrite");
        let err = store.load().expect_err("a v1 state must not be updated");
        assert!(
            matches!(&err, StateError::Corrupt { reason, .. }
                if reason.contains("unsupported state version 1")),
            "{err}"
        );
    }

    #[test]
    fn oversized_declared_counts_are_rejected_before_allocation() {
        // Forge an internally consistent header (real digest) whose
        // payload declares absurd gene/sample counts — the decoder must
        // fail on bounds, not attempt the allocation.
        let mut payload = Vec::new();
        payload.extend_from_slice(&10u32.to_le_bytes()); // bins
        payload.extend_from_slice(&3u32.to_le_bytes()); // order
        payload.extend_from_slice(&4u32.to_le_bytes()); // permutations
        payload.extend_from_slice(&7u64.to_le_bytes()); // seed
        payload.extend_from_slice(&0.01f64.to_bits().to_le_bytes()); // alpha
        payload.push(0); // no explicit threshold
        payload.extend_from_slice(&0u64.to_le_bytes());
        payload.push(1); // vector kernel
        payload.extend_from_slice(&u32::MAX.to_le_bytes()); // genes
        payload.extend_from_slice(&u32::MAX.to_le_bytes()); // samples

        let mut file = Vec::new();
        file.extend_from_slice(&MAGIC);
        file.extend_from_slice(&VERSION.to_le_bytes());
        file.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        file.extend_from_slice(&fnv1a64(&payload).to_le_bytes());
        file.extend_from_slice(&payload);

        let store = StateStore::new(tmpdir("oversized"));
        fs::create_dir_all(store.path().parent().unwrap()).unwrap();
        fs::write(store.path(), &file).expect("write forged file");
        let err = store.load().expect_err("oversized counts rejected");
        assert!(
            matches!(err, StateError::Corrupt { .. }),
            "expected Corrupt, got {err}"
        );
    }

    #[test]
    fn progress_round_trips_and_rejects_foreign_digests() {
        let store = StateStore::new(tmpdir("progress"));
        let p = UpdateProgress {
            update_digest: 0xDEAD_BEEF,
            mode: 0,
            pairs_done: 17,
            joints: 119,
            pooled: PooledNull::from_raw_parts(20, 0.5, 0.25, 0.9),
            candidates: vec![(0, 3, 0.7), (1, 2, 0.4)],
        };
        store.save_progress(&p).expect("save succeeds");
        let back = store
            .load_progress_for(0xDEAD_BEEF)
            .expect("matching digest loads");
        assert_eq!(back, p);
        assert!(matches!(
            store.load_progress_for(1),
            Err(StateError::StaleProgress { .. })
        ));
        store.clear_progress().expect("clear succeeds");
        assert!(matches!(
            store.load_progress_for(0xDEAD_BEEF),
            Err(StateError::Missing { .. })
        ));
        store.clear_progress().expect("clear is idempotent");
    }

    #[test]
    fn network_matches_the_batch_finalize_stage() {
        let (matrix, _) = coupled_pairs(4, 120, Coupling::Linear(0.9), 11);
        let cfg = InferenceConfig {
            permutations: 8,
            threads: Some(1),
            tile_size: Some(4),
            ..InferenceConfig::default()
        };
        let state = build_state(&matrix, &cfg);
        let batch = crate::infer_network(&matrix, &cfg);
        let net = state.network();
        assert_eq!(net.edge_count(), batch.network.edge_count());
        for (a, b) in net.edges().iter().zip(batch.network.edges()) {
            assert_eq!(a.key(), b.key());
            assert_eq!(a.weight.to_bits(), b.weight.to_bits());
        }
        assert!((state.threshold() - batch.stats.threshold).abs() < 1e-9);
        assert_eq!(state.matrix(), matrix);
    }
}
