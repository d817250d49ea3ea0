//! The versioned on-disk network state bundle behind `gnet update`.
//!
//! A batch run discards everything but the edge list; an *updatable*
//! network must keep the intermediate artifacts the incremental engine
//! reuses ([`crate::incremental`]): the raw expression snapshot, each
//! gene's `(value, index)` sort order and B-spline weight matrix, the
//! candidate set with exact MI values, and the pooled null. This
//! module persists all of that as a single `GNETSTA` bundle through the
//! framed-file codec of [`crate::durable`] that GNETCKP checkpoints use —
//! schema tag + version, FNV-1a64 integrity digest, bounds-checked
//! decoding with typed [`crate::DurableError`]s, atomic temp-file +
//! `fsync` + rename writes.
//!
//! ## File schema v3
//!
//! All integers little-endian; f64/f32 stored as raw IEEE-754 bits so a
//! reloaded state is **bit-identical** to the in-memory one:
//!
//! ```text
//! offset  size  field
//! 0       8     magic  b"GNETSTA\x01"
//! 8       4     version (= 3)
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
//! 48  pooled null ([`gnet_permute::PooledNull::to_bytes`])
//! u64 joints
//! u32 candidate count, then per (i, j)-sorted candidate:
//!     u32 i, u32 j, u64 MI bits
//! ```
//!
//! During an update the same directory holds its progress file
//! (`gnet.update.progress`, magic `GNETUPD`, same header), which
//! captures a *partially applied* update so a chunk-boundary kill during
//! `gnet update` resumes bit-identically. It is a checkpoint: the
//! [`crate::CheckpointStore`] that [`StateStore::progress`] hands out
//! reads and writes it, and its digest is the update's
//! [`crate::update_digest`] and its prefix counts the update's tiles.

use crate::config::InferenceConfig;
use crate::durable::{fnv1a64, CheckpointStore, DurableError, FileKind, FramedFile, Reader};
use crate::scan::NullScan;
use gnet_bspline::SparseWeights;
use gnet_expr::ExpressionMatrix;
use gnet_fault::FaultInjector;
use gnet_graph::GeneNetwork;
use gnet_mi::MiKernel;
use gnet_trace::{Recorder, Value};
use std::path::PathBuf;

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
/// per-gene artifacts, and the exact-null evidence over every pair.
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
    /// Pooled null, joint count and `(i, j)`-sorted candidates over every
    /// pair.
    pub scan: NullScan,
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
        self.scan
            .threshold(self.mi_threshold, self.alpha, self.genes.len())
    }

    /// Assemble the significant-edge network from the candidate set —
    /// exactly the finalize stage of [`crate::infer_network`].
    #[must_use]
    pub fn network(&self) -> GeneNetwork {
        self.scan.network(&self.names, self.threshold())
    }

    /// The result-binding [`InferenceConfig`] this state was built under
    /// (execution-shape fields — threads, scheduler, tile size — are left
    /// at their defaults; they do not affect the result).
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
    state.scan.encode(&mut out);
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
    let scan = NullScan::decode(r.rest(), genes as u32)?;
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
        scan,
    })
}

/// A directory holding one network state bundle, written atomically,
/// and during an update that update's progress file.
pub struct StateStore {
    file: FramedFile,
}

impl StateStore {
    /// Store rooted at `dir` (created on first save).
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self::with_faults(dir, FaultInjector::none(), &Recorder::disabled())
    }

    /// Store with fault injection and trace recording wired in.
    pub fn with_faults(dir: impl Into<PathBuf>, injector: FaultInjector, rec: &Recorder) -> Self {
        Self {
            file: FramedFile::new(dir.into(), FileKind::State, injector, rec),
        }
    }

    /// Path of the state bundle.
    #[must_use]
    pub fn path(&self) -> PathBuf {
        self.file.path()
    }

    /// The store of this directory's update progress file, on this
    /// store's injector and recorder.
    #[must_use]
    pub fn progress(&self) -> CheckpointStore {
        CheckpointStore {
            file: self.file.sibling(FileKind::UpdateProgress),
        }
    }

    /// Atomically persist the state bundle.
    ///
    /// # Errors
    /// [`DurableError::Io`] naming the path and operation that failed.
    pub fn save(&self, state: &NetworkState) -> Result<(), DurableError> {
        self.file.save(encode_state(state))?;
        self.file.rec.event(
            "state.saved",
            &[
                ("genes", Value::from(state.genes.len())),
                ("candidates", Value::from(state.scan.candidates.len())),
            ],
        );
        Ok(())
    }

    /// Load and fully validate the state bundle.
    ///
    /// # Errors
    /// [`DurableError::Missing`] when no file exists; `Io`, `Corrupt`, or
    /// `IntegrityMismatch` when the file cannot be trusted.
    pub fn load(&self) -> Result<NetworkState, DurableError> {
        self.file.load(decode_state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::Checkpoint;
    use crate::durable::VERSION;
    use crate::incremental::build_state;
    use gnet_expr::synth::{coupled_pairs, Coupling};
    use std::fs;
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
        assert_eq!(back.scan.pooled.to_bytes(), state.scan.pooled.to_bytes());
        assert_eq!(back.snapshot_digest(), state.snapshot_digest());
        assert_eq!(back.threshold().to_bits(), state.threshold().to_bits());
    }

    #[test]
    fn missing_file_is_a_typed_error() {
        let store = StateStore::new(tmpdir("missing"));
        assert!(matches!(
            store.load(),
            Err(DurableError::Missing {
                kind: FileKind::State,
                ..
            })
        ));
        assert!(matches!(
            store.progress().load(),
            Err(DurableError::Missing {
                kind: FileKind::UpdateProgress,
                ..
            })
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
                    DurableError::Corrupt { .. } | DurableError::IntegrityMismatch { .. }
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
            Err(DurableError::IntegrityMismatch { .. })
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
        assert!(matches!(err, DurableError::Corrupt { reason, .. } if reason.contains("magic")));

        let mut future = good;
        future[8] = 9; // version field
        fs::write(store.path(), &future).expect("rewrite");
        let err = store.load().expect_err("future version rejected");
        assert!(matches!(err, DurableError::Corrupt { reason, .. } if reason.contains("version")));
    }

    #[test]
    fn older_state_and_progress_versions_are_rejected() {
        let state = small_state();
        let store = StateStore::new(tmpdir("old"));
        let progress = Checkpoint {
            digest: 7,
            tiles_done: 1,
            scan: state.scan.clone(),
        };
        for old in [1u32, 2] {
            store.save(&state).expect("save succeeds");
            store.progress().save(&progress).expect("save succeeds");
            for path in [store.path(), store.progress().path()] {
                let mut bytes = fs::read(&path).expect("file readable");
                bytes[8..12].copy_from_slice(&old.to_le_bytes());
                fs::write(&path, &bytes).expect("rewrite");
            }
            let err = store.load().expect_err("an old state must not be updated");
            assert!(
                matches!(&err, DurableError::Corrupt { reason, .. }
                    if reason.contains(&format!("unsupported state version {old}"))),
                "{err}"
            );
            let err = store
                .progress()
                .load()
                .expect_err("old progress must not resume");
            assert!(
                matches!(&err, DurableError::Corrupt { reason, .. }
                    if reason.contains(&format!("unsupported update progress version {old}"))),
                "{err}"
            );
        }
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
        file.extend_from_slice(b"GNETSTA\x01");
        file.extend_from_slice(&VERSION.to_le_bytes());
        file.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        file.extend_from_slice(&fnv1a64(&payload).to_le_bytes());
        file.extend_from_slice(&payload);

        let store = StateStore::new(tmpdir("oversized"));
        fs::create_dir_all(store.path().parent().unwrap()).unwrap();
        fs::write(store.path(), &file).expect("write forged file");
        let err = store.load().expect_err("oversized counts rejected");
        assert!(
            matches!(err, DurableError::Corrupt { .. }),
            "expected Corrupt, got {err}"
        );
    }

    #[test]
    fn progress_round_trips_and_rejects_foreign_digests() {
        let store = StateStore::new(tmpdir("progress"));
        let mut pooled = gnet_permute::PooledNull::new();
        pooled.extend(&[0.5, 0.25, 0.9]);
        let p = Checkpoint {
            digest: 0xDEAD_BEEF,
            tiles_done: 17,
            scan: NullScan {
                pooled,
                candidates: vec![(0, 3, 0.7), (1, 2, 0.4)],
                joints: 119,
            },
        };
        let progress = store.progress();
        progress.save(&p).expect("save succeeds");
        assert_eq!(
            progress.path(),
            store.path().with_file_name("gnet.update.progress")
        );
        assert_eq!(progress.load().expect("progress loads"), p);
        let stale = progress
            .scan_durably(1, &[], 1, true, &Recorder::disabled(), |_| {
                Ok::<(), Checkpoint>(())
            })
            .expect_err("another update's progress must not resume");
        assert!(
            matches!(
                stale,
                DurableError::Stale {
                    kind: FileKind::UpdateProgress,
                    ..
                }
            ),
            "{stale}"
        );
        progress.clear().expect("clear succeeds");
        assert!(matches!(progress.load(), Err(DurableError::Missing { .. })));
        progress.clear().expect("clear is idempotent");
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
        assert_eq!(state.threshold().to_bits(), batch.stats.threshold.to_bits());
        assert_eq!(state.matrix(), matrix);
    }
}
