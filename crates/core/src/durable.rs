//! Durable, integrity-checked checkpoint files and the resume driver.
//!
//! [`crate::checkpoint`] made progress *mergeable*; this module makes it
//! *survivable*. A [`CheckpointStore`] persists every chunk boundary as a
//! single-file checkpoint written atomically (temp file + `fsync` +
//! rename), so a kill at any instant leaves either the previous complete
//! checkpoint or the new complete checkpoint on disk — never a torn one.
//!
//! ## File schema v1
//!
//! All integers little-endian:
//!
//! ```text
//! offset  size  field
//! 0       8     magic  b"GNETCKP\x01"
//! 8       4     version (= 2)
//! 12      8     payload length in bytes
//! 20      8     FNV-1a 64 digest of the payload bytes
//! 28      …     payload
//! ```
//!
//! Payload (f64 values stored as raw IEEE-754 bits, so resumed pooled
//! moments are **bit-identical** to the in-memory accumulator):
//!
//! ```text
//! u64  run digest (see [`crate::checkpoint::run_digest_for`])
//! u64  tiles_done
//! u64  pooled.count       u64 pooled.mean bits
//! u64  pooled.m2 bits     u64 pooled.max bits
//! u64  joints
//! u32  candidate count, then per candidate: u32 i, u32 j, u64 MI bits
//! ```
//!
//! Every load re-verifies the FNV digest and the run digest: a corrupted
//! or stale file yields a typed [`CheckpointError`], never a panic and
//! never a silently wrong network.
//!
//! Fault points (temp-file write, rename, read-back, payload bytes) are
//! routed through a [`FaultInjector`], so the chaos suite can exercise
//! torn writes and silent corruption deterministically.

use crate::checkpoint::{infer_network_resumable_traced, run_digest_for, Checkpoint};
use crate::config::InferenceConfig;
use crate::result::InferenceResult;
use gnet_expr::ExpressionMatrix;
use gnet_fault::{names, FaultInjector, IoOp};
use gnet_permute::PooledNull;
use gnet_trace::{Recorder, Value};
use std::fmt;
use std::fs::{self, File};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

const MAGIC: [u8; 8] = *b"GNETCKP\x01";
/// v2: prefixes summed by the run-blocked accumulation kernel. A v1 prefix
/// was summed in another order, so resuming it could not be bit-identical
/// to a batch run.
const VERSION: u32 = 2;
const HEADER_LEN: usize = 28;

/// Name of the durable checkpoint file inside the store directory.
pub const CHECKPOINT_FILE: &str = "gnet.ckpt";
const TMP_FILE: &str = "gnet.ckpt.tmp";

/// Why a durable checkpoint could not be saved, loaded, or resumed.
#[derive(Debug)]
pub enum CheckpointError {
    /// A filesystem operation failed; names the path and operation.
    Io {
        /// File or directory the operation targeted.
        path: PathBuf,
        /// What was being attempted (`"write"`, `"rename"`, …).
        op: &'static str,
        /// The underlying error.
        source: io::Error,
    },
    /// The file is structurally invalid (bad magic, truncated, …).
    Corrupt {
        /// Offending file.
        path: PathBuf,
        /// What exactly was malformed.
        reason: String,
    },
    /// The payload bytes do not match their integrity digest: the file
    /// was damaged after it was written.
    IntegrityMismatch {
        /// Offending file.
        path: PathBuf,
        /// Digest recorded in the header.
        expected: u64,
        /// Digest of the bytes actually on disk.
        found: u64,
    },
    /// The checkpoint is valid but belongs to a different run (other
    /// matrix, config, or tiling).
    StaleRun {
        /// Offending file.
        path: PathBuf,
        /// Run digest of the current configuration.
        expected: u64,
        /// Run digest stored in the checkpoint.
        found: u64,
    },
    /// No checkpoint file exists at the expected path.
    Missing {
        /// Path that was probed.
        path: PathBuf,
    },
    /// The run was interrupted at a chunk boundary (an injected crash or
    /// an external stop) *after* its checkpoint was durably written;
    /// re-running with `resume` continues from `tiles_done`.
    Interrupted {
        /// Tiles completed and checkpointed before the interruption.
        tiles_done: usize,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Io { path, op, source } => {
                write!(
                    f,
                    "checkpoint {op} failed for `{}`: {source}",
                    path.display()
                )
            }
            Self::Corrupt { path, reason } => {
                write!(f, "corrupt checkpoint `{}`: {reason}", path.display())
            }
            Self::IntegrityMismatch {
                path,
                expected,
                found,
            } => write!(
                f,
                "checkpoint `{}` failed integrity check \
                 (digest {expected:#018x} recorded, {found:#018x} on disk); \
                 the file was corrupted after writing — delete it and restart",
                path.display()
            ),
            Self::StaleRun {
                path,
                expected,
                found,
            } => write!(
                f,
                "checkpoint `{}` belongs to a different run \
                 (run digest {found:#018x}, current run is {expected:#018x}); \
                 matrix, config, or tiling changed — delete it or restart without --resume",
                path.display()
            ),
            Self::Missing { path } => {
                write!(f, "no checkpoint at `{}`", path.display())
            }
            Self::Interrupted { tiles_done } => write!(
                f,
                "run interrupted at a chunk boundary with {tiles_done} tiles \
                 checkpointed; re-run with resume to continue"
            ),
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

pub(crate) fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn encode_payload(cp: &Checkpoint) -> Vec<u8> {
    let (count, mean, m2, max) = cp.pooled.raw_parts();
    let mut out = Vec::with_capacity(8 * 7 + 4 + cp.candidates.len() * 16);
    out.extend_from_slice(&cp.digest.to_le_bytes());
    out.extend_from_slice(&(cp.tiles_done as u64).to_le_bytes());
    out.extend_from_slice(&count.to_le_bytes());
    out.extend_from_slice(&mean.to_bits().to_le_bytes());
    out.extend_from_slice(&m2.to_bits().to_le_bytes());
    out.extend_from_slice(&max.to_bits().to_le_bytes());
    out.extend_from_slice(&cp.joints.to_le_bytes());
    out.extend_from_slice(&(cp.candidates.len() as u32).to_le_bytes());
    for &(i, j, v) in &cp.candidates {
        out.extend_from_slice(&i.to_le_bytes());
        out.extend_from_slice(&j.to_le_bytes());
        out.extend_from_slice(&v.to_bits().to_le_bytes());
    }
    out
}

/// Bounds-checked little-endian reader; every underflow is a typed
/// reason, never a slice panic.
pub(crate) struct Reader<'a> {
    pub(crate) buf: &'a [u8],
    pub(crate) pos: usize,
}

impl<'a> Reader<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    pub(crate) fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], String> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.buf.len());
        match end {
            Some(end) => {
                let slice = &self.buf[self.pos..end];
                self.pos = end;
                Ok(slice)
            }
            None => Err(format!(
                "truncated while reading {what} at offset {} (need {n} bytes, {} left)",
                self.pos,
                self.buf.len() - self.pos
            )),
        }
    }

    pub(crate) fn u32(&mut self, what: &str) -> Result<u32, String> {
        let b = self.take(4, what)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    pub(crate) fn u64(&mut self, what: &str) -> Result<u64, String> {
        let b = self.take(8, what)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    pub(crate) fn f64(&mut self, what: &str) -> Result<f64, String> {
        Ok(f64::from_bits(self.u64(what)?))
    }

    pub(crate) fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }
}

fn decode_payload(payload: &[u8]) -> Result<Checkpoint, String> {
    let mut r = Reader::new(payload);
    let digest = r.u64("run digest")?;
    let tiles_done = r.u64("tiles_done")? as usize;
    let count = r.u64("pooled count")?;
    let mean = r.f64("pooled mean")?;
    let m2 = r.f64("pooled m2")?;
    let max = r.f64("pooled max")?;
    let joints = r.u64("joints")?;
    let n = r.u32("candidate count")? as usize;
    // A candidate is 16 bytes; reject counts the remaining bytes cannot
    // hold before allocating.
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
    Ok(Checkpoint {
        digest,
        tiles_done,
        pooled: PooledNull::from_raw_parts(count, mean, m2, max),
        candidates,
        joints,
    })
}

/// A directory holding one durable checkpoint, written atomically.
///
/// The default store is fault-free; [`CheckpointStore::with_faults`]
/// routes the write/rename/read fault points and payload bytes through a
/// [`FaultInjector`] for chaos testing.
pub struct CheckpointStore {
    dir: PathBuf,
    injector: FaultInjector,
    rec: Recorder,
}

impl CheckpointStore {
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

    /// The injector this store consults (shared with the resume driver).
    #[must_use]
    pub fn injector(&self) -> &FaultInjector {
        &self.injector
    }

    /// Path of the durable checkpoint file.
    #[must_use]
    pub fn path(&self) -> PathBuf {
        self.dir.join(CHECKPOINT_FILE)
    }

    fn tmp_path(&self) -> PathBuf {
        self.dir.join(TMP_FILE)
    }

    /// Atomically persist `cp`: encode, write to a temp file, `fsync`,
    /// rename over the durable name, and `fsync` the directory.
    ///
    /// # Errors
    /// [`CheckpointError::Io`] naming the path and operation that failed
    /// (including injected faults).
    pub fn save(&self, cp: &Checkpoint) -> Result<(), CheckpointError> {
        fs::create_dir_all(&self.dir).map_err(|source| CheckpointError::Io {
            path: self.dir.clone(),
            op: "create-dir",
            source,
        })?;
        let mut payload = encode_payload(cp);
        // The integrity digest covers the *intended* bytes; injected
        // flips happen after, modeling media corruption that load()
        // must catch.
        let integrity = fnv1a64(&payload);
        self.injector.corrupt_checkpoint(&mut payload);

        let mut file_bytes = Vec::with_capacity(HEADER_LEN + payload.len());
        file_bytes.extend_from_slice(&MAGIC);
        file_bytes.extend_from_slice(&VERSION.to_le_bytes());
        file_bytes.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        file_bytes.extend_from_slice(&integrity.to_le_bytes());
        file_bytes.extend_from_slice(&payload);

        let tmp = self.tmp_path();
        if let Some(source) = self.injector.on_io(IoOp::Write) {
            return Err(CheckpointError::Io {
                path: tmp,
                op: "write",
                source,
            });
        }
        write_durably(&tmp, &file_bytes).map_err(|source| CheckpointError::Io {
            path: tmp.clone(),
            op: "write",
            source,
        })?;
        if let Some(source) = self.injector.on_io(IoOp::Rename) {
            return Err(CheckpointError::Io {
                path: self.path(),
                op: "rename",
                source,
            });
        }
        fs::rename(&tmp, self.path()).map_err(|source| CheckpointError::Io {
            path: self.path(),
            op: "rename",
            source,
        })?;
        // Durability of the rename itself. Some filesystems refuse
        // directory handles; the rename is still atomic, so best-effort.
        if let Ok(d) = File::open(&self.dir) {
            let _ = d.sync_all();
        }
        self.rec.event(
            "checkpoint.saved",
            &[
                ("tiles_done", Value::from(cp.tiles_done)),
                ("bytes", Value::from(file_bytes.len())),
            ],
        );
        Ok(())
    }

    /// Load and fully validate the durable checkpoint.
    ///
    /// # Errors
    /// [`CheckpointError::Missing`] when no file exists; `Io`, `Corrupt`,
    /// or `IntegrityMismatch` when the file cannot be trusted.
    pub fn load(&self) -> Result<Checkpoint, CheckpointError> {
        let path = self.path();
        if let Some(source) = self.injector.on_io(IoOp::Read) {
            return Err(CheckpointError::Io {
                path,
                op: "read",
                source,
            });
        }
        let bytes = match fs::read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                return Err(CheckpointError::Missing { path })
            }
            Err(source) => {
                return Err(CheckpointError::Io {
                    path,
                    op: "read",
                    source,
                })
            }
        };
        let corrupt = |reason: String| CheckpointError::Corrupt {
            path: path.clone(),
            reason,
        };
        if bytes.len() < HEADER_LEN {
            return Err(corrupt(format!(
                "file is {} bytes, shorter than the {HEADER_LEN}-byte header",
                bytes.len()
            )));
        }
        if bytes[..8] != MAGIC {
            return Err(corrupt("bad magic; not a gnet checkpoint file".into()));
        }
        let mut header = Reader::new(&bytes[8..HEADER_LEN]);
        let version = header.u32("version").map_err(&corrupt)?;
        if version != VERSION {
            return Err(corrupt(format!(
                "unsupported checkpoint version {version} (this build reads v{VERSION})"
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
            return Err(CheckpointError::IntegrityMismatch {
                path,
                expected,
                found,
            });
        }
        decode_payload(payload).map_err(corrupt)
    }

    /// [`Self::load`], additionally rejecting checkpoints whose run
    /// digest differs from `expected_digest`.
    ///
    /// # Errors
    /// Everything [`Self::load`] returns, plus
    /// [`CheckpointError::StaleRun`] on a digest mismatch.
    pub fn load_for_run(&self, expected_digest: u64) -> Result<Checkpoint, CheckpointError> {
        let cp = self.load()?;
        if cp.digest != expected_digest {
            return Err(CheckpointError::StaleRun {
                path: self.path(),
                expected: expected_digest,
                found: cp.digest,
            });
        }
        Ok(cp)
    }

    /// Remove the checkpoint (and any stray temp file) if present.
    ///
    /// # Errors
    /// [`CheckpointError::Io`] on a filesystem failure other than the
    /// files already being absent.
    pub fn clear(&self) -> Result<(), CheckpointError> {
        for path in [self.path(), self.tmp_path()] {
            match fs::remove_file(&path) {
                Ok(()) => {}
                Err(e) if e.kind() == io::ErrorKind::NotFound => {}
                Err(source) => {
                    return Err(CheckpointError::Io {
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

pub(crate) fn write_durably(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let mut f = File::create(path)?;
    f.write_all(bytes)?;
    f.sync_all()
}

/// Run inference with durable checkpointing every `checkpoint_every`
/// tiles, optionally resuming from the store's checkpoint.
///
/// On a clean finish the checkpoint file is left in place: re-running
/// with `resume` is idempotent (the completed prefix covers every tile,
/// so the run finalizes immediately with the identical network). Stale
/// or corrupt files are rejected up front with a typed error.
///
/// If the store's [`FaultInjector`] schedules a chunk-boundary crash,
/// the run stops *after* that boundary's checkpoint is durably written
/// and reports [`CheckpointError::Interrupted`] — the simulated kill the
/// chaos suite resumes from.
///
/// # Errors
/// Any [`CheckpointError`] from validating, saving, or resuming.
///
/// # Panics
/// Panics on config/matrix violations or `checkpoint_every == 0`, like
/// [`infer_network_resumable_traced`].
pub fn infer_network_durable(
    matrix: &ExpressionMatrix,
    config: &InferenceConfig,
    store: &CheckpointStore,
    checkpoint_every: usize,
    resume: bool,
    rec: &Recorder,
) -> Result<InferenceResult, CheckpointError> {
    let digest = run_digest_for(matrix, config);
    let resume_from = if resume {
        match store.load_for_run(digest) {
            Ok(cp) => {
                rec.counter_add(names::CNT_RESUMES, 1);
                rec.event(
                    names::EVT_RESUMED,
                    &[("tiles_done", Value::from(cp.tiles_done))],
                );
                Some(cp)
            }
            Err(CheckpointError::Missing { .. }) => None,
            Err(e) => return Err(e),
        }
    } else {
        None
    };

    let injector = store.injector.clone();
    let mut boundary = 0usize;
    let mut save_err: Option<CheckpointError> = None;
    let outcome = infer_network_resumable_traced(
        matrix,
        config,
        resume_from,
        checkpoint_every,
        |cp| {
            if let Err(e) = store.save(cp) {
                save_err = Some(e);
                return false;
            }
            let b = boundary;
            boundary += 1;
            // Crash *after* the durable write: the checkpoint for this
            // boundary survives the kill, which is what resume tests.
            !injector.should_crash_at_chunk(b)
        },
        rec,
    );
    if let Some(e) = save_err {
        return Err(e);
    }
    match outcome {
        Ok(result) => Ok(result),
        Err(cp) => Err(CheckpointError::Interrupted {
            tiles_done: cp.tiles_done,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::infer_network_resumable;
    use gnet_expr::synth::{coupled_pairs, Coupling};
    use gnet_fault::{Fault, FaultPlan};
    use std::sync::atomic::{AtomicU64, Ordering};

    fn cfg() -> InferenceConfig {
        InferenceConfig {
            permutations: 10,
            threads: Some(2),
            tile_size: Some(6),
            // Static partition: per-thread state contents (and therefore
            // pooled-merge order) are reproducible, which the bit-identical
            // assertions below rely on.
            scheduler: gnet_parallel::SchedulerPolicy::StaticCyclic,
            ..InferenceConfig::default()
        }
    }

    fn tmpdir(tag: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        // ordering: test-local unique-id counter; no synchronization needed.
        let n = N.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("gnet-durable-{tag}-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir must be creatable");
        dir
    }

    fn interrupted_checkpoint() -> (gnet_expr::ExpressionMatrix, Checkpoint) {
        let (matrix, _) = coupled_pairs(6, 180, Coupling::Linear(0.85), 21);
        let cp = infer_network_resumable(&matrix, &cfg(), None, 1, |_| false)
            .expect_err("interrupted after first chunk");
        (matrix, cp)
    }

    #[test]
    fn save_load_round_trip_is_bit_exact() {
        let (_, cp) = interrupted_checkpoint();
        let store = CheckpointStore::new(tmpdir("roundtrip"));
        store.save(&cp).expect("save succeeds");
        let back = store.load().expect("load succeeds");
        assert_eq!(back, cp);
        // Bit-level equality of the pooled moments, not just PartialEq.
        let (c0, m0, s0, x0) = cp.pooled.raw_parts();
        let (c1, m1, s1, x1) = back.pooled.raw_parts();
        assert_eq!(c0, c1);
        assert_eq!(m0.to_bits(), m1.to_bits());
        assert_eq!(s0.to_bits(), s1.to_bits());
        assert_eq!(x0.to_bits(), x1.to_bits());
        // Atomic write leaves no temp file behind.
        assert!(!store.tmp_path().exists());
    }

    #[test]
    fn missing_file_is_a_typed_error() {
        let store = CheckpointStore::new(tmpdir("missing"));
        assert!(matches!(store.load(), Err(CheckpointError::Missing { .. })));
    }

    #[test]
    fn truncated_and_garbage_files_are_rejected_not_panicked() {
        let (_, cp) = interrupted_checkpoint();
        let store = CheckpointStore::new(tmpdir("truncate"));
        store.save(&cp).expect("save succeeds");
        let full = fs::read(store.path()).expect("file readable");
        // Every proper prefix must fail with a typed error.
        for cut in [0, 7, HEADER_LEN - 1, HEADER_LEN, full.len() - 1] {
            fs::write(store.path(), &full[..cut]).expect("rewrite");
            let err = store.load().expect_err("truncated file must be rejected");
            assert!(
                matches!(
                    err,
                    CheckpointError::Corrupt { .. } | CheckpointError::IntegrityMismatch { .. }
                ),
                "cut at {cut}: {err}"
            );
        }
        // Garbage with the right length but wrong magic.
        fs::write(store.path(), vec![0xAB; full.len()]).expect("rewrite");
        let err = store.load().expect_err("garbage rejected");
        assert!(matches!(err, CheckpointError::Corrupt { reason, .. } if reason.contains("magic")));
    }

    #[test]
    fn flipped_payload_byte_fails_the_integrity_check() {
        let (_, cp) = interrupted_checkpoint();
        let store = CheckpointStore::new(tmpdir("flip"));
        store.save(&cp).expect("save succeeds");
        let mut bytes = fs::read(store.path()).expect("file readable");
        let last = bytes.len() - 1;
        bytes[last] ^= 0x20;
        fs::write(store.path(), &bytes).expect("rewrite");
        assert!(matches!(
            store.load(),
            Err(CheckpointError::IntegrityMismatch { .. })
        ));
    }

    #[test]
    fn unsupported_version_is_rejected() {
        let (_, cp) = interrupted_checkpoint();
        let store = CheckpointStore::new(tmpdir("version"));
        store.save(&cp).expect("save succeeds");
        let mut bytes = fs::read(store.path()).expect("file readable");
        bytes[8] = 9; // version field
        fs::write(store.path(), &bytes).expect("rewrite");
        let err = store.load().expect_err("future version rejected");
        assert!(
            matches!(err, CheckpointError::Corrupt { reason, .. } if reason.contains("version"))
        );
    }

    #[test]
    fn version_1_checkpoints_are_rejected() {
        let (_, cp) = interrupted_checkpoint();
        let store = CheckpointStore::new(tmpdir("v1"));
        store.save(&cp).expect("save succeeds");
        let mut bytes = fs::read(store.path()).expect("file readable");
        bytes[8..12].copy_from_slice(&1u32.to_le_bytes());
        fs::write(store.path(), &bytes).expect("rewrite");
        let err = store.load().expect_err("a v1 prefix must not resume");
        assert!(
            matches!(&err, CheckpointError::Corrupt { reason, .. }
                if reason.contains("unsupported checkpoint version 1")),
            "{err}"
        );
    }

    #[test]
    fn stale_run_digest_is_rejected() {
        let (_, cp) = interrupted_checkpoint();
        let store = CheckpointStore::new(tmpdir("stale"));
        store.save(&cp).expect("save succeeds");
        let err = store
            .load_for_run(cp.digest ^ 1)
            .expect_err("foreign digest rejected");
        assert!(matches!(err, CheckpointError::StaleRun { .. }));
    }

    #[test]
    fn injected_write_fault_surfaces_as_io_error_naming_the_path() {
        let (_, cp) = interrupted_checkpoint();
        let plan = FaultPlan::new(3).with(Fault::IoError {
            op: IoOp::Write,
            nth: 0,
        });
        let store = CheckpointStore::with_faults(
            tmpdir("iofault"),
            FaultInjector::from_plan(&plan),
            &Recorder::disabled(),
        );
        let err = store.save(&cp).expect_err("injected write fault");
        let text = err.to_string();
        assert!(text.contains("write failed"), "{text}");
        assert!(text.contains(TMP_FILE), "{text}");
        // The next save (nth=1) succeeds.
        store.save(&cp).expect("second save unaffected");
    }

    #[test]
    fn injected_bit_flip_is_caught_on_load() {
        let (_, cp) = interrupted_checkpoint();
        let plan = FaultPlan::new(3).with(Fault::FlipBit {
            write: 0,
            byte: 40,
            bit: 2,
        });
        let store = CheckpointStore::with_faults(
            tmpdir("bitflip"),
            FaultInjector::from_plan(&plan),
            &Recorder::disabled(),
        );
        store.save(&cp).expect("save itself succeeds");
        assert!(matches!(
            store.load(),
            Err(CheckpointError::IntegrityMismatch { .. })
        ));
    }

    #[test]
    fn durable_crash_then_resume_matches_uninterrupted_run_bitwise() {
        let (matrix, _) = coupled_pairs(6, 180, Coupling::Linear(0.85), 33);
        let reference = infer_network_durable(
            &matrix,
            &cfg(),
            &CheckpointStore::new(tmpdir("ref")),
            2,
            false,
            &Recorder::disabled(),
        )
        .expect("uninterrupted run finishes");

        let dir = tmpdir("crashresume");
        let plan = FaultPlan::new(11).with(Fault::CrashAtChunk { boundary: 1 });
        let rec = Recorder::enabled();
        let store =
            CheckpointStore::with_faults(&dir, FaultInjector::from_plan_traced(&plan, &rec), &rec);
        let err = infer_network_durable(&matrix, &cfg(), &store, 2, false, &rec)
            .expect_err("injected crash interrupts");
        assert!(matches!(err, CheckpointError::Interrupted { tiles_done } if tiles_done > 0));
        assert_eq!(rec.event_count(gnet_fault::names::EVT_CHUNK_CRASH), 1);

        // "Restart the process": a fresh fault-free store on the same dir.
        let rec2 = Recorder::enabled();
        let store2 = CheckpointStore::with_faults(&dir, FaultInjector::none(), &rec2);
        let resumed = infer_network_durable(&matrix, &cfg(), &store2, 2, true, &rec2)
            .expect("resume finishes");
        assert_eq!(rec2.counter(gnet_fault::names::CNT_RESUMES), Some(1));

        let ref_keys: Vec<_> = reference.network.edges().iter().map(|e| e.key()).collect();
        let res_keys: Vec<_> = resumed.network.edges().iter().map(|e| e.key()).collect();
        assert_eq!(ref_keys, res_keys);
        assert_eq!(
            reference.stats.threshold.to_bits(),
            resumed.stats.threshold.to_bits(),
            "pooled-null threshold must be bit-identical"
        );
        assert_eq!(
            reference.stats.joints_evaluated,
            resumed.stats.joints_evaluated
        );
    }

    #[test]
    fn resume_after_completion_is_idempotent() {
        let (matrix, _) = coupled_pairs(5, 150, Coupling::Linear(0.85), 9);
        let store = CheckpointStore::new(tmpdir("idempotent"));
        let first = infer_network_durable(&matrix, &cfg(), &store, 2, false, &Recorder::disabled())
            .expect("first run finishes");
        let again = infer_network_durable(&matrix, &cfg(), &store, 2, true, &Recorder::disabled())
            .expect("idempotent resume");
        let a: Vec<_> = first.network.edges().iter().map(|e| e.key()).collect();
        let b: Vec<_> = again.network.edges().iter().map(|e| e.key()).collect();
        assert_eq!(a, b);
        assert_eq!(
            first.stats.threshold.to_bits(),
            again.stats.threshold.to_bits()
        );
    }

    #[test]
    fn clear_removes_the_checkpoint() {
        let (_, cp) = interrupted_checkpoint();
        let store = CheckpointStore::new(tmpdir("clear"));
        store.save(&cp).expect("save succeeds");
        assert!(store.path().exists());
        store.clear().expect("clear succeeds");
        assert!(!store.path().exists());
        assert!(matches!(store.load(), Err(CheckpointError::Missing { .. })));
        store.clear().expect("clear is idempotent");
    }
}
