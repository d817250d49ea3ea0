//! Durable progress: integrity-checked framed files and the one resume
//! driver.
//!
//! [`crate::checkpoint`] made progress *mergeable*; this module makes it
//! *survivable*. Three framed files share one codec, told apart by their
//! [`FileKind`]: the GNETCKP checkpoint of `gnet infer --checkpoint-dir`,
//! the GNETSTA state bundle of `gnet infer --save-state`
//! ([`crate::state`]) and the GNETUPD progress file `gnet update` keeps
//! next to its bundle. Every write is atomic (temp file + `fsync` +
//! rename), so a kill at any instant leaves either the previous complete
//! file or the new one, never a torn one, and every failure is one
//! [`DurableError`] that names the file's kind, path and cure.
//!
//! A checkpoint and an update progress file hold the same value, a
//! [`Checkpoint`], and one [`CheckpointStore`] reads and writes both.
//! One driver runs both durable scans, [`infer_network_durable`] and
//! [`crate::update_durable`]: it loads and validates the progress a
//! resume starts from, saves the progress after every chunk, and checks
//! the fault plan's crash point after each save.
//!
//! ## File schema
//!
//! All integers little-endian:
//!
//! ```text
//! offset  size  field
//! 0       8     magic  b"GNETCKP\x01" | b"GNETSTA\x01" | b"GNETUPD\x01"
//! 8       4     version (GNETCKP and GNETUPD 3, GNETSTA 4)
//! 12      8     payload length in bytes
//! 20      8     FNV-1a 64 digest of the payload bytes
//! 28      …     payload
//! ```
//!
//! The GNETCKP and GNETUPD payload (f64 values stored as raw IEEE-754
//! bits, so a resumed prefix is **bit-identical** to the in-memory one;
//! the GNETSTA payload is in [`crate::state`]):
//!
//! ```text
//! u64  digest (the run digest of [`crate::run_digest_for`], or an
//!      update's [`crate::update_digest`])
//! u64  tiles_done
//! 48   pooled null ([`gnet_permute::PooledNull::to_bytes`])
//! u64  joints
//! u32  candidate count, then per candidate: u32 i, u32 j, u64 MI bits
//! ```
//!
//! Every load re-verifies the FNV digest, and a resume also checks the
//! progress digest and that the prefix fits the tile list: a corrupted,
//! stale or forged file yields a typed [`DurableError`], never a panic
//! and never a silently wrong network.
//!
//! Fault points (temp-file write, rename, read-back, payload bytes) are
//! routed through a [`FaultInjector`], so the chaos suite can exercise
//! torn writes and silent corruption deterministically.

use crate::checkpoint::{run_digest, run_space, Checkpoint};
use crate::config::InferenceConfig;
use crate::pipeline::run_pipeline;
use crate::result::InferenceResult;
use crate::scan::{Chunking, NullScan};
use gnet_expr::ExpressionMatrix;
use gnet_fault::{names, FaultInjector, IoOp};
use gnet_parallel::Tile;
use gnet_trace::{Recorder, Value};
use std::fmt;
use std::fs::{self, File};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

pub(crate) const HEADER_LEN: usize = 28;

/// The three framed files. Each has its own magic, its own name inside
/// its store directory, and its own cure when it cannot be used.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FileKind {
    /// The GNETCKP checkpoint of `gnet infer --checkpoint-dir`.
    Checkpoint,
    /// The GNETSTA state bundle of `gnet infer --save-state`.
    State,
    /// The GNETUPD progress file of `gnet update`, next to its bundle.
    UpdateProgress,
}

impl FileKind {
    /// The file's name inside its store directory.
    #[must_use]
    pub fn file_name(self) -> &'static str {
        match self {
            Self::Checkpoint => "gnet.ckpt",
            Self::State => "gnet.state",
            Self::UpdateProgress => "gnet.update.progress",
        }
    }

    fn magic(self) -> &'static [u8; 8] {
        match self {
            Self::Checkpoint => b"GNETCKP\x01",
            Self::State => b"GNETSTA\x01",
            Self::UpdateProgress => b"GNETUPD\x01",
        }
    }

    /// The one version of this kind a build reads and writes. Version 3
    /// keeps the pooled null as exact fixed-point sums (a v2 file carries
    /// Welford moments, which the exact accumulator cannot continue); a
    /// v4 state keeps the matrix and the evidence and nothing derived
    /// from a profile.
    pub(crate) fn version(self) -> u32 {
        match self {
            Self::Checkpoint | Self::UpdateProgress => 3,
            Self::State => 4,
        }
    }

    /// How messages name the file.
    fn noun(self) -> &'static str {
        match self {
            Self::Checkpoint => "checkpoint",
            Self::State => "state",
            Self::UpdateProgress => "update progress",
        }
    }

    /// What to do with a file of this kind that cannot be used.
    fn cure(self) -> &'static str {
        match self {
            Self::Checkpoint => "delete it, or restart without --resume",
            Self::State => "rebuild it with `gnet infer --save-state`",
            Self::UpdateProgress => "delete it, or rerun without --resume",
        }
    }
}

/// Why a durable file could not be saved, loaded or resumed, or why a
/// durable run or update stopped. Every file error names the file's kind
/// and path, and its message says what to do about it.
#[derive(Debug)]
pub enum DurableError {
    /// A filesystem operation failed.
    Io {
        /// Kind of the file the operation was for.
        kind: FileKind,
        /// File or directory the operation targeted.
        path: PathBuf,
        /// What was being attempted (`"write"`, `"rename"`, …).
        op: &'static str,
        /// The underlying error.
        source: io::Error,
    },
    /// The file is structurally invalid (bad magic, truncated, bad
    /// shapes, a prefix past the tile list, …).
    Corrupt {
        /// Kind of the offending file.
        kind: FileKind,
        /// Offending file.
        path: PathBuf,
        /// What exactly was malformed.
        reason: String,
    },
    /// The payload bytes do not match their integrity digest: the file
    /// was damaged after it was written.
    IntegrityMismatch {
        /// Kind of the offending file.
        kind: FileKind,
        /// Offending file.
        path: PathBuf,
        /// Digest recorded in the header.
        expected: u64,
        /// Digest of the bytes actually on disk.
        found: u64,
    },
    /// No file exists at the expected path.
    Missing {
        /// Kind of the file that was probed.
        kind: FileKind,
        /// Path that was probed.
        path: PathBuf,
    },
    /// The progress is valid but belongs to another run (other matrix,
    /// config or tiling) or another update (other state, appended data
    /// or mode).
    Stale {
        /// Kind of the offending file.
        kind: FileKind,
        /// Offending file.
        path: PathBuf,
        /// Digest of the current run or update.
        expected: u64,
        /// Digest stored in the file.
        found: u64,
    },
    /// The appended data is incompatible with the stored state.
    Append {
        /// What does not line up.
        reason: String,
    },
    /// The run stopped at a chunk boundary (an injected crash or an
    /// external stop) *after* that boundary's progress was durably saved;
    /// re-running with `resume` continues from it.
    Interrupted {
        /// Tiles completed and saved before the interruption.
        tiles_done: usize,
        /// Pairs in those tiles.
        pairs_done: u64,
    },
}

impl fmt::Display for DurableError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Io {
                kind,
                path,
                op,
                source,
            } => write!(
                f,
                "{} {op} failed for `{}`: {source}",
                kind.noun(),
                path.display()
            ),
            Self::Corrupt { kind, path, reason } => write!(
                f,
                "corrupt {} file `{}`: {reason} — {}",
                kind.noun(),
                path.display(),
                kind.cure()
            ),
            Self::IntegrityMismatch {
                kind,
                path,
                expected,
                found,
            } => write!(
                f,
                "{} file `{}` failed integrity check \
                 (digest {expected:#018x} recorded, {found:#018x} on disk); \
                 the file was corrupted after writing — {}",
                kind.noun(),
                path.display(),
                kind.cure()
            ),
            Self::Missing { kind, path } => {
                write!(f, "no {} file at `{}`", kind.noun(), path.display())
            }
            Self::Stale {
                kind,
                path,
                expected,
                found,
            } => {
                let (owner, inputs) = match kind {
                    FileKind::UpdateProgress => ("update", "state, appended data or mode"),
                    _ => ("run", "matrix, config or tiling"),
                };
                write!(
                    f,
                    "{} file `{}` belongs to a different {owner} \
                     (digest {found:#018x}, this {owner} is {expected:#018x}); \
                     {inputs} changed — {}",
                    kind.noun(),
                    path.display(),
                    kind.cure()
                )
            }
            Self::Append { reason } => {
                write!(f, "appended data is incompatible with the state: {reason}")
            }
            Self::Interrupted {
                tiles_done,
                pairs_done,
            } => write!(
                f,
                "interrupted at a chunk boundary with {tiles_done} tile(s) \
                 ({pairs_done} pair(s)) saved; re-run with resume to continue"
            ),
        }
    }
}

impl std::error::Error for DurableError {
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
    let mut out = Vec::with_capacity(16);
    out.extend_from_slice(&cp.digest.to_le_bytes());
    out.extend_from_slice(&(cp.tiles_done as u64).to_le_bytes());
    cp.scan.encode(&mut out);
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

    /// Everything not yet read.
    pub(crate) fn rest(&self) -> &'a [u8] {
        &self.buf[self.pos..]
    }
}

fn decode_payload(payload: &[u8]) -> Result<Checkpoint, String> {
    let mut r = Reader::new(payload);
    let digest = r.u64("run digest")?;
    let tiles_done = r.u64("tiles_done")? as usize;
    Ok(Checkpoint {
        digest,
        tiles_done,
        scan: NullScan::decode(r.rest(), u32::MAX)?,
    })
}

/// One framed file of one kind inside a directory, with the injector its
/// reads and writes consult and the recorder its store reports saves to.
#[derive(Clone)]
pub(crate) struct FramedFile {
    dir: PathBuf,
    kind: FileKind,
    injector: FaultInjector,
    pub(crate) rec: Recorder,
}

impl FramedFile {
    pub(crate) fn new(
        dir: PathBuf,
        kind: FileKind,
        injector: FaultInjector,
        rec: &Recorder,
    ) -> Self {
        Self {
            dir,
            kind,
            injector,
            rec: rec.clone(),
        }
    }

    /// The same directory, injector and recorder, for a file of `kind`.
    pub(crate) fn sibling(&self, kind: FileKind) -> Self {
        Self {
            kind,
            ..self.clone()
        }
    }

    pub(crate) fn path(&self) -> PathBuf {
        self.dir.join(self.kind.file_name())
    }

    fn tmp_path(&self) -> PathBuf {
        self.dir.join(format!("{}.tmp", self.kind.file_name()))
    }

    fn io_error(&self, path: &Path, op: &'static str, source: io::Error) -> DurableError {
        DurableError::Io {
            kind: self.kind,
            path: path.to_path_buf(),
            op,
            source,
        }
    }

    fn corrupt(&self, reason: String) -> DurableError {
        DurableError::Corrupt {
            kind: self.kind,
            path: self.path(),
            reason,
        }
    }

    /// Atomically write `payload` framed by the module-level header
    /// (magic, version, length, FNV-1a64 digest): write the temp
    /// file, `fsync`, rename over the file, `fsync` the directory.
    /// Returns the file's size. The injector's write/rename faults and
    /// payload flips apply.
    pub(crate) fn save(&self, mut payload: Vec<u8>) -> Result<usize, DurableError> {
        fs::create_dir_all(&self.dir).map_err(|e| self.io_error(&self.dir, "create-dir", e))?;
        // The integrity digest covers the *intended* bytes; injected flips
        // happen after, modeling media corruption that a load must catch.
        let integrity = fnv1a64(&payload);
        self.injector.corrupt_checkpoint(&mut payload);

        let mut file_bytes = Vec::with_capacity(HEADER_LEN + payload.len());
        file_bytes.extend_from_slice(self.kind.magic());
        file_bytes.extend_from_slice(&self.kind.version().to_le_bytes());
        file_bytes.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        file_bytes.extend_from_slice(&integrity.to_le_bytes());
        file_bytes.extend_from_slice(&payload);

        let (tmp, dst) = (self.tmp_path(), self.path());
        if let Some(e) = self.injector.on_io(IoOp::Write) {
            return Err(self.io_error(&tmp, "write", e));
        }
        write_durably(&tmp, &file_bytes).map_err(|e| self.io_error(&tmp, "write", e))?;
        if let Some(e) = self.injector.on_io(IoOp::Rename) {
            return Err(self.io_error(&dst, "rename", e));
        }
        fs::rename(&tmp, &dst).map_err(|e| self.io_error(&dst, "rename", e))?;
        // Durability of the rename itself. Some filesystems refuse directory
        // handles; the rename is still atomic, so best-effort.
        if let Ok(d) = File::open(&self.dir) {
            let _ = d.sync_all();
        }
        Ok(file_bytes.len())
    }

    /// Read the file, verify its magic, version, length and integrity
    /// digest, and decode the payload. The injector's read faults apply.
    pub(crate) fn load<T>(
        &self,
        decode: impl FnOnce(&[u8]) -> Result<T, String>,
    ) -> Result<T, DurableError> {
        let path = self.path();
        let bytes = match self
            .injector
            .on_io(IoOp::Read)
            .map_or_else(|| fs::read(&path), Err)
        {
            Ok(b) => b,
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                return Err(DurableError::Missing {
                    kind: self.kind,
                    path,
                })
            }
            Err(source) => return Err(self.io_error(&path, "read", source)),
        };
        let what = self.kind.noun();
        if bytes.len() < HEADER_LEN {
            return Err(self.corrupt(format!(
                "file is {} bytes, shorter than the {HEADER_LEN}-byte header",
                bytes.len()
            )));
        }
        if bytes[..8] != self.kind.magic()[..] {
            return Err(self.corrupt(format!("bad magic; not a gnet {what} file")));
        }
        let mut header = Reader::new(&bytes[8..HEADER_LEN]);
        let version = header.u32("version").map_err(|r| self.corrupt(r))?;
        let current = self.kind.version();
        if version != current {
            return Err(self.corrupt(format!(
                "unsupported {what} version {version} (this build reads v{current})"
            )));
        }
        let payload_len = header.u64("payload length").map_err(|r| self.corrupt(r))? as usize;
        let expected = header
            .u64("integrity digest")
            .map_err(|r| self.corrupt(r))?;
        let payload = &bytes[HEADER_LEN..];
        if payload.len() != payload_len {
            return Err(self.corrupt(format!(
                "payload length mismatch: header declares {payload_len} bytes, \
                 file holds {}",
                payload.len()
            )));
        }
        let found = fnv1a64(payload);
        if found != expected {
            return Err(DurableError::IntegrityMismatch {
                kind: self.kind,
                path,
                expected,
                found,
            });
        }
        decode(payload).map_err(|r| self.corrupt(r))
    }

    /// Remove the file and any stray temp file, if present.
    pub(crate) fn clear(&self) -> Result<(), DurableError> {
        for path in [self.path(), self.tmp_path()] {
            match fs::remove_file(&path) {
                Ok(()) => {}
                Err(e) if e.kind() == io::ErrorKind::NotFound => {}
                Err(source) => return Err(self.io_error(&path, "remove", source)),
            }
        }
        Ok(())
    }
}

fn write_durably(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let mut f = File::create(path)?;
    f.write_all(bytes)?;
    f.sync_all()
}

/// A directory holding one durable progress file, written atomically: a
/// GNETCKP checkpoint ([`CheckpointStore::new`]) or, handed out by
/// [`crate::StateStore::progress`], the GNETUPD progress file of an
/// update.
///
/// The default store is fault-free; [`CheckpointStore::with_faults`]
/// routes the write/rename/read fault points and payload bytes through a
/// [`FaultInjector`] for chaos testing.
pub struct CheckpointStore {
    pub(crate) file: FramedFile,
}

impl CheckpointStore {
    /// Checkpoint store rooted at `dir` (created on first save).
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self::with_faults(dir, FaultInjector::none(), &Recorder::disabled())
    }

    /// Checkpoint store with fault injection and trace recording wired
    /// in.
    pub fn with_faults(dir: impl Into<PathBuf>, injector: FaultInjector, rec: &Recorder) -> Self {
        Self {
            file: FramedFile::new(dir.into(), FileKind::Checkpoint, injector, rec),
        }
    }

    /// Path of the progress file.
    #[must_use]
    pub fn path(&self) -> PathBuf {
        self.file.path()
    }

    /// Atomically persist `cp`: encode, write to a temp file, `fsync`,
    /// rename over the durable name, and `fsync` the directory. Records
    /// one `checkpoint.saved` event.
    ///
    /// # Errors
    /// [`DurableError::Io`] naming the path and operation that failed
    /// (including injected faults).
    pub fn save(&self, cp: &Checkpoint) -> Result<(), DurableError> {
        let bytes = self.file.save(encode_payload(cp))?;
        self.file.rec.event(
            "checkpoint.saved",
            &[
                ("tiles_done", Value::from(cp.tiles_done)),
                ("bytes", Value::from(bytes)),
            ],
        );
        Ok(())
    }

    /// Load and fully validate the progress file.
    ///
    /// # Errors
    /// [`DurableError::Missing`] when no file exists; `Io`, `Corrupt`, or
    /// `IntegrityMismatch` when the file cannot be trusted.
    pub fn load(&self) -> Result<Checkpoint, DurableError> {
        self.file.load(decode_payload)
    }

    /// Remove the progress file (and any stray temp file) if present.
    ///
    /// # Errors
    /// [`DurableError::Io`] on a filesystem failure other than the files
    /// already being absent.
    pub fn clear(&self) -> Result<(), DurableError> {
        self.file.clear()
    }

    /// The one durable driver behind [`infer_network_durable`] and
    /// [`crate::update_durable`]. With `resume`, the scan starts from
    /// this store's progress for `digest`: a missing file starts afresh;
    /// an unreadable, corrupt, stale one, or one whose prefix is longer
    /// than `tiles`, is an error. `scan` then runs in chunks of
    /// `chunk_tiles`; after every chunk, the last one included, the
    /// progress is saved (a `checkpoint.save` span) and the fault plan's
    /// crash point checked, which stops the scan as
    /// [`DurableError::Interrupted`]. With `chunk_tiles == 0` the scan is
    /// one chunk and nothing is saved.
    pub(crate) fn scan_durably<T>(
        &self,
        digest: u64,
        tiles: &[Tile],
        chunk_tiles: usize,
        resume: bool,
        rec: &Recorder,
        scan: impl FnOnce(Chunking<'_>) -> Result<T, Checkpoint>,
    ) -> Result<T, DurableError> {
        let pairs_in = |done: usize| -> u64 { tiles[..done].iter().map(Tile::pair_count).sum() };
        let resume_from = if resume {
            match self.load() {
                Ok(cp) if cp.digest != digest => {
                    return Err(DurableError::Stale {
                        kind: self.file.kind,
                        path: self.path(),
                        expected: digest,
                        found: cp.digest,
                    })
                }
                Ok(cp) if cp.tiles_done > tiles.len() => {
                    return Err(self.file.corrupt(format!(
                        "progress covers {} tiles; this scan has {}",
                        cp.tiles_done,
                        tiles.len()
                    )))
                }
                Ok(cp) => {
                    rec.counter_add(names::CNT_RESUMES, 1);
                    rec.event(
                        names::EVT_RESUMED,
                        &[
                            ("tiles_done", Value::from(cp.tiles_done)),
                            ("pairs_done", Value::from(pairs_in(cp.tiles_done))),
                        ],
                    );
                    Some(cp)
                }
                Err(DurableError::Missing { .. }) => None,
                Err(e) => return Err(e),
            }
        } else {
            None
        };

        let mut saves = 0usize;
        let mut failed = None;
        let mut on_checkpoint = |cp: &Checkpoint| {
            if chunk_tiles == 0 {
                return true;
            }
            let saved = {
                let _save = rec.span("checkpoint.save");
                self.save(cp)
            };
            if let Err(e) = saved {
                failed = Some(e);
                return false;
            }
            saves += 1;
            // The crash comes *after* the durable write: the progress of
            // this boundary survives the kill, which is what resume tests.
            !self.crash_after(saves)
        };
        let outcome = scan(Chunking {
            resume_from,
            chunk_tiles: if chunk_tiles == 0 {
                usize::MAX
            } else {
                chunk_tiles
            },
            on_checkpoint: &mut on_checkpoint,
        });
        outcome.map_err(|cp| {
            failed.unwrap_or(DurableError::Interrupted {
                tiles_done: cp.tiles_done,
                pairs_done: pairs_in(cp.tiles_done),
            })
        })
    }

    /// Whether the fault plan kills the scan after its `saves`-th save:
    /// `chunk-crash(boundary=B)` counts checkpoint saves from 0,
    /// `update-crash(boundary=B)` counts update progress saves from 1.
    fn crash_after(&self, saves: usize) -> bool {
        let injector = &self.file.injector;
        match self.file.kind {
            FileKind::UpdateProgress => injector.should_crash_at_update_boundary(saves),
            _ => injector.should_crash_at_chunk(saves - 1),
        }
    }
}

/// Run inference with durable checkpointing every `checkpoint_every`
/// tiles, optionally resuming from the store's checkpoint. `rec`
/// receives what [`crate::infer_network_traced`] records, plus one
/// `checkpoint.chunk` event and one `checkpoint.save` span per chunk and
/// the store's events.
///
/// On a clean finish the checkpoint file is left in place: re-running
/// with `resume` is idempotent (the completed prefix covers every tile,
/// so the run finalizes immediately with the identical network). Stale,
/// corrupt or forged files are rejected up front with a typed error.
/// `checkpoint_every == 0` runs without saving.
///
/// If the store's [`FaultInjector`] schedules a chunk-boundary crash,
/// the run stops *after* that boundary's checkpoint is durably written
/// and reports [`DurableError::Interrupted`] — the simulated kill the
/// chaos suite resumes from.
///
/// # Errors
/// Any [`DurableError`] from validating, saving, or resuming.
///
/// # Panics
/// Panics on config/matrix violations, like
/// [`crate::infer_network_resumable`].
pub fn infer_network_durable(
    matrix: &ExpressionMatrix,
    config: &InferenceConfig,
    store: &CheckpointStore,
    checkpoint_every: usize,
    resume: bool,
    rec: &Recorder,
) -> Result<InferenceResult, DurableError> {
    let space = run_space(matrix, config, 0);
    let digest = run_digest(config, matrix, space.tiles().len());
    store.scan_durably(
        digest,
        space.tiles(),
        checkpoint_every,
        resume,
        rec,
        |chunking| run_pipeline(matrix, config, rec, Some(chunking)),
    )
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
        // Bit-level equality of the pooled null, not just PartialEq.
        assert_eq!(back.scan.pooled.to_bytes(), cp.scan.pooled.to_bytes());
        // Atomic write leaves no temp file behind.
        assert!(!store.file.tmp_path().exists());
    }

    #[test]
    fn missing_file_is_a_typed_error() {
        let store = CheckpointStore::new(tmpdir("missing"));
        assert!(matches!(store.load(), Err(DurableError::Missing { .. })));
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
                    DurableError::Corrupt { .. } | DurableError::IntegrityMismatch { .. }
                ),
                "cut at {cut}: {err}"
            );
        }
        // Garbage with the right length but wrong magic.
        fs::write(store.path(), vec![0xAB; full.len()]).expect("rewrite");
        let err = store.load().expect_err("garbage rejected");
        assert!(matches!(err, DurableError::Corrupt { reason, .. } if reason.contains("magic")));
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
            Err(DurableError::IntegrityMismatch { .. })
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
        assert!(matches!(err, DurableError::Corrupt { reason, .. } if reason.contains("version")));
    }

    #[test]
    fn older_checkpoint_versions_are_rejected() {
        let (_, cp) = interrupted_checkpoint();
        let store = CheckpointStore::new(tmpdir("old"));
        for old in [1u32, 2] {
            store.save(&cp).expect("save succeeds");
            let mut bytes = fs::read(store.path()).expect("file readable");
            bytes[8..12].copy_from_slice(&old.to_le_bytes());
            fs::write(store.path(), &bytes).expect("rewrite");
            let err = store.load().expect_err("an old prefix must not resume");
            assert!(
                matches!(&err, DurableError::Corrupt { reason, .. }
                    if reason.contains(&format!("unsupported checkpoint version {old}"))),
                "{err}"
            );
        }
    }

    #[test]
    fn stale_run_digest_is_rejected() {
        let (_, cp) = interrupted_checkpoint();
        let store = CheckpointStore::new(tmpdir("stale"));
        store.save(&cp).expect("save succeeds");
        let err = store
            .scan_durably(cp.digest ^ 1, &[], 1, true, &Recorder::disabled(), |_| {
                Ok::<(), Checkpoint>(())
            })
            .expect_err("foreign digest rejected");
        assert!(
            matches!(
                err,
                DurableError::Stale {
                    kind: FileKind::Checkpoint,
                    ..
                }
            ),
            "{err}"
        );
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
        assert!(text.contains("gnet.ckpt.tmp"), "{text}");
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
            Err(DurableError::IntegrityMismatch { .. })
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
        assert!(matches!(err, DurableError::Interrupted { tiles_done, .. } if tiles_done > 0));
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

    /// Small tiles, so a 12-gene run has 21 of them.
    fn small_tiles() -> InferenceConfig {
        InferenceConfig {
            tile_size: Some(2),
            ..cfg()
        }
    }

    /// The `(done, total)` progress updates a durable run hands its sink,
    /// in delivery order.
    fn progress_of(store: &CheckpointStore, resume: bool) -> Vec<(usize, usize)> {
        let (matrix, _) = coupled_pairs(6, 180, Coupling::Linear(0.85), 33);
        let seen = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
        let sink = std::sync::Arc::clone(&seen);
        let rec = Recorder::enabled_with_progress(move |p| {
            sink.lock().expect("sink lock").push((p.done, p.total));
        });
        infer_network_durable(&matrix, &small_tiles(), store, 3, resume, &rec)
            .expect("the run finishes");
        let updates = seen.lock().expect("sink lock").clone();
        updates
    }

    /// Updates all report the run's tile count, `done` never goes back,
    /// and exactly one update says the run is complete.
    fn assert_run_wide(updates: &[(usize, usize)], tiles: usize) {
        assert!(
            updates.iter().all(|&(_, total)| total == tiles),
            "{updates:?}"
        );
        assert!(updates.windows(2).all(|w| w[0].0 <= w[1].0), "{updates:?}");
        let complete = updates.iter().filter(|&&(done, _)| done == tiles).count();
        assert_eq!(complete, 1, "{updates:?}");
    }

    #[test]
    fn checkpointed_progress_counts_the_whole_run_fresh_and_resumed() {
        let tiles = gnet_parallel::TileSpace::new(12, 2).tiles().len();
        assert_run_wide(
            &progress_of(&CheckpointStore::new(tmpdir("progress")), false),
            tiles,
        );

        // Crash after the second chunk (6 tiles), then resume.
        let (matrix, _) = coupled_pairs(6, 180, Coupling::Linear(0.85), 33);
        let dir = tmpdir("progress-resume");
        let plan = FaultPlan::new(5).with(Fault::CrashAtChunk { boundary: 1 });
        let rec = Recorder::disabled();
        let crashing =
            CheckpointStore::with_faults(&dir, FaultInjector::from_plan_traced(&plan, &rec), &rec);
        infer_network_durable(&matrix, &small_tiles(), &crashing, 3, false, &rec)
            .expect_err("injected crash interrupts");
        let resumed = progress_of(&CheckpointStore::new(&dir), true);
        assert_run_wide(&resumed, tiles);
        assert!(resumed[0].0 > 6, "the resumed prefix counts: {resumed:?}");
    }

    #[test]
    fn each_save_is_a_checkpoint_save_span_outside_stage_mi() {
        let (matrix, _) = coupled_pairs(6, 180, Coupling::Linear(0.85), 33);
        let rec = Recorder::enabled();
        let store = CheckpointStore::new(tmpdir("save-spans"));
        infer_network_durable(&matrix, &small_tiles(), &store, 3, false, &rec)
            .expect("the run finishes");
        let mut ndjson = Vec::new();
        rec.write_ndjson(&mut ndjson).expect("vec sink cannot fail");
        let spans = |name: &str| -> Vec<(u64, u64)> {
            let prefix = format!("{{\"type\":\"span\",\"name\":\"{name}\",\"start_us\":");
            String::from_utf8_lossy(&ndjson)
                .lines()
                .filter_map(|l| l.strip_prefix(&prefix))
                .map(|rest| {
                    let (start, dur) = rest
                        .trim_end_matches('}')
                        .split_once(",\"dur_us\":")
                        .expect("span line has a duration");
                    let start: u64 = start.parse().expect("start is a u64");
                    (start, start + dur.parse::<u64>().expect("dur is a u64"))
                })
                .collect()
        };
        let (saves, mi) = (spans("checkpoint.save"), spans("stage.mi"));
        assert_eq!(
            saves.len(),
            rec.event_count("checkpoint.chunk"),
            "one span per save"
        );
        assert_eq!(saves.len(), 7, "21 tiles in chunks of 3");
        assert_eq!(mi.len(), saves.len(), "one stage.mi span per chunk");
        for &(s0, s1) in &saves {
            for &(m0, m1) in &mi {
                assert!(
                    m1 <= s0 || s1 <= m0,
                    "save [{s0}, {s1}) inside stage.mi [{m0}, {m1})"
                );
            }
        }
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
        assert!(matches!(store.load(), Err(DurableError::Missing { .. })));
        store.clear().expect("clear is idempotent");
    }
}
