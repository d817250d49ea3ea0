//! Exhaustive corruption fuzz over the GNETCKP durable-checkpoint
//! format: every truncation length, oversized declared payload lengths,
//! and single-bit flips across the whole file must surface as a typed
//! [`DurableError`] — never a panic, never a silently wrong load. The
//! GNETUPD update progress file is the same format under another magic:
//! its golden bytes and a forged prefix are checked here too.
//!
//! The in-module tests in `durable.rs` spot-check a handful of
//! corruptions; this suite sweeps them exhaustively, including the
//! decoder paths behind the integrity digest (reached by re-computing a
//! consistent digest over a mutated payload, modeling an attacker or a
//! buggy writer rather than media corruption).

use gnet_core::checkpoint::{infer_network_resumable, Checkpoint};
use gnet_core::durable::{CheckpointStore, DurableError};
use gnet_core::{
    build_state, infer_network_durable, update_digest, update_durable, InferenceConfig, NullScan,
    StateStore, UpdateMode,
};
use gnet_expr::synth::{coupled_pairs, Coupling};
use gnet_fault::{FaultInjector, FaultPlan};
use gnet_trace::Recorder;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// File-format constants, restated from `durable.rs`'s schema doc. The
/// round-trip asserts in [`checkpoint_file`] keep them honest: if the
/// format drifts, this suite fails loudly instead of fuzzing stale
/// offsets.
const HEADER_LEN: usize = 28;
const PAYLOAD_LEN_OFFSET: usize = 12;
const DIGEST_OFFSET: usize = 20;

/// FNV-1a 64, mirroring the (private) digest in `durable.rs` so the
/// decoder-fuzz tests can forge internally-consistent files.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn tmpdir(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    // ordering: test-local unique-id counter; no synchronization needed.
    let n = N.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("gnet-fuzz-{tag}-{}-{n}", std::process::id()));
    fs::create_dir_all(&dir).expect("temp dir must be creatable");
    dir
}

fn real_checkpoint() -> Checkpoint {
    let (matrix, _) = coupled_pairs(6, 180, Coupling::Linear(0.85), 77);
    let cfg = InferenceConfig {
        permutations: 10,
        tile_size: Some(6),
        ..InferenceConfig::default()
    };
    infer_network_resumable(&matrix, &cfg, None, 1, |_| false)
        .expect_err("stopping at the first chunk boundary yields a checkpoint")
}

/// A store plus the exact bytes `save` produced, with the stated header
/// layout verified so every offset below is known-good.
fn checkpoint_file(tag: &str) -> (CheckpointStore, Vec<u8>) {
    let store = CheckpointStore::new(tmpdir(tag));
    store.save(&real_checkpoint()).expect("save succeeds");
    let bytes = fs::read(store.path()).expect("file readable");
    assert!(bytes.len() > HEADER_LEN, "payload must be non-empty");
    assert_eq!(&bytes[..8], b"GNETCKP\x01");
    let declared = u64::from_le_bytes(
        bytes[PAYLOAD_LEN_OFFSET..PAYLOAD_LEN_OFFSET + 8]
            .try_into()
            .expect("8 bytes"),
    );
    assert_eq!(declared, (bytes.len() - HEADER_LEN) as u64);
    let digest = u64::from_le_bytes(
        bytes[DIGEST_OFFSET..DIGEST_OFFSET + 8]
            .try_into()
            .expect("8 bytes"),
    );
    assert_eq!(digest, fnv1a64(&bytes[HEADER_LEN..]));
    (store, bytes)
}

fn expect_typed_rejection(store: &CheckpointStore, what: &str) -> DurableError {
    let err = store
        .load()
        .err()
        .unwrap_or_else(|| panic!("{what}: corrupted file must not load"));
    assert!(
        matches!(
            err,
            DurableError::Corrupt { .. } | DurableError::IntegrityMismatch { .. }
        ),
        "{what}: expected Corrupt or IntegrityMismatch, got {err}"
    );
    err
}

#[test]
fn every_truncation_length_is_rejected_with_a_typed_error() {
    let (store, full) = checkpoint_file("truncate-all");
    for cut in 0..full.len() {
        fs::write(store.path(), &full[..cut]).expect("rewrite");
        let err = expect_typed_rejection(&store, &format!("truncated to {cut} bytes"));
        // Below the header the structural check fires; past it the
        // declared length no longer matches the bytes on disk.
        if cut < HEADER_LEN {
            assert!(
                matches!(err, DurableError::Corrupt { .. }),
                "cut {cut}: {err}"
            );
        }
    }
    // The untouched file still loads: the sweep corrupted, not the save.
    fs::write(store.path(), &full).expect("rewrite");
    store.load().expect("pristine file loads");
}

#[test]
fn oversized_declared_payload_lengths_are_rejected() {
    let (store, full) = checkpoint_file("oversize-len");
    let actual = (full.len() - HEADER_LEN) as u64;
    // One past the truth, absurdly large (would OOM if trusted as an
    // allocation size), the u64 extremes, and zero.
    for declared in [actual + 1, actual * 1000, 1 << 60, u64::MAX, 0] {
        let mut bytes = full.clone();
        bytes[PAYLOAD_LEN_OFFSET..PAYLOAD_LEN_OFFSET + 8].copy_from_slice(&declared.to_le_bytes());
        fs::write(store.path(), &bytes).expect("rewrite");
        let err = expect_typed_rejection(&store, &format!("declared payload length {declared}"));
        assert!(
            matches!(err, DurableError::Corrupt { ref reason, .. } if reason.contains("length")),
            "declared {declared}: {err}"
        );
    }
}

#[test]
fn every_single_bit_flip_in_the_header_is_rejected() {
    let (store, full) = checkpoint_file("flip-header");
    for byte in 0..HEADER_LEN {
        for bit in 0..8 {
            let mut bytes = full.clone();
            bytes[byte] ^= 1 << bit;
            fs::write(store.path(), &bytes).expect("rewrite");
            let err = expect_typed_rejection(&store, &format!("header byte {byte} bit {bit}"));
            // A digest-field flip is indistinguishable from payload
            // damage and must fail the integrity check; every other
            // header field is validated structurally first.
            if (DIGEST_OFFSET..DIGEST_OFFSET + 8).contains(&byte) {
                assert!(
                    matches!(err, DurableError::IntegrityMismatch { .. }),
                    "byte {byte} bit {bit}: {err}"
                );
            } else {
                assert!(
                    matches!(err, DurableError::Corrupt { .. }),
                    "byte {byte} bit {bit}: {err}"
                );
            }
        }
    }
}

#[test]
fn every_single_bit_flip_in_the_payload_fails_the_integrity_check() {
    let (store, full) = checkpoint_file("flip-payload");
    for byte in HEADER_LEN..full.len() {
        // One flip per byte, rotating through all eight bit positions
        // across the sweep; FNV-1a is sensitive to any single-bit change.
        let bit = (byte - HEADER_LEN) % 8;
        let mut bytes = full.clone();
        bytes[byte] ^= 1 << bit;
        fs::write(store.path(), &bytes).expect("rewrite");
        assert!(
            matches!(store.load(), Err(DurableError::IntegrityMismatch { .. })),
            "payload byte {byte} bit {bit} must fail the digest"
        );
    }
}

/// Forge a file whose header is internally consistent (correct declared
/// length and digest) around `payload`, reaching the payload decoder
/// behind the integrity check. Magic and version are copied from the
/// genuine file `full`.
fn forge(path: &Path, full: &[u8], payload: &[u8]) {
    let mut bytes = Vec::with_capacity(HEADER_LEN + payload.len());
    bytes.extend_from_slice(&full[..12]);
    bytes.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    bytes.extend_from_slice(&fnv1a64(payload).to_le_bytes());
    bytes.extend_from_slice(payload);
    fs::write(path, &bytes).expect("rewrite");
}

#[test]
fn truncated_payloads_with_consistent_digests_are_rejected_by_the_decoder() {
    let (store, full) = checkpoint_file("decoder-truncate");
    let payload = &full[HEADER_LEN..];
    for cut in 0..payload.len() {
        forge(&store.path(), &full, &payload[..cut]);
        let err = store
            .load()
            .err()
            .unwrap_or_else(|| panic!("payload truncated to {cut} bytes must not decode"));
        assert!(
            matches!(err, DurableError::Corrupt { .. }),
            "cut {cut}: {err}"
        );
    }
    // Sanity: the full payload re-forged through the same path loads.
    forge(&store.path(), &full, payload);
    store.load().expect("forged-but-intact file loads");
}

#[test]
fn oversized_candidate_counts_are_rejected_before_allocating() {
    let (store, full) = checkpoint_file("decoder-candidates");
    let payload = &full[HEADER_LEN..];
    // The candidate count is the u32 after the run digest, the tile
    // prefix, the 48-byte pooled null and the joint count.
    let count_offset = 8 + 8 + 48 + 8;
    let just_past = u32::try_from(payload.len()).expect("payload is small") + 1;
    for declared in [u32::MAX, 1 << 28, just_past] {
        let mut forged = payload.to_vec();
        forged[count_offset..count_offset + 4].copy_from_slice(&declared.to_le_bytes());
        forge(&store.path(), &full, &forged);
        let err = store
            .load()
            .err()
            .unwrap_or_else(|| panic!("candidate count {declared} must not decode"));
        assert!(
            matches!(err, DurableError::Corrupt { ref reason, .. }
                if reason.contains("candidate")),
            "declared count {declared}: {err}"
        );
    }
}

/// One fixed progress value, saved as a checkpoint and as update
/// progress in the golden-bytes test.
fn fixed_progress() -> Checkpoint {
    let mut pooled = gnet_permute::PooledNull::new();
    pooled.extend(&[0.5, 0.25, 0.125]);
    Checkpoint {
        digest: 0x0123_4567_89AB_CDEF,
        tiles_done: 5,
        scan: NullScan {
            pooled,
            candidates: vec![(0, 3, 0.75), (1, 2, 0.5)],
            joints: 42,
        },
    }
}

/// The bytes after the magic of [`fixed_progress`]'s file, identical for
/// GNETCKP and GNETUPD.
const GOLDEN_BODY: &str = concat!(
    "03000000",                                                                                         // version 3
    "6c00000000000000",                                                                                 // payload length 108
    "fad5087b5ffd1e33",                                                                                 // FNV-1a digest
    "efcdab8967452301",                                                                                 // progress digest
    "0500000000000000",                                                                                 // tiles_done 5
    "030000000000000000000000e0000000000000000000000000000000000000000054000000000000000000000000e03f", // pooled null
    "2a00000000000000",                                                                                 // joints 42
    "02000000",                                                                                         // two candidates
    "0000000003000000000000000000e83f",                                                                 // (0, 3, 0.75)
    "0100000002000000000000000000e03f",                                                                 // (1, 2, 0.5)
);

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

#[test]
fn checkpoint_and_update_progress_files_keep_their_golden_bytes() {
    let dir = tmpdir("golden");
    let checkpoint = CheckpointStore::new(&dir);
    checkpoint
        .save(&fixed_progress())
        .expect("checkpoint saves");
    let progress = StateStore::new(&dir).progress();
    progress.save(&fixed_progress()).expect("progress saves");
    for (path, magic) in [
        (checkpoint.path(), b"GNETCKP\x01"),
        (progress.path(), b"GNETUPD\x01"),
    ] {
        let bytes = fs::read(&path).expect("file readable");
        assert_eq!(
            hex(&bytes),
            format!("{}{GOLDEN_BODY}", hex(magic)),
            "{path:?}"
        );
    }
    assert_eq!(progress.load().expect("progress loads"), fixed_progress());
}

/// Re-sign `path`'s file with its `tiles_done` set to a million, far past
/// any tile list.
fn forge_prefix(path: &Path) {
    let full = fs::read(path).expect("file readable");
    let mut payload = full[HEADER_LEN..].to_vec();
    payload[8..16].copy_from_slice(&1_000_000u64.to_le_bytes());
    forge(path, &full, &payload);
}

fn assert_names_its_file(err: &DurableError, path: &Path) {
    assert!(matches!(err, DurableError::Corrupt { .. }), "{err}");
    assert!(
        err.to_string().contains(&path.display().to_string()),
        "{err}"
    );
}

#[test]
fn a_forged_prefix_past_the_tile_list_is_a_typed_error_on_both_paths() {
    // gnet infer: 12 genes at tile 2 are 21 tiles.
    let (matrix, _) = coupled_pairs(6, 180, Coupling::Linear(0.85), 77);
    let cfg = InferenceConfig {
        permutations: 6,
        threads: Some(1),
        tile_size: Some(2),
        ..InferenceConfig::default()
    };
    let dir = tmpdir("forged-prefix-infer");
    let plan = FaultPlan::parse("seed=1;chunk-crash(boundary=0)").expect("plan parses");
    let killed =
        CheckpointStore::with_faults(&dir, FaultInjector::from_plan(&plan), &Recorder::disabled());
    infer_network_durable(&matrix, &cfg, &killed, 3, false, &Recorder::disabled())
        .expect_err("the injected kill interrupts");
    forge_prefix(&killed.path());
    let store = CheckpointStore::new(&dir);
    let err = infer_network_durable(&matrix, &cfg, &store, 3, true, &Recorder::disabled())
        .expect_err("a prefix past the tile list must not resume");
    assert_names_its_file(&err, &store.path());

    // gnet update: the same forgery of a GNETUPD file.
    let (full, _) = coupled_pairs(3, 60, Coupling::Linear(0.9), 5);
    let state = build_state(&full.select_genes(&[0, 1, 2, 3]), &cfg);
    let append = full.select_genes(&[4, 5]);
    let store = StateStore::new(tmpdir("forged-prefix-update"));
    store.save(&state).expect("state saves");
    let progress = store.progress();
    progress
        .save(&Checkpoint {
            digest: update_digest(&state, &append, UpdateMode::Genes),
            tiles_done: 0,
            scan: state.scan.clone(),
        })
        .expect("progress saves");
    forge_prefix(&progress.path());
    let err = update_durable(&store, &append, None, 1, true, &Recorder::disabled())
        .expect_err("a prefix past the tile list must not resume");
    assert_names_its_file(&err, &progress.path());
}
