//! Exhaustive corruption fuzz over the GNETCKP durable-checkpoint
//! format: every truncation length, oversized declared payload lengths,
//! and single-bit flips across the whole file must surface as a typed
//! [`CheckpointError`] — never a panic, never a silently wrong load.
//!
//! The in-module tests in `durable.rs` spot-check a handful of
//! corruptions; this suite sweeps them exhaustively, including the
//! decoder paths behind the integrity digest (reached by re-computing a
//! consistent digest over a mutated payload, modeling an attacker or a
//! buggy writer rather than media corruption).

use gnet_core::checkpoint::{infer_network_resumable, Checkpoint};
use gnet_core::durable::{CheckpointError, CheckpointStore};
use gnet_core::InferenceConfig;
use gnet_expr::synth::{coupled_pairs, Coupling};
use std::fs;
use std::path::PathBuf;
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

fn expect_typed_rejection(store: &CheckpointStore, what: &str) -> CheckpointError {
    let err = store
        .load()
        .err()
        .unwrap_or_else(|| panic!("{what}: corrupted file must not load"));
    assert!(
        matches!(
            err,
            CheckpointError::Corrupt { .. } | CheckpointError::IntegrityMismatch { .. }
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
                matches!(err, CheckpointError::Corrupt { .. }),
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
            matches!(err, CheckpointError::Corrupt { ref reason, .. } if reason.contains("length")),
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
                    matches!(err, CheckpointError::IntegrityMismatch { .. }),
                    "byte {byte} bit {bit}: {err}"
                );
            } else {
                assert!(
                    matches!(err, CheckpointError::Corrupt { .. }),
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
            matches!(store.load(), Err(CheckpointError::IntegrityMismatch { .. })),
            "payload byte {byte} bit {bit} must fail the digest"
        );
    }
}

/// Forge a file whose header is internally consistent (correct declared
/// length and digest) around `payload`, reaching the payload decoder
/// behind the integrity check. Magic and version are copied from the
/// genuine file `full`.
fn forge(store: &CheckpointStore, full: &[u8], payload: &[u8]) {
    let mut bytes = Vec::with_capacity(HEADER_LEN + payload.len());
    bytes.extend_from_slice(&full[..12]);
    bytes.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    bytes.extend_from_slice(&fnv1a64(payload).to_le_bytes());
    bytes.extend_from_slice(payload);
    fs::write(store.path(), &bytes).expect("rewrite");
}

#[test]
fn truncated_payloads_with_consistent_digests_are_rejected_by_the_decoder() {
    let (store, full) = checkpoint_file("decoder-truncate");
    let payload = &full[HEADER_LEN..];
    for cut in 0..payload.len() {
        forge(&store, &full, &payload[..cut]);
        let err = store
            .load()
            .err()
            .unwrap_or_else(|| panic!("payload truncated to {cut} bytes must not decode"));
        assert!(
            matches!(err, CheckpointError::Corrupt { .. }),
            "cut {cut}: {err}"
        );
    }
    // Sanity: the full payload re-forged through the same path loads.
    forge(&store, &full, payload);
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
        forge(&store, &full, &forged);
        let err = store
            .load()
            .err()
            .unwrap_or_else(|| panic!("candidate count {declared} must not decode"));
        assert!(
            matches!(err, CheckpointError::Corrupt { ref reason, .. }
                if reason.contains("candidate")),
            "declared count {declared}: {err}"
        );
    }
}
