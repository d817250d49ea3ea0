//! Heartbeat codec: the payload each worker piggybacks onto the cluster
//! transport inside a `TELEM` frame.
//!
//! Version-2 wire layout, all integers little-endian, std-only (no serde
//! — the codec sits below the crates that have it):
//!
//! ```text
//! version   u8   (= 2)
//! rank      u32
//! round     u32  protocol round watermark
//! done      u8   (0 | 1)
//! pairs     u64  gene pairs completed so far
//! elapsed_us u64 worker wall-clock since rank start
//! queue_depth u64 outbound transport queue depth at send time
//! n_counters u32, then n × (name_len u32, name bytes, value u64)
//! ```
//!
//! The counters are a snapshot of the sending rank's recorder. Its
//! histograms are folded into two derived counters at encode time
//! (`<name>.count`, `<name>.sum_us`) — the live view needs rates and
//! totals, not bucket shapes, and this keeps heartbeats small and the
//! schema closed.
//!
//! Decoding **degrades, never panics**: any truncation, over-limit entry
//! count, oversized name, or unknown version — version 1 included —
//! yields `None`, and the receiver simply treats the frame as a lost
//! heartbeat. Liveness tracking is designed around missed beats, so a
//! corrupt one costs nothing.

use gnet_trace::Recorder;

/// Highest heartbeat wire version this build encodes and decodes.
pub const HEARTBEAT_VERSION: u8 = 2;

/// Decode guard: maximum counter entries accepted.
const MAX_ENTRIES: u32 = 4096;

/// Decode guard: maximum metric-name length in bytes.
const MAX_NAME: u32 = 256;

/// One worker's periodic status report.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Heartbeat {
    /// Sender's rank.
    pub rank: u32,
    /// Protocol round watermark (highest round the rank has entered).
    pub round: u32,
    /// True on the final beat a rank sends before returning.
    pub done: bool,
    /// Gene pairs completed so far.
    pub pairs: u64,
    /// Worker wall-clock since the rank started, µs.
    pub elapsed_us: u64,
    /// Outbound transport queue depth at send time.
    pub queue_depth: u64,
    /// Counter snapshot (sorted by name; includes derived histogram
    /// `.count`/`.sum_us` entries).
    pub counters: Vec<(String, u64)>,
}

fn put_entries(buf: &mut Vec<u8>, entries: &[(String, u64)]) {
    let n = u32::try_from(entries.len().min(MAX_ENTRIES as usize))
        .expect("entry count clamped to MAX_ENTRIES");
    buf.extend_from_slice(&n.to_le_bytes());
    for (name, value) in entries.iter().take(n as usize) {
        let bytes = name.as_bytes();
        let len = bytes.len().min(MAX_NAME as usize);
        let len32 = u32::try_from(len).expect("name length clamped to MAX_NAME");
        buf.extend_from_slice(&len32.to_le_bytes());
        buf.extend_from_slice(&bytes[..len]);
        buf.extend_from_slice(&value.to_le_bytes());
    }
}

fn get_u8(buf: &[u8], at: &mut usize) -> Option<u8> {
    let b = *buf.get(*at)?;
    *at += 1;
    Some(b)
}

fn get_u32(buf: &[u8], at: &mut usize) -> Option<u32> {
    let slice = buf.get(*at..*at + 4)?;
    *at += 4;
    Some(u32::from_le_bytes(
        slice.try_into().expect("4-byte slice fits [u8; 4]"),
    ))
}

fn get_u64(buf: &[u8], at: &mut usize) -> Option<u64> {
    let slice = buf.get(*at..*at + 8)?;
    *at += 8;
    Some(u64::from_le_bytes(
        slice.try_into().expect("8-byte slice fits [u8; 8]"),
    ))
}

fn get_entries(buf: &[u8], at: &mut usize) -> Option<Vec<(String, u64)>> {
    let n = get_u32(buf, at)?;
    if n > MAX_ENTRIES {
        return None;
    }
    let mut entries = Vec::with_capacity(n as usize);
    for _ in 0..n {
        let len = get_u32(buf, at)?;
        if len > MAX_NAME {
            return None;
        }
        let name_bytes = buf.get(*at..*at + len as usize)?;
        *at += len as usize;
        let name = String::from_utf8(name_bytes.to_vec()).ok()?;
        let value = get_u64(buf, at)?;
        entries.push((name, value));
    }
    Some(entries)
}

impl Heartbeat {
    /// Build a beat from a snapshot of `rec`, the sending rank's
    /// recorder, plus the sender's live position. Histograms become
    /// derived `<name>.count` / `<name>.sum_us` counters; metric names
    /// longer than the wire limit are truncated at encode.
    #[must_use]
    pub fn from_recorder(
        rank: u32,
        round: u32,
        done: bool,
        pairs: u64,
        elapsed_us: u64,
        queue_depth: u64,
        rec: &Recorder,
    ) -> Self {
        let mut counters = rec.counters();
        for (name, h) in rec.histograms() {
            counters.push((format!("{name}.count"), h.count()));
            counters.push((format!("{name}.sum_us"), h.sum_us()));
        }
        counters.sort();
        Self {
            rank,
            round,
            done,
            pairs,
            elapsed_us,
            queue_depth,
            counters,
        }
    }

    /// Serialize to the version-2 wire form.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(64 + 32 * self.counters.len());
        buf.push(HEARTBEAT_VERSION);
        buf.extend_from_slice(&self.rank.to_le_bytes());
        buf.extend_from_slice(&self.round.to_le_bytes());
        buf.push(u8::from(self.done));
        buf.extend_from_slice(&self.pairs.to_le_bytes());
        buf.extend_from_slice(&self.elapsed_us.to_le_bytes());
        buf.extend_from_slice(&self.queue_depth.to_le_bytes());
        put_entries(&mut buf, &self.counters);
        buf
    }

    /// Parse a version-2 wire form; `None` on any malformation (see the
    /// module docs — a bad beat is just a missed beat).
    #[must_use]
    pub fn decode(buf: &[u8]) -> Option<Self> {
        let mut at = 0usize;
        if get_u8(buf, &mut at)? != HEARTBEAT_VERSION {
            return None;
        }
        let rank = get_u32(buf, &mut at)?;
        let round = get_u32(buf, &mut at)?;
        let done = match get_u8(buf, &mut at)? {
            0 => false,
            1 => true,
            _ => return None,
        };
        let pairs = get_u64(buf, &mut at)?;
        let elapsed_us = get_u64(buf, &mut at)?;
        let queue_depth = get_u64(buf, &mut at)?;
        let counters = get_entries(buf, &mut at)?;
        if at != buf.len() {
            // Trailing garbage: not a beat this version understands.
            return None;
        }
        Some(Self {
            rank,
            round,
            done,
            pairs,
            elapsed_us,
            queue_depth,
            counters,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Heartbeat {
        let rec = Recorder::counting();
        rec.counter_add("rank.pairs", 123);
        rec.counter_add("tcp.frames_sent", 9);
        rec.observe_us("tile_us", 100);
        rec.observe_us("tile_us", 300);
        Heartbeat::from_recorder(2, 7, false, 123, 5_000_000, 4, &rec)
    }

    #[test]
    fn round_trips_exactly() {
        let hb = sample();
        let decoded = Heartbeat::decode(&hb.encode()).expect("self-encoded beat decodes");
        assert_eq!(decoded, hb);
        // Histograms arrive as derived counters.
        let count = decoded
            .counters
            .iter()
            .find(|(k, _)| k == "tile_us.count")
            .map(|&(_, v)| v);
        let sum = decoded
            .counters
            .iter()
            .find(|(k, _)| k == "tile_us.sum_us")
            .map(|&(_, v)| v);
        assert_eq!(count, Some(2));
        assert_eq!(sum, Some(400));
    }

    #[test]
    fn a_counting_recorder_feeds_the_beat() {
        let rec = Recorder::counting();
        rec.counter_add("rank.pairs", 5);
        rec.observe_us("scheduler.tile_us", 40);
        rec.event("rank.done", &[]);
        assert!(!rec.is_enabled(), "counting records no trace");
        let hb = Heartbeat::from_recorder(1, 0, true, 5, 10, 0, &rec);
        assert_eq!(
            hb.counters,
            [
                ("rank.pairs".to_string(), 5),
                ("scheduler.tile_us.count".to_string(), 1),
                ("scheduler.tile_us.sum_us".to_string(), 40),
            ]
        );
    }

    #[test]
    fn version_1_beats_are_missed_beats() {
        // A version-1 beat: the same fields, plus an (empty) gauge
        // section after the counters.
        let mut v1 = sample().encode();
        v1[0] = 1;
        v1.extend_from_slice(&0u32.to_le_bytes());
        assert_eq!(Heartbeat::decode(&v1), None);
    }

    #[test]
    fn done_flag_round_trips() {
        let mut hb = sample();
        hb.done = true;
        let decoded = Heartbeat::decode(&hb.encode()).expect("decodes");
        assert!(decoded.done);
    }

    #[test]
    fn truncation_and_garbage_degrade_to_none() {
        let wire = sample().encode();
        for cut in 0..wire.len() {
            assert_eq!(Heartbeat::decode(&wire[..cut]), None, "cut at {cut}");
        }
        let mut trailing = wire.clone();
        trailing.push(0);
        assert_eq!(Heartbeat::decode(&trailing), None);
        let mut bad_version = wire.clone();
        bad_version[0] = 99;
        assert_eq!(Heartbeat::decode(&bad_version), None);
        let mut bad_done = wire;
        bad_done[9] = 7;
        assert_eq!(Heartbeat::decode(&bad_done), None);
    }

    #[test]
    fn hostile_entry_counts_are_rejected() {
        // A beat claiming u32::MAX counters must fail fast, not allocate.
        let mut buf = Vec::new();
        buf.push(HEARTBEAT_VERSION);
        buf.extend_from_slice(&0u32.to_le_bytes());
        buf.extend_from_slice(&0u32.to_le_bytes());
        buf.push(0);
        buf.extend_from_slice(&[0u8; 24]); // pairs + elapsed + queue
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(Heartbeat::decode(&buf), None);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// decode(encode(x)) == x for arbitrary beats, and decode
            /// never panics on arbitrary bytes.
            #[test]
            fn prop_round_trip_and_no_panic(
                rank in any::<u32>(),
                round in any::<u32>(),
                done in any::<bool>(),
                pairs in any::<u64>(),
                elapsed in any::<u64>(),
                queue in any::<u64>(),
                name_seeds in proptest::collection::vec(any::<u64>(), 0..6),
                noise in proptest::collection::vec(any::<u8>(), 0..64),
            ) {
                let counters: Vec<(String, u64)> = name_seeds
                    .iter()
                    .map(|&s| (format!("metric.{s:x}"), s.rotate_left(7)))
                    .collect();
                let hb = Heartbeat {
                    rank, round, done, pairs,
                    elapsed_us: elapsed,
                    queue_depth: queue,
                    counters,
                };
                prop_assert_eq!(Heartbeat::decode(&hb.encode()).as_ref(), Some(&hb));
                // Arbitrary bytes: decode returns, never panics.
                let _ = Heartbeat::decode(&noise);
            }
        }
    }
}
