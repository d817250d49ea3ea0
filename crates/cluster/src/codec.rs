//! Wire format for blocks of prepared genes.
//!
//! The distributed algorithm ships each rank's block of prepared genes
//! around the ring. A gene is its rank codes into the B-spline weight
//! table the block's genes share, so a frame carries that table once and
//! then two bytes per gene-sample (four above 65,536 table entries, i.e.
//! above 32,768 samples for a rank table). The format is a little-endian
//! layout:
//!
//! ```text
//! u32 gene_count | u32 order | u32 bins | u32 samples | u32 entries | u32 code_width
//! table:    entries × u16 first_bin | entries·order × f32 weights
//! per gene: u32 global_index | f64 h_marginal | samples × code (code_width bytes)
//! ```
//!
//! `code_width` is [`SampleCodes::width`] of `entries`. At m = 3,137 and
//! k = 3 the table is 6,273 entries (88 KB on the wire; the decoder lays
//! out each entry's dense row itself) and a 64-gene block 0.49 MB.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use gnet_bspline::{SampleCodes, SparseWeights, WeightTable, MAX_ORDER};
use gnet_mi::PreparedGene;
use std::fmt;
use std::sync::Arc;

/// Bytes of a frame's header: six `u32` fields.
pub(crate) const HEADER_BYTES: usize = 24;

/// A block of prepared genes with their global indices.
#[derive(Clone, Debug)]
pub struct GeneBlock {
    /// Global gene indices, parallel to `genes`.
    pub indices: Vec<u32>,
    /// The prepared genes.
    pub genes: Vec<PreparedGene>,
}

impl GeneBlock {
    /// Number of genes in the block.
    pub fn len(&self) -> usize {
        self.genes.len()
    }

    /// Is the block empty?
    pub fn is_empty(&self) -> bool {
        self.genes.is_empty()
    }
}

/// Serialize a block.
///
/// # Panics
/// Panics on an empty block, a mismatched index count (blocks of zero
/// genes never travel in the algorithm), or genes that do not share one
/// weight table (by pointer or by value) and one sample count.
pub fn encode_block(block: &GeneBlock) -> Bytes {
    assert!(!block.is_empty(), "empty blocks never travel");
    assert_eq!(block.indices.len(), block.genes.len(), "one index per gene");
    let first = &block.genes[0].sparse;
    let (table, samples) = (first.table(), first.samples());
    let (entries, order) = (table.entries(), table.order());
    let width = SampleCodes::width(entries);

    let table_bytes = table_bytes(entries, order).expect("an in-memory table's size fits usize");
    let body = table_bytes + block.len() * (4 + 8 + samples * width);
    let mut buf = BytesMut::with_capacity(HEADER_BYTES + body);
    for field in [block.len(), order, table.bins(), samples, entries, width] {
        buf.put_u32_le(u32::try_from(field).expect("frame header fields fit u32"));
    }
    for &fb in table.first_bins() {
        buf.put_u16_le(fb);
    }
    for &w in table.weights() {
        buf.put_f32_le(w);
    }
    for (idx, gene) in block.indices.iter().zip(&block.genes) {
        let sw = &gene.sparse;
        assert!(
            Arc::ptr_eq(sw.table(), table) || sw.table() == table,
            "heterogeneous block: genes of one weight table travel together"
        );
        assert_eq!(sw.samples(), samples, "heterogeneous block");
        buf.put_u32_le(*idx);
        buf.put_f64_le(gene.h_marginal);
        for s in 0..samples {
            let code = sw.codes().get(s);
            match width {
                // cast-ok: every code is below `entries` ≤ 65,536
                2 => buf.put_u16_le(code as u16),
                // cast-ok: `entries` fits u32 (checked in the header)
                _ => buf.put_u32_le(code as u32),
            }
        }
    }
    buf.freeze()
}

/// Bytes of a frame's table section: a `u16` first bin and `order` `f32`
/// weights per entry.
fn table_bytes(entries: usize, order: usize) -> Option<usize> {
    entries.checked_mul(2 + 4 * order)
}

/// Why a byte payload is not a valid gene block.
///
/// Every variant is a *data* condition, never a panic: a fault-injected
/// or truncated message is an expected runtime event in the failure-aware
/// driver, which treats an undecodable block like a dropped one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Payload shorter than the header.
    TruncatedHeader {
        /// Bytes actually present.
        len: usize,
    },
    /// Header field is structurally impossible.
    BadHeader {
        /// Which constraint failed.
        reason: String,
    },
    /// Declared table and gene counts do not match the bytes present.
    LengthMismatch {
        /// Bytes the header implies the body needs.
        expected: usize,
        /// Bytes actually present after the header.
        actual: usize,
    },
    /// A table entry's window overruns the spline grid or holds a
    /// non-finite weight.
    BadTable {
        /// Which entry constraint failed.
        reason: String,
    },
    /// A gene's sample names no table entry.
    CodeOutOfRange {
        /// 0-based gene position within the block.
        gene: usize,
        /// The offending code.
        code: u32,
    },
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::TruncatedHeader { len } => {
                write!(
                    f,
                    "gene block truncated: {len} bytes, header needs {HEADER_BYTES}"
                )
            }
            Self::BadHeader { reason } => write!(f, "gene block header invalid: {reason}"),
            Self::LengthMismatch { expected, actual } => write!(
                f,
                "gene block length mismatch: header implies {expected} body bytes, found {actual}"
            ),
            Self::BadTable { reason } => write!(f, "gene block weight table invalid: {reason}"),
            Self::CodeOutOfRange { gene, code } => write!(
                f,
                "gene {gene} carries code {code} past the block's weight table"
            ),
        }
    }
}

impl std::error::Error for CodecError {}

/// Deserialize a block, validating structure before every read.
///
/// The in-process fabric is lossless, but the failure-aware driver must
/// survive whatever bytes arrive (chaos plans corrupt and truncate
/// payloads deliberately), so *every* malformed input — truncated,
/// oversized, garbage header, a corrupt table entry, a code past the
/// table — comes back as a typed [`CodecError`] instead of a `bytes::Buf`
/// underflow panic, and nothing is allocated before the header's sizes
/// are checked against the payload.
///
/// # Errors
/// See [`CodecError`].
pub fn decode_block(mut bytes: Bytes) -> Result<GeneBlock, CodecError> {
    if bytes.remaining() < HEADER_BYTES {
        return Err(CodecError::TruncatedHeader {
            len: bytes.remaining(),
        });
    }
    let mut field = || bytes.get_u32_le() as usize; // cast-ok: u32 to usize widens losslessly
    let [count, order, bins, samples, entries, width] = [(); 6].map(|()| field());
    let bad = |reason: String| Err(CodecError::BadHeader { reason });
    if count == 0 {
        return bad("zero genes (empty blocks never travel)".into());
    }
    if !(1..=MAX_ORDER).contains(&order) {
        return bad(format!("spline order {order} outside 1..={MAX_ORDER}"));
    }
    if !(order..=64).contains(&bins) {
        return bad(format!("{bins} bins at spline order {order}"));
    }
    if samples == 0 || entries == 0 {
        return bad(format!("{samples} samples, {entries} table entries"));
    }
    if width != SampleCodes::width(entries) {
        return bad(format!("{width}-byte codes for {entries} table entries"));
    }
    // One exact size check makes every later read infallible and bounds
    // the allocations below by the actual payload size (a garbage header
    // cannot demand more than the bytes it arrived with).
    let per_gene = samples
        .checked_mul(width)
        .and_then(|codes| codes.checked_add(4 + 8));
    let table_bytes = table_bytes(entries, order);
    let expected = per_gene
        .and_then(|pg| pg.checked_mul(count))
        .and_then(|genes| genes.checked_add(table_bytes?));
    match expected {
        Some(expected) if expected == bytes.remaining() => {}
        _ => {
            return Err(CodecError::LengthMismatch {
                expected: expected.unwrap_or(usize::MAX),
                actual: bytes.remaining(),
            })
        }
    }
    let first_bins = (0..entries).map(|_| bytes.get_u16_le()).collect();
    let weights = (0..entries * order).map(|_| bytes.get_f32_le()).collect();
    let table = WeightTable::try_from_parts(order, bins, first_bins, weights)
        .map_err(|reason| CodecError::BadTable { reason })?;
    let table = Arc::new(table);
    let mut indices = Vec::with_capacity(count);
    let mut genes = Vec::with_capacity(count);
    for gene in 0..count {
        indices.push(bytes.get_u32_le());
        let h_marginal = bytes.get_f64_le();
        // The largest code read: `SparseWeights::new` refuses a gene
        // exactly when it names no entry.
        let mut top = 0u32;
        let codes = match width {
            2 => SampleCodes::Narrow(
                (0..samples)
                    .map(|_| bytes.get_u16_le())
                    .inspect(|&c| top = top.max(c.into()))
                    .collect(),
            ),
            _ => SampleCodes::Wide(
                (0..samples)
                    .map(|_| bytes.get_u32_le())
                    .inspect(|&c| top = top.max(c))
                    .collect(),
            ),
        };
        let sparse = SparseWeights::new(Arc::clone(&table), codes)
            .map_err(|_| CodecError::CodeOutOfRange { gene, code: top })?;
        genes.push(PreparedGene { sparse, h_marginal });
    }
    Ok(GeneBlock { indices, genes })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnet_bspline::BsplineBasis;
    use gnet_expr::synth;
    use gnet_mi::prepare_gene;

    fn sample_block(genes: usize, samples: usize) -> GeneBlock {
        let basis = BsplineBasis::tinge_default();
        let m = synth::independent_gaussian(genes, samples, 7);
        GeneBlock {
            indices: (100..100 + genes as u32).collect(),
            genes: (0..genes)
                .map(|g| prepare_gene(m.gene(g), &basis))
                .collect(),
        }
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let block = sample_block(5, 37);
        let decoded = decode_block(encode_block(&block)).expect("well-formed block decodes");
        assert_eq!(decoded.indices, block.indices);
        assert_eq!(decoded.len(), 5);
        for (a, b) in decoded.genes.iter().zip(&block.genes) {
            assert_eq!(a.sparse, b.sparse);
            assert_eq!(a.h_marginal, b.h_marginal);
        }
    }

    #[test]
    fn encoded_size_is_as_documented() {
        let block = sample_block(3, 20);
        let bytes = encode_block(&block);
        // One 39-entry table (2m − 1), then two bytes per gene-sample.
        let (table, per_gene) = (39 * (2 + 3 * 4), 4 + 8 + 20 * 2);
        assert_eq!(bytes.len(), HEADER_BYTES + table + 3 * per_gene);
    }

    #[test]
    fn a_run_blocks_genes_share_one_decoded_table() {
        let basis = BsplineBasis::tinge_default();
        let m = synth::independent_gaussian(4, 50, 3);
        let genes = gnet_core::prepare_genes(&m, 0..4, &basis, 2);
        let block = GeneBlock {
            indices: (0..4).collect(),
            genes,
        };
        let decoded = decode_block(encode_block(&block)).expect("well-formed block decodes");
        let table = decoded.genes[0].sparse.table();
        assert!(decoded
            .genes
            .iter()
            .all(|g| Arc::ptr_eq(g.sparse.table(), table)));
        for (a, b) in decoded.genes.iter().zip(&block.genes) {
            assert_eq!(a.sparse, b.sparse);
        }
    }

    #[test]
    #[should_panic(expected = "heterogeneous block")]
    fn genes_of_two_tables_do_not_travel_together() {
        let basis = BsplineBasis::tinge_default();
        let values: Vec<f32> = (0..20).map(|s| s as f32 / 19.0).collect();
        let own = PreparedGene::from_normalized(&values, &basis);
        let mut block = sample_block(2, 20);
        block.genes[1] = own;
        let _ = encode_block(&block);
    }

    #[test]
    #[should_panic(expected = "empty blocks")]
    fn empty_block_rejected() {
        let block = GeneBlock {
            indices: vec![],
            genes: vec![],
        };
        let _ = encode_block(&block);
    }

    #[test]
    fn trailing_garbage_is_a_typed_error() {
        let block = sample_block(1, 8);
        let mut raw = bytes::BytesMut::from(&encode_block(&block)[..]);
        raw.extend_from_slice(&[0u8; 3]);
        assert!(matches!(
            decode_block(raw.freeze()),
            Err(CodecError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn every_truncation_is_a_typed_error() {
        let full = encode_block(&sample_block(3, 20));
        for cut in 0..full.len() {
            let err = decode_block(full.slice(0..cut)).expect_err("truncation must be rejected");
            match cut {
                0..HEADER_BYTES => assert!(
                    matches!(err, CodecError::TruncatedHeader { .. }),
                    "cut {cut}"
                ),
                _ => assert!(
                    matches!(err, CodecError::LengthMismatch { .. }),
                    "cut {cut}"
                ),
            }
        }
    }

    #[test]
    fn oversized_declared_count_is_rejected_without_allocating() {
        let full = encode_block(&sample_block(2, 10));
        let mut raw = bytes::BytesMut::from(&full[..]);
        // Claim u32::MAX genes; the size product overflows/mismatches and
        // must be rejected before any allocation sized from the header.
        raw[0..4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            decode_block(raw.freeze()),
            Err(CodecError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn garbage_headers_are_rejected() {
        let full = encode_block(&sample_block(1, 6));
        for (offset, value, what) in [
            (0u32, 0u32, "zero genes"), // count = 0
            (4, 0, "order zero"),       // order = 0
            (4, 200, "order huge"),     // order > MAX_ORDER
            (8, 1, "bins below order"), // bins < order (order is 3)
            (12, 0, "zero samples"),    // samples = 0
            (8, 65, "bins huge"),       // bins > 64
            (16, 0, "no table"),        // entries = 0
            (20, 4, "wide codes"),      // 4-byte codes for 11 entries
        ] {
            let mut raw = bytes::BytesMut::from(&full[..]);
            let at = offset as usize;
            raw[at..at + 4].copy_from_slice(&value.to_le_bytes());
            let err = decode_block(raw.freeze()).expect_err(what);
            assert!(
                matches!(
                    err,
                    CodecError::BadHeader { .. } | CodecError::LengthMismatch { .. }
                ),
                "{what}: {err}"
            );
        }
    }

    #[test]
    fn a_forged_table_entry_is_rejected() {
        let full = encode_block(&sample_block(1, 8));
        // The table's first first-bin field sits right after the header;
        // its weights follow the 15 first bins (2·8 − 1 entries).
        let weights = HEADER_BYTES + 15 * 2;
        for (at, value, what) in [
            (
                HEADER_BYTES,
                8u16.to_le_bytes().to_vec(),
                "first bin 8 + k > 10",
            ),
            (weights, f32::NAN.to_le_bytes().to_vec(), "NaN weight"),
            (
                weights + 4,
                f32::INFINITY.to_le_bytes().to_vec(),
                "infinite weight",
            ),
        ] {
            let mut raw = bytes::BytesMut::from(&full[..]);
            raw[at..at + value.len()].copy_from_slice(&value);
            let err = decode_block(raw.freeze()).expect_err(what);
            assert!(matches!(err, CodecError::BadTable { .. }), "{what}: {err}");
        }
    }

    #[test]
    fn a_code_past_the_table_is_rejected() {
        let full = encode_block(&sample_block(2, 8));
        // Gene 1's third code: after the header, the 15-entry table, gene
        // 0 (index, H, 8 codes) and gene 1's index and H.
        let gene = 4 + 8 + 8 * 2;
        let at = HEADER_BYTES + 15 * (2 + 3 * 4) + gene + 4 + 8 + 2 * 2;
        for code in [15u16, u16::MAX] {
            let mut raw = bytes::BytesMut::from(&full[..]);
            raw[at..at + 2].copy_from_slice(&code.to_le_bytes());
            assert_eq!(
                decode_block(raw.freeze()).expect_err("code past 15 entries"),
                CodecError::CodeOutOfRange {
                    gene: 1,
                    code: u32::from(code)
                }
            );
        }
    }

    #[test]
    fn an_oversized_table_is_rejected_without_allocating() {
        let full = encode_block(&sample_block(2, 10));
        for entries in [u32::MAX, 1 << 20] {
            let mut raw = bytes::BytesMut::from(&full[..]);
            raw[16..20].copy_from_slice(&entries.to_le_bytes());
            // A table this large takes four-byte codes; either way the
            // sizes disagree with the payload before anything is read.
            raw[20..24].copy_from_slice(&4u32.to_le_bytes());
            assert!(matches!(
                decode_block(raw.freeze()),
                Err(CodecError::LengthMismatch { .. })
            ));
        }
    }

    #[test]
    fn fuzzed_mutations_never_panic() {
        // Deterministic fuzz: flip bytes, splice lengths, and bit-flip
        // across the whole encoding. Decode must return Ok or a typed
        // error on every mutant — any panic fails the test.
        let full = encode_block(&sample_block(4, 25));
        let mut rng = gnet_fault::SplitMix64::new(0xFEED_FACE);
        for _ in 0..2_000 {
            let mut mutant = full.to_vec();
            match rng.below(4) {
                0 => {
                    // cast-ok: below(len) fits usize.
                    let at = rng.below(mutant.len() as u64) as usize;
                    // cast-ok: below(256) fits u8.
                    mutant[at] = rng.below(256) as u8;
                }
                1 => {
                    // cast-ok: below(len+1) fits usize.
                    let cut = rng.below(mutant.len() as u64 + 1) as usize;
                    mutant.truncate(cut);
                }
                2 => {
                    // cast-ok: below(64) fits usize.
                    let extra = rng.below(64) as usize;
                    // cast-ok: below(256) fits u8.
                    mutant.extend(std::iter::repeat_with(|| rng.below(256) as u8).take(extra));
                }
                _ => {
                    // cast-ok: below(len) fits usize.
                    let at = rng.below(mutant.len() as u64) as usize;
                    // cast-ok: below(8) fits u32 shift amount.
                    mutant[at] ^= 1 << (rng.below(8) as u32);
                }
            }
            let _ = decode_block(Bytes::from(mutant));
        }
    }
}
