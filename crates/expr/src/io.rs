//! Expression-matrix interchange: TSV text and a compact binary snapshot.
//!
//! The TSV dialect matches the common microarray-compendium export: an
//! optional header line (`gene<TAB>sample names…`), then one line per gene
//! (`name<TAB>v1<TAB>v2…`). `NA`, `NaN`, and empty fields denote missing
//! values and are materialized as `f32::NAN` for the matrix's
//! [`MissingPolicy`](crate::matrix::MissingPolicy) to resolve.
//!
//! The binary snapshot (`GNEX` format) exists because the headline-scale
//! matrix (15,575 × 3,137 ≈ 49M floats) takes noticeable time to re-parse
//! from text between experiments.

use crate::matrix::{ExpressionMatrix, MatrixError, MissingPolicy};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use std::fmt;
use std::io::{BufRead, BufReader, Read, Write};

/// Errors from parsing or serializing expression matrices.
#[derive(Debug)]
pub enum IoError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// Text parse failure with line number (1-based) and message.
    Parse {
        /// 1-based line number.
        line: usize,
        /// Human-readable description.
        message: String,
    },
    /// The parsed data violated a matrix invariant.
    Matrix(MatrixError),
    /// Binary snapshot is corrupt or has the wrong magic/version.
    BadSnapshot(&'static str),
}

impl fmt::Display for IoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Io(e) => write!(f, "I/O error: {e}"),
            Self::Parse { line, message } => write!(f, "parse error on line {line}: {message}"),
            Self::Matrix(e) => write!(f, "matrix error: {e}"),
            Self::BadSnapshot(why) => write!(f, "bad snapshot: {why}"),
        }
    }
}

impl std::error::Error for IoError {}

impl From<std::io::Error> for IoError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e)
    }
}

impl From<MatrixError> for IoError {
    fn from(e: MatrixError) -> Self {
        Self::Matrix(e)
    }
}

fn parse_field(field: &str, line: usize) -> Result<f32, IoError> {
    let t = field.trim();
    if t.is_empty() || t.eq_ignore_ascii_case("na") || t.eq_ignore_ascii_case("nan") {
        return Ok(f32::NAN);
    }
    t.parse::<f32>().map_err(|_| IoError::Parse {
        line,
        message: format!("cannot parse expression value {t:?}"),
    })
}

/// Read a TSV expression matrix. `has_header` skips the first line.
pub fn read_tsv<R: Read>(
    reader: R,
    has_header: bool,
    policy: MissingPolicy,
) -> Result<ExpressionMatrix, IoError> {
    let buf = BufReader::new(reader);
    let mut names = Vec::new();
    let mut rows: Vec<f32> = Vec::new();
    let mut samples: Option<usize> = None;
    let mut genes = 0usize;
    let mut first_line = std::collections::HashMap::new();

    for (idx, line) in buf.lines().enumerate() {
        let line = line?;
        let lineno = idx + 1;
        if idx == 0 && has_header {
            continue;
        }
        if line.trim().is_empty() {
            continue;
        }
        let mut fields = line.split('\t');
        let name = fields.next().ok_or_else(|| IoError::Parse {
            line: lineno,
            message: "empty line".into(),
        })?;
        // A repeated name would make two genes indistinguishable in the
        // edge list, and readers of that list would merge them.
        if let Some(first) = first_line.insert(name.to_string(), lineno) {
            return Err(IoError::Parse {
                line: lineno,
                message: format!("gene {name:?} repeats the name on line {first}"),
            });
        }
        let mut count = 0usize;
        for field in fields {
            rows.push(parse_field(field, lineno)?);
            count += 1;
        }
        match samples {
            None => {
                if count == 0 {
                    return Err(IoError::Parse {
                        line: lineno,
                        message: "gene row has no expression values".into(),
                    });
                }
                samples = Some(count);
            }
            Some(expected) if expected != count => {
                return Err(IoError::Parse {
                    line: lineno,
                    message: format!("expected {expected} values, found {count}"),
                });
            }
            _ => {}
        }
        names.push(name.to_string());
        genes += 1;
    }

    let samples = samples.ok_or(IoError::Matrix(MatrixError::Empty))?;
    let mut matrix = ExpressionMatrix::from_flat(genes, samples, rows, policy)?;
    matrix.set_gene_names(names)?;
    Ok(matrix)
}

/// Write a TSV expression matrix with a header line.
pub fn write_tsv<W: Write>(matrix: &ExpressionMatrix, mut writer: W) -> Result<(), IoError> {
    write!(writer, "gene")?;
    for s in 0..matrix.samples() {
        write!(writer, "\tS{s:04}")?;
    }
    writeln!(writer)?;
    for g in 0..matrix.genes() {
        write!(writer, "{}", matrix.gene_names()[g])?;
        for &v in matrix.gene(g) {
            if v.is_nan() {
                write!(writer, "\tNA")?;
            } else {
                write!(writer, "\t{v}")?;
            }
        }
        writeln!(writer)?;
    }
    Ok(())
}

const SNAPSHOT_MAGIC: &[u8; 4] = b"GNEX";
const SNAPSHOT_VERSION: u8 = 1;

/// Serialize to the compact `GNEX` binary snapshot.
pub fn to_snapshot(matrix: &ExpressionMatrix) -> Bytes {
    let mut buf = BytesMut::with_capacity(
        16 + matrix.heap_bytes()
            + matrix
                .gene_names()
                .iter()
                .map(|n| n.len() + 4)
                .sum::<usize>(),
    );
    buf.put_slice(SNAPSHOT_MAGIC);
    buf.put_u8(SNAPSHOT_VERSION);
    buf.put_u32_le(matrix.genes() as u32);
    buf.put_u32_le(matrix.samples() as u32);
    for name in matrix.gene_names() {
        buf.put_u32_le(name.len() as u32);
        buf.put_slice(name.as_bytes());
    }
    for &v in matrix.as_flat() {
        buf.put_f32_le(v);
    }
    buf.freeze()
}

/// Deserialize a `GNEX` binary snapshot.
pub fn from_snapshot(mut bytes: Bytes) -> Result<ExpressionMatrix, IoError> {
    if bytes.remaining() < 13 {
        return Err(IoError::BadSnapshot("truncated header"));
    }
    let mut magic = [0u8; 4];
    bytes.copy_to_slice(&mut magic);
    if &magic != SNAPSHOT_MAGIC {
        return Err(IoError::BadSnapshot("wrong magic"));
    }
    if bytes.get_u8() != SNAPSHOT_VERSION {
        return Err(IoError::BadSnapshot("unsupported version"));
    }
    let genes = bytes.get_u32_le() as usize;
    let samples = bytes.get_u32_le() as usize;
    let mut names = Vec::with_capacity(genes);
    for _ in 0..genes {
        if bytes.remaining() < 4 {
            return Err(IoError::BadSnapshot("truncated name table"));
        }
        let len = bytes.get_u32_le() as usize;
        if bytes.remaining() < len {
            return Err(IoError::BadSnapshot("truncated name"));
        }
        let name_bytes = bytes.split_to(len);
        let name = std::str::from_utf8(&name_bytes)
            .map_err(|_| IoError::BadSnapshot("gene name is not UTF-8"))?
            .to_string();
        names.push(name);
    }
    if bytes.remaining() != genes * samples * 4 {
        return Err(IoError::BadSnapshot("payload size mismatch"));
    }
    let mut data = Vec::with_capacity(genes * samples);
    for _ in 0..genes * samples {
        data.push(bytes.get_f32_le());
    }
    // Snapshots may legitimately contain NaNs; keep them for the caller's
    // policy by using ZeroFill only when... no: preserve exactly. Snapshots
    // are written from already-validated matrices, so Error policy holds
    // unless the source had imputable NaNs, which were resolved pre-write.
    let mut matrix = ExpressionMatrix::from_flat(genes, samples, data, MissingPolicy::Error)?;
    matrix.set_gene_names(names)?;
    Ok(matrix)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_matrix() -> ExpressionMatrix {
        let mut m = ExpressionMatrix::from_rows(
            &[vec![1.5, 2.5, 3.5], vec![-1.0, 0.0, 1.0]],
            MissingPolicy::Error,
        )
        .unwrap();
        m.set_gene_names(vec!["AT1G01010".into(), "AT1G01020".into()])
            .unwrap();
        m
    }

    #[test]
    fn tsv_roundtrip() {
        let m = demo_matrix();
        let mut out = Vec::new();
        write_tsv(&m, &mut out).unwrap();
        let parsed = read_tsv(&out[..], true, MissingPolicy::Error).unwrap();
        assert_eq!(parsed, m);
    }

    #[test]
    fn tsv_without_header() {
        let text = "g1\t1.0\t2.0\ng2\t3.0\t4.0\n";
        let m = read_tsv(text.as_bytes(), false, MissingPolicy::Error).unwrap();
        assert_eq!(m.genes(), 2);
        assert_eq!(m.gene(1), &[3.0, 4.0]);
        assert_eq!(m.gene_names(), &["g1", "g2"]);
    }

    #[test]
    fn tsv_missing_values_respect_policy() {
        let text = "g1\t1.0\tNA\t3.0\n";
        let err = read_tsv(text.as_bytes(), false, MissingPolicy::Error);
        assert!(err.is_err());
        let m = read_tsv(text.as_bytes(), false, MissingPolicy::MeanImpute).unwrap();
        assert_eq!(m.gene(0), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn tsv_ragged_rows_rejected_with_line_number() {
        let text = "g1\t1.0\t2.0\ng2\t3.0\n";
        match read_tsv(text.as_bytes(), false, MissingPolicy::Error) {
            Err(IoError::Parse { line, .. }) => assert_eq!(line, 2),
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn tsv_repeated_gene_name_names_both_lines() {
        let text = "g1\t1.0\ng2\t2.0\ng1\t3.0\n";
        match read_tsv(text.as_bytes(), false, MissingPolicy::Error) {
            Err(IoError::Parse { line, message }) => {
                assert_eq!(line, 3);
                assert!(
                    message.contains("\"g1\"") && message.contains("line 1"),
                    "{message}"
                );
            }
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn tsv_bad_number_reported() {
        let text = "g1\t1.0\toops\n";
        match read_tsv(text.as_bytes(), false, MissingPolicy::Error) {
            Err(IoError::Parse { message, .. }) => assert!(message.contains("oops")),
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn tsv_skips_blank_lines() {
        let text = "g1\t1.0\n\n\ng2\t2.0\n";
        let m = read_tsv(text.as_bytes(), false, MissingPolicy::Error).unwrap();
        assert_eq!(m.genes(), 2);
    }

    #[test]
    fn snapshot_roundtrip() {
        let m = demo_matrix();
        let bytes = to_snapshot(&m);
        let back = from_snapshot(bytes).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn snapshot_rejects_corruption() {
        let m = demo_matrix();
        let bytes = to_snapshot(&m);

        // Wrong magic.
        let mut bad = BytesMut::from(&bytes[..]);
        bad[0] = b'X';
        assert!(matches!(
            from_snapshot(bad.freeze()),
            Err(IoError::BadSnapshot("wrong magic"))
        ));

        // Truncated payload.
        let truncated = bytes.slice(..bytes.len() - 3);
        assert!(from_snapshot(truncated).is_err());

        // Empty input.
        assert!(from_snapshot(Bytes::new()).is_err());
    }

    #[test]
    fn snapshot_rejects_wrong_version() {
        let m = demo_matrix();
        let mut raw = BytesMut::from(&to_snapshot(&m)[..]);
        raw[4] = 99;
        assert!(matches!(
            from_snapshot(raw.freeze()),
            Err(IoError::BadSnapshot("unsupported version"))
        ));
    }

    #[test]
    fn nan_written_as_na_token() {
        let m = ExpressionMatrix::from_flat(1, 2, vec![1.0, f32::NAN], MissingPolicy::ZeroFill)
            .unwrap();
        // ZeroFill resolved the NaN, so write a literal NaN via set().
        let mut m2 = m;
        m2.set(0, 1, f32::NAN);
        let mut out = Vec::new();
        write_tsv(&m2, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("\tNA"));
    }
}
