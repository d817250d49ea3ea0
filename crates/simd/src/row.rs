//! Cache-line-aligned 16-float rows: the storage unit of dense *y* rows
//! and joint grids.
//!
//! A [`Row16`] is one 512-bit register's worth of lanes and one 64-byte
//! cache line, aligned to that line by its type. A `Vec<Row16>` therefore
//! starts every row on a line boundary — after a `clone`, a reallocation
//! or any other copy — so no row load of the run-blocked kernel can
//! straddle two lines, and no caller can hand it a misaligned row.

use crate::lanes::F32x16;

/// Lanes of one row.
const W: usize = F32x16::LANES;

/// Sixteen `f32` lanes on one 64-byte cache line.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
#[repr(C, align(64))]
pub struct Row16(pub [f32; W]);

// The flat views below rely on rows packing with no padding between them.
const _: () = assert!(core::mem::size_of::<Row16>() == W * core::mem::size_of::<f32>());
const _: () = assert!(core::mem::align_of::<Row16>() == 64);

impl Row16 {
    /// The all-zero row.
    pub const ZERO: Row16 = Row16([0.0; W]);

    /// `rows` as one flat slice of `16 · rows.len()` floats.
    pub fn flatten(rows: &[Row16]) -> &[f32] {
        // safety: `Row16` is `repr(C)` over `[f32; 16]` with size 64 (checked
        // above), so `rows` is `16 · len` initialized, contiguous `f32`s with
        // f32's alignment; the borrow of `rows` bounds the result's lifetime.
        unsafe { core::slice::from_raw_parts(rows.as_ptr().cast::<f32>(), rows.len() * W) }
    }

    /// `rows` as one flat mutable slice of `16 · rows.len()` floats.
    pub fn flatten_mut(rows: &mut [Row16]) -> &mut [f32] {
        // safety: as in `flatten`; every bit pattern is a valid `f32` and a
        // valid `Row16`, and the exclusive borrow of `rows` is handed over.
        unsafe { core::slice::from_raw_parts_mut(rows.as_mut_ptr().cast::<f32>(), rows.len() * W) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vec_rows_start_on_cache_lines_after_copies() {
        let rows = vec![Row16::ZERO; 7];
        for v in [&rows, &rows.clone(), &rows.iter().rev().copied().collect()] {
            assert!(v
                .iter()
                .all(|r| (r as *const Row16 as usize).is_multiple_of(64)));
        }
    }

    #[test]
    fn flat_views_cover_every_lane_in_order() {
        let mut rows = vec![Row16::ZERO; 3];
        for (i, v) in Row16::flatten_mut(&mut rows).iter_mut().enumerate() {
            *v = i as f32;
        }
        assert_eq!(rows[1].0[0], 16.0);
        assert_eq!(rows[2].0[15], 47.0);
        assert_eq!(Row16::flatten(&rows).len(), 48);
    }
}
