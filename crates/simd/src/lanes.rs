//! The fixed-width lane value type.
//!
//! [`F32x16`] wraps a `[f32; 16]` with `#[repr(transparent)]` and implements
//! the elementwise operations the MI kernels need. All loops over lanes are
//! over the compile-time constant 16, so the optimizer unrolls and vectorizes
//! them; none of the operations branch per lane.
//!
//! Horizontal reductions use a fixed pairwise tree so their floating-point
//! result is deterministic and independent of the host's SIMD width — this
//! is what lets the test-suite assert exact equality between runs and tight
//! (1e-6 relative) agreement with the scalar reference kernels.

// Every lane loop indexes up to three `[f32; 16]` arrays in lockstep over
// the constant 16: the form the optimizer unrolls and vectorizes.
#![allow(clippy::needless_range_loop)]

use core::ops::{Add, AddAssign, Div, Index, IndexMut, Mul, MulAssign, Neg, Sub};

/// Sixteen single-precision lanes (512-bit IMCI geometry, the Xeon Phi
/// vector width the paper targets).
#[derive(Clone, Copy, Debug, PartialEq)]
#[repr(transparent)]
pub struct F32x16(pub [f32; 16]);

impl F32x16 {
    /// Number of scalar lanes.
    pub const LANES: usize = 16;

    /// All lanes zero.
    #[inline(always)]
    pub fn zero() -> Self {
        Self([0.0; 16])
    }

    /// All lanes set to `v`.
    #[inline(always)]
    pub fn splat(v: f32) -> Self {
        Self([v; 16])
    }

    /// Load 16 consecutive elements from `slice` starting at 0.
    ///
    /// # Panics
    /// Panics if `slice.len() < 16`.
    #[inline(always)]
    pub fn from_slice(slice: &[f32]) -> Self {
        let mut out = [0.0; 16];
        out.copy_from_slice(&slice[..16]);
        Self(out)
    }

    /// Load up to 16 elements from `slice`, filling the remaining
    /// lanes with zero. This is the masked tail load used at the end
    /// of a sample stream whose length is not a lane multiple.
    #[inline(always)]
    pub fn from_slice_padded(slice: &[f32]) -> Self {
        let mut out = [0.0; 16];
        let k = slice.len().min(16);
        out[..k].copy_from_slice(&slice[..k]);
        Self(out)
    }

    /// Store all lanes into the first 16 elements of `slice`.
    ///
    /// # Panics
    /// Panics if `slice.len() < 16`.
    #[inline(always)]
    pub fn write_to_slice(self, slice: &mut [f32]) {
        slice[..16].copy_from_slice(&self.0);
    }

    /// Lanewise fused multiply-add: `self * a + b`.
    ///
    /// Uses `mul_add` so the host emits a real FMA when available;
    /// the scalar reference kernels use the same contraction so
    /// results agree bit-for-bit on FMA hardware.
    #[inline(always)]
    pub fn mul_add(self, a: Self, b: Self) -> Self {
        let mut out = [0.0; 16];
        let mut i = 0;
        while i < 16 {
            out[i] = self.0[i].mul_add(a.0[i], b.0[i]);
            i += 1;
        }
        Self(out)
    }

    /// Lanewise minimum.
    #[inline(always)]
    pub fn min(self, other: Self) -> Self {
        let mut out = [0.0; 16];
        for i in 0..16 {
            out[i] = self.0[i].min(other.0[i]);
        }
        Self(out)
    }

    /// Lanewise maximum.
    #[inline(always)]
    pub fn max(self, other: Self) -> Self {
        let mut out = [0.0; 16];
        for i in 0..16 {
            out[i] = self.0[i].max(other.0[i]);
        }
        Self(out)
    }

    /// Lanewise absolute value.
    #[inline(always)]
    pub fn abs(self) -> Self {
        let mut out = [0.0; 16];
        for i in 0..16 {
            out[i] = self.0[i].abs();
        }
        Self(out)
    }

    /// Lanewise `x * ln(x)` with the entropy convention `0 ln 0 = 0`.
    ///
    /// Negative inputs (which can only arise from accumulated
    /// rounding noise in a probability vector) are clamped to zero
    /// rather than producing a NaN.
    #[inline(always)]
    pub fn xlogx(self) -> Self {
        let mut out = [0.0; 16];
        for i in 0..16 {
            let x = self.0[i];
            out[i] = if x > 0.0 { x * x.ln() } else { 0.0 };
        }
        Self(out)
    }

    /// Deterministic horizontal sum using a pairwise tree reduction.
    #[inline(always)]
    pub fn reduce_add(self) -> f32 {
        let mut buf = self.0;
        let mut width = 16;
        while width > 1 {
            width /= 2;
            for i in 0..width {
                buf[i] += buf[i + width];
            }
        }
        buf[0]
    }

    /// Horizontal maximum over all lanes.
    #[inline(always)]
    pub fn reduce_max(self) -> f32 {
        let mut m = self.0[0];
        for i in 1..16 {
            m = m.max(self.0[i]);
        }
        m
    }

    /// Horizontal minimum over all lanes.
    #[inline(always)]
    pub fn reduce_min(self) -> f32 {
        let mut m = self.0[0];
        for i in 1..16 {
            m = m.min(self.0[i]);
        }
        m
    }

    /// Borrow the lanes as a slice.
    #[inline(always)]
    pub fn as_slice(&self) -> &[f32] {
        &self.0
    }
}

impl Default for F32x16 {
    fn default() -> Self {
        Self::zero()
    }
}

impl Add for F32x16 {
    type Output = Self;
    #[inline(always)]
    fn add(self, rhs: Self) -> Self {
        let mut out = [0.0; 16];
        for i in 0..16 {
            out[i] = self.0[i] + rhs.0[i];
        }
        Self(out)
    }
}

impl AddAssign for F32x16 {
    #[inline(always)]
    fn add_assign(&mut self, rhs: Self) {
        for i in 0..16 {
            self.0[i] += rhs.0[i];
        }
    }
}

impl Sub for F32x16 {
    type Output = Self;
    #[inline(always)]
    fn sub(self, rhs: Self) -> Self {
        let mut out = [0.0; 16];
        for i in 0..16 {
            out[i] = self.0[i] - rhs.0[i];
        }
        Self(out)
    }
}

impl Mul for F32x16 {
    type Output = Self;
    #[inline(always)]
    fn mul(self, rhs: Self) -> Self {
        let mut out = [0.0; 16];
        for i in 0..16 {
            out[i] = self.0[i] * rhs.0[i];
        }
        Self(out)
    }
}

impl MulAssign for F32x16 {
    #[inline(always)]
    fn mul_assign(&mut self, rhs: Self) {
        for i in 0..16 {
            self.0[i] *= rhs.0[i];
        }
    }
}

impl Div for F32x16 {
    type Output = Self;
    #[inline(always)]
    fn div(self, rhs: Self) -> Self {
        let mut out = [0.0; 16];
        for i in 0..16 {
            out[i] = self.0[i] / rhs.0[i];
        }
        Self(out)
    }
}

impl Neg for F32x16 {
    type Output = Self;
    #[inline(always)]
    fn neg(self) -> Self {
        let mut out = [0.0; 16];
        for i in 0..16 {
            out[i] = -self.0[i];
        }
        Self(out)
    }
}

impl Mul<f32> for F32x16 {
    type Output = Self;
    #[inline(always)]
    fn mul(self, rhs: f32) -> Self {
        let mut out = [0.0; 16];
        for i in 0..16 {
            out[i] = self.0[i] * rhs;
        }
        Self(out)
    }
}

impl Index<usize> for F32x16 {
    type Output = f32;
    #[inline(always)]
    fn index(&self, i: usize) -> &f32 {
        &self.0[i]
    }
}

impl IndexMut<usize> for F32x16 {
    #[inline(always)]
    fn index_mut(&mut self, i: usize) -> &mut f32 {
        &mut self.0[i]
    }
}

impl From<[f32; 16]> for F32x16 {
    fn from(a: [f32; 16]) -> Self {
        Self(a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq16() -> F32x16 {
        let mut a = [0.0f32; 16];
        for (i, v) in a.iter_mut().enumerate() {
            *v = i as f32 + 1.0;
        }
        F32x16(a)
    }

    #[test]
    fn splat_sets_all_lanes() {
        let v = F32x16::splat(3.5);
        assert!(v.as_slice().iter().all(|&x| x == 3.5));
    }

    #[test]
    fn from_slice_roundtrip() {
        let data: Vec<f32> = (0..16).map(|i| i as f32 * 0.5).collect();
        let v = F32x16::from_slice(&data);
        let mut out = vec![0.0f32; 16];
        v.write_to_slice(&mut out);
        assert_eq!(data, out);
    }

    #[test]
    fn padded_load_zero_fills_tail() {
        let data = [1.0f32, 2.0, 3.0];
        let v = F32x16::from_slice_padded(&data);
        assert_eq!(&v.as_slice()[..3], &data);
        assert!(v.as_slice()[3..].iter().all(|&x| x == 0.0));
    }

    #[test]
    fn padded_load_truncates_long_input() {
        let data: Vec<f32> = (0..20).map(|i| i as f32).collect();
        let v = F32x16::from_slice_padded(&data);
        assert_eq!(v.as_slice(), &data[..16]);
    }

    #[test]
    fn elementwise_arithmetic() {
        let a = F32x16::splat(2.0);
        let b = F32x16::splat(3.0);
        assert_eq!((a + b), F32x16::splat(5.0));
        assert_eq!((a - b), F32x16::splat(-1.0));
        assert_eq!((a * b), F32x16::splat(6.0));
        assert_eq!((b / a), F32x16::splat(1.5));
        assert_eq!((-a), F32x16::splat(-2.0));
        assert_eq!((a * 4.0), F32x16::splat(8.0));
    }

    #[test]
    fn fma_matches_scalar_contraction() {
        let a = seq16();
        let b = F32x16::splat(0.5);
        let c = F32x16::splat(1.0);
        let r = a.mul_add(b, c);
        for i in 0..16 {
            assert_eq!(r[i], a[i].mul_add(0.5, 1.0));
        }
    }

    #[test]
    fn reduce_add_is_exact_on_integers() {
        // 1 + 2 + ... + 16 = 136, exactly representable.
        assert_eq!(seq16().reduce_add(), 136.0);
    }

    #[test]
    fn reduce_add_pairwise_tree_order() {
        // The tree first adds lane i to lane i + 8, then halves again.
        let mut v = F32x16::zero();
        (v[0], v[1], v[8], v[9]) = (1e8, 1.0, -1e8, 1.0);
        // tree: (1e8 + -1e8) + (1.0 + 1.0) = 2.0 — a naive left fold
        // would lose the 1.0 against 1e8 and produce 1.0.
        assert_eq!(v.reduce_add(), 2.0);
    }

    #[test]
    fn reduce_min_max() {
        let v = seq16();
        assert_eq!(v.reduce_max(), 16.0);
        assert_eq!(v.reduce_min(), 1.0);
        assert_eq!(v.min(F32x16::splat(4.0)).reduce_max(), 4.0);
        assert_eq!(v.max(F32x16::splat(4.0)).reduce_min(), 4.0);
    }

    #[test]
    fn xlogx_entropy_convention() {
        let v = F32x16::from_slice_padded(&[0.0, 1.0, 0.5, 0.25, -0.1, 2.0]);
        let r = v.xlogx();
        assert_eq!(r[0], 0.0, "0 ln 0 must be 0");
        assert_eq!(r[1], 0.0, "1 ln 1 must be 0");
        assert!((r[2] - 0.5 * 0.5f32.ln()).abs() < 1e-7);
        assert_eq!(r[4], 0.0, "negative rounding noise clamps to 0");
        assert!(r[5] > 0.0);
    }

    #[test]
    fn add_assign_and_mul_assign() {
        let mut a = F32x16::splat(1.0);
        a += F32x16::splat(2.0);
        assert_eq!(a, F32x16::splat(3.0));
        a *= F32x16::splat(2.0);
        assert_eq!(a, F32x16::splat(6.0));
    }

    #[test]
    fn indexing() {
        let mut v = F32x16::zero();
        v[3] = 7.0;
        assert_eq!(v[3], 7.0);
        assert_eq!(v[0], 0.0);
    }
}
