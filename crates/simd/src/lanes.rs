//! Explicit lane-typed vectors with NEON semantics.
//!
//! These types make the lane structure of the kernels visible in the code —
//! an `F32x4` is one 128-bit NEON quad register holding four single-precision
//! lanes. The compiler's auto-vectorizer maps the fixed-size array operations
//! onto the host's SIMD unit, so the *shape* of the computation matches the
//! A53 target even though the ISA differs.

use tincy_quant::rounding_right_shift_i16;

/// Four 32-bit float lanes (NEON `float32x4_t`).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct F32x4(pub [f32; 4]);

impl F32x4 {
    /// Number of lanes.
    pub const LANES: usize = 4;

    /// Broadcasts one value to all lanes (NEON `vdupq_n_f32`).
    #[inline]
    pub fn splat(v: f32) -> Self {
        Self([v; 4])
    }

    /// Loads four consecutive values (NEON `vld1q_f32`).
    ///
    /// # Panics
    ///
    /// Panics if `src` holds fewer than four values.
    #[inline]
    pub fn load(src: &[f32]) -> Self {
        Self([src[0], src[1], src[2], src[3]])
    }

    /// Stores the lanes into `dst` (NEON `vst1q_f32`).
    ///
    /// # Panics
    ///
    /// Panics if `dst` holds fewer than four slots.
    #[inline]
    pub fn store(self, dst: &mut [f32]) {
        dst[..4].copy_from_slice(&self.0);
    }

    /// Lane-wise multiply–accumulate `self + a·b` (NEON `vmlaq_f32`).
    #[inline]
    #[must_use]
    pub fn mla(self, a: Self, b: Self) -> Self {
        let mut out = self.0;
        for i in 0..4 {
            out[i] += a.0[i] * b.0[i];
        }
        Self(out)
    }

    /// Lane-wise addition.
    #[inline]
    #[must_use]
    pub fn add(self, rhs: Self) -> Self {
        let mut out = self.0;
        for i in 0..4 {
            out[i] += rhs.0[i];
        }
        Self(out)
    }

    /// Lane-wise multiplication.
    #[inline]
    #[must_use]
    pub fn mul(self, rhs: Self) -> Self {
        let mut out = self.0;
        for i in 0..4 {
            out[i] *= rhs.0[i];
        }
        Self(out)
    }

    /// Sum across lanes (NEON `vaddvq_f32`).
    #[inline]
    pub fn horizontal_sum(self) -> f32 {
        (self.0[0] + self.0[1]) + (self.0[2] + self.0[3])
    }
}

/// Four 64-bit lanes of packed bits (a pair of NEON `uint64x2_t` quads).
///
/// The XNOR-popcount kernels in `tincy-kernels` consume packed bit vectors
/// four words at a time: AND against the weight row, then a per-lane
/// popcount (NEON `vcntq_u8` followed by the pairwise-add ladder on the
/// A53). Keeping the four accumulating lanes distinct is what lets the
/// auto-vectorizer map the loop onto the 128-bit unit. The methods are
/// `#[inline(always)]` so that a [`crate::PopcountKernel`] calling them is
/// compiled with the population count its dispatcher selected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct U64x4(pub [u64; 4]);

impl U64x4 {
    /// Number of lanes.
    pub const LANES: usize = 4;

    /// Loads four consecutive words (NEON `vld1q_u64` ×2).
    ///
    /// # Panics
    ///
    /// Panics if `src` holds fewer than four words.
    #[inline(always)]
    pub fn load(src: &[u64]) -> Self {
        Self([src[0], src[1], src[2], src[3]])
    }

    /// Lane-wise bitwise AND (NEON `vandq_u64`).
    #[inline(always)]
    #[must_use]
    pub fn and(self, rhs: Self) -> Self {
        let mut out = self.0;
        for i in 0..4 {
            out[i] &= rhs.0[i];
        }
        Self(out)
    }

    /// Sum of the per-lane popcounts (NEON `vcntq_u8` + pairwise adds).
    #[inline(always)]
    pub fn count_ones(self) -> u32 {
        (self.0[0].count_ones() + self.0[1].count_ones())
            + (self.0[2].count_ones() + self.0[3].count_ones())
    }
}

/// Eight 16-bit integer lanes (NEON `int16x8_t`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct I16x8(pub [i16; 8]);

impl I16x8 {
    /// Number of lanes.
    pub const LANES: usize = 8;

    /// Broadcasts one value to all lanes.
    #[inline]
    pub fn splat(v: i16) -> Self {
        Self([v; 8])
    }

    /// Lane-wise wrapping addition (NEON `vaddq_s16` modular semantics).
    #[inline]
    #[must_use]
    pub fn wrapping_add(self, rhs: Self) -> Self {
        let mut out = self.0;
        for i in 0..8 {
            out[i] = out[i].wrapping_add(rhs.0[i]);
        }
        Self(out)
    }

    /// Lane-wise saturating addition (NEON `vqaddq_s16`).
    #[inline]
    #[must_use]
    pub fn saturating_add(self, rhs: Self) -> Self {
        let mut out = self.0;
        for i in 0..8 {
            out[i] = out[i].saturating_add(rhs.0[i]);
        }
        Self(out)
    }

    /// Lane-wise rounding shift right (NEON `vrshrq_n_s16`).
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or ≥ 16.
    #[inline]
    #[must_use]
    pub fn rounding_shift_right(self, n: u32) -> Self {
        let mut out = self.0;
        for lane in &mut out {
            *lane = rounding_right_shift_i16(*lane, n);
        }
        Self(out)
    }

    /// Widens the low/high halves to two `I32x4` (NEON `vmovl_s16`).
    #[inline]
    pub fn widen(self) -> (I32x4, I32x4) {
        (
            I32x4([
                self.0[0] as i32,
                self.0[1] as i32,
                self.0[2] as i32,
                self.0[3] as i32,
            ]),
            I32x4([
                self.0[4] as i32,
                self.0[5] as i32,
                self.0[6] as i32,
                self.0[7] as i32,
            ]),
        )
    }
}

/// Four 32-bit integer lanes (NEON `int32x4_t`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct I32x4(pub [i32; 4]);

impl I32x4 {
    /// Number of lanes.
    pub const LANES: usize = 4;

    /// Broadcasts one value to all lanes.
    #[inline]
    pub fn splat(v: i32) -> Self {
        Self([v; 4])
    }

    /// Lane-wise addition.
    #[inline]
    #[must_use]
    pub fn add(self, rhs: Self) -> Self {
        let mut out = self.0;
        for i in 0..4 {
            out[i] += rhs.0[i];
        }
        Self(out)
    }

    /// Multiply–accumulate `self + a·b` on widened 16-bit products
    /// (NEON `vmlal_s16` shape: the products are formed in 32 bits).
    #[inline]
    #[must_use]
    pub fn mla_widening(self, a: [i16; 4], b: [i16; 4]) -> Self {
        let mut out = self.0;
        for i in 0..4 {
            out[i] += a[i] as i32 * b[i] as i32;
        }
        Self(out)
    }

    /// Sum across lanes.
    #[inline]
    pub fn horizontal_sum(self) -> i64 {
        self.0.iter().map(|&v| v as i64).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f32x4_mla() {
        let acc = F32x4::splat(1.0);
        let r = acc.mla(F32x4([1.0, 2.0, 3.0, 4.0]), F32x4::splat(2.0));
        assert_eq!(r.0, [3.0, 5.0, 7.0, 9.0]);
        assert_eq!(r.horizontal_sum(), 24.0);
    }

    #[test]
    fn f32x4_load_store_round_trip() {
        let data = [1.0f32, 2.0, 3.0, 4.0, 5.0];
        let v = F32x4::load(&data);
        let mut out = [0.0f32; 4];
        v.store(&mut out);
        assert_eq!(out, [1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn u64x4_and_popcount() {
        let w = U64x4::load(&[!0u64, 0, 0b1010, u64::MAX << 32]);
        let b = U64x4::load(&[0b111, !0u64, 0b0110, u64::MAX]);
        let anded = w.and(b);
        assert_eq!(anded.0, [0b111, 0, 0b0010, u64::MAX << 32]);
        assert_eq!(anded.count_ones(), 36, "3 + 0 + 1 + 32 set bits");
    }

    #[test]
    fn i16x8_rounding_shift_matches_scalar() {
        let v = I16x8([23, 24, -24, -23, 8, -8, 32767, -32768]);
        let s = v.rounding_shift_right(4);
        assert_eq!(s.0, [1, 2, -1, -1, 1, 0, 2048, -2048]);
    }

    #[test]
    fn i16x8_saturating_vs_wrapping() {
        let a = I16x8::splat(i16::MAX);
        let one = I16x8::splat(1);
        assert_eq!(a.saturating_add(one).0[0], i16::MAX);
        assert_eq!(a.wrapping_add(one).0[0], i16::MIN);
    }

    #[test]
    fn i16_widen_preserves_values() {
        let v = I16x8([-3, -2, -1, 0, 1, 2, 3, 4]);
        let (lo, hi) = v.widen();
        assert_eq!(lo.0, [-3, -2, -1, 0]);
        assert_eq!(hi.0, [1, 2, 3, 4]);
    }

    #[test]
    fn i32x4_mla_widening() {
        let acc = I32x4::splat(10);
        let r = acc.mla_widening([100, -100, 300, 0], [300, 300, 300, 7]);
        assert_eq!(r.0, [30010, -29990, 90010, 10]);
        assert_eq!(r.horizontal_sum(), 30010 - 29990 + 90010 + 10);
    }
}
