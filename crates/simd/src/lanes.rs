//! The one explicit lane type the float kernels are written in.
//!
//! An [`F32x4`] is one 128-bit NEON quad register holding four
//! single-precision lanes; it makes the lane structure of the fused and
//! the 16×27 float kernels visible in the code. The compiler's
//! auto-vectorizer maps the fixed-size array operations onto the host's
//! SIMD unit, so the *shape* of the computation matches the A53 target
//! even though the ISA differs. The integer kernels need no lane type:
//! they are loops over contiguous rows, which vectorize to whatever width
//! the host has.

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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f32x4_mla() {
        let acc = F32x4::splat(1.0);
        let r = acc.mla(F32x4([1.0, 2.0, 3.0, 4.0]), F32x4::splat(2.0));
        assert_eq!(r.0, [3.0, 5.0, 7.0, 9.0]);
    }

    #[test]
    fn f32x4_load_store_round_trip() {
        let data = [1.0f32, 2.0, 3.0, 4.0, 5.0];
        let v = F32x4::load(&data);
        let mut out = [0.0f32; 4];
        v.store(&mut out);
        assert_eq!(out, [1.0, 2.0, 3.0, 4.0]);
    }
}
