//! Fixed-point helpers with ARM NEON semantics.
//!
//! The 16-bit-accumulator variant of the first-layer kernel (§III-D) must
//! "carefully manage the accumulator scale so as to avoid destructive numeric
//! overflow in adding up the 27 products. Therefore, a rounding right shift
//! by 4 bit positions must be performed before accumulation." These are the
//! exact integer primitives that implement that scheme.

/// Rounding right shift with ARM `vrshr` semantics: adds the rounding
/// constant `1 << (n-1)` before shifting.
///
/// # Panics
///
/// Panics if `n` is zero or ≥ 32.
///
/// # Example
///
/// ```
/// use tincy_quant::rounding_right_shift;
///
/// assert_eq!(rounding_right_shift(23, 4), 1);  // 23/16 = 1.4375 -> 1
/// assert_eq!(rounding_right_shift(24, 4), 2);  // 24/16 = 1.5    -> 2
/// assert_eq!(rounding_right_shift(-24, 4), -1); // -1.5 rounds toward +inf
/// ```
#[inline]
pub fn rounding_right_shift(x: i32, n: u32) -> i32 {
    assert!((1..32).contains(&n), "shift amount {n} out of range 1..32");
    (x + (1 << (n - 1))) >> n
}

/// Rounding right shift on a 16-bit lane (the NEON `vrshr.s16` of the
/// 16-bit accumulation path), with the rounding add widened so no input
/// overflows. This is the definition, not the hot loop: `tincy-simd`'s
/// first-layer kernel shifts inside the lane and is tested against this
/// function over its whole product domain.
///
/// # Panics
///
/// Panics if `n` is zero or ≥ 16.
#[inline]
pub fn rounding_right_shift_i16(x: i16, n: u32) -> i16 {
    assert!((1..16).contains(&n), "shift amount {n} out of range 1..16");
    (((x as i32) + (1 << (n - 1))) >> n) as i16
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vrshr_matches_reference_for_positive() {
        for x in 0..1000 {
            let expected = ((x as f64) / 16.0).round() as i32;
            // f64 rounding is round-half-away-from-zero; vrshr rounds
            // half toward +infinity. They agree for positives.
            assert_eq!(rounding_right_shift(x, 4), expected, "x={x}");
        }
    }

    #[test]
    fn vrshr_rounds_half_toward_positive_infinity() {
        assert_eq!(rounding_right_shift(-8, 4), 0); // -0.5 -> 0
        assert_eq!(rounding_right_shift(8, 4), 1); // +0.5 -> 1
        assert_eq!(rounding_right_shift(-9, 4), -1);
    }

    #[test]
    fn vrshr_i16_agrees_with_i32_inside_range() {
        for x in i16::MIN..=i16::MAX {
            assert_eq!(
                rounding_right_shift_i16(x, 4) as i32,
                rounding_right_shift(x as i32, 4),
                "x={x}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn zero_shift_panics() {
        rounding_right_shift(1, 0);
    }

    #[test]
    fn shift_by_four_gives_sixteenfold_accumulation_headroom() {
        // §III-D: the first-layer dot product adds 27 products of
        // u8 × i8; each product fits i16 (max 255·127 = 32385) but adding
        // even two worst-case products overflows a 16-bit accumulator.
        // `vrshr #4` scales every term down 16x, so 16 worst-case terms
        // (and any realistic zero-centred 27-term sum) fit — at the cost of
        // the small rounding loss the paper reports.
        let worst_term = 255 * 127; // 32385 < 2^15: the product itself fits
        assert!(worst_term <= i16::MAX as i32);
        assert!(2 * worst_term > i16::MAX as i32); // unshifted: overflow at 2 terms
        let shifted = rounding_right_shift(worst_term, 4);
        assert!(16 * shifted <= i16::MAX as i32); // shifted: 16 terms of headroom
                                                  // Realistic case: weights zero-centred, activations mid-range.
        let typical_term = rounding_right_shift(128 * 64, 4);
        assert!(27 * typical_term <= i16::MAX as i32);
    }
}
