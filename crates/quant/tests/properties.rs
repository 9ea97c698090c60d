//! Property-based tests for quantization invariants.

use proptest::prelude::*;
use tincy_quant::{rounding_right_shift, ternarize, AffineQuant, BinaryDot, ThresholdSet};
use tincy_tensor::{BitTensor, U3Tensor};

proptest! {
    #[test]
    fn affine_round_trip_within_half_step(
        min in -100.0f32..0.0,
        span in 0.001f32..200.0,
        frac in 0.0f32..1.0
    ) {
        let max = min + span;
        let q = AffineQuant::fit(min, max).unwrap();
        let v = min + frac * span;
        let err = (q.dequantize(q.quantize(v)) - v).abs();
        prop_assert!(err <= q.scale() * 0.5 + 1e-5);
    }

    #[test]
    fn affine_quantize_is_monotone(
        min in -10.0f32..0.0,
        span in 0.1f32..20.0,
        a in 0.0f32..1.0,
        b in 0.0f32..1.0
    ) {
        let q = AffineQuant::fit(min, min + span).unwrap();
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        let va = min + lo * span;
        let vb = min + hi * span;
        prop_assert!(q.quantize(va) <= q.quantize(vb));
    }

    /// The slice quantizer is `quantize`, byte for byte, where rounding is
    /// decided: on every half step `k ± 0.5`, one ulp either side of it,
    /// both zeros, and beyond the `u8`, the 2²⁴ and the `i32` ranges.
    #[test]
    fn slice_quantizer_is_quantize_on_every_rounding_boundary(
        scale in prop_oneof![Just(1.0f32), Just(1.0 / 255.0), Just(0.003_921_569), 1e-3f32..40.0],
        zero_point in prop_oneof![Just(0i32), Just(255), 0i32..256],
        k in -300i32..300
    ) {
        let q = AffineQuant::new(scale, zero_point).unwrap();
        let ulps = |v: f32, n: i32| f32::from_bits((v.to_bits() as i32 + n) as u32);
        let mut inputs = vec![0.0, -0.0, f32::MAX, f32::MIN, f32::MIN_POSITIVE, f32::NAN];
        for half in [k as f32 - 0.5, k as f32 + 0.5, k as f32] {
            let v = half * scale;
            inputs.extend([v, ulps(v, 1), ulps(v, -1), ulps(v, 2), ulps(v, -2)]);
        }
        for magnitude in [255.4f32, 256.0, 511.5, 512.0, 513.0, 1.7e7, 3.4e7, 2.2e9, 4.4e9, 1e30] {
            inputs.extend([magnitude * scale, -magnitude * scale]);
        }
        let expected: Vec<u8> = inputs.iter().map(|&v| q.quantize(v)).collect();
        prop_assert_eq!(q.quantize_slice(&inputs), expected);
    }

    #[test]
    fn vrshr_is_division_with_bounded_error(x in -1_000_000i32..1_000_000, n in 1u32..16) {
        let shifted = rounding_right_shift(x, n) as f64;
        let exact = x as f64 / (1u64 << n) as f64;
        prop_assert!((shifted - exact).abs() <= 0.5 + 1e-12);
    }

    #[test]
    fn binary_dot_popcount_identity(
        signs in proptest::collection::vec(prop_oneof![Just(1i8), Just(-1i8)], 1..260),
        seed in any::<u64>()
    ) {
        let n = signs.len();
        let weights = BitTensor::from_signs(1, n, &signs).unwrap();
        let dot = BinaryDot::new(weights);
        let acts: Vec<u8> = (0..n)
            .map(|i| ((seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(i as u64) >> 13) % 8) as u8)
            .collect();
        let packed = U3Tensor::from_values(&acts).unwrap();
        prop_assert_eq!(dot.dot_naive(0, &acts), dot.dot_planes(0, &packed));
    }

    #[test]
    fn ternary_signs_respect_threshold(
        weights in proptest::collection::vec(-2.0f32..2.0, 1..100)
    ) {
        let t = ternarize(&weights).unwrap();
        for (w, &s) in weights.iter().zip(t.signs()) {
            if s == 0 {
                prop_assert!(w.abs() <= t.delta() + 1e-6);
            } else {
                prop_assert!(w.abs() > t.delta() - 1e-6);
                prop_assert_eq!(s as f32, w.signum());
            }
        }
    }

    #[test]
    fn threshold_activation_matches_float_path(
        a in prop_oneof![0.001f32..0.5, -0.5f32..-0.001],
        b in -5.0f32..5.0,
        q in 0.05f32..1.0,
        acc in -2_000i32..2_000
    ) {
        let t = ThresholdSet::from_affine(a, b, q, 8).unwrap();
        let y = a as f64 * acc as f64 + b as f64;
        let reference = (y / q as f64 + 0.5).floor().clamp(0.0, 7.0) as u8;
        prop_assert_eq!(t.activate(acc), reference);
    }
}
