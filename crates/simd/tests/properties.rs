//! Property-based tests: all convolution implementations agree with the
//! direct-loop reference across randomized geometries, and the integer
//! rungs of the 16×27 kernel with the gemmlowp-style convolution.

use proptest::prelude::*;
use tincy_simd::conv::conv_lowp_im2col;
use tincy_simd::{conv_im2col_gemm, conv_reference, fused_conv_f32, FirstLayerKernel};
use tincy_tensor::{ConvGeom, Mat, Shape3, Tensor};

#[derive(Debug, Clone)]
struct Case {
    shape: Shape3,
    out_c: usize,
    geom: ConvGeom,
    seed: u64,
}

fn case() -> impl Strategy<Value = Case> {
    (
        1usize..4,
        3usize..9,
        3usize..9,
        1usize..6,
        1usize..4,
        1usize..3,
        0usize..2,
        any::<u64>(),
    )
        .prop_map(|(c, h, w, out_c, k, s, p, seed)| Case {
            shape: Shape3::new(c, h, w),
            out_c,
            geom: ConvGeom::new(k.min(h).min(w), s, p),
            seed,
        })
}

fn lcg(seed: u64) -> impl FnMut() -> f32 {
    let mut state = seed | 1;
    move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 40) as f32 / (1u32 << 24) as f32) - 0.5
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn float_paths_agree(case in case()) {
        let mut rng = lcg(case.seed);
        let input = Tensor::from_fn(case.shape, |_, _, _| rng());
        let weights = Mat::from_fn(case.out_c, case.geom.dot_length(case.shape.channels), |_, _| rng());
        let bias: Vec<f32> = (0..case.out_c).map(|_| rng()).collect();
        let reference = conv_reference(&input, &weights, &bias, case.geom).expect("valid");
        let generic = conv_im2col_gemm(&input, &weights, &bias, case.geom).expect("valid");
        prop_assert!(generic.max_abs_diff(&reference) < 1e-3, "generic");
        for slice_width in [3usize, 8] {
            let fused = fused_conv_f32(&input, &weights, &bias, case.geom, slice_width)
                .expect("valid");
            prop_assert!(fused.max_abs_diff(&reference) < 1e-3, "fused, slice {}", slice_width);
        }
    }

    /// The gemmlowp-style convolution is the exact integer sum, whatever
    /// the geometry and however the GEMM blocks its columns.
    #[test]
    fn lowp_conv_is_the_exact_integer_sum(case in case(), zp in 0i32..256) {
        let mut rng = lcg(case.seed);
        let input: Tensor<u8> = Tensor::from_fn(case.shape, |_, _, _| (rng().abs() * 512.0) as u8);
        let weights = Mat::from_fn(
            case.out_c,
            case.geom.dot_length(case.shape.channels),
            |_, _| (rng() * 254.0).clamp(-127.0, 127.0) as i8,
        );
        let got = conv_lowp_im2col(&input, &weights, zp, case.geom).expect("valid");
        let deltas = input.map(|v| (i32::from(v) - zp) as f32);
        let exact = conv_reference(
            &deltas,
            &weights.map(f32::from),
            &vec![0.0; case.out_c],
            case.geom,
        )
        .expect("valid");
        // |sum| < 2^24, so the float reference carries the integers exactly.
        prop_assert_eq!(got.map(|v| v as f32), exact);
    }

    /// Rung 5 = rung 2 exactly, and rung 6 within its rounding budget
    /// (27 products, each off by at most half a shifted unit), at both
    /// strides and at widths no lane count divides.
    #[test]
    fn first_layer_integer_rungs_agree_with_gemmlowp(
        width in prop_oneof![Just(1usize), Just(5), Just(17), Just(33)],
        height in 1usize..7,
        stride in 1usize..3,
        zp in prop_oneof![Just(0i32), Just(255), 0i32..256],
        seed in any::<u64>()
    ) {
        let mut rng = lcg(seed);
        let weights = Mat::from_fn(16, 27, |_, _| rng());
        let kernel = FirstLayerKernel::new(&weights, &[0.0; 16]).expect("16x27");
        let scale = kernel.weight_scale();
        let weights_q = weights.map(|w| (w / scale).round().clamp(-127.0, 127.0) as i8);
        let input: Tensor<u8> =
            Tensor::from_fn(Shape3::new(3, height, width), |_, _, _| (rng().abs() * 512.0) as u8);
        let geom = ConvGeom::same(3, stride);
        let acc32 = kernel.accumulate_i32(&input, zp, geom).expect("valid");
        prop_assert_eq!(&acc32, &conv_lowp_im2col(&input, &weights_q, zp, geom).expect("valid"));
        let acc16 = kernel.accumulate_i16(&input, zp, geom).expect("valid");
        prop_assert_eq!(acc16.shape(), acc32.shape());
        for (&a16, &a32) in acc16.as_slice().iter().zip(acc32.as_slice()) {
            prop_assert!((i32::from(a16) * 16 - a32).abs() <= 27 * 8, "acc16 {} vs acc32 {}", a16, a32);
        }
    }

    /// Linearity of convolution: conv(a+b) == conv(a) + conv(b) with zero
    /// bias — a structural property any correct implementation satisfies.
    #[test]
    fn convolution_is_linear(case in case()) {
        let mut rng = lcg(case.seed);
        let a = Tensor::from_fn(case.shape, |_, _, _| rng());
        let b = Tensor::from_fn(case.shape, |_, _, _| rng());
        let weights = Mat::from_fn(case.out_c, case.geom.dot_length(case.shape.channels), |_, _| rng());
        let bias = vec![0.0f32; case.out_c];
        let sum_in = Tensor::from_vec(
            case.shape,
            a.as_slice().iter().zip(b.as_slice()).map(|(x, y)| x + y).collect(),
        ).expect("same shape");
        let conv_sum = conv_reference(&sum_in, &weights, &bias, case.geom).expect("valid");
        let ca = conv_reference(&a, &weights, &bias, case.geom).expect("valid");
        let cb = conv_reference(&b, &weights, &bias, case.geom).expect("valid");
        let sum_conv = Tensor::from_vec(
            conv_sum.shape(),
            ca.as_slice().iter().zip(cb.as_slice()).map(|(x, y)| x + y).collect(),
        ).expect("same shape");
        prop_assert!(conv_sum.max_abs_diff(&sum_conv) < 1e-3);
    }
}
