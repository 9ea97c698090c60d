//! Convolution entry points and the direct-loop golden reference.
//!
//! Weight layout convention used throughout the workspace: a convolutional
//! layer with `C'` output channels, `C` input channels and kernel `K` stores
//! its weights as a `C' × (K²·C)` matrix whose rows are linearized kernels in
//! channel-major `(c, ky, kx)` order — exactly matching the row order of
//! [`tincy_tensor::im2col`].

use crate::gemm::gemm_f32;
use crate::lowp::gemm_lowp;
use tincy_tensor::{im2col, im2col_with_pad, ConvGeom, Mat, Shape3, Tensor, TensorError};

/// Direct-loop convolution: the golden reference all other implementations
/// are verified against.
///
/// # Errors
///
/// Returns [`TensorError`] if the weight matrix does not match the geometry
/// or the geometry does not fit the input.
pub fn conv_reference(
    input: &Tensor<f32>,
    weights: &Mat<f32>,
    bias: &[f32],
    geom: ConvGeom,
) -> Result<Tensor<f32>, TensorError> {
    check_weights(
        input.shape(),
        weights.rows(),
        weights.cols(),
        bias.len(),
        geom,
    )?;
    let in_shape = input.shape();
    let out_shape = geom.output_shape(in_shape, weights.rows());
    let mut out = Tensor::zeros(out_shape);
    for oc in 0..out_shape.channels {
        let w_row = weights.row(oc);
        for oy in 0..out_shape.height {
            for ox in 0..out_shape.width {
                let mut acc = bias[oc];
                for c in 0..in_shape.channels {
                    for ky in 0..geom.kernel {
                        for kx in 0..geom.kernel {
                            let iy = (oy * geom.stride + ky) as isize - geom.pad as isize;
                            let ix = (ox * geom.stride + kx) as isize - geom.pad as isize;
                            let w = w_row[(c * geom.kernel + ky) * geom.kernel + kx];
                            acc += w * input.at_padded(c, iy, ix);
                        }
                    }
                }
                *out.at_mut(oc, oy, ox) = acc;
            }
        }
    }
    Ok(out)
}

/// Darknet's generic float convolution: explicit `im2col` + scalar GEMM —
/// the 1.0× of §III-D's progression. Identical to [`conv_reference`] up to
/// floating-point association order.
///
/// # Errors
///
/// Returns [`TensorError`] on any geometry/shape mismatch.
pub fn conv_im2col_gemm(
    input: &Tensor<f32>,
    weights: &Mat<f32>,
    bias: &[f32],
    geom: ConvGeom,
) -> Result<Tensor<f32>, TensorError> {
    check_weights(
        input.shape(),
        weights.rows(),
        weights.cols(),
        bias.len(),
        geom,
    )?;
    let cols = im2col(input, geom)?;
    let out_shape = geom.output_shape(input.shape(), weights.rows());
    let mut data = gemm_f32(weights, &cols).into_vec();
    let spatial = out_shape.spatial();
    for (i, v) in data.iter_mut().enumerate() {
        *v += bias[i / spatial];
    }
    Tensor::from_vec(out_shape, data)
}

/// Quantized convolution through explicit `im2col` + low-precision GEMM —
/// the gemmlowp-based attempt of §III-D. Padding uses the activation zero
/// point. Returns raw `i32` accumulators.
///
/// # Errors
///
/// Returns [`TensorError`] on any geometry/shape mismatch, or if
/// `zero_point` is outside `0..=255`.
pub fn conv_lowp_im2col(
    input: &Tensor<u8>,
    weights: &Mat<i8>,
    zero_point: i32,
    geom: ConvGeom,
) -> Result<Tensor<i32>, TensorError> {
    check_weights(
        input.shape(),
        weights.rows(),
        weights.cols(),
        weights.rows(),
        geom,
    )?;
    let zero_point = check_zero_point(zero_point)?;
    let cols = im2col_with_pad(input, geom, zero_point)?;
    let acc = gemm_lowp(weights, &cols, zero_point);
    let out_shape = geom.output_shape(input.shape(), weights.rows());
    Tensor::from_vec(out_shape, acc.into_vec())
}

/// The zero point as the activation byte it must be: a value outside
/// `0..=255` would otherwise wrap into a different, valid padding value.
pub(crate) fn check_zero_point(zero_point: i32) -> Result<u8, TensorError> {
    u8::try_from(zero_point).map_err(|_| TensorError::IncompatibleGeometry {
        what: format!("zero point {zero_point} is not a u8 activation"),
    })
}

pub(crate) fn check_weights(
    input: Shape3,
    rows: usize,
    cols: usize,
    bias_len: usize,
    geom: ConvGeom,
) -> Result<(), TensorError> {
    geom.validate(input)?;
    let expected = geom.dot_length(input.channels);
    if cols != expected {
        return Err(TensorError::IncompatibleGeometry {
            what: format!("weight row length {cols} does not match K^2*C = {expected}"),
        });
    }
    if bias_len != rows {
        return Err(TensorError::IncompatibleGeometry {
            what: format!("bias length {bias_len} does not match output channels {rows}"),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_case(
        rng: &mut StdRng,
        shape: Shape3,
        out_c: usize,
        geom: ConvGeom,
    ) -> (Tensor<f32>, Mat<f32>, Vec<f32>) {
        let input = Tensor::from_fn(shape, |_, _, _| rng.gen_range(-1.0..1.0));
        let weights = Mat::from_fn(out_c, geom.dot_length(shape.channels), |_, _| {
            rng.gen_range(-1.0..1.0)
        });
        let bias: Vec<f32> = (0..out_c).map(|_| rng.gen_range(-0.5..0.5)).collect();
        (input, weights, bias)
    }

    #[test]
    fn identity_kernel_passes_input_through() {
        // 1x1 kernel with identity weights copies channels.
        let input = Tensor::from_fn(Shape3::new(2, 3, 3), |c, y, x| (c * 9 + y * 3 + x) as f32);
        let weights = Mat::from_fn(2, 2, |r, c| if r == c { 1.0 } else { 0.0 });
        let out = conv_reference(&input, &weights, &[0.0, 0.0], ConvGeom::new(1, 1, 0)).unwrap();
        assert_eq!(out, input);
    }

    #[test]
    fn generic_and_fused_agree_with_reference() {
        let mut rng = StdRng::seed_from_u64(3);
        let cases = [
            (Shape3::new(3, 8, 8), 16, ConvGeom::same(3, 1)),
            (Shape3::new(3, 9, 7), 16, ConvGeom::same(3, 2)),
            (Shape3::new(4, 6, 6), 5, ConvGeom::new(2, 2, 0)),
            (Shape3::new(8, 5, 5), 3, ConvGeom::new(1, 1, 0)),
        ];
        for (shape, out_c, geom) in cases {
            let (input, weights, bias) = random_case(&mut rng, shape, out_c, geom);
            let reference = conv_reference(&input, &weights, &bias, geom).unwrap();
            let generic = conv_im2col_gemm(&input, &weights, &bias, geom).unwrap();
            assert!(generic.max_abs_diff(&reference) < 1e-4, "{shape:?}");
            for slice_width in [4, 7] {
                let fused =
                    crate::fused_conv_f32(&input, &weights, &bias, geom, slice_width).unwrap();
                assert!(
                    fused.max_abs_diff(&reference) < 1e-4,
                    "slice width {slice_width} diverges on {shape:?}"
                );
            }
        }
    }

    #[test]
    fn lowp_conv_padding_uses_zero_point() {
        // With all-zero real activations (quantized to the zero point), any
        // padding must also contribute zero.
        let zp = 100;
        let input = Tensor::filled(Shape3::new(1, 3, 3), zp as u8);
        let weights = Mat::from_fn(1, 9, |_, _| 1i8);
        let acc = conv_lowp_im2col(&input, &weights, zp, ConvGeom::same(3, 1)).unwrap();
        assert!(
            acc.as_slice().iter().all(|&v| v == 0),
            "{:?}",
            acc.as_slice()
        );
    }

    #[test]
    fn lowp_conv_rejects_a_zero_point_that_is_not_a_u8() {
        let input = Tensor::<u8>::zeros(Shape3::new(1, 3, 3));
        let weights = Mat::from_fn(1, 9, |_, _| 1i8);
        for zero_point in [-1, 256] {
            assert!(conv_lowp_im2col(&input, &weights, zero_point, ConvGeom::same(3, 1)).is_err());
        }
    }

    #[test]
    fn lowp_conv_matches_float_reference() {
        let mut rng = StdRng::seed_from_u64(5);
        let shape = Shape3::new(3, 6, 6);
        let geom = ConvGeom::same(3, 1);
        let input_f = Tensor::from_fn(shape, |_, _, _| rng.gen_range(0.0f32..1.0));
        let w_scale = 1.0 / 127.0;
        let weights_f = Mat::from_fn(4, geom.dot_length(3), |_, _| rng.gen_range(-1.0f32..1.0));
        let q = tincy_quant::AffineQuant::fit(0.0, 1.0).unwrap();

        let input_q = input_f.map(|v| q.quantize(v));
        let weights_q = weights_f.map(|v| (v / w_scale).round().clamp(-127.0, 127.0) as i8);

        let acc = conv_lowp_im2col(&input_q, &weights_q, q.zero_point(), geom).unwrap();
        let out = acc.map(|v| v as f32 * w_scale * q.scale());
        let reference = conv_reference(&input_f, &weights_f, &[0.0; 4], geom).unwrap();
        assert!(out.max_abs_diff(&reference) < 0.08);
    }

    #[test]
    fn shape_validation_errors() {
        let input = Tensor::<f32>::zeros(Shape3::new(3, 4, 4));
        let weights = Mat::<f32>::zeros(2, 10); // wrong: should be 27
        let geom = ConvGeom::same(3, 1);
        assert!(conv_reference(&input, &weights, &[0.0; 2], geom).is_err());
        let weights = Mat::<f32>::zeros(2, 27);
        assert!(conv_reference(&input, &weights, &[0.0; 3], geom).is_err());
    }
}
