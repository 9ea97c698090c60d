//! Fused, sliced im2col + GEMM (§III-D).
//!
//! "We have sliced the `im2col` transformation to produce the multiplicand
//! matrix in vertical slices. The width of these slices is matched with the
//! number of vector lanes that can be processed in parallel so that the
//! corresponding slice of the result matrix can be produced row by row
//! computing parallel dot products. The following input slices can
//! subsequently re-use the same storage over and over until the matrix
//! computation is complete."
//!
//! The pay-off on an embedded platform with small caches is data locality:
//! the working set per slice is `K²·C · lanes` elements instead of the whole
//! inflated multiplicand.

use crate::lanes::F32x4;
use tincy_tensor::{ConvGeom, Im2colSlices, Mat, Tensor, TensorError};

/// Fused float convolution. Produces results identical to the explicit
/// `im2col` + GEMM path (up to float association) while only ever holding
/// one `slice_width`-column slice of the multiplicand.
///
/// # Errors
///
/// Returns [`TensorError`] on geometry/shape mismatch or zero slice width.
pub fn fused_conv_f32(
    input: &Tensor<f32>,
    weights: &Mat<f32>,
    bias: &[f32],
    geom: ConvGeom,
    slice_width: usize,
) -> Result<Tensor<f32>, TensorError> {
    crate::conv::check_weights(
        input.shape(),
        weights.rows(),
        weights.cols(),
        bias.len(),
        geom,
    )?;
    let out_shape = geom.output_shape(input.shape(), weights.rows());
    let spatial = out_shape.spatial();
    let mut out = Tensor::zeros(out_shape);
    let mut slices = Im2colSlices::new(input, geom, slice_width)?;
    let rows = slices.rows();
    while let Some((start, width)) = slices.next_slice() {
        for oc in 0..weights.rows() {
            let w_row = weights.row(oc);
            let base = oc * spatial + start;
            // Lane-parallel dot products across the slice columns: each
            // F32x4 register accumulates four adjacent output pixels.
            let mut i = 0;
            while i + F32x4::LANES <= width {
                let mut acc = F32x4::splat(bias[oc]);
                for (r, &w) in w_row.iter().enumerate().take(rows) {
                    acc = acc.mla(F32x4::splat(w), F32x4::load(&slices.row(r)[i..]));
                }
                acc.store(&mut out.as_mut_slice()[base + i..base + i + F32x4::LANES]);
                i += F32x4::LANES;
            }
            while i < width {
                let mut acc = bias[oc];
                for (r, &w) in w_row.iter().enumerate().take(rows) {
                    acc += w * slices.row(r)[i];
                }
                out.as_mut_slice()[base + i] = acc;
                i += 1;
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conv::conv_reference;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use tincy_tensor::Shape3;

    #[test]
    fn fused_float_matches_reference_across_slice_widths() {
        let mut rng = StdRng::seed_from_u64(21);
        let shape = Shape3::new(3, 7, 9);
        let geom = ConvGeom::same(3, 1);
        let input = Tensor::from_fn(shape, |_, _, _| rng.gen_range(-1.0f32..1.0));
        let weights = Mat::from_fn(16, 27, |_, _| rng.gen_range(-1.0f32..1.0));
        let bias: Vec<f32> = (0..16).map(|_| rng.gen_range(-0.5..0.5)).collect();
        let reference = conv_reference(&input, &weights, &bias, geom).unwrap();
        for slice_width in [1, 3, 4, 8, 16, 1000] {
            let fused = fused_conv_f32(&input, &weights, &bias, geom, slice_width).unwrap();
            assert!(
                fused.max_abs_diff(&reference) < 1e-4,
                "slice width {slice_width} diverges"
            );
        }
    }

    #[test]
    fn zero_slice_width_is_an_error() {
        let input = Tensor::<f32>::zeros(Shape3::new(1, 4, 4));
        let weights = Mat::<f32>::zeros(1, 9);
        assert!(fused_conv_f32(&input, &weights, &[0.0], ConvGeom::same(3, 1), 0).is_err());
    }

    #[test]
    fn working_set_is_bounded_by_slice_width() {
        // The locality argument: one slice holds rows * slice_width
        // elements regardless of the output size.
        let input = Tensor::<f32>::zeros(Shape3::new(16, 64, 64));
        let geom = ConvGeom::same(3, 1);
        let slices = Im2colSlices::new(&input, geom, 4).unwrap();
        assert_eq!(slices.rows(), 144);
        assert_eq!(slices.total_cols(), 64 * 64);
        // Full multiplicand would be 144 * 4096 elements; the slice buffer
        // holds only 144 * 4.
    }
}
