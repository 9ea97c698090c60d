//! The fully customized first-layer kernel (§III-D).
//!
//! "The weight matrix of the first convolutional layer has a rather small
//! dimension of 16×27. The 16 divides nicely by all lane counts that a NEON
//! implementation might use, and 27 is small enough to be unrolled
//! explicitly." This module is that kernel, in the paper's three precision
//! variants:
//!
//! | variant | accumulator | paper result |
//! |---|---|---|
//! | [`FirstLayerKernel::forward_f32`] | f32 | 620 ms → 160 ms (3.8×) |
//! | [`FirstLayerKernel::accumulate_i32`] | i32 | 140 ms |
//! | [`FirstLayerKernel::accumulate_i16`] | i16 + `vrshr #4` | 120 ms, small accuracy loss |
//!
//! The 16-bit variant performs a rounding right shift by 4 on every product
//! *before* accumulation to avoid destructive overflow across the 27 terms;
//! the paper keeps the float variant available "as drop in reference for
//! case-to-case evaluation" — so do we.

use crate::lanes::F32x4;
use crate::popcount::{Isa, IsaKernel};
use tincy_tensor::{ConvGeom, Mat, Tensor, TensorError};

/// Number of output channels of the first layer.
pub const OUT_CHANNELS: usize = 16;
/// Dot-product length: 3×3 kernel over 3 image channels.
pub const DOT_LENGTH: usize = 27;
/// The integer variants take their taps two per pass over a row of
/// accumulators; the odd one out is paired with a zero weight.
const TAP_PAIRS: usize = DOT_LENGTH.div_ceil(2);

/// The specialized 16×27 first-layer convolution kernel.
#[derive(Debug, Clone)]
pub struct FirstLayerKernel {
    /// Weights transposed to `[k][oc]` so each dot-product step is one
    /// broadcast-multiply across output-channel lanes.
    wt: [[f32; OUT_CHANNELS]; DOT_LENGTH],
    /// Symmetrically quantized weights (`±127`), one row of tap pairs per
    /// output channel, already widened to the 16-bit lanes they multiply in.
    wq: [[[i16; 2]; TAP_PAIRS]; OUT_CHANNELS],
    /// Real value of one quantized weight unit.
    w_scale: f32,
    bias: [f32; OUT_CHANNELS],
}

impl FirstLayerKernel {
    /// Builds the kernel from a `16 × 27` weight matrix and 16 biases.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IncompatibleGeometry`] if the dimensions are
    /// not exactly 16×27 / 16.
    pub fn new(weights: &Mat<f32>, bias: &[f32]) -> Result<Self, TensorError> {
        if weights.rows() != OUT_CHANNELS || weights.cols() != DOT_LENGTH {
            return Err(TensorError::IncompatibleGeometry {
                what: format!(
                    "first-layer kernel requires 16x27 weights, got {}x{}",
                    weights.rows(),
                    weights.cols()
                ),
            });
        }
        if bias.len() != OUT_CHANNELS {
            return Err(TensorError::IncompatibleGeometry {
                what: format!("first-layer kernel requires 16 biases, got {}", bias.len()),
            });
        }
        let max_abs = weights
            .as_slice()
            .iter()
            .fold(0.0f32, |m, &w| m.max(w.abs()))
            .max(f32::MIN_POSITIVE);
        let w_scale = max_abs / 127.0;
        let mut wt = [[0.0f32; OUT_CHANNELS]; DOT_LENGTH];
        let mut wq = [[[0i16; 2]; TAP_PAIRS]; OUT_CHANNELS];
        for oc in 0..OUT_CHANNELS {
            for k in 0..DOT_LENGTH {
                let w = weights.at(oc, k);
                wt[k][oc] = w;
                wq[oc][k / 2][k % 2] = (w / w_scale).round().clamp(-127.0, 127.0) as i16;
            }
        }
        let mut b = [0.0f32; OUT_CHANNELS];
        b.copy_from_slice(bias);
        Ok(Self {
            wt,
            wq,
            w_scale,
            bias: b,
        })
    }

    /// Real value of one quantized-weight unit.
    pub fn weight_scale(&self) -> f32 {
        self.w_scale
    }

    fn check_input<T: Copy>(&self, input: &Tensor<T>, geom: ConvGeom) -> Result<(), TensorError> {
        if input.shape().channels != 3 || geom.kernel != 3 {
            return Err(TensorError::IncompatibleGeometry {
                what: format!(
                    "first-layer kernel expects 3 input channels and kernel 3, got {} / {}",
                    input.shape().channels,
                    geom.kernel
                ),
            });
        }
        geom.validate(input.shape())
    }

    /// Gathers the 27-element footprint at output position `(oy, ox)`.
    #[inline]
    fn gather(
        input: &Tensor<f32>,
        geom: ConvGeom,
        oy: usize,
        ox: usize,
        buf: &mut [f32; DOT_LENGTH],
    ) {
        let mut k = 0;
        for c in 0..3 {
            for ky in 0..3 {
                for kx in 0..3 {
                    let iy = (oy * geom.stride + ky) as isize - geom.pad as isize;
                    let ix = (ox * geom.stride + kx) as isize - geom.pad as isize;
                    buf[k] = input.at_padded(c, iy, ix);
                    k += 1;
                }
            }
        }
    }

    /// Float variant: 16 channels as four `F32x4` accumulators, the
    /// 27-step dot product fully unrolled by the compiler.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError`] if the input is not a 3-channel map or the
    /// geometry is not a 3×3 kernel.
    pub fn forward_f32(
        &self,
        input: &Tensor<f32>,
        geom: ConvGeom,
    ) -> Result<Tensor<f32>, TensorError> {
        self.check_input(input, geom)?;
        let out_shape = geom.output_shape(input.shape(), OUT_CHANNELS);
        let mut out = Tensor::zeros(out_shape);
        let spatial = out_shape.spatial();
        let mut x = [0.0f32; DOT_LENGTH];
        for oy in 0..out_shape.height {
            for ox in 0..out_shape.width {
                Self::gather(input, geom, oy, ox, &mut x);
                let mut acc = [
                    F32x4::load(&self.bias[0..]),
                    F32x4::load(&self.bias[4..]),
                    F32x4::load(&self.bias[8..]),
                    F32x4::load(&self.bias[12..]),
                ];
                for k in 0..DOT_LENGTH {
                    let xv = F32x4::splat(x[k]);
                    acc[0] = acc[0].mla(xv, F32x4::load(&self.wt[k][0..]));
                    acc[1] = acc[1].mla(xv, F32x4::load(&self.wt[k][4..]));
                    acc[2] = acc[2].mla(xv, F32x4::load(&self.wt[k][8..]));
                    acc[3] = acc[3].mla(xv, F32x4::load(&self.wt[k][12..]));
                }
                let pix = oy * out_shape.width + ox;
                for v in 0..4 {
                    for lane in 0..4 {
                        out.as_mut_slice()[(v * 4 + lane) * spatial + pix] = acc[v].0[lane];
                    }
                }
            }
        }
        Ok(out)
    }

    /// The integer variants' schedule: the paper's sliced im2col with the
    /// slice as wide as one output row. Per output row the 27 taps become
    /// 27 rows of `out_w` zero-point-free 16-bit deltas (padding is a zero
    /// delta), then every output channel's row of the CHW result takes
    /// `mac(acc_row, [w0, w1], deltas0, deltas1)` once per pair of taps —
    /// contiguous pixels in every lane, no gather and no scatter. Runs
    /// under [`Isa::detect`].
    fn row_sliced<A: Copy + Default>(
        &self,
        input: &Tensor<u8>,
        zero_point: i32,
        geom: ConvGeom,
        mac: impl Fn(&mut [A], [i16; 2], &[i16], &[i16]),
    ) -> Result<Tensor<A>, TensorError> {
        self.check_input(input, geom)?;
        let zero_point = i16::from(crate::conv::check_zero_point(zero_point)?);
        Ok(Isa::detect().run(RowSliced {
            wq: &self.wq,
            input,
            zero_point,
            geom,
            mac,
            acc: std::marker::PhantomData,
        }))
    }

    /// 8-bit variant with exact 32-bit accumulation. Returns raw
    /// accumulators; combine with [`FirstLayerKernel::dequantize_i32`].
    ///
    /// # Errors
    ///
    /// Returns [`TensorError`] on shape/geometry mismatch, or if
    /// `zero_point` is outside `0..=255`.
    pub fn accumulate_i32(
        &self,
        input: &Tensor<u8>,
        zero_point: i32,
        geom: ConvGeom,
    ) -> Result<Tensor<i32>, TensorError> {
        self.row_sliced(input, zero_point, geom, |acc_row: &mut [i32], w, d0, d1| {
            for ((acc, &d0), &d1) in acc_row.iter_mut().zip(d0).zip(d1) {
                // Each product fits its 16-bit lane (see `shifted_product`);
                // only the sum needs the 32-bit one.
                *acc += i32::from(w[0] * d0) + i32::from(w[1] * d1);
            }
        })
    }

    /// 8-bit variant with 16-bit accumulation: every product is rounding-
    /// right-shifted by 4 (`vrshr #4`) before a saturating accumulate, so the
    /// result carries an implicit factor of 1/16 and "some small loss of
    /// detection accuracy" (§III-D). Combine with
    /// [`FirstLayerKernel::dequantize_i16`].
    ///
    /// # Errors
    ///
    /// Returns [`TensorError`] on shape/geometry mismatch, or if
    /// `zero_point` is outside `0..=255`.
    pub fn accumulate_i16(
        &self,
        input: &Tensor<u8>,
        zero_point: i32,
        geom: ConvGeom,
    ) -> Result<Tensor<i16>, TensorError> {
        self.row_sliced(input, zero_point, geom, |acc_row: &mut [i16], w, d0, d1| {
            for ((acc, &d0), &d1) in acc_row.iter_mut().zip(d0).zip(d1) {
                *acc = acc
                    .saturating_add(shifted_product(w[0], d0))
                    .saturating_add(shifted_product(w[1], d1));
            }
        })
    }

    /// Converts 32-bit accumulators to real outputs: `acc·(w_scale·a_scale) + bias`.
    pub fn dequantize_i32(&self, acc: &Tensor<i32>, a_scale: f32) -> Tensor<f32> {
        self.dequantize_scaled(acc, |v| v as f32, a_scale, 1.0)
    }

    /// Converts 16-bit accumulators to real outputs, compensating the
    /// implicit 1/16 factor of the pre-shift.
    pub fn dequantize_i16(&self, acc: &Tensor<i16>, a_scale: f32) -> Tensor<f32> {
        self.dequantize_scaled(acc, f32::from, a_scale, 16.0)
    }

    fn dequantize_scaled<A: Copy>(
        &self,
        acc: &Tensor<A>,
        to_f32: impl Fn(A) -> f32,
        a_scale: f32,
        factor: f32,
    ) -> Tensor<f32> {
        let spatial = acc.shape().spatial().max(1);
        let scale = self.w_scale * a_scale * factor;
        let mut out = Tensor::zeros(acc.shape());
        let channels = out
            .as_mut_slice()
            .chunks_mut(spatial)
            .zip(acc.as_slice().chunks(spatial));
        for ((out, acc), &bias) in channels.zip(&self.bias) {
            for (out, &acc) in out.iter_mut().zip(acc) {
                *out = to_f32(acc) * scale + bias;
            }
        }
        out
    }
}

/// [`FirstLayerKernel::row_sliced`]'s body, for the [`Isa`] dispatch.
struct RowSliced<'a, A, M> {
    wq: &'a [[[i16; 2]; TAP_PAIRS]; OUT_CHANNELS],
    input: &'a Tensor<u8>,
    zero_point: i16,
    geom: ConvGeom,
    mac: M,
    acc: std::marker::PhantomData<A>,
}

impl<A, M> IsaKernel for RowSliced<'_, A, M>
where
    A: Copy + Default,
    M: Fn(&mut [A], [i16; 2], &[i16], &[i16]),
{
    type Output = Tensor<A>;

    #[inline(always)]
    fn run(self) -> Tensor<A> {
        let Self {
            wq,
            input,
            zero_point,
            geom,
            mac,
            ..
        } = self;
        let out_shape = geom.output_shape(input.shape(), OUT_CHANNELS);
        let (out_h, out_w) = (out_shape.height, out_shape.width);
        let mut out = Tensor::zeros(out_shape);
        // The row past the 27th tap is the zero weight's and stays zero.
        let mut slice = vec![0i16; 2 * TAP_PAIRS * out_w];
        for oy in 0..out_h {
            // The kernel's two strides (§III-D's 1, transformation (d)'s 2)
            // as literals: the strided read becomes a de-interleave.
            match geom.stride {
                1 => fill_slice(&mut slice, out_w, input, zero_point, oy, 1, geom.pad),
                2 => fill_slice(&mut slice, out_w, input, zero_point, oy, 2, geom.pad),
                stride => fill_slice(&mut slice, out_w, input, zero_point, oy, stride, geom.pad),
            }
            for (oc, pairs) in wq.iter().enumerate() {
                let acc_row = &mut out.as_mut_slice()[(oc * out_h + oy) * out_w..][..out_w];
                for (&w, deltas) in pairs.iter().zip(slice.chunks_exact(2 * out_w)) {
                    let (deltas0, deltas1) = deltas.split_at(out_w);
                    mac(acc_row, w, deltas0, deltas1);
                }
            }
        }
        out
    }
}

/// Fills the first 27 rows of `slice` (`out_w` deltas each) with the taps
/// of output row `oy`: input coordinates are `o·stride + k − pad`, and the
/// taps that fall on the border keep a zero delta.
#[inline(always)]
fn fill_slice(
    slice: &mut [i16],
    out_w: usize,
    input: &Tensor<u8>,
    zero_point: i16,
    oy: usize,
    stride: usize,
    pad: usize,
) {
    let shape = input.shape();
    let tap_rows = slice.chunks_exact_mut(out_w).take(DOT_LENGTH);
    for (k, deltas) in tap_rows.enumerate() {
        let (c, ky, kx) = (k / 9, k / 3 % 3, k % 3);
        deltas.fill(0);
        let Some(iy) = (oy * stride + ky).checked_sub(pad) else {
            continue;
        };
        if iy >= shape.height {
            continue;
        }
        let row = &input.channel(c)[iy * shape.width..][..shape.width];
        let first = pad.saturating_sub(kx).div_ceil(stride);
        let inside = (
            row.get(first * stride + kx - pad..),
            deltas.get_mut(first..),
        );
        if let (Some(taps), Some(deltas)) = inside {
            for (delta, &v) in deltas.iter_mut().zip(taps.iter().step_by(stride)) {
                *delta = i16::from(v) - zero_point;
            }
        }
    }
}

/// `vrshr #4` of one weight × delta product, entirely in a 16-bit lane:
/// `|w·d| ≤ 127·255 = 32 385`, so neither the product nor the rounding
/// constant added to it can leave the `i16` range.
#[inline(always)]
fn shifted_product(w: i16, d: i16) -> i16 {
    (w * d + 8) >> 4
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conv::conv_reference;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use tincy_quant::AffineQuant;
    use tincy_tensor::Shape3;

    fn setup(rng: &mut StdRng) -> (Mat<f32>, Vec<f32>, FirstLayerKernel) {
        let weights = Mat::from_fn(16, 27, |_, _| rng.gen_range(-1.0f32..1.0));
        let bias: Vec<f32> = (0..16).map(|_| rng.gen_range(-0.2..0.2)).collect();
        let kernel = FirstLayerKernel::new(&weights, &bias).unwrap();
        (weights, bias, kernel)
    }

    #[test]
    fn dimension_checks() {
        let bad = Mat::<f32>::zeros(16, 25);
        assert!(FirstLayerKernel::new(&bad, &[0.0; 16]).is_err());
        let good = Mat::<f32>::zeros(16, 27);
        assert!(FirstLayerKernel::new(&good, &[0.0; 15]).is_err());
        assert!(FirstLayerKernel::new(&good, &[0.0; 16]).is_ok());
    }

    #[test]
    fn float_variant_matches_reference_stride_one_and_two() {
        let mut rng = StdRng::seed_from_u64(31);
        let (weights, bias, kernel) = setup(&mut rng);
        let input = Tensor::from_fn(Shape3::new(3, 10, 12), |_, _, _| rng.gen_range(0.0..1.0));
        for geom in [ConvGeom::same(3, 1), ConvGeom::same(3, 2)] {
            let fast = kernel.forward_f32(&input, geom).unwrap();
            let reference = conv_reference(&input, &weights, &bias, geom).unwrap();
            assert!(fast.max_abs_diff(&reference) < 1e-4, "geom {geom:?}");
        }
    }

    #[test]
    fn i32_variant_tracks_float_within_quantization_error() {
        let mut rng = StdRng::seed_from_u64(32);
        let (weights, bias, kernel) = setup(&mut rng);
        let geom = ConvGeom::same(3, 2);
        let input_f = Tensor::from_fn(Shape3::new(3, 8, 8), |_, _, _| rng.gen_range(0.0..1.0));
        let q = AffineQuant::fit(0.0, 1.0).unwrap();
        let input_q = input_f.map(|v| q.quantize(v));

        let acc = kernel
            .accumulate_i32(&input_q, q.zero_point(), geom)
            .unwrap();
        let out = kernel.dequantize_i32(&acc, q.scale());
        let reference = conv_reference(&input_f, &weights, &bias, geom).unwrap();
        assert!(out.max_abs_diff(&reference) < 0.1);
    }

    #[test]
    fn i16_variant_is_sixteenth_of_i32_within_rounding() {
        let mut rng = StdRng::seed_from_u64(33);
        let (_, _, kernel) = setup(&mut rng);
        let geom = ConvGeom::same(3, 1);
        let input: Tensor<u8> = Tensor::from_fn(Shape3::new(3, 6, 6), |_, _, _| rng.gen());
        let zp = 128;
        let acc32 = kernel.accumulate_i32(&input, zp, geom).unwrap();
        let acc16 = kernel.accumulate_i16(&input, zp, geom).unwrap();
        for (a32, a16) in acc32.as_slice().iter().zip(acc16.as_slice()) {
            // 27 products each rounded by at most 1/2 unit of the shifted
            // scale: |acc16·16 − acc32| ≤ 27·8.
            assert!(
                (*a16 as i32 * 16 - a32).abs() <= 27 * 8,
                "acc16 {a16} vs acc32 {a32}"
            );
        }
    }

    #[test]
    fn i16_variant_carries_small_accuracy_loss_but_not_divergence() {
        let mut rng = StdRng::seed_from_u64(34);
        let (weights, bias, kernel) = setup(&mut rng);
        let geom = ConvGeom::same(3, 2);
        let input_f = Tensor::from_fn(Shape3::new(3, 8, 8), |_, _, _| rng.gen_range(0.0..1.0));
        let q = AffineQuant::fit(0.0, 1.0).unwrap();
        let input_q = input_f.map(|v| q.quantize(v));
        let acc = kernel
            .accumulate_i16(&input_q, q.zero_point(), geom)
            .unwrap();
        let out = kernel.dequantize_i16(&acc, q.scale());
        let reference = conv_reference(&input_f, &weights, &bias, geom).unwrap();
        let err16 = out.max_abs_diff(&reference);
        // Bounded, but measurably above the i32 path's error.
        assert!(err16 < 0.5, "i16 error {err16} too large");
        let acc32 = kernel
            .accumulate_i32(&input_q, q.zero_point(), geom)
            .unwrap();
        let out32 = kernel.dequantize_i32(&acc32, q.scale());
        assert!(out32.max_abs_diff(&reference) <= err16 + 1e-6);
    }

    #[test]
    fn zero_point_outside_u8_is_an_error_not_a_wrapped_pad() {
        let mut rng = StdRng::seed_from_u64(36);
        let (_, _, kernel) = setup(&mut rng);
        let input = Tensor::<u8>::zeros(Shape3::new(3, 4, 4));
        let geom = ConvGeom::same(3, 1);
        for zero_point in [-1, 256] {
            assert!(kernel.accumulate_i32(&input, zero_point, geom).is_err());
            assert!(kernel.accumulate_i16(&input, zero_point, geom).is_err());
        }
        assert!(kernel.accumulate_i32(&input, 255, geom).is_ok());
        assert!(kernel.accumulate_i16(&input, 0, geom).is_ok());
    }

    #[test]
    fn shifted_product_is_vrshr_over_the_whole_product_domain() {
        for w in -127i16..=127 {
            for d in -255i16..=255 {
                assert_eq!(
                    shifted_product(w, d),
                    tincy_quant::rounding_right_shift_i16(w * d, 4),
                    "{w} x {d}"
                );
            }
        }
    }

    #[test]
    fn rejects_wrong_channel_count() {
        let mut rng = StdRng::seed_from_u64(35);
        let (_, _, kernel) = setup(&mut rng);
        let input = Tensor::<f32>::zeros(Shape3::new(4, 8, 8));
        assert!(kernel.forward_f32(&input, ConvGeom::same(3, 1)).is_err());
    }
}
