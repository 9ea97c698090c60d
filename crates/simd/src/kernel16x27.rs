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
/// Output pixels the integer variants accumulate at once: sixteen `i32`
/// accumulators of one output channel fill one 512-bit register, so a
/// block's sixteen channels stay in registers across all 27 taps.
const BLOCK: usize = 16;
/// The integer variants take their taps two per multiply-add, per input
/// channel and kernel row: taps `kx = 0, 1`, then `kx = 2` with a zero
/// weight.
const TAP_PAIRS: usize = 3 * 3 * 2;

/// The specialized 16×27 first-layer convolution kernel.
#[derive(Debug, Clone)]
pub struct FirstLayerKernel {
    /// Weights transposed to `[k][oc]` so each dot-product step is one
    /// broadcast-multiply across output-channel lanes.
    wt: [[f32; OUT_CHANNELS]; DOT_LENGTH],
    /// Symmetrically quantized weights (`±127`) per tap pair and output
    /// channel, widened to the 16-bit lanes they multiply in and repeated
    /// for each pixel of a block, so that a pair's products and their sum
    /// are one vector multiply-add over a block's interleaved deltas.
    wq: [[[i16; 2 * BLOCK]; OUT_CHANNELS]; TAP_PAIRS],
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
        let mut wq = [[[0i16; 2 * BLOCK]; OUT_CHANNELS]; TAP_PAIRS];
        for oc in 0..OUT_CHANNELS {
            for k in 0..DOT_LENGTH {
                let w = weights.at(oc, k);
                wt[k][oc] = w;
                // Tap `k = 9c + 3ky + kx` is lane `kx % 2` of pair
                // `2(3c + ky) + kx / 2`.
                let pair = &mut wq[2 * (k / 3) + k % 3 / 2][oc];
                let lane = k % 3 % 2;
                let q = (w / w_scale).round().clamp(-127.0, 127.0) as i16;
                for px in 0..BLOCK {
                    pair[2 * px + lane] = q;
                }
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

    /// The integer variants' schedule, under `isa`: each input row
    /// becomes zero-point-free 16-bit deltas once, in the layout a pair of
    /// taps multiplies in (see [`Blocked`]), and each output row is blocks
    /// of [`BLOCK`] pixels whose sixteen channels accumulate all 27 taps in
    /// registers before they are stored into the CHW result.
    fn blocked<R: Rung>(
        &self,
        isa: Isa,
        input: &Tensor<u8>,
        zero_point: i32,
        geom: ConvGeom,
    ) -> Result<Tensor<R::Out>, TensorError> {
        self.check_input(input, geom)?;
        let zero_point = i16::from(crate::conv::check_zero_point(zero_point)?);
        Ok(isa.run(Blocked::<R> {
            wq: &self.wq,
            input,
            zero_point,
            geom,
            rung: std::marker::PhantomData,
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
        self.accumulate_i32_on(Isa::detect(), input, zero_point, geom)
    }

    /// [`FirstLayerKernel::accumulate_i32`] under a given instruction set.
    ///
    /// # Errors
    ///
    /// As [`FirstLayerKernel::accumulate_i32`].
    pub fn accumulate_i32_on(
        &self,
        isa: Isa,
        input: &Tensor<u8>,
        zero_point: i32,
        geom: ConvGeom,
    ) -> Result<Tensor<i32>, TensorError> {
        self.blocked::<I32Rung>(isa, input, zero_point, geom)
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
        self.accumulate_i16_on(Isa::detect(), input, zero_point, geom)
    }

    /// [`FirstLayerKernel::accumulate_i16`] under a given instruction set.
    ///
    /// # Errors
    ///
    /// As [`FirstLayerKernel::accumulate_i16`].
    pub fn accumulate_i16_on(
        &self,
        isa: Isa,
        input: &Tensor<u8>,
        zero_point: i32,
        geom: ConvGeom,
    ) -> Result<Tensor<i16>, TensorError> {
        self.blocked::<I16Rung>(isa, input, zero_point, geom)
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

/// [`FirstLayerKernel::blocked`]'s body, for the [`Isa`] dispatch.
///
/// A pair of taps `(kx, kx + 1)` of input channel `c` and kernel row `ky`
/// reads, at output pixel `ox`, the deltas at padded input columns
/// `s·ox + kx` and `s·ox + kx + 1` of input row `s·oy + ky − pad`. Held
/// interleaved, `[d(s·ox + kx), d(s·ox + kx + 1)]` for consecutive `ox`,
/// they are a row the pair's weights multiply-add against without a
/// shuffle. Such a row depends on the input row and on `kx` only through
/// its phase `kx % s`, with the rest a shift of `kx / s` pixels, so every
/// input row is built once per channel and phase (one phase for strides 1
/// and 2, two for wider ones) and serves every output row that reads it.
/// A band of three input rows is enough for the three kernel rows of one
/// output row; rows in the padding read a shared zero row.
struct Blocked<'a, R> {
    wq: &'a [[[i16; 2 * BLOCK]; OUT_CHANNELS]; TAP_PAIRS],
    input: &'a Tensor<u8>,
    zero_point: i16,
    geom: ConvGeom,
    rung: std::marker::PhantomData<R>,
}

impl<R: Rung> IsaKernel for Blocked<'_, R> {
    type Output = Tensor<R::Out>;

    #[inline(always)]
    fn run(self) -> Tensor<R::Out> {
        let Self {
            wq,
            input,
            zero_point,
            geom,
            ..
        } = self;
        let in_shape = input.shape();
        let out_shape = geom.output_shape(in_shape, OUT_CHANNELS);
        let (out_h, out_w, stride) = (out_shape.height, out_shape.width, geom.stride);
        let mut out = Tensor::zeros(out_shape);
        let blocks = out_w.div_ceil(BLOCK);
        // A phase row holds every block's pixels and the widest shift (two
        // pixels at stride 1).
        let row_len = 2 * (BLOCK * blocks + 2);
        let phases = if stride <= 2 { 1 } else { 2 };
        let slot_len = 3 * phases * row_len;
        // Three slots of three channels' phase rows, then the zero row.
        let mut band = vec![0i16; 3 * slot_len + row_len];
        let mut held = [None; 3];
        let mut line = vec![0i16; stride * row_len / 2 + 2];
        for oy in 0..out_h {
            let rows: [Option<usize>; 3] = std::array::from_fn(|ky| {
                (oy * stride + ky)
                    .checked_sub(geom.pad)
                    .filter(|&iy| iy < in_shape.height)
            });
            // Rows arrive in ascending order, and the three of one output
            // row are consecutive, so `iy % 3` never evicts one in use.
            for iy in rows.into_iter().flatten() {
                let slot = iy % 3;
                if held[slot] != Some(iy) {
                    held[slot] = Some(iy);
                    let slot_rows =
                        band[slot * slot_len..][..slot_len].chunks_exact_mut(phases * row_len);
                    for (c, phase_rows) in slot_rows.enumerate() {
                        let pixels = &input.channel(c)[iy * in_shape.width..][..in_shape.width];
                        // The kernel's two strides (§III-D's 1,
                        // transformation (d)'s 2) as literals: the phase
                        // rows become a copy and an interleave.
                        match stride {
                            1 => fill_phase_rows(
                                phase_rows, &mut line, pixels, zero_point, 1, geom.pad,
                            ),
                            2 => fill_phase_rows(
                                phase_rows, &mut line, pixels, zero_point, 2, geom.pad,
                            ),
                            s => fill_phase_rows(
                                phase_rows, &mut line, pixels, zero_point, s, geom.pad,
                            ),
                        }
                    }
                }
            }
            let zero_row = &band[3 * slot_len..];
            let mut taps: [&[[i16; 2 * BLOCK]]; TAP_PAIRS] = [&[]; TAP_PAIRS];
            for (t, taps) in taps.iter_mut().enumerate() {
                let (c, ky, first) = (t / 6, t / 2 % 3, 2 * (t % 2));
                let row = match rows[ky] {
                    Some(iy) => {
                        let phase_row = c * phases + usize::from(first % stride != 0);
                        &band[iy % 3 * slot_len + phase_row * row_len..][..row_len]
                    }
                    None => zero_row,
                };
                *taps = row[2 * (first / stride)..][..2 * BLOCK * blocks]
                    .as_chunks::<{ 2 * BLOCK }>()
                    .0;
            }
            for block in 0..blocks {
                let mut acc = [R::ZERO; OUT_CHANNELS];
                for (tap_pair, weights) in taps.iter().zip(wq) {
                    let deltas = &tap_pair[block];
                    for (acc, w) in acc.iter_mut().zip(weights) {
                        R::mac(acc, w, deltas);
                    }
                }
                let first = block * BLOCK;
                let channels = out.as_mut_slice().chunks_exact_mut(out_h * out_w);
                if first + BLOCK <= out_w {
                    // A whole block is one vector store per channel.
                    for (plane, acc) in channels.zip(&acc) {
                        let pixels = &mut plane[oy * out_w + first..][..BLOCK];
                        *pixels.as_mut_array().expect("a block's width") = R::finish(acc);
                    }
                } else {
                    store_tail::<R>(channels, oy * out_w + first, out_w - first, acc);
                }
            }
        }
        out
    }
}

/// How one integer rung accumulates a block: the registers it holds per
/// output channel, one pair of taps, and the block's results.
trait Rung {
    /// The accumulator the rung returns.
    type Out: Copy + Default;
    /// One output channel's registers over a block.
    type Acc: Copy;
    /// `Acc` before the first tap.
    const ZERO: Self::Acc;
    /// Adds a pair of taps, `weights` and `deltas` interleaved per pixel.
    fn mac(acc: &mut Self::Acc, weights: &[i16; 2 * BLOCK], deltas: &[i16; 2 * BLOCK]);
    /// The block's results, pixel by pixel.
    fn finish(acc: &Self::Acc) -> [Self::Out; BLOCK];
}

/// Exact 32-bit accumulation.
struct I32Rung;

impl Rung for I32Rung {
    type Out = i32;
    type Acc = [i32; BLOCK];
    const ZERO: Self::Acc = [0; BLOCK];

    #[inline(always)]
    fn mac(acc: &mut Self::Acc, weights: &[i16; 2 * BLOCK], deltas: &[i16; 2 * BLOCK]) {
        // Every product, then the sum of each adjacent pair: the shape the
        // compiler turns into one 16-bit multiply-add into 32-bit lanes
        // (`vpmaddwd`/`pmaddwd`).
        let mut products = [0i32; 2 * BLOCK];
        for ((p, &w), &d) in products.iter_mut().zip(weights).zip(deltas) {
            *p = i32::from(w) * i32::from(d);
        }
        for (acc, pair) in acc.iter_mut().zip(products.as_chunks::<2>().0) {
            *acc += pair[0] + pair[1];
        }
    }

    #[inline(always)]
    fn finish(acc: &Self::Acc) -> [i32; BLOCK] {
        *acc
    }
}

/// 16-bit accumulation of `vrshr #4` products, saturating tap by tap.
struct I16Rung;

impl Rung for I16Rung {
    type Out = i16;
    /// The interleaved lanes of the deltas: the even lane of each pixel
    /// carries its sum, the odd one is never read.
    type Acc = [i16; 2 * BLOCK];
    const ZERO: Self::Acc = [0; 2 * BLOCK];

    #[inline(always)]
    fn mac(acc: &mut Self::Acc, weights: &[i16; 2 * BLOCK], deltas: &[i16; 2 * BLOCK]) {
        let mut products = [0i16; 2 * BLOCK];
        for ((p, &w), &d) in products.iter_mut().zip(weights).zip(deltas) {
            *p = shifted_product(w, d);
        }
        // Saturating sums do not reassociate, so the taps go in order:
        // `kx` in its own lane, then `kx + 1` moved down from the odd one.
        // Every lane-wise, no lane crosses a pixel. A zero weight's
        // product is zero.
        let next: [i16; 2 * BLOCK] =
            std::array::from_fn(|i| if i % 2 == 0 { products[i + 1] } else { 0 });
        for ((acc, &p), &n) in acc.iter_mut().zip(&products).zip(&next) {
            *acc = acc.saturating_add(p).saturating_add(n);
        }
    }

    #[inline(always)]
    fn finish(acc: &Self::Acc) -> [i16; BLOCK] {
        std::array::from_fn(|px| acc[2 * px])
    }
}

/// Stores the first `valid` pixels of a block in every channel, from
/// `at` on: the tail of an output row narrower than a whole number of
/// blocks. Kept out of line, so the whole blocks' stores stay vector
/// stores from registers and do not become a call to `memcpy`.
#[cold]
#[inline(never)]
fn store_tail<'a, R: Rung>(
    channels: impl Iterator<Item = &'a mut [R::Out]>,
    at: usize,
    valid: usize,
    acc: [R::Acc; OUT_CHANNELS],
) where
    R::Out: 'a,
{
    for (plane, acc) in channels.zip(&acc) {
        plane[at..][..valid].copy_from_slice(&R::finish(acc)[..valid]);
    }
}

/// Builds the phase rows of one channel of one input row: `line` becomes
/// the row's deltas at padded columns (zero in the padding), and phase row
/// `r` holds the pairs `[line[s·i + 2r], line[s·i + 2r + 1]]` for
/// consecutive `i`.
#[inline(always)]
fn fill_phase_rows(
    phase_rows: &mut [i16],
    line: &mut [i16],
    pixels: &[u8],
    zero_point: i16,
    stride: usize,
    pad: usize,
) {
    line.fill(0);
    if let Some(inside) = line.get_mut(pad..) {
        for (delta, &v) in inside.iter_mut().zip(pixels) {
            *delta = i16::from(v) - zero_point;
        }
    }
    let row_len = phase_rows.len() / if stride <= 2 { 1 } else { 2 };
    for (r, row) in phase_rows.chunks_exact_mut(row_len).enumerate() {
        let pairs = line[2 * r..].windows(2).step_by(stride);
        for (pair, deltas) in row.as_chunks_mut::<2>().0.iter_mut().zip(pairs) {
            *pair = [deltas[0], deltas[1]];
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

    /// Integer weights in `-127..=127` with one at `±127`, so the kernel's
    /// quantization returns them unchanged.
    fn integer_weights(rng: &mut StdRng) -> Mat<i16> {
        let mut q = Mat::from_fn(16, 27, |_, _| rng.gen_range(-127i16..=127));
        let (oc, k) = (rng.gen_range(0..16), rng.gen_range(0..27));
        *q.at_mut(oc, k) = if rng.gen() { 127 } else { -127 };
        q
    }

    /// The direct loop both integer rungs must match bit for bit: every
    /// tap in order `k = 9c + 3ky + kx`, padding as a zero delta, fed to
    /// `step(acc, weight, delta)`.
    fn naive<A: Copy + Default>(
        q: &Mat<i16>,
        input: &Tensor<u8>,
        zero_point: i16,
        geom: ConvGeom,
        step: impl Fn(A, i16, i16) -> A,
    ) -> Tensor<A> {
        let out_shape = geom.output_shape(input.shape(), 16);
        Tensor::from_fn(out_shape, |oc, oy, ox| {
            let mut acc = A::default();
            for k in 0..27 {
                let (c, ky, kx) = (k / 9, k / 3 % 3, k % 3);
                let iy = (oy * geom.stride + ky) as isize - geom.pad as isize;
                let ix = (ox * geom.stride + kx) as isize - geom.pad as isize;
                let inside = (0..input.shape().height as isize).contains(&iy)
                    && (0..input.shape().width as isize).contains(&ix);
                let delta = if inside {
                    i16::from(input.at(c, iy as usize, ix as usize)) - zero_point
                } else {
                    0
                };
                acc = step(acc, q.at(oc, k), delta);
            }
            acc
        })
    }

    /// Both integer rungs under every instruction set against [`naive`].
    fn assert_integer_rungs_exact(rng: &mut StdRng, height: usize, width: usize, geom: ConvGeom) {
        let q = integer_weights(rng);
        let kernel = FirstLayerKernel::new(&q.map(f32::from), &[0.0; 16]).unwrap();
        let input: Tensor<u8> = Tensor::from_fn(Shape3::new(3, height, width), |_, _, _| rng.gen());
        for zero_point in [0u8, 77, 255] {
            let zp = i16::from(zero_point);
            let want32 = naive(&q, &input, zp, geom, |a: i32, w, d| {
                a + i32::from(w) * i32::from(d)
            });
            let want16 = naive(&q, &input, zp, geom, |a: i16, w, d| {
                a.saturating_add(shifted_product(w, d))
            });
            for isa in Isa::supported() {
                let zp = i32::from(zero_point);
                let what = format!("{isa:?} {height}x{width} {geom:?} zero point {zp}");
                let got32 = kernel.accumulate_i32_on(isa, &input, zp, geom).unwrap();
                assert_eq!(got32.as_slice(), want32.as_slice(), "i32 {what}");
                let got16 = kernel.accumulate_i16_on(isa, &input, zp, geom).unwrap();
                assert_eq!(got16.as_slice(), want16.as_slice(), "i16 {what}");
            }
        }
    }

    #[test]
    fn integer_rungs_match_the_direct_loop_at_every_width() {
        // Every width up to two blocks and a tail, at both strides and pads.
        let mut rng = StdRng::seed_from_u64(37);
        for width in 1..=37 {
            for (stride, pad) in [(1, 0), (1, 1), (2, 0), (2, 1)] {
                let geom = ConvGeom::new(3, stride, pad);
                let height = 3 + width % 4;
                if geom.validate(Shape3::new(3, height, width)).is_ok() {
                    assert_integer_rungs_exact(&mut rng, height, width, geom);
                }
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// Maps of 1–37 pixels a side, strides 1–3, pads 0–2.
        #[test]
        fn integer_rungs_match_the_direct_loop(
            height in 1usize..=37,
            width in 1usize..=37,
            stride in 1usize..=3,
            pad in 0usize..=2,
            seed in proptest::prelude::any::<u64>(),
        ) {
            let geom = ConvGeom::new(3, stride, pad);
            if geom.validate(Shape3::new(3, height, width)).is_ok() {
                assert_integer_rungs_exact(&mut StdRng::seed_from_u64(seed), height, width, geom);
            }
        }
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
