//! Bit-packed im2col footprints and the packed hidden-layer evaluator.
//!
//! # Packing format
//!
//! For one hidden layer the weights are already a packed [`BitTensor`]
//! (bit set ⇔ +1): one row per output channel, `K²·C` columns padded to
//! whole `u64` words with the padding bits clear. The activations are
//! packed to match: for every output pixel the `K²·C` im2col footprint
//! (zero-padded at the borders, exactly like the naive reference) is
//! written as `planes` bitplanes of `words_per_row` words each, the same
//! word layout as the weight rows. Plane `p` holds bit `p` of each
//! activation, so a 3-bit activation column contributes to up to three
//! planes with weights 1, 2 and 4.
//!
//! # Correction-term math
//!
//! With `w ∈ {−1,+1}` packed as a bitmask, `Σ wᵢ·bᵢ = 2·pc(w ∧ b) − pc(b)`
//! per plane. The `pc(b)` term depends only on the activations, so it is
//! folded once per pixel into a correction term
//!
//! ```text
//! asum[pix] = Σ_p 2^p · pc(plane_p[pix])
//! ```
//!
//! and the per-(row, pixel) inner loop reduces to AND+popcount only:
//!
//! ```text
//! acc = 2 · Σ_p 2^p · pc(w_row ∧ plane_p[pix]) − asum[pix]
//! ```
//!
//! `acc` then goes through the layer's folded batchnorm [`ThresholdSet`]
//! (ascending or descending) to produce the next 3-bit activation, and an
//! optional max-pool finishes the layer. Every kernel variant sums the
//! same integers in a different order, so all variants are bit-exact with
//! the naive signed-arithmetic reference.

use crate::tune::{LayerShape, Variant};
use std::sync::Arc;
use tincy_quant::{and_popcount, ThresholdsForLayer};
use tincy_simd::{PopcountIsa, PopcountKernel, U64x4};
use tincy_tensor::{BitTensor, ConvGeom, PoolGeom, Shape3, Tensor};
use tincy_trace::{static_label, Backend};

/// Bits per packed word (matches [`BitTensor`]).
const WORD_BITS: usize = 64;

/// Output-channel tile of the cache-blocked variants: 16 weight rows keep
/// the tile's weight words resident in L1 while a pixel tile streams by.
const ROW_TILE: usize = 16;

/// Pixel tile of the cache-blocked variants.
const PIX_TILE: usize = 64;

/// One hidden layer prepared for packed evaluation: packed weights, folded
/// thresholds, convolution geometry and optional max-pool. Weights and
/// thresholds are held by `Arc` so the fabric simulator's copy of the same
/// layer can be shared instead of cloned.
#[derive(Debug, Clone)]
pub struct PackedLayer {
    in_shape: Shape3,
    weights: Arc<BitTensor>,
    thresholds: Arc<ThresholdsForLayer>,
    geom: ConvGeom,
    pool: Option<PoolGeom>,
    act_bits: usize,
    trace_layer: Option<u32>,
}

/// Activation bitplanes for one input feature map: `planes[p]` holds
/// `pixels × words` packed words, plane-major, pixel rows contiguous.
struct PackedMap {
    pixels: usize,
    words: usize,
    planes: Vec<Vec<u64>>,
    /// Per-pixel popcount-correction term `Σ_p 2^p · pc(plane_p)`.
    asum: Vec<i32>,
}

impl PackedLayer {
    /// Prepares a layer for packed evaluation.
    ///
    /// # Panics
    ///
    /// Panics if the geometry does not validate against `in_shape`, the
    /// weight width differs from the im2col dot length, the threshold
    /// channel count differs from the weight row count, or `act_bits` is
    /// outside `1..=3` — all programmer errors (upstream layer builders
    /// validate these shapes).
    pub fn new(
        in_shape: Shape3,
        weights: impl Into<Arc<BitTensor>>,
        thresholds: impl Into<Arc<ThresholdsForLayer>>,
        geom: ConvGeom,
        pool: Option<PoolGeom>,
        act_bits: usize,
    ) -> Self {
        let (weights, thresholds) = (weights.into(), thresholds.into());
        assert!(
            (1..=3).contains(&act_bits),
            "act_bits must be in 1..=3, got {act_bits}"
        );
        geom.validate(in_shape).expect("conv geometry");
        assert_eq!(
            weights.cols(),
            geom.dot_length(in_shape.channels),
            "weight width mismatch"
        );
        assert_eq!(
            thresholds.num_channels(),
            weights.rows(),
            "threshold channel count mismatch"
        );
        Self {
            in_shape,
            weights,
            thresholds,
            geom,
            pool,
            act_bits,
            trace_layer: None,
        }
    }

    /// Tags `kernel.*` spans emitted by this layer with a layer index.
    #[must_use]
    pub fn with_trace_layer(mut self, layer: u32) -> Self {
        self.trace_layer = Some(layer);
        self
    }

    /// Input feature-map shape.
    pub fn in_shape(&self) -> Shape3 {
        self.in_shape
    }

    /// Output feature-map shape (after the optional max-pool).
    pub fn out_shape(&self) -> Shape3 {
        let conv = self.geom.output_shape(self.in_shape, self.weights.rows());
        match self.pool {
            Some(pool) => pool.output_shape(conv),
            None => conv,
        }
    }

    /// Activation bit width consumed by this layer.
    pub fn act_bits(&self) -> usize {
        self.act_bits
    }

    /// The shape key the autotuner bins this layer under.
    pub fn shape(&self) -> LayerShape {
        let conv = self.geom.output_shape(self.in_shape, self.weights.rows());
        LayerShape {
            rows: self.weights.rows(),
            cols: self.weights.cols(),
            pixels: conv.spatial(),
            planes: self.act_bits,
        }
    }

    /// Evaluates the layer with the chosen kernel variant.
    ///
    /// `threads` only matters for [`Variant::Threaded`]; every variant
    /// produces bit-identical output.
    ///
    /// # Panics
    ///
    /// Panics if `input` has the wrong shape.
    pub fn forward(&self, input: &Tensor<u8>, variant: Variant, threads: usize) -> Tensor<u8> {
        assert_eq!(input.shape(), self.in_shape, "input shape mismatch");
        let label = match variant {
            Variant::Scalar => static_label!("cpu.kernel.scalar"),
            Variant::Unrolled4 => static_label!("cpu.kernel.unrolled4"),
            Variant::Blocked => static_label!("cpu.kernel.blocked"),
            Variant::Threaded => static_label!("cpu.kernel.threaded"),
        };
        let mut builder = tincy_trace::span(label)
            .backend(Backend::Host)
            .variant(variant.label());
        if let Some(layer) = self.trace_layer {
            builder = builder.layer(layer);
        }
        let _span = builder.start();
        let conv_shape = self.geom.output_shape(self.in_shape, self.weights.rows());
        let map = self.pack_input(input, conv_shape);
        let mut conv_out = Tensor::zeros(conv_shape);
        self.gemm_into(&map, conv_out.as_mut_slice(), variant, threads);
        match self.pool {
            Some(pool) => max_pool_levels(&conv_out, pool),
            None => conv_out,
        }
    }

    /// Naive signed-arithmetic reference: the golden path the packed
    /// variants are proven bit-exact against.
    ///
    /// # Panics
    ///
    /// Panics if `input` has the wrong shape.
    pub fn forward_reference(&self, input: &Tensor<u8>) -> Tensor<u8> {
        assert_eq!(input.shape(), self.in_shape, "input shape mismatch");
        let conv_shape = self.geom.output_shape(self.in_shape, self.weights.rows());
        let mut conv_out = Tensor::zeros(conv_shape);
        for oy in 0..conv_shape.height {
            for ox in 0..conv_shape.width {
                for ch in 0..self.weights.rows() {
                    let mut acc = 0i32;
                    let mut col = 0usize;
                    for c in 0..self.in_shape.channels {
                        for ky in 0..self.geom.kernel {
                            let iy = (oy * self.geom.stride + ky) as isize - self.geom.pad as isize;
                            for kx in 0..self.geom.kernel {
                                let ix =
                                    (ox * self.geom.stride + kx) as isize - self.geom.pad as isize;
                                let inside = iy >= 0
                                    && (iy as usize) < self.in_shape.height
                                    && ix >= 0
                                    && (ix as usize) < self.in_shape.width;
                                if inside {
                                    let a = input.at(c, iy as usize, ix as usize) as i32;
                                    acc += self.weights.sign(ch, col) * a;
                                }
                                col += 1;
                            }
                        }
                    }
                    *conv_out.at_mut(ch, oy, ox) = self.thresholds.channel(ch).activate(acc);
                }
            }
        }
        match self.pool {
            Some(pool) => max_pool_levels(&conv_out, pool),
            None => conv_out,
        }
    }

    /// Packs the im2col footprint of every output pixel into activation
    /// bitplanes and computes the per-pixel correction terms.
    fn pack_input(&self, input: &Tensor<u8>, conv_shape: Shape3) -> PackedMap {
        let pixels = conv_shape.spatial();
        let words = self.weights.words_per_row();
        let mut planes = vec![vec![0u64; pixels * words]; self.act_bits];
        let mut pix = 0usize;
        for oy in 0..conv_shape.height {
            for ox in 0..conv_shape.width {
                let base = pix * words;
                let mut col = 0usize;
                for c in 0..self.in_shape.channels {
                    for ky in 0..self.geom.kernel {
                        let iy = (oy * self.geom.stride + ky) as isize - self.geom.pad as isize;
                        if iy < 0 || iy as usize >= self.in_shape.height {
                            col += self.geom.kernel;
                            continue;
                        }
                        for kx in 0..self.geom.kernel {
                            let ix = (ox * self.geom.stride + kx) as isize - self.geom.pad as isize;
                            if ix < 0 || ix as usize >= self.in_shape.width {
                                col += 1;
                                continue;
                            }
                            let v = input.at(c, iy as usize, ix as usize);
                            debug_assert!(
                                (v as usize) >> self.act_bits == 0,
                                "activation {v} exceeds {} bits",
                                self.act_bits
                            );
                            if v != 0 {
                                let word = base + col / WORD_BITS;
                                let mask = 1u64 << (col % WORD_BITS);
                                for (p, plane) in planes.iter_mut().enumerate() {
                                    if (v >> p) & 1 == 1 {
                                        plane[word] |= mask;
                                    }
                                }
                            }
                            col += 1;
                        }
                    }
                }
                pix += 1;
            }
        }
        let mut asum = vec![0i32; pixels];
        for (p, plane) in planes.iter().enumerate() {
            for (pix, total) in asum.iter_mut().enumerate() {
                let row = &plane[pix * words..(pix + 1) * words];
                let pc: u32 = row.iter().map(|&w| w.count_ones()).sum();
                *total += (pc as i32) << p;
            }
        }
        PackedMap {
            pixels,
            words,
            planes,
            asum,
        }
    }

    /// Dispatches the packed GEMM; `out` is channel-major
    /// (`rows × pixels`).
    fn gemm_into(&self, map: &PackedMap, out: &mut [u8], variant: Variant, threads: usize) {
        let rows = self.weights.rows();
        if variant == Variant::Threaded && threads > 1 && rows > 1 {
            let chunk = rows.div_ceil(threads.min(rows));
            std::thread::scope(|scope| {
                let mut rest = out;
                let mut r0 = 0usize;
                while r0 < rows {
                    let r1 = (r0 + chunk).min(rows);
                    let (head, tail) = rest.split_at_mut((r1 - r0) * map.pixels);
                    rest = tail;
                    scope.spawn(move || self.gemm_range(map, head, r0, r1, Variant::Blocked));
                    r0 = r1;
                }
            });
        } else {
            let sequential = if variant == Variant::Threaded {
                Variant::Blocked
            } else {
                variant
            };
            self.gemm_range(map, out, 0, rows, sequential);
        }
    }

    /// Evaluates output rows `r0..r1` into `out` (length
    /// `(r1-r0) × pixels`) with the hardware population count where the
    /// CPU has one.
    fn gemm_range(&self, map: &PackedMap, out: &mut [u8], r0: usize, r1: usize, variant: Variant) {
        PopcountIsa::detect().run(GemmRange {
            layer: self,
            map,
            out,
            r0,
            r1,
            variant,
        });
    }
}

/// One [`PackedLayer::gemm_range`] call.
struct GemmRange<'a> {
    layer: &'a PackedLayer,
    map: &'a PackedMap,
    out: &'a mut [u8],
    r0: usize,
    r1: usize,
    variant: Variant,
}

impl PopcountKernel for GemmRange<'_> {
    type Output = ();

    #[inline(always)]
    fn run(self) {
        let Self {
            layer,
            map,
            out,
            r0,
            r1,
            variant,
        } = self;
        let pixels = map.pixels;
        let words = map.words;
        match variant {
            Variant::Scalar | Variant::Unrolled4 => {
                let unrolled = variant == Variant::Unrolled4;
                for r in r0..r1 {
                    let wrow = layer.weights.row_words(r);
                    let tset = layer.thresholds.channel(r);
                    for pix in 0..pixels {
                        let base = pix * words;
                        let pos = if unrolled {
                            dot_unrolled(wrow, &map.planes, base)
                        } else {
                            dot_scalar(wrow, &map.planes, base)
                        };
                        let acc = 2 * pos - map.asum[pix];
                        out[(r - r0) * pixels + pix] = tset.activate(acc);
                    }
                }
            }
            Variant::Blocked | Variant::Threaded => {
                let mut pt = 0usize;
                while pt < pixels {
                    let pend = (pt + PIX_TILE).min(pixels);
                    let mut rt = r0;
                    while rt < r1 {
                        let rend = (rt + ROW_TILE).min(r1);
                        for r in rt..rend {
                            let wrow = layer.weights.row_words(r);
                            let tset = layer.thresholds.channel(r);
                            for pix in pt..pend {
                                let pos = dot_unrolled(wrow, &map.planes, pix * words);
                                let acc = 2 * pos - map.asum[pix];
                                out[(r - r0) * pixels + pix] = tset.activate(acc);
                            }
                        }
                        rt = rend;
                    }
                    pt = pend;
                }
            }
        }
    }
}

/// Plane-weighted AND-popcount `Σ_p 2^p · pc(w ∧ plane_p)`, one word at a
/// time.
#[inline(always)]
fn dot_scalar(wrow: &[u64], planes: &[Vec<u64>], base: usize) -> i32 {
    let mut acc = 0i32;
    for (p, plane) in planes.iter().enumerate() {
        let pc = and_popcount(wrow, &plane[base..base + wrow.len()]);
        acc += (pc as i32) << p;
    }
    acc
}

/// Plane-weighted AND-popcount, four words per iteration on [`U64x4`].
#[inline(always)]
fn dot_unrolled(wrow: &[u64], planes: &[Vec<u64>], base: usize) -> i32 {
    let words = wrow.len();
    let full = words & !3;
    let mut acc = 0i32;
    for (p, plane) in planes.iter().enumerate() {
        let brow = &plane[base..base + words];
        let mut pc = 0u32;
        let mut j = 0usize;
        while j < full {
            pc += U64x4::load(&wrow[j..])
                .and(U64x4::load(&brow[j..]))
                .count_ones();
            j += 4;
        }
        for j in full..words {
            pc += (wrow[j] & brow[j]).count_ones();
        }
        acc += (pc as i32) << p;
    }
    acc
}

/// Max-pool over quantization levels — the unsigned activation codes are
/// monotone in the represented value, so pooling codes equals pooling
/// values. The one pooling stage of the packed kernels and of the fabric
/// engine: ragged edge windows are truncated at the feature-map border.
pub fn max_pool_levels(input: &Tensor<u8>, geom: PoolGeom) -> Tensor<u8> {
    let shape = input.shape();
    let out_shape = geom.output_shape(shape);
    let mut out = Tensor::<u8>::zeros(out_shape);
    let (height, width) = (shape.height, shape.width);
    let channels = input.as_slice().chunks_exact(shape.spatial().max(1)).zip(
        out.as_mut_slice()
            .chunks_exact_mut(out_shape.spatial().max(1)),
    );
    for (src, dst) in channels {
        for (oy, dst_row) in dst.chunks_exact_mut(out_shape.width).enumerate() {
            let y0 = oy * geom.stride;
            let y1 = (y0 + geom.size).min(height);
            for (ox, best) in dst_row.iter_mut().enumerate() {
                let x0 = ox * geom.stride;
                let x1 = (x0 + geom.size).min(width);
                for y in y0..y1 {
                    for &v in &src[y * width + x0..y * width + x1] {
                        *best = (*best).max(v);
                    }
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use tincy_quant::ThresholdSet;

    fn random_layer(
        rng: &mut StdRng,
        in_shape: Shape3,
        out_c: usize,
        stride: usize,
    ) -> PackedLayer {
        let geom = ConvGeom::same(3, stride);
        let cols = geom.dot_length(in_shape.channels);
        let signs: Vec<i8> = (0..out_c * cols)
            .map(|_| if rng.gen() { 1 } else { -1 })
            .collect();
        let weights = BitTensor::from_signs(out_c, cols, &signs).unwrap();
        let sets: Vec<ThresholdSet> = (0..out_c)
            .map(|_| {
                let mut taus = Vec::with_capacity(7);
                let mut t = rng.gen_range(-40..-20);
                for _ in 0..7 {
                    t += rng.gen_range(1..8);
                    taus.push(t);
                }
                let ascending = rng.gen();
                ThresholdSet::with_direction(taus, ascending).unwrap()
            })
            .collect();
        let thresholds = ThresholdsForLayer::new(sets).unwrap();
        PackedLayer::new(in_shape, weights, thresholds, geom, None, 3)
    }

    fn random_input(rng: &mut StdRng, shape: Shape3, act_bits: usize) -> Tensor<u8> {
        Tensor::from_fn(shape, |_, _, _| rng.gen_range(0..1u8 << act_bits))
    }

    #[test]
    fn all_variants_match_reference() {
        let mut rng = StdRng::seed_from_u64(11);
        let in_shape = Shape3::new(3, 6, 5);
        let layer = random_layer(&mut rng, in_shape, 9, 1);
        let input = random_input(&mut rng, in_shape, 3);
        let expected = layer.forward_reference(&input);
        for variant in Variant::ALL {
            for threads in [1usize, 3] {
                let got = layer.forward(&input, variant, threads);
                assert_eq!(
                    got.as_slice(),
                    expected.as_slice(),
                    "variant={variant:?} threads={threads}"
                );
            }
        }
    }

    #[test]
    fn pooled_and_strided_layers_match_reference() {
        let mut rng = StdRng::seed_from_u64(12);
        let in_shape = Shape3::new(2, 7, 7);
        let geom = ConvGeom::same(3, 2);
        let cols = geom.dot_length(in_shape.channels);
        let signs: Vec<i8> = (0..4 * cols)
            .map(|_| if rng.gen() { 1 } else { -1 })
            .collect();
        let weights = BitTensor::from_signs(4, cols, &signs).unwrap();
        let sets: Vec<ThresholdSet> = (0..4)
            .map(|_| {
                let mut taus = Vec::with_capacity(7);
                let mut t = rng.gen_range(-30..-15);
                for _ in 0..7 {
                    t += rng.gen_range(1..6);
                    taus.push(t);
                }
                ThresholdSet::new(taus).unwrap()
            })
            .collect();
        let thresholds = ThresholdsForLayer::new(sets).unwrap();
        let layer = PackedLayer::new(
            in_shape,
            weights,
            thresholds,
            geom,
            Some(PoolGeom::new(2, 2)),
            3,
        );
        let input = random_input(&mut rng, in_shape, 3);
        let expected = layer.forward_reference(&input);
        for variant in Variant::ALL {
            let got = layer.forward(&input, variant, 2);
            assert_eq!(got.as_slice(), expected.as_slice(), "variant={variant:?}");
        }
        assert_eq!(expected.shape(), layer.out_shape());
    }

    #[test]
    fn pool_truncates_ragged_windows_at_the_border() {
        let input = Tensor::from_fn(Shape3::new(2, 3, 3), |c, y, x| (c * 4 + y + x) as u8 % 8);
        // 2x2 stride 2 over 3x3: the last row and column pool a 1-wide window.
        let halved = max_pool_levels(&input, PoolGeom::new(2, 2));
        assert_eq!(halved.shape(), Shape3::new(2, 2, 2));
        assert_eq!(halved.as_slice(), &[2, 3, 3, 4, 6, 7, 7, 0]);
        // 2x2 stride 1 keeps the extent (Tiny YOLO's 13x13 pool).
        let same = max_pool_levels(&input, PoolGeom::new(2, 1));
        assert_eq!(same.shape(), input.shape());
        assert_eq!(same.channel(0), &[2, 3, 3, 3, 4, 4, 3, 4, 4]);
    }

    #[test]
    fn binary_activations_pack_to_one_plane() {
        let mut rng = StdRng::seed_from_u64(13);
        let in_shape = Shape3::new(4, 4, 4);
        let geom = ConvGeom::same(3, 1);
        let cols = geom.dot_length(in_shape.channels);
        let signs: Vec<i8> = (0..5 * cols)
            .map(|_| if rng.gen() { 1 } else { -1 })
            .collect();
        let weights = BitTensor::from_signs(5, cols, &signs).unwrap();
        let sets = vec![ThresholdSet::binary(); 5];
        let thresholds = ThresholdsForLayer::new(sets).unwrap();
        let layer = PackedLayer::new(in_shape, weights, thresholds, geom, None, 1);
        let input = random_input(&mut rng, in_shape, 1);
        let expected = layer.forward_reference(&input);
        for variant in Variant::ALL {
            let got = layer.forward(&input, variant, 2);
            assert_eq!(got.as_slice(), expected.as_slice(), "variant={variant:?}");
        }
    }
}
