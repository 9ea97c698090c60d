//! The packed hidden layer: one W1A`n` conv(+pool) prepared for the
//! streamed schedule of `stream.rs`.
//!
//! # Arithmetic
//!
//! With `w ∈ {−1,+1}` packed as a bitmask (bit set ⇔ +1) and the
//! activations split into bitplanes, `Σ wᵢ·bᵢ = 2·pc(w ∧ b) − pc(b)` per
//! plane, so per output pixel and weight row
//!
//! ```text
//! acc = 2 · Σ_p 2^p · pc(w_row ∧ plane_p[pix]) − Σ_p 2^p · pc(plane_p[pix])
//! ```
//!
//! where the second sum depends on the activations only and is folded once
//! per pixel. `acc` goes through the layer's folded batchnorm thresholds
//! (ascending or descending) to produce the next activation level, and an
//! optional max-pool finishes the layer. These are the integers of the
//! naive signed reference ([`PackedLayer::forward_reference`]) summed in a
//! different order, so the two are bit-exact by construction.

use crate::stream::{StreamedConv, ThresholdTable};
use crate::tune::Variant;
use std::sync::Arc;
use tincy_quant::ThresholdsForLayer;
use tincy_simd::PopcountIsa;
use tincy_tensor::{BitTensor, ConvGeom, PoolGeom, Shape3, Tensor};
use tincy_trace::{static_label, Backend};

/// One hidden layer prepared for packed evaluation: packed weights, folded
/// thresholds, convolution geometry and optional max-pool. Everything the
/// schedule derives from the weights and thresholds is built once in
/// [`PackedLayer::new`] and held by `Arc`, so clones — the fabric
/// simulator's and the host fallback's view of the same layer — share it.
#[derive(Debug, Clone)]
pub struct PackedLayer {
    in_shape: Shape3,
    weights: Arc<BitTensor>,
    /// `weights` with each row re-linearized from the channel-major
    /// `(c, ky, kx)` order of the weight files to the tap-major
    /// `(ky, kx, c)` order footprints are streamed in; the same matrix as
    /// `weights` when the two orders coincide.
    streamed_weights: Arc<BitTensor>,
    thresholds: Arc<ThresholdsForLayer>,
    /// `thresholds` laid out as the schedule's comparator rows.
    threshold_table: Arc<ThresholdTable>,
    geom: ConvGeom,
    pool: Option<PoolGeom>,
    act_bits: usize,
    trace_layer: Option<u32>,
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
        let (taps, channels) = (geom.kernel * geom.kernel, in_shape.channels);
        let streamed_weights = if taps == 1 || channels == 1 {
            Arc::clone(&weights)
        } else {
            Arc::new(weights.permute_columns(|col| (col % taps) * channels + col / taps))
        };
        Self {
            in_shape,
            weights,
            streamed_weights,
            threshold_table: Arc::new(ThresholdTable::new(&thresholds)),
            thresholds,
            geom,
            pool,
            act_bits,
            trace_layer: None,
        }
    }

    /// Tags the `cpu.kernel.*` spans emitted by this layer with a layer
    /// index.
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

    /// The packed binary weights, one row per output channel in the
    /// channel-major `(c, ky, kx)` column order of the weight files.
    pub fn weights(&self) -> &BitTensor {
        &self.weights
    }

    /// The per-channel threshold sets.
    pub fn thresholds(&self) -> &ThresholdsForLayer {
        &self.thresholds
    }

    /// The convolution geometry.
    pub fn geom(&self) -> ConvGeom {
        self.geom
    }

    /// The fused pooling geometry, if any.
    pub fn pool(&self) -> Option<PoolGeom> {
        self.pool
    }

    /// Evaluates the layer on the host path, under one `cpu.kernel.binary`
    /// span.
    ///
    /// There is one schedule: `_variant` has one value and `_threads` is
    /// ignored — worker threads belong to the server and the pipeline, not
    /// to a kernel. Both parameters survive only because `benchmark/`
    /// passes them.
    ///
    /// # Panics
    ///
    /// Panics if `input` has the wrong shape, or holds an activation level
    /// that does not fit `act_bits` bits (it would otherwise be computed on
    /// as a different, valid level).
    pub fn forward(&self, input: &Tensor<u8>, _variant: Variant, _threads: usize) -> Tensor<u8> {
        let mut builder =
            tincy_trace::span(static_label!("cpu.kernel.binary")).backend(Backend::Host);
        if let Some(layer) = self.trace_layer {
            builder = builder.layer(layer);
        }
        let _span = builder.start();
        self.run_on(PopcountIsa::detect(), input)
    }

    /// The layer function itself, on a given instantiation of the popcount
    /// loops: what [`PackedLayer::forward`] and the fabric simulator's
    /// engine both run, without the span of the one or the cycle model of
    /// the other. The output never depends on `isa`.
    ///
    /// # Panics
    ///
    /// As [`PackedLayer::forward`].
    pub fn run_on(&self, isa: PopcountIsa, input: &Tensor<u8>) -> Tensor<u8> {
        assert_eq!(input.shape(), self.in_shape, "input shape mismatch");
        let conv_out = isa.run(StreamedConv {
            in_shape: self.in_shape,
            geom: self.geom,
            weights: &self.streamed_weights,
            thresholds: &self.threshold_table,
            act_bits: self.act_bits,
            input,
        });
        match self.pool {
            Some(pool) => max_pool_levels(&conv_out, pool),
            None => conv_out,
        }
    }

    /// Naive signed-arithmetic reference: the golden path the streamed
    /// schedule is proven bit-exact against.
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
    // The window's rows folded into one: a whole input row at a time.
    let mut column_max = vec![0u8; width];
    let channels = input.as_slice().chunks_exact(shape.spatial().max(1)).zip(
        out.as_mut_slice()
            .chunks_exact_mut(out_shape.spatial().max(1)),
    );
    for (src, dst) in channels {
        for (oy, dst_row) in dst.chunks_exact_mut(out_shape.width).enumerate() {
            let y0 = oy * geom.stride;
            let y1 = (y0 + geom.size).min(height);
            column_max.copy_from_slice(&src[y0 * width..][..width]);
            for y in y0 + 1..y1 {
                for (best, &v) in column_max.iter_mut().zip(&src[y * width..][..width]) {
                    *best = (*best).max(v);
                }
            }
            // Then the window's columns. A 2×2/2 window pools a pair of
            // columns, whole pairs at a time so the pass vectorizes; an odd
            // last column pools alone.
            if (geom.size, geom.stride) == (2, 2) {
                let (pairs, last) = column_max.as_chunks::<2>();
                for (best, &[a, b]) in dst_row.iter_mut().zip(pairs) {
                    *best = a.max(b);
                }
                if let [v] = *last {
                    dst_row[pairs.len()] = v;
                }
                continue;
            }
            // Any other window one tap at a time across the row; taps past
            // the right border drop out with their outputs.
            for tap in 0..geom.size.min(width) {
                let taps = column_max[tap..].iter().step_by(geom.stride);
                for (best, &v) in dst_row.iter_mut().zip(taps) {
                    *best = (*best).max(v);
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
    fn forward_matches_reference_whatever_threads_says() {
        let mut rng = StdRng::seed_from_u64(11);
        let in_shape = Shape3::new(3, 6, 5);
        let layer = random_layer(&mut rng, in_shape, 9, 1);
        let input = random_input(&mut rng, in_shape, 3);
        let expected = layer.forward_reference(&input);
        for threads in [0usize, 1, 3] {
            let got = layer.forward(&input, Variant::Blocked, threads);
            assert_eq!(got.as_slice(), expected.as_slice(), "threads={threads}");
        }
    }

    #[test]
    #[should_panic(expected = "exceeds 2-bit range")]
    fn level_wider_than_act_bits_panics_instead_of_aliasing() {
        let mut rng = StdRng::seed_from_u64(14);
        let in_shape = Shape3::new(3, 4, 4);
        let three_bit = random_layer(&mut rng, in_shape, 2, 1);
        let layer = PackedLayer::new(
            in_shape,
            three_bit.weights().clone(),
            three_bit.thresholds().clone(),
            three_bit.geom(),
            None,
            2,
        );
        let mut input = random_input(&mut rng, in_shape, 2);
        *input.at_mut(1, 2, 3) = 4;
        let _ = layer.forward(&input, Variant::Blocked, 1);
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
        let got = layer.forward(&input, Variant::Blocked, 1);
        assert_eq!(got.as_slice(), expected.as_slice());
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
    fn pool_matches_a_naive_window_max() {
        // Odd and even widths, through the pairwise 2×2/2 path and the
        // tap-at-a-time path; ragged windows truncate at the border.
        let mut rng = StdRng::seed_from_u64(15);
        for geom in [PoolGeom::new(2, 2), PoolGeom::new(2, 1)] {
            for width in 1..=9 {
                let shape = Shape3::new(3, 5, width);
                let input = random_input(&mut rng, shape, 3);
                let got = max_pool_levels(&input, geom);
                let out = geom.output_shape(shape);
                assert_eq!(got.shape(), out);
                for c in 0..shape.channels {
                    for oy in 0..out.height {
                        for ox in 0..out.width {
                            let (y0, x0) = (oy * geom.stride, ox * geom.stride);
                            let ys = y0..(y0 + geom.size).min(shape.height);
                            let window = ys.flat_map(|y| {
                                let xs = x0..(x0 + geom.size).min(width);
                                xs.map(move |x| (y, x))
                            });
                            let naive = window.map(|(y, x)| input.at(c, y, x)).max();
                            assert_eq!(
                                Some(got.at(c, oy, ox)),
                                naive,
                                "{geom:?} width {width}: ({c},{oy},{ox})"
                            );
                        }
                    }
                }
            }
        }
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
        let got = layer.forward(&input, Variant::Blocked, 1);
        assert_eq!(got.as_slice(), expected.as_slice());
    }
}
