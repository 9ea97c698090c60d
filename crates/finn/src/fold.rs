//! The offline FINN flow for one hidden layer (§III-A), at word speed.
//!
//! A layer's float parameters land in the build's one staging buffer in
//! darknet stream order ([`FloatParams`]); what fills the buffer also sums
//! the numerator of the mean-absolute scale α in stream order. One pass
//! over the weights then packs every sign bit — `+1` unless `w < 0.0`, so
//! `-0.0` and NaN are `+1` — 64 at a time into both row orders the layer
//! is held in: the channel-major `(c, ky, kx)` rows of the weight files
//! and, for 3×3 kernels, the tap-major `(ky, kx, c)` rows the MVTU
//! streams. Batch norm and the activation quantizer then fold into integer
//! thresholds channel by channel.

use crate::accel::QnnLayerParams;
use tincy_nn::{NnError, SegmentLayer, WeightsReader};
use tincy_quant::{ThresholdSet, ThresholdsForLayer};
use tincy_tensor::BitTensor;

const WORD_BITS: usize = 64;

/// One hidden layer's float parameters in darknet stream order, laid
/// over the front of the staging buffer: alive only until the layer is
/// folded.
pub(crate) struct FloatParams<'a> {
    bias: &'a mut [f32],
    gamma: &'a mut [f32],
    mean: &'a mut [f32],
    var: &'a mut [f32],
    /// One row of `cols` weights per output channel, `(c, ky, kx)` order.
    weights: &'a mut [f32],
    /// `|w|` summed over `weights` in stream order, as `iter().sum()`
    /// adds it: α's numerator. The fill sums it, so that this serial
    /// chain of adds runs beside the draw's own.
    abs_sum: f32,
}

impl<'a> FloatParams<'a> {
    /// How many floats `layer` stages: its rows of weights, and one bias,
    /// gamma, mean and var per row whether or not the layer normalizes.
    pub(crate) fn staged_len(layer: &SegmentLayer) -> usize {
        layer.conv.filters * (4 + layer.conv.geom().dot_length(layer.in_shape.channels))
    }

    /// `layer`'s parameters over the front of `staging`.
    ///
    /// # Panics
    ///
    /// Panics if `staging` is shorter than [`FloatParams::staged_len`].
    pub(crate) fn staged(staging: &'a mut [f32], layer: &SegmentLayer) -> Self {
        let filters = layer.conv.filters;
        let staging = &mut staging[..Self::staged_len(layer)];
        let (bias, rest) = staging.split_at_mut(filters);
        let (gamma, rest) = rest.split_at_mut(filters);
        let (mean, rest) = rest.split_at_mut(filters);
        let (var, weights) = rest.split_at_mut(filters);
        Self {
            bias,
            gamma,
            mean,
            var,
            weights,
            abs_sum: 0.0,
        }
    }

    /// Deterministic default parameters (mirroring Darknet's random layer
    /// init), drawn from `next` in stream order.
    pub(crate) fn draw(&mut self, next: &mut impl FnMut() -> f32) {
        let fan_in = self.weights.len() / self.bias.len().max(1);
        let std = (2.0 / fan_in as f32).sqrt();
        self.bias.fill_with(|| (next() - 0.5) * 0.1);
        self.gamma.fill_with(|| 0.8 + 0.4 * next());
        self.mean.fill_with(|| (next() - 0.5) * 0.2);
        self.var.fill_with(|| 0.5 + next());
        let mut abs_sum = 0.0f32;
        self.weights.fill_with(|| {
            let w = (next() - 0.5) * 2.0 * std;
            abs_sum += w.abs();
            w
        });
        self.abs_sum = abs_sum;
    }

    /// One layer's slice of the weight stream: bias, [gamma, mean, var],
    /// weights.
    pub(crate) fn read(
        &mut self,
        reader: &mut WeightsReader<'_>,
        batch_normalize: bool,
    ) -> Result<(), NnError> {
        reader.read_f32s_into(self.bias)?;
        if batch_normalize {
            // Otherwise never read: the fold takes the bias as the whole
            // affine.
            for part in [&mut *self.gamma, &mut *self.mean, &mut *self.var] {
                reader.read_f32s_into(part)?;
            }
        }
        reader.read_f32s_into(self.weights)?;
        self.abs_sum = self.weights.iter().map(|w| w.abs()).sum();
        Ok(())
    }
}

/// Folds one layer's staged floats into the layer the fabric runs.
///
/// # Errors
///
/// Returns [`NnError`] if a channel's affine does not fold into
/// thresholds (a non-finite or zero scale).
pub(crate) fn fold_layer(
    layer: &SegmentLayer,
    params: &FloatParams<'_>,
    act_step: f32,
) -> Result<QnnLayerParams, NnError> {
    let (conv, in_shape) = (&layer.conv, layer.in_shape);
    let signs = SignRows::pack(
        params.weights,
        conv.filters,
        in_shape.channels,
        conv.size * conv.size,
    );
    let alpha = params.abs_sum / params.weights.len().max(1) as f32;
    let thresholds = fold_thresholds(layer, params, alpha, act_step)?;
    let (geom, pool) = (conv.geom(), layer.pool.map(|p| p.geom()));
    match signs.tap_major {
        Some(tap_major) => QnnLayerParams::with_streamed_weights(
            in_shape,
            signs.channel_major,
            tap_major,
            thresholds,
            geom,
            pool,
        ),
        None => QnnLayerParams::new(in_shape, signs.channel_major, thresholds, geom, pool),
    }
}

/// Batch norm and the activation quantizer folded into one threshold set
/// per output channel. `alpha` is the per-layer mean-absolute weight
/// scale, folded in so the fabric operates on pure ±1 weights.
fn fold_thresholds(
    layer: &SegmentLayer,
    params: &FloatParams<'_>,
    alpha: f32,
    act_step: f32,
) -> Result<ThresholdsForLayer, NnError> {
    let conv = &layer.conv;
    // One accumulator unit is worth α·q_in real units.
    let acc_scale = alpha * act_step;
    // The levels the conv declares: 8 for A3, 2 (one threshold) for A1.
    let levels = layer.levels();
    let mut channel_thresholds = Vec::with_capacity(conv.filters);
    for c in 0..conv.filters {
        let (a, b) = if conv.batch_normalize {
            let inv_std = 1.0 / (params.var[c] + 1e-5).sqrt();
            (
                params.gamma[c] * inv_std * acc_scale,
                params.gamma[c] * (params.bias[c] - params.mean[c]) * inv_std,
            )
        } else {
            (acc_scale, params.bias[c])
        };
        channel_thresholds.push(ThresholdSet::from_affine(a, b, act_step, levels)?);
    }
    Ok(ThresholdsForLayer::new(channel_thresholds)?)
}

/// A layer's sign bits in both row orders.
struct SignRows {
    channel_major: BitTensor,
    /// Packed by the same pass for 3×3 kernels, every hidden layer of
    /// the Tincy and DSE networks. `None` leaves the order to
    /// [`QnnLayerParams::new`]: the same matrix for one tap, a column
    /// permutation for any other kernel.
    tap_major: Option<BitTensor>,
}

impl SignRows {
    /// Packs `rows` rows of `channels × taps` weights in one pass.
    fn pack(weights: &[f32], rows: usize, channels: usize, taps: usize) -> Self {
        let cols = channels * taps;
        let words_per_row = cols.div_ceil(WORD_BITS).max(1);
        let bits =
            |words| BitTensor::from_words(rows, cols, words).expect("whole rows, padding clear");
        let mut channel_major = vec![0u64; rows * words_per_row];
        let row_floats = weights.chunks_exact(cols.max(1));
        let row_words = channel_major.chunks_exact_mut(words_per_row);
        let tap_major = if taps == TAPS_3X3 {
            let mut tap_major = vec![0u64; rows * words_per_row];
            let streamed = tap_major.chunks_exact_mut(words_per_row);
            for ((floats, words), streamed) in row_floats.zip(row_words).zip(streamed) {
                pack_3x3_row(floats, channels, words, streamed);
            }
            Some(bits(tap_major))
        } else {
            for (floats, words) in row_floats.zip(row_words) {
                for (word, floats) in words.iter_mut().zip(floats.chunks(WORD_BITS)) {
                    *word = sign_word(floats);
                }
            }
            None
        };
        Self {
            channel_major: bits(channel_major),
            tap_major,
        }
    }
}

const TAPS_3X3: usize = 9;

/// The bits of a word that are one tap's: every ninth, from bit 0.
const EVERY_NINTH: u64 = 0x8040_2010_0804_0201;

/// Multiplying a word masked by [`EVERY_NINTH`] by this moves bit `9j`
/// to bit `56 + j`. No two partial products land on one bit, so nothing
/// carries.
const NINTHS_TO_TOP_BYTE: u64 = 0x0101_0101_0101_0101;

/// Multiplying eight 0-or-1 bytes by this moves byte `j`'s bit to bit
/// `56 + j`, as free of carries.
const BYTES_TO_TOP_BYTE: u64 = 0x0102_0408_1020_4080;

/// For word `k` of a 64-channel block and tap `t`: the shift that brings
/// the word's first bit of tap `t` to bit 0, and the channel (lane bit)
/// it belongs to. Bit `p` of the block is tap `p mod 9` of channel
/// `p div 9`, and `64k ≡ k (mod 9)`.
const TAP_PLAN: [[(u32, u32); TAPS_3X3]; TAPS_3X3] = {
    let mut plan = [[(0, 0); TAPS_3X3]; TAPS_3X3];
    let mut k = 0;
    while k < TAPS_3X3 {
        let mut t = 0;
        while t < TAPS_3X3 {
            let shift = (t + TAPS_3X3 - k) % TAPS_3X3;
            plan[k][t] = (shift as u32, ((64 * k + shift - t) / TAPS_3X3) as u32);
            t += 1;
        }
        k += 1;
    }
    plan
};

/// One row of 3×3 footprints, channel by channel, in stream order.
///
/// A block of 64 channels is 576 floats: nine whole channel-major words,
/// packed 64 signs at a time. Each word then hands every tap its share
/// of the block's bits (every ninth, gathered by one multiply) into that
/// tap's 64-bit lane, and each lane lands in the tap-major row at column
/// `t · channels + 64 · block` with one or two word writes. No bit is
/// read back from memory, and no index is divided at run time.
fn pack_3x3_row(floats: &[f32], channels: usize, words: &mut [u64], streamed: &mut [u64]) {
    let blocks = floats.chunks(WORD_BITS * TAPS_3X3);
    for (block, (floats, words)) in blocks.zip(words.chunks_mut(TAPS_3X3)).enumerate() {
        let mut lanes = [0u64; TAPS_3X3];
        let chunks = floats.chunks(WORD_BITS).zip(&TAP_PLAN);
        for (word, (floats, plan)) in words.iter_mut().zip(chunks) {
            *word = sign_word(floats);
            for (lane, &(shift, channel)) in lanes.iter_mut().zip(plan) {
                let bits = ((*word >> shift) & EVERY_NINTH).wrapping_mul(NINTHS_TO_TOP_BYTE);
                *lane |= (bits >> 56) << channel;
            }
        }
        let mut at = block * WORD_BITS;
        for lane in lanes {
            let (index, shift) = (at / WORD_BITS, at % WORD_BITS);
            streamed[index] |= lane << shift;
            if shift > 0 {
                // A lane's bits end inside its row, so a spill past the
                // row's last word adds nothing.
                if let Some(spill) = streamed.get_mut(index + 1) {
                    *spill |= lane >> (WORD_BITS - shift);
                }
            }
            at += channels;
        }
    }
}

/// `1` for the `+1` of `binarize`, `0` for its `-1`.
fn sign_bit(w: f32) -> u8 {
    if w < 0.0 {
        0
    } else {
        1
    }
}

/// The sign bits of up to 64 floats, bit `i` set unless
/// `floats[i] < 0.0`.
fn sign_word(floats: &[f32]) -> u64 {
    match <&[f32; WORD_BITS]>::try_from(floats) {
        // A byte per sign vectorizes; a multiply per eight packs them.
        Ok(floats) => {
            let bytes: [u8; WORD_BITS] = std::array::from_fn(|i| sign_bit(floats[i]));
            let eights = bytes.as_chunks::<8>().0.iter().enumerate();
            eights.fold(0, |word, (i, &eight)| {
                let bits = u64::from_le_bytes(eight).wrapping_mul(BYTES_TO_TOP_BYTE);
                word | (bits >> 56) << (8 * i)
            })
        }
        Err(_) => floats
            .iter()
            .rev()
            .fold(0, |word, &w| word << 1 | u64::from(sign_bit(w))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use tincy_nn::{Activation, ConvSpec, PoolSpec, WeightsWriter};
    use tincy_quant::{binarize, PrecisionConfig};
    use tincy_tensor::Shape3;

    /// The bit-at-a-time fold the one pass replaced: `binarize` →
    /// `BitTensor::from_signs`, the tap-major rows from
    /// `PackedLayer::new`'s `permute_columns`, α from `iter().sum()`.
    fn oracle(
        layer: &SegmentLayer,
        params: &FloatParams<'_>,
        act_step: f32,
    ) -> Result<QnnLayerParams, NnError> {
        let (conv, in_shape) = (&layer.conv, layer.in_shape);
        let n = params.weights.len().max(1);
        let alpha = params.weights.iter().map(|w| w.abs()).sum::<f32>() / n as f32;
        let cols = conv.geom().dot_length(in_shape.channels);
        let signs = binarize(params.weights);
        let weights = BitTensor::from_signs(conv.filters, cols, &signs)?;
        let thresholds = fold_thresholds(layer, params, alpha, act_step)?;
        let pool = layer.pool.map(|p| p.geom());
        QnnLayerParams::new(in_shape, weights, thresholds, conv.geom(), pool)
    }

    fn layer(in_shape: Shape3, filters: usize, size: usize, levels: usize) -> SegmentLayer {
        SegmentLayer {
            conv: ConvSpec {
                filters,
                size,
                stride: 1,
                pad: size / 2,
                activation: Activation::Relu,
                batch_normalize: true,
                precision: if levels == 2 {
                    PrecisionConfig::W1A1
                } else {
                    PrecisionConfig::W1A3
                },
            },
            pool: (in_shape.height > 1).then_some(PoolSpec { size: 2, stride: 2 }),
            in_shape,
        }
    }

    /// Weight values the fold must treat as `binarize` does.
    const SPECIAL: [f32; 9] = [
        -0.0,
        0.0,
        f32::MIN_POSITIVE / 4.0,
        -f32::MIN_POSITIVE / 4.0,
        f32::MIN_POSITIVE,
        -f32::MIN_POSITIVE,
        f32::NAN,
        f32::INFINITY,
        f32::NEG_INFINITY,
    ];

    /// Draws `layer`'s floats from a seeded generator into `staging`:
    /// the BN parameters in their init-draw ranges, the weights uniform in
    /// ±0.5. With `specials`, every `every`-th weight becomes one of them
    /// in turn, and the floats reach `staging` as a weight stream read by
    /// [`FloatParams::read`] instead.
    fn staged<'a>(
        staging: &'a mut Vec<f32>,
        layer: &SegmentLayer,
        seed: u64,
        specials: &[f32],
        every: usize,
    ) -> FloatParams<'a> {
        staging.resize(FloatParams::staged_len(layer), 0.0);
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 40) as f32 / (1u64 << 24) as f32
        };
        if specials.is_empty() {
            let mut params = FloatParams::staged(staging, layer);
            params.draw(&mut next);
            return params;
        }
        let mut drawn = FloatParams::staged(staging, layer);
        drawn.draw(&mut next);
        for (i, w) in drawn.weights.iter_mut().enumerate() {
            if i % every == every - 1 {
                *w = specials[i / every % specials.len()];
            }
        }
        // The staged order is the stream's for a layer that normalizes.
        assert!(layer.conv.batch_normalize);
        let mut stream = Vec::new();
        WeightsWriter::new(&mut stream).write_f32s(staging).unwrap();
        staging.fill(f32::NAN);
        let mut params = FloatParams::staged(staging, layer);
        let mut cursor = std::io::Cursor::new(stream);
        params
            .read(&mut WeightsReader::new(&mut cursor), true)
            .unwrap();
        params
    }

    /// Both row orders, α's bits and every threshold are the oracle's, or
    /// both paths fail alike.
    fn assert_folds_like_the_oracle(layer: &SegmentLayer, params: &FloatParams<'_>) {
        let (shape, filters, size) = (layer.in_shape, layer.conv.filters, layer.conv.size);
        let what = format!("{shape:?} → {filters} at {size}×{size}");
        match (
            fold_layer(layer, params, 0.125),
            oracle(layer, params, 0.125),
        ) {
            (Ok(got), Ok(want)) => {
                assert_eq!(got.weights(), want.weights(), "{what}");
                let (got, want) = (got.core(), want.core());
                assert_eq!(got.streamed_weights(), want.streamed_weights(), "{what}");
                assert_eq!(got.thresholds(), want.thresholds(), "{what}");
            }
            (Err(got), Err(want)) => assert_eq!(got.to_string(), want.to_string(), "{what}"),
            (got, want) => panic!("{what}: fold {:?}, oracle {:?}", got.err(), want.err()),
        }
        // The bits and the sum by themselves: a NaN or an infinity fails
        // both folds above before their bits can be compared.
        let (rows, channels, taps) = (
            layer.conv.filters,
            layer.in_shape.channels,
            layer.conv.size * layer.conv.size,
        );
        let sum = params.weights.iter().map(|w| w.abs()).sum::<f32>();
        assert_eq!(params.abs_sum.to_bits(), sum.to_bits(), "{what}");
        let signs = SignRows::pack(params.weights, rows, channels, taps);
        let want = BitTensor::from_signs(rows, channels * taps, &binarize(params.weights)).unwrap();
        if let Some(tap_major) = &signs.tap_major {
            let streamed = want.permute_columns(|col| (col % taps) * channels + col / taps);
            assert_eq!(tap_major, &streamed, "{what}");
        }
        assert_eq!(signs.channel_major, want, "{what}");
    }

    /// Every distinct hidden layer of the DSE space at input 32 (each
    /// edit subset with (a) under the W1A3, W1A1 and mixed profiles): 3×3
    /// kernels over 16…1024 channels, at both activation widths. The same
    /// shapes at 1×1 run the one-order path over that channel range.
    #[test]
    fn the_one_pass_fold_matches_the_oracle_on_every_dse_layer() {
        let shapes = [
            (16, 16, 32),
            (16, 16, 64),
            (32, 8, 64),
            (64, 4, 128),
            (64, 8, 64),
            (128, 2, 256),
            (256, 1, 512),
            (512, 1, 512),
            (512, 1, 1024),
            (1024, 1, 1024),
        ];
        for (seed, (channels, side, filters)) in (1u64..).zip(shapes) {
            for (size, levels) in [(3, 2), (3, 8), (1, 2), (1, 8)] {
                let layer = layer(Shape3::new(channels, side, side), filters, size, levels);
                // As drawn; then streamed with signed zeros and
                // subnormals, which fold, and with a NaN or an infinity,
                // which fail both paths on the non-finite α.
                for (specials, every) in [(&[][..], 1), (&SPECIAL[..6], 97), (&SPECIAL, 1021)] {
                    let staging = &mut Vec::new();
                    let params = staged(staging, &layer, seed, specials, every);
                    assert_folds_like_the_oracle(&layer, &params);
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Kernels 1 to 4 over 1 to 140 channels: rows that end mid-word,
        /// blocks that end mid-lane, and both orders' single-matrix cases.
        #[test]
        fn the_one_pass_fold_matches_the_oracle_on_any_layer(
            channels in 1usize..140,
            filters in 1usize..6,
            size in 1usize..5,
            levels in prop_oneof![Just(2usize), Just(8)],
            seed in any::<u64>(),
            every in 1usize..40,
            specials in 0usize..10,
        ) {
            let layer = layer(Shape3::new(channels, 5, 5), filters, size, levels);
            let staging = &mut Vec::new();
            let params = staged(staging, &layer, seed, &SPECIAL[..specials], every);
            assert_folds_like_the_oracle(&layer, &params);
        }
    }
}
