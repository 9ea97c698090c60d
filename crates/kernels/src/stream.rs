//! The one binary-conv schedule: line buffer → window assembly → MVTU.
//!
//! FINN's sliding-window unit does not gather `K²·C` scalars per output
//! pixel. It keeps the last `K` input rows in a line buffer, channel
//! innermost, and emits each footprint as whole words in tap-major
//! `(ky, kx, c)` order; the MVTU's weight memory is laid out to match. The
//! host computes a layer the same way on `u64` words, whether it is
//! simulating the fabric or standing in for it:
//!
//! 1. **Line buffer.** The CHW input is packed once into three bitplanes.
//!    Within a plane every (zero-padded) input row is one dense bit stream,
//!    pixel after pixel, `C` bits each — so the `K` taps a window covers in
//!    one input row are `K·C` *adjacent* bits.
//! 2. **Window assembly.** A footprint plane is `K` such runs, one per
//!    kernel row, appended with shifts and ORs into a reused tile buffer
//!    (whole-word moves when `C` is a multiple of 64). The plane popcounts
//!    `Σ_p 2^p·pc(plane_p)` are folded once per pixel while the words are
//!    hot.
//! 3. **MVTU.** Per weight row and pixel, the three planes are ANDed
//!    against the same weight word and counted together:
//!    `acc = 2·Σ_p 2^p·pc(w ∧ plane_p) − Σ_p 2^p·pc(plane_p)`, then the
//!    channel's comparator bank ([`ThresholdTable`]) turns `acc` into the
//!    level written straight into the CHW output.
//!
//! Nothing is allocated per pixel and nothing is cloned per call; the
//! tap-major weights and the comparator banks are built once in
//! [`crate::PackedLayer::new`]. Activations narrower than three bits leave
//! the upper planes empty, which the arithmetic above gets right without a
//! special case.

use tincy_quant::ThresholdsForLayer;
use tincy_simd::PopcountKernel;
use tincy_tensor::{BitTensor, ConvGeom, Shape3, Tensor};

const WORD_BITS: usize = 64;

/// Bitplanes of a 3-bit activation.
const PLANES: usize = 3;

/// Footprints assembled per MVTU pass, in bytes: small enough to stay in
/// L1 beside one weight row, so each pass streams the weight matrix once.
const TILE_BYTES: usize = 16 * 1024;

/// Comparators per bank of the threshold unit.
const BANK: usize = 8;

/// A layer's threshold sets as the MVTU's comparator banks: one contiguous
/// row per output channel, padded to whole banks with a threshold no
/// accumulator passes. The level is a straight count of comparators that
/// fire — the same number [`tincy_quant::ThresholdSet::activate`] finds by
/// binary search, without its data-dependent branches and without a
/// pointer chase per channel.
#[derive(Debug)]
pub(crate) struct ThresholdTable {
    taus: Vec<i32>,
    ascending: Vec<bool>,
    row_len: usize,
}

impl ThresholdTable {
    pub(crate) fn new(thresholds: &ThresholdsForLayer) -> Self {
        let channels = thresholds.num_channels();
        let row_len = thresholds.channel(0).len().next_multiple_of(BANK);
        let mut taus = Vec::with_capacity(channels * row_len);
        let mut ascending = Vec::with_capacity(channels);
        for c in 0..channels {
            let set = thresholds.channel(c);
            // |acc| ≤ 7·K²·C, nowhere near either end of the i32 range.
            let never = if set.is_ascending() {
                i32::MAX
            } else {
                i32::MIN
            };
            taus.extend_from_slice(set.thresholds());
            taus.resize((c + 1) * row_len, never);
            ascending.push(set.is_ascending());
        }
        Self {
            taus,
            ascending,
            row_len,
        }
    }

    /// The comparator row of `channel` and its comparison direction.
    #[inline(always)]
    fn channel(&self, channel: usize) -> (&[[i32; BANK]], bool) {
        let row = &self.taus[channel * self.row_len..][..self.row_len];
        (row.as_chunks().0, self.ascending[channel])
    }
}

/// The activation level of `acc`: how many comparators of the row fire.
#[inline(always)]
fn level(banks: &[[i32; BANK]], ascending: bool, acc: i32) -> u8 {
    let mut fired = 0u32;
    for bank in banks {
        for &tau in bank {
            fired += u32::from(if ascending { tau <= acc } else { tau >= acc });
        }
    }
    fired as u8
}

/// The input feature map as the sliding-window unit sees it: per bitplane
/// and per padded input row, one dense channel-innermost bit stream.
struct LineBuffer {
    words: Vec<u64>,
    /// Words per row, including one spare so a two-word fetch at the last
    /// bit of a row stays in bounds.
    row_words: usize,
    /// Padded rows per plane.
    rows: usize,
}

impl LineBuffer {
    /// Packs a CHW feature map with `pad` zero pixels on every border.
    ///
    /// # Panics
    ///
    /// Panics if any activation level exceeds the `act_bits`-bit range: a
    /// wider level would otherwise be truncated to its low planes and
    /// computed on as if it were a valid one.
    fn pack(input: &Tensor<u8>, pad: usize, act_bits: usize) -> Self {
        let shape = input.shape();
        let (channels, height, width) = (shape.channels, shape.height, shape.width);
        let row_words = ((width + 2 * pad) * channels).div_ceil(WORD_BITS) + 1;
        let rows = height + 2 * pad;
        let plane_words = rows * row_words;
        let mut words = vec![0u64; PLANES * plane_words];
        let mut seen = 0u8;
        let input_rows = input.as_slice().chunks_exact(width.max(1));
        for (index, levels) in input_rows.enumerate() {
            let (c, y) = (index / height, index % height);
            let row = (y + pad) * row_words;
            for (x, &level) in levels.iter().enumerate() {
                seen |= level;
                let bit = (x + pad) * channels + c;
                let (word, shift) = (row + bit / WORD_BITS, bit % WORD_BITS);
                for plane in 0..PLANES {
                    words[plane * plane_words + word] |= u64::from(level >> plane & 1) << shift;
                }
            }
        }
        // Levels are OR-ed: any bit above `act_bits` marks an offender.
        assert!(
            seen >> act_bits == 0,
            "activation level exceeds {act_bits}-bit range"
        );
        Self {
            words,
            row_words,
            rows,
        }
    }

    /// Padded row `y` of bitplane `plane`.
    #[inline(always)]
    fn row(&self, plane: usize, y: usize) -> &[u64] {
        &self.words[(plane * self.rows + y) * self.row_words..][..self.row_words]
    }
}

/// ORs `len` bits of `src` starting at bit `src_bit` into `dst` starting at
/// bit `dst_bit`. `dst` must be clear there, and `src` must extend one word
/// past the last bit read.
#[inline(always)]
fn append_bits(dst: &mut [u64], dst_bit: usize, src: &[u64], src_bit: usize, len: usize) {
    let mut done = 0;
    while done < len {
        let take = (len - done).min(WORD_BITS);
        let (word, shift) = ((src_bit + done) / WORD_BITS, (src_bit + done) % WORD_BITS);
        let mut chunk = src[word] >> shift;
        if shift != 0 {
            chunk |= src[word + 1] << (WORD_BITS - shift);
        }
        if take < WORD_BITS {
            chunk &= (1u64 << take) - 1;
        }
        let (word, shift) = ((dst_bit + done) / WORD_BITS, (dst_bit + done) % WORD_BITS);
        dst[word] |= chunk << shift;
        if shift + take > WORD_BITS {
            dst[word + 1] |= chunk >> (WORD_BITS - shift);
        }
        done += take;
    }
}

/// One convolution (before pooling) over one input feature map.
pub(crate) struct StreamedConv<'a> {
    pub(crate) in_shape: Shape3,
    pub(crate) geom: ConvGeom,
    /// Weight rows in tap-major `(ky, kx, c)` order.
    pub(crate) weights: &'a BitTensor,
    pub(crate) thresholds: &'a ThresholdTable,
    /// Widest activation level the layer accepts, in bits (`1..=3`).
    pub(crate) act_bits: usize,
    /// Must have shape `in_shape`.
    pub(crate) input: &'a Tensor<u8>,
}

impl PopcountKernel for StreamedConv<'_> {
    type Output = Tensor<u8>;

    #[inline(always)]
    fn run(self) -> Tensor<u8> {
        let Self {
            in_shape,
            geom,
            weights,
            thresholds,
            act_bits,
            input,
        } = self;
        let channels = in_shape.channels;
        let conv_shape = geom.output_shape(in_shape, weights.rows());
        let (out_width, pixels) = (conv_shape.width, conv_shape.spatial());
        let lines = LineBuffer::pack(input, geom.pad, act_bits);

        let words = weights.words_per_row();
        let footprint_words = PLANES * words;
        let run_bits = geom.kernel * channels;
        let tile_pixels = (TILE_BYTES / (footprint_words * 8)).clamp(1, pixels.max(1));
        let mut tile = vec![0u64; tile_pixels * footprint_words];
        let mut plane_sums = vec![0i32; tile_pixels];
        let mut out = Tensor::zeros(conv_shape);
        let levels = out.as_mut_slice();

        for start in (0..pixels).step_by(tile_pixels) {
            let count = tile_pixels.min(pixels - start);
            tile[..count * footprint_words].fill(0);
            let footprints = tile.chunks_exact_mut(footprint_words);
            for (i, (footprint, sum)) in footprints.zip(&mut plane_sums[..count]).enumerate() {
                let (oy, ox) = ((start + i) / out_width, (start + i) % out_width);
                let src_bit = ox * geom.stride * channels;
                *sum = 0;
                for (p, plane) in footprint.chunks_exact_mut(words).enumerate() {
                    for ky in 0..geom.kernel {
                        let line = lines.row(p, oy * geom.stride + ky);
                        append_bits(plane, ky * run_bits, line, src_bit, run_bits);
                    }
                    let mut ones = 0;
                    for &word in plane.iter() {
                        ones += word.count_ones();
                    }
                    *sum += (ones as i32) << p;
                }
            }
            for r in 0..weights.rows() {
                let weight_row = weights.row_words(r);
                let (banks, ascending) = thresholds.channel(r);
                let row_levels = &mut levels[r * pixels + start..][..count];
                let footprints = tile.chunks_exact(footprint_words);
                let pixels_of_tile = row_levels.iter_mut().zip(footprints).zip(&plane_sums);
                for ((out_level, footprint), &sum) in pixels_of_tile {
                    let (plane0, rest) = footprint.split_at(words);
                    let (plane1, plane2) = rest.split_at(words);
                    let (mut ones0, mut ones1, mut ones2) = (0u32, 0u32, 0u32);
                    for j in 0..words {
                        let w = weight_row[j];
                        ones0 += (w & plane0[j]).count_ones();
                        ones1 += (w & plane1[j]).count_ones();
                        ones2 += (w & plane2[j]).count_ones();
                    }
                    let acc = 2 * (ones0 + 2 * ones1 + 4 * ones2) as i32 - sum;
                    *out_level = level(banks, ascending, acc);
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn append_bits_copies_unaligned_runs() {
        // 200 source bits with a recognisable pattern, plus the spare word.
        let src = [
            0x0123_4567_89ab_cdef_u64,
            0xfedc_ba98_7654_3210,
            0xdead_beef_cafe_f00d,
            0x0000_0000_0000_00a5,
            0,
        ];
        let bit = |words: &[u64], i: usize| words[i / 64] >> (i % 64) & 1;
        for (dst_bit, src_bit, len) in [
            (0, 0, 64),
            (0, 0, 128),
            (5, 61, 70),
            (63, 1, 130),
            (64, 64, 64),
            (100, 3, 1),
            (17, 130, 70),
        ] {
            let mut dst = [0u64; 4];
            append_bits(&mut dst, dst_bit, &src, src_bit, len);
            for i in 0..256 {
                let expected = if (dst_bit..dst_bit + len).contains(&i) {
                    bit(&src, src_bit + i - dst_bit)
                } else {
                    0
                };
                assert_eq!(
                    bit(&dst, i),
                    expected,
                    "dst {dst_bit} src {src_bit} len {len} bit {i}"
                );
            }
        }
    }

    #[test]
    fn comparator_banks_agree_with_threshold_sets() {
        use tincy_quant::ThresholdSet;
        let sets = vec![
            ThresholdSet::new(vec![-9, -9, -2, 0, 3, 3, 40]).unwrap(),
            ThresholdSet::with_direction(vec![-30, -4, -4, 0, 1, 8, 8], false).unwrap(),
            ThresholdSet::with_direction(vec![i32::MIN, -1, 0, 0, 5, 6, i32::MAX], false).unwrap(),
            ThresholdSet::new(vec![i32::MIN, -1, 0, 0, 5, 6, i32::MAX]).unwrap(),
        ];
        let table = ThresholdTable::new(&ThresholdsForLayer::new(sets.clone()).unwrap());
        for (c, set) in sets.iter().enumerate() {
            let (banks, ascending) = table.channel(c);
            for acc in -50..50 {
                assert_eq!(
                    level(banks, ascending, acc),
                    set.activate(acc),
                    "{c} at {acc}"
                );
            }
        }
        // More thresholds than one bank holds, and fewer.
        for len in [1usize, 8, 9, 255] {
            let set = ThresholdSet::new((0..len as i32).map(|k| 2 * k - 7).collect()).unwrap();
            let table = ThresholdTable::new(&ThresholdsForLayer::new(vec![set.clone()]).unwrap());
            let (banks, ascending) = table.channel(0);
            for acc in -10..520 {
                assert_eq!(
                    level(banks, ascending, acc),
                    set.activate(acc),
                    "{len} at {acc}"
                );
            }
        }
    }

    #[test]
    fn line_buffer_is_channel_innermost_with_zero_borders() {
        let shape = tincy_tensor::Shape3::new(3, 2, 2);
        let input = Tensor::from_fn(shape, |c, y, x| (1 + c + 2 * y + x) as u8);
        let lines = LineBuffer::pack(&input, 1, 3);
        assert_eq!(lines.rows, 4);
        for plane in 0..PLANES {
            for y in 0..4 {
                let row = lines.row(plane, y);
                for x in 0..4 {
                    for c in 0..3 {
                        let bit = x * 3 + c;
                        let inside = (1..3).contains(&y) && (1..3).contains(&x);
                        let level = if inside { input.at(c, y - 1, x - 1) } else { 0 };
                        assert_eq!(
                            row[bit / 64] >> (bit % 64) & 1,
                            u64::from(level >> plane & 1),
                            "plane {plane} pixel ({y},{x}) channel {c}"
                        );
                    }
                }
            }
        }
    }
}
