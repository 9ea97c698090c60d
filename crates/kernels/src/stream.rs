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
//!    one input row are `K·C` *adjacent* bits. Where `C` is a multiple of
//!    eight the stream is written a byte at a time, at any map width: eight
//!    channels of up to eight pixels are turned into the pixels'
//!    channel-bytes by shifts and ORs on whole words.
//! 2. **Window assembly.** A footprint plane is `K` such runs, one per
//!    kernel row, gathered a whole word at a time into a reused tile
//!    buffer, or copied as slices where `C` is a multiple of 64. The plane
//!    popcounts `Σ_p 2^p·pc(plane_p)` are folded once per pixel while the
//!    words are hot.
//! 3. **MVTU.** Per weight row, first every pixel of the tile gets its
//!    accumulator — the three planes ANDed against the same weight word
//!    and counted together,
//!    `acc = 2·Σ_p 2^p·pc(w ∧ plane_p) − Σ_p 2^p·pc(plane_p)` — then the
//!    channel's comparators ([`ThresholdTable`]) run across that row of
//!    accumulators and write the levels straight into the CHW output.
//!
//! Nothing is allocated per pixel and nothing is cloned per call; the
//! tap-major weights and the comparator rows are built once in
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
/// A pass holds whole comparator groups: the pixel count is rounded up
/// to a multiple of [`LANES`], so only a layer's last pass has a tail.
const TILE_BYTES: usize = 16 * 1024;

/// Accumulators the comparators fire as one lane group.
const LANES: usize = 16;

/// A layer's threshold sets as the MVTU's comparator rows: the thresholds
/// of every output channel in one contiguous array, `row_len` per channel,
/// so a weight row finds its comparators without a pointer chase.
#[derive(Debug)]
pub(crate) struct ThresholdTable {
    taus: Vec<i32>,
    ascending: Vec<bool>,
    row_len: usize,
}

impl ThresholdTable {
    pub(crate) fn new(thresholds: &ThresholdsForLayer) -> Self {
        let row_len = thresholds.channel(0).len();
        let mut taus = Vec::with_capacity(thresholds.num_channels() * row_len);
        let mut ascending = Vec::with_capacity(thresholds.num_channels());
        for set in thresholds.iter() {
            taus.extend_from_slice(set.thresholds());
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
    fn channel(&self, channel: usize) -> (&[i32], bool) {
        let row = &self.taus[channel * self.row_len..][..self.row_len];
        (row, self.ascending[channel])
    }
}

/// Sets each of `levels` to the number of comparators its accumulator
/// fires — the count [`tincy_quant::ThresholdSet::activate`] finds by
/// binary search. The comparison runs *across pixels*: one threshold
/// against a lane-wide group of accumulators at a time, the counts staying
/// in their lanes, so there is no horizontal sum per pixel and no
/// data-dependent branch.
#[inline(always)]
fn fire(taus: &[i32], ascending: bool, accs: &[i32], levels: &mut [u8]) {
    if ascending {
        count_fired(taus, accs, levels, |tau, acc| tau <= acc);
    } else {
        count_fired(taus, accs, levels, |tau, acc| tau >= acc);
    }
}

#[inline(always)]
fn count_fired(taus: &[i32], accs: &[i32], levels: &mut [u8], fires: impl Fn(i32, i32) -> bool) {
    let (acc_groups, acc_tail) = accs.as_chunks::<LANES>();
    let (level_groups, level_tail) = levels.as_chunks_mut::<LANES>();
    for (levels, accs) in level_groups.iter_mut().zip(acc_groups) {
        let mut fired = [0i32; LANES];
        for &tau in taus {
            // Opaque to the optimizer, so that the lanes are what gets
            // vectorized. Left visible, wide-vector builds unroll the lanes
            // and vectorize this loop instead: sixteen reductions over the
            // thresholds, which a row of seven never fills, so every lane
            // fell back to a scalar count (2× the portable build's time).
            let tau = std::hint::black_box(tau);
            for (fired, &acc) in fired.iter_mut().zip(accs) {
                *fired += i32::from(fires(tau, acc));
            }
        }
        for (level, fired) in levels.iter_mut().zip(fired) {
            *level = fired as u8;
        }
    }
    for (level, &acc) in level_tail.iter_mut().zip(acc_tail) {
        *level = taus.iter().filter(|&&tau| fires(tau, acc)).count() as u8;
    }
}

/// One weight row of `words` words against every footprint of the tile:
/// `accs[i] = 2·Σ_p 2^p·pc(w ∧ plane_p[i]) − sums[i]`.
///
/// Inlined into every call site: called with a literal word count, the
/// `3·words` AND-popcounts unroll flat.
#[inline(always)]
fn accumulate(words: usize, weight_row: &[u64], tile: &[u64], sums: &[i32], accs: &mut [i32]) {
    let weight_row = &weight_row[..words];
    let footprints = tile.chunks_exact(PLANES * words);
    for ((acc, footprint), &sum) in accs.iter_mut().zip(footprints).zip(sums) {
        let (plane0, rest) = footprint.split_at(words);
        let (plane1, plane2) = rest.split_at(words);
        let (mut ones0, mut ones1, mut ones2) = (0u32, 0u32, 0u32);
        for j in 0..words {
            let w = weight_row[j];
            ones0 += (w & plane0[j]).count_ones();
            ones1 += (w & plane1[j]).count_ones();
            ones2 += (w & plane2[j]).count_ones();
        }
        *acc = 2 * (ones0 + 2 * ones1 + 4 * ones2) as i32 - sum;
    }
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
        let (row_bytes, rows) = (row_words * 8, height + 2 * pad);
        let plane_bytes = rows * row_bytes;
        // Bit `k` of a row's stream is bit `k % 8` of its byte `k / 8`:
        // the little-endian image of the `u64` words the windows read.
        let mut bytes = vec![0u8; PLANES * plane_bytes];
        let mut seen = 0u64;
        // Eight channels of eight pixels at a time where the channel count
        // allows: the eight bits a pixel gets from the group are one whole
        // byte of its row, so the group is stored, not OR-ed in bit by bit.
        // A row's last pixels (all of a map narrower than eight) are one
        // more group, read zero-padded.
        let grouped_channels = match channels % 8 {
            0 => channels,
            _ => 0,
        };
        let whole = width / 8 * 8;
        let level_row = |c: usize, y: usize| &input.channel(c)[y * width..][..width];
        for y in 0..height {
            let row = (y + pad) * row_bytes;
            for c0 in (0..grouped_channels).step_by(8) {
                let group: [&[u8]; 8] = std::array::from_fn(|i| level_row(c0 + i, y));
                for x0 in (0..whole).step_by(8) {
                    let read = |levels: &[u8]| {
                        u64::from_le_bytes(levels[x0..x0 + 8].try_into().expect("eight pixels"))
                    };
                    let planes = channel_bytes(&group, read, &mut seen);
                    for (p, plane) in planes.iter().enumerate() {
                        for (j, &byte) in plane.iter().enumerate() {
                            let at = ((x0 + j + pad) * channels + c0) / 8;
                            bytes[p * plane_bytes + row + at] = byte;
                        }
                    }
                }
                if whole < width {
                    let read = |levels: &[u8]| {
                        let tail = levels[whole..].iter().rev();
                        tail.fold(0, |word, &level| word << 8 | u64::from(level))
                    };
                    let planes = channel_bytes(&group, read, &mut seen);
                    for (p, plane) in planes.iter().enumerate() {
                        for (j, &byte) in plane[..width - whole].iter().enumerate() {
                            let at = ((whole + j + pad) * channels + c0) / 8;
                            bytes[p * plane_bytes + row + at] = byte;
                        }
                    }
                }
            }
            // Any other channel count, a bit at a time.
            for c in grouped_channels..channels {
                for (x, &level) in level_row(c, y).iter().enumerate() {
                    seen |= u64::from(level);
                    let bit = (x + pad) * channels + c;
                    for plane in 0..PLANES {
                        bytes[plane * plane_bytes + row + bit / 8] |=
                            (level >> plane & 1) << (bit % 8);
                    }
                }
            }
        }
        // Levels are OR-ed: any bit above `act_bits` marks an offender.
        let seen = seen.to_le_bytes().iter().fold(0, |all, byte| all | byte);
        assert!(
            seen >> act_bits == 0,
            "activation level exceeds {act_bits}-bit range"
        );
        let words = bytes
            .as_chunks()
            .0
            .iter()
            .map(|&word| u64::from_le_bytes(word));
        Self {
            words: words.collect(),
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

/// The channel-bytes of eight channels at eight pixels, per plane: byte
/// `j`, bit `i` of plane `p` is plane `p` of pixel `j` in channel `i`.
/// `read` gives a channel's eight levels as one little-endian word; every
/// level read is OR-ed into `seen`.
#[inline(always)]
fn channel_bytes(
    group: &[&[u8]; 8],
    read: impl Fn(&[u8]) -> u64,
    seen: &mut u64,
) -> [[u8; 8]; PLANES] {
    let mut planes = [0u64; PLANES];
    for (i, levels) in group.iter().enumerate() {
        let levels = read(levels);
        *seen |= levels;
        for (p, plane) in planes.iter_mut().enumerate() {
            *plane |= (levels >> p & 0x0101_0101_0101_0101) << i;
        }
    }
    planes.map(u64::to_le_bytes)
}

/// Concatenates runs of `len` bits, each read from bit `src_bit` of one
/// row, into `dst` a whole word at a time. Every word of `dst` is written,
/// so it needs no clearing: it must be exactly as long as the runs' bits
/// rounded up to a word. Each row must extend one word past the last bit
/// read.
#[inline(always)]
fn gather_runs<'a>(
    dst: &mut [u64],
    rows: impl Iterator<Item = &'a [u64]>,
    src_bit: usize,
    len: usize,
) {
    let (mut word, mut fill, mut at) = (0u64, 0, 0);
    for src in rows {
        let mut done = 0;
        while done < len {
            let take = (len - done).min(WORD_BITS);
            let (i, shift) = ((src_bit + done) / WORD_BITS, (src_bit + done) % WORD_BITS);
            // Two words funnel-shifted; the split shift is zero, not an
            // overflow, when the run starts on a word boundary.
            let mut chunk = src[i] >> shift | (src[i + 1] << 1) << (WORD_BITS - 1 - shift);
            if take < WORD_BITS {
                chunk &= (1u64 << take) - 1;
            }
            word |= chunk << fill;
            if fill + take >= WORD_BITS {
                dst[at] = word;
                at += 1;
                // The chunk's bits that did not fit; none when `fill` is 0.
                word = (chunk >> 1) >> (WORD_BITS - 1 - fill);
                fill = fill + take - WORD_BITS;
            } else {
                fill += take;
            }
            done += take;
        }
    }
    if fill > 0 {
        dst[at] = word;
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
        let tile_pixels = (TILE_BYTES / (footprint_words * 8)).div_ceil(LANES) * LANES;
        let tile_pixels = tile_pixels.clamp(1, pixels.max(1));
        let mut tile = vec![0u64; tile_pixels * footprint_words];
        let mut plane_sums = vec![0i32; tile_pixels];
        let mut accs = vec![0i32; tile_pixels];
        let mut out = Tensor::zeros(conv_shape);
        let levels = out.as_mut_slice();

        // Where the channel count is a multiple of 64, every run starts and
        // ends on a word boundary: the footprint is `K` slices of the line
        // buffer, copied whole.
        let aligned = channels.is_multiple_of(WORD_BITS);
        let run_words = run_bits / WORD_BITS;

        for start in (0..pixels).step_by(tile_pixels) {
            let count = tile_pixels.min(pixels - start);
            let footprints = tile.chunks_exact_mut(footprint_words);
            let (mut oy, mut ox) = (start / out_width, start % out_width);
            for (footprint, sum) in footprints.zip(&mut plane_sums[..count]) {
                let src_bit = ox * geom.stride * channels;
                *sum = 0;
                for (p, plane) in footprint.chunks_exact_mut(words).enumerate() {
                    let rows = (0..geom.kernel).map(|ky| lines.row(p, oy * geom.stride + ky));
                    if aligned {
                        for (run, line) in plane.chunks_exact_mut(run_words).zip(rows) {
                            run.copy_from_slice(&line[src_bit / WORD_BITS..][..run_words]);
                        }
                    } else {
                        // The first hidden layer's runs are 16 channels
                        // by three taps: one chunk each, given as a constant.
                        match run_bits {
                            48 => gather_runs(plane, rows, src_bit, 48),
                            _ => gather_runs(plane, rows, src_bit, run_bits),
                        }
                    }
                    let mut ones = 0;
                    for &word in plane.iter() {
                        ones += word.count_ones();
                    }
                    *sum += (ones as i32) << p;
                }
                ox += 1;
                if ox == out_width {
                    (oy, ox) = (oy + 1, 0);
                }
            }
            for r in 0..weights.rows() {
                let weight_row = weights.row_words(r);
                let accs = &mut accs[..count];
                // The first hidden layer's 144-bit footprint is three
                // words, so it pays per pixel, not per word: give it the
                // loop with its word count as a constant.
                match words {
                    3 => accumulate(3, weight_row, &tile, &plane_sums, accs),
                    _ => accumulate(words, weight_row, &tile, &plane_sums, accs),
                }
                let (taus, ascending) = thresholds.channel(r);
                fire(
                    taus,
                    ascending,
                    accs,
                    &mut levels[r * pixels + start..][..count],
                );
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use tincy_quant::ThresholdSet;

    #[test]
    fn gather_runs_concatenates_unaligned_runs() {
        // Rows of 200 source bits with a recognisable pattern, plus the
        // spare word; every row differs.
        let pattern = [
            0x0123_4567_89ab_cdef_u64,
            0xfedc_ba98_7654_3210,
            0xdead_beef_cafe_f00d,
            0x0000_0000_0000_00a5,
            0,
        ];
        let rows: Vec<[u64; 5]> = (0..3u32)
            .map(|r| pattern.map(|word| word.rotate_left(7 * r)))
            .collect();
        let bit = |words: &[u64], i: usize| words[i / 64] >> (i % 64) & 1;
        for (runs, src_bit, len) in [
            (1usize, 0usize, 64usize),
            (2, 0, 128),
            (3, 61, 70),
            (2, 1, 130),
            (3, 64, 64),
            (3, 3, 1),
            (3, 16, 48),
            (3, 130, 70),
        ] {
            let mut dst = vec![!0u64; (runs * len).div_ceil(64)];
            let sources = rows[..runs].iter().map(|row| &row[..]);
            gather_runs(&mut dst, sources, src_bit, len);
            for i in 0..dst.len() * 64 {
                let expected = if i < runs * len {
                    bit(&rows[i / len], src_bit + i % len)
                } else {
                    0
                };
                assert_eq!(
                    bit(&dst, i),
                    expected,
                    "{runs} runs of {len} from {src_bit}: bit {i}"
                );
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The across-pixel comparator count is `ThresholdSet::activate`,
        /// in both directions, with duplicate thresholds and the `i32`
        /// extremes as thresholds and as accumulators, on tile tails too
        /// short to fill a vector lane.
        #[test]
        fn comparators_across_pixels_agree_with_threshold_sets(
            steps in proptest::collection::vec(0i32..4, 1..12),
            base in -20i32..20,
            (low_sentinel, high_sentinel, ascending) in (any::<bool>(), any::<bool>(), any::<bool>()),
            accs in proptest::collection::vec(-30i32..50, 1..10),
            extreme in 0usize..3,
        ) {
            let mut tau = base;
            let mut taus: Vec<i32> = steps.iter().map(|step| { tau += step; tau }).collect();
            if low_sentinel {
                taus[0] = i32::MIN;
            }
            if high_sentinel {
                *taus.last_mut().expect("at least one threshold") = i32::MAX;
            }
            taus.sort_unstable();
            let mut accs = accs;
            accs[0] = [accs[0], i32::MIN, i32::MAX][extreme];
            let set = ThresholdSet::with_direction(taus, ascending).expect("monotone");
            let other = ThresholdSet::with_direction(vec![0; set.len()], !ascending).expect("monotone");
            let table = ThresholdTable::new(
                &ThresholdsForLayer::new(vec![other, set.clone()]).expect("uniform"),
            );
            let (row, direction) = table.channel(1);
            prop_assert_eq!(direction, ascending);
            let mut levels = vec![0u8; accs.len()];
            fire(row, direction, &accs, &mut levels);
            let expected: Vec<u8> = accs.iter().map(|&acc| set.activate(acc)).collect();
            prop_assert_eq!(levels, expected);
        }
    }

    #[test]
    fn comparator_rows_hold_more_thresholds_than_a_lane() {
        for len in [1usize, 8, 9, 255] {
            let set = ThresholdSet::new((0..len as i32).map(|k| 2 * k - 7).collect()).unwrap();
            let table = ThresholdTable::new(&ThresholdsForLayer::new(vec![set.clone()]).unwrap());
            let (row, ascending) = table.channel(0);
            let accs: Vec<i32> = (-10..520).collect();
            let mut levels = vec![0u8; accs.len()];
            fire(row, ascending, &accs, &mut levels);
            for (&acc, &level) in accs.iter().zip(&levels) {
                assert_eq!(level, set.activate(acc), "{len} at {acc}");
            }
        }
    }

    #[test]
    fn line_buffer_groups_of_eight_channels_match_the_bitwise_layout() {
        // Whole groups, a pixel tail, channels past the first word, and the
        // product's maps narrower than one group, with and without padding.
        let narrow = [128, 256, 512]
            .into_iter()
            .flat_map(|c| [1, 2, 4].map(|w| (c, w)))
            .flat_map(|(c, w)| [0, 1].map(|pad| (c, 2, w, pad)));
        let wide = [(8, 2, 8, 0), (16, 3, 19, 1), (72, 2, 9, 1)];
        for (channels, height, width, pad) in wide.into_iter().chain(narrow) {
            let shape = tincy_tensor::Shape3::new(channels, height, width);
            let input = Tensor::from_fn(shape, |c, y, x| ((c * 5 + y * 3 + x * 7) % 8) as u8);
            let lines = LineBuffer::pack(&input, pad, 3);
            for plane in 0..PLANES {
                for y in 0..height + 2 * pad {
                    let row = lines.row(plane, y);
                    for x in 0..width + 2 * pad {
                        for c in 0..channels {
                            let bit = x * channels + c;
                            let inside =
                                (pad..pad + height).contains(&y) && (pad..pad + width).contains(&x);
                            let level = if inside {
                                input.at(c, y - pad, x - pad)
                            } else {
                                0
                            };
                            assert_eq!(
                                row[bit / 64] >> (bit % 64) & 1,
                                u64::from(level >> plane & 1),
                                "{channels} channels: plane {plane} pixel ({y},{x}) channel {c}"
                            );
                        }
                    }
                }
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
