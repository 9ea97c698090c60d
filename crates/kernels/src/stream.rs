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
//!    kernel row, gathered a whole word at a time (or copied word by word
//!    where `C` is a multiple of 64; a run of at most 57 bits is one word
//!    read from its first byte) straight into a reused tile buffer.
//!    The tile is *lane-major*: a group of `G` pixels fills rows of eight
//!    `u64` lanes (one 512-bit vector, aligned to it), word `s·W + k` of
//!    a pixel's plane `p` in lane `(pixel mod G)·W + k` of row
//!    `p·steps + s`, where `W = 8 / G` — eight pixels of one word each,
//!    or on a map narrower than eight pixels fewer pixels of several
//!    words side by side, so no lane idles.
//!    The plane popcounts `Σ_p 2^p·pc(plane_p)` are folded once per pixel
//!    while the words are hot.
//! 3. **MVTU.** Per weight row, first every pixel of the tile gets its
//!    accumulator: each weight word is loaded once, broadcast across a
//!    tile row and ANDed against all eight lanes of each plane, and the
//!    lanes keep their counts,
//!    `acc = 2·Σ_p 2^p·pc(w ∧ plane_p) − Σ_p 2^p·pc(plane_p)` — one
//!    vector AND-popcount per plane and step under `VPOPCNTDQ`, no gather
//!    and no horizontal sum but the `W` lanes of a pixel. Then the
//!    channel's comparators ([`ThresholdTable`]) run across that row of
//!    accumulators and write the levels straight into the CHW output.
//! 4. **Pool.** The layer's optional max-pool runs in the same call, so
//!    under the same instruction set.
//!
//! Nothing is allocated per pixel and nothing is cloned per call; the
//! tap-major weights and the comparator rows are built once in
//! [`crate::PackedLayer::new`]. Activations narrower than three bits leave
//! the upper planes empty, which the arithmetic above gets right without a
//! special case.

use crate::max_pool_levels;
use tincy_quant::ThresholdsForLayer;
use tincy_simd::IsaKernel;
use tincy_tensor::{BitTensor, ConvGeom, PoolGeom, Shape3, Tensor};

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

/// `u64` lanes of a tile row, one 512-bit vector: a word of each of eight
/// pixels, or several words of each of fewer.
const WORD_LANES: usize = 8;

/// One tile row, aligned to its size so that a vector load of it never
/// straddles two cache lines.
#[derive(Clone, Copy, Default)]
#[repr(align(64))]
struct Lanes([u64; WORD_LANES]);

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
        *levels = count_lanes(taus, accs, &fires);
    }
    if !acc_tail.is_empty() {
        // A tail runs the same lanes, padded; the padding's counts are
        // dropped. A map of four pixels (layers 4–6 at input 64) is all
        // tail, and counting it lane by lane cost those layers ≈ 8 %.
        let mut padded = [0; LANES];
        padded[..acc_tail.len()].copy_from_slice(acc_tail);
        let counts = count_lanes(taus, &padded, &fires);
        level_tail.copy_from_slice(&counts[..level_tail.len()]);
    }
}

/// The number of `taus` each of a lane group's accumulators fires.
#[inline(always)]
fn count_lanes(taus: &[i32], accs: &[i32; LANES], fires: impl Fn(i32, i32) -> bool) -> [u8; LANES] {
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
    fired.map(|fired| fired as u8)
}

/// One weight row of `words` words against every footprint group of the
/// tile: `accs[i] = 2·Σ_p 2^p·pc(w ∧ plane_p[i]) − sums[i]` for each of
/// the `G` pixels of a group, `W` = [`WORD_LANES`]` / G` words of a pixel
/// side by side.
///
/// Each step loads `W` weight words once and ANDs them against all
/// [`WORD_LANES`] words of a tile row; the counts stay in their lanes, so
/// the vector instantiation is one broadcast, three ANDs and three
/// popcounts per step, and there is one sum over `W` lanes per pixel and
/// weight row. Inlined into every call site: called with a literal word
/// count, the steps unroll flat.
#[inline(always)]
fn accumulate<const G: usize, const W: usize>(
    words: usize,
    weight_row: &[u64],
    tile: &[Lanes],
    sums: &[i32],
    accs: &mut [i32],
) {
    const { assert!(G * W == WORD_LANES) };
    let (whole, tail) = weight_row[..words].as_chunks::<W>();
    // A row whose word count is not a multiple of `W` ends in one step
    // padded with zero words, against the tile's zero words.
    let mut last = [0u64; W];
    last[..tail.len()].copy_from_slice(tail);
    let steps = words.div_ceil(W);
    let groups = tile.chunks_exact(PLANES * steps);
    let pixels = accs.chunks_exact_mut(G).zip(sums.chunks_exact(G));
    for (group, (accs, sums)) in groups.zip(pixels) {
        let (plane0, rest) = group.split_at(steps);
        let (plane1, plane2) = rest.split_at(steps);
        let mut ones = [0u64; WORD_LANES];
        for (s, &w) in whole.iter().enumerate() {
            count_step(&mut ones, w, [&plane0[s], &plane1[s], &plane2[s]]);
        }
        if !tail.is_empty() {
            let s = whole.len();
            count_step(&mut ones, last, [&plane0[s], &plane1[s], &plane2[s]]);
        }
        // Where a pixel spans `W > 1` lanes, opaque to the optimizer, so
        // that a tile row stays one vector. Left visible, the per-pixel sums
        // led the AVX-512 build to split every tile row into its `W` word
        // positions, with masked loads and shuffles per step, and layers
        // 4–6 at input 64 took 2–3× as long.
        let ones = if W > 1 {
            std::hint::black_box(ones)
        } else {
            ones
        };
        let per_pixel = ones.as_chunks::<W>().0;
        // The group's accumulators as one array, stored at once: written
        // pixel by pixel, they were extracted and stored one at a time.
        let group: [i32; G] =
            std::array::from_fn(|i| 2 * per_pixel[i].iter().sum::<u64>() as i32 - sums[i]);
        accs.copy_from_slice(&group);
    }
}

/// `W` weight words against one tile row of each plane, lane by lane.
#[inline(always)]
fn count_step<const W: usize>(ones: &mut [u64; WORD_LANES], w: [u64; W], planes: [&Lanes; PLANES]) {
    // Opaque to the optimizer, so that the lanes are what gets vectorized.
    // Left visible, the AVX-512 build vectorized across groups instead,
    // through gathers, and layers 0–1 took 3.3–4× as long. One word at a
    // time: the portable build stored an opaque `[u64; 8]` as scalars and
    // reloaded it as vectors, a store-forwarding stall per step.
    let w = w.map(std::hint::black_box);
    let w: [u64; WORD_LANES] = std::array::from_fn(|l| w[l % W]);
    let [Lanes(b0), Lanes(b1), Lanes(b2)] = planes;
    for (l, ones) in ones.iter_mut().enumerate() {
        let w = w[l];
        *ones += u64::from((w & b0[l]).count_ones())
            + (u64::from((w & b1[l]).count_ones()) << 1)
            + (u64::from((w & b2[l]).count_ones()) << 2);
    }
}

/// The input feature map as the sliding-window unit sees it: per bitplane
/// and per padded input row, one dense channel-innermost bit stream, held
/// as bytes so that a word can be read from any byte of a row.
struct LineBuffer {
    bytes: Vec<u8>,
    /// Bytes per row, including one spare word so a two-word fetch at the
    /// last bit of a row stays in bounds.
    row_bytes: usize,
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
        Self {
            bytes,
            row_bytes,
            rows,
        }
    }

    /// Padded row `y` of bitplane `plane`.
    #[inline(always)]
    fn row(&self, plane: usize, y: usize) -> &[u8] {
        &self.bytes[(plane * self.rows + y) * self.row_bytes..][..self.row_bytes]
    }
}

/// The 64 bits of `row` from its byte `byte` on, as one word: bit `k` of the
/// word is bit `8·byte + k` of the row's stream.
#[inline(always)]
fn word_at(row: &[u8], byte: usize) -> u64 {
    u64::from_le_bytes(*row[byte..].first_chunk().expect("a word inside the row"))
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
/// row, and hands the result to `put` a whole word at a time, in order:
/// the runs' bits rounded up to a word, the last word zero-padded. Each
/// row must extend one word past the last bit read.
#[inline(always)]
fn gather_runs<'a>(
    rows: impl Iterator<Item = &'a [u8]>,
    src_bit: usize,
    len: usize,
    mut put: impl FnMut(u64),
) {
    let (mut word, mut fill) = (0u64, 0);
    for src in rows {
        let mut done = 0;
        while done < len {
            let take = (len - done).min(WORD_BITS);
            let (i, shift) = ((src_bit + done) / WORD_BITS, (src_bit + done) % WORD_BITS);
            // Two words funnel-shifted; the split shift is zero, not an
            // overflow, when the run starts on a word boundary.
            let (low, high) = (word_at(src, 8 * i), word_at(src, 8 * i + 8));
            let mut chunk = low >> shift | (high << 1) << (WORD_BITS - 1 - shift);
            if take < WORD_BITS {
                chunk &= (1u64 << take) - 1;
            }
            word |= chunk << fill;
            if fill + take >= WORD_BITS {
                put(word);
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
        put(word);
    }
}

/// [`gather_runs`] for `K` runs of `LEN ≤ 57` bits each, all from bit
/// `src_bit` of their rows: one word read from the run's first byte per
/// run, the chunks concatenated through a two-word window. With both
/// counts constant the window's shifts are constants too.
#[inline(always)]
fn gather_short_runs<const LEN: usize, const K: usize>(
    rows: [&[u8]; K],
    src_bit: usize,
    mut put: impl FnMut(u64),
) {
    // A word read from the run's first byte holds at least 57 of its bits.
    const { assert!(0 < LEN && LEN <= WORD_BITS - 7) };
    let (byte, shift) = (src_bit / 8, src_bit % 8);
    let mask = u64::MAX >> (WORD_BITS - LEN);
    let (mut window, mut fill) = (0u128, 0);
    for src in rows {
        window |= u128::from(word_at(src, byte) >> shift & mask) << fill;
        fill += LEN;
        if fill >= WORD_BITS {
            put(window as u64);
            window >>= WORD_BITS;
            fill -= WORD_BITS;
        }
    }
    if fill > 0 {
        put(window as u64);
    }
}

/// One convolution and its optional max-pool over one input feature map.
pub(crate) struct StreamedConv<'a> {
    pub(crate) in_shape: Shape3,
    pub(crate) geom: ConvGeom,
    /// Weight rows in tap-major `(ky, kx, c)` order.
    pub(crate) weights: &'a BitTensor,
    pub(crate) thresholds: &'a ThresholdTable,
    /// Widest activation level the layer accepts, in bits (`1..=3`).
    pub(crate) act_bits: usize,
    /// The max-pool that finishes the layer, if any.
    pub(crate) pool: Option<PoolGeom>,
    /// Must have shape `in_shape`.
    pub(crate) input: &'a Tensor<u8>,
}

impl IsaKernel for StreamedConv<'_> {
    type Output = Tensor<u8>;

    #[inline(always)]
    fn run(self) -> Tensor<u8> {
        let pixels = self.geom.output_shape(self.in_shape, 1).spatial();
        let words = self.weights.words_per_row();
        // A group is `G` pixels of `WORD_LANES / G` words each: eight pixels
        // of one word, or on a map narrower than eight pixels fewer pixels
        // of several, so no lane idles.
        match (pixels.next_power_of_two().min(WORD_LANES), words) {
            // The first hidden layer's 144-bit footprint is three words:
            // give it the steps as a constant.
            (8, 3) => self.schedule::<8, 1>(3),
            (8, _) => self.schedule::<8, 1>(words),
            (4, _) => self.schedule::<4, 2>(words),
            (2, _) => self.schedule::<2, 4>(words),
            _ => self.schedule::<1, 8>(words),
        }
    }
}

impl StreamedConv<'_> {
    /// The schedule for groups of `G` pixels of `W` words each, on weight
    /// rows of `words` words.
    #[inline(always)]
    fn schedule<const G: usize, const W: usize>(self, words: usize) -> Tensor<u8> {
        let Self {
            in_shape,
            geom,
            weights,
            thresholds,
            act_bits,
            pool,
            input,
        } = self;
        let channels = in_shape.channels;
        let conv_shape = geom.output_shape(in_shape, weights.rows());
        let (out_width, pixels) = (conv_shape.width, conv_shape.spatial());
        let lines = LineBuffer::pack(input, geom.pad, act_bits);

        let run_bits = geom.kernel * channels;
        let steps = words.div_ceil(W);
        let group_rows = PLANES * steps;
        let pixel_bytes = group_rows * size_of::<Lanes>() / G;
        let tile_pixels = (TILE_BYTES / pixel_bytes).max(1).div_ceil(LANES) * LANES;
        let tile_pixels = tile_pixels.min(pixels.next_multiple_of(G));
        // The lanes of a row's padded last step stay zero: the assembly
        // below never writes them.
        let mut tile = vec![Lanes::default(); tile_pixels / G * group_rows];
        let mut plane_sums = vec![0i32; tile_pixels];
        let mut accs = vec![0i32; tile_pixels];
        let mut out = Tensor::zeros(conv_shape);
        let levels = out.as_mut_slice();

        // Where the channel count is a multiple of 64, every run starts and
        // ends on a word boundary: the footprint is `K` slices of the line
        // buffer, taken word for word.
        let aligned = channels.is_multiple_of(WORD_BITS);
        let run_bytes = run_bits / 8;

        for start in (0..pixels).step_by(tile_pixels.max(1)) {
            let count = tile_pixels.min(pixels - start);
            let (mut oy, mut ox) = (start / out_width, start % out_width);
            for (i, sum) in plane_sums[..count].iter_mut().enumerate() {
                let src_bit = ox * geom.stride * channels;
                // Straight into the pixel's lanes: word `s·W + k` of plane
                // `p` is lane `(i mod G)·W + k` of its group's row
                // `p·steps + s`.
                let group = &mut tile[i / G * group_rows..][..group_rows];
                let first_lane = i % G * W;
                *sum = 0;
                for (p, rows) in group.chunks_exact_mut(steps).enumerate() {
                    let (mut j, mut ones) = (0, 0);
                    let mut put = |word: u64| {
                        rows[j / W].0[first_lane + j % W] = word;
                        ones += word.count_ones();
                        j += 1;
                    };
                    let line = |ky: usize| lines.row(p, oy * geom.stride + ky);
                    if aligned {
                        for ky in 0..geom.kernel {
                            let run = &line(ky)[src_bit / 8..][..run_bytes];
                            for &word in run.as_chunks().0 {
                                put(u64::from_le_bytes(word));
                            }
                        }
                    } else if (geom.kernel, run_bits) == (3, 48) {
                        // The first hidden layer's runs are 16 channels by
                        // three taps: one word read each, at constant offsets.
                        gather_short_runs::<48, 3>([line(0), line(1), line(2)], src_bit, put);
                    } else {
                        gather_runs((0..geom.kernel).map(line), src_bit, run_bits, put);
                    }
                    *sum += (ones as i32) << p;
                }
                ox += 1;
                if ox == out_width {
                    (oy, ox) = (oy + 1, 0);
                }
            }
            let groups = count.div_ceil(G);
            let tile = &tile[..groups * group_rows];
            let sums = &plane_sums[..groups * G];
            let accs = &mut accs[..groups * G];
            for r in 0..weights.rows() {
                accumulate::<G, W>(words, weights.row_words(r), tile, sums, accs);
                let (taus, ascending) = thresholds.channel(r);
                fire(
                    taus,
                    ascending,
                    &accs[..count],
                    &mut levels[r * pixels + start..][..count],
                );
            }
        }
        match pool {
            Some(pool) => max_pool_levels(&out, pool),
            None => out,
        }
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
        let rows: Vec<Vec<u8>> = (0..3u32)
            .map(|r| {
                pattern
                    .iter()
                    .flat_map(|word| word.rotate_left(7 * r).to_le_bytes())
                    .collect()
            })
            .collect();
        let bit = |bytes: &[u8], i: usize| u64::from(bytes[i / 8] >> (i % 8) & 1);
        for (runs, src_bit, len) in [
            (1usize, 0usize, 64usize),
            (2, 0, 128),
            (3, 61, 70),
            (2, 1, 130),
            (3, 64, 64),
            (3, 3, 1),
            (3, 16, 48),
            (3, 13, 48),
            (3, 144, 48),
            (3, 130, 70),
        ] {
            let mut dst = Vec::new();
            let sources = rows[..runs].iter().map(|row| &row[..]);
            gather_runs(sources, src_bit, len, |word| dst.extend(word.to_le_bytes()));
            assert_eq!(dst.len(), (runs * len).div_ceil(64) * 8);
            if runs == 3 && len == 48 {
                let mut short = Vec::new();
                let rows = [&rows[0][..], &rows[1][..], &rows[2][..]];
                gather_short_runs::<48, 3>(rows, src_bit, |word| short.extend(word.to_le_bytes()));
                assert_eq!(short, dst, "short runs from {src_bit}");
            }
            for i in 0..dst.len() * 8 {
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
                                row[bit / 8] >> (bit % 8) & 1,
                                level >> plane & 1,
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
                            row[bit / 8] >> (bit % 8) & 1,
                            level >> plane & 1,
                            "plane {plane} pixel ({y},{x}) channel {c}"
                        );
                    }
                }
            }
        }
    }
}
