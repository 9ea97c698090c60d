//! Property-based tests: the one packed schedule is bit-exact with the
//! naive signed reference over randomized layer configurations and over
//! the geometry grid of the models, across the precision profiles the
//! host path serves (W1A1 to W1A3 binarized-weight layers and the W8A8
//! quantized GEMM), on every instantiation of the popcount loops.

use proptest::prelude::*;
use tincy_kernels::{gemm_q8, gemm_q8_reference, Isa, PackedLayer, Variant};
use tincy_quant::{ThresholdSet, ThresholdsForLayer};
use tincy_tensor::{BitTensor, ConvGeom, PoolGeom, Shape3, Tensor};

#[derive(Debug, Clone)]
struct LayerCase {
    in_shape: Shape3,
    out_channels: usize,
    stride: usize,
    pool: Option<PoolGeom>,
    act_bits: usize,
    weight_seed: u64,
    input_seed: u64,
}

fn layer_case() -> impl Strategy<Value = LayerCase> {
    (
        1usize..4,
        4usize..9,
        1usize..7,
        1usize..3,
        proptest::option::of((1usize..3).prop_map(|s| PoolGeom::new(2, s))),
        // W1A1 and W1A3 activation profiles; 2-bit rides along since the
        // packing is per-plane.
        1usize..4,
        any::<u64>(),
        any::<u64>(),
    )
        .prop_map(|(c, hw, oc, stride, pool, act_bits, ws, is)| LayerCase {
            in_shape: Shape3::new(c, hw, hw),
            out_channels: oc,
            stride,
            pool,
            act_bits,
            weight_seed: ws,
            input_seed: is,
        })
}

fn lcg(seed: u64) -> impl FnMut() -> u64 {
    let mut state = seed | 1;
    move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state >> 33
    }
}

fn build_layer(case: &LayerCase) -> PackedLayer {
    let geom = ConvGeom::same(3, case.stride);
    let cols = geom.dot_length(case.in_shape.channels);
    let mut rng = lcg(case.weight_seed);
    let signs: Vec<i8> = (0..case.out_channels * cols)
        .map(|_| if rng() & 1 == 0 { 1 } else { -1 })
        .collect();
    let weights = BitTensor::from_signs(case.out_channels, cols, &signs).expect("dims");
    let levels = (1usize << case.act_bits) - 1;
    let thresholds = ThresholdsForLayer::new(
        (0..case.out_channels)
            .map(|_| {
                let base = (rng() % 40) as i32 - 25;
                let step = (rng() % 6) as i32 + 1;
                let taus: Vec<i32> = (0..levels as i32).map(|k| base + k * step).collect();
                let ascending = rng() & 1 == 0;
                ThresholdSet::with_direction(taus, ascending).expect("monotone")
            })
            .collect(),
    )
    .expect("uniform");
    PackedLayer::new(
        case.in_shape,
        weights,
        thresholds,
        geom,
        case.pool,
        case.act_bits,
    )
}

fn build_input(case: &LayerCase) -> Tensor<u8> {
    let mut rng = lcg(case.input_seed);
    let ceiling = 1u64 << case.act_bits;
    Tensor::from_fn(case.in_shape, |_, _, _| (rng() % ceiling) as u8)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The schedule equals the naive signed reference for W1A1 through
    /// W1A3 layers with arbitrary strides and pooling.
    #[test]
    fn schedule_bit_exact_with_reference(case in layer_case()) {
        let layer = build_layer(&case);
        let input = build_input(&case);
        let expected = layer.forward_reference(&input);
        let got = layer.forward(&input, Variant::Blocked, 1);
        prop_assert_eq!(got.as_slice(), expected.as_slice());
    }

    /// The W8A8 quantized GEMM equals the naive i32 reference.
    #[test]
    fn gemm_q8_bit_exact_with_reference(
        m in 1usize..12,
        k in 1usize..40,
        n in 1usize..40,
        seed in any::<u64>()
    ) {
        let mut rng = lcg(seed);
        let a: Vec<i8> = (0..m * k).map(|_| (rng() % 256) as u8 as i8).collect();
        let b: Vec<u8> = (0..k * n).map(|_| (rng() % 256) as u8).collect();
        let expected = gemm_q8_reference(&a, &b, m, k, n);
        prop_assert_eq!(&gemm_q8(&a, &b, m, k, n, Variant::Blocked, 1), &expected);
    }
}

/// One point of the geometry grid: random weights, thresholds spread like
/// the accumulators and alternating in comparison direction from channel
/// to channel, and a random input of `act_bits`-bit levels.
fn grid_case(
    index: usize,
    act_bits: usize,
    in_shape: Shape3,
    geom: ConvGeom,
    pool: Option<PoolGeom>,
) -> (PackedLayer, Tensor<u8>) {
    let mut rng = lcg(0x5eed ^ (index as u64) << 8);
    let out_channels = 2 + index % 5;
    let cols = geom.dot_length(in_shape.channels);
    let signs: Vec<i8> = (0..out_channels * cols)
        .map(|_| if rng() & 1 == 0 { 1 } else { -1 })
        .collect();
    let weights = BitTensor::from_signs(out_channels, cols, &signs).expect("dims");
    let top = (1i32 << act_bits) - 1;
    let spread = ((cols as f64).sqrt() as i32 * top / 2 + 2) as u64;
    let sets = (0..out_channels)
        .map(|c| {
            let base = (rng() % (2 * spread)) as i32 - 2 * spread as i32;
            let step = (rng() % (spread / 2 + 1)) as i32;
            let taus = (0..top).map(|k| base + k * step).collect();
            ThresholdSet::with_direction(taus, (c + index).is_multiple_of(2)).expect("monotone")
        })
        .collect();
    let thresholds = ThresholdsForLayer::new(sets).expect("uniform");
    let layer = PackedLayer::new(in_shape, weights, thresholds, geom, pool, act_bits);
    let input = Tensor::from_fn(in_shape, |_, _, _| (rng() % (1 << act_bits)) as u8);
    (layer, input)
}

/// The schedule against the naive reference over channel counts on both
/// sides of and straddling the 64-bit word (and, at 3 bits, the widest
/// layers' 256 and 512), both kernel sizes, strides, paddings and pooling
/// modes of the models, thresholds in both comparison directions in every
/// layer, for every activation width (narrow ones leave the upper
/// bitplanes empty) and on every popcount instantiation the CPU supports.
#[test]
fn schedule_matches_reference_over_the_geometry_grid() {
    let pools = [None, Some(PoolGeom::new(2, 2)), Some(PoolGeom::new(2, 1))];
    let geoms: Vec<ConvGeom> = [1, 3]
        .into_iter()
        .flat_map(|k| [1, 2].map(|s| (k, s)))
        .flat_map(|(k, s)| [0, 1].map(|p| ConvGeom::new(k, s, p)))
        .collect();
    let mut index = 0;
    for act_bits in 1..=3usize {
        let mut level_seen = [0usize; 8];
        // The 36- and 72-word rows of the product's widest layers, at one
        // width: the vector instantiation counts them a lane group at a time.
        let wide: &[usize] = if act_bits == 3 { &[256, 512] } else { &[] };
        for &channels in [1, 3, 24, 40, 64, 96, 130].iter().chain(wide) {
            for (&geom, pool) in geoms.iter().flat_map(|g| pools.map(|p| (g, p))) {
                index += 1;
                let hw = 4 + index % 4;
                let in_shape = Shape3::new(channels, hw, hw + index % 2);
                let (layer, input) = grid_case(index, act_bits, in_shape, geom, pool);
                let what = format!("A{act_bits} {in_shape} {geom:?} pool {pool:?}");
                let expected = layer.forward_reference(&input);
                assert_eq!(expected.shape(), layer.out_shape(), "{what}");
                for &level in expected.as_slice() {
                    level_seen[level as usize] += 1;
                }
                for isa in Isa::supported() {
                    assert_eq!(layer.run_on(isa, &input), expected, "{isa:?}, {what}");
                }
            }
        }
        // The thresholds sit inside the accumulator range: every level the
        // width can express occurs.
        let levels = &level_seen[..1 << act_bits];
        assert!(
            levels.iter().all(|&n| n > 20),
            "A{act_bits}: {level_seen:?}"
        );
    }
}

/// The MVTU's lane groups against the naive reference on every popcount
/// instantiation: conv maps of 1 to 17 output pixels and Tiny YOLO's
/// 13×13, so groups end part-filled and maps come narrower than a group,
/// crossed with weight rows of 1, 2, 3, 9, 18, 36, 72 and 684 words (a
/// narrow map's group holds several words of a pixel side by side, a row
/// that does not fill its last step is padded, and the widest footprint
/// alone outgrows the tile). Activation width, padding and
/// stride cycle through every combination from case to case.
#[test]
fn lane_groups_match_reference_on_every_map_width_and_row_length() {
    // Channels of a 3×3 conv per row length: 7 → 63 bits (1 word), 14 →
    // 2, 16 → 3 (the first hidden layer's runs), 60 → 9 with a part-word
    // tail, the aligned 128, 256 and 512 of the widest layers, and a
    // footprint of 684 words, wider than the whole 16 KiB tile.
    let rows = [
        (7, 1),
        (14, 2),
        (16, 3),
        (60, 9),
        (128, 18),
        (256, 36),
        (512, 72),
        (4864, 684),
    ];
    let maps = (1..=17usize)
        .map(|p| {
            if p % 2 == 0 && p > 2 {
                (2, p / 2)
            } else {
                (1, p)
            }
        })
        .chain([(13, 13)]);
    let mut index = 0;
    for (out_height, out_width) in maps {
        for &(channels, words) in &rows {
            let act_bits = 1 + index % 3;
            let (pad, stride) = (index / 3 % 2, 1 + index / 6 % 2);
            index += 1;
            let geom = ConvGeom::new(3, stride, pad);
            // The smallest input the geometry maps onto `out` pixels.
            let extent = |out: usize| (out - 1) * stride + 3 - 2 * pad;
            let in_shape = Shape3::new(channels, extent(out_height), extent(out_width));
            let (layer, input) = grid_case(index, act_bits, in_shape, geom, None);
            let what = format!("A{act_bits} {in_shape} {geom:?} → {out_height}×{out_width}");
            assert_eq!(layer.weights().words_per_row(), words, "{what}");
            let expected = layer.forward_reference(&input);
            assert_eq!(expected.shape().spatial(), out_height * out_width, "{what}");
            for isa in Isa::supported() {
                assert_eq!(layer.run_on(isa, &input), expected, "{isa:?}, {what}");
            }
        }
    }
}
