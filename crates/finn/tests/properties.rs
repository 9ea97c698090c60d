//! Property-based tests: the MVTU hardware path is bit-exact with the
//! naive integer reference over randomized layer configurations, and the
//! streaming engine with the per-vector units it replaced on the frame
//! path.

use proptest::prelude::*;
use tincy_finn::engine::EngineConfig;
use tincy_finn::{
    conv_layer_cycles, ConvEngine, FaultInjector, FaultPlan, Mvtu, QnnAccelerator, QnnLayerParams,
    SlidingWindow,
};
use tincy_kernels::PopcountIsa;
use tincy_nn::NnError;
use tincy_quant::{BinaryDot, ThresholdSet, ThresholdsForLayer};
use tincy_tensor::{BitTensor, ConvGeom, PoolGeom, Shape3, Tensor, U3Tensor};

#[derive(Debug, Clone)]
struct LayerCase {
    in_shape: Shape3,
    out_channels: usize,
    stride: usize,
    pool: Option<PoolGeom>,
    pe: usize,
    simd: usize,
    weight_seed: u64,
    input_seed: u64,
}

fn layer_case() -> impl Strategy<Value = LayerCase> {
    (
        1usize..4,
        4usize..9,
        1usize..6,
        1usize..3,
        proptest::option::of((1usize..3).prop_map(|s| PoolGeom::new(2, s))),
        1usize..6,
        1usize..24,
        any::<u64>(),
        any::<u64>(),
    )
        .prop_map(|(c, hw, oc, stride, pool, pe, simd, ws, is)| LayerCase {
            in_shape: Shape3::new(c, hw, hw),
            out_channels: oc,
            stride,
            pool,
            pe,
            simd,
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

fn build_layer(case: &LayerCase) -> QnnLayerParams {
    let geom = ConvGeom::same(3, case.stride);
    let cols = geom.dot_length(case.in_shape.channels);
    let mut rng = lcg(case.weight_seed);
    let signs: Vec<i8> = (0..case.out_channels * cols)
        .map(|_| if rng() & 1 == 0 { 1 } else { -1 })
        .collect();
    let weights = BitTensor::from_signs(case.out_channels, cols, &signs).expect("dims");
    let thresholds = ThresholdsForLayer::new(
        (0..case.out_channels)
            .map(|_| {
                let base = (rng() % 40) as i32 - 25;
                let step = (rng() % 6) as i32 + 1;
                ThresholdSet::new((0..7).map(|k| base + k * step).collect()).expect("monotone")
            })
            .collect(),
    )
    .expect("uniform");
    QnnLayerParams::new(case.in_shape, weights, thresholds, geom, case.pool).expect("valid")
}

fn build_input(case: &LayerCase) -> Tensor<u8> {
    let mut rng = lcg(case.input_seed);
    Tensor::from_fn(case.in_shape, |_, _, _| (rng() % 8) as u8)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Engine output == naive reference output, for any folding.
    #[test]
    fn engine_bit_exact_with_reference(case in layer_case()) {
        let layer = build_layer(&case);
        let input = build_input(&case);
        let engine = ConvEngine::new(EngineConfig {
            pe: case.pe,
            simd: case.simd,
            ..Default::default()
        }).expect("valid folding");
        let (hw, _) = engine.run_layer(&layer, &input).expect("runs");
        // Reference via a single-layer accelerator.
        let accel = tincy_finn::QnnAccelerator::new(
            vec![layer],
            EngineConfig { pe: case.pe, simd: case.simd, ..Default::default() },
        ).expect("single layer");
        let sw = accel.reference_run(&input).expect("runs");
        prop_assert_eq!(hw, sw);
    }

    /// MVTU accumulators equal the naive signed dot for random vectors.
    #[test]
    fn mvtu_accumulate_matches_binary_dot(
        cols in 1usize..300,
        rows in 1usize..5,
        seed in any::<u64>()
    ) {
        let mut rng = lcg(seed);
        let signs: Vec<i8> = (0..rows * cols).map(|_| if rng() & 1 == 0 { 1 } else { -1 }).collect();
        let weights = BitTensor::from_signs(rows, cols, &signs).expect("dims");
        let thresholds = ThresholdsForLayer::new(
            vec![ThresholdSet::binary(); rows],
        ).expect("uniform");
        let mvtu = Mvtu::new(weights.clone(), thresholds, 2, 7).expect("valid");
        let reference = BinaryDot::new(weights);
        let acts: Vec<u8> = (0..cols).map(|_| (rng() % 8) as u8).collect();
        let packed = U3Tensor::from_values(&acts).expect("3-bit");
        for r in 0..rows {
            prop_assert_eq!(mvtu.accumulate(r, &packed), reference.dot_naive(r, &acts));
        }
    }

    /// The sliding window emits exactly the im2col column for its pixel.
    #[test]
    fn sliding_window_matches_im2col(
        c in 1usize..4,
        hw in 3usize..8,
        stride in 1usize..3,
        seed in any::<u64>()
    ) {
        let shape = Shape3::new(c, hw, hw);
        let mut rng = lcg(seed);
        let fmap: Tensor<u8> = Tensor::from_fn(shape, |_, _, _| (rng() % 8) as u8);
        let geom = ConvGeom::same(3, stride);
        let swu = SlidingWindow::new(shape, geom).expect("valid");
        let cols = tincy_tensor::im2col(&fmap, geom).expect("valid");
        let out_w = swu.out_width();
        for oy in 0..swu.out_height() {
            for ox in 0..out_w {
                let fp = swu.footprint(&fmap, oy, ox).to_values();
                let col = oy * out_w + ox;
                for (r, &v) in fp.iter().enumerate() {
                    prop_assert_eq!(v, cols.at(r, col), "pixel ({},{}) row {}", oy, ox, r);
                }
            }
        }
    }
}

/// One point of the streaming engine's geometry grid.
struct StreamCase {
    layer: QnnLayerParams,
    input: Tensor<u8>,
    config: EngineConfig,
}

/// Random weights, per-channel thresholds in both comparison directions
/// and a random 3-bit input for the given geometry.
fn stream_case(
    index: usize,
    in_shape: Shape3,
    out_channels: usize,
    geom: ConvGeom,
    pool: Option<PoolGeom>,
) -> StreamCase {
    let mut rng = lcg(0x5eed ^ (index as u64) << 8);
    let cols = geom.dot_length(in_shape.channels);
    let signs: Vec<i8> = (0..out_channels * cols)
        .map(|_| if rng() & 1 == 0 { 1 } else { -1 })
        .collect();
    let weights = BitTensor::from_signs(out_channels, cols, &signs).expect("dims");
    // Accumulators spread with the dot length; so do the thresholds.
    let spread = (cols as f64).sqrt() as i32 * 3 + 2;
    let thresholds = ThresholdsForLayer::new(
        (0..out_channels)
            .map(|_| {
                let base = (rng() % (2 * spread as u64)) as i32 - 2 * spread;
                let step = (rng() % (spread as u64 / 2 + 1)) as i32;
                let taus = (0..7).map(|k| base + k * step).collect();
                ThresholdSet::with_direction(taus, rng() & 1 == 0).expect("monotone")
            })
            .collect(),
    )
    .expect("uniform");
    StreamCase {
        layer: QnnLayerParams::new(in_shape, weights, thresholds, geom, pool).expect("valid"),
        input: Tensor::from_fn(in_shape, |_, _, _| (rng() % 8) as u8),
        config: EngineConfig {
            pe: 1 + index % 5,
            simd: 1 + index % 23,
            ..Default::default()
        },
    }
}

/// Element-by-element pooling oracle, independent of the shared
/// `max_pool_levels`: ragged edge windows are truncated at the border.
fn naive_pool(input: &Tensor<u8>, pool: PoolGeom) -> Tensor<u8> {
    let shape = input.shape();
    Tensor::from_fn(pool.output_shape(shape), |c, oy, ox| {
        let mut best = 0;
        for y in (oy * pool.stride..oy * pool.stride + pool.size).take_while(|&y| y < shape.height)
        {
            for x in
                (ox * pool.stride..ox * pool.stride + pool.size).take_while(|&x| x < shape.width)
            {
                best = best.max(input.at(c, y, x));
            }
        }
        best
    })
}

/// The layer computed one vector at a time by the reference units:
/// `SlidingWindow::footprint` → `Mvtu::process` → pool.
fn per_vector_layer(case: &StreamCase) -> Tensor<u8> {
    let layer = &case.layer;
    let swu = SlidingWindow::new(layer.in_shape(), layer.geom()).expect("valid");
    let mvtu = Mvtu::new(
        layer.weights().clone(),
        layer.thresholds().clone(),
        case.config.pe,
        case.config.simd,
    )
    .expect("valid");
    let conv_shape = Shape3::new(mvtu.out_channels(), swu.out_height(), swu.out_width());
    let mut conv = Tensor::zeros(conv_shape);
    for oy in 0..conv_shape.height {
        for ox in 0..conv_shape.width {
            let levels = mvtu.process(&swu.footprint(&case.input, oy, ox));
            for (c, level) in levels.into_iter().enumerate() {
                *conv.at_mut(c, oy, ox) = level;
            }
        }
    }
    match layer.pool() {
        Some(pool) => naive_pool(&conv, pool),
        None => conv,
    }
}

/// The streaming engine against every other implementation of a layer,
/// over channel counts on both sides of and straddling the 64-bit word,
/// both kernel sizes, strides, paddings and pooling modes of the models.
#[test]
fn streaming_engine_matches_every_other_path_over_the_geometry_grid() {
    let pools = [None, Some(PoolGeom::new(2, 2)), Some(PoolGeom::new(2, 1))];
    let mut index = 0;
    let mut level_seen = [0usize; 8];
    for channels in [1, 3, 24, 40, 64, 96, 130] {
        for kernel in [1, 3] {
            for stride in [1, 2] {
                for pad in [0, 1] {
                    for pool in pools {
                        index += 1;
                        let hw = 4 + index % 4;
                        let in_shape = Shape3::new(channels, hw, hw + index % 2);
                        let geom = ConvGeom::new(kernel, stride, pad);
                        let out_channels = 1 + index % 6;
                        let case = stream_case(index, in_shape, out_channels, geom, pool);
                        let what = format!("{in_shape} k{kernel} s{stride} p{pad} pool {pool:?}");

                        let engine = ConvEngine::new(case.config).expect("valid folding");
                        let (out, cycles) =
                            engine.run_layer(&case.layer, &case.input).expect("runs");
                        assert_eq!(out.shape(), case.layer.out_shape(), "{what}");
                        for &level in out.as_slice() {
                            level_seen[level as usize] += 1;
                        }
                        assert_eq!(
                            cycles,
                            conv_layer_cycles(in_shape, out_channels, geom, case.config),
                            "{what}"
                        );
                        // (a) the per-vector reference units
                        assert_eq!(out, per_vector_layer(&case), "per-vector units, {what}");
                        // every instantiation of the popcount loops the CPU has, directly
                        for isa in PopcountIsa::supported() {
                            let on = engine
                                .run_layer_on(isa, &case.layer, &case.input)
                                .expect("runs");
                            assert_eq!(on, (out.clone(), cycles), "{isa:?}, {what}");
                        }
                        let accel = QnnAccelerator::new(vec![case.layer.clone()], case.config)
                            .expect("single layer");
                        // (b) the naive signed-arithmetic reference
                        let naive = accel.packed_layers()[0].forward_reference(&case.input);
                        assert_eq!(out, naive, "naive reference, {what}");
                        // (c) the host path over the same core
                        let host = accel.reference_run(&case.input).expect("runs");
                        assert_eq!(out, host, "host path, {what}");
                    }
                }
            }
        }
    }
    // The thresholds sit inside the accumulator range: every level occurs.
    assert!(level_seen.iter().all(|&n| n > 50), "{level_seen:?}");
}

#[test]
#[should_panic(expected = "3-bit range")]
fn activation_level_above_seven_panics() {
    let in_shape = Shape3::new(3, 4, 4);
    let case = stream_case(0, in_shape, 2, ConvGeom::same(3, 1), None);
    let mut input = case.input.clone();
    *input.at_mut(2, 3, 1) = 8;
    let engine = ConvEngine::new(case.config).expect("valid folding");
    let _ = engine.run_layer(&case.layer, &input);
}

#[test]
fn shape_mismatch_is_a_typed_error() {
    let case = stream_case(0, Shape3::new(3, 4, 4), 2, ConvGeom::same(3, 1), None);
    let engine = ConvEngine::new(case.config).expect("valid folding");
    for wrong in [
        Shape3::new(3, 4, 5),
        Shape3::new(4, 4, 4),
        Shape3::new(3, 5, 4),
    ] {
        let err = engine
            .run_layer(&case.layer, &Tensor::zeros(wrong))
            .unwrap_err();
        assert!(
            matches!(err, NnError::ShapeMismatch { .. }),
            "{wrong}: {err}"
        );
    }
}

#[test]
fn batch_of_four_equals_four_runs() {
    let first = stream_case(
        1,
        Shape3::new(24, 6, 6),
        40,
        ConvGeom::same(3, 1),
        Some(PoolGeom::new(2, 2)),
    );
    let second = stream_case(2, first.layer.out_shape(), 5, ConvGeom::same(3, 1), None);
    let accel = QnnAccelerator::new(vec![first.layer, second.layer], first.config).expect("chains");
    let mut rng = lcg(44);
    let inputs: Vec<Tensor<u8>> = (0..4)
        .map(|_| Tensor::from_fn(accel.input_shape(), |_, _, _| (rng() % 8) as u8))
        .collect();
    let (batched, report) = accel.run_batch(&inputs, None).expect("runs");
    let mut layer_cycles = vec![0u64; 2];
    for (input, from_batch) in inputs.iter().zip(&batched) {
        let (single, single_report) = accel.run(input).expect("runs");
        assert_eq!(&single, from_batch);
        for (sum, cycles) in layer_cycles.iter_mut().zip(&single_report.layer_cycles) {
            *sum += cycles;
        }
    }
    assert_eq!(report.layer_cycles, layer_cycles);
}

/// A hidden stack shaped like the offloaded Tincy YOLO layers at a reduced
/// input: host path = naive reference = fabric, and the host path keeps
/// serving the healthy fabric's output through a full FINN outage.
#[test]
fn host_path_equals_naive_and_fabric_and_survives_a_full_outage() {
    let first = stream_case(
        11,
        Shape3::new(64, 16, 16),
        64,
        ConvGeom::same(3, 1),
        Some(PoolGeom::new(2, 2)),
    );
    let second = stream_case(12, Shape3::new(64, 8, 8), 128, ConvGeom::same(3, 1), None);
    let third = stream_case(13, Shape3::new(128, 8, 8), 128, ConvGeom::same(3, 1), None);
    let layers = vec![first.layer, second.layer, third.layer];
    let accel = QnnAccelerator::new(layers, EngineConfig::default()).expect("chains");
    let input = first.input;

    let (fabric, _) = accel.run(&input).expect("fabric path runs");
    let host = accel.reference_run(&input).expect("host path runs");
    let naive = accel
        .packed_layers()
        .iter()
        .fold(input.clone(), |fmap, layer| layer.forward_reference(&fmap));
    assert_eq!(host, naive, "host path disagrees with the naive reference");
    assert_eq!(host, fabric, "host path disagrees with the fabric path");

    // A device in a full outage runs the same accelerator.
    let outage = FaultInjector::new(FaultPlan::outage(0, u64::MAX));
    let err = accel
        .run_batch(std::slice::from_ref(&input), Some(&outage))
        .expect_err("the outage faults the fabric path");
    assert!(err.is_retryable(), "{err}");
    let served = accel.reference_run(&input).expect("host path serves");
    assert_eq!(served, fabric, "degraded output diverges from the fabric's");
}
