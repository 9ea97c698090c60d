//! The previous FINN show cases of Table II (MLP-4, CNV-6) executing on
//! the same simulated accelerator that runs Tincy YOLO's hidden layers —
//! demonstrating that the MVTU generalizes across the paper's workload
//! table (W1A1 activations are the 3-bit machinery with the upper
//! bitplanes empty).

use tincy::finn::{EngineConfig, QnnAccelerator, QnnLayerParams};
use tincy::quant::{ThresholdSet, ThresholdsForLayer};
use tincy::tensor::{BitTensor, ConvGeom, Shape3, Tensor};

fn lcg(seed: u64) -> impl FnMut() -> u64 {
    let mut state = seed | 1;
    move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state >> 33
    }
}

/// A fully connected binarized layer as a 1×1 "convolution" over a 1×1
/// spatial map — exactly how `tincy-core` expresses MLP-4.
fn fc_layer(rng: &mut impl FnMut() -> u64, inputs: usize, outputs: usize) -> QnnLayerParams {
    let signs: Vec<i8> = (0..inputs * outputs)
        .map(|_| if rng() & 1 == 0 { 1 } else { -1 })
        .collect();
    let weights = BitTensor::from_signs(outputs, inputs, &signs).expect("dims");
    let thresholds =
        ThresholdsForLayer::new(vec![ThresholdSet::binary(); outputs]).expect("uniform");
    QnnLayerParams::new(
        Shape3::new(inputs, 1, 1),
        weights,
        thresholds,
        ConvGeom::new(1, 1, 0),
        None,
    )
    .expect("valid fc layer")
}

#[test]
fn mlp4_runs_on_the_qnn_accelerator() {
    // A scaled MLP-4 (the full 784-1024³-10 runs too, but the behavioural
    // simulation of 5.8 M binary MACs is slow on one test core).
    let mut rng = lcg(77);
    let dims = [196usize, 256, 256, 256, 10];
    let layers: Vec<QnnLayerParams> = dims
        .windows(2)
        .map(|w| fc_layer(&mut rng, w[0], w[1]))
        .collect();
    let accel = QnnAccelerator::new(layers, EngineConfig::default()).expect("chains");

    // Binary input "image" (W1A1: activation levels 0/1).
    let input: Tensor<u8> = Tensor::from_fn(Shape3::new(196, 1, 1), |c, _, _| (c % 2) as u8);
    let (out, report) = accel.run(&input).expect("runs");
    assert_eq!(out.shape(), Shape3::new(10, 1, 1));
    assert!(
        out.as_slice().iter().all(|&v| v <= 1),
        "W1A1 output stays binary"
    );
    // Bit-exactness against the naive reference holds here too.
    let reference = accel.reference_run(&input).expect("runs");
    assert_eq!(out, reference);
    assert_eq!(report.layer_cycles.len(), 4);
}

#[test]
fn cnv6_style_unpadded_convs_run_on_the_accelerator() {
    // The CNV-6 front half at reduced width: two unpadded 3x3 convs and a
    // 2x2 pool, binary activations.
    let mut rng = lcg(88);
    let mk_conv = |rng: &mut dyn FnMut() -> u64,
                   in_shape: Shape3,
                   out_c: usize,
                   pool: Option<tincy::tensor::PoolGeom>| {
        let geom = ConvGeom::new(3, 1, 0);
        let cols = geom.dot_length(in_shape.channels);
        let signs: Vec<i8> = (0..out_c * cols)
            .map(|_| if rng() & 1 == 0 { 1 } else { -1 })
            .collect();
        let weights = BitTensor::from_signs(out_c, cols, &signs).expect("dims");
        let thresholds =
            ThresholdsForLayer::new(vec![ThresholdSet::binary(); out_c]).expect("uniform");
        QnnLayerParams::new(in_shape, weights, thresholds, geom, pool).expect("valid")
    };
    let l1 = mk_conv(&mut rng, Shape3::new(3, 12, 12), 8, None); // -> 10x10
    let l2 = mk_conv(
        &mut rng,
        l1.out_shape(),
        8,
        Some(tincy::tensor::PoolGeom::new(2, 2)),
    ); // -> 8x8 -> 4x4
    assert_eq!(l2.out_shape(), Shape3::new(8, 4, 4));
    let accel = QnnAccelerator::new(vec![l1, l2], EngineConfig::default()).expect("chains");
    let input: Tensor<u8> =
        Tensor::from_fn(Shape3::new(3, 12, 12), |c, y, x| ((c + y + x) % 2) as u8);
    let (out, _) = accel.run(&input).expect("runs");
    assert_eq!(out, accel.reference_run(&input).expect("runs"));
}

#[test]
fn workload_scaling_matches_table_two_ordering() {
    // Table II's point: Tincy YOLO is orders of magnitude beyond the
    // previous FINN show cases. The accelerator's cycle model must
    // reproduce that ordering.
    use tincy::finn::engine::conv_layer_cycles;
    let config = EngineConfig::default();
    let mlp4_cycles: u64 = [
        (784usize, 1024usize),
        (1024, 1024),
        (1024, 1024),
        (1024, 10),
    ]
    .iter()
    .map(|&(i, o)| conv_layer_cycles(Shape3::new(i, 1, 1), o, ConvGeom::new(1, 1, 0), config))
    .sum();
    let tincy_cycles = tincy::perf::fabric::tincy_cost(config).compute_cycles();
    assert!(
        tincy_cycles > 100 * mlp4_cycles,
        "Tincy ({tincy_cycles}) must dwarf MLP-4 ({mlp4_cycles})"
    );
}
