//! Property-based tests for the Darknet-analog framework.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tincy_nn::{
    parse_cfg, render_cfg, Activation, BatchNorm, ConvLayer, ConvSpec, Layer, LayerSpec,
    NetworkSpec, PoolSpec, RegionSpec,
};
use tincy_quant::{AffineQuant, PrecisionConfig};
use tincy_simd::conv::conv_lowp_im2col;
use tincy_tensor::{Shape3, Tensor};

fn precision() -> impl Strategy<Value = PrecisionConfig> {
    prop_oneof![
        Just(PrecisionConfig::FLOAT),
        Just(PrecisionConfig::W8A8),
        Just(PrecisionConfig::W1A3),
        Just(PrecisionConfig::W1A1),
    ]
}

fn activation() -> impl Strategy<Value = Activation> {
    prop_oneof![
        Just(Activation::Linear),
        Just(Activation::Relu),
        Just(Activation::Leaky)
    ]
}

fn conv_spec() -> impl Strategy<Value = ConvSpec> {
    (
        1usize..64,
        prop_oneof![Just(1usize), Just(3)],
        1usize..3,
        any::<bool>(),
        activation(),
        precision(),
    )
        .prop_map(|(filters, size, stride, bn, act, prec)| ConvSpec {
            filters,
            size,
            stride,
            pad: size / 2,
            activation: act,
            batch_normalize: bn,
            precision: prec,
        })
}

fn network_spec() -> impl Strategy<Value = NetworkSpec> {
    (
        2usize..5,
        proptest::collection::vec(
            prop_oneof![
                conv_spec().prop_map(LayerSpec::Conv),
                Just(LayerSpec::MaxPool(PoolSpec { size: 2, stride: 2 })),
                Just(LayerSpec::MaxPool(PoolSpec { size: 2, stride: 1 })),
            ],
            1..6,
        ),
    )
        .prop_map(|(scale, layers)| {
            let mut spec = NetworkSpec::new(Shape3::new(3, 32 * scale, 32 * scale));
            spec.layers = layers;
            spec
        })
        .prop_filter("must validate", |spec| spec.validate().is_ok())
}

/// What a W8A8 layer computed before its steps were fused, one pass per
/// step: fit → quantize each element → gemmlowp-style convolution → scale
/// → bias → batch norm → activation.
fn w8a8_step_by_step(layer: &ConvLayer, input: &Tensor<f32>) -> Tensor<f32> {
    let weights = layer.weights();
    let max_abs = weights
        .as_slice()
        .iter()
        .fold(0.0f32, |m, &w| m.max(w.abs()))
        .max(f32::MIN_POSITIVE);
    let w_scale = max_abs / 127.0;
    let wq = weights.map(|w| (w / w_scale).round().clamp(-127.0, 127.0) as i8);
    let q = AffineQuant::fit_data(input.as_slice()).expect("finite input");
    let input_q = input.map(|v| q.quantize(v));
    let acc = conv_lowp_im2col(&input_q, &wq, q.zero_point(), layer.geom()).expect("geometry");
    let spatial = acc.shape().spatial();
    let scale = w_scale * q.scale();
    let mut out = acc.map(|v| v as f32 * scale);
    for (i, v) in out.as_mut_slice().iter_mut().enumerate() {
        *v += layer.bias()[i / spatial];
    }
    if let Some(bn) = layer.batchnorm() {
        bn.apply(&mut out);
    }
    layer.activation().apply_slice(out.as_mut_slice());
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// cfg rendering and parsing are exact inverses.
    #[test]
    fn cfg_round_trip(spec in network_spec()) {
        let text = render_cfg(&spec);
        let reparsed = parse_cfg(&text).expect("rendered cfg must parse");
        prop_assert_eq!(spec, reparsed);
    }

    /// Op accounting is invariant under re-rendering.
    #[test]
    fn ops_survive_round_trip(spec in network_spec()) {
        let reparsed = parse_cfg(&render_cfg(&spec)).expect("parses");
        prop_assert_eq!(spec.total_ops(), reparsed.total_ops());
        prop_assert_eq!(spec.dot_product_ops(), reparsed.dot_product_ops());
        prop_assert_eq!(spec.num_params(), reparsed.num_params());
    }

    /// Output shapes chain: the input shape of layer i+1 is the output of
    /// layer i, and ops are consistent with per-layer recomputation.
    #[test]
    fn shape_chaining_consistency(spec in network_spec()) {
        let shapes = spec.output_shapes();
        let ops = spec.ops_per_layer();
        prop_assert_eq!(shapes.len(), spec.layers.len());
        let mut prev = spec.input;
        for (i, layer) in spec.layers.iter().enumerate() {
            prop_assert_eq!(layer.output_shape(prev), shapes[i]);
            prop_assert_eq!(layer.ops(prev), ops[i]);
            prev = shapes[i];
        }
        prop_assert_eq!(ops.iter().sum::<u64>(), spec.total_ops());
    }

    /// Region-headed networks validate iff the channel arithmetic works.
    #[test]
    fn region_channel_rule(classes in 1usize..25, num in 1usize..7, channels in 1usize..200) {
        let region = RegionSpec {
            classes,
            num,
            anchors: vec![(1.0, 1.0); num],
        };
        let expected = num * (5 + classes);
        let spec = NetworkSpec::new(Shape3::new(channels, 13, 13))
            .with(LayerSpec::Region(region));
        prop_assert_eq!(spec.validate().is_ok(), channels == expected);
    }
}

/// Bytes a mutation draws from half the time: the cfg grammar's own, so
/// edits reach past the tokenizer into section and key handling.
const CFG_BYTES: &[u8] = b"[]=,-.#;\n 0123456789convolutionalmaxpoolregionoffload";

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Outside text never panics the cfg parser, nor the accounting over
    /// what it accepts: valid renderings under byte-level replacements,
    /// insertions and deletions. The vendored proptest does not shrink,
    /// so a panic reports the input that caused it. It stays here, with
    /// its own copy of the edit loop that `tests/outside_input.rs` shares
    /// among the other parsers, because it mutates renderings of
    /// `network_spec`, this file's strategy.
    #[test]
    fn parse_cfg_never_panics_on_mutated_text(
        spec in network_spec(),
        edits in proptest::collection::vec(
            (0usize..3, any::<usize>(), any::<bool>(), any::<u8>()),
            1..8,
        )
    ) {
        let mut bytes = render_cfg(&spec).into_bytes();
        for &(kind, at, grammar, byte) in &edits {
            let byte = if grammar { CFG_BYTES[usize::from(byte) % CFG_BYTES.len()] } else { byte };
            let at = at % (bytes.len() + 1);
            match kind {
                0 if at < bytes.len() => bytes[at] = byte,
                1 => bytes.insert(at, byte),
                _ if at < bytes.len() => {
                    bytes.remove(at);
                }
                _ => {}
            }
        }
        let text = String::from_utf8_lossy(&bytes).into_owned();
        let outcome = std::panic::catch_unwind(|| {
            if let Ok(spec) = parse_cfg(&text) {
                spec.output_shapes();
                spec.ops_per_layer();
                spec.num_params();
            }
        });
        prop_assert!(outcome.is_ok(), "parse_cfg panicked on:\n{text:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// W8A8 host layers: exact i32 accumulation over one affine input
    /// quantization, bit-identical whichever kernel serves the shape —
    /// the 16×27 kernel (3 channels, 16 filters, 3×3) or the GEMM.
    #[test]
    fn w8a8_forward_is_bit_identical_to_its_steps(
        (channels, filters) in prop_oneof![Just((3usize, 16usize)), Just((3, 5)), Just((8, 16)), Just((512, 7))],
        size in prop_oneof![Just(1usize), Just(3)],
        stride in 1usize..3,
        pad in 0usize..2,
        (height, width) in (1usize..8, 1usize..8),
        input_kind in 0usize..4,
        (batch_normalize, activation) in (any::<bool>(), activation()),
        seed in any::<u64>()
    ) {
        // Odd extents down to 1x1, or the smallest the kernel fits.
        let smallest = size.saturating_sub(2 * pad).max(1);
        let shape = Shape3::new(
            channels,
            (2 * height - 1).max(smallest),
            (2 * width - 1).max(smallest),
        );
        let spec = ConvSpec {
            filters,
            size,
            stride,
            pad,
            activation,
            batch_normalize,
            precision: PrecisionConfig::W8A8,
        };
        let mut rng = StdRng::seed_from_u64(seed);
        let mut layer = ConvLayer::new(shape, &spec, &mut rng).expect("valid geometry");
        let bias = (0..filters).map(|_| rng.gen_range(-0.5f32..0.5)).collect();
        layer.set_parameters(layer.weights().clone(), bias).expect("same dimensions");
        if batch_normalize {
            let mut draw = |lo: f32, hi: f32| (0..filters).map(|_| rng.gen_range(lo..hi)).collect();
            layer.set_batchnorm(BatchNorm {
                gamma: draw(-1.5, 1.5),
                beta: draw(-0.5, 0.5),
                mean: draw(-0.5, 0.5),
                var: draw(0.1, 2.0),
                eps: 1e-5,
            }).expect("same width");
        }
        let input = match input_kind {
            0 => Tensor::from_fn(shape, |_, _, _| rng.gen_range(0.0f32..1.0)),
            1 => Tensor::from_fn(shape, |_, _, _| rng.gen_range(-3.0f32..2.0)),
            2 => Tensor::filled(shape, rng.gen_range(-1.0f32..1.0)),
            _ => Tensor::filled(shape, 0.0),
        };
        let expected = w8a8_step_by_step(&layer, &input);
        let got = layer.forward(&input).expect("forward");
        prop_assert_eq!(got.shape(), expected.shape());
        let bits = |t: &Tensor<f32>| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(&got), bits(&expected));
    }
}
