//! End-to-end integration: configuration text → network with fabric
//! offload → weight file → inference → detection decoding.

use tincy::core::build::{fabric_registry, offloaded_spec, SystemConfig};
use tincy::core::topology::tincy_yolo_with_input;
use tincy::eval::nms;
use tincy::nn::{
    parse_cfg, render_cfg, LayerSpec, Network, NetworkSpec, RegionLayer, RegionParams,
    WeightsWriter,
};
use tincy::tensor::{Shape3, Tensor};

fn system() -> SystemConfig {
    SystemConfig {
        input_size: 32,
        seed: 11,
        ..Default::default()
    }
}

fn frame(seed: usize) -> Tensor<f32> {
    Tensor::from_fn(Shape3::new(3, 32, 32), |c, y, x| {
        ((c * 31 + y * 7 + x * 3 + seed) % 11) as f32 / 11.0
    })
}

#[test]
fn cfg_round_trip_preserves_offloaded_spec() {
    let spec = offloaded_spec(32);
    let text = render_cfg(&spec);
    let reparsed = parse_cfg(&text).expect("rendered cfg must parse");
    assert_eq!(spec, reparsed);
}

#[test]
fn network_from_rendered_cfg_runs_with_fabric_backend() {
    let config = system();
    let text = render_cfg(&offloaded_spec(config.input_size));
    let spec = parse_cfg(&text).expect("valid cfg");
    let registry = fabric_registry(&config);
    let net = Network::from_spec(&spec, &registry, config.seed).expect("buildable");
    let out = net.forward(&frame(0)).expect("forward");
    assert_eq!(out.shape(), Shape3::new(125, 1, 1));
    assert!(out.as_slice().iter().all(|v| v.is_finite()));
}

/// A weight file for a topology's conv layers in the stream layout — the
/// header, then per conv bias, [gamma, mean, var,] weights — of
/// pseudo-random values. Biases and variances are positive, so the ReLU
/// stack carries a signal all the way to the head.
fn weight_file(spec: &NetworkSpec) -> Vec<u8> {
    let mut state = 0x2545_F491_4F6C_DD1Du64;
    let mut values = |n: usize, low: f32, span: f32| -> Vec<f32> {
        (0..n)
            .map(|_| {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                low + span * ((state >> 40) as f32 / (1u64 << 24) as f32)
            })
            .collect()
    };
    let mut file = Vec::new();
    let mut writer = WeightsWriter::new(&mut file);
    writer
        .write_header(spec.num_params() as u64)
        .expect("header");
    for (i, layer) in spec.layers.iter().enumerate() {
        let LayerSpec::Conv(conv) = layer else {
            continue;
        };
        let filters = conv.filters;
        writer.write_f32s(&values(filters, 0.0, 0.5)).expect("bias");
        if conv.batch_normalize {
            for (low, span) in [(0.5, 1.0), (-0.1, 0.2), (0.5, 1.0)] {
                writer.write_f32s(&values(filters, low, span)).expect("bn");
            }
        }
        let fan_in = conv.geom().dot_length(spec.input_shape_of(i).channels);
        let scale = (6.0 / fan_in as f32).sqrt();
        writer
            .write_f32s(&values(filters * fan_in, -scale, 2.0 * scale))
            .expect("weights");
    }
    file
}

#[test]
fn weights_round_trip_preserves_inference_through_offload() {
    let config = system();
    let registry = fabric_registry(&config);
    let spec = offloaded_spec(config.input_size);
    let mut a = Network::from_spec(&spec, &registry, 1).expect("buildable");
    let mut b = Network::from_spec(&spec, &registry, 999).expect("buildable");
    let first = |net: &Network| net.layer(0).forward(&frame(0)).expect("first conv");
    assert!(first(&a).max_abs_diff(&first(&b)) > 0.0, "the seeds differ");
    let defaults = a.layer(1).forward(&first(&a)).expect("offload");

    let file = weight_file(&tincy_yolo_with_input(config.input_size));
    a.load_weights(file.as_slice()).expect("loadable");
    b.load_weights(file.as_slice()).expect("loadable");
    let hidden = a.layer(1).forward(&first(&a)).expect("offload");
    assert_ne!(hidden, defaults, "the fabric folds the streamed floats");
    assert!(
        hidden.as_slice().iter().any(|&v| v > 0.0),
        "a signal reaches the head"
    );
    for seed in 0..3 {
        let x = frame(seed);
        let ya = a.forward(&x).expect("forward a");
        let yb = b.forward(&x).expect("forward b");
        assert!(
            ya.max_abs_diff(&yb) < 1e-6,
            "one weight file, two seeds: inference differs (seed {seed})"
        );
    }
}

#[test]
fn detections_decode_from_the_activated_head() {
    let config = system();
    let registry = fabric_registry(&config);
    let spec = offloaded_spec(config.input_size);
    let net = Network::from_spec(&spec, &registry, 5).expect("buildable");
    let head = net.forward(&frame(1)).expect("forward");

    let region = match spec.layers.last() {
        Some(LayerSpec::Region(r)) => {
            RegionLayer::new(head.shape(), RegionParams::from(r)).expect("valid head")
        }
        other => panic!("expected region tail, got {other:?}"),
    };
    // The head is already activated by the network's region layer; with a
    // zero threshold every anchor/cell/class yields a candidate.
    let dets = region.decode(&head, 0.0);
    assert_eq!(dets.len(), 5 * 20);
    for d in &dets {
        assert!((0.0..=1.0).contains(&d.score));
        assert!(d.bbox.w > 0.0 && d.bbox.h > 0.0);
    }
    let kept = nms(dets, 0.45);
    assert!(!kept.is_empty());
    // NMS output is score sorted.
    for pair in kept.windows(2) {
        assert!(pair[0].score >= pair[1].score);
    }
}

#[test]
fn offloaded_network_matches_full_cpu_network_geometry() {
    let full = tincy_yolo_with_input(32);
    let off = offloaded_spec(32);
    assert_eq!(full.output_shape(), off.output_shape());
    // The offload subsumes exactly the hidden stack; ops accounting of the
    // dot-product work must agree.
    let (full_reduced, full_8bit) = full.dot_product_ops();
    let off_layer_ops: u64 = off
        .layers
        .iter()
        .filter_map(|l| match l {
            LayerSpec::Offload(o) => Some(o.ops),
            _ => None,
        })
        .sum();
    assert_eq!(off_layer_ops, full_reduced);
    let (_, off_8bit) = off.dot_product_ops();
    assert_eq!(off_8bit, full_8bit);
}
