//! Network topologies of the paper.

use crate::{Activation, ConvSpec, LayerSpec, NetworkSpec, PoolSpec, RegionSpec};
use tincy_quant::PrecisionConfig;
use tincy_tensor::Shape3;

/// The Tiny YOLO VOC anchor priors, in 13×13-grid cell units.
pub const VOC_ANCHORS: [(f32, f32); 5] = [
    (1.08, 1.19),
    (3.42, 4.41),
    (6.63, 11.38),
    (9.42, 5.11),
    (16.62, 10.52),
];

fn conv(
    filters: usize,
    size: usize,
    stride: usize,
    activation: Activation,
    precision: PrecisionConfig,
) -> LayerSpec {
    LayerSpec::Conv(ConvSpec {
        filters,
        size,
        stride,
        pad: size / 2,
        activation,
        batch_normalize: size != 1,
        precision,
    })
}

fn pool(size: usize, stride: usize) -> LayerSpec {
    LayerSpec::MaxPool(PoolSpec { size, stride })
}

fn region() -> LayerSpec {
    LayerSpec::Region(RegionSpec {
        classes: 20,
        num: 5,
        anchors: VOC_ANCHORS.to_vec(),
    })
}

/// Tiny YOLO for Pascal VOC (the paper's starting point; Table I left
/// column). All-float, leaky ReLU.
pub fn tiny_yolo() -> NetworkSpec {
    use Activation::Leaky;
    let f = PrecisionConfig::FLOAT;
    NetworkSpec::new(Shape3::new(3, 416, 416))
        .with(conv(16, 3, 1, Leaky, f)) // L1
        .with(pool(2, 2)) // L2
        .with(conv(32, 3, 1, Leaky, f)) // L3
        .with(pool(2, 2)) // L4
        .with(conv(64, 3, 1, Leaky, f)) // L5
        .with(pool(2, 2)) // L6
        .with(conv(128, 3, 1, Leaky, f)) // L7
        .with(pool(2, 2)) // L8
        .with(conv(256, 3, 1, Leaky, f)) // L9
        .with(pool(2, 2)) // L10
        .with(conv(512, 3, 1, Leaky, f)) // L11
        .with(pool(2, 1)) // L12 (stride 1: keeps 13x13)
        .with(conv(1024, 3, 1, Leaky, f)) // L13
        .with(conv(1024, 3, 1, Leaky, f)) // L14
        .with(conv(125, 1, 1, Activation::Linear, f)) // L15
        .with(region())
}

/// Tincy YOLO (Table I right column): Tiny YOLO after the §III-E
/// transformations (a)–(d), with `[W8A8]` input/output layers and `[W1A3]`
/// hidden layers.
pub fn tincy_yolo() -> NetworkSpec {
    tincy_yolo_with_input(416)
}

/// Tincy YOLO scaled to another input size (must be divisible by 32);
/// useful for fast behavioural tests — `tincy_yolo_with_input(416)` is the
/// paper's network.
///
/// # Panics
///
/// Panics if `input` is not a positive multiple of 32.
pub fn tincy_yolo_with_input(input: usize) -> NetworkSpec {
    assert!(
        input > 0 && input.is_multiple_of(32),
        "input size {input} must be a multiple of 32"
    );
    use Activation::Relu;
    let io = PrecisionConfig::W8A8;
    let hidden = PrecisionConfig::W1A3;
    NetworkSpec::new(Shape3::new(3, input, input))
        .with(conv(16, 3, 2, Relu, io)) // L1: stride 2 replaces the pool (d)
        .with(conv(64, 3, 1, Relu, hidden)) // L3: 32 -> 64 (b)
        .with(pool(2, 2)) // L4
        .with(conv(64, 3, 1, Relu, hidden)) // L5
        .with(pool(2, 2)) // L6
        .with(conv(128, 3, 1, Relu, hidden)) // L7
        .with(pool(2, 2)) // L8
        .with(conv(256, 3, 1, Relu, hidden)) // L9
        .with(pool(2, 2)) // L10
        .with(conv(512, 3, 1, Relu, hidden)) // L11
        .with(pool(2, 1)) // L12
        .with(conv(512, 3, 1, Relu, hidden)) // L13: 1024 -> 512 (c)
        .with(conv(512, 3, 1, Relu, hidden)) // L14: 1024 -> 512 (c)
        .with(conv(125, 1, 1, Activation::Linear, io)) // L15
        .with(region())
}

/// FINN's MLP-4 workload (Table II row 1): a four-layer binarized
/// perceptron for MNIST/NIST, expressed as 1×1 convolutions over a 1×1
/// spatial map.
pub fn mlp4() -> NetworkSpec {
    let q = PrecisionConfig::W1A1;
    NetworkSpec::new(Shape3::new(784, 1, 1))
        .with(conv(1024, 1, 1, Activation::Relu, q))
        .with(conv(1024, 1, 1, Activation::Relu, q))
        .with(conv(1024, 1, 1, Activation::Relu, q))
        .with(conv(10, 1, 1, Activation::Linear, q))
}

/// FINN's CNV-6 workload (Table II row 2): the BinaryNet-style CIFAR-10
/// network — six unpadded convolutions and three dense layers, first layer
/// 8-bit.
pub fn cnv6() -> NetworkSpec {
    let q = PrecisionConfig::W1A1;
    let first = PrecisionConfig::W8A8;
    let unpadded = |filters, precision| {
        LayerSpec::Conv(ConvSpec {
            filters,
            size: 3,
            stride: 1,
            pad: 0,
            activation: Activation::Relu,
            batch_normalize: true,
            precision,
        })
    };
    NetworkSpec::new(Shape3::new(3, 32, 32))
        .with(unpadded(64, first)) // 30x30
        .with(unpadded(64, q)) // 28x28
        .with(pool(2, 2)) // 14x14
        .with(unpadded(128, q)) // 12x12
        .with(unpadded(128, q)) // 10x10
        .with(pool(2, 2)) // 5x5
        .with(unpadded(256, q)) // 3x3
        .with(unpadded(256, q)) // 1x1
        .with(conv(512, 1, 1, Activation::Relu, q))
        .with(conv(512, 1, 1, Activation::Relu, q))
        .with(conv(10, 1, 1, Activation::Linear, q))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_yolo_total_matches_table_one_exactly() {
        let spec = tiny_yolo();
        assert!(spec.validate().is_ok());
        assert_eq!(spec.total_ops(), 6_971_272_984);
    }

    #[test]
    fn tincy_yolo_total_matches_table_one_exactly() {
        let spec = tincy_yolo();
        assert!(spec.validate().is_ok());
        assert_eq!(spec.total_ops(), 4_445_001_496);
    }

    #[test]
    fn tiny_yolo_per_layer_ops_match_table_one() {
        let ops = tiny_yolo().ops_per_layer();
        let expected: [u64; 15] = [
            149_520_384,
            173_056,
            398_721_024,
            43_264,
            398_721_024,
            10_816,
            398_721_024,
            2_704,
            398_721_024,
            676,
            398_721_024,
            676,
            1_594_884_096,
            3_189_768_192,
            43_264_000,
        ];
        assert_eq!(&ops[..15], &expected);
        assert_eq!(ops[15], 0); // region head is free in the paper's accounting
    }

    #[test]
    fn tincy_yolo_per_layer_ops_match_table_one() {
        let ops = tincy_yolo().ops_per_layer();
        let expected: [u64; 14] = [
            37_380_096,
            797_442_048,
            43_264,
            797_442_048,
            10_816,
            398_721_024,
            2_704,
            398_721_024,
            676,
            398_721_024,
            676,
            797_442_048,
            797_442_048,
            21_632_000,
        ];
        assert_eq!(&ops[..14], &expected);
    }

    #[test]
    fn tincy_dot_product_split_matches_table_two() {
        // Table II: Tincy YOLO = 4385.9 M reduced [W1A3] + 59.0 M 8-bit.
        let (reduced, eight_bit) = tincy_yolo().dot_product_ops();
        assert_eq!(reduced, 4_385_931_264);
        assert_eq!(eight_bit, 59_012_096);
    }

    #[test]
    fn cnv6_matches_table_two() {
        // Table II: CNV-6 = 115.8 M reduced [W1A1] + 3.1 M 8-bit.
        let (reduced, eight_bit) = cnv6().dot_product_ops();
        assert_eq!(eight_bit, 3_110_400);
        assert_eq!(reduced, 115_812_352);
    }

    #[test]
    fn mlp4_close_to_table_two() {
        // Table II rounds MLP-4 to 6.0 M; the exact topology gives 5.82 M.
        let (reduced, eight_bit) = mlp4().dot_product_ops();
        assert_eq!(eight_bit, 0);
        assert_eq!(reduced, 5_820_416);
        assert!((reduced as f64 - 6.0e6).abs() / 6.0e6 < 0.05);
    }

    #[test]
    fn tincy_head_is_thirteen_square() {
        assert_eq!(tincy_yolo().output_shape(), Shape3::new(125, 13, 13));
        assert_eq!(tiny_yolo().output_shape(), Shape3::new(125, 13, 13));
    }

    #[test]
    fn scaled_tincy_validates() {
        let spec = tincy_yolo_with_input(128);
        assert!(spec.validate().is_ok());
        assert_eq!(spec.output_shape(), Shape3::new(125, 4, 4));
    }

    #[test]
    #[should_panic(expected = "multiple of 32")]
    fn unaligned_input_panics() {
        tincy_yolo_with_input(100);
    }
}
