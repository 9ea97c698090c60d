//! The offload segment (§III-A/C, Fig 4): the one contiguous run of a
//! network's offloadable convs, each with the pool that follows it on
//! the engine's in-stream pool unit. Which layers the fabric runs, and
//! whether it can run them, is decided here and nowhere else:
//! `tincy-finn` builds and prices the segment's accelerator,
//! `tincy-core` collapses it into the `[offload]` section.

use crate::{Activation, ConvSpec, LayerSpec, NetworkSpec, NnError, PoolSpec};
use std::ops::Range;
use tincy_tensor::Shape3;

/// One layer of an offload segment: an offloadable conv, the pool that
/// rides on it, and the feature map it reads.
#[derive(Debug, Clone, PartialEq)]
pub struct SegmentLayer {
    /// The binary conv.
    pub conv: ConvSpec,
    /// The max-pool that immediately follows the conv, if any.
    pub pool: Option<PoolSpec>,
    /// Shape of the feature map the conv reads.
    pub in_shape: Shape3,
}

impl SegmentLayer {
    /// Shape after the conv and its pool.
    pub fn out_shape(&self) -> Shape3 {
        let conv = self
            .conv
            .geom()
            .output_shape(self.in_shape, self.conv.filters);
        self.pool.map_or(conv, |p| p.geom().output_shape(conv))
    }

    /// Weight storage the layer needs on the fabric, in bits.
    pub fn weight_bits(&self) -> u64 {
        let dot = self.conv.geom().dot_length(self.in_shape.channels);
        (self.conv.filters * dot) as u64 * u64::from(self.conv.precision.weights.bits())
    }

    /// Activation levels the layer's thresholds produce (8 for `A3`, 2
    /// for `A1`).
    pub fn levels(&self) -> usize {
        self.conv.precision.activations.levels()
    }
}

/// A network's offload segment: the layers the fabric runs, in order,
/// and the span of the specification they replace. Empty for a network
/// without offloadable convs (a pure CPU deployment).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct OffloadSegment {
    span: Range<usize>,
    layers: Vec<SegmentLayer>,
}

impl OffloadSegment {
    /// The offload segment of a network.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidSpec`] for what the engine cannot run: an
    /// offloadable conv whose activation is not ReLU (the thresholds fold
    /// ReLU and the layer's quantizer into one monotone staircase,
    /// transformation (a) of §III-E; a leaky slope or a linear pass-through
    /// has no such fold), or offloadable convs in more than one contiguous
    /// run (the system has one fabric and one `[offload]` section).
    pub fn of(spec: &NetworkSpec) -> Result<Self, NnError> {
        let mut runs: Vec<Range<usize>> = Vec::new();
        let mut layers = Vec::new();
        let mut shape = spec.input;
        let mut iter = spec.layers.iter().enumerate().peekable();
        while let Some((i, layer)) = iter.next() {
            let in_shape = shape;
            shape = layer.output_shape(shape);
            let LayerSpec::Conv(conv) = layer else {
                continue;
            };
            if !conv.precision.offloadable() {
                continue;
            }
            if conv.activation != Activation::Relu {
                return Err(NnError::InvalidSpec {
                    what: format!(
                        "layer {i}: offloaded conv activation {:?} does not fold into integer \
                         thresholds (the fabric computes ReLU)",
                        conv.activation
                    ),
                });
            }
            let pool = match iter.peek() {
                Some(&(_, pool @ LayerSpec::MaxPool(p))) => {
                    shape = pool.output_shape(shape);
                    iter.next();
                    Some(*p)
                }
                _ => None,
            };
            let end = i + 1 + usize::from(pool.is_some());
            match runs.last_mut() {
                Some(run) if run.end == i => run.end = end,
                _ => runs.push(i..end),
            }
            layers.push(SegmentLayer {
                conv: conv.clone(),
                pool,
                in_shape,
            });
        }
        if runs.len() > 1 {
            return Err(NnError::InvalidSpec {
                what: format!(
                    "offloadable convs form {} runs (layers {runs:?}); the fabric runs one \
                     contiguous segment",
                    runs.len()
                ),
            });
        }
        Ok(Self {
            span: runs.pop().unwrap_or_default(),
            layers,
        })
    }

    /// The layers the fabric runs, in order.
    pub fn layers(&self) -> &[SegmentLayer] {
        &self.layers
    }

    /// Whether the network offloads nothing.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Positions of the segment's layers (convs and their pools) in the
    /// specification it was found in; empty for an empty segment.
    pub fn span(&self) -> Range<usize> {
        self.span.clone()
    }

    /// Shape the segment hands back, `None` for an empty segment.
    pub fn out_shape(&self) -> Option<Shape3> {
        self.layers.last().map(SegmentLayer::out_shape)
    }

    /// Dot-product operations per frame (the convs; the riding pools'
    /// comparisons are not dot products).
    pub fn ops(&self) -> u64 {
        self.layers
            .iter()
            .map(|l| LayerSpec::Conv(l.conv.clone()).ops(l.in_shape))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{tincy_yolo, tincy_yolo_with_input};
    use tincy_quant::PrecisionConfig;

    #[test]
    fn tincy_segment_is_seven_convs_and_five_pools() {
        let spec = tincy_yolo();
        let segment = OffloadSegment::of(&spec).unwrap();
        let layers = segment.layers();
        assert_eq!(layers.len(), 7);
        assert_eq!(layers.iter().filter(|l| l.pool.is_some()).count(), 5);
        assert_eq!(layers[0].in_shape, Shape3::new(16, 208, 208));
        assert_eq!(layers[6].conv.filters, 512);
        // The stride-1 pool rides with the fifth hidden conv.
        assert_eq!(layers[4].pool, Some(PoolSpec { size: 2, stride: 1 }));
        // Layers 1..13 of the spec: everything between the W8A8 convs.
        assert_eq!(segment.span(), 1..13);
        for pair in layers.windows(2) {
            assert_eq!(pair[0].out_shape(), pair[1].in_shape);
        }
        assert_eq!(
            segment.out_shape(),
            Some(spec.input_shape_of(segment.span().end))
        );
        let total: u64 = layers.iter().map(SegmentLayer::weight_bits).sum();
        // 9216 + 36864 + 73728 + 294912 + 1179648 + 2359296 + 2359296
        assert_eq!(total, 6_312_960);
    }

    #[test]
    fn a_network_without_offloadable_convs_has_an_empty_segment() {
        let mut spec = tincy_yolo_with_input(64);
        for layer in &mut spec.layers {
            if let LayerSpec::Conv(c) = layer {
                c.precision = PrecisionConfig::W8A8;
            }
        }
        let segment = OffloadSegment::of(&spec).unwrap();
        assert!(segment.is_empty());
        assert_eq!(
            (segment.span(), segment.out_shape(), segment.ops()),
            (0..0, None, 0)
        );
    }

    #[test]
    fn non_relu_offloaded_convs_are_refused_naming_the_activation() {
        for (activation, name) in [(Activation::Leaky, "Leaky"), (Activation::Linear, "Linear")] {
            let mut spec = tincy_yolo_with_input(64);
            if let LayerSpec::Conv(c) = &mut spec.layers[5] {
                c.activation = activation;
            }
            let err = OffloadSegment::of(&spec).unwrap_err();
            assert!(matches!(err, NnError::InvalidSpec { .. }), "{err}");
            assert!(err.to_string().contains(name), "{err}");
        }
    }

    #[test]
    fn a_second_offloadable_run_is_refused_naming_both_runs() {
        // Layer 5 (a hidden conv) back on the CPU splits the run in two.
        let mut spec = tincy_yolo_with_input(64);
        if let LayerSpec::Conv(c) = &mut spec.layers[5] {
            c.precision = PrecisionConfig::W8A8;
        }
        let err = OffloadSegment::of(&spec).unwrap_err();
        assert!(matches!(err, NnError::InvalidSpec { .. }), "{err}");
        assert!(
            err.to_string().contains("2 runs (layers [1..5, 7..13])"),
            "{err}"
        );
    }
}
