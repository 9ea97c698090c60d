//! Deriving a trainable network from a serializable [`ModelSpec`].
//!
//! The design-space explorer emits `ModelSpec` documents; this module
//! turns one into the QAT training recipe the deployment flow expects:
//! offloadable convs train as `[W1A3]` STE layers, the conv feeding the
//! quantized stack trains with 3-bit output quantization (`A3Only`) so
//! the fabric sees the feature map the model trained on, everything else
//! trains in float, and the region head (not trainable — the loss decodes
//! raw logits) is dropped.

use crate::layers::{Act, QuantMode, TrainConvSpec, TrainLayerSpec};
use crate::net::{TrainError, TrainNet};
use tincy_nn::{Activation, LayerSpec, ModelSpec};
use tincy_quant::WeightPrecision;
use tincy_tensor::Shape3;

fn act_of(activation: Activation) -> Act {
    match activation {
        Activation::Linear => Act::Linear,
        Activation::Relu => Act::Relu,
        Activation::Leaky => Act::Leaky,
    }
}

/// Lowers a model description to trainable layer specs (plus the input
/// shape). The trailing region head is dropped; the net ends in the raw
/// logit map the detection loss consumes.
///
/// # Errors
///
/// Returns [`TrainError`] if the model contains an `[offload]` section
/// (train the expanded per-layer topology, not the deployed collapse).
fn train_specs_for(model: &ModelSpec) -> Result<(Shape3, Vec<TrainLayerSpec>), TrainError> {
    let convs_offloadable: Vec<bool> = model
        .network
        .layers
        .iter()
        .filter_map(|l| match l {
            LayerSpec::Conv(c) => Some(c.precision.offloadable()),
            _ => None,
        })
        .collect();
    let mut specs = Vec::new();
    let mut conv_idx = 0usize;
    for layer in &model.network.layers {
        match layer {
            LayerSpec::Conv(c) => {
                let feeds_fabric = convs_offloadable.get(conv_idx + 1) == Some(&true);
                let quant = if c.precision.offloadable() {
                    match c.precision.weights {
                        WeightPrecision::W2 => QuantMode::W2A3 {
                            act_step: model.act_step,
                        },
                        _ => QuantMode::W1A3 {
                            act_step: model.act_step,
                        },
                    }
                } else if feeds_fabric {
                    QuantMode::A3Only {
                        act_step: model.act_step,
                    }
                } else {
                    QuantMode::Float
                };
                specs.push(TrainLayerSpec::Conv(TrainConvSpec {
                    filters: c.filters,
                    size: c.size,
                    stride: c.stride,
                    pad: c.pad,
                    act: act_of(c.activation),
                    quant,
                }));
                conv_idx += 1;
            }
            LayerSpec::MaxPool(p) => specs.push(TrainLayerSpec::MaxPool {
                size: p.size,
                stride: p.stride,
            }),
            LayerSpec::Region(_) => {}
            LayerSpec::Offload(_) => {
                return Err(TrainError {
                    what: "cannot train a collapsed [offload] section; use the expanded \
                           per-layer topology"
                        .to_owned(),
                })
            }
        }
    }
    Ok((model.network.input, specs))
}

impl TrainNet {
    /// Builds a trainable network straight from a model description, with
    /// the model's own weight seed.
    ///
    /// # Errors
    ///
    /// Returns [`TrainError`] for untrainable models (one with an
    /// `[offload]` section: train the expanded per-layer topology, not the
    /// deployed collapse) or invalid layer geometry.
    pub fn from_model(model: &ModelSpec) -> Result<Self, TrainError> {
        let (input, specs) = train_specs_for(model)?;
        TrainNet::new(input, &specs, model.seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tincy_nn::{ConvSpec, NetworkSpec, OffloadSpec, PoolSpec, RegionSpec};
    use tincy_quant::PrecisionConfig;

    fn conv(filters: usize, precision: PrecisionConfig, activation: Activation) -> LayerSpec {
        LayerSpec::Conv(ConvSpec {
            filters,
            size: 3,
            stride: 1,
            pad: 1,
            activation,
            batch_normalize: false,
            precision,
        })
    }

    fn model() -> ModelSpec {
        let network = NetworkSpec::new(Shape3::new(3, 16, 16))
            .with(conv(4, PrecisionConfig::W8A8, Activation::Relu))
            .with(LayerSpec::MaxPool(PoolSpec { size: 2, stride: 2 }))
            .with(conv(8, PrecisionConfig::W1A3, Activation::Relu))
            .with(conv(7, PrecisionConfig::W8A8, Activation::Linear))
            .with(LayerSpec::Region(RegionSpec {
                classes: 2,
                num: 1,
                anchors: vec![(1.0, 1.0)],
            }));
        ModelSpec {
            name: "t".to_owned(),
            network,
            fold: Default::default(),
            act_step: 0.25,
            seed: 3,
        }
    }

    #[test]
    fn lowering_matches_the_qat_recipe() {
        let (input, specs) = train_specs_for(&model()).unwrap();
        assert_eq!(input, Shape3::new(3, 16, 16));
        // Region head dropped: conv, pool, conv, conv.
        assert_eq!(specs.len(), 4);
        let quants: Vec<QuantMode> = specs
            .iter()
            .filter_map(|s| match s {
                TrainLayerSpec::Conv(c) => Some(c.quant),
                TrainLayerSpec::MaxPool { .. } => None,
            })
            .collect();
        assert_eq!(
            quants,
            vec![
                QuantMode::A3Only { act_step: 0.25 },
                QuantMode::W1A3 { act_step: 0.25 },
                QuantMode::Float,
            ]
        );
    }

    #[test]
    fn from_model_builds_and_runs() {
        let net = TrainNet::from_model(&model()).unwrap();
        let image = tincy_tensor::Tensor::from_fn(Shape3::new(3, 16, 16), |c, y, x| {
            ((c + y + x) % 5) as f32 / 5.0
        });
        let mut net = net;
        let out = net.forward(&image);
        assert_eq!(out.shape().channels, 7);
    }

    #[test]
    fn offload_sections_are_rejected() {
        let mut m = model();
        m.network.layers[2] = LayerSpec::Offload(OffloadSpec {
            library: "fabric.so".to_owned(),
            network: "x".to_owned(),
            weights: "y".to_owned(),
            out_shape: Shape3::new(8, 8, 8),
            ops: 1,
        });
        assert!(TrainNet::from_model(&m).is_err());
    }
}
