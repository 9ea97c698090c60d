//! The trainable network container.

use crate::layers::{ConvT, PoolT, QuantMode, TrainLayerSpec};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt;
use std::io::Write;
use tincy_nn::{NnError, WeightsWriter};
use tincy_tensor::{Shape3, Tensor};

/// Training-time errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrainError {
    /// Human-readable description.
    pub what: String,
}

impl fmt::Display for TrainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "training error: {}", self.what)
    }
}

impl std::error::Error for TrainError {}

enum TLayer {
    // Boxed: a ConvT carries full weight/gradient buffers and dwarfs PoolT.
    Conv(Box<ConvT>),
    Pool(PoolT),
}

/// A small trainable feed-forward network (convs + pools), ending in the
/// detection head's raw logit map.
pub struct TrainNet {
    input_shape: Shape3,
    layers: Vec<TLayer>,
    specs: Vec<TrainLayerSpec>,
}

impl fmt::Debug for TrainNet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TrainNet")
            .field("input_shape", &self.input_shape)
            .field("specs", &self.specs)
            .finish()
    }
}

impl TrainNet {
    /// Builds a network with deterministic He initialization.
    ///
    /// # Errors
    ///
    /// Returns [`TrainError`] if a layer geometry cannot be applied.
    pub fn new(
        input_shape: Shape3,
        specs: &[TrainLayerSpec],
        seed: u64,
    ) -> Result<Self, TrainError> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut layers = Vec::with_capacity(specs.len());
        let mut shape = input_shape;
        for spec in specs {
            match spec {
                TrainLayerSpec::Conv(c) => {
                    let geom = tincy_tensor::ConvGeom::new(c.size, c.stride, c.pad);
                    geom.validate(shape).map_err(|e| TrainError {
                        what: e.to_string(),
                    })?;
                    let conv = ConvT::new(shape, c, &mut rng);
                    shape = conv.out_shape;
                    layers.push(TLayer::Conv(Box::new(conv)));
                }
                TrainLayerSpec::MaxPool { size, stride } => {
                    if *size == 0 || *stride == 0 {
                        return Err(TrainError {
                            what: "zero pool geometry".to_owned(),
                        });
                    }
                    let pool = PoolT::new(shape, *size, *stride);
                    shape = pool.out_shape;
                    layers.push(TLayer::Pool(pool));
                }
            }
        }
        Ok(Self {
            input_shape,
            layers,
            specs: specs.to_vec(),
        })
    }

    /// The expected input shape.
    pub fn input_shape(&self) -> Shape3 {
        self.input_shape
    }

    /// The head output shape.
    pub fn output_shape(&self) -> Shape3 {
        self.layers
            .last()
            .map(|l| match l {
                TLayer::Conv(c) => c.out_shape,
                TLayer::Pool(p) => p.out_shape,
            })
            .unwrap_or(self.input_shape)
    }

    /// The layer specifications this network was built from.
    pub fn specs(&self) -> &[TrainLayerSpec] {
        &self.specs
    }

    /// Forward pass, caching intermediates for [`TrainNet::backward`].
    pub fn forward(&mut self, x: &Tensor<f32>) -> Tensor<f32> {
        let mut cur = x.clone();
        for layer in &mut self.layers {
            cur = match layer {
                TLayer::Conv(c) => c.forward(&cur),
                TLayer::Pool(p) => p.forward(&cur),
            };
        }
        cur
    }

    /// Backward pass from the head gradient; accumulates parameter
    /// gradients.
    ///
    /// # Panics
    ///
    /// Panics if called without a preceding [`TrainNet::forward`].
    pub fn backward(&mut self, dhead: &Tensor<f32>) {
        let mut grad = dhead.clone();
        for layer in self.layers.iter_mut().rev() {
            grad = match layer {
                TLayer::Conv(c) => c.backward(&grad),
                TLayer::Pool(p) => p.backward(&grad),
            };
        }
    }

    /// Clears all accumulated gradients.
    pub fn zero_grad(&mut self) {
        for layer in &mut self.layers {
            if let TLayer::Conv(c) = layer {
                c.dw.iter_mut().for_each(|v| *v = 0.0);
                c.db.iter_mut().for_each(|v| *v = 0.0);
            }
        }
    }

    /// Visits every `(parameters, gradients)` pair — the optimizer hook.
    pub fn visit_params(&mut self, mut f: impl FnMut(&mut [f32], &[f32])) {
        for layer in &mut self.layers {
            if let TLayer::Conv(c) = layer {
                f(&mut c.w, &c.dw);
                f(&mut c.b, &c.db);
            }
        }
    }

    /// Global L2 norm of the accumulated gradients.
    pub fn grad_norm(&mut self) -> f32 {
        let mut sum = 0.0f32;
        self.visit_params(|_, g| sum += g.iter().map(|v| v * v).sum::<f32>());
        sum.sqrt()
    }

    /// Scales all accumulated gradients by `factor` (gradient clipping).
    pub fn scale_gradients(&mut self, factor: f32) {
        for layer in &mut self.layers {
            if let TLayer::Conv(c) = layer {
                c.dw.iter_mut().for_each(|v| *v *= factor);
                c.db.iter_mut().for_each(|v| *v *= factor);
            }
        }
    }

    /// Total trainable parameters.
    pub fn num_params(&mut self) -> usize {
        let mut n = 0;
        self.visit_params(|w, _| n += w.len());
        n
    }

    /// Streams the trained parameters as a `TNCY` weight file: the header,
    /// then per conv `bias, weights` in layer order — what
    /// `tincy_nn::Network::load_weights` feeds a network of the same
    /// topology without batch normalization (a `TrainNet` has none; the
    /// trained bias is the whole affine), CPU layers and `[offload]`
    /// backend alike.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::Io`] on sink failure.
    pub fn save_weights<W: Write>(&self, mut sink: W) -> Result<(), NnError> {
        let convs = self.layers.iter().filter_map(|l| match l {
            TLayer::Conv(c) => Some(c),
            TLayer::Pool(_) => None,
        });
        let mut writer = WeightsWriter::new(&mut sink);
        writer.write_header(convs.clone().map(|c| (c.b.len() + c.w.len()) as u64).sum())?;
        for conv in convs {
            writer.write_f32s(&conv.b)?;
            writer.write_f32s(&conv.w)?;
        }
        Ok(())
    }

    /// Switches the quantization mode of the *hidden* conv layers (all conv
    /// layers except the first and the last) — the paper's quantization
    /// boundary: input and output layers are quantization sensitive and stay
    /// high precision (§III-A).
    pub fn set_hidden_quant(&mut self, quant: QuantMode) {
        let conv_indices: Vec<usize> = self
            .layers
            .iter()
            .enumerate()
            .filter_map(|(i, l)| matches!(l, TLayer::Conv(_)).then_some(i))
            .collect();
        if conv_indices.len() <= 2 {
            return;
        }
        for &i in &conv_indices[1..conv_indices.len() - 1] {
            if let TLayer::Conv(c) = &mut self.layers[i] {
                c.quant = quant;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Act, TrainConvSpec};

    fn specs() -> Vec<TrainLayerSpec> {
        vec![
            TrainLayerSpec::Conv(TrainConvSpec {
                filters: 4,
                size: 3,
                stride: 2,
                pad: 1,
                act: Act::Relu,
                quant: QuantMode::Float,
            }),
            TrainLayerSpec::MaxPool { size: 2, stride: 2 },
            TrainLayerSpec::Conv(TrainConvSpec {
                filters: 6,
                size: 3,
                stride: 1,
                pad: 1,
                act: Act::Relu,
                quant: QuantMode::Float,
            }),
            TrainLayerSpec::Conv(TrainConvSpec {
                filters: 7,
                size: 1,
                stride: 1,
                pad: 0,
                act: Act::Linear,
                quant: QuantMode::Float,
            }),
        ]
    }

    #[test]
    fn shapes_chain() {
        let net = TrainNet::new(Shape3::new(3, 16, 16), &specs(), 1).unwrap();
        assert_eq!(net.output_shape(), Shape3::new(7, 4, 4));
    }

    #[test]
    fn forward_backward_round_trip() {
        let mut net = TrainNet::new(Shape3::new(3, 16, 16), &specs(), 1).unwrap();
        let x = Tensor::filled(Shape3::new(3, 16, 16), 0.4f32);
        let y = net.forward(&x);
        net.backward(&y);
        let mut total_grad = 0.0f32;
        net.visit_params(|_, g| total_grad += g.iter().map(|v| v.abs()).sum::<f32>());
        assert!(total_grad > 0.0);
        net.zero_grad();
        let mut after = 0.0f32;
        net.visit_params(|_, g| after += g.iter().map(|v| v.abs()).sum::<f32>());
        assert_eq!(after, 0.0);
    }

    #[test]
    fn deterministic_init() {
        let mut a = TrainNet::new(Shape3::new(3, 16, 16), &specs(), 5).unwrap();
        let mut b = TrainNet::new(Shape3::new(3, 16, 16), &specs(), 5).unwrap();
        let x = Tensor::filled(Shape3::new(3, 16, 16), 0.4f32);
        assert_eq!(a.forward(&x), b.forward(&x));
    }

    #[test]
    fn hidden_quant_spares_first_and_last_conv() {
        let mut net = TrainNet::new(Shape3::new(3, 16, 16), &specs(), 1).unwrap();
        net.set_hidden_quant(QuantMode::W1A3 { act_step: 0.25 });
        let modes: Vec<QuantMode> = net
            .layers
            .iter()
            .filter_map(|l| match l {
                TLayer::Conv(c) => Some(c.quant),
                TLayer::Pool(_) => None,
            })
            .collect();
        assert_eq!(modes[0], QuantMode::Float);
        assert_eq!(modes[1], QuantMode::W1A3 { act_step: 0.25 });
        assert_eq!(modes[2], QuantMode::Float);
    }

    #[test]
    fn invalid_geometry_rejected() {
        let bad = vec![TrainLayerSpec::Conv(TrainConvSpec {
            filters: 2,
            size: 9,
            stride: 1,
            pad: 0,
            act: Act::Relu,
            quant: QuantMode::Float,
        })];
        assert!(TrainNet::new(Shape3::new(1, 4, 4), &bad, 0).is_err());
    }
}
