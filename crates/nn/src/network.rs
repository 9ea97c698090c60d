//! The network container.
//!
//! Besides the whole-network [`Network::forward`], the per-layer path is
//! first class: the pipelined demo mode of §III-F "had to disintegrate the
//! network inference (forward) pass to gain access to the invocations of
//! the individual layers", so [`Network::into_layers`] hands the layers
//! out for distribution across pipeline stages, each of which runs its
//! layers' [`Layer::forward`].

use crate::conv::ConvLayer;
use crate::error::NnError;
use crate::layer::Layer;
use crate::maxpool::MaxPoolLayer;
use crate::offload::{BackendRegistry, OffloadLayer};
use crate::region::{RegionLayer, RegionParams};
use crate::spec::{LayerSpec, NetworkSpec};
use crate::weights::WeightsReader;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::Read;
use tincy_tensor::{Shape3, Tensor};

/// A feed-forward network: an ordered stack of [`Layer`]s.
pub struct Network {
    input_shape: Shape3,
    layers: Vec<Box<dyn Layer>>,
}

impl std::fmt::Debug for Network {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Network")
            .field("input_shape", &self.input_shape)
            .field(
                "layers",
                &self.layers.iter().map(|l| l.kind()).collect::<Vec<_>>(),
            )
            .finish()
    }
}

impl Network {
    /// Builds a network from a specification with deterministic random
    /// initialization; offload layers resolve through `registry`.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidSpec`] for inconsistent specs and
    /// [`NnError::UnknownBackend`] for unresolvable offload libraries.
    pub fn from_spec(
        spec: &NetworkSpec,
        registry: &BackendRegistry,
        seed: u64,
    ) -> Result<Self, NnError> {
        spec.validate()?;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut layers: Vec<Box<dyn Layer>> = Vec::with_capacity(spec.layers.len());
        let mut shape = spec.input;
        for layer_spec in &spec.layers {
            let layer: Box<dyn Layer> = match layer_spec {
                LayerSpec::Conv(c) => Box::new(ConvLayer::new(shape, c, &mut rng)?),
                LayerSpec::MaxPool(p) => Box::new(MaxPoolLayer::new(shape, p)?),
                LayerSpec::Region(r) => Box::new(RegionLayer::new(shape, RegionParams::from(r))?),
                LayerSpec::Offload(o) => Box::new(OffloadLayer::new(shape, o, registry)?),
            };
            shape = layer.output_shape();
            layers.push(layer);
        }
        Ok(Self {
            input_shape: spec.input,
            layers,
        })
    }

    /// The expected input shape.
    pub fn input_shape(&self) -> Shape3 {
        self.input_shape
    }

    /// The final output shape.
    pub fn output_shape(&self) -> Shape3 {
        self.layers
            .last()
            .map_or(self.input_shape, |l| l.output_shape())
    }

    /// Number of layers.
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// Immutable access to layer `i`.
    pub fn layer(&self, i: usize) -> &dyn Layer {
        self.layers[i].as_ref()
    }

    /// Mutable access to layer `i`.
    pub fn layer_mut(&mut self, i: usize) -> &mut dyn Layer {
        self.layers[i].as_mut()
    }

    /// Consumes the network, handing out its layers (for pipeline-stage
    /// distribution, §III-F).
    pub fn into_layers(self) -> Vec<Box<dyn Layer>> {
        self.layers
    }

    /// Whole-network inference.
    ///
    /// # Errors
    ///
    /// Propagates the first layer failure.
    pub fn forward(&self, input: &Tensor<f32>) -> Result<Tensor<f32>, NnError> {
        let mut x = input.clone();
        for layer in &self.layers {
            x = layer.forward(&x)?;
        }
        Ok(x)
    }

    /// Total learned parameters.
    pub fn num_params(&self) -> usize {
        self.layers.iter().map(|l| l.num_params()).sum()
    }

    /// Total operations per frame.
    pub fn total_ops(&self) -> u64 {
        self.layers.iter().map(|l| l.ops_per_frame()).sum()
    }

    /// Loads all parameters (with header) from a byte source.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::Parse`] on a bad header, [`NnError::Io`] on a
    /// truncated stream. A `&mut` reference to any [`Read`] implementor can
    /// be passed.
    pub fn load_weights<R: Read>(&mut self, mut source: R) -> Result<(), NnError> {
        let mut reader = WeightsReader::new(&mut source);
        let declared = reader.read_header()?;
        for layer in &mut self.layers {
            layer.load_weights(&mut reader)?;
        }
        if reader.read_count() as u64 != declared {
            return Err(NnError::Parse {
                line: 0,
                what: format!(
                    "weight file declares {declared} parameters, network consumed {}",
                    reader.read_count()
                ),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activation::Activation;
    use crate::spec::{ConvSpec, PoolSpec};
    use crate::weights::WeightsWriter;
    use rand::Rng;
    use tincy_quant::PrecisionConfig;

    fn small_spec() -> NetworkSpec {
        NetworkSpec::new(Shape3::new(3, 8, 8))
            .with(LayerSpec::Conv(ConvSpec {
                filters: 4,
                size: 3,
                stride: 1,
                pad: 1,
                activation: Activation::Relu,
                batch_normalize: true,
                precision: PrecisionConfig::FLOAT,
            }))
            .with(LayerSpec::MaxPool(PoolSpec { size: 2, stride: 2 }))
            .with(LayerSpec::Conv(ConvSpec {
                filters: 2,
                size: 1,
                stride: 1,
                pad: 0,
                activation: Activation::Linear,
                batch_normalize: false,
                precision: PrecisionConfig::FLOAT,
            }))
    }

    #[test]
    fn build_and_forward() {
        let net = Network::from_spec(&small_spec(), &BackendRegistry::new(), 7).unwrap();
        assert_eq!(net.num_layers(), 3);
        assert_eq!(net.output_shape(), Shape3::new(2, 4, 4));
        let x = Tensor::filled(Shape3::new(3, 8, 8), 0.5f32);
        let y = net.forward(&x).unwrap();
        assert_eq!(y.shape(), Shape3::new(2, 4, 4));
    }

    #[test]
    fn per_layer_forward_equals_whole_forward() {
        let net = Network::from_spec(&small_spec(), &BackendRegistry::new(), 7).unwrap();
        let x = Tensor::from_fn(Shape3::new(3, 8, 8), |c, y, z| (c + y + z) as f32 * 0.1);
        let whole = net.forward(&x).unwrap();
        let mut step = x.clone();
        for layer in &net.into_layers() {
            step = layer.forward(&step).unwrap();
        }
        assert!(whole.max_abs_diff(&step) < 1e-6);
    }

    #[test]
    fn deterministic_initialization() {
        let reg = BackendRegistry::new();
        let a = Network::from_spec(&small_spec(), &reg, 42).unwrap();
        let b = Network::from_spec(&small_spec(), &reg, 42).unwrap();
        let x = Tensor::filled(Shape3::new(3, 8, 8), 0.3f32);
        assert!(a.forward(&x).unwrap().max_abs_diff(&b.forward(&x).unwrap()) == 0.0);
        let c = Network::from_spec(&small_spec(), &reg, 43).unwrap();
        assert!(a.forward(&x).unwrap().max_abs_diff(&c.forward(&x).unwrap()) > 0.0);
    }

    /// A weight file for a spec's conv layers in the stream layout —
    /// the header, then per conv bias, [gamma, mean, var,] weights — of
    /// pseudo-random values, the variances positive.
    fn weight_file(spec: &NetworkSpec) -> Vec<u8> {
        let mut rng = StdRng::seed_from_u64(5);
        let mut values = |n: usize, low: f32| -> Vec<f32> {
            (0..n).map(|_| low + rng.gen_range(0.0f32..1.0)).collect()
        };
        let mut buf = Vec::new();
        let mut writer = WeightsWriter::new(&mut buf);
        writer.write_header(spec.num_params() as u64).unwrap();
        for (i, layer) in spec.layers.iter().enumerate() {
            let LayerSpec::Conv(conv) = layer else {
                continue;
            };
            writer.write_f32s(&values(conv.filters, -0.5)).unwrap();
            if conv.batch_normalize {
                for low in [0.5, -0.5, 0.5] {
                    writer.write_f32s(&values(conv.filters, low)).unwrap();
                }
            }
            let fan_in = conv.geom().dot_length(spec.input_shape_of(i).channels);
            writer
                .write_f32s(&values(conv.filters * fan_in, -0.5))
                .unwrap();
        }
        buf
    }

    #[test]
    fn weights_load_alike_into_differently_seeded_networks() {
        let reg = BackendRegistry::new();
        let mut a = Network::from_spec(&small_spec(), &reg, 1).unwrap();
        let mut b = Network::from_spec(&small_spec(), &reg, 999).unwrap();
        let x = Tensor::filled(Shape3::new(3, 8, 8), 0.7f32);
        assert!(a.forward(&x).unwrap().max_abs_diff(&b.forward(&x).unwrap()) > 1e-3);

        let file = weight_file(&small_spec());
        a.load_weights(file.as_slice()).unwrap();
        b.load_weights(file.as_slice()).unwrap();
        assert!(a.forward(&x).unwrap().max_abs_diff(&b.forward(&x).unwrap()) < 1e-7);
    }

    #[test]
    fn truncated_weight_file_rejected() {
        let reg = BackendRegistry::new();
        let mut file = weight_file(&small_spec());
        let mut b = Network::from_spec(&small_spec(), &reg, 2).unwrap();
        assert!(b.load_weights(file.as_slice()).is_ok());
        file.truncate(file.len() - 8);
        assert!(b.load_weights(file.as_slice()).is_err());
    }

    #[test]
    fn ops_and_params_aggregate() {
        let net = Network::from_spec(&small_spec(), &BackendRegistry::new(), 7).unwrap();
        assert_eq!(net.total_ops(), small_spec().total_ops());
        assert_eq!(net.num_params(), small_spec().num_params());
    }
}
