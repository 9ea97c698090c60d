//! The generalized convolutional layer engine.
//!
//! §III-A: "only a single generalized convolutional layer together with its
//! subsequent pooling layer would fit into the available fabric. The layers
//! of the network must be run one after the other on the same accelerator."
//! One [`ConvEngine`] is that hardware: a sliding-window unit feeding a
//! folded MVTU, with an optional in-stream max-pool unit. The datapath is
//! the layer's [`tincy_kernels::PackedLayer`] — the word-wise streaming
//! schedule the host fallback runs too; the cycle model is
//! [`conv_layer_cycles`]. The two are independent: how fast the host
//! computes a layer says nothing about the cycles the fabric is charged.

use crate::accel::QnnLayerParams;
use tincy_kernels::PopcountIsa;
use tincy_nn::NnError;
use tincy_tensor::{Shape3, Tensor};

pub use tincy_kernels::max_pool_levels;

/// Engine folding and clocking configuration: a `ModelSpec`'s
/// [`tincy_nn::FoldSpec`] itself. Its default is the shipped 16x16 at
/// 300 MHz — 256 binary MACs/cycle, the operating point that reproduces
/// the paper's 30 ms hidden-layer budget.
pub type EngineConfig = tincy_nn::FoldSpec;

/// One generalized conv(+pool) engine instance.
#[derive(Debug, Clone)]
pub struct ConvEngine {
    config: EngineConfig,
}

impl ConvEngine {
    /// Creates an engine.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidSpec`] for zero folding or clock.
    pub fn new(config: EngineConfig) -> Result<Self, NnError> {
        if config.pe == 0 || config.simd == 0 || config.clock_hz == 0 {
            return Err(NnError::InvalidSpec {
                what: "engine pe, simd and clock must be nonzero".to_owned(),
            });
        }
        Ok(Self { config })
    }

    /// The engine configuration.
    pub fn config(&self) -> EngineConfig {
        self.config
    }

    /// Runs one layer on the engine, returning the 3-bit output feature map
    /// and the consumed cycles.
    ///
    /// # Errors
    ///
    /// Returns [`NnError`] if the input does not match the layer geometry.
    ///
    /// # Panics
    ///
    /// Panics if an input activation level exceeds the 3-bit range.
    pub fn run_layer(
        &self,
        params: &QnnLayerParams,
        input: &Tensor<u8>,
    ) -> Result<(Tensor<u8>, u64), NnError> {
        self.run_layer_on(PopcountIsa::detect(), params, input)
    }

    /// [`ConvEngine::run_layer`] on a given instantiation of the popcount
    /// loops. Output and cycles never depend on `isa`; `run_layer` picks
    /// the fastest one the CPU has, and tests hold the others to it.
    ///
    /// # Errors
    ///
    /// As [`ConvEngine::run_layer`].
    ///
    /// # Panics
    ///
    /// As [`ConvEngine::run_layer`].
    pub fn run_layer_on(
        &self,
        isa: PopcountIsa,
        params: &QnnLayerParams,
        input: &Tensor<u8>,
    ) -> Result<(Tensor<u8>, u64), NnError> {
        if input.shape() != params.in_shape() {
            return Err(NnError::ShapeMismatch {
                expected: params.in_shape().to_string(),
                actual: input.shape().to_string(),
            });
        }
        // The in-stream pool unit adds no cycles: it consumes the MVTU
        // output stream at line rate.
        let cycles = conv_layer_cycles(
            params.in_shape(),
            params.weights().rows(),
            params.geom(),
            self.config,
        );
        Ok((params.core().run_on(isa, input), cycles))
    }
}

/// Cycles one engine invocation takes for a conv layer of the given
/// dimensions: every output pixel occupies the folded MVTU for
/// `ceil(K²·C / simd) · ceil(channels / pe)` beats
/// ([`crate::Mvtu::cycles_per_vector`]), plus the pipeline fill. This is
/// the whole cycle model of [`ConvEngine::run_layer`], usable for planning
/// without weights.
pub fn conv_layer_cycles(
    in_shape: Shape3,
    out_channels: usize,
    geom: tincy_tensor::ConvGeom,
    config: EngineConfig,
) -> u64 {
    let out = geom.output_shape(in_shape, out_channels);
    let fold =
        geom.dot_length(in_shape.channels).div_ceil(config.simd) * out_channels.div_ceil(config.pe);
    out.spatial() as u64 * fold as u64 + config.pipeline_latency
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accel::QnnLayerParams;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use tincy_quant::{ThresholdSet, ThresholdsForLayer};
    use tincy_tensor::{BitTensor, ConvGeom, PoolGeom};

    fn layer_params(
        rng: &mut StdRng,
        in_shape: Shape3,
        out_c: usize,
        geom: ConvGeom,
        pool: Option<PoolGeom>,
    ) -> QnnLayerParams {
        let cols = geom.dot_length(in_shape.channels);
        let signs: Vec<i8> = (0..out_c * cols)
            .map(|_| if rng.gen() { 1 } else { -1 })
            .collect();
        let weights = BitTensor::from_signs(out_c, cols, &signs).unwrap();
        let thresholds = ThresholdsForLayer::new(
            (0..out_c)
                .map(|_| {
                    let base = rng.gen_range(-10i32..0);
                    ThresholdSet::new((0..7).map(|k| base + k * 3).collect()).unwrap()
                })
                .collect(),
        )
        .unwrap();
        QnnLayerParams::new(in_shape, weights, thresholds, geom, pool).unwrap()
    }

    #[test]
    fn engine_output_is_three_bit() {
        let mut rng = StdRng::seed_from_u64(9);
        let in_shape = Shape3::new(4, 6, 6);
        let params = layer_params(&mut rng, in_shape, 8, ConvGeom::same(3, 1), None);
        let engine = ConvEngine::new(EngineConfig::default()).unwrap();
        let input = Tensor::from_fn(in_shape, |_, _, _| rng.gen_range(0..8) as u8);
        let (out, cycles) = engine.run_layer(&params, &input).unwrap();
        assert_eq!(out.shape(), Shape3::new(8, 6, 6));
        assert!(out.as_slice().iter().all(|&v| v <= 7));
        assert!(cycles > 0);
    }

    #[test]
    fn fused_pool_halves_output() {
        let mut rng = StdRng::seed_from_u64(10);
        let in_shape = Shape3::new(4, 8, 8);
        let params = layer_params(
            &mut rng,
            in_shape,
            8,
            ConvGeom::same(3, 1),
            Some(PoolGeom::new(2, 2)),
        );
        let engine = ConvEngine::new(EngineConfig::default()).unwrap();
        let input = Tensor::from_fn(in_shape, |_, _, _| rng.gen_range(0..8) as u8);
        let (out, _) = engine.run_layer(&params, &input).unwrap();
        assert_eq!(out.shape(), Shape3::new(8, 4, 4));
    }

    #[test]
    fn cycles_scale_with_folding() {
        let mut rng = StdRng::seed_from_u64(11);
        let in_shape = Shape3::new(16, 8, 8);
        let params = layer_params(&mut rng, in_shape, 32, ConvGeom::same(3, 1), None);
        let input = Tensor::from_fn(in_shape, |_, _, _| rng.gen_range(0..8) as u8);
        let fast = ConvEngine::new(EngineConfig {
            pe: 32,
            simd: 16,
            ..Default::default()
        })
        .unwrap();
        let slow = ConvEngine::new(EngineConfig {
            pe: 8,
            simd: 4,
            ..Default::default()
        })
        .unwrap();
        let (out_fast, cycles_fast) = fast.run_layer(&params, &input).unwrap();
        let (out_slow, cycles_slow) = slow.run_layer(&params, &input).unwrap();
        // Folding changes time, never results.
        assert_eq!(out_fast, out_slow);
        assert!(cycles_slow > cycles_fast);
    }

    #[test]
    fn shape_mismatch_rejected() {
        let mut rng = StdRng::seed_from_u64(12);
        let params = layer_params(
            &mut rng,
            Shape3::new(4, 6, 6),
            8,
            ConvGeom::same(3, 1),
            None,
        );
        let engine = ConvEngine::new(EngineConfig::default()).unwrap();
        let wrong = Tensor::<u8>::zeros(Shape3::new(4, 7, 7));
        assert!(engine.run_layer(&params, &wrong).is_err());
    }

    #[test]
    fn pool_levels_max() {
        let input = Tensor::from_fn(Shape3::new(1, 2, 2), |_, y, x| (y * 2 + x) as u8);
        let out = max_pool_levels(&input, PoolGeom::new(2, 2));
        assert_eq!(out.as_slice(), &[3]);
    }
}
