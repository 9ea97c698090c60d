//! The `library=fabric.so` offload backend (§III-C, Fig 4).
//!
//! "Using this added offload mechanism, the QNN hardware accelerator within
//! the PL was integrated into the inference path of Darknet." The backend
//! owns the offline FINN flow: it receives the *float* parameters of the
//! hidden layers from the regular weight stream, binarizes the weights,
//! folds batch normalization and activation quantization into integer
//! threshold sets, and hands the result to the [`QnnAccelerator`]. It folds
//! each layer as its floats arrive and drops them: at most one layer's
//! floats are alive, and none once the accelerator is built.
//!
//! All of that is the loaded model: once built, the backend only reads.
//! The fault state of the fabric that runs it belongs to the
//! [`Device`] each batched forward names.

use crate::accel::{QnnAccelerator, QnnLayerParams};
use crate::engine::EngineConfig;
use tincy_nn::{
    ConvSpec, Device, NnError, OffloadBackend, OffloadConfig, OffloadSegment, WeightsReader,
};
use tincy_quant::{binarize, ThresholdSet, ThresholdsForLayer};
use tincy_tensor::{BitTensor, Tensor};

/// The registry key the fabric backend is published under (the shared
/// library name of Fig 4).
pub const FABRIC_LIBRARY: &str = "fabric.so";

/// Float parameters of one hidden layer in darknet stream order, alive
/// only until the layer is folded.
struct FloatParams {
    bias: Vec<f32>,
    gamma: Vec<f32>,
    mean: Vec<f32>,
    var: Vec<f32>,
    weights: Vec<f32>,
}

impl FloatParams {
    /// Deterministic default parameters (mirroring Darknet's random layer
    /// init), drawn from `next` in stream order.
    fn draw(conv: &ConvSpec, in_channels: usize, next: &mut impl FnMut() -> f32) -> Self {
        let fan_in = conv.size * conv.size * in_channels;
        let std = (2.0 / fan_in as f32).sqrt();
        Self {
            bias: (0..conv.filters).map(|_| (next() - 0.5) * 0.1).collect(),
            gamma: (0..conv.filters).map(|_| 0.8 + 0.4 * next()).collect(),
            mean: (0..conv.filters).map(|_| (next() - 0.5) * 0.2).collect(),
            var: (0..conv.filters).map(|_| 0.5 + next()).collect(),
            weights: (0..conv.filters * fan_in)
                .map(|_| (next() - 0.5) * 2.0 * std)
                .collect(),
        }
    }

    /// One layer's slice of the weight stream: bias, [gamma, mean, var],
    /// weights.
    fn read(
        reader: &mut WeightsReader<'_>,
        conv: &ConvSpec,
        in_channels: usize,
    ) -> Result<Self, NnError> {
        let bias = reader.read_f32s(conv.filters)?;
        let (gamma, mean, var) = if conv.batch_normalize {
            (
                reader.read_f32s(conv.filters)?,
                reader.read_f32s(conv.filters)?,
                reader.read_f32s(conv.filters)?,
            )
        } else {
            // Never read: the fold takes the bias as the whole affine.
            Default::default()
        };
        let weights = reader.read_f32s(conv.filters * conv.size * conv.size * in_channels)?;
        Ok(Self {
            bias,
            gamma,
            mean,
            var,
            weights,
        })
    }
}

/// The fabric offload backend: a QNN accelerator behind the Darknet
/// offload interface.
#[derive(Debug)]
pub struct FabricBackend {
    /// The layers the fabric runs; legal by construction.
    segment: OffloadSegment,
    engine_config: EngineConfig,
    /// Uniform activation quantization step of the hidden feature maps.
    act_step: f32,
    accel: Option<QnnAccelerator>,
}

/// The fabric interface's 3-bit quantizer: a float feature map to
/// activation levels, `(v / step).round().clamp(0.0, 7.0)`. The level is
/// counted as the half-integers `v / step` reaches, which is that rounding
/// (half away from zero) exactly, NaN included, in vector compares: the
/// x86-64 baseline has no rounding instruction, so `round` was a `roundf`
/// call per element.
#[inline]
fn to_levels(input: &Tensor<f32>, step: f32) -> Tensor<u8> {
    input.map(|v| {
        let level = v / step;
        (0..7u8)
            .map(|k| u8::from(level >= f32::from(k) + 0.5))
            .sum()
    })
}

/// Activation levels back to the float feature map they stand for.
#[inline]
fn from_levels(levels: &Tensor<u8>, step: f32) -> Tensor<f32> {
    levels.map(|l| l as f32 * step)
}

impl FabricBackend {
    /// Creates the backend for an offload segment.
    pub fn new(segment: OffloadSegment, engine_config: EngineConfig, act_step: f32) -> Self {
        Self {
            segment,
            engine_config,
            act_step,
            accel: None,
        }
    }

    /// The built accelerator (after `load_weights`).
    pub fn accelerator(&self) -> Option<&QnnAccelerator> {
        self.accel.as_ref()
    }

    /// The uniform hidden activation step.
    pub fn act_step(&self) -> f32 {
        self.act_step
    }

    fn loaded(&self) -> Result<&QnnAccelerator, NnError> {
        self.accel.as_ref().ok_or(NnError::InvalidSpec {
            what: "fabric backend used before load_weights".to_owned(),
        })
    }

    /// Runs the offline FINN flow one layer at a time: `next` supplies a
    /// layer's float parameters (given its conv and input channel count),
    /// which are binarized, folded with BN and activation quantization
    /// into thresholds, and dropped before the next layer's arrive. The
    /// accelerator is assembled from the folded layers.
    fn build(
        &self,
        mut next: impl FnMut(&ConvSpec, usize) -> Result<FloatParams, NnError>,
    ) -> Result<QnnAccelerator, NnError> {
        let mut layers = Vec::with_capacity(self.segment.layers().len());
        for layer in self.segment.layers() {
            let (conv, in_shape) = (&layer.conv, layer.in_shape);
            let params = next(conv, in_shape.channels)?;
            let cols = conv.geom().dot_length(in_shape.channels);
            // Per-layer mean-absolute weight scale α: folded into the
            // thresholds so the fabric operates on pure ±1 weights.
            let n = params.weights.len().max(1);
            let alpha = params.weights.iter().map(|w| w.abs()).sum::<f32>() / n as f32;
            let signs = binarize(&params.weights);
            let weights =
                BitTensor::from_signs(conv.filters, cols, &signs).map_err(NnError::Tensor)?;
            // One accumulator unit is worth α·q_in real units.
            let acc_scale = alpha * self.act_step;
            // The levels the conv declares: 8 for A3, 2 (one threshold) for A1.
            let levels = layer.levels();
            let mut channel_thresholds = Vec::with_capacity(conv.filters);
            for c in 0..conv.filters {
                let (a, b) = if conv.batch_normalize {
                    let inv_std = 1.0 / (params.var[c] + 1e-5).sqrt();
                    (
                        params.gamma[c] * inv_std * acc_scale,
                        params.gamma[c] * (params.bias[c] - params.mean[c]) * inv_std,
                    )
                } else {
                    (acc_scale, params.bias[c])
                };
                channel_thresholds.push(ThresholdSet::from_affine(a, b, self.act_step, levels)?);
            }
            layers.push(QnnLayerParams::new(
                in_shape,
                weights,
                ThresholdsForLayer::new(channel_thresholds)?,
                conv.geom(),
                layer.pool.map(|p| p.geom()),
            )?);
        }
        QnnAccelerator::new(layers, self.engine_config)
    }
}

impl OffloadBackend for FabricBackend {
    fn library_name(&self) -> &str {
        FABRIC_LIBRARY
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    /// Checks the section's shapes against the segment's; what the
    /// segment holds, [`OffloadSegment::of`] has already admitted.
    fn init(&mut self, config: &OffloadConfig) -> Result<(), NnError> {
        let layers = self.segment.layers();
        let (Some(first), Some(last)) = (layers.first(), layers.last()) else {
            return Err(NnError::InvalidSpec {
                what: "fabric backend has no hidden layers".to_owned(),
            });
        };
        for (expected, actual) in [
            (first.in_shape, config.input_shape),
            (config.output_shape, last.out_shape()),
        ] {
            if expected != actual {
                return Err(NnError::ShapeMismatch {
                    expected: expected.to_string(),
                    actual: actual.to_string(),
                });
            }
        }
        // Make the backend runnable immediately (Darknet layers are usable
        // with their init-time parameters); load_weights overrides.
        if self.accel.is_none() {
            // Small xorshift generator — keeps finn free of a rand
            // dependency — seeded by the input volume.
            let mut state: u64 = 0x9E37_79B9_7F4A_7C15 ^ (config.input_shape.volume() as u64);
            let mut next = move || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                // Uniform in [0, 1).
                (state >> 11) as f32 / (1u64 << 53) as f32
            };
            let accel = self
                .build(|conv, in_channels| Ok(FloatParams::draw(conv, in_channels, &mut next)))?;
            self.accel = Some(accel);
        }
        Ok(())
    }

    /// Folds the stream's layers into a new accelerator. A failed load
    /// leaves the previous accelerator serving.
    fn load_weights(&mut self, reader: &mut WeightsReader<'_>) -> Result<(), NnError> {
        if self.accel.is_none() {
            return Err(NnError::InvalidSpec {
                what: "load_weights before init".to_owned(),
            });
        }
        let accel = self.build(|conv, in_channels| FloatParams::read(reader, conv, in_channels))?;
        self.accel = Some(accel);
        Ok(())
    }

    fn forward(&self, input: &Tensor<f32>) -> Result<Tensor<f32>, NnError> {
        let step = self.act_step;
        let (levels, _) = self.loaded()?.run(&to_levels(input, step))?;
        Ok(from_levels(&levels, step))
    }

    /// CPU fallback: the golden software reference, which the hardware path
    /// matches **bit exactly** — so frames completed in degraded mode are
    /// byte-identical to fault-free frames.
    fn forward_reference(&self, input: &Tensor<f32>) -> Result<Tensor<f32>, NnError> {
        let step = self.act_step;
        let levels = self.loaded()?.reference_run(&to_levels(input, step))?;
        Ok(from_levels(&levels, step))
    }

    /// Batched offload: one accelerator invocation for the whole
    /// micro-batch, streaming each layer's weights in once — the
    /// amortization the serving layer's batch former exists to exploit —
    /// and drawing one fault from `device`'s injector.
    fn forward_batch(
        &self,
        inputs: &[Tensor<f32>],
        device: &Device,
    ) -> Result<Vec<Tensor<f32>>, NnError> {
        let step = self.act_step;
        let accel = self.loaded()?;
        let quantized: Vec<_> = inputs.iter().map(|i| to_levels(i, step)).collect();
        let (levels, _) = accel.run_batch(&quantized, device.faults())?;
        Ok(levels.iter().map(|t| from_levels(t, step)).collect())
    }

    fn num_params(&self) -> usize {
        self.segment
            .layers()
            .iter()
            .map(|l| l.conv.num_params(l.in_shape.channels))
            .sum()
    }

    fn ops_per_frame(&self) -> u64 {
        self.accel.as_ref().map_or(0, QnnAccelerator::total_ops)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tincy_nn::{Activation, LayerSpec, NetworkSpec, PoolSpec, WeightsWriter};
    use tincy_quant::PrecisionConfig;
    use tincy_tensor::Shape3;

    /// conv 4→8 + 2×2 pool, conv 8→6, over a 4×8×8 input.
    fn hidden_segment() -> OffloadSegment {
        let conv = |filters: usize| {
            LayerSpec::Conv(ConvSpec {
                filters,
                size: 3,
                stride: 1,
                pad: 1,
                activation: Activation::Relu,
                batch_normalize: true,
                precision: PrecisionConfig::W1A3,
            })
        };
        let spec = NetworkSpec::new(Shape3::new(4, 8, 8))
            .with(conv(8))
            .with(LayerSpec::MaxPool(PoolSpec { size: 2, stride: 2 }))
            .with(conv(6));
        OffloadSegment::of(&spec).unwrap()
    }

    fn config(input: Shape3, output: Shape3) -> OffloadConfig {
        OffloadConfig {
            library: FABRIC_LIBRARY.to_owned(),
            network: "hidden.cfg".to_owned(),
            weights: "hidden.weights".to_owned(),
            input_shape: input,
            output_shape: output,
        }
    }

    fn initialized() -> FabricBackend {
        let mut backend = FabricBackend::new(hidden_segment(), EngineConfig::default(), 0.125);
        backend
            .init(&config(Shape3::new(4, 8, 8), Shape3::new(6, 4, 4)))
            .unwrap();
        backend
    }

    /// A weight stream in the backend's layout — per layer bias, gamma,
    /// mean, var, weights — of deterministic pseudo-random values, one
    /// stream per `salt`. Variances are positive by construction.
    fn weight_stream(salt: u64) -> Vec<u8> {
        let mut state = 0x2545_F491_4F6C_DD1D ^ salt;
        let mut values = |n: usize, low: f32| -> Vec<f32> {
            (0..n)
                .map(|_| {
                    state = state
                        .wrapping_mul(6_364_136_223_846_793_005)
                        .wrapping_add(1_442_695_040_888_963_407);
                    low + (state >> 40) as f32 / (1u64 << 24) as f32
                })
                .collect()
        };
        let mut buf = Vec::new();
        let mut writer = WeightsWriter::new(&mut buf);
        let mut in_channels = 4;
        for layer in hidden_segment().layers() {
            let conv = &layer.conv;
            let f = conv.filters;
            let weights = f * conv.size * conv.size * in_channels;
            for slice in [
                values(f, -0.5),
                values(f, 0.5),
                values(f, -0.5),
                values(f, 0.5),
                values(weights, -0.5),
            ] {
                writer.write_f32s(&slice).unwrap();
            }
            in_channels = f;
        }
        buf
    }

    fn load(backend: &mut FabricBackend, mut stream: &[u8]) -> Result<(), NnError> {
        backend.load_weights(&mut WeightsReader::new(&mut stream))
    }

    fn loaded_backend_with(salt: u64) -> FabricBackend {
        let mut backend = initialized();
        load(&mut backend, &weight_stream(salt)).unwrap();
        backend
    }

    fn loaded_backend() -> FabricBackend {
        loaded_backend_with(0)
    }

    #[test]
    fn init_validates_geometry() {
        let mut backend = FabricBackend::new(hidden_segment(), EngineConfig::default(), 0.125);
        assert!(backend
            .init(&config(Shape3::new(4, 8, 8), Shape3::new(6, 4, 4)))
            .is_ok());
        assert!(backend
            .init(&config(Shape3::new(4, 8, 8), Shape3::new(5, 4, 4)))
            .is_err());
        assert!(backend
            .init(&config(Shape3::new(4, 16, 16), Shape3::new(6, 4, 4)))
            .is_err());
        let mut empty = FabricBackend::new(OffloadSegment::default(), EngineConfig::default(), 0.1);
        assert!(empty
            .init(&config(Shape3::new(4, 8, 8), Shape3::new(6, 4, 4)))
            .is_err());
    }

    #[test]
    fn forward_before_init_fails_but_init_alone_suffices() {
        let mut backend = FabricBackend::new(hidden_segment(), EngineConfig::default(), 0.125);
        let input = Tensor::filled(Shape3::new(4, 8, 8), 0.5f32);
        // No init: unusable.
        assert!(backend.forward(&input).is_err());
        // After init the backend self-initializes deterministic parameters
        // (like Darknet's layer init) and is runnable.
        backend
            .init(&config(Shape3::new(4, 8, 8), Shape3::new(6, 4, 4)))
            .unwrap();
        let out = backend.forward(&input).unwrap();
        assert_eq!(out.shape(), Shape3::new(6, 4, 4));
        // Deterministic: a second identical backend agrees.
        let mut other = FabricBackend::new(hidden_segment(), EngineConfig::default(), 0.125);
        other
            .init(&config(Shape3::new(4, 8, 8), Shape3::new(6, 4, 4)))
            .unwrap();
        assert_eq!(other.forward(&input).unwrap(), out);
    }

    #[test]
    fn to_levels_rounds_half_away_from_zero_and_clamps() {
        let mut values: Vec<f32> = (-40..=80).map(|i| i as f32 * 0.0625).collect();
        for k in 0..8 {
            let half = k as f32 + 0.5;
            values.extend([half, half.next_down(), half.next_up()]);
        }
        values.extend([-0.0, f32::NAN, f32::INFINITY, f32::NEG_INFINITY, f32::MAX]);
        let input = Tensor::from_vec(Shape3::new(1, 1, values.len()), values.clone()).unwrap();
        for step in [0.125, 0.3, 1.0] {
            let levels = to_levels(&input, step);
            for (&v, &level) in values.iter().zip(levels.as_slice()) {
                let expected = (v / step).round().clamp(0.0, 7.0) as u8;
                assert_eq!(level, expected, "{v} at step {step}");
            }
        }
    }

    #[test]
    fn forward_produces_quantized_levels_and_report() {
        let backend = loaded_backend();
        let input = Tensor::from_fn(Shape3::new(4, 8, 8), |c, y, x| {
            ((c + y + x) % 8) as f32 * 0.125
        });
        let out = backend.forward(&input).unwrap();
        assert_eq!(out.shape(), Shape3::new(6, 4, 4));
        // Outputs are multiples of the activation step.
        for &v in out.as_slice() {
            let level = v / 0.125;
            assert!((level - level.round()).abs() < 1e-5);
            assert!((0.0..=7.0).contains(&level));
        }
        let accel = backend.accelerator().expect("accelerator built");
        let (_, report) = accel.run(&to_levels(&input, 0.125)).unwrap();
        assert_eq!(report.layer_cycles.len(), 2);
        assert!(backend.ops_per_frame() > 0);
    }

    #[test]
    fn reference_forward_matches_hardware_forward() {
        let backend = loaded_backend();
        let input = Tensor::from_fn(Shape3::new(4, 8, 8), |c, y, x| {
            ((c + 2 * y + x) % 8) as f32 * 0.125
        });
        let hw = backend.forward(&input).unwrap();
        let sw = backend.forward_reference(&input).unwrap();
        assert_eq!(hw, sw, "fallback path must be bit-exact with the fabric");
    }

    #[test]
    fn device_fault_stream_survives_weight_reload() {
        use tincy_nn::{FaultPlan, RetryPolicy};
        let mut backend = loaded_backend();
        let device = Device::new(FaultPlan::outage(0, 1), RetryPolicy::default());
        let inputs = [Tensor::filled(Shape3::new(4, 8, 8), 0.25f32)];
        assert!(
            backend.forward_batch(&inputs, &device).is_err(),
            "invocation 0 is inside the outage"
        );

        // Reload weights (rebuilds the accelerator) — the device keeps its
        // position, so invocation 1 is past the outage and succeeds.
        load(&mut backend, &weight_stream(1)).unwrap();
        assert!(backend.forward_batch(&inputs, &device).is_ok());
        let stats = device.faults().unwrap().stats();
        assert_eq!((stats.invocations, stats.faults), (2, 1));

        // A fault-free device on the same backend draws nothing.
        let clean = Device::default();
        assert!(backend.forward_batch(&inputs, &clean).is_ok());
        assert!(clean.faults().is_none());
    }

    #[test]
    fn batched_forward_matches_singles_and_reports_batch() {
        let backend = loaded_backend();
        let inputs: Vec<Tensor<f32>> = (0..3)
            .map(|k| {
                Tensor::from_fn(Shape3::new(4, 8, 8), move |c, y, x| {
                    ((c + y + k * x) % 8) as f32 * 0.125
                })
            })
            .collect();
        let singles: Vec<Tensor<f32>> =
            inputs.iter().map(|i| backend.forward(i).unwrap()).collect();
        let batched = backend.forward_batch(&inputs, &Device::default()).unwrap();
        assert_eq!(batched, singles, "micro-batching never changes results");
        let accel = backend.accelerator().expect("accelerator built");
        let levels: Vec<_> = inputs.iter().map(|i| to_levels(i, 0.125)).collect();
        let (_, report) = accel.run_batch(&levels, None).unwrap();
        assert_eq!(report.batch, 3);
    }

    #[test]
    fn weight_stream_round_trip() {
        let input = Tensor::from_fn(Shape3::new(4, 8, 8), |c, y, x| {
            ((c * 2 + y + x) % 8) as f32 * 0.125
        });
        let stream = weight_stream(0);
        let mut fresh = initialized();
        let defaults = fresh.forward(&input).unwrap();
        let mut bytes = stream.as_slice();
        let mut reader = WeightsReader::new(&mut bytes);
        fresh.load_weights(&mut reader).unwrap();
        assert_eq!(reader.read_count(), fresh.num_params());
        assert!(bytes.is_empty(), "the layout consumes the whole stream");
        let out = fresh.forward(&input).unwrap();
        assert_ne!(out, defaults, "the stream replaces the init-time draw");

        // The same stream over other loaded weights: identical inference.
        let mut reloaded = loaded_backend_with(1);
        assert_ne!(reloaded.forward(&input).unwrap(), out);
        load(&mut reloaded, &stream).unwrap();
        assert_eq!(reloaded.forward(&input).unwrap(), out);
    }

    #[test]
    fn a_failed_load_leaves_the_previous_accelerator_serving() {
        let mut backend = loaded_backend();
        let input = Tensor::from_fn(Shape3::new(4, 8, 8), |c, y, x| {
            ((3 * c + y + 2 * x) % 8) as f32 * 0.125
        });
        let hw = backend.forward(&input).unwrap();
        let sw = backend.forward_reference(&input).unwrap();
        // Another stream, cut short in its last layer's weights: the
        // first layer folds before the read fails.
        assert_ne!(loaded_backend_with(1).forward(&input).unwrap(), hw);
        let mut cut = weight_stream(1);
        cut.truncate(cut.len() - 4);
        assert!(matches!(load(&mut backend, &cut), Err(NnError::Io(_))));
        assert_eq!(backend.forward(&input).unwrap(), hw);
        assert_eq!(backend.forward_reference(&input).unwrap(), sw);
    }
}
