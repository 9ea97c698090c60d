//! The convolutional layer with every compute path of §III-D.

use crate::activation::Activation;
use crate::batchnorm::BatchNorm;
use crate::error::NnError;
use crate::layer::Layer;
use crate::spec::ConvSpec;
use crate::weights::{WeightsReader, WeightsWriter};
use rand::rngs::StdRng;
use rand::Rng;
use tincy_quant::{binarize, AffineQuant, PrecisionConfig, WeightPrecision};
use tincy_simd::{convolve, fused_conv_lowp, ConvAlgo, FirstLayerKernel};
use tincy_tensor::{ConvGeom, Mat, Shape3, Tensor};

/// Which implementation a [`ConvLayer`] uses for its dot products.
///
/// The paper's first-layer optimization ladder maps onto these variants:
/// generic im2col+GEMM → gemmlowp (2.2×) → fused float (2.1×) → custom
/// 16×27 kernel (3.8×, then 8-bit variants at 140/120 ms).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConvCompute {
    /// Float path with a selectable algorithm.
    Float(ConvAlgo),
    /// Binary-weight float path: weights are binarized to `±α` (per-layer
    /// mean-absolute scale) — the CPU reference for `W1` layers.
    BinaryRef,
    /// Quantized path: 8-bit activations/weights, fused low-precision GEMM.
    Lowp {
        /// im2col slice width (vector lanes).
        slice_width: usize,
    },
    /// Custom 16×27 first-layer kernel, float accumulation.
    FirstLayerF32,
    /// Custom 16×27 first-layer kernel, 8-bit data, 32-bit accumulators.
    FirstLayerI32,
    /// Custom 16×27 first-layer kernel, 8-bit data, 16-bit accumulators
    /// with `vrshr #4` pre-shift.
    FirstLayerI16,
}

impl ConvCompute {
    /// The default compute path for a precision configuration.
    pub fn for_precision(precision: PrecisionConfig) -> Self {
        match precision.weights {
            WeightPrecision::W1 | WeightPrecision::W2 => ConvCompute::BinaryRef,
            WeightPrecision::W8 => ConvCompute::Lowp { slice_width: 8 },
            WeightPrecision::Float => ConvCompute::Float(ConvAlgo::Im2colGemm),
        }
    }
}

/// A convolutional layer (optionally batch-normalized and activated).
#[derive(Debug)]
pub struct ConvLayer {
    in_shape: Shape3,
    out_shape: Shape3,
    geom: ConvGeom,
    filters: usize,
    activation: Activation,
    weights: Mat<f32>,
    bias: Vec<f32>,
    batchnorm: Option<BatchNorm>,
    compute: ConvCompute,
    /// Cached symmetric 8-bit weights for the lowp path.
    lowp_cache: Option<(Mat<i8>, f32)>,
    /// Cached binarized (±α) weights for the binary reference path.
    binary_cache: Option<Mat<f32>>,
    /// Cached specialized kernel for the first-layer paths.
    kernel_cache: Option<FirstLayerKernel>,
}

impl ConvLayer {
    /// Creates a layer with He-initialized random weights.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidSpec`] if the geometry does not fit the
    /// input.
    pub fn new(in_shape: Shape3, spec: &ConvSpec, rng: &mut StdRng) -> Result<Self, NnError> {
        let geom = spec.geom();
        geom.validate(in_shape).map_err(|e| NnError::InvalidSpec {
            what: e.to_string(),
        })?;
        let fan_in = geom.dot_length(in_shape.channels);
        let std = (2.0 / fan_in as f32).sqrt();
        let weights = Mat::from_fn(spec.filters, fan_in, |_, _| {
            rng.gen_range(-1.0f32..1.0) * std
        });
        let bias = vec![0.0; spec.filters];
        let batchnorm = spec
            .batch_normalize
            .then(|| BatchNorm::identity(spec.filters));
        Ok(Self {
            in_shape,
            out_shape: geom.output_shape(in_shape, spec.filters),
            geom,
            filters: spec.filters,
            activation: spec.activation,
            weights,
            bias,
            batchnorm,
            compute: ConvCompute::for_precision(spec.precision),
            lowp_cache: None,
            binary_cache: None,
            kernel_cache: None,
        })
    }

    /// Selects the compute path (resets derived caches).
    pub fn set_compute(&mut self, compute: ConvCompute) {
        self.compute = compute;
        self.invalidate_caches();
    }

    /// The active compute path.
    pub fn compute(&self) -> ConvCompute {
        self.compute
    }

    /// The convolution geometry.
    pub fn geom(&self) -> ConvGeom {
        self.geom
    }

    /// The activation function.
    pub fn activation(&self) -> Activation {
        self.activation
    }

    /// Immutable weight matrix (`filters × K²·C`).
    pub fn weights(&self) -> &Mat<f32> {
        &self.weights
    }

    /// Immutable bias vector.
    pub fn bias(&self) -> &[f32] {
        &self.bias
    }

    /// The batch normalization parameters, if present.
    pub fn batchnorm(&self) -> Option<&BatchNorm> {
        self.batchnorm.as_ref()
    }

    /// Replaces weights and bias (e.g. after a training step).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidSpec`] on dimension mismatch.
    pub fn set_parameters(&mut self, weights: Mat<f32>, bias: Vec<f32>) -> Result<(), NnError> {
        if weights.rows() != self.weights.rows()
            || weights.cols() != self.weights.cols()
            || bias.len() != self.bias.len()
        {
            return Err(NnError::InvalidSpec {
                what: "parameter dimensions do not match layer".to_owned(),
            });
        }
        self.weights = weights;
        self.bias = bias;
        self.invalidate_caches();
        Ok(())
    }

    /// Replaces the batch normalization parameters.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidSpec`] if the layer has no batch norm or
    /// the channel count differs.
    pub fn set_batchnorm(&mut self, bn: BatchNorm) -> Result<(), NnError> {
        match &self.batchnorm {
            Some(old) if old.channels() == bn.channels() => {
                self.batchnorm = Some(bn);
                Ok(())
            }
            _ => Err(NnError::InvalidSpec {
                what: "layer has no batch normalization of matching width".to_owned(),
            }),
        }
    }

    /// Folds batch normalization into the weights and bias, removing the
    /// separate normalization step while preserving the layer function.
    pub fn fold_batchnorm(&mut self) {
        if let Some(bn) = self.batchnorm.take() {
            let per_channel = self.weights.cols();
            bn.fold_into(self.weights.as_mut_slice(), &mut self.bias, per_channel);
            self.invalidate_caches();
        }
    }

    fn invalidate_caches(&mut self) {
        self.lowp_cache = None;
        self.binary_cache = None;
        self.kernel_cache = None;
    }

    // The three derived-weight caches are filled on first use and handed out
    // as borrows. Each helper takes the fields it needs rather than `self`,
    // so `convolve_raw` can hold the borrow next to `self.bias`.

    fn lowp_weights<'a>(
        cache: &'a mut Option<(Mat<i8>, f32)>,
        weights: &Mat<f32>,
    ) -> &'a (Mat<i8>, f32) {
        cache.get_or_insert_with(|| {
            let max_abs = weights
                .as_slice()
                .iter()
                .fold(0.0f32, |m, &w| m.max(w.abs()))
                .max(f32::MIN_POSITIVE);
            let scale = max_abs / 127.0;
            let q = weights.map(|w| (w / scale).round().clamp(-127.0, 127.0) as i8);
            (q, scale)
        })
    }

    fn binary_weights<'a>(cache: &'a mut Option<Mat<f32>>, weights: &Mat<f32>) -> &'a Mat<f32> {
        cache.get_or_insert_with(|| {
            // Per-layer mean-absolute scale α (XNOR-Net style).
            let n = weights.as_slice().len().max(1);
            let alpha = weights.as_slice().iter().map(|w| w.abs()).sum::<f32>() / n as f32;
            let signs = binarize(weights.as_slice());
            Mat::from_vec(
                weights.rows(),
                weights.cols(),
                signs.iter().map(|&s| alpha * s as f32).collect(),
            )
            .expect("same dimensions as source weights")
        })
    }

    fn first_layer_kernel<'a>(
        cache: &'a mut Option<FirstLayerKernel>,
        weights: &Mat<f32>,
        bias: &[f32],
    ) -> Result<&'a FirstLayerKernel, NnError> {
        if cache.is_none() {
            *cache = Some(FirstLayerKernel::new(weights, bias)?);
        }
        Ok(cache.as_ref().expect("cache populated above"))
    }

    /// Raw (pre-batchnorm, pre-activation) convolution output.
    fn convolve_raw(&mut self, input: &Tensor<f32>) -> Result<Tensor<f32>, NnError> {
        match self.compute {
            ConvCompute::Float(algo) => {
                Ok(convolve(algo, input, &self.weights, &self.bias, self.geom)?)
            }
            ConvCompute::BinaryRef => {
                let bw = Self::binary_weights(&mut self.binary_cache, &self.weights);
                Ok(convolve(
                    ConvAlgo::Im2colGemm,
                    input,
                    bw,
                    &self.bias,
                    self.geom,
                )?)
            }
            ConvCompute::Lowp { slice_width } => {
                let (wq, w_scale) = Self::lowp_weights(&mut self.lowp_cache, &self.weights);
                let q = AffineQuant::fit_data(input.as_slice())?;
                let input_q = input.map(|v| q.quantize(v));
                let acc = fused_conv_lowp(&input_q, wq, q.zero_point(), self.geom, slice_width)?;
                let spatial = self.out_shape.spatial();
                let scale = w_scale * q.scale();
                let mut out = acc.map(|v| v as f32 * scale);
                for (i, v) in out.as_mut_slice().iter_mut().enumerate() {
                    *v += self.bias[i / spatial];
                }
                Ok(out)
            }
            ConvCompute::FirstLayerF32 => {
                let kernel =
                    Self::first_layer_kernel(&mut self.kernel_cache, &self.weights, &self.bias)?;
                Ok(kernel.forward_f32(input, self.geom)?)
            }
            ConvCompute::FirstLayerI32 | ConvCompute::FirstLayerI16 => {
                let kernel =
                    Self::first_layer_kernel(&mut self.kernel_cache, &self.weights, &self.bias)?;
                let q = AffineQuant::fit_data(input.as_slice())?;
                let input_q = input.map(|v| q.quantize(v));
                if matches!(self.compute, ConvCompute::FirstLayerI32) {
                    let acc = kernel.accumulate_i32(&input_q, q.zero_point(), self.geom)?;
                    Ok(kernel.dequantize_i32(&acc, q.scale()))
                } else {
                    let acc = kernel.accumulate_i16(&input_q, q.zero_point(), self.geom)?;
                    Ok(kernel.dequantize_i16(&acc, q.scale()))
                }
            }
        }
    }
}

impl Layer for ConvLayer {
    fn kind(&self) -> &'static str {
        "conv"
    }

    fn input_shape(&self) -> Shape3 {
        self.in_shape
    }

    fn output_shape(&self) -> Shape3 {
        self.out_shape
    }

    fn forward(&mut self, input: &Tensor<f32>) -> Result<Tensor<f32>, NnError> {
        self.check_input(input)?;
        let mut out = self.convolve_raw(input)?;
        if let Some(bn) = &self.batchnorm {
            bn.apply(&mut out);
        }
        self.activation.apply_slice(out.as_mut_slice());
        Ok(out)
    }

    fn load_weights(&mut self, reader: &mut WeightsReader<'_>) -> Result<(), NnError> {
        // Darknet order: bias, [gamma, mean, var], weights.
        self.bias = reader.read_f32s(self.filters)?;
        if let Some(bn) = &mut self.batchnorm {
            bn.gamma = reader.read_f32s(self.filters)?;
            bn.mean = reader.read_f32s(self.filters)?;
            bn.var = reader.read_f32s(self.filters)?;
        }
        let flat = reader.read_f32s(self.weights.rows() * self.weights.cols())?;
        self.weights = Mat::from_vec(self.weights.rows(), self.weights.cols(), flat)
            .expect("length checked by read_f32s");
        self.invalidate_caches();
        Ok(())
    }

    fn write_weights(&self, writer: &mut WeightsWriter<'_>) -> Result<(), NnError> {
        writer.write_f32s(&self.bias)?;
        if let Some(bn) = &self.batchnorm {
            writer.write_f32s(&bn.gamma)?;
            writer.write_f32s(&bn.mean)?;
            writer.write_f32s(&bn.var)?;
        }
        writer.write_f32s(self.weights.as_slice())?;
        Ok(())
    }

    fn num_params(&self) -> usize {
        self.weights.as_slice().len()
            + self.bias.len()
            + self.batchnorm.as_ref().map_or(0, |bn| 3 * bn.channels())
    }

    fn ops_per_frame(&self) -> u64 {
        2 * self.weights.cols() as u64 * self.out_shape.spatial() as u64 * self.filters as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn spec(filters: usize, size: usize, stride: usize, precision: PrecisionConfig) -> ConvSpec {
        ConvSpec {
            filters,
            size,
            stride,
            pad: size / 2,
            activation: Activation::Relu,
            batch_normalize: true,
            precision,
        }
    }

    fn input(rng: &mut StdRng, shape: Shape3) -> Tensor<f32> {
        Tensor::from_fn(shape, |_, _, _| rng.gen_range(0.0..1.0))
    }

    #[test]
    fn float_forward_shape_and_relu() {
        let mut rng = StdRng::seed_from_u64(1);
        let shape = Shape3::new(3, 8, 8);
        let mut layer =
            ConvLayer::new(shape, &spec(16, 3, 2, PrecisionConfig::FLOAT), &mut rng).unwrap();
        let out = layer.forward(&input(&mut rng, shape)).unwrap();
        assert_eq!(out.shape(), Shape3::new(16, 4, 4));
        assert!(
            out.as_slice().iter().all(|&v| v >= 0.0),
            "relu output must be nonnegative"
        );
    }

    #[test]
    fn all_first_layer_paths_agree_with_generic() {
        let mut rng = StdRng::seed_from_u64(2);
        let shape = Shape3::new(3, 10, 10);
        let mut layer =
            ConvLayer::new(shape, &spec(16, 3, 2, PrecisionConfig::FLOAT), &mut rng).unwrap();
        let x = input(&mut rng, shape);
        let reference = layer.forward(&x).unwrap();
        for (compute, tol) in [
            (
                ConvCompute::Float(ConvAlgo::FusedF32 { slice_width: 4 }),
                1e-4,
            ),
            (ConvCompute::FirstLayerF32, 1e-4),
            (ConvCompute::Lowp { slice_width: 8 }, 0.1),
            (ConvCompute::FirstLayerI32, 0.1),
            (ConvCompute::FirstLayerI16, 0.5),
        ] {
            layer.set_compute(compute);
            let out = layer.forward(&x).unwrap();
            let diff = out.max_abs_diff(&reference);
            assert!(diff < tol, "compute {compute:?}: diff {diff} exceeds {tol}");
        }
    }

    #[test]
    fn binary_ref_uses_sign_times_alpha() {
        let mut rng = StdRng::seed_from_u64(3);
        let shape = Shape3::new(1, 1, 1);
        let mut layer = ConvLayer::new(
            shape,
            &ConvSpec {
                filters: 1,
                size: 1,
                stride: 1,
                pad: 0,
                activation: Activation::Linear,
                batch_normalize: false,
                precision: PrecisionConfig::W1A3,
            },
            &mut rng,
        )
        .unwrap();
        layer
            .set_parameters(Mat::from_vec(1, 1, vec![-0.4]).unwrap(), vec![0.0])
            .unwrap();
        let out = layer.forward(&Tensor::filled(shape, 1.0f32)).unwrap();
        // alpha = 0.4, sign = -1 => output = -0.4.
        assert!((out.at(0, 0, 0) + 0.4).abs() < 1e-6);
    }

    #[test]
    fn weights_round_trip_through_stream() {
        let mut rng = StdRng::seed_from_u64(4);
        let shape = Shape3::new(3, 6, 6);
        let mut layer =
            ConvLayer::new(shape, &spec(4, 3, 1, PrecisionConfig::FLOAT), &mut rng).unwrap();
        let x = input(&mut rng, shape);
        let before = layer.forward(&x).unwrap();

        let mut buf = Vec::new();
        layer
            .write_weights(&mut WeightsWriter::new(&mut buf))
            .unwrap();
        assert_eq!(buf.len(), layer.num_params() * 4);

        let mut other =
            ConvLayer::new(shape, &spec(4, 3, 1, PrecisionConfig::FLOAT), &mut rng).unwrap();
        let mut cursor = std::io::Cursor::new(buf);
        other
            .load_weights(&mut WeightsReader::new(&mut cursor))
            .unwrap();
        let after = other.forward(&x).unwrap();
        assert!(before.max_abs_diff(&after) < 1e-6);
    }

    #[test]
    fn batchnorm_folding_preserves_output() {
        let mut rng = StdRng::seed_from_u64(5);
        let shape = Shape3::new(3, 5, 5);
        let mut layer =
            ConvLayer::new(shape, &spec(4, 3, 1, PrecisionConfig::FLOAT), &mut rng).unwrap();
        // Non-trivial BN parameters.
        layer
            .set_batchnorm(BatchNorm {
                gamma: vec![1.3, 0.7, 2.0, 0.5],
                beta: vec![0.1, -0.2, 0.0, 0.4],
                mean: vec![0.5, -0.5, 0.2, 0.0],
                var: vec![1.5, 0.8, 2.2, 1.0],
                eps: 1e-5,
            })
            .unwrap();
        let x = input(&mut rng, shape);
        let before = layer.forward(&x).unwrap();
        layer.fold_batchnorm();
        assert!(layer.batchnorm().is_none());
        let after = layer.forward(&x).unwrap();
        assert!(before.max_abs_diff(&after) < 1e-4);
    }

    #[test]
    fn ops_match_paper_formula() {
        let mut rng = StdRng::seed_from_u64(6);
        let layer = ConvLayer::new(
            Shape3::new(3, 416, 416),
            &spec(16, 3, 1, PrecisionConfig::FLOAT),
            &mut rng,
        )
        .unwrap();
        assert_eq!(layer.ops_per_frame(), 149_520_384); // Table I row 1
    }

    #[test]
    fn set_parameters_validates_dimensions() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut layer = ConvLayer::new(
            Shape3::new(3, 4, 4),
            &spec(2, 3, 1, PrecisionConfig::FLOAT),
            &mut rng,
        )
        .unwrap();
        assert!(layer
            .set_parameters(Mat::zeros(2, 5), vec![0.0; 2])
            .is_err());
        assert!(layer
            .set_parameters(Mat::zeros(2, 27), vec![0.0; 2])
            .is_ok());
    }
}
