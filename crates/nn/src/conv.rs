//! The convolutional layer, host side.
//!
//! A layer computes its dot products one way, fixed when it is built from
//! what it can observe — its weight precision and its shape:
//!
//! * float weights: the generic im2col + GEMM of §III-D (the paper's 1.0×);
//! * `W1`/`W2` weights: the same GEMM on `±α` binarized weights, the CPU
//!   reference of the layers the fabric runs;
//! * `W8` weights (the quantization-sensitive input and output layers,
//!   §III-A): the integer path. The input is quantized once with an affine
//!   quantizer fitted to its own range, the dot products accumulate
//!   *exactly* in `i32` — in the unrolled 16×27 kernel of §III-D when the
//!   layer is the 3×3×3 → 16 first layer, in the gemmlowp-style GEMM for
//!   every other shape — and scale, bias, batch norm and activation are one
//!   pass over the accumulators. Both kernels quantize the weights
//!   symmetrically at `max|w| / 127`, so which one serves a shape never
//!   shows in the output bits.

use crate::activation::Activation;
use crate::batchnorm::BatchNorm;
use crate::error::NnError;
use crate::layer::Layer;
use crate::spec::ConvSpec;
use crate::weights::WeightsReader;
use rand::rngs::StdRng;
use rand::Rng;
use tincy_quant::{binarize, AffineQuant, WeightPrecision};
use tincy_simd::conv::conv_lowp_im2col;
use tincy_simd::kernel16x27::OUT_CHANNELS;
use tincy_simd::{conv_im2col_gemm, FirstLayerKernel, Isa, IsaKernel};
use tincy_tensor::{ConvGeom, Mat, Shape3, Tensor};

/// Which implementation a [`ConvLayer`] uses for its dot products, with
/// the weights that implementation derives from the layer's parameters.
/// It is built whenever the parameters are set, so a forward only reads.
#[derive(Debug)]
enum ConvCompute {
    /// Float weights, generic im2col + GEMM.
    Float,
    /// Binary-weight float path: weights are binarized to `±α` (per-layer
    /// mean-absolute scale) — the CPU reference for `W1` layers.
    BinaryRef(Mat<f32>),
    /// 8-bit weights and activations in the custom 16×27 first-layer
    /// kernel with 32-bit accumulators.
    FirstLayerI32(Box<FirstLayerKernel>),
    /// 8-bit weights and activations in the low-precision GEMM: the
    /// symmetric 8-bit weights and their scale.
    GemmLowp(Mat<i8>, f32),
}

impl ConvCompute {
    /// The compute path of a layer of this shape and precision, derived
    /// from the layer's parameters.
    fn new(
        in_shape: Shape3,
        spec: &ConvSpec,
        weights: &Mat<f32>,
        bias: &[f32],
    ) -> Result<Self, NnError> {
        let first_layer_shape =
            in_shape.channels == 3 && spec.size == 3 && spec.filters == OUT_CHANNELS;
        Ok(match spec.precision.weights {
            WeightPrecision::W1 | WeightPrecision::W2 => Self::binary(weights),
            WeightPrecision::W8 if first_layer_shape => {
                Self::FirstLayerI32(Box::new(FirstLayerKernel::new(weights, bias)?))
            }
            WeightPrecision::W8 => Self::lowp(weights),
            WeightPrecision::Float => Self::Float,
        })
    }

    fn lowp(weights: &Mat<f32>) -> Self {
        let max_abs = weights
            .as_slice()
            .iter()
            .fold(0.0f32, |m, &w| m.max(w.abs()))
            .max(f32::MIN_POSITIVE);
        let scale = max_abs / 127.0;
        let q = weights.map(|w| (w / scale).round().clamp(-127.0, 127.0) as i8);
        Self::GemmLowp(q, scale)
    }

    fn binary(weights: &Mat<f32>) -> Self {
        // Per-layer mean-absolute scale α (XNOR-Net style).
        let n = weights.as_slice().len().max(1);
        let alpha = weights.as_slice().iter().map(|w| w.abs()).sum::<f32>() / n as f32;
        let signs = binarize(weights.as_slice());
        let binarized = Mat::from_vec(
            weights.rows(),
            weights.cols(),
            signs.iter().map(|&s| alpha * s as f32).collect(),
        )
        .expect("same dimensions as source weights");
        Self::BinaryRef(binarized)
    }
}

/// A convolutional layer (optionally batch-normalized and activated).
#[derive(Debug)]
pub struct ConvLayer {
    in_shape: Shape3,
    out_shape: Shape3,
    spec: ConvSpec,
    weights: Mat<f32>,
    bias: Vec<f32>,
    batchnorm: Option<BatchNorm>,
    compute: ConvCompute,
}

impl ConvLayer {
    /// Creates a layer with He-initialized random weights.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidSpec`] if the geometry does not fit the
    /// input, or the derived weights of the layer's compute path cannot
    /// be built.
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
            spec: spec.clone(),
            compute: ConvCompute::new(in_shape, spec, &weights, &bias)?,
            weights,
            bias,
            batchnorm,
        })
    }

    /// The convolution geometry.
    pub fn geom(&self) -> ConvGeom {
        self.spec.geom()
    }

    /// The activation function.
    pub fn activation(&self) -> Activation {
        self.spec.activation
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
        self.compute = ConvCompute::new(self.in_shape, &self.spec, &weights, &bias)?;
        self.weights = weights;
        self.bias = bias;
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

    /// The integer path: one affine quantization of the input, exact
    /// `i32` accumulation, and scale → bias → batch norm → activation
    /// folded into one pass over the accumulators. Each step runs under
    /// [`Isa::detect`].
    fn forward_w8a8(&self, input: &Tensor<f32>) -> Result<Tensor<f32>, NnError> {
        let isa = Isa::detect();
        let (q, input_q) = isa.run(QuantizeInput(input.as_slice()))?;
        let input_q = Tensor::from_vec(input.shape(), input_q)?;
        let geom = self.geom();
        let (acc, w_scale) = match &self.compute {
            ConvCompute::FirstLayerI32(kernel) => (
                kernel.accumulate_i32(&input_q, q.zero_point(), geom)?,
                kernel.weight_scale(),
            ),
            ConvCompute::GemmLowp(wq, w_scale) => (
                conv_lowp_im2col(&input_q, wq, q.zero_point(), geom)?,
                *w_scale,
            ),
            ConvCompute::Float | ConvCompute::BinaryRef(_) => {
                unreachable!("forward dispatches only the 8-bit paths here")
            }
        };
        Ok(isa.run(Epilogue {
            layer: self,
            acc: &acc,
            scale: w_scale * q.scale(),
        }))
    }
}

/// The W8A8 input quantizer: fitted to the map's own range, then applied.
struct QuantizeInput<'a>(&'a [f32]);

impl IsaKernel for QuantizeInput<'_> {
    type Output = Result<(AffineQuant, Vec<u8>), NnError>;

    #[inline(always)]
    fn run(self) -> Self::Output {
        let q = AffineQuant::fit_data(self.0)?;
        Ok((q, q.quantize_slice(self.0)))
    }
}

/// Scale → bias → batch norm → activation over a W8A8 layer's `i32`
/// accumulators, in that order, in `f32`.
struct Epilogue<'a> {
    layer: &'a ConvLayer,
    acc: &'a Tensor<i32>,
    scale: f32,
}

impl IsaKernel for Epilogue<'_> {
    type Output = Tensor<f32>;

    #[inline(always)]
    fn run(self) -> Tensor<f32> {
        let Self { layer, acc, scale } = self;
        let spatial = layer.out_shape.spatial().max(1);
        let mut out = Tensor::zeros(layer.out_shape);
        let channels = out
            .as_mut_slice()
            .chunks_mut(spatial)
            .zip(acc.as_slice().chunks(spatial));
        for (c, (out, acc)) in channels.enumerate() {
            let (bias, activation) = (layer.bias[c], layer.spec.activation);
            // Batch norm as the per-channel affine `BatchNorm::apply` uses.
            let normalize = layer.batchnorm.as_ref().map(|bn| bn.affine(c));
            for (out, &acc) in out.iter_mut().zip(acc) {
                let mut v = acc as f32 * scale;
                v += bias;
                if let Some((bn_scale, bn_shift)) = normalize {
                    v = v * bn_scale + bn_shift;
                }
                *out = activation.apply(v);
            }
        }
        out
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

    fn forward(&self, input: &Tensor<f32>) -> Result<Tensor<f32>, NnError> {
        self.check_input(input)?;
        let weights = match &self.compute {
            ConvCompute::Float => &self.weights,
            ConvCompute::BinaryRef(binarized) => binarized,
            ConvCompute::FirstLayerI32(_) | ConvCompute::GemmLowp(..) => {
                return self.forward_w8a8(input)
            }
        };
        let mut out = conv_im2col_gemm(input, weights, &self.bias, self.geom())?;
        if let Some(bn) = &self.batchnorm {
            bn.apply(&mut out);
        }
        self.spec.activation.apply_slice(out.as_mut_slice());
        Ok(out)
    }

    fn load_weights(&mut self, reader: &mut WeightsReader<'_>) -> Result<(), NnError> {
        // Darknet order: bias, [gamma, mean, var], weights.
        let filters = self.spec.filters;
        self.bias = reader.read_f32s(filters)?;
        if let Some(bn) = &mut self.batchnorm {
            bn.gamma = reader.read_f32s(filters)?;
            bn.mean = reader.read_f32s(filters)?;
            bn.var = reader.read_f32s(filters)?;
        }
        let flat = reader.read_f32s(self.weights.rows() * self.weights.cols())?;
        self.weights = Mat::from_vec(self.weights.rows(), self.weights.cols(), flat)
            .expect("length checked by read_f32s");
        self.compute = ConvCompute::new(self.in_shape, &self.spec, &self.weights, &self.bias)?;
        Ok(())
    }

    fn num_params(&self) -> usize {
        self.weights.as_slice().len()
            + self.bias.len()
            + self.batchnorm.as_ref().map_or(0, |bn| 3 * bn.channels())
    }

    fn ops_per_frame(&self) -> u64 {
        2 * self.weights.cols() as u64 * self.out_shape.spatial() as u64 * self.spec.filters as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::weights::WeightsWriter;
    use rand::SeedableRng;
    use tincy_quant::PrecisionConfig;

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

    /// [`AffineQuant::quantize_slice`] under the dispatch, for any
    /// quantizer (`QuantizeInput` fits its own).
    struct QuantizeSlice<'a>(AffineQuant, &'a [f32]);

    impl IsaKernel for QuantizeSlice<'_> {
        type Output = Vec<u8>;

        #[inline(always)]
        fn run(self) -> Vec<u8> {
            self.0.quantize_slice(self.1)
        }
    }

    /// Ties at `k + 0.5` steps and their neighbours one ulp away, whole
    /// steps, the ±512-step clamp and beyond, and the values with no step
    /// at all: NaN, infinities, signed zeros, subnormals.
    fn quantizer_edge_values(scale: f32) -> Vec<f32> {
        let mut values = vec![
            f32::NAN,
            -f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::MAX,
            f32::MIN,
            0.0,
            -0.0,
            1e-40,
            -1e-40,
            f32::MIN_POSITIVE,
            -f32::MIN_POSITIVE,
        ];
        for k in -520i16..=520 {
            for steps in [f32::from(k), f32::from(k) + 0.5] {
                let v = steps * scale;
                values.extend([v, v.next_up(), v.next_down()]);
            }
        }
        values
    }

    #[test]
    fn the_quantizer_matches_the_scalar_one_on_every_arm() {
        // Exact ties need a step the products above hit exactly: 1 and
        // 1/8; 3 and a fitted step are not powers of two.
        let fitted = AffineQuant::fit(-0.37, 1.93).unwrap().scale();
        for scale in [1.0, 0.125, 3.0, fitted] {
            let values = quantizer_edge_values(scale);
            for zero_point in [0, 128, 255] {
                let q = AffineQuant::new(scale, zero_point).unwrap();
                let want: Vec<u8> = values.iter().map(|&v| q.quantize(v)).collect();
                for isa in Isa::supported() {
                    let got = isa.run(QuantizeSlice(q, &values));
                    for ((v, w), g) in values.iter().zip(&want).zip(&got) {
                        assert_eq!(g, w, "{isa:?} scale {scale} zero point {zero_point}: {v:e}");
                    }
                }
            }
        }
    }

    #[test]
    fn the_input_quantizer_fits_as_a_scalar_fold_on_every_arm() {
        // Lengths around the 64 lanes of the fit's fold, NaN skipped,
        // signed zeros; each map quantized through `QuantizeInput`.
        let mut rng = StdRng::seed_from_u64(8);
        for len in (0..=200).chain([12_288]) {
            let mut data: Vec<f32> = (0..len).map(|_| rng.gen_range(-1.5f32..2.5)).collect();
            for (i, special) in [(len / 2, f32::NAN), (len / 3, -0.0), (len / 5, f32::NAN)] {
                if len > 5 {
                    data[i] = special;
                }
            }
            let (mut min, mut max) = (f32::INFINITY, f32::NEG_INFINITY);
            for &v in &data {
                min = min.min(v);
                max = max.max(v);
            }
            let want = if data.is_empty() {
                AffineQuant::new(1.0, 0).unwrap()
            } else {
                AffineQuant::fit(min, max).unwrap()
            };
            let bytes: Vec<u8> = data.iter().map(|&v| want.quantize(v)).collect();
            for isa in Isa::supported() {
                let (q, got) = isa.run(QuantizeInput(&data)).unwrap();
                assert_eq!(q, want, "{isa:?} length {len}");
                assert_eq!(got, bytes, "{isa:?} length {len}");
            }
        }
        for isa in Isa::supported() {
            assert!(isa.run(QuantizeInput(&[f32::NAN])).is_err());
            assert!(isa.run(QuantizeInput(&[1.0, f32::INFINITY])).is_err());
        }
    }

    #[test]
    fn float_forward_shape_and_relu() {
        let mut rng = StdRng::seed_from_u64(1);
        let shape = Shape3::new(3, 8, 8);
        let layer =
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
        // The same seed draws the same weights whatever the precision; 16
        // filters select the 16x27 kernel, 8 the low-precision GEMM.
        let shape = Shape3::new(3, 10, 10);
        for (filters, first_layer_kernel) in [(16, true), (8, false)] {
            let build = |precision| {
                let mut rng = StdRng::seed_from_u64(2);
                let layer = ConvLayer::new(shape, &spec(filters, 3, 2, precision), &mut rng);
                (layer.unwrap(), input(&mut rng, shape))
            };
            let (generic, x) = build(PrecisionConfig::FLOAT);
            let (quantized, _) = build(PrecisionConfig::W8A8);
            assert!(matches!(generic.compute, ConvCompute::Float));
            let compute = &quantized.compute;
            if first_layer_kernel {
                assert!(matches!(compute, ConvCompute::FirstLayerI32(_)));
            } else {
                assert!(matches!(compute, ConvCompute::GemmLowp(..)));
            }
            let reference = generic.forward(&x).unwrap();
            let diff = quantized.forward(&x).unwrap().max_abs_diff(&reference);
            assert!(diff < 0.1, "{filters} filters: diff {diff} exceeds 0.1");
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
        // Every slot of the stream non-trivial (β is not in the stream).
        let weights = layer.weights().clone();
        layer
            .set_parameters(weights, vec![0.1, -0.2, 0.05, 0.3])
            .unwrap();
        layer
            .set_batchnorm(BatchNorm {
                gamma: vec![1.3, 0.7, 2.0, 0.5],
                beta: vec![0.0; 4],
                mean: vec![0.5, -0.5, 0.2, 0.0],
                var: vec![1.5, 0.8, 2.2, 1.0],
                eps: 1e-5,
            })
            .unwrap();
        let x = input(&mut rng, shape);
        let before = layer.forward(&x).unwrap();

        // The layer's parameters in stream order: bias, gamma, mean, var,
        // weights.
        let bn = layer.batchnorm().expect("the spec normalizes");
        let mut buf = Vec::new();
        let mut writer = WeightsWriter::new(&mut buf);
        for slice in [layer.bias(), &bn.gamma, &bn.mean, &bn.var] {
            writer.write_f32s(slice).unwrap();
        }
        writer.write_f32s(layer.weights().as_slice()).unwrap();
        assert_eq!(buf.len(), layer.num_params() * 4);

        let mut other =
            ConvLayer::new(shape, &spec(4, 3, 1, PrecisionConfig::FLOAT), &mut rng).unwrap();
        assert!(before.max_abs_diff(&other.forward(&x).unwrap()) > 1e-3);
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
        let bn = BatchNorm {
            gamma: vec![1.3, 0.7, 2.0, 0.5],
            beta: vec![0.1, -0.2, 0.0, 0.4],
            mean: vec![0.5, -0.5, 0.2, 0.0],
            var: vec![1.5, 0.8, 2.2, 1.0],
            eps: 1e-5,
        };
        layer.set_batchnorm(bn.clone()).unwrap();
        let x = input(&mut rng, shape);
        let before = layer.forward(&x).unwrap();
        // The same function without the normalization step: the weights
        // and bias folded, in a layer without batch norm.
        let (mut weights, mut bias) = (layer.weights().clone(), layer.bias().to_vec());
        let per_channel = weights.cols();
        bn.fold_into(weights.as_mut_slice(), &mut bias, per_channel);
        let plain = ConvSpec {
            batch_normalize: false,
            ..spec(4, 3, 1, PrecisionConfig::FLOAT)
        };
        let mut folded = ConvLayer::new(shape, &plain, &mut rng).unwrap();
        folded.set_parameters(weights, bias).unwrap();
        assert!(folded.batchnorm().is_none());
        let after = folded.forward(&x).unwrap();
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
