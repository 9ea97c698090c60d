//! The layer-at-a-time QNN accelerator.
//!
//! Resource constraints on the XCZU3EG preclude a per-layer dataflow
//! pipeline, so one [`ConvEngine`] executes the offloaded hidden layers
//! sequentially, swapping weights between invocations. "Note that this
//! precludes concurrency across layers and implies a higher latency compared
//! to a pipeline as the feature maps between layers are computed in full
//! before the computation of the next layer can be triggered" (§III-A).

use crate::cost::swap_cycles;
use crate::engine::{ConvEngine, EngineConfig};
use crate::resource::ResourceEstimate;
use tincy_kernels::{autotune, KernelPlan, PackedLayer, TuneBudget, Variant};
use tincy_nn::fault::result_checksum;
use tincy_nn::{FaultInjector, FaultKind, NnError};
use tincy_quant::ThresholdsForLayer;
use tincy_tensor::{BitTensor, ConvGeom, PoolGeom, Shape3, Tensor};
use tincy_trace::static_label;

/// Activation bit width of the offloaded hidden layers (W1A3).
const HIDDEN_ACT_BITS: usize = 3;

/// Parameters of one offloaded W1A3 conv(+pool) layer: a validated
/// [`PackedLayer`], the one implementation of the layer function the
/// engine and the host fallback both run. Its weights, thresholds and
/// everything derived from them sit behind `Arc`s, so clones share them.
#[derive(Debug, Clone)]
pub struct QnnLayerParams {
    core: PackedLayer,
}

impl QnnLayerParams {
    /// Creates layer parameters.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidSpec`] on any dimensional inconsistency.
    pub fn new(
        in_shape: Shape3,
        weights: BitTensor,
        thresholds: ThresholdsForLayer,
        geom: ConvGeom,
        pool: Option<PoolGeom>,
    ) -> Result<Self, NnError> {
        check_shapes(in_shape, &weights, &thresholds, geom)?;
        let core = PackedLayer::new(in_shape, weights, thresholds, geom, pool, HIDDEN_ACT_BITS);
        Ok(Self { core })
    }

    /// Creates layer parameters from weights already packed in both row
    /// orders (see [`PackedLayer::with_streamed_weights`]): what the
    /// backend's one-pass fold produces.
    ///
    /// # Errors
    ///
    /// As [`QnnLayerParams::new`].
    pub(crate) fn with_streamed_weights(
        in_shape: Shape3,
        weights: BitTensor,
        streamed_weights: BitTensor,
        thresholds: ThresholdsForLayer,
        geom: ConvGeom,
        pool: Option<PoolGeom>,
    ) -> Result<Self, NnError> {
        check_shapes(in_shape, &weights, &thresholds, geom)?;
        let core = PackedLayer::with_streamed_weights(
            in_shape,
            weights,
            streamed_weights,
            thresholds,
            geom,
            pool,
            HIDDEN_ACT_BITS,
        );
        Ok(Self { core })
    }

    /// The layer function shared with the host path.
    pub(crate) fn core(&self) -> &PackedLayer {
        &self.core
    }

    /// Expected input feature-map shape.
    pub fn in_shape(&self) -> Shape3 {
        self.core.in_shape()
    }

    /// Output shape after convolution and optional pooling.
    pub fn out_shape(&self) -> Shape3 {
        self.core.out_shape()
    }

    /// The packed binary weights.
    pub fn weights(&self) -> &BitTensor {
        self.core.weights()
    }

    /// The per-channel threshold sets.
    pub fn thresholds(&self) -> &ThresholdsForLayer {
        self.core.thresholds()
    }

    /// The convolution geometry.
    pub fn geom(&self) -> ConvGeom {
        self.core.geom()
    }

    /// The fused pooling geometry, if any.
    pub fn pool(&self) -> Option<PoolGeom> {
        self.core.pool()
    }

    /// Binary weight storage in bits.
    pub fn weight_bits(&self) -> u64 {
        (self.weights().rows() * self.weights().cols()) as u64
    }

    /// Activation levels the thresholds produce (8 for `A3`, 2 for `A1`).
    pub fn levels(&self) -> usize {
        self.thresholds().channel(0).len() + 1
    }

    /// Dot-product operations per frame (paper accounting, conv only).
    pub fn ops(&self) -> u64 {
        let weights = self.weights();
        let conv = self.geom().output_shape(self.in_shape(), weights.rows());
        2 * weights.cols() as u64 * conv.spatial() as u64 * weights.rows() as u64
    }
}

/// The shape checks both [`QnnLayerParams`] constructors make before
/// [`PackedLayer`] asserts them.
fn check_shapes(
    in_shape: Shape3,
    weights: &BitTensor,
    thresholds: &ThresholdsForLayer,
    geom: ConvGeom,
) -> Result<(), NnError> {
    geom.validate(in_shape).map_err(|e| NnError::InvalidSpec {
        what: e.to_string(),
    })?;
    if weights.cols() != geom.dot_length(in_shape.channels) {
        return Err(NnError::InvalidSpec {
            what: format!(
                "weight columns {} do not match K^2*C = {}",
                weights.cols(),
                geom.dot_length(in_shape.channels)
            ),
        });
    }
    if thresholds.num_channels() != weights.rows() {
        return Err(NnError::InvalidSpec {
            what: format!(
                "thresholds cover {} channels, weights have {} rows",
                thresholds.num_channels(),
                weights.rows()
            ),
        });
    }
    Ok(())
}

/// Timing report of one accelerator invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct AccelReport {
    /// Compute cycles per layer, in execution order. For a batched
    /// invocation these are summed over every frame in the batch.
    pub layer_cycles: Vec<u64>,
    /// Cycles spent streaming weights between layer invocations. Weights
    /// are swapped once per layer per *invocation*, so a micro-batch
    /// amortizes this cost over [`AccelReport::batch`] frames.
    pub weight_swap_cycles: u64,
    /// Cycles spent reloading the bitstream after a configuration loss
    /// (0 unless a [`FaultKind::BitstreamLost`] preceded this invocation).
    pub reload_cycles: u64,
    /// Fabric clock the cycles refer to.
    pub clock_hz: u64,
    /// Frames processed by this invocation (1 for a single-frame run).
    pub batch: usize,
}

impl AccelReport {
    /// Total cycles including weight swaps and any bitstream reload.
    pub fn total_cycles(&self) -> u64 {
        self.layer_cycles.iter().sum::<u64>() + self.weight_swap_cycles + self.reload_cycles
    }

    /// Cycles per frame — the number a serving layer compares across batch
    /// sizes to see the weight-swap amortization.
    pub fn cycles_per_frame(&self) -> u64 {
        self.total_cycles() / self.batch.max(1) as u64
    }
}

/// The sequential, single-engine accelerator: the loaded layers and the
/// engine they run on, immutable once built. The fault state of a running
/// fabric is not here; [`QnnAccelerator::run_batch`] takes it.
#[derive(Debug, Clone)]
pub struct QnnAccelerator {
    layers: Vec<QnnLayerParams>,
    /// The layers' cores tagged with their index for the host path's
    /// `cpu.kernel.*` spans.
    packed: Vec<PackedLayer>,
    /// What `benchmark/` reads its `forward` arguments from; chooses nothing.
    plan: KernelPlan,
    engine: ConvEngine,
}

impl QnnAccelerator {
    /// Builds an accelerator over a hidden-layer stack.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidSpec`] if consecutive layer shapes do not
    /// chain or the stack is empty.
    pub fn new(layers: Vec<QnnLayerParams>, config: EngineConfig) -> Result<Self, NnError> {
        if layers.is_empty() {
            return Err(NnError::InvalidSpec {
                what: "accelerator needs at least one layer".to_owned(),
            });
        }
        for pair in layers.windows(2) {
            if pair[0].out_shape() != pair[1].in_shape() {
                return Err(NnError::InvalidSpec {
                    what: format!(
                        "layer output {} does not feed next layer input {}",
                        pair[0].out_shape(),
                        pair[1].in_shape()
                    ),
                });
            }
        }
        let packed: Vec<PackedLayer> = layers
            .iter()
            .enumerate()
            .map(|(i, layer)| {
                #[allow(clippy::cast_possible_truncation)]
                layer.core.clone().with_trace_layer(i as u32)
            })
            .collect();
        let plan = autotune(&packed, &TuneBudget);
        Ok(Self {
            layers,
            packed,
            plan,
            engine: ConvEngine::new(config)?,
        })
    }

    /// The offloaded layers.
    pub fn layers(&self) -> &[QnnLayerParams] {
        &self.layers
    }

    /// Expected input shape (first layer).
    pub fn input_shape(&self) -> Shape3 {
        self.layers[0].in_shape()
    }

    /// Total weight-swap cycles charged per accelerator invocation:
    /// every layer's weights cross the AXI bus exactly once regardless
    /// of batch size. This is the fixed cost a micro-batch amortizes,
    /// and the per-invocation swap count the serving layer accounts
    /// when it swaps between hosted model variants.
    pub fn swap_cycles_per_invocation(&self) -> u64 {
        self.layers
            .iter()
            .map(|layer| swap_cycles(layer.weight_bits()))
            .sum()
    }

    /// Runs the whole hidden stack on one engine, layer by layer, on a
    /// fault-free fabric.
    ///
    /// # Errors
    ///
    /// Returns [`NnError`] on a shape mismatch.
    pub fn run(&self, input: &Tensor<u8>) -> Result<(Tensor<u8>, AccelReport), NnError> {
        let (mut outs, report) = self.run_batch(std::slice::from_ref(input), None)?;
        Ok((outs.pop().expect("batch of one yields one output"), report))
    }

    /// Runs a whole micro-batch through the hidden stack in **one**
    /// accelerator invocation: per layer, the engine streams the weights in
    /// once and then processes every frame of the batch before moving on —
    /// amortizing the weight-swap traffic that dominates small frames.
    ///
    /// One invocation also means one fault draw from `faults`, the running
    /// device's injector (`None` runs fault-free): a faulted batch fails as
    /// a unit, exactly like a faulted single-frame DMA transfer.
    /// Transfer-class faults (DMA timeout, busy fabric, lost bitstream)
    /// abort before any compute; a corrupted result buffer is computed,
    /// corrupted on the simulated DMA return path, and *detected* by the
    /// checksum compare — injected faults never escape as silently wrong
    /// data. A successful invocation after a bitstream loss pays the
    /// reload penalty in its report.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidSpec`] for an empty batch, otherwise
    /// [`NnError`] on a shape mismatch or an injected (retryable)
    /// accelerator fault.
    pub fn run_batch(
        &self,
        inputs: &[Tensor<u8>],
        faults: Option<&FaultInjector>,
    ) -> Result<(Vec<Tensor<u8>>, AccelReport), NnError> {
        if inputs.is_empty() {
            return Err(NnError::InvalidSpec {
                what: "accelerator micro-batch must not be empty".to_owned(),
            });
        }
        let fault = faults.and_then(FaultInjector::next_fault);
        if let Some(
            kind @ (FaultKind::DmaTimeout | FaultKind::TransientBusy | FaultKind::BitstreamLost),
        ) = fault
        {
            return Err(kind.to_error());
        }
        let reload_cycles = faults.map_or(0, FaultInjector::take_reload_penalty);
        let mut fmaps: Vec<Tensor<u8>> = inputs.to_vec();
        let mut layer_cycles = Vec::with_capacity(self.layers.len());
        let mut swap = 0u64;
        #[allow(clippy::cast_possible_truncation)]
        let batch = inputs.len() as u32;
        for (index, layer) in self.layers.iter().enumerate() {
            #[allow(clippy::cast_possible_truncation)]
            let layer_ix = index as u32;
            // Weight swap: the engine streams this layer's weights in once
            // for the whole batch.
            let layer_swap = swap_cycles(layer.weight_bits());
            swap += layer_swap;
            tincy_trace::span(static_label!("finn.weight_swap"))
                .layer(layer_ix)
                .cycles(layer_swap)
                .emit();
            let mut cycles = 0u64;
            {
                let _span = tincy_trace::span(static_label!("finn.layer"))
                    .layer(layer_ix)
                    .batch(batch)
                    .start();
                for fmap in &mut fmaps {
                    let (out, layer_time) = self.engine.run_layer(layer, fmap)?;
                    cycles += layer_time;
                    *fmap = out;
                }
            }
            tincy_trace::span(static_label!("finn.layer_cycles"))
                .layer(layer_ix)
                .cycles(cycles)
                .emit();
            layer_cycles.push(cycles);
        }
        if fault == Some(FaultKind::CorruptResult) {
            let injector = faults.expect("fault implies injector");
            let first = fmaps.first().expect("nonempty batch");
            let expected = result_checksum(first.as_slice());
            let mut wire = first.clone();
            injector.corrupt_in_place(wire.as_mut_slice());
            if result_checksum(wire.as_slice()) != expected {
                return Err(FaultKind::CorruptResult.to_error());
            }
        }
        let report = AccelReport {
            layer_cycles,
            weight_swap_cycles: swap,
            reload_cycles,
            clock_hz: self.engine.config().clock_hz,
            batch: inputs.len(),
        };
        Ok((fmaps, report))
    }

    /// The host path: the layers' shared cores run back to back, with the
    /// instructions of [`QnnAccelerator::run`] and none of its weight-swap,
    /// cycle or fault bookkeeping. Identical results to folding the naive
    /// [`PackedLayer::forward_reference`] over [`Self::packed_layers`] at a
    /// fraction of the time — this is what host workers and degraded
    /// serving run per frame.
    ///
    /// # Errors
    ///
    /// Returns [`NnError`] on a shape mismatch.
    pub fn reference_run(&self, input: &Tensor<u8>) -> Result<Tensor<u8>, NnError> {
        let mut fmap = input.clone();
        for packed in &self.packed {
            if fmap.shape() != packed.in_shape() {
                return Err(NnError::ShapeMismatch {
                    expected: packed.in_shape().to_string(),
                    actual: fmap.shape().to_string(),
                });
            }
            fmap = packed.forward(&fmap, Variant::Blocked, 1);
        }
        Ok(fmap)
    }

    /// The packed fallback layers, aligned with [`QnnAccelerator::layers`].
    pub fn packed_layers(&self) -> &[PackedLayer] {
        &self.packed
    }

    /// One entry per layer, all naming the one schedule. Kept because
    /// `benchmark/` reads its `forward` arguments from it.
    pub fn kernel_plan(&self) -> &KernelPlan {
        &self.plan
    }

    /// The fabric this design occupies: the one single-engine bill
    /// ([`ResourceEstimate::single_engine`]) over the loaded layers.
    pub fn engine_resources(&self) -> ResourceEstimate {
        ResourceEstimate::single_engine(
            self.engine.config(),
            self.layers.iter().map(|l| (l.weight_bits(), l.levels())),
        )
    }

    /// Total offloaded dot-product operations per frame.
    pub fn total_ops(&self) -> u64 {
        self.layers.iter().map(QnnLayerParams::ops).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use tincy_quant::ThresholdSet;

    pub(crate) fn random_layer(
        rng: &mut StdRng,
        in_shape: Shape3,
        out_c: usize,
        stride: usize,
        pool: Option<PoolGeom>,
    ) -> QnnLayerParams {
        let geom = ConvGeom::same(3, stride);
        let cols = geom.dot_length(in_shape.channels);
        let signs: Vec<i8> = (0..out_c * cols)
            .map(|_| if rng.gen() { 1 } else { -1 })
            .collect();
        let weights = BitTensor::from_signs(out_c, cols, &signs).unwrap();
        let thresholds = ThresholdsForLayer::new(
            (0..out_c)
                .map(|_| {
                    let base = rng.gen_range(-15i32..5);
                    let step = rng.gen_range(1i32..5);
                    ThresholdSet::new((0..7).map(|k| base + k * step).collect()).unwrap()
                })
                .collect(),
        )
        .unwrap();
        QnnLayerParams::new(in_shape, weights, thresholds, geom, pool).unwrap()
    }

    fn two_layer_accel(rng: &mut StdRng) -> QnnAccelerator {
        let l1 = random_layer(rng, Shape3::new(4, 8, 8), 8, 1, Some(PoolGeom::new(2, 2)));
        let l2 = random_layer(rng, l1.out_shape(), 6, 1, None);
        QnnAccelerator::new(vec![l1, l2], EngineConfig::default()).unwrap()
    }

    #[test]
    fn hardware_path_is_bit_exact_with_reference() {
        let mut rng = StdRng::seed_from_u64(99);
        for _ in 0..3 {
            let accel = two_layer_accel(&mut rng);
            let input = Tensor::from_fn(accel.input_shape(), |_, _, _| rng.gen_range(0..8) as u8);
            let (hw, _) = accel.run(&input).unwrap();
            let sw = accel.reference_run(&input).unwrap();
            assert_eq!(
                hw, sw,
                "MVTU path must match the naive integer reference bit-exactly"
            );
        }
    }

    #[test]
    fn packed_fallback_is_bit_exact_with_naive_reference() {
        let mut rng = StdRng::seed_from_u64(109);
        for _ in 0..3 {
            let accel = two_layer_accel(&mut rng);
            let input = Tensor::from_fn(accel.input_shape(), |_, _, _| rng.gen_range(0..8) as u8);
            let naive = accel
                .packed_layers()
                .iter()
                .fold(input.clone(), |fmap, layer| layer.forward_reference(&fmap));
            assert_eq!(
                accel.reference_run(&input).unwrap(),
                naive,
                "packed kernels must match the naive integer reference bit-exactly"
            );
        }
        let accel = two_layer_accel(&mut rng);
        assert_eq!(accel.packed_layers().len(), accel.layers().len());
    }

    #[test]
    fn layer_chaining_validated() {
        let mut rng = StdRng::seed_from_u64(100);
        let l1 = random_layer(&mut rng, Shape3::new(4, 8, 8), 8, 1, None);
        let l2 = random_layer(&mut rng, Shape3::new(9, 9, 9), 6, 1, None);
        assert!(QnnAccelerator::new(vec![l1, l2], EngineConfig::default()).is_err());
        assert!(QnnAccelerator::new(vec![], EngineConfig::default()).is_err());
    }

    #[test]
    fn report_accumulates_cycles_and_swaps() {
        let mut rng = StdRng::seed_from_u64(101);
        let accel = two_layer_accel(&mut rng);
        let input = Tensor::from_fn(accel.input_shape(), |_, _, _| rng.gen_range(0..8) as u8);
        let (_, report) = accel.run(&input).unwrap();
        assert_eq!(report.layer_cycles.len(), 2);
        assert!(report.weight_swap_cycles > 0);
        assert_eq!(
            report.total_cycles(),
            report.layer_cycles.iter().sum::<u64>() + report.weight_swap_cycles
        );
    }

    #[test]
    fn swap_cycles_per_invocation_matches_report_regardless_of_batch() {
        let mut rng = StdRng::seed_from_u64(102);
        let accel = two_layer_accel(&mut rng);
        let fixed = accel.swap_cycles_per_invocation();
        assert!(fixed > 0);
        for batch in [1usize, 4] {
            let inputs: Vec<Tensor<u8>> = (0..batch)
                .map(|_| Tensor::from_fn(accel.input_shape(), |_, _, _| rng.gen_range(0..8) as u8))
                .collect();
            let (_, report) = accel.run_batch(&inputs, None).unwrap();
            assert_eq!(
                report.weight_swap_cycles, fixed,
                "swap traffic is per-invocation, not per-frame"
            );
        }
    }

    #[test]
    fn injected_outage_fails_then_recovers_bit_exactly() {
        use tincy_nn::{FaultInjector, FaultPlan};
        let mut rng = StdRng::seed_from_u64(104);
        let injector = FaultInjector::new(FaultPlan::outage(0, 2));
        let accel = two_layer_accel(&mut rng);
        let input = Tensor::from_fn(accel.input_shape(), |_, _, _| rng.gen_range(0..8) as u8);
        let run =
            |input: &Tensor<u8>| accel.run_batch(std::slice::from_ref(input), Some(&injector));
        for _ in 0..2 {
            let err = run(&input).unwrap_err();
            assert!(
                err.is_retryable(),
                "injected faults must be retryable: {err}"
            );
        }
        let (out, _) = run(&input).unwrap();
        assert_eq!(out[0], accel.reference_run(&input).unwrap());
        let stats = injector.stats();
        assert_eq!(
            (stats.invocations, stats.faults, stats.dma_timeouts),
            (3, 2, 2)
        );
    }

    #[test]
    fn bitstream_loss_charges_reload_on_next_success() {
        use tincy_nn::{FaultInjector, FaultKind, FaultPlan, FaultWindow};
        let mut rng = StdRng::seed_from_u64(105);
        let plan = FaultPlan {
            outage: Some(FaultWindow {
                start: 0,
                length: 1,
                kind: FaultKind::BitstreamLost,
            }),
            reload_penalty_cycles: 9_999,
            ..FaultPlan::default()
        };
        let accel = two_layer_accel(&mut rng);
        let injector = FaultInjector::new(plan);
        let input = Tensor::from_fn(accel.input_shape(), |_, _, _| rng.gen_range(0..8) as u8);
        let run =
            |input: &Tensor<u8>| accel.run_batch(std::slice::from_ref(input), Some(&injector));
        assert!(run(&input).is_err());
        let (_, report) = run(&input).unwrap();
        assert_eq!(report.reload_cycles, 9_999);
        assert_eq!(
            report.total_cycles(),
            report.layer_cycles.iter().sum::<u64>() + report.weight_swap_cycles + 9_999
        );
        let (_, report) = run(&input).unwrap();
        assert_eq!(report.reload_cycles, 0, "reload penalty paid exactly once");
    }

    #[test]
    fn corrupt_result_is_detected_never_escapes() {
        use tincy_nn::{FaultInjector, FaultKind, FaultPlan, FaultWindow};
        let mut rng = StdRng::seed_from_u64(106);
        let plan = FaultPlan::default().with_outage(FaultWindow {
            start: 0,
            length: 1,
            kind: FaultKind::CorruptResult,
        });
        let accel = two_layer_accel(&mut rng);
        let injector = FaultInjector::new(plan);
        let input = Tensor::from_fn(accel.input_shape(), |_, _, _| rng.gen_range(0..8) as u8);
        let run =
            |input: &Tensor<u8>| accel.run_batch(std::slice::from_ref(input), Some(&injector));
        let err = run(&input).unwrap_err();
        assert!(err.is_retryable());
        assert!(
            err.to_string().contains("checksum"),
            "corruption is CRC-detected: {err}"
        );
        let (out, _) = run(&input).unwrap();
        assert_eq!(
            out[0],
            accel.reference_run(&input).unwrap(),
            "clean retry is bit-exact"
        );
    }

    #[test]
    fn batched_run_is_bit_exact_and_amortizes_weight_swaps() {
        let mut rng = StdRng::seed_from_u64(107);
        let accel = two_layer_accel(&mut rng);
        let inputs: Vec<Tensor<u8>> = (0..4)
            .map(|_| Tensor::from_fn(accel.input_shape(), |_, _, _| rng.gen_range(0..8) as u8))
            .collect();

        let (batched, report) = accel.run_batch(&inputs, None).unwrap();
        assert_eq!(report.batch, 4);
        let mut single_swap = 0;
        for (input, out) in inputs.iter().zip(&batched) {
            let (one, single_report) = accel.run(input).unwrap();
            assert_eq!(&one, out, "batched output matches single-frame run");
            single_swap = single_report.weight_swap_cycles;
        }
        // The batch streams each layer's weights once, not once per frame.
        assert_eq!(report.weight_swap_cycles, single_swap);
        let single_cpf = accel.run(&inputs[0]).unwrap().1.cycles_per_frame();
        assert!(
            report.cycles_per_frame() < single_cpf,
            "batching must amortize: {} !< {}",
            report.cycles_per_frame(),
            single_cpf
        );
        assert!(accel.run_batch(&[], None).is_err());
    }

    #[test]
    fn batched_run_draws_one_fault_per_invocation() {
        use tincy_nn::{FaultInjector, FaultPlan};
        let mut rng = StdRng::seed_from_u64(108);
        let injector = FaultInjector::new(FaultPlan::outage(0, 1));
        let accel = two_layer_accel(&mut rng);
        let inputs: Vec<Tensor<u8>> = (0..3)
            .map(|_| Tensor::from_fn(accel.input_shape(), |_, _, _| rng.gen_range(0..8) as u8))
            .collect();
        let faults = Some(&injector);
        assert!(
            accel.run_batch(&inputs, faults).is_err(),
            "whole batch faults once"
        );
        let (outs, _) = accel.run_batch(&inputs, faults).unwrap();
        assert_eq!(outs.len(), 3);
        let stats = injector.stats();
        assert_eq!((stats.invocations, stats.faults), (2, 1));
    }

    #[test]
    fn ops_accounting_matches_formula() {
        let mut rng = StdRng::seed_from_u64(103);
        let layer = random_layer(&mut rng, Shape3::new(16, 13, 13), 32, 1, None);
        // 2 * (9*16) * 169 * 32
        assert_eq!(layer.ops(), 2 * 144 * 169 * 32);
    }
}
