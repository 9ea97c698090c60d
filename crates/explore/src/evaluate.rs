//! Design-point evaluation: throughput from the calibrated stage budget
//! and the FINN cycle model, accuracy from a Table IV-calibrated proxy,
//! resources from the `tincy-finn` bill-of-materials estimator.

use crate::design::hidden_convs;
use tincy_finn::{ResourceEstimate, SegmentCost};
use tincy_nn::{LayerSpec, ModelSpec, NetworkSpec, NnError, OffloadSegment};
use tincy_perf::calib;
use tincy_perf::pipeline_model::{pipelined_fps, PipelineModel};
use tincy_perf::stages::{StageBudget, StageId};
use tincy_quant::ActPrecision;

/// Table IV: Tiny YOLO floating-point baseline, mAP %.
const BASE_MAP: f64 = 57.1;
/// Table IV: 47.8 → 47.2 across "+(b)(c)" — slimming layers 13/14 costs
/// more than widening layer 3 recovers.
const SLIM_DELTA: f64 = -0.6;
/// Table IV: 47.2 → 48.5 across "+(d)" — the lean input convolution
/// *gains* accuracy (retraining absorbs the removed pool).
const LEAN_DELTA: f64 = 1.3;
/// Table IV: 57.1 → 47.8 from quantizing the hidden layers to `[W1A3]`
/// (the first/last layers' `[W8A8]` is modelled as lossless).
const A3_PENALTY: f64 = 9.3;
/// Severity multiplier for binary activations relative to 3-bit ones
/// (§II: accuracy degrades steeply below 3 bits).
const A1_SEVERITY: f64 = 1.8;

/// Reference operation counts anchoring the measured per-stage kernel
/// times, derived from the paper's own topologies: CPU stage costs scale
/// linearly in ops from these anchors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Calibration {
    /// Tiny YOLO first conv (stride 1) ops ↔ [`calib::CUSTOM_I16_MS`].
    pub input_stride1_ops: u64,
    /// Tincy YOLO first conv (stride 2) ops ↔ [`calib::LEAN_INPUT_CONV_MS`].
    pub input_stride2_ops: u64,
    /// Tiny YOLO first max-pool ops ↔ [`calib::MAX_POOL_MS`].
    pub pool_ops: u64,
    /// Tiny YOLO hidden segment ops ↔ [`calib::HIDDEN_LAYERS_MS`].
    pub hidden_ops: u64,
    /// Tincy YOLO output conv ops ↔ [`calib::OUTPUT_LAYER_MS`] (the
    /// ladder carries the Table III output time through unchanged, so the
    /// anchor is the shipped network's head).
    pub output_ops: u64,
}

impl Calibration {
    /// Derives the anchors from the paper's Tiny and Tincy topologies.
    pub fn paper() -> Self {
        let tiny = Segments::of(&tincy_core::tiny_yolo());
        let tincy = Segments::of(&tincy_core::tincy_yolo());
        Self {
            input_stride1_ops: tiny.input_ops,
            input_stride2_ops: tincy.input_ops,
            pool_ops: tiny.pool_ops,
            hidden_ops: tiny.hidden_ops,
            output_ops: tincy.output_ops,
        }
    }
}

/// A network cut into the Table III stages: input conv, first pool,
/// hidden segment, output conv.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Segments {
    input_ops: u64,
    input_stride: usize,
    pool_ops: u64,
    hidden_ops: u64,
    output_ops: u64,
}

impl Segments {
    fn of(spec: &NetworkSpec) -> Self {
        let conv_positions: Vec<usize> = spec
            .layers
            .iter()
            .enumerate()
            .filter_map(|(i, l)| matches!(l, LayerSpec::Conv(_)).then_some(i))
            .collect();
        let first = *conv_positions.first().expect("network has a conv");
        let last = *conv_positions.last().expect("network has a conv");
        let ops = spec.ops_per_layer();
        let input_stride = match &spec.layers[first] {
            LayerSpec::Conv(c) => c.stride,
            _ => unreachable!("position filtered to convs"),
        };
        // The first pool is part of the Max Pool stage; every other layer
        // between the input and output convs belongs to the hidden stage.
        let first_pool = spec
            .layers
            .get(first + 1)
            .filter(|l| matches!(l, LayerSpec::MaxPool(_)))
            .map(|_| first + 1);
        let hidden_start = first_pool.map_or(first + 1, |p| p + 1);
        Self {
            input_ops: ops[first],
            input_stride,
            pool_ops: first_pool.map_or(0, |p| ops[p]),
            hidden_ops: ops[hidden_start..last].iter().sum(),
            output_ops: ops[last],
        }
    }
}

/// The evaluated objectives and their supporting detail.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Evaluation {
    /// Pipelined throughput (§III-F model), fps.
    pub fps: f64,
    /// Table IV-calibrated accuracy proxy, mAP %.
    pub accuracy: f64,
    /// Fabric bill of materials (zero when nothing is offloaded).
    pub resource: ResourceEstimate,
    /// Whether the hidden segment runs on the fabric.
    pub offloaded: bool,
    /// Modelled hidden-segment time, ms.
    pub hidden_ms: f64,
    /// Modelled sequential frame time, ms.
    pub frame_ms: f64,
}

/// Evaluates a design point's model against the calibrated performance,
/// accuracy and resource models. Works on any [`ModelSpec`] in the Tiny
/// YOLO family — including explore-selected designs re-loaded from JSON.
///
/// # Errors
///
/// Returns what [`OffloadSegment::of`] refuses: the model is not
/// deployable.
pub fn evaluate(model: &ModelSpec, calib: &Calibration) -> Result<Evaluation, NnError> {
    let segment = OffloadSegment::of(&model.network)?;
    let fabric = SegmentCost::of(&segment, model.fold);
    let budget = stage_budget(&model.network, &fabric, calib);
    Ok(Evaluation {
        fps: pipelined_fps(&budget, PipelineModel::default()),
        accuracy: accuracy_proxy(&model.network),
        resource: fabric.engine,
        offloaded: !segment.is_empty(),
        hidden_ms: budget.get(StageId::HiddenLayers),
        frame_ms: budget.total_ms(),
    })
}

/// Assembles the per-stage frame budget for a network: the measured kernel
/// anchors scaled by operation count for CPU stages, the FINN cost model
/// of its offload segment for an offloaded hidden segment. At the paper's
/// shipped configuration this reproduces the final rung of
/// [`tincy_perf::ladder::speedup_ladder`] exactly.
fn stage_budget(spec: &NetworkSpec, fabric: &SegmentCost, calib: &Calibration) -> StageBudget {
    let seg = Segments::of(spec);
    let input_ms = if seg.input_stride >= 2 {
        calib::LEAN_INPUT_CONV_MS * seg.input_ops as f64 / calib.input_stride2_ops as f64
    } else {
        calib::CUSTOM_I16_MS * seg.input_ops as f64 / calib.input_stride1_ops as f64
    };
    let pool_ms = calib::MAX_POOL_MS * seg.pool_ops as f64 / calib.pool_ops as f64;
    let hidden_ms = if fabric.layer_cycles.is_empty() {
        calib::HIDDEN_LAYERS_MS * seg.hidden_ops as f64 / calib.hidden_ops as f64
    } else {
        fabric.ms()
    };
    let output_ms = calib::OUTPUT_LAYER_MS * seg.output_ops as f64 / calib.output_ops as f64;
    StageBudget::paper_baseline()
        .with(StageId::InputLayer, input_ms)
        .with(StageId::MaxPool, pool_ms)
        .with(StageId::HiddenLayers, hidden_ms)
        .with(StageId::OutputLayer, output_ms)
}

/// Accuracy proxy calibrated on Table IV: the float Tiny YOLO baseline,
/// per-edit deltas, and a hidden-quantization penalty proportional to how
/// hard the hidden activations are quantized. Reproduces all four
/// published columns.
pub fn accuracy_proxy(spec: &NetworkSpec) -> f64 {
    let hidden = hidden_convs(spec);
    let mut map = BASE_MAP;
    // (b)+(c): no hidden layer is 1024 wide any more.
    if !hidden.is_empty() && hidden.iter().all(|(c, _)| c.filters < 1024) {
        map += SLIM_DELTA;
    }
    // (d): the network opens with a stride-2 convolution.
    if let Some(LayerSpec::Conv(c)) = spec.layers.first() {
        if c.stride >= 2 {
            map += LEAN_DELTA;
        }
    }
    if !hidden.is_empty() {
        let mean_severity = hidden
            .iter()
            .map(|(c, _)| match c.precision.activations {
                ActPrecision::A3 => 1.0,
                ActPrecision::A1 => A1_SEVERITY,
                // 8-bit and float hidden activations are modelled as
                // lossless (the Table IV calibration attributes the whole
                // 9.3-point drop to the [W1A3] hidden stack).
                ActPrecision::A8 | ActPrecision::Float => 0.0,
            })
            .sum::<f64>()
            / hidden.len() as f64;
        map -= A3_PENALTY * mean_severity;
    }
    map
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::design::{DesignPoint, EditSet, HiddenProfile};
    use tincy_nn::FoldSpec;
    use tincy_perf::ladder::speedup_ladder;

    fn eval(point: DesignPoint) -> Evaluation {
        evaluate(&point.model(), &Calibration::paper()).unwrap()
    }

    #[test]
    fn calibration_anchors_match_the_paper_op_counts() {
        let c = Calibration::paper();
        assert_eq!(c.input_stride1_ops, 149_520_384);
        assert_eq!(c.input_stride2_ops, 37_380_096);
        assert_eq!(c.output_ops, 21_632_000);
    }

    #[test]
    fn paper_point_matches_the_ladder_exactly() {
        let ladder_fps = speedup_ladder().last().unwrap().fps;
        let eval = eval(DesignPoint::PAPER);
        assert_eq!(eval.fps, ladder_fps);
        assert!(eval.offloaded);
    }

    #[test]
    fn paper_point_budget_reproduces_the_optimized_stages() {
        let spec = DesignPoint::PAPER.network();
        let fabric = SegmentCost::of(&OffloadSegment::of(&spec).unwrap(), FoldSpec::SHIPPED);
        let budget = stage_budget(&spec, &fabric, &Calibration::paper());
        assert_eq!(budget.get(StageId::InputLayer), calib::LEAN_INPUT_CONV_MS);
        assert_eq!(budget.get(StageId::MaxPool), 0.0);
        assert_eq!(budget.get(StageId::OutputLayer), calib::OUTPUT_LAYER_MS);
        let hidden = budget.get(StageId::HiddenLayers);
        assert!((25.0..35.0).contains(&hidden), "hidden {hidden} ms");
    }

    #[test]
    fn accuracy_proxy_reproduces_table_four() {
        let col = |edits| {
            accuracy_proxy(
                &DesignPoint {
                    edits,
                    profile: HiddenProfile::W1A3,
                    pe: 16,
                    simd: 16,
                }
                .network(),
            )
        };
        let a_only = EditSet {
            a: true,
            bc: false,
            d: false,
        };
        let abc = EditSet {
            a: true,
            bc: true,
            d: false,
        };
        assert!((col(a_only) - 47.8).abs() < 1e-9);
        assert!((col(abc) - 47.2).abs() < 1e-9);
        assert!((col(EditSet::PAPER) - 48.5).abs() < 1e-9);
    }

    #[test]
    fn float_tiny_baseline_scores_the_published_map() {
        let tiny = tincy_core::tiny_yolo();
        assert!((accuracy_proxy(&tiny) - BASE_MAP).abs() < 1e-9);
    }

    #[test]
    fn cpu_hidden_stack_is_orders_of_magnitude_slower() {
        let cpu = eval(DesignPoint {
            profile: HiddenProfile::W8A8,
            ..DesignPoint::PAPER
        });
        let fabric = eval(DesignPoint::PAPER);
        assert!(!cpu.offloaded);
        assert_eq!(cpu.resource, ResourceEstimate::default());
        assert!(cpu.hidden_ms > 100.0 * fabric.hidden_ms);
        assert!(cpu.fps < fabric.fps / 10.0);
    }

    #[test]
    fn bigger_folds_are_not_slower_and_cost_more_luts() {
        let small = eval(DesignPoint {
            pe: 8,
            simd: 8,
            ..DesignPoint::PAPER
        });
        let big = eval(DesignPoint {
            pe: 32,
            simd: 16,
            ..DesignPoint::PAPER
        });
        assert!(big.hidden_ms < small.hidden_ms);
        assert!(big.fps >= small.fps);
        assert!(big.resource.luts > small.resource.luts);
    }

    #[test]
    fn binary_activations_trade_accuracy_for_luts() {
        let a3 = eval(DesignPoint::PAPER);
        let a1 = eval(DesignPoint {
            profile: HiddenProfile::W1A1,
            ..DesignPoint::PAPER
        });
        assert!(a1.accuracy < a3.accuracy);
        assert!(a1.resource.luts < a3.resource.luts);
        // Same engine fold, same cycle count: throughput unchanged.
        assert_eq!(a1.fps, a3.fps);
    }
}
