//! The one cost model of an offload segment (§III-A/C): the cycles each
//! layer takes on the engine, the AXI cycles its weights take to swap in,
//! and the fabric the segment occupies. Every figure the paper's tables,
//! the ladder, the design-space sweep and the accelerator itself report
//! comes from here.

use crate::engine::{conv_layer_cycles, EngineConfig};
use crate::resource::ResourceEstimate;
use tincy_nn::{ModelSpec, NnError, OffloadSegment};

/// Width of the AXI port that streams weights onto the fabric, in bits
/// per cycle.
pub const AXI_WIDTH_BITS: u64 = 128;

/// Cycles the AXI port takes to stream `weight_bits` of weights onto the
/// fabric.
pub fn swap_cycles(weight_bits: u64) -> u64 {
    weight_bits.div_ceil(AXI_WIDTH_BITS)
}

/// What an offload segment costs on one engine fold.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentCost {
    /// Compute cycles of each layer for one frame, in execution order
    /// ([`conv_layer_cycles`]).
    pub layer_cycles: Vec<u64>,
    /// Weight-swap cycles of one invocation, whatever its batch: every
    /// layer's weights cross the AXI port once.
    pub swap_cycles: u64,
    /// The fold's clock.
    pub clock_hz: u64,
    /// The single time-multiplexed engine that runs the segment.
    pub engine: ResourceEstimate,
    /// A per-layer dataflow pipeline over the same layers.
    pub dataflow: ResourceEstimate,
}

impl SegmentCost {
    /// Prices a segment on an engine fold.
    pub fn of(segment: &OffloadSegment, fold: EngineConfig) -> Self {
        let layers = segment.layers();
        let stores = || layers.iter().map(|l| (l.weight_bits(), l.levels()));
        Self {
            layer_cycles: layers
                .iter()
                .map(|l| conv_layer_cycles(l.in_shape, l.conv.filters, l.conv.geom(), fold))
                .collect(),
            swap_cycles: layers.iter().map(|l| swap_cycles(l.weight_bits())).sum(),
            clock_hz: fold.clock_hz,
            engine: ResourceEstimate::single_engine(fold, stores()),
            dataflow: ResourceEstimate::dataflow(fold, stores()),
        }
    }

    /// Compute cycles of one frame, summed over the layers.
    pub fn compute_cycles(&self) -> u64 {
        self.layer_cycles.iter().sum()
    }

    /// Milliseconds one frame takes in a single invocation: every layer's
    /// compute plus the weight swaps. The shipped 16×16 engine at 300 MHz
    /// puts Tincy YOLO's hidden layers at the paper's ≈30 ms.
    pub fn ms(&self) -> f64 {
        (self.compute_cycles() + self.swap_cycles) as f64 / self.clock_hz as f64 * 1000.0
    }
}

/// The fabric bill of materials of a design point: the single engine that
/// runs its offload segment at the model's fold. A model without
/// offloadable layers needs no engine and costs nothing.
///
/// # Errors
///
/// Returns what [`OffloadSegment::of`] refuses.
pub fn model_estimate(model: &ModelSpec) -> Result<ResourceEstimate, NnError> {
    let segment = OffloadSegment::of(&model.network)?;
    Ok(SegmentCost::of(&segment, model.fold).engine)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::FpgaDevice;
    use tincy_nn::topology::tincy_yolo;

    fn tincy(fold: EngineConfig) -> SegmentCost {
        SegmentCost::of(&OffloadSegment::of(&tincy_yolo()).unwrap(), fold)
    }

    #[test]
    fn tincy_hidden_time_reproduces_thirty_ms() {
        let ms = tincy(EngineConfig::default()).ms();
        // §III-C: "it reduces the processing time of all hidden layers
        // together to 30 ms".
        assert!((25.0..35.0).contains(&ms), "modelled hidden time {ms} ms");
    }

    #[test]
    fn bigger_engine_is_faster() {
        let fold = |pe, simd| EngineConfig {
            pe,
            simd,
            ..Default::default()
        };
        assert!(tincy(fold(32, 32)).ms() < tincy(fold(8, 8)).ms());
    }

    #[test]
    fn swaps_are_the_weights_over_the_axi_width() {
        let cost = tincy(EngineConfig::default());
        // 6 312 960 weight bits, every layer a multiple of 128.
        assert_eq!(cost.swap_cycles, 6_312_960 / AXI_WIDTH_BITS);
        assert_eq!(swap_cycles(129), 2);
    }

    #[test]
    fn xczu3eg_fits_one_engine_but_not_a_dataflow_pipeline() {
        let cost = tincy(EngineConfig::default());
        let device = FpgaDevice::XCZU3EG;
        assert!(device.fits(&cost.engine), "{:?}", cost.engine);
        assert!(!device.fits(&cost.dataflow), "{:?}", cost.dataflow);
        assert!(cost.dataflow.luts > cost.engine.luts);
    }

    #[test]
    fn an_empty_segment_costs_nothing() {
        let cost = SegmentCost::of(&OffloadSegment::default(), EngineConfig::default());
        assert_eq!(cost.compute_cycles() + cost.swap_cycles, 0);
        assert_eq!(cost.engine, ResourceEstimate::default());
        assert_eq!(cost.dataflow, ResourceEstimate::default());
    }
}
