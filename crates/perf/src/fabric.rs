//! Fabric offload timing derived from the FINN cost model (§III-C).

use tincy_finn::{EngineConfig, SegmentCost};
use tincy_nn::topology::tincy_yolo;
use tincy_nn::OffloadSegment;

/// What Tincy YOLO's hidden layers (L3–L14 of Table I, its offload
/// segment) cost on one engine fold. At the shipped 16×16 engine at
/// 300 MHz this reproduces the paper's ≈30 ms.
pub fn tincy_cost(fold: EngineConfig) -> SegmentCost {
    let segment = OffloadSegment::of(&tincy_yolo()).expect("Tincy YOLO has one ReLU segment");
    SegmentCost::of(&segment, fold)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_speedup_is_about_three_hundred_x() {
        let ms = tincy_cost(EngineConfig::default()).ms();
        let speedup = crate::calib::HIDDEN_LAYERS_MS / ms;
        // §III-C: "a speedup of more than 300x for this particular stage".
        assert!(speedup > 300.0, "stage speedup {speedup}");
    }
}
