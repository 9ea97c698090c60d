//! Calibration constants taken from the paper.
//!
//! The baseline column of Table III (generic Darknet inference of the
//! Tiny YOLO pipeline on the A53, 0.1 fps) and the measured optimization
//! results of §III-D/E/F the ladder steps through (the rungs it skips
//! are in EXPERIMENTS.md). These are the only numbers imported from the
//! paper; everything else is derived.

/// Table III: image acquisition (camera read + scaling), ms.
pub const ACQUISITION_MS: f64 = 40.0;
/// Table III: input layer (first convolution, float, generic), ms.
pub const INPUT_LAYER_MS: f64 = 620.0;
/// Table III: first max-pool stage, ms.
pub const MAX_POOL_MS: f64 = 140.0;
/// Table III: hidden layers (generic float), ms.
pub const HIDDEN_LAYERS_MS: f64 = 9160.0;
/// Table III: output layer, ms.
pub const OUTPUT_LAYER_MS: f64 = 30.0;
/// Table III: box drawing, ms (lower bound in the paper).
pub const BOX_DRAWING_MS: f64 = 15.0;
/// Table III: image output, ms (lower bound in the paper).
pub const IMAGE_OUTPUT_MS: f64 = 25.0;
/// Table III: total frame time, ms.
pub const TOTAL_MS: f64 = 10_030.0;

/// §III-D: gemmlowp-based input layer speedup.
pub const GEMMLOWP_SPEEDUP: f64 = 2.2;
/// §III-D: custom 16×27 kernel, 8-bit data / 16-bit accumulators, ms.
pub const CUSTOM_I16_MS: f64 = 120.0;
/// §III-E: the lean stride-2 convolution replacing input conv + max pool, ms.
pub const LEAN_INPUT_CONV_MS: f64 = 35.0;
/// §III-C: hidden layers on the fabric accelerator, ms.
pub const FABRIC_HIDDEN_MS: f64 = 30.0;
/// §III-F: frame rate of the pipelined demo, fps.
pub const PIPELINED_FPS: f64 = 16.0;
/// §IV: overall claimed speedup.
#[cfg(test)]
const OVERALL_SPEEDUP: f64 = 160.0;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_three_rows_sum_to_total() {
        let sum = ACQUISITION_MS
            + INPUT_LAYER_MS
            + MAX_POOL_MS
            + HIDDEN_LAYERS_MS
            + OUTPUT_LAYER_MS
            + BOX_DRAWING_MS
            + IMAGE_OUTPUT_MS;
        assert_eq!(sum, TOTAL_MS);
    }

    #[test]
    fn overall_speedup_is_consistent_with_fps_claims() {
        // 0.1 fps -> 16 fps is the paper's 160x.
        let baseline_fps = 1000.0 / TOTAL_MS;
        assert!((PIPELINED_FPS / baseline_fps - OVERALL_SPEEDUP).abs() < 1.0);
    }
}
