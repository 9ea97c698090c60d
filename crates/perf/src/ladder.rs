//! The paper's speedup ladder (§III narrative, summarized in §IV).

use crate::calib;
use crate::fabric::tincy_cost;
use crate::pipeline_model::{pipelined_fps, PipelineModel};
use crate::stages::{StageBudget, StageId};
use tincy_finn::engine::EngineConfig;

/// One rung of the speedup ladder.
#[derive(Debug, Clone, PartialEq)]
pub struct LadderStep {
    /// Optimization name.
    pub name: &'static str,
    /// Paper section the step comes from.
    pub section: &'static str,
    /// Modelled frame time (sequential stages; ms).
    pub frame_ms: f64,
    /// Modelled frame rate (fps; pipelined for the final step).
    pub fps: f64,
    /// The paper's reported rate at this point, if stated.
    pub paper_fps: Option<f64>,
}

/// Builds the full ladder from the calibrated baseline, applying each §III
/// measure in order. The fabric time comes from the FINN cycle model; the
/// NEON steps use the paper's measured kernel times (our Rust kernels
/// cross-check the *ratios* in `tincy-bench`).
pub fn speedup_ladder() -> Vec<LadderStep> {
    let mut steps = Vec::new();
    let baseline = StageBudget::paper_baseline();
    steps.push(LadderStep {
        name: "generic Darknet inference (float, scalar)",
        section: "III-C",
        frame_ms: baseline.total_ms(),
        fps: baseline.sequential_fps(),
        paper_fps: Some(0.1),
    });

    // §III-C: offload all hidden layers to the QNN accelerator.
    let fabric_ms = tincy_cost(EngineConfig::default()).ms();
    let offloaded = baseline.with(StageId::HiddenLayers, fabric_ms);
    steps.push(LadderStep {
        name: "+ FINN QNN accelerator for all hidden layers",
        section: "III-C",
        frame_ms: offloaded.total_ms(),
        fps: offloaded.sequential_fps(),
        paper_fps: Some(1.0),
    });

    // §III-D: gemmlowp input layer (2.2x on the input stage).
    let lowp = offloaded.sped_up(StageId::InputLayer, calib::GEMMLOWP_SPEEDUP);
    steps.push(LadderStep {
        name: "+ gemmlowp 8-bit input layer (2.2x)",
        section: "III-D",
        frame_ms: lowp.total_ms(),
        fps: lowp.sequential_fps(),
        paper_fps: None,
    });

    // §III-D: the fully customized 16x27 kernel with 16-bit accumulators.
    let custom = offloaded.with(StageId::InputLayer, calib::CUSTOM_I16_MS);
    steps.push(LadderStep {
        name: "+ custom 16x27 NEON kernel, i16 accumulators (620 -> 120 ms)",
        section: "III-D",
        frame_ms: custom.total_ms(),
        fps: custom.sequential_fps(),
        paper_fps: Some(2.5),
    });

    // §III-E: transformation (d) replaces input conv + max pool with one
    // lean stride-2 convolution.
    let lean = custom
        .with(StageId::InputLayer, calib::LEAN_INPUT_CONV_MS)
        .with(StageId::MaxPool, 0.0);
    steps.push(LadderStep {
        name: "+ algorithmic simplification (d): lean 35 ms input conv",
        section: "III-E",
        frame_ms: lean.total_ms(),
        fps: lean.sequential_fps(),
        paper_fps: Some(5.0),
    });

    // §III-F: pipelined demo mode over four cores.
    let fps = pipelined_fps(&lean, PipelineModel::default());
    steps.push(LadderStep {
        name: "+ pipelined demo mode (4 worker threads)",
        section: "III-F",
        frame_ms: 1000.0 / fps,
        fps,
        paper_fps: Some(calib::PIPELINED_FPS),
    });

    steps
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_is_monotonically_faster() {
        let steps = speedup_ladder();
        for pair in steps.windows(2) {
            assert!(
                pair[1].fps > pair[0].fps,
                "{} ({} fps) not faster than {} ({} fps)",
                pair[1].name,
                pair[1].fps,
                pair[0].name,
                pair[0].fps
            );
        }
    }

    #[test]
    fn every_paper_milestone_is_within_shape() {
        for step in speedup_ladder() {
            if let Some(paper) = step.paper_fps {
                let ratio = step.fps / paper;
                assert!(
                    (0.65..1.6).contains(&ratio),
                    "{}: modelled {:.2} fps vs paper {:.2} fps (ratio {ratio:.2})",
                    step.name,
                    step.fps,
                    paper
                );
            }
        }
    }

    #[test]
    fn overall_speedup_matches_the_160x_claim() {
        let steps = speedup_ladder();
        let overall = steps.last().unwrap().fps / steps.first().unwrap().fps;
        assert!(
            (120.0..200.0).contains(&overall),
            "overall modelled speedup {overall:.0}x vs paper's 160x"
        );
    }

    #[test]
    fn offload_step_yields_eleven_x_net() {
        // §III-C: "the net effect reduces to an 11x speedup".
        let steps = speedup_ladder();
        let net = steps[1].fps / steps[0].fps;
        assert!((9.0..13.0).contains(&net), "net offload speedup {net:.1}x");
    }
}
