//! The end-to-end pipelined demo mode (Fig 5).
//!
//! "#0 Read Frame, #1 Letter Boxing, #2..N+1 the network layers, N+2 Object
//! Boxing, N+3 Frame Drawing" — executed on the worker-pool pipeline of
//! `tincy-pipeline` with the hidden layers running on the simulated fabric
//! accelerator. The pipeline is four stages longer than the underlying
//! network, exactly as in the paper.

use crate::build::{
    arm_offload_resilience, build_network_for, region_decoder, SystemConfig, NMS_IOU,
};
use tincy_eval::{nms, Detection};
use tincy_nn::{NnError, OffloadStats};
use tincy_pipeline::{FnStage, Pipeline, PipelineMetrics, Stage};
use tincy_tensor::{Shape3, Tensor};
use tincy_video::{draw_detections, Image, SceneConfig, SyntheticCamera};

/// Demo-run configuration.
#[derive(Debug, Clone)]
pub struct DemoConfig {
    /// Frames to stream.
    pub frames: u64,
    /// System (network + fabric) configuration.
    pub system: SystemConfig,
    /// Worker threads (the paper pins one per A53 core: 4).
    pub workers: usize,
    /// Detection score threshold.
    pub score_threshold: f32,
    /// Synthetic scene parameters.
    pub scene: SceneConfig,
}

impl Default for DemoConfig {
    fn default() -> Self {
        Self {
            frames: 12,
            system: SystemConfig {
                input_size: 128,
                ..Default::default()
            },
            workers: 4,
            score_threshold: 0.2,
            scene: SceneConfig::default(),
        }
    }
}

/// Result of a demo run.
#[derive(Debug, Clone)]
pub struct DemoReport {
    /// Pipeline metrics (frame rate, per-stage occupancy, ordering,
    /// degraded-frame count).
    pub metrics: PipelineMetrics,
    /// Total detections drawn across all frames.
    pub detections: u64,
    /// Offload health counters accumulated over the run (faults observed,
    /// retries issued, CPU fallbacks taken).
    pub offload: OffloadStats,
    /// Detections per frame, in delivery (= source) order — lets callers
    /// compare degraded runs against fault-free runs byte for byte.
    pub frame_detections: Vec<Vec<Detection>>,
}

/// One frame travelling through the demo pipeline.
struct DemoFrame {
    image: Image,
    fmap: Tensor<f32>,
    detections: Vec<Detection>,
}

/// Runs the pipelined demo end to end.
///
/// # Errors
///
/// Returns [`NnError`] if the network cannot be assembled.
pub fn run_demo(config: &DemoConfig) -> Result<DemoReport, NnError> {
    let model = config.system.model();
    let net = build_network_for(&model, config.system.fault_plan)?;
    let decoder = region_decoder(&model.network)?;

    let input_size = config.system.input_size;
    let mut camera =
        SyntheticCamera::with_limit(config.scene.clone(), config.system.seed, config.frames);
    let score_threshold = config.score_threshold;

    // Stage #1: letter boxing (split out of acquisition, §III-F).
    let mut stages: Vec<Box<dyn Stage<DemoFrame>>> =
        vec![FnStage::boxed("letterbox", move |mut frame: DemoFrame| {
            frame.fmap = frame.image.letterboxed(input_size).into_tensor();
            frame
        })];
    // Stages #2..N+1: one stage per network layer; the offload stage is a
    // tight wrapper around the accelerated computation (§III-F). Each
    // stage frees its input slot as it takes the frame, so the first conv
    // and the drawing run beside the offload stage, not ahead of it: given
    // workers enough for the other stages, the offload stage alone sets
    // the frame period. The offload layer gets the system's retry/fallback
    // policy, and its health counter doubles as the pipeline's degradation
    // probe.
    let mut layers = net.into_layers();
    let health = arm_offload_resilience(&mut layers, &config.system);
    for (i, layer) in layers.into_iter().enumerate() {
        let name = format!("L[{i}] {}", layer.kind());
        stages.push(FnStage::boxed(name, move |mut frame: DemoFrame| {
            frame.fmap = layer
                .forward(&frame.fmap)
                .expect("layer shapes are consistent by construction");
            frame
        }));
    }
    // Stage N+2: object boxing.
    stages.push(FnStage::boxed(
        "object boxing",
        move |mut frame: DemoFrame| {
            frame.detections = nms(decoder.decode(&frame.fmap, score_threshold), NMS_IOU);
            frame
        },
    ));
    // Stage N+3: frame drawing.
    stages.push(FnStage::boxed("frame drawing", |mut frame: DemoFrame| {
        draw_detections(&mut frame.image, &frame.detections);
        frame
    }));

    let collected = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
    let sink_frames = std::sync::Arc::clone(&collected);
    let mut pipeline = Pipeline::new(move || {
        camera.capture().map(|image| DemoFrame {
            image,
            fmap: Tensor::zeros(Shape3::new(1, 1, 1)),
            detections: Vec::new(),
        })
    })
    .with_stages(stages);
    if let Some(h) = &health {
        let probe = h.clone();
        pipeline = pipeline.with_degradation_probe(move || probe.degraded());
    }
    let metrics = pipeline.run(
        move |frame: DemoFrame| {
            sink_frames
                .lock()
                .expect("sink mutex")
                .push(frame.detections);
        },
        config.workers,
    );

    let frame_detections = std::mem::take(&mut *collected.lock().expect("sink mutex"));
    Ok(DemoReport {
        metrics,
        detections: frame_detections.iter().map(|d| d.len() as u64).sum(),
        offload: health.map(|h| h.snapshot()).unwrap_or_default(),
        frame_detections,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config(frames: u64, workers: usize) -> DemoConfig {
        DemoConfig {
            frames,
            system: SystemConfig {
                input_size: 32,
                seed: 2,
                ..Default::default()
            },
            workers,
            score_threshold: 0.0,
            scene: SceneConfig {
                width: 48,
                height: 36,
                ..Default::default()
            },
        }
    }

    #[test]
    fn demo_processes_all_frames_in_order() {
        let report = run_demo(&small_config(6, 4)).unwrap();
        assert_eq!(report.metrics.frames, 6);
        assert!(report.metrics.in_order);
    }

    #[test]
    fn pipeline_is_four_stages_longer_than_the_network() {
        // Fig 5: the pipeline is four stages longer than the network —
        // source (#0), letterbox (#1), boxing (N+2) and drawing (N+3)
        // around the N = 4 network layers. The metrics add one sink row:
        // 4 layers + 4 extra stages + sink = 9 rows.
        let report = run_demo(&small_config(2, 2)).unwrap();
        assert_eq!(report.metrics.stages.len(), 9);
        assert_eq!(report.metrics.stages[0].name, "source");
        assert_eq!(report.metrics.stages[1].name, "letterbox");
        assert_eq!(report.metrics.stages.last().unwrap().name, "sink");
    }

    #[test]
    fn every_stage_processes_every_frame() {
        let report = run_demo(&small_config(5, 3)).unwrap();
        for stage in &report.metrics.stages[1..report.metrics.stages.len() - 1] {
            assert_eq!(stage.invocations, 5, "stage {}", stage.name);
        }
    }

    #[test]
    fn single_worker_demo_still_completes() {
        let report = run_demo(&small_config(3, 1)).unwrap();
        assert_eq!(report.metrics.frames, 3);
        assert!(report.metrics.in_order);
    }

    #[test]
    fn fault_free_run_reports_no_degradation() {
        let report = run_demo(&small_config(4, 2)).unwrap();
        assert_eq!(report.metrics.degraded, 0);
        assert_eq!(report.offload.faults, 0);
        assert_eq!(report.offload.fallbacks, 0);
        assert_eq!(report.offload.forwards, 4);
        assert_eq!(report.frame_detections.len(), 4);
        let total: u64 = report.frame_detections.iter().map(|d| d.len() as u64).sum();
        assert_eq!(total, report.detections);
    }

    #[test]
    fn degraded_run_matches_fault_free_run_exactly() {
        use tincy_finn::FaultPlan;
        let clean = run_demo(&small_config(6, 4)).unwrap();

        // A mid-run outage longer than the retry budget forces CPU
        // fallback; detections must not change, frame for frame.
        let mut config = small_config(6, 4);
        config.system.fault_plan = FaultPlan::outage(2, 5);
        let degraded = run_demo(&config).unwrap();

        assert_eq!(degraded.metrics.frames, 6);
        assert!(degraded.metrics.in_order);
        assert!(degraded.offload.faults > 0);
        assert!(
            degraded.offload.fallbacks > 0,
            "outage outlasts the retry budget"
        );
        assert!(degraded.metrics.degraded > 0);
        assert_eq!(
            degraded.frame_detections, clean.frame_detections,
            "CPU fallback is bit-exact, so detections are identical"
        );

        // Determinism: the same plan + seed reproduces the same degraded
        // run byte for byte.
        let replay = run_demo(&config).unwrap();
        assert_eq!(replay.frame_detections, degraded.frame_detections);
        assert_eq!(replay.offload, degraded.offload);
    }
}
