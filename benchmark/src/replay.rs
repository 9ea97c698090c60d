//! Frame-path replay: the benchmark itself walks each input through the
//! public per-layer calls, single-threaded, each call inside a child span
//! of the frame's span. This is the Table III shape — stage times that
//! must add up to the end-to-end time — so the replay also runs
//! `ServeEngine::process_batch` on the same frame and reports how much of
//! it the stage spans cover.

use crate::fixture::{Pool, SCORE_THRESHOLD};
use crate::spans::Recorder;
use crate::stats;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};
use tincy_core::SystemConfig;
use tincy_eval::nms;
use tincy_finn::{ConvEngine, FabricBackend, FaultPlan, QnnAccelerator};
use tincy_nn::{Layer, LayerSpec, OffloadHealth, RegionLayer, RegionParams};
use tincy_serve::ServeEngine;
use tincy_tensor::Tensor;
use tincy_video::draw_detections;

/// Hidden layers of the Tincy stack (span names must be static).
pub const HIDDEN_LAYERS: usize = 7;
pub const FINN_LAYER_SPANS: [&str; HIDDEN_LAYERS] = [
    "finn.layer.0",
    "finn.layer.1",
    "finn.layer.2",
    "finn.layer.3",
    "finn.layer.4",
    "finn.layer.5",
    "finn.layer.6",
];
pub const KERNEL_LAYER_SPANS: [&str; HIDDEN_LAYERS] = [
    "kernels.layer.0",
    "kernels.layer.1",
    "kernels.layer.2",
    "kernels.layer.3",
    "kernels.layer.4",
    "kernels.layer.5",
    "kernels.layer.6",
];
/// The stages `ServeEngine::process_batch` is made of; their self times
/// are what [`Replay::coverage`] adds up.
const PATH_SPANS: [&str; 6] = [
    "video.letterbox",
    "nn.first_conv",
    "nn.offload_fabric",
    "nn.last_conv",
    "nn.region",
    "eval.decode_nms",
];
/// NMS IoU threshold of the demo and serve paths.
const NMS_IOU: f32 = 0.45;

/// The offloaded network, split the way the serving engine splits it.
pub struct FramePath {
    input_size: usize,
    layers: Vec<Box<dyn Layer>>,
    offload_idx: usize,
    decoder: RegionLayer,
    health: OffloadHealth,
}

impl FramePath {
    pub fn build(system: &SystemConfig) -> Self {
        let model = system.model();
        let net = tincy_core::build_network_for(&model, system.fault_plan).expect("network builds");
        let spec = tincy_core::offloaded_spec_of(&model);
        let region: RegionParams = match spec.layers.last() {
            Some(LayerSpec::Region(r)) => RegionParams::from(r),
            _ => panic!("the Tincy network ends in a region layer"),
        };
        let decoder = RegionLayer::new(spec.input_shape_of(spec.layers.len() - 1), region)
            .expect("decoder builds");
        let mut layers = net.into_layers();
        let health = tincy_core::arm_offload_resilience(&mut layers, system)
            .expect("the Tincy network has an offload layer");
        let offload_idx = tincy_core::offload_position(&mut layers).expect("offload layer");
        assert_eq!(offload_idx, 1, "first conv, then the offloaded stack");
        assert_eq!(layers.len(), 4, "first conv, offload, last conv, region");
        Self {
            input_size: system.input_size,
            layers,
            offload_idx,
            decoder,
            health,
        }
    }

    /// The fabric backend behind the offload layer.
    fn fabric(&mut self) -> &FabricBackend {
        self.layers[self.offload_idx]
            .as_offload_mut()
            .expect("offload layer")
            .backend()
            .as_any()
            .downcast_ref::<FabricBackend>()
            .expect("the fabric backend")
    }

    /// A copy of the simulated accelerator behind the offload layer.
    pub fn accelerator(&mut self) -> QnnAccelerator {
        self.fabric()
            .accelerator()
            .expect("accelerator built at init")
            .clone()
    }
}

/// What the replay found, beyond the spans it recorded.
pub struct Replay {
    pub frames: usize,
    /// Σ self time of a frame's path stages ÷ `process_batch` time of the
    /// same frame; the median over the frames.
    pub coverage: f64,
    /// Offload self time ÷ Σ path self time of a frame; the median.
    pub offload_share: f64,
    /// Detections over the replayed frames (exact).
    pub detections: u64,
    /// Retries per offload call under a full outage (exact).
    pub retries_per_call: f64,
    /// Simulated cycles per hidden layer for one frame (exact).
    pub layer_cycles: Vec<u64>,
    pub cycles_per_frame: u64,
    pub swap_cycles_per_invocation: u64,
    pub ops_per_frame: u64,
    pub violations: Vec<String>,
}

/// Keeps the first few violations (one broken layer breaks every frame).
fn violate(what: String, out: &mut Replay) {
    if out.violations.len() < 8 {
        out.violations.push(what);
    }
}

/// Replays pool frames until `budget` is spent (at least 8, at most
/// `max_frames`).
pub fn replay(
    system: &SystemConfig,
    pool: &Pool,
    max_frames: usize,
    budget: Duration,
    rec: &mut Recorder,
) -> Replay {
    let started = Instant::now();
    let mut path = FramePath::build(system);
    let mut faulted = FramePath::build(&SystemConfig {
        fault_plan: FaultPlan::outage(0, u64::MAX),
        ..*system
    });
    let accel = path.accelerator();
    assert_eq!(accel.layers().len(), HIDDEN_LAYERS, "Tincy hidden stack");
    let step = path.fabric().act_step();
    let engine = ConvEngine::new(system.engine).expect("engine");
    let mut serve_finn = ServeEngine::finn(system, SCORE_THRESHOLD).expect("finn engine");
    let mut serve_cpu = ServeEngine::cpu(system, SCORE_THRESHOLD).expect("cpu engine");

    let mut out = Replay {
        frames: 0,
        coverage: 0.0,
        offload_share: 0.0,
        detections: 0,
        retries_per_call: 0.0,
        layer_cycles: Vec::new(),
        cycles_per_frame: 0,
        swap_cycles_per_invocation: accel.swap_cycles_per_invocation(),
        ops_per_frame: accel.total_ops(),
        violations: Vec::new(),
    };
    // Offload inputs and outputs of the current group of four frames.
    let mut group_in: Vec<Tensor<f32>> = Vec::new();
    let mut group_out: Vec<Tensor<f32>> = Vec::new();

    let limit = max_frames.min(pool.images.len());
    for (i, image) in pool.images.iter().take(limit).enumerate() {
        if i >= 8 && started.elapsed() >= budget {
            break;
        }
        let id = i as u64;
        let frame = rec.enter("frame", id);

        let s = rec.enter("video.letterbox", id);
        let input = image.letterboxed(path.input_size).into_tensor();
        rec.exit(s);

        let s = rec.enter("nn.first_conv", id);
        let fmap = path.layers[0].forward(&input).expect("first conv");
        rec.exit(s);

        let offload = path.layers[1].as_offload_mut().expect("offload layer");
        let s = rec.enter("nn.offload_fabric", id);
        let hidden = offload
            .forward_batch(std::slice::from_ref(&fmap))
            .expect("offload of one")
            .pop()
            .expect("one output");
        rec.exit(s);

        let s = rec.enter("nn.last_conv", id);
        let head = path.layers[2].forward(&hidden).expect("last conv");
        rec.exit(s);

        let s = rec.enter("nn.region", id);
        let activated = path.layers[3].forward(&head).expect("region");
        rec.exit(s);

        let s = rec.enter("eval.decode_nms", id);
        let detections = nms(path.decoder.decode(&activated, SCORE_THRESHOLD), NMS_IOU);
        rec.exit(s);

        let mut canvas = image.clone();
        let s = rec.enter("video.draw", id);
        draw_detections(&mut canvas, &detections);
        rec.exit(s);

        if detections != pool.reference[i] {
            violate(
                format!("frame {i}: replay detections differ from the reference"),
                &mut out,
            );
        }
        out.detections += detections.len() as u64;

        // The same segment the other ways the system can run it.
        let offload = path.layers[1].as_offload_mut().expect("offload layer");
        let s = rec.enter("nn.offload_host", id);
        let on_host = offload.forward_host(&fmap).expect("host offload");
        rec.exit(s);
        if on_host != hidden {
            violate(
                format!("frame {i}: forward_host differs from the fabric"),
                &mut out,
            );
        }

        let before = faulted.health.snapshot();
        let faulted_offload = faulted.layers[1].as_offload_mut().expect("offload layer");
        let s = rec.enter("nn.offload_faulted", id);
        let degraded = faulted_offload
            .forward_batch(std::slice::from_ref(&fmap))
            .expect("fallback absorbs the outage")
            .pop()
            .expect("one output");
        rec.exit(s);
        let after = faulted.health.snapshot();
        if degraded != hidden || after.fallbacks != before.fallbacks + 1 {
            violate(
                format!("frame {i}: outage path wrong or not a fallback"),
                &mut out,
            );
        }

        group_in.push(fmap.clone());
        group_out.push(hidden.clone());
        if group_in.len() == 4 {
            let offload = path.layers[1].as_offload_mut().expect("offload layer");
            let s = rec.enter("nn.offload_batch4", id);
            let batched = offload.forward_batch(&group_in).expect("offload of four");
            rec.exit(s);
            if batched != group_out {
                violate(
                    format!("frame {i}: batch of 4 differs from singles"),
                    &mut out,
                );
            }
            let images = &pool.images[i - 3..=i];
            let s = rec.enter("serve.process_batch4", id);
            let served = serve_finn
                .process_batch(images)
                .expect("engine batch of four");
            rec.exit(s);
            if served != pool.reference[i - 3..=i] {
                violate(format!("frame {i}: process_batch(4) differs"), &mut out);
            }
            group_in.clear();
            group_out.clear();
        }

        // The hidden stack layer by layer: simulator and packed kernels.
        let quantized: Tensor<u8> = fmap.map(|v| ((v / step).round().clamp(0.0, 7.0)) as u8);
        let s = rec.enter("finn.run", id);
        let (levels, report) = accel.run(&quantized).expect("accelerator runs");
        rec.exit(s);
        let s = rec.enter("kernels.reference_run", id);
        let packed_levels = accel.reference_run(&quantized).expect("packed path runs");
        rec.exit(s);
        if levels != packed_levels || levels.map(|l| f32::from(l) * step) != hidden {
            violate(
                format!("frame {i}: accelerator and packed path disagree"),
                &mut out,
            );
        }

        let mut cycles = Vec::with_capacity(HIDDEN_LAYERS);
        let layers_span = rec.enter("finn.layers", id);
        let mut x = quantized.clone();
        let mut per_layer_inputs = Vec::with_capacity(HIDDEN_LAYERS);
        for (k, params) in accel.layers().iter().enumerate() {
            let s = rec.enter(FINN_LAYER_SPANS[k], id);
            let (y, layer_cycles) = engine.run_layer(params, &x).expect("layer runs");
            rec.exit(s);
            cycles.push(layer_cycles);
            per_layer_inputs.push(std::mem::replace(&mut x, y));
        }
        rec.exit(layers_span);
        let kernels_span = rec.enter("kernels.layers", id);
        let mut last = None;
        for (k, (packed, input)) in accel
            .packed_layers()
            .iter()
            .zip(&per_layer_inputs)
            .enumerate()
        {
            let entry = accel.kernel_plan().entry(k);
            let s = rec.enter(KERNEL_LAYER_SPANS[k], id);
            let y = packed.forward(input, entry.variant, entry.threads);
            rec.exit(s);
            if let Some(next) = per_layer_inputs.get(k + 1) {
                if &y != next {
                    violate(format!("frame {i}: packed layer {k} differs"), &mut out);
                }
            }
            last = Some(y);
        }
        rec.exit(kernels_span);
        if last.as_ref() != Some(&x) || x != levels {
            violate(
                format!("frame {i}: per-layer walk differs from the whole run"),
                &mut out,
            );
        }
        if out.layer_cycles.is_empty() {
            out.layer_cycles = cycles;
            out.cycles_per_frame = report.cycles_per_frame();
        } else if out.layer_cycles != cycles || out.cycles_per_frame != report.cycles_per_frame() {
            violate(
                format!("frame {i}: simulated cycles changed between frames"),
                &mut out,
            );
        }

        // What the serving engine makes of the same frame.
        let s = rec.enter("serve.process_batch", id);
        let served = serve_finn
            .process_batch(std::slice::from_ref(image))
            .expect("engine batch of one");
        rec.exit(s);
        let s = rec.enter("serve.process_host", id);
        let hosted = serve_cpu.process_host(image).expect("engine host path");
        rec.exit(s);
        if served[0] != pool.reference[i] || hosted != pool.reference[i] {
            violate(
                format!("frame {i}: serving engine differs from the reference"),
                &mut out,
            );
        }

        rec.exit(frame);
        out.frames += 1;
    }

    let stats = faulted.health.snapshot();
    #[allow(clippy::cast_precision_loss)]
    if out.frames > 0 {
        out.retries_per_call = stats.retries as f64 / out.frames as f64;
    }
    // Frame by frame: the stage self times over `process_batch` of the
    // same frame. The two are measured moments apart on one input, so the
    // host's speed drift cancels; the median over the frames, so a stall
    // inside one call decides nothing.
    let self_ns = rec.self_ns();
    let mut stages: BTreeMap<u64, f64> = BTreeMap::new();
    let mut offload: BTreeMap<u64, f64> = BTreeMap::new();
    let mut whole: BTreeMap<u64, f64> = BTreeMap::new();
    #[allow(clippy::cast_precision_loss)]
    for (span, &own) in rec.spans().iter().zip(&self_ns) {
        if PATH_SPANS.contains(&span.name) {
            *stages.entry(span.id).or_default() += own as f64;
            if span.name == "nn.offload_fabric" {
                offload.insert(span.id, own as f64);
            }
        } else if span.name == "serve.process_batch" {
            whole.insert(span.id, span.duration_ns() as f64);
        }
    }
    let per_frame = |num: &BTreeMap<u64, f64>, den: &BTreeMap<u64, f64>| -> f64 {
        let ratios: Vec<f64> = num
            .iter()
            .filter_map(|(id, n)| den.get(id).filter(|d| **d > 0.0).map(|d| n / d))
            .collect();
        stats::median(&ratios)
    };
    out.coverage = per_frame(&stages, &whole);
    out.offload_share = per_frame(&offload, &stages);
    out
}
