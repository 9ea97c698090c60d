//! An explore-selected design point must be instantiable end-to-end: the
//! `ModelSpec` the sweep emits builds into a servable network, and the
//! fabric path stays bit-exact with the CPU reference — without any code
//! changes between design points — runs the activation precision the
//! design declares, and builds, bills and clocks the offload segment the
//! cost model prices.

use tincy_core::{build_network_for, offload_position, SystemConfig};
use tincy_explore::{run_sweep, DesignPoint, EditSet, HiddenProfile, SweepConfig};
use tincy_finn::{model_estimate, FabricBackend, FaultPlan, QnnAccelerator, SegmentCost};
use tincy_nn::{ModelSpec, OffloadSegment};
use tincy_serve::ServeEngine;
use tincy_tensor::{Shape3, Tensor};
use tincy_video::{Image, SceneConfig, SyntheticCamera};

fn frames(n: u64) -> Vec<Image> {
    let scene = SceneConfig {
        width: 48,
        height: 36,
        ..Default::default()
    };
    let mut camera = SyntheticCamera::with_limit(scene, 11, n);
    std::iter::from_fn(|| camera.capture()).collect()
}

/// Scales a design's 416×416 model down so the probe stays fast; the
/// topology, folding and precisions are untouched.
fn shrunk(point: DesignPoint, input: usize) -> ModelSpec {
    let mut model = point.model();
    model.network.input = Shape3::new(model.network.input.channels, input, input);
    model.network.validate().expect("scaled network validates");
    model
}

/// Picks `n` distinct frontier points that exercise the fabric but are
/// *not* the paper's shipped configuration.
fn non_paper_offloaded_points(n: usize) -> Vec<DesignPoint> {
    let config = SweepConfig {
        pe_bounds: (4, 16),
        simd_bounds: (4, 16),
        ..SweepConfig::default()
    };
    let report = run_sweep(&config);
    let points: Vec<DesignPoint> = report
        .frontier_points()
        .map(|p| p.point)
        .filter(|p| p.profile.offloadable() && *p != DesignPoint::PAPER)
        .take(n)
        .collect();
    assert_eq!(
        points.len(),
        n,
        "frontier holds {n} offloaded non-paper designs"
    );
    points
}

fn assert_bit_exact(model: &ModelSpec) {
    let system = SystemConfig::default();
    let engine = ServeEngine::finn_for_model(model, &system, 0.0).expect("engine builds");
    let images = frames(3);
    let batched = engine.process_batch(&images).expect("fabric batch runs");
    for (image, expected) in images.iter().zip(&batched) {
        let host = engine.process_host(image).expect("host path runs");
        assert_eq!(&host, expected, "fabric and host detections diverge");
    }
}

#[test]
fn explore_selected_designs_probe_bit_exact() {
    // Two distinct non-paper frontier picks: instantiating several
    // quantization variants from the same frontier is exactly what
    // `tincy serve --variants` does, so both must probe bit-exact
    // through the unchanged engine path.
    let points = non_paper_offloaded_points(2);
    assert_ne!(points[0], points[1]);
    for point in points {
        assert_ne!(point, DesignPoint::PAPER);
        assert_bit_exact(&shrunk(point, 64));
    }
}

#[test]
fn paper_design_probes_bit_exact_through_the_same_path() {
    assert_bit_exact(&shrunk(DesignPoint::PAPER, 64));
}

/// A `[W1A1]` design runs one activation bit on the fabric, not the
/// paper's three: its rung serves other detections than the `[W1A3]`
/// point with the same edits and fold, and every hidden layer folds one
/// threshold per channel, so its outputs are level 0 or 1 — 0 or one
/// activation step.
#[test]
fn w1a1_designs_run_one_activation_bit_on_the_fabric() {
    let w1a1 = shrunk(
        DesignPoint {
            profile: HiddenProfile::W1A1,
            ..DesignPoint::PAPER
        },
        64,
    );
    let system = SystemConfig::default();
    let images = frames(8);
    let detections = |model: &ModelSpec| {
        let engine = ServeEngine::finn_for_model(model, &system, 0.0).expect("engine builds");
        engine.process_batch(&images).expect("fabric batch runs")
    };
    assert_ne!(
        detections(&w1a1),
        detections(&shrunk(DesignPoint::PAPER, 64))
    );

    let accel = accelerator_of(&w1a1);
    for layer in accel.layers() {
        assert!(layer.thresholds().iter().all(|set| set.len() == 1));
    }
    let input = Tensor::from_fn(accel.input_shape(), |c, y, x| ((c + y + 3 * x) % 8) as u8);
    let (levels, _) = accel.run(&input).unwrap();
    assert!(levels.as_slice().iter().all(|&level| level <= 1));
}

/// The accelerator `build_network_for` puts behind a model's offload layer.
fn accelerator_of(model: &ModelSpec) -> QnnAccelerator {
    let mut layers = build_network_for(model, FaultPlan::none())
        .expect("network builds")
        .into_layers();
    let offload = offload_position(&mut layers).expect("an offload layer");
    let backend = layers[offload].as_offload().unwrap().backend();
    let fabric: &FabricBackend = backend.as_any().downcast_ref().unwrap();
    fabric.accelerator().unwrap().clone()
}

/// Every deployable design point (each edit subset with (a) × each
/// offloadable profile, at the shipped fold and one other legal fold)
/// builds exactly its offload segment through `build_network_for`, bills
/// it as the cost model does and is charged the modelled cycles.
#[test]
fn every_deployable_design_builds_bills_and_clocks_its_segment() {
    use HiddenProfile::{MixedA3A1, W1A1, W1A3};
    for edits in EditSet::ALL.into_iter().filter(|e| e.a) {
        for profile in [W1A3, W1A1, MixedA3A1] {
            let shipped = DesignPoint {
                edits,
                profile,
                ..DesignPoint::PAPER
            };
            for point in [
                shipped,
                DesignPoint {
                    pe: 8,
                    simd: 4,
                    ..shipped
                },
            ] {
                let id = point.id();
                assert!(point.legal_fold().is_ok(), "{id}");
                let model = shrunk(point, 32);
                let segment = OffloadSegment::of(&model.network).expect("deployable");
                let cost = SegmentCost::of(&segment, model.fold);
                let accel = accelerator_of(&model);

                assert_eq!(accel.layers().len(), segment.layers().len(), "{id}");
                for (layer, planned) in accel.layers().iter().zip(segment.layers()) {
                    let conv = &planned.conv;
                    assert_eq!(layer.in_shape(), planned.in_shape, "{id}");
                    assert_eq!(layer.out_shape(), planned.out_shape(), "{id}");
                    assert_eq!(layer.weights().rows(), conv.filters, "{id}");
                    assert_eq!(layer.geom(), conv.geom(), "{id}");
                    assert_eq!(layer.pool(), planned.pool.map(|p| p.geom()), "{id}");
                    assert_eq!(layer.levels(), planned.levels(), "{id}");
                }
                let bill = model_estimate(&model).expect("deployable");
                assert_eq!(accel.engine_resources(), bill, "{id}");
                let (_, report) = accel.run(&Tensor::zeros(accel.input_shape())).unwrap();
                assert_eq!(report.layer_cycles, cost.layer_cycles, "{id}");
                assert_eq!(report.weight_swap_cycles, cost.swap_cycles, "{id}");
                assert_eq!(accel.swap_cycles_per_invocation(), cost.swap_cycles, "{id}");
            }
        }
    }
}
