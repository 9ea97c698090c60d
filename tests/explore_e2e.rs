//! An explore-selected design point must be instantiable end-to-end: the
//! `ModelSpec` the sweep emits builds into a servable network, and the
//! fabric path stays bit-exact with the CPU reference — without any code
//! changes between design points.

use tincy_core::SystemConfig;
use tincy_explore::{run_sweep, DesignPoint, SweepConfig};
use tincy_nn::ModelSpec;
use tincy_serve::ServeEngine;
use tincy_tensor::Shape3;
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
