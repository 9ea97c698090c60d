//! Multi-variant serving invariants, exercised end to end through the
//! public `tincy::serve` API: one fabric worker serving every rung,
//! per-variant bit-exactness under a seeded FINN outage, the rung gap in
//! simulated device cycles, and seeded-run fingerprint determinism. The
//! burn-driven demote/promote cycle and in-order delivery across a
//! mid-flight shift raise the burn through the scheduler's own calls, so
//! they live with it (`crates/serve/src/server.rs`).

use std::collections::{BTreeSet, HashMap};
use tincy::core::{build_network_for, offload_position, SystemConfig};
use tincy::explore::DesignPoint;
use tincy::finn::{AccelReport, FabricBackend, FaultPlan};
use tincy::serve::{
    run_load, ArrivalPattern, FleetConfig, InferenceServer, LoadConfig, ServeConfig, ServeEngine,
    ServeVariant, SloClass, VariantLadder,
};
use tincy::telemetry::SloPolicy;
use tincy::tensor::{Shape3, Tensor};
use tincy::trace::exclusive;
use tincy::video::{Image, SceneConfig, SyntheticCamera};

/// The paper design point rescaled to a square `input`-px frame.
fn variant_model(input: usize) -> tincy::nn::ModelSpec {
    let mut model = DesignPoint::PAPER.model();
    let channels = model.network.input.channels;
    model.network.input = Shape3::new(channels, input, input);
    model
}

/// A two-rung ladder: cheap 32-px rung below an accurate 48-px rung.
fn two_rungs() -> VariantLadder {
    VariantLadder::new(vec![
        ServeVariant {
            name: "cheap".to_owned(),
            model: variant_model(32),
            accuracy: 41.1,
        },
        ServeVariant {
            name: "accurate".to_owned(),
            model: variant_model(48),
            accuracy: 48.5,
        },
    ])
    .unwrap()
}

/// One frame through a rung's simulated fabric: the invocation's timing
/// report, in device cycles.
fn rung_report(input: usize) -> AccelReport {
    let model = variant_model(input);
    let net = build_network_for(&model, FaultPlan::none()).unwrap();
    let mut layers = net.into_layers();
    let offload = offload_position(&mut layers).unwrap();
    let backend = layers[offload].as_offload().unwrap().backend();
    let fabric: &FabricBackend = backend.as_any().downcast_ref().unwrap();
    let accel = fabric.accelerator().unwrap();
    accel.run(&Tensor::zeros(accel.input_shape())).unwrap().1
}

#[test]
fn accurate_rung_costs_over_twice_the_cheap_rungs_device_cycles() {
    // "Routing the tight class to the cheap rung pays" is a claim about
    // the modelled device, so it is held on the device's clock: exact
    // simulated cycles of the paper point's 16x16 fold at 32 px and 64 px
    // (4x the pixels), not a host p99 that moves 2x between identical
    // runs. Both rungs stream the same weights, so the per-invocation
    // swap is equal and narrows the per-frame gap below the compute gap.
    let (cheap, accurate) = (rung_report(32), rung_report(64));
    let compute = |r: &AccelReport| r.layer_cycles.iter().sum::<u64>();
    assert_eq!((compute(&cheap), compute(&accurate)), (52_480, 204_544));
    assert_eq!(cheap.weight_swap_cycles, 49_320);
    assert_eq!(accurate.weight_swap_cycles, 49_320);
    assert_eq!(cheap.cycles_per_frame(), 101_800);
    assert_eq!(accurate.cycles_per_frame(), 253_864);
    assert!(accurate.cycles_per_frame() >= 2 * cheap.cycles_per_frame());
}

/// A ladder config that never shifts on its own: an error-budget policy
/// no burn rate can exceed.
fn ladder_config(fault_plan: FaultPlan) -> ServeConfig {
    ServeConfig {
        system: SystemConfig {
            input_size: 32,
            seed: 5,
            fault_plan,
            ..Default::default()
        },
        variants: Some(two_rungs()),
        cpu_workers: 1,
        max_batch: 3,
        queue_capacity: 128,
        per_client_capacity: 32,
        score_threshold: 0.0,
        slo: SloPolicy {
            fast_threshold: f64::INFINITY,
            slow_threshold: f64::INFINITY,
            ..SloPolicy::default()
        },
        ..Default::default()
    }
}

fn small_scene() -> SceneConfig {
    SceneConfig {
        width: 48,
        height: 36,
        ..Default::default()
    }
}

// The trace session is process-global: the traced test below must not
// overlap another server run in this binary, or that server's
// `serve-finn` thread would join its trace — so every test here that
// starts a server holds `exclusive()`.

/// The device is one fabric at any ladder height: a two-rung server runs
/// one `serve-finn` worker, and it carries every `serve.finn_batch` span
/// of both rungs.
#[test]
fn a_two_rung_server_runs_one_fabric_worker() {
    let _guard = exclusive();
    tincy::trace::start();
    let server = InferenceServer::start(ServeConfig {
        cpu_workers: 0,
        ..ladder_config(FaultPlan::none())
    })
    .unwrap();
    let client = server.client();
    let mut camera = SyntheticCamera::with_limit(small_scene(), 3, 8);
    // Interactive rides the cheap rung, batch the accurate one.
    for class in [SloClass::Interactive, SloClass::Batch].repeat(4) {
        client.submit(camera.capture().unwrap(), class).unwrap();
    }
    for _ in 0..8 {
        client.recv().unwrap();
    }
    let report = server.finish();
    let trace = tincy::trace::finish();
    assert_eq!(report.variant_items, [4, 4], "both rungs ran on the fabric");
    let batch_threads: BTreeSet<u32> = (trace.spans())
        .filter(|s| trace.label_name(s.label) == "serve.finn_batch")
        .map(|s| s.thread)
        .collect();
    let names: Vec<_> = batch_threads
        .iter()
        .map(|&t| trace.thread_name(t))
        .collect();
    assert_eq!(names, [Some("serve-finn")], "one fabric worker");
}

#[test]
fn responses_are_bit_exact_with_their_variant_mid_outage() {
    let _guard = exclusive();
    // A seeded FINN outage faults the fabric mid-run; the resilience
    // layer retries/falls back, and every response must still match the
    // bit-exact software reference of the variant that computed it —
    // never the other rung's.
    let config = ladder_config(FaultPlan::outage(1, 2));
    let server = InferenceServer::start(config.clone()).unwrap();
    let client = server.client();
    let mut camera = SyntheticCamera::with_limit(small_scene(), 9, 12);
    let mut by_seq: HashMap<u64, Image> = HashMap::new();
    for i in 0..12u64 {
        let image = camera.capture().unwrap();
        let class = if i % 2 == 0 {
            SloClass::Interactive // home: cheap rung
        } else {
            SloClass::Batch // home: accurate rung
        };
        let seq = client.submit(image.clone(), class).unwrap();
        by_seq.insert(seq, image);
    }
    let ladder = config.ladder();
    // The host path never draws from the fault plan, so a reference
    // built under the outage is as fault-free as the server's host path.
    let references: Vec<ServeEngine> = ladder
        .variants()
        .iter()
        .map(|v| ServeEngine::finn_for_model(&v.model, &config.system, 0.0).unwrap())
        .collect();
    let mut variants_seen = [0u64; 2];
    for _ in 0..12 {
        let response = client.recv().unwrap();
        variants_seen[response.variant] += 1;
        let expected = references[response.variant]
            .process_host(&by_seq[&response.seq])
            .unwrap();
        assert_eq!(
            response.detections, expected,
            "variant {} response must match that variant's reference path",
            response.variant
        );
    }
    let report = server.finish();
    assert!(
        variants_seen.iter().all(|&n| n > 0),
        "both rungs saw traffic"
    );
    assert!(report.offload.faults > 0, "the outage must actually fault");
}

#[test]
fn seeded_runs_fingerprint_identically() {
    let _guard = exclusive();
    // Same seeds, same ladder, two independent runs: the bit-exact
    // backends and deterministic cameras must produce identical
    // detection fingerprints and identical per-variant routing totals.
    let load = LoadConfig {
        clients: 3,
        requests_per_client: 6,
        pattern: ArrivalPattern::Closed,
        scene: small_scene(),
        ..Default::default()
    };
    let config = || FleetConfig::single(ladder_config(FaultPlan::none()));
    let run = || run_load(config(), &load, |_| {}).unwrap();
    let (a, b) = (run(), run());
    assert!(a.all_in_order() && b.all_in_order());
    assert_eq!(a.dropped(), 0);
    assert_eq!(b.dropped(), 0);
    assert_eq!(a.detections(), b.detections(), "detection fingerprint");
    assert_eq!(a.fingerprint(), b.fingerprint(), "per-client fingerprints");
    assert_eq!(
        a.target.shards[0].variant_requests, b.target.shards[0].variant_requests,
        "per-variant routing totals"
    );
}
