//! Serving-subsystem invariants, exercised end to end through the public
//! `tincy::serve` API: per-client ordering, admission control, starvation
//! freedom under mixed SLOs, micro-batch formation and bit-exact
//! load-shedding when the FINN engine degrades.

use std::sync::{Arc, Barrier};
use std::time::Duration;
use tincy::core::SystemConfig;
use tincy::finn::{FaultKind, FaultPlan, FaultWindow};
use tincy::nn::Network;
use tincy::serve::{
    run_load, AdmissionError, ArrivalPattern, FleetConfig, InferenceServer, LoadConfig, LoadReport,
    ServeConfig, ServeEngine, SloClass,
};
use tincy::video::{Image, SceneConfig, SyntheticCamera};

fn small_system(fault_plan: FaultPlan) -> SystemConfig {
    SystemConfig {
        input_size: 32,
        seed: 5,
        fault_plan,
        ..Default::default()
    }
}

fn small_serve(fault_plan: FaultPlan) -> ServeConfig {
    ServeConfig {
        system: small_system(fault_plan),
        cpu_workers: 2,
        max_batch: 4,
        score_threshold: 0.0,
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

fn frames(n: u64, seed: u64) -> Vec<Image> {
    let mut camera = SyntheticCamera::with_limit(small_scene(), seed, n);
    std::iter::from_fn(|| camera.capture()).collect()
}

fn drive(
    config: ServeConfig,
    clients: usize,
    requests: u64,
    pattern: ArrivalPattern,
) -> LoadReport {
    let load = LoadConfig {
        clients,
        requests_per_client: requests,
        pattern,
        scene: small_scene(),
        ..Default::default()
    };
    run_load(FleetConfig::single(config), &load, |_| {}).unwrap()
}

#[test]
fn per_client_delivery_follows_submission_order() {
    // Open-loop traffic from several clients lands in arbitrary backend
    // interleavings; every client must still observe its own responses in
    // submission order.
    let report = drive(small_serve(FaultPlan::none()), 3, 6, ArrivalPattern::Closed);
    assert!(report.all_in_order());
    assert_eq!(report.accepted(), 18);
    assert_eq!(report.completed(), 18);
    assert_eq!(report.dropped(), 0);
}

#[test]
fn mixed_slo_classes_all_complete() {
    // One client per SLO class, saturating burst: earliest-deadline-first
    // lets no class starve — every accepted request of every class is
    // answered.
    let report = drive(small_serve(FaultPlan::none()), 3, 8, ArrivalPattern::Burst);
    assert_eq!(report.dropped(), 0);
    assert!(report.all_in_order());
    let classes: Vec<SloClass> = report.outcomes.iter().map(|o| o.class).collect();
    assert_eq!(
        classes,
        vec![SloClass::Interactive, SloClass::Standard, SloClass::Batch]
    );
    for outcome in &report.outcomes {
        assert_eq!(
            outcome.completed,
            8,
            "class {} starved",
            outcome.class.label()
        );
    }
    // Per-class latency distributions were populated.
    for class in SloClass::ALL {
        assert_eq!(report.target.shards[0].class(class).count(), 8);
    }
}

#[test]
fn admission_control_rejects_instead_of_queueing() {
    let config = ServeConfig {
        queue_capacity: 5,
        per_client_capacity: 3,
        start_paused: true,
        ..small_serve(FaultPlan::none())
    };
    let server = InferenceServer::start(config).unwrap();
    let a = server.client();
    let b = server.client();
    let images = frames(8, 21);

    // Client quota: the fourth outstanding request of one client bounces.
    for image in images.iter().take(3) {
        a.submit(image.clone(), SloClass::Standard).unwrap();
    }
    assert_eq!(
        a.submit(images[3].clone(), SloClass::Standard),
        Err(AdmissionError::ClientQueueFull {
            quota: 3,
            outstanding: 3
        })
    );

    // Global bound: queue holds 3 + 2 = 5, the next submission bounces
    // regardless of client quota.
    for image in images.iter().take(2) {
        b.submit(image.clone(), SloClass::Standard).unwrap();
    }
    assert_eq!(
        b.submit(images[2].clone(), SloClass::Standard),
        Err(AdmissionError::QueueFull {
            capacity: 5,
            depth: 5
        })
    );
    assert_eq!(server.depth(), 5, "rejections queued nothing");

    server.resume();
    let report = server.finish();
    assert_eq!(report.accepted, 5);
    assert_eq!(report.completed, 5);
    assert_eq!(report.rejected_client_full, 1);
    assert_eq!(report.rejected_queue_full, 1);
    assert_eq!(report.rejected_for(SloClass::Standard), 2);
    assert_eq!(report.max_depth, 5);
}

#[test]
fn burst_mode_forms_micro_batches() {
    let report = drive(
        ServeConfig {
            cpu_workers: 0,
            ..small_serve(FaultPlan::none())
        },
        2,
        6,
        ArrivalPattern::Burst,
    );
    assert_eq!(report.dropped(), 0);
    assert_eq!(report.target.shards[0].finn_items, 12);
    assert_eq!(
        report.target.shards[0].finn_batches, 3,
        "12 frames in 3 batches of 4"
    );
    assert_eq!(report.target.shards[0].batch_hist.get(4), Some(&3));
    assert!(report.target.shards[0].batched_invocations() >= 1);
    assert!(report.target.shards[0].mean_batch() > 1.0);
}

#[test]
fn degraded_finn_sheds_load_and_stays_bit_exact() {
    // Reference run: fault-free, FINN-only, single client.
    let collect = |fault_plan: FaultPlan, cpu_workers: usize| {
        let config = ServeConfig {
            cpu_workers,
            start_paused: true,
            ..small_serve(fault_plan)
        };
        let server = InferenceServer::start(config).unwrap();
        let client = server.client();
        for image in frames(8, 13) {
            client.submit(image, SloClass::Standard).unwrap();
        }
        server.resume();
        let mut detections = Vec::new();
        for _ in 0..8 {
            detections.push(client.recv().expect("accepted request answered").detections);
        }
        (detections, server.finish())
    };

    let (clean, clean_report) = collect(FaultPlan::none(), 0);
    assert_eq!(clean_report.offload.faults, 0);

    // Degraded run: an outage covering the whole run forces the FINN
    // engine through retry into CPU fallback, and its degradation verdict
    // engages the host workers. No accepted request is dropped and every
    // result is bit-exact with the clean run.
    let (degraded, degraded_report) = collect(FaultPlan::outage(0, 1000), 2);
    assert_eq!(degraded_report.completed, 8);
    assert!(degraded_report.offload.faults > 0, "outage was observed");
    assert_eq!(
        degraded, clean,
        "shed and fallback paths are bit-exact with the accelerator"
    );

    // Same plan replays identically.
    let (replay, _) = collect(FaultPlan::outage(0, 1000), 2);
    assert_eq!(replay, degraded);
}

#[test]
fn loadgen_detections_are_deterministic_across_runs() {
    let run = || drive(small_serve(FaultPlan::none()), 3, 5, ArrivalPattern::Burst);
    let first = run();
    let second = run();
    assert_eq!(first.detections(), second.detections());
    for (a, b) in first.outcomes.iter().zip(&second.outcomes) {
        assert_eq!(a.detections, b.detections);
        assert_eq!(a.accepted, b.accepted);
    }
}

#[test]
fn slo_targets_mark_violations() {
    // Impossible targets: every completed request is a violation; the
    // serving pipeline still answers everything.
    let config = ServeConfig {
        slo_targets: [Duration::ZERO; 3],
        ..small_serve(FaultPlan::none())
    };
    let report = drive(config, 2, 3, ArrivalPattern::Burst);
    assert_eq!(report.dropped(), 0);
    assert_eq!(report.target.shards[0].slo_violations, 6);
}

/// Compile-time proof that a built network and a serve engine can be
/// shared across worker threads.
const _: fn() = || {
    fn shareable<T: Send + Sync>() {}
    shareable::<ServeEngine>();
    shareable::<Network>();
};

#[test]
fn one_engine_shared_by_concurrent_workers_stays_bit_exact() {
    // The server shares one engine per rung between its FINN worker and
    // every host worker. Under a seeded fault plan, a FINN thread and two
    // host threads on one engine must produce what one thread does, and
    // the host threads must draw nothing from the shared injector. The
    // seeded rates rarely fire in two invocations, so an outage on the
    // second one makes sure the injector is drawn from and counted.
    let plan = FaultPlan {
        outage: Some(FaultWindow {
            start: 1,
            length: 1,
            kind: FaultKind::DmaTimeout,
        }),
        ..FaultPlan::from_seed(7)
    };
    let system = small_system(plan);
    let images = frames(8, 3);
    let sequential = ServeEngine::finn(&system, 0.0).unwrap();
    let mut batched = sequential.process_batch(&images[..4]).unwrap();
    batched.extend(sequential.process_batch(&images[4..]).unwrap());
    let host: Vec<_> = images
        .iter()
        .map(|image| sequential.process_host(image).unwrap())
        .collect();

    let shared = Arc::new(ServeEngine::finn(&system, 0.0).unwrap());
    // All three workers start their frames together.
    let start = Arc::new(Barrier::new(3));
    let worker = |host: bool| {
        let (engine, images, start) = (Arc::clone(&shared), images.clone(), Arc::clone(&start));
        std::thread::spawn(move || {
            start.wait();
            if host {
                let run = |image| engine.process_host(image).unwrap();
                return images.iter().map(run).collect::<Vec<_>>();
            }
            let mut out = engine.process_batch(&images[..4]).unwrap();
            out.extend(engine.process_batch(&images[4..]).unwrap());
            out
        })
    };
    let (finn, hosts) = (worker(false), [worker(true), worker(true)]);
    assert_eq!(finn.join().unwrap(), batched);
    for worker in hosts {
        assert_eq!(worker.join().unwrap(), host);
    }
    assert_eq!(batched, host, "FINN and host paths agree");
    let stats = shared.health().snapshot();
    assert_eq!(stats, sequential.health().snapshot());
    assert_eq!((stats.forwards, stats.faults, stats.degraded), (8, 1, 4));
}
