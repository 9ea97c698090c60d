//! Fleet fault-out integration suite: a sharded fleet under a seeded
//! multi-client load with one shard's FINN fabric faulted mid-run.
//!
//! The contract being pinned:
//! * zero lost responses — every admitted request completes even while
//!   a shard is drained out and traffic rebalances;
//! * zero duplicated responses — each client collects exactly as many
//!   responses as it had submissions admitted, in submission order,
//!   across any re-routing;
//! * the faulted shard is drained, probed, and re-admitted once its
//!   fabric recovers, all while the load keeps flowing;
//! * two runs with the same seed produce identical per-client detection
//!   fingerprints (routing may differ; results may not), whether or not
//!   a status endpoint is bound (the health monitor reads its shards by
//!   function call either way);
//! * shards share each rung's one model and fault apart: a fault plan
//!   lives on its shard's devices, never in the shared build.

use std::sync::Arc;
use std::time::Duration;
use tincy::core::SystemConfig;
use tincy::finn::FaultPlan;
use tincy::serve::smoke::check_smoke;
use tincy::serve::{
    run_load, ArrivalPattern, Fleet, FleetConfig, LoadConfig, LoadReport, ServeEngine,
    ServeVariant, SloClass, VariantLadder,
};
use tincy::telemetry::{http_get, parse_prometheus};
use tincy::trace::{exclusive, from_chrome_json, journeys, to_chrome_json};
use tincy::video::{SceneConfig, SyntheticCamera};

// The trace session is process-global: the traced test below must not
// overlap any other fleet run in this binary, or foreign spans (with
// colliding minted trace ids) would leak into its trace —
// so every test here holds `exclusive()`.

/// A 3-shard fleet with a mid-run FINN outage on shard 1. The outage is
/// invocation-indexed: the shard serves its first frames cleanly, then
/// every fabric attempt faults until the window is burned through (by
/// retries and canary probes) and the fabric recovers.
fn faulted_fleet() -> FleetConfig {
    let mut config = FleetConfig {
        shards: 3,
        ..Default::default()
    };
    config.base.system = SystemConfig {
        input_size: 32,
        seed: 5,
        ..Default::default()
    };
    config.base.score_threshold = 0.0;
    config.shard_faults = vec![FaultPlan::none(), FaultPlan::outage(2, 6)];
    config
}

fn soak_load(seed: u64) -> LoadConfig {
    LoadConfig {
        clients: 6,
        requests_per_client: 12,
        // Paced under fleet capacity so the fault-out rebalances traffic
        // instead of melting the queues.
        pattern: ArrivalPattern::Uniform {
            interval: Duration::from_millis(150),
        },
        scene: SceneConfig {
            width: 48,
            height: 36,
            ..Default::default()
        },
        seed,
        workers: 4,
    }
}

/// Runs the soak and holds it to the smoke contract: nothing lost or
/// duplicated, per-client order across re-routing, and the faulted shard
/// drained and re-admitted — before the load's observation point, which
/// waits for the monitor to have judged every fault the load hit.
fn soak(config: FleetConfig, seed: u64, observe: impl FnOnce(&Fleet)) -> LoadReport {
    let observe = |fleet: &Fleet| {
        assert!(
            fleet.settle(Duration::from_secs(2)),
            "seed {seed}: the faulted shard was not drained and re-admitted within 2 s \
             of the load finishing"
        );
        observe(fleet);
    };
    let report = run_load(config, &soak_load(seed), observe).expect("fleet run succeeds");
    check_smoke(&report, false, true).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
    report
}

#[test]
fn fault_out_soak_drains_readmits_and_loses_nothing() {
    let _guard = exclusive();
    let report = soak(faulted_fleet(), 21, |_| {});
    let f = &report.target;
    // Traffic rebalanced around the drain instead of shedding.
    assert_eq!(report.rejected(), 0, "a paced load must not shed");
    assert!(
        f.routed.iter().all(|&routed| routed > 0),
        "every shard (including the re-admitted one) must carry traffic: {:?}",
        f.routed
    );
}

#[test]
fn seeded_soaks_are_deterministic() {
    let _guard = exclusive();
    let first = soak(faulted_fleet(), 33, |_| {});
    let listening = FleetConfig {
        status_addr: Some("127.0.0.1:0".to_string()),
        ..faulted_fleet()
    };
    let second = soak(listening, 33, |fleet| {
        assert!(fleet.status_addr().is_some(), "the endpoint is bound");
    });
    // Routing and drain timing vary with the scheduler, and the second
    // fleet has an endpoint where the first has none; the drain verdict
    // and the delivered results must not — every shard shares the weight
    // seed and the fabric is bit-exact with the host fallback path.
    assert_eq!(
        first.fingerprint(),
        second.fingerprint(),
        "per-client detections diverged between identically-seeded runs"
    );
    assert_eq!(first.accepted(), second.accepted());
}

/// Distributed-tracing contract: a request refused by the least-loaded
/// shard and failed over to the peer shard must appear in the session's
/// trace as ONE journey — its reject span on the first shard and its
/// admit/lease/deliver spans on the peer, all under the trace id the
/// router minted, with the router→shard flow (start + finish link
/// events) intact.
///
/// The failover is forced deterministically: both shards start paused
/// (burst admission) with a 2-deep per-client quota, so nothing
/// completes and routing follows the submission order alone. Clients A
/// and B submit B1→s0, A1→s1, A2→s0, A3→s1, B2→s0; A4 is then offered
/// to s1 first, where A's quota is full, and MUST land on s0 — no timing
/// or load dependence.
#[test]
fn failed_over_request_spans_both_shards_under_one_trace_id() {
    let _guard = exclusive();
    tincy::trace::start();

    let mut config = FleetConfig {
        shards: 2,
        status_addr: Some("127.0.0.1:0".to_string()),
        ..Default::default()
    };
    config.base.system = SystemConfig {
        input_size: 32,
        seed: 5,
        ..Default::default()
    };
    config.base.score_threshold = 0.0;
    config.base.start_paused = true;
    config.base.per_client_capacity = 2;

    let fleet = Fleet::start(config).expect("fleet starts");
    // Client A is `clients[0]`, B is `clients[1]`.
    let mut clients = [fleet.client(), fleet.client()];
    let mut camera = SyntheticCamera::with_limit(
        SceneConfig {
            width: 48,
            height: 36,
            ..Default::default()
        },
        11,
        6,
    );
    for who in [1, 0, 0, 0, 1, 0] {
        let image = camera.capture().expect("camera frame");
        clients[who]
            .submit(image, SloClass::Standard)
            .expect("every submission is admitted somewhere");
    }
    fleet.resume_all();
    for (client, sent) in clients.iter_mut().zip([4, 2]) {
        client.collect_all();
        assert!(client.in_order());
        let (submitted, accepted, _, completed) = client.counts();
        assert_eq!((submitted, accepted, completed), (sent, sent, sent));
    }
    drop(clients);

    // The recorder is one per process, so its drop counters are the
    // fleet's, once per thread — not each shard's copy of all of them.
    let addr = fleet.status_addr().expect("fleet endpoint bound");
    let (_, metrics) = http_get(addr, "/metrics").expect("scrape fleet /metrics");
    let samples = parse_prometheus(&metrics).expect("exposition parses");
    let drops: Vec<_> = samples
        .iter()
        .filter(|s| s.name == "tincy_trace_dropped_total")
        .collect();
    assert!(
        !drops.is_empty(),
        "a live session exposes its drop counters"
    );
    let mut threads: Vec<_> = drops.iter().map(|s| s.label("thread")).collect();
    threads.sort_unstable();
    threads.dedup();
    assert_eq!(threads.len(), drops.len(), "one series per thread");
    assert!(drops.iter().all(|s| s.label("shard").is_none()));
    let report = fleet.finish();
    assert_eq!(report.sheds, 0, "no submission may shed in this scenario");
    assert_eq!(
        report.routed,
        vec![4, 2],
        "A's fourth submission must have failed over to shard 0"
    );

    let json = to_chrome_json(&tincy::trace::finish());
    let trace = from_chrome_json(&json).expect("the exported trace re-imports");
    trace.check().expect("the trace is well formed");
    assert_eq!(
        to_chrome_json(&trace),
        json,
        "the import is the recorded trace"
    );
    let by_request = journeys(&trace);
    assert_eq!(by_request.len(), 6, "one journey per minted trace id");
    for journey in &by_request {
        journey.verify().expect("causally ordered stage coverage");
        assert!(journey.delivered(), "every admitted request delivers");
        assert!(
            journey.flow_finished,
            "trace {:016x}: the router→shard flow was never closed",
            journey.trace_id
        );
    }
    let cross: Vec<_> = by_request.iter().filter(|j| j.shards.len() >= 2).collect();
    assert_eq!(
        cross.len(),
        1,
        "exactly one request crossed shards: {by_request:?}"
    );
    let journey = cross[0];
    assert_eq!(journey.shards, vec![0, 1]);
    assert_eq!(
        (journey.failovers, journey.rejects),
        (1, 1),
        "the cross-shard journey records its single reject + failover hop"
    );
}

/// One model per rung for the whole fleet, one device per shard: a
/// 2-shard, 2-rung fleet whose shard 1 is in a full FINN outage runs both
/// shards on the same two builds, counts the outage on shard 1's device
/// alone, and answers every request from either shard with the host
/// path's detections bit for bit.
#[test]
fn shards_share_each_rungs_model_and_fault_on_their_own_device() {
    let _guard = exclusive();
    let system = SystemConfig {
        input_size: 32,
        seed: 5,
        ..Default::default()
    };
    let at = |input_size: usize| SystemConfig {
        input_size,
        ..system
    };
    let rung = |name: &str, input_size: usize, accuracy: f64| ServeVariant {
        name: name.to_owned(),
        model: at(input_size).model(),
        accuracy,
    };
    let mut config = FleetConfig {
        shards: 2,
        ..Default::default()
    };
    config.base.system = system;
    config.base.score_threshold = 0.0;
    config.base.cpu_workers = 0;
    // Paused shards route by submission order alone: s0, s1, s0, ...
    config.base.start_paused = true;
    config.base.variants = Some(
        VariantLadder::new(vec![rung("cheap", 32, 41.1), rung("accurate", 64, 48.5)]).unwrap(),
    );
    config.shard_faults = vec![FaultPlan::none(), FaultPlan::outage(0, u64::MAX)];
    let references = [32, 64].map(|input_size| ServeEngine::cpu(&at(input_size), 0.0).unwrap());

    let fleet = Fleet::start(config).expect("fleet starts");
    let engines: Vec<Vec<Arc<ServeEngine>>> = (0..2).map(|s| fleet.engines(s).to_vec()).collect();
    assert_eq!(engines[0].len(), 2);
    for (a, b) in engines[0].iter().zip(&engines[1]) {
        assert!(Arc::ptr_eq(a.model(), b.model()), "one build per rung");
    }
    let mut client = fleet.client();
    let mut camera = SyntheticCamera::with_limit(
        SceneConfig {
            width: 48,
            height: 36,
            ..Default::default()
        },
        13,
        8,
    );
    // Interactive homes on the cheap rung, batch on the accurate one; the
    // pairs put both rungs on both shards.
    let classes = [SloClass::Interactive, SloClass::Batch];
    let mut images = Vec::new();
    for i in 0..8 {
        let image = camera.capture().expect("camera frame");
        client.submit(image.clone(), classes[i / 2 % 2]).unwrap();
        images.push(image);
    }
    fleet.resume_all();
    for image in &images {
        let response = client.collect_next().expect("every request answers");
        let expected = references[response.variant].process_host(image).unwrap();
        assert_eq!(
            response.detections, expected,
            "variant {}",
            response.variant
        );
    }
    drop(client);
    assert_eq!(fleet.finish().routed, vec![4, 4]);

    // Read once the fleet is down: canaries no longer move the counters.
    let device = |shard: usize| {
        let engine = &engines[shard][0];
        let faults = engine.device().unwrap().faults().map(|f| f.stats());
        (engine.health().snapshot(), faults)
    };
    let (health, faults) = device(0);
    assert_eq!((health.forwards, health.faults), (4, 0), "{health:?}");
    assert_eq!(faults, None, "a fault-free shard arms no injector");
    let (health, faults) = device(1);
    let faults = faults.expect("the outage shard's device is armed");
    assert!(health.forwards >= 4, "{health:?}");
    assert_eq!(health.fallbacks, health.forwards, "every frame fell back");
    assert_eq!(faults.faults, health.faults, "one device, one count");
    assert_eq!(faults.faults, faults.invocations, "a full outage");
}
