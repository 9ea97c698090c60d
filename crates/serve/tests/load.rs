//! The load driver's pacing contract, checked on both targets.

use tincy_core::SystemConfig;
use tincy_serve::{
    run_load, ArrivalPattern, Fleet, FleetConfig, InferenceServer, LoadConfig, ServeConfig,
};
use tincy_video::SceneConfig;

/// A FINN-only server whose fabric invocation (input 64: several
/// milliseconds) outlasts four back-to-back submissions (microseconds),
/// so requests submitted while a batch runs are queued together.
fn finn_only() -> ServeConfig {
    ServeConfig {
        system: SystemConfig {
            input_size: 64,
            seed: 5,
            ..Default::default()
        },
        cpu_workers: 0,
        max_batch: 4,
        score_threshold: 0.0,
        ..Default::default()
    }
}

fn closed_on_one_worker() -> LoadConfig {
    LoadConfig {
        clients: 4,
        requests_per_client: 6,
        pattern: ArrivalPattern::Closed,
        scene: SceneConfig {
            width: 48,
            height: 36,
            ..Default::default()
        },
        workers: 1,
        ..Default::default()
    }
}

/// Closed loop means one request outstanding per *client*, not per
/// driver thread: four clients on one worker keep four requests in
/// flight, so micro-batches form.
#[test]
fn closed_loop_keeps_one_request_outstanding_per_client() {
    let load = closed_on_one_worker();

    let server = run_load::<InferenceServer>(finn_only(), &load, |_| {}).expect("server run");
    assert_eq!(server.completed(), 24);
    assert!(server.all_in_order());
    assert!(
        server.target.batched_invocations() >= 1,
        "server batch histogram {:?}",
        server.target.batch_hist
    );

    // One shard, so all four clients meet on the same fabric.
    let config = FleetConfig {
        shards: 1,
        base: finn_only(),
        ..Default::default()
    };
    let fleet = run_load::<Fleet>(config, &load, |_| {}).expect("fleet run");
    assert_eq!(fleet.completed(), 24);
    assert!(fleet.all_in_order());
    let batched: u64 = fleet
        .target
        .shards
        .iter()
        .map(|s| s.batched_invocations())
        .sum();
    assert!(batched >= 1, "no shard formed a micro-batch");
}
