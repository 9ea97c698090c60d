//! The load driver's pacing contract.

use tincy_core::SystemConfig;
use tincy_serve::{run_load, ArrivalPattern, FleetConfig, LoadConfig, ServeConfig};
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

    // One shard, so all four clients meet on the same fabric.
    let report = run_load(FleetConfig::single(finn_only()), &load, |_| {}).expect("server run");
    assert_eq!(report.completed(), 24);
    assert!(report.all_in_order());
    assert!(
        report.target.batched_invocations() >= 1,
        "batch histogram {:?}",
        report.target.shards[0].batch_hist
    );
}
