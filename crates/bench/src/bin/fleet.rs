//! Fleet fault-out soak: a 3-shard fleet under a paced multi-client
//! load with a mid-run FINN outage on one shard, run twice with the
//! same seed. Asserts the headline invariants — zero lost responses,
//! per-client ordering across re-routing, a drain *and* a re-admission
//! while traffic keeps flowing, per-class p99 within the SLO target —
//! and that both runs produce identical per-client detection
//! fingerprints. Writes the full results to `BENCH_fleet.json` (path
//! overridable as the first argument); any violated invariant panics,
//! so the process exits nonzero.
//!
//! `TINCY_FLEET_CLIENTS` scales the client count up to a full soak.
//!
//! ```text
//! cargo run -p tincy-bench --release --bin fleet [-- out.json]
//! ```

use std::time::Duration;
use tincy_core::SystemConfig;
use tincy_finn::FaultPlan;
use tincy_serve::json::{fleet_report_json, JsonObject};
use tincy_serve::smoke::check_smoke;
use tincy_serve::{
    run_load, ArrivalPattern, Fleet, FleetConfig, FleetReport, LoadConfig, LoadReport, RoutePolicy,
    SloClass,
};

const FAULTED_SHARD: usize = 1;

fn fleet_config(policy: RoutePolicy) -> FleetConfig {
    let mut config = FleetConfig {
        shards: 3,
        policy,
        health_every: Duration::from_millis(10),
        readmit_streak: 2,
        ..Default::default()
    };
    config.base.system = SystemConfig {
        input_size: 32,
        ..Default::default()
    };
    config.base.score_threshold = 0.02;
    // The outage is invocation-indexed on the shard's fabric: the first
    // frames routed there succeed, then the window faults every attempt
    // until it is burned through — by live traffic, retries and the
    // monitor's canary probes — and the fabric recovers.
    config.shard_faults = vec![FaultPlan::none(), FaultPlan::outage(2, 6)];
    config
}

fn load_config() -> LoadConfig {
    let clients = std::env::var("TINCY_FLEET_CLIENTS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(12);
    LoadConfig {
        clients,
        requests_per_client: 12,
        pattern: ArrivalPattern::Uniform {
            // Paced so the aggregate offered rate stays within what the
            // shards (minus the drained one) can serve: the fault-out
            // must rebalance traffic, not melt the queues.
            interval: Duration::from_millis(150),
        },
        seed: 11,
        ..Default::default()
    }
}

fn check(label: &str, report: &LoadReport<FleetReport>, config: &FleetConfig) {
    // Zero loss, per-client order across re-routing, a drain and a
    // re-admission of the faulted shard.
    check_smoke(report, true).unwrap_or_else(|e| panic!("{label}: {e}"));
    let f = &report.target;
    for class in SloClass::ALL {
        let stats = f.class_latency(class);
        if stats.count() == 0 {
            continue;
        }
        let p99 = stats.p99();
        let target = config.base.target(class);
        assert!(
            p99 <= target,
            "{label}: {} p99 {:.2} ms exceeds the {:.0} ms SLO target with a shard faulted out",
            class.label(),
            p99.as_secs_f64() * 1000.0,
            target.as_secs_f64() * 1000.0
        );
    }
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_fleet.json".to_owned());
    let load = load_config();
    println!(
        "{:<24} {:>9} {:>10} {:>10} {:>8} {:>9} {:>7} {:>7}",
        "policy / run", "req/s", "p50 ms", "p99 ms", "shed", "rerouted", "drains", "readmit"
    );
    let mut rows = Vec::new();
    for policy in [RoutePolicy::LeastLoaded, RoutePolicy::ConsistentHash] {
        let mut fingerprints: Vec<Vec<u64>> = Vec::new();
        for run in 0..2 {
            let config = fleet_config(policy);
            let report = run_load::<Fleet>(config.clone(), &load, |_| {})
                .unwrap_or_else(|e| panic!("{} run {run} failed: {e}", policy.label()));
            let label = format!("{} run {run}", policy.label());
            check(&label, &report, &config);
            let f = &report.target;
            let qs = f.latency().quantiles(&[0.50, 0.99]);
            println!(
                "{:<24} {:>9.1} {:>10.2} {:>10.2} {:>8} {:>9} {:>7} {:>7}",
                label,
                f.throughput(),
                qs[0].as_secs_f64() * 1000.0,
                qs[1].as_secs_f64() * 1000.0,
                report.rejected(),
                f.rerouted,
                f.drains,
                f.readmits
            );
            fingerprints.push(report.fingerprint());
            rows.push(
                JsonObject::new()
                    .str("label", &label)
                    .str("policy", policy.label())
                    .u64("run", run)
                    .u64("clients", load.clients as u64)
                    .u64("requests_per_client", load.requests_per_client)
                    .u64("faulted_shard", FAULTED_SHARD as u64)
                    .u64("detections", report.detections())
                    .raw("report", &fleet_report_json(f))
                    .finish(),
            );
        }
        // Routing decisions depend on timing, but every shard shares the
        // weight seed and the fabric is bit-exact with the host path, so
        // two seeded runs must detect identically per client.
        assert_eq!(
            fingerprints[0],
            fingerprints[1],
            "{}: per-client detections diverged between identically-seeded runs",
            policy.label()
        );
        println!("{:<24} fingerprints identical across runs", policy.label());
    }

    let body = format!(
        "{}\n",
        JsonObject::new()
            .str("bench", "fleet")
            .raw("rows", &format!("[{}]", rows.join(",")))
            .finish()
    );
    match std::fs::write(&out_path, body) {
        Ok(()) => println!("\nwrote {out_path}"),
        Err(e) => eprintln!("\nfailed to write {out_path}: {e}"),
    }
}
