//! Fleet-level telemetry: the router's own counters as `tincy_fleet_*`
//! families, followed by every shard's own series. Those keep their
//! names and gain `shard="i"` — the fleet reads them by calling the
//! shard's collector, in process, exactly as the shard's own endpoint
//! would.

use super::router::Shared;
use crate::json::report_json;
use crate::telemetry::{bind_status, healthz_json, ServeCollector};
use std::io;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use tincy_telemetry::{Collect, Sample, StatusServer, Value};

/// Scrape-time view of the router state and of every shard behind it:
/// what the fleet's status endpoint serves.
pub(super) struct FleetStats {
    pub(super) shared: Arc<Shared>,
    /// The shards' own state, read by function call: exactly what each
    /// shard's own endpoint would serve.
    pub(super) shards: Vec<Arc<ServeCollector>>,
}

impl FleetStats {
    /// Binds the fleet endpoint on the one route table: the router's
    /// families plus every shard's series under its `shard` label, a
    /// `/healthz` that is degraded while any shard is, and the live
    /// [`super::FleetReport`].
    pub(super) fn bind(self: &Arc<Self>, addr: &str) -> io::Result<StatusServer> {
        let (health, live) = (Arc::clone(self), Arc::clone(self));
        bind_status(
            addr,
            Arc::clone(self) as Arc<dyn Collect>,
            move || {
                let router = &health.shared;
                healthz_json(health.shards.iter().find_map(|s| s.degraded()))
                    .u64("shards", router.slots.len() as u64)
                    .u64("up", router.up_count() as u64)
                    .u64("drains", router.drains.load(Ordering::Relaxed))
                    .u64("readmits", router.readmits.load(Ordering::Relaxed))
                    .finish()
            },
            move || {
                let shards = live.shards.iter().map(|s| s.report()).collect();
                report_json(&live.shared.report(shards))
            },
        )
    }
}

impl Collect for FleetStats {
    fn collect(&self) -> Vec<Sample> {
        let s = &self.shared;
        let counters = [
            (
                "tincy_fleet_drains_total",
                "Shards drained after a degradation verdict",
                &s.drains,
            ),
            (
                "tincy_fleet_readmits_total",
                "Drained shards re-admitted after a clean probe streak",
                &s.readmits,
            ),
            (
                "tincy_fleet_rerouted_total",
                "Admissions landing off the policy's full-fleet ideal shard",
                &s.rerouted,
            ),
            (
                "tincy_fleet_sheds_total",
                "Submissions refused by every shard",
                &s.sheds,
            ),
            (
                "tincy_fleet_probes_total",
                "Canary probes sent to drained shards",
                &s.probes,
            ),
        ];
        let mut out = vec![Sample::new(
            "tincy_fleet_shards",
            "Shards in the fleet",
            Value::Gauge(s.slots.len() as f64),
        )];
        for (name, help, counter) in counters {
            out.push(Sample::new(
                name,
                help,
                Value::Counter(counter.load(Ordering::Relaxed)),
            ));
        }
        for (i, (slot, shard_view)) in s.slots.iter().zip(&self.shards).enumerate() {
            let shard = i.to_string();
            out.push(
                Sample::new(
                    "tincy_fleet_shard_up",
                    "Whether dispatch currently considers the shard (1) or it is drained (0)",
                    Value::Gauge(f64::from(u8::from(slot.up.load(Ordering::Relaxed)))),
                )
                .label("shard", &shard),
            );
            out.push(
                Sample::new(
                    "tincy_fleet_shard_load",
                    "Requests routed to the shard and not yet collected",
                    Value::Gauge(slot.load.load(Ordering::Relaxed) as f64),
                )
                .label("shard", &shard),
            );
            out.push(
                Sample::new(
                    "tincy_fleet_routed_total",
                    "Requests routed to the shard",
                    Value::Counter(slot.routed.load(Ordering::Relaxed)),
                )
                .label("shard", &shard),
            );
            for mut sample in shard_view.collect() {
                sample
                    .labels
                    .insert(0, ("shard".to_string(), shard.clone()));
                out.push(sample);
            }
        }
        out
    }
}
