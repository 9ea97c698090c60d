//! `tincy-fleet` — fleet-scale sharded serving.
//!
//! One [`crate::InferenceServer`] is one device: a FINN fabric plus host
//! workers. This module runs N of them as *shards* behind a router
//! ([`Fleet`]), generalizing the paper's single-device heterogeneous
//! split to a fleet (DESIGN.md §9):
//!
//! * **Dispatch** — [`RoutePolicy::LeastLoaded`] picks the shard with
//!   the fewest outstanding requests; [`RoutePolicy::ConsistentHash`]
//!   pins each client to a shard via a virtual-node [`HashRing`], so a
//!   client's frames batch together on one fabric. Either way a
//!   rejection fails over to the next candidate — the fleet sheds only
//!   when *every* shard refuses.
//! * **Drain / re-admit** — a health monitor watches each shard's
//!   offload counters (and, when per-shard endpoints are bound, its
//!   `/healthz`). A shard whose fabric degrades is drained: removed
//!   from the ring and skipped by dispatch while its outstanding work
//!   completes (accepted work is never dropped). Drained shards are
//!   probed with canary frames; a streak of clean fabric probes
//!   re-admits the shard.
//! * **Aggregation** — `--status-addr` exposes router-level
//!   `tincy_fleet_*` families plus every shard's own series re-labelled
//!   with `shard="i"`, scraped over keep-alive [`tincy_telemetry::HttpClient`]
//!   connections into one exposition.
//!
//! [`crate::run_load`] drives a fleet exactly as it drives one server.

mod ring;
mod router;
mod telemetry;

pub(crate) use ring::mix64;
pub use ring::HashRing;
pub use router::{Fleet, FleetClient, FleetReport};

use crate::config::ServeConfig;
use std::time::Duration;
use tincy_finn::FaultPlan;

/// How the router picks a shard for each submission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoutePolicy {
    /// The routable shard with the fewest outstanding requests (ties
    /// break on shard index).
    LeastLoaded,
    /// The shard owning the client's key on the consistent-hash ring —
    /// sticky per client, minimally disrupted by drains.
    ConsistentHash,
}

impl RoutePolicy {
    /// Stable label for reports and CLI round-trips.
    pub fn label(self) -> &'static str {
        match self {
            RoutePolicy::LeastLoaded => "least-loaded",
            RoutePolicy::ConsistentHash => "hash",
        }
    }
}

impl std::str::FromStr for RoutePolicy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "least-loaded" => Ok(RoutePolicy::LeastLoaded),
            "hash" => Ok(RoutePolicy::ConsistentHash),
            other => Err(format!(
                "unknown policy {other:?} (expected least-loaded or hash)"
            )),
        }
    }
}

/// Configuration of a serve fleet.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Number of shards (in-process serve instances).
    pub shards: usize,
    /// Dispatch policy.
    pub policy: RoutePolicy,
    /// Per-shard server configuration. Every shard shares the weight
    /// seed, so results are bit-exact regardless of routing; the fault
    /// plan and status address are overridden per shard.
    pub base: ServeConfig,
    /// Per-shard fault plans, indexed by shard; shards beyond the end
    /// run fault-free.
    pub shard_faults: Vec<FaultPlan>,
    /// Health-monitor poll cadence.
    pub health_every: Duration,
    /// Consecutive clean fabric probes required to re-admit a drained
    /// shard.
    pub readmit_streak: u32,
    /// Virtual nodes per shard on the consistent-hash ring.
    pub vnodes: usize,
    /// When set, bind the fleet status endpoint here (`host:port`; port
    /// 0 picks a free one) and a per-shard endpoint on `127.0.0.1:0`
    /// each; the fleet `/metrics` aggregates every shard's scrape.
    pub status_addr: Option<String>,
}

impl Default for FleetConfig {
    fn default() -> Self {
        Self {
            shards: 2,
            policy: RoutePolicy::LeastLoaded,
            base: ServeConfig::default(),
            shard_faults: Vec::new(),
            health_every: Duration::from_millis(10),
            readmit_streak: 2,
            vnodes: 64,
            status_addr: None,
        }
    }
}

impl FleetConfig {
    /// The fault plan of one shard ([`FaultPlan::none`] when unset).
    pub fn fault_of(&self, shard: usize) -> FaultPlan {
        self.shard_faults
            .get(shard)
            .copied()
            .unwrap_or_else(FaultPlan::none)
    }
}
