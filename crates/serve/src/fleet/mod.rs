//! Fleet-scale sharded serving.
//!
//! One [`crate::InferenceServer`] is one device: a FINN fabric plus host
//! workers. This module runs N of them as *shards* behind a router
//! ([`Fleet`]), generalizing the paper's single-device heterogeneous
//! split to a fleet (DESIGN.md §7.3). `tincy serve` is the N = 1 case:
//! one shard, a router with one candidate, no health monitor.
//!
//! * **Dispatch** — the router picks the routable shard with the fewest
//!   outstanding requests; a rejection fails over to the next candidate
//!   — the fleet sheds only when *every* shard refuses.
//! * **Drain / re-admit** — a health monitor watches each shard's
//!   fabric counters. A shard whose fabric's `degraded` counter advances
//!   is drained: skipped by dispatch while its outstanding work
//!   completes (accepted work is never dropped). Load, SLO burn and
//!   drift do not drain a shard: admission sheds overload with a typed
//!   error, and the ladder demotes on burn and drift. Drained shards are
//!   probed with canary frames; two clean fabric probes in a row
//!   re-admit the shard. The monitor polls every 10 ms.
//! * **Aggregation** — `--status-addr` binds one endpoint: the router's
//!   `tincy_fleet_*` families plus every shard's own series under a
//!   `shard="i"` label, read from the shards' collectors by function
//!   call — the shards share the fleet's address space.
//!
//! [`crate::run_load`] drives a fleet, whatever its size.

mod ring;
mod router;
mod telemetry;

pub(crate) use ring::mix64;
pub use ring::HashRing;
pub use router::{Fleet, FleetClient, FleetReport};

use crate::config::ServeConfig;
use std::time::Duration;
use tincy_finn::FaultPlan;

/// Health-monitor poll cadence.
pub(crate) const HEALTH_EVERY: Duration = Duration::from_millis(10);
/// Consecutive clean fabric probes that re-admit a drained shard.
pub(crate) const READMIT_STREAK: u32 = 2;

/// How the router picks a shard: it has one way. Only the benchmark
/// ledger's fleet fixture names it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoutePolicy {
    /// The routable shard with the fewest outstanding requests (ties
    /// break on lifetime routed count, then shard index).
    LeastLoaded,
}

/// Configuration of a serve fleet.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Number of shards (in-process serve instances).
    pub shards: usize,
    /// Dispatch policy; nothing reads it. Only the benchmark ledger's
    /// fleet fixture sets it.
    pub policy: RoutePolicy,
    /// Per-shard server configuration. Every shard shares the weight
    /// seed, so results are bit-exact regardless of routing; the fault
    /// plan and status address are overridden per shard.
    pub base: ServeConfig,
    /// Per-shard fault plans, indexed by shard; shards beyond the end
    /// run fault-free.
    pub shard_faults: Vec<FaultPlan>,
    /// When set, bind the fleet status endpoint here (`host:port`; port
    /// 0 picks a free one) — the fleet's only listener; its `/metrics`
    /// carries every shard's series. `base.status_addr` is ignored.
    pub status_addr: Option<String>,
}

impl Default for FleetConfig {
    fn default() -> Self {
        Self {
            shards: 2,
            policy: RoutePolicy::LeastLoaded,
            base: ServeConfig::default(),
            shard_faults: Vec::new(),
            status_addr: None,
        }
    }
}

impl FleetConfig {
    /// `server` as a fleet of one: its fault plan is shard 0's, its
    /// status address the fleet's.
    pub fn single(mut server: ServeConfig) -> Self {
        Self {
            shards: 1,
            shard_faults: vec![server.system.fault_plan],
            status_addr: server.status_addr.take(),
            base: server,
            ..Default::default()
        }
    }
}
