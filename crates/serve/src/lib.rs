//! `tincy-serve` — concurrent inference serving for the Tincy QNN system.
//!
//! The paper's demo streams one camera through one pipeline. This crate
//! generalizes that runtime into an inference *server*: many concurrent
//! clients submit detection requests that are scheduled across the
//! heterogeneous backends of the platform —
//!
//! * the **FINN fabric engine**, which is layer-at-a-time with a weight
//!   swap per invocation, so requests are **micro-batched** to amortize
//!   the reload cost (one swap per layer per batch instead of per frame),
//! * **host workers** running the bit-exact software reference path,
//!   engaged under queue pressure, FINN degradation or drain.
//!
//! Scheduling generalizes the paper's "most mature ready job first" rule
//! into earliest-deadline-first over `submit time + SLO target`, which
//! makes starvation impossible under mixed SLO classes. Admission control
//! bounds the global queue and per-client quotas, rejecting instead of
//! queueing unboundedly; accepted requests are never dropped — a degraded
//! FINN engine sheds load to the CPU workers, and because a rung's FINN
//! worker and host workers share its one engine, the fabric's
//! bit-exactness with the reference path guarantees the answer does not
//! depend on which backend produced it.
//!
//! [`fleet`] scales the single-server runtime out: N in-process shards
//! behind a least-loaded router that drains a shard whose fabric
//! degrades and re-admits it on clean canaries, and one status endpoint
//! for the lot. It is also the front door: [`load`], the deterministic
//! multi-client load driver (closed loop, burst and scheduled open-loop
//! pacing), drives a fleet of any size, and a single server under load
//! is the fleet of one.
//! [`smoke`] holds the assertions the CLI's `--smoke` flag and the
//! integration tests share, and [`json`] the report and metrics
//! dumps, written through `tincy-json`. With a status address set
//! ([`ServeConfig::status_addr`] on a standalone server,
//! [`FleetConfig::status_addr`] on a fleet), a minimal HTTP endpoint
//! backed by `tincy-telemetry` exposes live metrics (`/metrics`,
//! Prometheus text), `/healthz` and the mid-run report (`/report`).

#![forbid(unsafe_code)]

pub mod arrivals;
pub mod config;
pub mod engine;
pub mod fleet;
pub mod json;
pub mod load;
pub mod metrics;
pub mod request;
mod scheduler;
pub mod server;
pub mod smoke;
mod telemetry;
pub mod variants;

pub use arrivals::{arrival_schedule, ArrivalPattern};
pub use config::ServeConfig;
pub use engine::ServeEngine;
pub use fleet::{Fleet, FleetClient, FleetConfig, FleetReport, HashRing, RoutePolicy};
pub use load::{run_load, ClientOutcome, LoadConfig, LoadReport};
pub use metrics::ServeReport;
pub use request::{AdmissionError, BackendKind, InferResponse, SloClass};
pub use server::{ClientHandle, InferenceServer};
pub use variants::{ServeVariant, Shift, ShiftState, VariantLadder, DEMOTE_AFTER, PROMOTE_AFTER};
