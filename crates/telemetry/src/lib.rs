//! `tincy-telemetry`: the live-metrics layer of the Tincy system (per
//! DESIGN.md §8 "Live telemetry").
//!
//! Four pieces, each std-only:
//! - a [`Registry`] of lock-light [`Counter`]s, [`Gauge`]s and
//!   [`Histogram`]s (the latter reusing `tincy-pipeline`'s streaming
//!   [`DurationStats`](tincy_pipeline::DurationStats)), plus a
//!   [`Collect`] hook for subsystems that keep their own accumulators
//!   (the serve scheduler, offload health); histograms expose native
//!   cumulative buckets over one grid ([`BUCKETS`]);
//! - exposition as Prometheus text ([`prometheus_text`]), with a
//!   matching parser ([`parse_prometheus`]) and a structural histogram
//!   validator ([`check_histogram_series`]) for smoke checks;
//! - a hardened HTTP [`StatusServer`] that answers one request per
//!   connection (connection cap with 503 shedding by a bounded number of
//!   threads, header/read deadlines, drain-on-shutdown) and serves that
//!   exposition on `tincy serve --status-addr` (GET `/metrics`,
//!   `/healthz`, `/report`), plus the one-shot [`http_get`] scrape
//!   client;
//! - the [`slo`] burn-rate engine: per-class error budgets
//!   ([`SloPolicy`]) evaluated over fast/slow window pairs on injected
//!   time ([`SloTracker`]), feeding `/healthz`, `/metrics` and the ladder's
//!   shift monitor.

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

mod expose;
mod http;
mod metrics;
pub mod slo;

pub use expose::{check_histogram_series, parse_prometheus, prometheus_text, PromSample};
pub use http::{http_get, Handler, Parse, Request, RequestParser, Response, StatusServer};
pub use metrics::{
    Collect, Counter, Gauge, Histogram, HistogramSnapshot, Registry, Sample, Value, BUCKETS,
};
pub use slo::{SloPolicy, SloStatus, SloTracker, SLO_WINDOWS, SLO_WINDOW_NAMES};
