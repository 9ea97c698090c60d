//! Live telemetry for a running server: a [`Collect`] adapter that
//! snapshots the scheduler's accumulators and the FINN offload health at
//! scrape time, the one degradation verdict everything that reacts to a
//! server's state shares, and the route table of every `--status-addr`
//! endpoint — a standalone server's and a fleet's alike (DESIGN.md §8.2).
//!
//! The adapter owns no counters of its own — every sample is a
//! point-in-time view of the same accumulating [`crate::ServeReport`] the
//! server returns at drain, so a scrape taken after the last response and
//! the final report agree by construction.

use crate::metrics::ServeReport;
use crate::request::SloClass;
use crate::server::Inner;
use std::io;
use std::sync::Arc;
use std::time::Instant;
use tincy_json::JsonObject;
use tincy_nn::{OffloadHealth, OffloadStats};
use tincy_telemetry::{
    prometheus_text, Collect, Handler, HistogramSnapshot, Registry, Response, Sample, StatusServer,
    Value, SLO_WINDOW_NAMES,
};

/// Rejection-reason labels, aligned with [`crate::AdmissionError::tag`].
const REJECT_REASONS: [&str; 3] = ["queue-full", "client-full", "draining"];

/// Scrape-time view of a running [`crate::InferenceServer`].
pub(crate) struct ServeCollector {
    pub inner: Arc<Inner>,
    /// The health of the server's device, which every rung runs on.
    pub health: OffloadHealth,
    pub started: Instant,
    pub cpu_workers: usize,
}

impl ServeCollector {
    /// The device's offload health counters, which the fleet judges a
    /// shard by.
    pub(crate) fn offload(&self) -> OffloadStats {
        self.health.snapshot()
    }

    /// The report as of now: [`crate::InferenceServer::finish`] returns
    /// it after the drain, `/report` serves it mid-run.
    pub(crate) fn report(&self) -> ServeReport {
        let offload = self.offload();
        let state = self.inner.state.lock();
        state.report(self.cpu_workers, self.started.elapsed(), offload)
    }

    /// Why this server is degraded, if it is: it burns error budget
    /// faster than its policy allows. The ladder's shift monitor
    /// demotes on this one verdict, and `/healthz` reports it. The fleet
    /// does not drain on it (an overloaded shard is not a broken one): it
    /// drains on the device's own counters, [`Self::offload`].
    pub(crate) fn degraded(&self) -> Option<&'static str> {
        let burning = self.inner.state.lock().slo_status();
        burning
            .iter()
            .any(|s| s.fast_active || s.slow_active)
            .then_some("slo-burn")
    }
}

impl Collect for ServeCollector {
    fn collect(&self) -> Vec<Sample> {
        let (m, depth, slo) = {
            let mut state = self.inner.state.lock();
            let (depth, slo) = (state.depth(), state.slo_status());
            (state.metrics.clone(), depth, slo)
        };
        let offload = self.offload();
        let mut out = vec![
            Sample::new(
                "tincy_serve_accepted_total",
                "Requests admitted past admission control",
                Value::Counter(m.accepted),
            ),
            Sample::new(
                "tincy_serve_completed_total",
                "Requests completed and delivered",
                Value::Counter(m.completed),
            ),
            Sample::new(
                "tincy_serve_finn_batches_total",
                "Micro-batched FINN invocations",
                Value::Counter(m.finn_batches),
            ),
            Sample::new(
                "tincy_serve_finn_items_total",
                "Requests completed by the FINN engine",
                Value::Counter(m.finn_items),
            ),
            Sample::new(
                "tincy_serve_cpu_items_total",
                "Requests completed by host workers",
                Value::Counter(m.cpu_items),
            ),
            Sample::new(
                "tincy_serve_slo_violations_total",
                "Requests whose latency exceeded their class target",
                Value::Counter(m.slo_violations),
            ),
            Sample::new(
                "tincy_serve_queue_depth",
                "Pending requests awaiting dispatch",
                Value::Gauge(depth as f64),
            ),
            Sample::new(
                "tincy_serve_queue_depth_max",
                "Deepest pending-queue occupancy observed",
                Value::Gauge(m.max_depth as f64),
            ),
            Sample::new(
                "tincy_serve_uptime_seconds",
                "Seconds since the server started",
                Value::Gauge(self.started.elapsed().as_secs_f64()),
            ),
            Sample::new(
                "tincy_serve_finn_busy_seconds",
                "Busy time of the FINN worker",
                Value::Gauge(m.finn_busy.as_secs_f64()),
            ),
            Sample::new(
                "tincy_serve_cpu_busy_seconds",
                "Summed busy time of all host workers",
                Value::Gauge(m.cpu_busy.as_secs_f64()),
            ),
            Sample::new(
                "tincy_serve_queue_wait_seconds",
                "Queue wait, submission to dispatch",
                Value::Histogram(HistogramSnapshot::from_stats(&m.queue_wait)),
            ),
        ];
        // One latency family by class; the server total is `sum without
        // (class)`.
        for class in SloClass::ALL {
            out.push(
                Sample::new(
                    "tincy_serve_latency_seconds",
                    "End-to-end latency, submission to delivery, by SLO class",
                    Value::Histogram(HistogramSnapshot::from_stats(m.class(class))),
                )
                .label("class", class.label()),
            );
        }
        // The variant ladder: which rung each class rides right now, the
        // per-variant×class admission counters, shift counters and the
        // per-invocation weight-swap accounting. Always emitted (a
        // single-model server is a one-rung ladder) so the exposition
        // shape is stable.
        for class in SloClass::ALL {
            out.push(
                Sample::new(
                    "tincy_variant_active",
                    "Active variant-ladder rung per SLO class (0 = cheapest)",
                    Value::Gauge(m.active_variant[class.index()] as f64),
                )
                .label("class", class.label()),
            );
        }
        for (variant, name) in m.variant_names.iter().enumerate() {
            for class in SloClass::ALL {
                out.push(
                    Sample::new(
                        "tincy_variant_requests_total",
                        "Requests admitted per variant and SLO class",
                        Value::Counter(m.variant_requests[variant][class.index()]),
                    )
                    .label("variant", name)
                    .label("class", class.label()),
                );
            }
            out.push(
                Sample::new(
                    "tincy_variant_items_total",
                    "Requests completed per variant",
                    Value::Counter(m.variant_items[variant]),
                )
                .label("variant", name),
            );
            out.push(
                Sample::new(
                    "tincy_variant_weight_swaps_total",
                    "Fabric weight swaps charged per variant (one per weighted layer per FINN invocation)",
                    Value::Counter(m.weight_swaps[variant]),
                )
                .label("variant", name),
            );
        }
        for (direction, count) in [("down", m.shifts_down), ("up", m.shifts_up)] {
            out.push(
                Sample::new(
                    "tincy_variant_shifts_total",
                    "Variant-ladder traffic shifts, by direction (down = demote toward the cheap rung)",
                    Value::Counter(count),
                )
                .label("direction", direction),
            );
        }
        let reasons = [
            m.rejected_queue_full,
            m.rejected_client_full,
            m.rejected_draining,
        ];
        for (reason, count) in REJECT_REASONS.into_iter().zip(reasons) {
            out.push(
                Sample::new(
                    "tincy_serve_rejected_total",
                    "Submissions refused by admission control, by reason",
                    Value::Counter(count),
                )
                .label("reason", reason),
            );
        }
        for class in SloClass::ALL {
            out.push(
                Sample::new(
                    "tincy_serve_rejected_class_total",
                    "Submissions refused by admission control, by SLO class",
                    Value::Counter(m.rejected_class[class.index()]),
                )
                .label("class", class.label()),
            );
        }
        // The burn-rate engine: one evaluation per scrape, on the
        // scheduler's injected clock, per class and window.
        for class in SloClass::ALL {
            let status = &slo[class.index()];
            for (window, burn) in SLO_WINDOW_NAMES.into_iter().zip(status.burn) {
                out.push(
                    Sample::new(
                        "tincy_slo_burn_rate",
                        "Error-budget burn rate by SLO class and window (1.0 = burning exactly at budget)",
                        Value::Gauge(burn),
                    )
                    .label("class", class.label())
                    .label("window", window),
                );
            }
            out.push(
                Sample::new(
                    "tincy_slo_budget_remaining",
                    "Fraction of the 5m error budget still unspent, by SLO class",
                    Value::Gauge(status.budget_remaining),
                )
                .label("class", class.label()),
            );
            let alerts = [
                ("fast", status.fast_active, status.fired[0]),
                ("slow", status.slow_active, status.fired[1]),
            ];
            for (window, active, fired) in alerts {
                out.push(
                    Sample::new(
                        "tincy_slo_alerts_total",
                        "Burn-rate alerts fired (rising edges), by SLO class and window pair",
                        Value::Counter(fired),
                    )
                    .label("class", class.label())
                    .label("window", window),
                );
                out.push(
                    Sample::new(
                        "tincy_slo_alert_active",
                        "Whether a burn-rate alert is currently active, by SLO class and window pair",
                        Value::Gauge(f64::from(u8::from(active))),
                    )
                    .label("class", class.label())
                    .label("window", window),
                );
            }
        }
        let offload_counters = [
            ("forwards", offload.forwards, "Completed forward passes"),
            ("faults", offload.faults, "Accelerator faults observed"),
            ("retries", offload.retries, "Retry attempts issued"),
            (
                "fallbacks",
                offload.fallbacks,
                "Frames completed on the CPU reference path",
            ),
            (
                "degraded",
                offload.degraded,
                "Frames that needed retry or fallback to complete",
            ),
        ];
        for (kind, count, help) in offload_counters {
            out.push(Sample::new(
                &format!("tincy_offload_{kind}_total"),
                help,
                Value::Counter(count),
            ));
        }
        out
    }
}

/// Flight-recorder drop accounting, only while a trace session is live:
/// a non-zero value means the session's trace is missing spans from
/// that thread's ring. The recorder is process-wide, so an endpoint
/// carries this once however many shards stand behind it.
struct TraceDrops;

impl Collect for TraceDrops {
    fn collect(&self) -> Vec<Sample> {
        let drops = tincy_trace::thread_drops().unwrap_or_default();
        let sample = |(thread, dropped): (String, u64)| {
            Sample::new(
                "tincy_trace_dropped_total",
                "Trace events dropped by the flight recorder's per-thread ring",
                Value::Counter(dropped),
            )
            .label("thread", &thread)
        };
        drops.into_iter().map(sample).collect()
    }
}

/// The `/healthz` body for a degradation verdict. Degradation is advisory
/// (still HTTP 200): the process keeps serving.
pub(crate) fn healthz_json(verdict: Option<&'static str>) -> JsonObject {
    let body = JsonObject::new()
        .bool("ok", true)
        .bool("degraded", verdict.is_some());
    match verdict {
        Some(reason) => body.str("reason", reason),
        None => body,
    }
}

/// Binds a status endpoint with the one route table: `/metrics`
/// (Prometheus text of the collector's samples, plus the recorder's drop
/// counters), `/healthz` and `/report` (the two JSON bodies the caller
/// renders).
pub(crate) fn bind_status(
    addr: &str,
    collector: Arc<dyn Collect>,
    healthz: impl Fn() -> String + Send + Sync + 'static,
    report: impl Fn() -> String + Send + Sync + 'static,
) -> io::Result<StatusServer> {
    let registry = Arc::new(Registry::new());
    registry.register(collector);
    registry.register(Arc::new(TraceDrops));
    let routes: Vec<(&'static str, Handler)> = vec![
        (
            "/metrics",
            Box::new(move || {
                Response::ok(
                    "text/plain; version=0.0.4; charset=utf-8",
                    prometheus_text(&registry.gather()),
                )
            }),
        ),
        (
            "/healthz",
            Box::new(move || Response::ok("application/json", healthz() + "\n")),
        ),
        (
            "/report",
            Box::new(move || Response::ok("application/json", report())),
        ),
    ];
    StatusServer::bind(addr, routes)
}
