//! Domain JSON serializers for metrics dumps (`--metrics-json`) and the
//! `/report` route. The syntax layer (builders, escaping, parsing) lives
//! in [`tincy_json`].

use crate::fleet::FleetReport;
use crate::metrics::ServeReport;
use crate::request::SloClass;
use std::time::Duration;
use tincy_nn::OffloadStats;
use tincy_pipeline::{DurationStats, PipelineMetrics};

use tincy_json::{array_u64, JsonArray, JsonObject};

fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// A latency distribution as `{count, mean_us, min_us, max_us, p50_us,
/// p95_us, p99_us}`.
pub fn duration_stats_json(stats: &DurationStats) -> String {
    let qs = stats.quantiles(&[0.50, 0.95, 0.99]);
    JsonObject::new()
        .u64("count", stats.count())
        .f64("mean_us", micros(stats.mean()))
        .f64("min_us", stats.min().map_or(0.0, micros))
        .f64("max_us", stats.max().map_or(0.0, micros))
        .f64("p50_us", micros(qs[0]))
        .f64("p95_us", micros(qs[1]))
        .f64("p99_us", micros(qs[2]))
        .finish()
}

/// Offload health counters as JSON.
pub fn offload_stats_json(stats: &OffloadStats) -> String {
    JsonObject::new()
        .u64("forwards", stats.forwards)
        .u64("faults", stats.faults)
        .u64("retries", stats.retries)
        .u64("fallbacks", stats.fallbacks)
        .u64("degraded", stats.degraded)
        .finish()
}

/// Pipeline metrics (the `tincy demo --metrics-json` payload body).
pub fn pipeline_metrics_json(metrics: &PipelineMetrics) -> String {
    let mut stages = JsonArray::new();
    for stage in &metrics.stages {
        stages.raw(
            &JsonObject::new()
                .str("name", &stage.name)
                .u64("invocations", stage.invocations)
                .f64("busy_us", micros(stage.busy))
                .raw("timing", &duration_stats_json(&stage.timing))
                .finish(),
        );
    }
    JsonObject::new()
        .u64("frames", metrics.frames)
        .f64("elapsed_us", micros(metrics.elapsed))
        .f64("fps", metrics.fps())
        .f64("speedup", metrics.speedup())
        .bool("in_order", metrics.in_order)
        .u64("workers", metrics.workers as u64)
        .u64("degraded", metrics.degraded)
        .raw("stages", &stages.finish())
        .finish()
}

/// One latency distribution per SLO class, keyed by the class label.
fn class_latency_json(stats_json: impl Fn(SloClass) -> String) -> String {
    SloClass::ALL
        .iter()
        .fold(JsonObject::new(), |classes, &class| {
            classes.raw(class.label(), &stats_json(class))
        })
        .finish()
}

/// One server's report: an element of [`report_json`]'s `shard_reports`,
/// and the `/report` body of a standalone server's endpoint.
pub fn serve_report_json(report: &ServeReport) -> String {
    let classes = class_latency_json(|class| duration_stats_json(report.class(class)));
    JsonObject::new()
        .u64("accepted", report.accepted)
        .u64("completed", report.completed)
        .u64("rejected_queue_full", report.rejected_queue_full)
        .u64("rejected_client_full", report.rejected_client_full)
        .u64("rejected_draining", report.rejected_draining)
        .raw("rejected_by_class", &array_u64(&report.rejected_class))
        .u64("finn_batches", report.finn_batches)
        .u64("finn_items", report.finn_items)
        .u64("cpu_items", report.cpu_items)
        .raw("batch_hist", &array_u64(&report.batch_hist))
        .f64("mean_batch", report.mean_batch())
        .u64("batched_invocations", report.batched_invocations())
        .raw("latency", &duration_stats_json(&report.latency))
        .raw("queue_wait", &duration_stats_json(&report.queue_wait))
        .raw("class_latency", &classes)
        .u64("slo_violations", report.slo_violations)
        .f64("finn_busy_us", micros(report.finn_busy))
        .f64("cpu_busy_us", micros(report.cpu_busy))
        .f64("finn_utilization", report.finn_utilization())
        .f64("cpu_utilization", report.cpu_utilization())
        .u64("cpu_workers", report.cpu_workers as u64)
        .f64("wall_us", micros(report.wall))
        .f64("throughput_rps", report.throughput())
        .u64("max_depth", report.max_depth as u64)
        .raw("offload", &offload_stats_json(&report.offload))
        .raw("variants", &variants_json(report))
        .finish()
}

/// The per-variant breakdown of a serve report: the ladder (cheapest
/// rung first) with per-class admissions, completions, latency and
/// weight-swap accounting, plus the shift counters and the active rung
/// per class.
fn variants_json(report: &ServeReport) -> String {
    let mut rungs = JsonArray::new();
    for (i, name) in report.variant_names.iter().enumerate() {
        rungs.raw(
            &JsonObject::new()
                .str("name", name)
                .raw("requests_by_class", &array_u64(&report.variant_requests[i]))
                .u64("items", report.variant_items[i])
                .raw("latency", &duration_stats_json(&report.variant_latency[i]))
                .u64("weight_swaps", report.weight_swaps[i])
                .finish(),
        );
    }
    let active: Vec<u64> = report.active_variant.iter().map(|&v| v as u64).collect();
    JsonObject::new()
        .raw("ladder", &rungs.finish())
        .raw("active_by_class", &array_u64(&active))
        .u64("shifts_down", report.shifts_down)
        .u64("shifts_up", report.shifts_up)
        .finish()
}

/// The report of a serving run (the `tincy serve --metrics-json` payload
/// and the fleet endpoint's `/report`), one shape at any shard count:
/// router counters, latency merged over the shards, and every shard's own
/// [`serve_report_json`].
pub fn report_json(report: &FleetReport) -> String {
    let mut shards = JsonArray::new();
    for shard in &report.shards {
        shards.raw(&serve_report_json(shard));
    }
    let classes = class_latency_json(|class| duration_stats_json(&report.class_latency(class)));
    JsonObject::new()
        .u64("shards", report.shards.len() as u64)
        .str("policy", report.policy.label())
        .u64("accepted", report.accepted())
        .u64("completed", report.completed())
        .u64("lost", report.lost())
        .raw("routed", &array_u64(&report.routed))
        .u64("drains", report.drains)
        .u64("readmits", report.readmits)
        .u64("rerouted", report.rerouted)
        .u64("sheds", report.sheds)
        .u64("probes", report.probes)
        .u64("slo_violations", report.slo_violations())
        .raw("latency", &duration_stats_json(&report.latency()))
        .raw("class_latency", &classes)
        .raw("offload", &offload_stats_json(&report.offload()))
        .f64("wall_us", micros(report.wall))
        .f64("throughput_rps", report.throughput())
        .raw("shard_reports", &shards.finish())
        .finish()
}

/// The `tincy demo --metrics-json` payload: pipeline metrics plus offload
/// health.
pub fn demo_metrics_json(metrics: &PipelineMetrics, offload: &OffloadStats) -> String {
    JsonObject::new()
        .raw("pipeline", &pipeline_metrics_json(metrics))
        .raw("offload", &offload_stats_json(offload))
        .finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arrays_and_stats_serialize() {
        assert_eq!(array_u64(&[]), "[]");
        assert_eq!(array_u64(&[1, 2, 3]), "[1,2,3]");
        let mut stats = DurationStats::new();
        stats.record(Duration::from_millis(2));
        let json = duration_stats_json(&stats);
        assert!(json.contains("\"count\":1"));
        assert!(json.contains("\"p50_us\":"));
    }

    #[test]
    fn offload_stats_round_trip_fields() {
        let json = offload_stats_json(&OffloadStats {
            forwards: 4,
            faults: 2,
            retries: 1,
            fallbacks: 1,
            degraded: 1,
        });
        assert_eq!(
            json,
            r#"{"forwards":4,"faults":2,"retries":1,"fallbacks":1,"degraded":1}"#
        );
    }
}
