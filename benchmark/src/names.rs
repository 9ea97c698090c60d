//! The ledger's vocabulary: every workload and metric name, with unit,
//! direction and (for end-to-end metrics) the regression bound. The same
//! tables are written out in `BENCHMARK.json`; a unit test holds the two
//! together.

use crate::replay::HIDDEN_LAYERS;
use crate::workloads::Workload;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the base's median by which the metric may get worse.
    pub bound: f64,
}

/// Why each workload is in the set (one line each, as in BENCHMARK.json).
pub fn why(workload: Workload) -> &'static str {
    match workload {
        Workload::DemoStream => "The paper's Fig 5 pipeline (run_demo, input 128, 2 workers): the offload stage is the bottleneck, so fps follows the fabric simulator; tincy-serve does no work.",
        Workload::ServeSteady => "Open loop, 45 req/s Poisson over 12 clients in 3 SLO classes, healthy: what a client feels below saturation - queue wait + batch wait + fabric.",
        Workload::ServeSaturate => "Closed loop, 16 clients with one request outstanding: capacity; both backends run, so scheduler lock, allocation and heterogeneous dispatch show here.",
        Workload::ServeOutage => "serve_steady's exact arrivals under a full FINN outage: every request is retry, backoff, packed-kernel fallback or a host worker; bypasses the MVTU simulator.",
        Workload::FleetFault => "2-shard least-loaded fleet, same arrivals, shard 1 faults mid-run: router, failover, drain and re-admit, cross-shard in-order delivery.",
    }
}

/// End-to-end metrics: what a user of the system sees. Every workload
/// reports every one of them and none of them can read 0. The latency
/// rows and the CPU time per operation the issue proposed did not repeat
/// within any allowed bound on the seed box and are `diag.*` per-layer
/// rows instead (see README).
pub const END_TO_END: [EndToEnd; 3] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "throughput_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.05,
    },
];

#[derive(Debug, Clone)]
pub struct PerLayer {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
}

/// Per-layer metrics, grouped by the crate (the layer) they belong to.
pub fn per_layer() -> Vec<PerLayer> {
    use Better::{Higher, Lower};
    let mut rows: Vec<PerLayer> = Vec::new();
    let mut add = |name: &str, unit: &'static str, better: Better| {
        rows.push(PerLayer {
            name: name.to_string(),
            unit,
            better,
        });
    };
    // tincy-video
    add("video.capture_us", "us", Lower);
    add("video.letterbox_us", "us", Lower);
    add("video.draw_us", "us", Lower);
    // tincy-simd: the §III-D ladder steps
    add("simd.first_layer_f32_us", "us", Lower);
    add("simd.first_layer_i32_us", "us", Lower);
    add("simd.first_layer_i16_us", "us", Lower);
    add("simd.gemm_lowp_us", "us", Lower);
    // tincy-nn
    add("nn.first_conv_us", "us", Lower);
    add("nn.last_conv_us", "us", Lower);
    add("nn.region_us", "us", Lower);
    add("nn.offload_fabric_us", "us", Lower);
    add("nn.offload_batch4_item_us", "us", Lower);
    add("nn.offload_host_us", "us", Lower);
    add("nn.offload_faulted_us", "us", Lower);
    add("nn.offload_retries_per_call", "count", Lower);
    add("nn.offload_path_share", "ratio", Lower);
    // tincy-eval
    add("eval.decode_nms_us", "us", Lower);
    // tincy-finn (host time unless it says cycles)
    add("finn.run_us", "us", Lower);
    for i in 0..HIDDEN_LAYERS {
        add(&format!("finn.layer.{i}.us"), "us", Lower);
    }
    for i in 0..HIDDEN_LAYERS {
        add(&format!("finn.layer.{i}.cycles"), "cycles", Lower);
    }
    add("finn.cycles_per_frame", "cycles", Lower);
    add("finn.swap_cycles_per_invocation", "cycles", Lower);
    add("finn.ops_per_frame", "count", Lower);
    add("finn.host_ns_per_cycle", "ns", Lower);
    add("finn.sliding_footprint_ns", "ns", Lower);
    add("finn.mvtu_process_ns", "ns", Lower);
    // tincy-kernels
    for i in 0..HIDDEN_LAYERS {
        add(&format!("kernels.layer.{i}.us"), "us", Lower);
    }
    add("kernels.reference_run_us", "us", Lower);
    add("kernels.gemm_q8_us", "us", Lower);
    add("kernels.plan_ms", "ms", Lower);
    // tincy-pipeline
    add("pipeline.handoff_us", "us", Lower);
    add("pipeline.offload_busy_share", "ratio", Lower);
    add("pipeline.speedup", "ratio", Higher);
    add("pipeline.stage_sum_ms", "ms", Lower);
    // tincy-serve
    add("serve.start_ms", "ms", Lower);
    add("serve.finish_ms", "ms", Lower);
    add("serve.submit_us", "us", Lower);
    add("serve.engine_batch1_us", "us", Lower);
    add("serve.engine_batch4_item_us", "us", Lower);
    add("serve.engine_host_us", "us", Lower);
    add("serve.single_client_overhead_us", "us", Lower);
    add("serve.queue_wait_p50_ms", "ms", Lower);
    add("serve.queue_wait_p95_ms", "ms", Lower);
    add("serve.mean_batch", "count", Higher);
    add("serve.finn_share", "ratio", Higher);
    add("serve.finn_utilization", "ratio", Lower);
    add("serve.cpu_utilization", "ratio", Lower);
    add("serve.max_depth", "count", Lower);
    // tincy-serve::fleet
    add("fleet.start_ms", "ms", Lower);
    add("fleet.submit_us", "us", Lower);
    add("fleet.ring_route_ns", "ns", Lower);
    add("fleet.rerouted", "count", Lower);
    add("fleet.drains", "count", Lower);
    add("fleet.readmits", "count", Higher);
    // tincy-telemetry
    add("telemetry.parse_request_ns", "ns", Lower);
    add("telemetry.render_prometheus_us", "us", Lower);
    add("telemetry.scrape_ms", "ms", Lower);
    add("telemetry.histogram_observe_ns", "ns", Lower);
    // tincy-trace
    add("trace.span_ns", "ns", Lower);
    add("trace.span_disabled_ns", "ns", Lower);
    add("trace.session_overhead_ratio", "ratio", Lower);
    // the benchmark itself
    add("bench.pregen_s", "s", Lower);
    add("bench.gen_late_p99_ms", "ms", Lower);
    add("bench.span_overhead_ratio", "ratio", Higher);
    add("bench.frame_path_coverage", "ratio", Higher);
    add("bench.spans_recorded", "count", Higher);
    add("bench.replay_frames", "count", Higher);
    add("bench.replay_detections", "count", Higher);
    // End-to-end candidates that can read 0 or did not repeat within a
    // bound on the seed box: kept as diagnostics, not gates.
    add("diag.latency_p50_ms", "ms", Lower);
    add("diag.latency_p95_ms", "ms", Lower);
    add("diag.interactive_p95_ms", "ms", Lower);
    add("diag.batch_p95_ms", "ms", Lower);
    add("diag.latency_p99_ms", "ms", Lower);
    add("diag.slo_miss_ratio", "ratio", Lower);
    add("diag.failed_ratio", "ratio", Lower);
    add("diag.cpu_ms_per_op", "ms", Lower);
    add("diag.cpu_system_share", "ratio", Lower);
    rows
}

/// Per-layer counts that are simulated or structural, never timed: two
/// runs of one commit with one seed must agree on them exactly.
pub fn is_exact(name: &str) -> bool {
    name.ends_with(".cycles")
        || matches!(
            name,
            "finn.cycles_per_frame"
                | "finn.swap_cycles_per_invocation"
                | "finn.ops_per_frame"
                | "nn.offload_retries_per_call"
        )
}

#[cfg(test)]
mod tests {
    use super::*;
    use tincy_json::JsonValue;

    fn valid(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.as_bytes()[0].is_ascii_alphanumeric()
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
    }

    #[test]
    fn every_name_is_well_formed_and_used_once() {
        let mut names: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
        names.extend(END_TO_END.iter().map(|m| m.name.to_string()));
        names.extend(per_layer().into_iter().map(|m| m.name));
        for name in &names {
            assert!(valid(name), "bad name {name:?}");
        }
        let total = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        assert!(per_layer().len() <= 128);
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Better::Lower));
    }

    fn field<'a>(value: &'a JsonValue, key: &str) -> &'a JsonValue {
        value.get(key).unwrap_or_else(|| panic!("missing {key}"))
    }

    /// `BENCHMARK.json` at the repo root says exactly what these tables say.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let doc = tincy_json::parse(include_str!("../../BENCHMARK.json")).expect("valid JSON");
        let workloads = field(&doc, "workloads").as_arr().unwrap();
        assert_eq!(workloads.len(), Workload::ALL.len());
        for (entry, workload) in workloads.iter().zip(Workload::ALL) {
            assert_eq!(field(entry, "name").as_str(), Some(workload.name()));
            assert_eq!(field(entry, "why").as_str(), Some(why(workload)));
            assert!(why(workload).len() <= 200 && !why(workload).contains('\n'));
        }
        let end_to_end = field(&doc, "end_to_end").as_arr().unwrap();
        assert_eq!(end_to_end.len(), END_TO_END.len());
        for (entry, metric) in end_to_end.iter().zip(END_TO_END) {
            assert_eq!(field(entry, "name").as_str(), Some(metric.name));
            assert_eq!(field(entry, "unit").as_str(), Some(metric.unit));
            assert_eq!(field(entry, "better").as_str(), Some(metric.better.label()));
            assert_eq!(field(entry, "bound").as_f64(), Some(metric.bound));
        }
        let layers = field(&doc, "per_layer").as_arr().unwrap();
        let table = per_layer();
        assert_eq!(layers.len(), table.len());
        for (entry, metric) in layers.iter().zip(&table) {
            assert_eq!(field(entry, "name").as_str(), Some(metric.name.as_str()));
            assert_eq!(field(entry, "unit").as_str(), Some(metric.unit));
            assert_eq!(field(entry, "better").as_str(), Some(metric.better.label()));
        }
        assert_eq!(
            field(&doc, "paths").as_arr().unwrap()[0].as_str(),
            Some("benchmark")
        );
    }
}
