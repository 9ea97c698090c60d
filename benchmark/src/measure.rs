//! One benchmark run of one workload: the untraced run that yields the
//! end-to-end metrics, and the traced run that yields the per-layer ones.

use crate::fixture::{self, Pool};
use crate::names::{self, END_TO_END};
use crate::probes::{self, Row};
use crate::procfs;
use crate::replay;
use crate::spans::Recorder;
use crate::stats;
use crate::workloads::{self, Detail, Live, RunSpec, Workload};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};
use tincy_finn::FaultPlan;
use tincy_serve::SloClass;

/// Set-ups timed per untraced run; `setup_s` is their median.
const SETUP_REPEATS: usize = 9;
/// A generator later than this at the median is warned about: it could
/// not keep its own schedule.
const MAX_MEDIAN_LATE_MS: f64 = 2.0;
/// The stage spans of the replay should account for this much of
/// `ServeEngine::process_batch`; less is warned about.
const MIN_COVERAGE: f64 = 0.95;
/// Inputs the frame-path replay walks at most.
const REPLAY_FRAMES: usize = 200;

/// One reported value.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Everything one run produced.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Correctness violations; the run is correct when there are none.
    pub violations: Vec<String>,
    /// Doubts about the measurement rather than about the program: they
    /// depend on the host's timing, so they are printed and never fail a
    /// run (a busy neighbour must not read as a wrong output).
    pub warnings: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Derived lines for the human reader (ratios the first perf issue
    /// will want to cite), not part of the machine result.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.violations.is_empty()
    }
}

fn setup_samples(workload: Workload, seed: u64, repeats: usize) -> Vec<workloads::Setup> {
    (0..repeats)
        .map(|_| workloads::measure_setup(workload, seed))
        .collect()
}

/// The pool a workload's requests draw from (the demo renders its own
/// frames inside `run_demo`, so its timed run needs none).
fn pool_for(workload: Workload, seed: u64, demo_frames: usize) -> Pool {
    match workload {
        Workload::DemoStream => Pool::of_demo(
            &fixture::demo_config(seed, demo_frames as u64, workload.input_size()),
            demo_frames,
        ),
        _ => workloads::build_pool(workload, seed),
    }
}

fn sorted_ms(live: &Live, class: Option<SloClass>) -> Vec<f64> {
    stats::sorted(
        live.latency
            .iter()
            .filter(|s| class.is_none_or(|c| c == s.class))
            .map(|s| s.ms)
            .collect(),
    )
}

/// Latency rows: exact nearest-rank percentiles over the raw samples of
/// the run. `demo_stream` has no per-frame timestamps on its public
/// surface; its rows are the frame's *service* time — the sum over the
/// pipeline stages of each stage's percentile — and the two class rows
/// repeat the p95 (one class of traffic).
struct Latency {
    p50: f64,
    p95: f64,
    p99: f64,
    interactive_p95: f64,
    batch_p95: f64,
}

fn latency_of(live: &Live) -> Latency {
    if let Detail::Demo(report) = &live.detail {
        let sum = |q: f64| -> f64 {
            report
                .metrics
                .stages
                .iter()
                .map(|s| s.timing.quantile(q).as_secs_f64() * 1e3)
                .sum()
        };
        let p95 = sum(0.95);
        return Latency {
            p50: sum(0.50),
            p95,
            p99: sum(0.99),
            interactive_p95: p95,
            batch_p95: p95,
        };
    }
    let all = sorted_ms(live, None);
    let of = |samples: &[f64], p: f64| {
        if samples.is_empty() {
            0.0
        } else {
            stats::percentile(samples, p)
        }
    };
    Latency {
        p50: of(&all, 0.50),
        p95: of(&all, 0.95),
        // Reported only with ten samples beyond it; 0 says "no tail yet".
        p99: stats::tail_percentile(&all, 0.99).unwrap_or(0.0),
        interactive_p95: of(&sorted_ms(live, Some(SloClass::Interactive)), 0.95),
        batch_p95: of(&sorted_ms(live, Some(SloClass::Batch)), 0.95),
    }
}

#[allow(clippy::cast_precision_loss)]
fn throughput(live: &Live) -> f64 {
    if live.window.is_zero() {
        0.0
    } else {
        live.ok as f64 / live.window.as_secs_f64()
    }
}

/// Process CPU time (user + system) over the timed window ÷ correct
/// responses: the paper's real budget, core time per frame.
#[allow(clippy::cast_precision_loss)]
fn cpu_ms_per_op(cpu: Duration, ok: u64) -> f64 {
    if ok == 0 {
        0.0
    } else {
        cpu.as_secs_f64() * 1e3 / ok as f64
    }
}

fn share(part: Duration, whole: Duration) -> f64 {
    if whole.is_zero() {
        0.0
    } else {
        part.as_secs_f64() / whole.as_secs_f64()
    }
}

#[allow(clippy::cast_precision_loss)]
fn ratio(numerator: u64, denominator: u64) -> f64 {
    if denominator == 0 {
        0.0
    } else {
        numerator as f64 / denominator as f64
    }
}

/// Checks on the generator itself; returns how late it ran at p99.
fn generator_honesty(live: &Live, warnings: &mut Vec<String>) -> f64 {
    if live.generator_threads != 1 {
        warnings.push(format!(
            "the load generator must be the only benchmark thread, found {}",
            live.generator_threads
        ));
    }
    if live.late_ms.is_empty() {
        return 0.0;
    }
    let late = stats::sorted(live.late_ms.clone());
    // A host stall makes a handful of sends late and is charged to their
    // latency (which runs from the due time); a generator that is late at
    // the *median* cannot keep its own schedule.
    let median = stats::percentile(&late, 0.5);
    if median > MAX_MEDIAN_LATE_MS {
        warnings.push(format!(
            "generator ran {median:.3} ms late at the median (expected under {MAX_MEDIAN_LATE_MS} ms)"
        ));
    }
    stats::percentile(&late, 0.99)
}

/// The untraced run: end-to-end metrics only.
pub fn untraced(spec: RunSpec) -> Outcome {
    let setups = setup_samples(spec.workload, spec.seed, SETUP_REPEATS);
    let setup_s = stats::median(
        &setups
            .iter()
            .map(|s| s.start.as_secs_f64())
            .collect::<Vec<_>>(),
    );
    let pool = pool_for(spec.workload, spec.seed, 0);
    let live = workloads::run(spec, &pool, &mut Recorder::new(false));
    let violations = live.violations.clone();
    let mut warnings = live.warnings.clone();
    let late_p99 = generator_honesty(&live, &mut warnings);
    let latency = latency_of(&live);
    let cpu_per_op = cpu_ms_per_op(live.cpu, live.ok);
    let values: BTreeMap<&str, f64> = [
        ("setup_s", setup_s),
        ("throughput_per_s", throughput(&live)),
        ("peak_rss_mb", procfs::peak_rss_mib()),
    ]
    .into_iter()
    .collect();
    let metrics = END_TO_END
        .iter()
        .map(|m| Metric {
            name: m.name.to_string(),
            value: *values
                .get(m.name)
                .unwrap_or_else(|| panic!("end-to-end metric {} is not measured", m.name)),
            unit: m.unit,
        })
        .collect();
    let system_view = match &live.detail {
        Detail::Serve(r) => format!(
            "server: finn_items {} cpu_items {} mean_batch {:.2} finn_utilization {:.2} faults {} fallbacks {}",
            r.finn_items,
            r.cpu_items,
            r.mean_batch(),
            r.finn_utilization(),
            r.offload.faults,
            r.offload.fallbacks
        ),
        Detail::Fleet(r) => format!(
            "fleet: routed {:?} drains {} readmits {} rerouted {} probes {}",
            r.routed, r.drains, r.readmits, r.rerouted, r.probes
        ),
        Detail::Demo(r) => format!(
            "demo: {:.2} fps, speedup {:.2}, {} detections",
            r.metrics.fps(),
            r.metrics.speedup(),
            r.detections
        ),
    };
    let notes = vec![
        system_view,
        format!(
            "sent {} ok {} rejected {} lost {} wrong {} slo_missed {} over {:.3} s",
            live.attempted,
            live.ok,
            live.rejected,
            live.lost,
            live.wrong,
            live.slo_missed,
            live.window.as_secs_f64()
        ),
        format!(
            "not gated: cpu_ms_per_op {:.4} ({:.1}% of it system time) latency_p50_ms {:.4} latency_p95_ms {:.4} interactive_p95_ms {:.4} batch_p95_ms {:.4} latency_p99_ms {:.4} ({} samples; p99 is 0 with fewer than {} beyond it), generator late p99 {:.3} ms, pregen {:.3} s",
            cpu_per_op,
            share(live.cpu_system, live.cpu) * 100.0,
            latency.p50,
            latency.p95,
            latency.interactive_p95,
            latency.batch_p95,
            latency.p99,
            live.latency.len(),
            stats::TAIL_SUPPORT,
            late_p99,
            pool.pregen.as_secs_f64()
        ),
    ];
    Outcome {
        attempted: live.attempted,
        failed: live.failed(),
        violations,
        warnings,
        metrics,
        notes,
    }
}

#[allow(clippy::cast_precision_loss)]
fn count(value: u64) -> f64 {
    value as f64
}

/// The traced run: frame-path replay, per-crate probes and a live phase
/// with and without spans. Writes `<out_dir>/<workload>.trace.json`.
pub fn traced(spec: RunSpec, out_dir: &Path) -> Outcome {
    let workload = spec.workload;
    let input_size = workload.input_size();
    let mut rows: Vec<Row> = Vec::new();
    let mut violations: Vec<String> = Vec::new();
    let mut warnings: Vec<String> = Vec::new();
    let mut notes: Vec<String> = Vec::new();

    // Set-up of a server is a row of its own whatever the workload.
    let setups = setup_samples(Workload::ServeSteady, spec.seed, 3);
    let ms = |f: fn(&workloads::Setup) -> Duration| {
        stats::median(
            &setups
                .iter()
                .map(|s| f(s).as_secs_f64() * 1e3)
                .collect::<Vec<_>>(),
        )
    };
    rows.push(("serve.start_ms".into(), ms(|s| s.start)));
    rows.push(("serve.finish_ms".into(), ms(|s| s.finish)));

    // The demo replays the head of its own stream (at input 128 a frame
    // with all its cross-checks takes about 0.3 s); the others their pool.
    let budget = Duration::from_secs_f64(spec.seconds * 0.3);
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let demo_frames = ((budget.as_secs_f64() / 0.3) as usize).clamp(8, REPLAY_FRAMES);
    let pool = pool_for(workload, spec.seed, demo_frames);
    rows.push(("bench.pregen_s".into(), pool.pregen.as_secs_f64()));
    let system = match workload {
        Workload::DemoStream => fixture::demo_config(spec.seed, 1, input_size).system,
        _ => fixture::system(input_size, FaultPlan::none()),
    };

    let mut rec = Recorder::new(true);
    let replayed = replay::replay(&system, &pool, REPLAY_FRAMES, budget, &mut rec);
    violations.extend(replayed.violations.iter().cloned());
    if replayed.coverage < MIN_COVERAGE {
        warnings.push(format!(
            "stage spans cover {:.3} of process_batch (expected {MIN_COVERAGE} or more)",
            replayed.coverage
        ));
    }
    let span_us = |name: &str| stats::median(&rec.durations_us(name));
    for (metric, span) in [
        ("video.letterbox_us", "video.letterbox"),
        ("video.draw_us", "video.draw"),
        ("nn.first_conv_us", "nn.first_conv"),
        ("nn.last_conv_us", "nn.last_conv"),
        ("nn.region_us", "nn.region"),
        ("nn.offload_fabric_us", "nn.offload_fabric"),
        ("nn.offload_host_us", "nn.offload_host"),
        ("nn.offload_faulted_us", "nn.offload_faulted"),
        ("eval.decode_nms_us", "eval.decode_nms"),
        ("finn.run_us", "finn.run"),
        ("kernels.reference_run_us", "kernels.reference_run"),
        ("serve.engine_batch1_us", "serve.process_batch"),
        ("serve.engine_host_us", "serve.process_host"),
    ] {
        rows.push((metric.into(), span_us(span)));
    }
    rows.push((
        "nn.offload_batch4_item_us".into(),
        span_us("nn.offload_batch4") / 4.0,
    ));
    rows.push((
        "serve.engine_batch4_item_us".into(),
        span_us("serve.process_batch4") / 4.0,
    ));
    for i in 0..replay::HIDDEN_LAYERS {
        rows.push((
            format!("finn.layer.{i}.us"),
            span_us(replay::FINN_LAYER_SPANS[i]),
        ));
        rows.push((
            format!("kernels.layer.{i}.us"),
            span_us(replay::KERNEL_LAYER_SPANS[i]),
        ));
        rows.push((
            format!("finn.layer.{i}.cycles"),
            count(replayed.layer_cycles.get(i).copied().unwrap_or(0)),
        ));
    }
    rows.push((
        "nn.offload_retries_per_call".into(),
        replayed.retries_per_call,
    ));
    rows.push(("nn.offload_path_share".into(), replayed.offload_share));
    rows.push((
        "finn.cycles_per_frame".into(),
        count(replayed.cycles_per_frame),
    ));
    rows.push((
        "finn.swap_cycles_per_invocation".into(),
        count(replayed.swap_cycles_per_invocation),
    ));
    rows.push(("finn.ops_per_frame".into(), count(replayed.ops_per_frame)));
    rows.push((
        "finn.host_ns_per_cycle".into(),
        if replayed.cycles_per_frame == 0 {
            0.0
        } else {
            span_us("finn.run") * 1e3 / count(replayed.cycles_per_frame)
        },
    ));
    rows.push(("bench.frame_path_coverage".into(), replayed.coverage));
    #[allow(clippy::cast_precision_loss)]
    rows.push(("bench.replay_frames".into(), replayed.frames as f64));
    rows.push(("bench.replay_detections".into(), count(replayed.detections)));
    let fabric = span_us("nn.offload_fabric");
    if fabric > 0.0 {
        notes.push(format!(
            "batch-of-4 item time / batch-of-1 time on the fabric: {:.3} (base {:.1} us); offload is {:.1}% of the frame path",
            span_us("nn.offload_batch4") / 4.0 / fabric,
            fabric,
            replayed.offload_share * 100.0
        ));
    }

    // Probes at the workload's input size. The serve and fleet probes run
    // the serve configuration (input 64) whatever the workload.
    let serve_pool;
    let serve_pool = if workload == Workload::DemoStream {
        serve_pool = Pool::build(
            spec.seed,
            16,
            &fixture::system(fixture::SERVE_INPUT, FaultPlan::none()),
        );
        &serve_pool
    } else {
        &pool
    };
    rows.extend(probes::video_and_simd(&pool, input_size, spec.seed));
    rows.extend(probes::finn_and_kernels(&system, spec.seed));
    rows.extend(probes::pipeline_handoff());
    rows.extend(probes::trace_spans());
    rows.extend(probes::telemetry());
    let (probe_demo, trace_rows) = probes::demo_and_trace_session(spec.seed, input_size);
    rows.extend(trace_rows);
    let single = probes::serve_single_client(serve_pool, 40);
    rows.extend(single.rows.iter().cloned());
    // The engine alone, back to back on the same frames: the replay's
    // `process_batch` spans run between other calls, with colder caches
    // than a server that does nothing else.
    let mut engine = tincy_serve::ServeEngine::finn(
        &fixture::system(fixture::SERVE_INPUT, FaultPlan::none()),
        fixture::SCORE_THRESHOLD,
    )
    .expect("finn engine");
    let engine_us: Vec<f64> = serve_pool
        .images
        .iter()
        .take(40)
        .map(|image| {
            let t0 = Instant::now();
            engine
                .process_batch(std::slice::from_ref(image))
                .expect("engine batch of one");
            t0.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    let serve_engine_us = stats::median(&engine_us);
    rows.push((
        "serve.single_client_overhead_us".into(),
        single.latency_us - serve_engine_us,
    ));
    let (probe_fleet, fleet_rows) = probes::fleet_single_client(serve_pool, 24);
    rows.extend(fleet_rows);

    // The live phase: the workload again, first without spans, then with.
    let live_spec = RunSpec {
        seconds: spec.seconds * 0.3,
        ..spec
    };
    let plain = workloads::run(live_spec, &pool, &mut Recorder::new(false));
    let live = workloads::run(live_spec, &pool, &mut rec);
    for phase in [&plain, &live] {
        violations.extend(phase.violations.iter().cloned());
        warnings.extend(phase.warnings.iter().cloned());
    }
    let late_p99 = generator_honesty(&live, &mut warnings);
    rows.push(("bench.gen_late_p99_ms".into(), late_p99));
    let plain_throughput = throughput(&plain);
    rows.push((
        "bench.span_overhead_ratio".into(),
        if plain_throughput > 0.0 {
            throughput(&live) / plain_throughput
        } else {
            0.0
        },
    ));
    match &live.detail {
        Detail::Serve(report) => {
            rows.extend(probes::serve_report_rows(&[report]));
            rows.extend(probes::fleet_report_rows(&probe_fleet));
            rows.extend(probes::demo_rows(&probe_demo));
        }
        Detail::Fleet(report) => {
            rows.extend(probes::serve_report_rows(
                &report.shards.iter().collect::<Vec<_>>(),
            ));
            rows.extend(probes::fleet_report_rows(report));
            rows.extend(probes::demo_rows(&probe_demo));
        }
        Detail::Demo(report) => {
            rows.extend(probes::serve_report_rows(&[&single.report]));
            rows.extend(probes::fleet_report_rows(&probe_fleet));
            rows.extend(probes::demo_rows(report));
        }
    }
    // Diagnostics that cannot gate: they can read 0, or did not repeat.
    let (cpu, cpu_system) = (plain.cpu + live.cpu, plain.cpu_system + live.cpu_system);
    let both = Live {
        latency: plain.latency.iter().chain(&live.latency).copied().collect(),
        ..live
    };
    let attempted = plain.attempted + both.attempted;
    let ok = plain.ok + both.ok;
    let tail = latency_of(&both);
    rows.push(("diag.latency_p50_ms".into(), tail.p50));
    rows.push(("diag.latency_p95_ms".into(), tail.p95));
    rows.push(("diag.interactive_p95_ms".into(), tail.interactive_p95));
    rows.push(("diag.batch_p95_ms".into(), tail.batch_p95));
    rows.push(("diag.latency_p99_ms".into(), tail.p99));
    rows.push((
        "diag.slo_miss_ratio".into(),
        ratio(plain.slo_missed + both.slo_missed, attempted),
    ));
    rows.push(("diag.failed_ratio".into(), ratio(attempted - ok, attempted)));
    rows.push(("diag.cpu_ms_per_op".into(), cpu_ms_per_op(cpu, ok)));
    rows.push(("diag.cpu_system_share".into(), share(cpu_system, cpu)));
    #[allow(clippy::cast_precision_loss)]
    rows.push(("bench.spans_recorded".into(), rec.spans().len() as f64));

    if let Err(e) = std::fs::create_dir_all(out_dir).and_then(|()| {
        std::fs::write(
            out_dir.join(format!("{}.trace.json", workload.name())),
            rec.to_chrome_json(workload.name()),
        )
    }) {
        violations.push(format!("cannot write the span file: {e}"));
    }

    let mut by_name: BTreeMap<String, f64> = BTreeMap::new();
    for (name, value) in rows {
        assert!(
            by_name.insert(name.clone(), value).is_none(),
            "per-layer metric {name} measured twice"
        );
    }
    let metrics = names::per_layer()
        .into_iter()
        .map(|m| Metric {
            value: by_name
                .remove(&m.name)
                .unwrap_or_else(|| panic!("per-layer metric {} is not measured", m.name)),
            name: m.name,
            unit: m.unit,
        })
        .collect();
    assert!(
        by_name.is_empty(),
        "unlisted per-layer metrics: {by_name:?}"
    );
    Outcome {
        attempted,
        failed: attempted - ok,
        violations,
        warnings,
        metrics,
        notes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every name in the tables (and so in `BENCHMARK.json`) is emitted
    /// by a real smoke-length run, in table order. (The test harness's
    /// own threads draw the generator-thread warning; warnings never fail
    /// a run.)
    #[test]
    fn a_smoke_run_emits_every_name() {
        let spec = RunSpec {
            workload: Workload::ServeOutage,
            seed: 3,
            seconds: 2.0,
        };
        let plain = untraced(spec);
        assert!(plain.correct(), "{:?}", plain.violations);
        assert_eq!(plain.failed, 0);
        let names: Vec<&str> = plain.metrics.iter().map(|m| m.name.as_str()).collect();
        let table: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        assert_eq!(names, table);
        assert!(
            plain.metrics.iter().all(|m| m.value > 0.0),
            "{:?}",
            plain.metrics
        );

        let out = Path::new(env!("CARGO_MANIFEST_DIR")).join("out/test");
        let layered = traced(spec, &out);
        assert!(layered.correct(), "{:?}", layered.violations);
        let names: Vec<String> = layered.metrics.iter().map(|m| m.name.clone()).collect();
        let table: Vec<String> = names::per_layer().into_iter().map(|m| m.name).collect();
        assert_eq!(names, table);
        let retries = layered
            .metrics
            .iter()
            .find(|m| m.name == "nn.offload_retries_per_call")
            .expect("listed");
        assert_eq!(retries.value, 2.0);
        let trace =
            std::fs::read_to_string(out.join("serve_outage.trace.json")).expect("span file");
        assert!(tincy_json::parse(&trace).is_ok());
    }
}
