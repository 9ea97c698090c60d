//! Per-crate micro-probes: short, single-threaded timings of one public
//! call each, at the workload's input size. They fill the per-layer rows
//! the live run and the frame-path replay cannot see from outside.

use crate::fixture::{self, Pool};
use crate::replay::FramePath;
use crate::schedule::Rng;
use crate::stats;
use std::hint::black_box;
use std::time::{Duration, Instant};
use tincy_core::{run_demo, DemoReport, SystemConfig};
use tincy_finn::{FaultPlan, Mvtu, SlidingWindow};
use tincy_kernels::{autotune, gemm_q8, TuneBudget, Variant};
use tincy_pipeline::{FnStage, Pipeline};
use tincy_serve::{Fleet, FleetReport, HashRing, InferenceServer, ServeReport, SloClass};
use tincy_simd::FirstLayerKernel;
use tincy_telemetry::{prometheus_text, Parse, Registry, RequestParser};
use tincy_tensor::{ConvGeom, Mat, Tensor};
use tincy_trace::static_label;

/// One measured value, keyed by its metric name.
pub type Row = (String, f64);

/// Median nanoseconds per call over `samples` timings of `batch`
/// back-to-back calls.
fn per_call_ns(samples: usize, batch: usize, mut call: impl FnMut()) -> f64 {
    let timings: Vec<f64> = (0..samples)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..batch {
                call();
            }
            #[allow(clippy::cast_precision_loss)]
            let per_call = t0.elapsed().as_nanos() as f64 / batch as f64;
            per_call
        })
        .collect();
    stats::median(&timings)
}

fn row(name: &str, value: f64) -> Row {
    (name.to_string(), value)
}

/// `tincy-video` capture, and the §III-D first-layer ladder of
/// `tincy-simd` on a letterboxed pool frame.
pub fn video_and_simd(pool: &Pool, input_size: usize, seed: u64) -> Vec<Row> {
    let mut camera = tincy_video::SyntheticCamera::new(tincy_video::SceneConfig::default(), seed);
    let capture_ns = per_call_ns(16, 1, || {
        black_box(camera.capture());
    });

    let input = pool.images[0].letterboxed(input_size).into_tensor();
    let quantized: Tensor<u8> = input.map(|v| (v.clamp(0.0, 1.0) * 255.0).round() as u8);
    // The first layer is 3x3, stride 2, pad 1 (transformation (d)).
    let geom = ConvGeom::new(3, 2, 1);
    let mut rng = Rng::new(seed ^ 0x6b65_726e_656c);
    let weights = Mat::from_fn(16, 27, |_, _| (rng.unit() as f32 - 0.5) * 0.5);
    let bias: Vec<f32> = (0..16).map(|_| (rng.unit() as f32 - 0.5) * 0.1).collect();
    let kernel = FirstLayerKernel::new(&weights, &bias).expect("16x27 kernel");
    let scale = kernel.weight_scale();
    let lowp_weights = Mat::from_fn(16, 27, |r, c| {
        (weights.at(r, c) / scale).round().clamp(-127.0, 127.0) as i8
    });

    let f32_ns = per_call_ns(9, 1, || {
        black_box(kernel.forward_f32(&input, geom).expect("f32 kernel"));
    });
    let i32_ns = per_call_ns(9, 1, || {
        let acc = kernel
            .accumulate_i32(&quantized, 0, geom)
            .expect("i32 kernel");
        black_box(kernel.dequantize_i32(&acc, 1.0 / 255.0));
    });
    let i16_ns = per_call_ns(9, 1, || {
        let acc = kernel
            .accumulate_i16(&quantized, 0, geom)
            .expect("i16 kernel");
        black_box(kernel.dequantize_i16(&acc, 1.0 / 255.0));
    });
    let lowp_ns = per_call_ns(9, 1, || {
        black_box(
            tincy_simd::conv::conv_lowp_im2col(&quantized, &lowp_weights, 0, geom)
                .expect("gemmlowp path"),
        );
    });
    vec![
        row("video.capture_us", capture_ns / 1e3),
        row("simd.first_layer_f32_us", f32_ns / 1e3),
        row("simd.first_layer_i32_us", i32_ns / 1e3),
        row("simd.first_layer_i16_us", i16_ns / 1e3),
        row("simd.gemm_lowp_us", lowp_ns / 1e3),
    ]
}

/// `tincy-finn` sliding-window and MVTU units on the first hidden layer,
/// and `tincy-kernels` planning and the W8A8 GEMM.
pub fn finn_and_kernels(system: &SystemConfig, seed: u64) -> Vec<Row> {
    let mut path = FramePath::build(system);
    let accel = path.accelerator();
    let layer = &accel.layers()[0];
    let mut rng = Rng::new(seed ^ 0x6669_6e6e);
    let fmap = Tensor::from_fn(layer.in_shape(), |_, _, _| (rng.next_u64() % 8) as u8);
    let window = SlidingWindow::new(layer.in_shape(), layer.geom()).expect("sliding window");
    let mvtu = Mvtu::new(
        layer.weights().clone(),
        layer.thresholds().clone(),
        system.engine.pe,
        system.engine.simd,
    )
    .expect("mvtu");
    let (height, width) = (window.out_height(), window.out_width());
    let positions = height * width;
    let footprint_ns = per_call_ns(5, 1, || {
        for oy in 0..height {
            for ox in 0..width {
                black_box(window.footprint(&fmap, oy, ox));
            }
        }
    });
    let footprint = window.footprint(&fmap, height / 2, width / 2);
    let process_ns = per_call_ns(9, 64, || {
        black_box(mvtu.process(&footprint));
    });

    let plan_ns = per_call_ns(5, 1, || {
        black_box(autotune(accel.packed_layers(), &TuneBudget::default()));
    });
    let (m, k, n) = (64usize, 576usize, 256usize);
    let a: Vec<i8> = (0..m * k).map(|_| (rng.next_u64() % 255) as i8).collect();
    let b: Vec<u8> = (0..k * n).map(|_| (rng.next_u64() % 256) as u8).collect();
    let gemm_ns = per_call_ns(7, 1, || {
        black_box(gemm_q8(&a, &b, m, k, n, Variant::Blocked, 1));
    });
    #[allow(clippy::cast_precision_loss)]
    let per_position = footprint_ns / positions as f64;
    vec![
        row("finn.sliding_footprint_ns", per_position),
        row("finn.mvtu_process_ns", process_ns),
        row("kernels.plan_ms", plan_ns / 1e6),
        row("kernels.gemm_q8_us", gemm_ns / 1e3),
    ]
}

/// `tincy-pipeline` hand-off cost: frames through no-op stages.
pub fn pipeline_handoff() -> Vec<Row> {
    const FRAMES: u64 = 2000;
    const STAGES: usize = 4;
    let mut next = 0u64;
    let mut pipeline = Pipeline::new(move || {
        next += 1;
        (next <= FRAMES).then_some(next)
    });
    for stage in 0..STAGES {
        pipeline = pipeline.with_stage(FnStage::new(format!("noop-{stage}"), |x: u64| x));
    }
    let metrics = pipeline.run(
        |frame| {
            black_box(frame);
        },
        fixture::DEMO_WORKERS,
    );
    assert_eq!(metrics.frames, FRAMES);
    #[allow(clippy::cast_precision_loss)]
    let per_handoff = metrics.elapsed.as_secs_f64() * 1e6 / (FRAMES as f64 * STAGES as f64);
    vec![row("pipeline.handoff_us", per_handoff)]
}

/// A short demo at the workload's input size: the `DemoReport` rows for
/// workloads that do not stream one themselves, and the cost of a
/// `tincy_trace` session on the same stream.
pub fn demo_and_trace_session(seed: u64, input_size: usize) -> (DemoReport, Vec<Row>) {
    let frames = if input_size > fixture::SERVE_INPUT {
        24
    } else {
        48
    };
    let config = fixture::demo_config(seed, frames, input_size);
    // Untraced, traced, untraced: the session cost is the traced run over
    // the mean of its neighbours, which cancels slow drift.
    let first = run_demo(&config).expect("demo runs");
    tincy_trace::start();
    let traced = run_demo(&config).expect("traced demo runs");
    let _ = tincy_trace::finish();
    let last = run_demo(&config).expect("demo runs");
    let untraced = (first.metrics.elapsed + last.metrics.elapsed).as_secs_f64() / 2.0;
    let ratio = traced.metrics.elapsed.as_secs_f64() / untraced;
    (last, vec![row("trace.session_overhead_ratio", ratio)])
}

/// The `DemoReport` rows of `tincy-pipeline`.
pub fn demo_rows(report: &DemoReport) -> Vec<Row> {
    let metrics = &report.metrics;
    let offload = metrics
        .stages
        .iter()
        .find(|s| s.name.contains("offload"))
        .map_or(Duration::ZERO, |s| s.busy);
    let total = metrics.total_busy();
    let share = if total.is_zero() {
        0.0
    } else {
        offload.as_secs_f64() / total.as_secs_f64()
    };
    #[allow(clippy::cast_precision_loss)]
    let stage_sum_ms = if metrics.frames == 0 {
        0.0
    } else {
        total.as_secs_f64() * 1e3 / metrics.frames as f64
    };
    vec![
        row("pipeline.offload_busy_share", share),
        row("pipeline.speedup", metrics.speedup()),
        row("pipeline.stage_sum_ms", stage_sum_ms),
    ]
}

/// `tincy-trace` span cost with and without a session.
pub fn trace_spans() -> Vec<Row> {
    let disabled = per_call_ns(9, 4096, || {
        let _span = tincy_trace::span(static_label!("ledger.probe")).start();
    });
    tincy_trace::start();
    let enabled = per_call_ns(9, 4096, || {
        let _span = tincy_trace::span(static_label!("ledger.probe")).start();
    });
    let _ = tincy_trace::finish();
    vec![
        row("trace.span_disabled_ns", disabled),
        row("trace.span_ns", enabled),
    ]
}

/// `tincy-telemetry` request parsing, exposition and recording.
pub fn telemetry() -> Vec<Row> {
    const REQUEST: &[u8] = b"GET /metrics HTTP/1.1\r\nHost: 127.0.0.1\r\nAccept: */*\r\n\r\n";
    let parse = per_call_ns(9, 256, || {
        let mut parser = RequestParser::new(8192);
        parser.feed(REQUEST);
        assert!(matches!(
            black_box(parser.next_request()),
            Parse::Complete(_)
        ));
    });

    let registry = Registry::new();
    for i in 0..24 {
        registry
            .counter(&format!("ledger_probe_{i}_total"), "probe counter")
            .add(i);
    }
    for i in 0..8 {
        registry
            .gauge(&format!("ledger_probe_gauge_{i}"), "probe gauge")
            .set(f64::from(i));
    }
    let histogram = registry.histogram("ledger_probe_seconds", "probe histogram");
    let mut micros = 0u64;
    let observe = per_call_ns(9, 1024, || {
        micros = micros % 50_000 + 37;
        histogram.observe(Duration::from_micros(micros));
    });
    let samples = registry.gather();
    let render = per_call_ns(9, 8, || {
        black_box(prometheus_text(&samples));
    });
    vec![
        row("telemetry.parse_request_ns", parse),
        row("telemetry.render_prometheus_us", render / 1e3),
        row("telemetry.histogram_observe_ns", observe),
    ]
}

/// One client, one request at a time, against a fresh server: what the
/// scheduler and delivery cost when there is nothing to wait for. Also
/// times a `/metrics` scrape of the live server.
pub struct SingleClient {
    pub report: ServeReport,
    pub rows: Vec<Row>,
    /// Median request latency (µs); the caller subtracts the engine time.
    pub latency_us: f64,
}

pub fn serve_single_client(pool: &Pool, requests: usize) -> SingleClient {
    let mut config = fixture::serve_config(FaultPlan::none());
    config.status_addr = Some("127.0.0.1:0".to_string());
    let server = InferenceServer::start(config).expect("server starts");
    let client = server.client();
    let (mut submit_us, mut latency_us) = (Vec::new(), Vec::new());
    for i in 0..requests {
        let index = i % pool.images.len();
        let image = pool.images[index].clone();
        let t0 = Instant::now();
        client
            .submit(image, SloClass::Standard)
            .expect("an idle server admits");
        let t1 = Instant::now();
        let response = client.recv().expect("accepted work is answered");
        let t2 = Instant::now();
        assert_eq!(response.detections, pool.reference[index], "bit-exact");
        submit_us.push((t1 - t0).as_secs_f64() * 1e6);
        latency_us.push((t2 - t0).as_secs_f64() * 1e6);
    }
    let addr = server.status_addr().expect("status endpoint bound");
    let scrape_ns = per_call_ns(7, 1, || {
        let (status, body) = tincy_telemetry::http_get(addr, "/metrics").expect("scrape");
        assert_eq!(status, 200);
        black_box(body);
    });
    let report = server.finish();
    SingleClient {
        report,
        rows: vec![
            row("serve.submit_us", stats::median(&submit_us)),
            row("telemetry.scrape_ms", scrape_ns / 1e6),
        ],
        latency_us: stats::median(&latency_us),
    }
}

/// The same against a healthy 2-shard fleet, plus ring routing.
pub fn fleet_single_client(pool: &Pool, requests: usize) -> (FleetReport, Vec<Row>) {
    let t0 = Instant::now();
    let fleet = Fleet::start(fixture::fleet_config(FaultPlan::none())).expect("fleet starts");
    let start_ms = t0.elapsed().as_secs_f64() * 1e3;
    let mut client = fleet.client();
    let mut submit_us = Vec::new();
    for i in 0..requests {
        let index = i % pool.images.len();
        let image = pool.images[index].clone();
        let t0 = Instant::now();
        client
            .submit(image, SloClass::Standard)
            .expect("an idle fleet admits");
        submit_us.push(t0.elapsed().as_secs_f64() * 1e6);
        let response = client.collect_next().expect("accepted work is answered");
        assert_eq!(response.detections, pool.reference[index], "bit-exact");
    }
    assert!(client.in_order());
    let report = fleet.finish();

    let ring = HashRing::with_shards(2, 64);
    let mut key = 0u64;
    let route_ns = per_call_ns(9, 4096, || {
        key = key.wrapping_add(0x9E37_79B9_7F4A_7C15);
        black_box(ring.route(key));
    });
    let rows = vec![
        row("fleet.start_ms", start_ms),
        row("fleet.submit_us", stats::median(&submit_us)),
        row("fleet.ring_route_ns", route_ns),
    ];
    (report, rows)
}

/// The `ServeReport` rows of `tincy-serve` (several reports — fleet
/// shards — fold into one).
pub fn serve_report_rows(reports: &[&ServeReport]) -> Vec<Row> {
    let mut queue_wait = tincy_pipeline::DurationStats::new();
    let (mut finn_items, mut cpu_items, mut finn_batches) = (0u64, 0u64, 0u64);
    let (mut finn_util, mut cpu_util, mut max_depth) = (0.0f64, 0.0f64, 0usize);
    for report in reports {
        queue_wait.merge(&report.queue_wait);
        finn_items += report.finn_items;
        cpu_items += report.cpu_items;
        finn_batches += report.finn_batches;
        finn_util += report.finn_utilization();
        cpu_util += report.cpu_utilization();
        max_depth = max_depth.max(report.max_depth);
    }
    #[allow(clippy::cast_precision_loss)]
    let (shards, items) = (reports.len().max(1) as f64, (finn_items + cpu_items) as f64);
    #[allow(clippy::cast_precision_loss)]
    let ratio = |num: u64, den: f64| if den > 0.0 { num as f64 / den } else { 0.0 };
    #[allow(clippy::cast_precision_loss)]
    let rows = vec![
        row(
            "serve.queue_wait_p50_ms",
            queue_wait.p50().as_secs_f64() * 1e3,
        ),
        row(
            "serve.queue_wait_p95_ms",
            queue_wait.p95().as_secs_f64() * 1e3,
        ),
        row("serve.mean_batch", ratio(finn_items, finn_batches as f64)),
        row("serve.finn_share", ratio(finn_items, items)),
        row("serve.finn_utilization", finn_util / shards),
        row("serve.cpu_utilization", cpu_util / shards),
        row("serve.max_depth", max_depth as f64),
    ];
    rows
}

/// The `FleetReport` counters.
pub fn fleet_report_rows(report: &FleetReport) -> Vec<Row> {
    #[allow(clippy::cast_precision_loss)]
    let rows = vec![
        row("fleet.rerouted", report.rerouted as f64),
        row("fleet.drains", report.drains as f64),
        row("fleet.readmits", report.readmits as f64),
    ];
    rows
}
