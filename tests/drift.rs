//! Deterministic drift-alert test: trace segments are synthesized under
//! a [`TestClock`], so stage durations are exact. A run whose offload
//! stage slows 4x after the calibration warmup must trip the drift
//! alert — visible in the scraped `tincy_calibration_drift` gauges, the
//! alert counter and the degraded `/healthz` — while the identical run
//! without the skew must stay quiet. Same code path as
//! `tincy serve --recalibrate-every`, minus the wall clock.

use std::path::Path;
use std::sync::Arc;
use tincy::core::SystemConfig;
use tincy::perf::RollingConfig;
use tincy::serve::{DriftHandle, InferenceServer, SegmentCalibrator, ServeConfig};
use tincy::telemetry::{http_get, parse_prometheus, PromSample};
use tincy::trace::{
    exclusive, span, start_with_clock, sweep, Clock, DrainConfig, Label, SegmentWriter, TestClock,
};

const MS: u64 = 1_000_000;

/// Records one span of exactly `dur_ns` on the test clock.
fn record(clock: &TestClock, name: &str, dur_ns: u64) {
    let guard = span(Label::intern(name)).start();
    clock.advance(dur_ns);
    drop(guard);
}

/// Writes `segments` trace segments of 4 frames each; the offload stage
/// runs 4x slower from segment `skew_from` on (`None` = never).
fn write_segments(dir: &Path, segments: usize, skew_from: Option<usize>) {
    let clock = Arc::new(TestClock::new());
    start_with_clock(Arc::clone(&clock) as Arc<dyn Clock>, 4096);
    let mut writer = SegmentWriter::create(dir, DrainConfig::default()).expect("create writer");
    for segment in 0..segments {
        let offload_ns = match skew_from {
            Some(from) if segment >= from => 12 * MS,
            _ => 3 * MS,
        };
        for _ in 0..4 {
            record(&clock, "source", 2 * MS);
            record(&clock, "L[0] conv", 5 * MS);
            record(&clock, "L[1] offload", offload_ns);
            record(&clock, "sink", MS);
        }
        writer.absorb(sweep().expect("session active"));
        writer.rotate(true).expect("rotate segment");
    }
    writer.finish().expect("finish writer");
    let _ = tincy::trace::finish();
}

fn gauge(samples: &[PromSample], name: &str, label: Option<(&str, &str)>) -> f64 {
    samples
        .iter()
        .find(|s| s.name == name && label.is_none_or(|(k, v)| s.label(k) == Some(v)))
        .unwrap_or_else(|| panic!("sample {name} {label:?} missing from scrape"))
        .value
}

/// Feeds the segments through a [`SegmentCalibrator`] into a live
/// server's drift handle and returns the scraped `/metrics` samples and
/// `/healthz` body.
fn calibrate_and_scrape(dir: &Path) -> (Vec<PromSample>, String) {
    let handle = DriftHandle::default();
    let mut calibrator = SegmentCalibrator::new(
        dir,
        handle.clone(),
        RollingConfig {
            window: 4,
            warmup: 3,
            threshold: 0.5,
        },
    );
    let absorbed = calibrator.scan().expect("segment scan succeeds");
    assert_eq!(absorbed, 10, "every synthesized segment is absorbed");

    let server = InferenceServer::start(ServeConfig {
        system: SystemConfig {
            input_size: 32,
            seed: 5,
            ..Default::default()
        },
        cpu_workers: 1,
        status_addr: Some("127.0.0.1:0".to_string()),
        drift: Some(handle),
        ..Default::default()
    })
    .expect("server starts");
    let addr = server.status_addr().expect("status endpoint bound");
    let (code, metrics) = http_get(addr, "/metrics").expect("scrape /metrics");
    assert_eq!(code, 200);
    let (code, healthz) = http_get(addr, "/healthz").expect("scrape /healthz");
    assert_eq!(code, 200);
    server.finish();
    (
        parse_prometheus(&metrics).expect("exposition parses"),
        healthz,
    )
}

#[test]
fn skewed_clock_trips_the_drift_alert_and_a_clean_run_does_not() {
    let _guard = exclusive();
    let base = std::env::temp_dir().join(format!("tincy-drift-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);

    // Skewed: 6 steady segments calibrate the reference, then 4 segments
    // with the offload stage at 12 ms instead of 3 ms. The EWMA
    // (window 4, alpha 0.4) lands at ~10.8 ms, +260% over the 3 ms
    // reference — far past the 50% threshold, deterministically.
    let skewed_dir = base.join("skewed");
    write_segments(&skewed_dir, 10, Some(6));
    let (samples, healthz) = calibrate_and_scrape(&skewed_dir);
    let drift = gauge(
        &samples,
        "tincy_calibration_drift",
        Some(("stage", "Hidden Layers")),
    );
    assert!(
        drift > 0.5,
        "4x offload slowdown must exceed the 50% threshold, got {drift}"
    );
    assert!(
        (drift - 2.6).abs() < 0.1,
        "EWMA arithmetic is deterministic under the test clock, got {drift}"
    );
    assert!(
        gauge(&samples, "tincy_calibration_alerts_total", None) >= 1.0,
        "the steady-to-drifted transition must raise an alert"
    );
    assert_eq!(
        gauge(&samples, "tincy_calibration_segments_total", None),
        10.0
    );
    assert!(
        healthz.contains("\"degraded\":true") && healthz.contains("calibration-drift"),
        "skewed /healthz: {healthz}"
    );
    // Unskewed stages stay quiet even in the skewed run.
    for stage in ["Image Acquisition", "Input Layer", "Image Output"] {
        let d = gauge(&samples, "tincy_calibration_drift", Some(("stage", stage)));
        assert!(d.abs() < 0.01, "{stage} drifted without a skew: {d}");
    }

    // Clean: identical segments, no skew — no drift, no alert, healthy.
    let clean_dir = base.join("clean");
    write_segments(&clean_dir, 10, None);
    let (samples, healthz) = calibrate_and_scrape(&clean_dir);
    let drift = gauge(
        &samples,
        "tincy_calibration_drift",
        Some(("stage", "Hidden Layers")),
    );
    assert!(drift.abs() < 0.01, "clean run must not drift, got {drift}");
    assert_eq!(
        gauge(&samples, "tincy_calibration_alerts_total", None),
        0.0,
        "clean run must not alert"
    );
    assert!(
        healthz.contains("\"degraded\":false"),
        "clean /healthz: {healthz}"
    );

    let _ = std::fs::remove_dir_all(&base);
}
