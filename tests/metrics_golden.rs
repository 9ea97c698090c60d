//! Golden-file test for the `/metrics` exposition shape: the metric
//! names, types, label sets and histogram bucket bounds a serve run
//! exposes are pinned in `tests/golden/metrics_shape.txt`. Values are
//! stripped (they vary run to run); everything schema-like must match
//! byte for byte, so renaming a family, dropping a label or changing
//! the default bucket bounds fails loudly. Regenerate with
//! `UPDATE_GOLDEN=1 cargo test --test metrics_golden`.

use std::path::PathBuf;
use tincy::core::SystemConfig;
use tincy::serve::{
    run_load, ArrivalPattern, DriftHandle, Fleet, FleetConfig, InferenceServer, LoadConfig,
    ServeConfig,
};
use tincy::telemetry::{check_histogram_series, http_get, parse_prometheus};
use tincy::video::SceneConfig;

/// Reduces an exposition to its schema: `# TYPE` lines verbatim, sample
/// lines stripped to `name{labels}` (bucket bounds live in the `le`
/// label, so they are part of the shape).
fn shape(text: &str) -> String {
    let mut out: Vec<String> = Vec::new();
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            out.push(format!("# TYPE {rest}"));
        } else if line.starts_with('#') || line.trim().is_empty() {
            continue;
        } else {
            let series = line.rsplit_once(' ').map_or(line, |(head, _)| head);
            out.push(series.to_string());
        }
    }
    out.join("\n") + "\n"
}

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/metrics_shape.txt")
}

fn fleet_golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/fleet_metrics_shape.txt")
}

/// Compares (or with `UPDATE_GOLDEN=1` rewrites) a scraped shape against
/// its golden file.
fn check_golden(scraped: &str, path: &PathBuf) {
    let got = shape(scraped);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().expect("golden dir")).expect("mkdir golden");
        std::fs::write(path, &got).expect("write golden");
        return;
    }
    let want = std::fs::read_to_string(path).unwrap_or_else(|e| {
        panic!(
            "missing golden {} ({e}); regenerate with UPDATE_GOLDEN=1",
            path.display()
        )
    });
    assert!(
        got == want,
        "exposition shape diverged from {}; regenerate with UPDATE_GOLDEN=1 if intended.\n--- golden\n{want}\n--- scraped\n{got}",
        path.display()
    );
}

#[test]
fn metrics_exposition_shape_matches_the_golden_file() {
    let config = ServeConfig {
        system: SystemConfig {
            input_size: 32,
            seed: 5,
            ..Default::default()
        },
        cpu_workers: 2,
        max_batch: 4,
        score_threshold: 0.0,
        status_addr: Some("127.0.0.1:0".to_string()),
        // A drift handle (even one nothing publishes into) turns on the
        // calibration families, so their shape is pinned too.
        drift: Some(DriftHandle::default()),
        ..Default::default()
    };
    let load = LoadConfig {
        clients: 2,
        requests_per_client: 3,
        pattern: ArrivalPattern::Burst,
        scene: SceneConfig {
            width: 48,
            height: 36,
            ..Default::default()
        },
        ..Default::default()
    };

    let mut scraped = String::new();
    run_load(config, &load, |server: &InferenceServer| {
        let addr = server.status_addr().expect("status endpoint bound");
        let (code, body) = http_get(addr, "/metrics").expect("scrape /metrics");
        assert_eq!(code, 200, "GET /metrics failed: {body}");
        scraped = body;
    })
    .expect("serve run succeeds");

    // Structural histogram validity holds independently of the golden:
    // monotone cumulative buckets, +Inf bucket equal to _count.
    let samples = parse_prometheus(&scraped).expect("exposition parses");
    check_histogram_series(&samples).expect("histogram series are well-formed");

    check_golden(&scraped, &golden_path());
}

#[test]
fn fleet_metrics_exposition_shape_matches_the_golden_file() {
    let mut config = FleetConfig {
        shards: 2,
        status_addr: Some("127.0.0.1:0".to_string()),
        ..Default::default()
    };
    config.base.system = SystemConfig {
        input_size: 32,
        seed: 5,
        ..Default::default()
    };
    config.base.cpu_workers = 1;
    config.base.max_batch = 4;
    config.base.score_threshold = 0.0;
    let load = LoadConfig {
        clients: 4,
        requests_per_client: 2,
        pattern: ArrivalPattern::Closed,
        scene: SceneConfig {
            width: 48,
            height: 36,
            ..Default::default()
        },
        workers: 2,
        ..Default::default()
    };

    let mut scraped = String::new();
    run_load(config, &load, |fleet: &Fleet| {
        let addr = fleet.status_addr().expect("fleet status endpoint bound");
        let (code, body) = http_get(addr, "/metrics").expect("scrape fleet /metrics");
        assert_eq!(code, 200, "GET /metrics failed: {body}");
        scraped = body;
    })
    .expect("fleet run succeeds");

    // The aggregated exposition must carry every shard's re-labelled
    // series — a failed shard scrape would silently shrink the shape.
    let samples = parse_prometheus(&scraped).expect("exposition parses");
    for shard in ["0", "1"] {
        assert!(
            samples
                .iter()
                .any(|s| s.name == "tincy_fleet_accepted_total" && s.label("shard") == Some(shard)),
            "aggregation dropped shard {shard}'s series"
        );
    }
    check_histogram_series(&samples).expect("histogram series are well-formed");

    check_golden(&scraped, &fleet_golden_path());
}
