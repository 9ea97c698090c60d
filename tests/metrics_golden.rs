//! Golden-file test for the `/metrics` exposition shape: the metric
//! names, types, label sets and histogram bucket bounds a serve run
//! exposes are pinned in `tests/golden/metrics_shape.txt`. Values are
//! stripped (they vary run to run); everything schema-like must match
//! byte for byte, so renaming a family, dropping a label or changing
//! the default bucket bounds fails loudly. Regenerate with
//! `UPDATE_GOLDEN=1 cargo test --test metrics_golden`.

use std::collections::BTreeSet;
use std::path::PathBuf;
use tincy::core::SystemConfig;
use tincy::serve::{
    run_load, ArrivalPattern, FleetConfig, InferenceServer, LoadConfig, ServeConfig, SloClass,
};
use tincy::telemetry::{check_histogram_series, http_get, parse_prometheus};
use tincy::video::{SceneConfig, SyntheticCamera};

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

/// The server every shape below is taken from.
fn shaped_server() -> ServeConfig {
    ServeConfig {
        system: SystemConfig {
            input_size: 32,
            seed: 5,
            ..Default::default()
        },
        cpu_workers: 2,
        max_batch: 4,
        score_threshold: 0.0,
        ..Default::default()
    }
}

fn small_scene() -> SceneConfig {
    SceneConfig {
        width: 48,
        height: 36,
        ..Default::default()
    }
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
    let server = InferenceServer::start(ServeConfig {
        status_addr: Some("127.0.0.1:0".to_string()),
        ..shaped_server()
    })
    .expect("server starts");
    let client = server.client();
    let mut camera = SyntheticCamera::with_limit(small_scene(), 7, 6);
    for class in [SloClass::Interactive, SloClass::Standard, SloClass::Batch].repeat(2) {
        let image = camera.capture().expect("camera frame");
        client.submit(image, class).expect("admitted");
    }
    for _ in 0..6 {
        client.recv().expect("response delivered");
    }
    let addr = server.status_addr().expect("status endpoint bound");
    let (code, scraped) = http_get(addr, "/metrics").expect("scrape /metrics");
    assert_eq!(code, 200, "GET /metrics failed: {scraped}");
    server.finish();

    // Structural histogram validity holds independently of the golden:
    // monotone cumulative buckets, +Inf bucket equal to _count.
    let samples = parse_prometheus(&scraped).expect("exposition parses");
    check_histogram_series(&samples).expect("histogram series are well-formed");

    check_golden(&scraped, &golden_path());
}

/// Moves a series' leading `shard="i"` label out: `(i, series without it)`.
fn strip_shard(series: &str) -> Option<(usize, String)> {
    let (name, labels) = series.split_once('{')?;
    let rest = labels.strip_suffix('}')?.strip_prefix("shard=\"")?;
    let (id, rest) = rest.split_once('"')?;
    let rest = rest.strip_prefix(',').unwrap_or(rest);
    let series = if rest.is_empty() {
        name.to_string()
    } else {
        format!("{name}{{{rest}}}")
    };
    Some((id.parse().ok()?, series))
}

/// A fleet's exposition is the router's `tincy_fleet_*` families plus,
/// per shard, exactly what that shard's own endpoint would expose — same
/// names, one more label — so the server golden pins it too, once per
/// shard. Every family is typed, the shards' as well as the router's.
#[test]
fn fleet_metrics_exposition_shape_matches_the_golden_file() {
    let config = FleetConfig {
        shards: 2,
        status_addr: Some("127.0.0.1:0".to_string()),
        base: shaped_server(),
        ..Default::default()
    };
    let load = LoadConfig {
        clients: 4,
        requests_per_client: 2,
        pattern: ArrivalPattern::Closed,
        scene: small_scene(),
        workers: 2,
        ..Default::default()
    };

    let mut scraped = String::new();
    run_load(config, &load, |fleet| {
        let addr = fleet.status_addr().expect("fleet status endpoint bound");
        let (code, body) = http_get(addr, "/metrics").expect("scrape fleet /metrics");
        assert_eq!(code, 200, "GET /metrics failed: {body}");
        scraped = body;
    })
    .expect("fleet run succeeds");

    let samples = parse_prometheus(&scraped).expect("exposition parses");
    check_histogram_series(&samples).expect("histogram series are well-formed");

    let full = shape(&scraped);
    let typed: BTreeSet<&str> = full
        .lines()
        .filter_map(|line| line.strip_prefix("# TYPE "))
        .filter_map(|rest| rest.split(' ').next())
        .collect();
    let mut router = 0;
    let mut per_shard = [String::new(), String::new()];
    for line in full.lines() {
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            if !rest.starts_with("tincy_fleet_") {
                for shard in &mut per_shard {
                    *shard += &format!("{line}\n");
                }
            }
            continue;
        }
        let name = line.split('{').next().expect("series name");
        let family = ["_bucket", "_sum", "_count"]
            .iter()
            .find_map(|suffix| name.strip_suffix(suffix))
            .filter(|family| typed.contains(family))
            .unwrap_or(name);
        assert!(typed.contains(family), "{name} has no # TYPE line");
        if name.starts_with("tincy_fleet_") {
            router += 1;
            continue;
        }
        let (shard, series) =
            strip_shard(line).unwrap_or_else(|| panic!("{line} carries no shard label"));
        per_shard[shard] += &format!("{series}\n");
    }
    assert!(router > 0, "the router families are missing");
    let golden = std::fs::read_to_string(golden_path()).expect("server golden");
    for (shard, got) in per_shard.iter().enumerate() {
        assert!(
            *got == golden,
            "shard {shard}'s series are not the server golden's.\n--- golden\n{golden}\n--- shard\n{got}"
        );
    }
}
