//! End-to-end live-telemetry invariants, exercised through the public
//! facade: the trace of a fault-seeded serve run surviving its Chrome
//! export, the Prometheus status endpoint agreeing with the final [`ServeReport`],
//! span links resolving micro-batch membership, and the measured stage
//! budget of a traced demo reproducing its observed stage means.

use std::collections::BTreeSet;
use tincy::core::demo::{run_demo, DemoConfig};
use tincy::core::SystemConfig;
use tincy::finn::FaultPlan;
use tincy::perf::{model_diff, pipelined_fps, PipelineModel, StageBudget};
use tincy::serve::smoke::{check_scrape, scrape};
use tincy::serve::{run_load, ArrivalPattern, FleetConfig, LoadConfig, ServeConfig};
use tincy::trace::{exclusive, from_chrome_json, to_chrome_json, Profile};
use tincy::video::SceneConfig;

#[test]
fn fault_seeded_serve_trace_round_trips_and_scrape_matches_report() {
    let _guard = exclusive();
    tincy::trace::start();

    let config = ServeConfig {
        system: SystemConfig {
            input_size: 32,
            seed: 5,
            fault_plan: FaultPlan::from_seed(7),
            ..Default::default()
        },
        cpu_workers: 2,
        max_batch: 4,
        score_threshold: 0.0,
        status_addr: Some("127.0.0.1:0".to_string()),
        ..Default::default()
    };
    let load = LoadConfig {
        clients: 4,
        requests_per_client: 6,
        pattern: ArrivalPattern::Burst,
        scene: SceneConfig {
            width: 48,
            height: 36,
            ..Default::default()
        },
        ..Default::default()
    };

    // The observer runs after every client collected its responses and
    // before shutdown, so the counters it scrapes (two passes, one request
    // per connection, monotonic in between) are final and must match the
    // report.
    let mut scraped = None;
    let report = run_load(FleetConfig::single(config), &load, |server| {
        let addr = server.status_addr().expect("status endpoint bound");
        scraped = Some(scrape(addr, 2).expect("scrape passes"));
    })
    .expect("serve run succeeds");

    // (a) the session lost nothing, and its Chrome export re-imports as
    // one well-formed timeline.
    let recorded = tincy::trace::finish();
    assert_eq!(recorded.dropped, 0, "ring buffers overflowed");
    let json = to_chrome_json(&recorded);
    let trace = from_chrome_json(&json).expect("export re-imports");
    assert_eq!(trace.dropped, 0);
    trace.check().expect("re-imported timeline is well-formed");
    assert_eq!(
        to_chrome_json(&trace),
        json,
        "the import is the recorded trace"
    );

    // Named worker threads survive the export/import round trip.
    let names: BTreeSet<&str> = (0..trace.threads)
        .filter_map(|t| trace.thread_name(t))
        .collect();
    assert!(names.contains("serve-finn"), "thread names: {names:?}");
    assert!(
        names.iter().any(|n| n.starts_with("serve-cpu-")),
        "thread names: {names:?}"
    );

    // Every `serve.finn_batch` span links its member request ids; across
    // the run the links cover exactly the FINN-served items.
    let serve = &report.target.shards[0];
    let mut linked_items = 0u64;
    for span in trace
        .spans()
        .filter(|s| trace.label_name(s.label) == "serve.finn_batch")
    {
        let links = span
            .attrs
            .links
            .map_or(&[][..], |id| trace.link_requests(id));
        assert!(!links.is_empty(), "finn batch span without member links");
        assert_eq!(
            links.len() as u32,
            span.attrs.batch.expect("batch spans carry their size"),
            "link count disagrees with the span's batch size"
        );
        linked_items += links.len() as u64;
    }
    assert_eq!(
        linked_items, serve.finn_items,
        "span links must cover every FINN-served item"
    );

    // (b) the scrape matches the final report, counter for counter.
    check_scrape(&scraped.expect("observer ran"), &report.target)
        .expect("scrape matches the report");
}

#[test]
fn calibrated_budget_reproduces_observed_stage_means_within_one_percent() {
    let _guard = exclusive();
    tincy::trace::start();
    let config = DemoConfig {
        frames: 8,
        system: SystemConfig {
            input_size: 32,
            seed: 5,
            fault_plan: FaultPlan::from_seed(3),
            ..Default::default()
        },
        workers: 2,
        score_threshold: 0.02,
        scene: SceneConfig::default(),
    };
    run_demo(&config).expect("demo run succeeds");
    let trace = tincy::trace::finish();

    // (c) `StageBudget::from_observed` semantics: the measured budget
    // `tincy trace-report` predicts fps from reproduces the very means
    // that produced it, and keeps the baseline where nothing was observed.
    let means = Profile::from_trace(&trace).stage_means_ms();
    let baseline = StageBudget::paper_baseline();
    let budget = StageBudget::from_observed(&means);
    let rows = model_diff(&budget, &means, 0.01);
    let covered = rows.iter().filter(|row| row.observed_ms.is_some()).count();
    assert!(
        covered >= 4,
        "demo trace should cover most frame-path stages: {rows:?}"
    );
    for row in rows {
        assert!(
            !row.flagged,
            "{} deviates beyond 1%: ratio {:?}",
            row.stage.label(),
            row.ratio
        );
        if row.observed_ms.is_none() {
            assert_eq!(budget.get(row.stage), baseline.get(row.stage));
        }
    }
    let fps = pipelined_fps(&budget, PipelineModel::default());
    assert!(fps.is_finite() && fps > 0.0, "pipelined fps: {fps}");
}
