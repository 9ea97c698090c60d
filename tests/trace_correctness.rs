//! Trace correctness: span nesting under arbitrary recording patterns,
//! and fault attribution on a degraded end-to-end run.
//!
//! The trace session is process-global, so every test here holds
//! `tincy::trace::exclusive()`; each test starts its own session and
//! finishes it before releasing the claim.

use proptest::prelude::*;
use std::sync::Arc;
use tincy::core::demo::{run_demo, DemoConfig};
use tincy::core::SystemConfig;
use tincy::finn::FaultPlan;
use tincy::trace::{
    exclusive, finish, from_chrome_json, span, start, start_with_clock, thread_drops,
    to_chrome_json, Backend, Event, Label, TestClock,
};
use tincy::video::SceneConfig;

fn demo_config(frames: u64, workers: usize) -> DemoConfig {
    DemoConfig {
        frames,
        system: SystemConfig {
            input_size: 32,
            seed: 5,
            ..Default::default()
        },
        workers,
        score_threshold: 0.0,
        scene: SceneConfig {
            width: 48,
            height: 36,
            ..Default::default()
        },
    }
}

/// Replays one op sequence as a guard stack: `0` opens a span, `1` closes
/// the innermost one, `2` emits an instant. Returns how many spans were
/// opened.
fn replay_ops(ops: &[u8], clock: &TestClock, labels: &[Label]) -> u64 {
    let mut stack = Vec::new();
    let mut opened = 0u64;
    for &op in ops {
        clock.advance(10);
        match op {
            0 if stack.len() < 4 => {
                let label = labels[stack.len()];
                stack.push(span(label).layer(stack.len() as u32).start());
                opened += 1;
            }
            1 => {
                stack.pop();
            }
            _ => span(labels[0]).emit(),
        }
    }
    while stack.pop().is_some() {
        clock.advance(10);
    }
    opened
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Arbitrary open/close/instant sequences on several threads: every
    /// opened span is one record (guards close on drop), spans on one
    /// thread nest, and the Chrome export imports back to the same trace.
    #[test]
    fn recorded_spans_always_match_and_nest(
        seqs in proptest::collection::vec(
            proptest::collection::vec(0u8..3, 0..40),
            1..4,
        ),
    ) {
        let _guard = exclusive();
        let clock = Arc::new(TestClock::new());
        start_with_clock(clock.clone(), 4096);
        let labels: Vec<Label> = (0..4)
            .map(|d| Label::intern(&format!("prop.depth{d}")))
            .collect();

        let mut opened = 0u64;
        let mut threads = Vec::new();
        for (i, seq) in seqs.into_iter().enumerate() {
            if i == 0 {
                opened += replay_ops(&seq, &clock, &labels);
            } else {
                let clock = Arc::clone(&clock);
                let labels = labels.clone();
                threads.push(std::thread::spawn(move || {
                    replay_ops(&seq, &clock, &labels)
                }));
            }
        }
        for t in threads {
            opened += t.join().expect("replay thread");
        }

        let trace = finish();
        prop_assert_eq!(trace.dropped, 0);
        prop_assert_eq!(trace.spans().count() as u64, opened);
        trace.check().expect("per-thread spans nest");
        let json = to_chrome_json(&trace);
        let back = from_chrome_json(&json).expect("exported trace parses");
        back.check().expect("imported spans still nest");
        prop_assert_eq!(to_chrome_json(&back), json);
    }
}

/// A faulted run that falls back to the CPU emits exactly one retry span
/// per retry attempt plus one `backend=host` fallback span, attributed to
/// the offload stage of the correct frame.
#[test]
fn faulted_offload_emits_retry_and_fallback_spans() {
    let _guard = exclusive();
    let mut config = demo_config(8, 4);
    // Same plan as tests/fault_injection.rs: an outage at invocation 3
    // longer than the retry budget, forcing CPU fallback.
    config.system.fault_plan = FaultPlan::outage(3, 6);
    start();
    let report = run_demo(&config).unwrap();
    let trace = finish();

    trace.check().expect("demo trace is well formed");
    assert_eq!(trace.dropped, 0);
    let json = to_chrome_json(&trace);
    assert_eq!(to_chrome_json(&from_chrome_json(&json).unwrap()), json);
    let name = |s: &Event| trace.label_name(s.label).to_owned();

    assert!(report.offload.retries > 0, "the outage triggered retries");
    assert!(report.offload.fallbacks > 0, "the outage outlasted retries");

    // One `offload.attempt` span per retry attempt (attempt >= 1), on the
    // FINN backend.
    let retries: Vec<&Event> = trace
        .spans()
        .filter(|s| name(s) == "offload.attempt" && s.attrs.attempt.unwrap_or(0) > 0)
        .collect();
    assert_eq!(retries.len() as u64, report.offload.retries);
    for s in &retries {
        assert_eq!(s.attrs.backend, Some(Backend::Finn));
    }

    // One backoff sleep per retry (the default policy's base pause is
    // nonzero).
    let backoffs = trace
        .spans()
        .filter(|s| name(s) == "offload.backoff")
        .count();
    assert_eq!(backoffs as u64, report.offload.retries);

    // One `offload.fault` instant per observed fault, carrying the fault
    // text and the failing attempt.
    let faults: Vec<_> = trace
        .instants()
        .filter(|e| trace.label_name(e.label) == "offload.fault")
        .collect();
    assert_eq!(faults.len() as u64, report.offload.faults);
    for f in &faults {
        assert!(f.attrs.fault.is_some(), "fault instants carry the kind");
    }

    // Exactly one `backend=host` fallback span per fallen-back frame,
    // nested inside the offload pipeline stage of a specific frame.
    let fallbacks: Vec<&Event> = trace
        .spans()
        .filter(|s| name(s) == "offload.fallback")
        .collect();
    assert_eq!(fallbacks.len() as u64, report.offload.fallbacks);
    for f in &fallbacks {
        assert_eq!(f.attrs.backend, Some(Backend::Host));
        let stage = trace
            .spans()
            .filter(|s| {
                s.thread == f.thread
                    && s.start_ns <= f.start_ns
                    && f.end_ns <= s.end_ns
                    && name(s).starts_with("L[")
            })
            .min_by_key(|s| s.end_ns - s.start_ns)
            .expect("fallback nests inside a layer stage span");
        assert_eq!(name(stage), "L[1] offload");
        assert!(
            stage.attrs.frame.is_some(),
            "the enclosing stage span attributes the fallback to a frame"
        );
    }

    // Every frame deposited into a pipeline slot shows up as an instant.
    let deposits = trace
        .instants()
        .filter(|e| trace.label_name(e.label) == "slot.deposit")
        .count();
    assert!(deposits as u64 >= report.metrics.frames);
}

/// Tracing changes nothing about what the system computes: a traced
/// degraded run yields byte-identical detections to an untraced one, and
/// the default rings record it without dropping a span.
#[test]
fn tracing_does_not_perturb_results() {
    let _guard = exclusive();
    let mut config = demo_config(6, 3);
    config.system.fault_plan = FaultPlan::outage(2, 4);
    let untraced = run_demo(&config).unwrap();
    start();
    let traced = run_demo(&config).unwrap();
    // Lossless: the per-thread counters behind `tincy_trace_dropped_total`
    // read zero on every ring, so no span went unrecorded.
    let drops = thread_drops().expect("session is live");
    assert!(drops.iter().all(|(_, n)| *n == 0), "span drops: {drops:?}");
    let trace = finish();
    assert!(!trace.events.is_empty());
    assert_eq!(trace.dropped, 0);
    assert_eq!(traced.frame_detections, untraced.frame_detections);
    assert_eq!(traced.offload, untraced.offload);
}
