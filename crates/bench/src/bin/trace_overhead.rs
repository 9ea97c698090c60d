//! Tracing overhead: the demo pipeline with tracing off vs on.
//!
//! The tincy-trace hot path is one relaxed atomic load when disabled and
//! an uncontended per-thread ring push when enabled; this bench proves the
//! end-to-end cost on the real demo pipeline stays under the 5% budget
//! claimed in DESIGN.md §8. Modes are interleaved across repetitions and
//! the minimum wall time per mode is compared (the minimum is the
//! noise-robust estimator for a fixed workload). Writes the result to
//! `BENCH_trace.json` (path overridable as the first argument).
//!
//! ```text
//! cargo run -p tincy-bench --release --bin trace_overhead
//! ```
//!
//! Exits nonzero when the measured overhead exceeds the budget, so CI can
//! gate on it.

use std::time::{Duration, Instant};
use tincy_core::demo::{run_demo, DemoConfig};
use tincy_core::SystemConfig;
use tincy_serve::json::JsonObject;
use tincy_video::SceneConfig;

const REPS: usize = 5;
/// Frames per run: enough that a run lasts a few hundred milliseconds, so
/// the host's run-to-run jitter (a few milliseconds) stays well inside
/// the budget being checked.
const FRAMES: u64 = 192;
const OVERHEAD_BUDGET: f64 = 0.05;

fn config() -> DemoConfig {
    DemoConfig {
        frames: FRAMES,
        system: SystemConfig {
            input_size: 32,
            seed: 7,
            ..Default::default()
        },
        workers: 4,
        score_threshold: 0.2,
        scene: SceneConfig {
            width: 48,
            height: 36,
            ..Default::default()
        },
    }
}

fn run_once(traced: bool) -> Duration {
    let config = config();
    if traced {
        tincy_trace::start();
    }
    let t0 = Instant::now();
    let report = run_demo(&config).expect("demo runs");
    let elapsed = t0.elapsed();
    if traced {
        // The per-thread drop counters back `tincy_trace_dropped_total`
        // on /metrics; a lossless run must show zero on every ring or
        // the <5% overhead claim silently excludes unrecorded spans.
        let drops = tincy_trace::thread_drops().expect("session is live");
        assert!(
            drops.iter().all(|(_, dropped)| *dropped == 0),
            "per-thread span drops during the traced run: {drops:?}"
        );
        let trace = tincy_trace::finish();
        assert!(!trace.events.is_empty(), "traced run recorded events");
        assert_eq!(trace.dropped, 0, "default ring capacity absorbs the run");
    }
    assert_eq!(report.metrics.frames, FRAMES);
    elapsed
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_trace.json".to_owned());

    // Warm both paths once (thread pools, allocator, page faults).
    run_once(false);
    run_once(true);

    let mut off = Duration::MAX;
    let mut on = Duration::MAX;
    for _ in 0..REPS {
        off = off.min(run_once(false));
        on = on.min(run_once(true));
    }

    let overhead = on.as_secs_f64() / off.as_secs_f64() - 1.0;
    println!(
        "demo {FRAMES} frames x4 workers: untraced {:.2} ms, traced {:.2} ms, overhead {:+.2}%",
        off.as_secs_f64() * 1000.0,
        on.as_secs_f64() * 1000.0,
        overhead * 100.0
    );

    let body = format!(
        "{}\n",
        JsonObject::new()
            .str("bench", "trace_overhead")
            .u64("frames", FRAMES)
            .u64("workers", 4)
            .u64("reps", REPS as u64)
            .f64("untraced_ms", off.as_secs_f64() * 1000.0)
            .f64("traced_ms", on.as_secs_f64() * 1000.0)
            .f64("overhead", overhead)
            .f64("budget", OVERHEAD_BUDGET)
            .finish()
    );
    match std::fs::write(&out_path, body) {
        Ok(()) => println!("wrote {out_path}"),
        Err(e) => eprintln!("failed to write {out_path}: {e}"),
    }

    assert!(
        overhead < OVERHEAD_BUDGET,
        "tracing overhead {:.2}% exceeds the {:.0}% budget",
        overhead * 100.0,
        OVERHEAD_BUDGET * 100.0
    );
}
