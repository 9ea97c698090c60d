//! Multi-variant serving benchmark: one serve process hosting a
//! two-rung quantization-variant ladder (a cheap 32-px rung and an
//! accurate 64-px rung of the paper design point), measured three ways:
//!
//! 1. **SLO routing pays**: with tight traffic pinned to the cheap rung
//!    and best-effort to the accurate one, the tight class's p99 must be
//!    at least 2x better than the accurate rung's p99.
//! 2. **Drift cycle conserves work**: a published drift alert demotes
//!    traffic down the ladder and a clean streak promotes it back; no
//!    response is lost or duplicated across the demote -> promote cycle.
//! 3. **Bit-exact under outage**: with a seeded FINN outage mid-run,
//!    every response still matches its own variant's bit-exact software
//!    reference path.
//!
//! Results go to `BENCH_variants.json` (path overridable as the first
//! argument); every claim is also asserted, so the bench doubles as a
//! regression gate.
//!
//! ```text
//! cargo run -p tincy-bench --release --bin variants [-- out.json]
//! ```

use std::collections::HashMap;
use std::time::{Duration, Instant};
use tincy_core::SystemConfig;
use tincy_explore::DesignPoint;
use tincy_finn::FaultPlan;
use tincy_json::{array_u64, JsonObject};
use tincy_nn::ModelSpec;
use tincy_serve::{
    run_load, ArrivalPattern, DriftHandle, DriftStatus, InferenceServer, LoadConfig, ServeConfig,
    ServeEngine, ServeVariant, ShiftPolicy, SloClass, VariantLadder,
};
use tincy_tensor::Shape3;
use tincy_video::{Image, SceneConfig, SyntheticCamera};

/// The paper design point rescaled to a square `input`-px frame: same
/// topology, folding and weight seed, different compute cost.
fn variant_model(input: usize) -> ModelSpec {
    let mut model = DesignPoint::PAPER.model();
    let channels = model.network.input.channels;
    model.network.input = Shape3::new(channels, input, input);
    model
}

/// The bench ladder: cheap 32-px rung below an accurate 64-px rung
/// (4x the pixels, so roughly 4x the convolution work per frame).
fn ladder() -> VariantLadder {
    VariantLadder::new(vec![
        ServeVariant {
            name: "cheap-32".to_owned(),
            model: variant_model(32),
            accuracy: 41.1,
        },
        ServeVariant {
            name: "accurate-64".to_owned(),
            model: variant_model(64),
            accuracy: 48.5,
        },
    ])
    .expect("two distinct rungs form a ladder")
}

fn base_config() -> ServeConfig {
    ServeConfig {
        variants: Some(ladder()),
        cpu_workers: 0,
        max_batch: 4,
        queue_capacity: 256,
        per_client_capacity: 64,
        score_threshold: 0.02,
        // The gap and bit-exactness sections must not shift mid-run;
        // the drift section overrides this with a twitchy policy.
        shift: ShiftPolicy {
            demote_after: 1_000_000,
            promote_after: 1_000_000,
            every: Duration::from_millis(10),
        },
        ..Default::default()
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1000.0
}

fn wait_until(timeout: Duration, mut cond: impl FnMut() -> bool) -> bool {
    let start = Instant::now();
    while start.elapsed() < timeout {
        if cond() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    false
}

/// Section 1: closed-loop load with interactive clients on the cheap
/// rung and batch clients on the accurate one; returns the JSON row.
fn bench_p99_gap() -> String {
    let load = LoadConfig {
        clients: 4,
        requests_per_client: 16,
        pattern: ArrivalPattern::Closed,
        classes: vec![SloClass::Interactive, SloClass::Batch],
        ..Default::default()
    };
    let report = run_load::<InferenceServer>(base_config(), &load, |_| {})
        .expect("gap section server starts");
    assert_eq!(report.dropped(), 0, "accepted requests must all complete");
    assert!(report.all_in_order(), "per-client ordering must hold");
    let s = &report.target;
    assert_eq!(s.shifts_down + s.shifts_up, 0, "gap section must not shift");
    let cheap_p99 = s.variant_latency[0].p99();
    let accurate_p99 = s.variant_latency[1].p99();
    assert!(
        s.variant_latency[0].count() > 0 && s.variant_latency[1].count() > 0,
        "both rungs must carry traffic"
    );
    assert!(
        cheap_p99 * 2 <= accurate_p99,
        "tight-class p99 on the cheap rung ({:.2} ms) must be at least 2x \
         better than the accurate rung's p99 ({:.2} ms)",
        ms(cheap_p99),
        ms(accurate_p99)
    );
    println!(
        "p99 gap: cheap {:.2} ms vs accurate {:.2} ms ({:.1}x)",
        ms(cheap_p99),
        ms(accurate_p99),
        accurate_p99.as_secs_f64() / cheap_p99.as_secs_f64()
    );
    JsonObject::new()
        .f64("cheap_p99_ms", ms(cheap_p99))
        .f64("accurate_p99_ms", ms(accurate_p99))
        .f64("gap", accurate_p99.as_secs_f64() / cheap_p99.as_secs_f64())
        .u64("cheap_items", s.variant_items[0])
        .u64("accurate_items", s.variant_items[1])
        .finish()
}

fn submit_phase(
    client: &tincy_serve::ClientHandle,
    camera: &mut SyntheticCamera,
    n: usize,
) -> Vec<u64> {
    let mut seqs = Vec::with_capacity(n);
    for _ in 0..n {
        let image = camera.capture().expect("camera has frames left");
        seqs.push(
            client
                .submit(image, SloClass::Batch)
                .expect("bounded submissions are admitted"),
        );
    }
    seqs
}

/// Section 2: a drift alert demotes batch traffic to the cheap rung, a
/// clean streak promotes it back; conservation holds throughout.
fn bench_drift_cycle() -> String {
    const PHASE: usize = 8;
    let drift = DriftHandle::default();
    let config = ServeConfig {
        drift: Some(drift.clone()),
        shift: ShiftPolicy {
            demote_after: 2,
            promote_after: 2,
            every: Duration::from_millis(2),
        },
        ..base_config()
    };
    let server = InferenceServer::start(config).expect("drift section server starts");
    let client = server.client();
    let mut camera = SyntheticCamera::with_limit(SceneConfig::default(), 11, 3 * PHASE as u64);
    let mut submitted = Vec::new();
    let mut responses = Vec::new();
    let recv_phase = |n: usize, out: &mut Vec<_>| {
        for _ in 0..n {
            out.push(client.recv().expect("admitted work is delivered"));
        }
    };

    // Phase A at home: batch traffic on the accurate rung.
    assert_eq!(server.active_variants(), [0, 0, 1]);
    submitted.extend(submit_phase(&client, &mut camera, PHASE));
    recv_phase(PHASE, &mut responses);

    // Alert: the monitor must demote batch traffic to the cheap rung.
    drift.publish(DriftStatus {
        alerted: true,
        ..Default::default()
    });
    assert!(
        wait_until(Duration::from_secs(5), || server.active_variants()[2] == 0),
        "sustained drift must demote the batch class"
    );
    submitted.extend(submit_phase(&client, &mut camera, PHASE));
    recv_phase(PHASE, &mut responses);

    // Clean streak: traffic must be promoted back to its home rung.
    drift.publish(DriftStatus::default());
    assert!(
        wait_until(Duration::from_secs(5), || server.active_variants()[2] == 1),
        "a clean streak must promote the batch class back"
    );
    submitted.extend(submit_phase(&client, &mut camera, PHASE));
    recv_phase(PHASE, &mut responses);

    let report = server.finish();
    assert!(report.shifts_down >= 1, "the alert must cause a demotion");
    assert!(report.shifts_up >= 1, "the clean streak must promote back");
    // Conservation across the cycle: every submitted request came back
    // exactly once, in submission order (no losses, no duplicates).
    let got: Vec<u64> = responses.iter().map(|r| r.seq).collect();
    assert_eq!(got, submitted, "responses must match submissions 1:1");
    assert_eq!(report.accepted, 3 * PHASE as u64);
    assert_eq!(report.completed, report.accepted, "no response lost");
    let phase_variants: Vec<usize> = responses.iter().map(|r| r.variant).collect();
    assert_eq!(&phase_variants[..PHASE], &[1; PHASE], "phase A at home");
    assert_eq!(
        &phase_variants[PHASE..2 * PHASE],
        &[0; PHASE],
        "phase B demoted to the cheap rung"
    );
    assert_eq!(
        &phase_variants[2 * PHASE..],
        &[1; PHASE],
        "phase C promoted back home"
    );
    println!(
        "drift cycle: {} down / {} up shifts, {} requests conserved",
        report.shifts_down, report.shifts_up, report.completed
    );
    JsonObject::new()
        .u64("requests", report.completed)
        .u64("shifts_down", report.shifts_down)
        .u64("shifts_up", report.shifts_up)
        .raw(
            "phase_variants",
            &array_u64(&phase_variants.iter().map(|&v| v as u64).collect::<Vec<_>>()),
        )
        .bool("conserved", true)
        .finish()
}

/// Section 3: a seeded FINN outage mid-run; every response must still be
/// bit-exact with its own variant's software reference path.
fn bench_bit_exact_under_outage() -> String {
    const REQUESTS: u64 = 16;
    let mut config = base_config();
    config.cpu_workers = 1;
    config.system = SystemConfig {
        input_size: 32,
        fault_plan: FaultPlan::outage(1, 2),
        ..Default::default()
    };
    let rungs = ladder();
    let server = InferenceServer::start(config.clone()).expect("outage section server starts");
    let client = server.client();
    let mut camera = SyntheticCamera::with_limit(SceneConfig::default(), 21, REQUESTS);
    let mut by_seq: HashMap<u64, Image> = HashMap::new();
    for i in 0..REQUESTS {
        let image = camera.capture().expect("camera has frames left");
        // Alternate classes so both rungs see traffic through the outage.
        let class = if i % 2 == 0 {
            SloClass::Interactive
        } else {
            SloClass::Batch
        };
        let seq = client
            .submit(image.clone(), class)
            .expect("bounded submissions are admitted");
        by_seq.insert(seq, image);
    }
    let mut references: Vec<ServeEngine> = rungs
        .variants()
        .iter()
        .map(|v| {
            ServeEngine::cpu_for_model(&v.model, &config.system, config.score_threshold)
                .expect("reference engine builds")
        })
        .collect();
    let mut mismatches = 0u64;
    let mut checked = 0u64;
    for _ in 0..REQUESTS {
        let response = client.recv().expect("admitted work is delivered");
        let image = &by_seq[&response.seq];
        let expected = references[response.variant]
            .process_host(image)
            .expect("reference path evaluates");
        checked += 1;
        if response.detections != expected {
            mismatches += 1;
        }
    }
    let report = server.finish();
    assert_eq!(
        mismatches, 0,
        "every response must be bit-exact with its variant's reference"
    );
    assert!(
        report.offload.faults > 0,
        "the seeded outage must actually fault the fabric"
    );
    println!(
        "bit-exact under outage: {checked} responses verified, {} faults absorbed",
        report.offload.faults
    );
    JsonObject::new()
        .u64("requests", checked)
        .u64("mismatches", mismatches)
        .u64("faults", report.offload.faults)
        .u64("retries", report.offload.retries)
        .u64("fallbacks", report.offload.fallbacks)
        .finish()
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_variants.json".to_owned());
    let gap = bench_p99_gap();
    let cycle = bench_drift_cycle();
    let exact = bench_bit_exact_under_outage();
    let body = format!(
        "{}\n",
        JsonObject::new()
            .str("bench", "variants")
            .str("ladder", "cheap-32 < accurate-64")
            .raw("p99_gap", &gap)
            .raw("drift_cycle", &cycle)
            .raw("bit_exact_under_outage", &exact)
            .finish()
    );
    match std::fs::write(&out_path, body) {
        Ok(()) => println!("\nwrote {out_path}"),
        Err(e) => eprintln!("\nfailed to write {out_path}: {e}"),
    }
}
