//! Arrival-schedule determinism and the flash-crowd shedding contract.
//!
//! Schedules are pure functions of `(pattern, clients, requests, seed)`,
//! so a seeded soak is reproducible run to run. Under a flash crowd that
//! exceeds fleet capacity, admission control must *shed* the peak —
//! bounded queues, rejections instead of unbounded buffering — while
//! every admitted request still completes.

use std::time::Duration;
use tincy_core::SystemConfig;
use tincy_serve::{arrival_schedule, run_load, ArrivalPattern, FleetConfig, LoadConfig};
use tincy_video::SceneConfig;

fn diurnal() -> ArrivalPattern {
    ArrivalPattern::Diurnal {
        base_interval: Duration::from_millis(5),
        period: Duration::from_millis(200),
        peak_ratio: 4.0,
    }
}

fn flash_crowd() -> ArrivalPattern {
    ArrivalPattern::FlashCrowd {
        base_interval: Duration::from_millis(20),
        at: Duration::from_millis(100),
        width: Duration::from_millis(160),
        factor: 8,
    }
}

#[test]
fn same_seed_yields_identical_schedules() {
    for pattern in [diurnal(), flash_crowd()] {
        let a = arrival_schedule(&pattern, 32, 12, 42);
        let b = arrival_schedule(&pattern, 32, 12, 42);
        assert_eq!(a, b, "same seed must reproduce the schedule exactly");
        let c = arrival_schedule(&pattern, 32, 12, 43);
        assert_ne!(a, c, "a different seed must perturb the schedule");
    }
}

#[test]
fn diurnal_peak_runs_faster_than_trough() {
    // Gaps at the peak of the raised cosine must be shorter than at the
    // trough by about the peak ratio.
    let schedule = arrival_schedule(&diurnal(), 1, 160, 7);
    let gaps: Vec<f64> = schedule[0]
        .windows(2)
        .map(|w| (w[1] - w[0]).as_secs_f64())
        .collect();
    let (min, max) = gaps
        .iter()
        .fold((f64::MAX, 0f64), |(lo, hi), &g| (lo.min(g), hi.max(g)));
    assert!(
        max / min > 2.0,
        "diurnal modulation is too flat: min gap {min:.6}s, max gap {max:.6}s"
    );
}

#[test]
fn cli_spelling_parses_to_every_pattern() {
    let (us, ms) = (Duration::from_micros, Duration::from_millis);
    let cases = [
        ("closed", ArrivalPattern::Closed),
        ("burst", ArrivalPattern::Burst),
        (
            "uniform:2000",
            ArrivalPattern::Uniform { interval: us(2000) },
        ),
        (
            "diurnal:5000:200:4",
            ArrivalPattern::Diurnal {
                base_interval: us(5000),
                period: ms(200),
                peak_ratio: 4.0,
            },
        ),
        (
            "flash:20000:100:160:8",
            ArrivalPattern::FlashCrowd {
                base_interval: us(20000),
                at: ms(100),
                width: ms(160),
                factor: 8,
            },
        ),
    ];
    for (text, want) in cases {
        assert_eq!(text.parse::<ArrivalPattern>(), Ok(want), "{text}");
    }
    let err = |text: &str| text.parse::<ArrivalPattern>().unwrap_err();
    assert!(err("diurnal:1:2").contains("expected diurnal:BASE_US:PERIOD_MS:RATIO"));
    assert!(err("flash:1:2:3").contains("expected flash:BASE_US:AT_MS:WIDTH_MS:FACTOR"));
    assert!(err("uniform:fast").starts_with("uniform:fast: "));
    assert!(err("steady").starts_with("unknown pattern \"steady\""));
}

/// A flash crowd beyond fleet capacity is shed at admission: rejections
/// rise, the pending queue never exceeds its bound, and every admitted
/// request completes — the overload never converts into queueing or
/// loss.
#[test]
fn flash_crowd_peak_sheds_instead_of_queueing() {
    let queue_capacity = 2;
    let mut config = FleetConfig {
        shards: 2,
        ..Default::default()
    };
    config.base.system = SystemConfig {
        input_size: 32,
        seed: 5,
        ..Default::default()
    };
    config.base.cpu_workers = 1;
    config.base.queue_capacity = queue_capacity;
    config.base.per_client_capacity = 2;
    config.base.score_threshold = 0.0;
    let load = LoadConfig {
        clients: 8,
        requests_per_client: 12,
        pattern: flash_crowd(),
        scene: SceneConfig {
            width: 48,
            height: 36,
            ..Default::default()
        },
        seed: 9,
        workers: 4,
    };
    let report = run_load(config, &load, |_| {}).expect("fleet run succeeds");

    assert!(
        report.rejected() > 0,
        "the flash crowd exceeded fleet capacity but nothing was shed"
    );
    assert_eq!(
        report.dropped(),
        0,
        "admitted requests must complete even while the peak sheds"
    );
    assert_eq!(report.target.lost(), 0, "no shard may lose admitted work");
    for (shard, serve) in report.target.shards.iter().enumerate() {
        assert!(
            serve.max_depth <= queue_capacity,
            "shard {shard} queued {} deep past its bound of {queue_capacity}",
            serve.max_depth
        );
    }
}
