//! Deterministic arrival schedules for the load driver.
//!
//! A schedule is a pure function of `(pattern, clients, requests, seed)`:
//! per client, the submission offset of each request from the run's
//! start. The driver replays the schedule against the wall clock, so two
//! runs with the same seed submit the same frames at the same virtual
//! times and the offered rate does not drift with the time a submission
//! takes.
//!
//! * [`ArrivalPattern::Closed`] — no schedule: each client keeps one
//!   request outstanding (submit, await the response, repeat).
//! * [`ArrivalPattern::Burst`] — every offset is zero and the target
//!   starts paused: everything is queued before dispatch resumes, so
//!   queue content and batch formation are deterministic.
//! * [`ArrivalPattern::Uniform`] — steady open-loop traffic, every
//!   client pacing at a fixed interval (with a deterministic per-client
//!   phase so thousands of clients do not submit in lockstep).
//! * [`ArrivalPattern::Diurnal`] — a day/night rate swing: the
//!   instantaneous rate follows a raised cosine over `period`, peaking
//!   at `peak_ratio` times the trough rate.
//! * [`ArrivalPattern::FlashCrowd`] — steady traffic with a burst
//!   window in which arrivals are compressed by `factor`, modeling a
//!   flash crowd slamming the fleet; admission control must shed the
//!   peak, not queue it.

use std::time::Duration;

use crate::fleet::mix64;

/// How clients pace their submissions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalPattern {
    /// Closed loop: submit, await the response, repeat.
    Closed,
    /// Everything at offset zero against a paused target, which resumes
    /// after the last submission.
    Burst,
    /// Open loop at a fixed per-client interval.
    Uniform {
        /// Gap between one client's consecutive submissions.
        interval: Duration,
    },
    /// Open loop whose rate swings sinusoidally over `period`.
    Diurnal {
        /// Mean inter-submission gap per client (at rate factor 1).
        base_interval: Duration,
        /// One full day/night cycle.
        period: Duration,
        /// Peak rate over trough rate (≥ 1).
        peak_ratio: f64,
    },
    /// Open loop with a compressed burst window.
    FlashCrowd {
        /// Steady-state inter-submission gap per client.
        base_interval: Duration,
        /// When the crowd arrives.
        at: Duration,
        /// How long the (uncompressed) crowd window lasts.
        width: Duration,
        /// Rate multiplier inside the window (≥ 1): arrivals scheduled
        /// in `[at, at + width)` are squeezed into `width / factor`.
        factor: u32,
    },
}

impl std::str::FromStr for ArrivalPattern {
    type Err = String;

    /// Parses the CLI spelling: `closed`, `burst`, `uniform:GAP_US`,
    /// `diurnal:BASE_US:PERIOD_MS:RATIO`,
    /// `flash:BASE_US:AT_MS:WIDTH_MS:FACTOR`.
    fn from_str(value: &str) -> Result<Self, String> {
        fn num<T: std::str::FromStr>(value: &str, field: &str) -> Result<T, String>
        where
            T::Err: std::fmt::Display,
        {
            field.parse().map_err(|e| format!("{value}: {e}"))
        }
        let micros = |field: &str| num(value, field).map(Duration::from_micros);
        let millis = |field: &str| num(value, field).map(Duration::from_millis);
        let unknown = || {
            format!(
                "unknown pattern {value:?} (expected closed, burst, uniform:GAP_US, \
                 diurnal:BASE_US:PERIOD_MS:RATIO or flash:BASE_US:AT_MS:WIDTH_MS:FACTOR)"
            )
        };
        match value {
            "closed" => return Ok(ArrivalPattern::Closed),
            "burst" => return Ok(ArrivalPattern::Burst),
            _ => {}
        }
        let (kind, rest) = value.split_once(':').ok_or_else(unknown)?;
        let fields: Vec<&str> = rest.split(':').collect();
        match (kind, fields.as_slice()) {
            ("uniform", [gap]) => Ok(ArrivalPattern::Uniform {
                interval: micros(gap)?,
            }),
            ("diurnal", [base, period, ratio]) => Ok(ArrivalPattern::Diurnal {
                base_interval: micros(base)?,
                period: millis(period)?,
                peak_ratio: num(value, ratio)?,
            }),
            ("diurnal", _) => Err(format!("{value}: expected diurnal:BASE_US:PERIOD_MS:RATIO")),
            ("flash", [base, at, width, factor]) => Ok(ArrivalPattern::FlashCrowd {
                base_interval: micros(base)?,
                at: millis(at)?,
                width: millis(width)?,
                factor: num(value, factor)?,
            }),
            ("flash", _) => Err(format!(
                "{value}: expected flash:BASE_US:AT_MS:WIDTH_MS:FACTOR"
            )),
            _ => Err(unknown()),
        }
    }
}

/// Deterministic unit-interval draw for `(seed, client)`.
fn unit(seed: u64, client: u64) -> f64 {
    (mix64(seed ^ 0x6172_7269_7661_6c73, client) >> 11) as f64 / (1u64 << 53) as f64
}

/// Builds the full submission schedule: `schedule[c][k]` is the offset
/// from the run start at which client `c` submits its `k`-th request.
/// Offsets are non-decreasing per client. [`ArrivalPattern::Closed`] has
/// no schedule and yields empty rows (the loop is response-paced).
pub fn arrival_schedule(
    pattern: &ArrivalPattern,
    clients: usize,
    requests_per_client: u64,
    seed: u64,
) -> Vec<Vec<Duration>> {
    (0..clients)
        .map(|c| client_schedule(pattern, c, requests_per_client, seed))
        .collect()
}

fn client_schedule(
    pattern: &ArrivalPattern,
    client: usize,
    requests: u64,
    seed: u64,
) -> Vec<Duration> {
    match *pattern {
        ArrivalPattern::Closed => Vec::new(),
        ArrivalPattern::Burst => (0..requests).map(|_| Duration::ZERO).collect(),
        ArrivalPattern::Uniform { interval } => {
            // Deterministic phase spreads clients across one interval.
            let phase = interval.mul_f64(unit(seed, client as u64));
            (0..requests).map(|k| phase + interval * k as u32).collect()
        }
        ArrivalPattern::Diurnal {
            base_interval,
            period,
            peak_ratio,
        } => {
            let period_s = period.as_secs_f64().max(1e-9);
            let ratio = peak_ratio.max(1.0);
            // Every client gets a deterministic phase within the day, so
            // the fleet's aggregate follows the cycle instead of spiking.
            let phase_s = unit(seed, client as u64) * period_s;
            let mut t = phase_s * 1e-3; // small stagger, not a full day's head start
            let mut out = Vec::with_capacity(requests as usize);
            for _ in 0..requests {
                out.push(Duration::from_secs_f64(t));
                // Instantaneous rate factor ∈ [1, ratio], raised cosine.
                let cycle = ((t + phase_s) / period_s) * std::f64::consts::TAU;
                let rate = 1.0 + (ratio - 1.0) * 0.5 * (1.0 - cycle.cos());
                t += base_interval.as_secs_f64() / rate;
            }
            out
        }
        ArrivalPattern::FlashCrowd {
            base_interval,
            at,
            width,
            factor,
        } => {
            let factor = f64::from(factor.max(1));
            let at_s = at.as_secs_f64();
            let width_s = width.as_secs_f64();
            let phase = base_interval.mul_f64(unit(seed, client as u64));
            (0..requests)
                .map(|k| {
                    let t = (phase + base_interval * k as u32).as_secs_f64();
                    // Compress the window onto width/factor, then close
                    // the gap so post-crowd traffic stays continuous.
                    let t = if t < at_s {
                        t
                    } else if t < at_s + width_s {
                        at_s + (t - at_s) / factor
                    } else {
                        t - width_s * (1.0 - 1.0 / factor)
                    };
                    Duration::from_secs_f64(t)
                })
                .collect()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedules_are_sorted_per_client() {
        let patterns = [
            ArrivalPattern::Uniform {
                interval: Duration::from_millis(2),
            },
            ArrivalPattern::Diurnal {
                base_interval: Duration::from_millis(2),
                period: Duration::from_millis(40),
                peak_ratio: 4.0,
            },
            ArrivalPattern::FlashCrowd {
                base_interval: Duration::from_millis(2),
                at: Duration::from_millis(10),
                width: Duration::from_millis(8),
                factor: 8,
            },
        ];
        for pattern in patterns {
            for row in arrival_schedule(&pattern, 5, 12, 3) {
                assert_eq!(row.len(), 12);
                assert!(row.windows(2).all(|w| w[0] <= w[1]), "{pattern:?}");
            }
        }
    }

    #[test]
    fn closed_pattern_has_no_schedule() {
        let rows = arrival_schedule(&ArrivalPattern::Closed, 3, 9, 1);
        assert!(rows.iter().all(Vec::is_empty));
    }

    #[test]
    fn flash_crowd_compresses_only_the_window() {
        let base = Duration::from_millis(1);
        let pattern = ArrivalPattern::FlashCrowd {
            base_interval: base,
            at: Duration::from_millis(8),
            width: Duration::from_millis(8),
            factor: 8,
        };
        let flat = arrival_schedule(&ArrivalPattern::Uniform { interval: base }, 4, 24, 9);
        let crowd = arrival_schedule(&pattern, 4, 24, 9);
        for (flat_row, crowd_row) in flat.iter().zip(&crowd) {
            for (&f, &c) in flat_row.iter().zip(crowd_row) {
                if f < Duration::from_millis(8) {
                    assert_eq!(f, c, "pre-crowd arrivals untouched");
                } else {
                    assert!(c <= f, "crowd and post-crowd arrivals move earlier");
                }
            }
        }
    }
}
