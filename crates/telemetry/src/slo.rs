//! Per-class SLO error budgets and multi-window burn-rate evaluation.
//!
//! Each class carries two budgets: a latency budget (the allowed
//! fraction of requests breaching the class's target) and a shed budget
//! (the allowed fraction of requests rejected). The burn rate over a
//! window is how fast the worse of the two budgets is being consumed
//! relative to its sustainable rate — 1.0 means "exactly on budget",
//! higher means the budget depletes early.
//!
//! Alerting follows the standard multi-window pattern: a *fast* pair
//! (5 s and 1 m) that trips quickly on hard outages, and a *slow* pair
//! (30 s and 5 m) that catches sustained low-grade burn. A pair alerts
//! only when **both** of its windows exceed its threshold — the short
//! window proves the burn is current, the long one proves it is not a
//! blip — and clears as soon as either window recovers.
//!
//! Time is injected: every entry point takes `now_ns` (nanoseconds on a
//! caller-owned monotonic origin), so production drives the tracker from
//! an `Instant` anchor while tests replay deterministic schedules.

use std::collections::VecDeque;
use std::time::Duration;

/// The evaluation windows, pairing order fast→slow: 5 s + 1 m trip the
/// fast alert, 30 s + 5 m the slow one. Index into [`SloStatus::burn`].
pub const SLO_WINDOWS: [Duration; 4] = [
    Duration::from_secs(5),
    Duration::from_secs(60),
    Duration::from_secs(30),
    Duration::from_secs(300),
];

/// Exposition names for [`SLO_WINDOWS`], same order.
pub const SLO_WINDOW_NAMES: [&str; 4] = ["5s", "1m", "30s", "5m"];

/// Error-budget policy for one request class.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloPolicy {
    /// Allowed fraction of requests breaching the latency target (or
    /// served degraded).
    pub latency_budget: f64,
    /// Allowed fraction of requests shed (rejected at admission).
    pub shed_budget: f64,
    /// Fast-pair (5 s + 1 m) burn-rate threshold; alerts fire on
    /// *strictly* exceeding it, so exactly-at-budget load stays quiet.
    pub fast_threshold: f64,
    /// Slow-pair (30 s + 5 m) burn-rate threshold.
    pub slow_threshold: f64,
}

impl Default for SloPolicy {
    /// Conservative production-style thresholds (the classic 14.4×/6×
    /// page points): steady traffic near its targets never alerts.
    fn default() -> Self {
        Self {
            latency_budget: 0.05,
            shed_budget: 0.02,
            fast_threshold: 14.4,
            slow_threshold: 6.0,
        }
    }
}

impl SloPolicy {
    /// Smoke-test policy: any sustained over-budget burn trips, so a
    /// seeded fault injection deterministically fires and clears alerts
    /// within one short run.
    #[must_use]
    pub fn sensitive() -> Self {
        Self {
            latency_budget: 0.02,
            shed_budget: 0.02,
            fast_threshold: 1.0,
            slow_threshold: 1.0,
        }
    }
}

/// One evaluated snapshot of a class's budget state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloStatus {
    /// Burn rate per window, indexed like [`SLO_WINDOWS`].
    pub burn: [f64; 4],
    /// Fast-pair alert currently active.
    pub fast_active: bool,
    /// Slow-pair alert currently active.
    pub slow_active: bool,
    /// Rising edges seen so far: `[fast, slow]`.
    pub fired: [u64; 2],
    /// Falling edges seen so far: `[fast, slow]`.
    pub cleared: [u64; 2],
    /// Fraction of the 5 m error budget still unspent, clamped to
    /// `[0, 1]`; refills as breaches age out of the window.
    pub budget_remaining: f64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Outcome {
    Good,
    /// Latency breach or degraded service.
    Bad,
    /// Rejected at admission.
    Shed,
}

/// Burn-rate tracker for one request class. Not internally synchronized;
/// callers wrap it in their own lock (the serve scheduler already owns
/// one).
#[derive(Debug)]
pub struct SloTracker {
    target: Duration,
    policy: SloPolicy,
    /// (t_ns, outcome), oldest first, pruned beyond the longest window.
    events: VecDeque<(u64, Outcome)>,
    fast_active: bool,
    slow_active: bool,
    fired: [u64; 2],
    cleared: [u64; 2],
}

impl SloTracker {
    /// A tracker for a class with the given latency target.
    #[must_use]
    pub fn new(target: Duration, policy: SloPolicy) -> Self {
        Self {
            target,
            policy,
            events: VecDeque::new(),
            fast_active: false,
            slow_active: false,
            fired: [0; 2],
            cleared: [0; 2],
        }
    }

    /// The class's latency target.
    #[must_use]
    pub fn target(&self) -> Duration {
        self.target
    }

    /// Records one served request. `degraded` marks service that met the
    /// clock but not the promise (e.g. a frame served while the
    /// accelerator was faulted out) — it burns latency budget too, which
    /// keeps alert edges deterministic under injected outages even when
    /// wall-clock latency stays lucky.
    pub fn record(&mut self, now_ns: u64, latency: Duration, degraded: bool) {
        let outcome = if degraded || latency > self.target {
            Outcome::Bad
        } else {
            Outcome::Good
        };
        self.push(now_ns, outcome);
    }

    /// Records one shed (rejected) request.
    pub fn record_shed(&mut self, now_ns: u64) {
        self.push(now_ns, Outcome::Shed);
    }

    /// Closes the books on what was recorded so far: one last
    /// [`Self::evaluate`] counts any alert that evidence raises, then the
    /// windowed outcomes are dropped and the edge counts kept, so the next
    /// evaluation judges only what is recorded from now on (counting an
    /// active alert's falling edge).
    pub fn rearm(&mut self, now_ns: u64) {
        self.evaluate(now_ns);
        self.events.clear();
    }

    fn push(&mut self, now_ns: u64, outcome: Outcome) {
        self.events.push_back((now_ns, outcome));
        self.prune(now_ns);
    }

    fn prune(&mut self, now_ns: u64) {
        let horizon = SLO_WINDOWS[3].as_nanos() as u64;
        let cutoff = now_ns.saturating_sub(horizon);
        while self.events.front().is_some_and(|&(t, _)| t < cutoff) {
            self.events.pop_front();
        }
    }

    /// Burn rate over the trailing `window`: the worse of
    /// `violation_rate / latency_budget` and `shed_rate / shed_budget`.
    /// An empty window burns nothing.
    #[must_use]
    pub fn burn_rate(&self, now_ns: u64, window: Duration) -> f64 {
        let cutoff = now_ns.saturating_sub(window.as_nanos() as u64);
        let (mut total, mut bad, mut shed) = (0u64, 0u64, 0u64);
        for &(t, outcome) in self.events.iter().rev() {
            if t < cutoff {
                break;
            }
            total += 1;
            match outcome {
                Outcome::Good => {}
                Outcome::Bad => bad += 1,
                Outcome::Shed => shed += 1,
            }
        }
        if total == 0 {
            return 0.0;
        }
        let latency_burn = (bad as f64 / total as f64) / self.policy.latency_budget;
        let shed_burn = (shed as f64 / total as f64) / self.policy.shed_budget;
        latency_burn.max(shed_burn)
    }

    /// Evaluates every window at `now_ns`, updates alert edges, and
    /// returns the snapshot. Call this from the scrape/health path too:
    /// alerts must clear by time passing, not only by new traffic.
    pub fn evaluate(&mut self, now_ns: u64) -> SloStatus {
        self.prune(now_ns);
        let burn = SLO_WINDOWS.map(|w| self.burn_rate(now_ns, w));
        let fast = burn[0] > self.policy.fast_threshold && burn[1] > self.policy.fast_threshold;
        let slow = burn[2] > self.policy.slow_threshold && burn[3] > self.policy.slow_threshold;
        if fast && !self.fast_active {
            self.fired[0] += 1;
        }
        if !fast && self.fast_active {
            self.cleared[0] += 1;
        }
        if slow && !self.slow_active {
            self.fired[1] += 1;
        }
        if !slow && self.slow_active {
            self.cleared[1] += 1;
        }
        self.fast_active = fast;
        self.slow_active = slow;
        SloStatus {
            burn,
            fast_active: fast,
            slow_active: slow,
            fired: self.fired,
            cleared: self.cleared,
            budget_remaining: (1.0 - burn[3]).clamp(0.0, 1.0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SEC: u64 = 1_000_000_000;

    /// Feeds `per_sec` served requests per second over `[from, to)`
    /// seconds, `bad_per_sec` of them breaching the target.
    fn feed(tracker: &mut SloTracker, from: u64, to: u64, per_sec: u64, bad_per_sec: u64) {
        let target = tracker.target();
        for sec in from..to {
            for i in 0..per_sec {
                let now = sec * SEC + i * (SEC / per_sec);
                let latency = if i < bad_per_sec {
                    target + Duration::from_millis(50)
                } else {
                    target
                };
                tracker.record(now, latency, false);
            }
        }
    }

    #[test]
    fn fast_burn_trips_and_clears() {
        let mut tracker = SloTracker::new(Duration::from_millis(50), SloPolicy::default());
        // Hard outage: every request breaches → burn 1/0.05 = 20 > 14.4
        // on both fast windows once the outage spans them.
        feed(&mut tracker, 0, 8, 20, 20);
        let status = tracker.evaluate(8 * SEC);
        assert!(status.fast_active, "burn {:?}", status.burn);
        assert_eq!(status.fired[0], 1);
        assert!((status.budget_remaining - 0.0).abs() < f64::EPSILON);
        // Recovery: clean traffic dilutes the 5 s window first.
        feed(&mut tracker, 8, 20, 20, 0);
        let status = tracker.evaluate(20 * SEC);
        assert!(!status.fast_active);
        assert_eq!(status.cleared[0], 1);
        assert_eq!(status.fired[0], 1, "no re-fire during recovery");
    }

    #[test]
    fn slow_burn_trips_without_fast() {
        let mut tracker = SloTracker::new(Duration::from_millis(50), SloPolicy::default());
        // 40% breaches → burn 0.4/0.05 = 8: above the slow threshold (6),
        // below the fast one (14.4). Sustain it across the 5 m window.
        feed(&mut tracker, 0, 310, 10, 4);
        let status = tracker.evaluate(310 * SEC);
        assert!(!status.fast_active, "burn {:?}", status.burn);
        assert!(status.slow_active, "burn {:?}", status.burn);
        assert_eq!(status.fired, [0, 1]);
    }

    #[test]
    fn rearm_counts_the_alert_then_judges_afresh() {
        let mut tracker = SloTracker::new(Duration::from_millis(50), SloPolicy::default());
        feed(&mut tracker, 0, 8, 20, 20);
        // Never evaluated mid-outage: the rearm still counts the alert.
        tracker.rearm(8 * SEC);
        let status = tracker.evaluate(8 * SEC);
        assert!(!status.fast_active, "burn {:?}", status.burn);
        assert_eq!((status.fired[0], status.cleared[0]), (1, 1));
        assert_eq!(status.burn, [0.0; 4]);
    }

    #[test]
    fn budget_refills_as_breaches_age_out() {
        let mut tracker = SloTracker::new(Duration::from_millis(50), SloPolicy::default());
        feed(&mut tracker, 0, 2, 50, 50); // 2 s hard outage, then silence
        let during = tracker.evaluate(3 * SEC);
        assert_eq!(during.budget_remaining, 0.0, "burn {:?}", during.burn);
        // Half the window later the breaches still count...
        let later = tracker.evaluate(150 * SEC);
        assert_eq!(later.budget_remaining, 0.0);
        // ...but once they age past 5 m the budget is whole again.
        let refilled = tracker.evaluate(310 * SEC);
        assert_eq!(refilled.budget_remaining, 1.0);
        assert!(!refilled.fast_active && !refilled.slow_active);
    }

    #[test]
    fn no_alert_at_exactly_target_load() {
        // Even the sensitive policy (thresholds 1.0) stays quiet when the
        // breach fraction sits exactly on budget: burn == 1.0 is not an
        // alert, it is the definition of sustainable.
        let mut tracker = SloTracker::new(Duration::from_millis(50), SloPolicy::sensitive());
        // 2% breaches against a 2% budget; requests at exactly the
        // target are compliant, not breaches.
        feed(&mut tracker, 0, 310, 100, 2);
        let status = tracker.evaluate(310 * SEC);
        for burn in status.burn {
            assert!((burn - 1.0).abs() < 1e-9, "burn {burn}");
        }
        assert!(!status.fast_active && !status.slow_active);
        assert_eq!(status.fired, [0, 0]);
        assert!((status.budget_remaining - 0.0).abs() < 1e-9);
    }

    #[test]
    fn shed_rate_burns_its_own_budget() {
        let mut tracker = SloTracker::new(Duration::from_millis(50), SloPolicy::default());
        // Latency is pristine but 50% of traffic is shed: the shed
        // budget (2%) burns at 25× and must trip both pairs.
        for sec in 0..61 {
            for i in 0..10u64 {
                let now = sec * SEC + i * (SEC / 10);
                if i % 2 == 0 {
                    tracker.record(now, Duration::from_millis(1), false);
                } else {
                    tracker.record_shed(now);
                }
            }
        }
        let status = tracker.evaluate(61 * SEC);
        assert!(status.fast_active, "burn {:?}", status.burn);
        assert_eq!(status.fired[0], 1);
    }
}
