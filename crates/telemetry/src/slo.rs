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
//! blip — and clears as soon as either window recovers. Alert edges are
//! counted as outcomes are recorded: every record evaluates, so an
//! outage that nobody scrapes still counts the alert it raised.
//!
//! Time is injected: every entry point takes `now_ns` (nanoseconds on a
//! caller-owned monotonic origin), so production drives the tracker from
//! an `Instant` anchor while tests replay deterministic schedules.

use std::collections::VecDeque;
use std::time::Duration;

/// The evaluation windows, pairing order fast→slow: 5 s + 1 m trip the
/// fast alert, 30 s + 5 m the slow one. A window of length `w` holds the
/// outcomes recorded in `(now - w, now]`. Index into [`SloStatus::burn`].
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

/// Outcomes inside one trailing window.
#[derive(Debug, Clone, Copy, Default)]
struct Counts {
    total: u64,
    bad: u64,
    shed: u64,
}

impl Counts {
    fn add(&mut self, outcome: Outcome) {
        self.total += 1;
        match outcome {
            Outcome::Good => {}
            Outcome::Bad => self.bad += 1,
            Outcome::Shed => self.shed += 1,
        }
    }

    fn sub(&mut self, outcome: Outcome) {
        self.total -= 1;
        match outcome {
            Outcome::Good => {}
            Outcome::Bad => self.bad -= 1,
            Outcome::Shed => self.shed -= 1,
        }
    }

    /// The worse of `violation_rate / latency_budget` and
    /// `shed_rate / shed_budget`. A window holding fewer than one budget's
    /// worth of outcomes (`⌈1 / budget⌉`, the count in which a single miss
    /// is exactly on budget) is rated as if it held that many, so one miss
    /// in a near-empty window is not an alert. An empty window burns
    /// nothing.
    fn burn(self, policy: &SloPolicy) -> f64 {
        let rate = |misses: u64, budget: f64| {
            let outcomes = (self.total as f64).max((1.0 / budget).ceil());
            misses as f64 / outcomes / budget
        };
        rate(self.bad, policy.latency_budget).max(rate(self.shed, policy.shed_budget))
    }
}

/// Burn-rate tracker for one request class. Not internally synchronized;
/// callers wrap it in their own lock (the serve scheduler already owns
/// one).
///
/// Every record evaluates, so an alert edge is counted when the outcome
/// that raises or clears it is recorded, whoever (if anyone) reads the
/// status. Each window keeps running counts and a cursor on its oldest
/// event, so recording costs the same however many events the 5 m
/// window holds.
#[derive(Debug)]
pub struct SloTracker {
    target: Duration,
    policy: SloPolicy,
    /// (t_ns, outcome), oldest first: the events inside the longest
    /// window.
    events: VecDeque<(u64, Outcome)>,
    /// Sequence number of `events.front()`.
    head: u64,
    /// Per window, the sequence number of its oldest event still inside
    /// it, indexed like [`SLO_WINDOWS`].
    tails: [u64; 4],
    /// Per window, the outcomes from its tail to the newest event.
    counts: [Counts; 4],
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
            head: 0,
            tails: [0; 4],
            counts: [Counts::default(); 4],
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

    fn push(&mut self, now_ns: u64, outcome: Outcome) {
        self.events.push_back((now_ns, outcome));
        for counts in &mut self.counts {
            counts.add(outcome);
        }
        self.evaluate(now_ns);
    }

    /// Moves every window's tail past the events it no longer holds at
    /// `now_ns`: a window of length `w` holds the events of
    /// `(now - w, now]`. Then drops what no window holds.
    fn expire(&mut self, now_ns: u64) {
        for (w, window) in SLO_WINDOWS.iter().enumerate() {
            let span = window.as_nanos() as u64;
            while let Some(&(t, outcome)) = self.events.get((self.tails[w] - self.head) as usize) {
                if t.saturating_add(span) > now_ns {
                    break;
                }
                self.counts[w].sub(outcome);
                self.tails[w] += 1;
            }
        }
        let oldest = self.tails.iter().copied().min().unwrap_or(self.head);
        while self.head < oldest {
            self.events.pop_front();
            self.head += 1;
        }
    }

    /// Evaluates every window at `now_ns`, updates alert edges, and
    /// returns the snapshot. Recording already evaluates; call this from
    /// the scrape/health path too, so alerts clear by time passing, not
    /// only by new traffic.
    pub fn evaluate(&mut self, now_ns: u64) -> SloStatus {
        self.expire(now_ns);
        let burn = self.counts.map(|counts| counts.burn(&self.policy));
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
    /// seconds, the last at the end of each second, `bad_per_sec` of them
    /// breaching the target and spread evenly over the second (the
    /// request that completes each `per_sec / bad_per_sec` share breaches).
    fn feed(tracker: &mut SloTracker, from: u64, to: u64, per_sec: u64, bad_per_sec: u64) {
        let target = tracker.target();
        for sec in from..to {
            for i in 0..per_sec {
                let now = sec * SEC + (i + 1) * (SEC / per_sec);
                let breach = (i + 1) * bad_per_sec / per_sec > i * bad_per_sec / per_sec;
                let latency = if breach {
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
        // 50% breaches → burn 0.5/0.05 = 10: above the slow threshold (6),
        // below the fast one (14.4). Sustain it across the 5 m window.
        feed(&mut tracker, 0, 310, 10, 5);
        let status = tracker.evaluate(310 * SEC);
        assert!(!status.fast_active, "burn {:?}", status.burn);
        assert!(status.slow_active, "burn {:?}", status.burn);
        assert_eq!(status.fired, [0, 1]);
    }

    #[test]
    fn recording_counts_edges_that_no_evaluation_saw() {
        let mut tracker = SloTracker::new(Duration::from_millis(50), SloPolicy::default());
        // An outage and its recovery, with nobody reading the status in
        // between: the records themselves count both edges.
        feed(&mut tracker, 0, 8, 20, 20);
        feed(&mut tracker, 8, 20, 20, 0);
        let status = tracker.evaluate(20 * SEC);
        assert!(!status.fast_active, "burn {:?}", status.burn);
        assert_eq!((status.fired[0], status.cleared[0]), (1, 1));
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
    fn one_miss_in_a_fresh_window_is_on_budget_not_an_alert() {
        for policy in [SloPolicy::default(), SloPolicy::sensitive()] {
            let mut missed = SloTracker::new(Duration::from_millis(50), policy);
            missed.record(SEC, Duration::from_millis(1), true);
            let mut shed = SloTracker::new(Duration::from_millis(50), policy);
            shed.record_shed(SEC);
            for status in [missed.evaluate(SEC), shed.evaluate(SEC)] {
                assert_eq!(status.fired, [0, 0], "burn {:?}", status.burn);
                assert!(status.burn.iter().all(|&b| b <= 1.0), "{:?}", status.burn);
            }
        }
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

    /// The burn rates the old evaluation computed: one scan of the whole
    /// history per window.
    fn scan(history: &[(u64, Outcome)], now_ns: u64, policy: &SloPolicy) -> [f64; 4] {
        SLO_WINDOWS.map(|window| {
            let span = window.as_nanos() as u64;
            let mut counts = Counts::default();
            for &(t, outcome) in history.iter().rev() {
                if t.saturating_add(span) <= now_ns {
                    break;
                }
                counts.add(outcome);
            }
            counts.burn(policy)
        })
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(32))]

        /// The running counts burn exactly what a full scan burns, after
        /// every record and every bare evaluation, on streams whose
        /// timestamps run past the longest window.
        #[test]
        fn running_counts_burn_what_the_scan_burns(
            steps in proptest::collection::vec((0u64..3_000, 0u8..4), 300..600),
        ) {
            let policy = SloPolicy::default();
            let mut tracker = SloTracker::new(Duration::from_millis(50), policy);
            let mut history = Vec::new();
            let mut now = 0;
            for (gap_ms, kind) in steps {
                now += gap_ms * 1_000_000;
                match kind {
                    0 => tracker.record(now, Duration::from_millis(1), false),
                    1 => tracker.record(now, Duration::from_millis(1), true),
                    2 => tracker.record_shed(now),
                    _ => {}
                }
                if let Some(outcome) = [Outcome::Good, Outcome::Bad, Outcome::Shed].get(kind as usize) {
                    history.push((now, *outcome));
                }
                let status = tracker.evaluate(now);
                proptest::prop_assert_eq!(status.burn, scan(&history, now, &policy));
                let longest = SLO_WINDOWS[3].as_nanos() as u64;
                let held = history.iter().filter(|(t, _)| t + longest > now).count();
                proptest::prop_assert_eq!(tracker.events.len(), held);
            }
            proptest::prop_assert!(now > SLO_WINDOWS[3].as_nanos() as u64);
        }
    }
}
