//! The metrics registry: lock-light handles (relaxed atomics for
//! counters and gauges, one uncontended mutex per histogram) plus a
//! [`Collect`] hook so subsystems with their own accumulators — the
//! serve scheduler, `OffloadHealth` — expose snapshots without moving
//! their state into this crate.

use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;
use tincy_pipeline::DurationStats;

/// A monotonically increasing counter. Clones share the same cell.
#[derive(Debug, Clone, Default)]
pub struct Counter {
    value: Arc<AtomicU64>,
}

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A last-write-wins floating-point gauge. Clones share the same cell.
#[derive(Debug, Clone, Default)]
pub struct Gauge {
    bits: Arc<AtomicU64>,
}

impl Gauge {
    /// Sets the gauge.
    pub fn set(&self, value: f64) {
        self.bits.store(value.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// A duration histogram backed by the streaming log-linear
/// [`DurationStats`]. Clones share the same recorder; the mutex is
/// uncontended unless scrapes race with recording.
#[derive(Debug, Clone, Default)]
pub struct Histogram {
    stats: Arc<Mutex<DurationStats>>,
}

impl Histogram {
    /// Records one sample.
    pub fn observe(&self, sample: Duration) {
        self.stats.lock().record(sample);
    }

    /// A point-in-time copy of the recorder.
    pub fn snapshot(&self) -> DurationStats {
        self.stats.lock().clone()
    }
}

/// Cumulative-bucket upper bounds for native Prometheus histograms, in
/// seconds, strictly increasing. The implicit `+Inf` bucket is always
/// appended at exposition time, so an empty set is legal (count-only).
///
/// Selection guidance (DESIGN.md §8): bounds are a measurement grid, not
/// an SLO — put ~2 buckets per octave across the latency range you need
/// to distinguish, with the SLO target itself as one explicit bound so
/// `sum(rate(..._bucket{le="slo"}))` answers the compliance question
/// directly.
#[derive(Debug, Clone, PartialEq)]
pub struct Buckets {
    bounds: Vec<f64>,
}

impl Default for Buckets {
    /// 1 ms doubling to ~2 s: covers the frame budget (Table III: tens of
    /// milliseconds per stage) with headroom for degraded offloads.
    fn default() -> Self {
        Self::exponential(0.001, 2.0, 12)
    }
}

impl Buckets {
    /// `count` bounds starting at `start`, each `factor` times the last.
    pub fn exponential(start: f64, factor: f64, count: usize) -> Self {
        assert!(
            start > 0.0 && factor > 1.0,
            "exponential buckets must ascend"
        );
        let mut bound = start;
        let mut bounds = Vec::with_capacity(count);
        for _ in 0..count {
            bounds.push(bound);
            bound *= factor;
        }
        Self { bounds }
    }

    /// Explicit bounds.
    ///
    /// # Errors
    ///
    /// When a bound is not finite and positive, or the sequence is not
    /// strictly increasing.
    pub fn explicit(bounds: Vec<f64>) -> Result<Self, String> {
        for pair in bounds.windows(2) {
            if pair[1] <= pair[0] {
                return Err(format!(
                    "bucket bounds must be strictly increasing: {} then {}",
                    pair[0], pair[1]
                ));
            }
        }
        if let Some(bad) = bounds.iter().find(|b| !b.is_finite() || **b <= 0.0) {
            return Err(format!("bucket bound must be finite and positive: {bad}"));
        }
        Ok(Self { bounds })
    }

    /// The bounds, in seconds (without the implicit `+Inf`).
    pub fn bounds(&self) -> &[f64] {
        &self.bounds
    }
}

/// A Prometheus/OpenMetrics exemplar: the trace id of a notable
/// observation that landed in a bucket, plus that observation's value in
/// seconds — the bridge from a burning latency budget to the trace of
/// an offending request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exemplar {
    /// Distributed trace id of the exemplified request.
    pub trace_id: u64,
    /// The exemplified observation, seconds.
    pub value: f64,
}

/// Per-bucket exemplar store: remembers, for each bucket of a latency
/// histogram, the *worst* (largest) traced observation that landed
/// there, so every bucket's exemplar points at its most incriminating
/// request. Deterministic for seeded runs: ties keep the newest.
#[derive(Debug, Clone)]
pub struct ExemplarStore {
    bounds: Vec<f64>,
    /// One slot per bound plus the trailing `+Inf` bucket.
    slots: Vec<Option<Exemplar>>,
}

impl ExemplarStore {
    /// An empty store over the given bucket grid.
    pub fn new(buckets: &Buckets) -> Self {
        Self {
            bounds: buckets.bounds().to_vec(),
            slots: vec![None; buckets.bounds().len() + 1],
        }
    }

    /// Records one traced observation into its bucket's slot.
    pub fn observe(&mut self, seconds: f64, trace_id: u64) {
        let index = self
            .bounds
            .iter()
            .position(|&bound| seconds <= bound)
            .unwrap_or(self.bounds.len());
        let slot = &mut self.slots[index];
        if slot.is_none_or(|held| seconds >= held.value) {
            *slot = Some(Exemplar {
                trace_id,
                value: seconds,
            });
        }
    }

    /// The per-bucket slots (last entry is the `+Inf` bucket).
    pub fn slots(&self) -> &[Option<Exemplar>] {
        &self.slots
    }
}

/// A point-in-time cumulative histogram: per-bound counts of samples at
/// or below each bound, plus the overall count and sum.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Bucket upper bounds, seconds, strictly increasing.
    pub bounds: Vec<f64>,
    /// Cumulative counts: `cumulative[i]` samples were ≤ `bounds[i]`.
    pub cumulative: Vec<u64>,
    /// Total samples (the implicit `+Inf` bucket).
    pub count: u64,
    /// Sum of all samples, seconds.
    pub sum_seconds: f64,
    /// Per-bucket exemplars, `bounds.len() + 1` entries when attached
    /// (last is the `+Inf` bucket); empty when the feature is off.
    pub exemplars: Vec<Option<Exemplar>>,
}

impl HistogramSnapshot {
    /// Projects a [`DurationStats`] recorder onto cumulative buckets.
    /// Counts inherit the recorder's log-linear resolution (≤ ~6%
    /// relative error on where a sample lands); monotonicity and
    /// `+Inf == count` hold exactly.
    pub fn from_stats(stats: &DurationStats, buckets: &Buckets) -> Self {
        let cumulative = buckets
            .bounds()
            .iter()
            .map(|&b| stats.count_le(Duration::from_secs_f64(b)))
            .collect();
        Self {
            bounds: buckets.bounds().to_vec(),
            cumulative,
            count: stats.count(),
            sum_seconds: stats.total().as_secs_f64(),
            exemplars: Vec::new(),
        }
    }

    /// Attaches the store's per-bucket exemplars to this snapshot.
    #[must_use]
    pub fn with_exemplars(mut self, store: &ExemplarStore) -> Self {
        self.exemplars = store.slots().to_vec();
        self
    }
}

/// One exposed metric value.
#[derive(Debug, Clone)]
pub enum Value {
    /// Monotonically increasing count.
    Counter(u64),
    /// Instantaneous measurement.
    Gauge(f64),
    /// Duration distribution, exposed as a Prometheus summary
    /// (quantiles + `_sum`/`_count`).
    Summary(DurationStats),
    /// Duration distribution, exposed as a native cumulative Prometheus
    /// histogram (`_bucket{le=...}` + `_sum`/`_count`).
    Histogram(HistogramSnapshot),
}

impl Value {
    /// The Prometheus `# TYPE` keyword for this value.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Counter(_) => "counter",
            Value::Gauge(_) => "gauge",
            Value::Summary(_) => "summary",
            Value::Histogram(_) => "histogram",
        }
    }
}

/// One sample in a scrape: a metric name, optional labels, and a value.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Metric family name (Prometheus conventions: `snake_case`,
    /// counters ending in `_total`, durations in `_seconds`).
    pub name: String,
    /// One-line help text, shared by every sample of the family.
    pub help: String,
    /// Label pairs distinguishing samples within a family.
    pub labels: Vec<(String, String)>,
    /// The sampled value.
    pub value: Value,
}

impl Sample {
    /// An unlabeled sample.
    pub fn new(name: &str, help: &str, value: Value) -> Self {
        Self {
            name: name.to_string(),
            help: help.to_string(),
            labels: Vec::new(),
            value,
        }
    }

    /// Adds a label pair.
    #[must_use]
    pub fn label(mut self, key: &str, value: &str) -> Self {
        self.labels.push((key.to_string(), value.to_string()));
        self
    }
}

/// A source of samples collected at scrape time. Implementations must
/// tolerate concurrent calls (scrapes are driven by the HTTP endpoint).
pub trait Collect: Send + Sync {
    /// Point-in-time samples from this source.
    fn collect(&self) -> Vec<Sample>;
}

enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram, Option<Buckets>),
}

struct Owned {
    name: String,
    help: String,
    metric: Metric,
}

/// The unified registry: owned metrics created through
/// [`Self::counter`]/[`Self::gauge`]/[`Self::histogram`] plus external
/// [`Collect`] sources. [`Self::gather`] snapshots everything, sorted
/// by family name for deterministic exposition.
#[derive(Default)]
pub struct Registry {
    inner: Mutex<Inner>,
}

#[derive(Default)]
struct Inner {
    owned: Vec<Owned>,
    collectors: Vec<Arc<dyn Collect>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates and registers a counter; the returned handle records into
    /// the registry.
    pub fn counter(&self, name: &str, help: &str) -> Counter {
        let counter = Counter::default();
        self.inner.lock().owned.push(Owned {
            name: name.to_string(),
            help: help.to_string(),
            metric: Metric::Counter(counter.clone()),
        });
        counter
    }

    /// Creates and registers a gauge.
    pub fn gauge(&self, name: &str, help: &str) -> Gauge {
        let gauge = Gauge::default();
        self.inner.lock().owned.push(Owned {
            name: name.to_string(),
            help: help.to_string(),
            metric: Metric::Gauge(gauge.clone()),
        });
        gauge
    }

    /// Creates and registers a duration histogram, exposed as a summary
    /// (quantiles); see [`Self::histogram_with`] for native buckets.
    pub fn histogram(&self, name: &str, help: &str) -> Histogram {
        let histogram = Histogram::default();
        self.inner.lock().owned.push(Owned {
            name: name.to_string(),
            help: help.to_string(),
            metric: Metric::Histogram(histogram.clone(), None),
        });
        histogram
    }

    /// Creates and registers a duration histogram exposed as a native
    /// cumulative Prometheus histogram with the given bucket bounds.
    pub fn histogram_with(&self, name: &str, help: &str, buckets: Buckets) -> Histogram {
        let histogram = Histogram::default();
        self.inner.lock().owned.push(Owned {
            name: name.to_string(),
            help: help.to_string(),
            metric: Metric::Histogram(histogram.clone(), Some(buckets)),
        });
        histogram
    }

    /// Registers an external sample source.
    pub fn register(&self, collector: Arc<dyn Collect>) {
        self.inner.lock().collectors.push(collector);
    }

    /// Snapshots every metric and collector, sorted by family name
    /// (stable: samples of one family keep their insertion order).
    pub fn gather(&self) -> Vec<Sample> {
        let inner = self.inner.lock();
        let mut samples: Vec<Sample> = inner
            .owned
            .iter()
            .map(|owned| {
                let value = match &owned.metric {
                    Metric::Counter(c) => Value::Counter(c.get()),
                    Metric::Gauge(g) => Value::Gauge(g.get()),
                    Metric::Histogram(h, None) => Value::Summary(h.snapshot()),
                    Metric::Histogram(h, Some(buckets)) => {
                        Value::Histogram(HistogramSnapshot::from_stats(&h.snapshot(), buckets))
                    }
                };
                Sample::new(&owned.name, &owned.help, value)
            })
            .collect();
        for collector in &inner.collectors {
            samples.extend(collector.collect());
        }
        samples.sort_by(|a, b| a.name.cmp(&b.name));
        samples
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_share_state_with_the_registry() {
        let registry = Registry::new();
        let hits = registry.counter("test_hits_total", "hits");
        let depth = registry.gauge("test_depth", "queue depth");
        let lat = registry.histogram("test_latency_seconds", "latency");
        hits.add(3);
        hits.inc();
        depth.set(2.5);
        lat.observe(Duration::from_millis(8));
        lat.observe(Duration::from_millis(12));

        let samples = registry.gather();
        assert_eq!(samples.len(), 3);
        // gather() sorts by name.
        assert_eq!(samples[0].name, "test_depth");
        assert!(matches!(samples[0].value, Value::Gauge(v) if (v - 2.5).abs() < 1e-12));
        assert!(matches!(samples[1].value, Value::Counter(4)));
        match &samples[2].value {
            Value::Summary(stats) => assert_eq!(stats.count(), 2),
            other => panic!("expected summary, got {other:?}"),
        }
    }

    #[test]
    fn bucketed_histograms_gather_as_cumulative_snapshots() {
        let registry = Registry::new();
        let lat = registry.histogram_with(
            "test_latency_hist_seconds",
            "latency",
            Buckets::explicit(vec![0.005, 0.01, 0.05]).unwrap(),
        );
        lat.observe(Duration::from_millis(2));
        lat.observe(Duration::from_millis(8));
        lat.observe(Duration::from_millis(200)); // beyond the last bound

        let samples = registry.gather();
        let Value::Histogram(snap) = &samples[0].value else {
            panic!("expected histogram, got {:?}", samples[0].value);
        };
        assert_eq!(snap.bounds, vec![0.005, 0.01, 0.05]);
        assert_eq!(snap.cumulative, vec![1, 2, 2]);
        assert_eq!(snap.count, 3);
        assert!(snap.sum_seconds > 0.2);
    }

    #[test]
    fn bucket_constructors_ascend() {
        let exp = Buckets::exponential(0.001, 2.0, 3);
        assert_eq!(exp.bounds(), &[0.001, 0.002, 0.004]);
        assert!(Buckets::explicit(vec![0.1, 0.1]).is_err());
        assert!(Buckets::explicit(vec![-1.0, 0.1]).is_err());
        assert!(Buckets::explicit(vec![0.1, f64::INFINITY]).is_err());
        assert!(!Buckets::default().bounds().is_empty());
    }

    #[test]
    fn exemplar_store_keeps_the_worst_observation_per_bucket() {
        let buckets = Buckets::explicit(vec![0.01, 0.1]).unwrap();
        let mut store = ExemplarStore::new(&buckets);
        store.observe(0.004, 1);
        store.observe(0.008, 2); // worse, same bucket: replaces
        store.observe(0.005, 3); // better: ignored
        store.observe(0.5, 4); // lands in +Inf
        let slots = store.slots();
        assert_eq!(slots.len(), 3);
        assert_eq!(slots[0].unwrap().trace_id, 2);
        assert!(slots[1].is_none());
        assert_eq!(slots[2].unwrap().trace_id, 4);
    }

    #[test]
    fn collectors_contribute_labeled_samples() {
        struct Fixed;
        impl Collect for Fixed {
            fn collect(&self) -> Vec<Sample> {
                vec![
                    Sample::new("test_rejected_total", "rejections", Value::Counter(7))
                        .label("reason", "queue-full"),
                ]
            }
        }
        let registry = Registry::new();
        registry.register(Arc::new(Fixed));
        let samples = registry.gather();
        assert_eq!(samples.len(), 1);
        assert_eq!(
            samples[0].labels,
            vec![("reason".into(), "queue-full".into())]
        );
    }
}
