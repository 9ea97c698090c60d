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

/// Cumulative-bucket upper bounds of every native histogram, seconds:
/// 1 ms doubling to ~2 s, which covers the frame budget (Table III: tens
/// of milliseconds per stage) with headroom for degraded offloads. The
/// implicit `+Inf` bucket is appended at exposition time.
pub const BUCKETS: [f64; 12] = [
    0.001, 0.002, 0.004, 0.008, 0.016, 0.032, 0.064, 0.128, 0.256, 0.512, 1.024, 2.048,
];

/// A point-in-time cumulative histogram over [`BUCKETS`]: per-bound
/// counts of samples at or below each bound, plus the overall count and
/// sum.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Cumulative counts: `cumulative[i]` samples were ≤ `BUCKETS[i]`.
    pub cumulative: [u64; BUCKETS.len()],
    /// Total samples (the implicit `+Inf` bucket).
    pub count: u64,
    /// Sum of all samples, seconds.
    pub sum_seconds: f64,
}

impl HistogramSnapshot {
    /// Projects a [`DurationStats`] recorder onto cumulative buckets.
    /// Counts inherit the recorder's log-linear resolution (≤ ~6%
    /// relative error on where a sample lands); monotonicity and
    /// `+Inf == count` hold exactly.
    pub fn from_stats(stats: &DurationStats) -> Self {
        Self {
            cumulative: BUCKETS.map(|b| stats.count_le(Duration::from_secs_f64(b))),
            count: stats.count(),
            sum_seconds: stats.total().as_secs_f64(),
        }
    }
}

/// One exposed metric value.
#[derive(Debug, Clone)]
pub enum Value {
    /// Monotonically increasing count.
    Counter(u64),
    /// Instantaneous measurement.
    Gauge(f64),
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
    Histogram(Histogram),
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

    /// Creates and registers a duration histogram, exposed as a native
    /// cumulative Prometheus histogram over [`BUCKETS`].
    pub fn histogram(&self, name: &str, help: &str) -> Histogram {
        let histogram = Histogram::default();
        self.inner.lock().owned.push(Owned {
            name: name.to_string(),
            help: help.to_string(),
            metric: Metric::Histogram(histogram.clone()),
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
                    Metric::Histogram(h) => {
                        Value::Histogram(HistogramSnapshot::from_stats(&h.snapshot()))
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
        let Value::Histogram(snap) = &samples[2].value else {
            panic!("expected histogram, got {:?}", samples[2].value);
        };
        assert_eq!(snap.count, 2);
    }

    #[test]
    fn bucketed_histograms_gather_as_cumulative_snapshots() {
        let registry = Registry::new();
        let lat = registry.histogram("test_latency_seconds", "latency");
        lat.observe(Duration::from_micros(500));
        lat.observe(Duration::from_millis(3));
        lat.observe(Duration::from_secs(5)); // beyond the last bound

        let samples = registry.gather();
        let Value::Histogram(snap) = &samples[0].value else {
            panic!("expected histogram, got {:?}", samples[0].value);
        };
        assert_eq!(snap.cumulative[..4], [1, 1, 2, 2]);
        assert_eq!(snap.cumulative[BUCKETS.len() - 1], 2);
        assert_eq!(snap.count, 3);
        assert!(snap.sum_seconds > 5.0);
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
