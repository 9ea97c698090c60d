//! Pipeline throughput and occupancy metrics.

use crate::latency::DurationStats;
use std::time::Duration;

/// Per-stage execution statistics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageStats {
    /// Stage label.
    pub name: String,
    /// Number of frames the stage processed.
    pub invocations: u64,
    /// Accumulated busy time.
    pub busy: Duration,
    /// Streaming per-invocation timing distribution (min/max/percentiles).
    pub timing: DurationStats,
}

impl StageStats {
    /// Creates an empty record for a named stage.
    pub fn named(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            invocations: 0,
            busy: Duration::ZERO,
            timing: DurationStats::new(),
        }
    }

    /// Records one invocation, keeping count, busy time and the timing
    /// distribution consistent.
    pub fn record(&mut self, took: Duration) {
        self.invocations += 1;
        self.busy += took;
        self.timing.record(took);
    }

    /// Mean processing time per frame.
    ///
    /// Computed in nanoseconds: dividing a `Duration` by
    /// `invocations as u32` silently truncates counts above `u32::MAX`
    /// (and `2^32` exactly would divide by zero).
    pub fn mean_time(&self) -> Duration {
        if self.invocations == 0 {
            Duration::ZERO
        } else {
            Duration::from_nanos((self.busy.as_nanos() / u128::from(self.invocations)) as u64)
        }
    }

    /// The [p50, p95, p99] invocation times in one histogram walk —
    /// reporting paths that print all three should use this instead of
    /// three separate queries.
    pub fn percentiles(&self) -> [Duration; 3] {
        let q = self.timing.quantiles(&[0.50, 0.95, 0.99]);
        [q[0], q[1], q[2]]
    }

    /// Median invocation time.
    pub fn p50(&self) -> Duration {
        self.timing.p50()
    }

    /// 95th-percentile invocation time.
    pub fn p95(&self) -> Duration {
        self.timing.p95()
    }

    /// 99th-percentile invocation time.
    pub fn p99(&self) -> Duration {
        self.timing.p99()
    }
}

/// Result of a pipeline run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PipelineMetrics {
    /// Frames delivered to the sink.
    pub frames: u64,
    /// Wall-clock duration of the run.
    pub elapsed: Duration,
    /// Per-stage statistics, pipeline order (source first, sink last).
    pub stages: Vec<StageStats>,
    /// Whether every frame arrived at the sink in source order.
    pub in_order: bool,
    /// Number of worker threads used.
    pub workers: usize,
    /// Frames completed in degraded mode during this run (retried or
    /// CPU-fallback offloads), as observed through the pipeline's
    /// degradation probe; 0 when no probe is installed.
    pub degraded: u64,
}

impl PipelineMetrics {
    /// Achieved frame rate.
    pub fn fps(&self) -> f64 {
        if self.elapsed.is_zero() {
            0.0
        } else {
            self.frames as f64 / self.elapsed.as_secs_f64()
        }
    }

    /// Total busy time across all stages — the sequential-equivalent cost.
    pub fn total_busy(&self) -> Duration {
        self.stages.iter().map(|s| s.busy).sum()
    }

    /// Parallel speedup estimate: sequential-equivalent time over wall time.
    pub fn speedup(&self) -> f64 {
        if self.elapsed.is_zero() {
            0.0
        } else {
            self.total_busy().as_secs_f64() / self.elapsed.as_secs_f64()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fps_and_speedup() {
        let metrics = PipelineMetrics {
            frames: 20,
            elapsed: Duration::from_secs(2),
            stages: vec![
                StageStats {
                    invocations: 20,
                    busy: Duration::from_secs(3),
                    ..StageStats::named("a")
                },
                StageStats {
                    invocations: 20,
                    busy: Duration::from_secs(3),
                    ..StageStats::named("b")
                },
            ],
            in_order: true,
            workers: 4,
            degraded: 0,
        };
        assert!((metrics.fps() - 10.0).abs() < 1e-9);
        assert_eq!(metrics.total_busy(), Duration::from_secs(6));
        assert!((metrics.speedup() - 3.0).abs() < 1e-9);
        assert_eq!(metrics.stages[0].mean_time(), Duration::from_millis(150));
    }

    #[test]
    fn zero_frames_edge_cases() {
        let metrics = PipelineMetrics {
            frames: 0,
            elapsed: Duration::ZERO,
            stages: vec![StageStats::named("a")],
            in_order: true,
            workers: 1,
            degraded: 0,
        };
        assert_eq!(metrics.fps(), 0.0);
        assert_eq!(metrics.speedup(), 0.0);
        assert_eq!(metrics.stages[0].mean_time(), Duration::ZERO);
    }

    #[test]
    fn mean_time_survives_invocation_counts_beyond_u32() {
        // Regression: `busy / invocations as u32` truncated the divisor —
        // at exactly 2^32 invocations it became a division by zero, and
        // just above it the mean was wildly overestimated.
        let stats = StageStats {
            invocations: u64::from(u32::MAX) + 2,
            busy: Duration::from_secs(8_589_934_594), // 2 s per invocation
            ..StageStats::named("hot")
        };
        assert_eq!(stats.mean_time(), Duration::from_secs(2));

        // Sub-nanosecond means truncate to zero instead of panicking.
        let tiny = StageStats {
            invocations: u64::from(u32::MAX) + 2,
            busy: Duration::from_nanos(1),
            ..StageStats::named("tiny")
        };
        assert_eq!(tiny.mean_time(), Duration::ZERO);
    }

    #[test]
    fn record_keeps_count_busy_and_distribution_consistent() {
        let mut stats = StageStats::named("work");
        for ms in [2u64, 4, 6, 8] {
            stats.record(Duration::from_millis(ms));
        }
        assert_eq!(stats.invocations, 4);
        assert_eq!(stats.busy, Duration::from_millis(20));
        assert_eq!(stats.mean_time(), Duration::from_millis(5));
        assert_eq!(stats.timing.min(), Some(Duration::from_millis(2)));
        assert_eq!(stats.timing.max(), Some(Duration::from_millis(8)));
        assert_eq!(stats.timing.count(), 4);
        assert!(stats.p50() >= Duration::from_millis(2));
        assert!(stats.p99() <= Duration::from_millis(8));
        let [p50, p95, p99] = stats.percentiles();
        assert_eq!(p50, stats.p50());
        assert_eq!(p95, stats.p95());
        assert_eq!(p99, stats.p99());
    }
}
