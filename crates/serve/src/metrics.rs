//! Serving metrics: end-to-end latency distributions, per-backend
//! utilization, queue depths and micro-batch shape.

use crate::request::SloClass;
use std::time::Duration;
use tincy_nn::OffloadStats;
use tincy_pipeline::DurationStats;

/// Aggregate report of one serving run. The scheduler accumulates into
/// one as it runs; the server completes it when it drains (and for every
/// live `/report`).
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// Requests admitted past admission control.
    pub accepted: u64,
    /// Requests completed and delivered (== `accepted` after a clean
    /// drain: accepted work is never dropped).
    pub completed: u64,
    /// Submissions refused because the global queue was at capacity.
    pub rejected_queue_full: u64,
    /// Submissions refused because the client's quota was exhausted.
    pub rejected_client_full: u64,
    /// Submissions refused because the server was draining.
    pub rejected_draining: u64,
    /// Rejections per SLO class (any reason), indexed by
    /// [`SloClass::index`] — which traffic class admission control shed.
    pub rejected_class: [u64; 3],
    /// Micro-batched offload invocations on the FINN engine.
    pub finn_batches: u64,
    /// Requests completed by the FINN engine.
    pub finn_items: u64,
    /// Requests completed by host workers.
    pub cpu_items: u64,
    /// Batch-size histogram: `batch_hist[n]` counts FINN invocations with
    /// batch size `n` (index 0 unused).
    pub batch_hist: Vec<u64>,
    /// End-to-end latency distribution (submission to delivery).
    pub latency: DurationStats,
    /// Queue-wait distribution (submission to dispatch).
    pub queue_wait: DurationStats,
    /// Per-class end-to-end latency, indexed by [`SloClass::index`].
    pub class_latency: [DurationStats; 3],
    /// Requests whose end-to-end latency exceeded their class target.
    pub slo_violations: u64,
    /// Busy time of the FINN engines, summed over rungs (one worker each).
    pub finn_busy: Duration,
    /// Summed busy time of all host workers.
    pub cpu_busy: Duration,
    /// Host workers configured.
    pub cpu_workers: usize,
    /// Wall-clock duration of the run (start to drain).
    pub wall: Duration,
    /// Deepest pending-queue occupancy observed.
    pub max_depth: usize,
    /// Offload health counters of the server's device, which every
    /// variant runs on (faults, retries, CPU fallbacks taken *inside* the
    /// resilience layer).
    pub offload: OffloadStats,
    /// Hosted variant names, cheapest rung first (always at least one).
    pub variant_names: Vec<String>,
    /// Admissions per variant per SLO class (outer index = ladder rung,
    /// inner = [`SloClass::index`]).
    pub variant_requests: Vec<[u64; 3]>,
    /// Completions per variant.
    pub variant_items: Vec<u64>,
    /// End-to-end latency per variant.
    pub variant_latency: Vec<DurationStats>,
    /// Fabric weight swaps charged per variant (one per weighted layer
    /// per FINN invocation).
    pub weight_swaps: Vec<u64>,
    /// Active ladder rung per SLO class at report time.
    pub active_variant: [usize; 3],
    /// Ladder demotions taken (SLO-burn driven shifts toward the cheap
    /// end).
    pub shifts_down: u64,
    /// Ladder promotions taken (clean-streak shifts back toward home).
    pub shifts_up: u64,
}

impl ServeReport {
    /// An empty report over a ladder of `names` (cheapest first), each
    /// SLO class active on its home rung — what a scheduler starts
    /// accumulating into.
    pub fn new(names: Vec<String>, homes: [usize; 3]) -> Self {
        let variants = names.len();
        Self {
            accepted: 0,
            completed: 0,
            rejected_queue_full: 0,
            rejected_client_full: 0,
            rejected_draining: 0,
            rejected_class: [0; 3],
            finn_batches: 0,
            finn_items: 0,
            cpu_items: 0,
            batch_hist: Vec::new(),
            latency: DurationStats::new(),
            queue_wait: DurationStats::new(),
            class_latency: std::array::from_fn(|_| DurationStats::new()),
            slo_violations: 0,
            finn_busy: Duration::ZERO,
            cpu_busy: Duration::ZERO,
            cpu_workers: 0,
            wall: Duration::ZERO,
            max_depth: 0,
            offload: OffloadStats::default(),
            variant_names: names,
            variant_requests: vec![[0; 3]; variants],
            variant_items: vec![0; variants],
            variant_latency: vec![DurationStats::new(); variants],
            weight_swaps: vec![0; variants],
            active_variant: homes,
            shifts_down: 0,
            shifts_up: 0,
        }
    }

    /// Total rejected submissions.
    pub fn rejected(&self) -> u64 {
        self.rejected_queue_full + self.rejected_client_full + self.rejected_draining
    }

    /// FINN invocations that carried more than one request.
    pub fn batched_invocations(&self) -> u64 {
        self.batch_hist.iter().skip(2).sum()
    }

    /// Mean FINN micro-batch size.
    pub fn mean_batch(&self) -> f64 {
        if self.finn_batches == 0 {
            0.0
        } else {
            self.finn_items as f64 / self.finn_batches as f64
        }
    }

    /// FINN engine utilization: busy time over wall time (the server runs
    /// one FINN worker at any ladder height).
    pub fn finn_utilization(&self) -> f64 {
        fraction(self.finn_busy, self.wall, 1)
    }

    /// Host worker utilization: summed busy time over wall time × workers.
    pub fn cpu_utilization(&self) -> f64 {
        fraction(self.cpu_busy, self.wall, self.cpu_workers)
    }

    /// Completed requests per second of wall time.
    pub fn throughput(&self) -> f64 {
        if self.wall.is_zero() {
            0.0
        } else {
            self.completed as f64 / self.wall.as_secs_f64()
        }
    }

    /// Latency distribution of one SLO class.
    pub fn class(&self, class: SloClass) -> &DurationStats {
        &self.class_latency[class.index()]
    }

    /// Rejections charged to one SLO class (any reason).
    pub fn rejected_for(&self, class: SloClass) -> u64 {
        self.rejected_class[class.index()]
    }

    /// Number of hosted variants (ladder rungs).
    pub fn variants(&self) -> usize {
        self.variant_names.len()
    }
}

fn fraction(busy: Duration, wall: Duration, lanes: usize) -> f64 {
    if wall.is_zero() || lanes == 0 {
        0.0
    } else {
        busy.as_secs_f64() / (wall.as_secs_f64() * lanes as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn empty() -> ServeReport {
        ServeReport::new(vec!["tincy".to_string()], [0; 3])
    }

    #[test]
    fn derived_quantities() {
        let mut r = empty();
        r.completed = 10;
        r.finn_batches = 3;
        r.finn_items = 8;
        r.cpu_items = 2;
        r.batch_hist = vec![0, 1, 2, 0, 1]; // 1×1, 2×2, 1×4
        r.finn_busy = Duration::from_secs(1);
        r.cpu_busy = Duration::from_secs(1);
        r.cpu_workers = 2;
        r.wall = Duration::from_secs(2);
        r.rejected_queue_full = 3;
        r.rejected_draining = 1;
        r.rejected_class = [3, 1, 0];
        assert_eq!(r.rejected(), 4);
        assert_eq!(r.rejected_for(SloClass::Interactive), 3);
        assert_eq!(r.rejected_for(SloClass::Standard), 1);
        assert_eq!(r.rejected_for(SloClass::Batch), 0);
        assert_eq!(r.batched_invocations(), 3);
        assert!((r.mean_batch() - 8.0 / 3.0).abs() < 1e-12);
        assert!((r.finn_utilization() - 0.5).abs() < 1e-12);
        assert!((r.cpu_utilization() - 0.25).abs() < 1e-12);
        assert!((r.throughput() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn finn_utilization_is_one_fabric_at_any_ladder_height() {
        // Two rungs share the one FINN worker: busy half the wall is 0.5,
        // not the 0.25 a per-rung division reports.
        let mut r = empty();
        r.variant_names = vec!["cheap".to_string(), "accurate".to_string()];
        r.finn_busy = Duration::from_secs(1);
        r.wall = Duration::from_secs(2);
        assert!((r.finn_utilization() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn zero_run_is_all_zeros() {
        let r = empty();
        assert_eq!(r.rejected(), 0);
        assert_eq!(r.batched_invocations(), 0);
        assert_eq!(r.mean_batch(), 0.0);
        assert_eq!(r.finn_utilization(), 0.0);
        assert_eq!(r.cpu_utilization(), 0.0);
        assert_eq!(r.throughput(), 0.0);
    }
}
