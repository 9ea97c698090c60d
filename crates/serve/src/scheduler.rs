//! The serving scheduler state machine.
//!
//! Generalizes the paper's pipeline dispatch rule — "the most mature ready
//! job first" — from pipeline position to absolute time: every admitted
//! request carries a deadline (`submit time + SLO target`) and backends
//! always dispatch the earliest deadline first (EDF). With finite targets,
//! waiting requests age monotonically toward the front of the queue, so no
//! class can starve another.
//!
//! This module is the pure, lock-free-of-threads core: admission control,
//! the EDF queue, per-client in-order delivery and metric accumulation.
//! [`crate::server`] wraps it in a mutex/condvar and worker threads.
//!
//! With a multi-rung [`crate::VariantLadder`] the queue gains a variant
//! dimension: one EDF heap per hosted variant, admission stamps each
//! request with its class's *active* rung (home rung minus the current
//! demotion offset), and [`SchedState::apply_shift`] moves the active
//! rungs when the shift monitor demotes or promotes. A request's variant
//! is fixed at admission — shifting never reroutes queued work, so every
//! response is bit-exact with the variant it reports.

use crate::config::ServeConfig;
use crate::metrics::ServeReport;
use crate::request::{AdmissionError, BackendKind, InferResponse, PendingRequest, SloClass};
use std::cmp::Ordering;
use std::collections::{BTreeMap, BinaryHeap};
use std::sync::mpsc::Sender;
use std::time::{Duration, Instant};
use tincy_eval::Detection;
use tincy_nn::OffloadStats;
use tincy_telemetry::{SloStatus, SloTracker};
use tincy_trace::{static_label, SpanBuilder, TraceContext};
use tincy_video::Image;

/// Heap adapter: `BinaryHeap` is a max-heap, so order entries by
/// *reversed* (deadline, admission order) to pop the earliest deadline
/// first, ties broken deterministically by admission order.
struct QueueEntry(PendingRequest);

impl PartialEq for QueueEntry {
    fn eq(&self, other: &Self) -> bool {
        self.0.global == other.0.global
    }
}

impl Eq for QueueEntry {}

impl PartialOrd for QueueEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for QueueEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .0
            .deadline
            .cmp(&self.0.deadline)
            .then_with(|| other.0.global.cmp(&self.0.global))
    }
}

/// Per-client bookkeeping: admission quota, submission sequencing and the
/// reorder buffer that guarantees in-order delivery.
struct ClientState {
    /// Requests admitted but not yet delivered (quota accounting).
    outstanding: usize,
    /// Next submission sequence number.
    next_seq: u64,
    /// Sequence numbers admitted, in order — the delivery contract.
    admitted: Vec<u64>,
    /// Index into `admitted` of the next response owed to the client.
    next_deliver: usize,
    /// Completed responses held until all earlier admitted work completes.
    hold: BTreeMap<u64, InferResponse>,
    /// Delivery channel back to the client handle.
    tx: Sender<InferResponse>,
}

/// Queue depth past which host workers engage on a healthy fabric.
const CPU_ENGAGE_DEPTH: usize = 8;

/// Items one drift block averages: the block the smallest drift run (32
/// admitted requests split over one rung's FINN and host trackers) is
/// sure to fill in one of them, and four default micro-batches on the
/// fabric (DESIGN §8.3).
pub(crate) const DRIFT_BLOCK: u32 = 16;
/// The drift EWMA's nominal window in blocks (`alpha = 2/(8+1)`), which is
/// also how many blocks the rest of the server may close before an alert
/// its own tracker has not re-judged stops counting.
const DRIFT_WINDOW: u64 = 8;
const DRIFT_ALPHA: f64 = 2.0 / (DRIFT_WINDOW as f64 + 1.0);
/// Blocks folded before the drift reference freezes.
const DRIFT_WARMUP: u64 = 3;

/// The per-item service time of one (ladder rung, backend): block means
/// folded into an EWMA and compared with that EWMA as it stood after the
/// warmup — drift from this server's own steady state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct ServiceDrift {
    threshold: f64,
    /// Seconds and items of the block still filling.
    open_secs: f64,
    open_items: u32,
    pub blocks: u64,
    /// The server's closed-block count just after this tracker's last
    /// block.
    closed_at: u64,
    ewma: f64,
    reference: Option<f64>,
    /// Whether `|drift|` exceeded the threshold at the last block.
    pub alerted: bool,
    /// Rising edges of `alerted`.
    pub alerts: u64,
}

impl ServiceDrift {
    fn new(threshold: f64) -> Self {
        Self {
            threshold,
            open_secs: 0.0,
            open_items: 0,
            blocks: 0,
            closed_at: 0,
            ewma: 0.0,
            reference: None,
            alerted: false,
            alerts: 0,
        }
    }

    /// Folds `items` items of `per_item` seconds each, counting every
    /// block it closes in the server-wide `closed`.
    fn observe(&mut self, per_item: f64, items: usize, closed: &mut u64) {
        for _ in 0..items {
            self.open_secs += per_item;
            self.open_items += 1;
            if self.open_items < DRIFT_BLOCK {
                continue;
            }
            let mean = self.open_secs / f64::from(DRIFT_BLOCK);
            (self.open_secs, self.open_items) = (0.0, 0);
            self.ewma = match self.blocks {
                0 => mean,
                _ => self.ewma + DRIFT_ALPHA * (mean - self.ewma),
            };
            self.blocks += 1;
            *closed += 1;
            self.closed_at = *closed;
            if self.blocks == DRIFT_WARMUP {
                self.reference = Some(self.ewma);
            }
            let alerted = self.drift().is_some_and(|d| d.abs() > self.threshold);
            self.alerts += u64::from(alerted && !self.alerted);
            self.alerted = alerted;
        }
    }

    /// `(ewma - reference) / reference`, once the reference has frozen.
    pub fn drift(&self) -> Option<f64> {
        self.reference
            .filter(|&r| r > 0.0)
            .map(|r| (self.ewma - r) / r)
    }
}

/// The mutex-protected scheduler state.
pub(crate) struct SchedState {
    /// One EDF heap per hosted variant (index = ladder rung).
    pending: Vec<BinaryHeap<QueueEntry>>,
    clients: Vec<ClientState>,
    /// Requests dispatched to a backend but not yet completed.
    in_flight: usize,
    next_global: u64,
    /// While paused, backends take no work (queues fill; used to force
    /// deterministic batch formation in burst mode and tests).
    pub paused: bool,
    /// Draining: no new admissions; backends finish what is queued.
    pub draining: bool,
    /// Drained and joined: workers exit.
    pub shutdown: bool,
    /// Latest degradation verdict of each variant's FINN engine health
    /// probe; while any is set, host workers engage unconditionally to
    /// shed load.
    pub finn_degraded: Vec<bool>,
    /// The counters and distributions of the run so far; [`Self::report`]
    /// completes them with the fields only the server knows.
    pub metrics: ServeReport,
    /// Service-time drift per ladder rung, `[FINN, host]`; empty without
    /// a drift threshold.
    pub drift: Vec<[ServiceDrift; 2]>,
    /// Drift blocks closed so far, over every tracker.
    drift_closed: u64,
    /// Home rung per SLO class (demotion offset 0).
    homes: [usize; 3],
    /// Per-variant weighted-fabric-layer count — the weight swaps one
    /// FINN invocation of that variant costs.
    swap_layers: Vec<u64>,
    queue_capacity: usize,
    per_client_capacity: usize,
    slo_targets: [Duration; 3],
    /// Shard identity within a fleet (span attribution + trace-id salt).
    shard: Option<u32>,
    /// Salt folded into trace ids minted for direct submissions, so two
    /// shards' internally minted ids (monitor probes) never collide.
    mint_salt: u64,
    /// Injected-clock epoch for the burn-rate trackers.
    epoch: Instant,
    /// Per-class burn-rate trackers, indexed by [`SloClass::index`].
    slo: [SloTracker; 3],
}

/// A micro-batch leased to a backend worker.
pub(crate) struct Lease {
    pub requests: Vec<PendingRequest>,
}

impl Lease {
    /// The frames of the lease, in dispatch order.
    pub fn images(&self) -> Vec<Image> {
        self.requests.iter().map(|r| r.image.clone()).collect()
    }
}

impl SchedState {
    pub fn new(config: &ServeConfig) -> Self {
        let ladder = config.ladder();
        let homes = ladder.homes();
        Self {
            pending: (0..ladder.len()).map(|_| BinaryHeap::new()).collect(),
            clients: Vec::new(),
            in_flight: 0,
            next_global: 0,
            paused: config.start_paused,
            draining: false,
            shutdown: false,
            finn_degraded: vec![false; ladder.len()],
            metrics: ServeReport::new(ladder.names(), homes),
            drift: config
                .drift_threshold
                .map_or_else(Vec::new, |t| vec![[ServiceDrift::new(t); 2]; ladder.len()]),
            drift_closed: 0,
            homes,
            swap_layers: ladder.variants().iter().map(|v| v.swap_layers()).collect(),
            queue_capacity: config.queue_capacity,
            per_client_capacity: config.per_client_capacity,
            slo_targets: config.slo_targets,
            shard: config.shard,
            mint_salt: config.shard.map_or(0, |s| (u64::from(s) + 1) << 32),
            epoch: Instant::now(),
            slo: config
                .slo_targets
                .map(|target| SloTracker::new(target, config.slo)),
        }
    }

    /// Nanoseconds since the scheduler started — the injected clock the
    /// burn-rate trackers run on.
    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Stamps this server's shard attribute on a span, when it has one.
    fn shard_tag(&self, span: SpanBuilder) -> SpanBuilder {
        match self.shard {
            Some(shard) => span.shard(shard),
            None => span,
        }
    }

    /// Whether a drift tracker is alerted on current evidence: it closed
    /// one of the last [`DRIFT_WINDOW`] blocks this server closed. A rung
    /// that a demotion left, or a host that stopped engaging, no longer
    /// feeds its tracker; once the traffic that went elsewhere has closed
    /// a window of blocks its alert stops counting, and its next own
    /// block judges it again.
    pub fn drift_alerted(&self) -> bool {
        let current = |t: &ServiceDrift| self.drift_closed - t.closed_at < DRIFT_WINDOW;
        self.drift.iter().flatten().any(|t| t.alerted && current(t))
    }

    /// The report as of now: the accumulated metrics plus the fields only
    /// the server knows. [`crate::InferenceServer::finish`] and the live
    /// `/report` route both read it, so the final and the mid-run view
    /// can never disagree on a field.
    pub fn report(&self, cpu_workers: usize, wall: Duration, offload: OffloadStats) -> ServeReport {
        ServeReport {
            cpu_workers,
            wall,
            offload,
            drift_blocks: (!self.drift.is_empty()).then_some(self.drift_closed),
            ..self.metrics.clone()
        }
    }

    /// Evaluates every class's burn-rate state at the current injected
    /// clock, indexed by [`SloClass::index`].
    pub fn slo_status(&mut self) -> [SloStatus; 3] {
        let now = self.now_ns();
        let [a, b, c] = &mut self.slo;
        [a.evaluate(now), b.evaluate(now), c.evaluate(now)]
    }

    /// Registers a client and returns its id.
    pub fn register_client(&mut self, tx: Sender<InferResponse>) -> usize {
        self.clients.push(ClientState {
            outstanding: 0,
            next_seq: 0,
            admitted: Vec::new(),
            next_deliver: 0,
            hold: BTreeMap::new(),
            tx,
        });
        self.clients.len() - 1
    }

    /// Queue depth (admitted, not yet dispatched), across all variants.
    pub fn depth(&self) -> usize {
        self.pending.iter().map(BinaryHeap::len).sum()
    }

    /// The active ladder rung per SLO class.
    pub fn active_variants(&self) -> [usize; 3] {
        self.metrics.active_variant
    }

    /// True when every admitted request has been delivered.
    pub fn drained(&self) -> bool {
        self.depth() == 0 && self.in_flight == 0
    }

    /// Admission control: accept the request into the EDF queue or reject
    /// immediately. Never blocks, never queues beyond the configured
    /// bounds.
    pub fn submit(
        &mut self,
        client: usize,
        class: SloClass,
        image: Image,
        trace: Option<TraceContext>,
    ) -> Result<u64, AdmissionError> {
        if self.draining || self.shutdown {
            return Err(self.reject(class, trace, AdmissionError::Draining));
        }
        let depth = self.depth();
        if depth >= self.queue_capacity {
            return Err(self.reject(
                class,
                trace,
                AdmissionError::QueueFull {
                    capacity: self.queue_capacity,
                    depth,
                },
            ));
        }
        if self.clients[client].outstanding >= self.per_client_capacity {
            return Err(self.reject(
                class,
                trace,
                AdmissionError::ClientQueueFull {
                    quota: self.per_client_capacity,
                    outstanding: self.clients[client].outstanding,
                },
            ));
        }
        let now = Instant::now();
        let state = &mut self.clients[client];
        let seq = state.next_seq;
        state.next_seq += 1;
        state.outstanding += 1;
        state.admitted.push(seq);
        let global = self.next_global;
        self.next_global += 1;
        // Direct submissions (no fleet router upstream) mint their trace
        // identity here, salted by shard so two shards' monitor probes
        // can never share a trace id.
        let trace = trace.or_else(|| Some(TraceContext::mint(self.mint_salt ^ client as u64, seq)));
        // Route to the class's active ladder rung; the choice is fixed for
        // the request's lifetime.
        let variant = self.metrics.active_variant[class.index()];
        self.pending[variant].push(QueueEntry(PendingRequest {
            client,
            seq,
            global,
            class,
            submitted: now,
            deadline: now + self.slo_targets[class.index()],
            trace,
            variant,
            image,
        }));
        self.metrics.accepted += 1;
        self.metrics.variant_requests[variant][class.index()] += 1;
        self.metrics.max_depth = self.metrics.max_depth.max(self.depth());
        let variant_name = self.metrics.variant_names[variant].clone();
        self.shard_tag(
            tincy_trace::span(static_label!("serve.admit"))
                .request(global)
                .frame(seq)
                .variant(&variant_name)
                .context(trace),
        )
        .emit();
        Ok(seq)
    }

    /// Applies a new ladder demotion offset: every class moves to `home −
    /// offset` (saturating at the cheap end). Queued work keeps its
    /// admission-time variant; only *new* admissions route to the shifted
    /// rungs. Returns whether any class actually moved.
    pub fn apply_shift(&mut self, offset: usize, demote: bool, reason: &'static str) -> bool {
        let new_active = [
            self.homes[0].saturating_sub(offset),
            self.homes[1].saturating_sub(offset),
            self.homes[2].saturating_sub(offset),
        ];
        if new_active == self.metrics.active_variant {
            return false;
        }
        self.metrics.active_variant = new_active;
        if demote {
            self.metrics.shifts_down += 1;
        } else {
            self.metrics.shifts_up += 1;
        }
        // Attribute the shift to the best-effort class's new rung — the
        // rung that moved furthest from its home.
        let batch_rung = self.metrics.variant_names[new_active[SloClass::Batch.index()]].clone();
        self.shard_tag(
            tincy_trace::span(static_label!("serve.variant_shift"))
                .variant(&batch_rung)
                .fault(reason)
                .attempt(u32::try_from(offset).unwrap_or(u32::MAX)),
        )
        .emit();
        true
    }

    /// Books a rejection under the submitting class, burns the class's
    /// shed budget and traces it (carrying the request's trace id when
    /// the caller minted one, so a failed-over request's journey shows
    /// the shard that refused it).
    fn reject(
        &mut self,
        class: SloClass,
        trace: Option<TraceContext>,
        error: AdmissionError,
    ) -> AdmissionError {
        match error {
            AdmissionError::QueueFull { .. } => self.metrics.rejected_queue_full += 1,
            AdmissionError::ClientQueueFull { .. } => self.metrics.rejected_client_full += 1,
            AdmissionError::Draining => self.metrics.rejected_draining += 1,
        }
        self.metrics.rejected_class[class.index()] += 1;
        let now = self.now_ns();
        self.slo[class.index()].record_shed(now);
        self.shard_tag(
            tincy_trace::span(static_label!("serve.reject"))
                .fault(error.tag())
                .context(trace),
        )
        .emit();
        error
    }

    /// Whether the FINN worker serving `variant` may take work right now.
    pub fn finn_ready(&self, variant: usize) -> bool {
        !self.paused && !self.pending[variant].is_empty()
    }

    /// Whether a host worker may take work right now: only under queue
    /// pressure (deeper than [`CPU_ENGAGE_DEPTH`]), FINN degradation (of
    /// any variant's engine) or drain — otherwise frames are left to
    /// accumulate into FINN micro-batches.
    pub fn cpu_ready(&self) -> bool {
        let depth = self.depth();
        !self.paused
            && depth > 0
            && (depth > CPU_ENGAGE_DEPTH || self.finn_degraded.iter().any(|d| *d) || self.draining)
    }

    /// Leases up to `max` earliest-deadline requests of one variant to
    /// that variant's FINN backend.
    pub fn lease(&mut self, variant: usize, max: usize) -> Lease {
        let n = max.min(self.pending[variant].len());
        let mut requests = Vec::with_capacity(n);
        for _ in 0..n {
            requests.push(self.pending[variant].pop().expect("n bounded by len").0);
        }
        self.book_lease(&requests, n);
        Lease { requests }
    }

    /// Leases the single earliest-deadline request across every variant
    /// to a host worker (ties broken by admission order, like the heaps).
    pub fn lease_host(&mut self) -> Lease {
        let variant = self
            .pending
            .iter()
            .enumerate()
            .filter_map(|(i, heap)| heap.peek().map(|e| (i, e)))
            .min_by(|(_, a), (_, b)| (a.0.deadline, a.0.global).cmp(&(b.0.deadline, b.0.global)))
            .map(|(i, _)| i);
        let requests = match variant {
            Some(v) => vec![self.pending[v].pop().expect("peeked above").0],
            None => Vec::new(),
        };
        let n = requests.len();
        self.book_lease(&requests, n);
        Lease { requests }
    }

    fn book_lease(&mut self, requests: &[PendingRequest], n: usize) {
        self.in_flight += requests.len();
        let now = Instant::now();
        for request in requests {
            self.metrics
                .queue_wait
                .record(now.duration_since(request.submitted));
            self.shard_tag(
                tincy_trace::span(static_label!("serve.lease"))
                    .request(request.global)
                    .batch(u32::try_from(n).unwrap_or(u32::MAX))
                    .context(request.trace),
            )
            .emit();
        }
    }

    /// Completes a leased request: records latency/SLO metrics and routes
    /// the response through the owning client's reorder buffer so delivery
    /// follows admission order even when backends finish out of order.
    pub fn complete(
        &mut self,
        request: PendingRequest,
        detections: Vec<Detection>,
        backend: BackendKind,
        batch: usize,
        degraded: bool,
    ) {
        let latency = request.submitted.elapsed();
        let slo_violated = latency > self.slo_targets[request.class.index()];
        self.metrics.latency.record(latency);
        self.metrics.class_latency[request.class.index()].record(latency);
        self.metrics.slo_violations += u64::from(slo_violated);
        self.metrics.completed += 1;
        let now_ns = self.now_ns();
        self.slo[request.class.index()].record(now_ns, latency, degraded);
        match backend {
            BackendKind::Finn => self.metrics.finn_items += 1,
            BackendKind::Cpu => self.metrics.cpu_items += 1,
        }
        self.metrics.variant_items[request.variant] += 1;
        self.metrics.variant_latency[request.variant].record(latency);
        self.in_flight -= 1;
        let response = InferResponse {
            client: request.client,
            seq: request.seq,
            class: request.class,
            detections,
            backend,
            batch,
            latency,
            slo_violated,
            variant: request.variant,
        };
        self.shard_tag(
            tincy_trace::span(static_label!("serve.deliver"))
                .request(request.global)
                .frame(request.seq)
                .backend(match backend {
                    BackendKind::Finn => tincy_trace::Backend::Finn,
                    BackendKind::Cpu => tincy_trace::Backend::Host,
                })
                .batch(u32::try_from(batch).unwrap_or(u32::MAX))
                .context(request.trace),
        )
        .emit();
        // Close the router→shard flow on the completing worker's thread:
        // the matching `fleet.route` flow-start (same join id) was emitted
        // on the submitting thread, so the session's timeline draws the
        // cross-thread (and cross-shard, after failover) hand-off arrow.
        self.shard_tag(tincy_trace::span(static_label!("fleet.route")).context(request.trace))
            .emit_flow_finish();
        let state = &mut self.clients[request.client];
        state.hold.insert(request.seq, response);
        // Flush the reorder buffer: deliver while the next owed sequence
        // number is present.
        while let Some(&owed) = state.admitted.get(state.next_deliver) {
            let Some(ready) = state.hold.remove(&owed) else {
                break;
            };
            state.next_deliver += 1;
            state.outstanding -= 1;
            // A dropped client handle just discards its responses.
            let _ = state.tx.send(ready);
        }
    }

    /// Records one FINN invocation of the given batch size against the
    /// serving variant, charging the variant's per-invocation weight
    /// swaps (one per weighted fabric layer — the amortization batching
    /// exists to win). A batch that needed no retry or fallback feeds the
    /// variant's FINN drift tracker its per-item time; a `degraded` one
    /// already burns the SLO budget, and a timed-out attempt is not a
    /// slower fabric.
    pub fn record_finn_batch(
        &mut self,
        variant: usize,
        batch: usize,
        busy: Duration,
        degraded: bool,
    ) {
        if self.metrics.batch_hist.len() <= batch {
            self.metrics.batch_hist.resize(batch + 1, 0);
        }
        self.metrics.batch_hist[batch] += 1;
        self.metrics.finn_batches += 1;
        self.metrics.finn_busy += busy;
        self.metrics.weight_swaps[variant] += self.swap_layers[variant];
        let per_item = busy.as_secs_f64() / batch as f64;
        if let (Some([finn, _]), false) = (self.drift.get_mut(variant), degraded) {
            finn.observe(per_item, batch, &mut self.drift_closed);
        }
    }

    /// Records one host-worker request's busy time against its variant.
    pub fn record_cpu_busy(&mut self, variant: usize, busy: Duration) {
        self.metrics.cpu_busy += busy;
        if let Some([_, host]) = self.drift.get_mut(variant) {
            host.observe(busy.as_secs_f64(), 1, &mut self.drift_closed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::channel;
    use tincy_video::{SceneConfig, SyntheticCamera};

    fn config() -> ServeConfig {
        ServeConfig {
            queue_capacity: 4,
            per_client_capacity: 2,
            ..Default::default()
        }
    }

    fn frame() -> Image {
        let scene = SceneConfig {
            width: 16,
            height: 12,
            ..Default::default()
        };
        SyntheticCamera::with_limit(scene, 1, 1)
            .capture()
            .expect("one frame")
    }

    #[test]
    fn edf_orders_by_deadline_then_admission() {
        let mut state = SchedState::new(&config());
        let (tx, _rx) = channel();
        let c = state.register_client(tx);
        // Batch first, then interactive: the interactive deadline is
        // nearer, so it must be dispatched first despite later admission.
        state.submit(c, SloClass::Batch, frame(), None).unwrap();
        state
            .submit(c, SloClass::Interactive, frame(), None)
            .unwrap();
        let lease = state.lease(0, 2);
        assert_eq!(lease.requests[0].class, SloClass::Interactive);
        assert_eq!(lease.requests[1].class, SloClass::Batch);
    }

    #[test]
    fn admission_bounds_are_enforced() {
        let mut state = SchedState::new(&config());
        let (tx, _rx) = channel();
        let a = state.register_client(tx);
        let (tx, _rx) = channel();
        let b = state.register_client(tx);
        assert!(state.submit(a, SloClass::Standard, frame(), None).is_ok());
        assert!(state.submit(a, SloClass::Standard, frame(), None).is_ok());
        // Client quota (2) exhausted; the error carries quota and depth.
        assert_eq!(
            state.submit(a, SloClass::Interactive, frame(), None),
            Err(AdmissionError::ClientQueueFull {
                quota: 2,
                outstanding: 2
            })
        );
        assert!(state.submit(b, SloClass::Standard, frame(), None).is_ok());
        assert!(state.submit(b, SloClass::Standard, frame(), None).is_ok());
        // Global capacity (4) exhausted — checked before the client quota.
        assert_eq!(
            state.submit(b, SloClass::Batch, frame(), None),
            Err(AdmissionError::QueueFull {
                capacity: 4,
                depth: 4
            })
        );
        state.draining = true;
        assert_eq!(
            state.submit(b, SloClass::Batch, frame(), None),
            Err(AdmissionError::Draining)
        );
        assert_eq!(state.metrics.rejected_client_full, 1);
        assert_eq!(state.metrics.rejected_queue_full, 1);
        assert_eq!(state.metrics.rejected_draining, 1);
        assert_eq!(state.metrics.accepted, 4);
        // Per-class attribution of the three rejections above.
        assert_eq!(state.metrics.rejected_class, [1, 0, 2]);
    }

    #[test]
    fn admission_errors_display_quota_and_depth() {
        let queue = AdmissionError::QueueFull {
            capacity: 64,
            depth: 64,
        };
        assert_eq!(
            queue.to_string(),
            "server queue full: 64 pending at capacity 64"
        );
        assert_eq!(queue.tag(), "queue-full");
        let client = AdmissionError::ClientQueueFull {
            quota: 8,
            outstanding: 8,
        };
        assert_eq!(
            client.to_string(),
            "client queue full: 8 outstanding at quota 8"
        );
        assert_eq!(client.tag(), "client-full");
        assert_eq!(
            AdmissionError::Draining.to_string(),
            "server is draining, not admitting new work"
        );
        assert_eq!(AdmissionError::Draining.tag(), "draining");
    }

    #[test]
    fn out_of_order_completion_delivers_in_order() {
        let mut state = SchedState::new(&config());
        let (tx, rx) = channel();
        let c = state.register_client(tx);
        state.submit(c, SloClass::Standard, frame(), None).unwrap();
        state.submit(c, SloClass::Standard, frame(), None).unwrap();
        let lease = state.lease(0, 2);
        let [first, second]: [PendingRequest; 2] =
            lease.requests.try_into().map_err(|_| ()).unwrap();
        // Complete the *second* request first: it must be held back.
        state.complete(second, Vec::new(), BackendKind::Cpu, 1, false);
        assert!(rx.try_recv().is_err(), "seq 1 held until seq 0 completes");
        state.complete(first, Vec::new(), BackendKind::Finn, 1, false);
        assert_eq!(rx.try_recv().unwrap().seq, 0);
        assert_eq!(rx.try_recv().unwrap().seq, 1);
        assert!(state.drained());
    }

    #[test]
    fn cpu_engages_only_under_pressure_degradation_or_drain() {
        // The default quotas: 64 queued, 8 per client.
        let mut state = SchedState::new(&ServeConfig::default());
        let (tx, _rx) = channel();
        let a = state.register_client(tx);
        let (tx, _rx) = channel();
        let b = state.register_client(tx);
        state.submit(a, SloClass::Standard, frame(), None).unwrap();
        assert!(state.finn_ready(0));
        assert!(!state.cpu_ready(), "below the engage depth, CPU holds off");
        state.finn_degraded[0] = true;
        assert!(state.cpu_ready(), "degraded FINN sheds load to the CPU");
        state.finn_degraded[0] = false;
        state.draining = true;
        assert!(state.cpu_ready(), "drain engages every backend");
        state.draining = false;
        for _ in 1..CPU_ENGAGE_DEPTH {
            state.submit(a, SloClass::Standard, frame(), None).unwrap();
        }
        assert!(!state.cpu_ready(), "depth 8 does not exceed engage depth 8");
        state.submit(b, SloClass::Standard, frame(), None).unwrap();
        assert!(state.cpu_ready(), "depth 9 exceeds engage depth 8");
    }

    #[test]
    fn pause_gates_both_backends() {
        let mut state = SchedState::new(&config());
        let (tx, _rx) = channel();
        let c = state.register_client(tx);
        state.paused = true;
        state
            .submit(c, SloClass::Interactive, frame(), None)
            .unwrap();
        assert!(!state.finn_ready(0));
        assert!(!state.cpu_ready());
        state.paused = false;
        assert!(state.finn_ready(0));
    }

    fn ladder_config() -> ServeConfig {
        use crate::variants::{ServeVariant, VariantLadder};
        let model = ServeConfig::default().model_spec();
        let ladder = VariantLadder::new(vec![
            ServeVariant {
                name: "cheap".to_string(),
                model: model.clone(),
                accuracy: 0.1,
            },
            ServeVariant {
                name: "mid".to_string(),
                model: model.clone(),
                accuracy: 0.5,
            },
            ServeVariant {
                name: "accurate".to_string(),
                model,
                accuracy: 0.9,
            },
        ])
        .unwrap();
        ServeConfig {
            variants: Some(ladder),
            ..config()
        }
    }

    #[test]
    fn classes_route_to_their_home_rungs() {
        let mut state = SchedState::new(&ladder_config());
        assert_eq!(state.active_variants(), [0, 1, 2]);
        let (tx, _rx) = channel();
        let c = state.register_client(tx);
        state
            .submit(c, SloClass::Interactive, frame(), None)
            .unwrap();
        state.submit(c, SloClass::Batch, frame(), None).unwrap();
        assert!(state.finn_ready(0));
        assert!(!state.finn_ready(1));
        assert!(state.finn_ready(2));
        let lease = state.lease(2, 1);
        assert_eq!(lease.requests[0].class, SloClass::Batch);
        assert_eq!(lease.requests[0].variant, 2);
        assert_eq!(state.metrics.variant_requests[0], [1, 0, 0]);
        assert_eq!(state.metrics.variant_requests[2], [0, 0, 1]);
    }

    #[test]
    fn shifts_reroute_new_admissions_only() {
        let mut state = SchedState::new(&ladder_config());
        let (tx, _rx) = channel();
        let c = state.register_client(tx);
        state.submit(c, SloClass::Batch, frame(), None).unwrap();
        assert!(state.apply_shift(1, true, "demote"));
        assert_eq!(state.active_variants(), [0, 0, 1]);
        assert_eq!(state.metrics.shifts_down, 1);
        // The queued request stays on its admission-time rung.
        assert!(state.finn_ready(2));
        // New batch work lands on the demoted rung.
        state.submit(c, SloClass::Batch, frame(), None).unwrap();
        assert!(state.finn_ready(1));
        // Re-applying the same offset is a no-op.
        assert!(!state.apply_shift(1, true, "demote"));
        assert_eq!(state.metrics.shifts_down, 1);
        assert!(state.apply_shift(0, false, "promote"));
        assert_eq!(state.active_variants(), [0, 1, 2]);
        assert_eq!(state.metrics.shifts_up, 1);
    }

    #[test]
    fn host_lease_picks_earliest_deadline_across_variants() {
        let mut state = SchedState::new(&ladder_config());
        let (tx, _rx) = channel();
        let c = state.register_client(tx);
        // Batch lands on rung 2 first, interactive on rung 0 second — the
        // host worker must still take the interactive (nearer) deadline.
        state.submit(c, SloClass::Batch, frame(), None).unwrap();
        state
            .submit(c, SloClass::Interactive, frame(), None)
            .unwrap();
        let lease = state.lease_host();
        assert_eq!(lease.requests.len(), 1);
        assert_eq!(lease.requests[0].class, SloClass::Interactive);
        assert_eq!(lease.requests[0].variant, 0);
    }

    fn drift_state() -> SchedState {
        SchedState::new(&ServeConfig {
            drift_threshold: Some(0.5),
            ..ladder_config()
        })
    }

    /// Records `blocks` drift blocks of FINN batches of 4 at `ms` per
    /// item on `variant`, each `degraded` or not.
    fn finn_blocks(state: &mut SchedState, variant: usize, ms: u64, blocks: u32, degraded: bool) {
        for _ in 0..blocks * DRIFT_BLOCK / 4 {
            state.record_finn_batch(variant, 4, Duration::from_millis(4 * ms), degraded);
        }
    }

    fn host_block(state: &mut SchedState, ms: u64) {
        for _ in 0..DRIFT_BLOCK {
            state.record_cpu_busy(0, Duration::from_millis(ms));
        }
    }

    #[test]
    fn steady_service_never_alerts() {
        let mut state = drift_state();
        for _ in 0..20 {
            finn_blocks(&mut state, 0, 2, 1, false);
            host_block(&mut state, 7);
        }
        for tracker in state.drift[0] {
            let seen = (tracker.blocks, tracker.drift(), tracker.alerts);
            assert_eq!(seen, (20, Some(0.0), 0));
            assert!(!tracker.alerted);
        }
    }

    #[test]
    fn faulted_batches_leave_the_ewma_untouched() {
        let mut state = drift_state();
        finn_blocks(&mut state, 0, 1, 3, false);
        let before = state.drift[0][0];
        finn_blocks(&mut state, 0, 50, 8, true);
        assert_eq!(state.drift[0][0], before);
        assert_eq!(
            state.metrics.finn_batches, 44,
            "a faulted batch still counts"
        );
    }

    #[test]
    fn a_slow_rung_moves_only_its_own_series() {
        let mut state = drift_state();
        for block in 0..5 {
            finn_blocks(&mut state, 0, if block < 3 { 1 } else { 4 }, 1, false);
            finn_blocks(&mut state, 1, 1, 1, false);
            host_block(&mut state, 3);
        }
        let [finn, host] = state.drift[0];
        // Reference 1 ms, two 4 ms blocks at alpha 2/9: 4 - 3 (7/9)^2 ms.
        assert!((finn.drift().unwrap() - 96.0 / 81.0).abs() < 1e-9);
        assert!(finn.alerted);
        assert_eq!(finn.alerts, 1);
        for other in [host, state.drift[1][0]] {
            assert_eq!((other.drift(), other.alerted), (Some(0.0), false));
        }
    }
}
