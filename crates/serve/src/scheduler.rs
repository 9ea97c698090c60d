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
    /// Next submission sequence number. Only admission assigns one, so
    /// the client is owed exactly `0..next_seq`, in order.
    next_seq: u64,
    /// Sequence number of the next response owed to the client.
    next_deliver: u64,
    /// Completed responses held until all earlier admitted work completes.
    hold: BTreeMap<u64, InferResponse>,
    /// Delivery channel back to the client handle.
    tx: Sender<InferResponse>,
}

/// Queue depth past which host workers engage on a healthy fabric.
const CPU_ENGAGE_DEPTH: usize = 8;

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
    /// Verdict of the latest FINN batch on the server's one device: while
    /// it is degraded, host workers engage unconditionally to shed load.
    pub finn_degraded: bool,
    /// The counters and distributions of the run so far; [`Self::report`]
    /// completes them with the fields only the server knows.
    pub metrics: ServeReport,
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

impl SchedState {
    pub(crate) fn new(config: &ServeConfig) -> Self {
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
            finn_degraded: false,
            metrics: ServeReport::new(ladder.names(), homes),
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

    /// The report as of now: the accumulated metrics plus the fields only
    /// the server knows. [`crate::InferenceServer::finish`] and the live
    /// `/report` route both read it, so the final and the mid-run view
    /// can never disagree on a field.
    pub(crate) fn report(
        &self,
        cpu_workers: usize,
        wall: Duration,
        offload: OffloadStats,
    ) -> ServeReport {
        ServeReport {
            cpu_workers,
            wall,
            offload,
            ..self.metrics.clone()
        }
    }

    /// Evaluates every class's burn-rate state at the current injected
    /// clock, indexed by [`SloClass::index`].
    pub(crate) fn slo_status(&mut self) -> [SloStatus; 3] {
        let now = self.now_ns();
        let [a, b, c] = &mut self.slo;
        [a.evaluate(now), b.evaluate(now), c.evaluate(now)]
    }

    /// Registers a client and returns its id.
    pub(crate) fn register_client(&mut self, tx: Sender<InferResponse>) -> usize {
        self.clients.push(ClientState {
            outstanding: 0,
            next_seq: 0,
            next_deliver: 0,
            hold: BTreeMap::new(),
            tx,
        });
        self.clients.len() - 1
    }

    /// Queue depth (admitted, not yet dispatched), across all variants.
    pub(crate) fn depth(&self) -> usize {
        self.pending.iter().map(BinaryHeap::len).sum()
    }

    /// The active ladder rung per SLO class.
    pub(crate) fn active_variants(&self) -> [usize; 3] {
        self.metrics.active_variant
    }

    /// True when every admitted request has been delivered.
    pub(crate) fn drained(&self) -> bool {
        self.depth() == 0 && self.in_flight == 0
    }

    /// Admission control: accept the request into the EDF queue of its
    /// class's active ladder rung, or reject immediately. Never blocks,
    /// never queues beyond the configured bounds.
    pub(crate) fn submit(
        &mut self,
        client: usize,
        class: SloClass,
        image: Image,
        trace: Option<TraceContext>,
    ) -> Result<u64, AdmissionError> {
        let rung = self.metrics.active_variant[class.index()];
        self.submit_on(rung, client, class, image, trace)
    }

    /// [`Self::submit`] on ladder rung `variant`, whatever rung the class
    /// rides now (the fleet's canaries probe every rung this way). The
    /// choice is fixed for the request's lifetime.
    pub(crate) fn submit_on(
        &mut self,
        variant: usize,
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
        let global = self.next_global;
        self.next_global += 1;
        // Direct submissions (no fleet router upstream) mint their trace
        // identity here, salted by shard so two shards' monitor probes
        // can never share a trace id.
        let trace = trace.or_else(|| Some(TraceContext::mint(self.mint_salt ^ client as u64, seq)));
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
    pub(crate) fn apply_shift(
        &mut self,
        offset: usize,
        demote: bool,
        reason: &'static str,
    ) -> bool {
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

    /// Whether the FINN worker may take work right now.
    pub(crate) fn finn_ready(&self) -> bool {
        !self.paused && self.depth() > 0
    }

    /// Whether a host worker may take work right now: only under queue
    /// pressure (deeper than [`CPU_ENGAGE_DEPTH`]), a degraded latest FINN
    /// batch or drain — otherwise frames are left to accumulate into FINN
    /// micro-batches.
    pub(crate) fn cpu_ready(&self) -> bool {
        let depth = self.depth();
        !self.paused
            && depth > 0
            && (depth > CPU_ENGAGE_DEPTH || self.finn_degraded || self.draining)
    }

    /// Leases up to `max` earliest-deadline requests of one rung: the rung
    /// whose queue head has the earliest deadline across the ladder (ties
    /// broken by admission order, like the heaps). A lease never mixes
    /// rungs — a fabric batch shares one weight set — and a host worker
    /// leases one.
    pub(crate) fn lease(&mut self, max: usize) -> Vec<PendingRequest> {
        let variant = self
            .pending
            .iter()
            .enumerate()
            .filter_map(|(i, heap)| heap.peek().map(|head| (i, head)))
            // `QueueEntry` orders in reverse: the greatest head is the earliest.
            .max_by_key(|&(_, head)| head)
            .map_or(0, |(i, _)| i);
        let n = max.min(self.pending[variant].len());
        let mut requests = Vec::with_capacity(n);
        for _ in 0..n {
            requests.push(self.pending[variant].pop().expect("n bounded by len").0);
        }
        self.in_flight += n;
        let now = Instant::now();
        for request in &requests {
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
        requests
    }

    /// Completes a leased request: records latency/SLO metrics and routes
    /// the response through the owning client's reorder buffer so delivery
    /// follows admission order even when backends finish out of order.
    pub(crate) fn complete(
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
        while let Some(ready) = state.hold.remove(&state.next_deliver) {
            state.next_deliver += 1;
            state.outstanding -= 1;
            // A dropped client handle just discards its responses.
            let _ = state.tx.send(ready);
        }
    }

    /// Records one FINN invocation of the given batch size against the
    /// serving variant, charging the variant's per-invocation weight
    /// swaps (one per weighted fabric layer — the amortization batching
    /// exists to win). The batch's `degraded` verdict, whatever its rung,
    /// is the device's: it engages the host workers or, clean, lets
    /// micro-batches form again.
    pub(crate) fn record_finn_batch(
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
        self.finn_degraded = degraded;
        self.metrics.finn_busy += busy;
        self.metrics.weight_swaps[variant] += self.swap_layers[variant];
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
        let lease = state.lease(2);
        assert_eq!(lease[0].class, SloClass::Interactive);
        assert_eq!(lease[1].class, SloClass::Batch);
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
        let lease = state.lease(2);
        let [first, second]: [PendingRequest; 2] = lease.try_into().map_err(|_| ()).unwrap();
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
        assert!(state.finn_ready());
        assert!(!state.cpu_ready(), "below the engage depth, CPU holds off");
        state.finn_degraded = true;
        assert!(state.cpu_ready(), "degraded FINN sheds load to the CPU");
        state.finn_degraded = false;
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
        assert!(!state.finn_ready());
        assert!(!state.cpu_ready());
        state.paused = false;
        assert!(state.finn_ready());
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

    /// Queued requests per rung.
    fn queued(state: &SchedState) -> Vec<usize> {
        state.pending.iter().map(BinaryHeap::len).collect()
    }

    #[test]
    fn the_latest_batch_on_any_rung_sets_the_one_degraded_flag() {
        // One device serves every rung: a degraded batch on rung 2 engages
        // the host workers, and a clean batch on rung 0 releases them
        // though no traffic rides rung 2 again.
        let mut state = SchedState::new(&ladder_config());
        let (tx, _rx) = channel();
        let c = state.register_client(tx);
        state
            .submit(c, SloClass::Interactive, frame(), None)
            .unwrap();
        assert!(!state.cpu_ready(), "depth 1, nothing degraded");
        state.record_finn_batch(2, 1, Duration::from_millis(4), true);
        assert!(state.cpu_ready(), "a degraded batch engages the host");
        state.record_finn_batch(0, 1, Duration::from_millis(4), false);
        assert!(!state.cpu_ready(), "a clean batch releases it");
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
        assert_eq!(queued(&state), [1, 0, 1]);
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
        assert_eq!(queued(&state), [0, 0, 1]);
        // New batch work lands on the demoted rung.
        state.submit(c, SloClass::Batch, frame(), None).unwrap();
        assert_eq!(queued(&state), [0, 1, 1]);
        // Re-applying the same offset is a no-op.
        assert!(!state.apply_shift(1, true, "demote"));
        assert_eq!(state.metrics.shifts_down, 1);
        assert!(state.apply_shift(0, false, "promote"));
        assert_eq!(state.active_variants(), [0, 1, 2]);
        assert_eq!(state.metrics.shifts_up, 1);
    }

    #[test]
    fn lease_takes_the_earliest_head_across_rungs_and_never_mixes_them() {
        let mut state = SchedState::new(&ladder_config());
        let (tx, _rx) = channel();
        let a = state.register_client(tx);
        let (tx, _rx) = channel();
        let b = state.register_client(tx);
        // Batch work lands on rung 2 first, interactive on rung 0 second:
        // the nearer interactive deadlines go first, whatever the lease
        // size, and a lease never crosses into another rung's queue.
        for _ in 0..2 {
            state.submit(a, SloClass::Batch, frame(), None).unwrap();
        }
        for _ in 0..2 {
            state
                .submit(b, SloClass::Interactive, frame(), None)
                .unwrap();
        }
        let leased = |lease: Vec<PendingRequest>| -> Vec<(SloClass, usize)> {
            lease.iter().map(|r| (r.class, r.variant)).collect()
        };
        let interactive = (SloClass::Interactive, 0);
        assert_eq!(leased(state.lease(1)), [interactive]);
        assert_eq!(leased(state.lease(4)), [interactive]);
        let batch = (SloClass::Batch, 2);
        assert_eq!(leased(state.lease(4)), [batch, batch]);
        assert!(state.lease(4).is_empty());
    }
}
