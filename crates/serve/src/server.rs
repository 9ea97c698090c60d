//! The concurrent inference server: one FINN worker — the device is one
//! fabric — micro-batching the accelerated path of every hosted variant,
//! plus host workers running the bit-exact reference path under pressure,
//! degradation or drain.
//!
//! With a multi-rung [`crate::VariantLadder`] the server also runs a
//! *shift monitor* thread: it samples the server's verdict (per-class SLO
//! burn) every 10 ms, feeds a hysteretic [`ShiftState`], and demotes
//! traffic down the ladder under a sustained burn (promoting back after a
//! clean streak).

use crate::config::ServeConfig;
use crate::engine::{Model, ServeEngine};
use crate::json::serve_report_json;
use crate::metrics::ServeReport;
use crate::request::{AdmissionError, BackendKind, InferResponse, PendingRequest, SloClass};
use crate::scheduler::SchedState;
use crate::telemetry::{bind_status, healthz_json, ServeCollector};
use crate::variants::{Shift, ShiftState, SHIFT_EVERY};
use parking_lot::{Condvar, Mutex};
use std::net::SocketAddr;
use std::sync::mpsc::{channel, Receiver};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;
use tincy_nn::NnError;
use tincy_telemetry::{Collect, StatusServer};
use tincy_trace::{static_label, TraceContext};
use tincy_video::Image;

pub(crate) struct Inner {
    pub(crate) state: Mutex<SchedState>,
    /// Single condvar for every state transition; the shim condvar has no
    /// timed wait, so every mutation under the lock is followed by
    /// `notify_all`.
    pub(crate) cond: Condvar,
}

impl Inner {
    /// Runs `f` under the lock, then wakes every waiter.
    fn mutate<R>(&self, f: impl FnOnce(&mut SchedState) -> R) -> R {
        let result = f(&mut self.state.lock());
        self.cond.notify_all();
        result
    }

    /// Waits until `ready` holds, then leases up to `max` requests under
    /// the lock that saw it hold; `None` once the server shuts down.
    fn lease_when(
        &self,
        ready: fn(&SchedState) -> bool,
        max: usize,
    ) -> Option<Vec<PendingRequest>> {
        let mut state = self.state.lock();
        while !state.shutdown {
            if ready(&state) {
                return Some(state.lease(max));
            }
            self.cond.wait(&mut state);
        }
        None
    }
}

/// A running inference server. Register clients with [`Self::client`],
/// submit frames through the handles, then [`Self::finish`] to drain and
/// collect the [`ServeReport`].
pub struct InferenceServer {
    inner: Arc<Inner>,
    workers: Vec<JoinHandle<()>>,
    /// One engine per ladder rung: the rung's shared model on this
    /// server's one device.
    pub(crate) engines: Vec<Arc<ServeEngine>>,
    /// The server's state as anything outside it reads it: its own
    /// endpoint, or the fleet it is a shard of.
    pub(crate) collector: Arc<ServeCollector>,
    /// Telemetry endpoint, alive for the server's lifetime when
    /// `status_addr` was configured.
    status: Option<StatusServer>,
}

/// A client's connection: submission plus in-order response delivery.
pub struct ClientHandle {
    id: usize,
    inner: Arc<Inner>,
    rx: Receiver<InferResponse>,
}

impl ClientHandle {
    /// Submits one frame under an SLO class. Returns the per-client
    /// sequence number on admission; rejects immediately (never queues
    /// unboundedly) when the server is saturated or draining.
    ///
    /// # Errors
    ///
    /// [`AdmissionError`] when the request is refused.
    pub fn submit(&self, image: Image, class: SloClass) -> Result<u64, AdmissionError> {
        self.inner
            .mutate(|state| state.submit(self.id, class, image, None))
    }

    /// Like [`Self::submit`], but under an externally minted trace
    /// context (the fleet router mints one per submission at admission,
    /// so a failed-over request keeps one trace id across shards).
    ///
    /// # Errors
    ///
    /// [`AdmissionError`] when the request is refused.
    pub fn submit_traced(
        &self,
        image: Image,
        class: SloClass,
        ctx: TraceContext,
    ) -> Result<u64, AdmissionError> {
        self.inner
            .mutate(|state| state.submit(self.id, class, image, Some(ctx)))
    }

    /// Submits a fleet canary on ladder rung `rung`, whatever rung the
    /// standard class rides now, so every rung's engine can be probed.
    pub(crate) fn submit_canary(&self, image: Image, rung: usize) -> Result<u64, AdmissionError> {
        self.inner
            .mutate(|state| state.submit_on(rung, self.id, SloClass::Standard, image, None))
    }

    /// Receives the next response, blocking. Responses arrive in
    /// submission order. Returns `None` once the server is gone and all
    /// buffered responses are consumed.
    pub fn recv(&self) -> Option<InferResponse> {
        self.rx.recv().ok()
    }

    /// Non-blocking receive.
    pub fn try_recv(&self) -> Option<InferResponse> {
        self.rx.try_recv().ok()
    }
}

/// Builds the model of every rung of `config`'s ladder, in ladder order.
pub(crate) fn rung_models(config: &ServeConfig) -> Result<Vec<Arc<Model>>, NnError> {
    let ladder = config.ladder();
    let models = ladder
        .variants()
        .iter()
        .map(|variant| Model::build(&variant.model, config.score_threshold).map(Arc::new));
    models.collect()
}

impl InferenceServer {
    /// Builds every rung's model and starts the worker threads.
    ///
    /// # Errors
    ///
    /// Propagates network construction failures.
    pub fn start(config: ServeConfig) -> Result<Self, NnError> {
        let models = rung_models(&config)?;
        Self::start_on(config, &models)
    }

    /// Starts a server over already built rung models (ladder order, from
    /// [`rung_models`] of a configuration with this one's ladder), all on
    /// the server's one device, armed with `config.system`'s fault plan
    /// and retry policy.
    ///
    /// # Errors
    ///
    /// Propagates endpoint bind failures.
    pub(crate) fn start_on(config: ServeConfig, models: &[Arc<Model>]) -> Result<Self, NnError> {
        let ladder = config.ladder();
        // One engine per rung, shared by the FINN worker and every host
        // worker: a leased request runs on the engine of its admission-time
        // rung, so either path stays bit-exact per variant.
        let device = tincy_core::xczu3eg_device(config.system.fault_plan, config.system.retry);
        let engines: Vec<_> = models
            .iter()
            .map(|model| Arc::new(ServeEngine::on_device(Arc::clone(model), device.clone())))
            .collect();

        let inner = Arc::new(Inner {
            state: Mutex::new(SchedState::new(&config)),
            cond: Condvar::new(),
        });
        let collector = Arc::new(ServeCollector {
            inner: Arc::clone(&inner),
            health: device.health(),
            started: Instant::now(),
            cpu_workers: config.cpu_workers,
        });
        let mut workers = Vec::with_capacity(config.cpu_workers + 2);
        let max_batch = config.max_batch.max(1);
        // In a fleet every shard lives in one process (one trace
        // session), so worker thread names carry the shard id — the
        // trace's track names say which shard served what.
        let prefix = config
            .shard
            .map(|shard| format!("shard{shard}-"))
            .unwrap_or_default();
        workers.push(spawn_finn_worker(
            Arc::clone(&inner),
            engines.clone(),
            max_batch,
            format!("{prefix}serve-finn"),
            config.shard,
        ));
        for i in 0..config.cpu_workers {
            workers.push(spawn_cpu_worker(
                Arc::clone(&inner),
                engines.clone(),
                format!("{prefix}serve-cpu-{i}"),
                config.shard,
            ));
        }
        if ladder.len() > 1 {
            workers.push(spawn_shift_monitor(
                Arc::clone(&collector),
                ladder.max_offset(),
                format!("{prefix}serve-shift"),
            ));
        }
        let status = match &config.status_addr {
            Some(addr) => {
                let (health, report) = (Arc::clone(&collector), Arc::clone(&collector));
                let bound = bind_status(
                    addr,
                    Arc::clone(&collector) as Arc<dyn Collect>,
                    move || healthz_json(health.degraded()).finish(),
                    move || serve_report_json(&report.report()),
                );
                Some(bound.map_err(NnError::Io)?)
            }
            None => None,
        };
        Ok(Self {
            inner,
            workers,
            engines,
            collector,
            status,
        })
    }

    /// The bound telemetry address (the real port when `:0` was
    /// requested), when `status_addr` was configured.
    pub fn status_addr(&self) -> Option<SocketAddr> {
        self.status.as_ref().map(StatusServer::addr)
    }

    /// Registers a new client and returns its handle.
    pub fn client(&self) -> ClientHandle {
        let (tx, rx) = channel();
        let id = self.inner.mutate(|state| state.register_client(tx));
        ClientHandle {
            id,
            inner: Arc::clone(&self.inner),
            rx,
        }
    }

    /// Resumes dispatch after a paused start (burst mode).
    pub fn resume(&self) {
        self.inner.mutate(|state| state.paused = false);
    }

    /// Current pending-queue depth (across all variants).
    pub fn depth(&self) -> usize {
        self.inner.state.lock().depth()
    }

    /// The active ladder rung per SLO class, indexed by
    /// [`SloClass::index`].
    pub fn active_variants(&self) -> [usize; 3] {
        self.inner.state.lock().active_variants()
    }

    /// Drains and shuts down: stops admitting, lets the backends finish
    /// every queued request (no accepted request is dropped), joins the
    /// workers and returns the aggregate report.
    pub fn finish(mut self) -> ServeReport {
        {
            let mut state = self.inner.state.lock();
            state.draining = true;
            // A paused server must still drain.
            state.paused = false;
            self.inner.cond.notify_all();
            while !state.drained() {
                self.inner.cond.wait(&mut state);
            }
            state.shutdown = true;
            self.inner.cond.notify_all();
        }
        for worker in self.workers {
            worker.join().expect("serve worker panicked");
        }
        // The endpoint stays scrapeable through the drain: a scrape taken
        // after the last response sees the same counters the report
        // carries. Only now does it unbind.
        if let Some(mut status) = self.status.take() {
            status.shutdown();
        }
        self.collector.report()
    }
}

/// Spawns the one FINN worker: it leases the rung with the earliest
/// queue head and runs the batch on that rung's engine, so the rungs
/// share the fabric by deadline.
fn spawn_finn_worker(
    inner: Arc<Inner>,
    engines: Vec<Arc<ServeEngine>>,
    max_batch: usize,
    name: String,
    shard: Option<u32>,
) -> JoinHandle<()> {
    spawn_named(name, move || loop {
        let Some(requests) = inner.lease_when(SchedState::finn_ready, max_batch) else {
            return;
        };
        let variant = requests[0].variant;
        let engine = &engines[variant];
        let health = engine.health();
        let batch = requests.len();
        // The batch span links every member request, so a timeline
        // viewer can resolve which `serve.admit`/`serve.deliver` ids a
        // FINN invocation covered.
        let members: Vec<u64> = requests.iter().map(|r| r.global).collect();
        let before = health.snapshot();
        let t0 = Instant::now();
        let detections = {
            let mut span = tincy_trace::span(static_label!("serve.finn_batch"))
                .batch(u32::try_from(batch).unwrap_or(u32::MAX))
                .backend(tincy_trace::Backend::Finn)
                .link_requests(&members);
            if let Some(shard) = shard {
                span = span.shard(shard);
            }
            let _span = span.start();
            engine
                .process_batch(&requests.iter().map(|r| r.image.clone()).collect::<Vec<_>>())
                .expect("offload resilience absorbs accelerator faults")
        };
        let busy = t0.elapsed();
        // The degradation verdict of *this* batch drives load-shedding:
        // a faulted batch engages the host workers, a clean one
        // signals recovery and lets micro-batches form again.
        let degraded_now = health.snapshot().degraded > before.degraded;
        inner.mutate(|state| {
            state.record_finn_batch(variant, batch, busy, degraded_now);
            for (request, dets) in requests.into_iter().zip(detections) {
                // A batch that needed the resilience machinery served
                // its members degraded: they burn SLO latency budget
                // even when the clock was met, which is what makes
                // burn-rate alerts deterministic under injected
                // outages.
                state.complete(request, dets, BackendKind::Finn, batch, degraded_now);
            }
        });
    })
}

/// Spawns a worker on a named thread: the name lands in the trace's
/// thread table (and so in Perfetto's track names) when the worker
/// records spans.
fn spawn_named(name: String, body: impl FnOnce() + Send + 'static) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name(name)
        .spawn(body)
        .expect("spawn serve worker")
}

fn spawn_cpu_worker(
    inner: Arc<Inner>,
    engines: Vec<Arc<ServeEngine>>,
    name: String,
    shard: Option<u32>,
) -> JoinHandle<()> {
    spawn_named(name, move || loop {
        let Some(mut leased) = inner.lease_when(SchedState::cpu_ready, 1) else {
            return;
        };
        let request = leased.pop().expect("cpu_ready saw a queued request");
        let t0 = Instant::now();
        let detections = {
            let mut span = tincy_trace::span(static_label!("serve.cpu"))
                .request(request.global)
                .backend(tincy_trace::Backend::Host)
                .context(request.trace);
            if let Some(shard) = shard {
                span = span.shard(shard);
            }
            let _span = span.start();
            engines[request.variant]
                .process_host(&request.image)
                .expect("reference path cannot fault")
        };
        let busy = t0.elapsed();
        inner.mutate(|state| {
            state.metrics.cpu_busy += busy;
            state.complete(request, detections, BackendKind::Cpu, 1, false);
        });
    })
}

/// Spawns the ladder shift monitor: every `SHIFT_EVERY` it takes the
/// server's degradation verdict (SLO burn) and feeds the hysteretic
/// [`ShiftState`]. A sustained dirty streak demotes
/// every class one rung toward the cheap end; a sustained clean streak
/// promotes back toward the home rungs.
fn spawn_shift_monitor(
    collector: Arc<ServeCollector>,
    max_offset: usize,
    name: String,
) -> JoinHandle<()> {
    spawn_named(name, move || {
        let mut shift = ShiftState::new();
        loop {
            {
                let alerted = collector.degraded().is_some();
                let mut state = collector.inner.state.lock();
                if state.shutdown {
                    return;
                }
                match shift.observe(alerted, max_offset) {
                    Some(Shift::Demote { offset }) => {
                        state.apply_shift(offset, true, "demote");
                    }
                    Some(Shift::Promote { offset }) => {
                        state.apply_shift(offset, false, "promote");
                    }
                    None => {}
                }
            }
            std::thread::sleep(SHIFT_EVERY);
        }
    })
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::variants::{ServeVariant, VariantLadder, DEMOTE_AFTER};
    use std::time::Duration;
    use tincy_core::SystemConfig;
    use tincy_video::{SceneConfig, SyntheticCamera};

    fn small_config() -> ServeConfig {
        ServeConfig {
            system: SystemConfig {
                input_size: 32,
                seed: 5,
                ..Default::default()
            },
            cpu_workers: 1,
            max_batch: 3,
            ..Default::default()
        }
    }

    fn frames(n: u64, seed: u64) -> Vec<Image> {
        let scene = SceneConfig {
            width: 48,
            height: 36,
            ..Default::default()
        };
        let mut camera = SyntheticCamera::with_limit(scene, seed, n);
        std::iter::from_fn(|| camera.capture()).collect()
    }

    #[test]
    fn accepted_requests_all_complete_in_order() {
        let server = InferenceServer::start(small_config()).unwrap();
        let client = server.client();
        let images = frames(5, 9);
        for image in images {
            client.submit(image, SloClass::Standard).unwrap();
        }
        for expected in 0..5u64 {
            let response = client.recv().expect("response delivered");
            assert_eq!(response.seq, expected);
        }
        let report = server.finish();
        assert_eq!(report.accepted, 5);
        assert_eq!(report.completed, 5);
        assert_eq!(report.rejected(), 0);
    }

    #[test]
    fn paused_burst_forms_full_batches() {
        let config = ServeConfig {
            start_paused: true,
            cpu_workers: 0,
            ..small_config()
        };
        let max_batch = config.max_batch;
        let server = InferenceServer::start(config).unwrap();
        let client = server.client();
        for image in frames(6, 11) {
            client.submit(image, SloClass::Standard).unwrap();
        }
        assert_eq!(server.depth(), 6, "paused server queues everything");
        server.resume();
        let report = server.finish();
        assert_eq!(report.completed, 6);
        assert_eq!(report.finn_items, 6);
        assert_eq!(
            report.batch_hist.get(max_batch).copied().unwrap_or(0),
            2,
            "six queued frames dispatch as two full micro-batches"
        );
        assert!(report.batched_invocations() >= 1);
    }

    #[test]
    fn status_endpoint_scrapes_live_counters_then_unbinds() {
        let config = ServeConfig {
            status_addr: Some("127.0.0.1:0".to_string()),
            ..small_config()
        };
        let server = InferenceServer::start(config).unwrap();
        let addr = server.status_addr().expect("status endpoint bound");
        let client = server.client();
        for image in frames(4, 3) {
            client.submit(image, SloClass::Standard).unwrap();
        }
        for _ in 0..4 {
            client.recv().expect("response delivered");
        }
        let (status, body) = tincy_telemetry::http_get(addr, "/metrics").unwrap();
        assert_eq!(status, 200);
        let samples = tincy_telemetry::parse_prometheus(&body).unwrap();
        let get = |name: &str| {
            samples
                .iter()
                .find(|s| s.name == name)
                .unwrap_or_else(|| panic!("{name} exposed"))
                .value
        };
        assert_eq!(get("tincy_serve_accepted_total"), 4.0);
        assert_eq!(get("tincy_serve_completed_total"), 4.0);
        let (status, report) = tincy_telemetry::http_get(addr, "/report").unwrap();
        assert_eq!(status, 200);
        assert!(report.contains("\"accepted\":4"), "live report: {report}");
        let (status, health) = tincy_telemetry::http_get(addr, "/healthz").unwrap();
        assert_eq!(status, 200);
        assert!(health.contains("\"ok\":true"));
        let report = server.finish();
        assert_eq!(report.accepted, 4);
        assert!(
            tincy_telemetry::http_get(addr, "/healthz").is_err(),
            "the endpoint unbinds at finish"
        );
    }

    #[test]
    fn finish_on_idle_server_reports_empty_run() {
        let server = InferenceServer::start(small_config()).unwrap();
        let _client = server.client();
        let report = server.finish();
        assert_eq!(report.accepted, 0);
        assert_eq!(report.completed, 0);
        assert_eq!(report.finn_batches, 0);
    }

    /// Serves `n` synthetic interactive requests on `server` as its FINN
    /// worker would, each a batch of one taking `busy` and delivered
    /// `degraded` or not, with the lock held throughout so no worker takes
    /// them. Degraded ones burn the interactive class's error budget;
    /// clean ones dilute it.
    pub(crate) fn serve_synthetic(
        server: &InferenceServer,
        n: u64,
        busy: Duration,
        degraded: bool,
    ) {
        let images = frames(n, 1);
        let (tx, _rx) = channel();
        let mut state = server.inner.state.lock();
        let client = state.register_client(tx);
        for image in images {
            state
                .submit(client, SloClass::Interactive, image, None)
                .unwrap();
            let request = state.lease(1).pop().expect("the request just queued");
            assert_eq!(request.client, client, "the earliest deadline is ours");
            state.record_finn_batch(request.variant, 1, busy, degraded);
            state.complete(request, Vec::new(), BackendKind::Finn, 1, degraded);
        }
    }

    /// A two-rung ladder, cheap 32 px below accurate 64 px.
    fn ladder_config() -> ServeConfig {
        let rung = |name: &str, input_size, accuracy| ServeVariant {
            name: name.to_owned(),
            model: SystemConfig {
                input_size,
                seed: 5,
                ..Default::default()
            }
            .model(),
            accuracy,
        };
        let ladder = VariantLadder::new(vec![rung("cheap", 32, 41.1), rung("accurate", 64, 48.5)]);
        ServeConfig {
            variants: Some(ladder.unwrap()),
            queue_capacity: 128,
            per_client_capacity: 32,
            score_threshold: 0.0,
            ..small_config()
        }
    }

    fn wait_until(mut cond: impl FnMut() -> bool) -> bool {
        let start = Instant::now();
        while start.elapsed() < Duration::from_secs(5) {
            if cond() {
                return true;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        false
    }

    /// Synthetic requests that raise, then clear, an SLO burn.
    const BURN: u64 = 20;
    const CLEAN: u64 = 50;

    /// Raises an SLO burn: `BURN` degraded interactive completions put
    /// every window at a burn of 20 against the default policy's 14.4 and
    /// 6 (5 % budget).
    fn raise_burn(server: &InferenceServer) {
        serve_synthetic(server, BURN, Duration::from_millis(1), true);
    }

    /// Clears it: `CLEAN` clean completions dilute the windows to 20
    /// misses in 70, a burn of 5.7, under both thresholds.
    fn clear_burn(server: &InferenceServer) {
        serve_synthetic(server, CLEAN, Duration::from_millis(1), false);
    }

    #[test]
    fn slo_burn_demotes_and_clean_streak_restores() {
        // A sustained SLO burn must shift every class toward the cheap
        // rung; a sustained clean streak must shift them back home. A phase
        // of batch traffic at home, demoted and promoted again conserves
        // work: each response on the rung active at admission, delivered 1:1
        // with the submissions, none lost or duplicated across the cycle.
        const PHASE: u64 = 4;
        let server = InferenceServer::start(ladder_config()).unwrap();
        let client = server.client();
        let mut images = frames(3 * PHASE, 11).into_iter();
        let mut batch_phase = |rung: usize| {
            let sent: Vec<(u64, usize)> = (0..PHASE)
                .map(|_| {
                    let image = images.next().unwrap();
                    (client.submit(image, SloClass::Batch).unwrap(), rung)
                })
                .collect();
            let got: Vec<(u64, usize)> = (0..PHASE)
                .map(|_| client.recv().unwrap())
                .map(|r| (r.seq, r.variant))
                .collect();
            assert_eq!(got, sent, "responses match submissions 1:1 on rung {rung}");
        };
        assert_eq!(server.active_variants(), [0, 0, 1], "home routing");
        batch_phase(1);
        raise_burn(&server);
        assert_eq!(server.collector.degraded(), Some("slo-burn"));
        assert!(
            wait_until(|| server.active_variants() == [0, 0, 0]),
            "a sustained burn must demote the batch class to the cheap rung"
        );
        batch_phase(0);
        clear_burn(&server);
        assert_eq!(server.collector.degraded(), None);
        assert!(
            wait_until(|| server.active_variants() == [0, 0, 1]),
            "a clean streak must restore home routing"
        );
        batch_phase(1);
        let report = server.finish();
        assert!(report.shifts_down >= 1);
        assert!(report.shifts_up >= 1);
        let served = 3 * PHASE + BURN + CLEAN;
        assert_eq!((report.accepted, report.completed), (served, served));
    }

    #[test]
    fn slower_service_inside_the_targets_never_shifts() {
        // Clean completions 4x slower than the first ones, every one
        // inside its class target: no budget burns, so the ladder stays
        // home however long the monitor watches.
        let server = InferenceServer::start(ladder_config()).unwrap();
        serve_synthetic(&server, 48, Duration::from_millis(1), false);
        serve_synthetic(&server, 48, Duration::from_millis(4), false);
        std::thread::sleep(SHIFT_EVERY * DEMOTE_AFTER * 10);
        assert_eq!(server.collector.degraded(), None);
        assert_eq!(server.active_variants(), [0, 0, 1], "home routing");
        let report = server.finish();
        assert_eq!((report.shifts_down, report.slo_violations), (0, 0));
    }

    #[test]
    fn in_order_delivery_survives_mid_flight_shift() {
        // Queue work on the accurate rung, shift the ladder while it is
        // still pending, queue more (now routed to the cheap rung), then
        // dispatch everything: each client must see its responses in
        // submission order even though the variant changed mid-stream, and
        // the queued work must stay on its admission-time rung.
        let server = InferenceServer::start(ServeConfig {
            start_paused: true,
            ..ladder_config()
        })
        .unwrap();
        let clients = [server.client(), server.client()];
        let mut images: Vec<_> = (0..2).map(|i| frames(6, 31 + i).into_iter()).collect();
        let mut submitted: Vec<Vec<u64>> = vec![Vec::new(); 2];
        let mut submit_half = |submitted: &mut Vec<Vec<u64>>| {
            for (i, client) in clients.iter().enumerate() {
                for _ in 0..3 {
                    let image = images[i].next().unwrap();
                    submitted[i].push(client.submit(image, SloClass::Batch).unwrap());
                }
            }
        };
        submit_half(&mut submitted);
        raise_burn(&server);
        assert!(
            wait_until(|| server.active_variants()[2] == 0),
            "the shift must land while the first half is still queued"
        );
        submit_half(&mut submitted);
        server.resume();
        for (i, client) in clients.iter().enumerate() {
            let responses: Vec<_> = (0..6).map(|_| client.recv().unwrap()).collect();
            let seqs: Vec<u64> = responses.iter().map(|r| r.seq).collect();
            assert_eq!(seqs, submitted[i], "client {i} delivery order");
            let variants: Vec<usize> = responses.iter().map(|r| r.variant).collect();
            assert_eq!(
                variants,
                vec![1, 1, 1, 0, 0, 0],
                "queued work keeps its admission-time rung across the shift"
            );
        }
        let report = server.finish();
        assert_eq!(report.completed, 12 + BURN);
        assert!(report.shifts_down >= 1);
    }
}
