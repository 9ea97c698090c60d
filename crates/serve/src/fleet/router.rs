//! The fleet router runtime: N in-process serve shards, least-loaded
//! dispatch with failover, and the drain/re-admit health monitor.
//!
//! Shard health is judged from the fabric's own offload counters, not
//! wall-clock timeouts or the shard's load: a poll that observes the
//! `degraded` counter advance means the shard's FINN engine needed
//! retries or CPU fallback since the last poll, and the shard is
//! drained. A shard's SLO burn or drift verdict does not drain it. A
//! drained shard keeps completing its outstanding work (accepted work
//! is never dropped anywhere in the stack); once idle it is probed with
//! canary frames. A probe is *clean* only on fabric evidence — the
//! `forwards` counter advanced while `degraded` did not. A probe stolen
//! by a host worker moves neither counter and is inconclusive: it
//! leaves the recovery streak untouched rather than resetting it, and a
//! later probe lands on the fabric. `READMIT_STREAK` clean probes
//! re-admit the shard.

use super::telemetry::FleetStats;
use super::{FleetConfig, HEALTH_EVERY, READMIT_STREAK};
use crate::metrics::ServeReport;
use crate::request::{AdmissionError, InferResponse, SloClass};
use crate::server::{ClientHandle, InferenceServer};
use crate::telemetry::ServeCollector;
use std::collections::{BTreeSet, VecDeque};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use tincy_finn::FaultPlan;
use tincy_nn::{NnError, OffloadStats};
use tincy_pipeline::DurationStats;
use tincy_telemetry::StatusServer;
use tincy_trace::{static_label, TraceContext};
use tincy_video::{Image, SceneConfig, SyntheticCamera};

/// Router-side view of one shard.
pub(super) struct Slot {
    /// Requests routed to the shard and not yet collected by their
    /// [`FleetClient`]s.
    pub(super) load: AtomicU64,
    /// Whether dispatch currently considers the shard (false while
    /// draining or drained).
    pub(super) up: AtomicBool,
    /// Requests ever routed to the shard.
    pub(super) routed: AtomicU64,
    /// The fabric `degraded` count the monitor last judged while the
    /// shard was up: written after any drain that count caused.
    judged: AtomicU64,
}

/// State shared by the router, its clients, the health monitor and the
/// status endpoint.
pub(super) struct Shared {
    pub(super) slots: Vec<Slot>,
    pub(super) drains: AtomicU64,
    pub(super) readmits: AtomicU64,
    pub(super) rerouted: AtomicU64,
    pub(super) sheds: AtomicU64,
    pub(super) probes: AtomicU64,
    started: Instant,
}

impl Shared {
    fn new(shards: usize) -> Self {
        let slots = (0..shards)
            .map(|_| Slot {
                load: AtomicU64::new(0),
                up: AtomicBool::new(true),
                routed: AtomicU64::new(0),
                judged: AtomicU64::new(0),
            })
            .collect();
        Self {
            slots,
            drains: AtomicU64::new(0),
            readmits: AtomicU64::new(0),
            rerouted: AtomicU64::new(0),
            sheds: AtomicU64::new(0),
            probes: AtomicU64::new(0),
            started: Instant::now(),
        }
    }

    fn load_of(&self, shard: usize) -> u64 {
        self.slots[shard].load.load(Ordering::Relaxed)
    }

    /// Least-loaded comparison key: outstanding load first, lifetime
    /// routed count second so equal (often zero) loads round-robin
    /// instead of always picking the lowest index.
    fn balance_key(&self, shard: usize) -> (u64, u64, usize) {
        (
            self.load_of(shard),
            self.slots[shard].routed.load(Ordering::Relaxed),
            shard,
        )
    }

    /// Shards up, for `/healthz` and tests.
    pub(super) fn up_count(&self) -> usize {
        self.slots
            .iter()
            .filter(|s| s.up.load(Ordering::Relaxed))
            .count()
    }

    /// The router's counters around the shards' reports: the final
    /// report after a drain, `/report` mid-run.
    pub(super) fn report(&self, shards: Vec<ServeReport>) -> FleetReport {
        FleetReport {
            routed: self
                .slots
                .iter()
                .map(|s| s.routed.load(Ordering::Relaxed))
                .collect(),
            shards,
            drains: self.drains.load(Ordering::Relaxed),
            readmits: self.readmits.load(Ordering::Relaxed),
            rerouted: self.rerouted.load(Ordering::Relaxed),
            sheds: self.sheds.load(Ordering::Relaxed),
            probes: self.probes.load(Ordering::Relaxed),
            wall: self.started.elapsed(),
        }
    }

    /// The shard the router would pick with every shard healthy — the
    /// reference against which re-routes are counted.
    fn ideal_shard(&self) -> usize {
        (0..self.slots.len())
            .min_by_key(|&i| self.balance_key(i))
            .unwrap_or(0)
    }

    /// Shards in submission order: routable shards by load, then drained
    /// shards as a last resort — admission only sheds when every shard
    /// refuses.
    fn candidate_order(&self) -> Vec<usize> {
        let mut up = Vec::new();
        let mut down = Vec::new();
        for (i, slot) in self.slots.iter().enumerate() {
            if slot.up.load(Ordering::Relaxed) {
                up.push(i);
            } else {
                down.push(i);
            }
        }
        up.sort_by_key(|&i| self.balance_key(i));
        down.sort_by_key(|&i| self.balance_key(i));
        up.extend(down);
        up
    }
}

/// A running fleet: shards, health monitor and (optionally) the status
/// endpoint. Register clients with [`Self::client`], then
/// [`Self::finish`] to drain every shard and collect the
/// [`FleetReport`]. A fleet of one shard is a plain server behind a
/// pass-through router: there is nowhere to fail over to, so it runs no
/// health monitor.
pub struct Fleet {
    servers: Vec<InferenceServer>,
    shared: Arc<Shared>,
    stop: Arc<AtomicBool>,
    monitor: Option<JoinHandle<()>>,
    status: Option<StatusServer>,
    next_client: AtomicU64,
}

impl Fleet {
    /// Builds and starts every shard plus the health monitor.
    ///
    /// # Errors
    ///
    /// [`NnError::InvalidSpec`] for zero shards; propagates shard
    /// construction and endpoint bind failures.
    pub fn start(config: FleetConfig) -> Result<Self, NnError> {
        if config.shards == 0 {
            return Err(NnError::InvalidSpec {
                what: "shards 0: a fleet needs at least one shard".to_owned(),
            });
        }
        let mut servers = Vec::with_capacity(config.shards);
        for shard in 0..config.shards {
            let mut shard_config = config.base.clone();
            let fault = config.shard_faults.get(shard);
            shard_config.system.fault_plan = fault.copied().unwrap_or_else(FaultPlan::none);
            // Shard identity flows into every span the shard records and
            // into its worker thread names — the shards share one process
            // (one trace session), so this is what keeps their timelines
            // apart in one trace. A lone shard has nothing to be
            // told apart from.
            shard_config.shard = (config.shards > 1).then_some(shard as u32);
            // The fleet endpoint is the only listener: it reads every
            // shard through its collector.
            shard_config.status_addr = None;
            servers.push(InferenceServer::start(shard_config)?);
        }
        let shared = Arc::new(Shared::new(config.shards));
        // Only the endpoint and the monitor hold the shards' collectors:
        // the monitor is joined before the shards finish, so without an
        // endpoint a shard's state goes when the shard does.
        let status = config.status_addr.as_deref().map(|addr| {
            let shards = servers.iter().map(|s| Arc::clone(&s.collector)).collect();
            let view = FleetStats {
                shared: Arc::clone(&shared),
                shards,
            };
            Arc::new(view).bind(addr)
        });
        let status = status.transpose().map_err(NnError::Io)?;
        let stop = Arc::new(AtomicBool::new(false));
        let monitor = (config.shards > 1).then(|| {
            let monitor = Monitor::new(&servers, Arc::clone(&shared));
            spawn_monitor(monitor, Arc::clone(&stop))
        });
        Ok(Self {
            servers,
            shared,
            stop,
            monitor,
            status,
            next_client: AtomicU64::new(0),
        })
    }

    /// Waits up to `timeout` until every shard is routable and the
    /// health monitor has judged the fabric evidence each one shows now,
    /// so a fault the last responses hit has been drained on and, once
    /// the fabric recovers, re-admitted. Returns whether that happened in
    /// time. A fleet of one has no monitor and is always settled.
    pub fn settle(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        while !self.settled() {
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        true
    }

    fn settled(&self) -> bool {
        // Fabric count, then the judged count, then `up`: the monitor
        // writes `judged` after the drain it decided on, so a judged count
        // that covers the fabric's proves `up` is no older than that step.
        self.monitor.is_none()
            || self
                .servers
                .iter()
                .zip(&self.shared.slots)
                .all(|(server, slot)| {
                    let degraded = server.collector.fabric().degraded;
                    slot.judged.load(Ordering::Acquire) >= degraded
                        && slot.up.load(Ordering::Acquire)
                })
    }

    /// The fleet status endpoint's bound address, when configured.
    pub fn status_addr(&self) -> Option<SocketAddr> {
        self.status.as_ref().map(StatusServer::addr)
    }

    /// Resumes dispatch on every shard. Burst-mode fleets (configured
    /// with `base.start_paused`) admit submissions while dispatch is
    /// held, so admission decisions — including quota-driven failovers —
    /// are a pure function of the submission order; this releases the
    /// whole fleet at once.
    pub fn resume_all(&self) {
        for server in &self.servers {
            server.resume();
        }
    }

    /// Registers a fleet client: one connection per shard plus a stable
    /// key its trace ids are minted from.
    pub fn client(&self) -> FleetClient {
        let key = self.next_client.fetch_add(1, Ordering::Relaxed);
        FleetClient {
            key,
            handles: self.servers.iter().map(InferenceServer::client).collect(),
            shared: Arc::clone(&self.shared),
            pending: VecDeque::new(),
            submitted: 0,
            accepted: 0,
            rejected: 0,
            completed: 0,
            in_order: true,
            detections: 0,
            shards_used: BTreeSet::new(),
        }
    }

    /// Stops the monitor, drains every shard (no accepted request is
    /// dropped) and folds the fleet report.
    pub fn finish(mut self) -> FleetReport {
        self.stop.store(true, Ordering::Release);
        if let Some(handle) = self.monitor.take() {
            handle.join().expect("fleet health monitor panicked");
        }
        let shards: Vec<ServeReport> = self
            .servers
            .drain(..)
            .map(InferenceServer::finish)
            .collect();
        // Unbind only after the shards drain, so a scrape during the
        // drain still answers.
        if let Some(mut status) = self.status.take() {
            status.shutdown();
        }
        self.shared.report(shards)
    }
}

/// A fleet client: submissions are dispatched least-loaded with failover;
/// responses are collected in fleet submission order. Per-(client,
/// shard) delivery is FIFO, so collecting pending responses in the
/// order they were admitted yields exactly the submission order even
/// when consecutive requests landed on different shards.
pub struct FleetClient {
    key: u64,
    handles: Vec<ClientHandle>,
    shared: Arc<Shared>,
    /// Admitted-but-uncollected requests, fleet submission order:
    /// `(shard, expected per-shard seq)`.
    pending: VecDeque<(usize, u64)>,
    submitted: u64,
    accepted: u64,
    rejected: u64,
    completed: u64,
    in_order: bool,
    detections: u64,
    shards_used: BTreeSet<usize>,
}

impl FleetClient {
    /// Submits one frame. Candidates are tried least-loaded first; the
    /// submission sheds (an error) only when every shard refuses.
    /// Returns the fleet-level sequence number on admission.
    ///
    /// # Errors
    ///
    /// The last shard's [`AdmissionError`] when all shards reject.
    pub fn submit(&mut self, image: Image, class: SloClass) -> Result<u64, AdmissionError> {
        // One trace identity per submission, minted at the router's
        // admission edge: every shard the request touches (including the
        // shard that rejected it before a failover) stamps this id.
        let ctx = TraceContext::mint(self.key, self.submitted);
        self.submitted += 1;
        // Open the router→shard flow at the admission edge, before any
        // dispatch attempt: the journey's Dispatch stage is the gap
        // between this event and the winning shard's `serve.admit`, and
        // the scheduler closes the flow on the worker thread that
        // delivers the response.
        tincy_trace::span(static_label!("fleet.route"))
            .context(Some(ctx))
            .emit_flow_start();
        let ideal = self.shared.ideal_shard();
        let mut last_err = None;
        for (attempt, shard) in self.shared.candidate_order().into_iter().enumerate() {
            let attempt = u32::try_from(attempt).unwrap_or(u32::MAX);
            match self.handles[shard].submit_traced(image.clone(), class, ctx) {
                Ok(seq) => {
                    let fleet_seq = self.accepted;
                    self.accepted += 1;
                    self.pending.push_back((shard, seq));
                    self.shards_used.insert(shard);
                    let slot = &self.shared.slots[shard];
                    slot.load.fetch_add(1, Ordering::Relaxed);
                    slot.routed.fetch_add(1, Ordering::Relaxed);
                    if shard != ideal {
                        self.shared.rerouted.fetch_add(1, Ordering::Relaxed);
                    }
                    return Ok(fleet_seq);
                }
                Err(e) => {
                    // The failed attempt is part of the request's
                    // journey: record which shard refused it and why
                    // before trying the next candidate.
                    tincy_trace::span(static_label!("fleet.failover"))
                        .context(Some(ctx))
                        .shard(shard as u32)
                        .attempt(attempt)
                        .fault(e.tag())
                        .emit();
                    last_err = Some(e);
                }
            }
        }
        self.rejected += 1;
        self.shared.sheds.fetch_add(1, Ordering::Relaxed);
        Err(last_err.unwrap_or(AdmissionError::Draining))
    }

    fn absorb(&mut self, shard: usize, expected: u64, response: &InferResponse) {
        if response.seq != expected {
            self.in_order = false;
        }
        self.completed += 1;
        self.detections += response.detections.len() as u64;
        self.shared.slots[shard]
            .load
            .fetch_sub(1, Ordering::Relaxed);
    }

    /// Collects every response already delivered, without blocking.
    /// Returns how many were absorbed.
    pub fn pump(&mut self) -> usize {
        let mut drained = 0;
        while let Some(&(shard, expected)) = self.pending.front() {
            let Some(response) = self.handles[shard].try_recv() else {
                break;
            };
            self.pending.pop_front();
            self.absorb(shard, expected, &response);
            drained += 1;
        }
        drained
    }

    /// Collects the next pending response, blocking until its shard
    /// delivers it. `None` when nothing is pending (or the shard went
    /// away mid-drain).
    pub fn collect_next(&mut self) -> Option<InferResponse> {
        let (shard, expected) = self.pending.pop_front()?;
        let response = self.handles[shard].recv()?;
        self.absorb(shard, expected, &response);
        Some(response)
    }

    /// Blocks until every admitted request has been collected.
    pub fn collect_all(&mut self) {
        while !self.pending.is_empty() {
            if self.collect_next().is_none() {
                break;
            }
        }
    }

    /// Admitted requests not yet collected.
    pub fn outstanding(&self) -> usize {
        self.pending.len()
    }

    /// `(submitted, accepted, rejected, completed)` so far.
    pub fn counts(&self) -> (u64, u64, u64, u64) {
        (self.submitted, self.accepted, self.rejected, self.completed)
    }

    /// Whether responses arrived exactly in fleet submission order.
    pub fn in_order(&self) -> bool {
        self.in_order
    }

    /// Total detections across collected responses (a determinism
    /// fingerprint: bit-exact backends make it independent of routing).
    pub fn detections(&self) -> u64 {
        self.detections
    }

    /// Distinct shards this client's requests landed on.
    pub fn shards_used(&self) -> usize {
        self.shards_used.len()
    }
}

/// Aggregate result of a fleet run.
#[derive(Debug, Clone)]
pub struct FleetReport {
    /// Per-shard serve reports, shard order (probe canaries are included
    /// in shard counters).
    pub shards: Vec<ServeReport>,
    /// Requests routed per shard (router view; excludes probes).
    pub routed: Vec<u64>,
    /// Shards drained after their fabric degraded.
    pub drains: u64,
    /// Drained shards re-admitted after a clean probe streak.
    pub readmits: u64,
    /// Admissions that landed off the least-loaded shard of the full
    /// fleet.
    pub rerouted: u64,
    /// Submissions refused by every shard.
    pub sheds: u64,
    /// Canary probes sent to drained shards.
    pub probes: u64,
    /// Wall-clock duration of the fleet run.
    pub wall: Duration,
}

impl FleetReport {
    /// Requests admitted across the fleet (including probes).
    pub fn accepted(&self) -> u64 {
        self.shards.iter().map(|s| s.accepted).sum()
    }

    /// Requests completed across the fleet (including probes).
    pub fn completed(&self) -> u64 {
        self.shards.iter().map(|s| s.completed).sum()
    }

    /// Accepted requests that never produced a response — 0 after a
    /// clean drain, the zero-loss invariant the soak suite pins.
    pub fn lost(&self) -> u64 {
        self.accepted() - self.completed()
    }

    /// Fleet-wide end-to-end latency (all shards merged).
    pub fn latency(&self) -> DurationStats {
        let mut merged = DurationStats::new();
        for shard in &self.shards {
            merged.merge(&shard.latency);
        }
        merged
    }

    /// Fleet-wide end-to-end latency of one SLO class.
    pub fn class_latency(&self, class: SloClass) -> DurationStats {
        let mut merged = DurationStats::new();
        for shard in &self.shards {
            merged.merge(&shard.class_latency[class.index()]);
        }
        merged
    }

    /// FINN invocations, on any shard, that carried more than one request.
    pub fn batched_invocations(&self) -> u64 {
        self.shards.iter().map(|s| s.batched_invocations()).sum()
    }

    /// SLO violations across the fleet.
    pub fn slo_violations(&self) -> u64 {
        self.shards.iter().map(|s| s.slo_violations).sum()
    }

    /// Summed offload health counters across every shard's fabric.
    pub fn offload(&self) -> OffloadStats {
        self.shards.iter().map(|s| s.offload).sum()
    }

    /// Completed requests per wall-clock second.
    pub fn throughput(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs > 0.0 {
            self.completed() as f64 / secs
        } else {
            0.0
        }
    }
}

/// Per-shard health phase, tracked by the monitor thread.
enum Phase {
    Up,
    Draining,
    Drained,
}

struct Track {
    phase: Phase,
    last: OffloadStats,
    streak: u32,
}

/// The health monitor: offload-delta verdicts and canary probing of
/// drained shards.
struct Monitor {
    shared: Arc<Shared>,
    /// Each shard's own state, read by function call.
    shards: Vec<Arc<ServeCollector>>,
    probes: Vec<ClientHandle>,
    probe_image: Image,
    tracks: Vec<Track>,
}

impl Monitor {
    fn new(servers: &[InferenceServer], shared: Arc<Shared>) -> Self {
        let shards: Vec<_> = servers.iter().map(|s| Arc::clone(&s.collector)).collect();
        let tracks = shards
            .iter()
            .map(|shard| Track {
                phase: Phase::Up,
                last: shard.fabric(),
                streak: 0,
            })
            .collect();
        // One deterministic canary frame, shared by every probe.
        let probe_scene = SceneConfig {
            width: 48,
            height: 36,
            ..Default::default()
        };
        let mut camera = SyntheticCamera::with_limit(probe_scene, 0x70726f6265, 1);
        let probe_image = camera.capture().expect("probe camera yields one frame");
        Self {
            shared,
            shards,
            probes: servers.iter().map(InferenceServer::client).collect(),
            probe_image,
            tracks,
        }
    }

    fn drain(&mut self, shard: usize) {
        self.shared.slots[shard].up.store(false, Ordering::Release);
        self.shared.drains.fetch_add(1, Ordering::Relaxed);
        self.tracks[shard].phase = Phase::Draining;
    }

    fn readmit(&mut self, shard: usize) {
        let slot = &self.shared.slots[shard];
        slot.judged
            .store(self.tracks[shard].last.degraded, Ordering::Release);
        slot.up.store(true, Ordering::Release);
        self.shared.readmits.fetch_add(1, Ordering::Relaxed);
        let track = &mut self.tracks[shard];
        track.phase = Phase::Up;
        track.streak = 0;
    }

    fn step(&mut self) {
        for shard in 0..self.tracks.len() {
            match self.tracks[shard].phase {
                Phase::Up => {
                    let snap = self.shards[shard].fabric();
                    if snap.degraded > self.tracks[shard].last.degraded {
                        self.drain(shard);
                    }
                    self.tracks[shard].last = snap;
                    self.shared.slots[shard]
                        .judged
                        .store(snap.degraded, Ordering::Release);
                }
                Phase::Draining => {
                    self.tracks[shard].last = self.shards[shard].fabric();
                    if self.shared.load_of(shard) == 0 {
                        let track = &mut self.tracks[shard];
                        track.phase = Phase::Drained;
                        track.streak = 0;
                    }
                }
                Phase::Drained => self.probe(shard),
            }
        }
    }

    /// Sends one canary through the drained shard and judges recovery
    /// from the fabric counters it moved.
    fn probe(&mut self, shard: usize) {
        let fabric = || self.shards[shard].fabric();
        let before = fabric();
        if self.probes[shard]
            .submit(self.probe_image.clone(), SloClass::Standard)
            .is_err()
        {
            return;
        }
        self.shared.probes.fetch_add(1, Ordering::Relaxed);
        // Accepted work is always answered, so this blocks only as long
        // as the canary takes to complete.
        let _ = self.probes[shard].recv();
        let after = fabric();
        let track = &mut self.tracks[shard];
        if after.degraded > before.degraded {
            track.streak = 0;
        } else if after.forwards > before.forwards {
            track.streak += 1;
        }
        // Neither counter moved: a host worker stole the canary, which
        // says nothing about the fabric — leave the streak alone.
        track.last = after;
        if track.streak >= READMIT_STREAK {
            self.readmit(shard);
        }
    }
}

fn spawn_monitor(mut monitor: Monitor, stop: Arc<AtomicBool>) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name("tincy-fleet-health".to_string())
        .spawn(move || {
            while !stop.load(Ordering::Acquire) {
                monitor.step();
                let mut waited = Duration::ZERO;
                while waited < HEALTH_EVERY && !stop.load(Ordering::Acquire) {
                    let step = Duration::from_millis(2).min(HEALTH_EVERY - waited);
                    std::thread::sleep(step);
                    waited += step;
                }
            }
        })
        .expect("spawn fleet health monitor")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ServeConfig;
    use crate::request::BackendKind;
    use tincy_core::SystemConfig;

    fn small_fleet() -> FleetConfig {
        FleetConfig {
            shards: 2,
            base: ServeConfig {
                system: SystemConfig {
                    input_size: 32,
                    seed: 5,
                    ..Default::default()
                },
                cpu_workers: 1,
                max_batch: 4,
                score_threshold: 0.0,
                ..Default::default()
            },
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
    fn fleet_serves_and_drains_cleanly() {
        let fleet = Fleet::start(FleetConfig {
            status_addr: Some("127.0.0.1:0".to_string()),
            ..small_fleet()
        })
        .unwrap();
        assert_eq!(fleet.shared.up_count(), 2);
        let addr = fleet.status_addr().expect("fleet endpoint bound");
        assert!(
            fleet.servers.iter().all(|s| s.status_addr().is_none()),
            "the fleet endpoint is the only listener"
        );
        let mut client = fleet.client();
        for image in frames(6, 9) {
            client.submit(image, SloClass::Standard).unwrap();
        }
        client.collect_all();
        assert!(client.in_order());
        assert_eq!(client.counts(), (6, 6, 0, 6));
        let (_, live) = tincy_telemetry::http_get(addr, "/report").unwrap();
        let live = tincy_json::parse(&live).expect("/report is JSON");
        assert_eq!(live.get("accepted").and_then(|v| v.as_f64()), Some(6.0));
        let (_, health) = tincy_telemetry::http_get(addr, "/healthz").unwrap();
        assert!(health.contains("\"degraded\":false"), "{health}");
        assert!(health.contains("\"up\":2"), "{health}");
        let report = fleet.finish();
        assert_eq!(report.lost(), 0);
        assert_eq!(report.routed.iter().sum::<u64>(), 6);
        assert_eq!(report.sheds, 0);
    }

    #[test]
    fn least_loaded_spreads_across_shards() {
        let fleet = Fleet::start(small_fleet()).unwrap();
        let mut client = fleet.client();
        // Submit without collecting: load accumulates, so dispatch must
        // alternate between the two shards.
        for image in frames(8, 4) {
            client.submit(image, SloClass::Standard).unwrap();
        }
        assert_eq!(client.shards_used(), 2, "load balancing engaged");
        client.collect_all();
        let report = fleet.finish();
        assert_eq!(report.lost(), 0);
    }

    /// Completes `n` requests on rung 0 of `server`, served degraded,
    /// through the scheduler calls its workers make (the lock is held
    /// throughout, so no worker sees them).
    fn degraded_completions(server: &InferenceServer, n: usize) {
        let (tx, _rx) = std::sync::mpsc::channel();
        let mut state = server.collector.inner.state.lock();
        let client = state.register_client(tx);
        for image in frames(n as u64, 1) {
            state
                .submit(client, SloClass::Standard, image, None)
                .unwrap();
        }
        for request in state.lease(0, n).requests {
            state.complete(request, Vec::new(), BackendKind::Finn, n, true);
        }
    }

    /// A shard's own verdict does not drain it: the monitor drains on the
    /// fabric's counters only. Both shards run the one base config with
    /// drift on, and only shard 1 degrades: its FINN engine slows 4x after
    /// warmup (drift is each shard's own measurement), or it serves its
    /// requests degraded (SLO burn). Either way its fabric counters never
    /// move, so it stays routable while `degraded()` still names the
    /// reason for the ladder and `/healthz`.
    #[test]
    fn monitor_leaves_a_burning_or_drifting_shard_routable() {
        let slow_finn: fn(usize, &InferenceServer) = |shard, server| {
            let mut state = server.collector.inner.state.lock();
            for block in 0..5 {
                let ms = if shard == 1 && block >= 3 { 4 } else { 1 };
                for _ in 0..crate::scheduler::DRIFT_BLOCK {
                    state.record_finn_batch(0, 1, Duration::from_millis(ms), false);
                }
            }
        };
        let burning: fn(usize, &InferenceServer) = |shard, server| {
            if shard == 1 {
                degraded_completions(server, 8);
            }
        };
        for (reason, degrade) in [("calibration-drift", slow_finn), ("slo-burn", burning)] {
            let mut config = small_fleet();
            config.base.drift_threshold = Some(0.5);
            let servers: Vec<InferenceServer> = (0..2)
                .map(|_| InferenceServer::start(config.base.clone()).unwrap())
                .collect();
            for (shard, server) in servers.iter().enumerate() {
                degrade(shard, server);
            }
            let shared = Arc::new(Shared::new(2));
            let mut monitor = Monitor::new(&servers, Arc::clone(&shared));
            for _ in 0..3 {
                monitor.step();
            }
            assert!(
                shared.slots.iter().all(|s| s.up.load(Ordering::Relaxed)),
                "{reason}: both shards stay routable"
            );
            assert_eq!(shared.drains.load(Ordering::Relaxed), 0, "{reason}");
            assert_eq!(servers[1].collector.degraded(), Some(reason));
            drop(monitor);
            for server in servers {
                server.finish();
            }
        }
    }

    #[test]
    fn a_fleet_of_zero_shards_is_an_error() {
        let config = FleetConfig {
            shards: 0,
            ..small_fleet()
        };
        let err = Fleet::start(config).err().expect("zero shards refused");
        assert!(matches!(err, NnError::InvalidSpec { .. }), "{err}");
        assert!(err.to_string().contains("shards 0"), "{err}");
    }

    /// One shard has nowhere to fail over to: no monitor thread, and an
    /// outage is ridden out by the shard's own retry/fallback path.
    #[test]
    fn a_fleet_of_one_runs_no_health_monitor() {
        let mut base = small_fleet().base;
        base.system.fault_plan = FaultPlan::outage(2, 6);
        let fleet = Fleet::start(FleetConfig::single(base)).unwrap();
        assert!(fleet.monitor.is_none(), "no tincy-fleet-health thread");
        let mut client = fleet.client();
        for image in frames(8, 7) {
            client.submit(image, SloClass::Standard).unwrap();
            client.collect_all();
        }
        assert!(client.in_order());
        let report = fleet.finish();
        assert!(report.offload().faults > 0, "the outage was hit");
        assert_eq!((report.drains, report.probes, report.lost()), (0, 0, 0));
        assert_eq!(report.rerouted, 0);
    }
}
