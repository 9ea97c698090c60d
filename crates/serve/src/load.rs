//! The load driver: deterministic multi-client load against any
//! [`LoadTarget`] — one [`InferenceServer`] or a whole [`Fleet`].
//!
//! A small pool of worker threads *drives* a partition of simulated
//! clients each, so client counts scale past what a thread per client
//! allows. Every client draws frames from its own seeded
//! [`SyntheticCamera`] (seed = base seed + client id) and pacing follows
//! a pure [`arrival_schedule`], so two runs submit the same frames in the
//! same per-client order at the same virtual times; which backend or
//! shard serves a request may differ under load, but bit-exact backends
//! make the results identical either way.
//!
//! There are two loops, one per pacing kind and none per target:
//! *scheduled* (every open-loop pattern, and burst as the all-zero
//! schedule against a paused target) and *closed* (one request
//! outstanding per client, response-paced).

use crate::arrivals::{arrival_schedule, ArrivalPattern};
use crate::config::ServeConfig;
use crate::fleet::{Fleet, FleetClient, FleetConfig, FleetReport};
use crate::metrics::ServeReport;
use crate::request::{AdmissionError, SloClass};
use crate::server::{ClientHandle, InferenceServer};
use std::collections::VecDeque;
use std::sync::Barrier;
use std::time::{Duration, Instant};
use tincy_nn::NnError;
use tincy_video::{Image, SceneConfig, SyntheticCamera};

/// How long an idle closed-loop worker sleeps between polls (the ledger's
/// generator idles at the same interval): the bound on how late a response
/// is noticed, against wake-ups that compete with the target for cores.
const POLL: Duration = Duration::from_micros(500);

/// Load-driver configuration.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Simulated clients (not threads — see `workers`).
    pub clients: usize,
    /// Frames each client submits.
    pub requests_per_client: u64,
    /// Arrival pattern shared by every client (deterministic per-client
    /// phases come from the seed).
    pub pattern: ArrivalPattern,
    /// SLO classes assigned round-robin: client `i` submits under
    /// `classes[i % classes.len()]`.
    pub classes: Vec<SloClass>,
    /// Synthetic scene parameters (shared; seeds differ per client).
    pub scene: SceneConfig,
    /// Base seed for cameras and the arrival schedule.
    pub seed: u64,
    /// Driver threads the clients are partitioned across.
    pub workers: usize,
}

impl Default for LoadConfig {
    fn default() -> Self {
        Self {
            clients: 64,
            requests_per_client: 8,
            pattern: ArrivalPattern::Uniform {
                interval: Duration::from_millis(2),
            },
            classes: vec![SloClass::Interactive, SloClass::Standard, SloClass::Batch],
            scene: SceneConfig::default(),
            seed: 7,
            workers: 8,
        }
    }
}

impl LoadConfig {
    /// The SLO class client `i` submits under.
    pub fn class_of(&self, client: usize) -> SloClass {
        match self.classes.as_slice() {
            [] => SloClass::Standard,
            classes => classes[client % classes.len()],
        }
    }
}

/// Per-client outcome of a load run.
#[derive(Debug, Clone)]
pub struct ClientOutcome {
    /// Client index.
    pub client: usize,
    /// SLO class the client submitted under.
    pub class: SloClass,
    /// Submissions attempted.
    pub submitted: u64,
    /// Submissions admitted.
    pub accepted: u64,
    /// Submissions the target refused (on a fleet: by every shard).
    pub rejected: u64,
    /// Responses collected.
    pub completed: u64,
    /// Whether responses arrived exactly in submission order (on a
    /// fleet: across any re-routing).
    pub in_order: bool,
    /// Total detections across the client's responses (deterministic for
    /// a given scene/seed thanks to bit-exact backends).
    pub detections: u64,
    /// Distinct shards the client's requests landed on (1 on a server).
    pub shards_used: usize,
}

/// Aggregate result of a load run: the clients' view plus the target's
/// own report ([`ServeReport`] or [`FleetReport`]).
#[derive(Debug, Clone)]
pub struct LoadReport<R> {
    /// Per-client outcomes, client order.
    pub outcomes: Vec<ClientOutcome>,
    /// The target's own report.
    pub target: R,
}

impl<R> LoadReport<R> {
    /// Total admitted submissions.
    pub fn accepted(&self) -> u64 {
        self.outcomes.iter().map(|o| o.accepted).sum()
    }

    /// Total responses collected.
    pub fn completed(&self) -> u64 {
        self.outcomes.iter().map(|o| o.completed).sum()
    }

    /// Total refused submissions.
    pub fn rejected(&self) -> u64 {
        self.outcomes.iter().map(|o| o.rejected).sum()
    }

    /// Admitted requests that never produced a response (must be 0
    /// after a clean drain — the zero-loss invariant).
    pub fn dropped(&self) -> u64 {
        self.accepted() - self.completed()
    }

    /// Whether every client saw its responses in submission order.
    pub fn all_in_order(&self) -> bool {
        self.outcomes.iter().all(|o| o.in_order)
    }

    /// Total detections across all clients (a determinism fingerprint).
    pub fn detections(&self) -> u64 {
        self.outcomes.iter().map(|o| o.detections).sum()
    }

    /// Per-client detections, client order — the fine-grained
    /// determinism fingerprint (independent of routing and batching).
    pub fn fingerprint(&self) -> Vec<u64> {
        self.outcomes.iter().map(|o| o.detections).collect()
    }
}

/// A system the driver can load: start it, register clients, release a
/// paused start, drain it into a report.
pub trait LoadTarget: Sized {
    /// What [`Self::start`] is built from.
    type Config;
    /// One client's connection.
    type Client: LoadClient;
    /// What [`Self::finish`] returns.
    type Report;

    /// Starts the target; `paused` holds dispatch until [`Self::resume`].
    ///
    /// # Errors
    ///
    /// Propagates construction failures.
    fn start(config: Self::Config, paused: bool) -> Result<Self, NnError>;

    /// Registers a client.
    fn client(&self) -> Self::Client;

    /// Releases dispatch after a paused start.
    fn resume(&self);

    /// Drains and shuts down; no accepted request is dropped.
    fn finish(self) -> Self::Report;
}

/// One client's connection as the driver uses it.
pub trait LoadClient: Send {
    /// Submits one frame; returns the admission sequence number.
    ///
    /// # Errors
    ///
    /// [`AdmissionError`] when the target refuses the request.
    fn submit(&mut self, image: Image, class: SloClass) -> Result<u64, AdmissionError>;

    /// Collects every response already delivered, without blocking.
    /// `pending` holds the sequence numbers of the admitted requests not
    /// yet collected, oldest first; one is popped per response. Returns
    /// whether delivery is still in submission order, and the detections
    /// the collected responses carried.
    fn pump(&mut self, pending: &mut VecDeque<u64>) -> (bool, u64);

    /// Distinct shards this client's requests landed on.
    fn shards_used(&self) -> usize {
        1
    }
}

impl LoadTarget for InferenceServer {
    type Config = ServeConfig;
    type Client = ClientHandle;
    type Report = ServeReport;

    fn start(mut config: ServeConfig, paused: bool) -> Result<Self, NnError> {
        config.start_paused |= paused;
        InferenceServer::start(config)
    }

    fn client(&self) -> ClientHandle {
        InferenceServer::client(self)
    }

    fn resume(&self) {
        InferenceServer::resume(self);
    }

    fn finish(self) -> ServeReport {
        InferenceServer::finish(self)
    }
}

impl LoadClient for ClientHandle {
    fn submit(&mut self, image: Image, class: SloClass) -> Result<u64, AdmissionError> {
        ClientHandle::submit(self, image, class)
    }

    fn pump(&mut self, pending: &mut VecDeque<u64>) -> (bool, u64) {
        let (mut in_order, mut detections) = (true, 0);
        while let Some(response) = self.try_recv() {
            in_order &= pending.pop_front() == Some(response.seq);
            detections += response.detections.len() as u64;
        }
        (in_order, detections)
    }
}

impl LoadTarget for Fleet {
    type Config = FleetConfig;
    type Client = FleetClient;
    type Report = FleetReport;

    fn start(mut config: FleetConfig, paused: bool) -> Result<Self, NnError> {
        config.base.start_paused |= paused;
        Fleet::start(config)
    }

    fn client(&self) -> FleetClient {
        Fleet::client(self)
    }

    fn resume(&self) {
        self.resume_all();
    }

    fn finish(self) -> FleetReport {
        Fleet::finish(self)
    }
}

/// A fleet client checks order across shards itself (its responses carry
/// per-shard sequence numbers), so `pending` only counts here.
impl LoadClient for FleetClient {
    fn submit(&mut self, image: Image, class: SloClass) -> Result<u64, AdmissionError> {
        FleetClient::submit(self, image, class)
    }

    fn pump(&mut self, pending: &mut VecDeque<u64>) -> (bool, u64) {
        let before = self.detections();
        let collected = FleetClient::pump(self);
        pending.drain(..collected);
        (self.in_order(), self.detections() - before)
    }

    fn shards_used(&self) -> usize {
        FleetClient::shards_used(self)
    }
}

/// One driven client: its connection, camera, what it still owes and
/// the tallies so far.
struct Lane<C> {
    client: C,
    camera: SyntheticCamera,
    /// Frames not yet submitted.
    remaining: u64,
    /// Sequence numbers of admitted requests not yet collected.
    pending: VecDeque<u64>,
    outcome: ClientOutcome,
}

impl<C: LoadClient> Lane<C> {
    fn submit_next(&mut self) {
        self.remaining -= 1;
        self.outcome.submitted += 1;
        let image = self.camera.capture().expect("camera holds every frame");
        match self.client.submit(image, self.outcome.class) {
            Ok(seq) => {
                self.outcome.accepted += 1;
                self.pending.push_back(seq);
            }
            Err(_) => self.outcome.rejected += 1,
        }
    }

    /// Collects what was delivered; whether anything was.
    fn pump(&mut self) -> bool {
        let before = self.pending.len();
        let (in_order, detections) = self.client.pump(&mut self.pending);
        let collected = before - self.pending.len();
        self.outcome.completed += collected as u64;
        self.outcome.in_order &= in_order;
        self.outcome.detections += detections;
        collected > 0
    }
}

/// Replays one worker's merged schedule against the wall clock, pumping
/// delivered responses between submissions.
fn drive_scheduled<C: LoadClient>(lanes: &mut [Lane<C>], events: &[(Duration, usize)]) {
    let start = Instant::now();
    for &(at, slot) in events {
        loop {
            let now = start.elapsed();
            if now >= at {
                break;
            }
            for lane in lanes.iter_mut() {
                lane.pump();
            }
            std::thread::sleep((at - now).min(Duration::from_millis(1)));
        }
        lanes[slot].submit_next();
        lanes[slot].pump();
    }
}

/// Keeps one request outstanding per lane until every lane has submitted
/// its frames and collected the responses — which, for lanes a schedule
/// already emptied, is the final collection.
fn drive_closed<C: LoadClient>(lanes: &mut [Lane<C>]) {
    loop {
        let mut live = false;
        let mut progressed = false;
        for lane in lanes.iter_mut() {
            progressed |= lane.pump();
            if lane.pending.is_empty() && lane.remaining > 0 {
                lane.submit_next();
                progressed = true;
            }
            live |= !lane.pending.is_empty() || lane.remaining > 0;
        }
        if !live {
            return;
        }
        if !progressed {
            std::thread::sleep(POLL);
        }
    }
}

/// Runs a full load session against a freshly started target and returns
/// the combined report. `observe` is called on the still-running target
/// after every client has collected its responses and before the drain —
/// the point where live telemetry must agree with the final report
/// (`--scrape` hits the status endpoint from it).
///
/// # Errors
///
/// Propagates target construction failures.
pub fn run_load<T: LoadTarget>(
    config: T::Config,
    load: &LoadConfig,
    observe: impl FnOnce(&T),
) -> Result<LoadReport<T::Report>, NnError> {
    let burst = load.pattern == ArrivalPattern::Burst;
    let target = T::start(config, burst)?;
    let schedule = arrival_schedule(
        &load.pattern,
        load.clients,
        load.requests_per_client,
        load.seed,
    );
    // Clients are registered in index order on this thread, so client
    // ids and routing keys do not depend on worker interleaving; lanes
    // are partitioned by index modulo the worker count.
    let workers = load.workers.clamp(1, load.clients.max(1));
    let mut partitions: Vec<Vec<Lane<T::Client>>> = (0..workers).map(|_| Vec::new()).collect();
    for client in 0..load.clients {
        partitions[client % workers].push(Lane {
            client: target.client(),
            camera: SyntheticCamera::with_limit(
                load.scene.clone(),
                load.seed + client as u64,
                load.requests_per_client,
            ),
            remaining: load.requests_per_client,
            pending: VecDeque::new(),
            outcome: ClientOutcome {
                client,
                class: load.class_of(client),
                submitted: 0,
                accepted: 0,
                rejected: 0,
                completed: 0,
                in_order: true,
                detections: 0,
                shards_used: 0,
            },
        });
    }
    // Start line for every worker; in burst mode also the line between
    // the last submission and the resume.
    let barrier = Barrier::new(workers + 1);

    let mut outcomes: Vec<ClientOutcome> = Vec::with_capacity(load.clients);
    std::thread::scope(|scope| {
        let joins: Vec<_> = partitions
            .into_iter()
            .map(|mut lanes| {
                let (barrier, schedule) = (&barrier, &schedule);
                scope.spawn(move || {
                    let mut events: Vec<(Duration, usize)> = Vec::new();
                    for (slot, lane) in lanes.iter().enumerate() {
                        let row = &schedule[lane.outcome.client];
                        events.extend(row.iter().map(|&at| (at, slot)));
                    }
                    events.sort();
                    barrier.wait();
                    drive_scheduled(&mut lanes, &events);
                    if burst {
                        barrier.wait();
                    }
                    drive_closed(&mut lanes);
                    let outcome = |lane: Lane<T::Client>| ClientOutcome {
                        shards_used: lane.client.shards_used(),
                        ..lane.outcome
                    };
                    lanes.into_iter().map(outcome).collect::<Vec<_>>()
                })
            })
            .collect();
        barrier.wait();
        if burst {
            barrier.wait();
            target.resume();
        }
        for join in joins {
            outcomes.extend(join.join().expect("load worker panicked"));
        }
    });
    outcomes.sort_by_key(|o| o.client);
    observe(&target);
    Ok(LoadReport {
        outcomes,
        target: target.finish(),
    })
}
