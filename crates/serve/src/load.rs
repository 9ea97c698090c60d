//! The load driver: deterministic multi-client load against a [`Fleet`]
//! — of one shard for a single server.
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
//! There are two loops, one per pacing kind: *scheduled* (every
//! open-loop pattern, and burst as the all-zero schedule against a paused
//! fleet) and *closed* (one request outstanding per client,
//! response-paced).

use crate::arrivals::{arrival_schedule, ArrivalPattern};
use crate::fleet::{Fleet, FleetClient, FleetConfig, FleetReport};
use crate::request::SloClass;
use std::sync::Barrier;
use std::time::{Duration, Instant};
use tincy_nn::NnError;
use tincy_video::{SceneConfig, SyntheticCamera};

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
            scene: SceneConfig::default(),
            seed: 7,
            workers: 8,
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
    /// Submissions every shard refused.
    pub rejected: u64,
    /// Responses collected.
    pub completed: u64,
    /// Whether responses arrived exactly in submission order, across
    /// any re-routing.
    pub in_order: bool,
    /// Total detections across the client's responses (deterministic for
    /// a given scene/seed thanks to bit-exact backends).
    pub detections: u64,
    /// Distinct shards the client's requests landed on.
    pub shards_used: usize,
}

/// Aggregate result of a load run: the clients' view plus the fleet's
/// own report.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Per-client outcomes, client order.
    pub outcomes: Vec<ClientOutcome>,
    /// The fleet's own report; `target.shards[0]` is the server's when
    /// the fleet is one shard.
    pub target: FleetReport,
}

impl LoadReport {
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

/// One driven client: its connection (which keeps the tallies), its
/// camera and what it still owes.
struct Lane {
    index: usize,
    class: SloClass,
    client: FleetClient,
    camera: SyntheticCamera,
    /// Frames not yet submitted.
    remaining: u64,
}

impl Lane {
    fn submit_next(&mut self) {
        self.remaining -= 1;
        let image = self.camera.capture().expect("camera holds every frame");
        // A refusal is tallied by the client; the frame is not retried.
        let _ = self.client.submit(image, self.class);
    }

    fn outcome(self) -> ClientOutcome {
        let (submitted, accepted, rejected, completed) = self.client.counts();
        ClientOutcome {
            client: self.index,
            class: self.class,
            submitted,
            accepted,
            rejected,
            completed,
            in_order: self.client.in_order(),
            detections: self.client.detections(),
            shards_used: self.client.shards_used(),
        }
    }
}

/// Replays one worker's merged schedule against the wall clock, pumping
/// delivered responses between submissions.
fn drive_scheduled(lanes: &mut [Lane], events: &[(Duration, usize)]) {
    let start = Instant::now();
    for &(at, slot) in events {
        loop {
            let now = start.elapsed();
            if now >= at {
                break;
            }
            for lane in lanes.iter_mut() {
                lane.client.pump();
            }
            std::thread::sleep((at - now).min(Duration::from_millis(1)));
        }
        lanes[slot].submit_next();
        lanes[slot].client.pump();
    }
}

/// Keeps one request outstanding per lane until every lane has submitted
/// its frames and collected the responses — which, for lanes a schedule
/// already emptied, is the final collection.
fn drive_closed(lanes: &mut [Lane]) {
    loop {
        let mut live = false;
        let mut progressed = false;
        for lane in lanes.iter_mut() {
            progressed |= lane.client.pump() > 0;
            if lane.client.outstanding() == 0 && lane.remaining > 0 {
                lane.submit_next();
                progressed = true;
            }
            live |= lane.client.outstanding() > 0 || lane.remaining > 0;
        }
        if !live {
            return;
        }
        if !progressed {
            std::thread::sleep(POLL);
        }
    }
}

/// Runs a full load session against a freshly started fleet and returns
/// the combined report. `observe` is called on the still-running fleet
/// after every client has collected its responses and before the drain —
/// the point where live telemetry must agree with the final report
/// (`--smoke` scrapes the status endpoint from it).
///
/// # Errors
///
/// Propagates fleet construction failures.
pub fn run_load(
    mut config: FleetConfig,
    load: &LoadConfig,
    observe: impl FnOnce(&Fleet),
) -> Result<LoadReport, NnError> {
    let burst = load.pattern == ArrivalPattern::Burst;
    config.base.start_paused |= burst;
    let fleet = Fleet::start(config)?;
    let schedule = arrival_schedule(
        &load.pattern,
        load.clients,
        load.requests_per_client,
        load.seed,
    );
    // Clients are registered in index order on this thread, so routing
    // keys do not depend on worker interleaving; lanes are partitioned by
    // index modulo the worker count.
    let workers = load.workers.clamp(1, load.clients.max(1));
    let mut partitions: Vec<Vec<Lane>> = (0..workers).map(|_| Vec::new()).collect();
    for index in 0..load.clients {
        partitions[index % workers].push(Lane {
            index,
            // Clients cycle Interactive, Standard, Batch.
            class: SloClass::ALL[index % SloClass::ALL.len()],
            client: fleet.client(),
            camera: SyntheticCamera::with_limit(
                load.scene.clone(),
                load.seed + index as u64,
                load.requests_per_client,
            ),
            remaining: load.requests_per_client,
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
                        let row = &schedule[lane.index];
                        events.extend(row.iter().map(|&at| (at, slot)));
                    }
                    events.sort();
                    barrier.wait();
                    drive_scheduled(&mut lanes, &events);
                    if burst {
                        barrier.wait();
                    }
                    drive_closed(&mut lanes);
                    lanes.into_iter().map(Lane::outcome).collect::<Vec<_>>()
                })
            })
            .collect();
        barrier.wait();
        if burst {
            barrier.wait();
            fleet.resume_all();
        }
        for join in joins {
            outcomes.extend(join.join().expect("load worker panicked"));
        }
    });
    outcomes.sort_by_key(|o| o.client);
    observe(&fleet);
    Ok(LoadReport {
        outcomes,
        target: fleet.finish(),
    })
}
