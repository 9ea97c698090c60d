//! The five workloads and the single-threaded load generator that drives
//! them through the system's public functions.
//!
//! One generator thread multiplexes every client with non-blocking
//! receives, so on a 2-core box the generator costs next to nothing and
//! the system under test keeps the cores. All frames are pre-rendered and
//! their reference detections pre-computed ([`Pool`]).

use crate::fixture::{
    self, Pool, CLOSED_CLIENTS, OPEN_CLIENTS, OPEN_RATE_PER_S, SERVE_INPUT, SLO_TARGETS,
};
use crate::procfs;
use crate::schedule::{self, Arrival};
use crate::spans::{Recorder, SpanId};
use std::collections::VecDeque;
use std::time::{Duration, Instant};
use tincy_core::{run_demo, DemoReport};
use tincy_finn::FaultPlan;
use tincy_serve::{
    AdmissionError, ClientHandle, Fleet, FleetClient, FleetReport, InferenceServer, ServeEngine,
    ServeReport, SloClass,
};
use tincy_video::{Image, SceneConfig, SyntheticCamera};

/// How often the generator looks for responses while it has nothing to
/// send. Bounds the measurement error on every latency sample.
const POLL: Duration = Duration::from_micros(500);
/// How long the generator waits for outstanding responses after the last
/// submission before it calls them lost.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(30);
/// Every `DEMO_CHECK_STRIDE`-th demo frame is recomputed on the host
/// reference path (recomputing all of them would double the run).
const DEMO_CHECK_STRIDE: usize = 8;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    DemoStream,
    ServeSteady,
    ServeSaturate,
    ServeOutage,
    FleetFault,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::DemoStream,
        Workload::ServeSteady,
        Workload::ServeSaturate,
        Workload::ServeOutage,
        Workload::FleetFault,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::DemoStream => "demo_stream",
            Workload::ServeSteady => "serve_steady",
            Workload::ServeSaturate => "serve_saturate",
            Workload::ServeOutage => "serve_outage",
            Workload::FleetFault => "fleet_fault",
        }
    }

    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Network input size the workload runs at.
    pub fn input_size(self) -> usize {
        match self {
            Workload::DemoStream => fixture::DEMO_INPUT,
            _ => SERVE_INPUT,
        }
    }

    /// The fault plan of the (first) server: a full outage for
    /// `serve_outage`, none otherwise.
    fn server_fault(self) -> FaultPlan {
        match self {
            Workload::ServeOutage => FaultPlan::outage(0, u64::MAX),
            _ => FaultPlan::none(),
        }
    }
}

/// The outage of shard 1 in `fleet_fault`, in accelerator invocations
/// (the unit fault plans are written in). A healthy shard at half the
/// open-loop rate makes about 22 invocations a second; an outage burns
/// three invocations per faulted call or canary, and a drained shard is
/// probed about 60 times a second on a quiet host (a tenth of that on a
/// crowded one). Sized so the drain happens about a fifth into the run
/// and the re-admit a second later, well before 60% of the run even when
/// the probes crawl.
pub fn fleet_outage(seconds: f64) -> FaultPlan {
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let (start, length) = (
        (seconds * 5.0).round() as u64,
        (seconds * 9.0).round() as u64,
    );
    FaultPlan::outage(start.max(2), length.max(9))
}

/// What the system itself reported at the end of a run.
pub enum Detail {
    Serve(Box<ServeReport>),
    Fleet(FleetReport),
    Demo(DemoReport),
}

/// Outcome of one timed run.
pub struct Live {
    /// Requests the generator meant to send (or frames streamed).
    pub attempted: u64,
    /// Delivered, in order, with the reference detections.
    pub ok: u64,
    pub rejected: u64,
    pub lost: u64,
    /// Out of order or detections differing from the reference.
    pub wrong: u64,
    /// Requests whose due-to-delivery time exceeded their class target;
    /// every rejected, lost or wrong request is a miss too.
    pub slo_missed: u64,
    /// Start of the window to the last delivery.
    pub window: Duration,
    /// Process CPU time over the window, user + system.
    pub cpu: Duration,
    /// The system (kernel) part of it.
    pub cpu_system: Duration,
    /// One sample per delivered request.
    pub latency: Vec<Sample>,
    /// How late the generator issued each open-loop request.
    pub late_ms: Vec<f64>,
    /// Threads the generator used (always 1; asserted).
    pub generator_threads: u64,
    pub detail: Detail,
    /// Violations found by the correctness checks.
    pub violations: Vec<String>,
    /// Doubts about the measurement that depend on the host's timing;
    /// printed, never failing the run.
    pub warnings: Vec<String>,
}

/// The latency of one delivered request.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub class: SloClass,
    pub ms: f64,
}

impl Live {
    pub fn failed(&self) -> u64 {
        self.attempted - self.ok
    }
}

/// A request in flight.
struct Pending {
    id: u64,
    /// Latency is taken from here: the scheduled due time in an open
    /// loop (never the actual submit call), the submit call in a closed one.
    from: Instant,
    submitted: Instant,
    image: usize,
    class: SloClass,
    /// Sequence number the system returned at admission.
    seq: u64,
    request: SpanId,
}

/// The clients of one system under test, multiplexed by the generator.
trait Lanes {
    fn clients(&self) -> usize;

    /// Submits; returns the admission sequence number.
    fn submit(
        &mut self,
        client: usize,
        image: Image,
        class: SloClass,
    ) -> Result<u64, AdmissionError>;

    /// Takes every response `client` has been delivered, without
    /// blocking, and reports each with whether it was right.
    fn poll(
        &mut self,
        client: usize,
        pending: &mut VecDeque<Pending>,
        pool: &Pool,
        deliver: &mut dyn FnMut(Pending, bool),
    );
}

struct ServerLanes(Vec<ClientHandle>);

impl Lanes for ServerLanes {
    fn clients(&self) -> usize {
        self.0.len()
    }

    fn submit(
        &mut self,
        client: usize,
        image: Image,
        class: SloClass,
    ) -> Result<u64, AdmissionError> {
        self.0[client].submit(image, class)
    }

    fn poll(
        &mut self,
        client: usize,
        pending: &mut VecDeque<Pending>,
        pool: &Pool,
        deliver: &mut dyn FnMut(Pending, bool),
    ) {
        while let Some(response) = self.0[client].try_recv() {
            let Some(request) = pending.pop_front() else {
                // A response nobody asked for: conservation is broken.
                panic!("client {client} received an unrequested response");
            };
            let right = response.seq == request.seq
                && response.class == request.class
                && response.detections == pool.reference[request.image];
            deliver(request, right);
        }
    }
}

struct FleetLanes(Vec<FleetClient>);

impl Lanes for FleetLanes {
    fn clients(&self) -> usize {
        self.0.len()
    }

    fn submit(
        &mut self,
        client: usize,
        image: Image,
        class: SloClass,
    ) -> Result<u64, AdmissionError> {
        self.0[client].submit(image, class)
    }

    /// `FleetClient::pump` keeps the responses to itself and exposes only
    /// a running detection count, so the check is per pumped group: the
    /// count must grow by exactly the group's reference detections (and
    /// `in_order()` is checked when the run ends).
    fn poll(
        &mut self,
        client: usize,
        pending: &mut VecDeque<Pending>,
        pool: &Pool,
        deliver: &mut dyn FnMut(Pending, bool),
    ) {
        let lane = &mut self.0[client];
        let before = lane.detections();
        let pumped = lane.pump();
        if pumped == 0 {
            return;
        }
        let group: Vec<Pending> = pending.drain(..pumped).collect();
        let expected: u64 = group
            .iter()
            .map(|p| pool.reference[p.image].len() as u64)
            .sum();
        let right = lane.detections() - before == expected && lane.in_order();
        for request in group {
            deliver(request, right);
        }
    }
}

/// Running totals of the generator.
#[derive(Default)]
struct Tally {
    attempted: u64,
    ok: u64,
    rejected: u64,
    wrong: u64,
    slo_missed: u64,
    latency: Vec<Sample>,
    late_ms: Vec<f64>,
    last_delivery: Option<Instant>,
}

impl Tally {
    fn delivered(&mut self, request: &Pending, right: bool, at: Instant) {
        let latency = at.saturating_duration_since(request.from);
        self.latency.push(Sample {
            class: request.class,
            ms: latency.as_secs_f64() * 1e3,
        });
        if right {
            self.ok += 1;
        } else {
            self.wrong += 1;
        }
        if !right || latency > SLO_TARGETS[request.class.index()] {
            self.slo_missed += 1;
        }
        self.last_delivery = Some(at);
    }
}

/// The generator: submissions, the polling sweep and the final drain.
struct Generator<'a> {
    lanes: &'a mut dyn Lanes,
    pool: &'a Pool,
    rec: &'a mut Recorder,
    pending: Vec<VecDeque<Pending>>,
    tally: Tally,
}

impl<'a> Generator<'a> {
    fn new(lanes: &'a mut dyn Lanes, pool: &'a Pool, rec: &'a mut Recorder) -> Self {
        let pending = (0..lanes.clients()).map(|_| VecDeque::new()).collect();
        Self {
            lanes,
            pool,
            rec,
            pending,
            tally: Tally::default(),
        }
    }

    /// Sends one request. `from` is where its latency is counted from.
    fn submit(&mut self, client: usize, image: usize, from: Instant) {
        let id = self.tally.attempted;
        self.tally.attempted += 1;
        let class = schedule::class_of(client);
        let frame = self.pool.images[image].clone();
        let request = self.rec.open("request", id, None, from);
        let t0 = Instant::now();
        let admitted = self.lanes.submit(client, frame, class);
        let t1 = Instant::now();
        self.rec.complete("submit", id, Some(request), t0, t1);
        match admitted {
            Ok(seq) => self.pending[client].push_back(Pending {
                id,
                from,
                submitted: t1,
                image,
                class,
                seq,
                request,
            }),
            Err(_) => {
                self.tally.rejected += 1;
                self.tally.slo_missed += 1;
                self.rec.close(request, t1);
            }
        }
    }

    /// Takes every delivered response; returns the clients that got one.
    fn sweep(&mut self) -> Vec<usize> {
        let t0 = Instant::now();
        let mut served = Vec::new();
        for client in 0..self.pending.len() {
            if self.pending[client].is_empty() {
                continue;
            }
            let (tally, rec) = (&mut self.tally, &mut *self.rec);
            let mut got = false;
            self.lanes.poll(
                client,
                &mut self.pending[client],
                self.pool,
                &mut |request, right| {
                    let at = Instant::now();
                    tally.delivered(&request, right, at);
                    rec.complete(
                        "wait",
                        request.id,
                        Some(request.request),
                        request.submitted,
                        at,
                    );
                    rec.close(request.request, at);
                    got = true;
                },
            );
            if got {
                served.push(client);
            }
        }
        if !served.is_empty() {
            self.rec.complete("poll", 0, None, t0, Instant::now());
        }
        served
    }

    fn outstanding(&self) -> usize {
        self.pending.iter().map(VecDeque::len).sum()
    }

    /// Waits for what is still in flight; returns the number never
    /// delivered.
    fn drain(&mut self) -> u64 {
        let deadline = Instant::now() + DRAIN_TIMEOUT;
        while self.outstanding() > 0 && Instant::now() < deadline {
            if self.sweep().is_empty() {
                std::thread::sleep(POLL);
            }
        }
        self.outstanding() as u64
    }

    /// Open loop: every arrival is sent when it is due whatever the
    /// system is doing, and timed from its due time.
    fn open(&mut self, arrivals: &[Arrival]) -> Instant {
        let start = Instant::now();
        for arrival in arrivals {
            let due = start + arrival.due;
            loop {
                self.sweep();
                let now = Instant::now();
                if now >= due {
                    break;
                }
                std::thread::sleep((due - now).min(POLL));
            }
            let late = Instant::now().saturating_duration_since(due);
            self.tally.late_ms.push(late.as_secs_f64() * 1e3);
            self.submit(arrival.client, arrival.image, due);
        }
        start
    }

    /// Closed loop: every client keeps exactly one request outstanding
    /// for `window`, timed from its submit call.
    fn closed(&mut self, seed: u64, window: Duration) -> Instant {
        let pool = self.pool.images.len();
        let mut walks: Vec<_> = (0..self.pending.len())
            .map(|client| schedule::closed_walk(seed, client, pool))
            .collect();
        let start = Instant::now();
        for (client, walk) in walks.iter_mut().enumerate() {
            self.submit(client, walk(), Instant::now());
        }
        while start.elapsed() < window {
            let served = self.sweep();
            if served.is_empty() {
                std::thread::sleep(POLL);
            }
            for client in served {
                if self.pending[client].is_empty() {
                    self.submit(client, walks[client](), Instant::now());
                }
            }
        }
        start
    }
}

/// Options of one timed run.
#[derive(Debug, Clone, Copy)]
pub struct RunSpec {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
}

/// Frames a serve/fleet workload needs pre-rendered.
pub fn build_pool(workload: Workload, seed: u64) -> Pool {
    let system = fixture::system(workload.input_size(), FaultPlan::none());
    Pool::build(seed, fixture::POOL_FRAMES, &system)
}

/// Runs one workload once. `rec` decides whether spans are recorded.
pub fn run(spec: RunSpec, pool: &Pool, rec: &mut Recorder) -> Live {
    match spec.workload {
        Workload::DemoStream => run_demo_stream(spec, rec),
        Workload::FleetFault => run_fleet(spec, pool, rec),
        _ => run_server(spec, pool, rec),
    }
}

fn window_of(seconds: f64) -> Duration {
    Duration::from_secs_f64(seconds)
}

/// The open-loop schedule of a run: the same for every open-loop workload
/// with one seed, so `serve_outage` and `fleet_fault` see exactly
/// `serve_steady`'s traffic.
fn open_arrivals(spec: RunSpec, pool: &Pool) -> Vec<Arrival> {
    schedule::poisson(
        spec.seed,
        OPEN_RATE_PER_S,
        window_of(spec.seconds),
        OPEN_CLIENTS,
        pool.images.len(),
    )
}

fn finish_live(
    generator: Generator<'_>,
    start: Instant,
    cpu_before: (Duration, Duration),
    lost: u64,
    threads_before: u64,
    detail: Detail,
    mut violations: Vec<String>,
) -> Live {
    let (user, system) = procfs::cpu_times();
    let tally = generator.tally;
    let window = tally
        .last_delivery
        .map_or(Duration::ZERO, |at| at.saturating_duration_since(start));
    if tally.rejected > 0 {
        violations.push(format!("{} requests rejected", tally.rejected));
    }
    if lost > 0 {
        violations.push(format!("{lost} accepted requests never delivered"));
    }
    if tally.wrong > 0 {
        violations.push(format!(
            "{} responses out of order or differing from the host reference",
            tally.wrong
        ));
    }
    Live {
        attempted: tally.attempted,
        ok: tally.ok,
        rejected: tally.rejected,
        lost,
        wrong: tally.wrong,
        slo_missed: tally.slo_missed + lost,
        window,
        cpu: (user + system).saturating_sub(cpu_before.0 + cpu_before.1),
        cpu_system: system.saturating_sub(cpu_before.1),
        latency: tally.latency,
        late_ms: tally.late_ms,
        generator_threads: threads_before,
        detail,
        violations,
        warnings: Vec::new(),
    }
}

fn run_server(spec: RunSpec, pool: &Pool, rec: &mut Recorder) -> Live {
    let config = fixture::serve_config(spec.workload.server_fault());
    let closed = spec.workload == Workload::ServeSaturate;
    let clients = if closed { CLOSED_CLIENTS } else { OPEN_CLIENTS };
    let generator_threads = procfs::settled_threads();

    let span = rec.enter("start", 0);
    let server = InferenceServer::start(config).expect("server starts");
    rec.exit(span);
    let mut lanes = ServerLanes((0..clients).map(|_| server.client()).collect());

    let cpu_before = procfs::cpu_times();
    let mut generator = Generator::new(&mut lanes, pool, rec);
    let start = if closed {
        generator.closed(spec.seed, window_of(spec.seconds))
    } else {
        generator.open(&open_arrivals(spec, pool))
    };
    let lost = generator.drain();
    let span = generator.rec.enter("finish", 0);
    let report = server.finish();
    generator.rec.exit(span);

    let mut violations = Vec::new();
    if report.accepted != report.completed {
        violations.push(format!(
            "server accepted {} but completed {}",
            report.accepted, report.completed
        ));
    }
    if spec.workload == Workload::ServeOutage {
        // DmaTimeout faults return before the simulator computes: every
        // FINN-thread item must have been a retry-then-fallback.
        if report.offload.fallbacks != report.finn_items {
            violations.push(format!(
                "outage: {} fallbacks for {} FINN-thread items",
                report.offload.fallbacks, report.finn_items
            ));
        }
    } else if report.offload.faults != 0 {
        violations.push(format!("healthy run saw {} faults", report.offload.faults));
    }
    finish_live(
        generator,
        start,
        cpu_before,
        lost,
        generator_threads,
        Detail::Serve(Box::new(report)),
        violations,
    )
}

fn run_fleet(spec: RunSpec, pool: &Pool, rec: &mut Recorder) -> Live {
    let config = fixture::fleet_config(fleet_outage(spec.seconds));
    let generator_threads = procfs::settled_threads();

    let span = rec.enter("start", 0);
    let fleet = Fleet::start(config).expect("fleet starts");
    rec.exit(span);
    let mut lanes = FleetLanes((0..OPEN_CLIENTS).map(|_| fleet.client()).collect());

    let cpu_before = procfs::cpu_times();
    let mut generator = Generator::new(&mut lanes, pool, rec);
    let start = generator.open(&open_arrivals(spec, pool));
    let lost = generator.drain();
    let span = generator.rec.enter("finish", 0);
    let report = fleet.finish();
    generator.rec.exit(span);

    let mut violations = Vec::new();
    if report.lost() != 0 {
        violations.push(format!("fleet lost {} accepted requests", report.lost()));
    }
    if report.sheds != 0 {
        violations.push(format!("fleet shed {} submissions", report.sheds));
    }
    // Whether the drain and the re-admit land inside the window depends on
    // how fast the host lets the monitor probe, not on the program being
    // right: a shortfall is a warning, and `fleet.drains` / `fleet.readmits`
    // report the counts.
    let mut warnings = Vec::new();
    if report.drains < 1 || report.readmits < 1 {
        warnings.push(format!(
            "fleet_fault expects >=1 drain and >=1 re-admit, saw {} and {}",
            report.drains, report.readmits
        ));
    }
    let mut live = finish_live(
        generator,
        start,
        cpu_before,
        lost,
        generator_threads,
        Detail::Fleet(report),
        violations,
    );
    live.warnings = warnings;
    for (client, lane) in lanes.0.iter().enumerate() {
        let (submitted, accepted, rejected, completed) = lane.counts();
        if !lane.in_order() || accepted != completed || submitted != accepted + rejected {
            live.violations.push(format!(
                "fleet client {client}: in_order={} counts={:?}",
                lane.in_order(),
                lane.counts()
            ));
        }
    }
    live
}

/// Detections of every `DEMO_CHECK_STRIDE`-th frame of the demo's stream,
/// recomputed sequentially on the host reference path.
fn demo_reference(config: &tincy_core::DemoConfig) -> Vec<(usize, Vec<tincy_eval::Detection>)> {
    let mut camera =
        SyntheticCamera::with_limit(config.scene.clone(), config.system.seed, config.frames);
    let mut host =
        ServeEngine::cpu(&config.system, config.score_threshold).expect("reference engine builds");
    let mut reference = Vec::new();
    let mut index = 0usize;
    while let Some(image) = camera.capture() {
        if index.is_multiple_of(DEMO_CHECK_STRIDE) {
            reference.push((
                index,
                host.process_host(&image).expect("reference path runs"),
            ));
        }
        index += 1;
    }
    reference
}

fn run_demo_stream(spec: RunSpec, rec: &mut Recorder) -> Live {
    let frames = fixture::demo_frames(spec.seconds);
    let config = fixture::demo_config(spec.seed, frames, spec.workload.input_size());
    debug_assert_eq!(config.scene, SceneConfig::default());
    let generator_threads = procfs::settled_threads();

    let cpu_before = procfs::cpu_times();
    let span = rec.enter("run_demo", 0);
    let report = run_demo(&config).expect("demo runs");
    rec.exit(span);
    let (user, system) = procfs::cpu_times();
    let cpu = (user + system).saturating_sub(cpu_before.0 + cpu_before.1);
    let cpu_system = system.saturating_sub(cpu_before.1);

    let mut violations = Vec::new();
    if !report.metrics.in_order {
        violations.push("demo frames reached the sink out of order".to_string());
    }
    if report.metrics.frames != frames || report.frame_detections.len() as u64 != frames {
        violations.push(format!(
            "demo delivered {} frames ({} detection lists) of {frames}",
            report.metrics.frames,
            report.frame_detections.len()
        ));
    }
    if report.offload.faults != 0 {
        violations.push(format!("healthy demo saw {} faults", report.offload.faults));
    }
    let mut wrong = 0u64;
    for (index, expected) in demo_reference(&config) {
        if report.frame_detections.get(index) != Some(&expected) {
            wrong += 1;
        }
    }
    if wrong > 0 {
        violations.push(format!(
            "{wrong} sampled demo frames differ from the sequential host reference"
        ));
    }
    let delivered = report.metrics.frames.min(frames);
    Live {
        attempted: frames,
        ok: delivered.saturating_sub(wrong),
        rejected: 0,
        lost: frames - delivered,
        wrong,
        slo_missed: 0,
        window: report.metrics.elapsed,
        cpu,
        cpu_system,
        latency: Vec::new(),
        late_ms: Vec::new(),
        generator_threads,
        detail: Detail::Demo(report),
        violations,
        warnings: Vec::new(),
    }
}

/// One timed set-up, and the tear-down that followed it.
#[derive(Debug, Clone, Copy)]
pub struct Setup {
    pub start: Duration,
    pub finish: Duration,
}

/// Times the workload's set-up once: everything between process start
/// and the first frame or request, except the generator's own
/// pre-rendering. Tears the system down again (timed separately).
pub fn measure_setup(workload: Workload, seed: u64) -> Setup {
    let t0 = Instant::now();
    match workload {
        Workload::DemoStream => {
            // What `run_demo` does before it streams its first frame.
            let config = fixture::demo_config(seed, 1, workload.input_size());
            let net = tincy_core::build_offloaded_network(&config.system).expect("network builds");
            let mut layers = net.into_layers();
            let health = tincy_core::arm_offload_resilience(&mut layers, &config.system);
            let start = t0.elapsed();
            assert!(health.is_some(), "the demo network has an offload layer");
            let t1 = Instant::now();
            drop(layers);
            Setup {
                start,
                finish: t1.elapsed(),
            }
        }
        Workload::FleetFault => {
            let fleet =
                Fleet::start(fixture::fleet_config(FaultPlan::none())).expect("fleet starts");
            let clients: Vec<FleetClient> = (0..OPEN_CLIENTS).map(|_| fleet.client()).collect();
            let start = t0.elapsed();
            let t1 = Instant::now();
            drop(clients);
            fleet.finish();
            Setup {
                start,
                finish: t1.elapsed(),
            }
        }
        _ => {
            let clients = if workload == Workload::ServeSaturate {
                CLOSED_CLIENTS
            } else {
                OPEN_CLIENTS
            };
            let server = InferenceServer::start(fixture::serve_config(workload.server_fault()))
                .expect("server starts");
            let handles: Vec<ClientHandle> = (0..clients).map(|_| server.client()).collect();
            let start = t0.elapsed();
            let t1 = Instant::now();
            drop(handles);
            server.finish();
            Setup {
                start,
                finish: t1.elapsed(),
            }
        }
    }
}
