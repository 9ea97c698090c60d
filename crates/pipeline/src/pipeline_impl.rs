//! The most-mature-job scheduler and worker pool.

use crate::metrics::{PipelineMetrics, StageStats};
use crate::slot::Slot;
use crate::stage::Stage;
use parking_lot::{Condvar, Mutex};
use std::time::{Duration, Instant};
use tincy_trace::{static_label, Label};

/// A frame travelling through the pipeline with its source sequence number.
struct Env<T> {
    seq: u64,
    frame: T,
}

/// Everything guarded by the pipeline lock.
struct Shared<T> {
    /// `slots[i]` is the output buffer of task `i` (source = task 0,
    /// stage `k` = task `k+1`); the sink consumes the last slot.
    slots: Vec<Slot<Env<T>>>,
    /// Task executors, taken out while a worker runs them (exclusivity).
    source: Option<Box<dyn FnMut() -> Option<T> + Send>>,
    stages: Vec<Option<Box<dyn Stage<T>>>>,
    sink: Option<Box<dyn FnMut(T) + Send>>,
    source_done: bool,
    /// Set when any task panicked: all workers drain out so the panic can
    /// propagate instead of deadlocking the pool.
    panicked: bool,
    next_seq: u64,
    delivered: u64,
    last_seq: Option<u64>,
    in_order: bool,
    stats: Vec<StageStats>,
    /// Interned trace labels, parallel to `stats` (task order).
    labels: Vec<Label>,
}

impl<T> Shared<T> {
    fn num_stages(&self) -> usize {
        self.stages.len()
    }

    /// The most mature ready task, if any. Task indices: `0` = source,
    /// `1..=n` = stages, `n+1` = sink. "Most mature" = highest index —
    /// the frame that is furthest along advances first.
    fn pick_job(&self) -> Option<usize> {
        let n = self.num_stages();
        // Sink: its input must be available; the sink itself is "always
        // free" but must not run twice concurrently.
        if self.sink.is_some() && self.slots[n].is_avail() {
            return Some(n + 1);
        }
        for i in (1..=n).rev() {
            if self.stages[i - 1].is_some()
                && self.slots[i - 1].is_avail()
                && self.slots[i].is_free()
            {
                return Some(i);
            }
        }
        if self.source.is_some() && !self.source_done && self.slots[0].is_free() {
            return Some(0);
        }
        None
    }

    /// Producer finish: fills output slot `slot` with a frame.
    fn deposit(&mut self, slot: usize, env: Env<T>) {
        let seq = env.seq;
        self.slots[slot].deposit(env);
        tincy_trace::span(static_label!("slot.deposit"))
            .frame(seq)
            .emit();
    }

    fn finished(&self) -> bool {
        self.panicked
            || (self.source_done
                && self.slots.iter().all(Slot::is_free)
                && self.source.is_some()
                && self.sink.is_some()
                && self.stages.iter().all(Option::is_some))
    }
}

/// A frame-processing pipeline: a source, a chain of stages and a sink,
/// executed by a pool of worker threads with the paper's scheduling rules.
///
/// # Example
///
/// ```
/// use tincy_pipeline::{FnStage, Pipeline};
///
/// let mut n = 0u32;
/// let metrics = Pipeline::new(move || {
///     n += 1;
///     (n <= 10).then_some(n)
/// })
/// .with_stage(FnStage::new("square", |x: u32| x * x))
/// .run(|_out| {}, 4);
/// assert_eq!(metrics.frames, 10);
/// assert!(metrics.in_order);
/// ```
pub struct Pipeline<T> {
    source: Box<dyn FnMut() -> Option<T> + Send>,
    stages: Vec<Box<dyn Stage<T>>>,
    /// Samples the cumulative degraded-frame count of whatever fault
    /// domain the stages run in (e.g. an offload layer's health counter).
    degradation_probe: Option<Box<dyn Fn() -> u64 + Send>>,
}

impl<T: Send + 'static> Pipeline<T> {
    /// Creates a pipeline fed by `source`; the source returns `None` when
    /// the stream ends.
    pub fn new(source: impl FnMut() -> Option<T> + Send + 'static) -> Self {
        Self {
            source: Box::new(source),
            stages: Vec::new(),
            degradation_probe: None,
        }
    }

    /// Installs a degradation probe: a monotone counter of degraded frames
    /// (sampled before and after the run; the difference lands in
    /// [`PipelineMetrics::degraded`]). Keeps the pipeline agnostic of *what*
    /// degrades — typically an offload health counter.
    #[must_use]
    pub fn with_degradation_probe(mut self, probe: impl Fn() -> u64 + Send + 'static) -> Self {
        self.degradation_probe = Some(Box::new(probe));
        self
    }

    /// Appends a stage.
    #[must_use]
    pub fn with_stage(mut self, stage: impl Stage<T> + 'static) -> Self {
        self.stages.push(Box::new(stage));
        self
    }

    /// Appends prebuilt stages (e.g. wrapped network layers).
    #[must_use]
    pub fn with_stages(mut self, stages: impl IntoIterator<Item = Box<dyn Stage<T>>>) -> Self {
        self.stages.extend(stages);
        self
    }

    /// Runs the pipeline to completion on `workers` threads (clamped to at
    /// least one), delivering finished frames to `sink` in source order.
    pub fn run(self, sink: impl FnMut(T) + Send + 'static, workers: usize) -> PipelineMetrics {
        let workers = workers.max(1);
        let n = self.stages.len();
        let mut stats = Vec::with_capacity(n + 2);
        stats.push(StageStats::named("source"));
        for s in &self.stages {
            stats.push(StageStats::named(s.name()));
        }
        stats.push(StageStats::named("sink"));
        let labels = stats.iter().map(|s| Label::intern(&s.name)).collect();

        let shared = Mutex::new(Shared {
            slots: (0..=n).map(|_| Slot::Free).collect(),
            source: Some(self.source),
            stages: self.stages.into_iter().map(Some).collect(),
            sink: Some(Box::new(sink)),
            source_done: false,
            panicked: false,
            next_seq: 0,
            delivered: 0,
            last_seq: None,
            in_order: true,
            stats,
            labels,
        });
        let condvar = Condvar::new();
        let started = Instant::now();
        let degraded_before = self.degradation_probe.as_ref().map_or(0, |p| p());

        std::thread::scope(|scope| {
            for i in 0..workers {
                // Named so worker spans land on named tracks in trace
                // viewers (the trace layer records thread names).
                std::thread::Builder::new()
                    .name(format!("pipe-worker-{i}"))
                    .spawn_scoped(scope, || worker_loop(&shared, &condvar))
                    .expect("spawn pipeline worker");
            }
        });

        let degraded = self
            .degradation_probe
            .as_ref()
            .map_or(0, |p| p().saturating_sub(degraded_before));
        let state = shared.into_inner();
        PipelineMetrics {
            frames: state.delivered,
            elapsed: started.elapsed(),
            stages: state.stats,
            in_order: state.in_order,
            workers,
            degraded,
        }
    }
}

impl<T> std::fmt::Debug for Pipeline<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pipeline")
            .field(
                "stages",
                &self
                    .stages
                    .iter()
                    .map(|s| s.name().to_owned())
                    .collect::<Vec<_>>(),
            )
            .finish()
    }
}

/// Runs a task body outside the lock, under its span; on panic, marks the
/// pipeline failed (so the other workers drain out) and re-raises.
fn run_task<T, R>(
    shared: &Mutex<Shared<T>>,
    condvar: &Condvar,
    span: tincy_trace::SpanBuilder,
    body: impl FnOnce() -> R,
) -> (R, Duration) {
    let t0 = Instant::now();
    let _span = span.start();
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(body)) {
        Ok(result) => (result, t0.elapsed()),
        Err(payload) => {
            shared.lock().panicked = true;
            condvar.notify_all();
            std::panic::resume_unwind(payload);
        }
    }
}

/// One worker: picks the most mature ready job, runs it outside the lock,
/// and publishes its result under the same lock hold that picks the next.
fn worker_loop<T>(shared: &Mutex<Shared<T>>, condvar: &Condvar) {
    let mut state = shared.lock();
    loop {
        let job = loop {
            if state.finished() {
                condvar.notify_all();
                return;
            }
            match state.pick_job() {
                Some(job) => break job,
                None => condvar.wait(&mut state),
            }
        };
        let n = state.num_stages();
        let span = tincy_trace::span(state.labels[job]);
        if job == 0 {
            // Source: produce the next frame (or learn the stream ended).
            let mut source = state.source.take().expect("source present when picked");
            drop(state);
            let (produced, took) = run_task(shared, condvar, span, &mut source);
            state = shared.lock();
            match produced {
                Some(frame) => {
                    let seq = state.next_seq;
                    state.next_seq += 1;
                    state.deposit(0, Env { seq, frame });
                }
                None => state.source_done = true,
            }
            state.stats[0].record(took);
            state.source = Some(source);
        } else if job == n + 1 {
            // Sink: deliver the most mature frame. Taking it frees the slot.
            let Env { seq, frame } = state.slots[n].take();
            let mut sink = state.sink.take().expect("sink present when picked");
            drop(state);
            condvar.notify_all();
            let ((), took) = run_task(shared, condvar, span.frame(seq), || sink(frame));
            state = shared.lock();
            if seq != state.last_seq.map_or(0, |last| last + 1) {
                state.in_order = false;
            }
            state.last_seq = Some(seq);
            state.delivered += 1;
            state.stats[n + 1].record(took);
            state.sink = Some(sink);
        } else {
            // Stage `job`: advance one frame one step. Taking the frame
            // frees the input slot, so the producer may refill it while
            // this stage runs.
            let Env { seq, frame } = state.slots[job - 1].take();
            let mut stage = state.stages[job - 1]
                .take()
                .expect("stage present when picked");
            drop(state);
            condvar.notify_all();
            let (frame, took) = run_task(shared, condvar, span.frame(seq), || stage.process(frame));
            state = shared.lock();
            state.deposit(job, Env { seq, frame });
            state.stats[job].record(took);
            state.stages[job - 1] = Some(stage);
        }
        condvar.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stage::FnStage;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    fn counting_source(n: u64) -> impl FnMut() -> Option<u64> + Send {
        let mut i = 0;
        move || {
            i += 1;
            (i <= n).then_some(i - 1)
        }
    }

    #[test]
    fn processes_all_frames_in_order() {
        for workers in [1, 2, 4, 8] {
            let collected = Arc::new(Mutex::new(Vec::new()));
            let sink_frames = Arc::clone(&collected);
            let metrics = Pipeline::new(counting_source(50))
                .with_stage(FnStage::new("a", |x: u64| x + 1000))
                .with_stage(FnStage::new("b", |x: u64| x * 2))
                .run(move |x| sink_frames.lock().push(x), workers);
            assert_eq!(metrics.frames, 50, "workers={workers}");
            assert!(metrics.in_order, "workers={workers}");
            let frames = collected.lock();
            let expected: Vec<u64> = (0..50).map(|i| (i + 1000) * 2).collect();
            assert_eq!(*frames, expected, "workers={workers}");
        }
    }

    #[test]
    fn zero_stage_pipeline_is_source_to_sink() {
        let count = Arc::new(AtomicU64::new(0));
        let c = Arc::clone(&count);
        let metrics = Pipeline::new(counting_source(7)).run(
            move |_| {
                c.fetch_add(1, Ordering::SeqCst);
            },
            3,
        );
        assert_eq!(metrics.frames, 7);
        assert_eq!(count.load(Ordering::SeqCst), 7);
    }

    #[test]
    fn empty_source_terminates() {
        let metrics = Pipeline::new(|| None::<u64>)
            .with_stage(FnStage::new("a", |x: u64| x))
            .run(|_| {}, 4);
        assert_eq!(metrics.frames, 0);
        assert!(metrics.in_order);
    }

    #[test]
    fn uneven_stage_times_still_preserve_order() {
        // A fast stage behind a slow one tempts reordering; the single-slot
        // handshake must forbid it.
        let collected = Arc::new(Mutex::new(Vec::new()));
        let sink_frames = Arc::clone(&collected);
        let metrics = Pipeline::new(counting_source(30))
            .with_stage(FnStage::new("slow-every-3", |x: u64| {
                if x.is_multiple_of(3) {
                    std::thread::sleep(Duration::from_millis(3));
                }
                x
            }))
            .with_stage(FnStage::new("fast", |x: u64| x))
            .run(move |x| sink_frames.lock().push(x), 4);
        assert!(metrics.in_order);
        assert_eq!(*collected.lock(), (0..30).collect::<Vec<u64>>());
    }

    #[test]
    fn stage_stats_recorded() {
        let metrics = Pipeline::new(counting_source(10))
            .with_stage(FnStage::new("work", |x: u64| {
                std::thread::sleep(Duration::from_millis(1));
                x
            }))
            .run(|_| {}, 2);
        assert_eq!(metrics.stages.len(), 3); // source, work, sink
        let work = &metrics.stages[1];
        assert_eq!(work.name, "work");
        assert_eq!(work.invocations, 10);
        assert!(work.busy >= Duration::from_millis(10));
        assert!(work.mean_time() >= Duration::from_millis(1));
    }

    #[test]
    fn degradation_probe_reports_delta_only() {
        // The probe counter already stands at 5 before the run; two frames
        // degrade during it. The metrics must report 2, not 7.
        let degraded = Arc::new(AtomicU64::new(5));
        let stage_counter = Arc::clone(&degraded);
        let probe_counter = Arc::clone(&degraded);
        let metrics = Pipeline::new(counting_source(10))
            .with_stage(FnStage::new("sometimes-degraded", move |x: u64| {
                if x == 3 || x == 7 {
                    stage_counter.fetch_add(1, Ordering::SeqCst);
                }
                x
            }))
            .with_degradation_probe(move || probe_counter.load(Ordering::SeqCst))
            .run(|_| {}, 2);
        assert_eq!(metrics.degraded, 2);
        assert_eq!(metrics.frames, 10);
    }

    #[test]
    fn no_probe_reports_zero_degraded() {
        let metrics = Pipeline::new(counting_source(3)).run(|_| {}, 1);
        assert_eq!(metrics.degraded, 0);
    }

    #[test]
    fn panicking_stage_propagates_instead_of_deadlocking() {
        // A stage panic must abort the whole run (and unblock every
        // worker), not hang the pool.
        let result = std::panic::catch_unwind(|| {
            Pipeline::new(counting_source(10))
                .with_stage(FnStage::new("ok", |x: u64| x))
                .with_stage(FnStage::new("boom", |x: u64| {
                    if x == 3 {
                        panic!("stage exploded");
                    }
                    x
                }))
                .run(|_| {}, 4)
        });
        assert!(result.is_err(), "panic must propagate to the caller");
    }

    #[test]
    fn panicking_source_propagates() {
        let result = std::panic::catch_unwind(|| {
            let mut n = 0u64;
            Pipeline::new(move || {
                n += 1;
                if n == 2 {
                    panic!("source exploded");
                }
                Some(n)
            })
            .with_stage(FnStage::new("s", |x: u64| x))
            .run(|_| {}, 2)
        });
        assert!(result.is_err());
    }

    #[test]
    fn pipelining_overlaps_stage_time() {
        // Four stages on four workers overlap. Counted, not timed: the
        // stages track how many of them are inside their work at once.
        // A consumer frees its input slot when it takes the frame, so
        // neighbouring stages overlap too; were the slot held until the
        // consumer finished, four stages would peak at 2.
        let running = Arc::new(AtomicU64::new(0));
        let peak = Arc::new(AtomicU64::new(0));
        let stage = |name: &str| {
            let (running, peak) = (Arc::clone(&running), Arc::clone(&peak));
            FnStage::new(name.to_owned(), move |x: u64| {
                let now = running.fetch_add(1, Ordering::SeqCst) + 1;
                peak.fetch_max(now, Ordering::SeqCst);
                // Long enough that a neighbour-free stage gets to start.
                std::thread::sleep(Duration::from_millis(4));
                running.fetch_sub(1, Ordering::SeqCst);
                x
            })
        };
        Pipeline::new(counting_source(24))
            .with_stage(stage("s1"))
            .with_stage(stage("s2"))
            .with_stage(stage("s3"))
            .with_stage(stage("s4"))
            .run(|_| {}, 4);
        let peak = peak.load(Ordering::SeqCst);
        assert!(peak >= 3, "at most {peak} stage(s) ever ran at once");
    }
}
