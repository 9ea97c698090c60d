//! The lock-minimal collector: per-thread ring buffers feeding a central
//! registry.
//!
//! Design:
//! - When tracing is disabled (the default), every record call is a
//!   single relaxed atomic load and an early return.
//! - When enabled, each thread lazily registers with the session and
//!   caches an `Arc` to its own bounded ring plus the session clock in a
//!   thread-local. Recording locks only the thread's *own* ring mutex,
//!   which no other thread touches until `finish()` drains it — the lock
//!   is uncontended on the hot path.
//! - A span stamps its start when it opens ([`open`]) and writes one
//!   record, start to end, when its guard drops ([`close`]); instants and
//!   flow edges are one record each ([`record`]).
//! - Sessions carry a generation number; a cached thread-local handle
//!   from a previous session is detected by generation mismatch and
//!   re-registered, so `start()`/`finish()` can cycle freely (tests do).
//!   A span opened in an earlier session records nothing.

use crate::clock::{Clock, MonotonicClock};
use crate::data::Trace;
use crate::event::{label_table, Attrs, Event, EventKind, Label};
use parking_lot::Mutex;
use parking_lot::MutexGuard;
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::ThreadId;

/// Default per-thread ring capacity (events; a span is one event). An
/// [`Event`] is 176 bytes (`size_of::<Event>()` on x86-64), so a full ring
/// is 44 MiB and a 10-thread session tops out around 440 MiB worst case.
/// Rings grow as they fill, and real demo/serve runs stay under a few
/// thousand events per thread.
pub const DEFAULT_THREAD_CAPACITY: usize = 1 << 18;

static ENABLED: AtomicBool = AtomicBool::new(false);
static GENERATION: AtomicU64 = AtomicU64::new(0);

struct Session {
    generation: u64,
    clock: Arc<dyn Clock>,
    capacity: usize,
    /// When set, only this thread records ([`start_local`]).
    only: Option<ThreadId>,
    rings: Vec<Arc<Mutex<Ring>>>,
    /// OS thread names, parallel to `rings` (`""` for unnamed threads).
    names: Vec<String>,
    /// Span-link sets recorded by `intern_links`; `Attrs::links` indexes
    /// into this table.
    links: Vec<Vec<u64>>,
}

fn registry() -> &'static Mutex<Option<Session>> {
    static REGISTRY: OnceLock<Mutex<Option<Session>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(None))
}

/// A bounded flight-recorder ring: keeps the most recent `capacity`
/// events, counting overwritten ones. Each span is one closed record, so
/// an overwrite never leaves half a span behind.
struct Ring {
    buf: Vec<Event>,
    capacity: usize,
    head: usize,
    /// Events overwritten since the session started.
    dropped: u64,
}

impl Ring {
    fn new(capacity: usize) -> Self {
        Self {
            buf: Vec::new(),
            capacity: capacity.max(1),
            head: 0,
            dropped: 0,
        }
    }

    fn push(&mut self, event: Event) {
        if self.buf.len() < self.capacity {
            self.buf.push(event);
        } else {
            self.buf[self.head] = event;
            self.head = (self.head + 1) % self.capacity;
            self.dropped += 1;
        }
    }

    fn drain(&mut self) -> Vec<Event> {
        let mut out = Vec::with_capacity(self.buf.len());
        out.extend_from_slice(&self.buf[self.head..]);
        out.extend_from_slice(&self.buf[..self.head]);
        self.buf.clear();
        self.head = 0;
        out
    }
}

struct ThreadHandle {
    generation: u64,
    thread: u32,
    clock: Arc<dyn Clock>,
    ring: Arc<Mutex<Ring>>,
}

impl ThreadHandle {
    fn push(&self, start_ns: u64, end_ns: u64, kind: EventKind, label: Label, attrs: Attrs) {
        self.ring.lock().push(Event {
            start_ns,
            end_ns,
            thread: self.thread,
            kind,
            label,
            attrs,
        });
    }
}

thread_local! {
    static HANDLE: RefCell<Option<ThreadHandle>> = const { RefCell::new(None) };
}

/// Claims the process-global session until the guard drops, blocking
/// while another claim is live. `cargo test` runs a binary's tests on
/// parallel threads, so every test that opens a session holds a claim
/// for as long as it does; a test whose *siblings* record spans without
/// claiming opens its session with [`start_local`] as well.
pub fn exclusive() -> MutexGuard<'static, ()> {
    static CLAIM: Mutex<()> = Mutex::new(());
    CLAIM.lock()
}

/// Starts a trace session on the real monotonic clock with the default
/// per-thread ring capacity. An already-running session is discarded.
pub fn start() {
    start_session(
        Arc::new(MonotonicClock::new()),
        DEFAULT_THREAD_CAPACITY,
        None,
    );
}

/// Like [`start`], but only the calling thread records: spans other
/// threads emit while the session runs are discarded, so a finished
/// trace holds exactly what the caller did between start and finish.
pub fn start_local() {
    start_session(
        Arc::new(MonotonicClock::new()),
        DEFAULT_THREAD_CAPACITY,
        Some(std::thread::current().id()),
    );
}

/// Starts a trace session on an injected clock, with `capacity` events
/// retained per thread (a flight recorder: the newest events win).
pub fn start_with_clock(clock: Arc<dyn Clock>, capacity: usize) {
    start_session(clock, capacity, None);
}

fn start_session(clock: Arc<dyn Clock>, capacity: usize, only: Option<ThreadId>) {
    let mut registry = registry().lock();
    let generation = GENERATION.fetch_add(1, Ordering::AcqRel) + 1;
    *registry = Some(Session {
        generation,
        clock,
        capacity,
        only,
        rings: Vec::new(),
        names: Vec::new(),
        links: Vec::new(),
    });
    ENABLED.store(true, Ordering::Release);
}

/// Whether a session is recording. One relaxed load — this is the whole
/// cost of tracing when disabled.
#[inline]
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Stops the session and returns the merged, time-sorted trace. Returns
/// an empty trace when no session was running.
pub fn finish() -> Trace {
    ENABLED.store(false, Ordering::Release);
    let session = registry().lock().take();
    let Some(session) = session else {
        return Trace::empty();
    };
    let mut events = Vec::new();
    let mut dropped = 0;
    for ring in &session.rings {
        let mut ring = ring.lock();
        events.extend(ring.drain());
        dropped += ring.dropped;
    }
    sort_events(&mut events);
    Trace {
        events,
        labels: label_table(),
        threads: u32::try_from(session.rings.len()).unwrap_or(u32::MAX),
        thread_names: (0..)
            .zip(session.names)
            .filter(|(_, name)| !name.is_empty())
            .collect(),
        links: session.links,
        dropped,
    }
}

/// The order of [`Trace::events`]: by start, a span before the spans and
/// points it contains (longer first on a shared start), recording order on
/// full ties.
pub(crate) fn sort_events(events: &mut [Event]) {
    events.sort_by_key(|e| (e.start_ns, std::cmp::Reverse(e.end_ns)));
}

/// Per-thread flight-recorder drop counts for the *running* session:
/// `(thread name, events overwritten since the session started)`, in
/// registration order — what the live `tincy_trace_dropped_total{thread}`
/// metric reads, and what [`finish`] sums into [`Trace::dropped`]. `None`
/// when no session is running.
pub fn thread_drops() -> Option<Vec<(String, u64)>> {
    let registry = registry().lock();
    let session = registry.as_ref()?;
    Some(
        session
            .rings
            .iter()
            .zip(&session.names)
            .map(|(ring, name)| (name.clone(), ring.lock().dropped))
            .collect(),
    )
}

/// Stores a span-link set (member request ids) in the running session
/// and returns its id. `None` when no session is running.
pub(crate) fn intern_links(ids: &[u64]) -> Option<u32> {
    let mut registry = registry().lock();
    let session = registry.as_mut()?;
    let id = u32::try_from(session.links.len()).expect("link space exhausted");
    session.links.push(ids.to_vec());
    Some(id)
}

fn register_thread(generation: u64) -> Option<ThreadHandle> {
    let mut registry = registry().lock();
    let session = registry.as_mut()?;
    if session.generation != generation {
        return None;
    }
    if session
        .only
        .is_some_and(|id| id != std::thread::current().id())
    {
        return None;
    }
    let thread = u32::try_from(session.rings.len()).expect("thread space exhausted");
    let ring = Arc::new(Mutex::new(Ring::new(session.capacity)));
    session.rings.push(Arc::clone(&ring));
    session
        .names
        .push(std::thread::current().name().unwrap_or("").to_string());
    Some(ThreadHandle {
        generation,
        thread,
        clock: Arc::clone(&session.clock),
        ring,
    })
}

/// Runs `f` on the calling thread's handle for the running session,
/// registering the thread on its first record. `None` when disabled, or
/// when the session ended or restarted mid-call.
fn with_handle<R>(f: impl FnOnce(&ThreadHandle) -> R) -> Option<R> {
    if !is_enabled() {
        return None;
    }
    let generation = GENERATION.load(Ordering::Acquire);
    HANDLE.with(|cell| {
        let mut slot = cell.borrow_mut();
        if slot.as_ref().is_none_or(|h| h.generation != generation) {
            *slot = Some(register_thread(generation)?);
        }
        slot.as_ref().map(f)
    })
}

/// Records one point event (instant or flow edge) stamped now. No-op when
/// disabled.
pub(crate) fn record(kind: EventKind, label: Label, attrs: Attrs) {
    with_handle(|handle| {
        let now = handle.clock.now_ns();
        handle.push(now, now, kind, label, attrs);
    });
}

/// Opens a span: the session generation and the start stamp, or `None`
/// when disabled.
pub(crate) fn open() -> Option<(u64, u64)> {
    with_handle(|handle| (handle.generation, handle.clock.now_ns()))
}

/// Closes a span opened by [`open`]: one record from `start_ns` to now.
/// Nothing is recorded when the session changed since the span opened.
pub(crate) fn close(generation: u64, start_ns: u64, label: Label, attrs: Attrs) {
    if GENERATION.load(Ordering::Acquire) != generation {
        return;
    }
    with_handle(|handle| {
        if handle.generation == generation {
            let now = handle.clock.now_ns();
            handle.push(start_ns, now, EventKind::Span, label, attrs);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::TestClock;

    #[test]
    fn ring_keeps_newest_events_and_counts_drops() {
        let mut ring = Ring::new(3);
        for t in 0..5u64 {
            ring.push(Event {
                start_ns: t,
                end_ns: t,
                thread: 0,
                kind: EventKind::Instant,
                label: Label(0),
                attrs: Attrs::default(),
            });
        }
        assert_eq!(ring.dropped, 2);
        let drained: Vec<u64> = ring.drain().iter().map(|e| e.start_ns).collect();
        assert_eq!(drained, vec![2, 3, 4]);
    }

    #[test]
    fn disabled_recording_is_a_no_op() {
        let _guard = exclusive();
        assert!(!is_enabled());
        record(
            EventKind::Instant,
            Label::intern("collector.disabled"),
            Attrs::default(),
        );
        assert!(open().is_none());
        let trace = finish();
        assert!(trace.events.is_empty());
    }

    #[test]
    fn thread_drops_are_cumulative_and_sum_into_the_trace() {
        let _guard = exclusive();
        let clock = Arc::new(TestClock::new());
        start_with_clock(clock, 2); // tiny rings force overwrites
        let label = Label::intern("collector.drop");
        let total = || -> u64 {
            let drops = thread_drops().expect("session running");
            drops.iter().map(|(_, d)| *d).sum()
        };
        for _ in 0..5 {
            record(EventKind::Instant, label, Attrs::default());
        }
        assert_eq!(total(), 3);
        for _ in 0..3 {
            record(EventKind::Instant, label, Attrs::default());
        }
        assert_eq!(total(), 6);
        assert_eq!(finish().dropped, 6);
        assert!(thread_drops().is_none(), "no session after finish");
    }

    #[test]
    fn local_session_discards_other_threads() {
        let _guard = exclusive();
        start_local();
        let label = Label::intern("collector.local");
        let (generation, start) = open().expect("the caller records");
        std::thread::spawn(|| assert!(open().is_none(), "a bystander records nothing"))
            .join()
            .expect("bystander thread");
        close(generation, start, label, Attrs::default());
        let trace = finish();
        assert_eq!(trace.threads, 1);
        assert_eq!(trace.spans().count(), 1);
    }

    #[test]
    fn session_collects_across_restarts() {
        let _guard = exclusive();
        let clock = Arc::new(TestClock::new());
        start_with_clock(clock.clone(), 64);
        record(
            EventKind::Instant,
            Label::intern("collector.first"),
            Attrs::default(),
        );
        let first = finish();
        assert_eq!(first.events.len(), 1);
        assert_eq!(first.threads, 1);

        // A second session must re-register the same OS thread.
        start_with_clock(clock, 64);
        record(
            EventKind::Instant,
            Label::intern("collector.second"),
            Attrs::default(),
        );
        let second = finish();
        assert_eq!(second.events.len(), 1);
        assert_eq!(
            second.label_name(second.events[0].label),
            "collector.second"
        );
    }
}
