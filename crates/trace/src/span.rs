//! The span API: a builder for typed attributes plus an RAII guard that
//! holds the span's start and attributes and records the whole span, as
//! one event, when it drops.
//!
//! ```
//! let _session = (); // assume tincy_trace::start() ran
//! let label = tincy_trace::static_label!("doc.example");
//! {
//!     let _span = tincy_trace::span(label).frame(7).start();
//!     // ... traced work ...
//! } // the span is recorded here
//! tincy_trace::span(label).attempt(1).emit(); // instant event
//! ```

use crate::collector::{close, is_enabled, open, record};
use crate::context::TraceContext;
use crate::event::{Attrs, Backend, EventKind, Label};
use std::marker::PhantomData;

/// Starts building a span or instant event named `label`.
pub fn span(label: Label) -> SpanBuilder {
    SpanBuilder {
        label,
        attrs: Attrs::default(),
    }
}

/// Builder carrying the typed attributes for one span/instant. All
/// setters are cheap option stores; the only recording happens in
/// [`Self::start`] / [`Self::emit`].
#[must_use = "a span builder records nothing until start() or emit()"]
#[derive(Debug)]
pub struct SpanBuilder {
    label: Label,
    attrs: Attrs,
}

impl SpanBuilder {
    /// Pipeline frame sequence number.
    pub fn frame(mut self, seq: u64) -> Self {
        self.attrs.frame = Some(seq);
        self
    }

    /// Serving-layer global request id.
    pub fn request(mut self, id: u64) -> Self {
        self.attrs.request = Some(id);
        self
    }

    /// Network layer index.
    pub fn layer(mut self, index: u32) -> Self {
        self.attrs.layer = Some(index);
        self
    }

    /// Micro-batch size.
    pub fn batch(mut self, size: u32) -> Self {
        self.attrs.batch = Some(size);
        self
    }

    /// Retry attempt number (0 = first try).
    pub fn attempt(mut self, n: u32) -> Self {
        self.attrs.attempt = Some(n);
        self
    }

    /// Executing backend.
    pub fn backend(mut self, backend: Backend) -> Self {
        self.attrs.backend = Some(backend);
        self
    }

    /// Fault kind. The string is interned, so only pass bounded kinds
    /// (error displays), not per-event payloads. Skipped when disabled.
    pub fn fault(mut self, kind: &str) -> Self {
        if is_enabled() {
            self.attrs.fault = Some(Label::intern(kind));
        }
        self
    }

    /// Kernel variant serving the span. The string is interned, so only
    /// pass bounded variant names. Skipped when disabled.
    pub fn variant(mut self, name: &str) -> Self {
        if is_enabled() {
            self.attrs.variant = Some(Label::intern(name));
        }
        self
    }

    /// Modeled accelerator cycles.
    pub fn cycles(mut self, n: u64) -> Self {
        self.attrs.cycles = Some(n);
        self
    }

    /// Distributed trace id (see [`TraceContext`]).
    pub fn trace(mut self, id: u64) -> Self {
        self.attrs.trace = Some(id);
        self
    }

    /// Parent span id (see [`TraceContext`]).
    pub fn parent(mut self, id: u64) -> Self {
        self.attrs.parent = Some(id);
        self
    }

    /// Fleet shard index that produced the span.
    pub fn shard(mut self, index: u32) -> Self {
        self.attrs.shard = Some(index);
        self
    }

    /// Both halves of a [`TraceContext`] at once; `None` is a no-op so
    /// call sites can pass an optional context straight through.
    pub fn context(mut self, ctx: Option<TraceContext>) -> Self {
        if let Some(ctx) = ctx {
            self.attrs.trace = Some(ctx.trace_id);
            self.attrs.parent = Some(ctx.parent_span_id);
        }
        self
    }

    /// Links the span to the request ids it covers (micro-batch
    /// membership). The id list is stored once in the session's link
    /// table; the span carries only the table index. Skipped when
    /// disabled.
    pub fn link_requests(mut self, ids: &[u64]) -> Self {
        if is_enabled() {
            self.attrs.links = crate::collector::intern_links(ids);
        }
        self
    }

    /// Stamps the span's start and returns the guard whose drop records
    /// the span. Inert (records nothing, ever) when tracing is off.
    pub fn start(self) -> SpanGuard {
        SpanGuard {
            label: self.label,
            attrs: self.attrs,
            open: open(),
            _not_send: PhantomData,
        }
    }

    /// Records a single instant event.
    pub fn emit(self) {
        record(EventKind::Instant, self.label, self.attrs);
    }

    /// Records the producing edge of a cross-thread hand-off (a Perfetto
    /// flow arrow). Joined to the matching [`Self::emit_flow_finish`] by
    /// the trace id, so set one (e.g. via [`Self::context`]) first.
    pub fn emit_flow_start(self) {
        record(EventKind::FlowStart, self.label, self.attrs);
    }

    /// Records the consuming edge of a cross-thread hand-off.
    pub fn emit_flow_finish(self) {
        record(EventKind::FlowFinish, self.label, self.attrs);
    }
}

/// RAII guard for an open span. `!Send` by construction: a span opens
/// and closes on one thread, so its record's thread and per-thread
/// nesting hold.
#[must_use = "dropping the guard immediately ends the span"]
#[derive(Debug)]
pub struct SpanGuard {
    label: Label,
    attrs: Attrs,
    /// Session generation and start stamp; `None` when tracing was off.
    open: Option<(u64, u64)>,
    _not_send: PhantomData<*const ()>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        // A guard opened in an earlier session records nothing: its start
        // is on another session's clock.
        if let Some((generation, start_ns)) = self.open {
            close(generation, start_ns, self.label, self.attrs);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::TestClock;
    use crate::collector::{exclusive, finish, start_with_clock};
    use crate::event::EventKind;
    use std::sync::Arc;

    #[test]
    fn span_guard_records_one_event_with_attrs() {
        let _guard = exclusive();
        let clock = Arc::new(TestClock::new());
        start_with_clock(clock.clone(), 64);
        {
            let _span = span(Label::intern("span.outer"))
                .frame(3)
                .layer(1)
                .backend(Backend::Finn)
                .start();
            clock.advance(10);
            span(Label::intern("span.marker")).attempt(2).emit();
            clock.advance(5);
        }
        let trace = finish();
        trace.check().unwrap();
        assert_eq!(trace.events.len(), 2);
        let spans: Vec<_> = trace.spans().collect();
        assert_eq!(spans.len(), 1);
        assert_eq!(trace.label_name(spans[0].label), "span.outer");
        assert_eq!((spans[0].start_ns, spans[0].end_ns), (0, 15));
        assert_eq!(spans[0].attrs.frame, Some(3));
        assert_eq!(spans[0].attrs.layer, Some(1));
        assert_eq!(spans[0].attrs.backend, Some(Backend::Finn));
        let instants: Vec<_> = trace.instants().collect();
        assert_eq!(instants.len(), 1);
        assert_eq!(instants[0].attrs.attempt, Some(2));
    }

    /// N nested spans and M instants on one thread leave exactly N + M
    /// events, and a ring of K records keeps the K newest spans.
    #[test]
    fn each_span_is_one_record() {
        let _guard = exclusive();
        let clock = Arc::new(TestClock::new());
        start_with_clock(clock.clone(), 64);
        let label = Label::intern("span.nested");
        let mut open = Vec::new();
        for depth in 0..5 {
            open.push(span(label).layer(depth).start());
            clock.advance(1);
            span(Label::intern("span.point")).emit();
        }
        while open.pop().is_some() {
            clock.advance(1);
        }
        let trace = finish();
        trace.check().unwrap();
        assert_eq!(trace.events.len(), 10);
        let spans: Vec<_> = trace
            .spans()
            .map(|s| (s.attrs.layer, s.start_ns, s.end_ns))
            .collect();
        let want: Vec<_> = (0..5u32)
            .map(|d| (Some(d), u64::from(d), 9 - u64::from(d)))
            .collect();
        assert_eq!(spans, want, "outermost first, each with its own interval");

        start_with_clock(clock.clone(), 4);
        for _ in 0..6 {
            let _span = span(label).start();
            clock.advance(1);
        }
        let trace = finish();
        assert_eq!((trace.spans().count(), trace.dropped), (4, 2));
    }

    /// Guards dropped out of order record two spans that partially
    /// overlap, and the check names them.
    #[test]
    fn out_of_order_drops_fail_the_check() {
        let _guard = exclusive();
        let clock = Arc::new(TestClock::new());
        start_with_clock(clock.clone(), 64);
        let outer = span(Label::intern("span.first")).start();
        clock.advance(1);
        let inner = span(Label::intern("span.second")).start();
        clock.advance(1);
        drop(outer);
        clock.advance(1);
        drop(inner);
        let err = finish().check().unwrap_err();
        assert_eq!(
            (err.outer.as_str(), err.inner.as_str()),
            ("span.first", "span.second")
        );
    }

    #[test]
    fn disabled_builder_is_inert() {
        let _guard = exclusive();
        let _ = finish();
        let span_guard = span(Label::intern("span.disabled")).fault("nope").start();
        drop(span_guard);
        span(Label::intern("span.disabled")).emit();
        assert!(finish().is_empty());
    }

    #[test]
    fn guard_outliving_its_session_stays_silent() {
        let _guard = exclusive();
        let clock = Arc::new(TestClock::new());
        start_with_clock(clock.clone(), 64);
        let open = span(Label::intern("span.stale")).start();
        assert!(finish().is_empty(), "an open span is not recorded yet");
        start_with_clock(clock, 64);
        drop(open); // must not record into the new session
        span(Label::intern("span.fresh")).emit();
        let second = finish();
        assert_eq!(second.events.len(), 1);
        assert_eq!(second.label_name(second.events[0].label), "span.fresh");
        assert_eq!(second.events[0].kind, EventKind::Instant);
    }
}
