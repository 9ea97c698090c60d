//! The collected trace: merged events, label table and the per-thread
//! nesting check. Every span is already one closed record, so nothing
//! here pairs edges.

use crate::event::{Event, EventKind, Label};
use std::collections::BTreeMap;
use std::fmt;

/// A finished trace session: every surviving event from every thread,
/// sorted by start, plus the label table to resolve names.
#[derive(Debug, Clone)]
pub struct Trace {
    /// Events sorted by `start_ns`; on a shared start a span precedes what
    /// it contains.
    pub events: Vec<Event>,
    /// Interner snapshot: `labels[label.index()]` is the name.
    pub labels: Vec<String>,
    /// Threads that recorded at least one event.
    pub threads: u32,
    /// OS thread names captured at registration, by session thread id;
    /// unnamed threads have no entry.
    pub thread_names: BTreeMap<u32, String>,
    /// Span-link sets: `links[id]` lists the request ids referenced by
    /// spans whose [`Attrs::links`](crate::Attrs::links) is `Some(id)`
    /// (micro-batch members).
    pub links: Vec<Vec<u64>>,
    /// Events overwritten by ring-buffer wraparound.
    pub dropped: u64,
}

/// Two spans on one thread that partially overlap: the defect
/// [`Trace::check`] finds. Guards that drop out of order record it, and so
/// can a hand-edited or foreign trace file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceError {
    /// Thread both spans were recorded on.
    pub thread: u32,
    /// Label of the span that opened first.
    pub outer: String,
    /// Label of the span that opened inside `outer` and outlived it.
    pub inner: String,
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "thread {}: span '{}' outlives its enclosing span '{}'",
            self.thread, self.inner, self.outer
        )
    }
}

impl Trace {
    /// An empty trace (no session was running).
    pub fn empty() -> Self {
        Self {
            events: Vec::new(),
            labels: Vec::new(),
            threads: 0,
            thread_names: BTreeMap::new(),
            links: Vec::new(),
            dropped: 0,
        }
    }

    /// Whether no events were recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Resolves a label to its name (`"?"` for ids outside the table —
    /// only possible for hand-built traces).
    pub fn label_name(&self, label: Label) -> &str {
        self.labels
            .get(label.index() as usize)
            .map_or("?", String::as_str)
    }

    /// Checks per-thread nesting: two spans on one thread are disjoint, or
    /// one contains the other.
    ///
    /// # Errors
    ///
    /// [`TraceError`] naming the first pair that partially overlaps.
    pub fn check(&self) -> Result<(), TraceError> {
        let mut spans: Vec<&Event> = self.spans().collect();
        spans.sort_by_key(|s| (s.thread, s.start_ns, std::cmp::Reverse(s.end_ns)));
        // Per thread, the spans still open at the current start: each one
        // ends no later than the one below it.
        let mut open: Vec<&Event> = Vec::new();
        for span in spans {
            while open
                .last()
                .is_some_and(|o| o.thread != span.thread || o.end_ns <= span.start_ns)
            {
                open.pop();
            }
            if let Some(outer) = open.last().filter(|o| o.end_ns < span.end_ns) {
                return Err(TraceError {
                    thread: span.thread,
                    outer: self.label_name(outer.label).to_string(),
                    inner: self.label_name(span.label).to_string(),
                });
            }
            open.push(span);
        }
        Ok(())
    }

    /// All spans.
    pub fn spans(&self) -> impl Iterator<Item = &Event> {
        self.events.iter().filter(|e| e.kind == EventKind::Span)
    }

    /// All instant events.
    pub fn instants(&self) -> impl Iterator<Item = &Event> {
        self.events.iter().filter(|e| e.kind == EventKind::Instant)
    }

    /// All flow edges (cross-thread hand-off arrows), start and finish.
    pub fn flows(&self) -> impl Iterator<Item = &Event> {
        self.events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::FlowStart | EventKind::FlowFinish))
    }

    /// The captured OS thread name for a session thread id, if any.
    pub fn thread_name(&self, thread: u32) -> Option<&str> {
        self.thread_names.get(&thread).map(String::as_str)
    }

    /// The request ids behind a span-link id ([`Attrs::links`](crate::Attrs::links));
    /// empty for ids outside the table.
    pub fn link_requests(&self, id: u32) -> &[u64] {
        self.links.get(id as usize).map_or(&[], Vec::as_slice)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Attrs;

    fn span(thread: u32, label: u32, start_ns: u64, end_ns: u64) -> Event {
        Event {
            start_ns,
            end_ns,
            thread,
            kind: EventKind::Span,
            label: Label(label),
            attrs: Attrs::default(),
        }
    }

    fn trace_with(events: Vec<Event>) -> Trace {
        Trace {
            events,
            labels: vec!["a".into(), "b".into()],
            threads: 2,
            thread_names: BTreeMap::new(),
            links: Vec::new(),
            dropped: 0,
        }
    }

    #[test]
    fn nested_and_disjoint_spans_pass() {
        let trace = trace_with(vec![
            span(0, 0, 0, 10),
            span(0, 1, 0, 4),
            span(0, 1, 4, 4),
            span(0, 1, 4, 10),
            span(0, 0, 10, 12),
        ]);
        trace.check().unwrap();
    }

    #[test]
    fn overlap_across_threads_is_not_a_defect() {
        let trace = trace_with(vec![span(0, 0, 0, 5), span(1, 1, 3, 8)]);
        trace.check().unwrap();
    }

    #[test]
    fn partial_overlap_on_one_thread_is_detected() {
        let trace = trace_with(vec![span(0, 0, 0, 5), span(0, 1, 3, 8)]);
        let err = trace.check().unwrap_err();
        assert_eq!((err.outer.as_str(), err.inner.as_str()), ("a", "b"));
        assert_eq!(
            err.to_string(),
            "thread 0: span 'b' outlives its enclosing span 'a'"
        );
    }
}
