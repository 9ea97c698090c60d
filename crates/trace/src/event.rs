//! The trace event schema: interned labels, typed attributes and the
//! fixed-size [`Event`] record stored in the per-thread rings. A span is
//! one record, written when its guard drops, that carries both its start
//! and its end.

use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::OnceLock;

/// An interned event/span name. Labels are process-global and never
/// recycled, so a `Label` cached in a `OnceLock` at a call site stays
/// valid across trace sessions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Label(pub(crate) u32);

impl Label {
    /// Interns `name`, returning its stable id. Repeated calls with the
    /// same string return the same label; hot call sites should cache the
    /// result (see [`static_label!`](crate::static_label)).
    pub fn intern(name: &str) -> Label {
        let mut interner = interner().lock();
        if let Some(&id) = interner.by_name.get(name) {
            return Label(id);
        }
        let id = u32::try_from(interner.names.len()).expect("label space exhausted");
        interner.names.push(name.to_string());
        interner.by_name.insert(name.to_string(), id);
        Label(id)
    }

    /// The raw interner index.
    pub fn index(self) -> u32 {
        self.0
    }
}

struct Interner {
    names: Vec<String>,
    by_name: HashMap<String, u32>,
}

fn interner() -> &'static Mutex<Interner> {
    static INTERNER: OnceLock<Mutex<Interner>> = OnceLock::new();
    INTERNER.get_or_init(|| {
        Mutex::new(Interner {
            names: Vec::new(),
            by_name: HashMap::new(),
        })
    })
}

/// Snapshot of the interner table: index `i` holds the name of `Label(i)`.
pub(crate) fn label_table() -> Vec<String> {
    interner().lock().names.clone()
}

/// Which engine executed the work a span covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// The FINN-style accelerator path.
    Finn,
    /// The host (CPU reference) path.
    Host,
}

impl Backend {
    /// Stable lowercase name used in exported traces.
    pub fn label(self) -> &'static str {
        match self {
            Backend::Finn => "finn",
            Backend::Host => "host",
        }
    }

    /// Inverse of [`Self::label`].
    pub fn from_label(name: &str) -> Option<Backend> {
        match name {
            "finn" => Some(Backend::Finn),
            "host" => Some(Backend::Host),
            _ => None,
        }
    }
}

/// Typed span/event attributes. Every field is optional; unset fields
/// cost nothing in the exported trace.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Attrs {
    /// Pipeline frame sequence number.
    pub frame: Option<u64>,
    /// Serving-layer global request id.
    pub request: Option<u64>,
    /// Network layer index.
    pub layer: Option<u32>,
    /// Micro-batch size.
    pub batch: Option<u32>,
    /// Retry attempt (0 = first try).
    pub attempt: Option<u32>,
    /// Executing backend.
    pub backend: Option<Backend>,
    /// Fault kind (interned string).
    pub fault: Option<Label>,
    /// Kernel variant serving the span (interned string).
    pub variant: Option<Label>,
    /// Modeled accelerator cycles.
    pub cycles: Option<u64>,
    /// Span-link set id: an index into [`Trace::links`] listing the
    /// request ids this span covers (micro-batch membership).
    ///
    /// [`Trace::links`]: crate::Trace
    pub links: Option<u32>,
    /// Distributed trace id ([`TraceContext::trace_id`]): every span a
    /// request produces on any shard carries the same id.
    ///
    /// [`TraceContext::trace_id`]: crate::TraceContext
    pub trace: Option<u64>,
    /// Parent span id ([`TraceContext::parent_span_id`]): the admission
    /// span the router minted for this request.
    ///
    /// [`TraceContext::parent_span_id`]: crate::TraceContext
    pub parent: Option<u64>,
    /// Fleet shard index that produced the span. In-process shards share
    /// one ring set, so shard identity must travel on the event itself.
    pub shard: Option<u32>,
}

impl Attrs {
    /// Whether no attribute is set.
    pub fn is_empty(&self) -> bool {
        *self == Attrs::default()
    }
}

/// Event flavor: spans cover an interval on one thread; instants are
/// point markers; flow edges link a hand-off across threads (Perfetto
/// `s`/`f` arrows, e.g. router dispatch → shard delivery).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A closed span: `start_ns..end_ns` is the time its guard was open.
    Span,
    /// A point event.
    Instant,
    /// Flow start: the producing side of a cross-thread hand-off. Joined
    /// to its [`EventKind::FlowFinish`] by [`Attrs::trace`].
    FlowStart,
    /// Flow finish: the consuming side of a cross-thread hand-off.
    FlowFinish,
}

/// One record in a thread's ring buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Nanoseconds since session start (per the session clock): when the
    /// span opened, or when the point event happened.
    pub start_ns: u64,
    /// When the span closed; equal to `start_ns` for point events.
    pub end_ns: u64,
    /// Session-scoped thread id (registration order).
    pub thread: u32,
    /// Span, instant or flow edge.
    pub kind: EventKind,
    /// Interned event name.
    pub label: Label,
    /// Typed attributes.
    pub attrs: Attrs,
}

impl Event {
    /// Span duration in nanoseconds (0 for point events).
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Interns a label once per call site and caches it in a `OnceLock`, so
/// the hot path pays one atomic load instead of a hash lookup.
#[macro_export]
macro_rules! static_label {
    ($name:expr) => {{
        static LABEL: ::std::sync::OnceLock<$crate::Label> = ::std::sync::OnceLock::new();
        *LABEL.get_or_init(|| $crate::Label::intern($name))
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_stable_and_deduplicated() {
        let a = Label::intern("test.event.alpha");
        let b = Label::intern("test.event.alpha");
        let c = Label::intern("test.event.beta");
        assert_eq!(a, b);
        assert_ne!(a, c);
        let table = label_table();
        assert_eq!(table[a.index() as usize], "test.event.alpha");
        assert_eq!(table[c.index() as usize], "test.event.beta");
    }

    #[test]
    fn static_label_caches_per_call_site() {
        let first = static_label!("test.event.static");
        let second = static_label!("test.event.static");
        assert_eq!(first, second);
        assert_eq!(first, Label::intern("test.event.static"));
    }

    #[test]
    fn backend_labels_round_trip() {
        for backend in [Backend::Finn, Backend::Host] {
            assert_eq!(Backend::from_label(backend.label()), Some(backend));
        }
        assert_eq!(Backend::from_label("gpu"), None);
    }
}
