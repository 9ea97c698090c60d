//! The benchmark's own in-memory span recorder.
//!
//! Spans are recorded around the calls the benchmark makes *into* the
//! system (no spans are added inside the program), kept in memory, and
//! written as Chrome trace-event JSON when the run ends. Only the
//! load-generator thread records, so there is no locking.

use std::fmt::Write as _;
use std::time::Instant;

/// Index of a recorded span; [`NO_SPAN`] when recording is off.
pub type SpanId = usize;

/// The id handed out while recording is off.
pub const NO_SPAN: SpanId = usize::MAX;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Request or frame id; every span of one request shares it.
    pub id: u64,
    /// Not on the generator's call stack: a request's lifetime overlaps
    /// other requests', so it is drawn on an async track.
    pub overlapped: bool,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
    stack: Vec<SpanId>,
}

impl Recorder {
    pub fn new(enabled: bool) -> Self {
        Self {
            origin: Instant::now(),
            enabled,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn ns(&self, at: Instant) -> u64 {
        u64::try_from(at.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span on the call stack; its parent is the innermost open
    /// one. Close it with [`Self::exit`].
    pub fn enter(&mut self, name: &'static str, id: u64) -> SpanId {
        if !self.enabled {
            return NO_SPAN;
        }
        let parent = self.stack.last().copied();
        let span = self.push(name, id, parent, Instant::now(), false);
        self.stack.push(span);
        span
    }

    /// Closes the innermost open span (which must be `span`).
    pub fn exit(&mut self, span: SpanId) {
        if span == NO_SPAN {
            return;
        }
        let end = self.ns(Instant::now());
        assert_eq!(self.stack.pop(), Some(span), "spans exit innermost first");
        self.spans[span].end_ns = end;
    }

    /// Opens a span off the call stack (a request in flight) that began at
    /// `start`. Close it with [`Self::close`].
    pub fn open(
        &mut self,
        name: &'static str,
        id: u64,
        parent: Option<SpanId>,
        start: Instant,
    ) -> SpanId {
        if !self.enabled {
            return NO_SPAN;
        }
        self.push(name, id, parent, start, true)
    }

    pub fn close(&mut self, span: SpanId, end: Instant) {
        if span != NO_SPAN {
            self.spans[span].end_ns = self.ns(end);
        }
    }

    /// Records a finished span under an explicit parent.
    pub fn complete(
        &mut self,
        name: &'static str,
        id: u64,
        parent: Option<SpanId>,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        if !self.enabled {
            return NO_SPAN;
        }
        let parent = parent.filter(|&p| p != NO_SPAN);
        let overlapped = parent.is_some_and(|p| self.spans[p].overlapped);
        let span = self.push(name, id, parent, start, overlapped);
        self.spans[span].end_ns = self.ns(end);
        span
    }

    fn push(
        &mut self,
        name: &'static str,
        id: u64,
        parent: Option<SpanId>,
        start: Instant,
        overlapped: bool,
    ) -> SpanId {
        let start_ns = self.ns(start);
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: parent.filter(|&p| p != NO_SPAN),
            id,
            overlapped,
        });
        self.spans.len() - 1
    }

    /// Self time of every span: its duration minus the part of that
    /// interval its children cover (overlapping children count once).
    pub fn self_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                let p = &self.spans[parent];
                let start = span.start_ns.max(p.start_ns);
                let end = span.end_ns.min(p.end_ns);
                if end > start {
                    children[parent].push((start, end));
                }
            }
        }
        self.spans
            .iter()
            .zip(&mut children)
            .map(|(span, kids)| {
                kids.sort_unstable();
                let mut covered = 0u64;
                let mut reach = span.start_ns;
                for &(start, end) in kids.iter() {
                    let start = start.max(reach);
                    if end > start {
                        covered += end - start;
                        reach = end;
                    }
                }
                span.duration_ns() - covered
            })
            .collect()
    }

    /// Durations in microseconds of every span with this name.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        #[allow(clippy::cast_precision_loss)]
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e3)
            .collect()
    }

    /// Chrome trace-event JSON (opens in Perfetto / `chrome://tracing`).
    /// Stack spans are complete events on one track; overlapped spans are
    /// async begin/end pairs keyed by the request id, so a request's
    /// children line up under it.
    pub fn to_chrome_json(&self, process: &str) -> String {
        let mut out = String::with_capacity(64 + self.spans.len() * 160);
        let _ = write!(
            out,
            "{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\
             {{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"args\":{{\"name\":\"{}\"}}}},\
             {{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,\"args\":{{\"name\":\"load-generator\"}}}}",
            tincy_json::escape(process)
        );
        #[allow(clippy::cast_precision_loss)]
        let us = |ns: u64| ns as f64 / 1e3;
        for (i, span) in self.spans.iter().enumerate() {
            let parent = span
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let args = format!(
                "{{\"id\":{},\"span\":{},\"parent\":{}}}",
                span.id, i, parent
            );
            if span.overlapped {
                let _ = write!(
                    out,
                    ",{{\"name\":\"{n}\",\"cat\":\"request\",\"ph\":\"b\",\"id\":{id},\"ts\":{ts:.3},\"pid\":1,\"tid\":2,\"args\":{args}}}\
                     ,{{\"name\":\"{n}\",\"cat\":\"request\",\"ph\":\"e\",\"id\":{id},\"ts\":{te:.3},\"pid\":1,\"tid\":2}}",
                    n = span.name,
                    id = span.id,
                    ts = us(span.start_ns),
                    te = us(span.end_ns),
                );
            } else {
                let _ = write!(
                    out,
                    ",{{\"name\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":1,\"args\":{}}}",
                    span.name,
                    us(span.start_ns),
                    us(span.duration_ns()),
                    args
                );
            }
        }
        out.push_str("]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    /// A recorder with hand-placed spans (nanoseconds from the origin).
    fn recorder(spans: &[(&'static str, u64, u64, Option<SpanId>)]) -> Recorder {
        let mut rec = Recorder::new(true);
        let origin = rec.origin;
        for &(name, start, end, parent) in spans {
            rec.complete(
                name,
                7,
                parent,
                origin + Duration::from_nanos(start),
                origin + Duration::from_nanos(end),
            );
        }
        rec
    }

    #[test]
    fn self_time_subtracts_nested_and_adjacent_children() {
        let rec = recorder(&[
            ("frame", 0, 100, None),
            ("a", 10, 30, Some(0)),
            ("b", 30, 60, Some(0)), // adjacent to a
            ("a.inner", 12, 20, Some(1)),
        ]);
        assert_eq!(rec.self_ns(), vec![50, 12, 30, 8]);
    }

    #[test]
    fn overlapping_children_are_counted_once_and_clipped_to_the_parent() {
        let rec = recorder(&[
            ("request", 100, 200, None),
            ("submit", 90, 120, Some(0)),     // starts before the parent
            ("wait", 110, 180, Some(0)),      // overlaps submit
            ("late", 190, 260, Some(0)),      // runs past the parent
            ("elsewhere", 300, 400, Some(0)), // entirely outside
        ]);
        // covered: [100,180] + [190,200] = 90
        assert_eq!(rec.self_ns()[0], 10);
    }

    #[test]
    fn stack_spans_take_the_innermost_open_span_as_parent() {
        let mut rec = Recorder::new(true);
        let outer = rec.enter("outer", 1);
        let inner = rec.enter("inner", 1);
        rec.exit(inner);
        rec.exit(outer);
        let next = rec.enter("next", 2);
        rec.exit(next);
        assert_eq!(rec.spans()[inner].parent, Some(outer));
        assert_eq!(rec.spans()[outer].parent, None);
        assert_eq!(rec.spans()[next].parent, None);
    }

    #[test]
    fn a_disabled_recorder_records_nothing() {
        let mut rec = Recorder::new(false);
        let span = rec.enter("x", 1);
        rec.exit(span);
        let open = rec.open("y", 2, None, Instant::now());
        rec.close(open, Instant::now());
        rec.complete("z", 3, Some(open), Instant::now(), Instant::now());
        assert!(rec.spans().is_empty());
    }

    #[test]
    fn chrome_json_parses_and_children_share_the_request_id() {
        let mut rec = Recorder::new(true);
        let t = Instant::now();
        let request = rec.open("request", 42, None, t);
        rec.complete("submit", 42, Some(request), t, t + Duration::from_micros(5));
        rec.close(request, t + Duration::from_micros(50));
        let doc = tincy_json::parse(&rec.to_chrome_json("unit")).expect("valid JSON");
        let events = doc.get("traceEvents").and_then(|e| e.as_arr()).unwrap();
        // 2 metadata + (b, e) for the request + (b, e) for its child.
        assert_eq!(events.len(), 6);
        let child = events
            .iter()
            .find(|e| e.get("name").and_then(|n| n.as_str()) == Some("submit"))
            .unwrap();
        let args = child.get("args").unwrap();
        assert_eq!(args.get("id").and_then(|v| v.as_f64()), Some(42.0));
        assert_eq!(args.get("parent").and_then(|v| v.as_f64()), Some(0.0));
    }
}
