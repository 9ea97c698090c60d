//! Chrome trace-event export and import.
//!
//! The exporter writes the JSON array format understood by
//! `chrome://tracing` and Perfetto: matched spans become complete `"X"`
//! events (microsecond `ts`/`dur`), instants become `"i"` events with
//! thread scope, and typed attributes land in `args`. JSON is hand-rolled
//! (same house style as `crates/serve/src/json.rs` — no serde); the
//! importer reconstructs a [`Trace`] via the minimal parser in
//! [`crate::json`].

use crate::data::Trace;
use crate::event::{Attrs, Backend, Event, EventKind, Label};
use crate::json::{parse, JsonValue};
use std::collections::{BTreeSet, HashMap};
use std::fmt::Write as _;
use tincy_json::escape_into;

const CATEGORY: &str = "tincy";

/// Identity of the recorder that wrote a segment, embedded in the
/// exported JSON's `otherData` so stitching can tell apart segments that
/// came from different processes/shards sharing one directory.
#[derive(Debug, Clone)]
pub(crate) struct SegmentOrigin {
    /// Writing process (its pid rendered as a string).
    pub process: String,
    /// Fleet shard index, when the recording session declared one.
    pub shard: Option<u32>,
}

/// Serializes the trace to Chrome trace-event JSON (object form with a
/// `traceEvents` array, `displayTimeUnit: "ns"`).
pub fn to_chrome_json(trace: &Trace) -> String {
    render_chrome_json(trace, None)
}

pub(crate) fn render_chrome_json(trace: &Trace, origin: Option<&SegmentOrigin>) -> String {
    let mut out = String::new();
    out.push_str("{\"displayTimeUnit\":\"ns\",");
    if let Some(origin) = origin {
        out.push_str("\"otherData\":{\"process\":\"");
        escape_into(&mut out, &origin.process);
        out.push('"');
        if let Some(shard) = origin.shard {
            let _ = write!(out, ",\"shard\":\"{shard}\"");
        }
        out.push_str("},");
    }
    out.push_str("\"traceEvents\":[");
    let mut first = true;
    // Perfetto track names: one thread_name metadata event per named
    // thread, so workers show up as named tracks instead of raw tids.
    for (tid, name) in trace.thread_names.iter().enumerate() {
        if name.is_empty() {
            continue;
        }
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(
            out,
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\"args\":{{\"name\":\""
        );
        escape_into(&mut out, name);
        out.push_str("\"}}");
    }
    for span in trace.spans_lossy() {
        emit_event(
            &mut out,
            &mut first,
            trace.label_name(span.label),
            "X",
            span.start_ns,
            Some(span.end_ns.saturating_sub(span.start_ns)),
            span.thread,
            &span.attrs,
            trace,
        );
    }
    for instant in trace.instants() {
        emit_event(
            &mut out,
            &mut first,
            trace.label_name(instant.label),
            "i",
            instant.t_ns,
            None,
            instant.thread,
            &instant.attrs,
            trace,
        );
    }
    for flow in trace.flows() {
        let phase = if flow.kind == EventKind::FlowStart {
            "s"
        } else {
            "f"
        };
        emit_event(
            &mut out,
            &mut first,
            trace.label_name(flow.label),
            phase,
            flow.t_ns,
            None,
            flow.thread,
            &flow.attrs,
            trace,
        );
    }
    out.push_str("]}");
    out
}

#[allow(clippy::too_many_arguments)]
fn emit_event(
    out: &mut String,
    first: &mut bool,
    name: &str,
    phase: &str,
    t_ns: u64,
    dur_ns: Option<u64>,
    tid: u32,
    attrs: &Attrs,
    trace: &Trace,
) {
    if !*first {
        out.push(',');
    }
    *first = false;
    out.push_str("{\"name\":\"");
    escape_into(out, name);
    let _ = write!(
        out,
        "\",\"cat\":\"{CATEGORY}\",\"ph\":\"{phase}\",\"ts\":{}",
        micros(t_ns)
    );
    if let Some(dur) = dur_ns {
        let _ = write!(out, ",\"dur\":{}", micros(dur));
    }
    if phase == "i" {
        out.push_str(",\"s\":\"t\"");
    }
    if phase == "s" || phase == "f" {
        // Perfetto joins flow arrows by id; ours is the trace id (hex —
        // 64-bit ids do not survive a JSON f64 round trip as numbers).
        let _ = write!(out, ",\"id\":\"{:016x}\"", attrs.trace.unwrap_or(0));
        if phase == "f" {
            out.push_str(",\"bp\":\"e\"");
        }
    }
    let _ = write!(out, ",\"pid\":1,\"tid\":{tid}");
    if !attrs.is_empty() {
        out.push_str(",\"args\":{");
        let mut first_arg = true;
        fn arg_u64(out: &mut String, first_arg: &mut bool, key: &str, value: Option<u64>) {
            if let Some(value) = value {
                if !*first_arg {
                    out.push(',');
                }
                *first_arg = false;
                let _ = write!(out, "\"{key}\":{value}");
            }
        }
        // Hex-string form for 64-bit ids (see the flow id note above).
        fn arg_hex(out: &mut String, first_arg: &mut bool, key: &str, value: Option<u64>) {
            if let Some(value) = value {
                if !*first_arg {
                    out.push(',');
                }
                *first_arg = false;
                let _ = write!(out, "\"{key}\":\"{value:016x}\"");
            }
        }
        arg_u64(out, &mut first_arg, "frame", attrs.frame);
        arg_u64(out, &mut first_arg, "request", attrs.request);
        arg_u64(out, &mut first_arg, "layer", attrs.layer.map(u64::from));
        arg_u64(out, &mut first_arg, "batch", attrs.batch.map(u64::from));
        arg_u64(out, &mut first_arg, "attempt", attrs.attempt.map(u64::from));
        arg_u64(out, &mut first_arg, "cycles", attrs.cycles);
        arg_u64(out, &mut first_arg, "shard", attrs.shard.map(u64::from));
        arg_hex(out, &mut first_arg, "trace", attrs.trace);
        arg_hex(out, &mut first_arg, "parent", attrs.parent);
        if let Some(backend) = attrs.backend {
            if !first_arg {
                out.push(',');
            }
            first_arg = false;
            let _ = write!(out, "\"backend\":\"{}\"", backend.label());
        }
        if let Some(fault) = attrs.fault {
            if !first_arg {
                out.push(',');
            }
            first_arg = false;
            out.push_str("\"fault\":\"");
            escape_into(out, trace.label_name(fault));
            out.push('"');
        }
        if let Some(variant) = attrs.variant {
            if !first_arg {
                out.push(',');
            }
            first_arg = false;
            out.push_str("\"variant\":\"");
            escape_into(out, trace.label_name(variant));
            out.push('"');
        }
        if let Some(links) = attrs.links {
            if !first_arg {
                out.push(',');
            }
            out.push_str("\"links\":[");
            for (i, id) in trace.link_requests(links).iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{id}");
            }
            out.push(']');
        }
        out.push('}');
    }
    out.push('}');
}

/// Nanoseconds as a microsecond decimal with nanosecond resolution.
fn micros(ns: u64) -> String {
    format!("{}.{:03}", ns / 1_000, ns % 1_000)
}

/// Parses Chrome trace-event JSON (as produced by [`to_chrome_json`],
/// tolerant of the bare-array form and of unknown phases) back into a
/// [`Trace`]. Complete `"X"` events are split back into Begin/End pairs.
///
/// # Errors
///
/// A message describing the malformed construct.
pub fn from_chrome_json(text: &str) -> Result<Trace, String> {
    let mut assembly = TraceAssembly::new();
    assembly.ingest(text)?;
    Ok(assembly.into_trace())
}

struct SpanRec {
    start: u64,
    end: u64,
    label: Label,
    attrs: Attrs,
}

/// Incremental importer: ingests one or more Chrome trace-event JSON
/// documents — the segments of one recording session — and assembles a
/// single [`Trace`]. Labels, link sets and thread names are merged
/// across documents; [`Self::into_trace`] rebuilds the Begin/End stream.
/// This is what segment stitching ([`crate::stitch_segments`]) and the
/// single-file [`from_chrome_json`] share.
pub(crate) struct TraceAssembly {
    labels: Vec<String>,
    by_name: HashMap<String, u32>,
    spans: HashMap<u32, Vec<SpanRec>>,
    instants: Vec<Event>,
    thread_names: Vec<String>,
    links: Vec<Vec<u64>>,
    max_thread: Option<u32>,
    /// Distinct `otherData.process` tags seen across ingested documents.
    /// More than one means the directory mixes recordings from different
    /// processes, which cannot be interleaved without shard labels.
    pub(crate) processes: BTreeSet<String>,
}

impl TraceAssembly {
    pub(crate) fn new() -> Self {
        Self {
            labels: Vec::new(),
            by_name: HashMap::new(),
            spans: HashMap::new(),
            instants: Vec::new(),
            thread_names: Vec::new(),
            links: Vec::new(),
            max_thread: None,
            processes: BTreeSet::new(),
        }
    }

    fn intern(&mut self, name: &str) -> Label {
        if let Some(&id) = self.by_name.get(name) {
            return Label(id);
        }
        let id = u32::try_from(self.labels.len()).expect("label space exhausted");
        self.labels.push(name.to_string());
        self.by_name.insert(name.to_string(), id);
        Label(id)
    }

    /// Parses one Chrome trace-event document into the assembly.
    ///
    /// # Errors
    ///
    /// A message describing the malformed construct.
    pub(crate) fn ingest(&mut self, text: &str) -> Result<(), String> {
        let root = parse(text)?;
        if let Some(process) = root
            .get("otherData")
            .and_then(|data| data.get("process"))
            .and_then(JsonValue::as_str)
        {
            self.processes.insert(process.to_string());
        }
        let events_json = match &root {
            JsonValue::Arr(items) => items,
            JsonValue::Obj(_) => match root.get("traceEvents") {
                Some(JsonValue::Arr(items)) => items,
                _ => return Err("missing traceEvents array".to_string()),
            },
            _ => return Err("trace file is neither an object nor an array".to_string()),
        };
        for item in events_json {
            let phase = item.get("ph").and_then(JsonValue::as_str).unwrap_or("");
            if phase == "M" {
                self.ingest_metadata(item);
                continue;
            }
            let point_kind = match phase {
                "X" => None,
                "i" => Some(EventKind::Instant),
                "s" => Some(EventKind::FlowStart),
                "f" => Some(EventKind::FlowFinish),
                _ => continue, // other phases are not ours
            };
            let name = item
                .get("name")
                .and_then(JsonValue::as_str)
                .ok_or("event without a name")?;
            let ts = item
                .get("ts")
                .and_then(JsonValue::as_f64)
                .ok_or("event without ts")?;
            let thread = tid_of(item);
            self.max_thread = Some(self.max_thread.map_or(thread, |m: u32| m.max(thread)));
            let t_ns = to_ns(ts);
            let label = self.intern(name);
            let mut attrs = self.parse_attrs(item.get("args"));
            if let Some(kind) = point_kind {
                if attrs.trace.is_none()
                    && matches!(kind, EventKind::FlowStart | EventKind::FlowFinish)
                {
                    // Foreign flow events carry the join id only at the
                    // top level; adopt it as the trace id.
                    attrs.trace = item
                        .get("id")
                        .and_then(JsonValue::as_str)
                        .and_then(|s| u64::from_str_radix(s, 16).ok());
                }
                self.instants.push(Event {
                    t_ns,
                    thread,
                    kind,
                    label,
                    attrs,
                });
            } else {
                let dur = item.get("dur").and_then(JsonValue::as_f64).unwrap_or(0.0);
                self.spans.entry(thread).or_default().push(SpanRec {
                    start: t_ns,
                    end: t_ns + to_ns(dur),
                    label,
                    attrs,
                });
            }
        }
        Ok(())
    }

    /// Thread-name metadata events restore Perfetto track names.
    fn ingest_metadata(&mut self, item: &JsonValue) {
        if item.get("name").and_then(JsonValue::as_str) != Some("thread_name") {
            return;
        }
        let Some(name) = item
            .get("args")
            .and_then(|args| args.get("name"))
            .and_then(JsonValue::as_str)
        else {
            return;
        };
        let tid = tid_of(item) as usize;
        if self.thread_names.len() <= tid {
            self.thread_names.resize(tid + 1, String::new());
        }
        self.thread_names[tid] = name.to_string();
    }

    fn parse_attrs(&mut self, args: Option<&JsonValue>) -> Attrs {
        let mut attrs = Attrs::default();
        let Some(args) = args else {
            return attrs;
        };
        let as_u64 = |key: &str| -> Option<u64> {
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            args.get(key).and_then(JsonValue::as_f64).map(|v| v as u64)
        };
        #[allow(clippy::cast_possible_truncation)]
        let as_u32 = |key: &str| as_u64(key).map(|v| v as u32);
        // 64-bit ids travel as hex strings: `as_f64` would round them
        // through a double and corrupt the low bits.
        let as_hex = |key: &str| -> Option<u64> {
            args.get(key)
                .and_then(JsonValue::as_str)
                .and_then(|s| u64::from_str_radix(s, 16).ok())
        };
        attrs.frame = as_u64("frame");
        attrs.request = as_u64("request");
        attrs.layer = as_u32("layer");
        attrs.batch = as_u32("batch");
        attrs.attempt = as_u32("attempt");
        attrs.cycles = as_u64("cycles");
        attrs.shard = as_u32("shard");
        attrs.trace = as_hex("trace");
        attrs.parent = as_hex("parent");
        attrs.backend = args
            .get("backend")
            .and_then(JsonValue::as_str)
            .and_then(Backend::from_label);
        attrs.fault = args
            .get("fault")
            .and_then(JsonValue::as_str)
            .map(|name| self.intern(name));
        attrs.variant = args
            .get("variant")
            .and_then(JsonValue::as_str)
            .map(|name| self.intern(name));
        if let Some(JsonValue::Arr(items)) = args.get("links") {
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            let ids: Vec<u64> = items
                .iter()
                .filter_map(JsonValue::as_f64)
                .map(|v| v.max(0.0) as u64)
                .collect();
            let id = u32::try_from(self.links.len()).expect("link space exhausted");
            self.links.push(ids);
            attrs.links = Some(id);
        }
        attrs
    }

    /// Rebuilds each thread's Begin/End stream with an interval sweep:
    /// sorting spans (start asc, end desc) puts parents before children
    /// even when a deterministic clock made edges share a timestamp, so
    /// stack discipline survives the round trip.
    pub(crate) fn into_trace(mut self) -> Trace {
        let mut events = Vec::new();
        let mut thread_ids: Vec<u32> = self.spans.keys().copied().collect();
        thread_ids.sort_unstable();
        for thread in thread_ids {
            let mut recs = self.spans.remove(&thread).unwrap_or_default();
            recs.sort_by(|a, b| a.start.cmp(&b.start).then(b.end.cmp(&a.end)));
            let mut stack: Vec<(u64, Label)> = Vec::new();
            for rec in &recs {
                while let Some(&(end, label)) = stack.last() {
                    if end > rec.start {
                        break;
                    }
                    stack.pop();
                    events.push(Event {
                        t_ns: end,
                        thread,
                        kind: EventKind::End,
                        label,
                        attrs: Attrs::default(),
                    });
                }
                events.push(Event {
                    t_ns: rec.start,
                    thread,
                    kind: EventKind::Begin,
                    label: rec.label,
                    attrs: rec.attrs,
                });
                stack.push((rec.end, rec.label));
            }
            while let Some((end, label)) = stack.pop() {
                events.push(Event {
                    t_ns: end,
                    thread,
                    kind: EventKind::End,
                    label,
                    attrs: Attrs::default(),
                });
            }
        }
        events.extend(self.instants);
        // Stable: each thread's sweep output is already time-ordered, so
        // the global sort only interleaves threads (instants land after
        // edges sharing their timestamp, which nesting checks ignore).
        events.sort_by_key(|e| e.t_ns);
        let threads = self
            .max_thread
            .map_or(0, |m| m + 1)
            .max(u32::try_from(self.thread_names.len()).unwrap_or(u32::MAX));
        Trace {
            events,
            labels: self.labels,
            threads,
            thread_names: self.thread_names,
            links: self.links,
            dropped: 0,
        }
    }
}

fn tid_of(item: &JsonValue) -> u32 {
    let tid = item.get("tid").and_then(JsonValue::as_f64).unwrap_or(0.0);
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    {
        tid.max(0.0) as u32
    }
}

#[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
fn to_ns(micros: f64) -> u64 {
    (micros * 1_000.0).round().max(0.0) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::TestClock;
    use crate::collector::{exclusive, finish, start_with_clock};
    use crate::span::span;
    use std::sync::Arc;

    fn sample_trace() -> Trace {
        let clock = Arc::new(TestClock::new());
        start_with_clock(clock.clone(), 64);
        {
            let _outer = span(Label::intern("chrome.stage"))
                .frame(4)
                .backend(Backend::Finn)
                .start();
            clock.advance(1_500);
            {
                let _inner = span(Label::intern("chrome.layer"))
                    .layer(2)
                    .batch(3)
                    .start();
                clock.advance(2_000);
            }
            clock.advance(250);
            span(Label::intern("chrome.fault"))
                .attempt(1)
                .fault("dma timeout")
                .variant("unrolled4")
                .emit();
            clock.advance(250);
        }
        finish()
    }

    #[test]
    fn export_emits_complete_and_instant_events() {
        let _guard = exclusive();
        let trace = sample_trace();
        let json = to_chrome_json(&trace);
        assert!(json.starts_with("{\"displayTimeUnit\":\"ns\",\"traceEvents\":["));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ph\":\"i\""));
        assert!(json.contains("\"backend\":\"finn\""));
        assert!(json.contains("\"fault\":\"dma timeout\""));
        assert!(json.contains("\"dur\":2.000"), "inner span is 2 µs: {json}");
    }

    #[test]
    fn round_trip_preserves_spans_and_attrs() {
        let _guard = exclusive();
        let trace = sample_trace();
        let parsed = from_chrome_json(&to_chrome_json(&trace)).unwrap();
        parsed.check().unwrap();
        let original = trace.spans().unwrap();
        let restored = parsed.spans().unwrap();
        assert_eq!(original.len(), restored.len());
        for span in &restored {
            let name = parsed.label_name(span.label);
            let twin = original
                .iter()
                .find(|s| trace.label_name(s.label) == name)
                .expect("span survives round trip");
            assert_eq!(span.duration_ns(), twin.duration_ns());
            assert_eq!(span.attrs.frame, twin.attrs.frame);
            assert_eq!(span.attrs.layer, twin.attrs.layer);
            assert_eq!(span.attrs.backend, twin.attrs.backend);
        }
        let fault = parsed
            .instants()
            .find(|e| parsed.label_name(e.label) == "chrome.fault")
            .expect("instant survives round trip");
        assert_eq!(
            fault.attrs.fault.map(|l| parsed.label_name(l).to_string()),
            Some("dma timeout".to_string())
        );
        assert_eq!(
            fault
                .attrs
                .variant
                .map(|l| parsed.label_name(l).to_string()),
            Some("unrolled4".to_string())
        );
        assert_eq!(fault.attrs.attempt, Some(1));
    }

    #[test]
    fn thread_names_and_links_round_trip() {
        let _guard = exclusive();
        start_with_clock(Arc::new(TestClock::new()), 64);
        let worker = std::thread::Builder::new()
            .name("chrome-worker".to_string())
            .spawn(|| {
                let _batch = span(Label::intern("chrome.batch"))
                    .batch(3)
                    .link_requests(&[7, 11, 13])
                    .start();
            })
            .unwrap();
        worker.join().unwrap();
        let trace = finish();
        assert_eq!(trace.thread_name(0), Some("chrome-worker"));
        let json = to_chrome_json(&trace);
        assert!(
            json.contains("\"ph\":\"M\""),
            "thread_name metadata: {json}"
        );
        assert!(json.contains("\"links\":[7,11,13]"), "{json}");

        let parsed = from_chrome_json(&json).unwrap();
        assert_eq!(parsed.thread_name(0), Some("chrome-worker"));
        let spans = parsed.spans().unwrap();
        assert_eq!(spans.len(), 1);
        let link = spans[0].attrs.links.expect("link id survives");
        assert_eq!(parsed.link_requests(link), &[7, 11, 13]);
    }

    #[test]
    fn trace_ids_and_flows_round_trip_exactly() {
        let _guard = exclusive();
        // Both ids deliberately exceed f64's 53-bit mantissa: a numeric
        // JSON round trip would corrupt them, the hex form must not.
        let ctx = crate::TraceContext {
            trace_id: 0xffee_ddcc_bbaa_9988,
            parent_span_id: 0x0123_4567_89ab_cdef,
        };
        let clock = Arc::new(TestClock::new());
        start_with_clock(clock.clone(), 64);
        span(Label::intern("chrome.route"))
            .context(Some(ctx))
            .shard(1)
            .emit_flow_start();
        clock.advance(500);
        {
            let _serve = span(Label::intern("chrome.serve"))
                .context(Some(ctx))
                .shard(1)
                .start();
            clock.advance(1_000);
        }
        span(Label::intern("chrome.route"))
            .trace(ctx.trace_id)
            .emit_flow_finish();
        let trace = finish();
        let json = to_chrome_json(&trace);
        assert!(
            json.contains(&format!("\"id\":\"{}\"", ctx.trace_hex())),
            "flow join id is the hex trace id: {json}"
        );
        assert!(json.contains("\"ph\":\"s\""), "{json}");
        assert!(json.contains("\"bp\":\"e\""), "{json}");
        let parsed = from_chrome_json(&json).unwrap();
        let spans = parsed.spans().unwrap();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].attrs.trace, Some(ctx.trace_id));
        assert_eq!(spans[0].attrs.parent, Some(ctx.parent_span_id));
        assert_eq!(spans[0].attrs.shard, Some(1));
        let flows: Vec<_> = parsed.flows().collect();
        assert_eq!(flows.len(), 2);
        assert_eq!(flows[0].kind, EventKind::FlowStart);
        assert_eq!(flows[1].kind, EventKind::FlowFinish);
        for flow in flows {
            assert_eq!(flow.attrs.trace, Some(ctx.trace_id));
        }
    }

    #[test]
    fn foreign_flow_events_adopt_the_top_level_join_id() {
        let parsed = from_chrome_json(
            "[{\"name\":\"hop\",\"ph\":\"s\",\"ts\":1.0,\"id\":\"00ff00ff00ff00ff\",\
              \"pid\":1,\"tid\":0}]",
        )
        .unwrap();
        let flows: Vec<_> = parsed.flows().collect();
        assert_eq!(flows.len(), 1);
        assert_eq!(flows[0].attrs.trace, Some(0x00ff_00ff_00ff_00ff));
    }

    #[test]
    fn bare_array_form_is_accepted() {
        let parsed = from_chrome_json(
            "[{\"name\":\"x\",\"ph\":\"X\",\"ts\":1.0,\"dur\":2.0,\"pid\":1,\"tid\":0},\
             {\"name\":\"meta\",\"ph\":\"M\",\"ts\":0,\"pid\":1,\"tid\":0}]",
        )
        .unwrap();
        assert_eq!(parsed.spans().unwrap().len(), 1);
        assert_eq!(parsed.events.len(), 2, "metadata events are skipped");
    }
}
