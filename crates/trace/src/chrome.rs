//! Chrome trace-event export and import.
//!
//! The exporter writes the JSON array format understood by
//! `chrome://tracing` and Perfetto: matched spans become complete `"X"`
//! events (microsecond `ts`/`dur`), instants become `"i"` events with
//! thread scope, and typed attributes land in `args`. A trace that lost
//! events to a full ring says how many in `otherData.dropped`. The syntax
//! goes through the shared `tincy-json` writer and parser (no serde).

use crate::data::Trace;
use crate::event::{Attrs, Backend, Event, EventKind, Label};
use std::collections::HashMap;
use tincy_json::{array_u64, parse, JsonArray, JsonObject, JsonValue};

const CATEGORY: &str = "tincy";

/// Serializes the trace to Chrome trace-event JSON (object form with a
/// `traceEvents` array, `displayTimeUnit: "ns"`, and
/// `otherData: {"dropped": N}` when the recorder overwrote N > 0 events).
pub fn to_chrome_json(trace: &Trace) -> String {
    let mut events = JsonArray::new();
    // Perfetto track names: one thread_name metadata event per named
    // thread, so workers show up as named tracks instead of raw tids.
    for (tid, name) in trace.thread_names.iter().enumerate() {
        if !name.is_empty() {
            let event = JsonObject::new()
                .str("name", "thread_name")
                .str("ph", "M")
                .u64("pid", 1)
                .u64("tid", tid as u64)
                .raw("args", &JsonObject::new().str("name", name).finish());
            events.raw(&event.finish());
        }
    }
    let spans = trace.spans_lossy();
    let complete = spans.iter().map(|s| {
        let dur = s.end_ns.saturating_sub(s.start_ns);
        ("X", s.label, s.start_ns, Some(dur), s.thread, &s.attrs)
    });
    let points = trace.instants().chain(trace.flows()).map(|e| {
        let phase = match e.kind {
            EventKind::FlowStart => "s",
            EventKind::FlowFinish => "f",
            _ => "i",
        };
        (phase, e.label, e.t_ns, None, e.thread, &e.attrs)
    });
    for (phase, label, t_ns, dur_ns, tid, attrs) in complete.chain(points) {
        let mut event = JsonObject::new()
            .str("name", trace.label_name(label))
            .str("cat", CATEGORY)
            .str("ph", phase)
            .raw("ts", &micros(t_ns));
        if let Some(dur) = dur_ns {
            event = event.raw("dur", &micros(dur));
        }
        if phase == "i" {
            event = event.str("s", "t");
        }
        if phase == "s" || phase == "f" {
            // Perfetto joins flow arrows by id; ours is the trace id (hex —
            // 64-bit ids do not survive a JSON f64 round trip as numbers).
            event = event.str("id", &hex(attrs.trace.unwrap_or(0)));
            if phase == "f" {
                event = event.str("bp", "e");
            }
        }
        event = event.u64("pid", 1).u64("tid", u64::from(tid));
        if !attrs.is_empty() {
            event = event.raw("args", &args_json(trace, attrs));
        }
        events.raw(&event.finish());
    }
    let mut root = JsonObject::new().str("displayTimeUnit", "ns");
    if trace.dropped > 0 {
        let data = JsonObject::new().u64("dropped", trace.dropped);
        root = root.raw("otherData", &data.finish());
    }
    root.raw("traceEvents", &events.finish()).finish()
}

fn args_json(trace: &Trace, attrs: &Attrs) -> String {
    let numbers = [
        ("frame", attrs.frame),
        ("request", attrs.request),
        ("layer", attrs.layer.map(u64::from)),
        ("batch", attrs.batch.map(u64::from)),
        ("attempt", attrs.attempt.map(u64::from)),
        ("cycles", attrs.cycles),
        ("shard", attrs.shard.map(u64::from)),
    ];
    // Hex-string form for 64-bit ids (see the flow id note above).
    let ids = [("trace", attrs.trace), ("parent", attrs.parent)];
    let names = [
        ("backend", attrs.backend.map(Backend::label)),
        ("fault", attrs.fault.map(|l| trace.label_name(l))),
        ("variant", attrs.variant.map(|l| trace.label_name(l))),
    ];
    let mut args = JsonObject::new();
    for (key, value) in numbers {
        if let Some(value) = value {
            args = args.u64(key, value);
        }
    }
    for (key, value) in ids {
        if let Some(value) = value {
            args = args.str(key, &hex(value));
        }
    }
    for (key, value) in names {
        if let Some(value) = value {
            args = args.str(key, value);
        }
    }
    if let Some(links) = attrs.links {
        args = args.raw("links", &array_u64(trace.link_requests(links)));
    }
    args.finish()
}

/// A trace or span id as exported: zero-padded lowercase hex (64-bit ids do not
/// survive a JSON f64 round trip as numbers, so they travel as strings).
fn hex(id: u64) -> String {
    format!("{id:016x}")
}

/// Nanoseconds as a microsecond decimal with nanosecond resolution.
fn micros(ns: u64) -> String {
    format!("{}.{:03}", ns / 1_000, ns % 1_000)
}

/// Parses Chrome trace-event JSON (as produced by [`to_chrome_json`],
/// tolerant of the bare-array form and of unknown phases) back into a
/// [`Trace`]. Complete `"X"` events are split back into Begin/End pairs,
/// and `otherData.dropped` becomes [`Trace::dropped`].
///
/// # Errors
///
/// A message describing the malformed construct.
pub fn from_chrome_json(text: &str) -> Result<Trace, String> {
    let root = parse(text)?;
    let events = match &root {
        JsonValue::Arr(items) => items,
        JsonValue::Obj(_) => match root.get("traceEvents") {
            Some(JsonValue::Arr(items)) => items,
            _ => return Err("missing traceEvents array".to_string()),
        },
        _ => return Err("trace file is neither an object nor an array".to_string()),
    };
    let mut assembly = TraceAssembly::default();
    assembly.ingest(events)?;
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let dropped = root
        .get("otherData")
        .and_then(|data| data.get("dropped"))
        .and_then(JsonValue::as_f64)
        .map_or(0, |n| n.max(0.0) as u64);
    Ok(assembly.into_trace(dropped))
}

struct SpanRec {
    start: u64,
    end: u64,
    label: Label,
    attrs: Attrs,
}

/// The importer's state while it walks one document's events: labels and
/// link sets interned in order of appearance, spans grouped per thread
/// for [`Self::into_trace`] to rebuild the Begin/End stream.
#[derive(Default)]
struct TraceAssembly {
    labels: Vec<String>,
    by_name: HashMap<String, u32>,
    spans: HashMap<u32, Vec<SpanRec>>,
    instants: Vec<Event>,
    thread_names: Vec<String>,
    links: Vec<Vec<u64>>,
    max_thread: Option<u32>,
}

impl TraceAssembly {
    fn intern(&mut self, name: &str) -> Label {
        if let Some(&id) = self.by_name.get(name) {
            return Label(id);
        }
        let id = u32::try_from(self.labels.len()).expect("label space exhausted");
        self.labels.push(name.to_string());
        self.by_name.insert(name.to_string(), id);
        Label(id)
    }

    /// Adds one document's events; an event without a name or `ts` is an
    /// error.
    fn ingest(&mut self, events: &[JsonValue]) -> Result<(), String> {
        for item in events {
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
                    end: t_ns.saturating_add(to_ns(dur)),
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
    fn into_trace(mut self, dropped: u64) -> Trace {
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
            .map_or(0, |m| m.saturating_add(1))
            .max(u32::try_from(self.thread_names.len()).unwrap_or(u32::MAX));
        Trace {
            events,
            labels: self.labels,
            threads,
            thread_names: self.thread_names,
            links: self.links,
            dropped,
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
    fn hex_ids_are_fixed_width_lowercase() {
        assert_eq!(hex(0xab), "00000000000000ab");
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

    /// The exporter's exact bytes: a named thread, a span carrying every
    /// attribute, an instant and a flow pair, and no `otherData` when
    /// nothing was dropped.
    #[test]
    fn export_bytes_are_pinned() {
        let _guard = exclusive();
        let clock = Arc::new(TestClock::new());
        start_with_clock(clock.clone(), 64);
        std::thread::Builder::new()
            .name("pin \"worker\"".to_string())
            .spawn(move || {
                let id = 0xffee_ddcc_bbaa_9988;
                span(Label::intern("pin.hop")).trace(id).emit_flow_start();
                clock.advance(500);
                {
                    let _all = span(Label::intern("pin \"span\""))
                        .frame(4)
                        .request(9)
                        .layer(2)
                        .batch(3)
                        .attempt(1)
                        .cycles(52_480)
                        .shard(1)
                        .trace(id)
                        .parent(0x0123_4567_89ab_cdef)
                        .backend(Backend::Finn)
                        .fault("dma\ttimeout")
                        .variant("cheap-32")
                        .link_requests(&[7, 11])
                        .start();
                    clock.advance(1_250);
                }
                span(Label::intern("pin.instant")).emit();
                span(Label::intern("pin.hop")).trace(id).emit_flow_finish();
            })
            .unwrap()
            .join()
            .unwrap();
        let trace = finish();
        let events = concat!(
            r#""traceEvents":[{"name":"thread_name","ph":"M","pid":1,"tid":0,"#,
            r#""args":{"name":"pin \"worker\""}},"#,
            r#"{"name":"pin \"span\"","cat":"tincy","ph":"X","ts":0.500,"dur":1.250,"#,
            r#""pid":1,"tid":0,"args":{"frame":4,"request":9,"layer":2,"batch":3,"#,
            r#""attempt":1,"cycles":52480,"shard":1,"trace":"ffeeddccbbaa9988","#,
            r#""parent":"0123456789abcdef","backend":"finn","fault":"dma\ttimeout","#,
            r#""variant":"cheap-32","links":[7,11]}},"#,
            r#"{"name":"pin.instant","cat":"tincy","ph":"i","ts":1.750,"s":"t","pid":1,"tid":0},"#,
            r#"{"name":"pin.hop","cat":"tincy","ph":"s","ts":0.000,"id":"ffeeddccbbaa9988","#,
            r#""pid":1,"tid":0,"args":{"trace":"ffeeddccbbaa9988"}},"#,
            r#"{"name":"pin.hop","cat":"tincy","ph":"f","ts":1.750,"id":"ffeeddccbbaa9988","#,
            r#""bp":"e","pid":1,"tid":0,"args":{"trace":"ffeeddccbbaa9988"}}]}"#,
        );
        assert_eq!(
            to_chrome_json(&trace),
            format!(r#"{{"displayTimeUnit":"ns",{events}"#)
        );
    }

    /// A ring of two that saw five instants overwrote three; the file says
    /// so and the importer reads it back.
    #[test]
    fn drop_count_survives_the_round_trip() {
        let _guard = exclusive();
        start_with_clock(Arc::new(TestClock::new()), 2);
        for _ in 0..5 {
            span(Label::intern("chrome.lossy")).emit();
        }
        let trace = finish();
        assert_eq!(trace.dropped, 3);
        let json = to_chrome_json(&trace);
        assert!(
            json.starts_with(r#"{"displayTimeUnit":"ns","otherData":{"dropped":3},"#),
            "{json}"
        );
        let parsed = from_chrome_json(&json).unwrap();
        assert_eq!((parsed.dropped, parsed.events.len()), (3, 2));
    }

    /// Damaged input is an error, never a panic: every byte-prefix of a
    /// real session's file fails to import, and a fixed set of
    /// single-byte substitutions goes through the importer unharmed.
    #[test]
    fn damaged_files_are_errors_not_panics() {
        let _guard = exclusive();
        let clock = Arc::new(TestClock::new());
        // Five events fit; the first one is overwritten.
        start_with_clock(clock.clone(), 5);
        span(Label::intern("chrome.lost")).emit();
        clock.advance(2_000);
        let outer = span(Label::intern("chrome.outer")).frame(1).start();
        clock.advance(500);
        span(Label::intern("chrome.mark")).layer(2).emit();
        clock.advance(1_250);
        drop(outer);
        let id = 0xffee_ddcc_bbaa_9988;
        span(Label::intern("chrome.hop"))
            .trace(id)
            .emit_flow_start();
        span(Label::intern("chrome.batch"))
            .request(3)
            .batch(2)
            .shard(1)
            .variant("cheap")
            .fault("dma timeout")
            .link_requests(&[1, 2])
            .trace(id)
            .emit_flow_finish();
        let trace = finish();
        assert_eq!(trace.dropped, 1, "the file carries otherData too");
        let text = to_chrome_json(&trace);
        assert!(from_chrome_json(&text).is_ok());
        for end in 0..text.len() {
            assert!(from_chrome_json(&text[..end]).is_err(), "prefix {end}");
        }
        let mut bytes = text.into_bytes();
        for i in 0..bytes.len() {
            let original = bytes[i];
            for b in *b"\"{}[],:-9e" {
                bytes[i] = b;
                let _ = from_chrome_json(std::str::from_utf8(&bytes).unwrap());
            }
            bytes[i] = original;
        }
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
            json.contains(&format!("\"id\":\"{}\"", hex(ctx.trace_id))),
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
