//! Chrome trace-event export and import.
//!
//! The exporter writes the JSON array format understood by
//! `chrome://tracing` and Perfetto: each span record becomes one complete
//! `"X"` event (microsecond `ts`/`dur`), instants become `"i"` events with
//! thread scope, flow edges `"s"`/`"f"`, and typed attributes land in
//! `args`. A trace that lost events to a full ring says how many in
//! `otherData.dropped`. The importer maps each of these events back to one
//! record, so a file round-trips to the trace it was written from. The
//! syntax goes through the shared `tincy-json` writer and parser (no
//! serde).

use crate::collector::sort_events;
use crate::data::Trace;
use crate::event::{Attrs, Backend, Event, EventKind, Label};
use std::collections::{BTreeMap, HashMap};
use tincy_json::{array_u64, parse, JsonArray, JsonObject, JsonValue};

const CATEGORY: &str = "tincy";

/// Serializes the trace to Chrome trace-event JSON (object form with a
/// `traceEvents` array, `displayTimeUnit: "ns"`, and
/// `otherData: {"dropped": N}` when the recorder overwrote N > 0 events).
pub fn to_chrome_json(trace: &Trace) -> String {
    let mut events = JsonArray::new();
    // Perfetto track names: one thread_name metadata event per named
    // thread, so workers show up as named tracks instead of raw tids.
    for (&tid, name) in &trace.thread_names {
        let event = JsonObject::new()
            .str("name", "thread_name")
            .str("ph", "M")
            .u64("pid", 1)
            .u64("tid", u64::from(tid))
            .raw("args", &JsonObject::new().str("name", name).finish());
        events.raw(&event.finish());
    }
    for e in &trace.events {
        let mut event = JsonObject::new()
            .str("name", trace.label_name(e.label))
            .str("cat", CATEGORY)
            .str("ph", phase(e.kind))
            .raw("ts", &micros(e.start_ns));
        match e.kind {
            EventKind::Span => event = event.raw("dur", &micros(e.duration_ns())),
            EventKind::Instant => event = event.str("s", "t"),
            // Perfetto joins flow arrows by id; ours is the trace id (hex —
            // 64-bit ids do not survive a JSON f64 round trip as numbers).
            EventKind::FlowStart => event = event.str("id", &hex(e.attrs.trace.unwrap_or(0))),
            EventKind::FlowFinish => {
                event = event
                    .str("id", &hex(e.attrs.trace.unwrap_or(0)))
                    .str("bp", "e");
            }
        }
        event = event.u64("pid", 1).u64("tid", u64::from(e.thread));
        if !e.attrs.is_empty() {
            event = event.raw("args", &args_json(trace, &e.attrs));
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

/// The Chrome phase of each record kind; the importer reads it back.
fn phase(kind: EventKind) -> &'static str {
    match kind {
        EventKind::Span => "X",
        EventKind::Instant => "i",
        EventKind::FlowStart => "s",
        EventKind::FlowFinish => "f",
    }
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
/// [`Trace`]: one record per `"X"`, `"i"`, `"s"` or `"f"` event, and
/// `otherData.dropped` becomes [`Trace::dropped`].
///
/// # Errors
///
/// A message describing the malformed construct.
pub fn from_chrome_json(text: &str) -> Result<Trace, String> {
    let root = parse(text)?;
    let items = match &root {
        JsonValue::Arr(items) => items,
        JsonValue::Obj(_) => match root.get("traceEvents") {
            Some(JsonValue::Arr(items)) => items,
            _ => return Err("missing traceEvents array".to_string()),
        },
        _ => return Err("trace file is neither an object nor an array".to_string()),
    };
    let mut import = Import::default();
    let mut events = Vec::new();
    let mut threads = 0;
    for item in items {
        let phase = item.get("ph").and_then(JsonValue::as_str).unwrap_or("");
        let kind = match phase {
            "M" => {
                import.metadata(item);
                continue;
            }
            "X" => EventKind::Span,
            "i" => EventKind::Instant,
            "s" => EventKind::FlowStart,
            "f" => EventKind::FlowFinish,
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
        threads = threads.max(thread.saturating_add(1));
        let start_ns = to_ns(ts);
        let dur = item.get("dur").and_then(JsonValue::as_f64).unwrap_or(0.0);
        let label = import.intern(name);
        let mut attrs = import.attrs(item.get("args"));
        if attrs.trace.is_none() && matches!(kind, EventKind::FlowStart | EventKind::FlowFinish) {
            // Foreign flow events carry the join id only at the top
            // level; adopt it as the trace id.
            attrs.trace = item
                .get("id")
                .and_then(JsonValue::as_str)
                .and_then(|s| u64::from_str_radix(s, 16).ok());
        }
        events.push(Event {
            start_ns,
            end_ns: match kind {
                EventKind::Span => start_ns.saturating_add(to_ns(dur)),
                _ => start_ns,
            },
            thread,
            kind,
            label,
            attrs,
        });
    }
    sort_events(&mut events);
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let dropped = root
        .get("otherData")
        .and_then(|data| data.get("dropped"))
        .and_then(JsonValue::as_f64)
        .map_or(0, |n| n.max(0.0) as u64);
    Ok(Trace {
        events,
        threads: import
            .thread_names
            .last_key_value()
            .map_or(threads, |(&tid, _)| threads.max(tid.saturating_add(1))),
        labels: import.labels,
        thread_names: import.thread_names,
        links: import.links,
        dropped,
    })
}

/// The tables the importer fills while it walks one document: labels and
/// link sets interned in order of appearance, and thread names.
#[derive(Default)]
struct Import {
    labels: Vec<String>,
    by_name: HashMap<String, u32>,
    thread_names: BTreeMap<u32, String>,
    links: Vec<Vec<u64>>,
}

impl Import {
    fn intern(&mut self, name: &str) -> Label {
        if let Some(&id) = self.by_name.get(name) {
            return Label(id);
        }
        let id = u32::try_from(self.labels.len()).expect("label space exhausted");
        self.labels.push(name.to_string());
        self.by_name.insert(name.to_string(), id);
        Label(id)
    }

    /// Thread-name metadata events restore Perfetto track names.
    fn metadata(&mut self, item: &JsonValue) {
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
        self.thread_names.insert(tid_of(item), name.to_string());
    }

    fn attrs(&mut self, args: Option<&JsonValue>) -> Attrs {
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
    use crate::context::TraceContext;
    use crate::journey::journeys;
    use crate::profile::Profile;
    use crate::span::span;
    use std::sync::{Arc, OnceLock};

    /// A session with every record kind, a named thread, span links,
    /// 64-bit ids and one overwritten event, as `--trace-out` writes it.
    fn recorded() -> Trace {
        let clock = Arc::new(TestClock::new());
        // Five events on this thread fit in four slots: the first is lost.
        start_with_clock(clock.clone(), 4);
        // Both ids exceed f64's 53-bit mantissa: a numeric JSON round trip
        // would corrupt them, the hex form must not.
        let ctx = TraceContext {
            trace_id: 0xffee_ddcc_bbaa_9988,
            parent_span_id: 0x0123_4567_89ab_cdef,
        };
        span(Label::intern("chrome.lost")).emit();
        span(Label::intern("chrome.route"))
            .trace(ctx.trace_id)
            .shard(0)
            .emit_flow_start();
        let worker_clock = Arc::clone(&clock);
        std::thread::Builder::new()
            .name("chrome-worker".to_string())
            .spawn(move || {
                let _batch = span(Label::intern("chrome.batch"))
                    .batch(2)
                    .shard(1)
                    .variant("cheap")
                    .context(Some(ctx))
                    .link_requests(&[7, 11])
                    .start();
                worker_clock.advance(1_500);
                {
                    let _layer = span(Label::intern("chrome.layer"))
                        .layer(2)
                        .cycles(52_480)
                        .backend(Backend::Finn)
                        .start();
                    worker_clock.advance(2_000);
                }
                span(Label::intern("chrome.fault"))
                    .attempt(1)
                    .fault("dma timeout")
                    .emit();
                worker_clock.advance(250);
            })
            .unwrap()
            .join()
            .unwrap();
        span(Label::intern("chrome.route"))
            .trace(ctx.trace_id)
            .emit_flow_finish();
        {
            let _stage = span(Label::intern("chrome.stage"))
                .frame(4)
                .request(9)
                .start();
            clock.advance(500);
        }
        span(Label::intern("chrome.mark")).emit();
        finish()
    }

    #[test]
    fn hex_ids_are_fixed_width_lowercase() {
        assert_eq!(hex(0xab), "00000000000000ab");
    }

    /// The exporter's exact bytes: a named thread, a span carrying every
    /// attribute, an instant and a flow pair in start order, and no
    /// `otherData` when nothing was dropped.
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
            r#"{"name":"pin.hop","cat":"tincy","ph":"s","ts":0.000,"id":"ffeeddccbbaa9988","#,
            r#""pid":1,"tid":0,"args":{"trace":"ffeeddccbbaa9988"}},"#,
            r#"{"name":"pin \"span\"","cat":"tincy","ph":"X","ts":0.500,"dur":1.250,"#,
            r#""pid":1,"tid":0,"args":{"frame":4,"request":9,"layer":2,"batch":3,"#,
            r#""attempt":1,"cycles":52480,"shard":1,"trace":"ffeeddccbbaa9988","#,
            r#""parent":"0123456789abcdef","backend":"finn","fault":"dma\ttimeout","#,
            r#""variant":"cheap-32","links":[7,11]}},"#,
            r#"{"name":"pin.instant","cat":"tincy","ph":"i","ts":1.750,"s":"t","pid":1,"tid":0},"#,
            r#"{"name":"pin.hop","cat":"tincy","ph":"f","ts":1.750,"id":"ffeeddccbbaa9988","#,
            r#""bp":"e","pid":1,"tid":0,"args":{"trace":"ffeeddccbbaa9988"}}]}"#,
        );
        assert_eq!(
            to_chrome_json(&trace),
            format!(r#"{{"displayTimeUnit":"ns",{events}"#)
        );
    }

    /// Each record is one Chrome event and comes back as one record: the
    /// re-import exports to the very same bytes, so labels, threads,
    /// start and end, attributes, flows, thread names, link sets and the
    /// drop count all survive.
    #[test]
    fn round_trip_is_exact() {
        let _guard = exclusive();
        let trace = recorded();
        assert_eq!(trace.dropped, 1);
        let json = to_chrome_json(&trace);
        assert!(
            json.starts_with(r#"{"displayTimeUnit":"ns","otherData":{"dropped":1},"#),
            "{json}"
        );
        assert!(
            json.contains(r#""dur":2.000"#),
            "the layer span is 2 µs: {json}"
        );
        let back = from_chrome_json(&json).unwrap();
        back.check().unwrap();
        assert_eq!(to_chrome_json(&back), json);
        assert_eq!(back.events.len(), trace.events.len());
        assert_eq!(
            (
                back.spans().count(),
                back.instants().count(),
                back.flows().count()
            ),
            (3, 2, 2)
        );
        assert_eq!(back.thread_name(1), Some("chrome-worker"));
        let batch = back
            .spans()
            .find(|s| back.label_name(s.label) == "chrome.batch")
            .unwrap();
        assert_eq!(back.link_requests(batch.attrs.links.unwrap()), &[7, 11]);
        assert_eq!(batch.attrs.trace, Some(0xffee_ddcc_bbaa_9988));
        assert_eq!(batch.attrs.parent, Some(0x0123_4567_89ab_cdef));
    }

    /// [`recorded`]'s file, recorded once for the damage tests below.
    fn recorded_file() -> &'static str {
        static FILE: OnceLock<String> = OnceLock::new();
        FILE.get_or_init(|| {
            let _guard = exclusive();
            to_chrome_json(&recorded())
        })
    }

    /// Every byte-prefix of a real session's file fails to import.
    #[test]
    fn truncated_files_are_errors() {
        let text = recorded_file();
        for end in 0..text.len() {
            assert!(from_chrome_json(&text[..end]).is_err(), "prefix {end}");
        }
    }

    /// A fixed set of single-byte substitutions at every position of a
    /// real session's file is an error or a trace, never a panic, and what
    /// imports goes through `check()`, the profile and the journeys, as
    /// `trace-report --check --by-request` runs them. (Random insertions,
    /// deletions and replacements are `tests/outside_input.rs`'s.)
    #[test]
    fn substituted_bytes_are_errors_not_panics() {
        let mut bytes = recorded_file().as_bytes().to_vec();
        for i in 0..bytes.len() {
            let original = bytes[i];
            for b in *b"\"{}[],:-9e" {
                bytes[i] = b;
                if let Ok(trace) = from_chrome_json(std::str::from_utf8(&bytes).unwrap()) {
                    let _ = trace.check();
                    Profile::from_trace(&trace);
                    journeys(&trace);
                }
            }
            bytes[i] = original;
        }
    }

    #[test]
    fn partially_overlapping_imported_spans_fail_the_check() {
        let parsed = from_chrome_json(
            "[{\"name\":\"a\",\"ph\":\"X\",\"ts\":1.0,\"dur\":4.0,\"tid\":3},\
             {\"name\":\"b\",\"ph\":\"X\",\"ts\":2.0,\"dur\":4.0,\"tid\":3},\
             {\"name\":\"c\",\"ph\":\"X\",\"ts\":2.0,\"dur\":9.0,\"tid\":4}]",
        )
        .unwrap();
        let err = parsed.check().unwrap_err();
        assert_eq!(
            (err.thread, err.outer.as_str(), err.inner.as_str()),
            (3, "a", "b")
        );
    }

    /// A thread name is kept by its id, whatever the id: a named thread
    /// that recorded nothing, past every event's tid, round-trips, and a
    /// foreign OS tid names its track without growing a table to it.
    #[test]
    fn thread_names_are_kept_by_id() {
        let json = "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\
            {\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":5,\"args\":{\"name\":\"idle\"}},\
            {\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":4000000000,\"args\":{\"name\":\"os\"}},\
            {\"name\":\"x\",\"cat\":\"tincy\",\"ph\":\"X\",\"ts\":1.000,\"dur\":2.000,\"pid\":1,\"tid\":0}]}";
        let parsed = from_chrome_json(json).unwrap();
        assert_eq!(parsed.thread_name(5), Some("idle"));
        assert_eq!(parsed.thread_name(4_000_000_000), Some("os"));
        assert_eq!(parsed.thread_names.len(), 2);
        let again = to_chrome_json(&parsed);
        assert_eq!(to_chrome_json(&from_chrome_json(&again).unwrap()), again);
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
        assert_eq!(parsed.spans().count(), 1);
        assert_eq!(parsed.events.len(), 1, "metadata events are skipped");
    }
}
