//! Property tests for the two text protocols of the telemetry crate:
//! the incremental HTTP request-head parser and the Prometheus
//! exposition round trip. The parser properties feed the same wire
//! bytes under arbitrary chunk splits (however a socket might fragment
//! them) and demand identical outcomes; the exposition properties
//! demand that render → parse → render is a fixed point, and that the
//! scrape parsers reject, never panic on, arbitrary text.

use proptest::prelude::*;
use std::time::Duration;
use tincy_telemetry::{
    check_histogram_series, parse_prometheus, prometheus_text, HistogramSnapshot, Parse,
    PromSample, Registry, RequestParser, Sample, Value, BUCKETS,
};

/// The parser's inverse: parsed samples back as sample lines (no
/// `# HELP` / `# TYPE` — the parser does not retain them), float specials
/// in their Prometheus spelling, label values escaped. Composed with
/// [`parse_prometheus`] it is a fixed point: parsing the rendered text
/// yields the same samples, and rendering those yields the same text.
fn render_prometheus(samples: &[PromSample]) -> String {
    let value = |v: f64| match v {
        f64::INFINITY => "+Inf".to_string(),
        f64::NEG_INFINITY => "-Inf".to_string(),
        v => v.to_string(),
    };
    let label_set = |labels: &[(String, String)]| {
        let pair = |(key, raw): &(String, String)| {
            let raw = raw.replace('\\', "\\\\").replace('"', "\\\"");
            format!("{key}=\"{}\"", raw.replace('\n', "\\n"))
        };
        let pairs: Vec<String> = labels.iter().map(pair).collect();
        format!("{{{}}}", pairs.join(","))
    };
    let line = |sample: &PromSample| {
        let labels = Some(&sample.labels).filter(|l| !l.is_empty());
        let labels = labels.map_or(String::new(), |l| label_set(l));
        format!("{}{labels} {}\n", sample.name, value(sample.value))
    };
    samples.iter().map(line).collect()
}

/// What the product renderer emits for a labelled histogram parses to
/// samples the re-emitter reproduces exactly (the registry property
/// below covers the rest).
#[test]
fn prometheus_text_parse_render_is_a_fixed_point() {
    let mut stats = tincy_pipeline::DurationStats::new();
    stats.record(Duration::from_millis(2));
    stats.record(Duration::from_millis(300));
    let histogram = HistogramSnapshot::from_stats(&stats);
    let text = prometheus_text(&[Sample::new(
        "demo_latency_seconds",
        "latency",
        Value::Histogram(histogram),
    )
    .label("class", "batch")]);
    let parsed = parse_prometheus(&text).unwrap();
    assert_eq!(parsed.len(), BUCKETS.len() + 3, "{text}");
    let rendered = render_prometheus(&parsed);
    assert_eq!(parse_prometheus(&rendered).unwrap(), parsed);
}

const METHODS: &[&str] = &["GET", "HEAD", "POST"];
const PATHS: &[&str] = &["/metrics", "/healthz", "/report", "/"];

/// Builds one wire-form request head from generated picks.
fn build_request(method: usize, path: usize, query: usize, headers: usize, close: bool) -> Vec<u8> {
    let mut target = PATHS[path % PATHS.len()].to_string();
    if query > 0 {
        target.push_str(&format!("?q={}", "x".repeat(query)));
    }
    let mut head = format!(
        "{} {} HTTP/1.1\r\n",
        METHODS[method % METHODS.len()],
        target
    );
    for i in 0..headers {
        head.push_str(&format!("X-Extra-{i}: value-{i}\r\n"));
    }
    if close {
        head.push_str("Connection: close\r\n");
    }
    head.push_str("\r\n");
    head.into_bytes()
}

/// Drains every currently-parseable head, panicking on terminal states
/// (the generated input is valid, so Overflow/Malformed are failures).
fn drain_valid(parser: &mut RequestParser) -> Vec<tincy_telemetry::Request> {
    let mut out = Vec::new();
    loop {
        match parser.next_request() {
            Parse::Complete(request) => out.push(request),
            Parse::Incomplete => return out,
            state => panic!("valid request stream hit {state:?}"),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Feeding a valid (possibly pipelined) request stream in arbitrary
    /// chunk splits yields exactly the requests fed in, in order, with
    /// interleaved extraction seeing the same sequence as one-shot
    /// extraction.
    #[test]
    fn chunked_feeding_matches_whole_feeding(
        picks in proptest::collection::vec((0usize..3, 0usize..4, 0usize..12, 0usize..4), 1..5),
        close in proptest::collection::vec(0u64..2, 1..5),
        chunks in proptest::collection::vec(1usize..23, 0..96),
    ) {
        let mut wire = Vec::new();
        let mut expected = Vec::new();
        for (i, &(m, p, q, h)) in picks.iter().enumerate() {
            let close = close[i % close.len()] == 1;
            wire.extend_from_slice(&build_request(m, p, q, h, close));
            expected.push((
                METHODS[m % METHODS.len()].to_string(),
                PATHS[p % PATHS.len()].to_string(),
            ));
        }

        // One-shot: feed everything, then extract.
        let mut whole = RequestParser::new(64 * 1024);
        whole.feed(&wire);
        let got_whole = drain_valid(&mut whole);

        // Chunked: feed generated chunk sizes, extracting between feeds.
        let mut chunked = RequestParser::new(64 * 1024);
        let mut got_chunked = Vec::new();
        let mut offset = 0;
        for &size in &chunks {
            if offset >= wire.len() {
                break;
            }
            let end = (offset + size).min(wire.len());
            chunked.feed(&wire[offset..end]);
            offset = end;
            got_chunked.extend(drain_valid(&mut chunked));
        }
        chunked.feed(&wire[offset..]);
        got_chunked.extend(drain_valid(&mut chunked));

        prop_assert_eq!(&got_whole, &got_chunked);
        prop_assert_eq!(got_whole.len(), expected.len());
        for (request, (method, path)) in got_whole.iter().zip(&expected) {
            prop_assert_eq!(&request.method, method);
            prop_assert_eq!(request.path(), path.as_str());
        }
        prop_assert_eq!(chunked.buffered(), 0, "no residue after the last request");
    }

    /// Arbitrary byte soup never panics or hangs the parser, and a
    /// buffer past the size limit with no terminator in sight is always
    /// reported as Overflow, never silently accumulated.
    #[test]
    fn garbage_never_panics_and_oversized_heads_overflow(
        bytes in proptest::collection::vec(proptest::arbitrary::any::<u8>(), 0..2048),
        chunks in proptest::collection::vec(1usize..64, 0..64),
    ) {
        const MAX: usize = 64;
        let mut parser = RequestParser::new(MAX);
        let mut offset = 0;
        for &size in &chunks {
            if offset >= bytes.len() {
                break;
            }
            let end = (offset + size).min(bytes.len());
            parser.feed(&bytes[offset..end]);
            offset = end;
            let _ = parser.next_request();
        }
        parser.feed(&bytes[offset..]);
        // Consuming states make progress; loop until a non-consuming one.
        let final_state = loop {
            match parser.next_request() {
                Parse::Complete(_) | Parse::Malformed => continue,
                state => break state,
            }
        };
        match final_state {
            Parse::Incomplete => prop_assert!(
                parser.buffered() <= MAX,
                "incomplete with {} bytes buffered past the {MAX}-byte limit",
                parser.buffered()
            ),
            Parse::Overflow => prop_assert!(parser.buffered() > 0),
            state => prop_assert!(false, "drain loop returned {:?}", state),
        }
    }

    /// A single over-limit head is reported as Overflow both when it
    /// arrives terminated and when it is still trickling in.
    #[test]
    fn oversized_heads_always_overflow(
        padding in 128usize..4096,
        terminated in proptest::arbitrary::any::<bool>(),
    ) {
        let mut wire = format!("GET /metrics HTTP/1.1\r\nX-Pad: {}\r\n", "p".repeat(padding));
        if terminated {
            wire.push_str("\r\n");
        }
        let mut parser = RequestParser::new(64);
        parser.feed(wire.as_bytes());
        prop_assert_eq!(parser.next_request(), Parse::Overflow);
    }

    /// Exposition → parse → re-emit is a fixed point: rendering parsed
    /// samples reproduces the exact text, including float specials.
    /// Label values exclude `}` — the line parser scans to the first
    /// closing brace, a documented limit of the minimal grammar.
    #[test]
    fn render_parse_render_is_a_fixed_point(
        samples in proptest::collection::vec(
            (
                0usize..4,
                proptest::collection::vec((0usize..3, proptest::collection::vec(0u8..7, 0..6)), 0..3),
                0usize..9,
            ),
            0..8,
        ),
    ) {
        const NAMES: &[&str] = &["tincy_up", "tincy_frames_total", "queue_depth", "x"];
        const KEYS: &[&str] = &["job", "stage", "le"];
        const VALUE_CHARS: &[char] = &['a', 'Z', '"', '\\', '\n', ' ', '{'];
        const VALUES: &[f64] = &[
            0.0,
            1.0,
            -1.5,
            0.1,
            1e-9,
            1.7e300,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
        ];
        let samples: Vec<PromSample> = samples
            .into_iter()
            .map(|(name, labels, value)| PromSample {
                name: NAMES[name % NAMES.len()].to_string(),
                labels: labels
                    .into_iter()
                    .enumerate()
                    .map(|(i, (key, chars))| {
                        // Suffix the key with its position: duplicate label
                        // keys would not survive `PromSample::label` lookups.
                        let key = format!("{}{i}", KEYS[key % KEYS.len()]);
                        let value: String = chars
                            .into_iter()
                            .map(|c| VALUE_CHARS[c as usize % VALUE_CHARS.len()])
                            .collect();
                        (key, value)
                    })
                    .collect(),
                value: VALUES[value % VALUES.len()],
            })
            .collect();

        let first = render_prometheus(&samples);
        let parsed = parse_prometheus(&first)
            .unwrap_or_else(|e| panic!("rendered text failed to parse: {e}\n{first}"));
        let second = render_prometheus(&parsed);
        prop_assert_eq!(&first, &second, "render∘parse must be the identity on rendered text");
        prop_assert_eq!(parsed.len(), samples.len());
        // Everything except NaN (incomparable by definition) survives
        // the trip value-for-value.
        for (a, b) in samples.iter().zip(&parsed) {
            prop_assert_eq!(&a.name, &b.name);
            prop_assert_eq!(&a.labels, &b.labels);
            prop_assert!(a.value == b.value || (a.value.is_nan() && b.value.is_nan()));
        }
    }

    /// A registry with generated contents always emits exposition text
    /// that parses cleanly and whose native histograms are structurally
    /// valid (monotone cumulative buckets, +Inf == _count).
    #[test]
    fn generated_registry_expositions_parse_and_validate(
        counts in proptest::collection::vec(0u64..10_000, 1..4),
        gauges in proptest::collection::vec(0usize..5, 0..3),
        observations in proptest::collection::vec(1u64..2_000_000, 0..40),
    ) {
        const GAUGE_VALUES: &[f64] = &[0.0, -2.5, 99.75, 1e12, f64::INFINITY];
        let registry = Registry::new();
        for (i, &n) in counts.iter().enumerate() {
            registry.counter(&format!("tincy_prop_count_{i}"), "generated").add(n);
        }
        for (i, &g) in gauges.iter().enumerate() {
            registry
                .gauge(&format!("tincy_prop_gauge_{i}"), "generated")
                .set(GAUGE_VALUES[g % GAUGE_VALUES.len()]);
        }
        let histogram = registry.histogram("tincy_prop_hist_seconds", "generated");
        for &us in &observations {
            histogram.observe(std::time::Duration::from_micros(us));
        }

        let text = prometheus_text(&registry.gather());
        let parsed = parse_prometheus(&text)
            .unwrap_or_else(|e| panic!("exposition failed to parse: {e}\n{text}"));
        check_histogram_series(&parsed)
            .unwrap_or_else(|e| panic!("histogram series invalid: {e}\n{text}"));
        let reparsed = parse_prometheus(&render_prometheus(&parsed));
        prop_assert_eq!(reparsed.as_ref(), Ok(&parsed), "re-emitting what parsed is the identity");
        // The counter samples survive with their exact values.
        for (i, &n) in counts.iter().enumerate() {
            let name = format!("tincy_prop_count_{i}");
            let sample = parsed.iter().find(|s| s.name == name);
            prop_assert!(sample.is_some_and(|s| s.value == n as f64), "missing {}", name);
        }
        let count = parsed
            .iter()
            .find(|s| s.name == "tincy_prop_hist_seconds_count")
            .map(|s| s.value);
        prop_assert_eq!(count, Some(observations.len() as f64));
    }
}

/// Pieces of Prometheus sample lines for the scrape-parser property:
/// names, suffixes, `le` bounds (odd ones included), labels and values
/// that parse, plus the junk that breaks a line.
const NAMES: &[&str] = &[
    "tincy_x",
    "tincy_x",
    "tincy_x",
    "tincy_y_total",
    "tincy_é",
    "9bad",
    "",
];
const SUFFIXES: &[&str] = &[
    "_bucket", "_bucket", "_bucket", "_bucket", "", "_sum", "_count",
];
const BOUNDS: &[&str] = &["0.5", "1", "2", "+Inf", "+Inf", "-Inf", "NaN", "1e400", "x"];
const CLASSES: &[&str] = &["", "", "class=\"a\"", "class=\"b\\\"c\""];
const VALUES: &[&str] = &[
    "0", "1", "2", "3", "0.5", "-3e9", "1e400", "+Inf", "-Inf", "NaN",
];
const JUNK: &[&str] = &[
    " # {x=\"1\"} 2",
    " 17",
    "\"",
    "\\",
    "{",
    "}",
    "=",
    "\t",
    "#",
    " x",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Arbitrary scrape text never panics the parser or the histogram
    /// validator: each returns `Ok` or `Err`. The text is sample lines
    /// built from the pieces above (so histogram series with missing,
    /// unordered, duplicate or non-numeric bounds reach the validator),
    /// those lines cut at an arbitrary byte and swapped, or raw bytes
    /// read lossily. The vendored proptest does not shrink, so a failure
    /// prints the whole input.
    #[test]
    fn scrape_parsers_never_panic_on_outside_text(
        lines in proptest::collection::vec(
            (0usize..NAMES.len(), 0usize..SUFFIXES.len(), 0usize..BOUNDS.len() + 1,
             0usize..CLASSES.len(), 0usize..VALUES.len(), 0usize..4 * JUNK.len()),
            0..10,
        ),
        bytes in proptest::collection::vec(proptest::arbitrary::any::<u8>(), 0..256),
        mode in 0usize..4,
    ) {
        let lines: Vec<String> = lines
            .iter()
            .map(|&(name, suffix, bound, class, value, junk)| {
                let bound = BOUNDS.get(bound).map(|b| format!("le=\"{b}\""));
                let labels: Vec<String> = bound
                    .into_iter()
                    .chain(Some(CLASSES[class].to_string()).filter(|c| !c.is_empty()))
                    .collect();
                let labels = if labels.is_empty() {
                    String::new()
                } else {
                    format!("{{{}}}", labels.join(","))
                };
                // One line in four carries junk.
                let junk = JUNK.get(junk).copied().unwrap_or("");
                format!("{}{}{labels} {}{junk}\n", NAMES[name], SUFFIXES[suffix], VALUES[value])
            })
            .collect();
        let text = match mode {
            0 | 1 => lines.concat(),
            2 => {
                let whole = lines.concat().into_bytes();
                let cut = bytes.first().map_or(0, |&b| b as usize % (whole.len() + 1));
                let (head, tail) = whole.split_at(cut);
                String::from_utf8_lossy(&[tail, head].concat()).into_owned()
            }
            _ => String::from_utf8_lossy(&bytes).into_owned(),
        };
        let outcome = std::panic::catch_unwind(|| {
            if let Ok(samples) = parse_prometheus(&text) {
                let _ = check_histogram_series(&samples);
            }
        });
        prop_assert!(outcome.is_ok(), "a scrape parser panicked on {text:?}");
    }
}
