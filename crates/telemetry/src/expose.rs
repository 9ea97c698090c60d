//! The Prometheus text exposition (version 0.0.4), plus the minimal
//! parser the scrape smoke path and tests use to read it back.

use crate::metrics::{Sample, Value};
use std::fmt::Write as _;

/// Quantiles exposed for summaries; matches the p50/p95/p99 the serve
/// reports print.
const QUANTILES: [f64; 3] = [0.5, 0.95, 0.99];

/// Renders samples (as returned by
/// [`Registry::gather`](crate::Registry::gather), sorted by name) in
/// the Prometheus text exposition format. Durations are expressed in
/// seconds; histograms become summaries — the log-linear
/// [`DurationStats`](tincy_pipeline::DurationStats) tracks quantiles, not
/// cumulative buckets.
pub fn prometheus_text(samples: &[Sample]) -> String {
    let mut out = String::new();
    let mut last_family: Option<&str> = None;
    for sample in samples {
        if last_family != Some(sample.name.as_str()) {
            let _ = writeln!(out, "# HELP {} {}", sample.name, sample.help);
            let _ = writeln!(out, "# TYPE {} {}", sample.name, sample.value.type_name());
            last_family = Some(sample.name.as_str());
        }
        match &sample.value {
            Value::Counter(v) => {
                let _ = writeln!(
                    out,
                    "{}{} {v}",
                    sample.name,
                    label_set(&sample.labels, None)
                );
            }
            Value::Gauge(v) => {
                let _ = writeln!(
                    out,
                    "{}{} {v}",
                    sample.name,
                    label_set(&sample.labels, None)
                );
            }
            Value::Summary(stats) => {
                let seconds = stats.quantiles(&QUANTILES);
                for (q, d) in QUANTILES.iter().zip(&seconds) {
                    let _ = writeln!(
                        out,
                        "{}{} {}",
                        sample.name,
                        label_set(&sample.labels, Some(("quantile", &format!("{q}")))),
                        fmt_value(d.as_secs_f64())
                    );
                }
                let _ = writeln!(
                    out,
                    "{}_sum{} {}",
                    sample.name,
                    label_set(&sample.labels, None),
                    fmt_value(stats.total().as_secs_f64())
                );
                let _ = writeln!(
                    out,
                    "{}_count{} {}",
                    sample.name,
                    label_set(&sample.labels, None),
                    stats.count()
                );
            }
            Value::Histogram(snap) => {
                for (i, (bound, cumulative)) in snap.bounds.iter().zip(&snap.cumulative).enumerate()
                {
                    let _ = write!(
                        out,
                        "{}_bucket{} {cumulative}",
                        sample.name,
                        label_set(&sample.labels, Some(("le", &fmt_value(*bound)))),
                    );
                    write_exemplar(&mut out, &snap.exemplars, i);
                    out.push('\n');
                }
                // The implicit +Inf bucket equals the total count.
                let _ = write!(
                    out,
                    "{}_bucket{} {}",
                    sample.name,
                    label_set(&sample.labels, Some(("le", "+Inf"))),
                    snap.count
                );
                write_exemplar(&mut out, &snap.exemplars, snap.bounds.len());
                out.push('\n');
                let _ = writeln!(
                    out,
                    "{}_sum{} {}",
                    sample.name,
                    label_set(&sample.labels, None),
                    fmt_value(snap.sum_seconds)
                );
                let _ = writeln!(
                    out,
                    "{}_count{} {}",
                    sample.name,
                    label_set(&sample.labels, None),
                    snap.count
                );
            }
        }
    }
    out
}

/// Appends the OpenMetrics exemplar suffix for bucket `index`, if the
/// snapshot carries one: ` # {trace_id="<hex>"} <value>`.
fn write_exemplar(out: &mut String, exemplars: &[Option<crate::Exemplar>], index: usize) {
    if let Some(Some(exemplar)) = exemplars.get(index) {
        let _ = write!(
            out,
            " # {{trace_id=\"{:016x}\"}} {}",
            exemplar.trace_id,
            fmt_value(exemplar.value)
        );
    }
}

/// Formats a float so the parser reads back the identical value:
/// Rust's shortest round-trip `Display` for finite values, Prometheus
/// spellings for the specials.
fn fmt_value(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v == f64::INFINITY {
        "+Inf".to_string()
    } else if v == f64::NEG_INFINITY {
        "-Inf".to_string()
    } else {
        format!("{v}")
    }
}

fn label_set(labels: &[(String, String)], extra: Option<(&str, &str)>) -> String {
    if labels.is_empty() && extra.is_none() {
        return String::new();
    }
    let mut out = String::from("{");
    let mut first = true;
    for (key, value) in labels {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(out, "{key}=\"");
        escape_label(&mut out, value);
        out.push('"');
    }
    if let Some((key, value)) = extra {
        if !first {
            out.push(',');
        }
        let _ = write!(out, "{key}=\"");
        escape_label(&mut out, value);
        out.push('"');
    }
    out.push('}');
    out
}

fn escape_label(out: &mut String, raw: &str) {
    for c in raw.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
}

/// An exemplar parsed off a sample line's ` # {labels} value` suffix
/// (OpenMetrics syntax).
#[derive(Debug, Clone, PartialEq)]
pub struct PromExemplar {
    /// Exemplar label pairs (conventionally a `trace_id`).
    pub labels: Vec<(String, String)>,
    /// The exemplified observation.
    pub value: f64,
}

impl PromExemplar {
    /// The value of exemplar label `key`, if present.
    pub fn label(&self, key: &str) -> Option<&str> {
        self.labels
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// One parsed Prometheus sample line.
#[derive(Debug, Clone, PartialEq)]
pub struct PromSample {
    /// Metric name (including `_sum`/`_count` suffixes).
    pub name: String,
    /// Label pairs, in source order (`quantile` included).
    pub labels: Vec<(String, String)>,
    /// The sample value.
    pub value: f64,
    /// The attached exemplar, when the line carried one.
    pub exemplar: Option<PromExemplar>,
}

impl PromSample {
    /// The value of label `key`, if present.
    pub fn label(&self, key: &str) -> Option<&str> {
        self.labels
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// Parses a Prometheus text exposition into its sample lines. Comment
/// (`#`) and blank lines are skipped; anything else must be a
/// well-formed `name{labels} value` line.
///
/// # Errors
///
/// A message quoting the malformed line.
pub fn parse_prometheus(text: &str) -> Result<Vec<PromSample>, String> {
    let mut samples = Vec::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        samples.push(parse_line(line).ok_or_else(|| format!("malformed sample line: {line}"))?);
    }
    Ok(samples)
}

fn parse_line(line: &str) -> Option<PromSample> {
    let name_end = line.find(|c: char| c == '{' || c.is_whitespace())?;
    let name = &line[..name_end];
    if name.is_empty() {
        return None;
    }
    let rest = &line[name_end..];
    let (labels, rest) = if let Some(body) = rest.strip_prefix('{') {
        let close = body.find('}')?;
        (parse_labels(&body[..close])?, &body[close + 1..])
    } else {
        (Vec::new(), rest)
    };
    // An OpenMetrics exemplar rides after ` # ` on the same line.
    let (value_str, exemplar) = match rest.split_once(" # ") {
        Some((value_str, suffix)) => (value_str, Some(parse_exemplar(suffix)?)),
        None => (rest, None),
    };
    let value: f64 = value_str.trim().parse().ok()?;
    Some(PromSample {
        name: name.to_string(),
        labels,
        value,
        exemplar,
    })
}

fn parse_exemplar(suffix: &str) -> Option<PromExemplar> {
    let body = suffix.trim_start().strip_prefix('{')?;
    let close = body.find('}')?;
    let labels = parse_labels(&body[..close])?;
    let value: f64 = body[close + 1..].trim().parse().ok()?;
    Some(PromExemplar { labels, value })
}

fn parse_labels(body: &str) -> Option<Vec<(String, String)>> {
    let mut labels = Vec::new();
    let mut chars = body.chars().peekable();
    loop {
        while chars.peek() == Some(&',') || chars.peek().is_some_and(|c| c.is_whitespace()) {
            chars.next();
        }
        if chars.peek().is_none() {
            return Some(labels);
        }
        let mut key = String::new();
        for c in chars.by_ref() {
            if c == '=' {
                break;
            }
            key.push(c);
        }
        if chars.next() != Some('"') {
            return None;
        }
        let mut value = String::new();
        loop {
            match chars.next()? {
                '"' => break,
                '\\' => match chars.next()? {
                    'n' => value.push('\n'),
                    c => value.push(c),
                },
                c => value.push(c),
            }
        }
        labels.push((key, value));
    }
}

/// Structurally validates every native-histogram family in a scrape:
/// for each `_bucket` series group (same base name and non-`le` labels),
/// the `le` bounds must be parseable and strictly increasing, the
/// cumulative counts non-decreasing, the `+Inf` bucket present, and its
/// value equal to the matching `_count` sample.
///
/// # Errors
///
/// A message naming the series and the violated invariant.
pub fn check_histogram_series(samples: &[PromSample]) -> Result<(), String> {
    use std::collections::BTreeMap;
    // Group key: base name + canonicalized non-le labels.
    let mut groups: BTreeMap<(String, String), Vec<(f64, f64)>> = BTreeMap::new();
    for sample in samples {
        let Some(base) = sample.name.strip_suffix("_bucket") else {
            continue;
        };
        let le = sample
            .label("le")
            .ok_or_else(|| format!("{}: _bucket sample without le label", sample.name))?;
        let bound: f64 = le
            .parse()
            .map_err(|_| format!("{}: unparseable le bound {le:?}", sample.name))?;
        let mut rest: Vec<_> = sample
            .labels
            .iter()
            .filter(|(k, _)| k != "le")
            .cloned()
            .collect();
        rest.sort();
        groups
            .entry((base.to_string(), format!("{rest:?}")))
            .or_default()
            .push((bound, sample.value));
    }
    for ((base, labels), mut series) in groups {
        series.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
        let mut prev = -1.0f64;
        for pair in series.windows(2) {
            if pair[1].0 == pair[0].0 {
                return Err(format!("{base}{labels}: duplicate le bound {}", pair[0].0));
            }
        }
        for &(bound, cumulative) in &series {
            if cumulative < prev {
                return Err(format!(
                    "{base}{labels}: bucket le={bound} count {cumulative} below previous {prev}"
                ));
            }
            prev = cumulative;
        }
        let Some(&(last_bound, inf_count)) = series.last() else {
            continue;
        };
        if last_bound != f64::INFINITY {
            return Err(format!("{base}{labels}: missing +Inf bucket"));
        }
        let count = samples
            .iter()
            .find(|s| {
                s.name == format!("{base}_count") && {
                    let mut rest: Vec<_> = s
                        .labels
                        .iter()
                        .filter(|(k, _)| k != "le")
                        .cloned()
                        .collect();
                    rest.sort();
                    format!("{rest:?}") == labels
                }
            })
            .ok_or_else(|| format!("{base}{labels}: missing _count sample"))?;
        if count.value != inf_count {
            return Err(format!(
                "{base}{labels}: +Inf bucket {inf_count} != _count {}",
                count.value
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Sample;
    use std::time::Duration;
    use tincy_pipeline::DurationStats;

    fn sample_set() -> Vec<Sample> {
        let mut stats = DurationStats::new();
        stats.record(Duration::from_millis(2));
        stats.record(Duration::from_millis(4));
        vec![
            Sample::new(
                "demo_latency_seconds",
                "request latency",
                Value::Summary(stats),
            ),
            Sample::new("demo_queue_depth", "queue depth", Value::Gauge(3.0)),
            Sample::new("demo_rejected_total", "rejections", Value::Counter(5))
                .label("reason", "queue-full"),
            Sample::new("demo_rejected_total", "rejections", Value::Counter(2))
                .label("reason", "deadline"),
        ]
    }

    #[test]
    fn prometheus_text_round_trips_through_the_parser() {
        let text = prometheus_text(&sample_set());
        assert!(text.contains("# TYPE demo_rejected_total counter"));
        assert!(text.contains("# TYPE demo_latency_seconds summary"));
        let parsed = parse_prometheus(&text).unwrap();
        // 3 quantiles + sum + count, one gauge, two counters.
        assert_eq!(parsed.len(), 8);
        let full = parsed
            .iter()
            .find(|s| s.name == "demo_rejected_total" && s.label("reason") == Some("queue-full"))
            .unwrap();
        assert_eq!(full.value, 5.0);
        let count = parsed
            .iter()
            .find(|s| s.name == "demo_latency_seconds_count")
            .unwrap();
        assert_eq!(count.value, 2.0);
        let p50 = parsed
            .iter()
            .find(|s| s.name == "demo_latency_seconds" && s.label("quantile") == Some("0.5"))
            .unwrap();
        assert!(p50.value > 0.0015 && p50.value < 0.0045, "{}", p50.value);
    }

    #[test]
    fn native_histograms_expose_cumulative_buckets_and_round_trip() {
        let mut stats = DurationStats::new();
        for ms in [2u64, 4, 8, 40, 400] {
            stats.record(Duration::from_millis(ms));
        }
        let buckets = crate::Buckets::explicit(vec![0.005, 0.05, 0.5]).unwrap();
        let snap = crate::HistogramSnapshot::from_stats(&stats, &buckets);
        let sample = Sample::new(
            "demo_latency_hist_seconds",
            "latency histogram",
            Value::Histogram(snap),
        )
        .label("class", "gold");
        let text = prometheus_text(&[sample]);
        assert!(text.contains("# TYPE demo_latency_hist_seconds histogram"));
        assert!(text.contains("le=\"+Inf\""));

        let parsed = parse_prometheus(&text).unwrap();
        // 3 bounds + +Inf + sum + count.
        assert_eq!(parsed.len(), 6);
        check_histogram_series(&parsed).expect("series is structurally valid");
        let inf = parsed
            .iter()
            .find(|s| s.name == "demo_latency_hist_seconds_bucket" && s.label("le") == Some("+Inf"))
            .unwrap();
        assert_eq!(inf.value, 5.0);
        assert_eq!(inf.label("class"), Some("gold"));
    }

    #[test]
    fn check_histogram_series_catches_violations() {
        let parse = |t: &str| parse_prometheus(t).unwrap();
        // Non-monotone cumulative counts.
        let bad = parse("m_bucket{le=\"0.1\"} 5\nm_bucket{le=\"+Inf\"} 3\nm_count 3\n");
        assert!(check_histogram_series(&bad).is_err());
        // Missing +Inf.
        let bad = parse("m_bucket{le=\"0.1\"} 5\nm_count 5\n");
        assert!(check_histogram_series(&bad).is_err());
        // +Inf disagrees with _count.
        let bad = parse("m_bucket{le=\"+Inf\"} 5\nm_count 6\n");
        assert!(check_histogram_series(&bad).is_err());
        // Labeled series are grouped separately and both validated.
        let good = parse(concat!(
            "m_bucket{class=\"a\",le=\"0.1\"} 1\nm_bucket{class=\"a\",le=\"+Inf\"} 2\n",
            "m_bucket{class=\"b\",le=\"0.1\"} 0\nm_bucket{class=\"b\",le=\"+Inf\"} 0\n",
            "m_count{class=\"a\"} 2\nm_count{class=\"b\"} 0\n",
        ));
        check_histogram_series(&good).expect("both label groups are valid");
    }

    #[test]
    fn bucket_exemplars_render_and_parse() {
        let mut stats = DurationStats::new();
        stats.record(Duration::from_millis(2));
        stats.record(Duration::from_millis(300));
        let buckets = crate::Buckets::explicit(vec![0.005, 0.05]).unwrap();
        let mut store = crate::ExemplarStore::new(&buckets);
        store.observe(0.002, 0xabcd_ef01_2345_6789);
        store.observe(0.3, 0xffee_0000_0000_0001);
        let snap = crate::HistogramSnapshot::from_stats(&stats, &buckets).with_exemplars(&store);
        let text = prometheus_text(&[Sample::new("ex_hist_seconds", "h", Value::Histogram(snap))]);
        assert!(text.contains("# {trace_id=\"abcdef0123456789\"}"), "{text}");

        let parsed = parse_prometheus(&text).unwrap();
        check_histogram_series(&parsed).unwrap();
        let first = parsed
            .iter()
            .find(|s| s.name == "ex_hist_seconds_bucket" && s.label("le") == Some("0.005"))
            .unwrap();
        let exemplar = first.exemplar.as_ref().unwrap();
        assert_eq!(exemplar.label("trace_id"), Some("abcdef0123456789"));
        assert_eq!(exemplar.value, 0.002);
        let inf = parsed
            .iter()
            .find(|s| s.name == "ex_hist_seconds_bucket" && s.label("le") == Some("+Inf"))
            .unwrap();
        assert_eq!(
            inf.exemplar.as_ref().unwrap().label("trace_id"),
            Some("ffee000000000001")
        );
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(parse_prometheus("not a metric line").is_err());
        assert!(parse_prometheus("name{unterminated 1").is_err());
        assert!(parse_prometheus("# just a comment\n").unwrap().is_empty());
    }

    #[test]
    fn label_escapes_round_trip() {
        let sample =
            Sample::new("esc_total", "escapes", Value::Counter(1)).label("path", "a\"b\\c\nd");
        let parsed = parse_prometheus(&prometheus_text(&[sample])).unwrap();
        assert_eq!(parsed[0].label("path"), Some("a\"b\\c\nd"));
    }
}
