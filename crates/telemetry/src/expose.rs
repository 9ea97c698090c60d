//! The Prometheus text exposition (version 0.0.4), plus the minimal
//! parser the scrape smoke path and tests use to read it back.

use crate::metrics::{Sample, Value, BUCKETS};
use std::fmt::Write as _;

/// Renders samples (as returned by
/// [`Registry::gather`](crate::Registry::gather), sorted by name) in
/// the Prometheus text exposition format. Durations are expressed in
/// seconds; histograms become native cumulative `_bucket{le=...}`
/// series plus `_sum`/`_count`.
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
            Value::Histogram(snap) => {
                // The implicit +Inf bucket equals the total count.
                let bounds = BUCKETS.iter().chain([&f64::INFINITY]);
                let counts = snap.cumulative.iter().chain([&snap.count]);
                for (bound, cumulative) in bounds.zip(counts) {
                    let _ = writeln!(
                        out,
                        "{}_bucket{} {cumulative}",
                        sample.name,
                        label_set(&sample.labels, Some(("le", &fmt_value(*bound)))),
                    );
                }
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

/// One parsed Prometheus sample line.
#[derive(Debug, Clone, PartialEq)]
pub struct PromSample {
    /// Metric name (including `_sum`/`_count` suffixes).
    pub name: String,
    /// Label pairs, in source order (`le` included).
    pub labels: Vec<(String, String)>,
    /// The sample value.
    pub value: f64,
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
    let value: f64 = rest.trim().parse().ok()?;
    Some(PromSample {
        name: name.to_string(),
        labels,
        value,
    })
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
    use crate::metrics::{HistogramSnapshot, Sample};
    use std::time::Duration;
    use tincy_pipeline::DurationStats;

    fn sample_set() -> Vec<Sample> {
        let mut stats = DurationStats::new();
        for ms in [2u64, 3, 6, 40, 400, 4000] {
            stats.record(Duration::from_millis(ms));
        }
        vec![
            Sample::new(
                "demo_latency_seconds",
                "request latency",
                Value::Histogram(HistogramSnapshot::from_stats(&stats)),
            )
            .label("class", "gold"),
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
        assert!(text.contains("# TYPE demo_latency_seconds histogram"));
        let parsed = parse_prometheus(&text).unwrap();
        // 12 bounds + +Inf + sum + count, one gauge, two counters.
        assert_eq!(parsed.len(), BUCKETS.len() + 3 + 3);
        check_histogram_series(&parsed).expect("series is structurally valid");
        let full = parsed
            .iter()
            .find(|s| s.name == "demo_rejected_total" && s.label("reason") == Some("queue-full"))
            .unwrap();
        assert_eq!(full.value, 5.0);
        let bucket = |le: &str| {
            parsed
                .iter()
                .find(|s| s.name == "demo_latency_seconds_bucket" && s.label("le") == Some(le))
                .unwrap()
        };
        assert_eq!(bucket("0.004").value, 2.0);
        assert_eq!(bucket("2.048").value, 5.0);
        // The 4 s sample lands only in +Inf, which equals the count.
        assert_eq!(bucket("+Inf").value, 6.0);
        assert_eq!(bucket("+Inf").label("class"), Some("gold"));
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
    fn parser_rejects_garbage() {
        assert!(parse_prometheus("not a metric line").is_err());
        assert!(parse_prometheus("name{unterminated 1").is_err());
        // Nothing may trail the value: an OpenMetrics suffix is refused,
        // not read past.
        assert!(parse_prometheus("m_bucket{le=\"+Inf\"} 1 # {trace_id=\"ab\"} 0.5").is_err());
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
