//! Result files and their comparison: `ledger run` writes one,
//! `ledger compare` and `ledger selfcheck` read them.

use crate::names::{self, Better, END_TO_END};
use crate::stats;
use crate::workloads::Workload;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use tincy_json::{JsonArray, JsonObject, JsonValue};

/// The values one metric took over the repeats of one workload.
pub type Series = BTreeMap<String, Vec<f64>>;

/// One workload's results over every repeat of a `ledger run`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WorkloadResult {
    pub attempted: Vec<u64>,
    pub failed: Vec<u64>,
    pub end_to_end: Series,
    pub per_layer: Series,
}

/// A result file.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultFile {
    pub seed: u64,
    pub seconds: f64,
    /// Every workload and metric name the producing binary knew, in table
    /// order: two files compare only when these agree.
    pub vocabulary: Vec<String>,
    pub workloads: BTreeMap<String, WorkloadResult>,
}

/// The names a result is expressed in.
pub fn vocabulary() -> Vec<String> {
    let mut names: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    names.extend(END_TO_END.iter().map(|m| m.name.to_string()));
    names.extend(names::per_layer().into_iter().map(|m| m.name));
    names
}

/// Full-precision JSON number (`null` for a non-finite value).
pub fn number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "null".to_string()
    }
}

fn series_json(series: &Series) -> String {
    let mut object = JsonObject::new();
    for (name, values) in series {
        let mut array = JsonArray::new();
        for value in values {
            array.raw(&number(*value));
        }
        object = object.raw(name, &array.finish());
    }
    object.finish()
}

impl ResultFile {
    pub fn to_json(&self) -> String {
        let mut vocabulary = JsonArray::new();
        for name in &self.vocabulary {
            vocabulary.str(name);
        }
        let mut workloads = JsonObject::new();
        for (name, result) in &self.workloads {
            let body = JsonObject::new()
                .raw("attempted", &tincy_json::array_u64(&result.attempted))
                .raw("failed", &tincy_json::array_u64(&result.failed))
                .raw("end_to_end", &series_json(&result.end_to_end))
                .raw("per_layer", &series_json(&result.per_layer))
                .finish();
            workloads = workloads.raw(name, &body);
        }
        let mut text = JsonObject::new()
            .u64("seed", self.seed)
            .raw("seconds", &number(self.seconds))
            .raw("vocabulary", &vocabulary.finish())
            .raw("workloads", &workloads.finish())
            .finish();
        text.push('\n');
        text
    }

    pub fn from_json(text: &str) -> Result<Self, String> {
        let doc = tincy_json::parse(text)?;
        let field = |key: &str| doc.get(key).ok_or_else(|| format!("missing {key:?}"));
        let numbers = |value: &JsonValue, what: &str| -> Result<Vec<f64>, String> {
            value
                .as_arr()
                .ok_or_else(|| format!("{what} is not an array"))?
                .iter()
                .map(|v| {
                    v.as_f64()
                        .ok_or_else(|| format!("{what} holds a non-number"))
                })
                .collect()
        };
        let series = |value: Option<&JsonValue>, what: &str| -> Result<Series, String> {
            match value {
                Some(JsonValue::Obj(fields)) => fields
                    .iter()
                    .map(|(name, values)| Ok((name.clone(), numbers(values, name)?)))
                    .collect(),
                _ => Err(format!("{what} is not an object")),
            }
        };
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let counts = |value: Option<&JsonValue>, what: &str| -> Result<Vec<u64>, String> {
            Ok(
                numbers(value.ok_or_else(|| format!("missing {what}"))?, what)?
                    .into_iter()
                    .map(|v| v as u64)
                    .collect(),
            )
        };
        let mut workloads = BTreeMap::new();
        let JsonValue::Obj(entries) = field("workloads")? else {
            return Err("workloads is not an object".to_string());
        };
        for (name, body) in entries {
            workloads.insert(
                name.clone(),
                WorkloadResult {
                    attempted: counts(body.get("attempted"), "attempted")?,
                    failed: counts(body.get("failed"), "failed")?,
                    end_to_end: series(body.get("end_to_end"), "end_to_end")?,
                    per_layer: series(body.get("per_layer"), "per_layer")?,
                },
            );
        }
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let seed = field("seed")?.as_f64().ok_or("seed is not a number")? as u64;
        Ok(Self {
            seed,
            seconds: field("seconds")?
                .as_f64()
                .ok_or("seconds is not a number")?,
            vocabulary: field("vocabulary")?
                .as_arr()
                .ok_or("vocabulary is not an array")?
                .iter()
                .map(|v| {
                    v.as_str()
                        .map(str::to_string)
                        .ok_or("vocabulary holds a non-string")
                })
                .collect::<Result<_, _>>()?,
            workloads,
        })
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Worse,
    /// The runs of one side spread wider than the bound and the two sides
    /// overlap: the data cannot say.
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One row of a comparison.
#[derive(Debug, Clone)]
pub struct Comparison {
    pub workload: String,
    pub metric: &'static str,
    pub unit: &'static str,
    pub base: f64,
    pub new: f64,
    /// By how much of the base's median the new median is worse
    /// (negative: better).
    pub worse_by: f64,
    pub bound: f64,
    /// The wider of the two sides' (max - min) / median.
    pub spread: f64,
    pub verdict: Verdict,
}

fn min_max(values: &[f64]) -> (f64, f64) {
    values
        .iter()
        .fold((f64::MAX, f64::MIN), |(lo, hi), &v| (lo.min(v), hi.max(v)))
}

fn range_share(values: &[f64]) -> f64 {
    let median = stats::median(values);
    if values.len() < 2 || median == 0.0 {
        return 0.0;
    }
    let (min, max) = min_max(values);
    (max - min) / median.abs()
}

/// Judges one metric: both medians, how much worse, and whether the data
/// can tell.
pub fn judge(base: &[f64], new: &[f64], better: Better, bound: f64) -> (f64, f64, Verdict) {
    let (base_median, new_median) = (stats::median(base), stats::median(new));
    let worse_by = if base_median == 0.0 {
        0.0
    } else {
        match better {
            Better::Lower => (new_median - base_median) / base_median.abs(),
            Better::Higher => (base_median - new_median) / base_median.abs(),
        }
    };
    let spread = range_share(base).max(range_share(new));
    let ((base_lo, base_hi), (new_lo, new_hi)) = (min_max(base), min_max(new));
    let overlap = base_lo <= new_hi && new_lo <= base_hi;
    let verdict = if spread > bound && overlap {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    };
    (worse_by, spread, verdict)
}

/// Compares two result files, one row per workload and end-to-end metric.
///
/// # Errors
///
/// Refuses files whose vocabularies, seeds or run lengths differ, or that
/// lack a workload or metric.
pub fn compare(base: &ResultFile, new: &ResultFile) -> Result<Vec<Comparison>, String> {
    if base.vocabulary != new.vocabulary {
        return Err("the two results name different workloads or metrics".to_string());
    }
    if base.seed != new.seed {
        return Err(format!("seeds differ: {} and {}", base.seed, new.seed));
    }
    if (base.seconds - new.seconds).abs() > f64::EPSILON {
        return Err(format!(
            "run lengths differ: {} s and {} s",
            base.seconds, new.seconds
        ));
    }
    let mut rows = Vec::new();
    for workload in Workload::ALL {
        let side = |file: &ResultFile| {
            file.workloads
                .get(workload.name())
                .cloned()
                .ok_or_else(|| format!("a result lacks workload {}", workload.name()))
        };
        let (b, n) = (side(base)?, side(new)?);
        for metric in END_TO_END {
            let values = |r: &WorkloadResult| {
                r.end_to_end
                    .get(metric.name)
                    .filter(|v| !v.is_empty())
                    .cloned()
                    .ok_or_else(|| format!("{} lacks {}", workload.name(), metric.name))
            };
            let (bv, nv) = (values(&b)?, values(&n)?);
            let (worse_by, spread, verdict) = judge(&bv, &nv, metric.better, metric.bound);
            rows.push(Comparison {
                workload: workload.name().to_string(),
                metric: metric.name,
                unit: metric.unit,
                base: stats::median(&bv),
                new: stats::median(&nv),
                worse_by,
                bound: metric.bound,
                spread,
                verdict,
            });
        }
    }
    Ok(rows)
}

/// Whether the new side failed more operations on some workload.
pub fn more_failures(base: &ResultFile, new: &ResultFile) -> Vec<String> {
    let mut out = Vec::new();
    for (name, n) in &new.workloads {
        let share = |r: &WorkloadResult| {
            let (failed, attempted): (u64, u64) = (r.failed.iter().sum(), r.attempted.iter().sum());
            #[allow(clippy::cast_precision_loss)]
            let share = if attempted == 0 {
                0.0
            } else {
                failed as f64 / attempted as f64
            };
            share
        };
        if let Some(b) = base.workloads.get(name) {
            if share(n) > share(b) {
                out.push(format!(
                    "{name}: failed ratio rose from {:.6} to {:.6}",
                    share(b),
                    share(n)
                ));
            }
        }
    }
    out
}

/// The comparison as a text table.
pub fn table(rows: &[Comparison]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<15} {:<20} {:>12} {:>12} {:>9} {:>7} {:>8}  verdict",
        "workload", "metric", "base", "new", "worse by", "bound", "spread"
    );
    for row in rows {
        let _ = writeln!(
            out,
            "{:<15} {:<20} {:>12.4} {:>12.4} {:>+8.1}% {:>6.0}% {:>7.1}%  {} (base {:.4} {})",
            row.workload,
            row.metric,
            row.base,
            row.new,
            row.worse_by * 100.0,
            row.bound * 100.0,
            row.spread * 100.0,
            row.verdict.label(),
            row.base,
            row.unit
        );
    }
    out
}

/// Per-layer counts that must be identical between two runs of one
/// commit with one seed; returns the ones that are not.
pub fn exact_mismatches(a: &ResultFile, b: &ResultFile) -> Vec<String> {
    let mut out = Vec::new();
    for (name, ra) in &a.workloads {
        let Some(rb) = b.workloads.get(name) else {
            out.push(format!("{name}: missing from the second run"));
            continue;
        };
        for (metric, va) in &ra.per_layer {
            if names::is_exact(metric) && Some(va) != rb.per_layer.get(metric) {
                out.push(format!(
                    "{name}: {metric} {va:?} vs {:?}",
                    rb.per_layer.get(metric)
                ));
            }
        }
        // Open-loop and demo workloads send a count fixed by the seed.
        if name != Workload::ServeSaturate.name() && ra.attempted != rb.attempted {
            out.push(format!(
                "{name}: attempted {:?} vs {:?}",
                ra.attempted, rb.attempted
            ));
        }
        let replayed = "bench.replay_detections";
        let frames = "bench.replay_frames";
        if ra.per_layer.get(frames) == rb.per_layer.get(frames)
            && ra.per_layer.get(replayed) != rb.per_layer.get(replayed)
        {
            out.push(format!("{name}: detection fingerprint differs"));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_on_hand_made_results() {
        use Better::{Higher, Lower};
        // Tight runs, 5% worse, 10% bound: ok.
        let (w, _, v) = judge(&[100.0, 101.0, 99.0], &[105.0, 106.0, 104.0], Lower, 0.10);
        assert!((w - 0.05).abs() < 1e-12);
        assert_eq!(v, Verdict::Ok);
        // Tight runs, 20% worse: worse.
        let (_, _, v) = judge(&[100.0, 101.0, 99.0], &[120.0, 121.0, 119.0], Lower, 0.10);
        assert_eq!(v, Verdict::Worse);
        // Higher is better: a drop is worse, a rise is not.
        let (w, _, v) = judge(&[50.0, 50.5], &[40.0, 40.5], Higher, 0.10);
        assert!(w > 0.19);
        assert_eq!(v, Verdict::Worse);
        let (w, _, v) = judge(&[50.0, 50.5], &[60.0, 60.5], Higher, 0.10);
        assert!(w < 0.0);
        assert_eq!(v, Verdict::Ok);
        // Wide, overlapping runs: the data cannot say, whatever the medians.
        let (_, spread, v) = judge(&[80.0, 100.0, 130.0], &[90.0, 125.0, 140.0], Lower, 0.10);
        assert!(spread > 0.10);
        assert_eq!(v, Verdict::Unresolved);
        // Wide but disjoint and worse: worse. Wide, disjoint, better: ok.
        let (_, _, v) = judge(&[80.0, 100.0, 120.0], &[150.0, 180.0, 210.0], Lower, 0.10);
        assert_eq!(v, Verdict::Worse);
        let (_, _, v) = judge(&[150.0, 180.0, 210.0], &[80.0, 100.0, 120.0], Lower, 0.10);
        assert_eq!(v, Verdict::Ok);
        // Single runs have no spread: the medians decide.
        let (_, spread, v) = judge(&[10.0], &[10.5], Lower, 0.10);
        assert_eq!(spread, 0.0);
        assert_eq!(v, Verdict::Ok);
    }

    fn file(seed: u64, setup: &[f64]) -> ResultFile {
        let mut workloads = BTreeMap::new();
        for workload in Workload::ALL {
            let mut end_to_end = Series::new();
            for metric in END_TO_END {
                end_to_end.insert(metric.name.to_string(), vec![1.0, 1.0]);
            }
            end_to_end.insert("setup_s".to_string(), setup.to_vec());
            let mut per_layer = Series::new();
            per_layer.insert("finn.cycles_per_frame".to_string(), vec![1234.0]);
            workloads.insert(
                workload.name().to_string(),
                WorkloadResult {
                    attempted: vec![100],
                    failed: vec![0],
                    end_to_end,
                    per_layer,
                },
            );
        }
        ResultFile {
            seed,
            seconds: 2.0,
            vocabulary: vocabulary(),
            workloads,
        }
    }

    #[test]
    fn result_files_round_trip_and_compare() {
        let base = file(7, &[10.0, 10.1]);
        assert_eq!(ResultFile::from_json(&base.to_json()).unwrap(), base);

        let slower = file(7, &[14.0, 14.1]);
        let rows = compare(&base, &slower).unwrap();
        assert_eq!(rows.len(), Workload::ALL.len() * END_TO_END.len());
        let worse: Vec<_> = rows
            .iter()
            .filter(|r| r.verdict == Verdict::Worse)
            .collect();
        assert_eq!(worse.len(), Workload::ALL.len());
        assert!(worse.iter().all(|r| r.metric == "setup_s"));
        assert!(table(&rows).contains("worse"));

        // Different seeds or vocabularies are refused.
        assert!(compare(&base, &file(8, &[10.0])).is_err());
        let mut renamed = file(7, &[10.0]);
        renamed.vocabulary.push("extra".to_string());
        assert!(compare(&base, &renamed).is_err());
    }

    #[test]
    fn exact_counts_and_failures_are_checked() {
        let a = file(7, &[10.0]);
        let mut b = file(7, &[10.0]);
        assert!(exact_mismatches(&a, &b).is_empty());
        assert!(more_failures(&a, &b).is_empty());
        let demo = b.workloads.get_mut("demo_stream").unwrap();
        demo.per_layer
            .insert("finn.cycles_per_frame".to_string(), vec![1235.0]);
        demo.failed = vec![3];
        assert_eq!(exact_mismatches(&a, &b).len(), 1);
        assert_eq!(more_failures(&a, &b).len(), 1);
    }
}
