//! The in-process aggregator: folds span records into per-label (and
//! per-layer) duration profiles. Quantiles here are exact — the profile
//! keeps every duration, unlike the streaming log-linear histograms in
//! `tincy-pipeline` — because a trace is a bounded post-mortem artifact.

use crate::data::Trace;

/// Aggregated statistics for one (label, layer) group of spans.
#[derive(Debug, Clone)]
pub struct ProfileRow {
    /// Span name.
    pub label: String,
    /// Layer attribute, when the group's spans carry one.
    pub layer: Option<u32>,
    /// Spans in the group.
    pub count: u64,
    /// Summed duration (ns).
    pub total_ns: u64,
    /// Shortest span (ns).
    pub min_ns: u64,
    /// Longest span (ns).
    pub max_ns: u64,
    /// Exact median (ns).
    pub p50_ns: u64,
    /// Exact 95th percentile (ns).
    pub p95_ns: u64,
}

impl ProfileRow {
    /// Mean span duration in nanoseconds.
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            #[allow(clippy::cast_precision_loss)]
            {
                self.total_ns as f64 / self.count as f64
            }
        }
    }

    /// Mean span duration in milliseconds.
    pub fn mean_ms(&self) -> f64 {
        self.mean_ns() / 1e6
    }
}

/// A per-stage/per-layer profile folded from a trace.
#[derive(Debug, Clone, Default)]
pub struct Profile {
    /// Rows sorted by (label, layer).
    pub rows: Vec<ProfileRow>,
}

impl Profile {
    /// Builds the profile from every span in `trace`.
    pub fn from_trace(trace: &Trace) -> Self {
        use std::collections::BTreeMap;
        let mut groups: BTreeMap<(String, Option<u32>), Vec<u64>> = BTreeMap::new();
        for span in trace.spans() {
            groups
                .entry((trace.label_name(span.label).to_string(), span.attrs.layer))
                .or_default()
                .push(span.duration_ns());
        }
        let rows = groups
            .into_iter()
            .map(|((label, layer), mut durations)| {
                durations.sort_unstable();
                let count = durations.len() as u64;
                ProfileRow {
                    label,
                    layer,
                    count,
                    total_ns: durations.iter().sum(),
                    min_ns: *durations.first().expect("group is non-empty"),
                    max_ns: *durations.last().expect("group is non-empty"),
                    p50_ns: exact_quantile(&durations, 0.50),
                    p95_ns: exact_quantile(&durations, 0.95),
                }
            })
            .collect();
        Self { rows }
    }

    /// The row for `label` (ignoring layer splits), if present.
    pub fn row(&self, label: &str) -> Option<&ProfileRow> {
        self.rows.iter().find(|r| r.label == label)
    }

    /// Per-label mean durations in milliseconds, layer groups folded
    /// together — the shape `tincy_perf::observed::model_diff` consumes.
    pub fn stage_means_ms(&self) -> Vec<(String, f64)> {
        use std::collections::BTreeMap;
        let mut folded: BTreeMap<String, (u64, u64)> = BTreeMap::new();
        for row in &self.rows {
            let entry = folded.entry(row.label.clone()).or_insert((0, 0));
            entry.0 += row.total_ns;
            entry.1 += row.count;
        }
        folded
            .into_iter()
            .map(|(label, (total, count))| {
                #[allow(clippy::cast_precision_loss)]
                let mean_ms = if count == 0 {
                    0.0
                } else {
                    total as f64 / count as f64 / 1e6
                };
                (label, mean_ms)
            })
            .collect()
    }
}

/// Nearest-rank quantile over a sorted slice.
fn exact_quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    #[allow(
        clippy::cast_precision_loss,
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss
    )]
    let rank = ((q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize).max(1);
    sorted[rank - 1]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::TestClock;
    use crate::collector::{exclusive, finish, start_with_clock};
    use crate::event::Label;
    use crate::span::span;
    use std::sync::Arc;

    #[test]
    fn exact_quantile_is_nearest_rank() {
        let sorted = vec![10, 20, 30, 40];
        assert_eq!(exact_quantile(&sorted, 0.0), 10);
        assert_eq!(exact_quantile(&sorted, 0.5), 20);
        assert_eq!(exact_quantile(&sorted, 0.75), 30);
        assert_eq!(exact_quantile(&sorted, 1.0), 40);
    }

    #[test]
    fn profile_groups_by_label_and_layer() {
        let _guard = exclusive();
        let clock = Arc::new(TestClock::new());
        start_with_clock(clock.clone(), 256);
        let stage = Label::intern("profile.stage");
        let layer = Label::intern("profile.layer");
        for (duration, layer_ix) in [(100u64, 0u32), (300, 0), (500, 1)] {
            let guard = span(layer).layer(layer_ix).start();
            clock.advance(duration);
            drop(guard);
        }
        {
            let _g = span(stage).start();
            clock.advance(1_000);
        }
        let profile = Profile::from_trace(&finish());
        assert_eq!(profile.rows.len(), 3);
        let l0 = profile
            .rows
            .iter()
            .find(|r| r.label == "profile.layer" && r.layer == Some(0))
            .unwrap();
        assert_eq!(l0.count, 2);
        assert_eq!(l0.min_ns, 100);
        assert_eq!(l0.max_ns, 300);
        assert_eq!(l0.p50_ns, 100);
        assert_eq!(l0.total_ns, 400);
        let means = profile.stage_means_ms();
        let layer_mean = means.iter().find(|(l, _)| l == "profile.layer").unwrap().1;
        assert!((layer_mean - 0.0003).abs() < 1e-9, "mean of 100/300/500 ns");
        assert_eq!(
            means.iter().find(|(l, _)| l == "profile.stage").unwrap().1,
            0.001
        );
    }
}
