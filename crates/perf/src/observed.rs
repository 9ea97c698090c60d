//! Modeled-vs-observed stage comparison.
//!
//! The stage budget of [`crate::stages`] predicts per-frame stage times
//! (Table III); a traced run measures them. This module folds observed
//! per-stage means (as produced by a trace profile) onto the Table III
//! stage taxonomy and diffs them against a [`StageBudget`], flagging
//! stages whose observed time deviates from the model by more than a
//! caller-chosen threshold. The same fold is the measured budget,
//! [`StageBudget::from_observed`].
//!
//! The mapping from pipeline stage names to [`StageId`] follows the demo
//! pipeline layout (Fig 5): `source`/`letterbox` are acquisition, `L[0]`
//! is the input layer, standalone pools are the max-pool row, the offload
//! stage is the hidden stack, later convs and the region head are the
//! output layer, `object boxing` is box drawing, and `frame drawing`/
//! `sink` are image output.

use crate::stages::{StageBudget, StageId};

/// One row of the modeled-vs-observed table.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelDiffRow {
    /// The Table III stage.
    pub stage: StageId,
    /// Modeled per-frame time in ms.
    pub modeled_ms: f64,
    /// Observed per-frame time in ms (`None` when the trace carried no
    /// samples for this stage).
    pub observed_ms: Option<f64>,
    /// `observed / modeled` (`None` without an observation).
    pub ratio: Option<f64>,
    /// Whether the deviation exceeds the threshold.
    pub flagged: bool,
}

/// Classifies one pipeline stage name onto the Table III taxonomy.
/// Returns `None` for names outside the frame path (trace-internal
/// labels such as `slot.deposit` or `gemm.scalar`).
fn classify_stage(name: &str) -> Option<StageId> {
    match name {
        "source" | "letterbox" => return Some(StageId::Acquisition),
        "object boxing" => return Some(StageId::BoxDrawing),
        "frame drawing" | "sink" => return Some(StageId::ImageOutput),
        _ => {}
    }
    // Host-path kernels: `cpu.kernel.binary` spans (plus the quantized
    // `cpu.kernel.q8`). Attribution-only — they nest inside the
    // hidden-layer / offload time.
    if name.starts_with("cpu.kernel") {
        return Some(StageId::CpuKernel);
    }
    // Network layer stages are named "L[i] kind".
    let rest = name.strip_prefix("L[")?;
    let close = rest.find(']')?;
    let index: usize = rest[..close].parse().ok()?;
    let kind = rest[close + 1..].trim();
    match kind {
        "offload" => Some(StageId::HiddenLayers),
        "pool" => Some(StageId::MaxPool),
        "region" => Some(StageId::OutputLayer),
        "conv" => Some(if index == 0 {
            StageId::InputLayer
        } else {
            StageId::OutputLayer
        }),
        _ => None,
    }
}

/// Folds `(stage name, mean ms)` pairs onto the taxonomy, in
/// [`StageId::ALL`] order: names sharing a [`StageId`] (e.g. `source` and
/// `letterbox`) are summed, since the budget models them as one row, and
/// a stage nothing was observed for is `None`.
pub(crate) fn fold(observed: &[(String, f64)]) -> [Option<f64>; 8] {
    let mut sums: [Option<f64>; 8] = [None; 8];
    for (name, ms) in observed {
        if let Some(stage) = classify_stage(name) {
            let slot = &mut sums[stage.index()];
            *slot = Some(slot.unwrap_or(0.0) + ms);
        }
    }
    sums
}

/// Diffs observed per-stage means against a stage budget.
///
/// `observed` holds `(stage name, mean ms)` pairs — the shape produced by
/// a trace profile's stage summary — folded as [`StageBudget::from_observed`]
/// folds them. `threshold` is the relative deviation above which a row is
/// flagged (`0.25` = flag stages off by more than 25%); rows with no
/// observation are never flagged.
pub fn model_diff(
    budget: &StageBudget,
    observed: &[(String, f64)],
    threshold: f64,
) -> Vec<ModelDiffRow> {
    StageId::ALL
        .into_iter()
        .zip(fold(observed))
        .map(|(stage, observed_ms)| {
            let modeled_ms = budget.get(stage);
            let ratio = observed_ms.and_then(|o| {
                if modeled_ms > 0.0 {
                    Some(o / modeled_ms)
                } else {
                    None
                }
            });
            let flagged = ratio.is_some_and(|r| (r - 1.0).abs() > threshold);
            ModelDiffRow {
                stage,
                modeled_ms,
                observed_ms,
                ratio,
                flagged,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn demo_stage_names_classify_onto_table_three() {
        assert_eq!(classify_stage("source"), Some(StageId::Acquisition));
        assert_eq!(classify_stage("letterbox"), Some(StageId::Acquisition));
        assert_eq!(classify_stage("L[0] conv"), Some(StageId::InputLayer));
        assert_eq!(classify_stage("L[1] offload"), Some(StageId::HiddenLayers));
        assert_eq!(classify_stage("L[2] conv"), Some(StageId::OutputLayer));
        assert_eq!(classify_stage("L[3] region"), Some(StageId::OutputLayer));
        assert_eq!(classify_stage("L[1] pool"), Some(StageId::MaxPool));
        assert_eq!(classify_stage("object boxing"), Some(StageId::BoxDrawing));
        assert_eq!(classify_stage("frame drawing"), Some(StageId::ImageOutput));
        assert_eq!(classify_stage("sink"), Some(StageId::ImageOutput));
        assert_eq!(classify_stage("slot.deposit"), None);
        assert_eq!(classify_stage("gemm.scalar"), None);
        assert_eq!(classify_stage("L[x] conv"), None);
        assert_eq!(
            classify_stage("cpu.kernel.binary"),
            Some(StageId::CpuKernel)
        );
        assert_eq!(classify_stage("cpu.kernel.q8"), Some(StageId::CpuKernel));
    }

    #[test]
    fn diff_sums_shared_stages_and_flags_deviations() {
        let budget = StageBudget::paper_baseline()
            .with(StageId::Acquisition, 10.0)
            .with(StageId::InputLayer, 100.0);
        let observed = vec![
            ("source".to_owned(), 10.0),
            ("letterbox".to_owned(), 5.0),
            ("L[0] conv".to_owned(), 101.0),
            ("gemm.scalar".to_owned(), 50.0), // outside the frame path
        ];
        let rows = model_diff(&budget, &observed, 0.25);
        assert_eq!(rows.len(), 8);

        let acq = &rows[0];
        assert_eq!(acq.stage, StageId::Acquisition);
        assert_eq!(acq.observed_ms, Some(15.0), "source + letterbox sum");
        assert!(acq.flagged, "+50% exceeds the 25% threshold");
        assert!((acq.ratio.unwrap() - 1.5).abs() < 1e-12);
        let input = &rows[1];
        assert_eq!(input.stage, StageId::InputLayer);
        assert_eq!(input.observed_ms, Some(101.0));
        assert!(!input.flagged, "1% off is inside the threshold");
        // Stages without observations are present but never flagged.
        let hidden = &rows[3];
        assert_eq!(hidden.stage, StageId::HiddenLayers);
        assert_eq!(hidden.observed_ms, None);
        assert!(!hidden.flagged);
    }

    #[test]
    fn observed_budget_is_the_diffs_fold_with_the_baseline_elsewhere() {
        let observed = vec![
            ("source".to_owned(), 3.0),
            ("letterbox".to_owned(), 1.5),
            ("L[2] conv".to_owned(), 4.0),
            ("L[3] region".to_owned(), 2.0),
            ("cpu.kernel.binary".to_owned(), 6.5),
            ("slot.deposit".to_owned(), 99.0), // ignored: off the frame path
        ];
        let budget = StageBudget::from_observed(&observed);
        let baseline = StageBudget::paper_baseline();
        assert!((budget.get(StageId::Acquisition) - 4.5).abs() < 1e-12);
        assert!((budget.get(StageId::OutputLayer) - 6.0).abs() < 1e-12);
        assert!((budget.get(StageId::CpuKernel) - 6.5).abs() < 1e-12);
        assert_eq!(
            budget.get(StageId::HiddenLayers),
            baseline.get(StageId::HiddenLayers)
        );
        // The diff's coverage mask is the budget's: exactly the stages the
        // fold replaced.
        let covered: Vec<StageId> = model_diff(&budget, &observed, 0.01)
            .into_iter()
            .filter(|row| row.observed_ms.is_some())
            .map(|row| row.stage)
            .collect();
        let expected = [
            StageId::Acquisition,
            StageId::OutputLayer,
            StageId::CpuKernel,
        ];
        assert_eq!(covered, expected);
    }
}
