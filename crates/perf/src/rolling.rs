//! Rolling recalibration: the calibration-over-time half of the
//! modeled-vs-observed story.
//!
//! [`measured_budget`](crate::measured_budget) answers "what did this
//! run measure"; a long-lived server needs "what is the pipeline
//! measuring *now*, and has it walked away from the model". The
//! [`RollingCalibrator`] consumes per-segment stage means (as produced
//! by the streaming trace drains) and maintains an exponentially
//! weighted moving average per Table III stage — an EWMA over a nominal
//! window of N segments (`alpha = 2/(N+1)`, the standard N-period EWMA,
//! so the last N segments carry ~86% of the weight). Each stage's EWMA
//! is compared against a reference budget; relative divergence past a
//! threshold raises the drift alert.
//!
//! The reference is frozen from the EWMA itself after a warmup prefix
//! of segments — self-calibration: the absolute model does not apply
//! here (simulated timing, different silicon), but *drift from steady
//! state* is still the signal that matters.

use crate::observed::{classify_stage, stage_index};
use crate::stages::{StageBudget, StageId};

/// Tuning for a [`RollingCalibrator`].
#[derive(Debug, Clone, Copy)]
pub struct RollingConfig {
    /// Nominal EWMA window in segments; `alpha = 2 / (window + 1)`.
    pub window: usize,
    /// Segments absorbed before the self-calibrated reference freezes.
    /// Until the reference exists, no drift is computed and no alert can fire.
    pub warmup: usize,
    /// Relative divergence (`|ewma - reference| / reference`) at which a
    /// stage counts as drifted; `0.5` = 50%.
    pub threshold: f64,
}

impl Default for RollingConfig {
    fn default() -> Self {
        Self {
            window: 8,
            warmup: 3,
            threshold: 0.5,
        }
    }
}

/// One stage's drift state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftRow {
    /// The Table III stage.
    pub stage: StageId,
    /// Reference per-frame time in ms (`None` until the reference is
    /// established for this stage).
    pub reference_ms: Option<f64>,
    /// Current EWMA of the measured per-frame time in ms (`None` until
    /// the stage has been observed).
    pub ewma_ms: Option<f64>,
    /// Signed relative divergence `(ewma - reference) / reference`.
    pub drift: Option<f64>,
    /// Whether this stage currently exceeds the threshold.
    pub alerted: bool,
}

#[derive(Debug, Clone, Copy, Default)]
struct StageState {
    ewma_ms: Option<f64>,
    reference_ms: Option<f64>,
}

/// Windowed measured stage budgets with drift detection; see the module
/// docs for the EWMA and reference semantics.
#[derive(Debug, Clone)]
pub struct RollingCalibrator {
    config: RollingConfig,
    stages: [StageState; 8],
    segments: u64,
}

impl RollingCalibrator {
    /// A self-calibrating instance: the reference freezes from the EWMA
    /// after the warmup prefix.
    pub fn new(config: RollingConfig) -> Self {
        Self {
            config,
            stages: [StageState::default(); 8],
            segments: 0,
        }
    }

    /// The EWMA smoothing factor.
    fn alpha(&self) -> f64 {
        2.0 / (self.config.window as f64 + 1.0)
    }

    /// Absorbs one segment's per-stage means (`(stage name, mean ms)`
    /// pairs, the shape of `Profile::stage_means_ms`). Names sharing a
    /// [`StageId`] are summed, then folded into each stage's EWMA.
    ///
    /// Beyond the frame-path taxonomy of
    /// [`classify_stage`](crate::classify_stage), serve-shaped segments
    /// are understood too: `offload.attempt` counts as the hidden stack
    /// — but only when no `L[i] offload` stage is present, since in a
    /// demo-shaped segment the attempt is nested inside that stage and
    /// counting both would double it.
    pub fn absorb(&mut self, stage_means: &[(String, f64)]) {
        let has_offload_stage = stage_means
            .iter()
            .any(|(name, _)| classify_stage(name) == Some(StageId::HiddenLayers));
        let mut sums: [Option<f64>; 8] = [None; 8];
        for (name, ms) in stage_means {
            let stage = match classify_stage(name) {
                Some(stage) => stage,
                None if name == "offload.attempt" && !has_offload_stage => StageId::HiddenLayers,
                None => continue,
            };
            let slot = &mut sums[stage_index(stage)];
            *slot = Some(slot.unwrap_or(0.0) + ms);
        }
        let alpha = self.alpha();
        for (state, sum) in self.stages.iter_mut().zip(sums) {
            let Some(ms) = sum else { continue };
            state.ewma_ms = Some(match state.ewma_ms {
                Some(prev) => prev + alpha * (ms - prev),
                None => ms,
            });
        }
        self.segments += 1;
        // Self-calibration: freeze the post-warmup EWMA as the reference
        // for every stage that has one and lacks a reference. Stages
        // first observed later freeze on their first observation.
        if self.segments >= self.config.warmup as u64 {
            for state in &mut self.stages {
                if state.reference_ms.is_none() {
                    state.reference_ms = state.ewma_ms;
                }
            }
        }
    }

    /// Segments absorbed so far.
    pub fn segments(&self) -> u64 {
        self.segments
    }

    /// Whether the reference is still being established (self-calibrating
    /// warmup prefix).
    pub fn calibrating(&self) -> bool {
        self.segments < self.config.warmup as u64
    }

    /// The current drift state of every Table III stage.
    pub fn rows(&self) -> Vec<DriftRow> {
        StageId::ALL
            .into_iter()
            .enumerate()
            .map(|(i, stage)| {
                let state = self.stages[i];
                let drift = match (state.ewma_ms, state.reference_ms) {
                    (Some(ewma), Some(reference)) if reference > 0.0 => {
                        Some((ewma - reference) / reference)
                    }
                    _ => None,
                };
                DriftRow {
                    stage,
                    reference_ms: state.reference_ms,
                    ewma_ms: state.ewma_ms,
                    drift,
                    alerted: drift.is_some_and(|d| d.abs() > self.config.threshold),
                }
            })
            .collect()
    }

    /// Whether any stage currently exceeds the drift threshold.
    pub fn alerted(&self) -> bool {
        self.rows().iter().any(|row| row.alerted)
    }

    /// The windowed measured budget: each observed stage's EWMA, with
    /// `fallback` filling unobserved stages (the coverage-mask contract
    /// of [`measured_budget`](crate::measured_budget)).
    pub fn measured(&self, fallback: &StageBudget) -> StageBudget {
        let mut budget = *fallback;
        for (i, stage) in StageId::ALL.into_iter().enumerate() {
            if let Some(ms) = self.stages[i].ewma_ms {
                budget = budget.with(stage, ms);
            }
        }
        budget
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn segment(offload_ms: f64) -> Vec<(String, f64)> {
        vec![
            ("source".to_owned(), 2.0),
            ("L[0] conv".to_owned(), 5.0),
            ("L[1] offload".to_owned(), offload_ms),
            ("sink".to_owned(), 1.0),
        ]
    }

    #[test]
    fn steady_stream_never_alerts_and_tracks_the_mean() {
        let mut cal = RollingCalibrator::new(RollingConfig::default());
        assert!(cal.calibrating());
        for _ in 0..10 {
            cal.absorb(&segment(3.0));
        }
        assert!(!cal.calibrating());
        assert!(!cal.alerted());
        let rows = cal.rows();
        let hidden = rows
            .iter()
            .find(|r| r.stage == StageId::HiddenLayers)
            .unwrap();
        assert!((hidden.ewma_ms.unwrap() - 3.0).abs() < 1e-9);
        assert!(hidden.drift.unwrap().abs() < 1e-9);
        // Stages never observed carry no drift and never alert.
        let pool = rows.iter().find(|r| r.stage == StageId::MaxPool).unwrap();
        assert_eq!(pool.ewma_ms, None);
        assert!(!pool.alerted);
    }

    #[test]
    fn injected_slowdown_trips_the_alert_after_the_window_turns() {
        let config = RollingConfig {
            window: 4,
            warmup: 3,
            threshold: 0.5,
        };
        let mut cal = RollingCalibrator::new(config);
        for _ in 0..5 {
            cal.absorb(&segment(3.0));
        }
        assert!(!cal.alerted(), "steady prefix must not alert");
        // A 4x slowdown on the offload stage: the EWMA (alpha 0.4) crosses
        // +50% of the 3 ms reference within two slow segments.
        for _ in 0..4 {
            cal.absorb(&segment(12.0));
        }
        assert!(cal.alerted());
        let rows = cal.rows();
        let hidden = rows
            .iter()
            .find(|r| r.stage == StageId::HiddenLayers)
            .unwrap();
        assert!(hidden.alerted);
        assert!(hidden.drift.unwrap() > 0.5, "drift: {:?}", hidden.drift);
        // Unskewed stages stay quiet.
        assert!(!rows
            .iter()
            .any(|r| r.stage != StageId::HiddenLayers && r.alerted));
    }

    #[test]
    fn serve_shaped_segments_count_the_offload_attempt_once() {
        let mut cal = RollingCalibrator::new(RollingConfig::default());
        // Serve segments carry the attempt span only.
        cal.absorb(&[("offload.attempt".to_owned(), 4.0)]);
        let hidden = cal
            .rows()
            .into_iter()
            .find(|r| r.stage == StageId::HiddenLayers)
            .unwrap();
        assert_eq!(hidden.ewma_ms, Some(4.0));
        // Demo segments carry both the stage and its nested attempt: the
        // attempt must not be double counted.
        let mut cal = RollingCalibrator::new(RollingConfig::default());
        cal.absorb(&[
            ("L[1] offload".to_owned(), 4.0),
            ("offload.attempt".to_owned(), 3.5),
        ]);
        let hidden = cal
            .rows()
            .into_iter()
            .find(|r| r.stage == StageId::HiddenLayers)
            .unwrap();
        assert_eq!(hidden.ewma_ms, Some(4.0));
    }

    #[test]
    fn measured_budget_mixes_ewma_with_fallback() {
        let mut cal = RollingCalibrator::new(RollingConfig::default());
        cal.absorb(&segment(3.0));
        let fallback = StageBudget::paper_baseline();
        let measured = cal.measured(&fallback);
        assert!((measured.get(StageId::HiddenLayers) - 3.0).abs() < 1e-9);
        assert_eq!(
            measured.get(StageId::MaxPool),
            fallback.get(StageId::MaxPool)
        );
    }
}
