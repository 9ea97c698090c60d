//! The sweep driver: enumerate candidate designs, prune infeasible ones,
//! evaluate the rest and extract the Pareto frontier.

use crate::design::{DesignPoint, EditSet, HiddenProfile};
use crate::evaluate::{evaluate, Calibration, Evaluation};
use crate::frontier::{fingerprint, pareto_frontier, Objectives};
use tincy_finn::{FpgaDevice, ResourceEstimate};
use tincy_nn::FoldSpec;

/// Per-axis caps the fabric bill of materials must stay within.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResourceBudget {
    /// 6-input look-up tables.
    pub luts: u64,
    /// 36 Kib block RAMs.
    pub bram36: u64,
    /// DSP48 slices.
    pub dsps: u64,
}

impl ResourceBudget {
    /// A device's budget at a utilization ceiling (routable occupation).
    pub fn of_device(device: &FpgaDevice, ceiling: f64) -> Self {
        Self {
            luts: (device.luts as f64 * ceiling) as u64,
            bram36: (device.bram36 as f64 * ceiling) as u64,
            dsps: (device.dsps as f64 * ceiling) as u64,
        }
    }

    /// Whether an estimate fits within every axis cap.
    pub fn admits(&self, estimate: &ResourceEstimate) -> bool {
        estimate.luts <= self.luts && estimate.bram36 <= self.bram36 && estimate.dsps <= self.dsps
    }

    /// Mean fraction of the budget an estimate consumes, averaged over
    /// the LUT/BRAM/DSP axes. The mean (rather than the worst axis) keeps
    /// the utilization objective sensitive to LUT growth even when BRAM —
    /// fixed by the largest layer's weight store — is the critical axis.
    /// An axis with a zero cap contributes 0 when unused and `inf` when
    /// used.
    pub fn utilization(&self, estimate: &ResourceEstimate) -> f64 {
        let frac = |used: u64, cap: u64| {
            if used == 0 {
                0.0
            } else if cap == 0 {
                f64::INFINITY
            } else {
                used as f64 / cap as f64
            }
        };
        (frac(estimate.luts, self.luts)
            + frac(estimate.bram36, self.bram36)
            + frac(estimate.dsps, self.dsps))
            / 3.0
    }
}

/// Sweep bounds and feasibility budget.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepConfig {
    /// Inclusive power-of-two PE range.
    pub pe_bounds: (usize, usize),
    /// Inclusive power-of-two SIMD range.
    pub simd_bounds: (usize, usize),
    /// Target device (named in the report; the default budget derives
    /// from it).
    pub device: FpgaDevice,
    /// Resource caps candidate engines must fit.
    pub budget: ResourceBudget,
}

impl Default for SweepConfig {
    fn default() -> Self {
        let device = FpgaDevice::XCZU3EG;
        Self {
            pe_bounds: (4, 64),
            simd_bounds: (4, 64),
            device,
            budget: ResourceBudget::of_device(&device, 0.9),
        }
    }
}

impl SweepConfig {
    fn powers(bounds: (usize, usize)) -> Vec<usize> {
        let mut out = Vec::new();
        let mut v = bounds.0.max(1).next_power_of_two();
        while v <= bounds.1 {
            out.push(v);
            v *= 2;
        }
        out
    }

    /// Every candidate design within the bounds, in deterministic sweep
    /// order. Non-offloadable profiles need no engine, so they are
    /// enumerated once per edit subset at the shipped fold rather than
    /// once per fold.
    pub fn enumerate(&self) -> Vec<DesignPoint> {
        let pes = Self::powers(self.pe_bounds);
        let simds = Self::powers(self.simd_bounds);
        let mut points = Vec::new();
        for edits in EditSet::ALL {
            for profile in HiddenProfile::ALL {
                if !profile.offloadable() {
                    points.push(DesignPoint {
                        edits,
                        profile,
                        pe: FoldSpec::SHIPPED.pe,
                        simd: FoldSpec::SHIPPED.simd,
                    });
                    continue;
                }
                for &pe in &pes {
                    for &simd in &simds {
                        points.push(DesignPoint {
                            edits,
                            profile,
                            pe,
                            simd,
                        });
                    }
                }
            }
        }
        points
    }
}

/// Why a candidate was pruned before (or at) evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PruneCounts {
    /// Fold does not divide some offloaded layer's geometry.
    pub illegal_fold: usize,
    /// Offloadable precision but leaky ReLU in the hidden stack — the
    /// threshold activations cannot express it (needs edit (a)).
    pub undeployable: usize,
    /// Engine estimate exceeds the resource budget.
    pub over_budget: usize,
}

impl PruneCounts {
    /// Total pruned candidates.
    pub fn total(&self) -> usize {
        self.illegal_fold + self.undeployable + self.over_budget
    }
}

/// One feasible, evaluated design point.
#[derive(Debug, Clone, PartialEq)]
pub struct EvaluatedPoint {
    /// The design coordinates.
    pub point: DesignPoint,
    /// Modelled objectives and detail.
    pub eval: Evaluation,
    /// Mean budget fraction across the resource axes.
    pub utilization: f64,
    /// Whether the point survived Pareto pruning.
    pub on_frontier: bool,
}

impl EvaluatedPoint {
    fn objectives(&self) -> Objectives {
        Objectives {
            fps: self.eval.fps,
            accuracy: self.eval.accuracy,
            utilization: self.utilization,
        }
    }

    /// The canonical summary line fingerprints are built from.
    pub fn summary(&self) -> String {
        format!(
            "{}|{:.4}|{:.4}|{:.6}|{}|{}|{}",
            self.point.id(),
            self.eval.fps,
            self.eval.accuracy,
            self.utilization,
            self.eval.resource.luts,
            self.eval.resource.bram36,
            self.eval.resource.dsps,
        )
    }
}

/// The result of one sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct ExploreReport {
    /// The sweep configuration that produced the report.
    pub config: SweepConfig,
    /// Candidates enumerated.
    pub enumerated: usize,
    /// Candidates pruned, by reason.
    pub pruned: PruneCounts,
    /// Feasible evaluated points, in sweep order.
    pub feasible: Vec<EvaluatedPoint>,
    /// Indices into `feasible` of the Pareto frontier, in sweep order.
    pub frontier: Vec<usize>,
    /// FNV-1a fingerprint of the frontier summaries (order-independent).
    pub fingerprint: u64,
}

impl ExploreReport {
    /// The frontier points, in sweep order.
    pub fn frontier_points(&self) -> impl Iterator<Item = &EvaluatedPoint> {
        self.frontier.iter().map(|&i| &self.feasible[i])
    }

    /// Index (into `feasible`) of the paper's shipped configuration.
    pub fn paper_index(&self) -> Option<usize> {
        self.feasible
            .iter()
            .position(|p| p.point == DesignPoint::PAPER)
    }

    /// Distinct edit-subset labels on the frontier.
    pub fn frontier_edit_subsets(&self) -> Vec<String> {
        let mut labels: Vec<String> = self
            .frontier_points()
            .map(|p| p.point.edits.label())
            .collect();
        labels.sort();
        labels.dedup();
        labels
    }

    /// Asserts the reproduction invariants: the paper's shipped design is
    /// feasible, reproduces the ladder's pipelined frame rate, sits on
    /// the frontier, and the frontier is substantial (≥ 10 points over
    /// ≥ 2 edit subsets) and deterministic.
    ///
    /// # Errors
    ///
    /// Describes the first violated invariant.
    pub fn check(&self) -> Result<(), String> {
        let paper = self
            .paper_index()
            .ok_or("paper design point is not in the feasible set")?;
        let paper = &self.feasible[paper];
        let ladder_fps = tincy_perf::ladder::speedup_ladder()
            .last()
            .expect("ladder is non-empty")
            .fps;
        if (paper.eval.fps - ladder_fps).abs() > 1e-9 {
            return Err(format!(
                "paper point models {:.4} fps but the ladder says {ladder_fps:.4}",
                paper.eval.fps
            ));
        }
        if !paper.on_frontier {
            return Err("paper design point is dominated".to_owned());
        }
        if self.frontier.len() < 10 {
            return Err(format!(
                "frontier has only {} points (expected >= 10)",
                self.frontier.len()
            ));
        }
        let subsets = self.frontier_edit_subsets();
        if subsets.len() < 2 {
            return Err(format!(
                "frontier spans only the {subsets:?} edit subset(s)"
            ));
        }
        let rerun = run_sweep(&self.config);
        if rerun.fingerprint != self.fingerprint {
            return Err(format!(
                "sweep is not deterministic: fingerprint {:016x} vs {:016x}",
                self.fingerprint, rerun.fingerprint
            ));
        }
        Ok(())
    }
}

/// Runs a full sweep: enumerate, prune, evaluate, extract the frontier.
pub fn run_sweep(config: &SweepConfig) -> ExploreReport {
    let calib = Calibration::paper();
    let mut pruned = PruneCounts::default();
    let mut feasible = Vec::new();
    let candidates = config.enumerate();
    let enumerated = candidates.len();
    for point in candidates {
        if point.legal_fold().is_err() {
            pruned.illegal_fold += 1;
            continue;
        }
        let Ok(eval) = evaluate(&point.model(), &calib) else {
            pruned.undeployable += 1;
            continue;
        };
        if !config.budget.admits(&eval.resource) {
            pruned.over_budget += 1;
            continue;
        }
        feasible.push(EvaluatedPoint {
            point,
            eval,
            utilization: config.budget.utilization(&eval.resource),
            on_frontier: false,
        });
    }
    let objectives: Vec<Objectives> = feasible.iter().map(EvaluatedPoint::objectives).collect();
    let frontier = pareto_frontier(&objectives);
    for &i in &frontier {
        feasible[i].on_frontier = true;
    }
    let summaries: Vec<String> = frontier.iter().map(|&i| feasible[i].summary()).collect();
    let fingerprint = fingerprint(&summaries);
    ExploreReport {
        config: *config,
        enumerated,
        pruned,
        feasible,
        frontier,
        fingerprint,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frontier::dominates;

    #[test]
    fn default_sweep_passes_its_own_check() {
        let report = run_sweep(&SweepConfig::default());
        report.check().unwrap();
    }

    #[test]
    fn sweep_prunes_for_every_reason() {
        let report = run_sweep(&SweepConfig::default());
        assert!(report.pruned.illegal_fold > 0, "{:?}", report.pruned);
        assert!(report.pruned.undeployable > 0, "{:?}", report.pruned);
        assert_eq!(
            report.enumerated,
            report.pruned.total() + report.feasible.len()
        );
    }

    #[test]
    fn no_frontier_point_is_dominated_and_every_cut_point_is() {
        let report = run_sweep(&SweepConfig::default());
        let objectives: Vec<Objectives> = report
            .feasible
            .iter()
            .map(EvaluatedPoint::objectives)
            .collect();
        for &i in &report.frontier {
            for q in &objectives {
                assert!(!dominates(q, &objectives[i]));
            }
        }
        for (j, q) in objectives.iter().enumerate() {
            if !report.frontier.contains(&j) {
                assert!(
                    report
                        .frontier
                        .iter()
                        .any(|&i| dominates(&objectives[i], q) || objectives[i] == *q),
                    "feasible point {j} neither on the frontier nor dominated"
                );
            }
        }
    }

    #[test]
    fn identically_configured_sweeps_are_identical() {
        let a = run_sweep(&SweepConfig::default());
        let b = run_sweep(&SweepConfig::default());
        assert_eq!(a.fingerprint, b.fingerprint);
        assert_eq!(a, b);
    }

    #[test]
    fn starved_budget_evicts_the_paper_point() {
        let config = SweepConfig {
            budget: ResourceBudget {
                luts: 12_000,
                bram36: 16,
                dsps: 0,
            },
            ..SweepConfig::default()
        };
        let report = run_sweep(&config);
        assert!(report.paper_index().is_none());
        assert!(report.check().is_err());
        assert!(report.pruned.over_budget > 0);
    }

    #[test]
    fn tight_bounds_still_contain_the_paper_point() {
        let config = SweepConfig {
            pe_bounds: (4, 16),
            simd_bounds: (4, 16),
            ..SweepConfig::default()
        };
        let report = run_sweep(&config);
        report.check().unwrap();
    }
}
