//! Design-space exploration for the Tincy system.
//!
//! The paper ships exactly one design: Tiny YOLO after the §III-E
//! transformations (a)–(d), `[W1A3]` hidden layers, and a single 16×16
//! time-multiplexed conv engine on the XCZU3EG. This crate asks the
//! question the authors answered by hand: *of all the designs the stack
//! can express, which are worth building?*
//!
//! A candidate design is a coordinate in three axes:
//!
//! * a subset of the topology rewrites in `tincy_core::variants`
//!   ([`EditSet`]),
//! * a hidden-layer precision profile ([`HiddenProfile`]),
//! * a PE×SIMD engine fold ([`DesignPoint::pe`], [`DesignPoint::simd`]).
//!
//! [`run_sweep`] enumerates the candidates, prunes ragged folds,
//! fabric-incompatible activations and over-budget engines, evaluates the
//! rest against the calibrated models — the FINN cycle model and §III-F
//! pipeline model for throughput, a Table IV-calibrated proxy for
//! accuracy, the XCZU3EG bill-of-materials model for resources — and
//! extracts the Pareto frontier over (fps ↑, accuracy ↑, utilization ↓).
//! At the paper's shipped coordinates the evaluator reproduces the final
//! rung of `tincy_perf::ladder::speedup_ladder` exactly, so the paper's
//! design appears as one (non-dominated) frontier point.
//!
//! Every design point lowers to a serializable [`tincy_nn::ModelSpec`],
//! so a frontier pick can be instantiated and probed end-to-end — trained
//! via `tincy-train`, served bit-exactly via `tincy-serve` — without code
//! changes.

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

pub mod design;
pub mod evaluate;
pub mod frontier;
pub mod report;
pub mod sweep;
pub mod variants;

pub use design::{DesignPoint, EditSet, HiddenProfile};
pub use evaluate::{accuracy_proxy, evaluate, Calibration, Evaluation};
pub use frontier::{dominates, fingerprint, pareto_frontier, Objectives};
pub use report::{report_json, report_table};
pub use sweep::{
    run_sweep, EvaluatedPoint, ExploreReport, PruneCounts, ResourceBudget, SweepConfig,
};
pub use variants::{point_from_id, servable_variants, FrontierVariant};
