//! Performance models behind the paper's evaluation.
//!
//! The paper reports wall-clock times measured on a Zynq UltraScale+
//! (Cortex-A53 + fabric) that this reproduction does not have. We therefore
//! split every performance claim into two parts:
//!
//! 1. **Calibration** — the per-stage baseline column of Table III is taken
//!    as ground truth once ([`calib`]); it pins the effective scalar rates
//!    of the A53 for each stage class.
//! 2. **Modelling** — every optimization of §III is a *transformation* of
//!    the stage budget: the fabric offload time comes from the FINN cost
//!    model ([`fabric`]), the NEON kernel gains come from the paper's own
//!    measured ratios (cross-checked against our measured Rust kernel
//!    ratios in the benches), the topology edits re-scale ops, and the
//!    pipeline model bounds throughput by the slowest stage.
//!
//! The [`ladder`] module strings these transformations into the paper's
//! speedup ladder: 0.1 fps → 1.1 fps → 2.5 fps → >5 fps → 16 fps (160×).

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

pub mod calib;
pub mod fabric;
pub mod ladder;
pub mod observed;
pub mod pipeline_model;
pub mod stages;
pub mod tables;

pub use fabric::tincy_cost;
pub use ladder::{speedup_ladder, LadderStep};
pub use observed::{model_diff, ModelDiffRow};
pub use pipeline_model::{pipelined_fps, PipelineModel};
pub use stages::{StageBudget, StageId};
pub use tables::{table1, table2, table3, Table1Row, Table2Row, Table3Row};
