//! Bit-packed XNOR-popcount CPU kernels for the fallback path.
//!
//! The hidden W1A3 layers of Tincy YOLO are served by the FINN fabric in
//! normal operation, but every degraded-mode frame (FINN faulted out, host
//! workers engaged, fleet shards drained) runs the bit-exact software
//! reference instead. The naive reference evaluates `Σ sign(wᵢ)·aᵢ` one
//! byte at a time; this crate computes the identical arithmetic on packed
//! `u64` lanes:
//!
//! * [`pack`] — im2col footprints packed into activation bitplanes with
//!   per-pixel popcount-correction terms, evaluated by the packed GEMM
//!   variants and activated through the folded batchnorm thresholds,
//! * [`gemm`] — the W8A8 quantized GEMM variants for mixed-precision
//!   profiles that keep 8-bit hidden layers,
//! * [`tune`] — the startup autotuner that picks a winning variant per
//!   layer shape and records it in a [`KernelPlan`], plus the process-wide
//!   plan cache and registry backing the `tincy_kernel_variant` metric.
//!
//! Every variant computes the same integer accumulators in a different
//! order, so outputs are bit-exact with the naive reference by
//! construction — the autotuner can never change results, only speed.

pub mod gemm;
pub mod pack;
pub mod tune;

pub use gemm::{gemm_q8, gemm_q8_reference};
pub use pack::{max_pool_levels, PackedLayer};
// The popcount dispatch of `tincy-simd`, re-exported for the fabric
// simulator. `tincy-finn` reaches `tincy-simd` through this crate rather
// than by an edge of its own: the benchmark package commits a lock file
// that records every edge, and must not change with the code it measures.
pub use tincy_simd::popcount::{PopcountIsa, PopcountKernel};
pub use tune::{
    autotune, plan_for, plan_snapshot, registry_json, KernelPlan, LayerShape, PlanEntry,
    TuneBudget, TuneMode, Variant,
};
