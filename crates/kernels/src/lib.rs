//! The one binary-conv core: bit-packed AND-popcount layers on `u64` words.
//!
//! The paper's CPU side and its fabric compute the same W1A3 layer
//! function, so this workspace computes it in one place. A
//! [`PackedLayer`] is that function for one hidden conv(+pool) layer:
//!
//! * the fabric simulator's engine (`tincy_finn::ConvEngine::run_layer`)
//!   is [`PackedLayer::run_on`] plus the cycle model;
//! * the host path — a serve host worker, the fault fallback,
//!   `QnnAccelerator::reference_run` — is [`PackedLayer::forward`]: the
//!   same call under a `cpu.kernel.*` span, with no cycle or fault
//!   bookkeeping.
//!
//! Modules:
//!
//! * `stream` — the schedule itself: line buffer, L1-sized
//!   footprint tile, three planes per weight word, comparators run across
//!   a tile row of accumulators;
//! * [`pack`] — [`PackedLayer`], its naive signed-arithmetic oracle
//!   [`PackedLayer::forward_reference`], and the shared max-pool;
//! * [`gemm`] — the W8A8 quantized GEMM for mixed-precision profiles that
//!   keep 8-bit hidden layers;
//! * [`tune`] — the remains of the autotuner, kept for `benchmark/`.
//!
//! No kernel here spawns a thread: parallelism lives in the frame pipeline
//! and the server's worker pool (the paper's fifth measure, "one thread per
//! core"), where the threads can be counted against the cores.

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

pub mod gemm;
pub mod pack;
mod stream;
pub mod tune;

pub use gemm::{gemm_q8, gemm_q8_reference};
pub use pack::{max_pool_levels, PackedLayer};
// The popcount dispatch of `tincy-simd`, re-exported for the fabric
// simulator. `tincy-finn` reaches `tincy-simd` through this crate rather
// than by an edge of its own: the benchmark package commits a lock file
// that records every edge, and must not change with the code it measures.
pub use tincy_simd::popcount::{PopcountIsa, PopcountKernel};
pub use tune::{autotune, KernelPlan, PlanEntry, TuneBudget, Variant};
