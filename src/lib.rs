//! # Tincy
//!
//! End-to-end reproduction of *"Inference of Quantized Neural Networks on
//! Heterogeneous All-Programmable Devices"* (Preußer et al., DATE 2018) as a
//! Rust workspace. This facade crate re-exports every subsystem so that
//! examples and downstream users can depend on a single crate.
//!
//! The workspace models the paper's full system:
//!
//! * [`tensor`] — CHW feature maps, matrices, `im2col`, bit-packed containers.
//! * [`quant`] — affine/fixed-point quantization, binary & ternary weights,
//!   FINN-style integer threshold activations.
//! * [`simd`] — a NEON-semantics vector model and the paper's four
//!   first-layer convolution kernels (generic, low-precision GEMM, fused
//!   sliced im2col+GEMM, fully unrolled 16×27).
//! * [`nn`] — a Darknet-analog layer framework with the paper's `[offload]`
//!   mechanism (Figs 3 & 4).
//! * [`finn`] — a behavioural + cycle-approximate simulator of the FINN QNN
//!   accelerator (MVTU, sliding-window unit, XCZU3EG resource model).
//! * [`pipeline`] — the re-implemented `demo`-mode frame pipeline (Figs 5 & 6).
//! * [`video`] — synthetic camera, letterboxing, drawing, datasets.
//! * [`eval`] — IoU, NMS, VOC-style mAP.
//! * [`train`] — SGD training and straight-through-estimator retraining.
//! * [`perf`] — op counting and the calibrated stage-time/speedup models
//!   behind Tables I–III and the paper's speedup ladder.
//! * [`core`] — Tiny/Tincy YOLO topologies, the (a)–(d) transformations and
//!   end-to-end system assembly.
//! * [`explore`] — design-space exploration: sweeps engine folds, hidden
//!   bit-widths and the (a)–(d) topology edits against the calibrated
//!   resource/throughput/accuracy models and emits the Pareto frontier.
//! * [`serve`] — concurrent inference serving: micro-batched FINN offload,
//!   SLO-aware heterogeneous scheduling, admission control and a
//!   deterministic load generator.
//! * [`trace`] — low-overhead structured tracing: per-thread ring-buffered
//!   span recording, streaming segment drains, Chrome trace-event export
//!   and modeled-vs-observed profiling.
//! * [`telemetry`] — the live-metrics layer: a unified counter/gauge/
//!   histogram registry with Prometheus and JSON exposition served from a
//!   minimal std-only HTTP status endpoint.
//!
//! ## Quickstart
//!
//! ```
//! use tincy::core::topology;
//!
//! let net = topology::tincy_yolo();
//! assert_eq!(net.total_ops(), 4_445_001_496);
//! ```

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

pub use tincy_core as core;
pub use tincy_eval as eval;
pub use tincy_explore as explore;
pub use tincy_finn as finn;
pub use tincy_kernels as kernels;
pub use tincy_nn as nn;
pub use tincy_perf as perf;
pub use tincy_pipeline as pipeline;
pub use tincy_quant as quant;
pub use tincy_serve as serve;
pub use tincy_simd as simd;
pub use tincy_telemetry as telemetry;
pub use tincy_tensor as tensor;
pub use tincy_trace as trace;
pub use tincy_train as train;
pub use tincy_video as video;
