//! A software model of the ARM NEON vector extension and the convolution
//! kernels built on it (§III-D).
//!
//! The Zynq UltraScale+ application processors offer 128-bit NEON SIMD:
//! "equivalent parallel computations can be performed in four 32-bit lanes
//! up to sixteen 8-bit lanes" (§III-B/D). This crate reproduces that
//! programming model portably:
//!
//! * [`lanes`] — explicit lane-typed vectors (`F32x4`, `I16x8`, `I32x4`)
//!   with NEON semantics (`mla`, rounding shift right, saturation),
//! * [`gemm`] — the scalar reference GEMM and a lane-blocked variant,
//! * [`lowp`] — a gemmlowp-analog low-precision GEMM (u8 inputs, i32
//!   accumulation, zero-point offsets),
//! * [`fused`] — the fused, sliced im2col+GEMM of §III-D that trades the
//!   `K²` data inflation for data locality,
//! * [`kernel16x27`] — the fully customized first-layer kernel (16 output
//!   channels × 27-element dot product) in its three precision variants:
//!   f32, 8-bit with 32-bit accumulators, and 8-bit with 16-bit
//!   accumulators plus the rounding right shift by 4,
//! * [`conv`] — a single dispatch point over all implementations, plus the
//!   direct-loop golden reference,
//! * [`popcount`] — run-time selection of the hardware population count
//!   for the XNOR-popcount loops of `tincy-kernels` and `tincy-finn` (the
//!   only `unsafe` in the workspace).

// The kernels are written with explicit index loops and NEON-intrinsic
// method names (`add` ~ vaddq, `mul` ~ vmulq) so the code shape matches the
// A53 target; iterator rewrites and std-operator impls would obscure that.
#![allow(clippy::needless_range_loop, clippy::should_implement_trait)]

pub mod conv;
pub mod fused;
pub mod gemm;
pub mod kernel16x27;
pub mod lanes;
pub mod lowp;
pub mod popcount;

pub use conv::{conv_reference, convolve, ConvAlgo};
pub use fused::{fused_conv_f32, fused_conv_lowp};
pub use gemm::{gemm_f32, gemm_f32_lanes};
pub use kernel16x27::FirstLayerKernel;
pub use lanes::{F32x4, I16x8, I32x4, U64x4};
pub use lowp::{gemm_lowp, requantize_bias_relu};
pub use popcount::{PopcountIsa, PopcountKernel};
