//! The convolution kernels of the paper's CPU half (§III-D), and the
//! popcount dispatch of its binary half.
//!
//! The Zynq UltraScale+ application processors offer 128-bit NEON SIMD:
//! "equivalent parallel computations can be performed in four 32-bit lanes
//! up to sixteen 8-bit lanes" (§III-B/D). §III-D climbs a ladder of
//! first-layer implementations on it, and this crate holds exactly that
//! ladder — every kernel here is either on the product's frame path or a
//! rung the `first_layer` reproduction binary prints:
//!
//! * [`conv`] — the direct-loop golden reference, Darknet's generic
//!   im2col + GEMM (rung 1, and the float path of `tincy-nn`), and the
//!   gemmlowp-style quantized convolution (rung 2, and the path of every
//!   `W8` layer that is not the first-layer shape), over [`gemm`] and
//!   [`lowp`] (u8 activations with a zero point, i8 weights, exact i32
//!   accumulation);
//! * [`fused`] — the fused, sliced im2col + GEMM that trades the `K²`
//!   data inflation for data locality (rung 3), written in the explicit
//!   float lanes of [`lanes`];
//! * [`kernel16x27`] — the fully customized first-layer kernel (16 output
//!   channels × 27-element dot product) in its three precision variants:
//!   f32 (rung 4), 8-bit with 32-bit accumulators (rung 5, the product's
//!   first layer), and 8-bit with 16-bit accumulators plus the rounding
//!   right shift by 4 (rung 6);
//! * [`popcount`] — run-time selection of the hardware population count
//!   for the AND-popcount loops of `tincy-kernels` (the only `unsafe` in
//!   the workspace).

// The float kernels are written with explicit index loops over NEON-shaped
// lanes so the code shape matches the A53 target; iterator rewrites would
// obscure that.
#![allow(clippy::needless_range_loop)]
#![deny(unsafe_code)]
#![warn(unreachable_pub)]

pub mod conv;
pub mod fused;
pub mod gemm;
pub mod kernel16x27;
pub mod lanes;
pub mod lowp;
pub mod popcount;

pub use conv::{conv_im2col_gemm, conv_reference};
pub use fused::fused_conv_f32;
pub use gemm::gemm_f32;
pub use kernel16x27::FirstLayerKernel;
pub use lanes::F32x4;
pub use lowp::gemm_lowp;
pub use popcount::{PopcountIsa, PopcountKernel};
