//! Quantization schemes used across the Tincy system.
//!
//! Quantization is the key lever of the paper (§I): eliminating unnecessary
//! precision shrinks the parameter memory footprint and simplifies the
//! multiply–accumulate hardware. This crate provides every scheme the paper
//! touches:
//!
//! * [`AffineQuant`] — conservative 8-bit affine quantization (the input and
//!   output layers; also the gemmlowp numerical contract),
//! * [`rounding_right_shift`] — ARM `vrshr` semantics, required by the
//!   16-bit-accumulator first-layer kernel (§III-D),
//! * `binary` — full weight binarization with XNOR-popcount dot products
//!   (Hubara et al. / XNOR-Net lineage, §II),
//! * `ternary` — ternary weight networks (Li et al., §II) as the
//!   related-work baseline,
//! * [`ThresholdSet`] — FINN-style integer threshold activations that fold
//!   batch normalization and activation quantization into pure integer
//!   comparisons (§II, §III-A),
//! * [`WeightPrecision`] / [`ActPrecision`] — the precision vocabulary used
//!   to describe configurations such as `[W1A3]` throughout the paper.

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

mod affine;
mod binary;
mod error;
mod fixed;
mod qtypes;
mod ternary;
mod thresholds;

pub use affine::AffineQuant;
pub use binary::{and_popcount, binarize, xnor_popcount_dot, BinaryDot};
pub use error::QuantError;
pub use fixed::{rounding_right_shift, rounding_right_shift_i16};
pub use qtypes::{ActPrecision, PrecisionConfig, WeightPrecision};
pub use ternary::{ternarize, TernaryWeights};
pub use thresholds::{ThresholdSet, ThresholdsForLayer};
