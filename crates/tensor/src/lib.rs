//! Feature-map tensors and supporting data structures.
//!
//! The convolutional workloads of the paper operate on 3-dimensional data
//! volumes called *feature maps* (§I, Fig 1). This crate provides:
//!
//! * [`Shape3`] / [`ConvGeom`] — feature-map and convolution geometry,
//! * [`Tensor`] — a dense CHW-layout tensor generic over its element type,
//! * [`Mat`] — a dense row-major matrix used by the GEMM lowering,
//! * [`im2col`] — the explicit multiplicand construction described in §I and
//!   its sliced variant from §III-D (the fused NEON implementation),
//! * [`BitTensor`] / [`U3Tensor`] — bit-packed containers for binary weights
//!   and 3-bit activations as processed by the QNN accelerator.
//!
//! # Example
//!
//! ```
//! use tincy_tensor::{ConvGeom, Shape3, Tensor};
//!
//! let input = Shape3::new(3, 416, 416);
//! let geom = ConvGeom::new(3, 2, 1);
//! let out = geom.output_shape(input, 16);
//! assert_eq!((out.height, out.width), (208, 208));
//!
//! let fmap: Tensor<f32> = Tensor::zeros(input);
//! assert_eq!(fmap.len(), 3 * 416 * 416);
//! ```

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

mod error;
mod im2col_impl;
mod matrix;
mod packing;
mod shape;
mod tensor_impl;

pub use error::TensorError;
pub use im2col_impl::{col2im_accumulate, im2col, im2col_shape, im2col_with_pad, Im2colSlices};
pub use matrix::Mat;
pub use packing::{BitTensor, U3Tensor};
pub use shape::{ConvGeom, PoolGeom, Shape3};
pub use tensor_impl::Tensor;
