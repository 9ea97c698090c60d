//! From-scratch training for the Table IV accuracy study.
//!
//! The paper retrains its quantized networks to recuperate the accuracy
//! lost to quantization — "we perform this important but single-time effort
//! on standard GPU hardware" (§I). This reproduction has no GPU and no
//! Pascal VOC, so the study runs at reduced scale: a YOLO-style detector
//! trained with plain SGD on the synthetic dataset of `tincy-video`, with
//! straight-through-estimator (STE) quantization-aware retraining for the
//! `[W1A3]` variants.
//!
//! * [`layers`] — trainable conv/pool layers with explicit backward passes
//!   (convolution gradients via `im2col`/`col2im`),
//! * [`ste`] — binary-weight and 3-bit-activation fake quantization with
//!   straight-through gradients,
//! * [`net`] — the trainable network container,
//! * [`loss`] — a YOLOv1-style single-anchor detection loss and its
//!   matching decoder,
//! * [`sgd`] — SGD with momentum,
//! * [`trainer`] — the training/evaluation loops used by the Table IV
//!   reproduction.

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

pub mod layers;
pub mod loss;
pub mod model;
pub mod net;
pub mod sgd;
pub mod ste;
pub mod trainer;

pub use layers::{Act, QuantMode, TrainConvSpec, TrainLayerSpec};
pub use loss::{DetectionLoss, LossParts};
pub use net::{TrainError, TrainNet};
pub use sgd::Sgd;
pub use trainer::{evaluate_map, train, TrainConfig, TrainReport};
