//! Detection evaluation: bounding boxes, IoU, non-maximum suppression and
//! Pascal-VOC-style mean average precision.
//!
//! The paper evaluates its Tiny YOLO variants with Pascal VOC mAP
//! (Table IV). This crate implements the metric pipeline end to end so that
//! the accuracy study can be reproduced on the synthetic detection task:
//!
//! * [`BBox`] — center-format boxes with IoU,
//! * [`Detection`] / [`GroundTruth`] — scored predictions and labels,
//! * [`nms`] — per-class greedy non-maximum suppression,
//! * [`average_precision`] / [`mean_average_precision`] — the VOC metric
//!   (both 11-point interpolated and continuous variants).

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

mod bbox;
mod detection;
mod map;
mod nms_impl;

pub use bbox::BBox;
pub use detection::{Detection, GroundTruth};
pub use map::{average_precision, mean_average_precision, ApMethod, EvalSummary, PrPoint};
pub use nms_impl::nms;
