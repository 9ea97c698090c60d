//! Synthetic video and dataset substrate.
//!
//! The original system processes a live USB camera stream and draws onto an
//! X11 window — hardware this reproduction does not have. This crate stands
//! in with a deterministic synthetic scene generator that exercises the
//! identical pipeline stages (Fig 5): frame acquisition, letter boxing,
//! object boxing and frame drawing. Because the generator knows its own
//! ground truth, it doubles as the dataset source for the Table IV accuracy
//! study.

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

mod dataset;
mod draw;
mod frame;
mod scene;
mod sink;
mod source;

pub use dataset::{generate_dataset, DatasetConfig, Sample};
pub use draw::{class_color, draw_box, draw_detections};
pub use frame::Image;
pub use scene::{Scene, SceneConfig, SceneObject};
pub use sink::{PpmSink, VideoSink};
pub use source::SyntheticCamera;
