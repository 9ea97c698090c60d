//! The re-implemented `demo`-mode frame pipeline (§III-F, Figs 5 & 6).
//!
//! The paper's final speedup comes from turning the sequence of frame
//! processing steps into a proper processing pipeline executed by "a pool of
//! worker threads — one worker thread allocated for each available core":
//!
//! * every stage owns a single-slot output buffer with the *free → avail →
//!   free* handshake of Fig 6; a consumer takes the frame out when it
//!   starts, which frees the slot, so the producer may refill it while the
//!   consumer runs (the C original holds the slot until its consumer
//!   finishes because the consumer reads the buffer in place),
//! * "a new job is selected for execution by finding the **most mature** one
//!   whose output buffer is free and whose input buffer has data pending",
//! * "the video source and sink are always available and free,
//!   respectively",
//! * "this scheme of job scheduling prevents that one frame overtakes
//!   another so that the correct video sequence is maintained".
//!
//! This crate implements that scheduler generically over a frame type so
//! both the real Tincy demo (`tincy-core`) and synthetic workloads
//! (`tincy-perf`, benches) can run on it.

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

mod latency;
mod metrics;
mod pipeline_impl;
mod slot;
mod stage;

pub use latency::DurationStats;
pub use metrics::{PipelineMetrics, StageStats};
pub use pipeline_impl::Pipeline;
pub use stage::{FnStage, Stage};
