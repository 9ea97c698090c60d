//! A Darknet-analog neural network framework (§III-C).
//!
//! The paper extends the open-source Darknet framework: its layers are
//! virtualized through function pointers with an `init` / `load_weights` /
//! `forward` / `destroy` life cycle (Fig 3), and a new generic `[offload]`
//! layer redirects those pointers to an arbitrary backend — in the paper a
//! shared library wrapping the FPGA accelerator (Fig 4). This crate
//! reproduces that architecture in safe Rust:
//!
//! * [`spec`] — declarative layer/network descriptions with exact
//!   operation counts (the basis of Tables I & II),
//! * [`cfg`](mod@cfg) — the darknet-style textual configuration format including the
//!   paper's `[offload]` section,
//! * [`layer`] — the layer trait with the Fig 3 life cycle (only init and
//!   load mutate; a built network forwards through `&self`),
//! * [`conv`], [`maxpool`], [`region`] — the layer implementations,
//! * [`batchnorm`] — batch normalization and its folding,
//! * [`offload`] — the offload layer, backend registry (the `dlopen`
//!   analog) and [`Device`], the mutable half a forward runs on,
//! * [`fault`] — deterministic fault injection at the offload boundary,
//!   drawn per device,
//! * [`model`] — [`ModelSpec`]/[`FoldSpec`] design points (topology +
//!   folding + quantization),
//! * [`topology`] — the paper's networks: Tiny and Tincy YOLO, MLP-4 and
//!   CNV-6, with the op counts of Tables I and II,
//! * [`segment`] — the [`OffloadSegment`]: which layers of a network the
//!   fabric runs, and the refusal of what it cannot run,
//! * [`network`] — the network container with whole-net *and* per-layer
//!   forward entry points ("the network inference had to be disintegrated
//!   to gain access to the invocations of the individual layers", §III-F),
//! * [`weights`] — sequential weight-file I/O in Darknet's style.

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

pub mod activation;
pub mod batchnorm;
pub mod cfg;
pub mod conv;
pub mod error;
pub mod fault;
pub mod layer;
pub mod maxpool;
pub mod model;
pub mod network;
pub mod offload;
pub mod region;
pub mod segment;
pub mod spec;
pub mod topology;
pub mod weights;

pub use activation::Activation;
pub use batchnorm::BatchNorm;
pub use cfg::{parse_cfg, render_cfg};
pub use conv::ConvLayer;
pub use error::NnError;
pub use fault::{FaultInjector, FaultKind, FaultPlan, FaultStats, FaultWindow};
pub use layer::Layer;
pub use maxpool::MaxPoolLayer;
pub use model::{FoldSpec, ModelSpec};
pub use network::Network;
pub use offload::{
    BackendRegistry, Device, OffloadBackend, OffloadConfig, OffloadHealth, OffloadLayer,
    OffloadStats, RetryPolicy,
};
pub use region::{RegionLayer, RegionParams};
pub use segment::{OffloadSegment, SegmentLayer};
pub use spec::{ConvSpec, LayerSpec, NetworkSpec, OffloadSpec, PoolSpec, RegionSpec};
pub use weights::{WeightsReader, WeightsWriter};
