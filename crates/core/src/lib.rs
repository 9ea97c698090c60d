//! The paper's primary contribution, assembled: Tincy YOLO on a simulated
//! heterogeneous all-programmable device.
//!
//! * [`topology`] — Tiny YOLO, Tincy YOLO, the FINN reference workloads
//!   MLP-4 and CNV-6, exactly reproducing the op counts of Tables I and II,
//! * [`variants`] — the §III-E transformations (a)–(d) as composable
//!   topology rewrites,
//! * [`build`] — system assembly: the fabric backend registry, the
//!   offloaded network configuration of Fig 4, and scaled builds for fast
//!   tests,
//! * [`demo`] — the end-to-end pipelined demo mode of Fig 5: synthetic
//!   camera → letterboxing → layers (with the hidden stack on the simulated
//!   accelerator) → object boxing → frame drawing,
//! * [`deploy`](mod@deploy) — the offline FINN flow: a
//!   quantization-aware-trained detector becomes the network [`build`]
//!   assembles, its trained parameters streamed in through `load_weights`
//!   (the fabric backend folds its share into binary weight masks +
//!   integer thresholds on the way).

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

pub mod build;
pub mod demo;
pub mod deploy;
pub mod variants;

pub use tincy_nn::topology;

pub use build::{
    arm_offload_resilience, build_network_for, build_offloaded_network, fabric_registry,
    offload_position, offloaded_spec, offloaded_spec_of, region_decoder, tincy_model,
    xczu3eg_device, SystemConfig, NMS_IOU,
};
pub use demo::{run_demo, DemoConfig, DemoReport};
pub use deploy::deploy;
pub use topology::{cnv6, mlp4, tincy_yolo, tincy_yolo_with_input, tiny_yolo, VOC_ANCHORS};
pub use variants::{
    quantize_for_fabric, tiny_yolo_variant_a, tiny_yolo_variant_abc, transform_a, transform_bc,
    transform_d,
};
