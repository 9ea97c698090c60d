//! A behavioural and cycle-approximate simulator of the FINN-style QNN
//! hardware accelerator the paper offloads Tincy YOLO's hidden layers to
//! (§II, §III-A/C).
//!
//! The real system instantiates, through the HLS library of FINN \[7\], a
//! single *generalized convolutional layer engine* (plus its subsequent
//! pooling layer) in the programmable logic of an XCZU3EG — the device is
//! too small for a per-layer dataflow pipeline, so "the layers of the
//! network must be run one after the other on the same accelerator". We
//! model exactly that:
//!
//! * [`mvtu`] — the Matrix–Vector–Threshold Unit: PE×SIMD-folded
//!   XNOR-popcount dot products followed by integer threshold activations.
//!   Its arithmetic is **bit-exact** against the naive integer reference in
//!   [`tincy_quant::BinaryDot`].
//! * [`sliding`] — the sliding-window unit feeding kernel footprints to the
//!   MVTU (the on-the-fly `im2col` of the dataflow architecture).
//! * [`engine`] — one generalized conv(+pool) engine: the shared layer
//!   function of `tincy-kernels`, which streams whole words the way the
//!   fabric does (line buffer, tap-major footprints, AND-popcount MVTU),
//!   plus a cycle model; [`mvtu`] and [`sliding`] are kept as the
//!   per-vector reference units it is tested against.
//! * [`accel`] — the layer-at-a-time accelerator executing a whole hidden
//!   stack on one engine, including weight-swap traffic. It holds no
//!   fault state: an invocation draws its fault (DMA timeout, busy
//!   fabric, corrupted result buffer, bitstream loss) from the injector
//!   of the `tincy_nn::Device` it runs on, so devices that share one
//!   built accelerator fault independently.
//! * [`cost`] — the one cost model of an offload segment: per-layer
//!   cycles, weight swaps over the AXI port, and the single-engine and
//!   dataflow bills of materials.
//! * [`resource`] / [`device`] — LUT/BRAM/DSP estimates and the XCZU3EG
//!   budget, reproducing the §III-A feasibility argument.
//! * [`backend`] — the `library=fabric.so` offload backend plugging the
//!   accelerator into `tincy-nn` networks (Fig 4).

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

pub mod accel;
pub mod backend;
pub mod cost;
pub mod device;
pub mod engine;
pub mod mvtu;
pub mod resource;
pub mod sliding;

pub use accel::{AccelReport, QnnAccelerator, QnnLayerParams};
pub use backend::{FabricBackend, FABRIC_LIBRARY};
pub use cost::{model_estimate, swap_cycles, SegmentCost, AXI_WIDTH_BITS};
pub use device::FpgaDevice;
pub use engine::{conv_layer_cycles, max_pool_levels, ConvEngine, EngineConfig};
pub use mvtu::Mvtu;
pub use resource::ResourceEstimate;
pub use sliding::SlidingWindow;
pub use tincy_nn::{FaultInjector, FaultKind, FaultPlan, FaultStats, FaultWindow};
