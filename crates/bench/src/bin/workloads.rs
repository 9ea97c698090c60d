//! Table II workloads on the modelled accelerator: frames per second the
//! 16×16 / 300 MHz engine sustains for MLP-4, CNV-6 and Tincy YOLO's
//! hidden stack — quantifying the paper's point that Tincy YOLO "is still
//! greater than the previous FINN show cases by orders of magnitude".
//!
//! ```text
//! cargo run -p tincy-bench --bin workloads
//! ```

use tincy_bench::in_millions;
use tincy_core::topology::{cnv6, mlp4, tincy_yolo};
use tincy_finn::engine::EngineConfig;
use tincy_finn::SegmentCost;
use tincy_nn::{Activation, LayerSpec, NetworkSpec, OffloadSegment};
use tincy_tensor::Shape3;

/// Compute cycles of a workload's offload segment. MLP-4 and CNV-6 end
/// in a `Linear` classifier that FINN runs without thresholds; this
/// engine always thresholds, so those layers are priced as ReLU layers
/// (the cycles depend on the shapes only).
fn segment_cycles(spec: &NetworkSpec, config: EngineConfig) -> u64 {
    let mut spec = spec.clone();
    for layer in &mut spec.layers {
        if let LayerSpec::Conv(c) = layer {
            c.activation = Activation::Relu;
        }
    }
    let segment = OffloadSegment::of(&spec).expect("one binary run");
    SegmentCost::of(&segment, config).compute_cycles()
}

fn main() {
    let config = EngineConfig::default();
    println!(
        "Table II workloads on the modelled {}x{} engine @ {} MHz",
        config.pe,
        config.simd,
        config.clock_hz / 1_000_000
    );
    println!(
        "{:<12}  {:>12}  {:>12}  {:>10}",
        "Workload", "reduced ops", "cycles", "frames/s"
    );
    println!("{}", "-".repeat(54));
    let mlp = mlp4();
    let cnv = cnv6();
    let tincy = tincy_yolo();
    for (name, spec) in [("MLP-4", &mlp), ("CNV-6", &cnv), ("Tincy YOLO", &tincy)] {
        let (reduced, _) = spec.dot_product_ops();
        let cycles = segment_cycles(spec, config);
        let fps = config.clock_hz as f64 / cycles as f64;
        println!(
            "{:<12}  {:>12}  {:>12}  {:>10.1}",
            name,
            in_millions(reduced),
            cycles,
            fps
        );
    }
    println!();
    println!(
        "Tincy YOLO input shape {} vs MLP-4 {} — the jump in scale the paper",
        Shape3::new(3, 416, 416),
        Shape3::new(784, 1, 1)
    );
    println!("addresses with layer-at-a-time execution instead of a dataflow pipeline.");
}
