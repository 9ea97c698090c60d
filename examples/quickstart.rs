//! Quickstart: build Tincy YOLO, inspect its workload, and run one frame
//! through the offloaded network (hidden layers on the simulated FINN
//! accelerator).
//!
//! ```text
//! cargo run --example quickstart
//! ```

use tincy::core::build::{build_offloaded_network, SystemConfig};
use tincy::core::topology::{tincy_yolo, tiny_yolo};
use tincy::nn::render_cfg;
use tincy::tensor::{Shape3, Tensor};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Topologies and the Table I workload numbers.
    let tiny = tiny_yolo();
    let tincy = tincy_yolo();
    println!("Tiny  YOLO: {:>13} ops/frame", tiny.total_ops());
    println!("Tincy YOLO: {:>13} ops/frame", tincy.total_ops());
    let (reduced, eight_bit) = tincy.dot_product_ops();
    println!(
        "Tincy split: {:.1} M binary-weight [W1A3] + {:.1} M 8-bit dot-product ops",
        reduced as f64 / 1e6,
        eight_bit as f64 / 1e6
    );

    // 2. The darknet-style configuration round trip.
    let cfg = render_cfg(&tincy);
    println!("\nfirst lines of the generated network configuration:");
    for line in cfg.lines().take(12) {
        println!("  {line}");
    }

    // 3. One frame through the offloaded system (reduced input size keeps
    //    the behavioural fabric simulation fast).
    let config = SystemConfig {
        input_size: 64,
        ..Default::default()
    };
    let net = build_offloaded_network(&config)?;
    println!(
        "\noffloaded network: {} layers ({} parameters)",
        net.num_layers(),
        net.num_params()
    );
    let frame = Tensor::from_fn(Shape3::new(3, 64, 64), |c, y, x| {
        ((c * 31 + y * 7 + x) % 10) as f32 / 10.0
    });
    let head = net.forward(&frame)?;
    println!(
        "head output: {} (region-activated feature map)",
        head.shape()
    );
    println!("quickstart complete");
    Ok(())
}
