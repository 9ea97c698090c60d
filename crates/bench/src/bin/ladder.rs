//! Reproduces the paper's **speedup ladder** (§III narrative, §IV):
//! 0.1 fps → 1 fps → 2.5 fps → >5 fps → 16 fps, an overall 160×.
//!
//! Also prints the §III-A resource-feasibility argument: a per-layer
//! dataflow pipeline does not fit the XCZU3EG, a single time-multiplexed
//! engine does.
//!
//! ```text
//! cargo run -p tincy-bench --bin ladder
//! ```

use tincy_finn::engine::EngineConfig;
use tincy_finn::{FpgaDevice, ResourceEstimate};
use tincy_perf::fabric::tincy_cost;
use tincy_perf::speedup_ladder;

fn main() {
    println!("The Tincy YOLO speedup ladder (modelled vs paper)");
    println!(
        "{:<58}  {:>10}  {:>8}  {:>9}",
        "Optimization (cumulative)", "frame (ms)", "fps", "paper fps"
    );
    println!("{}", "-".repeat(92));
    for step in speedup_ladder() {
        let paper = step
            .paper_fps
            .map(|f| format!("{f:.1}"))
            .unwrap_or_else(|| "-".into());
        println!(
            "{:<58}  {:>10.1}  {:>8.2}  {:>9}",
            format!("[{}] {}", step.section, step.name),
            step.frame_ms,
            step.fps,
            paper
        );
    }
    let steps = speedup_ladder();
    let overall = steps.last().unwrap().fps / steps.first().unwrap().fps;
    println!("{}", "-".repeat(92));
    println!("overall modelled speedup: {overall:.0}x   (paper, §IV: 160x)");

    println!();
    println!("Resource feasibility on the XCZU3EG (§III-A):");
    let device = FpgaDevice::XCZU3EG;
    let cost = tincy_cost(EngineConfig::default());
    let report = |name: &str, est: &ResourceEstimate| {
        let (l, b, _) = device.utilization(est);
        println!(
            "  {name:<34} {:>7} LUTs ({:>5.1}%)  {:>4} BRAM36 ({:>5.1}%)  fits: {}",
            est.luts,
            l * 100.0,
            est.bram36,
            b * 100.0,
            if device.fits(est) { "yes" } else { "NO" }
        );
    };
    report("single time-multiplexed engine", &cost.engine);
    report("per-layer dataflow pipeline", &cost.dataflow);
}
