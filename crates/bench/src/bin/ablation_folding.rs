//! Ablation: MVTU folding (PE × SIMD) versus hidden-layer latency and
//! fabric resources — the design-space walk behind the paper's operating
//! point (§III-A/C). The 16×16 engine at 300 MHz is the sweet spot: it
//! meets the ~30 ms hidden-layer budget and fits the XCZU3EG; smaller
//! foldings miss the budget, larger ones blow the LUT budget.
//!
//! ```text
//! cargo run -p tincy-bench --bin ablation_folding
//! ```

use tincy_finn::engine::EngineConfig;
use tincy_finn::FpgaDevice;
use tincy_perf::calib::LEAN_INPUT_CONV_MS;
use tincy_perf::fabric::tincy_cost;
use tincy_perf::{StageBudget, StageId};

fn main() {
    let device = FpgaDevice::XCZU3EG;

    println!(
        "MVTU folding ablation on {} (Tincy hidden stack)",
        device.name
    );
    println!(
        "{:>5} {:>5}  {:>12}  {:>9}  {:>8}  {:>8}  {:>6}",
        "PE", "SIMD", "hidden (ms)", "net fps*", "LUTs", "BRAM36", "fits"
    );
    println!("{}", "-".repeat(66));
    for (pe, simd) in [
        (4, 4),
        (8, 8),
        (8, 16),
        (16, 16),
        (16, 32),
        (32, 32),
        (64, 64),
    ] {
        let config = EngineConfig {
            pe,
            simd,
            ..Default::default()
        };
        let cost = tincy_cost(config);
        let (ms, est) = (cost.ms(), cost.engine);
        // Net frame rate with this fabric, everything else optimized
        // (the §III-E input conv, no first pool), sequential.
        let frame_ms = StageBudget::paper_baseline()
            .with(StageId::InputLayer, LEAN_INPUT_CONV_MS)
            .with(StageId::MaxPool, 0.0)
            .with(StageId::HiddenLayers, ms)
            .total_ms();
        println!(
            "{:>5} {:>5}  {:>12.1}  {:>9.2}  {:>8}  {:>8}  {:>6}",
            pe,
            simd,
            ms,
            1000.0 / frame_ms,
            est.luts,
            est.bram36,
            if device.fits(&est) { "yes" } else { "NO" }
        );
    }
    println!();
    println!("* sequential frame rate with the §III-E optimized CPU stages.");
    println!("paper operating point: 16x16 at 300 MHz -> ~30 ms hidden layers.");
}
