//! Reproduces the **§III-D first-layer kernel progression** — measured on
//! the host CPU standing in for the Cortex-A53 — plus transformation (d)
//! on the kernel itself: the same custom kernel at stride 2, the "lean
//! 35 ms convolution" replacing input conv + max pool (§III-E).
//!
//! Absolute times differ from the A53; the *ordering* and rough ratios are
//! the reproduced claim, so every row prints its ratio to the generic
//! im2col + GEMM row and nothing is gated. A second table times the three
//! 16×27 rungs at inputs 64, 128 and 416, at strides 1 and 2.
//!
//! ```text
//! cargo run -p tincy-bench --release --bin first_layer
//! ```

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::time::Instant;
use tincy_quant::AffineQuant;
use tincy_simd::conv::conv_lowp_im2col;
use tincy_simd::{conv_im2col_gemm, fused_conv_f32, FirstLayerKernel};
use tincy_tensor::{ConvGeom, Mat, Shape3, Tensor};

/// First-layer geometry at a reduced 208×208 input (ratios are
/// size-invariant; the paper's 416² only takes longer).
const SIZE: usize = 208;
const REPS: u32 = 5;

/// Warms up once, then returns the mean of `REPS` timed calls in ms.
fn time_ms<T, E: std::fmt::Debug>(mut f: impl FnMut() -> Result<T, E>) -> f64 {
    black_box(f().expect("valid first-layer geometry"));
    let t0 = Instant::now();
    for _ in 0..REPS {
        black_box(f().expect("valid first-layer geometry"));
    }
    t0.elapsed().as_secs_f64() * 1000.0 / f64::from(REPS)
}

fn main() {
    let mut rng = StdRng::seed_from_u64(99);
    let shape = Shape3::new(3, SIZE, SIZE);
    let geom = ConvGeom::same(3, 1);
    let geom_d = ConvGeom::same(3, 2);
    let input_f: Tensor<f32> = Tensor::from_fn(shape, |_, _, _| rng.gen_range(0.0..1.0));
    let weights = Mat::from_fn(16, 27, |_, _| rng.gen_range(-1.0f32..1.0));
    let bias: Vec<f32> = (0..16).map(|_| rng.gen_range(-0.1..0.1)).collect();

    let q = AffineQuant::fit(0.0, 1.0).expect("valid range");
    let input_q = input_f.map(|v| q.quantize(v));
    let w_scale = 1.0 / 127.0;
    let weights_q = weights.map(|v| (v / w_scale).round().clamp(-127.0, 127.0) as i8);
    let kernel = FirstLayerKernel::new(&weights, &bias).expect("16x27 weights");
    let zp = q.zero_point();

    let generic_ms = time_ms(|| conv_im2col_gemm(black_box(&input_f), &weights, &bias, geom));
    let i16_ms = time_ms(|| kernel.accumulate_i16(black_box(&input_q), zp, geom));
    let stride2_ms = time_ms(|| kernel.accumulate_i16(black_box(&input_q), zp, geom_d));
    let rows = [
        ("generic im2col + GEMM", "620 ms (1.0x)", generic_ms),
        (
            "gemmlowp-style 8-bit",
            "2.2x",
            time_ms(|| conv_lowp_im2col(black_box(&input_q), &weights_q, zp, geom)),
        ),
        (
            "fused sliced im2col+GEMM, f32",
            "2.1x",
            time_ms(|| fused_conv_f32(black_box(&input_f), &weights, &bias, geom, 4)),
        ),
        (
            "custom 16x27, f32",
            "160 ms (3.8x)",
            time_ms(|| kernel.forward_f32(black_box(&input_f), geom)),
        ),
        (
            "custom 16x27, i32 acc",
            "140 ms (4.4x)",
            time_ms(|| kernel.accumulate_i32(black_box(&input_q), zp, geom)),
        ),
        ("custom 16x27, i16 acc + vrshr", "120 ms (5.2x)", i16_ms),
        (
            "  ... at stride 2 (transform d)",
            "35 ms (17.7x)",
            stride2_ms,
        ),
    ];

    println!("first-layer kernel progression (3x{SIZE}x{SIZE} -> 16, host CPU)");
    println!(
        "{:<32}  {:>14}  {:>10}  {:>11}",
        "step", "paper (A53)", "time (ms)", "vs generic"
    );
    println!("{}", "-".repeat(73));
    for (step, paper, ms) in rows {
        println!(
            "{step:<32}  {paper:>14}  {ms:>10.2}  {:>10.2}x",
            generic_ms / ms
        );
    }
    println!();
    println!(
        "transformation (d): stride 2 cuts the i16 kernel {:.1}x (paper: 120 ms -> 35 ms, 3.4x,",
        i16_ms / stride2_ms
    );
    println!("which also absorbs the removed max pool). The integer rungs run under the frame's");
    println!("instruction-set dispatch: a pair of taps is one 16-bit multiply-add into 32-bit");
    println!("lanes (vpmaddwd; NEON's vmlal.s16), and the i16 rung adds a shift and two");
    println!("saturating adds per pair, so here the i32 rung is the fastest.");
    println!();
    println!(
        "the three 16x27 rungs per input (ms per call; stride 1 as in section III-D, stride 2 the"
    );
    println!("product's first layer)");
    println!(
        "{:>5}  {:>6}  {:>9}  {:>9}  {:>9}",
        "input", "stride", "f32", "i32", "i16"
    );
    for size in [64, 128, 416] {
        let input_f: Tensor<f32> = Tensor::from_fn(Shape3::new(3, size, size), |_, _, _| {
            rng.gen_range(0.0..1.0)
        });
        let input_q = input_f.map(|v| q.quantize(v));
        for stride in [1, 2] {
            let geom = ConvGeom::same(3, stride);
            println!(
                "{size:>5}  {stride:>6}  {:>9.3}  {:>9.3}  {:>9.3}",
                time_ms(|| kernel.forward_f32(black_box(&input_f), geom)),
                time_ms(|| kernel.accumulate_i32(black_box(&input_q), zp, geom)),
                time_ms(|| kernel.accumulate_i16(black_box(&input_q), zp, geom)),
            );
        }
    }
}
