//! Low-precision GEMM with the gemmlowp numerical contract (§III-D).
//!
//! The paper's second first-layer attempt quantizes the image data to 8 bits
//! while arranging the multiplicand matrix and multiplies through the
//! gemmlowp library. We reproduce the contract: unsigned 8-bit activations
//! with a zero-point offset, signed 8-bit weights (symmetric), 32-bit
//! integer accumulation, and a float requantization step.

use tincy_tensor::Mat;

/// Multiplicand columns converted per pass, in 16-bit deltas: one pass
/// stays in L1 beside the weight row it is multiplied with.
const BLOCK_DELTAS: usize = 8 * 1024;

/// Low-precision GEMM: `C[i][j] = Σ_k W[i][k] · (A[k][j] − zero_point)`.
///
/// `weights` are symmetric signed 8-bit; `activations` are unsigned 8-bit
/// with the given zero point; accumulation is exact in `i32`.
///
/// The multiplicand is converted once, a block of columns at a time, into
/// pixel-major 16-bit deltas `A[k][j] − zero_point`, so every result is one
/// dot product of two contiguous 16-bit runs — the shape the widening
/// multiply-add of either ISA (`vmlal.s16`, `pmaddwd`) consumes — however
/// few columns there are (the 1×1 head layer has `H·W` of them).
///
/// # Panics
///
/// Panics if `weights.cols() != activations.rows()`.
///
/// # Example
///
/// ```
/// use tincy_simd::gemm_lowp;
/// use tincy_tensor::Mat;
///
/// let w = Mat::from_vec(1, 2, vec![1i8, -1]).unwrap();
/// let a = Mat::from_vec(2, 1, vec![130u8, 120]).unwrap();
/// let c = gemm_lowp(&w, &a, 128);
/// assert_eq!(c.at(0, 0), (130 - 128) - (120 - 128));
/// ```
pub fn gemm_lowp(weights: &Mat<i8>, activations: &Mat<u8>, zero_point: u8) -> Mat<i32> {
    assert_eq!(
        weights.cols(),
        activations.rows(),
        "inner dimensions must agree"
    );
    let zero_point = i16::from(zero_point);
    let (m, k, n) = (weights.rows(), weights.cols(), activations.cols());
    let mut c = Mat::zeros(m, n);
    // Runs are padded with zeros to whole vectors so no dot has a tail.
    let run = k.next_multiple_of(8).max(8);
    let block = (BLOCK_DELTAS / run).clamp(1, n.max(1));
    let mut deltas = vec![0i16; block * run];
    let mut w_run = vec![0i16; run];
    for start in (0..n).step_by(block) {
        let width = block.min(n - start);
        for p in 0..k {
            let a_row = &activations.row(p)[start..][..width];
            for (column, &a) in deltas.chunks_exact_mut(run).zip(a_row) {
                column[p] = i16::from(a) - zero_point;
            }
        }
        for i in 0..m {
            for (w16, &w) in w_run.iter_mut().zip(weights.row(i)) {
                *w16 = i16::from(w);
            }
            let c_row = &mut c.row_mut(i)[start..][..width];
            for (slot, column) in c_row.iter_mut().zip(deltas.chunks_exact(run)) {
                *slot = dot_i16(&w_run, column);
            }
        }
    }
    c
}

/// Exact dot product of two 16-bit runs whose products fit 32 bits.
#[inline]
fn dot_i16(a: &[i16], b: &[i16]) -> i32 {
    a.iter()
        .zip(b)
        .map(|(&a, &b)| i32::from(a) * i32::from(b))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use tincy_quant::AffineQuant;

    #[test]
    fn zero_point_offset_is_subtracted() {
        // An activation equal to the zero point contributes nothing.
        let w = Mat::from_vec(1, 3, vec![5i8, -3, 2]).unwrap();
        let a = Mat::from_vec(3, 1, vec![128u8, 128, 128]).unwrap();
        assert_eq!(gemm_lowp(&w, &a, 128).at(0, 0), 0);
    }

    #[test]
    fn exact_integer_accumulation() {
        let w = Mat::from_vec(2, 2, vec![127i8, -128, 1, 1]).unwrap();
        let a = Mat::from_vec(2, 2, vec![255u8, 0, 0, 255]).unwrap();
        let c = gemm_lowp(&w, &a, 0);
        assert_eq!(c.at(0, 0), 127 * 255);
        assert_eq!(c.at(0, 1), -128 * 255);
        assert_eq!(c.at(1, 0), 255);
        assert_eq!(c.at(1, 1), 255);
    }

    #[test]
    fn quantized_gemm_approximates_float_gemm() {
        // End-to-end contract: quantize -> lowp gemm -> requantize tracks
        // the float product within accumulated quantization error.
        let mut rng = StdRng::seed_from_u64(11);
        let (m, k, n) = (4, 27, 10);
        let wf = Mat::from_fn(m, k, |_, _| rng.gen_range(-1.0f32..1.0));
        let af = Mat::from_fn(k, n, |_, _| rng.gen_range(0.0f32..1.0));

        let w_scale = 1.0 / 127.0;
        let wq = wf.map(|v| (v / w_scale).round().clamp(-127.0, 127.0) as i8);
        let aq_params = AffineQuant::fit(0.0, 1.0).unwrap();
        let aq = af.map(|v| aq_params.quantize(v));

        let zero_point = u8::try_from(aq_params.zero_point()).unwrap();
        let acc = gemm_lowp(&wq, &aq, zero_point);
        let out = acc.map(|v| v as f32 * (w_scale * aq_params.scale()));

        let reference = crate::gemm_f32(&wf, &af);
        for i in 0..m {
            for j in 0..n {
                let err = (out.at(i, j) - reference.at(i, j)).abs();
                // k=27 accumulations of half-step errors.
                assert!(err < 0.06, "error {err} too large at ({i},{j})");
            }
        }
    }

    #[test]
    fn blocks_and_padded_runs_match_the_scalar_sum() {
        // Inner lengths around the vector width, more columns than one
        // block holds, and the extreme operands on both sides.
        let mut rng = StdRng::seed_from_u64(12);
        for (m, k, n) in [(1, 1, 1), (3, 7, 5), (2, 8, 9), (5, 9, 700), (2, 512, 4)] {
            let w = Mat::from_fn(m, k, |_, _| rng.gen_range(-128i16..=127) as i8);
            let a = Mat::from_fn(k, n, |_, _| [0u8, 255, rng.gen()][rng.gen_range(0..3usize)]);
            for zero_point in [0u8, 77, 255] {
                let c = gemm_lowp(&w, &a, zero_point);
                for i in 0..m {
                    for j in 0..n {
                        let expected: i32 = (0..k)
                            .map(|p| {
                                i32::from(w.at(i, p))
                                    * (i32::from(a.at(p, j)) - i32::from(zero_point))
                            })
                            .sum();
                        assert_eq!(
                            c.at(i, j),
                            expected,
                            "{m}x{k}x{n} zp {zero_point} ({i},{j})"
                        );
                    }
                }
            }
        }
    }
}
