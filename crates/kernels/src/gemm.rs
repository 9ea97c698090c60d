//! Cache-blocked quantized GEMM for mixed-precision (W8A8) profiles.
//!
//! Design-space exploration can keep some hidden layers at 8 bits; those
//! layers fall back to an integer GEMM instead of the XNOR-popcount path.
//! `C[m][n] = Σ_k A[m][k]·B[k][n]` with `A` the signed 8-bit weights
//! (row-major `m × k`), `B` the unsigned 8-bit activations (row-major
//! `k × n`) and 32-bit accumulators. The blocked loop performs the same
//! exact integer additions as [`gemm_q8_reference`] in a different order,
//! so the two are bit-exact.

use crate::tune::Variant;
use tincy_trace::{static_label, Backend};

/// Depth tile: a `K_TILE × N_TILE` panel of `B` stays L1-resident while
/// the rows of `A` stream by.
const K_TILE: usize = 256;

/// Column tile.
const N_TILE: usize = 64;

/// Naive i-k-j reference for the quantized GEMM.
///
/// # Panics
///
/// Panics if the slice lengths do not match `m·k` / `k·n`.
pub fn gemm_q8_reference(a: &[i8], b: &[u8], m: usize, k: usize, n: usize) -> Vec<i32> {
    assert_eq!(a.len(), m * k, "A size mismatch");
    assert_eq!(b.len(), k * n, "B size mismatch");
    let mut c = vec![0i32; m * n];
    for i in 0..m {
        for p in 0..k {
            let av = a[i * k + p] as i32;
            for j in 0..n {
                c[i * n + j] += av * b[p * n + j] as i32;
            }
        }
    }
    c
}

/// Cache-blocked quantized GEMM, under one `cpu.kernel.q8` span.
///
/// `_variant` has one value and `_threads` is ignored (see
/// [`crate::PackedLayer::forward`]); `benchmark/` passes both.
///
/// # Panics
///
/// Panics if the slice lengths do not match `m·k` / `k·n`.
pub fn gemm_q8(
    a: &[i8],
    b: &[u8],
    m: usize,
    k: usize,
    n: usize,
    _variant: Variant,
    _threads: usize,
) -> Vec<i32> {
    assert_eq!(a.len(), m * k, "A size mismatch");
    assert_eq!(b.len(), k * n, "B size mismatch");
    let _span = tincy_trace::span(static_label!("cpu.kernel.q8"))
        .backend(Backend::Host)
        .start();
    let mut c = vec![0i32; m * n];
    for p0 in (0..k).step_by(K_TILE) {
        let p1 = (p0 + K_TILE).min(k);
        for j0 in (0..n).step_by(N_TILE) {
            let j1 = (j0 + N_TILE).min(n);
            for i in 0..m {
                let crow = &mut c[i * n..(i + 1) * n];
                for p in p0..p1 {
                    let av = a[i * k + p] as i32;
                    if av == 0 {
                        continue;
                    }
                    let brow = &b[p * n..(p + 1) * n];
                    for j in j0..j1 {
                        crow[j] += av * brow[j] as i32;
                    }
                }
            }
        }
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn blocked_matches_reference() {
        let mut rng = StdRng::seed_from_u64(21);
        for (m, k, n) in [
            (1usize, 1usize, 1usize),
            (3, 7, 5),
            (16, 27, 33),
            (9, 300, 70),
        ] {
            let a: Vec<i8> = (0..m * k)
                .map(|_| rng.gen_range(-128i32..128) as i8)
                .collect();
            let b: Vec<u8> = (0..k * n).map(|_| rng.gen_range(0..256u32) as u8).collect();
            let expected = gemm_q8_reference(&a, &b, m, k, n);
            assert_eq!(
                gemm_q8(&a, &b, m, k, n, Variant::Blocked, 1),
                expected,
                "m={m} k={k} n={n}"
            );
        }
    }
}
