//! The float GEMM of the generic convolution lowering.
//!
//! Darknet's generic path is "a straightforward C implementation split into
//! an explicit `im2col` followed by a matrix multiplication" (§III-D).
//! [`gemm_f32`] is that multiplication.

use tincy_tensor::Mat;
use tincy_trace::static_label;

/// Scalar reference GEMM: `C = A · B`.
///
/// # Panics
///
/// Panics if `a.cols() != b.rows()`.
///
/// # Example
///
/// ```
/// use tincy_simd::gemm_f32;
/// use tincy_tensor::Mat;
///
/// let a = Mat::from_fn(2, 2, |r, c| (r * 2 + c) as f32);
/// let b = Mat::from_fn(2, 2, |r, c| if r == c { 1.0 } else { 0.0 });
/// assert_eq!(gemm_f32(&a, &b), a);
/// ```
pub fn gemm_f32(a: &Mat<f32>, b: &Mat<f32>) -> Mat<f32> {
    assert_eq!(a.cols(), b.rows(), "inner dimensions must agree");
    let _span = tincy_trace::span(static_label!("gemm.scalar")).start();
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    let mut c = Mat::zeros(m, n);
    for i in 0..m {
        let a_row = a.row(i);
        let c_row = c.row_mut(i);
        for (p, &a_ip) in a_row.iter().enumerate().take(k) {
            let b_row = b.row(p);
            for j in 0..n {
                c_row[j] += a_ip * b_row[j];
            }
        }
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    #[test]
    fn identity_multiplication() {
        let a = Mat::from_fn(3, 3, |r, c| (r * 3 + c) as f32);
        let eye = Mat::from_fn(3, 3, |r, c| if r == c { 1.0 } else { 0.0 });
        assert_eq!(gemm_f32(&a, &eye), a);
        assert_eq!(gemm_f32(&eye, &a), a);
    }

    #[test]
    fn hand_computed_case() {
        let a = Mat::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]).unwrap();
        let b = Mat::from_vec(3, 2, vec![7., 8., 9., 10., 11., 12.]).unwrap();
        let c = gemm_f32(&a, &b);
        assert_eq!(c.as_slice(), &[58., 64., 139., 154.]);
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn dimension_mismatch_panics() {
        let a = Mat::<f32>::zeros(2, 3);
        let b = Mat::<f32>::zeros(2, 2);
        gemm_f32(&a, &b);
    }
}
