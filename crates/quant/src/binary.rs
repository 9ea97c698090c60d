//! Binary weight quantization and XNOR-popcount dot products (§II).
//!
//! With weights constrained to {−1, +1} and stored as bitmasks (bit set ⇔
//! +1), the dot product against a bit vector `b ∈ {0,1}ⁿ` becomes pure
//! popcount arithmetic:
//!
//! ```text
//! Σ wᵢ·bᵢ = pc(b ∧ w) − pc(b ∧ ¬w) = 2·pc(b ∧ w) − pc(b)
//! ```
//!
//! A 3-bit activation vector decomposes into three bitplanes, so the W1A3
//! dot product used by Tincy YOLO's hidden layers is three popcount dots
//! combined with plane weights 1, 2, 4. This identity is what the MVTU in
//! `tincy-finn` implements in "hardware"; the functions here are the golden
//! reference the simulator is tested against.

use tincy_tensor::{BitTensor, U3Tensor};

/// Binarizes float weights to sign values in {−1, +1}.
///
/// Zero maps to +1, matching the convention of Courbariaux/Hubara's
/// `sign(0) = +1` so that the packed bitmask is well defined.
///
/// # Example
///
/// ```
/// use tincy_quant::binarize;
///
/// assert_eq!(binarize(&[0.3, -0.7, 0.0]), vec![1, -1, 1]);
/// ```
pub fn binarize(weights: &[f32]) -> Vec<i8> {
    weights
        .iter()
        .map(|&w| if w < 0.0 { -1i8 } else { 1i8 })
        .collect()
}

/// Popcount of the AND of two packed bit vectors: `pc(w ∧ b)`.
///
/// This is the single primitive every XNOR-popcount evaluation in the
/// workspace reduces to — [`xnor_popcount_dot`] here, the MVTU model in
/// `tincy-finn`, and the packed CPU kernels in `tincy-kernels` all share
/// these semantics, so they agree bit-for-bit by construction.
///
/// Always inlined, so a caller compiled for a CPU with a population-count
/// instruction (`tincy_simd::popcount`) counts with it.
///
/// # Panics
///
/// Panics if the word counts differ.
#[inline(always)]
pub fn and_popcount(weight_words: &[u64], plane: &[u64]) -> u32 {
    assert_eq!(weight_words.len(), plane.len(), "word count mismatch");
    weight_words
        .iter()
        .zip(plane)
        .map(|(&w, &b)| (w & b).count_ones())
        .sum()
}

/// XNOR-popcount dot of one packed weight row against one packed bit plane.
///
/// Both slices must have identical length; padding bits beyond the logical
/// width must be clear in `plane` (guaranteed by [`U3Tensor`] /
/// [`BitTensor`] constructors).
///
/// Returns `Σ wᵢ·bᵢ` with `wᵢ ∈ {−1,+1}` and `bᵢ ∈ {0,1}`.
///
/// # Panics
///
/// Panics if the word counts differ.
#[inline]
pub fn xnor_popcount_dot(weight_words: &[u64], plane: &[u64]) -> i32 {
    let pos = and_popcount(weight_words, plane);
    let total: u32 = plane.iter().map(|&b| b.count_ones()).sum();
    2 * pos as i32 - total as i32
}

/// Reference dot products between binary weights and quantized activations.
///
/// [`BinaryDot`] wraps a packed binary weight matrix and offers both the
/// naive signed-arithmetic evaluation and the popcount evaluation, which are
/// proven identical by the tests in this module.
#[derive(Debug, Clone)]
pub struct BinaryDot {
    weights: BitTensor,
}

impl BinaryDot {
    /// Wraps a packed weight matrix.
    pub fn new(weights: BitTensor) -> Self {
        Self { weights }
    }

    /// The wrapped weight matrix.
    pub fn weights(&self) -> &BitTensor {
        &self.weights
    }

    /// Naive evaluation: `Σ sign(w[row][i]) · a[i]` in plain integers.
    ///
    /// # Panics
    ///
    /// Panics if `activations.len()` differs from the weight row width.
    pub fn dot_naive(&self, row: usize, activations: &[u8]) -> i32 {
        assert_eq!(
            activations.len(),
            self.weights.cols(),
            "activation length mismatch"
        );
        activations
            .iter()
            .enumerate()
            .map(|(i, &a)| self.weights.sign(row, i) * a as i32)
            .sum()
    }

    /// Popcount evaluation against a 3-bit bitplane vector.
    ///
    /// Equals [`Self::dot_naive`] on the unpacked values — the identity the
    /// hardware accelerator relies on.
    ///
    /// # Panics
    ///
    /// Panics if the activation vector length differs from the row width.
    pub fn dot_planes(&self, row: usize, activations: &U3Tensor) -> i32 {
        assert_eq!(
            activations.len(),
            self.weights.cols(),
            "activation length mismatch"
        );
        let w = self.weights.row_words(row);
        (0..3)
            .map(|p| (1 << p) * xnor_popcount_dot(w, activations.plane_words(p)))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn binarize_sign_convention() {
        assert_eq!(binarize(&[-0.0, 0.0, 1e-9, -1e-9]), vec![1, 1, 1, -1]);
    }

    #[test]
    fn popcount_identity_hand_case() {
        // w = [+1, -1, +1], b = [1, 1, 0]: dot = 1 - 1 + 0 = 0.
        let w = BitTensor::from_signs(1, 3, &[1, -1, 1]).unwrap();
        let mut plane = vec![0u64; 1];
        plane[0] = 0b011;
        assert_eq!(xnor_popcount_dot(w.row_words(0), &plane), 0);
    }

    #[test]
    fn naive_equals_planes_randomized() {
        let mut rng = StdRng::seed_from_u64(42);
        for cols in [1usize, 5, 63, 64, 65, 200] {
            let signs: Vec<i8> = (0..cols).map(|_| if rng.gen() { 1 } else { -1 }).collect();
            let weights = BitTensor::from_signs(1, cols, &signs).unwrap();
            let dot = BinaryDot::new(weights);
            let acts: Vec<u8> = (0..cols).map(|_| rng.gen_range(0..8)).collect();
            let packed = U3Tensor::from_values(&acts).unwrap();
            assert_eq!(
                dot.dot_naive(0, &acts),
                dot.dot_planes(0, &packed),
                "cols={cols}"
            );
        }
    }

    #[test]
    fn padding_bits_do_not_contribute() {
        // 65 columns forces a second word with 63 padding bits.
        let signs = vec![1i8; 65];
        let weights = BitTensor::from_signs(1, 65, &signs).unwrap();
        let dot = BinaryDot::new(weights);
        let acts = vec![7u8; 65];
        let packed = U3Tensor::from_values(&acts).unwrap();
        assert_eq!(dot.dot_planes(0, &packed), 65 * 7);
    }

    #[test]
    fn dot_bounds() {
        // |dot| <= 7 * n for W1A3.
        let n = 27;
        let weights = BitTensor::from_signs(1, n, &vec![-1i8; n]).unwrap();
        let dot = BinaryDot::new(weights);
        let acts = vec![7u8; n];
        let packed = U3Tensor::from_values(&acts).unwrap();
        assert_eq!(dot.dot_planes(0, &packed), -(7 * n as i32));
    }
}
