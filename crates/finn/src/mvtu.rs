//! The Matrix–Vector–Threshold Unit.
//!
//! FINN's workhorse: a PE×SIMD array that multiplies a binary weight matrix
//! with an incoming activation vector and pushes each accumulator through a
//! per-channel integer threshold set (§II). With binary weights the
//! "multipliers" degenerate to XNOR/AND gates feeding popcount trees; with
//! 3-bit activations the dot product is evaluated per bitplane and the
//! planes are combined with shifts — see [`tincy_quant::xnor_popcount_dot`].

use tincy_kernels::{Isa, IsaKernel};
use tincy_nn::NnError;
use tincy_quant::{and_popcount, xnor_popcount_dot, ThresholdsForLayer};
use tincy_tensor::{BitTensor, U3Tensor};

/// One Matrix–Vector–Threshold Unit instance.
#[derive(Debug, Clone)]
pub struct Mvtu {
    weights: BitTensor,
    thresholds: ThresholdsForLayer,
    pe: usize,
    simd: usize,
}

impl Mvtu {
    /// Builds an MVTU from packed binary weights, per-channel thresholds
    /// and a folding configuration.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidSpec`] if threshold channels disagree with
    /// weight rows or the folding parameters are zero.
    pub fn new(
        weights: BitTensor,
        thresholds: ThresholdsForLayer,
        pe: usize,
        simd: usize,
    ) -> Result<Self, NnError> {
        if thresholds.num_channels() != weights.rows() {
            return Err(NnError::InvalidSpec {
                what: format!(
                    "thresholds cover {} channels, weight matrix has {} rows",
                    thresholds.num_channels(),
                    weights.rows()
                ),
            });
        }
        if pe == 0 || simd == 0 {
            return Err(NnError::InvalidSpec {
                what: "PE and SIMD folding must be nonzero".to_owned(),
            });
        }
        Ok(Self {
            weights,
            thresholds,
            pe,
            simd,
        })
    }

    /// Output channels (weight matrix rows).
    pub fn out_channels(&self) -> usize {
        self.weights.rows()
    }

    /// Dot-product length (weight matrix columns).
    pub fn dot_length(&self) -> usize {
        self.weights.cols()
    }

    /// PE (output-channel) parallelism.
    pub fn pe(&self) -> usize {
        self.pe
    }

    /// SIMD (dot-element) parallelism.
    pub fn simd(&self) -> usize {
        self.simd
    }

    /// The packed weight matrix.
    pub fn weights(&self) -> &BitTensor {
        &self.weights
    }

    /// The integer accumulator for one output channel and one activation
    /// vector — three XNOR-popcount plane dots combined with shifts.
    ///
    /// # Panics
    ///
    /// Panics if the activation vector length differs from
    /// [`Mvtu::dot_length`].
    pub fn accumulate(&self, channel: usize, activations: &U3Tensor) -> i32 {
        assert_eq!(
            activations.len(),
            self.dot_length(),
            "activation vector length mismatch"
        );
        let w = self.weights.row_words(channel);
        (0..3)
            .map(|p| (1 << p) * xnor_popcount_dot(w, activations.plane_words(p)))
            .sum()
    }

    /// Processes one activation vector through all output channels:
    /// accumulate, then threshold to the quantized activation level.
    ///
    /// Same integers as [`Mvtu::accumulate`] per channel, but the
    /// activation-only term `Σ_p 2^p·pc(plane_p)` is folded once per vector
    /// instead of once per channel, and the loop runs on the hardware
    /// population count where the CPU has one.
    ///
    /// # Panics
    ///
    /// Panics if the activation vector length differs from
    /// [`Mvtu::dot_length`].
    pub fn process(&self, activations: &U3Tensor) -> Vec<u8> {
        assert_eq!(
            activations.len(),
            self.dot_length(),
            "activation vector length mismatch"
        );
        Isa::detect().run(ProcessVector {
            mvtu: self,
            activations,
        })
    }

    /// Cycles to process one activation vector: the matrix is folded onto
    /// the PE×SIMD array, so one vector takes
    /// `ceil(dot/simd) · ceil(channels/pe)` beats.
    pub fn cycles_per_vector(&self) -> u64 {
        (self.dot_length().div_ceil(self.simd) * self.out_channels().div_ceil(self.pe)) as u64
    }
}

/// One [`Mvtu::process`] call.
struct ProcessVector<'a> {
    mvtu: &'a Mvtu,
    activations: &'a U3Tensor,
}

impl IsaKernel for ProcessVector<'_> {
    type Output = Vec<u8>;

    #[inline(always)]
    fn run(self) -> Vec<u8> {
        let Self { mvtu, activations } = self;
        let planes: [&[u64]; 3] = std::array::from_fn(|p| activations.plane_words(p));
        let mut plane_sum = 0i32;
        for (p, plane) in planes.iter().enumerate() {
            let mut ones = 0u32;
            for &word in *plane {
                ones += word.count_ones();
            }
            plane_sum += (ones as i32) << p;
        }
        let mut levels = Vec::with_capacity(mvtu.out_channels());
        for c in 0..mvtu.out_channels() {
            let mut positive = 0i32;
            for (p, plane) in planes.iter().enumerate() {
                positive += (and_popcount(mvtu.weights.row_words(c), plane) as i32) << p;
            }
            levels.push(
                mvtu.thresholds
                    .channel(c)
                    .activate(2 * positive - plane_sum),
            );
        }
        levels
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use tincy_quant::{BinaryDot, ThresholdSet};

    fn random_mvtu(rng: &mut StdRng, rows: usize, cols: usize) -> Mvtu {
        let signs: Vec<i8> = (0..rows * cols)
            .map(|_| if rng.gen() { 1 } else { -1 })
            .collect();
        let weights = BitTensor::from_signs(rows, cols, &signs).unwrap();
        let thresholds = ThresholdsForLayer::new(
            (0..rows)
                .map(|_| {
                    let base = rng.gen_range(-20i32..0);
                    let step = rng.gen_range(1i32..6);
                    ThresholdSet::new((0..7).map(|k| base + k * step).collect()).unwrap()
                })
                .collect(),
        )
        .unwrap();
        Mvtu::new(weights, thresholds, 4, 8).unwrap()
    }

    #[test]
    fn accumulate_is_bit_exact_with_naive_reference() {
        let mut rng = StdRng::seed_from_u64(77);
        for cols in [9, 27, 64, 144, 200] {
            let mvtu = random_mvtu(&mut rng, 6, cols);
            let reference = BinaryDot::new(mvtu.weights().clone());
            let acts: Vec<u8> = (0..cols).map(|_| rng.gen_range(0..8)).collect();
            let packed = U3Tensor::from_values(&acts).unwrap();
            for c in 0..6 {
                assert_eq!(
                    mvtu.accumulate(c, &packed),
                    reference.dot_naive(c, &acts),
                    "channel {c}, cols {cols}"
                );
            }
        }
    }

    #[test]
    fn process_applies_thresholds() {
        // Single weight row of +1s with thresholds at 0, 10, 20, ...
        let weights = BitTensor::from_signs(1, 4, &[1, 1, 1, 1]).unwrap();
        let thresholds =
            ThresholdsForLayer::new(vec![
                ThresholdSet::new((0..7).map(|k| k * 10).collect()).unwrap()
            ])
            .unwrap();
        let mvtu = Mvtu::new(weights, thresholds, 1, 1).unwrap();
        // acc = 7+7+7+7 = 28 -> passes thresholds 0, 10, 20 -> level 3.
        let acts = U3Tensor::from_values(&[7, 7, 7, 7]).unwrap();
        assert_eq!(mvtu.process(&acts), vec![3]);
        // acc = 0 -> passes only threshold 0 -> level 1.
        let zeros = U3Tensor::from_values(&[0, 0, 0, 0]).unwrap();
        assert_eq!(mvtu.process(&zeros), vec![1]);
    }

    #[test]
    fn process_is_accumulate_then_activate_per_channel() {
        let mut rng = StdRng::seed_from_u64(79);
        for cols in [9, 64, 130, 576] {
            let mvtu = random_mvtu(&mut rng, 7, cols);
            let acts: Vec<u8> = (0..cols).map(|_| rng.gen_range(0..8)).collect();
            let packed = U3Tensor::from_values(&acts).unwrap();
            let expected: Vec<u8> = (0..7)
                .map(|c| {
                    mvtu.thresholds
                        .channel(c)
                        .activate(mvtu.accumulate(c, &packed))
                })
                .collect();
            assert_eq!(mvtu.process(&packed), expected, "cols {cols}");
        }
    }

    #[test]
    fn folding_cycle_model() {
        let mut rng = StdRng::seed_from_u64(78);
        let mvtu = random_mvtu(&mut rng, 6, 27);
        // ceil(27/8) * ceil(6/4) = 4 * 2 = 8 cycles per vector.
        assert_eq!(mvtu.cycles_per_vector(), 8);
    }

    #[test]
    fn validation() {
        let weights = BitTensor::zeros(2, 9);
        let one_channel = ThresholdsForLayer::new(vec![ThresholdSet::binary()]).unwrap();
        assert!(Mvtu::new(weights.clone(), one_channel, 1, 1).is_err());
        let two = ThresholdsForLayer::new(vec![ThresholdSet::binary(); 2]).unwrap();
        assert!(Mvtu::new(weights.clone(), two.clone(), 0, 1).is_err());
        assert!(Mvtu::new(weights, two, 1, 1).is_ok());
    }
}
