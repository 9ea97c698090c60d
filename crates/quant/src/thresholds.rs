//! FINN-style integer threshold activations (§II, §III-A).
//!
//! On the accelerator, batch normalization and activation quantization are
//! folded into per-channel *threshold sets*: the quantized activation level
//! is simply the number of thresholds the integer accumulator passes. This
//! turns the whole post-dot-product pipeline into integer comparisons — no
//! multipliers, no floating point — which is what makes the MVTU so cheap in
//! programmable logic.
//!
//! The float-side layer computes `y = a·acc + b` (batch-norm affine folded
//! with the input scale) followed by a uniform activation quantizer with step
//! `q` over `L = 2^bits` levels: `level = clamp(⌊y/q + ½⌋, 0, L−1)`. Since
//! `level ≥ k ⟺ y ≥ (k−½)·q`, each level boundary is one integer threshold
//! on `acc`.

use crate::QuantError;

/// A per-channel set of integer thresholds implementing a quantized
/// activation function over integer accumulators.
///
/// # Example
///
/// ```
/// use tincy_quant::ThresholdSet;
///
/// // Thresholds 0, 10, 20, ... map accumulators to 3-bit levels.
/// let t = ThresholdSet::new((0..7).map(|k| k * 10).collect())?;
/// assert_eq!(t.activate(-5), 0);
/// assert_eq!(t.activate(0), 1);
/// assert_eq!(t.activate(35), 4);
/// assert_eq!(t.activate(1_000), 7);
/// # Ok::<(), tincy_quant::QuantError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ThresholdSet {
    /// Monotonically non-decreasing threshold values.
    thresholds: Vec<i32>,
    /// `true`: level = #{τ ≤ acc} (folded scale positive).
    /// `false`: level = #{τ ≥ acc} (folded scale negative).
    ascending: bool,
}

impl ThresholdSet {
    /// Creates an ascending threshold set.
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::NonMonotoneThresholds`] if the list decreases
    /// anywhere, or [`QuantError::InvalidParameter`] if it is empty.
    pub fn new(thresholds: Vec<i32>) -> Result<Self, QuantError> {
        Self::with_direction(thresholds, true)
    }

    /// Creates a threshold set with an explicit comparison direction.
    ///
    /// # Errors
    ///
    /// Same as [`ThresholdSet::new`].
    pub fn with_direction(thresholds: Vec<i32>, ascending: bool) -> Result<Self, QuantError> {
        if thresholds.is_empty() {
            return Err(QuantError::InvalidParameter {
                what: "threshold set must contain at least one threshold".to_owned(),
            });
        }
        if thresholds.windows(2).any(|w| w[0] > w[1]) {
            return Err(QuantError::NonMonotoneThresholds);
        }
        Ok(Self {
            thresholds,
            ascending,
        })
    }

    /// The single-threshold set of a binarized activation (`sign`): output 1
    /// for `acc ≥ 0`, else 0.
    pub fn binary() -> Self {
        Self {
            thresholds: vec![0],
            ascending: true,
        }
    }

    /// Folds the affine `y = a·acc + b` with a uniform `levels`-level
    /// quantizer of step `q` into integer thresholds.
    ///
    /// Handles negative `a` (e.g. a negative batch-norm gamma) by flipping
    /// the comparison direction, as FINN does by negating weights.
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::InvalidParameter`] if `a == 0`, `q <= 0`,
    /// `levels < 2`, or any parameter is non-finite.
    pub fn from_affine(a: f32, b: f32, q: f32, levels: usize) -> Result<Self, QuantError> {
        if !a.is_finite() || !b.is_finite() || !q.is_finite() {
            return Err(QuantError::InvalidParameter {
                what: "non-finite parameter".to_owned(),
            });
        }
        if a == 0.0 {
            return Err(QuantError::InvalidParameter {
                what: "scale a must be nonzero".to_owned(),
            });
        }
        if q <= 0.0 {
            return Err(QuantError::InvalidParameter {
                what: format!("activation step {q} must be positive"),
            });
        }
        if levels < 2 {
            return Err(QuantError::InvalidParameter {
                what: format!("levels {levels} must be at least 2"),
            });
        }
        let mut thresholds = Vec::with_capacity(levels - 1);
        if a > 0.0 {
            for k in 1..levels {
                let boundary = ((k as f64 - 0.5) * q as f64 - b as f64) / a as f64;
                thresholds.push(boundary.ceil() as i32);
            }
            Self::with_direction(thresholds, true)
        } else {
            for k in (1..levels).rev() {
                let boundary = ((k as f64 - 0.5) * q as f64 - b as f64) / a as f64;
                thresholds.push(boundary.floor() as i32);
            }
            Self::with_direction(thresholds, false)
        }
    }

    /// Number of thresholds (`levels − 1`).
    pub fn len(&self) -> usize {
        self.thresholds.len()
    }

    /// Whether the set is empty (never true for constructed sets).
    pub fn is_empty(&self) -> bool {
        self.thresholds.is_empty()
    }

    /// The raw threshold values.
    pub fn thresholds(&self) -> &[i32] {
        &self.thresholds
    }

    /// Whether comparisons are ascending (`τ ≤ acc`).
    pub fn is_ascending(&self) -> bool {
        self.ascending
    }

    /// Applies the activation: the output level in `0..=len()`.
    #[inline]
    pub fn activate(&self, acc: i32) -> u8 {
        let count = if self.ascending {
            // Thresholds are sorted: binary search for the first > acc.
            self.thresholds.partition_point(|&t| t <= acc)
        } else {
            self.thresholds.len() - self.thresholds.partition_point(|&t| t < acc)
        };
        count as u8
    }
}

/// Threshold sets for all output channels of one layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ThresholdsForLayer {
    channels: Vec<ThresholdSet>,
}

impl ThresholdsForLayer {
    /// Wraps one threshold set per output channel.
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::InvalidParameter`] if `channels` is empty or the
    /// sets disagree on level count.
    pub fn new(channels: Vec<ThresholdSet>) -> Result<Self, QuantError> {
        if channels.is_empty() {
            return Err(QuantError::InvalidParameter {
                what: "layer must have at least one channel".to_owned(),
            });
        }
        let len = channels[0].len();
        if channels.iter().any(|c| c.len() != len) {
            return Err(QuantError::InvalidParameter {
                what: "all channels must share the same level count".to_owned(),
            });
        }
        Ok(Self { channels })
    }

    /// Number of output channels.
    pub fn num_channels(&self) -> usize {
        self.channels.len()
    }

    /// The threshold set of channel `c`.
    ///
    /// # Panics
    ///
    /// Panics if `c` is out of bounds.
    pub fn channel(&self, c: usize) -> &ThresholdSet {
        &self.channels[c]
    }

    /// Iterates over the per-channel sets.
    pub fn iter(&self) -> std::slice::Iter<'_, ThresholdSet> {
        self.channels.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Float reference: `clamp(⌊y/q + ½⌋, 0, levels−1)`.
    fn float_level(a: f32, b: f32, q: f32, levels: usize, acc: i32) -> u8 {
        let y = a as f64 * acc as f64 + b as f64;
        let lvl = (y / q as f64 + 0.5).floor();
        lvl.clamp(0.0, (levels - 1) as f64) as u8
    }

    #[test]
    fn monotonicity_enforced() {
        assert!(ThresholdSet::new(vec![3, 2]).is_err());
        assert!(ThresholdSet::new(vec![]).is_err());
        assert!(ThresholdSet::new(vec![1, 1, 2]).is_ok());
    }

    #[test]
    fn binary_threshold_is_sign() {
        let t = ThresholdSet::binary();
        assert_eq!(t.activate(-1), 0);
        assert_eq!(t.activate(0), 1);
        assert_eq!(t.activate(5), 1);
    }

    #[test]
    fn affine_fold_matches_float_reference_positive_a() {
        let (a, b, q, levels) = (0.031, -1.7, 0.25, 8);
        let t = ThresholdSet::from_affine(a, b, q, levels).unwrap();
        for acc in -500..500 {
            assert_eq!(
                t.activate(acc),
                float_level(a, b, q, levels, acc),
                "acc={acc}"
            );
        }
    }

    #[test]
    fn affine_fold_matches_float_reference_negative_a() {
        let (a, b, q, levels) = (-0.013, 0.9, 0.125, 8);
        let t = ThresholdSet::from_affine(a, b, q, levels).unwrap();
        assert!(!t.is_ascending());
        for acc in -500..500 {
            assert_eq!(
                t.activate(acc),
                float_level(a, b, q, levels, acc),
                "acc={acc}"
            );
        }
    }

    #[test]
    fn activation_is_monotone_in_accumulator() {
        let t = ThresholdSet::from_affine(0.07, -0.3, 0.2, 8).unwrap();
        let mut prev = t.activate(-1000);
        for acc in -999..1000 {
            let lvl = t.activate(acc);
            assert!(lvl >= prev);
            prev = lvl;
        }
        assert_eq!(prev, 7);
    }

    #[test]
    fn invalid_parameters_rejected() {
        assert!(ThresholdSet::from_affine(0.0, 0.0, 0.1, 8).is_err());
        assert!(ThresholdSet::from_affine(1.0, 0.0, 0.0, 8).is_err());
        assert!(ThresholdSet::from_affine(1.0, 0.0, 0.1, 1).is_err());
        assert!(ThresholdSet::from_affine(f32::NAN, 0.0, 0.1, 8).is_err());
    }

    #[test]
    fn layer_wrapper_validates_uniformity() {
        let a = ThresholdSet::new(vec![0; 7]).unwrap();
        let b = ThresholdSet::binary();
        assert!(ThresholdsForLayer::new(vec![a.clone(), a.clone()]).is_ok());
        assert!(ThresholdsForLayer::new(vec![a, b]).is_err());
        assert!(ThresholdsForLayer::new(vec![]).is_err());
    }
}
