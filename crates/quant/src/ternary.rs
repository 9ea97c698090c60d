//! Ternary weight quantization (Li et al., referenced in §II).
//!
//! The paper positions ternary quantization as "the smallest possible
//! retreat" from full binarization. We implement the Ternary Weight Network
//! scheme: weights map to `{−α, 0, +α}` with the threshold
//! `Δ = 0.7 · E[|w|]` and `α = E[|wᵢ|]` over the surviving weights.

use crate::QuantError;

/// A ternary-quantized weight set: signs in {−1, 0, +1} and a common scale.
#[derive(Debug, Clone, PartialEq)]
pub struct TernaryWeights {
    signs: Vec<i8>,
    alpha: f32,
    delta: f32,
}

impl TernaryWeights {
    /// The ternary sign values.
    pub fn signs(&self) -> &[i8] {
        &self.signs
    }

    /// The learned magnitude `α`.
    pub fn alpha(&self) -> f32 {
        self.alpha
    }

    /// The pruning threshold `Δ`.
    pub fn delta(&self) -> f32 {
        self.delta
    }

    /// Reconstructs the dequantized weights `α · sign`.
    pub fn to_dense(&self) -> Vec<f32> {
        self.signs.iter().map(|&s| self.alpha * s as f32).collect()
    }
}

/// Quantizes float weights with the TWN rule.
///
/// # Errors
///
/// Returns [`QuantError::InvalidParameter`] if `weights` is empty or
/// contains non-finite values.
///
/// # Example
///
/// ```
/// use tincy_quant::ternarize;
///
/// let t = ternarize(&[0.9, -0.8, 0.05, -0.02])?;
/// assert_eq!(t.signs(), &[1, -1, 0, 0]);
/// # Ok::<(), tincy_quant::QuantError>(())
/// ```
pub fn ternarize(weights: &[f32]) -> Result<TernaryWeights, QuantError> {
    if weights.is_empty() {
        return Err(QuantError::InvalidParameter {
            what: "empty weight slice".to_owned(),
        });
    }
    if weights.iter().any(|w| !w.is_finite()) {
        return Err(QuantError::InvalidParameter {
            what: "non-finite weight".to_owned(),
        });
    }
    let mean_abs: f32 = weights.iter().map(|w| w.abs()).sum::<f32>() / weights.len() as f32;
    let delta = 0.7 * mean_abs;
    let signs: Vec<i8> = weights
        .iter()
        .map(|&w| {
            if w > delta {
                1
            } else if w < -delta {
                -1
            } else {
                0
            }
        })
        .collect();
    let surviving: Vec<f32> = weights
        .iter()
        .zip(&signs)
        .filter(|(_, &s)| s != 0)
        .map(|(w, _)| w.abs())
        .collect();
    let alpha = if surviving.is_empty() {
        0.0
    } else {
        surviving.iter().sum::<f32>() / surviving.len() as f32
    };
    Ok(TernaryWeights {
        signs,
        alpha,
        delta,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn large_weights_survive_small_die() {
        let t = ternarize(&[1.0, -1.0, 0.1, -0.1]).unwrap();
        assert_eq!(t.signs(), &[1, -1, 0, 0]);
        assert!((t.alpha() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn uniform_weights_all_survive() {
        // |w| all equal => delta = 0.7|w| < |w|, nothing pruned.
        let t = ternarize(&[0.5, -0.5, 0.5]).unwrap();
        assert_eq!(t.to_dense(), vec![0.5, -0.5, 0.5]);
    }

    #[test]
    fn reconstruction_reduces_l2_error_vs_binary_for_sparse_weights() {
        // On weights with many near-zeros, ternary should beat binary
        // (scaled) reconstruction — the motivation in §II.
        let w: Vec<f32> = vec![1.0, -1.0, 0.01, -0.02, 0.0, 0.03, 1.1, -0.9];
        let t = ternarize(&w).unwrap();
        let tern = t.to_dense();
        let mean_abs: f32 = w.iter().map(|x| x.abs()).sum::<f32>() / w.len() as f32;
        let bin: Vec<f32> = w
            .iter()
            .map(|&x| if x < 0.0 { -mean_abs } else { mean_abs })
            .collect();
        let err = |a: &[f32]| -> f32 { a.iter().zip(&w).map(|(p, q)| (p - q).powi(2)).sum() };
        assert!(err(&tern) < err(&bin));
    }

    #[test]
    fn rejects_empty_and_nan() {
        assert!(ternarize(&[]).is_err());
        assert!(ternarize(&[f32::NAN]).is_err());
    }
}
