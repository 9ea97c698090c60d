use crate::QuantError;

/// Affine (asymmetric) 8-bit quantization: `real = scale · (q − zero_point)`.
///
/// This is the "safe" 8-bit scheme the paper uses for the quantization
/// sensitive input and output layers (§III-A) and the numerical contract of
/// the gemmlowp-style low-precision GEMM (§III-D).
///
/// # Example
///
/// ```
/// use tincy_quant::AffineQuant;
///
/// let q = AffineQuant::fit(-1.0, 1.0)?;
/// let byte = q.quantize(0.5);
/// assert!((q.dequantize(byte) - 0.5).abs() <= q.scale());
/// # Ok::<(), tincy_quant::QuantError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AffineQuant {
    scale: f32,
    zero_point: i32,
}

impl AffineQuant {
    /// Creates a quantizer with explicit parameters.
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::InvalidParameter`] if `scale` is not a positive
    /// finite number or `zero_point` is outside `0..=255`.
    pub fn new(scale: f32, zero_point: i32) -> Result<Self, QuantError> {
        if !(scale.is_finite() && scale > 0.0) {
            return Err(QuantError::InvalidParameter {
                what: format!("scale {scale} must be positive and finite"),
            });
        }
        if !(0..=255).contains(&zero_point) {
            return Err(QuantError::InvalidParameter {
                what: format!("zero point {zero_point} must be in 0..=255"),
            });
        }
        Ok(Self { scale, zero_point })
    }

    /// Fits a quantizer to the real range `[min, max]`.
    ///
    /// The range is widened to include zero so that zero is exactly
    /// representable (a gemmlowp requirement for padding correctness).
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::InvalidRange`] if the range is empty, reversed
    /// or non-finite.
    pub fn fit(min: f32, max: f32) -> Result<Self, QuantError> {
        if !min.is_finite() || !max.is_finite() || min > max {
            return Err(QuantError::InvalidRange { min, max });
        }
        let min = min.min(0.0);
        let max = max.max(0.0);
        let span = max - min;
        if span == 0.0 {
            // Degenerate all-zero data: any positive scale works.
            return Self::new(1.0, 0);
        }
        let scale = span / 255.0;
        let zero_point = (-min / scale).round() as i32;
        Self::new(scale, zero_point.clamp(0, 255))
    }

    /// Fits a quantizer to the extrema of a data slice.
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::InvalidRange`] if the slice contains non-finite
    /// values; an empty slice yields the degenerate unit quantizer.
    #[inline]
    pub fn fit_data(data: &[f32]) -> Result<Self, QuantError> {
        if data.is_empty() {
            return Self::new(1.0, 0);
        }
        // Lane-wise extrema, folded at the end: a reduction the compiler
        // vectorizes, where one running minimum is a serial chain. The
        // compare-and-select skips NaN exactly as `f32::min`/`max` do.
        const LANES: usize = 8;
        let lower = |m: f32, v: f32| if v < m { v } else { m };
        let upper = |m: f32, v: f32| if v > m { v } else { m };
        let mut min = [f32::INFINITY; LANES];
        let mut max = [f32::NEG_INFINITY; LANES];
        let (groups, tail) = data.as_chunks::<LANES>();
        for group in groups {
            for ((min, max), &v) in min.iter_mut().zip(&mut max).zip(group) {
                *min = lower(*min, v);
                *max = upper(*max, v);
            }
        }
        let min = min
            .iter()
            .chain(tail)
            .fold(f32::INFINITY, |m, &v| lower(m, v));
        let max = max
            .iter()
            .chain(tail)
            .fold(f32::NEG_INFINITY, |m, &v| upper(m, v));
        Self::fit(min, max)
    }

    /// The quantization step size.
    pub fn scale(&self) -> f32 {
        self.scale
    }

    /// The quantized value representing real zero.
    pub fn zero_point(&self) -> i32 {
        self.zero_point
    }

    /// Quantizes a real value with round-to-nearest and saturation.
    #[inline]
    pub fn quantize(&self, real: f32) -> u8 {
        let q = ((real / self.scale).round() as i32).saturating_add(self.zero_point);
        q.clamp(0, 255) as u8
    }

    /// Dequantizes back to a real value.
    #[inline]
    pub fn dequantize(&self, q: u8) -> f32 {
        self.scale * (q as i32 - self.zero_point) as f32
    }

    /// Quantizes a whole slice: byte for byte what [`AffineQuant::quantize`]
    /// returns for each element, computed without `f32::round` (a libm
    /// call on targets with no rounding instruction) so the loop
    /// vectorizes.
    #[inline]
    pub fn quantize_slice(&self, real: &[f32]) -> Vec<u8> {
        // Beyond ±LIMIT steps the result saturates whatever the zero
        // point, so the quotient can be clamped into the range where the
        // integer conversion below is exact.
        const LIMIT: f32 = 512.0;
        real.iter()
            .map(|&v| {
                let steps = (v / self.scale).clamp(-LIMIT, LIMIT);
                // Round half away from zero: truncate, then look at the
                // (exactly representable) fraction that was cut off.
                let whole = steps as i32;
                let cut = steps - whole as f32;
                let rounded = whole + i32::from(cut >= 0.5) - i32::from(cut <= -0.5);
                (rounded + self.zero_point).clamp(0, 255) as u8
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_is_exactly_representable() {
        let q = AffineQuant::fit(-0.37, 1.93).unwrap();
        let zq = q.quantize(0.0);
        assert_eq!(q.dequantize(zq), 0.0);
    }

    #[test]
    fn round_trip_error_bounded_by_scale() {
        let q = AffineQuant::fit(-2.0, 2.0).unwrap();
        for i in -200..=200 {
            let v = i as f32 / 100.0;
            assert!((q.dequantize(q.quantize(v)) - v).abs() <= q.scale() * 0.5 + 1e-6);
        }
    }

    #[test]
    fn saturates_outside_range() {
        let q = AffineQuant::fit(0.0, 1.0).unwrap();
        assert_eq!(q.quantize(100.0), 255);
        assert_eq!(q.quantize(-100.0), 0);
    }

    #[test]
    fn positive_only_range_gets_zero_point_zero() {
        let q = AffineQuant::fit(0.0, 4.0).unwrap();
        assert_eq!(q.zero_point(), 0);
        assert_eq!(q.quantize(0.0), 0);
    }

    #[test]
    fn rejects_bad_ranges() {
        assert!(AffineQuant::fit(1.0, -1.0).is_err());
        assert!(AffineQuant::fit(f32::NAN, 1.0).is_err());
        assert!(AffineQuant::new(0.0, 0).is_err());
        assert!(AffineQuant::new(1.0, 300).is_err());
    }

    #[test]
    fn fit_data_handles_empty_and_constant() {
        assert!(AffineQuant::fit_data(&[]).is_ok());
        let q = AffineQuant::fit_data(&[0.0, 0.0]).unwrap();
        assert_eq!(q.quantize(0.0), 0);
    }

    #[test]
    fn quantize_saturates_instead_of_overflowing() {
        let q = AffineQuant::new(1.0, 200).unwrap();
        assert_eq!(q.quantize(f32::MAX), 255);
        assert_eq!(q.quantize(f32::MIN), 0);
        assert_eq!(q.quantize(f32::NAN), 200);
    }

    #[test]
    fn fit_data_matches_a_serial_scan() {
        // Lengths around the lane count, NaN skipped, signed zeros.
        let data: Vec<f32> = (0..37)
            .map(|i| ((i * 29) % 17) as f32 * 0.37 - 2.5)
            .collect();
        for len in 0..data.len() {
            let mut slice = data[..len].to_vec();
            if len > 3 {
                slice[len / 2] = f32::NAN;
                slice[len / 3] = -0.0;
            }
            let serial = {
                let (mut min, mut max) = (f32::INFINITY, f32::NEG_INFINITY);
                for &v in &slice {
                    min = min.min(v);
                    max = max.max(v);
                }
                if slice.is_empty() {
                    AffineQuant::new(1.0, 0)
                } else {
                    AffineQuant::fit(min, max)
                }
            };
            assert_eq!(AffineQuant::fit_data(&slice), serial, "len {len}");
        }
        assert!(AffineQuant::fit_data(&[f32::NAN]).is_err());
        assert!(AffineQuant::fit_data(&[1.0, f32::INFINITY]).is_err());
    }

    #[test]
    fn slice_round_trip() {
        let q = AffineQuant::fit(-1.0, 1.0).unwrap();
        let data = vec![-1.0, -0.5, 0.0, 0.5, 1.0];
        for (a, b) in data.iter().zip(q.quantize_slice(&data)) {
            assert!((a - q.dequantize(b)).abs() <= q.scale());
        }
    }
}
