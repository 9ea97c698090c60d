//! Max-pooling with Darknet's geometry conventions.

use crate::error::NnError;
use crate::layer::Layer;
use crate::spec::PoolSpec;
use tincy_tensor::{PoolGeom, Shape3, Tensor};

/// A max-pooling layer.
///
/// Output extent follows Darknet's `ceil(in / stride)` convention; windows
/// reaching past the border are clipped (equivalent to padding with
/// negative infinity). The `size=2, stride=1` pool before Tiny YOLO's
/// 13×13 layers therefore preserves spatial extent (Table I row 12).
#[derive(Debug, Clone)]
pub struct MaxPoolLayer {
    in_shape: Shape3,
    out_shape: Shape3,
    geom: PoolGeom,
}

impl MaxPoolLayer {
    /// Creates a pooling layer.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidSpec`] on zero size or stride.
    pub fn new(in_shape: Shape3, spec: &PoolSpec) -> Result<Self, NnError> {
        if spec.size == 0 || spec.stride == 0 {
            return Err(NnError::InvalidSpec {
                what: "pool size and stride must be nonzero".to_owned(),
            });
        }
        let geom = spec.geom();
        Ok(Self {
            in_shape,
            out_shape: geom.output_shape(in_shape),
            geom,
        })
    }

    /// The pooling geometry.
    pub fn geom(&self) -> PoolGeom {
        self.geom
    }
}

impl Layer for MaxPoolLayer {
    fn kind(&self) -> &'static str {
        "pool"
    }

    fn input_shape(&self) -> Shape3 {
        self.in_shape
    }

    fn output_shape(&self) -> Shape3 {
        self.out_shape
    }

    fn forward(&self, input: &Tensor<f32>) -> Result<Tensor<f32>, NnError> {
        self.check_input(input)?;
        let mut out = Tensor::zeros(self.out_shape);
        for c in 0..self.out_shape.channels {
            for oy in 0..self.out_shape.height {
                for ox in 0..self.out_shape.width {
                    let mut best = f32::NEG_INFINITY;
                    for ky in 0..self.geom.size {
                        for kx in 0..self.geom.size {
                            let iy = oy * self.geom.stride + ky;
                            let ix = ox * self.geom.stride + kx;
                            if iy < self.in_shape.height && ix < self.in_shape.width {
                                best = best.max(input.at(c, iy, ix));
                            }
                        }
                    }
                    *out.at_mut(c, oy, ox) = best;
                }
            }
        }
        Ok(out)
    }

    fn ops_per_frame(&self) -> u64 {
        (self.geom.size * self.geom.size) as u64 * self.out_shape.spatial() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_by_two_stride_two() {
        let input = Tensor::from_fn(Shape3::new(1, 4, 4), |_, y, x| (y * 4 + x) as f32);
        let layer = MaxPoolLayer::new(input.shape(), &PoolSpec { size: 2, stride: 2 }).unwrap();
        let out = layer.forward(&input).unwrap();
        assert_eq!(out.shape(), Shape3::new(1, 2, 2));
        assert_eq!(out.as_slice(), &[5.0, 7.0, 13.0, 15.0]);
    }

    #[test]
    fn stride_one_preserves_extent_with_clipped_windows() {
        let input = Tensor::from_fn(Shape3::new(1, 3, 3), |_, y, x| (y * 3 + x) as f32);
        let layer = MaxPoolLayer::new(input.shape(), &PoolSpec { size: 2, stride: 1 }).unwrap();
        let out = layer.forward(&input).unwrap();
        assert_eq!(out.shape(), Shape3::new(1, 3, 3));
        // Bottom-right output sees only the single clipped element.
        assert_eq!(out.at(0, 2, 2), 8.0);
        assert_eq!(out.at(0, 0, 0), 4.0);
    }

    #[test]
    fn channels_pool_independently() {
        let input = Tensor::from_fn(Shape3::new(2, 2, 2), |c, y, x| {
            if c == 0 {
                (y * 2 + x) as f32
            } else {
                -((y * 2 + x) as f32)
            }
        });
        let layer = MaxPoolLayer::new(input.shape(), &PoolSpec { size: 2, stride: 2 }).unwrap();
        let out = layer.forward(&input).unwrap();
        assert_eq!(out.at(0, 0, 0), 3.0);
        assert_eq!(out.at(1, 0, 0), 0.0);
    }

    #[test]
    fn negative_values_handled() {
        let input = Tensor::filled(Shape3::new(1, 2, 2), -5.0f32);
        let layer = MaxPoolLayer::new(input.shape(), &PoolSpec { size: 2, stride: 2 }).unwrap();
        let out = layer.forward(&input).unwrap();
        assert_eq!(out.at(0, 0, 0), -5.0);
    }

    #[test]
    fn ops_accounting() {
        let layer =
            MaxPoolLayer::new(Shape3::new(16, 416, 416), &PoolSpec { size: 2, stride: 2 }).unwrap();
        assert_eq!(layer.ops_per_frame(), 173_056); // Table I row 2
    }

    #[test]
    fn zero_geometry_rejected() {
        assert!(MaxPoolLayer::new(Shape3::new(1, 4, 4), &PoolSpec { size: 0, stride: 2 }).is_err());
        assert!(MaxPoolLayer::new(Shape3::new(1, 4, 4), &PoolSpec { size: 2, stride: 0 }).is_err());
    }
}
