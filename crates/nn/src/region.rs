//! The YOLO region (detection head) layer.
//!
//! Tiny/Tincy YOLO end in a 1×1 convolution producing `num·(5+classes)`
//! channels per 13×13 grid cell (125 for VOC: 5 anchors × (4 box + 1
//! objectness + 20 classes)). The region layer activates those raw values
//! and decodes them into scored bounding boxes.

use crate::error::NnError;
use crate::layer::Layer;
use crate::spec::RegionSpec;
use tincy_eval::{BBox, Detection};
use tincy_tensor::{Shape3, Tensor};

/// Region head parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct RegionParams {
    /// Number of object classes.
    pub classes: usize,
    /// Number of anchors per cell.
    pub num: usize,
    /// Anchor priors `(w, h)` in grid-cell units.
    pub anchors: Vec<(f32, f32)>,
}

impl RegionParams {
    /// Channels expected on the input feature map.
    pub fn expected_channels(&self) -> usize {
        self.num * (5 + self.classes)
    }
}

impl From<&RegionSpec> for RegionParams {
    fn from(spec: &RegionSpec) -> Self {
        Self {
            classes: spec.classes,
            num: spec.num,
            anchors: spec.anchors.clone(),
        }
    }
}

/// The region layer: activates raw head outputs (logistic on x/y/objectness,
/// softmax over classes) and decodes detections.
#[derive(Debug, Clone)]
pub struct RegionLayer {
    shape: Shape3,
    params: RegionParams,
}

#[inline]
fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

impl RegionLayer {
    /// Creates a region layer.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidSpec`] if the input channel count or anchor
    /// list does not match the parameters.
    pub fn new(in_shape: Shape3, params: RegionParams) -> Result<Self, NnError> {
        if in_shape.channels != params.expected_channels() {
            return Err(NnError::InvalidSpec {
                what: format!(
                    "region layer expects {} channels, got {}",
                    params.expected_channels(),
                    in_shape.channels
                ),
            });
        }
        if params.anchors.len() != params.num {
            return Err(NnError::InvalidSpec {
                what: format!("{} anchors for num={}", params.anchors.len(), params.num),
            });
        }
        Ok(Self {
            shape: in_shape,
            params,
        })
    }

    /// The head parameters.
    pub fn params(&self) -> &RegionParams {
        &self.params
    }

    /// Decodes an *activated* output map (as produced by
    /// [`Layer::forward`]) into detections with `score ≥ threshold`.
    ///
    /// Scores are `objectness × class probability`; box coordinates are
    /// relative to the image.
    pub fn decode(&self, activated: &Tensor<f32>, threshold: f32) -> Vec<Detection> {
        let (gw, gh) = (self.shape.width, self.shape.height);
        let stride = 5 + self.params.classes;
        let mut detections = Vec::new();
        for a in 0..self.params.num {
            let base = a * stride;
            let (aw, ah) = self.params.anchors[a];
            for gy in 0..gh {
                for gx in 0..gw {
                    let objectness = activated.at(base + 4, gy, gx);
                    if objectness <= 0.0 {
                        continue;
                    }
                    let bx = (gx as f32 + activated.at(base, gy, gx)) / gw as f32;
                    let by = (gy as f32 + activated.at(base + 1, gy, gx)) / gh as f32;
                    let bw = aw * activated.at(base + 2, gy, gx).exp() / gw as f32;
                    let bh = ah * activated.at(base + 3, gy, gx).exp() / gh as f32;
                    for class in 0..self.params.classes {
                        let score = objectness * activated.at(base + 5 + class, gy, gx);
                        if score >= threshold {
                            detections.push(Detection::new(
                                BBox::new(bx, by, bw, bh),
                                class,
                                score,
                            ));
                        }
                    }
                }
            }
        }
        detections
    }
}

impl Layer for RegionLayer {
    fn kind(&self) -> &'static str {
        "region"
    }

    fn input_shape(&self) -> Shape3 {
        self.shape
    }

    fn output_shape(&self) -> Shape3 {
        self.shape
    }

    fn forward(&self, input: &Tensor<f32>) -> Result<Tensor<f32>, NnError> {
        self.check_input(input)?;
        let mut out = input.clone();
        let stride = 5 + self.params.classes;
        let (gw, gh) = (self.shape.width, self.shape.height);
        for a in 0..self.params.num {
            let base = a * stride;
            for gy in 0..gh {
                for gx in 0..gw {
                    // Logistic on x, y offsets and objectness.
                    for ch in [base, base + 1, base + 4] {
                        let v = out.at(ch, gy, gx);
                        *out.at_mut(ch, gy, gx) = sigmoid(v);
                    }
                    // Softmax over the class logits.
                    let max_logit = (0..self.params.classes)
                        .map(|c| input.at(base + 5 + c, gy, gx))
                        .fold(f32::NEG_INFINITY, f32::max);
                    let mut sum = 0.0;
                    for c in 0..self.params.classes {
                        let e = (input.at(base + 5 + c, gy, gx) - max_logit).exp();
                        *out.at_mut(base + 5 + c, gy, gx) = e;
                        sum += e;
                    }
                    for c in 0..self.params.classes {
                        *out.at_mut(base + 5 + c, gy, gx) /= sum;
                    }
                }
            }
        }
        Ok(out)
    }

    fn ops_per_frame(&self) -> u64 {
        0 // Matching the paper's accounting: the head is negligible.
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> RegionParams {
        RegionParams {
            classes: 3,
            num: 2,
            anchors: vec![(1.0, 1.0), (2.0, 2.0)],
        }
    }

    fn layer() -> RegionLayer {
        RegionLayer::new(Shape3::new(16, 2, 2), params()).unwrap()
    }

    #[test]
    fn channel_validation() {
        assert!(RegionLayer::new(Shape3::new(15, 2, 2), params()).is_err());
        assert!(RegionLayer::new(Shape3::new(16, 2, 2), params()).is_ok());
    }

    #[test]
    fn forward_applies_logistic_and_softmax() {
        let l = layer();
        let input = Tensor::filled(Shape3::new(16, 2, 2), 0.0f32);
        let out = l.forward(&input).unwrap();
        // sigmoid(0) = 0.5 on x, y, objectness.
        assert!((out.at(0, 0, 0) - 0.5).abs() < 1e-6);
        assert!((out.at(4, 0, 0) - 0.5).abs() < 1e-6);
        // Uniform logits -> uniform class distribution.
        assert!((out.at(5, 0, 0) - 1.0 / 3.0).abs() < 1e-6);
        let class_sum: f32 = (0..3).map(|c| out.at(5 + c, 0, 0)).sum();
        assert!((class_sum - 1.0).abs() < 1e-6);
    }

    #[test]
    fn decode_produces_expected_box() {
        let l = layer();
        let mut input = Tensor::filled(Shape3::new(16, 2, 2), -20.0f32);
        // Anchor 0 at cell (0, 0): strong objectness, class 1 dominant.
        *input.at_mut(0, 0, 0) = 0.0; // tx -> sigmoid 0.5
        *input.at_mut(1, 0, 0) = 0.0; // ty
        *input.at_mut(2, 0, 0) = 0.0; // tw -> exp 1
        *input.at_mut(3, 0, 0) = 0.0; // th
        *input.at_mut(4, 0, 0) = 10.0; // objectness -> ~1
        *input.at_mut(6, 0, 0) = 10.0; // class 1 logit
        let out = l.forward(&input).unwrap();
        let dets = l.decode(&out, 0.5);
        assert_eq!(dets.len(), 1);
        let d = dets[0];
        assert_eq!(d.class, 1);
        assert!(d.score > 0.9);
        // Center at (0 + 0.5)/2 = 0.25; size anchor 1 cell / 2 cells = 0.5.
        assert!((d.bbox.x - 0.25).abs() < 1e-5);
        assert!((d.bbox.y - 0.25).abs() < 1e-5);
        assert!((d.bbox.w - 0.5).abs() < 1e-5);
    }

    #[test]
    fn decode_threshold_filters() {
        let l = layer();
        let input = Tensor::filled(Shape3::new(16, 2, 2), 0.0f32);
        let out = l.forward(&input).unwrap();
        // All scores are 0.5 * 1/3 = 1/6 — below 0.5.
        assert!(l.decode(&out, 0.5).is_empty());
        // With a tiny threshold all cells × anchors × classes fire.
        assert_eq!(l.decode(&out, 0.01).len(), 2 * 2 * 2 * 3);
    }

    #[test]
    fn voc_head_geometry() {
        // The paper's output geometry: 13x13x125 (Fig 4).
        let params = RegionParams {
            classes: 20,
            num: 5,
            anchors: vec![
                (1.08, 1.19),
                (3.42, 4.41),
                (6.63, 11.38),
                (9.42, 5.11),
                (16.62, 10.52),
            ],
        };
        assert_eq!(params.expected_channels(), 125);
        assert!(RegionLayer::new(Shape3::new(125, 13, 13), params).is_ok());
    }
}
