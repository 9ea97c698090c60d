use crate::{BBox, Detection};
use std::collections::HashMap;

/// Greedy per-class non-maximum suppression.
///
/// Detections are processed in descending score order; a detection is kept
/// unless it overlaps an already-kept detection *of the same class* with
/// IoU above `iou_threshold`. The returned list is sorted by descending
/// score.
///
/// # Example
///
/// ```
/// use tincy_eval::{nms, BBox, Detection};
///
/// let dets = vec![
///     Detection::new(BBox::new(0.5, 0.5, 0.2, 0.2), 0, 0.9),
///     Detection::new(BBox::new(0.51, 0.5, 0.2, 0.2), 0, 0.8), // duplicate
///     Detection::new(BBox::new(0.2, 0.2, 0.1, 0.1), 0, 0.7),
/// ];
/// let kept = nms(dets, 0.5);
/// assert_eq!(kept.len(), 2);
/// ```
pub fn nms(mut detections: Vec<Detection>, iou_threshold: f32) -> Vec<Detection> {
    detections.sort_by(|a, b| {
        b.score
            .partial_cmp(&a.score)
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    // Only a kept box of its own class can suppress a candidate, so each
    // candidate scans its class's kept boxes, not every kept box.
    let mut kept_by_class: HashMap<usize, Vec<BBox>> = HashMap::new();
    let mut kept: Vec<Detection> = Vec::with_capacity(detections.len());
    for det in detections {
        let same_class = kept_by_class.entry(det.class).or_default();
        if !same_class.iter().any(|k| k.iou(&det.bbox) > iou_threshold) {
            same_class.push(det.bbox);
            kept.push(det);
        }
    }
    kept
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The all-classes scan `nms` replaced: each candidate against every
    /// kept box, the class checked per pair.
    fn nms_all_classes(mut detections: Vec<Detection>, iou_threshold: f32) -> Vec<Detection> {
        detections.sort_by(|a, b| {
            b.score
                .partial_cmp(&a.score)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let mut kept: Vec<Detection> = Vec::with_capacity(detections.len());
        for det in detections {
            let suppressed = kept
                .iter()
                .any(|k| k.class == det.class && k.bbox.iou(&det.bbox) > iou_threshold);
            if !suppressed {
                kept.push(det);
            }
        }
        kept
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Up to 20 classes, scores from a handful of values (so many
        /// tie), boxes crowded into a small square (so many overlap):
        /// the same detections survive, in the same order.
        #[test]
        fn per_class_lists_decide_as_the_all_classes_scan(
            raw in proptest::collection::vec(
                (0.4f32..0.6, 0.4f32..0.6, 0.05f32..0.3, 0.05f32..0.3, 0usize..20, 0u8..4),
                0..120,
            ),
            classes in 1usize..=20,
            threshold in prop_oneof![Just(0.0f32), Just(0.3), Just(0.45), Just(0.9), Just(1.0)],
        ) {
            let detections: Vec<Detection> = raw
                .into_iter()
                .map(|(x, y, w, h, class, score)| {
                    Detection::new(BBox::new(x, y, w, h), class % classes, f32::from(score) * 0.25)
                })
                .collect();
            prop_assert_eq!(
                nms(detections.clone(), threshold),
                nms_all_classes(detections, threshold)
            );
        }
    }

    fn det(x: f32, class: usize, score: f32) -> Detection {
        Detection::new(BBox::new(x, 0.5, 0.2, 0.2), class, score)
    }

    #[test]
    fn suppresses_lower_scored_duplicates() {
        let kept = nms(vec![det(0.50, 0, 0.6), det(0.51, 0, 0.9)], 0.5);
        assert_eq!(kept.len(), 1);
        assert_eq!(kept[0].score, 0.9);
    }

    #[test]
    fn different_classes_do_not_suppress_each_other() {
        let kept = nms(vec![det(0.5, 0, 0.9), det(0.5, 1, 0.8)], 0.5);
        assert_eq!(kept.len(), 2);
    }

    #[test]
    fn distant_boxes_survive() {
        let kept = nms(vec![det(0.2, 0, 0.9), det(0.8, 0, 0.8)], 0.5);
        assert_eq!(kept.len(), 2);
    }

    #[test]
    fn output_sorted_by_score() {
        let kept = nms(
            vec![det(0.2, 0, 0.3), det(0.8, 0, 0.9), det(0.5, 1, 0.6)],
            0.5,
        );
        let scores: Vec<f32> = kept.iter().map(|d| d.score).collect();
        assert_eq!(scores, vec![0.9, 0.6, 0.3]);
    }

    #[test]
    fn threshold_one_keeps_everything_overlapping() {
        // IoU can never exceed 1, so threshold 1.0 disables suppression.
        let kept = nms(vec![det(0.5, 0, 0.9), det(0.5, 0, 0.8)], 1.0);
        assert_eq!(kept.len(), 2);
    }

    #[test]
    fn empty_input() {
        assert!(nms(vec![], 0.5).is_empty());
    }
}
