use crate::bbox::Extent;
use crate::{BBox, Detection};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

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
pub fn nms(detections: Vec<Detection>, iou_threshold: f32) -> Vec<Detection> {
    // A decoder emits one candidate per (box, class) above its threshold,
    // a box's candidates in a run: each run is one box here. The same box
    // in two runs is two boxes, only remembered twice.
    let mut boxes: Vec<BBox> = Vec::new();
    let ids: Vec<u32> = detections
        .iter()
        .map(|det| {
            if boxes
                .last()
                .is_none_or(|last| bits(last) != bits(&det.bbox))
            {
                boxes.push(det.bbox);
            }
            u32::try_from(boxes.len() - 1).expect("fewer than 2³² boxes")
        })
        .collect();
    // Descending score, ties in input order. The comparator of a stable
    // sort by score is a total preorder on scores that are not NaN, so
    // the order is unique; one key per detection carries it, the score
    // mapped to an integer in reverse order above the detection's
    // position, so an unstable integer sort finds it. Adding +0.0 makes
    // −0.0 the +0.0 it compares equal to. (A NaN compares equal to every
    // score, so with one there is no such order; it sorts by its bits.)
    let mut order: Vec<u64> = detections
        .iter()
        .zip(0u32..)
        .map(|(det, position)| {
            let bits = (det.score + 0.0).to_bits();
            let ascending = if bits >> 31 == 1 {
                !bits
            } else {
                bits | 1 << 31
            };
            u64::from(!ascending) << 32 | u64::from(position)
        })
        .collect();
    order.sort_unstable();
    let overlaps = Overlaps::new(&boxes, iou_threshold);
    // Only a kept box of its own class can suppress a candidate: each
    // class keeps the set of its kept boxes, one row of `kept_sets` per
    // class in order of first appearance, and a candidate is suppressed if
    // that set meets the boxes it overlaps.
    let row_words = overlaps.row_words;
    let mut class_rows: HashMap<usize, usize, Words> = HashMap::default();
    let mut kept_sets: Vec<u64> = Vec::new();
    let mut kept: Vec<Detection> = Vec::with_capacity(detections.len());
    for key in order {
        let position = key as u32 as usize;
        let (det, candidate) = (detections[position], ids[position] as usize);
        let row = *class_rows.entry(det.class).or_insert_with(|| {
            kept_sets.resize(kept_sets.len() + row_words, 0);
            kept_sets.len() / row_words - 1
        });
        let same_class = &mut kept_sets[row * row_words..][..row_words];
        let overlapping = overlaps.row(candidate);
        if same_class.iter().zip(overlapping).all(|(k, o)| k & o == 0) {
            same_class[candidate / 64] |= 1 << (candidate % 64);
            kept.push(det);
        }
    }
    kept
}

/// A box's identity: its four fields bit for bit. Two candidates with the
/// same bits have the same IoU with any box.
fn bits(b: &BBox) -> [u32; 4] {
    [b.x, b.y, b.w, b.h].map(f32::to_bits)
}

/// Whether IoU exceeds the threshold, for every pair of distinct boxes:
/// one bit row per box, each pair computed once, `d(d + 1)/2` IoUs and
/// `d²/8` bytes for `d` boxes. At input 416 the 845 boxes of a frame take
/// 845 rows of 14 words, 92 KiB.
///
/// One answer serves both orders of a pair because `a.iou(b)` and
/// `b.iou(a)` are equal as values (NaN included), so they compare the same
/// against any threshold. Each step of [`BBox::iou`] is symmetric in value:
/// `f32::min`/`max` return the non-NaN operand and may differ between the
/// orders only in the sign of a zero result; IEEE addition commutes; every
/// other operation takes the two boxes' results in the same roles in both
/// orders, and a zero's sign changes no later step's value except through
/// `0·∞`, which is NaN for either sign.
struct Overlaps {
    row_words: usize,
    rows: Vec<u64>,
}

impl Overlaps {
    fn new(boxes: &[BBox], threshold: f32) -> Self {
        let row_words = boxes.len().div_ceil(64);
        let mut rows = vec![0; boxes.len() * row_words];
        let extents: Vec<Extent> = boxes.iter().map(Extent::of).collect();
        for (j, b) in extents.iter().enumerate() {
            for (i, a) in extents[..=j].iter().enumerate() {
                if a.iou(b) > threshold {
                    rows[i * row_words + j / 64] |= 1 << (j % 64);
                    rows[j * row_words + i / 64] |= 1 << (i % 64);
                }
            }
        }
        Self { row_words, rows }
    }

    /// The boxes `boxes[i]` overlaps, as bits.
    fn row(&self, i: usize) -> &[u64] {
        &self.rows[i * self.row_words..][..self.row_words]
    }
}

/// A multiply-and-rotate hash of one word, for the class index keys
/// above: SipHash, the default, cost more per candidate than the
/// suppression test it serves.
#[derive(Default)]
struct WordHasher(u64);

type Words = BuildHasherDefault<WordHasher>;

impl Hasher for WordHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.write_u64(u64::from(byte));
        }
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    fn write_usize(&mut self, word: usize) {
        self.write_u64(word as u64);
    }
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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// What a decoder emits: each box once per class above the
        /// threshold, box after box, so boxes repeat across classes and
        /// `nms` remembers their overlaps once.
        #[test]
        fn box_major_candidates_decide_as_the_all_classes_scan(
            boxes in proptest::collection::vec(
                (0.4f32..0.6, 0.4f32..0.6, 0.05f32..0.3, 0.05f32..0.3, 0u32..1 << 20),
                0..40,
            ),
            classes in 1usize..=20,
            threshold in prop_oneof![Just(0.0f32), Just(0.3), Just(0.45), Just(0.9), Just(1.0)],
        ) {
            let mut detections = Vec::new();
            for (x, y, w, h, draw) in boxes {
                for class in 0..classes {
                    // Some classes below the threshold; scores from a few
                    // values, so many tie.
                    let score = (draw >> class) % 5;
                    if score > 0 {
                        let bbox = BBox::new(x, y, w, h);
                        detections.push(Detection::new(bbox, class, score as f32 * 0.25));
                    }
                }
            }
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
