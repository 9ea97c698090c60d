/// An axis-aligned bounding box in center format, in relative image
/// coordinates (`0.0..=1.0` for boxes inside the image).
///
/// # Example
///
/// ```
/// use tincy_eval::BBox;
///
/// let a = BBox::new(0.5, 0.5, 0.4, 0.4);
/// assert!((a.iou(&a) - 1.0).abs() < 1e-6);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct BBox {
    /// Center x.
    pub x: f32,
    /// Center y.
    pub y: f32,
    /// Width.
    pub w: f32,
    /// Height.
    pub h: f32,
}

impl BBox {
    /// Creates a box from center coordinates and extents.
    pub const fn new(x: f32, y: f32, w: f32, h: f32) -> Self {
        Self { x, y, w, h }
    }

    /// Creates a box from corner coordinates.
    pub fn from_corners(x0: f32, y0: f32, x1: f32, y1: f32) -> Self {
        Self {
            x: (x0 + x1) / 2.0,
            y: (y0 + y1) / 2.0,
            w: x1 - x0,
            h: y1 - y0,
        }
    }

    /// Left edge.
    pub fn left(&self) -> f32 {
        self.x - self.w / 2.0
    }

    /// Right edge.
    pub fn right(&self) -> f32 {
        self.x + self.w / 2.0
    }

    /// Top edge.
    pub fn top(&self) -> f32 {
        self.y - self.h / 2.0
    }

    /// Bottom edge.
    pub fn bottom(&self) -> f32 {
        self.y + self.h / 2.0
    }

    /// Box area (zero for degenerate boxes).
    pub fn area(&self) -> f32 {
        (self.w.max(0.0)) * (self.h.max(0.0))
    }

    /// Intersection area with another box.
    ///
    /// Clamped to `min(self.area(), other.area())` so that floating-point
    /// rounding can never report an intersection exceeding a member box
    /// (which would drive IoU above 1).
    pub fn intersection(&self, other: &BBox) -> f32 {
        Extent::of(self).intersection(&Extent::of(other))
    }

    /// Intersection over union with another box; zero when both are
    /// degenerate.
    pub fn iou(&self, other: &BBox) -> f32 {
        Extent::of(self).iou(&Extent::of(other))
    }
}

/// A box's edges and area, computed once: what [`BBox::iou`] reads of
/// each box, for callers that pair one box with many.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Extent {
    left: f32,
    right: f32,
    top: f32,
    bottom: f32,
    area: f32,
}

impl Extent {
    pub(crate) fn of(b: &BBox) -> Self {
        Self {
            left: b.left(),
            right: b.right(),
            top: b.top(),
            bottom: b.bottom(),
            area: b.area(),
        }
    }

    fn intersection(&self, other: &Extent) -> f32 {
        let iw = (self.right.min(other.right) - self.left.max(other.left)).max(0.0);
        let ih = (self.bottom.min(other.bottom) - self.top.max(other.top)).max(0.0);
        (iw * ih).min(self.area).min(other.area)
    }

    pub(crate) fn iou(&self, other: &Extent) -> f32 {
        let inter = self.intersection(other);
        let union = self.area + other.area - inter;
        if union <= 0.0 {
            0.0
        } else {
            inter / union
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_boxes_have_iou_one() {
        let b = BBox::new(0.3, 0.4, 0.2, 0.1);
        assert!((b.iou(&b) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn disjoint_boxes_have_iou_zero() {
        let a = BBox::new(0.2, 0.2, 0.2, 0.2);
        let b = BBox::new(0.8, 0.8, 0.2, 0.2);
        assert_eq!(a.iou(&b), 0.0);
    }

    #[test]
    fn half_overlap() {
        // Two unit squares sharing half their area: IoU = 1/3.
        let a = BBox::from_corners(0.0, 0.0, 1.0, 1.0);
        let b = BBox::from_corners(0.5, 0.0, 1.5, 1.0);
        assert!((a.iou(&b) - 1.0 / 3.0).abs() < 1e-6);
    }

    #[test]
    fn containment() {
        let outer = BBox::from_corners(0.0, 0.0, 1.0, 1.0);
        let inner = BBox::from_corners(0.25, 0.25, 0.75, 0.75);
        assert!((outer.iou(&inner) - 0.25).abs() < 1e-6);
        assert_eq!(outer.intersection(&inner), inner.area());
    }

    #[test]
    fn iou_is_symmetric() {
        let a = BBox::new(0.3, 0.3, 0.4, 0.5);
        let b = BBox::new(0.5, 0.4, 0.3, 0.3);
        assert!((a.iou(&b) - b.iou(&a)).abs() < 1e-7);
    }

    /// `nms` computes each pair's overlap once and reads it in both
    /// orders, so IoU must be symmetric in value, NaN included, on every
    /// box: here every box whose fields are drawn from signed zeros, a
    /// subnormal, infinities, NaN and an ordinary value.
    #[test]
    fn iou_is_symmetric_in_value_on_special_values() {
        let centres = [f32::NAN, -0.0, 0.0, 0.5, f32::INFINITY];
        let extents = [f32::NAN, -0.0, 1e-40, 0.25, f32::INFINITY];
        let mut boxes = Vec::new();
        for x in centres {
            for y in [f32::NEG_INFINITY, 0.0, 0.5] {
                for w in extents {
                    for h in extents {
                        boxes.push(BBox::new(x, y, w, h));
                    }
                }
            }
        }
        for a in &boxes {
            for b in &boxes {
                let (ab, ba) = (a.iou(b), b.iou(a));
                assert!(
                    ab == ba || (ab.is_nan() && ba.is_nan()),
                    "{a:?} {b:?}: {ab} {ba}"
                );
            }
        }
    }

    #[test]
    fn degenerate_boxes() {
        let zero = BBox::new(0.5, 0.5, 0.0, 0.0);
        assert_eq!(zero.area(), 0.0);
        assert_eq!(zero.iou(&zero), 0.0);
        let neg = BBox::new(0.5, 0.5, -0.1, 0.2);
        assert_eq!(neg.area(), 0.0);
    }

    #[test]
    fn corner_round_trip() {
        let b = BBox::from_corners(0.1, 0.2, 0.5, 0.8);
        assert!((b.left() - 0.1).abs() < 1e-6);
        assert!((b.top() - 0.2).abs() < 1e-6);
        assert!((b.right() - 0.5).abs() < 1e-6);
        assert!((b.bottom() - 0.8).abs() < 1e-6);
    }
}
