//! RGB image frames and the letter-boxing stage (pipeline stage #1).

use tincy_tensor::{Shape3, Tensor};

/// An RGB image with channel values in `0.0..=1.0`, stored CHW.
#[derive(Debug, Clone, PartialEq)]
pub struct Image {
    data: Tensor<f32>,
}

impl Image {
    /// Creates a solid-color image.
    pub fn filled(width: usize, height: usize, rgb: [f32; 3]) -> Self {
        let data = Tensor::from_fn(Shape3::new(3, height, width), |c, _, _| rgb[c]);
        Self { data }
    }

    /// Image width in pixels.
    pub fn width(&self) -> usize {
        self.data.shape().width
    }

    /// Image height in pixels.
    pub fn height(&self) -> usize {
        self.data.shape().height
    }

    /// The underlying CHW tensor.
    pub fn as_tensor(&self) -> &Tensor<f32> {
        &self.data
    }

    /// Consumes the image, returning the tensor.
    pub fn into_tensor(self) -> Tensor<f32> {
        self.data
    }

    /// Reads pixel `(x, y)` as RGB.
    pub fn pixel(&self, x: usize, y: usize) -> [f32; 3] {
        [
            self.data.at(0, y, x),
            self.data.at(1, y, x),
            self.data.at(2, y, x),
        ]
    }

    /// Writes pixel `(x, y)`.
    pub fn set_pixel(&mut self, x: usize, y: usize, rgb: [f32; 3]) {
        for (c, &v) in rgb.iter().enumerate() {
            *self.data.at_mut(c, y, x) = v.clamp(0.0, 1.0);
        }
    }

    /// Bilinear sample at fractional coordinates (clamped at borders): the
    /// per-sample definition [`Image::resized`] tabulates.
    #[cfg(test)]
    fn sample(&self, c: usize, x: f32, y: f32) -> f32 {
        let max_x = (self.width() - 1) as f32;
        let max_y = (self.height() - 1) as f32;
        let x = x.clamp(0.0, max_x);
        let y = y.clamp(0.0, max_y);
        let (x0, y0) = (x.floor() as usize, y.floor() as usize);
        let (x1, y1) = (
            (x0 + 1).min(self.width() - 1),
            (y0 + 1).min(self.height() - 1),
        );
        let (fx, fy) = (x - x0 as f32, y - y0 as f32);
        let top = self.data.at(c, y0, x0) * (1.0 - fx) + self.data.at(c, y0, x1) * fx;
        let bottom = self.data.at(c, y1, x0) * (1.0 - fx) + self.data.at(c, y1, x1) * fx;
        top * (1.0 - fy) + bottom * fy
    }

    /// Bilinear resize to an exact target size.
    pub fn resized(&self, width: usize, height: usize) -> Image {
        // A bilinear sample separates: which two source columns (rows) an
        // output column (row) blends, and how, does not depend on the
        // other coordinate. Tabulated once per axis instead of per sample.
        let taps = |out_len: usize, src_len: usize| -> Vec<(usize, usize, f32)> {
            let scale = src_len as f32 / out_len as f32;
            let last = src_len - 1;
            (0..out_len)
                .map(|o| {
                    let at = ((o as f32 + 0.5) * scale - 0.5).clamp(0.0, last as f32);
                    let i0 = at.floor() as usize;
                    (i0, (i0 + 1).min(last), at - i0 as f32)
                })
                .collect()
        };
        let columns = taps(width, self.width());
        let rows = taps(height, self.height());
        let src_width = self.width();
        let mut data = Tensor::zeros(Shape3::new(3, height, width));
        let out_rows = data.as_mut_slice().chunks_exact_mut(width.max(1));
        for (index, out_row) in out_rows.enumerate() {
            let (c, (y0, y1, fy)) = (index / height, rows[index % height]);
            let upper = &self.data.channel(c)[y0 * src_width..][..src_width];
            let lower = &self.data.channel(c)[y1 * src_width..][..src_width];
            for (out, &(x0, x1, fx)) in out_row.iter_mut().zip(&columns) {
                let top = upper[x0] * (1.0 - fx) + upper[x1] * fx;
                let bottom = lower[x0] * (1.0 - fx) + lower[x1] * fx;
                *out = top * (1.0 - fy) + bottom * fy;
            }
        }
        Image { data }
    }

    /// Darknet-style letter boxing: scales the image to fit a square target
    /// preserving aspect ratio and pads the rest with mid gray (0.5).
    pub fn letterboxed(&self, target: usize) -> Image {
        let scale = (target as f32 / self.width() as f32).min(target as f32 / self.height() as f32);
        let new_w = ((self.width() as f32 * scale) as usize).max(1);
        let new_h = ((self.height() as f32 * scale) as usize).max(1);
        let resized = self.resized(new_w, new_h);
        let off_x = (target - new_w) / 2;
        let off_y = (target - new_h) / 2;
        let mut data = Tensor::filled(Shape3::new(3, target, target), 0.5);
        let resized_rows = resized.data.as_slice().chunks_exact(new_w);
        for (index, row) in resized_rows.enumerate() {
            let (c, y) = (index / new_h, index % new_h);
            let start = (c * target + off_y + y) * target + off_x;
            data.as_mut_slice()[start..][..new_w].copy_from_slice(row);
        }
        Image { data }
    }

    /// Encodes the image as a binary PPM (P6) byte stream.
    pub fn to_ppm(&self) -> Vec<u8> {
        let mut out = format!("P6\n{} {}\n255\n", self.width(), self.height()).into_bytes();
        for y in 0..self.height() {
            for x in 0..self.width() {
                for v in self.pixel(x, y) {
                    out.push((v.clamp(0.0, 1.0) * 255.0).round() as u8);
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fill_and_pixel_access() {
        let mut img = Image::filled(4, 3, [0.2, 0.4, 0.6]);
        assert_eq!(img.width(), 4);
        assert_eq!(img.height(), 3);
        assert_eq!(img.pixel(1, 1), [0.2, 0.4, 0.6]);
        img.set_pixel(0, 0, [1.5, -0.5, 0.5]);
        assert_eq!(img.pixel(0, 0), [1.0, 0.0, 0.5]);
    }

    #[test]
    fn resize_preserves_constant_image() {
        let img = Image::filled(10, 6, [0.3, 0.3, 0.3]);
        let small = img.resized(5, 3);
        assert_eq!(small.width(), 5);
        assert!(small
            .as_tensor()
            .as_slice()
            .iter()
            .all(|&v| (v - 0.3).abs() < 1e-6));
    }

    #[test]
    fn tabulated_resize_is_the_per_sample_definition_to_the_bit() {
        // Odd sizes, up- and down-scaling, and one-pixel sources.
        let mut seed = 0x2545_f491_4f6c_dd1d_u64;
        for (w, h) in [(1, 1), (1, 7), (5, 1), (7, 5), (13, 9), (32, 24)] {
            let data = Tensor::from_fn(Shape3::new(3, h, w), |_, _, _| {
                seed ^= seed << 13;
                seed ^= seed >> 7;
                seed ^= seed << 17;
                (seed >> 40) as f32 / (1u32 << 24) as f32
            });
            let image = Image { data };
            for (width, height) in [
                (1, 1),
                (3, 11),
                (9, 4),
                (w, h),
                (2 * w + 1, 3 * h),
                (64, 48),
            ] {
                let (sx, sy) = (w as f32 / width as f32, h as f32 / height as f32);
                let resized = image.resized(width, height);
                assert_eq!((resized.width(), resized.height()), (width, height));
                for c in 0..3 {
                    for y in 0..height {
                        for x in 0..width {
                            let expected = image.sample(
                                c,
                                (x as f32 + 0.5) * sx - 0.5,
                                (y as f32 + 0.5) * sy - 0.5,
                            );
                            assert_eq!(
                                resized.as_tensor().at(c, y, x).to_bits(),
                                expected.to_bits(),
                                "{w}x{h} -> {width}x{height} at ({c},{y},{x})"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn letterbox_places_the_resized_image_in_gray() {
        let data = Tensor::from_fn(Shape3::new(3, 5, 9), |c, y, x| {
            (c * 45 + y * 9 + x) as f32 / 135.0
        });
        let image = Image { data };
        for target in [4, 9, 16, 31] {
            let boxed = image.letterboxed(target);
            let scale = (target as f32 / 9.0).min(target as f32 / 5.0);
            let (new_w, new_h) = (
                ((9.0 * scale) as usize).max(1),
                ((5.0 * scale) as usize).max(1),
            );
            let resized = image.resized(new_w, new_h);
            let (off_x, off_y) = ((target - new_w) / 2, (target - new_h) / 2);
            for c in 0..3 {
                for y in 0..target {
                    for x in 0..target {
                        let inside = (off_y..off_y + new_h).contains(&y)
                            && (off_x..off_x + new_w).contains(&x);
                        let expected = if inside {
                            resized.as_tensor().at(c, y - off_y, x - off_x)
                        } else {
                            0.5
                        };
                        assert_eq!(
                            boxed.as_tensor().at(c, y, x).to_bits(),
                            expected.to_bits(),
                            "target {target} at ({c},{y},{x})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn letterbox_pads_with_gray() {
        // Wide image: vertical bars of padding above and below.
        let img = Image::filled(8, 4, [1.0, 0.0, 0.0]);
        let boxed = img.letterboxed(8);
        assert_eq!(boxed.width(), 8);
        assert_eq!(boxed.height(), 8);
        assert_eq!(boxed.pixel(0, 0), [0.5, 0.5, 0.5]); // padding
        assert_eq!(boxed.pixel(4, 4), [1.0, 0.0, 0.0]); // content
        assert_eq!(boxed.pixel(0, 7), [0.5, 0.5, 0.5]); // padding
    }

    #[test]
    fn letterbox_square_input_has_no_padding() {
        let img = Image::filled(6, 6, [0.0, 1.0, 0.0]);
        let boxed = img.letterboxed(12);
        for y in 0..12 {
            for x in 0..12 {
                assert_eq!(boxed.pixel(x, y), [0.0, 1.0, 0.0], "({x},{y})");
            }
        }
    }

    #[test]
    fn ppm_header_and_size() {
        let img = Image::filled(2, 2, [0.0, 0.5, 1.0]);
        let ppm = img.to_ppm();
        assert!(ppm.starts_with(b"P6\n2 2\n255\n"));
        assert_eq!(ppm.len(), 11 + 12);
        assert_eq!(ppm[11..14], [0, 128, 255]);
    }
}
