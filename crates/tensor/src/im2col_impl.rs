//! The `im2col` lowering of convolution to matrix multiplication (§I).
//!
//! The multiplicand matrix has one *column* per kernel application footprint
//! and one *row* per footprint element: its shape is `(K²·C) × (H_out·W_out)`.
//! With a small kernel at stride one the footprints overlap and the lowering
//! inflates the input volume by roughly `K²` — the memory cost that motivates
//! the fused, sliced implementation of §III-D, provided here as
//! [`Im2colSlices`].

use crate::{ConvGeom, Mat, Shape3, Tensor, TensorError};

/// Shape `(rows, cols)` of the `im2col` multiplicand for `input` and `geom`.
pub fn im2col_shape(input: Shape3, geom: ConvGeom) -> (usize, usize) {
    let out_h = geom.output_extent(input.height);
    let out_w = geom.output_extent(input.width);
    (geom.dot_length(input.channels), out_h * out_w)
}

/// Builds the explicit `im2col` multiplicand matrix.
///
/// Row order is channel-major, then kernel row, then kernel column, matching
/// the linearization used for the weight matrix rows.
///
/// # Errors
///
/// Returns [`TensorError::IncompatibleGeometry`] if `geom` cannot be applied
/// to the input shape.
///
/// # Example
///
/// ```
/// use tincy_tensor::{im2col, ConvGeom, Shape3, Tensor};
///
/// let input = Tensor::from_fn(Shape3::new(1, 3, 3), |_, y, x| (y * 3 + x) as f32);
/// let cols = im2col(&input, ConvGeom::new(2, 1, 0))?;
/// assert_eq!((cols.rows(), cols.cols()), (4, 4));
/// // First column is the top-left 2x2 footprint.
/// assert_eq!(
///     (0..4).map(|r| cols.at(r, 0)).collect::<Vec<_>>(),
///     vec![0.0, 1.0, 3.0, 4.0]
/// );
/// # Ok::<(), tincy_tensor::TensorError>(())
/// ```
pub fn im2col<T: Copy + Default>(input: &Tensor<T>, geom: ConvGeom) -> Result<Mat<T>, TensorError> {
    im2col_with_pad(input, geom, T::default())
}

/// [`im2col`] with an explicit padding value.
///
/// Quantized feature maps must pad with their *zero point* rather than the
/// numeric zero byte, since the byte 0 generally encodes a nonzero real
/// value in an affine quantization.
///
/// # Errors
///
/// Returns [`TensorError::IncompatibleGeometry`] if `geom` cannot be applied
/// to the input shape.
pub fn im2col_with_pad<T: Copy + Default>(
    input: &Tensor<T>,
    geom: ConvGeom,
    pad_value: T,
) -> Result<Mat<T>, TensorError> {
    geom.validate(input.shape())?;
    let shape = input.shape();
    let (rows, cols) = im2col_shape(shape, geom);
    let out_w = geom.output_extent(shape.width);
    let mut mat = Mat::zeros(rows, cols);
    for c in 0..shape.channels {
        for ky in 0..geom.kernel {
            for kx in 0..geom.kernel {
                let row = (c * geom.kernel + ky) * geom.kernel + kx;
                let dst = mat.row_mut(row);
                for (col, slot) in dst.iter_mut().enumerate() {
                    let oy = col / out_w;
                    let ox = col % out_w;
                    let iy = (oy * geom.stride + ky) as isize - geom.pad as isize;
                    let ix = (ox * geom.stride + kx) as isize - geom.pad as isize;
                    *slot = at_or(input, c, iy, ix, pad_value);
                }
            }
        }
    }
    Ok(mat)
}

/// Reads `(c, y, x)` or returns `pad_value` for out-of-bounds coordinates.
#[inline]
fn at_or<T: Copy>(input: &Tensor<T>, c: usize, y: isize, x: isize, pad_value: T) -> T {
    let shape = input.shape();
    if y < 0 || x < 0 || y as usize >= shape.height || x as usize >= shape.width {
        pad_value
    } else {
        input.at(c, y as usize, x as usize)
    }
}

/// Scatters a column matrix back onto a feature map, accumulating overlaps.
///
/// This is the adjoint of [`im2col`] and is used by the training crate for
/// the convolution backward pass.
///
/// # Errors
///
/// Returns [`TensorError::LengthMismatch`] if `cols` does not have the
/// `im2col` shape for `(output_shape, geom)`.
pub fn col2im_accumulate(
    cols: &Mat<f32>,
    output_shape: Shape3,
    geom: ConvGeom,
) -> Result<Tensor<f32>, TensorError> {
    let (rows, n) = im2col_shape(output_shape, geom);
    if cols.rows() != rows || cols.cols() != n {
        return Err(TensorError::LengthMismatch {
            expected: rows * n,
            actual: cols.rows() * cols.cols(),
        });
    }
    let out_w = geom.output_extent(output_shape.width);
    let mut out = Tensor::zeros(output_shape);
    for c in 0..output_shape.channels {
        for ky in 0..geom.kernel {
            for kx in 0..geom.kernel {
                let row = (c * geom.kernel + ky) * geom.kernel + kx;
                let src = cols.row(row);
                for (col, &v) in src.iter().enumerate() {
                    let oy = col / out_w;
                    let ox = col % out_w;
                    let iy = (oy * geom.stride + ky) as isize - geom.pad as isize;
                    let ix = (ox * geom.stride + kx) as isize - geom.pad as isize;
                    if iy >= 0
                        && ix >= 0
                        && (iy as usize) < output_shape.height
                        && (ix as usize) < output_shape.width
                    {
                        *out.at_mut(c, iy as usize, ix as usize) += v;
                    }
                }
            }
        }
    }
    Ok(out)
}

/// Iterator over vertical slices of the `im2col` multiplicand (§III-D).
///
/// Instead of materializing the whole `(K²·C) × (H_out·W_out)` matrix, the
/// fused NEON implementation produces it in vertical slices whose width
/// matches the vector lane count, re-using the same storage for every slice.
/// Each call to [`Im2colSlices::next_slice`] fills the internal buffer with
/// the next `width ≤ slice_width` columns and returns `(start_col, width)`.
#[derive(Debug)]
pub struct Im2colSlices<'a, T> {
    input: &'a Tensor<T>,
    geom: ConvGeom,
    slice_width: usize,
    rows: usize,
    total_cols: usize,
    out_w: usize,
    next_col: usize,
    /// Row-major buffer of `rows × slice_width`, re-used across slices.
    buffer: Vec<T>,
}

impl<'a, T: Copy + Default> Im2colSlices<'a, T> {
    /// Creates a slice iterator with the given slice width (vector lanes).
    /// Border taps read `T::default()`, as in [`im2col`].
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IncompatibleGeometry`] if `geom` cannot be
    /// applied to the input, or if `slice_width` is zero.
    pub fn new(
        input: &'a Tensor<T>,
        geom: ConvGeom,
        slice_width: usize,
    ) -> Result<Self, TensorError> {
        geom.validate(input.shape())?;
        if slice_width == 0 {
            return Err(TensorError::IncompatibleGeometry {
                what: "slice width must be nonzero".to_owned(),
            });
        }
        let (rows, total_cols) = im2col_shape(input.shape(), geom);
        Ok(Self {
            input,
            geom,
            slice_width,
            rows,
            total_cols,
            out_w: geom.output_extent(input.shape().width),
            next_col: 0,
            buffer: vec![T::default(); rows * slice_width],
        })
    }

    /// Number of rows of the multiplicand (`K²·C`).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Total number of columns (`H_out·W_out`).
    pub fn total_cols(&self) -> usize {
        self.total_cols
    }

    /// Fills the internal buffer with the next slice.
    ///
    /// Returns `Some((start_col, width))` while columns remain, then `None`.
    /// The slice contents are readable through [`Self::row`].
    pub fn next_slice(&mut self) -> Option<(usize, usize)> {
        if self.next_col >= self.total_cols {
            return None;
        }
        let start = self.next_col;
        let width = self.slice_width.min(self.total_cols - start);
        let shape = self.input.shape();
        for c in 0..shape.channels {
            for ky in 0..self.geom.kernel {
                for kx in 0..self.geom.kernel {
                    let row = (c * self.geom.kernel + ky) * self.geom.kernel + kx;
                    let base = row * self.slice_width;
                    for i in 0..width {
                        let col = start + i;
                        let oy = col / self.out_w;
                        let ox = col % self.out_w;
                        let iy = (oy * self.geom.stride + ky) as isize - self.geom.pad as isize;
                        let ix = (ox * self.geom.stride + kx) as isize - self.geom.pad as isize;
                        self.buffer[base + i] = at_or(self.input, c, iy, ix, T::default());
                    }
                }
            }
        }
        self.next_col += width;
        Some((start, width))
    }

    /// One row of the current slice (length = `slice_width`; only the width
    /// reported by the last [`Self::next_slice`] call is meaningful).
    pub fn row(&self, row: usize) -> &[T] {
        &self.buffer[row * self.slice_width..(row + 1) * self.slice_width]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_input() -> Tensor<f32> {
        Tensor::from_fn(Shape3::new(2, 4, 4), |c, y, x| {
            (c * 100 + y * 10 + x) as f32
        })
    }

    #[test]
    fn shape_matches_inflation_formula() {
        // §I: stride-1 "same" conv inflates the data volume by ~K².
        let input = Shape3::new(16, 416, 416);
        let (rows, cols) = im2col_shape(input, ConvGeom::same(3, 1));
        assert_eq!(rows, 9 * 16);
        assert_eq!(cols, 416 * 416);
        assert_eq!(rows * cols, input.volume() * 9);
    }

    #[test]
    fn explicit_columns_are_footprints() {
        let input = sample_input();
        let cols = im2col(&input, ConvGeom::new(3, 1, 0)).unwrap();
        assert_eq!((cols.rows(), cols.cols()), (18, 4));
        // Column 3 = footprint at output (1, 1): input rows 1..4, cols 1..4.
        let footprint: Vec<f32> = (0..9).map(|r| cols.at(r, 3)).collect();
        assert_eq!(footprint, vec![11., 12., 13., 21., 22., 23., 31., 32., 33.]);
        // Channel 1 occupies rows 9..18.
        assert_eq!(cols.at(9, 3), 111.0);
    }

    #[test]
    fn padding_produces_zeros() {
        let input = sample_input();
        let cols = im2col(&input, ConvGeom::same(3, 1)).unwrap();
        // Output (0,0), kernel element (0,0) reads input (-1,-1) => 0.
        assert_eq!(cols.at(0, 0), 0.0);
        // Kernel element (1,1) reads input (0,0).
        assert_eq!(cols.at(4, 0), 0.0); // value at input (0,0) is 0 anyway
        assert_eq!(cols.at(5, 0), 1.0); // kernel (1,2) reads input (0,1)
    }

    #[test]
    fn sliced_equals_explicit() {
        let input = sample_input();
        for geom in [
            ConvGeom::new(3, 1, 0),
            ConvGeom::same(3, 2),
            ConvGeom::new(2, 2, 0),
        ] {
            let explicit = im2col(&input, geom).unwrap();
            for slice_width in [1, 2, 3, 4, 7, 64] {
                let mut slices = Im2colSlices::new(&input, geom, slice_width).unwrap();
                while let Some((start, width)) = slices.next_slice() {
                    for r in 0..slices.rows() {
                        for i in 0..width {
                            assert_eq!(
                                slices.row(r)[i],
                                explicit.at(r, start + i),
                                "geom {geom:?} slice_width {slice_width} row {r} col {}",
                                start + i
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn slices_cover_all_columns_once() {
        let input = sample_input();
        let mut slices = Im2colSlices::new(&input, ConvGeom::same(3, 1), 5).unwrap();
        let mut seen = 0;
        while let Some((start, width)) = slices.next_slice() {
            assert_eq!(start, seen);
            seen += width;
        }
        assert_eq!(seen, slices.total_cols());
    }

    #[test]
    fn zero_slice_width_rejected() {
        let input = sample_input();
        assert!(Im2colSlices::new(&input, ConvGeom::same(3, 1), 0).is_err());
    }

    #[test]
    fn col2im_is_adjoint_of_im2col_on_ones() {
        // Scattering a matrix of ones counts how many footprints cover each
        // input element.
        let shape = Shape3::new(1, 3, 3);
        let geom = ConvGeom::new(2, 1, 0);
        let (rows, cols) = im2col_shape(shape, geom);
        let ones = Mat::from_fn(rows, cols, |_, _| 1.0f32);
        let cover = col2im_accumulate(&ones, shape, geom).unwrap();
        // Centre element is covered by all 4 footprints.
        assert_eq!(cover.at(0, 1, 1), 4.0);
        assert_eq!(cover.at(0, 0, 0), 1.0);
        assert_eq!(cover.at(0, 0, 1), 2.0);
    }

    #[test]
    fn col2im_rejects_wrong_shape() {
        let shape = Shape3::new(1, 3, 3);
        let geom = ConvGeom::new(2, 1, 0);
        let wrong = Mat::zeros(3, 3);
        assert!(col2im_accumulate(&wrong, shape, geom).is_err());
    }
}
