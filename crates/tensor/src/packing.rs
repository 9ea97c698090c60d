//! Bit-packed containers for aggressively quantized data (§I, §III-A).
//!
//! Tincy YOLO's hidden layers use *binary* weights (−1/+1) and *3-bit*
//! feature-map values. On the accelerator both are processed as packed bit
//! vectors: a binary weight row is one bitmask (bit set ⇔ weight +1), and a
//! 3-bit activation vector is decomposed into three bitplanes so that the
//! signed dot product reduces to XNOR-popcount arithmetic per plane.

use crate::TensorError;

const WORD_BITS: usize = 64;

/// A 2-D bit matrix with 64-bit word-aligned rows.
///
/// Bit `(r, c)` set means the binary weight at that position is **+1**;
/// clear means **−1**. Rows are padded with zero bits to a word boundary so
/// that popcount kernels can operate on whole words; the padding never
/// contributes because activation planes carry matching zero padding.
///
/// # Example
///
/// ```
/// use tincy_tensor::BitTensor;
///
/// let mut w = BitTensor::zeros(2, 70);
/// w.set(1, 69, true);
/// assert!(w.get(1, 69));
/// assert_eq!(w.row_words(1).len(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitTensor {
    rows: usize,
    cols: usize,
    words_per_row: usize,
    data: Vec<u64>,
}

impl BitTensor {
    /// Creates an all-clear bit matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        let words_per_row = cols.div_ceil(WORD_BITS).max(1);
        Self {
            rows,
            cols,
            words_per_row,
            data: vec![0; rows * words_per_row],
        }
    }

    /// Builds a bit matrix from signed weights: positive ⇒ bit set.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] if `signs.len() != rows*cols`.
    pub fn from_signs(rows: usize, cols: usize, signs: &[i8]) -> Result<Self, TensorError> {
        if signs.len() != rows * cols {
            return Err(TensorError::LengthMismatch {
                expected: rows * cols,
                actual: signs.len(),
            });
        }
        let mut out = Self::zeros(rows, cols);
        let words_per_row = out.words_per_row;
        let rows = signs
            .chunks_exact(cols.max(1))
            .zip(out.data.chunks_exact_mut(words_per_row));
        for (row_signs, row_words) in rows {
            // Branch-free, one word at a time: weight signs are as good as
            // random, and a model holds millions of them.
            for (chunk, word) in row_signs.chunks(WORD_BITS).zip(row_words) {
                for (bit, &sign) in chunk.iter().enumerate() {
                    *word |= u64::from(sign > 0) << bit;
                }
            }
        }
        Ok(out)
    }

    /// Wraps already packed rows: `data` holds `rows` rows of
    /// [`BitTensor::words_per_row`] words each, bit `c % 64` of word
    /// `c / 64` being column `c`, as [`BitTensor::row_words`] returns them.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] if `data` does not hold
    /// `rows` whole rows, and [`TensorError::InvalidShape`] if a row sets a
    /// padding bit past `cols`: the popcount kernels count whole words.
    pub fn from_words(rows: usize, cols: usize, data: Vec<u64>) -> Result<Self, TensorError> {
        let words_per_row = cols.div_ceil(WORD_BITS).max(1);
        if data.len() != rows * words_per_row {
            return Err(TensorError::LengthMismatch {
                expected: rows * words_per_row,
                actual: data.len(),
            });
        }
        let used = cols - (words_per_row - 1) * WORD_BITS;
        if used < WORD_BITS {
            let padding = !0u64 << used;
            let mut last_words = data.iter().skip(words_per_row - 1).step_by(words_per_row);
            if let Some(row) = last_words.position(|w| w & padding != 0) {
                return Err(TensorError::InvalidShape {
                    what: format!("row {row} sets padding bits past column {cols}"),
                });
            }
        }
        Ok(Self {
            rows,
            cols,
            words_per_row,
            data,
        })
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of (logical) columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of 64-bit words backing each row.
    pub fn words_per_row(&self) -> usize {
        self.words_per_row
    }

    /// Reads bit `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> bool {
        assert!(
            r < self.rows && c < self.cols,
            "bit index ({r},{c}) out of bounds"
        );
        let word = self.data[r * self.words_per_row + c / WORD_BITS];
        word >> (c % WORD_BITS) & 1 == 1
    }

    /// Writes bit `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, value: bool) {
        assert!(
            r < self.rows && c < self.cols,
            "bit index ({r},{c}) out of bounds"
        );
        let word = &mut self.data[r * self.words_per_row + c / WORD_BITS];
        let mask = 1u64 << (c % WORD_BITS);
        if value {
            *word |= mask;
        } else {
            *word &= !mask;
        }
    }

    /// The packed words of one row.
    pub fn row_words(&self, r: usize) -> &[u64] {
        &self.data[r * self.words_per_row..(r + 1) * self.words_per_row]
    }

    /// The matrix with every column `c` moved to column `dest(c)`: a
    /// re-linearization of the dot-product axis that leaves every dot
    /// product unchanged as long as the activation vector is permuted the
    /// same way. Walks the set bits of each source word, so the cost is one
    /// table look-up per `+1` weight.
    ///
    /// # Panics
    ///
    /// Panics if `dest` is not a permutation of `0..cols`.
    #[must_use]
    pub fn permute_columns(&self, dest: impl Fn(usize) -> usize) -> Self {
        let table: Vec<usize> = (0..self.cols).map(dest).collect();
        let mut hit = vec![false; self.cols];
        for &d in &table {
            assert!(
                d < self.cols && !std::mem::replace(&mut hit[d], true),
                "column map is not a permutation of 0..{}",
                self.cols
            );
        }
        let mut out = Self::zeros(self.rows, self.cols);
        let rows = self.data.chunks_exact(self.words_per_row);
        for (src, dst) in rows.zip(out.data.chunks_exact_mut(self.words_per_row)) {
            for (w, &word) in src.iter().enumerate() {
                let mut rest = word;
                while rest != 0 {
                    let d = table[w * WORD_BITS + rest.trailing_zeros() as usize];
                    dst[d / WORD_BITS] |= 1u64 << (d % WORD_BITS);
                    rest &= rest - 1;
                }
            }
        }
        out
    }

    /// The signed weight at `(r, c)`: `+1` if the bit is set, else `-1`.
    #[inline]
    pub fn sign(&self, r: usize, c: usize) -> i32 {
        if self.get(r, c) {
            1
        } else {
            -1
        }
    }

    /// Number of set bits in a row.
    pub fn row_count_ones(&self, r: usize) -> u32 {
        self.row_words(r).iter().map(|w| w.count_ones()).sum()
    }
}

/// A vector of 3-bit unsigned values stored as three bitplanes.
///
/// Value `v ∈ 0..8` at index `i` satisfies
/// `v = Σ_p 2^p · plane_p[i]`. Planes are zero-padded to 64-bit words so
/// the accelerator's popcount kernels can consume them wholesale.
///
/// # Example
///
/// ```
/// use tincy_tensor::U3Tensor;
///
/// let t = U3Tensor::from_values(&[0, 7, 5, 2])?;
/// assert_eq!(t.get(2), 5);
/// assert_eq!(t.to_values(), vec![0, 7, 5, 2]);
/// # Ok::<(), tincy_tensor::TensorError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct U3Tensor {
    len: usize,
    planes: [Vec<u64>; 3],
}

impl U3Tensor {
    /// Maximum representable value (3 bits).
    pub const MAX: u8 = 7;

    /// Creates an all-zero vector of `len` elements.
    pub fn zeros(len: usize) -> Self {
        let words = len.div_ceil(WORD_BITS).max(1);
        Self {
            len,
            planes: [vec![0; words], vec![0; words], vec![0; words]],
        }
    }

    /// Packs a slice of values.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidShape`] if any value exceeds
    /// [`U3Tensor::MAX`].
    pub fn from_values(values: &[u8]) -> Result<Self, TensorError> {
        let mut out = Self::zeros(values.len());
        for (i, &v) in values.iter().enumerate() {
            if v > Self::MAX {
                return Err(TensorError::InvalidShape {
                    what: format!("value {v} at index {i} exceeds 3-bit range"),
                });
            }
            out.set(i, v);
        }
        Ok(out)
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the vector is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Reads the value at `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    #[inline]
    pub fn get(&self, i: usize) -> u8 {
        assert!(
            i < self.len,
            "index {i} out of bounds for length {}",
            self.len
        );
        let word = i / WORD_BITS;
        let bit = i % WORD_BITS;
        let mut v = 0u8;
        for (p, plane) in self.planes.iter().enumerate() {
            v |= (((plane[word] >> bit) & 1) as u8) << p;
        }
        v
    }

    /// Writes the value at `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len` or `value > 7`.
    #[inline]
    pub fn set(&mut self, i: usize, value: u8) {
        assert!(
            i < self.len,
            "index {i} out of bounds for length {}",
            self.len
        );
        assert!(value <= Self::MAX, "value {value} exceeds 3-bit range");
        let word = i / WORD_BITS;
        let bit = i % WORD_BITS;
        for (p, plane) in self.planes.iter_mut().enumerate() {
            let mask = 1u64 << bit;
            if value >> p & 1 == 1 {
                plane[word] |= mask;
            } else {
                plane[word] &= !mask;
            }
        }
    }

    /// The packed words of bitplane `p` (0 = LSB).
    ///
    /// # Panics
    ///
    /// Panics if `p >= 3`.
    pub fn plane_words(&self, p: usize) -> &[u64] {
        &self.planes[p]
    }

    /// Unpacks into a plain byte vector.
    pub fn to_values(&self) -> Vec<u8> {
        (0..self.len).map(|i| self.get(i)).collect()
    }

    /// Memory footprint of the packed representation in bytes.
    #[cfg(test)]
    fn packed_bytes(&self) -> usize {
        self.planes.iter().map(|p| p.len() * 8).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bit_tensor_set_get_round_trip() {
        let mut t = BitTensor::zeros(3, 130);
        t.set(2, 129, true);
        t.set(0, 0, true);
        assert!(t.get(2, 129));
        assert!(t.get(0, 0));
        assert!(!t.get(1, 64));
        t.set(2, 129, false);
        assert!(!t.get(2, 129));
    }

    #[test]
    fn bit_tensor_rows_word_aligned() {
        let t = BitTensor::zeros(2, 65);
        assert_eq!(t.words_per_row(), 2);
        assert_eq!(t.row_words(1).len(), 2);
    }

    #[test]
    fn from_signs_maps_positive_to_set() {
        let t = BitTensor::from_signs(2, 3, &[1, -1, 1, -1, -1, 1]).unwrap();
        assert_eq!(t.sign(0, 0), 1);
        assert_eq!(t.sign(0, 1), -1);
        assert_eq!(t.sign(1, 2), 1);
        assert_eq!(t.row_count_ones(0), 2);
        assert_eq!(t.row_count_ones(1), 1);
    }

    #[test]
    fn from_signs_packs_rows_that_end_mid_word() {
        let (rows, cols) = (3, 130);
        let signs: Vec<i8> = (0..rows * cols)
            .map(|i| if i * 7 % 5 < 2 { 1 } else { -1 })
            .collect();
        let t = BitTensor::from_signs(rows, cols, &signs).unwrap();
        for r in 0..rows {
            for c in 0..cols {
                assert_eq!(t.sign(r, c), signs[r * cols + c] as i32, "({r},{c})");
            }
            // Padding bits beyond the logical width stay clear.
            assert_eq!(t.row_words(r)[2] >> 2, 0);
        }
    }

    #[test]
    fn permute_columns_moves_every_bit() {
        let (rows, cols) = (3, 150);
        let mut t = BitTensor::zeros(rows, cols);
        for r in 0..rows {
            for c in (r..cols).step_by(r + 2) {
                t.set(r, c, true);
            }
        }
        // 6 groups of 25 columns transposed to 25 groups of 6.
        let dest = |c: usize| (c % 25) * 6 + c / 25;
        let p = t.permute_columns(dest);
        assert_eq!((p.rows(), p.cols()), (rows, cols));
        for r in 0..rows {
            for c in 0..cols {
                assert_eq!(p.get(r, dest(c)), t.get(r, c), "row {r} column {c}");
            }
            assert_eq!(p.row_count_ones(r), t.row_count_ones(r));
        }
    }

    #[test]
    #[should_panic(expected = "not a permutation")]
    fn permute_columns_rejects_a_collision() {
        let _ = BitTensor::zeros(1, 4).permute_columns(|c| c / 2);
    }

    #[test]
    fn from_signs_validates_length() {
        assert!(BitTensor::from_signs(2, 3, &[1; 5]).is_err());
    }

    #[test]
    fn from_words_wraps_what_row_words_returns() {
        let (rows, cols) = (3, 130);
        let signs: Vec<i8> = (0..rows * cols)
            .map(|i| if i * 11 % 7 < 3 { 1 } else { -1 })
            .collect();
        let t = BitTensor::from_signs(rows, cols, &signs).unwrap();
        let words: Vec<u64> = (0..rows).flat_map(|r| t.row_words(r).to_vec()).collect();
        assert_eq!(BitTensor::from_words(rows, cols, words).unwrap(), t);
        assert_eq!(
            BitTensor::from_words(0, cols, Vec::new()).unwrap(),
            BitTensor::zeros(0, cols)
        );
        assert_eq!(
            BitTensor::from_words(2, 128, vec![!0; 4])
                .unwrap()
                .row_count_ones(1),
            128
        );
    }

    #[test]
    fn from_words_rejects_short_data_and_set_padding() {
        assert!(matches!(
            BitTensor::from_words(2, 65, vec![0; 3]),
            Err(TensorError::LengthMismatch {
                expected: 4,
                actual: 3
            })
        ));
        // Column 65 of row 1 is padding.
        assert!(matches!(
            BitTensor::from_words(2, 65, vec![0, 1, 0, 0b10]),
            Err(TensorError::InvalidShape { .. })
        ));
        assert!(BitTensor::from_words(1, 0, vec![1]).is_err());
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn bit_tensor_oob_panics() {
        let t = BitTensor::zeros(1, 8);
        t.get(0, 8);
    }

    #[test]
    fn u3_round_trip_all_values() {
        let values: Vec<u8> = (0..200).map(|i| (i % 8) as u8).collect();
        let t = U3Tensor::from_values(&values).unwrap();
        assert_eq!(t.to_values(), values);
    }

    #[test]
    fn u3_rejects_out_of_range() {
        assert!(U3Tensor::from_values(&[8]).is_err());
    }

    #[test]
    fn u3_planes_decompose_value() {
        let t = U3Tensor::from_values(&[5]).unwrap(); // 0b101
        assert_eq!(t.plane_words(0)[0] & 1, 1);
        assert_eq!(t.plane_words(1)[0] & 1, 0);
        assert_eq!(t.plane_words(2)[0] & 1, 1);
    }

    #[test]
    fn u3_overwrite_clears_old_bits() {
        let mut t = U3Tensor::zeros(4);
        t.set(1, 7);
        t.set(1, 2);
        assert_eq!(t.get(1), 2);
    }

    #[test]
    fn u3_packing_is_three_eighths_of_byte_storage() {
        // 3-bit packing is the memory reduction quantization buys (§I).
        let t = U3Tensor::zeros(64 * 100);
        assert_eq!(t.packed_bytes(), 3 * 100 * 8);
    }
}
