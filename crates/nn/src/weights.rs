//! Sequential weight files in Darknet's style.
//!
//! Darknet weight files are a short header followed by the raw `f32`
//! parameters of every layer in network order; each layer consumes its slice
//! of the stream during `load_weights` (Fig 3). We use the same sequential
//! contract with a versioned little-endian format. Layers only read it:
//! the stream is written by training through [`WeightsWriter`].

use crate::error::NnError;
use std::io::{Read, Write};

/// Magic number identifying a Tincy weight stream (`"TNCY"`).
pub const WEIGHTS_MAGIC: u32 = 0x544E_4359;
/// Current format version.
pub const WEIGHTS_VERSION: u32 = 1;

/// Sequential reader of `f32` parameters.
pub struct WeightsReader<'a> {
    inner: &'a mut dyn Read,
    read_count: usize,
}

impl<'a> WeightsReader<'a> {
    /// Wraps a byte stream positioned at the first parameter. A `&mut`
    /// reference to any [`Read`] implementor can be passed.
    pub fn new(inner: &'a mut dyn Read) -> Self {
        Self {
            inner,
            read_count: 0,
        }
    }

    /// Reads and validates the stream header, returning the declared
    /// parameter count.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::Parse`] on a bad magic/version and [`NnError::Io`]
    /// on stream failure.
    pub fn read_header(&mut self) -> Result<u64, NnError> {
        let mut buf = [0u8; 4];
        self.inner.read_exact(&mut buf)?;
        if u32::from_le_bytes(buf) != WEIGHTS_MAGIC {
            return Err(NnError::Parse {
                line: 0,
                what: "bad weight file magic".to_owned(),
            });
        }
        self.inner.read_exact(&mut buf)?;
        let version = u32::from_le_bytes(buf);
        if version != WEIGHTS_VERSION {
            return Err(NnError::Parse {
                line: 0,
                what: format!("unsupported weight file version {version}"),
            });
        }
        let mut cbuf = [0u8; 8];
        self.inner.read_exact(&mut cbuf)?;
        Ok(u64::from_le_bytes(cbuf))
    }

    /// Reads `n` parameters.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::Io`] if the stream ends early.
    pub fn read_f32s(&mut self, n: usize) -> Result<Vec<f32>, NnError> {
        let mut values = vec![0.0; n];
        self.read_f32s_into(&mut values)?;
        Ok(values)
    }

    /// Reads `out.len()` parameters into `out`, through a fixed 4 KiB
    /// buffer: a layer's bytes are never held twice.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::Io`] if the stream ends early; `out` then holds
    /// a prefix of what was read and [`WeightsReader::read_count`] is
    /// unchanged.
    pub fn read_f32s_into(&mut self, out: &mut [f32]) -> Result<(), NnError> {
        let mut bytes = [0u8; 4096];
        for values in out.chunks_mut(bytes.len() / 4) {
            let bytes = &mut bytes[..values.len() * 4];
            self.inner.read_exact(bytes)?;
            for (value, le) in values.iter_mut().zip(bytes.as_chunks::<4>().0) {
                *value = f32::from_le_bytes(*le);
            }
        }
        self.read_count += out.len();
        Ok(())
    }

    /// Number of parameters read so far (excluding the header).
    pub fn read_count(&self) -> usize {
        self.read_count
    }
}

impl std::fmt::Debug for WeightsReader<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WeightsReader")
            .field("read_count", &self.read_count)
            .finish()
    }
}

/// Sequential writer of `f32` parameters.
pub struct WeightsWriter<'a> {
    inner: &'a mut dyn Write,
}

impl<'a> WeightsWriter<'a> {
    /// Wraps a byte sink. A `&mut` reference to any [`Write`] implementor
    /// can be passed.
    pub fn new(inner: &'a mut dyn Write) -> Self {
        Self { inner }
    }

    /// Writes the stream header with the declared parameter count.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::Io`] on sink failure.
    pub fn write_header(&mut self, param_count: u64) -> Result<(), NnError> {
        self.inner.write_all(&WEIGHTS_MAGIC.to_le_bytes())?;
        self.inner.write_all(&WEIGHTS_VERSION.to_le_bytes())?;
        self.inner.write_all(&param_count.to_le_bytes())?;
        Ok(())
    }

    /// Writes a parameter slice.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::Io`] on sink failure.
    pub fn write_f32s(&mut self, values: &[f32]) -> Result<(), NnError> {
        for v in values {
            self.inner.write_all(&v.to_le_bytes())?;
        }
        Ok(())
    }
}

impl std::fmt::Debug for WeightsWriter<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WeightsWriter").finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_with_header() {
        let mut buf = Vec::new();
        {
            let mut w = WeightsWriter::new(&mut buf);
            w.write_header(5).unwrap();
            w.write_f32s(&[1.0, -2.5, 3.25]).unwrap();
            w.write_f32s(&[0.0, f32::MAX]).unwrap();
        }
        let mut cursor = std::io::Cursor::new(buf);
        let mut r = WeightsReader::new(&mut cursor);
        assert_eq!(r.read_header().unwrap(), 5);
        assert_eq!(r.read_f32s(3).unwrap(), vec![1.0, -2.5, 3.25]);
        assert_eq!(r.read_f32s(2).unwrap(), vec![0.0, f32::MAX]);
        assert_eq!(r.read_count(), 5);
    }

    #[test]
    fn bad_magic_rejected() {
        let mut cursor = std::io::Cursor::new(vec![0u8; 16]);
        let mut r = WeightsReader::new(&mut cursor);
        assert!(matches!(r.read_header(), Err(NnError::Parse { .. })));
    }

    #[test]
    fn truncated_stream_is_io_error() {
        let mut buf = Vec::new();
        WeightsWriter::new(&mut buf).write_f32s(&[1.0]).unwrap();
        let mut cursor = std::io::Cursor::new(buf);
        let mut r = WeightsReader::new(&mut cursor);
        assert!(matches!(r.read_f32s(2), Err(NnError::Io(_))));
    }

    #[test]
    fn read_into_spans_buffer_refills_and_counts_only_whole_reads() {
        let values: Vec<f32> = (0..2500).map(|i| i as f32 * -0.25).collect();
        let mut buf = Vec::new();
        WeightsWriter::new(&mut buf).write_f32s(&values).unwrap();
        let mut cursor = std::io::Cursor::new(buf);
        let mut r = WeightsReader::new(&mut cursor);
        let mut out = vec![f32::NAN; 2499];
        r.read_f32s_into(&mut out).unwrap();
        assert_eq!(out, values[..2499]);
        assert_eq!(r.read_count(), 2499);
        // One value left: a two-value read fails and counts nothing.
        assert!(matches!(
            r.read_f32s_into(&mut [0.0; 2]),
            Err(NnError::Io(_))
        ));
        assert_eq!(r.read_count(), 2499);
    }
}
