//! Video sinks (the X11 output stand-ins).

use crate::frame::Image;
use std::io::Write;
use std::path::PathBuf;

/// Consumes finished, annotated frames.
pub trait VideoSink: Send {
    /// Receives one frame.
    fn consume(&mut self, frame: &Image);
}

/// Writes every `every`-th frame as a PPM file into a directory.
#[derive(Debug)]
pub struct PpmSink {
    dir: PathBuf,
    every: u64,
    counter: u64,
    written: u64,
}

impl PpmSink {
    /// Creates a sink writing into `dir` (created if missing).
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the directory cannot be created.
    pub fn new(dir: impl Into<PathBuf>, every: u64) -> std::io::Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(Self {
            dir,
            every: every.max(1),
            counter: 0,
            written: 0,
        })
    }

    /// Number of files written.
    pub fn written(&self) -> u64 {
        self.written
    }
}

impl VideoSink for PpmSink {
    fn consume(&mut self, frame: &Image) {
        if self.counter.is_multiple_of(self.every) {
            let path = self.dir.join(format!("frame_{:06}.ppm", self.counter));
            if let Ok(mut file) = std::fs::File::create(path) {
                if file.write_all(&frame.to_ppm()).is_ok() {
                    self.written += 1;
                }
            }
        }
        self.counter += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ppm_sink_writes_every_nth() {
        let dir = std::env::temp_dir().join(format!("tincy_ppm_test_{}", std::process::id()));
        let mut sink = PpmSink::new(&dir, 2).unwrap();
        for _ in 0..5 {
            sink.consume(&Image::filled(2, 2, [0.5; 3]));
        }
        assert_eq!(sink.written(), 3); // frames 0, 2, 4
        let _ = std::fs::remove_dir_all(&dir);
    }
}
