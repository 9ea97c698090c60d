//! Resource estimation for MVTU-based conv engines.
//!
//! The estimates are calibrated against published FINN configurations: a
//! binary-weight PE×SIMD array needs no DSPs (XNOR + popcount trees are LUT
//! logic), its weight storage comes from BRAM, and a fixed overhead covers
//! the sliding-window unit, stream infrastructure and control.

use crate::engine::EngineConfig;
use std::ops::Add;

/// A LUT/BRAM/DSP bill of materials.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ResourceEstimate {
    /// 6-input look-up tables.
    pub luts: u64,
    /// 36 Kib block RAMs.
    pub bram36: u64,
    /// DSP48 slices.
    pub dsps: u64,
}

impl Add for ResourceEstimate {
    type Output = ResourceEstimate;

    fn add(self, rhs: ResourceEstimate) -> ResourceEstimate {
        ResourceEstimate {
            luts: self.luts + rhs.luts,
            bram36: self.bram36 + rhs.bram36,
            dsps: self.dsps + rhs.dsps,
        }
    }
}

impl ResourceEstimate {
    /// LUT cost of one PE×SIMD binary MAC cell with 3-bit activations:
    /// three XNOR/AND plane taps, the shared popcount adder tree slice and
    /// the accumulator share. Calibrated so a 16×16 array with overheads
    /// lands in the tens-of-kLUTs regime of published FINN builds.
    pub const LUTS_PER_MAC_W1A3: u64 = 40;

    /// Fixed engine overhead: sliding-window unit, width converters,
    /// threshold memories' addressing, control FSM, AXI plumbing.
    pub const ENGINE_OVERHEAD_LUTS: u64 = 9_000;

    /// LUT cost per threshold comparator (7 per output channel at A3).
    pub const LUTS_PER_THRESHOLD: u64 = 12;

    /// Estimates an MVTU-based conv engine.
    ///
    /// * `pe` — output-channel parallelism,
    /// * `simd` — dot-product-element parallelism,
    /// * `weight_bits` — binary weight storage the engine must hold
    ///   on-chip (the largest layer for a time-multiplexed engine; the layer
    ///   itself for a dataflow stage),
    /// * `levels` — activation levels (8 for A3).
    pub fn conv_engine(pe: usize, simd: usize, weight_bits: u64, levels: usize) -> Self {
        let mac_luts = (pe * simd) as u64 * Self::LUTS_PER_MAC_W1A3;
        let threshold_luts = (pe * (levels - 1)) as u64 * Self::LUTS_PER_THRESHOLD;
        // Dual-port weight buffer, double-buffered for weight swapping.
        let bram36 = (2 * weight_bits).div_ceil(36 * 1024);
        ResourceEstimate {
            luts: mac_luts + threshold_luts + Self::ENGINE_OVERHEAD_LUTS,
            bram36,
            dsps: 0, // binary weights need no multipliers
        }
    }

    /// The single time-multiplexed engine of §III-A: the MVTU array at
    /// `fold`, a weight buffer for the largest layer and comparators for
    /// the widest activation. `layers` gives each offloaded layer's weight
    /// bits and activation levels; without layers there is no engine and
    /// nothing to bill.
    pub fn single_engine(
        fold: EngineConfig,
        layers: impl IntoIterator<Item = (u64, usize)>,
    ) -> Self {
        let (bits, levels) = layers.into_iter().fold((0, 0), |(b, l), (bits, levels)| {
            (b.max(bits), l.max(levels))
        });
        if bits == 0 {
            return Self::default();
        }
        Self::conv_engine(fold.pe, fold.simd, bits, levels)
    }

    /// A per-layer dataflow pipeline over the same layers: one engine per
    /// layer, each holding its own weights. On the XCZU3EG "this option
    /// quickly fails on resource constraints" (§III-A).
    pub fn dataflow(fold: EngineConfig, layers: impl IntoIterator<Item = (u64, usize)>) -> Self {
        layers
            .into_iter()
            .map(|(bits, levels)| Self::conv_engine(fold.pe, fold.simd, bits, levels))
            .fold(Self::default(), |a, b| a + b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::FpgaDevice;

    #[test]
    fn binary_engine_uses_no_dsps() {
        let est = ResourceEstimate::conv_engine(16, 16, 2_359_296, 8);
        assert_eq!(est.dsps, 0);
    }

    #[test]
    fn single_tincy_engine_fits_xczu3eg() {
        // One 16x16 engine holding the largest hidden layer
        // (512x512x3x3 = 2,359,296 weight bits, double buffered).
        let est = ResourceEstimate::conv_engine(16, 16, 2_359_296, 8);
        assert!(
            FpgaDevice::XCZU3EG.fits(&est),
            "single engine must fit: {est:?}"
        );
    }

    #[test]
    fn addition_accumulates() {
        let a = ResourceEstimate {
            luts: 1,
            bram36: 2,
            dsps: 3,
        };
        let b = ResourceEstimate {
            luts: 10,
            bram36: 20,
            dsps: 30,
        };
        assert_eq!(
            a + b,
            ResourceEstimate {
                luts: 11,
                bram36: 22,
                dsps: 33
            }
        );
    }

    #[test]
    fn weight_storage_drives_bram() {
        let small = ResourceEstimate::conv_engine(16, 16, 9_216, 8);
        let large = ResourceEstimate::conv_engine(16, 16, 2_359_296, 8);
        assert!(large.bram36 > small.bram36);
        // 2 * 2,359,296 bits / 36Kib = 128 BRAM36.
        assert_eq!(large.bram36, 128);
    }
}
