//! Programmable-logic device models.

use crate::resource::ResourceEstimate;

/// A programmable-logic resource budget.
///
/// The paper targets "a rather small XCZU3EG chip" (§III-A); its fabric
/// budget decides that only a single generalized conv engine fits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FpgaDevice {
    /// Marketing name.
    pub name: &'static str,
    /// 6-input look-up tables.
    pub luts: u64,
    /// 36 Kib block RAMs.
    pub bram36: u64,
    /// DSP48 slices.
    pub dsps: u64,
}

impl FpgaDevice {
    /// The Zynq UltraScale+ XCZU3EG (Ultra96-class) fabric.
    pub const XCZU3EG: Self = Self {
        name: "XCZU3EG",
        luts: 70_560,
        bram36: 216,
        dsps: 360,
    };

    /// Whether an estimate fits within this device (with a utilization
    /// ceiling — full occupation never routes).
    pub fn fits(&self, estimate: &ResourceEstimate) -> bool {
        self.fits_with_utilization(estimate, 0.9)
    }

    /// [`FpgaDevice::fits`] with an explicit utilization ceiling.
    pub fn fits_with_utilization(&self, estimate: &ResourceEstimate, ceiling: f64) -> bool {
        (estimate.luts as f64) <= self.luts as f64 * ceiling
            && (estimate.bram36 as f64) <= self.bram36 as f64 * ceiling
            && (estimate.dsps as f64) <= self.dsps as f64 * ceiling
    }

    /// Configuration-bitstream size in bits, approximated from the fabric
    /// size (UltraScale+ frames hold config for roughly 100 bits/LUT of
    /// fabric state; the XCZU3EG bitstream is ~5.6 MiB).
    pub fn bitstream_bits(&self) -> u64 {
        self.luts * 640
    }

    /// Cycles to stream the full bitstream back into the PL over a
    /// `bits_per_cycle`-wide configuration port — the cost a running system
    /// pays when the fabric loses its configuration and must be reloaded.
    pub fn bitstream_reload_cycles(&self, bits_per_cycle: u64) -> u64 {
        self.bitstream_bits().div_ceil(bits_per_cycle.max(1))
    }

    /// Utilization fractions `(lut, bram, dsp)` of an estimate.
    pub fn utilization(&self, estimate: &ResourceEstimate) -> (f64, f64, f64) {
        (
            estimate.luts as f64 / self.luts as f64,
            estimate.bram36 as f64 / self.bram36 as f64,
            estimate.dsps as f64 / self.dsps as f64,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fits_respects_ceiling() {
        let dev = FpgaDevice::XCZU3EG;
        let small = ResourceEstimate {
            luts: 10_000,
            bram36: 50,
            dsps: 0,
        };
        assert!(dev.fits(&small));
        let lut_heavy = ResourceEstimate {
            luts: 69_000,
            bram36: 10,
            dsps: 0,
        };
        assert!(!dev.fits(&lut_heavy)); // above the 90% ceiling
        assert!(dev.fits_with_utilization(&lut_heavy, 1.0));
    }

    #[test]
    fn bram_bound_detected() {
        let dev = FpgaDevice::XCZU3EG;
        let bram_heavy = ResourceEstimate {
            luts: 1_000,
            bram36: 217,
            dsps: 0,
        };
        assert!(!dev.fits(&bram_heavy));
    }

    #[test]
    fn utilization_fractions() {
        let dev = FpgaDevice::XCZU3EG;
        let est = ResourceEstimate {
            luts: 35_280,
            bram36: 108,
            dsps: 180,
        };
        let (l, b, d) = dev.utilization(&est);
        assert!((l - 0.5).abs() < 1e-9);
        assert!((b - 0.5).abs() < 1e-9);
        assert!((d - 0.5).abs() < 1e-9);
    }

    #[test]
    fn reload_cycles_scale_with_port_width() {
        let dev = FpgaDevice::XCZU3EG;
        let narrow = dev.bitstream_reload_cycles(32);
        let wide = dev.bitstream_reload_cycles(128);
        assert!(narrow > wide);
        assert_eq!(narrow, dev.bitstream_bits().div_ceil(32));
        // Zero width must not divide by zero.
        assert_eq!(dev.bitstream_reload_cycles(0), dev.bitstream_bits());
    }

    #[test]
    fn bigger_device_fits_more() {
        let est = ResourceEstimate {
            luts: 100_000,
            bram36: 250,
            dsps: 0,
        };
        assert!(!FpgaDevice::XCZU3EG.fits(&est));
        // A mid-range Zynq UltraScale+ (ZU7EV-class).
        let bigger = FpgaDevice {
            name: "XCZU7EV",
            luts: 230_400,
            bram36: 312,
            dsps: 1_728,
        };
        assert!(bigger.fits(&est));
    }
}
