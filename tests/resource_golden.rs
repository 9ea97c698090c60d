//! Golden-file test for the calibrated XCZU3EG resource model: the bill
//! of materials the shipped fold configuration (16×16 engine, largest
//! hidden layer double-buffered) resolves to is pinned byte for byte in
//! `tests/golden/resource_xczu3eg.txt`, so any drift in the LUT/BRAM
//! calibration constants or the estimator arithmetic fails loudly.
//! Regenerate with `UPDATE_GOLDEN=1 cargo test --test resource_golden`.

use std::path::PathBuf;
use tincy::core::SystemConfig;
use tincy::finn::{model_estimate, FpgaDevice, ResourceEstimate};

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/resource_xczu3eg.txt")
}

fn render(estimate: &ResourceEstimate, device: &FpgaDevice) -> String {
    let (lut, bram, dsp) = device.utilization(estimate);
    format!(
        "device {}: {} LUTs, {} BRAM36, {} DSPs\n\
         shipped engine (pe 16, simd 16, largest hidden layer double-buffered):\n\
         luts   {:>6}  ({:>5.1}%)\n\
         bram36 {:>6}  ({:>5.1}%)\n\
         dsps   {:>6}  ({:>5.1}%)\n\
         fits (90% ceiling): {}\n",
        device.name,
        device.luts,
        device.bram36,
        device.dsps,
        estimate.luts,
        lut * 100.0,
        estimate.bram36,
        bram * 100.0,
        estimate.dsps,
        dsp * 100.0,
        device.fits(estimate),
    )
}

#[test]
fn shipped_fold_estimate_matches_golden() {
    let model = SystemConfig::default().model();
    let estimate = model_estimate(&model).expect("a deployable model");
    let got = render(&estimate, &FpgaDevice::XCZU3EG);
    let path = golden_path();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().expect("golden dir")).expect("mkdir golden");
        std::fs::write(&path, &got).expect("write golden");
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {} ({e}); regenerate with UPDATE_GOLDEN=1",
            path.display()
        )
    });
    assert!(
        got == want,
        "resource estimate drifted from golden {}.\n--- got ---\n{got}\n--- want ---\n{want}\n\
         regenerate with UPDATE_GOLDEN=1 if the change is intentional",
        path.display()
    );
}

/// The paper builds on "a rather small XCZU3EG chip" with a single
/// generalized conv engine; the §III-A discussion has block RAM as the
/// scarce resource (the largest layer's 2.3 Mib weight store, double
/// buffered). Pin that shape with explicit tolerances: the estimate must
/// fit the device, consume a moderate fraction of the LUTs, commit more
/// than half the BRAM (the binding axis), and need no DSPs.
#[test]
fn shipped_utilization_is_within_the_papers_envelope() {
    let model = SystemConfig::default().model();
    let estimate = model_estimate(&model).expect("a deployable model");
    let device = FpgaDevice::XCZU3EG;
    assert!(
        device.fits(&estimate),
        "shipped engine must fit: {estimate:?}"
    );
    let (lut, bram, dsp) = device.utilization(&estimate);
    assert!(
        (0.2..0.5).contains(&lut),
        "LUT utilization {lut:.3} outside the expected 20-50% band"
    );
    assert!(
        (0.5..0.9).contains(&bram),
        "BRAM utilization {bram:.3} outside the expected 50-90% band"
    );
    assert_eq!(dsp, 0.0, "binary MACs must not consume DSPs");
    assert!(
        bram > lut,
        "BRAM must be the binding axis (bram {bram:.3} vs lut {lut:.3})"
    );
}

/// The weight store the estimate is sized for is the largest hidden
/// layer: 512×512×3×3 binary weights, double-buffered for the swap.
#[test]
fn estimate_is_anchored_to_the_largest_hidden_layer() {
    let model = SystemConfig::default().model();
    let estimate = model_estimate(&model).expect("a deployable model");
    assert_eq!(
        estimate.bram36,
        (2 * 2_359_296u64).div_ceil(36 * 1024),
        "BRAM count must come from the 2,359,296-bit layer, double-buffered"
    );
}
