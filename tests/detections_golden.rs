//! Golden-file test pinning detections across commits: every other
//! bit-exactness check compares two paths at one commit, so a change that
//! moves every path alike (NMS, decoding, letterboxing, the W8 layers)
//! shows only here.
//!
//! Each line of `tests/golden/detections.txt` is one 64-bit FNV-1a
//! fingerprint over a frame's detections in output order — class, then
//! the bit patterns of the box and the score — for one (input size, path,
//! frame). The frames are the first 8 of the synthetic camera at system
//! seed 1; the score threshold is 0.0, so NMS sees every box. Regenerate
//! with `UPDATE_GOLDEN=1 cargo test --test detections_golden`.

use std::fmt::Write as _;
use std::path::PathBuf;
use tincy::core::SystemConfig;
use tincy::eval::Detection;
use tincy::serve::ServeEngine;
use tincy::video::{Image, SceneConfig, SyntheticCamera};

const FRAMES: u64 = 8;
const BATCH: usize = 4;

fn fnv1a(detections: &[Detection]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut feed = |bytes: &[u8]| {
        for &b in bytes {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for d in detections {
        feed(&(d.class as u64).to_le_bytes());
        for v in [d.bbox.x, d.bbox.y, d.bbox.w, d.bbox.h, d.score] {
            feed(&v.to_bits().to_le_bytes());
        }
    }
    hash
}

/// The fingerprint file as the current tree computes it.
fn fingerprints() -> String {
    let system = SystemConfig::default();
    let mut camera = SyntheticCamera::with_limit(SceneConfig::default(), system.seed, FRAMES);
    let images: Vec<Image> = std::iter::from_fn(|| camera.capture()).collect();
    let mut out = String::new();
    for input_size in [64, 128] {
        let system = SystemConfig {
            input_size,
            ..system
        };
        let engine = ServeEngine::finn(&system, 0.0).expect("engine builds");
        let batched = images
            .chunks(BATCH)
            .flat_map(|chunk| engine.process_batch(chunk).expect("batch runs"));
        let host = images
            .iter()
            .map(|image| engine.process_host(image).expect("host runs"));
        for (path, detections) in [
            ("batch", batched.collect::<Vec<_>>()),
            ("host", host.collect()),
        ] {
            for (frame, d) in detections.iter().enumerate() {
                writeln!(
                    out,
                    "input={input_size} path={path} frame={frame} boxes={} fnv={:016x}",
                    d.len(),
                    fnv1a(d)
                )
                .expect("write to string");
            }
        }
    }
    out
}

#[test]
fn detections_match_the_golden_file() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/detections.txt");
    let got = fingerprints();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
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
        "detections diverged from {}; regenerate with UPDATE_GOLDEN=1 if intended.\n--- golden\n{want}\n--- computed\n{got}",
        path.display()
    );
}
