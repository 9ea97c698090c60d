//! Golden-file test pinning the product network layer by layer across
//! commits: `tests/golden/detections.txt` sees only the end of a frame, so
//! a change that moves one layer and is absorbed downstream (or moves every
//! path alike) shows only here.
//!
//! Each line of `tests/golden/conformance.txt` is one 64-bit FNV-1a
//! fingerprint for one (input size, layer) of the shipped design at system
//! seed 1, over the first three frames of the synthetic camera:
//!
//! * a CPU layer (the W8A8 first conv, the offload layer's float output,
//!   the W8 1×1 last conv, the region layer): the bit patterns of its `f32`
//!   output;
//! * a hidden layer: its output levels, computed on every path — the naive
//!   signed reference (at input 64, first frame: it is the slow one), the packed
//!   core under every instantiation of `Isa::supported()`, the host path,
//!   the fabric engine, and a batch of the three frames in one
//!   accelerator invocation — which must all agree before the line is
//!   written, with the simulated cycles the engine charges per frame.
//!
//! Regenerate with `UPDATE_GOLDEN=1 cargo test --test conformance` only for
//! an intended change, and say which lines moved.

use std::fmt::Write as _;
use std::path::PathBuf;
use tincy::core::{build_network_for, SystemConfig};
use tincy::finn::{ConvEngine, FabricBackend, FaultPlan, QnnAccelerator};
use tincy::kernels::{Isa, Variant};
use tincy::tensor::Tensor;
use tincy::video::{SceneConfig, SyntheticCamera};

const FRAMES: u64 = 3;

/// The input at which the naive reference also runs, on the first frame:
/// it is the slow path.
const NAIVE_INPUT: usize = 64;

#[derive(Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn feed(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn floats(mut self, maps: &[Tensor<f32>]) -> Self {
        for v in maps.iter().flat_map(Tensor::as_slice) {
            self.feed(&v.to_bits().to_le_bytes());
        }
        self
    }

    fn levels(mut self, maps: &[Tensor<u8>]) -> Self {
        for map in maps {
            self.feed(map.as_slice());
        }
        self
    }
}

/// The fabric interface's quantizer as its contract states it:
/// `(v / step).round().clamp(0, 7)`.
fn to_levels(map: &Tensor<f32>, step: f32) -> Tensor<u8> {
    map.map(|v| (v / step).round().clamp(0.0, 7.0) as u8)
}

/// The fingerprint file as the current tree computes it.
fn fingerprints() -> String {
    let system = SystemConfig::default();
    let mut camera = SyntheticCamera::with_limit(SceneConfig::default(), system.seed, FRAMES);
    let images: Vec<_> = std::iter::from_fn(|| camera.capture()).collect();
    let mut out = String::new();
    for input_size in [64, 128] {
        let system = SystemConfig {
            input_size,
            ..system
        };
        let net = build_network_for(&system.model(), FaultPlan::none()).expect("network builds");
        let mut maps: Vec<Tensor<f32>> = images
            .iter()
            .map(|image| image.letterboxed(input_size).into_tensor())
            .collect();
        for i in 0..net.num_layers() {
            let layer = net.layer(i);
            if let Some(offload) = layer.as_offload() {
                let fabric = offload
                    .backend()
                    .as_any()
                    .downcast_ref::<FabricBackend>()
                    .expect("the offload layer is the fabric backend");
                let accel = fabric.accelerator().expect("initialized");
                let step = fabric.act_step();
                let levels: Vec<Tensor<u8>> = maps.iter().map(|m| to_levels(m, step)).collect();
                let levels = hidden(&mut out, input_size, accel, levels, system);
                let batched = offload.forward_batch(&maps).expect("offload batch");
                let single: Vec<Tensor<f32>> = maps
                    .iter()
                    .map(|m| layer.forward(m).expect("offload forward"))
                    .collect();
                let host: Vec<Tensor<f32>> = maps
                    .iter()
                    .map(|m| offload.forward_host(m).expect("offload host"))
                    .collect();
                let from_levels: Vec<Tensor<f32>> = levels
                    .iter()
                    .map(|l| l.map(|v| f32::from(v) * step))
                    .collect();
                let fnv = Fnv::new().floats(&single).0;
                for (path, maps) in [
                    ("batch", &batched),
                    ("host", &host),
                    ("levels", &from_levels),
                ] {
                    assert_eq!(
                        Fnv::new().floats(maps).0,
                        fnv,
                        "input {input_size} offload layer: path {path} differs from the fabric"
                    );
                }
                maps = single;
            } else {
                maps = maps
                    .iter()
                    .map(|m| layer.forward(m).expect("layer forward"))
                    .collect();
            }
            writeln!(
                out,
                "input={input_size} layer={i} kind={} fnv={:016x}",
                layer.kind(),
                Fnv::new().floats(&maps).0
            )
            .expect("write to string");
        }
    }
    out
}

/// Writes one line per hidden layer and returns the stack's output levels.
fn hidden(
    out: &mut String,
    input_size: usize,
    accel: &QnnAccelerator,
    mut fmaps: Vec<Tensor<u8>>,
    system: SystemConfig,
) -> Vec<Tensor<u8>> {
    let engine = ConvEngine::new(system.engine).expect("engine");
    for (h, (params, packed)) in accel.layers().iter().zip(accel.packed_layers()).enumerate() {
        let mut cycles = Vec::new();
        let fabric: Vec<Tensor<u8>> = fmaps
            .iter()
            .map(|x| {
                let (y, c) = engine.run_layer(params, x).expect("fabric layer");
                cycles.push(c);
                y
            })
            .collect();
        let fnv = Fnv::new().levels(&fabric).0;
        let check = |path: &str, maps: &[Tensor<u8>]| {
            assert_eq!(
                Fnv::new().levels(maps).0,
                fnv,
                "input {input_size} hidden layer {h}: path {path} differs from the fabric"
            );
        };
        for isa in Isa::supported() {
            let packed_out: Vec<_> = fmaps.iter().map(|x| packed.run_on(isa, x)).collect();
            check(&format!("packed {isa:?}"), &packed_out);
        }
        let host: Vec<_> = fmaps
            .iter()
            .map(|x| packed.forward(x, Variant::Blocked, 1))
            .collect();
        check("host", &host);
        if input_size == NAIVE_INPUT {
            let naive = packed.forward_reference(&fmaps[0]);
            assert_eq!(
                naive, fabric[0],
                "input {input_size} hidden layer {h}: the naive path differs from the fabric"
            );
        }
        let one = QnnAccelerator::new(vec![params.clone()], system.engine).expect("one layer");
        let (batched, report) = one.run_batch(&fmaps, None).expect("batch of three");
        check("batch", &batched);
        let per_frame = cycles[0];
        assert!(
            cycles.iter().all(|&c| c == per_frame),
            "cycles vary by frame"
        );
        assert_eq!(
            report.layer_cycles,
            vec![per_frame * fmaps.len() as u64],
            "input {input_size} hidden layer {h}: batch cycles"
        );
        writeln!(
            out,
            "input={input_size} hidden={h} cycles={per_frame} fnv={fnv:016x}"
        )
        .expect("write to string");
        fmaps = fabric;
    }
    fmaps
}

#[test]
fn every_layer_on_every_path_matches_the_golden_file() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/conformance.txt");
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
        "layer outputs diverged from {}; regenerate with UPDATE_GOLDEN=1 if intended.\n--- golden\n{want}\n--- computed\n{got}",
        path.display()
    );
}
