//! The paper's headline numbers as integration assertions: if any of these
//! fails, the reproduction of Tables I/II or the §III/§IV performance
//! claims has regressed.

use tincy::core::topology::{cnv6, mlp4, tincy_yolo, tiny_yolo};
use tincy::finn::engine::EngineConfig;
use tincy::finn::FpgaDevice;
use tincy::perf::fabric::tincy_cost;
use tincy::perf::speedup_ladder;
use tincy::perf::tables::{table1, table1_total, table2};

#[test]
fn table_one_totals_exact() {
    let rows = table1(&tiny_yolo(), &tincy_yolo());
    assert_eq!(table1_total(&rows, false), 6_971_272_984);
    assert_eq!(table1_total(&rows, true), 4_445_001_496);
}

#[test]
fn table_two_rows_exact_or_documented() {
    let mlp = mlp4();
    let cnv = cnv6();
    let tincy = tincy_yolo();
    let rows = table2(&[("MLP-4", &mlp), ("CNV-6", &cnv), ("Tincy YOLO", &tincy)]);
    // MLP-4: 5.82 M vs the paper's rounded 6.0 M (documented deviation).
    assert_eq!(rows[0].reduced_ops, 5_820_416);
    assert_eq!(rows[0].eight_bit_ops, 0);
    // CNV-6 exact.
    assert_eq!(rows[1].reduced_ops, 115_812_352);
    assert_eq!(rows[1].eight_bit_ops, 3_110_400);
    assert_eq!(rows[1].total(), 118_922_752);
    // Tincy YOLO exact.
    assert_eq!(rows[2].reduced_ops, 4_385_931_264);
    assert_eq!(rows[2].eight_bit_ops, 59_012_096);
    assert_eq!(rows[2].total(), 4_444_943_360);
    assert_eq!(rows[2].reduced_precision, "[W1A3]");
}

#[test]
fn fabric_reproduces_thirty_millisecond_hidden_layers() {
    let ms = tincy_cost(EngineConfig::default()).ms();
    assert!(
        (25.0..35.0).contains(&ms),
        "fabric hidden time {ms:.1} ms vs paper's 30 ms"
    );
}

#[test]
fn ladder_reaches_sixteen_fps_and_160x() {
    let steps = speedup_ladder();
    let last = steps.last().expect("nonempty ladder");
    assert!(
        (13.0..20.0).contains(&last.fps),
        "final rate {:.1} fps vs paper's 16",
        last.fps
    );
    let overall = last.fps / steps[0].fps;
    assert!(
        (120.0..200.0).contains(&overall),
        "{overall:.0}x vs paper's 160x"
    );
}

#[test]
fn xczu3eg_fits_one_engine_but_not_a_dataflow_pipeline() {
    let device = FpgaDevice::XCZU3EG;
    let cost = tincy_cost(EngineConfig::default());
    let (single, dataflow) = (cost.engine, cost.dataflow);
    assert!(device.fits(&single), "single engine must fit: {single:?}");
    assert!(
        !device.fits(&dataflow),
        "per-layer dataflow pipeline must NOT fit the XCZU3EG: {dataflow:?}"
    );
}
