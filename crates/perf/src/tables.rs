//! Data generators for Tables I–III.

use crate::calib;
use crate::fabric::tincy_cost;
use crate::stages::{StageBudget, StageId};
use tincy_finn::engine::EngineConfig;
use tincy_nn::{LayerSpec, NetworkSpec};
use tincy_quant::PrecisionConfig;

/// One row of Table I: per-layer operations of Tiny vs Tincy YOLO.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table1Row {
    /// 1-based layer number (Tiny YOLO numbering).
    pub layer: usize,
    /// Layer type (`conv` / `pool`).
    pub kind: &'static str,
    /// Tiny YOLO operations per frame.
    pub tiny_ops: Option<u64>,
    /// Tincy YOLO operations per frame (`None` for removed layers).
    pub tincy_ops: Option<u64>,
}

/// Builds Table I by aligning the two layer stacks. Layers removed by
/// transformation (d) appear with `tincy_ops = None`, matching the paper's
/// "-" entry.
pub fn table1(tiny: &NetworkSpec, tincy: &NetworkSpec) -> Vec<Table1Row> {
    let tiny_ops = tiny.ops_per_layer();
    let tincy_ops = tincy.ops_per_layer();
    let mut rows = Vec::new();
    let mut j = 0usize;
    for (i, layer) in tiny.layers.iter().enumerate() {
        let kind = layer.kind();
        let matched = tincy
            .layers
            .get(j)
            .map(|l| l.kind() == kind)
            .unwrap_or(false);
        let tincy_entry = if matched {
            let ops = tincy_ops[j];
            j += 1;
            Some(ops)
        } else {
            None
        };
        rows.push(Table1Row {
            layer: i + 1,
            kind,
            tiny_ops: Some(tiny_ops[i]),
            tincy_ops: tincy_entry,
        });
    }
    rows
}

/// Σ row of Table I for one network.
pub fn table1_total(rows: &[Table1Row], tincy: bool) -> u64 {
    rows.iter()
        .filter_map(|r| if tincy { r.tincy_ops } else { r.tiny_ops })
        .sum()
}

/// One row of Table II: dot-product workloads of QNN applications.
#[derive(Debug, Clone, PartialEq)]
pub struct Table2Row {
    /// Application name (MLP-4, CNV-6, Tincy YOLO).
    pub name: String,
    /// Reduced-precision dot-product ops per frame.
    pub reduced_ops: u64,
    /// Precision of the reduced part (e.g. `[W1A3]`).
    pub reduced_precision: String,
    /// 8-bit dot-product ops per frame.
    pub eight_bit_ops: u64,
}

impl Table2Row {
    /// Total dot-product ops.
    pub fn total(&self) -> u64 {
        self.reduced_ops + self.eight_bit_ops
    }
}

/// Builds Table II rows from named network specs.
pub fn table2(entries: &[(&str, &NetworkSpec)]) -> Vec<Table2Row> {
    entries
        .iter()
        .map(|(name, spec)| {
            let (reduced, eight_bit) = spec.dot_product_ops();
            let precision = spec
                .layers
                .iter()
                .find_map(|l| match l {
                    LayerSpec::Conv(c) if c.precision.offloadable() => {
                        Some(c.precision.to_string())
                    }
                    _ => None,
                })
                .unwrap_or_else(|| PrecisionConfig::W1A1.to_string());
            Table2Row {
                name: (*name).to_owned(),
                reduced_ops: reduced,
                reduced_precision: precision,
                eight_bit_ops: eight_bit,
            }
        })
        .collect()
}

/// One row of Table III plus the post-optimization column our model
/// derives.
#[derive(Debug, Clone, PartialEq)]
pub struct Table3Row {
    /// Stage identity.
    pub stage: StageId,
    /// The paper's measured baseline (calibration input), ms.
    pub baseline_ms: f64,
    /// Modelled time after all §III-C/D/E measures (pre-pipelining), ms.
    pub optimized_ms: f64,
}

/// Builds Table III: the calibrated baseline next to the modelled
/// fully-optimized budget.
pub fn table3() -> Vec<Table3Row> {
    let baseline = StageBudget::paper_baseline();
    let fabric = tincy_cost(EngineConfig::default()).ms();
    let optimized = baseline
        .with(StageId::HiddenLayers, fabric)
        .with(StageId::InputLayer, calib::LEAN_INPUT_CONV_MS)
        .with(StageId::MaxPool, 0.0);
    // Table III lists the frame path only; attribution-only stages
    // (`StageId::CpuKernel`) nest inside the hidden-layer row.
    StageId::FRAME_PATH
        .into_iter()
        .map(|stage| Table3Row {
            stage,
            baseline_ms: baseline.get(stage),
            optimized_ms: optimized.get(stage),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tincy_nn::{Activation, ConvSpec, PoolSpec};
    use tincy_tensor::Shape3;

    fn conv(filters: usize, size: usize, stride: usize, precision: PrecisionConfig) -> LayerSpec {
        LayerSpec::Conv(ConvSpec {
            filters,
            size,
            stride,
            pad: size / 2,
            activation: Activation::Relu,
            batch_normalize: true,
            precision,
        })
    }

    fn pool(size: usize, stride: usize) -> LayerSpec {
        LayerSpec::MaxPool(PoolSpec { size, stride })
    }

    #[test]
    fn alignment_marks_removed_pool() {
        let tiny = NetworkSpec::new(Shape3::new(3, 8, 8))
            .with(conv(4, 3, 1, PrecisionConfig::FLOAT))
            .with(pool(2, 2))
            .with(conv(8, 3, 1, PrecisionConfig::FLOAT));
        let tincy = NetworkSpec::new(Shape3::new(3, 8, 8))
            .with(conv(4, 3, 2, PrecisionConfig::FLOAT))
            .with(conv(8, 3, 1, PrecisionConfig::FLOAT));
        let rows = table1(&tiny, &tincy);
        assert_eq!(rows.len(), 3);
        assert!(rows[0].tincy_ops.is_some());
        assert_eq!(rows[1].kind, "pool");
        assert!(
            rows[1].tincy_ops.is_none(),
            "removed pool must show as None"
        );
        assert!(rows[2].tincy_ops.is_some());
        assert_eq!(table1_total(&rows, false), tiny.total_ops());
        assert_eq!(table1_total(&rows, true), tincy.total_ops());
    }

    #[test]
    fn table2_splits_by_precision() {
        let spec = NetworkSpec::new(Shape3::new(3, 8, 8))
            .with(conv(4, 3, 1, PrecisionConfig::W8A8))
            .with(conv(8, 3, 1, PrecisionConfig::W1A3));
        let rows = table2(&[("probe", &spec)]);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].reduced_precision, "[W1A3]");
        assert!(rows[0].reduced_ops > 0);
        assert!(rows[0].eight_bit_ops > 0);
        assert_eq!(rows[0].total(), spec.total_ops());
    }

    #[test]
    fn table3_baseline_matches_calibration_and_optimized_shrinks() {
        let rows = table3();
        let baseline_total: f64 = rows.iter().map(|r| r.baseline_ms).sum();
        assert_eq!(baseline_total, calib::TOTAL_MS);
        let optimized_total: f64 = rows.iter().map(|r| r.optimized_ms).sum();
        // §III-E: "more than 5 fps was at hand" => < 200 ms.
        assert!(optimized_total < 200.0, "optimized total {optimized_total}");
        for row in &rows {
            assert!(row.optimized_ms <= row.baseline_ms, "{:?}", row.stage);
        }
    }
}
