//! The frame-time stage budget (Table III) and its transformations.

use crate::calib;

/// The processing stages of one video frame (Table III rows).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StageId {
    /// Camera read + internal scaling.
    Acquisition,
    /// First convolutional layer.
    InputLayer,
    /// First max-pool layer.
    MaxPool,
    /// All hidden layers.
    HiddenLayers,
    /// Output (detection head) layer.
    OutputLayer,
    /// Object boxing.
    BoxDrawing,
    /// Frame drawing / display.
    ImageOutput,
    /// Packed CPU fallback kernels (`cpu.kernel.*` spans). Attribution
    /// only: these spans nest inside the hidden-layer / offload time, so
    /// the stage is excluded from frame-path totals to avoid counting the
    /// same milliseconds twice.
    CpuKernel,
}

impl StageId {
    /// Every stage the taxonomy can attribute time to: the frame path in
    /// pipeline order, then attribution-only stages.
    pub const ALL: [StageId; 8] = [
        StageId::Acquisition,
        StageId::InputLayer,
        StageId::MaxPool,
        StageId::HiddenLayers,
        StageId::OutputLayer,
        StageId::BoxDrawing,
        StageId::ImageOutput,
        StageId::CpuKernel,
    ];

    /// The stages a frame passes through exactly once (the Table III
    /// rows). Totals, frame rates and bottlenecks are computed over this
    /// subset.
    pub const FRAME_PATH: [StageId; 7] = [
        StageId::Acquisition,
        StageId::InputLayer,
        StageId::MaxPool,
        StageId::HiddenLayers,
        StageId::OutputLayer,
        StageId::BoxDrawing,
        StageId::ImageOutput,
    ];

    /// The Table III row label.
    pub fn label(&self) -> &'static str {
        match self {
            StageId::Acquisition => "Image Acquisition",
            StageId::InputLayer => "Input Layer",
            StageId::MaxPool => "Max Pool",
            StageId::HiddenLayers => "Hidden Layers",
            StageId::OutputLayer => "Output Layer",
            StageId::BoxDrawing => "Box Drawing",
            StageId::ImageOutput => "Image Output",
            StageId::CpuKernel => "CPU Kernels",
        }
    }

    /// Position in [`Self::ALL`].
    pub(crate) fn index(self) -> usize {
        Self::ALL
            .iter()
            .position(|&s| s == self)
            .expect("stage is in ALL")
    }
}

/// Per-stage frame-time budget in milliseconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StageBudget {
    times: [f64; 8],
}

impl StageBudget {
    /// The calibrated generic-Darknet baseline (Table III). The baseline
    /// never ran packed kernels, so the attribution-only `CpuKernel` stage
    /// is zero.
    pub fn paper_baseline() -> Self {
        Self {
            times: [
                calib::ACQUISITION_MS,
                calib::INPUT_LAYER_MS,
                calib::MAX_POOL_MS,
                calib::HIDDEN_LAYERS_MS,
                calib::OUTPUT_LAYER_MS,
                calib::BOX_DRAWING_MS,
                calib::IMAGE_OUTPUT_MS,
                0.0,
            ],
        }
    }

    /// The measured budget of a traced run — the inverse of
    /// [`crate::observed::model_diff`]. `observed` holds `(stage name,
    /// mean ms)` pairs as produced by a trace profile's stage summary
    /// (`Profile::stage_means_ms`); names sharing a [`StageId`] are
    /// summed, and stages without observations keep the paper baseline
    /// (`model_diff`'s `observed_ms` says which were covered).
    pub fn from_observed(observed: &[(String, f64)]) -> Self {
        let mut budget = Self::paper_baseline();
        for (time, sum) in budget.times.iter_mut().zip(crate::observed::fold(observed)) {
            if let Some(ms) = sum {
                *time = ms;
            }
        }
        budget
    }

    /// Time of one stage in ms.
    pub fn get(&self, stage: StageId) -> f64 {
        self.times[stage.index()]
    }

    /// Returns a budget with one stage replaced.
    #[must_use]
    pub fn with(&self, stage: StageId, ms: f64) -> Self {
        let mut out = *self;
        out.times[stage.index()] = ms;
        out
    }

    /// Returns a budget with one stage scaled by `1/speedup`.
    #[must_use]
    pub fn sped_up(&self, stage: StageId, speedup: f64) -> Self {
        self.with(stage, self.get(stage) / speedup)
    }

    /// Total sequential frame time in ms (frame-path stages only;
    /// attribution-only stages like [`StageId::CpuKernel`] nest inside
    /// them and would double-count).
    pub fn total_ms(&self) -> f64 {
        StageId::FRAME_PATH.iter().map(|&s| self.get(s)).sum()
    }

    /// Sequential frame rate.
    pub fn sequential_fps(&self) -> f64 {
        1000.0 / self.total_ms()
    }

    /// The slowest frame-path stage (the pipelined throughput bound).
    pub fn bottleneck(&self) -> (StageId, f64) {
        let mut best = (StageId::Acquisition, f64::NEG_INFINITY);
        for stage in StageId::FRAME_PATH {
            let t = self.get(stage);
            if t > best.1 {
                best = (stage, t);
            }
        }
        best
    }

    /// Iterates `(stage, ms)` over the frame path in pipeline order.
    pub fn iter(&self) -> impl Iterator<Item = (StageId, f64)> + '_ {
        StageId::FRAME_PATH.into_iter().map(|s| (s, self.get(s)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_matches_table_three() {
        let b = StageBudget::paper_baseline();
        assert_eq!(b.total_ms(), calib::TOTAL_MS);
        assert_eq!(b.get(StageId::HiddenLayers), 9160.0);
        assert!((b.sequential_fps() - 0.0997).abs() < 0.001);
    }

    #[test]
    fn bottleneck_is_hidden_layers_at_baseline() {
        let (stage, ms) = StageBudget::paper_baseline().bottleneck();
        assert_eq!(stage, StageId::HiddenLayers);
        assert_eq!(ms, 9160.0);
    }

    #[test]
    fn transformations_compose() {
        let b = StageBudget::paper_baseline()
            .with(StageId::HiddenLayers, 30.0)
            .sped_up(StageId::InputLayer, 2.0);
        assert_eq!(b.get(StageId::HiddenLayers), 30.0);
        assert_eq!(b.get(StageId::InputLayer), 310.0);
        // Untouched stages unchanged.
        assert_eq!(b.get(StageId::Acquisition), 40.0);
    }

    #[test]
    fn cpu_kernel_stage_is_attribution_only() {
        let b = StageBudget::paper_baseline().with(StageId::CpuKernel, 99_999.0);
        // The packed-kernel time nests inside the hidden-layer time, so it
        // must not inflate totals or claim the bottleneck.
        assert_eq!(b.total_ms(), calib::TOTAL_MS);
        assert_eq!(b.bottleneck().0, StageId::HiddenLayers);
        assert_eq!(b.get(StageId::CpuKernel), 99_999.0);
        assert_eq!(b.iter().count(), StageId::FRAME_PATH.len());
    }

    #[test]
    fn offload_makes_input_layer_the_bottleneck() {
        // §III-C: after offloading the hidden layers, "it is the input
        // layer which now defines the bottleneck".
        let b = StageBudget::paper_baseline().with(StageId::HiddenLayers, 30.0);
        assert_eq!(b.bottleneck().0, StageId::InputLayer);
    }
}
