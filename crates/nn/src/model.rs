//! Model descriptions: topology + folding + quantization in one value.
//!
//! Historically the fold parameters lived in `EngineConfig` constructor
//! arguments and the per-layer configs in hand-built `NetworkSpec`s, so a
//! concrete design existed only as code. [`ModelSpec`] lifts the whole
//! co-design point — network topology, per-layer precisions, PE/SIMD
//! folding, activation step, weight seed — into one value, so the
//! design-space explorer can emit a point (named by its id) and the
//! builder/trainer/server can instantiate it without code changes.

use crate::error::NnError;
use crate::spec::NetworkSpec;

/// MVTU folding and clocking, as pure data (`tincy_finn::EngineConfig`
/// is this type).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FoldSpec {
    /// Output-channel parallelism of the MVTU.
    pub pe: usize,
    /// Dot-element parallelism of the MVTU.
    pub simd: usize,
    /// Fabric clock in Hz.
    pub clock_hz: u64,
    /// Pipeline fill/drain overhead per layer invocation, in cycles.
    pub pipeline_latency: u64,
}

impl FoldSpec {
    /// The paper's shipped operating point: 16×16 at 300 MHz.
    pub const SHIPPED: Self = Self {
        pe: 16,
        simd: 16,
        clock_hz: 300_000_000,
        pipeline_latency: 256,
    };
}

impl Default for FoldSpec {
    fn default() -> Self {
        Self::SHIPPED
    }
}

/// A complete design point: named topology with per-layer
/// precisions, the fabric folding, and the quantization/initialization
/// parameters every consumer (builder, trainer, server, explorer) needs.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelSpec {
    /// Human-readable design name (used in reports and registries).
    pub name: String,
    /// Topology with per-layer precision annotations.
    pub network: NetworkSpec,
    /// MVTU folding for the offloaded hidden stack.
    pub fold: FoldSpec,
    /// Activation quantization step for the fabric interface.
    pub act_step: f32,
    /// Weight initialization seed of the CPU layers (and of a trainable
    /// lowering). It does **not** pick the hidden stack's initial weights:
    /// the fabric backend keys those on the offload segment's input volume
    /// alone, so two seeds of one topology serve the same hidden weights
    /// until `load_weights` replaces them.
    pub seed: u64,
}

impl ModelSpec {
    /// Validates the topology and the folding.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidSpec`] for inconsistent geometry or zero
    /// fold/clock parameters.
    pub fn validate(&self) -> Result<(), NnError> {
        self.network.validate()?;
        if self.fold.pe == 0 || self.fold.simd == 0 || self.fold.clock_hz == 0 {
            return Err(NnError::InvalidSpec {
                what: "fold pe, simd and clock must be nonzero".to_owned(),
            });
        }
        if !(self.act_step.is_finite() && self.act_step > 0.0) {
            return Err(NnError::InvalidSpec {
                what: format!(
                    "act_step must be positive and finite, got {}",
                    self.act_step
                ),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activation::Activation;
    use crate::spec::{ConvSpec, LayerSpec, OffloadSpec, PoolSpec, RegionSpec};
    use tincy_quant::PrecisionConfig;
    use tincy_tensor::Shape3;

    fn sample() -> ModelSpec {
        let network = NetworkSpec::new(Shape3::new(3, 64, 64))
            .with(LayerSpec::Conv(ConvSpec {
                filters: 16,
                size: 3,
                stride: 2,
                pad: 1,
                activation: Activation::Relu,
                batch_normalize: true,
                precision: PrecisionConfig::W8A8,
            }))
            .with(LayerSpec::MaxPool(PoolSpec { size: 2, stride: 2 }))
            .with(LayerSpec::Offload(OffloadSpec {
                library: "fabric.so".to_owned(),
                network: "hidden.json".to_owned(),
                weights: "binparam/".to_owned(),
                out_shape: Shape3::new(125, 2, 2),
                ops: 123_456,
            }))
            .with(LayerSpec::Conv(ConvSpec {
                filters: 125,
                size: 1,
                stride: 1,
                pad: 0,
                activation: Activation::Linear,
                batch_normalize: false,
                precision: PrecisionConfig::W8A8,
            }))
            .with(LayerSpec::Region(RegionSpec {
                classes: 20,
                num: 5,
                anchors: vec![
                    (1.08, 1.19),
                    (3.42, 4.41),
                    (6.63, 11.38),
                    (9.42, 5.11),
                    (16.62, 10.52),
                ],
            }));
        ModelSpec {
            name: "sample".to_owned(),
            network,
            fold: FoldSpec::SHIPPED,
            act_step: 0.125,
            seed: 7,
        }
    }

    #[test]
    fn shipped_fold_matches_engine_default() {
        let fold = FoldSpec::default();
        assert_eq!(fold.pe, 16);
        assert_eq!(fold.simd, 16);
    }

    #[test]
    fn validation_rejects_bad_act_step() {
        let mut spec = sample();
        spec.act_step = 0.0;
        assert!(spec.validate().is_err());
        // A zero fold dimension is refused the same way.
        let mut spec = sample();
        spec.fold.pe = 0;
        assert!(spec.validate().is_err());
    }
}
