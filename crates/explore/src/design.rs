//! Design-point vocabulary: topology-edit subsets, hidden precision
//! profiles and engine folds, and their mapping to a [`ModelSpec`].

use tincy_core::{tiny_yolo, transform_a, transform_bc, transform_d};
use tincy_nn::{FoldSpec, LayerSpec, ModelSpec, NetworkSpec};
use tincy_quant::PrecisionConfig;

/// A subset of the paper's §III-E algorithmic transformations. (b) and
/// (c) travel together, as in [`tincy_core::transform_bc`]: widening
/// layer 3 compensates for slimming layers 13/14.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EditSet {
    /// (a): leaky ReLU → ReLU.
    pub a: bool,
    /// (b)+(c): widen layer 3 to 64 channels, slim layers 13/14 to 512.
    pub bc: bool,
    /// (d): drop the first max-pool, stride-2 first convolution.
    pub d: bool,
}

impl EditSet {
    /// Every subset, in a fixed enumeration order (the sweep order).
    pub const ALL: [EditSet; 8] = [
        EditSet::of(false, false, false),
        EditSet::of(true, false, false),
        EditSet::of(false, true, false),
        EditSet::of(false, false, true),
        EditSet::of(true, true, false),
        EditSet::of(true, false, true),
        EditSet::of(false, true, true),
        EditSet::of(true, true, true),
    ];

    const fn of(a: bool, bc: bool, d: bool) -> Self {
        Self { a, bc, d }
    }

    /// The paper's shipped subset: all four transformations.
    pub const PAPER: EditSet = EditSet {
        a: true,
        bc: true,
        d: true,
    };

    /// Human/JSON label, e.g. `"a+bc+d"`; `"none"` for the empty set.
    pub fn label(&self) -> String {
        let mut parts = Vec::new();
        if self.a {
            parts.push("a");
        }
        if self.bc {
            parts.push("bc");
        }
        if self.d {
            parts.push("d");
        }
        if parts.is_empty() {
            "none".to_owned()
        } else {
            parts.join("+")
        }
    }

    /// Applies the subset's rewrites to a network.
    pub fn apply(&self, mut spec: NetworkSpec) -> NetworkSpec {
        if self.a {
            spec = transform_a(spec);
        }
        if self.bc {
            spec = transform_bc(spec);
        }
        if self.d {
            spec = transform_d(spec);
        }
        spec
    }
}

/// Precision assignment for the hidden convolutions (the first and last
/// convolution always stay `[W8A8]` — quantization sensitive, §III-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HiddenProfile {
    /// Uniform `[W1A3]` — the paper's shipped choice.
    W1A3,
    /// Uniform `[W1A1]` — the most aggressive offloadable profile.
    W1A1,
    /// Early layers `[W1A3]`, late layers `[W1A1]` (late feature maps
    /// tolerate harder quantization).
    MixedA3A1,
    /// Conservative `[W8A8]` everywhere: no fabric engine, hidden layers
    /// stay on the CPU.
    W8A8,
}

impl HiddenProfile {
    /// Every profile, in sweep order.
    pub const ALL: [HiddenProfile; 4] = [
        HiddenProfile::W1A3,
        HiddenProfile::W1A1,
        HiddenProfile::MixedA3A1,
        HiddenProfile::W8A8,
    ];

    /// Lowercase label used in point ids and JSON.
    pub fn label(&self) -> &'static str {
        match self {
            HiddenProfile::W1A3 => "w1a3",
            HiddenProfile::W1A1 => "w1a1",
            HiddenProfile::MixedA3A1 => "mixed",
            HiddenProfile::W8A8 => "w8a8",
        }
    }

    /// Whether the profile's hidden layers can run on the QNN engine.
    pub fn offloadable(&self) -> bool {
        !matches!(self, HiddenProfile::W8A8)
    }

    /// Precision of hidden convolution `i` of `n`.
    fn precision(&self, i: usize, n: usize) -> PrecisionConfig {
        match self {
            HiddenProfile::W1A3 => PrecisionConfig::W1A3,
            HiddenProfile::W1A1 => PrecisionConfig::W1A1,
            HiddenProfile::MixedA3A1 => {
                if i < n.div_ceil(2) {
                    PrecisionConfig::W1A3
                } else {
                    PrecisionConfig::W1A1
                }
            }
            HiddenProfile::W8A8 => PrecisionConfig::W8A8,
        }
    }

    /// Quantizes a network under this profile: first and last conv to
    /// `[W8A8]`, hidden convs per the profile. The `W1A3` profile
    /// reproduces [`tincy_core::quantize_for_fabric`] exactly.
    pub fn quantize(&self, mut spec: NetworkSpec) -> NetworkSpec {
        let conv_positions: Vec<usize> = spec
            .layers
            .iter()
            .enumerate()
            .filter_map(|(i, l)| matches!(l, LayerSpec::Conv(_)).then_some(i))
            .collect();
        let hidden = conv_positions.len().saturating_sub(2);
        for (n, &i) in conv_positions.iter().enumerate() {
            if let LayerSpec::Conv(c) = &mut spec.layers[i] {
                c.precision = if n == 0 || n + 1 == conv_positions.len() {
                    PrecisionConfig::W8A8
                } else {
                    self.precision(n - 1, hidden)
                };
            }
        }
        spec
    }
}

/// One candidate design: a topology-edit subset, a hidden precision
/// profile and an engine fold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DesignPoint {
    /// Applied topology rewrites.
    pub edits: EditSet,
    /// Hidden-layer precision profile.
    pub profile: HiddenProfile,
    /// Engine output-channel parallelism.
    pub pe: usize,
    /// Engine dot-product parallelism.
    pub simd: usize,
}

impl DesignPoint {
    /// The paper's shipped configuration: (a)–(d), `[W1A3]` hidden
    /// layers, a 16×16 engine.
    pub const PAPER: DesignPoint = DesignPoint {
        edits: EditSet::PAPER,
        profile: HiddenProfile::W1A3,
        pe: 16,
        simd: 16,
    };

    /// Stable identifier, e.g. `"a+bc+d/w1a3/pe16x16"`.
    pub fn id(&self) -> String {
        format!(
            "{}/{}/pe{}x{}",
            self.edits.label(),
            self.profile.label(),
            self.pe,
            self.simd
        )
    }

    /// The quantized network this point describes (Tiny YOLO family,
    /// 416×416 input).
    pub fn network(&self) -> NetworkSpec {
        self.profile.quantize(self.edits.apply(tiny_yolo()))
    }

    /// The engine folding this point describes (clock and pipeline depth
    /// stay at the shipped values; only the parallelism varies).
    pub fn fold(&self) -> FoldSpec {
        FoldSpec {
            pe: self.pe,
            simd: self.simd,
            ..FoldSpec::SHIPPED
        }
    }

    /// The full serializable design point, instantiable by every layer of
    /// the stack (`tincy-train`, `tincy-serve`, …).
    pub fn model(&self) -> ModelSpec {
        ModelSpec {
            name: format!(
                "tincy-dse-{}-{}-pe{}x{}",
                self.edits.label().replace('+', "_"),
                self.profile.label(),
                self.pe,
                self.simd
            ),
            network: self.network(),
            fold: self.fold(),
            act_step: 0.125,
            seed: 1,
        }
    }

    /// Checks fold legality against the network: the fold must divide
    /// every offloaded layer's geometry so the engine schedule has no
    /// ragged remainder. Non-offloadable profiles have no engine and any
    /// fold is trivially legal.
    ///
    /// # Errors
    ///
    /// Describes the first violated constraint.
    pub fn legal_fold(&self) -> Result<(), String> {
        if self.pe == 0 || self.simd == 0 {
            return Err("fold parallelism must be positive".to_owned());
        }
        if !self.profile.offloadable() {
            return Ok(());
        }
        let spec = self.network();
        for (conv, in_shape) in hidden_convs(&spec) {
            if !conv.filters.is_multiple_of(self.pe) {
                return Err(format!(
                    "pe {} does not divide {} output channels",
                    self.pe, conv.filters
                ));
            }
            let dot = conv.geom().dot_length(in_shape.channels);
            if !dot.is_multiple_of(self.simd) {
                return Err(format!(
                    "simd {} does not divide dot length {dot}",
                    self.simd
                ));
            }
        }
        Ok(())
    }
}

/// The hidden convolutions of a network (every conv except the first and
/// last), paired with their input shapes.
pub fn hidden_convs(spec: &NetworkSpec) -> Vec<(&tincy_nn::ConvSpec, tincy_tensor::Shape3)> {
    let conv_positions: Vec<usize> = spec
        .layers
        .iter()
        .enumerate()
        .filter_map(|(i, l)| matches!(l, LayerSpec::Conv(_)).then_some(i))
        .collect();
    if conv_positions.len() < 3 {
        return Vec::new();
    }
    conv_positions[1..conv_positions.len() - 1]
        .iter()
        .map(|&i| match &spec.layers[i] {
            LayerSpec::Conv(c) => (c, spec.input_shape_of(i)),
            _ => unreachable!("position filtered to convs"),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tincy_core::tincy_yolo;

    #[test]
    fn paper_point_network_is_tincy_yolo() {
        assert_eq!(DesignPoint::PAPER.network(), tincy_yolo());
        assert_eq!(DesignPoint::PAPER.fold(), FoldSpec::SHIPPED);
    }

    #[test]
    fn every_subset_and_profile_validates() {
        for edits in EditSet::ALL {
            for profile in HiddenProfile::ALL {
                let point = DesignPoint {
                    edits,
                    profile,
                    pe: 16,
                    simd: 16,
                };
                point.network().validate().unwrap_or_else(|e| {
                    panic!("{} fails validation: {e}", point.id());
                });
            }
        }
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(EditSet::PAPER.label(), "a+bc+d");
        assert_eq!(
            EditSet {
                a: false,
                bc: false,
                d: false
            }
            .label(),
            "none"
        );
        assert_eq!(DesignPoint::PAPER.id(), "a+bc+d/w1a3/pe16x16");
    }

    #[test]
    fn fold_legality_tracks_layer_geometry() {
        // The first hidden layer sees 16 input channels: dot length 144.
        // SIMD 16 divides it, 32 does not.
        assert!(DesignPoint::PAPER.legal_fold().is_ok());
        let wide_simd = DesignPoint {
            simd: 32,
            ..DesignPoint::PAPER
        };
        assert!(wide_simd.legal_fold().is_err());
        // Without (b), layer 3 keeps 32 output channels: PE 64 is ragged.
        let no_bc = DesignPoint {
            edits: EditSet {
                bc: false,
                ..EditSet::PAPER
            },
            pe: 64,
            simd: 16,
            profile: HiddenProfile::W1A3,
        };
        assert!(no_bc.legal_fold().is_err());
        let with_bc = DesignPoint {
            pe: 64,
            simd: 16,
            ..DesignPoint::PAPER
        };
        assert!(with_bc.legal_fold().is_ok());
    }

    #[test]
    fn cpu_profile_accepts_any_fold() {
        let point = DesignPoint {
            profile: HiddenProfile::W8A8,
            pe: 7,
            simd: 1000,
            ..DesignPoint::PAPER
        };
        assert!(point.legal_fold().is_ok());
    }

    #[test]
    fn mixed_profile_splits_early_late() {
        let point = DesignPoint {
            profile: HiddenProfile::MixedA3A1,
            ..DesignPoint::PAPER
        };
        let spec = point.network();
        let acts: Vec<_> = hidden_convs(&spec)
            .iter()
            .map(|(c, _)| c.precision.activations)
            .collect();
        assert_eq!(acts.len(), 7);
        assert!(acts[..4]
            .iter()
            .all(|a| *a == tincy_quant::ActPrecision::A3));
        assert!(acts[4..]
            .iter()
            .all(|a| *a == tincy_quant::ActPrecision::A1));
    }

    #[test]
    fn offloading_requires_edit_a() {
        let without_a = DesignPoint {
            edits: EditSet {
                a: false,
                ..EditSet::PAPER
            },
            ..DesignPoint::PAPER
        };
        let segment = |point: DesignPoint| tincy_nn::OffloadSegment::of(&point.network());
        assert!(segment(without_a).is_err());
        assert!(segment(DesignPoint::PAPER).is_ok());
    }
}
