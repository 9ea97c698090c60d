//! Serializable model descriptions: topology + folding + quantization in
//! one document.
//!
//! Historically the fold parameters lived in `EngineConfig` constructor
//! arguments and the per-layer configs in hand-built `NetworkSpec`s, so a
//! concrete design existed only as code. [`ModelSpec`] lifts the whole
//! co-design point — network topology, per-layer precisions, PE/SIMD
//! folding, activation step, weight seed — into one value with a JSON
//! round-trip, so the design-space explorer can emit a point and the
//! builder/trainer/server can instantiate it without code changes.

use crate::activation::Activation;
use crate::error::NnError;
use crate::spec::{ConvSpec, LayerSpec, NetworkSpec, OffloadSpec, PoolSpec, RegionSpec};
use tincy_json::{parse, JsonArray, JsonObject, JsonValue};
use tincy_quant::PrecisionConfig;
use tincy_tensor::Shape3;

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

    /// Binary MACs per cycle at this folding.
    pub const fn macs_per_cycle(&self) -> u64 {
        (self.pe * self.simd) as u64
    }
}

impl Default for FoldSpec {
    fn default() -> Self {
        Self::SHIPPED
    }
}

/// A complete, serializable design point: named topology with per-layer
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

    /// Serializes to a single-line JSON document.
    pub fn to_json(&self) -> String {
        let fold = JsonObject::new()
            .u64("pe", self.fold.pe as u64)
            .u64("simd", self.fold.simd as u64)
            .u64("clock_hz", self.fold.clock_hz)
            .u64("pipeline_latency", self.fold.pipeline_latency)
            .finish();
        let mut layers = JsonArray::new();
        for layer in &self.network.layers {
            layers.raw(&layer_json(layer));
        }
        let network = JsonObject::new()
            .raw("input", &shape_json(self.network.input))
            .raw("layers", &layers.finish())
            .finish();
        JsonObject::new()
            .str("name", &self.name)
            .f64("act_step", f64::from(self.act_step))
            .u64("seed", self.seed)
            .raw("fold", &fold)
            .raw("network", &network)
            .finish()
    }

    /// Parses a document produced by [`to_json`](Self::to_json) (or a
    /// hand-written one) and validates it.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::Parse`] for malformed documents and
    /// [`NnError::InvalidSpec`] if the parsed design is inconsistent.
    pub fn from_json(text: &str) -> Result<Self, NnError> {
        let doc = parse(text).map_err(bad)?;
        let name = doc
            .get("name")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| bad("missing string field 'name'"))?
            .to_owned();
        let act_step = field_f64(&doc, "act_step")? as f32;
        let seed = field_u64(&doc, "seed")?;
        let fold_doc = doc.get("fold").ok_or_else(|| bad("missing 'fold'"))?;
        let fold = FoldSpec {
            pe: field_usize(fold_doc, "pe")?,
            simd: field_usize(fold_doc, "simd")?,
            clock_hz: field_u64(fold_doc, "clock_hz")?,
            pipeline_latency: field_u64(fold_doc, "pipeline_latency")?,
        };
        let net_doc = doc.get("network").ok_or_else(|| bad("missing 'network'"))?;
        let input = parse_shape(
            net_doc
                .get("input")
                .ok_or_else(|| bad("missing 'network.input'"))?,
        )?;
        let layer_docs = net_doc
            .get("layers")
            .and_then(JsonValue::as_arr)
            .ok_or_else(|| bad("missing array field 'network.layers'"))?;
        let mut network = NetworkSpec::new(input);
        for layer_doc in layer_docs {
            network.layers.push(parse_layer(layer_doc)?);
        }
        let spec = Self {
            name,
            network,
            fold,
            act_step,
            seed,
        };
        spec.validate()?;
        Ok(spec)
    }
}

fn bad(what: impl std::fmt::Display) -> NnError {
    NnError::Parse {
        line: 0,
        what: format!("model spec: {what}"),
    }
}

fn field_f64(doc: &JsonValue, key: &str) -> Result<f64, NnError> {
    doc.get(key)
        .and_then(JsonValue::as_f64)
        .ok_or_else(|| bad(format!("missing numeric field '{key}'")))
}

fn field_u64(doc: &JsonValue, key: &str) -> Result<u64, NnError> {
    let v = field_f64(doc, key)?;
    if v < 0.0 || v.fract() != 0.0 || v > u64::MAX as f64 {
        return Err(bad(format!("field '{key}' is not an unsigned integer")));
    }
    Ok(v as u64)
}

fn field_usize(doc: &JsonValue, key: &str) -> Result<usize, NnError> {
    usize::try_from(field_u64(doc, key)?).map_err(|_| bad(format!("field '{key}' overflows usize")))
}

fn shape_json(shape: Shape3) -> String {
    tincy_json::array_u64(&[
        shape.channels as u64,
        shape.height as u64,
        shape.width as u64,
    ])
}

fn parse_shape(doc: &JsonValue) -> Result<Shape3, NnError> {
    let items = doc
        .as_arr()
        .filter(|a| a.len() == 3)
        .ok_or_else(|| bad("shape must be a [channels, height, width] triple"))?;
    let dim = |v: &JsonValue| {
        v.as_f64()
            .filter(|n| *n >= 0.0 && n.fract() == 0.0)
            .map(|n| n as usize)
            .ok_or_else(|| bad("shape dimensions must be unsigned integers"))
    };
    Ok(Shape3::new(
        dim(&items[0])?,
        dim(&items[1])?,
        dim(&items[2])?,
    ))
}

fn layer_json(layer: &LayerSpec) -> String {
    match layer {
        LayerSpec::Conv(c) => JsonObject::new()
            .str("type", "conv")
            .u64("filters", c.filters as u64)
            .u64("size", c.size as u64)
            .u64("stride", c.stride as u64)
            .u64("pad", c.pad as u64)
            .str("activation", c.activation.keyword())
            .bool("batch_normalize", c.batch_normalize)
            .str("precision", &c.precision.token())
            .finish(),
        LayerSpec::MaxPool(p) => JsonObject::new()
            .str("type", "pool")
            .u64("size", p.size as u64)
            .u64("stride", p.stride as u64)
            .finish(),
        LayerSpec::Region(r) => {
            let mut anchors = Vec::with_capacity(r.anchors.len() * 2);
            for (w, h) in &r.anchors {
                anchors.push(f64::from(*w));
                anchors.push(f64::from(*h));
            }
            JsonObject::new()
                .str("type", "region")
                .u64("classes", r.classes as u64)
                .u64("num", r.num as u64)
                .raw("anchors", &tincy_json::array_f64(&anchors))
                .finish()
        }
        LayerSpec::Offload(o) => JsonObject::new()
            .str("type", "offload")
            .str("library", &o.library)
            .str("network", &o.network)
            .str("weights", &o.weights)
            .raw("out_shape", &shape_json(o.out_shape))
            .u64("ops", o.ops)
            .finish(),
    }
}

fn parse_layer(doc: &JsonValue) -> Result<LayerSpec, NnError> {
    let kind = doc
        .get("type")
        .and_then(JsonValue::as_str)
        .ok_or_else(|| bad("layer without string field 'type'"))?;
    match kind {
        "conv" => {
            let activation = doc
                .get("activation")
                .and_then(JsonValue::as_str)
                .and_then(Activation::from_keyword)
                .ok_or_else(|| bad("conv layer with unknown activation"))?;
            let precision = doc
                .get("precision")
                .and_then(JsonValue::as_str)
                .ok_or_else(|| bad("conv layer without 'precision'"))?
                .parse::<PrecisionConfig>()
                .map_err(bad)?;
            Ok(LayerSpec::Conv(ConvSpec {
                filters: field_usize(doc, "filters")?,
                size: field_usize(doc, "size")?,
                stride: field_usize(doc, "stride")?,
                pad: field_usize(doc, "pad")?,
                activation,
                batch_normalize: matches!(doc.get("batch_normalize"), Some(JsonValue::Bool(true))),
                precision,
            }))
        }
        "pool" => Ok(LayerSpec::MaxPool(PoolSpec {
            size: field_usize(doc, "size")?,
            stride: field_usize(doc, "stride")?,
        })),
        "region" => {
            let flat = doc
                .get("anchors")
                .and_then(JsonValue::as_arr)
                .ok_or_else(|| bad("region layer without 'anchors' array"))?;
            if flat.len() % 2 != 0 {
                return Err(bad("region anchors must come in (w, h) pairs"));
            }
            let mut anchors = Vec::with_capacity(flat.len() / 2);
            for pair in flat.chunks_exact(2) {
                let w = pair[0]
                    .as_f64()
                    .ok_or_else(|| bad("region anchors must be numbers"))?;
                let h = pair[1]
                    .as_f64()
                    .ok_or_else(|| bad("region anchors must be numbers"))?;
                anchors.push((w as f32, h as f32));
            }
            Ok(LayerSpec::Region(RegionSpec {
                classes: field_usize(doc, "classes")?,
                num: field_usize(doc, "num")?,
                anchors,
            }))
        }
        "offload" => {
            let text = |key: &str| {
                doc.get(key)
                    .and_then(JsonValue::as_str)
                    .map(str::to_owned)
                    .ok_or_else(|| bad(format!("offload layer without string field '{key}'")))
            };
            Ok(LayerSpec::Offload(OffloadSpec {
                library: text("library")?,
                network: text("network")?,
                weights: text("weights")?,
                out_shape: parse_shape(
                    doc.get("out_shape")
                        .ok_or_else(|| bad("offload layer without 'out_shape'"))?,
                )?,
                ops: field_u64(doc, "ops")?,
            }))
        }
        other => Err(bad(format!("unknown layer type {other:?}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn json_round_trip_is_exact() {
        let spec = sample();
        let json = spec.to_json();
        let back = ModelSpec::from_json(&json).unwrap();
        assert_eq!(back, spec);
        // A second trip is byte-stable.
        assert_eq!(back.to_json(), json);
    }

    #[test]
    fn shipped_fold_matches_engine_default() {
        let fold = FoldSpec::default();
        assert_eq!(fold.pe, 16);
        assert_eq!(fold.simd, 16);
        assert_eq!(fold.macs_per_cycle(), 256);
    }

    #[test]
    fn malformed_documents_are_rejected() {
        for doc in [
            "",
            "{}",
            r#"{"name":"x","act_step":0.125,"seed":1,"fold":{"pe":0,"simd":16,"clock_hz":1,"pipeline_latency":0},"network":{"input":[3,8,8],"layers":[]}}"#,
            r#"{"name":"x","act_step":0.125,"seed":1,"fold":{"pe":1,"simd":1,"clock_hz":1,"pipeline_latency":0},"network":{"input":[3,8,8],"layers":[{"type":"warp"}]}}"#,
        ] {
            assert!(ModelSpec::from_json(doc).is_err(), "{doc:?} should fail");
        }
    }

    #[test]
    fn validation_rejects_bad_act_step() {
        let mut spec = sample();
        spec.act_step = 0.0;
        assert!(spec.validate().is_err());
    }
}
