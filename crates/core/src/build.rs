//! System assembly: wiring the fabric backend into a Tincy YOLO network.
//!
//! Mirrors the paper's deployment (Fig 4): the network configuration keeps
//! the CPU-resident input and output layers as ordinary `[convolutional]`
//! sections and replaces the whole hidden stack with one `[offload]`
//! section backed by `library=fabric.so` — here, the FINN simulator of
//! `tincy-finn`.

use tincy_finn::{EngineConfig, FabricBackend, FaultPlan, FpgaDevice, FABRIC_LIBRARY};
use tincy_nn::topology::tincy_yolo_with_input;
use tincy_nn::{
    BackendRegistry, Device, FoldSpec, LayerSpec, ModelSpec, Network, NetworkSpec, NnError,
    OffloadHealth, OffloadSegment, OffloadSpec, RegionLayer, RegionParams, RetryPolicy,
};

/// Configuration of the assembled system.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SystemConfig {
    /// Network input size (multiple of 32; the paper uses 416).
    pub input_size: usize,
    /// Uniform activation quantization step of the hidden feature maps.
    pub act_step: f32,
    /// Fabric engine folding/clock.
    pub engine: EngineConfig,
    /// Weight-initialization seed.
    pub seed: u64,
    /// Deterministic accelerator fault schedule ([`FaultPlan::none`] runs
    /// fault-free).
    pub fault_plan: FaultPlan,
    /// Host-side retry/backoff/fallback policy for offload faults.
    pub retry: RetryPolicy,
}

impl Default for SystemConfig {
    fn default() -> Self {
        Self {
            input_size: 416,
            act_step: 0.125,
            engine: EngineConfig::default(),
            seed: 1,
            fault_plan: FaultPlan::none(),
            retry: RetryPolicy::default(),
        }
    }
}

impl SystemConfig {
    /// The design point this configuration describes: the Tincy topology
    /// at the configured input size, with this configuration's folding,
    /// activation step and seed.
    pub fn model(&self) -> ModelSpec {
        ModelSpec {
            act_step: self.act_step,
            fold: self.engine,
            seed: self.seed,
            ..tincy_model(self.input_size)
        }
    }
}

/// The paper's shipped design point as a [`ModelSpec`]: Tincy YOLO at
/// the given input size, 16×16 folding at 300 MHz, eighth activation
/// step.
pub fn tincy_model(input_size: usize) -> ModelSpec {
    ModelSpec {
        name: "tincy-yolo".to_owned(),
        network: tincy_yolo_with_input(input_size),
        fold: FoldSpec::SHIPPED,
        act_step: 0.125,
        seed: 1,
    }
}

/// A backend registry with the fabric simulator of a design point's
/// segment registered under [`FABRIC_LIBRARY`].
fn registry_for(model: &ModelSpec, segment: OffloadSegment) -> BackendRegistry {
    let mut registry = BackendRegistry::new();
    let (engine, act_step) = (model.fold, model.act_step);
    registry.register(FABRIC_LIBRARY, move || {
        Box::new(FabricBackend::new(segment.clone(), engine, act_step))
    });
    registry
}

/// Builds a backend registry with the fabric simulator registered under
/// [`FABRIC_LIBRARY`].
pub fn fabric_registry(config: &SystemConfig) -> BackendRegistry {
    let model = config.model();
    let segment = OffloadSegment::of(&model.network).expect("Tincy YOLO has one ReLU segment");
    registry_for(&model, segment)
}

/// Applies the system's retry policy to the offload layer of a layer
/// stack (a network has at most one: its [`OffloadSegment`]) and returns
/// its health handle.
pub fn arm_offload_resilience(
    layers: &mut [Box<dyn tincy_nn::Layer>],
    config: &SystemConfig,
) -> Option<OffloadHealth> {
    let at = offload_position(layers)?;
    let device = layers[at].as_offload_mut()?.device_mut();
    device.retry = config.retry;
    Some(device.health())
}

/// Position of the offload layer in a layer stack, so integrations that
/// micro-batch the accelerated segment (the serving layer) can split the
/// stack into CPU prologue / offload / CPU epilogue without owning the
/// network container.
pub fn offload_position(layers: &mut [Box<dyn tincy_nn::Layer>]) -> Option<usize> {
    layers
        .iter_mut()
        .position(|layer| layer.as_offload_mut().is_some())
}

/// The offloaded network specification for a design point (Fig 4): CPU
/// layers stay as-is and the model's [`OffloadSegment`] collapses into one
/// `[offload]` section. A model without offloadable layers comes back
/// unchanged (a pure CPU deployment).
///
/// # Panics
///
/// Panics on a model whose segment [`OffloadSegment::of`] refuses;
/// [`build_network_for`] returns that error instead.
pub fn offloaded_spec_of(model: &ModelSpec) -> NetworkSpec {
    let segment = OffloadSegment::of(&model.network).unwrap_or_else(|e| panic!("{e}"));
    collapse(model, &segment)
}

fn collapse(model: &ModelSpec, segment: &OffloadSegment) -> NetworkSpec {
    let mut spec = model.network.clone();
    if let Some(out_shape) = segment.out_shape() {
        let offload = LayerSpec::Offload(OffloadSpec {
            library: FABRIC_LIBRARY.to_owned(),
            network: format!("{}-offload.json", model.name),
            weights: format!("binparam-{}/", model.name),
            out_shape,
            ops: segment.ops(),
        });
        spec.layers.splice(segment.span(), [offload]);
    }
    spec
}

/// The offloaded Tincy network specification at an input size.
pub fn offloaded_spec(input_size: usize) -> NetworkSpec {
    offloaded_spec_of(&tincy_model(input_size))
}

/// Builds the runnable network for a design point with random
/// (deterministic) weights: offloadable layers on the fabric simulator,
/// everything else on the CPU. The offload layer runs on its own
/// [`Device`], faulting on `fault_plan`'s schedule.
///
/// # Errors
///
/// Returns [`NnError::InvalidSpec`] for a segment [`OffloadSegment::of`]
/// refuses, and propagates network construction failures.
pub fn build_network_for(model: &ModelSpec, fault_plan: FaultPlan) -> Result<Network, NnError> {
    let segment = OffloadSegment::of(&model.network)?;
    let spec = collapse(model, &segment);
    let mut net = Network::from_spec(&spec, &registry_for(model, segment), model.seed)?;
    for i in 0..net.num_layers() {
        if let Some(offload) = net.layer_mut(i).as_offload_mut() {
            *offload.device_mut() = xczu3eg_device(fault_plan, RetryPolicy::default());
        }
    }
    Ok(net)
}

/// A device of the one part this reproduction targets, the XCZU3EG,
/// faulting on `plan` under `retry`. A bitstream loss costs the next
/// invocation the part's full reload over its 128-bit configuration port:
/// the plan's penalty is priced here, by the crate that knows the part.
pub fn xczu3eg_device(plan: FaultPlan, retry: RetryPolicy) -> Device {
    let reload_penalty_cycles = FpgaDevice::XCZU3EG.bitstream_reload_cycles(128);
    Device::new(
        FaultPlan {
            reload_penalty_cycles,
            ..plan
        },
        retry,
    )
}

/// Builds the runnable offloaded network with random (deterministic)
/// weights.
///
/// # Errors
///
/// Propagates network construction failures.
pub fn build_offloaded_network(config: &SystemConfig) -> Result<Network, NnError> {
    build_network_for(&config.model(), config.fault_plan)
}

/// Non-maximum-suppression IoU threshold of every detection path (demo
/// and serving).
pub const NMS_IOU: f32 = 0.45;

/// The detection decoder a specification ends in: its trailing region
/// layer over the feature map that layer receives. Offloading never
/// touches the tail, so a model's full topology and its offloaded
/// collapse decode alike.
///
/// # Errors
///
/// Returns [`NnError::InvalidSpec`] if the specification does not end in
/// a region layer.
pub fn region_decoder(spec: &NetworkSpec) -> Result<RegionLayer, NnError> {
    match spec.layers.last() {
        Some(LayerSpec::Region(r)) => RegionLayer::new(
            spec.input_shape_of(spec.layers.len() - 1),
            RegionParams::from(r),
        ),
        _ => Err(NnError::InvalidSpec {
            what: "a detector's specification must end in a region layer".to_owned(),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tincy_nn::Layer as _;
    use tincy_tensor::Shape3;

    #[test]
    fn offloaded_spec_preserves_total_ops() {
        // The offload declaration carries the subsumed ops, so total
        // accounting is invariant under offloading (pools excepted: they
        // ride inside the offload and their comparison ops are not dot
        // products).
        let full = tincy_yolo_with_input(416);
        let off = offloaded_spec(416);
        assert!(off.validate().is_ok());
        let (reduced, _) = full.dot_product_ops();
        match &off.layers[1] {
            LayerSpec::Offload(o) => assert_eq!(o.ops, reduced),
            other => panic!("expected offload, got {other:?}"),
        }
        assert_eq!(off.output_shape(), full.output_shape());
    }

    #[test]
    fn offloaded_network_builds_and_runs_scaled() {
        let config = SystemConfig {
            input_size: 32,
            seed: 3,
            ..Default::default()
        };
        let net = build_offloaded_network(&config).unwrap();
        assert_eq!(net.num_layers(), 4); // conv, offload, conv, region
        let input = tincy_tensor::Tensor::from_fn(Shape3::new(3, 32, 32), |c, y, x| {
            ((c + y + x) % 9) as f32 / 9.0
        });
        let out = net.forward(&input).unwrap();
        assert_eq!(out.shape(), Shape3::new(125, 1, 1));
        assert!(out.as_slice().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn a_seeded_plan_reloads_the_xczu3eg_bitstream() {
        // `--fault-seed`'s plan, built as the demo builds it: its first
        // bitstream loss charges the part's full reload.
        let config = SystemConfig {
            input_size: 32,
            fault_plan: FaultPlan::from_seed(7),
            ..Default::default()
        };
        let mut net = build_offloaded_network(&config).unwrap();
        let offload = net.layer_mut(1).as_offload_mut().expect("offload layer");
        let faults = offload.device_mut().faults().expect("a seeded plan faults");
        let lost =
            (0..100_000).any(|_| faults.next_fault() == Some(tincy_nn::FaultKind::BitstreamLost));
        assert!(lost, "seed 7 loses the bitstream");
        let reload = FpgaDevice::XCZU3EG.bitstream_reload_cycles(128);
        assert_eq!(faults.take_reload_penalty(), reload);
    }

    #[test]
    fn offloaded_spec_of_keeps_fig4_naming() {
        // The generalized segmentation reproduces the historical Fig 4
        // section for the shipped model, including the artifact names.
        let spec = offloaded_spec(416);
        match &spec.layers[1] {
            LayerSpec::Offload(o) => {
                assert_eq!(o.network, "tincy-yolo-offload.json");
                assert_eq!(o.weights, "binparam-tincy-yolo/");
                assert_eq!(o.out_shape, Shape3::new(512, 13, 13));
            }
            other => panic!("expected offload, got {other:?}"),
        }
    }

    #[test]
    fn model_without_offloadable_layers_passes_through() {
        let mut model = tincy_model(416);
        for layer in &mut model.network.layers {
            if let LayerSpec::Conv(c) = layer {
                c.precision = tincy_quant::PrecisionConfig::W8A8;
            }
        }
        let spec = offloaded_spec_of(&model);
        assert_eq!(spec, model.network);
    }

    #[test]
    fn system_config_model_round_trips_the_fold() {
        let config = SystemConfig {
            input_size: 32,
            seed: 9,
            ..Default::default()
        };
        let model = config.model();
        assert_eq!(model.fold, config.engine);
        assert_eq!(model.seed, 9);
        assert_eq!(model.network, tincy_yolo_with_input(32));
    }

    #[test]
    fn leaky_or_linear_hidden_convs_are_an_error_not_a_relu_network() {
        for activation in [tincy_nn::Activation::Leaky, tincy_nn::Activation::Linear] {
            let mut model = tincy_model(32);
            for layer in &mut model.network.layers {
                match layer {
                    LayerSpec::Conv(c) if c.precision.offloadable() => c.activation = activation,
                    _ => {}
                }
            }
            let err = build_network_for(&model, FaultPlan::none()).unwrap_err();
            assert!(matches!(err, NnError::InvalidSpec { .. }), "{err}");
        }
    }

    #[test]
    fn a_model_with_two_offloadable_runs_is_refused_naming_the_runs() {
        // A hidden conv back on the CPU splits the fabric's run in two.
        let mut model = tincy_model(32);
        if let LayerSpec::Conv(c) = &mut model.network.layers[5] {
            c.precision = tincy_quant::PrecisionConfig::W8A8;
        }
        let err = build_network_for(&model, FaultPlan::none()).unwrap_err();
        assert!(matches!(err, NnError::InvalidSpec { .. }), "{err}");
        assert!(err.to_string().contains("[1..5, 7..13]"), "{err}");
    }

    #[test]
    fn region_decoder_needs_a_trailing_region_layer() {
        let mut full = tincy_yolo_with_input(64);
        for spec in [&full, &offloaded_spec(64)] {
            let decoder = region_decoder(spec).unwrap();
            assert_eq!(decoder.input_shape(), Shape3::new(125, 2, 2));
        }
        full.layers.pop();
        let err = region_decoder(&full).unwrap_err();
        assert!(matches!(err, NnError::InvalidSpec { .. }), "{err}");
    }

    #[test]
    fn registry_serves_fabric_library() {
        let registry = fabric_registry(&SystemConfig::default());
        assert!(registry.create(FABRIC_LIBRARY).is_ok());
        assert!(registry.create("other.so").is_err());
    }

    #[test]
    fn fault_plan_arms_the_offload_layers_device() {
        let config = SystemConfig {
            input_size: 32,
            seed: 3,
            fault_plan: FaultPlan::outage(0, 1),
            ..Default::default()
        };
        let mut layers = build_offloaded_network(&config).unwrap().into_layers();
        let at = offload_position(&mut layers).expect("an offload layer");
        let offload = layers[at].as_offload_mut().expect("offload layer");
        assert!(
            offload.device_mut().faults().is_some(),
            "fault injection is armed"
        );
    }

    #[test]
    fn arm_offload_resilience_finds_the_offload_layer() {
        let config = SystemConfig {
            input_size: 32,
            seed: 3,
            retry: tincy_nn::RetryPolicy::fail_fast(),
            ..Default::default()
        };
        let net = build_offloaded_network(&config).unwrap();
        let mut layers = net.into_layers();
        let health = arm_offload_resilience(&mut layers, &config);
        assert!(
            health.is_some(),
            "the offloaded network contains an offload layer"
        );
        assert_eq!(
            health.unwrap().snapshot(),
            tincy_nn::OffloadStats::default()
        );
    }
}
