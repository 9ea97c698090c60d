//! Integration of the Fig 3/4 offload mechanism across crates: the fabric
//! backend (FINN simulator) behind the Darknet-style layer life cycle.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use tincy::core::build::{fabric_registry, hidden_stack, offloaded_spec, SystemConfig};
use tincy::finn::FabricBackend;
use tincy::nn::{
    BackendRegistry, LayerSpec, Network, NnError, OffloadBackend, OffloadConfig, WeightsReader,
    WeightsWriter,
};
use tincy::tensor::{Shape3, Tensor};

#[test]
fn unknown_backend_fails_at_build_time() {
    let spec = offloaded_spec(32);
    let empty = BackendRegistry::new();
    match Network::from_spec(&spec, &empty, 0) {
        Err(NnError::UnknownBackend { library }) => assert_eq!(library, "fabric.so"),
        other => panic!("expected UnknownBackend, got {other:?}"),
    }
}

#[test]
fn fabric_backend_reports_hidden_ops_after_load() {
    let config = SystemConfig {
        input_size: 32,
        seed: 4,
        ..Default::default()
    };
    let registry = fabric_registry(&config);
    let spec = offloaded_spec(32);
    let mut net = Network::from_spec(&spec, &registry, 4).expect("buildable");
    let mut weights = Vec::new();
    net.save_weights(&mut weights).expect("weights serialize");
    net.load_weights(weights.as_slice()).expect("weights load");
    let LayerSpec::Offload(offload) = &spec.layers[1] else {
        panic!("layer 1 of the offloaded spec is not the offload layer");
    };
    assert_eq!(net.layer(1).kind(), "offload");
    assert!(offload.ops > 0);
    assert_eq!(net.layer(1).ops_per_frame(), offload.ops);
}

#[test]
fn destroy_hook_runs_on_drop() {
    struct DropProbe {
        flag: Arc<AtomicBool>,
        shape: Shape3,
    }
    impl OffloadBackend for DropProbe {
        fn library_name(&self) -> &str {
            "probe.so"
        }
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
        fn init(&mut self, config: &OffloadConfig) -> Result<(), NnError> {
            self.shape = config.output_shape;
            Ok(())
        }
        fn load_weights(&mut self, _: &mut WeightsReader<'_>) -> Result<(), NnError> {
            Ok(())
        }
        fn write_weights(&self, _: &mut WeightsWriter<'_>) -> Result<(), NnError> {
            Ok(())
        }
        fn forward(&self, input: &Tensor<f32>) -> Result<Tensor<f32>, NnError> {
            Ok(input.clone())
        }
        fn num_params(&self) -> usize {
            0
        }
        fn ops_per_frame(&self) -> u64 {
            0
        }
    }
    impl Drop for DropProbe {
        fn drop(&mut self) {
            self.flag.store(true, Ordering::SeqCst);
        }
    }

    let destroyed = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&destroyed);
    let mut registry = BackendRegistry::new();
    registry.register("probe.so", move || {
        Box::new(DropProbe {
            flag: Arc::clone(&flag),
            shape: Shape3::new(1, 1, 1),
        })
    });

    let cfg = "\
[net]
channels=2
height=3
width=3

[offload]
library=probe.so
height=3
width=3
channel=2
";
    let spec = tincy::nn::parse_cfg(cfg).expect("valid cfg");
    let net = Network::from_spec(&spec, &registry, 0).expect("buildable");
    assert!(!destroyed.load(Ordering::SeqCst));
    drop(net);
    assert!(
        destroyed.load(Ordering::SeqCst),
        "destroy hook (Drop) must run"
    );
}

#[test]
fn fabric_backend_downcasts_for_timing_reports() {
    let config = SystemConfig {
        input_size: 32,
        seed: 9,
        ..Default::default()
    };
    let registry = fabric_registry(&config);
    let net = Network::from_spec(&offloaded_spec(32), &registry, 9).expect("buildable");

    let input = Tensor::from_fn(Shape3::new(3, 32, 32), |c, y, x| {
        ((c + y * 2 + x) % 8) as f32 / 8.0
    });
    net.forward(&input).expect("forward");

    // Reach the backend through the generic layer interface (as a
    // monitoring tool would) and read the accelerator's cycle report.
    let offload = net.layer(1).as_offload().expect("layer 1 is the offload");
    let fabric = offload
        .backend()
        .as_any()
        .downcast_ref::<FabricBackend>()
        .expect("fabric backend");
    let accel = fabric.accelerator().expect("built at load time");
    let (_, report) = accel
        .run(&Tensor::zeros(accel.input_shape()))
        .expect("fabric runs");
    assert_eq!(report.layer_cycles.len(), hidden_stack(32).len());
    assert_eq!(hidden_stack(32).len(), 7);
}
