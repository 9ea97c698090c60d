//! End-to-end FINN flow: QAT training → deployment by `load_weights` into
//! the network the product runs → deployed inference matches the trained
//! model.

use tincy::core::deploy;
use tincy::eval::{mean_average_precision, nms, ApMethod};
use tincy::finn::{FabricBackend, FaultPlan};
use tincy::nn::Activation::{Linear, Relu};
use tincy::nn::{
    ConvSpec, FoldSpec, Layer as _, LayerSpec, ModelSpec, Network, NetworkSpec, NnError,
    OffloadLayer, PoolSpec, RetryPolicy,
};
use tincy::quant::PrecisionConfig;
use tincy::tensor::{Shape3, Tensor};
use tincy::train::{
    evaluate_map, train, DetectionLoss, QuantMode, TrainConfig, TrainLayerSpec, TrainNet,
};
use tincy::video::{generate_dataset, DatasetConfig, Sample, SceneConfig};

const CLASSES: usize = 2;

/// The detector, described once: float input and head convs on the CPU
/// (§III-A), a `[W1A3]` hidden stack with its pools for the fabric. The
/// trainer lowers it (`TrainNet::from_model`) and `deploy` serves it —
/// without the batch normalization it declares, like every served
/// topology: a `TrainNet` has none, so a stream that still carried BN
/// statistics would not even load.
fn model(seed: u64) -> ModelSpec {
    let conv = |filters, size, stride, activation, precision| {
        LayerSpec::Conv(ConvSpec {
            filters,
            size,
            stride,
            pad: size / 2,
            activation,
            batch_normalize: true,
            precision,
        })
    };
    let pool = LayerSpec::MaxPool(PoolSpec { size: 2, stride: 2 });
    let (float, w1a3) = (PrecisionConfig::FLOAT, PrecisionConfig::W1A3);
    ModelSpec {
        name: "qat-detector".to_owned(),
        network: NetworkSpec::new(Shape3::new(3, 32, 32))
            .with(conv(6, 3, 2, Relu, float))
            .with(pool.clone())
            .with(conv(8, 3, 1, Relu, w1a3))
            .with(pool)
            .with(conv(8, 3, 1, Relu, w1a3))
            .with(conv(5 + CLASSES, 1, 1, Linear, float)),
        fold: FoldSpec::SHIPPED,
        act_step: 0.25,
        seed,
    }
}

/// Trains the model's lowering and deploys it.
fn train_and_deploy(seed: u64, train_set: &[Sample], epochs: usize) -> (TrainNet, Network) {
    let loss = DetectionLoss::new(CLASSES, (0.4, 0.4));
    let mut net = TrainNet::from_model(&model(seed)).expect("trainable model");
    train(
        &mut net,
        &loss,
        train_set,
        &TrainConfig {
            epochs,
            lr: 0.02,
            ..Default::default()
        },
    );
    let deployed = deploy(&net, &model(seed), FaultPlan::none()).expect("deploys");
    (net, deployed)
}

/// The deployed network's `[offload]` layer (conv, pool, offload, conv).
fn offload(network: &mut Network) -> &mut OffloadLayer {
    network.layer_mut(2).as_offload_mut().expect("layer 2")
}

/// Share of head values two runs agree on (up to rare float-boundary
/// level flips).
fn agreement(a: &Tensor<f32>, b: &Tensor<f32>) -> f32 {
    let pairs = a.as_slice().iter().zip(b.as_slice());
    pairs.filter(|(a, b)| (*a - *b).abs() < 1e-3).count() as f32 / a.len() as f32
}

fn image(a: usize, b: usize) -> Tensor<f32> {
    Tensor::from_fn(Shape3::new(3, 32, 32), |c, y, x| {
        ((c * a + y * b + x) % 16) as f32 / 16.0
    })
}

fn dataset(samples: usize, seed: u64) -> Vec<Sample> {
    generate_dataset(&DatasetConfig {
        scene: SceneConfig {
            width: 40,
            height: 32,
            num_objects: 1,
            num_classes: CLASSES,
            size_range: (0.3, 0.5),
            speed: 0.0,
        },
        samples,
        seed,
        input_size: 32,
    })
}

#[test]
fn deployed_detector_matches_qat_accuracy() {
    let train_set = dataset(16, 3);
    let eval_set = dataset(12, 900);
    let loss = DetectionLoss::new(CLASSES, (0.4, 0.4));
    let (mut net, deployed) = train_and_deploy(9, &train_set, 25);

    let qat = evaluate_map(&mut net, &loss, &eval_set, 0.25, 0.4);
    let mut detections = Vec::new();
    let mut truths = Vec::new();
    for sample in &eval_set {
        let head = deployed.forward(sample.image.as_tensor()).expect("runs");
        detections.push(nms(loss.decode(&head, 0.25), 0.45));
        truths.push(sample.truth.clone());
    }
    let dep = mean_average_precision(&detections, &truths, CLASSES, 0.4, ApMethod::Voc11Point);
    assert!(
        (qat.map - dep.map).abs() < 0.05,
        "QAT mAP {:.3} vs deployed mAP {:.3} diverged",
        qat.map,
        dep.map
    );
}

#[test]
fn deployed_head_matches_qat_head_per_image() {
    let train_set = dataset(8, 5);
    let (mut net, deployed) = train_and_deploy(4, &train_set, 10);
    for sample in &train_set[..4] {
        let qat_head = net.forward(sample.image.as_tensor());
        let dep_head = deployed.forward(sample.image.as_tensor()).expect("runs");
        let agree = agreement(&qat_head, &dep_head);
        assert!(agree > 0.95, "only {agree:.3} of head values agree");
    }
}

#[test]
fn deployed_network_is_conv_pool_offload_conv_with_two_fabric_layers() {
    let net = TrainNet::from_model(&model(1)).unwrap();
    let mut deployed = deploy(&net, &model(1), FaultPlan::none()).unwrap();
    let kinds: Vec<_> = (0..deployed.num_layers())
        .map(|i| deployed.layer(i).kind())
        .collect();
    assert_eq!(kinds, ["conv", "pool", "offload", "conv"]);
    let backend = offload(&mut deployed).backend().as_any();
    let fabric = backend.downcast_ref::<FabricBackend>().unwrap();
    assert_eq!(fabric.accelerator().unwrap().layers().len(), 2);
}

#[test]
fn deployed_matches_qat_forward() {
    let mut net = TrainNet::from_model(&model(7)).unwrap();
    let deployed = deploy(&net, &model(7), FaultPlan::none()).unwrap();
    let qat_head = net.forward(&image(13, 5));
    let deployed_head = deployed.forward(&image(13, 5)).unwrap();
    assert_eq!(qat_head.shape(), deployed_head.shape());
    // Float-vs-integer threshold boundaries can flip an occasional
    // level; demand near-exact agreement.
    let diff = qat_head.max_abs_diff(&deployed_head);
    assert!(diff < 0.35, "deployed head diverges from QAT by {diff}");
    let frac = agreement(&qat_head, &deployed_head);
    assert!(frac > 0.95, "only {frac:.3} of head values agree");
}

#[test]
fn deployed_forward_survives_an_outage_bit_exactly() {
    let net = TrainNet::from_model(&model(7)).unwrap();
    let image = image(7, 3);
    let clean = deploy(&net, &model(7), FaultPlan::none()).unwrap();
    let clean = clean.forward(&image).unwrap();

    let mut faulty = deploy(&net, &model(7), FaultPlan::outage(0, 10)).unwrap();
    let degraded = faulty.forward(&image).unwrap();
    assert_eq!(degraded, clean, "CPU fallback output is bit-exact");
    let stats = offload(&mut faulty).device_mut().health().snapshot();
    assert_eq!(stats.fallbacks, 1);
    assert_eq!(stats.degraded, 1);
    assert!(stats.faults >= 1);

    // Fail-fast surfaces the fault instead.
    let mut strict = deploy(&net, &model(7), FaultPlan::outage(0, 10)).unwrap();
    offload(&mut strict).device_mut().retry = RetryPolicy::fail_fast();
    assert!(strict.forward(&image).unwrap_err().is_retryable());
}

/// `deploy` of the model's lowering with conv `index` trained in `quant`
/// instead.
fn deploy_with(index: usize, quant: QuantMode) -> Result<Network, NnError> {
    let lowering = TrainNet::from_model(&model(1)).unwrap();
    let mut specs = lowering.specs().to_vec();
    if let TrainLayerSpec::Conv(c) = &mut specs[index] {
        c.quant = quant;
    }
    let net = TrainNet::new(lowering.input_shape(), &specs, 1).unwrap();
    deploy(&net, &model(1), FaultPlan::none())
}

#[test]
fn deploy_refuses_an_unquantized_input_conv() {
    let err = deploy_with(0, QuantMode::Float).unwrap_err();
    assert!(matches!(err, NnError::InvalidSpec { .. }), "{err}");
    assert!(deploy_with(0, QuantMode::A3Only { act_step: 0.25 }).is_ok());
}

#[test]
fn deploy_refuses_a_float_hidden_conv() {
    let err = deploy_with(2, QuantMode::Float).unwrap_err();
    assert!(matches!(err, NnError::InvalidSpec { .. }), "{err}");
}

#[test]
fn trained_weights_are_backend_interchangeable() {
    // The contract every fallback and host worker rests on — fabric,
    // batched fabric and host path agree bit for bit — on *trained*
    // parameters, not only the seeded ones every other test loads.
    let train_set = dataset(8, 5);
    let (_, deployed) = train_and_deploy(4, &train_set, 10);
    let layers = deployed.into_layers();
    let prologue = |sample: &Sample| {
        let conv = layers[0].forward(sample.image.as_tensor()).expect("conv");
        layers[1].forward(&conv).expect("pool")
    };
    let fmaps: Vec<_> = train_set[..3].iter().map(prologue).collect();
    let offload = layers[2].as_offload().expect("layer 2");
    let singles: Vec<_> = fmaps
        .iter()
        .map(|fmap| offload.forward(fmap).expect("fabric"))
        .collect();
    let live = singles.iter().flat_map(|t| t.as_slice()).any(|&v| v > 0.0);
    assert!(live, "the trained hidden stack fires");
    assert_eq!(offload.forward_batch(&fmaps).expect("batched"), singles);
    for (fmap, single) in fmaps.iter().zip(&singles) {
        assert_eq!(&offload.forward_host(fmap).expect("host path"), single);
    }
}
