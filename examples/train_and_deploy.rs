//! The full paper pipeline in one program: describe a detector once as a
//! `ModelSpec`, train its lowering with quantization-aware retraining,
//! deploy it — the trained parameters stream through `load_weights` into
//! the network the product runs, where the fabric backend folds its share
//! into binary weight masks + integer thresholds — and verify that the
//! deployed system detects as well as the QAT model, with the
//! accelerator's resource estimate on the side. Exits non-zero if the
//! fold does not preserve the trained function.
//!
//! ```text
//! cargo run --release --example train_and_deploy
//! ```

use tincy::core::deploy;
use tincy::eval::{mean_average_precision, nms, ApMethod};
use tincy::finn::{FabricBackend, FaultPlan, FpgaDevice};
use tincy::nn::Activation::{Linear, Relu};
use tincy::nn::{ConvSpec, FoldSpec, LayerSpec, ModelSpec, NetworkSpec, PoolSpec};
use tincy::quant::PrecisionConfig;
use tincy::tensor::Shape3;
use tincy::train::{evaluate_map, train, DetectionLoss, TrainConfig, TrainNet};
use tincy::video::{generate_dataset, DatasetConfig, SceneConfig};

const CLASSES: usize = 2;
/// Largest tolerated |QAT − deployed| held-out mAP, in points.
const MAX_MAP_GAP: f32 = 5.0;

fn model() -> ModelSpec {
    let conv = |filters, size, stride, activation, precision| {
        LayerSpec::Conv(ConvSpec {
            filters,
            size,
            stride,
            pad: size / 2,
            activation,
            batch_normalize: false,
            precision,
        })
    };
    let pool = LayerSpec::MaxPool(PoolSpec { size: 2, stride: 2 });
    let (float, w1a3) = (PrecisionConfig::FLOAT, PrecisionConfig::W1A3);
    ModelSpec {
        name: "qat-detector".to_owned(),
        network: NetworkSpec::new(Shape3::new(3, 32, 32))
            // Input conv: float weights on the CPU; it feeds the fabric, so
            // the trainer quantizes its output.
            .with(conv(8, 3, 2, Relu, float))
            .with(pool.clone())
            // Hidden stack: binary weights, 3-bit activations.
            .with(conv(16, 3, 1, Relu, w1a3))
            .with(pool)
            .with(conv(16, 3, 1, Relu, w1a3))
            // Head: float.
            .with(conv(5 + CLASSES, 1, 1, Linear, float)),
        fold: FoldSpec::SHIPPED,
        act_step: 0.25,
        seed: 5,
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dataset = |samples, seed| {
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
    };
    let train_set = dataset(32, 1);
    let eval_set = dataset(24, 777);
    let loss = DetectionLoss::new(CLASSES, (0.4, 0.4));

    // 1. Quantization-aware training (the whole net is QAT from scratch —
    //    the retraining flow is shown in examples/accuracy_study.rs).
    let model = model();
    let mut net = TrainNet::from_model(&model)?;
    println!(
        "training the [W1A3] detector ({} parameters)...",
        net.num_params()
    );
    for (epochs, lr) in [(60, 0.02), (30, 0.005)] {
        let config = TrainConfig {
            epochs,
            lr,
            ..Default::default()
        };
        train(&mut net, &loss, &train_set, &config);
    }
    let qat_map = evaluate_map(&mut net, &loss, &eval_set, 0.25, 0.4).map_percent();
    println!("QAT model held-out mAP: {qat_map:.1}%");

    // 2. Deploy: the served network, trained parameters loaded; the
    //    fabric backend behind its [offload] layer did the fold.
    let deployed = deploy(&net, &model, FaultPlan::none())?;
    let offload = deployed.layer(2).as_offload();
    let backend = offload.expect("the offload layer").backend().as_any();
    let fabric = backend.downcast_ref::<FabricBackend>();
    let accelerator = fabric.and_then(FabricBackend::accelerator);
    let accelerator = accelerator.expect("fabric.so, weights loaded");
    println!(
        "folded {} hidden layers for the fabric (activation step {})",
        accelerator.layers().len(),
        model.act_step
    );
    let resources = accelerator.engine_resources();
    let device = FpgaDevice::XCZU3EG;
    let (lut, bram, _) = device.utilization(&resources);
    println!(
        "engine estimate: {} LUTs ({:.0}%), {} BRAM36 ({:.0}%) on {} -> fits: {}",
        resources.luts,
        lut * 100.0,
        resources.bram36,
        bram * 100.0,
        device.name,
        device.fits(&resources)
    );

    // 3. Evaluate the deployed system (CPU first/last layers + simulated
    //    fabric in the middle).
    let mut detections = Vec::new();
    let mut truths = Vec::new();
    for sample in &eval_set {
        let head = deployed.forward(sample.image.as_tensor())?;
        detections.push(nms(loss.decode(&head, 0.25), 0.45));
        truths.push(sample.truth.clone());
    }
    let deployed_map =
        mean_average_precision(&detections, &truths, CLASSES, 0.4, ApMethod::Voc11Point)
            .map_percent();
    println!("deployed (fabric) held-out mAP: {deployed_map:.1}%");
    if (qat_map - deployed_map).abs() > MAX_MAP_GAP {
        return Err(format!(
            "QAT {qat_map:.1}% vs deployed {deployed_map:.1}%: the fold to integer thresholds \
             moved held-out mAP by more than {MAX_MAP_GAP} points"
        )
        .into());
    }
    println!(
        "\nQAT {qat_map:.1}% vs deployed {deployed_map:.1}% — the fold to integer \
         thresholds preserves the trained function"
    );
    Ok(())
}
