//! Training and evaluation loops for the Table IV reproduction.

use crate::loss::DetectionLoss;
use crate::net::TrainNet;
use crate::sgd::Sgd;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use tincy_eval::{mean_average_precision, nms, ApMethod, EvalSummary};
use tincy_trace::static_label;
use tincy_video::Sample;

/// Training-run configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainConfig {
    /// Number of passes over the dataset.
    pub epochs: usize,
    /// Initial learning rate.
    pub lr: f32,
    /// Momentum coefficient.
    pub momentum: f32,
    /// L2 weight decay.
    pub weight_decay: f32,
    /// Multiplicative learning-rate decay per epoch.
    pub lr_decay: f32,
    /// Global gradient-norm clip applied per sample (0 disables).
    pub grad_clip: f32,
    /// Shuffling seed.
    pub seed: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self {
            epochs: 30,
            lr: 0.01,
            momentum: 0.9,
            weight_decay: 1e-4,
            lr_decay: 0.97,
            grad_clip: 5.0,
            seed: 0,
        }
    }
}

/// Result of a training run.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainReport {
    /// Mean loss per epoch.
    pub epoch_losses: Vec<f32>,
}

impl TrainReport {
    /// Final epoch's mean loss.
    pub fn final_loss(&self) -> f32 {
        *self.epoch_losses.last().unwrap_or(&f32::INFINITY)
    }
}

/// Trains a detector with plain SGD over the dataset.
pub fn train(
    net: &mut TrainNet,
    loss: &DetectionLoss,
    data: &[Sample],
    config: &TrainConfig,
) -> TrainReport {
    let mut opt = Sgd::new(config.lr, config.momentum, config.weight_decay);
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut order: Vec<usize> = (0..data.len()).collect();
    let mut epoch_losses = Vec::with_capacity(config.epochs);
    for epoch in 0..config.epochs {
        // Epoch and step spans put the retraining loop on the same
        // timeline as inference: `frame` carries the epoch, steps add the
        // within-epoch position via `request` and the sweep size via
        // `batch` (each step is one sample here).
        let _epoch_span = tincy_trace::span(static_label!("train.epoch"))
            .frame(epoch as u64)
            .batch(u32::try_from(data.len()).unwrap_or(u32::MAX))
            .start();
        order.shuffle(&mut rng);
        let mut epoch_loss = 0.0f32;
        for (step, &i) in order.iter().enumerate() {
            let _step_span = tincy_trace::span(static_label!("train.step"))
                .frame(epoch as u64)
                .request(step as u64)
                .batch(1)
                .start();
            let sample = &data[i];
            net.zero_grad();
            let head = net.forward(sample.image.as_tensor());
            let (parts, grad) = loss.compute(&head, &sample.truth);
            net.backward(&grad);
            if config.grad_clip > 0.0 {
                clip_gradients(net, config.grad_clip);
            }
            opt.step(net);
            epoch_loss += parts.total();
        }
        epoch_losses.push(epoch_loss / data.len().max(1) as f32);
        opt.lr *= config.lr_decay;
    }
    TrainReport { epoch_losses }
}

/// Rescales gradients so their global norm does not exceed `max_norm`.
fn clip_gradients(net: &mut TrainNet, max_norm: f32) {
    let norm = net.grad_norm();
    if norm.is_finite() && norm > max_norm {
        net.scale_gradients(max_norm / norm);
    } else if !norm.is_finite() {
        // A non-finite gradient would poison the weights; drop the step.
        net.scale_gradients(0.0);
    }
}

/// Evaluates a detector's mAP over a dataset (VOC 11-point, with NMS).
pub fn evaluate_map(
    net: &mut TrainNet,
    loss: &DetectionLoss,
    data: &[Sample],
    score_threshold: f32,
    iou_threshold: f32,
) -> EvalSummary {
    let mut detections = Vec::with_capacity(data.len());
    let mut truths = Vec::with_capacity(data.len());
    for sample in data {
        let head = net.forward(sample.image.as_tensor());
        let dets = nms(loss.decode(&head, score_threshold), 0.45);
        detections.push(dets);
        truths.push(sample.truth.clone());
    }
    mean_average_precision(
        &detections,
        &truths,
        loss.classes,
        iou_threshold,
        ApMethod::Voc11Point,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Act, QuantMode, TrainConvSpec, TrainLayerSpec};
    use tincy_tensor::Shape3;
    use tincy_video::{generate_dataset, DatasetConfig, SceneConfig};

    fn detector_specs(classes: usize) -> Vec<TrainLayerSpec> {
        let conv = |filters, stride, act| {
            TrainLayerSpec::Conv(TrainConvSpec {
                filters,
                size: 3,
                stride,
                pad: 1,
                act,
                quant: QuantMode::Float,
            })
        };
        vec![
            conv(8, 2, Act::Relu),                          // 32 -> 16
            TrainLayerSpec::MaxPool { size: 2, stride: 2 }, // -> 8
            conv(16, 1, Act::Relu),
            TrainLayerSpec::MaxPool { size: 2, stride: 2 }, // -> 4
            TrainLayerSpec::Conv(TrainConvSpec {
                filters: 5 + classes,
                size: 1,
                stride: 1,
                pad: 0,
                act: Act::Linear,
                quant: QuantMode::Float,
            }),
        ]
    }

    fn small_dataset(samples: usize) -> Vec<Sample> {
        generate_dataset(&DatasetConfig {
            scene: SceneConfig {
                width: 32,
                height: 32,
                num_objects: 1,
                num_classes: 2,
                size_range: (0.3, 0.5),
                speed: 0.0,
            },
            samples,
            seed: 7,
            input_size: 32,
        })
    }

    #[test]
    fn loss_decreases_over_training() {
        let mut net = TrainNet::new(Shape3::new(3, 32, 32), &detector_specs(2), 1).unwrap();
        let loss = DetectionLoss::new(2, (0.4, 0.4));
        let data = small_dataset(16);
        let report = train(
            &mut net,
            &loss,
            &data,
            &TrainConfig {
                epochs: 8,
                lr: 0.02,
                ..Default::default()
            },
        );
        assert!(
            report.final_loss() < report.epoch_losses[0] * 0.8,
            "losses {:?} did not descend",
            report.epoch_losses
        );
    }

    #[test]
    fn training_improves_map_over_untrained() {
        let loss = DetectionLoss::new(2, (0.4, 0.4));
        let data = small_dataset(24);
        let mut untrained = TrainNet::new(Shape3::new(3, 32, 32), &detector_specs(2), 1).unwrap();
        let before = evaluate_map(&mut untrained, &loss, &data, 0.3, 0.4);
        let mut net = TrainNet::new(Shape3::new(3, 32, 32), &detector_specs(2), 1).unwrap();
        train(
            &mut net,
            &loss,
            &data,
            &TrainConfig {
                epochs: 25,
                lr: 0.02,
                ..Default::default()
            },
        );
        let after = evaluate_map(&mut net, &loss, &data, 0.3, 0.4);
        assert!(
            after.map > before.map + 0.1,
            "mAP {} -> {} shows no learning",
            before.map,
            after.map
        );
    }

    #[test]
    fn training_emits_epoch_and_step_spans() {
        let mut net = TrainNet::new(Shape3::new(3, 32, 32), &detector_specs(2), 1).unwrap();
        let loss = DetectionLoss::new(2, (0.4, 0.4));
        let data = small_dataset(4);
        // Sibling tests run `train` on parallel threads; only this
        // thread's spans belong to the trace under test.
        let _claim = tincy_trace::exclusive();
        tincy_trace::start_local();
        train(
            &mut net,
            &loss,
            &data,
            &TrainConfig {
                epochs: 3,
                ..Default::default()
            },
        );
        let trace = tincy_trace::finish();
        let named = |name: &str| {
            trace
                .spans()
                .filter(|s| trace.label_name(s.label) == name)
                .count()
        };
        assert_eq!(named("train.epoch"), 3, "one span per epoch");
        assert_eq!(named("train.step"), 12, "one span per sample step");
        let epoch_frames: Vec<_> = trace
            .spans()
            .filter(|s| trace.label_name(s.label) == "train.epoch")
            .filter_map(|s| s.attrs.frame)
            .collect();
        assert_eq!(epoch_frames, vec![0, 1, 2]);
    }

    #[test]
    fn evaluation_is_deterministic() {
        let loss = DetectionLoss::new(2, (0.4, 0.4));
        let data = small_dataset(8);
        let mut net = TrainNet::new(Shape3::new(3, 32, 32), &detector_specs(2), 5).unwrap();
        let a = evaluate_map(&mut net, &loss, &data, 0.3, 0.4);
        let b = evaluate_map(&mut net, &loss, &data, 0.3, 0.4);
        assert_eq!(a, b);
    }
}
