//! The offloaded network of one served variant, split around the
//! accelerated segment so the serving layer can micro-batch it, and split
//! the way the paper's Fig 3 life cycle splits a layer.
//!
//! A [`Model`] is what `init` and `load_weights` build: the CPU prologue
//! and epilogue layers, the offload core (packed cores and threshold
//! tables, folded from the hidden layers' floats as they streamed in;
//! the floats are not kept), the decoder and the input size. It only reads
//! on a forward, so a process builds each rung once and every worker of a
//! server, and every shard of a fleet, runs that one copy through an
//! `Arc`. A [`Device`] is what `forward` changes: one fabric's fault
//! injector, health counters and retry policy, so a server has one and
//! its rungs' engines share it. A [`ServeEngine`] is a model on a device.
//! The host path needs no device: it draws no fault and counts no
//! recovery, and the fabric's bit-exactness with it makes FINN and CPU
//! results interchangeable.

use std::sync::Arc;
use tincy_core::{build_network_for, offload_position, region_decoder, SystemConfig, NMS_IOU};
use tincy_eval::{nms, Detection};
use tincy_finn::FaultPlan;
use tincy_nn::{Device, Layer, ModelSpec, NnError, OffloadHealth, OffloadLayer, RegionLayer};
use tincy_tensor::Tensor;
use tincy_video::Image;

/// The immutable half of a served variant: the runnable offloaded
/// detector, split into CPU prologue / offload segment / CPU epilogue,
/// plus its decoder.
pub struct Model {
    layers: Vec<Box<dyn Layer>>,
    offload_idx: usize,
    decoder: RegionLayer,
    input_size: usize,
    score_threshold: f32,
}

impl Model {
    /// Builds a design point's network with its deterministic weights.
    ///
    /// # Errors
    ///
    /// Propagates network construction failures; a model without an
    /// offloadable hidden stack is an [`NnError::InvalidSpec`].
    pub fn build(model: &ModelSpec, score_threshold: f32) -> Result<Self, NnError> {
        let decoder = region_decoder(&model.network)?;
        let mut layers = build_network_for(model, FaultPlan::none())?.into_layers();
        let offload_idx = offload_position(&mut layers).ok_or_else(|| NnError::InvalidSpec {
            what: "served models must contain an offloadable hidden stack".to_owned(),
        })?;
        Ok(Self {
            layers,
            offload_idx,
            decoder,
            input_size: model.network.input.height,
            score_threshold,
        })
    }

    fn prologue(&self, image: &Image) -> Result<Tensor<f32>, NnError> {
        let mut fmap = image.letterboxed(self.input_size).into_tensor();
        for layer in &self.layers[..self.offload_idx] {
            fmap = layer.forward(&fmap)?;
        }
        Ok(fmap)
    }

    fn epilogue(&self, mut fmap: Tensor<f32>) -> Result<Vec<Detection>, NnError> {
        for layer in &self.layers[self.offload_idx + 1..] {
            fmap = layer.forward(&fmap)?;
        }
        Ok(nms(
            self.decoder.decode(&fmap, self.score_threshold),
            NMS_IOU,
        ))
    }

    fn offload(&self) -> &OffloadLayer {
        self.layers[self.offload_idx]
            .as_offload()
            .expect("offload_idx points at the offload layer")
    }
}

/// A [`Model`] on the [`Device`] its accelerated path runs on; a host-only
/// engine has no device.
pub struct ServeEngine {
    model: Arc<Model>,
    device: Option<Device>,
}

impl ServeEngine {
    /// Builds an engine for the FINN path: fault plan armed (if any) and
    /// the system's retry/fallback policy applied.
    ///
    /// # Errors
    ///
    /// Propagates network construction failures.
    pub fn finn(system: &SystemConfig, score_threshold: f32) -> Result<Self, NnError> {
        Self::finn_for_model(&system.model(), system, score_threshold)
    }

    /// Builds a host-only engine: the system's model with no device, so
    /// only [`Self::process_host`] runs.
    ///
    /// # Errors
    ///
    /// Propagates network construction failures.
    pub fn cpu(system: &SystemConfig, score_threshold: f32) -> Result<Self, NnError> {
        let model = Arc::new(Model::build(&system.model(), score_threshold)?);
        Ok(Self {
            model,
            device: None,
        })
    }

    /// [`Self::finn`] for an explicit design point: the model supplies the
    /// topology, folding and weights seed; `system` supplies only the
    /// fault plan and retry policy.
    ///
    /// # Errors
    ///
    /// Propagates network construction failures.
    pub fn finn_for_model(
        model: &ModelSpec,
        system: &SystemConfig,
        score_threshold: f32,
    ) -> Result<Self, NnError> {
        let model = Arc::new(Model::build(model, score_threshold)?);
        let device = tincy_core::xczu3eg_device(system.fault_plan, system.retry);
        Ok(Self::on_device(model, device))
    }

    /// A shared model on `device` (a handle: engines on clones of one
    /// device share its fault stream and counters).
    pub fn on_device(model: Arc<Model>, device: Device) -> Self {
        Self {
            model,
            device: Some(device),
        }
    }

    /// The model this engine runs.
    pub fn model(&self) -> &Arc<Model> {
        &self.model
    }

    /// The device the accelerated path runs on (`None` for a host-only
    /// engine).
    pub fn device(&self) -> Option<&Device> {
        self.device.as_ref()
    }

    /// Offload health handle (faults/retries/fallbacks/degradation) of the
    /// engine's device; a host-only engine's never moves.
    pub fn health(&self) -> OffloadHealth {
        self.device.as_ref().map(Device::health).unwrap_or_default()
    }

    /// Runs a micro-batch through the accelerated path: per-frame CPU
    /// prologue, one batched offload invocation on the engine's device
    /// (weights swap once per layer for the whole batch), per-frame CPU
    /// epilogue and decoding.
    ///
    /// # Errors
    ///
    /// [`NnError::InvalidSpec`] on a host-only engine; otherwise propagates
    /// layer evaluation failures (shapes are consistent by construction,
    /// and accelerator faults are absorbed by the device's retry/fallback
    /// policy, so errors here indicate a bug).
    pub fn process_batch(&self, images: &[Image]) -> Result<Vec<Vec<Detection>>, NnError> {
        let device = self.device.as_ref().ok_or_else(|| NnError::InvalidSpec {
            what: "a host-only engine has no device to offload to".to_owned(),
        })?;
        let mut fmaps = Vec::with_capacity(images.len());
        for image in images {
            fmaps.push(self.model.prologue(image)?);
        }
        let outs = self.model.offload().forward_batch_on(device, &fmaps)?;
        let mut detections = Vec::with_capacity(outs.len());
        for fmap in outs {
            detections.push(self.model.epilogue(fmap)?);
        }
        Ok(detections)
    }

    /// Runs one frame entirely on the host: the offload segment is
    /// evaluated by the hidden layers' shared cores — the instructions the
    /// fabric simulator runs, without its weight-swap, cycle and fault
    /// bookkeeping — bypassing the device and its recovery counters.
    /// This is scheduled CPU work, not fault recovery.
    ///
    /// # Errors
    ///
    /// Propagates layer evaluation failures.
    pub fn process_host(&self, image: &Image) -> Result<Vec<Detection>, NnError> {
        let fmap = self.model.prologue(image)?;
        let out = self.model.offload().forward_host(&fmap)?;
        self.model.epilogue(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tincy_video::{SceneConfig, SyntheticCamera};

    fn small_system() -> SystemConfig {
        SystemConfig {
            input_size: 32,
            seed: 5,
            ..Default::default()
        }
    }

    fn frames(n: u64) -> Vec<Image> {
        let scene = SceneConfig {
            width: 48,
            height: 36,
            ..Default::default()
        };
        let mut camera = SyntheticCamera::with_limit(scene, 7, n);
        std::iter::from_fn(|| camera.capture()).collect()
    }

    #[test]
    fn finn_batch_and_host_paths_are_bit_exact() {
        let system = small_system();
        let finn = ServeEngine::finn(&system, 0.0).unwrap();
        let cpu = ServeEngine::cpu(&system, 0.0).unwrap();
        let images = frames(3);
        let batched = finn.process_batch(&images).unwrap();
        for (image, expected) in images.iter().zip(&batched) {
            assert_eq!(&cpu.process_host(image).unwrap(), expected);
        }
    }

    #[test]
    fn host_path_leaves_recovery_counters_untouched() {
        let system = small_system();
        let cpu = ServeEngine::cpu(&system, 0.0).unwrap();
        let images = frames(2);
        for image in &images {
            cpu.process_host(image).unwrap();
        }
        assert_eq!(cpu.health().snapshot(), tincy_nn::OffloadStats::default());
        assert!(cpu.device().is_none() && cpu.process_batch(&images).is_err());
    }

    #[test]
    fn batch_matches_singletons() {
        let system = small_system();
        let a = ServeEngine::finn(&system, 0.0).unwrap();
        let b = ServeEngine::finn(&system, 0.0).unwrap();
        let images = frames(4);
        let batched = a.process_batch(&images).unwrap();
        let singles: Vec<_> = images
            .iter()
            .map(|img| {
                b.process_batch(std::slice::from_ref(img))
                    .unwrap()
                    .remove(0)
            })
            .collect();
        assert_eq!(batched, singles);
    }
}
