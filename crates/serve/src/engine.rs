//! The offloaded network of one served variant, split around the
//! accelerated segment so the serving layer can micro-batch it.
//!
//! A built engine only reads on a forward, so one engine per variant is
//! shared by the server's one FINN worker and every host worker; the
//! fabric's bit-exactness with the software reference path makes FINN and
//! CPU results interchangeable.

use tincy_core::{
    arm_offload_resilience, build_network_for, offload_position, region_decoder, SystemConfig,
    NMS_IOU,
};
use tincy_eval::{nms, Detection};
use tincy_finn::FaultPlan;
use tincy_nn::{Layer, ModelSpec, NnError, OffloadHealth, OffloadLayer, RegionLayer};
use tincy_tensor::Tensor;
use tincy_video::Image;

/// The runnable offloaded detector, split into CPU prologue / offload
/// segment / CPU epilogue.
pub struct ServeEngine {
    layers: Vec<Box<dyn Layer>>,
    offload_idx: usize,
    decoder: RegionLayer,
    health: OffloadHealth,
    input_size: usize,
    score_threshold: f32,
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

    /// Builds a fault-free engine: [`Self::finn`] with the system's fault
    /// plan disarmed.
    ///
    /// # Errors
    ///
    /// Propagates network construction failures.
    pub fn cpu(system: &SystemConfig, score_threshold: f32) -> Result<Self, NnError> {
        let fault_free = SystemConfig {
            fault_plan: FaultPlan::none(),
            ..*system
        };
        Self::finn(&fault_free, score_threshold)
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
        let net = build_network_for(model, system.fault_plan)?;
        let decoder = region_decoder(&model.network)?;
        let mut layers = net.into_layers();
        let health =
            arm_offload_resilience(&mut layers, system).ok_or_else(|| NnError::InvalidSpec {
                what: "served models must contain an offloadable hidden stack".to_owned(),
            })?;
        let offload_idx =
            offload_position(&mut layers).expect("arm_offload_resilience found an offload layer");
        Ok(Self {
            layers,
            offload_idx,
            decoder,
            health,
            input_size: model.network.input.height,
            score_threshold,
        })
    }

    /// Offload health handle (faults/retries/fallbacks/degradation).
    pub fn health(&self) -> OffloadHealth {
        self.health.clone()
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

    /// Runs a micro-batch through the accelerated path: per-frame CPU
    /// prologue, one batched offload invocation (weights swap once per
    /// layer for the whole batch), per-frame CPU epilogue and decoding.
    ///
    /// # Errors
    ///
    /// Propagates layer evaluation failures (shapes are consistent by
    /// construction, and accelerator faults are absorbed by the offload
    /// layer's retry/fallback policy, so errors here indicate a bug).
    pub fn process_batch(&self, images: &[Image]) -> Result<Vec<Vec<Detection>>, NnError> {
        let mut fmaps = Vec::with_capacity(images.len());
        for image in images {
            fmaps.push(self.prologue(image)?);
        }
        let outs = self.offload().forward_batch(&fmaps)?;
        let mut detections = Vec::with_capacity(outs.len());
        for fmap in outs {
            detections.push(self.epilogue(fmap)?);
        }
        Ok(detections)
    }

    /// Runs one frame entirely on the host: the offload segment is
    /// evaluated by the hidden layers' shared cores — the instructions the
    /// fabric simulator runs, without its weight-swap, cycle and fault
    /// bookkeeping — bypassing the accelerator and its recovery counters.
    /// This is scheduled CPU work, not fault recovery.
    ///
    /// # Errors
    ///
    /// Propagates layer evaluation failures.
    pub fn process_host(&self, image: &Image) -> Result<Vec<Detection>, NnError> {
        let fmap = self.prologue(image)?;
        let out = self.offload().forward_host(&fmap)?;
        self.epilogue(out)
    }

    fn offload(&self) -> &OffloadLayer {
        self.layers[self.offload_idx]
            .as_offload()
            .expect("offload_idx points at the offload layer")
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
