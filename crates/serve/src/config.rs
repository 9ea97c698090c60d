//! Serving configuration.

use crate::variants::VariantLadder;
use std::time::Duration;
use tincy_core::SystemConfig;
use tincy_nn::ModelSpec;
use tincy_telemetry::SloPolicy;

/// Configuration of the inference server.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Network + fabric configuration (shared by every backend engine;
    /// the common weight seed is what makes FINN and CPU results
    /// interchangeable).
    pub system: SystemConfig,
    /// Host workers running the bit-exact reference path. The FINN engine
    /// is a single worker at any ladder height — the device is one fabric.
    pub cpu_workers: usize,
    /// Maximum FINN micro-batch size (weights swap once per layer per
    /// batch, amortizing the dominant reload cost). A batch holds one
    /// rung's requests only.
    pub max_batch: usize,
    /// Global pending-queue bound; submissions beyond it are rejected.
    pub queue_capacity: usize,
    /// Per-client outstanding-request quota.
    pub per_client_capacity: usize,
    /// Detection score threshold.
    pub score_threshold: f32,
    /// Start with dispatch paused (burst mode: submit, then
    /// [`crate::InferenceServer::resume`] for deterministic batch
    /// formation).
    pub start_paused: bool,
    /// Latency targets per SLO class, indexed by [`crate::SloClass::index`].
    pub slo_targets: [Duration; 3],
    /// When set, bind a telemetry status server on this address
    /// (`host:port`; port 0 picks a free one) exposing `GET /metrics`
    /// (Prometheus text), `/healthz` and `/report` for the lifetime of
    /// the server.
    pub status_addr: Option<String>,
    /// Shard identity within a fleet. Stamps a `shard` attribute on
    /// every span the server records, prefixes worker thread names with
    /// `shard<k>-`, and salts the trace ids minted for direct (non-fleet)
    /// submissions so probe traces never collide across shards.
    pub shard: Option<u32>,
    /// Error-budget policy driving the per-class SLO burn-rate engine
    /// (exposed as `tincy_slo_*` on `/metrics`, and as a `degraded`
    /// verdict on `/healthz` while an alert is active).
    pub slo: SloPolicy,
    /// Quantization-variant ladder to host. When unset the server runs a
    /// one-rung ladder around [`Self::model_spec`] — the classic
    /// single-model behavior. With multiple rungs, each SLO class is
    /// routed to its home rung, the one FINN worker serves the rungs by
    /// earliest queue head, and a shift monitor demotes traffic down the
    /// ladder under a sustained SLO burn.
    pub variants: Option<VariantLadder>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            system: SystemConfig {
                input_size: 128,
                ..Default::default()
            },
            cpu_workers: 2,
            max_batch: 4,
            queue_capacity: 64,
            per_client_capacity: 8,
            score_threshold: 0.2,
            start_paused: false,
            slo_targets: [
                Duration::from_millis(50),
                Duration::from_millis(200),
                Duration::from_secs(2),
            ],
            shard: None,
            slo: SloPolicy::default(),
            status_addr: None,
            variants: None,
        }
    }
}

impl ServeConfig {
    /// The design point this configuration serves: the cheapest rung of
    /// the ladder, or the Tincy model the `system` configuration
    /// describes.
    pub fn model_spec(&self) -> ModelSpec {
        match &self.variants {
            Some(ladder) => ladder.get(0).model.clone(),
            None => self.system.model(),
        }
    }

    /// The variant ladder this configuration hosts: the configured one,
    /// or a one-rung ladder around [`Self::model_spec`].
    pub fn ladder(&self) -> VariantLadder {
        self.variants
            .clone()
            .unwrap_or_else(|| VariantLadder::single(self.model_spec()))
    }
}
