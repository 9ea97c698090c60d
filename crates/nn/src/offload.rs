//! The generic offload mechanism (§III-C, Figs 3 & 4).
//!
//! Darknet virtualizes layer functionality through function pointers; the
//! paper's new `[offload]` layer redirects those pointers to an arbitrary
//! user-defined shared library so that "the life cycle and functionality of
//! the layer can be customized completely". The backing implementation "is
//! only required to compute an output feature map from a given input feature
//! map — internally, it may subsume the computation of multiple layers of
//! various kinds", which is exactly what the fabric offload does with all of
//! Tincy YOLO's hidden layers.
//!
//! Rust has no stable ABI for `dlopen`-style plugins, so the `library=`
//! string resolves through a [`BackendRegistry`] instead; the architecture
//! (config-driven backend substitution with the full Fig 3 life cycle) is
//! preserved.
//!
//! The life cycle splits the layer in two. `init` and `load_weights` build
//! the backend: a fabric backend folds the floats into packed cores and
//! thresholds as they arrive and keeps only those — immutable once
//! loaded, so any number of fabrics can run one copy. Parameters flow one
//! way: a backend loads them and never writes them back. `forward` runs on a
//! [`Device`]: the one fabric's fault injector, health counters and retry
//! policy, the only state a forward changes.

use crate::error::NnError;
use crate::fault::{FaultInjector, FaultPlan};
use crate::layer::Layer;
use crate::spec::OffloadSpec;
use crate::weights::WeightsReader;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;
use tincy_tensor::{Shape3, Tensor};
use tincy_trace::static_label;

/// Configuration handed to a backend at `init` time (the keys of Fig 4).
#[derive(Debug, Clone, PartialEq)]
pub struct OffloadConfig {
    /// Backend library identifier (`library=fabric.so` analog).
    pub library: String,
    /// Sub-topology description identifier (`network=` key).
    pub network: String,
    /// Weight-store identifier (`weights=` key).
    pub weights: String,
    /// Input feature-map geometry (inferred from the preceding layer).
    pub input_shape: Shape3,
    /// Declared output geometry (`height`/`width`/`channel` keys).
    pub output_shape: Shape3,
}

/// A pluggable offload implementation with the Fig 3 life cycle.
///
/// `init` ↦ [`OffloadBackend::init`], `load_weights` ↦
/// [`OffloadBackend::load_weights`], `forward` ↦
/// [`OffloadBackend::forward`], `destroy` ↦ [`Drop`]; there is no save
/// hook, so a backend may keep only what it derives from its floats. As
/// with [`Layer`], only the first two mutate: the forward hooks take
/// `&self`, and what a forward changes lives on the [`Device`] it runs
/// on, so one backend can serve concurrent workers and devices.
pub trait OffloadBackend: Send + Sync {
    /// The library identifier this backend serves.
    fn library_name(&self) -> &str;

    /// Downcasting hook so integrations can reach backend-specific state
    /// (e.g. the fabric simulator's timing report) through a
    /// `&dyn OffloadBackend`.
    fn as_any(&self) -> &dyn std::any::Any;

    /// Initializes the layer with access to its configuration.
    ///
    /// # Errors
    ///
    /// Implementation-specific; typically configuration validation.
    fn init(&mut self, config: &OffloadConfig) -> Result<(), NnError>;

    /// Loads the backend's parameters from the sequential weight stream.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::Io`] if the stream is exhausted.
    fn load_weights(&mut self, reader: &mut WeightsReader<'_>) -> Result<(), NnError>;

    /// Computes the output feature map for one input feature map.
    ///
    /// # Errors
    ///
    /// Implementation-specific inference failures.
    fn forward(&self, input: &Tensor<f32>) -> Result<Tensor<f32>, NnError>;

    /// Host-side (CPU) reference evaluation of the same function — the
    /// graceful-degradation path taken when the accelerator stays faulted
    /// past the retry budget. Implementations backed by hardware should
    /// override this with a **bit-exact** software model so a degraded run
    /// produces identical results; the default delegates to
    /// [`OffloadBackend::forward`], which is already a pure CPU path for
    /// software backends.
    ///
    /// # Errors
    ///
    /// Implementation-specific inference failures.
    fn forward_reference(&self, input: &Tensor<f32>) -> Result<Tensor<f32>, NnError> {
        self.forward(input)
    }

    /// Computes output feature maps for a whole micro-batch in one backend
    /// invocation on `device`. The default runs the inputs one by one and
    /// draws nothing from the device; hardware-backed implementations
    /// should override it to amortize per-invocation costs (weight
    /// streaming, DMA setup) across the batch and to draw the invocation's
    /// fault from [`Device::faults`].
    ///
    /// # Errors
    ///
    /// Implementation-specific; a failure faults the whole batch (no
    /// partial results), matching the all-or-nothing DMA transfer model.
    fn forward_batch(
        &self,
        inputs: &[Tensor<f32>],
        _device: &Device,
    ) -> Result<Vec<Tensor<f32>>, NnError> {
        inputs.iter().map(|input| self.forward(input)).collect()
    }

    /// Number of parameters consumed from the weight stream.
    fn num_params(&self) -> usize;

    /// Operations per frame subsumed by this backend.
    fn ops_per_frame(&self) -> u64;
}

/// Bounded-backoff retry policy for transient accelerator faults.
///
/// A faulted offload invocation is retried up to `max_retries` times with
/// an exponentially growing (but capped) pause: 50 µs doubled per retry,
/// at most 5 ms, fixed rather than configured; if the fault persists and
/// `cpu_fallback` is set, the frame completes on the host-side reference
/// path instead of failing the pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retry attempts after the initial try (0 disables retrying).
    pub max_retries: u32,
    /// Whether to complete the frame on [`OffloadBackend::forward_reference`]
    /// once the retry budget is exhausted.
    pub cpu_fallback: bool,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_retries: 2,
            cpu_fallback: true,
        }
    }
}

impl RetryPolicy {
    /// Fail-fast policy: no retries, no fallback — every accelerator fault
    /// surfaces as an error.
    pub fn fail_fast() -> Self {
        Self {
            max_retries: 0,
            cpu_fallback: false,
        }
    }
}

/// Pause before the first retry.
const BACKOFF_BASE: Duration = Duration::from_micros(50);
/// Growth factor applied per subsequent retry.
const BACKOFF_MULTIPLIER: u32 = 2;
/// Upper bound on any single pause.
const BACKOFF_CAP: Duration = Duration::from_millis(5);

/// The pause before retry `attempt` (1-based), exponentially grown and
/// capped. Saturates instead of overflowing for absurd attempt counts.
fn backoff_for(attempt: u32) -> Duration {
    let factor = BACKOFF_MULTIPLIER.saturating_pow(attempt.saturating_sub(1).min(16));
    BACKOFF_BASE.saturating_mul(factor).min(BACKOFF_CAP)
}

/// Shared health counters of one offload path.
///
/// Handles are cheap clones over the same atomics, so the pipeline and the
/// demo can observe degradation while inference threads update it.
#[derive(Debug, Clone, Default)]
pub struct OffloadHealth {
    inner: Arc<HealthCounters>,
}

#[derive(Debug, Default)]
struct HealthCounters {
    forwards: AtomicU64,
    faults: AtomicU64,
    retries: AtomicU64,
    fallbacks: AtomicU64,
    degraded: AtomicU64,
}

impl OffloadHealth {
    /// Counter snapshot.
    pub fn snapshot(&self) -> OffloadStats {
        OffloadStats {
            forwards: self.inner.forwards.load(Ordering::Relaxed),
            faults: self.inner.faults.load(Ordering::Relaxed),
            retries: self.inner.retries.load(Ordering::Relaxed),
            fallbacks: self.inner.fallbacks.load(Ordering::Relaxed),
            degraded: self.inner.degraded.load(Ordering::Relaxed),
        }
    }

    /// Frames completed in degraded mode so far (retried or fallen back) —
    /// a cheap probe for pipeline metrics.
    pub fn degraded(&self) -> u64 {
        self.inner.degraded.load(Ordering::Relaxed)
    }
}

/// A snapshot of [`OffloadHealth`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OffloadStats {
    /// Successfully completed forward passes (any path).
    pub forwards: u64,
    /// Accelerator faults observed (each failed attempt counts once).
    pub faults: u64,
    /// Retry attempts issued.
    pub retries: u64,
    /// Frames completed on the CPU reference path.
    pub fallbacks: u64,
    /// Frames that needed *any* recovery (retry or fallback) to complete.
    pub degraded: u64,
}

impl std::ops::AddAssign for OffloadStats {
    fn add_assign(&mut self, rhs: Self) {
        self.forwards += rhs.forwards;
        self.faults += rhs.faults;
        self.retries += rhs.retries;
        self.fallbacks += rhs.fallbacks;
        self.degraded += rhs.degraded;
    }
}

impl std::iter::Sum for OffloadStats {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(Self::default(), |mut total, stats| {
            total += stats;
            total
        })
    }
}

/// The mutable half of an offload target: what one fabric carries while
/// it runs a loaded backend. Its fault injector (the invocation stream and
/// the pending bitstream reload), its health counters and its retry
/// policy; the weights, cores and thresholds belong to the backend, which
/// any number of devices may run at once. Fault-free under the default
/// retry policy by default. A clone is a handle on the same device: it
/// shares the fault stream and the counters.
#[derive(Debug, Clone, Default)]
pub struct Device {
    /// Retry/fallback policy for this device's faults.
    pub retry: RetryPolicy,
    health: OffloadHealth,
    faults: Option<FaultInjector>,
}

impl Device {
    /// A device that faults on `plan`'s schedule ([`FaultPlan::none`] runs
    /// fault-free) and recovers under `retry`.
    pub fn new(plan: FaultPlan, retry: RetryPolicy) -> Self {
        Self {
            retry,
            health: OffloadHealth::default(),
            faults: (!plan.is_empty()).then(|| FaultInjector::new(plan)),
        }
    }

    /// A shared handle on this device's health counters.
    pub fn health(&self) -> OffloadHealth {
        self.health.clone()
    }

    /// The fault injector every accelerated invocation on this device
    /// draws from, when its plan can fault.
    pub fn faults(&self) -> Option<&FaultInjector> {
        self.faults.as_ref()
    }
}

type BackendFactory = Box<dyn Fn() -> Box<dyn OffloadBackend> + Send + Sync>;

/// Maps `library=` identifiers to backend factories — the registry standing
/// in for the dynamic loader.
#[derive(Default)]
pub struct BackendRegistry {
    factories: HashMap<String, BackendFactory>,
}

impl BackendRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a factory under a library identifier, replacing any
    /// previous registration.
    pub fn register(
        &mut self,
        library: impl Into<String>,
        factory: impl Fn() -> Box<dyn OffloadBackend> + Send + Sync + 'static,
    ) {
        self.factories.insert(library.into(), Box::new(factory));
    }

    /// Instantiates a backend for a library identifier.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::UnknownBackend`] if nothing is registered.
    pub fn create(&self, library: &str) -> Result<Box<dyn OffloadBackend>, NnError> {
        self.factories
            .get(library)
            .map(|f| f())
            .ok_or_else(|| NnError::UnknownBackend {
                library: library.to_owned(),
            })
    }

    /// Registered library identifiers.
    pub fn libraries(&self) -> Vec<&str> {
        self.factories.keys().map(String::as_str).collect()
    }
}

impl fmt::Debug for BackendRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BackendRegistry")
            .field("libraries", &self.libraries())
            .finish()
    }
}

/// The offload layer: Darknet's view of an externally implemented layer,
/// with the [`Device`] its [`Layer::forward`] runs on.
pub struct OffloadLayer {
    config: OffloadConfig,
    backend: Box<dyn OffloadBackend>,
    device: Device,
}

impl OffloadLayer {
    /// Builds the layer by resolving `spec.library` in the registry and
    /// running the backend's `init` hook.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::UnknownBackend`] if the library is unregistered,
    /// or the backend's own `init` failure.
    pub fn new(
        in_shape: Shape3,
        spec: &OffloadSpec,
        registry: &BackendRegistry,
    ) -> Result<Self, NnError> {
        let mut backend = registry.create(&spec.library)?;
        let config = OffloadConfig {
            library: spec.library.clone(),
            network: spec.network.clone(),
            weights: spec.weights.clone(),
            input_shape: in_shape,
            output_shape: spec.out_shape,
        };
        backend.init(&config)?;
        Ok(Self {
            config,
            backend,
            device: Device::default(),
        })
    }

    /// The device the layer's own forwards run on, to arm or replace.
    pub fn device_mut(&mut self) -> &mut Device {
        &mut self.device
    }

    /// [`Self::forward_batch_on`] the layer's own device.
    ///
    /// # Errors
    ///
    /// As [`Self::forward_batch_on`].
    pub fn forward_batch(&self, inputs: &[Tensor<f32>]) -> Result<Vec<Tensor<f32>>, NnError> {
        self.forward_batch_on(&self.device, inputs)
    }

    /// Runs a whole micro-batch through the backend in one offload
    /// invocation on `device`, under its retry/fallback policy, updating
    /// its health: the per-frame counters (`forwards`, `fallbacks`,
    /// `degraded`) advance by the batch size, the per-invocation ones
    /// (`faults`, `retries`) by one per attempt — a faulted batch is one
    /// DMA fault, not one per frame.
    ///
    /// A retryable fault faults the *batch* (one DMA invocation), is
    /// retried as a unit, and past the retry budget the whole batch
    /// completes on the host-side reference path — so an accepted batch
    /// either fully succeeds or fully fails, never partially.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] for any nonconforming input or
    /// output, or the backend's failure per the resilience contract. An
    /// empty batch is rejected as [`NnError::InvalidSpec`].
    pub fn forward_batch_on(
        &self,
        device: &Device,
        inputs: &[Tensor<f32>],
    ) -> Result<Vec<Tensor<f32>>, NnError> {
        if inputs.is_empty() {
            return Err(NnError::InvalidSpec {
                what: "offload micro-batch must not be empty".to_owned(),
            });
        }
        for input in inputs {
            self.check_input(input)?;
        }
        let backend = self.backend.as_ref();
        let (policy, counters) = (&device.retry, &device.health.inner);
        let items = inputs.len() as u64;
        let batch = u32::try_from(inputs.len()).unwrap_or(u32::MAX);
        let mut attempt = 0u32;
        let outs = loop {
            let outcome = {
                let _span = tincy_trace::span(static_label!("offload.attempt"))
                    .attempt(attempt)
                    .batch(batch)
                    .backend(tincy_trace::Backend::Finn)
                    .start();
                backend.forward_batch(inputs, device)
            };
            match outcome {
                Ok(value) => {
                    counters.forwards.fetch_add(items, Ordering::Relaxed);
                    if attempt > 0 {
                        counters.degraded.fetch_add(items, Ordering::Relaxed);
                    }
                    break value;
                }
                Err(e) if e.is_retryable() => {
                    counters.faults.fetch_add(1, Ordering::Relaxed);
                    if tincy_trace::is_enabled() {
                        tincy_trace::span(static_label!("offload.fault"))
                            .attempt(attempt)
                            .fault(&e.to_string())
                            .emit();
                    }
                    if attempt < policy.max_retries {
                        attempt += 1;
                        counters.retries.fetch_add(1, Ordering::Relaxed);
                        let _span = tincy_trace::span(static_label!("offload.backoff"))
                            .attempt(attempt)
                            .start();
                        std::thread::sleep(backoff_for(attempt));
                        continue;
                    }
                    if policy.cpu_fallback {
                        let value = {
                            let _span = tincy_trace::span(static_label!("offload.fallback"))
                                .batch(batch)
                                .backend(tincy_trace::Backend::Host)
                                .start();
                            let host = inputs.iter().map(|input| backend.forward_reference(input));
                            host.collect::<Result<Vec<_>, _>>()?
                        };
                        counters.forwards.fetch_add(items, Ordering::Relaxed);
                        counters.fallbacks.fetch_add(items, Ordering::Relaxed);
                        counters.degraded.fetch_add(items, Ordering::Relaxed);
                        break value;
                    }
                    return Err(e);
                }
                Err(e) => return Err(e),
            }
        };
        if outs.len() != inputs.len() {
            return Err(NnError::InvalidSpec {
                what: format!(
                    "backend returned {} outputs for a batch of {}",
                    outs.len(),
                    inputs.len()
                ),
            });
        }
        for out in &outs {
            if out.shape() != self.config.output_shape {
                return Err(NnError::ShapeMismatch {
                    expected: self.config.output_shape.to_string(),
                    actual: out.shape().to_string(),
                });
            }
        }
        Ok(outs)
    }

    /// Evaluates one input on the host-side reference path directly,
    /// bypassing the accelerator *and* the resilience machinery. This is
    /// the entry point for schedulers that deliberately place work on the
    /// CPU backend (load shedding, heterogeneous dispatch) — unlike a
    /// fallback it is not a recovery event, so the health counters are
    /// untouched.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] or the backend's own failure.
    pub fn forward_host(&self, input: &Tensor<f32>) -> Result<Tensor<f32>, NnError> {
        let _span = tincy_trace::span(static_label!("offload.host"))
            .backend(tincy_trace::Backend::Host)
            .start();
        self.check_input(input)?;
        let out = self.backend.forward_reference(input)?;
        if out.shape() != self.config.output_shape {
            return Err(NnError::ShapeMismatch {
                expected: self.config.output_shape.to_string(),
                actual: out.shape().to_string(),
            });
        }
        Ok(out)
    }

    /// Immutable access to the backend.
    pub fn backend(&self) -> &dyn OffloadBackend {
        self.backend.as_ref()
    }
}

impl fmt::Debug for OffloadLayer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("OffloadLayer")
            .field("config", &self.config)
            .field("backend", &self.backend.library_name())
            .finish()
    }
}

impl Layer for OffloadLayer {
    fn kind(&self) -> &'static str {
        "offload"
    }

    fn input_shape(&self) -> Shape3 {
        self.config.input_shape
    }

    fn output_shape(&self) -> Shape3 {
        self.config.output_shape
    }

    fn forward(&self, input: &Tensor<f32>) -> Result<Tensor<f32>, NnError> {
        let mut outs = self.forward_batch(std::slice::from_ref(input))?;
        Ok(outs.pop().expect("a batch of one yields one output"))
    }

    fn load_weights(&mut self, reader: &mut WeightsReader<'_>) -> Result<(), NnError> {
        self.backend.load_weights(reader)
    }

    fn num_params(&self) -> usize {
        self.backend.num_params()
    }

    fn ops_per_frame(&self) -> u64 {
        self.backend.ops_per_frame()
    }

    fn as_offload_mut(&mut self) -> Option<&mut OffloadLayer> {
        Some(self)
    }

    fn as_offload(&self) -> Option<&OffloadLayer> {
        Some(self)
    }
}

#[cfg(test)]
pub(crate) mod test_support {
    use super::*;

    /// A backend that scales its input by a loadable factor — small enough
    /// to verify the whole life cycle.
    pub(crate) struct ScaleBackend {
        pub factor: f32,
        pub out_shape: Shape3,
        pub initialized: bool,
    }

    impl ScaleBackend {
        pub(crate) fn boxed() -> Box<dyn OffloadBackend> {
            Box::new(Self {
                factor: 1.0,
                out_shape: Shape3::new(1, 1, 1),
                initialized: false,
            })
        }
    }

    impl OffloadBackend for ScaleBackend {
        fn library_name(&self) -> &str {
            "scale.so"
        }
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
        fn init(&mut self, config: &OffloadConfig) -> Result<(), NnError> {
            if config.input_shape != config.output_shape {
                return Err(NnError::InvalidSpec {
                    what: "scale backend requires matching shapes".to_owned(),
                });
            }
            self.out_shape = config.output_shape;
            self.initialized = true;
            Ok(())
        }
        fn load_weights(&mut self, reader: &mut WeightsReader<'_>) -> Result<(), NnError> {
            self.factor = reader.read_f32s(1)?[0];
            Ok(())
        }
        fn forward(&self, input: &Tensor<f32>) -> Result<Tensor<f32>, NnError> {
            Ok(input.map(|v| v * self.factor))
        }
        fn num_params(&self) -> usize {
            1
        }
        fn ops_per_frame(&self) -> u64 {
            self.out_shape.volume() as u64
        }
    }

    /// A backend whose accelerated path fails the first `faults`
    /// invocations with a retryable fault; the reference path always works
    /// (scaling by `factor`, like [`ScaleBackend`]).
    pub(crate) struct FlakyBackend {
        pub inner: ScaleBackend,
        pub faults: u64,
        pub hw_calls: AtomicU64,
        pub reference_calls: AtomicU64,
    }

    impl FlakyBackend {
        pub(crate) fn failing(faults: u32) -> Box<dyn OffloadBackend> {
            let inner = ScaleBackend {
                factor: 1.0,
                out_shape: Shape3::new(1, 1, 1),
                initialized: false,
            };
            Box::new(Self {
                inner,
                faults: u64::from(faults),
                hw_calls: AtomicU64::new(0),
                reference_calls: AtomicU64::new(0),
            })
        }

        /// Accelerated and reference invocations so far.
        pub(crate) fn calls(&self) -> (u64, u64) {
            let load = |calls: &AtomicU64| calls.load(Ordering::Relaxed);
            (load(&self.hw_calls), load(&self.reference_calls))
        }
    }

    impl OffloadBackend for FlakyBackend {
        fn library_name(&self) -> &str {
            "flaky.so"
        }
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
        fn init(&mut self, config: &OffloadConfig) -> Result<(), NnError> {
            self.inner.init(config)
        }
        fn load_weights(&mut self, reader: &mut WeightsReader<'_>) -> Result<(), NnError> {
            self.inner.load_weights(reader)
        }
        fn forward(&self, input: &Tensor<f32>) -> Result<Tensor<f32>, NnError> {
            if self.hw_calls.fetch_add(1, Ordering::Relaxed) < self.faults {
                return Err(NnError::Accel {
                    what: "injected flake".to_owned(),
                    retryable: true,
                });
            }
            self.inner.forward(input)
        }
        fn forward_reference(&self, input: &Tensor<f32>) -> Result<Tensor<f32>, NnError> {
            self.reference_calls.fetch_add(1, Ordering::Relaxed);
            self.inner.forward(input)
        }
        fn num_params(&self) -> usize {
            self.inner.num_params()
        }
        fn ops_per_frame(&self) -> u64 {
            self.inner.ops_per_frame()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::test_support::{FlakyBackend, ScaleBackend};
    use super::*;

    fn registry() -> BackendRegistry {
        let mut r = BackendRegistry::new();
        r.register("scale.so", ScaleBackend::boxed);
        r
    }

    fn flaky_layer(faults: u32, policy: RetryPolicy) -> OffloadLayer {
        let mut r = BackendRegistry::new();
        r.register("flaky.so", move || FlakyBackend::failing(faults));
        let shape = Shape3::new(1, 2, 2);
        let spec = OffloadSpec {
            library: "flaky.so".to_owned(),
            network: "sub.cfg".to_owned(),
            weights: "sub.weights".to_owned(),
            out_shape: shape,
            ops: 1,
        };
        let mut layer = OffloadLayer::new(shape, &spec, &r).unwrap();
        layer.device_mut().retry = policy;
        layer
    }

    fn spec(shape: Shape3) -> OffloadSpec {
        OffloadSpec {
            library: "scale.so".to_owned(),
            network: "sub.cfg".to_owned(),
            weights: "sub.weights".to_owned(),
            out_shape: shape,
            ops: 42,
        }
    }

    #[test]
    fn unknown_library_is_rejected() {
        let r = BackendRegistry::new();
        let err = OffloadLayer::new(Shape3::new(1, 2, 2), &spec(Shape3::new(1, 2, 2)), &r);
        assert!(matches!(err, Err(NnError::UnknownBackend { .. })));
    }

    #[test]
    fn full_life_cycle() {
        let shape = Shape3::new(2, 3, 3);
        let mut layer = OffloadLayer::new(shape, &spec(shape), &registry()).unwrap();

        // load_weights hook.
        let mut buf = Vec::new();
        crate::weights::WeightsWriter::new(&mut buf)
            .write_f32s(&[2.5])
            .unwrap();
        let mut cursor = std::io::Cursor::new(buf);
        layer
            .load_weights(&mut WeightsReader::new(&mut cursor))
            .unwrap();

        // forward hook.
        let input = Tensor::filled(shape, 2.0f32);
        let out = layer.forward(&input).unwrap();
        assert!(out.as_slice().iter().all(|&v| (v - 5.0).abs() < 1e-6));
        assert_eq!(layer.num_params(), 1);
        assert_eq!(layer.kind(), "offload");
        // destroy hook: dropping the layer runs Drop on the backend.
        drop(layer);
    }

    #[test]
    fn init_failure_propagates() {
        let err = OffloadLayer::new(
            Shape3::new(1, 2, 2),
            &spec(Shape3::new(9, 9, 9)), // shape mismatch the backend rejects
            &registry(),
        );
        assert!(err.is_err());
    }

    #[test]
    fn retry_recovers_from_transient_faults() {
        let layer = flaky_layer(2, RetryPolicy::default());
        let input = Tensor::filled(Shape3::new(1, 2, 2), 3.0f32);
        let out = layer.forward(&input).unwrap();
        assert!(out.as_slice().iter().all(|&v| (v - 3.0).abs() < 1e-6));
        let stats = layer.device.health().snapshot();
        assert_eq!(stats.faults, 2);
        assert_eq!(stats.retries, 2);
        assert_eq!(stats.fallbacks, 0);
        assert_eq!(stats.degraded, 1, "one frame needed recovery");
        assert_eq!(stats.forwards, 1);
    }

    #[test]
    fn fallback_completes_frame_when_retries_exhaust() {
        let layer = flaky_layer(100, RetryPolicy::default());
        let input = Tensor::filled(Shape3::new(1, 2, 2), 4.0f32);
        let out = layer.forward(&input).unwrap();
        assert!(out.as_slice().iter().all(|&v| (v - 4.0).abs() < 1e-6));
        let stats = layer.device.health().snapshot();
        assert_eq!(stats.retries, 2);
        assert_eq!(stats.faults, 3, "initial try plus two retries all faulted");
        assert_eq!(stats.fallbacks, 1);
        assert_eq!(stats.degraded, 1);
        let backend = layer
            .backend()
            .as_any()
            .downcast_ref::<FlakyBackend>()
            .expect("flaky backend");
        assert_eq!(backend.calls(), (3, 1));
    }

    #[test]
    fn fail_fast_policy_surfaces_the_fault() {
        let layer = flaky_layer(1, RetryPolicy::fail_fast());
        let input = Tensor::filled(Shape3::new(1, 2, 2), 1.0f32);
        let err = layer.forward(&input).unwrap_err();
        assert!(err.is_retryable());
        assert_eq!(layer.device.health().snapshot().fallbacks, 0);
    }

    #[test]
    fn non_retryable_errors_bypass_retry_and_fallback() {
        let layer = flaky_layer(0, RetryPolicy::default());
        let bad = Tensor::filled(Shape3::new(2, 2, 2), 1.0f32);
        assert!(matches!(
            layer.forward(&bad),
            Err(NnError::ShapeMismatch { .. })
        ));
        assert_eq!(layer.device.health().snapshot().faults, 0);
    }

    #[test]
    fn backoff_grows_and_caps() {
        assert_eq!(backoff_for(1), Duration::from_micros(50));
        assert_eq!(backoff_for(2), Duration::from_micros(100));
        assert_eq!(backoff_for(7), Duration::from_micros(3_200));
        assert_eq!(backoff_for(8), Duration::from_millis(5), "capped");
        assert_eq!(backoff_for(100), Duration::from_millis(5), "no overflow");
    }

    #[test]
    fn layer_downcast_hook_reaches_offload() {
        let shape = Shape3::new(2, 3, 3);
        let mut layer: Box<dyn Layer> =
            Box::new(OffloadLayer::new(shape, &spec(shape), &registry()).unwrap());
        let offload = layer.as_offload_mut().expect("offload layer downcasts");
        offload.device_mut().retry = RetryPolicy::fail_fast();
        assert_eq!(offload.device.retry, RetryPolicy::fail_fast());
    }

    #[test]
    fn batch_forward_matches_singles_and_counts_items() {
        let shape = Shape3::new(2, 3, 3);
        let layer = OffloadLayer::new(shape, &spec(shape), &registry()).unwrap();
        let inputs: Vec<Tensor<f32>> = (0..4)
            .map(|i| Tensor::filled(shape, i as f32 + 1.0))
            .collect();
        let batched = layer.forward_batch(&inputs).unwrap();
        assert_eq!(batched.len(), 4);
        for (input, out) in inputs.iter().zip(&batched) {
            assert_eq!(&layer.forward(input).unwrap(), out);
        }
        // 4 batch items + 4 single forwards.
        assert_eq!(layer.device.health().snapshot().forwards, 8);
        assert!(matches!(
            layer.forward_batch(&[]),
            Err(NnError::InvalidSpec { .. })
        ));
    }

    #[test]
    fn faulted_batch_falls_back_as_a_unit() {
        let layer = flaky_layer(100, RetryPolicy::default());
        let inputs: Vec<Tensor<f32>> = (0..3)
            .map(|_| Tensor::filled(Shape3::new(1, 2, 2), 2.0))
            .collect();
        let outs = layer.forward_batch(&inputs).unwrap();
        assert_eq!(outs.len(), 3);
        assert!(outs
            .iter()
            .all(|o| o.as_slice().iter().all(|&v| (v - 2.0).abs() < 1e-6)));
        let stats = layer.device.health().snapshot();
        // Per-invocation counters: initial try + two retries, all faulted.
        assert_eq!(stats.faults, 3);
        assert_eq!(stats.retries, 2);
        // Per-frame counters scale with the batch.
        assert_eq!(stats.forwards, 3);
        assert_eq!(stats.fallbacks, 3);
        assert_eq!(stats.degraded, 3);
    }

    #[test]
    fn forward_host_runs_reference_without_recovery_counters() {
        let layer = flaky_layer(100, RetryPolicy::default());
        let input = Tensor::filled(Shape3::new(1, 2, 2), 5.0f32);
        let out = layer.forward_host(&input).unwrap();
        assert!(out.as_slice().iter().all(|&v| (v - 5.0).abs() < 1e-6));
        let stats = layer.device.health().snapshot();
        assert_eq!(stats, OffloadStats::default(), "no health movement");
        let backend = layer
            .backend()
            .as_any()
            .downcast_ref::<FlakyBackend>()
            .expect("flaky backend");
        assert_eq!(backend.calls(), (0, 1), "accelerated path never touched");
    }

    #[test]
    fn registry_replaces_and_lists() {
        let mut r = registry();
        assert_eq!(r.libraries(), vec!["scale.so"]);
        r.register("scale.so", ScaleBackend::boxed);
        assert_eq!(r.libraries().len(), 1);
        assert!(r.create("scale.so").is_ok());
    }
}
