//! The layer abstraction with the Fig 3 life cycle.
//!
//! Darknet virtualizes layer functionality through function pointers with
//! four hooks: *init* (construction, with access to configuration), *load
//! weights*, *forward* (inference) and *destroy* (resource cleanup). In
//! Rust these map to the constructor, [`Layer::load_weights`],
//! [`Layer::forward`] and [`Drop`] respectively — the offload mechanism
//! customizes all four by substituting a whole [`Layer`] implementation.
//! Only the first two change a layer: `forward` takes `&self`, so one
//! built network can serve many threads at once.

use crate::error::NnError;
use crate::weights::WeightsReader;
use tincy_tensor::{Shape3, Tensor};

/// A network layer.
///
/// Layers exchange `f32` feature maps at their boundaries (as Darknet
/// does); quantized layers quantize internally. Only construction and
/// [`Layer::load_weights`] mutate a layer; everything a forward needs is
/// derived there. Implementations must be [`Send`] + [`Sync`] so layers
/// can be distributed over pipeline worker threads (§III-F) and one built
/// network can be shared by concurrent workers.
pub trait Layer: Send + Sync {
    /// Short type name (`conv`, `pool`, `region`, `offload`).
    fn kind(&self) -> &'static str;

    /// Shape of the expected input feature map.
    fn input_shape(&self) -> Shape3;

    /// Shape of the produced output feature map.
    fn output_shape(&self) -> Shape3;

    /// Layer inference: computes the output feature map.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] if `input` does not match
    /// [`Layer::input_shape`], or implementation-specific failures.
    fn forward(&self, input: &Tensor<f32>) -> Result<Tensor<f32>, NnError>;

    /// Loads this layer's parameters from the sequential weight stream.
    ///
    /// The default implementation is a no-op for parameter-free layers.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::Io`] if the stream is exhausted.
    fn load_weights(&mut self, _reader: &mut WeightsReader<'_>) -> Result<(), NnError> {
        Ok(())
    }

    /// Number of learned parameters.
    fn num_params(&self) -> usize {
        0
    }

    /// Operations per frame with the paper's accounting.
    fn ops_per_frame(&self) -> u64;

    /// Downcasting hook to the offload layer, so integrations holding
    /// `Box<dyn Layer>` stacks can configure retry policies and observe
    /// offload health. `None` for every other layer kind.
    fn as_offload_mut(&mut self) -> Option<&mut crate::offload::OffloadLayer> {
        None
    }

    /// Shared-borrow counterpart of [`Layer::as_offload_mut`], for callers
    /// that run a shared network.
    fn as_offload(&self) -> Option<&crate::offload::OffloadLayer> {
        None
    }

    /// Validates an incoming feature map against [`Layer::input_shape`].
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] on disagreement.
    fn check_input(&self, input: &Tensor<f32>) -> Result<(), NnError> {
        if input.shape() != self.input_shape() {
            return Err(NnError::ShapeMismatch {
                expected: self.input_shape().to_string(),
                actual: input.shape().to_string(),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A minimal layer proving the trait is object safe and the default
    /// hooks behave.
    struct Passthrough(Shape3);

    impl Layer for Passthrough {
        fn kind(&self) -> &'static str {
            "pass"
        }
        fn input_shape(&self) -> Shape3 {
            self.0
        }
        fn output_shape(&self) -> Shape3 {
            self.0
        }
        fn forward(&self, input: &Tensor<f32>) -> Result<Tensor<f32>, NnError> {
            self.check_input(input)?;
            Ok(input.clone())
        }
        fn ops_per_frame(&self) -> u64 {
            0
        }
    }

    #[test]
    fn trait_is_object_safe_and_checks_shapes() {
        let layer: Box<dyn Layer> = Box::new(Passthrough(Shape3::new(1, 2, 2)));
        let ok = Tensor::<f32>::zeros(Shape3::new(1, 2, 2));
        assert!(layer.forward(&ok).is_ok());
        let bad = Tensor::<f32>::zeros(Shape3::new(2, 2, 2));
        assert!(matches!(
            layer.forward(&bad),
            Err(NnError::ShapeMismatch { .. })
        ));
        assert_eq!(layer.num_params(), 0);
    }
}
