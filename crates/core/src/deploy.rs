//! Deployment: from a quantization-aware-trained detector to the network
//! the product runs — the offline half of the FINN flow (§II, §III-A/C).
//!
//! There is one road, the paper's (Fig 3/4): the trained float parameters
//! stream through `load_weights`, CPU layers keep theirs, and the
//! `[offload]` backend binarizes its share and folds `α`, the activation
//! step, the bias and the ReLU + 3-bit staircase into integer thresholds
//! ([`tincy_finn::FabricBackend`]). Because the QAT model already
//! discretized its hidden feature maps during training, the deployed
//! network computes the *same function* up to float rounding at threshold
//! boundaries — verified end to end, with the refusals and the fault
//! path, in `tests/deployment.rs`.

use crate::build::build_network_for;
use tincy_finn::FaultPlan;
use tincy_nn::{LayerSpec, ModelSpec, Network, NnError};
use tincy_train::TrainNet;

/// Deploys a trained net as the served [`Network`] of its `model`:
/// [`build_network_for`] with the trained parameters loaded through the
/// one weight stream.
///
/// Batch normalization is cleared on the way: a [`TrainNet`] carries no
/// statistics and its trained bias is the whole affine.
///
/// # Errors
///
/// Returns [`NnError::InvalidSpec`] if `net` is not the model's own
/// lowering ([`TrainNet::from_model`]) — a float hidden conv or an
/// unquantized input conv would deploy as a different function — and
/// propagates network construction failures.
pub fn deploy(
    net: &TrainNet,
    model: &ModelSpec,
    fault_plan: FaultPlan,
) -> Result<Network, NnError> {
    let invalid = |what: String| NnError::InvalidSpec { what };
    let lowering = TrainNet::from_model(model).map_err(|e| invalid(e.to_string()))?;
    if (net.input_shape(), net.specs()) != (lowering.input_shape(), lowering.specs()) {
        return Err(invalid(format!(
            "the trained net is not the lowering of model {:?}: {:?} vs {:?}",
            model.name,
            net.specs(),
            lowering.specs()
        )));
    }
    let mut model = model.clone();
    for layer in &mut model.network.layers {
        if let LayerSpec::Conv(conv) = layer {
            conv.batch_normalize = false;
        }
    }
    let mut network = build_network_for(&model, fault_plan)?;
    let mut stream = Vec::new();
    net.save_weights(&mut stream)?;
    network.load_weights(stream.as_slice())?;
    Ok(network)
}
