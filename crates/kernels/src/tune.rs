//! What is left of the startup autotuner: the names `benchmark/` calls.
//!
//! There is one packed schedule (`stream.rs`), so there is nothing to
//! tune and no plan to cache. The ledger still asks for a plan and passes
//! its entries back into [`crate::PackedLayer::forward`] and
//! [`crate::gemm_q8`], and a change that claims a gain may not edit the
//! ledger; these types keep those calls compiling and choose nothing. They
//! go when a `benchmark/`-only change stops naming them.

use crate::pack::PackedLayer;

/// The packed schedule. One value, because there is one schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// The streamed, L1-tiled schedule (cache-blocked panels for the W8A8
    /// GEMM).
    Blocked,
}

/// Carries nothing; [`autotune`] takes it for the ledger's sake.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TuneBudget;

/// The arguments the ledger passes to [`PackedLayer::forward`] for one
/// layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanEntry {
    /// Always [`Variant::Blocked`].
    pub variant: Variant,
    /// Always 1, and ignored by the kernels: they spawn no threads.
    pub threads: usize,
}

/// One [`PlanEntry`] per layer of a stack.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KernelPlan {
    entries: Vec<PlanEntry>,
}

impl KernelPlan {
    /// The entry for one layer.
    ///
    /// # Panics
    ///
    /// Panics if `layer` is out of range.
    pub fn entry(&self, layer: usize) -> &PlanEntry {
        &self.entries[layer]
    }
}

/// The plan for a stack: the one schedule, for every layer.
pub fn autotune(layers: &[PackedLayer], _budget: &TuneBudget) -> KernelPlan {
    let entry = PlanEntry {
        variant: Variant::Blocked,
        threads: 1,
    };
    KernelPlan {
        entries: vec![entry; layers.len()],
    }
}
