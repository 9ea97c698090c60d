//! Deterministic fault injection for the accelerator offload path.
//!
//! A production deployment of the paper's system lives or dies on the
//! robustness of the host↔accelerator boundary (cf. FINN-R): DMA engines
//! time out, the PL can lose its configuration, result buffers arrive
//! corrupted, and the fabric can simply be busy. [`FaultPlan`] describes
//! *when* and *how* the simulated accelerator misbehaves — driven purely by
//! a seed and the invocation counter, so a plan replays **identically**
//! across runs. [`FaultInjector`] carries the plan at run time and keeps
//! shared counters that the host-side health reporting surfaces.
//!
//! Every injected fault is a *detected* fault: the accelerator returns a
//! retryable [`NnError::Accel`] instead of silently wrong data (corrupted
//! result buffers are caught by a checksum compare, modelling the CRC on
//! the DMA return path). Recovery policy — retry, backoff, CPU fallback —
//! lives host-side in the [`crate::offload`] layer. A plan runs on one
//! [`crate::Device`]: its injector is the device's, never the loaded
//! model's, so devices that share one model fault independently.

use crate::error::NnError;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The accelerator fault classes the injector can produce.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// The DMA transfer of the input or output feature map timed out.
    DmaTimeout,
    /// The fabric rejected the invocation because it is busy (e.g. a
    /// competing tenant holds the single conv engine).
    TransientBusy,
    /// The result buffer failed its integrity check on the way back.
    CorruptResult,
    /// The PL lost its configuration; the bitstream must be reloaded
    /// before the next invocation can succeed.
    BitstreamLost,
}

impl FaultKind {
    /// Human-readable description used in error messages.
    pub fn describe(self) -> &'static str {
        match self {
            FaultKind::DmaTimeout => "DMA transfer timeout",
            FaultKind::TransientBusy => "fabric busy",
            FaultKind::CorruptResult => "result buffer checksum mismatch",
            FaultKind::BitstreamLost => "bitstream reload required",
        }
    }

    /// The error the accelerator raises for this fault. All injected
    /// faults are detected and retryable; policy decides what to do.
    pub fn to_error(self) -> NnError {
        NnError::Accel {
            what: self.describe().to_owned(),
            retryable: true,
        }
    }
}

/// A contiguous accelerator outage: every invocation in
/// `start..start + length` fails with `kind`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FaultWindow {
    /// First failing accelerator invocation (0-based).
    pub start: u64,
    /// Number of consecutive failing invocations.
    pub length: u64,
    /// The fault every invocation in the window raises.
    pub kind: FaultKind,
}

impl FaultWindow {
    /// Whether `invocation` falls inside the outage.
    pub fn contains(&self, invocation: u64) -> bool {
        invocation >= self.start && invocation - self.start < self.length
    }
}

/// A deterministic, seed-driven fault schedule.
///
/// The plan is a pure function of `(plan, invocation index)`: the same plan
/// observes the same faults at the same invocations in every run, which is
/// what makes degraded runs byte-reproducible. Rates are per-mille
/// probabilities evaluated with independent hash draws per invocation; an
/// optional [`FaultWindow`] models a hard outage on top.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultPlan {
    /// Seed decorrelating the random draws of otherwise identical plans.
    pub seed: u64,
    /// Per-mille chance of a [`FaultKind::DmaTimeout`] per invocation.
    pub dma_timeout_per_mille: u16,
    /// Per-mille chance of a [`FaultKind::TransientBusy`] per invocation.
    pub busy_per_mille: u16,
    /// Per-mille chance of a [`FaultKind::CorruptResult`] per invocation.
    pub corrupt_per_mille: u16,
    /// Per-mille chance of a [`FaultKind::BitstreamLost`] per invocation.
    pub bitstream_lost_per_mille: u16,
    /// Hard outage window, checked before the probabilistic draws.
    pub outage: Option<FaultWindow>,
    /// Cycle penalty charged to the first successful invocation after a
    /// [`FaultKind::BitstreamLost`] (the reconfiguration time). 0 as the
    /// constructors build a plan: the part's price is set by whoever
    /// builds a device for it (`tincy_core::xczu3eg_device`).
    pub reload_penalty_cycles: u64,
}

impl FaultPlan {
    /// The empty plan: never faults.
    pub fn none() -> Self {
        Self::default()
    }

    /// A mixed transient-fault plan with moderate rates (~5% of
    /// invocations fault) — the general soak-test setting.
    pub fn from_seed(seed: u64) -> Self {
        Self {
            seed,
            dma_timeout_per_mille: 20,
            busy_per_mille: 20,
            corrupt_per_mille: 10,
            bitstream_lost_per_mille: 2,
            outage: None,
            reload_penalty_cycles: 0,
        }
    }

    /// A plan whose only fault is a hard DMA outage over
    /// `start..start + length` invocations.
    pub fn outage(start: u64, length: u64) -> Self {
        Self {
            outage: Some(FaultWindow {
                start,
                length,
                kind: FaultKind::DmaTimeout,
            }),
            ..Self::default()
        }
    }

    /// Replaces the outage window, keeping the probabilistic rates.
    #[must_use]
    pub fn with_outage(mut self, window: FaultWindow) -> Self {
        self.outage = Some(window);
        self
    }

    /// Whether the plan can ever fault.
    pub fn is_empty(&self) -> bool {
        self.outage.is_none()
            && self.dma_timeout_per_mille == 0
            && self.busy_per_mille == 0
            && self.corrupt_per_mille == 0
            && self.bitstream_lost_per_mille == 0
    }

    /// The fault (if any) for one accelerator invocation — a pure
    /// function, so schedules replay identically.
    pub fn fault_for(&self, invocation: u64) -> Option<FaultKind> {
        if let Some(window) = &self.outage {
            if window.contains(invocation) {
                return Some(window.kind);
            }
        }
        let rates = [
            (FaultKind::DmaTimeout, self.dma_timeout_per_mille),
            (FaultKind::TransientBusy, self.busy_per_mille),
            (FaultKind::CorruptResult, self.corrupt_per_mille),
            (FaultKind::BitstreamLost, self.bitstream_lost_per_mille),
        ];
        // One independent draw per kind, salted 1..=4, first hit wins.
        (1u64..).zip(rates).find_map(|(salt, (kind, per_mille))| {
            let draw = mix(self.seed ^ salt, invocation) % 1000;
            (per_mille > 0 && draw < u64::from(per_mille)).then_some(kind)
        })
    }
}

/// SplitMix64-style avalanche over `(seed, invocation)`.
fn mix(seed: u64, invocation: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(invocation.wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a checksum over a byte stream — the model of the CRC guarding the
/// DMA return path.
pub fn result_checksum(data: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in data {
        h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Counters shared between the accelerator and host-side health reporting.
#[derive(Debug, Default)]
struct InjectorCounters {
    invocations: AtomicU64,
    faults: AtomicU64,
    dma_timeouts: AtomicU64,
    busy: AtomicU64,
    corrupt: AtomicU64,
    bitstream_lost: AtomicU64,
    /// Set while the PL configuration is lost; the next successful
    /// invocation pays the reload penalty and clears it.
    reload_pending: AtomicU64,
    reloads: AtomicU64,
}

/// A snapshot of the injector's counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultStats {
    /// Accelerator invocations attempted (including faulted ones).
    pub invocations: u64,
    /// Total injected faults.
    pub faults: u64,
    /// [`FaultKind::DmaTimeout`] count.
    pub dma_timeouts: u64,
    /// [`FaultKind::TransientBusy`] count.
    pub busy: u64,
    /// [`FaultKind::CorruptResult`] count.
    pub corrupt: u64,
    /// [`FaultKind::BitstreamLost`] count.
    pub bitstream_lost: u64,
    /// Completed bitstream reloads (penalties paid).
    pub reloads: u64,
}

/// Run-time carrier of a [`FaultPlan`]: draws one fault decision per
/// accelerator invocation and keeps shared counters.
///
/// Cloneable handles (`Arc` inside) let a backend rebuild its accelerator
/// without resetting the invocation stream.
#[derive(Debug, Clone, Default)]
pub struct FaultInjector {
    plan: FaultPlan,
    counters: Arc<InjectorCounters>,
}

impl FaultInjector {
    /// Creates an injector for a plan.
    pub fn new(plan: FaultPlan) -> Self {
        Self {
            plan,
            counters: Arc::default(),
        }
    }

    /// Draws the fault decision for the next invocation, updating
    /// counters. Returns `None` when the invocation should succeed.
    pub fn next_fault(&self) -> Option<FaultKind> {
        let invocation = self.counters.invocations.fetch_add(1, Ordering::Relaxed);
        let fault = self.plan.fault_for(invocation)?;
        self.counters.faults.fetch_add(1, Ordering::Relaxed);
        let counter = match fault {
            FaultKind::DmaTimeout => &self.counters.dma_timeouts,
            FaultKind::TransientBusy => &self.counters.busy,
            FaultKind::CorruptResult => &self.counters.corrupt,
            FaultKind::BitstreamLost => {
                self.counters.reload_pending.store(1, Ordering::Relaxed);
                &self.counters.bitstream_lost
            }
        };
        counter.fetch_add(1, Ordering::Relaxed);
        Some(fault)
    }

    /// Cycle penalty the current invocation must pay for a pending
    /// bitstream reload (0 if the configuration is intact). Clears the
    /// pending flag: the reload happens as part of this invocation.
    pub fn take_reload_penalty(&self) -> u64 {
        if self.counters.reload_pending.swap(0, Ordering::Relaxed) != 0 {
            self.counters.reloads.fetch_add(1, Ordering::Relaxed);
            self.plan.reload_penalty_cycles
        } else {
            0
        }
    }

    /// Deterministically corrupts one byte of a result buffer — the
    /// injected "bit flip on the DMA return path".
    pub fn corrupt_in_place(&self, data: &mut [u8]) {
        if data.is_empty() {
            return;
        }
        let invocation = self.counters.invocations.load(Ordering::Relaxed);
        let pos = (mix(self.plan.seed ^ 0xC0FFEE, invocation) as usize) % data.len();
        data[pos] ^= 0x2A;
    }

    /// Counter snapshot.
    pub fn stats(&self) -> FaultStats {
        FaultStats {
            invocations: self.counters.invocations.load(Ordering::Relaxed),
            faults: self.counters.faults.load(Ordering::Relaxed),
            dma_timeouts: self.counters.dma_timeouts.load(Ordering::Relaxed),
            busy: self.counters.busy.load(Ordering::Relaxed),
            corrupt: self.counters.corrupt.load(Ordering::Relaxed),
            bitstream_lost: self.counters.bitstream_lost.load(Ordering::Relaxed),
            reloads: self.counters.reloads.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_never_faults() {
        let plan = FaultPlan::none();
        assert!(plan.is_empty());
        assert!((0..10_000).all(|i| plan.fault_for(i).is_none()));
    }

    #[test]
    fn outage_window_is_exact() {
        let plan = FaultPlan::outage(5, 3);
        for i in 0..20 {
            let expected = (5..8).contains(&i).then_some(FaultKind::DmaTimeout);
            assert_eq!(plan.fault_for(i), expected, "invocation {i}");
        }
    }

    #[test]
    fn schedules_are_deterministic_and_seed_sensitive() {
        let a = FaultPlan::from_seed(7);
        let b = FaultPlan::from_seed(7);
        let c = FaultPlan::from_seed(8);
        let schedule = |p: &FaultPlan| (0..4000).map(|i| p.fault_for(i)).collect::<Vec<_>>();
        assert_eq!(schedule(&a), schedule(&b));
        assert_ne!(schedule(&a), schedule(&c));
        let faults = schedule(&a).iter().filter(|f| f.is_some()).count();
        assert!(
            faults > 50,
            "expected a visible fault rate, got {faults}/4000"
        );
        assert!(faults < 1000, "fault rate implausibly high: {faults}/4000");
        // Seed 7's first fault: a change to the draw moves it.
        assert_eq!(schedule(&a).iter().position(Option::is_some), Some(66));
    }

    #[test]
    fn injector_counts_by_kind_and_replays() {
        let injector = FaultInjector::new(FaultPlan::from_seed(3));
        let seen: Vec<_> = (0..2000).map(|_| injector.next_fault()).collect();
        let stats = injector.stats();
        assert_eq!(stats.invocations, 2000);
        assert_eq!(
            stats.faults as usize,
            seen.iter().filter(|f| f.is_some()).count()
        );
        assert_eq!(
            stats.faults,
            stats.dma_timeouts + stats.busy + stats.corrupt + stats.bitstream_lost
        );
        // A cloned handle shares the counter stream.
        let other = injector.clone();
        assert_eq!(other.stats(), stats);
        // A fresh injector over the same plan replays the same schedule.
        let replay = FaultInjector::new(FaultPlan::from_seed(3));
        let seen2: Vec<_> = (0..2000).map(|_| replay.next_fault()).collect();
        assert_eq!(seen, seen2);
    }

    #[test]
    fn reload_penalty_paid_once_after_bitstream_loss() {
        let plan = FaultPlan {
            reload_penalty_cycles: 1234,
            ..FaultPlan::outage(0, 1)
        };
        let plan = FaultPlan {
            outage: Some(FaultWindow {
                start: 0,
                length: 1,
                kind: FaultKind::BitstreamLost,
            }),
            ..plan
        };
        let injector = FaultInjector::new(plan);
        assert_eq!(injector.next_fault(), Some(FaultKind::BitstreamLost));
        assert_eq!(injector.take_reload_penalty(), 1234);
        assert_eq!(
            injector.take_reload_penalty(),
            0,
            "penalty paid exactly once"
        );
        assert_eq!(injector.stats().reloads, 1);
    }

    #[test]
    fn corruption_flips_exactly_one_byte_deterministically() {
        let injector = FaultInjector::new(FaultPlan::from_seed(9));
        let clean = vec![0u8; 64];
        let mut a = clean.clone();
        let mut b = clean.clone();
        injector.corrupt_in_place(&mut a);
        injector.corrupt_in_place(&mut b);
        assert_eq!(a, b, "same invocation corrupts the same byte");
        let flipped = clean.iter().zip(&a).filter(|(x, y)| x != y).count();
        assert_eq!(flipped, 1);
        assert_ne!(result_checksum(&clean), result_checksum(&a));
    }
}
