//! Multi-variant serving: the variant ladder and its shift hysteresis.
//!
//! One serve process can host several quantization variants of the
//! detector — typically instantiated from the `tincy explore` Pareto
//! frontier. The [`VariantLadder`] keeps one variant per accuracy proxy,
//! the one with the fewest modeled fabric cycles, and orders them by
//! accuracy (cheapest first); each SLO class gets a
//! *home rung* (tight classes pinned to the cheap variant, best-effort to
//! the accurate one), and a sustained SLO burn-rate alert shifts every
//! class *down* the ladder toward the cheap end — restoring rung by rung
//! after a clean streak. [`ShiftState`] is the hysteresis state
//! machine that keeps demote/promote from flapping.

use std::time::Duration;
use tincy_finn::SegmentCost;
use tincy_nn::{ModelSpec, OffloadSegment};

use crate::request::SloClass;

/// One servable quantization variant: a named design point plus its
/// accuracy proxy (the ladder ordering key).
#[derive(Debug, Clone)]
pub struct ServeVariant {
    /// Stable variant name (a frontier point id, or a model name).
    pub name: String,
    /// The design point to instantiate engines from.
    pub model: ModelSpec,
    /// Accuracy proxy from the DSE evaluation — higher is more accurate.
    pub accuracy: f64,
}

impl ServeVariant {
    /// Number of weighted fabric layers in this variant's offloaded
    /// segment: each offloadable conv swaps its weights onto the fabric
    /// once per FINN invocation, so this is the per-invocation swap count
    /// the scheduler charges against `tincy_variant_weight_swaps_total`.
    pub fn swap_layers(&self) -> u64 {
        OffloadSegment::of(&self.model.network).map_or(0, |s| s.layers().len() as u64)
    }

    /// Modeled fabric compute cycles of one frame at this variant's fold
    /// (0 without an offloadable segment).
    pub fn frame_cycles(&self) -> u64 {
        OffloadSegment::of(&self.model.network)
            .map_or(0, |s| SegmentCost::of(&s, self.model.fold).compute_cycles())
    }
}

/// The variant ladder: the hosted variants, one per accuracy proxy, sorted
/// cheapest-first (ascending accuracy).
/// Of the variants that share an accuracy value, the ladder keeps the one
/// with the fewest modeled frame cycles (then the first name): another
/// is as accurate and slower, so no class is better served by it.
/// Rung 0 is the fastest/least-accurate variant; the last rung the most
/// accurate. The ordering is total — any two distinct variants compare
/// consistently — so routing decisions are reproducible across runs.
#[derive(Debug, Clone)]
pub struct VariantLadder {
    variants: Vec<ServeVariant>,
    /// Names of the variants dropped for a faster one of equal accuracy.
    dropped: Vec<String>,
}

impl VariantLadder {
    /// Builds a ladder from an unordered variant set, dropping every
    /// variant that is as accurate as a faster one.
    ///
    /// # Errors
    ///
    /// Rejects an empty set and duplicate variant names (the name is the
    /// metrics label key — duplicates would merge unrelated series).
    pub fn new(mut variants: Vec<ServeVariant>) -> Result<Self, String> {
        if variants.is_empty() {
            return Err("variant ladder needs at least one variant".to_string());
        }
        let mut names: Vec<&str> = variants.iter().map(|v| v.name.as_str()).collect();
        names.sort_unstable();
        if let Some(pair) = names.windows(2).find(|pair| pair[0] == pair[1]) {
            return Err(format!("duplicate variant name {:?}", pair[0]));
        }
        variants.sort_by(|a, b| {
            a.accuracy
                .partial_cmp(&b.accuracy)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.frame_cycles().cmp(&b.frame_cycles()))
                .then_with(|| a.name.cmp(&b.name))
        });
        // Each accuracy value's first variant in this order is its fastest.
        let mut dropped = Vec::new();
        variants.dedup_by(|later, kept| {
            let dominated = later.accuracy == kept.accuracy;
            if dominated {
                dropped.push(later.name.clone());
            }
            dominated
        });
        Ok(Self { variants, dropped })
    }

    /// A one-rung ladder hosting a single design point — the degenerate
    /// case every pre-variant configuration maps onto.
    pub fn single(model: ModelSpec) -> Self {
        Self {
            variants: vec![ServeVariant {
                name: model.name.clone(),
                model,
                accuracy: 0.0,
            }],
            dropped: Vec::new(),
        }
    }

    /// Number of rungs.
    pub fn len(&self) -> usize {
        self.variants.len()
    }

    /// A ladder is never empty.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The variant on rung `i` (cheapest first).
    pub fn get(&self, i: usize) -> &ServeVariant {
        &self.variants[i]
    }

    /// All rungs, cheapest first.
    pub fn variants(&self) -> &[ServeVariant] {
        &self.variants
    }

    /// Rung names, cheapest first.
    pub fn names(&self) -> Vec<String> {
        self.variants.iter().map(|v| v.name.clone()).collect()
    }

    /// Names of the variants [`VariantLadder::new`] dropped, each as
    /// accurate as a rung with fewer modeled frame cycles.
    pub fn dropped(&self) -> &[String] {
        &self.dropped
    }

    /// The *home rung* of an SLO class: interactive traffic is pinned to
    /// the cheap end (rung 0), batch rides the most accurate rung, and
    /// standard sits mid-ladder. On a one-rung ladder every class shares
    /// rung 0.
    pub fn home(&self, class: SloClass) -> usize {
        match class {
            SloClass::Interactive => 0,
            SloClass::Standard => (self.len() - 1) / 2,
            SloClass::Batch => self.len() - 1,
        }
    }

    /// Home rungs for all classes, indexed by [`SloClass::index`].
    pub fn homes(&self) -> [usize; 3] {
        [
            self.home(SloClass::Interactive),
            self.home(SloClass::Standard),
            self.home(SloClass::Batch),
        ]
    }

    /// The rung a class runs on at a given demotion offset: `offset`
    /// rungs below its home, saturating at the cheap end. Demotion moves
    /// *down* the ladder (toward rung 0) — trading accuracy for speed
    /// while the system is burning its error budget.
    pub fn active_for(&self, class: SloClass, offset: usize) -> usize {
        self.home(class).saturating_sub(offset)
    }

    /// Largest meaningful demotion offset: past this every class is
    /// already on rung 0.
    pub fn max_offset(&self) -> usize {
        self.len() - 1
    }
}

/// Consecutive alerted observations before the ladder demotes one rung.
pub const DEMOTE_AFTER: u32 = 3;
/// Consecutive clean observations before it promotes one rung back.
pub const PROMOTE_AFTER: u32 = 6;
/// Observation cadence of the shift monitor thread.
pub(crate) const SHIFT_EVERY: Duration = Duration::from_millis(10);

/// A ladder shift decision, carrying the new demotion offset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shift {
    /// Traffic moves one rung down the ladder (toward the cheap end).
    Demote {
        /// The demotion offset after the shift.
        offset: usize,
    },
    /// Traffic moves one rung back up toward the home rungs.
    Promote {
        /// The demotion offset after the shift.
        offset: usize,
    },
}

/// The demote/promote state machine. Feed it one observation per shift
/// monitor tick (`alerted` = SLO budget burning); it
/// answers with a [`Shift`] only after a full streak in one direction,
/// and every shift resets both streaks — so an alternating signal never
/// moves the ladder, and a second demotion needs a fresh dirty streak.
#[derive(Debug, Clone, Default)]
pub struct ShiftState {
    offset: usize,
    dirty: u32,
    clean: u32,
}

impl ShiftState {
    /// A fresh state at the home rungs (offset 0).
    pub fn new() -> Self {
        Self::default()
    }

    /// Current demotion offset.
    pub fn offset(&self) -> usize {
        self.offset
    }

    /// Absorbs one observation and decides whether to shift.
    pub fn observe(&mut self, alerted: bool, max_offset: usize) -> Option<Shift> {
        if alerted {
            self.clean = 0;
            self.dirty += 1;
            if self.dirty >= DEMOTE_AFTER && self.offset < max_offset {
                self.offset += 1;
                self.dirty = 0;
                return Some(Shift::Demote {
                    offset: self.offset,
                });
            }
        } else {
            self.dirty = 0;
            self.clean += 1;
            if self.clean >= PROMOTE_AFTER && self.offset > 0 {
                self.offset -= 1;
                self.clean = 0;
                return Some(Shift::Promote {
                    offset: self.offset,
                });
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tincy_core::SystemConfig;

    fn variant(name: &str, accuracy: f64) -> ServeVariant {
        ServeVariant {
            name: name.to_string(),
            model: SystemConfig::default().model(),
            accuracy,
        }
    }

    #[test]
    fn ladder_sorts_cheapest_first_with_name_tiebreak() {
        let ladder = VariantLadder::new(vec![
            variant("c", 0.5),
            variant("a", 0.9),
            variant("b", 0.5),
        ])
        .unwrap();
        // "b" and "c" tie in accuracy and in cycles: the first name stays.
        assert_eq!(ladder.names(), ["b", "a"]);
        assert_eq!(ladder.dropped(), ["c"]);
        assert_eq!(ladder.max_offset(), 1);
    }

    #[test]
    fn ladder_rejects_empty_and_duplicates() {
        assert!(VariantLadder::new(Vec::new()).is_err());
        assert!(VariantLadder::new(vec![variant("x", 0.1), variant("x", 0.2)]).is_err());
        let apart = vec![variant("x", 0.1), variant("y", 0.2), variant("x", 0.3)];
        assert!(VariantLadder::new(apart).is_err());
        let tied = vec![variant("x", 0.1), variant("x", 0.1)];
        assert!(VariantLadder::new(tied).is_err());
    }

    #[test]
    fn homes_pin_interactive_cheap_and_batch_accurate() {
        let ladder = VariantLadder::new(vec![
            variant("a", 0.1),
            variant("b", 0.2),
            variant("c", 0.3),
        ])
        .unwrap();
        assert_eq!(ladder.homes(), [0, 1, 2]);
        let two = VariantLadder::new(vec![variant("a", 0.1), variant("b", 0.2)]).unwrap();
        assert_eq!(two.homes(), [0, 0, 1]);
        let one = VariantLadder::single(SystemConfig::default().model());
        assert_eq!(one.homes(), [0, 0, 0]);
    }

    #[test]
    fn demotion_offset_saturates_at_the_cheap_end() {
        let ladder = VariantLadder::new(vec![
            variant("a", 0.1),
            variant("b", 0.2),
            variant("c", 0.3),
        ])
        .unwrap();
        assert_eq!(ladder.active_for(SloClass::Batch, 0), 2);
        assert_eq!(ladder.active_for(SloClass::Batch, 1), 1);
        assert_eq!(ladder.active_for(SloClass::Batch, 2), 0);
        assert_eq!(ladder.active_for(SloClass::Interactive, 2), 0);
    }

    #[test]
    fn shift_state_requires_full_streaks() {
        let mut state = ShiftState::new();
        for _ in 1..DEMOTE_AFTER {
            assert_eq!(state.observe(true, 2), None);
        }
        assert_eq!(state.observe(true, 2), Some(Shift::Demote { offset: 1 }));
        // Alternating signals never move the ladder.
        for _ in 0..8 {
            assert_eq!(state.observe(true, 2), None);
            assert_eq!(state.observe(false, 2), None);
        }
        assert_eq!(state.offset(), 1);
        // The alternating loop left one clean observation on the streak;
        // PROMOTE_AFTER - 1 more complete it.
        for _ in 2..PROMOTE_AFTER {
            assert_eq!(state.observe(false, 2), None);
        }
        assert_eq!(state.observe(false, 2), Some(Shift::Promote { offset: 0 }));
        // Already home: clean streaks are a no-op.
        for _ in 0..8 {
            assert_eq!(state.observe(false, 2), None);
        }
    }
}
