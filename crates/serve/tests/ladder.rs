//! Property tests for the variant ladder: ordering is total and
//! monotone in the accuracy proxy, then in modeled frame cycles, and the
//! shift hysteresis never flaps under adversarial alert signals.

use proptest::prelude::*;
use tincy_serve::{
    ServeConfig, ServeVariant, ShiftState, VariantLadder, DEMOTE_AFTER, PROMOTE_AFTER,
};

/// Engine folds `(pe, simd)` the variants draw from: CI's frontier's.
const FOLDS: [(usize, usize); 5] = [(16, 16), (4, 16), (4, 4), (4, 8), (8, 16)];

/// One variant per `(accuracy, fold index)`, named in input order.
fn variants_from(rungs: &[(f64, usize)]) -> Vec<ServeVariant> {
    let base = ServeConfig::default().model_spec();
    rungs
        .iter()
        .enumerate()
        .map(|(i, &(accuracy, fold))| {
            let mut model = base.clone();
            (model.fold.pe, model.fold.simd) = FOLDS[fold % FOLDS.len()];
            ServeVariant {
                name: format!("v{i}"),
                model,
                accuracy,
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// However the variants arrive, the ladder is totally ordered and
    /// monotone in the accuracy proxy: rung i's accuracy never exceeds
    /// rung i+1's, neighbours of equal accuracy never go down in modeled
    /// frame cycles, and the per-class homes are monotone from the cheap
    /// end (interactive) to the accurate end (batch).
    #[test]
    fn ladder_ordering_is_total_and_monotone(
        drawn in proptest::collection::vec((0.0f64..100.0, any::<bool>(), 0usize..5), 1..8),
        rotate in 0usize..8,
    ) {
        // Half the variants share one accuracy, as a frontier's folds of
        // one precision do, so the cycle tie-break is exercised.
        let rungs: Vec<(f64, usize)> = drawn
            .iter()
            .map(|&(accuracy, tied, fold)| (if tied { 48.5 } else { accuracy }, fold))
            .collect();
        // Feed the variants in a rotated order to show the ordering is
        // a property of the ladder, not of the input sequence.
        let mut input = variants_from(&rungs);
        let pivot = rotate % input.len().max(1);
        input.rotate_left(pivot);
        let ladder = VariantLadder::new(input).expect("nonempty distinct names");
        for i in 1..ladder.len() {
            let (cheap, dear) = (ladder.get(i - 1), ladder.get(i));
            prop_assert!(cheap.accuracy <= dear.accuracy, "rung {i} breaks monotonicity");
            prop_assert!(
                cheap.accuracy < dear.accuracy || cheap.frame_cycles() <= dear.frame_cycles(),
                "rung {i} ties in accuracy but costs fewer cycles than rung {}", i - 1
            );
        }
        let [interactive, standard, batch] = ladder.homes();
        prop_assert_eq!(interactive, 0, "tight traffic homes on the cheap rung");
        prop_assert_eq!(batch, ladder.len() - 1, "best-effort homes on the accurate rung");
        prop_assert!(interactive <= standard && standard <= batch);
        // Demotion offsets only ever move classes toward the cheap end,
        // monotonically, and saturate at rung 0.
        for class in tincy_serve::SloClass::ALL {
            let mut prev = ladder.home(class);
            for offset in 0..=ladder.max_offset() {
                let active = ladder.active_for(class, offset);
                prop_assert!(active <= prev, "demotion must be monotone");
                prev = active;
            }
            prop_assert_eq!(ladder.active_for(class, ladder.max_offset() + 7), 0);
        }
    }

    /// Hysteresis invariants under arbitrary alert signals: the offset
    /// stays within the ladder, every demotion is preceded by a full
    /// dirty streak and every promotion by a full clean streak.
    #[test]
    fn shift_hysteresis_requires_full_streaks(
        signals in proptest::collection::vec(any::<bool>(), 1..200),
        max_offset in 1usize..4,
    ) {
        let mut state = ShiftState::new();
        let mut dirty_streak = 0u32;
        let mut clean_streak = 0u32;
        for &alerted in &signals {
            if alerted {
                dirty_streak += 1;
                clean_streak = 0;
            } else {
                clean_streak += 1;
                dirty_streak = 0;
            }
            let before = state.offset();
            let shift = state.observe(alerted, max_offset);
            prop_assert!(state.offset() <= max_offset, "offset escaped the ladder");
            match shift {
                Some(tincy_serve::Shift::Demote { offset }) => {
                    prop_assert_eq!(offset, before + 1);
                    prop_assert!(
                        dirty_streak >= DEMOTE_AFTER,
                        "demoted after only {} dirty observations (need {})",
                        dirty_streak, DEMOTE_AFTER
                    );
                    dirty_streak = 0;
                }
                Some(tincy_serve::Shift::Promote { offset }) => {
                    prop_assert_eq!(offset + 1, before);
                    prop_assert!(
                        clean_streak >= PROMOTE_AFTER,
                        "promoted after only {} clean observations (need {})",
                        clean_streak, PROMOTE_AFTER
                    );
                    clean_streak = 0;
                }
                None => {}
            }
        }
    }

    /// A strictly alternating alert signal never moves the ladder: both
    /// streak requirements exceed one observation, so no flapping.
    #[test]
    fn alternating_signals_never_flap(
        max_offset in 1usize..4,
        rounds in 1usize..100,
        start_dirty in any::<bool>(),
    ) {
        prop_assert!(DEMOTE_AFTER > 1 && PROMOTE_AFTER > 1);
        let mut state = ShiftState::new();
        for i in 0..rounds {
            let alerted = (i % 2 == 0) == start_dirty;
            prop_assert!(
                state.observe(alerted, max_offset).is_none(),
                "an alternating signal must never complete a streak"
            );
            prop_assert_eq!(state.offset(), 0);
        }
    }
}
