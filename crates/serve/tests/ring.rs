//! Property tests for the consistent-hash ring: key distribution stays
//! within a constant factor of fair share across shard counts, and
//! removing one shard remaps only the keys that shard owned —
//! the minimal-disruption guarantee that makes drains cheap.

use proptest::prelude::*;
use tincy_serve::HashRing;

const POINTS_PER_SHARD: usize = 128;

/// Routes `keys` consecutive keys starting at `base` and counts how
/// many land on each of `shards` shards.
fn shares(ring: &HashRing, shards: u32, base: u64, keys: u64) -> Vec<u64> {
    let mut counts = vec![0u64; shards as usize];
    for key in base..base + keys {
        let shard = ring.route(key).expect("non-empty ring routes");
        counts[shard as usize] += 1;
    }
    counts
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// With 128 virtual nodes per shard, every shard's share of 4096
    /// consecutive keys stays within [0.35x, 2x] of fair share for
    /// fleets of 2..=8 shards, wherever the key range starts.
    #[test]
    fn key_distribution_is_balanced(shards in 2u32..=8, base in 0u64..1 << 48) {
        let ring = HashRing::with_shards(shards, POINTS_PER_SHARD);
        let keys = 4096u64;
        let fair = keys as f64 / f64::from(shards);
        for (shard, count) in shares(&ring, shards, base, keys).into_iter().enumerate() {
            let ratio = count as f64 / fair;
            prop_assert!(
                (0.35..=2.0).contains(&ratio),
                "shard {shard} of {shards} owns {count}/{keys} keys ({ratio:.2}x fair share)"
            );
        }
    }

    /// Removing one shard remaps only the keys it owned: every key that
    /// was routed to a surviving shard keeps its assignment, and the
    /// removed shard's keys redistribute among the survivors.
    #[test]
    fn removal_remaps_only_the_removed_shards_keys(
        shards in 2u32..=8,
        removed in 0u32..8,
        base in 0u64..1 << 48,
    ) {
        let removed = removed % shards;
        let full = HashRing::with_shards(shards, POINTS_PER_SHARD);
        let mut reduced = full.clone();
        reduced.remove(removed);
        for key in base..base + 1024 {
            let before = full.route(key).expect("full ring routes");
            let after = reduced.route(key).expect("reduced ring routes");
            prop_assert_ne!(after, removed, "key {} routed to the removed shard", key);
            if before != removed {
                prop_assert_eq!(
                    before, after,
                    "key {} moved from surviving shard {} to {}",
                    key, before, after
                );
            }
        }
    }

    /// Re-inserting the removed shard restores the original routing
    /// exactly — drains and re-admissions round-trip.
    #[test]
    fn reinsert_restores_the_original_routing(
        shards in 2u32..=8,
        removed in 0u32..8,
        base in 0u64..1 << 48,
    ) {
        let removed = removed % shards;
        let full = HashRing::with_shards(shards, POINTS_PER_SHARD);
        let mut cycled = full.clone();
        cycled.remove(removed);
        cycled.insert(removed);
        for key in base..base + 1024 {
            prop_assert_eq!(full.route(key), cycled.route(key));
        }
    }
}
