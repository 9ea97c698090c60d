//! A consistent-hash ring over shard ids, and the `mix64` hash the
//! arrival schedules draw from.
//!
//! The router does not use the ring: it routes least-loaded. Only the
//! benchmark ledger's `fleet.ring_route_ns` row still times it.
//!
//! Each shard contributes `vnodes` points on a 64-bit ring; a key routes
//! to the first point at or clockwise after its own hash. Removing a
//! shard deletes only that shard's points, so keys that routed elsewhere
//! keep their mapping, and re-inserting the shard with the same id
//! restores the original mapping exactly — the points are a pure
//! function of `(shard, vnode)`.

use std::collections::BTreeMap;

/// SplitMix64-style avalanche, the same construction `tincy-finn` uses
/// for its fault draws: cheap, stateless and well-distributed.
pub(crate) fn mix64(a: u64, b: u64) -> u64 {
    let mut z = a
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(b.wrapping_mul(0xBF58_476D_1CE4_E5B9))
        .wrapping_add(0x94D0_49BB_1331_11EB);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A consistent-hash ring over shard ids. Only the benchmark ledger
/// holds it.
#[derive(Debug, Clone)]
pub struct HashRing {
    /// Ring position → owning shard. On the (astronomically unlikely)
    /// event of two shards hashing a vnode to the same point, the lower
    /// shard id wins deterministically.
    points: BTreeMap<u64, u32>,
    vnodes: usize,
}

impl HashRing {
    /// An empty ring whose members will each contribute `vnodes` points.
    pub fn new(vnodes: usize) -> Self {
        Self {
            points: BTreeMap::new(),
            vnodes: vnodes.max(1),
        }
    }

    /// A ring pre-populated with shards `0..shards`.
    pub fn with_shards(shards: u32, vnodes: usize) -> Self {
        let mut ring = Self::new(vnodes);
        for shard in 0..shards {
            ring.insert(shard);
        }
        ring
    }

    fn point(&self, shard: u32, vnode: usize) -> u64 {
        mix64(u64::from(shard) ^ 0x7463_6e69_7972_696e, vnode as u64)
    }

    /// Adds a shard's points. Re-inserting an existing member is a no-op
    /// (its points are already the pure function of its id).
    pub fn insert(&mut self, shard: u32) {
        for vnode in 0..self.vnodes {
            let point = self.point(shard, vnode);
            let owner = self.points.entry(point).or_insert(shard);
            *owner = (*owner).min(shard);
        }
    }

    /// Removes a shard's points, leaving every other mapping untouched.
    pub fn remove(&mut self, shard: u32) {
        for vnode in 0..self.vnodes {
            let point = self.point(shard, vnode);
            if self.points.get(&point) == Some(&shard) {
                self.points.remove(&point);
            }
        }
    }

    /// Whether the ring currently has no members.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Routes a key to its owning shard: the first point clockwise from
    /// the key's hash, wrapping at the top of the ring. `None` on an
    /// empty ring.
    pub fn route(&self, key: u64) -> Option<u32> {
        let hash = mix64(0x6b65_795f_6861_7368, key);
        self.points
            .range(hash..)
            .next()
            .or_else(|| self.points.iter().next())
            .map(|(_, &shard)| shard)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn routes_are_stable_and_member_owned() {
        let ring = HashRing::with_shards(4, 32);
        for key in 0..256u64 {
            let shard = ring.route(key).unwrap();
            assert!(shard < 4);
            assert_eq!(ring.route(key), Some(shard), "routing is pure");
        }
    }

    #[test]
    fn empty_ring_routes_nowhere() {
        let ring = HashRing::new(16);
        assert!(ring.is_empty());
        assert_eq!(ring.route(7), None);
    }

    #[test]
    fn removal_only_remaps_the_removed_shards_keys() {
        let mut ring = HashRing::with_shards(5, 64);
        let before: Vec<u32> = (0..512u64).map(|k| ring.route(k).unwrap()).collect();
        ring.remove(2);
        for (key, &owner) in before.iter().enumerate() {
            let now = ring.route(key as u64).unwrap();
            if owner != 2 {
                assert_eq!(now, owner, "key {key} moved despite its shard staying");
            } else {
                assert_ne!(now, 2, "key {key} still routes to the removed shard");
            }
        }
        ring.insert(2);
        let restored: Vec<u32> = (0..512u64).map(|k| ring.route(k).unwrap()).collect();
        assert_eq!(restored, before, "re-insertion restores the exact mapping");
    }
}
