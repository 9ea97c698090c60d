//! Distributed trace identity: the context minted at admission and
//! propagated through every hop a request takes (router dispatch → shard
//! queue → FINN batch / CPU fallback → delivery, including failover
//! re-dispatch).
//!
//! Ids are deterministic SplitMix64 outputs of the caller's seed material
//! (client key + per-client submission counter), so identically-seeded
//! runs mint identical trace ids and traced results stay reproducible.

/// One step of the SplitMix64 sequence: a cheap, high-quality 64-bit
/// mixer (Steele et al.). Deterministic and allocation-free, which is all
/// the id scheme needs.
#[must_use]
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The identity a request carries across shards: one trace id for every
/// span it produces anywhere in the fleet, plus the span id of the
/// admission span that minted it (so shard-side spans can point back at
/// the router hop that dispatched them).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceContext {
    /// Fleet-unique request identity; tags every span of the request.
    pub trace_id: u64,
    /// Span id of the minting admission/dispatch span.
    pub parent_span_id: u64,
}

impl TraceContext {
    /// Mints a context from two seed words (typically a stable client key
    /// and that client's submission counter). Two mixer rounds decorrelate
    /// the words; the parent span id is derived from the trace id so the
    /// pair stays a pure function of the seeds.
    #[must_use]
    pub fn mint(key: u64, seq: u64) -> Self {
        let trace_id = splitmix64(splitmix64(key) ^ seq);
        Self {
            trace_id,
            parent_span_id: splitmix64(trace_id),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn minting_is_deterministic_and_seed_sensitive() {
        let a = TraceContext::mint(7, 0);
        assert_eq!(a, TraceContext::mint(7, 0));
        assert_ne!(a.trace_id, TraceContext::mint(7, 1).trace_id);
        assert_ne!(a.trace_id, TraceContext::mint(8, 0).trace_id);
        assert_ne!(a.trace_id, a.parent_span_id);
    }

    #[test]
    fn ids_do_not_collide_over_a_fleet_sized_grid() {
        let mut seen = HashSet::new();
        for key in 0..64u64 {
            for seq in 0..64u64 {
                assert!(seen.insert(TraceContext::mint(key, seq).trace_id));
            }
        }
    }
}
