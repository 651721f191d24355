//! Cache replacement policies: LRU and SRRIP.
//!
//! The paper's baseline (Table 4) uses LRU in the L1 caches and SRRIP
//! (static re-reference interval prediction, Jaleel et al., ISCA 2010) in
//! the L2/L3.

use serde::{Deserialize, Serialize};

/// Replacement policy selector for a set-associative cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum ReplacementPolicy {
    /// Least-recently-used.
    #[default]
    Lru,
    /// Static re-reference interval prediction with 2-bit RRPV counters.
    Srrip,
}

/// Maximum RRPV for 2-bit SRRIP.
const SRRIP_MAX: u32 = 3;
/// RRPV assigned on insertion ("long re-reference interval").
const SRRIP_INSERT: u32 = 2;

/// Replacement state of every set of one cache, in flat set-major arrays:
/// the metadata of way `w` of set `s` lives at `meta[s * ways + w]`. For
/// LRU the metadata is an age stamp drawn from the set's own clock; for
/// SRRIP it is the re-reference prediction value (RRPV). Two allocations
/// per cache, however many sets it has.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) struct ReplacementState {
    policy: ReplacementPolicy,
    ways: usize,
    meta: Vec<u32>,
    /// One LRU clock per set (empty under SRRIP, which keeps no clock).
    clocks: Vec<u32>,
}

impl ReplacementState {
    /// Replacement state for `sets` sets of `ways` ways each (at most 64,
    /// so way validity fits the one-word mask [`Self::victim`] takes).
    pub(crate) fn new(policy: ReplacementPolicy, sets: usize, ways: usize) -> Self {
        assert!(ways <= 64, "at most 64 ways per set (got {ways})");
        let (init, clocks) = match policy {
            ReplacementPolicy::Lru => (0, sets),
            ReplacementPolicy::Srrip => (SRRIP_MAX, 0),
        };
        ReplacementState {
            policy,
            ways,
            meta: vec![init; sets * ways],
            clocks: vec![0; clocks],
        }
    }

    /// Notifies the policy that `way` of `set` was accessed (hit).
    #[inline]
    pub(crate) fn on_hit(&mut self, set: usize, way: usize) {
        match self.policy {
            ReplacementPolicy::Lru => self.stamp(set, way),
            ReplacementPolicy::Srrip => self.meta[set * self.ways + way] = 0,
        }
    }

    /// Notifies the policy that a new line was inserted into `way` of `set`.
    #[inline]
    pub(crate) fn on_insert(&mut self, set: usize, way: usize) {
        match self.policy {
            ReplacementPolicy::Lru => self.stamp(set, way),
            ReplacementPolicy::Srrip => self.meta[set * self.ways + way] = SRRIP_INSERT,
        }
    }

    fn stamp(&mut self, set: usize, way: usize) {
        self.clocks[set] += 1;
        self.meta[set * self.ways + way] = self.clocks[set];
    }

    /// Chooses the victim way of `set`, given the validity of each way as a
    /// bitmask (bit `i` set ⇔ way `i` holds a valid line). The lowest
    /// invalid way always wins; otherwise LRU takes the first way with the
    /// smallest stamp, and SRRIP the first way at RRPV 3, ageing the whole
    /// set by one until some way gets there.
    #[inline]
    pub(crate) fn victim(&mut self, set: usize, valid_mask: u64) -> usize {
        let ways = self.ways;
        let full = if ways == 64 {
            u64::MAX
        } else {
            (1 << ways) - 1
        };
        let invalid = !valid_mask & full;
        if invalid != 0 {
            return invalid.trailing_zeros() as usize;
        }
        let meta = &mut self.meta[set * ways..(set + 1) * ways];
        match self.policy {
            ReplacementPolicy::Lru => meta
                .iter()
                .enumerate()
                .min_by_key(|&(_, &stamp)| stamp)
                .map_or(0, |(way, _)| way),
            ReplacementPolicy::Srrip => loop {
                if let Some(way) = meta.iter().position(|&rrpv| rrpv >= SRRIP_MAX) {
                    break way;
                }
                for rrpv in meta.iter_mut() {
                    *rrpv += 1;
                }
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALL4: u64 = 0b1111;

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut r = ReplacementState::new(ReplacementPolicy::Lru, 1, 4);
        for way in 0..4 {
            r.on_insert(0, way);
        }
        r.on_hit(0, 0);
        r.on_hit(0, 2);
        r.on_hit(0, 3);
        // Way 1 was inserted earliest and never touched again.
        assert_eq!(r.victim(0, ALL4), 1);
    }

    #[test]
    fn invalid_ways_are_preferred_victims() {
        let mut r = ReplacementState::new(ReplacementPolicy::Srrip, 1, 4);
        assert_eq!(r.victim(0, 0b1011), 2);
    }

    #[test]
    fn srrip_protects_rereferenced_lines() {
        let mut r = ReplacementState::new(ReplacementPolicy::Srrip, 1, 2);
        r.on_insert(0, 0);
        r.on_insert(0, 1);
        // Way 0 is re-referenced (RRPV=0), way 1 is not (RRPV=2).
        r.on_hit(0, 0);
        assert_eq!(r.victim(0, 0b11), 1);
    }

    #[test]
    fn srrip_eventually_finds_a_victim_even_when_all_hot() {
        let mut r = ReplacementState::new(ReplacementPolicy::Srrip, 1, 4);
        for way in 0..4 {
            r.on_insert(0, way);
            r.on_hit(0, way);
        }
        // Every way sits at RRPV 0: three ageing rounds, then way 0.
        assert_eq!(r.victim(0, ALL4), 0);
    }

    #[test]
    fn lowest_invalid_way_wins() {
        let mut r = ReplacementState::new(ReplacementPolicy::Lru, 1, 8);
        assert_eq!(r.victim(0, 0b1111_0101), 1);
        assert_eq!(r.victim(0, 0), 0);
    }

    #[test]
    fn full_64_way_mask_is_supported() {
        let mut r = ReplacementState::new(ReplacementPolicy::Lru, 1, 64);
        for way in 0..64 {
            r.on_insert(0, way);
        }
        r.on_hit(0, 0);
        assert_eq!(r.victim(0, u64::MAX), 1);
    }

    #[test]
    fn lru_victim_rotates_under_streaming() {
        let mut r = ReplacementState::new(ReplacementPolicy::Lru, 1, 2);
        r.on_insert(0, 0);
        r.on_insert(0, 1);
        let v1 = r.victim(0, 0b11);
        r.on_insert(0, v1);
        let v2 = r.victim(0, 0b11);
        assert_ne!(v1, v2);
    }

    #[test]
    fn sets_keep_separate_clocks_and_ages() {
        for policy in [ReplacementPolicy::Lru, ReplacementPolicy::Srrip] {
            let mut r = ReplacementState::new(policy, 2, 2);
            r.on_insert(0, 0);
            r.on_insert(0, 1);
            r.on_hit(0, 0);
            // Set 1 is untouched by set 0's traffic: both ways still at
            // their initial state, so the first way is the victim.
            assert_eq!(r.victim(1, 0b11), 0, "{policy:?}");
            assert_eq!(r.victim(0, 0b11), 1, "{policy:?}");
        }
    }
}
