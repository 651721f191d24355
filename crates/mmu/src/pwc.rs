//! Page-walk caches (PWCs): small caches of upper-level page-table entries
//! that let the radix walker skip levels (Barr et al., "Translation Caching:
//! Skip, Don't Walk (the Page Table)", ISCA 2010). The paper's baseline
//! uses three 32-entry, 4-way, 2-cycle PWCs — one per intermediate level.

use serde::{Deserialize, Serialize};
use vm_types::{Counter, Cycles, FastDiv, VirtAddr};

/// An empty PWC way.
const EMPTY: (u64, u64) = (0, 0);

/// One page-walk cache level (caching entries of one radix level).
#[derive(Debug, Clone, Serialize, Deserialize)]
struct PwcLevel {
    ways: usize,
    /// Flat set-major `(tag, lru)` pairs: set `s` occupies
    /// `slots[s * ways .. (s + 1) * ways]`. A stamp of 0 marks an empty
    /// way — the clock ticks before every fill, so live stamps are >= 1.
    slots: Vec<(u64, u64)>,
    clock: u64,
    hits: Counter,
    misses: Counter,
    /// Precomputed set-count divisor for the per-probe index.
    set_div: FastDiv,
}

impl PwcLevel {
    fn new(entries: usize, ways: usize) -> Self {
        let sets = (entries / ways).max(1);
        PwcLevel {
            ways,
            slots: vec![EMPTY; sets * ways],
            clock: 0,
            hits: Counter::new(),
            misses: Counter::new(),
            set_div: FastDiv::new(sets as u64),
        }
    }

    fn set_mut(&mut self, tag: u64) -> &mut [(u64, u64)] {
        let base = self.set_div.rem(tag) as usize * self.ways;
        &mut self.slots[base..base + self.ways]
    }

    fn probe(&mut self, tag: u64) -> bool {
        self.clock += 1;
        let clock = self.clock;
        for slot in self.set_mut(tag) {
            if slot.1 != 0 && slot.0 == tag {
                slot.1 = clock;
                self.hits.inc();
                return true;
            }
        }
        self.misses.inc();
        false
    }

    /// Installs `tag` in the first empty way of its set, else over the
    /// first way with the smallest stamp: one pass, since empty ways carry
    /// the smallest stamp of all.
    ///
    /// Known modeling defect, kept so reports stay identical: the fill
    /// does not check whether `tag` is already resident, so two fills of
    /// one tag leave two copies in the set and hot upper-level entries
    /// crowd out their set-mates. Fixing it changes simulated results and
    /// needs its own golden re-bless.
    fn fill(&mut self, tag: u64) {
        self.clock += 1;
        let clock = self.clock;
        let set = self.set_mut(tag);
        let victim = set
            .iter()
            .enumerate()
            .min_by_key(|(_, slot)| slot.1)
            .map_or(0, |(way, _)| way);
        set[victim] = (tag, clock);
    }
}

/// The set of page-walk caches covering the PML4, PDPT and PD levels of a
/// 4-level radix walk.
///
/// # Examples
///
/// ```
/// use mmu_sim::PageWalkCaches;
/// use vm_types::VirtAddr;
///
/// let mut pwc = PageWalkCaches::paper_baseline();
/// let va = VirtAddr::new(0x7f12_3456_7000);
/// // Cold: the walk must start from the root (skip 0 levels).
/// assert_eq!(pwc.levels_skipped(va), 0);
/// pwc.fill(va);
/// // Warm: all three intermediate levels can be skipped.
/// assert_eq!(pwc.levels_skipped(va), 3);
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PageWalkCaches {
    levels: Vec<PwcLevel>,
    latency: Cycles,
}

impl PageWalkCaches {
    /// The paper's baseline: three 32-entry, 4-way, 2-cycle PWCs.
    pub fn paper_baseline() -> Self {
        PageWalkCaches {
            levels: vec![
                PwcLevel::new(32, 4),
                PwcLevel::new(32, 4),
                PwcLevel::new(32, 4),
            ],
            latency: Cycles::new(2),
        }
    }

    /// A PWC-less configuration (every walk starts from the root).
    pub fn disabled() -> Self {
        PageWalkCaches {
            levels: Vec::new(),
            latency: Cycles::ZERO,
        }
    }

    /// Lookup latency of probing the PWCs.
    pub fn latency(&self) -> Cycles {
        self.latency
    }

    /// Tag for PWC level `i` (0 = deepest / PD level, covering the most
    /// specific prefix).
    fn tag(va: VirtAddr, level: usize) -> u64 {
        // Level 0 caches PD entries (bits 63..21), level 1 PDPT (63..30),
        // level 2 PML4 (63..39).
        match level {
            0 => va.raw() >> 21,
            1 => va.raw() >> 30,
            _ => va.raw() >> 39,
        }
    }

    /// Number of radix levels the walker may skip for `va` (0–3), probing
    /// the deepest cache first.
    pub fn levels_skipped(&mut self, va: VirtAddr) -> usize {
        let count = self.levels.len();
        for i in 0..count {
            if self.levels[i].probe(Self::tag(va, i)) {
                return count - i;
            }
        }
        0
    }

    /// Fills the PWCs with the intermediate entries discovered by a
    /// completed walk of `va`.
    pub fn fill(&mut self, va: VirtAddr) {
        for i in 0..self.levels.len() {
            let tag = Self::tag(va, i);
            self.levels[i].fill(tag);
        }
    }

    /// Drops every cached intermediate entry. The PWCs tag by virtual
    /// address alone (no ASID), so a context switch must flush them to keep
    /// walks of the incoming address space honest.
    pub fn flush(&mut self) {
        for level in &mut self.levels {
            level.slots.fill(EMPTY);
        }
    }

    /// Invalidates the cached intermediate entries covering `va` at every
    /// level — the paging-structure-cache side of an `invlpg`-style
    /// shootdown. Conservative like the hardware: the upper-level entries
    /// for the address are dropped even if only the leaf changed, so the
    /// next walk of the region re-descends from the root. Returns the
    /// number of entries dropped.
    pub fn invalidate(&mut self, va: VirtAddr) -> usize {
        let mut dropped = 0;
        for i in 0..self.levels.len() {
            let tag = Self::tag(va, i);
            for slot in self.levels[i].set_mut(tag) {
                if slot.1 != 0 && slot.0 == tag {
                    *slot = EMPTY;
                    dropped += 1;
                }
            }
        }
        dropped
    }

    /// Total hits across all levels.
    pub fn hits(&self) -> u64 {
        self.levels.iter().map(|l| l.hits.get()).sum()
    }

    /// Total misses across all levels.
    pub fn misses(&self) -> u64 {
        self.levels.iter().map(|l| l.misses.get()).sum()
    }
}

impl Default for PageWalkCaches {
    fn default() -> Self {
        PageWalkCaches::paper_baseline()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_walk_skips_nothing() {
        let mut pwc = PageWalkCaches::paper_baseline();
        assert_eq!(pwc.levels_skipped(VirtAddr::new(0x1234_5678_9000)), 0);
        assert!(pwc.misses() > 0);
    }

    #[test]
    fn warm_walk_skips_all_levels() {
        let mut pwc = PageWalkCaches::paper_baseline();
        let va = VirtAddr::new(0x7f00_1234_5000);
        pwc.fill(va);
        assert_eq!(pwc.levels_skipped(va), 3);
        assert!(pwc.hits() > 0);
    }

    #[test]
    fn nearby_addresses_share_upper_levels() {
        let mut pwc = PageWalkCaches::paper_baseline();
        pwc.fill(VirtAddr::new(0x7f00_0000_0000));
        // Same 2 MiB region: skip 3. Different 2 MiB, same 1 GiB: skip >= 2.
        assert_eq!(pwc.levels_skipped(VirtAddr::new(0x7f00_0000_1000)), 3);
        assert!(pwc.levels_skipped(VirtAddr::new(0x7f00_0020_0000)) >= 2);
        // Completely different top-level index: skip 0.
        assert_eq!(pwc.levels_skipped(VirtAddr::new(0x0000_0000_1000)), 0);
    }

    #[test]
    fn invalidate_drops_the_address_without_flushing_neighbours() {
        let mut pwc = PageWalkCaches::paper_baseline();
        let victim = VirtAddr::new(0x7f00_1234_5000);
        let neighbour = VirtAddr::new(0x7e00_0000_0000);
        pwc.fill(victim);
        pwc.fill(neighbour);
        assert_eq!(pwc.invalidate(victim), 3, "all three levels covered it");
        assert_eq!(pwc.levels_skipped(victim), 0, "walk restarts at the root");
        assert!(
            pwc.levels_skipped(neighbour) > 0,
            "unrelated regions keep their cached levels"
        );
        assert_eq!(pwc.invalidate(VirtAddr::new(0x1000)), 0);
    }

    #[test]
    fn refilling_an_address_duplicates_its_entries() {
        // Pins the known duplicate-fill defect (see `PwcLevel::fill`):
        // each level holds the same tag twice after two fills.
        let mut pwc = PageWalkCaches::paper_baseline();
        let va = VirtAddr::new(0x7f00_1234_5000);
        pwc.fill(va);
        pwc.fill(va);
        assert_eq!(pwc.invalidate(va), 6);
    }

    #[test]
    fn disabled_pwcs_never_skip() {
        let mut pwc = PageWalkCaches::disabled();
        let va = VirtAddr::new(0x7f00_1234_5000);
        pwc.fill(va);
        assert_eq!(pwc.levels_skipped(va), 0);
        assert_eq!(pwc.latency(), Cycles::ZERO);
    }

    #[test]
    fn capacity_is_bounded() {
        let mut pwc = PageWalkCaches::paper_baseline();
        // Fill many distinct 2 MiB regions within one 1 GiB region: the
        // deepest PWC (32 entries) thrashes but upper levels stay warm.
        for i in 0..256u64 {
            pwc.fill(VirtAddr::new(0x7f00_0000_0000 + i * 0x20_0000));
        }
        let skipped = pwc.levels_skipped(VirtAddr::new(0x7f00_0000_0000));
        assert!(skipped >= 1, "upper levels should still hit");
    }
}
