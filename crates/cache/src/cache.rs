//! A single set-associative cache.

use crate::replacement::{ReplacementPolicy, ReplacementState};
use serde::{Deserialize, Serialize};
use vm_types::{
    Counter, Cycles, FastDiv, PhysAddr, Requestor, VmError, VmResult, CACHE_LINE_BYTES,
};

/// Configuration of one cache level.
///
/// # Examples
///
/// ```
/// use cache_sim::CacheConfig;
/// let l1 = CacheConfig::l1_data();
/// assert_eq!(l1.capacity_bytes, 32 * 1024);
/// assert_eq!(l1.num_sets() * l1.ways as usize * 64, l1.capacity_bytes as usize);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheConfig {
    /// Human-readable name used in statistics output (e.g. `"L1D"`).
    pub name: String,
    /// Total capacity in bytes.
    pub capacity_bytes: u64,
    /// Associativity.
    pub ways: u32,
    /// Access latency in core cycles.
    pub latency: Cycles,
    /// Replacement policy.
    pub replacement: ReplacementPolicy,
}

impl CacheConfig {
    /// Paper baseline L1 data cache: 32 KB, 8-way, 4-cycle, LRU.
    pub fn l1_data() -> Self {
        CacheConfig {
            name: "L1D".to_string(),
            capacity_bytes: 32 * 1024,
            ways: 8,
            latency: Cycles::new(4),
            replacement: ReplacementPolicy::Lru,
        }
    }

    /// Paper baseline L1 instruction cache: 32 KB, 8-way, 4-cycle, LRU.
    pub fn l1_instruction() -> Self {
        CacheConfig {
            name: "L1I".to_string(),
            ..CacheConfig::l1_data()
        }
    }

    /// Paper baseline L2: 2 MB, 16-way, 16-cycle, SRRIP.
    pub fn l2() -> Self {
        CacheConfig {
            name: "L2".to_string(),
            capacity_bytes: 2 * 1024 * 1024,
            ways: 16,
            latency: Cycles::new(16),
            replacement: ReplacementPolicy::Srrip,
        }
    }

    /// Paper baseline L3: 2 MB per core, 16-way, 35-cycle, SRRIP.
    pub fn l3() -> Self {
        CacheConfig {
            name: "L3".to_string(),
            capacity_bytes: 2 * 1024 * 1024,
            ways: 16,
            latency: Cycles::new(35),
            replacement: ReplacementPolicy::Srrip,
        }
    }

    /// A tiny cache useful in unit tests (1 KB, 2-way).
    pub fn tiny(name: &str) -> Self {
        CacheConfig {
            name: name.to_string(),
            capacity_bytes: 1024,
            ways: 2,
            latency: Cycles::new(1),
            replacement: ReplacementPolicy::Lru,
        }
    }

    /// Number of sets implied by capacity, associativity and line size.
    pub fn num_sets(&self) -> usize {
        (self.capacity_bytes / (self.ways as u64 * CACHE_LINE_BYTES)).max(1) as usize
    }

    /// Checks the geometry: 1 to 64 ways, and a capacity that is a whole,
    /// non-zero number of sets of `ways` 64-byte lines.
    ///
    /// # Errors
    ///
    /// Returns [`VmError::InvalidConfig`] naming the bad field.
    pub fn validate(&self) -> VmResult<()> {
        let invalid = |field: &str, problem: String| {
            Err(VmError::InvalidConfig {
                reason: format!("cache {:?}: {field} {problem}", self.name),
            })
        };
        if !(1..=64).contains(&self.ways) {
            return invalid("ways", format!("must be 1 to 64, got {}", self.ways));
        }
        let set_bytes = u64::from(self.ways) * CACHE_LINE_BYTES;
        if self.capacity_bytes == 0 || !self.capacity_bytes.is_multiple_of(set_bytes) {
            return invalid(
                "capacity_bytes",
                format!(
                    "must be a non-zero multiple of one set ({} ways x {CACHE_LINE_BYTES} B = {set_bytes} B), got {}",
                    self.ways, self.capacity_bytes
                ),
            );
        }
        Ok(())
    }
}

/// Outcome of a cache lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum LookupResult {
    /// The line was present.
    Hit,
    /// The line was absent.
    Miss,
}

impl LookupResult {
    /// `true` when the lookup hit.
    pub const fn is_hit(self) -> bool {
        matches!(self, LookupResult::Hit)
    }
}

/// Per-cache statistics.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Lookup hits.
    pub hits: Counter,
    /// Lookup misses.
    pub misses: Counter,
    /// Lines evicted to make room for fills.
    pub evictions: Counter,
    /// Fills triggered by prefetch requests.
    pub prefetch_fills: Counter,
    /// Hits whose line was brought in by a prefetch (useful-prefetch count).
    pub prefetch_hits: Counter,
    /// Misses attributable to the kernel instruction stream (MimicOS),
    /// used to quantify kernel-induced cache pollution.
    pub kernel_misses: Counter,
}

impl CacheStats {
    /// Total lookups.
    pub fn lookups(&self) -> u64 {
        self.hits.get() + self.misses.get()
    }

    /// Miss ratio in `[0, 1]` (0 when there were no lookups).
    pub fn miss_ratio(&self) -> f64 {
        let total = self.lookups();
        if total == 0 {
            0.0
        } else {
            self.misses.get() as f64 / total as f64
        }
    }
}

/// One cache line, packed into a single word: the tag in the high bits,
/// prefetched / dirty / valid flags in the low three. Packing keeps a
/// whole 16-way set inside two host cache lines, so the way scan every
/// lookup and fill performs stays cheap.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
struct Line(u64);

impl Line {
    const VALID: u64 = 0b001;
    const DIRTY: u64 = 0b010;
    const PREFETCHED: u64 = 0b100;

    fn new(tag: u64, dirty: bool, prefetched: bool) -> Self {
        let mut bits = (tag << 3) | Self::VALID;
        if dirty {
            bits |= Self::DIRTY;
        }
        if prefetched {
            bits |= Self::PREFETCHED;
        }
        Line(bits)
    }

    fn valid(self) -> bool {
        self.0 & Self::VALID != 0
    }

    fn dirty(self) -> bool {
        self.0 & Self::DIRTY != 0
    }

    fn prefetched(self) -> bool {
        self.0 & Self::PREFETCHED != 0
    }

    fn tag(self) -> u64 {
        self.0 >> 3
    }

    fn matches(self, tag: u64) -> bool {
        self.0 & !(Self::DIRTY | Self::PREFETCHED) == (tag << 3) | Self::VALID
    }

    fn set_dirty(&mut self) {
        self.0 |= Self::DIRTY;
    }

    fn clear_prefetched(&mut self) {
        self.0 &= !Self::PREFETCHED;
    }

    fn invalidate(&mut self) {
        self.0 = 0;
    }
}

/// Where a line that missed would be filled: its set and tag, and which of
/// the set's ways held valid lines when [`Cache::probe`] scanned it. A miss
/// slot is valid only until its set is touched again (by a fill, an
/// invalidation or another probe's hit): [`Cache::fill_miss`] trusts it
/// instead of scanning the set a second time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MissSlot {
    set: usize,
    tag: u64,
    valid: u64,
}

/// Outcome of a [`Cache::probe`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Probe {
    /// The line was present.
    Hit,
    /// The line was absent; the slot says where a fill would put it.
    Miss(MissSlot),
}

/// A single set-associative cache with physical tags.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Cache {
    config: CacheConfig,
    /// Flat set-major line storage: the `ways` lines of set `s` live at
    /// `lines[s * ways .. (s + 1) * ways]` — one contiguous allocation
    /// instead of a pointer chase into a per-set `Vec` on every access.
    lines: Vec<Line>,
    ways: usize,
    /// LRU clocks or SRRIP ages, in the same set-major layout as `lines`.
    replacement: ReplacementState,
    stats: CacheStats,
    /// Precomputed set-count divisor (a mask/shift for the power-of-two
    /// geometries every shipped configuration uses).
    set_div: FastDiv,
}

impl Cache {
    /// Builds a cache from its configuration.
    ///
    /// # Panics
    ///
    /// Panics with the [`CacheConfig::validate`] message when the geometry
    /// is invalid.
    pub fn new(config: CacheConfig) -> Self {
        if let Err(e) = config.validate() {
            panic!("{e}");
        }
        let num_sets = config.num_sets();
        let ways = config.ways as usize;
        Cache {
            lines: vec![Line::default(); num_sets * ways],
            ways,
            replacement: ReplacementState::new(config.replacement, num_sets, ways),
            config,
            stats: CacheStats::default(),
            set_div: FastDiv::new(num_sets as u64),
        }
    }

    fn set(&self, set_idx: usize) -> &[Line] {
        &self.lines[set_idx * self.ways..(set_idx + 1) * self.ways]
    }

    fn set_mut(&mut self, set_idx: usize) -> &mut [Line] {
        &mut self.lines[set_idx * self.ways..(set_idx + 1) * self.ways]
    }

    /// The cache's configuration.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Resets statistics (contents are preserved).
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    /// Access latency of this cache level.
    pub fn latency(&self) -> Cycles {
        self.config.latency
    }

    fn index_and_tag(&self, paddr: PhysAddr) -> (usize, u64) {
        let line = paddr.raw() / CACHE_LINE_BYTES;
        let set = self.set_div.rem(line) as usize;
        let tag = self.set_div.div(line);
        (set, tag)
    }

    /// The one pass over a set every operation makes: the way holding
    /// `tag`, or else the set's valid-way mask.
    #[inline]
    fn probe_set(&self, set_idx: usize, tag: u64) -> Result<usize, u64> {
        let mut valid = 0u64;
        for (way, line) in self.set(set_idx).iter().enumerate() {
            if line.matches(tag) {
                return Ok(way);
            }
            valid |= u64::from(line.valid()) << way;
        }
        Err(valid)
    }

    /// Looks up a cache line without modifying contents on a miss.
    /// Updates hit/miss statistics and replacement state on hits.
    pub fn lookup(
        &mut self,
        paddr: PhysAddr,
        is_write: bool,
        requestor: Requestor,
    ) -> LookupResult {
        match self.probe(paddr, is_write, requestor) {
            Probe::Hit => LookupResult::Hit,
            Probe::Miss(_) => LookupResult::Miss,
        }
    }

    /// [`Cache::lookup`] that also returns, on a miss, the [`MissSlot`] a
    /// later [`Cache::fill_miss`] of the same line fills without scanning
    /// the set again. Statistics and replacement effects are exactly those
    /// of `lookup`.
    #[inline]
    pub fn probe(&mut self, paddr: PhysAddr, is_write: bool, requestor: Requestor) -> Probe {
        let (set, tag) = self.index_and_tag(paddr);
        match self.probe_set(set, tag) {
            Ok(way) => {
                let line = &mut self.lines[set * self.ways + way];
                if is_write {
                    line.set_dirty();
                }
                if line.prefetched() {
                    line.clear_prefetched();
                    self.stats.prefetch_hits.inc();
                }
                self.replacement.on_hit(set, way);
                self.stats.hits.inc();
                Probe::Hit
            }
            Err(valid) => {
                self.stats.misses.inc();
                if requestor == Requestor::Kernel {
                    self.stats.kernel_misses.inc();
                }
                Probe::Miss(MissSlot { set, tag, valid })
            }
        }
    }

    /// The slot a fill of `paddr` would use, or `None` when the line is
    /// resident. Touches no statistics or replacement state.
    #[inline]
    pub fn miss_slot(&self, paddr: PhysAddr) -> Option<MissSlot> {
        let (set, tag) = self.index_and_tag(paddr);
        self.probe_set(set, tag)
            .err()
            .map(|valid| MissSlot { set, tag, valid })
    }

    /// Fills a line into the cache (after a miss was serviced by the next
    /// level or DRAM). Returns the physical address of the evicted dirty
    /// line, if a writeback is required.
    pub fn fill(&mut self, paddr: PhysAddr, is_write: bool, prefetched: bool) -> Option<PhysAddr> {
        let (set, tag) = self.index_and_tag(paddr);
        match self.probe_set(set, tag) {
            // Already present (e.g. racing fills): just update it.
            Ok(way) => {
                if is_write {
                    self.lines[set * self.ways + way].set_dirty();
                }
                None
            }
            Err(valid) => self.fill_miss(MissSlot { set, tag, valid }, is_write, prefetched),
        }
    }

    /// Fills the line a probe missed into its [`MissSlot`], evicting the
    /// lowest invalid way or else the replacement policy's victim. Returns
    /// the physical address of the evicted dirty line, if a writeback is
    /// required. The slot must still be valid: nothing may have touched
    /// its set since the probe that produced it.
    #[inline]
    pub fn fill_miss(
        &mut self,
        slot: MissSlot,
        is_write: bool,
        prefetched: bool,
    ) -> Option<PhysAddr> {
        let MissSlot { set, tag, valid } = slot;
        debug_assert_eq!(self.probe_set(set, tag), Err(valid), "stale miss slot");
        let way = self.replacement.victim(set, valid);
        let line = &mut self.lines[set * self.ways + way];
        let victim = *line;
        *line = Line::new(tag, is_write, prefetched);
        self.replacement.on_insert(set, way);
        let mut writeback = None;
        if victim.valid() {
            self.stats.evictions.inc();
            if victim.dirty() {
                let victim_line = victim.tag() * self.set_div.divisor() + set as u64;
                writeback = Some(PhysAddr::new(victim_line * CACHE_LINE_BYTES));
            }
        }
        if prefetched {
            self.stats.prefetch_fills.inc();
        }
        writeback
    }

    /// Returns `true` if the line containing `paddr` is currently cached.
    pub fn contains(&self, paddr: PhysAddr) -> bool {
        self.miss_slot(paddr).is_none()
    }

    /// Invalidates the line containing `paddr` if present (used for TLB
    /// shootdown-style page-table invalidations).
    pub fn invalidate(&mut self, paddr: PhysAddr) -> bool {
        let (set_idx, tag) = self.index_and_tag(paddr);
        for line in self.set_mut(set_idx) {
            if line.matches(tag) {
                line.invalidate();
                return true;
            }
        }
        false
    }

    /// Number of valid lines currently resident.
    pub fn resident_lines(&self) -> usize {
        self.lines.iter().filter(|l| l.valid()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pa(x: u64) -> PhysAddr {
        PhysAddr::new(x)
    }

    #[test]
    fn miss_then_fill_then_hit() {
        let mut c = Cache::new(CacheConfig::tiny("T"));
        assert!(!c.lookup(pa(0x100), false, Requestor::Application).is_hit());
        c.fill(pa(0x100), false, false);
        assert!(c.lookup(pa(0x100), false, Requestor::Application).is_hit());
        assert_eq!(c.stats().hits.get(), 1);
        assert_eq!(c.stats().misses.get(), 1);
    }

    #[test]
    fn same_line_different_offsets_hit() {
        let mut c = Cache::new(CacheConfig::tiny("T"));
        c.fill(pa(0x1000), false, false);
        assert!(c.lookup(pa(0x1004), false, Requestor::Application).is_hit());
        assert!(c.lookup(pa(0x103f), false, Requestor::Application).is_hit());
    }

    #[test]
    fn capacity_eviction_occurs() {
        let cfg = CacheConfig::tiny("T");
        let lines = cfg.capacity_bytes / CACHE_LINE_BYTES;
        let mut c = Cache::new(cfg);
        for i in 0..lines * 2 {
            c.fill(pa(i * CACHE_LINE_BYTES), false, false);
        }
        assert!(c.stats().evictions.get() > 0);
        assert_eq!(c.resident_lines() as u64, lines);
    }

    #[test]
    fn dirty_eviction_produces_writeback() {
        let cfg = CacheConfig::tiny("T");
        let sets = cfg.num_sets() as u64;
        let mut c = Cache::new(cfg);
        // Fill the two ways of set 0 with writes, then force a third fill in
        // the same set: one dirty victim must be written back.
        let stride = sets * CACHE_LINE_BYTES;
        assert!(c.fill(pa(0), true, false).is_none());
        assert!(c.fill(pa(stride), true, false).is_none());
        let wb = c.fill(pa(2 * stride), false, false);
        assert!(wb.is_some());
        let wb_addr = wb.unwrap().raw();
        assert!(wb_addr == 0 || wb_addr == stride);
    }

    #[test]
    fn write_hits_mark_lines_dirty() {
        let cfg = CacheConfig::tiny("T");
        let sets = cfg.num_sets() as u64;
        let stride = sets * CACHE_LINE_BYTES;
        let mut c = Cache::new(cfg);
        c.fill(pa(0), false, false);
        assert!(c.lookup(pa(0), true, Requestor::Application).is_hit());
        c.fill(pa(stride), false, false);
        // Evicting line 0 now must produce a writeback because the write hit
        // marked it dirty.
        let wb = c.fill(pa(2 * stride), false, false);
        assert!(wb.is_some());
    }

    #[test]
    fn kernel_misses_are_tracked_separately() {
        let mut c = Cache::new(CacheConfig::tiny("T"));
        c.lookup(pa(0x40), false, Requestor::Kernel);
        c.lookup(pa(0x80), false, Requestor::Application);
        assert_eq!(c.stats().kernel_misses.get(), 1);
        assert_eq!(c.stats().misses.get(), 2);
    }

    #[test]
    fn prefetch_fills_and_useful_prefetches_counted() {
        let mut c = Cache::new(CacheConfig::tiny("T"));
        c.fill(pa(0x200), false, true);
        assert_eq!(c.stats().prefetch_fills.get(), 1);
        assert!(c.lookup(pa(0x200), false, Requestor::Application).is_hit());
        assert_eq!(c.stats().prefetch_hits.get(), 1);
        // A second hit on the same line is no longer counted as prefetch hit.
        c.lookup(pa(0x200), false, Requestor::Application);
        assert_eq!(c.stats().prefetch_hits.get(), 1);
    }

    #[test]
    fn invalidate_removes_line() {
        let mut c = Cache::new(CacheConfig::tiny("T"));
        c.fill(pa(0x300), false, false);
        assert!(c.contains(pa(0x300)));
        assert!(c.invalidate(pa(0x300)));
        assert!(!c.contains(pa(0x300)));
        assert!(!c.invalidate(pa(0x300)));
    }

    #[test]
    fn miss_ratio_reflects_traffic() {
        let mut c = Cache::new(CacheConfig::tiny("T"));
        c.lookup(pa(0x0), false, Requestor::Application);
        c.fill(pa(0x0), false, false);
        c.lookup(pa(0x0), false, Requestor::Application);
        assert!((c.stats().miss_ratio() - 0.5).abs() < 1e-12);
    }

    fn rejection(cfg: CacheConfig) -> String {
        cfg.validate()
            .expect_err("geometry must be rejected")
            .to_string()
    }

    #[test]
    fn zero_ways_are_rejected() {
        let e = rejection(CacheConfig {
            ways: 0,
            ..CacheConfig::l1_data()
        });
        assert!(e.contains("\"L1D\": ways"), "{e}");
    }

    #[test]
    fn more_than_64_ways_are_rejected() {
        let e = rejection(CacheConfig {
            ways: 65,
            capacity_bytes: 65 * 64 * 4,
            ..CacheConfig::l2()
        });
        assert!(e.contains("ways must be 1 to 64, got 65"), "{e}");
    }

    #[test]
    fn capacity_that_is_not_whole_sets_is_rejected() {
        // A 100-byte cache and a 3-way 2 MiB cache both leave a fraction
        // of a set; a zero capacity has no set at all.
        for (capacity_bytes, ways) in [(100, 16), (2 * 1024 * 1024, 3), (0, 8)] {
            let e = rejection(CacheConfig {
                capacity_bytes,
                ways,
                ..CacheConfig::l3()
            });
            assert!(e.contains("\"L3\": capacity_bytes"), "{e}");
        }
    }

    #[test]
    #[should_panic(expected = "ways must be 1 to 64, got 0")]
    fn cache_new_panics_with_the_validation_message() {
        Cache::new(CacheConfig {
            ways: 0,
            ..CacheConfig::l1_data()
        });
    }

    #[test]
    fn every_shipped_config_validates() {
        use crate::HierarchyConfig;
        let presets = [
            CacheConfig::l1_data(),
            CacheConfig::l1_instruction(),
            CacheConfig::l2(),
            CacheConfig::l3(),
            CacheConfig::tiny("T"),
        ];
        let hierarchies = [
            HierarchyConfig::paper_baseline(),
            HierarchyConfig::small_test(),
        ];
        let levels = hierarchies
            .iter()
            .flat_map(|h| [&h.l1i, &h.l1d, &h.l2, &h.l3]);
        for cfg in presets.iter().chain(levels) {
            assert_eq!(cfg.validate(), Ok(()), "{}", cfg.name);
        }
    }

    #[test]
    fn paper_configs_have_expected_geometry() {
        assert_eq!(CacheConfig::l1_data().num_sets(), 64);
        assert_eq!(CacheConfig::l2().num_sets(), 2048);
        assert_eq!(CacheConfig::l3().ways, 16);
        assert_eq!(CacheConfig::l1_instruction().latency, Cycles::new(4));
    }
}
