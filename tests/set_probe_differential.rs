//! Differential property tests for the set-associative structures on the
//! access path: `Cache`, `Tlb` and `PageWalkCaches` are driven through
//! random lookup / fill / invalidate / flush sequences next to plain
//! reference models written the straightforward way (per-set vectors,
//! separate look-up and fill scans, `Option` slots). Every hit or miss,
//! victim, write-back, returned count and statistic must agree.

use cache_sim::{Cache, CacheConfig, CacheStats, Probe, ReplacementPolicy};
use mimic_os::Mapping;
use mmu_sim::{PageWalkCaches, Tlb, TlbConfig};
use proptest::prelude::*;
use vm_types::{Asid, Cycles, PageSize, PhysAddr, Requestor, VirtAddr, CACHE_LINE_BYTES};

// ---------------------------------------------------------------------------
// Cache reference model
// ---------------------------------------------------------------------------

#[derive(Clone, Copy, Default)]
struct RefLine {
    tag: u64,
    valid: bool,
    dirty: bool,
    prefetched: bool,
}

/// A cache as a vector of sets, each with its own replacement metadata and
/// (for LRU) its own clock; look-up and fill scan the set separately.
struct RefCache {
    policy: ReplacementPolicy,
    sets: Vec<Vec<RefLine>>,
    meta: Vec<Vec<u32>>,
    clocks: Vec<u32>,
    stats: [u64; 6],
}

impl RefCache {
    fn new(policy: ReplacementPolicy, sets: usize, ways: usize) -> Self {
        let init = match policy {
            ReplacementPolicy::Lru => 0,
            ReplacementPolicy::Srrip => 3,
        };
        RefCache {
            policy,
            sets: vec![vec![RefLine::default(); ways]; sets],
            meta: vec![vec![init; ways]; sets],
            clocks: vec![0; sets],
            stats: [0; 6],
        }
    }

    fn locate(&self, paddr: u64) -> (usize, u64) {
        let line = paddr / CACHE_LINE_BYTES;
        let sets = self.sets.len() as u64;
        ((line % sets) as usize, line / sets)
    }

    fn way_of(&self, set: usize, tag: u64) -> Option<usize> {
        self.sets[set].iter().position(|l| l.valid && l.tag == tag)
    }

    fn touch(&mut self, set: usize, way: usize, inserted: bool) {
        match self.policy {
            ReplacementPolicy::Lru => {
                self.clocks[set] += 1;
                self.meta[set][way] = self.clocks[set];
            }
            ReplacementPolicy::Srrip => self.meta[set][way] = if inserted { 2 } else { 0 },
        }
    }

    fn choose_victim(&mut self, set: usize) -> usize {
        if let Some(way) = self.sets[set].iter().position(|l| !l.valid) {
            return way;
        }
        let meta = &mut self.meta[set];
        match self.policy {
            ReplacementPolicy::Lru => {
                let oldest = *meta.iter().min().expect("at least one way");
                meta.iter()
                    .position(|&m| m == oldest)
                    .expect("minimum exists")
            }
            ReplacementPolicy::Srrip => loop {
                if let Some(way) = meta.iter().position(|&m| m >= 3) {
                    break way;
                }
                meta.iter_mut().for_each(|m| *m += 1);
            },
        }
    }

    fn lookup(&mut self, paddr: u64, is_write: bool, requestor: Requestor) -> bool {
        let (set, tag) = self.locate(paddr);
        match self.way_of(set, tag) {
            Some(way) => {
                let line = &mut self.sets[set][way];
                line.dirty |= is_write;
                if line.prefetched {
                    line.prefetched = false;
                    self.stats[4] += 1;
                }
                self.touch(set, way, false);
                self.stats[0] += 1;
                true
            }
            None => {
                self.stats[1] += 1;
                if requestor == Requestor::Kernel {
                    self.stats[5] += 1;
                }
                false
            }
        }
    }

    fn fill(&mut self, paddr: u64, is_write: bool, prefetched: bool) -> Option<u64> {
        let (set, tag) = self.locate(paddr);
        if let Some(way) = self.way_of(set, tag) {
            self.sets[set][way].dirty |= is_write;
            return None;
        }
        let way = self.choose_victim(set);
        let victim = self.sets[set][way];
        let mut writeback = None;
        if victim.valid {
            self.stats[2] += 1;
            if victim.dirty {
                let line = victim.tag * self.sets.len() as u64 + set as u64;
                writeback = Some(line * CACHE_LINE_BYTES);
            }
        }
        self.sets[set][way] = RefLine {
            tag,
            valid: true,
            dirty: is_write,
            prefetched,
        };
        self.touch(set, way, true);
        if prefetched {
            self.stats[3] += 1;
        }
        writeback
    }

    fn invalidate(&mut self, paddr: u64) -> bool {
        let (set, tag) = self.locate(paddr);
        match self.way_of(set, tag) {
            Some(way) => {
                self.sets[set][way].valid = false;
                self.sets[set][way].dirty = false;
                self.sets[set][way].prefetched = false;
                true
            }
            None => false,
        }
    }

    fn contains(&self, paddr: u64) -> bool {
        let (set, tag) = self.locate(paddr);
        self.way_of(set, tag).is_some()
    }
}

fn cache_stats(s: &CacheStats) -> [u64; 6] {
    [
        s.hits.get(),
        s.misses.get(),
        s.evictions.get(),
        s.prefetch_fills.get(),
        s.prefetch_hits.get(),
        s.kernel_misses.get(),
    ]
}

/// Runs `ops` (each a random word decoded into one operation) against a
/// cache of `sets` x `ways` and the reference model, comparing everything.
fn check_cache(policy: ReplacementPolicy, sets: u64, ways: u32, ops: &[u64]) {
    let mut cache = Cache::new(CacheConfig {
        name: "T".to_string(),
        capacity_bytes: sets * u64::from(ways) * CACHE_LINE_BYTES,
        ways,
        latency: Cycles::new(1),
        replacement: policy,
    });
    let mut reference = RefCache::new(policy, sets as usize, ways as usize);
    // Three times the capacity in distinct lines: every set sees conflicts.
    let universe = sets * u64::from(ways) * 3;
    for &op in ops {
        let paddr = (op >> 8) % universe * CACHE_LINE_BYTES + (op >> 40) % CACHE_LINE_BYTES;
        let is_write = op & 0x10 != 0;
        let prefetched = op & 0x20 != 0;
        let requestor = if op & 0x40 != 0 {
            Requestor::Kernel
        } else {
            Requestor::Application
        };
        let pa = PhysAddr::new(paddr);
        match op % 5 {
            // A demand access: probe, then fill the miss slot.
            0 | 1 => {
                let hit = reference.lookup(paddr, is_write, requestor);
                match cache.probe(pa, is_write, requestor) {
                    Probe::Hit => assert!(hit, "probe hit where the reference missed"),
                    Probe::Miss(slot) => {
                        assert!(!hit, "probe missed where the reference hit");
                        assert_eq!(
                            cache.fill_miss(slot, is_write, prefetched).map(|a| a.raw()),
                            reference.fill(paddr, is_write, prefetched)
                        );
                    }
                }
            }
            2 => assert_eq!(
                cache.lookup(pa, is_write, requestor).is_hit(),
                reference.lookup(paddr, is_write, requestor)
            ),
            3 => assert_eq!(
                cache.fill(pa, is_write, prefetched).map(|a| a.raw()),
                reference.fill(paddr, is_write, prefetched)
            ),
            _ => assert_eq!(cache.invalidate(pa), reference.invalidate(paddr)),
        }
        assert_eq!(cache_stats(cache.stats()), reference.stats);
        for line in 0..universe {
            let pa = line * CACHE_LINE_BYTES;
            assert_eq!(cache.contains(PhysAddr::new(pa)), reference.contains(pa));
        }
    }
}

const SET_COUNTS: [u64; 9] = [1, 2, 3, 4, 5, 6, 7, 8, 16];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn cache_probe_and_fill_match_the_reference_under_lru(
        ways in 1u32..17,
        sets in 0usize..SET_COUNTS.len(),
        ops in prop::collection::vec(any::<u64>(), 50..250),
    ) {
        check_cache(ReplacementPolicy::Lru, SET_COUNTS[sets], ways, &ops);
    }

    #[test]
    fn cache_probe_and_fill_match_the_reference_under_srrip(
        ways in 1u32..17,
        sets in 0usize..SET_COUNTS.len(),
        ops in prop::collection::vec(any::<u64>(), 50..250),
    ) {
        check_cache(ReplacementPolicy::Srrip, SET_COUNTS[sets], ways, &ops);
    }
}

// ---------------------------------------------------------------------------
// TLB reference model
// ---------------------------------------------------------------------------

#[derive(Clone, Copy)]
struct RefTlbEntry {
    asid: Asid,
    vpn: u64,
    size: PageSize,
    mapping: Mapping,
    lru: u64,
}

/// A TLB with `Option` slots and a stored page number; fill scans the set
/// once for a resident entry, once for a free way and once for the LRU.
struct RefTlb {
    sizes: Vec<PageSize>,
    sets: usize,
    slots: Vec<Vec<Option<RefTlbEntry>>>,
    clock: u64,
    /// hits, misses, evictions, invalidations, flushed, asid-flushed.
    stats: [u64; 6],
}

impl RefTlb {
    fn new(config: &TlbConfig) -> Self {
        let sets = config.entries / config.ways;
        RefTlb {
            sizes: config.page_sizes.clone(),
            sets,
            slots: vec![vec![None; config.ways]; sets],
            clock: 0,
            stats: [0; 6],
        }
    }

    fn set_of(&self, vpn: u64) -> usize {
        (vpn % self.sets as u64) as usize
    }

    fn lookup(&mut self, asid: Asid, va: VirtAddr) -> Option<Mapping> {
        self.clock += 1;
        for i in 0..self.sizes.len() {
            let size = self.sizes[i];
            let vpn = va.page_number(size).number();
            let set = self.set_of(vpn);
            for e in self.slots[set].iter_mut().flatten() {
                if e.asid == asid && e.size == size && e.vpn == vpn {
                    e.lru = self.clock;
                    self.stats[0] += 1;
                    return Some(e.mapping);
                }
            }
        }
        self.stats[1] += 1;
        None
    }

    fn fill(&mut self, asid: Asid, mapping: Mapping) -> Option<Mapping> {
        if !self.sizes.contains(&mapping.page_size) {
            return None;
        }
        self.clock += 1;
        let size = mapping.page_size;
        let vpn = mapping.vaddr.page_number(size).number();
        let set = self.set_of(vpn);
        let entry = RefTlbEntry {
            asid,
            vpn,
            size,
            mapping,
            lru: self.clock,
        };
        let ways = &mut self.slots[set];
        if let Some(e) = ways
            .iter_mut()
            .flatten()
            .find(|e| e.asid == asid && e.size == size && e.vpn == vpn)
        {
            *e = entry;
            return None;
        }
        if let Some(free) = ways.iter_mut().find(|e| e.is_none()) {
            *free = Some(entry);
            return None;
        }
        let oldest = ways
            .iter()
            .flatten()
            .map(|e| e.lru)
            .min()
            .expect("full set");
        let way = ways
            .iter()
            .position(|e| e.is_some_and(|e| e.lru == oldest))
            .expect("minimum exists");
        let victim = ways[way].replace(entry).expect("full set");
        self.stats[2] += 1;
        Some(victim.mapping)
    }

    fn invalidate(&mut self, asid: Asid, va: VirtAddr) -> usize {
        let mut removed = 0;
        for i in 0..self.sizes.len() {
            let size = self.sizes[i];
            let vpn = va.page_number(size).number();
            let set = self.set_of(vpn);
            for slot in &mut self.slots[set] {
                if slot.is_some_and(|e| e.asid == asid && e.size == size && e.vpn == vpn) {
                    *slot = None;
                    removed += 1;
                }
            }
        }
        self.stats[3] += removed as u64;
        removed
    }

    fn drop_where(&mut self, keep: impl Fn(&RefTlbEntry) -> bool) -> usize {
        let mut dropped = 0;
        for slot in self.slots.iter_mut().flatten() {
            if slot.is_some_and(|e| !keep(&e)) {
                *slot = None;
                dropped += 1;
            }
        }
        dropped
    }

    fn entries(&self) -> Vec<(Asid, Mapping)> {
        let mut all: Vec<_> = self
            .slots
            .iter()
            .flatten()
            .flatten()
            .map(|e| (e.asid, e.mapping))
            .collect();
        all.sort_by_key(|(asid, m)| (*asid, m.vaddr, m.page_size));
        all
    }
}

const TLB_SIZES: [&[PageSize]; 3] = [
    &[PageSize::Size4K],
    &[PageSize::Size2M, PageSize::Size1G],
    &[PageSize::Size4K, PageSize::Size2M, PageSize::Size1G],
];

fn check_tlb(config: TlbConfig, ops: &[u64]) {
    let mut tlb = Tlb::new(config.clone());
    let mut reference = RefTlb::new(&config);
    for &op in ops {
        let asid = Asid::new((op >> 4) as u16 % 3);
        let size = PageSize::ALL[(op >> 6) as usize % 3];
        // A small window of pages of each size, offsets included, so pages
        // of different sizes overlap and sets conflict.
        let page = (op >> 8) % (config.entries as u64 * 2);
        let va = VirtAddr::new(page * size.bytes() + (op >> 32) % size.bytes());
        match op % 6 {
            0 | 1 => assert_eq!(tlb.lookup(asid, va), reference.lookup(asid, va)),
            2 | 3 => {
                let mapping = Mapping {
                    vaddr: va.page_base(size),
                    paddr: PhysAddr::new(((op >> 20) % 4096) * size.bytes()),
                    page_size: size,
                };
                assert_eq!(tlb.fill(asid, mapping), reference.fill(asid, mapping));
            }
            4 => assert_eq!(tlb.invalidate(asid, va), reference.invalidate(asid, va)),
            _ if op & 0x100_0000 != 0 => {
                let dropped = reference.drop_where(|_| false);
                reference.stats[4] += dropped as u64;
                assert_eq!(tlb.flush(), dropped);
            }
            _ => {
                let dropped = reference.drop_where(|e| e.asid != asid);
                reference.stats[5] += dropped as u64;
                assert_eq!(tlb.flush_asid(asid), dropped);
            }
        }
        let s = tlb.stats();
        assert_eq!(
            [
                s.hits.get(),
                s.misses.get(),
                s.evictions.get(),
                s.invalidations.get(),
                s.flushed_entries.get(),
                s.asid_flushed_entries.get(),
            ],
            reference.stats
        );
        let mut entries: Vec<_> = tlb.entries().collect();
        entries.sort_by_key(|(asid, m)| (*asid, m.vaddr, m.page_size));
        assert_eq!(entries, reference.entries());
        assert_eq!(tlb.occupancy(), entries.len());
        assert_eq!(
            tlb.occupancy_of(asid),
            entries.iter().filter(|(a, _)| *a == asid).count()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn tlb_matches_the_reference_across_page_sizes_and_asids(
        ways in 1usize..17,
        sets in 0usize..SET_COUNTS.len(),
        sizes in 0usize..TLB_SIZES.len(),
        ops in prop::collection::vec(any::<u64>(), 50..300),
    ) {
        let entries = SET_COUNTS[sets] as usize * ways;
        check_tlb(TlbConfig::new("T", entries, ways, 1, TLB_SIZES[sizes]), &ops);
    }
}

// ---------------------------------------------------------------------------
// Page-walk-cache reference model
// ---------------------------------------------------------------------------

/// One PWC level: per-set vectors of `Option<(tag, lru)>`.
type RefPwcLevel = Vec<Vec<Option<(u64, u64)>>>;

/// The paper-baseline PWCs (three levels of 32 entries, 4 ways), with the
/// same duplicate-fill behaviour.
struct RefPwc {
    levels: [RefPwcLevel; 3],
    clocks: [u64; 3],
    hits: u64,
    misses: u64,
}

impl RefPwc {
    const SETS: u64 = 8;

    fn new() -> Self {
        RefPwc {
            levels: std::array::from_fn(|_| vec![vec![None; 4]; Self::SETS as usize]),
            clocks: [0; 3],
            hits: 0,
            misses: 0,
        }
    }

    fn tag(va: VirtAddr, level: usize) -> u64 {
        va.raw() >> [21, 30, 39][level]
    }

    fn levels_skipped(&mut self, va: VirtAddr) -> usize {
        for level in 0..3 {
            self.clocks[level] += 1;
            let tag = Self::tag(va, level);
            let set = &mut self.levels[level][(tag % Self::SETS) as usize];
            if let Some(slot) = set.iter_mut().flatten().find(|s| s.0 == tag) {
                slot.1 = self.clocks[level];
                self.hits += 1;
                return 3 - level;
            }
            self.misses += 1;
        }
        0
    }

    fn fill(&mut self, va: VirtAddr) {
        for level in 0..3 {
            self.clocks[level] += 1;
            let tag = Self::tag(va, level);
            let entry = Some((tag, self.clocks[level]));
            let set = &mut self.levels[level][(tag % Self::SETS) as usize];
            if let Some(free) = set.iter_mut().find(|s| s.is_none()) {
                *free = entry;
                continue;
            }
            let oldest = set.iter().flatten().map(|s| s.1).min().expect("full set");
            let way = set
                .iter()
                .position(|s| s.is_some_and(|s| s.1 == oldest))
                .expect("minimum exists");
            set[way] = entry;
        }
    }

    fn invalidate(&mut self, va: VirtAddr) -> usize {
        let mut dropped = 0;
        for level in 0..3 {
            let tag = Self::tag(va, level);
            for slot in &mut self.levels[level][(tag % Self::SETS) as usize] {
                if slot.is_some_and(|s| s.0 == tag) {
                    *slot = None;
                    dropped += 1;
                }
            }
        }
        dropped
    }

    fn flush(&mut self) {
        for slot in self.levels.iter_mut().flatten().flatten() {
            *slot = None;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn page_walk_caches_match_the_reference(
        ops in prop::collection::vec(any::<u64>(), 50..400),
    ) {
        let mut pwc = PageWalkCaches::paper_baseline();
        let mut reference = RefPwc::new();
        for op in ops {
            // 2 MiB regions drawn from a few PML4 and PDPT entries, so every
            // level sees hits, conflicts and repeated fills.
            let va = VirtAddr::new(
                ((op >> 8) % 4) << 39 | ((op >> 16) % 6) << 30 | ((op >> 24) % 48) << 21,
            );
            match op % 8 {
                0..=2 => assert_eq!(pwc.levels_skipped(va), reference.levels_skipped(va)),
                3..=5 => {
                    pwc.fill(va);
                    reference.fill(va);
                }
                6 => assert_eq!(pwc.invalidate(va), reference.invalidate(va)),
                _ => {
                    pwc.flush();
                    reference.flush();
                }
            }
            assert_eq!((pwc.hits(), pwc.misses()), (reference.hits, reference.misses));
        }
    }
}
