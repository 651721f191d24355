//! Layer replay cells: each layer timed in isolation, from outside, on the
//! workload's own recorded stream.
//!
//! A *functional* replay regenerates the traces (same seeds) and drives a
//! private `MimicOs` plus one `Mmu` per simulated core with them: every
//! data access is translated with `Mmu::translate`; a translation fault
//! calls `MimicOs::handle_page_fault` and installs the resulting mappings;
//! shootdowns the kernel asks for are applied. That pass records, chunk by
//! chunk, what each layer was asked to do. Every chunk is then fed to a
//! fresh, private instance of each layer, timed one batch at a time (never
//! one call at a time):
//!
//! * `vm_workloads` — `TraceSource::next_instruction`, timed while the
//!   functional pass pulls the chunk;
//! * `mmu_sim` — the chunk's translations, with its mapping installs and
//!   removals in between, through `Mmu::translate`; the install/remove work
//!   alone and the chunk's page walks (`Mmu::walk_after_miss`) are timed on
//!   a second set of MMUs so that the translate cost can be separated;
//! * `cache_sim` — translated data addresses and kernel references through
//!   `CacheHierarchy::access`, walk references through
//!   `CacheHierarchy::access_page_table`, each on its own hierarchy; a
//!   third, untimed hierarchy sees them interleaved in program order and
//!   gives the miss ratios and the lines that go to DRAM;
//! * `dram_sim` — those lines through `DramModel::access_raw` (and
//!   `DramModel::access` for write-backs);
//! * `ssd_sim` — the swap traffic the faults caused, through
//!   `SsdModel::{read, write}` (the device addresses are synthesized: the
//!   kernel does not expose its swap slots);
//! * `mimic_os` — the recorded fault sequence replayed into a freshly
//!   booted `MimicOs`, and the page orders those faults mapped replayed
//!   through `BuddyAllocator::{alloc, free}`.
//!
//! A traced run repeats the whole replay between its timed runs, on fresh
//! instances, and each batch keeps its fastest time, as the end-to-end
//! runs keep each segment's.
//!
//! The functional pass is an approximation of the run: it sees only the
//! kernel streams of page faults (not of reclaim daemons, context switches
//! or shootdown rounds), and it interleaves several processes in fixed
//! chunks rather than on the simulator's schedule. Its counts are used
//! only as the replay cells' own bases; the reported layer counts come
//! from the simulated run.

use crate::spans::Spans;
use crate::workload::SimPlan;
use cache_sim::CacheHierarchy;
use dram_sim::DramModel;
use mimic_os::{BuddyAllocator, InvalidationBatch, KernelOp, Mapping, MimicOs, ProcessId};
use mmu_sim::{Mmu, TranslationResult};
use sim_core::{Instruction, TraceSource};
use ssd_sim::SsdModel;
use std::hint::black_box;
use std::time::Instant;
use virtuoso::System;
use vm_types::{AccessType, Asid, Cycles, MemoryAccess, PhysAddr, Requestor, VirtAddr};

/// Application instructions pulled from one process before the chunk is
/// handed to the timed cells.
const CHUNK: usize = 16_384;
/// The fault and buddy cells repeat their sequence on fresh instances
/// until they have timed at least this many operations, so that a
/// workload with few faults still gets a stable per-operation time.
const MIN_OPS: u64 = 4_096;
/// Operations per timed batch of the fault and buddy cells.
const BATCH: usize = 512;

/// Operations a cell timed and the host time of each of its batches.
#[derive(Debug, Default, Clone)]
pub struct Cell {
    pub ops: u64,
    batches_ns: Vec<u64>,
}

impl Cell {
    fn add(&mut self, ops: usize, ns: u64) {
        self.ops += ops as u64;
        self.batches_ns.push(ns);
    }

    fn ns(&self) -> u64 {
        self.batches_ns.iter().sum()
    }

    /// Host nanoseconds per operation (0 when the cell timed nothing).
    pub fn ns_per_op(&self) -> f64 {
        if self.ops == 0 {
            0.0
        } else {
            self.ns() as f64 / self.ops as f64
        }
    }

    /// Keeps, batch by batch, the faster of two replays of the same work.
    fn keep_fastest(&mut self, other: &Cell) {
        if self.batches_ns.len() == other.batches_ns.len() {
            for (mine, theirs) in self.batches_ns.iter_mut().zip(&other.batches_ns) {
                *mine = (*mine).min(*theirs);
            }
        } else if other.ns() < self.ns() {
            *self = other.clone();
        }
    }
}

/// Everything the replay cells measured.
#[derive(Debug, Default, Clone)]
pub struct LayerCells {
    pub frontend: Cell,
    /// `Mmu::translate` calls with the installs/removals between them.
    pub translate_with_events: Cell,
    /// The installs/removals alone.
    pub mmu_events: Cell,
    pub walks: Cell,
    pub cache_data: Cell,
    pub cache_page_table: Cell,
    pub l1d_miss_ratio: f64,
    pub l2_miss_ratio: f64,
    pub llc_miss_ratio: f64,
    pub dram: Cell,
    pub ssd: Cell,
    pub faults: Cell,
    pub buddy_alloc: Cell,
    pub buddy_free: Cell,
}

impl LayerCells {
    /// Host nanoseconds per `Mmu::translate`, net of the install/remove
    /// work interleaved with it.
    pub fn translate_ns(&self) -> f64 {
        let ops = self.translate_with_events.ops;
        if ops == 0 {
            return 0.0;
        }
        (self.translate_with_events.ns() as f64 - self.mmu_events.ns() as f64) / ops as f64
    }

    /// Keeps, batch by batch, the faster of two replays of the same work.
    pub fn keep_fastest(&mut self, other: &LayerCells) {
        for (mine, theirs) in [
            (&mut self.frontend, &other.frontend),
            (
                &mut self.translate_with_events,
                &other.translate_with_events,
            ),
            (&mut self.mmu_events, &other.mmu_events),
            (&mut self.walks, &other.walks),
            (&mut self.cache_data, &other.cache_data),
            (&mut self.cache_page_table, &other.cache_page_table),
            (&mut self.dram, &other.dram),
            (&mut self.ssd, &other.ssd),
            (&mut self.faults, &other.faults),
            (&mut self.buddy_alloc, &other.buddy_alloc),
            (&mut self.buddy_free, &other.buddy_free),
        ] {
            mine.keep_fastest(theirs);
        }
    }
}

enum MmuEvent {
    Install {
        core: usize,
        asid: Asid,
        mapping: Mapping,
    },
    Remove {
        core: usize,
        asid: Asid,
        vaddr: VirtAddr,
    },
}

enum CacheRef {
    Data(PhysAddr, AccessType, Requestor),
    PageTable(PhysAddr),
}

/// What one chunk of the functional pass asked of each layer.
#[derive(Default)]
struct ChunkLog {
    translations: Vec<(usize, Asid, VirtAddr)>,
    /// MMU events, each tagged with the number of translations before it.
    events: Vec<(usize, MmuEvent)>,
    walks: Vec<(usize, Asid, VirtAddr)>,
    cache: Vec<CacheRef>,
    ssd: Vec<(bool, u64)>,
}

impl ChunkLog {
    fn clear(&mut self) {
        self.translations.clear();
        self.events.clear();
        self.walks.clear();
        self.cache.clear();
        self.ssd.clear();
    }
}

/// The functional model: a private kernel and one MMU per core.
struct Functional {
    os: MimicOs,
    mmus: Vec<Mmu>,
    /// `(pid, vaddr, is_write)` of every fault, in order.
    faults: Vec<(ProcessId, VirtAddr, bool)>,
    /// Buddy order of every page the faults mapped.
    orders: Vec<u32>,
    next_write_lba: u64,
}

/// Boots a kernel with the plan's processes and regions, as `System`
/// set-up does.
fn boot(plan: &SimPlan) -> (MimicOs, Vec<ProcessId>) {
    let mut os = MimicOs::new(plan.config.os.clone());
    let pids: Vec<ProcessId> = (0..plan.processes).map(|_| os.spawn_process()).collect();
    for &pid in &pids {
        for (i, region) in plan.spec.regions.iter().enumerate() {
            let mapped = if region.file_backed {
                os.mmap_file(pid, region.start, region.bytes, SimPlan::file_id(pid, i))
            } else {
                os.mmap_anonymous(pid, region.start, region.bytes, false)
            };
            mapped.expect("workload regions are disjoint and non-empty");
        }
    }
    (os, pids)
}

impl Functional {
    fn core_of(&self, pid: ProcessId) -> usize {
        pid.0 % self.mmus.len()
    }

    fn translate(
        &mut self,
        core: usize,
        asid: Asid,
        va: VirtAddr,
        log: &mut ChunkLog,
    ) -> TranslationResult {
        log.translations.push((core, asid, va));
        let result = self.mmus[core].translate(asid, va);
        if let Some(walk) = &result.walk {
            log.walks.push((core, asid, va));
            log.cache
                .extend(walk.accesses.iter().map(|&pa| CacheRef::PageTable(pa)));
        }
        result
    }

    fn install(&mut self, pid: ProcessId, mapping: &Mapping, log: &mut ChunkLog) {
        let core = self.core_of(pid);
        let asid = System::asid_of(pid);
        log.events.push((
            log.translations.len(),
            MmuEvent::Install {
                core,
                asid,
                mapping: *mapping,
            },
        ));
        for pa in self.mmus[core].install_mapping(asid, mapping) {
            log.cache
                .push(CacheRef::Data(pa, AccessType::Write, Requestor::Kernel));
        }
    }

    fn invalidate(&mut self, batch: &InvalidationBatch, log: &mut ChunkLog) {
        for victim in &batch.victims {
            let core = self.core_of(victim.pid);
            let asid = System::asid_of(victim.pid);
            log.events.push((
                log.translations.len(),
                MmuEvent::Remove {
                    core,
                    asid,
                    vaddr: victim.vaddr,
                },
            ));
            for pa in self.mmus[core].remove_mapping(asid, victim.vaddr).accesses {
                log.cache
                    .push(CacheRef::Data(pa, AccessType::Write, Requestor::Kernel));
            }
        }
        for (pid, mapping) in &batch.replacements {
            self.install(*pid, mapping, log);
        }
    }

    fn access(&mut self, pid: ProcessId, va: VirtAddr, kind: AccessType, log: &mut ChunkLog) {
        let core = self.core_of(pid);
        let asid = System::asid_of(pid);
        let mut result = self.translate(core, asid, va, log);
        if result.paddr.is_none() {
            let is_write = kind.is_write();
            self.faults.push((pid, va, is_write));
            let (reads, writes) = ssd_requests(&self.os);
            let handled = self.os.handle_page_fault(pid, va, is_write);
            let (reads_after, writes_after) = ssd_requests(&self.os);
            for _ in writes..writes_after {
                log.ssd.push((true, self.next_write_lba));
                self.next_write_lba += 1;
            }
            for i in reads..reads_after {
                let lba = (va.raw() >> 12).wrapping_add(i) % self.next_write_lba.max(1);
                log.ssd.push((false, lba));
            }
            match handled {
                Ok(outcome) => {
                    self.invalidate(&outcome.invalidations, log);
                    for mapping in
                        std::iter::once(&outcome.mapping).chain(&outcome.additional_mappings)
                    {
                        self.orders.push(mapping.page_size.order_4k());
                        self.install(pid, mapping, log);
                    }
                    for op in outcome.stream.ops() {
                        if let KernelOp::Memory { paddr, kind } = *op {
                            log.cache
                                .push(CacheRef::Data(paddr, kind, Requestor::Kernel));
                        }
                    }
                    result = self.translate(core, asid, va, log);
                }
                Err(_) => {
                    let pending = self.os.take_pending_invalidations();
                    self.invalidate(&pending, log);
                }
            }
        }
        if let Some(pa) = result.paddr {
            log.cache
                .push(CacheRef::Data(pa, kind, Requestor::Application));
        }
    }
}

fn ssd_requests(os: &MimicOs) -> (u64, u64) {
    let stats = os.ssd().stats();
    (stats.reads.get(), stats.writes.get())
}

/// The private layer instances the timed cells drive.
struct TimedLayers {
    translate_mmus: Vec<Mmu>,
    walk_mmus: Vec<Mmu>,
    interleaved: CacheHierarchy,
    data_cache: CacheHierarchy,
    pt_cache: CacheHierarchy,
    dram: DramModel,
    ssd: SsdModel,
    dram_lines: Vec<(PhysAddr, Requestor, bool)>,
}

fn timed<R>(spans: &mut Spans, name: &str, f: impl FnOnce() -> R) -> (R, u64) {
    let start = Instant::now();
    let r = f();
    let ns = start.elapsed().as_nanos() as u64;
    spans.record(name, ns);
    (r, ns)
}

fn apply_event(mmus: &mut [Mmu], event: &MmuEvent) {
    match *event {
        MmuEvent::Install {
            core,
            asid,
            ref mapping,
        } => {
            black_box(mmus[core].install_mapping(asid, mapping));
        }
        MmuEvent::Remove { core, asid, vaddr } => {
            black_box(mmus[core].remove_mapping(asid, vaddr));
        }
    }
}

impl TimedLayers {
    /// Feeds one chunk to every per-chunk cell.
    fn replay_chunk(&mut self, log: &ChunkLog, cells: &mut LayerCells, spans: &mut Spans) {
        let mmus = &mut self.translate_mmus;
        let (_, ns) = timed(spans, "mmu_sim.translate", || {
            let mut events = log.events.iter().peekable();
            for (i, &(core, asid, va)) in log.translations.iter().enumerate() {
                while let Some((_, event)) = events.next_if(|(at, _)| *at <= i) {
                    apply_event(mmus, event);
                }
                black_box(mmus[core].translate(asid, va));
            }
            for (_, event) in events {
                apply_event(mmus, event);
            }
        });
        cells.translate_with_events.add(log.translations.len(), ns);

        let mmus = &mut self.walk_mmus;
        let (_, ns) = timed(spans, "mmu_sim.install_remove", || {
            for (_, event) in &log.events {
                apply_event(mmus, event);
            }
        });
        cells.mmu_events.add(log.events.len(), ns);
        let (_, ns) = timed(spans, "mmu_sim.walk", || {
            for &(core, asid, va) in &log.walks {
                black_box(mmus[core].walk_after_miss(asid, va, Cycles::ZERO));
            }
        });
        cells.walks.add(log.walks.len(), ns);

        // Untimed: the miss ratios and the DRAM traffic of the chunk, with
        // walks and data interleaved in program order.
        self.dram_lines.clear();
        for r in &log.cache {
            let access = match *r {
                CacheRef::Data(pa, kind, requestor) => self.interleaved.access(pa, kind, requestor),
                CacheRef::PageTable(pa) => self.interleaved.access_page_table(pa),
            };
            let requestor = match *r {
                CacheRef::Data(_, _, requestor) => requestor,
                CacheRef::PageTable(_) => Requestor::PageTableWalker,
            };
            self.dram_lines
                .extend(access.dram_fetches.iter().map(|&pa| (pa, requestor, false)));
            self.dram_lines
                .extend(access.writebacks.iter().map(|&pa| (pa, requestor, true)));
        }

        let cache = &mut self.data_cache;
        let (data, ns) = timed(spans, "cache_sim.access", || {
            let mut n = 0;
            for r in &log.cache {
                if let CacheRef::Data(pa, kind, requestor) = *r {
                    black_box(cache.access(pa, kind, requestor));
                    n += 1;
                }
            }
            n
        });
        cells.cache_data.add(data, ns);
        let cache = &mut self.pt_cache;
        let (pt, ns) = timed(spans, "cache_sim.access_page_table", || {
            let mut n = 0;
            for r in &log.cache {
                if let CacheRef::PageTable(pa) = *r {
                    black_box(cache.access_page_table(pa));
                    n += 1;
                }
            }
            n
        });
        cells.cache_page_table.add(pt, ns);

        let dram = &mut self.dram;
        let lines = &self.dram_lines;
        let (_, ns) = timed(spans, "dram_sim.access", || {
            for &(pa, requestor, write) in lines {
                if write {
                    black_box(dram.access(&MemoryAccess::physical(
                        pa,
                        AccessType::Write,
                        requestor,
                    )));
                } else {
                    black_box(dram.access_raw(pa, requestor));
                }
            }
        });
        cells.dram.add(lines.len(), ns);

        if !log.ssd.is_empty() {
            let ssd = &mut self.ssd;
            let (_, ns) = timed(spans, "ssd_sim.access", || {
                for &(write, lba) in &log.ssd {
                    black_box(if write { ssd.write(lba) } else { ssd.read(lba) });
                }
            });
            cells.ssd.add(log.ssd.len(), ns);
        }
    }

    fn finish(&self, cells: &mut LayerCells) {
        let stats = self.interleaved.stats();
        let miss_ratio = |s: &cache_sim::CacheStats| {
            let lookups = s.hits.get() + s.misses.get();
            if lookups == 0 {
                0.0
            } else {
                s.misses.get() as f64 / lookups as f64
            }
        };
        cells.l1d_miss_ratio = miss_ratio(&stats.l1d);
        cells.l2_miss_ratio = miss_ratio(&stats.l2);
        cells.llc_miss_ratio = miss_ratio(&stats.l3);
    }
}

/// Runs every replay cell once on the plan's own traces.
pub fn measure(plan: &SimPlan, spans: &mut Spans) -> LayerCells {
    let config = &plan.config;
    let cores = config.os.num_cores.max(1);
    let fresh_mmus = || {
        (0..cores)
            .map(|_| Mmu::new(config.mmu.clone()))
            .collect::<Vec<_>>()
    };
    let (os, pids) = boot(plan);
    let mut functional = Functional {
        os,
        mmus: fresh_mmus(),
        faults: Vec::new(),
        orders: Vec::new(),
        next_write_lba: 0,
    };
    let mut layers = TimedLayers {
        translate_mmus: fresh_mmus(),
        walk_mmus: fresh_mmus(),
        interleaved: CacheHierarchy::new(config.caches.clone()),
        data_cache: CacheHierarchy::new(config.caches.clone()),
        pt_cache: CacheHierarchy::new(config.caches.clone()),
        dram: DramModel::new(config.dram.clone()),
        ssd: SsdModel::new(config.os.ssd.clone()),
        dram_lines: Vec::new(),
    };
    let mut cells = LayerCells::default();
    let mut sources = plan.sources();
    let mut live: Vec<bool> = vec![true; sources.len()];
    let mut buffer: Vec<Instruction> = Vec::with_capacity(CHUNK);
    let mut log = ChunkLog::default();

    let replay = spans.enter("replay");
    while live.iter().any(|&l| l) {
        for (i, source) in sources.iter_mut().enumerate() {
            if !live[i] {
                continue;
            }
            buffer.clear();
            let (_, ns) = timed(spans, "vm_workloads.next_instruction", || {
                while buffer.len() < CHUNK {
                    match source.next_instruction() {
                        Some(instr) => buffer.push(instr),
                        None => break,
                    }
                }
            });
            cells.frontend.add(buffer.len(), ns);
            live[i] = buffer.len() == CHUNK;
            let pid = pids[i];
            for instr in &buffer {
                if let Some((va, kind)) = instr.memory {
                    functional.access(pid, va, kind, &mut log);
                }
            }
            layers.replay_chunk(&log, &mut cells, spans);
            log.clear();
        }
    }
    layers.finish(&mut cells);
    replay_faults(plan, &functional.faults, &mut cells, spans);
    replay_buddy(plan, &functional.orders, &mut cells, spans);
    spans.exit(replay);
    cells
}

/// Replays the fault sequence into freshly booted kernels.
fn replay_faults(
    plan: &SimPlan,
    faults: &[(ProcessId, VirtAddr, bool)],
    cells: &mut LayerCells,
    spans: &mut Spans,
) {
    if faults.is_empty() {
        return;
    }
    while cells.faults.ops < MIN_OPS.max(faults.len() as u64) {
        let (mut os, _) = boot(plan);
        for batch in faults.chunks(BATCH) {
            let (_, ns) = timed(spans, "mimic_os.handle_page_fault", || {
                for &(pid, va, is_write) in batch {
                    if black_box(os.handle_page_fault(pid, va, is_write)).is_err() {
                        black_box(os.take_pending_invalidations());
                    }
                }
            });
            cells.faults.add(batch.len(), ns);
        }
    }
}

/// Replays the page orders the faults mapped through fresh buddy
/// allocators: allocate in fault order until memory runs out, then free
/// everything.
fn replay_buddy(plan: &SimPlan, orders: &[u32], cells: &mut LayerCells, spans: &mut Spans) {
    if orders.is_empty() {
        return;
    }
    let mut held: Vec<(PhysAddr, u32)> = Vec::new();
    while cells.buddy_alloc.ops < MIN_OPS.max(orders.len() as u64) {
        let mut buddy = BuddyAllocator::new(plan.config.os.memory_bytes);
        let mut remaining = orders;
        while !remaining.is_empty() {
            let take = remaining.len().min(BATCH);
            let (batch, rest) = remaining.split_at(take);
            remaining = rest;
            let ((done, full), ns) = timed(spans, "mimic_os.buddy_alloc", || {
                for (n, &order) in batch.iter().enumerate() {
                    match buddy.alloc(order) {
                        Ok(pa) => held.push((pa, order)),
                        Err(_) => return (n + 1, true),
                    }
                }
                (take, false)
            });
            cells.buddy_alloc.add(done, ns);
            if full {
                break;
            }
        }
        for batch in held.chunks(BATCH) {
            let (_, ns) = timed(spans, "mimic_os.buddy_free", || {
                for &(pa, order) in batch {
                    black_box(buddy.free(pa, order)).expect("freeing a block this cell allocated");
                }
            });
            cells.buddy_free.add(batch.len(), ns);
        }
        held.clear();
    }
}
