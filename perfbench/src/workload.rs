//! The three benchmark workloads: how each machine is configured, set up,
//! run and checked, and the figure harnesses the traced run of `gups-tlb`
//! times. Every simulation is driven through the public `System` API only.

use crate::timing::Stamper;
use mimic_os::{AllocationPolicy, OsConfig, ProcessId, ThpConfig, ThpMode};
use sim_core::TraceSource;
use virtuoso::{MultiProgramReport, SimulationReport, System, SystemConfig};
use virtuoso_bench::experiments;
use virtuoso_bench::runner::ExperimentTable;
use vm_workloads::{catalog, AccessPattern, SyntheticWorkload, WorkloadClass, WorkloadSpec};

/// The workloads, in the order their ids are assigned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    GupsTlb,
    SwapPressure,
    McEpoch,
}

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::GupsTlb, Kind::SwapPressure, Kind::McEpoch];

    pub fn name(self) -> &'static str {
        match self {
            Kind::GupsTlb => "gups-tlb",
            Kind::SwapPressure => "swap-pressure",
            Kind::McEpoch => "mc-epoch",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Wall milliseconds one untraced timed repetition (set-up, run, check
    /// and set-up batches) takes at the commit that defined the benchmark,
    /// on a lightly loaded 2-vCPU Xeon virtual machine.
    fn nominal_rep_ms(self) -> u64 {
        match self {
            Kind::GupsTlb => 750,
            Kind::SwapPressure => 750,
            Kind::McEpoch => 650,
        }
    }

    /// Timed repetitions `seconds` of measurement buy. It depends on the
    /// workload and `seconds` only, never on how fast this commit runs.
    pub fn reps(self, seconds: u64) -> usize {
        (seconds * 1000 / self.nominal_rep_ms()) as usize
    }

    /// Numeric workload id (the thread id of its spans).
    pub fn id(self) -> u32 {
        Kind::ALL.iter().position(|&k| k == self).expect("listed") as u32
    }
}

/// A simulation workload: the machine, the per-process trace and the
/// benchmark seed the traces are generated from.
#[derive(Debug, Clone)]
pub struct SimPlan {
    pub config: SystemConfig,
    /// The trace every process runs, with its per-process budget.
    pub spec: WorkloadSpec,
    pub processes: usize,
    pub seed: u64,
}

impl SimPlan {
    /// The plan of a workload.
    pub fn new(kind: Kind, seed: u64) -> SimPlan {
        let gups = catalog::gups_randacc().scaled_footprint(0.125);
        let (config, spec, processes) = match kind {
            Kind::GupsTlb => (
                SystemConfig::small_test(),
                gups.with_instructions(4_000_000),
                1,
            ),
            Kind::SwapPressure => {
                // The Fig. 20 radix machine: 120 MiB of uniform-random
                // footprint on 128 MiB of memory.
                let mut config = SystemConfig::small_test();
                config.os = OsConfig {
                    memory_bytes: 128 << 20,
                    swap_bytes: 256 << 20,
                    swap_threshold: 0.9,
                    thp: ThpConfig {
                        mode: ThpMode::Never,
                        ..ThpConfig::linux_default()
                    },
                    fragmentation_target: None,
                    populate_page_cache: false,
                    policy: AllocationPolicy::BuddyFourK,
                    ..OsConfig::small_test()
                };
                let spec = WorkloadSpec::simple(
                    "swap-pressure",
                    WorkloadClass::LongRunning,
                    120 << 20,
                    AccessPattern::UniformRandom,
                    2_000_000,
                );
                (config, spec, 1)
            }
            Kind::McEpoch => (
                SystemConfig::small_test()
                    .with_cores(2)
                    .with_host_threads(2),
                gups.scaled_footprint(0.5).with_instructions(2_000_000),
                2,
            ),
        };
        SimPlan {
            config,
            spec,
            processes,
            seed,
        }
    }

    /// Application instructions the run must retire, over all processes.
    pub fn budget(&self) -> u64 {
        self.spec.instructions * self.processes as u64
    }

    /// The trace seed of process `index`, derived from the benchmark seed.
    pub fn trace_seed(&self, index: usize) -> u64 {
        self.seed
            .wrapping_add((index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// The trace sources of every process, freshly generated.
    pub fn sources(&self) -> Vec<SyntheticWorkload> {
        (0..self.processes)
            .map(|i| self.spec.build(self.trace_seed(i)))
            .collect()
    }

    /// File id of region `region` of process `pid` (kept disjoint across
    /// processes so they share no page-cache state).
    pub fn file_id(pid: ProcessId, region: usize) -> u64 {
        pid.0 as u64 * 1000 + region as u64 + 1
    }

    /// Builds the machine: `System::new`, the extra processes, every
    /// region mapped, and the trace sources — everything before the first
    /// instruction.
    pub fn setup(&self) -> Prepared {
        let mut system = System::new(self.config.clone());
        let mut pids = vec![system.pid()];
        while pids.len() < self.processes {
            pids.push(system.spawn_process());
        }
        for &pid in &pids {
            map_regions(&mut system, pid, &self.spec);
        }
        Prepared {
            system,
            pids,
            sources: self.sources(),
        }
    }

    /// Memory accesses the traces attempt (the base of the failed-access
    /// share), counted from a fresh copy of the traces.
    pub fn memory_accesses(&self) -> u64 {
        let mut count = 0;
        for mut source in self.sources() {
            while let Some(instr) = source.next_instruction() {
                count += u64::from(instr.memory.is_some());
            }
        }
        count
    }
}

/// A machine ready to run: the system, its processes and their traces.
pub struct Prepared {
    pub system: System,
    pub pids: Vec<ProcessId>,
    pub sources: Vec<SyntheticWorkload>,
}

/// What one run reported.
pub enum RunReport {
    Single(SimulationReport),
    Multi(MultiProgramReport),
}

impl RunReport {
    /// The report as the simulator serializes it.
    pub fn serialized(&self) -> String {
        match self {
            RunReport::Single(r) => serde_json::to_string(r),
            RunReport::Multi(r) => serde_json::to_string(r),
        }
        .expect("reports serialize")
    }

    /// The machine-wide view of the run.
    pub fn rollup(&self) -> &SimulationReport {
        match self {
            RunReport::Single(r) => r,
            RunReport::Multi(r) => &r.rollup,
        }
    }
}

impl Prepared {
    /// Runs every trace to its end — `System::run` for one process,
    /// `System::run_multiprogram` for several — ticking `stamper` as the
    /// traces are pulled.
    pub fn run(&mut self, stamper: &Stamper) -> RunReport {
        if let [source] = self.sources.as_mut_slice() {
            return RunReport::Single(self.system.run(&mut stamper.wrap(source), None));
        }
        let mut stamped: Vec<_> = self.sources.iter_mut().map(|s| stamper.wrap(s)).collect();
        let mut programs: Vec<(ProcessId, &mut dyn TraceSource)> = self
            .pids
            .iter()
            .copied()
            .zip(stamped.iter_mut().map(|s| s as &mut dyn TraceSource))
            .collect();
        RunReport::Multi(self.system.run_multiprogram(&mut programs, None))
    }

    /// The correctness gate of one run: the exact instruction budget
    /// retired, every process completed, and the system's invariants hold.
    pub fn check(&self, plan: &SimPlan, report: &RunReport) -> Result<(), String> {
        let per_process = plan.spec.instructions;
        match report {
            RunReport::Single(r) => {
                if r.instructions != per_process {
                    return Err(format!(
                        "retired {} instructions, budget {per_process}",
                        r.instructions
                    ));
                }
                let pid = self.pids[0];
                if self.system.os().process(pid).exit_reason().is_some()
                    || self.system.segfaults() > 0
                {
                    return Err(format!("{pid} did not complete"));
                }
            }
            RunReport::Multi(m) => {
                for p in &m.processes {
                    if p.instructions != per_process {
                        return Err(format!(
                            "pid {} retired {} instructions, budget {per_process}",
                            p.pid, p.instructions
                        ));
                    }
                    if !p.exit_status.is_completed() {
                        return Err(format!("pid {} exited {:?}", p.pid, p.exit_status));
                    }
                }
                if m.processes.len() != plan.processes {
                    return Err(format!("{} processes reported", m.processes.len()));
                }
            }
        }
        self.system
            .check_invariants()
            .map_err(|e| format!("invariant violated: {e}"))
    }

    /// Accesses that failed: skipped for out-of-memory or outside any VMA.
    pub fn failed_accesses(&self) -> u64 {
        self.system.oom_failures() + self.system.segfaults()
    }
}

/// One figure harness of the paper-reproduction suite.
pub struct Figure {
    /// Metric stem, e.g. `fig01`.
    pub name: &'static str,
    pub run: fn() -> ExperimentTable,
}

/// All 17 figure harnesses at scale 1, in paper order.
pub fn figures() -> [Figure; 17] {
    [
        Figure {
            name: "fig01",
            run: || experiments::fig01_vm_overheads(1),
        },
        Figure {
            name: "fig02",
            run: || experiments::fig02_mpf_distribution(1),
        },
        Figure {
            name: "fig03",
            run: || experiments::fig03_ptw_variation(1),
        },
        Figure {
            name: "fig08",
            run: || experiments::fig08_ipc_accuracy(1),
        },
        Figure {
            name: "fig09",
            run: || experiments::fig09_pf_cosine(1),
        },
        Figure {
            name: "fig10",
            run: || experiments::fig10_mmu_validation(1),
        },
        Figure {
            name: "fig11",
            run: || experiments::fig11_sim_overhead(1),
        },
        Figure {
            name: "fig12",
            run: || experiments::fig12_overhead_correlation(1),
        },
        Figure {
            name: "fig13",
            run: || experiments::fig13_ptw_reduction(1),
        },
        Figure {
            name: "fig14",
            run: || experiments::fig14_rowbuffer_conflicts(1),
        },
        Figure {
            name: "fig15",
            run: || experiments::fig15_mpf_reduction(1),
        },
        Figure {
            name: "fig16",
            run: || experiments::fig16_llm_alloc_policies(1),
        },
        Figure {
            name: "fig17",
            run: || experiments::fig17_midgard_breakdown(1),
        },
        Figure {
            name: "fig18",
            run: experiments::fig18_vma_histogram,
        },
        Figure {
            name: "fig19",
            run: || experiments::fig19_restseg_size(1),
        },
        Figure {
            name: "fig20",
            run: || experiments::fig20_swap_activity(1),
        },
        Figure {
            name: "fig21",
            run: || experiments::fig21_rmm_conflicts(1),
        },
    ]
}

/// Columns of Figs. 11 and 12 that print host wall-clock time; they are
/// the only figure outputs that may differ between two identical runs.
const HOST_TIME_COLUMNS: [&str; 4] = [
    "emulation ms",
    "detailed ms",
    "overhead %",
    "normalized sim time",
];

/// A table rendered with its host-time cells blanked, for comparing two
/// runs of the same harness.
pub fn comparable(table: &ExperimentTable) -> String {
    let host_time_table = table.title.starts_with("Fig. 11") || table.title.starts_with("Fig. 12");
    let mut masked = table.clone();
    if host_time_table {
        for (col, header) in table.header.iter().enumerate() {
            if HOST_TIME_COLUMNS.contains(&header.as_str()) {
                for row in &mut masked.rows {
                    row[col] = "*".to_string();
                }
            }
        }
    }
    masked.render()
}

/// Maps every region of `spec` into `pid`'s address space.
fn map_regions(system: &mut System, pid: ProcessId, spec: &WorkloadSpec) {
    for (i, region) in spec.regions.iter().enumerate() {
        let mapped = if region.file_backed {
            system.mmap_file_for(pid, region.start, region.bytes, SimPlan::file_id(pid, i))
        } else {
            system.mmap_anonymous_for(pid, region.start, region.bytes)
        };
        mapped.expect("workload regions are disjoint and non-empty");
    }
}
