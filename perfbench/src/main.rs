//! The repository benchmark: one workload per invocation, its end-to-end
//! metrics (or, with `--trace 1`, its per-layer metrics), and a
//! correctness gate over every run it times. See `README.md` next to this
//! package for the workloads, the metrics and how to read the span file.

mod host;
mod replay;
mod spans;
mod timing;
mod workload;

use host::{peak_rss_mib, HostFacts};
use spans::Spans;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use timing::{best_of_segments, median, Segments, Stamper, Stamps};
use workload::{figures, Kind, Prepared, RunReport, SimPlan};

const USAGE: &str = "\
usage: perfbench --workload <gups-tlb|swap-pressure|mc-epoch>
                 [--seed N] [--seconds N] [--trace 0|1]
                 [--spans PATH] [--out PATH]

  --workload  the workload to measure (required)
  --seed      trace seed of the workload (default 1)
  --seconds   measurement length, 1..=600 (default 10): fixes how many times
              the timed task repeats, from the workload's nominal cost
  --trace     0: end-to-end metrics; 1: per-layer metrics from a traced run
              plus the layer replay cells (default 0)
  --spans     where the traced run writes its Chrome trace-event JSON
              (default: $CARGO_TARGET_DIR/perfbench, else target/perfbench)
  --out       also write the result and the host facts to this JSON file

The last line of standard output is the result as one JSON object. The
command writes nothing into the source tree unless given a path.
Exit status: 0 when every correctness check passed, 1 when one failed,
2 on a usage error.";

/// Timed repetitions a workload makes at least, however short `--seconds`
/// is.
const MIN_REPS: usize = 5;
/// Set-ups in one timed set-up batch: one set-up takes microseconds, too
/// short to time alone on a shared host, so a batch of them (milliseconds)
/// is the unit `setup_s` takes its least-interfered minimum over.
const SETUP_BATCH: usize = 1024;
/// Set-up batches timed after every timed run, spread over the whole
/// measurement like the runs are.
const SETUP_BATCHES_PER_REP: usize = 2;
/// How far past `--seconds` the timed repetitions may run before they stop
/// early: a safety cap for a much slower commit, not a measurement length.
const OVERRUN_FACTOR: u32 = 4;
/// The longest any invocation keeps repeating, whatever `--seconds` says.
const MAX_MEASURE: Duration = Duration::from_secs(100);

struct Args {
    workload: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
    spans: Option<PathBuf>,
    out: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Option<Args>, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10u64;
    let mut trace = false;
    let mut spans = None;
    let mut out = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--help" || flag == "-h" {
            return Ok(None);
        }
        let value = match flag.as_str() {
            "--workload" | "--seed" | "--seconds" | "--trace" | "--spans" | "--out" => {
                it.next().ok_or_else(|| format!("{flag} needs a value"))?
            }
            other => return Err(format!("unknown argument {other:?}")),
        };
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Kind::parse(value).ok_or_else(bad)?),
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| bad())?;
                if !(1..=600).contains(&seconds) {
                    return Err(bad());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--spans" => spans = Some(PathBuf::from(value)),
            _ => out = Some(PathBuf::from(value)),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Some(Args {
        workload,
        seed,
        seconds,
        trace,
        spans,
        out,
    }))
}

/// A JSON string literal.
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// FNV-1a 64 of `s`, as 16 hex digits: a short name for a report.
fn digest(s: &str) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    format!("{h:016x}")
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The metrics of one invocation, in print order.
#[derive(Default)]
struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push((name.to_string(), value, unit));
    }

    fn to_json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json_string(name),
                    if value.is_finite() { *value } else { 0.0 },
                    json_string(unit)
                )
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// The correctness gate: every checked run, and what failed.
#[derive(Default)]
struct Gate {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    /// The serialized report (or figure tables) of the first run; every
    /// later run must reproduce it byte for byte.
    reference: Option<String>,
}

impl Gate {
    /// Records one run: `checks` is the run's own verdict, `output` what it
    /// simulated.
    fn run(&mut self, label: &str, checks: Result<(), String>, output: String) {
        self.attempted += 1;
        let verdict = checks.and_then(|()| match &self.reference {
            None => {
                self.reference = Some(output);
                Ok(())
            }
            Some(reference) if *reference == output => Ok(()),
            Some(reference) => Err(format!(
                "output {} differs from the first run's {}",
                digest(&output),
                digest(reference)
            )),
        });
        if let Err(why) = verdict {
            self.failed += 1;
            self.failures.push(format!("{label}: {why}"));
        }
    }

    fn digest(&self) -> String {
        self.reference.as_deref().map_or_else(String::new, digest)
    }
}

/// Everything one invocation measured.
#[derive(Default)]
struct Outcome {
    gate: Gate,
    metrics: Metrics,
    /// Human-readable lines printed before the result.
    notes: Vec<String>,
}

/// One timed simulation: set-up, then the run.
struct SimRep {
    segments: Segments,
    prepared: Prepared,
    report: RunReport,
}

fn sim_rep(plan: &SimPlan, spans: &mut Spans) -> SimRep {
    let rep = spans.enter("rep");
    let span = spans.enter("setup");
    let mut prepared = plan.setup();
    spans.exit(span);
    let span = spans.enter("run");
    let stamper = Stamper::start();
    let report = prepared.run(&stamper);
    let segments = stamper.finish();
    spans.exit(span);
    spans.exit(rep);
    SimRep {
        segments,
        prepared,
        report,
    }
}

fn gate_rep(gate: &mut Gate, plan: &SimPlan, label: &str, rep: &SimRep) {
    gate.run(
        label,
        rep.prepared.check(plan, &rep.report),
        rep.report.serialized(),
    );
}

/// One timed run of a task: its parts (the whole simulation, or one figure
/// harness each), each cut into segments.
type Run = Vec<Segments>;

/// The least-interfered wall and CPU seconds of each part of `runs`.
fn best_parts(runs: &[Run]) -> Vec<(f64, f64)> {
    let parts = runs.first().map_or(0, Vec::len);
    (0..parts)
        .map(|p| best_of_segments(runs.iter().map(|run| &run[p])))
        .collect()
}

/// The least-interfered wall and CPU seconds of the whole task.
fn best(runs: &[Run]) -> (f64, f64) {
    best_parts(runs)
        .into_iter()
        .fold((0.0, 0.0), |(w, c), (pw, pc)| (w + pw, c + pc))
}

/// The timed runs of one task, split by whether spans were on, and the
/// set-up batches.
#[derive(Default)]
struct Samples {
    untraced: Vec<Run>,
    traced: Vec<Run>,
    /// Mean seconds per set-up of each timed set-up batch.
    setup: Vec<f64>,
}

impl Samples {
    fn push(&mut self, traced: bool, run: Run) {
        if traced {
            self.traced.push(run);
        } else {
            self.untraced.push(run);
        }
    }

    /// The runs the reported figures come from: the traced ones in a
    /// traced run, the others otherwise.
    fn measured(&self, trace: bool) -> &[Run] {
        if trace {
            &self.traced
        } else {
            &self.untraced
        }
    }

    /// Times one batch of `SETUP_BATCH` calls of `setup`; what each call
    /// builds is dropped untimed.
    fn time_setup_batch<T>(&mut self, mut setup: impl FnMut() -> T) {
        let mut total = Duration::ZERO;
        for _ in 0..SETUP_BATCH {
            let t = Instant::now();
            let built = setup();
            total += t.elapsed();
            drop(built);
        }
        self.setup.push(total.as_secs_f64() / SETUP_BATCH as f64);
    }

    /// Least-interfered seconds of one set-up: the fastest batch's mean.
    fn setup_s(&self) -> f64 {
        self.setup.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Relative wall-time cost of tracing: traced over untraced
    /// least-interfered time, minus one.
    fn trace_overhead(&self) -> f64 {
        ratio(best(&self.traced).0, best(&self.untraced).0) - 1.0
    }

    /// Two lines on the spread of whole-run and set-up times.
    fn describe(&self, trace: bool) -> String {
        let totals: Vec<f64> = self
            .measured(trace)
            .iter()
            .map(|run| run.iter().map(Segments::total_wall).sum())
            .collect();
        let min = totals.iter().copied().fold(f64::INFINITY, f64::min);
        let max = totals.iter().copied().fold(0.0, f64::max);
        let setup_max = self.setup.iter().copied().fold(0.0, f64::max);
        format!(
            "whole-run wall time over {} runs: min {min:.4} median {:.4} max {max:.4} s; least-interfered {:.4} s\n\
             set-up time per batch of {SETUP_BATCH} over {} batches: min {:.3} median {:.3} max {:.3} us",
            totals.len(),
            median(&totals),
            best(self.measured(trace)).0,
            self.setup.len(),
            self.setup_s() * 1e6,
            median(&self.setup) * 1e6,
            setup_max * 1e6
        )
    }

    fn push_end_to_end(&self, metrics: &mut Metrics) {
        let (wall, cpu) = best(&self.untraced);
        metrics.push("task_wall_s", wall, "s");
        metrics.push("task_cpu_s", cpu, "s");
        metrics.push("setup_s", self.setup_s(), "s");
        metrics.push("peak_rss_mb", peak_rss_mib(), "MiB");
    }
}

fn measure_sim(plan: &SimPlan, args: &Args, spans: &mut Spans) -> Outcome {
    let mut out = Outcome::default();
    let mut samples = Samples::default();
    let budget = plan.budget() as f64;

    // One untimed warm-up run (still checked): it fixes the reference
    // report and lets the host allocator and caches settle.
    let warm = sim_rep(plan, spans);
    gate_rep(&mut out.gate, plan, "warm-up", &warm);
    // Every run simulates the same thing (the gate checks it), so one
    // run's failure count stands for all.
    let failed = warm.prepared.failed_accesses();
    drop(warm);

    // A fixed number of runs, so that every commit takes its
    // least-interfered minimum over the same sample size; the cap only
    // stops a commit far slower than the nominal cost.
    let planned = args.workload.reps(args.seconds).max(MIN_REPS);
    let cap = (Duration::from_secs(args.seconds) * OVERRUN_FACTOR).min(MAX_MEASURE);
    let start = Instant::now();
    let mut last_traced = None;
    let mut cells: Option<replay::LayerCells> = None;
    let mut reps = 0;
    while reps < planned && (reps < MIN_REPS || start.elapsed() < cap) {
        // The traced run alternates spans on and off, so the two halves
        // see the same host conditions, and replays the layer cells after
        // every traced run, so that their fastest batches are drawn from
        // the same stretch of time as the runs'.
        let traced = args.trace && reps % 2 == 1;
        spans.set_enabled(traced);
        let rep = sim_rep(plan, spans);
        gate_rep(&mut out.gate, plan, &format!("run {reps}"), &rep);
        samples.push(traced, vec![rep.segments.clone()]);
        for _ in 0..SETUP_BATCHES_PER_REP {
            samples.time_setup_batch(|| plan.setup());
        }
        if traced {
            last_traced = Some(rep);
            let replayed = replay::measure(plan, spans);
            match &mut cells {
                Some(best) => best.keep_fastest(&replayed),
                None => cells = Some(replayed),
            }
        }
        reps += 1;
    }
    spans.set_enabled(args.trace);

    if plan.processes > 1 {
        // Parallel stepping must not change a byte of the report.
        let serial = SimPlan {
            config: plan.config.clone().with_host_threads(1),
            ..plan.clone()
        };
        let rep = sim_rep(&serial, spans);
        gate_rep(&mut out.gate, &serial, "1 host thread", &rep);
    }

    let attempted = plan.memory_accesses();
    let (wall, cpu) = best(samples.measured(args.trace));
    let run = RunSummary {
        wall_s: wall,
        cpu_s: cpu,
        sim_mips: budget / wall / 1e6,
        cpu_mips: budget / cpu / 1e6,
        failed_accesses: failed,
        attempted_accesses: attempted,
        trace_overhead: samples.trace_overhead(),
    };
    out.notes.push(format!(
        "sim_mips {:.4} MIPS (higher is better)",
        run.sim_mips
    ));
    out.notes.push(format!(
        "cpu_mips {:.4} MIPS (higher is better)",
        run.cpu_mips
    ));
    out.notes.push(format!(
        "failed_access_share {:.6} ratio (lower is better): {failed} of {attempted} accesses failed",
        run.failed_share()
    ));
    out.notes.push(format!(
        "{reps} of {planned} planned timed runs of {} instructions{}",
        plan.budget(),
        if reps < planned {
            " (stopped at the safety cap)"
        } else {
            ""
        }
    ));
    out.notes.push(samples.describe(args.trace));
    if !args.trace {
        samples.push_end_to_end(&mut out.metrics);
        return out;
    }
    let rep = last_traced.expect("every other run is traced");
    let cells = cells.expect("every traced run replays the layer cells");
    push_layer_metrics(&mut out.metrics, &rep, &cells, &run);
    // The figure harnesses are too slow to repeat often enough for a
    // steady end-to-end time, so their layer is measured here instead.
    let (per_figure, figures_s) = if args.workload == Kind::GupsTlb {
        figure_layer(&mut out.gate, spans)
    } else {
        (Vec::new(), 0.0)
    };
    push_figure_metrics(&mut out.metrics, &per_figure, figures_s);
    out
}

/// The end-to-end view of a simulation workload's runs.
struct RunSummary {
    wall_s: f64,
    cpu_s: f64,
    sim_mips: f64,
    cpu_mips: f64,
    failed_accesses: u64,
    attempted_accesses: u64,
    trace_overhead: f64,
}

impl RunSummary {
    fn failed_share(&self) -> f64 {
        ratio(self.failed_accesses as f64, self.attempted_accesses as f64)
    }
}

/// Every per-layer metric of the simulation layers, with its unit, in
/// print order.
const SIM_LAYER_METRICS: [(&str, &str); 60] = [
    ("vm_workloads.ns_per_instr", "ns"),
    ("vm_workloads.mem_accesses", "count"),
    ("sim_core.app_instructions", "count"),
    ("sim_core.kernel_instructions", "count"),
    ("sim_core.kernel_share", "ratio"),
    ("sim_core.cycles", "cycles"),
    ("sim_core.sim_ipc", "instr/cycle"),
    ("sim_core.translation_stall_cycles", "cycles"),
    ("mmu_sim.translations", "count"),
    ("mmu_sim.l1_tlb_hit_ratio", "ratio"),
    ("mmu_sim.l2_tlb_mpki", "1/kinstr"),
    ("mmu_sim.walks", "count"),
    ("mmu_sim.walk_accesses_per_walk", "accesses/walk"),
    ("mmu_sim.translate_ns", "ns"),
    ("mmu_sim.walk_ns", "ns"),
    ("cache_sim.accesses", "count"),
    ("cache_sim.page_table_accesses", "count"),
    ("cache_sim.l1d_miss_ratio", "ratio"),
    ("cache_sim.l2_miss_ratio", "ratio"),
    ("cache_sim.llc_miss_ratio", "ratio"),
    ("cache_sim.access_ns", "ns"),
    ("cache_sim.page_table_access_ns", "ns"),
    ("dram_sim.reads", "count"),
    ("dram_sim.writes", "count"),
    ("dram_sim.row_conflicts", "count"),
    ("dram_sim.translation_conflicts", "count"),
    ("dram_sim.access_ns", "ns"),
    ("ssd_sim.reads", "count"),
    ("ssd_sim.writes", "count"),
    ("ssd_sim.mean_latency_ns", "ns"),
    ("ssd_sim.access_ns", "ns"),
    ("mimic_os.faults", "count"),
    ("mimic_os.minor_faults", "count"),
    ("mimic_os.swap_in_faults", "count"),
    ("mimic_os.reclaimed_pages", "count"),
    ("mimic_os.refault_ratio", "ratio"),
    ("mimic_os.swap_cache_hit_ratio", "ratio"),
    ("mimic_os.oom_failures", "count"),
    ("mimic_os.oom_reclaim_retries", "count"),
    ("mimic_os.buddy_allocs", "count"),
    ("mimic_os.buddy_frees", "count"),
    ("mimic_os.shootdown_ipis", "count"),
    ("mimic_os.fault_ns", "ns"),
    ("mimic_os.buddy_alloc_ns", "ns"),
    ("mimic_os.buddy_free_ns", "ns"),
    ("virtuoso.run_wall_s", "s"),
    ("virtuoso.run_cpu_s", "s"),
    ("virtuoso.cpu_per_wall", "ratio"),
    ("virtuoso.sim_mips", "MIPS"),
    ("virtuoso.cpu_mips", "MIPS"),
    ("virtuoso.failed_accesses", "count"),
    ("virtuoso.failed_access_share", "ratio"),
    ("virtuoso.epochs", "count"),
    ("virtuoso.instrs_per_epoch", "count"),
    ("virtuoso.context_switches", "count"),
    ("virtuoso.shootdown_batches", "count"),
    ("virtuoso.shootdown_pages", "count"),
    ("virtuoso.attributed_share", "ratio"),
    ("virtuoso.unattributed_ns_per_instr", "ns"),
    ("virtuoso.trace_overhead", "ratio"),
];

/// The per-layer metrics of a simulation workload: counts from the traced
/// run's own statistics, host times from the replay cells.
fn push_layer_metrics(m: &mut Metrics, rep: &SimRep, cells: &replay::LayerCells, run: &RunSummary) {
    let mut values: Vec<(&str, f64)> = Vec::with_capacity(SIM_LAYER_METRICS.len());
    let system = &rep.prepared.system;
    let report = rep.report.rollup();
    let cores = 0..system.num_cores();
    let app = report.instructions as f64;

    values.push(("vm_workloads.ns_per_instr", cells.frontend.ns_per_op()));
    values.push(("vm_workloads.mem_accesses", run.attempted_accesses as f64));

    let kernel = report.kernel_instructions as f64;
    // Cycles spent translating beyond the L1 TLB, which the report gives
    // in nanoseconds (the core models' own stall counter stays unused).
    let stall =
        (report.total_translation_ns * ratio(report.cycles as f64, report.total_time_ns)).round();
    values.push(("sim_core.app_instructions", app));
    values.push(("sim_core.kernel_instructions", kernel));
    values.push(("sim_core.kernel_share", ratio(kernel, app + kernel)));
    values.push(("sim_core.cycles", report.cycles as f64));
    values.push(("sim_core.sim_ipc", report.ipc));
    values.push(("sim_core.translation_stall_cycles", stall));

    let mmu_sum = |f: fn(&mmu_sim::MmuStats) -> u64| -> f64 {
        cores
            .clone()
            .map(|c| f(system.mmu_of(c).stats()))
            .sum::<u64>() as f64
    };
    let translations = mmu_sum(|s| s.translations.get());
    let walks = mmu_sum(|s| s.walks.get());
    values.push(("mmu_sim.translations", translations));
    values.push((
        "mmu_sim.l1_tlb_hit_ratio",
        ratio(mmu_sum(|s| s.l1_hits.get()), translations),
    ));
    values.push(("mmu_sim.l2_tlb_mpki", report.l2_tlb_mpki));
    values.push(("mmu_sim.walks", walks));
    values.push((
        "mmu_sim.walk_accesses_per_walk",
        ratio(mmu_sum(|s| s.walk_accesses.get()), walks),
    ));
    values.push(("mmu_sim.translate_ns", cells.translate_ns()));
    values.push(("mmu_sim.walk_ns", cells.walks.ns_per_op()));

    // `System` exposes no cache statistics: these come from the replay
    // cell's own hierarchy.
    values.push((
        "cache_sim.accesses",
        (cells.cache_data.ops + cells.cache_page_table.ops) as f64,
    ));
    values.push((
        "cache_sim.page_table_accesses",
        cells.cache_page_table.ops as f64,
    ));
    values.push(("cache_sim.l1d_miss_ratio", cells.l1d_miss_ratio));
    values.push(("cache_sim.l2_miss_ratio", cells.l2_miss_ratio));
    values.push(("cache_sim.llc_miss_ratio", cells.llc_miss_ratio));
    values.push(("cache_sim.access_ns", cells.cache_data.ns_per_op()));
    values.push((
        "cache_sim.page_table_access_ns",
        cells.cache_page_table.ns_per_op(),
    ));

    let dram = system.dram().stats();
    let dram_ops = (dram.reads.get() + dram.writes.get()) as f64;
    values.push(("dram_sim.reads", dram.reads.get() as f64));
    values.push(("dram_sim.writes", dram.writes.get() as f64));
    values.push(("dram_sim.row_conflicts", dram.conflicts() as f64));
    values.push((
        "dram_sim.translation_conflicts",
        dram.translation_metadata_conflicts() as f64,
    ));
    values.push(("dram_sim.access_ns", cells.dram.ns_per_op()));

    let os = system.os();
    let ssd = os.ssd().stats();
    let ssd_ops = ssd.total_requests() as f64;
    values.push(("ssd_sim.reads", ssd.reads.get() as f64));
    values.push(("ssd_sim.writes", ssd.writes.get() as f64));
    values.push(("ssd_sim.mean_latency_ns", ssd.mean_latency_ns()));
    values.push(("ssd_sim.access_ns", cells.ssd.ns_per_op()));

    let stats = os.stats();
    let swap = os.swap().stats();
    let buddy = os.buddy().stats();
    // Fault-handler calls: the faults it served plus the ones that failed.
    let faults = (stats.total_faults() + system.oom_failures()) as f64;
    let reclaimed = stats.reclaimed_pages.get() as f64;
    let swap_ins = stats.swap_in_faults.get() as f64;
    let swap_cache_hits = swap.swap_cache_hits.get() as f64;
    values.push(("mimic_os.faults", faults));
    values.push(("mimic_os.minor_faults", stats.minor_faults.get() as f64));
    values.push(("mimic_os.swap_in_faults", swap_ins));
    values.push(("mimic_os.reclaimed_pages", reclaimed));
    values.push(("mimic_os.refault_ratio", ratio(swap_ins, reclaimed)));
    values.push((
        "mimic_os.swap_cache_hit_ratio",
        ratio(
            swap_cache_hits,
            swap_cache_hits + swap.swap_ins.get() as f64,
        ),
    ));
    values.push(("mimic_os.oom_failures", system.oom_failures() as f64));
    values.push((
        "mimic_os.oom_reclaim_retries",
        stats.oom_reclaim_retries.get() as f64,
    ));
    values.push(("mimic_os.buddy_allocs", buddy.allocations.get() as f64));
    values.push(("mimic_os.buddy_frees", buddy.frees.get() as f64));
    values.push(("mimic_os.shootdown_ipis", stats.shootdown_ipis.get() as f64));
    values.push(("mimic_os.fault_ns", cells.faults.ns_per_op()));
    values.push(("mimic_os.buddy_alloc_ns", cells.buddy_alloc.ns_per_op()));
    values.push(("mimic_os.buddy_free_ns", cells.buddy_free.ns_per_op()));

    // Cross-check: the layer work the replay cells price, over the run's
    // CPU time. Buddy and walk times are not added: `handle_page_fault`
    // and `Mmu::translate` already contain them.
    let attributed_ns = app * cells.frontend.ns_per_op()
        + translations * cells.translate_ns()
        + cells.cache_data.ops as f64 * cells.cache_data.ns_per_op()
        + cells.cache_page_table.ops as f64 * cells.cache_page_table.ns_per_op()
        + dram_ops * cells.dram.ns_per_op()
        + ssd_ops * cells.ssd.ns_per_op()
        + faults * cells.faults.ns_per_op();
    let run_cpu_ns = run.cpu_s * 1e9;
    let epochs = system.epochs_run() as f64;
    let shootdowns = system.shootdown_stats();
    values.push(("virtuoso.run_wall_s", run.wall_s));
    values.push(("virtuoso.run_cpu_s", run.cpu_s));
    values.push(("virtuoso.cpu_per_wall", ratio(run.cpu_s, run.wall_s)));
    values.push(("virtuoso.sim_mips", run.sim_mips));
    values.push(("virtuoso.cpu_mips", run.cpu_mips));
    values.push(("virtuoso.failed_accesses", run.failed_accesses as f64));
    values.push(("virtuoso.failed_access_share", run.failed_share()));
    values.push(("virtuoso.epochs", epochs));
    values.push(("virtuoso.instrs_per_epoch", ratio(app, epochs)));
    values.push((
        "virtuoso.context_switches",
        system.context_switches() as f64,
    ));
    values.push(("virtuoso.shootdown_batches", shootdowns.batches as f64));
    values.push(("virtuoso.shootdown_pages", shootdowns.pages as f64));
    values.push((
        "virtuoso.attributed_share",
        ratio(attributed_ns, run_cpu_ns),
    ));
    values.push((
        "virtuoso.unattributed_ns_per_instr",
        ratio(run_cpu_ns - attributed_ns, app),
    ));
    values.push(("virtuoso.trace_overhead", run.trace_overhead));

    debug_assert_eq!(values.len(), SIM_LAYER_METRICS.len());
    push_sim_layers(m, &values);
}

/// Pushes every metric of `SIM_LAYER_METRICS`, in order, with its value
/// from `values` (zero when absent: the layer did no work).
fn push_sim_layers(m: &mut Metrics, values: &[(&str, f64)]) {
    for (name, unit) in SIM_LAYER_METRICS {
        let value = values
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |&(_, v)| v);
        m.push(name, value, unit);
    }
}

/// The `virtuoso_bench` layer: seconds per figure harness (zero on the
/// workloads that run none).
fn push_figure_metrics(m: &mut Metrics, per_figure_s: &[f64], figures_s: f64) {
    for (i, figure) in figures().iter().enumerate() {
        let s = per_figure_s.get(i).copied().unwrap_or(0.0);
        m.push(&format!("virtuoso_bench.{}_s", figure.name), s, "s");
    }
    m.push("virtuoso_bench.figures_s", figures_s, "s");
}

/// One traced pass over the 17 figure harnesses: one segment per harness,
/// and the tables with their host-time cells blanked (what the gate
/// compares).
fn figure_pass(spans: &mut Spans) -> (Run, String) {
    let pass = spans.enter("figures");
    let mut run = Run::new();
    let mut tables = String::new();
    for figure in &figures() {
        let span = spans.enter(figure.name);
        let mut stamps = Stamps::start();
        let table = (figure.run)();
        stamps.mark();
        spans.exit(span);
        run.push(stamps.segments());
        tables.push_str(&workload::comparable(&table));
    }
    spans.exit(pass);
    (run, tables)
}

/// The `virtuoso_bench` layer measured inside `gups-tlb`'s traced run: two
/// traced figure passes, checked against each other.
fn figure_layer(gate: &mut Gate, spans: &mut Spans) -> (Vec<f64>, f64) {
    let mut runs = Vec::new();
    let mut tables = Gate::default();
    for pass in 0..2 {
        let (run, output) = figure_pass(spans);
        runs.push(run);
        tables.run(&format!("figure pass {pass}"), Ok(()), output);
    }
    gate.attempted += tables.attempted;
    gate.failed += tables.failed;
    gate.failures.extend(tables.failures);
    let per_figure: Vec<f64> = best_parts(&runs)
        .into_iter()
        .map(|(wall, _)| wall)
        .collect();
    let total = per_figure.iter().sum();
    (per_figure, total)
}

fn default_spans_path(args: &Args) -> PathBuf {
    let dir =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    dir.join("perfbench").join(format!(
        "spans-{}-seed{}.json",
        args.workload.name(),
        args.seed
    ))
}

fn write_file(path: &PathBuf, contents: &str) -> std::io::Result<()> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, contents)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(Some(args)) => args,
        Ok(None) => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(why) => {
            eprintln!("perfbench: {why}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut host = HostFacts::begin();
    let mut spans = Spans::new(args.trace);
    let plan = SimPlan::new(args.workload, args.seed);
    println!(
        "perfbench workload={} seed={} seconds={} trace={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let outcome = measure_sim(&plan, &args, &mut spans);
    host.finish();

    let gate = &outcome.gate;
    let correct = gate.failed == 0;
    println!("host {}", host.to_json());
    for note in &outcome.notes {
        println!("{note}");
    }
    println!("report_digest {}", gate.digest());
    for failure in &gate.failures {
        println!("FAILED {failure}");
    }
    for (name, value, unit) in &outcome.metrics.0 {
        println!("{name} {value} {unit}");
    }
    if args.trace {
        let path = args
            .spans
            .clone()
            .unwrap_or_else(|| default_spans_path(&args));
        let json = spans.to_chrome_json(args.workload.name(), args.workload.id());
        match write_file(&path, &json) {
            Ok(()) => println!("spans {} written to {}", spans.len(), path.display()),
            Err(e) => {
                eprintln!("perfbench: cannot write {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
    }
    let result = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        gate.attempted,
        gate.failed,
        outcome.metrics.to_json()
    );
    if let Some(path) = &args.out {
        let record = format!(
            "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"report_digest\": {}, \"host\": {}, \"result\": {result}}}\n",
            json_string(args.workload.name()),
            args.seed,
            args.seconds,
            args.trace,
            json_string(&gate.digest()),
            host.to_json()
        );
        if let Err(e) = write_file(path, &record) {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    println!("{result}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
