//! Sustained-simulation-speed harness: measures simulated MIPS for the
//! catalog workloads in detailed and emulation modes and writes
//! `BENCH_simspeed.json` at the repository root (the perf trajectory every
//! PR is compared against).
//!
//! Usage:
//! `cargo run --release -p virtuoso_bench --bin simspeed -- [--quick]
//! [--ref-mips X] [--out PATH] [--engine LIST]`
//!
//! * `--quick` — CI smoke budget (small instruction counts).
//! * `--ref-mips X` — record `X` as the pre-optimization reference MIPS of
//!   the headline (GUPS detailed, page-table engine) cell and report the
//!   speedup against it.
//! * `--out PATH` — write the JSON somewhere else than the repo root.
//! * `--engine LIST` — comma-separated alternative engines to measure on
//!   the headline workload (`midgard,rmm,utopia`, the default; `none`
//!   skips the per-engine rows).
//! * `--cores LIST` — comma-separated multi-core cell sizes measured on
//!   the headline workload (`2,4`, the default; `none` skips the
//!   multi-core rows).
//! * `--threads LIST` — comma-separated host-thread counts each
//!   multi-core cell is measured at (values above a cell's core count
//!   are clamped). The default sweep is `1` and the cell's core count —
//!   the serial/parallel A/B pair.
//! * `--min-mips X` — exit non-zero if any measured cell sustains fewer
//!   than `X` simulated MIPS (the CI smoke-perf regression gate).
//! * `--instructions N` — override the per-cell instruction budget (A/B
//!   runs against older binaries should pass the same budget to both).

use virtuoso_bench::simspeed::{measure, render, SpeedOptions};

const USAGE: &str = "usage: simspeed [--quick] [--ref-mips X] [--out PATH] [--engine LIST]
                [--cores LIST] [--threads LIST] [--min-mips X] [--instructions N]

Measures simulated MIPS per cell and writes BENCH_simspeed.json at the
repository root (or at --out PATH). An unknown argument exits with
status 2 before any cell runs.";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let mut opts = if quick {
        SpeedOptions::quick()
    } else {
        SpeedOptions::full()
    };
    let mut out_path: Option<String> = None;
    let mut min_mips: Option<f64> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--ref-mips" => {
                opts.reference_mips = args
                    .get(i + 1)
                    .and_then(|s| s.parse().ok())
                    .expect("--ref-mips needs a number");
                i += 2;
            }
            "--instructions" => {
                opts.instructions = args
                    .get(i + 1)
                    .and_then(|s| s.parse().ok())
                    .expect("--instructions needs a number");
                i += 2;
            }
            "--min-mips" => {
                min_mips = Some(
                    args.get(i + 1)
                        .and_then(|s| s.parse().ok())
                        .expect("--min-mips needs a number"),
                );
                i += 2;
            }
            "--out" => {
                out_path = Some(args.get(i + 1).expect("--out needs a path").clone());
                i += 2;
            }
            "--engine" => {
                let list = args.get(i + 1).expect("--engine needs a list");
                opts.engines = if list == "none" {
                    Vec::new()
                } else {
                    list.split(',').map(str::to_string).collect()
                };
                i += 2;
            }
            "--cores" => {
                let list = args.get(i + 1).expect("--cores needs a list");
                opts.core_counts = if list == "none" {
                    Vec::new()
                } else {
                    list.split(',')
                        .map(|s| s.parse().expect("--cores needs numbers"))
                        .collect()
                };
                i += 2;
            }
            "--threads" => {
                let list = args.get(i + 1).expect("--threads needs a list");
                opts.host_threads = list
                    .split(',')
                    .map(|s| s.parse().expect("--threads needs numbers"))
                    .collect();
                i += 2;
            }
            "--quick" => i += 1,
            "--help" | "-h" => {
                println!("{USAGE}");
                return;
            }
            other => {
                eprintln!("simspeed: unknown argument {other:?}\n{USAGE}");
                std::process::exit(2);
            }
        }
    }

    let report = measure(&opts);
    print!("{}", render(&report));

    let path = out_path.unwrap_or_else(|| {
        // crates/bench/../../ == the repository root — when the binary
        // runs on the host it was built on. A copied binary (e.g. a CI
        // artifact) falls back to the current working directory.
        let repo_root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
        if std::path::Path::new(repo_root).is_dir() {
            format!("{repo_root}/BENCH_simspeed.json")
        } else {
            "BENCH_simspeed.json".to_string()
        }
    });
    let json = serde_json::to_string_pretty(&report).expect("serialize speed report");
    std::fs::write(&path, json + "\n").expect("write BENCH_simspeed.json");
    println!("wrote {path}");

    if let Some(floor) = min_mips {
        let slow = report.cells_below(floor);
        if !slow.is_empty() {
            for c in &slow {
                eprintln!(
                    "FAIL: {} / {} / {} ({} cores) sustained {:.3} MIPS, below the {floor} floor",
                    c.workload, c.mode, c.engine, c.cores, c.mips
                );
            }
            std::process::exit(1);
        }
        println!(
            "all {} cells at or above the {floor} MIPS floor",
            report.cells.len()
        );
    }
}
