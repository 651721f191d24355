//! How the benchmark turns repeated runs into one task time.
//!
//! On a shared host, other tenants' load slows a run by up to 2x, and the
//! slowdown changes within milliseconds. Contention only ever adds time,
//! so the benchmark estimates a task's own cost as the least interfered
//! time: each run is cut into segments that cover the same slice of work
//! in every run, and the task time is the sum over segments of the fastest
//! run of that segment. A simulation run is cut every `STAMP_EVERY`
//! simulated instructions; a figure pass into its harnesses, which build
//! their own traces out of reach.

use crate::host::{monotonic_ns, process_cpu_ns};
use sim_core::{Instruction, TraceSource};
use std::cell::{Cell, RefCell};

/// Simulated instructions between two stamps of a simulation run (over
/// all of its processes).
pub const STAMP_EVERY: u64 = 8_192;

/// A wall-clock and a process-CPU reading, in nanoseconds.
type Stamp = (u64, u64);

fn now() -> Stamp {
    (monotonic_ns(), process_cpu_ns())
}

/// Clock readings taken during one run.
#[derive(Debug)]
pub struct Stamps(Vec<Stamp>);

impl Stamps {
    /// Starts a run: the first stamp.
    pub fn start() -> Self {
        Stamps(vec![now()])
    }

    pub fn mark(&mut self) {
        self.0.push(now());
    }

    /// The host time of each segment between consecutive stamps.
    pub fn segments(&self) -> Segments {
        let seconds = |from: u64, to: u64| to.saturating_sub(from) as f64 / 1e9;
        Segments {
            wall: self.0.windows(2).map(|w| seconds(w[0].0, w[1].0)).collect(),
            cpu: self.0.windows(2).map(|w| seconds(w[0].1, w[1].1)).collect(),
        }
    }
}

/// Host seconds of each segment of one run.
#[derive(Debug, Clone, Default)]
pub struct Segments {
    pub wall: Vec<f64>,
    pub cpu: Vec<f64>,
}

impl Segments {
    pub fn total_wall(&self) -> f64 {
        self.wall.iter().sum()
    }
}

/// Stamps the clocks every `STAMP_EVERY` instructions the run pulls from
/// any of its trace sources.
pub struct Stamper {
    countdown: Cell<u64>,
    stamps: RefCell<Stamps>,
}

impl Stamper {
    pub fn start() -> Self {
        Stamper {
            countdown: Cell::new(STAMP_EVERY),
            stamps: RefCell::new(Stamps::start()),
        }
    }

    /// Closes the run with a last stamp.
    pub fn finish(self) -> Segments {
        let mut stamps = self.stamps.into_inner();
        stamps.mark();
        stamps.segments()
    }

    /// `source`, stamping this clock as it is pulled.
    pub fn wrap<'a, T: TraceSource>(&'a self, source: &'a mut T) -> Stamped<'a, T> {
        Stamped {
            inner: source,
            stamper: self,
        }
    }
}

/// A trace source that ticks a [`Stamper`]; it passes every instruction
/// and the source's name through unchanged.
pub struct Stamped<'a, T> {
    inner: &'a mut T,
    stamper: &'a Stamper,
}

impl<T: TraceSource> TraceSource for Stamped<'_, T> {
    #[inline]
    fn next_instruction(&mut self) -> Option<Instruction> {
        let left = self.stamper.countdown.get() - 1;
        if left == 0 {
            self.stamper.stamps.borrow_mut().mark();
            self.stamper.countdown.set(STAMP_EVERY);
        } else {
            self.stamper.countdown.set(left);
        }
        self.inner.next_instruction()
    }

    fn name(&self) -> &str {
        self.inner.name()
    }

    fn expected_instructions(&self) -> Option<u64> {
        self.inner.expected_instructions()
    }
}

pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The least-interfered wall and CPU seconds of a task: per segment, the
/// fastest of `runs`, summed. Runs cut into different numbers of segments
/// (which a deterministic task never is) count as one segment each.
pub fn best_of_segments<'a>(runs: impl Iterator<Item = &'a Segments> + Clone) -> (f64, f64) {
    let mut lengths = runs.clone().map(|r| r.wall.len());
    let Some(len) = lengths.next() else {
        return (0.0, 0.0);
    };
    let aligned = lengths.all(|l| l == len);
    let best = |pick: fn(&Segments) -> &Vec<f64>| -> f64 {
        if aligned {
            (0..len)
                .map(|i| {
                    runs.clone()
                        .map(|r| pick(r)[i])
                        .fold(f64::INFINITY, f64::min)
                })
                .sum()
        } else {
            runs.clone()
                .map(|r| pick(r).iter().sum::<f64>())
                .fold(f64::INFINITY, f64::min)
        }
    };
    (best(|r| &r.wall), best(|r| &r.cpu))
}
