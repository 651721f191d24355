//! Host-side meters and facts: clocks, peak resident memory, and
//! the machine description recorded with every result.

/// `struct timespec` of the C library, as `clock_gettime` fills it.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

/// Clock ids of Linux.
const CLOCK_MONOTONIC: i32 = 1;
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

fn clock_ns(clock: i32) -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two `i64`s on
    // x86-64 and aarch64 Linux), and the clock id is a constant Linux
    // defines; `clock_gettime` writes only through the pointer it is given.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "both clocks are always available on Linux");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// CPU time consumed so far by every thread of this process, including
/// threads that have already exited (the parallel run loop's workers), in
/// nanoseconds.
pub fn process_cpu_ns() -> u64 {
    clock_ns(CLOCK_PROCESS_CPUTIME_ID)
}

/// Monotonic wall-clock time in nanoseconds.
pub fn monotonic_ns() -> u64 {
    clock_ns(CLOCK_MONOTONIC)
}

/// Peak resident set size of this process so far, in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    status_kib("VmHWM:").map_or(0.0, |kib| kib as f64 / 1024.0)
}

fn status_kib(key: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(key))?;
    line[key.len()..].split_whitespace().next()?.parse().ok()
}

/// The 1-minute load average, or -1 when `/proc/loadavg` is unreadable.
pub fn load_average() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(-1.0)
}

/// Facts about the machine a result was measured on.
#[derive(Debug, Clone)]
pub struct HostFacts {
    pub nproc: usize,
    pub cpu_model: String,
    pub load_before: f64,
    pub load_after: f64,
}

impl HostFacts {
    /// Records everything but the closing load average.
    pub fn begin() -> Self {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|info| {
                info.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        HostFacts {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model,
            load_before: load_average(),
            load_after: -1.0,
        }
    }

    /// Records the closing load average.
    pub fn finish(&mut self) {
        self.load_after = load_average();
    }

    /// The facts as one JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"nproc\": {}, \"cpu_model\": {}, \"loadavg_before\": {}, \"loadavg_after\": {}}}",
            self.nproc,
            crate::json_string(&self.cpu_model),
            self.load_before,
            self.load_after
        )
    }
}
