//! Order statistics, process memory readings, and the metric type every
//! workload reports.

use std::time::Instant;

/// One named measurement with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// The `q`-quantile (0..=1) of `values` by nearest rank; NaN when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median of `values` (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

/// Seconds elapsed since `start`.
pub fn secs(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// Time `f`, returning its result and the wall seconds it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let value = f();
    (value, secs(start))
}

/// Run `f` `reps` times and return the last result with the median wall
/// seconds of one call.
pub fn median_timed<T>(reps: usize, mut f: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        let (value, seconds) = timed(&mut f);
        times.push(seconds);
        last = Some(value);
    }
    (last.expect("at least one repetition"), median(&times))
}

extern "C" {
    fn malloc_trim(pad: usize) -> i32;
}

/// Hand memory the allocator holds free back to the kernel, then reset
/// this process's peak resident set to its current one, so the next
/// [`self_peak_rss_mb`] covers what ran since on top of live data only.
/// A kernel without the control file leaves the lifetime peak in place.
pub fn reset_peak_rss() {
    // SAFETY: malloc_trim only walks the allocator's own free lists; it
    // takes no pointers and is safe to call from any thread at any time.
    unsafe {
        malloc_trim(0);
    }
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set of this process in MiB (`VmHWM`), or 0 when the
/// kernel does not report it.
pub fn self_peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// glibc's `cpu_set_t`: a 1024-bit CPU mask.
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

/// Moves the calling thread across the CPUs it may run on. The cores of a
/// shared host run at different speeds for minutes at a time, and a
/// single-threaded loop otherwise stays on one of them for a whole run;
/// rotating spreads its work over every core the way a two-thread
/// campaign does.
pub struct CpuRotation {
    allowed: CpuSet,
    cpus: Vec<usize>,
}

impl CpuRotation {
    /// The calling thread's current CPU mask (no rotation when it cannot be
    /// read).
    pub fn new() -> CpuRotation {
        let mut allowed: CpuSet = [0; 16];
        // SAFETY: `allowed` is a live, writable buffer of exactly the size
        // passed, so the kernel writes only inside it.
        let rc = unsafe { sched_getaffinity(0, size_of::<CpuSet>(), &mut allowed) };
        let cpus = if rc == 0 {
            (0..1024)
                .filter(|cpu| allowed[cpu / 64] & (1 << (cpu % 64)) != 0)
                .collect()
        } else {
            Vec::new()
        };
        CpuRotation { allowed, cpus }
    }

    /// Pin the calling thread to the `turn`-th allowed CPU, cyclically.
    pub fn pin(&self, turn: usize) {
        if self.cpus.len() < 2 {
            return;
        }
        let cpu = self.cpus[turn % self.cpus.len()];
        let mut mask: CpuSet = [0; 16];
        mask[cpu / 64] |= 1 << (cpu % 64);
        set_affinity(&mask);
    }

    /// Give the calling thread its original mask back.
    pub fn restore(&self) {
        if self.cpus.len() >= 2 {
            set_affinity(&self.allowed);
        }
    }
}

impl Default for CpuRotation {
    fn default() -> Self {
        CpuRotation::new()
    }
}

fn set_affinity(mask: &CpuSet) {
    // SAFETY: `mask` is a live buffer of exactly the size passed, which the
    // kernel only reads; a refused mask leaves the affinity unchanged.
    unsafe {
        sched_setaffinity(0, size_of::<CpuSet>(), mask);
    }
}

/// `struct rusage` as laid out by Linux on 64-bit targets: two `timeval`s
/// followed by fourteen `long`s, the first of which is `ru_maxrss`. Only
/// `maxrss` is read; the other fields exist for the layout.
#[repr(C)]
#[allow(dead_code)]
struct RUsage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
}

const RUSAGE_CHILDREN: i32 = -1;

/// Peak resident set in MiB of the largest child process this process has
/// waited for (0 before any child was reaped).
pub fn largest_child_peak_rss_mb() -> f64 {
    let mut usage = RUsage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `usage` is a live, writable value whose layout matches the
    // kernel's `struct rusage` on 64-bit Linux (repr(C), 18 eight-byte
    // fields), so getrusage writes only inside it.
    let rc = unsafe { getrusage(RUSAGE_CHILDREN, &mut usage) };
    if rc != 0 {
        return 0.0;
    }
    usage.maxrss as f64 / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_use_nearest_rank() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&values, 0.5), 50.0);
        assert_eq!(quantile(&values, 0.99), 99.0);
        assert_eq!(quantile(&values, 1.0), 100.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
