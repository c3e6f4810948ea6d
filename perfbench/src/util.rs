//! Small helpers: a seeded generator, order statistics, a failure tally and
//! the process's peak resident set.

use std::time::Instant;

/// SplitMix64: every workload input is derived from the benchmark seed
/// through this stream, so one seed always yields the same inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5EED_BE0C_4A11_D00D)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut x = self.0;
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }

    /// Uniform in `[lo, hi)`.
    pub fn float(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64 * (hi - lo)
    }
}

/// Seconds elapsed while running `f`, with its result.
pub fn timed<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let start = Instant::now();
    let result = f();
    (start.elapsed().as_secs_f64(), result)
}

/// CPU time of every thread of this process so far, in seconds
/// (`CLOCK_PROCESS_CPUTIME_ID`). On a shared virtual host it leaves out the
/// time the host gave this machine's CPUs to someone else (the kernel
/// subtracts steal time) and the time threads sat preempted, both of which
/// wall time counts.
pub fn cpu_seconds() -> f64 {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a live, writable timespec for the call's duration.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.sec as f64 + ts.nsec as f64 * 1e-9
}

/// Process CPU seconds spent while running `f`, with its result.
pub fn cpu_timed<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let start = cpu_seconds();
    let result = f();
    (cpu_seconds() - start, result)
}

/// The `q`-quantile by linear interpolation between order statistics.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of an empty sample");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let position = q * (sorted.len() - 1) as f64;
    let low = position.floor() as usize;
    let high = position.ceil() as usize;
    sorted[low] + (sorted[high] - sorted[low]) * (position - low as f64)
}

/// The Harrell–Davis estimate of the `q`-quantile: every order statistic
/// weighted by the Beta((n+1)q, (n+1)(1-q)) mass over its share of [0, 1].
/// It moves less from sample to sample than the one or two order
/// statistics [`quantile`] reads.
pub fn quantile_hd(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of an empty sample");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let (a, b) = ((n + 1) as f64 * q, (n + 1) as f64 * (1.0 - q));
    // The Beta density, unnormalised, integrated by the midpoint rule.
    const STEPS: usize = 1 << 14;
    let mut weights = vec![0.0; n];
    for step in 0..STEPS {
        let x = (step as f64 + 0.5) / STEPS as f64;
        let density = ((a - 1.0) * x.ln() + (b - 1.0) * (1.0 - x).ln()).exp();
        weights[(x * n as f64) as usize] += density;
    }
    let total: f64 = weights.iter().sum();
    weights.iter().zip(&sorted).map(|(w, v)| w * v).sum::<f64>() / total
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

/// Geometric mean, so that no single slow design hides the others.
pub fn geomean(values: &[f64]) -> f64 {
    assert!(values.iter().all(|v| *v > 0.0), "geometric mean of a non-positive value");
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len().max(1) as f64).exp()
}

/// Operations attempted and failed across the run. Every timed output is
/// checked; a mismatch counts as a failed operation and is reported on
/// standard error.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Counts one operation; `Err` marks it failed.
    pub fn check(&mut self, what: &str, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(reason) = outcome {
            self.failed += 1;
            if self.failed <= 20 {
                eprintln!("FAILED {what}: {reason}");
            }
        }
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .unwrap_or(f64::NAN)
}
