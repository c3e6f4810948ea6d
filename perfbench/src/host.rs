//! Host speed, measured with a fixed piece of work the benchmark owns.
//!
//! On a shared virtual host the same work takes up to half as much CPU time
//! again while the neighbours are busy, in spells of seconds to minutes:
//! they contend for the physical core's caches and execution units, which
//! neither wall time nor CPU time leaves out. The benchmark therefore times
//! a fixed calibration kernel between the units of its paths and divides
//! each unit's time by the host's slowdown at that moment: the kernel's
//! recent CPU time over its CPU time on a quiet host. The kernel is the
//! benchmark's own code, so no change to the crates under test moves it.
//!
//! Over a 150 s `handshake_control` run on a 2-vCPU x86-64 virtual machine,
//! 15 s medians of the kernel's time and of the units' times relative to
//! their own medians correlated at 0.8 for the explore and service paths and
//! 0.5 for the gauntlet; dividing by the kernel cut the spread of those
//! medians by a quarter to two fifths.

use std::collections::{BTreeMap, VecDeque};
use std::hint::black_box;
use std::time::{Duration, Instant};

use crate::util::{cpu_timed, median, Rng};

/// Entries of the pointer chain: 32 KiB, the size of a design's node and
/// channel tables. Small enough that the kernel neither depends on nor
/// disturbs what the units before and after it left in the caches.
const CHAIN: usize = 1 << 13;
/// Steps of the chase per kernel run.
const CHASE_STEPS: usize = 100_000;
/// Map insertions per kernel run: allocation and branchy compares, like the
/// crates' maps of nodes and sink streams.
const MAP_INSERTS: u64 = 1_500;
/// CPU seconds of one kernel run on a quiet host (about its time on a 2-vCPU
/// x86-64 virtual machine). It only scales the reported figures.
const QUIET_KERNEL_S: f64 = 1.0e-3;
/// Kernel runs the current slowdown is the median of.
const WINDOW: usize = 7;
/// Least wall time between two kernel runs.
const INTERVAL: Duration = Duration::from_millis(25);

/// The calibration kernel and its recent timings.
pub struct Host {
    chain: Vec<u32>,
    recent: VecDeque<f64>,
    all: Vec<f64>,
    last: Option<Instant>,
}

impl Host {
    /// Builds the kernel's input (the same on every run) and takes a first
    /// window of samples.
    pub fn new() -> Host {
        // Sattolo's shuffle: one cycle through every entry.
        let mut chain: Vec<u32> = (0..CHAIN as u32).collect();
        let mut rng = Rng::new(0x686F_7374);
        for i in (1..CHAIN).rev() {
            let j = rng.range(0, i as u64 - 1) as usize;
            chain.swap(i, j);
        }
        let mut host = Host { chain, recent: VecDeque::new(), all: Vec::new(), last: None };
        // Warm-up: the first runs fault in the allocator's pages.
        for _ in 0..WINDOW {
            black_box(kernel(&host.chain));
        }
        for _ in 0..WINDOW {
            host.sample();
        }
        host
    }

    fn sample(&mut self) {
        let (t, h) = cpu_timed(|| kernel(&self.chain));
        black_box(h);
        if self.recent.len() == WINDOW {
            self.recent.pop_front();
        }
        self.recent.push_back(t);
        self.all.push(t);
        self.last = Some(Instant::now());
    }

    /// The host's slowdown now, against a quiet host: samples the kernel
    /// again if `INTERVAL` has passed since it last ran.
    pub fn slowdown(&mut self) -> f64 {
        if self.last.is_none_or(|last| last.elapsed() >= INTERVAL) {
            self.sample();
        }
        let recent: Vec<f64> = self.recent.iter().copied().collect();
        median(&recent) / QUIET_KERNEL_S
    }

    /// Median slowdown over every sample of the run, for the log.
    pub fn run_slowdown(&self) -> f64 {
        median(&self.all) / QUIET_KERNEL_S
    }
}

/// The fixed work: a dependent chase through a shuffled chain with a
/// data-dependent branch per step, then ordered-map insertions.
fn kernel(chain: &[u32]) -> u64 {
    let mut i = 0usize;
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for _ in 0..CHASE_STEPS {
        i = chain[i] as usize;
        h = (h ^ i as u64).wrapping_mul(0x0000_0100_0000_01B3);
        if h >> 62 == 0 {
            i = chain[(i + 1) % CHAIN] as usize;
        }
    }
    let mut map = BTreeMap::new();
    let mut rng = Rng::new(h);
    for k in 0..MAP_INSERTS {
        map.insert(rng.next_u64() & 0xFFF, k);
    }
    h ^ map.len() as u64
}
