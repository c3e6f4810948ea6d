//! Trace memory and exploration-sweep throughput measurements.
//!
//! Two measurements back `BENCH_trace_mem.json`:
//!
//! 1. **Trace bytes per cycle** — the columnar bit-packed trace
//!    (4 bit-planes + sparse width-adaptive data columns) against the dense
//!    `Vec<ChannelState>`-per-cycle layout it replaced (16 bytes per channel
//!    per cycle), on the Figure-1(d) design and on a 256-stage pipeline.
//! 2. **`verify_cost` sweep throughput** — `explore_environments` (one
//!    64-lane simulation build per worker thread, reset with 64 sink and
//!    source patterns per block and judged from its rail words as it runs)
//!    against the rebuild-per-run baseline it replaced (`netlist.clone()` +
//!    `Simulation::new` + `check_trace` per combination), reproduced inline
//!    below, on the Figure-1(d), Figure-7(b) and 256-stage pipeline designs.
//!
//! The trace sizes are deterministic, so each case asserts that it stays at
//! or below its recorded value. The sweep throughput depends on the host, so
//! the two paths are timed in interleaved rounds (each round runs both, so
//! their ratio compares runs made in the same host phase), and each case
//! only asserts the headline: the reset path beats the rebuild baseline.
//!
//! Run with `cargo run --release --example trace_mem`.

use std::time::Instant;

use elastic_core::kind::{BackpressurePattern, BufferSpec, SinkSpec, SourcePattern};
use elastic_core::library::{
    deep_pipeline, fig1d, resilient_speculative, Fig1Config, ResilientConfig,
};
use elastic_core::{Netlist, NodeKind};
use elastic_sim::sweep::parallel_map;
use elastic_sim::{SimConfig, Simulation, LANES};
use elastic_verify::exploration::{
    explore_environments, ExplorationOptions, MAX_EXHAUSTIVE_PATTERN_BITS,
};
use elastic_verify::properties::{check_trace, ProtocolOptions};

/// Measures one design's packed trace size and asserts that, at the two
/// decimals it is printed and recorded with, it stays at or below
/// `recorded`, its `after_bytes_per_cycle` in `BENCH_trace_mem.json` (the
/// size is a deterministic function of the design and the cycle count).
fn trace_memory_case(name: &str, netlist: &Netlist, cycles: u64, recorded: f64) {
    let mut sim = Simulation::new(netlist, &SimConfig::default()).unwrap();
    let report = sim.run(cycles).unwrap();
    let packed = report.trace_bytes_per_cycle();
    let dense = sim.trace().dense_bytes() as f64 / cycles as f64;
    println!(
        "{name:<22} {packed:>10.2} B/cycle packed {dense:>10.2} B/cycle dense  {:>6.1}x smaller",
        dense / packed
    );
    assert!(
        (packed * 100.0).round() / 100.0 <= recorded,
        "{name}: {packed:.2} packed bytes/cycle exceeds the recorded {recorded:.2}"
    );
}

/// The combinations `explore_environments` enumerates on `netlist`: the
/// whole sink and source pattern space, capped at `max_runs` lane blocks.
fn explored_runs(netlist: &Netlist, options: &ExplorationOptions) -> usize {
    let endpoints = netlist
        .live_nodes()
        .filter(|n| matches!(n.kind, NodeKind::Sink(_) | NodeKind::Source(_)))
        .count();
    let bits = (options.pattern_depth * endpoints).min(MAX_EXHAUSTIVE_PATTERN_BITS);
    (1usize << bits).min(options.max_runs.saturating_mul(LANES))
}

/// The rebuild-per-run environment enumeration that `explore_environments`
/// replaced, over the same combinations: clone the netlist, patch the sink and source specs, build a
/// fresh simulation — once per combination (same bit layout as the lane
/// sweep: sink stop bits first, then source withhold bits). Returns the
/// number of failing combinations (some designs legitimately fail under
/// adversarial environments; what matters here is that both paths agree).
fn explore_rebuild_baseline(netlist: &Netlist, options: &ExplorationOptions) -> usize {
    let sinks: Vec<_> = netlist
        .live_nodes()
        .filter(|n| matches!(n.kind, NodeKind::Sink(_)))
        .map(|n| n.id)
        .collect();
    let sources: Vec<_> = netlist
        .live_nodes()
        .filter(|n| matches!(n.kind, NodeKind::Source(_)))
        .map(|n| n.id)
        .collect();
    let runs: Vec<usize> = (0..explored_runs(netlist, options)).collect();
    let protocol = ProtocolOptions { check_liveness: false, ..ProtocolOptions::default() };
    let failures = parallel_map(&runs, |_, &combination| {
        let mut variant = netlist.clone();
        for (sink_index, sink) in sinks.iter().enumerate() {
            let mut pattern = Vec::with_capacity(options.pattern_depth);
            for cycle in 0..options.pattern_depth {
                let bit = sink_index * options.pattern_depth + cycle;
                pattern.push((combination >> bit) & 1 == 1);
            }
            if let Some(node) = variant.node_mut(*sink) {
                node.kind =
                    NodeKind::Sink(SinkSpec { backpressure: BackpressurePattern::List(pattern) });
            }
        }
        for (source_index, source) in sources.iter().enumerate() {
            let mut pattern = Vec::with_capacity(options.pattern_depth);
            for cycle in 0..options.pattern_depth {
                let bit = (sinks.len() + source_index) * options.pattern_depth + cycle;
                pattern.push((combination >> bit) & 1 == 0);
            }
            if let Some(node) = variant.node_mut(*source) {
                if let NodeKind::Source(spec) = &mut node.kind {
                    spec.pattern = SourcePattern::List(pattern);
                }
            }
        }
        let mut sim = Simulation::new(&variant, &SimConfig::default()).unwrap();
        sim.run(options.cycles_per_run).unwrap();
        check_trace(&variant, sim.trace(), &protocol).passed()
    });
    failures.into_iter().filter(|passed| !passed).count()
}

/// Best wall time of the rebuild baseline and of the reset sweep over
/// `repeats` rounds, after a warm-up round. The two run in turn within each
/// round, so their ratio compares runs made in the same host phase.
fn best_times(netlist: &Netlist, options: &ExplorationOptions, repeats: u32) -> [f64; 2] {
    let mut best = [f64::INFINITY; 2];
    for round in 0..=repeats {
        for (path, best) in best.iter_mut().enumerate() {
            let start = Instant::now();
            if path == 0 {
                explore_rebuild_baseline(netlist, options);
            } else {
                explore_environments(netlist, options).unwrap();
            }
            if round > 0 {
                *best = best.min(start.elapsed().as_secs_f64());
            }
        }
    }
    best
}

fn sweep_case(name: &str, netlist: &Netlist, options: &ExplorationOptions, repeats: u32) {
    let runs = explored_runs(netlist, options);
    // Sanity: the reset path reports exactly the counterexamples the
    // rebuild-per-run path finds.
    let baseline_failures = explore_rebuild_baseline(netlist, options);
    let verdict = explore_environments(netlist, options).unwrap();
    assert_eq!(baseline_failures, verdict.violations.len(), "paths must agree on {name}");

    let [rebuild, reset] = best_times(netlist, options, repeats);
    println!(
        "{name:<22} {:>10.0} runs/s rebuild {:>10.0} runs/s reset  {:>6.2}x faster",
        runs as f64 / rebuild,
        runs as f64 / reset,
        rebuild / reset
    );
    assert!(
        reset < rebuild,
        "{name}: the reset sweep ({reset:.4} s) must beat the rebuild baseline ({rebuild:.4} s)"
    );
}

fn main() {
    let fig1 = fig1d(&Fig1Config::default());
    let fig7 = resilient_speculative(&ResilientConfig {
        data_width: 32,
        operands: (0..512).collect(),
        error_masks: vec![0],
    });
    let pipeline = deep_pipeline(256, BufferSpec::standard(0), BackpressurePattern::Never);

    println!("== trace memory (512 traced cycles) ==");
    trace_memory_case("fig1d", &fig1.netlist, 512, 13.5);
    trace_memory_case("fig7b", &fig7.netlist, 512, 106.0);
    trace_memory_case("pipeline256_standard", &pipeline, 512, 892.5);

    println!("\n== environment-exploration sweep throughput ==");
    // The BENCH_trace_mem.json workload: a few hundred combinations of
    // 16-cycle bounded runs over each design's full sink + source space,
    // plus the 64-combination sweep over the 256-stage pipeline where the
    // per-run build cost the reset path eliminates is largest. Depths are
    // picked per design so both paths cover the identical full space.
    let fig1_options = ExplorationOptions {
        pattern_depth: 2, // 1 sink + 2 sources -> 64 combinations
        cycles_per_run: 16,
        max_runs: 256,
        random_scheduler_runs: 0,
        seed: 7,
    };
    sweep_case("fig1d", &fig1.netlist, &fig1_options, 5);
    let fig7_options = ExplorationOptions {
        pattern_depth: 4, // 1 sink + 2 sources -> 4096 combinations
        cycles_per_run: 16,
        max_runs: 256,
        random_scheduler_runs: 0,
        seed: 7,
    };
    sweep_case("fig7b", &fig7.netlist, &fig7_options, 3);
    let pipeline_options = ExplorationOptions {
        pattern_depth: 3, // 1 sink + 1 source -> 64 combinations
        cycles_per_run: 32,
        max_runs: 64,
        random_scheduler_runs: 0,
        seed: 7,
    };
    sweep_case("pipeline256_standard", &pipeline, &pipeline_options, 3);
}
