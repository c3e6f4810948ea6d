//! Simulator throughput: raw cycles per second of the SELF engine on the
//! paper's designs (not a paper figure — a regression guard for the
//! reproduction's own substrate, and the basis for sizing the sweeps).
//!
//! Besides the two paper designs, two large synthetic netlists expose the
//! difference between the event-driven worklist settle phase and the naive
//! full-sweep reference:
//!
//! * a 256-stage pipeline of **standard** (fully registered) elastic buffers
//!   — the full sweep converges in a constant number of sweeps here, so the
//!   gap is the constant-factor cost of re-evaluating all ~770 controllers
//!   per sweep;
//! * a 256-stage chain of **zero-backward-latency** (`Lb = 0`) buffers with
//!   a stalling sink — stop/kill waves traverse the whole chain
//!   combinationally, the full sweep needs O(depth) sweeps of O(nodes)
//!   evaluations per cycle, and the worklist engine's asymptotic win
//!   (work ∝ signal changes) becomes visible.
//!
//! `BENCH_sim_speed.json` in the repository root records measured baselines.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use elastic_bench::{criterion_config, print_experiment_header};
use elastic_core::kind::{BackpressurePattern, BufferSpec};
use elastic_core::library::{
    deep_pipeline, fig1d, resilient_speculative, Fig1Config, ResilientConfig,
};
use elastic_sim::{SettleStrategy, SimConfig, Simulation};

fn bench(c: &mut Criterion) {
    print_experiment_header("sim-speed", "simulator cycles/second on the speculative designs");
    let quiet = SimConfig { record_trace: false, ..SimConfig::default() };
    let quiet_sweep = SimConfig { record_trace: false, settle: SettleStrategy::FullSweep };

    let fig1 = fig1d(&Fig1Config::default());
    let fig7 = resilient_speculative(&ResilientConfig {
        data_width: 32,
        operands: (0..512).collect(),
        error_masks: vec![0],
    });
    let pipeline = deep_pipeline(256, BufferSpec::standard(0), BackpressurePattern::Never);
    let comb_chain = deep_pipeline(
        256,
        BufferSpec::zero_backward(0),
        BackpressurePattern::List(vec![true, false]),
    );
    let cycles = 512u64;

    let mut group = c.benchmark_group("sim_speed");
    group.throughput(Throughput::Elements(cycles));
    group.bench_function("fig1d_cycles", |b| {
        b.iter(|| Simulation::new(&fig1.netlist, &quiet).unwrap().run(cycles).unwrap())
    });
    group.bench_function("fig7b_cycles", |b| {
        b.iter(|| Simulation::new(&fig7.netlist, &quiet).unwrap().run(cycles).unwrap())
    });
    group.bench_function("fig1d_with_trace", |b| {
        b.iter(|| {
            Simulation::new(&fig1.netlist, &SimConfig::default()).unwrap().run(cycles).unwrap()
        })
    });
    group.bench_function("pipeline256_event_driven", |b| {
        b.iter(|| Simulation::new(&pipeline, &quiet).unwrap().run(cycles).unwrap())
    });
    group.bench_function("pipeline256_full_sweep", |b| {
        b.iter(|| Simulation::new(&pipeline, &quiet_sweep).unwrap().run(cycles).unwrap())
    });
    group.bench_function("comb_chain256_event_driven", |b| {
        b.iter(|| Simulation::new(&comb_chain, &quiet).unwrap().run(cycles).unwrap())
    });
    group.bench_function("comb_chain256_full_sweep", |b| {
        b.iter(|| Simulation::new(&comb_chain, &quiet_sweep).unwrap().run(cycles).unwrap())
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = criterion_config();
    targets = bench
}
criterion_main!(benches);
