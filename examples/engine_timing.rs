//! Wall-clock engine timing on the `sim_speed` benchmark designs.
//!
//! Prints cycles/second for the Figure-1(d) and Figure-7(b) designs and for
//! the two 256-stage synthetic pipelines of `crates/bench/benches/sim_speed.rs`,
//! for both the scalar event-driven engine and the 64-lane bit-parallel
//! engine (lane numbers are **aggregate** scenario-cycles/second: simulated
//! cycles × 64 lanes / wall time). A final environment-sweep workload runs
//! the same 2048 sink-back-pressure scenarios once through the scalar
//! `sweep::parallel_map_with` path and once through `sweep::lane_map` with
//! 64 scenarios per lane block — the ratio of those two aggregate numbers is
//! the headline lane-engine win recorded in `BENCH_sim_speed.json`.
//!
//! The "before" numbers in `BENCH_sim_speed.json` were produced by compiling
//! this workload against the seed (pre-worklist) engine, with the
//! `deep_pipeline` builder inlined since the seed library predates it.
//!
//! Run with `cargo run --release --example engine_timing`; pass `--write`
//! (or set `ELASTIC_BENCH_WRITE=1`) to rewrite `BENCH_sim_speed.json` in
//! place from the fresh measurements.

use std::time::Instant;

use elastic_core::kind::{BackpressurePattern, BufferSpec, NodeKind};
use elastic_core::library::{
    deep_pipeline, fig1d, resilient_speculative, Fig1Config, ResilientConfig,
};
use elastic_core::{Netlist, NodeId};
use elastic_sim::sweep::{lane_map, parallel_map_with};
use elastic_sim::{LaneConfig, LaneSimulation, SettleStrategy, SimConfig, Simulation, LANES};

fn time_scalar(netlist: &Netlist, cycles: u64, repeats: u32) -> f64 {
    let quiet = SimConfig { record_trace: false, ..SimConfig::default() };
    // Warm-up.
    Simulation::new(netlist, &quiet).unwrap().run(cycles).unwrap();
    let mut best = f64::INFINITY;
    for _ in 0..repeats {
        let start = Instant::now();
        Simulation::new(netlist, &quiet).unwrap().run(cycles).unwrap();
        best = best.min(start.elapsed().as_secs_f64());
    }
    cycles as f64 / best
}

/// The compiled settle backend: the netlist is lowered once into a fused,
/// topologically-ordered micro-op plan; settling replays the plan with no
/// worklist and no per-eval dispatch (`SettleStrategy::Compiled`).
fn time_compiled(netlist: &Netlist, cycles: u64, repeats: u32) -> f64 {
    let quiet = SimConfig { record_trace: false, settle: SettleStrategy::Compiled };
    Simulation::new(netlist, &quiet).unwrap().run(cycles).unwrap();
    let mut best = f64::INFINITY;
    for _ in 0..repeats {
        let start = Instant::now();
        Simulation::new(netlist, &quiet).unwrap().run(cycles).unwrap();
        best = best.min(start.elapsed().as_secs_f64());
    }
    cycles as f64 / best
}

/// Aggregate lane throughput in scenario-cycles/second: every simulated
/// cycle advances all 64 lanes.
fn time_lanes(netlist: &Netlist, cycles: u64, repeats: u32) -> f64 {
    let quiet = LaneConfig { record_trace: false, ..LaneConfig::default() };
    LaneSimulation::new(netlist, &quiet).unwrap().run(cycles).unwrap();
    let mut best = f64::INFINITY;
    for _ in 0..repeats {
        let start = Instant::now();
        LaneSimulation::new(netlist, &quiet).unwrap().run(cycles).unwrap();
        best = best.min(start.elapsed().as_secs_f64());
    }
    (cycles as usize * LANES) as f64 / best
}

fn sink_of(netlist: &Netlist) -> NodeId {
    netlist
        .live_nodes()
        .find(|n| matches!(n.kind, NodeKind::Sink(_)))
        .map(|n| n.id)
        .expect("benchmark designs have a sink")
}

/// The enumerated environment of one sweep scenario: a 6-cycle sink
/// back-pressure pattern read off the scenario index bits (the same
/// encoding `elastic-verify`'s exploration uses).
fn scenario_pattern(scenario: usize) -> BackpressurePattern {
    BackpressurePattern::List((0..6).map(|bit| (scenario >> bit) & 1 == 1).collect())
}

/// The scalar side of the environment sweep: every scenario is one full
/// simulation run, fanned across worker threads with one resettable
/// simulation per worker. Returns aggregate scenario-cycles/second.
fn time_sweep_scalar(netlist: &Netlist, scenarios: usize, cycles: u64, repeats: u32) -> f64 {
    let quiet = SimConfig { record_trace: false, ..SimConfig::default() };
    let sink = sink_of(netlist);
    let indices: Vec<usize> = (0..scenarios).collect();
    let sweep = || {
        let transfers = parallel_map_with(
            &indices,
            || Simulation::new(netlist, &quiet).unwrap(),
            |sim, _, &scenario| {
                sim.reset_with_sink_patterns(&[(sink, scenario_pattern(scenario))]);
                sim.run(cycles).unwrap();
                sim.report().sink_transfers(sink)
            },
        );
        transfers.iter().sum::<u64>()
    };
    let reference = sweep(); // warm-up, and the checksum the lane sweep must match
    let mut best = f64::INFINITY;
    for _ in 0..repeats {
        let start = Instant::now();
        assert_eq!(sweep(), reference);
        best = best.min(start.elapsed().as_secs_f64());
    }
    (scenarios as u64 * cycles) as f64 / best
}

/// The lane side of the same sweep: 64 scenarios per lane block, one
/// resettable `LaneSimulation` per worker thread. Returns aggregate
/// scenario-cycles/second — and asserts the transfer checksum matches the
/// scalar sweep, so the speedup is measured on verified-identical work.
fn time_sweep_lanes(
    netlist: &Netlist,
    scenarios: usize,
    cycles: u64,
    repeats: u32,
    scalar_checksum: u64,
) -> f64 {
    let quiet = LaneConfig { record_trace: false, ..LaneConfig::default() };
    let sink = sink_of(netlist);
    let indices: Vec<usize> = (0..scenarios).collect();
    let sweep = || {
        let transfers = lane_map(
            &indices,
            || LaneSimulation::new(netlist, &quiet).unwrap(),
            |sim, _, block| {
                let patterns: Vec<BackpressurePattern> =
                    block.iter().map(|&scenario| scenario_pattern(scenario)).collect();
                sim.reset_with_lane_sink_patterns(&[(sink, patterns)]);
                sim.run(cycles).unwrap();
                block
                    .iter()
                    .enumerate()
                    .map(|(lane, _)| sim.report(lane).sink_transfers(sink))
                    .collect()
            },
        );
        transfers.iter().sum::<u64>()
    };
    assert_eq!(sweep(), scalar_checksum, "lane sweep must reproduce the scalar transfers");
    let mut best = f64::INFINITY;
    for _ in 0..repeats {
        let start = Instant::now();
        assert_eq!(sweep(), scalar_checksum);
        best = best.min(start.elapsed().as_secs_f64());
    }
    (scenarios as u64 * cycles) as f64 / best
}

/// Floors of the asserted ratios: half the lower of two measurements of
/// this engine on a 2-vCPU container (the second is the one recorded in
/// `BENCH_sim_speed.json`). The fig7b/fig1d floor is 7x the value the
/// quadratic SECDED parity loop allowed (0.02).
const SWEEP_LANES_FLOOR: f64 = 4.7;
const CHAIN_COMPILED_FLOOR: f64 = 0.95;
const PIPELINE_LANES_FLOOR: f64 = 1.95;
const CHAIN_LANES_FLOOR: f64 = 4.1;
const FIG7B_OVER_FIG1D_FLOOR: f64 = 0.14;

struct Case {
    key: &'static str,
    design: &'static str,
    /// Seed-engine cycles/second, carried over from the PR-1 measurement.
    before: u64,
    scalar: f64,
    compiled: f64,
    lanes: f64,
}

fn main() {
    let write = std::env::args().any(|arg| arg == "--write")
        || std::env::var("ELASTIC_BENCH_WRITE").is_ok_and(|v| v != "0");

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
    let specs: [(&'static str, &'static str, u64, &Netlist, u32); 4] = [
        ("fig1d", "Figure 1(d) speculative loop (paper design)", 1_422_669, &fig1.netlist, 7),
        (
            "fig7b",
            "Figure 7(b) speculative SECDED resilient adder (paper design)",
            11_014,
            &fig7.netlist,
            5,
        ),
        (
            "pipeline256_standard",
            "256-stage pipeline of standard (fully registered) elastic buffers, ~770 nodes",
            43_970,
            &pipeline,
            5,
        ),
        (
            "comb_chain256_zero_backward",
            "256-stage chain of Lb=0 buffers with a stalling sink: stop/kill waves cross the \
             whole chain combinationally each cycle",
            857,
            &comb_chain,
            3,
        ),
    ];

    let mut cases = Vec::new();
    for (key, design, before, netlist, repeats) in specs {
        let scalar = time_scalar(netlist, cycles, repeats);
        let compiled = time_compiled(netlist, cycles, repeats);
        let lanes = time_lanes(netlist, cycles, repeats);
        println!(
            "{key:<28} scalar {scalar:>12.0} cycles/s   compiled {compiled:>12.0} cycles/s \
             ({:.1}x)   lanes {lanes:>14.0} scenario-cycles/s   ({:.1}x aggregate)",
            compiled / scalar,
            lanes / scalar
        );
        cases.push(Case { key, design, before, scalar, compiled, lanes });
    }

    // Environment sweep: 2048 enumerated sink back-pressure scenarios on the
    // zero-backward chain (the all-word-native controller path), scalar
    // parallel_map_with vs 64-wide lane_map. Both sides use every worker
    // thread; the ratio isolates the word-level parallelism.
    let scenarios = 2048usize;
    let sweep_cycles = 192u64;
    let sweep_netlist = &comb_chain;
    let quiet = SimConfig { record_trace: false, ..SimConfig::default() };
    let sink = sink_of(sweep_netlist);
    let checksum: u64 = {
        let mut sim = Simulation::new(sweep_netlist, &quiet).unwrap();
        (0..scenarios)
            .map(|scenario| {
                sim.reset_with_sink_patterns(&[(sink, scenario_pattern(scenario))]);
                sim.run(sweep_cycles).unwrap();
                sim.report().sink_transfers(sink)
            })
            .sum()
    };
    let sweep_scalar = time_sweep_scalar(sweep_netlist, scenarios, sweep_cycles, 3);
    let sweep_lanes = time_sweep_lanes(sweep_netlist, scenarios, sweep_cycles, 3, checksum);
    let sweep_ratio = sweep_lanes / sweep_scalar;
    println!(
        "environment_sweep            scalar {sweep_scalar:>12.0} scenario-cycles/s   lanes \
         {sweep_lanes:>14.0} scenario-cycles/s   ({sweep_ratio:.1}x aggregate)"
    );

    // The headline ratios, asserted at half of what this engine recorded in
    // BENCH_sim_speed.json, so a lane or compiled slowdown — or a return of
    // the quadratic SECDED datapath on fig7b — fails the bench smoke instead
    // of only moving a number.
    let case = |key: &str| cases.iter().find(|case| case.key == key).expect("measured case");
    let (fig1d, fig7b) = (case("fig1d"), case("fig7b"));
    let (pipeline, chain) = (case("pipeline256_standard"), case("comb_chain256_zero_backward"));
    let floors = [
        ("environment_sweep lanes/scalar", sweep_ratio, SWEEP_LANES_FLOOR),
        (
            "comb_chain256_zero_backward compiled/scalar",
            chain.compiled / chain.scalar,
            CHAIN_COMPILED_FLOOR,
        ),
        (
            "pipeline256_standard lanes/scalar",
            pipeline.lanes / pipeline.scalar,
            PIPELINE_LANES_FLOOR,
        ),
        ("comb_chain256_zero_backward lanes/scalar", chain.lanes / chain.scalar, CHAIN_LANES_FLOOR),
        ("fig7b/fig1d scalar cycles/s", fig7b.scalar / fig1d.scalar, FIG7B_OVER_FIG1D_FLOOR),
    ];
    for (what, ratio, floor) in floors {
        assert!(ratio >= floor, "{what} is {ratio:.2}, below its floor {floor}");
    }

    if write {
        let mut json = String::new();
        json.push_str("{\n");
        json.push_str("  \"benchmark\": \"sim_speed\",\n");
        json.push_str(
            "  \"description\": \"SELF engine throughput, measured with `cargo run --release \
             --example engine_timing` (best of N runs, 512 cycles per run). 'before' is the seed \
             Jacobi engine (full sweep of every controller per settle iteration, commit 9d9d7ae); \
             'scalar' is the event-driven worklist engine; 'compiled' is the fused compiled \
             settle backend (SettleStrategy::Compiled: one monomorphic micro-op plan replayed \
             per cycle, no worklist, no per-eval dispatch); 'lanes' is the 64-lane bit-parallel \
             engine in aggregate scenario-cycles/second (cycles x 64 lanes / wall time). The \
             environment_sweep case runs 2048 enumerated sink back-pressure scenarios through \
             sweep::parallel_map_with (one scenario per run) vs sweep::lane_map (64 scenarios \
             per lane block), transfer-checksum-verified to compute identical results.\",\n",
        );
        json.push_str(
            "  \"hardware_note\": \"Container CPU; absolute numbers vary with the host, ratios \
             are the signal.\",\n",
        );
        json.push_str(
            "  \"compiled_note\": \"From measured layers (perfbench --trace 1, \
             handshake_control seed 1): fig7b's ceiling was SECDED evaluation, not dispatch — \
             encode, correct and syndrome each took 3-5.5 us per token \
             (datapath.secded_*_ns) with the quadratic parity loop and take 25-55 ns with \
             the mask tables, which moved \
             fig7b from 0.02x to 0.3-0.45x of fig1d's scalar cycles/s across runs. With the \
             datapath cheap, the compiled plan's trailing Jacobi sweeps re-run every op of \
             fig7b's 16-op rail-cycle segment (SECDED function blocks included) on every \
             sweep, where the event-driven engine re-evaluates only woken controllers, and \
             its fused ops call the shared handshake equations through a port view on the \
             node's ports; together that puts compiled at 0.7-0.8x of scalar on both paper \
             designs. The chain cases, whose settle time is fused rail work in an acyclic \
             prefix, keep a ~2x gain over the worklist engine. For throughput on many \
             scenarios the 64-lane engine stacks on top; engine_timing asserts each headline \
             ratio at half its measured value.\",\n",
        );
        json.push_str("  \"cases\": {\n");
        // Every scalar case is followed by the environment_sweep entry, so
        // the separator is unconditional.
        for case in &cases {
            json.push_str(&format!(
                "    \"{}\": {{\n      \"design\": \"{}\",\n      \
                 \"before_cycles_per_sec\": {},\n      \"scalar_cycles_per_sec\": {:.0},\n      \
                 \"compiled_cycles_per_sec\": {:.0},\n      \
                 \"lane_scenario_cycles_per_sec\": {:.0},\n      \
                 \"scalar_speedup_vs_seed\": {:.2},\n      \
                 \"compiled_vs_scalar\": {:.2},\n      \
                 \"lane_aggregate_vs_scalar\": {:.2}\n    }},\n",
                case.key,
                case.design,
                case.before,
                case.scalar,
                case.compiled,
                case.lanes,
                case.scalar / case.before as f64,
                case.compiled / case.scalar,
                case.lanes / case.scalar,
            ));
        }
        json.push_str(&format!(
            "    \"environment_sweep\": {{\n      \"design\": \"2048 enumerated sink \
             back-pressure scenarios x {sweep_cycles} cycles on the 256-stage zero-backward \
             chain\",\n      \"scalar_scenario_cycles_per_sec\": {sweep_scalar:.0},\n      \
             \"lane_scenario_cycles_per_sec\": {sweep_lanes:.0},\n      \
             \"lane_aggregate_vs_scalar\": {sweep_ratio:.2}\n    }}\n"
        ));
        json.push_str("  }\n}\n");
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_sim_speed.json");
        std::fs::write(path, json).unwrap();
        println!("wrote {path}");
    }
}
