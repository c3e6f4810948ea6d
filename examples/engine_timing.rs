//! Wall-clock engine timing on the designs `BENCH_sim_speed.json` records.
//!
//! Prints cycles/second for the Figure-1(d) and Figure-7(b) designs and for
//! two 256-stage synthetic pipelines (standard buffers, and zero-backward
//! buffers under a stalling sink), for the seed's full-sweep settle
//! (`SettleStrategy::FullSweep`, kept as the oracle: the "before" column),
//! the scalar event-driven engine, the compiled settle and the 64-lane
//! bit-parallel engine (lane numbers are **aggregate**
//! scenario-cycles/second: simulated cycles × 64 lanes / wall time). The
//! four engines are timed in interleaved rounds, so every ratio compares
//! runs made in the same host phase. A traced line times the Figure-1(d)
//! run on the event-driven engine with its trace recorded against the same
//! run without it. A final environment-sweep workload runs the same 2048
//! sink-back-pressure scenarios once through the scalar
//! `sweep::parallel_map_with` path and once through `sweep::lane_map` with
//! 64 scenarios per lane block — the ratio of those two aggregate numbers
//! is the headline lane-engine win recorded in `BENCH_sim_speed.json`. A generated-netlist case times the scalar and
//! 64-lane engines over a few designs of each `elastic-gen` preset, the
//! datapath-heavy mix the service verifies.
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
use elastic_gen::{generate, GenConfig};
use elastic_sim::sweep::{lane_map, parallel_map_with};
use elastic_sim::{LaneConfig, LaneSimulation, SettleStrategy, SimConfig, Simulation, LANES};

/// Best wall time of each run over `repeats` rounds, after a warm-up
/// round. The runs are interleaved within a round, so a ratio of two best
/// times compares runs made in the same host phase.
fn best_times(repeats: u32, runs: &mut [Box<dyn FnMut() + '_>]) -> Vec<f64> {
    let mut best = vec![f64::INFINITY; runs.len()];
    for round in 0..=repeats {
        for (run, best) in runs.iter_mut().zip(&mut best) {
            let start = Instant::now();
            run();
            if round > 0 {
                *best = best.min(start.elapsed().as_secs_f64());
            }
        }
    }
    best
}

/// One case's cycles/second: full sweep, event-driven and compiled scalar
/// engines (`SettleStrategy::Compiled` lowers the netlist once into a
/// straight-line plan of handshake halves and runs each once per cycle),
/// and the aggregate scenario-cycles/second of the 64-lane engine.
fn time_case(netlist: &Netlist, cycles: u64, repeats: u32) -> [f64; 4] {
    let scalar = |settle| -> Box<dyn FnMut() + '_> {
        let config = SimConfig { record_trace: false, settle };
        Box::new(move || drop(Simulation::new(netlist, &config).unwrap().run(cycles).unwrap()))
    };
    let quiet = LaneConfig { record_trace: false };
    let lanes = move || LaneSimulation::new(netlist, &quiet).unwrap().run(cycles).unwrap();
    let times = best_times(
        repeats,
        &mut [
            scalar(SettleStrategy::FullSweep),
            scalar(SettleStrategy::EventDriven),
            scalar(SettleStrategy::Compiled),
            Box::new(lanes),
        ],
    );
    let scenario_cycles = [1, 1, 1, LANES as u64].map(|lanes| (cycles * lanes) as f64);
    std::array::from_fn(|k| scenario_cycles[k] / times[k])
}

/// Aggregate cycles/second of the scalar event-driven engine and aggregate
/// scenario-cycles/second of the 64-lane engine over `netlists`, each
/// design built and run for `cycles` cycles per round.
fn time_designs(netlists: &[Netlist], cycles: u64, repeats: u32) -> [f64; 2] {
    let config = SimConfig { record_trace: false, settle: SettleStrategy::EventDriven };
    let quiet = LaneConfig { record_trace: false };
    let times = best_times(
        repeats,
        &mut [
            Box::new(|| {
                for netlist in netlists {
                    Simulation::new(netlist, &config).unwrap().run(cycles).unwrap();
                }
            }),
            Box::new(|| {
                for netlist in netlists {
                    LaneSimulation::new(netlist, &quiet).unwrap().run(cycles).unwrap();
                }
            }),
        ],
    );
    let scenario_cycles = [1, LANES as u64].map(|lanes| (cycles * lanes) as f64);
    std::array::from_fn(|k| scenario_cycles[k] * netlists.len() as f64 / times[k])
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
    let quiet = LaneConfig { record_trace: false };
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
/// quadratic SECDED parity loop allowed (0.02). The paper designs' lane
/// floors are the lane engine's 4x target over scalar or half their lower
/// measurement, whichever is higher: with the datapath evaluated by column
/// and the environments by word, fig1d measured 8.3x and 9.1x (floor 4.1),
/// fig7b 7.9x and 11.7x (half of 7.9 is below the target, so 4.0 stays).
/// With standard buffers storing their tokens by slot column, the
/// 256-stage standard pipeline measured 20.3x and 29.3x (floor 10.1).
/// With every controller planned as its two handshake halves, compiled
/// over scalar measured 1.59x and 1.51x on fig1d (floor 0.75) and 1.81x
/// and 1.90x on fig7b (floor 0.90).
const SWEEP_LANES_FLOOR: f64 = 8.8;
const CHAIN_COMPILED_FLOOR: f64 = 0.95;
const FIG1D_COMPILED_FLOOR: f64 = 0.75;
const FIG7B_COMPILED_FLOOR: f64 = 0.90;
const PIPELINE_LANES_FLOOR: f64 = 10.1;
const CHAIN_LANES_FLOOR: f64 = 4.1;
const FIG7B_OVER_FIG1D_FLOOR: f64 = 0.14;
const FIG1D_LANES_FLOOR: f64 = 4.1;
const FIG7B_LANES_FLOOR: f64 = 4.0;
const GENERATED_LANES_FLOOR: f64 = 4.8;

/// Generator seeds per preset, and cycles per design, of the
/// generated-netlist case.
const GENERATED_SEEDS: u64 = 4;
const GENERATED_CYCLES: u64 = 192;

struct Case {
    key: &'static str,
    design: &'static str,
    /// Full-sweep (the seed's settle algorithm) cycles/second.
    before: f64,
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
    let specs: [(&'static str, &'static str, &Netlist, u32); 4] = [
        ("fig1d", "Figure 1(d) speculative loop (paper design)", &fig1.netlist, 7),
        (
            "fig7b",
            "Figure 7(b) speculative SECDED resilient adder (paper design)",
            &fig7.netlist,
            5,
        ),
        (
            "pipeline256_standard",
            "256-stage pipeline of standard (fully registered) elastic buffers, ~770 nodes",
            &pipeline,
            5,
        ),
        (
            "comb_chain256_zero_backward",
            "256-stage chain of Lb=0 buffers with a stalling sink: stop/kill waves cross the \
             whole chain combinationally each cycle",
            &comb_chain,
            3,
        ),
    ];

    let mut cases = Vec::new();
    for (key, design, netlist, repeats) in specs {
        let [before, scalar, compiled, lanes] = time_case(netlist, cycles, repeats);
        println!(
            "{key:<28} full sweep {before:>10.0}   scalar {scalar:>10.0} cycles/s   compiled \
             {compiled:>10.0} ({:.1}x)   lanes {lanes:>11.0} scenario-cycles/s ({:.1}x aggregate)",
            compiled / scalar,
            lanes / scalar
        );
        cases.push(Case { key, design, before, scalar, compiled, lanes });
    }

    // The cost of recording the trace, on the event-driven engine.
    let fig1d_netlist = &fig1.netlist;
    let fig1d_run = |record_trace| -> Box<dyn FnMut() + '_> {
        let config = SimConfig { record_trace, settle: SettleStrategy::EventDriven };
        Box::new(move || {
            drop(Simulation::new(fig1d_netlist, &config).unwrap().run(cycles).unwrap())
        })
    };
    let times = best_times(7, &mut [fig1d_run(false), fig1d_run(true)]);
    let [untraced, traced] = [0, 1].map(|k| cycles as f64 / times[k]);
    println!(
        "{:<28} untraced {untraced:>10.0}   traced {traced:>10.0} cycles/s ({:.2}x)",
        "fig1d_with_trace",
        traced / untraced
    );

    // Generated netlists: the first seeds of the default, loops and
    // pipelines presets — function blocks with real datapaths, joins,
    // shared modules and seeded environments rather than the paper
    // designs' control loops.
    let generated: Vec<Netlist> = ["default", "loops", "pipelines"]
        .into_iter()
        .flat_map(|preset| {
            let config = GenConfig::preset(preset).expect("known preset");
            (0..GENERATED_SEEDS).map(move |seed| generate(seed, &config).netlist)
        })
        .collect();
    let [generated_scalar, generated_lanes] = time_designs(&generated, GENERATED_CYCLES, 7);
    let generated_ratio = generated_lanes / generated_scalar;
    println!(
        "generated_netlists           scalar {generated_scalar:>10.0} cycles/s   lanes \
         {generated_lanes:>11.0} scenario-cycles/s ({generated_ratio:.1}x aggregate)"
    );

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

    // The headline ratios, asserted at their floors, so a lane or compiled
    // slowdown — or a return of the quadratic SECDED datapath on fig7b —
    // fails the bench smoke instead of only moving a number.
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
        ("fig1d compiled/scalar", fig1d.compiled / fig1d.scalar, FIG1D_COMPILED_FLOOR),
        ("fig7b compiled/scalar", fig7b.compiled / fig7b.scalar, FIG7B_COMPILED_FLOOR),
        ("fig1d lanes/scalar", fig1d.lanes / fig1d.scalar, FIG1D_LANES_FLOOR),
        ("fig7b lanes/scalar", fig7b.lanes / fig7b.scalar, FIG7B_LANES_FLOOR),
        ("generated_netlists lanes/scalar", generated_ratio, GENERATED_LANES_FLOOR),
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
             --example engine_timing` (best of N interleaved rounds, 512 cycles per run). \
             'before' is the seed's Jacobi settle (SettleStrategy::FullSweep: a full sweep of \
             every controller per settle iteration, kept as the oracle), measured in the same \
             run; 'scalar' is the event-driven worklist engine; 'compiled' is the compiled \
             settle backend (SettleStrategy::Compiled: every controller's forward and \
             backward half once per cycle, in dataflow order, with no worklist); \
             'lanes' is the 64-lane bit-parallel engine in aggregate scenario-cycles/second \
             (cycles x 64 lanes / wall time), settling on the same plan. The \
             environment_sweep case runs 2048 enumerated sink back-pressure scenarios through \
             sweep::parallel_map_with (one scenario per run) vs sweep::lane_map (64 scenarios \
             per lane block), transfer-checksum-verified to compute identical results.\",\n",
        );
        json.push_str(
            "  \"hardware_note\": \"Container CPU; absolute numbers vary with the host, ratios \
             are the signal.\",\n",
        );
        json.push_str(
            "  \"compiled_note\": \"From measured layers. Settle effort (the reports' \
             settle_iterations and controller_evals over 512 cycles of these designs): the \
             compiled plan runs each of its ops once per cycle, 12 on fig1d (4 of them \
             whole-controller evals) and 28 on fig7b (4 evals), where the earlier plan, which \
             settled the ops behind the shared module with an op-level worklist, ran 15.5 op \
             executions per cycle on fig1d (5.5 evals) and 55 on fig7b (6 evals); the \
             event-driven engine evaluates 10 \
             and 25 whole controllers per cycle, each running both halves. That took \
             compiled over scalar from 0.90 to 1.5-1.6x on fig1d and from 0.69 to 1.7-1.9x on \
             fig7b. Datapath (perfbench --trace 1, handshake_control seed 1): fig7b's SECDED \
             encode, correct and syndrome take 25-55 ns per token with the mask tables (3-5.5 \
             us with the quadratic parity loop before them). The chain cases, whose settle \
             time is rail work in dataflow order, keep a 1.0-1.7x gain over the worklist \
             engine. The 64-lane engine settles on the same plan whenever the netlist has \
             one, and for throughput on many scenarios it stacks on top; engine_timing \
             asserts each headline ratio at a floor.\",\n",
        );
        json.push_str("  \"cases\": {\n");
        // Every scalar case is followed by the generated_netlists and
        // environment_sweep entries, so the separator is unconditional.
        for case in &cases {
            json.push_str(&format!(
                "    \"{}\": {{\n      \"design\": \"{}\",\n      \
                 \"before_cycles_per_sec\": {:.0},\n      \"scalar_cycles_per_sec\": {:.0},\n      \
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
                case.scalar / case.before,
                case.compiled / case.scalar,
                case.lanes / case.scalar,
            ));
        }
        json.push_str(&format!(
            "    \"generated_netlists\": {{\n      \"design\": \"seeds 0-{} of the default, loops \
             and pipelines generator presets, {GENERATED_CYCLES} cycles each, builds \
             included\",\n      \"scalar_cycles_per_sec\": {generated_scalar:.0},\n      \
             \"lane_scenario_cycles_per_sec\": {generated_lanes:.0},\n      \
             \"lane_aggregate_vs_scalar\": {generated_ratio:.2}\n    }},\n",
            GENERATED_SEEDS - 1
        ));
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
