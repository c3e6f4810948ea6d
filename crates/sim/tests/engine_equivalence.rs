//! Engine equivalence: the event-driven worklist settle phase must be
//! observationally identical to the naive full-sweep reference on every
//! paper scenario — bit-identical traces and reports, with strictly fewer
//! controller evaluations. The compiled settle backend
//! ([`SettleStrategy::Compiled`]) joins the same matrix: same traces, same
//! reports, and never more whole-controller evaluations than the
//! event-driven engine. Which designs get a plan, and what a plan costs per
//! cycle, is pinned here too.

use elastic_core::library;
use elastic_core::{Netlist, NodeId};
use elastic_sim::scenarios::{build_fig1, Fig1Scenario, Fig1Variant};
use elastic_sim::{
    LaneConfig, LaneSimulation, SettleStrategy, SimConfig, Simulation, SimulationReport, LANES,
};

fn run_with(
    netlist: &Netlist,
    strategy: SettleStrategy,
    cycles: u64,
) -> (Simulation, SimulationReport) {
    let config = SimConfig { settle: strategy, ..SimConfig::default() };
    let mut sim = Simulation::new(netlist, &config).expect("paper netlists simulate");
    let report = sim.run(cycles).expect("paper netlists settle");
    (sim, report)
}

/// Runs `netlist` under all three settle strategies and asserts equivalence
/// of everything observable: the full per-cycle per-channel trace and every
/// behavioural report field ([`SimulationReport::behavioural_difference`]).
fn assert_engines_equivalent(name: &str, netlist: &Netlist, cycles: u64) {
    let (event_sim, event_report) = run_with(netlist, SettleStrategy::EventDriven, cycles);
    let (sweep_sim, sweep_report) = run_with(netlist, SettleStrategy::FullSweep, cycles);
    let (compiled_sim, compiled_report) = run_with(netlist, SettleStrategy::Compiled, cycles);

    // The packed stores must be identical as a whole …
    assert_eq!(event_sim.trace(), sweep_sim.trace(), "{name}: traces must be bit-identical");
    assert_eq!(
        event_sim.trace(),
        compiled_sim.trace(),
        "{name}: compiled trace must be bit-identical"
    );
    // … and decode to the same signals cycle for cycle against the FullSweep
    // oracle, which exercises the bit-plane/data-column decoding paths.
    assert_eq!(event_sim.trace().len(), cycles as usize, "{name}: every cycle recorded");
    for cycle in 0..event_sim.trace().len() {
        let packed: Vec<_> = event_sim.trace().states_at(cycle).expect("recorded").collect();
        let oracle: Vec<_> = sweep_sim.trace().states_at(cycle).expect("recorded").collect();
        assert_eq!(packed, oracle, "{name}: cycle {cycle} decodes identically");
    }
    for (strategy, report) in [("full-sweep", &sweep_report), ("compiled", &compiled_report)] {
        assert_eq!(
            event_report.behavioural_difference(report),
            None,
            "{name}/{strategy}: the report differs from the event-driven engine's"
        );
    }
    assert!(
        event_report.controller_evals < sweep_report.controller_evals,
        "{name}: the worklist engine must do strictly less work \
         (event-driven {} evals vs full-sweep {})",
        event_report.controller_evals,
        sweep_report.controller_evals
    );
    assert!(
        compiled_report.controller_evals <= event_report.controller_evals,
        "{name}: splitting controllers into halves must never add evals \
         (compiled {} evals vs event-driven {})",
        compiled_report.controller_evals,
        event_report.controller_evals
    );
}

/// The lane-0 contract, broadcast form: a 64-lane simulation whose lanes
/// all see the default environment must reproduce the scalar EventDriven
/// engine bit-identically **in every lane** — trace and report.
fn assert_lane_broadcast_identity(name: &str, netlist: &Netlist, cycles: u64) {
    let (scalar_sim, scalar_report) = run_with(netlist, SettleStrategy::EventDriven, cycles);
    let mut lane_sim =
        LaneSimulation::new(netlist, &LaneConfig::default()).expect("paper netlists simulate");
    lane_sim.run(cycles).expect("paper netlists settle");

    for lane in 0..LANES {
        assert_eq!(
            lane_sim.trace(lane),
            scalar_sim.trace(),
            "{name}: lane {lane} trace must be bit-identical to the scalar engine"
        );
        assert_eq!(
            lane_sim.report(lane).behavioural_difference(&scalar_report),
            None,
            "{name}: lane {lane} report differs from the scalar engine's"
        );
    }
}

fn sink_ids(netlist: &Netlist) -> Vec<NodeId> {
    netlist.live_nodes().filter(|n| n.kind.kind_name() == "sink").map(|n| n.id).collect()
}

#[test]
fn all_fig1_variants_are_engine_equivalent() {
    for variant in Fig1Variant::all() {
        let scenario = Fig1Scenario { variant, cycles: 400, ..Fig1Scenario::default() };
        let handles = build_fig1(&scenario);
        assert_engines_equivalent(variant.label(), &handles.netlist, scenario.cycles);
    }
}

#[test]
fn fig1d_speculation_is_engine_equivalent_across_select_biases() {
    for (taken_rate, seed) in [(0.05, 3u64), (0.5, 9), (0.95, 17)] {
        let scenario = Fig1Scenario {
            variant: Fig1Variant::Speculation,
            taken_rate,
            cycles: 300,
            seed,
            ..Fig1Scenario::default()
        };
        let handles = build_fig1(&scenario);
        assert_engines_equivalent(
            &format!("fig1d taken_rate={taken_rate}"),
            &handles.netlist,
            scenario.cycles,
        );
    }
}

#[test]
fn the_table1_trace_is_engine_equivalent() {
    let handles = library::table1();
    assert_engines_equivalent("table1", &handles.netlist, 64);
}

#[test]
fn the_resilient_speculative_design_is_engine_equivalent() {
    for (upset, seed) in [(0u64, 7u64), (0x10, 13)] {
        let config = library::ResilientConfig {
            data_width: 32,
            operands: (1..200).collect(),
            error_masks: vec![0, upset, 0, 0, upset, 0],
        };
        let handles = library::resilient_speculative(&config);
        assert_engines_equivalent(&format!("fig7b seed={seed}"), &handles.netlist, 200);
    }
}

#[test]
fn a_deep_zero_backward_chain_is_engine_equivalent() {
    // The asymptotic-win case of the sim_speed bench: stop/kill waves cross
    // 64 Lb=0 buffers combinationally under a stalling sink, so the worklist
    // pops nodes far outside the seeded rank order.
    use elastic_core::kind::{BackpressurePattern, BufferSpec};

    let n = library::deep_pipeline(
        64,
        BufferSpec::zero_backward(0),
        BackpressurePattern::List(vec![true, false, false, true]),
    );
    assert_engines_equivalent("zb-chain64", &n, 300);
}

/// The lazy-fork-behind-a-join regression netlist (found by the
/// elastic-gen differential fuzzer — see the test below), also reused by
/// the lane-broadcast oracle because it exercises the optimistic two-pass.
fn lazy_fork_regression_netlist() -> Netlist {
    use elastic_core::kind::{ForkSpec, FunctionSpec, SinkSpec, SourceSpec};
    use elastic_core::{Op, Port};

    let mut n = Netlist::new("lazy_fork_regression");
    let src = n.add_source("src", SourceSpec::always());
    let fork = n.add_fork("fork", ForkSpec::lazy(3));
    let f = n.add_function("f", FunctionSpec::with_inputs(Op::Inc, 1));
    let s0 = n.add_sink("s0", SinkSpec::always_ready());
    let s1 = n.add_sink("s1", SinkSpec::always_ready());
    let s2 = n.add_sink("s2", SinkSpec::always_ready());
    n.connect(Port::output(src, 0), Port::input(fork, 0), 8).unwrap();
    n.connect(Port::output(fork, 0), Port::input(f, 0), 8).unwrap();
    n.connect(Port::output(f, 0), Port::input(s0, 0), 8).unwrap();
    n.connect(Port::output(fork, 1), Port::input(s1, 0), 8).unwrap();
    n.connect(Port::output(fork, 2), Port::input(s2, 0), 8).unwrap();
    n
}

#[test]
fn a_lazy_fork_behind_a_join_settles_under_both_engines() {
    // Regression (found by the elastic-gen differential fuzzer): the lazy
    // fork's eval used to write its branch valids twice per call — once
    // optimistically, once gated by all-branches-ready. The full-sweep
    // engine's convergence test counts every write, so a lazy fork whose
    // consumer stops it oscillated forever and was misreported as a
    // combinational loop, while the worklist engine (which terminates on
    // worklist drain) settled fine.
    assert_engines_equivalent("lazy-fork-join", &lazy_fork_regression_netlist(), 100);
}

#[test]
fn the_variable_latency_designs_are_engine_equivalent() {
    let config = library::VarLatencyConfig {
        width: 8,
        spec_bits: 4,
        operands_a: (0..160).map(|i| i * 7 % 251).collect(),
        operands_b: (0..160).map(|i| i * 13 % 241).collect(),
        ..library::VarLatencyConfig::default()
    };
    let stalling = library::variable_latency_stalling(&config);
    assert_engines_equivalent("fig6a", &stalling.netlist, 150);
    let speculative = library::variable_latency_speculative(&config);
    assert_engines_equivalent("fig6b", &speculative.netlist, 150);
}

// ---------------------------------------------------------------------------
// 64-lane engine: the lane-0 / broadcast bit-identity contract
// ---------------------------------------------------------------------------

#[test]
fn all_fig1_variants_are_lane_broadcast_identical() {
    for variant in Fig1Variant::all() {
        let scenario = Fig1Scenario { variant, cycles: 400, ..Fig1Scenario::default() };
        let handles = build_fig1(&scenario);
        assert_lane_broadcast_identity(variant.label(), &handles.netlist, scenario.cycles);
    }
}

#[test]
fn fig1d_speculation_is_lane_broadcast_identical_across_select_biases() {
    for (taken_rate, seed) in [(0.05, 3u64), (0.5, 9), (0.95, 17)] {
        let scenario = Fig1Scenario {
            variant: Fig1Variant::Speculation,
            taken_rate,
            cycles: 300,
            seed,
            ..Fig1Scenario::default()
        };
        let handles = build_fig1(&scenario);
        assert_lane_broadcast_identity(
            &format!("fig1d taken_rate={taken_rate}"),
            &handles.netlist,
            scenario.cycles,
        );
    }
}

#[test]
fn the_remaining_paper_designs_are_lane_broadcast_identical() {
    let handles = library::table1();
    assert_lane_broadcast_identity("table1", &handles.netlist, 64);

    let config = library::ResilientConfig {
        data_width: 32,
        operands: (1..200).collect(),
        error_masks: vec![0, 0x10, 0, 0, 0x10, 0],
    };
    let handles = library::resilient_speculative(&config);
    assert_lane_broadcast_identity("fig7b", &handles.netlist, 200);

    let config = library::VarLatencyConfig {
        width: 8,
        spec_bits: 4,
        operands_a: (0..160).map(|i| i * 7 % 251).collect(),
        operands_b: (0..160).map(|i| i * 13 % 241).collect(),
        ..library::VarLatencyConfig::default()
    };
    let stalling = library::variable_latency_stalling(&config);
    assert_lane_broadcast_identity("fig6a", &stalling.netlist, 150);
    let speculative = library::variable_latency_speculative(&config);
    assert_lane_broadcast_identity("fig6b", &speculative.netlist, 150);
}

#[test]
fn structural_stress_designs_are_lane_broadcast_identical() {
    use elastic_core::kind::{BackpressurePattern, BufferSpec};

    let n = library::deep_pipeline(
        64,
        BufferSpec::zero_backward(0),
        BackpressurePattern::List(vec![true, false, false, true]),
    );
    assert_lane_broadcast_identity("zb-chain64", &n, 300);

    assert_lane_broadcast_identity("lazy-fork-join", &lazy_fork_regression_netlist(), 100);
}

/// Deterministic per-lane sink pattern: six stop/go bits derived from the
/// lane index (lane 0 keeps the default always-ready environment, so the
/// lane every other lane is compared with is the unperturbed run).
fn lane_pattern(lane: usize) -> elastic_core::kind::BackpressurePattern {
    let bits = (lane as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 58;
    elastic_core::kind::BackpressurePattern::List(
        (0..6).map(|i| lane != 0 && bits & (1 << i) != 0).collect(),
    )
}

/// The designs the broadcast tests cover, with their cycle counts: the
/// per-lane environment tests run each of them, since only distinct lanes
/// can see a lane-index slip in a controller's per-lane state (a broadcast
/// run cannot).
fn lane_designs() -> Vec<(String, Netlist, u64)> {
    use elastic_core::kind::{BackpressurePattern, BufferSpec};

    let mut designs: Vec<(String, Netlist, u64)> = Fig1Variant::all()
        .into_iter()
        .map(|variant| {
            let scenario = Fig1Scenario { variant, cycles: 400, ..Fig1Scenario::default() };
            (variant.label().to_string(), build_fig1(&scenario).netlist, scenario.cycles)
        })
        .collect();
    designs.push(("table1".into(), library::table1().netlist, 64));
    let resilient = library::ResilientConfig {
        data_width: 32,
        operands: (1..200).collect(),
        error_masks: vec![0, 0x10, 0, 0, 0x10, 0],
    };
    designs.push(("fig7b".into(), library::resilient_speculative(&resilient).netlist, 200));
    let var_latency = library::VarLatencyConfig {
        width: 8,
        spec_bits: 4,
        operands_a: (0..160).map(|i| i * 7 % 251).collect(),
        operands_b: (0..160).map(|i| i * 13 % 241).collect(),
        ..library::VarLatencyConfig::default()
    };
    designs.push(("fig6a".into(), library::variable_latency_stalling(&var_latency).netlist, 150));
    designs.push((
        "fig6b".into(),
        library::variable_latency_speculative(&var_latency).netlist,
        150,
    ));
    let zb_chain = library::deep_pipeline(
        64,
        BufferSpec::zero_backward(0),
        BackpressurePattern::List(vec![true, false, false, true]),
    );
    designs.push(("zb-chain64".into(), zb_chain, 300));
    designs.push(("lazy-fork-join".into(), lazy_fork_regression_netlist(), 100));
    designs
}

#[test]
fn per_lane_sink_environments_match_per_lane_scalar_runs() {
    // The production posture: 64 *different* environments in one
    // simulation instance. Every lane must still be bit-identical to a
    // scalar run given that lane's environment — the strong form of the
    // lane-0 contract — and the environments must make some lane diverge.
    let patterns: Vec<_> = (0..LANES).map(lane_pattern).collect();
    for (name, netlist, cycles) in lane_designs() {
        let sinks = sink_ids(&netlist);
        assert!(!sinks.is_empty(), "{name} has sinks");

        let mut lane_sim = LaneSimulation::new(&netlist, &LaneConfig::default()).unwrap();
        let overrides: Vec<_> = sinks.iter().map(|&sink| (sink, patterns.clone())).collect();
        lane_sim.reset_with_lane_sink_patterns(&overrides);
        lane_sim.run(cycles).unwrap();

        let mut scalar = Simulation::new(&netlist, &SimConfig::default()).unwrap();
        for lane in 0..LANES {
            let scalar_overrides: Vec<_> =
                sinks.iter().map(|&sink| (sink, lane_pattern(lane))).collect();
            scalar.reset_with_sink_patterns(&scalar_overrides);
            let scalar_report = scalar.run(cycles).unwrap();
            assert_eq!(
                lane_sim.trace(lane),
                scalar.trace(),
                "{name}: lane {lane} trace must match its scalar environment run"
            );
            assert_eq!(
                lane_sim.report(lane).behavioural_difference(&scalar_report),
                None,
                "{name}: lane {lane} report must match its scalar environment run"
            );
        }
        assert!(
            (1..LANES).any(|lane| lane_sim.trace(lane) != lane_sim.trace(0)),
            "{name}: distinct environments must make some lane's trace differ from lane 0's"
        );
    }
}

#[test]
fn trailing_segment_designs_match_every_scalar_strategy_lane_by_lane() {
    // The speculative select loops of fig1d and fig7b run through a shared
    // module, which the compiled plan settles as a forward and a backward
    // half. Under 64 distinct sink environments, every lane of the lane
    // engine (on the plan) must equal the FullSweep oracle, the
    // EventDriven engine and the Compiled strategy given that lane's
    // environment.
    let patterns: Vec<_> = (0..LANES).map(lane_pattern).collect();
    let designs: Vec<_> = lane_designs()
        .into_iter()
        .filter(|(name, ..)| ["fig1d-speculation", "fig7b"].contains(&name.as_str()))
        .collect();
    assert_eq!(designs.len(), 2);
    for (name, netlist, cycles) in designs {
        let sinks = sink_ids(&netlist);
        let mut lane_sim = LaneSimulation::new(&netlist, &LaneConfig::default()).unwrap();
        let overrides: Vec<_> = sinks.iter().map(|&sink| (sink, patterns.clone())).collect();
        lane_sim.reset_with_lane_sink_patterns(&overrides);
        lane_sim.run(cycles).unwrap();

        for strategy in
            [SettleStrategy::FullSweep, SettleStrategy::EventDriven, SettleStrategy::Compiled]
        {
            let config = SimConfig { settle: strategy, ..SimConfig::default() };
            let mut scalar = Simulation::new(&netlist, &config).unwrap();
            for lane in 0..LANES {
                let scalar_overrides: Vec<_> =
                    sinks.iter().map(|&sink| (sink, lane_pattern(lane))).collect();
                scalar.reset_with_sink_patterns(&scalar_overrides);
                let scalar_report = scalar.run(cycles).unwrap();
                assert_eq!(
                    lane_sim.trace(lane),
                    scalar.trace(),
                    "{name}: lane {lane} trace must match its {strategy:?} run"
                );
                assert_eq!(
                    lane_sim.report(lane).behavioural_difference(&scalar_report),
                    None,
                    "{name}: lane {lane} report must match its {strategy:?} run"
                );
            }
        }
    }
}

/// Deterministic per-lane source offer pattern: six offer/withhold bits
/// derived from the lane index (lane 0 keeps offering every cycle so the
/// unperturbed environment stays in the block).
fn lane_offer_pattern(lane: usize) -> elastic_core::kind::SourcePattern {
    let bits = (lane as u64).wrapping_mul(0xD134_2543_DE82_EF95) >> 58;
    elastic_core::kind::SourcePattern::List(
        (0..6).map(|i| lane == 0 || bits & (1 << i) != 0).collect(),
    )
}

fn source_ids(netlist: &Netlist) -> Vec<NodeId> {
    netlist.live_nodes().filter(|n| n.kind.kind_name() == "source").map(|n| n.id).collect()
}

#[test]
fn per_lane_source_environments_match_per_lane_scalar_runs() {
    // The source-side mirror of the per-lane sink test: 64 different
    // token-offer environments in one instance, each lane bit-identical to
    // a scalar run given that lane's offer pattern.
    let patterns: Vec<_> = (0..LANES).map(lane_offer_pattern).collect();
    for (name, netlist, cycles) in lane_designs() {
        let sources = source_ids(&netlist);
        assert!(!sources.is_empty(), "{name} has sources");

        let mut lane_sim = LaneSimulation::new(&netlist, &LaneConfig::default()).unwrap();
        let overrides: Vec<_> = sources.iter().map(|&source| (source, patterns.clone())).collect();
        lane_sim.reset_with_lane_source_patterns(&overrides);
        lane_sim.run(cycles).unwrap();

        let mut scalar = Simulation::new(&netlist, &SimConfig::default()).unwrap();
        for lane in 0..LANES {
            let scalar_overrides: Vec<_> =
                sources.iter().map(|&source| (source, lane_offer_pattern(lane))).collect();
            scalar.reset_with_source_patterns(&scalar_overrides);
            let scalar_report = scalar.run(cycles).unwrap();
            assert_eq!(
                lane_sim.trace(lane),
                scalar.trace(),
                "{name}: lane {lane} trace must match its scalar offer-pattern run"
            );
            assert_eq!(
                lane_sim.report(lane).behavioural_difference(&scalar_report),
                None,
                "{name}: lane {lane} report must match its scalar environment run"
            );
        }
    }
}

/// A feed-forward speculated design with a commit stage: sources → lazy
/// mux → opaque op → sink, speculated with `allow_acyclic` and commit
/// depth 2. No paper design has a commit stage.
fn feedforward_commit_design() -> Netlist {
    use elastic_core::kind::{
        BackpressurePattern, DataStream, MuxSpec, SinkSpec, SourcePattern, SourceSpec,
    };
    use elastic_core::transform::{speculate, SpeculateOptions};
    use elastic_core::Port;

    let mut n = Netlist::new("ff_commit");
    let select = DataStream::List(vec![0, 1, 1, 0, 1, 1, 1, 0]);
    let sel = n.add_source(
        "sel",
        SourceSpec { pattern: SourcePattern::Always, data: select, consume_on_kill: true },
    );
    let a = n.add_source("a", SourceSpec { data: DataStream::Counter, ..SourceSpec::always() });
    let b = n.add_source("b", SourceSpec { data: DataStream::Const(0x5A), ..SourceSpec::always() });
    let mux = n.add_mux("mux", MuxSpec::lazy(2));
    let f = n.add_op("f", elastic_core::op::opaque("F", 6, 120));
    let stalls = BackpressurePattern::List(vec![true, true, false, false, false]);
    let sink = n.add_sink("sink", SinkSpec { backpressure: stalls });
    n.connect(Port::output(sel, 0), Port::input(mux, 0), 1).unwrap();
    n.connect(Port::output(a, 0), Port::input(mux, 1), 8).unwrap();
    n.connect(Port::output(b, 0), Port::input(mux, 2), 8).unwrap();
    n.connect(Port::output(mux, 0), Port::input(f, 0), 8).unwrap();
    n.connect(Port::output(f, 0), Port::input(sink, 0), 8).unwrap();
    let options = SpeculateOptions {
        allow_acyclic: true,
        commit_depth: 2,
        starvation_limit: Some(8),
        ..SpeculateOptions::default()
    };
    speculate(&mut n, mux, &options).unwrap();
    assert!(n.live_nodes().any(|node| node.kind.kind_name() == "commit"), "a commit stage");
    n
}

/// Lane `lane`'s prediction policy in the scheduler pins: a static policy
/// on even lanes, a seeded random one on odd lanes.
fn lane_scheduler(lane: usize, users: usize) -> Box<dyn elastic_core::Scheduler> {
    if lane.is_multiple_of(2) {
        Box::new(elastic_core::scheduler::StaticScheduler::new(lane / 2 % users))
    } else {
        Box::new(elastic_core::scheduler::RandomScheduler::new(users, 0x5eed + lane as u64))
    }
}

#[test]
fn lane_blocked_scheduler_injection_matches_per_lane_scalar_runs() {
    // Lane-blocked scheduler injection: every lane gets a freshly built
    // scheduler from the per-lane factory, and must be bit-identical to a
    // scalar run overridden with the same policy — which pins each lane's
    // scheduler feedback, starvation override and, on the feed-forward
    // design, a commit stage behind the shared module.
    let var_latency = library::VarLatencyConfig {
        width: 8,
        spec_bits: 4,
        operands_a: (0..160).map(|i| i * 7 % 251).collect(),
        operands_b: (0..160).map(|i| i * 13 % 241).collect(),
        ..library::VarLatencyConfig::default()
    };
    let fig1d =
        Fig1Scenario { variant: Fig1Variant::Speculation, cycles: 200, ..Fig1Scenario::default() };
    let designs = [
        ("table1", library::table1().netlist),
        ("fig1d", build_fig1(&fig1d).netlist),
        ("fig6b", library::variable_latency_speculative(&var_latency).netlist),
        ("ff-commit", feedforward_commit_design()),
    ];
    let cycles = 200;
    for (name, netlist) in designs {
        let shared: Vec<(NodeId, usize)> = netlist
            .live_nodes()
            .filter_map(|n| match &n.kind {
                elastic_core::NodeKind::Shared(spec) => Some((n.id, spec.users)),
                _ => None,
            })
            .collect();
        assert!(!shared.is_empty(), "{name} has a shared module");

        let mut lane_sim = LaneSimulation::new(&netlist, &LaneConfig::default()).unwrap();
        let factories: Vec<(NodeId, Box<elastic_sim::SchedulerFactory<'_>>)> = shared
            .iter()
            .map(|&(node, users)| {
                let make: Box<elastic_sim::SchedulerFactory<'_>> =
                    Box::new(move |lane| lane_scheduler(lane, users));
                (node, make)
            })
            .collect();
        let overrides: Vec<(NodeId, &elastic_sim::SchedulerFactory<'_>)> =
            factories.iter().map(|(node, make)| (*node, make.as_ref())).collect();
        lane_sim.reset_with_schedulers(&overrides);
        lane_sim.run(cycles).unwrap();

        let mut scalar = Simulation::new(&netlist, &SimConfig::default()).unwrap();
        let mut distinct_streams = std::collections::BTreeSet::new();
        for lane in 0..LANES {
            let scalar_overrides =
                shared.iter().map(|&(node, users)| (node, lane_scheduler(lane, users))).collect();
            scalar.reset_with_schedulers(scalar_overrides);
            let scalar_report = scalar.run(cycles).unwrap();
            assert_eq!(
                lane_sim.trace(lane),
                scalar.trace(),
                "{name}: lane {lane} trace must match its scalar scheduler run"
            );
            let lane_report = lane_sim.report(lane);
            assert_eq!(
                lane_report.behavioural_difference(&scalar_report),
                None,
                "{name}: lane {lane} report must match its scalar scheduler run"
            );
            distinct_streams.insert(format!("{:?}", lane_report.sink_streams));
        }
        assert!(
            distinct_streams.len() > 1,
            "{name}: the injected policies must actually change behaviour across lanes"
        );
    }
}

/// The number of ops in `netlist`'s compiled plan, read off its emitted
/// settle function (one call per op); `None` when it has no plan.
fn plan_ops(netlist: &Netlist) -> Option<u64> {
    let settle = elastic_sim::codegen::emit_settle_fn(netlist, "settle").ok()?;
    Some(settle.lines().filter(|line| line.trim_start().starts_with("controllers[")).count() as u64)
}

#[test]
fn acyclic_designs_get_a_plan_that_runs_each_op_once_per_cycle() {
    use elastic_core::kind::{BackpressurePattern, ForkSpec, SinkSpec, SourceSpec};
    use elastic_core::{Op, Port};

    let mut lazy_fork_into_sinks = Netlist::new("lazy_fork_into_sinks");
    let src = lazy_fork_into_sinks.add_source("src", SourceSpec::always());
    let fork = lazy_fork_into_sinks.add_fork("fork", ForkSpec::lazy(2));
    lazy_fork_into_sinks.connect(Port::output(src, 0), Port::input(fork, 0), 8).unwrap();
    for branch in 0..2 {
        let stalls = SinkSpec { backpressure: BackpressurePattern::List(vec![branch == 0, false]) };
        let sink = lazy_fork_into_sinks.add_sink(format!("s{branch}"), stalls);
        lazy_fork_into_sinks.connect(Port::output(fork, branch), Port::input(sink, 0), 8).unwrap();
    }
    let var_latency = library::VarLatencyConfig::default();
    let planned = [
        ("fig1d", library::fig1d(&library::Fig1Config::default()).netlist),
        ("fig7b", library::resilient_speculative(&library::ResilientConfig::default()).netlist),
        ("fig6a", library::variable_latency_stalling(&var_latency).netlist),
        ("fig6b", library::variable_latency_speculative(&var_latency).netlist),
        ("ff-commit", feedforward_commit_design()),
        ("lazy-fork-into-sinks", lazy_fork_into_sinks),
    ];
    let cycles = 100;
    for (name, netlist) in planned {
        let ops = plan_ops(&netlist).unwrap_or_else(|| panic!("{name} gets a plan"));
        let (_, compiled) = run_with(&netlist, SettleStrategy::Compiled, cycles);
        assert_eq!(compiled.settle_iterations, ops * cycles, "{name}: each op once per cycle");
        let mut lanes = LaneSimulation::new(&netlist, &LaneConfig::default()).unwrap();
        lanes.run(cycles).unwrap();
        assert_eq!(lanes.report(0).settle_iterations, ops * cycles, "{name}: lanes, once a cycle");
        assert_engines_equivalent(name, &netlist, cycles);
    }

    // Two function blocks feeding each other, one feeding itself, and a
    // lazy fork whose branches reconverge: their rails form a cycle, so
    // they get no plan, and the Compiled strategy is the event-driven
    // settle, the same report or the same error. The full sweep and the
    // lane engine settle, or report the loop, alike.
    let mut ring = Netlist::new("ring");
    let (a, b) = (ring.add_op("a", Op::Inc), ring.add_op("b", Op::Inc));
    ring.connect(Port::output(a, 0), Port::input(b, 0), 8).unwrap();
    ring.connect(Port::output(b, 0), Port::input(a, 0), 8).unwrap();
    let mut self_loop = Netlist::new("self-loop");
    let f = self_loop.add_op("f", Op::Inc);
    self_loop.connect(Port::output(f, 0), Port::input(f, 0), 8).unwrap();
    for netlist in [ring, self_loop, lazy_fork_regression_netlist()] {
        let name = netlist.name().to_string();
        assert_eq!(plan_ops(&netlist), None, "{name} has no plan");
        let run = |settle| {
            let config = SimConfig { settle, ..SimConfig::default() };
            Simulation::new(&netlist, &config).unwrap().run(cycles)
        };
        let event_driven = run(SettleStrategy::EventDriven);
        let compiled = run(SettleStrategy::Compiled);
        assert_eq!(format!("{event_driven:?}"), format!("{compiled:?}"), "{name}");
        let mut lanes = LaneSimulation::new(&netlist, &LaneConfig::default()).unwrap();
        for (engine, outcome) in
            [("full sweep", run(SettleStrategy::FullSweep).map(drop)), ("lanes", lanes.run(cycles))]
        {
            match outcome {
                Ok(()) => assert!(event_driven.is_ok(), "{name}: {engine} settles a loop"),
                Err(elastic_sim::SimError::CombinationalLoop { cycle: 0, .. }) => {
                    assert!(event_driven.is_err(), "{name}: {engine} reports a loop that settles")
                }
                Err(error) => panic!("{name}: {engine}: {error}"),
            }
        }
    }
}
