//! The traced run: spans around the calls into each crate, from outside,
//! and the per-layer metrics derived from them.
//!
//! Each end-to-end path is replayed under a parent span whose children are
//! the public calls that make it up; the share of the parent they cover is
//! printed as the path's attributed share, so what nobody attributed stays
//! visible. End-to-end numbers never come from this run.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::PathBuf;

use elastic_analysis::cost::CostModel;
use elastic_bench::codegen_support;
use elastic_bench::generated_settle::{settle_fig1a, settle_fig1d, settle_fig7b};
use elastic_core::kind::{BackpressurePattern, NodeKind, SchedulerKind, SourcePattern};
use elastic_core::transform::backpressure_may_stall;
use elastic_core::{Netlist, Op};
use elastic_datapath::evaluate;
use elastic_explore::score::static_cost;
use elastic_explore::{enumerate_candidates, environment_grid, explore, measure, ExploreOptions};
use elastic_gen::generate::generate;
use elastic_gen::harness::{compiled_agrees, engines_agree, lanes_agree, run_netlist};
use elastic_serve::{
    decode, structural_hash, CacheKey, JobOutcome, JobQueue, Journal, Record, ResultCache, Service,
    ServiceConfig,
};
use elastic_sim::codegen::run_generated;
use elastic_sim::controller::Controller;
use elastic_sim::signal::ChannelState;
use elastic_sim::{LaneConfig, LaneSimulation, SettleStrategy, SimConfig, Simulation};
use elastic_verify::battery::{
    check_equivalence_across_schedulers, check_equivalence_under_environments,
    check_transform_battery, BatteryOptions, EnvironmentOverride,
};
use elastic_verify::conservation::check_shared_module_conservation;
use elastic_verify::exploration::explore_environments;
use elastic_verify::liveness::{check_deadlock_freedom, check_leads_to, LivenessOptions};
use elastic_verify::properties::{check_netlist_protocol, ProtocolOptions};
use elastic_verify::Verdict;

use crate::e2e::{
    case_seed, direct_verify, explore_options, harness_options, submit_and_wait, sweep_design,
    Metric, SinkStreams,
};
use crate::spans::{Recorder, SpanId, Spans};
use crate::util::{geomean, mean, median, timed, Rng, Tally};
use crate::workload::{preset, Workload, PRESETS};

/// Cycles of the verification checks, as the harness runs them.
const CHECK_CYCLES: u64 = 192;

fn ms(seconds: f64) -> f64 {
    seconds * 1e3
}

fn us(seconds: f64) -> f64 {
    seconds * 1e6
}

fn ns(seconds: f64) -> f64 {
    seconds * 1e9
}

fn verdict(result: Result<Verdict, impl std::fmt::Display>) -> Result<(), String> {
    match result {
        Ok(v) if v.passed() => Ok(()),
        Ok(v) => Err(v.to_string()),
        Err(e) => Err(e.to_string()),
    }
}

fn has_shared(netlist: &Netlist) -> bool {
    netlist.live_nodes().any(|n| matches!(n.kind, NodeKind::Shared(_)))
}

/// Where the span file goes: beside the build output.
fn out_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("perfbench/target"));
    target.join("perfbench-trace")
}

/// Evenly spread indices: at most `count` of `0..len`.
fn spread(len: usize, count: usize) -> Vec<usize> {
    let count = count.min(len);
    (0..count).map(|j| (2 * j + 1) * len / (2 * count)).collect()
}

pub fn run(w: &Workload, seed: u64, seconds: f64, tally: &mut Tally) -> Vec<Metric> {
    let rec = Recorder::new();
    let mut m = Vec::new();
    setup_layer(w, seed, &rec, &mut m);
    datapath_layer(w, seed, seconds, &mut m, tally);
    core_layer(w, &rec, &mut m, tally);
    sim_layer(w, &rec, &mut m, tally);
    codegen_layer(&mut m, tally);
    verify_layer(w, seed, &rec, &mut m, tally);
    explore_layer(w, &rec, &mut m, tally);
    gen_layer(w, &rec, &mut m, tally);
    serve_layer(w, &rec, &mut m, tally);

    let spans = rec.spans();
    let dir = out_dir();
    let path = dir.join(format!("spans-{}-{seed}.tsv", w.name));
    match std::fs::create_dir_all(&dir).and_then(|()| rec.write_tsv(&path)) {
        Ok(()) => println!("wrote {} spans to {}", spans.len(), path.display()),
        Err(e) => eprintln!("could not write spans to {}: {e}", path.display()),
    }
    m
}

/// Set-up replayed under spans, and the generator's cost per netlist.
fn setup_layer(w: &Workload, seed: u64, rec: &Recorder, m: &mut Vec<Metric>) {
    let service = rec.span("setup", 0, None, |me| {
        rec.span("workload.generate", 0, Some(me), |_| black_box(Workload::generate(w.name, seed)));
        rec.span("serve.start", 0, Some(me), |_| Service::start(ServiceConfig::default()))
    });
    service.expect("the service starts").shutdown();
    let mut rng = Rng::new(seed ^ 0x0067_656E);
    for name in PRESETS {
        let config = preset(name);
        for _ in 0..20 {
            let s = rng.next_u64();
            rec.span("gen.generate", s, None, |_| black_box(generate(s, &config)));
        }
    }
    let spans = Spans::new(rec.spans());
    m.push(Metric::new("gen.generate_us", us(spans.mean("gen.generate")), "us"));
    m.push(Metric::new("trace.setup_attributed_share", spans.attributed_share("setup"), "ratio"));
}

/// Datapath op classes timed per `evaluate` call.
const OP_CLASSES: [&str; 5] = [
    "datapath.secded_encode_ns",
    "datapath.secded_correct_ns",
    "datapath.secded_syndrome_ns",
    "datapath.adder_ns",
    "datapath.small_op_ns",
];

fn op_class(op: &Op) -> usize {
    match op {
        Op::SecdedEncode { .. } => 0,
        Op::SecdedCorrect { .. } => 1,
        Op::SecdedSyndrome { .. } => 2,
        Op::RippleAdd { .. }
        | Op::KoggeStoneAdd { .. }
        | Op::ApproxAdd { .. }
        | Op::ApproxAddErr { .. }
        | Op::Add
        | Op::Sub => 3,
        _ => 4,
    }
}

/// Every datapath op of the workload's designs with its operand count.
fn op_mix(w: &Workload) -> Vec<Vec<(Op, usize)>> {
    let mut classes = vec![Vec::new(); OP_CLASSES.len()];
    for design in &w.sim {
        for node in design.netlist.live_nodes() {
            let ops: Vec<(Op, usize)> = match &node.kind {
                NodeKind::Function(spec) => vec![(spec.op.clone(), spec.inputs)],
                NodeKind::Shared(spec) => vec![(spec.op.clone(), spec.inputs_per_user)],
                NodeKind::VarLatency(spec) => vec![
                    (spec.exact.clone(), spec.inputs),
                    (spec.approx.clone(), spec.inputs),
                    (spec.error.clone(), spec.inputs),
                ],
                _ => vec![],
            };
            for (op, inputs) in ops {
                classes[op_class(&op)].push((op, inputs.max(1)));
            }
        }
    }
    // A class the workload never uses is timed at the paper's 32-bit width.
    let fallback = [
        Op::SecdedEncode { data_width: 32 },
        Op::SecdedCorrect { data_width: 32 },
        Op::SecdedSyndrome { data_width: 32 },
        Op::KoggeStoneAdd { width: 32 },
        Op::Mask { width: 8 },
    ];
    for (class, op) in classes.iter_mut().zip(fallback) {
        if class.is_empty() {
            let inputs = op.arity().unwrap_or(1);
            class.push((op, inputs));
        }
    }
    classes
}

/// ns per `evaluate` call for each op class, at the workload's op and width
/// mix, over seeded operands.
fn datapath_layer(w: &Workload, seed: u64, seconds: f64, m: &mut Vec<Metric>, tally: &mut Tally) {
    let mut rng = Rng::new(seed ^ 0xDA7A);
    let operands: Vec<u64> = (0..4099).map(|_| rng.next_u64()).collect();
    let budget = (seconds * 0.005).clamp(0.01, 0.1);
    for (name, ops) in OP_CLASSES.iter().zip(op_mix(w)) {
        let check = ops.iter().try_for_each(|(op, inputs)| {
            evaluate(op, &operands[..*inputs]).map(|_| ()).map_err(|e| e.to_string())
        });
        tally.check(name, check);
        let mut calls = 0u64;
        let (t, ()) = timed(|| {
            let start = std::time::Instant::now();
            while start.elapsed().as_secs_f64() < budget {
                for k in 0..256 {
                    let (op, inputs) = &ops[(calls as usize + k) % ops.len()];
                    let at = (calls as usize + k) % 4096;
                    black_box(evaluate(black_box(op), black_box(&operands[at..at + inputs])).ok());
                }
                calls += 256;
            }
        });
        m.push(Metric::new(*name, ns(t / calls as f64), "ns"));
    }
}

/// Validation, cloning, speculation, static cost and candidate enumeration.
fn core_layer(w: &Workload, rec: &Recorder, m: &mut Vec<Metric>, tally: &mut Tally) {
    let model = CostModel::default();
    let reps = (300 / w.sim.len()).max(1);
    for _ in 0..reps {
        for (i, design) in w.sim.iter().enumerate() {
            let id = i as u64;
            let valid = rec.span("core.validate", id, None, |_| design.netlist.validate());
            tally.check("validate", valid.map_err(|e| e.to_string()));
            rec.span("core.clone", id, None, |_| black_box(design.netlist.clone()));
            rec.span("analysis.static_cost", id, None, |_| {
                black_box(static_cost(&design.netlist, &model))
            });
        }
    }
    let options = explore_options();
    for &i in &w.explore {
        let netlist = &w.sim[i].netlist;
        let candidates = rec.span("analysis.candidates", i as u64, None, |_| {
            enumerate_candidates(netlist, &options)
        });
        for config in candidates {
            let mut clone = netlist.clone();
            rec.span("core.speculate", i as u64, None, |_| {
                black_box(config.apply(&mut clone).is_ok())
            });
        }
    }
    let spans = Spans::new(rec.spans());
    m.push(Metric::new("core.validate_us", us(spans.mean("core.validate")), "us"));
    m.push(Metric::new("core.clone_us", us(spans.mean("core.clone")), "us"));
    m.push(Metric::new("core.speculate_us", us(spans.mean("core.speculate")), "us"));
    m.push(Metric::new("analysis.static_cost_us", us(spans.mean("analysis.static_cost")), "us"));
    m.push(Metric::new("analysis.candidates_us", us(spans.mean("analysis.candidates")), "us"));
}

/// Per-design simulator costs, all seconds except the counts.
#[derive(Debug, Default, Clone)]
struct SimCosts {
    build: f64,
    compiled_build: f64,
    lanes_build: f64,
    reset: f64,
    cycle: f64,
    traced_cycle: f64,
    trace_bytes: f64,
    settle_iterations: f64,
    controller_evals: f64,
    fullsweep_cycle: f64,
    compiled_cycle: f64,
    lanes_cycle: f64,
}

fn sim_costs(netlist: &Netlist, cycles: u64, tally: &mut Tally) -> Result<SimCosts, String> {
    let err = |e: elastic_sim::SimError| e.to_string();
    let quiet = SimConfig { record_trace: false, ..SimConfig::default() };
    let per_cycle = |t: f64| t / cycles as f64;
    let mut c = SimCosts::default();

    let (t, sim) = timed(|| Simulation::new(netlist, &quiet));
    c.build = t;
    let mut sim = sim.map_err(err)?;
    let (t, report) = timed(|| sim.run(cycles));
    let report = report.map_err(err)?;
    c.cycle = per_cycle(t);
    c.settle_iterations = report.settle_iterations as f64 / cycles as f64;
    c.controller_evals = report.controller_evals as f64 / cycles as f64;
    c.reset = timed(|| sim.reset()).0;
    let reference: SinkStreams = report.sink_streams;

    let mut traced = Simulation::new(netlist, &SimConfig::default()).map_err(err)?;
    let (t, report) = timed(|| traced.run(cycles));
    let report = report.map_err(err)?;
    c.traced_cycle = per_cycle(t);
    c.trace_bytes = report.trace_bytes_per_cycle();
    let mut check = |what: &str, streams: &SinkStreams| {
        let same = streams == &reference;
        tally.check(what, if same { Ok(()) } else { Err("sink streams differ".into()) });
    };
    check("traced run", &report.sink_streams);

    for (strategy, slot) in [(SettleStrategy::FullSweep, 0), (SettleStrategy::Compiled, 1)] {
        let config = SimConfig { settle: strategy, ..quiet.clone() };
        let (t_build, sim) = timed(|| Simulation::new(netlist, &config));
        let mut sim = sim.map_err(err)?;
        let (t, report) = timed(|| sim.run(cycles));
        let report = report.map_err(err)?;
        check(&format!("{strategy:?} run"), &report.sink_streams);
        if slot == 0 {
            c.fullsweep_cycle = per_cycle(t);
        } else {
            c.compiled_build = t_build;
            c.compiled_cycle = per_cycle(t);
        }
    }

    let config = LaneConfig { record_trace: false, ..LaneConfig::default() };
    let (t, lanes) = timed(|| LaneSimulation::new(netlist, &config));
    c.lanes_build = t;
    let mut lanes = lanes.map_err(err)?;
    let (t, result) = timed(|| lanes.run(cycles));
    result.map_err(err)?;
    c.lanes_cycle = per_cycle(t);
    check("lane run", &lanes.report(0).sink_streams);
    Ok(c)
}

/// Builds, cycles and backends on every design (or an even spread of 100),
/// the traced replay of the simulate and sweep paths, and the tracing
/// overhead.
fn sim_layer(w: &Workload, rec: &Recorder, m: &mut Vec<Metric>, tally: &mut Tally) {
    let picked = spread(w.sim.len(), 100);
    let reps = if picked.len() <= 20 { 3 } else { 1 };
    // Per design, the repetition with the median event-driven cycle time.
    let mut costs: Vec<(usize, SimCosts)> = Vec::new();
    for &i in &picked {
        let mut runs = Vec::new();
        for _ in 0..reps {
            match sim_costs(&w.sim[i].netlist, w.cycles, tally) {
                Ok(c) => runs.push(c),
                Err(e) => tally.check(&w.sim[i].label, Err(e)),
            }
        }
        runs.sort_by(|a, b| a.cycle.total_cmp(&b.cycle));
        if let Some(c) = runs.get(runs.len() / 2) {
            costs.push((i, c.clone()));
        }
    }
    let g = |f: fn(&SimCosts) -> f64| {
        geomean(&costs.iter().map(|(_, c)| f(c).max(1e-12)).collect::<Vec<_>>())
    };
    let a = |f: fn(&SimCosts) -> f64| mean(&costs.iter().map(|(_, c)| f(c)).collect::<Vec<_>>());
    m.push(Metric::new("sim.build_us", us(g(|c| c.build)), "us"));
    m.push(Metric::new("sim.compiled_build_us", us(g(|c| c.compiled_build)), "us"));
    m.push(Metric::new("sim.lanes_build_us", us(g(|c| c.lanes_build)), "us"));
    m.push(Metric::new("sim.reset_us", us(g(|c| c.reset)), "us"));
    m.push(Metric::new("sim.cycle_ns", ns(g(|c| c.cycle)), "ns"));
    m.push(Metric::new("sim.trace_ns_per_cycle", ns(g(|c| c.traced_cycle) - g(|c| c.cycle)), "ns"));
    m.push(Metric::new("sim.trace_bytes_per_cycle", a(|c| c.trace_bytes), "bytes"));
    m.push(Metric::new("sim.settle_iterations_per_cycle", a(|c| c.settle_iterations), "count"));
    m.push(Metric::new("sim.controller_evals_per_cycle", a(|c| c.controller_evals), "count"));
    m.push(Metric::new("sim.fullsweep_cycle_ns", ns(g(|c| c.fullsweep_cycle)), "ns"));
    m.push(Metric::new("sim.compiled_cycle_ns", ns(g(|c| c.compiled_cycle)), "ns"));
    m.push(Metric::new("sim.lanes_cycle_ns", ns(g(|c| c.lanes_cycle)), "ns"));

    if w.name == "handshake_control" {
        print_handshake_table(w, &costs);
    }

    // The simulate path under spans, alternated with the same pass bare:
    // the difference is the tracing overhead.
    let pass = |traced: bool| {
        timed(|| {
            let body = |parent: Option<SpanId>| {
                for (i, design) in w.sim.iter().enumerate() {
                    let id = i as u64;
                    let build = || Simulation::new(&design.netlist, &SimConfig::default());
                    let mut sim = match parent {
                        Some(p) => rec.span("sim.build", id, Some(p), |_| build()),
                        None => build(),
                    }
                    .expect("checked above");
                    match parent {
                        Some(p) => rec
                            .span("sim.run", id, Some(p), |_| black_box(sim.run(w.cycles).is_ok())),
                        None => black_box(sim.run(w.cycles).is_ok()),
                    };
                }
            };
            if traced {
                rec.span("path.sim", 0, None, |me| body(Some(me)));
            } else {
                body(None);
            }
        })
        .0
    };
    let (mut bare, mut traced) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        bare.push(pass(false));
        traced.push(pass(true));
    }
    m.push(Metric::new(
        "trace.overhead_share",
        (median(&traced) - median(&bare)) / median(&bare),
        "ratio",
    ));

    // The sweep path under spans: lane builds, resets, runs and report
    // reads on the worker threads.
    for &i in w.sweep.iter().take(12) {
        rec.span("path.sweep", i as u64, None, |me| {
            black_box(sweep_design(w, i, Some((rec, me, i as u64))));
        });
    }
    let spans = Spans::new(rec.spans());
    m.push(Metric::new("trace.sim_attributed_share", spans.attributed_share("path.sim"), "ratio"));
    m.push(Metric::new(
        "trace.sweep_attributed_share",
        spans.attributed_share("path.sweep"),
        "ratio",
    ));
}

/// ROADMAP item 1's fig1d question, from outside: where each handshake
/// design's host time goes, as far as public calls can tell.
fn print_handshake_table(w: &Workload, costs: &[(usize, SimCosts)]) {
    println!(
        "{:<40} {:>9} {:>9} {:>9} {:>7} {:>9} {:>9} {:>10} {:>7} {:>7}",
        "design",
        "build_us",
        "event_ns",
        "traced_ns",
        "trace%",
        "compiled",
        "fullsweep",
        "lanes_word",
        "settle",
        "evals"
    );
    for (i, c) in costs {
        println!(
            "{:<40} {:>9.1} {:>9.0} {:>9.0} {:>6.1}% {:>9.0} {:>9.0} {:>10.0} {:>7.1} {:>7.1}",
            w.sim[*i].label,
            us(c.build),
            ns(c.cycle),
            ns(c.traced_cycle),
            100.0 * (c.traced_cycle - c.cycle) / c.traced_cycle,
            ns(c.compiled_cycle),
            ns(c.fullsweep_cycle),
            ns(c.lanes_cycle),
            c.settle_iterations,
            c.controller_evals
        );
    }
    println!(
        "unattributed from outside: inside one event-driven cycle, the split between settle \
         (worklist and controller eval), commit, environment bookkeeping and report counters; \
         `compiled` bounds what dispatch and the worklist cost, the rest needs spans inside the \
         engine."
    );
}

type SettleFn = fn(&mut [ChannelState], &[Box<dyn Controller>]);

/// The emitted settle functions on the designs they were emitted for,
/// beside the event-driven and compiled engines (all with the trace on, as
/// `run_generated` records it), outputs checked equal.
fn codegen_layer(m: &mut Vec<Metric>, tally: &mut Tally) {
    let emitted: BTreeMap<&str, SettleFn> =
        [("fig1a", settle_fig1a as SettleFn), ("fig1d", settle_fig1d), ("fig7b", settle_fig7b)]
            .into_iter()
            .collect();
    let mut codegen = Vec::new();
    println!("{:<8} {:>12} {:>12} {:>12}", "shipped", "event_ns", "compiled_ns", "codegen_ns");
    for (name, netlist) in codegen_support::designs() {
        let Some(&settle) = emitted.get(name) else {
            tally.check(name, Err("no emitted settle function".into()));
            continue;
        };
        let cycles = if name == "fig7b" { 256 } else { 2048 };
        let mut times = [Vec::new(), Vec::new(), Vec::new()];
        for _ in 0..3 {
            let mut reports = Vec::new();
            for (slot, strategy) in
                [SettleStrategy::EventDriven, SettleStrategy::Compiled].into_iter().enumerate()
            {
                let config = SimConfig { settle: strategy, ..SimConfig::default() };
                let mut sim = Simulation::new(&netlist, &config).expect("shipped designs build");
                let (t, report) = timed(|| sim.run(cycles));
                times[slot].push(t);
                reports.push(report.expect("shipped designs run").sink_streams);
            }
            let (t, sim) = timed(|| run_generated(&netlist, cycles, settle));
            times[2].push(t);
            let streams = sim.expect("shipped designs build").report().sink_streams;
            let same = reports.iter().all(|r| *r == streams);
            tally.check(
                &format!("codegen {name}"),
                if same { Ok(()) } else { Err("emitted settle streams differ".into()) },
            );
        }
        let per = |slot: usize| ns(median(&times[slot]) / cycles as f64);
        println!("{name:<8} {:>12.0} {:>12.0} {:>12.0}", per(0), per(1), per(2));
        codegen.push(per(2));
    }
    m.push(Metric::new("sim.codegen_cycle_ns", geomean(&codegen), "ns"));
}

/// Environment variations that keep each environment's declared contract
/// (a sink that never stalls keeps never stalling, an always-offering source
/// keeps offering), as the gauntlet draws them.
fn variations(netlist: &Netlist, rng: &mut Rng, count: usize) -> Vec<EnvironmentOverride> {
    (0..count)
        .map(|index| EnvironmentOverride {
            label: format!("variation {index}"),
            sources: netlist
                .live_nodes()
                .filter_map(|n| match &n.kind {
                    NodeKind::Source(spec) if !matches!(spec.pattern, SourcePattern::Always) => {
                        Some((n.name.clone(), SourcePattern::Every(rng.range(2, 3) as u32)))
                    }
                    _ => None,
                })
                .collect(),
            sinks: netlist
                .live_nodes()
                .filter_map(|n| match &n.kind {
                    NodeKind::Sink(spec) if backpressure_may_stall(&spec.backpressure) => {
                        Some((n.name.clone(), BackpressurePattern::Every(rng.range(2, 4) as u32)))
                    }
                    _ => None,
                })
                .collect(),
        })
        .collect()
}

/// The first speculation candidate of `netlist` that applies.
fn speculated(netlist: &Netlist, options: &ExploreOptions) -> Option<Netlist> {
    enumerate_candidates(netlist, options).into_iter().find_map(|config| {
        let mut clone = netlist.clone();
        config.apply(&mut clone).ok().map(|_| clone)
    })
}

/// Every checker of the verify crate, on designs of the workload and on
/// speculated versions of its explorable designs.
fn verify_layer(w: &Workload, seed: u64, rec: &Recorder, m: &mut Vec<Metric>, tally: &mut Tally) {
    let liveness = LivenessOptions { cycles: CHECK_CYCLES, ..LivenessOptions::default() };
    let exploration = ServiceConfig::default().verify;
    let protocol = ProtocolOptions::default();
    let mut targets: Vec<(usize, Netlist)> =
        spread(w.sim.len(), 12).into_iter().map(|i| (i, w.sim[i].netlist.clone())).collect();
    let explore_opts = explore_options();
    let mut pairs = Vec::new();
    for &i in w.explore.iter().take(6) {
        if let Some(transformed) = speculated(&w.sim[i].netlist, &explore_opts) {
            targets.push((i, transformed.clone()));
            pairs.push((i, transformed));
        }
    }
    for (i, netlist) in &targets {
        let id = *i as u64;
        // A token needs about one cycle per node to cross a long chain, so
        // the progress window grows with the design.
        let window = netlist.live_nodes().count().max(96);
        let liveness = LivenessOptions {
            cycles: CHECK_CYCLES.max(2 * window as u64),
            progress_window: window,
            leads_to_horizon: window,
        };
        let mut run = |name: &'static str, f: &dyn Fn() -> Result<(), String>| {
            let outcome = rec.span(name, id, None, |_| f());
            tally.check(name, outcome);
        };
        run("verify.deadlock_freedom", &|| verdict(check_deadlock_freedom(netlist, &liveness)));
        run("verify.explore_environments", &|| {
            verdict(explore_environments(netlist, &exploration))
        });
        run("verify.protocol", &|| {
            verdict(check_netlist_protocol(netlist, CHECK_CYCLES, &protocol))
        });
        if has_shared(netlist) {
            run("verify.leads_to", &|| verdict(check_leads_to(netlist, &liveness)));
            run("verify.conservation", &|| {
                verdict(check_shared_module_conservation(netlist, CHECK_CYCLES))
            });
        }
    }
    let battery = BatteryOptions { cycles: CHECK_CYCLES, liveness, check_protocol: true };
    let schedulers = [
        SchedulerKind::Static(0),
        SchedulerKind::Static(1),
        SchedulerKind::LastTaken,
        SchedulerKind::TwoBit,
    ];
    let mut rng = Rng::new(seed ^ 0xE7F1);
    for (i, transformed) in &pairs {
        let id = *i as u64;
        let original = &w.sim[*i].netlist;
        let outcome = rec.span("verify.transform_battery", id, None, |_| {
            verdict(check_transform_battery(original, transformed, &battery))
        });
        tally.check("transform battery", outcome);
        let envs = variations(original, &mut rng, 2);
        let outcome = rec.span("verify.env_equivalence", id, None, |_| {
            verdict(check_equivalence_under_environments(
                original,
                transformed,
                &envs,
                CHECK_CYCLES,
            ))
        });
        tally.check("environment equivalence", outcome);
        let outcome = rec.span("verify.scheduler_equivalence", id, None, |_| {
            verdict(check_equivalence_across_schedulers(
                original,
                transformed,
                &schedulers,
                CHECK_CYCLES,
            ))
        });
        tally.check("scheduler equivalence", outcome);
    }
    let spans = Spans::new(rec.spans());
    for (metric, span) in [
        ("verify.deadlock_freedom_ms", "verify.deadlock_freedom"),
        ("verify.explore_environments_ms", "verify.explore_environments"),
        ("verify.protocol_ms", "verify.protocol"),
        ("verify.leads_to_ms", "verify.leads_to"),
        ("verify.conservation_ms", "verify.conservation"),
        ("verify.transform_battery_ms", "verify.transform_battery"),
        ("verify.env_equivalence_ms", "verify.env_equivalence"),
        ("verify.scheduler_equivalence_ms", "verify.scheduler_equivalence"),
    ] {
        // Only the top-level calls of this layer; the serve replay records
        // the same checkers as children of its own spans.
        let roots: Vec<f64> = spans.roots(span);
        m.push(Metric::new(metric, ms(mean(&roots)), "ms"));
    }
}

/// One explore call per explorable design (single-threaded, so its parts
/// add up), then its public stages replayed under a sibling span: grid,
/// baseline, enumeration, per-candidate apply and static cost, the short
/// and full measurements on the rungs the report says each reached, and the
/// front battery.
fn explore_layer(w: &Workload, rec: &Recorder, m: &mut Vec<Metric>, tally: &mut Tally) {
    let options = ExploreOptions { sequential: true, ..explore_options() };
    let model = CostModel::default();
    let battery = BatteryOptions {
        cycles: options.verify_cycles,
        liveness: LivenessOptions { cycles: options.verify_cycles, ..LivenessOptions::default() },
        check_protocol: true,
    };
    let (mut enumerated, mut scored, mut designs) = (0usize, 0usize, 0usize);
    // Every other searched design: each is searched on one thread and then
    // replayed stage by stage, which on `generated_netlists` would otherwise
    // take most of the traced run's time limit.
    for &i in w.explore.iter().step_by(2) {
        let netlist = &w.sim[i].netlist;
        let id = i as u64;
        let report = match rec.span("explore.call", id, None, |_| explore(netlist, &options)) {
            Ok(report) => report,
            Err(e) => {
                tally.check("explore", Err(e.to_string()));
                continue;
            }
        };
        tally.check("explore", Ok(()));
        designs += 1;
        enumerated += report.candidates_enumerated;
        scored += report.front.len() + report.dominated.len();
        let labels = |points: &[elastic_explore::ParetoPoint]| -> Vec<String> {
            points.iter().map(|p| p.config.label()).collect()
        };
        let front = labels(&report.front);
        let mut full = front.clone();
        full.extend(labels(&report.dominated));
        let mut short = full.clone();
        short.extend(report.pruned.short_horizon.iter().map(|p| p.config.label()));
        let mut battery_run = front.clone();
        for skip in &report.skipped {
            let label = skip.config.label();
            let battery_failed = skip.reason.starts_with("verify battery");
            if battery_failed {
                battery_run.push(label.clone());
            }
            if battery_failed || skip.reason.starts_with("simulation (full") {
                full.push(label.clone());
            }
            if battery_failed || skip.reason.starts_with("simulation") {
                short.push(label);
            }
        }
        rec.span("explore.replay", id, None, |me| {
            let me = Some(me);
            let grid = rec.span("explore.grid", id, me, |_| {
                environment_grid(netlist, options.environments, options.seed)
            });
            rec.span("explore.static_cost", id, me, |_| black_box(static_cost(netlist, &model)));
            rec.span("explore.measure_baseline", id, me, |_| {
                black_box(measure(netlist, &grid, options.cycles).is_ok())
            });
            let candidates =
                rec.span("explore.candidates", id, me, |_| enumerate_candidates(netlist, &options));
            for config in candidates {
                let label = config.label();
                let mut clone = rec.span("explore.clone", id, me, |_| netlist.clone());
                if rec.span("explore.apply", id, me, |_| config.apply(&mut clone)).is_err() {
                    continue;
                }
                rec.span("explore.static_cost", id, me, |_| black_box(static_cost(&clone, &model)));
                if short.contains(&label) {
                    rec.span("explore.measure_short", id, me, |_| {
                        black_box(measure(&clone, &grid, options.short_cycles).is_ok())
                    });
                }
                if full.contains(&label) {
                    rec.span("explore.measure_full", id, me, |_| {
                        black_box(measure(&clone, &grid, options.cycles).is_ok())
                    });
                }
                if battery_run.contains(&label) {
                    rec.span("explore.battery", id, me, |_| {
                        black_box(check_transform_battery(netlist, &clone, &battery).is_ok())
                    });
                }
            }
        });
    }
    let spans = Spans::new(rec.spans());
    m.push(Metric::new("explore.measure_short_ms", ms(spans.mean("explore.measure_short")), "ms"));
    m.push(Metric::new("explore.measure_full_ms", ms(spans.mean("explore.measure_full")), "ms"));
    m.push(Metric::new("explore.candidates", enumerated as f64 / designs.max(1) as f64, "count"));
    m.push(Metric::new("explore.scored_share", scored as f64 / enumerated.max(1) as f64, "ratio"));
    m.push(Metric::new(
        "explore.attributed_share",
        spans.covered_total("explore.replay") / spans.total("explore.call"),
        "ratio",
    ));
}

/// The gauntlet per case, then its public stages replayed; what they do not
/// cover is the private transform catalogue.
fn gen_layer(w: &Workload, rec: &Recorder, m: &mut Vec<Metric>, tally: &mut Tally) {
    let options = harness_options();
    let liveness =
        LivenessOptions { cycles: options.cycles, progress_window: 96, leads_to_horizon: 96 };
    let mut transforms = Vec::new();
    for (k, &i) in w.gauntlet.iter().enumerate() {
        let netlist = &w.sim[i].netlist;
        let id = i as u64;
        let outcome = rec.span("gen.run_netlist", id, None, |_| {
            run_netlist(netlist, case_seed(w, k), &options)
                .map(|report| report.transforms.len() as f64)
                .map_err(|failure| failure.to_string())
        });
        if let Ok(count) = outcome {
            transforms.push(count);
        }
        tally.check("gauntlet", outcome.map(|_| ()));
        let cycles = options.cycles;
        rec.span("gen.replay", id, None, |me| {
            let mut stage = |name: &'static str, f: &dyn Fn() -> Result<(), String>| {
                let outcome = rec.span(name, id, Some(me), |_| f());
                tally.check(name, outcome);
            };
            stage("gen.engines_agree", &|| engines_agree(netlist, cycles));
            stage("gen.lanes_agree", &|| lanes_agree(netlist, cycles));
            stage("gen.compiled_agrees", &|| compiled_agrees(netlist, cycles));
            stage("gen.deadlock_freedom", &|| verdict(check_deadlock_freedom(netlist, &liveness)));
            if has_shared(netlist) {
                stage("gen.leads_to", &|| verdict(check_leads_to(netlist, &liveness)));
                stage("gen.conservation", &|| {
                    verdict(check_shared_module_conservation(netlist, cycles))
                });
            }
            stage("gen.protocol", &|| {
                verdict(check_netlist_protocol(netlist, cycles, &ProtocolOptions::default()))
            });
        });
    }
    let spans = Spans::new(rec.spans());
    let cases = w.gauntlet.len().max(1) as f64;
    let per_case = |name: &str| ms(spans.total(name) / cases);
    let (run, covered) = (spans.total("gen.run_netlist"), spans.covered_total("gen.replay"));
    m.push(Metric::new("gen.engines_agree_ms", per_case("gen.engines_agree"), "ms"));
    m.push(Metric::new("gen.lanes_agree_ms", per_case("gen.lanes_agree"), "ms"));
    m.push(Metric::new("gen.compiled_agrees_ms", per_case("gen.compiled_agrees"), "ms"));
    m.push(Metric::new("gen.transform_residual_ms", ms((run - covered) / cases), "ms"));
    m.push(Metric::new("gen.transforms_per_case", mean(&transforms), "count"));
    m.push(Metric::new("trace.gauntlet_attributed_share", covered / run, "ratio"));
}

/// The service's layers: the verify pipeline called directly (under spans)
/// beside the same design's cold and cached jobs, and the cache, codec,
/// queue and journal timed on their own.
fn serve_layer(w: &Workload, rec: &Recorder, m: &mut Vec<Metric>, tally: &mut Tally) {
    let config = ServiceConfig::default();
    let service = Service::start(config.clone()).expect("the service starts");
    let designs: Vec<&Netlist> =
        spread(w.serve.len(), 60).into_iter().map(|i| &w.serve[i]).collect();
    let cache = ResultCache::new(config.cache_shards, config.cache_capacity);
    let mut overheads = Vec::new();
    let mut payloads = Vec::new();
    for (i, netlist) in designs.iter().enumerate() {
        let id = i as u64;
        let structural = rec.span("serve.structural_hash", id, None, |_| structural_hash(netlist));
        let key = CacheKey { structural, pipeline: 0x5e12 };
        rec.span("serve.cache_get", id, None, |_| black_box(cache.get(key)));
        // Alternate which runs first, so warm caches favour neither side.
        let direct = || {
            timed(|| {
                rec.span("serve.direct", id, None, |me| {
                    direct_verify(netlist, &config, Some((rec, me, id)))
                })
            })
        };
        let cold = || {
            timed(|| rec.span("serve.cold_job", id, None, |_| submit_and_wait(&service, netlist)))
        };
        let ((direct_t, direct), (cold_t, outcome)) = if i % 2 == 0 {
            let d = direct();
            (d, cold())
        } else {
            let c = cold();
            (direct(), c)
        };
        let check = match (&outcome, &direct) {
            (Some(JobOutcome::Completed { report, cache_hit: false, .. }), Ok(expected))
                if report == expected =>
            {
                Ok(())
            }
            _ => Err(format!("cold job {outcome:?} against direct {direct:?}")),
        };
        tally.check("cold job", check);
        overheads.push(cold_t - direct_t);
        let Ok(report) = direct else { continue };
        let payload = rec.span("serve.report_encode", id, None, |_| report.encode());
        rec.span("serve.cache_insert", id, None, |_| cache.insert(key, payload.clone()));
        payloads.push((key, payload, report));
        let cached = rec.span("serve.cached_job", id, None, |_| submit_and_wait(&service, netlist));
        tally.check(
            "cached job",
            match cached {
                Some(JobOutcome::Completed { cache_hit: true, .. }) => Ok(()),
                other => Err(format!("cached job ended {other:?}")),
            },
        );
    }
    let stats = service.cache().stats();
    let hit_ratio = stats.hits as f64 / (stats.hits + stats.misses).max(1) as f64;
    service.shutdown();

    // Batched layers: per-call cost of get, codec, queue and journal. A
    // batch span carries its call count as its id.
    let rounds = 20;
    let calls = (rounds * payloads.len()) as u64;
    let same = rec.span("serve.cache_get_batch", calls, None, |_| {
        (0..rounds).all(|_| {
            payloads.iter().all(|(key, payload, _)| cache.get(*key).as_ref() == Some(payload))
        })
    });
    tally.check("cache get", if same { Ok(()) } else { Err("cached payload differs".into()) });
    let same = rec.span("serve.report_codec_batch", calls, None, |_| {
        (0..rounds).all(|_| {
            payloads.iter().all(|(_, _, report)| decode(&report.encode()).as_ref() == Some(report))
        })
    });
    tally.check("report codec", if same { Ok(()) } else { Err("decoded report differs".into()) });
    let queue: JobQueue<u64> =
        JobQueue::new(config.queue_shards, config.queue_capacity, config.degrade_depth);
    let trips = 20_000u64;
    let same = rec.span("serve.queue_batch", trips, None, |_| {
        (0..trips).all(|item| {
            queue.push(item, item);
            queue.try_pop((item % 2) as usize) == Some(item)
        })
    });
    tally.check("queue", if same { Ok(()) } else { Err("queue returned another item".into()) });
    let path = out_dir().join(format!("journal-{}.log", std::process::id()));
    let appends = 2_000u64;
    let written = std::fs::create_dir_all(out_dir()).and_then(|()| Journal::open(&path)).and_then(
        |journal| {
            rec.span("serve.journal_batch", appends, None, |_| {
                (0..appends).try_for_each(|job| journal.append(&Record::Start { job, attempt: 0 }))
            })
        },
    );
    let _ = std::fs::remove_file(&path);
    tally.check("journal", written.map_err(|e| e.to_string()));

    let spans = Spans::new(rec.spans());
    let batch = |name: &str| -> f64 {
        let (total, calls) = spans.batch(name);
        total / calls.max(1) as f64
    };
    let direct_parts = spans.total("serve.direct")
        + spans.total("serve.structural_hash")
        + spans.total("serve.cache_get")
        + spans.total("serve.report_encode")
        + spans.total("serve.cache_insert");
    m.push(Metric::new("serve.structural_hash_us", us(spans.mean("serve.structural_hash")), "us"));
    m.push(Metric::new("serve.cache_get_us", us(batch("serve.cache_get_batch")), "us"));
    m.push(Metric::new("serve.cache_insert_us", us(spans.mean("serve.cache_insert")), "us"));
    m.push(Metric::new("serve.report_codec_us", us(batch("serve.report_codec_batch")), "us"));
    m.push(Metric::new("serve.queue_roundtrip_us", us(batch("serve.queue_batch")), "us"));
    m.push(Metric::new("serve.journal_append_us", us(batch("serve.journal_batch")), "us"));
    m.push(Metric::new("serve.overhead_ms", ms(mean(&overheads)), "ms"));
    m.push(Metric::new("serve.cache_hit_ratio", hit_ratio, "ratio"));
    m.push(Metric::new(
        "trace.job_cold_attributed_share",
        direct_parts / spans.total("serve.cold_job"),
        "ratio",
    ));
}
