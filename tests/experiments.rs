//! End-to-end experiment shape checks: the qualitative results of the paper's
//! evaluation (Sections 2 and 5) must emerge from the simulator plus the cost
//! model. The examples regenerate the full tables; these tests pin the
//! *shape* (who wins, roughly by how much) so regressions are caught by
//! `cargo test`.

use elastic_analysis::{cost::CostModel, report::DesignPoint, DesignComparison};
use elastic_core::SchedulerKind;
use elastic_sim::scenarios::{self, Fig1Scenario, Fig1Variant};

#[test]
fn fig1_design_space_matches_the_papers_ranking() {
    let model = CostModel::default();
    let mut comparison = DesignComparison::new();
    for variant in Fig1Variant::all() {
        let outcome = scenarios::run_fig1(&Fig1Scenario {
            variant,
            taken_rate: 0.05,
            scheduler: SchedulerKind::LastTaken,
            cycles: 800,
            seed: 42,
        })
        .unwrap();
        comparison.push(DesignPoint::with_throughput(
            variant.label(),
            &outcome.handles.netlist,
            &model,
            outcome.throughput,
        ));
    }
    println!("{}", comparison.render());

    // Bubble insertion "brings no real gain": its effective cycle time is no
    // better than the baseline's.
    let bubble = comparison.effective_cycle_time_improvement("fig1b-bubble").unwrap();
    assert!(
        bubble <= 0.01,
        "bubble insertion must not improve the effective cycle time ({bubble})"
    );
    // Shannon decomposition is the performance-optimal design.
    let shannon = comparison.effective_cycle_time_improvement("fig1c-shannon").unwrap();
    assert!(
        shannon > 0.15,
        "Shannon decomposition must improve the effective cycle time ({shannon})"
    );
    // Speculation achieves a similar improvement …
    let speculation = comparison.effective_cycle_time_improvement("fig1d-speculation").unwrap();
    assert!(
        speculation > 0.05,
        "speculation must improve the effective cycle time ({speculation})"
    );
    assert!(
        speculation > shannon - 0.25,
        "with a highly accurate predictor speculation stays close to the Shannon bound          (speculation {speculation}, shannon {shannon})"
    );
    // … with less area than duplication.
    let shannon_area = comparison.area_overhead("fig1c-shannon").unwrap();
    let speculation_area = comparison.area_overhead("fig1d-speculation").unwrap();
    assert!(
        speculation_area < shannon_area,
        "sharing must cost less area than duplication ({speculation_area} vs {shannon_area})"
    );
}

#[test]
fn speculation_throughput_degrades_gracefully_with_prediction_accuracy() {
    // E5-accuracy: the benefit of speculation is proportional to prediction
    // accuracy; a strongly biased select stream keeps throughput near 1.
    let mut previous = f64::INFINITY;
    for taken_rate in [0.05, 0.25, 0.5] {
        let outcome = scenarios::run_fig1(&Fig1Scenario {
            variant: Fig1Variant::Speculation,
            taken_rate,
            scheduler: SchedulerKind::LastTaken,
            cycles: 600,
            seed: 9,
        })
        .unwrap();
        assert!(
            outcome.throughput <= previous + 0.02,
            "throughput must not increase as the select stream gets harder to predict"
        );
        previous = outcome.throughput;
    }
    assert!(
        previous > 0.4,
        "even an unpredictable select stream costs at most about one replay cycle per          misprediction with a self-correcting scheduler ({previous})"
    );
}

#[test]
fn variable_latency_speculation_beats_stalling_and_degrades_with_error_rate() {
    // Figure 6: the speculative variable-latency unit matches the stalling one
    // at low error rates and only loses the replay cycles as errors increase.
    let low = scenarios::run_var_latency(0.05, 400, 21).unwrap();
    let high = scenarios::run_var_latency(0.5, 400, 21).unwrap();
    assert!(low.speculative_throughput >= low.stalling_throughput - 0.02);
    assert!(low.speculative_throughput > 0.9);
    assert!(high.speculative_throughput < low.speculative_throughput);
    assert!(high.replays > low.replays);

    // The area overhead of the speculative design is modest (the paper
    // reports 12% for its 8-bit ALU pipeline).
    let model = CostModel::default();
    let stalling_area = model.netlist_area(&low.stalling.netlist).total();
    let speculative_area = model.netlist_area(&low.speculative.netlist).total();
    let overhead = speculative_area / stalling_area - 1.0;
    assert!(
        overhead > 0.0 && overhead < 0.6,
        "speculation costs extra EBs and control but not a redesign (overhead {overhead:.2})"
    );
}

#[test]
fn resilient_speculation_is_free_when_error_free_and_costs_one_cycle_per_error() {
    // Figure 7: error-free behaviour matches the unprotected accumulator; each
    // soft error costs a single replay cycle; the non-speculative design pays
    // the SECDED stage on every iteration.
    let clean = scenarios::run_resilient(0.0, 400, 33).unwrap();
    assert!(clean.unprotected_throughput > 0.95);
    assert!(
        (clean.speculative_throughput - clean.unprotected_throughput).abs() < 0.05,
        "no performance penalty during error-free behaviour: {} vs {}",
        clean.speculative_throughput,
        clean.unprotected_throughput
    );
    assert!(
        clean.nonspeculative_throughput < 0.6,
        "the non-speculative design pays the SECDED pipeline stage every cycle"
    );

    let noisy = scenarios::run_resilient(0.08, 400, 33).unwrap();
    assert!(noisy.replays > 0);
    let lost_cycles = (clean.speculative_throughput - noisy.speculative_throughput) * 400.0;
    assert!(
        lost_cycles < (noisy.replays as f64) * 2.5 + 20.0,
        "each detected error costs about one replay cycle (lost {lost_cycles:.0} cycles for {} replays)",
        noisy.replays
    );

    // Area: the protected stage costs extra (the paper reports 36% for the
    // SECDED adder stage); the speculative variant is larger than the
    // unprotected baseline but in the same ballpark as the non-speculative
    // protected design.
    let model = CostModel::default();
    let unprotected = model.netlist_area(&clean.designs.unprotected.netlist).total();
    let speculative = model.netlist_area(&clean.designs.speculative.netlist).total();
    let overhead = speculative / unprotected - 1.0;
    assert!(overhead > 0.1, "resilience is not free (overhead {overhead:.2})");
}

#[test]
fn zero_backward_buffers_remove_the_recovery_bottleneck() {
    // E6-ebs: with Lb=1 recovery buffers after the shared module the
    // anti-token needs an extra cycle to cancel the speculated token, which
    // shows up as lost throughput; the Lb=0 buffer of Figure 5 removes it.
    use elastic_core::library::{fig1a, Fig1Config};
    use elastic_core::transform::{speculate, SpeculateOptions};
    use elastic_core::BufferSpec;
    use elastic_sim::{SimConfig, Simulation};

    // A fully predictable select stream isolates the effect of the recovery
    // buffer's backward latency from prediction effects.
    let config = Fig1Config {
        src0_data: elastic_core::kind::DataStream::Const(0),
        src1_data: elastic_core::kind::DataStream::Const(0),
        scheduler: SchedulerKind::Static(0),
        ..Fig1Config::default()
    };
    let mut with_standard = fig1a(&config).netlist;
    let mux = fig1a(&config).mux;
    speculate(
        &mut with_standard,
        mux,
        &SpeculateOptions {
            scheduler: SchedulerKind::Static(0),
            recovery_buffer: Some(BufferSpec::standard(0)),
            ..SpeculateOptions::default()
        },
    )
    .unwrap();
    let mut with_zero_backward = fig1a(&config).netlist;
    speculate(
        &mut with_zero_backward,
        mux,
        &SpeculateOptions {
            scheduler: SchedulerKind::Static(0),
            recovery_buffer: Some(BufferSpec::zero_backward(0)),
            ..SpeculateOptions::default()
        },
    )
    .unwrap();

    let quiet = SimConfig { record_trace: false, ..SimConfig::default() };
    let sink = |netlist: &elastic_core::Netlist| netlist.find_node("sink").unwrap().id;
    let standard_report = Simulation::new(&with_standard, &quiet).unwrap().run(400).unwrap();
    let zero_report = Simulation::new(&with_zero_backward, &quiet).unwrap().run(400).unwrap();
    let standard = standard_report.throughput(sink(&with_standard));
    let zero = zero_report.throughput(sink(&with_zero_backward));
    assert!(
        zero + 0.02 >= standard,
        "zero-backward-latency recovery buffers must not be slower: Lb=0 {zero} vs Lb=1 {standard}"
    );
    // The recovery buffer adds a pipeline stage to the select loop, so the
    // bound drops to 1/2 regardless of Lb; what matters is that the loop
    // keeps running and the Lb=0 variant is at least as fast.
    assert!(
        zero > 0.2,
        "the speculative loop keeps running with recovery buffers in place ({zero})"
    );
}

#[test]
fn simulated_throughput_never_beats_the_marked_graph_bound() {
    // `marked_graph::analyze` feeds `DesignPoint::from_netlist`. It abstracts
    // a netlist into a marked graph in which every node waits for all of its
    // inputs, so early-evaluation muxes and shared modules fall outside it:
    // the list holds every library design without either. Each has one sink,
    // downstream of every cycle. Generated netlists are left out: the bound
    // is the minimum over all cycles of the netlist, and a generated netlist
    // may hold sinks that no select loop reaches, which run faster than it.
    use elastic_analysis::marked_graph::analyze;
    use elastic_core::kind::{BackpressurePattern, BufferSpec};
    use elastic_core::library::{self, Fig1Config, ResilientConfig, VarLatencyConfig};
    use elastic_core::op::secded_codeword_width;
    use elastic_core::transform::insert_bubble;
    use elastic_core::{Netlist, NodeKind};
    use elastic_datapath::workload;
    use elastic_sim::{SimConfig, Simulation};

    const CYCLES: u64 = 2000;
    let stream = CYCLES as usize + 8;
    let fig1 = Fig1Config::default();
    let bubbled = |channels: &[&str]| {
        let mut netlist = library::fig1a(&fig1).netlist;
        for name in channels {
            let channel = netlist.live_channels().find(|c| c.name == *name).unwrap().id;
            insert_bubble(&mut netlist, channel).unwrap();
        }
        netlist
    };
    let (operands_a, operands_b) = workload::approx_error_operands(8, 4, 0.2, stream, 13);
    let var_latency = VarLatencyConfig { operands_a, operands_b, ..VarLatencyConfig::default() };
    let resilient = ResilientConfig {
        data_width: 32,
        operands: workload::uniform_operands(32, stream, 17),
        error_masks: workload::soft_error_masks(secded_codeword_width(32), 0.05, stream, 17),
    };
    let pipeline = |buffer| library::deep_pipeline(16, buffer, BackpressurePattern::Never);
    // (name, netlist, exact): the bound is exact where the sources always
    // offer and the sink never stalls.
    let designs: [(&str, Netlist, bool); 9] = [
        ("fig1a", library::fig1a(&fig1).netlist, true),
        ("fig1b", library::fig1b(&fig1).netlist, true),
        ("fig1a with 2 bubbles", bubbled(&["mux_out", "loop_to_g"]), true),
        ("fig1a with 3 bubbles", bubbled(&["mux_out", "loop_to_g", "select"]), true),
        (
            "variable_latency_stalling",
            library::variable_latency_stalling(&var_latency).netlist,
            false,
        ),
        ("resilient_unprotected", library::resilient_unprotected(&resilient).netlist, false),
        ("resilient_nonspeculative", library::resilient_nonspeculative(&resilient).netlist, false),
        ("deep_pipeline standard", pipeline(BufferSpec::standard(0)), false),
        ("deep_pipeline zero_backward", pipeline(BufferSpec::zero_backward(0)), false),
    ];

    let quiet = SimConfig { record_trace: false, ..SimConfig::default() };
    for (name, netlist, exact) in &designs {
        assert!(
            netlist.live_nodes().all(|n| match &n.kind {
                NodeKind::Mux(mux) => !mux.early_eval,
                kind => !matches!(kind, NodeKind::Shared(_)),
            }),
            "{name} is outside the marked-graph abstraction"
        );
        let bound = analyze(netlist).throughput_bound();
        let sink = netlist.live_nodes().find(|n| matches!(n.kind, NodeKind::Sink(_))).unwrap().id;
        let report = Simulation::new(netlist, &quiet).unwrap().run(CYCLES).unwrap();
        let throughput = report.throughput(sink);
        // The initial tokens can leave ahead of the steady state.
        let slack = netlist.total_initial_tokens() as f64 / CYCLES as f64;
        assert!(
            throughput <= bound + slack,
            "{name}: simulated throughput {throughput} beats the marked-graph bound {bound}"
        );
        if *exact {
            assert!(
                (throughput - bound).abs() <= 0.02 * bound,
                "{name}: simulated throughput {throughput} is not within 2% of the bound {bound}"
            );
        }
    }
}
