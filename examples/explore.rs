//! Auto-speculation design-space exploration benchmark: the explorer's
//! Pareto fronts on the paper-class workloads, measured against the
//! hand-picked configurations of the commit-depth benchmark.
//!
//! Four sections back `BENCH_explore.json`:
//!
//! 1. **fig1a select loop** (predictable select, as in the paper's fig1
//!    evaluation): the explorer must find a speculated design whose
//!    *effective cycle time* (cycle time / tokens-per-cycle, the paper's
//!    figure of merit) beats the non-speculative baseline.
//! 2. **Feed-forward, biased consumer** (the PR-5 commit-depth workload):
//!    the explorer's grid includes the confidence-throttled scheduler, so
//!    its pick must match or beat the best hand-picked configuration
//!    (depth-2 last-taken) in throughput per unit area — asserted, not just
//!    reported.
//! 3. **Feed-forward, adversarial select** (unbiased random stream): the
//!    honest other side — speculation mostly loses here, and the front
//!    shows what survives.
//! 4. **Generated loop corpus**: explorer accounting (front/dominated/
//!    skipped/pruned) over a slice of `elastic-gen` loop-preset seeds.
//!
//! Run with `cargo run --release --example explore`; pass `--write` (or set
//! `ELASTIC_BENCH_WRITE=1`) to rewrite `BENCH_explore.json` in the repo
//! root.

use std::fmt::Write as _;

use elastic_core::kind::{DataStream, SchedulerKind};
use elastic_core::Netlist;
use elastic_explore::{explore, ExploreOptions, ExploreReport, ParetoPoint};
use elastic_gen::{generate, GenConfig};
use elastic_sim::scenarios::{build_fig1, Fig1Scenario, Fig1Variant};

/// The PR-5 feed-forward target, shared with the commit-depth benchmark:
/// bursty consumer (2 stalled of every 5 cycles), select stream as given.
fn feedforward(select: DataStream) -> Netlist {
    let (netlist, _, _) = elastic_suite::feedforward_mux_design(
        select,
        elastic_core::kind::BackpressurePattern::List(vec![true, true, false, false, false]),
    );
    netlist
}

fn feedforward_options() -> ExploreOptions {
    ExploreOptions {
        cycles: 8192,
        short_cycles: 512,
        environments: 1, // the declared environment — comparable to BENCH_commit_depth.json
        // Depth-4 commit lanes cost ~4.5x this tiny design's baseline area;
        // keep them in scope so the depth trade stays visible in the front.
        max_area_ratio: 6.0,
        ..ExploreOptions::default()
    }
}

fn json_point(out: &mut String, indent: &str, point: &ParetoPoint, comma: bool) {
    let comma = if comma { "," } else { "" };
    let _ = writeln!(
        out,
        "{indent}{{ \"config\": \"{}\", \"throughput_tokens_per_cycle\": {:.4}, \
         \"area_ge\": {:.1}, \"cycle_time\": {:.1}, \"effective_cycle_time\": {:.3}, \
         \"throughput_per_area\": {:.6} }}{comma}",
        point.config.label(),
        point.throughput,
        point.area,
        point.latency,
        point.effective_cycle_time(),
        point.throughput_per_area(),
    );
}

fn json_front(out: &mut String, report: &ExploreReport) {
    let _ = writeln!(
        out,
        "    \"baseline\": {{ \"throughput_tokens_per_cycle\": {:.4}, \"area_ge\": {:.1}, \
         \"cycle_time\": {:.1}, \"effective_cycle_time\": {:.3} }},",
        report.baseline.throughput,
        report.baseline.area,
        report.baseline.latency,
        report.baseline.latency / report.baseline.throughput,
    );
    let _ = writeln!(out, "    \"front\": [");
    for (index, point) in report.front.iter().enumerate() {
        json_point(out, "      ", point, index + 1 != report.front.len());
    }
    let _ = writeln!(out, "    ],");
    let counts = report.pruned.counts();
    let _ = writeln!(
        out,
        "    \"accounting\": {{ \"candidates\": {}, \"front\": {}, \"dominated\": {}, \
         \"skipped\": {}, \"pruned_area_bound\": {}, \"pruned_short_horizon\": {} }},",
        report.candidates_enumerated,
        report.front.len(),
        report.dominated.len(),
        report.skipped.len(),
        counts[0].1,
        counts[1].1,
    );
}

fn print_summary(label: &str, report: &ExploreReport) {
    println!("\n== {label} ==");
    println!(
        "baseline: {:.4} tok/cyc, {:.0} GE, cycle time {:.1}",
        report.baseline.throughput, report.baseline.area, report.baseline.latency
    );
    for note in &report.notes {
        println!("  {note}");
    }
    for point in &report.front {
        println!(
            "  front: {} -> {:.4} tok/cyc, {:.0} GE, ect {:.2}",
            point.config.label(),
            point.throughput,
            point.area,
            point.effective_cycle_time()
        );
    }
}

fn main() {
    let write = std::env::args().any(|arg| arg == "--write")
        || std::env::var("ELASTIC_BENCH_WRITE").is_ok_and(|v| v == "1");

    // 1. fig1a select loop, predictable select (the paper's fig1 workload).
    let handles = build_fig1(&Fig1Scenario {
        variant: Fig1Variant::NonSpeculative,
        taken_rate: 0.05,
        scheduler: SchedulerKind::LastTaken,
        cycles: 2048,
        seed: 42,
    });
    let fig1 = explore(
        &handles.netlist,
        &ExploreOptions {
            cycles: 2048,
            short_cycles: 256,
            environments: 1,
            ..ExploreOptions::default()
        },
    )
    .expect("fig1a explores");
    assert_eq!(fig1.accounted(), fig1.candidates_enumerated);
    let fig1_baseline_ect = fig1.baseline.latency / fig1.baseline.throughput;
    let fig1_best_ect =
        fig1.front.iter().map(ParetoPoint::effective_cycle_time).fold(f64::INFINITY, f64::min);
    assert!(
        fig1_best_ect < fig1_baseline_ect,
        "the explorer must beat the fig1a baseline on effective cycle time"
    );
    print_summary("fig1a select loop (taken rate 0.05)", &fig1);

    // 2. Feed-forward, biased consumer: explorer pick vs the hand-picked
    //    commit-depth configurations.
    let biased = feedforward(DataStream::List(vec![0, 0, 0, 0, 0, 0, 1, 0]));
    let biased_report = explore(&biased, &feedforward_options()).expect("biased explores");
    assert_eq!(biased_report.accounted(), biased_report.candidates_enumerated);
    let explorer_pick = biased_report.best_per_area().expect("non-empty front").clone();
    // The hand-picked PR-5 winner (depth-2, last-taken) is in the same
    // report's scored set — the explorer keeps dominated points visible.
    let hand_pick = biased_report
        .front
        .iter()
        .chain(biased_report.dominated.iter())
        .find(|p| p.config.commit_depth == 2 && p.config.scheduler == SchedulerKind::LastTaken)
        .expect("the hand-picked depth-2 last-taken config is scored")
        .clone();
    assert!(
        explorer_pick.throughput_per_area() >= hand_pick.throughput_per_area(),
        "the explorer pick ({}, {:.6}/GE) must match or beat the hand-picked config ({}, \
         {:.6}/GE)",
        explorer_pick.config.label(),
        explorer_pick.throughput_per_area(),
        hand_pick.config.label(),
        hand_pick.throughput_per_area(),
    );
    print_summary("feed-forward, biased select (PR-5 workload)", &biased_report);
    println!(
        "explorer pick {} @ {:.6} tok/cyc/GE vs hand-picked {} @ {:.6} tok/cyc/GE",
        explorer_pick.config.label(),
        explorer_pick.throughput_per_area(),
        hand_pick.config.label(),
        hand_pick.throughput_per_area(),
    );

    // 3. Feed-forward, adversarial select.
    let adversarial = feedforward(DataStream::Random { seed: 0xD1CE });
    let adversarial_report =
        explore(&adversarial, &feedforward_options()).expect("adversarial explores");
    assert_eq!(adversarial_report.accounted(), adversarial_report.candidates_enumerated);
    print_summary("feed-forward, adversarial random select", &adversarial_report);

    // 4. Generated loop corpus: accounting over a fixed seed slice.
    let loop_seeds: Vec<u64> = (0..4).map(|i| 0x5EED_0002_0000u64 + i).collect();
    let mut loops = Vec::new();
    for &seed in &loop_seeds {
        let generated = generate(seed, &GenConfig::loops());
        let report = explore(
            &generated.netlist,
            &ExploreOptions {
                cycles: 256,
                short_cycles: 64,
                environments: 2,
                seed,
                verify: false, // accounting slice; soundness is the harness stage's job
                ..ExploreOptions::default()
            },
        )
        .expect("generated loop design explores");
        assert_eq!(report.accounted(), report.candidates_enumerated);
        println!(
            "loop seed {seed:#x}: {} candidates, {} front, {} dominated, {} skipped, {} pruned",
            report.candidates_enumerated,
            report.front.len(),
            report.dominated.len(),
            report.skipped.len(),
            report.pruned.total(),
        );
        loops.push((seed, report));
    }

    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"benchmark\": \"explore\",\n");
    out.push_str(
        "  \"description\": \"Auto-speculation design-space exploration: the explorer \
         enumerates speculation candidates (site x commit depth x scheduler, including the \
         confidence-throttled policy), applies each via the atomic speculate pass, scores \
         steady-state throughput against the cost model's area/cycle-time estimate, and \
         returns a battery-verified Pareto front. Measured with `cargo run --release \
         --example explore`. Sections: the fig1a select loop (taken rate 0.05), where \
         the front must beat the baseline on effective cycle time (cycle time per token, the \
         paper's figure of merit); the commit-depth benchmark's biased feed-forward workload, \
         where the explorer pick must match or beat the hand-picked depth-2 last-taken config \
         in throughput per area (both assertions run in the example itself); the adversarial \
         random-select variant; and an accounting slice over generated loop designs. \
         Environment count is 1 on the feed-forward sections so figures are directly \
         comparable to BENCH_commit_depth.json.\",\n",
    );
    out.push_str(
        "  \"hardware_note\": \"Container CPU; scores are simulated-cycle ratios, so only the \
         fronts and accounting matter, not wall-clock.\",\n",
    );

    out.push_str("  \"fig1a_select_loop\": {\n");
    json_front(&mut out, &fig1);
    let _ = writeln!(
        out,
        "    \"effective_cycle_time\": {{ \"baseline\": {:.3}, \"best_front\": {:.3}, \
         \"improvement\": {:.3} }}",
        fig1_baseline_ect,
        fig1_best_ect,
        fig1_baseline_ect / fig1_best_ect,
    );
    out.push_str("  },\n");

    out.push_str("  \"feedforward_biased\": {\n");
    json_front(&mut out, &biased_report);
    out.push_str("    \"explorer_pick\":\n");
    json_point(&mut out, "      ", &explorer_pick, true);
    out.push_str("    \"hand_picked_pr5\":\n");
    json_point(&mut out, "      ", &hand_pick, true);
    let _ = writeln!(
        out,
        "    \"explorer_beats_hand_pick_per_area\": {}",
        explorer_pick.throughput_per_area() >= hand_pick.throughput_per_area(),
    );
    out.push_str("  },\n");

    out.push_str("  \"feedforward_adversarial\": {\n");
    json_front(&mut out, &adversarial_report);
    let _ = writeln!(
        out,
        "    \"note\": \"unbiased random select: wrong-path work dominates, so the front is \
         where speculation earns (or fails to earn) its area here\""
    );
    out.push_str("  },\n");

    out.push_str("  \"generated_loops\": [\n");
    for (index, (seed, report)) in loops.iter().enumerate() {
        let comma = if index + 1 == loops.len() { "" } else { "," };
        let counts = report.pruned.counts();
        let _ = writeln!(
            out,
            "    {{ \"seed\": \"{seed:#x}\", \"candidates\": {}, \"front\": {}, \
             \"dominated\": {}, \"skipped\": {}, \"pruned_area_bound\": {}, \
             \"pruned_short_horizon\": {} }}{comma}",
            report.candidates_enumerated,
            report.front.len(),
            report.dominated.len(),
            report.skipped.len(),
            counts[0].1,
            counts[1].1,
        );
    }
    out.push_str("  ]\n");
    out.push_str("}\n");

    if write {
        std::fs::write("BENCH_explore.json", &out).expect("write BENCH_explore.json");
        println!("\nwrote BENCH_explore.json");
    } else {
        println!("\n(dry run; pass --write to rewrite BENCH_explore.json)");
    }
}
