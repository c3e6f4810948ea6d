//! Commit-depth sweep: the latency/throughput/area trade of depth-N commit
//! lanes, measured against the depth-1 baseline.
//!
//! Three measurements back `BENCH_commit_depth.json`:
//!
//! 1. **Control — fig1d-style select loop.** On a select loop the commit
//!    stage is skipped (the loop's elastic buffer already decouples the
//!    speculation), so sweeping `commit_depth` must change *nothing*: the
//!    sweep asserts the three netlists are bit-identical and reports the one
//!    loop throughput.
//! 2. **Feed-forward speculation under a bursty consumer** (predictable
//!    select, last-taken scheduler): the shape where depth matters. When the
//!    consumer stalls in bursts, a depth-d lane parks up to d speculative
//!    results ahead of the resolution point and streams them out
//!    back-to-back once the burst ends; depth 1 re-serializes on the shared
//!    module instead. Recorded per depth: sink throughput, cycles/token,
//!    mean peak lane occupancy (run-ahead actually achieved), squashes,
//!    commit-stage area and total area. The simulator's wall-clock
//!    cycles/s is printed, not recorded, so the record holds only values
//!    that repeat exactly and a diff of it is a behaviour change.
//! 3. **Adversarial variant** (unbiased random select, static scheduler):
//!    half the speculative results are wrong-path, so deep lanes mostly park
//!    squash fodder — the sweep shows the win collapsing while the area
//!    still grows, which is the honest other side of the trade.
//!
//! The headline trends of 2 and 3 are asserted before anything is written,
//! so a stale claim fails the run instead of persisting. Run with
//! `cargo run --release --example commit_depth` from the repo root; it
//! rewrites `BENCH_commit_depth.json`, which CI then checks with
//! `git diff --exit-code`.

use std::fmt::Write as _;
use std::time::Instant;

use elastic_analysis::cost::CostModel;
use elastic_analysis::critical::commit_profiles;
use elastic_core::kind::{BackpressurePattern, DataStream};
use elastic_core::library::{fig1a, Fig1Config};
use elastic_core::transform::{speculate, SpeculateOptions};
use elastic_core::{Netlist, NodeId, SchedulerKind};
use elastic_sim::{SimConfig, Simulation};
use elastic_suite::feedforward_mux_design;

const CYCLES: u64 = 20_000;
const DEPTHS: [u32; 3] = [1, 2, 4];

/// One measured design point of the feed-forward sweep.
struct DepthPoint {
    depth: u32,
    throughput: f64,
    cycles_per_token: f64,
    first_transfer_cycle: u64,
    mean_peak_occupancy: f64,
    squashes: u64,
    commit_area: f64,
    total_area: f64,
}

/// The feed-forward speculation target (the shared `elastic-suite` builder,
/// so the benchmark measures exactly the design `tests/commit_depth.rs`
/// verifies): sel/a/b sources into a lazy mux, an opaque block behind it,
/// and a consumer that stalls in bursts (2 stalled, 3 open per period).
fn feedforward(select: DataStream) -> (Netlist, NodeId, NodeId) {
    feedforward_mux_design(select, BackpressurePattern::List(vec![true, true, false, false, false]))
}

/// Simulates `netlist` and returns (report, wall-clock cycles per second).
fn run_timed(netlist: &Netlist) -> (elastic_sim::SimulationReport, f64) {
    let quiet = SimConfig { record_trace: false, ..SimConfig::default() };
    // Warm-up run, then best of 3 for the wall-clock figure.
    let mut sim = Simulation::new(netlist, &quiet).unwrap();
    let report = sim.run(CYCLES).unwrap();
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let mut sim = Simulation::new(netlist, &quiet).unwrap();
        let start = Instant::now();
        sim.run(CYCLES).unwrap();
        best = best.min(start.elapsed().as_secs_f64());
    }
    (report, CYCLES as f64 / best)
}

fn sweep(select: DataStream, scheduler: SchedulerKind, label: &str) -> (f64, Vec<DepthPoint>) {
    let model = CostModel::default();
    let (baseline, _, sink) = feedforward(select.clone());
    let (base_report, _) = run_timed(&baseline);
    let base_throughput = base_report.throughput(sink);
    println!("\n== {label} ==");
    println!("baseline (no speculation): {base_throughput:.3} tokens/cycle");

    let mut points = Vec::new();
    for depth in DEPTHS {
        let (mut n, mux, _) = feedforward(select.clone());
        let options = SpeculateOptions {
            scheduler: scheduler.clone(),
            allow_acyclic: true,
            commit_depth: depth,
            starvation_limit: Some(8),
            ..SpeculateOptions::default()
        };
        speculate(&mut n, mux, &options).unwrap();
        let sink = n.find_node("sink").unwrap().id;
        let (report, cycles_per_sec) = run_timed(&n);
        let throughput = report.throughput(sink);
        let stats = report.commit_stats.values().next().expect("one commit stage");
        let first_transfer_cycle =
            report.sink_streams.get(&sink).and_then(|s| s.first()).map(|&(c, _)| c).unwrap_or(0);
        let profiles = commit_profiles(&n, &model);
        assert_eq!(profiles.len(), 1);
        let point = DepthPoint {
            depth,
            throughput,
            cycles_per_token: if throughput > 0.0 { 1.0 / throughput } else { f64::INFINITY },
            first_transfer_cycle,
            mean_peak_occupancy: stats.mean_peak_occupancy().unwrap_or(0.0),
            squashes: stats.total_squashes(),
            commit_area: profiles[0].area,
            total_area: model.netlist_area(&n).total(),
        };
        println!(
            "depth {depth}: {:.3} tokens/cycle ({:.2} cycles/token), peak occupancy {:.2}, \
             {} squashes, commit area {:.0} GE, {:.0} sim cycles/s",
            point.throughput,
            point.cycles_per_token,
            point.mean_peak_occupancy,
            point.squashes,
            point.commit_area,
            cycles_per_sec,
        );
        points.push(point);
    }
    (base_throughput, points)
}

/// The headline: on the biased workload depth 2 delivers more than depths 1
/// and 4; on the adversarial one throughput is identical at every depth
/// while total area strictly grows.
fn assert_headline(biased: &[DepthPoint], adversarial: &[DepthPoint]) {
    let throughputs =
        |points: &[DepthPoint]| -> Vec<f64> { points.iter().map(|p| p.throughput).collect() };
    let [one, two, four] = biased else { panic!("one biased point per depth") };
    assert!(
        two.throughput > one.throughput && two.throughput > four.throughput,
        "biased workload: depth 2 must beat depths 1 and 4, got {:?}",
        throughputs(biased)
    );
    assert!(
        adversarial.windows(2).all(|pair| pair[0].throughput == pair[1].throughput),
        "adversarial workload: throughput must not depend on depth, got {:?}",
        throughputs(adversarial)
    );
    assert!(
        adversarial.windows(2).all(|pair| pair[0].total_area < pair[1].total_area),
        "adversarial workload: total area must strictly grow with depth, got {:?}",
        adversarial.iter().map(|p| p.total_area).collect::<Vec<_>>()
    );
}

fn json_sweep(out: &mut String, base_throughput: f64, points: &[DepthPoint]) {
    let depth1 = &points[0];
    let _ = writeln!(out, "    \"baseline_no_speculation\": {{ \"throughput_tokens_per_cycle\": {base_throughput:.4} }},");
    let _ = writeln!(out, "    \"depths\": {{");
    for (index, point) in points.iter().enumerate() {
        let comma = if index + 1 == points.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "      \"{}\": {{ \"throughput_tokens_per_cycle\": {:.4}, \"cycles_per_token\": {:.3}, \
             \"first_transfer_cycle\": {}, \"mean_peak_lane_occupancy\": {:.3}, \"squashes\": {}, \
             \"commit_stage_area_ge\": {:.1}, \"total_area_ge\": {:.1}, \
             \"throughput_vs_depth1\": {:.3}, \"area_vs_depth1\": {:.3} }}{comma}",
            point.depth,
            point.throughput,
            point.cycles_per_token,
            point.first_transfer_cycle,
            point.mean_peak_occupancy,
            point.squashes,
            point.commit_area,
            point.total_area,
            point.throughput / depth1.throughput,
            point.total_area / depth1.total_area,
        );
    }
    let _ = writeln!(out, "    }}");
}

fn main() {
    // 1. Control: the fig1d-style select loop ignores the depth knob.
    let loop_netlists: Vec<Netlist> = DEPTHS
        .iter()
        .map(|&depth| {
            let handles = fig1a(&Fig1Config::default());
            let mut n = handles.netlist;
            let options = SpeculateOptions {
                scheduler: SchedulerKind::LastTaken,
                commit_depth: depth,
                ..SpeculateOptions::default()
            };
            let report = speculate(&mut n, handles.mux, &options).unwrap();
            assert!(report.commit_stage.is_none(), "select loops skip the commit stage");
            n
        })
        .collect();
    assert!(
        loop_netlists.windows(2).all(|pair| pair[0] == pair[1]),
        "the loop control must be depth-independent"
    );
    let loop_sink = loop_netlists[0].find_node("sink").unwrap().id;
    let (loop_report, _) = run_timed(&loop_netlists[0]);
    let loop_throughput = loop_report.throughput(loop_sink);
    println!("== control: fig1d-style loop ==");
    println!(
        "depth 1/2/4 produce bit-identical netlists; loop throughput {loop_throughput:.3} \
         tokens/cycle"
    );

    // 2. Predictable select: a heavily biased stream (one "taken" in eight)
    //    that a last-taken predictor gets right ~75% of the time.
    let biased = DataStream::List(vec![0, 0, 0, 0, 0, 0, 1, 0]);
    let (pred_base, pred_points) =
        sweep(biased, SchedulerKind::LastTaken, "feed-forward, biased select + last-taken");
    // 3. Adversarial: an unbiased random select against a static scheduler —
    //    half of every lane's parked results are squash fodder.
    let adversarial = DataStream::Random { seed: 0xD1CE };
    let (adv_base, adv_points) =
        sweep(adversarial, SchedulerKind::Static(0), "feed-forward, adversarial static scheduler");
    assert_headline(&pred_points, &adv_points);
    println!(
        "\nheadline holds: depth 2 wins when biased; adversarial throughput is flat as area grows"
    );

    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"benchmark\": \"commit_depth\",\n");
    out.push_str(
        "  \"description\": \"Latency/throughput/area versus commit-stage depth (1, 2, 4), \
         measured with `cargo run --release --example commit_depth` (20k simulated cycles). \
         The control is a fig1d-style select loop, where the commit stage \
         is structurally skipped and the sweep asserts bit-identical netlists. The feed-forward \
         sweeps speculate a source-fed lazy mux with a bursty consumer (3-open/2-stalled \
         back-pressure period): depth-N lanes park wrong-or-right-path results ahead of the \
         resolution point, and the per-lane peak-occupancy statistic reports how much of the \
         head-room each workload used. Area comes from the elastic-analysis cost model \
         (commit-stage area is linear in lanes x depth). Two trend observations are the point: \
         under the biased workload depth 2 beats both 1 and 4 (deeper lanes speculate past the \
         periodic mispredict and pay for it in squashed work), and under the adversarial \
         scheduler throughput is depth-independent while area still grows — depth only pays \
         when prediction is decent. The unspeculated baseline row is context: feed-forward \
         speculation trades tokens/cycle for pipeline cycle time (paper Section 5.2), so its \
         throughput is not the comparison target, the depth trend is.\",\n",
    );
    let _ = writeln!(
        out,
        "  \"control_fig1d_loop\": {{ \"depth_independent\": true, \
         \"throughput_tokens_per_cycle\": {loop_throughput:.4}, \"note\": \"select-loop \
         speculation skips the commit stage; depths 1/2/4 produce bit-identical netlists (also \
         pinned by tests/commit_depth.rs)\" }},"
    );
    out.push_str("  \"feedforward_last_taken\": {\n");
    json_sweep(&mut out, pred_base, &pred_points);
    out.push_str("  },\n");
    out.push_str("  \"feedforward_adversarial_static\": {\n");
    json_sweep(&mut out, adv_base, &adv_points);
    out.push_str("  }\n");
    out.push_str("}\n");
    std::fs::write("BENCH_commit_depth.json", &out).expect("write BENCH_commit_depth.json");
    println!("\nwrote BENCH_commit_depth.json");
}
