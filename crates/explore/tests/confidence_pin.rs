//! Regression pin for confidence-adaptive commit scheduling on the
//! commit-depth benchmark's workload.
//!
//! On the biased-consumer workload, unthrottled run-ahead *loses*
//! throughput at commit depth 4 versus depth 2 (deep lanes fill with
//! wrong-path results that each cost a squash round-trip). The
//! confidence-throttled scheduler (`SchedulerKind::Confidence`) recovers
//! that loss by hedging the unlikely channel on an evidence-scaled cadence —
//! and the explorer must surface exactly this picture: depth 4 with
//! throttling at least matches depth 2, while the losing unthrottled
//! depth-4 config stays visible in the dominated set.

use elastic_core::kind::{
    BackpressurePattern, DataStream, MuxSpec, SchedulerKind, SinkSpec, SourcePattern, SourceSpec,
};
use elastic_core::{Netlist, Port};
use elastic_explore::{explore, ExploreOptions, ParetoPoint, SiteKind};

/// The PR-5 biased workload: the consumer commits channel 0 seven cycles
/// out of eight, and the sink accepts in bursts (2 of every 5 cycles).
fn biased_workload() -> Netlist {
    let mut n = Netlist::new("pin_biased");
    let sel = n.add_source(
        "sel",
        SourceSpec {
            pattern: SourcePattern::Always,
            data: DataStream::List(vec![0, 0, 0, 0, 0, 0, 1, 0]),
            consume_on_kill: true,
        },
    );
    let a = n.add_source("a", SourceSpec { data: DataStream::Counter, ..SourceSpec::always() });
    let b = n.add_source("b", SourceSpec { data: DataStream::Const(0x5A), ..SourceSpec::always() });
    let mux = n.add_mux("mux", MuxSpec::lazy(2));
    let f = n.add_op("f", elastic_core::op::opaque("F", 6, 120));
    let sink = n.add_sink(
        "sink",
        SinkSpec { backpressure: BackpressurePattern::List(vec![true, true, false, false, false]) },
    );
    n.connect(Port::output(sel, 0), Port::input(mux, 0), 1).unwrap();
    n.connect(Port::output(a, 0), Port::input(mux, 1), 8).unwrap();
    n.connect(Port::output(b, 0), Port::input(mux, 2), 8).unwrap();
    n.connect(Port::output(mux, 0), Port::input(f, 0), 8).unwrap();
    n.connect(Port::output(f, 0), Port::input(sink, 0), 8).unwrap();
    n.validate().unwrap();
    n
}

fn scored(report: &elastic_explore::ExploreReport) -> Vec<&ParetoPoint> {
    report.front.iter().chain(report.dominated.iter()).collect()
}

#[test]
fn throttled_depth_4_recovers_the_depth_2_throughput_on_the_biased_workload() {
    let netlist = biased_workload();
    let options = ExploreOptions {
        cycles: 8192,
        short_cycles: 512,
        environments: 1, // exactly the declared PR-5 environment
        verify: true,
        verify_cycles: 192,
        // The depth-4 commit stage costs ~4.5x the (tiny) baseline's area;
        // the default 4x scope bound would cut it before scoring, and this
        // pin is precisely about scoring it.
        max_area_ratio: 6.0,
        ..ExploreOptions::default()
    };
    let report = explore(&netlist, &options).unwrap();
    assert_eq!(report.accounted(), report.candidates_enumerated);
    assert!(!report.front.is_empty());
    assert!(
        report.front.iter().all(|p| p.config.site == SiteKind::FeedForward),
        "the only site is the feed-forward mux"
    );

    let all = scored(&report);
    let best_at = |depth: u32| -> &ParetoPoint {
        all.iter()
            .filter(|p| p.config.commit_depth == depth)
            .reduce(|best, p| if p.throughput > best.throughput { p } else { best })
            .unwrap_or_else(|| panic!("no scored candidate at depth {depth}"))
    };

    // The carry-over: with confidence throttling in the grid, depth 4 no
    // longer loses to depth 2.
    let best_d2 = best_at(2);
    let best_d4 = best_at(4);
    assert!(
        best_d4.throughput >= best_d2.throughput - 2e-3,
        "depth 4 must recover the depth-2 throughput: d4 {} = {:.4} vs d2 {} = {:.4}",
        best_d4.config.label(),
        best_d4.throughput,
        best_d2.config.label(),
        best_d2.throughput
    );
    assert!(
        matches!(best_d4.config.scheduler, SchedulerKind::Confidence { .. }),
        "the recovery comes from the throttled scheduler, not luck: {}",
        best_d4.config.label()
    );
    // The hand-picked PR-5 best (unthrottled depth 2, last-taken) reached
    // 0.48 tok/cyc; the throttled policy beats it outright.
    assert!(
        best_d4.throughput > 0.50,
        "throttled depth 4 beats the 0.48 hand-pick ({:.4})",
        best_d4.throughput
    );

    // The losing unthrottled depth-4 config must stay *visible* in the
    // dominated set — evidence, not a silent hole.
    let unthrottled_d4 = report
        .dominated
        .iter()
        .find(|p| p.config.commit_depth == 4 && p.config.scheduler == SchedulerKind::LastTaken)
        .expect("the unthrottled depth-4 config is scored and dominated");
    assert!(
        unthrottled_d4.throughput < best_d4.throughput - 0.02,
        "unthrottled depth 4 visibly loses: {:.4} vs throttled {:.4}",
        unthrottled_d4.throughput,
        best_d4.throughput
    );

    // Commit-stage evidence rides along on scored points.
    assert!(best_d4.commit_stats.is_some(), "feed-forward speculation reports commit-stage stats");
}
