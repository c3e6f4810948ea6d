//! Scalar scoring pinned against the 64-lane scoring path it replaced.
//!
//! `elastic_explore::measure` scores a design on one scalar simulation,
//! replaying each environment of the grid through
//! `Simulation::reset_with_sink_patterns`. Before that it packed the grid
//! into one `LaneSimulation`, one environment per lane. That lane path is
//! kept here as the oracle: on generated designs from the `default`,
//! `loops` and `pipelines` presets, and on every candidate the explorer
//! enumerates and can apply to them, `measure` must report exactly the
//! same per-environment throughputs (`f64 ==`) and the same commit summary.

use elastic_core::kind::BackpressurePattern;
use elastic_core::{Netlist, NodeId};
use elastic_explore::{
    enumerate_candidates, environment_grid, measure, CommitSummary, EnvironmentGrid, ExploreOptions,
};
use elastic_gen::{generate, GenConfig};
use elastic_sim::{LaneConfig, LaneSimulation, SimulationReport, LANES};

const CYCLES: u64 = 128;
const ENVIRONMENTS: usize = 4;
const SEEDS_PER_PRESET: u64 = 3;

/// The commit summary as the lane path computed it from lane 0's report.
fn lane_commit_summary(report: &SimulationReport) -> Option<CommitSummary> {
    if report.commit_stats.is_empty() {
        return None;
    }
    let peaks: Vec<f64> =
        report.commit_stats.values().filter_map(|s| s.mean_peak_occupancy()).collect();
    Some(CommitSummary {
        commits: report.commit_stats.values().map(|s| s.total_commits()).sum(),
        squashes: report.commit_stats.values().map(|s| s.total_squashes()).sum(),
        mean_peak_occupancy: if peaks.is_empty() {
            None
        } else {
            Some(peaks.iter().sum::<f64>() / peaks.len() as f64)
        },
    })
}

/// The removed scoring path: every environment of `grid` on its own lane of
/// one 64-lane block, throughput per lane, the commit summary from lane 0.
fn lane_reference(
    netlist: &Netlist,
    grid: &EnvironmentGrid,
) -> Result<(Vec<f64>, Option<CommitSummary>), String> {
    assert!(grid.variations.len() <= LANES, "the oracle scores one lane block");
    let sink_ids: Vec<NodeId> =
        grid.sinks.iter().map(|name| netlist.find_node(name).expect("grid sink").id).collect();
    let config = LaneConfig { record_trace: false };
    let mut sim = LaneSimulation::new(netlist, &config).map_err(|e| e.to_string())?;
    let overrides: Vec<(NodeId, Vec<BackpressurePattern>)> = sink_ids
        .iter()
        .enumerate()
        .map(|(s, &id)| (id, grid.variations.iter().map(|row| row[s].clone()).collect()))
        .collect();
    sim.reset_with_lane_sink_patterns(&overrides);
    sim.run(CYCLES).map_err(|e| e.to_string())?;
    let per_env = (0..grid.variations.len())
        .map(|lane| {
            let report = sim.report(lane);
            let transfers: u64 = sink_ids.iter().map(|&id| report.sink_transfers(id)).sum();
            transfers as f64 / CYCLES as f64
        })
        .collect();
    Ok((per_env, lane_commit_summary(&sim.report(0))))
}

#[derive(Default)]
struct Tally {
    netlists: usize,
    with_commit: usize,
    failed: usize,
}

fn pin(label: &str, netlist: &Netlist, grid: &EnvironmentGrid, tally: &mut Tally) {
    tally.netlists += 1;
    match (measure(netlist, grid, CYCLES), lane_reference(netlist, grid)) {
        (Ok(scalar), Ok((per_env, commit))) => {
            assert_eq!(scalar.per_env, per_env, "{label}: per-environment throughput");
            assert_eq!(scalar.commit, commit, "{label}: commit summary");
            tally.with_commit += usize::from(commit.is_some());
        }
        (Err(_), Err(_)) => tally.failed += 1,
        (scalar, lanes) => panic!("{label}: scalar {scalar:?} against lanes {lanes:?}"),
    }
}

#[test]
fn scalar_scoring_matches_the_lane_scoring_it_replaced() {
    let presets = [
        ("default", GenConfig::default()),
        ("loops", GenConfig::loops()),
        ("pipelines", GenConfig::pipelines()),
    ];
    let options = ExploreOptions::default();
    let mut tally = Tally::default();
    for (name, config) in &presets {
        for seed in 0..SEEDS_PER_PRESET {
            let netlist = generate(seed, config).netlist;
            let grid = environment_grid(&netlist, ENVIRONMENTS, seed);
            pin(&format!("{name} seed {seed}"), &netlist, &grid, &mut tally);
            for candidate in enumerate_candidates(&netlist, &options) {
                let mut transformed = netlist.clone();
                if candidate.apply(&mut transformed).is_ok() {
                    let label = format!("{name} seed {seed}, {}", candidate.label());
                    pin(&label, &transformed, &grid, &mut tally);
                }
            }
        }
    }
    println!(
        "{} netlists scored identically, {} with a commit stage, {} failing on both paths",
        tally.netlists, tally.with_commit, tally.failed
    );
    assert!(tally.netlists > 3 * SEEDS_PER_PRESET as usize, "candidates were scored too");
    assert!(tally.with_commit > 0, "the commit summary was compared on a commit stage");
}
