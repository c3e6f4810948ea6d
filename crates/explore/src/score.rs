//! Scoring: static cost queries plus scalar throughput measurement.
//!
//! The dynamic score of a candidate is its steady-state token throughput,
//! averaged over a deterministic grid of sink back-pressure environments.
//! Environment 0 is always the design's own declared environment; the rest
//! are derived from the explorer seed and the sink's *name* (never its node
//! id), so the same grid applies to the baseline and to every transformed
//! clone, and a score is a pure function of `(netlist, seed, cycles)` —
//! bit-for-bit reproducible regardless of worker count or candidate order.
//!
//! [`measure`] builds one scalar [`Simulation`] per call (trace off,
//! event-driven settle) and replays every environment of the grid on that
//! build through [`Simulation::reset_with_sink_patterns`], so scoring `E`
//! environments costs one build and `E` runs. Grids are a handful of
//! environments (two in the service, four by default), which is why this
//! beats packing them into a 64-lane block: the lane engine would run every
//! source, sink, shared module and commit stage for all 64 lanes.

use elastic_analysis::cost::CostModel;
use elastic_analysis::timing;
use elastic_core::kind::BackpressurePattern;
use elastic_core::mix::{fnv, splitmix64};
use elastic_core::{Netlist, NodeId, NodeKind};
use elastic_sim::{SettleStrategy, SimConfig, Simulation, SimulationReport};

/// The deterministic environment grid a design is scored under.
#[derive(Debug, Clone, PartialEq)]
pub struct EnvironmentGrid {
    /// Sink instance names, sorted; resolved against each netlist by name so
    /// the grid survives the clone-and-transform cycle.
    pub sinks: Vec<String>,
    /// `variations[e][s]` is the back-pressure pattern of sink `s` in
    /// environment `e`. Environment 0 keeps every sink's declared pattern.
    pub variations: Vec<Vec<BackpressurePattern>>,
}

/// Builds the scoring grid of `netlist`: `environments` sink back-pressure
/// variations (clamped to at least 1), the first being the declared
/// environment.
pub fn environment_grid(netlist: &Netlist, environments: usize, seed: u64) -> EnvironmentGrid {
    let mut sinks: Vec<(String, BackpressurePattern)> = netlist
        .live_nodes()
        .filter_map(|node| match &node.kind {
            NodeKind::Sink(spec) => Some((node.name.clone(), spec.backpressure.clone())),
            _ => None,
        })
        .collect();
    sinks.sort_by(|a, b| a.0.cmp(&b.0));

    let environments = environments.max(1);
    let mut variations = Vec::with_capacity(environments);
    variations.push(sinks.iter().map(|(_, declared)| declared.clone()).collect());
    for e in 1..environments {
        let row = sinks
            .iter()
            .map(|(name, _)| {
                let h = splitmix64(seed ^ splitmix64(fnv(name.as_bytes())) ^ e as u64);
                if e % 2 == 1 {
                    BackpressurePattern::Every(2 + (h % 4) as u32)
                } else {
                    let probability = 0.15 + ((h >> 8) & 0xFF) as f64 / 255.0 * 0.45;
                    BackpressurePattern::Random { probability, seed: h }
                }
            })
            .collect();
        variations.push(row);
    }
    EnvironmentGrid { sinks: sinks.into_iter().map(|(name, _)| name).collect(), variations }
}

/// Static (simulation-free) cost of a design: total area and cycle time.
pub fn static_cost(netlist: &Netlist, model: &CostModel) -> (f64, f64) {
    let area = model.netlist_area(netlist).total();
    let latency = timing::analyze(netlist, model).cycle_time;
    (area, latency)
}

/// Aggregate commit-stage activity of one measured design (summed over
/// stages; peak occupancy averaged), recorded from the design's own
/// environment (grid environment 0).
#[derive(Debug, Clone, PartialEq)]
pub struct CommitSummary {
    /// Tokens committed in operand order across all stages.
    pub commits: u64,
    /// Wrong-path results squashed in place across all stages.
    pub squashes: u64,
    /// Mean of the per-stage mean peak lane occupancies, when any stage
    /// reported one.
    pub mean_peak_occupancy: Option<f64>,
}

fn summarize_commits(report: &SimulationReport) -> Option<CommitSummary> {
    if report.commit_stats.is_empty() {
        return None;
    }
    let commits = report.commit_stats.values().map(|s| s.total_commits()).sum();
    let squashes = report.commit_stats.values().map(|s| s.total_squashes()).sum();
    let peaks: Vec<f64> =
        report.commit_stats.values().filter_map(|s| s.mean_peak_occupancy()).collect();
    let mean_peak_occupancy =
        if peaks.is_empty() { None } else { Some(peaks.iter().sum::<f64>() / peaks.len() as f64) };
    Some(CommitSummary { commits, squashes, mean_peak_occupancy })
}

/// Result of one throughput measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Measured {
    /// Mean sink throughput (tokens per cycle, summed over sinks) across the
    /// environment grid.
    pub throughput: f64,
    /// Per-environment throughput, in grid order.
    pub per_env: Vec<f64>,
    /// Commit-stage activity under the declared environment (`None` when the
    /// design has no commit stage).
    pub commit: Option<CommitSummary>,
}

/// Measures `netlist` for `cycles` under every environment of `grid`.
///
/// # Errors
///
/// Returns the (stringified) simulation failure of the build, or of the
/// first environment that failed to run — callers surface it as a skipped
/// candidate, never a panic.
pub fn measure(netlist: &Netlist, grid: &EnvironmentGrid, cycles: u64) -> Result<Measured, String> {
    let sink_ids: Vec<NodeId> =
        grid.sinks.iter().filter_map(|name| netlist.find_node(name).map(|node| node.id)).collect();
    if sink_ids.len() != grid.sinks.len() {
        return Err("a grid sink is missing from the netlist".to_string());
    }
    let config = SimConfig { record_trace: false, settle: SettleStrategy::EventDriven };
    let mut sim = Simulation::new(netlist, &config).map_err(|e| e.to_string())?;

    let mut per_env = Vec::with_capacity(grid.variations.len());
    let mut commit = None;
    for (env, row) in grid.variations.iter().enumerate() {
        let overrides: Vec<(NodeId, BackpressurePattern)> =
            sink_ids.iter().copied().zip(row.iter().cloned()).collect();
        sim.reset_with_sink_patterns(&overrides);
        let report = sim.run(cycles).map_err(|e| e.to_string())?;
        let transfers: u64 = sink_ids.iter().map(|&id| report.sink_transfers(id)).sum();
        per_env.push(transfers as f64 / cycles as f64);
        if env == 0 {
            commit = summarize_commits(&report);
        }
    }
    let throughput = per_env.iter().sum::<f64>() / per_env.len() as f64;
    Ok(Measured { throughput, per_env, commit })
}

#[cfg(test)]
mod tests {
    use super::*;
    use elastic_core::library::{fig1a, Fig1Config};

    #[test]
    fn the_fig1a_grid_is_pinned() {
        // Explorer scores and the service's cached explore reports depend on
        // the grid a seed derives: it must never drift.
        let grid = environment_grid(&fig1a(&Fig1Config::default()).netlist, 4, 7);
        assert_eq!(
            grid,
            EnvironmentGrid {
                sinks: vec!["sink".to_string()],
                variations: vec![
                    vec![BackpressurePattern::Never],
                    vec![BackpressurePattern::Every(4)],
                    vec![BackpressurePattern::Random {
                        probability: 0.16411764705882353,
                        seed: 0xf8c9_fcef_12e6_08e9,
                    }],
                    vec![BackpressurePattern::Every(2)],
                ],
            }
        );
    }

    #[test]
    fn the_grid_keeps_the_declared_environment_first_and_is_seed_deterministic() {
        let handles = fig1a(&Fig1Config::default());
        let a = environment_grid(&handles.netlist, 4, 7);
        let b = environment_grid(&handles.netlist, 4, 7);
        assert_eq!(a, b, "same seed, same grid");
        assert_eq!(a.variations.len(), 4);
        let declared: Vec<BackpressurePattern> = handles
            .netlist
            .live_nodes()
            .filter_map(|n| match &n.kind {
                NodeKind::Sink(spec) => Some(spec.backpressure.clone()),
                _ => None,
            })
            .collect();
        assert_eq!(a.variations[0], declared);
        let c = environment_grid(&handles.netlist, 4, 8);
        assert_ne!(a.variations[1..], c.variations[1..], "different seed, different grid");
    }

    #[test]
    fn measurement_is_bit_for_bit_reproducible() {
        let handles = fig1a(&Fig1Config::default());
        let grid = environment_grid(&handles.netlist, 4, 0);
        let a = measure(&handles.netlist, &grid, 256).unwrap();
        let b = measure(&handles.netlist, &grid, 256).unwrap();
        assert_eq!(a, b);
        assert!(a.throughput > 0.0);
        assert_eq!(a.per_env.len(), 4);
    }

    #[test]
    fn a_seventy_environment_grid_scores_every_environment() {
        let handles = fig1a(&Fig1Config::default());
        let grid = environment_grid(&handles.netlist, 70, 3);
        let measured = measure(&handles.netlist, &grid, 64).unwrap();
        assert_eq!(measured.per_env.len(), 70);
        assert!(measured.per_env.iter().all(|t| t.is_finite()));
    }
}
