//! Simulation reports: throughput, transfer streams, prediction statistics.

use std::collections::BTreeMap;

use elastic_core::NodeId;

use crate::faults::FaultStats;

/// Statistics of one speculative shared module over a simulation run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SharedModuleStats {
    /// Cycles in which a misprediction was detected.
    pub mispredictions: u64,
}

/// Statistics of one in-order commit stage over a simulation run.
///
/// The per-lane **peak occupancy** is the run-ahead the scheduler actually
/// achieved: a commit stage of depth `d` lets up to `d` speculative results
/// park per lane ahead of the resolution point, and the peak records how much
/// of that head-room a given workload ever used — the empirical side of the
/// depth-dependent area/occupancy model in `elastic-analysis`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CommitStageStats {
    /// Configured per-lane FIFO depth.
    pub depth: u32,
    /// Results committed (delivered in operand order) per lane.
    pub commits_per_lane: Vec<u64>,
    /// Wrong-path results squashed in place per lane.
    pub squashes_per_lane: Vec<u64>,
    /// Highest simultaneous occupancy each lane ever reached.
    pub peak_occupancy_per_lane: Vec<u64>,
}

impl CommitStageStats {
    /// Total results committed across all lanes.
    pub fn total_commits(&self) -> u64 {
        self.commits_per_lane.iter().sum()
    }

    /// Total wrong-path results squashed across all lanes.
    pub fn total_squashes(&self) -> u64 {
        self.squashes_per_lane.iter().sum()
    }

    /// Mean of the per-lane peak occupancies; `None` for a lane-less stage.
    pub fn mean_peak_occupancy(&self) -> Option<f64> {
        if self.peak_occupancy_per_lane.is_empty() {
            None
        } else {
            Some(
                self.peak_occupancy_per_lane.iter().sum::<u64>() as f64
                    / self.peak_occupancy_per_lane.len() as f64,
            )
        }
    }
}

/// Summary of one simulation run.
#[derive(Debug, Clone, Default)]
pub struct SimulationReport {
    /// Number of simulated cycles.
    pub cycles: u64,
    /// Settle iterations accumulated over all cycles: worklist pops for the
    /// event-driven engine, full sweeps for the reference engine. Exposed so
    /// that the asymptotic win of the worklist settle phase is observable.
    pub settle_iterations: u64,
    /// [`crate::controller::Controller::eval`] invocations accumulated over
    /// all cycles.
    pub controller_evals: u64,
    /// Heap bytes held by the recorded trace (bit-planes plus data columns;
    /// 0 when tracing is disabled). Together with
    /// [`SimulationReport::trace_bytes_per_cycle`] this is the observable
    /// behind the trace-memory numbers of `BENCH_trace_mem.json`.
    pub trace_bytes: u64,
    /// Transfer streams observed at each sink: `(cycle, value)` pairs.
    pub sink_streams: BTreeMap<NodeId, Vec<(u64, u64)>>,
    /// Per-shared-module speculation statistics.
    pub shared_stats: BTreeMap<NodeId, SharedModuleStats>,
    /// Per-commit-stage lane statistics (commits, squashes, peak occupancy).
    pub commit_stats: BTreeMap<NodeId, CommitStageStats>,
    /// Fault-injection counters (all zero when no [`crate::faults::FaultPlan`]
    /// was armed — a clean run).
    pub faults: FaultStats,
    /// `true` when the run was cut short by the wall-clock watchdog of
    /// [`crate::Simulation::run_with_deadline`]; the report then covers only
    /// the cycles that completed.
    pub deadline_exceeded: bool,
}

impl SimulationReport {
    /// Number of tokens accepted by the given sink.
    pub fn sink_transfers(&self, sink: NodeId) -> u64 {
        self.sink_streams.get(&sink).map(|s| s.len() as u64).unwrap_or(0)
    }

    /// The values accepted by the given sink, in transfer order.
    pub fn sink_values(&self, sink: NodeId) -> Vec<u64> {
        self.sink_streams
            .get(&sink)
            .map(|stream| stream.iter().map(|&(_, value)| value).collect())
            .unwrap_or_default()
    }

    /// Throughput at the given sink in tokens per cycle.
    pub fn throughput(&self, sink: NodeId) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.sink_transfers(sink) as f64 / self.cycles as f64
        }
    }

    /// Total mispredictions across all shared modules.
    pub fn total_mispredictions(&self) -> u64 {
        self.shared_stats.values().map(|s| s.mispredictions).sum()
    }

    /// Total wrong-path results squashed across all commit stages.
    pub fn total_squashes(&self) -> u64 {
        self.commit_stats.values().map(|s| s.total_squashes()).sum()
    }

    /// The first behavioural field in which `self` and `other` differ —
    /// checked in the order cycle count, sink transfer streams,
    /// shared-module statistics, commit-stage statistics — or `None` when
    /// they agree on all of them. This is what two engines simulating the
    /// same scenario must agree on; effort counters, trace size, fault
    /// counters and the deadline flag describe how a run was computed and
    /// are not compared. Every field is named here as one or the other, so
    /// a new field does not compile until it is classified.
    pub fn behavioural_difference(&self, other: &SimulationReport) -> Option<&'static str> {
        let SimulationReport {
            cycles,
            sink_streams,
            shared_stats,
            commit_stats,
            settle_iterations: _,
            controller_evals: _,
            trace_bytes: _,
            faults: _,
            deadline_exceeded: _,
        } = self;
        [
            ("cycle counts", *cycles == other.cycles),
            ("sink transfer streams", *sink_streams == other.sink_streams),
            ("shared-module statistics", *shared_stats == other.shared_stats),
            ("commit-stage statistics", *commit_stats == other.commit_stats),
        ]
        .into_iter()
        .find(|&(_, equal)| !equal)
        .map(|(field, _)| field)
    }

    /// Trace memory per simulated cycle in bytes (0 when tracing was off).
    pub fn trace_bytes_per_cycle(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.trace_bytes as f64 / self.cycles as f64
        }
    }

    /// Renders a short human-readable summary.
    pub fn summary(&self) -> String {
        let sinks: Vec<String> = self
            .sink_streams
            .iter()
            .map(|(sink, stream)| {
                format!("{sink}: {} transfers ({:.3}/cycle)", stream.len(), self.throughput(*sink))
            })
            .collect();
        format!(
            "{} cycles; sinks [{}]; {} misprediction(s)",
            self.cycles,
            sinks.join(", "),
            self.total_mispredictions()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_is_transfers_over_cycles() {
        let mut report = SimulationReport { cycles: 100, ..SimulationReport::default() };
        let sink = NodeId::new(3);
        report.sink_streams.insert(sink, (0..50).map(|i| (i, i)).collect());
        assert_eq!(report.sink_transfers(sink), 50);
        assert!((report.throughput(sink) - 0.5).abs() < 1e-9);
        assert_eq!(report.sink_values(sink).len(), 50);
        assert_eq!(report.throughput(NodeId::new(9)), 0.0);
    }

    #[test]
    fn trace_bytes_per_cycle_divides_by_the_cycle_count() {
        let report =
            SimulationReport { cycles: 100, trace_bytes: 1600, ..SimulationReport::default() };
        assert!((report.trace_bytes_per_cycle() - 16.0).abs() < 1e-9);
        assert_eq!(SimulationReport::default().trace_bytes_per_cycle(), 0.0);
    }

    #[test]
    fn commit_stats_aggregate_lanes() {
        let stats = CommitStageStats {
            depth: 4,
            commits_per_lane: vec![10, 6],
            squashes_per_lane: vec![2, 3],
            peak_occupancy_per_lane: vec![4, 2],
        };
        assert_eq!(stats.total_commits(), 16);
        assert_eq!(stats.total_squashes(), 5);
        assert!((stats.mean_peak_occupancy().unwrap() - 3.0).abs() < 1e-9);
        assert_eq!(CommitStageStats::default().mean_peak_occupancy(), None);

        let mut report = SimulationReport::default();
        report.commit_stats.insert(NodeId::new(7), stats);
        assert_eq!(report.total_squashes(), 5);
    }

    #[test]
    fn behavioural_difference_names_the_first_differing_field() {
        let base = SimulationReport { cycles: 10, ..SimulationReport::default() };
        let mut other = SimulationReport {
            settle_iterations: 99,
            controller_evals: 42,
            trace_bytes: 7,
            deadline_exceeded: true,
            ..base.clone()
        };
        other.faults.armed = 1;
        assert_eq!(
            base.behavioural_difference(&other),
            None,
            "effort, trace size, faults and the deadline are ignored"
        );
        // Each compared field, set from the last to the first: every step
        // names the newly differing field, which comes first in the order.
        other.commit_stats.insert(NodeId::new(4), CommitStageStats::default());
        assert_eq!(base.behavioural_difference(&other), Some("commit-stage statistics"));
        other.shared_stats.insert(NodeId::new(3), SharedModuleStats { mispredictions: 1 });
        assert_eq!(base.behavioural_difference(&other), Some("shared-module statistics"));
        other.sink_streams.insert(NodeId::new(2), vec![(0, 5)]);
        assert_eq!(base.behavioural_difference(&other), Some("sink transfer streams"));
        other.cycles = 11;
        assert_eq!(other.behavioural_difference(&base), Some("cycle counts"));
    }

    #[test]
    fn summary_mentions_sinks_and_mispredictions() {
        let mut report = SimulationReport { cycles: 10, ..SimulationReport::default() };
        report.sink_streams.insert(NodeId::new(1), vec![(0, 1)]);
        report.shared_stats.insert(NodeId::new(2), SharedModuleStats { mispredictions: 2 });
        let text = report.summary();
        assert!(text.contains("10 cycles"));
        assert!(text.contains("misprediction"));
        assert_eq!(report.total_mispredictions(), 2);
    }
}
