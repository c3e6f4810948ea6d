//! Deadlock detection and the scheduler leads-to property.
//!
//! Section 4.1.1 of the paper requires every scheduler to satisfy the
//! *leads-to* constraint
//! `G (V+_in_i ⇒ F (V-_out_i ∨ (sel = i ∧ S+_out_i)))`: every token that
//! reaches a shared module is eventually served or cancelled. Section 4.2
//! then verifies that, under this constraint, the composed controllers are
//! deadlock-free. The checkers here verify both obligations dynamically on
//! recorded traces:
//!
//! * [`check_deadlock_freedom`] — the design keeps making progress: no run
//!   of more than the configured window of cycles passes without a sink
//!   transfer, and some sink receives a token at all;
//! * [`check_leads_to`] — no valid token at a shared-module input waits
//!   unserved (neither transferred nor cancelled) for more than a bounded
//!   horizon.
//!
//! Both are trace drivers: they walk the channel columns of a recorded run
//! and report what they find. The per-cycle rules — the sink-progress
//! window and the leads-to wait — live once in `rules.rs`, shared with the
//! streaming [`crate::monitor::ProgressMonitor`] and
//! [`crate::monitor::LeadsToMonitor`].

use std::collections::BTreeMap;
use std::fmt;

use elastic_core::{ChannelId, Netlist, NodeId, NodeKind};
use elastic_sim::{ChannelState, SimConfig, SimError, Simulation, SimulationReport, Trace};

use crate::rules::{shared_inputs, sink_inputs, LeadsToWait, ProgressWindow};
use crate::Verdict;

/// Options for the liveness checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LivenessOptions {
    /// Number of cycles to simulate.
    pub cycles: u64,
    /// Maximum number of consecutive cycles without any sink transfer before
    /// the design is considered deadlocked (when upstream work exists).
    pub progress_window: usize,
    /// Horizon within which a waiting shared-module token must be served or
    /// cancelled.
    pub leads_to_horizon: usize,
}

impl Default for LivenessOptions {
    fn default() -> Self {
        LivenessOptions { cycles: 400, progress_window: 96, leads_to_horizon: 96 }
    }
}

/// Runs the design and checks that sinks keep receiving tokens.
///
/// # Errors
///
/// Propagates simulation failures.
pub fn check_deadlock_freedom(
    netlist: &Netlist,
    options: &LivenessOptions,
) -> Result<Verdict, SimError> {
    let mut sim = Simulation::new(netlist, &SimConfig::default())?;
    let report = sim.run(options.cycles)?;
    Ok(deadlock_freedom_on_run(netlist, sim.trace(), &report, options))
}

/// The trace driver of the sink-progress window: checks deadlock freedom on
/// a finished run, given its trace and its report.
pub(crate) fn deadlock_freedom_on_run(
    netlist: &Netlist,
    trace: &Trace,
    report: &SimulationReport,
    options: &LivenessOptions,
) -> Verdict {
    let mut verdict = Verdict::default();
    // One streaming cursor per sink channel, advanced in lock-step — no
    // per-cycle map lookups, no materialised histories.
    let mut sinks: Vec<_> =
        sink_inputs(netlist).map(|(_, channel)| trace.channel_iter(channel.id)).collect();
    if sinks.is_empty() {
        verdict.reject("the design has no sinks; progress cannot be observed");
        return verdict;
    }
    let mut window = ProgressWindow::default();
    for cycle in 0..trace.len() {
        if window.stalled(sinks.iter_mut().filter_map(Iterator::next), options.progress_window) {
            let diagnosis = diagnose_deadlock_on_trace(netlist, trace, cycle);
            verdict.reject(format!(
                "no sink transferred for {} consecutive cycles (deadlock or livelock \
                 detected around cycle {cycle}); {diagnosis}",
                options.progress_window
            ));
            break;
        }
    }
    // Sanity: the run must have delivered something at all.
    if report.sink_streams.values().all(|s| s.is_empty()) {
        verdict.reject("no sink ever received a token");
    }
    verdict
}

/// Why one node is waiting on another in the stalled wait-for graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WaitReason {
    /// The blocked node offers a token (`V+`) that the blocker stops (`S+`):
    /// a forward retry frozen in place.
    StoppedToken,
    /// The blocked node sees neither a token nor an anti-token on the
    /// channel: it starves waiting for the blocker to produce.
    AwaitingToken,
    /// The blocked node sends an anti-token (`V-`) that the blocker refuses
    /// (`S-`): a backward retry frozen in place.
    StoppedAntiToken,
}

impl WaitReason {
    /// Short description used in diagnosis rendering.
    pub fn describe(&self) -> &'static str {
        match self {
            WaitReason::StoppedToken => "token stopped",
            WaitReason::AwaitingToken => "awaiting token",
            WaitReason::StoppedAntiToken => "anti-token stopped",
        }
    }
}

/// One edge of the stalled wait-for graph: `blocked` cannot make progress
/// until `blocker` acts on `channel`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WaitEdge {
    /// The node that is stuck.
    pub blocked: NodeId,
    /// Name of the stuck node.
    pub blocked_name: String,
    /// The node it is waiting for.
    pub blocker: NodeId,
    /// Name of the node it is waiting for.
    pub blocker_name: String,
    /// The channel the wait is observed on.
    pub channel: ChannelId,
    /// Name of that channel.
    pub channel_name: String,
    /// Why the edge exists.
    pub reason: WaitReason,
}

impl fmt::Display for WaitEdge {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} waits on {} ({} on channel {} \"{}\")",
            self.blocked_name,
            self.blocker_name,
            self.reason.describe(),
            self.channel,
            self.channel_name
        )
    }
}

/// Root-cause analysis of a stalled cycle: the minimal blocking cycle of the
/// wait-for graph (or, when the graph is acyclic, its terminal blockers) plus
/// the token occupancy of every stateful node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeadlockDiagnosis {
    /// The stalled cycle that was analysed.
    pub cycle: u64,
    /// The shortest cycle of the wait-for graph — the set of nodes that
    /// mutually block each other; empty when the graph is acyclic (the stall
    /// then bottoms out in the `root_blockers`).
    pub blocking_cycle: Vec<WaitEdge>,
    /// Wait edges whose blocker is not itself waiting on anything — the
    /// terminal causes when no blocking cycle exists.
    pub root_blockers: Vec<WaitEdge>,
    /// Net token occupancy per node at the stalled cycle
    /// (`initial tokens + inbound transfers − outbound transfers`), for
    /// every node where it is non-zero. A negative count is itself
    /// diagnostic: the node lost tokens (e.g. a drop fault upstream).
    pub occupancy: Vec<(NodeId, String, i64)>,
}

impl fmt::Display for DeadlockDiagnosis {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "wait-for analysis at cycle {}: ", self.cycle)?;
        if !self.blocking_cycle.is_empty() {
            let hops: Vec<String> =
                self.blocking_cycle.iter().map(|edge| edge.to_string()).collect();
            write!(
                f,
                "minimal blocking cycle of {} node(s): {}",
                self.blocking_cycle.len(),
                hops.join("; ")
            )?;
        } else if !self.root_blockers.is_empty() {
            let hops: Vec<String> =
                self.root_blockers.iter().take(6).map(|edge| edge.to_string()).collect();
            write!(f, "no wait cycle; terminal blocker(s): {}", hops.join("; "))?;
            if self.root_blockers.len() > 6 {
                write!(f, "; +{} more", self.root_blockers.len() - 6)?;
            }
        } else {
            write!(f, "no waiting node found (the design may simply be drained)")?;
        }
        if !self.occupancy.is_empty() {
            let cells: Vec<String> = self
                .occupancy
                .iter()
                .take(8)
                .map(|(_, name, tokens)| format!("{name}={tokens}"))
                .collect();
            write!(f, "; token occupancy [{}]", cells.join(", "))?;
            if self.occupancy.len() > 8 {
                write!(f, ", +{} more", self.occupancy.len() - 8)?;
            }
        }
        Ok(())
    }
}

impl DeadlockDiagnosis {
    /// The channels implicated in the diagnosis, blocking cycle first.
    pub fn blocking_channels(&self) -> Vec<ChannelId> {
        self.blocking_cycle
            .iter()
            .chain(self.root_blockers.iter())
            .map(|edge| edge.channel)
            .collect()
    }
}

/// Walks the wait-for graph of one stalled cycle and reports the minimal
/// blocking cycle (see [`DeadlockDiagnosis`]).
///
/// `states` carries the settled channel signals of the stalled cycle and
/// `transfers` the cumulative forward-transfer count of every channel up to
/// and including it (used for the token-occupancy ledger). Channels missing
/// from the maps are treated as idle/untransferred.
pub fn diagnose_deadlock(
    netlist: &Netlist,
    states: &BTreeMap<ChannelId, ChannelState>,
    transfers: &BTreeMap<ChannelId, u64>,
    cycle: u64,
) -> DeadlockDiagnosis {
    // Build the wait-for edges from the frozen handshake of each channel.
    let mut edges: Vec<WaitEdge> = Vec::new();
    let name_of = |node: NodeId| {
        netlist.node(node).map(|n| n.name.clone()).unwrap_or_else(|| node.to_string())
    };
    for channel in netlist.live_channels() {
        let state = states.get(&channel.id).copied().unwrap_or_default();
        let producer = channel.from.node;
        let consumer = channel.to.node;
        let mut push = |blocked: NodeId, blocker: NodeId, reason: WaitReason| {
            edges.push(WaitEdge {
                blocked,
                blocked_name: name_of(blocked),
                blocker,
                blocker_name: name_of(blocker),
                channel: channel.id,
                channel_name: channel.name.clone(),
                reason,
            });
        };
        if state.forward_retry() {
            push(producer, consumer, WaitReason::StoppedToken);
        } else if !state.forward_valid && !state.backward_valid {
            push(consumer, producer, WaitReason::AwaitingToken);
        }
        if state.backward_valid && state.backward_stop {
            push(consumer, producer, WaitReason::StoppedAntiToken);
        }
    }

    // Shortest cycle in the wait-for graph: BFS from every node back to
    // itself over the edge list (the graphs here are tens of nodes).
    let mut successors: BTreeMap<NodeId, Vec<usize>> = BTreeMap::new();
    for (index, edge) in edges.iter().enumerate() {
        successors.entry(edge.blocked).or_default().push(index);
    }
    let mut best_cycle: Vec<usize> = Vec::new();
    for &start in successors.keys() {
        // BFS tree rooted at `start`; the first edge closing back on
        // `start` yields a shortest cycle through it.
        let mut parent: BTreeMap<NodeId, usize> = BTreeMap::new();
        let mut queue = std::collections::VecDeque::from([start]);
        'bfs: while let Some(node) = queue.pop_front() {
            for &edge_index in successors.get(&node).map(Vec::as_slice).unwrap_or_default() {
                let next = edges[edge_index].blocker;
                if next == start {
                    // Reconstruct the path start → … → node, then close it.
                    let mut path = vec![edge_index];
                    let mut walk = node;
                    while walk != start {
                        let up = parent[&walk];
                        path.push(up);
                        walk = edges[up].blocked;
                    }
                    path.reverse();
                    if best_cycle.is_empty() || path.len() < best_cycle.len() {
                        best_cycle = path;
                    }
                    break 'bfs;
                }
                if let std::collections::btree_map::Entry::Vacant(slot) = parent.entry(next) {
                    slot.insert(edge_index);
                    queue.push_back(next);
                }
            }
        }
        if best_cycle.len() == 1 {
            break; // A self-wait is as minimal as cycles get.
        }
    }
    let blocking_cycle: Vec<WaitEdge> =
        best_cycle.iter().map(|&index| edges[index].clone()).collect();

    // Terminal blockers: edges whose blocker is not itself waiting.
    let root_blockers: Vec<WaitEdge> = if blocking_cycle.is_empty() {
        edges.iter().filter(|edge| !successors.contains_key(&edge.blocker)).cloned().collect()
    } else {
        Vec::new()
    };

    // Token-occupancy ledger per node.
    let mut occupancy: Vec<(NodeId, String, i64)> = Vec::new();
    for node in netlist.live_nodes() {
        let initial = match &node.kind {
            NodeKind::Buffer(spec) => i64::from(spec.init_tokens),
            _ => 0,
        };
        let inbound: i64 = netlist
            .input_channels(node.id)
            .iter()
            .map(|c| *transfers.get(&c.id).unwrap_or(&0) as i64)
            .sum();
        let outbound: i64 = netlist
            .output_channels(node.id)
            .iter()
            .map(|c| *transfers.get(&c.id).unwrap_or(&0) as i64)
            .sum();
        let tokens = initial + inbound - outbound;
        if tokens != 0 {
            occupancy.push((node.id, node.name.clone(), tokens));
        }
    }

    DeadlockDiagnosis { cycle, blocking_cycle, root_blockers, occupancy }
}

/// [`diagnose_deadlock`] fed from a recorded trace: reconstructs the signal
/// snapshot and the cumulative transfer counts at `cycle` by streaming each
/// channel's history once.
pub fn diagnose_deadlock_on_trace(
    netlist: &Netlist,
    trace: &Trace,
    cycle: usize,
) -> DeadlockDiagnosis {
    let mut states = BTreeMap::new();
    let mut transfers = BTreeMap::new();
    for channel in netlist.live_channels() {
        let mut count = 0u64;
        let mut snapshot = ChannelState::default();
        for (index, state) in trace.channel_iter(channel.id).take(cycle + 1).enumerate() {
            if state.forward_transfer() {
                count += 1;
            }
            if index == cycle {
                snapshot = state;
            }
        }
        states.insert(channel.id, snapshot);
        transfers.insert(channel.id, count);
    }
    diagnose_deadlock(netlist, &states, &transfers, cycle as u64)
}

/// Checks the leads-to property on every shared module of the design.
///
/// # Errors
///
/// Propagates simulation failures.
pub fn check_leads_to(netlist: &Netlist, options: &LivenessOptions) -> Result<Verdict, SimError> {
    let mut sim = Simulation::new(netlist, &SimConfig::default())?;
    sim.run(options.cycles)?;
    Ok(check_leads_to_on_trace(netlist, sim.trace(), options))
}

/// Trace-level leads-to check (exposed for callers that already have a trace):
/// the trace driver of the leads-to wait, which reports every overdue wait
/// at every shared-module user input.
pub fn check_leads_to_on_trace(
    netlist: &Netlist,
    trace: &Trace,
    options: &LivenessOptions,
) -> Verdict {
    let mut verdict = Verdict::default();
    for (node, user, channel) in shared_inputs(netlist) {
        let mut wait = LeadsToWait::default();
        for (cycle, state) in trace.channel_iter(channel.id).enumerate() {
            if let Some(since) = wait.overdue(cycle as u64, state, options.leads_to_horizon as u64)
            {
                verdict.reject(format!(
                    "shared module {} starves user {user} (channel {}): a token has waited \
                     since cycle {since}",
                    node.name, channel.name
                ));
            }
        }
    }
    verdict
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use elastic_core::library::{fig1d, Fig1Config};
    use elastic_core::{Port, SchedulerKind};

    #[test]
    fn the_speculative_fig1_design_is_deadlock_free_and_fair() {
        let handles = fig1d(&Fig1Config::default());
        let options = LivenessOptions::default();
        assert!(check_deadlock_freedom(&handles.netlist, &options).unwrap().passed());
        assert!(check_leads_to(&handles.netlist, &options).unwrap().passed());
    }

    #[test]
    fn even_an_always_wrong_static_scheduler_stays_live() {
        // The starvation override of the shared-module controller guarantees
        // the leads-to property for any scheduler (Section 4.1.1).
        let config = Fig1Config { scheduler: SchedulerKind::Static(1), ..Fig1Config::default() };
        let handles = fig1d(&config);
        let options = LivenessOptions::default();
        assert!(check_deadlock_freedom(&handles.netlist, &options).unwrap().passed());
        assert!(check_leads_to(&handles.netlist, &options).unwrap().passed());
    }

    /// Figure 1(d) with its sink stalled forever: the loop fills up and a
    /// token at the shared module's user-0 input waits from cycle 1 on.
    pub(crate) fn stalled_sink_fig1d() -> Netlist {
        use elastic_core::kind::{BackpressurePattern, SinkSpec};
        let handles = fig1d(&Fig1Config::default());
        let mut netlist = handles.netlist;
        netlist.node_mut(handles.sink).unwrap().kind =
            NodeKind::Sink(SinkSpec { backpressure: BackpressurePattern::List(vec![true]) });
        netlist
    }

    #[test]
    fn a_starved_shared_input_fails_leads_to_on_runs_under_twice_the_horizon() {
        // A wait is overdue once it exceeds the horizon, wherever it falls
        // in the run: 128 and 192 cycles (the service's and the fuzz
        // harness's run lengths) are enough at the default horizon of 96.
        use crate::monitor::LeadsToMonitor;
        use elastic_sim::CycleMonitor;
        let netlist = stalled_sink_fig1d();
        for cycles in [128, 192] {
            let options = LivenessOptions { cycles, ..LivenessOptions::default() };
            let verdict = check_leads_to(&netlist, &options).unwrap();
            assert!(!verdict.passed(), "{cycles} cycles: the starved input went unreported");

            let horizon = options.leads_to_horizon as u64;
            let mut sim = Simulation::new(&netlist, &SimConfig::default()).unwrap();
            let mut monitors: Vec<Box<dyn CycleMonitor>> =
                vec![Box::new(LeadsToMonitor::new(&netlist, horizon))];
            let Err(SimError::MonitorTripped(trip)) =
                sim.run_monitored(cycles, None, &mut monitors)
            else {
                panic!("{cycles} cycles: the leads-to monitor did not trip");
            };
            let since = trip.cycle - horizon - 1;
            assert_eq!((trip.cycle, since), (98, 1), "{trip}");
            let channel = &netlist.channel(trip.channel.unwrap()).unwrap().name;
            assert!(
                trip.details.ends_with(&format!(
                    "({channel}): a token has waited unserved since cycle {since}"
                )),
                "{trip}"
            );
            assert!(
                verdict.violations[0].ends_with(&format!(
                    "(channel {channel}): a token has waited since cycle {since}"
                )),
                "the trace checker names the monitor's channel and wait start first: {verdict}"
            );
        }
    }

    /// A loop with no initial token: it can never fire.
    pub(crate) fn token_free_loop() -> Netlist {
        let mut n = elastic_core::Netlist::new("deadlock");
        let eb = n.add_buffer("eb", elastic_core::BufferSpec::bubble());
        let f =
            n.add_function("f", elastic_core::FunctionSpec::with_inputs(elastic_core::Op::Add, 2));
        let src = n.add_source("src", elastic_core::SourceSpec::always());
        let fork = n.add_fork("fork", elastic_core::ForkSpec::eager(2));
        let sink = n.add_sink("sink", elastic_core::SinkSpec::always_ready());
        n.connect(Port::output(src, 0), Port::input(f, 0), 8).unwrap();
        n.connect(Port::output(eb, 0), Port::input(f, 1), 8).unwrap();
        n.connect(Port::output(f, 0), Port::input(fork, 0), 8).unwrap();
        n.connect(Port::output(fork, 0), Port::input(eb, 0), 8).unwrap();
        n.connect(Port::output(fork, 1), Port::input(sink, 0), 8).unwrap();
        n
    }

    #[test]
    fn a_token_free_loop_is_reported_as_deadlocked() {
        let verdict = check_deadlock_freedom(
            &token_free_loop(),
            &LivenessOptions { cycles: 80, progress_window: 32, ..LivenessOptions::default() },
        )
        .unwrap();
        assert!(!verdict.passed());
        let message = verdict.violations.join("; ");
        assert!(
            message.contains("wait-for analysis"),
            "the reject carries the root-cause diagnosis: {message}"
        );
        assert!(
            message.contains("minimal blocking cycle"),
            "the token-free loop is a true cyclic wait: {message}"
        );
    }
}
