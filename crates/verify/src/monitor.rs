//! Runtime SELF monitors: streaming, fail-fast drivers of the runtime
//! property rules.
//!
//! Each property this crate checks on a run has its per-cycle rule written
//! once (in `rules.rs`) and two drivers: the end-of-run trace checkers of
//! [`crate::properties`] and [`crate::liveness`], which walk a recorded trace
//! and collect every violation, and the monitors here. Each monitor
//! implements [`elastic_sim::CycleMonitor`], feeds every cycle row of a live
//! run through the same rule, and stops **at the violating cycle** with a
//! `(channel, cycle, invariant)` locus instead of producing a post-mortem
//! verdict thousands of cycles later:
//!
//! * [`ProtocolMonitor`] — the four SELF channel properties of
//!   [`crate::properties`] (`Retry+`, `Retry-`, `Invariant`, bounded
//!   `Liveness`), honouring the same retraction-exemption analysis for
//!   speculative producer cones;
//! * [`ProgressMonitor`] — the sink-progress window of deadlock freedom; on
//!   a stall it embeds the full wait-for root-cause analysis of
//!   [`crate::liveness::diagnose_deadlock`] in the violation;
//! * [`LeadsToMonitor`] — the scheduler leads-to wait at every shared
//!   module input;
//! * [`ScoreboardMonitor`] — output-stream integrity against a clean
//!   reference run: the detector of last resort that catches silent data
//!   corruption (bit flips, duplicated or reordered tokens) the protocol
//!   invariants cannot see. It has no trace counterpart.
//!
//! Monitors observe the dense channel vector in `live_channels()`
//! enumeration order — the indexing shared by the engine and the trace — and
//! are built from the same [`Netlist`] the simulation was built from.

use std::collections::BTreeMap;

use elastic_core::{ChannelId, Netlist, NodeId};
use elastic_sim::{ChannelState, CycleMonitor, MonitorViolation, SimulationReport};

use crate::liveness::diagnose_deadlock;
use crate::properties::{retraction_exempt_producers, ProtocolOptions};
use crate::rules::{
    shared_inputs, sink_inputs, ChannelRule, ChannelRules, LeadsToWait, ProgressWindow,
};

/// The dense index of `channel`: its position in `live_channels()`
/// enumeration order, the order the monitors observe channels in.
fn dense_index(netlist: &Netlist, channel: ChannelId) -> Option<usize> {
    netlist.live_channels().position(|candidate| candidate.id == channel)
}

/// Streaming checker of the four SELF channel properties (Section 3.1): the
/// runtime driver of the channel rules [`crate::properties::check_trace`]
/// applies, with the same retraction exemption for speculative producer
/// cones.
#[derive(Debug)]
pub struct ProtocolMonitor {
    /// Id and name per dense channel.
    channels: Vec<(ChannelId, String)>,
    /// Per dense channel: `Retry+` does not apply (speculative producer).
    exempt: Vec<bool>,
    options: ProtocolOptions,
    rules: Vec<ChannelRules>,
}

impl ProtocolMonitor {
    /// Builds the monitor for `netlist` with the given protocol options.
    pub fn new(netlist: &Netlist, options: &ProtocolOptions) -> Self {
        let exempt_producers = retraction_exempt_producers(netlist);
        let (channels, exempt): (Vec<_>, Vec<_>) = netlist
            .live_channels()
            .map(|channel| {
                ((channel.id, channel.name.clone()), exempt_producers.contains(&channel.from.node))
            })
            .unzip();
        let rules = vec![ChannelRules::default(); channels.len()];
        ProtocolMonitor { channels, exempt, options: *options, rules }
    }
}

impl CycleMonitor for ProtocolMonitor {
    fn name(&self) -> &'static str {
        "protocol"
    }

    fn observe(&mut self, cycle: u64, channels: &[ChannelState]) -> Result<(), MonitorViolation> {
        for (index, &state) in channels.iter().enumerate() {
            let rules = &mut self.rules[index];
            let mut first = None;
            rules.step(state, &self.options, !self.exempt[index], |rule| {
                first.get_or_insert(rule);
            });
            let Some(rule) = first else { continue };
            let details = match rule {
                ChannelRule::Invariant => "token killed and stopped in the same cycle".into(),
                ChannelRule::RetryPlus => "a stopped token was retracted instead of held".into(),
                ChannelRule::RetryMinus => {
                    "a stopped anti-token was retracted instead of held".into()
                }
                ChannelRule::Liveness => {
                    format!("an offered item has not transferred for {} cycles", rules.idle())
                }
            };
            return Err(MonitorViolation {
                monitor: "protocol",
                invariant: rule.property(),
                channel: Some(self.channels[index].0),
                cycle: cycle - rule.lag() as u64,
                details: format!("channel \"{}\": {details}", self.channels[index].1),
            });
        }
        Ok(())
    }

    fn reset(&mut self) {
        self.rules.fill(ChannelRules::default());
    }
}

/// Streaming deadlock-freedom checker: trips when no sink transfers for more
/// than the progress window, and embeds the wait-for root-cause analysis of
/// [`diagnose_deadlock`] — which channels wait on whose Stop/Valid, the
/// minimal blocking cycle, the token occupancy per node — in the violation.
#[derive(Debug)]
pub struct ProgressMonitor {
    netlist: Netlist,
    /// Id per dense channel.
    channels: Vec<ChannelId>,
    /// Dense indices of every sink's input channel.
    sink_channels: Vec<usize>,
    progress_window: usize,
    window: ProgressWindow,
    /// Cumulative forward transfers per dense channel (the occupancy ledger
    /// for the diagnosis).
    transfers: Vec<u64>,
}

impl ProgressMonitor {
    /// Builds the monitor; `progress_window` is the maximum number of
    /// consecutive sink-idle cycles tolerated.
    pub fn new(netlist: &Netlist, progress_window: usize) -> Self {
        let channels: Vec<ChannelId> = netlist.live_channels().map(|channel| channel.id).collect();
        let sink_channels = sink_inputs(netlist)
            .filter_map(|(_, channel)| dense_index(netlist, channel.id))
            .collect();
        let count = channels.len();
        ProgressMonitor {
            netlist: netlist.clone(),
            channels,
            sink_channels,
            progress_window,
            window: ProgressWindow::default(),
            transfers: vec![0; count],
        }
    }
}

impl CycleMonitor for ProgressMonitor {
    fn name(&self) -> &'static str {
        "progress"
    }

    fn observe(&mut self, cycle: u64, channels: &[ChannelState]) -> Result<(), MonitorViolation> {
        for (slot, state) in self.transfers.iter_mut().zip(channels.iter()) {
            if state.forward_transfer() {
                *slot += 1;
            }
        }
        let sink_states = self.sink_channels.iter().map(|&index| channels[index]);
        if !self.window.stalled(sink_states, self.progress_window) {
            return Ok(());
        }
        // Stalled: run the root-cause analysis on this cycle's snapshot.
        let states: BTreeMap<ChannelId, ChannelState> =
            self.channels.iter().copied().zip(channels.iter().copied()).collect();
        let transfers: BTreeMap<ChannelId, u64> =
            self.channels.iter().copied().zip(self.transfers.iter().copied()).collect();
        let diagnosis = diagnose_deadlock(&self.netlist, &states, &transfers, cycle);
        Err(MonitorViolation {
            monitor: "progress",
            invariant: "Progress",
            channel: diagnosis.blocking_channels().first().copied(),
            cycle,
            details: format!(
                "no sink transferred for {} consecutive cycles; {diagnosis}",
                self.window.idle()
            ),
        })
    }

    fn reset(&mut self) {
        self.window = ProgressWindow::default();
        self.transfers.iter_mut().for_each(|count| *count = 0);
    }
}

/// Streaming leads-to checker (Section 4.1.1): every valid token at a shared
/// module input must transfer or be cancelled within a bounded horizon.
#[derive(Debug)]
pub struct LeadsToMonitor {
    entries: Vec<LeadsToEntry>,
    horizon: u64,
}

#[derive(Debug)]
struct LeadsToEntry {
    dense: usize,
    channel: ChannelId,
    label: String,
    wait: LeadsToWait,
}

impl LeadsToMonitor {
    /// Builds the monitor over every user input channel of every shared
    /// module in `netlist`.
    pub fn new(netlist: &Netlist, horizon: u64) -> Self {
        let entries = shared_inputs(netlist)
            .into_iter()
            .filter_map(|(node, user, channel)| {
                Some(LeadsToEntry {
                    dense: dense_index(netlist, channel.id)?,
                    channel: channel.id,
                    label: format!("shared module {} user {user} ({})", node.name, channel.name),
                    wait: LeadsToWait::default(),
                })
            })
            .collect();
        LeadsToMonitor { entries, horizon }
    }

    /// `true` when the netlist has no shared module (the monitor is inert).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

impl CycleMonitor for LeadsToMonitor {
    fn name(&self) -> &'static str {
        "leads-to"
    }

    fn observe(&mut self, cycle: u64, channels: &[ChannelState]) -> Result<(), MonitorViolation> {
        for entry in &mut self.entries {
            if let Some(since) = entry.wait.overdue(cycle, channels[entry.dense], self.horizon) {
                return Err(MonitorViolation {
                    monitor: "leads-to",
                    invariant: "LeadsTo",
                    channel: Some(entry.channel),
                    cycle,
                    details: format!(
                        "{}: a token has waited unserved since cycle {since}",
                        entry.label
                    ),
                });
            }
        }
        Ok(())
    }

    fn reset(&mut self) {
        for entry in &mut self.entries {
            entry.wait = LeadsToWait::default();
        }
    }
}

/// Output-stream scoreboard: checks every sink's transferred values against
/// the stream a clean reference run produced.
///
/// The protocol invariants cannot see silent payload corruption — a flipped
/// data bit or a replayed token is handshake-legal. The scoreboard is the
/// detector of last resort: it trips at the **first transfer** that deviates
/// from the reference prefix, and (when `require_complete` is set) fails the
/// run at [`CycleMonitor::finish`] if any sink delivered fewer tokens than
/// the reference — together, the exact notion of "provably masked": a
/// faulted run is masked iff the scoreboard stays silent, i.e. every sink
/// reproduced the full clean stream bit-identically (extra tokens beyond the
/// reference horizon are not judged; faulted runs get extra drain cycles).
#[derive(Debug)]
pub struct ScoreboardMonitor {
    lanes: Vec<ScoreboardLane>,
    require_complete: bool,
}

#[derive(Debug)]
struct ScoreboardLane {
    sink: NodeId,
    dense: usize,
    channel: ChannelId,
    expected: Vec<u64>,
    position: usize,
}

impl ScoreboardMonitor {
    /// Builds the scoreboard from the sink streams of a clean reference
    /// report of the same netlist.
    pub fn from_reference(
        netlist: &Netlist,
        reference: &SimulationReport,
        require_complete: bool,
    ) -> Self {
        let lanes = sink_inputs(netlist)
            .filter_map(|(sink, channel)| {
                Some(ScoreboardLane {
                    sink,
                    dense: dense_index(netlist, channel.id)?,
                    channel: channel.id,
                    expected: reference.sink_values(sink),
                    position: 0,
                })
            })
            .collect();
        ScoreboardMonitor { lanes, require_complete }
    }
}

impl CycleMonitor for ScoreboardMonitor {
    fn name(&self) -> &'static str {
        "scoreboard"
    }

    fn observe(&mut self, cycle: u64, channels: &[ChannelState]) -> Result<(), MonitorViolation> {
        for lane in &mut self.lanes {
            let state = channels[lane.dense];
            if !state.forward_transfer() {
                continue;
            }
            if lane.position < lane.expected.len() {
                let expected = lane.expected[lane.position];
                if state.data != expected {
                    return Err(MonitorViolation {
                        monitor: "scoreboard",
                        invariant: "ReferenceStream",
                        channel: Some(lane.channel),
                        cycle,
                        details: format!(
                            "sink {} transfer #{} carried {:#x}, reference expects {expected:#x}",
                            lane.sink, lane.position, state.data
                        ),
                    });
                }
            }
            lane.position += 1;
        }
        Ok(())
    }

    fn finish(&mut self, cycles: u64) -> Result<(), MonitorViolation> {
        if !self.require_complete {
            return Ok(());
        }
        for lane in &self.lanes {
            if lane.position < lane.expected.len() {
                return Err(MonitorViolation {
                    monitor: "scoreboard",
                    invariant: "ReferenceStream",
                    channel: Some(lane.channel),
                    cycle: cycles.saturating_sub(1),
                    details: format!(
                        "sink {} delivered only {} of {} reference tokens by end of run",
                        lane.sink,
                        lane.position,
                        lane.expected.len()
                    ),
                });
            }
        }
        Ok(())
    }

    fn reset(&mut self) {
        for lane in &mut self.lanes {
            lane.position = 0;
        }
    }
}

/// Options for [`standard_monitors`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MonitorOptions {
    /// Options of the [`ProtocolMonitor`].
    pub protocol: ProtocolOptions,
    /// Progress window of the [`ProgressMonitor`].
    pub progress_window: usize,
    /// Horizon of the [`LeadsToMonitor`].
    pub leads_to_horizon: u64,
}

impl Default for MonitorOptions {
    fn default() -> Self {
        MonitorOptions {
            protocol: ProtocolOptions::default(),
            progress_window: 96,
            leads_to_horizon: 96,
        }
    }
}

/// The standard always-on monitor set for a netlist: protocol, progress and
/// — when the design has shared modules — leads-to. The scoreboard is not
/// included because it needs a clean reference run; build it separately with
/// [`ScoreboardMonitor::from_reference`].
pub fn standard_monitors(
    netlist: &Netlist,
    options: &MonitorOptions,
) -> Vec<Box<dyn CycleMonitor>> {
    let mut monitors: Vec<Box<dyn CycleMonitor>> = vec![
        Box::new(ProtocolMonitor::new(netlist, &options.protocol)),
        Box::new(ProgressMonitor::new(netlist, options.progress_window)),
    ];
    let leads_to = LeadsToMonitor::new(netlist, options.leads_to_horizon);
    if !leads_to.is_empty() {
        monitors.push(Box::new(leads_to));
    }
    monitors
}

#[cfg(test)]
mod tests {
    use super::*;
    use elastic_core::kind::{BufferSpec, SinkSpec, SourceSpec};
    use elastic_core::{Op, Port};
    use elastic_sim::{SimConfig, Simulation};

    /// src -> inc -> EB -> sink
    fn pipeline() -> (Netlist, NodeId) {
        let mut n = Netlist::new("pipeline");
        let src = n.add_source("src", SourceSpec::always());
        let inc = n.add_op("inc", Op::Inc);
        let eb = n.add_buffer("eb", BufferSpec::standard(0));
        let sink = n.add_sink("sink", SinkSpec::always_ready());
        n.connect(Port::output(src, 0), Port::input(inc, 0), 8).unwrap();
        n.connect(Port::output(inc, 0), Port::input(eb, 0), 8).unwrap();
        n.connect(Port::output(eb, 0), Port::input(sink, 0), 8).unwrap();
        (n, sink)
    }

    #[test]
    fn the_standard_monitors_stay_silent_on_a_clean_pipeline() {
        let (netlist, sink) = pipeline();
        let mut sim = Simulation::new(&netlist, &SimConfig::default()).unwrap();
        let reference = sim.run(60).unwrap();

        sim.reset();
        let mut monitors = standard_monitors(&netlist, &MonitorOptions::default());
        monitors.push(Box::new(ScoreboardMonitor::from_reference(&netlist, &reference, true)));
        let report = sim.run_monitored(60, None, &mut monitors).unwrap();
        assert_eq!(report.sink_transfers(sink), reference.sink_transfers(sink));
    }

    #[test]
    fn the_protocol_monitor_matches_the_streaming_trace_checker_rules() {
        let (netlist, _sink) = pipeline();
        let mut monitor = ProtocolMonitor::new(&netlist, &ProtocolOptions::default());
        let idle = vec![ChannelState::default(); 3];
        // A stopped token on channel 0 …
        let mut stopped = idle.clone();
        stopped[0] =
            ChannelState { forward_valid: true, forward_stop: true, ..ChannelState::default() };
        monitor.observe(0, &stopped).unwrap();
        // … retracted the next cycle: Retry+ at the *offending* cycle 0.
        let violation = monitor.observe(1, &idle).unwrap_err();
        assert_eq!(violation.invariant, "Retry+");
        assert_eq!(violation.cycle, 0);
        assert!(violation.channel.is_some());

        monitor.reset();
        monitor.observe(0, &stopped).unwrap();
        let mut held = stopped.clone();
        held[0].forward_stop = false;
        monitor.observe(1, &held).unwrap();
    }

    #[test]
    fn the_scoreboard_trips_on_the_first_deviating_transfer() {
        let (netlist, sink) = pipeline();
        let mut sim = Simulation::new(&netlist, &SimConfig::default()).unwrap();
        let reference = sim.run(40).unwrap();
        assert!(reference.sink_transfers(sink) > 10);

        // Corrupt the data on the sink's input channel mid-run.
        let sink_channel = netlist.channel_into(Port::input(sink, 0)).unwrap().id;
        sim.reset();
        sim.arm_faults(&elastic_sim::FaultPlan::single(elastic_sim::FaultSpec {
            channel: sink_channel,
            kind: elastic_sim::FaultKind::BitFlip { mask: 0b100 },
            from_cycle: 9,
            duration: 1,
        }))
        .unwrap();
        let mut monitors: Vec<Box<dyn CycleMonitor>> =
            vec![Box::new(ScoreboardMonitor::from_reference(&netlist, &reference, true))];
        let error = sim.run_monitored(40, None, &mut monitors).unwrap_err();
        match error {
            elastic_sim::SimError::MonitorTripped(violation) => {
                assert_eq!(violation.invariant, "ReferenceStream");
                assert_eq!(violation.cycle, 9, "detected at the corrupted transfer");
            }
            other => panic!("expected a scoreboard trip, got {other}"),
        }
    }

    #[test]
    fn the_progress_monitor_diagnoses_a_stalled_run() {
        let (netlist, sink) = pipeline();
        let sink_channel = netlist.channel_into(Port::input(sink, 0)).unwrap().id;
        let mut sim = Simulation::new(&netlist, &SimConfig::default()).unwrap();
        // A permanent stall storm on the sink channel wedges the pipeline.
        sim.arm_faults(&elastic_sim::FaultPlan::single(elastic_sim::FaultSpec {
            channel: sink_channel,
            kind: elastic_sim::FaultKind::StallStorm,
            from_cycle: 0,
            duration: u64::MAX,
        }))
        .unwrap();
        let mut monitors: Vec<Box<dyn CycleMonitor>> =
            vec![Box::new(ProgressMonitor::new(&netlist, 16))];
        let error = sim.run_monitored(200, None, &mut monitors).unwrap_err();
        match error {
            elastic_sim::SimError::MonitorTripped(violation) => {
                assert_eq!(violation.invariant, "Progress");
                assert!(violation.cycle <= 32, "trips right after the window, not at run end");
                assert!(
                    violation.details.contains("wait-for analysis"),
                    "the violation embeds the root-cause diagnosis: {}",
                    violation.details
                );
            }
            other => panic!("expected a progress trip, got {other}"),
        }
    }
}
