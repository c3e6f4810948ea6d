//! The per-cycle rule of every runtime property, written once.
//!
//! Each property this crate checks on a run has two drivers: a trace checker
//! that walks a recorded run channel column by channel column and collects
//! every violation ([`crate::properties`], [`crate::liveness`]), and a
//! streaming monitor that walks the cycle rows of a live run and stops at the
//! first violation ([`crate::monitor`]). Both feed one cycle at a time into
//! the rules here, so the two can only differ in how they walk and report:
//!
//! * [`ChannelRules`] — the four SELF channel properties of Section 3.1
//!   (`Invariant`, `Retry+`, `Retry-` and bounded `Liveness`);
//! * [`ProgressWindow`] — the sink-progress window of deadlock freedom;
//! * [`LeadsToWait`] — the scheduler leads-to obligation of Section 4.1.1 at
//!   one shared-module input.
//!
//! The channel selections both drivers walk live here too: every sink's
//! input ([`sink_inputs`]) and every shared-module user input
//! ([`shared_inputs`]).

use elastic_core::{Channel, Netlist, Node, NodeId, NodeKind, Port};
use elastic_sim::ChannelState;

use crate::properties::ProtocolOptions;

/// One SELF channel property, in the order [`ChannelRules::step`] checks
/// them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ChannelRule {
    /// `G ¬(V- ∧ S+ ∧ V+ ∧ S-)`: a token cannot be killed and stopped at once.
    Invariant,
    /// `G ((V+ ∧ S+) ⇒ X V+)`: a stopped token is held.
    RetryPlus,
    /// `G ((V- ∧ S-) ⇒ X V-)`: a stopped anti-token is held.
    RetryMinus,
    /// Bounded `G F transfer`: an offered item transfers within the
    /// starvation window.
    Liveness,
}

impl ChannelRule {
    /// The property's name in violation reports.
    pub(crate) fn property(self) -> &'static str {
        match self {
            ChannelRule::Invariant => "Invariant",
            ChannelRule::RetryPlus => "Retry+",
            ChannelRule::RetryMinus => "Retry-",
            ChannelRule::Liveness => "Liveness",
        }
    }

    /// Cycles between the offending state and the cycle that reveals it:
    /// the persistence rules judge the previous cycle by the current one.
    pub(crate) fn lag(self) -> usize {
        usize::from(matches!(self, ChannelRule::RetryPlus | ChannelRule::RetryMinus))
    }
}

/// The four SELF channel rules on one channel: the previous cycle's state
/// for the persistence rules and the transfer-free run for bounded liveness.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct ChannelRules {
    prev: Option<ChannelState>,
    /// Cycles since the channel last transferred.
    idle: usize,
    /// Whether the channel offered a token or an anti-token since then.
    offered: bool,
}

impl ChannelRules {
    /// Feeds the channel's state in its next cycle and calls `broken` with
    /// every rule that state breaks, in [`ChannelRule`] order.
    ///
    /// `forward_persistence` applies `Retry+`; the outputs of speculative
    /// producers are exempt from it (see [`crate::properties::check_channel`]).
    #[inline]
    pub(crate) fn step(
        &mut self,
        state: ChannelState,
        options: &ProtocolOptions,
        forward_persistence: bool,
        mut broken: impl FnMut(ChannelRule),
    ) {
        if state.forward_valid && state.forward_stop && state.backward_valid && state.backward_stop
        {
            broken(ChannelRule::Invariant);
        }
        if let Some(prev) = self.prev {
            if forward_persistence
                && prev.forward_valid
                && prev.forward_stop
                && !prev.backward_transfer()
                && !state.forward_valid
            {
                broken(ChannelRule::RetryPlus);
            }
            // A stopped anti-token may also vanish when a token transferred
            // forward in the same cycle: the two cancel at the consumer's
            // boundary (the producer, e.g. a lazy mux, stops anti-tokens it
            // cannot absorb but still delivers the token that pays the
            // debt). Found by the elastic-gen fuzzer on feed-forward
            // speculation behind a standard buffer holding an anti-token.
            if prev.backward_valid
                && prev.backward_stop
                && !prev.forward_transfer()
                && !state.backward_valid
            {
                broken(ChannelRule::RetryMinus);
            }
        }
        if options.check_liveness {
            if state.forward_transfer() || state.backward_transfer() || state.annihilation() {
                self.idle = 0;
                self.offered = false;
            } else {
                self.offered |= state.forward_valid || state.backward_valid;
                self.idle += 1;
                if self.offered && self.idle > options.starvation_window {
                    broken(ChannelRule::Liveness);
                }
            }
        }
        self.prev = Some(state);
    }

    /// Cycles since the channel last transferred.
    pub(crate) fn idle(&self) -> usize {
        self.idle
    }
}

/// The sink-progress window of deadlock freedom: some sink must receive a
/// token in every run of `window + 1` consecutive cycles.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct ProgressWindow {
    idle: usize,
}

impl ProgressWindow {
    /// Feeds one cycle's sink-input states; `true` once no sink has
    /// received a token for more than `window` cycles.
    ///
    /// Every state is consumed, so a driver may advance one cursor per sink
    /// through `sink_states`.
    pub(crate) fn stalled(
        &mut self,
        sink_states: impl IntoIterator<Item = ChannelState>,
        window: usize,
    ) -> bool {
        let progress = sink_states
            .into_iter()
            .fold(false, |progress, state| progress | state.forward_transfer());
        self.idle = if progress { 0 } else { self.idle + 1 };
        self.idle > window
    }

    /// Consecutive cycles without a sink transfer.
    pub(crate) fn idle(&self) -> usize {
        self.idle
    }
}

/// The leads-to obligation at one shared-module input: a waiting token must
/// be served (transfer) or cancelled within the horizon.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct LeadsToWait {
    since: Option<u64>,
}

impl LeadsToWait {
    /// Feeds the input's state in `cycle`; returns the cycle the wait began
    /// once a token has waited unserved for more than `horizon` cycles. The
    /// wait then starts over, so a token that stays unserved is reported
    /// once per `horizon + 1` cycles.
    pub(crate) fn overdue(&mut self, cycle: u64, state: ChannelState, horizon: u64) -> Option<u64> {
        let resolved =
            state.forward_transfer() || state.backward_transfer() || state.annihilation();
        if resolved || !state.forward_valid {
            self.since = None;
            return None;
        }
        let since = *self.since.get_or_insert(cycle);
        (cycle - since > horizon).then(|| {
            self.since = None;
            since
        })
    }
}

/// The input channel of every sink, in node order.
pub(crate) fn sink_inputs(netlist: &Netlist) -> impl Iterator<Item = (NodeId, &Channel)> {
    netlist
        .live_nodes()
        .filter(|node| matches!(node.kind, NodeKind::Sink(_)))
        .filter_map(|node| Some((node.id, netlist.channel_into(Port::input(node.id, 0))?)))
}

/// Every user input channel of every shared module, as `(module, user,
/// channel)`.
pub(crate) fn shared_inputs(netlist: &Netlist) -> Vec<(&Node, usize, &Channel)> {
    let mut inputs = Vec::new();
    for node in netlist.live_nodes() {
        let NodeKind::Shared(spec) = &node.kind else { continue };
        for user in 0..spec.users {
            for operand in 0..spec.inputs_per_user {
                let port = Port::input(node.id, user * spec.inputs_per_user + operand);
                if let Some(channel) = netlist.channel_into(port) {
                    inputs.push((node, user, channel));
                }
            }
        }
    }
    inputs
}

#[cfg(test)]
mod tests {
    use elastic_core::library::{fig1d, resilient_speculative, Fig1Config, ResilientConfig};
    use elastic_core::{ChannelId, Netlist};
    use elastic_sim::{
        CycleMonitor, FaultKind, FaultPlan, FaultSpec, MonitorViolation, SimConfig, SimError,
        Simulation,
    };

    use crate::liveness::tests::{stalled_sink_fig1d, token_free_loop};
    use crate::liveness::{check_leads_to_on_trace, deadlock_freedom_on_run, LivenessOptions};
    use crate::monitor::{LeadsToMonitor, MonitorOptions, ProgressMonitor, ProtocolMonitor};
    use crate::properties::check_trace;

    const CYCLES: u64 = 256;

    /// How many runs tripped each monitor: protocol, progress, leads-to.
    type Trips = [usize; 3];

    /// Judges one recorded run with each trace checker, then replays the
    /// same run (the reset simulation keeps any armed faults) under the
    /// matching monitor with the same options. A monitor trips exactly when
    /// its trace checker reports the rule broken, and every trip names a
    /// violation the trace checker reports: same property, same cycle and,
    /// for channel properties, the same channel.
    fn assert_drivers_agree(netlist: &Netlist, sim: &mut Simulation, trips: &mut Trips) {
        let options = MonitorOptions::default();
        let liveness = LivenessOptions {
            cycles: CYCLES,
            progress_window: options.progress_window,
            leads_to_horizon: options.leads_to_horizon as usize,
        };
        let report = sim.run(CYCLES).unwrap();
        let protocol = check_trace(netlist, sim.trace(), &options.protocol);
        let progress = deadlock_freedom_on_run(netlist, sim.trace(), &report, &liveness);
        let progress: Vec<&String> =
            progress.violations.iter().filter(|v| v.starts_with("no sink transferred")).collect();
        let leads_to = check_leads_to_on_trace(netlist, sim.trace(), &liveness);
        let name = |channel: Option<ChannelId>| &netlist.channel(channel.unwrap()).unwrap().name;

        let monitors: [Box<dyn CycleMonitor>; 3] = [
            Box::new(ProtocolMonitor::new(netlist, &options.protocol)),
            Box::new(ProgressMonitor::new(netlist, options.progress_window)),
            Box::new(LeadsToMonitor::new(netlist, options.leads_to_horizon)),
        ];
        for (driver, monitor) in monitors.into_iter().enumerate() {
            sim.reset();
            let trip: Option<MonitorViolation> =
                match sim.run_monitored(CYCLES, None, &mut [monitor]) {
                    Ok(_) => None,
                    Err(SimError::MonitorTripped(trip)) => Some(trip),
                    Err(other) => panic!("{}: replay failed: {other}", netlist.name()),
                };
            let clean = [protocol.passed(), progress.is_empty(), leads_to.passed()][driver];
            assert_eq!(
                trip.is_some(),
                !clean,
                "{}: monitor {driver} tripped {trip:?}; trace checkers: {protocol} / {progress:?} / {leads_to}",
                netlist.name()
            );
            let Some(trip) = trip else { continue };
            trips[driver] += 1;
            let matched = match trip.invariant {
                "Progress" => progress
                    .iter()
                    .any(|v| v.contains(&format!("detected around cycle {});", trip.cycle))),
                "LeadsTo" => {
                    let since = trip.cycle - options.leads_to_horizon - 1;
                    trip.details.ends_with(&format!("since cycle {since}"))
                        && leads_to.violations.iter().any(|v| {
                            v.ends_with(&format!(
                                "(channel {}): a token has waited since cycle {since}",
                                name(trip.channel)
                            ))
                        })
                }
                property => protocol.violations.contains(&format!(
                    "channel {} ({}) violates {property} at cycle {}",
                    trip.channel.unwrap(),
                    name(trip.channel),
                    trip.cycle
                )),
            };
            assert!(matched, "{}: {trip} has no trace counterpart", netlist.name());
        }
    }

    /// Seeded faults of every class on `netlist`'s channels, one per run.
    fn seeded_faults(netlist: &Netlist) -> Vec<FaultSpec> {
        let channels: Vec<ChannelId> = netlist.live_channels().map(|c| c.id).collect();
        let kinds = [
            FaultKind::StuckValid { level: true },
            FaultKind::StuckValid { level: false },
            FaultKind::StuckStop { level: true },
            FaultKind::StuckStop { level: false },
            FaultKind::DropToken,
            FaultKind::DuplicateToken,
            FaultKind::BitFlip { mask: 1 },
            FaultKind::StallStorm,
        ];
        let mut faults = Vec::new();
        for (k, kind) in kinds.into_iter().enumerate() {
            for seed in 0..6u64 {
                let hash = (seed * 8 + k as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 16;
                let permanent =
                    matches!(kind, FaultKind::StuckValid { .. } | FaultKind::StuckStop { .. });
                faults.push(FaultSpec {
                    channel: channels[hash as usize % channels.len()],
                    kind,
                    from_cycle: 4 + (hash >> 20) % 60,
                    duration: if permanent { u64::MAX } else { 1 + (hash >> 40) % 24 },
                });
            }
        }
        faults
    }

    #[test]
    fn the_trace_checkers_and_the_monitors_report_the_same_violations() {
        let mut trips = Trips::default();
        for netlist in [
            fig1d(&Fig1Config::default()).netlist,
            resilient_speculative(&ResilientConfig::default()).netlist,
        ] {
            let mut sim = Simulation::new(&netlist, &SimConfig::default()).unwrap();
            for fault in seeded_faults(&netlist) {
                sim.reset();
                sim.arm_faults(&FaultPlan::single(fault)).unwrap();
                assert_drivers_agree(&netlist, &mut sim, &mut trips);
            }
        }
        for netlist in [stalled_sink_fig1d(), token_free_loop()] {
            let mut sim = Simulation::new(&netlist, &SimConfig::default()).unwrap();
            assert_drivers_agree(&netlist, &mut sim, &mut trips);
        }
        assert!(
            trips.iter().all(|&count| count > 0),
            "every monitor must trip at least once: {trips:?}"
        );
    }
}
