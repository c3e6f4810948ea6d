//! The per-cycle rule of every runtime property, written once.
//!
//! Each property this crate checks on a run has up to three drivers, and all
//! of them feed one cycle at a time into the rules here, so they can only
//! differ in how they walk and report:
//!
//! * the trace checkers ([`crate::properties`], [`crate::liveness`]) walk a
//!   recorded run channel column by channel column and collect every
//!   violation;
//! * the streaming monitors ([`crate::monitor`]) walk the cycle rows of a
//!   live run and stop at the first violation;
//! * the lane judge of the exploration sweeps
//!   ([`crate::exploration::LaneJudge`]) reads the settled rail words of a
//!   64-lane run after every cycle and collects every violation of every
//!   lane.
//!
//! The rules:
//!
//! * [`ChannelRules`] — the four SELF channel properties of Section 3.1
//!   (`Invariant`, `Retry+`, `Retry-` and bounded `Liveness`);
//! * [`ProgressWindow`] — the sink-progress window of deadlock freedom;
//! * [`LeadsToWait`] — the scheduler leads-to obligation of Section 4.1.1 at
//!   one shared-module input.
//!
//! The channel rules and the leads-to wait are generic over the rail word
//! ([`Rail`]): the trace checkers and the monitors run them at `bool`, the
//! lane judge at `u64`, one bit per lane, with the per-lane counters of
//! bounded liveness and of the leads-to wait in [`Rail::PerLane`] stores.
//! The progress window only has the one-scenario drivers, so it stays at
//! [`ChannelState`].
//!
//! The channel selections the drivers walk live here too: every sink's
//! input ([`sink_inputs`]) and every shared-module user input
//! ([`shared_inputs`]).

use elastic_core::{Channel, Netlist, Node, NodeId, NodeKind, Port};
use elastic_sim::handshake::Rail;
use elastic_sim::ChannelState;

use crate::properties::ProtocolOptions;

/// One channel's four handshake rails in one cycle, across the scenarios of
/// a rail word: [`ChannelState`] without the data, which no rule reads.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Rails<R> {
    /// `V+`.
    pub(crate) forward_valid: R,
    /// `S+`.
    pub(crate) forward_stop: R,
    /// `V-`.
    pub(crate) backward_valid: R,
    /// `S-`.
    pub(crate) backward_stop: R,
}

impl<R: Rail> Rails<R> {
    /// [`ChannelState::backward_transfer`], lane-wise.
    #[inline]
    fn backward_transfer(self) -> R {
        self.backward_valid & !self.backward_stop
    }

    /// [`ChannelState::forward_transfer`], lane-wise.
    #[inline]
    fn forward_transfer(self) -> R {
        self.forward_valid & !self.forward_stop & !self.backward_transfer()
    }

    /// Whether the channel resolved an item this cycle: a forward or
    /// backward transfer, or a token and an anti-token cancelling.
    #[inline]
    fn resolved(self) -> R {
        // A token transfers, an anti-token transfers, or both meet: with
        // `bt = V- ∧ ¬S-`, `ft ∨ bt ∨ (V+ ∧ bt)` is `(V+ ∧ ¬S+) ∨ bt`.
        (self.forward_valid & !self.forward_stop) | self.backward_transfer()
    }
}

impl From<ChannelState> for Rails<bool> {
    #[inline]
    fn from(state: ChannelState) -> Self {
        Rails {
            forward_valid: state.forward_valid,
            forward_stop: state.forward_stop,
            backward_valid: state.backward_valid,
            backward_stop: state.backward_stop,
        }
    }
}

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

/// The four SELF channel rules on one channel, in every scenario of the rail
/// word `R`: the previous cycle's rails for the persistence rules and each
/// lane's transfer-free run for bounded liveness.
#[derive(Debug)]
pub(crate) struct ChannelRules<R: Rail = bool> {
    prev: Option<Rails<R>>,
    /// Cycles fed so far, counted when liveness is checked.
    cycles: usize,
    /// Per lane, the first cycle since the channel last resolved an item.
    since: R::PerLane<usize>,
    /// The lanes in which the channel resolved an item in the last cycle
    /// (all before the first), so `since` only moves when a run begins.
    resolved: R,
    /// The lanes whose channel offered a token or an anti-token since then.
    offered: R,
}

impl<R: Rail> Default for ChannelRules<R> {
    fn default() -> Self {
        ChannelRules {
            prev: None,
            cycles: 0,
            since: R::per_lane(|_| 0),
            resolved: R::HIGH,
            offered: R::LOW,
        }
    }
}

impl<R: Rail> ChannelRules<R> {
    /// Feeds the channel's rails in its next cycle and calls `broken` with
    /// every rule they break, in [`ChannelRule`] order, together with the
    /// lanes that break it (never none).
    ///
    /// `forward_persistence` applies `Retry+`; the outputs of speculative
    /// producers are exempt from it (see [`crate::properties::check_channel`]).
    #[inline]
    pub(crate) fn step(
        &mut self,
        state: Rails<R>,
        options: &ProtocolOptions,
        forward_persistence: bool,
        mut broken: impl FnMut(ChannelRule, R),
    ) {
        let mut check = |rule, lanes: R| {
            if lanes != R::LOW {
                broken(rule, lanes);
            }
        };
        check(
            ChannelRule::Invariant,
            state.forward_valid & state.forward_stop & state.backward_valid & state.backward_stop,
        );
        if let Some(prev) = self.prev {
            if forward_persistence {
                check(
                    ChannelRule::RetryPlus,
                    prev.forward_valid
                        & prev.forward_stop
                        & !prev.backward_transfer()
                        & !state.forward_valid,
                );
            }
            // A stopped anti-token may also vanish when a token transferred
            // forward in the same cycle: the two cancel at the consumer's
            // boundary (the producer, e.g. a lazy mux, stops anti-tokens it
            // cannot absorb but still delivers the token that pays the
            // debt). Found by the elastic-gen fuzzer on feed-forward
            // speculation behind a standard buffer holding an anti-token.
            check(
                ChannelRule::RetryMinus,
                prev.backward_valid
                    & prev.backward_stop
                    & !prev.forward_transfer()
                    & !state.backward_valid,
            );
        }
        if options.check_liveness {
            let cycle = self.cycles;
            self.cycles += 1;
            let resolved = state.resolved();
            for lane in (!resolved & self.resolved).lanes() {
                self.since[lane] = cycle;
            }
            self.resolved = resolved;
            self.offered = (self.offered | state.forward_valid | state.backward_valid) & !resolved;
            // A lane's idle run is at most `cycle + 1` long.
            if cycle >= options.starvation_window {
                let mut starved = R::LOW;
                for lane in self.offered.lanes() {
                    if self.idle(lane) > options.starvation_window {
                        starved = starved | R::lane(lane);
                    }
                }
                check(ChannelRule::Liveness, starved);
            }
        }
        self.prev = Some(state);
    }

    /// Cycles since the channel last resolved an item in lane `lane`.
    pub(crate) fn idle(&self, lane: usize) -> usize {
        self.cycles - self.since[lane]
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

/// The leads-to obligation at one shared-module input, in every scenario of
/// the rail word `R`: a waiting token must be served (transfer) or
/// cancelled within the horizon.
#[derive(Debug)]
pub(crate) struct LeadsToWait<R: Rail = bool> {
    /// The lanes in which a token is waiting.
    waiting: R,
    /// Per waiting lane, the cycle its wait began.
    since: R::PerLane<u64>,
}

impl<R: Rail> Default for LeadsToWait<R> {
    fn default() -> Self {
        LeadsToWait { waiting: R::LOW, since: R::per_lane(|_| 0) }
    }
}

impl<R: Rail> LeadsToWait<R> {
    /// Feeds the input's rails in `cycle` and calls `overdue(lane, since)`,
    /// lowest lane first, for every lane in which a token has waited
    /// unserved since cycle `since`, more than `horizon` cycles ago. That
    /// lane's wait then starts over, so a token that stays unserved is
    /// reported once per `horizon + 1` cycles.
    #[inline]
    pub(crate) fn overdue(
        &mut self,
        cycle: u64,
        state: Rails<R>,
        horizon: u64,
        mut overdue: impl FnMut(usize, u64),
    ) {
        let waiting = state.forward_valid & !state.resolved();
        for lane in (waiting & !self.waiting).lanes() {
            self.since[lane] = cycle;
        }
        self.waiting = waiting;
        // A wait that began at cycle 0 is overdue from cycle `horizon + 1`.
        if cycle <= horizon {
            return;
        }
        for lane in waiting.lanes() {
            let since = self.since[lane];
            if cycle - since > horizon {
                self.waiting = self.waiting.with_lane(lane, false);
                overdue(lane, since);
            }
        }
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
    use std::collections::BTreeSet;

    use elastic_core::library::{fig1d, resilient_speculative, Fig1Config, ResilientConfig};
    use elastic_core::mix::splitmix64;
    use elastic_core::{ChannelId, Netlist, NodeId};
    use elastic_explore::{enumerate_candidates, ExploreOptions};
    use elastic_gen::{generate, GenConfig};
    use elastic_sim::{
        ChannelState, CycleMonitor, FaultKind, FaultPlan, FaultSpec, LaneConfig, LaneRails,
        LaneSimulation, MonitorViolation, SimConfig, SimError, Simulation, Trace, LANES,
    };

    use crate::exploration::{
        reset_with_environments, reset_with_random_schedulers, shared_modules_of, sinks_of,
        sources_of, LaneJudge,
    };
    use crate::liveness::tests::{stalled_sink_fig1d, token_free_loop};
    use crate::liveness::{check_leads_to_on_trace, deadlock_freedom_on_run, LivenessOptions};
    use crate::monitor::{LeadsToMonitor, MonitorOptions, ProgressMonitor, ProtocolMonitor};
    use crate::properties::{
        channel_violation, check_channel, check_trace, retraction_exempt_producers, ProtocolOptions,
    };

    const CYCLES: u64 = 256;

    /// How many runs tripped each monitor: protocol, progress, leads-to.
    type Trips = [usize; 3];

    /// How many failing-lane lines the lane driver wrote for each rule:
    /// `Invariant`, `Retry+`, `Retry-`, `Liveness`, leads-to.
    type LaneTrips = [usize; 5];

    /// Cycles per lane run: past the starvation window and the leads-to
    /// horizon, so both can trip.
    const LANE_CYCLES: u64 = 160;

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

    /// A lane judge of `netlist` with the checks of the scheduler sweep, all
    /// 64 lanes live.
    fn lane_judge<'n>(netlist: &'n Netlist, exempt: &BTreeSet<NodeId>) -> LaneJudge<'n> {
        let horizon = LivenessOptions::default().leads_to_horizon as u64;
        let mut judge = LaneJudge::new(netlist, exempt, ProtocolOptions::default(), Some(horizon));
        judge.start(LANES);
        judge
    }

    /// Judges every lane of a run a second time, with the trace checkers
    /// (`check_channel` per channel, then the leads-to checker) on the lane's
    /// trace: they must write the lines `judge` wrote as the run happened, in
    /// the same order.
    fn assert_lane_driver_agrees<'t>(
        netlist: &Netlist,
        exempt: &BTreeSet<NodeId>,
        judge: &mut LaneJudge<'_>,
        trace: impl Fn(usize) -> &'t Trace,
        trips: &mut LaneTrips,
    ) {
        let protocol = ProtocolOptions::default();
        let liveness = LivenessOptions::default();
        for lane in 0..LANES {
            let trace = trace(lane);
            let mut expected: Vec<String> = Vec::new();
            for channel in netlist.live_channels() {
                let persistent = !exempt.contains(&channel.from.node);
                let history = trace.channel_iter(channel.id);
                for violation in check_channel(channel.id, history, &protocol, persistent) {
                    expected.push(channel_violation(channel, violation.property, violation.cycle));
                }
            }
            expected.extend(check_leads_to_on_trace(netlist, trace, &liveness).violations);
            let judged = judge.violations(lane);
            assert_eq!(judged, expected, "{}: lane {lane}", netlist.name());
            for line in &judged {
                let rule = ["Invariant", "Retry+", "Retry-", "Liveness"]
                    .iter()
                    .position(|property| line.contains(&format!(" violates {property} at")))
                    .unwrap_or(4);
                trips[rule] += 1;
            }
        }
    }

    /// Runs a lane block already reset with its lane environments for
    /// [`LANE_CYCLES`] under the lane judge, then checks it against the
    /// trace checkers on the recorded lane traces.
    fn assert_lane_block_agrees(
        netlist: &Netlist,
        sim: &mut LaneSimulation,
        exempt: &BTreeSet<NodeId>,
        trips: &mut LaneTrips,
    ) {
        let mut judge = lane_judge(netlist, exempt);
        for _ in 0..LANE_CYCLES {
            if sim.step().is_err() {
                return; // a wedged block has no runs to judge
            }
            judge.observe(sim.rails());
        }
        assert_lane_driver_agrees(netlist, exempt, &mut judge, |lane| sim.trace(lane), trips);
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

        // The lane driver, on blocks recorded with their traces. Generated
        // designs and explorer candidates under 64 enumerated environments,
        // with no retraction exemption, so every channel is held to `Retry+`
        // and speculative ones break it...
        let config = LaneConfig { record_trace: true };
        let mut lane_trips = LaneTrips::default();
        let presets = [GenConfig::default(), GenConfig::loops(), GenConfig::pipelines()];
        for (preset, gen) in presets.iter().enumerate() {
            for seed in 0..2 {
                let netlist = generate(seed, gen).netlist;
                let mut designs = vec![netlist.clone()];
                for candidate in enumerate_candidates(&netlist, &ExploreOptions::default()) {
                    let mut transformed = netlist.clone();
                    if candidate.apply(&mut transformed).is_ok() {
                        designs.push(transformed);
                    }
                }
                for design in &designs {
                    let Ok(mut sim) = LaneSimulation::new(design, &config) else { continue };
                    let (sinks, sources) = (sinks_of(design), sources_of(design));
                    let block: Vec<usize> =
                        (0..LANES).map(|lane| lane * (2 * preset + 1) + seed as usize).collect();
                    reset_with_environments(&mut sim, &sinks, &sources, 3, &block);
                    assert_lane_block_agrees(design, &mut sim, &BTreeSet::new(), &mut lane_trips);
                }
            }
        }
        // ...and the stalled-sink Figure 1(d) under 64 seeded random
        // schedulers, with the exemption the sweeps apply, for `Liveness`
        // and leads-to.
        let netlist = stalled_sink_fig1d();
        let mut sim = LaneSimulation::new(&netlist, &config).unwrap();
        let runs: Vec<usize> = (0..LANES).collect();
        reset_with_random_schedulers(&mut sim, &shared_modules_of(&netlist), 0xBAD, &runs);
        let exempt = retraction_exempt_producers(&netlist);
        assert_lane_block_agrees(&netlist, &mut sim, &exempt, &mut lane_trips);
        // No controller breaks `Invariant` or `Retry-`, so the last run feeds
        // seeded random rail words over the same netlist's channels, one
        // lane trace recorded from them per lane.
        let channels = netlist.live_channels().count();
        let mut traces: Vec<Trace> = (0..LANES).map(|_| Trace::new(&netlist)).collect();
        let mut judge = lane_judge(&netlist, &exempt);
        let mut stream = 0u64;
        let mut word = || {
            stream += 1;
            splitmix64(stream)
        };
        for _ in 0..LANE_CYCLES {
            let mut rails: [Vec<u64>; 4] = Default::default();
            for rail in &mut rails {
                *rail = (0..channels).map(|_| word()).collect();
            }
            let [forward_valid, forward_stop, backward_valid, backward_stop] = &rails;
            judge.observe(LaneRails { forward_valid, forward_stop, backward_valid, backward_stop });
            for (lane, trace) in traces.iter_mut().enumerate() {
                let bit = |rail: &[u64], channel: usize| rail[channel] >> lane & 1 == 1;
                let states: Vec<ChannelState> = (0..channels)
                    .map(|c| ChannelState {
                        forward_valid: bit(forward_valid, c),
                        forward_stop: bit(forward_stop, c),
                        backward_valid: bit(backward_valid, c),
                        backward_stop: bit(backward_stop, c),
                        data: 0,
                    })
                    .collect();
                trace.record(&states);
            }
        }
        assert_lane_driver_agrees(&netlist, &exempt, &mut judge, |l| &traces[l], &mut lane_trips);
        assert!(
            lane_trips.iter().all(|&count| count > 0),
            "every rule must trip in some lane: {lane_trips:?}"
        );
    }
}
