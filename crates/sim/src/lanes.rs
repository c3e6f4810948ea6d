//! 64-lane bit-parallel settle engine.
//!
//! The SELF protocol is two-rail control: one bit per rail per channel
//! (`V+`/`S+` forward, `V−`/`S−` backward). The scalar engine settles one
//! scenario at a time even though every handshake equation is pure boolean
//! logic. This module lifts the whole settle loop to `u64` **lane words**:
//! bit `ℓ` of every rail word belongs to scenario (lane) `ℓ`, so one
//! AND/OR/NOT word op advances 64 independent environments at once.
//!
//! Layout:
//!
//! * [`LaneSimulation`] runs on the same private engine core as
//!   [`crate::Simulation`]: dense channel indexing, the settle paths, the
//!   settle budget and oscillation witness, override lookup, the clock
//!   edge and report assembly (from `Controller::report`) are the same
//!   code. A netlist with a plan settles every step on the compiled plan
//!   (`compiled.rs`), the one the scalar `Compiled` strategy runs, at the
//!   `u64` rail word: each controller's forward and backward half once, in
//!   dataflow order. A netlist whose rails form a cycle (a combinational
//!   loop, or a lazy fork whose branches reconverge) settles on the
//!   rank-bucketed event-driven worklist with its optimistic two-pass,
//!   where compare-and-set dirty tracking is word-wide: a channel re-enters
//!   the worklist when *any* lane changed. The lane engine keeps the word
//!   storage, the per-lane traces and the per-lane environments.
//! * Rails are stored structure-of-arrays: `Vec<u64>` per rail, one word
//!   per channel. Data is a lane-major column per channel
//!   (`data[channel * LANES + lane]`) touched only by the ops that consume
//!   data (function evaluation, mux steering, buffered values).
//! * Every node kind is one type of [`crate::controllers`], a
//!   [`Controller<u64>`](crate::controller::Controller) with [`LaneIo`] as
//!   its port view: the scalar engine runs the same types at `bool`, so
//!   their state, clock edge, observables, reset and environment exist
//!   once. Their clock edges and
//!   datapaths work by word and by column: the standard buffer and the
//!   commit stage keep tokens in slot columns under thermometer occupancy
//!   words, the mux steers by word, function blocks, shared modules and
//!   variable-latency units evaluate their datapath over whole 64-lane
//!   columns, and sources drive one offer word per cycle and sinks one stop
//!   word, from per-period tables of lane words for deterministic patterns.
//!   Per-lane stores hold what is left per lane: random patterns and their
//!   generators, shared-module schedulers, source stream cursors and sink
//!   transfer streams.
//! * The per-lane overrides of the `reset_with_*` family land on the
//!   controllers' hooks, which take a node's 64 lane patterns at once (a
//!   one-pattern list broadcasts); a lane whose pattern did not change is
//!   left alone, so replaying blocks on one simulation refiles only the
//!   lanes that changed. Resets allocate nothing.
//!
//! The correctness contract is **lane-0 bit-identity**: a lane simulation
//! whose lanes all see the same environment must produce, in every lane,
//! exactly the trace and report of the scalar `EventDriven` engine (effort
//! counters aside). The `engine_equivalence` suite and the
//! `ELASTIC_FUZZ_LANES` differential fuzz leg pin this the same way the
//! FullSweep oracle pinned the event-driven engine.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

use elastic_core::kind::{BackpressurePattern, SourcePattern};
use elastic_core::{Netlist, NodeId};
use elastic_datapath::adder::mask;

use crate::compiled::CompiledPlan;
use crate::engine::SimError;
use crate::engine_core::{EngineCore, EngineRail, Ports};
use crate::handshake::{HandshakeIo, Rail};
use crate::metrics::SimulationReport;
use crate::signal::ChannelState;
use crate::trace::Trace;

/// Number of scenarios advanced per word operation: the bit width of a lane
/// word.
pub const LANES: usize = <u64 as Rail>::LANES;

/// A per-lane scheduler factory for
/// [`LaneSimulation::reset_with_schedulers`]: invoked once per lane to
/// build that lane's prediction policy (schedulers are stateful boxes, not
/// clonable, so lanes get fresh instances rather than copies).
pub type SchedulerFactory<'a> = dyn Fn(usize) -> Box<dyn elastic_core::Scheduler> + 'a;

/// Process-wide count of [`LaneSimulation`] constructions (see
/// [`LaneSimulation::constructions`]).
static LANE_CONSTRUCTIONS: AtomicU64 = AtomicU64::new(0);

/// Configuration of a [`LaneSimulation`].
#[derive(Debug, Clone)]
pub struct LaneConfig {
    /// Record one full signal trace **per lane** (64 traces). Costs a
    /// per-cycle transpose from lane words to [`ChannelState`] rows; switch
    /// it off for throughput sweeps.
    pub record_trace: bool,
}

impl Default for LaneConfig {
    fn default() -> Self {
        LaneConfig { record_trace: true }
    }
}

/// Structure-of-arrays signal store: one `u64` word per channel per rail
/// (bit `ℓ` = lane `ℓ`) plus a lane-major data column per channel.
#[derive(Debug)]
pub(crate) struct LaneChannels {
    forward_valid: Vec<u64>,
    forward_stop: Vec<u64>,
    backward_valid: Vec<u64>,
    backward_stop: Vec<u64>,
    /// `data[channel * LANES + lane]`.
    data: Vec<u64>,
}

impl LaneChannels {
    pub(crate) fn new(channel_count: usize) -> Self {
        LaneChannels {
            forward_valid: vec![0; channel_count],
            forward_stop: vec![0; channel_count],
            backward_valid: vec![0; channel_count],
            backward_stop: vec![0; channel_count],
            data: vec![0; channel_count * LANES],
        }
    }

    fn channel_count(&self) -> usize {
        self.forward_valid.len()
    }

    fn clear(&mut self) {
        self.forward_valid.fill(0);
        self.forward_stop.fill(0);
        self.backward_valid.fill(0);
        self.backward_stop.fill(0);
        self.data.fill(0);
    }

    /// One lane's [`ChannelState`] row for `channel` (the trace transpose
    /// reads through this).
    fn lane_state(&self, channel: usize, lane: usize) -> ChannelState {
        let bit = 1u64 << lane;
        ChannelState {
            forward_valid: self.forward_valid[channel] & bit != 0,
            forward_stop: self.forward_stop[channel] & bit != 0,
            backward_valid: self.backward_valid[channel] & bit != 0,
            backward_stop: self.backward_stop[channel] & bit != 0,
            data: self.data[channel * LANES + lane],
        }
    }
}

/// The settled rail words of one cycle, one word per live channel in
/// `live_channels()` order (bit `ℓ` = lane `ℓ`): a read-only view into a
/// [`LaneSimulation`], see [`LaneSimulation::rails`].
#[derive(Debug, Clone, Copy)]
pub struct LaneRails<'a> {
    /// `V+` per channel.
    pub forward_valid: &'a [u64],
    /// `S+` per channel.
    pub forward_stop: &'a [u64],
    /// `V-` per channel.
    pub backward_valid: &'a [u64],
    /// `S-` per channel.
    pub backward_stop: &'a [u64],
}

/// The 64-lane engine's port view, `Controller<u64>`'s: the lane
/// analogue of [`crate::controller::NodeIo`].
///
/// Reads return whole lane words (or data columns); writes are
/// compare-and-set — a write that changes **any** lane marks the channel
/// dirty, which is what re-enters its observers into the worklist. Data
/// writes mask every lane to the channel width, mirroring the scalar
/// engine's producer-side masking.
pub struct LaneIo<'a> {
    channels: &'a mut LaneChannels,
    input_channels: &'a [usize],
    output_channels: &'a [usize],
    channel_widths: &'a [u8],
    dirty: Option<&'a mut Vec<usize>>,
}

impl fmt::Debug for LaneIo<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LaneIo")
            .field("inputs", &self.input_channels)
            .field("outputs", &self.output_channels)
            .finish()
    }
}

/// Compare-and-set of one channel's rail word; a change marks the channel
/// dirty when tracking.
#[inline]
fn set_word(rail: &mut [u64], channel: usize, word: u64, dirty: &mut Option<&mut Vec<usize>>) {
    if rail[channel] != word {
        rail[channel] = word;
        if let Some(dirty) = dirty {
            dirty.push(channel);
        }
    }
}

impl HandshakeIo for LaneIo<'_> {
    type Rail = u64;

    fn input_count(&self) -> usize {
        self.input_channels.len()
    }
    fn output_count(&self) -> usize {
        self.output_channels.len()
    }
    fn input_valid(&self, port: usize) -> u64 {
        self.channels.forward_valid[self.input_channels[port]]
    }
    fn input_stop(&self, port: usize) -> u64 {
        self.channels.forward_stop[self.input_channels[port]]
    }
    fn input_kill(&self, port: usize) -> u64 {
        self.channels.backward_valid[self.input_channels[port]]
    }
    fn input_anti_stop(&self, port: usize) -> u64 {
        self.channels.backward_stop[self.input_channels[port]]
    }
    fn output_valid(&self, port: usize) -> u64 {
        self.channels.forward_valid[self.output_channels[port]]
    }
    fn output_stop(&self, port: usize) -> u64 {
        self.channels.forward_stop[self.output_channels[port]]
    }
    fn output_kill(&self, port: usize) -> u64 {
        self.channels.backward_valid[self.output_channels[port]]
    }
    fn output_anti_stop(&self, port: usize) -> u64 {
        self.channels.backward_stop[self.output_channels[port]]
    }
    fn set_input_stop(&mut self, port: usize, stop: u64) {
        let channel = self.input_channels[port];
        set_word(&mut self.channels.forward_stop, channel, stop, &mut self.dirty);
    }
    fn set_input_kill(&mut self, port: usize, kill: u64) {
        let channel = self.input_channels[port];
        set_word(&mut self.channels.backward_valid, channel, kill, &mut self.dirty);
    }
    fn set_output_valid(&mut self, port: usize, valid: u64) {
        let channel = self.output_channels[port];
        set_word(&mut self.channels.forward_valid, channel, valid, &mut self.dirty);
    }
    fn set_output_anti_stop(&mut self, port: usize, stop: u64) {
        let channel = self.output_channels[port];
        set_word(&mut self.channels.backward_stop, channel, stop, &mut self.dirty);
    }
    fn input_data(&self, port: usize) -> &[u64] {
        let channel = self.input_channels[port];
        &self.channels.data[channel * LANES..][..LANES]
    }
    fn drive_data(&mut self, port: usize, data: &[u64]) {
        let channel = self.output_channels[port];
        let keep = mask(u64::MAX, self.channel_widths.get(channel).copied().unwrap_or(64));
        let column = &mut self.channels.data[channel * LANES..][..LANES];
        // A branchless masked store; any lane's change shows in the
        // accumulated XOR of old and new words.
        let mut changed = 0;
        for (slot, &value) in column.iter_mut().zip(&data[..LANES]) {
            let value = value & keep;
            changed |= *slot ^ value;
            *slot = value;
        }
        if changed != 0 {
            if let Some(dirty) = self.dirty.as_deref_mut() {
                dirty.push(channel);
            }
        }
    }
    fn copy_data(&mut self, input: usize, output: usize) {
        let column: [u64; LANES] = self.input_data(input).try_into().expect("one word per lane");
        self.drive_data(output, &column);
    }
}

// ---------------------------------------------------------------------------
// The engine
// ---------------------------------------------------------------------------

impl EngineRail for u64 {
    type Channels = LaneChannels;

    fn io<'a>(
        channels: &'a mut LaneChannels,
        (input_channels, output_channels): &'a Ports,
        channel_widths: &'a [u8],
        dirty: Option<&'a mut Vec<usize>>,
    ) -> LaneIo<'a> {
        LaneIo { channels, input_channels, output_channels, channel_widths, dirty }
    }
}

/// A cycle-accurate SELF simulation advancing [`LANES`] independent
/// scenarios per word operation.
///
/// The settle paths, budget, oscillation reporting and report assembly are
/// the scalar [`crate::Simulation`]'s — both engines run on the same engine
/// core. A netlist with a plan settles on it (what the scalar engine runs
/// under `SettleStrategy::Compiled`); one without settles on the
/// event-driven worklist (the scalar default). This engine keeps the lane
/// word storage, the per-lane traces and the per-lane environments: sink
/// back-pressure and source offer patterns vary per lane, and
/// shared-module schedulers inject lane-blocked (one freshly built
/// scheduler per lane, see [`LaneSimulation::reset_with_schedulers`]).
/// Fault injection and [`crate::CycleMonitor`]s are scalar-only; a lane
/// sweep judges its runs by reading [`LaneSimulation::rails`] after each
/// [`LaneSimulation::step`].
pub struct LaneSimulation {
    config: LaneConfig,
    core: EngineCore<u64>,
    channels: LaneChannels,
    /// The plan every step settles on; `None` when the netlist has none
    /// and settles event-driven.
    plan: Option<Box<CompiledPlan>>,
    /// One trace per lane when recording; otherwise the one empty trace
    /// every lane reports.
    traces: Vec<Trace>,
    state_scratch: Vec<ChannelState>,
}

impl fmt::Debug for LaneSimulation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LaneSimulation")
            .field("nodes", &self.core.controllers.len())
            .field("channels", &self.channels.channel_count())
            .field("lanes", &LANES)
            .field("cycle", &self.core.cycle)
            .finish()
    }
}

impl LaneSimulation {
    /// Builds a 64-lane simulation of `netlist`.
    ///
    /// # Errors
    ///
    /// Fails when the netlist does not validate or contains a node the
    /// simulator cannot model — the same conditions as
    /// [`crate::Simulation::new`].
    pub fn new(netlist: &Netlist, config: &LaneConfig) -> Result<Self, SimError> {
        let core = EngineCore::build(netlist)?;
        LANE_CONSTRUCTIONS.fetch_add(1, Ordering::Relaxed);
        let plan = CompiledPlan::build(&core).map(Box::new);
        let traces = if config.record_trace { LANES } else { 1 };
        Ok(LaneSimulation {
            config: config.clone(),
            channels: LaneChannels::new(core.channel_count()),
            plan,
            traces: (0..traces).map(|_| Trace::new(netlist)).collect(),
            state_scratch: vec![ChannelState::default(); core.channel_count()],
            core,
        })
    }

    /// Number of cycles simulated so far.
    pub fn cycle(&self) -> u64 {
        self.core.cycle
    }

    /// Process-wide count of lane-simulation constructions
    /// ([`LaneSimulation::new`]) — the lane-engine twin of
    /// [`crate::Simulation::constructions`], used by sweep tests to prove
    /// that exploration loops build one lane simulation per worker thread
    /// and replay blocks via the reset family. Resets do **not** count.
    pub fn constructions() -> u64 {
        LANE_CONSTRUCTIONS.load(Ordering::Relaxed)
    }

    /// One lane's recorded trace (an empty trace over the netlist's
    /// channels unless [`LaneConfig::record_trace`] is set).
    ///
    /// # Panics
    ///
    /// When `lane >= LANES`.
    pub fn trace(&self, lane: usize) -> &Trace {
        assert!(lane < LANES, "lane {lane} out of range");
        &self.traces[if self.config.record_trace { lane } else { 0 }]
    }

    /// The settled rail words of the last stepped cycle (all zero after a
    /// reset, before the first step). The clock edge only reads them, so
    /// between two steps they are the cycle's settled handshake: what a
    /// lane trace would have recorded, without the per-lane transpose.
    pub fn rails(&self) -> LaneRails<'_> {
        LaneRails {
            forward_valid: &self.channels.forward_valid,
            forward_stop: &self.channels.forward_stop,
            backward_valid: &self.channels.backward_valid,
            backward_stop: &self.channels.backward_stop,
        }
    }

    /// The per-cycle settle budget in full-sweep equivalents — the same
    /// bound as [`crate::Simulation::settle_budget`].
    pub fn settle_budget(&self) -> usize {
        self.core.settle_budget()
    }

    /// Rewinds every lane to cycle 0 without rebuilding (the lane analogue
    /// of [`crate::Simulation::reset`]).
    pub fn reset(&mut self) {
        self.core.rewind();
        self.channels.clear();
        for trace in &mut self.traces {
            trace.clear();
        }
    }

    /// [`LaneSimulation::reset`], additionally replacing each lane's sink
    /// back-pressure pattern individually: lane `ℓ` of a named sink gets
    /// `patterns[min(ℓ, patterns.len() - 1)]` — 64 environments per
    /// simulation instance, and a one-pattern list broadcasts to every lane.
    /// Empty pattern lists leave the sink untouched. A lane whose pattern is
    /// unchanged since the previous override is left as the reset left it,
    /// so a sweep replaying blocks on one simulation refiles only the lanes
    /// that changed.
    pub fn reset_with_lane_sink_patterns(
        &mut self,
        overrides: &[(NodeId, Vec<BackpressurePattern>)],
    ) {
        self.reset();
        let overrides = overrides.iter().filter(|(_, patterns)| !patterns.is_empty());
        self.core.override_nodes(
            overrides.map(|(node, patterns)| (*node, patterns)),
            "sink",
            |c, patterns| c.override_sink(patterns),
        );
    }

    /// [`LaneSimulation::reset`], additionally replacing each lane's
    /// token-offer pattern of the named sources individually: lane `ℓ` of a
    /// named source gets `patterns[min(ℓ, patterns.len() - 1)]` — 64 offer
    /// environments per simulation instance, the source-side mirror of
    /// [`LaneSimulation::reset_with_lane_sink_patterns`]. Empty pattern
    /// lists leave the source untouched. Data streams are kept: only *when*
    /// tokens are offered varies per lane, never their values.
    pub fn reset_with_lane_source_patterns(&mut self, overrides: &[(NodeId, Vec<SourcePattern>)]) {
        self.reset();
        let overrides = overrides.iter().filter(|(_, patterns)| !patterns.is_empty());
        self.core.override_nodes(
            overrides.map(|(node, patterns)| (*node, patterns)),
            "source",
            |c, patterns| c.override_source(patterns),
        );
    }

    /// [`LaneSimulation::reset`], additionally replacing the prediction
    /// policy of the named shared modules. Schedulers are stateful boxes
    /// (not clonable), so the injection is *lane-blocked*: `make(lane)` is
    /// invoked once per lane to build that lane's scheduler — pass a
    /// closure that ignores `lane` to broadcast one policy across the
    /// block, or derive the seed from `lane` to pack [`LANES`] adversarial
    /// runs into one instance. Overrides persist across later plain resets
    /// (which rewind them via `Scheduler::reset`), exactly like the scalar
    /// engine's [`crate::Simulation::reset_with_schedulers`].
    pub fn reset_with_schedulers(&mut self, overrides: &[(NodeId, &SchedulerFactory<'_>)]) {
        self.reset();
        self.core.override_nodes(
            overrides.iter().map(|(node, make)| (*node, make)),
            "shared module",
            |c, make| (0..LANES).all(|lane| c.override_scheduler(lane, make(lane))),
        );
    }

    fn record_traces(&mut self) {
        for lane in 0..LANES {
            for channel in 0..self.channels.channel_count() {
                self.state_scratch[channel] = self.channels.lane_state(channel, lane);
            }
            self.traces[lane].record(&self.state_scratch);
        }
    }

    /// Simulates one clock cycle across all lanes.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::CombinationalLoop`] when the control words fail
    /// to settle.
    pub fn step(&mut self) -> Result<(), SimError> {
        self.channels.clear();
        if !self.core.settle(self.plan.as_deref(), &mut self.channels) {
            return Err(self.core.combinational_loop());
        }
        if self.config.record_trace {
            self.record_traces();
        }
        self.core.clock_edge(&mut self.channels);
        Ok(())
    }

    /// Simulates `cycles` clock cycles across all lanes.
    ///
    /// # Errors
    ///
    /// Same conditions as [`LaneSimulation::step`].
    pub fn run(&mut self, cycles: u64) -> Result<(), SimError> {
        for _ in 0..cycles {
            self.step()?;
        }
        Ok(())
    }

    /// One lane's accumulated report — field-for-field what the scalar
    /// engine's [`crate::Simulation::report`] returns for that lane's
    /// scenario, except for the effort counters, which are shared across
    /// lanes and count what the scalar engine counts on the same settle
    /// path: on the compiled plan `settle_iterations` counts op executions
    /// and `controller_evals` the ops that evaluate a whole controller (as
    /// under `SettleStrategy::Compiled`), on the event-driven worklist they
    /// count worklist pops and word evaluations.
    ///
    /// # Panics
    ///
    /// When `lane >= LANES`.
    pub fn report(&self, lane: usize) -> SimulationReport {
        SimulationReport {
            trace_bytes: self.trace(lane).heap_bytes() as u64,
            ..self.core.report(lane)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{SettleStrategy, SimConfig, Simulation};
    use elastic_core::kind::{BufferSpec, ForkSpec, FunctionSpec, SinkSpec, SourceSpec};
    use elastic_core::library::deep_pipeline;
    use elastic_core::{Op, Port};

    /// src -> inc -> EB -> sink.
    fn pipeline() -> Netlist {
        deep_pipeline(1, BufferSpec::standard(0), BackpressurePattern::Never)
    }

    /// src -> lazy fork -> both branches into one join -> sink: a
    /// rendezvous, whose rails form a cycle.
    fn lazy_fork() -> Netlist {
        let mut n = Netlist::new("lazy-fork");
        let src = n.add_source("src", SourceSpec::always());
        let fork = n.add_fork("fork", ForkSpec::lazy(2));
        let join = n.add_function("join", FunctionSpec::with_inputs(Op::Add, 2));
        let sink = n.add_sink("sink", SinkSpec::always_ready());
        n.connect(Port::output(src, 0), Port::input(fork, 0), 8).unwrap();
        for branch in 0..2 {
            n.connect(Port::output(fork, branch), Port::input(join, branch), 8).unwrap();
        }
        n.connect(Port::output(join, 0), Port::input(sink, 0), 8).unwrap();
        n
    }

    /// `(settle_iterations, controller_evals)` of 10 cycles on the lane
    /// engine and on the scalar engine under `settle`.
    fn effort(netlist: &Netlist, settle: SettleStrategy) -> [(u64, u64); 2] {
        let mut lanes = LaneSimulation::new(netlist, &LaneConfig::default()).unwrap();
        lanes.run(10).unwrap();
        let lane = lanes.report(0);
        let config = SimConfig { settle, ..SimConfig::default() };
        let scalar = Simulation::new(netlist, &config).unwrap().run(10).unwrap();
        [
            (lane.settle_iterations, lane.controller_evals),
            (scalar.settle_iterations, scalar.controller_evals),
        ]
    }

    #[test]
    fn lanes_settle_on_the_plan_without_optimistic_controllers() {
        let netlist = pipeline();
        assert!(LaneSimulation::new(&netlist, &LaneConfig::default()).unwrap().plan.is_some());
        // Five ops per cycle, three of them the registered controllers'
        // evals and two the incrementer's halves: what the scalar Compiled
        // strategy counts, where the worklist would count four evals.
        let [lanes, compiled] = effort(&netlist, SettleStrategy::Compiled);
        assert_eq!(lanes, (10 * 5, 10 * 3));
        assert_eq!(lanes, compiled);
    }

    #[test]
    fn lanes_settle_a_lazy_fork_on_the_worklist() {
        let netlist = lazy_fork();
        assert!(LaneSimulation::new(&netlist, &LaneConfig::default()).unwrap().plan.is_none());
        // Every worklist pop evaluates a controller, in both passes.
        let [lanes, event_driven] = effort(&netlist, SettleStrategy::EventDriven);
        assert_eq!(lanes.0, lanes.1);
        assert_eq!(lanes, event_driven);
    }

    #[test]
    fn lanes_without_recording_report_one_empty_trace() {
        let netlist = pipeline();
        let mut lanes = LaneSimulation::new(&netlist, &LaneConfig { record_trace: false }).unwrap();
        lanes.run(10).unwrap();
        for lane in [0, LANES - 1] {
            assert_eq!(lanes.trace(lane), &Trace::new(&netlist), "lane {lane}");
            assert_eq!(lanes.report(lane).trace_bytes, 0, "lane {lane}");
        }
    }

    #[test]
    fn for_each_lane_visits_set_bits_in_order() {
        assert_eq!(0b1010_0001u64.lanes().collect::<Vec<_>>(), vec![0, 5, 7]);
        assert_eq!(0u64.lanes().next(), None, "no bits set");
        assert_eq!(true.lanes().collect::<Vec<_>>(), vec![0]);
        assert_eq!(false.lanes().next(), None);
        assert_eq!(0b100u64.with_lane(0, true).with_lane(2, false), 1);
        assert!(u64::lane(63).in_lane(63) && !u64::lane(63).in_lane(62));
    }
}
