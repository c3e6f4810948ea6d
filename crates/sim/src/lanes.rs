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
//!   [`crate::Simulation`]: dense channel indexing, topological ranks, the
//!   rank-bucketed worklist with its optimistic two-pass for lazy forks,
//!   the settle budget and oscillation witness, override lookup, the clock
//!   edge and report assembly (from [`LaneController::report`]) are the
//!   same code. Compare-and-set dirty tracking is word-wide: a channel
//!   re-enters the worklist when *any* lane changed. The lane engine keeps
//!   the word storage, the per-lane traces, the divergence map and the
//!   per-lane environments.
//! * Rails are stored structure-of-arrays: `Vec<u64>` per rail, one word
//!   per channel. Data is a lane-major column per channel
//!   (`data[channel * LANES + lane]`) touched only by the ops that consume
//!   data (function evaluation, mux steering, buffered values).
//! * Every node kind is one type of [`crate::controllers`], instantiated
//!   at the `u64` rail: the scalar engine runs the same types at `bool`,
//!   so their state, clock edge, statistics, reset and environment exist
//!   once ([`crate::controller::WordController`]). Per-lane state lives in
//!   per-lane stores: each lane's source offer pattern, sink back-pressure
//!   pattern and random generator, its shared-module scheduler, its buffer
//!   and commit-stage tokens and its transfer stream. Sources drive one
//!   offer word per cycle and sinks one stop word, both computed at the
//!   clock edge; the per-lane overrides of the `reset_with_*` family land
//!   on the controllers' per-lane hooks.
//!
//! The correctness contract is **lane-0 bit-identity**: a lane simulation
//! whose lanes all see the same environment must produce, in every lane,
//! exactly the trace and report of the scalar `EventDriven` engine. The
//! `engine_equivalence` suite and the `ELASTIC_FUZZ_LANES` differential
//! fuzz leg pin this the same way the FullSweep oracle pinned the PR-1
//! engine swap.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

use elastic_core::kind::{BackpressurePattern, SourcePattern};
use elastic_core::{Netlist, NodeId, Scheduler};

use crate::controller::{NodeReport, WordController};
use crate::controllers::build_controller;
use crate::engine::SimError;
use crate::engine_core::{CoreNode, EngineCore, Ports};
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
    /// Accumulate a per-channel lane-divergence map: bit `ℓ` of word `c`
    /// is set once lane `ℓ` ever differed from lane 0 on channel `c` (any
    /// rail or the data column). Costs a per-cycle scan; off by default.
    pub track_divergence: bool,
}

impl Default for LaneConfig {
    fn default() -> Self {
        LaneConfig { record_trace: true, track_divergence: false }
    }
}

/// Mask selecting the live bits of a channel of the given width.
#[inline]
fn width_mask(width: u8) -> u64 {
    if width >= 64 {
        u64::MAX
    } else {
        (1u64 << width).wrapping_sub(1)
    }
}

/// Broadcasts bit 0 of `word` into every lane (all-ones when lane 0 is set).
#[inline]
fn spread_lane0(word: u64) -> u64 {
    (word & 1).wrapping_neg()
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
    fn new(channel_count: usize) -> Self {
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

/// Word-level controller I/O view: the lane analogue of
/// [`crate::controller::NodeIo`].
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

impl<'a> LaneIo<'a> {
    fn new(
        channels: &'a mut LaneChannels,
        (input_channels, output_channels): &'a Ports,
        channel_widths: &'a [u8],
        dirty: Option<&'a mut Vec<usize>>,
    ) -> Self {
        LaneIo { channels, input_channels, output_channels, channel_widths, dirty }
    }

    /// Marks `channel` dirty when tracking.
    fn mark_dirty(&mut self, channel: usize) {
        if let Some(dirty) = self.dirty.as_deref_mut() {
            dirty.push(channel);
        }
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
        let mask = width_mask(self.channel_widths.get(channel).copied().unwrap_or(64));
        let column = &mut self.channels.data[channel * LANES..][..LANES];
        let mut changed = false;
        for (slot, &value) in column.iter_mut().zip(data) {
            let value = value & mask;
            if *slot != value {
                *slot = value;
                changed = true;
            }
        }
        if changed {
            self.mark_dirty(channel);
        }
    }
    fn copy_data(&mut self, input: usize, output: usize) {
        let column: [u64; LANES] = self.input_data(input).try_into().expect("one word per lane");
        self.drive_data(output, &column);
    }
}

/// One netlist node evaluated across all [`LANES`] scenarios at once.
///
/// Semantics mirror [`crate::controller::Controller`] lane-wise: `eval`
/// must be a pure function of the channel words and the sequential state,
/// `commit` advances the sequential state of every lane on the settled
/// signals. Every node kind implements it through one blanket impl over
/// [`WordController<u64>`].
pub trait LaneController: fmt::Debug {
    /// Drives this node's output words from the current channel words;
    /// `optimistic` selects the seeding-pass variant of multi-fixpoint
    /// controllers (lazy forks).
    fn eval(&self, io: &mut LaneIo<'_>, optimistic: bool);

    /// Whether this controller needs the optimistic seeding pass.
    fn is_optimistic(&self) -> bool;

    /// Whether `eval` observes channel signals (`false` cuts control loops
    /// at registered boundaries, exactly like the scalar engine).
    fn eval_reads_channels(&self) -> bool;

    /// Advances every lane's sequential state on the settled signals.
    fn commit(&mut self, io: &LaneIo<'_>);

    /// Rewinds every lane to its post-construction state.
    fn reset(&mut self);

    /// What one lane of this node contributes to that lane's
    /// [`SimulationReport`] — the lane analogue of
    /// [`crate::controller::Controller::report`].
    fn report(&self, lane: usize) -> NodeReport<'_>;

    /// See [`WordController::override_sink`].
    fn override_sink(&mut self, lane: usize, pattern: &BackpressurePattern) -> bool;

    /// See [`WordController::override_source`].
    fn override_source(&mut self, lane: usize, pattern: &SourcePattern) -> bool;

    /// See [`WordController::override_scheduler`].
    fn override_scheduler(&mut self, lane: usize, scheduler: Box<dyn Scheduler>) -> bool;
}

// ---------------------------------------------------------------------------
// The engine
// ---------------------------------------------------------------------------

impl CoreNode for Box<dyn LaneController> {
    type Channels = LaneChannels;
    type Rail = u64;

    fn boxed<T: WordController<u64> + 'static>(controller: T) -> Self {
        Box::new(controller)
    }

    fn optimistic(&self) -> bool {
        self.is_optimistic()
    }

    fn reads_channels(&self) -> bool {
        self.eval_reads_channels()
    }

    fn eval_tracked(
        &mut self,
        channels: &mut LaneChannels,
        ports: &Ports,
        widths: &[u8],
        dirty: &mut Vec<usize>,
        optimistic: bool,
    ) {
        self.eval(&mut LaneIo::new(channels, ports, widths, Some(dirty)), optimistic);
    }

    fn commit_settled(&mut self, channels: &mut LaneChannels, ports: &Ports) {
        // Commits only read the settled words, so no widths are needed.
        self.commit(&LaneIo::new(channels, ports, &[], None));
    }

    fn rewind(&mut self) {
        self.reset();
    }
}

/// A cycle-accurate SELF simulation advancing [`LANES`] independent
/// scenarios per word operation.
///
/// The settle algorithm, evaluation ranks, worklist, budget, oscillation
/// reporting and report assembly are the scalar [`crate::Simulation`]'s —
/// both engines run on the same engine core. This engine keeps the lane
/// word storage, the per-lane traces, the divergence map and the per-lane
/// environments: sink back-pressure and source offer patterns vary per
/// lane, and shared-module schedulers inject lane-blocked (one freshly
/// built scheduler per lane, see [`LaneSimulation::reset_with_schedulers`]).
/// Not supported in the lane engine (use the scalar engine): fault
/// injection and streaming cycle monitors.
pub struct LaneSimulation {
    config: LaneConfig,
    core: EngineCore<Box<dyn LaneController>>,
    channels: LaneChannels,
    traces: Vec<Trace>,
    state_scratch: Vec<ChannelState>,
    divergence: Vec<u64>,
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
        let channel_count = netlist.live_channels().count();
        let core = EngineCore::build(netlist, |node| build_controller(netlist, node))?;
        LANE_CONSTRUCTIONS.fetch_add(1, Ordering::Relaxed);
        Ok(LaneSimulation {
            config: config.clone(),
            core,
            channels: LaneChannels::new(channel_count),
            traces: (0..LANES).map(|_| Trace::new(netlist)).collect(),
            state_scratch: vec![ChannelState::default(); channel_count],
            divergence: vec![0; channel_count],
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

    /// One lane's recorded trace (empty unless [`LaneConfig::record_trace`]
    /// is set).
    ///
    /// # Panics
    ///
    /// When `lane >= LANES`.
    pub fn trace(&self, lane: usize) -> &Trace {
        &self.traces[lane]
    }

    /// The per-cycle settle budget in full-sweep equivalents — the same
    /// bound as [`crate::Simulation::settle_budget`].
    pub fn settle_budget(&self) -> usize {
        self.core.settle_budget()
    }

    /// The accumulated per-channel lane-divergence map (dense channel
    /// order): bit `ℓ` of word `c` is set once lane `ℓ` differed from
    /// lane 0 on channel `c`. All zeros unless
    /// [`LaneConfig::track_divergence`] is set.
    pub fn divergence_map(&self) -> &[u64] {
        &self.divergence
    }

    /// Lanes that ever diverged from lane 0 on any channel, as a bit mask.
    pub fn divergent_lanes(&self) -> u64 {
        self.divergence.iter().fold(0, |acc, &word| acc | word)
    }

    /// Rewinds every lane to cycle 0 without rebuilding (the lane analogue
    /// of [`crate::Simulation::reset`]).
    pub fn reset(&mut self) {
        self.core.rewind();
        self.channels.clear();
        for trace in &mut self.traces {
            trace.clear();
        }
        self.divergence.fill(0);
    }

    /// [`LaneSimulation::reset`], additionally replacing each lane's sink
    /// back-pressure pattern individually: lane `ℓ` of a named sink gets
    /// `patterns[min(ℓ, patterns.len() - 1)]` — 64 environments per
    /// simulation instance. Empty pattern lists leave the sink untouched.
    pub fn reset_with_lane_sink_patterns(
        &mut self,
        overrides: &[(NodeId, Vec<BackpressurePattern>)],
    ) {
        let overrides = overrides.iter().filter(|(_, patterns)| !patterns.is_empty());
        self.reset_with_lane_overrides(overrides, "sink", |c, lane, patterns| {
            c.override_sink(lane, &patterns[lane.min(patterns.len() - 1)])
        });
    }

    /// [`LaneSimulation::reset`], additionally replacing each lane's
    /// token-offer pattern of the named sources individually: lane `ℓ` of a
    /// named source gets `patterns[min(ℓ, patterns.len() - 1)]` — 64 offer
    /// environments per simulation instance, the source-side mirror of
    /// [`LaneSimulation::reset_with_lane_sink_patterns`]. Empty pattern
    /// lists leave the source untouched. Data streams are kept: only *when*
    /// tokens are offered varies per lane, never their values.
    pub fn reset_with_lane_source_patterns(&mut self, overrides: &[(NodeId, Vec<SourcePattern>)]) {
        let overrides = overrides.iter().filter(|(_, patterns)| !patterns.is_empty());
        self.reset_with_lane_overrides(overrides, "source", |c, lane, patterns| {
            c.override_source(lane, &patterns[lane.min(patterns.len() - 1)])
        });
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
        self.reset_with_lane_overrides(overrides.iter(), "shared module", |c, lane, make| {
            c.override_scheduler(lane, make(lane))
        });
    }

    /// Resets, then applies `apply(controller, lane, value)` to every lane
    /// of each named node; the node must be a `role`.
    fn reset_with_lane_overrides<'o, T: 'o>(
        &mut self,
        overrides: impl Iterator<Item = &'o (NodeId, T)>,
        role: &str,
        apply: impl Fn(&mut Box<dyn LaneController>, usize, &T) -> bool,
    ) {
        self.reset();
        self.core.override_nodes(
            overrides.map(|(node, value)| (*node, value)),
            role,
            |c, value| (0..LANES).all(|lane| apply(c, lane, value)),
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

    fn accumulate_divergence(&mut self) {
        for channel in 0..self.channels.channel_count() {
            let fv = self.channels.forward_valid[channel];
            let fs = self.channels.forward_stop[channel];
            let bv = self.channels.backward_valid[channel];
            let bs = self.channels.backward_stop[channel];
            let mut diff = (fv ^ spread_lane0(fv))
                | (fs ^ spread_lane0(fs))
                | (bv ^ spread_lane0(bv))
                | (bs ^ spread_lane0(bs));
            let column = &self.channels.data[channel * LANES..][..LANES];
            let lane0 = column[0];
            for (lane, &value) in column.iter().enumerate().skip(1) {
                if value != lane0 {
                    diff |= 1u64 << lane;
                }
            }
            self.divergence[channel] |= diff;
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
        if !self.core.settle_event_driven(&mut self.channels) {
            return Err(self.core.combinational_loop());
        }
        if self.config.record_trace {
            self.record_traces();
        }
        if self.config.track_divergence {
            self.accumulate_divergence();
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
    /// scenario, except that `settle_iterations` / `controller_evals`
    /// count **word** evaluations (shared across lanes) and
    /// [`SimulationReport::lane_divergence`] carries the whole divergence
    /// map.
    ///
    /// # Panics
    ///
    /// When `lane >= LANES`.
    pub fn report(&self, lane: usize) -> SimulationReport {
        assert!(lane < LANES, "lane {lane} out of range");
        SimulationReport {
            trace_bytes: self.traces[lane].heap_bytes() as u64,
            lane_divergence: self.divergence.clone(),
            ..self.core.report(|controller| controller.report(lane))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn width_mask_covers_the_edge_widths() {
        assert_eq!(width_mask(0), 0);
        assert_eq!(width_mask(1), 1);
        assert_eq!(width_mask(8), 0xFF);
        assert_eq!(width_mask(63), u64::MAX >> 1);
        assert_eq!(width_mask(64), u64::MAX);
    }

    #[test]
    fn spread_lane0_broadcasts_bit_zero() {
        assert_eq!(spread_lane0(0), 0);
        assert_eq!(spread_lane0(1), u64::MAX);
        assert_eq!(spread_lane0(0b10), 0);
        assert_eq!(spread_lane0(u64::MAX), u64::MAX);
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
