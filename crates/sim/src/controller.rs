//! The controller abstraction: one small SELF handshake machine per node.
//!
//! A [`Controller`] is the cycle-accurate model of one netlist node. Every
//! clock cycle the engine:
//!
//! 1. repeatedly calls [`Controller::eval`] on every controller until the
//!    channel signals reach a fixed point (the combinational phase), then
//! 2. calls [`Controller::commit`] exactly once on every controller with the
//!    settled signals (the clock edge).
//!
//! `eval` must be a pure function of the controller's sequential state and of
//! the signals it *reads*; it drives only the signals its node owns (see
//! [`crate::signal::ChannelState`] for the ownership convention).
//!
//! ## Kill/transfer precedence
//!
//! When a token and an anti-token meet at a node boundary during the same
//! cycle (the producer offers `V+` while the consumer asserts `V-`), the two
//! cancel: the producer treats its token as *killed* (not delivered) and the
//! consumer must not latch it. All controllers in [`crate::controllers`]
//! follow this "kill wins over transfer" convention so both endpoints agree
//! on what happened.

use elastic_core::kind::{BackpressurePattern, SourcePattern};
use elastic_core::Scheduler;

use crate::handshake::{HandshakeIo, Rail};
use crate::lanes::{LaneController, LaneIo};
use crate::metrics::{CommitStageStats, SharedModuleStats};
use crate::signal::ChannelState;

/// Read/write access to the channels attached to one node during `eval`.
///
/// Indices are port indices of the node (matching the conventions documented
/// on [`elastic_core::NodeKind`]); the translation to global channel indices
/// is fixed when the simulation is built.
///
/// Every setter is **change-tracked**: it compares the new value against the
/// stored one and records the channel index in the dirty list (when one is
/// attached via [`NodeIo::tracked`]) only on an actual change. The engine's
/// event-driven settle phase uses this to re-evaluate exactly the controllers
/// whose observed signals changed.
#[derive(Debug)]
pub struct NodeIo<'a> {
    channels: &'a mut [ChannelState],
    input_channels: &'a [usize],
    output_channels: &'a [usize],
    /// Declared bit width per global channel; empty means "no masking"
    /// (controller unit tests drive raw 64-bit words).
    channel_widths: &'a [u8],
    dirty: Option<&'a mut Vec<usize>>,
}

impl<'a> NodeIo<'a> {
    /// Creates an untracked port view for one node (used for commits and in
    /// controller unit tests).
    pub fn new(
        channels: &'a mut [ChannelState],
        input_channels: &'a [usize],
        output_channels: &'a [usize],
    ) -> Self {
        NodeIo { channels, input_channels, output_channels, channel_widths: &[], dirty: None }
    }

    /// A port view masking data to `channel_widths`, change-tracked when
    /// `dirty` is given (see [`NodeIo::tracked`]).
    pub(crate) fn masked(
        channels: &'a mut [ChannelState],
        input_channels: &'a [usize],
        output_channels: &'a [usize],
        channel_widths: &'a [u8],
        dirty: Option<&'a mut Vec<usize>>,
    ) -> Self {
        NodeIo { channels, input_channels, output_channels, channel_widths, dirty }
    }

    /// Creates a change-tracked port view: every setter that changes a stored
    /// signal pushes the affected global channel index onto `dirty` (possibly
    /// more than once; consumers dedupe). `channel_widths` gives the declared
    /// width of every global channel; data driven through
    /// [`NodeIo::set_output_data`] is masked to it, so a channel never
    /// carries more bits than its declaration — the invariant the structural
    /// HDL views rely on (a Verilog wire truncates, so must we), and the
    /// reason width-converting forks/joins are safe to generate.
    pub fn tracked(
        channels: &'a mut [ChannelState],
        input_channels: &'a [usize],
        output_channels: &'a [usize],
        channel_widths: &'a [u8],
        dirty: &'a mut Vec<usize>,
    ) -> Self {
        NodeIo::masked(channels, input_channels, output_channels, channel_widths, Some(dirty))
    }

    /// Number of input ports of the node.
    pub fn input_count(&self) -> usize {
        self.input_channels.len()
    }

    /// Number of output ports of the node.
    pub fn output_count(&self) -> usize {
        self.output_channels.len()
    }

    /// The channel state attached to input port `index`.
    pub fn input(&self, index: usize) -> ChannelState {
        self.channels[self.input_channels[index]]
    }

    /// The channel state attached to output port `index`.
    pub fn output(&self, index: usize) -> ChannelState {
        self.channels[self.output_channels[index]]
    }

    /// Compare-and-set of one channel field, recording the channel as dirty
    /// on an actual change.
    fn write<T: PartialEq>(
        &mut self,
        channel: usize,
        field: impl FnOnce(&mut ChannelState) -> &mut T,
        value: T,
    ) {
        let slot = field(&mut self.channels[channel]);
        if *slot != value {
            *slot = value;
            if let Some(dirty) = self.dirty.as_deref_mut() {
                dirty.push(channel);
            }
        }
    }

    /// Drives `S+` on input port `index` (consumer-owned signal).
    pub fn set_input_stop(&mut self, index: usize, stop: bool) {
        self.write(self.input_channels[index], |c| &mut c.forward_stop, stop);
    }

    /// Drives `V-` on input port `index` (consumer-owned signal).
    pub fn set_input_kill(&mut self, index: usize, kill: bool) {
        self.write(self.input_channels[index], |c| &mut c.backward_valid, kill);
    }

    /// Drives `V+` on output port `index` (producer-owned signal).
    pub fn set_output_valid(&mut self, index: usize, valid: bool) {
        self.write(self.output_channels[index], |c| &mut c.forward_valid, valid);
    }

    /// Drives the data word on output port `index` (producer-owned signal).
    ///
    /// The word is masked to the channel's declared width (when the view was
    /// built with widths): every producer — including width-preserving
    /// pass-through controllers such as forks and buffers — truncates exactly
    /// like the wire it models, so a narrow channel fed by a wide producer
    /// behaves identically in simulation and in the emitted HDL.
    pub fn set_output_data(&mut self, index: usize, data: u64) {
        let channel = self.output_channels[index];
        let masked = match self.channel_widths.get(channel) {
            Some(&width) if width < 64 => data & ((1u64 << width) - 1),
            _ => data,
        };
        self.write(channel, |c| &mut c.data, masked);
    }

    /// Drives `S-` on output port `index` (producer-owned signal).
    pub fn set_output_anti_stop(&mut self, index: usize, stop: bool) {
        self.write(self.output_channels[index], |c| &mut c.backward_stop, stop);
    }
}

impl HandshakeIo for NodeIo<'_> {
    type Rail = bool;

    fn input_count(&self) -> usize {
        self.input_channels.len()
    }
    fn output_count(&self) -> usize {
        self.output_channels.len()
    }
    fn input_valid(&self, port: usize) -> bool {
        self.input(port).forward_valid
    }
    fn input_stop(&self, port: usize) -> bool {
        self.input(port).forward_stop
    }
    fn input_kill(&self, port: usize) -> bool {
        self.input(port).backward_valid
    }
    fn input_anti_stop(&self, port: usize) -> bool {
        self.input(port).backward_stop
    }
    fn output_valid(&self, port: usize) -> bool {
        self.output(port).forward_valid
    }
    fn output_stop(&self, port: usize) -> bool {
        self.output(port).forward_stop
    }
    fn output_kill(&self, port: usize) -> bool {
        self.output(port).backward_valid
    }
    fn output_anti_stop(&self, port: usize) -> bool {
        self.output(port).backward_stop
    }
    fn set_input_stop(&mut self, port: usize, stop: bool) {
        NodeIo::set_input_stop(self, port, stop);
    }
    fn set_input_kill(&mut self, port: usize, kill: bool) {
        NodeIo::set_input_kill(self, port, kill);
    }
    fn set_output_valid(&mut self, port: usize, valid: bool) {
        NodeIo::set_output_valid(self, port, valid);
    }
    fn set_output_anti_stop(&mut self, port: usize, stop: bool) {
        NodeIo::set_output_anti_stop(self, port, stop);
    }
    fn input_data(&self, port: usize) -> &[u64] {
        std::slice::from_ref(&self.channels[self.input_channels[port]].data)
    }
    fn drive_data(&mut self, port: usize, data: &[u64]) {
        self.set_output_data(port, data[0]);
    }
    fn copy_data(&mut self, input: usize, output: usize) {
        self.set_output_data(output, self.input(input).data);
    }
}

/// Per-node statistics exposed by a controller after simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NodeStats {
    /// Forward transfers completed on the node's (first) output.
    pub output_transfers: u64,
    /// Tokens cancelled by anti-tokens at this node.
    pub killed_tokens: u64,
    /// Cycles in which the node stalled a valid input.
    pub stall_cycles: u64,
    /// Mispredictions observed (speculative shared modules only).
    pub mispredictions: u64,
}

/// One controller's contribution to a [`crate::SimulationReport`]: its
/// [`NodeStats`] plus the observables only its node kind records. Both
/// engines assemble their reports with one match over this enum.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NodeReport<'a> {
    /// Buffers, function blocks, forks, multiplexors and variable-latency
    /// units: statistics only.
    Basic(NodeStats),
    /// A source; its `killed_tokens` are the report's source kills.
    Source(NodeStats),
    /// A sink and its `(cycle, value)` transfer stream, in transfer order.
    Sink(NodeStats, &'a [(u64, u64)]),
    /// A speculative shared module and its speculation statistics.
    Shared(NodeStats, SharedModuleStats),
    /// An in-order commit stage and its per-lane counters — the observable
    /// behind the depth sweeps of `BENCH_commit_depth.json`.
    Commit(NodeStats, CommitStageStats),
}

/// A cycle-accurate model of one netlist node, as the scalar engine drives
/// it. Every node kind implements it through one blanket impl over
/// [`WordController<bool>`].
pub trait Controller: std::fmt::Debug {
    /// Combinational evaluation: read the attached channels and drive the
    /// node-owned signals. Called repeatedly within a cycle until the channel
    /// signals stop changing; it must therefore be deterministic and depend
    /// only on the sequential state and the read signals.
    fn eval(&self, io: &mut NodeIo<'_>);

    /// `true` when this controller's settle equations have more than one
    /// fixed point and the engine must run the **optimistic seeding pass**
    /// before the honest fixpoint (see the engine's module docs). Lazy forks
    /// are the one such component: a branch's valid is withheld while any
    /// sibling is not ready, and a reconverging join's stop is held while
    /// the valids are missing — a circular wait with a live *and* a dead
    /// solution.
    fn is_optimistic(&self) -> bool;

    /// The optimistic variant of [`Controller::eval`], used only during the
    /// engine's seeding pass: drive the signals *as if* every circular-wait
    /// precondition held (a lazy fork offers all branch copies as if all
    /// branches were ready). Every signal written here is rewritten by the
    /// honest [`Controller::eval`] before the cycle settles, so optimistic
    /// assumptions never leak into the committed state — they only steer a
    /// multi-fixpoint system towards its live solution.
    fn eval_optimistic(&self, io: &mut NodeIo<'_>);

    /// Clock edge: update the sequential state from the settled signals.
    fn commit(&mut self, io: &NodeIo<'_>);

    /// Rewinds all sequential state (including statistics) to its
    /// post-construction value, so a simulation can be re-run without being
    /// rebuilt (see [`crate::Simulation::reset`]). Implementations may keep
    /// their allocations, but every *observable* — driven signals, committed
    /// state, statistics — must be indistinguishable from a freshly
    /// constructed controller.
    fn reset(&mut self);

    /// [`WordController::override_sink`] on the one scenario.
    fn override_backpressure(&mut self, pattern: &BackpressurePattern) -> bool;

    /// [`WordController::override_source`] on the one scenario.
    fn override_source_pattern(&mut self, pattern: &SourcePattern) -> bool;

    /// [`WordController::override_scheduler`] on the one scenario.
    fn override_scheduler(&mut self, scheduler: Box<dyn Scheduler>) -> bool;

    /// `true` when [`Controller::eval`] reads any attached channel signal.
    ///
    /// Fully registered controllers (the standard elastic buffer, sources,
    /// sinks) drive all of their signals from sequential state alone; the
    /// engine then evaluates them exactly once per cycle and never re-wakes
    /// them, and uses them as the cut points that break control loops when it
    /// computes the static evaluation order. Returning `true` is always safe;
    /// returning `false` for a controller that *does* read channels makes the
    /// simulation silently miss signal updates — only return it when `eval`
    /// is a function of `&self` alone.
    fn eval_reads_channels(&self) -> bool;

    /// Concrete-type escape hatch for the compiled settle backend.
    ///
    /// The compiled planner ([`crate::engine::SettleStrategy::Compiled`])
    /// snapshots the sequential state of a few controller kinds once per cycle
    /// (zero-backward buffers, eager forks, early-evaluation muxes) so it can
    /// replay their equations without dynamic dispatch, and emitted settle
    /// functions ([`crate::codegen`]) call the planned controllers' forward
    /// and backward equations statically. The blanket impl returns
    /// `Some(self)`; the planner evaluates every other kind through the
    /// trait as usual.
    fn as_any(&self) -> Option<&dyn std::any::Any>;

    /// What this controller contributes to a [`crate::SimulationReport`]:
    /// its statistics plus the observables only its node kind records.
    fn report(&self) -> NodeReport<'_>;
}

/// A SELF controller written once over the rail word `R`: it owns its
/// per-lane state, the clock-edge update of that state, its statistics,
/// its reset and its per-lane environment, and drives the equations of
/// [`crate::handshake`]. Every node kind is one such type: the `bool`
/// instantiation is a [`Controller`] and the `u64` one a
/// [`LaneController`], each through one blanket impl below.
pub trait WordController<R: Rail>: std::fmt::Debug {
    /// Drives the node's signals: [`Controller::eval`], or
    /// [`Controller::eval_optimistic`] when `optimistic`.
    fn drive<P: HandshakeIo<Rail = R>>(&self, io: &mut P, optimistic: bool);

    /// Clock edge: updates every lane's state from the settled signals.
    fn clock<P: HandshakeIo<Rail = R>>(&mut self, io: &P);

    /// Rewinds every lane to its post-construction state (see
    /// [`Controller::reset`]).
    fn rewind(&mut self);

    /// What lane `lane` contributes to that lane's report (see
    /// [`Controller::report`]).
    fn report(&self, lane: usize) -> NodeReport<'_>;

    /// See [`Controller::is_optimistic`].
    fn optimistic(&self) -> bool {
        false
    }

    /// See [`Controller::eval_reads_channels`].
    fn reads_channels(&self) -> bool {
        true
    }

    /// Replaces lane `lane`'s back-pressure pattern and restarts that
    /// lane's pattern (sinks only — every other node kind returns `false`).
    /// Engines call it right after a rewind; the replacement persists, so
    /// later rewinds restart the *new* pattern.
    fn override_sink(&mut self, _lane: usize, _pattern: &BackpressurePattern) -> bool {
        false
    }

    /// Replaces lane `lane`'s offer pattern and restarts it (sources only —
    /// every other node kind returns `false`). The data stream is kept:
    /// only *when* tokens are offered changes, which is what the
    /// environment-injection sweeps vary. Persistent, as for
    /// [`WordController::override_sink`].
    fn override_source(&mut self, _lane: usize, _pattern: &SourcePattern) -> bool {
        false
    }

    /// Replaces lane `lane`'s prediction policy with a freshly initialised
    /// scheduler (speculative shared modules only — every other node kind
    /// drops the box and returns `false`). The replacement persists across
    /// later rewinds, which reset it via [`Scheduler::reset`].
    fn override_scheduler(&mut self, _lane: usize, _scheduler: Box<dyn Scheduler>) -> bool {
        false
    }
}

impl<T: WordController<bool> + 'static> Controller for T {
    fn eval(&self, io: &mut NodeIo<'_>) {
        self.drive(io, false);
    }

    fn is_optimistic(&self) -> bool {
        self.optimistic()
    }

    fn eval_optimistic(&self, io: &mut NodeIo<'_>) {
        self.drive(io, true);
    }

    fn commit(&mut self, io: &NodeIo<'_>) {
        self.clock(io);
    }

    fn reset(&mut self) {
        self.rewind();
    }

    fn override_backpressure(&mut self, pattern: &BackpressurePattern) -> bool {
        self.override_sink(0, pattern)
    }

    fn override_source_pattern(&mut self, pattern: &SourcePattern) -> bool {
        self.override_source(0, pattern)
    }

    fn override_scheduler(&mut self, scheduler: Box<dyn Scheduler>) -> bool {
        WordController::override_scheduler(self, 0, scheduler)
    }

    fn eval_reads_channels(&self) -> bool {
        self.reads_channels()
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }

    fn report(&self) -> NodeReport<'_> {
        WordController::report(self, 0)
    }
}

impl<T: WordController<u64>> LaneController for T {
    fn eval(&self, io: &mut LaneIo<'_>, optimistic: bool) {
        self.drive(io, optimistic);
    }

    fn is_optimistic(&self) -> bool {
        self.optimistic()
    }

    fn eval_reads_channels(&self) -> bool {
        self.reads_channels()
    }

    fn commit(&mut self, io: &LaneIo<'_>) {
        self.clock(io);
    }

    fn reset(&mut self) {
        self.rewind();
    }

    fn report(&self, lane: usize) -> NodeReport<'_> {
        WordController::report(self, lane)
    }

    fn override_sink(&mut self, lane: usize, pattern: &BackpressurePattern) -> bool {
        WordController::override_sink(self, lane, pattern)
    }

    fn override_source(&mut self, lane: usize, pattern: &SourcePattern) -> bool {
        WordController::override_source(self, lane, pattern)
    }

    fn override_scheduler(&mut self, lane: usize, scheduler: Box<dyn Scheduler>) -> bool {
        WordController::override_scheduler(self, lane, scheduler)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_io_reads_and_writes_the_right_channels() {
        let mut channels = vec![ChannelState::default(); 3];
        channels[2].data = 77;
        channels[2].forward_valid = true;
        let inputs = vec![2usize];
        let outputs = vec![0usize, 1usize];
        let mut io = NodeIo::new(&mut channels, &inputs, &outputs);

        assert_eq!(io.input_count(), 1);
        assert_eq!(io.output_count(), 2);
        assert!(io.input(0).forward_valid);
        assert_eq!(HandshakeIo::input_data(&io, 0), &[77]);
        assert!(HandshakeIo::input_valid(&io, 0));

        io.set_output_valid(1, true);
        io.set_output_data(1, 9);
        io.set_input_stop(0, true);
        io.set_input_kill(0, true);
        io.set_output_anti_stop(0, true);

        assert!(channels[1].forward_valid);
        assert_eq!(channels[1].data, 9);
        assert!(channels[2].forward_stop);
        assert!(channels[2].backward_valid);
        assert!(channels[0].backward_stop);
    }

    #[test]
    fn default_stats_are_zero() {
        // The override hooks default to refusing: only sinks, sources and
        // shared modules take one.
        let spec = elastic_core::FunctionSpec::new(elastic_core::Op::Inc);
        let mut block = crate::controllers::function::FunctionBlock::<bool>::new(spec, 8);
        assert_eq!(Controller::report(&block), NodeReport::Basic(NodeStats::default()));
        assert!(
            !block.override_backpressure(&BackpressurePattern::Never),
            "only sinks support back-pressure overrides"
        );
        assert!(!block.override_source_pattern(&SourcePattern::Always));
        let scheduler = Box::new(elastic_core::scheduler::StaticScheduler::new(0));
        assert!(!Controller::override_scheduler(&mut block, scheduler));
    }
}
