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

use elastic_core::Op;
use elastic_datapath::evaluate;

use crate::handshake::HandshakeIo;
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

    /// Data words currently offered on all input ports (in port order).
    pub fn input_data(&self) -> Vec<u64> {
        (0..self.input_count()).map(|i| self.input(i).data).collect()
    }

    /// `evaluate(op, inputs).unwrap_or(0)` on the data words of every input
    /// port — the value a function block drives.
    pub(crate) fn evaluate(&self, op: &Op) -> u64 {
        let mut words = [0u64; 4];
        let inputs = self.input_count();
        let value = if inputs <= words.len() {
            for (port, word) in words[..inputs].iter_mut().enumerate() {
                *word = self.input(port).data;
            }
            evaluate(op, &words[..inputs])
        } else {
            evaluate(op, &self.input_data())
        };
        value.unwrap_or(0)
    }

    /// `true` when every input port carries a valid token.
    pub fn all_inputs_valid(&self) -> bool {
        (0..self.input_count()).all(|i| self.input(i).forward_valid)
    }
}

impl HandshakeIo for NodeIo<'_> {
    type Rail = bool;
    type Data = u64;

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
    fn drive_data(&mut self, port: usize, data: &u64) {
        self.set_output_data(port, *data);
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

/// A cycle-accurate model of one netlist node.
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
    /// solution. Controllers returning `true` must override
    /// [`Controller::eval_optimistic`].
    fn is_optimistic(&self) -> bool {
        false
    }

    /// The optimistic variant of [`Controller::eval`], used only during the
    /// engine's seeding pass: drive the signals *as if* every circular-wait
    /// precondition held (a lazy fork offers all branch copies as if all
    /// branches were ready). Every signal written here is rewritten by the
    /// honest [`Controller::eval`] before the cycle settles, so optimistic
    /// assumptions never leak into the committed state — they only steer a
    /// multi-fixpoint system towards its live solution.
    fn eval_optimistic(&self, io: &mut NodeIo<'_>) {
        self.eval(io);
    }

    /// Clock edge: update the sequential state from the settled signals.
    fn commit(&mut self, io: &NodeIo<'_>);

    /// Rewinds all sequential state (including statistics) to its
    /// post-construction value, so a simulation can be re-run without being
    /// rebuilt (see [`crate::Simulation::reset`]). Implementations may keep
    /// their allocations, but every *observable* — driven signals, committed
    /// state, statistics — must be indistinguishable from a freshly
    /// constructed controller.
    fn reset(&mut self);

    /// Replaces the sink's back-pressure pattern and rewinds the controller
    /// (sinks only — every other node kind returns `false` and ignores the
    /// pattern). The replacement is persistent: later [`Controller::reset`]
    /// calls rewind to the *new* pattern.
    fn override_backpressure(&mut self, pattern: &elastic_core::kind::BackpressurePattern) -> bool {
        let _ = pattern;
        false
    }

    /// Replaces the source's offer pattern and rewinds the controller
    /// (sources only — every other node kind returns `false` and ignores the
    /// pattern). The data stream is kept: only *when* tokens are offered
    /// changes, which is what the environment-injection sweeps of the fuzzing
    /// harness vary. The replacement is persistent: later
    /// [`Controller::reset`] calls rewind to the *new* pattern.
    fn override_source_pattern(&mut self, pattern: &elastic_core::kind::SourcePattern) -> bool {
        let _ = pattern;
        false
    }

    /// Replaces the shared module's prediction policy (speculative shared
    /// modules only — every other node kind drops the box and returns
    /// `false`). The caller provides a freshly initialised scheduler; the
    /// replacement is persistent across later [`Controller::reset`] calls,
    /// which rewind it via [`elastic_core::Scheduler::reset`].
    fn override_scheduler(&mut self, scheduler: Box<dyn elastic_core::Scheduler>) -> bool {
        let _ = scheduler;
        false
    }

    /// `true` when [`Controller::eval`] reads any attached channel signal.
    ///
    /// Fully registered controllers (the standard elastic buffer, sources,
    /// sinks) drive all of their signals from sequential state alone; the
    /// engine then evaluates them exactly once per cycle and never re-wakes
    /// them, and uses them as the cut points that break control loops when it
    /// computes the static evaluation order. Returning `true` is always safe;
    /// returning `false` for a controller that *does* read channels makes the
    /// simulation silently miss signal updates — only override this when
    /// `eval` is a function of `&self` alone.
    fn eval_reads_channels(&self) -> bool {
        true
    }

    /// Concrete-type escape hatch for the compiled settle backend.
    ///
    /// The compiled planner ([`crate::engine::SettleStrategy::Compiled`])
    /// snapshots the sequential state of a few controller kinds once per cycle
    /// (zero-backward buffers, eager forks, early-evaluation muxes) so it can
    /// replay their equations without dynamic dispatch, and emitted settle
    /// functions ([`crate::codegen`]) call the planned controllers' forward
    /// and backward equations statically. Controllers that participate
    /// override this to return `Some(self)`; everything else keeps the
    /// `None` default and is evaluated through the trait as usual.
    fn as_any(&self) -> Option<&dyn std::any::Any> {
        None
    }

    /// What this controller contributes to a [`crate::SimulationReport`]:
    /// its statistics plus the observables only its node kind records.
    fn report(&self) -> NodeReport<'_> {
        NodeReport::Basic(NodeStats::default())
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
        assert_eq!(io.input_data(), vec![77]);
        assert!(io.all_inputs_valid());

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
        #[derive(Debug)]
        struct Dummy;
        impl Controller for Dummy {
            fn eval(&self, _io: &mut NodeIo<'_>) {}
            fn commit(&mut self, _io: &NodeIo<'_>) {}
            fn reset(&mut self) {}
        }
        assert_eq!(Dummy.report(), NodeReport::Basic(NodeStats::default()));
        let mut dummy = Dummy;
        assert!(
            !dummy.override_backpressure(&elastic_core::kind::BackpressurePattern::Never),
            "only sinks support back-pressure overrides"
        );
    }
}
