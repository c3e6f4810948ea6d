//! The controller abstraction: one small SELF handshake machine per node.
//!
//! A [`Controller`] is the cycle-accurate model of one netlist node, written
//! once over the rail word (`bool` for one scenario, `u64` for 64 lanes).
//! Every clock cycle the engine:
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

use std::any::Any;
use std::fmt::Debug;

use elastic_core::kind::{BackpressurePattern, SourcePattern};
use elastic_core::Scheduler;
use elastic_datapath::adder::mask;

use crate::handshake::{HandshakeIo, Rail};
use crate::metrics::{CommitStageStats, SharedModuleStats};
use crate::signal::ChannelState;

/// The scalar engine's port view: read/write access to the channels
/// attached to one node, one scenario per rail.
///
/// Indices are port indices of the node (matching the conventions documented
/// on [`elastic_core::NodeKind`]); the translation to global channel indices
/// is fixed when the simulation is built.
///
/// Every setter is **change-tracked**: it compares the new value against the
/// stored one and records the channel index in the dirty list (when the view
/// has one) only on an actual change. The engine's event-driven settle phase
/// uses this to re-evaluate exactly the controllers whose observed signals
/// changed.
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
    /// Creates an untracked, unmasked port view for one node (controller
    /// unit tests use it).
    pub fn new(
        channels: &'a mut [ChannelState],
        input_channels: &'a [usize],
        output_channels: &'a [usize],
    ) -> Self {
        NodeIo { channels, input_channels, output_channels, channel_widths: &[], dirty: None }
    }

    /// A port view masking driven data to `channel_widths`, the declared
    /// width of every global channel, so a channel never carries more bits
    /// than it declares. Width-converting forks and joins rely on that
    /// truncation, and so do the transforms that re-site nodes across them.
    /// Every setter that changes a stored signal pushes the channel onto
    /// `dirty`, when given (possibly more than once; consumers dedupe).
    pub(crate) fn masked(
        channels: &'a mut [ChannelState],
        input_channels: &'a [usize],
        output_channels: &'a [usize],
        channel_widths: &'a [u8],
        dirty: Option<&'a mut Vec<usize>>,
    ) -> Self {
        NodeIo { channels, input_channels, output_channels, channel_widths, dirty }
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
        self.write(self.input_channels[port], |c| &mut c.forward_stop, stop);
    }
    fn set_input_kill(&mut self, port: usize, kill: bool) {
        self.write(self.input_channels[port], |c| &mut c.backward_valid, kill);
    }
    fn set_output_valid(&mut self, port: usize, valid: bool) {
        self.write(self.output_channels[port], |c| &mut c.forward_valid, valid);
    }
    fn set_output_anti_stop(&mut self, port: usize, stop: bool) {
        self.write(self.output_channels[port], |c| &mut c.backward_stop, stop);
    }
    fn input_data(&self, port: usize) -> &[u64] {
        std::slice::from_ref(&self.channels[self.input_channels[port]].data)
    }
    fn drive_data(&mut self, port: usize, data: &[u64]) {
        let channel = self.output_channels[port];
        let data = self.channel_widths.get(channel).map_or(data[0], |&width| mask(data[0], width));
        self.write(channel, |c| &mut c.data, data);
    }
    fn copy_data(&mut self, input: usize, output: usize) {
        self.drive_data(output, &[self.input(input).data]);
    }
}

/// What a controller contributes to a [`crate::SimulationReport`] beyond the
/// engine's own counters: the observables only its node kind records. Both
/// engines assemble their reports with one match over this enum.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NodeReport<'a> {
    /// A sink's `(cycle, value)` transfer stream, in transfer order.
    Sink(&'a [(u64, u64)]),
    /// A speculative shared module's misprediction count.
    Shared(SharedModuleStats),
    /// An in-order commit stage's per-lane counters — the observable behind
    /// the depth sweeps of `BENCH_commit_depth.json`.
    Commit(CommitStageStats),
}

/// A cycle-accurate model of one netlist node, written once over the rail
/// word `R`: it owns its per-lane state, the clock-edge update of that
/// state, its reset, its observables and its per-lane environment, and
/// drives the equations of [`crate::handshake`] through the engine's port
/// view [`Rail::Io`]. Every node kind is one such type. The scalar engine
/// holds its nodes as `Box<dyn Controller>` (the `bool` rail, one
/// scenario) and the 64-lane engine as `Box<dyn Controller<u64>>`.
pub trait Controller<R: Rail = bool>: Debug + Any {
    /// Combinational evaluation: read the attached channels and drive the
    /// node-owned signals. Called repeatedly within a cycle until the channel
    /// signals stop changing; it must therefore be deterministic and depend
    /// only on the sequential state and the read signals.
    ///
    /// `optimistic` is set only during the engine's seeding pass (see
    /// [`Controller::is_optimistic`]): drive the signals *as if* every
    /// circular-wait precondition held (a lazy fork offers all branch copies
    /// as if all branches were ready). Every signal written then is
    /// rewritten by the honest evaluation before the cycle settles, so
    /// optimistic assumptions never leak into the committed state — they
    /// only steer a multi-fixpoint system towards its live solution.
    fn eval(&self, io: &mut R::Io<'_>, optimistic: bool);

    /// Clock edge: updates every lane's sequential state from the settled
    /// signals. Purely combinational nodes keep none and take the default.
    fn commit(&mut self, _io: &R::Io<'_>) {}

    /// Rewinds every lane's sequential state (including recorded
    /// observables) to its post-construction value, so a simulation can be
    /// re-run without being rebuilt (see [`crate::Simulation::reset`]).
    /// Implementations may keep their allocations, but every *observable* —
    /// driven signals, committed state, reported observables — must be
    /// indistinguishable from a freshly constructed controller.
    fn reset(&mut self);

    /// What lane `lane` contributes to that lane's [`crate::SimulationReport`]:
    /// the observable only its node kind records, if any.
    fn report(&self, _lane: usize) -> Option<NodeReport<'_>> {
        None
    }

    /// `true` when this controller's settle equations have more than one
    /// fixed point and the engine must run the **optimistic seeding pass**
    /// before the honest fixpoint (see the engine's module docs). Lazy forks
    /// are the one such component: a branch's valid is withheld while any
    /// sibling is not ready, and a reconverging join's stop is held while
    /// the valids are missing — a circular wait with a live *and* a dead
    /// solution.
    fn is_optimistic(&self) -> bool {
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
    /// simulation silently miss signal updates — only return it when `eval`
    /// is a function of `&self` alone.
    fn eval_reads_channels(&self) -> bool {
        true
    }

    /// Replaces every lane's back-pressure pattern, lane `ℓ` taking
    /// `patterns[min(ℓ, patterns.len() - 1)]` (so one pattern broadcasts to
    /// every lane), and restarts the lanes whose pattern changed (sinks
    /// only — every other node kind returns `false`). Engines call it right
    /// after a reset, with a non-empty list, so a lane whose pattern is
    /// unchanged is already at its start; the replacement persists, so later
    /// resets restart the *new* patterns.
    fn override_sink(&mut self, _patterns: &[BackpressurePattern]) -> bool {
        false
    }

    /// Replaces every lane's offer pattern as [`Controller::override_sink`]
    /// replaces back-pressure patterns (sources only — every other node kind
    /// returns `false`). The data stream is kept: only *when* tokens are
    /// offered changes, which is what the environment-injection sweeps
    /// vary. Persistent, as for [`Controller::override_sink`].
    fn override_source(&mut self, _patterns: &[SourcePattern]) -> bool {
        false
    }

    /// Replaces lane `lane`'s prediction policy with a freshly initialised
    /// scheduler (speculative shared modules only — every other node kind
    /// drops the box and returns `false`). The replacement persists across
    /// later resets, which rewind it via [`Scheduler::reset`].
    fn override_scheduler(&mut self, _lane: usize, _scheduler: Box<dyn Scheduler>) -> bool {
        false
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
        assert_eq!(io.input_data(0), &[77]);
        assert!(io.input_valid(0));

        io.set_output_valid(1, true);
        io.drive_data(1, &[9]);
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
    fn default_hooks_report_nothing_and_refuse_overrides() {
        // A function block records no observable, and the override hooks
        // default to refusing: only sinks, sources and shared modules take one.
        let spec = elastic_core::FunctionSpec::new(elastic_core::Op::Inc);
        let mut block = crate::controllers::function::FunctionBlock::<bool>::new(spec, 8);
        assert_eq!(block.report(0), None);
        assert!(
            !block.override_sink(&[BackpressurePattern::Never]),
            "only sinks support back-pressure overrides"
        );
        assert!(!block.override_source(&[SourcePattern::Always]));
        let scheduler = Box::new(elastic_core::scheduler::StaticScheduler::new(0));
        assert!(!block.override_scheduler(0, scheduler));
    }
}
