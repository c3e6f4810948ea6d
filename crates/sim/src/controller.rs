//! The controller abstraction: one small SELF handshake machine per node.
//!
//! A [`Controller`] is the cycle-accurate model of one netlist node, written
//! once over the rail word (`bool` for one scenario, `u64` for 64 lanes).
//! Its combinational equations come as the two directions of the SELF
//! handshake: [`Controller::forward`] drives `V+`, data and `S−` on the
//! node's outputs, and [`Controller::backward`] drives `S+` and `V−` on its
//! inputs; [`Controller::reads`] declares which attached rail groups each
//! half reads. Every clock cycle the engine:
//!
//! 1. drives the halves until the channel signals reach a fixed point (the
//!    combinational phase) — on the compiled plan each half once, in
//!    dataflow order, otherwise by repeated [`Controller::eval`] calls,
//!    which run both halves — then
//! 2. calls [`Controller::commit`] exactly once on every controller with the
//!    settled signals (the clock edge).
//!
//! Each half must be a pure function of the controller's sequential state
//! and of the rail groups it declares; it drives only the signals its node
//! owns (see [`crate::signal::ChannelState`] for the ownership convention).
//!
//! ## Kill/transfer precedence
//!
//! When a token and an anti-token meet at a node boundary during the same
//! cycle (the producer offers `V+` while the consumer asserts `V-`), the two
//! cancel: the producer treats its token as *killed* (not delivered) and the
//! consumer must not latch it. All controllers in [`crate::controllers`]
//! follow this "kill wins over transfer" convention so both endpoints agree
//! on what happened.

use std::fmt::Debug;
use std::ops::BitOr;

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

/// A set of the rail groups attached to one node: what a handshake half
/// reads (see [`Controller::reads`]).
///
/// Every channel carries two rail groups, each driven by one endpoint: the
/// forward group `{V+, data, S−}` by its producer and the backward group
/// `{S+, V−}` by its consumer. Seen from a node, its inputs' forward groups
/// and its outputs' backward groups are its neighbours'; its outputs'
/// forward groups are its own forward half's and its inputs' backward
/// groups its own backward half's.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Groups(u8);

impl Groups {
    /// No group: a function of the node's sequential state alone.
    pub const NONE: Groups = Groups(0);
    /// `V+`, data and `S−` of every input, driven by the producers.
    pub const INPUT_FORWARD: Groups = Groups(1);
    /// `S+` and `V−` of every input, driven by the node's backward half.
    pub const INPUT_BACKWARD: Groups = Groups(2);
    /// `V+`, data and `S−` of every output, driven by the node's forward
    /// half.
    pub const OUTPUT_FORWARD: Groups = Groups(4);
    /// `S+` and `V−` of every output, driven by the consumers.
    pub const OUTPUT_BACKWARD: Groups = Groups(8);

    /// Whether the set holds every group of `groups`.
    pub fn contains(self, groups: Groups) -> bool {
        self.0 & groups.0 == groups.0
    }
}

impl BitOr for Groups {
    type Output = Groups;

    fn bitor(self, other: Groups) -> Groups {
        Groups(self.0 | other.0)
    }
}

/// The rail groups each half of a controller reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Reads {
    /// What [`Controller::forward`] reads.
    pub forward: Groups,
    /// What [`Controller::backward`] reads.
    pub backward: Groups,
}

/// A cycle-accurate model of one netlist node, written once over the rail
/// word `R`: it owns its per-lane state, the clock-edge update of that
/// state, its reset, its observables and its per-lane environment, and
/// drives the equations of [`crate::handshake`] through the engine's port
/// view [`Rail::Io`]. Every node kind is one such type. The scalar engine
/// holds its nodes as `Box<dyn Controller>` (the `bool` rail, one
/// scenario) and the 64-lane engine as `Box<dyn Controller<u64>>`.
pub trait Controller<R: Rail = bool>: Debug {
    /// The forward half: drives `V+`, data and `S−` on every output from
    /// the sequential state and the groups [`Reads::forward`] names.
    fn forward(&self, io: &mut R::Io<'_>);

    /// The backward half: drives `S+` and `V−` on every input from the
    /// sequential state and the groups [`Reads::backward`] names.
    fn backward(&self, io: &mut R::Io<'_>);

    /// The attached rail groups each half reads. The compiled plan orders
    /// the halves by these declarations, so a half must not read a group it
    /// does not declare; declaring more than a half reads only costs
    /// ordering freedom. A controller whose halves read nothing is fully
    /// registered (the standard elastic buffer, sources, sinks): the
    /// engines evaluate it once per cycle, never re-wake it, and use it to
    /// cut the control loops when they order the others.
    fn reads(&self) -> Reads;

    /// Combinational evaluation of both halves, forward first: the step of
    /// the event-driven worklist and the full-sweep oracle, which call it
    /// repeatedly within a cycle until the channel signals stop changing.
    ///
    /// `optimistic` is set only during the engine's seeding pass (see
    /// [`Controller::is_optimistic`]): drive the signals *as if* every
    /// circular-wait precondition held (a lazy fork offers all branch copies
    /// as if all branches were ready). Every signal written then is
    /// rewritten by the honest evaluation before the cycle settles, so
    /// optimistic assumptions never leak into the committed state — they
    /// only steer a multi-fixpoint system towards its live solution.
    fn eval(&self, io: &mut R::Io<'_>, _optimistic: bool) {
        self.forward(io);
        self.backward(io);
    }

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
    /// fixed point and the event-driven settle must run the **optimistic
    /// seeding pass** before the honest fixpoint (see the engine's module
    /// docs). Lazy forks are the one such component: a branch's valid is
    /// withheld while any sibling is not ready, and a reconverging join's
    /// stop is held while the valids are missing — a circular wait with a
    /// live *and* a dead solution.
    fn is_optimistic(&self) -> bool {
        false
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
    use crate::compiled::{rails, FWD};
    use crate::engine_core::{EngineCore, EngineRail};
    use crate::lanes::LaneChannels;
    use elastic_core::kind::{
        BufferSpec, CommitSpec, ForkSpec, FunctionSpec, MuxSpec, SharedSpec, SinkSpec, SourceSpec,
        VarLatencySpec,
    };
    use elastic_core::mix::splitmix64;
    use elastic_core::{Netlist, NodeKind, Op, Port, SchedulerKind};

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

    /// A node of `kind` with a source on every input and a sink on every
    /// output.
    fn isolated(kind: NodeKind) -> Netlist {
        let mut n = Netlist::new(kind.kind_name());
        let (inputs, outputs) = (kind.input_count(), kind.output_count());
        let node = n.add_node("node", kind);
        for port in 0..inputs {
            let source = n.add_source(format!("source{port}"), SourceSpec::always());
            n.connect(Port::output(source, 0), Port::input(node, port), 8).unwrap();
        }
        for port in 0..outputs {
            let sink = n.add_sink(format!("sink{port}"), SinkSpec::always_ready());
            n.connect(Port::output(node, port), Port::input(sink, 0), 8).unwrap();
        }
        n
    }

    /// Runs each half of every controller of `netlist` on scrambled rails,
    /// scrambles the rail groups the half does not declare in
    /// `Controller::reads`, runs it again, and asserts that its writes did
    /// not change. Between checks, clock edges on scrambled rails move the
    /// controllers' state. A group is read through its channel's consumer
    /// and scrambled through the endpoint that drives it.
    fn assert_declared_reads_are_honest<R: EngineRail>(
        netlist: &Netlist,
        channels: &mut R::Channels,
    ) {
        let mut core = EngineCore::<R>::build(netlist).unwrap();
        let (mut producer, mut consumer) =
            (vec![(0, 0); core.channel_count()], vec![(0, 0); core.channel_count()]);
        for (node, (inputs, outputs)) in core.node_ports.iter().enumerate() {
            inputs.iter().enumerate().for_each(|(port, &c)| consumer[c] = (node, port));
            outputs.iter().enumerate().for_each(|(port, &c)| producer[c] = (node, port));
        }
        let (ports, widths) = (&core.node_ports, &core.channel_widths);
        let group = |channels: &mut R::Channels, rail: usize| {
            let (node, port) = consumer[rail / 2];
            let io = R::io(channels, &ports[node], widths, None);
            match rail % 2 {
                FWD => [io.input_valid(port), io.input_anti_stop(port)]
                    .map(Rail::word)
                    .into_iter()
                    .chain(io.input_data(port).iter().copied())
                    .collect(),
                _ => vec![io.input_stop(port).word(), io.input_kill(port).word()],
            }
        };
        let mut stream = 0;
        let mut next = move || {
            stream += 1;
            splitmix64(stream)
        };
        let mut scramble = |channels: &mut R::Channels, rail: usize| {
            let (node, port) =
                if rail % 2 == FWD { producer[rail / 2] } else { consumer[rail / 2] };
            let mut io = R::io(channels, &ports[node], widths, None);
            let mut word = || R::from_word(next());
            if rail % 2 == FWD {
                io.set_output_valid(port, word());
                io.set_output_anti_stop(port, word());
                let data: Vec<u64> = (0..R::LANES).map(|_| next()).collect();
                io.drive_data(port, &data);
            } else {
                io.set_input_stop(port, word());
                io.set_input_kill(port, word());
            }
        };
        let every = Groups::INPUT_FORWARD
            | Groups::INPUT_BACKWARD
            | Groups::OUTPUT_FORWARD
            | Groups::OUTPUT_BACKWARD;
        for step in 0..48 {
            (0..2 * core.channel_count()).for_each(|rail| scramble(channels, rail));
            for (node, controller) in core.controllers.iter().enumerate() {
                let reads = controller.reads();
                for (half, declared, written) in [
                    ("forward", reads.forward, Groups::OUTPUT_FORWARD),
                    ("backward", reads.backward, Groups::INPUT_BACKWARD),
                ] {
                    let mut writes = Vec::new();
                    for _ in 0..2 {
                        let mut io = R::io(channels, &ports[node], widths, None);
                        match half {
                            "forward" => controller.forward(&mut io),
                            _ => controller.backward(&mut io),
                        }
                        drop(io);
                        writes.push(
                            rails(&ports[node], written)
                                .map(|rail| group(channels, rail))
                                .collect::<Vec<_>>(),
                        );
                        for rail in rails(&ports[node], every) {
                            if !rails(&ports[node], declared).any(|read| read == rail) {
                                scramble(channels, rail);
                            }
                        }
                    }
                    assert_eq!(
                        writes[0],
                        writes[1],
                        "{}: the {half} half of node {node} ({}) reads an undeclared group, \
                         step {step}",
                        netlist.name(),
                        core.node_kinds[node],
                    );
                }
            }
            for (controller, ports) in core.controllers.iter_mut().zip(ports) {
                controller.commit(&R::io(channels, ports, &[], None));
            }
        }
    }

    #[test]
    fn every_declared_read_set_is_honest() {
        let var_latency = VarLatencySpec {
            exact: Op::RippleAdd { width: 8 },
            approx: Op::ApproxAdd { width: 8, spec_bits: 4 },
            error: Op::ApproxAddErr { width: 8, spec_bits: 4 },
            inputs: 2,
        };
        let shared = SharedSpec { starvation_limit: Some(2), ..SharedSpec::new(2, Op::Add) };
        let kinds = [
            NodeKind::Buffer(BufferSpec::standard(1)),
            NodeKind::Buffer(BufferSpec::standard(-1)),
            NodeKind::Buffer(BufferSpec::zero_backward(1)),
            NodeKind::Function(FunctionSpec::with_inputs(Op::Add, 2)),
            NodeKind::Fork(ForkSpec::eager(3)),
            NodeKind::Fork(ForkSpec::lazy(3)),
            NodeKind::Mux(MuxSpec::lazy(2)),
            NodeKind::Mux(MuxSpec::early(2)),
            NodeKind::Shared(
                shared.with_inputs_per_user(2).with_scheduler(SchedulerKind::Static(0)),
            ),
            NodeKind::Commit(CommitSpec { lanes: 2, depth: 2 }),
            NodeKind::VarLatency(var_latency),
        ];
        // Sources and sinks are every netlist's neighbours.
        for kind in kinds {
            let netlist = isolated(kind);
            let channels = netlist.live_channels().count();
            assert_declared_reads_are_honest::<bool>(
                &netlist,
                &mut vec![ChannelState::default(); channels],
            );
            assert_declared_reads_are_honest::<u64>(&netlist, &mut LaneChannels::new(channels));
        }
    }
}
