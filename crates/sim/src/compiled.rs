//! Compiled settle backend: a netlist lowered to fused, monomorphic micro-ops.
//!
//! A **plan** built once per simulation replaces the event-driven worklist
//! fixpoint: every controller whose `eval` equations are statically known
//! is decomposed into one or two [`MicroOp`]s — a *forward* op driving the
//! producer-owned rail group `{V+, data, S-}` and a *backward* op driving the
//! consumer-owned group `{S+, V-}` — dispatched through a plain `match`
//! instead of a vtable. The ops are scheduled once by Kahn's algorithm over
//! the rail-dependency graph (one writer per rail group, edges
//! writer → reader), splitting the plan into
//!
//! * a **straight-line prefix** executed exactly once per cycle (the
//!   combinational wavefront needs no worklist: every operand rail is final
//!   when an op runs), and
//! * a **trailing segment** of ops on or downstream of rail cycles, settled
//!   by an op-level worklist: every trailing op runs once in schedule order,
//!   and an op that changes a rail group queues again the trailing ops that
//!   read it (itself only when it reads a group it writes), until the queue
//!   drains. The budget is the engine's settle budget in full-sweep
//!   equivalents, `settle_budget() × trailing ops` executions; an overrun
//!   names the op that overran plus the ops still queued, as the
//!   event-driven worklist does.
//!
//! The plan is generic over the rail word: the scalar engine settles on it
//! under [`SettleStrategy::Compiled`](crate::engine::SettleStrategy::Compiled),
//! and the 64-lane [`crate::LaneSimulation`] settles every step on it. Both
//! build it only for netlists without optimistic controllers.
//!
//! A fused op owns no equation and no state: it calls the planned
//! controller's own `forward` or `backward` method — the node kind's
//! equation in [`crate::handshake`] on the controller's sequential state,
//! the code the scalar and lane controllers run in `eval` — through the
//! engine's port view on the node's ports (`NodeIo` or `LaneIo`),
//! change-tracked in the trailing segment. It finds the controller with
//! [`concrete`] at either rail word, as the settle functions emitted by
//! [`crate::codegen`] do. Reading the state directly is exact, because
//! `eval` is a pure function of `&self` and the settle phase never commits
//! state. What the plan owns is the schedule and the forward/backward
//! split.
//!
//! Controllers the planner does not specialize (shared modules, commit
//! stages, variable-latency units, future kinds) become [`MicroOp::Eval`]
//! ops: a change-tracked dynamic [`Controller::eval`], bit-identical to the
//! other engines by construction. Fully registered controllers (sources,
//! sinks, standard buffers — `eval_reads_channels() == false`) are also
//! `Eval` ops; they have no rail reads, so they always land at the head of
//! the prefix and run once.
//!
//! The plan holds no cross-cycle state (its queue is settle scratch of the
//! engine core), so `reset_*`, fault arming, monitors and deadlines work
//! unchanged. Netlists containing optimistic controllers (lazy forks) are
//! **not** planned; both engines then settle event-driven, which implements
//! the optimistic two-pass seeding those controllers require.
//!
//! [`Controller::eval`]: crate::controller::Controller::eval

use elastic_core::{Netlist, NodeKind};

use crate::codegen::concrete;
use crate::controllers::buffer::ZeroBackwardBuffer;
use crate::controllers::fork::EagerFork;
use crate::controllers::function::FunctionBlock;
use crate::controllers::mux::MuxController;
use crate::engine_core::{EngineCore, EngineRail, OpQueue, Ports};

/// One fused settle operation on the ports of node `node`.
#[derive(Debug, Clone, Copy)]
pub(crate) enum MicroOp {
    /// Change-tracked dynamic `Controller::eval` — registered controllers
    /// (no rail reads) and every kind the planner does not specialize.
    Eval { node: u32 },
    /// Function block, forward group: join validity, datapath value, `S-`.
    FnFwd { node: u32 },
    /// Function block, backward group: `S+`/`V-` toward every input.
    FnBwd { node: u32 },
    /// Zero-backward buffer, forward group.
    ZbFwd { node: u32 },
    /// Zero-backward buffer, backward group.
    ZbBwd { node: u32 },
    /// Eager fork, forward group.
    ForkFwd { node: u32 },
    /// Eager fork, backward group.
    ForkBwd { node: u32 },
    /// Multiplexor (lazy or early-evaluation), forward group.
    MuxFwd { node: u32 },
    /// Multiplexor, backward group.
    MuxBwd { node: u32 },
}

impl MicroOp {
    pub(crate) fn node(&self) -> u32 {
        match *self {
            MicroOp::Eval { node }
            | MicroOp::FnFwd { node }
            | MicroOp::FnBwd { node }
            | MicroOp::ZbFwd { node }
            | MicroOp::ZbBwd { node }
            | MicroOp::ForkFwd { node }
            | MicroOp::ForkBwd { node }
            | MicroOp::MuxFwd { node }
            | MicroOp::MuxBwd { node } => node,
        }
    }

    /// `Some(true)` for a forward op, `Some(false)` for a backward op and
    /// `None` for a dynamic eval.
    pub(crate) fn forward(&self) -> Option<bool> {
        match self {
            MicroOp::Eval { .. } => None,
            MicroOp::FnFwd { .. }
            | MicroOp::ZbFwd { .. }
            | MicroOp::ForkFwd { .. }
            | MicroOp::MuxFwd { .. } => Some(true),
            _ => Some(false),
        }
    }
}

/// A netlist lowered to a scheduled sequence of [`MicroOp`]s.
#[derive(Debug)]
pub(crate) struct CompiledPlan {
    /// All ops: `ops[..prefix_len]` is the straight-line prefix,
    /// `ops[prefix_len..]` the trailing (iterated) segment.
    pub(crate) ops: Vec<MicroOp>,
    pub(crate) prefix_len: usize,
    /// Per rail group, the trailing ops reading it (indices into the
    /// trailing segment).
    readers: Vec<Vec<u32>>,
    /// Per trailing op, whether it reads a rail group it writes.
    self_reading: Vec<bool>,
}

/// Rail-group index: the producer-owned group `{V+, data, S-}` of channel
/// `c` is `2c`, the consumer-owned group `{S+, V-}` is `2c + 1`.
const FWD: usize = 0;
const BWD: usize = 1;

fn rails(channels: &[usize], group: usize) -> impl Iterator<Item = usize> + '_ {
    channels.iter().map(move |&c| c * 2 + group)
}

impl CompiledPlan {
    /// Lowers a validated netlist into a scheduled plan over `core`'s
    /// dense tables (dense node order is the `live_nodes()` order they were
    /// built in), and sizes `core`'s trailing-segment queue for it.
    ///
    /// Must not be called for netlists with optimistic controllers (the
    /// engines settle those event-driven).
    pub(crate) fn build<R: EngineRail>(
        netlist: &Netlist,
        core: &mut EngineCore<R>,
    ) -> CompiledPlan {
        let (node_ports, reads_channels) = (&core.node_ports, &core.reads_channels);
        let mut ops = Vec::new();
        for (index, node) in netlist.live_nodes().enumerate() {
            let n = index as u32;
            let fused = match &node.kind {
                // Fully registered: one dynamic eval, no rail reads.
                _ if !reads_channels[index] => None,
                NodeKind::Function(_) => {
                    Some((MicroOp::FnFwd { node: n }, MicroOp::FnBwd { node: n }))
                }
                NodeKind::Buffer(spec) if spec.backward_latency == 0 => {
                    Some((MicroOp::ZbFwd { node: n }, MicroOp::ZbBwd { node: n }))
                }
                NodeKind::Fork(spec) if spec.eager => {
                    Some((MicroOp::ForkFwd { node: n }, MicroOp::ForkBwd { node: n }))
                }
                NodeKind::Mux(_) => {
                    Some((MicroOp::MuxFwd { node: n }, MicroOp::MuxBwd { node: n }))
                }
                _ => None,
            };
            match fused {
                Some((forward, backward)) => ops.extend([forward, backward]),
                None => ops.push(MicroOp::Eval { node: n }),
            }
        }

        let rail_count = core.channel_count() * 2;
        let (ops, prefix_len) = schedule(ops, node_ports, reads_channels, rail_count);

        let trailing = &ops[prefix_len..];
        let mut readers = vec![Vec::new(); rail_count];
        let mut self_reading = Vec::with_capacity(trailing.len());
        for (index, op) in trailing.iter().enumerate() {
            let reads = read_rails(op, node_ports, reads_channels);
            self_reading.push(write_rails(op, node_ports).iter().any(|r| reads.contains(r)));
            for rail in reads {
                readers[rail].push(index as u32);
            }
        }

        core.tail = OpQueue::new(trailing.len());
        CompiledPlan { ops, prefix_len, readers, self_reading }
    }

    /// Drives the channels to their fixed point for one cycle, counting its
    /// micro-op executions and dynamic evals on `core`. Returns `false` when
    /// the trailing segment fails to stabilise within the budget; the
    /// engine then finds the op that overran and the ops still queued in
    /// `core.oscillating`, and the channels of the last execution in
    /// `core.dirty`, exactly like the event-driven worklist.
    pub(crate) fn settle<R: EngineRail>(
        &self,
        core: &mut EngineCore<R>,
        channels: &mut R::Channels,
    ) -> bool {
        let (prefix, trailing) = self.ops.split_at(self.prefix_len);
        core.dirty.clear();
        for op in prefix {
            exec(op, core, channels, false);
        }
        core.settle_iterations += prefix.len() as u64;

        (0..trailing.len()).for_each(|index| core.tail.push(index));
        let cap = core.settle_budget() * trailing.len();
        let mut executions = 0;
        while let Some(index) = core.tail.pop() {
            let op = &trailing[index];
            core.settle_iterations += 1;
            executions += 1;
            if executions > cap {
                core.oscillating.clear();
                core.oscillating.push(op.node());
                while let Some(pending) = core.tail.pop() {
                    core.oscillating.push(trailing[pending].node());
                }
                return false;
            }
            core.dirty.clear();
            if exec(op, core, channels, true) {
                self.wake(index, op, core);
            }
        }
        true
    }

    /// Queues the trailing ops reading the rail groups trailing op `index`
    /// just changed — the groups of `core.dirty`'s channels on its side.
    fn wake<R: EngineRail>(&self, index: usize, op: &MicroOp, core: &mut EngineCore<R>) {
        let groups: &[usize] = match op.forward() {
            Some(true) => &[FWD],
            Some(false) => &[BWD],
            None => &[FWD, BWD],
        };
        for &channel in &core.dirty {
            for &group in groups {
                for &reader in &self.readers[channel * 2 + group] {
                    // A dynamic eval's groups are approximate: it re-runs
                    // itself only when it reads a group it writes.
                    if reader as usize != index || self.self_reading[index] {
                        core.tail.push(reader as usize);
                    }
                }
            }
        }
    }
}

/// Computes the per-op schedule: writer table over rail groups, dependency
/// edges writer → reader, Kahn topological order. Ops left unscheduled (on a
/// rail cycle, reading their own writes, or downstream of either) form the
/// trailing segment in original op order.
fn schedule(
    ops: Vec<MicroOp>,
    node_ports: &[Ports],
    reads_channels: &[bool],
    rail_count: usize,
) -> (Vec<MicroOp>, usize) {
    let mut writer = vec![usize::MAX; rail_count];
    for (index, op) in ops.iter().enumerate() {
        for r in write_rails(op, node_ports) {
            debug_assert_eq!(writer[r], usize::MAX, "every rail group has a single writer");
            writer[r] = index;
        }
    }
    let mut in_degree = vec![0u32; ops.len()];
    let mut successors: Vec<Vec<u32>> = vec![Vec::new(); ops.len()];
    for (index, op) in ops.iter().enumerate() {
        for r in read_rails(op, node_ports, reads_channels) {
            let w = writer[r];
            if w == usize::MAX {
                continue;
            }
            in_degree[index] += 1;
            if w == index {
                // Reading a rail the op itself writes (a self-loop channel):
                // the in-degree contribution is never released, forcing the
                // op — and everything downstream — into the trailing
                // segment, where iteration either reaches the fixpoint or
                // reports the combinational loop, like the other engines.
                continue;
            }
            successors[w].push(index as u32);
        }
    }

    let mut queue: std::collections::VecDeque<usize> =
        (0..ops.len()).filter(|&i| in_degree[i] == 0).collect();
    let mut order = Vec::with_capacity(ops.len());
    while let Some(index) = queue.pop_front() {
        order.push(index);
        for &next in &successors[index] {
            in_degree[next as usize] -= 1;
            if in_degree[next as usize] == 0 {
                queue.push_back(next as usize);
            }
        }
    }
    let prefix_len = order.len();
    let mut scheduled = vec![false; ops.len()];
    for &index in &order {
        scheduled[index] = true;
    }
    for (index, done) in scheduled.iter().enumerate() {
        if !done {
            order.push(index);
        }
    }

    let mut slots: Vec<Option<MicroOp>> = ops.into_iter().map(Some).collect();
    let ordered = order.iter().map(|&i| slots[i].take().expect("each op scheduled once")).collect();
    (ordered, prefix_len)
}

/// Rail groups written by an op (the rails its node owns, split by group).
fn write_rails(op: &MicroOp, node_ports: &[Ports]) -> Vec<usize> {
    let (inputs, outputs) = &node_ports[op.node() as usize];
    match op.forward() {
        None => rails(outputs, FWD).chain(rails(inputs, BWD)).collect(),
        Some(true) => rails(outputs, FWD).collect(),
        Some(false) => rails(inputs, BWD).collect(),
    }
}

/// Rail groups an op's equations read.
fn read_rails(op: &MicroOp, node_ports: &[Ports], reads_channels: &[bool]) -> Vec<usize> {
    let node = op.node() as usize;
    let (inputs, outputs) = &node_ports[node];
    match op {
        // Registered controllers read nothing; unspecialized kinds may read
        // every attached rail they do not own.
        MicroOp::Eval { .. } if !reads_channels[node] => Vec::new(),
        MicroOp::Eval { .. } | MicroOp::FnBwd { .. } | MicroOp::MuxBwd { .. } => {
            rails(inputs, FWD).chain(rails(outputs, BWD)).collect()
        }
        MicroOp::ZbBwd { .. } => rails(outputs, BWD).collect(),
        MicroOp::ForkBwd { .. } => rails(inputs, FWD)
            .chain(outputs.iter().flat_map(|&c| [c * 2 + FWD, c * 2 + BWD]))
            .collect(),
        _ => rails(inputs, FWD).collect(),
    }
}

/// Executes one micro-op on a view of its node's ports. With `track` set
/// (the trailing segment) every changed channel is pushed onto
/// `core.dirty`, and the return value says whether any signal changed;
/// prefix ops run untracked and return `false`.
#[inline]
fn exec<R: EngineRail>(
    op: &MicroOp,
    core: &mut EngineCore<R>,
    channels: &mut R::Channels,
    track: bool,
) -> bool {
    let node = op.node() as usize;
    let before = core.dirty.len();
    let dirty = track.then_some(&mut core.dirty);
    let mut view = R::io(channels, &core.node_ports[node], &core.channel_widths, dirty);
    let (io, controllers) = (&mut view, &core.controllers);
    match op {
        MicroOp::Eval { .. } => {
            controllers[node].eval(io, false);
            core.controller_evals += 1;
        }
        MicroOp::FnFwd { .. } => concrete::<FunctionBlock<R>, R>(controllers, node).forward(io),
        MicroOp::FnBwd { .. } => concrete::<FunctionBlock<R>, R>(controllers, node).backward(io),
        MicroOp::ZbFwd { .. } => {
            concrete::<ZeroBackwardBuffer<R>, R>(controllers, node).forward(io)
        }
        MicroOp::ZbBwd { .. } => {
            concrete::<ZeroBackwardBuffer<R>, R>(controllers, node).backward(io)
        }
        MicroOp::ForkFwd { .. } => concrete::<EagerFork<R>, R>(controllers, node).forward(io),
        MicroOp::ForkBwd { .. } => concrete::<EagerFork<R>, R>(controllers, node).backward(io),
        MicroOp::MuxFwd { .. } => concrete::<MuxController<R>, R>(controllers, node).forward(io),
        MicroOp::MuxBwd { .. } => concrete::<MuxController<R>, R>(controllers, node).backward(io),
    }
    // The view borrows `core.dirty`; release it before counting.
    drop(view);
    core.dirty.len() > before
}
