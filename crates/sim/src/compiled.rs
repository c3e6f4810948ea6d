//! Compiled settle backend: a netlist lowered to fused, monomorphic micro-ops.
//!
//! [`SettleStrategy::Compiled`](crate::engine::SettleStrategy::Compiled)
//! replaces the event-driven worklist fixpoint with a **plan** built once per
//! simulation: every controller whose `eval` equations are statically known
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
//!   by Jacobi sweeps in deterministic order until a sweep changes nothing,
//!   capped at the engine's settle budget (the same full-sweep-equivalent
//!   unit the other strategies use).
//!
//! A fused op owns no equation and no state: it calls the planned
//! controller's own `forward` or `backward` method — the node kind's
//! equation in [`crate::handshake`] on the controller's sequential state,
//! the code the scalar and lane controllers run in `eval` — through a
//! [`NodeIo`] on the node's ports, change-tracked in the trailing segment.
//! It finds the controller with [`concrete`], as the settle functions
//! emitted by [`crate::codegen`] do. Reading the state directly is exact,
//! because `eval` is a pure function of `&self` and the settle phase never
//! commits state. What the plan owns is the schedule and the
//! forward/backward split.
//!
//! Controllers the planner does not specialize (shared modules, commit
//! stages, variable-latency units, future kinds) become [`MicroOp::Eval`]
//! ops: a change-tracked dynamic [`Controller::eval`], bit-identical to the
//! other engines by construction. Fully registered controllers (sources,
//! sinks, standard buffers — `eval_reads_channels() == false`) are also
//! `Eval` ops; they have no rail reads, so they always land at the head of
//! the prefix and run once.
//!
//! The plan holds no cross-cycle state, so `reset_*`, fault arming,
//! monitors and deadlines work unchanged. Netlists containing optimistic
//! controllers (lazy forks) are **not** planned; the engine transparently
//! falls back to the event-driven strategy, which implements the optimistic
//! two-pass seeding those controllers require.
//!
//! [`Controller::eval`]: crate::controller::Controller::eval

use elastic_core::{Netlist, NodeKind};

use crate::codegen::concrete;
use crate::controller::NodeIo;
use crate::controllers::buffer::ZeroBackwardBuffer;
use crate::controllers::fork::EagerFork;
use crate::controllers::function::FunctionBlock;
use crate::controllers::mux::MuxController;
use crate::engine_core::EngineCore;
use crate::signal::ChannelState;

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
}

/// Rail-group index: the producer-owned group `{V+, data, S-}` of channel
/// `c` is `2c`, the consumer-owned group `{S+, V-}` is `2c + 1`.
const FWD: usize = 0;
const BWD: usize = 1;

fn rails(channels: &[usize], group: usize) -> impl Iterator<Item = usize> + '_ {
    channels.iter().map(move |&c| c * 2 + group)
}

impl CompiledPlan {
    /// Lowers a validated netlist into a scheduled plan. `node_ports`,
    /// `reads_channels` and `channel_widths` are the engine's dense tables;
    /// dense node order is the `live_nodes()` order they were built in.
    ///
    /// Must not be called for netlists with optimistic controllers (the
    /// engine falls back to the event-driven strategy for those).
    pub(crate) fn build(
        netlist: &Netlist,
        node_ports: &[(Vec<usize>, Vec<usize>)],
        reads_channels: &[bool],
        channel_widths: &[u8],
    ) -> CompiledPlan {
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

        let (ops, prefix_len) = schedule(ops, node_ports, reads_channels, channel_widths);
        CompiledPlan { ops, prefix_len }
    }

    /// Drives the channels to their fixed point for one cycle, counting its
    /// micro-op executions and dynamic evals on `core`. Returns `false` when
    /// the trailing segment fails to stabilise within the budget; the
    /// engine then finds the oscillating nodes in `core.oscillating` and the
    /// last wave's channels in `core.dirty`, exactly like the other
    /// strategies.
    pub(crate) fn settle(
        &self,
        core: &mut EngineCore<bool>,
        channels: &mut [ChannelState],
    ) -> bool {
        let (prefix, trailing) = self.ops.split_at(self.prefix_len);
        core.dirty.clear();
        for op in prefix {
            exec(op, core, channels, false);
        }
        core.settle_iterations += prefix.len() as u64;
        if trailing.is_empty() {
            return true;
        }
        for _ in 0..core.settle_budget() {
            core.settle_iterations += trailing.len() as u64;
            core.dirty.clear();
            core.oscillating.clear();
            let mut changed = false;
            for op in trailing {
                if exec(op, core, channels, true) {
                    changed = true;
                    core.oscillating.push(op.node());
                }
            }
            if !changed {
                core.oscillating.clear();
                return true;
            }
        }
        false
    }
}

/// Computes the per-op schedule: writer table over rail groups, dependency
/// edges writer → reader, Kahn topological order. Ops left unscheduled (on a
/// rail cycle, reading their own writes, or downstream of either) form the
/// trailing segment in original op order.
fn schedule(
    ops: Vec<MicroOp>,
    node_ports: &[(Vec<usize>, Vec<usize>)],
    reads_channels: &[bool],
    channel_widths: &[u8],
) -> (Vec<MicroOp>, usize) {
    let rail_count = channel_widths.len() * 2;
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
fn write_rails(op: &MicroOp, node_ports: &[(Vec<usize>, Vec<usize>)]) -> Vec<usize> {
    let (inputs, outputs) = &node_ports[op.node() as usize];
    match op.forward() {
        None => rails(outputs, FWD).chain(rails(inputs, BWD)).collect(),
        Some(true) => rails(outputs, FWD).collect(),
        Some(false) => rails(inputs, BWD).collect(),
    }
}

/// Rail groups an op's equations read.
fn read_rails(
    op: &MicroOp,
    node_ports: &[(Vec<usize>, Vec<usize>)],
    reads_channels: &[bool],
) -> Vec<usize> {
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
/// (the trailing sweeps) every changed channel is pushed onto `core.dirty`,
/// the convergence witness, and the return value says whether any signal
/// changed; prefix ops run untracked and return `false`.
#[inline]
fn exec(
    op: &MicroOp,
    core: &mut EngineCore<bool>,
    channels: &mut [ChannelState],
    track: bool,
) -> bool {
    let node = op.node() as usize;
    let before = core.dirty.len();
    let (inputs, outputs) = &core.node_ports[node];
    let dirty = track.then_some(&mut core.dirty);
    let io = &mut NodeIo::masked(channels, inputs, outputs, &core.channel_widths, dirty);
    let controllers = &core.controllers;
    match op {
        MicroOp::Eval { .. } => {
            controllers[node].eval(io, false);
            core.controller_evals += 1;
        }
        MicroOp::FnFwd { .. } => concrete::<FunctionBlock<bool>>(controllers, node).forward(io),
        MicroOp::FnBwd { .. } => concrete::<FunctionBlock<bool>>(controllers, node).backward(io),
        MicroOp::ZbFwd { .. } => {
            concrete::<ZeroBackwardBuffer<bool>>(controllers, node).forward(io)
        }
        MicroOp::ZbBwd { .. } => {
            concrete::<ZeroBackwardBuffer<bool>>(controllers, node).backward(io)
        }
        MicroOp::ForkFwd { .. } => concrete::<EagerFork<bool>>(controllers, node).forward(io),
        MicroOp::ForkBwd { .. } => concrete::<EagerFork<bool>>(controllers, node).backward(io),
        MicroOp::MuxFwd { .. } => concrete::<MuxController<bool>>(controllers, node).forward(io),
        MicroOp::MuxBwd { .. } => concrete::<MuxController<bool>>(controllers, node).backward(io),
    }
    core.dirty.len() > before
}
