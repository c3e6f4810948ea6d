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
//! A fused op owns no equation: it calls the node kind's forward or
//! backward equation in [`crate::handshake`] — the same code the scalar and
//! lane controllers run — through a [`NodeIo`] on the node's ports,
//! change-tracked in the trailing segment. What the plan owns is the
//! schedule, the forward/backward split and the snapshots below. Function blocks evaluate their data through
//! [`elastic_datapath::evaluate`], as the function controller does.
//!
//! Controllers the planner does not specialize (shared modules, commit
//! stages, variable-latency units, future kinds) become [`MicroOp::Eval`]
//! ops: a change-tracked dynamic `Controller::eval`, bit-identical to the
//! other engines by construction. Fully registered controllers (sources,
//! sinks, standard buffers — `eval_reads_channels() == false`) are also
//! `Eval` ops; they have no rail reads, so they always land at the head of
//! the prefix and run once.
//!
//! The few specialized controllers whose equations read *sequential* state
//! (zero-backward buffers, eager forks, early-evaluation muxes) are handled
//! by **snapshots**: their state is read once per cycle through
//! [`Controller::as_any`] before any op runs — legal because `eval` is a
//! pure function of `&self` and the settle phase never commits state.
//!
//! The plan holds no cross-cycle state (snapshots are refreshed every
//! cycle), so `reset_*`, fault arming, monitors and deadlines work
//! unchanged. Netlists containing optimistic controllers (lazy forks) are
//! **not** planned; the engine transparently falls back to the event-driven
//! strategy, which implements the optimistic two-pass seeding those
//! controllers require.

use elastic_core::{Netlist, NodeKind, Op};

use crate::codegen::concrete;
use crate::controller::{Controller, NodeIo};
use crate::controllers::buffer::ZeroBackwardBuffer;
use crate::controllers::evaluate_lane;
use crate::controllers::fork::EagerFork;
use crate::controllers::mux::MuxController;
use crate::handshake::{
    fork_backward, fork_forward, function_backward, function_forward, mux_backward, mux_forward,
    zero_backward_backward, zero_backward_forward,
};
use crate::signal::ChannelState;

/// One fused settle operation on the ports of node `node`. `slot` indexes
/// the node's sequential-state snapshot.
#[derive(Debug, Clone)]
pub(crate) enum MicroOp {
    /// Change-tracked dynamic `Controller::eval` — registered controllers
    /// (no rail reads) and every kind the planner does not specialize.
    Eval { node: u32 },
    /// Function block, forward group: join validity, datapath value, `S-`.
    FnFwd { node: u32, op: Op },
    /// Function block, backward group: `S+`/`V-` toward every input.
    FnBwd { node: u32 },
    /// Zero-backward buffer, forward group (reads the stored-word snapshot).
    ZbFwd { node: u32, slot: u32 },
    /// Zero-backward buffer, backward group.
    ZbBwd { node: u32, slot: u32 },
    /// Eager fork, forward group (reads the pending-branch snapshot).
    ForkFwd { node: u32, slot: u32 },
    /// Eager fork, backward group.
    ForkBwd { node: u32, slot: u32 },
    /// Multiplexor, forward group; early-evaluation muxes carry the slot of
    /// their owed-anti-token snapshot.
    MuxFwd { node: u32, early: Option<u32> },
    /// Multiplexor, backward group.
    MuxBwd { node: u32, early: Option<u32> },
}

impl MicroOp {
    pub(crate) fn node(&self) -> u32 {
        match self {
            MicroOp::Eval { node }
            | MicroOp::FnFwd { node, .. }
            | MicroOp::FnBwd { node }
            | MicroOp::ZbFwd { node, .. }
            | MicroOp::ZbBwd { node, .. }
            | MicroOp::ForkFwd { node, .. }
            | MicroOp::ForkBwd { node, .. }
            | MicroOp::MuxFwd { node, .. }
            | MicroOp::MuxBwd { node, .. } => *node,
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

/// Where one snapshot slot is refreshed from at the start of every settle
/// (the slot is the index in the plan's snapshot list).
#[derive(Debug, Clone, Copy)]
enum SnapshotSource {
    /// `(is_full, stored_word)` of a zero-backward buffer.
    ZeroBackward(u32),
    /// Effective-pending bitmask of an eager fork.
    Fork(u32),
    /// Owed-anti-token bitmask (owed > 0 per data input) of an early mux.
    Mux(u32),
}

/// The engine state one settle pass operates on — disjoint borrows of the
/// `Simulation` fields, constructed in `engine.rs` (the plan itself is taken
/// out of the simulation for the duration of the call).
pub(crate) struct SettleCtx<'a> {
    pub(crate) channels: &'a mut [ChannelState],
    pub(crate) controllers: &'a [Box<dyn Controller>],
    pub(crate) node_ports: &'a [(Vec<usize>, Vec<usize>)],
    pub(crate) channel_widths: &'a [u8],
    pub(crate) dirty: &'a mut Vec<usize>,
    pub(crate) oscillating: &'a mut Vec<u32>,
    /// Settle budget in full-sweep equivalents (caps trailing sweeps).
    pub(crate) budget: usize,
    pub(crate) settle_iterations: &'a mut u64,
    pub(crate) controller_evals: &'a mut u64,
}

/// A netlist lowered to a scheduled sequence of [`MicroOp`]s.
#[derive(Debug)]
pub(crate) struct CompiledPlan {
    /// All ops: `ops[..prefix_len]` is the straight-line prefix,
    /// `ops[prefix_len..]` the trailing (iterated) segment.
    pub(crate) ops: Vec<MicroOp>,
    pub(crate) prefix_len: usize,
    snapshots: Vec<SnapshotSource>,
    /// Snapshot storage, refreshed once per settle: `(flag, word)` per slot
    /// (the full flag and stored word of a zero-backward buffer, or a fork's
    /// or mux's bitmask in the word).
    state: Vec<(bool, u64)>,
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
        let mut snapshots = Vec::new();
        let mut snapshot = |source: fn(u32) -> SnapshotSource, node: u32| {
            snapshots.push(source(node));
            snapshots.len() as u32 - 1
        };

        for (index, node) in netlist.live_nodes().enumerate() {
            let node_u32 = index as u32;
            if !reads_channels[index] {
                // Fully registered: one dynamic eval, no rail reads.
                ops.push(MicroOp::Eval { node: node_u32 });
                continue;
            }
            match &node.kind {
                NodeKind::Function(spec) => {
                    ops.push(MicroOp::FnFwd { node: node_u32, op: spec.op.clone() });
                    ops.push(MicroOp::FnBwd { node: node_u32 });
                }
                NodeKind::Buffer(spec) if spec.backward_latency == 0 => {
                    let slot = snapshot(SnapshotSource::ZeroBackward, node_u32);
                    ops.push(MicroOp::ZbFwd { node: node_u32, slot });
                    ops.push(MicroOp::ZbBwd { node: node_u32, slot });
                }
                NodeKind::Fork(spec) if spec.eager && spec.outputs <= 64 => {
                    let slot = snapshot(SnapshotSource::Fork, node_u32);
                    ops.push(MicroOp::ForkFwd { node: node_u32, slot });
                    ops.push(MicroOp::ForkBwd { node: node_u32, slot });
                }
                NodeKind::Mux(spec)
                    if spec.data_inputs >= 1 && (!spec.early_eval || spec.data_inputs <= 64) =>
                {
                    let early = spec.early_eval.then(|| snapshot(SnapshotSource::Mux, node_u32));
                    ops.push(MicroOp::MuxFwd { node: node_u32, early });
                    ops.push(MicroOp::MuxBwd { node: node_u32, early });
                }
                _ => ops.push(MicroOp::Eval { node: node_u32 }),
            }
        }

        let (ops, prefix_len) = schedule(ops, node_ports, reads_channels, channel_widths);

        CompiledPlan { ops, prefix_len, state: vec![(false, 0); snapshots.len()], snapshots }
    }

    /// Drives the channels to their fixed point for one cycle. Returns
    /// `false` when the trailing segment fails to stabilise within the
    /// budget; the caller then finds the oscillating nodes in
    /// `ctx.oscillating` and the last wave's channels in `ctx.dirty`,
    /// exactly like the other strategies.
    pub(crate) fn settle(&mut self, ctx: &mut SettleCtx<'_>) -> bool {
        let CompiledPlan { ops, prefix_len, snapshots, state } = self;

        // Snapshot the sequential state the specialized equations read;
        // `eval` never mutates it, so once per settle is exact.
        for (slot, source) in state.iter_mut().zip(snapshots.iter()) {
            *slot = match *source {
                SnapshotSource::ZeroBackward(node) => {
                    let buffer: &ZeroBackwardBuffer<bool> =
                        concrete(ctx.controllers, node as usize);
                    (buffer.is_full(), buffer.stored()[0])
                }
                SnapshotSource::Fork(node) => (
                    false,
                    concrete::<EagerFork<bool>>(ctx.controllers, node as usize).pending_mask(),
                ),
                SnapshotSource::Mux(node) => {
                    let mux: &MuxController<bool> = concrete(ctx.controllers, node as usize);
                    let owed = mux.owed_anti_tokens().iter().take(64).enumerate();
                    (false, owed.fold(0, |mask, (j, &owed)| mask | (u64::from(owed > 0) << j)))
                }
            };
        }

        ctx.dirty.clear();
        for op in &ops[..*prefix_len] {
            exec(op, state, ctx, false);
        }
        *ctx.settle_iterations += *prefix_len as u64;

        let trailing = &ops[*prefix_len..];
        if trailing.is_empty() {
            return true;
        }
        for _ in 0..ctx.budget {
            *ctx.settle_iterations += trailing.len() as u64;
            ctx.dirty.clear();
            ctx.oscillating.clear();
            let mut changed = false;
            for op in trailing {
                if exec(op, state, ctx, true) {
                    changed = true;
                    ctx.oscillating.push(op.node());
                }
            }
            if !changed {
                ctx.oscillating.clear();
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
/// (the trailing sweeps) every changed channel is pushed onto `ctx.dirty`,
/// the convergence witness, and the return value says whether any signal
/// changed; prefix ops run untracked and return `false`.
#[inline]
fn exec(op: &MicroOp, state: &[(bool, u64)], ctx: &mut SettleCtx<'_>, track: bool) -> bool {
    let node = op.node() as usize;
    let before = ctx.dirty.len();
    let (inputs, outputs) = &ctx.node_ports[node];
    let dirty = track.then_some(&mut *ctx.dirty);
    let io = &mut NodeIo::masked(ctx.channels, inputs, outputs, ctx.channel_widths, dirty);
    let pending = |slot: &u32| {
        let mask = state[*slot as usize].1;
        move |branch: usize| (mask >> branch) & 1 == 1
    };
    match op {
        MicroOp::Eval { .. } => {
            ctx.controllers[node].eval(io);
            *ctx.controller_evals += 1;
        }
        MicroOp::FnFwd { op, .. } => {
            function_forward(io, &[evaluate_lane(io, op, 0..io.input_count(), 0)])
        }
        MicroOp::FnBwd { .. } => function_backward(io),
        MicroOp::ZbFwd { slot, .. } => {
            let (full, stored) = state[*slot as usize];
            zero_backward_forward(io, full, &[stored]);
        }
        MicroOp::ZbBwd { slot, .. } => zero_backward_backward(io, state[*slot as usize].0),
        MicroOp::ForkFwd { slot, .. } => fork_forward(io, true, false, pending(slot)),
        MicroOp::ForkBwd { slot, .. } => fork_backward(io, true, pending(slot)),
        MicroOp::MuxFwd { early, .. } | MicroOp::MuxBwd { early, .. } => {
            let owed = early.map_or(0, |slot| state[slot as usize].1);
            let selected = (io.input(0).data as usize) % (inputs.len() - 1);
            let (is_selected, clean) = (|j| j == selected, |j| (owed >> j) & 1 == 0);
            if let MicroOp::MuxFwd { .. } = op {
                let data = io.input(1 + selected).data;
                mux_forward(io, early.is_some(), is_selected, clean, &[data]);
            } else {
                mux_backward(io, early.is_some(), is_selected, clean);
            }
        }
    }
    ctx.dirty.len() > before
}
