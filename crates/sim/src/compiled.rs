//! Compiled settle backend: a netlist lowered to one straight-line sequence
//! of handshake halves.
//!
//! A **plan** built once per simulation replaces the event-driven worklist
//! fixpoint. Every controller contributes its two halves as ops — a
//! *forward* op driving the producer-owned rail group `{V+, data, S-}` of
//! its outputs and a *backward* op driving the consumer-owned group
//! `{S+, V-}` of its inputs — or a single *eval* op running both when
//! neither half reads a channel (the fully registered controllers:
//! sources, sinks, standard buffers). Each op reads the rail groups its
//! controller declares in [`Controller::reads`]; the ops are ordered once by
//! Kahn's algorithm over the rail-dependency graph (one writer per rail
//! group, edges writer → reader). The planner knows no node kind: it calls
//! every op through the trait.
//!
//! A netlist gets a plan exactly when that graph is acyclic. Every op then
//! runs once per cycle, in order, and reads only final rails, so the pass
//! reaches the cycle's fixed point with no worklist. An acyclic system has
//! one fixed point, so the plan lands where the event-driven settle does,
//! lazy forks included: the optimistic two-pass only chooses among fixed
//! points. A netlist whose rails form a cycle — a combinational loop, a
//! node feeding itself, a lazy fork whose branches reconverge — gets no
//! plan, and both engines settle it on the event-driven worklist, which
//! settles it or reports the loop.
//!
//! The plan is generic over the rail word: the scalar engine settles on it
//! under [`SettleStrategy::Compiled`](crate::engine::SettleStrategy::Compiled),
//! and the 64-lane [`crate::LaneSimulation`] settles every step on it. It
//! holds no state and no equation: an op is a node and a half, run on the
//! engine's port view of the node's ports, so `reset_*`, fault arming,
//! monitors and deadlines work unchanged, and the settle functions emitted
//! by [`crate::codegen`] print the same op sequence.
//!
//! [`Controller::reads`]: crate::controller::Controller::reads

use std::collections::VecDeque;

use crate::controller::{Groups, Reads};
use crate::engine_core::{EngineCore, EngineRail, Ports};

/// Which equations of its node an op runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Half {
    /// Both halves (`Controller::eval`): a node whose halves read nothing.
    Both,
    /// `Controller::forward`.
    Forward,
    /// `Controller::backward`.
    Backward,
}

/// A netlist lowered to its ops in dataflow order.
#[derive(Debug)]
pub(crate) struct CompiledPlan {
    /// Each op: a node, and the half of its controller the op runs.
    pub(crate) ops: Vec<(usize, Half)>,
    /// Ops running both halves, counted as controller evaluations.
    evals: u64,
}

/// Rail-group index: the producer-owned group `{V+, data, S-}` of channel
/// `c` is `2c`, the consumer-owned group `{S+, V-}` is `2c + 1`.
pub(crate) const FWD: usize = 0;
const BWD: usize = 1;

/// The rail groups of `groups` on a node with `ports`, as rail-group
/// indices.
pub(crate) fn rails(ports: &Ports, groups: Groups) -> impl Iterator<Item = usize> + '_ {
    let (inputs, outputs) = ports;
    [
        (Groups::INPUT_FORWARD, inputs, FWD),
        (Groups::INPUT_BACKWARD, inputs, BWD),
        (Groups::OUTPUT_FORWARD, outputs, FWD),
        (Groups::OUTPUT_BACKWARD, outputs, BWD),
    ]
    .into_iter()
    .filter(move |&(group, ..)| groups.contains(group))
    .flat_map(|(_, channels, side)| channels.iter().map(move |&c| 2 * c + side))
}

impl CompiledPlan {
    /// Lowers the netlist behind `core` to ops in dense node order, one per
    /// half, and orders them by Kahn's algorithm; `None` when their rail
    /// groups form a cycle.
    pub(crate) fn build<R: EngineRail>(core: &EngineCore<R>) -> Option<CompiledPlan> {
        // Each op with the rail groups it reads and the ones it writes.
        let mut ops = Vec::new();
        for (node, controller) in core.controllers.iter().enumerate() {
            let op = |half| (node, half);
            let reads = controller.reads();
            if reads == Reads::default() {
                let writes = Groups::OUTPUT_FORWARD | Groups::INPUT_BACKWARD;
                ops.push((op(Half::Both), Groups::NONE, writes));
            } else {
                ops.push((op(Half::Forward), reads.forward, Groups::OUTPUT_FORWARD));
                ops.push((op(Half::Backward), reads.backward, Groups::INPUT_BACKWARD));
            }
        }

        // Every channel of a validated netlist has both endpoints, so every
        // rail group has exactly one writer.
        let mut writer = vec![usize::MAX; 2 * core.channel_count()];
        for (index, &((node, _), _, writes)) in ops.iter().enumerate() {
            rails(&core.node_ports[node], writes).for_each(|rail| writer[rail] = index);
        }
        let mut in_degree = vec![0u32; ops.len()];
        let mut successors: Vec<Vec<u32>> = vec![Vec::new(); ops.len()];
        for (index, &((node, _), reads, _)) in ops.iter().enumerate() {
            for rail in rails(&core.node_ports[node], reads) {
                // An op reading its own write (a node feeding itself) keeps
                // its in-degree and leaves the netlist unplanned.
                successors[writer[rail]].push(index as u32);
                in_degree[index] += 1;
            }
        }

        let mut ready: VecDeque<usize> = (0..ops.len()).filter(|&i| in_degree[i] == 0).collect();
        let mut order = Vec::with_capacity(ops.len());
        while let Some(index) = ready.pop_front() {
            order.push(ops[index].0);
            for &next in &successors[index] {
                in_degree[next as usize] -= 1;
                if in_degree[next as usize] == 0 {
                    ready.push_back(next as usize);
                }
            }
        }
        (order.len() == ops.len()).then(|| CompiledPlan {
            evals: order.iter().filter(|&&(_, half)| half == Half::Both).count() as u64,
            ops: order,
        })
    }

    /// Drives the channels to the cycle's fixed point: every op once, in
    /// order. Counts the op executions as settle iterations and the ops
    /// running both halves as controller evaluations.
    pub(crate) fn settle<R: EngineRail>(
        &self,
        core: &mut EngineCore<R>,
        channels: &mut R::Channels,
    ) {
        for &(node, half) in &self.ops {
            let controller = &core.controllers[node];
            let io = &mut R::io(channels, &core.node_ports[node], &core.channel_widths, None);
            match half {
                Half::Both => controller.eval(io, false),
                Half::Forward => controller.forward(io),
                Half::Backward => controller.backward(io),
            }
        }
        core.settle_iterations += self.ops.len() as u64;
        core.controller_evals += self.evals;
    }
}
