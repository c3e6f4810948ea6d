//! The engine core shared by [`crate::Simulation`] and
//! [`crate::LaneSimulation`].
//!
//! Both engines settle the same SELF handshake network by the same
//! algorithm; they differ in the rail word (one scenario as `bool`, or 64
//! lanes as `u64`), and so in what a channel is (one [`ChannelState`] row,
//! or four 64-lane words plus a data column) and in what runs around the
//! settle phase. [`EngineCore`] holds everything that does not depend on
//! that difference, over `Box<dyn Controller<R>>` nodes; only building a
//! port view on the engine's channel storage is width-specific
//! ([`EngineRail`]):
//!
//! * the dense topology built from the netlist — channel ids and widths,
//!   per-node ports, the producer and consumer of every channel — and the
//!   static evaluation ranks;
//! * the event-driven settle: rank-ordered seeding, the worklist drain with
//!   its wake rule, and the optimistic pass for lazy forks — the one
//!   iterative settle, for the netlists without a plan;
//! * the dispatch to the [`CompiledPlan`] when the engine has one;
//! * the settle budget and the [`OscillationWitness`] when it runs out;
//! * override lookup for the `reset_with_*` family, the clock edge, the
//!   cycle and effort counters, and report assembly from each controller's
//!   [`NodeReport`].
//!
//! The channel storage stays with the engine and is passed into every call
//! that reads or drives signals.
//!
//! [`ChannelState`]: crate::signal::ChannelState

use std::collections::{BTreeMap, VecDeque};

use elastic_core::{Channel, ChannelId, Netlist, NodeId, Port};

use crate::compiled::CompiledPlan;
use crate::controller::{Controller, NodeReport, Reads};
use crate::controllers::build_controller;
use crate::engine::{OscillationWitness, SimError};
use crate::handshake::Rail;
use crate::metrics::SimulationReport;

/// Dense `(input, output)` channel indices of one node.
pub(crate) type Ports = (Vec<usize>, Vec<usize>);

/// A rail word an engine runs at: its channel storage, and the port view
/// of one node on it.
pub(crate) trait EngineRail: Rail {
    /// The engine's channel storage.
    type Channels: ?Sized;

    /// A port view on the node with `ports`, masking driven data to
    /// `widths` and pushing every channel it changes onto `dirty`, when
    /// given.
    fn io<'a>(
        channels: &'a mut Self::Channels,
        ports: &'a Ports,
        widths: &'a [u8],
        dirty: Option<&'a mut Vec<usize>>,
    ) -> Self::Io<'a>;
}

/// A rank-ordered worklist of controller indices with O(1) dedupe.
///
/// Controllers are bucketed by their static evaluation rank; `pop` always
/// returns a controller of the lowest dirty rank, so valids and data are
/// evaluated producers-before-consumers. A signal change travelling
/// against the ranks (a stop or kill waking a producer, or a change within
/// the shared trailing rank of a combinational ring) simply moves the
/// cursor back to the affected bucket and settles by re-wake waves.
#[derive(Debug)]
struct Worklist {
    buckets: Vec<Vec<u32>>,
    queued: Vec<bool>,
    cursor: usize,
    len: usize,
}

impl Worklist {
    fn new(rank_count: usize, node_count: usize) -> Self {
        Worklist {
            buckets: vec![Vec::new(); rank_count.max(1)],
            queued: vec![false; node_count],
            cursor: 0,
            len: 0,
        }
    }

    fn push(&mut self, node: usize, rank: usize) {
        if !self.queued[node] {
            self.queued[node] = true;
            self.buckets[rank].push(node as u32);
            self.cursor = self.cursor.min(rank);
            self.len += 1;
        }
    }

    fn pop(&mut self) -> Option<usize> {
        if self.len == 0 {
            return None;
        }
        while self.buckets[self.cursor].is_empty() {
            self.cursor += 1;
        }
        let node = self.buckets[self.cursor].pop().expect("bucket checked non-empty") as usize;
        self.queued[node] = false;
        self.len -= 1;
        Some(node)
    }
}

/// The netlist-derived state and settle machinery both engines share.
pub(crate) struct EngineCore<R: Rail> {
    pub(crate) controllers: Vec<Box<dyn Controller<R>>>,
    pub(crate) node_ids: Vec<NodeId>,
    pub(crate) node_kinds: Vec<&'static str>,
    pub(crate) node_ports: Vec<Ports>,
    /// Declared bit width of each channel (dense index), shared with every
    /// tracked port view so producers mask data to the wire they drive.
    pub(crate) channel_widths: Vec<u8>,
    /// Netlist channel id of each dense channel index; needed to resolve
    /// fault plans and to name channels in oscillation witnesses.
    pub(crate) channel_ids: Vec<ChannelId>,
    /// Controller index producing / consuming each channel.
    channel_producer: Vec<u32>,
    channel_consumer: Vec<u32>,
    /// Per controller, whether either half reads a channel
    /// ([`Controller::reads`]).
    reads_channels: Vec<bool>,
    /// Controller indices requiring the optimistic seeding pass (lazy forks);
    /// empty for the vast majority of netlists, in which case the settle
    /// phase is exactly the single-pass fixpoint.
    pub(crate) optimistic_nodes: Vec<u32>,
    /// Static evaluation rank per controller (see [`crate::engine`]).
    pub(crate) rank: Vec<u32>,
    /// Controller indices grouped by rank — the per-cycle seed layout.
    seed_buckets: Vec<Vec<u32>>,
    worklist: Worklist,
    /// Scratch buffer receiving the channels dirtied by one eval.
    pub(crate) dirty: Vec<usize>,
    /// Controllers still queued (event-driven) or still changing (full
    /// sweep) when a settle budget ran out — the raw material of the
    /// [`OscillationWitness`]. Empty outside the error path.
    pub(crate) oscillating: Vec<u32>,
    pub(crate) cycle: u64,
    /// Total settle iterations: worklist pops (event-driven), full sweeps
    /// (reference) or op executions (compiled plan), over all cycles.
    pub(crate) settle_iterations: u64,
    /// Total controller evaluations over all cycles.
    pub(crate) controller_evals: u64,
}

impl<R: EngineRail> EngineCore<R> {
    /// Validates `netlist`, indexes its live channels densely, builds one
    /// controller per live node, and derives the evaluation ranks.
    pub(crate) fn build(netlist: &Netlist) -> Result<Self, SimError> {
        netlist.validate()?;

        let mut channel_index = BTreeMap::new();
        let mut channel_widths = Vec::new();
        let mut channel_ids = Vec::new();
        for (index, channel) in netlist.live_channels().enumerate() {
            channel_index.insert(channel.id, index);
            channel_widths.push(channel.width);
            channel_ids.push(channel.id);
        }

        let mut controllers = Vec::new();
        let mut node_ids = Vec::new();
        let mut node_kinds = Vec::new();
        let mut node_ports = Vec::new();
        let mut channel_producer = vec![0u32; channel_index.len()];
        let mut channel_consumer = vec![0u32; channel_index.len()];
        for node in netlist.live_nodes() {
            let controller = build_controller(netlist, node)?;
            let node_index = controllers.len() as u32;
            let dense = |channel: Option<&Channel>| {
                channel_index[&channel.expect("validated netlists have fully connected ports").id]
            };
            let inputs: Vec<usize> = (0..node.input_count())
                .map(|port| dense(netlist.channel_into(Port::input(node.id, port))))
                .collect();
            let outputs: Vec<usize> = (0..node.output_count())
                .map(|port| dense(netlist.channel_from(Port::output(node.id, port))))
                .collect();
            for &channel in &inputs {
                channel_consumer[channel] = node_index;
            }
            for &channel in &outputs {
                channel_producer[channel] = node_index;
            }
            controllers.push(controller);
            node_ids.push(node.id);
            node_kinds.push(node.kind.kind_name());
            node_ports.push((inputs, outputs));
        }

        let reads_channels: Vec<bool> =
            controllers.iter().map(|c| c.reads() != Reads::default()).collect();
        let optimistic_nodes: Vec<u32> = controllers
            .iter()
            .enumerate()
            .filter(|(_, c)| c.is_optimistic())
            .map(|(index, _)| index as u32)
            .collect();
        let rank =
            evaluation_ranks(controllers.len(), &node_ports, &channel_producer, &reads_channels);
        let rank_count = rank.iter().map(|&r| r as usize + 1).max().unwrap_or(1);
        let mut seed_buckets = vec![Vec::new(); rank_count];
        for (node, &node_rank) in rank.iter().enumerate() {
            seed_buckets[node_rank as usize].push(node as u32);
        }

        Ok(EngineCore {
            worklist: Worklist::new(rank_count, controllers.len()),
            controllers,
            node_ids,
            node_kinds,
            node_ports,
            channel_widths,
            channel_ids,
            channel_producer,
            channel_consumer,
            reads_channels,
            optimistic_nodes,
            rank,
            seed_buckets,
            dirty: Vec::new(),
            oscillating: Vec::new(),
            cycle: 0,
            settle_iterations: 0,
            controller_evals: 0,
        })
    }

    /// Number of dense channels.
    pub(crate) fn channel_count(&self) -> usize {
        self.channel_ids.len()
    }

    /// The per-cycle settle budget in full-sweep equivalents: `2·channels +
    /// 8` (every channel can change at most once per direction, plus seeding
    /// slack).
    pub(crate) fn settle_budget(&self) -> usize {
        2 * self.channel_count() + 8
    }

    /// Rewinds every controller and restarts the cycle and effort counters.
    pub(crate) fn rewind(&mut self) {
        for controller in &mut self.controllers {
            controller.reset();
        }
        self.cycle = 0;
        self.settle_iterations = 0;
        self.controller_evals = 0;
    }

    /// Hands each named node's controller its override through `apply`. A
    /// node the netlist lacks, or a controller that refuses the override
    /// (`apply` returns `false`), fails a debug assertion naming the `role`
    /// the override needs; release builds ignore it.
    pub(crate) fn override_nodes<T>(
        &mut self,
        overrides: impl IntoIterator<Item = (NodeId, T)>,
        role: &str,
        mut apply: impl FnMut(&mut Box<dyn Controller<R>>, T) -> bool,
    ) {
        for (node, value) in overrides {
            let applied = self
                .node_ids
                .iter()
                .position(|&id| id == node)
                .is_some_and(|index| apply(&mut self.controllers[index], value));
            debug_assert!(applied, "node {node} is not a {role}; cannot override it");
        }
    }

    /// Evaluates controller `node` with change tracking; the channels it
    /// changed are left in `dirty`.
    pub(crate) fn eval(&mut self, node: usize, channels: &mut R::Channels, optimistic: bool) {
        self.dirty.clear();
        let ports = &self.node_ports[node];
        let io = &mut R::io(channels, ports, &self.channel_widths, Some(&mut self.dirty));
        self.controllers[node].eval(io, optimistic);
        self.controller_evals += 1;
    }

    /// Evaluates controller `node` with change tracking and wakes the
    /// controllers observing any channel the evaluation changed.
    fn eval_and_wake(&mut self, node: usize, channels: &mut R::Channels, optimistic: bool) {
        self.eval(node, channels, optimistic);
        for &channel in &self.dirty {
            let producer = self.channel_producer[channel] as usize;
            let consumer = self.channel_consumer[channel] as usize;
            if producer == node && consumer == node {
                // Self-loop channel: the writer is also the only observer, so
                // the "writer never needs re-waking" shortcut below would
                // suppress the only possible wake-up and silently accept a
                // non-fixpoint state. Re-enqueue the writer instead; a stable
                // eval stops producing changes (terminating the loop), an
                // oscillating one exhausts the budget and is reported as a
                // combinational loop, matching the full-sweep oracle.
                if self.reads_channels[node] {
                    self.worklist.push(node, self.rank[node] as usize);
                }
                continue;
            }
            for endpoint in [producer, consumer] {
                // The writer itself never needs re-waking for its own write
                // (eval is a pure function, so re-running it with unchanged
                // inputs cannot produce new outputs), and fully registered
                // controllers never react to channel changes at all.
                if endpoint != node && self.reads_channels[endpoint] {
                    self.worklist.push(endpoint, self.rank[endpoint] as usize);
                }
            }
        }
    }

    /// Seeds every controller into the worklist, in rank order.
    fn seed_worklist(&mut self) {
        for rank in 0..self.seed_buckets.len() {
            // Seed via the bucket layout directly: cheaper than per-node
            // `push` and already in rank order.
            let bucket = &self.seed_buckets[rank];
            self.worklist.buckets[rank].extend_from_slice(bucket);
            for &node in bucket {
                self.worklist.queued[node as usize] = true;
            }
            self.worklist.len += bucket.len();
        }
        self.worklist.cursor = 0;
    }

    /// Drains the worklist to a fixed point, evaluating with the given mode.
    /// Returns `false` when the shared evaluation budget is exhausted.
    fn drain_worklist(
        &mut self,
        channels: &mut R::Channels,
        optimistic: bool,
        evals: &mut u64,
        eval_cap: u64,
    ) -> bool {
        while let Some(node) = self.worklist.pop() {
            *evals += 1;
            self.settle_iterations += 1;
            if *evals > eval_cap {
                // Capture the oscillation witness — the node whose turn it
                // was plus everything still queued — and drain the queue so
                // the worklist is clean if the caller inspects or reuses the
                // simulation after the error.
                self.oscillating.clear();
                self.oscillating.push(node as u32);
                while let Some(pending) = self.worklist.pop() {
                    self.oscillating.push(pending as u32);
                }
                return false;
            }
            self.eval_and_wake(node, channels, optimistic);
        }
        true
    }

    /// Event-driven settle: seed every controller once in rank order, then
    /// drain the worklist — after the optimistic seeding pass when the
    /// netlist has lazy forks (see the [`crate::engine`] module docs).
    /// Returns `false` when the evaluation budget is exhausted
    /// (combinational loop).
    pub(crate) fn settle_event_driven(&mut self, channels: &mut R::Channels) -> bool {
        debug_assert_eq!(self.worklist.len, 0, "worklist drained at end of previous cycle");
        let eval_cap =
            (self.settle_budget() as u64).saturating_mul(self.controllers.len().max(1) as u64);
        let mut evals_this_cycle = 0u64;

        self.seed_worklist();
        if !self.optimistic_nodes.is_empty() {
            if !self.drain_worklist(channels, true, &mut evals_this_cycle, eval_cap) {
                return false;
            }
            // Honest pass: re-evaluate the optimistic controllers with the
            // real equations; any withdrawn assumption ripples from there.
            for &node in &self.optimistic_nodes {
                self.worklist.push(node as usize, self.rank[node as usize] as usize);
            }
        }
        self.drain_worklist(channels, false, &mut evals_this_cycle, eval_cap)
    }

    /// Settles one cycle on `plan` when the engine has one, event-driven
    /// otherwise. Returns `false` when the event-driven budget is exhausted
    /// (combinational loop); a plan always settles.
    pub(crate) fn settle(
        &mut self,
        plan: Option<&CompiledPlan>,
        channels: &mut R::Channels,
    ) -> bool {
        match plan {
            Some(plan) => {
                plan.settle(self, channels);
                true
            }
            None => self.settle_event_driven(channels),
        }
    }

    /// Builds the [`OscillationWitness`] from the controllers collected by
    /// the failing settle pass and the channels of the final evaluation.
    fn oscillation_witness(&self) -> OscillationWitness {
        let mut nodes: Vec<(NodeId, &'static str)> = self
            .oscillating
            .iter()
            .map(|&node| (self.node_ids[node as usize], self.node_kinds[node as usize]))
            .collect();
        nodes.sort_unstable();
        nodes.dedup();
        let mut channels: Vec<ChannelId> =
            self.dirty.iter().map(|&channel| self.channel_ids[channel]).collect();
        channels.sort_unstable();
        channels.dedup();
        OscillationWitness { nodes, channels }
    }

    /// The error of a settle pass that ran out of budget in this cycle.
    pub(crate) fn combinational_loop(&self) -> SimError {
        SimError::CombinationalLoop { cycle: self.cycle, witness: self.oscillation_witness() }
    }

    /// Clock edge: commits every controller on the settled signals and
    /// advances the cycle.
    pub(crate) fn clock_edge(&mut self, channels: &mut R::Channels) {
        for (controller, ports) in self.controllers.iter_mut().zip(&self.node_ports) {
            // Commits only read the settled signals: no widths, no tracking.
            controller.commit(&R::io(channels, ports, &[], None));
        }
        self.cycle += 1;
    }

    /// Assembles lane `lane`'s report of every cycle simulated so far from
    /// each controller's [`NodeReport`]; the engine adds what only it
    /// tracks (trace size, faults, deadline).
    pub(crate) fn report(&self, lane: usize) -> SimulationReport {
        let mut report = SimulationReport {
            cycles: self.cycle,
            settle_iterations: self.settle_iterations,
            controller_evals: self.controller_evals,
            ..SimulationReport::default()
        };
        for (controller, &node) in self.controllers.iter().zip(&self.node_ids) {
            match controller.report(lane) {
                Some(NodeReport::Sink(stream)) => {
                    report.sink_streams.insert(node, stream.to_vec());
                }
                Some(NodeReport::Shared(shared)) => {
                    report.shared_stats.insert(node, shared);
                }
                Some(NodeReport::Commit(lanes)) => {
                    report.commit_stats.insert(node, lanes);
                }
                None => {}
            }
        }
        report
    }
}

/// Computes the static evaluation rank of every controller: a topological
/// order over the zero-delay dataflow graph.
///
/// A controller whose halves read channels (`reads_channels`) has one edge
/// from the producer of each of its input channels, and no other edges:
/// valids and data flow from producer to consumer, so a rank-ordered pass
/// evaluates every consumer after its inputs' producers. Stops and kills
/// flow the other way; a consumer that changes one wakes the producer
/// through the worklist, against the ranks. Controllers whose halves read
/// nothing have no incoming edges and thereby cut every loop that crosses
/// a registered boundary. Controllers on a combinational dataflow ring are
/// assigned one shared trailing rank — the worklist still settles them by
/// iteration (or hits the budget and reports the loop).
fn evaluation_ranks(
    node_count: usize,
    node_ports: &[Ports],
    channel_producer: &[u32],
    reads_channels: &[bool],
) -> Vec<u32> {
    // Successor lists and in-degrees of the dataflow graph.
    let mut successors: Vec<Vec<u32>> = vec![Vec::new(); node_count];
    let mut in_degree: Vec<u32> = vec![0; node_count];
    for (node, (inputs, _)) in node_ports.iter().enumerate() {
        if !reads_channels[node] {
            continue;
        }
        for from in inputs.iter().map(|&channel| channel_producer[channel] as usize) {
            if from != node {
                successors[from].push(node as u32);
                in_degree[node] += 1;
            }
        }
    }

    // Kahn's algorithm, longest-path ranks; node order keeps it deterministic.
    let mut rank = vec![0u32; node_count];
    let mut ready: VecDeque<u32> =
        (0..node_count as u32).filter(|&n| in_degree[n as usize] == 0).collect();
    let mut max_rank = 0u32;
    while let Some(node) = ready.pop_front() {
        max_rank = max_rank.max(rank[node as usize]);
        for &next in &successors[node as usize] {
            let next = next as usize;
            rank[next] = rank[next].max(rank[node as usize] + 1);
            in_degree[next] -= 1;
            if in_degree[next] == 0 {
                ready.push_back(next as u32);
            }
        }
    }
    // Combinational rings: everything not topologically ordered shares the
    // trailing rank.
    for (node, degree) in in_degree.iter().enumerate() {
        if *degree > 0 {
            rank[node] = max_rank + 1;
        }
    }
    rank
}
