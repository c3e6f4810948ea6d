//! Retraction-domain analysis for speculative early-evaluation multiplexors.
//!
//! A speculative producer (a shared module, or the early-evaluation
//! multiplexor it feeds) may *retract* a stopped token: the offered `V+`
//! disappears in the next cycle — without a transfer — when the scheduler's
//! prediction changes (Section 4.2 of the paper). Combinational consumers
//! (function blocks, muxes, forks) re-derive their valids every cycle and
//! propagate the retraction wave onward; the wave is harmless until it
//! reaches a node that keeps *commit state* across cycles. The one such node
//! in this netlist algebra is the fork: its per-branch delivery bookkeeping
//! commits a branch's copy the cycle the branch accepts it, so a branch can
//! observe (and act on) a token that its siblings later see retracted — a
//! **phantom token** (found by the `elastic-gen` differential fuzzer, corpus
//! entry 0003).
//!
//! A fork can only commit *partially* when some branch stalls while another
//! accepts; a fork whose branches can never stall completes atomically and is
//! immune — which is exactly why Figure 7(b) needs no isolation (its cone
//! past the multiplexor cannot stall) while an arbitrary generated
//! feed-forward cone does.
//!
//! This module computes, for one multiplexor:
//!
//! * the **retraction cone** — the combinational region reachable from the
//!   multiplexor output before a sequential node or environment cuts the
//!   wave;
//! * the **frontier** — where the cone is cut, with each cut node classified;
//! * the **hazards** — forks inside the cone with at least one stallable
//!   branch, each carrying the channel through which the wave enters it;
//!
//! and derives a *placed* isolation-buffer set: one bubble on the entry
//! channel of each hazardous fork — nothing anywhere else. On cyclic designs
//! the placement therefore only taxes the loop when the loop's own cone
//! actually escapes into a stallable fork; Figure 1(d) and Figure 7(b)
//! receive no buffer at all.
//!
//! ## Stallability, and its limits
//!
//! Whether a branch "can stall" is derived structurally, erring towards
//! *stallable* (which at worst places an unnecessary buffer — a performance
//! tax, never an unsoundness):
//!
//! * a sink stalls according to its back-pressure pattern;
//! * a standard buffer stalls only when it can fill: a buffer whose
//!   strongly-connected component carries fewer initial tokens than its
//!   capacity can never fill (the marked-graph cycle-token invariant — the
//!   Figure 7(b) accumulator, one loop token against capacity 2, is the
//!   paradigm case), and a feed-forward buffer fills only if its own
//!   consumer stalls;
//! * joins (multi-input functions, lazy muxes) stall unless every sibling
//!   operand is driven by an always-offering source;
//! * shared modules and variable-latency units can always stall.
//!
//! The cycle-token rule assumes token conservation around the component
//! (joins and forks synchronize; an early mux kills exactly the copies it
//! does not consume), which holds for every structure the transforms in this
//! crate build. The differential fuzzing battery re-checks every placement
//! dynamically, so an approximation error here surfaces as a reproducible
//! fuzz failure rather than silent data corruption.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::error::{CoreError, Result};
use crate::id::{ChannelId, NodeId};
use crate::kind::{BackpressurePattern, NodeKind, SourcePattern};
use crate::netlist::Netlist;
use crate::transform::insert_bubble;

/// Why the retraction cone stopped at a frontier node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrontierClass {
    /// An elastic buffer: its output valid is a function of its occupancy,
    /// so the wave never crosses it.
    Buffer,
    /// An in-order commit stage (same persistence argument as a buffer).
    Commit,
    /// A variable-latency unit (sequential).
    VarLatency,
    /// An environment node (sink) — commits only on real transfers.
    Environment,
}

/// One phantom-token hazard: a fork inside the cone that can stall.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetractionHazard {
    /// The fork whose per-branch bookkeeping could commit a phantom token.
    pub fork: NodeId,
    /// The channel through which the retraction wave reaches the fork — the
    /// placement site of the isolation buffer.
    pub entry: ChannelId,
    /// Branch indices that can stall (the partial-commit witnesses).
    pub stallable_branches: Vec<usize>,
}

/// The retraction domain of one speculative multiplexor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetractionDomain {
    /// The multiplexor the analysis started from.
    pub mux: NodeId,
    /// Combinational nodes the retraction wave can traverse (excludes the
    /// multiplexor itself).
    pub cone: Vec<NodeId>,
    /// Nodes that cut the wave, with their classification.
    pub frontier: Vec<(NodeId, FrontierClass)>,
    /// Stallable forks inside the cone, in breadth-first (wave) order.
    pub hazards: Vec<RetractionHazard>,
    /// `true` when the multiplexor's select and data inputs are all driven by
    /// persistent producers (buffers, commit stages, sources), in which case
    /// its output can never retract and the cone — whatever its shape — is
    /// hazard-free.
    pub inputs_persistent: bool,
}

impl RetractionDomain {
    /// `true` when no isolation buffer is needed.
    pub fn is_safe(&self) -> bool {
        self.inputs_persistent || self.hazards.is_empty()
    }
}

/// `true` when the back-pressure pattern can ever stall a producer — the
/// *semantic* reading of a sink's environment contract (a `List` of all
/// `false`, or a `Random` with probability zero, never stalls even though it
/// is not spelled `Never`). The retraction-domain analysis classifies fork
/// stallability with this predicate, and environment-injection harnesses
/// must use the same predicate when deciding which sinks may receive
/// stalling overrides: a sink whose declared contract cannot stall is a
/// load-bearing assumption of the placed isolation buffers.
pub fn backpressure_may_stall(pattern: &BackpressurePattern) -> bool {
    match pattern {
        BackpressurePattern::Never => false,
        BackpressurePattern::Every(_) => true,
        BackpressurePattern::List(stalls) => stalls.iter().any(|&s| s),
        BackpressurePattern::Random { probability, .. } => *probability > 0.0,
    }
}

/// `true` when the channel's producer re-offers a token every cycle until it
/// is consumed — i.e. the consumer never waits on it.
fn always_available(netlist: &Netlist, channel: &crate::netlist::Channel) -> bool {
    matches!(
        netlist.node(channel.from.node).map(|n| &n.kind),
        Some(NodeKind::Source(spec)) if matches!(spec.pattern, SourcePattern::Always)
    )
}

/// The strongly-connected component of `node` (nodes on some directed cycle
/// through it, or just `{node}` when it is not on any cycle).
fn strongly_connected_component(netlist: &Netlist, node: NodeId) -> BTreeSet<NodeId> {
    let reach = |start: NodeId, forward: bool| {
        let mut seen = BTreeSet::new();
        let mut stack = vec![start];
        while let Some(current) = stack.pop() {
            if seen.insert(current) {
                let next = if forward {
                    netlist.successors(current)
                } else {
                    netlist.predecessors(current)
                };
                stack.extend(next);
            }
        }
        seen
    };
    let forward = reach(node, true);
    let backward = reach(node, false);
    forward.intersection(&backward).copied().collect()
}

/// Total initial tokens stored in the buffers of a node set.
fn component_tokens(netlist: &Netlist, component: &BTreeSet<NodeId>) -> i64 {
    component
        .iter()
        .filter_map(|&id| netlist.node(id))
        .filter_map(|n| n.as_buffer())
        .map(|spec| i64::from(spec.init_tokens.max(0)))
        .sum()
}

/// Structural can-this-channel-ever-be-stopped analysis (see module docs).
struct StallAnalysis<'a> {
    netlist: &'a Netlist,
    memo: BTreeMap<ChannelId, bool>,
    visiting: BTreeSet<ChannelId>,
}

impl<'a> StallAnalysis<'a> {
    fn new(netlist: &'a Netlist) -> Self {
        StallAnalysis { netlist, memo: BTreeMap::new(), visiting: BTreeSet::new() }
    }

    fn can_stall(&mut self, channel: ChannelId) -> bool {
        if let Some(&known) = self.memo.get(&channel) {
            return known;
        }
        // A back edge of the traversal: assume the cycle itself does not
        // originate a stall — stalls that matter come from buffers that can
        // fill, adversarial schedulers and environments, all of which are
        // classified before recursing.
        if !self.visiting.insert(channel) {
            return false;
        }
        let result = self.consumer_can_stall(channel);
        self.visiting.remove(&channel);
        self.memo.insert(channel, result);
        result
    }

    fn output_can_stall(&mut self, node: NodeId) -> bool {
        let outputs: Vec<ChannelId> =
            self.netlist.output_channels(node).iter().map(|c| c.id).collect();
        outputs.into_iter().any(|c| self.can_stall(c))
    }

    fn consumer_can_stall(&mut self, channel: ChannelId) -> bool {
        let Some(channel) = self.netlist.channel(channel) else { return true };
        let consumer = channel.to.node;
        let Some(node) = self.netlist.node(consumer) else { return true };
        match &node.kind {
            NodeKind::Sink(spec) => backpressure_may_stall(&spec.backpressure),
            NodeKind::Buffer(spec) => {
                if spec.init_tokens >= spec.capacity as i32 {
                    return true; // born full
                }
                if spec.backward_latency == 0 {
                    // Stop traverses the Figure-5 buffer combinationally.
                    return self.output_can_stall(consumer);
                }
                // A standard buffer stalls only once full. On a cycle, its
                // occupancy is bounded by the component's circulating tokens;
                // feed-forward, it fills only if its own consumer stalls.
                let component = strongly_connected_component(self.netlist, consumer);
                if component.len() > 1
                    && component_tokens(self.netlist, &component) < i64::from(spec.capacity)
                {
                    return false;
                }
                self.output_can_stall(consumer)
            }
            NodeKind::Commit(_) => self.output_can_stall(consumer),
            NodeKind::Function(spec) => {
                if spec.inputs > 1 {
                    let siblings_available = self
                        .netlist
                        .input_channels(consumer)
                        .iter()
                        .filter(|c| c.id != channel.id)
                        .all(|c| always_available(self.netlist, c));
                    if !siblings_available {
                        return true;
                    }
                }
                self.output_can_stall(consumer)
            }
            NodeKind::Fork(_) => {
                let branches: Vec<ChannelId> =
                    self.netlist.output_channels(consumer).iter().map(|c| c.id).collect();
                branches.into_iter().any(|c| self.can_stall(c))
            }
            // A multiplexor waits on its select and the selected data (and an
            // early mux stops the non-selected channels by design); shared
            // modules stall every non-granted user; variable-latency units
            // stall while recomputing. All conservatively stallable.
            NodeKind::Mux(_) | NodeKind::Shared(_) | NodeKind::VarLatency(_) => true,
            NodeKind::Source(_) => true, // unreachable: sources have no inputs
        }
    }
}

/// Nodes combinationally downstream of a lazy fork's branches: while the
/// fork's rendezvous is unresolved, tokens in this region are *withheld*
/// (the lazy fork offers nothing until every branch is ready), so nothing
/// in it can hold an operand across a consumer's stall cycle. Consumers
/// whose protocol needs operand persistence — shared modules, variable-
/// latency units — must not be placed (or created by a transform) inside
/// this region.
pub fn lazy_tainted_nodes(netlist: &Netlist) -> BTreeSet<NodeId> {
    let mut tainted = BTreeSet::new();
    for fork in
        netlist.live_nodes().filter(|n| matches!(&n.kind, NodeKind::Fork(spec) if !spec.eager))
    {
        tainted.insert(fork.id);
        let mut stack: Vec<NodeId> =
            netlist.output_channels(fork.id).iter().map(|c| c.to.node).collect();
        while let Some(node) = stack.pop() {
            let transparent = netlist.node(node).is_some_and(|n| n.kind.is_combinational());
            if transparent && tainted.insert(node) {
                stack.extend(netlist.successors(node));
            }
        }
    }
    tainted
}

/// Lazy forks caught in a register-unbalanced rendezvous — dead by
/// construction.
///
/// A lazy fork delivers all branch copies in the same cycle, so when two of
/// its branches reconverge at a common consumer the branch paths must carry
/// the *same* storage: if one branch reaches the reconvergence point
/// combinationally while another only reaches it through a buffer, the
/// consumer waits for the buffered token, the buffered token waits for the
/// fork to fire, and the fork waits for the combinational branch's consumer
/// — the same consumer. No settle-seed policy can save this composition;
/// its dead fixpoint is the *only* fixpoint. This lint finds such forks:
/// generators (and designers) demote them to eager, whose per-branch
/// delivery tolerates the skew.
pub fn ill_formed_lazy_forks(netlist: &Netlist) -> Vec<NodeId> {
    let combinational = |start: NodeId| -> BTreeSet<NodeId> {
        let mut seen = BTreeSet::new();
        let mut stack = vec![start];
        while let Some(node) = stack.pop() {
            let transparent = netlist.node(node).is_some_and(|n| n.kind.is_combinational());
            if seen.insert(node) && transparent {
                stack.extend(netlist.successors(node));
            }
        }
        seen
    };
    let everything = |start: NodeId| -> BTreeSet<NodeId> {
        let mut seen = BTreeSet::new();
        let mut stack = vec![start];
        while let Some(node) = stack.pop() {
            if seen.insert(node) {
                stack.extend(netlist.successors(node));
            }
        }
        seen
    };

    let mut ill_formed = Vec::new();
    for fork in
        netlist.live_nodes().filter(|n| matches!(&n.kind, NodeKind::Fork(spec) if !spec.eager))
    {
        let branches = netlist.output_channels(fork.id);
        let comb: Vec<BTreeSet<NodeId>> =
            branches.iter().map(|b| combinational(b.to.node)).collect();
        let full: Vec<BTreeSet<NodeId>> = branches.iter().map(|b| everything(b.to.node)).collect();
        let unbalanced = (0..branches.len()).any(|i| {
            (0..branches.len()).filter(|&j| j != i).any(|j| {
                comb[i].iter().any(|node| {
                    *node != fork.id && full[j].contains(node) && !comb[j].contains(node)
                })
            })
        });
        // A consumer that keeps *cross-cycle commit state* must never be fed
        // through a lazy fork, because the fork may withdraw its tokens
        // mid-protocol (withholding is a legal retraction for a lazy fork):
        //
        // * a variable-latency unit advances its exact-recompute state
        //   machine, and a shared module its starvation/scheduler state,
        //   only while the stalled operands stay valid — withdrawal freezes
        //   them forever;
        // * an eager fork holds per-branch delivery bookkeeping while its
        //   input token waits — withdrawal resets the bookkeeping after
        //   some branches already committed their copies (duplicated
        //   tokens), or wedges the region outright.
        let stalls_with_memory =
            comb.iter().flatten().any(|node| match netlist.node(*node).map(|n| &n.kind) {
                Some(NodeKind::VarLatency(_) | NodeKind::Shared(_)) => true,
                Some(NodeKind::Fork(spec)) => spec.eager,
                _ => false,
            });
        // A lazy fork with two or more *independently stalling* branches can
        // livelock on phase alignment alone (e.g. two periodic sinks whose
        // free cycles never coincide — the rendezvous requires all branches
        // ready in the same cycle, and no settle policy can make periods
        // align). One stalling branch is fine: the others are always ready,
        // so the rendezvous completes whenever that branch's drain is free.
        let mut stall = StallAnalysis::new(netlist);
        let stalling_branches = branches.iter().filter(|b| stall.can_stall(b.id)).count();
        if unbalanced || stalls_with_memory || stalling_branches > 1 {
            ill_formed.push(fork.id);
        }
    }
    ill_formed
}

/// `true` when the producer of `channel` never retracts an offered token:
/// its `V+` is a function of sequential state (buffers, commit stages) or of
/// a committed environment stream (sources hold a stopped offer).
fn producer_is_persistent(netlist: &Netlist, channel: &crate::netlist::Channel) -> bool {
    matches!(
        netlist.node(channel.from.node).map(|n| &n.kind),
        Some(NodeKind::Buffer(_) | NodeKind::Commit(_) | NodeKind::Source(_))
    )
}

/// Computes the retraction domain of `mux`.
///
/// # Errors
///
/// Fails when `mux` does not exist or is not a multiplexor.
pub fn retraction_domain(netlist: &Netlist, mux: NodeId) -> Result<RetractionDomain> {
    let node = netlist.require_node(mux)?;
    if node.as_mux().is_none() {
        return Err(CoreError::Precondition {
            transform: "retraction_domain",
            reason: format!("{mux} is a {} node, not a multiplexor", node.kind.kind_name()),
        });
    }

    // When every input of the multiplexor is driven by a persistent producer
    // its own output can never retract: the selected data token and the
    // select token both stay put until consumed, so the offered output holds.
    let inputs_persistent =
        netlist.input_channels(mux).iter().all(|channel| producer_is_persistent(netlist, channel));

    let mut cone: Vec<NodeId> = Vec::new();
    let mut seen: BTreeSet<NodeId> = BTreeSet::new();
    let mut frontier: Vec<(NodeId, FrontierClass)> = Vec::new();
    let mut hazards: Vec<RetractionHazard> = Vec::new();
    let mut stall = StallAnalysis::new(netlist);

    // Breadth-first wave from the multiplexor output.
    let mut queue: VecDeque<ChannelId> =
        netlist.output_channels(mux).iter().map(|c| c.id).collect();
    seen.insert(mux);
    while let Some(channel_id) = queue.pop_front() {
        let Some(channel) = netlist.channel(channel_id) else { continue };
        let consumer = channel.to.node;
        let Some(consumer_node) = netlist.node(consumer) else { continue };
        match &consumer_node.kind {
            NodeKind::Buffer(_) => {
                if seen.insert(consumer) {
                    frontier.push((consumer, FrontierClass::Buffer));
                }
                continue;
            }
            NodeKind::Commit(_) => {
                if seen.insert(consumer) {
                    frontier.push((consumer, FrontierClass::Commit));
                }
                continue;
            }
            NodeKind::VarLatency(_) => {
                if seen.insert(consumer) {
                    frontier.push((consumer, FrontierClass::VarLatency));
                }
                continue;
            }
            NodeKind::Sink(_) | NodeKind::Source(_) => {
                if seen.insert(consumer) {
                    frontier.push((consumer, FrontierClass::Environment));
                }
                continue;
            }
            NodeKind::Fork(_) => {
                if !seen.insert(consumer) {
                    continue;
                }
                cone.push(consumer);
                let stallable_branches: Vec<usize> = netlist
                    .output_channels(consumer)
                    .iter()
                    .enumerate()
                    .filter(|(_, c)| stall.can_stall(c.id))
                    .map(|(index, _)| index)
                    .collect();
                if !stallable_branches.is_empty() {
                    hazards.push(RetractionHazard {
                        fork: consumer,
                        entry: channel_id,
                        stallable_branches,
                    });
                }
                for branch in netlist.output_channels(consumer) {
                    queue.push_back(branch.id);
                }
            }
            NodeKind::Function(_) | NodeKind::Mux(_) | NodeKind::Shared(_) => {
                if !seen.insert(consumer) {
                    continue;
                }
                cone.push(consumer);
                for output in netlist.output_channels(consumer) {
                    queue.push_back(output.id);
                }
            }
        }
    }

    Ok(RetractionDomain { mux, cone, frontier, hazards, inputs_persistent })
}

/// Inserts the isolation buffers the retraction domain of `mux` demands:
/// one bubble on the entry channel of each stallable fork the wave can
/// reach, and nothing anywhere else. Returns the inserted buffer ids (empty
/// when the domain is already safe — Figures 1(d) and 7(b) both are).
///
/// The domain is recomputed after every insertion: a bubble in front of the
/// first hazardous fork also cuts the wave towards everything behind it, so
/// forks that were only reachable through it never receive a redundant
/// buffer. The placement is *minimal* in the sense that removing any placed
/// buffer re-exposes at least one hazard (checked property-based in
/// `elastic-gen`).
///
/// # Errors
///
/// Fails when `mux` does not exist or is not a multiplexor, or when a
/// placement site refuses the bubble (a hazard entry inside a lazy fork's
/// rendezvous region). The placement is **atomic**: on any error the
/// netlist is left exactly as it was — no partial buffer set.
pub fn place_isolation_buffers(netlist: &mut Netlist, mux: NodeId) -> Result<Vec<NodeId>> {
    // Fail-fast path: a safe domain places nothing and needs no scratch copy.
    if retraction_domain(netlist, mux)?.is_safe() {
        return Ok(Vec::new());
    }
    // Work on a scratch copy so a refused insertion (lazy-rendezvous side
    // condition) cannot leave earlier bubbles behind.
    let mut working = netlist.clone();
    let mut placed = Vec::new();
    loop {
        let domain = retraction_domain(&working, mux)?;
        if domain.is_safe() {
            *netlist = working;
            return Ok(placed);
        }
        let hazard = domain.hazards.first().expect("not safe implies a hazard");
        placed.push(insert_bubble(&mut working, hazard.entry)?);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::Port;
    use crate::kind::{BufferSpec, ForkSpec, MuxSpec, SinkSpec, SourceSpec};
    use crate::op::{opaque, Op};

    /// `sel/src0·via/src1 → mux → blk → fork → {sink, stalling sink}`: the
    /// feed-forward shape whose fork partially commits under back-pressure.
    /// One data input arrives through a function block, so the mux's inputs
    /// are not all persistent and its output can retract.
    fn stallable_cone() -> (Netlist, NodeId, NodeId) {
        let mut n = Netlist::new("stallable");
        let sel = n.add_source("sel", SourceSpec::always());
        let src0 = n.add_source("src0", SourceSpec::always());
        let via = n.add_op("via", Op::Identity);
        let src1 = n.add_source("src1", SourceSpec::always());
        let mux = n.add_mux("mux", MuxSpec::early(2));
        let blk = n.add_op("blk", opaque("B", 4, 60));
        let fork = n.add_fork("fork", ForkSpec::eager(2));
        let sink0 = n.add_sink("sink0", SinkSpec::always_ready());
        let sink1 = n.add_sink("sink1", SinkSpec { backpressure: BackpressurePattern::Every(3) });
        n.connect(Port::output(sel, 0), Port::input(mux, 0), 1).unwrap();
        n.connect(Port::output(src0, 0), Port::input(via, 0), 8).unwrap();
        n.connect(Port::output(via, 0), Port::input(mux, 1), 8).unwrap();
        n.connect(Port::output(src1, 0), Port::input(mux, 2), 8).unwrap();
        n.connect(Port::output(mux, 0), Port::input(blk, 0), 8).unwrap();
        n.connect(Port::output(blk, 0), Port::input(fork, 0), 8).unwrap();
        n.connect(Port::output(fork, 0), Port::input(sink0, 0), 8).unwrap();
        n.connect(Port::output(fork, 1), Port::input(sink1, 0), 8).unwrap();
        n.validate().unwrap();
        (n, mux, fork)
    }

    /// The Figure-7(b) cone shape: `mux → wrap → encode → fork → {EB loop,
    /// always-ready sink}` with one token circulating against capacity 2 —
    /// the fork cannot stall.
    fn fig7b_like_cone() -> (Netlist, NodeId, NodeId) {
        let mut n = Netlist::new("fig7b_cone");
        let sel = n.add_source("sel", SourceSpec::always());
        let src0 = n.add_source("src0", SourceSpec::always());
        let mux = n.add_mux("mux", MuxSpec::early(2));
        let wrap = n.add_op("wrap", Op::Mask { width: 8 });
        let encode = n.add_op("encode", opaque("E", 3, 40));
        let fork = n.add_fork("out_fork", ForkSpec::eager(2));
        let state = n.add_buffer("state", BufferSpec::standard(1));
        let back = n.add_op("back", Op::Identity);
        let sink = n.add_sink("sink", SinkSpec::always_ready());
        n.connect(Port::output(sel, 0), Port::input(mux, 0), 1).unwrap();
        n.connect(Port::output(src0, 0), Port::input(mux, 1), 8).unwrap();
        // The loop: state feeds the mux's other data input, closing the cycle
        // through the fork — one initial token, buffer capacity 2.
        n.connect(Port::output(mux, 0), Port::input(wrap, 0), 8).unwrap();
        n.connect(Port::output(wrap, 0), Port::input(encode, 0), 8).unwrap();
        n.connect(Port::output(encode, 0), Port::input(fork, 0), 8).unwrap();
        n.connect(Port::output(fork, 0), Port::input(state, 0), 8).unwrap();
        n.connect(Port::output(state, 0), Port::input(back, 0), 8).unwrap();
        n.connect(Port::output(back, 0), Port::input(mux, 2), 8).unwrap();
        n.connect(Port::output(fork, 1), Port::input(sink, 0), 8).unwrap();
        n.validate().unwrap();
        (n, mux, fork)
    }

    #[test]
    fn a_non_stallable_cone_gets_zero_isolation_buffers() {
        let (mut n, mux, fork) = fig7b_like_cone();
        let domain = retraction_domain(&n, mux).unwrap();
        assert!(domain.cone.contains(&fork), "the fork is inside the cone");
        assert!(domain.hazards.is_empty(), "one loop token against capacity 2 cannot stall");
        assert!(domain.is_safe());
        let before = n.node_count();
        let placed = place_isolation_buffers(&mut n, mux).unwrap();
        assert!(placed.is_empty());
        assert_eq!(n.node_count(), before, "the netlist must be untouched");
    }

    #[test]
    fn a_stallable_fork_cone_gets_exactly_one_buffer_at_the_fork() {
        let (mut n, mux, fork) = stallable_cone();
        let domain = retraction_domain(&n, mux).unwrap();
        assert_eq!(domain.hazards.len(), 1);
        assert_eq!(domain.hazards[0].fork, fork);
        assert_eq!(domain.hazards[0].stallable_branches, vec![1]);

        let placed = place_isolation_buffers(&mut n, mux).unwrap();
        assert_eq!(placed.len(), 1, "exactly one bubble, at the hazardous fork");
        n.validate().unwrap();
        // The bubble sits on the fork's input channel.
        let feeder = n.channel_into(Port::input(fork, 0)).unwrap().from.node;
        assert_eq!(feeder, placed[0]);
        // And the domain is now safe.
        assert!(retraction_domain(&n, mux).unwrap().is_safe());
    }

    #[test]
    fn persistent_inputs_make_any_cone_safe() {
        let (mut n, mux, _fork) = stallable_cone();
        let domain = retraction_domain(&n, mux).unwrap();
        assert!(!domain.inputs_persistent, "the `via` block makes data input 0 retractable");
        assert!(!domain.is_safe());
        // Buffer the combinational input: every mux input is now driven by a
        // persistent producer, the output can no longer retract, and the
        // (unchanged, stallable) cone stops mattering.
        let via_ch = n.channel_into(Port::input(mux, 1)).unwrap().id;
        crate::transform::insert_bubble(&mut n, via_ch).unwrap();
        n.validate().unwrap();
        let domain = retraction_domain(&n, mux).unwrap();
        assert!(domain.inputs_persistent);
        assert!(domain.is_safe());
        assert_eq!(domain.hazards.len(), 1, "the cone itself still contains the stallable fork");
        assert!(place_isolation_buffers(&mut n, mux).unwrap().is_empty());
    }

    #[test]
    fn the_analysis_rejects_non_mux_nodes() {
        let (n, _mux, fork) = stallable_cone();
        assert!(retraction_domain(&n, fork).is_err());
    }

    #[test]
    fn sequential_frontiers_cut_the_cone() {
        let mut n = Netlist::new("cut");
        let sel = n.add_source("sel", SourceSpec::always());
        let src0 = n.add_source("src0", SourceSpec::always());
        let src1 = n.add_source("src1", SourceSpec::always());
        let mux = n.add_mux("mux", MuxSpec::early(2));
        let eb = n.add_buffer("eb", BufferSpec::standard(0));
        let fork = n.add_fork("fork", ForkSpec::eager(2));
        let sink0 = n.add_sink("sink0", SinkSpec { backpressure: BackpressurePattern::Every(2) });
        let sink1 = n.add_sink("sink1", SinkSpec { backpressure: BackpressurePattern::Every(3) });
        n.connect(Port::output(sel, 0), Port::input(mux, 0), 1).unwrap();
        n.connect(Port::output(src0, 0), Port::input(mux, 1), 8).unwrap();
        n.connect(Port::output(src1, 0), Port::input(mux, 2), 8).unwrap();
        n.connect(Port::output(mux, 0), Port::input(eb, 0), 8).unwrap();
        n.connect(Port::output(eb, 0), Port::input(fork, 0), 8).unwrap();
        n.connect(Port::output(fork, 0), Port::input(sink0, 0), 8).unwrap();
        n.connect(Port::output(fork, 1), Port::input(sink1, 0), 8).unwrap();
        n.validate().unwrap();
        let domain = retraction_domain(&n, mux).unwrap();
        // The buffer cuts the wave before the (stallable) fork.
        assert!(domain.cone.is_empty());
        assert_eq!(domain.frontier, vec![(eb, FrontierClass::Buffer)]);
        assert!(domain.hazards.is_empty());
    }
}
