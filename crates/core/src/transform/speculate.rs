//! The composite speculation transformation (Section 4 of the paper).
//!
//! Speculation is introduced in four steps, each of which is itself a
//! correct-by-construction transformation:
//!
//! 1. find a critical cycle going from the output of a multiplexor back to
//!    its select input (when such a cycle exists, buffer insertion and
//!    retiming alone cannot improve performance — speculation is "the
//!    transformation of choice");
//! 2. apply Shannon decomposition to move the block after the multiplexor
//!    onto its data inputs;
//! 3. enable early evaluation on the multiplexor so anti-tokens cancel the
//!    data of the non-selected channel;
//! 4. share the duplicated logic behind a speculative shared module whose
//!    scheduler predicts the select outcome.
//!
//! Two soundness mechanisms complete the composition for arbitrary
//! (generator-produced) netlists, both motivated by differential-fuzzer
//! findings:
//!
//! * on **feed-forward** multiplexors ([`SpeculateOptions::allow_acyclic`])
//!   an **in-order commit stage** ([`crate::kind::CommitSpec`]) is placed
//!   between the shared module and the multiplexor: each user's speculative
//!   result parks in a killable lane with a *persistent* offer, so results
//!   commit per-lane in operand order, wrong-path results are squashed in
//!   place by the early mux's anti-tokens before anything downstream can
//!   observe them, and the module's output never retracts when the
//!   scheduler's prediction changes — under *any* scheduler;
//! * the **retraction-domain analysis**
//!   ([`crate::transform::retraction_domain`]) walks the combinational cone
//!   reachable from the multiplexor output and places an isolation bubble on
//!   the entry channel of every *stallable fork* the retraction wave could
//!   reach — the only consumers whose per-branch bookkeeping can commit a
//!   phantom token. Non-stallable cones (Figure 7(b)) and cones cut by a
//!   loop's elastic buffer (Figure 1(d)) receive no buffer, keeping the
//!   paper's cycle ratios intact.
//!
//! [`speculate`] performs all of the above; [`find_select_cycles`] exposes
//! the structural precondition check so analysis tooling can report *why*
//! speculation is (not) applicable.

use std::collections::{BTreeSet, HashSet};

use crate::error::{CoreError, Result};
use crate::id::{NodeId, Port};
use crate::kind::{BufferSpec, CommitSpec, SchedulerKind};
use crate::netlist::Netlist;
use crate::transform::{
    enable_early_evaluation, lazy_tainted_nodes, place_isolation_buffers, shannon_decompose,
    share_mux_inputs, ShareOptions,
};

/// Options controlling the composite [`speculate`] pass.
#[derive(Debug, Clone, PartialEq)]
pub struct SpeculateOptions {
    /// Scheduler policy installed in the shared module.
    pub scheduler: SchedulerKind,
    /// Recovery buffer inserted between the shared module and the
    /// multiplexor (`None` = direct connection as in Figure 1(d)).
    pub recovery_buffer: Option<BufferSpec>,
    /// Starvation override for the shared module controller.
    pub starvation_limit: Option<u32>,
    /// Apply speculation even when no cycle through the multiplexor select
    /// exists (useful for purely feed-forward pipelines such as the SECDED
    /// example, where the gain is pipeline depth rather than cycle ratio).
    pub allow_acyclic: bool,
    /// Insert an in-order commit stage ([`CommitSpec`]) between the shared
    /// module and the multiplexor when speculating a *feed-forward* mux
    /// (ignored on select loops, where the loop's own elastic buffer already
    /// decouples the speculation and an extra pipeline stage would halve the
    /// cycle ratio). The stage parks each user's speculative result in a
    /// killable lane with a persistent offer, so the shared module's output
    /// never retracts towards the multiplexor and the scheduler can never
    /// starve against consumer back-pressure. On by default; disable only
    /// for experiments on the raw (unsound for arbitrary consumers)
    /// composition.
    pub commit_stage: bool,
    /// Per-lane depth of the commit stage (how far the scheduler may run
    /// ahead of the resolution point).
    pub commit_depth: u32,
}

impl Default for SpeculateOptions {
    fn default() -> Self {
        SpeculateOptions {
            scheduler: SchedulerKind::default(),
            recovery_buffer: None,
            starvation_limit: Some(64),
            allow_acyclic: false,
            commit_stage: true,
            commit_depth: 1,
        }
    }
}

/// Outcome of a [`speculate`] call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpeculationReport {
    /// The multiplexor that now performs early evaluation over speculated data.
    pub mux: NodeId,
    /// The block that was retimed through the multiplexor and then shared.
    pub moved_block: NodeId,
    /// The speculative shared module.
    pub shared_module: NodeId,
    /// Recovery buffers inserted after the shared module (possibly empty).
    pub recovery_buffers: Vec<NodeId>,
    /// The cycles through the multiplexor select that justified speculation
    /// (each cycle is a list of node ids; empty only when
    /// [`SpeculateOptions::allow_acyclic`] was set).
    pub select_cycles: Vec<Vec<NodeId>>,
    /// The in-order commit stage inserted between the shared module and the
    /// multiplexor (`None` on select loops or when
    /// [`SpeculateOptions::commit_stage`] is off).
    pub commit_stage: Option<NodeId>,
    /// Isolation bubbles placed by the retraction-domain analysis
    /// ([`crate::transform::retraction_domain`]): one on the entry channel of
    /// each stallable fork the multiplexor's retraction cone can reach, and
    /// nothing anywhere else — empty whenever the cone cannot observe a
    /// phantom token (Figures 1(d) and 7(b) both qualify).
    pub isolation_buffers: Vec<NodeId>,
}

/// Inserts the in-order commit stage between the shared module's user
/// outputs and the multiplexor's data inputs: each channel that used to end
/// at `mux` data input `k` is redirected into lane `k` of a fresh
/// [`CommitSpec`] node whose lane output then drives the data input.
fn insert_commit_stage(
    netlist: &mut Netlist,
    mux: NodeId,
    users: usize,
    depth: u32,
) -> Result<NodeId> {
    let base_name = netlist.require_node(mux)?.name.clone();
    // Depth is range-checked by `speculate`'s preconditions before anything
    // rewires, so the spec can take it verbatim.
    let commit =
        netlist.add_commit(format!("{base_name}_commit"), CommitSpec { lanes: users, depth });
    for user in 0..users {
        let (channel, width) = netlist
            .channel_into(Port::input(mux, 1 + user))
            .map(|c| (c.id, c.width))
            .ok_or(CoreError::UnconnectedPort { node: mux, index: 1 + user, is_input: true })?;
        netlist.set_channel_target(channel, Port::input(commit, user))?;
        netlist.connect_named(
            format!("{base_name}_commit_out{user}"),
            Port::output(commit, user),
            Port::input(mux, 1 + user),
            width,
        )?;
    }
    Ok(commit)
}

/// Finds the cycles that start at the output of `mux` and return to its
/// select input.
///
/// These are the cycles speculation targets: the select computation sits on a
/// feedback loop with the multiplexor, so neither bubble insertion (it would
/// lower throughput) nor plain retiming (no registers to move inside the
/// cycle) helps. Each returned cycle lists the nodes visited, starting with
/// `mux`.
///
/// # Errors
///
/// Fails when `mux` does not exist or is not a multiplexor.
pub fn find_select_cycles(netlist: &Netlist, mux: NodeId) -> Result<Vec<Vec<NodeId>>> {
    let node = netlist.require_node(mux)?;
    if node.as_mux().is_none() {
        return Err(CoreError::Precondition {
            transform: "find_select_cycles",
            reason: format!("{mux} is a {} node, not a multiplexor", node.kind.kind_name()),
        });
    }
    // The driver of the select channel; a cycle exists when the select driver
    // is reachable from the multiplexor output.
    let select_driver = match netlist.channel_into(Port::input(mux, 0)) {
        Some(channel) => channel.from.node,
        None => return Ok(Vec::new()),
    };

    let mut cycles = Vec::new();
    let mut stack = vec![mux];
    let mut on_path: HashSet<NodeId> = HashSet::new();
    on_path.insert(mux);
    // Depth-first search bounded by the netlist size; netlists at this level
    // are tiny (tens of nodes), so the exponential worst case is irrelevant.
    fn dfs(
        netlist: &Netlist,
        current: NodeId,
        target: NodeId,
        mux: NodeId,
        stack: &mut Vec<NodeId>,
        on_path: &mut HashSet<NodeId>,
        cycles: &mut Vec<Vec<NodeId>>,
    ) {
        for next in netlist.successors(current) {
            if next == target {
                let mut cycle = stack.clone();
                cycle.push(target);
                cycles.push(cycle);
                continue;
            }
            if next == mux || on_path.contains(&next) {
                continue;
            }
            on_path.insert(next);
            stack.push(next);
            dfs(netlist, next, target, mux, stack, on_path, cycles);
            stack.pop();
            on_path.remove(&next);
        }
    }
    dfs(netlist, mux, select_driver, mux, &mut stack, &mut on_path, &mut cycles);
    Ok(cycles)
}

/// Applies the full speculation flow to `mux`.
///
/// See the module documentation for the four steps. The resulting design is
/// transfer-equivalent to the original for *any* scheduler satisfying the
/// leads-to property — the scheduler only affects performance, never
/// functionality (Section 4 of the paper; checked dynamically by
/// `elastic-verify`).
///
/// # Errors
///
/// Fails when the structural preconditions of any step do not hold, or when
/// no cycle through the multiplexor select exists and
/// [`SpeculateOptions::allow_acyclic`] is not set. The transformation is
/// **atomic**: on any error — including a late one, such as an isolation
/// buffer refused inside a lazy fork's rendezvous region — the netlist is
/// left exactly as it was.
///
/// # Example
///
/// Feed-forward speculation with a deeper commit stage. The
/// [`SpeculateOptions::commit_depth`] option sizes the killable result lanes
/// placed between the speculative shared module and the resolving
/// multiplexor: depth 4 lets the scheduler run up to four results ahead of
/// the resolution point before the lane back-pressures the shared module.
///
/// ```
/// use elastic_core::kind::{MuxSpec, SinkSpec, SourceSpec};
/// use elastic_core::op::opaque;
/// use elastic_core::transform::{speculate, SpeculateOptions};
/// use elastic_core::{Netlist, NodeKind, Port};
///
/// let mut n = Netlist::new("feedforward");
/// let sel = n.add_source("sel", SourceSpec::always());
/// let a = n.add_source("a", SourceSpec::always());
/// let b = n.add_source("b", SourceSpec::always());
/// let mux = n.add_mux("mux", MuxSpec::lazy(2));
/// let f = n.add_op("f", opaque("F", 6, 100));
/// let sink = n.add_sink("sink", SinkSpec::always_ready());
/// n.connect(Port::output(sel, 0), Port::input(mux, 0), 1)?;
/// n.connect(Port::output(a, 0), Port::input(mux, 1), 8)?;
/// n.connect(Port::output(b, 0), Port::input(mux, 2), 8)?;
/// n.connect(Port::output(mux, 0), Port::input(f, 0), 8)?;
/// n.connect(Port::output(f, 0), Port::input(sink, 0), 8)?;
///
/// let options = SpeculateOptions {
///     allow_acyclic: true, // no select cycle: a feed-forward pipeline
///     commit_depth: 4,
///     ..SpeculateOptions::default()
/// };
/// let report = speculate(&mut n, mux, &options)?;
///
/// // One commit lane per mux data input, each 4 entries deep.
/// let commit = report.commit_stage.expect("feed-forward speculation inserts the stage");
/// match &n.node(commit).unwrap().kind {
///     NodeKind::Commit(spec) => assert_eq!((spec.lanes, spec.depth), (2, 4)),
///     other => panic!("expected a commit stage, found {}", other.kind_name()),
/// }
/// # Ok::<(), elastic_core::CoreError>(())
/// ```
pub fn speculate(
    netlist: &mut Netlist,
    mux: NodeId,
    options: &SpeculateOptions,
) -> Result<SpeculationReport> {
    // Fail-fast preconditions run on the original (the common reject paths
    // across a fuzz run must not pay for a copy); only once the transform
    // will actually rewire does the work move to a scratch copy, so a
    // failure in any later step — several rewire before they can fail —
    // never leaves the caller's netlist half-speculated.
    let select_cycles = check_preconditions(netlist, mux, options)?;
    let mut working = netlist.clone();
    let report = speculate_in_place(&mut working, mux, select_cycles, options)?;
    *netlist = working;
    Ok(report)
}

/// The non-mutating precondition gauntlet of [`speculate`]; returns the
/// select cycles on success.
fn check_preconditions(
    netlist: &Netlist,
    mux: NodeId,
    options: &SpeculateOptions,
) -> Result<Vec<Vec<NodeId>>> {
    // The depth option must satisfy the same bounds `validate()` enforces on
    // the resulting `CommitSpec` — otherwise the transform could return `Ok`
    // with a netlist that no longer validates (depth too large), or silently
    // build a different stage than the caller asked for (depth 0).
    if options.commit_depth == 0 || options.commit_depth > crate::validate::MAX_COMMIT_DEPTH {
        return Err(CoreError::Precondition {
            transform: "speculate",
            reason: format!(
                "commit_depth {} is outside the supported range 1..={}",
                options.commit_depth,
                crate::validate::MAX_COMMIT_DEPTH
            ),
        });
    }

    let select_cycles = find_select_cycles(netlist, mux)?;
    if select_cycles.is_empty() && !options.allow_acyclic {
        return Err(CoreError::Precondition {
            transform: "speculate",
            reason: format!(
                "no cycle from the output of {mux} back to its select input; speculation targets \
                 select feedback loops (set allow_acyclic to force the transformation on \
                 feed-forward pipelines)"
            ),
        });
    }

    // A *narrowing* multiplexor — output channel narrower than one of its
    // data inputs — is a masking point: the selected token is truncated to
    // the output wire. Historically this was a refusal, because Shannon
    // decomposition moves the downstream block to the *input* side of that
    // truncation. Since the decomposition re-declares each re-targeted data
    // channel at the old mux-output width (see `shannon_decompose` step 2),
    // the producer masks the moved block's operand exactly as the removed
    // wire did, and narrowing muxes are legal speculation sites.

    // The shared module this transform is about to create stalls every
    // non-granted user, and its leads-to machinery (starvation counters,
    // scheduler feedback) only advances while the stalled operands stay
    // valid; the early mux additionally kills non-selected operands, which
    // changes *when* upstream fork branches complete. Both interactions are
    // sound in eager regions but compose fatally with a **lazy fork's**
    // rendezvous: a lazy fork withdraws tokens whenever any branch is
    // stopped, so operands cannot persist across a stall — and even an
    // eager fork between the mux and a lazy region couples the two through
    // its all-branches-delivered rule (an early kill on the mux side
    // re-times the lazy side's rendezvous and can wedge it). Refuse to
    // speculate when the mux's combinational upstream cone contains, or
    // feeds a fork branch into, a lazy fork's rendezvous region (found —
    // in three escalating shapes — by the elastic-gen differential fuzzer
    // once lazy forks entered the generation space).
    let tainted = lazy_tainted_nodes(netlist);
    let mut upstream: Vec<NodeId> =
        netlist.input_channels(mux).iter().map(|c| c.from.node).collect();
    // Node order, not hash order: the refusal names the first coupling node
    // it meets, and identical searches must name the same one.
    let mut cone: BTreeSet<NodeId> = BTreeSet::new();
    while let Some(node) = upstream.pop() {
        let combinational = netlist.node(node).is_some_and(|n| n.kind.is_combinational());
        if !combinational || !cone.insert(node) {
            continue;
        }
        upstream.extend(netlist.predecessors(node));
    }
    for &node in &cone {
        let couples_lazy = tainted.contains(&node)
            || (matches!(
                netlist.node(node).map(|n| &n.kind),
                Some(crate::kind::NodeKind::Fork(_))
            ) && netlist.successors(node).iter().any(|s| tainted.contains(s)));
        if couples_lazy {
            return Err(CoreError::Precondition {
                transform: "speculate",
                reason: format!(
                    "the combinational cone feeding {mux} touches a lazy fork's rendezvous \
                     region (via node {node}); the speculative shared module needs its operands \
                     to persist across stall cycles and its kills re-time upstream fork \
                     completion, neither of which a lazy rendezvous tolerates — make the fork \
                     eager or buffer the path first"
                ),
            });
        }
    }

    Ok(select_cycles)
}

fn speculate_in_place(
    netlist: &mut Netlist,
    mux: NodeId,
    select_cycles: Vec<Vec<NodeId>>,
    options: &SpeculateOptions,
) -> Result<SpeculationReport> {
    let shannon = shannon_decompose(netlist, mux)?;
    enable_early_evaluation(netlist, mux)?;
    let share = share_mux_inputs(
        netlist,
        mux,
        &ShareOptions {
            scheduler: options.scheduler.clone(),
            recovery_buffer: options.recovery_buffer,
            starvation_limit: options.starvation_limit,
            require_early_eval: true,
        },
    )?;

    // Feed-forward speculation: park each user's speculative result in an
    // in-order commit stage. Its lane offers are persistent (the shared
    // module's output no longer retracts towards the multiplexor when the
    // prediction changes) and killable in place (the early mux's anti-tokens
    // squash wrong-path results before anything downstream observes them),
    // and a computed result no longer needs the consumer to be ready on the
    // grant cycle — which is what let an adversarial static scheduler
    // starve a user against aligned sink back-pressure. On select loops the
    // stage is skipped: the loop's own elastic buffer already decouples the
    // speculation, and an extra pipeline stage would halve the cycle ratio.
    let users = netlist.require_node(mux)?.as_mux().map(|spec| spec.data_inputs).unwrap_or(2);
    let commit_stage = if select_cycles.is_empty() && options.commit_stage {
        Some(insert_commit_stage(netlist, mux, users, options.commit_depth)?)
    } else {
        None
    };

    // The speculative mux may still retract a stopped token (always, when
    // its data inputs come straight from the shared module; never, once the
    // commit stage or recovery buffers make them persistent). The
    // retraction-domain analysis walks the combinational cone from the mux
    // output and places an isolation bubble exactly where a stallable fork
    // could commit a phantom token — nothing anywhere else, so Figure 1(d)
    // (cone cut by the loop EB) and Figure 7(b) (cone cannot stall) stay
    // untouched while a cyclic design whose cone escapes into a stallable
    // fork pays exactly one bubble on the escape path.
    let isolation_buffers = place_isolation_buffers(netlist, mux)?;

    Ok(SpeculationReport {
        mux,
        moved_block: shannon.moved_block,
        shared_module: share.shared,
        recovery_buffers: share.recovery_buffers,
        select_cycles,
        commit_stage,
        isolation_buffers,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kind::{ForkSpec, MuxSpec, SinkSpec, SourceSpec};
    use crate::op::opaque;

    /// The Figure-1(a) loop:
    ///
    /// ```text
    /// src0 ─► mux ─► F ─► EB(1 token) ─► fork ─► sink
    /// src1 ─►  │                          │
    ///          └──────────── G ◄──────────┘
    /// ```
    fn fig1a_like() -> (Netlist, NodeId) {
        let mut n = Netlist::new("fig1a");
        let src0 = n.add_source("src0", SourceSpec::always());
        let src1 = n.add_source("src1", SourceSpec::always());
        let mux = n.add_mux("mux", MuxSpec::lazy(2));
        let f = n.add_op("f", opaque("F", 6, 100));
        let eb = n.add_buffer("eb", BufferSpec::standard(1));
        let fork = n.add_fork("fork", ForkSpec::eager(2));
        let g = n.add_op("g", opaque("G", 5, 80));
        let sink = n.add_sink("sink", SinkSpec::always_ready());
        n.connect(Port::output(src0, 0), Port::input(mux, 1), 8).unwrap();
        n.connect(Port::output(src1, 0), Port::input(mux, 2), 8).unwrap();
        n.connect(Port::output(mux, 0), Port::input(f, 0), 8).unwrap();
        n.connect(Port::output(f, 0), Port::input(eb, 0), 8).unwrap();
        n.connect(Port::output(eb, 0), Port::input(fork, 0), 8).unwrap();
        n.connect(Port::output(fork, 0), Port::input(g, 0), 8).unwrap();
        n.connect(Port::output(fork, 1), Port::input(sink, 0), 8).unwrap();
        n.connect(Port::output(g, 0), Port::input(mux, 0), 1).unwrap();
        n.validate().unwrap();
        (n, mux)
    }

    #[test]
    fn select_cycles_are_found_in_the_fig1_loop() {
        let (n, mux) = fig1a_like();
        let cycles = find_select_cycles(&n, mux).unwrap();
        assert_eq!(cycles.len(), 1);
        let cycle = &cycles[0];
        assert_eq!(cycle.first(), Some(&mux));
        let g = n.find_node("g").unwrap().id;
        assert_eq!(cycle.last(), Some(&g));
        assert!(cycle.contains(&n.find_node("eb").unwrap().id));
    }

    #[test]
    fn speculation_produces_the_fig1d_structure() {
        let (mut n, mux) = fig1a_like();
        let report = speculate(&mut n, mux, &SpeculateOptions::default()).unwrap();
        n.validate().unwrap();
        assert!(!report.select_cycles.is_empty());
        let histogram = n.kind_histogram();
        assert_eq!(histogram.get("shared"), Some(&1));
        assert_eq!(histogram.get("function"), Some(&1), "only G remains as a plain function");
        assert!(n.node(mux).unwrap().as_mux().unwrap().early_eval);
        // Each mux data input is fed by the shared module.
        for data_index in 0..2 {
            let driver = n.channel_into(Port::input(mux, 1 + data_index)).unwrap().from.node;
            assert_eq!(driver, report.shared_module);
        }
    }

    #[test]
    fn speculation_without_a_select_cycle_requires_opt_in() {
        let mut n = Netlist::new("feedforward");
        let sel = n.add_source("sel", SourceSpec::always());
        let src0 = n.add_source("src0", SourceSpec::always());
        let src1 = n.add_source("src1", SourceSpec::always());
        let mux = n.add_mux("mux", MuxSpec::lazy(2));
        let f = n.add_op("f", opaque("F", 6, 100));
        let sink = n.add_sink("sink", SinkSpec::always_ready());
        n.connect(Port::output(sel, 0), Port::input(mux, 0), 1).unwrap();
        n.connect(Port::output(src0, 0), Port::input(mux, 1), 8).unwrap();
        n.connect(Port::output(src1, 0), Port::input(mux, 2), 8).unwrap();
        n.connect(Port::output(mux, 0), Port::input(f, 0), 8).unwrap();
        n.connect(Port::output(f, 0), Port::input(sink, 0), 8).unwrap();

        let err = speculate(&mut n, mux, &SpeculateOptions::default()).unwrap_err();
        assert!(err.to_string().contains("no cycle"));

        let options = SpeculateOptions { allow_acyclic: true, ..SpeculateOptions::default() };
        let report = speculate(&mut n, mux, &options).unwrap();
        assert!(report.select_cycles.is_empty());
        n.validate().unwrap();
        // Feed-forward speculation routes the shared outputs through the
        // in-order commit stage…
        let commit = report.commit_stage.expect("acyclic speculation inserts the commit stage");
        for user in 0..2 {
            let driver = n.channel_into(Port::input(mux, 1 + user)).unwrap().from.node;
            assert_eq!(driver, commit);
            let feeder = n.channel_into(Port::input(commit, user)).unwrap().from.node;
            assert_eq!(feeder, report.shared_module);
        }
        // …whose persistent lanes make the whole cone retraction-free: no
        // isolation bubble anywhere.
        assert!(report.isolation_buffers.is_empty());
    }

    #[test]
    fn acyclic_speculation_without_the_commit_stage_isolates_stallable_forks() {
        use crate::kind::BackpressurePattern;

        // mux → F → fork → {ready sink, stalling sink}: without the commit
        // stage the mux can retract into the fork, so the analysis must place
        // exactly one bubble on the fork's entry.
        let mut n = Netlist::new("feedforward_fork");
        let sel = n.add_source("sel", SourceSpec::always());
        let src0 = n.add_source("src0", SourceSpec::always());
        let src1 = n.add_source("src1", SourceSpec::always());
        let mux = n.add_mux("mux", MuxSpec::lazy(2));
        let f = n.add_op("f", opaque("F", 6, 100));
        let fork = n.add_fork("fork", ForkSpec::eager(2));
        let sink0 = n.add_sink("sink0", SinkSpec::always_ready());
        let sink1 = n.add_sink("sink1", SinkSpec { backpressure: BackpressurePattern::Every(3) });
        n.connect(Port::output(sel, 0), Port::input(mux, 0), 1).unwrap();
        n.connect(Port::output(src0, 0), Port::input(mux, 1), 8).unwrap();
        n.connect(Port::output(src1, 0), Port::input(mux, 2), 8).unwrap();
        n.connect(Port::output(mux, 0), Port::input(f, 0), 8).unwrap();
        n.connect(Port::output(f, 0), Port::input(fork, 0), 8).unwrap();
        n.connect(Port::output(fork, 0), Port::input(sink0, 0), 8).unwrap();
        n.connect(Port::output(fork, 1), Port::input(sink1, 0), 8).unwrap();

        let options = SpeculateOptions {
            allow_acyclic: true,
            commit_stage: false,
            ..SpeculateOptions::default()
        };
        let report = speculate(&mut n, mux, &options).unwrap();
        n.validate().unwrap();
        assert!(report.commit_stage.is_none());
        assert_eq!(report.isolation_buffers.len(), 1);
        let feeder = n.channel_into(Port::input(fork, 0)).unwrap().from.node;
        assert_eq!(feeder, report.isolation_buffers[0]);
    }

    #[test]
    fn speculation_with_recovery_buffers_inserts_them() {
        let (mut n, mux) = fig1a_like();
        let options = SpeculateOptions {
            recovery_buffer: Some(BufferSpec::zero_backward(0)),
            ..SpeculateOptions::default()
        };
        let report = speculate(&mut n, mux, &options).unwrap();
        assert_eq!(report.recovery_buffers.len(), 2);
        n.validate().unwrap();
    }

    #[test]
    fn a_late_isolation_refusal_leaves_the_netlist_untouched() {
        use crate::kind::BackpressurePattern;
        use crate::transform::retraction_domain;

        // The mux's cone enters a lazy fork's rendezvous region through a
        // join (not through the fork itself), and the first hazardous fork
        // sits *inside* the region: placement wants a bubble on K→EF, the
        // rendezvous side condition refuses it, and speculate fails after
        // shannon/early-eval/share already ran — the caller's netlist must
        // come back bit-identical.
        let mut n = Netlist::new("late_refusal");
        let sel = n.add_source("sel", SourceSpec::always());
        let a = n.add_source("a", SourceSpec::always());
        let b = n.add_source("b", SourceSpec::always());
        let lsrc = n.add_source("lsrc", SourceSpec::always());
        let mux = n.add_mux("mux", MuxSpec::lazy(2));
        let f = n.add_op("f", opaque("F", 4, 60));
        let lazy = n.add_fork("lazy", ForkSpec::lazy(2));
        let k = n.add_function("k", crate::kind::FunctionSpec::with_inputs(crate::Op::Add, 2));
        let ef = n.add_fork("ef", ForkSpec::eager(2));
        let j2 = n.add_function("j2", crate::kind::FunctionSpec::with_inputs(crate::Op::Xor, 2));
        let sink_slow =
            n.add_sink("slow", SinkSpec { backpressure: BackpressurePattern::Every(3) });
        let sink_j2 = n.add_sink("out", SinkSpec::always_ready());
        n.connect(Port::output(sel, 0), Port::input(mux, 0), 1).unwrap();
        n.connect(Port::output(a, 0), Port::input(mux, 1), 8).unwrap();
        n.connect(Port::output(b, 0), Port::input(mux, 2), 8).unwrap();
        n.connect(Port::output(mux, 0), Port::input(f, 0), 8).unwrap();
        n.connect(Port::output(f, 0), Port::input(k, 0), 8).unwrap();
        n.connect(Port::output(lsrc, 0), Port::input(lazy, 0), 8).unwrap();
        n.connect(Port::output(lazy, 0), Port::input(k, 1), 8).unwrap();
        n.connect(Port::output(k, 0), Port::input(ef, 0), 8).unwrap();
        n.connect(Port::output(ef, 0), Port::input(j2, 0), 8).unwrap();
        n.connect(Port::output(lazy, 1), Port::input(j2, 1), 8).unwrap();
        n.connect(Port::output(ef, 1), Port::input(sink_slow, 0), 8).unwrap();
        n.connect(Port::output(j2, 0), Port::input(sink_j2, 0), 8).unwrap();
        n.validate().unwrap();
        let before = n.clone();

        let options = SpeculateOptions {
            allow_acyclic: true,
            commit_stage: false,
            ..SpeculateOptions::default()
        };
        let err = speculate(&mut n, mux, &options).unwrap_err();
        // The "rendezvous" refusal is emitted by insert_buffer_on_channel —
        // reachable only from the isolation placement, i.e. after shannon,
        // early-eval and share already rewired the scratch copy.
        assert!(err.to_string().contains("rendezvous"), "{err}");
        assert_eq!(n, before, "a failed speculation must not mutate the netlist");
        // Pre-transform the mux's inputs are persistent sources, so the
        // analysis on the untouched netlist is (correctly) quiet.
        assert!(retraction_domain(&n, mux).unwrap().is_safe());
    }

    #[test]
    fn out_of_range_commit_depths_are_rejected_up_front() {
        // Both ends of the range: depth 0 must not silently become 1, and a
        // depth `validate()` would reject must not survive the transform's
        // valid-in/valid-out contract. Either way the netlist is untouched.
        let (mut n, mux) = fig1a_like();
        let before = n.clone();
        for depth in [0, crate::validate::MAX_COMMIT_DEPTH + 1] {
            let options = SpeculateOptions {
                allow_acyclic: true,
                commit_depth: depth,
                ..SpeculateOptions::default()
            };
            let err = speculate(&mut n, mux, &options).unwrap_err();
            assert!(err.to_string().contains("commit_depth"), "{err}");
            assert_eq!(n, before);
        }
    }

    #[test]
    fn speculation_rejects_non_mux_nodes() {
        let (mut n, _mux) = fig1a_like();
        let f = n.find_node("f").unwrap().id;
        assert!(speculate(&mut n, f, &SpeculateOptions::default()).is_err());
        assert!(find_select_cycles(&n, f).is_err());
    }
}
