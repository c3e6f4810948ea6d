//! SELF channel protocol properties (Section 3.1 of the paper).
//!
//! For every channel the following LTL properties must hold:
//!
//! * `Retry+`:  `G ((V+ ∧ S+) ⇒ X V+)` — a stopped token is held (persistence);
//! * `Retry-`:  `G ((V- ∧ S-) ⇒ X V-)` — a stopped anti-token is held;
//! * `Liveness`: `G F ((V+ ∧ ¬S+) ∨ (V- ∧ ¬S-))` — every channel eventually
//!   sees a transfer (checked on finite traces as "at least one transfer and
//!   no unbounded starvation window");
//! * `Invariant`: `G ¬(V- ∧ S+ ∧ V+ ∧ S-)` — a token cannot be killed and
//!   stopped at the same time.
//!
//! The checkers here are the trace driver of these properties: they walk the
//! finite traces recorded by `elastic-sim` one channel column at a time and
//! report every violation. The per-cycle rules themselves live once in
//! `rules.rs`, shared with the streaming [`crate::monitor::ProtocolMonitor`]
//! and with the lane judge of [`crate::exploration`].
//! The liveness property is interpreted over a configurable starvation
//! window, as usual when checking liveness on bounded executions.

use elastic_core::{Channel, ChannelId, Netlist, NodeId};
use elastic_sim::{ChannelState, Trace};

use crate::rules::{ChannelRule, ChannelRules};
use crate::Verdict;

/// One protocol violation found on a channel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtocolViolation {
    /// The channel on which the violation happened.
    pub channel: ChannelId,
    /// The cycle at which it was detected.
    pub cycle: usize,
    /// Which property was violated.
    pub property: &'static str,
}

/// Options for protocol checking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProtocolOptions {
    /// Number of consecutive cycles a channel may go without any forward or
    /// backward transfer before the bounded liveness check flags it —
    /// provided the channel was actively offering something during that
    /// window.
    pub starvation_window: usize,
    /// Skip the liveness check entirely (useful for very short traces).
    pub check_liveness: bool,
}

impl Default for ProtocolOptions {
    fn default() -> Self {
        ProtocolOptions { starvation_window: 64, check_liveness: true }
    }
}

/// Checks the four SELF properties on one channel history.
///
/// The history is consumed as a **stream** — one [`ChannelState`] per cycle,
/// oldest first — so callers can feed [`Trace::channel_iter`] straight in
/// without materialising a `Vec<ChannelState>`. Every cycle goes through the
/// channel rules [`crate::monitor::ProtocolMonitor`] applies too; this
/// driver collects every violation, with at most one `Liveness` per channel
/// (the first), appended last.
///
/// `require_forward_persistence` controls whether the `Retry+` check is
/// applied: the paper (Section 4.2) explicitly allows the output channels of
/// shared modules — and hence of the early-evaluation multiplexor they feed —
/// to be non-persistent, because the scheduler may change its prediction
/// after a retry; persistence at the module inputs and at downstream EB
/// outputs is what guarantees that no token is lost.
pub fn check_channel(
    channel: ChannelId,
    history: impl IntoIterator<Item = ChannelState>,
    options: &ProtocolOptions,
    require_forward_persistence: bool,
) -> Vec<ProtocolViolation> {
    let mut violations = Vec::new();
    let mut starvation = None;
    let mut rules = ChannelRules::default();
    for (cycle, state) in history.into_iter().enumerate() {
        rules.step(state.into(), options, require_forward_persistence, |rule, _| {
            let violation =
                ProtocolViolation { channel, cycle: cycle - rule.lag(), property: rule.property() };
            if rule == ChannelRule::Liveness {
                starvation.get_or_insert(violation);
            } else {
                violations.push(violation);
            }
        });
    }
    violations.extend(starvation);
    violations
}

/// Nodes whose driven `V+` may legally be retracted: the speculative
/// producers of Section 4.2 — shared modules and early-evaluation muxes
/// retract a stopped token when the prediction changes — plus lazy forks
/// (a branch's copy is withheld, and taken back, while any other branch is
/// not ready), **transitively closed over combinational consumers**: a
/// function block, mux or fork fed by a retracting producer derives its
/// valid from the retracting one and re-emits the retraction wave, so its
/// outputs inherit the exemption. Sequential nodes (buffers,
/// variable-latency units) and environments cut the cone — which is exactly
/// why the paper's designs park an elastic buffer behind every speculative
/// region (found by the elastic-gen fuzzer: retiming the isolating buffer
/// away from a shared module flagged spurious Retry+ violations one
/// function block downstream).
pub(crate) fn retraction_exempt_producers(netlist: &Netlist) -> std::collections::BTreeSet<NodeId> {
    use elastic_core::NodeKind;
    let mut exempt: std::collections::BTreeSet<NodeId> = netlist
        .live_nodes()
        .filter(|node| match &node.kind {
            NodeKind::Shared(_) => true,
            NodeKind::Mux(spec) => spec.early_eval,
            NodeKind::Fork(spec) => !spec.eager,
            _ => false,
        })
        .map(|node| node.id)
        .collect();
    let mut frontier: Vec<NodeId> = exempt.iter().copied().collect();
    while let Some(node) = frontier.pop() {
        for channel in netlist.output_channels(node) {
            let consumer = channel.to.node;
            if exempt.contains(&consumer) {
                continue;
            }
            let combinational = netlist.node(consumer).is_some_and(|n| {
                matches!(n.kind, NodeKind::Function(_) | NodeKind::Mux(_) | NodeKind::Fork(_))
            });
            if combinational {
                exempt.insert(consumer);
                frontier.push(consumer);
            }
        }
    }
    exempt
}

/// Checks the SELF properties on every channel of a recorded trace.
pub fn check_trace(netlist: &Netlist, trace: &Trace, options: &ProtocolOptions) -> Verdict {
    let mut verdict = Verdict::default();
    let exempt = retraction_exempt_producers(netlist);
    for channel in netlist.live_channels() {
        let producer_exempt = exempt.contains(&channel.from.node);
        for violation in
            check_channel(channel.id, trace.channel_iter(channel.id), options, !producer_exempt)
        {
            verdict.reject(channel_violation(channel, violation.property, violation.cycle));
        }
    }
    verdict
}

/// How [`check_trace`] and the exploration sweeps report a broken channel
/// rule.
pub(crate) fn channel_violation(channel: &Channel, property: &str, cycle: usize) -> String {
    format!("channel {} ({}) violates {property} at cycle {cycle}", channel.id, channel.name)
}

/// Simulates a netlist and checks the SELF properties on the resulting trace.
///
/// # Errors
///
/// Propagates simulation failures (combinational loops, unsupported nodes).
pub fn check_netlist_protocol(
    netlist: &Netlist,
    cycles: u64,
    options: &ProtocolOptions,
) -> Result<Verdict, elastic_sim::SimError> {
    let mut sim = elastic_sim::Simulation::new(netlist, &elastic_sim::SimConfig::default())?;
    sim.run(cycles)?;
    Ok(check_trace(netlist, sim.trace(), options))
}

#[cfg(test)]
mod tests {
    use super::*;
    use elastic_core::library::{fig1d, table1, Fig1Config};

    #[test]
    fn a_persistent_retry_sequence_passes() {
        let history = [
            ChannelState { forward_valid: true, forward_stop: true, ..ChannelState::default() },
            ChannelState { forward_valid: true, forward_stop: true, ..ChannelState::default() },
            ChannelState { forward_valid: true, ..ChannelState::default() },
        ];
        assert!(check_channel(
            ChannelId::new(0),
            history.iter().copied(),
            &ProtocolOptions::default(),
            true
        )
        .is_empty());
    }

    #[test]
    fn dropping_a_stopped_token_violates_retry_plus() {
        let history = [
            ChannelState { forward_valid: true, forward_stop: true, ..ChannelState::default() },
            ChannelState::default(),
        ];
        let violations = check_channel(
            ChannelId::new(0),
            history.iter().copied(),
            &ProtocolOptions::default(),
            true,
        );
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].property, "Retry+");
    }

    #[test]
    fn dropping_a_stopped_anti_token_violates_retry_minus() {
        let history = [
            ChannelState { backward_valid: true, backward_stop: true, ..ChannelState::default() },
            ChannelState::default(),
        ];
        let violations = check_channel(
            ChannelId::new(0),
            history.iter().copied(),
            &ProtocolOptions::default(),
            true,
        );
        assert_eq!(violations[0].property, "Retry-");
    }

    #[test]
    fn an_anti_token_discharged_by_an_arriving_token_is_legal() {
        // The consumer owes an anti-token that its producer cannot absorb
        // (S- held), but a token transfers forward in the same cycle: the
        // two cancel at the consumer boundary and the anti-token may
        // disappear without a backward transfer.
        let history = [
            ChannelState {
                forward_valid: true,
                backward_valid: true,
                backward_stop: true,
                ..ChannelState::default()
            },
            ChannelState::default(),
        ];
        let violations = check_channel(
            ChannelId::new(0),
            history.iter().copied(),
            &ProtocolOptions::default(),
            true,
        );
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn kill_and_stop_at_the_same_time_violates_the_invariant() {
        let history = [ChannelState {
            forward_valid: true,
            forward_stop: true,
            backward_valid: true,
            backward_stop: true,
            data: 0,
        }];
        let violations = check_channel(
            ChannelId::new(0),
            history.iter().copied(),
            &ProtocolOptions::default(),
            true,
        );
        assert_eq!(violations[0].property, "Invariant");
    }

    #[test]
    fn starvation_beyond_the_window_violates_liveness() {
        let mut history =
            vec![
                ChannelState { forward_valid: true, forward_stop: true, ..ChannelState::default() };
                80
            ];
        // No transfer ever happens.
        let options = ProtocolOptions { starvation_window: 16, check_liveness: true };
        let violations = check_channel(ChannelId::new(0), history.iter().copied(), &options, true);
        assert!(violations.iter().any(|v| v.property == "Liveness"));
        // Transfers inside the window reset the counter.
        for cycle in [10, 22, 34, 46, 58, 70] {
            history[cycle].forward_stop = false;
        }
        let violations = check_channel(ChannelId::new(0), history.iter().copied(), &options, true);
        assert!(violations.iter().all(|v| v.property != "Liveness"));
    }

    #[test]
    fn the_speculative_fig1_design_respects_the_protocol() {
        let handles = fig1d(&Fig1Config::default());
        let verdict =
            check_netlist_protocol(&handles.netlist, 200, &ProtocolOptions::default()).unwrap();
        assert!(verdict.passed(), "{verdict}");
    }

    #[test]
    fn the_table1_design_respects_the_protocol() {
        let handles = table1();
        let verdict = check_netlist_protocol(
            &handles.netlist,
            16,
            &ProtocolOptions { check_liveness: false, ..ProtocolOptions::default() },
        )
        .unwrap();
        assert!(verdict.passed(), "{verdict}");
    }
}
