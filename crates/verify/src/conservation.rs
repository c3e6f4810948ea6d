//! Token conservation through speculative shared modules.
//!
//! The paper proves (by refinement checking with SMV) that a shared module
//! composed with an EB refines the EB specification: tokens are neither lost
//! nor reordered, for any scheduler satisfying the leads-to property. The
//! observable content of that proof is checked here dynamically: for every
//! user channel of every shared module, the sequence of tokens *offered* by
//! the producer equals the sequence of tokens that were either transferred
//! through the module or cancelled by anti-tokens — in the same order, with
//! nothing lost and nothing duplicated.

use elastic_core::{Netlist, NodeKind, Port};
use elastic_sim::{SimConfig, SimError, Simulation, Trace};

use crate::Verdict;

/// Per-channel conservation ledger: what was offered vs. what was consumed.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ChannelLedger {
    /// Values that completed a forward transfer, in order.
    pub transferred: Vec<u64>,
    /// Number of tokens cancelled by anti-tokens (their values are not
    /// required to be observable — the paper's anti-tokens carry no data).
    pub cancelled: usize,
    /// Number of cycles the channel spent in Retry (offered but stopped).
    pub retry_cycles: usize,
}

/// Extracts the conservation ledger of one channel from a trace.
///
/// An anti-token delivery counts as a cancellation whether or not a token was
/// simultaneously present on the channel (the cancellation then happens at
/// the producer); a forward transfer is only counted when no anti-token was
/// delivered in the same cycle.
pub fn channel_ledger(trace: &Trace, channel: elastic_core::ChannelId) -> ChannelLedger {
    let mut ledger = ChannelLedger::default();
    for state in trace.channel_iter(channel) {
        if state.backward_transfer() {
            ledger.cancelled += 1;
        } else if state.forward_transfer() {
            ledger.transferred.push(state.data);
        } else if state.forward_retry() {
            ledger.retry_cycles += 1;
        }
    }
    ledger
}

/// `true` when `needle` is a subsequence of `haystack` (order preserved),
/// comparing values masked to `width` bits.
///
/// The mask matters because the two ledgers live on *different channels*:
/// the shared module masks its result to its output channel's width, so a
/// 17-bit operand stream delivered through a 5-bit output wraps modulo 32 —
/// comparing raw values would flag a wrap as a reorder (a width artifact the
/// elastic-gen fuzzer hit on every feed-forward speculation whose moved
/// block narrowed the data path).
fn is_masked_subsequence(needle: &[u64], haystack: &[u64], width: u8) -> bool {
    let mask = if width >= 64 { u64::MAX } else { (1u64 << width) - 1 };
    let mut position = 0usize;
    for value in haystack {
        if position == needle.len() {
            break;
        }
        if value & mask == needle[position] & mask {
            position += 1;
        }
    }
    position == needle.len()
}

/// Checks token conservation around every shared module of a design.
///
/// The check runs the design, then verifies that on every shared-module input
/// channel the number of consumed tokens (transfers plus cancellations)
/// matches what the corresponding output channel accounted for, and that the
/// transferred values appear downstream in the same order they were offered
/// upstream (no reordering).
///
/// # Errors
///
/// Propagates simulation failures.
pub fn check_shared_module_conservation(
    netlist: &Netlist,
    cycles: u64,
) -> Result<Verdict, SimError> {
    let mut sim = Simulation::new(netlist, &SimConfig::default())?;
    sim.run(cycles)?;
    Ok(conservation_on_trace(netlist, sim.trace()))
}

/// [`check_shared_module_conservation`] on a recorded trace.
pub(crate) fn conservation_on_trace(netlist: &Netlist, trace: &Trace) -> Verdict {
    let mut verdict = Verdict::default();
    for node in netlist.live_nodes() {
        let NodeKind::Shared(spec) = &node.kind else { continue };
        for user in 0..spec.users {
            // Compare the user's first operand channel with its output channel.
            let input_port = Port::input(node.id, user * spec.inputs_per_user);
            let output_port = Port::output(node.id, user);
            let (Some(input), Some(output)) =
                (netlist.channel_into(input_port), netlist.channel_from(output_port))
            else {
                continue;
            };
            let input_ledger = channel_ledger(trace, input.id);
            let output_ledger = channel_ledger(trace, output.id);

            // Every token consumed at the input (used or annihilated in place)
            // must show up at the output side as either a delivered result or
            // an anti-token cancellation — allowing one in-flight decision at
            // the end of the run.
            let consumed = input_ledger.transferred.len() + input_ledger.cancelled;
            let accounted = output_ledger.transferred.len() + output_ledger.cancelled;
            if consumed > accounted + 1 {
                verdict.reject(format!(
                    "shared module {} user {user}: {consumed} tokens entered but only \
                     {accounted} were delivered or cancelled (tokens lost)",
                    node.name
                ));
            }
            if accounted > consumed + 1 {
                verdict.reject(format!(
                    "shared module {} user {user}: {accounted} results left the module but only \
                     {consumed} tokens entered (tokens duplicated)",
                    node.name
                ));
            }
            // Order preservation: when the shared operation is a pure
            // pass-through (identity/opaque), the delivered results must be a
            // subsequence of the values consumed at the input (the missing
            // ones are exactly the tokens whose results were cancelled),
            // under the output channel's width mask — the module masks its
            // result at the producer like every other data entry point.
            if spec.op.is_identity_like()
                && spec.inputs_per_user == 1
                && !is_masked_subsequence(
                    &output_ledger.transferred,
                    &input_ledger.transferred,
                    output.width,
                )
            {
                verdict.reject(format!(
                    "shared module {} user {user}: results were reordered",
                    node.name
                ));
            }
        }
    }
    verdict
}

#[cfg(test)]
mod tests {
    use super::*;
    use elastic_core::library::{fig1d, table1, Fig1Config};
    use elastic_core::SchedulerKind;

    #[test]
    fn speculation_conserves_tokens_in_the_fig1_loop() {
        for scheduler in [
            SchedulerKind::LastTaken,
            SchedulerKind::Static(0),
            SchedulerKind::RoundRobin,
            SchedulerKind::TwoBit,
        ] {
            let handles =
                fig1d(&Fig1Config { scheduler: scheduler.clone(), ..Fig1Config::default() });
            let verdict = check_shared_module_conservation(&handles.netlist, 300).unwrap();
            assert!(verdict.passed(), "scheduler {scheduler:?}: {verdict}");
        }
    }

    #[test]
    fn the_table1_module_conserves_tokens() {
        let handles = table1();
        let verdict = check_shared_module_conservation(&handles.netlist, 10).unwrap();
        assert!(verdict.passed(), "{verdict}");
    }

    #[test]
    fn narrowing_output_channels_do_not_flag_reordering() {
        // 17-bit operand streams through a pass-through shared module onto
        // 5-bit output channels: the results wrap modulo 32 at the producer
        // mask, which the order check must compare under — not flag as a
        // reorder once the counters pass 31.
        use elastic_core::kind::{BufferSpec, SharedSpec, SinkSpec, SourceSpec};
        use elastic_core::op::opaque;
        let mut n = elastic_core::Netlist::new("narrow");
        let src0 = n.add_source("src0", SourceSpec::always());
        let src1 = n.add_source("src1", SourceSpec::always());
        let shared = n.add_shared("sh", SharedSpec::new(2, opaque("F", 4, 50)));
        let eb0 = n.add_buffer("eb0", BufferSpec::standard(0));
        let eb1 = n.add_buffer("eb1", BufferSpec::standard(0));
        let sink0 = n.add_sink("sink0", elastic_core::SinkSpec::always_ready());
        let sink1 = n.add_sink("sink1", SinkSpec::always_ready());
        n.connect(Port::output(src0, 0), Port::input(shared, 0), 17).unwrap();
        n.connect(Port::output(src1, 0), Port::input(shared, 1), 17).unwrap();
        n.connect(Port::output(shared, 0), Port::input(eb0, 0), 5).unwrap();
        n.connect(Port::output(shared, 1), Port::input(eb1, 0), 5).unwrap();
        n.connect(Port::output(eb0, 0), Port::input(sink0, 0), 5).unwrap();
        n.connect(Port::output(eb1, 0), Port::input(sink1, 0), 5).unwrap();
        n.validate().unwrap();
        let verdict = check_shared_module_conservation(&n, 160).unwrap();
        assert!(verdict.passed(), "{verdict}");
    }

    #[test]
    fn ledgers_classify_transfers_cancellations_and_retries() {
        use elastic_sim::ChannelState;
        let mut n = elastic_core::Netlist::new("t");
        let src = n.add_source("src", elastic_core::SourceSpec::always());
        let sink = n.add_sink("sink", elastic_core::SinkSpec::always_ready());
        let ch = n.connect(Port::output(src, 0), Port::input(sink, 0), 8).unwrap();
        let mut trace = elastic_sim::Trace::new(&n);
        trace.record(&[ChannelState { forward_valid: true, data: 1, ..ChannelState::default() }]);
        trace.record(&[ChannelState {
            forward_valid: true,
            forward_stop: true,
            ..ChannelState::default()
        }]);
        trace.record(&[ChannelState {
            forward_valid: true,
            backward_valid: true,
            ..ChannelState::default()
        }]);
        let ledger = channel_ledger(&trace, ch);
        assert_eq!(ledger.transferred, vec![1]);
        assert_eq!(ledger.retry_cycles, 1);
        assert_eq!(ledger.cancelled, 1);
    }
}
