//! Eager fork controller.
//!
//! An eager fork replicates each input token to every output branch. Each
//! branch receives its copy as soon as it is ready; the input token is
//! consumed once *all* branches have received (or had their copy cancelled by
//! an anti-token). A lazy fork is the degenerate configuration in which
//! delivery only happens when every branch is simultaneously ready.
//!
//! Anti-tokens arriving on a branch cancel that branch's copy of the current
//! input token; anti-tokens arriving when no input token is present are
//! stopped (this fork does not implement counterflow storage — recovery
//! paths that need it place an elastic buffer behind the fork, as the paper's
//! designs do).

use elastic_core::ForkSpec;

use crate::controller::{Controller, NodeIo, NodeReport, NodeStats};
use crate::handshake::{fork_backward, fork_delivered, fork_forward};

const IN: usize = 0;

/// Controller for a token-replicating fork.
#[derive(Debug)]
pub struct EagerFork {
    spec: ForkSpec,
    /// `pending[i]` is true while branch `i` still needs the current token.
    pending: Vec<bool>,
    /// Whether a token is currently being served (i.e. `pending` is meaningful).
    serving: bool,
    stats: NodeStats,
}

impl EagerFork {
    /// Creates the controller.
    pub fn new(spec: ForkSpec) -> Self {
        let outputs = spec.outputs;
        EagerFork {
            spec,
            pending: vec![true; outputs],
            serving: false,
            stats: NodeStats::default(),
        }
    }

    fn effective_pending(&self, branch: usize) -> bool {
        if self.serving {
            self.pending[branch]
        } else {
            true
        }
    }

    /// Bitmask of the per-branch effective pending state for the first 64
    /// branches:
    /// bit `b` is set when branch `b` still needs its copy this cycle. The
    /// compiled settle backend snapshots this once per cycle (it is pure
    /// sequential state) and replays the eager-fork equations against it.
    pub fn pending_mask(&self) -> u64 {
        let mut mask = 0u64;
        for branch in 0..self.spec.outputs.min(64) {
            if self.effective_pending(branch) {
                mask |= 1u64 << branch;
            }
        }
        mask
    }

    /// The forward equation on this fork's pending branches — one planned
    /// op of the compiled plan (codegen calls it per op).
    pub fn forward(&self, io: &mut NodeIo<'_>) {
        fork_forward(io, self.spec.eager, false, |branch| self.effective_pending(branch));
    }

    /// The backward equation on this fork's pending branches.
    pub fn backward(&self, io: &mut NodeIo<'_>) {
        fork_backward(io, self.spec.eager, |branch| self.effective_pending(branch));
    }
}

impl Controller for EagerFork {
    fn eval(&self, io: &mut NodeIo<'_>) {
        self.forward(io);
        self.backward(io);
    }

    fn is_optimistic(&self) -> bool {
        !self.spec.eager
    }

    fn eval_optimistic(&self, io: &mut NodeIo<'_>) {
        fork_forward(io, self.spec.eager, true, |branch| self.effective_pending(branch));
        self.backward(io);
    }

    fn commit(&mut self, io: &NodeIo<'_>) {
        let input = io.input(IN);
        if !input.forward_valid {
            // Nothing in flight; reset the bookkeeping.
            self.serving = false;
            self.pending.iter_mut().for_each(|p| *p = true);
            return;
        }
        // A branch delivers when its (actually asserted) copy transfers or
        // is cancelled — judging by the driven `V+` matters for lazy forks,
        // whose withheld branches must not be marked served.
        let deliveries: Vec<bool> = (0..self.spec.outputs)
            .map(|branch| fork_delivered(io, true, self.effective_pending(branch), branch))
            .collect();
        let done = (0..self.spec.outputs)
            .all(|branch| !self.effective_pending(branch) || deliveries[branch]);
        let input_fired = !input.forward_stop;
        if done && input_fired {
            self.serving = false;
            self.pending.iter_mut().for_each(|p| *p = true);
            self.stats.output_transfers += 1;
        } else {
            // Remember which branches have already been served.
            if !self.serving {
                self.serving = true;
                self.pending.iter_mut().for_each(|p| *p = true);
            }
            for (branch, delivered) in deliveries.iter().enumerate() {
                if *delivered {
                    self.pending[branch] = false;
                }
            }
            self.stats.stall_cycles += 1;
        }
        for branch in 0..self.spec.outputs {
            let out = io.output(branch);
            if out.backward_transfer() {
                self.stats.killed_tokens += 1;
            }
        }
    }

    fn report(&self) -> NodeReport<'_> {
        NodeReport::Basic(self.stats)
    }

    fn reset(&mut self) {
        self.pending.iter_mut().for_each(|p| *p = true);
        self.serving = false;
        self.stats = NodeStats::default();
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signal::ChannelState;

    fn io<'a>(
        channels: &'a mut [ChannelState],
        inputs: &'a [usize],
        outputs: &'a [usize],
    ) -> NodeIo<'a> {
        NodeIo::new(channels, inputs, outputs)
    }

    #[test]
    fn replicates_tokens_to_all_branches() {
        let fork = EagerFork::new(ForkSpec::eager(2));
        let mut channels = vec![ChannelState::default(); 3];
        let inputs = [0usize];
        let outputs = [1usize, 2];
        channels[0].forward_valid = true;
        channels[0].data = 9;
        fork.eval(&mut io(&mut channels, &inputs, &outputs));
        assert!(channels[1].forward_valid && channels[2].forward_valid);
        assert_eq!(channels[1].data, 9);
        assert_eq!(channels[2].data, 9);
        assert!(!channels[0].forward_stop, "both branches ready: the input fires");
    }

    #[test]
    fn eager_fork_delivers_branches_independently() {
        let mut fork = EagerFork::new(ForkSpec::eager(2));
        let mut channels = vec![ChannelState::default(); 3];
        let inputs = [0usize];
        let outputs = [1usize, 2];
        channels[0].forward_valid = true;
        channels[0].data = 5;
        channels[2].forward_stop = true; // branch 1 is blocked
        fork.eval(&mut io(&mut channels, &inputs, &outputs));
        assert!(channels[0].forward_stop, "the input waits for the blocked branch");
        assert!(channels[1].forward_valid);
        fork.commit(&io(&mut channels, &inputs, &outputs));

        // Next cycle branch 0 must not receive the token again.
        fork.eval(&mut io(&mut channels, &inputs, &outputs));
        assert!(!channels[1].forward_valid, "branch 0 already has its copy");
        assert!(channels[2].forward_valid);
        // Unblock branch 1: the input can now complete.
        channels[2].forward_stop = false;
        fork.eval(&mut io(&mut channels, &inputs, &outputs));
        assert!(!channels[0].forward_stop);
    }

    #[test]
    fn branch_kills_count_as_deliveries() {
        let fork = EagerFork::new(ForkSpec::eager(2));
        let mut channels = vec![ChannelState::default(); 3];
        let inputs = [0usize];
        let outputs = [1usize, 2];
        channels[0].forward_valid = true;
        channels[1].forward_stop = true;
        channels[1].backward_valid = true; // branch 0's copy is cancelled
        fork.eval(&mut io(&mut channels, &inputs, &outputs));
        assert!(!channels[1].backward_stop, "the kill is absorbed against the in-flight copy");
        assert!(!channels[0].forward_stop, "kill + delivery completes the input transfer");
    }

    #[test]
    fn kills_without_a_token_are_stopped() {
        let fork = EagerFork::new(ForkSpec::eager(2));
        let mut channels = vec![ChannelState::default(); 3];
        let inputs = [0usize];
        let outputs = [1usize, 2];
        channels[1].backward_valid = true;
        fork.eval(&mut io(&mut channels, &inputs, &outputs));
        assert!(channels[1].backward_stop);
    }

    #[test]
    fn lazy_fork_waits_for_all_branches() {
        let fork = EagerFork::new(ForkSpec::lazy(2));
        let mut channels = vec![ChannelState::default(); 3];
        let inputs = [0usize];
        let outputs = [1usize, 2];
        channels[0].forward_valid = true;
        channels[2].forward_stop = true;
        fork.eval(&mut io(&mut channels, &inputs, &outputs));
        assert!(!channels[1].forward_valid, "a lazy fork withholds all copies until all are ready");
        assert!(channels[0].forward_stop);
    }
}
