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
//!
//! The fork is generic over the rail word: `bool` simulates one scenario,
//! `u64` 64 lanes.

use elastic_core::ForkSpec;

use crate::controller::{Controller, Groups, Reads};
use crate::handshake::{fork_backward, fork_delivered, fork_forward, HandshakeIo, Rail};

const IN: usize = 0;

/// Controller for a token-replicating fork, per lane of the rail word `R`.
#[derive(Debug)]
pub struct EagerFork<R: Rail> {
    spec: ForkSpec,
    /// Per branch, the lanes in which the branch still needs the current
    /// token (meaningful only in the `serving` lanes).
    pending: Vec<R>,
    /// The lanes in which a token is being served.
    serving: R,
}

impl<R: Rail> EagerFork<R> {
    /// Creates the controller.
    pub fn new(spec: ForkSpec) -> Self {
        EagerFork { pending: vec![R::HIGH; spec.outputs], serving: R::LOW, spec }
    }

    /// The lanes in which branch `branch` still needs its copy this cycle.
    fn pending(&self, branch: usize) -> R {
        !self.serving | self.pending[branch]
    }
}

impl<R: Rail> Controller<R> for EagerFork<R> {
    fn forward(&self, io: &mut R::Io<'_>) {
        fork_forward(io, self.spec.eager, false, |branch| self.pending(branch));
    }

    fn backward(&self, io: &mut R::Io<'_>) {
        fork_backward(io, self.spec.eager, |branch| self.pending(branch));
    }

    /// A lazy fork's forward half gates each branch on its siblings'
    /// readiness; the backward half judges every branch's delivery on the
    /// copies the forward half offered.
    fn reads(&self) -> Reads {
        let readiness = if self.spec.eager { Groups::NONE } else { Groups::OUTPUT_BACKWARD };
        Reads {
            forward: Groups::INPUT_FORWARD | readiness,
            backward: Groups::INPUT_FORWARD | Groups::OUTPUT_FORWARD | Groups::OUTPUT_BACKWARD,
        }
    }

    /// The optimistic seeding pass offers every copy as if all branches
    /// were ready.
    fn eval(&self, io: &mut R::Io<'_>, optimistic: bool) {
        fork_forward(io, self.spec.eager, optimistic, |branch| self.pending(branch));
        self.backward(io);
    }

    fn is_optimistic(&self) -> bool {
        !self.spec.eager
    }

    fn commit(&mut self, io: &R::Io<'_>) {
        // A branch delivers when its (actually asserted) copy transfers or
        // is cancelled — judging by the driven `V+` matters for lazy forks,
        // whose withheld branches must not be marked served.
        let valid = io.input_valid(IN);
        let delivered =
            |fork: &Self, branch| fork_delivered(io, valid, fork.pending(branch), branch);
        let done = (0..self.spec.outputs)
            .fold(R::HIGH, |done, branch| done & (!self.pending(branch) | delivered(self, branch)));
        let complete = valid & done & !io.input_stop(IN);
        // Lanes still serving remember which branches have been served;
        // every other lane starts its next token with all branches pending.
        let holding = valid & !complete;
        for branch in 0..self.spec.outputs {
            let still_pending = self.pending(branch) & !delivered(self, branch);
            self.pending[branch] = !holding | still_pending;
        }
        self.serving = holding;
    }

    fn reset(&mut self) {
        self.pending.fill(R::HIGH);
        self.serving = R::LOW;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::{Controller, NodeIo};
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
        let fork = EagerFork::<bool>::new(ForkSpec::eager(2));
        let mut channels = vec![ChannelState::default(); 3];
        let inputs = [0usize];
        let outputs = [1usize, 2];
        channels[0].forward_valid = true;
        channels[0].data = 9;
        fork.eval(&mut io(&mut channels, &inputs, &outputs), false);
        assert!(channels[1].forward_valid && channels[2].forward_valid);
        assert_eq!(channels[1].data, 9);
        assert_eq!(channels[2].data, 9);
        assert!(!channels[0].forward_stop, "both branches ready: the input fires");
    }

    #[test]
    fn eager_fork_delivers_branches_independently() {
        let mut fork = EagerFork::<bool>::new(ForkSpec::eager(2));
        let mut channels = vec![ChannelState::default(); 3];
        let inputs = [0usize];
        let outputs = [1usize, 2];
        channels[0].forward_valid = true;
        channels[0].data = 5;
        channels[2].forward_stop = true; // branch 1 is blocked
        fork.eval(&mut io(&mut channels, &inputs, &outputs), false);
        assert!(channels[0].forward_stop, "the input waits for the blocked branch");
        assert!(channels[1].forward_valid);
        fork.commit(&io(&mut channels, &inputs, &outputs));

        // Next cycle branch 0 must not receive the token again.
        fork.eval(&mut io(&mut channels, &inputs, &outputs), false);
        assert!(!channels[1].forward_valid, "branch 0 already has its copy");
        assert!(channels[2].forward_valid);
        // Unblock branch 1: the input can now complete.
        channels[2].forward_stop = false;
        fork.eval(&mut io(&mut channels, &inputs, &outputs), false);
        assert!(!channels[0].forward_stop);
    }

    #[test]
    fn branch_kills_count_as_deliveries() {
        let fork = EagerFork::<bool>::new(ForkSpec::eager(2));
        let mut channels = vec![ChannelState::default(); 3];
        let inputs = [0usize];
        let outputs = [1usize, 2];
        channels[0].forward_valid = true;
        channels[1].forward_stop = true;
        channels[1].backward_valid = true; // branch 0's copy is cancelled
        fork.eval(&mut io(&mut channels, &inputs, &outputs), false);
        assert!(!channels[1].backward_stop, "the kill is absorbed against the in-flight copy");
        assert!(!channels[0].forward_stop, "kill + delivery completes the input transfer");
    }

    #[test]
    fn kills_without_a_token_are_stopped() {
        let fork = EagerFork::<bool>::new(ForkSpec::eager(2));
        let mut channels = vec![ChannelState::default(); 3];
        let inputs = [0usize];
        let outputs = [1usize, 2];
        channels[1].backward_valid = true;
        fork.eval(&mut io(&mut channels, &inputs, &outputs), false);
        assert!(channels[1].backward_stop);
    }

    #[test]
    fn lazy_fork_waits_for_all_branches() {
        let fork = EagerFork::<bool>::new(ForkSpec::lazy(2));
        let mut channels = vec![ChannelState::default(); 3];
        let inputs = [0usize];
        let outputs = [1usize, 2];
        channels[0].forward_valid = true;
        channels[2].forward_stop = true;
        fork.eval(&mut io(&mut channels, &inputs, &outputs), false);
        assert!(!channels[1].forward_valid, "a lazy fork withholds all copies until all are ready");
        assert!(channels[0].forward_stop);
    }
}
