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

    /// Which branches complete their delivery this cycle, given the settled
    /// signals. A branch delivers when its (actually asserted) copy
    /// transfers, or when the copy is cancelled by a branch anti-token —
    /// judging by the driven `V+` matters for lazy forks, whose withheld
    /// branches must not be marked served.
    fn deliveries(&self, io: &NodeIo<'_>) -> Vec<bool> {
        let input = io.input(IN);
        (0..self.spec.outputs)
            .map(|branch| {
                if !input.forward_valid || !self.effective_pending(branch) {
                    return false;
                }
                let out = io.output(branch);
                let killed = out.backward_valid && !out.backward_stop;
                let transferred = out.forward_valid && !out.forward_stop;
                killed || transferred
            })
            .collect()
    }
}

impl EagerFork {
    fn eval_inner(&self, io: &mut NodeIo<'_>, optimistic: bool) {
        let input = io.input(IN);
        let outputs = self.spec.outputs;

        // Per-branch readiness, derived from the consumer-owned signals
        // *before* any producer-owned signal is driven: `eval` must write
        // each signal at most once per call, because the full-sweep engine's
        // convergence test counts every write — a transient
        // write-then-overwrite makes it oscillate forever on a settled state
        // (found by the elastic-gen differential fuzzer as a false
        // CombinationalLoop report on lazy forks). A branch whose copy is
        // being cancelled counts as ready; the kill is only accepted while
        // the branch holds a pending copy of a real token, which is exactly
        // `input.forward_valid` here.
        // Eager forks never consult readiness — compute it only for lazy
        // forks, allocation-free (this is the engine's hot path). A branch's
        // `others_ready` holds exactly when the not-ready set is empty or is
        // the branch itself.
        let (not_ready_count, not_ready_branch) = if self.spec.eager {
            (0usize, usize::MAX)
        } else {
            let mut count = 0usize;
            let mut last = usize::MAX;
            for branch in 0..outputs {
                let ready = !self.effective_pending(branch) || {
                    let out = io.output(branch);
                    !out.forward_stop || (out.backward_valid && input.forward_valid)
                };
                if !ready {
                    count += 1;
                    last = branch;
                }
            }
            (count, last)
        };
        let all_ready = not_ready_count == 0;

        // Offer the token to every branch that still needs it. A lazy fork
        // withholds a branch's copy while any *other* branch is not ready —
        // gating a branch on its own stop would give the settle equations a
        // second, deadlocked fixpoint (the branch waits for a stop that only
        // clears once the branch is valid), which is also the classical
        // combinational structure of a lazy fork.
        for branch in 0..outputs {
            let needs = input.forward_valid && self.effective_pending(branch);
            // The optimistic seeding pass offers every copy as if all
            // branches were ready, so reconverging consumers compute their
            // real stops instead of settling into the dead circular-wait
            // fixpoint; the honest pass re-evaluates with those stops.
            let others_ready =
                optimistic || all_ready || (not_ready_count == 1 && not_ready_branch == branch);
            io.set_output_valid(branch, needs && others_ready);
            io.set_output_data(branch, input.data);
            // A branch kill can only be absorbed while its copy is outstanding.
            io.set_output_anti_stop(branch, !needs);
        }

        // The input transfers when every branch has been (or is being) served.
        let deliveries = self.deliveries(io);
        let done = (0..outputs).all(|branch| !self.effective_pending(branch) || deliveries[branch]);
        let input_fires = input.forward_valid && done && (self.spec.eager || all_ready);
        io.set_input_stop(IN, !input_fires);
        io.set_input_kill(IN, false);
    }
}

impl Controller for EagerFork {
    fn eval(&self, io: &mut NodeIo<'_>) {
        self.eval_inner(io, false);
    }

    fn is_optimistic(&self) -> bool {
        !self.spec.eager
    }

    fn eval_optimistic(&self, io: &mut NodeIo<'_>) {
        self.eval_inner(io, true);
    }

    fn commit(&mut self, io: &NodeIo<'_>) {
        let input = io.input(IN);
        if !input.forward_valid {
            // Nothing in flight; reset the bookkeeping.
            self.serving = false;
            self.pending.iter_mut().for_each(|p| *p = true);
            return;
        }
        let deliveries = self.deliveries(io);
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
