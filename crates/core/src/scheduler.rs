//! Abstract scheduler interface for speculative shared modules.
//!
//! A scheduler predicts, at every clock cycle, which user channel may use the
//! shared resource (Section 4.1.1 of the paper). The prediction is a
//! registered value: the decision visible during cycle `t` was computed from
//! information available up to the end of cycle `t - 1`. For correctness a
//! scheduler must detect and correct all mispredictions and must not starve
//! any channel — formalised as the *leads-to* property
//! `G (V+_in_i  =>  F (V-_out_i  \/  (sel = i /\ S+_out_i)))`.
//!
//! This module holds the two policies every layer needs: the
//! [`StaticScheduler`] and the seeded, adversarial [`RandomScheduler`] that
//! the verifier's sweeps and the fault campaign use. The learned prediction
//! policies live in the `elastic-predict` crate. The simulator enforces the
//! leads-to property through the `starvation_limit` of
//! [`crate::SharedSpec`], so even an adversarial scheduler cannot deadlock a
//! well-formed netlist.

use std::fmt;

use crate::mix::SPLITMIX64_GAMMA;

/// End-of-cycle observation handed to a [`Scheduler`] so it can update its
/// prediction for the next cycle.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SharedFeedback {
    /// Clock cycle that just completed.
    pub cycle: u64,
    /// The prediction that was in force during this cycle.
    pub predicted: usize,
    /// `V+` of each user's (first) input channel during the cycle: the users
    /// that had a token waiting to be served.
    pub input_valid: Vec<bool>,
    /// `true` for users whose waiting token was cancelled by an anti-token
    /// during the cycle (the consumer did not need it).
    pub input_killed: Vec<bool>,
    /// `true` for users whose output channel completed a forward transfer
    /// during the cycle (the consumer accepted the speculated result).
    pub output_transfer: Vec<bool>,
    /// `true` for users whose output channel carried a valid token that the
    /// consumer *stopped* (a retry — for the predicted user this signals a
    /// misprediction, Section 4).
    pub output_retry: Vec<bool>,
    /// `true` for users whose output channel received an anti-token from the
    /// consumer during the cycle (their pending result is not needed).
    pub output_killed: Vec<bool>,
    /// The user channel the consumer actually required, when that is
    /// observable (i.e. when some output channel transferred this cycle).
    pub resolved: Option<usize>,
}

impl SharedFeedback {
    /// Creates an empty feedback record for a module with `users` channels.
    pub fn new(users: usize) -> Self {
        SharedFeedback {
            cycle: 0,
            predicted: 0,
            input_valid: vec![false; users],
            input_killed: vec![false; users],
            output_transfer: vec![false; users],
            output_retry: vec![false; users],
            output_killed: vec![false; users],
            resolved: None,
        }
    }

    /// Number of user channels described by this feedback record.
    pub fn users(&self) -> usize {
        self.input_valid.len()
    }

    /// `true` when the prediction in force during the cycle turned out wrong:
    /// the predicted output was stopped by the consumer or its token was
    /// killed while another user was required.
    pub fn mispredicted(&self) -> bool {
        if self.output_retry.get(self.predicted).copied().unwrap_or(false) {
            return true;
        }
        match self.resolved {
            Some(resolved) => resolved != self.predicted,
            None => self.output_killed.get(self.predicted).copied().unwrap_or(false),
        }
    }
}

/// A prediction policy for a speculative shared module.
///
/// Implementations must be deterministic given the feedback sequence so that
/// simulations are reproducible. The contract is:
///
/// * [`Scheduler::prediction`] returns the user channel allowed to use the
///   shared unit during the *current* cycle and must stay constant within a
///   cycle;
/// * [`Scheduler::tick`] is called exactly once per simulated cycle, after
///   the combinational phase has settled, with the observations of that
///   cycle; the next call to `prediction` reflects the update;
/// * [`Scheduler::reset`] restores the initial state.
pub trait Scheduler: fmt::Debug + Send {
    /// The user channel predicted to use the shared unit this cycle.
    fn prediction(&self) -> usize;

    /// Consumes the end-of-cycle feedback and updates the internal state.
    fn tick(&mut self, feedback: &SharedFeedback);

    /// Restores the scheduler to its initial state.
    fn reset(&mut self);

    /// Human-readable policy name (used in reports).
    fn name(&self) -> &str {
        "scheduler"
    }
}

/// The trivial scheduler: always predict the same user channel.
///
/// This is sufficient for the "always predict no error" policies of the
/// variable-latency (Section 5.1) and SECDED (Section 5.2) experiments when
/// combined with the controller's built-in misprediction recovery; richer
/// policies live in `elastic-predict`.
#[derive(Debug, Clone, Default)]
pub struct StaticScheduler {
    channel: usize,
}

impl StaticScheduler {
    /// Always predict `channel`.
    pub fn new(channel: usize) -> Self {
        StaticScheduler { channel }
    }
}

impl Scheduler for StaticScheduler {
    fn prediction(&self) -> usize {
        self.channel
    }

    fn tick(&mut self, _feedback: &SharedFeedback) {}

    fn reset(&mut self) {}

    fn name(&self) -> &str {
        "static"
    }
}

/// An adversarial scheduler that predicts a pseudo-random channel each
/// cycle, ignoring all feedback.
///
/// On its own this policy does not satisfy the leads-to (no-starvation)
/// property; it exists to stress the shared-module controller, whose
/// starvation override must keep the system live and its output streams
/// bit-identical regardless (Section 4.1.1 only requires leads-to). The
/// grant sequence is a pure function of the seed (xorshift64*), so runs are
/// replayable.
#[derive(Debug, Clone)]
pub struct RandomScheduler {
    users: usize,
    state: u64,
    seed: u64,
    current: usize,
}

impl RandomScheduler {
    /// Creates a random scheduler over `users` channels with a deterministic
    /// seed. The first grant is channel 0.
    pub fn new(users: usize, seed: u64) -> Self {
        // xorshift never leaves state 0, so a fixed non-zero word stands in.
        let seed = if seed == 0 { SPLITMIX64_GAMMA } else { seed };
        RandomScheduler { users: users.max(1), state: seed, seed, current: 0 }
    }

    fn advance(&mut self) -> u64 {
        // xorshift64* — deterministic, seedable, good enough for fuzzing.
        self.state ^= self.state >> 12;
        self.state ^= self.state << 25;
        self.state ^= self.state >> 27;
        self.state.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

impl Scheduler for RandomScheduler {
    fn prediction(&self) -> usize {
        self.current
    }

    fn tick(&mut self, _feedback: &SharedFeedback) {
        let draw = self.advance();
        self.current = (draw % self.users as u64) as usize;
    }

    fn reset(&mut self) {
        self.state = self.seed;
        self.current = 0;
    }

    fn name(&self) -> &str {
        "random"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grants(scheduler: &mut impl Scheduler, users: usize, cycles: usize) -> Vec<usize> {
        let feedback = SharedFeedback::new(users);
        (0..cycles)
            .map(|_| {
                let grant = scheduler.prediction();
                scheduler.tick(&feedback);
                grant
            })
            .collect()
    }

    #[test]
    fn random_scheduler_stream_is_pinned() {
        // The verifier's adversarial sweeps and the fault campaign replay
        // runs from their seeds, so the grant sequence must never drift.
        // Determinism, `reset` and the one-user case are tested in
        // `elastic_predict::policies` and `elastic_sim::faults`.
        assert_eq!(
            grants(&mut RandomScheduler::new(3, 7), 3, 16),
            [0, 1, 2, 0, 0, 2, 1, 2, 1, 1, 2, 2, 2, 0, 1, 1]
        );
    }

    #[test]
    fn static_scheduler_never_changes_its_mind() {
        let mut s = StaticScheduler::new(1);
        assert_eq!(s.prediction(), 1);
        let mut fb = SharedFeedback::new(2);
        fb.output_retry[1] = true;
        s.tick(&fb);
        assert_eq!(s.prediction(), 1);
        s.reset();
        assert_eq!(s.prediction(), 1);
    }

    #[test]
    fn feedback_detects_retry_misprediction() {
        let mut fb = SharedFeedback::new(2);
        fb.predicted = 0;
        fb.output_retry[0] = true;
        assert!(fb.mispredicted());
    }

    #[test]
    fn feedback_detects_resolved_misprediction() {
        let mut fb = SharedFeedback::new(2);
        fb.predicted = 0;
        fb.resolved = Some(1);
        assert!(fb.mispredicted());
        fb.resolved = Some(0);
        assert!(!fb.mispredicted());
    }

    #[test]
    fn feedback_without_signals_is_not_a_misprediction() {
        let fb = SharedFeedback::new(2);
        assert!(!fb.mispredicted());
    }

    #[test]
    fn feedback_kill_of_predicted_counts_as_misprediction_when_unresolved() {
        let mut fb = SharedFeedback::new(2);
        fb.predicted = 1;
        fb.output_killed[1] = true;
        assert!(fb.mispredicted());
    }
}
