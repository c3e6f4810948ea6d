//! The speculative shared module (Section 4.1, Figure 4).
//!
//! The shared module multiplexes `users` logical channels over one instance
//! of a combinational operation. Every cycle a [`Scheduler`] predicts which
//! user may use the unit: that user's operands (if valid) are propagated
//! through the shared logic to the user's output channel, while the other
//! users are stalled — unless anti-tokens coming back from the consumer kill
//! their waiting tokens (kill and stop are mutually exclusive, as required by
//! the SELF protocol).
//!
//! Misprediction recovery is entirely local: a retry on the predicted output
//! channel (the consumer needed a different user) is reported to the
//! scheduler, which corrects its prediction on the next cycle. A starvation
//! override enforces the *leads-to* property of Section 4.1.1 for any
//! scheduler: a user whose token has waited longer than the configured limit
//! is served regardless of the prediction.
//!
//! The module is generic over the rail word. Each lane owns a scheduler;
//! the clock edge hands every lane's scheduler its feedback and refreshes
//! one grant word per user, so `eval` drives the equations of
//! [`crate::handshake::shared_user`] on words.

use std::cell::RefCell;

use elastic_core::{Scheduler, SharedFeedback, SharedSpec};
use elastic_datapath::adder::mask;
use elastic_datapath::evaluate_columns;

use crate::controller::{Controller, NodeReport};
use crate::controllers::same_column;
use crate::handshake::{shared_user, HandshakeIo, Rail};
use crate::metrics::SharedModuleStats;

/// What one cycle did at a user's ports, one word per condition.
#[derive(Debug, Clone, Copy, Default)]
struct Outcome<R> {
    valid: R,
    input_killed: R,
    transferred: R,
    retried: R,
    killed: R,
}

/// Controller for a speculative shared module, per lane of the rail word
/// `R`.
#[derive(Debug)]
pub struct SharedModule<R: Rail> {
    spec: SharedSpec,
    output_width: u8,
    /// Each lane's prediction policy.
    schedulers: R::PerLane<Box<dyn Scheduler>>,
    /// Each lane's starvation override (forces a user for one cycle).
    forced: R::PerLane<Option<usize>>,
    /// Consecutive cycles each user has waited with a valid, unserved
    /// token, lane-major: `starvation[lane * users + user]`.
    starvation: Vec<u32>,
    /// Per user, the lanes granting it the unit this cycle (prediction plus
    /// starvation override).
    grant: Vec<R>,
    /// Each lane's feedback record, rewritten every cycle.
    feedback: R::PerLane<SharedFeedback>,
    /// The clock edge's per-user outcome words (scratch).
    outcomes: Vec<Outcome<R>>,
    /// Each lane's misprediction count.
    shared: R::PerLane<SharedModuleStats>,
    /// The result columns `eval` drives, with what they were computed from.
    memo: RefCell<Memo<R>>,
}

/// The datapath memo: a settle pass re-evaluates the module several times
/// per cycle while its operands rarely change, so a user's result column
/// is recomputed only when its offers or an operand column did.
#[derive(Debug)]
struct Memo<R> {
    /// Per user, the lanes offering a result.
    offers: Vec<R>,
    /// Operand columns, port-major: `operands[port * LANES + lane]`.
    operands: Vec<u64>,
    /// Result columns, user-major (`0` where the user does not offer).
    results: Vec<u64>,
}

impl<R: Rail> SharedModule<R> {
    /// Creates the controller, with one scheduler per lane built from the
    /// spec's policy.
    pub fn new(spec: SharedSpec, output_width: u8) -> Self {
        let users = spec.users;
        let mut module = SharedModule {
            schedulers: R::per_lane(|_| elastic_predict::from_kind(&spec.scheduler, users)),
            output_width,
            forced: R::per_lane(|_| None),
            starvation: vec![0; users * R::LANES],
            grant: vec![R::LOW; users],
            feedback: R::per_lane(|_| SharedFeedback::new(users)),
            outcomes: vec![Outcome::default(); users],
            shared: R::per_lane(|_| SharedModuleStats::default()),
            memo: RefCell::new(Memo {
                offers: vec![R::LOW; users],
                operands: vec![0; users * spec.inputs_per_user * R::LANES],
                results: vec![0; users * R::LANES],
            }),
            spec,
        };
        module.reset();
        module
    }

    fn operand_ports(&self, user: usize) -> std::ops::Range<usize> {
        let m = self.spec.inputs_per_user;
        user * m..(user + 1) * m
    }

    /// Recomputes lane `lane`'s grant: the starvation override, else the
    /// scheduler's prediction.
    fn regrant(&mut self, lane: usize) {
        let predicted = self.schedulers[lane].prediction() % self.spec.users.max(1);
        let granted = self.forced[lane].unwrap_or(predicted);
        for (user, grant) in self.grant.iter_mut().enumerate() {
            *grant = grant.with_lane(lane, user == granted);
        }
    }

    /// Closes lane `lane`'s cycle on the outcome words: starvation
    /// accounting, the scheduler's feedback, the misprediction count and the
    /// next grant.
    fn close_cycle(&mut self, lane: usize) {
        let users = self.spec.users;
        let predicted = self.schedulers[lane].prediction() % users.max(1);
        let granted = self.forced[lane].unwrap_or(predicted);
        let feedback = &mut self.feedback[lane];
        feedback.cycle += 1;
        feedback.resolved = None;
        for (user, outcome) in self.outcomes.iter().enumerate() {
            let valid = outcome.valid.in_lane(lane);
            let transferred = outcome.transferred.in_lane(lane);
            let killed = outcome.killed.in_lane(lane);
            let input_killed = outcome.input_killed.in_lane(lane);
            feedback.input_valid[user] = valid;
            feedback.input_killed[user] = input_killed;
            feedback.output_transfer[user] = transferred;
            feedback.output_retry[user] = outcome.retried.in_lane(lane);
            feedback.output_killed[user] = killed;
            if transferred {
                feedback.resolved = Some(user);
            }
            // Starvation accounting: a non-granted user with a valid token
            // that neither transferred nor was killed has waited one more
            // cycle. (The granted user is being offered the unit; if its
            // result is stopped, it is the consumer that wants another
            // user, which is exactly what the override must then provide.)
            let wait = &mut self.starvation[lane * users + user];
            let starved = valid && user != granted && !transferred && !killed && !input_killed;
            *wait = if starved { *wait + 1 } else { 0 };
        }
        feedback.predicted = granted;
        if feedback.mispredicted() {
            self.shared[lane].mispredictions += 1;
        }

        // Leads-to enforcement: force the longest-starved user above the
        // limit. The override lasts one cycle by design: if the consumer
        // refuses the forced result (retry), it is demanding a *different*
        // user — persisting would deadlock a select loop whose mux waits for
        // that other user. The converse hazard (the consumer stalls for an
        // unrelated reason on exactly the override cycle, so the starved
        // user loses its turn — a livelock an adversarial static scheduler
        // can sustain against aligned sink back-pressure, fuzzer seed
        // 0x5eed00030012) is closed structurally by the in-order commit
        // stage: a forced result parks in its lane whether or not the
        // consumer is ready that cycle.
        let waits = self.starvation[lane * users..][..users].iter().enumerate();
        self.forced[lane] = self.spec.starvation_limit.and_then(|limit| {
            waits.filter(|(_, &wait)| wait >= limit).max_by_key(|(_, &wait)| wait).map(|(u, _)| u)
        });

        // The scheduler observes the cycle that just completed. Record the
        // prediction it was responsible for (before the override) so
        // accuracy statistics refer to the policy, not to the fairness
        // fallback.
        feedback.predicted = predicted;
        self.schedulers[lane].tick(feedback);
        self.regrant(lane);
    }
}

impl<R: Rail> Controller<R> for SharedModule<R> {
    fn eval(&self, io: &mut R::Io<'_>, _optimistic: bool) {
        let memo = &mut *self.memo.borrow_mut();
        for (user, &granted) in self.grant.iter().enumerate() {
            // Only the granted user's operands reach the shared logic.
            let ports = self.operand_ports(user);
            let offers = ports.clone().fold(granted, |offers, port| offers & io.input_valid(port));
            let operands = &mut memo.operands[ports.start * R::LANES..ports.end * R::LANES];
            let results = &mut memo.results[user * R::LANES..][..R::LANES];
            let column = |port: usize| port * R::LANES..(port + 1) * R::LANES;
            let local = |port: usize| column(port - ports.start);
            if memo.offers[user] != offers
                || ports.clone().any(|p| !same_column(&operands[local(p)], io, p))
            {
                for port in ports.clone() {
                    operands[local(port)].copy_from_slice(io.input_data(port));
                }
                memo.offers[user] = offers;
                if offers == R::LOW {
                    results.fill(0);
                } else {
                    let operands = &*operands;
                    evaluate_columns(&self.spec.op, ports.len(), |k| &operands[column(k)], results);
                    // The lanes that offer nothing drive zero.
                    let keep = mask(u64::MAX, self.output_width);
                    for (lane, result) in results.iter_mut().enumerate() {
                        *result &= if offers.in_lane(lane) { keep } else { 0 };
                    }
                }
            }
            shared_user(io, user, ports, granted, results);
        }
    }

    fn commit(&mut self, io: &R::Io<'_>) {
        for user in 0..self.spec.users {
            let ports = self.operand_ports(user);
            let valid = ports.clone().fold(R::HIGH, |valid, port| valid & io.input_valid(port));
            let killed = io.output_kill(user) & !io.output_anti_stop(user);
            let offered = io.output_valid(user) & !killed;
            let input_killed =
                ports.fold(R::LOW, |k, port| k | io.input_kill(port) | (valid & killed));
            self.outcomes[user] = Outcome {
                valid,
                input_killed,
                transferred: offered & !io.output_stop(user),
                retried: offered & io.output_stop(user),
                killed,
            };
        }
        for lane in 0..R::LANES {
            self.close_cycle(lane);
        }
    }

    fn reset(&mut self) {
        for lane in 0..R::LANES {
            self.schedulers[lane].reset();
            self.forced[lane] = None;
            // Refilled in place: a reset allocates nothing.
            let feedback = &mut self.feedback[lane];
            (feedback.cycle, feedback.predicted, feedback.resolved) = (0, 0, None);
            for flags in [
                &mut feedback.input_valid,
                &mut feedback.input_killed,
                &mut feedback.output_transfer,
                &mut feedback.output_retry,
                &mut feedback.output_killed,
            ] {
                flags.fill(false);
            }
            self.shared[lane] = SharedModuleStats::default();
            self.regrant(lane);
        }
        self.starvation.fill(0);
    }

    fn report(&self, lane: usize) -> Option<NodeReport<'_>> {
        Some(NodeReport::Shared(self.shared[lane]))
    }

    fn override_scheduler(&mut self, lane: usize, scheduler: Box<dyn Scheduler>) -> bool {
        self.schedulers[lane] = scheduler;
        self.regrant(lane);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::{Controller, NodeIo};
    use crate::signal::ChannelState;
    use elastic_core::op::opaque;
    use elastic_core::SchedulerKind;

    // Channel layout: inputs 0,1 (user 0, user 1), outputs 2,3.
    fn io(channels: &mut [ChannelState]) -> NodeIo<'_> {
        NodeIo::new(channels, &[0, 1], &[2, 3])
    }

    fn module_with_static(channel: usize) -> SharedModule<bool> {
        let spec =
            SharedSpec::new(2, opaque("F", 4, 50)).with_scheduler(SchedulerKind::Static(channel));
        SharedModule::new(spec, 8)
    }

    #[test]
    fn only_the_granted_user_reaches_the_output() {
        let module = module_with_static(0);
        let mut channels = vec![ChannelState::default(); 4];
        channels[0].forward_valid = true;
        channels[0].data = 0x3C;
        channels[1].forward_valid = true;
        channels[1].data = 0x55;
        module.eval(&mut io(&mut channels), false);
        assert!(channels[2].forward_valid);
        assert_eq!(channels[2].data, 0x3C);
        assert!(!channels[3].forward_valid);
        assert!(!channels[0].forward_stop, "the granted user's operand transfers");
        assert!(channels[1].forward_stop, "the other user is stalled");
        assert!(!channels[1].backward_valid, "stalled, not killed");
    }

    #[test]
    fn consumer_kills_pass_through_to_the_waiting_operand() {
        let module = module_with_static(0);
        let mut channels = vec![ChannelState::default(); 4];
        channels[1].forward_valid = true; // user 1 has a waiting operand
        channels[3].backward_valid = true; // the consumer does not need user 1's result
        module.eval(&mut io(&mut channels), false);
        assert!(!channels[3].backward_stop, "the kill is accepted");
        assert!(!channels[1].forward_stop, "the waiting operand is consumed by annihilation");
        assert!(!channels[1].backward_valid, "annihilation does not forward the kill upstream");
    }

    #[test]
    fn kills_are_forwarded_upstream_when_no_operand_waits() {
        let module = module_with_static(0);
        let mut channels = vec![ChannelState::default(); 4];
        channels[3].backward_valid = true;
        module.eval(&mut io(&mut channels), false);
        assert!(channels[1].backward_valid, "the kill continues towards the producer");
        assert!(!channels[3].backward_stop);
    }

    #[test]
    fn retry_on_the_predicted_output_is_reported_as_a_misprediction() {
        let mut module = module_with_static(0);
        let mut channels = vec![ChannelState::default(); 4];
        channels[0].forward_valid = true;
        channels[2].forward_stop = true; // the consumer refuses the speculated result
        module.eval(&mut io(&mut channels), false);
        module.commit(&io(&mut channels));
        assert_eq!(module.shared[0].mispredictions, 1);
        let feedback = &module.feedback[0];
        assert!(feedback.output_retry[0]);
        assert!(feedback.mispredicted());
    }

    #[test]
    fn starvation_override_serves_the_neglected_user() {
        let spec = SharedSpec::new(2, opaque("F", 4, 50)).with_scheduler(SchedulerKind::Static(0));
        let mut module =
            SharedModule::<bool>::new(SharedSpec { starvation_limit: Some(3), ..spec }, 8);
        let mut channels = vec![ChannelState::default(); 4];
        channels[1].forward_valid = true; // user 1 waits forever under a static-0 scheduler
        for _ in 0..3 {
            module.eval(&mut io(&mut channels), false);
            module.commit(&io(&mut channels));
        }
        assert!(module.grant[1], "the starvation override must kick in");
        module.eval(&mut io(&mut channels), false);
        assert!(channels[3].forward_valid, "the starved user's token is finally served");
    }

    #[test]
    fn per_user_transfer_statistics_are_collected() {
        let mut module = module_with_static(0);
        let mut channels = vec![ChannelState::default(); 4];
        channels[0].forward_valid = true;
        module.eval(&mut io(&mut channels), false);
        module.commit(&io(&mut channels));
        assert_eq!(module.feedback[0].output_transfer, vec![true, false]);
        assert_eq!(module.feedback[0].resolved, Some(0));
    }

    #[test]
    fn multi_operand_users_join_their_operands() {
        let spec = SharedSpec::new(2, elastic_core::Op::Add)
            .with_inputs_per_user(2)
            .with_scheduler(SchedulerKind::Static(0));
        let mut module = SharedModule::<bool>::new(spec, 8);
        // inputs: 0,1 (user 0), 2,3 (user 1); outputs 4,5.
        let mut channels = vec![ChannelState::default(); 6];
        let inputs = [0usize, 1, 2, 3];
        let outputs = [4usize, 5];
        channels[0].forward_valid = true;
        channels[0].data = 3;
        let mut node_io = NodeIo::new(&mut channels, &inputs, &outputs);
        module.eval(&mut node_io, false);
        assert!(!channels[4].forward_valid, "user 0 is missing its second operand");
        channels[1].forward_valid = true;
        channels[1].data = 4;
        let mut node_io = NodeIo::new(&mut channels, &inputs, &outputs);
        module.eval(&mut node_io, false);
        assert!(channels[4].forward_valid);
        assert_eq!(channels[4].data, 7);
        let node_io = NodeIo::new(&mut channels, &inputs, &outputs);
        module.commit(&node_io);
        assert_eq!(module.feedback[0].output_transfer, vec![true, false]);
        assert_eq!(module.feedback[0].resolved, Some(0));
    }
}
