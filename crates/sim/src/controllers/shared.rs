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

use elastic_core::{Scheduler, SharedFeedback, SharedSpec};
use elastic_datapath::adder::mask;
use elastic_datapath::evaluate;

use crate::controller::{Controller, NodeIo, NodeReport, NodeStats};
use crate::metrics::SharedModuleStats;

/// Controller for a speculative shared module.
#[derive(Debug)]
pub struct SharedModule {
    spec: SharedSpec,
    scheduler: Box<dyn Scheduler>,
    output_width: u8,
    /// Starvation override (forces a user until its token is served or killed).
    forced_user: Option<usize>,
    /// Consecutive cycles each user has waited with a valid, unserved token.
    starvation: Vec<u32>,
    /// Feedback handed to the scheduler at the end of the previous cycle.
    last_feedback: SharedFeedback,
    stats: NodeStats,
    transfers_per_user: Vec<u64>,
    kills_per_user: Vec<u64>,
}

impl SharedModule {
    /// Creates the controller with the given prediction policy.
    pub fn new(spec: SharedSpec, scheduler: Box<dyn Scheduler>, output_width: u8) -> Self {
        let users = spec.users;
        SharedModule {
            scheduler,
            output_width,
            forced_user: None,
            starvation: vec![0; users],
            last_feedback: SharedFeedback::new(users),
            stats: NodeStats::default(),
            transfers_per_user: vec![0; users],
            kills_per_user: vec![0; users],
            spec,
        }
    }

    /// The user channel granted the unit this cycle (prediction plus
    /// starvation override).
    pub fn granted_user(&self) -> usize {
        let predicted = self.scheduler.prediction() % self.spec.users.max(1);
        self.forced_user.unwrap_or(predicted)
    }

    /// Per-user forward transfer counts on the output channels.
    pub fn transfers_per_user(&self) -> &[u64] {
        &self.transfers_per_user
    }

    /// Per-user kill counts (tokens cancelled by consumer anti-tokens).
    pub fn kills_per_user(&self) -> &[u64] {
        &self.kills_per_user
    }

    fn operand_ports(&self, user: usize) -> std::ops::Range<usize> {
        let m = self.spec.inputs_per_user;
        user * m..(user + 1) * m
    }

    fn user_inputs_valid(&self, io: &NodeIo<'_>, user: usize) -> bool {
        self.operand_ports(user).all(|port| io.input(port).forward_valid)
    }

    fn user_operands(&self, io: &NodeIo<'_>, user: usize) -> Vec<u64> {
        self.operand_ports(user).map(|port| io.input(port).data).collect()
    }
}

impl Controller for SharedModule {
    fn eval(&self, io: &mut NodeIo<'_>) {
        let users = self.spec.users;
        let granted = self.granted_user();

        for user in 0..users {
            let user_valid = self.user_inputs_valid(io, user);
            let output = io.output(user);
            let kill = output.backward_valid;
            let is_granted = user == granted;

            // Forward path: only the granted user's operands reach the shared logic.
            let offers = is_granted && user_valid;
            io.set_output_valid(user, offers);
            let result = if offers {
                mask(
                    evaluate(&self.spec.op, &self.user_operands(io, user)).unwrap_or(0),
                    self.output_width,
                )
            } else {
                0
            };
            io.set_output_data(user, result);

            // Backward path: anti-tokens from the consumer either annihilate
            // against the user's waiting operands or are forwarded upstream.
            let producers_accept_kill =
                self.operand_ports(user).all(|port| !io.input(port).backward_stop);
            io.set_output_anti_stop(user, !(user_valid || producers_accept_kill));

            let output_transfer = offers && !output.forward_stop && !kill;
            let annihilate = user_valid && kill;
            let forward_kill = kill && !user_valid && producers_accept_kill;
            let consume = output_transfer || annihilate;
            for port in self.operand_ports(user) {
                io.set_input_stop(port, !consume);
                io.set_input_kill(port, forward_kill);
            }
        }
    }

    fn commit(&mut self, io: &NodeIo<'_>) {
        let users = self.spec.users;
        let granted = self.granted_user();
        let predicted = self.scheduler.prediction() % users.max(1);

        let mut feedback = SharedFeedback::new(users);
        feedback.cycle = self.last_feedback.cycle + 1;
        feedback.predicted = granted;

        let mut any_valid = false;
        for user in 0..users {
            let user_valid = self.user_inputs_valid(io, user);
            let output = io.output(user);
            let killed = output.backward_transfer();
            let transferred = output.forward_valid && !output.forward_stop && !killed;
            let retried = output.forward_valid && output.forward_stop && !killed;
            let input_killed = self
                .operand_ports(user)
                .any(|port| io.input(port).backward_valid || (user_valid && killed));

            feedback.input_valid[user] = user_valid;
            feedback.input_killed[user] = input_killed;
            feedback.output_transfer[user] = transferred;
            feedback.output_retry[user] = retried;
            feedback.output_killed[user] = killed;
            if transferred {
                feedback.resolved = Some(user);
                self.transfers_per_user[user] += 1;
                self.stats.output_transfers += 1;
            }
            if killed {
                self.kills_per_user[user] += 1;
                self.stats.killed_tokens += 1;
            }
            any_valid |= user_valid;

            // Starvation accounting: a non-granted user with a valid token
            // that neither transferred nor was killed has waited one more
            // cycle. (The granted user is being offered the unit; if its
            // result is stopped, it is the consumer that wants another user,
            // which is exactly what the override must then provide.)
            if user_valid && user != granted && !transferred && !killed && !input_killed {
                self.starvation[user] += 1;
            } else {
                self.starvation[user] = 0;
            }
        }

        if any_valid {
            self.stats.stall_cycles += u64::from(feedback.output_retry[granted]);
        }
        if feedback.mispredicted() {
            self.stats.mispredictions += 1;
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
        self.forced_user = None;
        if let Some(limit) = self.spec.starvation_limit {
            if let Some((user, _)) = self
                .starvation
                .iter()
                .enumerate()
                .filter(|(_, &wait)| wait >= limit)
                .max_by_key(|(_, &wait)| wait)
            {
                self.forced_user = Some(user);
            }
        }

        // The scheduler observes the cycle that just completed. Record the
        // prediction it was responsible for (before the override) so accuracy
        // statistics refer to the policy, not to the fairness fallback.
        feedback.predicted = predicted;
        self.scheduler.tick(&feedback);
        self.last_feedback = feedback;
    }

    fn report(&self) -> NodeReport<'_> {
        let shared = SharedModuleStats {
            mispredictions: self.stats.mispredictions,
            transfers_per_user: self.transfers_per_user.clone(),
            kills_per_user: self.kills_per_user.clone(),
        };
        NodeReport::Shared(self.stats, shared)
    }

    fn reset(&mut self) {
        self.scheduler.reset();
        self.forced_user = None;
        self.starvation.iter_mut().for_each(|wait| *wait = 0);
        self.last_feedback = SharedFeedback::new(self.spec.users);
        self.stats = NodeStats::default();
        self.transfers_per_user.iter_mut().for_each(|count| *count = 0);
        self.kills_per_user.iter_mut().for_each(|count| *count = 0);
    }

    fn override_scheduler(&mut self, scheduler: Box<dyn Scheduler>) -> bool {
        self.scheduler = scheduler;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signal::ChannelState;
    use elastic_core::op::opaque;
    use elastic_core::scheduler::StaticScheduler;
    use elastic_core::SchedulerKind;

    // Channel layout: inputs 0,1 (user 0, user 1), outputs 2,3.
    fn io(channels: &mut [ChannelState]) -> NodeIo<'_> {
        NodeIo::new(channels, &[0, 1], &[2, 3])
    }

    fn module_with_static(channel: usize) -> SharedModule {
        let spec = SharedSpec::new(2, opaque("F", 4, 50));
        SharedModule::new(spec, Box::new(StaticScheduler::new(channel)), 8)
    }

    #[test]
    fn only_the_granted_user_reaches_the_output() {
        let module = module_with_static(0);
        let mut channels = vec![ChannelState::default(); 4];
        channels[0].forward_valid = true;
        channels[0].data = 0x3C;
        channels[1].forward_valid = true;
        channels[1].data = 0x55;
        module.eval(&mut io(&mut channels));
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
        module.eval(&mut io(&mut channels));
        assert!(!channels[3].backward_stop, "the kill is accepted");
        assert!(!channels[1].forward_stop, "the waiting operand is consumed by annihilation");
        assert!(!channels[1].backward_valid, "annihilation does not forward the kill upstream");
    }

    #[test]
    fn kills_are_forwarded_upstream_when_no_operand_waits() {
        let module = module_with_static(0);
        let mut channels = vec![ChannelState::default(); 4];
        channels[3].backward_valid = true;
        module.eval(&mut io(&mut channels));
        assert!(channels[1].backward_valid, "the kill continues towards the producer");
        assert!(!channels[3].backward_stop);
    }

    #[test]
    fn retry_on_the_predicted_output_is_reported_as_a_misprediction() {
        let mut module = module_with_static(0);
        let mut channels = vec![ChannelState::default(); 4];
        channels[0].forward_valid = true;
        channels[2].forward_stop = true; // the consumer refuses the speculated result
        module.eval(&mut io(&mut channels));
        module.commit(&io(&mut channels));
        assert_eq!(module.stats.mispredictions, 1);
        let feedback = &module.last_feedback;
        assert!(feedback.output_retry[0]);
        assert!(feedback.mispredicted());
    }

    #[test]
    fn starvation_override_serves_the_neglected_user() {
        let spec = SharedSpec::new(2, opaque("F", 4, 50)).with_scheduler(SchedulerKind::Static(0));
        let mut module = SharedModule::new(
            SharedSpec { starvation_limit: Some(3), ..spec },
            Box::new(StaticScheduler::new(0)),
            8,
        );
        let mut channels = vec![ChannelState::default(); 4];
        channels[1].forward_valid = true; // user 1 waits forever under a static-0 scheduler
        for _ in 0..3 {
            module.eval(&mut io(&mut channels));
            module.commit(&io(&mut channels));
        }
        assert_eq!(module.granted_user(), 1, "the starvation override must kick in");
        module.eval(&mut io(&mut channels));
        assert!(channels[3].forward_valid, "the starved user's token is finally served");
    }

    #[test]
    fn per_user_transfer_statistics_are_collected() {
        let mut module = module_with_static(0);
        let mut channels = vec![ChannelState::default(); 4];
        channels[0].forward_valid = true;
        module.eval(&mut io(&mut channels));
        module.commit(&io(&mut channels));
        assert_eq!(module.transfers_per_user(), &[1, 0]);
        assert_eq!(module.last_feedback.resolved, Some(0));
    }

    #[test]
    fn multi_operand_users_join_their_operands() {
        let spec = SharedSpec::new(2, elastic_core::Op::Add).with_inputs_per_user(2);
        let mut module = SharedModule::new(spec, Box::new(StaticScheduler::new(0)), 8);
        // inputs: 0,1 (user 0), 2,3 (user 1); outputs 4,5.
        let mut channels = vec![ChannelState::default(); 6];
        let inputs = [0usize, 1, 2, 3];
        let outputs = [4usize, 5];
        channels[0].forward_valid = true;
        channels[0].data = 3;
        let mut node_io = NodeIo::new(&mut channels, &inputs, &outputs);
        module.eval(&mut node_io);
        assert!(!channels[4].forward_valid, "user 0 is missing its second operand");
        channels[1].forward_valid = true;
        channels[1].data = 4;
        let mut node_io = NodeIo::new(&mut channels, &inputs, &outputs);
        module.eval(&mut node_io);
        assert!(channels[4].forward_valid);
        assert_eq!(channels[4].data, 7);
        let node_io = NodeIo::new(&mut channels, &inputs, &outputs);
        module.commit(&node_io);
        assert_eq!(module.transfers_per_user()[0], 1);
    }
}
