//! Concrete scheduler implementations.

use elastic_core::scheduler::{Scheduler, SharedFeedback, StaticScheduler};
use elastic_core::SchedulerKind;

/// Rotates the prediction over all user channels, one per cycle.
///
/// This is fair, starvation-free sharing without speculation: every channel
/// gets the unit every `users` cycles regardless of demand. It is the
/// baseline the speculative policies are compared against.
#[derive(Debug, Clone)]
pub struct RoundRobinScheduler {
    users: usize,
    current: usize,
}

impl RoundRobinScheduler {
    /// Creates a round-robin scheduler over `users` channels.
    pub fn new(users: usize) -> Self {
        RoundRobinScheduler { users: users.max(1), current: 0 }
    }
}

impl Scheduler for RoundRobinScheduler {
    fn prediction(&self) -> usize {
        self.current
    }

    fn tick(&mut self, _feedback: &SharedFeedback) {
        self.current = (self.current + 1) % self.users;
    }

    fn reset(&mut self) {
        self.current = 0;
    }

    fn name(&self) -> &str {
        "round-robin"
    }
}

/// Predicts the channel that the consumer most recently required.
///
/// Equivalent to a 1-bit (last-outcome) branch predictor: it captures
/// strongly biased select streams and streaks, and mispredicts twice per
/// alternation.
#[derive(Debug, Clone)]
pub struct LastTakenScheduler {
    users: usize,
    current: usize,
}

impl LastTakenScheduler {
    /// Creates a last-taken scheduler over `users` channels, initially
    /// predicting channel 0.
    pub fn new(users: usize) -> Self {
        LastTakenScheduler { users: users.max(1), current: 0 }
    }
}

impl Scheduler for LastTakenScheduler {
    fn prediction(&self) -> usize {
        self.current
    }

    fn tick(&mut self, feedback: &SharedFeedback) {
        if let Some(resolved) = feedback.resolved {
            self.current = resolved % self.users;
        } else if feedback.mispredicted() && self.users == 2 {
            // A retry without an observable resolution still tells a
            // two-channel scheduler which side to switch to.
            self.current = 1 - self.current;
        }
    }

    fn reset(&mut self) {
        self.current = 0;
    }

    fn name(&self) -> &str {
        "last-taken"
    }
}

/// Two-bit saturating-counter predictor over two user channels.
///
/// The counter counts towards channel 1: values 0/1 predict channel 0,
/// values 2/3 predict channel 1. Hysteresis means a single anomalous select
/// does not flip a strongly established prediction — the classic bimodal
/// branch predictor behaviour.
#[derive(Debug, Clone)]
pub struct TwoBitScheduler {
    counter: u8,
    users: usize,
}

impl TwoBitScheduler {
    /// Creates a two-bit predictor (initially weakly predicting channel 0).
    pub fn new(users: usize) -> Self {
        TwoBitScheduler { counter: 1, users: users.max(2) }
    }
}

impl Scheduler for TwoBitScheduler {
    fn prediction(&self) -> usize {
        usize::from(self.counter >= 2) % self.users
    }

    fn tick(&mut self, feedback: &SharedFeedback) {
        let outcome = match feedback.resolved {
            Some(resolved) => Some(resolved != 0),
            None if feedback.mispredicted() => Some(self.prediction() == 0),
            None => None,
        };
        match outcome {
            Some(true) => self.counter = (self.counter + 1).min(3),
            Some(false) => self.counter = self.counter.saturating_sub(1),
            None => {}
        }
    }

    fn reset(&mut self) {
        self.counter = 1;
    }

    fn name(&self) -> &str {
        "two-bit"
    }
}

/// Global-history indexed (gshare-style) predictor over two user channels.
///
/// A register of the last `history_bits` resolved selects indexes a table of
/// two-bit counters; the indexed counter provides the prediction. Captures
/// periodic select patterns that defeat the bimodal predictor.
#[derive(Debug, Clone)]
pub struct CorrelatingScheduler {
    history: usize,
    history_bits: u8,
    table: Vec<u8>,
}

impl CorrelatingScheduler {
    /// Creates a predictor with a `history_bits`-deep global history
    /// (1 ..= 16 bits).
    pub fn new(history_bits: u8) -> Self {
        let history_bits = history_bits.clamp(1, 16);
        CorrelatingScheduler { history: 0, history_bits, table: vec![1; 1 << history_bits] }
    }

    fn index(&self) -> usize {
        self.history & ((1 << self.history_bits) - 1)
    }
}

impl Scheduler for CorrelatingScheduler {
    fn prediction(&self) -> usize {
        usize::from(self.table[self.index()] >= 2)
    }

    fn tick(&mut self, feedback: &SharedFeedback) {
        let outcome = match feedback.resolved {
            Some(resolved) => Some(resolved != 0),
            None if feedback.mispredicted() => Some(self.prediction() == 0),
            None => None,
        };
        if let Some(taken) = outcome {
            let index = self.index();
            if taken {
                self.table[index] = (self.table[index] + 1).min(3);
            } else {
                self.table[index] = self.table[index].saturating_sub(1);
            }
            self.history = (self.history << 1) | usize::from(taken);
        }
    }

    fn reset(&mut self) {
        self.history = 0;
        self.table.iter_mut().for_each(|c| *c = 1);
    }

    fn name(&self) -> &str {
        "correlating"
    }
}

/// Follows an explicit per-cycle prediction sequence (repeating the last
/// entry once exhausted). Used to reproduce the `Sched` row of Table 1.
#[derive(Debug, Clone)]
pub struct SequenceScheduler {
    sequence: Vec<usize>,
    position: usize,
}

impl SequenceScheduler {
    /// Creates a scheduler that follows `sequence` cycle by cycle.
    pub fn new(sequence: Vec<usize>) -> Self {
        let sequence = if sequence.is_empty() { vec![0] } else { sequence };
        SequenceScheduler { sequence, position: 0 }
    }
}

impl Scheduler for SequenceScheduler {
    fn prediction(&self) -> usize {
        self.sequence[self.position.min(self.sequence.len() - 1)]
    }

    fn tick(&mut self, _feedback: &SharedFeedback) {
        if self.position + 1 < self.sequence.len() {
            self.position += 1;
        }
    }

    fn reset(&mut self) {
        self.position = 0;
    }

    fn name(&self) -> &str {
        "sequence"
    }
}

/// Error-driven replay: always predict channel 0 (the speculative fast path);
/// after a misprediction, rotate through the other channels until the
/// consumer accepts a result, then fall back to channel 0.
///
/// This is the policy of both paper examples: the variable-latency unit
/// always speculates that the approximation is correct, and the resilient
/// adder always speculates that no soft error occurred; on error the
/// computation is replayed once with the exact / corrected value.
///
/// A refused result is not proof of an error: the consumer stops the
/// predicted output both when it demands a different channel *and* when it
/// is merely back-pressured, and the two are indistinguishable at the shared
/// module's boundary. The policy therefore treats every transfer — whichever
/// channel it lands on — as the point of re-synchronisation: the consumer's
/// demand for the current item is met, so the next item is a fresh
/// fast-path speculation. While no transfer resolves the refusal, hunting
/// across channels guarantees the demanded one is offered within `users`
/// cycles of the back-pressure draining, so recovery never has to wait for
/// the shared module's starvation override.
#[derive(Debug, Clone, Default)]
pub struct ErrorReplayScheduler {
    replay: Option<usize>,
}

impl ErrorReplayScheduler {
    /// Creates the error-replay scheduler.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Scheduler for ErrorReplayScheduler {
    fn prediction(&self) -> usize {
        self.replay.unwrap_or(0)
    }

    fn tick(&mut self, feedback: &SharedFeedback) {
        if feedback.resolved.is_some() {
            // A result transferred: the consumer's demand for this item is
            // met (on whichever channel), so the next item is a fresh
            // fast-path speculation.
            self.replay = None;
        } else if feedback.mispredicted() {
            // The offered result was refused with nothing transferring: the
            // consumer either demands another channel or is back-pressured.
            // Hunt to the next channel; the first transfer re-synchronises
            // onto the fast path either way.
            self.replay = Some((feedback.predicted + 1) % feedback.users().max(2));
        }
    }

    fn reset(&mut self) {
        self.replay = None;
    }

    fn name(&self) -> &str {
        "error-replay"
    }
}

/// Confidence-throttled run-ahead with periodic hedging (the
/// [`SchedulerKind::Confidence`] policy).
///
/// The policy keeps a *preferred* channel and lets the shared module run
/// ahead on it, but once every `2 + confidence` cycles it *hedges*: it
/// grants the next channel for one cycle, parking a speculative result in
/// that channel's commit lane. Because commit-lane offers are persistent,
/// the hedge sits there until the consumer either squashes it (select stayed
/// on the preferred channel — cheap, the module had slack) or commits it
/// (select switched — the demanded result is already parked, so a periodic
/// mispredict costs *zero* recovery cycles instead of a full round trip
/// through the starvation override).
///
/// Evidence is read from anti-token pass-throughs, the only select
/// observations a shared module gets behind a deep commit stage: a kill
/// passing through an *empty non-preferred* lane means the consumer
/// committed a preferred-channel token (confirming — confidence rises,
/// saturating at `max_confidence`, stretching the hedge period), while a
/// kill passing through the *preferred* lane means the consumer demanded
/// another channel (contrary — confidence resets and the next hedge fires
/// immediately). Two contrary observations in a row flip the preferred
/// channel, so a genuinely inverted bias is re-learned rather than hedged
/// against forever.
///
/// With this policy a depth-4 commit stage matches or beats the depth-2
/// sweet spot on the biased bursty-consumer workload of
/// `BENCH_commit_depth.json` (pinned by the explorer regression tests),
/// because deeper lanes keep their burst-absorbing head-room without paying
/// the deep-run-ahead recovery penalty on the periodic mispredict.
#[derive(Debug, Clone)]
pub struct ConfidenceScheduler {
    users: usize,
    max_confidence: u32,
    confidence: u32,
    preferred: usize,
    since_hedge: u32,
    wrong_streak: u32,
}

impl ConfidenceScheduler {
    /// Creates a confidence-throttled scheduler over `users` channels.
    pub fn new(users: usize, max_confidence: u8) -> Self {
        ConfidenceScheduler {
            users: users.max(1),
            max_confidence: u32::from(max_confidence),
            confidence: 0,
            preferred: 0,
            since_hedge: 0,
            wrong_streak: 0,
        }
    }

    fn other(&self) -> usize {
        (self.preferred + 1) % self.users
    }

    /// Current hedge period: run ahead on the preferred channel for this
    /// many cycles between hedges.
    fn period(&self) -> u32 {
        2 + self.confidence
    }
}

impl Scheduler for ConfidenceScheduler {
    fn prediction(&self) -> usize {
        if self.users > 1 && self.since_hedge >= self.period() {
            self.other()
        } else {
            self.preferred
        }
    }

    fn tick(&mut self, feedback: &SharedFeedback) {
        if self.users < 2 {
            return;
        }
        let hedging = self.prediction() != self.preferred;
        let other = self.other();
        // A kill passing through an empty non-preferred lane: the consumer
        // committed a preferred-channel token. Confirming evidence.
        let correct = feedback
            .output_killed
            .iter()
            .enumerate()
            .any(|(user, &killed)| killed && user != self.preferred);
        // A kill passing through the preferred lane while it sat empty: the
        // consumer demanded another channel. Contrary evidence.
        let wrong = feedback.output_killed.get(self.preferred).copied().unwrap_or(false);
        if correct {
            self.confidence = (self.confidence + 1).min(self.max_confidence);
            self.wrong_streak = 0;
        }
        if wrong {
            self.confidence = 0;
            // Hedge immediately: the demand we just missed is the best
            // predictor of the next one.
            self.since_hedge = self.period();
            self.wrong_streak += 1;
            if self.wrong_streak >= 2 {
                self.preferred = other;
                self.wrong_streak = 0;
                self.since_hedge = 0;
            }
            return;
        }
        if hedging && feedback.output_transfer.get(other).copied().unwrap_or(false) {
            // The hedge parked a result: restart the cadence.
            self.since_hedge = 0;
        } else {
            // Clamp so a stalled stretch cannot bank more than one hedge.
            self.since_hedge = self.since_hedge.saturating_add(1).min(self.period() + 1);
        }
    }

    fn reset(&mut self) {
        self.confidence = 0;
        self.preferred = 0;
        self.since_hedge = 0;
        self.wrong_streak = 0;
    }

    fn name(&self) -> &str {
        "confidence"
    }
}

/// Instantiates the scheduler named by a netlist's [`SchedulerKind`].
///
/// `users` is the number of user channels of the shared module the policy
/// will serve.
pub fn from_kind(kind: &SchedulerKind, users: usize) -> Box<dyn Scheduler> {
    match kind {
        SchedulerKind::Static(channel) => Box::new(StaticScheduler::new(*channel % users.max(1))),
        SchedulerKind::RoundRobin => Box::new(RoundRobinScheduler::new(users)),
        SchedulerKind::LastTaken => Box::new(LastTakenScheduler::new(users)),
        SchedulerKind::TwoBit => Box::new(TwoBitScheduler::new(users)),
        SchedulerKind::Correlating { history_bits } => {
            Box::new(CorrelatingScheduler::new(*history_bits))
        }
        SchedulerKind::Sequence(sequence) => Box::new(SequenceScheduler::new(sequence.clone())),
        SchedulerKind::ErrorReplay => Box::new(ErrorReplayScheduler::new()),
        SchedulerKind::Confidence { max_confidence } => {
            Box::new(ConfidenceScheduler::new(users, *max_confidence))
        }
        // `SchedulerKind` is non-exhaustive: unknown kinds degrade to the
        // simplest safe policy.
        _ => Box::new(StaticScheduler::new(0)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feedback_with_resolution(users: usize, predicted: usize, resolved: usize) -> SharedFeedback {
        let mut fb = SharedFeedback::new(users);
        fb.predicted = predicted;
        fb.resolved = Some(resolved);
        fb.output_transfer[resolved] = true;
        fb
    }

    fn feedback_with_retry(users: usize, predicted: usize) -> SharedFeedback {
        let mut fb = SharedFeedback::new(users);
        fb.predicted = predicted;
        fb.output_retry[predicted] = true;
        fb
    }

    #[test]
    fn round_robin_visits_every_channel() {
        let mut s = RoundRobinScheduler::new(3);
        let fb = SharedFeedback::new(3);
        let mut visited = Vec::new();
        for _ in 0..6 {
            visited.push(s.prediction());
            s.tick(&fb);
        }
        assert_eq!(visited, vec![0, 1, 2, 0, 1, 2]);
        s.reset();
        assert_eq!(s.prediction(), 0);
    }

    #[test]
    fn last_taken_follows_resolutions() {
        let mut s = LastTakenScheduler::new(2);
        assert_eq!(s.prediction(), 0);
        s.tick(&feedback_with_resolution(2, 0, 1));
        assert_eq!(s.prediction(), 1);
        s.tick(&feedback_with_resolution(2, 1, 1));
        assert_eq!(s.prediction(), 1);
        s.tick(&feedback_with_retry(2, 1));
        assert_eq!(s.prediction(), 0, "a retry on the prediction flips a 2-way scheduler");
    }

    #[test]
    fn two_bit_scheduler_needs_two_mispredictions_to_flip() {
        let mut s = TwoBitScheduler::new(2);
        assert_eq!(s.prediction(), 0);
        s.tick(&feedback_with_resolution(2, 0, 1));
        assert_eq!(s.prediction(), 1, "counter moved from 1 to 2");
        // Two consecutive channel-0 resolutions needed to flip back firmly.
        s.tick(&feedback_with_resolution(2, 1, 1));
        s.tick(&feedback_with_resolution(2, 1, 1));
        assert_eq!(s.prediction(), 1);
        s.tick(&feedback_with_resolution(2, 1, 0));
        assert_eq!(s.prediction(), 1, "hysteresis absorbs a single anomaly");
        s.tick(&feedback_with_resolution(2, 1, 0));
        s.tick(&feedback_with_resolution(2, 1, 0));
        assert_eq!(s.prediction(), 0);
    }

    #[test]
    fn correlating_scheduler_learns_an_alternating_pattern() {
        let mut s = CorrelatingScheduler::new(2);
        // Train on a strict 0,1,0,1,… select stream.
        let mut correct = 0;
        let mut total = 0;
        let mut expected = 0usize;
        for _ in 0..200 {
            if s.prediction() == expected {
                correct += 1;
            }
            total += 1;
            s.tick(&feedback_with_resolution(2, s.prediction(), expected));
            expected = 1 - expected;
        }
        let accuracy = f64::from(correct) / f64::from(total);
        assert!(accuracy > 0.9, "correlating predictor should learn alternation, got {accuracy}");
    }

    #[test]
    fn sequence_scheduler_replays_table1_schedule() {
        let mut s = SequenceScheduler::new(vec![0, 1, 0, 1, 0, 1, 0]);
        let fb = SharedFeedback::new(2);
        let produced: Vec<usize> = (0..7)
            .map(|_| {
                let p = s.prediction();
                s.tick(&fb);
                p
            })
            .collect();
        assert_eq!(produced, vec![0, 1, 0, 1, 0, 1, 0]);
        // Exhausted sequences repeat the last entry.
        assert_eq!(s.prediction(), 0);
        s.reset();
        assert_eq!(s.prediction(), 0);
    }

    #[test]
    fn empty_sequences_default_to_channel_zero() {
        let s = SequenceScheduler::new(Vec::new());
        assert_eq!(s.prediction(), 0);
    }

    #[test]
    fn error_replay_returns_to_the_fast_path() {
        let mut s = ErrorReplayScheduler::new();
        assert_eq!(s.prediction(), 0);
        // Misprediction: replay channel 1 for one cycle.
        s.tick(&feedback_with_retry(2, 0));
        assert_eq!(s.prediction(), 1);
        // Replay succeeded: back to channel 0.
        s.tick(&feedback_with_resolution(2, 1, 1));
        assert_eq!(s.prediction(), 0);
    }

    #[test]
    fn error_replay_resynchronises_after_back_pressure() {
        let mut s = ErrorReplayScheduler::new();
        // A stall storm refuses every offered result without resolving the
        // consumer's demand; the policy hunts between the channels instead
        // of wedging on either one.
        let mut produced = Vec::new();
        for _ in 0..6 {
            let p = s.prediction();
            produced.push(p);
            s.tick(&feedback_with_retry(2, p));
        }
        assert_eq!(produced, vec![0, 1, 0, 1, 0, 1]);
        // The storm drains and a fast-path token finally transfers while the
        // policy is still predicting the replay channel. It must return to
        // the fast path — historically the replay target could never reach
        // channel 0 again, livelocking post-storm recovery onto the shared
        // module's starvation override (one transfer per override window).
        s.tick(&feedback_with_retry(2, 0));
        assert_eq!(s.prediction(), 1);
        s.tick(&feedback_with_resolution(2, 1, 0));
        assert_eq!(s.prediction(), 0, "a resolved transfer re-arms the fast path");
    }

    #[test]
    fn random_scheduler_is_deterministic_and_in_range() {
        // The adversarial policy of the table in `lib.rs` lives in core.
        use elastic_core::scheduler::RandomScheduler;
        let mut a = RandomScheduler::new(3, 7);
        let mut b = RandomScheduler::new(3, 7);
        let fb = SharedFeedback::new(3);
        for _ in 0..100 {
            assert_eq!(a.prediction(), b.prediction());
            assert!(a.prediction() < 3);
            a.tick(&fb);
            b.tick(&fb);
        }
        a.reset();
        let mut c = RandomScheduler::new(3, 7);
        for _ in 0..10 {
            assert_eq!(a.prediction(), c.prediction());
            a.tick(&fb);
            c.tick(&fb);
        }
    }

    #[test]
    fn factory_builds_every_kind() {
        let kinds = vec![
            SchedulerKind::Static(1),
            SchedulerKind::RoundRobin,
            SchedulerKind::LastTaken,
            SchedulerKind::TwoBit,
            SchedulerKind::Correlating { history_bits: 4 },
            SchedulerKind::Sequence(vec![0, 1]),
            SchedulerKind::ErrorReplay,
            SchedulerKind::Confidence { max_confidence: 2 },
        ];
        for kind in kinds {
            let scheduler = from_kind(&kind, 2);
            assert!(scheduler.prediction() < 2, "{kind:?}");
            assert!(!scheduler.name().is_empty());
        }
    }

    #[test]
    fn confidence_hedges_on_a_cadence() {
        let mut s = ConfidenceScheduler::new(2, 2);
        let quiet = SharedFeedback::new(2);
        // No evidence: confidence stays 0, so the period is 2 — the policy
        // predicts the preferred channel twice, then hedges channel 1.
        let mut seen = Vec::new();
        for _ in 0..3 {
            seen.push(s.prediction());
            s.tick(&quiet);
        }
        assert_eq!(seen, vec![0, 0, 1], "hedge fires after the period elapses");
        // The hedge parks a result: the cadence restarts.
        let mut parked = SharedFeedback::new(2);
        parked.predicted = 1;
        parked.output_transfer[1] = true;
        parked.resolved = Some(1);
        s.tick(&parked);
        assert_eq!(s.prediction(), 0, "after a parked hedge the policy returns to preferred");
    }

    #[test]
    fn confidence_stretches_the_period_and_resets_on_contrary_evidence() {
        let mut s = ConfidenceScheduler::new(2, 4);
        // Confirming evidence: a kill passing through the non-preferred lane.
        let mut confirm = SharedFeedback::new(2);
        confirm.output_killed[1] = true;
        for _ in 0..4 {
            s.tick(&confirm);
        }
        assert_eq!(s.period(), 6, "confidence stretches the hedge period");
        // Contrary evidence: a kill passing through the preferred lane resets
        // the counter and schedules an immediate hedge.
        let mut contrary = SharedFeedback::new(2);
        contrary.output_killed[0] = true;
        s.tick(&contrary);
        assert_eq!(s.period(), 2);
        assert_eq!(s.prediction(), 1, "a contrary kill triggers an immediate hedge");
        // A second consecutive contrary kill flips the preferred channel.
        s.tick(&contrary);
        assert_eq!(s.prediction(), 1, "two contrary kills flip the preferred channel");
        assert_eq!(s.period(), 2, "a flip starts over with zero confidence");
    }

    #[test]
    fn confidence_is_safe_for_one_user() {
        let mut s = ConfidenceScheduler::new(1, 2);
        let fb = SharedFeedback::new(1);
        for _ in 0..10 {
            assert_eq!(s.prediction(), 0);
            s.tick(&fb);
        }
    }
}
