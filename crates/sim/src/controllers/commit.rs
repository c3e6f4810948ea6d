//! The in-order commit stage of a speculative shared module (Section 4.2).
//!
//! One lane per shared-module user. Each lane is a small FIFO that parks the
//! user's speculatively computed results until the consumer — the
//! early-evaluation multiplexor resolving the speculation — either
//! **commits** a result (forward transfer) or **squashes** it (anti-token).
//! Three properties make the composition sound for *any* scheduler:
//!
//! * **persistence** — a lane's offered result is a function of its FIFO
//!   occupancy alone, so the offer never retracts when the shared module's
//!   prediction changes; the retraction wave of Section 4.2 dies at this
//!   stage;
//! * **per-lane program order** — a lane delivers results in exactly the
//!   order its user's operands were consumed (FIFO), so per-user streams can
//!   never reorder no matter how the scheduler interleaves the users;
//! * **decoupling** — a granted user's result is accepted the moment it is
//!   computed (lane not full), whether or not the consumer is ready that
//!   cycle, so an adversarial scheduler can no longer starve a user against
//!   aligned consumer back-pressure.
//!
//! The backward (stop/kill) path is combinational, like the Figure-5
//! zero-backward buffer: a kill arriving at an empty lane continues towards
//! the shared module in the same cycle, where it annihilates the waiting
//! operand — keeping misprediction recovery single-cycle (Section 4.3).
//!
//! The stage is generic over the rail word. To keep the two meanings of
//! "lane" apart, the code calls a commit-stage lane a *user* and keeps
//! `lane` for the rail lane. Each user's FIFO is a `TokenFifo` of slot
//! columns, whose thermometer words are the occupancy words
//! [`crate::handshake::commit_lane`] reads, so the clock edge moves tokens
//! by word and column. Only the per-lane counters behind
//! [`CommitStageStats`] visit lanes, the set lanes of the event words.

use elastic_core::CommitSpec;

use crate::controller::{Controller, NodeReport};
use crate::controllers::buffer::TokenFifo;
use crate::handshake::{commit_lane, HandshakeIo, Rail};
use crate::metrics::CommitStageStats;

/// Controller for an in-order commit stage, per lane of the rail word `R`.
#[derive(Debug)]
pub struct CommitStage<R: Rail> {
    depth: u32,
    /// Parked results per user, oldest first.
    fifos: Vec<TokenFifo<R>>,
    /// Commits, squashes and peak occupancy per rail lane and user,
    /// lane-major: `commits[lane * users + user]`.
    commits: Vec<u64>,
    squashes: Vec<u64>,
    peaks: Vec<u64>,
}

impl<R: Rail> CommitStage<R> {
    /// Creates the controller with all lanes empty.
    pub fn new(spec: CommitSpec) -> Self {
        let users = spec.lanes;
        let mut stage = CommitStage {
            depth: spec.depth,
            fifos: (0..users).map(|_| TokenFifo::new(spec.depth as usize)).collect(),
            commits: vec![0; users * R::LANES],
            squashes: vec![0; users * R::LANES],
            peaks: vec![0; users * R::LANES],
        };
        stage.reset();
        stage
    }

    /// Current occupancy of user lane `user` in rail lane `lane`
    /// (diagnostic).
    pub fn occupancy(&self, user: usize, lane: usize) -> usize {
        self.fifos[user].len(lane)
    }

    /// User `user`'s clock edge on the cycle's boundary events, one word
    /// each: the consumer's anti-token accepted (`kill`), the offered result
    /// taken (`transfer`), a result arrived, and an anti-token passing it at
    /// the input (`cancel`); `data` is the input column.
    fn clock(&mut self, user: usize, kill: R, transfer: R, arrived: R, cancel: R, data: &[u64]) {
        let users = self.fifos.len();
        let fifo = &mut self.fifos[user];
        // Output boundary: the head result commits or is squashed.
        let occupied = fifo.at_least(1);
        let squashed = occupied & kill;
        let committed = occupied & transfer & !squashed;
        fifo.pop(squashed | committed);
        // Input boundary: a freshly computed result parks — unless an
        // anti-token was passing through, in which case the two cancel at
        // the boundary and nothing is stored. A fault can push a result
        // into a full lane; the FIFO grows rather than lose it.
        let cancelled = arrived & cancel;
        let parked = arrived & !cancelled;
        fifo.push(parked, data);
        for lane in committed.lanes() {
            self.commits[lane * users + user] += 1;
        }
        for lane in squashed.lanes() {
            self.squashes[lane * users + user] += 1;
        }
        for lane in cancelled.lanes() {
            self.squashes[lane * users + user] += 1;
        }
        for lane in parked.lanes() {
            let peak = &mut self.peaks[lane * users + user];
            *peak = (*peak).max(fifo.len(lane) as u64);
        }
    }
}

impl<R: Rail> Controller<R> for CommitStage<R> {
    fn eval(&self, io: &mut R::Io<'_>, _optimistic: bool) {
        let depth = self.depth as usize;
        for (user, fifo) in self.fifos.iter().enumerate() {
            commit_lane(io, user, fifo.at_least(1), fifo.at_least(depth), fifo.front());
        }
    }

    fn commit(&mut self, io: &R::Io<'_>) {
        for user in 0..self.fifos.len() {
            let kill = io.output_kill(user) & !io.output_anti_stop(user);
            let transfer = io.output_valid(user) & !io.output_stop(user);
            let arrived = io.input_valid(user) & !io.input_stop(user);
            let cancel = io.input_kill(user) & !io.input_anti_stop(user);
            self.clock(user, kill, transfer, arrived, cancel, io.input_data(user));
        }
    }

    fn reset(&mut self) {
        for fifo in &mut self.fifos {
            fifo.refill(0, 0);
        }
        self.commits.fill(0);
        self.squashes.fill(0);
        self.peaks.fill(0);
    }

    fn report(&self, lane: usize) -> Option<NodeReport<'_>> {
        let users = self.fifos.len();
        let row = |counts: &[u64]| counts[lane * users..][..users].to_vec();
        Some(NodeReport::Commit(CommitStageStats {
            depth: self.depth,
            commits_per_lane: row(&self.commits),
            squashes_per_lane: row(&self.squashes),
            peak_occupancy_per_lane: row(&self.peaks),
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::{Controller, NodeIo};
    use crate::controllers::buffer::oracle::TokenRing;
    use crate::signal::ChannelState;
    use elastic_core::mix::splitmix64;

    /// The stage as it was: a token ring per user and the counters, clocked
    /// lane by lane.
    struct RingStage<R: Rail> {
        depth: u32,
        fifos: Vec<TokenRing<R>>,
        occupied: Vec<R>,
        full: Vec<R>,
        /// `[commits, squashes, peaks][lane][user]`.
        counts: [Vec<Vec<u64>>; 3],
    }

    impl<R: Rail> RingStage<R> {
        fn new(users: usize, depth: u32) -> Self {
            RingStage {
                depth,
                fifos: (0..users).map(|_| TokenRing::new(depth as usize)).collect(),
                occupied: vec![R::LOW; users],
                full: vec![R::LOW; users],
                counts: std::array::from_fn(|_| vec![vec![0; users]; R::LANES]),
            }
        }

        fn clock(
            &mut self,
            user: usize,
            kill: R,
            transfer: R,
            arrived: R,
            cancel: R,
            data: &[u64],
        ) {
            let occupied = self.occupied[user];
            let squashed = occupied & kill;
            let committed = occupied & transfer & !squashed;
            let cancelled = arrived & cancel;
            let fifo = &mut self.fifos[user];
            let [commits, squashes, peaks] = &mut self.counts;
            for lane in (squashed | committed | arrived).lanes() {
                if squashed.in_lane(lane) {
                    fifo.pop_front(lane);
                    squashes[lane][user] += 1;
                } else if committed.in_lane(lane) {
                    fifo.pop_front(lane);
                    commits[lane][user] += 1;
                }
                if cancelled.in_lane(lane) {
                    squashes[lane][user] += 1;
                } else if arrived.in_lane(lane) {
                    fifo.push_back(lane, data[lane]);
                    peaks[lane][user] = peaks[lane][user].max(u64::from(fifo.len(lane)));
                }
                let len = fifo.len(lane);
                self.occupied[user] = self.occupied[user].with_lane(lane, len > 0);
                self.full[user] = self.full[user].with_lane(lane, len >= self.depth);
            }
        }
    }

    /// Clocks the word stage and the ring stage on the same seeded event
    /// words and data columns, filling, draining and overfilling their
    /// users, and compares the occupancy words, the driven columns, every
    /// lane's occupancy and every lane's counters after each step.
    fn assert_stage_matches_rings<R: Rail>(users: usize, depth: u32, seed: u64) {
        let mut word = CommitStage::<R>::new(CommitSpec::new(users).with_depth(depth));
        let mut ring = RingStage::<R>::new(users, depth);
        let mut stream = seed << 32;
        let mut next = || {
            stream += 1;
            splitmix64(stream)
        };
        for step in 0..400 {
            let phase = step / 30 % 3;
            for user in 0..users {
                let mut event = |dense: bool| {
                    let (a, b) = (next(), next());
                    R::from_word(if dense { a | b } else { a & b })
                };
                let (kill, transfer) = (event(phase == 1), event(phase != 0));
                let (arrived, cancel) = (event(phase != 1), event(false));
                let data: Vec<u64> = (0..R::LANES).map(|_| next()).collect();
                word.clock(user, kill, transfer, arrived, cancel, &data);
                ring.clock(user, kill, transfer, arrived, cancel, &data);
                let at = format!("users {users} depth {depth} seed {seed} step {step} user {user}");
                let fifo = &word.fifos[user];
                assert_eq!(fifo.at_least(1), ring.occupied[user], "occupied, {at}");
                assert_eq!(fifo.at_least(depth as usize), ring.full[user], "full, {at}");
                assert_eq!(fifo.front(), ring.fifos[user].front(), "driven column, {at}");
                for lane in 0..R::LANES {
                    let len = ring.fifos[user].len(lane) as usize;
                    assert_eq!(word.occupancy(user, lane), len, "lane {lane}, {at}");
                }
            }
            for lane in 0..R::LANES {
                let Some(NodeReport::Commit(stats)) = word.report(lane) else { unreachable!() };
                let [commits, squashes, peaks] = &ring.counts;
                assert_eq!(stats.commits_per_lane, commits[lane], "commits, lane {lane}");
                assert_eq!(stats.squashes_per_lane, squashes[lane], "squashes, lane {lane}");
                assert_eq!(stats.peak_occupancy_per_lane, peaks[lane], "peaks, lane {lane}");
            }
        }
    }

    #[test]
    fn the_word_fifos_match_the_per_lane_token_rings_at_both_rail_words() {
        for (users, depth) in [(1, 1), (2, 1), (2, 3), (3, 2)] {
            for seed in 0..2 {
                assert_stage_matches_rings::<u64>(users, depth, seed);
                assert_stage_matches_rings::<bool>(users, depth, seed);
            }
        }
    }

    // Channel layout: inputs 0,1 (lanes 0,1), outputs 2,3.
    fn io(channels: &mut [ChannelState]) -> NodeIo<'_> {
        NodeIo::new(channels, &[0, 1], &[2, 3])
    }

    fn stage() -> CommitStage<bool> {
        CommitStage::new(CommitSpec::new(2))
    }

    /// The stage's counters, as it reports them.
    fn stats(stage: &CommitStage<bool>) -> CommitStageStats {
        let Some(NodeReport::Commit(stats)) = stage.report(0) else {
            panic!("a commit stage reports commit-stage statistics")
        };
        stats
    }

    #[test]
    fn results_park_and_commit_in_operand_order() {
        let mut stage = stage();
        let mut channels = vec![ChannelState::default(); 4];
        channels[0].forward_valid = true;
        channels[0].data = 0xA;
        stage.eval(&mut io(&mut channels), false);
        assert!(!channels[2].forward_valid, "one cycle of forward latency");
        assert!(!channels[0].forward_stop, "an empty lane accepts");
        stage.commit(&io(&mut channels));
        assert_eq!(stage.occupancy(0, 0), 1);

        let mut channels = vec![ChannelState::default(); 4];
        stage.eval(&mut io(&mut channels), false);
        assert!(channels[2].forward_valid);
        assert_eq!(channels[2].data, 0xA);
        stage.commit(&io(&mut channels));
        assert_eq!(stats(&stage).commits_per_lane, &[1, 0]);
        assert_eq!(stage.occupancy(0, 0), 0);
    }

    #[test]
    fn offers_persist_under_back_pressure() {
        let mut stage = stage();
        let mut channels = vec![ChannelState::default(); 4];
        channels[1].forward_valid = true;
        channels[1].data = 7;
        stage.eval(&mut io(&mut channels), false);
        stage.commit(&io(&mut channels));
        for _ in 0..3 {
            let mut channels = vec![ChannelState::default(); 4];
            channels[3].forward_stop = true; // consumer refuses
            stage.eval(&mut io(&mut channels), false);
            assert!(channels[3].forward_valid, "a parked result is never retracted");
            assert_eq!(channels[3].data, 7);
            stage.commit(&io(&mut channels));
        }
        assert_eq!(stage.occupancy(1, 0), 1);
    }

    #[test]
    fn anti_tokens_squash_the_parked_result_in_place() {
        let mut stage = stage();
        let mut channels = vec![ChannelState::default(); 4];
        channels[0].forward_valid = true;
        channels[0].data = 3;
        stage.eval(&mut io(&mut channels), false);
        stage.commit(&io(&mut channels));

        let mut channels = vec![ChannelState::default(); 4];
        channels[2].backward_valid = true; // wrong-path result
        channels[2].forward_stop = true;
        stage.eval(&mut io(&mut channels), false);
        assert!(!channels[2].backward_stop, "the lane absorbs the kill");
        assert!(!channels[0].backward_valid, "nothing passes upstream");
        stage.commit(&io(&mut channels));
        assert_eq!(stats(&stage).squashes_per_lane, &[1, 0]);
        assert_eq!(stage.occupancy(0, 0), 0);
    }

    #[test]
    fn kills_pass_through_empty_lanes_combinationally() {
        let stage = stage();
        let mut channels = vec![ChannelState::default(); 4];
        channels[2].backward_valid = true;
        stage.eval(&mut io(&mut channels), false);
        assert!(channels[0].backward_valid, "the kill continues towards the shared module");
        assert!(!channels[2].backward_stop);
    }

    #[test]
    fn a_full_lane_stops_the_shared_module_until_the_head_leaves() {
        let mut stage = stage();
        let mut channels = vec![ChannelState::default(); 4];
        channels[0].forward_valid = true;
        stage.eval(&mut io(&mut channels), false);
        stage.commit(&io(&mut channels));

        // Depth 1, occupied, consumer stalls: the producer is stopped.
        let mut channels = vec![ChannelState::default(); 4];
        channels[0].forward_valid = true;
        channels[2].forward_stop = true;
        stage.eval(&mut io(&mut channels), false);
        assert!(channels[0].forward_stop);
        // Consumer accepts: the head leaves, so the lane accepts in the same
        // cycle (zero backward latency).
        channels[2].forward_stop = false;
        stage.eval(&mut io(&mut channels), false);
        assert!(!channels[0].forward_stop);
    }

    #[test]
    fn lanes_sustain_full_throughput() {
        let mut stage = stage();
        let mut received = Vec::new();
        let mut channels = vec![ChannelState::default(); 4];
        for value in 0..8u64 {
            channels[0].forward_valid = true;
            channels[0].data = value;
            stage.eval(&mut io(&mut channels), false);
            if channels[2].forward_valid {
                received.push(channels[2].data);
            }
            stage.commit(&io(&mut channels));
        }
        assert_eq!(received, vec![0, 1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn reset_rewinds_lanes_and_statistics() {
        let mut stage = stage();
        let mut channels = vec![ChannelState::default(); 4];
        channels[0].forward_valid = true;
        stage.eval(&mut io(&mut channels), false);
        stage.commit(&io(&mut channels));
        assert_eq!(stage.occupancy(0, 0), 1);
        assert_eq!(stats(&stage).peak_occupancy_per_lane, &[1, 0]);
        stage.reset();
        assert_eq!(stage.occupancy(0, 0), 0);
        assert_eq!(stats(&stage).commits_per_lane, &[0, 0]);
        assert_eq!(stats(&stage).peak_occupancy_per_lane, &[0, 0]);
        assert_eq!(
            stage.report(0),
            Some(NodeReport::Commit(CommitStageStats {
                depth: 1,
                commits_per_lane: vec![0, 0],
                squashes_per_lane: vec![0, 0],
                peak_occupancy_per_lane: vec![0, 0],
            }))
        );
    }

    // Single-lane layout used by the depth-N tests: input 0, output 1.
    fn io1(channels: &mut [ChannelState]) -> NodeIo<'_> {
        NodeIo::new(channels, &[0], &[1])
    }

    /// Parks `values` into lane 0 of `stage` while the consumer stalls.
    fn park(stage: &mut CommitStage<bool>, values: &[u64]) {
        for &value in values {
            let mut channels = vec![ChannelState::default(); 2];
            channels[0].forward_valid = true;
            channels[0].data = value;
            channels[1].forward_stop = true;
            stage.eval(&mut io1(&mut channels), false);
            assert!(!channels[0].forward_stop, "lane must have room for {value}");
            stage.commit(&io1(&mut channels));
        }
    }

    #[test]
    fn deep_lanes_squash_several_in_flight_wrong_path_results() {
        // Three wrong-path results are in flight when the mux resolves the
        // other way: each anti-token squashes exactly the oldest entry, in
        // place, without disturbing the entries behind it.
        let mut stage = CommitStage::<bool>::new(CommitSpec::new(1).with_depth(4));
        park(&mut stage, &[10, 11, 12]);
        assert_eq!(stage.occupancy(0, 0), 3);
        for expected_left in [2usize, 1, 0] {
            let mut channels = vec![ChannelState::default(); 2];
            channels[1].backward_valid = true;
            channels[1].forward_stop = true;
            stage.eval(&mut io1(&mut channels), false);
            assert!(!channels[1].backward_stop, "an occupied lane absorbs the kill");
            assert!(!channels[0].backward_valid, "nothing passes towards the shared module");
            stage.commit(&io1(&mut channels));
            assert_eq!(stage.occupancy(0, 0), expected_left);
        }
        assert_eq!(stats(&stage).squashes_per_lane, &[3]);
        assert_eq!(stats(&stage).commits_per_lane, &[0]);

        // The lane recovers: a right-path result parks and commits in order.
        park(&mut stage, &[42]);
        let mut channels = vec![ChannelState::default(); 2];
        stage.eval(&mut io1(&mut channels), false);
        assert!(channels[1].forward_valid);
        assert_eq!(channels[1].data, 42);
        stage.commit(&io1(&mut channels));
        assert_eq!(stats(&stage).commits_per_lane, &[1]);
    }

    #[test]
    fn a_full_deep_lane_accepts_while_its_head_is_squashed() {
        // Zero backward latency must hold at every depth: a full lane still
        // accepts a fresh result in the cycle its head is killed in place.
        let mut stage = CommitStage::<bool>::new(CommitSpec::new(1).with_depth(2));
        park(&mut stage, &[1, 2]);
        let mut channels = vec![ChannelState::default(); 2];
        channels[0].forward_valid = true;
        channels[0].data = 3;
        channels[1].backward_valid = true;
        channels[1].forward_stop = true;
        stage.eval(&mut io1(&mut channels), false);
        assert!(!channels[0].forward_stop, "the head leaves, so the lane accepts");
        stage.commit(&io1(&mut channels));
        assert_eq!(stage.occupancy(0, 0), 2);
        assert_eq!(stats(&stage).squashes_per_lane, &[1]);
        // Order is preserved across the squash: 2 then 3 drain.
        for expected in [2u64, 3] {
            let mut channels = vec![ChannelState::default(); 2];
            stage.eval(&mut io1(&mut channels), false);
            assert_eq!(channels[1].data, expected);
            assert!(channels[1].forward_valid);
            stage.commit(&io1(&mut channels));
        }
        assert_eq!(stats(&stage).commits_per_lane, &[2]);
    }

    #[test]
    fn peak_occupancy_records_the_run_ahead_actually_achieved() {
        let mut stage = CommitStage::<bool>::new(CommitSpec::new(1).with_depth(4));
        park(&mut stage, &[1, 2, 3]);
        assert_eq!(stats(&stage).peak_occupancy_per_lane, &[3]);
        // Draining does not lower the recorded peak.
        let mut channels = vec![ChannelState::default(); 2];
        stage.eval(&mut io1(&mut channels), false);
        stage.commit(&io1(&mut channels));
        assert_eq!(stage.occupancy(0, 0), 2);
        assert_eq!(stats(&stage).peak_occupancy_per_lane, &[3]);
        let Some(NodeReport::Commit(stats)) = stage.report(0) else {
            panic!("a commit stage reports commit-stage statistics")
        };
        assert_eq!(stats.depth, 4);
        assert_eq!(stats.peak_occupancy_per_lane, vec![3]);
        assert!((stats.mean_peak_occupancy().unwrap() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn deeper_lanes_let_the_scheduler_run_ahead() {
        let mut stage = CommitStage::<bool>::new(CommitSpec::new(1).with_depth(2));
        let mut channels = vec![ChannelState::default(); 2];
        // Two results park while the consumer stalls; the third is stopped.
        for value in [1u64, 2] {
            channels[0].forward_valid = true;
            channels[0].data = value;
            channels[1].forward_stop = true;
            stage.eval(&mut io1(&mut channels), false);
            assert!(!channels[0].forward_stop, "lane has room for {value}");
            stage.commit(&io1(&mut channels));
        }
        channels[0].forward_valid = true;
        channels[0].data = 3;
        channels[1].forward_stop = true;
        stage.eval(&mut io1(&mut channels), false);
        assert!(channels[0].forward_stop, "depth 2 exhausted");
        // Results drain oldest-first.
        channels[0].forward_valid = false;
        channels[1].forward_stop = false;
        stage.eval(&mut io1(&mut channels), false);
        assert_eq!(channels[1].data, 1);
        stage.commit(&io1(&mut channels));
        stage.eval(&mut io1(&mut channels), false);
        assert_eq!(channels[1].data, 2);
    }
}
