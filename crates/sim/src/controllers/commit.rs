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

use elastic_core::CommitSpec;

use crate::controller::{Controller, NodeIo, NodeReport, NodeStats};
use crate::metrics::CommitStageStats;

/// Controller for an in-order commit stage.
#[derive(Debug)]
pub struct CommitStage {
    spec: CommitSpec,
    /// Parked results per lane, oldest first.
    lanes: Vec<std::collections::VecDeque<u64>>,
    /// Results committed (delivered downstream) per lane.
    commits: Vec<u64>,
    /// Results squashed (killed in place) per lane.
    squashes: Vec<u64>,
    /// Highest occupancy each lane ever reached (run-ahead achieved).
    peaks: Vec<u64>,
    stats: NodeStats,
}

impl CommitStage {
    /// Creates the controller with all lanes empty.
    pub fn new(spec: CommitSpec) -> Self {
        let lanes = spec.lanes;
        CommitStage {
            spec,
            lanes: (0..lanes).map(|_| std::collections::VecDeque::new()).collect(),
            commits: vec![0; lanes],
            squashes: vec![0; lanes],
            peaks: vec![0; lanes],
            stats: NodeStats::default(),
        }
    }

    /// Results committed per lane (diagnostic).
    pub fn commits_per_lane(&self) -> &[u64] {
        &self.commits
    }

    /// Results squashed per lane (diagnostic).
    pub fn squashes_per_lane(&self) -> &[u64] {
        &self.squashes
    }

    /// Highest simultaneous occupancy each lane ever reached (diagnostic).
    pub fn peak_occupancy_per_lane(&self) -> &[u64] {
        &self.peaks
    }

    /// Current occupancy of one lane (diagnostic).
    pub fn occupancy(&self, lane: usize) -> usize {
        self.lanes[lane].len()
    }
}

impl Controller for CommitStage {
    fn eval(&self, io: &mut NodeIo<'_>) {
        for lane in 0..self.spec.lanes {
            let fifo = &self.lanes[lane];
            let full = fifo.len() >= self.spec.depth as usize;
            let output = io.output(lane);
            let input = io.input(lane);

            // Forward side: offer the oldest parked result — persistently.
            io.set_output_valid(lane, !fifo.is_empty());
            io.set_output_data(lane, fifo.front().copied().unwrap_or(0));
            // Zero backward latency: a full lane still accepts when its head
            // leaves (transfer or squash) this very cycle.
            io.set_input_stop(lane, full && output.forward_stop && !output.backward_valid);

            // Anti-tokens squash the head in place; an empty lane passes
            // them through combinationally towards the shared module.
            let pass_through = fifo.is_empty() && output.backward_valid;
            io.set_input_kill(lane, pass_through);
            io.set_output_anti_stop(lane, fifo.is_empty() && input.backward_stop);
        }
    }

    fn commit(&mut self, io: &NodeIo<'_>) {
        for lane in 0..self.spec.lanes {
            let input = io.input(lane);
            let output = io.output(lane);

            // Output boundary: the head result commits or is squashed.
            if !self.lanes[lane].is_empty() {
                let squashed = output.backward_transfer();
                let committed = output.forward_valid && !output.forward_stop && !squashed;
                if squashed {
                    self.lanes[lane].pop_front();
                    self.squashes[lane] += 1;
                    self.stats.killed_tokens += 1;
                } else if committed {
                    self.lanes[lane].pop_front();
                    self.commits[lane] += 1;
                    self.stats.output_transfers += 1;
                } else if output.forward_stop {
                    self.stats.stall_cycles += 1;
                }
            }

            // Input boundary: a freshly computed result parks — unless an
            // anti-token was passing through, in which case the two cancel
            // at the boundary and nothing is stored.
            let token_arrived = input.forward_valid && !input.forward_stop;
            let anti_passed = input.backward_transfer();
            if token_arrived {
                if anti_passed {
                    self.squashes[lane] += 1;
                    self.stats.killed_tokens += 1;
                } else {
                    self.lanes[lane].push_back(input.data);
                }
            }
            // The eval-side stop guarantees a lane can never exceed its
            // declared depth: a full lane only accepts in a cycle whose head
            // simultaneously commits or is squashed.
            debug_assert!(
                self.lanes[lane].len() <= self.spec.depth as usize,
                "lane {lane} overflowed its declared depth {}",
                self.spec.depth
            );
            self.peaks[lane] = self.peaks[lane].max(self.lanes[lane].len() as u64);
        }
    }

    fn report(&self) -> NodeReport<'_> {
        NodeReport::Commit(
            self.stats,
            CommitStageStats {
                depth: self.spec.depth,
                commits_per_lane: self.commits.clone(),
                squashes_per_lane: self.squashes.clone(),
                peak_occupancy_per_lane: self.peaks.clone(),
            },
        )
    }

    fn reset(&mut self) {
        for fifo in &mut self.lanes {
            fifo.clear();
        }
        self.commits.iter_mut().for_each(|c| *c = 0);
        self.squashes.iter_mut().for_each(|s| *s = 0);
        self.peaks.iter_mut().for_each(|p| *p = 0);
        self.stats = NodeStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signal::ChannelState;

    // Channel layout: inputs 0,1 (lanes 0,1), outputs 2,3.
    fn io(channels: &mut [ChannelState]) -> NodeIo<'_> {
        NodeIo::new(channels, &[0, 1], &[2, 3])
    }

    fn stage() -> CommitStage {
        CommitStage::new(CommitSpec::new(2))
    }

    #[test]
    fn results_park_and_commit_in_operand_order() {
        let mut stage = stage();
        let mut channels = vec![ChannelState::default(); 4];
        channels[0].forward_valid = true;
        channels[0].data = 0xA;
        stage.eval(&mut io(&mut channels));
        assert!(!channels[2].forward_valid, "one cycle of forward latency");
        assert!(!channels[0].forward_stop, "an empty lane accepts");
        stage.commit(&io(&mut channels));
        assert_eq!(stage.occupancy(0), 1);

        let mut channels = vec![ChannelState::default(); 4];
        stage.eval(&mut io(&mut channels));
        assert!(channels[2].forward_valid);
        assert_eq!(channels[2].data, 0xA);
        stage.commit(&io(&mut channels));
        assert_eq!(stage.commits_per_lane(), &[1, 0]);
        assert_eq!(stage.occupancy(0), 0);
    }

    #[test]
    fn offers_persist_under_back_pressure() {
        let mut stage = stage();
        let mut channels = vec![ChannelState::default(); 4];
        channels[1].forward_valid = true;
        channels[1].data = 7;
        stage.eval(&mut io(&mut channels));
        stage.commit(&io(&mut channels));
        for _ in 0..3 {
            let mut channels = vec![ChannelState::default(); 4];
            channels[3].forward_stop = true; // consumer refuses
            stage.eval(&mut io(&mut channels));
            assert!(channels[3].forward_valid, "a parked result is never retracted");
            assert_eq!(channels[3].data, 7);
            stage.commit(&io(&mut channels));
        }
        assert_eq!(stage.occupancy(1), 1);
    }

    #[test]
    fn anti_tokens_squash_the_parked_result_in_place() {
        let mut stage = stage();
        let mut channels = vec![ChannelState::default(); 4];
        channels[0].forward_valid = true;
        channels[0].data = 3;
        stage.eval(&mut io(&mut channels));
        stage.commit(&io(&mut channels));

        let mut channels = vec![ChannelState::default(); 4];
        channels[2].backward_valid = true; // wrong-path result
        channels[2].forward_stop = true;
        stage.eval(&mut io(&mut channels));
        assert!(!channels[2].backward_stop, "the lane absorbs the kill");
        assert!(!channels[0].backward_valid, "nothing passes upstream");
        stage.commit(&io(&mut channels));
        assert_eq!(stage.squashes_per_lane(), &[1, 0]);
        assert_eq!(stage.occupancy(0), 0);
    }

    #[test]
    fn kills_pass_through_empty_lanes_combinationally() {
        let stage = stage();
        let mut channels = vec![ChannelState::default(); 4];
        channels[2].backward_valid = true;
        stage.eval(&mut io(&mut channels));
        assert!(channels[0].backward_valid, "the kill continues towards the shared module");
        assert!(!channels[2].backward_stop);
    }

    #[test]
    fn a_full_lane_stops_the_shared_module_until_the_head_leaves() {
        let mut stage = stage();
        let mut channels = vec![ChannelState::default(); 4];
        channels[0].forward_valid = true;
        stage.eval(&mut io(&mut channels));
        stage.commit(&io(&mut channels));

        // Depth 1, occupied, consumer stalls: the producer is stopped.
        let mut channels = vec![ChannelState::default(); 4];
        channels[0].forward_valid = true;
        channels[2].forward_stop = true;
        stage.eval(&mut io(&mut channels));
        assert!(channels[0].forward_stop);
        // Consumer accepts: the head leaves, so the lane accepts in the same
        // cycle (zero backward latency).
        channels[2].forward_stop = false;
        stage.eval(&mut io(&mut channels));
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
            stage.eval(&mut io(&mut channels));
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
        stage.eval(&mut io(&mut channels));
        stage.commit(&io(&mut channels));
        assert_eq!(stage.occupancy(0), 1);
        assert_eq!(stage.peak_occupancy_per_lane(), &[1, 0]);
        stage.reset();
        assert_eq!(stage.occupancy(0), 0);
        assert_eq!(stage.commits_per_lane(), &[0, 0]);
        assert_eq!(stage.peak_occupancy_per_lane(), &[0, 0]);
        assert_eq!(
            stage.report(),
            NodeReport::Commit(
                NodeStats::default(),
                CommitStageStats {
                    depth: 1,
                    commits_per_lane: vec![0, 0],
                    squashes_per_lane: vec![0, 0],
                    peak_occupancy_per_lane: vec![0, 0],
                }
            )
        );
    }

    // Single-lane layout used by the depth-N tests: input 0, output 1.
    fn io1(channels: &mut [ChannelState]) -> NodeIo<'_> {
        NodeIo::new(channels, &[0], &[1])
    }

    /// Parks `values` into lane 0 of `stage` while the consumer stalls.
    fn park(stage: &mut CommitStage, values: &[u64]) {
        for &value in values {
            let mut channels = vec![ChannelState::default(); 2];
            channels[0].forward_valid = true;
            channels[0].data = value;
            channels[1].forward_stop = true;
            stage.eval(&mut io1(&mut channels));
            assert!(!channels[0].forward_stop, "lane must have room for {value}");
            stage.commit(&io1(&mut channels));
        }
    }

    #[test]
    fn deep_lanes_squash_several_in_flight_wrong_path_results() {
        // Three wrong-path results are in flight when the mux resolves the
        // other way: each anti-token squashes exactly the oldest entry, in
        // place, without disturbing the entries behind it.
        let mut stage = CommitStage::new(CommitSpec::new(1).with_depth(4));
        park(&mut stage, &[10, 11, 12]);
        assert_eq!(stage.occupancy(0), 3);
        for expected_left in [2usize, 1, 0] {
            let mut channels = vec![ChannelState::default(); 2];
            channels[1].backward_valid = true;
            channels[1].forward_stop = true;
            stage.eval(&mut io1(&mut channels));
            assert!(!channels[1].backward_stop, "an occupied lane absorbs the kill");
            assert!(!channels[0].backward_valid, "nothing passes towards the shared module");
            stage.commit(&io1(&mut channels));
            assert_eq!(stage.occupancy(0), expected_left);
        }
        assert_eq!(stage.squashes_per_lane(), &[3]);
        assert_eq!(stage.commits_per_lane(), &[0]);

        // The lane recovers: a right-path result parks and commits in order.
        park(&mut stage, &[42]);
        let mut channels = vec![ChannelState::default(); 2];
        stage.eval(&mut io1(&mut channels));
        assert!(channels[1].forward_valid);
        assert_eq!(channels[1].data, 42);
        stage.commit(&io1(&mut channels));
        assert_eq!(stage.commits_per_lane(), &[1]);
    }

    #[test]
    fn a_full_deep_lane_accepts_while_its_head_is_squashed() {
        // Zero backward latency must hold at every depth: a full lane still
        // accepts a fresh result in the cycle its head is killed in place.
        let mut stage = CommitStage::new(CommitSpec::new(1).with_depth(2));
        park(&mut stage, &[1, 2]);
        let mut channels = vec![ChannelState::default(); 2];
        channels[0].forward_valid = true;
        channels[0].data = 3;
        channels[1].backward_valid = true;
        channels[1].forward_stop = true;
        stage.eval(&mut io1(&mut channels));
        assert!(!channels[0].forward_stop, "the head leaves, so the lane accepts");
        stage.commit(&io1(&mut channels));
        assert_eq!(stage.occupancy(0), 2);
        assert_eq!(stage.squashes_per_lane(), &[1]);
        // Order is preserved across the squash: 2 then 3 drain.
        for expected in [2u64, 3] {
            let mut channels = vec![ChannelState::default(); 2];
            stage.eval(&mut io1(&mut channels));
            assert_eq!(channels[1].data, expected);
            assert!(channels[1].forward_valid);
            stage.commit(&io1(&mut channels));
        }
        assert_eq!(stage.commits_per_lane(), &[2]);
    }

    #[test]
    fn peak_occupancy_records_the_run_ahead_actually_achieved() {
        let mut stage = CommitStage::new(CommitSpec::new(1).with_depth(4));
        park(&mut stage, &[1, 2, 3]);
        assert_eq!(stage.peak_occupancy_per_lane(), &[3]);
        // Draining does not lower the recorded peak.
        let mut channels = vec![ChannelState::default(); 2];
        stage.eval(&mut io1(&mut channels));
        stage.commit(&io1(&mut channels));
        assert_eq!(stage.occupancy(0), 2);
        assert_eq!(stage.peak_occupancy_per_lane(), &[3]);
        let NodeReport::Commit(_, stats) = stage.report() else {
            panic!("a commit stage reports commit-stage statistics")
        };
        assert_eq!(stats.depth, 4);
        assert_eq!(stats.peak_occupancy_per_lane, vec![3]);
        assert!((stats.mean_peak_occupancy().unwrap() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn deeper_lanes_let_the_scheduler_run_ahead() {
        let mut stage = CommitStage::new(CommitSpec::new(1).with_depth(2));
        let mut channels = vec![ChannelState::default(); 2];
        // Two results park while the consumer stalls; the third is stopped.
        for value in [1u64, 2] {
            channels[0].forward_valid = true;
            channels[0].data = value;
            channels[1].forward_stop = true;
            stage.eval(&mut io1(&mut channels));
            assert!(!channels[0].forward_stop, "lane has room for {value}");
            stage.commit(&io1(&mut channels));
        }
        channels[0].forward_valid = true;
        channels[0].data = 3;
        channels[1].forward_stop = true;
        stage.eval(&mut io1(&mut channels));
        assert!(channels[0].forward_stop, "depth 2 exhausted");
        // Results drain oldest-first.
        channels[0].forward_valid = false;
        channels[1].forward_stop = false;
        stage.eval(&mut io1(&mut channels));
        assert_eq!(channels[1].data, 1);
        stage.commit(&io1(&mut channels));
        stage.eval(&mut io1(&mut channels));
        assert_eq!(channels[1].data, 2);
    }
}
