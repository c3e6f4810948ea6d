//! Elastic buffer controllers.
//!
//! Two implementations mirror the two EB variants of the paper:
//!
//! * [`StandardBuffer`] — the latch-based EB of Figure 2(a): forward latency
//!   1, backward latency 1, capacity ≥ 2. All of its driven signals are
//!   functions of the sequential state only, which is exactly what gives it
//!   its one-cycle backward latency.
//! * [`ZeroBackwardBuffer`] — the Figure-5 EB: forward latency 1, backward
//!   latency 0, capacity 1. Stop and kill information traverses it
//!   combinationally, which is what makes speculation recovery fast
//!   (Section 4.3).
//!
//! Both follow the abstract FIFO model of Figure 3: the buffer stores either
//! tokens or anti-tokens (never both), and tokens/anti-tokens cancel at its
//! boundaries.

use std::collections::VecDeque;

use elastic_core::BufferSpec;

use crate::controller::{Controller, NodeIo, NodeReport, NodeStats};

const IN: usize = 0;
const OUT: usize = 0;

/// The standard `Lf = 1`, `Lb = 1` elastic buffer.
#[derive(Debug)]
pub struct StandardBuffer {
    spec: BufferSpec,
    tokens: VecDeque<u64>,
    anti_tokens: u32,
    stats: NodeStats,
}

impl StandardBuffer {
    /// Creates the buffer with its initial occupancy.
    pub fn new(spec: BufferSpec) -> Self {
        let mut tokens = VecDeque::new();
        for _ in 0..spec.init_tokens.max(0) {
            tokens.push_back(spec.init_value);
        }
        let anti_tokens = (-spec.init_tokens).max(0) as u32;
        StandardBuffer { spec, tokens, anti_tokens, stats: NodeStats::default() }
    }

    /// Number of tokens currently stored (diagnostic).
    pub fn occupancy(&self) -> usize {
        self.tokens.len()
    }
}

impl StandardBuffer {
    fn rewind(&mut self) {
        self.tokens.clear();
        for _ in 0..self.spec.init_tokens.max(0) {
            self.tokens.push_back(self.spec.init_value);
        }
        self.anti_tokens = (-self.spec.init_tokens).max(0) as u32;
        self.stats = NodeStats::default();
    }
}

impl Controller for StandardBuffer {
    fn eval(&self, io: &mut NodeIo<'_>) {
        // Forward side: offer the oldest token; stop the producer when full.
        io.set_output_valid(OUT, !self.tokens.is_empty());
        io.set_output_data(OUT, self.tokens.front().copied().unwrap_or(0));
        io.set_input_stop(IN, self.tokens.len() >= self.spec.capacity as usize);
        // Backward side: propagate stored anti-tokens towards the producer;
        // refuse new anti-tokens only when there is neither a token to cancel
        // against nor room in the counterflow storage.
        io.set_input_kill(IN, self.anti_tokens > 0);
        let can_absorb_anti = !self.tokens.is_empty() || self.anti_tokens < self.spec.anti_capacity;
        io.set_output_anti_stop(OUT, !can_absorb_anti);
    }

    fn commit(&mut self, io: &NodeIo<'_>) {
        let input = io.input(IN);
        let output = io.output(OUT);

        // Output boundary: a token leaves, or is cancelled by an incoming
        // anti-token (kill wins when both could happen).
        let out_kill = output.backward_transfer();
        let out_transfer = output.forward_valid && !output.forward_stop && !out_kill;
        if out_kill {
            if self.tokens.pop_front().is_some() {
                self.stats.killed_tokens += 1;
            } else {
                self.anti_tokens = (self.anti_tokens + 1).min(self.spec.anti_capacity);
            }
        } else if out_transfer {
            self.tokens.pop_front();
            self.stats.output_transfers += 1;
        } else if output.forward_valid && output.forward_stop {
            self.stats.stall_cycles += 1;
        }

        // Input boundary: an anti-token leaves backwards and/or a token
        // arrives; when both meet they annihilate.
        let anti_left = input.backward_transfer();
        let token_arrived = input.forward_valid && !input.forward_stop;
        match (token_arrived, anti_left) {
            (true, true) => {
                // The arriving token cancels against the anti-token at the boundary.
                self.anti_tokens = self.anti_tokens.saturating_sub(1);
                self.stats.killed_tokens += 1;
            }
            (true, false) => {
                if self.anti_tokens > 0 {
                    self.anti_tokens -= 1;
                    self.stats.killed_tokens += 1;
                } else {
                    self.tokens.push_back(input.data);
                }
            }
            (false, true) => {
                self.anti_tokens = self.anti_tokens.saturating_sub(1);
            }
            (false, false) => {}
        }
    }

    fn report(&self) -> NodeReport<'_> {
        NodeReport::Basic(self.stats)
    }

    fn reset(&mut self) {
        self.rewind();
    }

    /// Both handshake directions are fully registered: `eval` is a function
    /// of the FIFO state alone, so the standard buffer cuts every zero-delay
    /// control path and is never re-evaluated within a cycle.
    fn eval_reads_channels(&self) -> bool {
        false
    }
}

/// The `Lf = 1`, `Lb = 0`, `C = 1` elastic buffer of Figure 5.
#[derive(Debug)]
pub struct ZeroBackwardBuffer {
    /// The initial occupancy restored by [`Controller::reset`].
    initial: Option<u64>,
    stored: Option<u64>,
    stats: NodeStats,
}

impl ZeroBackwardBuffer {
    /// Creates the buffer with its initial occupancy (at most one token).
    pub fn new(spec: BufferSpec) -> Self {
        let initial = if spec.init_tokens > 0 { Some(spec.init_value) } else { None };
        ZeroBackwardBuffer { initial, stored: initial, stats: NodeStats::default() }
    }

    /// `true` when the buffer currently stores a token (diagnostic).
    pub fn is_full(&self) -> bool {
        self.stored.is_some()
    }

    /// The stored word, if any — the only sequential state `eval` reads.
    /// Exposed so the compiled settle backend (and codegen output) can
    /// snapshot it once per cycle instead of dispatching through the trait.
    pub fn stored(&self) -> Option<u64> {
        self.stored
    }
}

impl Controller for ZeroBackwardBuffer {
    fn eval(&self, io: &mut NodeIo<'_>) {
        let full = self.stored.is_some();
        let output = io.output(OUT);
        let input = io.input(IN);

        io.set_output_valid(OUT, full);
        io.set_output_data(OUT, self.stored.unwrap_or(0));
        // Backward latency 0: the producer-facing stop combines the occupancy
        // with the consumer's stop in the same cycle.
        io.set_input_stop(IN, full && output.forward_stop && !output.backward_valid);
        // Anti-tokens pass through combinationally when the buffer is empty;
        // a stored token absorbs them. Stop them only when they can neither
        // cancel here nor continue upstream.
        let pass_through = !full && output.backward_valid;
        io.set_input_kill(IN, pass_through);
        io.set_output_anti_stop(OUT, !full && input.backward_stop);
    }

    fn commit(&mut self, io: &NodeIo<'_>) {
        let input = io.input(IN);
        let output = io.output(OUT);
        let was_full = self.stored.is_some();

        if was_full {
            let killed = output.backward_transfer();
            let left = output.forward_valid && !output.forward_stop && !killed;
            if killed {
                self.stored = None;
                self.stats.killed_tokens += 1;
            } else if left {
                self.stored = None;
                self.stats.output_transfers += 1;
            } else if output.forward_stop {
                self.stats.stall_cycles += 1;
            }
        }

        // Input boundary. A token is accepted when the producer saw no stop;
        // if an anti-token was simultaneously passing through, the two cancel
        // at the boundary and nothing is stored.
        let token_arrived = input.forward_valid && !input.forward_stop;
        let anti_passed = input.backward_transfer();
        if token_arrived {
            if anti_passed {
                self.stats.killed_tokens += 1;
            } else if self.stored.is_none() {
                self.stored = Some(input.data);
            }
        }
    }

    fn report(&self) -> NodeReport<'_> {
        NodeReport::Basic(self.stats)
    }

    fn reset(&mut self) {
        self.stored = self.initial;
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

    fn run_eval(controller: &dyn Controller, channels: &mut [ChannelState]) {
        let inputs = vec![0usize];
        let outputs = vec![1usize];
        let mut io = NodeIo::new(channels, &inputs, &outputs);
        controller.eval(&mut io);
    }

    fn run_commit(controller: &mut dyn Controller, channels: &mut [ChannelState]) {
        let inputs = vec![0usize];
        let outputs = vec![1usize];
        let io = NodeIo::new(channels, &inputs, &outputs);
        controller.commit(&io);
    }

    #[test]
    fn standard_buffer_has_one_cycle_forward_latency() {
        let mut eb = StandardBuffer::new(BufferSpec::bubble());
        let mut channels = [ChannelState::default(), ChannelState::default()];
        // Cycle 0: a token arrives; the output is not yet valid.
        channels[0].forward_valid = true;
        channels[0].data = 7;
        run_eval(&eb, &mut channels);
        assert!(!channels[1].forward_valid);
        assert!(!channels[0].forward_stop, "an empty buffer accepts");
        run_commit(&mut eb, &mut channels);
        assert_eq!(eb.occupancy(), 1);
        // Cycle 1: the token is visible downstream.
        channels[0].forward_valid = false;
        run_eval(&eb, &mut channels);
        assert!(channels[1].forward_valid);
        assert_eq!(channels[1].data, 7);
    }

    #[test]
    fn standard_buffer_stops_when_full_and_backpressured() {
        let mut eb = StandardBuffer::new(BufferSpec::standard(0));
        let mut channels = [ChannelState::default(), ChannelState::default()];
        channels[1].forward_stop = true; // downstream refuses forever
        for value in 0..4u64 {
            channels[0].forward_valid = true;
            channels[0].data = value;
            run_eval(&eb, &mut channels);
            run_commit(&mut eb, &mut channels);
        }
        // Capacity 2: only the first two tokens were accepted, then stop.
        assert_eq!(eb.occupancy(), 2);
        run_eval(&eb, &mut channels);
        assert!(channels[0].forward_stop, "a full buffer must stall its producer");
    }

    #[test]
    fn standard_buffer_cancels_tokens_against_arriving_anti_tokens() {
        let mut eb = StandardBuffer::new(BufferSpec::standard(1));
        let mut channels = [ChannelState::default(), ChannelState::default()];
        channels[1].forward_stop = true;
        channels[1].backward_valid = true; // the consumer kills the stored token
        run_eval(&eb, &mut channels);
        assert!(!channels[1].backward_stop, "a buffer holding a token absorbs the anti-token");
        run_commit(&mut eb, &mut channels);
        assert_eq!(eb.occupancy(), 0);
        assert_eq!(eb.stats.killed_tokens, 1);
    }

    #[test]
    fn standard_buffer_stores_and_forwards_anti_tokens_when_empty() {
        let mut eb = StandardBuffer::new(BufferSpec::bubble());
        let mut channels = [ChannelState::default(), ChannelState::default()];
        // An anti-token arrives at the empty buffer: it is stored …
        channels[1].backward_valid = true;
        channels[0].backward_stop = true; // producer cannot take it yet
        run_eval(&eb, &mut channels);
        run_commit(&mut eb, &mut channels);
        channels[1].backward_valid = false;
        // … and propagated backwards one cycle later (backward latency 1).
        channels[0].backward_stop = false;
        run_eval(&eb, &mut channels);
        assert!(channels[0].backward_valid);
        run_commit(&mut eb, &mut channels);
        // Once forwarded, the counterflow storage is empty again.
        run_eval(&eb, &mut channels);
        assert!(!channels[0].backward_valid);
    }

    #[test]
    fn zero_backward_buffer_propagates_stop_combinationally() {
        let eb = ZeroBackwardBuffer::new(BufferSpec::zero_backward(1));
        let mut channels = [ChannelState::default(), ChannelState::default()];
        channels[1].forward_stop = true;
        run_eval(&eb, &mut channels);
        assert!(channels[0].forward_stop, "stop must traverse the Lb=0 buffer in the same cycle");
        channels[1].forward_stop = false;
        run_eval(&eb, &mut channels);
        assert!(!channels[0].forward_stop);
    }

    #[test]
    fn zero_backward_buffer_passes_anti_tokens_through_when_empty() {
        let eb = ZeroBackwardBuffer::new(BufferSpec::zero_backward(0));
        let mut channels = [ChannelState::default(), ChannelState::default()];
        channels[1].backward_valid = true;
        run_eval(&eb, &mut channels);
        assert!(
            channels[0].backward_valid,
            "kill must traverse the empty Lb=0 buffer combinationally"
        );
        assert!(!channels[1].backward_stop);
    }

    #[test]
    fn zero_backward_buffer_absorbs_anti_tokens_into_its_stored_token() {
        let mut eb = ZeroBackwardBuffer::new(BufferSpec::zero_backward(1));
        let mut channels = [ChannelState::default(), ChannelState::default()];
        channels[1].backward_valid = true;
        channels[1].forward_stop = true;
        run_eval(&eb, &mut channels);
        assert!(!channels[0].backward_valid, "the stored token absorbs the kill locally");
        run_commit(&mut eb, &mut channels);
        assert!(!eb.is_full());
        assert_eq!(eb.stats.killed_tokens, 1);
    }

    #[test]
    fn zero_backward_buffer_streams_at_full_rate() {
        let mut eb = ZeroBackwardBuffer::new(BufferSpec::zero_backward(0));
        let mut channels = [ChannelState::default(), ChannelState::default()];
        let mut received = Vec::new();
        for value in 0..8u64 {
            channels[0].forward_valid = true;
            channels[0].data = value;
            run_eval(&eb, &mut channels);
            if channels[1].forward_valid {
                received.push(channels[1].data);
            }
            run_commit(&mut eb, &mut channels);
        }
        // Capacity 1 with Lb = 0 still sustains one token per cycle.
        assert_eq!(received, vec![0, 1, 2, 3, 4, 5, 6]);
    }
}
