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
//! boundaries. Both are generic over the rail word: `bool` simulates one
//! scenario, `u64` 64 lanes.

use elastic_core::BufferSpec;

use crate::controller::Controller;
use crate::handshake::{
    standard_buffer_backward, standard_buffer_forward, zero_backward_backward,
    zero_backward_forward, HandshakeIo, Rail, StandardBufferState,
};

const IN: usize = 0;
const OUT: usize = 0;

/// Per-lane token FIFOs in one lane-major ring: lane `ℓ` owns the slots
/// `slots[ℓ·ring .. (ℓ+1)·ring]` with a `(head, len)` cursor pair, so a
/// node's tokens live in one allocation with index arithmetic only (a
/// per-lane `VecDeque` layout capped the registered-pipeline lane win at
/// ~4×). The ring doubles when a lane overflows it: an armed fault can push
/// tokens into a full buffer or commit-stage lane, and none may be lost.
/// Each lane's oldest token is kept in a column, the data its owner drives.
#[derive(Debug)]
pub(crate) struct TokenRing<R: Rail> {
    /// Ring slots per lane.
    ring: usize,
    /// Lane-major token slots: `slots[lane * ring + slot]`.
    slots: Vec<u64>,
    /// Ring slot of each lane's oldest token.
    head: R::PerLane<u32>,
    /// Tokens held per lane.
    len: R::PerLane<u32>,
    /// Each lane's oldest token (`0` when empty).
    front: R::PerLane<u64>,
}

impl<R: Rail> TokenRing<R> {
    /// Empty FIFOs of `ring` slots per lane (at least one).
    pub(crate) fn new(ring: usize) -> Self {
        let ring = ring.max(1);
        let slots = vec![0; ring * R::LANES];
        let (head, len) = (R::per_lane(|_| 0), R::per_lane(|_| 0));
        TokenRing { ring, slots, head, len, front: R::per_lane(|_| 0) }
    }

    /// Number of tokens lane `lane` holds.
    pub(crate) fn len(&self, lane: usize) -> u32 {
        self.len[lane]
    }

    /// Each lane's oldest token (`0` when empty).
    pub(crate) fn front(&self) -> &[u64] {
        self.front.as_ref()
    }

    /// Refills lane `lane` with `count` copies of `value`.
    pub(crate) fn refill(&mut self, lane: usize, count: u32, value: u64) {
        self.head[lane] = 0;
        self.len[lane] = count;
        self.slots[lane * self.ring..][..count as usize].fill(value);
        self.front[lane] = if count > 0 { value } else { 0 };
    }

    /// Drops lane `lane`'s oldest token; `false` when it holds none.
    pub(crate) fn pop_front(&mut self, lane: usize) -> bool {
        if self.len[lane] == 0 {
            return false;
        }
        let head = self.head[lane] as usize + 1;
        let head = if head == self.ring { 0 } else { head };
        self.head[lane] = head as u32;
        self.len[lane] -= 1;
        self.front[lane] = if self.len[lane] > 0 { self.slots[lane * self.ring + head] } else { 0 };
        true
    }

    /// Appends `value` to lane `lane`, growing the ring when it is full.
    pub(crate) fn push_back(&mut self, lane: usize, value: u64) {
        if self.len[lane] as usize == self.ring {
            self.grow();
        }
        let slot = (self.head[lane] + self.len[lane]) as usize;
        let slot = if slot >= self.ring { slot - self.ring } else { slot };
        self.slots[lane * self.ring + slot] = value;
        self.len[lane] += 1;
        if self.len[lane] == 1 {
            self.front[lane] = value;
        }
    }

    /// Doubles every lane's ring, keeping each lane's tokens in order.
    fn grow(&mut self) {
        let ring = self.ring * 2;
        let mut slots = vec![0; ring * R::LANES];
        for lane in 0..R::LANES {
            for k in 0..self.len[lane] as usize {
                let slot = (self.head[lane] as usize + k) % self.ring;
                slots[lane * ring + k] = self.slots[lane * self.ring + slot];
            }
            self.head[lane] = 0;
        }
        (self.ring, self.slots) = (ring, slots);
    }
}

/// The standard `Lf = 1`, `Lb = 1` elastic buffer, per lane of the rail
/// word `R`.
///
/// Tokens live in a `TokenRing` that starts at the FIFO bound. The clock
/// edge keeps the state words and the ring's front column, which are all
/// the equations read, so `eval` does no per-lane work.
#[derive(Debug)]
pub struct StandardBuffer<R: Rail> {
    spec: BufferSpec,
    tokens: TokenRing<R>,
    anti_tokens: R::PerLane<u32>,
    /// The equations' view of the storage, one bit per lane.
    state: StandardBufferState<R>,
}

impl<R: Rail> StandardBuffer<R> {
    /// Creates the buffer with its initial occupancy in every lane.
    pub fn new(spec: BufferSpec) -> Self {
        let ring = (spec.capacity as usize).max(spec.init_tokens.max(0) as usize);
        let mut buffer = StandardBuffer {
            spec,
            tokens: TokenRing::new(ring),
            anti_tokens: R::per_lane(|_| 0),
            state: StandardBufferState {
                has_token: R::LOW,
                full: R::LOW,
                has_anti_token: R::LOW,
                anti_full: R::LOW,
            },
        };
        buffer.reset();
        buffer
    }

    /// Number of tokens lane `lane` currently stores (diagnostic).
    pub fn occupancy(&self, lane: usize) -> usize {
        self.tokens.len(lane) as usize
    }

    /// Recomputes lane `lane`'s state bits from its storage.
    fn refresh(&mut self, lane: usize) {
        let (len, anti_tokens) = (self.tokens.len(lane), self.anti_tokens[lane]);
        let state = &mut self.state;
        state.has_token = state.has_token.with_lane(lane, len > 0);
        state.full = state.full.with_lane(lane, len >= self.spec.capacity);
        state.has_anti_token = state.has_anti_token.with_lane(lane, anti_tokens > 0);
        state.anti_full = state.anti_full.with_lane(lane, anti_tokens >= self.spec.anti_capacity);
    }
}

impl<R: Rail> Controller<R> for StandardBuffer<R> {
    fn eval(&self, io: &mut R::Io<'_>, _optimistic: bool) {
        standard_buffer_forward(io, self.state, self.tokens.front());
        standard_buffer_backward(io, self.state);
    }

    fn commit(&mut self, io: &R::Io<'_>) {
        let out_kill = io.output_kill(OUT) & !io.output_anti_stop(OUT);
        let out_transfer = io.output_valid(OUT) & !out_kill & !io.output_stop(OUT);
        let token_arrived = io.input_valid(IN) & !io.input_stop(IN);
        let anti_left = io.input_kill(IN) & !io.input_anti_stop(IN);
        let data = io.input_data(IN);
        for lane in (out_kill | out_transfer | token_arrived | anti_left).lanes() {
            // Output boundary: a token leaves, or is cancelled by an
            // incoming anti-token — kill wins over transfer.
            if out_kill.in_lane(lane) {
                if !self.tokens.pop_front(lane) {
                    let anti_tokens = &mut self.anti_tokens[lane];
                    *anti_tokens = (*anti_tokens + 1).min(self.spec.anti_capacity);
                }
            } else if out_transfer.in_lane(lane) {
                self.tokens.pop_front(lane);
            }
            // Input boundary: an anti-token leaves backwards and/or a token
            // arrives; when both meet they annihilate.
            let anti_tokens = self.anti_tokens[lane];
            match (token_arrived.in_lane(lane), anti_left.in_lane(lane)) {
                (true, false) if anti_tokens == 0 => self.tokens.push_back(lane, data[lane]),
                (true, _) | (false, true) => {
                    self.anti_tokens[lane] = anti_tokens.saturating_sub(1);
                }
                (false, false) => {}
            }
            self.refresh(lane);
        }
    }

    fn reset(&mut self) {
        let init_tokens = self.spec.init_tokens.max(0) as u32;
        for lane in 0..R::LANES {
            self.tokens.refill(lane, init_tokens, self.spec.init_value);
            self.anti_tokens[lane] = (-self.spec.init_tokens).max(0) as u32;
            self.refresh(lane);
        }
    }

    /// Both handshake directions are fully registered: `eval` is a function
    /// of the FIFO state alone, so the standard buffer cuts every zero-delay
    /// control path and is never re-evaluated within a cycle.
    fn eval_reads_channels(&self) -> bool {
        false
    }
}

/// The `Lf = 1`, `Lb = 0`, `C = 1` elastic buffer of Figure 5, per lane of
/// the rail word `R`.
#[derive(Debug)]
pub struct ZeroBackwardBuffer<R: Rail> {
    /// The initial occupancy restored by a reset.
    initial: Option<u64>,
    full: R,
    /// Each lane's stored token (`0` when empty): the driven data column.
    stored: R::PerLane<u64>,
}

impl<R: Rail> ZeroBackwardBuffer<R> {
    /// Creates the buffer with its initial occupancy (at most one token).
    pub fn new(spec: BufferSpec) -> Self {
        let initial = (spec.init_tokens > 0).then_some(spec.init_value);
        let mut buffer = ZeroBackwardBuffer { initial, full: R::LOW, stored: R::per_lane(|_| 0) };
        buffer.reset();
        buffer
    }

    /// The forward equation on this buffer's state — one planned op of
    /// the compiled plan and of emitted settle functions.
    pub fn forward<P: HandshakeIo<Rail = R>>(&self, io: &mut P) {
        zero_backward_forward(io, self.full, self.stored.as_ref());
    }

    /// The backward equation on this buffer's state.
    pub fn backward<P: HandshakeIo<Rail = R>>(&self, io: &mut P) {
        zero_backward_backward(io, self.full);
    }
}

impl<R: Rail> Controller<R> for ZeroBackwardBuffer<R> {
    fn eval(&self, io: &mut R::Io<'_>, _optimistic: bool) {
        self.forward(io);
        self.backward(io);
    }

    fn commit(&mut self, io: &R::Io<'_>) {
        // Output boundary: the stored token is cancelled, leaves, or stays.
        let killed = self.full & io.output_kill(OUT) & !io.output_anti_stop(OUT);
        let left = self.full & !killed & io.output_valid(OUT) & !io.output_stop(OUT);
        let kept = self.full & !killed & !left;
        // Input boundary. A token is accepted when the producer saw no stop;
        // if an anti-token was simultaneously passing through, the two
        // cancel at the boundary and nothing is stored.
        let token_arrived = io.input_valid(IN) & !io.input_stop(IN);
        let cancelled = token_arrived & io.input_kill(IN) & !io.input_anti_stop(IN);
        let accepted = token_arrived & !cancelled & !kept;
        self.full = kept | accepted;

        let data = io.input_data(IN);
        for lane in (killed | left).lanes() {
            self.stored[lane] = 0;
        }
        for lane in accepted.lanes() {
            self.stored[lane] = data[lane];
        }
    }

    fn reset(&mut self) {
        self.full = if self.initial.is_some() { R::HIGH } else { R::LOW };
        self.stored.as_mut().fill(self.initial.unwrap_or(0));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::{Controller, NodeIo};
    use crate::signal::ChannelState;

    fn run_eval(controller: &dyn Controller, channels: &mut [ChannelState]) {
        let inputs = vec![0usize];
        let outputs = vec![1usize];
        let mut io = NodeIo::new(channels, &inputs, &outputs);
        controller.eval(&mut io, false);
    }

    fn run_commit(controller: &mut dyn Controller, channels: &mut [ChannelState]) {
        let inputs = vec![0usize];
        let outputs = vec![1usize];
        let io = NodeIo::new(channels, &inputs, &outputs);
        controller.commit(&io);
    }

    #[test]
    fn standard_buffer_has_one_cycle_forward_latency() {
        let mut eb = StandardBuffer::<bool>::new(BufferSpec::bubble());
        let mut channels = [ChannelState::default(), ChannelState::default()];
        // Cycle 0: a token arrives; the output is not yet valid.
        channels[0].forward_valid = true;
        channels[0].data = 7;
        run_eval(&eb, &mut channels);
        assert!(!channels[1].forward_valid);
        assert!(!channels[0].forward_stop, "an empty buffer accepts");
        run_commit(&mut eb, &mut channels);
        assert_eq!(eb.occupancy(0), 1);
        // Cycle 1: the token is visible downstream.
        channels[0].forward_valid = false;
        run_eval(&eb, &mut channels);
        assert!(channels[1].forward_valid);
        assert_eq!(channels[1].data, 7);
    }

    #[test]
    fn standard_buffer_stops_when_full_and_backpressured() {
        let mut eb = StandardBuffer::<bool>::new(BufferSpec::standard(0));
        let mut channels = [ChannelState::default(), ChannelState::default()];
        channels[1].forward_stop = true; // downstream refuses forever
        for value in 0..4u64 {
            channels[0].forward_valid = true;
            channels[0].data = value;
            run_eval(&eb, &mut channels);
            run_commit(&mut eb, &mut channels);
        }
        // Capacity 2: only the first two tokens were accepted, then stop.
        assert_eq!(eb.occupancy(0), 2);
        run_eval(&eb, &mut channels);
        assert!(channels[0].forward_stop, "a full buffer must stall its producer");
    }

    #[test]
    fn standard_buffer_cancels_tokens_against_arriving_anti_tokens() {
        let mut eb = StandardBuffer::<bool>::new(BufferSpec::standard(1));
        let mut channels = [ChannelState::default(), ChannelState::default()];
        channels[1].forward_stop = true;
        channels[1].backward_valid = true; // the consumer kills the stored token
        run_eval(&eb, &mut channels);
        assert!(!channels[1].backward_stop, "a buffer holding a token absorbs the anti-token");
        run_commit(&mut eb, &mut channels);
        assert_eq!(eb.occupancy(0), 0);
    }

    #[test]
    fn standard_buffer_stores_and_forwards_anti_tokens_when_empty() {
        let mut eb = StandardBuffer::<bool>::new(BufferSpec::bubble());
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
        let eb = ZeroBackwardBuffer::<bool>::new(BufferSpec::zero_backward(1));
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
        let eb = ZeroBackwardBuffer::<bool>::new(BufferSpec::zero_backward(0));
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
        let mut eb = ZeroBackwardBuffer::<bool>::new(BufferSpec::zero_backward(1));
        let mut channels = [ChannelState::default(), ChannelState::default()];
        channels[1].backward_valid = true;
        channels[1].forward_stop = true;
        run_eval(&eb, &mut channels);
        assert!(!channels[0].backward_valid, "the stored token absorbs the kill locally");
        run_commit(&mut eb, &mut channels);
        assert!(!eb.full);
    }

    #[test]
    fn zero_backward_buffer_streams_at_full_rate() {
        let mut eb = ZeroBackwardBuffer::<bool>::new(BufferSpec::zero_backward(0));
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
