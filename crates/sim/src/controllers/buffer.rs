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
//! scenario, `u64` 64 lanes. The standard buffer keeps its storage by word:
//! tokens in a `TokenFifo` of slot columns and anti-tokens as thermometer
//! words, so its clock edge is a few word and column operations with no
//! per-lane loop.

use elastic_core::BufferSpec;

use crate::controller::Controller;
use crate::controllers::blend;
use crate::handshake::{
    standard_buffer_backward, standard_buffer_forward, zero_backward_backward,
    zero_backward_forward, HandshakeIo, Rail, StandardBufferState,
};

const IN: usize = 0;
const OUT: usize = 0;

/// The slot column past a FIFO's last slot.
const EMPTY_COLUMN: [u64; 64] = [0; 64];

/// The lanes whose count is at least `count`, read off thermometer words
/// (`counts[k]` holds the lanes counting more than `k`).
#[inline]
pub(crate) fn at_least<R: Rail>(counts: &[R], count: usize) -> R {
    match count.checked_sub(1) {
        None => R::HIGH,
        Some(k) => counts.get(k).copied().unwrap_or(R::LOW),
    }
}

/// Per-lane token FIFOs stored by slot column: the token storage of the
/// standard buffer and of each commit-stage user.
///
/// Occupancy is kept as thermometer words: `held[k]` holds the lanes with
/// more than `k` tokens. The tokens sit in lane-major slot columns,
/// `slots[k * R::LANES + lane]`, oldest first and zero past each lane's
/// count, so slot 0 is the column the owner drives. A pop shifts the popping
/// lanes' slot columns and thermometer words down one place; a push stores
/// the input column, masked, into the slot at each lane's count. Each
/// column pass is one branch-free masked store, skipped when it moves no
/// lane. A push into a full lane (an armed fault can force one) grows the
/// FIFO by one slot rather than lose the token.
#[derive(Debug)]
pub(crate) struct TokenFifo<R: Rail> {
    /// `held[k]`: the lanes holding more than `k` tokens.
    held: Vec<R>,
    /// Lane-major slot columns: `slots[k * R::LANES + lane]`.
    slots: Vec<u64>,
}

impl<R: Rail> TokenFifo<R> {
    /// Empty FIFOs of `depth` slots per lane (at least one).
    pub(crate) fn new(depth: usize) -> Self {
        let depth = depth.max(1);
        TokenFifo { held: vec![R::LOW; depth], slots: vec![0; depth * R::LANES] }
    }

    /// The lanes holding at least `count` tokens.
    pub(crate) fn at_least(&self, count: usize) -> R {
        at_least(&self.held, count)
    }

    /// Number of tokens lane `lane` holds.
    pub(crate) fn len(&self, lane: usize) -> usize {
        self.held.iter().take_while(|held| held.in_lane(lane)).count()
    }

    /// Each lane's oldest token (`0` when empty): the column its owner
    /// drives.
    pub(crate) fn front(&self) -> &[u64] {
        &self.slots[..R::LANES]
    }

    /// Refills every lane with `count` copies of `value`.
    pub(crate) fn refill(&mut self, count: usize, value: u64) {
        while self.held.len() < count {
            self.grow();
        }
        for (k, (held, column)) in
            self.held.iter_mut().zip(self.slots.chunks_mut(R::LANES)).enumerate()
        {
            let filled = k < count;
            *held = if filled { R::HIGH } else { R::LOW };
            column.fill(if filled { value } else { 0 });
        }
    }

    /// Drops the oldest token of every lane in `lanes` (an empty lane has
    /// none to drop).
    pub(crate) fn pop(&mut self, lanes: R) {
        for k in 0..self.held.len() {
            // The popping lanes holding more than `k` tokens: their slot
            // `k` takes slot `k + 1`, zero past their count.
            let moving = lanes & self.held[k];
            if moving == R::LOW {
                break;
            }
            let next = self.held.get(k + 1).copied().unwrap_or(R::LOW);
            self.held[k] = (self.held[k] & !moving) | (next & moving);
            let (column, rest) = self.slots[k * R::LANES..].split_at_mut(R::LANES);
            let next = rest.get(..R::LANES).unwrap_or(&EMPTY_COLUMN[..R::LANES]);
            blend(column, next, moving.word());
        }
    }

    /// Appends `data[ℓ]` to every lane `ℓ` in `lanes`, growing the FIFO by
    /// one slot when one of those lanes is full.
    pub(crate) fn push(&mut self, lanes: R, data: &[u64]) {
        if lanes == R::LOW {
            return;
        }
        if lanes & self.held[self.held.len() - 1] != R::LOW {
            self.grow();
        }
        // `below`: the lanes holding at least `k` tokens before the push.
        let mut below = R::HIGH;
        for k in 0..self.held.len() {
            let held = self.held[k];
            let at = lanes & below & !held;
            if at != R::LOW {
                blend(&mut self.slots[k * R::LANES..][..R::LANES], data, at.word());
                self.held[k] = held | at;
            }
            if lanes & held == R::LOW {
                break;
            }
            below = held;
        }
    }

    /// Adds one empty slot to every lane.
    fn grow(&mut self) {
        self.held.push(R::LOW);
        self.slots.resize(self.slots.len() + R::LANES, 0);
    }
}

/// The standard `Lf = 1`, `Lb = 1` elastic buffer, per lane of the rail
/// word `R`.
///
/// Tokens live in a `TokenFifo` that starts at the FIFO bound, and
/// anti-tokens as thermometer words saturating at the anti-token capacity;
/// the clock edge reads the equations' state words straight off both. `eval`
/// does no per-lane work, and neither does the clock edge.
#[derive(Debug)]
pub struct StandardBuffer<R: Rail> {
    spec: BufferSpec,
    tokens: TokenFifo<R>,
    /// `anti_tokens[k]`: the lanes storing more than `k` anti-tokens.
    anti_tokens: Vec<R>,
    /// The equations' view of the storage, one bit per lane.
    state: StandardBufferState<R>,
}

impl<R: Rail> StandardBuffer<R> {
    /// Creates the buffer with its initial occupancy in every lane.
    pub fn new(spec: BufferSpec) -> Self {
        let depth = (spec.capacity as usize).max(spec.init_tokens.max(0) as usize);
        let anti_depth = (spec.anti_capacity as usize).max((-spec.init_tokens).max(0) as usize);
        let state = StandardBufferState {
            has_token: R::LOW,
            full: R::LOW,
            has_anti_token: R::LOW,
            anti_full: R::LOW,
        };
        let mut buffer = StandardBuffer {
            spec,
            tokens: TokenFifo::new(depth),
            anti_tokens: vec![R::LOW; anti_depth],
            state,
        };
        buffer.reset();
        buffer
    }

    /// Number of tokens lane `lane` currently stores (diagnostic).
    pub fn occupancy(&self, lane: usize) -> usize {
        self.tokens.len(lane)
    }

    /// The equations' state words, read off the storage words.
    fn read_state(&self) -> StandardBufferState<R> {
        StandardBufferState {
            has_token: self.tokens.at_least(1),
            full: self.tokens.at_least(self.spec.capacity as usize),
            has_anti_token: at_least(&self.anti_tokens, 1),
            anti_full: at_least(&self.anti_tokens, self.spec.anti_capacity as usize),
        }
    }

    /// The clock edge on the cycle's boundary events, one word each: the
    /// output token killed or transferred, a token arrived, an anti-token
    /// left upstream; `data` is the input column.
    fn clock(&mut self, out_kill: R, out_transfer: R, arrived: R, anti_left: R, data: &[u64]) {
        if (out_kill | out_transfer | arrived | anti_left) == R::LOW {
            return;
        }
        // Output boundary: a token leaves, or is cancelled by an incoming
        // anti-token — kill wins over transfer. A kill that finds no token
        // is stored, up to the anti-token capacity.
        let has_token = self.tokens.at_least(1);
        self.tokens.pop(out_kill | out_transfer);
        let stored = out_kill & !has_token;
        if stored != R::LOW {
            let capacity = self.spec.anti_capacity as usize;
            for k in (0..self.anti_tokens.len()).rev() {
                let up = if k >= capacity {
                    R::LOW
                } else if k == 0 {
                    R::HIGH
                } else {
                    self.anti_tokens[k - 1]
                };
                self.anti_tokens[k] = (self.anti_tokens[k] & !stored) | (up & stored);
            }
        }
        // Input boundary: an anti-token leaves backwards and/or a token
        // arrives; when both meet they annihilate.
        let push = arrived & !anti_left & !at_least(&self.anti_tokens, 1);
        let released = (arrived | anti_left) & !push;
        if released != R::LOW {
            for k in 0..self.anti_tokens.len() {
                let down = self.anti_tokens.get(k + 1).copied().unwrap_or(R::LOW);
                self.anti_tokens[k] = (self.anti_tokens[k] & !released) | (down & released);
            }
        }
        self.tokens.push(push, data);
        self.state = self.read_state();
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
        self.clock(out_kill, out_transfer, token_arrived, anti_left, io.input_data(IN));
    }

    fn reset(&mut self) {
        self.tokens.refill(self.spec.init_tokens.max(0) as usize, self.spec.init_value);
        let anti_tokens = (-self.spec.init_tokens).max(0) as usize;
        for (k, word) in self.anti_tokens.iter_mut().enumerate() {
            *word = if k < anti_tokens { R::HIGH } else { R::LOW };
        }
        self.state = self.read_state();
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

/// The per-lane token rings the word FIFO replaced, kept as its oracle.
#[cfg(test)]
pub(crate) mod oracle {
    use crate::handshake::Rail;

    /// Per-lane token FIFOs in one lane-major ring: lane `ℓ` owns the slots
    /// `slots[ℓ·ring .. (ℓ+1)·ring]` with a `(head, len)` cursor pair. The
    /// ring doubles when a lane overflows it. Each lane's oldest token is
    /// kept in a column.
    #[derive(Debug)]
    pub(crate) struct TokenRing<R: Rail> {
        ring: usize,
        slots: Vec<u64>,
        head: R::PerLane<u32>,
        len: R::PerLane<u32>,
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
            self.front[lane] =
                if self.len[lane] > 0 { self.slots[lane * self.ring + head] } else { 0 };
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
}

#[cfg(test)]
mod tests {
    use super::oracle::TokenRing;
    use super::*;
    use crate::controller::{Controller, NodeIo};
    use crate::signal::ChannelState;
    use elastic_core::mix::splitmix64;

    /// The standard buffer's storage as it was: a token ring and an
    /// anti-token count per lane, clocked lane by lane.
    struct RingBuffer<R: Rail> {
        spec: BufferSpec,
        tokens: TokenRing<R>,
        anti_tokens: Vec<u32>,
    }

    impl<R: Rail> RingBuffer<R> {
        fn new(spec: BufferSpec) -> Self {
            let ring = (spec.capacity as usize).max(spec.init_tokens.max(0) as usize);
            let mut tokens = TokenRing::new(ring);
            for lane in 0..R::LANES {
                tokens.refill(lane, spec.init_tokens.max(0) as u32, spec.init_value);
            }
            let anti_tokens = vec![(-spec.init_tokens).max(0) as u32; R::LANES];
            RingBuffer { spec, tokens, anti_tokens }
        }

        fn clock(&mut self, out_kill: R, out_transfer: R, arrived: R, anti_left: R, data: &[u64]) {
            for lane in (out_kill | out_transfer | arrived | anti_left).lanes() {
                if out_kill.in_lane(lane) {
                    if !self.tokens.pop_front(lane) {
                        let anti_tokens = &mut self.anti_tokens[lane];
                        *anti_tokens = (*anti_tokens + 1).min(self.spec.anti_capacity);
                    }
                } else if out_transfer.in_lane(lane) {
                    self.tokens.pop_front(lane);
                }
                let anti_tokens = self.anti_tokens[lane];
                match (arrived.in_lane(lane), anti_left.in_lane(lane)) {
                    (true, false) if anti_tokens == 0 => self.tokens.push_back(lane, data[lane]),
                    (true, _) | (false, true) => {
                        self.anti_tokens[lane] = anti_tokens.saturating_sub(1);
                    }
                    (false, false) => {}
                }
            }
        }

        fn state(&self) -> StandardBufferState<R> {
            let word = |on: &dyn Fn(usize) -> bool| {
                (0..R::LANES).fold(R::LOW, |word, lane| word.with_lane(lane, on(lane)))
            };
            let (spec, tokens, anti) = (&self.spec, &self.tokens, &self.anti_tokens);
            StandardBufferState {
                has_token: word(&|lane| tokens.len(lane) > 0),
                full: word(&|lane| tokens.len(lane) >= spec.capacity),
                has_anti_token: word(&|lane| anti[lane] > 0),
                anti_full: word(&|lane| anti[lane] >= spec.anti_capacity),
            }
        }
    }

    /// Clocks the word buffer and the ring buffer on the same seeded event
    /// words and data columns, in phases that fill, drain and churn the
    /// storage (kills on empty lanes store anti-tokens up to saturation;
    /// arrivals into full lanes overfill), and compares the state words,
    /// the driven column and every lane's occupancy after each step.
    /// Returns whether the FIFO overfilled and the anti-tokens saturated.
    fn assert_fifo_matches_ring<R: Rail>(spec: BufferSpec, seed: u64) -> (bool, bool) {
        let (mut overfilled, mut saturated) = (false, false);
        let mut word = StandardBuffer::<R>::new(spec);
        let mut ring = RingBuffer::<R>::new(spec);
        let mut stream = seed << 32;
        let mut next = || {
            stream += 1;
            splitmix64(stream)
        };
        for step in 0..600 {
            // Phase 0 fills, phase 1 drains, phase 2 churns.
            let phase = step / 40 % 3;
            let mut event = |dense: bool| {
                let (a, b) = (next(), next());
                R::from_word(if dense { a | b } else { a & b })
            };
            let (out_kill, out_transfer) = (event(phase == 1), event(phase != 0));
            let (arrived, anti_left) = (event(phase != 1), event(phase == 2));
            let data: Vec<u64> = (0..R::LANES).map(|_| next()).collect();
            word.clock(out_kill, out_transfer, arrived, anti_left, &data);
            ring.clock(out_kill, out_transfer, arrived, anti_left, &data);
            let at = format!("{spec:?} seed {seed} step {step}");
            assert_eq!(word.state, word.read_state(), "cached state words, {at}");
            assert_eq!(word.state, ring.state(), "state words, {at}");
            assert_eq!(word.tokens.front(), ring.tokens.front(), "driven column, {at}");
            for lane in 0..R::LANES {
                assert_eq!(
                    word.occupancy(lane),
                    ring.tokens.len(lane) as usize,
                    "lane {lane}, {at}"
                );
            }
            overfilled |= word.tokens.at_least(spec.capacity as usize + 1) != R::LOW;
            saturated |= spec.anti_capacity > 0 && word.state.anti_full != R::LOW;
        }
        (overfilled, saturated)
    }

    #[test]
    fn the_word_fifo_matches_the_per_lane_token_ring_at_both_rail_words() {
        let specs = [
            BufferSpec::bubble(),
            BufferSpec::standard(2),
            BufferSpec::standard(-1),
            BufferSpec { capacity: 3, anti_capacity: 2, init_value: 9, ..BufferSpec::standard(1) },
            BufferSpec { anti_capacity: 0, ..BufferSpec::standard(0) },
        ];
        for spec in specs {
            let (mut overfilled, mut saturated) = (false, false);
            for seed in 0..3 {
                let (over, full) = assert_fifo_matches_ring::<u64>(spec, seed);
                (overfilled, saturated) = (overfilled | over, saturated | full);
                assert_fifo_matches_ring::<bool>(spec, seed);
            }
            assert!(overfilled, "{spec:?}: the drive must overfill some lane");
            assert!(saturated || spec.anti_capacity == 0, "{spec:?}: anti-tokens must saturate");
        }
    }

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
