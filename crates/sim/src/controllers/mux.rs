//! Multiplexor controllers (lazy and early-evaluation).
//!
//! The lazy multiplexor is a join over the select channel and *all* data
//! channels: every firing consumes one token from each input and forwards the
//! selected value.
//!
//! The early-evaluation multiplexor (Section 3.3, ref \[7\]) fires as soon as the
//! select token and the *selected* data token are available. Each firing owes
//! an **anti-token** to every non-selected data channel; the controller keeps
//! a counterflow counter per data input and asserts `V-` on those channels
//! until the anti-tokens have been delivered (or have cancelled in place
//! against an arriving token). A stale token arriving on a channel that is
//! owed an anti-token is cancelled rather than forwarded.
//!
//! The multiplexor is generic over the rail word: `bool` simulates one
//! scenario, `u64` 64 lanes, each steered by its own select token. The
//! steering is computed by word: one comparison pass over the select column
//! per data input yields the lanes choosing it, and the forward data column
//! is gathered as one masked copy per data input. The selection is memoised
//! on the select column, compared whole, so the backward equation and the
//! clock edge reuse the forward equation's words while the column holds.

use std::cell::RefCell;

use elastic_core::MuxSpec;

use crate::controller::{Controller, Groups, Reads};
use crate::controllers::{blend, lanes_where, same_column};
use crate::handshake::{mux_backward, mux_forward, HandshakeIo, Rail};

const SELECT: usize = 0;
const OUT: usize = 0;

/// Controller for (early-evaluation) multiplexors, per lane of the rail
/// word `R`.
#[derive(Debug)]
pub struct MuxController<R: Rail> {
    spec: MuxSpec,
    /// Anti-tokens owed per data input and lane, input-major:
    /// `owed[input * R::LANES + lane]` (early evaluation only).
    owed: Vec<u32>,
    /// Per data input, the lanes that owe it no anti-token.
    clean: Vec<R>,
    /// The steering the equations read (scratch, memoised).
    steering: RefCell<Steering<R>>,
}

/// Per-lane steering: which data input each lane's select token chooses.
#[derive(Debug)]
struct Steering<R: Rail> {
    /// The select column `selected` was computed from.
    select: R::PerLane<u64>,
    /// Whether `selected` holds the steering of `select`.
    valid: bool,
    /// Per data input, the lanes whose select token chooses it.
    selected: Vec<R>,
    /// The chosen input's data per lane: the driven data column.
    data: R::PerLane<u64>,
}

impl<R: Rail> Steering<R> {
    /// Brings `selected` up to date with the select column: kept while the
    /// column is the one it was computed from, recomputed by comparison
    /// otherwise. Only an out-of-range select value divides.
    fn select(&mut self, io: &impl HandshakeIo<Rail = R>) {
        if self.valid && same_column(self.select.as_ref(), io, SELECT) {
            return;
        }
        let column = io.input_data(SELECT);
        self.select.as_mut().copy_from_slice(column);
        self.valid = true;
        let mut chosen = 0;
        for (input, selected) in self.selected.iter_mut().enumerate() {
            let word = lanes_where(column, |select| select == input as u64);
            *selected = R::from_word(word);
            chosen |= word;
        }
        let inputs = self.selected.len() as u64;
        for lane in R::from_word(!chosen).lanes() {
            let input = (column[lane] % inputs) as usize;
            self.selected[input] = self.selected[input] | R::lane(lane);
        }
    }

    /// Gathers each lane's chosen data column: one masked copy per data
    /// input that some lane chooses.
    fn gather(&mut self, io: &impl HandshakeIo<Rail = R>) {
        for (input, &selected) in self.selected.iter().enumerate() {
            if selected != R::LOW {
                blend(self.data.as_mut(), io.input_data(1 + input), selected.word());
            }
        }
    }
}

impl<R: Rail> MuxController<R> {
    /// Creates the controller.
    pub fn new(spec: MuxSpec) -> Self {
        let inputs = spec.data_inputs;
        MuxController {
            spec,
            owed: vec![0; inputs * R::LANES],
            clean: vec![R::HIGH; inputs],
            steering: RefCell::new(Steering {
                select: R::per_lane(|_| 0),
                valid: false,
                selected: vec![R::LOW; inputs],
                data: R::per_lane(|_| 0),
            }),
        }
    }

    /// Evaluates the forward or the backward equation on this mux's select
    /// and owed anti-tokens.
    fn equations<P: HandshakeIo<Rail = R>>(&self, io: &mut P, forward: bool) {
        let mut steering = self.steering.borrow_mut();
        steering.select(io);
        if forward {
            steering.gather(io);
        }
        let (early, selected, clean) = (self.spec.early_eval, &steering.selected, &self.clean);
        if forward {
            mux_forward(io, early, |j| selected[j], |j| clean[j], steering.data.as_ref());
        } else {
            mux_backward(io, early, |j| selected[j], |j| clean[j]);
        }
    }
}

impl<R: Rail> Controller<R> for MuxController<R> {
    fn forward(&self, io: &mut R::Io<'_>) {
        self.equations(io, true);
    }

    fn backward(&self, io: &mut R::Io<'_>) {
        self.equations(io, false);
    }

    fn reads(&self) -> Reads {
        Reads {
            forward: Groups::INPUT_FORWARD,
            backward: Groups::INPUT_FORWARD | Groups::OUTPUT_BACKWARD,
        }
    }

    fn commit(&mut self, io: &R::Io<'_>) {
        self.clock(io);
    }

    fn reset(&mut self) {
        self.owed.fill(0);
        self.clean.fill(R::HIGH);
    }
}

impl<R: Rail> MuxController<R> {
    /// The clock edge: an early mux's owed anti-tokens, counted lane by lane
    /// on the steering of the settled select column.
    fn clock<P: HandshakeIo<Rail = R>>(&mut self, io: &P) {
        if !self.spec.early_eval {
            return;
        }
        let steering = self.steering.get_mut();
        steering.select(io);
        let fired = io.output_valid(OUT) & !io.output_stop(OUT) & io.input_valid(SELECT);
        for input in 0..self.spec.data_inputs {
            // A firing owes every non-selected input an anti-token; one is
            // delivered when accepted upstream or cancelled in place against
            // an arriving token — the same thing at this boundary.
            let incurred = fired & !steering.selected[input];
            let delivered = io.input_kill(1 + input) & !io.input_anti_stop(1 + input);
            for lane in (incurred | delivered).lanes() {
                let owed = &mut self.owed[input * R::LANES + lane];
                if incurred.in_lane(lane) {
                    *owed += 1;
                }
                if delivered.in_lane(lane) {
                    *owed = owed.saturating_sub(1);
                }
                self.clean[input] = self.clean[input].with_lane(lane, *owed == 0);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::{Controller, NodeIo};
    use crate::signal::ChannelState;
    use elastic_core::mix::splitmix64;

    /// A port view over plain rail words and data columns at either rail
    /// word: input 0 is the select, inputs 1.. the data, one output.
    struct ColumnIo<R: Rail> {
        /// `[V+, S+, V−, S−]` per input port, then the output port.
        rails: Vec<[R; 4]>,
        /// One data column per input port, then the output's.
        data: Vec<Vec<u64>>,
    }

    impl<R: Rail> ColumnIo<R> {
        fn output(&self) -> usize {
            self.rails.len() - 1
        }
    }

    impl<R: Rail> HandshakeIo for ColumnIo<R> {
        type Rail = R;
        fn input_count(&self) -> usize {
            self.rails.len() - 1
        }
        fn output_count(&self) -> usize {
            1
        }
        fn input_valid(&self, port: usize) -> R {
            self.rails[port][0]
        }
        fn input_stop(&self, port: usize) -> R {
            self.rails[port][1]
        }
        fn input_kill(&self, port: usize) -> R {
            self.rails[port][2]
        }
        fn input_anti_stop(&self, port: usize) -> R {
            self.rails[port][3]
        }
        fn output_valid(&self, _port: usize) -> R {
            self.rails[self.output()][0]
        }
        fn output_stop(&self, _port: usize) -> R {
            self.rails[self.output()][1]
        }
        fn output_kill(&self, _port: usize) -> R {
            self.rails[self.output()][2]
        }
        fn output_anti_stop(&self, _port: usize) -> R {
            self.rails[self.output()][3]
        }
        fn set_input_stop(&mut self, port: usize, stop: R) {
            self.rails[port][1] = stop;
        }
        fn set_input_kill(&mut self, port: usize, kill: R) {
            self.rails[port][2] = kill;
        }
        fn set_output_valid(&mut self, _port: usize, valid: R) {
            let output = self.output();
            self.rails[output][0] = valid;
        }
        fn set_output_anti_stop(&mut self, _port: usize, stop: R) {
            let output = self.output();
            self.rails[output][3] = stop;
        }
        fn input_data(&self, port: usize) -> &[u64] {
            &self.data[port]
        }
        fn drive_data(&mut self, _port: usize, data: &[u64]) {
            let output = self.output();
            self.data[output].copy_from_slice(data);
        }
        fn copy_data(&mut self, input: usize, _output: usize) {
            let output = self.output();
            self.data[output] = self.data[input].clone();
        }
    }

    /// Draws a fresh select column, out-of-range values included, two times
    /// in three; keeps the current one otherwise.
    fn reselect<R: Rail>(io: &mut ColumnIo<R>, inputs: usize, next: &mut impl FnMut() -> u64) {
        if !next().is_multiple_of(3) {
            io.data[0] = (0..R::LANES).map(|_| next() % (inputs as u64 + 3)).collect();
        }
    }

    /// The per-lane gather: each lane's chosen input, `select mod inputs`.
    fn chosen(select: u64, inputs: usize) -> usize {
        (select % inputs as u64) as usize
    }

    /// Drives a mux with seeded rails, data columns and select columns
    /// (out-of-range values included), changing the select column between
    /// the forward op, the backward op and the clock edge, or keeping it
    /// so the memo is reused; after each op the steering, the driven data
    /// column and the owed anti-tokens must equal a per-lane gather's.
    fn assert_steering_matches_per_lane_gather<R: Rail>(spec: MuxSpec, seed: u64) {
        let inputs = spec.data_inputs;
        let mut mux = MuxController::<R>::new(spec);
        let mut owed = vec![vec![0u32; R::LANES]; inputs];
        let mut stream = seed << 32;
        let mut next = || {
            stream += 1;
            splitmix64(stream)
        };
        let mut io = ColumnIo::<R> {
            rails: vec![[R::LOW; 4]; inputs + 2],
            data: vec![vec![0; R::LANES]; inputs + 2],
        };
        for step in 0..300 {
            for port in 0..=inputs + 1 {
                io.rails[port] = std::array::from_fn(|_| R::from_word(next()));
            }
            for port in 1..=inputs {
                io.data[port] = (0..R::LANES).map(|_| next()).collect();
            }
            let check = |mux: &MuxController<R>, io: &ColumnIo<R>, what: &str| {
                let steering = mux.steering.borrow();
                for (input, &selected) in steering.selected.iter().enumerate() {
                    let expected = (0..R::LANES).fold(R::LOW, |word, lane| {
                        word.with_lane(lane, chosen(io.data[0][lane], inputs) == input)
                    });
                    assert_eq!(
                        selected, expected,
                        "{what} selection of input {input}, step {step}"
                    );
                }
            };
            reselect(&mut io, inputs, &mut next);
            mux.equations(&mut io, true);
            check(&mux, &io, "forward");
            let gathered: Vec<u64> = (0..R::LANES)
                .map(|lane| io.data[1 + chosen(io.data[0][lane], inputs)][lane])
                .collect();
            assert_eq!(io.data[inputs + 1], gathered, "forward data column, step {step}");
            reselect(&mut io, inputs, &mut next);
            mux.equations(&mut io, false);
            check(&mux, &io, "backward");
            reselect(&mut io, inputs, &mut next);
            let fired = io.output_valid(OUT) & !io.output_stop(OUT) & io.input_valid(SELECT);
            mux.clock(&io);
            if spec.early_eval {
                check(&mux, &io, "clock edge");
            }
            for (input, owed) in owed.iter_mut().enumerate() {
                let delivered = io.input_kill(1 + input) & !io.input_anti_stop(1 + input);
                for (lane, owed) in owed.iter_mut().enumerate() {
                    if !spec.early_eval {
                        continue;
                    }
                    let selected = chosen(io.data[0][lane], inputs) == input;
                    *owed += u32::from(fired.in_lane(lane) && !selected);
                    if delivered.in_lane(lane) {
                        *owed = owed.saturating_sub(1);
                    }
                }
                let clean =
                    (0..R::LANES).fold(R::LOW, |w, lane| w.with_lane(lane, owed[lane] == 0));
                assert_eq!(
                    mux.clean[input], clean,
                    "owed anti-tokens of input {input}, step {step}"
                );
            }
        }
    }

    #[test]
    fn word_steering_matches_a_per_lane_gather_at_both_rail_words() {
        for spec in [MuxSpec::early(2), MuxSpec::early(3), MuxSpec::lazy(2), MuxSpec::early(1)] {
            for seed in 0..3 {
                assert_steering_matches_per_lane_gather::<u64>(spec, seed);
                assert_steering_matches_per_lane_gather::<bool>(spec, seed);
            }
        }
    }

    // Channel layout used by the tests:
    // 0 = select, 1 = data0, 2 = data1, 3 = output.
    fn io(channels: &mut [ChannelState]) -> NodeIo<'_> {
        NodeIo::new(channels, &[0, 1, 2], &[3])
    }

    fn early_mux() -> MuxController<bool> {
        MuxController::<bool>::new(MuxSpec::early(2))
    }

    #[test]
    fn lazy_mux_waits_for_every_input() {
        let mux = MuxController::<bool>::new(MuxSpec::lazy(2));
        let mut channels = vec![ChannelState::default(); 4];
        channels[0].forward_valid = true; // select = 0
        channels[1].forward_valid = true;
        channels[1].data = 0xAA;
        mux.eval(&mut io(&mut channels), false);
        assert!(!channels[3].forward_valid, "the non-selected input is still missing");
        channels[2].forward_valid = true;
        mux.eval(&mut io(&mut channels), false);
        assert!(channels[3].forward_valid);
        assert_eq!(channels[3].data, 0xAA);
        assert!(!channels[1].forward_stop && !channels[2].forward_stop);
    }

    #[test]
    fn early_mux_fires_without_the_non_selected_input() {
        let mux = early_mux();
        let mut channels = vec![ChannelState::default(); 4];
        channels[0].forward_valid = true; // select = 0
        channels[1].forward_valid = true;
        channels[1].data = 0x11;
        mux.eval(&mut io(&mut channels), false);
        assert!(channels[3].forward_valid, "early evaluation fires on the selected data alone");
        assert_eq!(channels[3].data, 0x11);
        assert!(!channels[1].forward_stop);
        assert!(channels[2].backward_valid, "the non-selected channel receives an anti-token");
        assert!(!channels[2].forward_stop, "kill and stop are mutually exclusive");
    }

    #[test]
    fn early_mux_stalls_when_the_selected_data_is_missing() {
        let mux = early_mux();
        let mut channels = vec![ChannelState::default(); 4];
        channels[0].forward_valid = true;
        channels[0].data = 1; // select channel 1
        channels[1].forward_valid = true; // only channel 0 has data
        mux.eval(&mut io(&mut channels), false);
        assert!(!channels[3].forward_valid);
        assert!(channels[0].forward_stop, "the select token is held");
        assert!(channels[1].forward_stop, "the wrong-channel token is stalled, not killed");
        assert!(!channels[1].backward_valid);
    }

    #[test]
    fn owed_anti_tokens_persist_until_delivered() {
        let mut mux = early_mux();
        let mut channels = vec![ChannelState::default(); 4];
        channels[0].forward_valid = true; // select 0
        channels[1].forward_valid = true;
        channels[2].backward_stop = true; // the other producer cannot take the kill yet
        mux.eval(&mut io(&mut channels), false);
        mux.commit(&io(&mut channels));
        assert_eq!(mux.owed, [0, 1]);

        // Next cycle: nothing new fires, but the owed anti-token is still offered.
        let mut channels = vec![ChannelState::default(); 4];
        mux.eval(&mut io(&mut channels), false);
        assert!(channels[2].backward_valid);
        // Now the producer accepts it.
        channels[2].backward_stop = false;
        mux.eval(&mut io(&mut channels), false);
        mux.commit(&io(&mut channels));
        assert_eq!(mux.owed, [0, 0]);
    }

    #[test]
    fn stale_tokens_on_an_owed_channel_are_cancelled_not_used() {
        let mut mux = early_mux();
        // Cycle 1: fire with select 0 while channel 1 cannot absorb the kill.
        let mut channels = vec![ChannelState::default(); 4];
        channels[0].forward_valid = true;
        channels[1].forward_valid = true;
        channels[2].backward_stop = true;
        mux.eval(&mut io(&mut channels), false);
        mux.commit(&io(&mut channels));
        assert_eq!(mux.owed, [0, 1]);

        // Cycle 2: the select now points at channel 1, whose arriving token is
        // stale (it corresponds to the previous, already-resolved decision).
        let mut channels = vec![ChannelState::default(); 4];
        channels[0].forward_valid = true;
        channels[0].data = 1;
        channels[2].forward_valid = true;
        channels[2].data = 0x22;
        mux.eval(&mut io(&mut channels), false);
        assert!(!channels[3].forward_valid, "a stale token must not be forwarded");
        assert!(channels[2].backward_valid, "it is cancelled by the owed anti-token instead");
        mux.commit(&io(&mut channels));
        assert_eq!(mux.owed, [0, 0]);
    }

    #[test]
    fn early_mux_output_backpressure_prevents_kills() {
        let mux = early_mux();
        let mut channels = vec![ChannelState::default(); 4];
        channels[0].forward_valid = true;
        channels[1].forward_valid = true;
        channels[2].forward_valid = true;
        channels[3].forward_stop = true; // downstream refuses
        mux.eval(&mut io(&mut channels), false);
        assert!(!channels[2].backward_valid, "no firing, so no anti-token is owed yet");
        assert!(channels[0].forward_stop);
    }
}
