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
//! scenario, `u64` 64 lanes, each steered by its own select token.

use std::cell::RefCell;

use elastic_core::MuxSpec;

use crate::controller::Controller;
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
    /// The select gather `eval` steers with (scratch).
    gather: RefCell<Gather<R>>,
}

/// Per-lane steering: which data input each lane's select token chooses.
#[derive(Debug)]
struct Gather<R: Rail> {
    /// Per data input, the lanes whose select token chooses it.
    selected: Vec<R>,
    /// The chosen input's data per lane: the driven data column.
    data: R::PerLane<u64>,
}

impl<R: Rail> Gather<R> {
    /// Re-reads the select column and, with `data` set, gathers each lane's
    /// chosen data; only the forward equation drives it.
    fn refresh(&mut self, io: &impl HandshakeIo<Rail = R>, data: bool) {
        self.selected.fill(R::LOW);
        let inputs = self.selected.len();
        for (lane, &select) in io.input_data(SELECT).iter().enumerate() {
            // Divide only for an out-of-range select value.
            let select = select as usize;
            let chosen = if select < inputs { select } else { select % inputs };
            self.selected[chosen] = self.selected[chosen] | R::lane(lane);
            if data {
                self.data[lane] = io.input_data(1 + chosen)[lane];
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
            gather: RefCell::new(Gather {
                selected: vec![R::LOW; inputs],
                data: R::per_lane(|_| 0),
            }),
        }
    }

    /// Evaluates the forward and/or the backward equation on this mux's
    /// select and owed anti-tokens.
    fn equations<P: HandshakeIo<Rail = R>>(&self, io: &mut P, forward: bool, backward: bool) {
        let mut gather = self.gather.borrow_mut();
        gather.refresh(io, forward);
        let (early, selected, clean) = (self.spec.early_eval, &gather.selected, &self.clean);
        if forward {
            mux_forward(io, early, |j| selected[j], |j| clean[j], gather.data.as_ref());
        }
        if backward {
            mux_backward(io, early, |j| selected[j], |j| clean[j]);
        }
    }

    /// The forward equation — one planned op of the compiled plan and of
    /// emitted settle functions.
    pub fn forward<P: HandshakeIo<Rail = R>>(&self, io: &mut P) {
        self.equations(io, true, false);
    }

    /// The backward equation.
    pub fn backward<P: HandshakeIo<Rail = R>>(&self, io: &mut P) {
        self.equations(io, false, true);
    }
}

impl<R: Rail> Controller<R> for MuxController<R> {
    fn eval(&self, io: &mut R::Io<'_>, _optimistic: bool) {
        self.equations(io, true, true);
    }

    fn commit(&mut self, io: &R::Io<'_>) {
        if !self.spec.early_eval {
            return;
        }
        let gather = self.gather.get_mut();
        gather.refresh(io, false);
        let fired = io.output_valid(OUT) & !io.output_stop(OUT) & io.input_valid(SELECT);
        for input in 0..self.spec.data_inputs {
            // A firing owes every non-selected input an anti-token; one is
            // delivered when accepted upstream or cancelled in place against
            // an arriving token — the same thing at this boundary.
            let incurred = fired & !gather.selected[input];
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

    fn reset(&mut self) {
        self.owed.fill(0);
        self.clean.fill(R::HIGH);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::{Controller, NodeIo};
    use crate::signal::ChannelState;

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
