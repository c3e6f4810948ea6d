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

use elastic_core::MuxSpec;

use crate::controller::{Controller, NodeIo, NodeReport, NodeStats};
use crate::handshake::{mux_backward, mux_forward};

const SELECT: usize = 0;
const OUT: usize = 0;

/// Controller for (early-evaluation) multiplexors.
#[derive(Debug)]
pub struct MuxController {
    spec: MuxSpec,
    /// Anti-tokens owed to each data input (early evaluation only).
    owed_anti_tokens: Vec<u32>,
    stats: NodeStats,
}

impl MuxController {
    /// Creates the controller.
    pub fn new(spec: MuxSpec) -> Self {
        MuxController {
            owed_anti_tokens: vec![0; spec.data_inputs],
            spec,
            stats: NodeStats::default(),
        }
    }

    fn selected(&self, io: &NodeIo<'_>) -> usize {
        (io.input(SELECT).data as usize) % self.spec.data_inputs.max(1)
    }

    /// Outstanding anti-token debt per data channel (diagnostic).
    pub fn owed_anti_tokens(&self) -> &[u32] {
        &self.owed_anti_tokens
    }

    /// The forward equation on this mux's select and owed anti-tokens —
    /// one planned op of the compiled plan (codegen calls it per op).
    pub fn forward(&self, io: &mut NodeIo<'_>) {
        let selected = self.selected(io);
        let data = io.input(1 + selected).data;
        let owed = &self.owed_anti_tokens;
        mux_forward(io, self.spec.early_eval, |j| j == selected, |j| owed[j] == 0, &data);
    }

    /// The backward equation on this mux's select and owed anti-tokens.
    pub fn backward(&self, io: &mut NodeIo<'_>) {
        let selected = self.selected(io);
        let owed = &self.owed_anti_tokens;
        mux_backward(io, self.spec.early_eval, |j| j == selected, |j| owed[j] == 0);
    }
}

impl Controller for MuxController {
    fn eval(&self, io: &mut NodeIo<'_>) {
        self.forward(io);
        self.backward(io);
    }

    fn commit(&mut self, io: &NodeIo<'_>) {
        let output = io.output(OUT);
        let select = io.input(SELECT);
        let fire = output.forward_valid && !output.forward_stop;
        if fire {
            self.stats.output_transfers += 1;
        } else if output.forward_valid {
            self.stats.stall_cycles += 1;
        }
        if !self.spec.early_eval {
            return;
        }
        let selected = self.selected(io);
        for j in 0..self.spec.data_inputs {
            let channel = io.input(1 + j);
            // Anti-token delivered (either accepted upstream or cancelled in
            // place against an arriving token — same thing at this boundary).
            let delivered = channel.backward_valid && !channel.backward_stop;
            let mut owed = self.owed_anti_tokens[j];
            if fire && select.forward_valid && j != selected {
                owed += 1;
            }
            if delivered {
                owed = owed.saturating_sub(1);
                self.stats.killed_tokens += 1;
            }
            self.owed_anti_tokens[j] = owed;
        }
    }

    fn report(&self) -> NodeReport<'_> {
        NodeReport::Basic(self.stats)
    }

    fn reset(&mut self) {
        self.owed_anti_tokens.iter_mut().for_each(|owed| *owed = 0);
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

    // Channel layout used by the tests:
    // 0 = select, 1 = data0, 2 = data1, 3 = output.
    fn io(channels: &mut [ChannelState]) -> NodeIo<'_> {
        NodeIo::new(channels, &[0, 1, 2], &[3])
    }

    fn early_mux() -> MuxController {
        MuxController::new(MuxSpec::early(2))
    }

    #[test]
    fn lazy_mux_waits_for_every_input() {
        let mux = MuxController::new(MuxSpec::lazy(2));
        let mut channels = vec![ChannelState::default(); 4];
        channels[0].forward_valid = true; // select = 0
        channels[1].forward_valid = true;
        channels[1].data = 0xAA;
        mux.eval(&mut io(&mut channels));
        assert!(!channels[3].forward_valid, "the non-selected input is still missing");
        channels[2].forward_valid = true;
        mux.eval(&mut io(&mut channels));
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
        mux.eval(&mut io(&mut channels));
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
        mux.eval(&mut io(&mut channels));
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
        mux.eval(&mut io(&mut channels));
        mux.commit(&io(&mut channels));
        assert_eq!(mux.owed_anti_tokens(), &[0, 1]);

        // Next cycle: nothing new fires, but the owed anti-token is still offered.
        let mut channels = vec![ChannelState::default(); 4];
        mux.eval(&mut io(&mut channels));
        assert!(channels[2].backward_valid);
        // Now the producer accepts it.
        channels[2].backward_stop = false;
        mux.eval(&mut io(&mut channels));
        mux.commit(&io(&mut channels));
        assert_eq!(mux.owed_anti_tokens(), &[0, 0]);
        assert_eq!(mux.stats.killed_tokens, 1);
    }

    #[test]
    fn stale_tokens_on_an_owed_channel_are_cancelled_not_used() {
        let mut mux = early_mux();
        // Cycle 1: fire with select 0 while channel 1 cannot absorb the kill.
        let mut channels = vec![ChannelState::default(); 4];
        channels[0].forward_valid = true;
        channels[1].forward_valid = true;
        channels[2].backward_stop = true;
        mux.eval(&mut io(&mut channels));
        mux.commit(&io(&mut channels));
        assert_eq!(mux.owed_anti_tokens(), &[0, 1]);

        // Cycle 2: the select now points at channel 1, whose arriving token is
        // stale (it corresponds to the previous, already-resolved decision).
        let mut channels = vec![ChannelState::default(); 4];
        channels[0].forward_valid = true;
        channels[0].data = 1;
        channels[2].forward_valid = true;
        channels[2].data = 0x22;
        mux.eval(&mut io(&mut channels));
        assert!(!channels[3].forward_valid, "a stale token must not be forwarded");
        assert!(channels[2].backward_valid, "it is cancelled by the owed anti-token instead");
        mux.commit(&io(&mut channels));
        assert_eq!(mux.owed_anti_tokens(), &[0, 0]);
    }

    #[test]
    fn early_mux_output_backpressure_prevents_kills() {
        let mux = early_mux();
        let mut channels = vec![ChannelState::default(); 4];
        channels[0].forward_valid = true;
        channels[1].forward_valid = true;
        channels[2].forward_valid = true;
        channels[3].forward_stop = true; // downstream refuses
        mux.eval(&mut io(&mut channels));
        assert!(!channels[2].backward_valid, "no firing, so no anti-token is owed yet");
        assert!(channels[0].forward_stop);
    }
}
