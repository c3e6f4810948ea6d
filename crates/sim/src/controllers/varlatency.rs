//! The stalling variable-latency unit of Figure 6(a).
//!
//! The unit computes an approximate result in one cycle. When the error
//! detector reports that the approximation differs from the exact result, the
//! output is withheld for one extra cycle and the exact result is delivered
//! instead — the handshake naturally stalls the producer and the consumer for
//! that cycle. This is the *baseline* implementation whose error-detection
//! path ends up on the critical cycle; the speculative alternative of Figure
//! 6(b) is built structurally out of ordinary primitives (see
//! `elastic_core::library::variable_latency_speculative`).

use elastic_core::kind::VarLatencySpec;
use elastic_datapath::adder::mask;
use elastic_datapath::evaluate;

use crate::controller::{Controller, NodeIo, NodeReport, NodeStats};

const OUT: usize = 0;

/// Controller for the monolithic (stalling) variable-latency unit.
#[derive(Debug)]
pub struct VarLatencyUnit {
    spec: VarLatencySpec,
    output_width: u8,
    /// Result waiting to be delivered downstream.
    output_register: Option<u64>,
    /// Set while the exact computation of the current operands is pending.
    exact_pending: bool,
    stats: NodeStats,
    slow_computations: u64,
}

impl VarLatencyUnit {
    /// Creates the controller.
    pub fn new(spec: VarLatencySpec, output_width: u8) -> Self {
        VarLatencyUnit {
            spec,
            output_width,
            output_register: None,
            exact_pending: false,
            stats: NodeStats::default(),
            slow_computations: 0,
        }
    }

    /// Number of computations that needed the second (exact) cycle.
    pub fn slow_computations(&self) -> u64 {
        self.slow_computations
    }

    fn error_detected(&self, io: &NodeIo<'_>) -> bool {
        evaluate(&self.spec.error, &io.input_words()).unwrap_or(0) != 0
    }

    fn finishes_this_cycle(&self, io: &NodeIo<'_>) -> bool {
        let all_valid = io.all_inputs_valid();
        let output = io.output(OUT);
        let slot_frees =
            self.output_register.is_none() || (output.forward_valid && !output.forward_stop);
        all_valid && slot_frees && (self.exact_pending || !self.error_detected(io))
    }
}

impl Controller for VarLatencyUnit {
    fn eval(&self, io: &mut NodeIo<'_>) {
        io.set_output_valid(OUT, self.output_register.is_some());
        io.set_output_data(OUT, self.output_register.unwrap_or(0));
        io.set_output_anti_stop(OUT, true);

        let finish = self.finishes_this_cycle(io);
        for port in 0..io.input_count() {
            io.set_input_stop(port, !finish);
            io.set_input_kill(port, false);
        }
    }

    fn commit(&mut self, io: &NodeIo<'_>) {
        let output = io.output(OUT);
        if output.forward_valid && !output.forward_stop {
            self.output_register = None;
            self.stats.output_transfers += 1;
        } else if output.forward_valid {
            self.stats.stall_cycles += 1;
        }

        let all_valid = io.all_inputs_valid();
        if !all_valid {
            return;
        }
        let operands = io.input_words();
        let slot_free = self.output_register.is_none();
        if self.finishes_this_cycle(io) {
            let op = if self.exact_pending || self.error_detected(io) {
                &self.spec.exact
            } else {
                &self.spec.approx
            };
            let result = mask(evaluate(op, &operands).unwrap_or(0), self.output_width);
            self.output_register = Some(result);
            self.exact_pending = false;
        } else if slot_free && !self.exact_pending && self.error_detected(io) {
            // The approximation failed: spend one extra cycle, then deliver
            // the exact result.
            self.exact_pending = true;
            self.slow_computations += 1;
            self.stats.stall_cycles += 1;
        }
    }

    fn report(&self) -> NodeReport<'_> {
        NodeReport::Basic(self.stats)
    }

    fn reset(&mut self) {
        self.output_register = None;
        self.exact_pending = false;
        self.stats = NodeStats::default();
        self.slow_computations = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signal::ChannelState;
    use elastic_core::Op;

    fn spec() -> VarLatencySpec {
        VarLatencySpec {
            exact: Op::RippleAdd { width: 8 },
            approx: Op::ApproxAdd { width: 8, spec_bits: 4 },
            error: Op::ApproxAddErr { width: 8, spec_bits: 4 },
            inputs: 2,
        }
    }

    fn io(channels: &mut [ChannelState]) -> NodeIo<'_> {
        NodeIo::new(channels, &[0, 1], &[2])
    }

    #[test]
    fn fast_operands_complete_in_one_cycle() {
        let mut unit = VarLatencyUnit::new(spec(), 9);
        let mut channels = vec![ChannelState::default(); 3];
        channels[0].forward_valid = true;
        channels[0].data = 0x03;
        channels[1].forward_valid = true;
        channels[1].data = 0x04;
        unit.eval(&mut io(&mut channels));
        assert!(!channels[0].forward_stop, "no carry across the boundary: single-cycle");
        unit.commit(&io(&mut channels));
        channels[0].forward_valid = false;
        channels[1].forward_valid = false;
        unit.eval(&mut io(&mut channels));
        assert!(channels[2].forward_valid);
        assert_eq!(channels[2].data, 7);
        assert_eq!(unit.slow_computations(), 0);
    }

    #[test]
    fn erroneous_operands_take_two_cycles_and_deliver_the_exact_sum() {
        let mut unit = VarLatencyUnit::new(spec(), 9);
        let mut channels = vec![ChannelState::default(); 3];
        // 0x0F + 0x01 carries across bit 4: the approximation is wrong.
        channels[0].forward_valid = true;
        channels[0].data = 0x0F;
        channels[1].forward_valid = true;
        channels[1].data = 0x01;

        // Cycle 1: the unit stalls its inputs.
        unit.eval(&mut io(&mut channels));
        assert!(channels[0].forward_stop);
        unit.commit(&io(&mut channels));
        assert_eq!(unit.slow_computations(), 1);

        // Cycle 2: the exact result is produced and the operands are consumed.
        unit.eval(&mut io(&mut channels));
        assert!(!channels[0].forward_stop);
        unit.commit(&io(&mut channels));
        channels[0].forward_valid = false;
        channels[1].forward_valid = false;

        // Cycle 3: the exact result is visible downstream.
        unit.eval(&mut io(&mut channels));
        assert!(channels[2].forward_valid);
        assert_eq!(channels[2].data, 0x10);
    }

    #[test]
    fn output_backpressure_holds_the_result() {
        let mut unit = VarLatencyUnit::new(spec(), 9);
        let mut channels = vec![ChannelState::default(); 3];
        channels[0].forward_valid = true;
        channels[0].data = 1;
        channels[1].forward_valid = true;
        channels[1].data = 1;
        unit.eval(&mut io(&mut channels));
        unit.commit(&io(&mut channels));
        // Result is latched; downstream refuses it for a while.
        channels[0].forward_valid = false;
        channels[1].forward_valid = false;
        channels[2].forward_stop = true;
        for _ in 0..3 {
            unit.eval(&mut io(&mut channels));
            assert!(channels[2].forward_valid);
            assert_eq!(channels[2].data, 2);
            unit.commit(&io(&mut channels));
        }
        channels[2].forward_stop = false;
        unit.eval(&mut io(&mut channels));
        unit.commit(&io(&mut channels));
        unit.eval(&mut io(&mut channels));
        assert!(!channels[2].forward_valid, "the register empties after the transfer");
    }
}
