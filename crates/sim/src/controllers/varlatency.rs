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
//!
//! The unit is generic over the rail word: `bool` simulates one scenario,
//! `u64` 64 lanes.

use std::cell::RefCell;

use elastic_core::kind::VarLatencySpec;
use elastic_datapath::adder::mask;
use elastic_datapath::evaluate_columns;

use crate::controller::Controller;
use crate::handshake::{HandshakeIo, Rail};

const OUT: usize = 0;

/// Controller for the monolithic (stalling) variable-latency unit, per lane
/// of the rail word `R`.
#[derive(Debug)]
pub struct VarLatencyUnit<R: Rail> {
    spec: VarLatencySpec,
    output_width: u8,
    /// The lanes holding a result waiting to be delivered downstream.
    full: R,
    /// Each lane's waiting result (`0` when empty): the driven data column.
    register: R::PerLane<u64>,
    /// The lanes whose exact computation of the current operands is pending.
    exact_pending: R,
    /// The result column of the last datapath evaluation (scratch).
    column: RefCell<R::PerLane<u64>>,
}

impl<R: Rail> VarLatencyUnit<R> {
    /// Creates the controller.
    pub fn new(spec: VarLatencySpec, output_width: u8) -> Self {
        VarLatencyUnit {
            spec,
            output_width,
            full: R::LOW,
            register: R::per_lane(|_| 0),
            exact_pending: R::LOW,
            column: RefCell::new(R::per_lane(|_| 0)),
        }
    }

    /// `(every operand valid, the lanes finishing this cycle, the lanes
    /// whose approximation failed)` when the output register frees in the
    /// lanes `slot_free`. The error detector's column is evaluated only when
    /// some lane decides.
    fn finishing<P: HandshakeIo<Rail = R>>(&self, io: &P, slot_free: R) -> (R, R, R) {
        let all_valid = (0..io.input_count()).fold(R::HIGH, |v, port| v & io.input_valid(port));
        let deciding = all_valid & slot_free & !self.exact_pending;
        let mut error = R::LOW;
        if deciding != R::LOW {
            let mut column = self.column.borrow_mut();
            let (error_op, inputs) = (&self.spec.error, io.input_count());
            evaluate_columns(error_op, inputs, |port| io.input_data(port), column.as_mut());
            for (lane, &word) in column.as_ref().iter().enumerate() {
                error = error.with_lane(lane, word != 0);
            }
            error = error & deciding;
        }
        (all_valid, all_valid & slot_free & (self.exact_pending | !error), error)
    }
}

impl<R: Rail> Controller<R> for VarLatencyUnit<R> {
    fn eval(&self, io: &mut R::Io<'_>, _optimistic: bool) {
        io.set_output_valid(OUT, self.full);
        io.drive_data(OUT, self.register.as_ref());
        io.set_output_anti_stop(OUT, R::HIGH);
        let slot_free = !self.full | (io.output_valid(OUT) & !io.output_stop(OUT));
        let (_, finish, _) = self.finishing(io, slot_free);
        for port in 0..io.input_count() {
            io.set_input_stop(port, !finish);
            io.set_input_kill(port, R::LOW);
        }
    }

    fn commit(&mut self, io: &R::Io<'_>) {
        let transferred = io.output_valid(OUT) & !io.output_stop(OUT);
        for lane in transferred.lanes() {
            self.register[lane] = 0;
        }
        self.full = self.full & !transferred;
        let (all_valid, finish, error) = self.finishing(io, !self.full);
        let exact = finish & (self.exact_pending | error);
        for (op, lanes) in [(&self.spec.exact, exact), (&self.spec.approx, finish & !exact)] {
            if lanes != R::LOW {
                let results = self.column.get_mut().as_mut();
                evaluate_columns(op, io.input_count(), |port| io.input_data(port), results);
                for lane in lanes.lanes() {
                    self.register[lane] = mask(results[lane], self.output_width);
                }
            }
        }
        // The approximation failed: spend one extra cycle, then deliver the
        // exact result.
        let slow = all_valid & !self.full & !self.exact_pending & error;
        self.full = self.full | finish;
        self.exact_pending = (self.exact_pending & !finish) | slow;
    }

    fn reset(&mut self) {
        self.full = R::LOW;
        self.register.as_mut().fill(0);
        self.exact_pending = R::LOW;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::{Controller, NodeIo};
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
        let mut unit = VarLatencyUnit::<bool>::new(spec(), 9);
        let mut channels = vec![ChannelState::default(); 3];
        channels[0].forward_valid = true;
        channels[0].data = 0x03;
        channels[1].forward_valid = true;
        channels[1].data = 0x04;
        unit.eval(&mut io(&mut channels), false);
        assert!(!channels[0].forward_stop, "no carry across the boundary: single-cycle");
        unit.commit(&io(&mut channels));
        channels[0].forward_valid = false;
        channels[1].forward_valid = false;
        unit.eval(&mut io(&mut channels), false);
        assert!(channels[2].forward_valid);
        assert_eq!(channels[2].data, 7);
        assert!(!unit.exact_pending);
    }

    #[test]
    fn erroneous_operands_take_two_cycles_and_deliver_the_exact_sum() {
        let mut unit = VarLatencyUnit::<bool>::new(spec(), 9);
        let mut channels = vec![ChannelState::default(); 3];
        // 0x0F + 0x01 carries across bit 4: the approximation is wrong.
        channels[0].forward_valid = true;
        channels[0].data = 0x0F;
        channels[1].forward_valid = true;
        channels[1].data = 0x01;

        // Cycle 1: the unit stalls its inputs.
        unit.eval(&mut io(&mut channels), false);
        assert!(channels[0].forward_stop);
        unit.commit(&io(&mut channels));
        assert!(unit.exact_pending, "one slow computation");

        // Cycle 2: the exact result is produced and the operands are consumed.
        unit.eval(&mut io(&mut channels), false);
        assert!(!channels[0].forward_stop);
        unit.commit(&io(&mut channels));
        channels[0].forward_valid = false;
        channels[1].forward_valid = false;

        // Cycle 3: the exact result is visible downstream.
        unit.eval(&mut io(&mut channels), false);
        assert!(channels[2].forward_valid);
        assert_eq!(channels[2].data, 0x10);
    }

    #[test]
    fn output_backpressure_holds_the_result() {
        let mut unit = VarLatencyUnit::<bool>::new(spec(), 9);
        let mut channels = vec![ChannelState::default(); 3];
        channels[0].forward_valid = true;
        channels[0].data = 1;
        channels[1].forward_valid = true;
        channels[1].data = 1;
        unit.eval(&mut io(&mut channels), false);
        unit.commit(&io(&mut channels));
        // Result is latched; downstream refuses it for a while.
        channels[0].forward_valid = false;
        channels[1].forward_valid = false;
        channels[2].forward_stop = true;
        for _ in 0..3 {
            unit.eval(&mut io(&mut channels), false);
            assert!(channels[2].forward_valid);
            assert_eq!(channels[2].data, 2);
            unit.commit(&io(&mut channels));
        }
        channels[2].forward_stop = false;
        unit.eval(&mut io(&mut channels), false);
        unit.commit(&io(&mut channels));
        unit.eval(&mut io(&mut channels), false);
        assert!(!channels[2].forward_valid, "the register empties after the transfer");
    }
}
