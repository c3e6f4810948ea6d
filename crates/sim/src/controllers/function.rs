//! Combinational function blocks (lazy joins).
//!
//! A function block waits for a valid token on every input (join semantics),
//! computes its operation and offers the result. It is purely combinational:
//! pipeline stages come from elastic buffers, never from function blocks.
//!
//! Anti-token behaviour (needed once early evaluation is in play): an
//! anti-token arriving at the output must ultimately remove one token from
//! *each* input, because producing one output token would have consumed one
//! from each input. Two cases:
//!
//! * all inputs already carry tokens — the block *annihilates*: the input
//!   tokens are consumed (a normal transfer from the producers' point of
//!   view) and no output is produced;
//! * otherwise the anti-token is forwarded to every input simultaneously,
//!   provided every producer can accept it.
//!
//! The block is generic over the rail word: `bool` simulates one scenario,
//! `u64` 64 lanes. Its datapath runs by column: the operands are memoised
//! as port-major columns, compared whole, and a changed column recomputes
//! the result column with one call of [`evaluate_columns`], masked to the
//! output width in one pass.

use std::cell::RefCell;

use elastic_core::FunctionSpec;
use elastic_datapath::adder::mask;
use elastic_datapath::evaluate_columns;

use crate::controller::Controller;
use crate::controllers::same_column;
use crate::handshake::{function_backward, function_forward, HandshakeIo, Rail};

/// Controller for a combinational function block, per lane of the rail
/// word `R`.
#[derive(Debug)]
pub struct FunctionBlock<R: Rail> {
    spec: FunctionSpec,
    output_width: u8,
    /// The datapath memo: a settle pass re-evaluates the join several times
    /// per cycle while the operands rarely change, so the result column is
    /// recomputed only when an operand column did.
    memo: RefCell<Memo<R>>,
}

/// The operands a result column was computed from.
#[derive(Debug)]
struct Memo<R: Rail> {
    /// Operand columns, port-major: `operands[port * R::LANES + lane]`.
    operands: Vec<u64>,
    /// The masked result column.
    results: R::PerLane<u64>,
    valid: bool,
}

impl<R: Rail> FunctionBlock<R> {
    /// Creates the controller; `output_width` is the width of the output
    /// channel (results are masked to it).
    pub fn new(spec: FunctionSpec, output_width: u8) -> Self {
        let memo = Memo {
            operands: vec![0; spec.inputs * R::LANES],
            results: R::per_lane(|_| 0),
            valid: false,
        };
        FunctionBlock { spec, output_width, memo: RefCell::new(memo) }
    }

    /// The forward equation, driving the operation's result on the input
    /// words — one planned op of the compiled plan and of emitted settle
    /// functions.
    pub fn forward<P: HandshakeIo<Rail = R>>(&self, io: &mut P) {
        let Memo { operands, results, valid } = &mut *self.memo.borrow_mut();
        let column = |port: usize| port * R::LANES..(port + 1) * R::LANES;
        let ports = 0..self.spec.inputs;
        if !*valid || ports.clone().any(|port| !same_column(&operands[column(port)], io, port)) {
            for port in ports.clone() {
                operands[column(port)].copy_from_slice(io.input_data(port));
            }
            let operands = &*operands;
            let op = &self.spec.op;
            evaluate_columns(op, ports.len(), |port| &operands[column(port)], results.as_mut());
            let keep = mask(u64::MAX, self.output_width);
            results.as_mut().iter_mut().for_each(|result| *result &= keep);
            *valid = true;
        }
        function_forward(io, results.as_ref());
    }

    /// The backward equation.
    pub fn backward<P: HandshakeIo<Rail = R>>(&self, io: &mut P) {
        function_backward(io);
    }
}

impl<R: Rail> Controller<R> for FunctionBlock<R> {
    fn eval(&self, io: &mut R::Io<'_>, _optimistic: bool) {
        self.forward(io);
        self.backward(io);
    }

    fn reset(&mut self) {
        self.memo.get_mut().valid = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::{Controller, NodeIo};
    use crate::signal::ChannelState;
    use elastic_core::Op;

    fn io<'a>(
        channels: &'a mut [ChannelState],
        inputs: &'a [usize],
        outputs: &'a [usize],
    ) -> NodeIo<'a> {
        NodeIo::new(channels, inputs, outputs)
    }

    #[test]
    fn waits_for_all_inputs_then_computes() {
        let block = FunctionBlock::<bool>::new(FunctionSpec::with_inputs(Op::Add, 2), 8);
        let mut channels = vec![ChannelState::default(); 3];
        let inputs = [0usize, 1];
        let outputs = [2usize];

        channels[0].forward_valid = true;
        channels[0].data = 3;
        block.eval(&mut io(&mut channels, &inputs, &outputs), false);
        assert!(!channels[2].forward_valid, "a join waits for all operands");
        assert!(channels[0].forward_stop, "the early operand is stalled");

        channels[1].forward_valid = true;
        channels[1].data = 4;
        block.eval(&mut io(&mut channels, &inputs, &outputs), false);
        assert!(channels[2].forward_valid);
        assert_eq!(channels[2].data, 7);
        assert!(!channels[0].forward_stop);
        assert!(!channels[1].forward_stop);
    }

    #[test]
    fn output_backpressure_stalls_all_inputs() {
        let block = FunctionBlock::<bool>::new(FunctionSpec::with_inputs(Op::Add, 2), 8);
        let mut channels = vec![ChannelState::default(); 3];
        let inputs = [0usize, 1];
        let outputs = [2usize];
        channels[0].forward_valid = true;
        channels[1].forward_valid = true;
        channels[2].forward_stop = true;
        block.eval(&mut io(&mut channels, &inputs, &outputs), false);
        assert!(channels[0].forward_stop);
        assert!(channels[1].forward_stop);
    }

    #[test]
    fn arriving_anti_token_annihilates_waiting_operands() {
        let block = FunctionBlock::<bool>::new(FunctionSpec::with_inputs(Op::Add, 2), 8);
        let mut channels = vec![ChannelState::default(); 3];
        let inputs = [0usize, 1];
        let outputs = [2usize];
        channels[0].forward_valid = true;
        channels[1].forward_valid = true;
        channels[2].backward_valid = true; // the consumer does not need the result
        channels[2].forward_stop = true;
        block.eval(&mut io(&mut channels, &inputs, &outputs), false);
        // The operands are consumed (transfer) without forwarding the kill upstream.
        assert!(!channels[0].forward_stop);
        assert!(!channels[1].forward_stop);
        assert!(!channels[0].backward_valid);
        assert!(!channels[1].backward_valid);
        assert!(!channels[2].backward_stop, "the anti-token is absorbed");
    }

    #[test]
    fn anti_token_is_forwarded_when_operands_are_missing() {
        let block = FunctionBlock::<bool>::new(FunctionSpec::with_inputs(Op::Add, 2), 8);
        let mut channels = vec![ChannelState::default(); 3];
        let inputs = [0usize, 1];
        let outputs = [2usize];
        channels[2].backward_valid = true;
        block.eval(&mut io(&mut channels, &inputs, &outputs), false);
        assert!(channels[0].backward_valid);
        assert!(channels[1].backward_valid);
        assert!(!channels[2].backward_stop);
        // Mutual exclusion: a channel being killed is not simultaneously stopped
        // in a way that matters — the producer sees the kill.
    }

    #[test]
    fn anti_token_is_stopped_when_a_producer_refuses_it() {
        let block = FunctionBlock::<bool>::new(FunctionSpec::with_inputs(Op::Add, 2), 8);
        let mut channels = vec![ChannelState::default(); 3];
        let inputs = [0usize, 1];
        let outputs = [2usize];
        channels[2].backward_valid = true;
        channels[1].backward_stop = true; // producer of operand 1 cannot take kills
        block.eval(&mut io(&mut channels, &inputs, &outputs), false);
        assert!(channels[2].backward_stop, "the kill must wait");
        assert!(!channels[0].backward_valid, "no partial kills");
    }

    #[test]
    fn opaque_blocks_pass_data_through() {
        let block =
            FunctionBlock::<bool>::new(FunctionSpec::new(elastic_core::op::opaque("F", 6, 100)), 8);
        let mut channels = vec![ChannelState::default(); 2];
        let inputs = [0usize];
        let outputs = [1usize];
        channels[0].forward_valid = true;
        channels[0].data = 0x5A;
        block.eval(&mut io(&mut channels, &inputs, &outputs), false);
        assert_eq!(channels[1].data, 0x5A);
    }
}
