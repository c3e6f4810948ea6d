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

use elastic_core::FunctionSpec;
use elastic_datapath::adder::mask;
use elastic_datapath::evaluate;

use crate::controller::{Controller, NodeIo, NodeReport, NodeStats};

const OUT: usize = 0;

/// Controller for a combinational function block.
#[derive(Debug)]
pub struct FunctionBlock {
    spec: FunctionSpec,
    output_width: u8,
    stats: NodeStats,
}

impl FunctionBlock {
    /// Creates the controller; `output_width` is the width of the output
    /// channel (results are masked to it).
    pub fn new(spec: FunctionSpec, output_width: u8) -> Self {
        FunctionBlock { spec, output_width, stats: NodeStats::default() }
    }

    fn compute(&self, io: &NodeIo<'_>) -> u64 {
        let operands = io.input_data();
        let value = evaluate(&self.spec.op, &operands).unwrap_or(0);
        mask(value, self.output_width)
    }
}

impl Controller for FunctionBlock {
    fn eval(&self, io: &mut NodeIo<'_>) {
        let inputs = io.input_count();
        let all_valid = io.all_inputs_valid();
        let output = io.output(OUT);
        let kill = output.backward_valid;

        io.set_output_valid(OUT, all_valid);
        io.set_output_data(OUT, self.compute(io));

        // Can the block dispose of an arriving anti-token?
        let all_producers_accept_kill = (0..inputs).all(|i| !io.input(i).backward_stop);
        io.set_output_anti_stop(OUT, !(all_valid || all_producers_accept_kill));

        // The inputs fire together: either the output transfers, or the
        // arriving anti-token annihilates against the waiting input tokens.
        let output_transfer = all_valid && !output.forward_stop && !kill;
        let annihilate = all_valid && kill;
        let forward_kill = kill && !all_valid && all_producers_accept_kill;
        let fire = output_transfer || annihilate;
        for i in 0..inputs {
            io.set_input_stop(i, !fire);
            io.set_input_kill(i, forward_kill);
        }
    }

    fn commit(&mut self, io: &NodeIo<'_>) {
        let output = io.output(OUT);
        if output.forward_transfer() {
            self.stats.output_transfers += 1;
        }
        if output.annihilation() {
            self.stats.killed_tokens += 1;
        }
        if output.forward_retry() {
            self.stats.stall_cycles += 1;
        }
    }

    fn report(&self) -> NodeReport<'_> {
        NodeReport::Basic(self.stats)
    }

    fn reset(&mut self) {
        self.stats = NodeStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        let block = FunctionBlock::new(FunctionSpec::with_inputs(Op::Add, 2), 8);
        let mut channels = vec![ChannelState::default(); 3];
        let inputs = [0usize, 1];
        let outputs = [2usize];

        channels[0].forward_valid = true;
        channels[0].data = 3;
        block.eval(&mut io(&mut channels, &inputs, &outputs));
        assert!(!channels[2].forward_valid, "a join waits for all operands");
        assert!(channels[0].forward_stop, "the early operand is stalled");

        channels[1].forward_valid = true;
        channels[1].data = 4;
        block.eval(&mut io(&mut channels, &inputs, &outputs));
        assert!(channels[2].forward_valid);
        assert_eq!(channels[2].data, 7);
        assert!(!channels[0].forward_stop);
        assert!(!channels[1].forward_stop);
    }

    #[test]
    fn output_backpressure_stalls_all_inputs() {
        let block = FunctionBlock::new(FunctionSpec::with_inputs(Op::Add, 2), 8);
        let mut channels = vec![ChannelState::default(); 3];
        let inputs = [0usize, 1];
        let outputs = [2usize];
        channels[0].forward_valid = true;
        channels[1].forward_valid = true;
        channels[2].forward_stop = true;
        block.eval(&mut io(&mut channels, &inputs, &outputs));
        assert!(channels[0].forward_stop);
        assert!(channels[1].forward_stop);
    }

    #[test]
    fn arriving_anti_token_annihilates_waiting_operands() {
        let block = FunctionBlock::new(FunctionSpec::with_inputs(Op::Add, 2), 8);
        let mut channels = vec![ChannelState::default(); 3];
        let inputs = [0usize, 1];
        let outputs = [2usize];
        channels[0].forward_valid = true;
        channels[1].forward_valid = true;
        channels[2].backward_valid = true; // the consumer does not need the result
        channels[2].forward_stop = true;
        block.eval(&mut io(&mut channels, &inputs, &outputs));
        // The operands are consumed (transfer) without forwarding the kill upstream.
        assert!(!channels[0].forward_stop);
        assert!(!channels[1].forward_stop);
        assert!(!channels[0].backward_valid);
        assert!(!channels[1].backward_valid);
        assert!(!channels[2].backward_stop, "the anti-token is absorbed");
    }

    #[test]
    fn anti_token_is_forwarded_when_operands_are_missing() {
        let block = FunctionBlock::new(FunctionSpec::with_inputs(Op::Add, 2), 8);
        let mut channels = vec![ChannelState::default(); 3];
        let inputs = [0usize, 1];
        let outputs = [2usize];
        channels[2].backward_valid = true;
        block.eval(&mut io(&mut channels, &inputs, &outputs));
        assert!(channels[0].backward_valid);
        assert!(channels[1].backward_valid);
        assert!(!channels[2].backward_stop);
        // Mutual exclusion: a channel being killed is not simultaneously stopped
        // in a way that matters — the producer sees the kill.
    }

    #[test]
    fn anti_token_is_stopped_when_a_producer_refuses_it() {
        let block = FunctionBlock::new(FunctionSpec::with_inputs(Op::Add, 2), 8);
        let mut channels = vec![ChannelState::default(); 3];
        let inputs = [0usize, 1];
        let outputs = [2usize];
        channels[2].backward_valid = true;
        channels[1].backward_stop = true; // producer of operand 1 cannot take kills
        block.eval(&mut io(&mut channels, &inputs, &outputs));
        assert!(channels[2].backward_stop, "the kill must wait");
        assert!(!channels[0].backward_valid, "no partial kills");
    }

    #[test]
    fn opaque_blocks_pass_data_through() {
        let block = FunctionBlock::new(FunctionSpec::new(elastic_core::op::opaque("F", 6, 100)), 8);
        let mut channels = vec![ChannelState::default(); 2];
        let inputs = [0usize];
        let outputs = [1usize];
        channels[0].forward_valid = true;
        channels[0].data = 0x5A;
        block.eval(&mut io(&mut channels, &inputs, &outputs));
        assert_eq!(channels[1].data, 0x5A);
    }
}
