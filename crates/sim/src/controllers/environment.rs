//! Environment controllers: sources (token producers) and sinks (consumers).
//!
//! Sources follow the SELF persistence rule (once `V+` is asserted it is held
//! until the token transfers or is cancelled by an anti-token); sinks apply a
//! configurable back-pressure pattern and record the *transfer stream* — the
//! sequence of accepted values — which is the observable that transfer
//! equivalence (Section 3.1) is defined over.

use elastic_core::kind::{BackpressurePattern, DataStream, SourcePattern};
use elastic_core::{SinkSpec, SourceSpec};
use elastic_datapath::adder::mask;
use elastic_datapath::lfsr::Lfsr64;

use crate::controller::{Controller, NodeIo, NodeReport, NodeStats};

const OUT: usize = 0;
const IN: usize = 0;

/// A token-producing environment.
#[derive(Debug)]
pub struct SourceController {
    spec: SourceSpec,
    width: u8,
    cycle: u64,
    /// Index of the next stream element to offer (advances on transfer or kill).
    position: usize,
    /// Whether a token offer is currently outstanding (persistence).
    offering: bool,
    pattern_rng: Lfsr64,
    stats: NodeStats,
    killed: u64,
}

impl SourceController {
    /// Creates the controller for a source with the given output width.
    pub fn new(spec: SourceSpec, width: u8) -> Self {
        let pattern_seed = Self::pattern_seed(&spec);
        SourceController {
            spec,
            width,
            cycle: 0,
            position: 0,
            offering: false,
            pattern_rng: Lfsr64::new(pattern_seed),
            stats: NodeStats::default(),
            killed: 0,
        }
    }

    fn wants_to_offer(&self) -> bool {
        match &self.spec.pattern {
            SourcePattern::Always => true,
            SourcePattern::Every(period) => self.cycle.is_multiple_of(u64::from((*period).max(1))),
            SourcePattern::List(pattern) => {
                if pattern.is_empty() {
                    true
                } else {
                    pattern[(self.cycle as usize) % pattern.len()]
                }
            }
            SourcePattern::Random { probability, .. } => {
                self.pattern_rng.clone().next_bool(*probability)
            }
            // `SourcePattern` is non-exhaustive: unknown patterns offer eagerly.
            _ => true,
        }
    }

    fn current_value(&self) -> u64 {
        let value = match &self.spec.data {
            DataStream::Counter => self.position as u64,
            DataStream::Const(value) => *value,
            DataStream::List(values) => {
                if values.is_empty() {
                    0
                } else {
                    values[self.position % values.len()]
                }
            }
            DataStream::Random { seed } => {
                // Derive the value from the element index so that repeated
                // `eval` calls within a cycle (and replays of the stream) see
                // the same value: a splitmix-style hash of (seed, position).
                let mut value =
                    seed.wrapping_add(0x9E37_79B9_7F4A_7C15).wrapping_add(self.position as u64);
                value = (value ^ (value >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                value = (value ^ (value >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                value ^ (value >> 31)
            }
            // `DataStream` is non-exhaustive: unknown streams count tokens.
            _ => self.position as u64,
        };
        mask(value, self.width)
    }

    /// Number of tokens cancelled by anti-tokens before being produced.
    pub fn killed_tokens(&self) -> u64 {
        self.killed
    }

    fn pattern_seed(spec: &SourceSpec) -> u64 {
        match spec.pattern {
            SourcePattern::Random { seed, .. } => seed,
            _ => 1,
        }
    }
}

impl Controller for SourceController {
    fn eval(&self, io: &mut NodeIo<'_>) {
        // A pending offer persists (Retry behaviour); otherwise the pattern
        // decides whether a fresh token is offered this cycle.
        let offering = self.offering || self.wants_to_offer();
        io.set_output_valid(OUT, offering);
        io.set_output_data(OUT, self.current_value());
        // Sources always accept anti-tokens: a kill simply cancels the
        // pending (or next) token.
        io.set_output_anti_stop(OUT, false);
    }

    fn commit(&mut self, io: &NodeIo<'_>) {
        let output = io.output(OUT);
        let offering = output.forward_valid;
        let killed = output.backward_transfer();
        let transferred = offering && !output.forward_stop && !killed;
        if killed {
            if self.spec.consume_on_kill {
                self.position += 1;
            }
            self.killed += 1;
            self.stats.killed_tokens += 1;
            self.offering = false;
        } else if transferred {
            self.position += 1;
            self.stats.output_transfers += 1;
            self.offering = false;
        } else if offering {
            self.offering = true;
            self.stats.stall_cycles += 1;
        }
        self.cycle += 1;
        // Keep the pattern RNG advancing once per cycle regardless of outcome
        // so random offer patterns are per-cycle, not per-token.
        if matches!(self.spec.pattern, SourcePattern::Random { .. }) {
            let _ = self.pattern_rng.next_word();
        }
    }

    fn report(&self) -> NodeReport<'_> {
        NodeReport::Source(self.stats)
    }

    fn reset(&mut self) {
        self.cycle = 0;
        self.position = 0;
        self.offering = false;
        self.pattern_rng = Lfsr64::new(Self::pattern_seed(&self.spec));
        self.stats = NodeStats::default();
        self.killed = 0;
    }

    fn override_source_pattern(&mut self, pattern: &SourcePattern) -> bool {
        self.spec.pattern = pattern.clone();
        self.reset();
        true
    }

    /// The offer pattern and persistence state fully determine the driven
    /// signals; sources never react to channel signals within a cycle.
    fn eval_reads_channels(&self) -> bool {
        false
    }
}

/// A token-consuming environment that records the transfer stream.
#[derive(Debug)]
pub struct SinkController {
    spec: SinkSpec,
    cycle: u64,
    rng: Lfsr64,
    received: Vec<(u64, u64)>,
    stats: NodeStats,
}

impl SinkController {
    /// Creates the controller for a sink.
    pub fn new(spec: SinkSpec) -> Self {
        let seed = Self::backpressure_seed(&spec);
        SinkController {
            spec,
            cycle: 0,
            rng: Lfsr64::new(seed),
            received: Vec::new(),
            stats: NodeStats::default(),
        }
    }

    fn backpressure_seed(spec: &SinkSpec) -> u64 {
        match spec.backpressure {
            BackpressurePattern::Random { seed, .. } => seed,
            _ => 3,
        }
    }

    fn stalls_now(&self) -> bool {
        match &self.spec.backpressure {
            BackpressurePattern::Never => false,
            BackpressurePattern::Every(period) => {
                *period > 0 && self.cycle.is_multiple_of(u64::from(*period))
            }
            BackpressurePattern::List(pattern) => {
                if pattern.is_empty() {
                    false
                } else {
                    pattern[(self.cycle as usize) % pattern.len()]
                }
            }
            BackpressurePattern::Random { probability, .. } => {
                self.rng.clone().next_bool(*probability)
            }
            // `BackpressurePattern` is non-exhaustive: unknown patterns never stall.
            _ => false,
        }
    }

    /// The transfer stream observed so far: `(cycle, value)` pairs.
    pub fn received(&self) -> &[(u64, u64)] {
        &self.received
    }
}

impl Controller for SinkController {
    fn eval(&self, io: &mut NodeIo<'_>) {
        io.set_input_stop(IN, self.stalls_now());
        io.set_input_kill(IN, false);
    }

    fn commit(&mut self, io: &NodeIo<'_>) {
        let input = io.input(IN);
        if input.forward_valid && !input.forward_stop {
            self.received.push((self.cycle, input.data));
            self.stats.output_transfers += 1;
        } else if input.forward_valid {
            self.stats.stall_cycles += 1;
        }
        self.cycle += 1;
        if matches!(self.spec.backpressure, BackpressurePattern::Random { .. }) {
            let _ = self.rng.next_word();
        }
    }

    fn report(&self) -> NodeReport<'_> {
        NodeReport::Sink(self.stats, &self.received)
    }

    fn reset(&mut self) {
        self.cycle = 0;
        self.rng = Lfsr64::new(Self::backpressure_seed(&self.spec));
        self.received.clear();
        self.stats = NodeStats::default();
    }

    fn override_backpressure(&mut self, pattern: &BackpressurePattern) -> bool {
        self.spec.backpressure = pattern.clone();
        self.reset();
        true
    }

    /// The back-pressure pattern fully determines the driven signals; sinks
    /// never react to channel signals within a cycle (recording happens at
    /// the clock edge).
    fn eval_reads_channels(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signal::ChannelState;

    fn source_io(channels: &mut [ChannelState]) -> NodeIo<'_> {
        // Sources have no inputs and one output (channel 0).
        NodeIo::new(channels, &[], &[0])
    }

    fn sink_io(channels: &mut [ChannelState]) -> NodeIo<'_> {
        NodeIo::new(channels, &[0], &[])
    }

    #[test]
    fn list_sources_offer_values_in_order_and_repeat() {
        let mut source = SourceController::new(SourceSpec::list(vec![10, 20, 30]), 8);
        let mut channels = [ChannelState::default()];
        let mut seen = Vec::new();
        for _ in 0..5 {
            source.eval(&mut source_io(&mut channels));
            assert!(channels[0].forward_valid);
            seen.push(channels[0].data);
            source.commit(&source_io(&mut channels));
        }
        assert_eq!(seen, vec![10, 20, 30, 10, 20]);
    }

    #[test]
    fn sources_hold_their_token_under_backpressure() {
        let mut source = SourceController::new(SourceSpec::list(vec![5, 6]), 8);
        let mut channels = [ChannelState::default()];
        channels[0].forward_stop = true;
        for _ in 0..3 {
            source.eval(&mut source_io(&mut channels));
            assert_eq!(channels[0].data, 5, "Retry cycles must keep the same token (persistence)");
            source.commit(&source_io(&mut channels));
        }
        channels[0].forward_stop = false;
        source.eval(&mut source_io(&mut channels));
        assert_eq!(channels[0].data, 5);
        source.commit(&source_io(&mut channels));
        source.eval(&mut source_io(&mut channels));
        assert_eq!(channels[0].data, 6, "after the transfer the next value is offered");
    }

    #[test]
    fn anti_tokens_skip_source_tokens() {
        let mut source = SourceController::new(SourceSpec::list(vec![1, 2, 3]), 8);
        let mut channels = [ChannelState::default()];
        channels[0].forward_stop = true;
        channels[0].backward_valid = true; // consumer kills the offered token
        source.eval(&mut source_io(&mut channels));
        assert!(!channels[0].backward_stop);
        source.commit(&source_io(&mut channels));
        assert_eq!(source.killed_tokens(), 1);
        channels[0].backward_valid = false;
        channels[0].forward_stop = false;
        source.eval(&mut source_io(&mut channels));
        assert_eq!(channels[0].data, 2, "the killed token is skipped");
    }

    #[test]
    fn every_n_sources_pace_their_offers() {
        let spec = SourceSpec {
            pattern: SourcePattern::Every(2),
            data: DataStream::Counter,
            ..SourceSpec::default()
        };
        let mut source = SourceController::new(spec, 8);
        let mut channels = [ChannelState::default()];
        let mut offers = Vec::new();
        for _ in 0..6 {
            source.eval(&mut source_io(&mut channels));
            offers.push(channels[0].forward_valid);
            source.commit(&source_io(&mut channels));
            // reset the producer-owned signal between cycles (the engine does
            // this by recomputing from scratch each cycle).
            channels[0].forward_valid = false;
        }
        assert_eq!(offers, vec![true, false, true, false, true, false]);
    }

    #[test]
    fn sinks_record_the_transfer_stream() {
        let mut sink = SinkController::new(SinkSpec::always_ready());
        let mut channels = [ChannelState::default()];
        for value in [4u64, 5, 6] {
            channels[0].forward_valid = true;
            channels[0].data = value;
            sink.eval(&mut sink_io(&mut channels));
            assert!(!channels[0].forward_stop);
            sink.commit(&sink_io(&mut channels));
        }
        let values: Vec<u64> = sink.received().iter().map(|&(_, v)| v).collect();
        assert_eq!(values, vec![4, 5, 6]);
        assert_eq!(sink.stats.output_transfers, 3);
    }

    #[test]
    fn stalling_sinks_apply_their_pattern() {
        let spec = SinkSpec { backpressure: BackpressurePattern::List(vec![true, false]) };
        let mut sink = SinkController::new(spec);
        let mut channels = [ChannelState::default()];
        channels[0].forward_valid = true;
        channels[0].data = 1;
        let mut stops = Vec::new();
        for _ in 0..4 {
            sink.eval(&mut sink_io(&mut channels));
            stops.push(channels[0].forward_stop);
            sink.commit(&sink_io(&mut channels));
        }
        assert_eq!(stops, vec![true, false, true, false]);
        assert_eq!(sink.received().len(), 2);
    }
}
