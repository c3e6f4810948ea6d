//! Environment controllers: sources (token producers) and sinks (consumers).
//!
//! Sources follow the SELF persistence rule (once `V+` is asserted it is held
//! until the token transfers or is cancelled by an anti-token); sinks apply a
//! configurable back-pressure pattern and record the *transfer stream* — the
//! sequence of accepted values — which is the observable that transfer
//! equivalence (Section 3.1) is defined over.
//!
//! Both are generic over the rail word: each lane has its own pattern,
//! random generator, stream position and transfer stream, and the clock
//! edge computes the next cycle's offer (or stop) word, so `eval` drives
//! one word.

use elastic_core::kind::{BackpressurePattern, DataStream, SourcePattern};
use elastic_core::mix::splitmix64;
use elastic_core::{SinkSpec, SourceSpec};
use elastic_datapath::adder::mask;
use elastic_datapath::lfsr::Lfsr64;

use crate::controller::{Controller, NodeReport, NodeStats};
use crate::handshake::{HandshakeIo, Rail};

const OUT: usize = 0;
const IN: usize = 0;

/// When an environment acts: a source's offer or a sink's stall pattern.
trait Pattern: Clone + std::fmt::Debug {
    /// The seed of the pattern's random generator.
    fn seed(&self) -> u64;

    /// Whether the pattern fires in `cycle`. A random pattern draws from
    /// `rng` once per call, that is once per cycle.
    fn fires(&self, cycle: u64, rng: &mut Lfsr64) -> bool;
}

impl Pattern for SourcePattern {
    fn seed(&self) -> u64 {
        if let SourcePattern::Random { seed, .. } = self {
            *seed
        } else {
            1
        }
    }

    fn fires(&self, cycle: u64, rng: &mut Lfsr64) -> bool {
        match self {
            SourcePattern::Always => true,
            SourcePattern::Every(period) => cycle.is_multiple_of(u64::from((*period).max(1))),
            SourcePattern::List(pattern) => {
                pattern.is_empty() || pattern[(cycle as usize) % pattern.len()]
            }
            SourcePattern::Random { probability, .. } => rng.next_bool(*probability),
            // `SourcePattern` is non-exhaustive: unknown patterns offer eagerly.
            _ => true,
        }
    }
}

impl Pattern for BackpressurePattern {
    fn seed(&self) -> u64 {
        if let BackpressurePattern::Random { seed, .. } = self {
            *seed
        } else {
            3
        }
    }

    fn fires(&self, cycle: u64, rng: &mut Lfsr64) -> bool {
        match self {
            BackpressurePattern::Never => false,
            BackpressurePattern::Every(period) => {
                *period > 0 && cycle.is_multiple_of(u64::from(*period))
            }
            BackpressurePattern::List(pattern) => {
                !pattern.is_empty() && pattern[(cycle as usize) % pattern.len()]
            }
            BackpressurePattern::Random { probability, .. } => rng.next_bool(*probability),
            // `BackpressurePattern` is non-exhaustive: unknown patterns never stall.
            _ => false,
        }
    }
}

/// Each lane's pattern and random generator, and the word of lanes in
/// which the pattern fires this cycle. A random generator draws each
/// cycle's decision one cycle ahead, at the previous clock edge.
#[derive(Debug)]
struct Timing<R: Rail, P: Pattern> {
    cycle: u64,
    patterns: R::PerLane<P>,
    rngs: R::PerLane<Lfsr64>,
    fires: R,
}

impl<R: Rail, P: Pattern> Timing<R, P> {
    fn new(pattern: &P) -> Self {
        let rngs = R::per_lane(|_| Lfsr64::new(pattern.seed()));
        Timing { cycle: 0, patterns: R::per_lane(|_| pattern.clone()), rngs, fires: R::LOW }
    }

    /// Draws lane `lane`'s decision for the current cycle.
    fn draw(&mut self, lane: usize) {
        let fires = self.patterns[lane].fires(self.cycle, &mut self.rngs[lane]);
        self.fires = self.fires.with_lane(lane, fires);
    }

    /// Restarts lane `lane`'s pattern at the current cycle.
    fn restart(&mut self, lane: usize) {
        self.rngs[lane] = Lfsr64::new(self.patterns[lane].seed());
        self.draw(lane);
    }

    fn rewind(&mut self) {
        self.cycle = 0;
        for lane in 0..R::LANES {
            self.restart(lane);
        }
    }

    /// Replaces lane `lane`'s pattern and restarts it.
    fn set(&mut self, lane: usize, pattern: &P) {
        self.patterns[lane] = pattern.clone();
        self.restart(lane);
    }

    /// Advances every lane to the next cycle.
    fn tick(&mut self) {
        self.cycle += 1;
        for lane in 0..R::LANES {
            self.draw(lane);
        }
    }
}

/// A token-producing environment, per lane of the rail word `R`.
#[derive(Debug)]
pub struct SourceController<R: Rail> {
    spec: SourceSpec,
    width: u8,
    timing: Timing<R, SourcePattern>,
    /// Index of each lane's next stream element (advances on transfer or kill).
    position: R::PerLane<usize>,
    /// The lanes holding an outstanding offer (persistence).
    offering: R,
    /// Each lane's next stream element: the driven data column.
    values: R::PerLane<u64>,
    stats: R::PerLane<NodeStats>,
}

impl<R: Rail> SourceController<R> {
    /// Creates the controller for a source with the given output width.
    pub fn new(spec: SourceSpec, width: u8) -> Self {
        let mut source = SourceController {
            timing: Timing::new(&spec.pattern),
            spec,
            width,
            position: R::per_lane(|_| 0),
            offering: R::LOW,
            values: R::per_lane(|_| 0),
            stats: R::per_lane(|_| NodeStats::default()),
        };
        source.reset();
        source
    }

    /// Stream element `position`, masked to the output width.
    fn value(&self, position: usize) -> u64 {
        let value = match &self.spec.data {
            DataStream::Counter => position as u64,
            DataStream::Const(value) => *value,
            DataStream::List(values) => {
                if values.is_empty() {
                    0
                } else {
                    values[position % values.len()]
                }
            }
            // Derived from the element index, so replays of the stream see
            // the same value.
            DataStream::Random { seed } => splitmix64(seed.wrapping_add(position as u64)),
            // `DataStream` is non-exhaustive: unknown streams count tokens.
            _ => position as u64,
        };
        mask(value, self.width)
    }
}

impl<R: Rail> Controller<R> for SourceController<R> {
    fn eval(&self, io: &mut R::Io<'_>, _optimistic: bool) {
        // A pending offer persists (Retry behaviour); otherwise the pattern
        // decides whether a fresh token is offered this cycle.
        io.set_output_valid(OUT, self.offering | self.timing.fires);
        io.drive_data(OUT, self.values.as_ref());
        // Sources always accept anti-tokens: a kill simply cancels the
        // pending (or next) token.
        io.set_output_anti_stop(OUT, R::LOW);
    }

    fn commit(&mut self, io: &R::Io<'_>) {
        let valid = io.output_valid(OUT);
        let killed = io.output_kill(OUT) & !io.output_anti_stop(OUT);
        let transferred = valid & !io.output_stop(OUT) & !killed;
        let stalled = valid & !killed & !transferred;
        let consumed = if self.spec.consume_on_kill { killed } else { R::LOW };
        for lane in killed.lanes() {
            self.stats[lane].killed_tokens += 1;
        }
        for lane in transferred.lanes() {
            self.stats[lane].output_transfers += 1;
        }
        for lane in stalled.lanes() {
            self.stats[lane].stall_cycles += 1;
        }
        for lane in (transferred | consumed).lanes() {
            self.position[lane] += 1;
            self.values[lane] = self.value(self.position[lane]);
        }
        self.offering = (self.offering | stalled) & !(killed | transferred);
        // The pattern advances once per cycle regardless of outcome, so
        // random offer patterns are per-cycle, not per-token.
        self.timing.tick();
    }

    fn reset(&mut self) {
        self.timing.rewind();
        self.offering = R::LOW;
        self.position.as_mut().fill(0);
        let first = self.value(0);
        self.values.as_mut().fill(first);
        self.stats.as_mut().fill(NodeStats::default());
    }

    fn report(&self, lane: usize) -> NodeReport<'_> {
        NodeReport::Source(self.stats[lane])
    }

    /// The offer pattern and persistence state fully determine the driven
    /// signals; sources never react to channel signals within a cycle.
    fn eval_reads_channels(&self) -> bool {
        false
    }

    fn override_source(&mut self, lane: usize, pattern: &SourcePattern) -> bool {
        self.timing.set(lane, pattern);
        true
    }
}

/// A token-consuming environment that records the transfer stream, per
/// lane of the rail word `R`.
#[derive(Debug)]
pub struct SinkController<R: Rail> {
    timing: Timing<R, BackpressurePattern>,
    /// Each lane's transfer stream: `(cycle, value)` pairs.
    received: R::PerLane<Vec<(u64, u64)>>,
    stats: R::PerLane<NodeStats>,
}

impl<R: Rail> SinkController<R> {
    /// Creates the controller for a sink.
    pub fn new(spec: SinkSpec) -> Self {
        let mut sink = SinkController {
            timing: Timing::new(&spec.backpressure),
            received: R::per_lane(|_| Vec::new()),
            stats: R::per_lane(|_| NodeStats::default()),
        };
        sink.reset();
        sink
    }
}

impl<R: Rail> Controller<R> for SinkController<R> {
    fn eval(&self, io: &mut R::Io<'_>, _optimistic: bool) {
        io.set_input_stop(IN, self.timing.fires);
        io.set_input_kill(IN, R::LOW);
    }

    fn commit(&mut self, io: &R::Io<'_>) {
        let (valid, stop) = (io.input_valid(IN), io.input_stop(IN));
        let data = io.input_data(IN);
        for lane in (valid & !stop).lanes() {
            self.received[lane].push((self.timing.cycle, data[lane]));
            self.stats[lane].output_transfers += 1;
        }
        for lane in (valid & stop).lanes() {
            self.stats[lane].stall_cycles += 1;
        }
        self.timing.tick();
    }

    fn reset(&mut self) {
        self.timing.rewind();
        self.received.as_mut().iter_mut().for_each(Vec::clear);
        self.stats.as_mut().fill(NodeStats::default());
    }

    fn report(&self, lane: usize) -> NodeReport<'_> {
        NodeReport::Sink(self.stats[lane], &self.received[lane])
    }

    /// The back-pressure pattern fully determines the driven signals; sinks
    /// never react to channel signals within a cycle (recording happens at
    /// the clock edge).
    fn eval_reads_channels(&self) -> bool {
        false
    }

    fn override_sink(&mut self, lane: usize, pattern: &BackpressurePattern) -> bool {
        self.timing.set(lane, pattern);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::{Controller, NodeIo};
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
        let mut source = SourceController::<bool>::new(SourceSpec::list(vec![10, 20, 30]), 8);
        let mut channels = [ChannelState::default()];
        let mut seen = Vec::new();
        for _ in 0..5 {
            source.eval(&mut source_io(&mut channels), false);
            assert!(channels[0].forward_valid);
            seen.push(channels[0].data);
            source.commit(&source_io(&mut channels));
        }
        assert_eq!(seen, vec![10, 20, 30, 10, 20]);
    }

    #[test]
    fn random_source_data_is_pinned() {
        // Random source streams feed every generated design's reference
        // outputs and corpus seeds: the values must never drift.
        let spec = SourceSpec { data: DataStream::Random { seed: 5 }, ..SourceSpec::always() };
        let mut source = SourceController::<bool>::new(spec, 64);
        let mut channels = [ChannelState::default()];
        let mut seen = Vec::new();
        for _ in 0..8 {
            source.eval(&mut source_io(&mut channels), false);
            seen.push(channels[0].data);
            source.commit(&source_io(&mut channels));
        }
        assert_eq!(
            seen,
            [
                0x6303_3b0c_a389_c35a,
                0xbd64_a5d9_adef_e000,
                0x63cb_e1e4_5932_0dd7,
                0x9e56_51b0_ef95_3636,
                0xaeaf_52fe_be70_6064,
                0x0887_12be_8a58_2fca,
                0x50f5_647d_2380_309d,
                0x943f_f9fc_99de_8f03,
            ]
        );
    }

    #[test]
    fn sources_hold_their_token_under_backpressure() {
        let mut source = SourceController::<bool>::new(SourceSpec::list(vec![5, 6]), 8);
        let mut channels = [ChannelState::default()];
        channels[0].forward_stop = true;
        for _ in 0..3 {
            source.eval(&mut source_io(&mut channels), false);
            assert_eq!(channels[0].data, 5, "Retry cycles must keep the same token (persistence)");
            source.commit(&source_io(&mut channels));
        }
        channels[0].forward_stop = false;
        source.eval(&mut source_io(&mut channels), false);
        assert_eq!(channels[0].data, 5);
        source.commit(&source_io(&mut channels));
        source.eval(&mut source_io(&mut channels), false);
        assert_eq!(channels[0].data, 6, "after the transfer the next value is offered");
    }

    #[test]
    fn anti_tokens_skip_source_tokens() {
        let mut source = SourceController::<bool>::new(SourceSpec::list(vec![1, 2, 3]), 8);
        let mut channels = [ChannelState::default()];
        channels[0].forward_stop = true;
        channels[0].backward_valid = true; // consumer kills the offered token
        source.eval(&mut source_io(&mut channels), false);
        assert!(!channels[0].backward_stop);
        source.commit(&source_io(&mut channels));
        assert_eq!(source.stats[0].killed_tokens, 1);
        channels[0].backward_valid = false;
        channels[0].forward_stop = false;
        source.eval(&mut source_io(&mut channels), false);
        assert_eq!(channels[0].data, 2, "the killed token is skipped");
    }

    #[test]
    fn every_n_sources_pace_their_offers() {
        let spec = SourceSpec {
            pattern: SourcePattern::Every(2),
            data: DataStream::Counter,
            ..SourceSpec::default()
        };
        let mut source = SourceController::<bool>::new(spec, 8);
        let mut channels = [ChannelState::default()];
        let mut offers = Vec::new();
        for _ in 0..6 {
            source.eval(&mut source_io(&mut channels), false);
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
        let mut sink = SinkController::<bool>::new(SinkSpec::always_ready());
        let mut channels = [ChannelState::default()];
        for value in [4u64, 5, 6] {
            channels[0].forward_valid = true;
            channels[0].data = value;
            sink.eval(&mut sink_io(&mut channels), false);
            assert!(!channels[0].forward_stop);
            sink.commit(&sink_io(&mut channels));
        }
        let values: Vec<u64> = sink.received[0].iter().map(|&(_, v)| v).collect();
        assert_eq!(values, vec![4, 5, 6]);
        assert_eq!(sink.stats[0].output_transfers, 3);
    }

    #[test]
    fn stalling_sinks_apply_their_pattern() {
        let spec = SinkSpec { backpressure: BackpressurePattern::List(vec![true, false]) };
        let mut sink = SinkController::<bool>::new(spec);
        let mut channels = [ChannelState::default()];
        channels[0].forward_valid = true;
        channels[0].data = 1;
        let mut stops = Vec::new();
        for _ in 0..4 {
            sink.eval(&mut sink_io(&mut channels), false);
            stops.push(channels[0].forward_stop);
            sink.commit(&sink_io(&mut channels));
        }
        assert_eq!(stops, vec![true, false, true, false]);
        assert_eq!(sink.received[0].len(), 2);
    }
}
