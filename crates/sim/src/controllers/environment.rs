//! Environment controllers: sources (token producers) and sinks (consumers).
//!
//! Sources follow the SELF persistence rule (once `V+` is asserted it is held
//! until the token transfers or is cancelled by an anti-token); sinks apply a
//! configurable back-pressure pattern and record the *transfer stream* — the
//! sequence of accepted values — which is the observable that transfer
//! equivalence (Section 3.1) is defined over.
//!
//! Both are generic over the rail word: each lane has its own pattern,
//! random generator, stream cursor and transfer stream, and the clock
//! edge computes the next cycle's offer (or stop) word, so each half drives
//! one word. The clock edge computes that word by word where it can: the
//! lanes whose patterns are deterministic (`Always`, `Never`, `Every`,
//! `List`) are grouped by period into tables of per-phase lane words, so
//! advancing them is one lookup per period; only random patterns (and
//! periods past a fixed bound) are drawn lane by lane. A source matches its
//! data stream once per clock edge and then steps the cursor and the driven
//! value of each transferred lane in one pass over those lanes; a list
//! stream's cursor wraps at the list length, so no lane divides.
//!
//! The per-lane environment hooks take every lane's pattern in one call
//! (one pattern broadcasts to all lanes). Lanes whose pattern is unchanged
//! are left alone, and the period tables are rebuilt in one pass only when
//! some lane's pattern changed, filing each run of lanes sharing a pattern
//! at once; a `List` pattern is copied into the lane's existing one, so a
//! repeated override allocates nothing.

use elastic_core::kind::{BackpressurePattern, DataStream, SourcePattern};
use elastic_core::mix::splitmix64;
use elastic_core::{SinkSpec, SourceSpec};
use elastic_datapath::adder::mask;
use elastic_datapath::lfsr::Lfsr64;

use crate::controller::{Controller, NodeReport, Reads};
use crate::handshake::{HandshakeIo, Rail};

const OUT: usize = 0;
const IN: usize = 0;

/// Longest period for which a deterministic pattern is tabulated; lanes
/// with a longer one are drawn lane by lane, like random patterns.
const MAX_TABULATED_PERIOD: usize = 1024;

/// When an environment acts: a source's offer or a sink's stall pattern.
trait Pattern: Clone + PartialEq + std::fmt::Debug {
    /// The seed of the pattern's random generator.
    fn seed(&self) -> u64;

    /// Whether the pattern fires in `cycle`. A random pattern draws from
    /// `rng` once per call, that is once per cycle.
    fn fires(&self, cycle: u64, rng: &mut Lfsr64) -> bool;

    /// The period of a deterministic pattern, which never draws from its
    /// generator and fires in `cycle` exactly when it fires in
    /// `cycle % period`; `None` for a random pattern.
    fn period(&self) -> Option<usize>;

    /// Makes the pattern equal to `other`, reusing a `List`'s allocation.
    fn assign(&mut self, other: &Self);
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

    fn period(&self) -> Option<usize> {
        match self {
            SourcePattern::Every(period) => Some((*period).max(1) as usize),
            SourcePattern::List(pattern) => Some(pattern.len().max(1)),
            SourcePattern::Random { .. } => None,
            _ => Some(1),
        }
    }

    fn assign(&mut self, other: &Self) {
        match (self, other) {
            (SourcePattern::List(into), SourcePattern::List(from)) => into.clone_from(from),
            (into, from) => *into = from.clone(),
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

    fn period(&self) -> Option<usize> {
        match self {
            BackpressurePattern::Every(period) => Some((*period).max(1) as usize),
            BackpressurePattern::List(pattern) => Some(pattern.len().max(1)),
            BackpressurePattern::Random { .. } => None,
            _ => Some(1),
        }
    }

    fn assign(&mut self, other: &Self) {
        match (self, other) {
            (BackpressurePattern::List(into), BackpressurePattern::List(from)) => {
                into.clone_from(from)
            }
            (into, from) => *into = from.clone(),
        }
    }
}

/// The lanes whose deterministic patterns share one period, tabulated:
/// `table[phase]` holds the lanes that fire when `cycle % period == phase`.
#[derive(Debug)]
struct PhaseTable<R> {
    lanes: R,
    table: Vec<R>,
    /// The current cycle's phase.
    phase: usize,
}

/// Each lane's pattern and random generator, and the word of lanes in
/// which the pattern fires this cycle. Deterministic patterns are
/// tabulated by period, so a cycle costs one table lookup per period in
/// use; random patterns (and periods past [`MAX_TABULATED_PERIOD`]) are
/// drawn lane by lane, each cycle's decision one cycle ahead, at the
/// previous clock edge.
#[derive(Debug)]
struct Timing<R: Rail, P: Pattern> {
    cycle: u64,
    patterns: R::PerLane<P>,
    rngs: R::PerLane<Lfsr64>,
    /// The tabulated lanes, one table per period.
    tables: Vec<PhaseTable<R>>,
    /// The lanes drawn one by one.
    drawn: R,
    fires: R,
}

impl<R: Rail, P: Pattern> Timing<R, P> {
    fn new(pattern: &P) -> Self {
        let rngs = R::per_lane(|_| Lfsr64::new(pattern.seed()));
        let patterns = R::per_lane(|_| pattern.clone());
        let mut timing =
            Timing { cycle: 0, patterns, rngs, tables: Vec::new(), drawn: R::LOW, fires: R::LOW };
        timing.refile();
        timing
    }

    /// Files every lane under its pattern's period table, or among the
    /// drawn lanes, in one pass: each run of consecutive lanes sharing a
    /// pattern is tabulated at once. The tables keep their allocations.
    fn refile(&mut self) {
        let Timing { cycle, patterns, rngs, tables, drawn, .. } = self;
        for table in tables.iter_mut() {
            table.lanes = R::LOW;
            table.table.fill(R::LOW);
        }
        *drawn = R::LOW;
        let patterns = patterns.as_ref();
        let mut file = |first: usize, run: R| {
            let pattern = &patterns[first];
            let Some(period) = pattern.period().filter(|&period| period <= MAX_TABULATED_PERIOD)
            else {
                *drawn = *drawn | run;
                return;
            };
            let at = tables.iter().position(|t| t.table.len() == period).unwrap_or_else(|| {
                tables.push(PhaseTable { lanes: R::LOW, table: vec![R::LOW; period], phase: 0 });
                tables.len() - 1
            });
            let table = &mut tables[at];
            table.lanes = table.lanes | run;
            for (phase, word) in table.table.iter_mut().enumerate() {
                if pattern.fires(phase as u64, &mut rngs[first]) {
                    *word = *word | run;
                }
            }
        };
        let mut first = 0;
        let mut run = R::LOW;
        for lane in 0..R::LANES {
            if lane > first && patterns[lane] != patterns[first] {
                file(first, run);
                (first, run) = (lane, R::LOW);
            }
            run = run | R::lane(lane);
        }
        file(first, run);
        tables.retain(|table| table.lanes != R::LOW);
        for table in tables.iter_mut() {
            table.phase = (*cycle % table.table.len() as u64) as usize;
        }
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
        self.fires = R::LOW;
        for table in &mut self.tables {
            table.phase = 0;
            self.fires = self.fires | table.table[0];
        }
        for lane in self.drawn.lanes() {
            self.restart(lane);
        }
    }

    /// Gives lane `ℓ` the pattern `patterns[min(ℓ, len − 1)]` (an empty
    /// list changes nothing). The lanes whose pattern changed restart at the
    /// current cycle, and the period tables are rebuilt once if any did; a
    /// lane whose pattern is unchanged keeps its generator and decision.
    fn set(&mut self, patterns: &[P]) {
        let Some(last) = patterns.len().checked_sub(1) else { return };
        let mut changed = R::LOW;
        for (lane, pattern) in self.patterns.as_mut().iter_mut().enumerate() {
            let new = &patterns[lane.min(last)];
            if pattern != new {
                pattern.assign(new);
                changed = changed | R::lane(lane);
            }
        }
        if changed == R::LOW {
            return;
        }
        self.refile();
        // Tabulated lanes read their tables; drawn lanes keep their decision
        // unless they restart.
        let mut fires = self.fires & self.drawn & !changed;
        for table in &self.tables {
            fires = fires | table.table[table.phase];
        }
        self.fires = fires;
        for lane in (changed & self.drawn).lanes() {
            self.restart(lane);
        }
    }

    /// Advances every lane to the next cycle.
    fn tick(&mut self) {
        self.cycle += 1;
        self.fires = R::LOW;
        for table in &mut self.tables {
            table.phase += 1;
            if table.phase == table.table.len() {
                table.phase = 0;
            }
            self.fires = self.fires | table.table[table.phase];
        }
        for lane in self.drawn.lanes() {
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
    /// Each lane's stream cursor, the index of its next element (advances
    /// on transfer or kill); a `List` stream's cursor wraps at `wrap`, its
    /// length, so reading the element needs no division.
    cursor: R::PerLane<usize>,
    wrap: usize,
    /// The lanes holding an outstanding offer (persistence).
    offering: R,
    /// Each lane's next stream element: the driven data column.
    values: R::PerLane<u64>,
}

impl<R: Rail> SourceController<R> {
    /// Creates the controller for a source with the given output width.
    pub fn new(spec: SourceSpec, width: u8) -> Self {
        let wrap = match &spec.data {
            DataStream::List(list) if !list.is_empty() => list.len(),
            _ => usize::MAX,
        };
        let mut source = SourceController {
            timing: Timing::new(&spec.pattern),
            spec,
            width,
            cursor: R::per_lane(|_| 0),
            wrap,
            offering: R::LOW,
            values: R::per_lane(|_| 0),
        };
        source.reset();
        source
    }

    /// Moves the stream cursors of `lanes` on by `step` (0 or 1) and
    /// recomputes their driven values, with the data stream matched once for
    /// all of them.
    fn move_cursors(&mut self, lanes: R, step: usize) {
        let keep = mask(u64::MAX, self.width);
        let at = (self.cursor.as_mut(), self.values.as_mut(), self.wrap, keep);
        match &self.spec.data {
            DataStream::Const(value) => move_lanes(at, lanes, step, |_| *value),
            DataStream::List(list) if list.is_empty() => move_lanes(at, lanes, step, |_| 0),
            DataStream::List(list) => move_lanes(at, lanes, step, |cursor| list[cursor]),
            // Derived from the element index, so replays of the stream see
            // the same value.
            DataStream::Random { seed } => {
                move_lanes(at, lanes, step, |cursor| splitmix64(seed.wrapping_add(cursor as u64)))
            }
            // A counter; `DataStream` is non-exhaustive, and unknown streams
            // count tokens too.
            _ => move_lanes(at, lanes, step, |cursor| cursor as u64),
        }
    }
}

/// Moves each lane of `lanes` on by `step` along its stream, `cursors`
/// wrapping at `wrap`, and drives `element(cursor)`, masked by `keep`.
fn move_lanes<R: Rail>(
    (cursors, values, wrap, keep): (&mut [usize], &mut [u64], usize, u64),
    lanes: R,
    step: usize,
    element: impl Fn(usize) -> u64,
) {
    for lane in lanes.lanes() {
        let cursor = cursors[lane] + step;
        let cursor = if cursor == wrap { 0 } else { cursor };
        cursors[lane] = cursor;
        values[lane] = element(cursor) & keep;
    }
}

impl<R: Rail> Controller<R> for SourceController<R> {
    fn forward(&self, io: &mut R::Io<'_>) {
        // A pending offer persists (Retry behaviour); otherwise the pattern
        // decides whether a fresh token is offered this cycle.
        io.set_output_valid(OUT, self.offering | self.timing.fires);
        io.drive_data(OUT, self.values.as_ref());
        // Sources always accept anti-tokens: a kill simply cancels the
        // pending (or next) token.
        io.set_output_anti_stop(OUT, R::LOW);
    }

    /// A source has no inputs.
    fn backward(&self, _io: &mut R::Io<'_>) {}

    /// The offer pattern and persistence state fully determine the driven
    /// signals; sources never react to channel signals within a cycle.
    fn reads(&self) -> Reads {
        Reads::default()
    }

    fn commit(&mut self, io: &R::Io<'_>) {
        let valid = io.output_valid(OUT);
        let killed = io.output_kill(OUT) & !io.output_anti_stop(OUT);
        let transferred = valid & !io.output_stop(OUT) & !killed;
        let stalled = valid & !killed & !transferred;
        let consumed = if self.spec.consume_on_kill { killed } else { R::LOW };
        self.move_cursors(transferred | consumed, 1);
        self.offering = (self.offering | stalled) & !(killed | transferred);
        // The pattern advances once per cycle regardless of outcome, so
        // random offer patterns are per-cycle, not per-token.
        self.timing.tick();
    }

    fn reset(&mut self) {
        self.timing.rewind();
        self.offering = R::LOW;
        self.cursor.as_mut().fill(0);
        self.move_cursors(R::HIGH, 0);
    }

    fn override_source(&mut self, patterns: &[SourcePattern]) -> bool {
        self.timing.set(patterns);
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
}

impl<R: Rail> SinkController<R> {
    /// Creates the controller for a sink.
    pub fn new(spec: SinkSpec) -> Self {
        let mut sink = SinkController {
            timing: Timing::new(&spec.backpressure),
            received: R::per_lane(|_| Vec::new()),
        };
        sink.reset();
        sink
    }
}

impl<R: Rail> Controller<R> for SinkController<R> {
    /// A sink has no outputs.
    fn forward(&self, _io: &mut R::Io<'_>) {}

    fn backward(&self, io: &mut R::Io<'_>) {
        io.set_input_stop(IN, self.timing.fires);
        io.set_input_kill(IN, R::LOW);
    }

    /// The back-pressure pattern fully determines the driven signals; sinks
    /// never react to channel signals within a cycle (recording happens at
    /// the clock edge).
    fn reads(&self) -> Reads {
        Reads::default()
    }

    fn commit(&mut self, io: &R::Io<'_>) {
        let (valid, stop) = (io.input_valid(IN), io.input_stop(IN));
        let data = io.input_data(IN);
        for lane in (valid & !stop).lanes() {
            self.received[lane].push((self.timing.cycle, data[lane]));
        }
        self.timing.tick();
    }

    fn reset(&mut self) {
        self.timing.rewind();
        self.received.as_mut().iter_mut().for_each(Vec::clear);
    }

    fn report(&self, lane: usize) -> Option<NodeReport<'_>> {
        Some(NodeReport::Sink(&self.received[lane]))
    }

    fn override_sink(&mut self, patterns: &[BackpressurePattern]) -> bool {
        self.timing.set(patterns);
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
        assert_eq!(sink.report(0), Some(NodeReport::Sink(&[(0, 4), (1, 5), (2, 6)])));
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
