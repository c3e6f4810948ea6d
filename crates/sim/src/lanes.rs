//! 64-lane bit-parallel settle engine.
//!
//! The SELF protocol is two-rail control: one bit per rail per channel
//! (`V+`/`S+` forward, `V−`/`S−` backward). The scalar engine settles one
//! scenario at a time even though every handshake equation is pure boolean
//! logic. This module lifts the whole settle loop to `u64` **lane words**:
//! bit `ℓ` of every rail word belongs to scenario (lane) `ℓ`, so one
//! AND/OR/NOT word op advances 64 independent environments at once.
//!
//! Layout:
//!
//! * [`LaneSimulation`] runs on the same private engine core as
//!   [`crate::Simulation`]: dense channel indexing, topological ranks, the
//!   rank-bucketed worklist with its optimistic two-pass for lazy forks,
//!   the settle budget and oscillation witness, override lookup, the clock
//!   edge and report assembly (from [`LaneController::report`]) are the
//!   same code. Compare-and-set dirty tracking is word-wide: a channel
//!   re-enters the worklist when *any* lane changed. The lane engine keeps
//!   the word storage, the per-lane traces, the divergence map and the
//!   per-lane environments.
//! * Rails are stored structure-of-arrays: `Vec<u64>` per rail, one word
//!   per channel. Data is a lane-major column per channel
//!   (`data[channel * LANES + lane]`) touched only by the ops that consume
//!   data (function evaluation, mux steering, buffered values).
//! * The hot SELF controllers (both EB variants, function/join, eager and
//!   lazy fork, lazy/early mux) have native branchless word
//!   implementations. Everything with heavyweight per-scenario state
//!   (source, sink, shared module, commit stage, variable-latency unit)
//!   runs through the `ScalarLanes` fallback: 64 scalar controllers evaluated
//!   per-lane behind the word-level compare-and-set boundary — which is
//!   also what gives every lane its own environment override and transfer
//!   stream for free.
//!
//! The correctness contract is **lane-0 bit-identity**: a lane simulation
//! whose lanes all see the same environment must produce, in every lane,
//! exactly the trace and report of the scalar `EventDriven` engine. The
//! `engine_equivalence` suite and the `ELASTIC_FUZZ_LANES` differential
//! fuzz leg pin this the same way the FullSweep oracle pinned the PR-1
//! engine swap.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

use elastic_core::kind::{BackpressurePattern, SourcePattern};
use elastic_core::{BufferSpec, ForkSpec, FunctionSpec, MuxSpec, Netlist, Node, NodeId, NodeKind};

use crate::controller::{Controller, NodeIo, NodeReport, NodeStats};
use crate::controllers::{build_controller, output_width, simulated_buffer};
use crate::engine::SimError;
use crate::engine_core::{CoreNode, EngineCore, Ports};
use crate::metrics::SimulationReport;
use crate::signal::ChannelState;
use crate::trace::Trace;

/// Number of scenarios advanced per word operation: the bit width of a lane
/// word.
pub const LANES: usize = 64;

/// A per-lane scheduler factory for
/// [`LaneSimulation::reset_with_schedulers`]: invoked once per lane to
/// build that lane's prediction policy (schedulers are stateful boxes, not
/// clonable, so lanes get fresh instances rather than copies).
pub type SchedulerFactory<'a> = dyn Fn(usize) -> Box<dyn elastic_core::Scheduler> + 'a;

const IN: usize = 0;
const OUT: usize = 0;
const SELECT: usize = 0;

/// Process-wide count of [`LaneSimulation`] constructions (see
/// [`LaneSimulation::constructions`]).
static LANE_CONSTRUCTIONS: AtomicU64 = AtomicU64::new(0);

/// Configuration of a [`LaneSimulation`].
#[derive(Debug, Clone)]
pub struct LaneConfig {
    /// Record one full signal trace **per lane** (64 traces). Costs a
    /// per-cycle transpose from lane words to [`ChannelState`] rows; switch
    /// it off for throughput sweeps.
    pub record_trace: bool,
    /// Accumulate a per-channel lane-divergence map: bit `ℓ` of word `c`
    /// is set once lane `ℓ` ever differed from lane 0 on channel `c` (any
    /// rail or the data column). Costs a per-cycle scan; off by default.
    pub track_divergence: bool,
}

impl Default for LaneConfig {
    fn default() -> Self {
        LaneConfig { record_trace: true, track_divergence: false }
    }
}

/// Mask selecting the live bits of a channel of the given width.
#[inline]
fn width_mask(width: u8) -> u64 {
    if width >= 64 {
        u64::MAX
    } else {
        (1u64 << width).wrapping_sub(1)
    }
}

/// Broadcasts bit 0 of `word` into every lane (all-ones when lane 0 is set).
#[inline]
fn spread_lane0(word: u64) -> u64 {
    (word & 1).wrapping_neg()
}

/// Calls `f` once per set bit of `word`, lowest lane first.
#[inline]
fn for_each_lane(mut word: u64, mut f: impl FnMut(usize)) {
    while word != 0 {
        let lane = word.trailing_zeros() as usize;
        f(lane);
        word &= word - 1;
    }
}

/// Structure-of-arrays signal store: one `u64` word per channel per rail
/// (bit `ℓ` = lane `ℓ`) plus a lane-major data column per channel.
#[derive(Debug)]
pub(crate) struct LaneChannels {
    forward_valid: Vec<u64>,
    forward_stop: Vec<u64>,
    backward_valid: Vec<u64>,
    backward_stop: Vec<u64>,
    /// `data[channel * LANES + lane]`.
    data: Vec<u64>,
}

impl LaneChannels {
    fn new(channel_count: usize) -> Self {
        LaneChannels {
            forward_valid: vec![0; channel_count],
            forward_stop: vec![0; channel_count],
            backward_valid: vec![0; channel_count],
            backward_stop: vec![0; channel_count],
            data: vec![0; channel_count * LANES],
        }
    }

    fn channel_count(&self) -> usize {
        self.forward_valid.len()
    }

    fn clear(&mut self) {
        self.forward_valid.fill(0);
        self.forward_stop.fill(0);
        self.backward_valid.fill(0);
        self.backward_stop.fill(0);
        self.data.fill(0);
    }

    /// One lane's [`ChannelState`] row for `channel` (trace transpose and
    /// the scalar-lane fallback read through this).
    fn lane_state(&self, channel: usize, lane: usize) -> ChannelState {
        let bit = 1u64 << lane;
        ChannelState {
            forward_valid: self.forward_valid[channel] & bit != 0,
            forward_stop: self.forward_stop[channel] & bit != 0,
            backward_valid: self.backward_valid[channel] & bit != 0,
            backward_stop: self.backward_stop[channel] & bit != 0,
            data: self.data[channel * LANES + lane],
        }
    }
}

/// Word-level controller I/O view: the lane analogue of
/// [`crate::controller::NodeIo`].
///
/// Reads return whole lane words (or data columns); writes are
/// compare-and-set — a write that changes **any** lane marks the channel
/// dirty, which is what re-enters its observers into the worklist. Data
/// writes mask every lane to the channel width, mirroring the scalar
/// engine's producer-side masking.
pub struct LaneIo<'a> {
    channels: &'a mut LaneChannels,
    input_channels: &'a [usize],
    output_channels: &'a [usize],
    channel_widths: &'a [u8],
    dirty: Option<&'a mut Vec<usize>>,
}

impl fmt::Debug for LaneIo<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LaneIo")
            .field("inputs", &self.input_channels)
            .field("outputs", &self.output_channels)
            .finish()
    }
}

impl<'a> LaneIo<'a> {
    fn new(
        channels: &'a mut LaneChannels,
        (input_channels, output_channels): &'a Ports,
        channel_widths: &'a [u8],
        dirty: Option<&'a mut Vec<usize>>,
    ) -> Self {
        LaneIo { channels, input_channels, output_channels, channel_widths, dirty }
    }

    fn input_channel(&self, input: usize) -> usize {
        self.input_channels[input]
    }

    fn output_channel(&self, output: usize) -> usize {
        self.output_channels[output]
    }

    /// Forward-valid word (`V+`) of input port `input`.
    pub fn input_forward_valid(&self, input: usize) -> u64 {
        self.channels.forward_valid[self.input_channel(input)]
    }

    /// Forward-stop word (`S+`) of input port `input`.
    pub fn input_forward_stop(&self, input: usize) -> u64 {
        self.channels.forward_stop[self.input_channel(input)]
    }

    /// Backward-valid word (`V−`) of input port `input`.
    pub fn input_backward_valid(&self, input: usize) -> u64 {
        self.channels.backward_valid[self.input_channel(input)]
    }

    /// Backward-stop word (`S−`) of input port `input`.
    pub fn input_backward_stop(&self, input: usize) -> u64 {
        self.channels.backward_stop[self.input_channel(input)]
    }

    /// Forward-valid word (`V+`) of output port `output`.
    pub fn output_forward_valid(&self, output: usize) -> u64 {
        self.channels.forward_valid[self.output_channel(output)]
    }

    /// Forward-stop word (`S+`) of output port `output`.
    pub fn output_forward_stop(&self, output: usize) -> u64 {
        self.channels.forward_stop[self.output_channel(output)]
    }

    /// Backward-valid word (`V−`) of output port `output`.
    pub fn output_backward_valid(&self, output: usize) -> u64 {
        self.channels.backward_valid[self.output_channel(output)]
    }

    /// Backward-stop word (`S−`) of output port `output`.
    pub fn output_backward_stop(&self, output: usize) -> u64 {
        self.channels.backward_stop[self.output_channel(output)]
    }

    /// Data column of input port `input`: one value per lane.
    pub fn input_data(&self, input: usize) -> &[u64] {
        let channel = self.input_channel(input);
        &self.channels.data[channel * LANES..][..LANES]
    }

    /// Sets the forward-stop word of input port `input`.
    pub fn set_input_stop(&mut self, input: usize, word: u64) {
        let channel = self.input_channel(input);
        set_word(&mut self.channels.forward_stop, channel, word, &mut self.dirty);
    }

    /// Sets the backward-valid (kill) word of input port `input`.
    pub fn set_input_kill(&mut self, input: usize, word: u64) {
        let channel = self.input_channel(input);
        set_word(&mut self.channels.backward_valid, channel, word, &mut self.dirty);
    }

    /// Sets the forward-valid word of output port `output`.
    pub fn set_output_valid(&mut self, output: usize, word: u64) {
        let channel = self.output_channel(output);
        set_word(&mut self.channels.forward_valid, channel, word, &mut self.dirty);
    }

    /// Sets the backward-stop word of output port `output`.
    pub fn set_output_anti_stop(&mut self, output: usize, word: u64) {
        let channel = self.output_channel(output);
        set_word(&mut self.channels.backward_stop, channel, word, &mut self.dirty);
    }

    /// Marks `channel` dirty when tracking.
    fn mark_dirty(&mut self, channel: usize) {
        if let Some(dirty) = self.dirty.as_deref_mut() {
            dirty.push(channel);
        }
    }

    /// Sets the data column of output port `output` from one value per
    /// lane, masked to the channel width.
    pub fn set_output_data(&mut self, output: usize, lanes: &[u64]) {
        debug_assert_eq!(lanes.len(), LANES);
        let channel = self.output_channel(output);
        let mask = width_mask(self.channel_widths.get(channel).copied().unwrap_or(64));
        let column = &mut self.channels.data[channel * LANES..][..LANES];
        let mut changed = false;
        for (slot, &value) in column.iter_mut().zip(lanes) {
            let value = value & mask;
            if *slot != value {
                *slot = value;
                changed = true;
            }
        }
        if changed {
            self.mark_dirty(channel);
        }
    }

    /// Copies the data column of input `input` to output `output`
    /// (width-preserving controllers: forks, buffers passing data through),
    /// masked to the output channel width.
    pub fn copy_data(&mut self, input: usize, output: usize) {
        let src = self.input_channel(input);
        let dst = self.output_channel(output);
        if src == dst {
            return;
        }
        let mask = width_mask(self.channel_widths.get(dst).copied().unwrap_or(64));
        let mut changed = false;
        for lane in 0..LANES {
            let value = self.channels.data[src * LANES + lane] & mask;
            let slot = &mut self.channels.data[dst * LANES + lane];
            if *slot != value {
                *slot = value;
                changed = true;
            }
        }
        if changed {
            self.mark_dirty(dst);
        }
    }

    /// Scatters the consumer-driven rails (`S+`, `V−`) of one lane of a
    /// channel back from a scalar evaluation, with compare-and-set.
    fn scatter_consumer_lane(&mut self, channel: usize, lane: usize, state: ChannelState) {
        let rails = &mut *self.channels;
        let stop = with_lane(rails.forward_stop[channel], lane, state.forward_stop);
        set_word(&mut rails.forward_stop, channel, stop, &mut self.dirty);
        let kill = with_lane(rails.backward_valid[channel], lane, state.backward_valid);
        set_word(&mut rails.backward_valid, channel, kill, &mut self.dirty);
    }

    /// Scatters the producer-driven rails (`V+`, `S−`) and the data value
    /// of one lane of a channel back from a scalar evaluation, with
    /// compare-and-set. The scalar evaluation already masked the data.
    fn scatter_producer_lane(&mut self, channel: usize, lane: usize, state: ChannelState) {
        let rails = &mut *self.channels;
        let valid = with_lane(rails.forward_valid[channel], lane, state.forward_valid);
        set_word(&mut rails.forward_valid, channel, valid, &mut self.dirty);
        let anti_stop = with_lane(rails.backward_stop[channel], lane, state.backward_stop);
        set_word(&mut rails.backward_stop, channel, anti_stop, &mut self.dirty);
        let slot = &mut rails.data[channel * LANES + lane];
        if *slot != state.data {
            *slot = state.data;
            self.mark_dirty(channel);
        }
    }
}

/// Compare-and-set of one channel's rail word; a change marks the channel
/// dirty when tracking.
#[inline]
fn set_word(rail: &mut [u64], channel: usize, word: u64, dirty: &mut Option<&mut Vec<usize>>) {
    if rail[channel] != word {
        rail[channel] = word;
        if let Some(dirty) = dirty {
            dirty.push(channel);
        }
    }
}

/// `word` with lane `lane`'s bit set to `value`.
#[inline]
fn with_lane(word: u64, lane: usize, value: bool) -> u64 {
    let bit = 1u64 << lane;
    if value {
        word | bit
    } else {
        word & !bit
    }
}

/// One netlist node evaluated across all [`LANES`] scenarios at once.
///
/// Semantics mirror [`Controller`] lane-wise: `eval` must be a pure
/// function of the channel words and the sequential state (it takes
/// `&mut self` only to reuse scratch buffers and memo caches — re-running
/// it with unchanged inputs must not change its writes), `commit` advances
/// the sequential state of every lane on the settled signals.
pub trait LaneController: fmt::Debug {
    /// Drives this node's output words from the current channel words.
    fn eval(&mut self, io: &mut LaneIo<'_>);

    /// Optimistic variant for multi-fixpoint controllers (lazy forks);
    /// defaults to [`LaneController::eval`].
    fn eval_optimistic(&mut self, io: &mut LaneIo<'_>) {
        self.eval(io);
    }

    /// Whether this controller needs the optimistic seeding pass.
    fn is_optimistic(&self) -> bool {
        false
    }

    /// Whether `eval` observes channel signals (`false` cuts control loops
    /// at registered boundaries, exactly like the scalar engine).
    fn eval_reads_channels(&self) -> bool {
        true
    }

    /// Advances every lane's sequential state on the settled signals.
    fn commit(&mut self, io: &LaneIo<'_>);

    /// Rewinds every lane to its post-construction state.
    fn reset(&mut self);

    /// What one lane of this node contributes to that lane's
    /// [`SimulationReport`] — the lane analogue of [`Controller::report`].
    fn report(&self, lane: usize) -> NodeReport<'_>;

    /// The per-lane scalar controllers of a `ScalarLanes` node, where
    /// per-lane environment and scheduler overrides land; `None` for the
    /// native word controllers (buffers, functions, forks, muxes), which
    /// take no overrides.
    fn scalar_lanes(&mut self) -> Option<&mut [Box<dyn Controller>]> {
        None
    }
}

// ---------------------------------------------------------------------------
// Native word controllers
// ---------------------------------------------------------------------------

/// The standard `Lf = 1`, `Lb = 1` elastic buffer across 64 lanes: per-lane
/// FIFO state, word-level handshake. All driven signals are functions of
/// the sequential state only, so `eval` runs exactly once per cycle.
///
/// Token storage is one lane-major fixed-capacity ring: the FIFO depth is
/// statically known from the buffer spec, so lane `ℓ` owns the contiguous
/// slots `data[ℓ·ring .. (ℓ+1)·ring]` with a per-lane `(head, len)` cursor
/// pair. The former per-lane `VecDeque<u64>` layout scattered every lane's
/// front element across 64 separately-allocated deques, and the pointer
/// chasing in the eval/commit hot loops capped the registered-pipeline lane
/// win at ~4×; the ring keeps the whole node's token state in one
/// allocation with index arithmetic only.
#[derive(Debug)]
struct LaneStandardBuffer {
    spec: BufferSpec,
    /// Ring slots per lane: the static FIFO bound `max(capacity,
    /// init_tokens, 1)` (`1` keeps the cursor arithmetic total for
    /// zero-capacity pass-through specs, which never push).
    ring: usize,
    /// Lane-major token slots: `data[lane * ring + slot]`.
    data: Vec<u64>,
    /// Ring slot of each lane's oldest token.
    head: Vec<u32>,
    /// Tokens currently held per lane (`<= ring`).
    len: Vec<u32>,
    anti_tokens: Vec<u32>,
    stats: Vec<NodeStats>,
    data_scratch: Vec<u64>,
}

impl LaneStandardBuffer {
    fn new(spec: BufferSpec) -> Self {
        let ring = (spec.capacity as usize).max(spec.init_tokens.max(0) as usize).max(1);
        let mut buffer = LaneStandardBuffer {
            spec,
            ring,
            data: vec![0; ring * LANES],
            head: vec![0; LANES],
            len: vec![0; LANES],
            anti_tokens: vec![0; LANES],
            stats: vec![NodeStats::default(); LANES],
            data_scratch: vec![0; LANES],
        };
        buffer.reset();
        buffer
    }

    #[inline]
    fn pop_front(&mut self, lane: usize) -> Option<u64> {
        if self.len[lane] == 0 {
            return None;
        }
        let value = self.data[lane * self.ring + self.head[lane] as usize];
        self.head[lane] = (self.head[lane] + 1) % self.ring as u32;
        self.len[lane] -= 1;
        Some(value)
    }

    #[inline]
    fn push_back(&mut self, lane: usize, value: u64) {
        debug_assert!((self.len[lane] as usize) < self.ring, "ring bound is the FIFO bound");
        let slot = (self.head[lane] + self.len[lane]) % self.ring as u32;
        self.data[lane * self.ring + slot as usize] = value;
        self.len[lane] += 1;
    }
}

impl LaneController for LaneStandardBuffer {
    fn eval(&mut self, io: &mut LaneIo<'_>) {
        let capacity = self.spec.capacity as usize;
        let anti_capacity = self.spec.anti_capacity;
        let ring = self.ring;
        let mut valid = 0u64;
        let mut stop = 0u64;
        let mut kill = 0u64;
        let mut anti_stop = 0u64;
        for lane in 0..LANES {
            let bit = 1u64 << lane;
            let len = self.len[lane] as usize;
            if len > 0 {
                valid |= bit;
                self.data_scratch[lane] = self.data[lane * ring + self.head[lane] as usize];
            } else {
                self.data_scratch[lane] = 0;
            }
            if len >= capacity {
                stop |= bit;
            }
            if self.anti_tokens[lane] > 0 {
                kill |= bit;
            }
            let can_absorb_anti = len > 0 || self.anti_tokens[lane] < anti_capacity;
            if !can_absorb_anti {
                anti_stop |= bit;
            }
        }
        io.set_output_valid(OUT, valid);
        let data = &self.data_scratch;
        io.set_output_data(OUT, data);
        io.set_input_stop(IN, stop);
        io.set_input_kill(IN, kill);
        io.set_output_anti_stop(OUT, anti_stop);
    }

    fn eval_reads_channels(&self) -> bool {
        false
    }

    fn commit(&mut self, io: &LaneIo<'_>) {
        let out_fv = io.output_forward_valid(OUT);
        let out_fs = io.output_forward_stop(OUT);
        let out_bv = io.output_backward_valid(OUT);
        let out_bs = io.output_backward_stop(OUT);
        let in_fv = io.input_forward_valid(IN);
        let in_fs = io.input_forward_stop(IN);
        let in_bv = io.input_backward_valid(IN);
        let in_bs = io.input_backward_stop(IN);
        let in_data = io.input_data(IN);

        let out_kill = out_bv & !out_bs;
        let out_transfer = out_fv & !out_fs & !out_kill;
        let out_stall = out_fv & out_fs & !out_kill & !out_transfer;
        let token_arrived = in_fv & !in_fs;
        let anti_left = in_bv & !in_bs;

        for (lane, &data) in in_data.iter().enumerate().take(LANES) {
            let bit = 1u64 << lane;
            // Output boundary, exactly the scalar match order: kill wins,
            // then transfer, then stall accounting.
            if out_kill & bit != 0 {
                match self.pop_front(lane) {
                    Some(_) => self.stats[lane].killed_tokens += 1,
                    None => {
                        self.anti_tokens[lane] =
                            (self.anti_tokens[lane] + 1).min(self.spec.anti_capacity);
                    }
                }
            } else if out_transfer & bit != 0 {
                self.pop_front(lane);
                self.stats[lane].output_transfers += 1;
            } else if out_stall & bit != 0 {
                self.stats[lane].stall_cycles += 1;
            }
            // Input boundary.
            let anti = &mut self.anti_tokens[lane];
            match (token_arrived & bit != 0, anti_left & bit != 0) {
                (true, true) => {
                    *anti = anti.saturating_sub(1);
                    self.stats[lane].killed_tokens += 1;
                }
                (true, false) => {
                    if *anti > 0 {
                        *anti -= 1;
                        self.stats[lane].killed_tokens += 1;
                    } else {
                        self.push_back(lane, data);
                    }
                }
                (false, true) => *anti = anti.saturating_sub(1),
                (false, false) => {}
            }
        }
    }

    fn reset(&mut self) {
        let init_tokens = self.spec.init_tokens.max(0) as usize;
        for lane in 0..LANES {
            self.head[lane] = 0;
            self.len[lane] = init_tokens as u32;
            for slot in 0..init_tokens {
                self.data[lane * self.ring + slot] = self.spec.init_value;
            }
            self.anti_tokens[lane] = (-self.spec.init_tokens).max(0) as u32;
            self.stats[lane] = NodeStats::default();
        }
    }

    fn report(&self, lane: usize) -> NodeReport<'_> {
        NodeReport::Basic(self.stats[lane])
    }
}

/// The `Lb = 0` (Figure-5) elastic buffer across 64 lanes: fully word-ops —
/// occupancy is one bit per lane, values are a lane column kept `0` when
/// empty so the column doubles as the driven data.
#[derive(Debug)]
struct LaneZeroBackwardBuffer {
    initial: Option<u64>,
    full: u64,
    values: Vec<u64>,
    stats: Vec<NodeStats>,
}

impl LaneZeroBackwardBuffer {
    fn new(spec: BufferSpec) -> Self {
        let initial = (spec.init_tokens > 0).then_some(spec.init_value);
        let mut buffer = LaneZeroBackwardBuffer {
            initial,
            full: 0,
            values: vec![0; LANES],
            stats: vec![NodeStats::default(); LANES],
        };
        buffer.reset();
        buffer
    }
}

impl LaneController for LaneZeroBackwardBuffer {
    fn eval(&mut self, io: &mut LaneIo<'_>) {
        let full = self.full;
        let out_fs = io.output_forward_stop(OUT);
        let out_bv = io.output_backward_valid(OUT);
        let in_bs = io.input_backward_stop(IN);
        io.set_output_valid(OUT, full);
        let values = &self.values;
        io.set_output_data(OUT, values);
        // Combinational stop: full and stopped downstream — unless the
        // stored token is about to be annihilated by an incoming anti-token.
        io.set_input_stop(IN, full & out_fs & !out_bv);
        // Combinational kill pass-through when empty.
        io.set_input_kill(IN, !full & out_bv);
        // An empty buffer exposes the upstream anti-token capacity.
        io.set_output_anti_stop(OUT, !full & in_bs);
    }

    fn commit(&mut self, io: &LaneIo<'_>) {
        let out_fv = io.output_forward_valid(OUT);
        let out_fs = io.output_forward_stop(OUT);
        let out_bv = io.output_backward_valid(OUT);
        let out_bs = io.output_backward_stop(OUT);
        let in_fv = io.input_forward_valid(IN);
        let in_fs = io.input_forward_stop(IN);
        let in_bv = io.input_backward_valid(IN);
        let in_bs = io.input_backward_stop(IN);
        let in_data = io.input_data(IN);

        let was_full = self.full;
        let killed = was_full & out_bv & !out_bs;
        let left = was_full & !killed & out_fv & !out_fs;
        let stalled = was_full & !killed & !left & out_fs;
        let full_after_out = was_full & !killed & !left;
        let token_arrived = in_fv & !in_fs;
        let anti_passed = in_bv & !in_bs;
        let killed_in_flight = token_arrived & anti_passed;
        let stored = token_arrived & !anti_passed & !full_after_out;
        self.full = full_after_out | stored;

        for_each_lane(killed | left, |lane| self.values[lane] = 0);
        for_each_lane(stored, |lane| self.values[lane] = in_data[lane]);
        for_each_lane(killed, |lane| self.stats[lane].killed_tokens += 1);
        for_each_lane(left, |lane| self.stats[lane].output_transfers += 1);
        for_each_lane(stalled, |lane| self.stats[lane].stall_cycles += 1);
        for_each_lane(killed_in_flight, |lane| self.stats[lane].killed_tokens += 1);
    }

    fn reset(&mut self) {
        self.full = if self.initial.is_some() { u64::MAX } else { 0 };
        self.values.fill(self.initial.unwrap_or(0));
        self.stats.fill(NodeStats::default());
    }

    fn report(&self, lane: usize) -> NodeReport<'_> {
        NodeReport::Basic(self.stats[lane])
    }
}

/// Combinational function block (lazy join + datapath) across 64 lanes.
/// Handshake is pure word ops; the datapath evaluates per lane behind a
/// memo cache keyed on the input data columns (settle loops re-evaluate
/// the join several times per cycle while the data rarely changes).
#[derive(Debug)]
struct LaneFunction {
    spec: FunctionSpec,
    output_width: u8,
    stats: Vec<NodeStats>,
    operands: Vec<u64>,
    out_data: Vec<u64>,
    cached_inputs: Vec<u64>,
    cache_valid: bool,
}

impl LaneFunction {
    fn new(spec: FunctionSpec, output_width: u8) -> Self {
        let inputs = spec.inputs;
        LaneFunction {
            spec,
            output_width,
            stats: vec![NodeStats::default(); LANES],
            operands: vec![0; inputs],
            out_data: vec![0; LANES],
            cached_inputs: vec![0; inputs * LANES],
            cache_valid: false,
        }
    }

    fn refresh_data(&mut self, io: &LaneIo<'_>) {
        let inputs = self.spec.inputs;
        let mut fresh = self.cache_valid;
        if fresh {
            for port in 0..inputs {
                if io.input_data(port) != &self.cached_inputs[port * LANES..][..LANES] {
                    fresh = false;
                    break;
                }
            }
        }
        if fresh {
            return;
        }
        for port in 0..inputs {
            self.cached_inputs[port * LANES..][..LANES].copy_from_slice(io.input_data(port));
        }
        for lane in 0..LANES {
            for port in 0..inputs {
                self.operands[port] = self.cached_inputs[port * LANES + lane];
            }
            self.out_data[lane] = elastic_datapath::adder::mask(
                elastic_datapath::evaluate(&self.spec.op, &self.operands).unwrap_or(0),
                self.output_width,
            );
        }
        self.cache_valid = true;
    }
}

impl LaneController for LaneFunction {
    fn eval(&mut self, io: &mut LaneIo<'_>) {
        let inputs = self.spec.inputs;
        let mut all_valid = u64::MAX;
        for port in 0..inputs {
            all_valid &= io.input_forward_valid(port);
        }
        let kill = io.output_backward_valid(OUT);
        io.set_output_valid(OUT, all_valid);
        self.refresh_data(io);
        let data = &self.out_data;
        io.set_output_data(OUT, data);
        let mut all_producers_accept_kill = u64::MAX;
        for port in 0..inputs {
            all_producers_accept_kill &= !io.input_backward_stop(port);
        }
        io.set_output_anti_stop(OUT, !(all_valid | all_producers_accept_kill));
        let out_fs = io.output_forward_stop(OUT);
        let output_transfer = all_valid & !out_fs & !kill;
        let annihilate = all_valid & kill;
        let forward_kill = kill & !all_valid & all_producers_accept_kill;
        let fire = output_transfer | annihilate;
        for port in 0..inputs {
            io.set_input_stop(port, !fire);
            io.set_input_kill(port, forward_kill);
        }
    }

    fn commit(&mut self, io: &LaneIo<'_>) {
        let out_fv = io.output_forward_valid(OUT);
        let out_fs = io.output_forward_stop(OUT);
        let out_bv = io.output_backward_valid(OUT);
        let out_bs = io.output_backward_stop(OUT);
        let backward_transfer = out_bv & !out_bs;
        let forward_transfer = out_fv & !out_fs & !backward_transfer;
        let annihilation = out_fv & backward_transfer;
        let forward_retry = out_fv & out_fs & !backward_transfer;
        for_each_lane(forward_transfer, |lane| self.stats[lane].output_transfers += 1);
        for_each_lane(annihilation, |lane| self.stats[lane].killed_tokens += 1);
        for_each_lane(forward_retry, |lane| self.stats[lane].stall_cycles += 1);
    }

    fn reset(&mut self) {
        self.stats.fill(NodeStats::default());
        self.cache_valid = false;
    }

    fn report(&self, lane: usize) -> NodeReport<'_> {
        NodeReport::Basic(self.stats[lane])
    }
}

/// Eager/lazy fork across 64 lanes: per-branch pending words, prefix/suffix
/// AND for the lazy all-but-me readiness, and the same single-write-per-
/// signal discipline the scalar fork needs for full-sweep convergence.
#[derive(Debug)]
struct LaneEagerFork {
    spec: ForkSpec,
    pending: Vec<u64>,
    serving: u64,
    stats: Vec<NodeStats>,
    ready: Vec<u64>,
    prefix: Vec<u64>,
    suffix: Vec<u64>,
    deliver: Vec<u64>,
}

impl LaneEagerFork {
    fn new(spec: ForkSpec) -> Self {
        let outputs = spec.outputs;
        LaneEagerFork {
            spec,
            pending: vec![u64::MAX; outputs],
            serving: 0,
            stats: vec![NodeStats::default(); LANES],
            ready: vec![0; outputs],
            prefix: vec![0; outputs + 1],
            suffix: vec![0; outputs + 1],
            deliver: vec![0; outputs],
        }
    }

    fn eval_inner(&mut self, io: &mut LaneIo<'_>, optimistic: bool) {
        let outputs = self.spec.outputs;
        let eager = self.spec.eager;
        let in_fv = io.input_forward_valid(IN);
        let mut all_ready = u64::MAX;
        if !eager && !optimistic {
            // Lazy readiness per branch, then all-but-me via prefix/suffix
            // AND (the word form of "all ready, or I am the only laggard").
            for branch in 0..outputs {
                let effective_pending = !self.serving | self.pending[branch];
                let out_fs = io.output_forward_stop(branch);
                let out_bv = io.output_backward_valid(branch);
                let ready = !effective_pending | !out_fs | (out_bv & in_fv);
                self.ready[branch] = ready;
                all_ready &= ready;
            }
            self.prefix[0] = u64::MAX;
            for branch in 0..outputs {
                self.prefix[branch + 1] = self.prefix[branch] & self.ready[branch];
            }
            self.suffix[outputs] = u64::MAX;
            for branch in (0..outputs).rev() {
                self.suffix[branch] = self.suffix[branch + 1] & self.ready[branch];
            }
        }
        for branch in 0..outputs {
            let effective_pending = !self.serving | self.pending[branch];
            let needs = in_fv & effective_pending;
            let others_ready = if eager || optimistic {
                u64::MAX
            } else {
                self.prefix[branch] & self.suffix[branch + 1]
            };
            io.set_output_valid(branch, needs & others_ready);
            io.copy_data(IN, branch);
            io.set_output_anti_stop(branch, !needs);
        }
        // Delivery check reads the signals just driven (plus the consumer
        // side), exactly like the scalar fork's post-write `deliveries`.
        let mut done = u64::MAX;
        for branch in 0..outputs {
            let effective_pending = !self.serving | self.pending[branch];
            let out_fv = io.output_forward_valid(branch);
            let out_fs = io.output_forward_stop(branch);
            let out_bv = io.output_backward_valid(branch);
            let out_bs = io.output_backward_stop(branch);
            let delivered = in_fv & effective_pending & ((out_bv & !out_bs) | (out_fv & !out_fs));
            done &= !effective_pending | delivered;
        }
        let gate = if eager || optimistic { u64::MAX } else { all_ready };
        let input_fires = in_fv & done & gate;
        io.set_input_stop(IN, !input_fires);
        io.set_input_kill(IN, 0);
    }
}

impl LaneController for LaneEagerFork {
    fn eval(&mut self, io: &mut LaneIo<'_>) {
        self.eval_inner(io, false);
    }

    fn eval_optimistic(&mut self, io: &mut LaneIo<'_>) {
        self.eval_inner(io, true);
    }

    fn is_optimistic(&self) -> bool {
        !self.spec.eager
    }

    fn commit(&mut self, io: &LaneIo<'_>) {
        let outputs = self.spec.outputs;
        let in_fv = io.input_forward_valid(IN);
        let in_fs = io.input_forward_stop(IN);

        // Deliveries against the *old* pending state, as in the scalar
        // commit.
        let mut done = u64::MAX;
        for branch in 0..outputs {
            let effective_pending = !self.serving | self.pending[branch];
            let out_fv = io.output_forward_valid(branch);
            let out_fs = io.output_forward_stop(branch);
            let out_bv = io.output_backward_valid(branch);
            let out_bs = io.output_backward_stop(branch);
            self.deliver[branch] =
                in_fv & effective_pending & ((out_bv & !out_bs) | (out_fv & !out_fs));
            done &= !effective_pending | self.deliver[branch];
        }
        let complete = in_fv & done & !in_fs;
        let holding = in_fv & !complete;
        for branch in 0..outputs {
            let effective_pending = !self.serving | self.pending[branch];
            self.pending[branch] = !holding | (effective_pending & !self.deliver[branch]);
        }
        self.serving = holding;
        for_each_lane(complete, |lane| self.stats[lane].output_transfers += 1);
        for_each_lane(holding, |lane| self.stats[lane].stall_cycles += 1);
        // The scalar fork counts branch annihilations only on cycles where
        // a token is present (its idle path returns early).
        for branch in 0..outputs {
            let out_bv = io.output_backward_valid(branch);
            let out_bs = io.output_backward_stop(branch);
            for_each_lane(in_fv & out_bv & !out_bs, |lane| {
                self.stats[lane].killed_tokens += 1;
            });
        }
    }

    fn reset(&mut self) {
        self.pending.fill(u64::MAX);
        self.serving = 0;
        self.stats.fill(NodeStats::default());
    }

    fn report(&self, lane: usize) -> NodeReport<'_> {
        NodeReport::Basic(self.stats[lane])
    }
}

/// Lazy or early-evaluation multiplexor across 64 lanes. The per-lane
/// select value steers via gather masks (`sel_mask[j]` = lanes selecting
/// data input `j`); owed-anti-token counters stay per lane with a cached
/// "clean" word per data input.
#[derive(Debug)]
struct LaneMux {
    spec: MuxSpec,
    owed_anti_tokens: Vec<u32>,
    owed_zero: Vec<u64>,
    stats: Vec<NodeStats>,
    sel_mask: Vec<u64>,
    out_data: Vec<u64>,
}

impl LaneMux {
    fn new(spec: MuxSpec) -> Self {
        let data_inputs = spec.data_inputs;
        LaneMux {
            spec,
            owed_anti_tokens: vec![0; data_inputs * LANES],
            owed_zero: vec![u64::MAX; data_inputs],
            stats: vec![NodeStats::default(); LANES],
            sel_mask: vec![0; data_inputs],
            out_data: vec![0; LANES],
        }
    }

    /// Rebuilds `sel_mask` and the steered output column from the current
    /// select data column.
    fn gather_select(&mut self, io: &LaneIo<'_>) {
        let data_inputs = self.spec.data_inputs;
        self.sel_mask.fill(0);
        if data_inputs == 0 {
            return;
        }
        let select = io.input_data(SELECT);
        for (lane, &sel) in select.iter().enumerate() {
            let chosen = (sel as usize) % data_inputs;
            self.sel_mask[chosen] |= 1u64 << lane;
        }
    }

    fn gather_out_data(&mut self, io: &LaneIo<'_>) {
        for (chosen, &mask) in self.sel_mask.iter().enumerate() {
            let column = io.input_data(1 + chosen);
            for_each_lane(mask, |lane| self.out_data[lane] = column[lane]);
        }
    }
}

impl LaneController for LaneMux {
    fn eval(&mut self, io: &mut LaneIo<'_>) {
        let data_inputs = self.spec.data_inputs;
        self.gather_select(io);
        self.gather_out_data(io);
        let select_valid = io.input_forward_valid(SELECT);
        if !self.spec.early_eval {
            // Lazy: conventional join on select plus *all* data inputs.
            let mut all_data_valid = u64::MAX;
            for port in 0..data_inputs {
                all_data_valid &= io.input_forward_valid(1 + port);
            }
            let valid = select_valid & all_data_valid;
            io.set_output_valid(OUT, valid);
            let data = &self.out_data;
            io.set_output_data(OUT, data);
            io.set_output_anti_stop(OUT, u64::MAX);
            let fire = valid & !io.output_forward_stop(OUT);
            io.set_input_stop(SELECT, !fire);
            for port in 0..data_inputs {
                io.set_input_stop(1 + port, !fire);
                io.set_input_kill(1 + port, 0);
            }
            return;
        }
        // Early evaluation: only the selected input must be valid (and not
        // still owed an anti-token); non-selected inputs that fire are owed
        // an anti-token, which is injected combinationally when possible.
        let mut selected_valid = 0u64;
        let mut selected_clean = 0u64;
        for port in 0..data_inputs {
            selected_valid |= self.sel_mask[port] & io.input_forward_valid(1 + port);
            selected_clean |= self.sel_mask[port] & self.owed_zero[port];
        }
        let valid = select_valid & selected_valid & selected_clean;
        io.set_output_valid(OUT, valid);
        let data = &self.out_data;
        io.set_output_data(OUT, data);
        io.set_output_anti_stop(OUT, u64::MAX);
        let fire = valid & !io.output_forward_stop(OUT);
        io.set_input_stop(SELECT, !fire);
        for port in 0..data_inputs {
            let is_selected = self.sel_mask[port] & select_valid;
            let owed_now = !self.owed_zero[port] | (fire & !is_selected);
            let consuming = is_selected & fire & selected_clean;
            let kill = owed_now & !consuming;
            io.set_input_kill(1 + port, kill);
            io.set_input_stop(1 + port, !kill & (!is_selected | !fire));
        }
    }

    fn commit(&mut self, io: &LaneIo<'_>) {
        let out_fv = io.output_forward_valid(OUT);
        let out_fs = io.output_forward_stop(OUT);
        let fire = out_fv & !out_fs;
        for_each_lane(fire, |lane| self.stats[lane].output_transfers += 1);
        for_each_lane(out_fv & out_fs, |lane| self.stats[lane].stall_cycles += 1);
        if !self.spec.early_eval {
            return;
        }
        self.gather_select(io);
        let select_valid = io.input_forward_valid(SELECT);
        for port in 0..self.spec.data_inputs {
            let delivered = io.input_backward_valid(1 + port) & !io.input_backward_stop(1 + port);
            let incurred = fire & select_valid & !self.sel_mask[port];
            let mut zero_word = self.owed_zero[port];
            for_each_lane(incurred | delivered, |lane| {
                let owed = &mut self.owed_anti_tokens[port * LANES + lane];
                if incurred & (1u64 << lane) != 0 {
                    *owed += 1;
                }
                if delivered & (1u64 << lane) != 0 {
                    *owed = owed.saturating_sub(1);
                    self.stats[lane].killed_tokens += 1;
                }
                if *owed == 0 {
                    zero_word |= 1u64 << lane;
                } else {
                    zero_word &= !(1u64 << lane);
                }
            });
            self.owed_zero[port] = zero_word;
        }
    }

    fn reset(&mut self) {
        self.owed_anti_tokens.fill(0);
        self.owed_zero.fill(u64::MAX);
        self.stats.fill(NodeStats::default());
    }

    fn report(&self, lane: usize) -> NodeReport<'_> {
        NodeReport::Basic(self.stats[lane])
    }
}

// ---------------------------------------------------------------------------
// Scalar fallback
// ---------------------------------------------------------------------------

/// 64 scalar [`Controller`]s driven per lane behind the word-level
/// compare-and-set boundary.
///
/// Used for node kinds with heavyweight per-scenario state (sources, sinks,
/// shared modules, commit stages, variable-latency units): each lane owns a
/// full scalar controller, so per-lane environment overrides, transfer
/// streams and per-user statistics come from the scalar implementation
/// unchanged. The gather/scatter transpose only touches this node's own
/// channels, and the scatter is compare-and-set, so worklist semantics are
/// identical to a native word controller.
struct ScalarLanes {
    lanes: Vec<Box<dyn Controller>>,
    scratch: Vec<ChannelState>,
    dirty_scratch: Vec<usize>,
}

impl fmt::Debug for ScalarLanes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ScalarLanes").field("lanes", &self.lanes.len()).finish()
    }
}

impl ScalarLanes {
    fn build(netlist: &Netlist, node: &Node, channel_count: usize) -> Result<Self, SimError> {
        Ok(ScalarLanes {
            lanes: (0..LANES).map(|_| build_controller(netlist, node)).collect::<Result<_, _>>()?,
            scratch: vec![ChannelState::default(); channel_count],
            dirty_scratch: Vec::new(),
        })
    }

    fn eval_mode(&mut self, io: &mut LaneIo<'_>, optimistic: bool) {
        let inputs = io.input_channels;
        let outputs = io.output_channels;
        let widths = io.channel_widths;
        for lane in 0..LANES {
            for &channel in inputs.iter().chain(outputs.iter()) {
                self.scratch[channel] = io.channels.lane_state(channel, lane);
            }
            self.dirty_scratch.clear();
            let mut node_io = NodeIo::tracked(
                &mut self.scratch,
                inputs,
                outputs,
                widths,
                &mut self.dirty_scratch,
            );
            if optimistic {
                self.lanes[lane].eval_optimistic(&mut node_io);
            } else {
                self.lanes[lane].eval(&mut node_io);
            }
            for &channel in inputs {
                io.scatter_consumer_lane(channel, lane, self.scratch[channel]);
            }
            for &channel in outputs {
                io.scatter_producer_lane(channel, lane, self.scratch[channel]);
            }
        }
    }
}

impl LaneController for ScalarLanes {
    fn eval(&mut self, io: &mut LaneIo<'_>) {
        self.eval_mode(io, false);
    }

    fn eval_optimistic(&mut self, io: &mut LaneIo<'_>) {
        self.eval_mode(io, true);
    }

    fn is_optimistic(&self) -> bool {
        self.lanes[0].is_optimistic()
    }

    fn eval_reads_channels(&self) -> bool {
        self.lanes[0].eval_reads_channels()
    }

    fn commit(&mut self, io: &LaneIo<'_>) {
        let inputs = io.input_channels;
        let outputs = io.output_channels;
        for lane in 0..LANES {
            for &channel in inputs.iter().chain(outputs.iter()) {
                self.scratch[channel] = io.channels.lane_state(channel, lane);
            }
            let node_io = NodeIo::new(&mut self.scratch, inputs, outputs);
            self.lanes[lane].commit(&node_io);
        }
    }

    fn reset(&mut self) {
        for lane in &mut self.lanes {
            lane.reset();
        }
    }

    fn report(&self, lane: usize) -> NodeReport<'_> {
        self.lanes[lane].report()
    }

    fn scalar_lanes(&mut self) -> Option<&mut [Box<dyn Controller>]> {
        Some(&mut self.lanes)
    }
}

/// Builds the lane controller for one netlist node: a native word
/// implementation for the hot SELF controllers, [`ScalarLanes`] otherwise.
fn build_lane_controller(
    netlist: &Netlist,
    node: &Node,
    channel_count: usize,
) -> Result<Box<dyn LaneController>, SimError> {
    let width = output_width(netlist, node);
    let controller: Box<dyn LaneController> = match &node.kind {
        NodeKind::Buffer(spec) => {
            let spec = simulated_buffer(node, spec, width)?;
            if spec.backward_latency == 0 {
                Box::new(LaneZeroBackwardBuffer::new(spec))
            } else {
                Box::new(LaneStandardBuffer::new(spec))
            }
        }
        NodeKind::Function(spec) => Box::new(LaneFunction::new(spec.clone(), width)),
        NodeKind::Mux(spec) => Box::new(LaneMux::new(*spec)),
        NodeKind::Fork(spec) => Box::new(LaneEagerFork::new(*spec)),
        _ => Box::new(ScalarLanes::build(netlist, node, channel_count)?),
    };
    Ok(controller)
}

// ---------------------------------------------------------------------------
// The engine
// ---------------------------------------------------------------------------

impl CoreNode for Box<dyn LaneController> {
    type Channels = LaneChannels;

    fn optimistic(&self) -> bool {
        self.is_optimistic()
    }

    fn reads_channels(&self) -> bool {
        self.eval_reads_channels()
    }

    fn eval_tracked(
        &mut self,
        channels: &mut LaneChannels,
        ports: &Ports,
        widths: &[u8],
        dirty: &mut Vec<usize>,
        optimistic: bool,
    ) {
        let mut io = LaneIo::new(channels, ports, widths, Some(dirty));
        if optimistic {
            self.eval_optimistic(&mut io);
        } else {
            self.eval(&mut io);
        }
    }

    fn commit_settled(&mut self, channels: &mut LaneChannels, ports: &Ports) {
        // Commits only read the settled words, so no widths are needed.
        self.commit(&LaneIo::new(channels, ports, &[], None));
    }

    fn rewind(&mut self) {
        self.reset();
    }
}

/// A cycle-accurate SELF simulation advancing [`LANES`] independent
/// scenarios per word operation.
///
/// The settle algorithm, evaluation ranks, worklist, budget, oscillation
/// reporting and report assembly are the scalar [`crate::Simulation`]'s —
/// both engines run on the same engine core. This engine keeps the lane
/// word storage, the per-lane traces, the divergence map and the per-lane
/// environments: sink back-pressure and source offer patterns vary per
/// lane, and shared-module schedulers inject lane-blocked (one freshly
/// built scheduler per lane, see [`LaneSimulation::reset_with_schedulers`]).
/// Not supported in the lane engine (use the scalar engine): fault
/// injection and streaming cycle monitors.
pub struct LaneSimulation {
    config: LaneConfig,
    core: EngineCore<Box<dyn LaneController>>,
    channels: LaneChannels,
    traces: Vec<Trace>,
    state_scratch: Vec<ChannelState>,
    divergence: Vec<u64>,
}

impl fmt::Debug for LaneSimulation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LaneSimulation")
            .field("nodes", &self.core.controllers.len())
            .field("channels", &self.channels.channel_count())
            .field("lanes", &LANES)
            .field("cycle", &self.core.cycle)
            .finish()
    }
}

impl LaneSimulation {
    /// Builds a 64-lane simulation of `netlist`.
    ///
    /// # Errors
    ///
    /// Fails when the netlist does not validate or contains a node the
    /// simulator cannot model — the same conditions as
    /// [`crate::Simulation::new`].
    pub fn new(netlist: &Netlist, config: &LaneConfig) -> Result<Self, SimError> {
        let channel_count = netlist.live_channels().count();
        let core =
            EngineCore::build(netlist, |node| build_lane_controller(netlist, node, channel_count))?;
        LANE_CONSTRUCTIONS.fetch_add(1, Ordering::Relaxed);
        Ok(LaneSimulation {
            config: config.clone(),
            core,
            channels: LaneChannels::new(channel_count),
            traces: (0..LANES).map(|_| Trace::new(netlist)).collect(),
            state_scratch: vec![ChannelState::default(); channel_count],
            divergence: vec![0; channel_count],
        })
    }

    /// Number of cycles simulated so far.
    pub fn cycle(&self) -> u64 {
        self.core.cycle
    }

    /// Process-wide count of lane-simulation constructions
    /// ([`LaneSimulation::new`]) — the lane-engine twin of
    /// [`crate::Simulation::constructions`], used by sweep tests to prove
    /// that exploration loops build one lane simulation per worker thread
    /// and replay blocks via the reset family. Resets do **not** count.
    pub fn constructions() -> u64 {
        LANE_CONSTRUCTIONS.load(Ordering::Relaxed)
    }

    /// One lane's recorded trace (empty unless [`LaneConfig::record_trace`]
    /// is set).
    ///
    /// # Panics
    ///
    /// When `lane >= LANES`.
    pub fn trace(&self, lane: usize) -> &Trace {
        &self.traces[lane]
    }

    /// The per-cycle settle budget in full-sweep equivalents — the same
    /// bound as [`crate::Simulation::settle_budget`].
    pub fn settle_budget(&self) -> usize {
        self.core.settle_budget()
    }

    /// The accumulated per-channel lane-divergence map (dense channel
    /// order): bit `ℓ` of word `c` is set once lane `ℓ` differed from
    /// lane 0 on channel `c`. All zeros unless
    /// [`LaneConfig::track_divergence`] is set.
    pub fn divergence_map(&self) -> &[u64] {
        &self.divergence
    }

    /// Lanes that ever diverged from lane 0 on any channel, as a bit mask.
    pub fn divergent_lanes(&self) -> u64 {
        self.divergence.iter().fold(0, |acc, &word| acc | word)
    }

    /// Rewinds every lane to cycle 0 without rebuilding (the lane analogue
    /// of [`crate::Simulation::reset`]).
    pub fn reset(&mut self) {
        self.core.rewind();
        self.channels.clear();
        for trace in &mut self.traces {
            trace.clear();
        }
        self.divergence.fill(0);
    }

    /// [`LaneSimulation::reset`], additionally replacing each lane's sink
    /// back-pressure pattern individually: lane `ℓ` of a named sink gets
    /// `patterns[min(ℓ, patterns.len() - 1)]` — 64 environments per
    /// simulation instance. Empty pattern lists leave the sink untouched.
    pub fn reset_with_lane_sink_patterns(
        &mut self,
        overrides: &[(NodeId, Vec<BackpressurePattern>)],
    ) {
        let overrides = overrides.iter().filter(|(_, patterns)| !patterns.is_empty());
        self.reset_with_lane_overrides(overrides, "sink", |scalar, lane, patterns| {
            scalar.override_backpressure(&patterns[lane.min(patterns.len() - 1)])
        });
    }

    /// [`LaneSimulation::reset`], additionally replacing each lane's
    /// token-offer pattern of the named sources individually: lane `ℓ` of a
    /// named source gets `patterns[min(ℓ, patterns.len() - 1)]` — 64 offer
    /// environments per simulation instance, the source-side mirror of
    /// [`LaneSimulation::reset_with_lane_sink_patterns`]. Empty pattern
    /// lists leave the source untouched. Data streams are kept: only *when*
    /// tokens are offered varies per lane, never their values.
    pub fn reset_with_lane_source_patterns(&mut self, overrides: &[(NodeId, Vec<SourcePattern>)]) {
        let overrides = overrides.iter().filter(|(_, patterns)| !patterns.is_empty());
        self.reset_with_lane_overrides(overrides, "source", |scalar, lane, patterns| {
            scalar.override_source_pattern(&patterns[lane.min(patterns.len() - 1)])
        });
    }

    /// [`LaneSimulation::reset`], additionally replacing the prediction
    /// policy of the named shared modules. Schedulers are stateful boxes
    /// (not clonable), so the injection is *lane-blocked*: `make(lane)` is
    /// invoked once per lane to build that lane's scheduler — pass a
    /// closure that ignores `lane` to broadcast one policy across the
    /// block, or derive the seed from `lane` to pack [`LANES`] adversarial
    /// runs into one instance. Overrides persist across later plain resets
    /// (which rewind them via `Scheduler::reset`), exactly like the scalar
    /// engine's [`crate::Simulation::reset_with_schedulers`].
    pub fn reset_with_schedulers(&mut self, overrides: &[(NodeId, &SchedulerFactory<'_>)]) {
        self.reset_with_lane_overrides(overrides.iter(), "shared module", |scalar, lane, make| {
            scalar.override_scheduler(make(lane))
        });
    }

    /// Resets, then applies `apply(scalar, lane, value)` to every lane's
    /// scalar controller of each named node; the node must be a `role`.
    fn reset_with_lane_overrides<'o, T: 'o>(
        &mut self,
        overrides: impl Iterator<Item = &'o (NodeId, T)>,
        role: &str,
        apply: impl Fn(&mut Box<dyn Controller>, usize, &T) -> bool,
    ) {
        self.reset();
        self.core.override_nodes(
            overrides.map(|(node, value)| (*node, value)),
            role,
            |c, value| {
                c.scalar_lanes().is_some_and(|lanes| {
                    lanes.iter_mut().enumerate().all(|(lane, scalar)| apply(scalar, lane, value))
                })
            },
        );
    }

    fn record_traces(&mut self) {
        for lane in 0..LANES {
            for channel in 0..self.channels.channel_count() {
                self.state_scratch[channel] = self.channels.lane_state(channel, lane);
            }
            self.traces[lane].record(&self.state_scratch);
        }
    }

    fn accumulate_divergence(&mut self) {
        for channel in 0..self.channels.channel_count() {
            let fv = self.channels.forward_valid[channel];
            let fs = self.channels.forward_stop[channel];
            let bv = self.channels.backward_valid[channel];
            let bs = self.channels.backward_stop[channel];
            let mut diff = (fv ^ spread_lane0(fv))
                | (fs ^ spread_lane0(fs))
                | (bv ^ spread_lane0(bv))
                | (bs ^ spread_lane0(bs));
            let column = &self.channels.data[channel * LANES..][..LANES];
            let lane0 = column[0];
            for (lane, &value) in column.iter().enumerate().skip(1) {
                if value != lane0 {
                    diff |= 1u64 << lane;
                }
            }
            self.divergence[channel] |= diff;
        }
    }

    /// Simulates one clock cycle across all lanes.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::CombinationalLoop`] when the control words fail
    /// to settle.
    pub fn step(&mut self) -> Result<(), SimError> {
        self.channels.clear();
        if !self.core.settle_event_driven(&mut self.channels) {
            return Err(self.core.combinational_loop());
        }
        if self.config.record_trace {
            self.record_traces();
        }
        if self.config.track_divergence {
            self.accumulate_divergence();
        }
        self.core.clock_edge(&mut self.channels);
        Ok(())
    }

    /// Simulates `cycles` clock cycles across all lanes.
    ///
    /// # Errors
    ///
    /// Same conditions as [`LaneSimulation::step`].
    pub fn run(&mut self, cycles: u64) -> Result<(), SimError> {
        for _ in 0..cycles {
            self.step()?;
        }
        Ok(())
    }

    /// One lane's accumulated report — field-for-field what the scalar
    /// engine's [`crate::Simulation::report`] returns for that lane's
    /// scenario, except that `settle_iterations` / `controller_evals`
    /// count **word** evaluations (shared across lanes) and
    /// [`SimulationReport::lane_divergence`] carries the whole divergence
    /// map.
    ///
    /// # Panics
    ///
    /// When `lane >= LANES`.
    pub fn report(&self, lane: usize) -> SimulationReport {
        assert!(lane < LANES, "lane {lane} out of range");
        SimulationReport {
            trace_bytes: self.traces[lane].heap_bytes() as u64,
            lane_divergence: self.divergence.clone(),
            ..self.core.report(|controller| controller.report(lane))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn width_mask_covers_the_edge_widths() {
        assert_eq!(width_mask(0), 0);
        assert_eq!(width_mask(1), 1);
        assert_eq!(width_mask(8), 0xFF);
        assert_eq!(width_mask(63), u64::MAX >> 1);
        assert_eq!(width_mask(64), u64::MAX);
    }

    #[test]
    fn spread_lane0_broadcasts_bit_zero() {
        assert_eq!(spread_lane0(0), 0);
        assert_eq!(spread_lane0(1), u64::MAX);
        assert_eq!(spread_lane0(0b10), 0);
        assert_eq!(spread_lane0(u64::MAX), u64::MAX);
    }

    #[test]
    fn for_each_lane_visits_set_bits_in_order() {
        let mut seen = Vec::new();
        for_each_lane(0b1010_0001, |lane| seen.push(lane));
        assert_eq!(seen, vec![0, 5, 7]);
        for_each_lane(0, |_| panic!("no bits set"));
    }
}
