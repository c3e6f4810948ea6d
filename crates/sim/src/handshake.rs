//! The SELF handshake equations of the controllers, written once.
//!
//! Every settle path evaluates the same equations (Cortadella, Kishinevsky
//! and Grundmann, DAC 2006): the controllers of [`crate::controllers`] call
//! them from their `forward` and `backward` halves at both rail words, and
//! every engine — scalar, 64-lane ([`crate::lanes`]), the compiled plan and
//! the settle functions emitted by [`crate::codegen`] — drives those halves.
//! Each node kind's equations come in the two directions of the handshake:
//! a **forward** equation — the `V+` and `S−` it drives on its outputs
//! (plus the data word, supplied by the caller) — and a **backward**
//! equation — the `S+` and `V−` it drives on its inputs. The shared module
//! and the commit stage have one such pair per user channel; the
//! variable-latency unit's pair lives in its controller.
//!
//! The equations are generic over the rail word ([`Rail`]: `bool` for one
//! scenario, `u64` for 64 lanes, bit `ℓ` = lane `ℓ`) and over the port view
//! ([`HandshakeIo`]), whose data is a column of one word per lane. Each
//! rail word names its engine's port view as [`Rail::Io`]
//! ([`crate::controller::NodeIo`] or [`crate::lanes::LaneIo`]), which is
//! what [`crate::controller::Controller`] takes. The equations are pure
//! boolean algebra, so the `u64` instance is the `bool` instance lane by
//! lane. Sequential state comes in as words (a buffer's occupancy, a fork's
//! pending branches, a mux's selected and owed-clean inputs); the state
//! itself and its clock-edge update live once per node kind in
//! [`crate::controllers`], generic over the same rail word.
//!
//! Each call writes every rail it drives exactly once: the full-sweep
//! oracle's convergence test counts writes, so a transient
//! write-then-overwrite would make it oscillate on a settled state.

use std::fmt::Debug;
use std::ops::{BitAnd, BitOr, Index, IndexMut, Not, Range};

const IN: usize = 0;
const OUT: usize = 0;
const SELECT: usize = 0;

/// One handshake rail across the scenarios a port view carries: `bool` for
/// one scenario, `u64` for 64 lanes. The default rail is [`Rail::LOW`].
pub trait Rail:
    Copy
    + PartialEq
    + Debug
    + Default
    + BitAnd<Output = Self>
    + BitOr<Output = Self>
    + Not<Output = Self>
    + 'static
{
    /// The rail deasserted in every scenario.
    const LOW: Self;
    /// The rail asserted in every scenario.
    const HIGH: Self;
    /// Number of scenarios (lanes) one rail word carries.
    const LANES: usize;

    /// The engine's port view at this rail word: [`crate::controller::NodeIo`]
    /// at `bool`, [`crate::lanes::LaneIo`] at `u64`.
    type Io<'a>: HandshakeIo<Rail = Self>;

    /// One `T` per lane: inline for `bool`, so a one-scenario controller
    /// keeps its state next to its other fields; a heap column for `u64`.
    type PerLane<T: Debug>: Index<usize, Output = T>
        + IndexMut<usize>
        + AsRef<[T]>
        + AsMut<[T]>
        + Debug;

    /// Per-lane storage holding `make(ℓ)` in lane `ℓ`.
    fn per_lane<T: Debug>(make: impl FnMut(usize) -> T) -> Self::PerLane<T>;

    /// The rail asserted in lane `lane` alone.
    fn lane(lane: usize) -> Self;

    /// The rail as a lane word: bit `ℓ` is lane `ℓ`.
    fn word(self) -> u64;

    /// The rail asserted in the lanes set in `word` (bits past
    /// [`Rail::LANES`] are ignored).
    fn from_word(word: u64) -> Self;

    /// The lanes in which the rail is asserted, lowest first.
    fn lanes(self) -> Lanes {
        Lanes(self.word())
    }

    /// Whether the rail is asserted in lane `lane`.
    fn in_lane(self, lane: usize) -> bool {
        self & Self::lane(lane) != Self::LOW
    }

    /// The rail with lane `lane` asserted when `on`, deasserted otherwise.
    fn with_lane(self, lane: usize, on: bool) -> Self {
        if on {
            self | Self::lane(lane)
        } else {
            self & !Self::lane(lane)
        }
    }
}

impl Rail for bool {
    const LOW: bool = false;
    const HIGH: bool = true;
    const LANES: usize = 1;
    type Io<'a> = crate::controller::NodeIo<'a>;
    type PerLane<T: Debug> = [T; 1];

    fn per_lane<T: Debug>(mut make: impl FnMut(usize) -> T) -> [T; 1] {
        [make(0)]
    }

    fn lane(_lane: usize) -> bool {
        true
    }

    fn word(self) -> u64 {
        u64::from(self)
    }

    fn from_word(word: u64) -> bool {
        word & 1 != 0
    }
}

impl Rail for u64 {
    const LOW: u64 = 0;
    const HIGH: u64 = u64::MAX;
    const LANES: usize = 64;
    type Io<'a> = crate::lanes::LaneIo<'a>;
    type PerLane<T: Debug> = Vec<T>;

    fn per_lane<T: Debug>(make: impl FnMut(usize) -> T) -> Vec<T> {
        (0..Self::LANES).map(make).collect()
    }

    fn lane(lane: usize) -> u64 {
        1 << lane
    }

    fn word(self) -> u64 {
        self
    }

    fn from_word(word: u64) -> u64 {
        word
    }
}

/// The set lanes of a rail word, lowest first (see [`Rail::lanes`]).
#[derive(Debug, Clone)]
pub struct Lanes(u64);

impl Iterator for Lanes {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        if self.0 == 0 {
            return None;
        }
        let lane = self.0.trailing_zeros() as usize;
        self.0 &= self.0 - 1;
        Some(lane)
    }
}

/// The channels attached to one node, as the equations read and drive them.
///
/// Port indices follow [`elastic_core::NodeKind`]'s conventions. Setters are
/// compare-and-set in both implementations, so an equation that drives an
/// unchanged value marks nothing dirty. Data is a column of
/// [`Rail::LANES`] words, one per lane.
pub trait HandshakeIo {
    /// The rail word.
    type Rail: Rail;

    /// Number of input ports.
    fn input_count(&self) -> usize;
    /// Number of output ports.
    fn output_count(&self) -> usize;
    /// `V+` of input `port` (producer-driven).
    fn input_valid(&self, port: usize) -> Self::Rail;
    /// `S+` of input `port` (driven by this node).
    fn input_stop(&self, port: usize) -> Self::Rail;
    /// `V−` of input `port` (driven by this node).
    fn input_kill(&self, port: usize) -> Self::Rail;
    /// `S−` of input `port` (producer-driven).
    fn input_anti_stop(&self, port: usize) -> Self::Rail;
    /// `V+` of output `port` (driven by this node).
    fn output_valid(&self, port: usize) -> Self::Rail;
    /// `S+` of output `port` (consumer-driven).
    fn output_stop(&self, port: usize) -> Self::Rail;
    /// `V−` of output `port` (consumer-driven).
    fn output_kill(&self, port: usize) -> Self::Rail;
    /// `S−` of output `port` (driven by this node).
    fn output_anti_stop(&self, port: usize) -> Self::Rail;
    /// Drives `S+` on input `port`.
    fn set_input_stop(&mut self, port: usize, stop: Self::Rail);
    /// Drives `V−` on input `port`.
    fn set_input_kill(&mut self, port: usize, kill: Self::Rail);
    /// Drives `V+` on output `port`.
    fn set_output_valid(&mut self, port: usize, valid: Self::Rail);
    /// Drives `S−` on output `port`.
    fn set_output_anti_stop(&mut self, port: usize, stop: Self::Rail);
    /// The data column of input `port`.
    fn input_data(&self, port: usize) -> &[u64];
    /// Drives the data column of output `port`, masked to the channel width.
    fn drive_data(&mut self, port: usize, data: &[u64]);
    /// Drives output `output` with the data of input `input`.
    fn copy_data(&mut self, input: usize, output: usize);
}

/// Sequential state of a standard (`Lb = 1`) elastic buffer, one word per
/// condition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StandardBufferState<R> {
    /// A token is stored; the oldest one is offered downstream.
    pub has_token: R,
    /// The token storage is at capacity.
    pub full: R,
    /// An anti-token is stored; it is offered upstream.
    pub has_anti_token: R,
    /// The anti-token storage is at capacity.
    pub anti_full: R,
}

/// Standard buffer, forward: offer the oldest token; refuse an arriving
/// anti-token only when there is neither a token to cancel it against nor
/// room to store it. Every driven signal is a function of the state alone.
pub fn standard_buffer_forward<P: HandshakeIo>(
    io: &mut P,
    state: StandardBufferState<P::Rail>,
    data: &[u64],
) {
    io.set_output_valid(OUT, state.has_token);
    io.drive_data(OUT, data);
    io.set_output_anti_stop(OUT, !state.has_token & state.anti_full);
}

/// Standard buffer, backward: stop the producer when full; send a stored
/// anti-token upstream.
pub fn standard_buffer_backward<P: HandshakeIo>(io: &mut P, state: StandardBufferState<P::Rail>) {
    io.set_input_stop(IN, state.full);
    io.set_input_kill(IN, state.has_anti_token);
}

/// Zero-backward (`Lb = 0`, Figure 5) buffer, forward: offer the stored
/// token; an empty buffer exposes the producer's anti-token stop.
pub fn zero_backward_forward<P: HandshakeIo>(io: &mut P, full: P::Rail, data: &[u64]) {
    let anti_stop = !full & io.input_anti_stop(IN);
    io.set_output_valid(OUT, full);
    io.drive_data(OUT, data);
    io.set_output_anti_stop(OUT, anti_stop);
}

/// Zero-backward buffer, backward: the stop traverses combinationally —
/// full and stopped downstream, unless the stored token is about to be
/// annihilated — and an anti-token passes straight through an empty buffer.
pub fn zero_backward_backward<P: HandshakeIo>(io: &mut P, full: P::Rail) {
    let stop = io.output_stop(OUT);
    let kill = io.output_kill(OUT);
    io.set_input_stop(IN, full & stop & !kill);
    io.set_input_kill(IN, !full & kill);
}

/// `(every input valid, every producer accepts an anti-token)` of a join
/// over the input ports `ports`.
fn join<P: HandshakeIo>(io: &P, ports: Range<usize>) -> (P::Rail, P::Rail) {
    let mut all_valid = P::Rail::HIGH;
    let mut accept_kill = P::Rail::HIGH;
    for port in ports {
        all_valid = all_valid & io.input_valid(port);
        accept_kill = accept_kill & !io.input_anti_stop(port);
    }
    (all_valid, accept_kill)
}

/// Function block (lazy join), forward: the result is valid once every
/// operand is; an arriving anti-token is refused only while operands are
/// missing and some producer cannot take it.
pub fn function_forward<P: HandshakeIo>(io: &mut P, data: &[u64]) {
    let (all_valid, accept_kill) = join(io, 0..io.input_count());
    io.set_output_valid(OUT, all_valid);
    io.drive_data(OUT, data);
    io.set_output_anti_stop(OUT, !(all_valid | accept_kill));
}

/// Function block, backward: the inputs fire together when the result
/// transfers or an arriving anti-token annihilates against the waiting
/// operands; with operands missing, the anti-token is forwarded to every
/// input at once.
pub fn function_backward<P: HandshakeIo>(io: &mut P) {
    let (all_valid, accept_kill) = join(io, 0..io.input_count());
    let kill = io.output_kill(OUT);
    let fire = (all_valid & !io.output_stop(OUT) & !kill) | (all_valid & kill);
    let forward_kill = kill & !all_valid & accept_kill;
    for port in 0..io.input_count() {
        io.set_input_stop(port, !fire);
        io.set_input_kill(port, forward_kill);
    }
}

/// Lazy-fork readiness of one branch: served already, not stopped, or its
/// copy is being cancelled by an anti-token.
fn branch_ready<P: HandshakeIo>(
    io: &P,
    input_valid: P::Rail,
    pending: P::Rail,
    branch: usize,
) -> P::Rail {
    !pending | !io.output_stop(branch) | (io.output_kill(branch) & input_valid)
}

/// `(every branch ready, at least two branches not ready)`.
fn readiness<P: HandshakeIo>(
    io: &P,
    input_valid: P::Rail,
    pending: &impl Fn(usize) -> P::Rail,
) -> (P::Rail, P::Rail) {
    let mut missing = P::Rail::LOW;
    let mut two_missing = P::Rail::LOW;
    for branch in 0..io.output_count() {
        let not_ready = !branch_ready(io, input_valid, pending(branch), branch);
        two_missing = two_missing | (missing & not_ready);
        missing = missing | not_ready;
    }
    (!missing, two_missing)
}

/// Fork, forward: offer the input token to every branch that still needs
/// it (`pending`: the branch has not received its copy of the current
/// token). A lazy fork withholds a branch's copy while any *other* branch
/// is not ready — gating a branch on its own stop would add a deadlocked
/// fixpoint. The `optimistic` seeding pass offers every copy as if all
/// branches were ready, so reconverging consumers compute their real stops
/// before the honest pass re-evaluates.
pub fn fork_forward<P: HandshakeIo>(
    io: &mut P,
    eager: bool,
    optimistic: bool,
    pending: impl Fn(usize) -> P::Rail,
) {
    let input_valid = io.input_valid(IN);
    let lazy = (!eager && !optimistic).then(|| readiness(io, input_valid, &pending));
    for branch in 0..io.output_count() {
        let pending = pending(branch);
        let needs = input_valid & pending;
        // All others ready: everyone is, or this branch is the only laggard.
        let others_ready = match lazy {
            None => P::Rail::HIGH,
            Some((all_ready, two_missing)) => {
                all_ready | (!two_missing & !branch_ready(io, input_valid, pending, branch))
            }
        };
        io.set_output_valid(branch, needs & others_ready);
        io.copy_data(IN, branch);
        // A branch kill can only be absorbed while its copy is outstanding.
        io.set_output_anti_stop(branch, !needs);
    }
}

/// Whether `branch` completes its delivery on the driven signals: its
/// (actually offered) copy transfers, or an anti-token cancels it.
pub(crate) fn fork_delivered<P: HandshakeIo>(
    io: &P,
    input_valid: P::Rail,
    pending: P::Rail,
    branch: usize,
) -> P::Rail {
    let killed = io.output_kill(branch) & !io.output_anti_stop(branch);
    let transferred = io.output_valid(branch) & !io.output_stop(branch);
    input_valid & pending & (killed | transferred)
}

/// Fork, backward: the input transfers once every branch has been (or is
/// being) served — for a lazy fork, only with every branch ready.
pub fn fork_backward<P: HandshakeIo>(io: &mut P, eager: bool, pending: impl Fn(usize) -> P::Rail) {
    let input_valid = io.input_valid(IN);
    let mut done = P::Rail::HIGH;
    for branch in 0..io.output_count() {
        let pending = pending(branch);
        done = done & (!pending | fork_delivered(io, input_valid, pending, branch));
    }
    let gate = if eager { P::Rail::HIGH } else { readiness(io, input_valid, &pending).0 };
    io.set_input_stop(IN, !(input_valid & done & gate));
    io.set_input_kill(IN, P::Rail::LOW);
}

/// `(output valid, the selected input owes no anti-token)` of a mux.
fn mux_valid<P: HandshakeIo>(
    io: &P,
    early: bool,
    selected: &impl Fn(usize) -> P::Rail,
    clean: &impl Fn(usize) -> P::Rail,
) -> (P::Rail, P::Rail) {
    let mut data_valid = if early { P::Rail::LOW } else { P::Rail::HIGH };
    let mut selected_clean = P::Rail::LOW;
    for input in 0..io.input_count() - 1 {
        let valid = io.input_valid(1 + input);
        if early {
            data_valid = data_valid | (selected(input) & valid);
            selected_clean = selected_clean | (selected(input) & clean(input));
        } else {
            data_valid = data_valid & valid;
        }
    }
    let mut valid = io.input_valid(SELECT) & data_valid;
    if early {
        valid = valid & selected_clean;
    }
    (valid, selected_clean)
}

/// Multiplexor, forward. A lazy mux joins the select with *every* data
/// input; an early-evaluation mux fires on the select and the selected
/// input alone, provided no stale anti-token is owed to it. `selected(j)`:
/// the select token chooses data input `j`; `clean(j)`: input `j` owes no
/// anti-token. A mux never absorbs anti-tokens at its output.
pub fn mux_forward<P: HandshakeIo>(
    io: &mut P,
    early: bool,
    selected: impl Fn(usize) -> P::Rail,
    clean: impl Fn(usize) -> P::Rail,
    data: &[u64],
) {
    let (valid, _) = mux_valid(io, early, &selected, &clean);
    io.set_output_valid(OUT, valid);
    io.drive_data(OUT, data);
    io.set_output_anti_stop(OUT, P::Rail::HIGH);
}

/// Multiplexor, backward. A firing early mux owes an anti-token to every
/// non-selected input and injects it at once; an owed anti-token keeps
/// being offered until delivered, and the select is never owed one. Stop
/// and kill are mutually exclusive: a channel being killed is not stopped,
/// and the selected input is stopped unless the mux fires.
pub fn mux_backward<P: HandshakeIo>(
    io: &mut P,
    early: bool,
    selected: impl Fn(usize) -> P::Rail,
    clean: impl Fn(usize) -> P::Rail,
) {
    let (valid, selected_clean) = mux_valid(io, early, &selected, &clean);
    let select_valid = io.input_valid(SELECT);
    let fire = valid & !io.output_stop(OUT);
    io.set_input_stop(SELECT, !fire);
    io.set_input_kill(SELECT, P::Rail::LOW);
    for input in 0..io.input_count() - 1 {
        if early {
            let is_selected = selected(input) & select_valid;
            let owed = !clean(input) | (fire & !is_selected);
            let consuming = is_selected & fire & selected_clean;
            let kill = owed & !consuming;
            io.set_input_kill(1 + input, kill);
            io.set_input_stop(1 + input, !kill & (!is_selected | !fire));
        } else {
            io.set_input_stop(1 + input, !fire);
            io.set_input_kill(1 + input, P::Rail::LOW);
        }
    }
}

/// Speculative shared module (Figure 4), user `user` with operand ports
/// `ports`, forward: only a `granted` user's joined operands reach its
/// output (the caller supplies the result column); an arriving anti-token
/// is refused only while operands are missing and some producer cannot
/// take it.
pub fn shared_user_forward<P: HandshakeIo>(
    io: &mut P,
    user: usize,
    ports: Range<usize>,
    granted: P::Rail,
    data: &[u64],
) {
    let (valid, accept_kill) = join(io, ports);
    io.set_output_valid(user, granted & valid);
    io.drive_data(user, data);
    io.set_output_anti_stop(user, !(valid | accept_kill));
}

/// Shared module, user `user`, backward: an anti-token from the consumer
/// annihilates against waiting operands, or is forwarded to every operand
/// producer at once when none waits; the operands are consumed when the
/// result transfers or is annihilated.
pub fn shared_user_backward<P: HandshakeIo>(
    io: &mut P,
    user: usize,
    ports: Range<usize>,
    granted: P::Rail,
) {
    let (valid, accept_kill) = join(io, ports.clone());
    let kill = io.output_kill(user);
    let consume = (granted & valid & !io.output_stop(user) & !kill) | (valid & kill);
    let forward_kill = kill & !valid & accept_kill;
    for port in ports {
        io.set_input_stop(port, !consume);
        io.set_input_kill(port, forward_kill);
    }
}

/// In-order commit stage (Section 4.2), user lane `user`, forward: offer
/// the oldest parked result persistently; an empty lane passes the shared
/// module's anti-token stop downstream.
pub fn commit_lane_forward<P: HandshakeIo>(
    io: &mut P,
    user: usize,
    occupied: P::Rail,
    data: &[u64],
) {
    io.set_output_valid(user, occupied);
    io.drive_data(user, data);
    io.set_output_anti_stop(user, !occupied & io.input_anti_stop(user));
}

/// Commit stage, user lane `user`, backward: a full lane still accepts when
/// its head leaves this cycle (zero backward latency); an anti-token
/// squashes the head in place, or passes an empty lane towards the shared
/// module.
pub fn commit_lane_backward<P: HandshakeIo>(
    io: &mut P,
    user: usize,
    occupied: P::Rail,
    full: P::Rail,
) {
    let stop = io.output_stop(user);
    let kill = io.output_kill(user);
    io.set_input_stop(user, full & stop & !kill);
    io.set_input_kill(user, !occupied & kill);
}

#[cfg(test)]
mod tests {
    use super::*;

    const RAILS: usize = 4;
    const V_PLUS: usize = 0;
    const S_PLUS: usize = 1;
    const V_MINUS: usize = 2;
    const S_MINUS: usize = 3;
    const INPUT: usize = 0;
    const OUTPUT: usize = 1;

    /// A port view over plain rail arrays that records every write and
    /// rejects a second write of the same rail within one call.
    struct TestIo<R> {
        rails: [Vec<[R; RAILS]>; 2],
        writes: Vec<(usize, usize, usize)>,
    }

    impl<R: Rail> TestIo<R> {
        /// Ports with every rail low except `rails[var]`, set to `value(var)`.
        fn new(
            inputs: usize,
            outputs: usize,
            rails: &[(usize, usize, usize)],
            value: impl Fn(usize) -> R,
        ) -> Self {
            let mut io = TestIo {
                rails: [vec![[R::LOW; RAILS]; inputs], vec![[R::LOW; RAILS]; outputs]],
                writes: Vec::new(),
            };
            for (var, &(side, port, rail)) in rails.iter().enumerate() {
                io.rails[side][port][rail] = value(var);
            }
            io
        }

        fn read(&self, side: usize, port: usize, rail: usize) -> R {
            self.rails[side][port][rail]
        }

        fn write(&mut self, side: usize, port: usize, rail: usize, value: R) {
            assert!(!self.writes.contains(&(side, port, rail)), "rail written twice in one call");
            self.writes.push((side, port, rail));
            self.rails[side][port][rail] = value;
        }
    }

    impl<R: Rail> HandshakeIo for TestIo<R> {
        type Rail = R;

        fn input_count(&self) -> usize {
            self.rails[INPUT].len()
        }
        fn output_count(&self) -> usize {
            self.rails[OUTPUT].len()
        }
        fn input_valid(&self, port: usize) -> R {
            self.read(INPUT, port, V_PLUS)
        }
        fn input_stop(&self, port: usize) -> R {
            self.read(INPUT, port, S_PLUS)
        }
        fn input_kill(&self, port: usize) -> R {
            self.read(INPUT, port, V_MINUS)
        }
        fn input_anti_stop(&self, port: usize) -> R {
            self.read(INPUT, port, S_MINUS)
        }
        fn output_valid(&self, port: usize) -> R {
            self.read(OUTPUT, port, V_PLUS)
        }
        fn output_stop(&self, port: usize) -> R {
            self.read(OUTPUT, port, S_PLUS)
        }
        fn output_kill(&self, port: usize) -> R {
            self.read(OUTPUT, port, V_MINUS)
        }
        fn output_anti_stop(&self, port: usize) -> R {
            self.read(OUTPUT, port, S_MINUS)
        }
        fn set_input_stop(&mut self, port: usize, stop: R) {
            self.write(INPUT, port, S_PLUS, stop);
        }
        fn set_input_kill(&mut self, port: usize, kill: R) {
            self.write(INPUT, port, V_MINUS, kill);
        }
        fn set_output_valid(&mut self, port: usize, valid: R) {
            self.write(OUTPUT, port, V_PLUS, valid);
        }
        fn set_output_anti_stop(&mut self, port: usize, stop: R) {
            self.write(OUTPUT, port, S_MINUS, stop);
        }
        fn input_data(&self, _port: usize) -> &[u64] {
            &[]
        }
        fn drive_data(&mut self, _port: usize, _data: &[u64]) {}
        fn copy_data(&mut self, _input: usize, _output: usize) {}
    }

    /// The rails an equation may read: the ones the node's neighbours drive
    /// (`V+`/`S−` of inputs, `S+`/`V−` of outputs), plus the output rails
    /// the node drives itself when `own` (a fork's backward equation reads
    /// what its forward equation drove).
    fn read_rails(inputs: usize, outputs: usize, own: bool) -> Vec<(usize, usize, usize)> {
        let mut rails = Vec::new();
        for port in 0..inputs {
            rails.extend([(INPUT, port, V_PLUS), (INPUT, port, S_MINUS)]);
        }
        for port in 0..outputs {
            rails.extend([(OUTPUT, port, S_PLUS), (OUTPUT, port, V_MINUS)]);
            if own {
                rails.extend([(OUTPUT, port, V_PLUS), (OUTPUT, port, S_MINUS)]);
            }
        }
        rails
    }

    /// Runs one equation on every combination of its read rails and `states`
    /// state bits: once per combination with `bool` rails, and once per 64
    /// combinations with the combinations packed lane-wise into `u64`
    /// rails. Bit ℓ of every rail (and the write sequence) of the word run
    /// must equal the `bool` run of combination ℓ.
    fn check_lanewise(
        (inputs, outputs, own, states): (usize, usize, bool, usize),
        scalar: impl Fn(&mut TestIo<bool>, &[bool]),
        word: impl Fn(&mut TestIo<u64>, &[u64]),
    ) {
        let rails = read_rails(inputs, outputs, own);
        let vars = rails.len() + states;
        let combinations = 1usize << vars;
        let bit = |var: usize, combination: usize| (combination % combinations) >> var & 1 == 1;
        for first in (0..combinations).step_by(64) {
            let lane_word =
                |var: usize| (0..64).fold(0u64, |w, l| w | (u64::from(bit(var, first + l)) << l));
            let mut wide = TestIo::new(inputs, outputs, &rails, lane_word);
            let wide_states: Vec<u64> = (0..states).map(|k| lane_word(rails.len() + k)).collect();
            word(&mut wide, &wide_states);
            for lane in 0..64 {
                let mut narrow = TestIo::new(inputs, outputs, &rails, |var| bit(var, first + lane));
                let narrow_states: Vec<bool> =
                    (0..states).map(|k| bit(rails.len() + k, first + lane)).collect();
                scalar(&mut narrow, &narrow_states);
                assert_eq!(
                    narrow.writes,
                    wide.writes,
                    "write sequence, combination {}",
                    first + lane
                );
                for side in [INPUT, OUTPUT] {
                    for (port, (n, w)) in
                        narrow.rails[side].iter().zip(&wide.rails[side]).enumerate()
                    {
                        for rail in 0..RAILS {
                            assert_eq!(
                                n[rail],
                                (w[rail] >> lane) & 1 == 1,
                                "side {side} port {port} rail {rail}, combination {}",
                                first + lane
                            );
                        }
                    }
                }
            }
        }
    }

    /// One equation instantiated at both rail words from the same body.
    macro_rules! lanewise {
        ($shape:expr, |$io:ident, $state:ident| $body:expr) => {
            check_lanewise(
                $shape,
                |$io: &mut TestIo<bool>, $state: &[bool]| $body,
                |$io: &mut TestIo<u64>, $state: &[u64]| $body,
            )
        };
    }

    #[test]
    fn buffer_equations_are_lane_wise() {
        lanewise!((1, 1, false, 4), |io, s| {
            let state = StandardBufferState {
                has_token: s[0],
                full: s[1],
                has_anti_token: s[2],
                anti_full: s[3],
            };
            standard_buffer_forward(io, state, &[]);
            standard_buffer_backward(io, state);
        });
        lanewise!((1, 1, false, 1), |io, s| zero_backward_forward(io, s[0], &[]));
        lanewise!((1, 1, false, 1), |io, s| zero_backward_backward(io, s[0]));
    }

    #[test]
    fn function_equations_are_lane_wise() {
        for inputs in 1..=3 {
            lanewise!((inputs, 1, false, 0), |io, _s| function_forward(io, &[]));
            lanewise!((inputs, 1, false, 0), |io, _s| function_backward(io));
        }
    }

    #[test]
    fn fork_equations_are_lane_wise() {
        for outputs in 1..=3 {
            for eager in [true, false] {
                for optimistic in [false, true] {
                    lanewise!((1, outputs, false, outputs), |io, s| {
                        fork_forward(io, eager, optimistic, |branch| s[branch])
                    });
                }
                lanewise!((1, outputs, true, outputs), |io, s| {
                    fork_backward(io, eager, |branch| s[branch])
                });
            }
        }
    }

    #[test]
    fn mux_equations_are_lane_wise() {
        // The select plus one or two data inputs; per data input, a
        // selected and an owed-clean state bit.
        for data in 1..=2 {
            for early in [false, true] {
                lanewise!((1 + data, 1, false, 2 * data), |io, s| {
                    mux_forward(io, early, |j| s[j], |j| s[data + j], &[])
                });
                lanewise!((1 + data, 1, false, 2 * data), |io, s| {
                    mux_backward(io, early, |j| s[j], |j| s[data + j])
                });
            }
        }
    }

    #[test]
    fn shared_module_equations_are_lane_wise() {
        // Two users of one or two operands; the state bit is the grant.
        for operands in 1..=2 {
            for user in 0..2 {
                let ports = user * operands..(user + 1) * operands;
                lanewise!((2 * operands, 2, false, 1), |io, s| {
                    shared_user_forward(io, user, ports.clone(), s[0], &[]);
                    shared_user_backward(io, user, ports.clone(), s[0]);
                });
            }
        }
    }

    #[test]
    fn commit_stage_equations_are_lane_wise() {
        // Per user lane, an occupied and a full state bit.
        for users in 1..=2 {
            for user in 0..users {
                lanewise!((users, users, false, 2), |io, s| {
                    commit_lane_forward(io, user, s[0], &[]);
                    commit_lane_backward(io, user, s[0], s[1]);
                });
            }
        }
    }
}
