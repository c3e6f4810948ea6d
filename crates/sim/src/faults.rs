//! Seeded, replayable signal-layer fault injection.
//!
//! The paper's correctness story — wrong-path tokens are retracted, the SELF
//! handshake invariants hold, any leads-to-compliant scheduler is safe — is
//! only credible if the checkers of `elastic-verify` demonstrably *fire* on
//! broken hardware. This module provides the broken hardware: parameterized
//! faults injected directly at the channel-signal layer, per channel and per
//! cycle window, fully deterministic and replayable from a [`FaultPlan`].
//!
//! A fault perturbs the **settled** signals of a cycle, after the
//! combinational fixpoint and before the trace is recorded and the clock edge
//! commits — exactly the observable effect of a flipped wire between the
//! controller outputs and the registers: both endpoints of the channel see
//! the same corrupted tuple, the trace records what was really on the wire,
//! and the sequential state latches it.
//!
//! The fault classes mirror the ways a SELF implementation can rot:
//!
//! * [`FaultKind::StuckValid`] / [`FaultKind::StuckStop`] — stuck-at faults
//!   on the forward handshake wires (`V+`, `S+`);
//! * [`FaultKind::DropToken`] — a token in flight disappears (`V+` forced
//!   low while the producer offers);
//! * [`FaultKind::DuplicateToken`] — a spurious token appears, replaying the
//!   last valid data word seen on the wire;
//! * [`FaultKind::BitFlip`] — the data word is XOR-ed with a mask while a
//!   token is offered (control plane intact, payload corrupted);
//! * [`FaultKind::StallStorm`] — a transient burst of back-pressure (`S+`
//!   forced high for a bounded window), the fault the paper's elastic
//!   designs must absorb bit-identically.
//!
//! Scheduler-level chaos (byzantine grants) needs no fault class: the seeded,
//! feedback-ignoring [`elastic_core::scheduler::RandomScheduler`] plugs into
//! [`crate::Simulation::reset_with_schedulers`], and the fault campaign of
//! `elastic-gen` drives it.

use std::collections::BTreeMap;
use std::fmt;

use elastic_core::ChannelId;

use crate::signal::ChannelState;

/// One class of signal-layer fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// `V+` stuck at `level` for the whole fault window.
    StuckValid {
        /// The level the wire is stuck at.
        level: bool,
    },
    /// `S+` stuck at `level` for the whole fault window.
    StuckStop {
        /// The level the wire is stuck at.
        level: bool,
    },
    /// Tokens offered during the window vanish (`V+` forced low).
    DropToken,
    /// A spurious token appears during the window when the producer is
    /// idle, replaying the last valid data word observed on the wire.
    DuplicateToken,
    /// The data word is XOR-ed with `mask` (truncated to the channel width)
    /// whenever a token is offered during the window.
    BitFlip {
        /// Bits to flip in the data word.
        mask: u64,
    },
    /// Transient back-pressure burst: `S+` forced high for the window.
    StallStorm,
}

impl FaultKind {
    /// Short stable name of the fault class (used as the statistics key and
    /// in campaign reports).
    pub fn name(&self) -> &'static str {
        match self {
            FaultKind::StuckValid { .. } => "stuck-valid",
            FaultKind::StuckStop { .. } => "stuck-stop",
            FaultKind::DropToken => "drop-token",
            FaultKind::DuplicateToken => "duplicate-token",
            FaultKind::BitFlip { .. } => "bit-flip",
            FaultKind::StallStorm => "stall-storm",
        }
    }
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultKind::StuckValid { level } => write!(f, "stuck-valid@{}", u8::from(*level)),
            FaultKind::StuckStop { level } => write!(f, "stuck-stop@{}", u8::from(*level)),
            FaultKind::BitFlip { mask } => write!(f, "bit-flip(mask={mask:#x})"),
            other => f.write_str(other.name()),
        }
    }
}

/// One parameterized fault: a class, a target channel and a cycle window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSpec {
    /// The channel whose signals are perturbed.
    pub channel: ChannelId,
    /// What is done to the signals.
    pub kind: FaultKind,
    /// First cycle (inclusive) in which the fault is active.
    pub from_cycle: u64,
    /// Number of cycles the fault stays active; `u64::MAX` means permanent.
    pub duration: u64,
}

impl FaultSpec {
    /// First cycle (exclusive) after the fault window, saturating for
    /// permanent faults.
    pub fn until_cycle(&self) -> u64 {
        self.from_cycle.saturating_add(self.duration)
    }

    /// `true` when the fault is active in `cycle`.
    pub fn active(&self, cycle: u64) -> bool {
        cycle >= self.from_cycle && cycle < self.until_cycle()
    }
}

impl fmt::Display for FaultSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.duration == u64::MAX {
            write!(
                f,
                "{} on {} from cycle {} (permanent)",
                self.kind, self.channel, self.from_cycle
            )
        } else {
            write!(
                f,
                "{} on {} during cycles {}..{}",
                self.kind,
                self.channel,
                self.from_cycle,
                self.until_cycle()
            )
        }
    }
}

/// A replayable set of faults, armed on a simulation via
/// [`crate::Simulation::arm_faults`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultPlan {
    /// The faults, applied in order each cycle.
    pub faults: Vec<FaultSpec>,
}

impl FaultPlan {
    /// A plan containing a single fault.
    pub fn single(fault: FaultSpec) -> Self {
        FaultPlan { faults: vec![fault] }
    }
}

/// Counters accumulated by the fault injector of one simulation run
/// (surfaced as [`crate::SimulationReport::faults`]).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultStats {
    /// Number of fault specs armed on the simulation.
    pub armed: u64,
    /// Cycles in which at least one fault actually changed a signal.
    pub perturbed_cycles: u64,
    /// Signal perturbations per fault class. A fault whose forced level
    /// matches what the wire already carried changes nothing and is not
    /// counted — a run with `events` empty was observationally fault-free
    /// (the injection was *vacuous*).
    pub events: BTreeMap<&'static str, u64>,
}

impl FaultStats {
    /// Total signal perturbations across all fault classes.
    pub fn total_events(&self) -> u64 {
        self.events.values().sum()
    }
}

/// A fault resolved against the dense channel indexing of one simulation.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ResolvedFault {
    pub(crate) channel: usize,
    pub(crate) width_mask: u64,
    pub(crate) spec: FaultSpec,
}

/// Applies an armed [`FaultPlan`] to the settled channel signals of each
/// cycle. Pure function of the cycle number and the signal history, so a
/// [`crate::Simulation::reset`] (which rewinds the injector) replays the
/// exact same perturbations.
#[derive(Debug)]
pub(crate) struct FaultInjector {
    faults: Vec<ResolvedFault>,
    /// Last valid data word observed per dense channel (replayed by
    /// [`FaultKind::DuplicateToken`]).
    last_valid_data: Vec<u64>,
    stats: FaultStats,
}

impl FaultInjector {
    pub(crate) fn new(faults: Vec<ResolvedFault>, channel_count: usize) -> Self {
        let armed = faults.len() as u64;
        FaultInjector {
            faults,
            last_valid_data: vec![0; channel_count],
            stats: FaultStats { armed, ..FaultStats::default() },
        }
    }

    /// Rewinds the injector's replay memory and counters (the armed plan is
    /// kept), making a reset simulation replay bit-identically.
    pub(crate) fn rewind(&mut self) {
        self.last_valid_data.iter_mut().for_each(|slot| *slot = 0);
        self.stats = FaultStats { armed: self.stats.armed, ..FaultStats::default() };
    }

    pub(crate) fn stats(&self) -> &FaultStats {
        &self.stats
    }

    /// Perturbs the settled signals of `cycle` in place.
    pub(crate) fn apply(&mut self, cycle: u64, channels: &mut [ChannelState]) {
        let mut perturbed = false;
        for fault in &self.faults {
            if !fault.spec.active(cycle) {
                continue;
            }
            let state = &mut channels[fault.channel];
            let before = *state;
            match fault.spec.kind {
                FaultKind::StuckValid { level } => state.forward_valid = level,
                FaultKind::StuckStop { level } => state.forward_stop = level,
                FaultKind::DropToken => state.forward_valid = false,
                FaultKind::DuplicateToken => {
                    if !state.forward_valid {
                        state.forward_valid = true;
                        state.data = self.last_valid_data[fault.channel];
                    }
                }
                FaultKind::BitFlip { mask } => {
                    if state.forward_valid {
                        state.data ^= mask & fault.width_mask;
                    }
                }
                FaultKind::StallStorm => state.forward_stop = true,
            }
            if *state != before {
                perturbed = true;
                *self.stats.events.entry(fault.spec.kind.name()).or_insert(0) += 1;
            }
        }
        if perturbed {
            self.stats.perturbed_cycles += 1;
        }
        // Replay memory tracks the wire as observed (post-fault): what a
        // physical latch snooping the channel would hold.
        for (slot, state) in self.last_valid_data.iter_mut().zip(channels.iter()) {
            if state.forward_valid {
                *slot = state.data;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_windows_are_half_open_and_saturate() {
        let fault = FaultSpec {
            channel: ChannelId::new(0),
            kind: FaultKind::StallStorm,
            from_cycle: 4,
            duration: 3,
        };
        assert!(!fault.active(3));
        assert!(fault.active(4));
        assert!(fault.active(6));
        assert!(!fault.active(7));

        let permanent = FaultSpec { duration: u64::MAX, ..fault };
        assert!(permanent.active(u64::MAX - 1));
        assert_eq!(permanent.until_cycle(), u64::MAX);
        assert!(permanent.to_string().contains("permanent"));
    }

    #[test]
    fn the_injector_counts_only_real_perturbations() {
        let spec = FaultSpec {
            channel: ChannelId::new(0),
            kind: FaultKind::StuckValid { level: true },
            from_cycle: 0,
            duration: u64::MAX,
        };
        let resolved = ResolvedFault { channel: 0, width_mask: u64::MAX, spec };
        let mut injector = FaultInjector::new(vec![resolved], 1);
        let mut already_valid = [ChannelState { forward_valid: true, ..ChannelState::default() }];
        injector.apply(0, &mut already_valid);
        assert_eq!(injector.stats().total_events(), 0, "forcing an already-high wire is vacuous");

        let mut idle = [ChannelState::default()];
        injector.apply(1, &mut idle);
        assert!(idle[0].forward_valid);
        assert_eq!(injector.stats().total_events(), 1);
        assert_eq!(injector.stats().perturbed_cycles, 1);

        injector.rewind();
        assert_eq!(injector.stats().total_events(), 0);
        assert_eq!(injector.stats().armed, 1, "the plan survives a rewind");
    }

    #[test]
    fn duplication_replays_the_last_wire_value() {
        let spec = FaultSpec {
            channel: ChannelId::new(0),
            kind: FaultKind::DuplicateToken,
            from_cycle: 1,
            duration: 1,
        };
        let resolved = ResolvedFault { channel: 0, width_mask: u64::MAX, spec };
        let mut injector = FaultInjector::new(vec![resolved], 1);
        let mut carrying =
            [ChannelState { forward_valid: true, data: 0x2A, ..ChannelState::default() }];
        injector.apply(0, &mut carrying);
        let mut idle = [ChannelState::default()];
        injector.apply(1, &mut idle);
        assert!(idle[0].forward_valid, "the window fabricates a token");
        assert_eq!(idle[0].data, 0x2A, "…replaying the last valid word");
    }

    #[test]
    fn bit_flips_respect_the_channel_width() {
        let spec = FaultSpec {
            channel: ChannelId::new(0),
            kind: FaultKind::BitFlip { mask: 0x0101 },
            from_cycle: 0,
            duration: 1,
        };
        let resolved = ResolvedFault { channel: 0, width_mask: 0xFF, spec };
        let mut injector = FaultInjector::new(vec![resolved], 1);
        let mut state = [ChannelState { forward_valid: true, data: 2, ..ChannelState::default() }];
        injector.apply(0, &mut state);
        assert_eq!(state[0].data, 3, "only in-width bits flip");
    }

    #[test]
    fn byzantine_schedulers_are_seeded_and_in_range() {
        // Byzantine grants come from core's `RandomScheduler` (module docs);
        // the fault campaign replays a run only if they are a pure function
        // of the seed.
        use elastic_core::scheduler::RandomScheduler;
        use elastic_core::{Scheduler, SharedFeedback};
        fn grants(scheduler: &mut RandomScheduler, users: usize, cycles: usize) -> Vec<usize> {
            let feedback = SharedFeedback::new(users);
            (0..cycles)
                .map(|_| {
                    let grant = scheduler.prediction();
                    scheduler.tick(&feedback);
                    grant
                })
                .collect()
        }
        let mut a = RandomScheduler::new(3, 7);
        let mut b = RandomScheduler::new(3, 7);
        let sequence = grants(&mut a, 3, 64);
        assert!(sequence.iter().all(|&grant| grant < 3));
        assert!(sequence.windows(2).any(|w| w[0] != w[1]), "the grants must actually move");
        assert_eq!(sequence, grants(&mut b, 3, 64), "same seed, same grant sequence");
        b.reset();
        assert_eq!(grants(&mut b, 3, 10), sequence[..10], "reset rewinds to the first grant");
        assert_eq!(b.name(), "random");
        for users in [0, 1] {
            let mut single = RandomScheduler::new(users, 0xDEAD);
            assert!(grants(&mut single, 1, 32).iter().all(|&grant| grant == 0), "{users} user(s)");
        }
    }
}
