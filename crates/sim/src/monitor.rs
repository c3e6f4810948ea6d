//! Streaming runtime monitors: fail-fast invariant checking during a run.
//!
//! The trace-based checkers of `elastic-verify` deliver an *end-of-run*
//! verdict; a monitor instead observes the settled channel signals **every
//! cycle**, as the simulation produces them, and trips the moment an
//! invariant breaks — with a precise `(channel, cycle, invariant)` locus.
//! [`crate::Simulation::run_monitored`] drives any set of monitors and turns
//! the first trip into [`crate::SimError::MonitorTripped`], so a faulted run
//! stops at the violation instead of simulating garbage for thousands of
//! cycles and leaving the diagnosis to a post-mortem.
//!
//! The trait lives in `elastic-sim` (the engine must drive it); the concrete
//! SELF-invariant monitors — protocol, progress/deadlock, leads-to,
//! reference-stream scoreboard — live in `elastic-verify::monitor`, and share
//! each property's per-cycle rule with that crate's trace checkers.

use std::fmt;

use elastic_core::ChannelId;

use crate::signal::ChannelState;

/// The locus of one runtime-monitor trip.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MonitorViolation {
    /// Name of the monitor that tripped.
    pub monitor: &'static str,
    /// The invariant that broke (e.g. `Retry+`, `Progress`, `LeadsTo`).
    pub invariant: &'static str,
    /// The channel at fault, when the invariant is channel-local.
    pub channel: Option<ChannelId>,
    /// The cycle in which the invariant was violated. For one-cycle-delayed
    /// detections (persistence checks compare consecutive cycles) this is
    /// the cycle of the offending state, one before the detection cycle.
    pub cycle: u64,
    /// Human-readable diagnosis (channel names, signal values, wait-for
    /// analysis — whatever the monitor can say about *why*).
    pub details: String,
}

impl fmt::Display for MonitorViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {} violated at cycle {}", self.monitor, self.invariant, self.cycle)?;
        if let Some(channel) = self.channel {
            write!(f, " on channel {channel}")?;
        }
        if !self.details.is_empty() {
            write!(f, ": {}", self.details)?;
        }
        Ok(())
    }
}

/// A streaming invariant checker driven by the engine once per cycle.
///
/// `observe` receives the **settled** signals of the cycle (after fault
/// injection, before the clock edge is visible to the next cycle), indexed
/// densely in the netlist's `live_channels()` enumeration order — the same
/// order [`crate::Trace`] records. Implementations must be deterministic;
/// the first `Err` aborts the run fail-fast.
pub trait CycleMonitor: fmt::Debug + Send {
    /// Stable monitor name (the `monitor` field of any violation it emits).
    fn name(&self) -> &'static str;

    /// Checks one cycle's settled signals.
    ///
    /// # Errors
    ///
    /// The violation that aborts the run, if an invariant broke.
    fn observe(&mut self, cycle: u64, channels: &[ChannelState]) -> Result<(), MonitorViolation>;

    /// End-of-run check (completeness obligations that only make sense once
    /// the run is over, e.g. a reference stream that must be fully
    /// reproduced). The default does nothing.
    ///
    /// # Errors
    ///
    /// The violation that fails the run retrospectively.
    fn finish(&mut self, cycles: u64) -> Result<(), MonitorViolation> {
        let _ = cycles;
        Ok(())
    }

    /// Rewinds the monitor to its initial state so it can observe a fresh
    /// run (mirrors [`crate::Simulation::reset`]).
    fn reset(&mut self);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn violations_render_their_locus() {
        let violation = MonitorViolation {
            monitor: "protocol",
            invariant: "Retry+",
            channel: Some(ChannelId::new(3)),
            cycle: 17,
            details: "stopped token retracted".into(),
        };
        let text = violation.to_string();
        assert!(text.contains("protocol"));
        assert!(text.contains("Retry+"));
        assert!(text.contains("cycle 17"));
        assert!(text.contains("retracted"));

        let bare = MonitorViolation {
            monitor: "progress",
            invariant: "Progress",
            channel: None,
            cycle: 2,
            details: String::new(),
        };
        assert!(!bare.to_string().contains("channel"));
    }
}
