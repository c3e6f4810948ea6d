//! # elastic-verify
//!
//! Dynamic verification of elastic netlists, reproducing the checks of the
//! paper's Section 4.2 ("all elastic controllers have been verified with
//! NuSMV … the absence of deadlocks has been verified for any scheduler that
//! complies with the leads-to property") in pure Rust:
//!
//! * [`properties`] — the four SELF channel properties of Section 3.1
//!   (`Retry+`, `Retry-`, `Liveness`, `Invariant`) checked on every channel
//!   of a recorded trace;
//! * [`equivalence`] — transfer equivalence between two designs: identical
//!   input streams must yield identical output transfer streams (Section
//!   3.1), the correctness criterion for every transformation in
//!   `elastic-core`;
//! * [`liveness`] — deadlock detection and the scheduler *leads-to* property
//!   of Section 4.1.1 (every token that reaches a shared module is eventually
//!   served or cancelled);
//! * [`conservation`] — token conservation through speculative shared
//!   modules: no token is lost, duplicated or reordered (the observable
//!   content of the paper's refinement proof of shared module ∘ EB against
//!   the EB specification);
//! * [`battery`] — the whole gauntlet behind one entry point per
//!   reference/transformed pair, plus environment- and scheduler-injection
//!   equivalence sweeps; this is what the `elastic-gen` differential fuzzing
//!   harness runs on every generated netlist and transformation. Its
//!   [`check_design`] reads every single-design property from one traced
//!   run, so the battery simulates the transformed design once;
//! * [`exploration`] — bounded exhaustive exploration of environment
//!   behaviour (all back-pressure/offer patterns up to a depth) plus
//!   randomized adversarial schedulers, the substitute for symbolic model
//!   checking described in `docs/ARCHITECTURE.md`;
//! * [`monitor`] — streaming, fail-fast runtime drivers of the same
//!   properties ([`monitor::ProtocolMonitor`], [`monitor::ProgressMonitor`],
//!   [`monitor::LeadsToMonitor`], plus the trace-less
//!   [`monitor::ScoreboardMonitor`]) that plug into
//!   [`elastic_sim::Simulation::run_monitored`] and stop a faulted run at
//!   the violating cycle with a `(channel, cycle, invariant)` locus — the
//!   detection layer of the fault-injection campaign in `elastic-gen`.
//!
//! Each runtime property — the four SELF channel rules, the sink-progress
//! window of deadlock freedom and the leads-to wait — has its per-cycle rule
//! written once, in a private `rules` module. The trace checkers of
//! [`properties`] and [`liveness`] walk recorded channel columns through it
//! and collect every violation; the monitors walk live cycle rows through
//! it and stop at the first; the exploration sweeps read the rail words of
//! their 64-lane runs through it, one bit per lane, and collect every
//! violation of every lane without recording a trace.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod battery;
pub mod conservation;
pub mod equivalence;
pub mod exploration;
pub mod liveness;
pub mod monitor;
pub mod properties;
mod rules;

pub use battery::{
    check_design, check_equivalence_across_schedulers, check_equivalence_under_environments,
    check_transform_battery, BatteryOptions, DesignVerdicts, EnvironmentOverride,
};
pub use equivalence::transfer_equivalent;
pub use liveness::{diagnose_deadlock, DeadlockDiagnosis, WaitEdge, WaitReason};
pub use monitor::{
    standard_monitors, LeadsToMonitor, MonitorOptions, ProgressMonitor, ProtocolMonitor,
    ScoreboardMonitor,
};
pub use properties::{check_netlist_protocol, ProtocolViolation};

/// The outcome of a verification pass: either everything held, or a list of
/// human-readable violation descriptions — plus *notes* qualifying how much
/// was actually checked.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Verdict {
    /// Descriptions of every violated property (empty = pass).
    pub violations: Vec<String>,
    /// Coverage caveats that do **not** fail the verdict but qualify it —
    /// e.g. the bounded exploration truncating its enumeration. A verdict
    /// with notes passed *what was checked*, not everything there was to
    /// check; see [`Verdict::is_exhaustive`].
    pub notes: Vec<String>,
}

impl Verdict {
    /// `true` when no property was violated (coverage notes do not fail a
    /// verdict — check [`Verdict::is_exhaustive`] for that).
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }

    /// `true` when the pass carried no coverage caveats: a passed *and*
    /// exhaustive verdict is the strongest statement the checkers make.
    pub fn is_exhaustive(&self) -> bool {
        self.notes.is_empty()
    }

    /// Merges another verdict (violations and notes) into this one.
    pub fn merge(&mut self, other: Verdict) {
        self.violations.extend(other.violations);
        self.notes.extend(other.notes);
    }

    /// Adds a violation.
    pub fn reject(&mut self, description: impl Into<String>) {
        self.violations.push(description.into());
    }

    /// Adds a coverage note (does not affect [`Verdict::passed`]).
    pub fn note(&mut self, description: impl Into<String>) {
        self.notes.push(description.into());
    }
}

impl std::fmt::Display for Verdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.passed() {
            write!(f, "all checked properties hold")?;
        } else {
            write!(f, "{} violation(s): {}", self.violations.len(), self.violations.join("; "))?;
        }
        if !self.notes.is_empty() {
            write!(f, " [{} note(s): {}]", self.notes.len(), self.notes.join("; "))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_accumulate_violations() {
        let mut verdict = Verdict::default();
        assert!(verdict.passed());
        assert_eq!(verdict.to_string(), "all checked properties hold");
        verdict.reject("channel c1 lost a token");
        let mut other = Verdict::default();
        other.reject("deadlock at cycle 7");
        verdict.merge(other);
        assert!(!verdict.passed());
        assert_eq!(verdict.violations.len(), 2);
        assert!(verdict.to_string().contains("deadlock"));
    }

    #[test]
    fn notes_qualify_but_do_not_fail_a_verdict() {
        let mut verdict = Verdict::default();
        assert!(verdict.is_exhaustive());
        verdict.note("coverage truncated: explored 8 of 1024 combinations");
        assert!(verdict.passed(), "notes must not fail a verdict");
        assert!(!verdict.is_exhaustive());
        assert!(verdict.to_string().contains("coverage truncated"));

        let mut merged = Verdict::default();
        merged.merge(verdict);
        assert!(!merged.is_exhaustive(), "merge must carry notes along");
    }
}
