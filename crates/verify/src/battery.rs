//! The full verification battery for a transformation, in one call.
//!
//! The differential fuzzing harness of `elastic-gen` generates thousands of
//! netlist/transformation pairs; every pair must clear the same gauntlet the
//! hand-built paper scenarios clear in the unit tests: transfer equivalence
//! (Section 3.1), deadlock freedom and the scheduler leads-to property
//! (Section 4.1.1), token conservation through speculative shared modules
//! (Section 4.2) and the per-channel SELF protocol properties. This module
//! packages that gauntlet behind four harness entry points:
//!
//! * [`check_design`] — every single-design property (deadlock freedom,
//!   leads-to, conservation, protocol) read from **one traced run** of the
//!   design;
//! * [`check_transform_battery`] — everything at once for one
//!   reference/transformed pair: the two transfer-equivalence runs plus
//!   [`check_design`] on the transformed design, three simulations in all,
//!   with [`Verdict::notes`] recording which checks were vacuous for the
//!   design at hand (no shared modules → the conservation check has nothing
//!   to say, and a passed verdict must not pretend otherwise);
//! * [`check_equivalence_under_environments`] — transfer equivalence replayed
//!   under injected environment variations (source offer patterns and sink
//!   back-pressure patterns, matched to nodes by instance name), building
//!   **one simulation per design** and resetting it per variation via
//!   [`Simulation::reset_with_source_patterns`] /
//!   [`Simulation::reset_with_sink_patterns`];
//! * [`check_equivalence_across_schedulers`] — transfer equivalence of a
//!   speculative design for every given prediction policy (the paper's
//!   correctness claim quantifies over *all* schedulers satisfying leads-to;
//!   the scheduler may change performance, never the streams), injected via
//!   [`Simulation::reset_with_schedulers`] on a single build.

use std::collections::BTreeSet;

use elastic_core::kind::{BackpressurePattern, SourcePattern};
use elastic_core::{Netlist, NodeId, SchedulerKind};
use elastic_sim::{SimConfig, SimError, Simulation};

use crate::conservation::conservation_on_trace;
use crate::equivalence::{compare_transfer_streams, transfer_equivalent};
use crate::exploration::shared_modules_of;
use crate::liveness::{check_leads_to_on_trace, deadlock_freedom_on_run, LivenessOptions};
use crate::properties::{check_trace, ProtocolOptions};
use crate::Verdict;

/// Configuration of [`check_transform_battery`].
#[derive(Debug, Clone, PartialEq)]
pub struct BatteryOptions {
    /// Cycles simulated by the equivalence / conservation / protocol checks.
    pub cycles: u64,
    /// Options forwarded to the liveness checkers.
    pub liveness: LivenessOptions,
    /// Also check the per-channel SELF protocol properties on the transformed
    /// design's trace.
    pub check_protocol: bool,
}

impl Default for BatteryOptions {
    fn default() -> Self {
        BatteryOptions {
            cycles: 256,
            liveness: LivenessOptions { cycles: 256, ..LivenessOptions::default() },
            check_protocol: true,
        }
    }
}

/// The property verdicts of one design, all read from one traced run (see
/// [`check_design`]).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DesignVerdicts {
    /// Deadlock freedom over the first `liveness.cycles` cycles.
    pub deadlock_freedom: Verdict,
    /// The leads-to property over the first `liveness.cycles` cycles;
    /// `None` when the design has no shared module.
    pub leads_to: Option<Verdict>,
    /// Token conservation over the first `cycles` cycles; `None` when the
    /// design has no shared module.
    pub conservation: Option<Verdict>,
    /// The SELF protocol properties over the first `cycles` cycles; `None`
    /// unless [`BatteryOptions::check_protocol`] is set.
    pub protocol: Option<Verdict>,
}

/// Simulates a design once, traced, and returns its deadlock-freedom,
/// leads-to, token-conservation and protocol verdicts from that trace.
///
/// The run lasts the longer of `options.cycles` and
/// `options.liveness.cycles`. Each check reads the trace when the run
/// reaches its own length; the simulation is deterministic, so that prefix
/// is exactly the shorter run the check would make on its own.
///
/// The protocol check judges liveness with the liveness progress window: a
/// misprediction a static scheduler never corrects starves the losing user
/// for the shared module's starvation limit, and an inserted buffer
/// lengthens that wait past the protocol checker's default 64 cycles while
/// deadlock freedom still holds.
///
/// # Errors
///
/// Propagates simulation failures.
pub fn check_design(
    netlist: &Netlist,
    options: &BatteryOptions,
) -> Result<DesignVerdicts, SimError> {
    let shared = !shared_modules_of(netlist).is_empty();
    let protocol = ProtocolOptions {
        starvation_window: options.liveness.progress_window,
        ..ProtocolOptions::default()
    };
    let mut sim = Simulation::new(netlist, &SimConfig::default())?;
    let mut verdicts = DesignVerdicts::default();
    for length in BTreeSet::from([options.cycles, options.liveness.cycles]) {
        let report = sim.run(length - sim.cycle())?;
        let trace = sim.trace();
        if length == options.liveness.cycles {
            verdicts.deadlock_freedom =
                deadlock_freedom_on_run(netlist, trace, &report, &options.liveness);
            verdicts.leads_to =
                shared.then(|| check_leads_to_on_trace(netlist, trace, &options.liveness));
        }
        if length == options.cycles {
            verdicts.conservation = shared.then(|| conservation_on_trace(netlist, trace));
            verdicts.protocol =
                options.check_protocol.then(|| check_trace(netlist, trace, &protocol));
        }
    }
    Ok(verdicts)
}

/// Runs the full battery on one reference/transformed pair.
///
/// Checks, in order: transfer equivalence of the pair, then — from one
/// traced run of the transformed design ([`check_design`]) — its deadlock
/// freedom, the leads-to property and token conservation of every shared
/// module in it, and (optionally) the SELF protocol properties. Checks that
/// are vacuous for the design at hand — no shared module to conserve tokens
/// through — are recorded as coverage notes on the verdict instead of
/// silently counting as passed.
///
/// # Errors
///
/// Propagates simulation failures from either design (a transformed netlist
/// that no longer simulates is a finding, but of a different kind — callers
/// report it as a stage failure rather than a property violation).
pub fn check_transform_battery(
    reference: &Netlist,
    transformed: &Netlist,
    options: &BatteryOptions,
) -> Result<Verdict, SimError> {
    let mut verdict = transfer_equivalent(reference, transformed, options.cycles)?.verdict;
    let checks = check_design(transformed, options)?;
    verdict.merge(checks.deadlock_freedom);
    match (checks.leads_to, checks.conservation) {
        (Some(leads_to), Some(conservation)) => {
            verdict.merge(leads_to);
            verdict.merge(conservation);
        }
        _ => verdict.note("no shared modules in the transformed design — leads-to and token-conservation checks are vacuous"),
    }
    match checks.protocol {
        Some(protocol) => verdict.merge(protocol),
        None => verdict.note("SELF protocol properties not checked"),
    }
    Ok(verdict)
}

/// One environment variation: offer/back-pressure overrides matched by node
/// *instance name*, so the same variation applies to both designs of a pair
/// even though their node ids differ.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct EnvironmentOverride {
    /// Label used in violation messages.
    pub label: String,
    /// `(source name, offer pattern)` replacements.
    pub sources: Vec<(String, SourcePattern)>,
    /// `(sink name, back-pressure pattern)` replacements.
    pub sinks: Vec<(String, BackpressurePattern)>,
}

fn named_overrides<T: Clone>(netlist: &Netlist, by_name: &[(String, T)]) -> Vec<(NodeId, T)> {
    by_name
        .iter()
        .filter_map(|(name, value)| netlist.find_node(name).map(|node| (node.id, value.clone())))
        .collect()
}

/// Checks transfer equivalence of a pair under every given environment
/// variation, reusing one [`Simulation`] per design across all variations.
///
/// Because overrides persist across resets, every variation must (and, as
/// produced by `elastic-gen`, does) name all the environment nodes it cares
/// about; nodes named in one variation and not the next keep the previous
/// override, so harnesses should override the full environment each time.
///
/// # Errors
///
/// Propagates simulation failures from either design.
pub fn check_equivalence_under_environments(
    reference: &Netlist,
    transformed: &Netlist,
    overrides: &[EnvironmentOverride],
    cycles: u64,
) -> Result<Verdict, SimError> {
    let mut verdict = Verdict::default();
    if overrides.is_empty() {
        verdict.note("no environment variations were injected");
        return Ok(verdict);
    }

    let config = SimConfig { record_trace: false, ..SimConfig::default() };
    let mut reference_sim = Simulation::new(reference, &config)?;
    let mut transformed_sim = Simulation::new(transformed, &config)?;

    for variation in overrides {
        for (sim, netlist) in [(&mut reference_sim, reference), (&mut transformed_sim, transformed)]
        {
            let sources = named_overrides(netlist, &variation.sources);
            let sinks = named_overrides(netlist, &variation.sinks);
            // A name that resolves in neither design would let the sweep
            // "pass" without ever applying the intended environment — note
            // it so the verdict stops claiming exhaustiveness.
            let unresolved =
                (variation.sources.len() - sources.len()) + (variation.sinks.len() - sinks.len());
            if unresolved > 0 {
                verdict.note(format!(
                    "environment `{}`: {unresolved} override name(s) not found in `{}`",
                    variation.label,
                    netlist.name()
                ));
            }
            sim.reset_with_source_patterns(&sources);
            // The second reset keeps the source overrides (they persist) and
            // installs the sink patterns of this variation on top.
            sim.reset_with_sink_patterns(&sinks);
        }
        let reference_report = reference_sim.run(cycles)?;
        let transformed_report = transformed_sim.run(cycles)?;
        let report = compare_transfer_streams(
            reference,
            &reference_report,
            transformed,
            &transformed_report,
        );
        for violation in report.verdict.violations {
            verdict.reject(format!("environment `{}`: {violation}", variation.label));
        }
        verdict.notes.extend(report.verdict.notes);
    }
    Ok(verdict)
}

/// Checks that the transfer streams of `transformed` match `reference` for
/// every given scheduler, injected into all of its shared modules on a single
/// build via [`Simulation::reset_with_schedulers`].
///
/// # Errors
///
/// Propagates simulation failures from either design.
pub fn check_equivalence_across_schedulers(
    reference: &Netlist,
    transformed: &Netlist,
    schedulers: &[SchedulerKind],
    cycles: u64,
) -> Result<Verdict, SimError> {
    let mut verdict = Verdict::default();
    let shared = shared_modules_of(transformed);
    if shared.is_empty() {
        verdict.note("no shared modules — scheduler injection is vacuous");
        return Ok(verdict);
    }
    if schedulers.is_empty() {
        verdict.note("no schedulers were injected");
        return Ok(verdict);
    }

    let config = SimConfig { record_trace: false, ..SimConfig::default() };
    let reference_report = Simulation::new(reference, &config)?.run(cycles)?;
    let mut transformed_sim = Simulation::new(transformed, &config)?;

    for scheduler in schedulers {
        transformed_sim.reset_with_schedulers(
            shared
                .iter()
                .map(|&(node, users)| (node, elastic_predict::from_kind(scheduler, users)))
                .collect(),
        );
        let transformed_report = transformed_sim.run(cycles)?;
        let report = compare_transfer_streams(
            reference,
            &reference_report,
            transformed,
            &transformed_report,
        );
        for violation in report.verdict.violations {
            verdict.reject(format!("scheduler {scheduler:?}: {violation}"));
        }
        verdict.notes.extend(report.verdict.notes);
    }
    Ok(verdict)
}

#[cfg(test)]
mod tests {
    use super::*;
    use elastic_core::kind::DataStream;
    use elastic_core::library::{fig1a, Fig1Config};
    use elastic_core::transform::{speculate, SpeculateOptions};
    use elastic_core::NodeKind;

    fn config() -> Fig1Config {
        Fig1Config {
            src0_data: DataStream::List(vec![2, 9, 4, 7, 1, 8, 3, 6]),
            src1_data: DataStream::List(vec![5, 0, 3, 8, 6, 2, 9, 1]),
            ..Fig1Config::default()
        }
    }

    fn speculated() -> (Netlist, Netlist) {
        let original = fig1a(&config());
        let mut transformed = original.netlist.clone();
        speculate(&mut transformed, original.mux, &SpeculateOptions::default()).unwrap();
        (original.netlist, transformed)
    }

    #[test]
    fn the_battery_passes_on_the_fig1_speculation() {
        let (reference, transformed) = speculated();
        let verdict =
            check_transform_battery(&reference, &transformed, &BatteryOptions::default()).unwrap();
        assert!(verdict.passed(), "{verdict}");
        assert!(verdict.is_exhaustive(), "fig1d has shared modules; nothing is vacuous: {verdict}");
    }

    #[test]
    fn vacuous_checks_are_reported_as_notes() {
        let (reference, _) = speculated();
        let verdict =
            check_transform_battery(&reference, &reference, &BatteryOptions::default()).unwrap();
        assert!(verdict.passed(), "{verdict}");
        assert!(!verdict.is_exhaustive(), "no shared modules → conservation must be noted");
        assert!(verdict.to_string().contains("vacuous"));
    }

    #[test]
    fn each_design_verdict_equals_a_run_of_its_own_length() {
        use crate::conservation::check_shared_module_conservation;
        use crate::liveness::{check_deadlock_freedom, check_leads_to};
        use crate::properties::check_netlist_protocol;
        // The stalled sink wedges fig1d. No sink ever receives a token, but
        // only past 96 cycles do the progress window, leads-to and protocol
        // liveness fail too, so a verdict read at the wrong length shows.
        let netlist = crate::liveness::tests::stalled_sink_fig1d();
        let mut seen = Vec::new();
        for (cycles, liveness_cycles) in [(90, 200), (200, 90)] {
            let options = BatteryOptions {
                cycles,
                liveness: LivenessOptions { cycles: liveness_cycles, ..LivenessOptions::default() },
                check_protocol: true,
            };
            let protocol = ProtocolOptions {
                starvation_window: options.liveness.progress_window,
                ..ProtocolOptions::default()
            };
            let checks = check_design(&netlist, &options).unwrap();
            let alone = DesignVerdicts {
                deadlock_freedom: check_deadlock_freedom(&netlist, &options.liveness).unwrap(),
                leads_to: Some(check_leads_to(&netlist, &options.liveness).unwrap()),
                conservation: Some(check_shared_module_conservation(&netlist, cycles).unwrap()),
                protocol: Some(check_netlist_protocol(&netlist, cycles, &protocol).unwrap()),
            };
            assert_eq!(checks, alone, "cycles {cycles}, liveness cycles {liveness_cycles}");
            seen.push(checks);
        }
        let passed = |verdict: &Option<Verdict>| verdict.as_ref().is_some_and(Verdict::passed);
        assert_eq!(seen[0].deadlock_freedom.violations.len(), 2, "{:?}", seen[0]);
        assert_eq!(seen[1].deadlock_freedom.violations.len(), 1, "{:?}", seen[1]);
        assert!(!passed(&seen[0].leads_to) && passed(&seen[1].leads_to));
        assert!(passed(&seen[0].protocol) && !passed(&seen[1].protocol));
    }

    #[test]
    fn environment_injection_holds_equivalence_on_fig1() {
        let (reference, transformed) = speculated();
        let overrides = vec![
            EnvironmentOverride {
                label: "paced sources, stalling sink".into(),
                sources: vec![
                    ("src0".into(), SourcePattern::Every(2)),
                    ("src1".into(), SourcePattern::Always),
                ],
                sinks: vec![("sink".into(), BackpressurePattern::Every(3))],
            },
            EnvironmentOverride {
                label: "bursty".into(),
                sources: vec![
                    ("src0".into(), SourcePattern::List(vec![true, true, false])),
                    ("src1".into(), SourcePattern::Always),
                ],
                sinks: vec![("sink".into(), BackpressurePattern::Never)],
            },
        ];
        let verdict =
            check_equivalence_under_environments(&reference, &transformed, &overrides, 200)
                .unwrap();
        assert!(verdict.passed(), "{verdict}");
    }

    #[test]
    fn scheduler_injection_holds_equivalence_on_fig1() {
        let (reference, transformed) = speculated();
        let schedulers = [
            SchedulerKind::Static(0),
            SchedulerKind::Static(1),
            SchedulerKind::LastTaken,
            SchedulerKind::TwoBit,
            SchedulerKind::RoundRobin,
        ];
        let verdict =
            check_equivalence_across_schedulers(&reference, &transformed, &schedulers, 250)
                .unwrap();
        assert!(verdict.passed(), "{verdict}");
        // The reference design has no shared module, so running the injection
        // the other way round is vacuous and says so.
        let vacuous =
            check_equivalence_across_schedulers(&transformed, &reference, &schedulers, 50).unwrap();
        assert!(!vacuous.is_exhaustive());
    }

    #[test]
    fn a_broken_transformation_fails_the_battery() {
        // Sabotage: a "transformed" design whose F block silently increments
        // changes the streams; the battery must object.
        let (reference, _) = speculated();
        let original = fig1a(&config());
        let mut broken = original.netlist.clone();
        let f = broken.find_node("f").unwrap().id;
        if let Some(node) = broken.node_mut(f) {
            node.kind = NodeKind::Function(elastic_core::FunctionSpec::new(elastic_core::Op::Inc));
        }
        let verdict =
            check_transform_battery(&reference, &broken, &BatteryOptions::default()).unwrap();
        assert!(!verdict.passed());
    }
}
