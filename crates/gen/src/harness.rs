//! The differential fuzzing harness: one generated netlist in, a verdict (or
//! a shrinkable failure) out.
//!
//! Every case runs the same gauntlet the hand-built paper scenarios face in
//! the unit tests, but on arbitrary generated structures:
//!
//! 1. **structural validation** — a generated netlist that fails
//!    `validate()` is a generator bug, reported as its own stage;
//! 2. **engine differential** — the event-driven worklist engine against the
//!    [`SettleStrategy::FullSweep`] oracle, cycle for cycle: bit-identical
//!    traces, identical sink streams and shared-module and commit-stage
//!    statistics; with
//!    [`HarnessOptions::lane_differential`] set (the `ELASTIC_FUZZ_LANES`
//!    smoke leg), the 64-lane bit-parallel engine joins the differential —
//!    all broadcast lanes must match the scalar run bit-for-bit; with
//!    [`HarnessOptions::compiled_differential`] set (the
//!    `ELASTIC_FUZZ_COMPILED` smoke leg), the compiled settle backend
//!    ([`SettleStrategy::Compiled`]) joins too;
//! 3. **base-design properties** — deadlock freedom, the shared-module
//!    leads-to property, token conservation and the per-channel SELF
//!    protocol checks on the untransformed design, all read from one traced
//!    run ([`elastic_verify::check_design`]);
//! 4. **transform equivalence** — every applicable transformation
//!    (`insert_bubble`, buffer insertion/`split_empty_buffer`,
//!    `make_zero_backward`, retiming, and the composite `speculate` pass on
//!    every eligible mux — select loops *and* feed-forward muxes) is
//!    applied to a clone and checked behaviorally equivalent, live and
//!    token-conserving versus the original via
//!    [`elastic_verify::battery`]; speculated designs are additionally
//!    swept across schedulers and injected environment variations, and
//!    structural transforms get their own environment-injection sweep, all
//!    on one simulation build per design. Injected environments respect
//!    each node's declared liveness contract (see
//!    `environment_variations` in the source).
//!
//! A failure carries the offending netlist; [`shrink_failure`] replays the
//! failing stage while [`crate::shrink`] minimizes the netlist, and the
//! resulting [`Reproducer`] serializes as a runnable Rust snippet.

use std::time::{Duration, Instant};

use elastic_core::kind::{BackpressurePattern, NodeKind, SourcePattern};
use elastic_core::transform::{
    find_select_cycles, insert_bubble, insert_buffer_on_channel, make_zero_backward,
    retime_backward, retime_forward, speculate, split_empty_buffer, SpeculateOptions,
};
use elastic_core::{BufferSpec, CoreError, Netlist, NodeId, SchedulerKind};
use elastic_explore::{dominates, explore, ExploreOptions};
use elastic_sim::{
    LaneConfig, LaneSimulation, SettleStrategy, SimConfig, SimError, Simulation, Trace, LANES,
};
use elastic_verify::battery::{
    check_design, check_equivalence_across_schedulers, check_equivalence_under_environments,
    check_transform_battery, BatteryOptions, EnvironmentOverride,
};
use elastic_verify::liveness::LivenessOptions;
use elastic_verify::Verdict;

use crate::generate::{generate, GenConfig, GeneratedNetlist};
use crate::rng::GenRng;
use crate::shrink::{shrink_netlist, ShrinkOptions};
use crate::snippet::to_rust_snippet;

/// Configuration of one harness run.
#[derive(Debug, Clone, PartialEq)]
pub struct HarnessOptions {
    /// Cycles simulated per check.
    pub cycles: u64,
    /// Environment variations injected per speculated design (0 disables the
    /// injection sweep).
    pub environment_variations: usize,
    /// Environment variations injected per *structural* (non-speculation)
    /// transform — retiming, buffer insertion and friends previously only
    /// ran under the generated design's own environments; a variation here
    /// replays their equivalence check under perturbed source offer and
    /// sink back-pressure patterns too (0 disables).
    pub structural_environment_variations: usize,
    /// Maximum number of structural (non-speculation) transforms per case.
    pub max_structural_transforms: usize,
    /// Schedulers injected into speculated designs.
    pub schedulers: Vec<SchedulerKind>,
    /// Maximum commit-stage depth injected into speculations (the per-case
    /// rng draws a depth in `1..=max_commit_depth` for every speculated mux,
    /// so the multi-entry lane paths — several in-flight wrong-path results
    /// squashing in sequence, zero-backward acceptance on a full deep lane —
    /// are soaked alongside the classic depth-1 configuration). 1 restores
    /// the pre-sweep behaviour.
    pub max_commit_depth: u32,
    /// Wall-clock watchdog per case: `run_netlist` checks the elapsed time
    /// between stages (and between transforms) and fails the case at stage
    /// `watchdog` instead of letting a pathological netlist hang the whole
    /// fuzzing sweep. Stage granularity keeps the check free of threads or
    /// signals; a single stage that hangs *inside* the simulator is caught
    /// by the engine's own oscillation/settle guards.
    pub case_deadline: Duration,
    /// Also run the 64-lane bit-parallel engine against the scalar engine
    /// on every case ([`lanes_agree`]): all 64 broadcast lanes must
    /// reproduce the scalar trace and report bit-for-bit. Off by default
    /// (the scalar differential already runs twice per case); the fuzz
    /// smoke test switches it on via `ELASTIC_FUZZ_LANES`.
    pub lane_differential: bool,
    /// Also run the compiled settle backend against the event-driven engine
    /// on every case ([`compiled_agrees`]): the fused micro-op plan must
    /// reproduce the worklist engine bit-for-bit. Off by default for the
    /// same reason as the lane leg; the fuzz smoke test switches it on via
    /// `ELASTIC_FUZZ_COMPILED`.
    pub compiled_differential: bool,
    /// Also run the auto-speculation design-space explorer
    /// ([`elastic_explore::explore`]) on every case and hold it to its three
    /// contracts: every front config re-applies cleanly on a fresh clone and
    /// passes the transform battery; the front is non-dominated and
    /// invariant under worker count and candidate enumeration order; and
    /// scores reproduce bit-for-bit from the seed. Off by default (the stage
    /// runs the search four times per case); the fuzz smoke test switches it
    /// on via `ELASTIC_FUZZ_EXPLORE`.
    pub explorer_soundness: bool,
}

impl Default for HarnessOptions {
    fn default() -> Self {
        HarnessOptions {
            cycles: 192,
            environment_variations: 2,
            structural_environment_variations: 1,
            // The catalogue emits at most 7 structural entries (three
            // channel insertions, split_empty_buffer, make_zero_backward,
            // two retimings) in a fixed order; the cap must not silently
            // truncate the tail or the retime transforms would never be
            // fuzzed on buffer-bearing netlists.
            max_structural_transforms: 8,
            schedulers: vec![
                SchedulerKind::Static(0),
                SchedulerKind::Static(1),
                SchedulerKind::LastTaken,
                SchedulerKind::TwoBit,
            ],
            max_commit_depth: 4,
            case_deadline: Duration::from_secs(30),
            lane_differential: false,
            compiled_differential: false,
            explorer_soundness: false,
        }
    }
}

impl HarnessOptions {
    fn battery(&self) -> BatteryOptions {
        BatteryOptions {
            cycles: self.cycles,
            liveness: LivenessOptions {
                cycles: self.cycles,
                progress_window: 96,
                leads_to_horizon: 96,
            },
            check_protocol: true,
        }
    }

    /// The (deliberately small) explorer configuration of the
    /// `explorer_soundness` stage. `verify` stays off inside the search
    /// because the stage re-applies every front config itself and runs the
    /// battery on the fresh clone — that checks the *returned configuration*
    /// is self-contained, not just the netlist the search happened to hold —
    /// and because the three determinism re-runs would otherwise pay for the
    /// battery four times over.
    fn explorer(&self, seed: u64) -> ExploreOptions {
        ExploreOptions {
            depths: vec![1, 2],
            schedulers: vec![
                SchedulerKind::Static(0),
                SchedulerKind::LastTaken,
                SchedulerKind::Confidence { max_confidence: 2 },
            ],
            cycles: self.cycles,
            short_cycles: (self.cycles / 3).max(16),
            environments: 2,
            seed,
            verify: false,
            ..ExploreOptions::default()
        }
    }
}

/// A passed case: what was checked.
#[derive(Debug, Clone, Default)]
pub struct CaseReport {
    /// The case seed.
    pub seed: u64,
    /// Names of the transformations that were applied and verified.
    pub transforms: Vec<String>,
    /// Coverage notes accumulated across all checks (vacuous checks,
    /// transforms skipped because their preconditions did not hold, …).
    pub notes: Vec<String>,
}

/// A failed case: which stage failed, on which netlist.
#[derive(Debug, Clone)]
pub struct CaseFailure {
    /// The case seed (drives the rng-dependent harness decisions on replay).
    pub seed: u64,
    /// The failing stage.
    pub stage: &'static str,
    /// Name of the offending transformation, for transform-stage failures.
    pub transform: Option<String>,
    /// Human-readable description of the violation.
    pub details: String,
    /// The (untransformed) netlist exhibiting the failure.
    pub netlist: Netlist,
}

impl std::fmt::Display for CaseFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "seed {:#018x}, stage `{}`", self.seed, self.stage)?;
        if let Some(transform) = &self.transform {
            write!(f, ", transform `{transform}`")?;
        }
        write!(f, ": {}", self.details)
    }
}

/// A shrunk, serializable reproducer.
#[derive(Debug, Clone)]
pub struct Reproducer {
    /// The minimized netlist.
    pub netlist: Netlist,
    /// Runnable Rust fragment rebuilding [`Reproducer::netlist`].
    pub snippet: String,
    /// The failure the reproducer still exhibits.
    pub stage: &'static str,
}

/// Runs the event-driven engine against the full-sweep oracle.
///
/// # Errors
///
/// Returns a description of the first observed divergence (or simulation
/// error).
pub fn engines_agree(netlist: &Netlist, cycles: u64) -> Result<(), String> {
    strategies_agree(netlist, cycles, SettleStrategy::FullSweep, "worklist", "full-sweep")
}

/// Runs the event-driven engine against the compiled settle backend
/// ([`SettleStrategy::Compiled`]): the fused micro-op plan must reproduce
/// the worklist engine's trace and report bit-for-bit — including on
/// netlists with lazy forks, where the compiled strategy transparently
/// falls back to the event-driven settle.
///
/// # Errors
///
/// Returns a description of the first observed divergence (or simulation
/// error).
pub fn compiled_agrees(netlist: &Netlist, cycles: u64) -> Result<(), String> {
    strategies_agree(netlist, cycles, SettleStrategy::Compiled, "worklist", "compiled")
}

fn strategies_agree(
    netlist: &Netlist,
    cycles: u64,
    candidate: SettleStrategy,
    reference_name: &str,
    candidate_name: &str,
) -> Result<(), String> {
    let run = |strategy: SettleStrategy| {
        let config = SimConfig { settle: strategy, ..SimConfig::default() };
        let mut sim = Simulation::new(netlist, &config)
            .map_err(|error| format!("{strategy:?} build failed: {error}"))?;
        let report =
            sim.run(cycles).map_err(|error| format!("{strategy:?} run failed: {error}"))?;
        Ok::<_, String>((sim, report))
    };
    let (event_sim, event_report) = run(SettleStrategy::EventDriven)?;
    let (sweep_sim, sweep_report) = run(candidate)?;

    if event_sim.trace() != sweep_sim.trace() {
        let divergence = first_divergence(event_sim.trace(), sweep_sim.trace());
        return Err(format!(
            "{reference_name} and {candidate_name} traces diverge at cycle {divergence} of \
             {cycles}"
        ));
    }
    if let Some(field) = event_report.behavioural_difference(&sweep_report) {
        return Err(format!(
            "{field} differ between the {reference_name} and {candidate_name} engines"
        ));
    }
    Ok(())
}

/// The first cycle at which `observed` records other channel states than
/// `reference` (0 when the two differ only in length).
fn first_divergence(reference: &Trace, observed: &Trace) -> usize {
    (0..reference.len())
        .find(|&cycle| {
            let expected: Option<Vec<_>> = reference.states_at(cycle).map(|s| s.collect());
            expected != observed.states_at(cycle).map(|s| s.collect())
        })
        .unwrap_or(0)
}

/// Runs the scalar event-driven engine against the 64-lane bit-parallel
/// engine in broadcast mode: every lane sees the same environment, so all
/// 64 lanes must reproduce the scalar trace bit-for-bit, and lane 0 the
/// scalar report — the lane-0 identity contract of [`elastic_sim::lanes`],
/// checked here on arbitrary generated structures instead of the
/// hand-built paper designs.
///
/// # Errors
///
/// Returns a description of the first observed divergence (or simulation
/// error).
pub fn lanes_agree(netlist: &Netlist, cycles: u64) -> Result<(), String> {
    let mut scalar = Simulation::new(netlist, &SimConfig::default())
        .map_err(|error| format!("scalar build failed: {error}"))?;
    let scalar_report =
        scalar.run(cycles).map_err(|error| format!("scalar run failed: {error}"))?;

    let mut lanes = LaneSimulation::new(netlist, &LaneConfig::default())
        .map_err(|error| format!("lane build failed: {error}"))?;
    lanes.run(cycles).map_err(|error| format!("lane run failed: {error}"))?;

    if let Some(lane) = (0..LANES).find(|&lane| lanes.trace(lane) != scalar.trace()) {
        let divergence = first_divergence(scalar.trace(), lanes.trace(lane));
        return Err(format!(
            "lane-{lane} trace diverges from the scalar engine at cycle {divergence} of {cycles}"
        ));
    }
    if let Some(field) = lanes.report(0).behavioural_difference(&scalar_report) {
        return Err(format!("lane-0 {field} differ from the scalar engine"));
    }
    Ok(())
}

/// The kind-and-site name of one transformation attempt, e.g.
/// `"speculate(lmux)"`. The kind prefix (up to the parenthesis) is what
/// failure replay matches on, because sites shift while shrinking.
fn transform_kind(name: &str) -> &str {
    name.split('(').next().unwrap_or(name)
}

/// A boxed transformation application, named for failure reports.
type TransformFn = Box<dyn Fn(&mut Netlist) -> Result<(), CoreError>>;

struct TransformCase {
    name: String,
    apply: TransformFn,
}

/// Builds the transformation catalogue for one netlist, deterministically
/// from the case seed. Sites are chosen by the rng; transformations whose
/// preconditions fail at apply time are skipped with a note.
fn transform_catalogue(
    netlist: &Netlist,
    rng: &mut GenRng,
    options: &HarnessOptions,
) -> Vec<TransformCase> {
    let mut catalogue: Vec<TransformCase> = Vec::new();

    // Speculation on every mux that sits on a select cycle; `allow_acyclic`
    // on feed-forward muxes whose shape supports it (the precondition check
    // inside `speculate` rejects the rest — those become skip notes).
    for node in netlist.live_nodes() {
        let NodeKind::Mux(spec) = &node.kind else { continue };
        if spec.early_eval {
            continue;
        }
        let mux = node.id;
        let on_cycle = find_select_cycles(netlist, mux).map(|c| !c.is_empty()).unwrap_or(false);
        let scheduler = options
            .schedulers
            .get(rng.below(options.schedulers.len().max(1) as u64) as usize)
            .cloned()
            .unwrap_or_default();
        let with_recovery = rng.chance(0.5);
        let commit_depth = rng.range(1, u64::from(options.max_commit_depth.max(1))) as u32;
        let speculate_options = SpeculateOptions {
            scheduler,
            recovery_buffer: with_recovery.then(|| BufferSpec::zero_backward(0)),
            starvation_limit: Some(8),
            allow_acyclic: !on_cycle,
            commit_depth,
            ..SpeculateOptions::default()
        };
        // The depth only materialises on feed-forward muxes (select loops
        // skip the commit stage), but drawing it unconditionally keeps the
        // per-seed rng stream independent of the cycle classification.
        let label = if on_cycle { "speculate" } else { "speculate_acyclic" };
        catalogue.push(TransformCase {
            name: if on_cycle {
                format!("{label}({})", node.name)
            } else {
                format!("{label}({},d{commit_depth})", node.name)
            },
            apply: Box::new(move |n: &mut Netlist| {
                speculate(n, mux, &speculate_options).map(|_| ())
            }),
        });
    }

    // Structural transforms on rng-chosen sites.
    let channels: Vec<_> = netlist.live_channels().map(|c| (c.id, c.name.clone())).collect();
    let empty_standard_buffers: Vec<NodeId> = netlist
        .live_nodes()
        .filter(|n| {
            matches!(&n.kind, NodeKind::Buffer(spec)
                if spec.init_tokens == 0 && spec.backward_latency >= 1)
        })
        .map(|n| n.id)
        .collect();
    let zeroable_buffers: Vec<NodeId> = netlist
        .live_nodes()
        .filter(|n| {
            // `make_zero_backward` keeps the token count but drops the init
            // value, so only buffers whose initial data is 0 stay equivalent.
            matches!(&n.kind, NodeKind::Buffer(spec)
                if (0..=1).contains(&spec.init_tokens) && spec.init_value == 0)
        })
        .map(|n| n.id)
        .collect();
    // Retiming accepts both function blocks and muxes; include both so the
    // mux arms of the retime side conditions stay fuzzed.
    let retimable_blocks: Vec<NodeId> = netlist
        .live_nodes()
        .filter(|n| matches!(n.kind, NodeKind::Function(_) | NodeKind::Mux(_)))
        .map(|n| n.id)
        .collect();

    let mut structural: Vec<TransformCase> = Vec::new();
    if !channels.is_empty() {
        for _ in 0..2 {
            let (channel, name) = rng.pick(&channels).clone();
            structural.push(TransformCase {
                name: format!("insert_bubble({name})"),
                apply: Box::new(move |n: &mut Netlist| insert_bubble(n, channel).map(|_| ())),
            });
        }
        let (channel, name) = rng.pick(&channels).clone();
        structural.push(TransformCase {
            name: format!("insert_zero_backward({name})"),
            apply: Box::new(move |n: &mut Netlist| {
                insert_buffer_on_channel(n, channel, BufferSpec::zero_backward(0)).map(|_| ())
            }),
        });
    }
    if !empty_standard_buffers.is_empty() {
        let buffer = *rng.pick(&empty_standard_buffers);
        structural.push(TransformCase {
            name: format!("split_empty_buffer({buffer})"),
            apply: Box::new(move |n: &mut Netlist| split_empty_buffer(n, buffer).map(|_| ())),
        });
    }
    if !zeroable_buffers.is_empty() {
        let buffer = *rng.pick(&zeroable_buffers);
        structural.push(TransformCase {
            name: format!("make_zero_backward({buffer})"),
            apply: Box::new(move |n: &mut Netlist| make_zero_backward(n, buffer).map(|_| ())),
        });
    }
    if !retimable_blocks.is_empty() {
        let block = *rng.pick(&retimable_blocks);
        structural.push(TransformCase {
            name: format!("retime_backward({block})"),
            apply: Box::new(move |n: &mut Netlist| retime_backward(n, block).map(|_| ())),
        });
        let block = *rng.pick(&retimable_blocks);
        structural.push(TransformCase {
            name: format!("retime_forward({block})"),
            apply: Box::new(move |n: &mut Netlist| retime_forward(n, block).map(|_| ())),
        });
    }
    structural.truncate(options.max_structural_transforms);
    catalogue.extend(structural);
    catalogue
}

/// Environment variations for the injection sweep, derived from the
/// netlist's environment nodes and the case rng. Every variation overrides
/// *all* sources and sinks (overrides persist across resets, so partial
/// variations would leak into each other).
///
/// Variations respect each environment's **declared contract**: a sink
/// whose specification promises never to stall keeps that promise, and a
/// source that promises a token every cycle keeps offering. The contracts
/// are load-bearing — the retraction-domain analysis classifies fork
/// stallability from them when placing isolation buffers (Figure 7(b)'s
/// cone is only non-stallable because its observer never back-pressures),
/// so an injection that broke a declared contract would be testing a
/// different design, not a different environment.
fn environment_variations(
    netlist: &Netlist,
    rng: &mut GenRng,
    count: usize,
) -> Vec<EnvironmentOverride> {
    let sources: Vec<(String, bool)> = netlist
        .live_nodes()
        .filter_map(|n| match &n.kind {
            NodeKind::Source(spec) => {
                Some((n.name.clone(), matches!(spec.pattern, SourcePattern::Always)))
            }
            _ => None,
        })
        .collect();
    let sinks: Vec<(String, bool)> = netlist
        .live_nodes()
        .filter_map(|n| match &n.kind {
            NodeKind::Sink(spec) => Some((
                n.name.clone(),
                // Semantic contract, matching the retraction-domain
                // analysis: a List of all-false or probability-0 Random
                // never stalls even though it is not spelled `Never`.
                !elastic_core::transform::backpressure_may_stall(&spec.backpressure),
            )),
            _ => None,
        })
        .collect();
    (0..count)
        .map(|index| EnvironmentOverride {
            label: format!("variation {index}"),
            sources: sources
                .iter()
                .map(|(name, always)| {
                    let pattern = match rng.below(3) {
                        _ if *always => SourcePattern::Always,
                        0 => SourcePattern::Always,
                        1 => SourcePattern::Every(rng.range(2, 3) as u32),
                        _ => SourcePattern::List(vec![true, rng.chance(0.5), true]),
                    };
                    (name.clone(), pattern)
                })
                .collect(),
            sinks: sinks
                .iter()
                .map(|(name, never_stalls)| {
                    let pattern = match rng.below(3) {
                        _ if *never_stalls => BackpressurePattern::Never,
                        0 => BackpressurePattern::Never,
                        1 => BackpressurePattern::Every(rng.range(2, 4) as u32),
                        _ => BackpressurePattern::List(vec![rng.chance(0.5), false]),
                    };
                    (name.clone(), pattern)
                })
                .collect(),
        })
        .collect()
}

/// Runs the full gauntlet on one netlist.
///
/// `seed` drives every rng-dependent harness decision (transform sites,
/// injected environments), so a failure replays deterministically on the
/// same netlist — and on its shrunken descendants.
///
/// # Errors
///
/// Returns the first [`CaseFailure`] encountered. (The error variant
/// deliberately carries the whole offending netlist — it is the input to
/// shrinking — and failures are cold, so the large-`Err` lint is waived.)
#[allow(clippy::result_large_err)]
pub fn run_netlist(
    netlist: &Netlist,
    seed: u64,
    options: &HarnessOptions,
) -> Result<CaseReport, CaseFailure> {
    let fail = |stage: &'static str, transform: Option<String>, details: String| CaseFailure {
        seed,
        stage,
        transform,
        details,
        netlist: netlist.clone(),
    };
    let started = Instant::now();
    let watchdog = |after: &'static str| {
        let elapsed = started.elapsed();
        if elapsed > options.case_deadline {
            Err(fail(
                "watchdog",
                None,
                format!(
                    "case exceeded its {:?} wall-clock deadline after the `{after}` stage \
                     ({elapsed:?} elapsed)",
                    options.case_deadline
                ),
            ))
        } else {
            Ok(())
        }
    };

    if let Err(error) = netlist.validate() {
        return Err(fail("validate", None, error.to_string()));
    }

    engines_agree(netlist, options.cycles)
        .map_err(|details| fail("engine-differential", None, details))?;
    watchdog("engine-differential")?;

    if options.lane_differential {
        lanes_agree(netlist, options.cycles)
            .map_err(|details| fail("lane-differential", None, details))?;
        watchdog("lane-differential")?;
    }

    if options.compiled_differential {
        compiled_agrees(netlist, options.cycles)
            .map_err(|details| fail("compiled-differential", None, details))?;
        watchdog("compiled-differential")?;
    }

    let mut report = CaseReport { seed, ..CaseReport::default() };

    // Base-design properties, all read from one traced run.
    let battery = options.battery();
    let base = check_design(netlist, &battery)
        .map_err(|error| fail("base-liveness", None, error.to_string()))?;
    for (stage, verdict) in [
        ("base-liveness", Some(base.deadlock_freedom)),
        ("base-liveness", base.leads_to),
        ("base-conservation", base.conservation),
        ("base-protocol", base.protocol),
    ] {
        let Some(verdict) = verdict else { continue };
        if !verdict.passed() {
            return Err(fail(stage, None, verdict.to_string()));
        }
        report.notes.extend(verdict.notes);
    }

    watchdog("base-properties")?;

    // Transformations.
    let mut rng = GenRng::new(seed ^ 0x7A61_D5A2_27F3_90C1);
    for case in transform_catalogue(netlist, &mut rng, options) {
        watchdog("transform")?;
        let mut transformed = netlist.clone();
        match (case.apply)(&mut transformed) {
            Ok(()) => {}
            Err(CoreError::Precondition { reason, .. }) => {
                report.notes.push(format!("skipped {}: {reason}", case.name));
                continue;
            }
            Err(error) => {
                return Err(fail("transform-apply", Some(case.name), error.to_string()));
            }
        }
        if let Err(error) = transformed.validate() {
            return Err(fail(
                "transform-validate",
                Some(case.name),
                format!("transformed netlist no longer validates: {error}"),
            ));
        }

        let failed = |(stage, details)| fail(stage, Some(case.name.clone()), details);
        let verdict = check_transform_battery(netlist, &transformed, &battery);
        report.notes.extend(
            gate(verdict, "transform-equivalence", "transform-simulation").map_err(failed)?,
        );

        // Environment injection for structural transforms: equivalence must
        // survive perturbed offer/back-pressure patterns, not just the
        // generated design's own environments. Speculated cases get their
        // environment and scheduler sweeps below.
        let speculated = transform_kind(&case.name).starts_with("speculate");
        if !speculated && options.structural_environment_variations > 0 {
            let variations = environment_variations(
                netlist,
                &mut rng,
                options.structural_environment_variations,
            );
            let verdict = check_equivalence_under_environments(
                netlist,
                &transformed,
                &variations,
                options.cycles,
            );
            report.notes.extend(
                gate(verdict, "transform-environment-sweep", "transform-simulation")
                    .map_err(failed)?,
            );
        }

        // Injection sweeps for speculated designs.
        if speculated {
            let verdict = check_equivalence_across_schedulers(
                netlist,
                &transformed,
                &options.schedulers,
                options.cycles,
            );
            report.notes.extend(
                gate(verdict, "transform-scheduler-sweep", "transform-simulation")
                    .map_err(failed)?,
            );
            let variations =
                environment_variations(netlist, &mut rng, options.environment_variations);
            let verdict = check_equivalence_under_environments(
                netlist,
                &transformed,
                &variations,
                options.cycles,
            );
            report.notes.extend(
                gate(verdict, "transform-environment-sweep", "transform-simulation")
                    .map_err(failed)?,
            );
        }
        report.transforms.push(case.name);
    }

    // Explorer soundness (the `ELASTIC_FUZZ_EXPLORE` leg): run the
    // design-space explorer on the generated netlist and hold it to its
    // contracts on arbitrary structures, not just the hand-built scenarios.
    if options.explorer_soundness {
        watchdog("transforms")?;
        let explorer = options.explorer(seed);
        let run_search = |explorer: &ExploreOptions| {
            explore(netlist, explorer)
                .map_err(|error| fail("explorer-search", None, error.to_string()))
        };
        let search = run_search(&explorer)?;
        watchdog("explorer-search")?;

        // No silent truncation: the report must account for the whole grid.
        if search.accounted() != search.candidates_enumerated {
            return Err(fail(
                "explorer-accounting",
                None,
                format!(
                    "{} candidates enumerated but {} accounted for (front {}, dominated {}, \
                     skipped {}, pruned {})",
                    search.candidates_enumerated,
                    search.accounted(),
                    search.front.len(),
                    search.dominated.len(),
                    search.skipped.len(),
                    search.pruned.total()
                ),
            ));
        }

        // (b) the front is actually non-dominated: no scored point — front
        // or dominated — beats a front member.
        for point in &search.front {
            if let Some(beater) = search
                .front
                .iter()
                .chain(search.dominated.iter())
                .find(|other| dominates(other, point))
            {
                return Err(fail(
                    "explorer-front-dominated",
                    Some(point.config.label()),
                    format!("front member is dominated by {}", beater.config.label()),
                ));
            }
        }

        // (a) every returned config re-applies cleanly on a fresh clone and
        // the re-applied design passes the full transform battery.
        for point in &search.front {
            let mut transformed = netlist.clone();
            if let Err(error) = point.config.apply(&mut transformed) {
                return Err(fail(
                    "explorer-reapply",
                    Some(point.config.label()),
                    format!("front config did not re-apply: {error}"),
                ));
            }
            if let Err(error) = transformed.validate() {
                return Err(fail(
                    "explorer-reapply",
                    Some(point.config.label()),
                    format!("re-applied netlist no longer validates: {error}"),
                ));
            }
            let verdict = check_transform_battery(netlist, &transformed, &battery);
            report.notes.extend(
                gate(verdict, "explorer-front-battery", "explorer-front-battery")
                    .map_err(|(stage, details)| fail(stage, Some(point.config.label()), details))?,
            );
            watchdog("explorer-front-battery")?;
        }

        // (b) continued: the report is invariant under worker count and
        // candidate enumeration order.
        let single_threaded = run_search(&ExploreOptions { sequential: true, ..explorer.clone() })?;
        if single_threaded != search {
            return Err(fail(
                "explorer-determinism",
                None,
                "the single-threaded search disagrees with the parallel one".to_string(),
            ));
        }
        watchdog("explorer-determinism")?;
        let shuffled = run_search(&ExploreOptions {
            shuffle_seed: Some(seed ^ 0x0EDE_5EED),
            ..explorer.clone()
        })?;
        if shuffled != search {
            return Err(fail(
                "explorer-determinism",
                None,
                "shuffling the candidate enumeration order changed the report".to_string(),
            ));
        }
        watchdog("explorer-determinism")?;

        // (c) scores are reproducible bit-for-bit from the seed (PartialEq
        // on the report compares every f64 exactly).
        let replay = run_search(&explorer)?;
        if replay != search {
            return Err(fail(
                "explorer-reproducibility",
                None,
                "two identical searches disagree: scores are not a pure function of the seed"
                    .to_string(),
            ));
        }
        watchdog("explorer-reproducibility")?;

        // Rejected candidates surface as skips, like any other transform
        // the harness could not run; the search summary rides the notes.
        for skip in &search.skipped {
            report.notes.push(format!("explorer skipped {}: {}", skip.config.label(), skip.reason));
        }
        report.notes.extend(search.notes.iter().map(|note| format!("explorer: {note}")));
        report.transforms.push(format!("explore ({} on the front)", search.front.len()));
    }

    Ok(report)
}

/// Gates one verdict-producing check of [`run_netlist`]: a passed verdict
/// yields its notes for the case report, a violated one fails at
/// `check_stage`, and a simulation error fails at `simulation_stage`, each
/// as `(stage, details)`.
fn gate(
    result: Result<Verdict, SimError>,
    check_stage: &'static str,
    simulation_stage: &'static str,
) -> Result<Vec<String>, (&'static str, String)> {
    match result {
        Ok(verdict) if verdict.passed() => Ok(verdict.notes),
        Ok(verdict) => Err((check_stage, verdict.to_string())),
        Err(error) => Err((simulation_stage, error.to_string())),
    }
}

/// Generates the netlist for `seed` and runs the gauntlet on it.
///
/// # Errors
///
/// Returns the first [`CaseFailure`] encountered (see [`run_netlist`] on
/// why the error variant is large by design).
#[allow(clippy::result_large_err)]
pub fn run_case(
    seed: u64,
    config: &GenConfig,
    options: &HarnessOptions,
) -> Result<CaseReport, CaseFailure> {
    let generated: GeneratedNetlist = generate(seed, config);
    run_netlist(&generated.netlist, seed, options)
}

/// Shrinks a failing case to a minimal reproducer.
///
/// The predicate replays the harness on each shrink candidate and requires a
/// failure at the same stage (and, for transform failures, the same
/// transformation *kind* — sites shift while the netlist shrinks).
pub fn shrink_failure(
    failure: &CaseFailure,
    options: &HarnessOptions,
    shrink_options: &ShrinkOptions,
) -> Reproducer {
    let expected_kind = failure.transform.as_deref().map(transform_kind).map(str::to_owned);
    let predicate = |candidate: &Netlist| match run_netlist(candidate, failure.seed, options) {
        Ok(_) => false,
        Err(replayed) => {
            replayed.stage == failure.stage
                && match (&expected_kind, &replayed.transform) {
                    (None, _) => true,
                    (Some(kind), Some(name)) => transform_kind(name) == kind,
                    (Some(_), None) => false,
                }
        }
    };
    let netlist = shrink_netlist(&failure.netlist, predicate, shrink_options);
    let snippet = to_rust_snippet(&netlist);
    Reproducer { netlist, snippet, stage: failure.stage }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::GenConfig;

    #[test]
    fn a_spread_of_default_seeds_passes_the_gauntlet() {
        let config = GenConfig::default();
        let options = HarnessOptions::default();
        for seed in 0..6 {
            let report =
                run_case(seed, &config, &options).unwrap_or_else(|failure| panic!("{failure}"));
            assert_eq!(report.seed, seed);
        }
    }

    #[test]
    fn loop_seeds_exercise_the_speculation_path() {
        let config = GenConfig::loops();
        let options = HarnessOptions::default();
        let mut speculated = 0;
        for seed in 0..6 {
            let report =
                run_case(seed, &config, &options).unwrap_or_else(|failure| panic!("{failure}"));
            speculated +=
                report.transforms.iter().filter(|name| transform_kind(name) == "speculate").count();
        }
        assert!(speculated >= 4, "only {speculated} speculations across 6 loop seeds");
    }

    #[test]
    fn the_watchdog_fails_a_case_that_overruns_its_deadline() {
        let options = HarnessOptions { case_deadline: Duration::ZERO, ..HarnessOptions::default() };
        let failure = run_case(0, &GenConfig::default(), &options)
            .expect_err("a zero deadline trips on the first stage boundary");
        assert_eq!(failure.stage, "watchdog");
        assert!(failure.details.contains("wall-clock deadline"), "{}", failure.details);
    }

    #[test]
    fn the_event_driven_effort_on_a_generated_design_is_pinned() {
        // The ranks order each channel-reading controller after the
        // producers of its inputs only; the count repeats exactly, so a
        // change to the ranks or the wake rule moves it.
        let generated = generate(0, &GenConfig::loops());
        let mut sim = Simulation::new(&generated.netlist, &SimConfig::default()).unwrap();
        assert_eq!(sim.run(192).unwrap().controller_evals, 7_606);
    }

    #[test]
    fn engine_differential_is_part_of_every_case() {
        // A direct call on a generated netlist, for the error-path shape.
        let generated = generate(3, &GenConfig::default());
        engines_agree(&generated.netlist, 100).unwrap();
    }

    #[test]
    fn the_lane_differential_holds_on_generated_netlists() {
        // Direct lane-vs-scalar checks on a spread of generated structures,
        // plus a gauntlet run with the lane differential armed — the same
        // path the ELASTIC_FUZZ_LANES smoke leg takes.
        for seed in 0..4 {
            let generated = generate(seed, &GenConfig::default());
            lanes_agree(&generated.netlist, 100)
                .unwrap_or_else(|details| panic!("seed {seed}: {details}"));
        }
        let options = HarnessOptions { lane_differential: true, ..HarnessOptions::default() };
        run_case(1, &GenConfig::loops(), &options).unwrap_or_else(|failure| panic!("{failure}"));
    }

    #[test]
    fn the_compiled_differential_holds_on_generated_netlists() {
        // Direct compiled-vs-worklist checks on a spread of generated
        // structures, plus a gauntlet run with the compiled differential
        // armed — the same path the ELASTIC_FUZZ_COMPILED smoke leg takes.
        for seed in 0..4 {
            let generated = generate(seed, &GenConfig::default());
            compiled_agrees(&generated.netlist, 100)
                .unwrap_or_else(|details| panic!("seed {seed}: {details}"));
        }
        let options = HarnessOptions { compiled_differential: true, ..HarnessOptions::default() };
        run_case(1, &GenConfig::loops(), &options).unwrap_or_else(|failure| panic!("{failure}"));
    }

    #[test]
    fn static_scheduler_loops_pass_with_one_liveness_window() {
        // An already-speculated Figure-1(d) loop under a static scheduler:
        // a misprediction is never corrected, so the losing user waits out
        // the shared module's starvation limit, and an inserted buffer
        // stretches the transfer-free run past 64 cycles. Deadlock freedom
        // holds; the protocol checks must judge liveness by the same window.
        use elastic_core::library::{fig1d, Fig1Config};
        let options = HarnessOptions {
            lane_differential: true,
            compiled_differential: true,
            ..HarnessOptions::default()
        };
        for scheduler in [SchedulerKind::Static(0), SchedulerKind::Static(1)] {
            let config = Fig1Config { scheduler: scheduler.clone(), ..Fig1Config::default() };
            let netlist = fig1d(&config).netlist;
            for seed in 0..8 {
                run_netlist(&netlist, seed, &options)
                    .unwrap_or_else(|failure| panic!("{scheduler:?} seed {seed}: {failure}"));
            }
        }
    }

    #[test]
    fn failures_replay_deterministically() {
        // Break a transform by hand: an "equivalence" claim that inserts an
        // increment is caught, and the failure replays on the same netlist.
        let generated = generate(11, &GenConfig::small());
        let failure = CaseFailure {
            seed: 11,
            stage: "transform-equivalence",
            transform: Some("broken(x)".into()),
            details: String::new(),
            netlist: generated.netlist.clone(),
        };
        // Predicate parity: shrink with a stage that never reproduces returns
        // the netlist unchanged (the budget burns, nothing regresses).
        let reproducer =
            shrink_failure(&failure, &HarnessOptions::default(), &ShrinkOptions { max_checks: 8 });
        assert_eq!(reproducer.netlist, generated.netlist);
        assert!(reproducer.snippet.contains("Netlist::new"));
    }
}
