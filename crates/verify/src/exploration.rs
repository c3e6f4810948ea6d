//! Bounded exhaustive and randomized exploration of environment behaviour.
//!
//! The paper verifies its controllers with NuSMV over *all* environment
//! behaviours. This reproduction substitutes two dynamic techniques (see
//! the Verification and 64-lane engine sections of `docs/ARCHITECTURE.md`):
//!
//! * **bounded exhaustive exploration** — for a small depth `d`, every
//!   combination of per-cycle sink back-pressure *and* source token-offer
//!   patterns is enumerated (2^(d·(sinks+sources)) combinations, simulated
//!   64 at a time by the bit-parallel lane engine) and the SELF channel
//!   rules `Invariant`, `Retry+` and `Retry-` are checked on each run. For
//!   the small controller compositions the paper verifies, this covers the
//!   same environment nondeterminism the model checker explores, up to the
//!   bound;
//! * **randomized adversarial scheduling** — shared modules are driven by
//!   seeded random schedulers (which on their own do not satisfy leads-to) to
//!   confirm that the controller's starvation override keeps the system live
//!   regardless of the prediction policy, as claimed in Section 4.2: all
//!   four channel rules, bounded liveness included, plus the leads-to wait
//!   at every shared-module input. The runs are packed into lane blocks via
//!   the engine's lane-blocked scheduler injection, one seeded scheduler
//!   per lane.
//!
//! Both sweeps judge their runs as they happen. A lane judge, the third
//! driver of the per-cycle rules of `rules.rs` (beside the trace checkers
//! and the monitors), reads the settled rail words of every cycle
//! ([`LaneSimulation::rails`]) one bit per lane and writes each failing
//! lane's violations in the words and order the trace checkers would use
//! on that lane's trace. No lane trace is recorded.

use std::collections::BTreeSet;

use elastic_core::kind::{BackpressurePattern, SourcePattern};
use elastic_core::scheduler::RandomScheduler;
use elastic_core::{Channel, Netlist, Node, NodeId, NodeKind, Scheduler};
use elastic_sim::handshake::Rail;
use elastic_sim::sweep::lane_map;
use elastic_sim::{LaneConfig, LaneRails, LaneSimulation, SchedulerFactory, SimError, LANES};

use crate::liveness::{starved_user, LivenessOptions};
use crate::properties::{channel_violation, retraction_exempt_producers, ProtocolOptions};
use crate::rules::{shared_inputs, ChannelRule, ChannelRules, LeadsToWait, Rails};
use crate::Verdict;

/// Options for the bounded exploration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExplorationOptions {
    /// Depth (in cycles) of the enumerated sink back-pressure and source
    /// token-offer patterns.
    pub pattern_depth: usize,
    /// Number of cycles to simulate per enumerated pattern (the pattern
    /// repeats cyclically; clamped to at least 1, with a coverage note).
    pub cycles_per_run: u64,
    /// Cap on the number of simulation runs. Each run is one 64-lane block
    /// covering [`LANES`] environment combinations, so up to
    /// `max_runs × 64` combinations are enumerated (safety valve for
    /// netlists with many sinks).
    pub max_runs: usize,
    /// Number of randomized adversarial-scheduler runs.
    pub random_scheduler_runs: usize,
    /// Seed for the randomized runs.
    pub seed: u64,
}

impl Default for ExplorationOptions {
    fn default() -> Self {
        ExplorationOptions {
            pattern_depth: 3,
            cycles_per_run: 48,
            max_runs: 256,
            random_scheduler_runs: 8,
            seed: 0xE1A5,
        }
    }
}

/// Largest pattern space the enumeration will attempt exhaustively:
/// `2^26` combinations, i.e. `2^20` lane blocks of [`LANES`] environments
/// each. One named constant feeds **both** the cap applied to the
/// combination count and the truncation note below — they used to be two
/// separate `20` literals, and the note's exhaustiveness reasoning silently
/// compared against the already-capped count.
pub const MAX_EXHAUSTIVE_PATTERN_BITS: usize = 26;

/// Coverage of an enumeration of `pattern_bits` environment bits under
/// `max_runs` lane blocks: `(explored, combinations)`. The combination
/// space is capped at [`MAX_EXHAUSTIVE_PATTERN_BITS`]; each run covers
/// [`LANES`] combinations, which is what makes `pattern_bits ≤ 26`
/// reachable exhaustively (the scalar enumeration topped out at `2^20`
/// *and* spent one full simulation run per combination).
fn enumeration_coverage(pattern_bits: usize, max_runs: usize) -> (usize, usize) {
    let combinations = 1usize << pattern_bits.min(MAX_EXHAUSTIVE_PATTERN_BITS);
    let explored = combinations.min(max_runs.saturating_mul(LANES));
    (explored, combinations)
}

pub(crate) fn sinks_of(netlist: &Netlist) -> Vec<NodeId> {
    netlist.live_nodes().filter(|n| matches!(n.kind, NodeKind::Sink(_))).map(|n| n.id).collect()
}

pub(crate) fn sources_of(netlist: &Netlist) -> Vec<NodeId> {
    netlist.live_nodes().filter(|n| matches!(n.kind, NodeKind::Source(_))).map(|n| n.id).collect()
}

/// Every shared module of `netlist` with its user count.
pub(crate) fn shared_modules_of(netlist: &Netlist) -> Vec<(NodeId, usize)> {
    netlist
        .live_nodes()
        .filter_map(|n| match &n.kind {
            NodeKind::Shared(spec) => Some((n.id, spec.users)),
            _ => None,
        })
        .collect()
}

/// Exhaustively enumerates sink back-pressure and source token-offer
/// patterns up to the configured depth and checks the SELF channel rules
/// `Invariant`, `Retry+` and `Retry-` on every run (bounded liveness is
/// off: an enumerated environment may stall a run on purpose).
///
/// The combination index packs one bit per enumerated cycle per
/// environment endpoint: sink `s` owns bits `s·d .. s·d+d` (a set bit
/// asserts stop that cycle) and source `j` owns bits
/// `(sinks+j)·d .. (sinks+j)·d+d` (a set bit *withholds* the token offer
/// that cycle), so combination 0 is the nominal stop-free, always-offering
/// environment. Overriding a source's offer pattern keeps its data stream:
/// the sweep varies *when* tokens arrive, never their values — the same
/// space the scalar engine's `reset_with_sink_patterns` /
/// `reset_with_source_patterns` pair spans, one environment at a time.
///
/// The enumerated combinations are independent, so they are packed into
/// [`LANES`]-wide blocks and fanned across OS threads via
/// [`lane_map`] — **one [`LaneSimulation`] build per worker thread**: each
/// worker constructs the lane simulation once (the only `netlist`
/// validation, controller construction and rank computation it ever pays)
/// and replays every block assigned to it via
/// [`LaneSimulation::reset_with_lane_sink_patterns`] and
/// [`LaneSimulation::reset_with_lane_source_patterns`], simulating 64
/// environment combinations per run, judged as they run by the lane judge.
/// Results are collected in combination order, making the merged verdict
/// (and the first counterexample reported for a failing design) identical
/// to the sequential rebuild-per-run enumeration this replaces.
///
/// When the enumeration is truncated — more than
/// 2^[`MAX_EXHAUSTIVE_PATTERN_BITS`] theoretical combinations, or more
/// combinations than [`ExplorationOptions::max_runs`] lane blocks cover —
/// the verdict carries an explicit coverage [`note`](Verdict::note), so a
/// "passed" result cannot masquerade as exhaustive
/// (see [`Verdict::is_exhaustive`]). So does a zero
/// [`ExplorationOptions::cycles_per_run`], which is clamped to one cycle:
/// a run of no cycles would check nothing.
///
/// # Errors
///
/// Propagates simulation failures (which themselves count as verification
/// failures of the design under test). A run failure wedges its whole lane
/// block; the error of the lowest-numbered failing block is returned,
/// attributed to that block's first combination.
pub fn explore_environments(
    netlist: &Netlist,
    options: &ExplorationOptions,
) -> Result<Verdict, SimError> {
    let sinks = sinks_of(netlist);
    let sources = sources_of(netlist);
    let pattern_bits = options.pattern_depth * (sinks.len() + sources.len());
    let (explored, combinations) = enumeration_coverage(pattern_bits, options.max_runs);
    let runs: Vec<usize> = (0..explored).collect();

    let protocol = ProtocolOptions { check_liveness: false, ..ProtocolOptions::default() };
    let setup = |sim: &mut LaneSimulation, block: &[usize]| {
        reset_with_environments(sim, &sinks, &sources, options.pattern_depth, block);
    };
    let cycles = options.cycles_per_run.max(1);
    let failures = sweep_lane_blocks(netlist, &runs, cycles, &protocol, None, setup, |run| {
        format!("environment combination {run}")
    })?;

    let mut verdict = Verdict::default();
    if options.cycles_per_run == 0 {
        verdict.note("cycles_per_run clamped from 0 to 1 (a run of no cycles checks nothing)");
    }
    if pattern_bits > MAX_EXHAUSTIVE_PATTERN_BITS || explored < combinations {
        verdict.note(format!(
            "coverage truncated: explored {explored} of 2^{pattern_bits} environment \
             combinations (pattern_depth {} over {} sink(s) + {} source(s), max_runs {} × \
             {LANES} lanes)",
            options.pattern_depth,
            sinks.len(),
            sources.len(),
            options.max_runs
        ));
    }
    verdict.violations.extend(failures);
    Ok(verdict)
}

/// Bit `bit` of an environment combination. Bits at or past `usize::BITS`
/// read as 0, the nominal environment: no enumerated combination reaches
/// them.
fn pattern_bit(combination: usize, bit: usize) -> bool {
    u32::try_from(bit).ok().and_then(|bit| combination.checked_shr(bit)).is_some_and(|c| c & 1 == 1)
}

/// Resets `sim` with one block of environment combinations, lane `ℓ`
/// running combination `block[ℓ]` (lanes past a short block repeat its
/// last combination), in the bit layout [`explore_environments`] documents.
///
/// An endpoint whose bits agree across the block gets one pattern,
/// broadcast to every lane. The sweep's blocks are 64-aligned runs of
/// consecutive combinations, so only the endpoints owning a bit below bit 6
/// get a pattern per lane; and those repeat from block to block, so the
/// simulation refiles only the broadcast endpoints' lanes.
pub(crate) fn reset_with_environments(
    sim: &mut LaneSimulation,
    sinks: &[NodeId],
    sources: &[NodeId],
    depth: usize,
    block: &[usize],
) {
    // Depth 0 enumerates the single empty pattern: leave the specs' own
    // patterns in force.
    if depth == 0 {
        sim.reset();
        return;
    }
    // The bits in which the block's combinations differ.
    let first = block.first().copied().unwrap_or(0);
    let varying = block.iter().fold(0, |bits, &combination| bits | (combination ^ first));
    // Endpoint `e` owns bits `e·depth .. e·depth + depth`, sinks first.
    let patterns = |endpoint: usize| {
        let bits = endpoint * depth..(endpoint + 1) * depth;
        let shared = bits.clone().all(|bit| !pattern_bit(varying, bit));
        let lanes = if shared { &block[..block.len().min(1)] } else { block };
        lanes
            .iter()
            .map(move |&combination| bits.clone().map(move |bit| pattern_bit(combination, bit)))
    };
    let sink_overrides: Vec<(NodeId, Vec<BackpressurePattern>)> = sinks
        .iter()
        .enumerate()
        .map(|(s, &sink)| {
            (sink, patterns(s).map(|bits| BackpressurePattern::List(bits.collect())).collect())
        })
        .collect();
    // A set source bit withholds the offer, so combination 0 keeps the
    // nominal always-offering environment.
    let source_overrides: Vec<(NodeId, Vec<SourcePattern>)> = sources
        .iter()
        .enumerate()
        .map(|(j, &source)| {
            let offers = patterns(sinks.len() + j);
            (source, offers.map(|bits| SourcePattern::List(bits.map(|b| !b).collect())).collect())
        })
        .collect();
    // Both overrides persist across the reset the second call performs, so
    // the block ends up with its sink *and* source environments.
    sim.reset_with_lane_sink_patterns(&sink_overrides);
    sim.reset_with_lane_source_patterns(&source_overrides);
}

/// Drives every shared module with seeded adversarial random schedulers and
/// checks that the design stays protocol-compliant and starvation-free.
///
/// The randomized runs derive their scheduler seeds from the run index
/// alone and are packed into [`LANES`]-wide blocks via the lane engine's
/// lane-blocked scheduler injection
/// ([`LaneSimulation::reset_with_schedulers`] builds one freshly seeded
/// [`RandomScheduler`] per lane), so a whole block of adversarial runs
/// costs one word-level simulation — like [`explore_environments`], each
/// worker thread builds one simulation and replays every block assigned to
/// it. Results are merged in run order, so the verdict (and the run index
/// named in each violation) is identical to the sequential scalar
/// rebuild-per-run loop this replaces.
///
/// # Errors
///
/// Propagates simulation failures (lowest-numbered failing run first).
pub fn explore_adversarial_schedulers(
    netlist: &Netlist,
    options: &ExplorationOptions,
) -> Result<Verdict, SimError> {
    let shared = shared_modules_of(netlist);
    let mut verdict = Verdict::default();
    if shared.is_empty() {
        return Ok(verdict);
    }
    let liveness =
        LivenessOptions { cycles: options.cycles_per_run.max(200), ..LivenessOptions::default() };
    let runs: Vec<usize> = (0..options.random_scheduler_runs).collect();
    let setup = |sim: &mut LaneSimulation, block: &[usize]| {
        reset_with_random_schedulers(sim, &shared, options.seed, block);
    };
    let horizon = Some(liveness.leads_to_horizon as u64);
    let failures = sweep_lane_blocks(
        netlist,
        &runs,
        liveness.cycles,
        &ProtocolOptions::default(),
        horizon,
        setup,
        |run| format!("adversarial scheduler run {run}"),
    )?;
    verdict.violations.extend(failures);
    Ok(verdict)
}

/// The adversarial scheduler seed of run `run` of a sweep seeded `seed`.
fn scheduler_seed(seed: u64, run: usize) -> u64 {
    seed ^ ((run as u64 + 1) * 0x9E37_79B9)
}

/// Resets `sim` with one block of adversarial scheduler runs: lane `ℓ`
/// drives every shared module of `shared` with the [`RandomScheduler`] of
/// run `block[ℓ]` (lanes past a short block repeat its last run).
pub(crate) fn reset_with_random_schedulers(
    sim: &mut LaneSimulation,
    shared: &[(NodeId, usize)],
    seed: u64,
    block: &[usize],
) {
    let factories: Vec<(NodeId, Box<SchedulerFactory<'_>>)> = shared
        .iter()
        .map(|&(node, users)| {
            let make: Box<SchedulerFactory<'_>> = Box::new(move |lane| {
                let run = block[lane.min(block.len() - 1)];
                Box::new(RandomScheduler::new(users, scheduler_seed(seed, run)))
                    as Box<dyn Scheduler>
            });
            (node, make)
        })
        .collect();
    let overrides: Vec<(NodeId, &SchedulerFactory<'_>)> =
        factories.iter().map(|(node, make)| (*node, make.as_ref())).collect();
    sim.reset_with_schedulers(&overrides);
}

/// The lane driver of the runtime property rules: judges every lane of a
/// 64-lane run as it happens, reading the settled rail words of each cycle
/// ([`LaneSimulation::rails`]) one bit per lane, and writes each lane's
/// violations exactly as the trace checkers would on that lane's trace:
/// [`check_trace`](crate::properties::check_trace)'s channel lines (per
/// channel in `live_channels()` order, its first `Liveness` last), then
/// [`check_leads_to_on_trace`](crate::liveness::check_leads_to_on_trace)'s
/// lines when a leads-to horizon is set.
#[derive(Debug)]
pub(crate) struct LaneJudge<'n> {
    channels: Vec<&'n Channel>,
    /// Per channel: `Retry+` applies (its producer is not exempt).
    persistent: Vec<bool>,
    protocol: ProtocolOptions,
    /// The shared-module inputs under the leads-to wait, with the dense
    /// index of their channel; empty without a horizon.
    inputs: Vec<(&'n Node, usize, &'n Channel, usize)>,
    horizon: u64,
    rules: Vec<ChannelRules<u64>>,
    waits: Vec<LeadsToWait<u64>>,
    /// Per channel, the lanes that reported their first `Liveness`.
    starved: Vec<u64>,
    /// The lanes judged; the others read as idle.
    live: u64,
    cycle: usize,
    /// Per lane, every violation so far with its position in the report.
    found: Vec<Vec<(usize, String)>>,
}

impl<'n> LaneJudge<'n> {
    /// A judge of `netlist`'s runs under `protocol`, with `Retry+` waived on
    /// the outputs of the `exempt` producers, plus the leads-to wait at
    /// every shared-module input when `leads_to_horizon` is set.
    pub(crate) fn new(
        netlist: &'n Netlist,
        exempt: &BTreeSet<NodeId>,
        protocol: ProtocolOptions,
        leads_to_horizon: Option<u64>,
    ) -> Self {
        let channels: Vec<&Channel> = netlist.live_channels().collect();
        let persistent = channels.iter().map(|c| !exempt.contains(&c.from.node)).collect();
        let inputs: Vec<_> = match leads_to_horizon {
            Some(_) => shared_inputs(netlist)
                .into_iter()
                .map(|(node, user, channel)| {
                    let dense = channels.iter().position(|c| c.id == channel.id);
                    (node, user, channel, dense.expect("a live channel"))
                })
                .collect(),
            None => Vec::new(),
        };
        LaneJudge {
            persistent,
            protocol,
            horizon: leads_to_horizon.unwrap_or(0),
            rules: channels.iter().map(|_| ChannelRules::default()).collect(),
            waits: inputs.iter().map(|_| LeadsToWait::default()).collect(),
            starved: vec![0; channels.len()],
            live: 0,
            cycle: 0,
            found: (0..LANES).map(|_| Vec::new()).collect(),
            channels,
            inputs,
        }
    }

    /// Starts judging a new run in the first `lanes` lanes.
    pub(crate) fn start(&mut self, lanes: usize) {
        self.rules.iter_mut().for_each(|rules| *rules = ChannelRules::default());
        self.waits.iter_mut().for_each(|wait| *wait = LeadsToWait::default());
        self.starved.fill(0);
        self.found.iter_mut().for_each(Vec::clear);
        self.live = u64::MAX >> (LANES - lanes.clamp(1, LANES));
        self.cycle = 0;
    }

    /// Judges the run's next cycle from its settled rail words.
    pub(crate) fn observe(&mut self, rails: LaneRails<'_>) {
        let LaneJudge {
            channels,
            persistent,
            protocol,
            inputs,
            horizon,
            rules,
            waits,
            starved,
            live,
            cycle,
            found,
        } = self;
        let (live, cycle) = (*live, *cycle);
        let state = |index: usize| Rails {
            forward_valid: rails.forward_valid[index] & live,
            forward_stop: rails.forward_stop[index] & live,
            backward_valid: rails.backward_valid[index] & live,
            backward_stop: rails.backward_stop[index] & live,
        };
        for (index, rules) in rules.iter_mut().enumerate() {
            rules.step(state(index), protocol, persistent[index], |rule, mut lanes| {
                let liveness = rule == ChannelRule::Liveness;
                if liveness {
                    lanes &= !starved[index];
                    starved[index] |= lanes;
                }
                for lane in lanes.lanes() {
                    let violation =
                        channel_violation(channels[index], rule.property(), cycle - rule.lag());
                    found[lane].push((2 * index + usize::from(liveness), violation));
                }
            });
        }
        let leads_to = 2 * channels.len();
        for (input, (&(node, user, channel, dense), wait)) in inputs.iter().zip(waits).enumerate() {
            wait.overdue(cycle as u64, state(dense), *horizon, |lane, since| {
                found[lane].push((leads_to + input, starved_user(node, user, channel, since)));
            });
        }
        self.cycle += 1;
    }

    /// Lane `lane`'s violations, in report order; takes them, so a second
    /// call returns none.
    pub(crate) fn violations(&mut self, lane: usize) -> Vec<String> {
        let mut found = std::mem::take(&mut self.found[lane]);
        // Stable: each channel's and each input's lines stay in run order.
        found.sort_by_key(|&(position, _)| position);
        found.into_iter().map(|(_, violation)| violation).collect()
    }
}

/// Sweeps `runs` in [`LANES`]-wide blocks through [`lane_map`], with one
/// [`LaneSimulation`] (trace off) and one [`LaneJudge`] per worker thread:
/// `setup` resets the simulation with one block's lane environments, and
/// the block steps for `cycles` while the judge reads each cycle's rail
/// words under `protocol` (plus the leads-to wait when `leads_to_horizon`
/// is set). A run that breaks a rule reports
/// `"{name(run)}: {verdict}"`, its verdict holding the judge's lines.
///
/// Returns the violations in run order. A block whose build or run fails
/// reports its error at its first run, and the lowest such error is
/// returned instead.
fn sweep_lane_blocks(
    netlist: &Netlist,
    runs: &[usize],
    cycles: u64,
    protocol: &ProtocolOptions,
    leads_to_horizon: Option<u64>,
    setup: impl Fn(&mut LaneSimulation, &[usize]) + Sync,
    name: impl Fn(usize) -> String + Sync,
) -> Result<Vec<String>, SimError> {
    let config = LaneConfig { record_trace: false };
    let exempt = retraction_exempt_producers(netlist);
    let failures = lane_map(
        runs,
        || {
            let judge = LaneJudge::new(netlist, &exempt, *protocol, leads_to_horizon);
            (LaneSimulation::new(netlist, &config), judge)
        },
        |(worker_sim, judge), _, block| -> Vec<Result<Option<String>, SimError>> {
            // A block-level failure lands in the block's first result slot
            // (the merge below short-circuits on the first `Err` in run
            // order, so the padding `Ok(None)` slots are never reported).
            let block_failed = |error: SimError| {
                let mut results: Vec<Result<Option<String>, SimError>> =
                    Vec::with_capacity(block.len());
                results.push(Err(error));
                results.resize_with(block.len(), || Ok(None));
                results
            };
            let sim = match worker_sim {
                Ok(sim) => sim,
                // Construction failures depend only on the netlist, never on
                // the run: rebuilding reproduces the same error for this
                // block's report (cold path, never hit by valid designs).
                Err(_) => {
                    return block_failed(
                        LaneSimulation::new(netlist, &config)
                            .expect_err("simulation build failures are deterministic"),
                    )
                }
            };
            setup(sim, block);
            judge.start(block.len());
            for _ in 0..cycles {
                if let Err(error) = sim.step() {
                    return block_failed(error);
                }
                judge.observe(sim.rails());
            }
            block
                .iter()
                .enumerate()
                .map(|(lane, &run)| {
                    let violations = judge.violations(lane);
                    let verdict = Verdict { violations, notes: Vec::new() };
                    Ok((!verdict.passed()).then(|| format!("{}: {verdict}", name(run))))
                })
                .collect()
        },
    );
    failures.into_iter().filter_map(Result::transpose).collect()
}

/// Runs both exploration strategies and merges their verdicts.
///
/// # Errors
///
/// Propagates simulation failures.
pub fn explore(netlist: &Netlist, options: &ExplorationOptions) -> Result<Verdict, SimError> {
    let mut verdict = explore_environments(netlist, options)?;
    verdict.merge(explore_adversarial_schedulers(netlist, options)?);
    Ok(verdict)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::liveness::check_leads_to_on_trace;
    use crate::properties::check_trace;
    use elastic_core::library::{fig1d, table1, Fig1Config};
    use elastic_gen::{generate, GenConfig};
    use elastic_sim::{SimConfig, Simulation};

    #[test]
    fn the_speculative_fig1_design_survives_bounded_exploration() {
        let handles = fig1d(&Fig1Config::default());
        let options = ExplorationOptions {
            pattern_depth: 2,
            cycles_per_run: 32,
            max_runs: 16,
            random_scheduler_runs: 3,
            seed: 7,
        };
        let verdict = explore(&handles.netlist, &options).unwrap();
        assert!(verdict.passed(), "{verdict}");
    }

    #[test]
    fn the_table1_design_survives_environment_enumeration() {
        let handles = table1();
        let options = ExplorationOptions {
            pattern_depth: 2,
            cycles_per_run: 24,
            max_runs: 8,
            random_scheduler_runs: 0,
            seed: 3,
        };
        let verdict = explore_environments(&handles.netlist, &options).unwrap();
        assert!(verdict.passed(), "{verdict}");
    }

    #[test]
    fn truncated_enumerations_carry_an_explicit_coverage_note() {
        let handles = table1();
        // max_runs × 64 lanes far below the combination count (table1 has
        // one sink and three sources, so depth 10 spans 40 pattern bits —
        // capped at 2^26 — and 4 blocks cover only 256 combinations): the
        // verdict may pass but must say it is not exhaustive.
        let truncated = ExplorationOptions {
            pattern_depth: 10,
            cycles_per_run: 16,
            max_runs: 4,
            random_scheduler_runs: 0,
            seed: 1,
        };
        let verdict = explore_environments(&handles.netlist, &truncated).unwrap();
        assert!(verdict.passed(), "{verdict}");
        assert!(!verdict.is_exhaustive(), "a truncated sweep must not claim exhaustiveness");
        assert!(verdict.notes.iter().any(|note| note.contains("coverage truncated")), "{verdict}");
        assert!(verdict.to_string().contains("coverage truncated"));

        // Full enumeration: no note, the pass is exhaustive up to the bound.
        let full = ExplorationOptions {
            pattern_depth: 2,
            cycles_per_run: 16,
            max_runs: 1 << 16,
            random_scheduler_runs: 0,
            seed: 1,
        };
        let verdict = explore_environments(&handles.netlist, &full).unwrap();
        assert!(verdict.passed(), "{verdict}");
        assert!(verdict.is_exhaustive(), "{verdict}");
    }

    #[test]
    fn a_zero_cycle_run_is_clamped_to_one_cycle_with_a_note() {
        // A run of no cycles checks nothing, so it must not pass as an
        // exhaustive sweep.
        let handles = table1();
        let options = ExplorationOptions {
            pattern_depth: 1,
            cycles_per_run: 0,
            max_runs: 64,
            random_scheduler_runs: 0,
            seed: 1,
        };
        let verdict = explore_environments(&handles.netlist, &options).unwrap();
        assert!(verdict.passed(), "{verdict}");
        assert!(!verdict.is_exhaustive(), "{verdict}");
        assert_eq!(verdict.notes.len(), 1, "{verdict}");
        assert!(verdict.notes[0].contains("cycles_per_run clamped from 0 to 1"), "{verdict}");
    }

    #[test]
    fn oversized_pattern_spaces_are_capped_and_noted() {
        // Within the exhaustive range (≤ 2^26) but max_runs only buys
        // 2 × 64 lanes, so the note must still name the full space: table1
        // has one sink + three sources, so depth 6 spans 24 pattern bits.
        let handles = table1();
        let options = ExplorationOptions {
            pattern_depth: 6, // 1 sink + 3 sources → 24 pattern bits
            cycles_per_run: 4,
            max_runs: 2,
            random_scheduler_runs: 0,
            seed: 1,
        };
        let verdict = explore_environments(&handles.netlist, &options).unwrap();
        assert!(!verdict.is_exhaustive());
        assert!(verdict.notes[0].contains("2^24"), "{verdict}");
        assert!(verdict.notes[0].contains("1 sink(s) + 3 source(s)"), "{verdict}");

        // Beyond the cap: 28 pattern bits exceeds MAX_EXHAUSTIVE_PATTERN_BITS,
        // so the note fires even though only one lane block actually runs.
        let options = ExplorationOptions {
            pattern_depth: 7, // 4 endpoints → 28 pattern bits, capped at 2^26
            cycles_per_run: 4,
            max_runs: 1,
            random_scheduler_runs: 0,
            seed: 1,
        };
        let verdict = explore_environments(&handles.netlist, &options).unwrap();
        assert!(!verdict.is_exhaustive());
        assert!(verdict.notes[0].contains("2^28"), "{verdict}");
        assert!(verdict.notes[0].contains("explored 64 of"), "{verdict}");
    }

    #[test]
    fn lane_blocks_raise_the_exhaustive_coverage_boundary() {
        // Pure coverage arithmetic at the old and new boundaries.
        // Old scalar cap: 2^20 combinations max, one per run. With lanes the
        // same 2^20 space is exhausted by 2^14 runs...
        assert_eq!(enumeration_coverage(20, 1 << 14), (1 << 20, 1 << 20));
        // ...and the old hard boundary 2^21 is now exhaustible too.
        assert_eq!(enumeration_coverage(21, 1 << 15), (1 << 21, 1 << 21));
        // New cap boundary: 26 bits exhaustive with 2^20 runs, 27 bits capped.
        assert_eq!(enumeration_coverage(26, 1 << 20), (1 << 26, 1 << 26));
        assert_eq!(enumeration_coverage(27, usize::MAX), (1 << 26, 1 << 26));
        // max_runs still truncates, in lane-block units.
        assert_eq!(enumeration_coverage(20, 16), (16 * LANES, 1 << 20));
        // Degenerate sink-less designs enumerate the single empty pattern.
        assert_eq!(enumeration_coverage(0, 1), (1, 1));
    }

    #[test]
    fn lane_enumeration_is_exhaustive_beyond_the_scalar_run_budget() {
        // Depth 3 over table1's 4 environment endpoints → 12 pattern bits →
        // 4096 combinations, covered exhaustively by 64 lane blocks; the
        // scalar enumeration would have needed 4096 runs.
        let handles = table1();
        let options = ExplorationOptions {
            pattern_depth: 3,
            cycles_per_run: 24,
            max_runs: 64,
            random_scheduler_runs: 0,
            seed: 1,
        };
        let verdict = explore_environments(&handles.netlist, &options).unwrap();
        assert!(verdict.passed(), "{verdict}");
        assert!(verdict.is_exhaustive(), "{verdict}");
    }

    #[test]
    fn parallel_enumeration_is_deterministic() {
        let handles = table1();
        let options = ExplorationOptions {
            pattern_depth: 2,
            cycles_per_run: 24,
            max_runs: 8,
            random_scheduler_runs: 0,
            seed: 3,
        };
        let first = explore_environments(&handles.netlist, &options).unwrap();
        let second = explore_environments(&handles.netlist, &options).unwrap();
        assert_eq!(first, second, "parallel enumeration must be reproducible");
    }

    #[test]
    fn a_seeded_failing_case_reports_identical_counterexamples_in_parallel() {
        // Stall the sink of the speculative Figure-1 design forever: tokens
        // pile up at the shared module and the leads-to property fails in
        // every adversarial scheduler run, deterministically per seed.
        let handles = fig1d(&Fig1Config::default());
        let mut broken = handles.netlist.clone();
        if let Some(node) = broken.node_mut(handles.sink) {
            node.kind = elastic_core::NodeKind::Sink(elastic_core::SinkSpec {
                backpressure: BackpressurePattern::List(vec![true]),
            });
        }
        let options = ExplorationOptions {
            pattern_depth: 0,
            cycles_per_run: 120,
            max_runs: 1,
            random_scheduler_runs: 4,
            seed: 0xBAD,
        };
        let first = explore_adversarial_schedulers(&broken, &options).unwrap();
        assert!(!first.passed(), "a permanently stalled sink must violate liveness");
        let second = explore_adversarial_schedulers(&broken, &options).unwrap();
        assert_eq!(
            first, second,
            "the parallel sweep must report the same counterexamples every time"
        );
        // Violations are merged in run order, exactly like the sequential
        // loop the parallel sweep replaced.
        let run_of = |violation: &String| -> usize {
            let rest = violation.strip_prefix("adversarial scheduler run ").unwrap_or("0");
            rest.split(':').next().unwrap_or("0").trim().parse().unwrap_or(0)
        };
        let runs: Vec<usize> = first.violations.iter().map(run_of).collect();
        let mut sorted = runs.clone();
        sorted.sort_unstable();
        assert_eq!(runs, sorted, "violations must come back in run order: {runs:?}");
    }

    #[test]
    fn the_lane_environment_sweep_matches_a_scalar_reference_enumeration() {
        // The regression pin for the lane-API gap this release closed: the
        // lane path of `explore_environments` (per-lane sink back-pressure
        // *and* source offers) must return exactly the verdict a sequential
        // scalar enumeration of the same combination space returns, bit
        // layout and all.
        let handles = table1();
        let netlist = &handles.netlist;
        let options = ExplorationOptions {
            pattern_depth: 1,
            cycles_per_run: 24,
            max_runs: 1 << 10,
            random_scheduler_runs: 0,
            seed: 3,
        };
        let lane_verdict = explore_environments(netlist, &options).unwrap();
        assert!(lane_verdict.is_exhaustive(), "{lane_verdict}");

        let sinks = sinks_of(netlist);
        let sources = sources_of(netlist);
        assert!(!sinks.is_empty() && !sources.is_empty(), "table1 has both endpoint kinds");
        let depth = options.pattern_depth;
        let combinations = 1usize << (depth * (sinks.len() + sources.len()));
        let protocol = ProtocolOptions { check_liveness: false, ..ProtocolOptions::default() };
        let mut scalar_verdict = Verdict::default();
        let mut streams = std::collections::BTreeSet::new();
        let mut sim = Simulation::new(netlist, &SimConfig::default()).unwrap();
        for combination in 0..combinations {
            let sink_overrides: Vec<_> = sinks
                .iter()
                .enumerate()
                .map(|(s, &sink)| {
                    let pattern = (0..depth)
                        .map(|cycle| (combination >> (s * depth + cycle)) & 1 == 1)
                        .collect();
                    (sink, BackpressurePattern::List(pattern))
                })
                .collect();
            let source_overrides: Vec<_> = sources
                .iter()
                .enumerate()
                .map(|(j, &source)| {
                    let pattern = (0..depth)
                        .map(|cycle| (combination >> ((sinks.len() + j) * depth + cycle)) & 1 == 0)
                        .collect();
                    (source, SourcePattern::List(pattern))
                })
                .collect();
            sim.reset_with_sink_patterns(&sink_overrides);
            sim.reset_with_source_patterns(&source_overrides);
            sim.run(options.cycles_per_run).unwrap();
            let run_verdict = check_trace(netlist, sim.trace(), &protocol);
            if !run_verdict.passed() {
                scalar_verdict
                    .reject(format!("environment combination {combination}: {run_verdict}"));
            }
            streams.insert(format!("{:?}", sim.report().sink_streams));
        }
        assert_eq!(
            lane_verdict, scalar_verdict,
            "lane and scalar environment sweeps must return identical verdicts"
        );
        assert!(streams.len() > 1, "the source-offer bits must actually vary observable behaviour");
    }

    #[test]
    fn the_lane_blocked_scheduler_sweep_matches_a_scalar_reference() {
        // Same broken design as the determinism test above: every
        // adversarial run violates leads-to, so the lane-blocked sweep must
        // reproduce the scalar per-run loop's verdict violation for
        // violation — identical run indices, identical diagnoses.
        let handles = fig1d(&Fig1Config::default());
        let mut broken = handles.netlist.clone();
        if let Some(node) = broken.node_mut(handles.sink) {
            node.kind = elastic_core::NodeKind::Sink(elastic_core::SinkSpec {
                backpressure: BackpressurePattern::List(vec![true]),
            });
        }
        let options = ExplorationOptions {
            pattern_depth: 0,
            cycles_per_run: 120,
            max_runs: 1,
            random_scheduler_runs: 4,
            seed: 0xBAD,
        };
        let lane_verdict = explore_adversarial_schedulers(&broken, &options).unwrap();
        assert!(!lane_verdict.passed(), "a permanently stalled sink must violate liveness");

        let shared = shared_modules_of(&broken);
        let protocol = ProtocolOptions::default();
        let liveness = LivenessOptions {
            cycles: options.cycles_per_run.max(200),
            ..LivenessOptions::default()
        };
        let mut scalar_verdict = Verdict::default();
        let mut sim = Simulation::new(&broken, &SimConfig::default()).unwrap();
        for run in 0..options.random_scheduler_runs {
            let overrides: Vec<(elastic_core::NodeId, Box<dyn Scheduler>)> = shared
                .iter()
                .map(|&(node, users)| {
                    let seed = options.seed ^ ((run as u64 + 1) * 0x9E37_79B9);
                    (node, Box::new(RandomScheduler::new(users, seed)) as Box<dyn Scheduler>)
                })
                .collect();
            sim.reset_with_schedulers(overrides);
            sim.run(liveness.cycles).unwrap();
            let mut run_verdict = check_trace(&broken, sim.trace(), &protocol);
            run_verdict.merge(check_leads_to_on_trace(&broken, sim.trace(), &liveness));
            if !run_verdict.passed() {
                scalar_verdict.reject(format!("adversarial scheduler run {run}: {run_verdict}"));
            }
        }
        assert_eq!(
            lane_verdict, scalar_verdict,
            "lane-blocked and scalar scheduler sweeps must return identical verdicts"
        );
    }

    #[test]
    fn the_broadcast_environment_setup_matches_per_lane_patterns_on_generated_designs() {
        // Consecutive blocks replayed on one simulation — broadcast patterns
        // for the endpoints whose bits agree across a block, overrides that
        // refile only the lanes that changed, and a short last block — must
        // run every lane exactly as a fresh simulation given each lane's
        // pattern one by one.
        let depth = 3;
        let runs: Vec<usize> = (0..2 * LANES + 23).collect();
        let config = LaneConfig { record_trace: false };
        let mut broadcast = 0;
        for preset in ["default", "loops", "pipelines"] {
            let gen = GenConfig::preset(preset).expect("known preset");
            for seed in 0..2 {
                let netlist = generate(seed, &gen).netlist;
                let (sinks, sources) = (sinks_of(&netlist), sources_of(&netlist));
                // Endpoints 2 and up own only bits 6 and up.
                broadcast += (sinks.len() + sources.len()).saturating_sub(2);
                let mut reused = LaneSimulation::new(&netlist, &config).unwrap();
                for block in runs.chunks(LANES) {
                    reset_with_environments(&mut reused, &sinks, &sources, depth, block);
                    let bits = |endpoint: usize, lane: usize| -> Vec<bool> {
                        let combination = block[lane.min(block.len() - 1)];
                        (0..depth)
                            .map(|cycle| pattern_bit(combination, endpoint * depth + cycle))
                            .collect()
                    };
                    let sink_overrides: Vec<(NodeId, Vec<BackpressurePattern>)> = sinks
                        .iter()
                        .enumerate()
                        .map(|(s, &sink)| {
                            (
                                sink,
                                (0..LANES)
                                    .map(|lane| BackpressurePattern::List(bits(s, lane)))
                                    .collect(),
                            )
                        })
                        .collect();
                    let source_overrides: Vec<(NodeId, Vec<SourcePattern>)> = sources
                        .iter()
                        .enumerate()
                        .map(|(j, &source)| {
                            let offers =
                                |lane| bits(sinks.len() + j, lane).iter().map(|b| !b).collect();
                            (
                                source,
                                (0..LANES).map(|lane| SourcePattern::List(offers(lane))).collect(),
                            )
                        })
                        .collect();
                    let mut fresh = LaneSimulation::new(&netlist, &config).unwrap();
                    fresh.reset_with_lane_sink_patterns(&sink_overrides);
                    fresh.reset_with_lane_source_patterns(&source_overrides);
                    for cycle in 0..48 {
                        reused.step().unwrap();
                        fresh.step().unwrap();
                        let (a, b) = (reused.rails(), fresh.rails());
                        let at = format!("{preset} seed {seed} block {} cycle {cycle}", block[0]);
                        assert_eq!(a.forward_valid, b.forward_valid, "V+, {at}");
                        assert_eq!(a.forward_stop, b.forward_stop, "S+, {at}");
                        assert_eq!(a.backward_valid, b.backward_valid, "V-, {at}");
                        assert_eq!(a.backward_stop, b.backward_stop, "S-, {at}");
                    }
                    for lane in 0..LANES {
                        let (a, b) = (reused.report(lane), fresh.report(lane));
                        assert_eq!(a.behavioural_difference(&b), None, "lane {lane}");
                    }
                }
            }
        }
        assert!(broadcast > 0, "some endpoint must own only bits past the lane bits");
    }

    #[test]
    fn pattern_bits_past_the_word_read_as_the_nominal_environment() {
        // 11 source→sink pairs at depth 3 span 66 pattern bits, so the last
        // source owns bits 63, 64 and 65: past a `usize`, they read as 0.
        assert!(pattern_bit(1 << 63, 63));
        assert!(!pattern_bit(usize::MAX, 64));
        assert!(!pattern_bit(usize::MAX, usize::MAX));
        let mut n = elastic_core::Netlist::new("pairs");
        for pair in 0..11 {
            let src = n.add_source(format!("src{pair}"), elastic_core::SourceSpec::always());
            let sink = n.add_sink(format!("sink{pair}"), elastic_core::SinkSpec::always_ready());
            n.connect(elastic_core::Port::output(src, 0), elastic_core::Port::input(sink, 0), 8)
                .unwrap();
        }
        let options = ExplorationOptions {
            pattern_depth: 3,
            cycles_per_run: 8,
            max_runs: 1,
            random_scheduler_runs: 0,
            seed: 1,
        };
        let verdict = explore_environments(&n, &options).unwrap();
        assert!(verdict.passed(), "{verdict}");
        assert!(verdict.notes[0].contains("explored 64 of 2^66"), "{verdict}");
    }

    #[test]
    fn designs_without_shared_modules_skip_the_scheduler_fuzzing() {
        let mut n = elastic_core::Netlist::new("plain");
        let src = n.add_source("src", elastic_core::SourceSpec::always());
        let sink = n.add_sink("sink", elastic_core::SinkSpec::always_ready());
        n.connect(elastic_core::Port::output(src, 0), elastic_core::Port::input(sink, 0), 8)
            .unwrap();
        let verdict = explore_adversarial_schedulers(&n, &ExplorationOptions::default()).unwrap();
        assert!(verdict.passed());
    }
}
