//! Bounded exhaustive and randomized exploration of environment behaviour.
//!
//! The paper verifies its controllers with NuSMV over *all* environment
//! behaviours. This reproduction substitutes two dynamic techniques
//! (documented in `DESIGN.md`):
//!
//! * **bounded exhaustive exploration** — for a small depth `d`, every
//!   combination of per-cycle sink back-pressure *and* source token-offer
//!   patterns is enumerated (2^(d·(sinks+sources)) combinations, simulated
//!   64 at a time by the bit-parallel lane engine) and the SELF protocol
//!   plus deadlock-freedom are checked on each run. For the small
//!   controller compositions the paper verifies, this covers the same
//!   environment nondeterminism the model checker explores, up to the
//!   bound;
//! * **randomized adversarial scheduling** — shared modules are driven by
//!   seeded random schedulers (which on their own do not satisfy leads-to) to
//!   confirm that the controller's starvation override keeps the system live
//!   regardless of the prediction policy, as claimed in Section 4.2. The
//!   runs are packed into lane blocks via the engine's lane-blocked
//!   scheduler injection, one seeded scheduler per lane.

use elastic_core::kind::{BackpressurePattern, SourcePattern};
use elastic_core::{Netlist, NodeKind, Scheduler};
use elastic_predict::RandomScheduler;
use elastic_sim::sweep::lane_map;
use elastic_sim::{LaneConfig, LaneSimulation, SchedulerFactory, SimError, Trace, LANES};

use crate::liveness::{check_leads_to_on_trace, LivenessOptions};
use crate::properties::{check_trace, ProtocolOptions};
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

fn sinks_of(netlist: &Netlist) -> Vec<elastic_core::NodeId> {
    netlist.live_nodes().filter(|n| matches!(n.kind, NodeKind::Sink(_))).map(|n| n.id).collect()
}

fn sources_of(netlist: &Netlist) -> Vec<elastic_core::NodeId> {
    netlist.live_nodes().filter(|n| matches!(n.kind, NodeKind::Source(_))).map(|n| n.id).collect()
}

/// Every shared module of `netlist` with its user count.
pub(crate) fn shared_modules_of(netlist: &Netlist) -> Vec<(elastic_core::NodeId, usize)> {
    netlist
        .live_nodes()
        .filter_map(|n| match &n.kind {
            NodeKind::Shared(spec) => Some((n.id, spec.users)),
            _ => None,
        })
        .collect()
}

/// Exhaustively enumerates sink back-pressure and source token-offer
/// patterns up to the configured depth and checks protocol compliance and
/// progress on every run.
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
/// environment combinations per run. Results are collected in combination
/// order, making the merged verdict (and the first counterexample reported
/// for a failing design) identical to the sequential rebuild-per-run
/// enumeration this replaces.
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
        let sink_overrides: Vec<(elastic_core::NodeId, Vec<BackpressurePattern>)> = sinks
            .iter()
            .enumerate()
            .map(|(sink_index, &sink)| {
                let patterns = block
                    .iter()
                    .map(|&combination| {
                        let mut pattern = Vec::with_capacity(options.pattern_depth);
                        for cycle in 0..options.pattern_depth {
                            let bit = sink_index * options.pattern_depth + cycle;
                            pattern.push((combination >> bit) & 1 == 1);
                        }
                        BackpressurePattern::List(pattern)
                    })
                    .collect();
                (sink, patterns)
            })
            .collect();
        let source_overrides: Vec<(elastic_core::NodeId, Vec<SourcePattern>)> = sources
            .iter()
            .enumerate()
            .map(|(source_index, &source)| {
                let patterns = block
                    .iter()
                    .map(|&combination| {
                        let mut pattern = Vec::with_capacity(options.pattern_depth);
                        for cycle in 0..options.pattern_depth {
                            let bit = (sinks.len() + source_index) * options.pattern_depth + cycle;
                            // A set source bit withholds the offer, so
                            // combination 0 keeps the nominal
                            // always-offering environment.
                            pattern.push((combination >> bit) & 1 == 0);
                        }
                        SourcePattern::List(pattern)
                    })
                    .collect();
                (source, patterns)
            })
            .collect();
        // Both overrides persist across the reset the second call
        // performs, so the block ends up with this combination set's sink
        // *and* source environments (depth 0 enumerates the single empty
        // pattern — leave the specs' own patterns in force).
        if options.pattern_depth > 0 {
            sim.reset_with_lane_sink_patterns(&sink_overrides);
            sim.reset_with_lane_source_patterns(&source_overrides);
        } else {
            sim.reset();
        }
    };
    let cycles = options.cycles_per_run.max(1);
    let failures = sweep_lane_blocks(netlist, &runs, cycles, setup, |combination, trace| {
        let run_verdict = check_trace(netlist, trace, &protocol);
        (!run_verdict.passed())
            .then(|| format!("environment combination {combination}: {run_verdict}"))
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
    let protocol = ProtocolOptions::default();
    let liveness =
        LivenessOptions { cycles: options.cycles_per_run.max(200), ..LivenessOptions::default() };
    let scheduler_seed = |run: usize| -> u64 { options.seed ^ ((run as u64 + 1) * 0x9E37_79B9) };
    let runs: Vec<usize> = (0..options.random_scheduler_runs).collect();
    let setup = |sim: &mut LaneSimulation, block: &[usize]| {
        // Lane ℓ replays run `block[ℓ]`; lanes past a short final block
        // repeat the last run's seed and are never inspected.
        let factories: Vec<(elastic_core::NodeId, Box<SchedulerFactory<'_>>)> = shared
            .iter()
            .map(|&(node, users)| {
                let make: Box<SchedulerFactory<'_>> = Box::new(move |lane| {
                    let run = block[lane.min(block.len() - 1)];
                    Box::new(RandomScheduler::new(users, scheduler_seed(run))) as Box<dyn Scheduler>
                });
                (node, make)
            })
            .collect();
        let overrides: Vec<(elastic_core::NodeId, &SchedulerFactory<'_>)> =
            factories.iter().map(|(node, make)| (*node, make.as_ref())).collect();
        sim.reset_with_schedulers(&overrides);
    };
    let failures = sweep_lane_blocks(netlist, &runs, liveness.cycles, setup, |run, trace| {
        let mut run_verdict = check_trace(netlist, trace, &protocol);
        run_verdict.merge(check_leads_to_on_trace(netlist, trace, &liveness));
        (!run_verdict.passed()).then(|| format!("adversarial scheduler run {run}: {run_verdict}"))
    })?;
    verdict.violations.extend(failures);
    Ok(verdict)
}

/// Sweeps `runs` in [`LANES`]-wide blocks through [`lane_map`], with one
/// [`LaneSimulation`] per worker thread: `setup` resets the simulation with
/// one block's lane environments, the block runs for `cycles`, and `judge`
/// checks each lane's trace, returning the run's violation, if any.
///
/// Returns the violations in run order. A block whose build or run fails
/// reports its error at its first run, and the lowest such error is
/// returned instead.
fn sweep_lane_blocks(
    netlist: &Netlist,
    runs: &[usize],
    cycles: u64,
    setup: impl Fn(&mut LaneSimulation, &[usize]) + Sync,
    judge: impl Fn(usize, &Trace) -> Option<String> + Sync,
) -> Result<Vec<String>, SimError> {
    let config = LaneConfig::default();
    let failures = lane_map(
        runs,
        || LaneSimulation::new(netlist, &config),
        |worker_sim, _, block| -> Vec<Result<Option<String>, SimError>> {
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
            if let Err(error) = sim.run(cycles) {
                return block_failed(error);
            }
            block.iter().enumerate().map(|(lane, &run)| Ok(judge(run, sim.trace(lane)))).collect()
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
    use elastic_core::library::{fig1d, table1, Fig1Config};
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
