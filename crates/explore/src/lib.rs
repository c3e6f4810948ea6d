//! Auto-speculation design-space exploration.
//!
//! The paper presents speculation as a correct-by-construction transform
//! whose *profitability* is a search problem: which multiplexor to
//! speculate, how deep the in-order commit stage should run ahead, where the
//! recovery buffer goes, and which scheduler drives the shared module. This
//! crate closes that loop. [`explore`] enumerates the candidate grid
//! ([`grid::enumerate_candidates`]), applies each point with the existing
//! atomic [`elastic_core::transform::speculate`] pass on a cloned netlist,
//! scores survivors by simulated steady-state throughput against the
//! [`elastic_analysis::cost::CostModel`] area/latency estimate, and returns
//! a deterministic Pareto front.
//!
//! # The pruning ladder
//!
//! Scoring every grid point at full horizon would dominate the search cost,
//! so candidates descend a three-rung ladder:
//!
//! 1. **static cost bound** — candidates whose area exceeds
//!    [`ExploreOptions::max_area_ratio`] × the baseline area are dropped
//!    before any simulation;
//! 2. **short-horizon sim** — survivors are measured for
//!    [`ExploreOptions::short_cycles`]; a candidate is dropped only when
//!    another candidate that costs no more area *and* no more cycle time
//!    out-scores it by 2×;
//! 3. **full-horizon confirm** — the remainder is measured for
//!    [`ExploreOptions::cycles`] and Pareto-partitioned.
//!
//! Nothing is dropped silently: every rung records what it cut and why in
//! [`ExploreReport::pruned`], transform rejections surface in
//! [`ExploreReport::skipped`] with the transform's own reason, and
//! [`ExploreReport::accounted`] ties the books back to the enumerated grid.
//!
//! # Soundness via the battery
//!
//! A front is only trustworthy if every member is *correct*, not just fast:
//! with [`ExploreOptions::verify`] on (the default), every front member must
//! pass [`elastic_verify::check_transform_battery`] against the input
//! design. Members that fail move to [`ExploreReport::skipped`] and the
//! front is re-partitioned, so the returned front is sound by construction.
//!
//! # Determinism
//!
//! Scores are a pure function of `(netlist, seed, cycles)`: environment
//! grids derive from the explorer seed and sink *names*, dominance and
//! pruning quantify over whole candidate sets, and every returned list is
//! canonically sorted. The front is therefore invariant under worker count
//! ([`ExploreOptions::sequential`] forces a single-threaded search that must
//! agree with the parallel one) and candidate enumeration order
//! ([`ExploreOptions::shuffle_seed`] deliberately scrambles it in tests).
//!
//! ```
//! use elastic_core::library::{fig1a, Fig1Config};
//! use elastic_explore::{explore, ExploreOptions};
//!
//! let handles = fig1a(&Fig1Config::default());
//! let options = ExploreOptions {
//!     cycles: 256,
//!     short_cycles: 64,
//!     environments: 2,
//!     verify: false, // examples keep the doc test cheap; the default is on
//!     ..ExploreOptions::default()
//! };
//! let report = explore(&handles.netlist, &options)?;
//! assert!(!report.front.is_empty());
//! assert_eq!(report.accounted(), report.candidates_enumerated);
//! # Ok::<(), elastic_explore::ExploreError>(())
//! ```

#![warn(missing_docs)]

pub mod grid;
pub mod pareto;
pub mod score;

use elastic_analysis::cost::CostModel;
use elastic_core::kind::{BufferSpec, SchedulerKind};
use elastic_core::mix::splitmix64;
use elastic_core::{CoreError, Netlist};
use elastic_sim::sweep::parallel_map;
use elastic_verify::liveness::LivenessOptions;
use elastic_verify::{check_transform_battery, BatteryOptions};

pub use grid::{enumerate_candidates, SiteKind, SpecConfig};
pub use pareto::{dominates, partition_front, ParetoPoint};
pub use score::{environment_grid, measure, CommitSummary, EnvironmentGrid, Measured};

/// Configuration of one [`explore`] run.
#[derive(Debug, Clone, PartialEq)]
pub struct ExploreOptions {
    /// Commit depths enumerated on feed-forward sites.
    pub depths: Vec<u32>,
    /// Scheduler policies enumerated per site.
    pub schedulers: Vec<SchedulerKind>,
    /// Recovery-buffer placements enumerated per site (`None` = direct
    /// connection).
    pub recovery: Vec<Option<BufferSpec>>,
    /// Full-horizon measurement length (rung 3; clamped to at least 1).
    pub cycles: u64,
    /// Short-horizon measurement length (rung 2; clamped to at least 1).
    pub short_cycles: u64,
    /// Number of sink back-pressure environments each design is scored
    /// under (clamped to at least 1; environment 0 is always the design's
    /// declared environment).
    pub environments: usize,
    /// Seed of the environment grid.
    pub seed: u64,
    /// Rung-1 bound: candidates whose area exceeds this multiple of the
    /// baseline area are pruned statically.
    pub max_area_ratio: f64,
    /// Run [`elastic_verify::check_transform_battery`] on every front
    /// member, evicting failures from the front.
    pub verify: bool,
    /// Simulation length of the verification battery.
    pub verify_cycles: u64,
    /// Force single-threaded scoring. The result must be identical to the
    /// parallel search — the property tests compare the two.
    pub sequential: bool,
    /// Deliberately shuffle the candidate order before scoring (testing
    /// hook; the report must be invariant under it).
    pub shuffle_seed: Option<u64>,
}

impl Default for ExploreOptions {
    fn default() -> Self {
        ExploreOptions {
            depths: vec![1, 2, 4],
            schedulers: vec![
                SchedulerKind::Static(0),
                SchedulerKind::LastTaken,
                SchedulerKind::TwoBit,
                SchedulerKind::Confidence { max_confidence: 2 },
            ],
            recovery: vec![None],
            cycles: 4096,
            short_cycles: 512,
            environments: 4,
            seed: 0,
            max_area_ratio: 4.0,
            verify: true,
            verify_cycles: 192,
            sequential: false,
            shuffle_seed: None,
        }
    }
}

/// A candidate the search could not score: the transform refused it, or its
/// simulation / verification failed. Skips are part of the result — a
/// rejected point is information about the design space, not a silent hole
/// in the grid.
#[derive(Debug, Clone, PartialEq)]
pub struct SkippedCandidate {
    /// The configuration that was skipped.
    pub config: SpecConfig,
    /// Why (the transform's own precondition message, the simulation error,
    /// or the battery's violations).
    pub reason: String,
}

/// A candidate cut by the pruning ladder, with the rung and the evidence.
#[derive(Debug, Clone, PartialEq)]
pub struct PrunedCandidate {
    /// The configuration that was pruned.
    pub config: SpecConfig,
    /// Why this rung cut it.
    pub detail: String,
}

/// Everything the pruning ladder dropped, per rung. [`explore`] never caps
/// or truncates silently: these records (and their counts) are the complete
/// list of candidates that were not fully scored.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PruneLadder {
    /// Rung 1: static area bound.
    pub area_bound: Vec<PrunedCandidate>,
    /// Rung 2: out-scored at the short horizon by a no-costlier candidate.
    pub short_horizon: Vec<PrunedCandidate>,
}

impl PruneLadder {
    /// Total candidates pruned across all rungs.
    pub fn total(&self) -> usize {
        self.area_bound.len() + self.short_horizon.len()
    }

    /// `(rung name, count)` pairs, in ladder order.
    pub fn counts(&self) -> [(&'static str, usize); 2] {
        [("area-bound", self.area_bound.len()), ("short-horizon", self.short_horizon.len())]
    }
}

/// Scores of the unmodified input design under the same grid.
#[derive(Debug, Clone, PartialEq)]
pub struct Baseline {
    /// Mean throughput over the environment grid.
    pub throughput: f64,
    /// Total area (gate equivalents).
    pub area: f64,
    /// Cycle time (logic levels).
    pub latency: f64,
}

/// The result of one [`explore`] run.
#[derive(Debug, Clone, PartialEq)]
pub struct ExploreReport {
    /// The unmodified design's scores, for reference.
    pub baseline: Baseline,
    /// The Pareto front, canonically sorted. With
    /// [`ExploreOptions::verify`] on, every member passed the transform
    /// battery.
    pub front: Vec<ParetoPoint>,
    /// Fully scored points dominated by the front, canonically sorted.
    pub dominated: Vec<ParetoPoint>,
    /// Candidates the search could not score, with reasons.
    pub skipped: Vec<SkippedCandidate>,
    /// Candidates cut by the pruning ladder, per rung.
    pub pruned: PruneLadder,
    /// Size of the enumerated grid. Always equals [`ExploreReport::accounted`].
    pub candidates_enumerated: usize,
    /// Human-readable coverage notes (per-rung counts, clamps applied).
    pub notes: Vec<String>,
}

impl ExploreReport {
    /// Number of candidates the report accounts for: front + dominated +
    /// skipped + pruned. The explorer guarantees this equals
    /// [`ExploreReport::candidates_enumerated`] — the no-silent-truncation
    /// contract.
    pub fn accounted(&self) -> usize {
        self.front.len() + self.dominated.len() + self.skipped.len() + self.pruned.total()
    }

    /// The front member with the highest throughput (ties broken by the
    /// canonical config order).
    pub fn best_throughput(&self) -> Option<&ParetoPoint> {
        self.front.iter().reduce(|best, p| if p.throughput > best.throughput { p } else { best })
    }

    /// The front member with the highest throughput per unit area (ties
    /// broken by the canonical config order).
    pub fn best_per_area(&self) -> Option<&ParetoPoint> {
        self.front.iter().reduce(|best, p| {
            if p.throughput_per_area() > best.throughput_per_area() {
                p
            } else {
                best
            }
        })
    }
}

/// Failure of the search itself (as opposed to one candidate's failure,
/// which is reported in [`ExploreReport::skipped`]).
#[derive(Debug)]
pub enum ExploreError {
    /// The input netlist does not validate.
    InvalidNetlist(CoreError),
    /// The unmodified input design failed to build or simulate, so there is
    /// no baseline to score against.
    Baseline(String),
}

impl std::fmt::Display for ExploreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExploreError::InvalidNetlist(e) => write!(f, "input netlist does not validate: {e}"),
            ExploreError::Baseline(e) => write!(f, "baseline measurement failed: {e}"),
        }
    }
}

impl std::error::Error for ExploreError {}

/// One applied candidate: the transformed clone plus its static costs.
struct Applied {
    config: SpecConfig,
    netlist: Netlist,
    area: f64,
    latency: f64,
}

/// Rung-2 margin: a candidate is pruned only when a no-costlier candidate
/// out-scores it by this factor at the short horizon.
const SHORT_MARGIN: f64 = 2.0;

/// Fisher–Yates driven by a SplitMix64 stream: the testing hook behind
/// [`ExploreOptions::shuffle_seed`].
fn shuffle<T>(items: &mut [T], seed: u64) {
    let mut state = seed;
    for i in (1..items.len()).rev() {
        state = splitmix64(state);
        let j = (state % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}

/// Maps `f` over `items` — in parallel through the sweep pool, or serially
/// when `sequential` is set. Both paths return input-order results, and `f`
/// is pure per item, so the outputs are identical; the flag exists so tests
/// can prove that.
fn map_candidates<T, R, F>(items: &[T], sequential: bool, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    if sequential {
        items.iter().map(&f).collect()
    } else {
        parallel_map(items, |_, item| f(item))
    }
}

/// Explores the speculation design space of `netlist` under `options`.
///
/// See the crate documentation for the candidate grid, the pruning ladder,
/// the soundness contract, and the determinism guarantees.
///
/// # Errors
///
/// Fails only when the *input* is unusable — it does not validate, or its
/// baseline cannot be simulated. Per-candidate failures are reported in
/// [`ExploreReport::skipped`] instead.
pub fn explore(netlist: &Netlist, options: &ExploreOptions) -> Result<ExploreReport, ExploreError> {
    netlist.validate().map_err(ExploreError::InvalidNetlist)?;
    let model = CostModel::default();
    let env = environment_grid(netlist, options.environments, options.seed);
    let cycles = options.cycles.max(1);
    let short_cycles = options.short_cycles.max(1);

    let (base_area, base_latency) = score::static_cost(netlist, &model);
    let base = measure(netlist, &env, cycles).map_err(ExploreError::Baseline)?;
    let baseline = Baseline { throughput: base.throughput, area: base_area, latency: base_latency };

    let mut candidates = enumerate_candidates(netlist, options);
    let candidates_enumerated = candidates.len();
    if let Some(seed) = options.shuffle_seed {
        shuffle(&mut candidates, seed);
    }

    let mut notes = Vec::new();
    let mut skipped: Vec<SkippedCandidate> = Vec::new();
    let mut pruned = PruneLadder::default();

    // Apply phase: one atomic `speculate` per candidate on a fresh clone.
    // Transform rejections become skips carrying the transform's own reason.
    let mut applied: Vec<Applied> = Vec::new();
    for config in candidates {
        let mut clone = netlist.clone();
        match config.apply(&mut clone) {
            Ok(_) => {
                let (area, latency) = score::static_cost(&clone, &model);
                applied.push(Applied { config, netlist: clone, area, latency });
            }
            Err(CoreError::Precondition { reason, .. }) => {
                skipped.push(SkippedCandidate { config, reason });
            }
            Err(other) => {
                skipped.push(SkippedCandidate { config, reason: other.to_string() });
            }
        }
    }

    // Rung 1: static area bound. Complete by construction for the *bound*
    // the caller asked for — everything cut here is recorded.
    let area_cap = options.max_area_ratio * base_area;
    let (survivors, cut): (Vec<Applied>, Vec<Applied>) =
        applied.into_iter().partition(|a| a.area <= area_cap);
    for a in cut {
        pruned.area_bound.push(PrunedCandidate {
            config: a.config,
            detail: format!(
                "area {:.1} GE exceeds the bound {:.1} GE ({}x baseline {:.1} GE)",
                a.area, area_cap, options.max_area_ratio, base_area
            ),
        });
    }

    // Rung 2: short-horizon scores. A candidate is cut only when another
    // candidate that costs no more (area and cycle time) out-scores it by
    // the margin — a set-level rule, independent of candidate order.
    let short: Vec<Result<Measured, String>> =
        map_candidates(&survivors, options.sequential, |a: &Applied| {
            measure(&a.netlist, &env, short_cycles)
        });
    let mut scored_short: Vec<(Applied, f64)> = Vec::new();
    for (a, result) in survivors.into_iter().zip(short) {
        match result {
            Ok(measured) => scored_short.push((a, measured.throughput)),
            Err(reason) => skipped.push(SkippedCandidate {
                config: a.config,
                reason: format!("simulation (short horizon): {reason}"),
            }),
        }
    }
    let keep: Vec<bool> = scored_short
        .iter()
        .map(|(a, t)| {
            !scored_short.iter().any(|(b, bt)| {
                !std::ptr::eq(a, b)
                    && b.area <= a.area
                    && b.latency <= a.latency
                    && *bt > 0.0
                    && *bt >= SHORT_MARGIN * t
            })
        })
        .collect();
    let mut finalists: Vec<Applied> = Vec::new();
    for ((a, t), keep) in scored_short.into_iter().zip(keep) {
        if keep {
            finalists.push(a);
        } else {
            pruned.short_horizon.push(PrunedCandidate {
                config: a.config,
                detail: format!(
                    "short-horizon throughput {t:.4} tok/cyc out-scored {SHORT_MARGIN}x by a \
                     no-costlier candidate"
                ),
            });
        }
    }

    // Rung 3: full-horizon confirmation of the finalists.
    let full: Vec<Result<Measured, String>> =
        map_candidates(&finalists, options.sequential, |a: &Applied| {
            measure(&a.netlist, &env, cycles)
        });
    let mut points: Vec<(ParetoPoint, Netlist)> = Vec::new();
    for (a, result) in finalists.into_iter().zip(full) {
        match result {
            Ok(measured) => points.push((
                ParetoPoint {
                    config: a.config,
                    throughput: measured.throughput,
                    area: a.area,
                    latency: a.latency,
                    commit_stats: measured.commit,
                },
                a.netlist,
            )),
            Err(reason) => skipped.push(SkippedCandidate {
                config: a.config,
                reason: format!("simulation (full horizon): {reason}"),
            }),
        }
    }

    // Partition, then enforce the soundness contract: every front member
    // must pass the transform battery. Evicting a failure can promote a
    // dominated point onto the front, so the loop re-partitions until the
    // whole front is verified.
    let battery_options = BatteryOptions {
        cycles: options.verify_cycles,
        liveness: LivenessOptions { cycles: options.verify_cycles, ..LivenessOptions::default() },
        check_protocol: true,
    };
    let (mut front, mut dominated) = pareto::partition_front_owned(points);
    if options.verify {
        let mut verified: Vec<String> = Vec::new();
        loop {
            let mut evict: Option<(usize, String)> = None;
            for (i, (point, transformed)) in front.iter().enumerate() {
                let label = point.config.label();
                if verified.contains(&label) {
                    continue;
                }
                match check_transform_battery(netlist, transformed, &battery_options) {
                    Ok(verdict) if verdict.passed() => verified.push(label),
                    Ok(verdict) => {
                        evict =
                            Some((i, format!("verify battery: {}", verdict.violations.join("; "))));
                        break;
                    }
                    Err(e) => {
                        evict = Some((i, format!("verify battery: simulation failed: {e}")));
                        break;
                    }
                }
            }
            match evict {
                None => break,
                Some((i, reason)) => {
                    let (point, _) = front.remove(i);
                    skipped.push(SkippedCandidate { config: point.config, reason });
                    let mut pool: Vec<(ParetoPoint, Netlist)> = Vec::new();
                    pool.append(&mut front);
                    pool.append(&mut dominated);
                    let repartitioned = pareto::partition_front_owned(pool);
                    front = repartitioned.0;
                    dominated = repartitioned.1;
                }
            }
        }
    } else {
        notes.push("front members were NOT verified (ExploreOptions::verify off)".to_string());
    }

    let mut front: Vec<ParetoPoint> = front.into_iter().map(|(p, _)| p).collect();
    let mut dominated: Vec<ParetoPoint> = dominated.into_iter().map(|(p, _)| p).collect();
    front.sort_by_key(|p| p.config.rank_key());
    dominated.sort_by_key(|p| p.config.rank_key());
    skipped.sort_by_key(|s| s.config.rank_key());
    pruned.area_bound.sort_by_key(|p| p.config.rank_key());
    pruned.short_horizon.sort_by_key(|p| p.config.rank_key());

    notes.push(format!(
        "{} candidates enumerated: {} on the front, {} dominated, {} skipped, {} pruned \
         ({} at the area bound, {} at the short horizon)",
        candidates_enumerated,
        front.len(),
        dominated.len(),
        skipped.len(),
        pruned.total(),
        pruned.area_bound.len(),
        pruned.short_horizon.len(),
    ));
    if options.environments == 0 {
        notes.push("environments clamped from 0 to 1 (the declared environment)".to_string());
    }
    if options.cycles == 0 {
        notes.push("cycles clamped from 0 to 1 (a zero horizon has no throughput)".to_string());
    }
    if options.short_cycles == 0 {
        notes.push(
            "short_cycles clamped from 0 to 1 (a zero horizon has no throughput)".to_string(),
        );
    }

    let report =
        ExploreReport { baseline, front, dominated, skipped, pruned, candidates_enumerated, notes };
    debug_assert_eq!(report.accounted(), report.candidates_enumerated);
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use elastic_core::library::{fig1a, Fig1Config};

    #[test]
    fn zero_horizons_are_clamped_to_one_cycle_with_a_note() {
        let handles = fig1a(&Fig1Config::default());
        let small = ExploreOptions {
            cycles: 256,
            short_cycles: 64,
            environments: 2,
            verify: false,
            ..ExploreOptions::default()
        };
        for (options, note) in [
            (ExploreOptions { cycles: 0, ..small.clone() }, "cycles clamped from 0 to 1"),
            (
                ExploreOptions { short_cycles: 0, ..small.clone() },
                "short_cycles clamped from 0 to 1",
            ),
        ] {
            let report = explore(&handles.netlist, &options).unwrap();
            assert!(report.baseline.throughput.is_finite(), "{note}: {:?}", report.baseline);
            for point in report.front.iter().chain(&report.dominated) {
                assert!(point.throughput.is_finite(), "{note}: {point:?}");
            }
            for cut in &report.pruned.short_horizon {
                assert!(!cut.detail.contains("NaN"), "{note}: {cut:?}");
            }
            let clamps: Vec<&String> =
                report.notes.iter().filter(|n| n.contains("clamped")).collect();
            assert_eq!(clamps.len(), 1, "{note}: {:?}", report.notes);
            assert!(clamps[0].starts_with(note), "{note}: {clamps:?}");
        }
    }
}
