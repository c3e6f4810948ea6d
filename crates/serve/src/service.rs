//! The fault-tolerant design service.
//!
//! A [`Service`] owns a pool of worker threads draining a sharded, bounded
//! [`JobQueue`] of netlist jobs. Each job runs one
//! of two pipelines over the design — the full transform-and-verify
//! `Gauntlet` from `elastic-gen`, or the `Verify` pipeline (deadlock
//! freedom, bounded environment exploration, and a back-pressure sweep that
//! builds **one** simulation per job and replays scenarios through the
//! reset path). Around the pipelines sit four robustness layers:
//!
//! * **Containment** — every attempt runs under `catch_unwind` and a
//!   per-job wall-clock deadline (the gauntlet's own watchdog, and
//!   cooperative deadlines in the verify sweep), so a panicking or wedged
//!   design costs one attempt, never a worker or the service.
//! * **Retry / timeout / backoff** — *transient* failures (deadline,
//!   panic, worker death, storm-perturbed self-test runs) are retried under
//!   a bounded budget with seeded-jitter exponential backoff. *Permanent*
//!   failures (validation errors, refuted invariants) fail fast, with a
//!   deadlock diagnosis attached when liveness is what broke.
//! * **Graceful degradation** — past the queue's soft watermark jobs are
//!   processed in degraded mode (truncated exploration, honestly flagged
//!   non-exhaustive); past the hard bound they are shed at admission.
//! * **Content-addressed caching** — results are keyed by the canonical
//!   structural hash, checksummed, and re-verified on every read; the
//!   append-only journal makes completed/pending state crash-recoverable.
//!
//! A killed worker (the chaos tests exercise this deliberately) leaves its
//! job registered in the in-flight table; the supervisor thread notices the
//! dead thread, requeues the orphan as a transient retry, and respawns the
//! worker. Zero accepted jobs are ever lost — the chaos acceptance test
//! audits exactly that via the journal.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use elastic_core::kind::{BackpressurePattern, NodeKind};
use elastic_core::Netlist;
use elastic_explore::{explore, ExploreOptions};
use elastic_gen::{generate, run_netlist, GenConfig, GenRng, HarnessOptions};
use elastic_sim::{FaultKind, FaultPlan, FaultSpec, SimConfig, Simulation};
use elastic_verify::exploration::{explore_environments, ExplorationOptions};
use elastic_verify::liveness::{
    check_deadlock_freedom, diagnose_deadlock_on_trace, LivenessOptions,
};

use crate::cache::{CacheKey, ResultCache};
use crate::hash::{structural_hash, Fnv};
use crate::journal::{Journal, Record, Recovery};
use crate::queue::{Admission, JobQueue};
use crate::report::{decode, JobReport};

/// Which pipeline a job runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PipelineKind {
    /// The full `elastic-gen` differential gauntlet: transforms applied and
    /// equivalence-checked against the untransformed design.
    Gauntlet,
    /// Deadlock freedom + bounded environment exploration + a back-pressure
    /// sweep through the one-build-per-job reset path.
    Verify,
    /// The auto-speculation design-space explorer: enumerate, score and
    /// Pareto-rank speculation candidates, every front member verified
    /// against the submitted design.
    Explore,
}

impl PipelineKind {
    /// The token the journal records for this pipeline.
    pub fn name(self) -> &'static str {
        match self {
            PipelineKind::Gauntlet => "gauntlet",
            PipelineKind::Verify => "verify",
            PipelineKind::Explore => "explore",
        }
    }

    /// Inverse of [`name`](Self::name); `None` for tokens journalled by a
    /// future version.
    pub fn from_name(name: &str) -> Option<PipelineKind> {
        match name {
            "gauntlet" => Some(PipelineKind::Gauntlet),
            "verify" => Some(PipelineKind::Verify),
            "explore" => Some(PipelineKind::Explore),
            _ => None,
        }
    }
}

/// Where a job's netlist comes from.
#[derive(Debug, Clone)]
pub enum JobSource {
    /// Regenerate from an `elastic-gen` seed under a named preset
    /// (`default`, `pipelines`, `loops`, `small`). Seeded jobs are the only
    /// ones the journal can resume after a crash — the recipe is the
    /// persistence.
    Seeded {
        /// Generator seed.
        seed: u64,
        /// Generator preset name.
        preset: String,
    },
    /// An explicit netlist. Journalled for accounting but not resumable.
    Inline(Box<Netlist>),
}

/// A unit of work for the service.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Netlist recipe.
    pub source: JobSource,
    /// Pipeline to run over it.
    pub pipeline: PipelineKind,
}

impl JobSpec {
    /// Convenience constructor for the common seeded case.
    pub fn seeded(seed: u64, preset: &str, pipeline: PipelineKind) -> JobSpec {
        JobSpec { source: JobSource::Seeded { seed, preset: preset.to_string() }, pipeline }
    }
}

/// Terminal state of a submitted job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobOutcome {
    /// The pipeline ran (or its result was already cached) and passed.
    Completed {
        /// The aggregate report.
        report: JobReport,
        /// Served from the cache without running the pipeline.
        cache_hit: bool,
        /// Attempts consumed (0 for cache hits, 1 for a clean first run).
        attempts: u32,
    },
    /// The pipeline refuted an invariant or the input was invalid; retrying
    /// cannot help.
    FailedPermanent {
        /// What failed.
        reason: String,
        /// Wait-graph deadlock diagnosis, when liveness is what broke.
        diagnosis: Option<String>,
        /// Attempts consumed.
        attempts: u32,
    },
    /// Admission control refused the job (queue at its hard bound).
    Shed,
}

impl JobOutcome {
    /// `true` for the two `Completed` shapes.
    pub fn is_completed(&self) -> bool {
        matches!(self, JobOutcome::Completed { .. })
    }
}

/// Periodic fault self-injection, for exercising the robustness layers
/// against *known* faults (the service-level analogue of the fault
/// campaign's self-test mode). A period of 0 disables that fault class;
/// otherwise every job whose id is divisible by the period is hit on its
/// first attempt — deterministic, so tests can predict exactly which jobs
/// must travel the retry path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SelfTest {
    /// Panic inside the worker attempt (exercises `catch_unwind`
    /// containment + retry).
    pub panic_period: u64,
    /// Wedge past the case deadline (exercises timeout + retry).
    pub wedge_period: u64,
    /// Arm a genuine stall-storm burst against the design mid-sweep and
    /// classify the perturbed run transient (exercises fault-flagged
    /// retry).
    pub storm_period: u64,
}

impl SelfTest {
    fn applies(period: u64, job: u64) -> bool {
        period != 0 && job.is_multiple_of(period)
    }
}

/// Service tuning knobs.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Worker threads.
    pub workers: usize,
    /// Queue shards (independent admission locks).
    pub queue_shards: usize,
    /// Hard admission bound: beyond this depth, submissions shed.
    pub queue_capacity: usize,
    /// Soft watermark: beyond this depth, accepted jobs run degraded.
    pub degrade_depth: usize,
    /// Cache shards.
    pub cache_shards: usize,
    /// Cache capacity (entries, FIFO-bounded).
    pub cache_capacity: usize,
    /// Transient-failure retries per job after the first attempt.
    pub retry_budget: u32,
    /// Base of the exponential backoff.
    pub backoff_base: Duration,
    /// Cap on a single backoff delay (before jitter).
    pub backoff_cap: Duration,
    /// Per-attempt wall-clock budget.
    pub case_deadline: Duration,
    /// Gauntlet pipeline options (`case_deadline` is overridden by the
    /// field above so both pipelines share one budget).
    pub harness: HarnessOptions,
    /// Full-fidelity exploration options for the verify pipeline.
    pub verify: ExplorationOptions,
    /// Truncated exploration options used in degraded mode.
    pub degraded_verify: ExplorationOptions,
    /// Design-space search options for the explore pipeline (the seed is
    /// overridden per job from the structural hash; degraded mode drops to
    /// the declared environment and half the horizon).
    pub explore: ExploreOptions,
    /// Back-pressure scenarios replayed per verify job through the reset
    /// path of a single simulation build.
    pub sweep_scenarios: u32,
    /// Cycles per sweep scenario.
    pub sweep_cycles: u64,
    /// Append-only journal path; `None` runs without crash recovery.
    pub journal_path: Option<PathBuf>,
    /// Seed for backoff jitter (forked per worker).
    pub seed: u64,
    /// Deterministic fault self-injection.
    pub self_test: SelfTest,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: 2,
            queue_shards: 4,
            queue_capacity: 64,
            degrade_depth: 48,
            cache_shards: 4,
            cache_capacity: 256,
            retry_budget: 3,
            backoff_base: Duration::from_millis(2),
            backoff_cap: Duration::from_millis(40),
            case_deadline: Duration::from_secs(5),
            harness: HarnessOptions::default(),
            verify: ExplorationOptions { max_runs: 64, ..ExplorationOptions::default() },
            degraded_verify: ExplorationOptions {
                max_runs: 8,
                random_scheduler_runs: 2,
                ..ExplorationOptions::default()
            },
            sweep_scenarios: 4,
            sweep_cycles: 96,
            explore: ExploreOptions {
                cycles: 512,
                short_cycles: 128,
                environments: 2,
                verify_cycles: 128,
                ..ExploreOptions::default()
            },
            journal_path: None,
            seed: 0x5e12_7e57,
            self_test: SelfTest::default(),
        }
    }
}

/// Counter snapshot from [`Service::stats`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ServiceStats {
    /// Jobs submitted (including shed and cache-served ones).
    pub submitted: u64,
    /// Jobs that reached `Completed`.
    pub completed: u64,
    /// Completions served straight from the cache.
    pub cache_hits: u64,
    /// Completions processed in degraded mode.
    pub degraded_completed: u64,
    /// Jobs that reached `FailedPermanent`.
    pub permanent_failures: u64,
    /// Transient failures that were retried.
    pub retries: u64,
    /// Jobs shed at admission.
    pub shed: u64,
    /// Worker threads that died mid-job and were respawned.
    pub worker_deaths: u64,
}

#[derive(Default)]
struct Counters {
    submitted: AtomicU64,
    completed: AtomicU64,
    cache_hits: AtomicU64,
    degraded_completed: AtomicU64,
    permanent_failures: AtomicU64,
    retries: AtomicU64,
    shed: AtomicU64,
    worker_deaths: AtomicU64,
}

#[derive(Clone)]
struct QueuedJob {
    id: u64,
    netlist: Arc<Netlist>,
    pipeline: PipelineKind,
    structural: u64,
    degraded: bool,
    attempt: u32,
}

enum AttemptError {
    /// Worth retrying: deadlines, panics, fault-perturbed runs.
    Transient(String),
    /// Retrying cannot change the answer: invalid inputs, refuted
    /// invariants.
    Permanent { reason: String, diagnosis: Option<String> },
}

struct Inner {
    config: ServiceConfig,
    queue: JobQueue<QueuedJob>,
    cache: ResultCache,
    journal: Option<Journal>,
    outcomes: Mutex<HashMap<u64, JobOutcome>>,
    outcome_signal: Condvar,
    in_flight: Mutex<HashMap<usize, QueuedJob>>,
    kill: Vec<AtomicBool>,
    halted: AtomicBool,
    shutting_down: AtomicBool,
    next_job: AtomicU64,
    counters: Counters,
    workers: Mutex<Vec<Option<JoinHandle<()>>>>,
}

/// Handle to a running service. Dropping it without calling
/// [`shutdown`](Service::shutdown) or [`halt`](Service::halt) shuts down
/// gracefully.
pub struct Service {
    inner: Arc<Inner>,
    supervisor: Option<JoinHandle<()>>,
}

/// Maps a preset name to its generator configuration.
pub fn preset_config(name: &str) -> Option<GenConfig> {
    match name {
        "default" => Some(GenConfig::default()),
        "pipelines" => Some(GenConfig::pipelines()),
        "loops" => Some(GenConfig::loops()),
        "small" => Some(GenConfig::small()),
        _ => None,
    }
}

fn pipeline_hash(config: &ServiceConfig, pipeline: PipelineKind, degraded: bool) -> u64 {
    // Everything that changes what a pipeline *means* must be in the key:
    // a cached result computed under different coverage options must not
    // shadow a rerun under stricter ones.
    let mut f = Fnv::new();
    f.write(pipeline.name().as_bytes()).write_u64(u64::from(degraded));
    match pipeline {
        PipelineKind::Gauntlet => {
            let h = &config.harness;
            f.write_u64(h.cycles)
                .write_u64(h.environment_variations as u64)
                .write_u64(h.structural_environment_variations as u64)
                .write_u64(h.max_structural_transforms as u64)
                .write_u64(u64::from(h.max_commit_depth))
                .write_u64(u64::from(h.include_acyclic_speculation));
        }
        PipelineKind::Verify => {
            let v = if degraded { &config.degraded_verify } else { &config.verify };
            f.write_u64(v.pattern_depth as u64)
                .write_u64(v.cycles_per_run)
                .write_u64(v.max_runs as u64)
                .write_u64(v.random_scheduler_runs as u64)
                .write_u64(v.seed)
                .write_u64(u64::from(config.sweep_scenarios))
                .write_u64(config.sweep_cycles);
        }
        PipelineKind::Explore => {
            let e = &config.explore;
            for &depth in &e.depths {
                f.write_u64(u64::from(depth));
            }
            // Scheduler/recovery grids are enum-valued; their debug form is
            // stable and canonical enough for a cache key.
            f.write(format!("{:?}{:?}", e.schedulers, e.recovery).as_bytes())
                .write_u64(e.cycles)
                .write_u64(e.short_cycles)
                .write_u64(e.environments as u64)
                .write_u64(e.max_area_ratio.to_bits())
                .write_u64(e.short_margin.to_bits())
                .write_u64(u64::from(e.verify))
                .write_u64(e.verify_cycles)
                .write_u64(u64::from(e.include_acyclic));
        }
    }
    f.finish()
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(message) = payload.downcast_ref::<&str>() {
        (*message).to_string()
    } else if let Some(message) = payload.downcast_ref::<String>() {
        message.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

impl Inner {
    fn journal(&self, record: &Record) {
        if let Some(journal) = &self.journal {
            // A failing journal write must not take the service down with
            // it; recovery simply has a shorter history.
            let _ = journal.append(record);
        }
    }

    fn record_outcome(&self, job: u64, outcome: JobOutcome) {
        match &outcome {
            JobOutcome::Completed { report, cache_hit, .. } => {
                self.counters.completed.fetch_add(1, Ordering::Relaxed);
                if *cache_hit {
                    self.counters.cache_hits.fetch_add(1, Ordering::Relaxed);
                }
                if report.degraded {
                    self.counters.degraded_completed.fetch_add(1, Ordering::Relaxed);
                }
            }
            JobOutcome::FailedPermanent { .. } => {
                self.counters.permanent_failures.fetch_add(1, Ordering::Relaxed);
            }
            JobOutcome::Shed => {
                self.counters.shed.fetch_add(1, Ordering::Relaxed);
            }
        }
        self.outcomes.lock().expect("outcome map poisoned").insert(job, outcome);
        self.outcome_signal.notify_all();
    }

    fn key(&self, job: &QueuedJob, degraded: bool) -> CacheKey {
        CacheKey {
            structural: job.structural,
            pipeline: pipeline_hash(&self.config, job.pipeline, degraded),
        }
    }

    /// Cache lookup honouring the full-⊇-degraded ordering: a degraded job
    /// is happy with a full-fidelity result, but a full job never accepts a
    /// degraded one.
    fn cached_report(&self, job: &QueuedJob) -> Option<JobReport> {
        if let Some(report) = self.cache.get(self.key(job, false)).as_deref().and_then(decode) {
            return Some(report);
        }
        if job.degraded {
            return self.cache.get(self.key(job, true)).as_deref().and_then(decode);
        }
        None
    }

    fn complete(&self, job: &QueuedJob, report: JobReport, cache_hit: bool, attempts: u32) {
        let outcome_token = if cache_hit {
            "ok-cached"
        } else if report.degraded {
            "ok-degraded"
        } else {
            "ok"
        };
        if !cache_hit {
            self.cache.insert(self.key(job, report.degraded), report.encode());
        }
        self.journal(&Record::Done { job: job.id, outcome: outcome_token.into() });
        self.record_outcome(job.id, JobOutcome::Completed { report, cache_hit, attempts });
    }

    fn fail_permanent(
        &self,
        job: &QueuedJob,
        reason: String,
        diagnosis: Option<String>,
        attempts: u32,
    ) {
        self.journal(&Record::Done { job: job.id, outcome: "failed-permanent".into() });
        self.record_outcome(job.id, JobOutcome::FailedPermanent { reason, diagnosis, attempts });
    }
}

fn backoff_delay(config: &ServiceConfig, attempt: u32, rng: &mut GenRng) -> Duration {
    // min(cap, base·2^(attempt-1)) plus up to +50% seeded jitter, so a
    // burst of same-class retries fans back out instead of thundering in
    // lock-step.
    let exponent = attempt.saturating_sub(1).min(16);
    let base = config.backoff_base.saturating_mul(1u32 << exponent).min(config.backoff_cap);
    let jitter_micros = match base.as_micros() as u64 / 2 {
        0 => 0,
        half => rng.below(half + 1),
    };
    base + Duration::from_micros(jitter_micros)
}

/// Attaches a wait-graph diagnosis to a liveness failure by replaying the
/// design and freezing the final stalled cycle.
fn diagnose(netlist: &Netlist, cycles: u64) -> Option<String> {
    let mut sim = Simulation::new(netlist, &SimConfig::default()).ok()?;
    let report = sim.run(cycles).ok()?;
    let last = report.cycles.checked_sub(1)? as usize;
    Some(diagnose_deadlock_on_trace(netlist, sim.trace(), last).to_string())
}

fn gauntlet_attempt(inner: &Inner, job: &QueuedJob) -> Result<JobReport, AttemptError> {
    let mut options = inner.config.harness.clone();
    options.case_deadline = inner.config.case_deadline;
    if job.degraded {
        // Degraded gauntlet: drop the environment-variation sweeps, the
        // widest (and most expensive) part of the check. Honest flagging
        // below — the report can never pass as exhaustive.
        options.environment_variations = 0;
        options.structural_environment_variations = 0;
    }
    // Seed the harness from the *structural hash*, not the job id: duplicate
    // submissions of one design must make identical rng-dependent choices,
    // or the cached report would describe a different run than a recompute.
    match run_netlist(&job.netlist, job.structural ^ inner.config.seed, &options) {
        Ok(report) => Ok(JobReport {
            pipeline: job.pipeline.name().into(),
            transforms: report.transforms.len() as u64,
            notes: report.notes.len() as u64,
            exhaustive: !job.degraded,
            degraded: job.degraded,
            cycles: options.cycles,
            sink_tokens: 0,
            throughput_milli: 0,
        }),
        Err(failure) if failure.stage == "watchdog" => {
            Err(AttemptError::Transient(format!("case deadline exceeded: {failure}")))
        }
        Err(failure) => {
            let diagnosis = failure
                .stage
                .contains("liveness")
                .then(|| diagnose(&failure.netlist, inner.config.sweep_cycles.max(192)))
                .flatten();
            Err(AttemptError::Permanent { reason: failure.to_string(), diagnosis })
        }
    }
}

fn verify_attempt(inner: &Inner, job: &QueuedJob) -> Result<JobReport, AttemptError> {
    let config = &inner.config;
    let deadline = Instant::now() + config.case_deadline;
    let overdue = |stage: &str| {
        if Instant::now() > deadline {
            Err(AttemptError::Transient(format!("case deadline exceeded after {stage}")))
        } else {
            Ok(())
        }
    };
    let sim_error = |error: elastic_sim::SimError| AttemptError::Permanent {
        reason: format!("simulation rejected the design: {error}"),
        diagnosis: None,
    };

    // Stage 1: liveness. A refuted verdict is permanent and ships with the
    // wait-graph diagnosis.
    let liveness =
        LivenessOptions { cycles: config.sweep_cycles.max(128), ..LivenessOptions::default() };
    let verdict = check_deadlock_freedom(&job.netlist, &liveness).map_err(sim_error)?;
    if !verdict.passed() {
        return Err(AttemptError::Permanent {
            reason: format!("liveness refuted: {}", verdict.violations.join("; ")),
            diagnosis: diagnose(&job.netlist, liveness.cycles),
        });
    }
    overdue("liveness")?;

    // Stage 2: bounded environment exploration, truncated in degraded mode.
    let options = if job.degraded { &config.degraded_verify } else { &config.verify };
    let exploration = explore_environments(&job.netlist, options).map_err(sim_error)?;
    if !exploration.passed() {
        return Err(AttemptError::Permanent {
            reason: format!(
                "environment exploration refuted: {}",
                exploration.violations.join("; ")
            ),
            diagnosis: None,
        });
    }
    overdue("exploration")?;

    // Stage 3: back-pressure sweep — one simulation build, every scenario
    // replayed through the reset path under the remaining deadline.
    let mut sim = Simulation::new(&job.netlist, &SimConfig::default()).map_err(sim_error)?;
    let sinks: Vec<_> = job
        .netlist
        .live_nodes()
        .filter(|n| matches!(n.kind, NodeKind::Sink(_)))
        .map(|n| n.id)
        .collect();
    let mut sink_tokens = 0u64;
    let mut cycles = 0u64;
    for scenario in 0..config.sweep_scenarios {
        let overrides: Vec<_> =
            sinks.iter().map(|&sink| (sink, BackpressurePattern::Every(2 + scenario))).collect();
        sim.reset_with_sink_patterns(&overrides);
        let report = sim.run_with_deadline(config.sweep_cycles, deadline).map_err(sim_error)?;
        if report.deadline_exceeded {
            return Err(AttemptError::Transient(format!(
                "case deadline exceeded in sweep scenario {scenario}"
            )));
        }
        sink_tokens += report.sink_streams.values().map(|stream| stream.len() as u64).sum::<u64>();
        cycles += report.cycles;
    }

    let exhaustive = exploration.is_exhaustive() && !job.degraded;
    let mut notes = exploration.notes.len() as u64 + verdict.notes.len() as u64;
    if job.degraded {
        // The truncation note the caller sees in lieu of the dropped runs.
        notes += 1;
    }
    Ok(JobReport {
        pipeline: job.pipeline.name().into(),
        transforms: 0,
        notes,
        exhaustive,
        degraded: job.degraded,
        cycles,
        sink_tokens,
        throughput_milli: JobReport::throughput_milli(sink_tokens, cycles),
    })
}

fn explore_attempt(inner: &Inner, job: &QueuedJob) -> Result<JobReport, AttemptError> {
    let deadline = Instant::now() + inner.config.case_deadline;
    let mut options = inner.config.explore.clone();
    // Like the gauntlet's harness seed: duplicate submissions of one design
    // must score identical environment grids, or the cached report would
    // describe a different search than a recompute.
    options.seed = job.structural ^ inner.config.seed;
    if job.degraded {
        // Degraded search: the declared environment only, half the horizon.
        // Honestly flagged below — never cached as exhaustive.
        options.environments = 1;
        options.cycles = (options.cycles / 2).max(options.short_cycles);
    }
    let search = explore(&job.netlist, &options).map_err(|error| AttemptError::Permanent {
        reason: format!("exploration rejected the design: {error}"),
        diagnosis: None,
    })?;
    if Instant::now() > deadline {
        // The search has no internal cancellation points; over-budget runs
        // are discarded and retried like any other deadline overrun.
        return Err(AttemptError::Transient("case deadline exceeded during exploration".into()));
    }
    // The strict v1 wire format carries the front through the existing
    // fields: `transforms` counts verified front members, `notes` counts
    // everything the search cut or could not score (skips + both prune
    // rungs + coverage notes), and the throughput fields report the best
    // front member under the job's environment grid.
    let best = search.best_throughput();
    let mut notes = (search.skipped.len() + search.pruned.total() + search.notes.len()) as u64;
    if job.degraded {
        notes += 1;
    }
    Ok(JobReport {
        pipeline: job.pipeline.name().into(),
        transforms: search.front.len() as u64,
        notes,
        exhaustive: !job.degraded,
        degraded: job.degraded,
        cycles: options.cycles,
        sink_tokens: best
            .map(|p| (p.throughput * options.cycles as f64).round() as u64)
            .unwrap_or(0),
        throughput_milli: best.map(|p| (p.throughput * 1000.0).round() as u64).unwrap_or(0),
    })
}

/// Arms a genuine stall-storm against the design, runs it, and reports the
/// perturbation as a transient failure — the self-test path proving that
/// fault-flagged runs travel the retry lane, not the result lane.
fn storm_probe(inner: &Inner, job: &QueuedJob) -> AttemptError {
    let storm = (|| {
        let mut sim = Simulation::new(&job.netlist, &SimConfig::default()).ok()?;
        let channel = job.netlist.live_channels().next()?.id;
        let plan = FaultPlan::single(FaultSpec {
            channel,
            kind: FaultKind::StallStorm,
            from_cycle: 4,
            duration: 8,
        });
        sim.arm_faults(&plan).ok()?;
        let report = sim.run(inner.config.sweep_cycles.min(64)).ok()?;
        Some(report.faults.perturbed_cycles)
    })();
    match storm {
        Some(perturbed) => AttemptError::Transient(format!(
            "self-test stall-storm perturbed {perturbed} cycles; run discarded"
        )),
        None => AttemptError::Transient("self-test stall-storm (design unsimulatable)".into()),
    }
}

fn attempt(inner: &Inner, job: &QueuedJob) -> Result<JobReport, AttemptError> {
    let self_test = inner.config.self_test;
    if job.attempt == 0 {
        if SelfTest::applies(self_test.panic_period, job.id) {
            panic!("self-test panic injection (job {})", job.id);
        }
        if SelfTest::applies(self_test.wedge_period, job.id) {
            // A wedged attempt: consume the whole budget, then a bit more.
            std::thread::sleep(inner.config.case_deadline + Duration::from_millis(5));
            return Err(AttemptError::Transient("self-test wedge: case deadline exceeded".into()));
        }
        if SelfTest::applies(self_test.storm_period, job.id) {
            return Err(storm_probe(inner, job));
        }
    }
    match job.pipeline {
        PipelineKind::Gauntlet => gauntlet_attempt(inner, job),
        PipelineKind::Verify => verify_attempt(inner, job),
        PipelineKind::Explore => explore_attempt(inner, job),
    }
}

/// One attempt under panic containment.
fn contained_attempt(inner: &Inner, job: &QueuedJob) -> Result<JobReport, AttemptError> {
    catch_unwind(AssertUnwindSafe(|| attempt(inner, job))).unwrap_or_else(|payload| {
        Err(AttemptError::Transient(format!("attempt panicked: {}", panic_message(payload))))
    })
}

fn worker_main(inner: Arc<Inner>, worker: usize) {
    let mut rng = GenRng::new(inner.config.seed ^ 0xba_c0ff ^ ((worker as u64) << 32));
    while let Some(mut job) = {
        if inner.halted.load(Ordering::Acquire) {
            return;
        }
        inner.queue.pop(worker)
    } {
        inner.in_flight.lock().expect("in-flight map poisoned").insert(worker, job.clone());
        if inner.halted.load(Ordering::Acquire) {
            // Simulated crash: abandon the job exactly where a real crash
            // would — registered, unjournalled, unfinished.
            return;
        }
        if inner.kill[worker].swap(false, Ordering::AcqRel) {
            // Simulated worker death: exit mid-job, leaving the in-flight
            // registration for the supervisor to recover.
            return;
        }
        // A duplicate may have completed while this job sat queued.
        if let Some(report) = inner.cached_report(&job) {
            inner.complete(&job, report, true, job.attempt);
            inner.in_flight.lock().expect("in-flight map poisoned").remove(&worker);
            continue;
        }
        loop {
            inner.journal(&Record::Start { job: job.id, attempt: job.attempt });
            match contained_attempt(&inner, &job) {
                Ok(report) => {
                    inner.complete(&job, report, false, job.attempt + 1);
                    break;
                }
                Err(AttemptError::Permanent { reason, diagnosis }) => {
                    inner.fail_permanent(&job, reason, diagnosis, job.attempt + 1);
                    break;
                }
                Err(AttemptError::Transient(reason)) => {
                    if job.attempt >= inner.config.retry_budget {
                        inner.fail_permanent(
                            &job,
                            format!(
                                "retry budget exhausted after {} attempts; last transient failure: {reason}",
                                job.attempt + 1
                            ),
                            None,
                            job.attempt + 1,
                        );
                        break;
                    }
                    inner.counters.retries.fetch_add(1, Ordering::Relaxed);
                    job.attempt += 1;
                    std::thread::sleep(backoff_delay(&inner.config, job.attempt, &mut rng));
                }
            }
        }
        inner.in_flight.lock().expect("in-flight map poisoned").remove(&worker);
    }
}

fn spawn_worker(inner: &Arc<Inner>, worker: usize) -> JoinHandle<()> {
    let inner = Arc::clone(inner);
    std::thread::Builder::new()
        .name(format!("serve-worker-{worker}"))
        .spawn(move || worker_main(inner, worker))
        .expect("spawn worker thread")
}

fn supervisor_main(inner: Arc<Inner>) {
    loop {
        std::thread::sleep(Duration::from_millis(2));
        if inner.halted.load(Ordering::Acquire) {
            return;
        }
        let shutting = inner.shutting_down.load(Ordering::Acquire);
        let mut all_done = true;
        {
            let mut workers = inner.workers.lock().expect("worker table poisoned");
            for index in 0..workers.len() {
                let finished = workers[index].as_ref().is_none_or(|handle| handle.is_finished());
                if !finished {
                    all_done = false;
                    continue;
                }
                if let Some(handle) = workers[index].take() {
                    let _ = handle.join();
                }
                // A finished worker that left a job registered died mid-job
                // (kill hook or a panic that escaped containment): requeue
                // the orphan as a transient retry.
                let orphan = inner.in_flight.lock().expect("in-flight map poisoned").remove(&index);
                if let Some(mut job) = orphan {
                    inner.counters.worker_deaths.fetch_add(1, Ordering::Relaxed);
                    if job.attempt >= inner.config.retry_budget {
                        inner.fail_permanent(
                            &job,
                            format!(
                                "retry budget exhausted after {} attempts; last transient failure: worker died mid-job",
                                job.attempt + 1
                            ),
                            None,
                            job.attempt + 1,
                        );
                    } else {
                        inner.counters.retries.fetch_add(1, Ordering::Relaxed);
                        job.attempt += 1;
                        inner.queue.requeue(job.structural, job);
                    }
                }
                // Respawn while the service is live, or when a backlog
                // remains to drain during shutdown.
                if !shutting || inner.queue.depth() > 0 {
                    workers[index] = Some(spawn_worker(&inner, index));
                    all_done = false;
                }
            }
        }
        if shutting && all_done && inner.queue.depth() == 0 {
            return;
        }
    }
}

impl Service {
    /// Starts the service: opens the journal (if configured) and spawns the
    /// worker pool plus the supervisor.
    pub fn start(config: ServiceConfig) -> std::io::Result<Service> {
        if config.self_test.panic_period != 0 {
            // The panic injector fires by design; silence the default hook's
            // per-panic backtrace spam for those panics only (they are
            // caught by the containment layer). Real panics still print
            // through the chained previous hook.
            let previous = std::panic::take_hook();
            std::panic::set_hook(Box::new(move |info| {
                let injected = info
                    .payload()
                    .downcast_ref::<String>()
                    .is_some_and(|message| message.contains("self-test panic injection"));
                if !injected {
                    previous(info);
                }
            }));
        }
        let journal = match &config.journal_path {
            Some(path) => Some(Journal::open(path)?),
            None => None,
        };
        let workers = config.workers.max(1);
        let inner = Arc::new(Inner {
            queue: JobQueue::new(config.queue_shards, config.queue_capacity, config.degrade_depth),
            cache: ResultCache::new(config.cache_shards, config.cache_capacity),
            journal,
            outcomes: Mutex::new(HashMap::new()),
            outcome_signal: Condvar::new(),
            in_flight: Mutex::new(HashMap::new()),
            kill: (0..workers).map(|_| AtomicBool::new(false)).collect(),
            halted: AtomicBool::new(false),
            shutting_down: AtomicBool::new(false),
            next_job: AtomicU64::new(0),
            counters: Counters::default(),
            workers: Mutex::new(Vec::new()),
            config,
        });
        {
            let mut table = inner.workers.lock().expect("worker table poisoned");
            *table = (0..workers).map(|index| Some(spawn_worker(&inner, index))).collect();
        }
        let supervisor = {
            let inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name("serve-supervisor".into())
                .spawn(move || supervisor_main(inner))
                .expect("spawn supervisor thread")
        };
        Ok(Service { inner, supervisor: Some(supervisor) })
    }

    /// Replays the configured journal path of a *previous* run. Call before
    /// [`start`](Service::start) (or on its config) to learn what completed
    /// and what needs resubmission.
    pub fn recover(journal_path: &std::path::Path) -> std::io::Result<Recovery> {
        crate::journal::replay(journal_path)
    }

    /// Resubmits the pending seeded jobs of a recovery, skipping any whose
    /// cache key matches work the journal already saw completed. Returns
    /// the new job ids (paired with the recovered pending entry's old id).
    pub fn resume(&self, recovery: &Recovery) -> Vec<(u64, u64)> {
        // Resumed submissions must not reuse job ids the shared journal has
        // already seen, or a *second* crash would mis-attribute the old
        // records to the new jobs during replay.
        self.inner.next_job.fetch_max(recovery.next_job_id, Ordering::AcqRel);
        let completed: std::collections::HashSet<(u64, u64)> =
            recovery.completed.iter().copied().collect();
        let mut resubmitted = Vec::new();
        for pending in &recovery.pending {
            let Some(kind) = PipelineKind::from_name(&pending.kind) else {
                continue; // journalled by a future version; not resumable here
            };
            // Re-derive the key the old submission journalled; a pending job
            // whose design+pipeline already completed (in either fidelity)
            // is closed as served-from-history, not redone.
            if let Some(config) = preset_config(&pending.preset) {
                let netlist = generate(pending.seed, &config).netlist;
                let structural = structural_hash(&netlist);
                let done = [false, true].iter().any(|&degraded| {
                    completed
                        .contains(&(structural, pipeline_hash(&self.inner.config, kind, degraded)))
                });
                if done {
                    self.inner
                        .journal(&Record::Done { job: pending.job, outcome: "ok-cached".into() });
                    continue;
                }
            }
            let spec = JobSpec::seeded(pending.seed, &pending.preset, kind);
            let new = self.submit(spec);
            // Close the old id only once the new submission is journalled
            // and was not shed — a crash between the two records costs at
            // most a duplicate resubmission, never a lost job.
            if !matches!(self.outcome(new), Some(JobOutcome::Shed)) {
                self.inner.journal(&Record::Done { job: pending.job, outcome: "resumed".into() });
                resubmitted.push((pending.job, new));
            }
        }
        resubmitted
    }

    /// Submits a job. Always returns a job id; the outcome may already be
    /// recorded (shed, invalid input, or a submit-time cache hit).
    pub fn submit(&self, spec: JobSpec) -> u64 {
        let inner = &self.inner;
        let id = inner.next_job.fetch_add(1, Ordering::AcqRel);
        inner.counters.submitted.fetch_add(1, Ordering::Relaxed);

        let (netlist, seeded) = match spec.source {
            JobSource::Seeded { seed, preset } => match preset_config(&preset) {
                Some(config) => (Arc::new(generate(seed, &config).netlist), Some((seed, preset))),
                None => {
                    inner.record_outcome(
                        id,
                        JobOutcome::FailedPermanent {
                            reason: format!("unknown generation preset `{preset}`"),
                            diagnosis: None,
                            attempts: 0,
                        },
                    );
                    return id;
                }
            },
            JobSource::Inline(netlist) => {
                if let Err(error) = elastic_core::validate::validate(&netlist) {
                    inner.record_outcome(
                        id,
                        JobOutcome::FailedPermanent {
                            reason: format!("invalid netlist: {error}"),
                            diagnosis: None,
                            attempts: 0,
                        },
                    );
                    return id;
                }
                (Arc::new(*netlist), None)
            }
        };
        let structural = structural_hash(&netlist);

        // Submit-time fast path: a full-fidelity result for this design is
        // already cached.
        let probe = QueuedJob {
            id,
            netlist: Arc::clone(&netlist),
            pipeline: spec.pipeline,
            structural,
            degraded: false,
            attempt: 0,
        };
        if let Some(report) = inner.cached_report(&probe) {
            inner.journal(&Record::Submit {
                job: id,
                structural,
                pipeline: pipeline_hash(&inner.config, spec.pipeline, false),
                kind: spec.pipeline.name().into(),
                seeded,
            });
            inner.journal(&Record::Done { job: id, outcome: "ok-cached".into() });
            inner
                .record_outcome(id, JobOutcome::Completed { report, cache_hit: true, attempts: 0 });
            return id;
        }

        let admission = inner.queue.push_with(structural, |degraded| {
            // Journalled *inside* the admission closure: the submit record
            // must reach the journal before the job becomes visible to any
            // worker, or a fast worker's start/done records could precede
            // it and replay would mis-read the job as forever pending.
            inner.journal(&Record::Submit {
                job: id,
                structural,
                pipeline: pipeline_hash(&inner.config, spec.pipeline, degraded),
                kind: spec.pipeline.name().into(),
                seeded: seeded.clone(),
            });
            QueuedJob {
                id,
                netlist: Arc::clone(&netlist),
                pipeline: spec.pipeline,
                structural,
                degraded,
                attempt: 0,
            }
        });
        if admission == Admission::Shed {
            inner.journal(&Record::Submit {
                job: id,
                structural,
                pipeline: pipeline_hash(&inner.config, spec.pipeline, false),
                kind: spec.pipeline.name().into(),
                seeded,
            });
            inner.journal(&Record::Shed { job: id });
            inner.record_outcome(id, JobOutcome::Shed);
        }
        id
    }

    /// The outcome of `job`, if it has one yet.
    pub fn outcome(&self, job: u64) -> Option<JobOutcome> {
        self.inner.outcomes.lock().expect("outcome map poisoned").get(&job).cloned()
    }

    /// Blocks until `job` has an outcome or `timeout` elapses.
    pub fn wait(&self, job: u64, timeout: Duration) -> Option<JobOutcome> {
        let deadline = Instant::now() + timeout;
        let mut outcomes = self.inner.outcomes.lock().expect("outcome map poisoned");
        loop {
            if let Some(outcome) = outcomes.get(&job) {
                return Some(outcome.clone());
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            let (guard, _) = self
                .inner
                .outcome_signal
                .wait_timeout(outcomes, deadline - now)
                .expect("outcome map poisoned");
            outcomes = guard;
        }
    }

    /// Blocks until every submitted job has an outcome, or `timeout`
    /// elapses. Returns whether the service fully drained.
    pub fn drain(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut outcomes = self.inner.outcomes.lock().expect("outcome map poisoned");
        loop {
            let submitted = self.inner.counters.submitted.load(Ordering::Relaxed);
            if outcomes.len() as u64 >= submitted {
                return true;
            }
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            let (guard, _) = self
                .inner
                .outcome_signal
                .wait_timeout(outcomes, (deadline - now).min(Duration::from_millis(20)))
                .expect("outcome map poisoned");
            outcomes = guard;
        }
    }

    /// Fault hook: makes worker `index` exit the next time it picks up a
    /// job, *after* registering it in-flight — simulating a thread dying
    /// mid-job. The supervisor requeues the orphan and respawns the worker.
    pub fn kill_worker(&self, index: usize) -> bool {
        match self.inner.kill.get(index) {
            Some(flag) => {
                flag.store(true, Ordering::Release);
                true
            }
            None => false,
        }
    }

    /// The result cache (for corruption hooks and audits in tests and for
    /// hit-rate reporting).
    pub fn cache(&self) -> &ResultCache {
        &self.inner.cache
    }

    /// The cache key a spec resolves to under this service's configuration
    /// (materializing seeded sources). Exposed so integrity tests can
    /// target a *specific* entry with the corruption hook and then prove
    /// the recompute path. `None` for unknown presets.
    pub fn cache_key(&self, spec: &JobSpec, degraded: bool) -> Option<CacheKey> {
        let structural = match &spec.source {
            JobSource::Seeded { seed, preset } => {
                structural_hash(&generate(*seed, &preset_config(preset)?).netlist)
            }
            JobSource::Inline(netlist) => structural_hash(netlist),
        };
        Some(CacheKey {
            structural,
            pipeline: pipeline_hash(&self.inner.config, spec.pipeline, degraded),
        })
    }

    /// Counter snapshot.
    pub fn stats(&self) -> ServiceStats {
        let c = &self.inner.counters;
        ServiceStats {
            submitted: c.submitted.load(Ordering::Relaxed),
            completed: c.completed.load(Ordering::Relaxed),
            cache_hits: c.cache_hits.load(Ordering::Relaxed),
            degraded_completed: c.degraded_completed.load(Ordering::Relaxed),
            permanent_failures: c.permanent_failures.load(Ordering::Relaxed),
            retries: c.retries.load(Ordering::Relaxed),
            shed: c.shed.load(Ordering::Relaxed),
            worker_deaths: c.worker_deaths.load(Ordering::Relaxed),
        }
    }

    /// Graceful shutdown: stops admission, drains the backlog, joins every
    /// thread, and returns the final counters.
    pub fn shutdown(mut self) -> ServiceStats {
        self.inner.shutting_down.store(true, Ordering::Release);
        self.inner.queue.close();
        if let Some(supervisor) = self.supervisor.take() {
            let _ = supervisor.join();
        }
        let handles: Vec<_> =
            self.inner.workers.lock().expect("worker table poisoned").drain(..).collect();
        for handle in handles.into_iter().flatten() {
            let _ = handle.join();
        }
        self.stats()
    }

    /// Simulated crash: workers stop at the next job boundary, the backlog
    /// is abandoned *in memory*, and nothing further is journalled — the
    /// journal on disk is exactly what a real crash would leave. Use
    /// [`recover`](Service::recover) + [`resume`](Service::resume) on the
    /// next service to pick the work back up.
    pub fn halt(mut self) {
        self.inner.halted.store(true, Ordering::Release);
        self.inner.queue.close();
        if let Some(supervisor) = self.supervisor.take() {
            let _ = supervisor.join();
        }
        let handles: Vec<_> =
            self.inner.workers.lock().expect("worker table poisoned").drain(..).collect();
        for handle in handles.into_iter().flatten() {
            let _ = handle.join();
        }
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        if self.supervisor.is_some() {
            self.inner.shutting_down.store(true, Ordering::Release);
            self.inner.queue.close();
            if let Some(supervisor) = self.supervisor.take() {
                let _ = supervisor.join();
            }
            let handles: Vec<_> =
                self.inner.workers.lock().expect("worker table poisoned").drain(..).collect();
            for handle in handles.into_iter().flatten() {
                let _ = handle.join();
            }
        }
    }
}
