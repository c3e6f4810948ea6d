//! The untraced run: the end-to-end paths a user waits on, timed unit by
//! unit and interleaved over the whole run, each output checked against an
//! independent result.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use elastic_core::kind::{BackpressurePattern, NodeKind};
use elastic_core::{Netlist, NodeId};
use elastic_explore::{explore, ExploreOptions, ExploreReport};
use elastic_gen::harness::{run_netlist, HarnessOptions};
use elastic_serve::{
    JobOutcome, JobReport, JobSource, JobSpec, PipelineKind, Service, ServiceConfig,
};
use elastic_sim::sweep::lane_map;
use elastic_sim::{LaneConfig, LaneSimulation, SettleStrategy, SimConfig, Simulation, LANES};
use elastic_verify::exploration::explore_environments;
use elastic_verify::liveness::{check_deadlock_freedom, LivenessOptions};

use crate::host::Host;
use crate::spans::{stage, Tracer};
use crate::util::{cpu_timed, geomean, median, quantile_hd, timed, Rng, Tally};
use crate::workload::{fig7_pairs, Workload, FIG7_CYCLES};

pub type SinkStreams = BTreeMap<NodeId, Vec<(u64, u64)>>;

/// One named measurement.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric { name: name.into(), value, unit }
    }
}

fn sinks(netlist: &Netlist) -> Vec<NodeId> {
    netlist.live_nodes().filter(|n| matches!(n.kind, NodeKind::Sink(_))).map(|n| n.id).collect()
}

/// The options every search runs with: those the service's `Explore`
/// pipeline ships (full default grid, 512/128-cycle horizons).
pub fn explore_options() -> ExploreOptions {
    ServiceConfig::default().explore
}

/// The gauntlet CI runs: lane and compiled differential legs armed.
pub fn harness_options() -> HarnessOptions {
    HarnessOptions { lane_differential: true, compiled_differential: true, ..Default::default() }
}

/// Back-pressure scenario `index` of the sweep: a seeded 8-cycle stall list
/// per sink.
fn sweep_pattern(seed: u64, design: usize, index: usize, sink: usize) -> BackpressurePattern {
    let mut rng = Rng::new(seed ^ ((design as u64) << 40) ^ ((index as u64) << 8) ^ sink as u64);
    let bits = rng.next_u64();
    BackpressurePattern::List((0..8).map(|bit| (bits >> bit) & 3 == 0).collect())
}

/// Scenarios per design in the sweep: two lane blocks, one per worker.
const SWEEP_SCENARIOS: usize = 2 * LANES;

/// The compiled backend must reproduce the event-driven sink streams (the
/// lanes are checked against the scalar engine in the sweep).
fn check_compiled(netlist: &Netlist, cycles: u64, reference: &SinkStreams) -> Result<(), String> {
    let compiled = SimConfig { settle: SettleStrategy::Compiled, ..SimConfig::default() };
    let mut sim = Simulation::new(netlist, &compiled).map_err(|e| e.to_string())?;
    if &sim.run(cycles).map_err(|e| e.to_string())?.sink_streams != reference {
        return Err("compiled sink streams differ from the event-driven run".into());
    }
    Ok(())
}

/// The paper headline, asserted from outside and untimed: at seeded widths
/// and upset rates Figure 7(b) delivers more tokens per cycle than Figure
/// 7(a).
pub fn headline(seed: u64, tally: &mut Tally) {
    let tokens = |netlist: &Netlist| -> Result<usize, String> {
        let mut sim = Simulation::new(netlist, &SimConfig::default()).map_err(|e| e.to_string())?;
        let report = sim.run(FIG7_CYCLES).map_err(|e| e.to_string())?;
        Ok(report.sink_streams.values().map(Vec::len).sum())
    };
    for pair in fig7_pairs(seed) {
        let outcome = match (tokens(&pair.nonspeculative), tokens(&pair.speculative)) {
            (Ok(a), Ok(b)) if b > a => Ok(()),
            (a, b) => Err(format!("fig7b delivered {b:?} tokens, fig7a {a:?}")),
        };
        tally.check(&format!("headline {}", pair.tag), outcome);
    }
}

/// One design's sweep: `SWEEP_SCENARIOS` seeded back-pressure scenarios
/// through `lane_map`, one lane simulation per worker, re-targeted per
/// block. Returns every scenario's sink streams.
pub fn sweep_design(
    w: &Workload,
    design: usize,
    tracer: Tracer<'_>,
) -> Vec<Result<SinkStreams, String>> {
    let netlist = &w.sim[design].netlist;
    let sink_ids = sinks(netlist);
    let scenarios: Vec<usize> = (0..SWEEP_SCENARIOS).collect();
    let config = LaneConfig { record_trace: false, ..LaneConfig::default() };
    lane_map(
        &scenarios,
        || {
            stage(tracer, "sim.lanes_build", || LaneSimulation::new(netlist, &config))
                .map_err(|e| e.to_string())
        },
        |sim, _, block| {
            let sim = match sim {
                Ok(sim) => sim,
                Err(e) => return block.iter().map(|_| Err(e.clone())).collect(),
            };
            let overrides: Vec<(NodeId, Vec<BackpressurePattern>)> = sink_ids
                .iter()
                .enumerate()
                .map(|(s, &id)| {
                    (id, block.iter().map(|&i| sweep_pattern(w.seed, design, i, s)).collect())
                })
                .collect();
            stage(tracer, "sim.lanes_reset", || sim.reset_with_lane_sink_patterns(&overrides));
            if let Err(e) = stage(tracer, "sim.lanes_run", || sim.run(w.sweep_cycles)) {
                return block.iter().map(|_| Err(e.to_string())).collect();
            }
            stage(tracer, "sim.lanes_report", || {
                (0..block.len()).map(|lane| Ok(sim.report(lane).sink_streams)).collect()
            })
        },
    )
}

/// Scalar replay of sweep scenario `index`.
fn sweep_reference(w: &Workload, design: usize, index: usize) -> Result<SinkStreams, String> {
    let netlist = &w.sim[design].netlist;
    let overrides: Vec<(NodeId, BackpressurePattern)> = sinks(netlist)
        .into_iter()
        .enumerate()
        .map(|(s, id)| (id, sweep_pattern(w.seed, design, index, s)))
        .collect();
    let quiet = SimConfig { record_trace: false, ..SimConfig::default() };
    let mut sim = Simulation::new(netlist, &quiet).map_err(|e| e.to_string())?;
    sim.reset_with_sink_patterns(&overrides);
    Ok(sim.run(w.sweep_cycles).map_err(|e| e.to_string())?.sink_streams)
}

/// Baseline effective cycle time over the best front member's.
fn ect_gain(report: &ExploreReport) -> Option<f64> {
    let baseline = report.baseline.latency / report.baseline.throughput;
    let best = report.front.iter().map(|p| p.effective_cycle_time()).min_by(f64::total_cmp)?;
    (baseline.is_finite() && best.is_finite() && best > 0.0).then(|| baseline / best)
}

/// Two searches found the same thing: everything in the reports but the
/// wording of skip reasons, which names one witness node of several and
/// does not pick it deterministically.
fn same(a: &ExploreReport, b: &ExploreReport) -> bool {
    let skipped =
        |r: &ExploreReport| r.skipped.iter().map(|s| s.config.clone()).collect::<Vec<_>>();
    a.baseline == b.baseline
        && a.front == b.front
        && a.dominated == b.dominated
        && skipped(a) == skipped(b)
        && a.pruned == b.pruned
        && a.candidates_enumerated == b.candidates_enumerated
        && a.notes == b.notes
}

/// Seed of gauntlet case `k`.
pub fn case_seed(w: &Workload, k: usize) -> u64 {
    Rng::new(w.seed ^ 0x6A75_6E74 ^ k as u64).next_u64()
}

/// The service's verify pipeline called directly, for the equality check
/// and the service-overhead split.
pub fn direct_verify(
    netlist: &Netlist,
    config: &ServiceConfig,
    tracer: Tracer<'_>,
) -> Result<JobReport, String> {
    let liveness =
        LivenessOptions { cycles: config.sweep_cycles.max(128), ..LivenessOptions::default() };
    let verdict =
        stage(tracer, "verify.deadlock_freedom", || check_deadlock_freedom(netlist, &liveness))
            .map_err(|e| e.to_string())?;
    if !verdict.passed() {
        return Err(format!("liveness refuted: {verdict}"));
    }
    let exploration = stage(tracer, "verify.explore_environments", || {
        explore_environments(netlist, &config.verify)
    })
    .map_err(|e| e.to_string())?;
    if !exploration.passed() {
        return Err(format!("environment exploration refuted: {exploration}"));
    }
    let (sink_tokens, cycles) =
        stage(tracer, "serve.direct_sweep", || direct_sweep(netlist, config))?;
    Ok(JobReport {
        pipeline: PipelineKind::Verify.name().into(),
        transforms: 0,
        notes: (exploration.notes.len() + verdict.notes.len()) as u64,
        exhaustive: exploration.is_exhaustive(),
        degraded: false,
        cycles,
        sink_tokens,
        throughput_milli: JobReport::throughput_milli(sink_tokens, cycles),
    })
}

/// The verify pipeline's back-pressure sweep: `(sink tokens, cycles)`.
fn direct_sweep(netlist: &Netlist, config: &ServiceConfig) -> Result<(u64, u64), String> {
    let mut sim = Simulation::new(netlist, &SimConfig::default()).map_err(|e| e.to_string())?;
    let sink_ids = sinks(netlist);
    let (mut sink_tokens, mut cycles) = (0u64, 0u64);
    for scenario in 0..config.sweep_scenarios {
        let overrides: Vec<_> =
            sink_ids.iter().map(|&id| (id, BackpressurePattern::Every(2 + scenario))).collect();
        sim.reset_with_sink_patterns(&overrides);
        let report = sim.run(config.sweep_cycles).map_err(|e| e.to_string())?;
        sink_tokens += report.sink_streams.values().map(|s| s.len() as u64).sum::<u64>();
        cycles += report.cycles;
    }
    Ok((sink_tokens, cycles))
}

/// Submits `netlist` as an inline verify job and waits for it.
pub fn submit_and_wait(service: &Service, netlist: &Netlist) -> Option<JobOutcome> {
    let spec = JobSpec {
        source: JobSource::Inline(Box::new(netlist.clone())),
        pipeline: PipelineKind::Verify,
    };
    let job = service.submit(spec);
    service.wait(job, Duration::from_secs(60))
}

/// One end-to-end path, split into units (a design, a case or a job) so
/// that the scheduler can interleave the paths over the whole run: a slow
/// spell of the host then lands on every path alike instead of on whichever
/// one happened to be running.
trait Path {
    fn units(&self) -> usize;
    /// Called before unit 0 of every pass.
    fn begin_pass(&mut self) {}
    /// Runs and times unit `unit` of pass `pass`, checking its output, and
    /// records its time divided by the host's current `slowdown`.
    fn run_unit(&mut self, unit: usize, pass: usize, slowdown: f64, tally: &mut Tally);
    /// Called after the last unit of a pass, and at the end of the run on a
    /// pass still open.
    fn end_pass(&mut self, _tally: &mut Tally) {}
    fn metrics(&self, tally: &mut Tally) -> Vec<Metric>;
}

/// Runs every path for its share of `seconds`, one unit at a time, always
/// advancing the path furthest behind its share, until time is up and every
/// path has completed a full pass. Each unit's time is then the median over
/// the passes it ran in. Another pass of the same units only steadies the
/// host's noise, which the slowdown already takes out; more distinct units
/// steady the mix a seed draws, so paths are sized for about one pass in
/// their share.
fn schedule(
    paths: &mut [(&str, f64, &mut dyn Path)],
    seconds: f64,
    host: &mut Host,
    tally: &mut Tally,
) {
    let n = paths.len();
    let (mut spent, mut cursor, mut pass) = (vec![0.0; n], vec![0; n], vec![0; n]);
    let start = Instant::now();
    loop {
        let over = start.elapsed().as_secs_f64() >= seconds;
        let next = (0..n)
            .filter(|&p| !over || pass[p] == 0)
            .min_by(|&a, &b| (spent[a] / paths[a].1).total_cmp(&(spent[b] / paths[b].1)));
        let Some(p) = next else { break };
        let path = &mut paths[p].2;
        if cursor[p] == 0 {
            path.begin_pass();
        }
        let slowdown = host.slowdown();
        let (t, ()) = timed(|| path.run_unit(cursor[p], pass[p], slowdown, tally));
        spent[p] += t;
        cursor[p] += 1;
        if cursor[p] == path.units() {
            path.end_pass(tally);
            cursor[p] = 0;
            pass[p] += 1;
        }
    }
    for (p, (name, _, path)) in paths.iter_mut().enumerate() {
        if cursor[p] != 0 {
            path.end_pass(tally);
        }
        println!("path {name}: {:.2} s over {} full passes", spent[p], pass[p]);
    }
}

/// Each unit's median sample over the passes.
fn unit_medians(samples: &[Vec<f64>]) -> Vec<f64> {
    samples.iter().map(|s| median(s)).collect()
}

/// `setup_s`: generate the workload's netlists from the seed and start the
/// service, again and again between the other paths' units. Picking each
/// path's designs is the benchmark's own bookkeeping and stays out of it.
struct SetupPath<'a> {
    w: &'a Workload,
    seed: u64,
    times: Vec<f64>,
}

impl Path for SetupPath<'_> {
    fn units(&self) -> usize {
        1
    }

    fn run_unit(&mut self, _unit: usize, _pass: usize, slowdown: f64, tally: &mut Tally) {
        let (t, (workload, service)) = cpu_timed(|| {
            let workload = Workload::generate(self.w.name, self.seed);
            (workload, Service::start(ServiceConfig::default()))
        });
        self.times.push(t / slowdown);
        let outcome = match (workload, service) {
            (Some(workload), Ok(service)) => {
                service.shutdown();
                let same = workload.sim.len() == self.w.sim.len()
                    && workload.sim.iter().zip(&self.w.sim).all(|(a, b)| a.netlist == b.netlist);
                if same {
                    Ok(())
                } else {
                    Err("the same seed generated other netlists".into())
                }
            }
            (_, Err(e)) => Err(format!("the service did not start: {e}")),
            (None, _) => Err("unknown workload".into()),
        };
        tally.check("setup", outcome);
    }

    fn metrics(&self, _tally: &mut Tally) -> Vec<Metric> {
        vec![Metric::new("setup_s", median(&self.times), "s")]
    }
}

/// `sim_cycles_per_s`: build plus run of one scenario per design.
struct SimPath<'a> {
    w: &'a Workload,
    times: Vec<Vec<f64>>,
    first: Vec<SinkStreams>,
}

impl Path for SimPath<'_> {
    fn units(&self) -> usize {
        self.w.sim.len()
    }

    fn run_unit(&mut self, i: usize, pass: usize, slowdown: f64, tally: &mut Tally) {
        let (w, design) = (self.w, &self.w.sim[i]);
        let (t, result) = cpu_timed(|| {
            let mut sim = Simulation::new(&design.netlist, &SimConfig::default())?;
            sim.run(w.cycles)
        });
        self.times[i].push(t / slowdown);
        let streams = result.map(|r| r.sink_streams).map_err(|e| e.to_string());
        let outcome = match streams {
            Err(e) => Err(e),
            Ok(streams) if pass == 0 => {
                let check = check_compiled(&design.netlist, w.cycles, &streams);
                self.first[i] = streams;
                check
            }
            Ok(streams) if streams != self.first[i] => {
                Err("sink streams changed between passes".into())
            }
            Ok(_) => Ok(()),
        };
        tally.check(&format!("sim {}", design.label), outcome);
    }

    fn metrics(&self, _tally: &mut Tally) -> Vec<Metric> {
        let rates: Vec<f64> =
            unit_medians(&self.times).iter().map(|t| self.w.cycles as f64 / t).collect();
        vec![Metric::new("sim_cycles_per_s", geomean(&rates), "cycles/s")]
    }
}

/// `sweep_scenario_cycles_per_s`.
struct SweepPath<'a> {
    w: &'a Workload,
    times: Vec<Vec<f64>>,
    first: Vec<Vec<Result<SinkStreams, String>>>,
}

impl Path for SweepPath<'_> {
    fn units(&self) -> usize {
        self.w.sweep.len()
    }

    fn run_unit(&mut self, k: usize, pass: usize, slowdown: f64, tally: &mut Tally) {
        let (w, i) = (self.w, self.w.sweep[k]);
        let (t, streams) = cpu_timed(|| sweep_design(w, i, None));
        self.times[k].push(t / slowdown);
        let outcome = if pass == 0 {
            // Two seeded scenarios, one per lane block, replayed on the
            // scalar engine.
            let mut rng = Rng::new(w.seed ^ i as u64);
            let lanes = LANES as u64;
            let picks = [rng.range(0, lanes - 1), rng.range(lanes, 2 * lanes - 1)];
            let check = picks.iter().try_for_each(|&index| {
                let lane = streams[index as usize].as_ref().map_err(Clone::clone)?;
                if *lane != sweep_reference(w, i, index as usize)? {
                    return Err(format!("sweep scenario {index} differs from the scalar run"));
                }
                Ok(())
            });
            self.first[k] = streams;
            check
        } else if streams != self.first[k] {
            Err("sweep results changed between passes".into())
        } else {
            Ok(())
        };
        tally.check(&format!("sweep {}", w.sim[i].label), outcome);
    }

    fn metrics(&self, _tally: &mut Tally) -> Vec<Metric> {
        let work = (SWEEP_SCENARIOS as u64 * self.w.sweep_cycles) as f64;
        let rates: Vec<f64> = unit_medians(&self.times).iter().map(|t| work / t).collect();
        vec![Metric::new("sweep_scenario_cycles_per_s", geomean(&rates), "scen-cycles/s")]
    }
}

/// `explore_s` (sum over designs of each search's median time) and
/// `explore_ect_gain` (median over designs).
struct ExplorePath<'a> {
    w: &'a Workload,
    options: ExploreOptions,
    times: Vec<Vec<f64>>,
    first: Vec<Option<ExploreReport>>,
}

impl Path for ExplorePath<'_> {
    fn units(&self) -> usize {
        self.w.explore.len()
    }

    fn run_unit(&mut self, k: usize, pass: usize, slowdown: f64, tally: &mut Tally) {
        let design = &self.w.sim[self.w.explore[k]];
        let (t, result) = cpu_timed(|| explore(&design.netlist, &self.options));
        self.times[k].push(t / slowdown);
        let outcome = match &result {
            Err(e) => Err(e.to_string()),
            Ok(report) if report.accounted() != report.candidates_enumerated => {
                Err("the report does not account for every candidate".into())
            }
            Ok(report) if pass > 0 && !self.first[k].as_ref().is_some_and(|f| same(f, report)) => {
                Err("the report changed between identical searches".into())
            }
            Ok(_) => Ok(()),
        };
        if pass == 0 {
            self.first[k] = result.ok();
        }
        tally.check(&format!("explore {}", design.label), outcome);
    }

    fn metrics(&self, _tally: &mut Tally) -> Vec<Metric> {
        for ((&i, report), t) in self.w.explore.iter().zip(&self.first).zip(&self.times) {
            let gain = report.as_ref().and_then(ect_gain).unwrap_or(f64::NAN);
            let time = median(t);
            println!("explore {}: ect gain {gain:.4}, median {time:.3} s", self.w.sim[i].label);
        }
        // The median, not the geometric mean: the gains of one seed's designs
        // span 0.3 to 2.7, so over the designs a run can search, a geometric
        // mean moves with the seed by more than any bound could allow.
        let gains: Vec<f64> = self.first.iter().flatten().filter_map(ect_gain).collect();
        let gain = if gains.is_empty() { f64::NAN } else { median(&gains) };
        vec![
            Metric::new("explore_s", unit_medians(&self.times).iter().sum(), "s"),
            Metric::new("explore_ect_gain", gain, "ratio"),
        ]
    }
}

/// Cases the gauntlet runs per design and pass, each with its own seed: a
/// case's cost follows the transforms its seed draws, so several per design
/// keep the total steady from seed to seed.
const CASES_PER_DESIGN: usize = 4;

/// `gauntlet_cases_per_s`: cases over the sum of each case's median time.
struct GauntletPath<'a> {
    w: &'a Workload,
    options: HarnessOptions,
    times: Vec<Vec<f64>>,
}

impl Path for GauntletPath<'_> {
    fn units(&self) -> usize {
        self.w.gauntlet.len() * CASES_PER_DESIGN
    }

    fn run_unit(&mut self, k: usize, _pass: usize, slowdown: f64, tally: &mut Tally) {
        let design = &self.w.sim[self.w.gauntlet[k % self.w.gauntlet.len()]];
        let (t, outcome) = cpu_timed(|| {
            run_netlist(&design.netlist, case_seed(self.w, k), &self.options)
                .map(|_| ())
                .map_err(|failure| failure.to_string())
        });
        self.times[k].push(t / slowdown);
        tally.check(&format!("gauntlet {}", design.label), outcome);
    }

    fn metrics(&self, _tally: &mut Tally) -> Vec<Metric> {
        let total: f64 = unit_medians(&self.times).iter().sum();
        vec![Metric::new("gauntlet_cases_per_s", self.times.len() as f64 / total, "cases/s")]
    }
}

/// One cold job in this many is checked against the direct pipeline per pass.
const DIRECT_CHECK_STRIDE: usize = 6;

/// Cached resubmissions of each design per pass. A cache hit costs a few
/// hundred microseconds, so one sample per pass would mostly measure thread
/// wake-up noise on a workload that makes a single pass.
const CACHED_REPEATS: usize = 3;

/// Cold and cached job latency on the service as it ships. Each pass starts
/// a fresh service; each unit submits one design cold, then
/// `CACHED_REPEATS` times again, and waits for each. Cold reports must equal
/// the verify pipeline called directly, cached reports their cold one.
struct ServePath<'a> {
    w: &'a Workload,
    config: ServiceConfig,
    service: Option<Service>,
    cold: Vec<Vec<f64>>,
    cached: Vec<Vec<f64>>,
}

impl Path for ServePath<'_> {
    fn units(&self) -> usize {
        self.w.serve.len()
    }

    fn begin_pass(&mut self) {
        self.service = Some(
            Service::start(self.config.clone()).expect("the service starts without a journal"),
        );
    }

    fn run_unit(&mut self, i: usize, pass: usize, slowdown: f64, tally: &mut Tally) {
        let netlist = &self.w.serve[i];
        let service = self.service.as_ref().expect("a pass is open");
        let (t, outcome) = cpu_timed(|| submit_and_wait(service, netlist));
        self.cold[i].push(t / slowdown);
        // The direct pipeline costs as much as the job, so each pass checks a
        // sixth of the designs against it, a different sixth each pass.
        let direct = if i % DIRECT_CHECK_STRIDE == pass % DIRECT_CHECK_STRIDE {
            Some(direct_verify(netlist, &self.config, None))
        } else {
            None
        };
        let cold_report = match (outcome, direct) {
            (Some(JobOutcome::Completed { report, cache_hit: false, .. }), None) => {
                tally.check("cold job", Ok(()));
                Some(report)
            }
            (Some(JobOutcome::Completed { report, cache_hit: false, .. }), Some(Ok(expected)))
                if report == expected =>
            {
                tally.check("cold job", Ok(()));
                Some(report)
            }
            (outcome, expected) => {
                tally.check(
                    "cold job",
                    Err(format!("cold job ended {outcome:?}; direct pipeline gave {expected:?}")),
                );
                None
            }
        };
        for _ in 0..CACHED_REPEATS {
            let (t, outcome) = cpu_timed(|| submit_and_wait(service, netlist));
            self.cached[i].push(t / slowdown);
            let outcome = match outcome {
                Some(JobOutcome::Completed { report, cache_hit: true, .. })
                    if Some(&report) == cold_report.as_ref() =>
                {
                    Ok(())
                }
                other => Err(format!("cached job ended {other:?}")),
            };
            tally.check("cached job", outcome);
        }
    }

    fn end_pass(&mut self, tally: &mut Tally) {
        if let Some(service) = self.service.take() {
            let stats = service.shutdown();
            let clean = stats.shed == 0 && stats.retries == 0 && stats.permanent_failures == 0;
            tally.check("service counters", if clean { Ok(()) } else { Err(format!("{stats:?}")) });
        }
    }

    /// Percentiles (Harrell–Davis) over designs of each design's median job
    /// over the passes: a job slow in at least half the passes counts as
    /// slow, where the fastest pass would hide it. With one pass, every job
    /// counts.
    fn metrics(&self, _tally: &mut Tally) -> Vec<Metric> {
        let per_design = |samples: &[Vec<f64>]| -> Vec<f64> {
            samples.iter().filter(|s| !s.is_empty()).map(|s| median(s)).collect()
        };
        let (cold, cached) = (per_design(&self.cold), per_design(&self.cached));
        vec![
            Metric::new("job_cold_p50_ms", quantile_hd(&cold, 0.5) * 1e3, "ms"),
            Metric::new("job_cold_p90_ms", quantile_hd(&cold, 0.9) * 1e3, "ms"),
            Metric::new("job_cached_p50_us", quantile_hd(&cached, 0.5) * 1e6, "us"),
            Metric::new("job_cached_p90_us", quantile_hd(&cached, 0.9) * 1e6, "us"),
        ]
    }
}

/// Runs every end-to-end path for `seconds` in total; `seed` is the one `w`
/// was generated from.
pub fn run(
    w: &Workload,
    seed: u64,
    seconds: f64,
    host: &mut Host,
    tally: &mut Tally,
) -> Vec<Metric> {
    let mut setup = SetupPath { w, seed, times: Vec::new() };
    let mut sim = SimPath {
        w,
        times: vec![Vec::new(); w.sim.len()],
        first: vec![SinkStreams::new(); w.sim.len()],
    };
    let mut sweep = SweepPath {
        w,
        times: vec![Vec::new(); w.sweep.len()],
        first: vec![Vec::new(); w.sweep.len()],
    };
    let mut explore = ExplorePath {
        w,
        options: explore_options(),
        times: vec![Vec::new(); w.explore.len()],
        first: vec![None; w.explore.len()],
    };
    let gauntlet_cases = w.gauntlet.len() * CASES_PER_DESIGN;
    let mut gauntlet =
        GauntletPath { w, options: harness_options(), times: vec![Vec::new(); gauntlet_cases] };
    let mut serve = ServePath {
        w,
        config: ServiceConfig::default(),
        service: None,
        cold: vec![Vec::new(); w.serve.len()],
        cached: vec![Vec::new(); w.serve.len()],
    };
    // Each path's share of `seconds`.
    let mut paths: Vec<(&str, f64, &mut dyn Path)> = vec![
        ("setup", 0.01, &mut setup),
        ("sim", 0.05, &mut sim),
        ("sweep", 0.08, &mut sweep),
        ("explore", 0.28, &mut explore),
        ("gauntlet", 0.10, &mut gauntlet),
        ("serve", 0.50, &mut serve),
    ];
    schedule(&mut paths, seconds, host, tally);
    println!(
        "{}: {} sim designs, {} swept, {} explored, {} gauntlet cases, {} service jobs per pass",
        w.name,
        w.sim.len(),
        w.sweep.len(),
        w.explore.len(),
        gauntlet_cases,
        w.serve.len(),
    );
    paths.iter().flat_map(|(_, _, path)| path.metrics(tally)).collect()
}
