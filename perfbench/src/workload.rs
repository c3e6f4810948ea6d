//! The three workloads, built from the benchmark seed.
//!
//! Each workload fixes its design families and sizes; the seed only picks
//! widths inside fixed strata, data streams, rates, schedulers and generator
//! seeds. Stratifying keeps the mix of cheap and expensive designs the same
//! for every seed, so two seeds measure the same amount of work.

use elastic_core::kind::{BackpressurePattern, BufferSpec, DataStream, NodeKind, SchedulerKind};
use elastic_core::library::{
    deep_pipeline, fig1a, fig1b, fig1c, fig1d, resilient_nonspeculative, resilient_speculative,
    resilient_unprotected, variable_latency_speculative, variable_latency_stalling, Fig1Config,
    ResilientConfig, VarLatencyConfig,
};
use elastic_core::op::secded_codeword_width;
use elastic_core::Netlist;
use elastic_datapath::workload::{
    approx_error_operands, biased_select_values, soft_error_masks, uniform_operands,
};
use elastic_explore::enumerate_candidates;
use elastic_gen::generate::{generate, GenConfig};
use elastic_serve::structural_hash;

use crate::util::Rng;

pub const NAMES: [&str; 3] = ["secded_datapath", "handshake_control", "generated_netlists"];

/// One design of a workload.
#[derive(Debug, Clone)]
pub struct Design {
    pub label: String,
    pub netlist: Netlist,
}

/// A Figure-7 pair at one width and upset rate, for the paper headline:
/// Figure 7(b) must out-run Figure 7(a) in tokens per cycle.
#[derive(Debug, Clone)]
pub struct Fig7Pair {
    pub tag: String,
    pub nonspeculative: Netlist,
    pub speculative: Netlist,
}

/// Cycles each design of a headline pair runs.
pub const FIG7_CYCLES: u64 = 128;

/// Headline pairs: one seeded width from each of three strata of 32–57, at
/// seeded upset rates of 0.2–3 %, the `secded_datapath` ranges.
pub fn fig7_pairs(seed: u64) -> Vec<Fig7Pair> {
    let mut rng = Rng::new(seed ^ 0x6669_6737);
    stratified(&mut rng, 32, 57, 3)
        .into_iter()
        .map(|width| {
            let (config, upset) = resilient(&mut rng, width as u8, FIG7_CYCLES as usize + 8);
            Fig7Pair {
                tag: format!("w{width}_upset{upset:.3}"),
                nonspeculative: resilient_nonspeculative(&config).netlist,
                speculative: resilient_speculative(&config).netlist,
            }
        })
        .collect()
}

/// Everything a workload runs, generated before any timed path.
#[derive(Debug)]
pub struct Workload {
    pub name: &'static str,
    /// Designs simulated (one scenario each) and swept.
    pub sim: Vec<Design>,
    /// Cycles per simulated scenario.
    pub cycles: u64,
    /// Cycles per sweep scenario.
    pub sweep_cycles: u64,
    /// Indices into `sim` of the designs swept.
    pub sweep: Vec<usize>,
    /// Indices into `sim` of the designs the explorer searches: they have a
    /// multiplexor and no shared module yet.
    pub explore: Vec<usize>,
    /// Indices into `sim` of the designs the fuzz gauntlet runs.
    pub gauntlet: Vec<usize>,
    /// Distinct designs submitted to the service.
    pub serve: Vec<Netlist>,
    /// Seed of the sweep's back-pressure scenarios and the gauntlet's cases.
    pub seed: u64,
}

impl Workload {
    /// Builds or generates the workload's netlists from the seed: the work
    /// `setup_s` times. [`Workload::select`] must run before any path.
    pub fn generate(name: &str, seed: u64) -> Option<Workload> {
        let mut rng = Rng::new(seed);
        let mut workload = match name {
            "secded_datapath" => secded(&mut rng),
            "handshake_control" => handshake(&mut rng),
            "generated_netlists" => generated(&mut rng),
            _ => return None,
        };
        workload.seed = rng.next_u64();
        Some(workload)
    }

    /// Picks the designs each path runs and drops repeated service designs.
    /// This is the benchmark's own bookkeeping, so it stays out of `setup_s`.
    pub fn select(&mut self) {
        if self.name == "generated_netlists" {
            select_generated(self);
        }
        dedupe(&mut self.serve);
    }
}

/// A search target: a multiplexor to speculate, and no speculation applied.
fn explorable(netlist: &Netlist) -> bool {
    let has = |f: fn(&NodeKind) -> bool| netlist.live_nodes().any(|n| f(&n.kind));
    has(|k| matches!(k, NodeKind::Mux(_))) && !has(|k| matches!(k, NodeKind::Shared(_)))
}

/// `count` of `indices` at evenly spaced ranks of `key`: every seed gets
/// the same spread of small and large designs, which keeps per-seed totals
/// comparable.
fn by_rank(mut indices: Vec<usize>, count: usize, key: impl Fn(usize) -> usize) -> Vec<usize> {
    indices.sort_by_key(|&i| (key(i), i));
    let n = indices.len();
    let count = count.min(n);
    let mut picked: Vec<usize> =
        (0..count).map(|j| indices[(2 * j + 1) * n / (2 * count)]).collect();
    picked.sort_unstable();
    picked
}

fn nodes(netlist: &Netlist) -> usize {
    netlist.live_nodes().count()
}

/// The service caches by structural hash, so a cold pass needs distinct
/// designs.
fn dedupe(designs: &mut Vec<Netlist>) {
    let mut seen = std::collections::HashSet::new();
    designs.retain(|netlist| seen.insert(structural_hash(netlist)));
}

/// One value drawn from each of `count` equal strata of `lo..=hi`.
fn stratified(rng: &mut Rng, lo: u64, hi: u64, count: u64) -> Vec<u64> {
    let span = hi - lo + 1;
    (0..count)
        .map(|i| {
            let start = lo + span * i / count;
            let end = lo + span * (i + 1) / count - 1;
            rng.range(start, end.max(start))
        })
        .collect()
}

fn resilient(rng: &mut Rng, width: u8, len: usize) -> (ResilientConfig, f64) {
    let upset = rng.float(0.002, 0.03);
    let config = ResilientConfig {
        data_width: width,
        operands: uniform_operands(width, len, rng.next_u64() | 1),
        error_masks: soft_error_masks(secded_codeword_width(width), upset, len, rng.next_u64() | 1),
    };
    (config, upset)
}

/// Figure-7 accumulators at seeded widths 32–57: every token runs SECDED
/// encode, correct and syndrome, so the datapath sets the pace.
fn secded(rng: &mut Rng) -> Workload {
    let cycles = 128;
    let mut sim = Vec::new();
    for width in stratified(rng, 32, 57, 9) {
        let width = width as u8;
        let (config, upset) = resilient(rng, width, cycles as usize + 8);
        let tag = format!("w{width}_upset{upset:.3}");
        sim.push(Design {
            label: format!("fig7_unprotected_{tag}"),
            netlist: resilient_unprotected(&config).netlist,
        });
        sim.push(Design {
            label: format!("fig7a_{tag}"),
            netlist: resilient_nonspeculative(&config).netlist,
        });
        sim.push(Design {
            label: format!("fig7b_{tag}"),
            netlist: resilient_speculative(&config).netlist,
        });
    }
    // The low, middle and high width strata are swept; fig7a of the lowest
    // and highest is explored; fig7a of the lowest goes through the
    // gauntlet. SECDED makes each search and each case cost seconds.
    let strata = |picked: &[usize]| -> Vec<usize> {
        picked.iter().flat_map(|&s| [3 * s, 3 * s + 1, 3 * s + 2]).collect()
    };
    let sweep = strata(&[0, 4, 8]);
    let explore = vec![1, 25];
    let gauntlet = vec![1];

    let mut serve = Vec::new();
    for width in stratified(rng, 32, 57, 34) {
        let (config, _) = resilient(rng, width as u8, 48);
        serve.push(resilient_unprotected(&config).netlist);
        serve.push(resilient_nonspeculative(&config).netlist);
        serve.push(resilient_speculative(&config).netlist);
    }
    Workload {
        name: "secded_datapath",
        sim,
        cycles,
        sweep_cycles: 32,
        sweep,
        explore,
        gauntlet,
        serve,
        seed: 0,
    }
}

fn scheduler(rng: &mut Rng) -> SchedulerKind {
    match rng.range(0, 4) {
        0 => SchedulerKind::LastTaken,
        1 => SchedulerKind::TwoBit,
        2 => SchedulerKind::Static(0),
        3 => SchedulerKind::Static(1),
        _ => SchedulerKind::Confidence { max_confidence: 2 },
    }
}

fn fig1_family(rng: &mut Rng, taken: f64, len: usize) -> [(String, Netlist); 4] {
    let config = Fig1Config {
        src0_data: DataStream::List(biased_select_values(8, taken, len, rng.next_u64() | 1)),
        src1_data: DataStream::List(biased_select_values(8, taken, len, rng.next_u64() | 1)),
        scheduler: scheduler(rng),
        ..Fig1Config::default()
    };
    let tag = format!("taken{taken:.2}");
    [
        (format!("fig1a_{tag}"), fig1a(&config).netlist),
        (format!("fig1b_{tag}"), fig1b(&config).netlist),
        (format!("fig1c_{tag}"), fig1c(&config).netlist),
        (format!("fig1d_{tag}_{:?}", config.scheduler), fig1d(&config).netlist),
    ]
}

fn fig6_pair(rng: &mut Rng, error_rate: f64, len: usize) -> [(String, Netlist); 2] {
    let (operands_a, operands_b) = approx_error_operands(8, 4, error_rate, len, rng.next_u64() | 1);
    let config = VarLatencyConfig { operands_a, operands_b, ..VarLatencyConfig::default() };
    let tag = format!("err{error_rate:.2}");
    [
        (format!("fig6a_{tag}"), variable_latency_stalling(&config).netlist),
        (format!("fig6b_{tag}"), variable_latency_speculative(&config).netlist),
    ]
}

fn chain(rng: &mut Rng, stages: usize, zero_backward: bool) -> (String, Netlist) {
    let stall = rng.float(0.1, 0.4);
    let backpressure = BackpressurePattern::Random { probability: stall, seed: rng.next_u64() };
    let (kind, buffer) = if zero_backward {
        ("zero_backward", BufferSpec::zero_backward(0))
    } else {
        ("standard", BufferSpec::standard(0))
    };
    (format!("chain{stages}_{kind}_stall{stall:.2}"), deep_pipeline(stages, buffer, backpressure))
}

/// Figure-1 select loops, Figure-6 variable-latency units and both 256-stage
/// chains on 8-bit data: settle, controller evaluation, trace and lanes set
/// the pace; the datapath ops are trivial.
fn handshake(rng: &mut Rng) -> Workload {
    let cycles = 512;
    let len = cycles as usize + 8;
    let mut named: Vec<(String, Netlist)> = Vec::new();
    for taken in stratified(rng, 5, 95, 6) {
        named.extend(fig1_family(rng, taken as f64 / 100.0, len));
    }
    for rate in stratified(rng, 2, 50, 2) {
        named.extend(fig6_pair(rng, rate as f64 / 100.0, len));
    }
    named.push(chain(rng, 256, false));
    named.push(chain(rng, 256, true));
    let sim: Vec<Design> =
        named.into_iter().map(|(label, netlist)| Design { label, netlist }).collect();
    // Designs 4f..4f+3 are fig1a–d of taken-rate stratum f, then fig6a/b of
    // both error-rate strata, then the chains. The explorer searches fig1a of
    // every stratum: fig1b/c offer it no candidate, and a search's cost
    // follows the taken rate, so six strata keep the total steady. The
    // gauntlet runs fig1a–c and fig6a: the unspeculated paper designs, which
    // it speculates itself. Already-speculated fig1d/fig6b fail its
    // structural-transform liveness checks under some schedulers, and the
    // chains' ~770 nodes would make one case cost as much as the rest
    // together. The sweep takes every other stratum, fig6 and the chains.
    let families = 0..6;
    let explore: Vec<usize> = families.clone().map(|f| 4 * f).collect();
    let mut gauntlet: Vec<usize> = families.flat_map(|f| [4 * f, 4 * f + 1, 4 * f + 2]).collect();
    gauntlet.extend([24, 26]);
    let mut sweep: Vec<usize> = [0, 2, 4].iter().flat_map(|f| 4 * f..4 * f + 4).collect();
    sweep.extend(24..sim.len());

    let mut serve = Vec::new();
    for taken in stratified(rng, 5, 95, 20) {
        serve.extend(fig1_family(rng, taken as f64 / 100.0, 48).map(|(_, n)| n));
    }
    for rate in stratified(rng, 2, 50, 10) {
        serve.extend(fig6_pair(rng, rate as f64 / 100.0, 48).map(|(_, n)| n));
    }
    // Chains are the costliest jobs; at a sixth of the designs, the p90
    // lands inside their stratified lengths rather than on the edge of them.
    for stages in stratified(rng, 4, 32, 24) {
        serve.push(chain(rng, stages as usize, stages % 2 == 0).1);
    }
    Workload {
        name: "handshake_control",
        sweep,
        sim,
        cycles,
        sweep_cycles: cycles,
        explore,
        gauntlet,
        serve,
        seed: 0,
    }
}

/// The generator presets the fuzzer and the service draw from.
pub const PRESETS: [&str; 3] = ["default", "loops", "pipelines"];

pub fn preset(name: &str) -> GenConfig {
    match name {
        "loops" => GenConfig::loops(),
        "pipelines" => GenConfig::pipelines(),
        _ => GenConfig::default(),
    }
}

/// Netlists generated per preset.
const PER_PRESET: usize = 100;

/// A few hundred `elastic_gen::generate` netlists, ~192 cycles each: build,
/// validation, transforms, verification and the service cold path dominate.
/// [`select_generated`] picks each path's designs.
fn generated(rng: &mut Rng) -> Workload {
    let mut sim = Vec::new();
    for name in PRESETS {
        let config = preset(name);
        for _ in 0..PER_PRESET {
            let seed = rng.next_u64();
            sim.push(Design {
                label: format!("{name}_{seed:016x}"),
                netlist: generate(seed, &config).netlist,
            });
        }
    }
    Workload {
        name: "generated_netlists",
        sim,
        cycles: 192,
        sweep_cycles: 192,
        sweep: vec![],
        explore: vec![],
        gauntlet: vec![],
        serve: vec![],
        seed: 0,
    }
}

/// Per preset, designs at evenly spaced ranks of size: 12 gauntlet designs,
/// 34 service jobs and 12 swept designs. The explorer gets designs of the
/// cheaper half by search cost, spread over its ranks, up to
/// `EXPLORE_BUDGET` of search cost: with the shipped options a search of a
/// large generated design takes up to two seconds, and the summed search
/// time only holds still from seed to seed when every seed searches the
/// same total cost.
fn select_generated(w: &mut Workload) {
    let size = |i: usize| nodes(&w.sim[i].netlist);
    for p in 0..PRESETS.len() {
        let members: Vec<usize> = (p * PER_PRESET..(p + 1) * PER_PRESET).collect();
        w.gauntlet.extend(by_rank(members.clone(), 12, size));
        let serve = by_rank(members.clone(), 34, size);
        w.serve.extend(serve.into_iter().map(|i| w.sim[i].netlist.clone()));
        w.sweep.extend(by_rank(members, 12, size));
    }
    // Search cost: the candidates that apply, each simulated over the whole
    // design. Candidates the transform refuses cost next to nothing.
    let options = crate::e2e::explore_options();
    let search_cost = |i: usize| {
        let netlist = &w.sim[i].netlist;
        let applied = enumerate_candidates(netlist, &options)
            .into_iter()
            .filter(|config| config.apply(&mut netlist.clone()).is_ok())
            .count();
        applied * size(i)
    };
    for p in 0..PRESETS.len() {
        // A design without a candidate that applies has nothing to search.
        let mut searchable: Vec<(usize, usize)> = (p * PER_PRESET..(p + 1) * PER_PRESET)
            .filter(|&i| explorable(&w.sim[i].netlist))
            .map(|i| (search_cost(i), i))
            .filter(|&(cost, _)| cost > 0)
            .collect();
        searchable.sort_unstable();
        searchable.truncate(searchable.len() / 2);
        w.explore.extend(fill_budget(&searchable, EXPLORE_BUDGET));
    }
}

/// Search cost (applicable candidates × nodes) the explorer's designs of
/// each preset add up to, short by less than the cheapest design left out:
/// about a dozen designs. Over 171 searched generated designs the log of
/// this cost correlated at 0.95 with the log of the search time.
const EXPLORE_BUDGET: usize = 2400;

/// Designs of `ranked` (`(cost, index)`, sorted by cost) visited in an order
/// that spreads over the ranks at every prefix (the van der Corput
/// sequence), each taken if it still fits in `budget`. Every seed then gets
/// the same total cost, made of small and large designs alike.
fn fill_budget(ranked: &[(usize, usize)], budget: usize) -> Vec<usize> {
    let n = ranked.len();
    let mut seen = vec![false; n];
    let mut order = Vec::with_capacity(n);
    // The first 2^m terms, for 2^m ≥ n, hold every multiple of 2^-m, so
    // each rank's interval of width 1/n is hit.
    for k in 0u64..(2 * n as u64).next_power_of_two() {
        let rank = (k.reverse_bits() as f64 / 2f64.powi(64) * n as f64) as usize;
        if !seen[rank] {
            seen[rank] = true;
            order.push(rank);
        }
    }
    let (mut total, mut picked) = (0, Vec::new());
    for rank in order {
        let (cost, i) = ranked[rank];
        if total + cost <= budget {
            total += cost;
            picked.push(i);
        }
    }
    picked.sort_unstable();
    picked
}
