//! Ready-to-run experiment scenarios for the paper's figures.
//!
//! Each function combines a netlist from `elastic_core::library`, workloads
//! from `elastic_datapath::workload` and (where relevant) a scheduler from
//! `elastic-predict`, runs the cycle-accurate simulation and returns the
//! metrics the paper reports. The runnable examples are thin wrappers over
//! this module, so every figure table they print (`cargo run --release
//! --example branch_speculation`, `resilient_adder`, `variable_latency_alu`)
//! can be regenerated from library code alone.

use elastic_core::kind::DataStream;
use elastic_core::library::{self, Fig1Config, Fig1Handles, ResilientConfig, VarLatencyConfig};
use elastic_core::SchedulerKind;
use elastic_datapath::workload;

use crate::engine::{SimConfig, SimError, Simulation};
use crate::metrics::SimulationReport;
use crate::sweep::parallel_map;

/// The four Figure-1 design points.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Fig1Variant {
    /// Figure 1(a): the non-speculative loop.
    NonSpeculative,
    /// Figure 1(b): bubble insertion on the critical path.
    BubbleInsertion,
    /// Figure 1(c): Shannon decomposition (duplicated logic).
    Shannon,
    /// Figure 1(d): speculation with a shared module.
    Speculation,
}

impl Fig1Variant {
    /// All four variants in paper order.
    pub fn all() -> [Fig1Variant; 4] {
        [
            Fig1Variant::NonSpeculative,
            Fig1Variant::BubbleInsertion,
            Fig1Variant::Shannon,
            Fig1Variant::Speculation,
        ]
    }

    /// Paper label of the variant.
    pub fn label(&self) -> &'static str {
        match self {
            Fig1Variant::NonSpeculative => "fig1a-nonspeculative",
            Fig1Variant::BubbleInsertion => "fig1b-bubble",
            Fig1Variant::Shannon => "fig1c-shannon",
            Fig1Variant::Speculation => "fig1d-speculation",
        }
    }
}

/// Parameters of a Figure-1 experiment run.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig1Scenario {
    /// Which design point to build.
    pub variant: Fig1Variant,
    /// Probability that the select stream chooses data input 1 ("taken").
    pub taken_rate: f64,
    /// Scheduler policy for the speculative variant.
    pub scheduler: SchedulerKind,
    /// Number of cycles to simulate.
    pub cycles: u64,
    /// Workload seed.
    pub seed: u64,
}

impl Default for Fig1Scenario {
    fn default() -> Self {
        Fig1Scenario {
            variant: Fig1Variant::Speculation,
            taken_rate: 0.3,
            scheduler: SchedulerKind::LastTaken,
            cycles: 1000,
            seed: 1,
        }
    }
}

/// Outcome of a Figure-1 experiment run.
#[derive(Debug, Clone)]
pub struct Fig1Outcome {
    /// The design point that was simulated.
    pub variant: Fig1Variant,
    /// Tokens delivered to the sink per cycle.
    pub throughput: f64,
    /// Mispredictions observed in the shared module (speculative variant only).
    pub mispredictions: u64,
    /// The constructed design (for follow-up analysis: area, cycle time, …).
    pub handles: Fig1Handles,
    /// The full simulation report.
    pub report: SimulationReport,
}

/// Builds the netlist for one Figure-1 design point with a select stream of
/// the given taken bias.
pub fn build_fig1(scenario: &Fig1Scenario) -> Fig1Handles {
    let values = workload::biased_select_values(8, scenario.taken_rate, 4096, scenario.seed);
    let config = Fig1Config {
        src0_data: DataStream::List(values.clone()),
        src1_data: DataStream::List(values.iter().map(|v| v ^ 0x80).collect()),
        scheduler: scenario.scheduler.clone(),
        ..Fig1Config::default()
    };
    match scenario.variant {
        Fig1Variant::NonSpeculative => library::fig1a(&config),
        Fig1Variant::BubbleInsertion => library::fig1b(&config),
        Fig1Variant::Shannon => library::fig1c(&config),
        Fig1Variant::Speculation => library::fig1d(&config),
    }
}

/// Runs one Figure-1 design point.
///
/// # Errors
///
/// Propagates simulation failures (which would indicate a bug in the
/// transformation or controller models).
pub fn run_fig1(scenario: &Fig1Scenario) -> Result<Fig1Outcome, SimError> {
    let handles = build_fig1(scenario);
    let mut sim = Simulation::new(
        &handles.netlist,
        &SimConfig { record_trace: false, ..SimConfig::default() },
    )?;
    let report = sim.run(scenario.cycles)?;
    Ok(Fig1Outcome {
        variant: scenario.variant,
        throughput: report.throughput(handles.sink),
        mispredictions: report.total_mispredictions(),
        handles,
        report,
    })
}

/// Runs a batch of Figure-1 design points in parallel (one simulation per
/// thread, results in input order).
///
/// Every run builds its own netlist and simulation from the scenario alone,
/// so the outcome vector is identical to mapping [`run_fig1`] sequentially —
/// same throughputs, same misprediction counts, same seeds — just faster on
/// multi-core hosts.
///
/// # Errors
///
/// Returns the first (in input order) simulation failure, like the
/// sequential loop it replaces.
pub fn run_fig1_sweep(scenarios: &[Fig1Scenario]) -> Result<Vec<Fig1Outcome>, SimError> {
    parallel_map(scenarios, |_, scenario| run_fig1(scenario)).into_iter().collect()
}

/// Outcome of the variable-latency comparison (Figure 6).
#[derive(Debug, Clone)]
pub struct VarLatencyOutcome {
    /// Throughput of the stalling design of Figure 6(a).
    pub stalling_throughput: f64,
    /// Throughput of the speculative design of Figure 6(b).
    pub speculative_throughput: f64,
    /// Mispredictions (replays) observed in the speculative design.
    pub replays: u64,
    /// The stalling design, for cost analysis.
    pub stalling: elastic_core::library::VarLatencyHandles,
    /// The speculative design, for cost analysis.
    pub speculative: elastic_core::library::VarLatencyHandles,
}

/// Runs the Figure-6 comparison at one approximation-error rate.
///
/// # Errors
///
/// Propagates simulation failures.
pub fn run_var_latency(
    error_rate: f64,
    cycles: u64,
    seed: u64,
) -> Result<VarLatencyOutcome, SimError> {
    let (operands_a, operands_b) =
        workload::approx_error_operands(8, 4, error_rate, cycles as usize + 8, seed);
    let config = VarLatencyConfig {
        width: 8,
        spec_bits: 4,
        operands_a,
        operands_b,
        ..VarLatencyConfig::default()
    };

    let stalling = library::variable_latency_stalling(&config);
    let mut sim = Simulation::new(
        &stalling.netlist,
        &SimConfig { record_trace: false, ..SimConfig::default() },
    )?;
    let stalling_report = sim.run(cycles)?;

    let speculative = library::variable_latency_speculative(&config);
    let mut sim = Simulation::new(
        &speculative.netlist,
        &SimConfig { record_trace: false, ..SimConfig::default() },
    )?;
    let speculative_report = sim.run(cycles)?;

    Ok(VarLatencyOutcome {
        stalling_throughput: stalling_report.throughput(stalling.sink),
        speculative_throughput: speculative_report.throughput(speculative.sink),
        replays: speculative_report.total_mispredictions(),
        stalling,
        speculative,
    })
}

/// Outcome of the resilient-adder comparison (Figure 7).
#[derive(Debug, Clone)]
pub struct ResilientOutcome {
    /// Throughput of the unprotected accumulator baseline.
    pub unprotected_throughput: f64,
    /// Throughput of the non-speculative resilient design of Figure 7(a).
    pub nonspeculative_throughput: f64,
    /// Throughput of the speculative resilient design of Figure 7(b).
    pub speculative_throughput: f64,
    /// Replays (mispredictions) observed in the speculative design.
    pub replays: u64,
    /// The three designs, for cost analysis.
    pub designs: ResilientDesigns,
}

/// The three resilient-accumulator design points.
#[derive(Debug, Clone)]
pub struct ResilientDesigns {
    /// Unprotected baseline.
    pub unprotected: elastic_core::library::ResilientHandles,
    /// Figure 7(a).
    pub nonspeculative: elastic_core::library::ResilientHandles,
    /// Figure 7(b).
    pub speculative: elastic_core::library::ResilientHandles,
}

/// Runs the Figure-7 comparison at one soft-error rate.
///
/// # Errors
///
/// Propagates simulation failures.
pub fn run_resilient(
    upset_rate: f64,
    cycles: u64,
    seed: u64,
) -> Result<ResilientOutcome, SimError> {
    let data_width = 32u8;
    let codeword_width = elastic_core::op::secded_codeword_width(data_width);
    let operands = workload::uniform_operands(data_width, cycles as usize + 8, seed);
    let error_masks =
        workload::soft_error_masks(codeword_width, upset_rate, cycles as usize + 8, seed ^ 0xABCD);
    let config = ResilientConfig { data_width, operands, error_masks };

    let unprotected = library::resilient_unprotected(&config);
    let nonspeculative = library::resilient_nonspeculative(&config);
    let speculative = library::resilient_speculative(&config);

    let quiet = SimConfig { record_trace: false, ..SimConfig::default() };
    let unprotected_report = Simulation::new(&unprotected.netlist, &quiet)?.run(cycles)?;
    let nonspeculative_report = Simulation::new(&nonspeculative.netlist, &quiet)?.run(cycles)?;
    let speculative_report = Simulation::new(&speculative.netlist, &quiet)?.run(cycles)?;

    Ok(ResilientOutcome {
        unprotected_throughput: unprotected_report.throughput(unprotected.sink),
        nonspeculative_throughput: nonspeculative_report.throughput(nonspeculative.sink),
        speculative_throughput: speculative_report.throughput(speculative.sink),
        replays: speculative_report.total_mispredictions(),
        designs: ResilientDesigns { unprotected, nonspeculative, speculative },
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1_nonspeculative_runs_at_full_throughput() {
        let scenario = Fig1Scenario {
            variant: Fig1Variant::NonSpeculative,
            cycles: 200,
            ..Fig1Scenario::default()
        };
        let outcome = run_fig1(&scenario).unwrap();
        assert!(
            outcome.throughput > 0.9,
            "fig1(a) should run at ~1 token/cycle, got {}",
            outcome.throughput
        );
    }

    #[test]
    fn fig1_bubble_insertion_halves_the_throughput() {
        let scenario = Fig1Scenario {
            variant: Fig1Variant::BubbleInsertion,
            cycles: 400,
            ..Fig1Scenario::default()
        };
        let outcome = run_fig1(&scenario).unwrap();
        assert!(
            (outcome.throughput - 0.5).abs() < 0.05,
            "fig1(b) throughput should be ~1/2, got {}",
            outcome.throughput
        );
    }

    #[test]
    fn fig1_shannon_restores_full_throughput() {
        let scenario =
            Fig1Scenario { variant: Fig1Variant::Shannon, cycles: 400, ..Fig1Scenario::default() };
        let outcome = run_fig1(&scenario).unwrap();
        assert!(
            outcome.throughput > 0.9,
            "fig1(c) should run at ~1 token/cycle, got {}",
            outcome.throughput
        );
    }

    #[test]
    fn fig1_speculation_approaches_shannon_with_a_biased_stream() {
        let biased = run_fig1(&Fig1Scenario {
            variant: Fig1Variant::Speculation,
            taken_rate: 0.05,
            scheduler: SchedulerKind::LastTaken,
            cycles: 600,
            seed: 3,
        })
        .unwrap();
        assert!(
            biased.throughput > 0.85,
            "a highly biased select stream should keep speculation near 1 token/cycle, got {}",
            biased.throughput
        );
        let adversarial = run_fig1(&Fig1Scenario {
            variant: Fig1Variant::Speculation,
            taken_rate: 0.5,
            scheduler: SchedulerKind::Static(0),
            cycles: 600,
            seed: 3,
        })
        .unwrap();
        assert!(
            adversarial.throughput < biased.throughput,
            "random selects with a static scheduler must mispredict more"
        );
        assert!(adversarial.mispredictions > 0);
    }

    #[test]
    fn parallel_fig1_sweep_matches_sequential_runs() {
        let scenarios: Vec<Fig1Scenario> = Fig1Variant::all()
            .into_iter()
            .map(|variant| Fig1Scenario { variant, cycles: 300, ..Fig1Scenario::default() })
            .collect();
        let parallel = run_fig1_sweep(&scenarios).unwrap();
        for (scenario, outcome) in scenarios.iter().zip(&parallel) {
            let sequential = run_fig1(scenario).unwrap();
            assert_eq!(outcome.variant, scenario.variant, "input order preserved");
            assert_eq!(outcome.throughput, sequential.throughput);
            assert_eq!(outcome.mispredictions, sequential.mispredictions);
            assert_eq!(outcome.report.sink_streams, sequential.report.sink_streams);
        }
    }

    #[test]
    fn var_latency_speculation_beats_stalling_at_low_error_rates() {
        let outcome = run_var_latency(0.1, 300, 5).unwrap();
        assert!(
            outcome.speculative_throughput >= outcome.stalling_throughput - 0.02,
            "speculative {} vs stalling {}",
            outcome.speculative_throughput,
            outcome.stalling_throughput
        );
        assert!(outcome.stalling_throughput > 0.7);
    }

    #[test]
    fn resilient_speculation_recovers_the_unprotected_throughput_when_error_free() {
        let outcome = run_resilient(0.0, 300, 7).unwrap();
        assert!(
            outcome.unprotected_throughput > 0.9,
            "unprotected accumulator should run at ~1, got {}",
            outcome.unprotected_throughput
        );
        assert!(
            outcome.speculative_throughput > outcome.nonspeculative_throughput + 0.2,
            "speculation must recover the SECDED pipeline stage: spec {} vs nonspec {}",
            outcome.speculative_throughput,
            outcome.nonspeculative_throughput
        );
        assert_eq!(outcome.replays, 0, "no soft errors, no replays");
    }

    #[test]
    fn resilient_speculation_loses_one_cycle_per_error() {
        let clean = run_resilient(0.0, 400, 11).unwrap();
        let noisy = run_resilient(0.05, 400, 11).unwrap();
        assert!(noisy.replays > 0);
        assert!(
            noisy.speculative_throughput < clean.speculative_throughput,
            "soft errors must cost replay cycles"
        );
        assert!(
            noisy.speculative_throughput > clean.speculative_throughput - 0.15,
            "a 5% upset rate should cost roughly 5% of the cycles"
        );
    }
}
