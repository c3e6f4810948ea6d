//! Shared helpers for the benchmark harness.
//!
//! Four bench targets remain. Each prints one table, then times the runs
//! behind it with Criterion: `fig1_designs` the Figure-1 design points
//! (throughput, cycle time, effective cycle time, area), `accuracy_sweep`
//! speculation throughput against select bias and predictor, `eb_latency`
//! the recovery-buffer variants after the shared module, and `verify_cost`
//! the verification campaign on the speculative Figure-1 design. The
//! Figure 6, Figure 7 and Table 1 tables are printed by the
//! `variable_latency_alu`, `resilient_adder` and `branch_speculation`
//! examples, and engine speed by `engine_timing`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use criterion::Criterion;

pub mod codegen_support;
pub mod generated_settle;

/// A Criterion configuration tuned for these benches: the interesting output
/// is the printed experiment table; the timing measurement itself only needs
/// to be stable enough to catch large simulator regressions.
pub fn criterion_config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(200))
        .measurement_time(std::time::Duration::from_millis(600))
        .without_plots()
}

/// Prints a section header for the experiment table emitted by a bench.
pub fn print_experiment_header(id: &str, title: &str) {
    println!("\n==== {id}: {title} ====");
}
