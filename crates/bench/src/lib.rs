//! Shared helpers for the benchmark harness.
//!
//! Every bench target regenerates one table or figure of the paper's
//! evaluation: it first prints the paper-style rows (the same tables the
//! examples print, e.g. `cargo run --release --example resilient_adder`),
//! then measures the simulation cost of the corresponding design points with
//! Criterion.

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
