//! Golden and differential tests for the checked-in generated settle module.
//!
//! `crates/bench/src/generated_settle.rs` is the emitted output of
//! `elastic_sim::codegen::emit_settle_fn` for the paper designs in
//! `elastic_bench::codegen_support`. The golden test pins the file to what
//! the emitter produces today (regenerate with the
//! `regen_generated_settle` example when the emitter or the designs change);
//! the differential tests pin the *compiled* functions to the interpreted
//! event-driven engine — same trace, same sink streams, same speculation
//! statistics, cycle for cycle.

use elastic_bench::codegen_support::module_text;
use elastic_bench::generated_settle;
use elastic_core::library::{fig1a, fig1d, resilient_speculative, Fig1Config, ResilientConfig};
use elastic_core::Netlist;
use elastic_sim::codegen::run_generated;
use elastic_sim::{SimConfig, Simulation};

#[test]
fn the_checked_in_module_matches_the_emitter() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("src/generated_settle.rs");
    let checked_in = std::fs::read_to_string(path).expect("read generated module");
    assert!(
        checked_in == module_text(),
        "src/generated_settle.rs is stale; regenerate with \
         `cargo run -p elastic-bench --example regen_generated_settle`"
    );
}

/// Runs `cycles` with the generated settle function and with the interpreted
/// event-driven engine and asserts the runs are indistinguishable.
fn assert_generated_matches_reference(
    name: &str,
    netlist: &Netlist,
    cycles: u64,
    settle: fn(&mut [elastic_sim::ChannelState], &[Box<dyn elastic_sim::controller::Controller>]),
) {
    let generated = run_generated(netlist, cycles, settle)
        .unwrap_or_else(|error| panic!("{name}: generated run failed: {error}"));
    let mut reference = Simulation::new(netlist, &SimConfig::default())
        .unwrap_or_else(|error| panic!("{name}: reference build failed: {error}"));
    reference.run(cycles).unwrap_or_else(|error| panic!("{name}: reference run failed: {error}"));

    let (gen_trace, ref_trace) = (generated.trace(), reference.trace());
    if gen_trace != ref_trace {
        for cycle in 0..cycles as usize {
            let gen_states: Option<Vec<_>> = gen_trace.states_at(cycle).map(|s| s.collect());
            let ref_states: Option<Vec<_>> = ref_trace.states_at(cycle).map(|s| s.collect());
            assert!(
                gen_states == ref_states,
                "{name}: traces diverge at cycle {cycle}:\n generated {gen_states:?}\n reference \
                 {ref_states:?}"
            );
        }
        panic!("{name}: traces differ outside per-cycle states");
    }

    let (gen, reference) = (generated.report(), reference.report());
    assert_eq!(gen.sink_streams, reference.sink_streams, "{name}: sink streams");
    assert_eq!(gen.shared_stats, reference.shared_stats, "{name}: shared stats");
    assert_eq!(gen.commit_stats, reference.commit_stats, "{name}: commit stats");
}

#[test]
fn generated_fig1a_matches_the_interpreted_engine() {
    let netlist = fig1a(&Fig1Config::default()).netlist;
    assert_generated_matches_reference("fig1a", &netlist, 512, generated_settle::settle_fig1a);
}

#[test]
fn generated_fig1d_matches_the_interpreted_engine() {
    let netlist = fig1d(&Fig1Config::default()).netlist;
    assert_generated_matches_reference("fig1d", &netlist, 512, generated_settle::settle_fig1d);
}

#[test]
fn generated_fig7b_matches_the_interpreted_engine() {
    let netlist = resilient_speculative(&ResilientConfig::default()).netlist;
    assert_generated_matches_reference("fig7b", &netlist, 512, generated_settle::settle_fig7b);
}
