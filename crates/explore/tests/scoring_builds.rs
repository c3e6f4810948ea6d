//! One build per measurement: `measure` replays every environment of a
//! grid on one scalar simulation, and a search builds no lane block at all.
//!
//! This must be the only test in this file: `Simulation::constructions()`
//! and `LaneSimulation::constructions()` are process-global counters, and
//! any concurrently running test that builds a simulation would skew the
//! deltas.

use elastic_core::library::{fig1a, Fig1Config};
use elastic_explore::{environment_grid, explore, measure, ExploreOptions};
use elastic_sim::{LaneSimulation, Simulation};

fn builds<T>(count: fn() -> u64, work: impl FnOnce() -> T) -> (T, u64) {
    let before = count();
    let result = work();
    (result, count() - before)
}

#[test]
fn each_measurement_builds_one_scalar_simulation_and_a_search_no_lane_block() {
    let handles = fig1a(&Fig1Config::default());

    let grid = environment_grid(&handles.netlist, 70, 3);
    let (measured, count) =
        builds(Simulation::constructions, || measure(&handles.netlist, &grid, 64).unwrap());
    assert_eq!(measured.per_env.len(), 70);
    assert_eq!(count, 1, "70 environments replayed on one build");

    let options = ExploreOptions {
        cycles: 256,
        short_cycles: 64,
        environments: 2,
        verify: false,
        sequential: true,
        ..ExploreOptions::default()
    };
    let (report, count) =
        builds(LaneSimulation::constructions, || explore(&handles.netlist, &options).unwrap());
    assert!(!report.front.is_empty());
    assert_eq!(count, 0, "scoring never builds a lane block");
}
