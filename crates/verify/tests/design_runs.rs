//! One simulation per checked design: `check_design` reads every
//! single-design property from one traced run, so the transform battery
//! builds three simulations per pair — the two transfer-equivalence runs
//! plus that one — whether or not the transformed design has shared
//! modules.
//!
//! This must be the only test in this file: `Simulation::constructions()`
//! is a process-global counter, and any concurrently running test that
//! builds a simulation would skew the delta.

use elastic_core::kind::DataStream;
use elastic_core::library::{fig1a, Fig1Config};
use elastic_core::transform::{speculate, SpeculateOptions};
use elastic_sim::Simulation;
use elastic_verify::{check_design, check_transform_battery, BatteryOptions, Verdict};

fn builds<T>(check: impl FnOnce() -> T) -> (T, u64) {
    let before = Simulation::constructions();
    let result = check();
    (result, Simulation::constructions() - before)
}

#[test]
fn each_checked_design_is_simulated_once() {
    let config = Fig1Config {
        src0_data: DataStream::List(vec![2, 9, 4, 7, 1, 8, 3, 6]),
        src1_data: DataStream::List(vec![5, 0, 3, 8, 6, 2, 9, 1]),
        ..Fig1Config::default()
    };
    let original = fig1a(&config);
    let mut speculated = original.netlist.clone();
    speculate(&mut speculated, original.mux, &SpeculateOptions::default()).unwrap();
    let options = BatteryOptions::default();

    let (verdict, count) =
        builds(|| check_transform_battery(&original.netlist, &speculated, &options).unwrap());
    assert!(verdict.passed() && verdict.is_exhaustive(), "{verdict}");
    assert_eq!(count, 3, "speculated fig1a: two equivalence runs plus one checked run");

    let (verdict, count) =
        builds(|| check_transform_battery(&original.netlist, &original.netlist, &options).unwrap());
    assert!(verdict.passed() && !verdict.is_exhaustive(), "{verdict}");
    assert_eq!(count, 3, "fig1a against itself: the vacuous checks cost no run either");

    let (checks, count) = builds(|| check_design(&speculated, &options).unwrap());
    let verdicts: [Option<&Verdict>; 4] = [
        Some(&checks.deadlock_freedom),
        checks.leads_to.as_ref(),
        checks.conservation.as_ref(),
        checks.protocol.as_ref(),
    ];
    assert!(verdicts.iter().all(|verdict| verdict.is_some_and(Verdict::passed)), "{checks:?}");
    assert_eq!(count, 1, "every single-design property from one run");
}
