//! The compiled and lane differentials on commit stages.
//!
//! A generated base netlist never holds a commit stage: only `speculate` on
//! a feed-forward mux inserts one, and the fuzz harness runs its compiled
//! and lane legs on the base netlist alone. Here both legs run on the
//! speculated designs of generated seeds, at every commit depth from 1 to 4.

use elastic_core::transform::{find_select_cycles, speculate, SpeculateOptions};
use elastic_core::NodeKind;
use elastic_gen::{compiled_agrees, generate, lanes_agree, GenConfig};
use elastic_sim::codegen::emit_settle_fn;

#[test]
fn speculated_commit_stages_agree_on_the_plan_and_on_the_lanes() {
    let (mut designs, mut planned) = (0, 0);
    for seed in 0..36 {
        let base = generate(seed, &GenConfig::default()).netlist;
        let feedforward_muxes: Vec<_> = base
            .live_nodes()
            .filter(|node| matches!(&node.kind, NodeKind::Mux(spec) if !spec.early_eval))
            .filter(|node| find_select_cycles(&base, node.id).is_ok_and(|cycles| cycles.is_empty()))
            .map(|node| node.id)
            .collect();
        for mux in feedforward_muxes {
            for commit_depth in 1..=4 {
                let options = SpeculateOptions {
                    allow_acyclic: true,
                    commit_depth,
                    starvation_limit: Some(8),
                    ..SpeculateOptions::default()
                };
                let mut netlist = base.clone();
                if speculate(&mut netlist, mux, &options).is_err() {
                    continue;
                }
                assert!(
                    netlist.live_nodes().any(|node| node.kind.kind_name() == "commit"),
                    "seed {seed}: a speculated feed-forward mux gets a commit stage"
                );
                let case = format!("seed {seed}, mux {mux}, commit depth {commit_depth}");
                compiled_agrees(&netlist, 192).unwrap_or_else(|error| panic!("{case}: {error}"));
                lanes_agree(&netlist, 192).unwrap_or_else(|error| panic!("{case}: {error}"));
                designs += 1;
                planned += usize::from(emit_settle_fn(&netlist, "settle").is_ok());
            }
        }
    }
    // 164 designs, 152 of them with a plan, when this test was written; the
    // rest hold a lazy fork whose branches reconverge, and settle
    // event-driven in both legs.
    assert!(designs >= 150, "only {designs} speculated commit designs");
    assert!(planned >= 140, "only {planned} of {designs} speculated commit designs have a plan");
}
