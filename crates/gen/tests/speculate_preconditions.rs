//! Speculation preconditions on generated topologies.
//!
//! `find_select_cycles` is the structural gate of the composite `speculate`
//! pass; here its DFS is checked against an independent brute-force simple-
//! cycle enumeration on generated loop netlists, and the no-op contract of
//! `speculate` on cycle-free designs is pinned.

use std::collections::BTreeSet;

use elastic_core::transform::{find_select_cycles, speculate, SpeculateOptions};
use elastic_core::{Netlist, NodeId, NodeKind, Port};
use elastic_gen::{generate, GenConfig};

/// Independent brute force: enumerate every simple path `mux → … → select
/// driver` over a plain adjacency list built straight from the channel set
/// (no reuse of `Netlist::successors`), then close each path into a cycle.
/// Exponential, fine at generated-netlist sizes.
fn brute_force_select_cycles(netlist: &Netlist, mux: NodeId) -> BTreeSet<Vec<NodeId>> {
    let select_driver = match netlist.channel_into(Port::input(mux, 0)) {
        Some(channel) => channel.from.node,
        None => return BTreeSet::new(),
    };
    // Adjacency from raw channels.
    let mut successors: std::collections::BTreeMap<NodeId, BTreeSet<NodeId>> = Default::default();
    for channel in netlist.live_channels() {
        successors.entry(channel.from.node).or_default().insert(channel.to.node);
    }

    let mut cycles = BTreeSet::new();
    let mut path = vec![mux];
    fn extend(
        successors: &std::collections::BTreeMap<NodeId, BTreeSet<NodeId>>,
        target: NodeId,
        mux: NodeId,
        path: &mut Vec<NodeId>,
        cycles: &mut BTreeSet<Vec<NodeId>>,
    ) {
        let current = *path.last().expect("path never empty");
        let Some(next_nodes) = successors.get(&current) else { return };
        for &next in next_nodes {
            if next == target {
                let mut cycle = path.clone();
                cycle.push(target);
                cycles.insert(cycle);
                continue;
            }
            if next == mux || path.contains(&next) {
                continue;
            }
            path.push(next);
            extend(successors, target, mux, path, cycles);
            path.pop();
        }
    }
    extend(&successors, select_driver, mux, &mut path, &mut cycles);
    cycles
}

fn muxes(netlist: &Netlist) -> Vec<NodeId> {
    netlist
        .live_nodes()
        .filter(|node| matches!(node.kind, NodeKind::Mux(_)))
        .map(|node| node.id)
        .collect()
}

#[test]
fn find_select_cycles_agrees_with_brute_force_on_generated_loops() {
    let mut loop_muxes_checked = 0;
    for seed in 0..30u64 {
        let generated = generate(seed, &GenConfig::loops());
        for mux in muxes(&generated.netlist) {
            let reported: BTreeSet<Vec<NodeId>> =
                find_select_cycles(&generated.netlist, mux).unwrap().into_iter().collect();
            let brute = brute_force_select_cycles(&generated.netlist, mux);
            assert_eq!(reported, brute, "seed {seed}, mux {mux}: DFS and brute force disagree");
            if !reported.is_empty() {
                loop_muxes_checked += 1;
                // Every reported cycle starts at the mux and ends at the
                // select driver.
                for cycle in &reported {
                    assert_eq!(cycle.first(), Some(&mux));
                    let driver = generated
                        .netlist
                        .channel_into(Port::input(mux, 0))
                        .map(|channel| channel.from.node);
                    assert_eq!(cycle.last().copied(), driver);
                }
            }
        }
        // Every gadget-built loop mux must actually report a cycle.
        for &mux in &generated.profile.select_loop_muxes {
            assert!(
                !find_select_cycles(&generated.netlist, mux).unwrap().is_empty(),
                "seed {seed}: gadget loop mux {mux} lost its select cycle"
            );
        }
    }
    assert!(loop_muxes_checked >= 30, "only {loop_muxes_checked} loop muxes checked");
}

#[test]
fn find_select_cycles_is_empty_on_generated_pipelines() {
    for seed in 0..30u64 {
        let generated = generate(seed, &GenConfig::pipelines());
        for mux in muxes(&generated.netlist) {
            assert!(
                find_select_cycles(&generated.netlist, mux).unwrap().is_empty(),
                "seed {seed}: a pipeline mux reported a select cycle"
            );
            assert!(brute_force_select_cycles(&generated.netlist, mux).is_empty());
        }
    }
}

#[test]
fn speculate_on_cycle_free_netlists_is_a_rejected_no_op() {
    let mut rejected = 0;
    for seed in 0..40u64 {
        let generated = generate(seed, &GenConfig::default());
        for mux in muxes(&generated.netlist) {
            if !find_select_cycles(&generated.netlist, mux).unwrap().is_empty() {
                continue;
            }
            let before = generated.netlist.clone();
            let mut candidate = generated.netlist.clone();
            let error = speculate(&mut candidate, mux, &SpeculateOptions::default())
                .expect_err("cycle-free speculation must be rejected without allow_acyclic");
            assert!(error.to_string().contains("no cycle"), "seed {seed}: {error}");
            assert_eq!(candidate, before, "a rejected speculation must not mutate the netlist");
            rejected += 1;
        }
    }
    assert!(rejected >= 10, "only {rejected} cycle-free muxes encountered");
}

#[test]
fn speculate_rejects_non_mux_nodes_on_generated_netlists() {
    let generated = generate(11, &GenConfig::loops());
    for node in generated.netlist.live_nodes() {
        if matches!(node.kind, NodeKind::Mux(_)) {
            continue;
        }
        let mut candidate = generated.netlist.clone();
        assert!(
            speculate(&mut candidate, node.id, &SpeculateOptions::default()).is_err(),
            "{} must not be speculatable",
            node.name
        );
        assert!(find_select_cycles(&generated.netlist, node.id).is_err());
    }
}

#[test]
fn lazy_rendezvous_refusals_name_one_witness_node() {
    // Mux n31 of this design has four nodes coupling it to a lazy
    // rendezvous (n8, n24, n27, n30). The refusal must name the same one
    // every time — the lowest — or identical explorer searches report
    // different skip reasons and their reports compare unequal.
    let generated = generate(0xac7d_99d4_5859_7799, &GenConfig::loops());
    let mux = NodeId::new(31);
    let options = SpeculateOptions { allow_acyclic: true, ..SpeculateOptions::default() };
    let reasons: BTreeSet<String> = (0..32)
        .map(|_| {
            let mut candidate = generated.netlist.clone();
            speculate(&mut candidate, mux, &options)
                .expect_err("n31's cone touches a lazy rendezvous")
                .to_string()
        })
        .collect();
    assert_eq!(reasons.len(), 1, "repeated refusals must agree: {reasons:#?}");
    let reason = reasons.first().expect("one reason");
    assert!(reason.contains("lazy fork's rendezvous region (via node n8)"), "{reason}");
}
