//! Histogram assertions over the widened generation space: the knobs added
//! for lazy forks, multi-operand shared modules and stallable-cone loop
//! gadgets must actually *emit* those shapes — a silent coverage collapse
//! (every roll failing, every lazy fork demoted) would leave the battery
//! green while testing nothing new.

use std::collections::BTreeMap;

use elastic_core::NodeKind;
use elastic_gen::{generate, GenConfig};

#[derive(Debug, Default)]
struct SpaceHistogram {
    netlists: usize,
    lazy_forks: usize,
    demoted_lazy_forks: usize,
    multi_operand_shared: usize,
    stallable_loop_forks: usize,
    feedforward_muxes: usize,
    select_loop_muxes: usize,
    width_mutated_forks: usize,
    width_mutated_joins: usize,
    narrowing_forks: usize,
    narrowing_joins: usize,
    narrowing_muxes: usize,
    kinds: BTreeMap<&'static str, usize>,
}

fn sample(config: &GenConfig, seeds: std::ops::Range<u64>) -> SpaceHistogram {
    let mut histogram = SpaceHistogram::default();
    for seed in seeds {
        let generated = generate(seed, config);
        histogram.netlists += 1;
        histogram.lazy_forks += generated.profile.lazy_forks.len();
        histogram.multi_operand_shared += generated.profile.multi_operand_shared.len();
        histogram.stallable_loop_forks += generated.profile.stallable_loop_forks.len();
        histogram.feedforward_muxes += generated.profile.feedforward_muxes.len();
        histogram.select_loop_muxes += generated.profile.select_loop_muxes.len();
        histogram.width_mutated_forks += generated.profile.width_mutated_forks.len();
        histogram.width_mutated_joins += generated.profile.width_mutated_joins.len();
        histogram.narrowing_joins += generated.profile.narrowing_joins.len();
        histogram.narrowing_muxes += generated.profile.narrowing_muxes.len();
        // Every profiled narrowing mux must really be width-converting: the
        // output wire strictly narrower than at least one data input. These
        // are the speculation sites the re-masking Shannon path exists for.
        for &mux in &generated.profile.narrowing_muxes {
            let out_width = generated
                .netlist
                .output_channels(mux)
                .first()
                .map(|c| c.width)
                .expect("gadget muxes drive a wire");
            let widest_data = generated
                .netlist
                .input_channels(mux)
                .iter()
                .skip(1) // port 0 is the select
                .map(|c| c.width)
                .max()
                .expect("gadget muxes have data inputs");
            assert!(
                out_width < widest_data,
                "seed {seed:#x}: profiled narrowing mux converts nothing \
                 ({widest_data} bits in, {out_width} out)"
            );
        }
        // A join's pre-mutation operand width is not reconstructible from the
        // finished netlist, so the narrowing direction is recorded at
        // generation time; it must at least be consistent with the mutation
        // profile (every narrowing join is a width-mutated join).
        for &join in &generated.profile.narrowing_joins {
            assert!(
                generated.profile.width_mutated_joins.contains(&join),
                "seed {seed:#x}: narrowing join missing from the width-mutation profile"
            );
        }
        // Every profiled width-mutated fork must really convert a width, and
        // the space must include *narrowing* branches (the masking direction
        // — widening alone would leave the truncation paths untested).
        for &fork in &generated.profile.width_mutated_forks {
            let input_width = generated
                .netlist
                .input_channels(fork)
                .first()
                .map(|c| c.width)
                .expect("forks have an input");
            let outputs = generated.netlist.output_channels(fork);
            assert!(
                outputs.iter().any(|c| c.width != input_width),
                "seed {seed:#x}: profiled width-mutated fork converts nothing"
            );
            if outputs.iter().any(|c| c.width < input_width) {
                histogram.narrowing_forks += 1;
            }
        }
        for node in generated.netlist.live_nodes() {
            *histogram.kinds.entry(node.kind.kind_name()).or_insert(0) += 1;
            match &node.kind {
                NodeKind::Fork(spec) if !spec.eager => {
                    // Survived the ill-formed-rendezvous demotion.
                    assert!(
                        generated.profile.lazy_forks.contains(&node.id),
                        "seed {seed:#x}: live lazy fork missing from the profile"
                    );
                }
                NodeKind::Shared(spec) if spec.inputs_per_user > 1 => {
                    assert!(
                        generated.profile.multi_operand_shared.contains(&node.id),
                        "seed {seed:#x}: multi-operand shared missing from the profile"
                    );
                }
                _ => {}
            }
        }
        // Demotions: profile entries removed between roll and emission are
        // not directly observable, but every profiled lazy fork must still
        // be lazy in the netlist.
        for &fork in &generated.profile.lazy_forks {
            let spec = match &generated.netlist.node(fork).unwrap().kind {
                NodeKind::Fork(spec) => spec,
                other => panic!("seed {seed:#x}: profiled lazy fork is a {}", other.kind_name()),
            };
            assert!(!spec.eager, "seed {seed:#x}: demoted fork left in the lazy profile");
        }
        histogram.demoted_lazy_forks += generated
            .netlist
            .live_nodes()
            .filter(|n| {
                n.name.starts_with("lzfork")
                    && matches!(&n.kind, NodeKind::Fork(spec) if spec.eager)
            })
            .count();
    }
    histogram
}

#[test]
fn the_widened_default_space_emits_every_new_shape() {
    let histogram = sample(&GenConfig::default(), 0..160);
    assert!(
        histogram.lazy_forks >= 8,
        "lazy forks barely emitted (the demotion lint is conservative, but the surviving \
         envelope must stay populated): {histogram:?}"
    );
    assert!(
        histogram.demoted_lazy_forks >= 1,
        "the ill-formed-rendezvous lint never fired — either the space no longer \
         builds reconvergent lazy shapes or the demotion is dead code: {histogram:?}"
    );
    assert!(
        histogram.multi_operand_shared >= 8,
        "multi-operand shared modules barely emitted: {histogram:?}"
    );
    assert!(
        histogram.feedforward_muxes >= 40,
        "feed-forward speculation targets barely emitted: {histogram:?}"
    );
    assert!(
        histogram.width_mutated_forks >= 10,
        "width-converting fork branches barely emitted: {histogram:?}"
    );
    assert!(
        histogram.width_mutated_joins >= 10,
        "width-converting join operands barely emitted: {histogram:?}"
    );
    assert!(
        histogram.narrowing_forks >= 5,
        "the narrowing (truncating) direction of fork width mutation is barely \
         emitted — the masking paths would go untested: {histogram:?}"
    );
    assert!(
        histogram.narrowing_joins >= 5,
        "the narrowing (truncating) direction of join width mutation is barely \
         emitted — the join-side masking paths would go untested: {histogram:?}"
    );
    assert!(
        histogram.narrowing_muxes >= 10,
        "narrowing (width-converting) gadget muxes are barely emitted — the \
         re-masking speculation sites recovered from the old refusal would go \
         untested: {histogram:?}"
    );
    for kind in ["source", "sink", "function", "buffer", "fork", "mux", "shared", "varlatency"] {
        assert!(histogram.kinds.contains_key(kind), "kind `{kind}` vanished: {histogram:?}");
    }
}

#[test]
fn the_loop_space_emits_stallable_cone_gadgets() {
    let histogram = sample(&GenConfig::loops(), 0..120);
    assert!(
        histogram.select_loop_muxes >= 120,
        "every loops() netlist carries at least one select loop: {histogram:?}"
    );
    assert!(
        histogram.stallable_loop_forks >= 25,
        "the fork-before-EB loop variant (a stallable fork inside the speculative \
         cone) is barely emitted: {histogram:?}"
    );
}
