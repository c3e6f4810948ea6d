//! Canonical structural hashing of netlists.
//!
//! The result cache keys jobs by *what the design is*, not by how its nodes
//! happen to be numbered: two submissions whose netlists differ only in node
//! slot order, channel insertion order, or cosmetic names must collide on the
//! same cache entry, while any semantic difference — a node kind or spec, a
//! channel width, a rewired port — must (with overwhelming probability)
//! separate them.
//!
//! The hash is a Weisfeiler–Leman colour refinement over the port graph:
//!
//! 1. every live node starts with a colour derived from its *kind signature*
//!    (the full `NodeKind`, specs included — environments, ops, scheduler
//!    policies — but **not** the node's id or name);
//! 2. each round re-colours every node with a digest of its own colour plus
//!    the multiset of `(own port index, peer port index, channel width, peer
//!    colour)` annotations of its incident channels, sorted so neighbour
//!    enumeration order cannot leak in;
//! 3. after enough rounds for information to cross the graph, the netlist
//!    hash folds the sorted multiset of final node colours together with the
//!    sorted multiset of fully-annotated channel signatures.
//!
//! Everything bottoms out in FNV-1a ([`elastic_core::mix::Fnv`]) —
//! deterministic across runs, processes and platforms (unlike `std`'s keyed
//! `DefaultHasher` there is no per-process seed), which is what lets the
//! journal and a restarted service agree on keys.
//!
//! **Collision posture.** This is attributed WL, not full canonical
//! labelling: non-isomorphic designs that WL cannot distinguish would
//! collide, as would (astronomically rarely) distinct 64-bit digests.
//! Attributed elastic netlists are heterogeneous enough that WL separates
//! every pair the test suite can construct (including every PR 3 invalidity
//! mutation); the cache additionally stores a checksum over the *payload*,
//! so a collision can serve a stale-but-well-formed report, never a
//! corrupted one.

use std::collections::HashMap;

use elastic_core::mix::{fnv, Fnv};
use elastic_core::{Netlist, NodeId};

/// How many refinement rounds information needs to cross the graph: the
/// node count bounds the diameter, and small designs are cheap enough that
/// precision beats shaving rounds. Capped so pathological inputs stay
/// `O(rounds · channels)`.
fn refinement_rounds(nodes: usize) -> usize {
    nodes.clamp(2, 64)
}

/// Computes the canonical structural hash of a netlist.
///
/// Invariant under node-id permutation, channel reordering and renaming
/// (node, channel and netlist names are all excluded); sensitive to node
/// kinds and specs, channel widths, and the port-accurate wiring. See the
/// module docs for the construction and the collision posture.
pub fn structural_hash(netlist: &Netlist) -> u64 {
    let nodes: Vec<NodeId> = netlist.live_nodes().map(|n| n.id).collect();
    if nodes.is_empty() {
        return fnv(b"empty netlist");
    }
    let position: HashMap<NodeId, usize> =
        nodes.iter().enumerate().map(|(index, &id)| (id, index)).collect();

    // 1. Initial colours from the kind signature alone. `NodeKind`'s Debug
    //    form spells out the full spec (ops, environment patterns, scheduler
    //    policies) and contains no ids or names, so it is exactly the
    //    permutation-independent attribute set.
    let mut colors: Vec<u64> = nodes
        .iter()
        .map(|&id| {
            let node = netlist.node(id).expect("live node");
            Fnv::new().write(format!("{:?}", node.kind).as_bytes()).finish()
        })
        .collect();

    // Incident-channel annotations per node, fixed across rounds: for every
    // endpoint, (own port index, peer port index, width, peer position,
    // direction).
    struct Incidence {
        own_port: u64,
        peer_port: u64,
        width: u64,
        peer: usize,
        into_node: bool,
    }
    let mut incident: Vec<Vec<Incidence>> = (0..nodes.len()).map(|_| Vec::new()).collect();
    for channel in netlist.live_channels() {
        let from = position[&channel.from.node];
        let to = position[&channel.to.node];
        incident[from].push(Incidence {
            own_port: channel.from.index as u64,
            peer_port: channel.to.index as u64,
            width: u64::from(channel.width),
            peer: to,
            into_node: false,
        });
        incident[to].push(Incidence {
            own_port: channel.to.index as u64,
            peer_port: channel.from.index as u64,
            width: u64::from(channel.width),
            peer: from,
            into_node: true,
        });
    }

    // 2. Refinement rounds.
    let mut scratch: Vec<u64> = Vec::with_capacity(16);
    for _ in 0..refinement_rounds(nodes.len()) {
        let next: Vec<u64> = (0..nodes.len())
            .map(|index| {
                scratch.clear();
                for edge in &incident[index] {
                    let mut f = Fnv::new();
                    f.write_u64(u64::from(edge.into_node))
                        .write_u64(edge.own_port)
                        .write_u64(edge.peer_port)
                        .write_u64(edge.width)
                        .write_u64(colors[edge.peer]);
                    scratch.push(f.finish());
                }
                // Sorting makes the digest a function of the *multiset* of
                // incident annotations, independent of channel enumeration
                // order.
                scratch.sort_unstable();
                let mut f = Fnv::new();
                f.write_u64(colors[index]);
                for &edge in scratch.iter() {
                    f.write_u64(edge);
                }
                f.finish()
            })
            .collect();
        if next == colors {
            break;
        }
        colors = next;
    }

    // 3. Fold the stable colour multiset with the fully-annotated channel
    //    multiset.
    let mut node_digest: Vec<u64> = colors.clone();
    node_digest.sort_unstable();
    let mut channel_digest: Vec<u64> = netlist
        .live_channels()
        .map(|channel| {
            let mut f = Fnv::new();
            f.write_u64(colors[position[&channel.from.node]])
                .write_u64(channel.from.index as u64)
                .write_u64(colors[position[&channel.to.node]])
                .write_u64(channel.to.index as u64)
                .write_u64(u64::from(channel.width));
            f.finish()
        })
        .collect();
    channel_digest.sort_unstable();

    let mut f = Fnv::new();
    f.write_u64(nodes.len() as u64).write_u64(channel_digest.len() as u64);
    for value in node_digest.into_iter().chain(channel_digest) {
        f.write_u64(value);
    }
    f.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use elastic_core::kind::{MuxSpec, SinkSpec, SourceSpec};
    use elastic_core::{Netlist, Port};

    fn small_design() -> Netlist {
        let mut n = Netlist::new("hash_unit");
        let sel = n.add_source("sel", SourceSpec::always());
        let a = n.add_source("a", SourceSpec::always());
        let b = n.add_source("b", SourceSpec::always());
        let mux = n.add_mux("mux", MuxSpec::lazy(2));
        let sink = n.add_sink("sink", SinkSpec::always_ready());
        n.connect(Port::output(sel, 0), Port::input(mux, 0), 1).unwrap();
        n.connect(Port::output(a, 0), Port::input(mux, 1), 8).unwrap();
        n.connect(Port::output(b, 0), Port::input(mux, 2), 8).unwrap();
        n.connect(Port::output(mux, 0), Port::input(sink, 0), 8).unwrap();
        n
    }

    #[test]
    fn hashing_is_deterministic_and_name_blind() {
        let a = small_design();
        let mut b = small_design();
        b.set_name("completely different");
        assert_eq!(structural_hash(&a), structural_hash(&a));
        assert_eq!(structural_hash(&a), structural_hash(&b));
    }

    #[test]
    fn a_width_change_separates_the_hash() {
        let a = small_design();
        let mut b = small_design();
        let channel = b.live_channels().find(|c| c.width == 8).map(|c| c.id).unwrap();
        b.channel_mut(channel).unwrap().width = 7;
        assert_ne!(structural_hash(&a), structural_hash(&b));
    }

    #[test]
    fn a_spec_change_separates_the_hash() {
        let a = small_design();
        let mut b = small_design();
        let mux = b.find_node("mux").unwrap().id;
        if let elastic_core::kind::NodeKind::Mux(spec) = &mut b.node_mut(mux).unwrap().kind {
            spec.early_eval = true;
        }
        assert_ne!(structural_hash(&a), structural_hash(&b));
    }

    fn distinct_operand_design(swapped: bool) -> Netlist {
        let mut n = Netlist::new("hash_unit");
        let sel = n.add_source("sel", SourceSpec::always());
        let counter = n.add_source("counter", SourceSpec::always());
        let constant = n.add_source(
            "constant",
            SourceSpec { data: elastic_core::kind::DataStream::Const(7), ..SourceSpec::always() },
        );
        let mux = n.add_mux("mux", MuxSpec::lazy(2));
        let sink = n.add_sink("sink", SinkSpec::always_ready());
        let (first, second) = if swapped { (constant, counter) } else { (counter, constant) };
        n.connect(Port::output(sel, 0), Port::input(mux, 0), 1).unwrap();
        n.connect(Port::output(first, 0), Port::input(mux, 1), 8).unwrap();
        n.connect(Port::output(second, 0), Port::input(mux, 2), 8).unwrap();
        n.connect(Port::output(mux, 0), Port::input(sink, 0), 8).unwrap();
        n
    }

    #[test]
    fn swapping_distinct_operands_changes_the_hash() {
        // The two sources differ only in their data stream; routing the
        // constant to data port 1 instead of port 2 is a select-inverted —
        // genuinely different — design, so the hash must separate it even
        // though the node multiset is identical.
        assert_ne!(
            structural_hash(&distinct_operand_design(false)),
            structural_hash(&distinct_operand_design(true)),
            "operand order is semantic"
        );
    }

    #[test]
    fn generated_designs_hash_to_pinned_digests() {
        // Cache keys and journal records persist across restarts, and a
        // seeded job is keyed by the hash of the design its recipe
        // regenerates: the generator stream and the hash must never drift.
        let pinned: [(&str, [u64; 8]); 4] = [
            (
                "default",
                [
                    0x9a40_aff7_a74b_b4e6,
                    0x79e9_7e29_31a6_b108,
                    0x9241_2dae_b877_21de,
                    0xb033_b7de_9371_11ef,
                    0xb442_97fb_56d5_60de,
                    0x9271_a59c_40e1_e5bb,
                    0x732d_7319_e84b_579c,
                    0x3ae5_cd48_7720_91bb,
                ],
            ),
            (
                "pipelines",
                [
                    0xbc38_4947_d886_3c17,
                    0x0028_bea6_dffb_e0f7,
                    0x765f_c846_2143_4639,
                    0x2892_f642_ce2c_00da,
                    0xf019_45d4_b593_6a41,
                    0x2d98_24c2_894b_d4e8,
                    0x12f6_ee3a_cd30_bef6,
                    0x108d_ed32_eedb_3acd,
                ],
            ),
            (
                "loops",
                [
                    0xd9d0_1411_cc67_d12d,
                    0x66f7_d7ab_f0c4_7132,
                    0x319c_afe6_81d7_ec7f,
                    0x54c1_8b60_9919_a798,
                    0xb050_fd72_a4d4_a38c,
                    0x97f3_dd0b_f2ad_a72f,
                    0x59bb_4004_bd6d_6374,
                    0x8114_525e_3d46_5b83,
                ],
            ),
            (
                "small",
                [
                    0x95b8_1112_6204_3fdf,
                    0xb8d8_8f37_10fa_d883,
                    0xc11c_9c87_156b_7189,
                    0x0362_b5c6_6adc_e5c3,
                    0x58af_81d0_8556_f999,
                    0x85c1_7b95_2bd0_eb8b,
                    0xcea1_7b93_a94f_4072,
                    0xe531_c475_137f_26be,
                ],
            ),
        ];
        for (preset, digests) in pinned {
            let config = elastic_gen::GenConfig::preset(preset).unwrap();
            let observed: Vec<u64> = (0..8)
                .map(|seed| structural_hash(&elastic_gen::generate(seed, &config).netlist))
                .collect();
            assert_eq!(observed, digests, "preset {preset}");
        }
    }
}
