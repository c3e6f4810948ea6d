//! Per-lane environments on generated netlists, pinned lane by lane
//! against scalar runs.
//!
//! The 64-lane engine advances the deterministic lanes of every source and
//! sink from per-period tables of lane words and draws only the random
//! lanes (and periods past the table bound) one by one. One lane block
//! here gives every lane of every source and sink its own pattern, mixing
//! `List`s of lengths 0–7, `Every(0..5)`, one period above the table bound,
//! `Always`, `Never` and seeded `Random` patterns, on seeds 0–3 of the
//! `default`, `loops` and `pipelines` presets. Every lane's trace and
//! report must equal a scalar run given that lane's patterns. A second
//! block on the same simulation then keeps a third of the lanes' patterns
//! (random ones included), changes the others and broadcasts one pattern
//! to every lane of the first source: the overrides refile only the lanes
//! that changed, and every lane must still match its scalar run.

use elastic_core::kind::{BackpressurePattern, NodeKind, SourcePattern};
use elastic_core::mix::splitmix64;
use elastic_core::{Netlist, NodeId};
use elastic_gen::{generate, GenConfig};
use elastic_sim::{LaneConfig, LaneSimulation, SimConfig, Simulation, LANES};

const CYCLES: u64 = 160;
const SEEDS: u64 = 4;

/// A period above the environments' table bound (1,024 cycles): lanes
/// with it are drawn one by one.
const LONG_PERIOD: u32 = 1031;

/// A seeded stream of pattern bits for lane `lane` of endpoint `endpoint`.
fn bits(lane: usize, endpoint: usize, len: usize) -> Vec<bool> {
    let seed = splitmix64(((endpoint as u64) << 8) | lane as u64);
    (0..len).map(|i| splitmix64(seed ^ i as u64) & 1 == 1).collect()
}

/// Lane `lane`'s back-pressure pattern on sink number `endpoint`.
fn sink_pattern(lane: usize, endpoint: usize) -> BackpressurePattern {
    let seed = splitmix64(((endpoint as u64) << 8) | lane as u64);
    match (lane + endpoint) % 12 {
        0..=3 => BackpressurePattern::List(bits(lane, endpoint, (lane / 2 + endpoint) % 8)),
        4 | 5 => BackpressurePattern::Every(((lane + endpoint) % 5) as u32),
        6 => BackpressurePattern::Never,
        7 => BackpressurePattern::Every(LONG_PERIOD),
        8 => BackpressurePattern::List(bits(lane, endpoint, LONG_PERIOD as usize)),
        _ => BackpressurePattern::Random { probability: 0.3, seed },
    }
}

/// Lane `lane`'s offer pattern on source number `endpoint`.
fn source_pattern(lane: usize, endpoint: usize) -> SourcePattern {
    let seed = splitmix64(((endpoint as u64) << 8) | lane as u64) ^ 0x5eed;
    match (lane + 3 * endpoint) % 12 {
        0..=3 => SourcePattern::List(bits(lane, endpoint + 64, (lane / 3 + endpoint) % 8)),
        4 | 5 => SourcePattern::Every(((lane + endpoint) % 5) as u32),
        6 => SourcePattern::Always,
        7 => SourcePattern::Every(LONG_PERIOD),
        8 => SourcePattern::List(bits(lane, endpoint + 64, LONG_PERIOD as usize)),
        _ => SourcePattern::Random { probability: 0.7, seed },
    }
}

fn endpoints(netlist: &Netlist, sink: bool) -> Vec<NodeId> {
    netlist
        .live_nodes()
        .filter(|n| match n.kind {
            NodeKind::Sink(_) => sink,
            NodeKind::Source(_) => !sink,
            _ => false,
        })
        .map(|n| n.id)
        .collect()
}

/// Lane `lane`'s patterns of one block: `(sink pattern, source pattern)`
/// per endpoint number.
type Environment<'a> =
    (&'a dyn Fn(usize, usize) -> BackpressurePattern, &'a dyn Fn(usize, usize) -> SourcePattern);

/// Resets `lanes` with one block of `environment` (the first source's list
/// holding one broadcast pattern when `broadcast`), runs it, and checks
/// every lane against a scalar run given that lane's patterns.
fn assert_block_matches_scalar_runs(
    name: &str,
    netlist: &Netlist,
    lanes: &mut LaneSimulation,
    (sink_pattern, source_pattern): Environment<'_>,
    broadcast: bool,
) {
    let (sinks, sources) = (endpoints(netlist, true), endpoints(netlist, false));
    let source_pattern = |lane: usize, e: usize| {
        if broadcast && e == 0 {
            source_pattern(0, 0)
        } else {
            source_pattern(lane, e)
        }
    };
    let sink_overrides: Vec<(NodeId, Vec<BackpressurePattern>)> = sinks
        .iter()
        .enumerate()
        .map(|(e, &sink)| (sink, (0..LANES).map(|lane| sink_pattern(lane, e)).collect()))
        .collect();
    let source_overrides: Vec<(NodeId, Vec<SourcePattern>)> = sources
        .iter()
        .enumerate()
        .map(|(e, &source)| {
            let lanes = if broadcast && e == 0 { 1 } else { LANES };
            (source, (0..lanes).map(|lane| source_pattern(lane, e)).collect())
        })
        .collect();
    // Both overrides persist across the reset the second call performs.
    lanes.reset_with_lane_sink_patterns(&sink_overrides);
    lanes.reset_with_lane_source_patterns(&source_overrides);
    lanes.run(CYCLES).unwrap();

    let mut scalar = Simulation::new(netlist, &SimConfig::default()).unwrap();
    for lane in 0..LANES {
        let sink_patterns: Vec<(NodeId, BackpressurePattern)> =
            sinks.iter().enumerate().map(|(e, &sink)| (sink, sink_pattern(lane, e))).collect();
        let source_patterns: Vec<(NodeId, SourcePattern)> =
            sources.iter().enumerate().map(|(e, &src)| (src, source_pattern(lane, e))).collect();
        scalar.reset_with_sink_patterns(&sink_patterns);
        scalar.reset_with_source_patterns(&source_patterns);
        let report = scalar.run(CYCLES).unwrap();
        assert_eq!(
            lanes.trace(lane),
            scalar.trace(),
            "{name}: lane {lane} trace must match its scalar environment run"
        );
        assert_eq!(
            lanes.report(lane).behavioural_difference(&report),
            None,
            "{name}: lane {lane} report must match its scalar environment run"
        );
    }
    assert!(
        (1..LANES).any(|lane| lanes.trace(lane) != lanes.trace(0)),
        "{name}: distinct environments must make some lane's trace differ from lane 0's"
    );
}

/// Lane `lane`'s pattern of the second block: the first block's for every
/// third lane, another lane's first-block pattern for the others.
fn rekeyed(lane: usize) -> usize {
    if lane.is_multiple_of(3) {
        lane
    } else {
        (lane + 5) % LANES
    }
}

fn assert_lanes_match_scalar_runs(name: &str, netlist: &Netlist) {
    let mut lanes = LaneSimulation::new(netlist, &LaneConfig::default()).unwrap();
    assert_block_matches_scalar_runs(
        name,
        netlist,
        &mut lanes,
        (&sink_pattern, &source_pattern),
        false,
    );
    let second: Environment<'_> =
        (&|lane, e| sink_pattern(rekeyed(lane), e), &|lane, e| source_pattern(rekeyed(lane), e));
    assert_block_matches_scalar_runs(
        &format!("{name}, second block"),
        netlist,
        &mut lanes,
        second,
        true,
    );
}

#[test]
fn per_lane_environments_on_generated_netlists_match_scalar_runs() {
    for preset in ["default", "loops", "pipelines"] {
        let config = GenConfig::preset(preset).expect("known preset");
        for seed in 0..SEEDS {
            let generated = generate(seed, &config);
            assert_lanes_match_scalar_runs(&format!("{preset} seed {seed}"), &generated.netlist);
        }
    }
}
