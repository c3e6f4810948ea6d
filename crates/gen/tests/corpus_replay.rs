//! Regression corpus replay: every `corpus/*.case` seed regenerates its
//! netlist and must clear the full differential gauntlet.
//!
//! A corpus entry is a small key-value file:
//!
//! ```text
//! # commentary on what this seed once caught
//! seed = 0x5eed0073
//! preset = default
//! ```
//!
//! Corpus seeds pin *generator-stream* regressions: they only reproduce the
//! historical netlist while the generator's RNG stream stays frozen (see
//! `src/rng.rs`), which is exactly why the shrunken reproducer snippets in
//! the comments — not the seeds — are the durable artifact of a finding.

use std::path::PathBuf;

use elastic_gen::{run_case, GenConfig, HarnessOptions};

#[derive(Debug)]
struct CorpusEntry {
    file: String,
    seed: u64,
    config: GenConfig,
}

fn parse_seed(value: &str) -> u64 {
    if let Some(hex) = value.strip_prefix("0x") {
        u64::from_str_radix(hex, 16).expect("hex seed")
    } else {
        value.parse().expect("decimal seed")
    }
}

fn load_corpus() -> Vec<CorpusEntry> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("corpus");
    let mut entries = Vec::new();
    let mut paths: Vec<_> = std::fs::read_dir(&dir)
        .expect("crates/gen/corpus exists")
        .map(|entry| entry.expect("readable dir entry").path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "case"))
        .collect();
    paths.sort();
    for path in paths {
        let text = std::fs::read_to_string(&path).expect("readable corpus file");
        let mut seed = None;
        let mut config = None;
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let Some((key, value)) = line.split_once('=') else {
                panic!("{}: malformed line `{line}`", path.display());
            };
            match key.trim() {
                "seed" => seed = Some(parse_seed(value.trim())),
                "preset" => {
                    config = Some(GenConfig::preset(value.trim()).unwrap_or_else(|| {
                        panic!("{}: unknown generation preset `{}`", path.display(), value.trim())
                    }))
                }
                other => panic!("{}: unknown key `{other}`", path.display()),
            }
        }
        entries.push(CorpusEntry {
            file: path.file_name().unwrap().to_string_lossy().into_owned(),
            seed: seed.unwrap_or_else(|| panic!("{}: missing seed", path.display())),
            config: config.unwrap_or_else(|| panic!("{}: missing preset", path.display())),
        });
    }
    entries
}

#[test]
fn the_corpus_is_nonempty_and_well_formed() {
    let corpus = load_corpus();
    assert!(corpus.len() >= 5, "expected the shipped regression corpus, found {corpus:?}");
}

#[test]
fn every_corpus_seed_passes_the_full_gauntlet() {
    let corpus = load_corpus();
    let options = HarnessOptions::default();
    for entry in corpus {
        run_case(entry.seed, &entry.config, &options)
            .unwrap_or_else(|failure| panic!("corpus entry {} regressed: {failure}", entry.file));
    }
}

#[test]
fn every_corpus_seed_is_lane_broadcast_identical() {
    // The 64-lane engine's lane-0 identity contract, replayed over the whole
    // regression corpus: each historical finding's netlist must simulate
    // bit-identically in all broadcast lanes.
    use elastic_gen::{generate, lanes_agree};
    for entry in load_corpus() {
        let generated = generate(entry.seed, &entry.config);
        lanes_agree(&generated.netlist, 192).unwrap_or_else(|details| {
            panic!("corpus entry {} broke lane identity: {details}", entry.file)
        });
    }
}

#[test]
fn every_corpus_seed_is_compiled_identical() {
    // The compiled settle backend's bit-identity contract, replayed over the
    // whole regression corpus: each historical finding's netlist must
    // simulate identically under the straight-line plan (or its
    // event-driven fallback for designs whose rails form a cycle).
    use elastic_gen::{compiled_agrees, generate};
    for entry in load_corpus() {
        let generated = generate(entry.seed, &entry.config);
        compiled_agrees(&generated.netlist, 192).unwrap_or_else(|details| {
            panic!("corpus entry {} broke compiled identity: {details}", entry.file)
        });
    }
}

// Named replays of the individual findings, so a regression points straight
// at the original diagnosis instead of a corpus index.

#[test]
fn corpus_0001_retime_forward_respects_data_tokens() {
    // Also re-assert the precondition directly: the transform layer must
    // keep rejecting data-carrying tokens crossing value-changing logic.
    let report = run_case(0x0, &GenConfig::default(), &HarnessOptions::default())
        .unwrap_or_else(|failure| panic!("{failure}"));
    // The retiming path must still be attempted (applied, or skipped on a
    // structural precondition — including the data-token side condition this
    // seed established).
    assert!(
        report.transforms.iter().any(|name| name.starts_with("retime"))
            || report.notes.iter().any(|note| note.starts_with("skipped retime")),
        "seed 0 must still exercise the retiming path: {report:?}"
    );
}

#[test]
fn corpus_0002_lazy_fork_oracle_convergence() {
    run_case(0x1, &GenConfig::loops(), &HarnessOptions::default())
        .unwrap_or_else(|failure| panic!("{failure}"));
}

#[test]
fn corpus_0004_buffer_init_values_are_masked() {
    run_case(0x5eed0073, &GenConfig::default(), &HarnessOptions::default())
        .unwrap_or_else(|failure| panic!("{failure}"));
}

#[test]
fn corpus_0009_0010_acyclic_speculation_is_sound_and_exercised() {
    // Pre-fix, these seeds (with feed-forward speculation switched on)
    // reordered shared results resp. livelocked under a static scheduler;
    // the gauntlet always speculates feed-forward muxes now, so it must
    // both pass and actually attempt feed-forward speculation on them.
    for (seed, config) in
        [(0x5eed_0000_004d, GenConfig::default()), (0x5eed_0003_0012, GenConfig::small())]
    {
        let report = run_case(seed, &config, &HarnessOptions::default())
            .unwrap_or_else(|failure| panic!("{failure}"));
        assert!(
            report.transforms.iter().any(|name| name.starts_with("speculate_acyclic"))
                || report.notes.iter().any(|note| note.starts_with("skipped speculate_acyclic")),
            "seed {seed:#x} must exercise the feed-forward speculation path: {report:?}"
        );
    }
}

#[test]
fn corpus_0015_narrowing_muxes_are_legal_speculation_sites() {
    // The carried-over `speculate` narrowing-mux refusal is gone: Shannon
    // decomposition re-masks the moved block's operands to the old
    // mux-output width, so width-converting muxes speculate and stay
    // behaviourally equivalent. Seed 0xd pins the cyclic (select-loop) site,
    // seed 0xa the feed-forward one; both must *apply* the transform — a
    // regression back to a precondition refusal would leave only skip notes.
    use elastic_gen::generate;
    for seed in [0xd_u64, 0xa] {
        let generated = generate(seed, &GenConfig::default());
        assert!(
            !generated.profile.narrowing_muxes.is_empty(),
            "seed {seed:#x} must generate a narrowing gadget mux"
        );
        let narrowing_names: Vec<String> = generated
            .profile
            .narrowing_muxes
            .iter()
            .map(|&mux| generated.netlist.node(mux).unwrap().name.clone())
            .collect();
        let report = run_case(seed, &GenConfig::default(), &HarnessOptions::default())
            .unwrap_or_else(|failure| panic!("{failure}"));
        assert!(
            report.transforms.iter().any(|name| name.starts_with("speculate")
                && narrowing_names.iter().any(|mux| name.contains(&format!("({mux}")))),
            "seed {seed:#x} must speculate its narrowing mux {narrowing_names:?}: {report:?}"
        );
    }
}

#[test]
fn roadmap_era_acyclic_reproducers_stay_green() {
    // The two seeds PR 3's ROADMAP entry named as the original acyclic
    // reproducers (pipelines base + 0x1b, small base + 0xd). The generator's
    // stream has widened since, so they regenerate different netlists — they
    // stay replayed as historical anchors of the feed-forward soundness work.
    for (seed, config) in
        [(0x5eed_0001_001b, GenConfig::pipelines()), (0x5eed_0003_000d, GenConfig::small())]
    {
        run_case(seed, &config, &HarnessOptions::default())
            .unwrap_or_else(|failure| panic!("{failure}"));
    }
}
