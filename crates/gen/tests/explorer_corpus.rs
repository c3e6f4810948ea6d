//! Explorer replay over the regression corpus: every `corpus/*.case` seed
//! regenerates its netlist and must survive the auto-speculation design-space
//! explorer — no panics, full grid accounting, and every transform rejection
//! surfaced as a skip with the transform's own reason rather than a silent
//! hole in the report.

use std::path::PathBuf;

use elastic_gen::{generate, run_case, GenConfig, HarnessOptions};

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
    let mut paths: Vec<_> = std::fs::read_dir(&dir)
        .expect("crates/gen/corpus exists")
        .map(|entry| entry.expect("readable dir entry").path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "case"))
        .collect();
    paths.sort();
    let mut entries = Vec::new();
    for path in paths {
        let text = std::fs::read_to_string(&path).expect("readable corpus file");
        let mut seed = None;
        let mut config = None;
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (key, value) = line.split_once('=').expect("key = value line");
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
            seed: seed.expect("seed"),
            config: config.expect("preset"),
        });
    }
    assert!(entries.len() >= 5, "expected the shipped regression corpus");
    entries
}

/// The explorer configuration the replay uses: the harness stage's shape
/// (short horizons, two environments, verification handled separately).
fn replay_options(seed: u64) -> elastic_explore::ExploreOptions {
    elastic_explore::ExploreOptions {
        cycles: 192,
        short_cycles: 64,
        environments: 2,
        seed,
        verify: false,
        ..elastic_explore::ExploreOptions::default()
    }
}

#[test]
fn every_corpus_netlist_explores_with_full_accounting() {
    let mut candidates_total = 0;
    let mut skips_total = 0;
    for entry in load_corpus() {
        let generated = generate(entry.seed, &entry.config);
        let report = elastic_explore::explore(&generated.netlist, &replay_options(entry.seed))
            .unwrap_or_else(|error| {
                panic!("corpus entry {} broke the explorer: {error}", entry.file)
            });
        assert_eq!(
            report.accounted(),
            report.candidates_enumerated,
            "corpus entry {} left candidates unaccounted for: {:?}",
            entry.file,
            report.notes
        );
        // Rejected transforms are skips carrying the transform's own reason,
        // never empty strings or silent holes.
        for skip in &report.skipped {
            assert!(
                !skip.reason.trim().is_empty(),
                "corpus entry {}: skip for {} has no reason",
                entry.file,
                skip.config.label()
            );
        }
        candidates_total += report.candidates_enumerated;
        skips_total += report.skipped.len();
    }
    // The corpus exists because its netlists are awkward: the replay must
    // actually exercise the grid, and at least some of those awkward sites
    // must surface as explicit rejections.
    assert!(candidates_total > 0, "the corpus enumerated no speculation candidates at all");
    assert!(
        skips_total > 0,
        "no corpus entry produced a rejected candidate; the skip path went unexercised"
    );
}

#[test]
fn the_harness_soundness_stage_holds_on_the_acyclic_speculation_anchors() {
    // The seeds that pinned the feed-forward speculation soundness work
    // (corpus 0009/0010) now also run the full explorer-soundness stage:
    // search, re-apply + battery on every front member, determinism and
    // reproducibility replays.
    let options = HarnessOptions { explorer_soundness: true, ..HarnessOptions::default() };
    for (seed, config) in
        [(0x5eed_0000_004d_u64, GenConfig::default()), (0x5eed_0003_0012, GenConfig::small())]
    {
        let report = run_case(seed, &config, &options)
            .unwrap_or_else(|failure| panic!("seed {seed:#x} failed: {failure}"));
        assert!(
            report.transforms.iter().any(|name| name.starts_with("explore (")),
            "seed {seed:#x} must record the explorer stage: {:?}",
            report.transforms
        );
        assert!(
            report.notes.iter().any(|note| note.starts_with("explorer: ")),
            "seed {seed:#x} must carry the explorer's coverage notes"
        );
    }
}
