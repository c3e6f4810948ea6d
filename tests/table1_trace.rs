//! Reproduction of Table 1 of the paper, as `cargo run --example
//! branch_speculation` prints it.
//!
//! Table 1 traces the speculative design of Figure 1(d) for seven cycles with
//! the per-cycle select values `0 1 1 1 0 0 0` and the schedule
//! `0 1 0 1 0 1 0`: correct predictions in cycles 0, 1, 3, 4 and 6,
//! mispredictions in cycles 2 and 5. The reproduced observables:
//!
//! * `Fout0` row: `A - C - E * F` (the speculated `C` is cancelled by an
//!   anti-token after the cycle-2 misprediction);
//! * `Fout1` row: `- B * D - G -`;
//! * `Sel` row: `0 1 1 1 0 0 0`;
//! * `EBin` row: tokens enter the output buffer in cycles 0, 1, 3, 4 and 6
//!   with bubbles in the two misprediction cycles (the paper prints `G` in
//!   the last cycle; with `Sel = 0` at cycle 6 the fired channel is input 0,
//!   so this reproduction delivers `F` there and cancels `G`);
//! * exactly two mispredictions are observed by the shared module.

use elastic_core::library::{self, TABLE1_SELECT, TABLE1_VALUES};
use elastic_sim::{SimConfig, Simulation, TraceSymbol};

fn value(letter: char) -> u64 {
    TABLE1_VALUES.iter().find(|(l, _)| *l == letter).map(|(_, v)| *v).expect("letter in table")
}

fn symbols_to_row(symbols: &[TraceSymbol]) -> Vec<String> {
    symbols
        .iter()
        .map(|symbol| match symbol {
            TraceSymbol::Token(v) => match TABLE1_VALUES.iter().find(|(_, value)| value == v) {
                Some((letter, _)) => letter.to_string(),
                None => format!("{v:#x}"),
            },
            TraceSymbol::AntiToken => "-".to_string(),
            TraceSymbol::Bubble => "*".to_string(),
        })
        .collect()
}

#[test]
fn table1_trace_matches_the_paper() {
    let handles = library::table1();
    let mut sim = Simulation::new(&handles.netlist, &SimConfig::default()).unwrap();
    // The paper traces exactly seven cycles.
    let report = sim.run(TABLE1_SELECT.len() as u64).unwrap();
    let trace = sim.trace();

    let channel = |name: &str| {
        handles
            .netlist
            .live_channels()
            .find(|c| c.name == name)
            .map(|c| c.id)
            .expect("table1 netlist declares this channel")
    };

    // Print the trace in the paper's format (visible with `--nocapture`).
    let table = trace.render_table(&[
        (channel("fin0"), "Fin0"),
        (channel("fout0"), "Fout0"),
        (channel("fin1"), "Fin1"),
        (channel("fout1"), "Fout1"),
        (channel("sel"), "Sel"),
        (channel("ebin"), "EBin"),
    ]);
    println!("{table}");

    // Fout0 row: A - C - E * F  (exactly as printed in the paper).
    let fout0 = symbols_to_row(&trace.symbol_row(channel("fout0")));
    assert_eq!(fout0, vec!["A", "-", "C", "-", "E", "*", "F"], "Fout0 row");

    // Fout1 row: - B * D - G -  (exactly as printed in the paper).
    let fout1 = symbols_to_row(&trace.symbol_row(channel("fout1")));
    assert_eq!(fout1, vec!["-", "B", "*", "D", "-", "G", "-"], "Fout1 row");

    // Sel row: 0 1 1 1 0 0 0 (the stalled select token repeats its value).
    let sel: Vec<u64> = trace
        .channel_iter(channel("sel"))
        .map(|state| if state.forward_valid { state.data } else { u64::MAX })
        .collect();
    assert_eq!(sel, TABLE1_SELECT.to_vec(), "Sel row");

    // EBin row: tokens in cycles 0, 1, 3, 4, 6 and bubbles in the two
    // misprediction cycles 2 and 5.
    let ebin = symbols_to_row(&trace.symbol_row(channel("ebin")));
    assert_eq!(ebin[..6].to_vec(), vec!["A", "B", "*", "D", "E", "*"], "EBin row, cycles 0-5");
    assert_eq!(
        trace.transfer_stream(channel("ebin")).collect::<Vec<_>>(),
        vec![value('A'), value('B'), value('D'), value('E'), value('F')],
        "the tokens entering the output EB over the seven traced cycles"
    );

    // Exactly the two mispredictions of the paper's trace (cycles 2 and 5).
    let shared_stats = report.shared_stats.get(&handles.shared).expect("shared module stats");
    assert_eq!(
        shared_stats.mispredictions, 2,
        "Table 1 contains exactly two mispredictions (cycles 2 and 5)"
    );
}

#[test]
fn table1_streams_are_lossless() {
    // Each value delivered to the sink comes from the Table-1 value set, in
    // order and without duplication; the values cancelled by anti-tokens (C
    // after the cycle-2 misprediction, G after the cycle-5 one) never appear.
    let handles = library::table1();
    let mut sim = Simulation::new(&handles.netlist, &SimConfig::default()).unwrap();
    let report = sim.run(TABLE1_SELECT.len() as u64 + 1).unwrap();
    let delivered: Vec<u64> = report.sink_values(handles.sink).into_iter().take(5).collect();
    assert_eq!(
        delivered,
        vec![value('A'), value('B'), value('D'), value('E'), value('F')],
        "the sink observes the used tokens in order"
    );
    assert!(!delivered.contains(&value('C')), "C was speculated away and cancelled");
    assert!(!delivered.contains(&value('G')), "G was speculated away and cancelled");
}
