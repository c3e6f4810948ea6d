//! The interactive exploration workflow of the paper's Section 5, driven by a
//! command script: apply transformations step by step, inspect the design,
//! and undo/redo.
//!
//! Run with `cargo run --example explore_shell`.

use elastic_core::library::{fig1a, Fig1Config};
use elastic_core::shell::ExplorationShell;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut shell = ExplorationShell::new(fig1a(&Fig1Config::default()).netlist);

    let script = "
        summary
        nodes
        shannon mux
        early-eval mux
        share mux last-taken
        summary
        validate
        undo
        undo
        undo
        summary
        speculate mux two-bit
        history
        summary
    ";
    println!("running exploration script:\n{script}");
    for (command, response) in
        script.lines().map(str::trim).filter(|line| !line.is_empty()).zip(shell.run_script(script)?)
    {
        println!("elastic> {command}");
        for line in response.lines() {
            println!("    {line}");
        }
    }

    Ok(())
}
