//! Source designs and module assembly for the generated settle functions.
//!
//! Single source of truth shared by the `regen_generated_settle` example
//! (which writes `src/generated_settle.rs`) and the `codegen_golden` test
//! (which pins the checked-in file to the emitter's current output).

use elastic_core::library::{fig1a, fig1d, resilient_speculative, Fig1Config, ResilientConfig};
use elastic_core::Netlist;
use elastic_sim::codegen::emit_settle_fn;

/// The paper designs whose settle functions are checked in, in module order.
/// Each name becomes a `settle_<name>` function in `generated_settle`.
pub fn designs() -> Vec<(&'static str, Netlist)> {
    let fig1 = Fig1Config::default();
    vec![
        ("fig1a", fig1a(&fig1).netlist),
        ("fig1d", fig1d(&fig1).netlist),
        ("fig7b", resilient_speculative(&ResilientConfig::default()).netlist),
    ]
}

/// Assembles the full text of `src/generated_settle.rs`.
///
/// # Panics
///
/// When a design fails to emit — only possible after an emitter or planner
/// regression, since every design in [`designs`] has a plan.
pub fn module_text() -> String {
    let mut out = String::from(
        "//! Settle functions generated by `elastic_sim::codegen::emit_settle_fn`.\n\
         //!\n\
         //! Checked-in output of the codegen golden test; regenerate with\n\
         //! `cargo run -p elastic-bench --example regen_generated_settle` after\n\
         //! changing the emitter or the source designs. Each function is the\n\
         //! straight-line settle pass for one paper design, driven through\n\
         //! `elastic_sim::codegen::run_generated`; the golden test pins this file to\n\
         //! the emitter's current output and the differential test pins each function\n\
         //! to the interpreted engines, cycle for cycle and bit for bit.\n",
    );
    for (name, netlist) in designs() {
        out.push('\n');
        out.push_str(
            &emit_settle_fn(&netlist, &format!("settle_{name}"))
                .unwrap_or_else(|error| panic!("{name}: {error}")),
        );
    }
    out
}
