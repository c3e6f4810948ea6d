//! Settle functions generated by `elastic_sim::codegen::emit_settle_fn`.
//!
//! Checked-in output of the codegen golden test; regenerate with
//! `cargo run -p elastic-bench --example regen_generated_settle` after
//! changing the emitter or the source designs. Each function is the
//! straight-line settle pass for one paper design, driven through
//! `elastic_sim::codegen::run_generated`; the golden test pins this file to
//! the emitter's current output and the differential test pins each function
//! to the interpreted engines, cycle for cycle and bit for bit.

/// Settle pass for `fig1a_nonspeculative` (8 channels, 12 ops),
/// emitted by `elastic_sim::codegen::emit_settle_fn`. Drive it with
/// `elastic_sim::codegen::run_generated` on the same netlist.
#[allow(clippy::all, unused)]
#[rustfmt::skip]
pub fn settle_fig1a(
    channels: &mut [elastic_sim::signal::ChannelState],
    controllers: &[Box<dyn elastic_sim::controller::Controller>],
) {
    let mut wires = elastic_sim::codegen::Wires::clear(channels, &[8, 8, 8, 8, 8, 8, 8, 1]);
    controllers[0].eval(&mut wires.ports(&[], &[0]), false); // n0 `src0` (source)
    controllers[1].eval(&mut wires.ports(&[], &[1]), false); // n1 `src1` (source)
    controllers[4].eval(&mut wires.ports(&[3], &[4]), false); // n4 `eb` (buffer)
    controllers[7].eval(&mut wires.ports(&[6], &[]), false); // n7 `sink` (sink)
    controllers[5].forward(&mut wires.ports(&[4], &[5, 6])); // n5 `fork` (fork)
    controllers[6].forward(&mut wires.ports(&[5], &[7])); // n6 `g` (function)
    controllers[2].forward(&mut wires.ports(&[7, 0, 1], &[2])); // n2 `mux` (mux)
    controllers[3].forward(&mut wires.ports(&[2], &[3])); // n3 `f` (function)
    controllers[3].backward(&mut wires.ports(&[2], &[3])); // n3 `f` (function)
    controllers[2].backward(&mut wires.ports(&[7, 0, 1], &[2])); // n2 `mux` (mux)
    controllers[6].backward(&mut wires.ports(&[5], &[7])); // n6 `g` (function)
    controllers[5].backward(&mut wires.ports(&[4], &[5, 6])); // n5 `fork` (fork)
}

/// Settle pass for `fig1d_speculation` (9 channels, 12 ops),
/// emitted by `elastic_sim::codegen::emit_settle_fn`. Drive it with
/// `elastic_sim::codegen::run_generated` on the same netlist.
#[allow(clippy::all, unused)]
#[rustfmt::skip]
pub fn settle_fig1d(
    channels: &mut [elastic_sim::signal::ChannelState],
    controllers: &[Box<dyn elastic_sim::controller::Controller>],
) {
    let mut wires = elastic_sim::codegen::Wires::clear(channels, &[8, 8, 8, 8, 8, 8, 1, 8, 8]);
    controllers[0].eval(&mut wires.ports(&[], &[0]), false); // n0 `src0` (source)
    controllers[1].eval(&mut wires.ports(&[], &[1]), false); // n1 `src1` (source)
    controllers[3].eval(&mut wires.ports(&[2], &[3]), false); // n3 `eb` (buffer)
    controllers[6].eval(&mut wires.ports(&[5], &[]), false); // n6 `sink` (sink)
    controllers[7].forward(&mut wires.ports(&[0, 1], &[7, 8])); // n7 `f_sh0_shared` (shared)
    controllers[4].forward(&mut wires.ports(&[3], &[4, 5])); // n4 `fork` (fork)
    controllers[5].forward(&mut wires.ports(&[4], &[6])); // n5 `g` (function)
    controllers[2].forward(&mut wires.ports(&[6, 7, 8], &[2])); // n2 `mux` (mux)
    controllers[2].backward(&mut wires.ports(&[6, 7, 8], &[2])); // n2 `mux` (mux)
    controllers[5].backward(&mut wires.ports(&[4], &[6])); // n5 `g` (function)
    controllers[7].backward(&mut wires.ports(&[0, 1], &[7, 8])); // n7 `f_sh0_shared` (shared)
    controllers[4].backward(&mut wires.ports(&[3], &[4, 5])); // n4 `fork` (fork)
}

/// Settle pass for `fig7b_speculative` (20 channels, 28 ops),
/// emitted by `elastic_sim::codegen::emit_settle_fn`. Drive it with
/// `elastic_sim::codegen::run_generated` on the same netlist.
#[allow(clippy::all, unused)]
#[rustfmt::skip]
pub fn settle_fig7b(
    channels: &mut [elastic_sim::signal::ChannelState],
    controllers: &[Box<dyn elastic_sim::controller::Controller>],
) {
    let mut wires = elastic_sim::codegen::Wires::clear(channels, &[39, 39, 39, 39, 39, 39, 32, 32, 2, 1, 32, 32, 32, 39, 39, 39, 32, 32, 32, 32]);
    controllers[0].eval(&mut wires.ports(&[14], &[0]), false); // n0 `state` (buffer)
    controllers[2].eval(&mut wires.ports(&[], &[1]), false); // n2 `fault_src` (source)
    controllers[3].eval(&mut wires.ports(&[], &[10]), false); // n3 `operand_src` (source)
    controllers[4].eval(&mut wires.ports(&[15], &[]), false); // n4 `sink` (sink)
    controllers[1].forward(&mut wires.ports(&[0, 1], &[2])); // n1 `inject_fault` (function)
    controllers[14].forward(&mut wires.ports(&[10], &[16, 17])); // n14 `adder_op1_fork` (fork)
    controllers[5].forward(&mut wires.ports(&[2], &[3, 4, 5])); // n5 `check_fork` (fork)
    controllers[6].forward(&mut wires.ports(&[3], &[6])); // n6 `raw_extract` (function)
    controllers[7].forward(&mut wires.ports(&[4], &[7])); // n7 `secded_correct` (function)
    controllers[8].forward(&mut wires.ports(&[5], &[8])); // n8 `secded_syndrome` (function)
    controllers[15].forward(&mut wires.ports(&[6, 16, 7, 17], &[18, 19])); // n15 `adder_sh0_shared` (shared)
    controllers[9].forward(&mut wires.ports(&[8], &[9])); // n9 `error_decision` (function)
    controllers[10].forward(&mut wires.ports(&[9, 18, 19], &[11])); // n10 `mux` (mux)
    controllers[11].forward(&mut wires.ports(&[11], &[12])); // n11 `wrap` (function)
    controllers[12].forward(&mut wires.ports(&[12], &[13])); // n12 `secded_encode` (function)
    controllers[13].forward(&mut wires.ports(&[13], &[14, 15])); // n13 `out_fork` (fork)
    controllers[13].backward(&mut wires.ports(&[13], &[14, 15])); // n13 `out_fork` (fork)
    controllers[12].backward(&mut wires.ports(&[12], &[13])); // n12 `secded_encode` (function)
    controllers[11].backward(&mut wires.ports(&[11], &[12])); // n11 `wrap` (function)
    controllers[10].backward(&mut wires.ports(&[9, 18, 19], &[11])); // n10 `mux` (mux)
    controllers[9].backward(&mut wires.ports(&[8], &[9])); // n9 `error_decision` (function)
    controllers[15].backward(&mut wires.ports(&[6, 16, 7, 17], &[18, 19])); // n15 `adder_sh0_shared` (shared)
    controllers[8].backward(&mut wires.ports(&[5], &[8])); // n8 `secded_syndrome` (function)
    controllers[6].backward(&mut wires.ports(&[3], &[6])); // n6 `raw_extract` (function)
    controllers[7].backward(&mut wires.ports(&[4], &[7])); // n7 `secded_correct` (function)
    controllers[14].backward(&mut wires.ports(&[10], &[16, 17])); // n14 `adder_op1_fork` (fork)
    controllers[5].backward(&mut wires.ports(&[2], &[3, 4, 5])); // n5 `check_fork` (fork)
    controllers[1].backward(&mut wires.ports(&[0, 1], &[2])); // n1 `inject_fault` (function)
}
