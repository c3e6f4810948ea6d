//! Settle functions generated by `elastic_sim::codegen::emit_settle_fn`.
//!
//! Checked-in output of the codegen golden test; regenerate with
//! `cargo run -p elastic-bench --example regen_generated_settle` after
//! changing the emitter or the source designs. Each function is the
//! fused settle pass for one paper design, driven through
//! `elastic_sim::codegen::run_generated`; the golden test pins this file to
//! the emitter's current output and the differential test pins each function
//! to the interpreted engines, cycle for cycle and bit for bit.

/// Settle pass for `fig1a_nonspeculative` (8 channels, 12 micro-ops, 0 trailing),
/// emitted by `elastic_sim::codegen::emit_settle_fn`. Drive it with
/// `elastic_sim::codegen::run_generated` on the same netlist.
#[allow(clippy::all, unused)]
#[rustfmt::skip]
pub fn settle_fig1a(
    channels: &mut [elastic_sim::signal::ChannelState],
    controllers: &[Box<dyn elastic_sim::controller::Controller>],
) {
    use elastic_sim::codegen::{concrete, Wires};
    use elastic_sim::controllers::*;
    let n2: &mux::MuxController = concrete(controllers, 2);
    let n3: &function::FunctionBlock = concrete(controllers, 3);
    let n5: &fork::EagerFork = concrete(controllers, 5);
    let n6: &function::FunctionBlock = concrete(controllers, 6);
    let mut wires = Wires::clear(channels, &[8, 8, 8, 8, 8, 8, 8, 1]);
    controllers[0].eval(&mut wires.ports(&[], &[0])); // n0 `src0` (source)
    controllers[1].eval(&mut wires.ports(&[], &[1])); // n1 `src1` (source)
    controllers[4].eval(&mut wires.ports(&[3], &[4])); // n4 `eb` (buffer)
    controllers[7].eval(&mut wires.ports(&[6], &[])); // n7 `sink` (sink)
    n5.forward(&mut wires.ports(&[4], &[5, 6])); // n5 `fork` (fork)
    n6.forward(&mut wires.ports(&[5], &[7])); // n6 `g` (function)
    n2.forward(&mut wires.ports(&[7, 0, 1], &[2])); // n2 `mux` (mux)
    n3.forward(&mut wires.ports(&[2], &[3])); // n3 `f` (function)
    n3.backward(&mut wires.ports(&[2], &[3])); // n3 `f` (function)
    n2.backward(&mut wires.ports(&[7, 0, 1], &[2])); // n2 `mux` (mux)
    n6.backward(&mut wires.ports(&[5], &[7])); // n6 `g` (function)
    n5.backward(&mut wires.ports(&[4], &[5, 6])); // n5 `fork` (fork)
}

/// Settle pass for `fig1d_speculation` (9 channels, 11 micro-ops, 5 trailing),
/// emitted by `elastic_sim::codegen::emit_settle_fn`. Drive it with
/// `elastic_sim::codegen::run_generated` on the same netlist.
#[allow(clippy::all, unused)]
#[rustfmt::skip]
pub fn settle_fig1d(
    channels: &mut [elastic_sim::signal::ChannelState],
    controllers: &[Box<dyn elastic_sim::controller::Controller>],
) {
    use elastic_sim::codegen::{concrete, Wires};
    use elastic_sim::controllers::*;
    let n2: &mux::MuxController = concrete(controllers, 2);
    let n4: &fork::EagerFork = concrete(controllers, 4);
    let n5: &function::FunctionBlock = concrete(controllers, 5);
    let mut wires = Wires::clear(channels, &[8, 8, 8, 8, 8, 8, 1, 8, 8]);
    controllers[0].eval(&mut wires.ports(&[], &[0])); // n0 `src0` (source)
    controllers[1].eval(&mut wires.ports(&[], &[1])); // n1 `src1` (source)
    controllers[3].eval(&mut wires.ports(&[2], &[3])); // n3 `eb` (buffer)
    controllers[6].eval(&mut wires.ports(&[5], &[])); // n6 `sink` (sink)
    n4.forward(&mut wires.ports(&[3], &[4, 5])); // n4 `fork` (fork)
    n5.forward(&mut wires.ports(&[4], &[6])); // n5 `g` (function)
    // Trailing segment: ops on or downstream of combinational rail
    // cycles, relaxed in deterministic order until a sweep changes
    // nothing (settle budget 26).
    wires.relax(26, |wires| {
        n2.forward(&mut wires.ports(&[6, 7, 8], &[2])); // n2 `mux` (mux)
        n2.backward(&mut wires.ports(&[6, 7, 8], &[2])); // n2 `mux` (mux)
        n4.backward(&mut wires.ports(&[3], &[4, 5])); // n4 `fork` (fork)
        n5.backward(&mut wires.ports(&[4], &[6])); // n5 `g` (function)
        controllers[7].eval(&mut wires.ports(&[0, 1], &[7, 8])); // n7 `f_sh0_shared` (shared)
    });
}

/// Settle pass for `fig7b_speculative` (20 channels, 27 micro-ops, 16 trailing),
/// emitted by `elastic_sim::codegen::emit_settle_fn`. Drive it with
/// `elastic_sim::codegen::run_generated` on the same netlist.
#[allow(clippy::all, unused)]
#[rustfmt::skip]
pub fn settle_fig7b(
    channels: &mut [elastic_sim::signal::ChannelState],
    controllers: &[Box<dyn elastic_sim::controller::Controller>],
) {
    use elastic_sim::codegen::{concrete, Wires};
    use elastic_sim::controllers::*;
    let n1: &function::FunctionBlock = concrete(controllers, 1);
    let n5: &fork::EagerFork = concrete(controllers, 5);
    let n6: &function::FunctionBlock = concrete(controllers, 6);
    let n7: &function::FunctionBlock = concrete(controllers, 7);
    let n8: &function::FunctionBlock = concrete(controllers, 8);
    let n9: &function::FunctionBlock = concrete(controllers, 9);
    let n10: &mux::MuxController = concrete(controllers, 10);
    let n11: &function::FunctionBlock = concrete(controllers, 11);
    let n12: &function::FunctionBlock = concrete(controllers, 12);
    let n13: &fork::EagerFork = concrete(controllers, 13);
    let n14: &fork::EagerFork = concrete(controllers, 14);
    let mut wires = Wires::clear(channels, &[39, 39, 39, 39, 39, 39, 32, 32, 2, 1, 32, 32, 32, 39, 39, 39, 32, 32, 32, 32]);
    controllers[0].eval(&mut wires.ports(&[14], &[0])); // n0 `state` (buffer)
    controllers[2].eval(&mut wires.ports(&[], &[1])); // n2 `fault_src` (source)
    controllers[3].eval(&mut wires.ports(&[], &[10])); // n3 `operand_src` (source)
    controllers[4].eval(&mut wires.ports(&[15], &[])); // n4 `sink` (sink)
    n1.forward(&mut wires.ports(&[0, 1], &[2])); // n1 `inject_fault` (function)
    n14.forward(&mut wires.ports(&[10], &[16, 17])); // n14 `adder_op1_fork` (fork)
    n5.forward(&mut wires.ports(&[2], &[3, 4, 5])); // n5 `check_fork` (fork)
    n6.forward(&mut wires.ports(&[3], &[6])); // n6 `raw_extract` (function)
    n7.forward(&mut wires.ports(&[4], &[7])); // n7 `secded_correct` (function)
    n8.forward(&mut wires.ports(&[5], &[8])); // n8 `secded_syndrome` (function)
    n9.forward(&mut wires.ports(&[8], &[9])); // n9 `error_decision` (function)
    // Trailing segment: ops on or downstream of combinational rail
    // cycles, relaxed in deterministic order until a sweep changes
    // nothing (settle budget 48).
    wires.relax(48, |wires| {
        n1.backward(&mut wires.ports(&[0, 1], &[2])); // n1 `inject_fault` (function)
        n5.backward(&mut wires.ports(&[2], &[3, 4, 5])); // n5 `check_fork` (fork)
        n6.backward(&mut wires.ports(&[3], &[6])); // n6 `raw_extract` (function)
        n7.backward(&mut wires.ports(&[4], &[7])); // n7 `secded_correct` (function)
        n8.backward(&mut wires.ports(&[5], &[8])); // n8 `secded_syndrome` (function)
        n9.backward(&mut wires.ports(&[8], &[9])); // n9 `error_decision` (function)
        n10.forward(&mut wires.ports(&[9, 18, 19], &[11])); // n10 `mux` (mux)
        n10.backward(&mut wires.ports(&[9, 18, 19], &[11])); // n10 `mux` (mux)
        n11.forward(&mut wires.ports(&[11], &[12])); // n11 `wrap` (function)
        n11.backward(&mut wires.ports(&[11], &[12])); // n11 `wrap` (function)
        n12.forward(&mut wires.ports(&[12], &[13])); // n12 `secded_encode` (function)
        n12.backward(&mut wires.ports(&[12], &[13])); // n12 `secded_encode` (function)
        n13.forward(&mut wires.ports(&[13], &[14, 15])); // n13 `out_fork` (fork)
        n13.backward(&mut wires.ports(&[13], &[14, 15])); // n13 `out_fork` (fork)
        n14.backward(&mut wires.ports(&[10], &[16, 17])); // n14 `adder_op1_fork` (fork)
        controllers[15].eval(&mut wires.ports(&[6, 16, 7, 17], &[18, 19])); // n15 `adder_sh0_shared` (shared)
    });
}
