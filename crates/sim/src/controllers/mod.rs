//! Controller implementations for every netlist node kind.
//!
//! | node kind | controller | protocol role |
//! |---|---|---|
//! | `Buffer` (`Lb = 1`) | [`buffer::StandardBuffer`] | latch-based EB of Figure 2(a) |
//! | `Buffer` (`Lb = 0`) | [`buffer::ZeroBackwardBuffer`] | the Figure-5 EB with combinational stop/kill |
//! | `Function` | [`function::FunctionBlock`] | lazy join + combinational datapath |
//! | `Fork` | [`fork::EagerFork`] | token replication with per-branch completion |
//! | `Mux` | [`mux::MuxController`] | lazy or early-evaluation multiplexor with anti-token injection |
//! | `Shared` | [`shared::SharedModule`] | the speculative shared module of Figure 4 |
//! | `Commit` | [`commit::CommitStage`] | the in-order commit stage behind a shared module |
//! | `VarLatency` | [`varlatency::VarLatencyUnit`] | the stalling variable-latency unit of Figure 6(a) |
//! | `Source` / `Sink` | [`environment`] | the elastic environment |
//!
//! The first five rows are one type each, generic over the rail word
//! ([`crate::controller::WordController`]): [`build_controller`]
//! instantiates them at `bool` (one scenario) and the 64-lane engine at
//! `u64`. The other kinds are scalar; the lane engine runs one per lane.

pub mod buffer;
pub mod commit;
pub mod environment;
pub mod fork;
pub mod function;
pub mod mux;
pub mod shared;
pub mod varlatency;

use elastic_core::{BufferSpec, Netlist, Node, NodeKind};

use crate::controller::Controller;
use crate::engine::SimError;

/// Builds the controller for one netlist node.
///
/// # Errors
///
/// Returns [`SimError::UnsupportedNode`] when a node's configuration cannot
/// be simulated (e.g. a buffer with forward latency other than 1).
pub fn build_controller(netlist: &Netlist, node: &Node) -> Result<Box<dyn Controller>, SimError> {
    let width = output_width(netlist, node);
    let controller: Box<dyn Controller> = match &node.kind {
        NodeKind::Buffer(spec) => {
            let spec = simulated_buffer(node, spec, width)?;
            if spec.backward_latency == 0 {
                Box::new(buffer::ZeroBackwardBuffer::<bool>::new(spec))
            } else {
                Box::new(buffer::StandardBuffer::<bool>::new(spec))
            }
        }
        NodeKind::Function(spec) => {
            Box::new(function::FunctionBlock::<bool>::new(spec.clone(), width))
        }
        NodeKind::Mux(spec) => Box::new(mux::MuxController::<bool>::new(*spec)),
        NodeKind::Fork(spec) => Box::new(fork::EagerFork::<bool>::new(*spec)),
        NodeKind::Shared(spec) => {
            let scheduler = elastic_predict::from_kind(&spec.scheduler, spec.users);
            Box::new(shared::SharedModule::new(spec.clone(), scheduler, width))
        }
        NodeKind::Commit(spec) => Box::new(commit::CommitStage::new(*spec)),
        NodeKind::VarLatency(spec) => {
            Box::new(varlatency::VarLatencyUnit::new(spec.clone(), width))
        }
        NodeKind::Source(spec) => Box::new(environment::SourceController::new(spec.clone(), width)),
        NodeKind::Sink(spec) => Box::new(environment::SinkController::new(spec.clone())),
        // `NodeKind` is non-exhaustive within the workspace; reject anything
        // this simulator does not know how to model rather than mis-simulate.
        other => {
            return Err(SimError::UnsupportedNode {
                node: node.id,
                reason: format!("no controller for node kind `{}`", other.kind_name()),
            })
        }
    };
    Ok(controller)
}

/// Declared width of a node's first output channel (64 when it has none).
pub(crate) fn output_width(netlist: &Netlist, node: &Node) -> u8 {
    netlist.output_channels(node.id).first().map_or(64, |channel| channel.width)
}

/// The buffer spec a buffer node simulates with, for both engines.
///
/// # Errors
///
/// [`SimError::UnsupportedNode`] unless the forward latency is 1.
pub(crate) fn simulated_buffer(
    node: &Node,
    spec: &BufferSpec,
    output_width: u8,
) -> Result<BufferSpec, SimError> {
    if spec.forward_latency != 1 {
        return Err(SimError::UnsupportedNode {
            node: node.id,
            reason: format!(
                "buffers with forward latency {} are not supported by the simulator \
                 (chain unit-latency buffers instead)",
                spec.forward_latency
            ),
        });
    }
    // Mask the initial token's value to the output channel width: every
    // other data entry point (source streams, function results) masks at the
    // producer, and an unmasked init value would otherwise leak through
    // width-preserving controllers (buffers, forks) into traces and sinks
    // (found by the elastic-gen differential fuzzer as a spurious
    // conservation violation on a narrow loop channel).
    let init_value = elastic_datapath::adder::mask(spec.init_value, output_width);
    Ok(BufferSpec { init_value, ..*spec })
}
