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
//! Every row is one type, generic over the rail word, implementing
//! [`Controller`]: the scalar engine instantiates it at `bool` (one
//! scenario) and the 64-lane engine at `u64`, so each kind's state, clock
//! edge, observables, reset and per-lane environment (offer and
//! back-pressure patterns with their random generators, shared module
//! schedulers) exist once.

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
use crate::handshake::{HandshakeIo, Rail};

/// Builds one netlist node's controller at the engine's rail word.
///
/// # Errors
///
/// Returns [`SimError::UnsupportedNode`] when a node's configuration cannot
/// be simulated (e.g. a buffer with forward latency other than 1).
pub(crate) fn build_controller<R: Rail>(
    netlist: &Netlist,
    node: &Node,
) -> Result<Box<dyn Controller<R>>, SimError> {
    let width = output_width(netlist, node);
    let controller: Box<dyn Controller<R>> = match &node.kind {
        NodeKind::Buffer(spec) => {
            let spec = simulated_buffer(node, spec, width)?;
            if spec.backward_latency == 0 {
                Box::new(buffer::ZeroBackwardBuffer::new(spec))
            } else {
                Box::new(buffer::StandardBuffer::new(spec))
            }
        }
        NodeKind::Function(spec) => Box::new(function::FunctionBlock::new(spec.clone(), width)),
        NodeKind::Mux(spec) => Box::new(mux::MuxController::new(*spec)),
        NodeKind::Fork(spec) => Box::new(fork::EagerFork::new(*spec)),
        NodeKind::Shared(spec) => Box::new(shared::SharedModule::new(spec.clone(), width)),
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

/// Whether `memo` holds input `port`'s data column, compared whole: the
/// lanes' differences accumulate into one word.
#[inline]
pub(crate) fn same_column<P: HandshakeIo>(memo: &[u64], io: &P, port: usize) -> bool {
    memo.iter().zip(io.input_data(port)).fold(0, |diff, (held, now)| diff | (held ^ now)) == 0
}

/// All ones when lane `lane` is set in the lane word `lanes`, zero
/// otherwise: a per-lane store mask built without a branch.
#[inline]
pub(crate) const fn lane_mask(lanes: u64, lane: usize) -> u64 {
    0u64.wrapping_sub((lanes >> lane) & 1)
}

/// Per-lane store masks four lanes at a time: entry `q` holds all ones in
/// lane `i` exactly when bit `i` of `q` is set. The default x86-64 target
/// has no per-element variable shift, so a column pass that reads its masks
/// here, one table read per four lanes, runs 2–3× faster than one that
/// shifts the lane word once per lane ([`lane_mask`]).
const QUAD_MASKS: [[u64; 4]; 16] = {
    let mut masks = [[0; 4]; 16];
    let mut quad = 0;
    while quad < 16 {
        let mut lane = 0;
        while lane < 4 {
            masks[quad][lane] = lane_mask(quad as u64, lane);
            lane += 1;
        }
        quad += 1;
    }
    masks
};

/// The store masks of lanes `4·quad .. 4·quad + 4` of the lane word
/// `lanes`.
#[inline]
fn quad_masks(lanes: u64, quad: usize) -> &'static [u64; 4] {
    &QUAD_MASKS[((lanes >> (4 * quad)) & 15) as usize]
}

/// Stores `from[ℓ]` into `into[ℓ]` for every lane `ℓ` set in `lanes`, the
/// other lanes kept: one branch-free masked pass over the column, or a
/// plain copy when every lane is set.
#[inline]
pub(crate) fn blend(into: &mut [u64], from: &[u64], lanes: u64) {
    if into.len() < 4 {
        // A column narrower than four lanes: the one-lane rail word.
        for (lane, (into, &from)) in into.iter_mut().zip(from).enumerate() {
            *into ^= (*into ^ from) & lane_mask(lanes, lane);
        }
    } else if lanes == u64::MAX >> (64 - into.len()) {
        into.copy_from_slice(from);
    } else {
        for (quad, (into, from)) in into.chunks_exact_mut(4).zip(from.chunks_exact(4)).enumerate() {
            for ((into, &from), &keep) in into.iter_mut().zip(from).zip(quad_masks(lanes, quad)) {
                *into ^= (*into ^ from) & keep;
            }
        }
    }
}

/// The lane word of the lanes `ℓ` whose value `column[ℓ]` passes `test`,
/// packed eight lanes at a time.
#[inline]
pub(crate) fn lanes_where(column: &[u64], test: impl Fn(u64) -> bool) -> u64 {
    column.chunks(8).enumerate().fold(0, |word, (eighth, values)| {
        let byte = values
            .iter()
            .enumerate()
            .fold(0u8, |byte, (lane, &value)| byte | (u8::from(test(value)) << lane));
        word | (u64::from(byte) << (8 * eighth))
    })
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
