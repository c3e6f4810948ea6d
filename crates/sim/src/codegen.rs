//! Rust source emission for compiled settle plans.
//!
//! [`emit_settle_fn`] lowers a netlist through the same planner as
//! [`SettleStrategy::Compiled`] and then prints the scheduled micro-ops as
//! the source text of one Rust function with one call per op: a fused op
//! becomes a statically dispatched call of the planned controller's
//! `forward` or `backward` equation (which run the shared equations of
//! [`crate::handshake`] on the controller's own state, function blocks
//! evaluating their data through [`elastic_datapath::evaluate_columns`]), found
//! with [`concrete`] as the compiled interpreter finds it; a controller the
//! planner does not specialize keeps its dynamic [`Controller::eval`]. The
//! generated function is the compiled interpreter with the `match`
//! dispatch and the port lookups constant-folded away:
//!
//! * the plan's **straight-line prefix** becomes one statement per op, in
//!   schedule order (every operand rail is final when an op runs);
//! * the **trailing segment** (ops on or downstream of combinational rail
//!   cycles, e.g. the speculative select loops of Figures 1(d) and 7(b))
//!   becomes a [`Wires::relax`] sweep, repeated in deterministic order until
//!   a sweep changes nothing, capped at the engine's settle budget — whole
//!   sweeps, where the interpreter re-runs only the trailing ops whose
//!   operands changed; both reach the same fixed point.
//!
//! The emitted text is self-contained — every path is fully qualified
//! against `elastic_sim` — so a downstream crate checks it in as a module
//! and calls it through [`run_generated`], which drives the ordinary engine
//! cycle (settle → fault injection → trace → commit) with the generated
//! function in place of the settle phase. The benchmark crate uses this for
//! the paper designs: a golden test pins the checked-in module to what
//! `emit_settle_fn` produces today, and a differential test pins its
//! behaviour to the interpreted engines.
//!
//! # Restrictions
//!
//! Emission fails (with [`CodegenError`]) when the netlist contains
//! **optimistic controllers** (lazy forks): they need the event-driven
//! two-pass seeding — the compiled strategy itself falls back to the
//! event-driven engine for those.
//!
//! A netlist whose trailing segment fails to converge within the budget
//! raises [`SimError::CombinationalLoop`] on the interpreted engines; the
//! generated function has no error channel, so [`run_generated`] is only
//! meaningful for netlists the interpreted engines settle — which the
//! differential tests enforce.

use std::any::Any;
use std::collections::BTreeMap;
use std::fmt::Write as _;

use elastic_core::Netlist;

use crate::compiled::MicroOp;
use crate::controller::{Controller, NodeIo};
use crate::engine::{SettleStrategy, SimConfig, SimError, Simulation};
use crate::handshake::Rail;
use crate::signal::ChannelState;

/// Why a netlist could not be emitted as a settle function.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodegenError {
    /// Human-readable reason.
    pub reason: String,
}

impl std::fmt::Display for CodegenError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "codegen: {}", self.reason)
    }
}

impl std::error::Error for CodegenError {}

fn err(reason: impl Into<String>) -> CodegenError {
    CodegenError { reason: reason.into() }
}

/// The dense channel vector an emitted settle function drives.
#[derive(Debug)]
pub struct Wires<'a> {
    channels: &'a mut [ChannelState],
    widths: &'a [u8],
    /// Channels changed in the current relaxation sweep (tracked only
    /// inside [`Wires::relax`]).
    dirty: Vec<usize>,
    relaxing: bool,
}

impl<'a> Wires<'a> {
    /// Clears every channel — the start of a settle pass. `widths` holds
    /// each channel's declared width.
    pub fn clear(channels: &'a mut [ChannelState], widths: &'a [u8]) -> Self {
        channels.fill(ChannelState::default());
        Wires { channels, widths, dirty: Vec::new(), relaxing: false }
    }

    /// A port view of one node: data writes are masked to the channel
    /// width, and inside [`Wires::relax`] every changed signal is recorded.
    pub fn ports<'s>(&'s mut self, inputs: &'s [usize], outputs: &'s [usize]) -> NodeIo<'s> {
        let dirty = self.relaxing.then_some(&mut self.dirty);
        NodeIo::masked(self.channels, inputs, outputs, self.widths, dirty)
    }

    /// Runs `sweep` until a sweep changes no signal, at most `budget` times.
    pub fn relax(&mut self, budget: usize, mut sweep: impl FnMut(&mut Self)) {
        self.relaxing = true;
        for _ in 0..budget {
            self.dirty.clear();
            sweep(self);
            if self.dirty.is_empty() {
                break;
            }
        }
        self.relaxing = false;
    }
}

/// The concrete controller of node `node`, on which the compiled plan's
/// fused ops (at either rail word `R`) and emitted settle functions make
/// their statically dispatched `forward` and `backward` calls.
///
/// # Panics
///
/// When the controller is not a `T` — the plan or function was built for
/// another netlist.
pub fn concrete<T: Controller<R>, R: Rail>(
    controllers: &[Box<dyn Controller<R>>],
    node: usize,
) -> &T {
    let controller: &dyn Any = controllers[node].as_ref();
    controller
        .downcast_ref()
        .unwrap_or_else(|| panic!("node {node} is not a {}", std::any::type_name::<T>()))
}

/// The controller type each fused op calls, by planned op.
fn concrete_type(op: &MicroOp) -> &'static str {
    match op {
        MicroOp::Eval { .. } => unreachable!("dynamic evals call through the trait"),
        MicroOp::FnFwd { .. } | MicroOp::FnBwd { .. } => "function::FunctionBlock<bool>",
        MicroOp::ZbFwd { .. } | MicroOp::ZbBwd { .. } => "buffer::ZeroBackwardBuffer<bool>",
        MicroOp::ForkFwd { .. } | MicroOp::ForkBwd { .. } => "fork::EagerFork<bool>",
        MicroOp::MuxFwd { .. } | MicroOp::MuxBwd { .. } => "mux::MuxController<bool>",
    }
}

/// Emits the settle pass of `netlist` as the source text of one Rust
/// function named `fn_name`:
///
/// ```text
/// pub fn NAME(
///     channels: &mut [elastic_sim::signal::ChannelState],
///     controllers: &[Box<dyn elastic_sim::controller::Controller>],
/// )
/// ```
///
/// The function clears the channels and drives them to the cycle's fixed
/// point; [`run_generated`] supplies the surrounding engine loop. Dense
/// channel and controller indices follow the builder's `live_channels()` /
/// `live_nodes()` order, so the function must be called with a
/// [`Simulation`] built from the **same** netlist.
///
/// # Errors
///
/// [`CodegenError`] when the function name is not an identifier, the
/// netlist does not build, or it needs optimistic (two-pass) settling.
pub fn emit_settle_fn(netlist: &Netlist, fn_name: &str) -> Result<String, CodegenError> {
    let valid_name = !fn_name.is_empty()
        && fn_name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
        && !fn_name.starts_with(|c: char| c.is_ascii_digit());
    if !valid_name {
        return Err(err(format!("`{fn_name}` is not a valid function identifier")));
    }

    let config = SimConfig { settle: SettleStrategy::Compiled, ..SimConfig::default() };
    let sim = Simulation::new(netlist, &config)
        .map_err(|error| err(format!("netlist does not build: {error}")))?;
    let Some(plan) = sim.compiled_plan() else {
        return Err(err("netlist contains optimistic controllers (lazy forks); they need the \
             event-driven two-pass settle and cannot be emitted as a fixed op sequence"));
    };

    let nodes: Vec<_> = netlist.live_nodes().collect();
    let node_ports = sim.node_ports_table();
    let widths = sim.channel_widths_table();
    let mut planned = BTreeMap::new();
    let mut emit = |body: &mut String, op: &MicroOp, pad: &str| {
        let node = op.node() as usize;
        let (inputs, outputs) = &node_ports[node];
        let ports = format!("&mut wires.ports(&{inputs:?}, &{outputs:?})");
        let call = match op.forward() {
            None => format!("controllers[{node}].eval({ports}, false)"),
            Some(forward) => {
                planned.insert(node, concrete_type(op));
                format!("n{node}.{}({ports})", if forward { "forward" } else { "backward" })
            }
        };
        let (name, kind) = (&nodes[node].name, nodes[node].kind.kind_name());
        let _ = writeln!(body, "{pad}{call}; // n{node} `{name}` ({kind})");
    };
    let mut prefix = String::new();
    for op in &plan.ops[..plan.prefix_len] {
        emit(&mut prefix, op, "    ");
    }
    let mut trailing = String::new();
    for op in &plan.ops[plan.prefix_len..] {
        emit(&mut trailing, op, "        ");
    }

    let mut out = String::new();
    let _ = writeln!(
        out,
        "/// Settle pass for `{}` ({} channels, {} micro-ops, {} trailing),",
        netlist.name(),
        widths.len(),
        plan.ops.len(),
        plan.ops.len() - plan.prefix_len,
    );
    let _ = writeln!(out, "/// emitted by `elastic_sim::codegen::emit_settle_fn`. Drive it with");
    let _ = writeln!(out, "/// `elastic_sim::codegen::run_generated` on the same netlist.");
    let _ = writeln!(out, "#[allow(clippy::all, unused)]");
    let _ = writeln!(out, "#[rustfmt::skip]");
    let _ = writeln!(out, "pub fn {fn_name}(");
    let _ = writeln!(out, "    channels: &mut [elastic_sim::signal::ChannelState],");
    let _ = writeln!(out, "    controllers: &[Box<dyn elastic_sim::controller::Controller>],");
    let _ = writeln!(out, ") {{");
    let _ = writeln!(out, "    use elastic_sim::codegen::{{concrete, Wires}};");
    let _ = writeln!(out, "    use elastic_sim::controllers::*;");
    for (node, ty) in &planned {
        let _ = writeln!(out, "    let n{node}: &{ty} = concrete(controllers, {node});");
    }
    let _ = writeln!(out, "    let mut wires = Wires::clear(channels, &{widths:?});");
    out.push_str(&prefix);
    if !trailing.is_empty() {
        let _ =
            writeln!(out, "    // Trailing segment: ops on or downstream of combinational rail");
        let _ =
            writeln!(out, "    // cycles, relaxed in deterministic order until a sweep changes");
        let _ = writeln!(out, "    // nothing (settle budget {}).", sim.settle_budget());
        let _ = writeln!(out, "    wires.relax({}, |wires| {{", sim.settle_budget());
        out.push_str(&trailing);
        let _ = writeln!(out, "    }});");
    }
    let _ = writeln!(out, "}}");
    Ok(out)
}

/// Runs `cycles` engine cycles with `settle_fn` (a function emitted by
/// [`emit_settle_fn`] from the **same** netlist) in place of the built-in
/// settle phase. Everything else is the ordinary cycle: fault injection,
/// trace recording and the commit clock edge all behave exactly as in
/// [`Simulation::run`]. Returns the simulation for trace and report
/// inspection.
///
/// # Errors
///
/// [`SimError`] when the netlist does not build. (Stepping itself is
/// infallible: a generated function relaxes rail cycles with the same
/// budget the engines use but has no error channel, so only drive netlists
/// the interpreted engines settle.)
pub fn run_generated<F>(
    netlist: &Netlist,
    cycles: u64,
    mut settle_fn: F,
) -> Result<Simulation, SimError>
where
    F: FnMut(&mut [ChannelState], &[Box<dyn Controller>]),
{
    let mut sim = Simulation::new(netlist, &SimConfig::default())?;
    for _ in 0..cycles {
        sim.step_with_external_settle(&mut settle_fn);
    }
    Ok(sim)
}

#[cfg(test)]
mod tests {
    use super::*;
    use elastic_core::kind::SourcePattern;
    use elastic_core::library::{
        deep_pipeline, fig1a, fig1b, fig1c, fig1d, resilient_speculative, Fig1Config,
        ResilientConfig,
    };
    use elastic_core::{BufferSpec, ForkSpec, SinkSpec, SourceSpec};

    #[test]
    fn paper_designs_emit_settle_functions() {
        let fig1 = Fig1Config::default();
        let designs: Vec<(&str, Netlist)> = vec![
            ("fig1a", fig1a(&fig1).netlist),
            ("fig1b", fig1b(&fig1).netlist),
            ("fig1c", fig1c(&fig1).netlist),
            ("fig1d", fig1d(&fig1).netlist),
            ("fig7b", resilient_speculative(&ResilientConfig::default()).netlist),
            (
                "pipeline",
                deep_pipeline(
                    16,
                    BufferSpec::standard(1),
                    elastic_core::kind::BackpressurePattern::Never,
                ),
            ),
        ];
        for (name, netlist) in designs {
            let source = emit_settle_fn(&netlist, "settle")
                .unwrap_or_else(|error| panic!("{name}: {error}"));
            assert!(source.contains("pub fn settle("), "{name}: missing function header");
            assert!(source.contains("Wires::clear(channels"), "{name}: missing the clear phase");
        }
    }

    #[test]
    fn acyclic_designs_have_no_relaxation_loop() {
        let netlist = deep_pipeline(
            8,
            BufferSpec::standard(1),
            elastic_core::kind::BackpressurePattern::Never,
        );
        let source = emit_settle_fn(&netlist, "settle").unwrap();
        assert!(!source.contains("Trailing segment"), "a pipeline is fully straight-line");
        assert!(!source.contains("wires.relax("), "no relaxation sweep without trailing ops");
    }

    #[test]
    fn rail_cycles_emit_a_bounded_relaxation_loop() {
        // Figure 1(d) speculates across the select loop: part of its rail
        // graph is genuinely cyclic and settles by iteration.
        let netlist = fig1d(&Fig1Config::default()).netlist;
        let source = emit_settle_fn(&netlist, "settle").unwrap();
        assert!(source.contains("Trailing segment"), "fig1d has trailing ops");
        assert!(source.contains("wires.relax("), "trailing ops relax to a fixpoint");
    }

    #[test]
    fn generated_functions_cannot_be_emitted_for_lazy_forks() {
        let mut n = Netlist::new("lazy");
        let src = n.add_source(
            "src",
            SourceSpec { pattern: SourcePattern::Always, ..SourceSpec::default() },
        );
        let fork = n.add_fork("fork", ForkSpec::lazy(2));
        let sink_a = n.add_sink("sink_a", SinkSpec::always_ready());
        let sink_b = n.add_sink("sink_b", SinkSpec::always_ready());
        n.connect_named(
            "in",
            elastic_core::Port::output(src, 0),
            elastic_core::Port::input(fork, 0),
            8,
        )
        .unwrap();
        n.connect_named(
            "a",
            elastic_core::Port::output(fork, 0),
            elastic_core::Port::input(sink_a, 0),
            8,
        )
        .unwrap();
        n.connect_named(
            "b",
            elastic_core::Port::output(fork, 1),
            elastic_core::Port::input(sink_b, 0),
            8,
        )
        .unwrap();
        n.validate().unwrap();

        let error = emit_settle_fn(&n, "settle").expect_err("lazy forks need two-pass settling");
        assert!(error.reason.contains("optimistic"), "{error}");
    }

    #[test]
    fn concrete_returns_each_planned_controller() {
        use crate::controllers::buffer::ZeroBackwardBuffer;
        use crate::controllers::fork::EagerFork;
        use crate::controllers::function::FunctionBlock;
        use crate::controllers::mux::MuxController;

        let zb_chain = deep_pipeline(
            4,
            BufferSpec::zero_backward(0),
            elastic_core::kind::BackpressurePattern::Never,
        );
        let mut found = std::collections::BTreeSet::new();
        for netlist in [fig1d(&Fig1Config::default()).netlist, zb_chain] {
            let config = SimConfig { settle: SettleStrategy::Compiled, ..SimConfig::default() };
            let sim = Simulation::new(&netlist, &config).unwrap();
            let ops = sim.compiled_plan().expect("no lazy forks, so planned").ops.clone();
            run_generated(&netlist, 1, |_, controllers| {
                for op in &ops {
                    let node = op.node() as usize;
                    let controller: &dyn Any = match op {
                        MicroOp::Eval { .. } => continue,
                        MicroOp::FnFwd { .. } | MicroOp::FnBwd { .. } => {
                            concrete::<FunctionBlock<bool>, _>(controllers, node)
                        }
                        MicroOp::ZbFwd { .. } | MicroOp::ZbBwd { .. } => {
                            concrete::<ZeroBackwardBuffer<bool>, _>(controllers, node)
                        }
                        MicroOp::ForkFwd { .. } | MicroOp::ForkBwd { .. } => {
                            concrete::<EagerFork<bool>, _>(controllers, node)
                        }
                        MicroOp::MuxFwd { .. } | MicroOp::MuxBwd { .. } => {
                            concrete::<MuxController<bool>, _>(controllers, node)
                        }
                    };
                    let planned: &dyn Controller = controllers[node].as_ref();
                    assert!(std::ptr::addr_eq(controller, planned), "node {node}: {op:?}");
                    found.insert(concrete_type(op));
                }
            })
            .unwrap();
        }
        assert_eq!(found.len(), 4, "every fused kind is looked up: {found:?}");
    }

    #[test]
    #[should_panic(expected = "is not a")]
    fn concrete_panics_on_a_type_mismatch() {
        use crate::controllers::function::FunctionBlock;

        let netlist = deep_pipeline(
            4,
            BufferSpec::standard(1),
            elastic_core::kind::BackpressurePattern::Never,
        );
        let _ = run_generated(&netlist, 1, |_, controllers| {
            // Node 0 is the pipeline's source.
            concrete::<FunctionBlock<bool>, _>(controllers, 0);
        });
    }

    #[test]
    fn invalid_function_names_are_rejected() {
        let netlist = deep_pipeline(
            4,
            BufferSpec::standard(1),
            elastic_core::kind::BackpressurePattern::Never,
        );
        assert!(emit_settle_fn(&netlist, "1bad").is_err());
        assert!(emit_settle_fn(&netlist, "").is_err());
        assert!(emit_settle_fn(&netlist, "has space").is_err());
    }
}
