//! Rust source emission for compiled settle plans.
//!
//! [`emit_settle_fn`] lowers a netlist through the same planner as
//! [`SettleStrategy::Compiled`](crate::SettleStrategy::Compiled) and
//! prints the plan as the source text of one straight-line Rust function
//! with one call per op, in plan order: a [`Controller::forward`] or
//! [`Controller::backward`] call for a half, or a [`Controller::eval`] call
//! for a registered controller. The generated
//! function is the compiled interpreter with the op loop unrolled and the
//! port lookups constant-folded away; the equations stay in the
//! controllers, which run the shared equations of [`crate::handshake`].
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
//! Emission fails (with [`CodegenError`]) for a netlist without a plan:
//! one whose rail groups form a cycle (a combinational loop, or a lazy fork
//! whose branches reconverge). Those settle on the event-driven worklist,
//! which iterates, and a straight-line function cannot.

use std::fmt::Write as _;

use elastic_core::Netlist;

use crate::compiled::{CompiledPlan, Half};
use crate::controller::{Controller, NodeIo};
use crate::engine::{SimConfig, SimError, Simulation};
use crate::engine_core::EngineCore;
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
}

impl<'a> Wires<'a> {
    /// Clears every channel — the start of a settle pass. `widths` holds
    /// each channel's declared width.
    pub fn clear(channels: &'a mut [ChannelState], widths: &'a [u8]) -> Self {
        channels.fill(ChannelState::default());
        Wires { channels, widths }
    }

    /// A port view of one node; data writes are masked to the channel
    /// width.
    pub fn ports<'s>(&'s mut self, inputs: &'s [usize], outputs: &'s [usize]) -> NodeIo<'s> {
        NodeIo::masked(self.channels, inputs, outputs, self.widths, None)
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
/// netlist does not build, or it has no plan.
pub fn emit_settle_fn(netlist: &Netlist, fn_name: &str) -> Result<String, CodegenError> {
    let valid_name = !fn_name.is_empty()
        && fn_name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
        && !fn_name.starts_with(|c: char| c.is_ascii_digit());
    if !valid_name {
        return Err(err(format!("`{fn_name}` is not a valid function identifier")));
    }

    let core = EngineCore::<bool>::build(netlist)
        .map_err(|error| err(format!("netlist does not build: {error}")))?;
    let Some(plan) = CompiledPlan::build(&core) else {
        return Err(err("netlist has no plan: its rail groups form a cycle (a combinational \
             loop, or a lazy fork whose branches reconverge), which only the event-driven \
             settle iterates"));
    };

    let nodes: Vec<_> = netlist.live_nodes().collect();
    let (node_ports, widths) = (&core.node_ports, &core.channel_widths);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "/// Settle pass for `{}` ({} channels, {} ops),",
        netlist.name(),
        widths.len(),
        plan.ops.len(),
    );
    let _ = writeln!(out, "/// emitted by `elastic_sim::codegen::emit_settle_fn`. Drive it with");
    let _ = writeln!(out, "/// `elastic_sim::codegen::run_generated` on the same netlist.");
    let _ = writeln!(out, "#[allow(clippy::all, unused)]");
    let _ = writeln!(out, "#[rustfmt::skip]");
    let _ = writeln!(out, "pub fn {fn_name}(");
    let _ = writeln!(out, "    channels: &mut [elastic_sim::signal::ChannelState],");
    let _ = writeln!(out, "    controllers: &[Box<dyn elastic_sim::controller::Controller>],");
    let _ = writeln!(out, ") {{");
    let _ = writeln!(
        out,
        "    let mut wires = elastic_sim::codegen::Wires::clear(channels, &{widths:?});"
    );
    for &(node, half) in &plan.ops {
        let (inputs, outputs) = &node_ports[node];
        let ports = format!("&mut wires.ports(&{inputs:?}, &{outputs:?})");
        let call = match half {
            Half::Both => format!("eval({ports}, false)"),
            Half::Forward => format!("forward({ports})"),
            Half::Backward => format!("backward({ports})"),
        };
        let (name, kind) = (&nodes[node].name, nodes[node].kind.kind_name());
        let _ = writeln!(out, "    controllers[{node}].{call}; // n{node} `{name}` ({kind})");
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
/// [`SimError`] when the netlist does not build.
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
    use elastic_core::{BufferSpec, ForkSpec, FunctionSpec, Op, Port, SinkSpec, SourceSpec};

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
        // An 8-stage pipeline of standard buffers: the source, the sink and
        // the buffers are one eval each, every incrementer a forward and a
        // backward half, all in one block with no loop or closure.
        let netlist = deep_pipeline(
            8,
            BufferSpec::standard(1),
            elastic_core::kind::BackpressurePattern::Never,
        );
        let source = emit_settle_fn(&netlist, "settle").unwrap();
        let calls: Vec<&str> =
            source.lines().filter(|line| line.trim_start().starts_with("controllers[")).collect();
        assert_eq!(calls.len(), 2 + 8 * 3, "one call per op");
        assert_eq!(calls.iter().filter(|call| call.contains(".eval(")).count(), 2 + 8);
        assert_eq!(source.matches('{').count(), 1, "the function body is the only block");
    }

    #[test]
    fn netlists_without_a_plan_are_refused() {
        // A two-node combinational ring and a node feeding itself: their
        // rails form a cycle, which only the event-driven settle iterates.
        let mut ring = Netlist::new("ring");
        let a = ring.add_op("a", Op::Inc);
        let b = ring.add_op("b", Op::Inc);
        ring.connect(Port::output(a, 0), Port::input(b, 0), 8).unwrap();
        ring.connect(Port::output(b, 0), Port::input(a, 0), 8).unwrap();
        let mut self_loop = Netlist::new("self-loop");
        let f = self_loop.add_op("f", Op::Inc);
        self_loop.connect(Port::output(f, 0), Port::input(f, 0), 8).unwrap();
        for netlist in [ring, self_loop] {
            let error = emit_settle_fn(&netlist, "settle").expect_err("no plan");
            assert!(error.reason.contains("no plan"), "{}: {error}", netlist.name());
        }
    }

    #[test]
    fn generated_functions_cannot_be_emitted_for_lazy_forks() {
        // A lazy fork whose branches reconverge at a join: each branch's
        // offer waits on the join's stops, which wait on the offers.
        let mut n = Netlist::new("rendezvous");
        let src = n.add_source(
            "src",
            SourceSpec { pattern: SourcePattern::Always, ..SourceSpec::default() },
        );
        let fork = n.add_fork("fork", ForkSpec::lazy(2));
        let join = n.add_function("join", FunctionSpec::with_inputs(Op::Add, 2));
        let sink = n.add_sink("sink", SinkSpec::always_ready());
        n.connect(Port::output(src, 0), Port::input(fork, 0), 8).unwrap();
        n.connect(Port::output(fork, 0), Port::input(join, 0), 8).unwrap();
        n.connect(Port::output(fork, 1), Port::input(join, 1), 8).unwrap();
        n.connect(Port::output(join, 0), Port::input(sink, 0), 8).unwrap();
        n.validate().unwrap();

        let error = emit_settle_fn(&n, "settle").expect_err("a rendezvous has no plan");
        assert!(error.reason.contains("no plan"), "{error}");
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
