//! Seeded, valid-by-construction random netlist generation.
//!
//! The generator grows a netlist from a *frontier* of open output ports.
//! Every growth step consumes open ports and produces new ones, so the graph
//! stays connected and feed-forward by construction; the only cycles are the
//! ones the dedicated **select-loop gadget** builds deliberately — a
//! generalized Figure-1(a) feedback loop whose every instance is eligible for
//! [`elastic_core::transform::speculate`] and is guaranteed live (exactly one
//! standard elastic buffer holding one token on the loop, so the loop can
//! neither deadlock nor fail to settle combinationally).
//!
//! Validity invariants maintained by construction:
//!
//! * every port of every node ends up connected to exactly one channel (the
//!   frontier is drained into sinks at the end);
//! * every cycle contains a standard (`Lf = 1, Lb = 1`) elastic buffer, so
//!   the control network has no combinational loop in either direction;
//! * buffers satisfy `C >= Lf + Lb` and only use `Lf = 1` (the simulator's
//!   supported configuration);
//! * environment patterns always make progress: list patterns are forced to
//!   contain at least one offer (resp. one non-stall) entry, random offer
//!   probabilities stay ≥ 0.3 and random stall probabilities ≤ 0.6, so the
//!   liveness checkers' progress windows are meaningful;
//! * mux select channels are 1 bit wide (producers mask data to the channel
//!   width, and the mux controller reduces the select value modulo its data
//!   input count, so any select producer is safe);
//! * shared modules carry a small starvation limit so the leads-to property
//!   holds within a short horizon for every scheduler.

use elastic_core::kind::{
    BackpressurePattern, BufferSpec, DataStream, ForkSpec, FunctionSpec, MuxSpec, NodeKind,
    SchedulerKind, SharedSpec, SinkSpec, SourcePattern, SourceSpec, VarLatencySpec,
};
use elastic_core::op::opaque;
use elastic_core::transform::ill_formed_lazy_forks;
use elastic_core::{Netlist, NodeId, Op, Port};

use crate::rng::GenRng;

/// Configuration of the generation space.
#[derive(Debug, Clone, PartialEq)]
pub struct GenConfig {
    /// Minimum number of frontier growth steps.
    pub min_growth_steps: usize,
    /// Maximum number of frontier growth steps.
    pub max_growth_steps: usize,
    /// Extra sources seeded into the initial frontier (beyond the first).
    pub max_extra_sources: usize,
    /// Minimum number of select-loop gadgets (speculation-eligible feedback
    /// loops à la Figure 1(a)).
    pub min_select_loops: usize,
    /// Maximum number of select-loop gadgets.
    pub max_select_loops: usize,
    /// Probability of a feed-forward speculation-eligible mux gadget
    /// (source-fed data inputs, function block after the mux — the
    /// `allow_acyclic` speculation target).
    pub feedforward_mux_chance: f64,
    /// Probability weight of shared-module growth steps.
    pub shared_chance: f64,
    /// Probability that a shared-module growth step uses two operands per
    /// user (`inputs_per_user = 2`, the Figure-7(b) adder shape) instead of
    /// one.
    pub multi_operand_shared_chance: f64,
    /// Probability weight of variable-latency growth steps.
    pub varlatency_chance: f64,
    /// Probability that a fork growth step emits a *lazy* fork. Lazy forks
    /// reconverging at joins have a live and a dead settle fixpoint; the
    /// engines resolve them with the optimistic seeding pass (ROADMAP
    /// lazy-to-lazy item), so they are back in the generation space.
    pub lazy_fork_chance: f64,
    /// Probability that a select-loop gadget places its fork *before* the
    /// loop's elastic buffer — putting the fork inside the speculative mux's
    /// combinational cone, with the continuation branch free to stall (the
    /// ROADMAP "cyclic speculation into a stallable fork cone" corner).
    pub stallable_loop_fork_chance: f64,
    /// Probability that a fork branch or a join operand **mutates its
    /// channel width** — the branch/operand channel is declared at a freshly
    /// drawn width instead of inheriting the producer's. Every producer
    /// masks its data to the channel it drives (the simulator's signal layer
    /// truncates exactly like the Verilog wire the channel emits to), so
    /// width-converting forks and joins are valid designs; what the knob
    /// buys is fuzz coverage of that masking — transforms that re-site
    /// producers (retiming, speculation's shared module) must preserve the
    /// conversion points (the PR-3/PR-4 fuzz-scaling leftover).
    pub width_mutation_chance: f64,
    /// Probability that a mux gadget (select-loop or feed-forward) declares
    /// its **output wire narrower than its data inputs** — a width-converting
    /// (narrowing) multiplexor. The wire is then a masking point every
    /// selected token passes through, and the speculation pass must preserve
    /// it when Shannon decomposition moves the downstream block onto the data
    /// inputs (it re-masks the moved block's operands to the old output
    /// width). The roll is drawn from the builder's *auxiliary* rng stream,
    /// so seeds whose gadgets do not narrow regenerate byte-identically to
    /// the pre-knob space.
    pub narrowing_mux_chance: f64,
    /// Allow zero-backward-latency (`Lb = 0`) buffers outside loops.
    pub allow_zero_backward: bool,
    /// Allow stochastic environment patterns (seeded, still deterministic).
    pub randomized_environments: bool,
    /// Maximum data channel width in bits.
    pub max_width: u8,
}

impl Default for GenConfig {
    fn default() -> Self {
        GenConfig {
            min_growth_steps: 6,
            max_growth_steps: 16,
            max_extra_sources: 2,
            min_select_loops: 0,
            max_select_loops: 1,
            feedforward_mux_chance: 0.5,
            shared_chance: 0.35,
            multi_operand_shared_chance: 0.3,
            varlatency_chance: 0.3,
            lazy_fork_chance: 0.25,
            stallable_loop_fork_chance: 0.4,
            width_mutation_chance: 0.25,
            narrowing_mux_chance: 0.25,
            allow_zero_backward: true,
            randomized_environments: true,
            max_width: 32,
        }
    }
}

impl GenConfig {
    /// Pure feed-forward pipelines and DAGs: no loops, no muxes, no shared
    /// modules — the engine-differential and bubble/retime workhorse.
    pub fn pipelines() -> Self {
        GenConfig {
            min_select_loops: 0,
            max_select_loops: 0,
            feedforward_mux_chance: 0.0,
            shared_chance: 0.0,
            varlatency_chance: 0.0,
            ..GenConfig::default()
        }
    }

    /// Loop-heavy space: every netlist carries at least one select cycle, the
    /// habitat of the composite speculation pass.
    pub fn loops() -> Self {
        GenConfig {
            min_select_loops: 1,
            max_select_loops: 2,
            feedforward_mux_chance: 0.3,
            ..GenConfig::default()
        }
    }

    /// Small netlists for quick exploration and doc examples.
    pub fn small() -> Self {
        GenConfig {
            min_growth_steps: 2,
            max_growth_steps: 6,
            max_extra_sources: 1,
            ..GenConfig::default()
        }
    }

    /// The preset named `name` (`default`, `pipelines`, `loops` or
    /// `small`), the names corpus entries and seeded service jobs use;
    /// `None` for any other name.
    pub fn preset(name: &str) -> Option<GenConfig> {
        match name {
            "default" => Some(GenConfig::default()),
            "pipelines" => Some(GenConfig::pipelines()),
            "loops" => Some(GenConfig::loops()),
            "small" => Some(GenConfig::small()),
            _ => None,
        }
    }
}

/// What the generator built, beyond the netlist itself.
#[derive(Debug, Clone, Default)]
pub struct GenProfile {
    /// The seed the netlist was derived from.
    pub seed: u64,
    /// Muxes sitting on a generated select-feedback loop (eligible for the
    /// full [`elastic_core::transform::speculate`] pass).
    pub select_loop_muxes: Vec<NodeId>,
    /// Feed-forward muxes with source-fed data inputs and a function block on
    /// their output (eligible for speculation with `allow_acyclic`).
    pub feedforward_muxes: Vec<NodeId>,
    /// Shared modules placed directly by the generator.
    pub shared_modules: Vec<NodeId>,
    /// Shared modules with more than one operand per user.
    pub multi_operand_shared: Vec<NodeId>,
    /// Lazy forks emitted by fork growth steps.
    pub lazy_forks: Vec<NodeId>,
    /// Loop-gadget forks placed *before* the loop buffer — inside the
    /// speculative mux's combinational cone (ROADMAP stallable-cone corner).
    pub stallable_loop_forks: Vec<NodeId>,
    /// Forks with at least one branch whose channel width differs from the
    /// input channel's (the branch wire narrows or widens the token).
    pub width_mutated_forks: Vec<NodeId>,
    /// Joins (two-operand function blocks) with at least one operand channel
    /// declared at a mutated width.
    pub width_mutated_joins: Vec<NodeId>,
    /// The subset of [`GenProfile::width_mutated_joins`] where an operand
    /// channel *narrowed* — the truncating direction, which is the masking
    /// corner the knob exists to soak. (Recorded at generation time: unlike
    /// forks, a join operand's pre-mutation width is not reconstructible
    /// from the finished netlist.)
    pub narrowing_joins: Vec<NodeId>,
    /// Gadget muxes whose output wire was declared narrower than their data
    /// inputs (see [`GenConfig::narrowing_mux_chance`]) — width-converting
    /// speculation sites the `speculate` pass must handle by re-masking.
    pub narrowing_muxes: Vec<NodeId>,
}

/// A generated netlist plus its generation profile.
#[derive(Debug, Clone)]
pub struct GeneratedNetlist {
    /// The netlist (validated before being returned).
    pub netlist: Netlist,
    /// Structural annotations collected while generating.
    pub profile: GenProfile,
}

/// An output port awaiting a consumer, with the width its channel should use.
#[derive(Debug, Clone, Copy)]
struct OpenPort {
    port: Port,
    width: u8,
}

struct Builder<'a> {
    n: Netlist,
    rng: GenRng,
    /// Auxiliary stream for knobs added after the corpus was seeded: drawing
    /// from a separate stream keeps the *main* stream's consumption order —
    /// and with it every pre-knob structural decision — byte-identical for
    /// existing seeds. Only netlists whose aux rolls fire change at all.
    aux: GenRng,
    config: &'a GenConfig,
    open: Vec<OpenPort>,
    profile: GenProfile,
}

impl<'a> Builder<'a> {
    fn data_width(&mut self) -> u8 {
        self.rng.range(2, u64::from(self.config.max_width.max(2))) as u8
    }

    fn source_spec(&mut self) -> SourceSpec {
        let pattern = match self.rng.below(if self.config.randomized_environments { 5 } else { 4 })
        {
            0 | 1 => SourcePattern::Always,
            2 => SourcePattern::Every(self.rng.range(2, 4) as u32),
            3 => {
                let len = self.rng.range(3, 6) as usize;
                let mut offers: Vec<bool> = (0..len).map(|_| self.rng.chance(0.6)).collect();
                offers[0] = true; // at least one offer per period
                SourcePattern::List(offers)
            }
            _ => SourcePattern::Random {
                probability: 0.3 + self.rng.below(60) as f64 / 100.0,
                seed: self.rng.next_u64(),
            },
        };
        let data = match self.rng.below(4) {
            0 => DataStream::Counter,
            1 => DataStream::Const(self.rng.next_u64()),
            2 => {
                let len = self.rng.range(4, 10) as usize;
                DataStream::List((0..len).map(|_| self.rng.next_u64()).collect())
            }
            _ => DataStream::Random { seed: self.rng.next_u64() },
        };
        SourceSpec { pattern, data, consume_on_kill: true }
    }

    fn sink_spec(&mut self) -> SinkSpec {
        let backpressure =
            match self.rng.below(if self.config.randomized_environments { 5 } else { 4 }) {
                0 | 1 => BackpressurePattern::Never,
                2 => BackpressurePattern::Every(self.rng.range(2, 5) as u32),
                3 => {
                    let len = self.rng.range(3, 6) as usize;
                    let mut stalls: Vec<bool> = (0..len).map(|_| self.rng.chance(0.4)).collect();
                    stalls[0] = false; // at least one accepting cycle per period
                    BackpressurePattern::List(stalls)
                }
                _ => BackpressurePattern::Random {
                    probability: self.rng.below(60) as f64 / 100.0,
                    seed: self.rng.next_u64(),
                },
            };
        SinkSpec { backpressure }
    }

    fn unary_op(&mut self) -> Op {
        match self.rng.below(8) {
            0 => Op::Identity,
            1 => Op::Not,
            2 => Op::Neg,
            3 => Op::Inc,
            4 => Op::Dec,
            5 => Op::Mask { width: self.rng.range(1, 16) as u8 },
            6 => Op::Lut((0..self.rng.range(4, 8)).map(|_| self.rng.next_u64()).collect()),
            _ => opaque("blk", self.rng.range(2, 9) as u32, self.rng.range(20, 200) as u32),
        }
    }

    fn binary_op(&mut self) -> Op {
        match self.rng.below(8) {
            0 => Op::Sub,
            1 => Op::Eq,
            2 => Op::Ne,
            3 => Op::Lt,
            4 => Op::Add,
            5 => Op::Xor,
            6 => Op::And,
            _ => Op::RippleAdd { width: self.rng.range(4, 16) as u8 },
        }
    }

    fn buffer_spec(&mut self) -> BufferSpec {
        match self.rng.below(if self.config.allow_zero_backward { 5 } else { 4 }) {
            0 | 1 => BufferSpec::standard(0),
            2 => BufferSpec::standard(1).with_init_value(self.rng.below(256)),
            3 => BufferSpec { capacity: 3, ..BufferSpec::standard(0) },
            _ => BufferSpec::zero_backward(0),
        }
    }

    /// Takes a random open port, creating a fresh source when the frontier is
    /// empty.
    fn pop_open(&mut self) -> OpenPort {
        if self.open.is_empty() {
            let width = self.data_width();
            let spec = self.source_spec();
            let source = self.n.add_source("src", spec);
            return OpenPort { port: Port::output(source, 0), width };
        }
        let index = self.rng.below(self.open.len() as u64) as usize;
        self.open.swap_remove(index)
    }

    fn push_open(&mut self, port: Port, width: u8) {
        self.open.push(OpenPort { port, width });
    }

    /// Rolls the width-mutation knob on an open port: with
    /// [`GenConfig::width_mutation_chance`], the port's next channel is
    /// declared at a freshly drawn width instead of the inherited one.
    /// Returns the (possibly re-widthed) port, whether the width actually
    /// changed, and whether it narrowed (the truncating direction).
    fn maybe_mutate_width(&mut self, port: OpenPort) -> (OpenPort, bool, bool) {
        if !self.rng.chance(self.config.width_mutation_chance) {
            return (port, false, false);
        }
        let width = self.data_width();
        (OpenPort { width, ..port }, width != port.width, width < port.width)
    }

    /// Rolls the narrowing-mux knob for a gadget mux whose data inputs are
    /// `width` bits wide: with [`GenConfig::narrowing_mux_chance`], the mux's
    /// output wire is declared strictly narrower — the mux becomes a
    /// width-converting masking point (and thus a speculation site that
    /// exercises the re-masking path of Shannon decomposition). Drawn from
    /// the auxiliary stream so the main generation stream is undisturbed.
    fn maybe_narrow_mux_wire(&mut self, width: u8) -> (u8, bool) {
        if width < 3 || !self.aux.chance(self.config.narrowing_mux_chance) {
            return (width, false);
        }
        (self.aux.range(2, u64::from(width) - 1) as u8, true)
    }

    fn connect(&mut self, from: OpenPort, to: Port) {
        self.n.connect(from.port, to, from.width).expect("builder ports are fresh and in range");
    }

    // ------------------------------------------------------------------
    // Growth steps
    // ------------------------------------------------------------------

    fn step_function1(&mut self) {
        let input = self.pop_open();
        let op = self.unary_op();
        let out_width = op.output_width().unwrap_or(input.width);
        let block = self.n.add_function("f", FunctionSpec::with_inputs(op, 1));
        self.connect(input, Port::input(block, 0));
        self.push_open(Port::output(block, 0), out_width);
    }

    fn step_join(&mut self) {
        let a = self.pop_open();
        let b = self.pop_open();
        let op = self.binary_op();
        let out_width = op.output_width().unwrap_or(a.width.max(b.width));
        let block = self.n.add_function("join", FunctionSpec::with_inputs(op, 2));
        // Width mutation: an operand channel may be declared at a freshly
        // drawn width — the producer masks to the wire it drives, so the
        // join sees the truncated operand exactly as synthesized hardware
        // would.
        let (a, a_mutated, a_narrowed) = self.maybe_mutate_width(a);
        let (b, b_mutated, b_narrowed) = self.maybe_mutate_width(b);
        if a_mutated || b_mutated {
            self.profile.width_mutated_joins.push(block);
        }
        if a_narrowed || b_narrowed {
            self.profile.narrowing_joins.push(block);
        }
        self.connect(a, Port::input(block, 0));
        self.connect(b, Port::input(block, 1));
        self.push_open(Port::output(block, 0), out_width);
    }

    fn step_buffer(&mut self) {
        let input = self.pop_open();
        let spec = self.buffer_spec();
        let buffer = self.n.add_buffer("eb", spec);
        let width = input.width;
        self.connect(input, Port::input(buffer, 0));
        self.push_open(Port::output(buffer, 0), width);
    }

    fn step_fork(&mut self) {
        let input = self.pop_open();
        let outputs = self.rng.range(2, 3) as usize;
        // Lazy forks whose branches reconverge at a join form a
        // combinational valid↔stop cycle with a live and a dead solution;
        // the engines' optimistic seeding pass steers the settle phase into
        // the live one (see `elastic_sim`'s engine docs), so lazy forks are
        // part of the generation space again — the fuzzer's job is exactly
        // to keep that composition honest.
        let lazy = self.rng.chance(self.config.lazy_fork_chance);
        let spec = if lazy { ForkSpec::lazy(outputs) } else { ForkSpec::eager(outputs) };
        let fork = self.n.add_fork(if lazy { "lzfork" } else { "fork" }, spec);
        if lazy {
            self.profile.lazy_forks.push(fork);
        }
        let width = input.width;
        self.connect(input, Port::input(fork, 0));
        // Width mutation: a branch may re-declare its channel width — the
        // fork masks each branch's copy to the wire it drives (like the
        // per-branch assigns of the emitted Verilog), so branches of one
        // token may legitimately carry different truncations of it.
        let mut mutated = false;
        for branch in 0..outputs {
            let (open, branch_mutated, _narrowed) =
                self.maybe_mutate_width(OpenPort { port: Port::output(fork, branch), width });
            mutated |= branch_mutated;
            self.push_open(open.port, open.width);
        }
        if mutated {
            self.profile.width_mutated_forks.push(fork);
        }
    }

    fn step_mux(&mut self) {
        let select = self.pop_open();
        let a = self.pop_open();
        let b = self.pop_open();
        let mux = self.n.add_mux("mux", MuxSpec::lazy(2));
        // Producers mask data to the channel width, so a 1-bit select channel
        // keeps the select value in range for two data inputs.
        self.connect(OpenPort { width: 1, ..select }, Port::input(mux, 0));
        let out_width = a.width.max(b.width);
        self.connect(a, Port::input(mux, 1));
        self.connect(b, Port::input(mux, 2));
        self.push_open(Port::output(mux, 0), out_width);
    }

    fn scheduler(&mut self) -> SchedulerKind {
        match self.rng.below(5) {
            0 => SchedulerKind::Static(0),
            1 => SchedulerKind::Static(1),
            2 => SchedulerKind::RoundRobin,
            3 => SchedulerKind::LastTaken,
            _ => SchedulerKind::TwoBit,
        }
    }

    fn step_shared(&mut self) {
        // Multi-operand users (the Figure-7(b) adder shape) join two operand
        // streams per user before the shared logic.
        let inputs_per_user =
            if self.rng.chance(self.config.multi_operand_shared_chance) { 2 } else { 1 };
        let op = if inputs_per_user == 2 { self.binary_op() } else { self.unary_op() };
        let operands: Vec<OpenPort> = (0..2 * inputs_per_user).map(|_| self.pop_open()).collect();
        let out_width = op
            .output_width()
            .unwrap_or_else(|| operands.iter().map(|p| p.width).max().unwrap_or(8));
        let scheduler = self.scheduler();
        let spec = SharedSpec {
            users: 2,
            inputs_per_user,
            op,
            scheduler,
            // A tight starvation override keeps the leads-to horizon short
            // even for adversarial schedulers, so generated designs stay
            // checkable with small liveness windows.
            starvation_limit: Some(self.rng.range(4, 16) as u32),
        };
        let shared = self.n.add_shared("shared", spec);
        for (index, operand) in operands.into_iter().enumerate() {
            self.connect(operand, Port::input(shared, index));
        }
        self.profile.shared_modules.push(shared);
        if inputs_per_user > 1 {
            self.profile.multi_operand_shared.push(shared);
        }
        // Buffer each user's output before it joins the frontier: the two
        // outputs are mutually exclusive by construction (one user holds the
        // unit per cycle), so letting them reconverge at a join *unbuffered*
        // deadlocks — the join waits for both at once. The paper's
        // composition (and its refinement proof) is shared module ∘ EB;
        // with the EBs in place, downstream reconvergence is live because
        // the starvation override keeps alternating the users.
        for user in 0..2 {
            let buffer = self.n.add_buffer("sheb", BufferSpec::standard(0));
            self.n
                .connect(Port::output(shared, user), Port::input(buffer, 0), out_width)
                .expect("fresh shared output");
            self.push_open(Port::output(buffer, 0), out_width);
        }
    }

    fn step_varlatency(&mut self) {
        let width = self.rng.range(4, 16) as u8;
        let spec_bits = self.rng.range(1, u64::from(width) - 1) as u8;
        let a = self.pop_open();
        let b = self.pop_open();
        let unit = self.n.add_var_latency(
            "vlu",
            VarLatencySpec {
                exact: Op::RippleAdd { width },
                approx: Op::ApproxAdd { width, spec_bits },
                error: Op::ApproxAddErr { width, spec_bits },
                inputs: 2,
            },
        );
        self.connect(OpenPort { width, ..a }, Port::input(unit, 0));
        self.connect(OpenPort { width, ..b }, Port::input(unit, 1));
        self.push_open(Port::output(unit, 0), (width + 1).min(64));
    }

    // ------------------------------------------------------------------
    // Gadgets
    // ------------------------------------------------------------------

    /// The generalized Figure-1(a) select-feedback loop:
    ///
    /// ```text
    /// src0 ─► mux ─► F ─► EB(1 token) ─► …bubbles… ─► fork ─► (continuation)
    /// src1 ─►  │                                       │
    ///          └────────── gk ◄── … ◄── g1 ◄───────────┘
    /// ```
    ///
    /// Exactly one token circulates; the loop contains one standard EB, so it
    /// is live and free of combinational control cycles by construction. The
    /// continuation branch joins the regular frontier.
    /// With [`GenConfig::stallable_loop_fork_chance`] the fork moves *before*
    /// the loop's elastic buffer:
    ///
    /// ```text
    /// src0 ─► mux ─► F ─► fork ─► EB(1 token) ─► …bubbles… ─► gk… ─► select
    /// src1 ─►  │           │
    ///          └───────────┴─► (continuation, free to stall)
    /// ```
    ///
    /// which puts an eager fork with a stallable branch inside the
    /// speculative mux's combinational cone — the ROADMAP's second
    /// unverified corner. The retraction-domain analysis must then isolate
    /// exactly that fork when the mux is speculated.
    fn select_loop_gadget(&mut self) {
        let width = self.data_width();
        let src0 = {
            let spec = self.source_spec();
            self.n.add_source("lsrc", spec)
        };
        let src1 = {
            let spec = self.source_spec();
            self.n.add_source("lsrc", spec)
        };
        let mux = self.n.add_mux("lmux", MuxSpec::lazy(2));
        let f_op = self.unary_op();
        let f_width = f_op.output_width().unwrap_or(width);
        let f = self.n.add_function("lf", FunctionSpec::with_inputs(f_op, 1));
        let eb =
            self.n.add_buffer("leb", BufferSpec::standard(1).with_init_value(self.rng.below(256)));
        let fork_before_eb = self.rng.chance(self.config.stallable_loop_fork_chance);
        let fork =
            self.n.add_fork(if fork_before_eb { "lcfork" } else { "lfork" }, ForkSpec::eager(2));

        self.n.connect(Port::output(src0, 0), Port::input(mux, 1), width).unwrap();
        self.n.connect(Port::output(src1, 0), Port::input(mux, 2), width).unwrap();
        // The mux→F wire may narrow (a width-converting mux): the loop body
        // then computes on tokens masked to the wire, and speculating the mux
        // must preserve exactly that truncation.
        let (wire_width, narrowed) = self.maybe_narrow_mux_wire(width);
        if narrowed {
            self.profile.narrowing_muxes.push(mux);
        }
        self.n.connect(Port::output(mux, 0), Port::input(f, 0), wire_width).unwrap();

        // Loop body order: either F → EB → bubbles → fork (the fork sits
        // behind the registered boundary, outside the mux's cone) or
        // F → fork → EB → bubbles (the fork is combinationally exposed).
        let loop_tail = if fork_before_eb {
            self.n.connect(Port::output(f, 0), Port::input(fork, 0), f_width).unwrap();
            self.n.connect(Port::output(fork, 0), Port::input(eb, 0), f_width).unwrap();
            let mut forward = Port::output(eb, 0);
            for _ in 0..self.rng.below(3) {
                let bubble = self.n.add_buffer("lbub", BufferSpec::standard(0));
                self.n.connect(forward, Port::input(bubble, 0), f_width).unwrap();
                forward = Port::output(bubble, 0);
            }
            self.profile.stallable_loop_forks.push(fork);
            forward
        } else {
            self.n.connect(Port::output(f, 0), Port::input(eb, 0), f_width).unwrap();
            let mut forward = Port::output(eb, 0);
            for _ in 0..self.rng.below(3) {
                let bubble = self.n.add_buffer("lbub", BufferSpec::standard(0));
                self.n.connect(forward, Port::input(bubble, 0), f_width).unwrap();
                forward = Port::output(bubble, 0);
            }
            self.n.connect(forward, Port::input(fork, 0), f_width).unwrap();
            Port::output(fork, 0)
        };

        // Return path through 0..=2 unary blocks, entering the select as a
        // 1-bit channel (the producer masks, keeping the select in range).
        let mut back = loop_tail;
        for _ in 0..self.rng.below(3) {
            let op = self.unary_op();
            let g = self.n.add_function("lg", FunctionSpec::with_inputs(op, 1));
            self.n.connect(back, Port::input(g, 0), f_width).unwrap();
            back = Port::output(g, 0);
        }
        self.n.connect(back, Port::input(mux, 0), 1).unwrap();

        self.profile.select_loop_muxes.push(mux);
        self.push_open(Port::output(fork, 1), f_width);
    }

    /// A feed-forward mux whose data inputs come straight from sources and
    /// whose output feeds a function block: the `allow_acyclic` speculation
    /// shape (the paper's SECDED pipeline is this shape).
    fn feedforward_mux_gadget(&mut self) {
        let width = self.data_width();
        let sel = {
            let spec = self.source_spec();
            self.n.add_source("fsel", spec)
        };
        let src0 = {
            let spec = self.source_spec();
            self.n.add_source("fsrc", spec)
        };
        let src1 = {
            let spec = self.source_spec();
            self.n.add_source("fsrc", spec)
        };
        let mux = self.n.add_mux("fmux", MuxSpec::lazy(2));
        let op = self.unary_op();
        let out_width = op.output_width().unwrap_or(width);
        let block = self.n.add_function("ff", FunctionSpec::with_inputs(op, 1));

        self.n.connect(Port::output(sel, 0), Port::input(mux, 0), 1).unwrap();
        self.n.connect(Port::output(src0, 0), Port::input(mux, 1), width).unwrap();
        self.n.connect(Port::output(src1, 0), Port::input(mux, 2), width).unwrap();
        // As in the loop gadget, the mux output wire may narrow — the
        // `allow_acyclic` speculation then hits a width-converting mux.
        let (wire_width, narrowed) = self.maybe_narrow_mux_wire(width);
        if narrowed {
            self.profile.narrowing_muxes.push(mux);
        }
        self.n.connect(Port::output(mux, 0), Port::input(block, 0), wire_width).unwrap();

        self.profile.feedforward_muxes.push(mux);
        self.push_open(Port::output(block, 0), out_width);
    }

    fn grow(&mut self) {
        let steps = self
            .rng
            .range(self.config.min_growth_steps as u64, self.config.max_growth_steps as u64);
        for _ in 0..steps {
            let shared_roll = self.rng.chance(self.config.shared_chance);
            let varlat_roll = self.rng.chance(self.config.varlatency_chance);
            match self.rng.below(10) {
                0..=2 => self.step_function1(),
                3 => self.step_join(),
                4 | 5 => self.step_buffer(),
                6 => self.step_fork(),
                7 => self.step_mux(),
                8 if shared_roll => self.step_shared(),
                9 if varlat_roll => self.step_varlatency(),
                _ => self.step_function1(),
            }
        }
    }

    fn close(&mut self) {
        while let Some(open) = self.open.pop() {
            let spec = self.sink_spec();
            let sink = self.n.add_sink("sink", spec);
            self.n.connect(open.port, Port::input(sink, 0), open.width).unwrap();
        }
    }
}

/// Generates one netlist from a seed.
///
/// Generation is fully deterministic: the same `(seed, config)` pair always
/// yields the same netlist, node for node and channel for channel — the
/// foundation of the corpus replay and of shrinking.
///
/// # Panics
///
/// Panics if the generated netlist fails structural validation — that is a
/// bug in the generator, not in the caller, and the fuzzing harness must not
/// silently skip such seeds.
pub fn generate(seed: u64, config: &GenConfig) -> GeneratedNetlist {
    let mut builder = Builder {
        n: Netlist::new(format!("gen_{seed:016x}")),
        rng: GenRng::new(seed),
        aux: GenRng::new(seed ^ 0x6E61_7272_6F77_6D78),
        config,
        open: Vec::new(),
        profile: GenProfile { seed, ..GenProfile::default() },
    };

    // Seed the frontier.
    let initial_sources = 1 + builder.rng.below(config.max_extra_sources as u64 + 1);
    for _ in 0..initial_sources {
        let width = builder.data_width();
        let spec = builder.source_spec();
        let source = builder.n.add_source("src", spec);
        builder.push_open(Port::output(source, 0), width);
    }

    // Gadgets first: they seed the frontier with their continuations.
    if config.max_select_loops > 0 {
        let loops =
            builder.rng.range(config.min_select_loops as u64, config.max_select_loops as u64);
        for _ in 0..loops {
            builder.select_loop_gadget();
        }
    }
    if builder.rng.chance(config.feedforward_mux_chance) {
        builder.feedforward_mux_gadget();
    }

    builder.grow();
    builder.close();

    // Structural lint (ROADMAP lazy-to-lazy item): a lazy fork whose
    // branches reconverge with unequal storage, or whose rendezvous region
    // contains a memory-keeping consumer, is dead by construction — no
    // settle policy can revive it. The frontier wires branches wherever the
    // rng takes them, so instead of constraining growth the builder demotes
    // the offending forks to eager after the fact, keeping the surviving
    // lazy forks exactly the well-formed rendezvous the optimistic settle
    // seed is meant to resolve. Demotion runs to a fixpoint: turning an
    // inner fork eager plants a memory-keeping consumer inside an outer
    // lazy fork's region, which may now be ill-formed itself (found by the
    // 20k-case soak as a nested-fork diamond deadlock).
    loop {
        let ill_formed = ill_formed_lazy_forks(&builder.n);
        if ill_formed.is_empty() {
            break;
        }
        for fork in ill_formed {
            if let Some(node) = builder.n.node_mut(fork) {
                if let NodeKind::Fork(spec) = &mut node.kind {
                    spec.eager = true;
                }
            }
            builder.profile.lazy_forks.retain(|&id| id != fork);
        }
    }

    builder
        .n
        .validate()
        .expect("generated netlists are valid by construction; a failure here is a generator bug");
    GeneratedNetlist { netlist: builder.n, profile: builder.profile }
}

#[cfg(test)]
mod tests {
    use super::*;
    use elastic_core::kind::NodeKind;
    use elastic_core::transform::find_select_cycles;

    #[test]
    fn generation_is_deterministic() {
        let config = GenConfig::default();
        for seed in 0..12 {
            let a = generate(seed, &config);
            let b = generate(seed, &config);
            assert_eq!(a.netlist, b.netlist, "seed {seed} must regenerate identically");
        }
    }

    #[test]
    fn generated_netlists_validate_across_the_space() {
        for (config, seeds) in [
            (GenConfig::default(), 0..40u64),
            (GenConfig::pipelines(), 100..130),
            (GenConfig::loops(), 200..230),
            (GenConfig::small(), 300..330),
        ] {
            for seed in seeds {
                let generated = generate(seed, &config);
                assert!(generated.netlist.validate().is_ok());
                assert!(generated.netlist.node_count() >= 2);
            }
        }
    }

    #[test]
    fn loop_gadgets_produce_select_cycles() {
        let config = GenConfig::loops();
        let mut with_cycles = 0;
        for seed in 0..20 {
            let generated = generate(seed, &config);
            for &mux in &generated.profile.select_loop_muxes {
                let cycles = find_select_cycles(&generated.netlist, mux).unwrap();
                assert!(!cycles.is_empty(), "seed {seed}: loop mux must sit on a select cycle");
                with_cycles += 1;
            }
        }
        assert!(with_cycles >= 20, "the loops() config must actually emit loops");
    }

    #[test]
    fn pipeline_config_emits_no_cycles() {
        let config = GenConfig::pipelines();
        for seed in 0..20 {
            let generated = generate(seed, &config);
            assert!(generated.profile.select_loop_muxes.is_empty());
            for node in generated.netlist.live_nodes() {
                if matches!(node.kind, NodeKind::Mux(_)) {
                    let cycles = find_select_cycles(&generated.netlist, node.id).unwrap();
                    assert!(cycles.is_empty(), "seed {seed}: pipelines must be cycle-free");
                }
            }
        }
    }

    #[test]
    fn generated_netlists_cover_the_node_kinds() {
        use std::collections::BTreeSet;
        let config = GenConfig::default();
        let mut kinds_seen: BTreeSet<&'static str> = BTreeSet::new();
        for seed in 0..60 {
            let generated = generate(seed, &config);
            for node in generated.netlist.live_nodes() {
                kinds_seen.insert(node.kind.kind_name());
            }
        }
        for kind in ["source", "sink", "function", "buffer", "fork", "mux", "shared", "varlatency"]
        {
            assert!(kinds_seen.contains(kind), "the space never produced a {kind} node");
        }
    }
}
