//! Node kinds of an elastic netlist and their per-kind specifications.
//!
//! The port conventions used throughout the workspace are documented on each
//! kind; [`NodeKind::input_count`] and [`NodeKind::output_count`] derive the
//! port arity from the specification.

use crate::op::Op;

/// Specification of an elastic buffer (EB).
///
/// An EB is characterised by its forward latency `Lf` (cycles for a token to
/// traverse it), its backward latency `Lb` (cycles for stop/anti-token
/// information to traverse it backwards) and its capacity `C`, which must
/// satisfy `C >= Lf + Lb` for tokens not to be lost (Section 3.2 of the
/// paper). The buffer may be initialised with tokens (positive) or
/// anti-tokens (negative).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BufferSpec {
    /// Forward latency in clock cycles (`Lf`).
    pub forward_latency: u32,
    /// Backward latency in clock cycles (`Lb`).
    pub backward_latency: u32,
    /// Storage capacity in tokens (`C`).
    pub capacity: u32,
    /// Initial occupancy: positive = tokens, negative = anti-tokens, 0 = bubble.
    pub init_tokens: i32,
    /// Maximum number of anti-tokens the buffer can hold while waiting for
    /// tokens to cancel (the counterflow storage of ref \[7\] in the paper).
    pub anti_capacity: u32,
    /// Data value carried by the initial token(s), when `init_tokens > 0`.
    pub init_value: u64,
}

impl BufferSpec {
    /// The standard latch-based EB of Figure 2(a): `Lf = 1`, `Lb = 1`, `C = 2`.
    pub fn standard(init_tokens: i32) -> Self {
        BufferSpec {
            forward_latency: 1,
            backward_latency: 1,
            capacity: 2,
            init_tokens,
            anti_capacity: 1,
            init_value: 0,
        }
    }

    /// An empty standard EB (a *bubble*).
    pub fn bubble() -> Self {
        Self::standard(0)
    }

    /// The zero-backward-latency EB of Figure 5: `Lf = 1`, `Lb = 0`, `C = 1`.
    ///
    /// Stop and kill information travels combinationally through this buffer,
    /// which removes the anti-token bottleneck on speculation recovery paths
    /// (Section 4.3).
    pub fn zero_backward(init_tokens: i32) -> Self {
        BufferSpec {
            forward_latency: 1,
            backward_latency: 0,
            capacity: 1,
            init_tokens,
            anti_capacity: 1,
            init_value: 0,
        }
    }

    /// Sets the data value carried by the initial token(s).
    pub fn with_init_value(mut self, init_value: u64) -> Self {
        self.init_value = init_value;
        self
    }

    /// `true` when the capacity constraint `C >= Lf + Lb` holds and the
    /// initial occupancy fits in the declared capacities.
    pub fn is_well_formed(&self) -> bool {
        self.capacity >= self.forward_latency + self.backward_latency
            && self.forward_latency >= 1
            && self.init_tokens <= self.capacity as i32
            && -self.init_tokens <= self.anti_capacity as i32
    }
}

impl Default for BufferSpec {
    fn default() -> Self {
        Self::standard(0)
    }
}

/// Specification of a combinational function block.
///
/// A function block with `inputs` input ports behaves as a lazy join: it
/// waits for all inputs to carry valid tokens, computes [`Op`] on the operand
/// tuple and produces one output token. Anti-tokens arriving on the output
/// propagate backwards to every input.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct FunctionSpec {
    /// Operation computed by the block.
    pub op: Op,
    /// Number of input ports.
    pub inputs: usize,
}

impl FunctionSpec {
    /// Creates a function specification, defaulting the port count to the
    /// operation's natural arity (or 1 when the operation is variadic).
    pub fn new(op: Op) -> Self {
        let inputs = op.arity().unwrap_or(1).max(1);
        FunctionSpec { op, inputs }
    }

    /// Creates a function specification with an explicit number of inputs.
    pub fn with_inputs(op: Op, inputs: usize) -> Self {
        FunctionSpec { op, inputs }
    }
}

/// Specification of a multiplexor.
///
/// Port convention: input port 0 is the **select** channel, input ports
/// `1..=data_inputs` are the data channels, and there is a single output.
/// When `early_eval` is set the multiplexor performs early evaluation: it
/// fires as soon as the select token and the *selected* data token are
/// available and injects an anti-token into every non-selected data channel
/// (Section 3.3 / ref \[7\]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MuxSpec {
    /// Number of data inputs (the select value addresses them as `0..data_inputs`).
    pub data_inputs: usize,
    /// Whether the multiplexor uses early evaluation with anti-token injection.
    pub early_eval: bool,
}

impl MuxSpec {
    /// A conventional (lazy) multiplexor that waits for all inputs.
    pub fn lazy(data_inputs: usize) -> Self {
        MuxSpec { data_inputs, early_eval: false }
    }

    /// An early-evaluation multiplexor.
    pub fn early(data_inputs: usize) -> Self {
        MuxSpec { data_inputs, early_eval: true }
    }
}

/// Specification of a fork that replicates tokens to several consumers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ForkSpec {
    /// Number of output branches.
    pub outputs: usize,
    /// Eager forks deliver the token to each ready branch independently and
    /// complete once every branch has received it; lazy forks require all
    /// branches to be ready simultaneously.
    pub eager: bool,
}

impl ForkSpec {
    /// An eager fork with the given number of branches.
    pub fn eager(outputs: usize) -> Self {
        ForkSpec { outputs, eager: true }
    }

    /// A lazy fork with the given number of branches.
    pub fn lazy(outputs: usize) -> Self {
        ForkSpec { outputs, eager: false }
    }
}

/// Built-in scheduler families for speculative shared modules.
///
/// The concrete implementations live in the `elastic-predict` crate; this
/// enum only names the default policy to instantiate when simulating a
/// netlist. Simulation harnesses can override the policy per node.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum SchedulerKind {
    /// Always predict the same user channel.
    Static(usize),
    /// Rotate over user channels every cycle (fair, non-speculative sharing).
    RoundRobin,
    /// Predict the channel that was selected by the consumer most recently.
    LastTaken,
    /// Two-bit saturating-counter predictor per channel pair.
    TwoBit,
    /// History-indexed (gshare-style) predictor.
    Correlating {
        /// Number of global-history bits.
        history_bits: u8,
    },
    /// Follow an explicit per-cycle prediction sequence (used by the Table-1
    /// trace reproduction); repeats the last entry when exhausted.
    Sequence(Vec<usize>),
    /// Predict channel 0 until a misprediction is observed, then replay the
    /// other channel for one cycle (the error-driven policy of Sections 5.1
    /// and 5.2).
    ErrorReplay,
    /// Confidence-throttled run-ahead: keep a preferred channel (from
    /// observed select evidence) but *hedge* the next channel once every
    /// `2 + confidence` cycles, where the confidence counter rises on
    /// confirming evidence (saturating at `max_confidence`) and resets — with
    /// an immediate hedge — on contrary evidence. Deep commit lanes stop
    /// paying a recovery penalty on periodic mispredicts because the demanded
    /// result is already parked in the hedged lane (pinned by
    /// `crates/explore/tests/confidence_pin.rs`).
    Confidence {
        /// Ceiling of the confidence counter; the run-ahead window between
        /// hedges is at most `2 + max_confidence` cycles.
        max_confidence: u8,
    },
}

impl Default for SchedulerKind {
    fn default() -> Self {
        SchedulerKind::Static(0)
    }
}

/// Specification of a speculative shared module (Section 4.1, Figure 4).
///
/// The module multiplexes `users` logical channels over a single instance of
/// a combinational operation. Each user owns `inputs_per_user` input ports
/// and exactly one output port. Port convention: input ports are laid out
/// user-major (`user * inputs_per_user + operand`), output port `i` belongs
/// to user `i`.
///
/// A [`SchedulerKind`] names the prediction policy used to pick which user's
/// token is propagated through the shared logic each cycle. The controller
/// stalls the non-predicted users (unless their tokens are killed by
/// anti-tokens coming back from the consumer) and guarantees the mutual
/// exclusion of kill and stop required by the SELF protocol.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SharedSpec {
    /// Number of user channels sharing the module.
    pub users: usize,
    /// Number of operand ports per user.
    pub inputs_per_user: usize,
    /// Operation computed by the shared logic.
    pub op: Op,
    /// Default prediction policy.
    pub scheduler: SchedulerKind,
    /// If set, the controller overrides the scheduler after a user token has
    /// been stalled for this many cycles, guaranteeing the leads-to property
    /// (no starvation) regardless of the scheduler implementation.
    pub starvation_limit: Option<u32>,
}

impl SharedSpec {
    /// Shared module with one operand per user and a default scheduler.
    pub fn new(users: usize, op: Op) -> Self {
        SharedSpec {
            users,
            inputs_per_user: 1,
            op,
            scheduler: SchedulerKind::default(),
            starvation_limit: Some(64),
        }
    }

    /// Sets the number of operand ports per user.
    pub fn with_inputs_per_user(mut self, inputs_per_user: usize) -> Self {
        self.inputs_per_user = inputs_per_user;
        self
    }

    /// Sets the default scheduler policy.
    pub fn with_scheduler(mut self, scheduler: SchedulerKind) -> Self {
        self.scheduler = scheduler;
        self
    }
}

/// Specification of an in-order commit stage for a speculative shared module
/// (Section 4.2).
///
/// The commit stage sits between the user outputs of a shared module and the
/// data inputs of the early-evaluation multiplexor that resolves the
/// speculation. Each *lane* is a small FIFO (`depth` entries) that parks the
/// speculatively computed result of one user until the consumer either
/// commits it (forward transfer) or squashes it (anti-token). Its outputs are
/// **persistent**: once a lane offers a result, the offer is never retracted
/// when the scheduler's prediction changes — which is what makes the
/// downstream observation order independent of the scheduler. Within a lane,
/// results commit in exactly operand order; across lanes, the resolving
/// multiplexor consumes in select (program) order, so no wrong-path result
/// ever escapes the stage.
///
/// Port convention: input port `i` and output port `i` belong to lane `i`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CommitSpec {
    /// Number of independent result lanes (one per shared-module user).
    pub lanes: usize,
    /// FIFO depth of each lane (how far the scheduler may run ahead of the
    /// resolution point).
    pub depth: u32,
}

impl CommitSpec {
    /// A commit stage with one result slot per lane.
    pub fn new(lanes: usize) -> Self {
        CommitSpec { lanes, depth: 1 }
    }

    /// Sets the per-lane FIFO depth.
    pub fn with_depth(mut self, depth: u32) -> Self {
        self.depth = depth;
        self
    }
}

/// Specification of a variable-latency unit (Figure 6(a), "stalling" style).
///
/// The unit computes `approx` in one cycle; when the error detector reports
/// that the approximation differs from `exact`, the output is stalled for one
/// extra cycle and the exact result is delivered instead. This is the
/// baseline the speculative construction of Figure 6(b) is compared against.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct VarLatencySpec {
    /// Exact operation (always correct, longer critical path).
    pub exact: Op,
    /// Approximate operation (shorter critical path, sometimes wrong).
    pub approx: Op,
    /// Error detector: non-zero output means the approximation failed.
    pub error: Op,
    /// Number of operand input ports.
    pub inputs: usize,
}

/// Token production pattern of a source environment.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
#[derive(Default)]
pub enum SourcePattern {
    /// Offer a token every cycle.
    #[default]
    Always,
    /// Offer a token once every `period` cycles (period >= 1).
    Every(u32),
    /// Explicit per-cycle offer pattern; repeats when exhausted.
    List(Vec<bool>),
    /// Offer a token with the given probability each cycle (deterministic
    /// pseudo-random stream derived from `seed`).
    Random {
        /// Probability of offering a token in a cycle, in `[0, 1]`.
        probability: f64,
        /// Seed of the per-source pseudo-random generator.
        seed: u64,
    },
}

/// Data stream produced by a source environment.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
#[derive(Default)]
pub enum DataStream {
    /// 0, 1, 2, … per produced token.
    #[default]
    Counter,
    /// The same constant for every token.
    Const(u64),
    /// Explicit sequence of values; repeats when exhausted.
    List(Vec<u64>),
    /// Pseudo-random values masked to the channel width.
    Random {
        /// Seed of the per-source pseudo-random generator.
        seed: u64,
    },
}

/// Specification of a source (input environment).
#[derive(Debug, Clone, PartialEq)]
pub struct SourceSpec {
    /// When the source offers tokens.
    pub pattern: SourcePattern,
    /// The data carried by the offered tokens.
    pub data: DataStream,
    /// Whether an anti-token reaching the source consumes the next stream
    /// value (`true`, the default) or cancels a *phantom* token that is not
    /// part of the listed stream (`false`). The latter models environments —
    /// such as the one behind Table 1 of the paper — that generate a
    /// speculative alternative per decision only on demand, so a cancelled
    /// alternative does not shift the real value stream.
    pub consume_on_kill: bool,
}

impl Default for SourceSpec {
    fn default() -> Self {
        SourceSpec {
            pattern: SourcePattern::default(),
            data: DataStream::default(),
            consume_on_kill: true,
        }
    }
}

impl SourceSpec {
    /// A source that offers a fresh token every cycle with counter data.
    pub fn always() -> Self {
        SourceSpec::default()
    }

    /// A source that offers the given values, one per accepted token.
    pub fn list(values: Vec<u64>) -> Self {
        SourceSpec { data: DataStream::List(values), ..SourceSpec::default() }
    }
}

/// Back-pressure pattern applied by a sink environment.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
#[derive(Default)]
pub enum BackpressurePattern {
    /// Never stall the producer.
    #[default]
    Never,
    /// Stall once every `period` cycles.
    Every(u32),
    /// Explicit per-cycle stall pattern; repeats when exhausted.
    List(Vec<bool>),
    /// Stall with the given probability each cycle.
    Random {
        /// Probability of stalling in a cycle, in `[0, 1]`.
        probability: f64,
        /// Seed of the per-sink pseudo-random generator.
        seed: u64,
    },
}

/// Specification of a sink (output environment).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SinkSpec {
    /// Back-pressure behaviour of the sink.
    pub backpressure: BackpressurePattern,
}

impl SinkSpec {
    /// A sink that always accepts.
    pub fn always_ready() -> Self {
        SinkSpec::default()
    }
}

/// The kind of a netlist node, with its kind-specific configuration.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum NodeKind {
    /// Elastic buffer (sequential storage).
    Buffer(BufferSpec),
    /// Combinational function block with join semantics on its inputs.
    Function(FunctionSpec),
    /// (Early-evaluation) multiplexor.
    Mux(MuxSpec),
    /// Token-replicating fork.
    Fork(ForkSpec),
    /// Speculative shared module with a scheduler.
    Shared(SharedSpec),
    /// In-order commit stage for a speculative shared module.
    Commit(CommitSpec),
    /// Variable-latency unit (stalling implementation, Figure 6(a)).
    VarLatency(VarLatencySpec),
    /// Input environment.
    Source(SourceSpec),
    /// Output environment.
    Sink(SinkSpec),
}

impl NodeKind {
    /// Number of input ports of a node of this kind.
    pub fn input_count(&self) -> usize {
        match self {
            NodeKind::Buffer(_) => 1,
            NodeKind::Function(f) => f.inputs,
            NodeKind::Mux(m) => 1 + m.data_inputs,
            NodeKind::Fork(_) => 1,
            NodeKind::Shared(s) => s.users * s.inputs_per_user,
            NodeKind::Commit(c) => c.lanes,
            NodeKind::VarLatency(v) => v.inputs,
            NodeKind::Source(_) => 0,
            NodeKind::Sink(_) => 1,
        }
    }

    /// Number of output ports of a node of this kind.
    pub fn output_count(&self) -> usize {
        match self {
            NodeKind::Buffer(_) => 1,
            NodeKind::Function(_) => 1,
            NodeKind::Mux(_) => 1,
            NodeKind::Fork(f) => f.outputs,
            NodeKind::Shared(s) => s.users,
            NodeKind::Commit(c) => c.lanes,
            NodeKind::VarLatency(_) => 1,
            NodeKind::Source(_) => 1,
            NodeKind::Sink(_) => 0,
        }
    }

    /// `true` for sequential nodes (nodes that break combinational paths).
    ///
    /// The commit stage qualifies: a lane's output valid is a function of its
    /// FIFO occupancy alone, so the forward valid/retraction wave of its
    /// producer never crosses it (its *backward* stop path is combinational,
    /// like the Figure-5 zero-backward buffer).
    pub fn is_sequential(&self) -> bool {
        matches!(self, NodeKind::Buffer(_) | NodeKind::VarLatency(_) | NodeKind::Commit(_))
    }

    /// `true` for environment nodes (sources and sinks).
    pub fn is_environment(&self) -> bool {
        matches!(self, NodeKind::Source(_) | NodeKind::Sink(_))
    }

    /// `true` for combinational nodes: their control outputs (valids, stops,
    /// kills) re-derive from their inputs within the settle phase, so
    /// retraction waves, stop chains and lazy-rendezvous withholding all
    /// traverse them. The complement of sequential and environment nodes —
    /// kept as one predicate because the transform-side analyses
    /// (retraction domains, rendezvous regions, taint closures) must agree
    /// on exactly this set.
    pub fn is_combinational(&self) -> bool {
        !self.is_sequential() && !self.is_environment()
    }

    /// Short kind name used in reports.
    pub fn kind_name(&self) -> &'static str {
        match self {
            NodeKind::Buffer(_) => "buffer",
            NodeKind::Function(_) => "function",
            NodeKind::Mux(_) => "mux",
            NodeKind::Fork(_) => "fork",
            NodeKind::Shared(_) => "shared",
            NodeKind::Commit(_) => "commit",
            NodeKind::VarLatency(_) => "varlatency",
            NodeKind::Source(_) => "source",
            NodeKind::Sink(_) => "sink",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_buffer_satisfies_capacity_constraint() {
        let eb = BufferSpec::standard(1);
        assert!(eb.is_well_formed());
        assert_eq!(eb.capacity, 2);
        assert_eq!(eb.forward_latency + eb.backward_latency, 2);
    }

    #[test]
    fn zero_backward_buffer_has_unit_capacity() {
        let eb = BufferSpec::zero_backward(0);
        assert!(eb.is_well_formed());
        assert_eq!(eb.capacity, 1);
        assert_eq!(eb.backward_latency, 0);
    }

    #[test]
    fn undersized_buffer_is_rejected() {
        let eb = BufferSpec { capacity: 1, ..BufferSpec::standard(0) };
        assert!(!eb.is_well_formed(), "C < Lf + Lb must be rejected (tokens could be lost)");
    }

    #[test]
    fn overfilled_buffer_is_rejected() {
        let eb = BufferSpec { init_tokens: 3, ..BufferSpec::standard(0) };
        assert!(!eb.is_well_formed());
        let eb = BufferSpec { init_tokens: -2, ..BufferSpec::standard(0) };
        assert!(!eb.is_well_formed(), "anti-token occupancy above anti_capacity must be rejected");
    }

    #[test]
    fn port_counts_follow_specs() {
        let mux = NodeKind::Mux(MuxSpec::early(2));
        assert_eq!(mux.input_count(), 3, "select plus two data inputs");
        assert_eq!(mux.output_count(), 1);

        let shared = NodeKind::Shared(SharedSpec::new(2, Op::Add).with_inputs_per_user(2));
        assert_eq!(shared.input_count(), 4);
        assert_eq!(shared.output_count(), 2);

        let fork = NodeKind::Fork(ForkSpec::eager(3));
        assert_eq!(fork.input_count(), 1);
        assert_eq!(fork.output_count(), 3);

        let source = NodeKind::Source(SourceSpec::always());
        assert_eq!(source.input_count(), 0);
        assert_eq!(source.output_count(), 1);
    }

    #[test]
    fn sequential_and_environment_classification() {
        assert!(NodeKind::Buffer(BufferSpec::bubble()).is_sequential());
        assert!(!NodeKind::Function(FunctionSpec::new(Op::Add)).is_sequential());
        assert!(NodeKind::Source(SourceSpec::always()).is_environment());
        assert!(NodeKind::Sink(SinkSpec::always_ready()).is_environment());
        assert!(!NodeKind::Mux(MuxSpec::lazy(2)).is_environment());
    }

    #[test]
    fn function_spec_defaults_inputs_from_arity() {
        assert_eq!(FunctionSpec::new(Op::Sub).inputs, 2);
        assert_eq!(FunctionSpec::new(Op::Identity).inputs, 1);
        assert_eq!(FunctionSpec::new(Op::Alu8).inputs, 3);
    }
}
