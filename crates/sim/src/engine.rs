//! The simulation engine: two-phase (settle / commit) clock-cycle execution.
//!
//! Every cycle the engine:
//!
//! 1. clears all channel signals,
//! 2. drives the combinational control network to a fixed point (the settle
//!    phase — valids, stops and anti-token signals may traverse several nodes
//!    within one cycle, e.g. through zero-backward-latency buffers),
//! 3. records the settled signals in the trace, and
//! 4. commits all sequential state simultaneously (the clock edge).
//!
//! [`Simulation`] and the 64-lane [`crate::LaneSimulation`] run on one
//! private engine core over the same [`Controller`] trait, at the `bool`
//! and the `u64` rail: the dense topology and ranks, the event-driven
//! settle with its optimistic pass, the dispatch to the compiled plan, the
//! settle budget, the oscillation witness, override lookup, the clock edge
//! and report assembly from each controller's
//! [`crate::controller::NodeReport`] are written once. `Simulation` keeps
//! its [`ChannelState`] storage, fault injection, monitors, the deadline,
//! the [`SettleStrategy::FullSweep`] oracle and the choice of strategy.
//!
//! # The event-driven settle phase
//!
//! The settle phase is an **event-driven worklist fixpoint** rather than a
//! Jacobi iteration over all controllers:
//!
//! * at build time the engine derives, for every channel, which controllers
//!   observe it (both endpoints — consumers read `V+`/data/`S-`, producers
//!   read `S+`/`V-`), and a **static evaluation rank**: a topological order
//!   over the zero-delay dataflow graph, in which a controller that reads
//!   channels is ranked after the producer of each of its inputs and fully
//!   registered controllers (standard elastic buffers, sources, sinks:
//!   neither half reads a channel, see [`Controller::reads`]) cut the
//!   edges;
//! * each cycle, every controller is seeded into a rank-ordered worklist
//!   once. Controllers are popped in rank order; every signal write is
//!   compare-and-set ([`NodeIo`]), and an actual change re-enqueues
//!   exactly the other endpoint of the changed channel (if it reads
//!   channels). The phase ends when the worklist drains — no full-vector
//!   snapshot, no `Vec<ChannelState>` clone, no re-evaluation of unaffected
//!   controllers;
//! * valids and data settle in one rank-ordered pass; a stop or kill that
//!   a consumer raises wakes its producer against the ranks, and only
//!   controllers on a combinational dataflow ring share the trailing rank
//!   and settle by re-wake waves. The total work per cycle is proportional
//!   to the number of signal *changes*, not to `iterations × nodes`.
//!
//! A per-cycle evaluation budget (see [`Simulation::settle_budget`]) remains
//! as a safety valve: if the signals fail to settle, the netlist contains a
//! combinational control loop (e.g. a cycle with no elastic buffer on it) and
//! the engine reports [`SimError::CombinationalLoop`] rather than
//! mis-simulating.
//!
//! # The optimistic seeding pass
//!
//! Netlists containing **lazy forks** have settle equations with more than
//! one fixed point: a lazy fork withholds every branch copy while any
//! branch is not ready, and a join reconverging two of its branches holds
//! its stop while the copies are missing — a circular wait whose cleared
//! state can fall into the *dead* solution (all valids low, all stops high)
//! even though a live solution exists. When any controller reports
//! [`Controller::is_optimistic`], both settle strategies therefore run a
//! two-pass fixpoint each cycle: first the whole network settles with
//! those controllers evaluating optimistically (the `optimistic` argument
//! of [`Controller::eval`]: a lazy fork offers all copies as if every
//! branch were ready), then the honest equations re-settle from that
//! state. Signals only step *down* from the optimistic solution
//! (valids fall, stops rise), so the second pass converges onto the
//! greatest — maximal-progress — fixpoint when one exists, and genuine
//! blockers (real back-pressure) still win. Netlists without optimistic
//! controllers pay nothing: the pass is skipped entirely. A lazy fork whose
//! branches never reconverge has one fixed point, so the compiled plan
//! (see [`SettleStrategy::Compiled`]) settles it in one pass.
//!
//! The pre-rewrite full-sweep behaviour is kept as
//! [`SettleStrategy::FullSweep`] — a debugging oracle used by the
//! engine-equivalence tests to prove that the worklist engine produces
//! bit-identical traces and reports.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use elastic_core::kind::{BackpressurePattern, SourcePattern};
use elastic_core::{ChannelId, CoreError, Netlist, NodeId, Scheduler};
use elastic_datapath::adder::mask;

use crate::compiled::CompiledPlan;
use crate::controller::{Controller, NodeIo};
use crate::engine_core::{EngineCore, EngineRail, Ports};
use crate::faults::{FaultInjector, FaultPlan, ResolvedFault};
use crate::metrics::SimulationReport;
use crate::monitor::{CycleMonitor, MonitorViolation};
use crate::signal::ChannelState;
use crate::trace::Trace;

/// How the combinational settle phase reaches its fixed point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SettleStrategy {
    /// Event-driven worklist: only controllers whose observed channels
    /// changed are re-evaluated, in static rank order. The default.
    #[default]
    EventDriven,
    /// Naive Jacobi iteration: evaluate every controller in node order until
    /// a full sweep changes nothing. Kept as the reference oracle for
    /// engine-equivalence tests and for debugging suspected worklist bugs.
    FullSweep,
    /// Compiled plan: the netlist is lowered once into one straight-line
    /// sequence of its controllers' handshake halves in dataflow order (see
    /// the `compiled` module), each run once per cycle with no worklist.
    /// A netlist gets a plan exactly when the rail groups its halves read
    /// and write form no cycle; that covers every netlist without a
    /// combinational loop, a node feeding itself or a lazy fork whose
    /// branches reconverge. The 64-lane [`crate::LaneSimulation`] settles
    /// on the same plan. A netlist without one transparently settles
    /// [`SettleStrategy::EventDriven`], which iterates to its fixed point
    /// (with the two-pass seeding lazy forks need) or reports the loop.
    ///
    /// Effort counters on a plan: [`SimulationReport::settle_iterations`]
    /// counts **op executions** (every op once per cycle), and
    /// [`SimulationReport::controller_evals`] counts the ops that evaluate a
    /// whole controller, one per registered controller (sources, sinks,
    /// standard buffers) — every other node runs as a forward and a
    /// backward op and counts no evaluation.
    Compiled,
}

/// A settle-phase replacement for
/// [`Simulation::step_with_external_settle`]: clears and settles the dense
/// channel vector in place, calling the controllers' equations (see
/// [`crate::codegen`]).
pub(crate) type ExternalSettleFn<'a> = dyn FnMut(&mut [ChannelState], &[Box<dyn Controller>]) + 'a;

/// Configuration of a simulation run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimConfig {
    /// Record a full per-channel trace (needed for Table-1 style output and
    /// for the property checkers of `elastic-verify`).
    pub record_trace: bool,
    /// Fixpoint algorithm for the settle phase; see [`SettleStrategy`].
    pub settle: SettleStrategy,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig { record_trace: true, settle: SettleStrategy::EventDriven }
    }
}

/// Errors raised while building or running a simulation.
#[derive(Debug)]
pub enum SimError {
    /// The netlist failed structural validation.
    InvalidNetlist(CoreError),
    /// A node kind/configuration has no controller model.
    UnsupportedNode {
        /// The offending node.
        node: NodeId,
        /// Why it cannot be simulated.
        reason: String,
    },
    /// The control signals did not reach a fixed point within the iteration
    /// budget — the netlist has a combinational control loop.
    CombinationalLoop {
        /// The cycle in which settling failed.
        cycle: u64,
        /// The controllers and channels that were still oscillating when the
        /// settle budget ran out.
        witness: OscillationWitness,
    },
    /// A [`FaultPlan`] names a channel the simulated netlist does not have.
    UnknownChannel {
        /// The channel id that failed to resolve.
        channel: ChannelId,
    },
    /// A runtime monitor detected an invariant violation; the run stopped
    /// fail-fast at the reported locus (see
    /// [`Simulation::run_monitored`]).
    MonitorTripped(MonitorViolation),
}

/// The still-dirty part of the network when a settle budget was exhausted:
/// which controllers kept being re-woken and which channel signals were
/// still changing in the final evaluation wave. This is the difference
/// between "there is a combinational loop somewhere" and knowing which
/// handful of nodes to stare at.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct OscillationWitness {
    /// Controllers still queued for re-evaluation (node id and kind name),
    /// in dense node order.
    pub nodes: Vec<(NodeId, &'static str)>,
    /// Channels whose signals changed in the last evaluation before the
    /// budget ran out.
    pub channels: Vec<ChannelId>,
}

impl fmt::Display for OscillationWitness {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        const SHOWN: usize = 8;
        let nodes: Vec<String> =
            self.nodes.iter().take(SHOWN).map(|(node, kind)| format!("{node} ({kind})")).collect();
        write!(f, "oscillating controllers [{}", nodes.join(", "))?;
        if self.nodes.len() > SHOWN {
            write!(f, ", +{} more", self.nodes.len() - SHOWN)?;
        }
        write!(f, "]")?;
        if !self.channels.is_empty() {
            let channels: Vec<String> =
                self.channels.iter().take(SHOWN).map(|c| c.to_string()).collect();
            write!(f, ", last-changing channels [{}", channels.join(", "))?;
            if self.channels.len() > SHOWN {
                write!(f, ", +{} more", self.channels.len() - SHOWN)?;
            }
            write!(f, "]")?;
        }
        Ok(())
    }
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::InvalidNetlist(error) => write!(f, "netlist is not simulable: {error}"),
            SimError::UnsupportedNode { node, reason } => {
                write!(f, "node {node} cannot be simulated: {reason}")
            }
            SimError::CombinationalLoop { cycle, witness } => write!(
                f,
                "control signals did not settle in cycle {cycle}: the netlist contains a \
                 combinational loop (insert an elastic buffer on the loop); {witness}"
            ),
            SimError::UnknownChannel { channel } => {
                write!(f, "fault plan names channel {channel}, which the netlist does not have")
            }
            SimError::MonitorTripped(violation) => {
                write!(f, "runtime monitor tripped: {violation}")
            }
        }
    }
}

impl std::error::Error for SimError {}

impl From<CoreError> for SimError {
    fn from(error: CoreError) -> Self {
        SimError::InvalidNetlist(error)
    }
}

impl EngineRail for bool {
    type Channels = [ChannelState];

    fn io<'a>(
        channels: &'a mut [ChannelState],
        (inputs, outputs): &'a Ports,
        widths: &'a [u8],
        dirty: Option<&'a mut Vec<usize>>,
    ) -> NodeIo<'a> {
        NodeIo::masked(channels, inputs, outputs, widths, dirty)
    }
}

/// Process-wide count of [`Simulation`] constructions (see
/// [`Simulation::constructions`]).
static CONSTRUCTIONS: AtomicU64 = AtomicU64::new(0);

/// A cycle-accurate simulation of one elastic netlist.
pub struct Simulation {
    config: SimConfig,
    core: EngineCore<bool>,
    channels: Vec<ChannelState>,
    /// The lowered settle plan when [`SettleStrategy::Compiled`] is active
    /// and the netlist has one; `None` otherwise (the strategy then falls
    /// back to the event-driven settle).
    compiled: Option<Box<CompiledPlan>>,
    trace: Trace,
    /// Armed fault injector, if any (see [`Simulation::arm_faults`]).
    injector: Option<FaultInjector>,
    /// Set when a [`Simulation::run_with_deadline`] run was cut short by its
    /// wall-clock deadline (surfaced in the report).
    deadline_exceeded: bool,
}

impl fmt::Debug for Simulation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Simulation")
            .field("nodes", &self.core.controllers.len())
            .field("channels", &self.channels.len())
            .field("cycle", &self.core.cycle)
            .field("settle", &self.config.settle)
            .finish()
    }
}

impl Simulation {
    /// Builds a simulation of `netlist` with the schedulers named in the
    /// netlist itself.
    ///
    /// # Errors
    ///
    /// Fails when the netlist does not validate or contains a node the
    /// simulator cannot model.
    pub fn new(netlist: &Netlist, config: &SimConfig) -> Result<Self, SimError> {
        CONSTRUCTIONS.fetch_add(1, Ordering::Relaxed);
        let core = EngineCore::build(netlist)?;
        let compiled = if config.settle == SettleStrategy::Compiled {
            CompiledPlan::build(&core).map(Box::new)
        } else {
            None
        };

        Ok(Simulation {
            config: config.clone(),
            channels: vec![ChannelState::default(); core.channel_count()],
            core,
            compiled,
            trace: Trace::new(netlist),
            injector: None,
            deadline_exceeded: false,
        })
    }

    /// Number of cycles simulated so far.
    pub fn cycle(&self) -> u64 {
        self.core.cycle
    }

    /// The recorded trace (empty unless [`SimConfig::record_trace`] is set).
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// The per-cycle settle budget in full-sweep equivalents: `2·channels +
    /// 8` (every channel can change at most once per direction, plus
    /// seeding slack). A netlist that needs more has a combinational loop.
    pub fn settle_budget(&self) -> usize {
        self.core.settle_budget()
    }

    /// Process-wide count of simulation constructions ([`Simulation::new`])
    /// — a build diagnostic used by sweep tests to prove that exploration
    /// loops reuse one simulation per worker thread (via
    /// [`Simulation::reset`]) instead of rebuilding per run. Resets
    /// ([`Simulation::reset`] and friends) do **not** count.
    pub fn constructions() -> u64 {
        CONSTRUCTIONS.load(Ordering::Relaxed)
    }

    /// Rewinds the simulation to cycle 0 without rebuilding it.
    ///
    /// Every controller's sequential state and observables return to their
    /// post-construction values, the channel signals and the recorded trace
    /// are cleared, and the cycle/effort counters restart at zero. Everything
    /// *derived from the netlist structure* survives untouched: validation,
    /// the controller set, the channel adjacency, the static evaluation ranks
    /// and the worklist layout — which is what makes a reset O(state) instead
    /// of O(netlist) and lets exploration sweeps run thousands of
    /// environments on one build. A reset simulation is observationally
    /// identical to a freshly built one.
    pub fn reset(&mut self) {
        self.core.rewind();
        self.channels.fill(ChannelState::default());
        if let Some(injector) = &mut self.injector {
            injector.rewind();
        }
        self.trace.clear();
        self.deadline_exceeded = false;
    }

    /// Arms a [`FaultPlan`] on this simulation: from the next cycle on, the
    /// settled signals of each cycle are perturbed by every fault whose
    /// window covers it (see [`crate::faults`] for the fault model).
    ///
    /// Arming replaces any previously armed plan. The plan survives
    /// [`Simulation::reset`] — the injector's replay memory and counters are
    /// rewound with the rest of the state, so a reset faulted run replays
    /// bit-identically. Use [`Simulation::disarm_faults`] to return to a
    /// clean simulation.
    ///
    /// # Errors
    ///
    /// [`SimError::UnknownChannel`] when the plan names a channel the
    /// netlist does not have.
    pub fn arm_faults(&mut self, plan: &FaultPlan) -> Result<(), SimError> {
        let mut resolved = Vec::with_capacity(plan.faults.len());
        for spec in &plan.faults {
            let index = self
                .core
                .channel_ids
                .iter()
                .position(|&id| id == spec.channel)
                .ok_or(SimError::UnknownChannel { channel: spec.channel })?;
            let width_mask = mask(u64::MAX, self.core.channel_widths[index]);
            resolved.push(ResolvedFault { channel: index, width_mask, spec: *spec });
        }
        self.injector = Some(FaultInjector::new(resolved, self.channels.len()));
        Ok(())
    }

    /// Removes any armed fault plan; subsequent cycles run clean.
    pub fn disarm_faults(&mut self) {
        self.injector = None;
    }

    /// [`Simulation::reset`], additionally replacing the back-pressure
    /// pattern of the named sinks (the environment enumeration of
    /// `elastic-verify` uses this to sweep sink behaviours without cloning
    /// the netlist). Overrides persist across later plain resets.
    ///
    /// Non-sink node ids in `overrides` are rejected with a debug assertion
    /// (and ignored in release builds).
    pub fn reset_with_sink_patterns(&mut self, overrides: &[(NodeId, BackpressurePattern)]) {
        self.reset();
        self.core.override_nodes(overrides.iter().map(|(node, p)| (*node, p)), "sink", |c, p| {
            c.override_sink(std::slice::from_ref(p))
        });
    }

    /// [`Simulation::reset`], additionally replacing the token-offer pattern
    /// of the named sources (the environment-injection sweeps of the fuzzing
    /// harness use this to vary *when* generated environments offer tokens
    /// without cloning the netlist — the data streams are kept). Overrides
    /// persist across later plain resets.
    ///
    /// Non-source node ids in `overrides` are rejected with a debug assertion
    /// (and ignored in release builds).
    pub fn reset_with_source_patterns(&mut self, overrides: &[(NodeId, SourcePattern)]) {
        self.reset();
        self.core.override_nodes(overrides.iter().map(|(node, p)| (*node, p)), "source", |c, p| {
            c.override_source(std::slice::from_ref(p))
        });
    }

    /// [`Simulation::reset`], additionally replacing the prediction policy of
    /// the named shared modules (the adversarial-scheduler exploration uses
    /// this to sweep seeded schedulers without rebuilding). The schedulers
    /// must be freshly initialised; overrides persist across later plain
    /// resets, which rewind them via [`Scheduler::reset`].
    ///
    /// Non-shared node ids are rejected with a debug assertion (and ignored
    /// in release builds — the box is dropped).
    pub fn reset_with_schedulers(&mut self, overrides: Vec<(NodeId, Box<dyn Scheduler>)>) {
        self.reset();
        self.core.override_nodes(overrides, "shared module", |c, scheduler| {
            c.override_scheduler(0, scheduler)
        });
    }

    /// One stabilisation loop of the reference engine: evaluate every
    /// controller in node order until a full sweep changes nothing.
    fn sweep_until_stable(&mut self, optimistic: bool, budget: usize, sweeps: &mut usize) -> bool {
        while *sweeps < budget {
            *sweeps += 1;
            self.core.settle_iterations += 1;
            let mut changed = false;
            // Track which controllers changed signals this sweep: if the
            // budget runs out, the last sweep's changers are the
            // oscillation witness.
            self.core.oscillating.clear();
            for node in 0..self.core.controllers.len() {
                self.core.eval(node, &mut self.channels, optimistic);
                if !self.core.dirty.is_empty() {
                    changed = true;
                    self.core.oscillating.push(node as u32);
                }
            }
            if !changed {
                return true;
            }
        }
        false
    }

    /// Reference settle: Jacobi iteration in node order (the pre-worklist
    /// engine behaviour), with the same optimistic seeding pass as the
    /// event-driven engine when lazy forks are present — node-order sweeps
    /// from the cleared state would otherwise settle reconvergent lazy
    /// forks into the dead fixpoint whenever a join precedes its fork in
    /// node order, diverging from the worklist engine. Returns `false` when
    /// the sweep budget is exhausted.
    fn settle_full_sweep(&mut self) -> bool {
        let budget = self.core.settle_budget();
        let mut sweeps = 0usize;
        (self.core.optimistic_nodes.is_empty()
            || self.sweep_until_stable(true, budget, &mut sweeps))
            && self.sweep_until_stable(false, budget, &mut sweeps)
    }

    /// Simulates one clock cycle.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::CombinationalLoop`] when the control signals fail
    /// to settle.
    pub fn step(&mut self) -> Result<(), SimError> {
        // Combinational phase: clear, then drive to a fixed point.
        self.channels.fill(ChannelState::default());
        let settled = match self.config.settle {
            SettleStrategy::EventDriven => self.core.settle_event_driven(&mut self.channels),
            SettleStrategy::FullSweep => self.settle_full_sweep(),
            SettleStrategy::Compiled => {
                self.core.settle(self.compiled.as_deref(), &mut self.channels)
            }
        };
        if !settled {
            return Err(self.core.combinational_loop());
        }
        self.finish_cycle();
        Ok(())
    }

    /// One cycle driven by an **external settle function**
    /// ([`ExternalSettleFn`]) — the
    /// straight-line pass emitted by [`crate::codegen::emit_settle_fn`]. The
    /// function replaces the clear + settle phase (it clears the channels
    /// itself); the rest of the cycle — fault injection, trace recording,
    /// the commit clock edge — is exactly [`Simulation::step`]. Emitted
    /// functions are straight-line by construction, so there is no
    /// combinational-loop error path.
    pub(crate) fn step_with_external_settle(&mut self, settle: &mut ExternalSettleFn<'_>) {
        settle(&mut self.channels, &self.core.controllers);
        self.finish_cycle();
    }

    /// The rest of a cycle once the signals have settled: fault injection,
    /// trace recording, and the clock edge.
    fn finish_cycle(&mut self) {
        // Fault injection: perturb the settled signals before anything
        // observes them — the trace records the corrupted wire, and the
        // clock edge below commits both endpoints on the same corrupted
        // tuple, exactly like a flipped wire in hardware.
        if let Some(injector) = &mut self.injector {
            injector.apply(self.core.cycle, &mut self.channels);
        }
        if self.config.record_trace {
            self.trace.record(&self.channels);
        }
        self.core.clock_edge(&mut self.channels);
    }

    /// Simulates `cycles` clock cycles and returns the accumulated report.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::CombinationalLoop`] when the control signals fail
    /// to settle in some cycle.
    pub fn run(&mut self, cycles: u64) -> Result<SimulationReport, SimError> {
        for _ in 0..cycles {
            self.step()?;
        }
        Ok(self.report())
    }

    /// [`Simulation::run`] with a wall-clock watchdog: when `deadline`
    /// passes before all `cycles` are simulated, the run stops early and
    /// returns the **partial** report with
    /// [`SimulationReport::deadline_exceeded`] set, instead of hanging a
    /// harness on a pathological case. The deadline is polled every 64
    /// cycles, so overshoot is bounded by the cost of 64 cycles.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Simulation::run`].
    pub fn run_with_deadline(
        &mut self,
        cycles: u64,
        deadline: Instant,
    ) -> Result<SimulationReport, SimError> {
        self.run_monitored(cycles, Some(deadline), &mut [])
    }

    /// Runs `cycles` cycles under a set of streaming [`CycleMonitor`]s,
    /// optionally bounded by a wall-clock `deadline`.
    ///
    /// After every simulated cycle each monitor observes the settled
    /// (post-fault-injection) channel signals, in the dense
    /// `live_channels()` order shared with the trace; the first violation
    /// aborts the run **fail-fast** as [`SimError::MonitorTripped`], with
    /// the violation carrying its `(channel, cycle, invariant)` locus. When
    /// the full cycle count completes, every monitor's
    /// [`CycleMonitor::finish`] runs for end-of-run obligations. A deadline
    /// cut-off returns the partial report with
    /// [`SimulationReport::deadline_exceeded`] set and does **not** run the
    /// finish checks (the run is incomplete, not wrong).
    ///
    /// # Errors
    ///
    /// [`SimError::MonitorTripped`] on the first monitor violation, plus
    /// the conditions of [`Simulation::run`].
    pub fn run_monitored(
        &mut self,
        cycles: u64,
        deadline: Option<Instant>,
        monitors: &mut [Box<dyn CycleMonitor>],
    ) -> Result<SimulationReport, SimError> {
        let target = self.core.cycle.saturating_add(cycles);
        while self.core.cycle < target {
            if let Some(deadline) = deadline {
                if self.core.cycle & 0x3F == 0 && Instant::now() >= deadline {
                    self.deadline_exceeded = true;
                    return Ok(self.report());
                }
            }
            self.step()?;
            let observed_cycle = self.core.cycle - 1;
            for monitor in monitors.iter_mut() {
                monitor
                    .observe(observed_cycle, &self.channels)
                    .map_err(SimError::MonitorTripped)?;
            }
        }
        for monitor in monitors.iter_mut() {
            monitor.finish(self.core.cycle).map_err(SimError::MonitorTripped)?;
        }
        Ok(self.report())
    }

    /// The report accumulated over all cycles simulated so far.
    pub fn report(&self) -> SimulationReport {
        SimulationReport {
            trace_bytes: self.trace.heap_bytes() as u64,
            faults: self.injector.as_ref().map(|i| i.stats().clone()).unwrap_or_default(),
            deadline_exceeded: self.deadline_exceeded,
            ..self.core.report(0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use elastic_core::kind::{BufferSpec, SinkSpec, SourceSpec};
    use elastic_core::{Op, Port};

    /// src -> inc -> EB -> sink
    fn pipeline() -> (Netlist, NodeId, NodeId) {
        let mut n = Netlist::new("pipeline");
        let src = n.add_source("src", SourceSpec::always());
        let inc = n.add_op("inc", Op::Inc);
        let eb = n.add_buffer("eb", BufferSpec::standard(0));
        let sink = n.add_sink("sink", SinkSpec::always_ready());
        n.connect(Port::output(src, 0), Port::input(inc, 0), 8).unwrap();
        n.connect(Port::output(inc, 0), Port::input(eb, 0), 8).unwrap();
        n.connect(Port::output(eb, 0), Port::input(sink, 0), 8).unwrap();
        (n, src, sink)
    }

    #[test]
    fn a_simple_pipeline_streams_one_token_per_cycle() {
        let (netlist, _src, sink) = pipeline();
        let mut sim = Simulation::new(&netlist, &SimConfig::default()).unwrap();
        let report = sim.run(20).unwrap();
        // One buffer of latency: 19 transfers in 20 cycles.
        assert_eq!(report.sink_transfers(sink), 19);
        let values = report.sink_values(sink);
        assert_eq!(values[0..5], [1, 2, 3, 4, 5], "counter data incremented by the function");
    }

    #[test]
    fn invalid_netlists_are_rejected() {
        let mut n = Netlist::new("bad");
        n.add_source("src", SourceSpec::always());
        assert!(matches!(
            Simulation::new(&n, &SimConfig::default()),
            Err(SimError::InvalidNetlist(_))
        ));
    }

    #[test]
    fn combinational_loops_are_detected() {
        // inc -> inc2 -> back to inc: a loop with no buffer. Its data words
        // keep incrementing around the ring, so every engine must exhaust
        // its settle budget in cycle 0 and name a function node.
        use crate::lanes::{LaneConfig, LaneSimulation};

        let mut n = Netlist::new("loop");
        let a = n.add_op("a", Op::Inc);
        let b = n.add_op("b", Op::Inc);
        n.connect(Port::output(a, 0), Port::input(b, 0), 8).unwrap();
        n.connect(Port::output(b, 0), Port::input(a, 0), 8).unwrap();
        let mut outcomes: Vec<(String, Result<(), SimError>)> =
            [SettleStrategy::EventDriven, SettleStrategy::FullSweep, SettleStrategy::Compiled]
                .into_iter()
                .map(|settle| {
                    let config = SimConfig { settle, ..SimConfig::default() };
                    let outcome = Simulation::new(&n, &config).unwrap().run(5).map(drop);
                    (format!("{settle:?}"), outcome)
                })
                .collect();
        let mut lanes = LaneSimulation::new(&n, &LaneConfig::default()).unwrap();
        outcomes.push(("lanes".into(), lanes.run(5)));
        for (engine, outcome) in outcomes {
            match outcome {
                Err(SimError::CombinationalLoop { cycle: 0, witness }) => {
                    assert!(
                        witness
                            .nodes
                            .iter()
                            .any(|(node, kind)| [a, b].contains(node) && *kind == "function"),
                        "{engine} witness must name a node of the loop: {witness}"
                    );
                }
                other => panic!("{engine} must reject the loop, got {other:?}"),
            }
        }
    }

    #[test]
    fn self_loop_channels_match_the_full_sweep_oracle() {
        // A node feeding its own input passes validation; its data signal
        // oscillates (Inc of its own output), so every engine — the three
        // scalar strategies and the 64-lane engine — must exhaust its settle
        // budget and report the combinational loop rather than mis-simulate.
        use crate::lanes::{LaneConfig, LaneSimulation};

        let mut n = Netlist::new("self-loop");
        let f = n.add_op("f", Op::Inc);
        n.connect(Port::output(f, 0), Port::input(f, 0), 8).unwrap();
        let mut outcomes: Vec<(String, Result<(), SimError>)> =
            [SettleStrategy::EventDriven, SettleStrategy::FullSweep, SettleStrategy::Compiled]
                .into_iter()
                .map(|settle| {
                    let config = SimConfig { settle, ..SimConfig::default() };
                    let outcome = Simulation::new(&n, &config).unwrap().run(3).map(drop);
                    (format!("{settle:?}"), outcome)
                })
                .collect();
        let mut lanes = LaneSimulation::new(&n, &LaneConfig::default()).unwrap();
        outcomes.push(("lanes".into(), lanes.run(3)));
        for (engine, outcome) in outcomes {
            match outcome {
                Err(SimError::CombinationalLoop { cycle: 0, witness }) => {
                    assert!(
                        witness.nodes.iter().any(|(node, kind)| *node == f && *kind == "function"),
                        "{engine} witness must name the oscillating node: {witness}"
                    );
                }
                other => panic!("{engine} must reject the self-loop, got {other:?}"),
            }
        }
    }

    #[test]
    fn trace_recording_can_be_disabled() {
        let (netlist, _src, _sink) = pipeline();
        let config = SimConfig { record_trace: false, ..SimConfig::default() };
        let mut sim = Simulation::new(&netlist, &config).unwrap();
        let report = sim.run(10).unwrap();
        assert!(sim.trace().is_empty());
        assert_eq!(report.trace_bytes, 0, "no recording, no trace memory");
        assert_eq!(sim.cycle(), 10);
    }

    #[test]
    fn reports_collect_one_stream_per_sink() {
        let (netlist, _src, sink) = pipeline();
        let mut sim = Simulation::new(&netlist, &SimConfig::default()).unwrap();
        let report = sim.run(10).unwrap();
        assert_eq!(report.cycles, 10);
        assert_eq!(report.sink_streams.keys().collect::<Vec<_>>(), [&sink]);
        assert!(report.shared_stats.is_empty(), "the pipeline has no shared module");
        assert!(report.commit_stats.is_empty(), "the pipeline has no commit stage");
        assert!(report.summary().contains("cycles"));
    }

    #[test]
    fn settle_budget_follows_the_documented_formula() {
        let (netlist, _src, _sink) = pipeline();
        let sim = Simulation::new(&netlist, &SimConfig::default()).unwrap();
        // Three channels: 2·3 + 8.
        assert_eq!(sim.settle_budget(), 14);
    }

    #[test]
    fn the_pipeline_settles_in_one_pass_per_cycle() {
        let (netlist, _src, _sink) = pipeline();
        let mut sim = Simulation::new(&netlist, &SimConfig::default()).unwrap();
        let report = sim.run(10).unwrap();
        // Acyclic design, rank-ordered seeding: exactly one eval per
        // controller per cycle, no re-wakes.
        assert_eq!(report.controller_evals, 10 * 4);
        assert_eq!(report.settle_iterations, 10 * 4);
    }

    #[test]
    fn full_sweep_strategy_matches_the_event_driven_engine() {
        let (netlist, _src, _sink) = pipeline();
        let mut event_driven = Simulation::new(&netlist, &SimConfig::default()).unwrap();
        let mut reference = Simulation::new(
            &netlist,
            &SimConfig { settle: SettleStrategy::FullSweep, ..SimConfig::default() },
        )
        .unwrap();
        let event_report = event_driven.run(25).unwrap();
        let reference_report = reference.run(25).unwrap();
        assert_eq!(event_driven.trace(), reference.trace());
        assert_eq!(event_report.behavioural_difference(&reference_report), None);
        assert!(
            event_report.controller_evals < reference_report.controller_evals,
            "the worklist engine must evaluate strictly less: {} vs {}",
            event_report.controller_evals,
            reference_report.controller_evals
        );
    }

    #[test]
    fn compiled_strategy_matches_the_event_driven_engine() {
        let (netlist, _src, _sink) = pipeline();
        let mut event_driven = Simulation::new(&netlist, &SimConfig::default()).unwrap();
        let mut compiled = Simulation::new(
            &netlist,
            &SimConfig { settle: SettleStrategy::Compiled, ..SimConfig::default() },
        )
        .unwrap();
        let event_report = event_driven.run(25).unwrap();
        let compiled_report = compiled.run(25).unwrap();
        assert_eq!(event_driven.trace(), compiled.trace());
        assert_eq!(event_report.behavioural_difference(&compiled_report), None);
    }

    #[test]
    fn compiled_effort_counters_count_micro_ops_and_dynamic_evals() {
        // The documented compiled-counter semantics, pinned: the 4-node
        // pipeline (source, inc, standard buffer, sink) lowers to 5 ops —
        // one eval for each registered controller plus the incrementer's
        // forward and backward halves.
        let (netlist, _src, _sink) = pipeline();
        let mut sim = Simulation::new(
            &netlist,
            &SimConfig { settle: SettleStrategy::Compiled, ..SimConfig::default() },
        )
        .unwrap();
        let report = sim.run(10).unwrap();
        assert_eq!(report.settle_iterations, 10 * 5, "op executions");
        assert_eq!(report.controller_evals, 10 * 3, "eval ops");
    }

    #[test]
    fn compiled_reset_replays_bit_identically() {
        let (netlist, _src, _sink) = pipeline();
        let mut sim = Simulation::new(
            &netlist,
            &SimConfig { settle: SettleStrategy::Compiled, ..SimConfig::default() },
        )
        .unwrap();
        let first = sim.run(30).unwrap();
        let first_trace = sim.trace().clone();
        sim.reset();
        let second = sim.run(30).unwrap();
        assert_eq!(sim.trace(), &first_trace, "replay must be bit-identical");
        assert_eq!(second.sink_streams, first.sink_streams);
        assert_eq!(second.settle_iterations, first.settle_iterations);
    }

    #[test]
    fn reset_replays_bit_identically_without_rebuilding() {
        let (netlist, _src, sink) = pipeline();
        let mut sim = Simulation::new(&netlist, &SimConfig::default()).unwrap();
        let first = sim.run(30).unwrap();
        let first_trace = sim.trace().clone();

        sim.reset();
        assert_eq!(sim.cycle(), 0);
        assert!(sim.trace().is_empty());

        let second = sim.run(30).unwrap();
        assert_eq!(sim.trace(), &first_trace, "replay must be bit-identical");
        assert_eq!(second.behavioural_difference(&first), None);
        assert_eq!(second.settle_iterations, first.settle_iterations);

        // And identical to a freshly built simulation.
        let mut fresh = Simulation::new(&netlist, &SimConfig::default()).unwrap();
        let fresh_report = fresh.run(30).unwrap();
        assert_eq!(fresh.trace(), &first_trace);
        assert_eq!(fresh_report.sink_transfers(sink), second.sink_transfers(sink));
    }

    #[test]
    fn sink_pattern_overrides_match_a_rebuilt_netlist() {
        use elastic_core::kind::BackpressurePattern;

        let (netlist, _src, sink) = pipeline();
        // Reference: rebuild the netlist with a stalling sink.
        let mut variant = netlist.clone();
        let pattern = BackpressurePattern::List(vec![true, false, true]);
        if let Some(node) = variant.node_mut(sink) {
            node.kind = elastic_core::NodeKind::Sink(SinkSpec { backpressure: pattern.clone() });
        }
        let mut rebuilt = Simulation::new(&variant, &SimConfig::default()).unwrap();
        let rebuilt_report = rebuilt.run(40).unwrap();

        // Same behaviour via reset_with_sink_patterns on the original build.
        let mut sim = Simulation::new(&netlist, &SimConfig::default()).unwrap();
        sim.run(13).unwrap(); // dirty the state first
        sim.reset_with_sink_patterns(&[(sink, pattern)]);
        let report = sim.run(40).unwrap();

        assert_eq!(sim.trace(), rebuilt.trace());
        assert_eq!(report.behavioural_difference(&rebuilt_report), None);
    }

    #[test]
    fn source_pattern_overrides_match_a_rebuilt_netlist() {
        use elastic_core::kind::{SourcePattern, SourceSpec};

        let (netlist, src, _sink) = pipeline();
        // Reference: rebuild the netlist with a paced source (same data).
        let mut variant = netlist.clone();
        let pattern = SourcePattern::Every(3);
        if let Some(node) = variant.node_mut(src) {
            node.kind = elastic_core::NodeKind::Source(SourceSpec {
                pattern: pattern.clone(),
                ..SourceSpec::default()
            });
        }
        let mut rebuilt = Simulation::new(&variant, &SimConfig::default()).unwrap();
        let rebuilt_report = rebuilt.run(40).unwrap();

        // Same behaviour via reset_with_source_patterns on the original build.
        let mut sim = Simulation::new(&netlist, &SimConfig::default()).unwrap();
        sim.run(9).unwrap(); // dirty the state first
        sim.reset_with_source_patterns(&[(src, pattern)]);
        let report = sim.run(40).unwrap();

        assert_eq!(sim.trace(), rebuilt.trace());
        assert_eq!(report.behavioural_difference(&rebuilt_report), None);
    }

    #[test]
    fn ranks_order_producers_before_combinational_consumers() {
        let (netlist, _src, _sink) = pipeline();
        let sim = Simulation::new(&netlist, &SimConfig::default()).unwrap();
        // src, eb, sink are fully registered → rank 0; the function block
        // reads all of its channels → ranked after its neighbours.
        let function_rank = sim
            .core
            .node_kinds
            .iter()
            .zip(&sim.core.rank)
            .find(|(kind, _)| **kind == "function")
            .map(|(_, rank)| *rank)
            .unwrap();
        assert!(function_rank > 0);
        for (kind, rank) in sim.core.node_kinds.iter().zip(&sim.core.rank) {
            if *kind != "function" {
                assert_eq!(*rank, 0, "registered controller {kind} must seed at rank 0");
            }
        }
    }

    #[test]
    fn armed_faults_perturb_replay_deterministically_and_disarm_cleanly() {
        use crate::faults::{FaultKind, FaultPlan, FaultSpec};

        let (netlist, _src, sink) = pipeline();
        let sink_channel = netlist.channel_into(Port::input(sink, 0)).unwrap().id;
        let mut sim = Simulation::new(&netlist, &SimConfig::default()).unwrap();
        let clean = sim.run(20).unwrap();
        assert_eq!(clean.faults.armed, 0);

        // Drop the tokens reaching the sink for a 4-cycle window.
        sim.reset();
        sim.arm_faults(&FaultPlan::single(FaultSpec {
            channel: sink_channel,
            kind: FaultKind::DropToken,
            from_cycle: 5,
            duration: 4,
        }))
        .unwrap();
        let faulted = sim.run(20).unwrap();
        assert_eq!(faulted.faults.armed, 1);
        assert_eq!(faulted.faults.total_events(), 4, "one perturbation per window cycle");
        assert_eq!(
            faulted.sink_transfers(sink),
            clean.sink_transfers(sink) - 4,
            "dropped tokens never reach the sink"
        );
        let faulted_trace = sim.trace().clone();

        // The plan survives a reset and replays bit-identically.
        sim.reset();
        let replay = sim.run(20).unwrap();
        assert_eq!(sim.trace(), &faulted_trace);
        assert_eq!(replay.faults, faulted.faults);
        assert_eq!(replay.sink_streams, faulted.sink_streams);

        // Disarming restores the clean behaviour.
        sim.disarm_faults();
        sim.reset();
        let restored = sim.run(20).unwrap();
        assert_eq!(restored.sink_streams, clean.sink_streams);
        assert_eq!(restored.faults.armed, 0);
    }

    #[test]
    fn a_fault_that_overfills_a_standard_buffer_keeps_every_token() {
        use crate::faults::{FaultKind, FaultPlan, FaultSpec};
        use elastic_core::kind::BackpressurePattern;

        // src -> EB (capacity 2) -> sink stopped for the first 20 cycles.
        let mut n = Netlist::new("overfill");
        let src = n.add_source("src", SourceSpec::always());
        let eb = n.add_buffer("eb", BufferSpec::standard(0));
        let stops = [vec![true; 20], vec![false; 1000]].concat();
        let sink = n.add_sink("sink", SinkSpec { backpressure: BackpressurePattern::List(stops) });
        let input = n.connect(Port::output(src, 0), Port::input(eb, 0), 8).unwrap();
        n.connect(Port::output(eb, 0), Port::input(sink, 0), 8).unwrap();

        // `S+` stuck low on the buffer's input: the source pushes a token
        // every cycle into a buffer whose output is stopped.
        let mut sim = Simulation::new(&n, &SimConfig::default()).unwrap();
        sim.arm_faults(&FaultPlan::single(FaultSpec {
            channel: input,
            kind: FaultKind::StuckStop { level: false },
            from_cycle: 0,
            duration: 10,
        }))
        .unwrap();
        let report = sim.run(60).unwrap();
        let early = sim.trace().channel_iter(input).take(10);
        assert_eq!(early.filter(|state| state.forward_transfer()).count(), 10);
        assert_eq!(report.sink_values(sink), (0..40).collect::<Vec<u64>>(), "no token is lost");
    }

    #[test]
    fn a_fault_that_overfills_a_commit_stage_lane_keeps_every_token() {
        use crate::faults::{FaultKind, FaultPlan, FaultSpec};
        use elastic_core::kind::{BackpressurePattern, CommitSpec};

        // src -> commit stage (one lane of depth 1) -> sink stopped for the
        // first 20 cycles.
        let mut n = Netlist::new("overfill-commit");
        let src = n.add_source("src", SourceSpec::always());
        let stage = n.add_commit("commit", CommitSpec::new(1));
        let stops = [vec![true; 20], vec![false; 1000]].concat();
        let sink = n.add_sink("sink", SinkSpec { backpressure: BackpressurePattern::List(stops) });
        let input = n.connect(Port::output(src, 0), Port::input(stage, 0), 8).unwrap();
        n.connect(Port::output(stage, 0), Port::input(sink, 0), 8).unwrap();

        // `S+` stuck low on the stage's input: the source pushes a result
        // every cycle into a lane that is full and stopped downstream.
        let mut sim = Simulation::new(&n, &SimConfig::default()).unwrap();
        sim.arm_faults(&FaultPlan::single(FaultSpec {
            channel: input,
            kind: FaultKind::StuckStop { level: false },
            from_cycle: 0,
            duration: 10,
        }))
        .unwrap();
        let report = sim.run(60).unwrap();
        let early = sim.trace().channel_iter(input).take(10);
        assert_eq!(early.filter(|state| state.forward_transfer()).count(), 10);
        assert_eq!(report.sink_values(sink), (0..40).collect::<Vec<u64>>(), "no token is lost");
        assert_eq!(report.commit_stats[&stage].peak_occupancy_per_lane, vec![10]);
    }

    #[test]
    fn fault_plans_naming_unknown_channels_are_rejected() {
        use crate::faults::{FaultKind, FaultPlan, FaultSpec};
        use elastic_core::ChannelId;

        let (netlist, _src, _sink) = pipeline();
        let mut sim = Simulation::new(&netlist, &SimConfig::default()).unwrap();
        let bogus = ChannelId::new(10_000);
        let result = sim.arm_faults(&FaultPlan::single(FaultSpec {
            channel: bogus,
            kind: FaultKind::StallStorm,
            from_cycle: 0,
            duration: 1,
        }));
        assert!(matches!(result, Err(SimError::UnknownChannel { channel }) if channel == bogus));
    }

    #[test]
    fn an_expired_deadline_yields_a_flagged_partial_report() {
        let (netlist, _src, _sink) = pipeline();
        let mut sim = Simulation::new(&netlist, &SimConfig::default()).unwrap();
        // A deadline in the past: the watchdog fires on its first poll.
        let report = sim
            .run_with_deadline(1_000_000, Instant::now() - std::time::Duration::from_millis(1))
            .unwrap();
        assert!(report.deadline_exceeded);
        assert!(report.cycles < 1_000_000, "the run was cut short");

        // A generous deadline lets the run complete, unflagged.
        sim.reset();
        let report =
            sim.run_with_deadline(50, Instant::now() + std::time::Duration::from_secs(60)).unwrap();
        assert!(!report.deadline_exceeded);
        assert_eq!(report.cycles, 50);
    }

    #[test]
    fn monitors_observe_every_cycle_and_trip_fail_fast() {
        use crate::monitor::{CycleMonitor, MonitorViolation};

        /// Counts cycles; trips when a sink-side transfer count is reached.
        #[derive(Debug)]
        struct TripAfter {
            observed: u64,
            trip_at: u64,
        }
        impl CycleMonitor for TripAfter {
            fn name(&self) -> &'static str {
                "trip-after"
            }
            fn observe(
                &mut self,
                cycle: u64,
                _channels: &[ChannelState],
            ) -> Result<(), MonitorViolation> {
                self.observed += 1;
                if cycle == self.trip_at {
                    return Err(MonitorViolation {
                        monitor: "trip-after",
                        invariant: "TestInvariant",
                        channel: None,
                        cycle,
                        details: "synthetic trip".into(),
                    });
                }
                Ok(())
            }
            fn reset(&mut self) {
                self.observed = 0;
            }
        }

        let (netlist, _src, _sink) = pipeline();
        let mut sim = Simulation::new(&netlist, &SimConfig::default()).unwrap();
        let mut monitors: Vec<Box<dyn CycleMonitor>> =
            vec![Box::new(TripAfter { observed: 0, trip_at: 7 })];
        let error = sim.run_monitored(50, None, &mut monitors).unwrap_err();
        match error {
            SimError::MonitorTripped(violation) => {
                assert_eq!(violation.cycle, 7);
                assert_eq!(violation.invariant, "TestInvariant");
            }
            other => panic!("expected a monitor trip, got {other}"),
        }
        assert_eq!(sim.cycle(), 8, "fail-fast: the run stopped right after the trip");
    }
}
