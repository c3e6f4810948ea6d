//! # elastic-sim
//!
//! A cycle-accurate simulator for synchronous elastic (SELF) netlists, the
//! evaluation substrate of the *Speculation in Elastic Systems* reproduction.
//!
//! The paper evaluates its speculative designs by generating Verilog for the
//! elastic controllers and simulating them together with a datapath model;
//! this crate plays that role in pure Rust. Each netlist node becomes a small
//! **controller** implementing the SELF handshake — elastic buffers with
//! configurable forward/backward latency, lazy joins, eager forks,
//! early-evaluation multiplexors that inject anti-tokens, and the speculative
//! shared module with a pluggable [`elastic_core::Scheduler`]. Channels carry
//! the full `(V+, S+, V-, S-)` control tuple plus a 64-bit data word; a clock
//! cycle is simulated by driving the combinational controllers to a fixed
//! point and then committing all sequential state at once.
//!
//! The scalar engine reaches the fixed point **event-driven** by default:
//! controllers are seeded into a worklist ordered by a static topological
//! rank of the zero-delay dataflow graph (each controller after the
//! producers of its inputs), every signal write is compare-and-set, and
//! only the controllers observing a changed channel are re-evaluated (see
//! [`engine`] for the algorithm and `README.md` for the design notes).
//! Valids and data settle in one rank-ordered pass, stops and kills in a
//! few re-wake waves; the per-cycle work is proportional to the number of
//! signal changes, not `iterations × nodes`. [`SettleStrategy::Compiled`]
//! settles on a compiled plan of forward and backward ops in dataflow
//! order, which the 64-lane engine settles on whenever the netlist has no
//! lazy forks. The naive full-sweep engine survives as
//! [`SettleStrategy::FullSweep`], the oracle of the engine-equivalence test
//! suite.
//!
//! The SELF handshake equations (buffers, function blocks, forks, muxes,
//! shared modules, commit stages) are written once, in [`handshake`],
//! generic over a one-scenario `bool` rail and a 64-lane `u64` rail; every
//! settle path — scalar, 64-lane, compiled and generated — evaluates them,
//! and every node kind's controller is one type at both rail words, behind
//! the one [`controller::Controller`] trait both engines drive.
//!
//! Main entry points:
//!
//! * [`Simulation`] — build from a [`elastic_core::Netlist`], run cycles,
//!   collect a [`SimulationReport`]; [`Simulation::reset`] (and the
//!   sink-pattern/scheduler variants) rewinds sequential state without
//!   re-validating or re-ranking, so sweeps re-run one build thousands of
//!   times;
//! * [`Trace`] — columnar, bit-packed per-channel per-cycle recording (four
//!   one-bit signal planes plus sparse width-adaptive data columns, ~4 bits
//!   per control channel per cycle) with streaming accessors
//!   ([`Trace::channel_iter`], [`Trace::states_at`],
//!   [`Trace::transfer_stream`]), used to reproduce Table 1 and by
//!   `elastic-verify`;
//! * [`scenarios`] — ready-to-run experiment setups for the paper's
//!   figures, combining the netlist library of `elastic-core`, the
//!   workload generators of `elastic-datapath` and the schedulers of
//!   `elastic-predict`; [`scenarios::run_fig1_sweep`] fans independent runs
//!   across threads deterministically via [`sweep::parallel_map`], and per-worker
//!   state (one resettable simulation per thread) rides along via
//!   [`sweep::parallel_map_with`].
//!
//! ```
//! use elastic_core::library::{fig1a, Fig1Config};
//! use elastic_sim::{SimConfig, Simulation};
//!
//! let handles = fig1a(&Fig1Config::default());
//! let mut sim = Simulation::new(&handles.netlist, &SimConfig::default()).unwrap();
//! let report = sim.run(100).unwrap();
//! assert!(report.sink_transfers(handles.sink) > 90, "the Figure-1(a) loop runs at ~1 token/cycle");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod codegen;
mod compiled;
pub mod controller;
pub mod controllers;
pub mod engine;
mod engine_core;
pub mod faults;
pub mod handshake;
pub mod lanes;
pub mod metrics;
pub mod monitor;
pub mod scenarios;
pub mod signal;
pub mod sweep;
pub mod trace;

pub use engine::{OscillationWitness, SettleStrategy, SimConfig, SimError, Simulation};
pub use faults::{FaultKind, FaultPlan, FaultSpec, FaultStats};
pub use lanes::{LaneConfig, LaneRails, LaneSimulation, SchedulerFactory, LANES};
pub use metrics::{SharedModuleStats, SimulationReport};
pub use monitor::{CycleMonitor, MonitorViolation};
pub use signal::{ChannelState, TraceSymbol};
pub use trace::Trace;
