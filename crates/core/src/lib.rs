//! # elastic-core
//!
//! Core data model and correct-by-construction transformations for
//! **synchronous elastic (latency-insensitive) systems**, reproducing
//! *"Speculation in Elastic Systems"* (Galceran-Oms, Cortadella, Kishinevsky,
//! DAC 2009).
//!
//! An elastic system is a collection of blocks and FIFOs connected by
//! channels. Each channel carries data together with a tuple of handshake
//! control bits `(V+, S+, V-, S-)` implementing the SELF protocol: tokens
//! travel forward under `V+/S+`, anti-tokens travel backward under `V-/S-`,
//! and a token and an anti-token cancel each other when they meet.
//!
//! This crate provides:
//!
//! * an abstract **netlist** representation ([`Netlist`]) with elastic
//!   buffers, combinational function blocks, (early-evaluation) multiplexors,
//!   forks, speculative shared modules and environment nodes,
//! * the catalogue of **correct-by-construction transformations** from the
//!   paper: bubble insertion/removal, elastic-buffer retiming, early
//!   evaluation, Shannon decomposition (multiplexor retiming), sharing of
//!   duplicated logic behind a speculative shared module, buffer latency
//!   re-parameterisation, and the composite [`transform::speculate`] pass,
//! * the abstract [`scheduler::Scheduler`] interface used by speculative
//!   shared modules, with the static and the seeded random scheduler,
//! * the [`mix`] primitives behind every seeded stream and persisted digest
//!   (SplitMix64's output function and FNV-1a),
//! * an [`shell::ExplorationShell`] command interpreter mirroring the
//!   interactive exploration toolkit described in Section 5 of the paper,
//! * a [`library`] of prebuilt netlists for every example the paper
//!   evaluates (Figure 1(a)–(d), Table 1, the variable-latency unit of
//!   Figure 6 and the SECDED resilient adder of Figure 7).
//!
//! Cycle-accurate simulation lives in the `elastic-sim` crate, performance
//! and cost analysis in `elastic-analysis`, and verification in
//! `elastic-verify`.
//!
//! # Quick example
//!
//! ```
//! use elastic_core::library;
//! use elastic_core::transform::{self, SpeculateOptions};
//!
//! // Build the non-speculative loop of Figure 1(a) …
//! let fig1 = library::fig1a(&library::Fig1Config::default());
//! let mut netlist = fig1.netlist.clone();
//! // … and turn it into the speculative design of Figure 1(d).
//! let report = transform::speculate(&mut netlist, fig1.mux, &SpeculateOptions::default())
//!     .expect("speculation applies to the Figure-1 netlist");
//! assert!(netlist.node(report.shared_module).is_some());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod error;
pub mod id;
pub mod kind;
pub mod library;
pub mod mix;
pub mod netlist;
pub mod op;
pub mod scheduler;
pub mod shell;
pub mod transform;
pub mod validate;

pub use error::{CoreError, Result};
pub use id::{ChannelId, NodeId, Port, PortDir};
pub use kind::{
    BufferSpec, CommitSpec, ForkSpec, FunctionSpec, MuxSpec, NodeKind, SchedulerKind, SharedSpec,
    SinkSpec, SourceSpec, VarLatencySpec,
};
pub use netlist::{Channel, Netlist, Node};
pub use op::Op;
pub use scheduler::{Scheduler, SharedFeedback};
