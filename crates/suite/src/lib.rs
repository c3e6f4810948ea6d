//! # elastic-suite
//!
//! Umbrella crate of the *Speculation in Elastic Systems* reproduction. It
//! re-exports the workspace crates under one roof so that the runnable
//! examples (`examples/`) and the cross-crate integration tests (`tests/`)
//! have a single dependency, and holds the one design both build:
//! [`feedforward_mux_design`].
//!
//! The root `README.md` is included below — its quickstart snippet compiles
//! as a doctest of this crate, so the documented entry point cannot rot.
#![doc = include_str!("../../../README.md")]
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use elastic_analysis as analysis;
pub use elastic_core as core;
pub use elastic_datapath as datapath;
pub use elastic_explore as explore;
pub use elastic_predict as predict;
pub use elastic_serve as serve;
pub use elastic_sim as sim;
pub use elastic_verify as verify;

/// Builds the feed-forward speculation target shared by the commit-depth
/// benchmark (`examples/commit_depth.rs`) and its equivalence test
/// (`tests/commit_depth.rs`): sel/a/b sources into a lazy mux, an opaque
/// block behind it, and a sink driven by `backpressure`. Returns
/// `(netlist, mux, sink)`. The select stream and the back-pressure pattern
/// are the two knobs the depth sweep varies; everything else — widths, the
/// opaque op, node names — is pinned here so the benchmark measures exactly
/// the design the test verifies.
pub fn feedforward_mux_design(
    select: elastic_core::kind::DataStream,
    backpressure: elastic_core::kind::BackpressurePattern,
) -> (elastic_core::Netlist, elastic_core::NodeId, elastic_core::NodeId) {
    use elastic_core::kind::{DataStream, MuxSpec, SinkSpec, SourcePattern, SourceSpec};
    use elastic_core::{Netlist, Port};

    let mut n = Netlist::new("ff_commit_depth");
    let sel = n.add_source(
        "sel",
        SourceSpec { pattern: SourcePattern::Always, data: select, consume_on_kill: true },
    );
    let a = n.add_source("a", SourceSpec { data: DataStream::Counter, ..SourceSpec::always() });
    let b = n.add_source("b", SourceSpec { data: DataStream::Const(0x5A), ..SourceSpec::always() });
    let mux = n.add_mux("mux", MuxSpec::lazy(2));
    let f = n.add_op("f", elastic_core::op::opaque("F", 6, 120));
    let sink = n.add_sink("sink", SinkSpec { backpressure });
    n.connect(Port::output(sel, 0), Port::input(mux, 0), 1).unwrap();
    n.connect(Port::output(a, 0), Port::input(mux, 1), 8).unwrap();
    n.connect(Port::output(b, 0), Port::input(mux, 2), 8).unwrap();
    n.connect(Port::output(mux, 0), Port::input(f, 0), 8).unwrap();
    n.connect(Port::output(f, 0), Port::input(sink, 0), 8).unwrap();
    n.validate().unwrap();
    (n, mux, sink)
}
