//! Correct-by-construction transformations on elastic netlists.
//!
//! All transformations in this module preserve *transfer equivalence*
//! (Section 3.1 of the paper): given identical input streams, the transformed
//! design produces the same output transfer streams as the original one —
//! the cycle in which each transfer happens may differ, the sequence of
//! values may not. The `elastic-verify` crate checks this dynamically for
//! every transformation on randomized workloads.
//!
//! The catalogue follows Sections 2–4 of the paper:
//!
//! | transformation | function | paper reference |
//! |---|---|---|
//! | bubble insertion / removal | [`insert_bubble`], [`remove_buffer`] | §2, Fig. 1(b) |
//! | the `0 = 1 − 1` identity | [`split_empty_buffer`] | §3.3 |
//! | elastic-buffer retiming | [`retime_backward`], [`retime_forward`] | §3.3 |
//! | early evaluation | [`enable_early_evaluation`] | §3.3, ref \[7\] |
//! | Shannon decomposition (mux retiming) | [`shannon_decompose`] | §2, Fig. 1(c) |
//! | sharing with a speculative scheduler | [`share_mux_inputs`] | §4.1, Fig. 1(d) |
//! | buffer latency re-parameterisation | [`set_buffer_latencies`], [`make_zero_backward`] | §4.3, Fig. 5 |
//! | recovery-buffer insertion | [`insert_recovery_buffers`] | §4.1 |
//! | retraction-domain analysis + isolation placement | [`retraction_domain`], [`place_isolation_buffers`] | §4.2 |
//! | **speculation** (the composite pass) | [`speculate()`] | §4 |
//!
//! The [`Transformer`] wrapper keeps an undo/redo history, mirroring the
//! interactive exploration framework described in Section 5.

mod bubble;
mod buffers;
mod early_eval;
mod retime;
mod retraction;
mod shannon;
mod share;
mod speculate;

pub use bubble::{insert_bubble, insert_buffer_on_channel, remove_buffer, split_empty_buffer};
pub use buffers::{insert_recovery_buffers, make_zero_backward, set_buffer_latencies};
pub use early_eval::{disable_early_evaluation, enable_early_evaluation};
pub use retime::{retime_backward, retime_forward};
pub use retraction::{
    backpressure_may_stall, ill_formed_lazy_forks, lazy_tainted_nodes, place_isolation_buffers,
    retraction_domain, FrontierClass, RetractionDomain, RetractionHazard,
};
pub use shannon::{shannon_decompose, ShannonReport};
pub use share::{share_mux_inputs, ShareOptions, ShareReport};
pub use speculate::{find_select_cycles, speculate, SpeculateOptions, SpeculationReport};

use crate::error::{CoreError, Result};
use crate::netlist::Netlist;

/// A named entry in a [`Transformer`] history.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistoryEntry {
    /// Human-readable description of the applied transformation.
    pub description: String,
}

/// An undo/redo-capable wrapper around a [`Netlist`] that applies
/// transformations and records their history.
///
/// Mirrors the interactive exploration toolkit of the paper's Section 5: the
/// user applies transformations, inspects the result, and can undo/redo at
/// any point. Undo is implemented by snapshotting the netlist before each
/// transformation — netlists at the micro-architectural level are small, so
/// snapshots are cheap and trivially correct.
#[derive(Debug, Clone)]
pub struct Transformer {
    current: Netlist,
    undo_stack: Vec<(Netlist, HistoryEntry)>,
    redo_stack: Vec<(Netlist, HistoryEntry)>,
    applied: Vec<HistoryEntry>,
}

impl Transformer {
    /// Starts a transformation session on the given netlist.
    pub fn new(netlist: Netlist) -> Self {
        Transformer {
            current: netlist,
            undo_stack: Vec::new(),
            redo_stack: Vec::new(),
            applied: Vec::new(),
        }
    }

    /// The current state of the design.
    pub fn netlist(&self) -> &Netlist {
        &self.current
    }

    /// Consumes the session and returns the current design.
    pub fn into_netlist(self) -> Netlist {
        self.current
    }

    /// History of applied transformations (oldest first).
    pub fn history(&self) -> &[HistoryEntry] {
        &self.applied
    }

    /// Applies a transformation closure under history control.
    ///
    /// The closure receives a mutable reference to the working netlist. When
    /// it fails the netlist is rolled back to the pre-transformation state,
    /// so a failed transformation can never leave the design half-rewired.
    ///
    /// # Errors
    ///
    /// Propagates the closure's error unchanged.
    pub fn apply<T>(
        &mut self,
        description: impl Into<String>,
        transformation: impl FnOnce(&mut Netlist) -> Result<T>,
    ) -> Result<T> {
        let snapshot = self.current.clone();
        match transformation(&mut self.current) {
            Ok(value) => {
                let entry = HistoryEntry { description: description.into() };
                self.undo_stack.push((snapshot, entry.clone()));
                self.applied.push(entry);
                self.redo_stack.clear();
                Ok(value)
            }
            Err(error) => {
                self.current = snapshot;
                Err(error)
            }
        }
    }

    /// Undoes the most recent transformation.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::HistoryEmpty`] when there is nothing to undo.
    pub fn undo(&mut self) -> Result<HistoryEntry> {
        let (previous, entry) = self.undo_stack.pop().ok_or(CoreError::HistoryEmpty)?;
        let redone_state = std::mem::replace(&mut self.current, previous);
        self.redo_stack.push((redone_state, entry.clone()));
        self.applied.pop();
        Ok(entry)
    }

    /// Re-applies the most recently undone transformation.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::HistoryEmpty`] when there is nothing to redo.
    pub fn redo(&mut self) -> Result<HistoryEntry> {
        let (next, entry) = self.redo_stack.pop().ok_or(CoreError::HistoryEmpty)?;
        let undone_state = std::mem::replace(&mut self.current, next);
        self.undo_stack.push((undone_state, entry.clone()));
        self.applied.push(entry.clone());
        Ok(entry)
    }

    /// Number of transformations that can currently be undone.
    pub fn undo_depth(&self) -> usize {
        self.undo_stack.len()
    }

    /// Number of transformations that can currently be redone.
    pub fn redo_depth(&self) -> usize {
        self.redo_stack.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::Port;
    use crate::kind::{SinkSpec, SourceSpec};
    use crate::op::Op;

    fn pipeline() -> Netlist {
        let mut n = Netlist::new("pipe");
        let src = n.add_source("src", SourceSpec::always());
        let f = n.add_op("f", Op::Inc);
        let sink = n.add_sink("sink", SinkSpec::always_ready());
        n.connect(Port::output(src, 0), Port::input(f, 0), 8).unwrap();
        n.connect(Port::output(f, 0), Port::input(sink, 0), 8).unwrap();
        n
    }

    #[test]
    fn apply_records_history_and_mutates() {
        let mut t = Transformer::new(pipeline());
        let before = t.netlist().node_count();
        let channel = t.netlist().live_channels().next().unwrap().id;
        t.apply("insert bubble", |n| insert_bubble(n, channel)).unwrap();
        assert_eq!(t.netlist().node_count(), before + 1);
        assert_eq!(t.history().len(), 1);
        assert_eq!(t.undo_depth(), 1);
    }

    #[test]
    fn failed_transformations_roll_back() {
        let mut t = Transformer::new(pipeline());
        let before = t.netlist().clone();
        let bogus = crate::ChannelId::new(999);
        let result = t.apply("bogus", |n| insert_bubble(n, bogus));
        assert!(result.is_err());
        assert_eq!(t.netlist(), &before);
        assert!(t.history().is_empty());
    }

    #[test]
    fn undo_and_redo_round_trip() {
        let mut t = Transformer::new(pipeline());
        let original = t.netlist().clone();
        let channel = t.netlist().live_channels().next().unwrap().id;
        t.apply("insert bubble", |n| insert_bubble(n, channel)).unwrap();
        let transformed = t.netlist().clone();

        t.undo().unwrap();
        assert_eq!(t.netlist(), &original);
        assert_eq!(t.redo_depth(), 1);

        t.redo().unwrap();
        assert_eq!(t.netlist(), &transformed);
        assert_eq!(t.history().len(), 1);

        assert!(matches!(t.redo(), Err(CoreError::HistoryEmpty)));
    }

    #[test]
    fn undo_on_empty_history_fails() {
        let mut t = Transformer::new(pipeline());
        assert!(matches!(t.undo(), Err(CoreError::HistoryEmpty)));
    }

    #[test]
    fn new_transformation_clears_redo() {
        let mut t = Transformer::new(pipeline());
        let channel = t.netlist().live_channels().next().unwrap().id;
        t.apply("insert bubble", |n| insert_bubble(n, channel)).unwrap();
        t.undo().unwrap();
        let channel2 = t.netlist().live_channels().next().unwrap().id;
        t.apply("insert bubble again", |n| insert_bubble(n, channel2)).unwrap();
        assert_eq!(t.redo_depth(), 0);
    }
}
