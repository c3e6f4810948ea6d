//! # elastic-predict
//!
//! Prediction policies (*schedulers*) for speculative shared modules.
//!
//! Section 4.1.1 of *Speculation in Elastic Systems* leaves the prediction
//! strategy open: "the scheduler can implement prediction algorithms of
//! different complexity, from always predicting one of the channels to more
//! advanced algorithms such as the state-of-the-art branch prediction in
//! modern micro-processors". This crate provides that spectrum:
//!
//! | policy | type | paper analogue |
//! |---|---|---|
//! | always the same channel | [`elastic_core::scheduler::StaticScheduler`] | "always predicting one of the channels" |
//! | rotate fairly | [`RoundRobinScheduler`] | non-speculative sharing baseline |
//! | last outcome | [`LastTakenScheduler`] | 1-bit branch predictor |
//! | two-bit saturating counter | [`TwoBitScheduler`] | classic bimodal predictor |
//! | global-history indexed | [`CorrelatingScheduler`] | gshare-style predictor |
//! | fixed sequence | [`SequenceScheduler`] | the `Sched` row of Table 1 |
//! | error-driven replay | [`ErrorReplayScheduler`] | Sections 5.1 / 5.2 ("listen to the outcome of the SECDED unit") |
//! | confidence-throttled run-ahead | [`ConfidenceScheduler`] | adaptive run-ahead throttling with hedged mispredict recovery |
//! | adversarial random | [`elastic_core::scheduler::RandomScheduler`] | verification fuzzing (leads-to is enforced by the controller) |
//!
//! All schedulers implement [`elastic_core::Scheduler`]; [`from_kind`] builds
//! the policy named by a netlist's [`elastic_core::SchedulerKind`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod policies;

pub use policies::{
    from_kind, ConfidenceScheduler, CorrelatingScheduler, ErrorReplayScheduler, LastTakenScheduler,
    RoundRobinScheduler, SequenceScheduler, TwoBitScheduler,
};
