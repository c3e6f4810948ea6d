//! # elastic-datapath
//!
//! Bit-accurate datapath substrates for the *Speculation in Elastic Systems*
//! reproduction. The paper evaluates speculation on two datapaths — an 8-bit
//! variable-latency ALU (Section 5.1) and a 64-bit prefix adder protected by
//! SECDED error correction (Section 5.2). This crate implements those
//! datapaths (and the approximate/error-detecting units they rely on) from
//! scratch, plus the workload generators that drive the experiments:
//!
//! * [`adder`] — ripple-carry and Kogge-Stone prefix adders, the
//!   carry-speculating approximate adder `F_approx` and its error detector
//!   `F_err`;
//! * [`alu`] — the 8-bit ALU used by the variable-latency pipeline;
//! * [`secded`] — parametric Hamming single-error-correction /
//!   double-error-detection codes, including the classic (72,64) code;
//! * [`lfsr`] — deterministic LFSR pseudo-random bit streams;
//! * [`workload`] — reproducible workload generators (operand streams with a
//!   target approximation-error rate, soft-error masks with a target upset
//!   rate, biased select streams);
//! * [`eval`] — the evaluator that gives every [`elastic_core::Op`] its
//!   bit-accurate meaning (used by the `elastic-sim` cycle-accurate
//!   simulator).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod adder;
pub mod alu;
pub mod eval;
pub mod lfsr;
pub mod secded;
pub mod workload;

pub use eval::{evaluate, evaluate_columns, EvalError};
