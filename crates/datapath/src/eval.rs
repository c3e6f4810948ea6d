//! Bit-accurate evaluation of [`elastic_core::Op`] operations.
//!
//! The netlist model (`elastic-core`) treats operations as opaque
//! descriptions; this module gives each of them its meaning on `u64` channel
//! words, once, in [`evaluate_columns`]: it evaluates an operation lane by
//! lane over operand columns into a result column, matching the operation
//! once per column. The cycle-accurate simulator calls it with one column
//! word per lane of its rail (64 in the lane engine) whenever a function
//! block's, shared module's or variable-latency unit's operands change;
//! [`evaluate`] is the one-lane call of the same code.

use std::fmt;

use elastic_core::Op;

use crate::adder::{approx_add, approx_add_error, kogge_stone_add, mask, ripple_add};
use crate::alu::alu8_word;
use crate::secded::Secded;

/// Errors raised when an operation is evaluated with the wrong operand count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EvalError {
    /// The operation that failed to evaluate.
    pub op: String,
    /// Number of operands supplied.
    pub supplied: usize,
    /// Number of operands required.
    pub required: usize,
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "operation `{}` requires {} operand(s) but was evaluated with {}",
            self.op, self.required, self.supplied
        )
    }
}

impl std::error::Error for EvalError {}

/// The fewest operands `op` evaluates with: its arity, `1` for the
/// variadic operations, `0` for constants and operations this evaluator
/// does not know.
fn required_operands(op: &Op) -> usize {
    match op {
        Op::Const(_) => 0,
        Op::Alu8 => 3,
        Op::Sub
        | Op::Shl
        | Op::Shr
        | Op::Eq
        | Op::Ne
        | Op::Lt
        | Op::RippleAdd { .. }
        | Op::KoggeStoneAdd { .. }
        | Op::ApproxAdd { .. }
        | Op::ApproxAddErr { .. } => 2,
        Op::Identity
        | Op::Not
        | Op::Neg
        | Op::Add
        | Op::And
        | Op::Or
        | Op::Xor
        | Op::Inc
        | Op::Dec
        | Op::SecdedEncode { .. }
        | Op::SecdedCorrect { .. }
        | Op::SecdedSyndrome { .. }
        | Op::BitSelect { .. }
        | Op::Mask { .. }
        | Op::Lut(_)
        | Op::Opaque { .. } => 1,
        _ => 0,
    }
}

/// Evaluates `op` on the given operand words.
///
/// Operands beyond the operation's arity are ignored; missing operands are an
/// error. Results are masked to the operation's natural output width when it
/// has one (e.g. comparison operations return `0`/`1`).
///
/// # Errors
///
/// Returns [`EvalError`] when fewer operands than the operation's arity are
/// supplied.
pub fn evaluate(op: &Op, inputs: &[u64]) -> Result<u64, EvalError> {
    let required = required_operands(op);
    if inputs.len() < required {
        return Err(EvalError { op: op.mnemonic(), supplied: inputs.len(), required });
    }
    let mut result = [0];
    evaluate_columns(op, inputs.len(), |port| std::slice::from_ref(&inputs[port]), &mut result);
    Ok(result[0])
}

/// Evaluates `op` over operand columns into the result column `results`,
/// one lane per word: lane `ℓ` of the result is
/// `evaluate(op, &[column(0)[ℓ], …, column(ports - 1)[ℓ]]).unwrap_or(0)`.
///
/// `column(port)` is operand `port`'s column, at least `results.len()`
/// words long. The operation is matched once; each operation then runs one
/// loop over the lanes, so a 64-lane column costs one dispatch, not 64.
/// Fewer operands than the operation's arity give a zero column.
pub fn evaluate_columns<'a>(
    op: &Op,
    ports: usize,
    column: impl Fn(usize) -> &'a [u64],
    results: &mut [u64],
) {
    if ports < required_operands(op) {
        results.fill(0);
        return;
    }
    let lanes = results.len();
    let operand = |port: usize| &column(port)[..lanes];
    match op {
        // Opaque blocks are timing/area placeholders; functionally they
        // pass their first operand through so transfer-equivalence checks
        // remain meaningful.
        Op::Identity | Op::Opaque { .. } => results.copy_from_slice(operand(0)),
        Op::Const(value) => results.fill(*value),
        Op::Not => unary(results, operand(0), |a| !a),
        Op::Neg => unary(results, operand(0), u64::wrapping_neg),
        Op::Add => fold(results, ports, operand, u64::wrapping_add),
        Op::Sub => binary(results, operand(0), operand(1), u64::wrapping_sub),
        Op::And => fold(results, ports, operand, |a, b| a & b),
        Op::Or => fold(results, ports, operand, |a, b| a | b),
        Op::Xor => fold(results, ports, operand, |a, b| a ^ b),
        Op::Shl => binary(results, operand(0), operand(1), |a, b| a.wrapping_shl((b & 63) as u32)),
        Op::Shr => binary(results, operand(0), operand(1), |a, b| a.wrapping_shr((b & 63) as u32)),
        Op::Inc => unary(results, operand(0), |a| a.wrapping_add(1)),
        Op::Dec => unary(results, operand(0), |a| a.wrapping_sub(1)),
        Op::Eq => binary(results, operand(0), operand(1), |a, b| u64::from(a == b)),
        Op::Ne => binary(results, operand(0), operand(1), |a, b| u64::from(a != b)),
        Op::Lt => binary(results, operand(0), operand(1), |a, b| u64::from(a < b)),
        Op::Alu8 => {
            let (opcode, a, b) = (operand(0), operand(1), operand(2));
            for (((result, &opcode), &a), &b) in results.iter_mut().zip(opcode).zip(a).zip(b) {
                *result = alu8_word(opcode, a, b);
            }
        }
        &Op::RippleAdd { width } => {
            binary(results, operand(0), operand(1), |a, b| ripple_add(a, b, width));
        }
        &Op::KoggeStoneAdd { width } => {
            binary(results, operand(0), operand(1), |a, b| kogge_stone_add(a, b, width));
        }
        &Op::ApproxAdd { width, spec_bits } => {
            binary(results, operand(0), operand(1), |a, b| approx_add(a, b, width, spec_bits));
        }
        &Op::ApproxAddErr { width, spec_bits } => {
            let error = |a, b| approx_add_error(a, b, width, spec_bits);
            binary(results, operand(0), operand(1), error);
        }
        &Op::SecdedEncode { data_width } => {
            let code = Secded::new(data_width);
            unary(results, operand(0), |word| code.encode(word));
        }
        &Op::SecdedCorrect { data_width } => {
            let code = Secded::new(data_width);
            unary(results, operand(0), |word| code.correct(word));
        }
        &Op::SecdedSyndrome { data_width } => {
            let code = Secded::new(data_width);
            unary(results, operand(0), |word| code.classify(word).to_word());
        }
        &Op::BitSelect { bit } => unary(results, operand(0), |a| (a >> (bit & 63)) & 1),
        &Op::Mask { width } => unary(results, operand(0), |a| mask(a, width)),
        Op::Lut(table) if table.is_empty() => results.fill(0),
        Op::Lut(table) => unary(results, operand(0), |a| table[(a as usize) % table.len()]),
        // `Op` is non-exhaustive: future operations default to passing the
        // first operand through (or zero when there is none).
        _ if ports == 0 => results.fill(0),
        _ => results.copy_from_slice(operand(0)),
    }
}

/// `results[ℓ] = f(a[ℓ])`.
#[inline(always)]
fn unary(results: &mut [u64], a: &[u64], f: impl Fn(u64) -> u64) {
    for (result, &a) in results.iter_mut().zip(a) {
        *result = f(a);
    }
}

/// `results[ℓ] = f(a[ℓ], b[ℓ])`.
#[inline(always)]
fn binary(results: &mut [u64], a: &[u64], b: &[u64], f: impl Fn(u64, u64) -> u64) {
    for ((result, &a), &b) in results.iter_mut().zip(a).zip(b) {
        *result = f(a, b);
    }
}

/// Folds the operand columns `0..ports` into `results` with `f`, first
/// column first.
#[inline(always)]
fn fold<'a>(
    results: &mut [u64],
    ports: usize,
    operand: impl Fn(usize) -> &'a [u64],
    f: impl Fn(u64, u64) -> u64,
) {
    results.copy_from_slice(operand(0));
    for port in 1..ports {
        for (result, &b) in results.iter_mut().zip(operand(port)) {
            *result = f(*result, b);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_and_logic_ops_match_native_semantics() {
        assert_eq!(evaluate(&Op::Add, &[1, 2, 3]).unwrap(), 6);
        assert_eq!(evaluate(&Op::Sub, &[5, 7]).unwrap(), u64::MAX - 1);
        assert_eq!(evaluate(&Op::And, &[0xF0, 0xFF]).unwrap(), 0xF0);
        assert_eq!(evaluate(&Op::Or, &[0xF0, 0x0F]).unwrap(), 0xFF);
        assert_eq!(evaluate(&Op::Xor, &[0xFF, 0x0F]).unwrap(), 0xF0);
        assert_eq!(evaluate(&Op::Inc, &[41]).unwrap(), 42);
        assert_eq!(evaluate(&Op::Dec, &[0]).unwrap(), u64::MAX);
        assert_eq!(evaluate(&Op::Eq, &[3, 3]).unwrap(), 1);
        assert_eq!(evaluate(&Op::Ne, &[3, 3]).unwrap(), 0);
        assert_eq!(evaluate(&Op::Lt, &[2, 3]).unwrap(), 1);
        assert_eq!(evaluate(&Op::Const(9), &[]).unwrap(), 9);
        assert_eq!(evaluate(&Op::BitSelect { bit: 4 }, &[0x10]).unwrap(), 1);
        assert_eq!(evaluate(&Op::Mask { width: 4 }, &[0xFF]).unwrap(), 0x0F);
        assert_eq!(evaluate(&Op::Lut(vec![7, 8, 9]), &[4]).unwrap(), 8);
    }

    #[test]
    fn adders_delegate_to_the_datapath_implementations() {
        assert_eq!(evaluate(&Op::RippleAdd { width: 8 }, &[200, 100]).unwrap(), 300);
        assert_eq!(
            evaluate(&Op::KoggeStoneAdd { width: 32 }, &[1 << 31, 1 << 31]).unwrap(),
            1 << 32
        );
        assert_eq!(
            evaluate(&Op::ApproxAddErr { width: 8, spec_bits: 4 }, &[0x0F, 0x01]).unwrap(),
            1
        );
    }

    #[test]
    fn secded_ops_round_trip_through_the_code() {
        let data = 0x1234_5678u64;
        let codeword = evaluate(&Op::SecdedEncode { data_width: 32 }, &[data]).unwrap();
        assert_eq!(evaluate(&Op::SecdedCorrect { data_width: 32 }, &[codeword]).unwrap(), data);
        assert_eq!(evaluate(&Op::SecdedSyndrome { data_width: 32 }, &[codeword]).unwrap(), 0);
        let corrupted = codeword ^ 2;
        assert_eq!(evaluate(&Op::SecdedCorrect { data_width: 32 }, &[corrupted]).unwrap(), data);
        assert_eq!(evaluate(&Op::SecdedSyndrome { data_width: 32 }, &[corrupted]).unwrap(), 1);
    }

    #[test]
    fn opaque_ops_pass_their_first_operand_through() {
        let op = elastic_core::op::opaque("F", 5, 50);
        assert_eq!(evaluate(&op, &[0xAB, 0xCD]).unwrap(), 0xAB);
    }

    #[test]
    fn missing_operands_are_reported() {
        let err = evaluate(&Op::Sub, &[1]).unwrap_err();
        assert_eq!(err.required, 2);
        assert_eq!(err.supplied, 1);
        assert!(err.to_string().contains("sub"));
        assert!(evaluate(&Op::Identity, &[]).is_err());
    }

    #[test]
    fn empty_lut_evaluates_to_zero() {
        assert_eq!(evaluate(&Op::Lut(Vec::new()), &[5]).unwrap(), 0);
    }
}
