//! Combinational operations performed by function blocks and shared modules.
//!
//! The netlist model is independent of *how* an operation is evaluated; the
//! `elastic-datapath` crate provides bit-accurate evaluation and the
//! `elastic-analysis` crate provides gate-equivalent area and logic-level
//! delay figures. Here an [`Op`] is only a description.

/// A combinational operation computed by a function block.
///
/// Data on elastic channels is modelled as `u64` words; operations narrower
/// than 64 bits mask their result to the channel width. Multi-operand
/// datapaths (for example the SECDED-protected adder of the paper's Section
/// 5.2) use function blocks with several input ports whose port order matches
/// the operand order documented on each variant.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
#[non_exhaustive]
#[derive(Default)]
pub enum Op {
    /// Pass the single input through unchanged.
    #[default]
    Identity,
    /// Ignore all inputs and produce a constant.
    Const(u64),
    /// Bitwise complement of the single input.
    Not,
    /// Two's-complement negation of the single input.
    Neg,
    /// Sum of all inputs (wrapping).
    Add,
    /// `input0 - input1` (wrapping).
    Sub,
    /// Bitwise AND of all inputs.
    And,
    /// Bitwise OR of all inputs.
    Or,
    /// Bitwise XOR of all inputs.
    Xor,
    /// `input0 << (input1 & 63)`.
    Shl,
    /// `input0 >> (input1 & 63)`.
    Shr,
    /// `input0 + 1` (wrapping).
    Inc,
    /// `input0 - 1` (wrapping).
    Dec,
    /// `1` if `input0 == input1`, else `0`.
    Eq,
    /// `1` if `input0 != input1`, else `0`.
    Ne,
    /// `1` if `input0 < input1` (unsigned), else `0`.
    Lt,
    /// The 8-bit ALU used by the variable-latency experiment (Section 5.1).
    ///
    /// `input0` is the opcode (see `elastic_datapath::alu::AluOpcode`),
    /// `input1` and `input2` are the 8-bit operands.
    Alu8,
    /// Exact ripple-carry adder of the given width: `input0 + input1`.
    RippleAdd {
        /// Operand width in bits.
        width: u8,
    },
    /// Exact Kogge-Stone prefix adder of the given width: `input0 + input1`.
    ///
    /// Functionally identical to [`Op::RippleAdd`]; the two differ only in
    /// the delay/area figures used by the cost model, mirroring the 64-bit
    /// prefix adder of the paper's Section 5.2.
    KoggeStoneAdd {
        /// Operand width in bits.
        width: u8,
    },
    /// Approximate adder that speculates the carry across a boundary.
    ///
    /// The adder splits the operands at bit `spec_bits` and assumes the carry
    /// into the upper part is zero, shortening the critical path. It is the
    /// `F_approx` block of the variable-latency unit (Figure 6).
    ApproxAdd {
        /// Operand width in bits.
        width: u8,
        /// Carry-speculation boundary (bits below it are added exactly).
        spec_bits: u8,
    },
    /// Error detector paired with [`Op::ApproxAdd`]: produces `1` when the
    /// approximate result differs from the exact sum (the `F_err` block of
    /// Figure 6).
    ApproxAddErr {
        /// Operand width in bits.
        width: u8,
        /// Carry-speculation boundary used by the paired approximate adder.
        spec_bits: u8,
    },
    /// Hamming SECDED encoder: `data_width` data bits in, codeword out.
    ///
    /// The paper uses the classic (72,64) code; because elastic channels in
    /// this model carry `u64` words, netlists use data widths up to 57 bits
    /// (57 data + 6 Hamming + 1 overall parity = 64-bit codeword). The full
    /// (72,64) code is implemented and tested in `elastic-datapath`.
    SecdedEncode {
        /// Number of protected data bits (at most 57).
        data_width: u8,
    },
    /// Hamming SECDED decoder/corrector: codeword in, corrected data out
    /// (double errors are reported by [`Op::SecdedSyndrome`]).
    SecdedCorrect {
        /// Number of protected data bits (at most 57).
        data_width: u8,
    },
    /// SECDED syndrome classifier: codeword in, `0` = no error,
    /// `1` = corrected single error, `2` = detected double error.
    SecdedSyndrome {
        /// Number of protected data bits (at most 57).
        data_width: u8,
    },
    /// Select a single bit of the input: `(input0 >> bit) & 1`.
    BitSelect {
        /// Bit position to extract.
        bit: u8,
    },
    /// Mask the input to the lowest `width` bits.
    Mask {
        /// Number of low-order bits to keep.
        width: u8,
    },
    /// Table lookup: `table[input0 % table.len()]`.
    Lut(Vec<u64>),
    /// An opaque block with externally supplied timing/area figures.
    ///
    /// Opaque blocks evaluate as the identity on their first input; they
    /// exist so that exploration can reason about blocks whose function is
    /// irrelevant to the control experiments (the paper's `F` and `G`).
    Opaque {
        /// Human-readable block name.
        name: String,
        /// Combinational delay in logic levels (unit-delay model).
        delay_levels: u32,
        /// Area in gate equivalents.
        area_ge: u32,
    },
}

impl Op {
    /// Short lower-case mnemonic used in reports and traces.
    pub fn mnemonic(&self) -> String {
        match self {
            Op::Identity => "id".into(),
            Op::Const(value) => format!("const{value}"),
            Op::Not => "not".into(),
            Op::Neg => "neg".into(),
            Op::Add => "add".into(),
            Op::Sub => "sub".into(),
            Op::And => "and".into(),
            Op::Or => "or".into(),
            Op::Xor => "xor".into(),
            Op::Shl => "shl".into(),
            Op::Shr => "shr".into(),
            Op::Inc => "inc".into(),
            Op::Dec => "dec".into(),
            Op::Eq => "eq".into(),
            Op::Ne => "ne".into(),
            Op::Lt => "lt".into(),
            Op::Alu8 => "alu8".into(),
            Op::RippleAdd { width } => format!("rca{width}"),
            Op::KoggeStoneAdd { width } => format!("ksa{width}"),
            Op::ApproxAdd { width, spec_bits } => format!("axa{width}_{spec_bits}"),
            Op::ApproxAddErr { width, spec_bits } => format!("axe{width}_{spec_bits}"),
            Op::SecdedEncode { data_width } => format!("secded_enc{data_width}"),
            Op::SecdedCorrect { data_width } => format!("secded_cor{data_width}"),
            Op::SecdedSyndrome { data_width } => format!("secded_syn{data_width}"),
            Op::BitSelect { bit } => format!("bit{bit}"),
            Op::Mask { width } => format!("mask{width}"),
            Op::Lut(_) => "lut".into(),
            Op::Opaque { name, .. } => name.to_ascii_lowercase(),
        }
    }

    /// Number of input operands the operation expects, or `None` when any
    /// positive arity is acceptable (e.g. [`Op::Add`] sums all its inputs).
    pub fn arity(&self) -> Option<usize> {
        match self {
            Op::Identity | Op::Not | Op::Neg | Op::Inc | Op::Dec => Some(1),
            Op::Const(_) => None,
            Op::Add | Op::And | Op::Or | Op::Xor => None,
            Op::Sub | Op::Shl | Op::Shr | Op::Eq | Op::Ne | Op::Lt => Some(2),
            Op::Alu8 => Some(3),
            Op::RippleAdd { .. }
            | Op::KoggeStoneAdd { .. }
            | Op::ApproxAdd { .. }
            | Op::ApproxAddErr { .. } => Some(2),
            Op::SecdedEncode { .. } | Op::SecdedCorrect { .. } | Op::SecdedSyndrome { .. } => {
                Some(1)
            }
            Op::BitSelect { .. } | Op::Mask { .. } | Op::Lut(_) => Some(1),
            Op::Opaque { .. } => None,
        }
    }

    /// Natural output width of the operation in bits, when it has one.
    ///
    /// `None` means the output width follows the widest input / channel
    /// declaration (e.g. [`Op::Identity`]).
    pub fn output_width(&self) -> Option<u8> {
        match self {
            Op::Eq | Op::Ne | Op::Lt | Op::BitSelect { .. } | Op::ApproxAddErr { .. } => Some(1),
            Op::Alu8 => Some(8),
            Op::RippleAdd { width } | Op::KoggeStoneAdd { width } | Op::ApproxAdd { width, .. } => {
                Some(width.saturating_add(1).min(64))
            }
            Op::SecdedEncode { data_width } => Some(secded_codeword_width(*data_width)),
            Op::SecdedCorrect { data_width } => Some(*data_width),
            Op::SecdedSyndrome { .. } => Some(2),
            Op::Mask { width } => Some(*width),
            _ => None,
        }
    }

    /// `true` when the operation is a pure identity on its first input and
    /// therefore transparent to datapath equivalence checks.
    pub fn is_identity_like(&self) -> bool {
        matches!(self, Op::Identity | Op::Opaque { .. })
    }

    /// `true` when all-zero operands provably produce a zero result.
    ///
    /// This is the static side condition that makes elastic-buffer retiming
    /// sound for buffers holding *data-carrying* initial tokens: moving a
    /// buffer across a block replaces `op(init_value, …)` in the output
    /// stream by the raw `init_value`, which only preserves transfer
    /// equivalence when the two coincide. The transform layer restricts
    /// token-carrying retiming to `init_value == 0` and zero-preserving
    /// blocks (found by the `elastic-gen` differential fuzzer, which caught
    /// `retime_forward` emitting a buffer's raw init value through an
    /// arbitrary block). The classification is conservative: operations
    /// whose zero behaviour is not locally obvious answer `false`.
    pub fn preserves_zero(&self) -> bool {
        match self {
            Op::Identity
            | Op::Neg
            | Op::Add
            | Op::Sub
            | Op::And
            | Op::Or
            | Op::Xor
            | Op::Shl
            | Op::Shr
            | Op::Ne
            | Op::Lt
            | Op::RippleAdd { .. }
            | Op::KoggeStoneAdd { .. }
            | Op::ApproxAdd { .. }
            | Op::ApproxAddErr { .. }
            | Op::BitSelect { .. }
            | Op::Mask { .. }
            | Op::Opaque { .. } => true,
            Op::Const(value) => *value == 0,
            Op::Lut(table) => table.first().copied() == Some(0),
            // Not(0) = !0, Inc(0) = 1, Dec(0) wraps, Eq(0,0) = 1; SECDED and
            // ALU zero behaviour is not locally obvious — stay conservative.
            _ => false,
        }
    }
}

impl std::fmt::Display for Op {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.mnemonic())
    }
}

/// Width in bits of a Hamming SECDED codeword protecting `data_width` data
/// bits (Hamming parity bits plus one overall parity bit).
///
/// ```
/// assert_eq!(elastic_core::op::secded_codeword_width(57), 64);
/// assert_eq!(elastic_core::op::secded_codeword_width(32), 39);
/// ```
pub const fn secded_codeword_width(data_width: u8) -> u8 {
    data_width + secded_parity_bits(data_width) + 1
}

/// Number of Hamming parity bits a SECDED code needs for `data_width` data
/// bits (the smallest `r` with `2^r ≥ data_width + r + 1`).
pub const fn secded_parity_bits(data_width: u8) -> u8 {
    let mut parity = 0u8;
    while (1u64 << parity) < data_width as u64 + parity as u64 + 1 {
        parity += 1;
    }
    parity
}

/// Convenience constructor for opaque blocks with a delay/area budget.
///
/// ```
/// use elastic_core::op::{opaque, Op};
/// let f = opaque("F", 8, 120);
/// assert_eq!(f.mnemonic(), "f");
/// assert!(matches!(f, Op::Opaque { delay_levels: 8, .. }));
/// ```
pub fn opaque(name: &str, delay_levels: u32, area_ge: u32) -> Op {
    Op::Opaque { name: name.to_string(), delay_levels, area_ge }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mnemonics_are_lowercase_and_nonempty() {
        let ops = vec![
            Op::Identity,
            Op::Const(5),
            Op::Add,
            Op::Alu8,
            Op::RippleAdd { width: 8 },
            Op::KoggeStoneAdd { width: 64 },
            Op::ApproxAdd { width: 8, spec_bits: 4 },
            Op::ApproxAddErr { width: 8, spec_bits: 4 },
            Op::SecdedEncode { data_width: 57 },
            Op::SecdedCorrect { data_width: 57 },
            Op::SecdedSyndrome { data_width: 32 },
            Op::Lut(vec![1, 2, 3]),
            opaque("G", 4, 40),
        ];
        for op in ops {
            let m = op.mnemonic();
            assert!(!m.is_empty());
            assert_eq!(m, m.to_ascii_lowercase());
        }
    }

    #[test]
    fn arity_matches_documented_operand_counts() {
        assert_eq!(Op::Identity.arity(), Some(1));
        assert_eq!(Op::Sub.arity(), Some(2));
        assert_eq!(Op::Alu8.arity(), Some(3));
        assert_eq!(Op::Add.arity(), None);
        assert_eq!(Op::SecdedCorrect { data_width: 57 }.arity(), Some(1));
    }

    #[test]
    fn secded_codeword_widths_match_hamming_bounds() {
        assert_eq!(secded_codeword_width(4), 8);
        assert_eq!(secded_codeword_width(8), 13);
        assert_eq!(secded_codeword_width(32), 39);
        assert_eq!(secded_codeword_width(57), 64);
        assert_eq!(secded_parity_bits(57), 6);
        assert_eq!(secded_parity_bits(64), 7, "the (72,64) code");
    }

    #[test]
    fn comparison_ops_are_single_bit() {
        assert_eq!(Op::Eq.output_width(), Some(1));
        assert_eq!(Op::Ne.output_width(), Some(1));
        assert_eq!(Op::ApproxAddErr { width: 8, spec_bits: 4 }.output_width(), Some(1));
    }

    #[test]
    fn opaque_blocks_are_identity_like() {
        assert!(opaque("F", 3, 10).is_identity_like());
        assert!(Op::Identity.is_identity_like());
        assert!(!Op::Add.is_identity_like());
    }

    #[test]
    fn default_is_identity() {
        assert_eq!(Op::default(), Op::Identity);
    }
}
