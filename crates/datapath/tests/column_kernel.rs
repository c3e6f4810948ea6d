//! The column kernel pinned lane by lane against one-lane evaluation.
//!
//! `evaluate_columns` evaluates an operation over 64-lane operand columns
//! in one dispatch; every lane of its result must equal
//! `evaluate(op, that lane's operands).unwrap_or(0)`. Every `Op` variant is
//! covered on seeded random columns, with operand lists shorter than the
//! arity (a zero column) and longer than it, empty lookup tables, masks and
//! bit selects at widths 0, 63 and 64, SECDED at every data width with
//! single and double flips, every ALU opcode and the approximate adders at
//! the edges of `spec_bits`.

use elastic_core::mix::splitmix64;
use elastic_core::op::{opaque, secded_codeword_width};
use elastic_core::Op;
use elastic_datapath::{evaluate, evaluate_columns};

const LANES: usize = 64;

/// A seeded column mixing full-width words, small values (so comparisons
/// see equal operands) and edge words.
fn column(seed: u64) -> Vec<u64> {
    (0..LANES as u64)
        .map(|lane| {
            let word = splitmix64(seed.wrapping_mul(LANES as u64) + lane);
            match word % 4 {
                0 => word >> 60,
                1 => [0, 1, u64::MAX, 1 << 63][(word >> 8) as usize % 4],
                _ => word,
            }
        })
        .collect()
}

/// Asserts that the column kernel equals one-lane `evaluate` in every lane
/// of `operands` (port-major columns).
fn assert_matches_lanes(op: &Op, operands: &[Vec<u64>]) {
    let mut results = vec![0xDEAD; LANES];
    evaluate_columns(op, operands.len(), |port| &operands[port], &mut results);
    for (lane, &result) in results.iter().enumerate() {
        let words: Vec<u64> = operands.iter().map(|column| column[lane]).collect();
        let expected = evaluate(op, &words).unwrap_or(0);
        assert_eq!(result, expected, "{op:?} with {} operand(s), lane {lane}", operands.len());
    }
}

/// Checks `op` with every operand count from 0 to three past its arity.
fn check(op: &Op, seed: u64) {
    for ports in 0..=op.arity().unwrap_or(1) + 3 {
        let operands: Vec<Vec<u64>> =
            (0..ports).map(|port| column(seed ^ splitmix64(port as u64))).collect();
        assert_matches_lanes(op, &operands);
    }
}

#[test]
fn every_op_matches_one_lane_evaluation() {
    let ops = [
        Op::Identity,
        Op::Const(0x1234),
        Op::Not,
        Op::Neg,
        Op::Add,
        Op::Sub,
        Op::And,
        Op::Or,
        Op::Xor,
        Op::Shl,
        Op::Shr,
        Op::Inc,
        Op::Dec,
        Op::Eq,
        Op::Ne,
        Op::Lt,
        Op::Alu8,
        Op::RippleAdd { width: 8 },
        Op::KoggeStoneAdd { width: 32 },
        Op::ApproxAdd { width: 16, spec_bits: 8 },
        Op::ApproxAddErr { width: 16, spec_bits: 8 },
        Op::SecdedEncode { data_width: 32 },
        Op::SecdedCorrect { data_width: 32 },
        Op::SecdedSyndrome { data_width: 32 },
        Op::BitSelect { bit: 5 },
        Op::Mask { width: 12 },
        Op::Lut(vec![7, 8, 9, 10, 11]),
        opaque("F", 4, 40),
    ];
    for (k, op) in ops.iter().enumerate() {
        check(op, k as u64);
    }
}

#[test]
fn short_operand_lists_give_a_zero_column() {
    let operands = [column(1)];
    let mut results = vec![0xDEAD; LANES];
    evaluate_columns(&Op::Sub, 1, |port| &operands[port], &mut results);
    assert_eq!(results, vec![0; LANES]);
    evaluate_columns(&Op::Identity, 0, |port| &operands[port], &mut results);
    assert_eq!(results, vec![0; LANES]);
}

#[test]
fn empty_lookup_tables_and_edge_widths_match() {
    check(&Op::Lut(Vec::new()), 11);
    check(&Op::Lut(vec![3]), 12);
    for width in [0, 1, 63, 64] {
        check(&Op::Mask { width }, 13 + u64::from(width));
        check(&Op::BitSelect { bit: width }, 17 + u64::from(width));
    }
}

#[test]
fn every_alu_opcode_matches() {
    // Opcodes 0–7 and their aliases above 7, with operands wider than 8
    // bits.
    let opcodes: Vec<u64> = (0..LANES as u64).collect();
    for seed in 0..4 {
        assert_matches_lanes(&Op::Alu8, &[opcodes.clone(), column(seed), column(seed + 9)]);
    }
}

#[test]
fn adders_match_at_the_edges_of_their_widths() {
    for width in [0u8, 1, 7, 8, 32, 63, 64] {
        check(&Op::RippleAdd { width }, u64::from(width));
        check(&Op::KoggeStoneAdd { width }, u64::from(width) + 100);
        let spec_edges = [0, 1, width.saturating_sub(1), width, width.saturating_add(1)];
        for spec_bits in spec_edges {
            let seed = u64::from(width) << 8 | u64::from(spec_bits);
            check(&Op::ApproxAdd { width, spec_bits }, seed);
            check(&Op::ApproxAddErr { width, spec_bits }, seed + 1);
        }
    }
}

#[test]
fn secded_matches_at_every_data_width_with_single_and_double_flips() {
    for data_width in 1..=57u8 {
        let encode = Op::SecdedEncode { data_width };
        check(&encode, u64::from(data_width));
        let data = [column(u64::from(data_width) + 500)];
        let mut codewords = vec![0; LANES];
        evaluate_columns(&encode, 1, |port| &data[port], &mut codewords);
        // Lane ℓ flips no bit, one bit or two bits of its codeword.
        let span = u64::from(secded_codeword_width(data_width));
        let received: Vec<u64> = codewords
            .iter()
            .enumerate()
            .map(|(lane, &codeword)| {
                let flip = |k: u64| 1u64 << (splitmix64(lane as u64 * 7 + k) % span);
                match lane % 3 {
                    0 => codeword,
                    1 => codeword ^ flip(1),
                    _ => codeword ^ flip(1) ^ flip(2),
                }
            })
            .collect();
        for op in [Op::SecdedCorrect { data_width }, Op::SecdedSyndrome { data_width }] {
            assert_matches_lanes(&op, std::slice::from_ref(&received));
            check(&op, u64::from(data_width) + 900);
        }
        let mut classes = vec![0; LANES];
        let syndrome = Op::SecdedSyndrome { data_width };
        evaluate_columns(&syndrome, 1, |_| &received, &mut classes);
        for class in 0..3 {
            assert!(classes.contains(&class), "width {data_width}: syndrome class {class} occurs");
        }
    }
}
