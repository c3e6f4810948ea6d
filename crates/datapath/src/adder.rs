//! Exact and approximate adders.
//!
//! The variable-latency unit of the paper's Section 5.1 relies on a fast
//! approximation `F_approx` of an exact function `F_exact` together with an
//! error detector `F_err` (obtained automatically in ref \[2\] of the
//! paper). Carry-speculating adders are the canonical instance: the operands
//! are split at a speculation boundary, the carry into the upper part is
//! assumed to be zero, and the error detector fires exactly when that
//! assumption is wrong. The exact adders come in two flavours with identical
//! function but different cost-model figures: a ripple-carry adder and a
//! Kogge-Stone prefix adder (the 64-bit prefix adder of Section 5.2).
//!
//! The ripple-carry and carry-speculating adders model their hardware in
//! cost only: they compute with native addition and masks in constant time,
//! bit-exact against the bit-serial carry loop the tests keep as their
//! oracle.

/// Masks a value to `width` bits (`width <= 64`).
#[inline]
pub fn mask(value: u64, width: u8) -> u64 {
    if width >= 64 {
        value
    } else {
        value & ((1u64 << width) - 1)
    }
}

/// Exact addition of two `width`-bit operands (`width <= 64`), returning a
/// `width + 1`-bit sum (the extra bit is the carry out). A 64-bit sum has no
/// bit for its carry, which is ORed into bit 63.
///
/// This models the ripple-carry adder, and is the reference the prefix
/// adder below is checked against.
pub fn ripple_add(a: u64, b: u64, width: u8) -> u64 {
    if width >= 64 {
        let (sum, carry) = a.overflowing_add(b);
        return sum | (u64::from(carry) << 63);
    }
    mask(a, width) + mask(b, width)
}

/// Exact addition of two `width`-bit operands using a Kogge-Stone parallel
/// prefix network, returning a `width + 1`-bit sum.
///
/// Functionally identical to [`ripple_add`]; the generate/propagate prefix
/// tree mirrors the hardware structure so that the per-level computation (and
/// the logarithmic depth the cost model uses) is explicit.
pub fn kogge_stone_add(a: u64, b: u64, width: u8) -> u64 {
    let a = mask(a, width);
    let b = mask(b, width);
    // Bitwise generate and propagate vectors.
    let mut generate = a & b;
    let mut propagate = a ^ b;
    let sum_bits = propagate;
    // Kogge-Stone prefix: combine (g, p) pairs at distances 1, 2, 4, …
    let mut distance = 1u8;
    while distance < width.max(1) {
        let shifted_g = generate << distance;
        let shifted_p = propagate << distance;
        generate |= propagate & shifted_g;
        propagate &= shifted_p;
        distance = distance.saturating_mul(2);
    }
    // Carry into bit i is the prefix generate of bit i-1.
    let carries = mask(generate << 1, width.saturating_add(1));
    let carry_out = if width == 0 { 0 } else { (generate >> (width - 1)) & 1 };
    mask(sum_bits ^ carries, width) | (carry_out << width.min(63))
}

/// Number of prefix levels of a Kogge-Stone adder of the given width
/// (`ceil(log2(width))`), used by the cost model.
pub fn kogge_stone_levels(width: u8) -> u32 {
    if width <= 1 {
        1
    } else {
        (u32::from(width) - 1).ilog2() + 1
    }
}

/// Approximate (carry-speculating) addition.
///
/// The operands are split at `spec_bits`; the lower parts are added exactly
/// and the carry into the upper part is speculated to be zero. The critical
/// path is therefore `max(spec_bits, width - spec_bits)` ripple positions
/// instead of `width` — roughly half when the boundary sits in the middle.
/// Returns a `width + 1`-bit result that equals [`ripple_add`] exactly when
/// no carry crosses the boundary.
pub fn approx_add(a: u64, b: u64, width: u8, spec_bits: u8) -> u64 {
    if spec_bits >= width {
        // No speculation boundary inside the operand: the adder is exact.
        return ripple_add(a, b, width);
    }
    let a = mask(a, width);
    let b = mask(b, width);
    // `spec_bits < width <= 64`: the low sum fits a word; its carry is the
    // one speculated away.
    let low_sum = mask(mask(a, spec_bits) + mask(b, spec_bits), spec_bits);
    let high = ripple_add(a >> spec_bits, b >> spec_bits, width - spec_bits);
    low_sum | (high << spec_bits)
}

/// Error detector paired with [`approx_add`]: `1` when the approximation
/// differs from the exact sum (i.e. a carry crosses the speculation
/// boundary), `0` otherwise. This is the `F_err` block of Figure 6.
pub fn approx_add_error(a: u64, b: u64, width: u8, spec_bits: u8) -> u64 {
    let spec_bits = spec_bits.min(width);
    if spec_bits == width {
        return 0;
    }
    // The carry out of the low part: bit `spec_bits` (< 64) of its sum.
    ((mask(a, spec_bits) + mask(b, spec_bits)) >> spec_bits) & 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use elastic_core::mix::splitmix64;
    use proptest::prelude::*;

    /// The bit-serial ripple-carry loop the native adders replaced: the
    /// oracle they are pinned against.
    fn ripple_add_bits(a: u64, b: u64, width: u8) -> u64 {
        let a = mask(a, width);
        let b = mask(b, width);
        let mut carry = 0u64;
        let mut sum = 0u64;
        for bit in 0..width {
            let ab = (a >> bit) & 1;
            let bb = (b >> bit) & 1;
            let s = ab ^ bb ^ carry;
            carry = (ab & bb) | (ab & carry) | (bb & carry);
            sum |= s << bit;
        }
        sum | (carry << width.min(63))
    }

    /// [`approx_add`] on the bit-serial oracle.
    fn approx_add_bits(a: u64, b: u64, width: u8, spec_bits: u8) -> u64 {
        if spec_bits >= width {
            return ripple_add_bits(a, b, width);
        }
        let (a, b) = (mask(a, width), mask(b, width));
        let low_sum = mask(ripple_add_bits(a, b, spec_bits), spec_bits);
        let high = ripple_add_bits(a >> spec_bits, b >> spec_bits, width - spec_bits);
        low_sum | (high << spec_bits)
    }

    /// [`approx_add_error`] on the bit-serial oracle.
    fn approx_add_error_bits(a: u64, b: u64, width: u8, spec_bits: u8) -> u64 {
        let spec_bits = spec_bits.min(width);
        if spec_bits == width {
            return 0;
        }
        (ripple_add_bits(mask(a, width), mask(b, width), spec_bits) >> spec_bits) & 1
    }

    #[test]
    fn native_adders_match_the_bit_serial_oracle_at_every_width_and_boundary() {
        // Seeded operands plus the carry-chain corner cases, at every width
        // 0..=64 and every boundary 0..=width + 2 (past the width included).
        let mut operands = vec![(0, 0), (u64::MAX, u64::MAX), (u64::MAX, 1), (1 << 63, 1 << 63)];
        operands.extend((0..24u64).map(|i| (splitmix64(2 * i), splitmix64(2 * i + 1))));
        // Operands whose low bits all propagate, so a carry crosses each
        // boundary.
        operands.extend((0..64).map(|bit| ((1u64 << bit) - 1, 1)));
        for width in 0..=64u8 {
            for &(a, b) in &operands {
                let exact = ripple_add_bits(a, b, width);
                assert_eq!(ripple_add(a, b, width), exact, "ripple width {width} {a:#x}+{b:#x}");
                for spec_bits in 0..=width + 2 {
                    assert_eq!(
                        approx_add(a, b, width, spec_bits),
                        approx_add_bits(a, b, width, spec_bits),
                        "approx width {width} spec {spec_bits} {a:#x}+{b:#x}"
                    );
                    assert_eq!(
                        approx_add_error(a, b, width, spec_bits),
                        approx_add_error_bits(a, b, width, spec_bits),
                        "error width {width} spec {spec_bits} {a:#x}+{b:#x}"
                    );
                }
            }
        }
    }

    #[test]
    fn width_mask_covers_the_edge_widths() {
        assert_eq!(mask(u64::MAX, 0), 0);
        assert_eq!(mask(u64::MAX, 1), 1);
        assert_eq!(mask(u64::MAX, 8), 0xFF);
        assert_eq!(mask(u64::MAX, 63), u64::MAX >> 1);
        assert_eq!(mask(u64::MAX, 64), u64::MAX);
    }

    #[test]
    fn ripple_matches_native_addition() {
        for width in [1u8, 4, 8, 16, 32, 57] {
            for (a, b) in [(0u64, 0u64), (1, 1), (0xFF, 0x01), (u64::MAX, u64::MAX), (12345, 67890)]
            {
                let expected = mask(a, width) as u128 + mask(b, width) as u128;
                assert_eq!(
                    ripple_add(a, b, width) as u128,
                    expected,
                    "width={width} a={a:#x} b={b:#x}"
                );
            }
        }
    }

    #[test]
    fn kogge_stone_matches_ripple_on_corner_cases() {
        for width in [1u8, 2, 7, 8, 16, 32, 57, 64] {
            for (a, b) in [
                (0u64, 0u64),
                (1, 1),
                (mask(u64::MAX, width), 1),
                (mask(u64::MAX, width), mask(u64::MAX, width)),
                (0xDEAD_BEEF, 0x1234_5678),
            ] {
                assert_eq!(
                    kogge_stone_add(a, b, width),
                    ripple_add(a, b, width),
                    "width={width} a={a:#x} b={b:#x}"
                );
            }
        }
    }

    #[test]
    fn approx_add_is_exact_without_boundary_carry() {
        // 0x0F + 0x00 never carries across bit 4.
        assert_eq!(approx_add(0x0F, 0x00, 8, 4), ripple_add(0x0F, 0x00, 8));
        assert_eq!(approx_add_error(0x0F, 0x00, 8, 4), 0);
        // 0x0F + 0x01 carries out of the low nibble: the approximation is wrong.
        assert_ne!(approx_add(0x0F, 0x01, 8, 4), ripple_add(0x0F, 0x01, 8));
        assert_eq!(approx_add_error(0x0F, 0x01, 8, 4), 1);
    }

    #[test]
    fn error_detector_is_sound_and_complete_for_8_bit_operands() {
        // Exhaustive over the full 8-bit operand space.
        for a in 0u64..256 {
            for b in 0u64..256 {
                let err = approx_add_error(a, b, 8, 4);
                let exact = ripple_add(a, b, 8);
                let approx = approx_add(a, b, 8, 4);
                assert_eq!(err == 1, exact != approx, "a={a:#x} b={b:#x}");
            }
        }
    }

    #[test]
    fn prefix_levels_are_logarithmic() {
        assert_eq!(kogge_stone_levels(1), 1);
        assert_eq!(kogge_stone_levels(2), 1);
        assert_eq!(kogge_stone_levels(8), 3);
        assert_eq!(kogge_stone_levels(32), 5);
        assert_eq!(kogge_stone_levels(64), 6);
    }

    #[test]
    fn spec_bits_equal_to_width_never_errs() {
        for a in [0u64, 1, 17, 255] {
            for b in [0u64, 3, 128, 255] {
                assert_eq!(approx_add_error(a, b, 8, 8), 0);
                assert_eq!(approx_add(a, b, 8, 8), ripple_add(a, b, 8));
            }
        }
    }

    proptest! {
        #[test]
        fn kogge_stone_equals_ripple(a in any::<u64>(), b in any::<u64>(), width in 1u8..=64) {
            prop_assert_eq!(kogge_stone_add(a, b, width), ripple_add(a, b, width));
        }

        #[test]
        fn ripple_equals_native(a in any::<u64>(), b in any::<u64>(), width in 1u8..=57) {
            let expected = mask(a, width) + mask(b, width);
            prop_assert_eq!(ripple_add(a, b, width), expected);
        }

        #[test]
        fn approximation_error_exactly_flags_mismatches(
            a in any::<u64>(),
            b in any::<u64>(),
            width in 2u8..=32,
            boundary in 1u8..=31,
        ) {
            let spec_bits = boundary.min(width);
            let exact = ripple_add(a, b, width);
            let approx = approx_add(a, b, width, spec_bits);
            let err = approx_add_error(a, b, width, spec_bits);
            prop_assert_eq!(err == 1, exact != approx);
        }

        #[test]
        fn addition_is_commutative(a in any::<u64>(), b in any::<u64>(), width in 1u8..=64) {
            prop_assert_eq!(kogge_stone_add(a, b, width), kogge_stone_add(b, a, width));
        }
    }
}
