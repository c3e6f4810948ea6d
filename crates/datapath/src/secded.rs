//! Hamming SECDED (single error correction, double error detection) codes.
//!
//! The paper's Section 5.2 protects a 64-bit datapath with the classic
//! (72,64) Hamming SECDED code: 8 check bits detect and correct any single
//! bit flip and detect (but cannot correct) double flips. This module
//! implements the code parametrically:
//!
//! * [`Secded`] works for any data width up to 57 bits so that the codeword
//!   fits the 64-bit data words carried by elastic channels (57 data + 6
//!   Hamming parity + 1 overall parity = 64);
//! * [`Secded72`] is the full (72,64) code on `u128` codewords, provided for
//!   completeness and tested against the same properties.
//!
//! The layout is *systematic*: data bits occupy the low `k` bits of the
//! codeword, followed by the Hamming parity bits and finally the overall
//! parity bit. A systematic layout lets the speculative design of Figure 7(b)
//! read the (unchecked) data with a plain mask while SECDED verifies the
//! codeword in parallel.

use elastic_core::op::secded_parity_bits;

/// Classification of a received codeword.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Syndrome {
    /// No error detected.
    Clean,
    /// A single-bit error was detected (and is correctable).
    Corrected,
    /// A double-bit error was detected (not correctable).
    DoubleError,
}

impl Syndrome {
    /// Encoding used on elastic channels (`0`, `1`, `2`).
    pub fn to_word(self) -> u64 {
        match self {
            Syndrome::Clean => 0,
            Syndrome::Corrected => 1,
            Syndrome::DoubleError => 2,
        }
    }
}

/// Most Hamming parity bits either code needs: 7 for the (72,64) code, 6
/// for [`Secded`]'s widths up to 57.
const MAX_PARITY: usize = 7;

/// The data bit stored at 1-based Hamming position `position`, or `None`
/// for a parity position (a power of two). Data bits fill the other
/// positions in order, so the data bit at `p` is `p - ⌊log2 p⌋ - 2`.
fn data_bit_at(position: u32) -> Option<u32> {
    (position >= 3 && !position.is_power_of_two()).then(|| position - position.ilog2() - 2)
}

/// Per-parity-bit coverage masks over the data word: bit `j` of
/// `masks[p]` is set when data bit `j` sits at a Hamming position whose
/// bit `p` is set.
const fn coverage_masks(data_width: u32, parity: u32) -> [u64; MAX_PARITY] {
    let mut masks = [0u64; MAX_PARITY];
    let mut position = 3u32;
    let mut data_bit = 0u32;
    while data_bit < data_width {
        if !position.is_power_of_two() {
            let mut p = 0;
            while p < parity {
                if position & (1 << p) != 0 {
                    masks[p as usize] |= 1 << data_bit;
                }
                p += 1;
            }
            data_bit += 1;
        }
        position += 1;
    }
    masks
}

/// Coverage masks of [`Secded`] for every data width `1..=57`, built once at
/// compile time (index 0 is unused).
const SECDED_MASKS: [[u64; MAX_PARITY]; 58] = {
    let mut table = [[0u64; MAX_PARITY]; 58];
    let mut width = 1u8;
    while width <= 57 {
        table[width as usize] = coverage_masks(width as u32, secded_parity_bits(width) as u32);
        width += 1;
    }
    table
};

/// Coverage masks of the (72,64) code.
const SECDED72_MASKS: [u64; MAX_PARITY] = coverage_masks(64, Secded72::PARITY_BITS as u32);

/// Hamming parity bits of `data`: one popcount per coverage mask.
fn hamming_parity(data: u64, masks: &[u64]) -> u64 {
    masks
        .iter()
        .enumerate()
        .fold(0, |word, (p, &mask)| word | (u64::from((data & mask).count_ones() & 1) << p))
}

/// Shared decision of both codes' decoders: the corrected data and the
/// syndrome class, given the raw data bits, the Hamming syndrome and
/// whether the overall parity checks out.
fn correct(data: u64, data_width: u32, syndrome: u64, overall_ok: bool) -> (u64, Syndrome) {
    match (syndrome, overall_ok) {
        (0, true) => (data, Syndrome::Clean),
        // Only the overall parity bit was flipped; the data is intact.
        (0, false) => (data, Syndrome::Corrected),
        // Non-zero Hamming syndrome but overall parity matches: two flips.
        (_, true) => (data, Syndrome::DoubleError),
        // A single-bit error at Hamming position `syndrome`: flip it back if
        // it is a data bit (a parity bit hit leaves the data intact).
        (position, false) => match data_bit_at(position as u32) {
            Some(bit) if bit < data_width => (data ^ (1 << bit), Syndrome::Corrected),
            _ => (data, Syndrome::Corrected),
        },
    }
}

/// A parametric Hamming SECDED code with a systematic layout, for data widths
/// up to 57 bits (codeword up to 64 bits).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Secded {
    data_width: u8,
    parity: u8,
}

impl Secded {
    /// Creates the code for the given data width. The parity coverage masks
    /// are compile-time tables, so construction does no per-width work.
    ///
    /// # Panics
    ///
    /// Panics when `data_width` is zero or larger than 57 (the codeword would
    /// not fit in a 64-bit channel word).
    pub fn new(data_width: u8) -> Self {
        assert!(
            (1..=57).contains(&data_width),
            "SECDED data width must be between 1 and 57 bits, got {data_width}"
        );
        Secded { data_width, parity: secded_parity_bits(data_width) }
    }

    /// Protected data width in bits.
    pub fn data_width(&self) -> u8 {
        self.data_width
    }

    /// Codeword width in bits.
    pub fn codeword_width(&self) -> u8 {
        self.data_width + self.parity + 1
    }

    fn hamming_parity(&self, data: u64) -> u64 {
        hamming_parity(data, &SECDED_MASKS[self.data_width as usize][..self.parity as usize])
    }

    /// Encodes a data word into a codeword (data in the low bits, Hamming
    /// parity above, overall parity in the top bit of the codeword).
    pub fn encode(&self, data: u64) -> u64 {
        let data = data & crate::adder::mask(u64::MAX, self.data_width);
        let parity_word = self.hamming_parity(data);
        let without_overall = data | (parity_word << self.data_width);
        let overall = (without_overall.count_ones() as u64) & 1;
        without_overall | (overall << (self.data_width + self.parity))
    }

    /// Extracts the (uncorrected) data bits of a codeword.
    pub fn raw_data(&self, codeword: u64) -> u64 {
        codeword & crate::adder::mask(u64::MAX, self.data_width)
    }

    /// Decodes a codeword: returns the corrected data and the syndrome
    /// classification.
    pub fn decode(&self, codeword: u64) -> (u64, Syndrome) {
        let data = self.raw_data(codeword);
        let received_parity =
            (codeword >> self.data_width) & crate::adder::mask(u64::MAX, self.parity);
        let received_overall = (codeword >> (self.data_width + self.parity)) & 1;
        let syndrome = received_parity ^ self.hamming_parity(data);
        let without_overall =
            codeword & crate::adder::mask(u64::MAX, self.data_width + self.parity);
        let overall_ok = ((without_overall.count_ones() as u64) & 1) == received_overall;
        correct(data, u32::from(self.data_width), syndrome, overall_ok)
    }

    /// Convenience: corrected data only.
    pub fn correct(&self, codeword: u64) -> u64 {
        self.decode(codeword).0
    }

    /// Convenience: syndrome classification only.
    pub fn classify(&self, codeword: u64) -> Syndrome {
        self.decode(codeword).1
    }
}

/// The classic (72,64) SECDED code on `u128` codewords.
///
/// The elastic channels of this workspace carry 64-bit words, so the netlist
/// experiments use [`Secded`] with narrower data; this type exists to show
/// the full-width code of the paper works identically.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Secded72;

impl Secded72 {
    /// Number of Hamming parity bits (7) — the eighth check bit is the
    /// overall parity.
    pub const PARITY_BITS: u8 = 7;
    /// Codeword width: 64 data + 7 Hamming + 1 overall = 72.
    pub const CODEWORD_WIDTH: u8 = 72;

    /// Encodes 64 data bits into a 72-bit codeword.
    pub fn encode(data: u64) -> u128 {
        let parity = hamming_parity(data, &SECDED72_MASKS) as u128;
        let without_overall = data as u128 | (parity << 64);
        let overall = (without_overall.count_ones() as u128) & 1;
        without_overall | (overall << 71)
    }

    /// Decodes a 72-bit codeword into corrected data and a syndrome class.
    pub fn decode(codeword: u128) -> (u64, Syndrome) {
        let data = codeword as u64;
        let received_parity = ((codeword >> 64) & 0x7F) as u64;
        let received_overall = ((codeword >> 71) & 1) as u64;
        let syndrome = received_parity ^ hamming_parity(data, &SECDED72_MASKS);
        let without_overall = codeword & ((1u128 << 71) - 1);
        let overall_ok = ((without_overall.count_ones() as u64) & 1) == received_overall;
        correct(data, 64, syndrome, overall_ok)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn clean_codewords_round_trip() {
        let code = Secded::new(32);
        for data in [0u64, 1, 0xDEAD_BEEF, 0xFFFF_FFFF, 0x1234_5678] {
            let codeword = code.encode(data);
            let (decoded, syndrome) = code.decode(codeword);
            assert_eq!(decoded, data & 0xFFFF_FFFF);
            assert_eq!(syndrome, Syndrome::Clean);
            assert_eq!(code.raw_data(codeword), data & 0xFFFF_FFFF);
        }
    }

    #[test]
    fn every_single_bit_error_is_corrected_width_32() {
        let code = Secded::new(32);
        let data = 0xCAFE_F00Du64 & 0xFFFF_FFFF;
        let codeword = code.encode(data);
        for bit in 0..code.codeword_width() {
            let corrupted = codeword ^ (1u64 << bit);
            let (decoded, syndrome) = code.decode(corrupted);
            assert_eq!(syndrome, Syndrome::Corrected, "bit {bit}");
            assert_eq!(decoded, data, "bit {bit}");
        }
    }

    #[test]
    fn every_double_bit_error_is_detected_width_16() {
        let code = Secded::new(16);
        let data = 0xA5A5u64;
        let codeword = code.encode(data);
        let width = code.codeword_width();
        for first in 0..width {
            for second in (first + 1)..width {
                let corrupted = codeword ^ (1u64 << first) ^ (1u64 << second);
                let syndrome = code.classify(corrupted);
                assert_eq!(syndrome, Syndrome::DoubleError, "bits {first},{second}");
            }
        }
    }

    #[test]
    fn codeword_widths_match_core_helper() {
        for width in [4u8, 8, 16, 32, 57] {
            assert_eq!(
                Secded::new(width).codeword_width(),
                elastic_core::op::secded_codeword_width(width),
                "width {width}"
            );
        }
        assert_eq!(Secded::new(57).codeword_width(), 64);
        assert_eq!(Secded::new(32).codeword_width(), 39);
    }

    #[test]
    fn full_72_64_code_corrects_single_errors() {
        let data = 0x0123_4567_89AB_CDEFu64;
        let codeword = Secded72::encode(data);
        let (decoded, syndrome) = Secded72::decode(codeword);
        assert_eq!((decoded, syndrome), (data, Syndrome::Clean));
        for bit in 0..Secded72::CODEWORD_WIDTH {
            let corrupted = codeword ^ (1u128 << bit);
            let (decoded, syndrome) = Secded72::decode(corrupted);
            assert_eq!(syndrome, Syndrome::Corrected, "bit {bit}");
            assert_eq!(decoded, data, "bit {bit}");
        }
    }

    #[test]
    fn full_72_64_code_detects_double_errors() {
        let data = 0xFEDC_BA98_7654_3210u64;
        let codeword = Secded72::encode(data);
        for first in [0u8, 13, 40, 63, 64, 70, 71] {
            for second in [5u8, 21, 47, 62, 66, 69] {
                if first == second {
                    continue;
                }
                let corrupted = codeword ^ (1u128 << first) ^ (1u128 << second);
                let (_, syndrome) = Secded72::decode(corrupted);
                assert_eq!(syndrome, Syndrome::DoubleError, "bits {first},{second}");
            }
        }
    }

    #[test]
    fn out_of_range_widths_panic() {
        let result = std::panic::catch_unwind(|| Secded::new(58));
        assert!(result.is_err());
        let result = std::panic::catch_unwind(|| Secded::new(0));
        assert!(result.is_err());
    }

    /// The original scan-based code, kept as the oracle of the mask tables:
    /// every data bit's Hamming position is re-found by linear scan.
    mod oracle {
        use super::super::Syndrome;
        use elastic_core::op::secded_parity_bits;

        fn position_of(data_bit: u32) -> u32 {
            let mut position = 1u32;
            let mut seen = 0u32;
            loop {
                if !position.is_power_of_two() {
                    if seen == data_bit {
                        return position;
                    }
                    seen += 1;
                }
                position += 1;
            }
        }

        fn parity(data: u64, data_width: u32, parity_bits: u32) -> u64 {
            let mut parity_word = 0u64;
            for p in 0..parity_bits {
                let mut parity = 0u64;
                for data_bit in 0..data_width {
                    if position_of(data_bit) & (1 << p) != 0 {
                        parity ^= (data >> data_bit) & 1;
                    }
                }
                parity_word |= parity << p;
            }
            parity_word
        }

        fn decide(data: u64, data_width: u32, syndrome: u64, overall_ok: bool) -> (u64, Syndrome) {
            if syndrome == 0 && overall_ok {
                return (data, Syndrome::Clean);
            }
            if syndrome == 0 {
                return (data, Syndrome::Corrected);
            }
            if overall_ok {
                return (data, Syndrome::DoubleError);
            }
            let position = syndrome as u32;
            if position.is_power_of_two() {
                return (data, Syndrome::Corrected);
            }
            let mut corrected = data;
            for data_bit in 0..data_width {
                if position_of(data_bit) == position {
                    corrected ^= 1 << data_bit;
                    break;
                }
            }
            (corrected, Syndrome::Corrected)
        }

        fn low(bits: u32) -> u64 {
            if bits >= 64 {
                u64::MAX
            } else {
                (1u64 << bits) - 1
            }
        }

        pub fn encode(data_width: u8, data: u64) -> u64 {
            let (w, r) = (u32::from(data_width), u32::from(secded_parity_bits(data_width)));
            let data = data & low(w);
            let without_overall = data | (parity(data, w, r) << w);
            without_overall | (u64::from(without_overall.count_ones() & 1) << (w + r))
        }

        pub fn decode(data_width: u8, codeword: u64) -> (u64, Syndrome) {
            let (w, r) = (u32::from(data_width), u32::from(secded_parity_bits(data_width)));
            let data = codeword & low(w);
            let syndrome = ((codeword >> w) & low(r)) ^ parity(data, w, r);
            let overall_ok =
                u64::from((codeword & low(w + r)).count_ones() & 1) == (codeword >> (w + r)) & 1;
            decide(data, w, syndrome, overall_ok)
        }

        pub fn encode72(data: u64) -> u128 {
            let without_overall = data as u128 | (u128::from(parity(data, 64, 7)) << 64);
            without_overall | (u128::from(without_overall.count_ones() & 1) << 71)
        }

        pub fn decode72(codeword: u128) -> (u64, Syndrome) {
            let data = codeword as u64;
            let syndrome = ((codeword >> 64) & 0x7F) as u64 ^ parity(data, 64, 7);
            let overall_ok = u128::from((codeword & ((1u128 << 71) - 1)).count_ones() & 1)
                == (codeword >> 71) & 1;
            decide(data, 64, syndrome, overall_ok)
        }
    }

    #[test]
    fn mask_tables_match_the_scan_oracle_exhaustively_for_small_widths() {
        for width in 1u8..=10 {
            let code = Secded::new(width);
            let bits = code.codeword_width();
            for data in 0..(1u64 << width) {
                let codeword = code.encode(data);
                assert_eq!(codeword, oracle::encode(width, data), "width {width} data {data:#x}");
                assert_eq!(code.decode(codeword), oracle::decode(width, codeword));
                for first in 0..bits {
                    let single = codeword ^ (1 << first);
                    assert_eq!(
                        code.decode(single),
                        oracle::decode(width, single),
                        "width {width} data {data:#x} flip {first}"
                    );
                    for second in first + 1..bits {
                        let double = single ^ (1 << second);
                        assert_eq!(
                            code.decode(double),
                            oracle::decode(width, double),
                            "width {width} data {data:#x} flips {first},{second}"
                        );
                    }
                }
            }
        }
    }

    proptest! {
        #[test]
        fn encode_decode_round_trips(data in any::<u64>(), width in 1u8..=57) {
            let code = Secded::new(width);
            let masked = data & crate::adder::mask(u64::MAX, width);
            let (decoded, syndrome) = code.decode(code.encode(data));
            prop_assert_eq!(decoded, masked);
            prop_assert_eq!(syndrome, Syndrome::Clean);
        }

        #[test]
        fn single_errors_are_corrected(data in any::<u64>(), width in 2u8..=57, bit in 0u8..64) {
            let code = Secded::new(width);
            let bit = bit % code.codeword_width();
            let codeword = code.encode(data) ^ (1u64 << bit);
            let (decoded, syndrome) = code.decode(codeword);
            prop_assert_eq!(syndrome, Syndrome::Corrected);
            prop_assert_eq!(decoded, data & crate::adder::mask(u64::MAX, width));
        }

        #[test]
        fn mask_tables_match_the_scan_oracle(
            data in any::<u64>(),
            width in 1u8..=57,
            first in 0u8..64,
            second in 0u8..64,
        ) {
            let code = Secded::new(width);
            let codeword = code.encode(data);
            prop_assert_eq!(codeword, oracle::encode(width, data));
            let bits = code.codeword_width();
            for received in [
                codeword,
                codeword ^ (1 << (first % bits)),
                codeword ^ (1 << (first % bits)) ^ (1 << (second % bits)),
            ] {
                prop_assert_eq!(code.decode(received), oracle::decode(width, received));
            }
        }

        #[test]
        fn full_width_masks_match_the_scan_oracle(
            data in any::<u64>(),
            first in 0u8..72,
            second in 0u8..72,
        ) {
            let codeword = Secded72::encode(data);
            prop_assert_eq!(codeword, oracle::encode72(data));
            for received in
                [codeword, codeword ^ (1 << first), codeword ^ (1 << first) ^ (1 << second)]
            {
                prop_assert_eq!(Secded72::decode(received), oracle::decode72(received));
            }
        }

        #[test]
        fn full_width_code_round_trips(data in any::<u64>()) {
            let (decoded, syndrome) = Secded72::decode(Secded72::encode(data));
            prop_assert_eq!(decoded, data);
            prop_assert_eq!(syndrome, Syndrome::Clean);
        }
    }
}
