//! The deterministic generator RNG.
//!
//! A splitmix64 stream ([`elastic_core::mix::splitmix64`]): tiny,
//! dependency-free and — crucially — *stable*. Every generated netlist,
//! every harness decision and every corpus entry is identified by a single
//! `u64` seed, so the stream implementation is part of the reproducibility
//! contract: changing it invalidates the corpus. Do not "improve" the
//! constants.

use elastic_core::mix::{splitmix64, SPLITMIX64_GAMMA};

/// Deterministic splitmix64 generator driving all randomized decisions of
/// this crate.
#[derive(Debug, Clone)]
pub struct GenRng {
    state: u64,
}

impl GenRng {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> Self {
        GenRng { state: seed ^ 0xA076_1D64_78BD_642F }
    }

    /// Next raw 64-bit word.
    pub fn next_u64(&mut self) -> u64 {
        let word = splitmix64(self.state);
        self.state = self.state.wrapping_add(SPLITMIX64_GAMMA);
        word
    }

    /// Uniform value in `[0, bound)`; `bound` must be non-zero.
    pub fn below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0, "below(0) is meaningless");
        ((u128::from(self.next_u64()) * u128::from(bound)) >> 64) as u64
    }

    /// Uniform value in `[lo, hi]` (inclusive).
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        debug_assert!(lo <= hi);
        lo + self.below(hi - lo + 1)
    }

    /// `true` with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        (self.next_u64() as f64 / u64::MAX as f64) < p
    }

    /// Uniform element of a non-empty slice.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len() as u64) as usize]
    }

    /// A derived, independent stream (used to give sub-generators their own
    /// seeds without entangling their consumption order).
    pub fn fork(&mut self) -> GenRng {
        GenRng::new(self.next_u64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_deterministic_per_seed() {
        let a: Vec<u64> = {
            let mut rng = GenRng::new(42);
            (0..8).map(|_| rng.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut rng = GenRng::new(42);
            (0..8).map(|_| rng.next_u64()).collect()
        };
        assert_eq!(a, b);
        let c: Vec<u64> = {
            let mut rng = GenRng::new(43);
            (0..8).map(|_| rng.next_u64()).collect()
        };
        assert_ne!(a, c);
    }

    #[test]
    fn the_stream_is_pinned() {
        // Corpus seeds and every generated design depend on this stream.
        let mut rng = GenRng::new(42);
        let words: Vec<u64> = (0..8).map(|_| rng.next_u64()).collect();
        assert_eq!(
            words,
            [
                0xc549_d6f3_8899_c014,
                0x5f23_c636_d928_e9ee,
                0x547e_9ffe_cd78_62e9,
                0x5092_108d_ce7c_238b,
                0xa0fb_1639_d6c3_4abd,
                0x5cbf_db60_577a_f709,
                0xf369_3964_72f1_e91f,
                0x8cee_b6b7_a1f6_9eda,
            ]
        );
    }

    #[test]
    fn below_and_range_stay_in_bounds() {
        let mut rng = GenRng::new(7);
        for _ in 0..1000 {
            assert!(rng.below(13) < 13);
            let value = rng.range(3, 9);
            assert!((3..=9).contains(&value));
        }
    }

    #[test]
    fn chance_is_roughly_calibrated() {
        let mut rng = GenRng::new(11);
        let hits = (0..10_000).filter(|_| rng.chance(0.3)).count();
        assert!((2_500..3_500).contains(&hits), "{hits} hits for p=0.3");
    }

    #[test]
    fn forked_streams_are_independent() {
        let mut rng = GenRng::new(5);
        let mut forked = rng.fork();
        let from_fork: Vec<u64> = (0..4).map(|_| forked.next_u64()).collect();
        let from_main: Vec<u64> = (0..4).map(|_| rng.next_u64()).collect();
        assert_ne!(from_fork, from_main);
    }
}
