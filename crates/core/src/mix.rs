//! Seed mixing and hashing: SplitMix64's output function and FNV-1a.
//!
//! Every seeded stream of the workspace (the generator RNG, the explorer's
//! environment grids, random source data) and every persisted digest (the
//! service's structural hash, cache checksums and journal records) is built
//! from these two functions. Their outputs are part of the reproducibility
//! contract: corpus seeds, cached results and journals written by one build
//! must mean the same thing to the next, so the constants never change.

/// The SplitMix64 increment (the odd integer closest to 2^64 / φ).
pub const SPLITMIX64_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// SplitMix64's output function: the finalizer applied to
/// `x + SPLITMIX64_GAMMA`.
///
/// A SplitMix64 stream with state `s` yields `splitmix64(s)` and then
/// advances `s` by [`SPLITMIX64_GAMMA`]; applied to an arbitrary word, it is
/// a well-mixed, bijective seed expander.
///
/// ```
/// assert_eq!(elastic_core::mix::splitmix64(0), 0xe220_a839_7b1d_cdaf);
/// ```
#[inline]
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(SPLITMIX64_GAMMA);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// A 64-bit FNV-1a accumulator. Unlike `std`'s keyed `DefaultHasher` it has
/// no per-process seed, so its digests are stable across runs, processes
/// and platforms.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    #[inline]
    fn default() -> Self {
        Fnv(FNV_OFFSET)
    }
}

impl Fnv {
    /// Starts a fresh accumulator.
    #[inline]
    pub fn new() -> Self {
        Fnv::default()
    }

    /// Feeds raw bytes.
    #[inline]
    pub fn write(&mut self, bytes: &[u8]) -> &mut Self {
        for &byte in bytes {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
        self
    }

    /// Feeds a little-endian `u64`.
    #[inline]
    pub fn write_u64(&mut self, value: u64) -> &mut Self {
        self.write(&value.to_le_bytes())
    }

    /// Final digest.
    #[inline]
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// FNV-1a digest of a byte string.
#[inline]
pub fn fnv(bytes: &[u8]) -> u64 {
    Fnv::new().write(bytes).finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix64_is_pinned() {
        // Seeds of the generator, the explorer's grids and random source
        // data all run through this function: its outputs must never drift.
        assert_eq!(splitmix64(0), 0xe220_a839_7b1d_cdaf);
        assert_eq!(splitmix64(1), 0x910a_2dec_8902_5cc1);
        assert_eq!(splitmix64(u64::MAX), 0xe4d9_7177_1b65_2c20);
    }

    #[test]
    fn fnv_is_stable() {
        // Journal checksums and cache keys persist across restarts, so the
        // hasher must never drift.
        assert_eq!(fnv(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv(b"elastic"), 0xf788_1ce2_06b8_9ce8);
        assert_eq!(fnv(b"elastic"), Fnv::new().write(b"ela").write(b"stic").finish());
        assert_eq!(Fnv::new().write_u64(7).finish(), fnv(&7u64.to_le_bytes()));
    }
}
