//! Integrity-checked, content-addressed result cache.
//!
//! Results are keyed by [`CacheKey`] — the canonical structural hash of the
//! netlist (see [`crate::hash`]) plus a pipeline discriminant — so two
//! submissions of the *same design* under different node numberings or
//! names share one entry, while the same design pushed through a different
//! pipeline does not.
//!
//! The cache holds opaque serialized payloads, each stored alongside an
//! FNV-1a checksum taken at insertion. Every read re-checksums the payload:
//! a mismatch (bit rot, a buggy writer, the chaos test's fault hook)
//! **evicts the entry and reports a miss**, forcing a recompute — the cache
//! may lose work, but it can never serve a corrupted report as truth.
//!
//! Shards are independently locked and FIFO-bounded; admission never blocks
//! on other shards and memory stays bounded under churn.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use elastic_core::mix::{fnv, splitmix64};

/// Content address of a pipeline result.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// Canonical structural hash of the submitted netlist.
    pub structural: u64,
    /// Discriminant of the pipeline (and its semantically relevant
    /// options) the result came from.
    pub pipeline: u64,
}

impl CacheKey {
    fn shard(self, shards: usize) -> usize {
        // Mix both halves so keys differing only in `pipeline` spread too.
        let mixed = self.structural ^ self.pipeline.rotate_left(32);
        // The structural hash is already uniform, but don't rely on it.
        splitmix64(mixed) as usize % shards
    }
}

#[derive(Debug)]
struct Entry {
    payload: Vec<u8>,
    checksum: u64,
}

#[derive(Debug, Default)]
struct Shard {
    entries: HashMap<CacheKey, Entry>,
    /// Insertion order for FIFO eviction.
    order: VecDeque<CacheKey>,
}

/// Counters exposed by [`ResultCache::stats`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Reads that returned a verified payload.
    pub hits: u64,
    /// Reads that found nothing.
    pub misses: u64,
    /// Entries inserted.
    pub insertions: u64,
    /// Entries displaced by the FIFO capacity bound.
    pub capacity_evictions: u64,
    /// Entries evicted because their checksum no longer matched.
    pub integrity_evictions: u64,
}

/// Result of a full-cache integrity sweep.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CacheAudit {
    /// Entries that verified clean.
    pub clean: usize,
    /// Entries that failed verification (evicted by the sweep).
    pub corrupted: usize,
}

/// Sharded, bounded, checksum-verified result cache.
#[derive(Debug)]
pub struct ResultCache {
    shards: Vec<Mutex<Shard>>,
    capacity_per_shard: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    insertions: AtomicU64,
    capacity_evictions: AtomicU64,
    integrity_evictions: AtomicU64,
}

impl ResultCache {
    /// Creates a cache with `shards` independent locks and room for about
    /// `capacity` entries overall (rounded up to a multiple of the shard
    /// count; both arguments are clamped to at least 1).
    pub fn new(shards: usize, capacity: usize) -> ResultCache {
        let shards = shards.max(1);
        let capacity_per_shard = capacity.max(1).div_ceil(shards);
        ResultCache {
            shards: (0..shards).map(|_| Mutex::new(Shard::default())).collect(),
            capacity_per_shard,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            insertions: AtomicU64::new(0),
            capacity_evictions: AtomicU64::new(0),
            integrity_evictions: AtomicU64::new(0),
        }
    }

    fn shard(&self, key: CacheKey) -> &Mutex<Shard> {
        &self.shards[key.shard(self.shards.len())]
    }

    /// Stores a payload under `key`, checksumming it for later
    /// verification. Replacing an existing entry refreshes its FIFO slot.
    pub fn insert(&self, key: CacheKey, payload: Vec<u8>) {
        let checksum = fnv(&payload);
        let mut shard = self.shard(key).lock().expect("cache shard poisoned");
        if shard.entries.insert(key, Entry { payload, checksum }).is_none() {
            shard.order.push_back(key);
        } else {
            shard.order.retain(|&queued| queued != key);
            shard.order.push_back(key);
        }
        self.insertions.fetch_add(1, Ordering::Relaxed);
        while shard.entries.len() > self.capacity_per_shard {
            let Some(oldest) = shard.order.pop_front() else { break };
            if shard.entries.remove(&oldest).is_some() {
                self.capacity_evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Returns the verified payload for `key`, or `None` on a miss.
    ///
    /// A present-but-corrupt entry is evicted and reported as a miss — the
    /// caller recomputes and re-inserts, which is exactly the recovery path
    /// for silent corruption.
    pub fn get(&self, key: CacheKey) -> Option<Vec<u8>> {
        let mut shard = self.shard(key).lock().expect("cache shard poisoned");
        match shard.entries.get(&key) {
            Some(entry) if fnv(&entry.payload) == entry.checksum => {
                let payload = entry.payload.clone();
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(payload)
            }
            Some(_) => {
                shard.entries.remove(&key);
                shard.order.retain(|&queued| queued != key);
                self.integrity_evictions.fetch_add(1, Ordering::Relaxed);
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Number of entries currently resident.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|shard| shard.lock().expect("cache shard poisoned").entries.len())
            .sum()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of the counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            insertions: self.insertions.load(Ordering::Relaxed),
            capacity_evictions: self.capacity_evictions.load(Ordering::Relaxed),
            integrity_evictions: self.integrity_evictions.load(Ordering::Relaxed),
        }
    }

    /// Re-verifies every resident entry, evicting any that fail. The chaos
    /// acceptance test runs this after a faulted campaign to prove no
    /// corruption survived into the cache.
    pub fn audit(&self) -> CacheAudit {
        let mut audit = CacheAudit::default();
        for shard in &self.shards {
            let mut shard = shard.lock().expect("cache shard poisoned");
            let corrupt: Vec<CacheKey> = shard
                .entries
                .iter()
                .filter(|(_, entry)| fnv(&entry.payload) != entry.checksum)
                .map(|(&key, _)| key)
                .collect();
            audit.clean += shard.entries.len() - corrupt.len();
            for key in corrupt {
                shard.entries.remove(&key);
                shard.order.retain(|&queued| queued != key);
                self.integrity_evictions.fetch_add(1, Ordering::Relaxed);
                audit.corrupted += 1;
            }
        }
        audit
    }

    /// Fault-injection hook: flips one byte of the stored payload for
    /// `key`, returning whether an entry was there to corrupt. Pairs with
    /// the storm/panic self-test hooks from the fault campaign — the tests
    /// use it to prove corruption is *detected and recomputed*, never
    /// served.
    pub fn corrupt_entry(&self, key: CacheKey) -> bool {
        let mut shard = self.shard(key).lock().expect("cache shard poisoned");
        match shard.entries.get_mut(&key) {
            Some(entry) if !entry.payload.is_empty() => {
                let victim = entry.payload.len() / 2;
                entry.payload[victim] ^= 0x01;
                true
            }
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(structural: u64) -> CacheKey {
        CacheKey { structural, pipeline: 1 }
    }

    #[test]
    fn round_trips_and_counts_hits() {
        let cache = ResultCache::new(4, 64);
        cache.insert(key(1), b"report one".to_vec());
        assert_eq!(cache.get(key(1)).as_deref(), Some(&b"report one"[..]));
        assert_eq!(cache.get(key(2)), None);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.insertions), (1, 1, 1));
    }

    #[test]
    fn a_corrupted_entry_is_evicted_not_served() {
        let cache = ResultCache::new(2, 16);
        cache.insert(key(7), vec![1, 2, 3, 4]);
        assert!(cache.corrupt_entry(key(7)));
        assert_eq!(cache.get(key(7)), None, "corrupt payloads must never be served");
        assert_eq!(cache.stats().integrity_evictions, 1);
        assert_eq!(cache.len(), 0, "the corrupt entry must be gone");
        // Recompute path: a fresh insert restores service.
        cache.insert(key(7), vec![1, 2, 3, 4]);
        assert_eq!(cache.get(key(7)), Some(vec![1, 2, 3, 4]));
    }

    #[test]
    fn audit_sweeps_out_corruption_and_counts_the_rest() {
        let cache = ResultCache::new(3, 32);
        for structural in 0..10 {
            cache.insert(key(structural), structural.to_le_bytes().to_vec());
        }
        assert!(cache.corrupt_entry(key(3)));
        assert!(cache.corrupt_entry(key(8)));
        let audit = cache.audit();
        assert_eq!((audit.clean, audit.corrupted), (8, 2));
        // A second sweep finds a clean cache.
        assert_eq!(cache.audit(), CacheAudit { clean: 8, corrupted: 0 });
    }

    #[test]
    fn the_fifo_bound_holds_per_shard() {
        let cache = ResultCache::new(1, 4);
        for structural in 0..12 {
            cache.insert(key(structural), vec![0; 8]);
        }
        assert_eq!(cache.len(), 4);
        assert_eq!(cache.stats().capacity_evictions, 8);
        // The newest entries are the survivors.
        assert!(cache.get(key(11)).is_some());
        assert!(cache.get(key(0)).is_none());
    }

    #[test]
    fn reinsertion_refreshes_the_fifo_slot() {
        let cache = ResultCache::new(1, 2);
        cache.insert(key(1), vec![1]);
        cache.insert(key(2), vec![2]);
        cache.insert(key(1), vec![10]); // refresh: key 2 is now oldest
        cache.insert(key(3), vec![3]);
        assert_eq!(cache.get(key(1)), Some(vec![10]));
        assert!(cache.get(key(2)).is_none(), "key 2 should have aged out");
        assert!(cache.get(key(3)).is_some());
    }
}
