//! Client-side plaintext cache with byte-capacity LRU eviction.
//!
//! "The size of the cache influences the amount of cryptographic overheads,
//! since for every metadata or data miss, encrypted data is obtained from
//! the SSP and it is decrypted again" (§V-B). The Postmark figure sweeps
//! this capacity as a percentage of the workload footprint.
//!
//! Every lookup and insert stamps its slot from one clock, and a recency
//! index maps stamps back to keys; the least-recently-used slot is the
//! index's first entry, so an insert and each eviction it causes cost
//! O(log n), not a scan of every slot. Writes are staged by the client
//! until close, so the cache holds only clean, decrypted values.

use sharoes_obs::Counter;
use std::collections::{BTreeMap, HashMap};
use std::sync::OnceLock;

/// Process-wide mirrors of [`CacheStats`] for the metrics exposition.
struct CacheMetrics {
    hits: Counter,
    misses: Counter,
    evictions: Counter,
}

fn cache_metrics() -> &'static CacheMetrics {
    static METRICS: OnceLock<CacheMetrics> = OnceLock::new();
    METRICS.get_or_init(|| CacheMetrics {
        hits: sharoes_obs::counter("core_cache_hits_total"),
        misses: sharoes_obs::counter("core_cache_misses_total"),
        evictions: sharoes_obs::counter("core_cache_evictions_total"),
    })
}

/// What a cache slot holds.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum CacheKey {
    /// A decrypted metadata body, by `(inode, view)`.
    Meta(u64, [u8; 16]),
    /// A decrypted directory table, by `(inode, view)`.
    Table(u64, [u8; 16]),
    /// A decrypted data block, by `(inode, generation, block)`.
    Block(u64, u64, u32),
    /// A decrypted manifest, by `(inode, generation)`.
    Manifest(u64, u64),
}

impl CacheKey {
    fn inode(&self) -> u64 {
        match self {
            CacheKey::Meta(i, _)
            | CacheKey::Table(i, _)
            | CacheKey::Block(i, _, _)
            | CacheKey::Manifest(i, _) => *i,
        }
    }
}

struct Slot {
    value: Vec<u8>,
    /// LRU clock stamp; also this slot's key in the recency index.
    stamp: u64,
}

/// Hit/miss statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found a value.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Values evicted to respect the capacity.
    pub evictions: u64,
}

/// Byte-bounded LRU cache of decrypted values.
pub struct ClientCache {
    slots: HashMap<CacheKey, Slot>,
    /// Stamp -> key for every slot, oldest first. Stamps are unique.
    recency: BTreeMap<u64, CacheKey>,
    capacity: Option<u64>,
    bytes: u64,
    clock: u64,
    stats: CacheStats,
}

impl ClientCache {
    /// A cache holding at most `capacity` bytes (`None` = unbounded).
    pub fn new(capacity: Option<u64>) -> Self {
        ClientCache {
            slots: HashMap::new(),
            recency: BTreeMap::new(),
            capacity,
            bytes: 0,
            clock: 0,
            stats: CacheStats::default(),
        }
    }

    /// Looks up a value, refreshing its recency.
    pub fn get(&mut self, key: &CacheKey) -> Option<Vec<u8>> {
        self.clock += 1;
        match self.slots.get_mut(key) {
            Some(slot) => {
                let entry = self.recency.remove(&slot.stamp).expect("indexed slot");
                self.recency.insert(self.clock, entry);
                slot.stamp = self.clock;
                self.stats.hits += 1;
                cache_metrics().hits.inc();
                Some(slot.value.clone())
            }
            None => {
                self.stats.misses += 1;
                cache_metrics().misses.inc();
                None
            }
        }
    }

    /// Peeks without counting a hit/miss or refreshing recency.
    pub fn peek(&self, key: &CacheKey) -> Option<&Vec<u8>> {
        self.slots.get(key).map(|s| &s.value)
    }

    /// Inserts (or replaces) a value.
    pub fn put(&mut self, key: CacheKey, value: Vec<u8>) {
        self.clock += 1;
        self.invalidate(&key);
        self.bytes += value.len() as u64;
        self.recency.insert(self.clock, key.clone());
        // A single over-capacity value is still cached (then evicted first
        // on the next insert); capacity bounds steady-state usage.
        self.slots.insert(key, Slot { value, stamp: self.clock });
        self.evict_to_capacity();
    }

    fn evict_to_capacity(&mut self) {
        let Some(cap) = self.capacity else { return };
        while self.bytes > cap && self.slots.len() > 1 {
            let (_, victim) = self.recency.pop_first().expect("index covers every slot");
            let slot = self.slots.remove(&victim).expect("indexed key has a slot");
            self.bytes -= slot.value.len() as u64;
            self.stats.evictions += 1;
            cache_metrics().evictions.inc();
        }
    }

    /// Removes one entry.
    pub fn invalidate(&mut self, key: &CacheKey) {
        if let Some(slot) = self.slots.remove(key) {
            self.recency.remove(&slot.stamp);
            self.bytes -= slot.value.len() as u64;
        }
    }

    /// Removes all entries for an inode (metadata change / revocation).
    pub fn invalidate_inode(&mut self, inode: u64) {
        let doomed: Vec<CacheKey> =
            self.slots.keys().filter(|k| k.inode() == inode).cloned().collect();
        for k in doomed {
            self.invalidate(&k);
        }
    }

    /// Current statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Bytes currently cached.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Drops everything (remount).
    pub fn clear(&mut self) {
        self.slots.clear();
        self.recency.clear();
        self.bytes = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(i: u64) -> CacheKey {
        CacheKey::Block(i, 0, 0)
    }

    #[test]
    fn get_put_and_stats() {
        let mut c = ClientCache::new(None);
        assert!(c.get(&key(1)).is_none());
        c.put(key(1), vec![1, 2, 3]);
        assert_eq!(c.get(&key(1)).unwrap(), vec![1, 2, 3]);
        let s = c.stats();
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 1);
        assert_eq!(c.bytes(), 3);
    }

    #[test]
    fn lru_eviction_respects_capacity() {
        let mut c = ClientCache::new(Some(10));
        c.put(key(1), vec![0; 4]);
        c.put(key(2), vec![0; 4]);
        // Touch 1 so 2 becomes LRU.
        c.get(&key(1));
        c.put(key(3), vec![0; 4]);
        assert!(c.bytes() <= 10);
        assert!(c.peek(&key(1)).is_some());
        assert!(c.peek(&key(2)).is_none(), "LRU entry should be evicted");
        assert!(c.peek(&key(3)).is_some());
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn replace_updates_bytes() {
        let mut c = ClientCache::new(Some(100));
        c.put(key(1), vec![0; 50]);
        c.put(key(1), vec![0; 10]);
        assert_eq!(c.bytes(), 10);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn invalidate_inode_clears_related() {
        let mut c = ClientCache::new(None);
        c.put(CacheKey::Meta(5, [0; 16]), vec![1]);
        c.put(CacheKey::Table(5, [0; 16]), vec![2]);
        c.put(CacheKey::Block(5, 0, 0), vec![3]);
        c.put(CacheKey::Block(6, 0, 0), vec![4]);
        c.invalidate_inode(5);
        assert_eq!(c.len(), 1);
        assert!(c.peek(&CacheKey::Block(6, 0, 0)).is_some());
    }

    #[test]
    fn clear_resets() {
        let mut c = ClientCache::new(None);
        c.put(key(1), vec![0; 10]);
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.bytes(), 0);
    }
}
