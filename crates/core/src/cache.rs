//! Client-side cache of decoded values with byte-capacity LRU eviction.
//!
//! "The size of the cache influences the amount of cryptographic overheads,
//! since for every metadata or data miss, encrypted data is obtained from
//! the SSP and it is decrypted again" (§V-B). The Postmark figure sweeps
//! this capacity as a percentage of the workload footprint.
//!
//! A slot holds the immutable value a miss decoded from its plaintext (a
//! metadata body, split entry, directory table, manifest, or data block)
//! behind an `Arc`, so a hit costs neither a copy nor a re-parse. Each slot
//! is charged the length of the plaintext it was decoded from: capacity,
//! eviction order, and every hit and miss are those of a cache of
//! plaintext bytes. Lookups and inserts are typed (`get::<DirTable>`):
//! [`Cached`] pairs each value type with its slot variant, and a lookup of
//! another type than the slot holds is a miss. A caller that must change a
//! value clones it.
//!
//! Every lookup and insert stamps its slot from one clock, and a recency
//! index maps stamps back to keys; the least-recently-used slot is the
//! index's first entry, so an insert and each eviction it causes cost
//! O(log n), not a scan of every slot. Writes are staged by the client
//! until close, so the cache holds only clean, decrypted values.

use crate::dirtable::DirTable;
use crate::metadata::MetadataBody;
use crate::scheme::{Manifest, SplitEntry};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// What a cache slot holds.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum CacheKey {
    /// A decrypted metadata body or split entry, by `(inode, view)`.
    Meta(u64, [u8; 16]),
    /// A decrypted directory table, by `(inode, view)`.
    Table(u64, [u8; 16]),
    /// A decrypted data block, by `(inode, generation, block)`.
    Block(u64, u64, u32),
    /// A decrypted manifest, by `(inode, generation)`.
    Manifest(u64, u64),
}

/// A decoded cache value; its variant matches the kind of its key.
#[derive(Clone, Debug)]
pub enum CacheValue {
    /// A metadata body (under a `Meta` key).
    Meta(Arc<MetadataBody>),
    /// A Scheme-2 split-point entry (under the `Meta` key of its split
    /// slot, which lives in the metadata space).
    Split(Arc<SplitEntry>),
    /// A directory-table view (under a `Table` key).
    Table(Arc<DirTable>),
    /// A data manifest (under a `Manifest` key).
    Manifest(Arc<Manifest>),
    /// A data block's plaintext (under a `Block` key).
    Block(Arc<[u8]>),
}

impl CacheValue {
    /// True when this value may sit under `key`.
    fn fits(&self, key: &CacheKey) -> bool {
        matches!(
            (self, key),
            (CacheValue::Meta(_) | CacheValue::Split(_), CacheKey::Meta(..))
                | (CacheValue::Table(_), CacheKey::Table(..))
                | (CacheValue::Manifest(_), CacheKey::Manifest(..))
                | (CacheValue::Block(_), CacheKey::Block(..))
        )
    }
}

/// A type a cache slot can hold: the one place that pairs each value type
/// with its [`CacheValue`] variant.
pub trait Cached {
    /// Wraps a value for a slot.
    fn wrap(value: Arc<Self>) -> CacheValue;
    /// The value a slot holds, when it is of this type.
    fn unwrap(value: &CacheValue) -> Option<&Arc<Self>>;
}

macro_rules! cached {
    ($ty:ty, $variant:ident) => {
        impl Cached for $ty {
            fn wrap(value: Arc<Self>) -> CacheValue {
                CacheValue::$variant(value)
            }
            fn unwrap(value: &CacheValue) -> Option<&Arc<Self>> {
                match value {
                    CacheValue::$variant(v) => Some(v),
                    _ => None,
                }
            }
        }
    };
}

cached!(MetadataBody, Meta);
cached!(SplitEntry, Split);
cached!(DirTable, Table);
cached!(Manifest, Manifest);
cached!([u8], Block);

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
    value: CacheValue,
    /// Length of the plaintext `value` was decoded from.
    charge: u64,
    /// LRU clock stamp; also this slot's key in the recency index.
    stamp: u64,
}

/// Hit/miss statistics: the only count of these facts, read through
/// [`ClientCache::stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found a value.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Values evicted to respect the capacity.
    pub evictions: u64,
}

impl CacheStats {
    /// Component-wise sum.
    pub fn plus(&self, other: &CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits + other.hits,
            misses: self.misses + other.misses,
            evictions: self.evictions + other.evictions,
        }
    }

    /// The counts under their series names.
    pub fn series(&self) -> [(&'static str, u64); 3] {
        [
            ("core_cache_hits_total", self.hits),
            ("core_cache_misses_total", self.misses),
            ("core_cache_evictions_total", self.evictions),
        ]
    }
}

/// Byte-bounded LRU cache of decrypted, decoded values.
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

    /// Looks up a value of type `T`, refreshing its recency. A slot that
    /// holds another type counts as a miss and is left as it is; the
    /// caller's `put` of the decoded value then replaces it.
    pub fn get<T: Cached + ?Sized>(&mut self, key: &CacheKey) -> Option<Arc<T>> {
        self.clock += 1;
        let slot = self.slots.get_mut(key);
        let Some((slot, value)) = slot.and_then(|s| T::unwrap(&s.value).cloned().map(|v| (s, v)))
        else {
            self.stats.misses += 1;
            return None;
        };
        let entry = self.recency.remove(&slot.stamp).expect("indexed slot");
        self.recency.insert(self.clock, entry);
        slot.stamp = self.clock;
        self.stats.hits += 1;
        Some(value)
    }

    /// Peeks without counting a hit/miss or refreshing recency.
    pub fn peek(&self, key: &CacheKey) -> Option<&CacheValue> {
        self.slots.get(key).map(|s| &s.value)
    }

    /// Inserts (or replaces) a value decoded from `plain_len` plaintext
    /// bytes, which is what the slot is charged.
    pub fn put<T: Cached + ?Sized>(&mut self, key: CacheKey, value: Arc<T>, plain_len: usize) {
        let value = T::wrap(value);
        debug_assert!(value.fits(&key), "{value:?} under {key:?}");
        self.clock += 1;
        self.invalidate(&key);
        let charge = plain_len as u64;
        self.bytes += charge;
        self.recency.insert(self.clock, key.clone());
        // A single over-capacity value is still cached (then evicted first
        // on the next insert); capacity bounds steady-state usage.
        self.slots.insert(key, Slot { value, charge, stamp: self.clock });
        self.evict_to_capacity();
    }

    fn evict_to_capacity(&mut self) {
        let Some(cap) = self.capacity else { return };
        while self.bytes > cap && self.slots.len() > 1 {
            let (_, victim) = self.recency.pop_first().expect("index covers every slot");
            let slot = self.slots.remove(&victim).expect("indexed key has a slot");
            self.bytes -= slot.charge;
            self.stats.evictions += 1;
        }
    }

    /// Removes one entry.
    pub fn invalidate(&mut self, key: &CacheKey) {
        if let Some(slot) = self.slots.remove(key) {
            self.recency.remove(&slot.stamp);
            self.bytes -= slot.charge;
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
    use sharoes_fs::NodeKind;

    fn key(i: u64) -> CacheKey {
        CacheKey::Block(i, 0, 0)
    }

    /// Puts a block of `bytes` and returns it.
    fn put_block(c: &mut ClientCache, key: CacheKey, bytes: &[u8]) -> Arc<[u8]> {
        let block: Arc<[u8]> = Arc::from(bytes);
        c.put(key, Arc::clone(&block), bytes.len());
        block
    }

    fn body(inode: u64) -> Arc<MetadataBody> {
        Arc::new(MetadataBody::bare(inode, NodeKind::File, 1, 1, 0o644))
    }

    #[test]
    fn get_put_and_stats() {
        let mut c = ClientCache::new(None);
        assert!(c.get::<[u8]>(&key(1)).is_none());
        let block = put_block(&mut c, key(1), &[1, 2, 3]);
        let hit = c.get::<[u8]>(&key(1)).expect("the block");
        assert!(Arc::ptr_eq(&hit, &block), "a hit shares");
        let s = c.stats();
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 1);
        assert_eq!(c.bytes(), 3);
    }

    #[test]
    fn a_slot_of_another_type_reads_as_a_miss() {
        let mut c = ClientCache::new(None);
        let ck = CacheKey::Meta(1, [0; 16]);
        let meta = body(1);
        c.put(ck.clone(), Arc::clone(&meta), 10);
        assert!(c.get::<SplitEntry>(&ck).is_none());
        assert_eq!((c.stats().hits, c.stats().misses), (0, 1));
        let hit = c.get::<MetadataBody>(&ck).expect("the body");
        assert!(Arc::ptr_eq(&hit, &meta));
        assert_eq!((c.stats().hits, c.stats().misses), (1, 1));
    }

    #[test]
    fn slots_are_charged_their_plaintext_length() {
        let mut c = ClientCache::new(Some(100));
        c.put(CacheKey::Table(1, [0; 16]), Arc::new(DirTable::default()), 60);
        let manifest = Manifest { size: 0, version: 1, nblocks: 0, block_hashes: Vec::new() };
        c.put(CacheKey::Manifest(1, 0), Arc::new(manifest), 30);
        assert_eq!(c.bytes(), 90);
        // The table is least recent: 90 + 20 > 100 evicts it alone.
        put_block(&mut c, key(2), &[0; 20]);
        assert_eq!(c.bytes(), 50);
        assert!(c.peek(&CacheKey::Table(1, [0; 16])).is_none());
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn values_fit_only_their_key_kind() {
        let table = CacheValue::Table(Arc::default());
        assert!(table.fits(&CacheKey::Table(1, [0; 16])));
        assert!(!table.fits(&CacheKey::Meta(1, [0; 16])));
        assert!(CacheValue::Block(Arc::from(&[][..])).fits(&key(1)));
    }

    #[test]
    fn lru_eviction_respects_capacity() {
        let mut c = ClientCache::new(Some(10));
        put_block(&mut c, key(1), &[0; 4]);
        put_block(&mut c, key(2), &[0; 4]);
        // Touch 1 so 2 becomes LRU.
        c.get::<[u8]>(&key(1));
        put_block(&mut c, key(3), &[0; 4]);
        assert!(c.bytes() <= 10);
        assert!(c.peek(&key(1)).is_some());
        assert!(c.peek(&key(2)).is_none(), "LRU entry should be evicted");
        assert!(c.peek(&key(3)).is_some());
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn replace_updates_bytes() {
        let mut c = ClientCache::new(Some(100));
        put_block(&mut c, key(1), &[0; 50]);
        put_block(&mut c, key(1), &[0; 10]);
        assert_eq!(c.bytes(), 10);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn invalidate_inode_clears_related() {
        let mut c = ClientCache::new(None);
        c.put(CacheKey::Meta(5, [0; 16]), body(5), 1);
        c.put(CacheKey::Table(5, [0; 16]), Arc::new(DirTable::default()), 2);
        put_block(&mut c, CacheKey::Block(5, 0, 0), &[3]);
        put_block(&mut c, CacheKey::Block(6, 0, 0), &[4]);
        c.invalidate_inode(5);
        assert_eq!(c.len(), 1);
        assert!(c.peek(&CacheKey::Block(6, 0, 0)).is_some());
    }

    #[test]
    fn clear_resets() {
        let mut c = ClientCache::new(None);
        put_block(&mut c, key(1), &[0; 10]);
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.bytes(), 0);
    }
}
