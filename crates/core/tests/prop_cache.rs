//! Model-based test of the client cache's LRU eviction.
//!
//! The oracle is the straightforward design the recency index replaced: a
//! map of stamped slots whose eviction victim is found by scanning every
//! slot for the minimum stamp. Random get / put / replace / invalidate /
//! `invalidate_inode` / clear sequences at small capacities must evict the
//! same keys, hold the same values and bytes, and count the same hits,
//! misses and evictions, after every step.
//!
//! Slots hold typed, decoded values (metadata bodies, split entries,
//! directory tables, manifests, blocks), each charged the length of its
//! plaintext encoding. A hit must hand back the very `Arc` the latest put
//! stored under that key, never one from a replaced or invalidated slot;
//! a get of another type than the slot holds is a miss that leaves the
//! slot's recency alone.

use sharoes_core::cache::{CacheKey, CacheValue};
use sharoes_core::dirtable::{ChildRef, DirTable};
use sharoes_core::scheme::{Manifest, SplitEntry};
use sharoes_core::{CacheStats, ClientCache, MetadataBody};
use sharoes_crypto::SymKey;
use sharoes_fs::NodeKind;
use sharoes_net::WireWrite;
use sharoes_testkit::prelude::*;
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

/// The scan-based LRU cache, kept as the oracle: `(value, charge, stamp)`
/// per slot.
struct ScanModel {
    slots: HashMap<CacheKey, (CacheValue, u64, u64)>,
    capacity: Option<u64>,
    bytes: u64,
    clock: u64,
    stats: CacheStats,
}

impl ScanModel {
    fn new(capacity: Option<u64>) -> Self {
        ScanModel {
            slots: HashMap::new(),
            capacity,
            bytes: 0,
            clock: 0,
            stats: CacheStats::default(),
        }
    }

    fn get(&mut self, key: &CacheKey, split: bool) -> Option<CacheValue> {
        self.clock += 1;
        match self.slots.get_mut(key).filter(|(value, _, _)| is_wanted(value, split)) {
            Some((value, _, stamp)) => {
                *stamp = self.clock;
                self.stats.hits += 1;
                Some(value.clone())
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Inserts and returns the evicted keys, in eviction order.
    fn put(&mut self, key: CacheKey, value: CacheValue, charge: u64) -> Vec<CacheKey> {
        self.clock += 1;
        self.invalidate(&key);
        self.bytes += charge;
        self.slots.insert(key, (value, charge, self.clock));
        let mut evicted = Vec::new();
        let Some(cap) = self.capacity else { return evicted };
        while self.bytes > cap && self.slots.len() > 1 {
            let victim = self
                .slots
                .iter()
                .min_by_key(|(_, (_, _, stamp))| *stamp)
                .map(|(k, _)| k.clone())
                .expect("non-empty");
            let (_, charge, _) = self.slots.remove(&victim).expect("present");
            self.bytes -= charge;
            self.stats.evictions += 1;
            evicted.push(victim);
        }
        evicted
    }

    fn invalidate(&mut self, key: &CacheKey) {
        if let Some((_, charge, _)) = self.slots.remove(key) {
            self.bytes -= charge;
        }
    }

    fn invalidate_inode(&mut self, inode: u64) {
        let doomed: Vec<CacheKey> =
            self.slots.keys().filter(|k| inode_of(k) == inode).cloned().collect();
        for k in doomed {
            self.invalidate(&k);
        }
    }

    fn clear(&mut self) {
        self.slots.clear();
        self.bytes = 0;
    }
}

/// True when a get for a split entry (`split`) or for another value of
/// the key's kind would take `value`.
fn is_wanted(value: &CacheValue, split: bool) -> bool {
    match value {
        CacheValue::Meta(_) => !split,
        CacheValue::Split(_) => split,
        _ => true,
    }
}

/// The cache's typed get, for a split entry under a `Meta` key when
/// `split`, else for the key kind's one value type.
fn get_value(cache: &mut ClientCache, key: &CacheKey, split: bool) -> Option<CacheValue> {
    match key {
        CacheKey::Meta(..) if split => cache.get::<SplitEntry>(key).map(CacheValue::Split),
        CacheKey::Meta(..) => cache.get::<MetadataBody>(key).map(CacheValue::Meta),
        CacheKey::Table(..) => cache.get(key).map(CacheValue::Table),
        CacheKey::Manifest(..) => cache.get(key).map(CacheValue::Manifest),
        CacheKey::Block(..) => cache.get(key).map(CacheValue::Block),
    }
}

/// The cache's typed put of `value`.
fn put_value(cache: &mut ClientCache, key: CacheKey, value: CacheValue, len: usize) {
    match value {
        CacheValue::Meta(v) => cache.put(key, v, len),
        CacheValue::Split(v) => cache.put(key, v, len),
        CacheValue::Table(v) => cache.put(key, v, len),
        CacheValue::Manifest(v) => cache.put(key, v, len),
        CacheValue::Block(v) => cache.put(key, v, len),
    }
}

/// True when both sides are absent or share one allocation.
fn same(a: Option<&CacheValue>, b: Option<&CacheValue>) -> bool {
    match (a, b) {
        (None, None) => true,
        (Some(CacheValue::Meta(x)), Some(CacheValue::Meta(y))) => Arc::ptr_eq(x, y),
        (Some(CacheValue::Split(x)), Some(CacheValue::Split(y))) => Arc::ptr_eq(x, y),
        (Some(CacheValue::Table(x)), Some(CacheValue::Table(y))) => Arc::ptr_eq(x, y),
        (Some(CacheValue::Manifest(x)), Some(CacheValue::Manifest(y))) => Arc::ptr_eq(x, y),
        (Some(CacheValue::Block(x)), Some(CacheValue::Block(y))) => Arc::ptr_eq(x, y),
        _ => false,
    }
}

/// A decoded value of the kind `key` holds, sized by `size`, and the length
/// of the plaintext it encodes to: what the client charges the slot.
fn value_for(key: &CacheKey, size: usize, split: bool, step: usize) -> (CacheValue, usize) {
    let tag = step as u8;
    match key {
        CacheKey::Meta(..) if split => {
            let entry = SplitEntry {
                view: [tag; 16],
                mek: size.is_multiple_of(2).then_some(SymKey([tag; 16])),
                mvk: None,
            };
            let len = entry.to_wire().len();
            (CacheValue::Split(Arc::new(entry)), len)
        }
        CacheKey::Meta(inode, _) => {
            let mut body = MetadataBody::bare(*inode, NodeKind::File, 1, 1, 0o644);
            body.size = size as u64;
            body.dek = size.is_multiple_of(3).then_some(SymKey([tag; 16]));
            let len = body.to_wire().len();
            (CacheValue::Meta(Arc::new(body)), len)
        }
        CacheKey::Table(..) => {
            let entries: Vec<(String, ChildRef)> = (0..size % 4)
                .map(|i| {
                    let child = ChildRef {
                        inode: i as u64,
                        kind: NodeKind::File,
                        view: [tag; 16],
                        mek: Some(SymKey([i as u8; 16])),
                        mvk: None,
                        split: false,
                    };
                    (format!("e{i}"), child)
                })
                .collect();
            let table = DirTable::full(&entries);
            let len = table.to_wire().len();
            (CacheValue::Table(Arc::new(table)), len)
        }
        CacheKey::Manifest(..) => {
            let nblocks = size % 3;
            let manifest = Manifest {
                size: size as u64,
                version: step as u64,
                nblocks: nblocks as u32,
                block_hashes: vec![[tag; 32]; nblocks],
            };
            let len = manifest.to_wire().len();
            (CacheValue::Manifest(Arc::new(manifest)), len)
        }
        CacheKey::Block(..) => (CacheValue::Block(Arc::from(vec![tag; size])), size),
    }
}

fn inode_of(k: &CacheKey) -> u64 {
    match k {
        CacheKey::Meta(i, _)
        | CacheKey::Table(i, _)
        | CacheKey::Block(i, _, _)
        | CacheKey::Manifest(i, _) => *i,
    }
}

#[derive(Clone, Debug)]
enum Op {
    /// Get a value of the key's kind; the flag asks for a split entry
    /// rather than a metadata body under a `Meta` key.
    Get(CacheKey, bool),
    /// Insert (a replace when the key is present) a value of the key's
    /// kind, sized by the number; the flag picks a split entry over a
    /// metadata body under a `Meta` key.
    Put(CacheKey, usize, bool),
    Invalidate(CacheKey),
    InvalidateInode(u64),
    Clear,
}

/// Every key the ops draw from: few enough that replaces, re-gets and
/// per-inode invalidation hit live entries often.
fn universe() -> Vec<CacheKey> {
    let mut keys = Vec::new();
    for inode in 0..3u64 {
        for v in 0..2u8 {
            keys.push(CacheKey::Meta(inode, [v; 16]));
            keys.push(CacheKey::Table(inode, [v; 16]));
        }
        for generation in 0..2u64 {
            keys.push(CacheKey::Manifest(inode, generation));
            for block in 0..3u32 {
                keys.push(CacheKey::Block(inode, generation, block));
            }
        }
    }
    keys
}

fn ops() -> Gen<Vec<Op>> {
    let keys = universe();
    let op = Gen::from_fn(move |t| {
        let key = keys[t.usize_in(0, keys.len())].clone();
        Ok(match t.usize_in(0, 20) {
            0..=6 => Op::Get(key, t.usize_in(0, 2) == 0),
            7..=15 => Op::Put(key, t.usize_in(0, 24), t.usize_in(0, 2) == 0),
            16 | 17 => Op::Invalidate(key),
            18 => Op::InvalidateInode(t.u64_in(0, 3)),
            _ => Op::Clear,
        })
    });
    gen::vecs(op, 0..160)
}

fn capacities() -> Gen<Option<u64>> {
    Gen::from_fn(|t| Ok(if t.usize_in(0, 8) == 0 { None } else { Some(t.u64_in(0, 400)) }))
}

prop! {
    #![cases(256)]

    fn recency_index_evicts_exactly_like_the_min_stamp_scan(
        capacity in capacities(),
        ops in ops(),
    ) {
        let keys = universe();
        let mut cache = ClientCache::new(capacity);
        let mut model = ScanModel::new(capacity);
        for (step, op) in ops.into_iter().enumerate() {
            let before: BTreeSet<usize> =
                (0..keys.len()).filter(|&i| cache.peek(&keys[i]).is_some()).collect();
            match op.clone() {
                Op::Get(k, split) => {
                    let (got, want) = (get_value(&mut cache, &k, split), model.get(&k, split));
                    prop_assert!(same(got.as_ref(), want.as_ref()), "step {}: {:?}", step, op);
                }
                Op::Put(k, size, split) => {
                    let (value, len) = value_for(&k, size, split, step);
                    let position = |k: &CacheKey| keys.iter().position(|u| u == k).expect("in universe");
                    let want: BTreeSet<usize> =
                        model.put(k.clone(), value.clone(), len as u64).iter().map(position).collect();
                    put_value(&mut cache, k, value, len);
                    let evicted: BTreeSet<usize> =
                        before.into_iter().filter(|&i| cache.peek(&keys[i]).is_none()).collect();
                    prop_assert_eq!(evicted, want, "step {}: evicted keys of {:?}", step, op);
                }
                Op::Invalidate(k) => {
                    cache.invalidate(&k);
                    model.invalidate(&k);
                }
                Op::InvalidateInode(inode) => {
                    cache.invalidate_inode(inode);
                    model.invalidate_inode(inode);
                }
                Op::Clear => {
                    cache.clear();
                    model.clear();
                }
            }
            prop_assert_eq!(cache.stats(), model.stats, "step {}: stats after {:?}", step, op);
            prop_assert_eq!(cache.bytes(), model.bytes, "step {}: bytes after {:?}", step, op);
            prop_assert_eq!(cache.len(), model.slots.len(), "step {}: len after {:?}", step, op);
            for k in &keys {
                prop_assert!(
                    same(cache.peek(k), model.slots.get(k).map(|(v, _, _)| v)),
                    "step {}: slot {:?} after {:?}",
                    step,
                    k,
                    op
                );
            }
        }
    }
}
