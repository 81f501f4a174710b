//! Model-based test of the client cache's LRU eviction.
//!
//! The oracle is the straightforward design the recency index replaced: a
//! map of stamped slots whose eviction victim is found by scanning every
//! slot for the minimum stamp. Random get / put / replace / invalidate /
//! `invalidate_inode` / clear sequences at small capacities must evict the
//! same keys, hold the same values and bytes, and count the same hits,
//! misses and evictions, after every step.

use sharoes_core::cache::CacheKey;
use sharoes_core::{CacheStats, ClientCache};
use sharoes_testkit::prelude::*;
use std::collections::{BTreeSet, HashMap};

/// The scan-based LRU cache, kept as the oracle.
struct ScanModel {
    slots: HashMap<CacheKey, (Vec<u8>, u64)>,
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

    fn get(&mut self, key: &CacheKey) -> Option<Vec<u8>> {
        self.clock += 1;
        match self.slots.get_mut(key) {
            Some((value, stamp)) => {
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
    fn put(&mut self, key: CacheKey, value: Vec<u8>) -> Vec<CacheKey> {
        self.clock += 1;
        self.invalidate(&key);
        self.bytes += value.len() as u64;
        self.slots.insert(key, (value, self.clock));
        let mut evicted = Vec::new();
        let Some(cap) = self.capacity else { return evicted };
        while self.bytes > cap && self.slots.len() > 1 {
            let victim = self
                .slots
                .iter()
                .min_by_key(|(_, (_, stamp))| *stamp)
                .map(|(k, _)| k.clone())
                .expect("non-empty");
            let (value, _) = self.slots.remove(&victim).expect("present");
            self.bytes -= value.len() as u64;
            self.stats.evictions += 1;
            evicted.push(victim);
        }
        evicted
    }

    fn invalidate(&mut self, key: &CacheKey) {
        if let Some((value, _)) = self.slots.remove(key) {
            self.bytes -= value.len() as u64;
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
    Get(CacheKey),
    /// Insert (a replace when the key is present) a value of this length.
    Put(CacheKey, usize),
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
            0..=6 => Op::Get(key),
            7..=15 => Op::Put(key, t.usize_in(0, 24)),
            16 | 17 => Op::Invalidate(key),
            18 => Op::InvalidateInode(t.u64_in(0, 3)),
            _ => Op::Clear,
        })
    });
    gen::vecs(op, 0..160)
}

fn capacities() -> Gen<Option<u64>> {
    Gen::from_fn(|t| Ok(if t.usize_in(0, 8) == 0 { None } else { Some(t.u64_in(0, 80)) }))
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
                Op::Get(k) => prop_assert_eq!(cache.get(&k), model.get(&k), "step {}: {:?}", step, op),
                Op::Put(k, len) => {
                    let value = vec![step as u8; len];
                    let position = |k: &CacheKey| keys.iter().position(|u| u == k).expect("in universe");
                    let want: BTreeSet<usize> =
                        model.put(k.clone(), value.clone()).iter().map(position).collect();
                    cache.put(k, value);
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
                prop_assert_eq!(
                    cache.peek(k),
                    model.slots.get(k).map(|(v, _)| v),
                    "step {}: slot {:?} after {:?}",
                    step,
                    k,
                    op
                );
            }
        }
    }
}
