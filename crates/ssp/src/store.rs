//! The SSP's object store: a sharded hashtable of encrypted blobs.
//!
//! Per the paper (§IV): "There is no computation involved on the data at the
//! SSP and it simply maintains a large hashtable for encrypted metadata
//! objects and encrypted data blocks." The store never inspects values; keys
//! are the composite [`ObjectKey`] index.
//!
//! Every value lives in RAM. A store is either a plain memory store
//! ([`ObjectStore::new`]) or a journalled one ([`ObjectStore::open`]), which
//! logs each mutation to the write-ahead journal of [`crate::engine`] before
//! applying it and recovers its table from the journal's checkpoint + WAL on
//! open. Reads never touch the filesystem.

use crate::engine::{lock_timed, EngineConfig, Journal};
use crate::faultfs::Vfs;
use crate::wal::{WalOp, WalRecord};
use sharoes_crypto::Sha256;
use sharoes_index::{MerkleIndex, VerifiedPage};
use sharoes_net::{Cursor, KeySpace, NetError, ObjectKey, WireRead, WireWrite};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Magic + version prefix of the (checksummed) snapshot format.
const SNAPSHOT_MAGIC: &[u8; 8] = b"SHAROES2";

/// Trailer: the body length (u64 BE) followed by SHA-256 of the body.
const TRAILER_LEN: usize = 8 + 32;

/// Default number of lock shards.
pub const DEFAULT_SHARDS: usize = 16;

/// Domain-separation prefix for the shard hash (cf. the cluster ring's
/// `sharoes-ring-vnode` / `sharoes-ring-key` domains).
const SHARD_DOMAIN: &[u8] = b"sharoes-shard-key";

/// Which of `n` lock shards owns `key`.
///
/// The same construction the cluster ring proves out for key placement:
/// SHA-256 over a domain tag plus the key's wire encoding. Stable across
/// Rust versions and processes (unlike `DefaultHasher`), so a shard
/// assignment observed in one run — or one layer — holds everywhere.
pub fn shard_of(key: &ObjectKey, n: usize) -> usize {
    let mut buf = Vec::with_capacity(SHARD_DOMAIN.len() + 29);
    buf.extend_from_slice(SHARD_DOMAIN);
    key.write(&mut buf);
    let digest = Sha256::digest(&buf);
    let mut h = [0u8; 8];
    h.copy_from_slice(&digest[..8]);
    (u64::from_be_bytes(h) % n as u64) as usize
}

/// One lock shard of the table.
#[derive(Default)]
pub(crate) struct Shard {
    pub(crate) values: HashMap<ObjectKey, Vec<u8>>,
    /// Journalled stores only: keys whose live version is a WAL record
    /// rather than a checkpoint entry (decides what superseding it frees).
    pub(crate) logged: HashSet<ObjectKey>,
}

/// What a mutation displaced: the old value's length, and the journal
/// bytes its supersession turns into garbage (the whole WAL record for a
/// logged put, the value for a checkpoint entry).
pub(crate) struct Superseded {
    len: u64,
    pub(crate) dead: u64,
}

impl Shard {
    /// Stores `value`; `logged` says whether it now lives in a WAL record.
    pub(crate) fn insert(
        &mut self,
        key: ObjectKey,
        value: Vec<u8>,
        logged: bool,
    ) -> Option<Superseded> {
        let was_logged = if logged { !self.logged.insert(key) } else { self.logged.remove(&key) };
        let old = self.values.insert(key, value)?;
        Some(Superseded::of(old.len(), was_logged))
    }

    pub(crate) fn remove(&mut self, key: &ObjectKey) -> Option<Superseded> {
        let was_logged = self.logged.remove(key);
        let old = self.values.remove(key)?;
        Some(Superseded::of(old.len(), was_logged))
    }
}

impl Superseded {
    fn of(len: usize, logged: bool) -> Self {
        let dead = if logged { WalRecord::put_len(len) } else { len };
        Superseded { len: len as u64, dead: dead as u64 }
    }
}

/// Sharded, thread-safe blob store, optionally journalled.
///
/// Lock order is global and acyclic: shard locks (whole-table operations
/// take every one, ascending), then the journal's file lock, then — after
/// the file lock is released — the index lock. Every lock recovers from
/// poisoning: a writer panicking mid-operation leaves at worst a torn
/// *logical* record, which is exactly the state recovery handles.
pub struct ObjectStore {
    shards: Vec<RwLock<Shard>>,
    bytes: AtomicU64,
    /// Authenticated ordered index over the stored keys, updated while the
    /// mutating shard's guard is held so it never observes a key set no
    /// shard ever held. An `RwLock` so paged scans (read-only on the index)
    /// never serialize against each other or against readers of other
    /// shards.
    index: RwLock<MerkleIndex>,
    journal: Option<Journal>,
}

impl Default for ObjectStore {
    fn default() -> Self {
        Self::new()
    }
}

impl ObjectStore {
    /// An empty memory store with the default shard count.
    pub fn new() -> Self {
        Self::with_shards(DEFAULT_SHARDS)
    }

    /// An empty memory store with an explicit shard count (at least 1).
    ///
    /// `with_shards(1)` is the single-global-lock configuration the
    /// contention gate uses as its correctness baseline: every workload
    /// must produce byte-identical snapshots against 1 shard and N shards.
    pub fn with_shards(n: usize) -> Self {
        let shards = (0..n.max(1)).map(|_| Shard::default()).collect();
        Self::from_shards(shards, None)
    }

    /// Opens — recovering if necessary — a journalled store over `dir`
    /// (see [`crate::engine`] for the recovery state machine).
    pub fn open(fs: Arc<dyn Vfs>, dir: &Path, config: EngineConfig) -> Result<Self, NetError> {
        let mut shards: Vec<Shard> = (0..DEFAULT_SHARDS).map(|_| Shard::default()).collect();
        let journal = Journal::recover(fs, dir, config, &mut shards)?;
        Ok(Self::from_shards(shards, Some(journal)))
    }

    /// Wraps a populated table. The index is built from scratch over the
    /// key set: history independence makes it equal the tree any sequence
    /// of live mutations would have left (tests/crashpoints.rs asserts
    /// this at every crash point).
    fn from_shards(shards: Vec<Shard>, journal: Option<Journal>) -> Self {
        let index = MerkleIndex::from_keys(shards.iter().flat_map(|s| s.values.keys().copied()));
        let bytes = shards.iter().flat_map(|s| s.values.values()).map(|v| v.len() as u64).sum();
        ObjectStore {
            shards: shards.into_iter().map(RwLock::new).collect(),
            bytes: AtomicU64::new(bytes),
            index: RwLock::new(index),
            journal,
        }
    }

    /// Whether mutations are journalled (the store came from [`Self::open`]).
    pub fn is_journalled(&self) -> bool {
        self.journal.is_some()
    }

    fn shard_read(&self, key: &ObjectKey) -> RwLockReadGuard<'_, Shard> {
        self.shards[shard_of(key, self.shards.len())].read().unwrap_or_else(|e| e.into_inner())
    }

    /// Write-locks `key`'s shard. A journalled store attributes the wait to
    /// the enclosing span's `lock` phase (there the WAL section makes it
    /// material); memory-store spans carry no lock phase.
    fn shard_write(&self, key: &ObjectKey) -> RwLockWriteGuard<'_, Shard> {
        let lock = &self.shards[shard_of(key, self.shards.len())];
        let acquire = || lock.write().unwrap_or_else(|e| e.into_inner());
        if self.journal.is_some() {
            lock_timed(acquire)
        } else {
            acquire()
        }
    }

    /// Every shard, write-locked in ascending shard order.
    fn write_all_shards(&self) -> Vec<RwLockWriteGuard<'_, Shard>> {
        self.shards.iter().map(|s| s.write().unwrap_or_else(|e| e.into_inner())).collect()
    }

    /// Every shard, read-locked in ascending shard order.
    fn read_all_shards(&self) -> Vec<RwLockReadGuard<'_, Shard>> {
        self.shards.iter().map(|s| s.read().unwrap_or_else(|e| e.into_inner())).collect()
    }

    fn index_read(&self) -> RwLockReadGuard<'_, MerkleIndex> {
        self.index.read().unwrap_or_else(|e| e.into_inner())
    }

    fn index_write(&self) -> RwLockWriteGuard<'_, MerkleIndex> {
        self.index.write().unwrap_or_else(|e| e.into_inner())
    }

    /// Applies the accounting for a displaced value.
    fn supersede(&self, old: &Superseded) {
        self.bytes.fetch_sub(old.len, Ordering::Relaxed);
        if let Some(journal) = &self.journal {
            journal.charge(old.dead);
        }
    }

    /// Stores (or replaces) an object.
    ///
    /// A journalled store appends the record while holding the shard lock,
    /// so a concurrent whole-table operation never observes an
    /// appended-but-unapplied record. A failed group fsync still applies
    /// the record (it is logged, just not yet durable) and then surfaces
    /// the error; a retry is idempotent.
    pub fn put(&self, key: ObjectKey, mut value: Vec<u8>) -> Result<(), NetError> {
        value.shrink_to_fit();
        let mut shard = self.shard_write(&key);
        let (value, synced) = match &self.journal {
            None => (value, Ok(())),
            Some(journal) => match journal.log(WalOp::Put { key, value }, true)? {
                (WalOp::Put { value, .. }, synced) => (value, synced),
                (WalOp::Delete { .. }, _) => unreachable!("log returns the op it was given"),
            },
        };
        self.bytes.fetch_add(value.len() as u64, Ordering::Relaxed);
        match shard.insert(key, value, self.journal.is_some()) {
            Some(old) => self.supersede(&old),
            None => {
                self.index_write().insert(key);
            }
        }
        drop(shard);
        synced?;
        self.maybe_compact()
    }

    /// Fetches an object.
    pub fn get(&self, key: &ObjectKey) -> Option<Vec<u8>> {
        self.shard_read(key).values.get(key).cloned()
    }

    /// Deletes one present key; `roll` gates the WAL-roll check (the
    /// `delete_blocks` sweep rolls once at its end instead).
    fn delete_one(&self, key: &ObjectKey, roll: bool) -> Result<bool, NetError> {
        let mut shard = self.shard_write(key);
        if !shard.values.contains_key(key) {
            return Ok(false);
        }
        let synced = match &self.journal {
            None => Ok(()),
            Some(journal) => {
                let (_, synced) = journal.log(WalOp::Delete { key: *key }, roll)?;
                journal.charge(WalRecord::delete_len() as u64);
                synced
            }
        };
        if let Some(old) = shard.remove(key) {
            self.supersede(&old);
            self.index_write().remove(key);
        }
        drop(shard);
        synced?;
        Ok(true)
    }

    /// Deletes an object; returns whether it existed. Deleting an absent
    /// key logs nothing.
    pub fn delete(&self, key: &ObjectKey) -> Result<bool, NetError> {
        if !self.delete_one(key, true)? {
            return Ok(false);
        }
        self.maybe_compact()?;
        Ok(true)
    }

    /// Deletes every data block of `(inode, view)`; returns how many.
    ///
    /// The blocks are one contiguous range of the ordered index, so finding
    /// them is O(log n + k) for k blocks: a walk under the index's read
    /// lock, which is released before the deletes (each of which takes its
    /// shard's lock and then the index's write lock). No shard lock is
    /// taken to find them. One delete per block, in sorted key order (each
    /// atomic and logged on its own): a crash mid-sweep recovers a prefix
    /// of the deletions, which the idempotent caller simply reissues — as
    /// it does for keys inserted concurrently with the sweep, which may
    /// survive it.
    pub fn delete_blocks(&self, inode: u64, view: [u8; 16]) -> Result<usize, NetError> {
        let blocks = ObjectKey::data(inode, view, 0)..=ObjectKey::data(inode, view, u32::MAX);
        let doomed: Vec<ObjectKey> = self.index_read().keys_in(blocks).collect();
        let mut removed = 0;
        for key in &doomed {
            if self.delete_one(key, false)? {
                removed += 1;
            }
        }
        if let Some(journal) = &self.journal {
            journal.roll_if_due()?;
        }
        self.maybe_compact()?;
        Ok(removed)
    }

    /// Threshold-triggered compaction. Peeks the atomics lock-free; only if
    /// they say "due" does it take every shard lock, re-checking under them
    /// (another writer may have compacted while this one waited).
    fn maybe_compact(&self) -> Result<(), NetError> {
        let Some(journal) = &self.journal else { return Ok(()) };
        let due = || journal.compaction_due(self.bytes.load(Ordering::Relaxed));
        if !due() {
            return Ok(());
        }
        let mut shards = self.write_all_shards();
        if !due() {
            return Ok(());
        }
        journal.checkpoint(&mut shards)
    }

    /// Checkpoints and compacts the journal regardless of thresholds (a
    /// no-op on a memory store).
    pub fn compact(&self) -> Result<(), NetError> {
        match &self.journal {
            Some(journal) => journal.checkpoint(&mut self.write_all_shards()),
            None => Ok(()),
        }
    }

    /// Fsyncs any group-commit-buffered appends (a no-op on a memory store).
    pub fn flush(&self) -> Result<(), NetError> {
        self.journal.as_ref().map_or(Ok(()), Journal::flush)
    }

    /// Journal shape for assertions: `(active wal id, active wal bytes,
    /// sealed wal count, checkpoint seq)`; all zero for a memory store.
    pub fn debug_shape(&self) -> (u64, u64, usize, Option<u64>) {
        self.journal.as_ref().map_or((0, 0, 0, None), Journal::shape)
    }

    /// Number of stored objects.
    pub fn object_count(&self) -> u64 {
        self.read_all_shards().iter().map(|s| s.values.len() as u64).sum()
    }

    /// Total stored bytes.
    pub fn byte_count(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }

    /// Serializes the whole store to a `SHAROES2` snapshot byte stream.
    ///
    /// Sorted by key, so equal logical state yields identical bytes: the
    /// snapshot doubles as a state fingerprint, and it is byte-for-byte
    /// what a journal checkpoint of the same state holds.
    pub fn snapshot(&self) -> Vec<u8> {
        let shards = self.read_all_shards();
        let mut out = Vec::with_capacity(64 + self.byte_count() as usize);
        encode_snapshot(&sorted_entries(&shards), &mut |bytes| {
            out.extend_from_slice(bytes);
            Ok(())
        })
        .expect("writing to a Vec cannot fail");
        out
    }

    /// Bytes stored per keyspace (storage-overhead accounting, bench E6).
    ///
    /// A `BTreeMap` so iteration order is deterministic — `HashMap` ordering
    /// has already produced one real bug in this repo (PR 1, `scheme.rs`),
    /// and stats output feeds the determinism tests.
    pub fn bytes_by_space(&self) -> BTreeMap<KeySpace, u64> {
        let mut out = BTreeMap::new();
        for shard in self.read_all_shards() {
            for (key, value) in &shard.values {
                *out.entry(key.space).or_insert(0) += value.len() as u64;
            }
        }
        out
    }

    /// One page of the key index in `ObjectKey` order, strictly after the
    /// `after` cursor. Returns the page and whether the scan is complete.
    ///
    /// This is the cluster rebalancer's view of a node: keys only, never
    /// content, so it reveals nothing the SSP doesn't already index. The
    /// snapshot is not atomic across pages — keys written or deleted between
    /// pages may be missed or duplicated, which rebalancing tolerates
    /// (re-placing a key is idempotent).
    ///
    /// Served from the authenticated index in `O(log n + page)` — the old
    /// collect-every-key-and-sort path ([`Self::scan_keys_flat`]) was
    /// `O(n log n)` *per page* and survives only as a debug oracle.
    pub fn scan_keys(&self, after: Option<&ObjectKey>, limit: usize) -> (Vec<ObjectKey>, bool) {
        self.index_read().scan_page(after, limit)
    }

    /// The old flat scan: collect every live key, sort, slice the page.
    /// Kept as a correctness oracle for the indexed [`Self::scan_keys`]
    /// (tests + bench ablation); not used on any serving path.
    pub fn scan_keys_flat(
        &self,
        after: Option<&ObjectKey>,
        limit: usize,
    ) -> (Vec<ObjectKey>, bool) {
        let mut keys: Vec<ObjectKey> = Vec::new();
        for shard in self.read_all_shards() {
            keys.extend(shard.values.keys().filter(|k| after.is_none_or(|a| *k > a)));
        }
        keys.sort_unstable();
        let done = keys.len() <= limit;
        keys.truncate(limit);
        (keys, done)
    }

    /// Root hash of the authenticated key index plus the live key count.
    pub fn index_root(&self) -> ([u8; 32], u64) {
        let mut index = self.index_write();
        let root = index.root();
        (root, index.len())
    }

    /// Canonical encoding of the index node content-addressed by `hash`,
    /// if this store currently has it (serves the `IndexNode` wire op).
    pub fn index_node_bytes(&self, hash: &[u8; 32]) -> Option<Vec<u8>> {
        self.index_write().node_bytes(hash)
    }

    /// One scan page plus a Merkle range proof tying it to the current
    /// root (serves the `ScanVerified` wire op).
    pub fn scan_proof(&self, after: Option<&ObjectKey>, limit: u32) -> VerifiedPage {
        self.index_write().prove_scan(after, limit)
    }
}

/// Every entry of `shards`, borrowed, in key order.
pub(crate) fn sorted_entries(
    shards: &[impl std::ops::Deref<Target = Shard>],
) -> Vec<(&ObjectKey, &[u8])> {
    let mut entries: Vec<(&ObjectKey, &[u8])> =
        shards.iter().flat_map(|s| s.values.iter().map(|(k, v)| (k, v.as_slice()))).collect();
    entries.sort_unstable_by_key(|e| *e.0);
    entries
}

/// Streams the `SHAROES2` encoding of `entries` (in the given order) to
/// `out`, piece by piece: a body (magic, entry count, entries) followed by
/// a 40-byte trailer holding the body length and the body's SHA-256. A torn
/// write truncates the trailer or leaves a length mismatch; a bit flip
/// breaks the hash — either way [`decode_snapshot`] rejects the bytes
/// instead of restoring silently corrupted state.
pub(crate) fn encode_snapshot(
    entries: &[(&ObjectKey, &[u8])],
    out: &mut dyn FnMut(&[u8]) -> std::io::Result<()>,
) -> std::io::Result<()> {
    let mut sha = Sha256::new();
    let mut body_len = 0u64;
    let mut emit = |bytes: &[u8]| {
        sha.update(bytes);
        body_len += bytes.len() as u64;
        out(bytes)
    };
    let mut head = Vec::with_capacity(64);
    head.extend_from_slice(SNAPSHOT_MAGIC);
    (entries.len() as u64).write(&mut head);
    emit(&head)?;
    for (key, value) in entries {
        head.clear();
        key.write(&mut head);
        (value.len() as u32).write(&mut head);
        emit(&head)?;
        emit(value)?;
    }
    out(&body_len.to_be_bytes())?;
    out(&sha.finalize_array())
}

/// Serializes `entries` (in the given order) into the `SHAROES2` snapshot
/// format — the same bytes [`ObjectStore::snapshot`] and a journal
/// checkpoint emit for the same sorted entries.
pub fn snapshot_from_entries(entries: &[(ObjectKey, Vec<u8>)]) -> Vec<u8> {
    let refs: Vec<(&ObjectKey, &[u8])> = entries.iter().map(|(k, v)| (k, v.as_slice())).collect();
    let mut out = Vec::new();
    encode_snapshot(&refs, &mut |bytes| {
        out.extend_from_slice(bytes);
        Ok(())
    })
    .expect("writing to a Vec cannot fail");
    out
}

/// Verifies a `SHAROES2` snapshot's trailer and decodes its entries.
pub(crate) fn decode_snapshot(bytes: &[u8]) -> Result<Vec<(ObjectKey, Vec<u8>)>, NetError> {
    if !bytes.starts_with(SNAPSHOT_MAGIC) {
        return Err(NetError::Codec("bad snapshot magic"));
    }
    if bytes.len() < 8 + TRAILER_LEN {
        return Err(NetError::Codec("snapshot truncated (no trailer)"));
    }
    let body_end = bytes.len() - TRAILER_LEN;
    let mut len_buf = [0u8; 8];
    len_buf.copy_from_slice(&bytes[body_end..body_end + 8]);
    if u64::from_be_bytes(len_buf) != body_end as u64 {
        return Err(NetError::Codec("snapshot length mismatch (torn write)"));
    }
    if Sha256::digest(&bytes[..body_end]) != bytes[body_end + 8..] {
        return Err(NetError::Codec("snapshot checksum mismatch"));
    }
    let mut cur = Cursor::new(&bytes[8..body_end]);
    let count = u64::read(&mut cur)?;
    let mut entries = Vec::new();
    for _ in 0..count {
        entries.push((ObjectKey::read(&mut cur)?, Vec::<u8>::read(&mut cur)?));
    }
    cur.expect_end()?;
    Ok(entries)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faultfs::FaultFs;

    fn k(inode: u64, block: u32) -> ObjectKey {
        ObjectKey::data(inode, [7; 16], block)
    }

    #[test]
    fn put_get_delete() {
        let s = ObjectStore::new();
        assert!(s.get(&k(1, 0)).is_none());
        s.put(k(1, 0), vec![1, 2, 3]).unwrap();
        assert_eq!(s.get(&k(1, 0)).unwrap(), vec![1, 2, 3]);
        assert!(s.delete(&k(1, 0)).unwrap());
        assert!(!s.delete(&k(1, 0)).unwrap());
        assert!(s.get(&k(1, 0)).is_none());
    }

    #[test]
    fn byte_accounting_on_replace() {
        let s = ObjectStore::new();
        s.put(k(1, 0), vec![0; 100]).unwrap();
        assert_eq!(s.byte_count(), 100);
        s.put(k(1, 0), vec![0; 40]).unwrap();
        assert_eq!(s.byte_count(), 40);
        s.delete(&k(1, 0)).unwrap();
        assert_eq!(s.byte_count(), 0);
    }

    #[test]
    fn delete_blocks_removes_only_matching_view() {
        let s = ObjectStore::new();
        for b in 0..5 {
            s.put(k(9, b), vec![b as u8; 10]).unwrap();
        }
        s.put(ObjectKey::data(9, [8; 16], 0), vec![1]).unwrap(); // other view
        s.put(ObjectKey::metadata(9, [7; 16]), vec![2]).unwrap(); // metadata space
        assert_eq!(s.delete_blocks(9, [7; 16]).unwrap(), 5);
        assert_eq!(s.object_count(), 2);
        assert!(s.get(&ObjectKey::metadata(9, [7; 16])).is_some());
    }

    #[test]
    fn delete_blocks_on_empty_store_and_foreign_views() {
        let s = ObjectStore::new();
        assert_eq!(s.delete_blocks(1, [7; 16]).unwrap(), 0);
        // Only non-matching entries present: nothing removed, bytes intact.
        s.put(ObjectKey::data(1, [8; 16], 0), vec![0; 10]).unwrap(); // other view
        s.put(ObjectKey::data(2, [7; 16], 0), vec![0; 20]).unwrap(); // other inode
        s.put(ObjectKey::metadata(1, [7; 16]), vec![0; 30]).unwrap(); // other space
        assert_eq!(s.delete_blocks(1, [7; 16]).unwrap(), 0);
        assert_eq!(s.object_count(), 3);
        assert_eq!(s.byte_count(), 60);
    }

    #[test]
    fn delete_blocks_updates_byte_accounting() {
        let s = ObjectStore::new();
        for b in 0..4 {
            s.put(k(3, b), vec![0; 25]).unwrap();
        }
        s.put(ObjectKey::metadata(3, [7; 16]), vec![0; 11]).unwrap();
        assert_eq!(s.byte_count(), 111);
        assert_eq!(s.delete_blocks(3, [7; 16]).unwrap(), 4);
        assert_eq!(s.byte_count(), 11);
        // Idempotent: a second sweep finds nothing.
        assert_eq!(s.delete_blocks(3, [7; 16]).unwrap(), 0);
        assert_eq!(s.byte_count(), 11);
    }

    #[test]
    fn scan_keys_pages_in_order() {
        let s = ObjectStore::new();
        // Insert out of order across spaces, inodes, and blocks.
        let mut expect: Vec<ObjectKey> = Vec::new();
        for i in (0..7u64).rev() {
            for b in [2u32, 0, 1] {
                let key = ObjectKey::data(i, [i as u8; 16], b);
                s.put(key, vec![1]).unwrap();
                expect.push(key);
            }
            let key = ObjectKey::metadata(i, [i as u8; 16]);
            s.put(key, vec![2]).unwrap();
            expect.push(key);
        }
        expect.sort_unstable();

        // Full scan in one page.
        let (all, done) = s.scan_keys(None, 1000);
        assert!(done);
        assert_eq!(all, expect);

        // Page through with a small limit; pages concatenate to the full set.
        let mut paged: Vec<ObjectKey> = Vec::new();
        let mut cursor: Option<ObjectKey> = None;
        loop {
            let (page, done) = s.scan_keys(cursor.as_ref(), 5);
            assert!(page.len() <= 5);
            paged.extend_from_slice(&page);
            cursor = page.last().copied();
            if done {
                break;
            }
        }
        assert_eq!(paged, expect);

        // Exact-boundary page: limit == remaining reports done.
        let (page, done) = s.scan_keys(None, expect.len());
        assert_eq!(page.len(), expect.len());
        assert!(done);
        let (page, done) = s.scan_keys(None, expect.len() - 1);
        assert_eq!(page.len(), expect.len() - 1);
        assert!(!done);

        // A cursor past the end yields an empty, done page.
        let (page, done) = s.scan_keys(expect.last(), 5);
        assert!(page.is_empty());
        assert!(done);
    }

    #[test]
    fn indexed_scan_matches_flat_oracle_and_rebuilt_root() {
        let s = ObjectStore::new();
        for i in 0..40u64 {
            s.put(ObjectKey::data(i, [(i % 5) as u8; 16], (i % 3) as u32), vec![1]).unwrap();
            s.put(ObjectKey::metadata(i, [(i % 5) as u8; 16]), vec![2]).unwrap();
        }
        for i in (0..40u64).step_by(3) {
            s.delete(&ObjectKey::metadata(i, [(i % 5) as u8; 16])).unwrap();
        }
        assert!(s.delete_blocks(7, [2; 16]).unwrap() > 0);
        // Pages from the index agree with the flat oracle at every cursor.
        let mut cursor: Option<ObjectKey> = None;
        loop {
            let (page, done) = s.scan_keys(cursor.as_ref(), 7);
            assert_eq!((page.clone(), done), s.scan_keys_flat(cursor.as_ref(), 7));
            cursor = page.last().copied();
            if done {
                break;
            }
        }
        // The incrementally maintained root equals a from-scratch rebuild.
        let (all, done) = s.scan_keys_flat(None, usize::MAX);
        assert!(done);
        let mut rebuilt = MerkleIndex::from_keys(all.iter().copied());
        assert_eq!(s.index_root(), (rebuilt.root(), all.len() as u64));
    }

    #[test]
    fn scan_proofs_verify_against_store_root() {
        let s = ObjectStore::new();
        for i in 0..30u64 {
            s.put(k(i, (i % 4) as u32), vec![i as u8]).unwrap();
        }
        let (root, _) = s.index_root();
        let mut cursor: Option<ObjectKey> = None;
        let mut walked = Vec::new();
        loop {
            let p = s.scan_proof(cursor.as_ref(), 6);
            assert_eq!(p.root, root);
            sharoes_index::verify_scan_page(&root, cursor.as_ref(), 6, &p.keys, p.done, &p.proof)
                .expect("honest proof must verify");
            walked.extend_from_slice(&p.keys);
            if p.done {
                break;
            }
            cursor = p.keys.last().copied();
        }
        assert_eq!(walked, s.scan_keys_flat(None, usize::MAX).0);
        // Node fetch: the root's preimage is served and re-digests to it.
        let bytes = s.index_node_bytes(&root).expect("root node must be servable");
        assert_eq!(Sha256::digest(&bytes), root);
    }

    #[test]
    fn poisoned_shard_locks_recover() {
        let fs = Arc::new(FaultFs::new());
        let journalled = ObjectStore::open(fs, Path::new("/p"), EngineConfig::default()).unwrap();
        for s in [ObjectStore::new(), journalled] {
            let s = Arc::new(s);
            s.put(k(1, 0), vec![1, 2, 3]).unwrap();
            // Poison every shard: a thread panics while holding all write
            // guards (simulating a connection thread dying mid-request).
            let poisoner = Arc::clone(&s);
            let _ = std::thread::spawn(move || {
                let _guards: Vec<_> =
                    poisoner.shards.iter().map(|sh| sh.write().unwrap()).collect();
                panic!("poison all shards");
            })
            .join();
            assert!(s.shards.iter().all(|sh| sh.is_poisoned()), "test setup must poison the locks");
            // The request path recovers instead of wedging the server.
            assert_eq!(s.get(&k(1, 0)).unwrap(), vec![1, 2, 3]);
            s.put(k(2, 0), vec![4]).unwrap();
            assert_eq!(s.get(&k(2, 0)).unwrap(), vec![4]);
            assert!(s.delete(&k(2, 0)).unwrap());
            assert_eq!(s.object_count(), 1);
            assert_eq!(s.scan_keys(None, 10).0, vec![k(1, 0)]);
            s.compact().unwrap();
            assert!(!s.snapshot().is_empty());
        }
    }

    #[test]
    fn keys_with_same_inode_different_views_coexist() {
        let s = ObjectStore::new();
        s.put(ObjectKey::metadata(1, [1; 16]), vec![1]).unwrap();
        s.put(ObjectKey::metadata(1, [2; 16]), vec![2]).unwrap();
        assert_eq!(s.object_count(), 2);
        assert_eq!(s.get(&ObjectKey::metadata(1, [1; 16])).unwrap(), vec![1]);
        assert_eq!(s.get(&ObjectKey::metadata(1, [2; 16])).unwrap(), vec![2]);
    }

    #[test]
    fn bytes_by_space() {
        let s = ObjectStore::new();
        s.put(ObjectKey::metadata(1, [0; 16]), vec![0; 10]).unwrap();
        s.put(ObjectKey::data(1, [0; 16], 0), vec![0; 90]).unwrap();
        s.put(ObjectKey::superblock([3; 16]), vec![0; 5]).unwrap();
        let by = s.bytes_by_space();
        assert_eq!(by[&KeySpace::Metadata], 10);
        assert_eq!(by[&KeySpace::Data], 90);
        assert_eq!(by[&KeySpace::Superblock], 5);
        // Iteration order is the KeySpace order, not hasher-dependent.
        let spaces: Vec<KeySpace> = by.keys().copied().collect();
        assert_eq!(spaces, vec![KeySpace::Metadata, KeySpace::Data, KeySpace::Superblock]);
    }

    #[test]
    fn snapshot_roundtrip() {
        let s = ObjectStore::new();
        for i in 0..20u32 {
            s.put(ObjectKey::data(i as u64, [i as u8; 16], i), vec![i as u8; 1 + i as usize])
                .unwrap();
        }
        s.put(ObjectKey::superblock([9; 16]), vec![42; 100]).unwrap();
        let entries = decode_snapshot(&s.snapshot()).unwrap();
        assert_eq!(entries.len() as u64, s.object_count());
        assert!(entries.windows(2).all(|w| w[0].0 < w[1].0), "entries come in key order");
        for (key, value) in &entries {
            assert_eq!(s.get(key).as_ref(), Some(value));
        }
        assert_eq!(snapshot_from_entries(&entries), s.snapshot());
    }

    #[test]
    fn snapshot_rejects_garbage() {
        assert!(decode_snapshot(b"not a snapshot").is_err());
        let s = ObjectStore::new();
        s.put(ObjectKey::superblock([1; 16]), vec![1, 2, 3]).unwrap();
        let mut bytes = s.snapshot();
        bytes.truncate(bytes.len() - 1);
        assert!(decode_snapshot(&bytes).is_err());
        let mut trailing = s.snapshot();
        trailing.push(0);
        assert!(decode_snapshot(&trailing).is_err());
    }

    #[test]
    fn any_single_byte_corruption_is_detected() {
        let s = ObjectStore::new();
        for i in 0..5u32 {
            s.put(k(i as u64, i), vec![i as u8; 9]).unwrap();
        }
        let good = s.snapshot();
        assert!(decode_snapshot(&good).is_ok());
        for pos in 0..good.len() {
            let mut bad = good.clone();
            bad[pos] ^= 0x41;
            assert!(decode_snapshot(&bad).is_err(), "flip at byte {pos} went undetected");
        }
    }

    #[test]
    fn any_truncation_is_detected() {
        let s = ObjectStore::new();
        s.put(k(1, 0), vec![3; 30]).unwrap();
        let good = s.snapshot();
        for keep in 0..good.len() {
            assert!(
                decode_snapshot(&good[..keep]).is_err(),
                "truncation to {keep} bytes went undetected"
            );
        }
        let mut padded = good.clone();
        padded.push(0);
        assert!(decode_snapshot(&padded).is_err(), "trailing garbage accepted");
    }

    #[test]
    fn concurrent_writers() {
        let s = std::sync::Arc::new(ObjectStore::new());
        let handles: Vec<_> = (0..8u64)
            .map(|t| {
                let s = std::sync::Arc::clone(&s);
                std::thread::spawn(move || {
                    for i in 0..500u32 {
                        s.put(ObjectKey::data(t, [t as u8; 16], i), vec![0; 8]).unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(s.object_count(), 8 * 500);
        assert_eq!(s.byte_count(), 8 * 500 * 8);
    }
}
