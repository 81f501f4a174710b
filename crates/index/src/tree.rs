//! The incrementally maintained Merkle search tree.
//!
//! Every level is an ordered map from a node's first key to its hash:
//! `levels[0]` caches each leaf's hash, and the children of a node at level
//! `l ≥ 1` are the level-`l-1` entries from its key up to its next
//! sibling's. A mutation edits one or two leaf runs and marks them dirty —
//! O(log n), no hashing beyond the key's own boundary digest. The next read
//! ([`MerkleIndex::root`], [`MerkleIndex::prove_scan`],
//! [`MerkleIndex::node_bytes`]) settles the dirty set: it re-hashes the
//! dirty leaves, then at each level re-draws the chunk boundaries only at
//! the entries that changed and re-hashes only the parents covering them.
//! Because a boundary is a pure function of one entry's hash, this lands
//! on exactly the tree a from-scratch build would (history independence),
//! at O(Δ · fanout · height) for Δ dirty leaves.

use crate::proof::{encode_proof, ProofChild, ProofTree};
use crate::{
    boundary_preimage, digest_with, empty_root, encode_internal, encode_leaf, is_boundary_digest,
    is_leaf_boundary, leaf_len, Batch, KeyMap,
};
use sharoes_net::ObjectKey;
use std::collections::{btree_map, hash_map, BTreeMap, BTreeSet};
use std::iter::Peekable;
use std::ops::Bound::{self, Excluded, Included, Unbounded};
use std::ops::RangeBounds;
use std::sync::OnceLock;

fn cache_hits() -> &'static sharoes_obs::Counter {
    static C: OnceLock<sharoes_obs::Counter> = OnceLock::new();
    C.get_or_init(|| sharoes_obs::counter("index_node_cache_hits_total"))
}

fn cache_misses() -> &'static sharoes_obs::Counter {
    static C: OnceLock<sharoes_obs::Counter> = OnceLock::new();
    C.get_or_init(|| sharoes_obs::counter("index_node_cache_misses_total"))
}

fn proofs_total() -> &'static sharoes_obs::Counter {
    static C: OnceLock<sharoes_obs::Counter> = OnceLock::new();
    C.get_or_init(|| sharoes_obs::counter("index_proofs_total"))
}

fn proof_bytes() -> &'static sharoes_obs::Histogram {
    static H: OnceLock<sharoes_obs::Histogram> = OnceLock::new();
    H.get_or_init(|| sharoes_obs::histogram_bytes("index_proof_bytes"))
}

/// One level of the tree: each node's first key → its hash.
type Level = BTreeMap<ObjectKey, [u8; 32]>;

/// Where a node sits: `(level, first key)`.
type NodePos = (usize, ObjectKey);

/// A level entry that changed: its key, and its new hash (`None` once gone).
type Change = (ObjectKey, Option<[u8; 32]>);

/// One verified scan page: keys, completion flag, and the Merkle range
/// proof tying them to `root`.
#[derive(Clone, Debug)]
pub struct VerifiedPage {
    /// Keys strictly after the cursor, in order.
    pub keys: Vec<ObjectKey>,
    /// True when no keys remain beyond this page.
    pub done: bool,
    /// Root hash the proof commits to.
    pub root: [u8; 32],
    /// Encoded range proof for [`crate::verify_scan_page`].
    pub proof: Vec<u8>,
}

/// A deterministic, history-independent Merkle search tree over
/// [`ObjectKey`]s.
///
/// [`insert`]/[`remove`] edit the leaf runs in O(log n) and mark the
/// touched leaves dirty. The next [`root`], [`node_bytes`], or
/// [`prove_scan`] re-hashes the dirty leaves and re-chunks only their
/// ancestors: O(Δ · fanout · height) for Δ dirty leaves.
/// Nodes are not kept encoded; a hash → position map finds a node and
/// [`node_bytes`] encodes it on request.
///
/// [`insert`]: MerkleIndex::insert
/// [`remove`]: MerkleIndex::remove
/// [`root`]: MerkleIndex::root
/// [`node_bytes`]: MerkleIndex::node_bytes
/// [`prove_scan`]: MerkleIndex::prove_scan
#[derive(Default)]
pub struct MerkleIndex {
    /// Leaf runs keyed by their first (smallest) key.
    leaves: BTreeMap<ObjectKey, Vec<ObjectKey>>,
    count: u64,
    /// `levels[0]` holds the leaf hashes; the last level holds just the
    /// root. Current for every leaf not in `dirty`.
    levels: Vec<Level>,
    /// Every node's hash → its position in `levels`.
    nodes: KeyMap<[u8; 32], NodePos>,
    /// First keys of leaf runs added, removed, or edited since the last
    /// settle.
    dirty: BTreeSet<ObjectKey>,
    /// False from construction or a mutation until the next settle.
    settled: bool,
    /// True when the top level is a collapsed root (see [`Self::settle`])
    /// rather than the natural chunking of the level below.
    collapsed: bool,
}

impl MerkleIndex {
    /// An empty index.
    pub fn new() -> Self {
        MerkleIndex::default()
    }

    /// Builds canonically from any key iterator (duplicates collapse).
    ///
    /// This is the from-scratch constructor recovery paths use; by history
    /// independence it yields exactly the tree incremental maintenance
    /// would have. The first read settles every leaf.
    pub fn from_keys<I: IntoIterator<Item = ObjectKey>>(keys: I) -> Self {
        let mut sorted: Vec<ObjectKey> = keys.into_iter().collect();
        sorted.sort_unstable();
        sorted.dedup();
        let count = sorted.len() as u64;
        let mut leaves = BTreeMap::new();
        let mut run: Vec<ObjectKey> = Vec::new();
        for k in sorted {
            if !run.is_empty() && is_leaf_boundary(&k) {
                leaves.insert(run[0], std::mem::take(&mut run));
            }
            run.push(k);
        }
        if !run.is_empty() {
            leaves.insert(run[0], run);
        }
        let dirty = leaves.keys().copied().collect();
        MerkleIndex { leaves, count, dirty, ..MerkleIndex::default() }
    }

    /// Number of indexed keys.
    pub fn len(&self) -> u64 {
        self.count
    }

    /// True when no keys are indexed.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Inserts a key; returns false if it was already present.
    pub fn insert(&mut self, key: ObjectKey) -> bool {
        match self.leaves.range_mut(..=key).next_back() {
            Some((&fk, keys)) => {
                match keys.binary_search(&key) {
                    Ok(_) => return false,
                    Err(pos) => {
                        self.count += 1;
                        self.dirty.insert(fk);
                        if is_leaf_boundary(&key) {
                            // The key starts a leaf: split the covering run.
                            // `pos >= 1` since the run's first key is < key.
                            let tail = keys.split_off(pos);
                            let mut leaf = Vec::with_capacity(tail.len() + 1);
                            leaf.push(key);
                            leaf.extend(tail);
                            self.leaves.insert(key, leaf);
                            self.mark(key);
                        } else {
                            keys.insert(pos, key);
                        }
                    }
                }
            }
            None => {
                // New global minimum (or empty tree): the smallest key
                // starts the first leaf whether or not it is a natural
                // boundary.
                self.count += 1;
                let mut leaf = vec![key];
                if let Some(first) = self.leaves.keys().next().copied() {
                    // The old first leaf only started there because nothing
                    // preceded it; a non-boundary first key now merges in.
                    if !is_leaf_boundary(&first) {
                        leaf.extend(self.leaves.remove(&first).expect("first leaf exists"));
                        self.mark(first);
                    }
                }
                self.leaves.insert(key, leaf);
                self.mark(key);
            }
        }
        self.settled = false;
        true
    }

    /// Removes a key; returns false if it was absent.
    pub fn remove(&mut self, key: &ObjectKey) -> bool {
        let Some((&fk, keys)) = self.leaves.range_mut(..=*key).next_back() else {
            return false;
        };
        let Ok(pos) = keys.binary_search(key) else {
            return false;
        };
        self.settled = false;
        self.count -= 1;
        keys.remove(pos);
        if pos > 0 {
            // The run keeps its first key: it only changed.
            self.dirty.insert(fk);
            return true;
        }
        if keys.is_empty() {
            self.leaves.remove(&fk);
        } else {
            // The leaf lost its anchoring key: it survives on its own only
            // if the new first key is a natural boundary (or nothing
            // precedes it); otherwise it merges into its predecessor.
            let leaf = self.leaves.remove(&fk).expect("leaf exists");
            let nf = leaf[0];
            match self.leaves.range(..nf).next_back().map(|(fk, _)| *fk) {
                Some(pk) if !is_leaf_boundary(&nf) => {
                    self.leaves.get_mut(&pk).expect("predecessor exists").extend(leaf);
                    self.mark(pk);
                }
                _ => {
                    self.leaves.insert(nf, leaf);
                    self.mark(nf);
                }
            }
        }
        self.mark(fk);
        true
    }

    /// Records that the leaf run at `fk` appeared, changed, or vanished. A
    /// run that appeared and vanished since the last settle has nothing to
    /// undo and is dropped from the dirty set, which so never outgrows the
    /// settled and current leaves, however long the tree goes unread.
    fn mark(&mut self, fk: ObjectKey) {
        let settled = || self.levels.first().is_some_and(|l| l.contains_key(&fk));
        if self.leaves.contains_key(&fk) || settled() {
            self.dirty.insert(fk);
        } else {
            self.dirty.remove(&fk);
        }
    }

    /// The keys in `range`, in order, straight off the ordered leaves:
    /// O(log #leaves) to the first, then O(1) each. Leaves are always
    /// current, so this needs no settle (and no `&mut self`).
    pub fn keys_in(
        &self,
        range: impl RangeBounds<ObjectKey>,
    ) -> impl Iterator<Item = ObjectKey> + '_ {
        let (lo, hi) = (range.start_bound().cloned(), range.end_bound().cloned());
        // From the leaf covering the start bound: every later leaf starts
        // above it, so only the first can hold keys below the range.
        let covering = match lo {
            Included(k) | Excluded(k) => self.leaves.range(..=k).next_back().map(|(fk, _)| *fk),
            Unbounded => None,
        };
        let mut runs = match covering {
            Some(fk) => self.leaves.range(fk..),
            None => self.leaves.range(..),
        };
        let first = runs.next().map_or(&[][..], |(_, keys)| keys.as_slice());
        let skip = first.partition_point(|k| match lo {
            Included(s) => *k < s,
            Excluded(s) => *k <= s,
            Unbounded => false,
        });
        KeysIn { runs, run: first[skip..].iter(), hi }
    }

    /// One scan page off [`Self::keys_in`]: keys strictly after `after`
    /// (all of them from the front when `None`), at most `limit`, plus
    /// whether the keyspace is exhausted. O(log #leaves + page).
    pub fn scan_page(&self, after: Option<&ObjectKey>, limit: usize) -> (Vec<ObjectKey>, bool) {
        let mut keys = self.keys_in((after.map_or(Unbounded, |a| Excluded(*a)), Unbounded));
        let mut page = Vec::with_capacity(limit.min(4096));
        page.extend(keys.by_ref().take(limit));
        let done = keys.next().is_none();
        (page, done)
    }

    /// The current root hash (empty-tree sentinel when no keys).
    pub fn root(&mut self) -> [u8; 32] {
        self.settle();
        self.top()
    }

    /// The canonical encoding of the node with this hash, if it exists in
    /// the current tree (serves the `IndexNode` wire op): one slot of
    /// [`Self::nodes_bytes`].
    pub fn node_bytes(&mut self, hash: &[u8; 32]) -> Option<Vec<u8>> {
        self.nodes_bytes(std::slice::from_ref(hash)).pop().flatten()
    }

    /// The canonical encoding of each node named by `hashes`, `None` where
    /// the current tree has no such node. Each is encoded on request from
    /// the leaf run or the child range it names; the leaf runs are found in
    /// one ascending pass, since a fetcher asks for a tree level at a time,
    /// in key order.
    pub fn nodes_bytes(&mut self, hashes: &[[u8; 32]]) -> Vec<Option<Vec<u8>>> {
        let mut out = vec![None; hashes.len()];
        // `(first key, slot)` of every leaf asked for.
        let mut runs = Vec::new();
        for (slot, hash) in hashes.iter().enumerate() {
            self.settle();
            let Some(&(level, fk)) = self.nodes.get(hash) else { continue };
            if level == 0 {
                runs.push((fk, slot));
                continue;
            }
            let end = self.levels[level].range((Excluded(fk), Unbounded)).next().map(|(k, _)| *k);
            let mut bytes = Vec::new();
            encode_internal(children(&self.levels[level - 1], fk, end), &mut bytes);
            out[slot] = Some(bytes);
        }
        runs.sort_unstable();
        let firsts = runs.chunk_by(|a, b| a.0 == b.0).map(|same| same[0].0);
        let found = lookup_sorted(&self.leaves, firsts);
        // A hash asked for twice names one run twice.
        for (same, (_, keys)) in runs.chunk_by(|a, b| a.0 == b.0).zip(found) {
            let keys = keys.expect("a settled leaf hash names a current run");
            for (_, slot) in same {
                let mut bytes = Vec::new();
                encode_leaf(keys, &mut bytes);
                out[*slot] = Some(bytes);
            }
        }
        out
    }

    /// A scan page plus the Merkle range proof tying it to the current
    /// root. `limit` is clamped up to 1.
    pub fn prove_scan(&mut self, after: Option<&ObjectKey>, limit: u32) -> VerifiedPage {
        let limit = limit.max(1) as usize;
        let (page, done) = self.scan_page(after, limit);
        self.settle();
        let root = self.top();
        let tree = match self.leaves.keys().next() {
            None => ProofTree::Empty,
            Some(first) => {
                // Reveal from the last leaf whose first key <= after (the
                // cursor's covering leaf — so the verifier can check nothing
                // between cursor and page start was hidden) through the leaf
                // holding the last page key.
                let covering = |k: &ObjectKey| {
                    self.leaves.range(..=*k).next_back().map_or(*first, |(fk, _)| *fk)
                };
                let lo = after.map_or(*first, covering);
                let hi = page.last().map_or(lo, covering);
                let top = self.levels.len() - 1;
                let root_key = *self.levels[top].keys().next().expect("non-empty top level");
                self.subtree(top, root_key, None, lo, hi)
            }
        };
        let proof = encode_proof(&tree);
        proofs_total().inc();
        proof_bytes().observe(proof.len() as u64);
        VerifiedPage { keys: page, done, root, proof }
    }

    /// Debug/test oracle: every indexed key, in order, via a full walk.
    pub fn all_keys(&self) -> Vec<ObjectKey> {
        self.leaves.values().flatten().copied().collect()
    }

    /// The top level's single hash; call only when settled.
    fn top(&self) -> [u8; 32] {
        self.levels.last().and_then(|l| l.values().next()).copied().unwrap_or_else(empty_root)
    }

    /// Brings `levels` and `nodes` up to date with the leaves.
    ///
    /// Re-hashes the dirty leaves, then climbs: at each level, re-draws
    /// the chunk boundaries at the changed entries and re-hashes the
    /// parents covering them ([`Self::rechunk`]), stopping as soon as no
    /// entry changed. A level of one node is the root. A level whose
    /// natural chunking would not shrink (every child drew a boundary)
    /// collapses into one root node over the whole level — a pure function
    /// of the child hashes, so history independence holds; the next settle
    /// re-derives that top level from scratch.
    fn settle(&mut self) {
        if self.settled {
            cache_hits().inc();
            return;
        }
        cache_misses().inc();
        self.settled = true;
        if self.levels.is_empty() {
            self.levels.push(Level::new());
        }
        // The dirty leaves' hashes, or `None` where a run is gone.
        let runs: Vec<_> = lookup_sorted(&self.leaves, std::mem::take(&mut self.dirty)).collect();
        let mut batch = Batch::default();
        batch.bytes.reserve(runs.iter().flat_map(|(_, keys)| keys).map(|k| leaf_len(k)).sum());
        for keys in runs.iter().flat_map(|(_, keys)| keys) {
            batch.push(|b| encode_leaf(keys, b));
        }
        let mut digests = batch.digests().into_iter();
        let mut touched: Vec<Change> = runs
            .into_iter()
            .map(|(fk, keys)| (fk, keys.map(|_| digests.next().expect("one digest per run"))))
            .collect();
        set_entries(&mut self.nodes, &mut self.levels[0], 0, &touched);
        let mut level = 0;
        while !touched.is_empty() {
            let len = self.levels[level].len();
            if len <= 1 {
                self.truncate(level + 1);
                break;
            }
            let above_is_collapsed = self.collapsed && level + 2 == self.levels.len();
            if level + 1 == self.levels.len() || above_is_collapsed {
                // No natural level above yet: derive it from every entry.
                self.truncate(level + 1);
                self.levels.push(Level::new());
                touched = self.levels[level].iter().map(|(k, h)| (*k, Some(*h))).collect();
            }
            touched = self.rechunk(level, &touched);
            if self.levels[level + 1].len() == len {
                self.truncate(level + 1);
                let below = &self.levels[level];
                let first = *below.keys().next().expect("level has entries");
                let hash = digest_with(&mut Vec::new(), |b| encode_internal(below.iter(), b));
                let mut top = Level::new();
                set_entry(&mut self.nodes, &mut top, level + 1, first, Some(hash));
                self.levels.push(top);
                self.collapsed = true;
                break;
            }
            level += 1;
        }
    }

    /// Re-chunks level `level + 1` after the level-`level` entries in
    /// `touched` (sorted by key, distinct) were added, removed (`None`), or
    /// re-hashed. Returns the level `level + 1` entries that were added,
    /// removed, or changed hash, the same way. Boundary digests and parent
    /// hashes are each computed side by side ([`Batch`]).
    fn rechunk(&mut self, level: usize, touched: &[Change]) -> Vec<Change> {
        let (lower, upper) = self.levels.split_at_mut(level + 1);
        let (below, above) = (&lower[level], &mut upper[0]);
        let nodes = &mut self.nodes;
        let first = *below.keys().next().expect("level has entries");
        // The first entry always starts a node, so when the first entry
        // changes both the old and the new one must be re-drawn.
        let old_first = above.keys().next().copied().filter(|f| *f != first);
        let redraw = old_first.into_iter().chain(old_first.map(|_| first));
        let redraw = redraw.map(|t| (t, below.get(&t).copied()));
        let entries: Vec<Change> = touched.iter().copied().chain(redraw).collect();
        let mut bounds = Batch::default();
        for hash in entries.iter().filter_map(|(_, hash)| hash.as_ref()) {
            bounds.push(|b| b.extend_from_slice(&boundary_preimage(hash)));
        }
        let mut bounds = bounds.digests().into_iter().map(|d| is_boundary_digest(&d));
        let mut parents = Vec::new();
        let mut changed = Vec::new();
        // Pushes a parent unless it was the last one pushed (entries come
        // in key order, so most share the previous entry's parent).
        let push = |parents: &mut Vec<ObjectKey>, p: Option<ObjectKey>| {
            if p.is_some() && parents.last() != p.as_ref() {
                parents.extend(p);
            }
        };
        let before = |above: &Level, t: &ObjectKey, inclusive: bool| {
            let upper = if inclusive { Included(*t) } else { Excluded(*t) };
            above.range((Unbounded, upper)).next_back().map(|(p, _)| *p)
        };
        for (t, hash) in entries {
            let starts =
                hash.is_some() && bounds.next().expect("one digest per hash") | (t == first);
            let covering = before(above, &t, true);
            if starts == (covering == Some(t)) {
                push(&mut parents, covering);
                continue;
            }
            if starts {
                above.insert(t, [0; 32]);
            } else {
                set_entry(nodes, above, level + 1, t, None);
            }
            changed.push(t);
            // The preceding node gained or lost this run of children.
            push(&mut parents, before(above, &t, false));
            push(&mut parents, before(above, &t, true));
        }
        parents.sort_unstable();
        parents.dedup();
        // A start dropped after being marked has nothing to hash.
        parents.retain(|p| above.contains_key(p));
        let mut batch = Batch::default();
        for p in &parents {
            let end = above.range((Excluded(*p), Unbounded)).next().map(|(k, _)| *k);
            batch.push(|b| encode_internal(children(below, *p, end), b));
        }
        for (p, hash) in parents.into_iter().zip(batch.digests()) {
            if above.get(&p) != Some(&hash) {
                set_entry(nodes, above, level + 1, p, Some(hash));
                changed.push(p);
            }
        }
        changed.sort_unstable();
        changed.dedup();
        changed.into_iter().map(|k| (k, above.get(&k).copied())).collect()
    }

    /// Drops every level from `keep` up, with their hashes.
    fn truncate(&mut self, keep: usize) {
        for (level, dropped) in self.levels.iter().enumerate().skip(keep) {
            for (fk, hash) in dropped {
                if self.nodes.get(hash) == Some(&(level, *fk)) {
                    self.nodes.remove(hash);
                }
            }
        }
        self.levels.truncate(keep);
        self.collapsed = false;
    }

    /// Builds the proof subtree for the node at `(level, fk)`, whose
    /// children end before `end`: leaves whose first keys lie in
    /// `[lo, hi]` are revealed, disjoint subtrees are pruned to
    /// `(first_key, hash)` stubs.
    fn subtree(
        &self,
        level: usize,
        fk: ObjectKey,
        end: Option<ObjectKey>,
        lo: ObjectKey,
        hi: ObjectKey,
    ) -> ProofTree {
        if level == 0 {
            return ProofTree::Leaf(self.leaves[&fk].clone());
        }
        let kids: Vec<(&ObjectKey, &[u8; 32])> =
            children(&self.levels[level - 1], fk, end).collect();
        let children = kids
            .iter()
            .enumerate()
            .map(|(i, (cfk, hash))| {
                let cend = kids.get(i + 1).map(|(k, _)| **k).or(end);
                if cend.is_some_and(|e| e <= lo) || **cfk > hi {
                    ProofChild::Omitted { first_key: **cfk, hash: **hash }
                } else {
                    ProofChild::Tree(self.subtree(level - 1, **cfk, cend, lo, hi))
                }
            })
            .collect();
        ProofTree::Node(children)
    }
}

/// The walk behind [`MerkleIndex::keys_in`]: the rest of the current leaf
/// run, then the runs after it, up to the end bound. Written out by hand
/// because the same walk built from `flat_map`, `skip_while` and
/// `take_while` paged 2,000 keys ~5x slower.
struct KeysIn<'a> {
    runs: btree_map::Range<'a, ObjectKey, Vec<ObjectKey>>,
    run: std::slice::Iter<'a, ObjectKey>,
    hi: Bound<ObjectKey>,
}

impl Iterator for KeysIn<'_> {
    type Item = ObjectKey;

    fn next(&mut self) -> Option<ObjectKey> {
        let k = loop {
            match self.run.next() {
                Some(k) => break *k,
                None => self.run = self.runs.next()?.1.iter(),
            }
        };
        let within = match self.hi {
            Included(e) => k <= e,
            Excluded(e) => k < e,
            Unbounded => true,
        };
        if !within {
            // Every later key is past the end too.
            self.runs = btree_map::Range::default();
            self.run = [].iter();
            return None;
        }
        Some(k)
    }
}

/// The entries of `level` from `from` up to (excluding) `end`: the children
/// of the node one level up that starts at `from`.
fn children(
    level: &Level,
    from: ObjectKey,
    end: Option<ObjectKey>,
) -> impl Iterator<Item = (&ObjectKey, &[u8; 32])> {
    let upper = end.map_or(Unbounded, Excluded);
    level.range((Included(from), upper))
}

/// Steps `run`, an ordered walk of a level or of the leaf runs, past its
/// entries below `key`. Returns false, to seek afresh instead, when that
/// would take more than a few steps: keys that lie close together then cost
/// a step each, and keys far apart a search each.
fn step_to<'a, V: 'a>(
    run: &mut Peekable<impl Iterator<Item = (&'a ObjectKey, V)>>,
    key: &ObjectKey,
) -> bool {
    const STEPS: usize = 8;
    !(0..STEPS).all(|_| run.next_if(|(k, _)| *k < key).is_some())
}

/// Each of the ascending `keys` with its value in `map`, if any, found
/// stepping forward ([`step_to`]).
fn lookup_sorted<'a, V>(
    map: &'a BTreeMap<ObjectKey, V>,
    keys: impl IntoIterator<Item = ObjectKey>,
) -> impl Iterator<Item = (ObjectKey, Option<&'a V>)> {
    let mut at: Option<Peekable<btree_map::Range<'a, ObjectKey, V>>> = None;
    keys.into_iter().map(move |key| {
        if !at.as_mut().is_some_and(|run| step_to(run, &key)) {
            at = Some(map.range(key..).peekable());
        }
        let run = at.as_mut().expect("positioned");
        let value = run.next_if(|(k, _)| **k == key).map(|(_, v)| v);
        (key, value)
    })
}

/// Sets (`Some`) or removes (`None`) the entry `key` of `map`, the level
/// `level`, keeping the hash → position map in step.
fn set_entry(
    nodes: &mut KeyMap<[u8; 32], NodePos>,
    map: &mut Level,
    level: usize,
    key: ObjectKey,
    hash: Option<[u8; 32]>,
) {
    let old = match hash {
        Some(h) => map.insert(key, h),
        None => map.remove(&key),
    };
    repoint(nodes, (level, key), old, hash);
}

/// [`set_entry`] for each of the ascending `entries` (`touched` in
/// [`MerkleIndex::settle`]). An entry `map` already holds is re-hashed in
/// place, found stepping forward ([`step_to`]); one it gains or loses is
/// inserted or removed afterwards.
fn set_entries(
    nodes: &mut KeyMap<[u8; 32], NodePos>,
    map: &mut Level,
    level: usize,
    entries: &[Change],
) {
    let mut reshape = Vec::new();
    let mut at: Option<Peekable<btree_map::RangeMut<'_, ObjectKey, [u8; 32]>>> = None;
    for &(key, hash) in entries {
        if !at.as_mut().is_some_and(|run| step_to(run, &key)) {
            at = Some(map.range_mut(key..).peekable());
        }
        let run = at.as_mut().expect("positioned");
        match (run.next_if(|(k, _)| **k == key), hash) {
            (Some((_, slot)), Some(h)) => {
                let old = std::mem::replace(slot, h);
                repoint(nodes, (level, key), Some(old), hash);
            }
            _ => reshape.push((key, hash)),
        }
    }
    for (key, hash) in reshape {
        set_entry(nodes, map, level, key, hash);
    }
}

/// Moves the node at `pos` in the hash → position map from hash `old` to
/// hash `new`.
fn repoint(
    nodes: &mut KeyMap<[u8; 32], NodePos>,
    pos: NodePos,
    old: Option<[u8; 32]>,
    new: Option<[u8; 32]>,
) {
    if let Some(old) = old {
        if let hash_map::Entry::Occupied(at) = nodes.entry(old) {
            if *at.get() == pos {
                at.remove();
            }
        }
    }
    if let Some(h) = new {
        nodes.insert(h, pos);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{decode_node, verify_scan_page, IndexNode};
    use sharoes_crypto::Sha256;
    use sharoes_net::KeySpace;
    use std::collections::BTreeSet;

    fn key(i: u64) -> ObjectKey {
        ObjectKey { space: KeySpace::Data, inode: i, view: [(i % 251) as u8; 16], block: 0 }
    }

    #[test]
    fn empty_tree() {
        let mut t = MerkleIndex::new();
        assert!(t.is_empty());
        assert_eq!(t.root(), empty_root());
        assert_eq!(t.scan_page(None, 10), (vec![], true));
    }

    #[test]
    fn insert_remove_roundtrip_reaches_empty_root() {
        let mut t = MerkleIndex::new();
        for i in 0..500 {
            assert!(t.insert(key(i)));
        }
        assert!(!t.insert(key(7)), "duplicate insert must be a no-op");
        assert_eq!(t.len(), 500);
        let full = t.root();
        for i in 0..500 {
            assert!(t.remove(&key(i)));
        }
        assert!(!t.remove(&key(7)));
        assert_eq!(t.len(), 0);
        assert_eq!(t.root(), empty_root());
        assert_ne!(full, empty_root());
    }

    #[test]
    fn incremental_matches_canonical_rebuild() {
        // Insert in a scrambled order, delete a slice, and compare against
        // the from-scratch constructor over the surviving set.
        let mut t = MerkleIndex::new();
        for i in (0..400).rev() {
            t.insert(key(i * 7 % 400));
        }
        for i in 100..200 {
            t.remove(&key(i));
        }
        let survivors: Vec<ObjectKey> = (0..400)
            .map(key)
            .filter(|k| {
                let i = k.inode;
                !(100..200).contains(&i)
            })
            .collect();
        let mut canon = MerkleIndex::from_keys(survivors.clone());
        assert_eq!(t.root(), canon.root());
        assert_eq!(t.all_keys(), survivors);
    }

    #[test]
    fn small_trees_settle_to_the_canonical_root_through_every_top_shape() {
        // Small trees put the rare cases at the top of the tree: a first
        // entry that changes, and a collapsed root that must be re-derived.
        // Each mutation is checked against a from-scratch rebuild.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let (mut collapsed_settles, mut first_changes) = (0, 0);
        for _ in 0..400 {
            let mut live: BTreeSet<ObjectKey> =
                (0..next() % 90).map(|_| key(next() % 400)).collect();
            let mut t = MerkleIndex::from_keys(live.iter().copied());
            t.root();
            for _ in 0..12 {
                let was_collapsed = t.collapsed;
                let first = live.first().copied();
                let k = match next() % 4 {
                    0 => live.first().copied().unwrap_or(key(0)),
                    1 => key(next() % 40),
                    _ => key(next() % 400),
                };
                if live.contains(&k) {
                    live.remove(&k);
                    t.remove(&k);
                } else {
                    live.insert(k);
                    t.insert(k);
                }
                let mut canon = MerkleIndex::from_keys(live.iter().copied());
                assert_eq!(t.root(), canon.root());
                collapsed_settles += was_collapsed as u32;
                first_changes += (first != live.first().copied()) as u32;
            }
        }
        assert!(collapsed_settles > 0 && first_changes > 0);
    }

    #[test]
    fn unread_churn_keeps_the_dirty_set_bounded() {
        // The SSP mutates without ever reading the root; leaf runs that come
        // and go between settles must not pile up in the dirty set.
        let mut t = MerkleIndex::from_keys((0..1000).map(key));
        let settled = t.root();
        for round in 0..20u64 {
            let fresh = (0..500).map(|i| key(1000 + round * 500 + i));
            fresh.clone().for_each(|k| assert!(t.insert(k)));
            fresh.for_each(|k| assert!(t.remove(&k)));
            assert!(t.dirty.len() <= t.levels[0].len() + t.leaves.len());
        }
        assert_eq!(t.root(), settled);
    }

    #[test]
    fn scan_pages_cover_exactly_once() {
        let keys: Vec<ObjectKey> = (0..257).map(key).collect();
        let t = MerkleIndex::from_keys(keys.clone());
        let mut got = Vec::new();
        let mut after: Option<ObjectKey> = None;
        loop {
            let (page, done) = t.scan_page(after.as_ref(), 13);
            got.extend_from_slice(&page);
            if done {
                break;
            }
            after = page.last().copied();
        }
        assert_eq!(got, keys);
    }

    #[test]
    fn keys_in_equals_a_filter_over_all_keys() {
        // Random trees, mutated without a settle in between, against random
        // ranges of every bound kind: single-key ranges on present and
        // absent keys, empty and inverted ranges, and ranges off either end.
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let (mut single_hits, mut empties) = (0, 0);
        for _ in 0..200 {
            let mut t = MerkleIndex::from_keys((0..next() % 300).map(|_| key(next() % 600)));
            t.root();
            for _ in 0..next() % 40 {
                let k = key(next() % 600);
                if !t.remove(&k) {
                    t.insert(k);
                }
            }
            let all = t.all_keys();
            for _ in 0..30 {
                let (a, b) = (key(next() % 620), key(next() % 620));
                let bound = |k: ObjectKey, kind: u64| match kind {
                    0 => Included(k),
                    1 => Excluded(k),
                    _ => Unbounded,
                };
                let range = match next() % 4 {
                    0 => (Included(a), Included(a)),
                    1 => (Excluded(a), Excluded(a)),
                    _ => (bound(a, next() % 3), bound(b, next() % 3)),
                };
                let got: Vec<ObjectKey> = t.keys_in(range).collect();
                let want: Vec<ObjectKey> =
                    all.iter().copied().filter(|k| range.contains(k)).collect();
                assert_eq!(got, want, "range {range:?}");
                single_hits += (range == (Included(a), Included(a)) && got.len() == 1) as u32;
                empties += want.is_empty() as u32;
            }
        }
        assert!(single_hits > 0 && empties > 0);
    }

    #[test]
    fn proofs_verify_across_full_pagination() {
        let keys: Vec<ObjectKey> = (0..300).map(|i| key(i * 3)).collect();
        let mut t = MerkleIndex::from_keys(keys.clone());
        let root = t.root();
        let mut after: Option<ObjectKey> = None;
        let mut got = Vec::new();
        loop {
            let p = t.prove_scan(after.as_ref(), 17);
            assert_eq!(p.root, root);
            verify_scan_page(&root, after.as_ref(), 17, &p.keys, p.done, &p.proof)
                .expect("honest page verifies");
            got.extend_from_slice(&p.keys);
            if p.done {
                break;
            }
            after = p.keys.last().copied();
        }
        assert_eq!(got, keys);
    }

    #[test]
    fn node_bytes_served_by_hash_and_verifiable() {
        let mut t = MerkleIndex::from_keys((0..200).map(key));
        let root = t.root();
        let bytes = t.node_bytes(&root).expect("root node serveable");
        assert_eq!(Sha256::digest(&bytes), root);
        // Walk the whole tree by hash and count every key exactly once.
        fn collect(t: &mut MerkleIndex, hash: &[u8; 32], out: &mut Vec<ObjectKey>) {
            let bytes = t.node_bytes(hash).expect("node exists");
            assert_eq!(&Sha256::digest(&bytes), hash);
            match decode_node(&bytes).unwrap() {
                IndexNode::Leaf(keys) => out.extend(keys),
                IndexNode::Internal(entries) => {
                    for (_, h) in entries {
                        collect(t, &h, out);
                    }
                }
            }
        }
        let mut out = Vec::new();
        collect(&mut t, &root, &mut out);
        assert_eq!(out, (0..200).map(key).collect::<Vec<_>>());
        assert!(t.node_bytes(&[0xAA; 32]).is_none());
    }
}
