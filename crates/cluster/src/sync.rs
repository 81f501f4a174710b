//! Authenticated-index replica sync: per-node root fetch, subtree-diff
//! descent against each node's last verified tree, and the cluster-level
//! union index behind the verified scan ops.
//!
//! Each node commits to its keyspace with one 32-byte root
//! (`Request::Root`). The cluster keeps, per node, the last tree it
//! verified from that node: the in-tree reference count of every node hash
//! reachable from its root. When a root moves, the descent starts at the
//! new root and goes down level by level, stopping at every hash the old
//! tree already holds. Each level's hashes that neither the old tree nor
//! the memo resolves are fetched in one batched `Request::IndexNode` per
//! [`MAX_INDEX_BATCH`] hashes. Every fetched node is re-digested against its
//! slot's hash before use — a replica cannot forge its claimed key set
//! below the root it reported — and the resulting key count must equal the
//! count the node reported next to its root. Nodes whose index ops fail
//! (link fault, mid-descent mutation, a batch reply with the wrong slots)
//! fall back to the `Scan` streaming path. So does a tree that reaches one
//! node hash twice, which no honest tree does: the walk counts each hash
//! once, so a replica can add keys to the union but never remove another's.
//!
//! The memo maps a hash to the node's checked encoding ([`EncodedNode`]:
//! the bytes as fetched, re-digested and structurally checked once, then
//! read in place) and holds exactly the nodes reachable from the latest
//! verified per-node roots: a node enters when some node's tree gains it
//! and leaves when the last tree referencing it drops it. A settled cluster
//! costs one `Root` RPC per node per round; a moved root costs at most
//! 1 + height requests, and fetches O(Δ · height) nodes for Δ changed
//! leaves.
//!
//! The union index is a per-key count of the nodes listing the key, plus
//! one [`MerkleIndex`] that gains a key when its count leaves zero and
//! loses it when its count returns to zero. A moved root applies only the
//! keys of the leaves that entered or left that node's tree, found by one
//! merge of the two sides' encoded key runs (`KeyDelta::between`).
//!
//! What one verified page costs on perfbench `cluster_rpc` (3 nodes, R = 2,
//! ~20k keys, ~1,000 key changes per node between pages, so most leaves
//! change), in ms, medians of 6 alternating runs of a phase-timed build on
//! a 2-vCPU VM (DESIGN.md §13.4 has the rows in full):
//!
//! | phase                                   | before | after |
//! |-----------------------------------------|-------:|------:|
//! | `Root` ×3: each node settles its tree    |   3.53 |  2.32 |
//! | `IndexNode` calls: serve + codec         |   1.73 |  1.23 |
//! | re-digest + check fetched nodes          |   2.30 |  1.04 |
//! | walk: add, drop old tree, duplicate check|   2.31 |  1.10 |
//! | commit + net key delta                   |   0.93 |  0.63 |
//! | union counting                           |   2.12 |  1.35 |
//! | union settle + proof                     |   1.73 |  1.14 |
//! | **total**                                |  14.65 |  8.79 |

use crate::transport::ClusterTransport;
use sharoes_crypto::Sha256;
use sharoes_index::{empty_root, EncodedNode, KeyMap, MerkleIndex, MAX_PROOF_DEPTH};
use sharoes_net::{NetError, ObjectKey, Request, Response, MAX_INDEX_BATCH};
use std::collections::hash_map::Entry;
use std::collections::HashSet;
use std::sync::OnceLock;

/// Page size for the `Scan` fallback when a node's index is unusable.
const FALLBACK_SCAN_PAGE: u32 = 256;

struct SyncMetrics {
    nodes_fetched: sharoes_obs::Counter,
    memo_hits: sharoes_obs::Counter,
    fallbacks: sharoes_obs::Counter,
    union_updates: sharoes_obs::Counter,
}

fn sync_metrics() -> &'static SyncMetrics {
    static METRICS: OnceLock<SyncMetrics> = OnceLock::new();
    METRICS.get_or_init(|| SyncMetrics {
        nodes_fetched: sharoes_obs::counter("cluster_index_nodes_fetched_total"),
        memo_hits: sharoes_obs::counter("cluster_index_memo_hits_total"),
        fallbacks: sharoes_obs::counter("cluster_index_scan_fallbacks_total"),
        union_updates: sharoes_obs::counter("cluster_index_union_rebuilds_total"),
    })
}

/// A verified index node and the number of per-node trees that reach it.
struct MemoNode {
    node: EncodedNode,
    trees: u32,
}

/// The memo: every node some per-node tree reaches, by hash.
type Memo = KeyMap<[u8; 32], MemoNode>;

/// The last index tree verified from one node.
#[derive(Default)]
struct TreeView {
    /// Root hash; `None` for the empty tree.
    root: Option<[u8; 32]>,
    /// Keys under `root`.
    count: u64,
    /// How many times each node hash is referenced inside this tree (the
    /// root counts once). Every hash here is also in the memo.
    refs: KeyMap<[u8; 32], u32>,
}

/// What one node currently contributes to the union.
#[derive(Default)]
enum Counted {
    /// Nothing: unreachable, or both the index and the scan failed.
    #[default]
    Nothing,
    /// The keys of its [`TreeView`].
    Tree,
    /// Keys streamed through the `Scan` fallback.
    Scanned(Vec<ObjectKey>),
}

#[derive(Default)]
struct NodeSync {
    /// The root the node reported when `counted` was last made complete;
    /// `None` forces a refresh on the next round.
    seen: Option<[u8; 32]>,
    tree: TreeView,
    counted: Counted,
}

/// Cluster-side state of the authenticated index: the node memo, every
/// node's last verified tree, and the union index.
#[derive(Default)]
pub(crate) struct IndexSync {
    memo: Memo,
    /// By node slot.
    nodes: Vec<NodeSync>,
    /// Key → number of contributions listing it; absent means zero.
    key_refs: KeyMap<ObjectKey, u32>,
    union: MerkleIndex,
}

/// Keys entering and leaving one node's tree when its root moves.
#[derive(Default)]
struct KeyDelta {
    added: Vec<ObjectKey>,
    removed: Vec<ObjectKey>,
}

/// Bytes of one encoded key. A leaf's keys are a run of these back to
/// back, and byte order of two encodings is the keys' order.
const KEY_LEN: usize = ObjectKey::WIRE_LEN;

/// An encoded key as two big-endian words that order as its bytes do
/// (bytes 13..16 sit in both, which changes nothing): two integer compares
/// instead of a `memcmp`.
fn key_words(key: &[u8]) -> (u128, u128) {
    let word = |at: usize| u128::from_be_bytes(key[at..at + 16].try_into().expect("16 bytes"));
    (word(0), word(KEY_LEN - 16))
}

/// Bytes of the whole keys two runs both open with, compared a word at a
/// time.
fn shared_keys(a: &[u8], b: &[u8]) -> usize {
    let n = a.len().min(b.len());
    let word = |run: &[u8], at: usize| u64::from_ne_bytes(run[at..at + 8].try_into().expect("8"));
    let mut same = 0;
    while same + 8 <= n && word(a, same) == word(b, same) {
        same += 8;
    }
    while same < n && a[same] == b[same] {
        same += 1;
    }
    same - same % KEY_LEN
}

impl KeyDelta {
    /// The keys the `entered` leaves list and the `left` ones do not, and
    /// the reverse: a key that only moved between leaves cancels. Each leaf
    /// is read in place from the memo as a run of encoded keys, and only
    /// the delta's keys are decoded. An honest tree's leaves come in key
    /// order on both sides, so each side's runs join into one sorted run
    /// and one merge finds the delta; a side whose leaves are out of order
    /// (only a hostile tree's can be) is split into keys and sorted first.
    fn between(memo: &Memo, entered: &[[u8; 32]], left: &[[u8; 32]]) -> KeyDelta {
        fn sorted(runs: Vec<&[u8]>) -> Vec<&[u8]> {
            let mut keys: Vec<&[u8]> = runs.iter().flat_map(|r| r.chunks_exact(KEY_LEN)).collect();
            keys.sort_unstable();
            keys
        }
        let runs = |hashes: &[[u8; 32]]| -> Vec<&[u8]> {
            hashes.iter().map(|h| memo[h].node.encoded_keys()).collect()
        };
        let (entered, left) = (runs(entered), runs(left));
        let ordered = |runs: &[&[u8]]| {
            let (first, last) =
                (|r: &[u8]| key_words(r), |r: &[u8]| key_words(&r[r.len() - KEY_LEN..]));
            runs.windows(2).all(|w| last(w[0]) < first(w[1]))
        };
        if ordered(&entered) && ordered(&left) {
            Self::merge(entered, left)
        } else {
            Self::merge(sorted(entered), sorted(left))
        }
    }

    /// The multiset difference, both ways, of two sorted sequences of key
    /// runs, decoded. Keys both sides open with are skipped a word at a
    /// time.
    fn merge(added: Vec<&[u8]>, removed: Vec<&[u8]>) -> KeyDelta {
        let decode = |k: &[u8]| {
            ObjectKey::from_wire_bytes(k.try_into().expect("key-wide")).expect("checked node keys")
        };
        let (mut added, mut removed) = (added.into_iter(), removed.into_iter());
        let (mut a, mut r): (&[u8], &[u8]) = (&[], &[]);
        let mut net = KeyDelta::default();
        loop {
            if a.is_empty() {
                let Some(run) = added.next() else { break };
                a = run;
            } else if r.is_empty() {
                let Some(run) = removed.next() else { break };
                r = run;
            } else {
                let same = shared_keys(a, r);
                (a, r) = (&a[same..], &r[same..]);
                if a.is_empty() || r.is_empty() {
                    continue;
                }
                // The runs now open with different keys: the smaller leaves.
                if key_words(a) < key_words(r) {
                    net.added.push(decode(&a[..KEY_LEN]));
                    a = &a[KEY_LEN..];
                } else {
                    net.removed.push(decode(&r[..KEY_LEN]));
                    r = &r[KEY_LEN..];
                }
            }
        }
        let rest = |run: &[u8], runs: std::vec::IntoIter<&[u8]>| {
            let runs = std::iter::once(run).chain(runs);
            runs.flat_map(|run| run.chunks_exact(KEY_LEN)).map(decode).collect::<Vec<_>>()
        };
        net.added.extend(rest(a, added));
        net.removed.extend(rest(r, removed));
        net
    }
}

/// Fetches index nodes by hash, one per hash in order, each verified
/// against its hash.
type FetchNodes<'a> = dyn FnMut(&[[u8; 32]]) -> Result<Vec<EncodedNode>, NetError> + 'a;

/// One root move of one node's tree, applied in place and undone if the
/// descent fails.
struct Walk<'a> {
    /// The tree's reference counts, being moved to the new root.
    refs: &'a mut KeyMap<[u8; 32], u32>,
    memo: &'a mut Memo,
    /// Every `refs` change as `(hash, count before)`, for [`Walk::undo`].
    log: Vec<([u8; 32], u32)>,
    /// Hashes this walk fetched into the memo (no other tree holds them).
    fetched: Vec<[u8; 32]>,
    /// Hashes new to the tree that the memo already held for another tree.
    held: Vec<[u8; 32]>,
    /// Hashes whose count returned to zero: gone from the tree.
    left: Vec<[u8; 32]>,
    /// Hashes the new tree reached while they already had a reference:
    /// kept from the old tree, or reached twice.
    shared: Vec<[u8; 32]>,
    /// The leaves that entered and left the tree, each side in tree order.
    entered_leaves: Vec<[u8; 32]>,
    left_leaves: Vec<[u8; 32]>,
    /// Keys those leaves list: the tree's count moves by the difference.
    keys_in: u64,
    keys_out: u64,
}

impl Walk<'_> {
    /// Adds the tree under `root`, one level at a time. Each hash of a level
    /// gains one reference, in key order; a hash new to the tree brings in
    /// its leaf keys and references its children on the next level. It
    /// comes from the memo when another tree holds it, else from one `fetch`
    /// of the level's remaining hashes. A memo hit resolves its whole
    /// subtree: below it nothing is fetched and no further hit is counted.
    fn add(&mut self, root: [u8; 32], fetch: &mut FetchNodes<'_>) -> Result<(), NetError> {
        // `(hash, resolved)`: `resolved` is set below a memo hit.
        let mut level = vec![(root, false)];
        let (mut new, mut missing) = (Vec::new(), Vec::new());
        for depth in 0.. {
            if level.is_empty() {
                break;
            }
            if depth > MAX_PROOF_DEPTH {
                return Err(NetError::Codec("index descent too deep"));
            }
            for (hash, resolved) in level.drain(..) {
                let refs = self.refs.entry(hash).or_insert(0);
                self.log.push((hash, *refs));
                *refs += 1;
                if *refs > 1 {
                    self.shared.push(hash);
                    if !resolved {
                        sync_metrics().memo_hits.inc();
                    }
                    continue;
                }
                let held = self.memo.contains_key(&hash);
                if held {
                    self.held.push(hash);
                    if !resolved {
                        sync_metrics().memo_hits.inc();
                    }
                } else {
                    missing.push(hash);
                }
                new.push((hash, resolved || held, held));
            }
            let mut nodes = if missing.is_empty() { Vec::new() } else { fetch(&missing)? };
            missing.clear();
            let mut nodes = nodes.drain(..);
            for (hash, resolved, held) in new.drain(..) {
                let node = if held {
                    &self.memo[&hash].node
                } else {
                    // Only this tree holds a node it fetched (undo drops it).
                    let node = nodes.next().expect("one node per missing hash");
                    self.fetched.push(hash);
                    let entry = self.memo.entry(hash).insert_entry(MemoNode { node, trees: 1 });
                    &entry.into_mut().node
                };
                if node.is_leaf() {
                    self.entered_leaves.push(hash);
                    self.keys_in += node.entry_count() as u64;
                }
                level.extend(node.children().map(|kid| (kid, resolved)));
            }
        }
        Ok(())
    }

    /// Drops the old tree's reference to `root`, depth first: a node whose
    /// count reaches zero leaves, and its children lose a reference.
    fn drop_tree(&mut self, root: [u8; 32]) {
        let mut stack = vec![root];
        while let Some(hash) = stack.pop() {
            let Entry::Occupied(mut refs) = self.refs.entry(hash) else { continue };
            self.log.push((hash, *refs.get()));
            if *refs.get() > 1 {
                *refs.get_mut() -= 1;
                continue;
            }
            refs.remove();
            self.left.push(hash);
            let Some(m) = self.memo.get(&hash) else { continue };
            if m.node.is_leaf() {
                self.left_leaves.push(hash);
                self.keys_out += m.node.entry_count() as u64;
            }
            // Reversed, so the first child comes off the stack first.
            stack.extend(m.node.children().rev());
        }
    }

    /// Restores `refs` and the memo as they were before the walk.
    fn undo(self) {
        for (hash, before) in self.log.into_iter().rev() {
            if before == 0 {
                self.refs.remove(&hash);
            } else {
                self.refs.insert(hash, before);
            }
        }
        for hash in self.fetched {
            self.memo.remove(&hash);
        }
    }

    /// Keeps the walk: held hashes new to the tree gain a memo reference
    /// (a fetched one entered with its one), hashes gone from it lose one.
    /// Returns the key delta.
    fn commit(self) -> KeyDelta {
        let delta = KeyDelta::between(self.memo, &self.entered_leaves, &self.left_leaves);
        for hash in self.held {
            if let Some(m) = self.memo.get_mut(&hash) {
                m.trees += 1;
            }
        }
        for hash in self.left {
            if let Entry::Occupied(mut m) = self.memo.entry(hash) {
                m.get_mut().trees -= 1;
                if m.get().trees == 0 {
                    m.remove();
                }
            }
        }
        delta
    }
}

impl IndexSync {
    fn slot(&mut self, idx: usize) -> &mut NodeSync {
        if self.nodes.len() <= idx {
            self.nodes.resize_with(idx + 1, NodeSync::default);
        }
        &mut self.nodes[idx]
    }

    /// Number of decoded nodes held (test hook for the memo bound).
    #[cfg(test)]
    pub(crate) fn memo_len(&self) -> usize {
        self.memo.len()
    }

    /// Moves node `idx`'s tree to `root`, which the node reported with
    /// `count` keys. Nothing changes unless the descent succeeds and the
    /// key count matches.
    fn advance(
        &mut self,
        idx: usize,
        root: [u8; 32],
        count: u64,
        fetch: &mut FetchNodes<'_>,
    ) -> Result<KeyDelta, NetError> {
        let new_root = (root != empty_root()).then_some(root);
        if new_root.is_none() && count != 0 {
            return Err(NetError::Codec("empty root with nonzero key count"));
        }
        self.slot(idx);
        let tree = &mut self.nodes[idx].tree;
        let mut walk = Walk {
            refs: &mut tree.refs,
            memo: &mut self.memo,
            log: Vec::new(),
            fetched: Vec::new(),
            held: Vec::new(),
            left: Vec::new(),
            shared: Vec::new(),
            entered_leaves: Vec::new(),
            left_leaves: Vec::new(),
            keys_in: 0,
            keys_out: 0,
        };
        if let Some(root) = new_root {
            if let Err(e) = walk.add(root, fetch) {
                walk.undo();
                return Err(e);
            }
        }
        if let Some(old_root) = tree.root {
            walk.drop_tree(old_root);
        }
        // An honest tree reaches each node once: a node's keys are disjoint
        // from its siblings', so no two positions share a hash. A hash
        // referenced twice (twice in one node, or under two parents) would
        // count its keys once here; refuse the shape. The old tree held
        // every count at one and dropping only lowers counts, so only a hash
        // the new tree reached while it already had a reference can exceed it.
        if walk.shared.iter().any(|hash| walk.refs.get(hash).is_some_and(|r| *r > 1)) {
            walk.undo();
            return Err(NetError::Codec("index node reached twice"));
        }
        let walked = tree.count as i128 + walk.keys_in as i128 - walk.keys_out as i128;
        if walked != count as i128 {
            // A mutation between the Root fetch and the descent (or a node
            // misreporting its count): treat the walk as unusable.
            walk.undo();
            return Err(NetError::Codec("index key count mismatch"));
        }
        let delta = walk.commit();
        tree.root = new_root;
        tree.count = count;
        Ok(delta)
    }

    /// Every key of node `idx`'s tree, in tree order, read from the memo.
    /// Each hash expands once, as in [`Walk::add`], so the keys removed
    /// here are exactly the keys the walks counted.
    fn tree_keys(&self, idx: usize) -> Vec<ObjectKey> {
        let mut keys = Vec::new();
        let mut visited = HashSet::new();
        let mut stack: Vec<[u8; 32]> = self.nodes[idx].tree.root.into_iter().collect();
        while let Some(hash) = stack.pop() {
            if !visited.insert(hash) {
                continue;
            }
            if let Some(m) = self.memo.get(&hash) {
                if m.node.is_leaf() {
                    keys.extend(m.node.keys());
                }
                stack.extend(m.node.children().rev());
            }
        }
        keys
    }

    fn count_keys(&mut self, keys: &[ObjectKey]) {
        for k in keys {
            let refs = self.key_refs.entry(*k).or_insert(0);
            *refs += 1;
            if *refs == 1 {
                self.union.insert(*k);
            }
        }
    }

    fn uncount_keys(&mut self, keys: &[ObjectKey]) {
        for k in keys {
            let Entry::Occupied(mut refs) = self.key_refs.entry(*k) else { continue };
            if *refs.get() > 1 {
                *refs.get_mut() -= 1;
            } else {
                refs.remove();
                self.union.remove(k);
            }
        }
    }

    /// Node `idx` contributes nothing from now on (until its next refresh).
    fn uncount(&mut self, idx: usize) {
        let node = self.slot(idx);
        node.seen = None;
        match std::mem::take(&mut node.counted) {
            Counted::Nothing => {}
            Counted::Tree => self.uncount_keys(&self.tree_keys(idx)),
            Counted::Scanned(keys) => self.uncount_keys(&keys),
        }
    }

    /// Node `idx` left the ring: its tree releases its memo references.
    fn forget_tree(&mut self, idx: usize) {
        if self.nodes[idx].tree.root.is_some() {
            // A move to the empty tree fetches nothing.
            let _ = self.advance(idx, empty_root(), 0, &mut |_| Err(NetError::Closed));
        }
    }

    /// Node `idx`'s tree just moved by `delta`; it now contributes that
    /// tree's keys.
    fn count_tree(&mut self, idx: usize, delta: KeyDelta) {
        if matches!(self.nodes[idx].counted, Counted::Tree) {
            self.count_keys(&delta.added);
            self.uncount_keys(&delta.removed);
        } else {
            self.uncount(idx);
            self.count_keys(&self.tree_keys(idx));
            self.nodes[idx].counted = Counted::Tree;
        }
    }

    /// Node `idx` now contributes the keys a fallback scan returned.
    fn count_scanned(&mut self, idx: usize, keys: Vec<ObjectKey>) {
        self.uncount(idx);
        self.count_keys(&keys);
        self.nodes[idx].counted = Counted::Scanned(keys);
    }

    /// The keys node `idx` contributes, if any.
    fn counted_keys(&self, idx: usize) -> Option<Vec<ObjectKey>> {
        match &self.nodes.get(idx)?.counted {
            Counted::Nothing => None,
            Counted::Tree => Some(self.tree_keys(idx)),
            Counted::Scanned(keys) => Some(keys.clone()),
        }
    }
}

impl ClusterTransport {
    /// One node's index commitment: `(root hash, live key count)`.
    pub(crate) fn node_root(&mut self, idx: usize) -> Result<([u8; 32], u64), NetError> {
        match self.node_call(idx, &Request::Root)? {
            Response::Root { root, count } => Ok((root, count)),
            _ => Err(NetError::Codec("unexpected root response shape")),
        }
    }

    /// Index nodes from node `idx`, one per hash in order, in one
    /// `IndexNode` request per [`MAX_INDEX_BATCH`] hashes. Each node is
    /// re-digested against its slot's hash, then checked in place; a reply of
    /// the wrong length, an empty slot or a node that does not hash to its
    /// slot fails the fetch. A batch's nodes are hashed side by side, up to
    /// its first empty slot.
    fn fetch_nodes(
        &mut self,
        idx: usize,
        hashes: &[[u8; 32]],
    ) -> Result<Vec<EncodedNode>, NetError> {
        let mut out = Vec::with_capacity(hashes.len());
        for chunk in hashes.chunks(MAX_INDEX_BATCH) {
            let nodes = match self.node_call(idx, &Request::IndexNode { hashes: chunk.to_vec() })? {
                Response::IndexNode { nodes } if nodes.len() == chunk.len() => nodes,
                Response::IndexNode { .. } => {
                    return Err(NetError::Codec("index node batch of the wrong length"));
                }
                _ => return Err(NetError::Codec("unexpected index node response shape")),
            };
            let present: Vec<&[u8]> = nodes.iter().map_while(|n| n.as_deref()).collect();
            let digests = Sha256::digest_many(&present);
            let digested = digests.len();
            for ((hash, bytes), digest) in chunk.iter().zip(nodes).zip(digests) {
                let bytes = bytes.expect("digested slots are present");
                if digest != *hash {
                    return Err(NetError::Codec("index node bytes do not match their hash"));
                }
                sync_metrics().nodes_fetched.inc();
                let node = EncodedNode::new(bytes);
                out.push(node.map_err(|_| NetError::Codec("malformed index node"))?);
            }
            if digested < chunk.len() {
                return Err(NetError::Codec("index node missing on replica"));
            }
        }
        Ok(out)
    }

    /// Brings node `idx`'s contribution to the union up to the `root` it
    /// just reported: the indexed descent when it works, else a `Scan` of
    /// `page` keys per call, else nothing — then the scan's error.
    fn refresh_node(
        &mut self,
        idx: usize,
        root: [u8; 32],
        count: u64,
        page: u32,
    ) -> Result<(), NetError> {
        if self.sync.slot(idx).seen == Some(root) {
            return Ok(());
        }
        // The descent needs `&mut self` for RPCs, so take the sync state
        // out for the walk and put it back unconditionally.
        let mut sync = std::mem::take(&mut self.sync);
        let walked = sync.advance(idx, root, count, &mut |h| self.fetch_nodes(idx, h));
        self.sync = sync;
        match walked {
            Ok(delta) => self.sync.count_tree(idx, delta),
            Err(_) => {
                sync_metrics().fallbacks.inc();
                match self.scan_node(idx, page) {
                    Ok(keys) => self.sync.count_scanned(idx, keys),
                    Err(e) => {
                        self.sync.uncount(idx);
                        return Err(e);
                    }
                }
            }
        }
        self.sync.slot(idx).seen = Some(root);
        Ok(())
    }

    /// Full key set of node `idx`: its refreshed contribution to the union
    /// (indexed descent, or the `Scan` fallback), or a plain scan when the
    /// node does not answer `Root`.
    pub(crate) fn node_keys(&mut self, idx: usize, page: u32) -> Result<Vec<ObjectKey>, NetError> {
        match self.node_root(idx) {
            Ok((root, count)) => {
                self.refresh_node(idx, root, count, page)?;
                self.sync.counted_keys(idx).ok_or(NetError::Codec("node contributes no keys"))
            }
            Err(_) => {
                sync_metrics().fallbacks.inc();
                self.scan_node(idx, page)
            }
        }
    }

    /// The union index over every reachable node's keyspace, brought up to
    /// date with one `Root` per active node plus a refresh of each node
    /// whose root moved. Nodes that do not answer, or fail both the index
    /// walk and the scan fallback, contribute nothing this round.
    pub(crate) fn union_index(&mut self) -> Result<&mut MerkleIndex, NetError> {
        if self.active_indices().is_empty() {
            return Err(Self::no_nodes_err());
        }
        let mut answered = false;
        let mut moved = false;
        for idx in 0..self.node_count() {
            let seen = self.sync.slot(idx).seen;
            let reported = if self.is_active(idx) { self.node_root(idx).ok() } else { None };
            match reported {
                Some((root, count)) => {
                    answered = true;
                    // A node both paths fail on contributes nothing.
                    let _ = self.refresh_node(idx, root, count, FALLBACK_SCAN_PAGE);
                }
                None => {
                    self.sync.uncount(idx);
                    if !self.is_active(idx) {
                        self.sync.forget_tree(idx);
                    }
                }
            }
            moved |= self.sync.slot(idx).seen != seen;
        }
        if !answered {
            return Err(Self::no_nodes_err());
        }
        if moved {
            sync_metrics().union_updates.inc();
        }
        Ok(&mut self.sync.union)
    }

    /// `Request::Root` over the cluster: the union index's commitment.
    pub(crate) fn union_root(&mut self) -> Result<Response, NetError> {
        let index = self.union_index()?;
        let root = index.root();
        let count = index.len();
        Ok(Response::Root { root, count })
    }

    /// `Request::IndexNode` over the cluster: the union index's nodes, one
    /// slot per hash, under a node's cap.
    pub(crate) fn union_nodes(&mut self, hashes: &[[u8; 32]]) -> Result<Response, NetError> {
        if hashes.len() > MAX_INDEX_BATCH {
            return Ok(Response::Error(format!("index node batch over {MAX_INDEX_BATCH} hashes")));
        }
        let index = self.union_index()?;
        Ok(Response::IndexNode { nodes: index.nodes_bytes(hashes) })
    }

    /// `Request::ScanVerified` over the cluster: one page of the union
    /// keyspace with a Merkle range proof against the union root.
    pub(crate) fn scan_verified(
        &mut self,
        after: &Option<ObjectKey>,
        limit: u32,
    ) -> Result<Response, NetError> {
        let page = self.union_index()?.prove_scan(after.as_ref(), limit);
        Ok(Response::KeysProof {
            keys: page.keys,
            done: page.done,
            root: page.root,
            proof: page.proof,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ClusterOpts;
    use sharoes_index::{decode_node, encode_node, IndexNode};
    use sharoes_net::{CostMeter, InMemoryTransport, RequestHandler, Transport};
    use sharoes_ssp::{ObjectStore, SspServer};
    use std::collections::HashMap;
    use std::sync::{Arc, Mutex};

    /// Every node hash of `store`'s current index tree; returns the tree's
    /// height (levels below the root).
    fn tree_nodes(store: &ObjectStore, out: &mut HashSet<[u8; 32]>) -> usize {
        let (root, _) = store.index_root();
        let mut level = vec![root];
        let mut height = 0;
        loop {
            let mut next = Vec::new();
            for (hash, bytes) in level.iter().zip(store.index_nodes(&level)) {
                let Some(bytes) = bytes else { continue };
                out.insert(*hash);
                if let IndexNode::Internal(entries) = decode_node(&bytes).unwrap() {
                    next.extend(entries.iter().map(|(_, h)| *h));
                }
            }
            if next.is_empty() {
                return height;
            }
            level = next;
            height += 1;
        }
    }

    /// A link that logs every request it carries.
    struct Logged {
        inner: InMemoryTransport,
        log: Arc<Mutex<Vec<Request>>>,
    }

    impl Transport for Logged {
        fn call(&mut self, request: &Request) -> Result<Response, NetError> {
            self.log.lock().unwrap().push(request.clone());
            self.inner.call(request)
        }

        fn meter(&self) -> &Arc<CostMeter> {
            self.inner.meter()
        }
    }

    #[test]
    fn a_refresh_fetches_each_new_hash_once_in_one_request_per_level() {
        let mut cluster = ClusterTransport::new(ClusterOpts::default());
        let (mut stores, mut logs) = (Vec::new(), Vec::new());
        for name in ["a", "b", "c"] {
            let store = Arc::new(ObjectStore::new());
            let server: Arc<dyn RequestHandler> =
                Arc::new(SspServer::with_store(Arc::clone(&store)));
            let log = Arc::new(Mutex::new(Vec::new()));
            let inner = InMemoryTransport::new(server);
            cluster.add_node(name, Box::new(Logged { inner, log: Arc::clone(&log) }));
            stores.push(store);
            logs.push(log);
        }
        let key = |i: u64| ObjectKey::data(i.wrapping_mul(0x9E37_79B9_7F4A_7C15), [0; 16], 0);
        let items = (0..3000).map(|i| (key(i), vec![1])).collect();
        cluster.call(&Request::PutMany { items }).unwrap();
        cluster.call(&Request::Root).unwrap();
        let (mut fetched_total, mut multi_level) = (0, false);
        for round in 0..8u64 {
            let old: Vec<HashSet<[u8; 32]>> = stores
                .iter()
                .map(|store| {
                    let mut tree = HashSet::new();
                    tree_nodes(store, &mut tree);
                    tree
                })
                .collect();
            for i in 0..1 + round * 9 {
                let id = round * 100 + i;
                cluster.call(&Request::Put { key: key(3000 + id), value: vec![2] }).unwrap();
                cluster.call(&Request::Delete { key: key(id) }).unwrap();
            }
            // A second writer the cluster never sees.
            stores[0].put(key(9000 + round), vec![3]).unwrap();
            for log in &logs {
                log.lock().unwrap().clear();
            }
            for idx in 0..stores.len() {
                let memo: HashSet<[u8; 32]> = cluster.sync.memo.keys().copied().collect();
                let (root, count) = cluster.node_root(idx).unwrap();
                cluster.refresh_node(idx, root, count, FALLBACK_SCAN_PAGE).unwrap();
                let mut new = HashSet::new();
                let height = tree_nodes(&stores[idx], &mut new);
                let log = std::mem::take(&mut *logs[idx].lock().unwrap());
                let batches: Vec<&Vec<[u8; 32]>> = log[1..]
                    .iter()
                    .map(|request| match request {
                        Request::IndexNode { hashes } => hashes,
                        other => panic!("round {round}, node {idx}: {other:?} in a refresh"),
                    })
                    .collect();
                assert_eq!(log[0], Request::Root);
                let sizes: Vec<usize> = batches.iter().map(|b| b.len()).collect();
                assert!(
                    batches.len() <= height + 1,
                    "round {round}, node {idx}: batches {sizes:?}"
                );
                let want: HashSet<[u8; 32]> =
                    new.difference(&old[idx]).filter(|h| !memo.contains(*h)).copied().collect();
                let fetched: Vec<[u8; 32]> = batches.into_iter().flatten().copied().collect();
                let fetched_set: HashSet<[u8; 32]> = fetched.iter().copied().collect();
                assert_eq!(
                    fetched.len(),
                    fetched_set.len(),
                    "round {round}, node {idx}: refetched"
                );
                assert_eq!(fetched_set, want, "round {round}, node {idx}: fetched set");
                fetched_total += want.len();
                multi_level |= log.len() > 2;
            }
        }
        assert!(fetched_total > 0 && multi_level, "no multi-level descent exercised");
    }

    #[test]
    fn a_tree_reaching_one_node_twice_is_refused_and_undone() {
        let k = |i: u64| ObjectKey::data(i, [0; 16], 0);
        let mut nodes = HashMap::new();
        let mut add = |node: IndexNode| {
            let hash = sharoes_index::node_hash(&node);
            nodes.insert(hash, node);
            hash
        };
        let leaf = add(IndexNode::Leaf(vec![k(1)]));
        let left = add(IndexNode::Internal(vec![(k(1), leaf)]));
        let right = add(IndexNode::Internal(vec![(k(2), leaf)]));
        let twice = add(IndexNode::Internal(vec![(k(1), leaf), (k(2), leaf)]));
        let two_parents = add(IndexNode::Internal(vec![(k(1), left), (k(2), right)]));
        let chain_and_leaf = add(IndexNode::Internal(vec![(k(1), left), (k(2), leaf)]));
        let mut fetch = |hashes: &[[u8; 32]]| {
            let node = |h| nodes.get(h).map(|n| EncodedNode::new(encode_node(n)).unwrap());
            hashes.iter().map(|h| node(h).ok_or(NetError::Closed)).collect()
        };
        // (tree before, tree reaching `leaf` twice); every tree lists k(1).
        let moves = [
            (None, twice),
            (Some(leaf), twice),
            (None, two_parents),
            (Some(leaf), two_parents),
            // Only the second reference to `leaf` is new to the tree.
            (Some(left), chain_and_leaf),
        ];
        for (before, dup) in moves {
            let mut sync = IndexSync::default();
            if let Some(root) = before {
                sync.advance(0, root, 1, &mut fetch).unwrap();
            }
            let memo = sync.memo_len();
            let refused = sync.advance(0, dup, 1, &mut fetch).err();
            assert!(
                matches!(refused, Some(NetError::Codec("index node reached twice"))),
                "{before:?} -> {dup:?}: {refused:?}"
            );
            assert_eq!(sync.memo_len(), memo);
            assert_eq!(sync.nodes[0].tree.root, before);
            assert_eq!(sync.tree_keys(0), before.map_or(vec![], |_| vec![k(1)]));
        }
    }

    #[test]
    fn memo_holds_only_the_nodes_of_the_current_trees() {
        let mut cluster = ClusterTransport::new(ClusterOpts::default());
        let mut stores = Vec::new();
        for name in ["a", "b", "c"] {
            let store = Arc::new(ObjectStore::new());
            let server: Arc<dyn RequestHandler> =
                Arc::new(SspServer::with_store(Arc::clone(&store)));
            cluster.add_node(name, Box::new(InMemoryTransport::new(server)));
            stores.push(store);
        }
        let key = |i: u64| ObjectKey::data(i.wrapping_mul(0x9E37_79B9_7F4A_7C15), [0; 16], 0);
        let items = (0..2000).map(|i| (key(i), vec![1])).collect();
        cluster.call(&Request::PutMany { items }).unwrap();
        for round in 0..50u64 {
            // Mutate, then scan: every round moves every node's root.
            for i in 0..40 {
                let id = 2000 + round * 40 + i;
                cluster.call(&Request::Put { key: key(id), value: vec![2] }).unwrap();
                cluster.call(&Request::Delete { key: key(id - 2000) }).unwrap();
            }
            let page = cluster.call(&Request::ScanVerified { after: None, limit: 16 }).unwrap();
            assert!(matches!(page, Response::KeysProof { .. }));
        }
        let bound = |stores: &[Arc<ObjectStore>]| {
            let mut current = HashSet::new();
            for store in stores {
                tree_nodes(store, &mut current);
            }
            current.len()
        };
        let held = cluster.sync.memo_len();
        assert!(held > 0);
        assert!(held <= bound(&stores), "memo holds {held} nodes, more than the current trees");
        // A retired node's tree leaves the memo with it.
        assert!(cluster.retire_node("c"));
        cluster.call(&Request::Root).unwrap();
        let held = cluster.sync.memo_len();
        assert!(held <= bound(&stores[..2]), "memo holds {held} nodes after a retirement");
    }
}
