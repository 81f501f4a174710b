//! Authenticated-index replica sync: per-node root fetch, subtree-diff
//! descent against each node's last verified tree, and the cluster-level
//! union index behind the verified scan ops.
//!
//! Each node commits to its keyspace with one 32-byte root
//! (`Request::Root`). The cluster keeps, per node, the last tree it
//! verified from that node: the in-tree reference count of every node hash
//! reachable from its root. When a root moves, the descent starts at the
//! new root and stops at every hash the old tree already holds, fetching
//! (`Request::IndexNode`) only hashes that neither the old tree nor the
//! memo resolves. Every fetched node is re-digested before use — a replica
//! cannot forge its claimed key set below the root it reported — and the
//! resulting key count must equal the count the node reported next to its
//! root. Nodes whose index ops fail (link fault, mid-descent mutation) fall
//! back to the `Scan` streaming path. So does a tree that reaches one node
//! hash twice, which no honest tree does: the walk counts each hash once,
//! so a replica can add keys to the union but never remove another's.
//!
//! The memo maps a hash to its decoded node and holds exactly the nodes
//! reachable from the latest verified per-node roots: a node enters when
//! some node's tree gains it and leaves when the last tree referencing it
//! drops it. A settled cluster costs one `Root` RPC per node per round; a
//! moved root costs O(Δ · height) fetches for Δ changed leaves.
//!
//! The union index is a per-key count of the nodes listing the key, plus
//! one [`MerkleIndex`] that gains a key when its count leaves zero and
//! loses it when its count returns to zero. A moved root applies only the
//! keys of the leaves that entered or left that node's tree.

use crate::transport::ClusterTransport;
use sharoes_crypto::Sha256;
use sharoes_index::{decode_node, empty_root, IndexNode, MerkleIndex, MAX_PROOF_DEPTH};
use sharoes_net::{NetError, ObjectKey, Request, Response};
use std::collections::{HashMap, HashSet};
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
    node: IndexNode,
    trees: u32,
}

/// The last index tree verified from one node.
#[derive(Default)]
struct TreeView {
    /// Root hash; `None` for the empty tree.
    root: Option<[u8; 32]>,
    /// Keys under `root`.
    count: u64,
    /// How many times each node hash is referenced inside this tree (the
    /// root counts once). Every hash here is also in the memo.
    refs: HashMap<[u8; 32], u32>,
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
    memo: HashMap<[u8; 32], MemoNode>,
    /// By node slot.
    nodes: Vec<NodeSync>,
    /// Key → number of contributions listing it; absent means zero.
    key_refs: HashMap<ObjectKey, u32>,
    union: MerkleIndex,
}

/// Keys entering and leaving one node's tree when its root moves.
#[derive(Default)]
struct KeyDelta {
    added: Vec<ObjectKey>,
    removed: Vec<ObjectKey>,
}

impl KeyDelta {
    /// Cancels every key that both left and entered (it only moved between
    /// leaves), leaving the keys the tree really gained and lost.
    fn net(mut self) -> KeyDelta {
        // Tree order is key order for an honest node; sorting costs one
        // pass then, and makes a hostile order harmless.
        self.added.sort_unstable();
        self.removed.sort_unstable();
        let (mut a, mut r) = (0, 0);
        let mut net = KeyDelta::default();
        while a < self.added.len() && r < self.removed.len() {
            match self.added[a].cmp(&self.removed[r]) {
                std::cmp::Ordering::Less => {
                    net.added.push(self.added[a]);
                    a += 1;
                }
                std::cmp::Ordering::Greater => {
                    net.removed.push(self.removed[r]);
                    r += 1;
                }
                std::cmp::Ordering::Equal => {
                    a += 1;
                    r += 1;
                }
            }
        }
        net.added.extend_from_slice(&self.added[a..]);
        net.removed.extend_from_slice(&self.removed[r..]);
        net
    }
}

/// One root move of one node's tree, applied in place and undone if the
/// descent fails.
struct Walk<'a> {
    /// The tree's reference counts, being moved to the new root.
    refs: &'a mut HashMap<[u8; 32], u32>,
    memo: &'a mut HashMap<[u8; 32], MemoNode>,
    /// Every `refs` change as `(hash, count before)`, for [`Walk::undo`].
    log: Vec<([u8; 32], u32)>,
    /// Hashes this walk fetched into the memo (no tree holds them yet).
    fetched: Vec<[u8; 32]>,
    /// Hashes whose count left zero: new to the tree.
    entered: Vec<[u8; 32]>,
    /// Hashes whose count returned to zero: gone from the tree.
    left: Vec<[u8; 32]>,
    delta: KeyDelta,
}

impl Walk<'_> {
    /// Adds one reference to `hash`. A hash new to the tree brings in its
    /// leaf keys and references its children; it comes from the memo when
    /// another tree holds it, else from `fetch`. `resolved` is set below a
    /// memo hit, where nothing is fetched and no further hit is counted.
    fn add(
        &mut self,
        hash: [u8; 32],
        depth: usize,
        resolved: bool,
        fetch: &mut dyn FnMut(&[u8; 32]) -> Result<IndexNode, NetError>,
    ) -> Result<(), NetError> {
        if depth > MAX_PROOF_DEPTH {
            return Err(NetError::Codec("index descent too deep"));
        }
        let refs = self.refs.entry(hash).or_insert(0);
        self.log.push((hash, *refs));
        *refs += 1;
        if *refs > 1 {
            if !resolved {
                sync_metrics().memo_hits.inc();
            }
            return Ok(());
        }
        self.entered.push(hash);
        let (kids, resolved) = match self.memo.get(&hash) {
            Some(m) => {
                if !resolved {
                    sync_metrics().memo_hits.inc();
                }
                (expand(&m.node, &mut self.delta.added), true)
            }
            None => {
                let node = fetch(&hash)?;
                let kids = expand(&node, &mut self.delta.added);
                self.memo.insert(hash, MemoNode { node, trees: 0 });
                self.fetched.push(hash);
                (kids, resolved)
            }
        };
        for kid in kids {
            self.add(kid, depth + 1, resolved, fetch)?;
        }
        Ok(())
    }

    /// Drops one reference to `hash`, a node of the old tree; at zero its
    /// leaf keys leave and its children lose a reference.
    fn drop_ref(&mut self, hash: [u8; 32]) {
        let Some(refs) = self.refs.get_mut(&hash).filter(|r| **r > 0) else { return };
        self.log.push((hash, *refs));
        *refs -= 1;
        if *refs > 0 {
            return;
        }
        self.left.push(hash);
        if let Some(m) = self.memo.get(&hash) {
            for kid in expand(&m.node, &mut self.delta.removed) {
                self.drop_ref(kid);
            }
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

    /// Keeps the walk: hashes new to the tree gain a memo reference,
    /// hashes gone from it lose one. Returns the key delta.
    fn commit(self) -> KeyDelta {
        for hash in self.entered {
            if let Some(m) = self.memo.get_mut(&hash) {
                m.trees += 1;
            }
        }
        for hash in self.left {
            self.refs.remove(&hash);
            if let Some(m) = self.memo.get_mut(&hash) {
                m.trees -= 1;
                if m.trees == 0 {
                    self.memo.remove(&hash);
                }
            }
        }
        self.delta.net()
    }
}

/// Appends a leaf's keys to `keys`; returns an internal node's child hashes.
fn expand(node: &IndexNode, keys: &mut Vec<ObjectKey>) -> Vec<[u8; 32]> {
    match node {
        IndexNode::Leaf(leaf) => {
            keys.extend_from_slice(leaf);
            Vec::new()
        }
        IndexNode::Internal(entries) => entries.iter().map(|(_, h)| *h).collect(),
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
        fetch: &mut dyn FnMut(&[u8; 32]) -> Result<IndexNode, NetError>,
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
            entered: Vec::new(),
            left: Vec::new(),
            delta: KeyDelta::default(),
        };
        if let Some(root) = new_root {
            if let Err(e) = walk.add(root, 0, false, fetch) {
                walk.undo();
                return Err(e);
            }
        }
        if let Some(old_root) = tree.root {
            walk.drop_ref(old_root);
        }
        // An honest tree reaches each node once: a node's keys are disjoint
        // from its siblings', so no two positions share a hash. A hash
        // referenced twice (twice in one node, or under two parents) would
        // count its keys once here; refuse the shape. The old tree held
        // every count at one, so only hashes this walk touched can exceed it.
        if walk.log.iter().any(|(hash, _)| walk.refs.get(hash).is_some_and(|r| *r > 1)) {
            walk.undo();
            return Err(NetError::Codec("index node reached twice"));
        }
        let walked =
            tree.count as i128 + walk.delta.added.len() as i128 - walk.delta.removed.len() as i128;
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
                let mut kids = expand(&m.node, &mut keys);
                kids.reverse();
                stack.extend(kids);
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
            if let Some(refs) = self.key_refs.get_mut(k) {
                *refs -= 1;
                if *refs == 0 {
                    self.key_refs.remove(k);
                    self.union.remove(k);
                }
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

    /// One index node from node `idx`, verified by re-digesting its bytes
    /// against the requested hash.
    fn fetch_node(&mut self, idx: usize, hash: &[u8; 32]) -> Result<IndexNode, NetError> {
        let bytes = match self.node_call(idx, &Request::IndexNode { hash: *hash })? {
            Response::IndexNode { node: Some(bytes) } => bytes,
            Response::IndexNode { node: None } => {
                return Err(NetError::Codec("index node missing on replica"));
            }
            _ => return Err(NetError::Codec("unexpected index node response shape")),
        };
        if Sha256::digest(&bytes) != *hash {
            return Err(NetError::Codec("index node bytes do not match their hash"));
        }
        sync_metrics().nodes_fetched.inc();
        decode_node(&bytes).map_err(|_| NetError::Codec("malformed index node"))
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
        let walked = sync.advance(idx, root, count, &mut |h| self.fetch_node(idx, h));
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
    /// walk and the scan fallback, contribute nothing this round (same
    /// visibility rule as the merged `Scan`).
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

    /// `Request::IndexNode` over the cluster: served from the union index.
    pub(crate) fn union_node(&mut self, hash: &[u8; 32]) -> Result<Response, NetError> {
        Ok(Response::IndexNode { node: self.union_index()?.node_bytes(hash) })
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
    use sharoes_net::{InMemoryTransport, RequestHandler, Transport};
    use sharoes_ssp::{ObjectStore, SspServer};
    use std::sync::Arc;

    /// Every node hash of `store`'s current index tree.
    fn tree_nodes(store: &ObjectStore, out: &mut HashSet<[u8; 32]>) {
        let (root, _) = store.index_root();
        let mut stack = vec![root];
        while let Some(hash) = stack.pop() {
            let Some(bytes) = store.index_node_bytes(&hash) else { continue };
            out.insert(hash);
            if let IndexNode::Internal(entries) = decode_node(&bytes).unwrap() {
                stack.extend(entries.iter().map(|(_, h)| *h));
            }
        }
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
        let mut fetch = |hash: &[u8; 32]| nodes.get(hash).cloned().ok_or(NetError::Closed);
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
